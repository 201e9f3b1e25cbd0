//! Per-rank communication and work counters.
//!
//! Every distributed hash-table access, message, computation step, and I/O
//! byte is tallied here. The counters are the *ground truth* the scaling
//! figures are computed from: Table 2 of the paper is literally the
//! `offnode_lookups / total lookups` ratio these counters expose, and the
//! heavy-hitter load-imbalance of Fig. 6 appears as a skewed
//! `service_ops` distribution across ranks.

/// Counters accumulated by one virtual rank during one phase.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CommStats {
    /// Pure computation steps (base extensions, alignment cells, hash mixes).
    pub compute_ops: u64,
    /// Hash-table (or other shared-structure) accesses that stayed on the
    /// acting rank's own partition.
    pub local_ops: u64,
    /// Accesses/messages to a different rank on the same node.
    pub onnode_msgs: u64,
    /// Accesses/messages to a rank on a different node.
    pub offnode_msgs: u64,
    /// Payload bytes that crossed ranks within a node.
    pub onnode_bytes: u64,
    /// Payload bytes that crossed the network.
    pub offnode_bytes: u64,
    /// Work performed *for* this rank's partition on behalf of others
    /// (remote inserts/updates landing in its shard). This is what load
    /// imbalance from heavy hitters shows up in.
    pub service_ops: u64,
    /// Batched one-sided reads shipped as single messages: the per-owner
    /// groups of a [`crate::FrozenMap::multi_get`] (or
    /// [`crate::DistHashMap::multi_get`]). Each batch also counts exactly one
    /// on-node or off-node message (or one local op), so
    /// `remote_msgs / lookup_batches` approximates the inverse batching
    /// factor of the read path.
    pub lookup_batches: u64,
    /// Remote lookups answered from per-rank memory without touching the
    /// owner (no message, no bytes): a [`crate::SoftwareCache`] hit, or a
    /// seed the aligner's memo already holds.
    pub cache_hits: u64,
    /// Cache or memo probes that missed and fell through to a real lookup.
    /// The fall-through access is accounted separately by whoever performs
    /// it.
    pub cache_misses: u64,
    /// Transient message faults injected against this rank's remote
    /// accesses by an attached [`crate::FaultPlan`] (each lost delivery
    /// attempt counts once, so a message retried twice adds two).
    pub transient_faults: u64,
    /// Message re-deliveries performed after transient faults. Each retry
    /// also re-accounts the message itself (latency + bytes), so retried
    /// traffic is visible in the ordinary message/byte counters too.
    pub retries: u64,
    /// Exponential-backoff penalty units accumulated while waiting to
    /// retry: attempt `n` adds `2^min(n-1, cap)` units, priced by
    /// [`crate::CostModel::t_backoff`].
    pub backoff_units: u64,
    /// Bytes read from storage by this rank.
    pub io_read_bytes: u64,
    /// Bytes written to storage by this rank.
    pub io_write_bytes: u64,
    /// Barriers this rank participated in.
    pub barriers: u64,
    /// Measured nanoseconds this rank's phase body actually executed
    /// (stamped by [`crate::Team::run_named`]; sums across merged sub-phases).
    /// This is *host* time of the simulation, not modeled machine time.
    pub exec_nanos: u64,
    /// Entries resident in this rank's partition of the phase's hash
    /// table(s) when [`crate::DistHashMap::drain_service_into`] collected
    /// them (summed over the tables a phase drains). The sum over ranks is
    /// the report's `table.entries`, the max its
    /// `table.max_partition_entries`.
    pub table_entries: u64,
    /// Measured: times an accessor found this rank's partition lock held
    /// and had to wait for it — the simulator's stand-in for the remote
    /// atomics HipMer's UPC tables contend on. Tallied per table and
    /// drained to the *owner* alongside [`CommStats::service_ops`].
    pub lock_waits: u64,
}

/// Whether a [`CommStats`] field counts modeled events — a function of the
/// input, the configuration and the rank count — or measures the host.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Event counts: the report's per-phase `totals`.
    Counted,
    /// Host measurements: the report's per-phase `measured`; these differ
    /// from run to run and are what [`CommStats::counted`] zeroes.
    Measured,
}
use Kind::{Counted, Measured};

/// One row of [`FIELDS`]: the field's name in every serialized form
/// (report, trace), its kind, and its accessor.
pub type Field = (&'static str, Kind, fn(&mut CommStats) -> &mut u64);

/// The one description of [`CommStats`]: every field, in declaration
/// order. [`CommStats::merge`], [`CommStats::counted`], the report's
/// `totals`/`measured` objects and the trace span `args` are all loops over
/// this table, so a new counter is one struct field plus one row here.
pub const FIELDS: [Field; 19] = [
    ("compute_ops", Counted, |s| &mut s.compute_ops),
    ("local_ops", Counted, |s| &mut s.local_ops),
    ("onnode_msgs", Counted, |s| &mut s.onnode_msgs),
    ("offnode_msgs", Counted, |s| &mut s.offnode_msgs),
    ("onnode_bytes", Counted, |s| &mut s.onnode_bytes),
    ("offnode_bytes", Counted, |s| &mut s.offnode_bytes),
    ("service_ops", Counted, |s| &mut s.service_ops),
    ("lookup_batches", Counted, |s| &mut s.lookup_batches),
    ("cache_hits", Counted, |s| &mut s.cache_hits),
    ("cache_misses", Counted, |s| &mut s.cache_misses),
    ("transient_faults", Counted, |s| &mut s.transient_faults),
    ("retries", Counted, |s| &mut s.retries),
    ("backoff_units", Counted, |s| &mut s.backoff_units),
    ("io_read_bytes", Counted, |s| &mut s.io_read_bytes),
    ("io_write_bytes", Counted, |s| &mut s.io_write_bytes),
    ("barriers", Counted, |s| &mut s.barriers),
    ("table_entries", Counted, |s| &mut s.table_entries),
    ("exec_nanos", Measured, |s| &mut s.exec_nanos),
    ("lock_waits", Measured, |s| &mut s.lock_waits),
];

/// Every key of the report document ([`crate::PipelineReport::to_json`])
/// that holds a host measurement: the [`Kind::Measured`] rows of [`FIELDS`]
/// plus wall time (per phase and pipeline-wide), a stage attempt's
/// resident-set readings and a checkpoint transfer's seconds. Two runs of
/// the same input at one OS thread write equal reports once these keys are
/// removed.
pub fn measured_report_keys() -> Vec<&'static str> {
    let extra = ["wall_seconds", "peak_rss_bytes", "rss_bytes", "seconds"];
    let measured = FIELDS.iter().filter(|f| f.1 == Measured).map(|f| f.0);
    measured.chain(extra).collect()
}

impl CommStats {
    /// A zeroed counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `n` computation steps.
    #[inline]
    pub fn compute(&mut self, n: u64) {
        self.compute_ops = self.compute_ops.saturating_add(n);
    }

    /// Record one access from `from` to the partition owned by `to`,
    /// carrying `bytes` of payload, under the given topology.
    #[inline]
    pub fn access(&mut self, topo: &crate::Topology, from: usize, to: usize, bytes: u64) {
        if from == to {
            self.local_ops = self.local_ops.saturating_add(1);
        } else if topo.same_node(from, to) {
            self.onnode_msgs = self.onnode_msgs.saturating_add(1);
            self.onnode_bytes = self.onnode_bytes.saturating_add(bytes);
        } else {
            self.offnode_msgs = self.offnode_msgs.saturating_add(1);
            self.offnode_bytes = self.offnode_bytes.saturating_add(bytes);
        }
    }

    /// Total remote (on-node + off-node) messages.
    #[inline]
    pub fn remote_msgs(&self) -> u64 {
        self.onnode_msgs.saturating_add(self.offnode_msgs)
    }

    /// Total partition accesses of any locality.
    #[inline]
    pub fn total_accesses(&self) -> u64 {
        self.local_ops.saturating_add(self.remote_msgs())
    }

    /// Fraction of accesses that left the node (`None` if no accesses).
    pub fn offnode_fraction(&self) -> Option<f64> {
        let total = self.total_accesses();
        if total == 0 {
            None
        } else {
            Some(self.offnode_msgs as f64 / total as f64)
        }
    }

    /// Element-wise accumulation (used to merge sub-phase counters).
    /// Saturating: pathological inputs (fuzzers, adversarial FASTQ sizes)
    /// pin counters at `u64::MAX` instead of wrapping or panicking.
    pub fn merge(&mut self, o: &CommStats) {
        for ((_, _, slot), (_, _, add)) in FIELDS.iter().zip(o.fields()) {
            let mine = slot(self);
            *mine = mine.saturating_add(add);
        }
    }

    /// This record with every [`Kind::Measured`] field zeroed: what must be
    /// equal between two runs that differ only in host timing.
    pub fn counted(mut self) -> Self {
        for (_, _, slot) in FIELDS.iter().filter(|f| f.1 == Measured) {
            *slot(&mut self) = 0;
        }
        self
    }

    /// `(name, kind, value)` of every field, in [`FIELDS`] order — what the
    /// report and trace writers serialize.
    pub fn fields(mut self) -> impl Iterator<Item = (&'static str, Kind, u64)> {
        (FIELDS.iter()).map(move |&(name, kind, slot)| (name, kind, *slot(&mut self)))
    }
}

/// Sum a slice of per-rank stats into machine-wide totals.
pub fn total(stats: &[CommStats]) -> CommStats {
    let mut acc = CommStats::new();
    for s in stats {
        acc.merge(s);
    }
    acc
}

/// Fold a later sub-phase's per-rank counters into `acc`, rank by rank —
/// how a stage made of several `Team::run_named` calls builds one record.
pub fn merge_ranks(acc: &mut [CommStats], more: &[CommStats]) {
    assert_eq!(acc.len(), more.len(), "one CommStats per rank on each side");
    for (a, b) in acc.iter_mut().zip(more) {
        a.merge(b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Topology;

    #[test]
    fn access_classification() {
        let topo = Topology::new(48, 24);
        let mut s = CommStats::new();
        s.access(&topo, 0, 0, 16); // local
        s.access(&topo, 0, 5, 16); // on-node
        s.access(&topo, 0, 30, 16); // off-node
        assert_eq!(s.local_ops, 1);
        assert_eq!(s.onnode_msgs, 1);
        assert_eq!(s.offnode_msgs, 1);
        assert_eq!(s.onnode_bytes, 16);
        assert_eq!(s.offnode_bytes, 16);
        assert_eq!(s.total_accesses(), 3);
    }

    #[test]
    fn offnode_fraction() {
        let topo = Topology::new(48, 24);
        let mut s = CommStats::new();
        assert_eq!(s.offnode_fraction(), None);
        s.access(&topo, 0, 30, 8);
        s.access(&topo, 0, 0, 8);
        assert!((s.offnode_fraction().unwrap() - 0.5).abs() < 1e-12);
    }

    /// Destructuring without `..` stops compiling when a field is added, and
    /// the checks fail when a field has no row, two rows, or a misnamed one.
    #[test]
    fn every_field_has_exactly_one_table_row() {
        let mut s = CommStats::new();
        for (i, (_, _, slot)) in FIELDS.iter().enumerate() {
            *slot(&mut s) = i as u64 + 1;
        }
        macro_rules! named_fields {
            ($($f:ident),*) => {{
                let CommStats { $($f),* } = s;
                [$((stringify!($f), $f)),*]
            }};
        }
        let named = named_fields!(
            compute_ops,
            local_ops,
            onnode_msgs,
            offnode_msgs,
            onnode_bytes,
            offnode_bytes,
            service_ops,
            lookup_batches,
            cache_hits,
            cache_misses,
            transient_faults,
            retries,
            backoff_units,
            io_read_bytes,
            io_write_bytes,
            barriers,
            exec_nanos,
            table_entries,
            lock_waits
        );
        assert_eq!(named.len(), FIELDS.len());
        for (name, value) in named {
            assert!(value >= 1, "{name} has no row");
            assert_eq!(
                FIELDS[value as usize - 1].0,
                name,
                "row names another field"
            );
        }
    }

    #[test]
    fn counted_zeroes_exactly_the_measured_fields() {
        let mut s = CommStats::new();
        for (_, _, slot) in &FIELDS {
            *slot(&mut s) = 7;
        }
        let c = s.counted();
        assert_eq!((c.exec_nanos, c.lock_waits), (0, 0));
        let counted = || c.fields().filter(|f| f.1 == Counted);
        assert!(counted().all(|(_, _, v)| v == 7));
        assert_eq!(counted().count() + 2, FIELDS.len());
        assert_eq!(measured_report_keys()[..2], ["exec_nanos", "lock_waits"]);
    }

    #[test]
    fn merge_ranks_adds_rank_by_rank() {
        let mut acc = vec![CommStats::new(); 2];
        acc[0].compute(10);
        let mut more = vec![CommStats::new(); 2];
        more[0].compute(5);
        more[1].barriers = 2;
        merge_ranks(&mut acc, &more);
        assert_eq!((acc[0].compute_ops, acc[1].barriers), (15, 2));
    }

    #[test]
    #[should_panic(expected = "one CommStats per rank on each side")]
    fn merge_ranks_rejects_mismatched_lengths() {
        merge_ranks(&mut [CommStats::new()], &[]);
    }

    #[test]
    fn merge_and_total() {
        let mut a = CommStats::new();
        a.compute(10);
        a.io_read_bytes = 100;
        let mut b = CommStats::new();
        b.compute(5);
        b.barriers = 2;
        a.merge(&b);
        assert_eq!(a.compute_ops, 15);
        assert_eq!(a.barriers, 2);
        assert_eq!(a.io_read_bytes, 100);

        let t = total(&[a, b]);
        assert_eq!(t.compute_ops, 20);
        assert_eq!(t.barriers, 4);
    }

    #[test]
    fn merge_of_empty_stats_is_identity() {
        let topo = Topology::new(48, 24);
        let mut a = CommStats::new();
        a.compute(7);
        a.access(&topo, 0, 5, 64);
        a.access(&topo, 0, 30, 128);
        a.exec_nanos = 42;
        let before = a;

        // empty += full leaves the full side as-is...
        let mut empty = CommStats::new();
        empty.merge(&a);
        assert_eq!(empty, before);

        // ...and full += empty is a no-op.
        a.merge(&CommStats::new());
        assert_eq!(a, before);

        // Two empties merge to an empty.
        let mut e = CommStats::new();
        e.merge(&CommStats::new());
        assert_eq!(e, CommStats::new());
        assert_eq!(e.offnode_fraction(), None);
    }

    #[test]
    fn counter_arithmetic_saturates_at_u64_max() {
        let topo = Topology::new(48, 24);

        // Recording on top of an already-pinned counter must not wrap.
        let mut s = CommStats::new();
        s.compute_ops = u64::MAX;
        s.compute(1);
        assert_eq!(s.compute_ops, u64::MAX);

        s.onnode_bytes = u64::MAX;
        s.access(&topo, 0, 5, u64::MAX); // on-node: msg count 1, bytes pinned
        assert_eq!(s.onnode_msgs, 1);
        assert_eq!(s.onnode_bytes, u64::MAX);
        s.offnode_bytes = u64::MAX - 1;
        s.access(&topo, 0, 30, 2);
        assert_eq!(s.offnode_bytes, u64::MAX);

        // Derived sums saturate instead of overflowing.
        let mut m = CommStats::new();
        m.onnode_msgs = u64::MAX;
        m.offnode_msgs = 1;
        assert_eq!(m.remote_msgs(), u64::MAX);
        m.local_ops = u64::MAX;
        assert_eq!(m.total_accesses(), u64::MAX);

        // Merging two near-MAX sides pins every counter at MAX.
        let mut a = CommStats::new();
        a.compute_ops = u64::MAX;
        a.exec_nanos = u64::MAX - 1;
        let mut b = CommStats::new();
        b.compute_ops = u64::MAX;
        b.exec_nanos = 5;
        a.merge(&b);
        assert_eq!(a.compute_ops, u64::MAX);
        assert_eq!(a.exec_nanos, u64::MAX);
    }
}
