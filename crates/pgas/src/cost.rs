//! The machine cost model: per-rank counters → modeled seconds.
//!
//! A finished phase yields one [`CommStats`] per virtual rank. In a bulk-
//! synchronous SPMD phase the wall time is set by the slowest rank, so the
//! modeled phase time is the **maximum over ranks** of each rank's priced
//! work, plus barrier overhead, plus a shared-filesystem I/O term whose
//! aggregate bandwidth saturates (on Edison the Lustre scratch system is
//! saturated from ~960 cores on; the paper leans on this to explain the
//! flat I/O segments of Figs. 6–8 and Table 3).
//!
//! Constants are calibrated to Edison-era magnitudes (§5 of the paper):
//! ~2.4 GHz cores, ~1 µs intra-node and ~3 µs inter-node one-sided access
//! latency on Aries, 72 GB/s aggregate Lustre bandwidth. Absolute seconds
//! are not expected to match the paper (our genomes are megabase-scale);
//! ratios and curve shapes are what the experiments check.

use crate::stats::CommStats;
use crate::topology::Topology;

/// Modeled execution time of a phase, broken into components.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ModeledTime {
    /// Critical-path compute + communication seconds (max over ranks).
    pub critical_path: f64,
    /// Barrier/synchronization seconds.
    pub sync: f64,
    /// Shared-I/O seconds.
    pub io: f64,
    /// Serial (non-parallelized) seconds added by the stage, if any.
    pub serial: f64,
}

impl ModeledTime {
    /// Total modeled seconds.
    pub fn total(&self) -> f64 {
        self.critical_path + self.sync + self.io + self.serial
    }

    /// Component-wise sum.
    pub fn add(&mut self, o: &ModeledTime) {
        self.critical_path += o.critical_path;
        self.sync += o.sync;
        self.io += o.io;
        self.serial += o.serial;
    }
}

/// One rank's priced non-I/O seconds, split by mechanism: time spent
/// doing work, time spent paying per-message latency, and time spent
/// moving payload bytes. `compute + latency + bandwidth` is the rank's
/// contribution to the phase critical path.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RankBreakdown {
    /// Computation + local accesses + service work, seconds.
    pub compute: f64,
    /// Per-message latency (on-node + off-node), seconds.
    pub latency: f64,
    /// Payload bytes over on-node and network bandwidth, seconds.
    pub bandwidth: f64,
}

impl RankBreakdown {
    /// Total priced seconds for the rank.
    pub fn total(&self) -> f64 {
        self.compute + self.latency + self.bandwidth
    }
}

/// Prices for the events counted in [`CommStats`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostModel {
    /// Seconds per pure computation step.
    pub t_compute: f64,
    /// Seconds per local hash-table access.
    pub t_local: f64,
    /// Latency of an on-node remote access (shared memory, cross-process).
    pub t_onnode: f64,
    /// Latency of an off-node one-sided access (network).
    pub t_offnode: f64,
    /// Per-rank on-node bandwidth, bytes/second.
    pub bw_onnode: f64,
    /// Per-rank off-node (injection) bandwidth, bytes/second.
    pub bw_offnode: f64,
    /// Seconds of service work at the owner per remotely-landed update.
    pub t_service: f64,
    /// Seconds per [`SoftwareCache`](crate::SoftwareCache) or aligner-memo
    /// probe (hit *or* miss, as tallied in `cache_hits`/`cache_misses`): a
    /// local hash lookup with no shard lock, cheaper than
    /// `t_local`. Batched lookups need no price of their own — a shipped
    /// batch is one message (priced by `t_onnode`/`t_offnode`) carrying
    /// full bytes (priced by the bandwidth terms), so the saving falls out
    /// of the existing terms.
    pub t_cache: f64,
    /// Seconds per exponential-backoff unit accumulated while waiting to
    /// re-deliver a transiently-faulted message (see
    /// [`CommStats::backoff_units`]): attempt `n` waits
    /// `2^min(n-1, cap) * t_backoff` seconds.
    pub t_backoff: f64,
    /// Barrier cost: `t_barrier_base * log2(ranks)` per barrier.
    pub t_barrier_base: f64,
    /// Per-rank storage bandwidth, bytes/second (before saturation).
    pub io_bw_per_rank: f64,
    /// Aggregate storage bandwidth cap, bytes/second.
    pub io_bw_aggregate: f64,
    /// Fixed per-phase I/O overhead (metadata, open/close), seconds.
    pub io_latency: f64,
}

impl CostModel {
    /// Edison-like calibration (see module docs).
    pub fn edison() -> Self {
        CostModel {
            t_compute: 1.0e-9,
            t_local: 1.0e-7,
            t_onnode: 1.0e-6,
            t_offnode: 3.0e-6,
            bw_onnode: 4.0e9,
            bw_offnode: 1.0e9,
            t_service: 1.5e-7,
            t_cache: 2.0e-8,
            t_backoff: 1.0e-4,
            t_barrier_base: 5.0e-6,
            io_bw_per_rank: 8.0e7,
            io_bw_aggregate: 7.2e10,
            io_latency: 1.0e-3,
        }
    }

    /// A "serial machine" calibration used for the single-node baseline
    /// comparators (§5.6): no network, one rank, local memory prices only.
    pub fn single_node() -> Self {
        CostModel {
            t_offnode: 1.0e-6, // everything is at worst cross-socket
            io_bw_aggregate: 5.0e8,
            io_bw_per_rank: 5.0e8,
            ..Self::edison()
        }
    }

    /// Price one rank's non-I/O work, split by mechanism.
    pub fn rank_breakdown(&self, s: &CommStats) -> RankBreakdown {
        RankBreakdown {
            compute: s.compute_ops as f64 * self.t_compute
                + s.local_ops as f64 * self.t_local
                + s.service_ops as f64 * self.t_service
                + (s.cache_hits + s.cache_misses) as f64 * self.t_cache,
            latency: s.onnode_msgs as f64 * self.t_onnode
                + s.offnode_msgs as f64 * self.t_offnode
                + s.backoff_units as f64 * self.t_backoff,
            bandwidth: s.onnode_bytes as f64 / self.bw_onnode
                + s.offnode_bytes as f64 / self.bw_offnode,
        }
    }

    /// The [`RankBreakdown`] of the critical (slowest-priced) rank — the
    /// rank whose work sets the phase's critical path. Zero for no ranks.
    pub fn critical_rank_breakdown(&self, stats: &[CommStats]) -> RankBreakdown {
        stats
            .iter()
            .map(|s| self.rank_breakdown(s))
            .max_by(|a, b| a.total().total_cmp(&b.total()))
            .unwrap_or_default()
    }

    /// Price one rank's non-I/O work.
    fn rank_seconds(&self, s: &CommStats) -> f64 {
        self.rank_breakdown(s).total()
    }

    /// Shared-filesystem time for the phase: total bytes moved divided by
    /// the effective bandwidth, which grows with ranks until the aggregate
    /// cap saturates it.
    pub fn io_seconds(&self, topo: &Topology, stats: &[CommStats]) -> f64 {
        let bytes: u64 = stats
            .iter()
            .map(|s| s.io_read_bytes + s.io_write_bytes)
            .sum();
        if bytes == 0 {
            return 0.0;
        }
        let effective_bw = (self.io_bw_per_rank * topo.ranks() as f64).min(self.io_bw_aggregate);
        self.io_latency + bytes as f64 / effective_bw
    }

    /// Model a whole phase. `stats` must have one entry per rank.
    pub fn phase_time(&self, topo: &Topology, stats: &[CommStats]) -> ModeledTime {
        assert_eq!(stats.len(), topo.ranks(), "one CommStats per rank");
        let critical_path = stats
            .iter()
            .map(|s| self.rank_seconds(s))
            .fold(0.0, f64::max);
        let max_barriers = stats.iter().map(|s| s.barriers).max().unwrap_or(0);
        let sync =
            max_barriers as f64 * self.t_barrier_base * (topo.ranks() as f64).log2().max(1.0);
        ModeledTime {
            critical_path,
            sync,
            io: self.io_seconds(topo, stats),
            serial: 0.0,
        }
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::edison()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo(p: usize) -> Topology {
        Topology::new(p, 24)
    }

    #[test]
    fn critical_path_is_max_over_ranks() {
        let model = CostModel::edison();
        let mut fast = CommStats::new();
        fast.compute(1_000);
        let mut slow = CommStats::new();
        slow.compute(1_000_000);
        let t = model.phase_time(&topo(2), &[fast, slow]);
        let solo = model.phase_time(&topo(1), &[slow]);
        assert!((t.critical_path - solo.critical_path).abs() < 1e-12);
    }

    #[test]
    fn offnode_costs_more_than_onnode_than_local() {
        let model = CostModel::edison();
        assert!(model.t_offnode > model.t_onnode);
        assert!(model.t_onnode > model.t_local);
    }

    #[test]
    fn cache_probe_is_cheaper_than_any_access() {
        let model = CostModel::edison();
        assert!(model.t_cache < model.t_local);
        // A workload served from cache must price below the same workload
        // hitting remote owners.
        let cached = CommStats {
            cache_hits: 10_000,
            ..CommStats::default()
        };
        let remote = CommStats {
            offnode_msgs: 10_000,
            offnode_bytes: 160_000,
            ..CommStats::default()
        };
        assert!(
            model.rank_breakdown(&cached).total() * 10.0 < model.rank_breakdown(&remote).total()
        );
    }

    #[test]
    fn backoff_units_price_into_latency() {
        let model = CostModel::edison();
        let clean = CommStats {
            offnode_msgs: 100,
            ..CommStats::default()
        };
        let faulted = CommStats {
            offnode_msgs: 100,
            backoff_units: 7, // e.g. retries at attempts 1..=3: 1+2+4
            ..CommStats::default()
        };
        let delta = model.rank_breakdown(&faulted).latency - model.rank_breakdown(&clean).latency;
        assert!((delta - 7.0 * model.t_backoff).abs() < 1e-12);
    }

    #[test]
    fn io_saturates_with_ranks() {
        let model = CostModel::edison();
        // Enough ranks that per-rank bandwidth would exceed the aggregate cap.
        let saturation_ranks = (model.io_bw_aggregate / model.io_bw_per_rank).ceil() as usize;
        let bytes_per_rank = 1 << 20;

        let time_at = |p: usize| {
            let stats: Vec<CommStats> = (0..p)
                .map(|_| CommStats {
                    io_read_bytes: bytes_per_rank,
                    ..CommStats::default()
                })
                .collect();
            model.io_seconds(&topo(p), &stats)
        };
        // Below saturation, doubling ranks with fixed total bytes is served
        // faster; here bytes grow with p, so time is ~constant before
        // saturation and grows after.
        let t1 = time_at(saturation_ranks);
        let t2 = time_at(saturation_ranks * 2);
        assert!(
            t2 > t1 * 1.5,
            "beyond saturation, more data cannot be absorbed: {t1} vs {t2}"
        );
    }

    #[test]
    fn strong_scaling_io_goes_flat() {
        // Fixed total bytes spread over more ranks: time falls until the
        // aggregate cap, then goes flat (the paper's Figs. 6-8 observation).
        let model = CostModel::edison();
        let total_bytes: u64 = 1 << 34;
        let time_at = |p: usize| {
            let per = total_bytes / p as u64;
            let stats: Vec<CommStats> = (0..p)
                .map(|_| CommStats {
                    io_read_bytes: per,
                    ..CommStats::default()
                })
                .collect();
            model.io_seconds(&topo(p), &stats)
        };
        let t480 = time_at(480);
        let t960 = time_at(960);
        let t1920 = time_at(1920);
        assert!(t960 < t480, "scaling before saturation");
        let rel = (t1920 - t960).abs() / t960;
        assert!(rel < 0.05, "flat beyond saturation: {t960} vs {t1920}");
    }

    #[test]
    fn barrier_cost_grows_with_log_ranks() {
        let model = CostModel::edison();
        let mk = |p: usize| {
            let stats: Vec<CommStats> = (0..p)
                .map(|_| CommStats {
                    barriers: 4,
                    ..CommStats::default()
                })
                .collect();
            model.phase_time(&topo(p), &stats).sync
        };
        assert!(mk(1024) > mk(32));
    }

    #[test]
    #[should_panic(expected = "one CommStats per rank")]
    fn phase_time_checks_arity() {
        let model = CostModel::edison();
        model.phase_time(&topo(2), &[CommStats::new()]);
    }

    #[test]
    fn modeled_time_total_and_add() {
        let mut a = ModeledTime {
            critical_path: 1.0,
            sync: 0.5,
            io: 0.25,
            serial: 0.25,
        };
        assert!((a.total() - 2.0).abs() < 1e-12);
        let b = a;
        a.add(&b);
        assert!((a.total() - 4.0).abs() < 1e-12);
    }
}
