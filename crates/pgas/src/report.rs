//! Phase and pipeline reports: measured counters plus modeled time.
//!
//! Every pipeline stage produces a [`PhaseReport`]; a [`PipelineReport`]
//! collects them and renders the per-stage breakdowns the paper's figures
//! plot (k-mer analysis / contig generation / scaffolding / overall, and
//! within scaffolding: merAligner / gap closing / rest).

use crate::cost::{CostModel, ModeledTime};
use crate::json::Value;
use crate::stats::{total, CommStats, Kind};
use crate::topology::Topology;

/// The record of one finished SPMD phase.
#[derive(Clone, Debug)]
pub struct PhaseReport {
    /// Stage name, e.g. `"kmer-analysis"`.
    pub name: String,
    /// Topology the phase ran on.
    pub topo: Topology,
    /// Per-rank counters (indexed by rank).
    pub stats: Vec<CommStats>,
    /// Real wall-clock seconds the simulation took (diagnostics only).
    /// Derived automatically from the per-rank [`CommStats::exec_nanos`]
    /// that [`crate::Team::run_named`] stamps (max over ranks, i.e. the slowest
    /// rank's measured time); [`PhaseReport::with_wall`] overrides it.
    pub wall_seconds: f64,
    /// Operations of the stage's inherently serial section (e.g. the edges
    /// walked by the serial tie traversal of §4.7) — counted by the stage,
    /// priced at [`CostModel::t_compute`] by [`PhaseReport::modeled`].
    pub serial_ops: u64,
    /// Heavy-hitter key hashes observed by this phase's hash-table service
    /// operations, as `(key_hash, estimated_count)` sorted by descending
    /// count. Empty unless hot-key tracking was enabled
    /// ([`crate::Team::with_hot_keys`]) and the stage attached them.
    pub hot_keys: Vec<(u64, u64)>,
}

/// The measured wall time of a phase: its slowest rank's execution time.
fn derived_wall_seconds(stats: &[CommStats]) -> f64 {
    stats.iter().map(|s| s.exec_nanos).max().unwrap_or(0) as f64 / 1e9
}

impl PhaseReport {
    /// Build a report from a finished [`crate::Team::run_named`] invocation.
    /// `wall_seconds` is derived from the stamped per-rank execution times.
    pub fn new(name: impl Into<String>, topo: Topology, stats: Vec<CommStats>) -> Self {
        let wall_seconds = derived_wall_seconds(&stats);
        PhaseReport {
            name: name.into(),
            topo,
            stats,
            wall_seconds,
            serial_ops: 0,
            hot_keys: Vec::new(),
        }
    }

    /// Override the derived measured wall time.
    pub fn with_wall(mut self, seconds: f64) -> Self {
        self.wall_seconds = seconds;
        self
    }

    /// Attach the operation count of the stage's serial section.
    pub fn with_serial_ops(mut self, ops: u64) -> Self {
        self.serial_ops = ops;
        self
    }

    /// Attach heavy-hitter keys (`(key_hash, estimated_count)`, sorted by
    /// descending count).
    pub fn with_hot_keys(mut self, hot_keys: Vec<(u64, u64)>) -> Self {
        self.hot_keys = hot_keys;
        self
    }

    /// Modeled execution time under `model`.
    pub fn modeled(&self, model: &CostModel) -> ModeledTime {
        let mut t = model.phase_time(&self.topo, &self.stats);
        t.serial = self.serial_ops as f64 * model.t_compute;
        t
    }

    /// Machine-wide counter totals.
    pub fn totals(&self) -> CommStats {
        total(&self.stats)
    }

    /// Fraction of hash-table accesses that went off-node (Table 2's metric).
    pub fn offnode_fraction(&self) -> f64 {
        self.totals().offnode_fraction().unwrap_or(0.0)
    }

    /// Occupancy of the phase's hash table(s) as drained into the stats:
    /// `(entries, max_partition_entries)` — total resident entries and the
    /// fullest rank's share (`max · ranks / entries` is the load factor the
    /// paper's heavy hitters inflate). `(0, 0)` for table-less phases.
    pub fn table(&self) -> (u64, u64) {
        let per_rank = || self.stats.iter().map(|s| s.table_entries);
        (per_rank().sum(), per_rank().max().unwrap_or(0))
    }

    /// Load imbalance: max over ranks of (work) divided by mean work, where
    /// work is priced rank seconds. 1.0 is perfectly balanced.
    ///
    /// Each rank is priced by [`CostModel::rank_breakdown`] on its own
    /// counters, which were classified local/on-node/off-node under the
    /// phase's real topology when they were recorded — so a comm-skewed
    /// rank (all traffic off-node) weighs its full network cost here. An
    /// earlier revision detoured through
    /// `phase_time(&Topology::new(1, 1), ..)` per rank, which *looked*
    /// like it re-classified everything as local; the pricing only stayed
    /// correct because classification happens at record time, and any
    /// future topology-dependent price term would have silently broken it.
    pub fn imbalance(&self, model: &CostModel) -> f64 {
        let times: Vec<f64> = self
            .stats
            .iter()
            .map(|s| model.rank_breakdown(s).total())
            .collect();
        let max = times.iter().copied().fold(0.0, f64::max);
        let mean = times.iter().sum::<f64>() / times.len().max(1) as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }
}

/// One pipeline stage's execution bookkeeping under fault injection and
/// checkpoint/restart: how many times the stage body ran, how many of
/// those attempts aborted (injected rank failure or retry-budget
/// exhaustion), and whether it was skipped entirely by `--resume`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StageAttempt {
    /// Stage name, e.g. `"contig-generation"`.
    pub stage: String,
    /// Times the stage body was executed (0 when resumed from checkpoint).
    pub executions: u64,
    /// Executions that ended in a stage abort and were rolled back.
    pub aborted: u64,
    /// Whether the stage was satisfied from a checkpoint instead of run.
    pub resumed: bool,
    /// The process's resident-set high-water mark (`VmHWM`) when the stage
    /// ended, in bytes: the peak over the run *so far*, so a stage that
    /// raises it is the stage that needed the memory. 0 without procfs.
    pub peak_rss_bytes: u64,
    /// The process's resident set (`VmRSS`) when the stage ended, in bytes.
    pub rss_bytes: u64,
}

/// One checkpoint interaction: an artifact saved after a stage completed,
/// or loaded to satisfy a `--resume`.
#[derive(Clone, Debug, PartialEq)]
pub struct CheckpointEvent {
    /// Stage the artifact belongs to.
    pub stage: String,
    /// `"save"` or `"load"`.
    pub action: String,
    /// Serialized artifact size in bytes.
    pub bytes: u64,
    /// FNV-1a 64 checksum of the artifact bytes.
    pub checksum: u64,
    /// Measured seconds the transfer took.
    pub seconds: f64,
}

/// One MetaHipMer multi-k round's summary, serialized as an entry of the
/// top-level `rounds` array. Classic single-k runs have an empty `rounds`
/// array.
#[derive(Clone, Debug, PartialEq)]
pub struct RoundReport {
    /// 1-based round number in multi-k order.
    pub round: usize,
    /// The k this round's kanalysis/contig stages ran at.
    pub k: usize,
    /// Contigs the round emitted (after any hair/tip pruning).
    pub contigs: u64,
    /// Pseudo-reads injected *into* this round from the previous round's
    /// contigs (0 for round 1).
    pub pseudo_reads: u64,
    /// Access-weighted off-node fraction over the round's phases.
    pub offnode_fraction: f64,
}

/// An ordered collection of phase reports for one pipeline run.
#[derive(Clone, Debug, Default)]
pub struct PipelineReport {
    /// The phases in execution order.
    pub phases: Vec<PhaseReport>,
    /// Per-stage execution bookkeeping (empty unless the run used the
    /// fault/checkpoint machinery).
    pub stage_attempts: Vec<StageAttempt>,
    /// Checkpoint saves and loads performed during the run.
    pub checkpoints: Vec<CheckpointEvent>,
    /// Per-round summaries of a MetaHipMer multi-k run (empty for classic
    /// single-k runs); serialized as the `rounds` array.
    pub rounds: Vec<RoundReport>,
}

impl PipelineReport {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a finished phase.
    pub fn push(&mut self, phase: PhaseReport) {
        self.phases.push(phase);
    }

    /// A rollback marker: the current phase count. Take one before running
    /// a stage that may abort, and pass it to
    /// [`rollback_to`](Self::rollback_to) if it does.
    pub fn mark(&self) -> usize {
        self.phases.len()
    }

    /// Discard every phase appended after `mark` was taken. This is how a
    /// re-executed stage *replaces* its aborted attempt: without the
    /// rollback, the aborted attempt's phases would double-count their
    /// wall seconds (and counters) in the pipeline totals.
    pub fn rollback_to(&mut self, mark: usize) {
        self.phases.truncate(mark);
    }

    /// Modeled total time across all phases.
    pub fn total_modeled(&self, model: &CostModel) -> ModeledTime {
        let mut acc = ModeledTime::default();
        for p in &self.phases {
            acc.add(&p.modeled(model));
        }
        acc
    }

    /// Render a per-phase table (name, modeled seconds, % of total,
    /// off-node fraction).
    pub fn render(&self, model: &CostModel) -> String {
        let total = self.total_modeled(model).total().max(f64::MIN_POSITIVE);
        let mut out = String::new();
        out.push_str(&format!(
            "{:<28} {:>12} {:>7} {:>9}\n",
            "phase", "modeled (s)", "%", "off-node"
        ));
        for p in &self.phases {
            let t = p.modeled(model).total();
            out.push_str(&format!(
                "{:<28} {:>12.4} {:>6.1}% {:>8.1}%\n",
                p.name,
                t,
                100.0 * t / total,
                100.0 * p.offnode_fraction()
            ));
        }
        out.push_str(&format!("{:<28} {:>12.4}\n", "TOTAL", total));
        out
    }

    /// Serialize the whole pipeline report as a machine-readable JSON
    /// document, **schema version 12**, priced under [`CostModel::edison`]
    /// (`cost_model: "edison"`). Everything in it is a view of the
    /// per-rank [`CommStats`] the phases returned plus the stage and
    /// checkpoint bookkeeping; the keys that hold host measurements are
    /// [`crate::stats::measured_report_keys`].
    ///
    /// * header: `schema_version`, `generator`, `cost_model`, `rounds`
    ///   ([`RoundReport`] per
    ///   multi-k round; empty on classic runs), `topology` (`ranks`,
    ///   `ranks_per_node`, `nodes`), `modeled_total` and `wall_seconds`
    ///   (sums over phases);
    /// * `stage_attempts`: one [`StageAttempt`] per pipeline stage;
    /// * `checkpoints`: one [`CheckpointEvent`] per artifact saved or loaded;
    /// * `phases`: per phase `name`, `measured` (`wall_seconds` and the
    ///   [`Kind::Measured`] fields summed over ranks), `modeled`
    ///   (`critical_path_seconds`, `sync_seconds`, `io_seconds`,
    ///   `serial_seconds`, `total_seconds`), `critical_rank` (its
    ///   compute/latency/bandwidth seconds), `offnode_fraction`, `imbalance`
    ///   ([`PhaseReport::imbalance`]), `totals` (the [`Kind::Counted`]
    ///   fields summed over ranks), `table` ([`PhaseReport::table`]) and
    ///   `hot_keys` (heavy-hitter key hashes, when tracking was on).
    pub fn to_json(&self) -> String {
        let model = &CostModel::edison();
        let mut doc = Value::obj();
        doc.set("schema_version", 12u64)
            .set("generator", "hipmer-pgas")
            .set("cost_model", "edison");
        let rounds = self.rounds.iter().map(|r| {
            let mut v = Value::obj();
            v.set("round", r.round)
                .set("k", r.k)
                .set("contigs", r.contigs)
                .set("pseudo_reads", r.pseudo_reads)
                .set("offnode_fraction", r.offnode_fraction);
            v
        });
        doc.set("rounds", Value::Arr(rounds.collect()));
        if let Some(p) = self.phases.first() {
            let mut topo = Value::obj();
            topo.set("ranks", p.topo.ranks())
                .set("ranks_per_node", p.topo.ranks_per_node())
                .set("nodes", p.topo.nodes());
            doc.set("topology", topo);
        }
        doc.set("modeled_total", modeled_json(&self.total_modeled(model)));
        doc.set(
            "wall_seconds",
            self.phases.iter().map(|p| p.wall_seconds).sum::<f64>(),
        );

        let attempts = self.stage_attempts.iter().map(|a| {
            let mut v = Value::obj();
            v.set("stage", a.stage.as_str())
                .set("executions", a.executions)
                .set("aborted", a.aborted)
                .set("resumed", a.resumed)
                .set("peak_rss_bytes", a.peak_rss_bytes)
                .set("rss_bytes", a.rss_bytes);
            v
        });
        doc.set("stage_attempts", Value::Arr(attempts.collect()));
        let ckpts = self.checkpoints.iter().map(|c| {
            let mut v = Value::obj();
            v.set("stage", c.stage.as_str())
                .set("action", c.action.as_str())
                .set("bytes", c.bytes)
                .set("checksum", format!("{:#018x}", c.checksum))
                .set("seconds", c.seconds);
            v
        });
        doc.set("checkpoints", Value::Arr(ckpts.collect()));

        let phases = self.phases.iter().map(|p| {
            let mut v = Value::obj();
            let (mut measured, mut totals) = (Value::obj(), Value::obj());
            measured.set("wall_seconds", p.wall_seconds);
            for (name, kind, value) in p.totals().fields() {
                match kind {
                    Kind::Counted => totals.set(name, value),
                    Kind::Measured => measured.set(name, value),
                };
            }
            v.set("name", p.name.as_str())
                .set("measured", measured)
                .set("modeled", modeled_json(&p.modeled(model)));
            let breakdown = model.critical_rank_breakdown(&p.stats);
            let mut crit = Value::obj();
            crit.set("compute_seconds", breakdown.compute)
                .set("latency_seconds", breakdown.latency)
                .set("bandwidth_seconds", breakdown.bandwidth);
            v.set("critical_rank", crit)
                .set("offnode_fraction", p.offnode_fraction())
                .set("imbalance", p.imbalance(model))
                .set("totals", totals);
            let (entries, max_partition_entries) = p.table();
            let mut table = Value::obj();
            table
                .set("entries", entries)
                .set("max_partition_entries", max_partition_entries);
            v.set("table", table);
            let hot = p.hot_keys.iter().map(|&(hash, count)| {
                let mut h = Value::obj();
                h.set("key_hash", format!("{hash:#018x}"))
                    .set("estimated_count", count);
                h
            });
            v.set("hot_keys", Value::Arr(hot.collect()));
            v
        });
        doc.set("phases", Value::Arr(phases.collect()));
        doc.to_json()
    }
}

fn modeled_json(t: &ModeledTime) -> Value {
    let mut v = Value::obj();
    v.set("critical_path_seconds", t.critical_path)
        .set("sync_seconds", t.sync)
        .set("io_seconds", t.io)
        .set("serial_seconds", t.serial)
        .set("total_seconds", t.total());
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Walk a `/`-separated path through the document: object keys by
    /// name, array elements by decimal index. Panics with the full path on
    /// a missing step, so golden tests read as one-liners instead of
    /// `get(..).unwrap().as_arr().unwrap()` ladders.
    fn get_path<'a>(doc: &'a Value, path: &str) -> &'a Value {
        let mut cur = doc;
        for seg in path.split('/') {
            cur = if let Ok(idx) = seg.parse::<usize>() {
                cur.as_arr()
                    .unwrap_or_else(|| panic!("{path}: {seg} indexes a non-array"))
                    .get(idx)
                    .unwrap_or_else(|| panic!("{path}: index {idx} out of bounds"))
            } else {
                cur.get(seg)
                    .unwrap_or_else(|| panic!("{path}: missing key {seg:?}"))
            };
        }
        cur
    }

    /// Assert an object's keys are exactly `expect`, in order.
    fn assert_keys(v: &Value, expect: &[&str]) {
        assert_eq!(v.keys(), expect);
    }

    fn str_at<'a>(doc: &'a Value, path: &str) -> &'a str {
        get_path(doc, path)
            .as_str()
            .unwrap_or_else(|| panic!("{path}: not a string"))
    }

    fn u64_at(doc: &Value, path: &str) -> u64 {
        get_path(doc, path)
            .as_u64()
            .unwrap_or_else(|| panic!("{path}: not a u64"))
    }

    fn f64_at(doc: &Value, path: &str) -> f64 {
        get_path(doc, path)
            .as_f64()
            .unwrap_or_else(|| panic!("{path}: not a number"))
    }

    fn phase_with(compute: &[u64]) -> PhaseReport {
        let topo = Topology::new(compute.len(), 24);
        let stats = compute
            .iter()
            .map(|&c| CommStats {
                compute_ops: c,
                ..CommStats::default()
            })
            .collect();
        PhaseReport::new("test", topo, stats)
    }

    #[test]
    fn modeled_prices_serial_ops_at_t_compute() {
        let model = CostModel::edison();
        let p = phase_with(&[100, 100]).with_serial_ops(1_500);
        let t = p.modeled(&model);
        assert_eq!(t.serial, 1_500.0 * model.t_compute);
        assert_eq!(
            t.total(),
            phase_with(&[100, 100]).modeled(&model).total() + t.serial
        );
    }

    #[test]
    fn imbalance_detects_skew() {
        let model = CostModel::edison();
        let balanced = phase_with(&[100, 100, 100, 100]);
        let skewed = phase_with(&[100, 100, 100, 10_000]);
        assert!((balanced.imbalance(&model) - 1.0).abs() < 1e-9);
        assert!(skewed.imbalance(&model) > 3.0);
    }

    #[test]
    fn imbalance_detects_comm_skew() {
        // Regression for the old per-rank `phase_time(&Topology::new(1,1))`
        // detour: the skewed rank here does NO compute — its entire load is
        // off-node messages and bytes — so an implementation that dropped
        // or re-priced communication for the per-rank term would report
        // ~1.0 (balanced) for a phase whose network-bound rank is the
        // critical path.
        let model = CostModel::edison();
        let topo = Topology::new(4, 2);
        let mut stats = vec![
            CommStats {
                compute_ops: 1_000,
                ..CommStats::default()
            };
            4
        ];
        stats[3] = CommStats {
            offnode_msgs: 100_000,
            offnode_bytes: 100_000 * 64,
            ..CommStats::default()
        };
        let p = PhaseReport::new("comm-skew", topo, stats.clone());
        let imb = p.imbalance(&model);
        assert!(imb > 3.0, "comm-skewed rank must dominate: {imb}");
        // The per-rank prices must be exactly the real-topology breakdown.
        let times: Vec<f64> = stats
            .iter()
            .map(|s| model.rank_breakdown(s).total())
            .collect();
        let max = times.iter().copied().fold(0.0, f64::max);
        let mean = times.iter().sum::<f64>() / times.len() as f64;
        assert!((imb - max / mean).abs() < 1e-12);
    }

    /// A two-phase pipeline with enough counter variety to exercise every
    /// field of the JSON serialization.
    fn busy_pipeline() -> PipelineReport {
        let topo = Topology::new(4, 2);
        let stats: Vec<CommStats> = (0..4u64)
            .map(|r| CommStats {
                compute_ops: 1_000 * (r + 1),
                local_ops: 500,
                onnode_msgs: 40,
                offnode_msgs: 60 + 10 * r,
                onnode_bytes: 4_000,
                offnode_bytes: 9_000,
                service_ops: 700,
                lookup_batches: 12,
                cache_hits: 300 + 5 * r,
                cache_misses: 44,
                transient_faults: 3 + r,
                retries: 3,
                backoff_units: 7,
                io_read_bytes: 1 << 20,
                barriers: 2,
                table_entries: 100 + r,
                exec_nanos: 1_000_000 * (r + 1),
                lock_waits: r,
                ..CommStats::default()
            })
            .collect();
        let mut pr = PipelineReport::new();
        pr.push(
            PhaseReport::new("kmer-analysis/count", topo, stats.clone())
                .with_hot_keys(vec![(0xdead_beef, 41), (0x1234, 7)]),
        );
        pr.push(PhaseReport::new("contig/traversal", topo, stats).with_serial_ops(125_000));
        pr.stage_attempts.push(StageAttempt {
            stage: "kmer-analysis".to_string(),
            executions: 2,
            aborted: 1,
            resumed: false,
            peak_rss_bytes: 64 << 20,
            rss_bytes: 48 << 20,
        });
        pr.stage_attempts.push(StageAttempt {
            stage: "contig-generation".to_string(),
            executions: 0,
            aborted: 0,
            resumed: true,
            peak_rss_bytes: 64 << 20,
            rss_bytes: 50 << 20,
        });
        pr.checkpoints.push(CheckpointEvent {
            stage: "kmer-analysis".to_string(),
            action: "save".to_string(),
            bytes: 4096,
            checksum: 0xfeed_f00d,
            seconds: 0.002,
        });
        pr.rounds.push(RoundReport {
            round: 1,
            k: 21,
            contigs: 100,
            pseudo_reads: 0,
            offnode_fraction: 0.25,
        });
        pr
    }

    #[test]
    fn json_report_round_trips() {
        let text = busy_pipeline().to_json();
        let parsed = Value::parse(&text).expect("report must be valid JSON");
        // Serializing the parsed document reproduces the original text
        // byte-for-byte (ordered object pairs make this deterministic).
        assert_eq!(parsed.to_json(), text);
    }

    #[test]
    fn json_report_schema_is_stable() {
        // Guards the field names downstream tooling depends on; renaming
        // any of these is a schema break and must bump `schema_version`.
        let doc = Value::parse(&busy_pipeline().to_json()).unwrap();
        assert_eq!(u64_at(&doc, "schema_version"), 12);
        assert_eq!(str_at(&doc, "cost_model"), "edison");
        assert_keys(
            &doc,
            &[
                "schema_version",
                "generator",
                "cost_model",
                "rounds",
                "topology",
                "modeled_total",
                "wall_seconds",
                "stage_attempts",
                "checkpoints",
                "phases",
            ],
        );
        let rounds = get_path(&doc, "rounds").as_arr().unwrap();
        assert_eq!(rounds.len(), 1);
        assert_keys(
            &rounds[0],
            &["round", "k", "contigs", "pseudo_reads", "offnode_fraction"],
        );
        assert_eq!(u64_at(&doc, "rounds/0/k"), 21);
        assert_eq!(u64_at(&doc, "rounds/0/contigs"), 100);
        let attempts = get_path(&doc, "stage_attempts").as_arr().unwrap();
        assert_eq!(attempts.len(), 2);
        assert_keys(
            &attempts[0],
            &[
                "stage",
                "executions",
                "aborted",
                "resumed",
                "peak_rss_bytes",
                "rss_bytes",
            ],
        );
        assert_eq!(u64_at(&doc, "stage_attempts/0/peak_rss_bytes"), 64 << 20);
        assert_eq!(str_at(&doc, "stage_attempts/0/stage"), "kmer-analysis");
        assert_eq!(u64_at(&doc, "stage_attempts/0/aborted"), 1);
        assert_eq!(
            get_path(&doc, "stage_attempts/1/resumed").as_bool(),
            Some(true)
        );
        let ckpts = get_path(&doc, "checkpoints").as_arr().unwrap();
        assert_eq!(ckpts.len(), 1);
        assert_keys(
            &ckpts[0],
            &["stage", "action", "bytes", "checksum", "seconds"],
        );
        assert_eq!(f64_at(&doc, "checkpoints/0/seconds"), 0.002);
        assert_eq!(str_at(&doc, "checkpoints/0/action"), "save");
        assert_eq!(u64_at(&doc, "checkpoints/0/bytes"), 4096);
        assert_eq!(str_at(&doc, "checkpoints/0/checksum"), "0x00000000feedf00d");
        assert_keys(
            get_path(&doc, "topology"),
            &["ranks", "ranks_per_node", "nodes"],
        );
        let phases = get_path(&doc, "phases").as_arr().unwrap();
        assert_eq!(phases.len(), 2);
        let p = get_path(&doc, "phases/0");
        assert_keys(
            p,
            &[
                "name",
                "measured",
                "modeled",
                "critical_rank",
                "offnode_fraction",
                "imbalance",
                "totals",
                "table",
                "hot_keys",
            ],
        );
        assert_keys(
            get_path(p, "modeled"),
            &[
                "critical_path_seconds",
                "sync_seconds",
                "io_seconds",
                "serial_seconds",
                "total_seconds",
            ],
        );
        assert_keys(
            get_path(p, "critical_rank"),
            &["compute_seconds", "latency_seconds", "bandwidth_seconds"],
        );
        // `totals` then `measured` (after its one derived key) spell out
        // the field table, in its order: counted fields, measured fields.
        let measured = get_path(p, "measured").keys();
        assert_eq!(measured[0], "wall_seconds");
        let mut serialized = get_path(p, "totals").keys();
        serialized.extend(&measured[1..]);
        let table_names: Vec<&str> = crate::stats::FIELDS.iter().map(|f| f.0).collect();
        assert_eq!(serialized, table_names);
        assert_eq!(measured[1..], ["exec_nanos", "lock_waits"]);
        assert_keys(get_path(p, "table"), &["entries", "max_partition_entries"]);
        assert_eq!(u64_at(p, "table/entries"), 100 + 101 + 102 + 103);
        assert_eq!(u64_at(p, "table/max_partition_entries"), 103);
        let hot = get_path(p, "hot_keys").as_arr().unwrap();
        assert_eq!(hot.len(), 2);
        assert_eq!(str_at(p, "hot_keys/0/key_hash"), "0x00000000deadbeef");
        assert_eq!(u64_at(p, "hot_keys/0/estimated_count"), 41);
    }

    #[test]
    fn json_report_matches_phase_methods() {
        // Golden check: the serialized metrics are exactly what the
        // `PhaseReport` accessors compute under the Edison constants, not a
        // parallel implementation.
        let model = CostModel::edison();
        let pr = busy_pipeline();
        let doc = Value::parse(&pr.to_json()).unwrap();
        let phases = get_path(&doc, "phases").as_arr().unwrap();
        for (p, v) in pr.phases.iter().zip(phases) {
            assert_eq!(str_at(v, "name"), p.name.as_str());
            let off = f64_at(v, "offnode_fraction");
            assert!((off - p.offnode_fraction()).abs() < 1e-12);
            assert!(off > 0.0, "fixture must exercise a nonzero fraction");
            let imb = f64_at(v, "imbalance");
            assert!((imb - p.imbalance(&model)).abs() < 1e-12);
            assert!(imb > 1.0, "fixture must exercise real skew");
            let wall = f64_at(v, "measured/wall_seconds");
            assert!((wall - p.wall_seconds).abs() < 1e-12);
            assert!(wall > 0.0, "fixture must exercise exec stamps");
            let total = f64_at(v, "modeled/total_seconds");
            assert!((total - p.modeled(&model).total()).abs() < 1e-12);
            assert_eq!(u64_at(v, "measured/exec_nanos"), p.totals().exec_nanos);
            assert_eq!(u64_at(v, "measured/lock_waits"), p.totals().lock_waits);
            // Schema-v2 read-path counters carry the merged CommStats values.
            let hits = u64_at(v, "totals/cache_hits");
            assert_eq!(hits, p.totals().cache_hits);
            assert!(hits > 0, "fixture must exercise cache accounting");
            let batches = u64_at(v, "totals/lookup_batches");
            assert_eq!(batches, p.totals().lookup_batches);
            assert!(batches > 0, "fixture must exercise batch accounting");
            assert_eq!(u64_at(v, "totals/cache_misses"), p.totals().cache_misses);
            // Schema-v3 fault counters carry the merged CommStats values.
            let faults = u64_at(v, "totals/transient_faults");
            assert_eq!(faults, p.totals().transient_faults);
            assert!(faults > 0, "fixture must exercise fault accounting");
            assert_eq!(u64_at(v, "totals/retries"), p.totals().retries);
            assert_eq!(u64_at(v, "totals/backoff_units"), p.totals().backoff_units);
        }
        // Pipeline-level sums.
        let wall = f64_at(&doc, "wall_seconds");
        let expect: f64 = pr.phases.iter().map(|p| p.wall_seconds).sum();
        assert!((wall - expect).abs() < 1e-12);
        let modeled = f64_at(&doc, "modeled_total/total_seconds");
        assert!((modeled - pr.total_modeled(&model).total()).abs() < 1e-12);
    }

    #[test]
    fn rollback_replaces_aborted_attempt() {
        // A stage runs, aborts, and re-runs: the re-execution must replace
        // the aborted attempt's phases, not pile on top of them.
        let mut pr = PipelineReport::new();
        pr.push(phase_with(&[10, 10]).with_wall(1.0)); // upstream stage A
        let mark = pr.mark();
        pr.push(phase_with(&[20, 20]).with_wall(5.0)); // stage B, attempt 1 (aborts)
        pr.push(phase_with(&[5, 5]).with_wall(2.0)); // partial sub-phase of attempt 1
        pr.rollback_to(mark);
        pr.push(phase_with(&[20, 20]).with_wall(5.5)); // stage B, attempt 2
        let wall: f64 = pr.phases.iter().map(|p| p.wall_seconds).sum();
        assert_eq!(pr.phases.len(), 2);
        assert!((wall - 6.5).abs() < 1e-12, "A + B2 only, got {wall}");
    }

    #[test]
    fn pipeline_totals_and_render() {
        let model = CostModel::edison();
        let mut pr = PipelineReport::new();
        pr.push(phase_with(&[1_000_000, 1_000_000]));
        pr.push(phase_with(&[500_000, 500_000]).with_serial_ops(250_000));
        let total = pr.total_modeled(&model).total();
        assert!(total > 250_000.0 * model.t_compute);
        let text = pr.render(&model);
        assert!(text.contains("TOTAL"));
        assert!(text.lines().count() >= 4);
    }
}
