//! Phase and pipeline reports: measured counters plus modeled time.
//!
//! Every pipeline stage produces a [`PhaseReport`]; a [`PipelineReport`]
//! collects them and renders the per-stage breakdowns the paper's figures
//! plot (k-mer analysis / contig generation / scaffolding / overall, and
//! within scaffolding: merAligner / gap closing / rest).

use crate::cost::{CostModel, ModeledTime};
use crate::json::Value;
use crate::stats::{total, CommStats};
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
    /// that [`crate::Team::run`] stamps (max over ranks, i.e. the slowest
    /// rank's measured time); [`PhaseReport::with_wall`] overrides it.
    pub wall_seconds: f64,
    /// Inherently serial seconds this stage adds (e.g. the serial tie
    /// traversal of §4.7), already priced by the stage.
    pub serial_seconds: f64,
    /// Heavy-hitter key hashes observed by this phase's hash-table service
    /// operations, as `(key_hash, estimated_count)` sorted by descending
    /// count. Empty unless hot-key tracking was enabled
    /// ([`crate::trace::set_hotkey_capacity`]) and the stage attached them.
    pub hot_keys: Vec<(u64, u64)>,
    /// Placement label of the phase's dominant hash table — a
    /// [`crate::PartitionScheme::label`] string such as `"uniform"` or
    /// `"minimizer(w=25,m=7)"`, or `"oracle"` for contig-oracle placement.
    /// `None` for phases that own no table (I/O, serial passes). Drives
    /// the report's `offnode_by_placement` split, so partition ablations
    /// can read per-placement traffic straight from one document.
    pub placement: Option<String>,
}

/// The measured wall time of a phase: its slowest rank's execution time.
fn derived_wall_seconds(stats: &[CommStats]) -> f64 {
    stats.iter().map(|s| s.exec_nanos).max().unwrap_or(0) as f64 / 1e9
}

impl PhaseReport {
    /// Build a report from a finished [`crate::Team::run`] invocation.
    /// `wall_seconds` is derived from the stamped per-rank execution times.
    pub fn new(name: impl Into<String>, topo: Topology, stats: Vec<CommStats>) -> Self {
        let wall_seconds = derived_wall_seconds(&stats);
        PhaseReport {
            name: name.into(),
            topo,
            stats,
            wall_seconds,
            serial_seconds: 0.0,
            hot_keys: Vec::new(),
            placement: None,
        }
    }

    /// Override the derived measured wall time.
    pub fn with_wall(mut self, seconds: f64) -> Self {
        self.wall_seconds = seconds;
        self
    }

    /// Attach serial seconds.
    pub fn with_serial(mut self, seconds: f64) -> Self {
        self.serial_seconds = seconds;
        self
    }

    /// Attach heavy-hitter keys (`(key_hash, estimated_count)`, sorted by
    /// descending count).
    pub fn with_hot_keys(mut self, hot_keys: Vec<(u64, u64)>) -> Self {
        self.hot_keys = hot_keys;
        self
    }

    /// Attach the placement label of the phase's dominant hash table (see
    /// [`PhaseReport::placement`]).
    pub fn with_placement(mut self, label: impl Into<String>) -> Self {
        self.placement = Some(label.into());
        self
    }

    /// Fold additional per-rank counters into this report (for stages made
    /// of several `Team::run` calls over the same topology). Re-derives
    /// `wall_seconds` from the merged execution times.
    pub fn absorb(&mut self, more: &[CommStats]) {
        assert_eq!(more.len(), self.stats.len());
        for (mine, extra) in self.stats.iter_mut().zip(more) {
            mine.merge(extra);
        }
        self.wall_seconds = derived_wall_seconds(&self.stats);
    }

    /// Modeled execution time under `model`.
    pub fn modeled(&self, model: &CostModel) -> ModeledTime {
        let mut t = model.phase_time(&self.topo, &self.stats);
        t.serial = self.serial_seconds;
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

    /// The slowest rank's measured execution seconds (from the
    /// [`CommStats::exec_nanos`] stamps). Because virtual ranks are
    /// multiplexed over a few OS threads, this — not the phase's host wall
    /// time — is the measured analog of the modeled critical path: both
    /// are "the slowest rank's own work", independent of how many ranks
    /// ran concurrently.
    pub fn max_rank_seconds(&self) -> f64 {
        derived_wall_seconds(&self.stats)
    }

    /// Mean over ranks of measured execution seconds.
    pub fn mean_rank_seconds(&self) -> f64 {
        if self.stats.is_empty() {
            return 0.0;
        }
        let sum: u64 = self.stats.iter().map(|s| s.exec_nanos).sum();
        sum as f64 / 1e9 / self.stats.len() as f64
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
}

/// One checkpoint interaction: an artifact saved after a stage completed,
/// or loaded to satisfy a `--resume`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckpointEvent {
    /// Stage the artifact belongs to.
    pub stage: String,
    /// `"save"` or `"load"`.
    pub action: String,
    /// Serialized artifact size in bytes.
    pub bytes: u64,
    /// FNV-1a 64 checksum of the artifact bytes.
    pub checksum: u64,
}

/// One MetaHipMer multi-k round's summary, serialized as an entry of the
/// schema-v7 top-level `rounds` array. Classic single-k runs have an
/// empty `rounds` array.
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

/// One phase's measured-vs-modeled comparison (see
/// [`PipelineReport::model_errors`]).
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseModelError {
    /// Phase name.
    pub name: String,
    /// Measured seconds: the slowest rank's stamped execution time, or —
    /// for phases with no per-rank stamps (synthetic I/O phases) — the
    /// recorded wall time.
    pub measured_seconds: f64,
    /// Modeled seconds for the same quantity: the critical path for
    /// stamped phases, the full modeled total for I/O phases.
    pub modeled_seconds: f64,
    /// `|modeled - measured| / measured`.
    pub rel_error: f64,
    /// Fraction of the critical rank's priced seconds that is compute
    /// (1.0 = pure compute). Calibration quality is only meaningful for
    /// compute-dominated phases; gates should filter on this.
    pub compute_fraction: f64,
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
    /// Partition-scheme label for the run's k-mer tables (the
    /// `PartitionScheme`'s `Display` string, `"uniform"` or
    /// `"minimizer"`). `None` when the producer predates partition-aware
    /// reporting; serialized as the schema-v6 `partition` header.
    pub partition: Option<String>,
    /// Per-round summaries of a MetaHipMer multi-k run (empty for classic
    /// single-k runs); serialized as the schema-v7 `rounds` array.
    pub rounds: Vec<RoundReport>,
}

impl PipelineReport {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stamp the run's partition-scheme label (see
    /// [`PipelineReport::partition`]).
    pub fn with_partition(mut self, label: impl Into<String>) -> Self {
        self.partition = Some(label.into());
        self
    }

    /// Off-node traffic split by table placement: for each distinct
    /// [`PhaseReport::placement`] label, the off-node fraction over the
    /// combined counters of every phase carrying that label (phases with
    /// no label are skipped — they own no table). Ordered by first
    /// appearance. This is the partition ablation's headline number: under
    /// minimizer bucketing the labeled stages' fractions drop while the
    /// unlabeled ones are untouched.
    pub fn offnode_by_placement(&self) -> Vec<(String, f64)> {
        let mut order: Vec<String> = Vec::new();
        let mut acc: std::collections::HashMap<String, CommStats> =
            std::collections::HashMap::new();
        for p in &self.phases {
            let Some(label) = &p.placement else { continue };
            if !acc.contains_key(label) {
                order.push(label.clone());
            }
            acc.entry(label.clone()).or_default().merge(&p.totals());
        }
        order
            .into_iter()
            .map(|label| {
                let frac = acc[&label].offnode_fraction().unwrap_or(0.0);
                (label, frac)
            })
            .collect()
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

    /// Compare measured and modeled time phase by phase. For phases whose
    /// ranks carry [`CommStats::exec_nanos`] stamps, the measured quantity
    /// is the slowest rank's execution seconds and the modeled one is the
    /// critical path (both are "the slowest rank's own work" — the
    /// apples-to-apples pair under virtual-rank multiplexing, where host
    /// wall time reflects thread count, not rank count). For synthetic
    /// phases with no stamps (e.g. the I/O phases the pipeline
    /// fabricates), measured is the recorded wall time and modeled is the
    /// phase's full modeled total. Phases that measured ≤ 0 seconds are
    /// skipped — there is nothing to compare against.
    pub fn model_errors(&self, model: &CostModel) -> Vec<PhaseModelError> {
        self.phases
            .iter()
            .filter_map(|p| {
                let stamped = p.stats.iter().any(|s| s.exec_nanos > 0);
                let (measured, modeled) = if stamped {
                    (p.max_rank_seconds(), p.modeled(model).critical_path)
                } else {
                    (p.wall_seconds, p.modeled(model).total())
                };
                if measured <= 0.0 {
                    return None;
                }
                let breakdown = model.critical_rank_breakdown(&p.stats);
                let priced = breakdown.total();
                Some(PhaseModelError {
                    name: p.name.clone(),
                    measured_seconds: measured,
                    modeled_seconds: modeled,
                    rel_error: (modeled - measured).abs() / measured,
                    compute_fraction: if priced > 0.0 {
                        breakdown.compute / priced
                    } else {
                        0.0
                    },
                })
            })
            .collect()
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
    /// document (schema version 4; see `DESIGN.md` §"Observability").
    ///
    /// Per phase it carries the measured wall seconds, the modeled-time
    /// breakdown, the critical rank's compute/latency/bandwidth split, the
    /// off-node fraction and load imbalance (exactly the values the
    /// [`PhaseReport`] methods return), the machine-wide counter totals,
    /// and any heavy-hitter keys the stage attached.
    ///
    /// Schema v2 added three read-path counters to each phase's `totals`
    /// object: `lookup_batches` ([`CommStats::lookup_batches`]),
    /// `cache_hits` and `cache_misses`.
    ///
    /// Schema v3 adds the fault/recovery surface: per-phase `totals` gain
    /// `transient_faults`, `retries` and `backoff_units`
    /// ([`CommStats::transient_faults`], [`CommStats::retries`],
    /// [`CommStats::backoff_units`]), and the document gains two top-level
    /// arrays — `stage_attempts` ([`StageAttempt`]: execution/abort/resume
    /// bookkeeping per pipeline stage) and `checkpoints`
    /// ([`CheckpointEvent`]: artifact saves and loads with byte counts and
    /// checksums). Consumers that indexed by key name are unaffected;
    /// consumers that enumerated keys must accept the new ones.
    ///
    /// Schema v4 adds the dynamic-scheduling surface: per-phase `totals`
    /// gain `steal_ops` ([`CommStats::steal_ops`], the chunk acquisitions
    /// of [`crate::RankCtx::dynamic_ranges`]). The per-phase `imbalance`
    /// key — present since v1 — is now computed by pricing each rank under
    /// the phase's real topology via [`CostModel::rank_breakdown`] (see
    /// [`PhaseReport::imbalance`]), so static-vs-dynamic schedule
    /// ablations can read per-stage balance straight from the report.
    ///
    /// Schema v5 adds the measured-vs-modeled surface: a
    /// top-level `cost_model` label naming the constants the document was
    /// priced under (`"default"`, `"calibrated"`, …), a top-level
    /// `model_error` block (per-phase measured/modeled seconds, relative
    /// error and compute fraction — see
    /// [`model_errors`](Self::model_errors) — plus mean/max summaries),
    /// and a per-phase `measured` object carrying `wall_seconds`,
    /// `max_rank_seconds` and `mean_rank_seconds` from the per-rank
    /// execution stamps.
    ///
    /// Schema v6 (this PR) adds the partition surface: a top-level
    /// `partition` header naming the run's k-mer partition scheme
    /// (`"uniform"` / `"minimizer"`, or `null` for partition-unaware
    /// producers), a top-level `offnode_by_placement` object mapping each
    /// table placement label to the off-node fraction over all phases
    /// using it (see [`offnode_by_placement`](Self::offnode_by_placement)),
    /// and a per-phase `placement` key carrying the phase's table
    /// placement label (`null` for table-less phases).
    ///
    /// Schema v7 (this PR) adds the multi-k surface: a top-level `rounds`
    /// array ([`RoundReport`]) with one entry per MetaHipMer round —
    /// `round`, `k`, `contigs`, `pseudo_reads` and the round's
    /// access-weighted `offnode_fraction`. Classic single-k runs serialize
    /// an empty array, so key-enumerating consumers see a fixed key set.
    pub fn to_json(&self, model: &CostModel) -> String {
        self.to_json_labeled(model, "default")
    }

    /// [`to_json`](Self::to_json) with an explicit `cost_model` label —
    /// use `"calibrated"` when pricing under constants fitted by
    /// [`crate::calib`].
    pub fn to_json_labeled(&self, model: &CostModel, cost_model_label: &str) -> String {
        let mut doc = Value::obj();
        doc.set("schema_version", 7u64)
            .set("generator", "hipmer-pgas")
            .set("cost_model", cost_model_label)
            .set(
                "partition",
                match &self.partition {
                    Some(label) => Value::from(label.as_str()),
                    None => Value::Null,
                },
            );
        let rounds: Vec<Value> = self
            .rounds
            .iter()
            .map(|r| {
                let mut v = Value::obj();
                v.set("round", r.round)
                    .set("k", r.k)
                    .set("contigs", r.contigs)
                    .set("pseudo_reads", r.pseudo_reads)
                    .set("offnode_fraction", r.offnode_fraction);
                v
            })
            .collect();
        doc.set("rounds", Value::Arr(rounds));
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
        let mut by_placement = Value::obj();
        for (label, frac) in self.offnode_by_placement() {
            by_placement.set(label, frac);
        }
        doc.set("offnode_by_placement", by_placement);
        let errors = self.model_errors(model);
        let mut err_obj = Value::obj();
        let entries: Vec<Value> = errors
            .iter()
            .map(|e| {
                let mut v = Value::obj();
                v.set("name", e.name.as_str())
                    .set("measured_seconds", e.measured_seconds)
                    .set("modeled_seconds", e.modeled_seconds)
                    .set("rel_error", e.rel_error)
                    .set("compute_fraction", e.compute_fraction);
                v
            })
            .collect();
        err_obj.set("phases", Value::Arr(entries));
        let mean = if errors.is_empty() {
            0.0
        } else {
            errors.iter().map(|e| e.rel_error).sum::<f64>() / errors.len() as f64
        };
        let max = errors.iter().map(|e| e.rel_error).fold(0.0, f64::max);
        err_obj
            .set("mean_rel_error", mean)
            .set("max_rel_error", max);
        doc.set("model_error", err_obj);
        let attempts: Vec<Value> = self
            .stage_attempts
            .iter()
            .map(|a| {
                let mut v = Value::obj();
                v.set("stage", a.stage.as_str())
                    .set("executions", a.executions)
                    .set("aborted", a.aborted)
                    .set("resumed", a.resumed);
                v
            })
            .collect();
        doc.set("stage_attempts", Value::Arr(attempts));
        let ckpts: Vec<Value> = self
            .checkpoints
            .iter()
            .map(|c| {
                let mut v = Value::obj();
                v.set("stage", c.stage.as_str())
                    .set("action", c.action.as_str())
                    .set("bytes", c.bytes)
                    .set("checksum", format!("{:#018x}", c.checksum));
                v
            })
            .collect();
        doc.set("checkpoints", Value::Arr(ckpts));
        let phases: Vec<Value> = self.phases.iter().map(|p| phase_json(p, model)).collect();
        doc.set("phases", Value::Arr(phases));
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

fn phase_json(p: &PhaseReport, model: &CostModel) -> Value {
    let totals = p.totals();
    let breakdown = model.critical_rank_breakdown(&p.stats);

    let mut v = Value::obj();
    v.set("name", p.name.as_str())
        .set("ranks", p.topo.ranks())
        .set("wall_seconds", p.wall_seconds);

    let mut measured = Value::obj();
    measured
        .set("wall_seconds", p.wall_seconds)
        .set("max_rank_seconds", p.max_rank_seconds())
        .set("mean_rank_seconds", p.mean_rank_seconds());
    v.set("measured", measured)
        .set("modeled", modeled_json(&p.modeled(model)));

    let mut crit = Value::obj();
    crit.set("compute_seconds", breakdown.compute)
        .set("latency_seconds", breakdown.latency)
        .set("bandwidth_seconds", breakdown.bandwidth);
    v.set("critical_rank", crit)
        .set("offnode_fraction", p.offnode_fraction())
        .set(
            "placement",
            match &p.placement {
                Some(label) => Value::from(label.as_str()),
                None => Value::Null,
            },
        )
        .set("imbalance", p.imbalance(model));

    let mut t = Value::obj();
    t.set("compute_ops", totals.compute_ops)
        .set("local_ops", totals.local_ops)
        .set("onnode_msgs", totals.onnode_msgs)
        .set("offnode_msgs", totals.offnode_msgs)
        .set("onnode_bytes", totals.onnode_bytes)
        .set("offnode_bytes", totals.offnode_bytes)
        .set("service_ops", totals.service_ops)
        .set("lookup_batches", totals.lookup_batches)
        .set("cache_hits", totals.cache_hits)
        .set("cache_misses", totals.cache_misses)
        .set("transient_faults", totals.transient_faults)
        .set("retries", totals.retries)
        .set("backoff_units", totals.backoff_units)
        .set("io_read_bytes", totals.io_read_bytes)
        .set("io_write_bytes", totals.io_write_bytes)
        .set("steal_ops", totals.steal_ops)
        .set("barriers", totals.barriers)
        .set("exec_nanos", totals.exec_nanos);
    v.set("totals", t);

    let hot: Vec<Value> = p
        .hot_keys
        .iter()
        .map(|&(hash, count)| {
            let mut h = Value::obj();
            h.set("key_hash", format!("{hash:#018x}"))
                .set("estimated_count", count);
            h
        })
        .collect();
    v.set("hot_keys", Value::Arr(hot));
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
    fn modeled_uses_serial_seconds() {
        let model = CostModel::edison();
        let p = phase_with(&[100, 100]).with_serial(1.5);
        let t = p.modeled(&model);
        assert!((t.serial - 1.5).abs() < 1e-12);
        assert!(t.total() >= 1.5);
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

    #[test]
    fn absorb_merges_counters() {
        let mut p = phase_with(&[10, 20]);
        let extra = vec![
            CommStats {
                compute_ops: 5,
                ..CommStats::default()
            },
            CommStats {
                compute_ops: 5,
                ..CommStats::default()
            },
        ];
        p.absorb(&extra);
        assert_eq!(p.stats[0].compute_ops, 15);
        assert_eq!(p.stats[1].compute_ops, 25);
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
                steal_ops: 9 + r,
                barriers: 2,
                exec_nanos: 1_000_000 * (r + 1),
                ..CommStats::default()
            })
            .collect();
        let mut pr = PipelineReport::new().with_partition("minimizer");
        pr.push(
            PhaseReport::new("kmer-analysis/count", topo, stats.clone())
                .with_hot_keys(vec![(0xdead_beef, 41), (0x1234, 7)])
                .with_placement("minimizer(w=17,m=7)"),
        );
        pr.push(PhaseReport::new("contig/traversal", topo, stats).with_serial(0.125));
        pr.stage_attempts.push(StageAttempt {
            stage: "kmer-analysis".to_string(),
            executions: 2,
            aborted: 1,
            resumed: false,
        });
        pr.stage_attempts.push(StageAttempt {
            stage: "contig-generation".to_string(),
            executions: 0,
            aborted: 0,
            resumed: true,
        });
        pr.checkpoints.push(CheckpointEvent {
            stage: "kmer-analysis".to_string(),
            action: "save".to_string(),
            bytes: 4096,
            checksum: 0xfeed_f00d,
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
        let model = CostModel::edison();
        let text = busy_pipeline().to_json(&model);
        let parsed = Value::parse(&text).expect("report must be valid JSON");
        // Serializing the parsed document reproduces the original text
        // byte-for-byte (ordered object pairs make this deterministic).
        assert_eq!(parsed.to_json(), text);
    }

    #[test]
    fn json_report_schema_is_stable() {
        // Guards the field names downstream tooling depends on; renaming
        // any of these is a schema break and must bump `schema_version`.
        let model = CostModel::edison();
        let doc = Value::parse(&busy_pipeline().to_json(&model)).unwrap();
        assert_eq!(u64_at(&doc, "schema_version"), 7);
        assert_eq!(str_at(&doc, "cost_model"), "default");
        assert_eq!(str_at(&doc, "partition"), "minimizer");
        assert_keys(
            &doc,
            &[
                "schema_version",
                "generator",
                "cost_model",
                "partition",
                "rounds",
                "topology",
                "modeled_total",
                "wall_seconds",
                "offnode_by_placement",
                "model_error",
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
        // The placement split carries exactly the labeled phase's label;
        // the unlabeled (table-less) phase contributes nothing.
        assert_keys(
            get_path(&doc, "offnode_by_placement"),
            &["minimizer(w=17,m=7)"],
        );
        assert_keys(
            get_path(&doc, "model_error"),
            &["phases", "mean_rel_error", "max_rel_error"],
        );
        assert_keys(
            get_path(&doc, "model_error/phases/0"),
            &[
                "name",
                "measured_seconds",
                "modeled_seconds",
                "rel_error",
                "compute_fraction",
            ],
        );
        let attempts = get_path(&doc, "stage_attempts").as_arr().unwrap();
        assert_eq!(attempts.len(), 2);
        assert_keys(&attempts[0], &["stage", "executions", "aborted", "resumed"]);
        assert_eq!(str_at(&doc, "stage_attempts/0/stage"), "kmer-analysis");
        assert_eq!(u64_at(&doc, "stage_attempts/0/aborted"), 1);
        assert_eq!(
            get_path(&doc, "stage_attempts/1/resumed").as_bool(),
            Some(true)
        );
        let ckpts = get_path(&doc, "checkpoints").as_arr().unwrap();
        assert_eq!(ckpts.len(), 1);
        assert_keys(&ckpts[0], &["stage", "action", "bytes", "checksum"]);
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
                "ranks",
                "wall_seconds",
                "measured",
                "modeled",
                "critical_rank",
                "offnode_fraction",
                "placement",
                "imbalance",
                "totals",
                "hot_keys",
            ],
        );
        assert_eq!(str_at(p, "placement"), "minimizer(w=17,m=7)");
        assert!(matches!(get_path(&doc, "phases/1/placement"), Value::Null));
        assert_keys(
            get_path(p, "measured"),
            &["wall_seconds", "max_rank_seconds", "mean_rank_seconds"],
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
        assert_keys(
            get_path(p, "totals"),
            &[
                "compute_ops",
                "local_ops",
                "onnode_msgs",
                "offnode_msgs",
                "onnode_bytes",
                "offnode_bytes",
                "service_ops",
                "lookup_batches",
                "cache_hits",
                "cache_misses",
                "transient_faults",
                "retries",
                "backoff_units",
                "io_read_bytes",
                "io_write_bytes",
                "steal_ops",
                "barriers",
                "exec_nanos",
            ],
        );
        let hot = get_path(p, "hot_keys").as_arr().unwrap();
        assert_eq!(hot.len(), 2);
        assert_eq!(str_at(p, "hot_keys/0/key_hash"), "0x00000000deadbeef");
        assert_eq!(u64_at(p, "hot_keys/0/estimated_count"), 41);
    }

    #[test]
    fn offnode_by_placement_aggregates_labeled_phases() {
        let pr = busy_pipeline();
        let split = pr.offnode_by_placement();
        // One labeled phase: its fraction verbatim.
        assert_eq!(split.len(), 1);
        assert_eq!(split[0].0, "minimizer(w=17,m=7)");
        assert!((split[0].1 - pr.phases[0].offnode_fraction()).abs() < 1e-12);

        // Two phases sharing a label pool their counters (the pooled
        // fraction is accesses-weighted, not a mean of fractions).
        let mut pr2 = PipelineReport::new();
        let topo = Topology::new(2, 1);
        let mostly_off = vec![
            CommStats {
                local_ops: 10,
                offnode_msgs: 90,
                ..CommStats::default()
            };
            2
        ];
        let mostly_local = vec![
            CommStats {
                local_ops: 300,
                offnode_msgs: 100,
                ..CommStats::default()
            };
            2
        ];
        pr2.push(PhaseReport::new("a", topo, mostly_off).with_placement("uniform"));
        pr2.push(PhaseReport::new("b", topo, mostly_local).with_placement("uniform"));
        pr2.push(phase_with(&[10, 10])); // unlabeled: excluded
        let split2 = pr2.offnode_by_placement();
        assert_eq!(split2.len(), 1);
        let expect = (90.0 + 100.0) * 2.0 / ((10.0 + 90.0 + 300.0 + 100.0) * 2.0);
        assert!((split2[0].1 - expect).abs() < 1e-12, "{}", split2[0].1);
    }

    #[test]
    fn json_report_cost_model_label_flows_through() {
        let model = CostModel::edison();
        let doc = Value::parse(&busy_pipeline().to_json_labeled(&model, "calibrated")).unwrap();
        assert_eq!(str_at(&doc, "cost_model"), "calibrated");
    }

    #[test]
    fn model_errors_compare_the_right_quantities() {
        let model = CostModel::edison();
        let pr = busy_pipeline();
        let errors = pr.model_errors(&model);
        assert_eq!(errors.len(), 2, "both fixture phases are stamped");
        for (e, p) in errors.iter().zip(&pr.phases) {
            assert_eq!(e.name, p.name);
            // Stamped phases compare max-rank seconds vs critical path.
            assert!((e.measured_seconds - p.max_rank_seconds()).abs() < 1e-12);
            assert!((e.modeled_seconds - p.modeled(&model).critical_path).abs() < 1e-12);
            let expect = (e.modeled_seconds - e.measured_seconds).abs() / e.measured_seconds;
            assert!((e.rel_error - expect).abs() < 1e-12);
            assert!(e.compute_fraction > 0.0 && e.compute_fraction <= 1.0);
        }

        // An unstamped (synthetic I/O) phase compares wall vs modeled total,
        // and a zero-measured phase is skipped.
        let topo = Topology::new(2, 2);
        let io_stats = vec![
            CommStats {
                io_read_bytes: 1 << 20,
                ..CommStats::default()
            };
            2
        ];
        let mut pr2 = PipelineReport::new();
        pr2.push(PhaseReport::new("io/fastq", topo, io_stats).with_wall(0.5));
        pr2.push(phase_with(&[1_000, 1_000])); // no exec stamps, wall 0
        let errors2 = pr2.model_errors(&model);
        assert_eq!(errors2.len(), 1, "zero-measured phase skipped");
        let e = &errors2[0];
        assert!((e.measured_seconds - 0.5).abs() < 1e-12);
        let expect_modeled = pr2.phases[0].modeled(&model).total();
        assert!((e.modeled_seconds - expect_modeled).abs() < 1e-12);
        assert_eq!(e.compute_fraction, 0.0, "pure-I/O critical rank");
    }

    #[test]
    fn json_report_matches_phase_methods() {
        // Golden check: the serialized metrics are exactly what the
        // `PhaseReport` accessors compute, not a parallel implementation.
        let model = CostModel::edison();
        let pr = busy_pipeline();
        let doc = Value::parse(&pr.to_json(&model)).unwrap();
        let phases = get_path(&doc, "phases").as_arr().unwrap();
        for (p, v) in pr.phases.iter().zip(phases) {
            assert_eq!(str_at(v, "name"), p.name.as_str());
            let off = f64_at(v, "offnode_fraction");
            assert!((off - p.offnode_fraction()).abs() < 1e-12);
            assert!(off > 0.0, "fixture must exercise a nonzero fraction");
            let imb = f64_at(v, "imbalance");
            assert!((imb - p.imbalance(&model)).abs() < 1e-12);
            assert!(imb > 1.0, "fixture must exercise real skew");
            assert!((f64_at(v, "wall_seconds") - p.wall_seconds).abs() < 1e-12);
            // Schema-v5 measured block carries the exec-stamp aggregates.
            let max_rank = f64_at(v, "measured/max_rank_seconds");
            assert!((max_rank - p.max_rank_seconds()).abs() < 1e-12);
            assert!(max_rank > 0.0, "fixture must exercise exec stamps");
            let mean_rank = f64_at(v, "measured/mean_rank_seconds");
            assert!((mean_rank - p.mean_rank_seconds()).abs() < 1e-12);
            assert!(mean_rank < max_rank, "fixture's stamps are skewed");
            let total = f64_at(v, "modeled/total_seconds");
            assert!((total - p.modeled(&model).total()).abs() < 1e-12);
            assert_eq!(u64_at(v, "totals/exec_nanos"), p.totals().exec_nanos);
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
            // Schema-v4 dynamic-scheduling counter.
            let steals = u64_at(v, "totals/steal_ops");
            assert_eq!(steals, p.totals().steal_ops);
            assert!(steals > 0, "fixture must exercise steal accounting");
        }
        // Pipeline-level sums.
        let wall = f64_at(&doc, "wall_seconds");
        let expect: f64 = pr.phases.iter().map(|p| p.wall_seconds).sum();
        assert!((wall - expect).abs() < 1e-12);
        // The model_error block agrees with the accessor.
        let errors = pr.model_errors(&model);
        for (i, e) in errors.iter().enumerate() {
            let base = format!("model_error/phases/{i}");
            assert_eq!(str_at(&doc, &format!("{base}/name")), e.name.as_str());
            assert!((f64_at(&doc, &format!("{base}/rel_error")) - e.rel_error).abs() < 1e-12);
        }
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
        pr.push(phase_with(&[500_000, 500_000]).with_serial(0.25));
        let total = pr.total_modeled(&model).total();
        assert!(total > 0.25);
        let text = pr.render(&model);
        assert!(text.contains("TOTAL"));
        assert!(text.lines().count() >= 4);
    }
}
