//! The end-to-end assembly driver, with stage-level fault recovery.
//!
//! [`planned_stage_names`] is the one stage plan: a `kmer-analysis` +
//! `contig-generation` pair per k of the schedule, then — unless
//! scaffolding is disabled — `scaffold-prep`, `alignment`, `scaffolding`.
//! A classic run is a one-round schedule at [`PipelineConfig::k`]; under
//! [`crate::config::PipelineConfig::try_multi_k`] (two or more k values,
//! the MetaHipMer rounds) the pair repeats once per k with its names
//! prefixed `round{N}/`, round N+1's input is the original reads plus round
//! N's contigs injected as high-confidence pseudo-reads, and the
//! scaffolding tail runs once at the largest k. [`run_assembly`] walks that
//! plan in one loop; stage names, checkpoint indices and `--halt-after`
//! validation are all read off it.
//!
//! Each stage is checkpointable and runs inside
//! [`hipmer_pgas::catch_stage_abort`], so an injected (or modeled) rank
//! failure aborts only the stage, not the process. An aborted stage is
//! retried up to [`RunOptions::stage_retries`] times, with the
//! [`PipelineReport`] rolled back to the stage's mark first so a retried
//! attempt *replaces* the aborted one in the wall-clock and counter totals.
//! With a [`RunOptions::checkpoint_dir`], each completed stage's artifact is
//! persisted (see [`crate::checkpoint`]), and `--resume` skips validated
//! stages entirely — the recovery guarantee is that a resumed or retried
//! run produces a byte-identical assembly to an undisturbed one.

use crate::checkpoint::{self, CheckpointStore, Fingerprint, ScaffoldState};
use crate::config::PipelineConfig;
use crate::stats::AssemblyStats;
use hipmer_align::align_reads;
use hipmer_contig::{generate_contigs, ContigSet};
use hipmer_kanalysis::analyze_kmers;
use hipmer_pgas::{catch_stage_abort, CheckpointEvent, RoundReport, StageAttempt};
use hipmer_pgas::{CommStats, PartitionScheme, PhaseReport, PipelineReport, Team, Topology};
use hipmer_scaffold::{prepare_contigs, scaffold_rounds, Scaffold, ScaffoldMember, ScaffoldSet};
use hipmer_seqio::{read_fastq_parallel, SeqRecord};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A finished assembly.
pub struct Assembly {
    /// Final scaffolds (equals contigs wrapped as singletons when
    /// scaffolding is disabled, e.g. the metagenome preset).
    pub scaffolds: ScaffoldSet,
    /// The traversal's contig set (pre-bubble-merge).
    pub contigs: ContigSet,
    /// Headline statistics.
    pub stats: AssemblyStats,
    /// Per-phase counters + modeled-time inputs.
    pub report: PipelineReport,
}

impl Assembly {
    /// The scaffolds as FASTA: records `scaffold_{i}` in scaffold order,
    /// sequence lines wrapped at 80 bases. The one output format of the
    /// CLI, the job service and the examples.
    pub fn to_fasta(&self) -> Vec<u8> {
        let records: Vec<SeqRecord> = (self.scaffolds.sequences.iter().enumerate())
            .map(|(i, s)| SeqRecord::new(format!("scaffold_{i}"), s.clone()))
            .collect();
        let mut fasta = Vec::new();
        hipmer_seqio::write_fasta(&mut fasta, &records, 80).expect("a Vec<u8> write cannot fail");
        fasta
    }
}

/// Checkpoint/restart knobs for [`run_assembly`]. [`Default`] gives the
/// classic in-memory pipeline: no checkpoint directory, one retry per
/// stage.
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// Directory for stage checkpoints (`None` disables persistence;
    /// stage retries then restart from in-memory inputs).
    pub checkpoint_dir: Option<PathBuf>,
    /// Validate an existing checkpoint directory and skip its completed
    /// stages instead of starting fresh.
    pub resume: bool,
    /// Save a checkpoint every Nth stage (1 = every stage; 0 is taken as
    /// 1). A skipped save invalidates later on-disk artifacts so
    /// `--resume` can never jump a gap.
    pub checkpoint_interval: usize,
    /// How many times an aborted stage is re-executed before the run
    /// gives up with [`PipelineError::StageAborted`].
    pub stage_retries: usize,
    /// Stop (successfully) after the named stage completes — the
    /// checkpoint-then-resume test harness hook.
    pub halt_after: Option<String>,
    /// Cooperative cancellation: checked at every stage boundary. When the
    /// flag is set the run stops with [`PipelineError::Interrupted`]
    /// *between* stages, so with a [`RunOptions::checkpoint_dir`] every
    /// completed stage's artifact is already on disk and a later
    /// `resume: true` run restarts from the longest valid prefix. Signal
    /// handlers (one-shot CLI) and the job server's drain path both feed
    /// this flag.
    pub cancel: Option<Arc<AtomicBool>>,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            checkpoint_dir: None,
            resume: false,
            checkpoint_interval: 1,
            stage_retries: 1,
            halt_after: None,
            cancel: None,
        }
    }
}

/// Why [`run_assembly`] did not return an assembly.
#[derive(Debug)]
pub enum PipelineError {
    /// I/O or input-validation failure: reading the input reads, or
    /// checkpoint store access.
    Io(std::io::Error),
    /// A stage kept aborting after exhausting its retry budget.
    StageAborted {
        /// The stage that failed.
        stage: String,
        /// The failing rank of the last attempt.
        rank: usize,
        /// Total attempts made (1 + retries).
        attempts: usize,
    },
    /// The run stopped early as requested by [`RunOptions::halt_after`].
    Halted {
        /// The stage after which the run halted.
        stage: String,
    },
    /// [`RunOptions::halt_after`] named a stage the configured pipeline
    /// will never run (misspelled, or round-qualified with a round the
    /// multi-k schedule doesn't have). Caught up front, before any stage
    /// executes — previously a bad name silently ran the full pipeline.
    UnknownStage {
        /// The name that matched no planned stage.
        stage: String,
        /// Every stage this run would execute, in order.
        valid: Vec<String>,
    },
    /// The [`RunOptions::cancel`] flag stopped the run at a stage
    /// boundary. Already-completed stages are checkpointed (when a
    /// checkpoint directory is configured), so the run is resumable.
    Interrupted {
        /// The stage that was about to run when the flag was observed.
        stage: String,
    },
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Io(e) => write!(f, "I/O: {e}"),
            PipelineError::StageAborted {
                stage,
                rank,
                attempts,
            } => write!(
                f,
                "stage {stage:?} aborted on rank {rank} after {attempts} attempts"
            ),
            PipelineError::Halted { stage } => write!(f, "halted after stage {stage:?}"),
            PipelineError::UnknownStage { stage, valid } => write!(
                f,
                "unknown --halt-after stage {stage:?}; valid stages: {}",
                valid.join(", ")
            ),
            PipelineError::Interrupted { stage } => {
                write!(f, "interrupted before stage {stage:?}")
            }
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<std::io::Error> for PipelineError {
    fn from(e: std::io::Error) -> Self {
        PipelineError::Io(e)
    }
}

/// The bookkeeping record of a stage that just ended, stamped with the
/// process's peak and current resident set (`VmHWM` and `VmRSS` of
/// `/proc/self/status`; zeros where there is no procfs).
fn stage_attempt(stage: &str, executions: u64, aborted: u64, resumed: bool) -> StageAttempt {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let bytes = |name: &str| {
        let value = status.lines().find_map(|l| l.strip_prefix(name));
        let kb = value.and_then(|v| v.split_whitespace().next()?.parse::<u64>().ok());
        kb.unwrap_or(0) * 1024
    };
    StageAttempt {
        stage: stage.to_string(),
        executions,
        aborted,
        resumed,
        peak_rss_bytes: bytes("VmHWM:"),
        rss_bytes: bytes("VmRSS:"),
    }
}

/// Spread `bytes` of checkpoint I/O over the topology's ranks (the way a
/// real stage writes its shard of the artifact to the parallel FS), so
/// the shared-I/O saturation model prices it like any other I/O phase.
fn io_phase(name: String, topo: Topology, bytes: u64, write: bool, wall: f64) -> PhaseReport {
    let ranks = topo.ranks() as u64;
    let mut stats = vec![CommStats::new(); topo.ranks()];
    for (i, s) in stats.iter_mut().enumerate() {
        let share = bytes / ranks + u64::from((i as u64) < bytes % ranks);
        if write {
            s.io_write_bytes = share;
        } else {
            s.io_read_bytes = share;
        }
    }
    PhaseReport::new(name, topo, stats).with_wall(wall)
}

/// Every stage a [`run_assembly`] call with this config will execute, in
/// order — the single stage plan: one `kmer-analysis` + `contig-generation`
/// pair per k (prefixed `round{N}/` only when the schedule has more than
/// one round), then the scaffolding tail unless scaffolding is disabled.
/// Stage names, checkpoint indices and [`RunOptions::halt_after`]
/// validation all come from this list.
pub fn planned_stage_names(cfg: &PipelineConfig) -> Vec<String> {
    let rounds = cfg.multi_k_rounds().map_or(1, <[usize]>::len);
    let mut names = Vec::new();
    for round in 1..=rounds {
        let prefix = if rounds > 1 {
            format!("round{round}/")
        } else {
            String::new()
        };
        names.push(format!("{prefix}kmer-analysis"));
        names.push(format!("{prefix}contig-generation"));
    }
    if cfg.scaffolding_enabled() {
        names.extend(["scaffold-prep", "alignment", "scaffolding"].map(String::from));
    }
    names
}

/// Drives the stages of one [`run_assembly`] call: retry-with-rollback on
/// stage aborts, checkpoint save/load, and the per-stage bookkeeping that
/// lands in the report (`stage_attempts`, `checkpoints`).
struct StageRunner<'a> {
    report: PipelineReport,
    store: Option<CheckpointStore>,
    opts: &'a RunOptions,
    topo: Topology,
    /// [`planned_stage_names`] of this run; the next stage is `plan[done]`.
    plan: Vec<String>,
    done: usize,
}

impl StageRunner<'_> {
    /// Run (or resume) the next stage of the plan. `run` executes the stage
    /// body and may unwind with a [`hipmer_pgas::StageAbort`];
    /// `encode`/`decode` are the stage's checkpoint codec.
    fn stage<T>(
        &mut self,
        mut run: impl FnMut() -> (T, Vec<PhaseReport>),
        encode: impl FnOnce(&T) -> Vec<u8>,
        decode: impl FnOnce(&[u8]) -> std::io::Result<T>,
    ) -> Result<T, PipelineError> {
        let index = self.done;
        let name = self.plan[index].clone();
        self.done += 1;
        // Cooperative cancellation: stop cleanly between stages, leaving
        // the checkpoint prefix written so far intact for a resume.
        if (self.opts.cancel.as_ref()).is_some_and(|c| c.load(Ordering::SeqCst)) {
            return Err(PipelineError::Interrupted {
                stage: name.clone(),
            });
        }

        let mark = self.report.mark();
        let mut aborted = 0u64;
        let value = match &self.store {
            // Resume path: a validated artifact satisfies the stage outright.
            Some(store) if self.opts.resume && store.completed(&name) => {
                let t0 = Instant::now();
                let (payload, bytes, checksum) = store.load(&name)?;
                let value = decode(&payload)?;
                self.record_checkpoint(&name, "load", t0, bytes, checksum);
                self.report
                    .stage_attempts
                    .push(stage_attempt(&name, 0, 0, true));
                value
            }
            // Live path: execute, retrying after stage aborts with the report
            // rolled back so the failed attempt's phases don't double-count.
            _ => loop {
                match catch_stage_abort(&mut run) {
                    Ok((value, phases)) => {
                        for p in phases {
                            self.report.push(p);
                        }
                        let attempt = stage_attempt(&name, aborted + 1, aborted, false);
                        self.report.stage_attempts.push(attempt);
                        match &mut self.store {
                            Some(store)
                                if index.is_multiple_of(self.opts.checkpoint_interval.max(1)) =>
                            {
                                let payload = encode(&value);
                                let t0 = Instant::now();
                                let (bytes, checksum) = store.save(index, &name, &payload)?;
                                self.record_checkpoint(&name, "save", t0, bytes, checksum);
                            }
                            // This stage's output exists only in memory:
                            // anything later on disk is now stale.
                            Some(store) => store.invalidate_from(index),
                            None => {}
                        }
                        break value;
                    }
                    Err(abort) => {
                        self.report.rollback_to(mark);
                        aborted += 1;
                        if aborted as usize > self.opts.stage_retries {
                            let attempt = stage_attempt(&name, aborted, aborted, false);
                            self.report.stage_attempts.push(attempt);
                            return Err(PipelineError::StageAborted {
                                stage: name.clone(),
                                rank: abort.rank,
                                attempts: aborted as usize,
                            });
                        }
                    }
                }
            },
        };
        if self.opts.halt_after.as_ref() == Some(&name) {
            return Err(PipelineError::Halted { stage: name });
        }
        Ok(value)
    }

    /// Book one checkpoint transfer (`action` is `"save"` or `"load"`): an
    /// I/O phase the cost model prices like any other, and the report's
    /// checkpoint event.
    fn record_checkpoint(&mut self, stage: &str, action: &str, t0: Instant, bytes: u64, sum: u64) {
        let seconds = t0.elapsed().as_secs_f64();
        self.report.push(io_phase(
            format!("checkpoint/{action}-{stage}"),
            self.topo,
            bytes,
            action == "save",
            seconds,
        ));
        self.report.checkpoints.push(CheckpointEvent {
            stage: stage.to_string(),
            action: action.to_string(),
            bytes,
            checksum: sum,
            seconds,
        });
    }
}

/// Round `round`'s contigs as the next round's pseudo-reads: one record
/// per contig, at a quality comfortably above the `MIN_QUAL` floor.
fn pseudo_reads(round: usize, contigs: &ContigSet) -> Vec<SeqRecord> {
    (contigs.contigs.iter())
        .map(|c| {
            let id = format!("pseudo{round}:{}", c.id);
            SeqRecord::with_uniform_quality(id, c.seq.clone(), 40)
        })
        .collect()
}

/// A later round's k-mer analysis input, borrowed: every read, then each
/// pseudo-read twice, so its k-mers clear the `MIN_COUNT` = 2 filter.
fn round_input<'a>(reads: &'a [SeqRecord], pseudo: &'a [SeqRecord]) -> Vec<&'a SeqRecord> {
    let twice = pseudo.iter().flat_map(|p| [p, p]);
    reads.iter().chain(twice).collect()
}

/// Assemble reads end-to-end with checkpoint/restart and stage-abort
/// recovery. `lib_ranges` partitions read indices by library (see
/// [`hipmer_scaffold::scaffold_pipeline`]).
pub fn run_assembly(
    team: &Team,
    reads: &[SeqRecord],
    lib_ranges: &[Range<usize>],
    cfg: &PipelineConfig,
    opts: &RunOptions,
) -> Result<Assembly, PipelineError> {
    let topo = *team.topo();
    let plan = planned_stage_names(cfg);
    // Fail fast on a --halt-after name the configured pipeline will never
    // run; an equality check per stage would just silently never match.
    if let Some(halt) = opts.halt_after.as_ref().filter(|h| !plan.contains(h)) {
        return Err(PipelineError::UnknownStage {
            stage: halt.clone(),
            valid: plan,
        });
    }
    let read_bases = reads.iter().map(|r| r.len()).sum();
    let fingerprint = Fingerprint {
        k: cfg.k,
        ranks: topo.ranks(),
        ranks_per_node: topo.ranks_per_node(),
        n_reads: reads.len(),
        read_bases,
        rounds: cfg.scaffold.rounds,
        multi_k: cfg.multi_k.clone(),
    };
    let store = match &opts.checkpoint_dir {
        Some(dir) if opts.resume => Some(CheckpointStore::open_for_resume(dir, fingerprint)?),
        Some(dir) => Some(CheckpointStore::create(dir, fingerprint)?),
        None => None,
    };
    let mut runner = StageRunner {
        report: PipelineReport::new(),
        store,
        opts,
        topo,
        plan,
        done: 0,
    };

    // k-mer analysis + contig generation, once per k of the schedule. A
    // classic run is the one-round schedule `[cfg.k]`; under multi-k each
    // round's contigs feed the next round as pseudo-reads, and the
    // scaffolding tail below runs once, at the largest k, on the final
    // round's spectrum/contigs and the *original* reads.
    let ks = cfg.multi_k_rounds().unwrap_or(std::slice::from_ref(&cfg.k));
    // The previous round's contigs as pseudo-reads, one record per contig;
    // empty in round 1. Only k-mer analysis reads them.
    let mut pseudo: Vec<SeqRecord> = Vec::new();
    let mut injected = 0u64;
    let mut last = None;
    for (ri, &k) in ks.iter().enumerate() {
        let round = ri + 1;
        let is_final = round == ks.len();
        // Non-final rounds prune low-depth hairs (`ROUND_PRUNE_DEPTH`); the
        // final round runs this config's own stage configs verbatim so
        // `--multi-k` ending at k equals classic-k quality.
        let (ka_cfg, contig_cfg) = if is_final {
            (cfg.kanalysis.clone(), cfg.contig.clone())
        } else {
            cfg.round_stage_configs(k)
        };
        let phase_mark = runner.report.phases.len();
        let spectrum = runner.stage(
            || match ri {
                0 => analyze_kmers(team, reads, &ka_cfg),
                _ => analyze_kmers(team, &round_input(reads, &pseudo), &ka_cfg),
            },
            checkpoint::encode_spectrum,
            |b| checkpoint::decode_spectrum(b, topo, PartitionScheme::Uniform),
        )?;
        // Only k-mer analysis reads the pseudo-reads; free them before the
        // contig stage's tables grow.
        pseudo = Vec::new();
        // The raw, pre-bubble contig set.
        let contigs = runner.stage(
            || generate_contigs(team, &spectrum, &contig_cfg),
            checkpoint::encode_contigs,
            checkpoint::decode_contigs,
        )?;
        if ks.len() > 1 {
            let mut acc = CommStats::new();
            for p in &runner.report.phases[phase_mark..] {
                acc.merge(&p.totals());
            }
            runner.report.rounds.push(RoundReport {
                round,
                k,
                contigs: contigs.len() as u64,
                pseudo_reads: injected,
                offnode_fraction: acc.offnode_fraction().unwrap_or(0.0),
            });
        }
        if is_final {
            last = Some((spectrum, contigs));
        } else {
            // Derived from the (possibly checkpoint-decoded) contig set, so
            // a resumed round N+1 sees byte-identical input. This round's
            // spectrum and contigs go out of scope here.
            pseudo = pseudo_reads(round, &contigs);
            injected = 2 * pseudo.len() as u64;
        }
    }
    let (spectrum, contigs) = last.expect("a schedule has at least one k");

    let (scaffolds, gaps) = if cfg.scaffolding_enabled() {
        // scaffold-prep: depths + bubble merging.
        let prepared = runner.stage(
            || prepare_contigs(team, &spectrum, &contigs, cfg.scaffold.schedule),
            checkpoint::encode_contigs,
            checkpoint::decode_contigs,
        )?;

        // alignment: round-0 merAligner (depends only on the prepared
        // contigs, so it can be hoisted out of the round loop and
        // checkpointed — see `hipmer_scaffold::scaffold_rounds`).
        let alignments = runner.stage(
            || align_reads(team, &prepared, reads, &cfg.scaffold.align),
            |alns| checkpoint::encode_alignments(alns),
            |bytes| {
                let alns = checkpoint::decode_alignments(bytes)?;
                checkpoint::validate_alignments(&alns, &prepared, reads)?;
                Ok(alns)
            },
        )?;

        // scaffolding: the scaffolding rounds proper.
        let state = runner.stage(
            || {
                let out = scaffold_rounds(
                    team,
                    &spectrum,
                    prepared.clone(),
                    reads,
                    lib_ranges,
                    &cfg.scaffold,
                    Some(alignments.clone()),
                );
                (
                    ScaffoldState {
                        scaffolds: out.scaffolds,
                        gap_stats: out.gap_stats,
                        insert_means: out.insert_means,
                    },
                    out.reports,
                )
            },
            checkpoint::encode_scaffold_state,
            checkpoint::decode_scaffold_state,
        )?;
        (state.scaffolds, state.gap_stats)
    } else {
        // Contigs become singleton "scaffolds" verbatim. Scaffold members
        // index contigs with u32; surface an overflow as a clean error
        // instead of silently truncating the index.
        let n = u32::try_from(contigs.len()).map_err(|_| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "contig count exceeds the u32 scaffold-member id space",
            )
        })?;
        let singleton = |contig| Scaffold {
            members: vec![ScaffoldMember {
                contig,
                reversed: false,
                gap_before: 0,
            }],
        };
        let scaffolds = ScaffoldSet {
            scaffolds: (0..n).map(singleton).collect(),
            sequences: contigs.contigs.iter().map(|c| c.seq.clone()).collect(),
            offsets: vec![vec![0]; contigs.len()],
        };
        (scaffolds, Default::default())
    };
    debug_assert_eq!(runner.done, runner.plan.len(), "every planned stage ran");

    let stats = AssemblyStats {
        n_reads: reads.len(),
        read_bases,
        distinct_kmers: spectrum.distinct(),
        n_contigs: contigs.len(),
        contig_n50: contigs.n50(),
        n_scaffolds: scaffolds.len(),
        scaffold_n50: scaffolds.n50(),
        scaffold_bases: scaffolds.total_bases(),
        gaps,
    };

    Ok(Assembly {
        scaffolds,
        contigs,
        stats,
        report: runner.report,
    })
}

/// Assemble reads end-to-end. `lib_ranges` partitions read indices by
/// library (see [`hipmer_scaffold::scaffold_pipeline`]). Thin wrapper
/// over [`run_assembly`] with default [`RunOptions`].
///
/// # Panics
/// Panics if a stage aborts past its retry budget (arm a fault plan and
/// call [`run_assembly`] instead to handle that case).
pub fn assemble(
    team: &Team,
    reads: &[SeqRecord],
    lib_ranges: &[Range<usize>],
    cfg: &PipelineConfig,
) -> Assembly {
    run_assembly(team, reads, lib_ranges, cfg, &RunOptions::default())
        .expect("assembly failed without checkpointing enabled")
}

/// [`run_assembly`] straight from a FASTQ file using the §3.3 parallel
/// block reader; the I/O phase is measured and priced like every other
/// phase. The file is treated as a single library.
pub fn run_assembly_fastq(
    team: &Team,
    path: &Path,
    cfg: &PipelineConfig,
    opts: &RunOptions,
) -> Result<Assembly, PipelineError> {
    let (per_rank, io_stats) = read_fastq_parallel(team, path)?;
    let reads: Vec<SeqRecord> = per_rank.into_iter().flatten().collect();
    let lib_range = 0..reads.len();
    let mut assembly = run_assembly(team, &reads, std::slice::from_ref(&lib_range), cfg, opts)?;
    // Prepend the I/O phase so stage grouping sees it.
    assembly.report.phases.insert(
        0,
        hipmer_pgas::PhaseReport::new("io/fastq", *team.topo(), io_stats),
    );
    Ok(assembly)
}

/// Assemble straight from a FASTQ file with default [`RunOptions`].
pub fn assemble_fastq(team: &Team, path: &Path, cfg: &PipelineConfig) -> std::io::Result<Assembly> {
    match run_assembly_fastq(team, path, cfg, &RunOptions::default()) {
        Ok(a) => Ok(a),
        Err(PipelineError::Io(e)) => Err(e),
        Err(e) => panic!("assembly failed without checkpointing enabled: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::evaluate;
    use crate::stats::StageTimes;
    use hipmer_pgas::{CostModel, Topology};
    use hipmer_readsim::human_like_dataset;

    /// The names a run actually executed (or resumed), in order.
    fn stages_run(assembly: &Assembly) -> Vec<&str> {
        (assembly.report.stage_attempts.iter())
            .map(|a| a.stage.as_str())
            .collect()
    }

    #[test]
    fn end_to_end_assembly_reconstructs_genome() {
        let dataset = human_like_dataset(30_000, 18.0, false, 5);
        let team = Team::new(Topology::new(4, 2));
        let reads = dataset.all_reads();
        let cfg = PipelineConfig::new(21);
        let assembly = assemble(&team, &reads, &dataset.lib_ranges(), &cfg);

        assert!(assembly.stats.scaffold_n50 >= assembly.stats.contig_n50);
        // Accuracy: nearly all scaffold k-mers come from a haplotype, and
        // nearly the whole genome is covered.
        let haplotypes = &dataset.genomes[0].haplotypes;
        let eval = evaluate(
            &[&haplotypes[0], &haplotypes[1]],
            &assembly.scaffolds.sequences,
            21,
        );
        assert!(eval.precision > 0.99, "precision {}", eval.precision);
        assert!(
            eval.genome_fraction > 0.90,
            "completeness {}",
            eval.genome_fraction
        );
    }

    #[test]
    fn stage_times_are_all_populated() {
        let dataset = human_like_dataset(15_000, 16.0, false, 6);
        let team = Team::new(Topology::new(4, 2));
        let reads = dataset.all_reads();
        let assembly = assemble(
            &team,
            &reads,
            &dataset.lib_ranges(),
            &PipelineConfig::new(21),
        );
        let t = StageTimes::from_report(&assembly.report, &CostModel::edison());
        assert!(t.kmer_analysis > 0.0);
        assert!(t.contig_generation > 0.0);
        assert!(t.meraligner > 0.0);
        assert!(t.gap_closing > 0.0);
        assert!(t.rest_scaffolding > 0.0);
        assert!(t.total() > 0.0);
    }

    #[test]
    fn metagenome_preset_skips_scaffolding() {
        let dataset = human_like_dataset(10_000, 14.0, false, 7);
        let team = Team::new(Topology::new(2, 2));
        let reads = dataset.all_reads();
        let assembly = assemble(
            &team,
            &reads,
            &dataset.lib_ranges(),
            &PipelineConfig::metagenome_preset(21),
        );
        assert_eq!(assembly.stats.n_scaffolds, assembly.stats.n_contigs);
        assert_eq!(assembly.stats.gaps.total(), 0);
        let t = StageTimes::from_report(&assembly.report, &CostModel::edison());
        assert_eq!(t.meraligner, 0.0);
        assert_eq!(t.gap_closing, 0.0);
    }

    #[test]
    fn assemble_from_fastq_file_counts_io() {
        let dataset = human_like_dataset(10_000, 14.0, false, 8);
        let dir = std::env::temp_dir().join(format!("hipmer-e2e-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("reads.fastq");
        let mut buf = Vec::new();
        hipmer_seqio::write_fastq(&mut buf, &dataset.all_reads()).unwrap();
        std::fs::write(&path, &buf).unwrap();

        let team = Team::new(Topology::new(4, 2));
        let assembly = assemble_fastq(&team, &path, &PipelineConfig::new(21)).unwrap();
        assert!(assembly.stats.n_reads > 0);
        let t = StageTimes::from_report(&assembly.report, &CostModel::edison());
        assert!(t.io > 0.0, "I/O phase must be priced");
        std::fs::remove_dir_all(&dir).ok();
    }

    fn ckpt_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hipmer-run-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn checkpointed_run_matches_plain_run() {
        let dataset = human_like_dataset(15_000, 16.0, false, 11);
        let team = Team::new(Topology::new(4, 2));
        let reads = dataset.all_reads();
        let cfg = PipelineConfig::new(21);
        let ranges = dataset.lib_ranges();

        let plain = assemble(&team, &reads, &ranges, &cfg);

        let dir = ckpt_dir("plainmatch");
        let opts = RunOptions {
            checkpoint_dir: Some(dir.clone()),
            ..RunOptions::default()
        };
        let ckpt = run_assembly(&team, &reads, &ranges, &cfg, &opts).unwrap();
        assert_eq!(plain.scaffolds.sequences, ckpt.scaffolds.sequences);
        // Every stage saved an artifact…
        assert_eq!(
            ckpt.report
                .checkpoints
                .iter()
                .filter(|c| c.action == "save")
                .count(),
            5
        );
        // …and the I/O was priced into the report.
        assert!(ckpt
            .report
            .phases
            .iter()
            .any(|p| p.name.starts_with("checkpoint/save-")));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn halt_and_resume_reproduces_the_assembly() {
        let dataset = human_like_dataset(15_000, 16.0, false, 12);
        let team = Team::new(Topology::new(4, 2));
        let reads = dataset.all_reads();
        let cfg = PipelineConfig::new(21);
        let ranges = dataset.lib_ranges();

        let plain = assemble(&team, &reads, &ranges, &cfg);

        let dir = ckpt_dir("resume");
        let halted = run_assembly(
            &team,
            &reads,
            &ranges,
            &cfg,
            &RunOptions {
                checkpoint_dir: Some(dir.clone()),
                halt_after: Some("scaffold-prep".into()),
                ..RunOptions::default()
            },
        );
        assert!(matches!(
            halted,
            Err(PipelineError::Halted { ref stage }) if stage == "scaffold-prep"
        ));

        let resumed = run_assembly(
            &team,
            &reads,
            &ranges,
            &cfg,
            &RunOptions {
                checkpoint_dir: Some(dir.clone()),
                resume: true,
                ..RunOptions::default()
            },
        )
        .unwrap();
        assert_eq!(plain.scaffolds.sequences, resumed.scaffolds.sequences);
        // The first three stages were satisfied from checkpoints.
        let resumed_stages: Vec<_> = resumed
            .report
            .stage_attempts
            .iter()
            .filter(|a| a.resumed)
            .map(|a| a.stage.as_str())
            .collect();
        assert_eq!(
            resumed_stages,
            ["kmer-analysis", "contig-generation", "scaffold-prep"]
        );
        assert!(resumed
            .report
            .phases
            .iter()
            .any(|p| p.name.starts_with("checkpoint/load-")));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cancelled_run_resumes_to_identical_assembly() {
        let dataset = human_like_dataset(15_000, 16.0, false, 21);
        let team = Team::new(Topology::new(4, 2));
        let reads = dataset.all_reads();
        let cfg = PipelineConfig::new(21);
        let ranges = dataset.lib_ranges();

        let plain = assemble(&team, &reads, &ranges, &cfg);

        // A pre-set cancel flag stops before the first stage runs.
        let dir = ckpt_dir("cancel");
        let cancel = Arc::new(AtomicBool::new(true));
        let err = match run_assembly(
            &team,
            &reads,
            &ranges,
            &cfg,
            &RunOptions {
                checkpoint_dir: Some(dir.clone()),
                cancel: Some(cancel.clone()),
                ..RunOptions::default()
            },
        ) {
            Err(e) => e,
            Ok(_) => panic!("pre-set cancel flag must interrupt the run"),
        };
        assert!(matches!(
            err,
            PipelineError::Interrupted { ref stage } if stage == "kmer-analysis"
        ));

        // Run again, letting two stages finish before cancelling (via
        // halt_after to make the boundary deterministic), then resume.
        let halted = run_assembly(
            &team,
            &reads,
            &ranges,
            &cfg,
            &RunOptions {
                checkpoint_dir: Some(dir.clone()),
                halt_after: Some("contig-generation".into()),
                ..RunOptions::default()
            },
        );
        assert!(matches!(halted, Err(PipelineError::Halted { .. })));

        cancel.store(false, Ordering::SeqCst);
        let resumed = run_assembly(
            &team,
            &reads,
            &ranges,
            &cfg,
            &RunOptions {
                checkpoint_dir: Some(dir.clone()),
                resume: true,
                cancel: Some(cancel),
                ..RunOptions::default()
            },
        )
        .unwrap();
        assert_eq!(plain.scaffolds.sequences, resumed.scaffolds.sequences);
        assert!(
            resumed.report.stage_attempts.iter().any(|a| a.resumed),
            "resume must reuse the checkpointed prefix"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_rank_failure_recovers_to_identical_assembly() {
        use hipmer_pgas::FaultPlan;
        use std::sync::Arc;

        let dataset = human_like_dataset(15_000, 16.0, false, 13);
        let reads = dataset.all_reads();
        let cfg = PipelineConfig::new(21);
        let ranges = dataset.lib_ranges();
        let topo = Topology::new(4, 2);

        let plain = assemble(&Team::new(topo), &reads, &ranges, &cfg);

        // Kill rank 2 partway through; the stage aborts once, is rolled
        // back, and the retry (the kill is one-shot) must reproduce the
        // fault-free assembly exactly.
        let plan = FaultPlan::new(99, topo.ranks()).with_rank_failure(2, 1_000);
        let team = Team::new(topo).with_fault_plan(Arc::new(plan));
        let faulty = run_assembly(&team, &reads, &ranges, &cfg, &RunOptions::default()).unwrap();
        assert_eq!(plain.scaffolds.sequences, faulty.scaffolds.sequences);

        let aborted: u64 = faulty.report.stage_attempts.iter().map(|a| a.aborted).sum();
        assert_eq!(aborted, 1, "exactly one stage attempt was killed");
        let retried = faulty
            .report
            .stage_attempts
            .iter()
            .find(|a| a.aborted > 0)
            .unwrap();
        assert_eq!(retried.executions, 2);
    }

    #[test]
    fn exhausted_retry_budget_surfaces_the_failing_stage() {
        use hipmer_pgas::FaultPlan;
        use std::sync::Arc;

        let dataset = human_like_dataset(8_000, 14.0, false, 14);
        let reads = dataset.all_reads();
        let cfg = PipelineConfig::new(21);
        let ranges = dataset.lib_ranges();
        let topo = Topology::new(2, 2);

        // Transient probability 1.0 exhausts any retry budget immediately
        // and escalates to a hard failure on the first remote access.
        let plan = FaultPlan::new(7, topo.ranks()).with_transient(1.0);
        let team = Team::new(topo).with_fault_plan(Arc::new(plan));
        let err = match run_assembly(
            &team,
            &reads,
            &ranges,
            &cfg,
            &RunOptions {
                stage_retries: 1,
                ..RunOptions::default()
            },
        ) {
            Err(e) => e,
            Ok(_) => panic!("expected the run to fail"),
        };
        match err {
            PipelineError::StageAborted {
                stage, attempts, ..
            } => {
                assert_eq!(stage, "kmer-analysis");
                assert_eq!(attempts, 2);
            }
            other => panic!("expected StageAborted, got {other}"),
        }
    }

    #[test]
    fn checkpoint_interval_gates_saves() {
        let dataset = human_like_dataset(10_000, 14.0, false, 15);
        let team = Team::new(Topology::new(2, 2));
        let reads = dataset.all_reads();
        let cfg = PipelineConfig::new(21);
        let ranges = dataset.lib_ranges();

        let dir = ckpt_dir("interval");
        let out = run_assembly(
            &team,
            &reads,
            &ranges,
            &cfg,
            &RunOptions {
                checkpoint_dir: Some(dir.clone()),
                checkpoint_interval: 2,
                ..RunOptions::default()
            },
        )
        .unwrap();
        // Stages 0, 2, 4 saved; 1 and 3 skipped — and each skip
        // invalidates what came after, so only the last save survives
        // contiguously... the store keeps records per its prefix rule.
        let saves: Vec<_> = out
            .report
            .checkpoints
            .iter()
            .filter(|c| c.action == "save")
            .map(|c| c.stage.as_str())
            .collect();
        assert_eq!(saves, ["kmer-analysis", "scaffold-prep", "scaffolding"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_halt_after_is_rejected_up_front() {
        let dataset = human_like_dataset(5_000, 12.0, false, 31);
        let team = Team::new(Topology::new(2, 2));
        let reads = dataset.all_reads();
        let ranges = dataset.lib_ranges();

        // Misspelled classic stage name: fails fast, listing the plan.
        let err = match run_assembly(
            &team,
            &reads,
            &ranges,
            &PipelineConfig::new(21),
            &RunOptions {
                halt_after: Some("contig-generatoin".into()),
                ..RunOptions::default()
            },
        ) {
            Err(e) => e,
            Ok(_) => panic!("an unknown --halt-after stage must not run the pipeline"),
        };
        match err {
            PipelineError::UnknownStage { stage, valid } => {
                assert_eq!(stage, "contig-generatoin");
                assert_eq!(
                    valid,
                    [
                        "kmer-analysis",
                        "contig-generation",
                        "scaffold-prep",
                        "alignment",
                        "scaffolding"
                    ]
                );
            }
            other => panic!("expected UnknownStage, got {other}"),
        }

        // Round-qualified names are validated against the multi-k plan:
        // "round3/…" doesn't exist in a two-round schedule.
        let cfg = PipelineConfig::metagenome_preset(33)
            .try_multi_k(&[21, 33])
            .unwrap();
        let err = match run_assembly(
            &team,
            &reads,
            &ranges,
            &cfg,
            &RunOptions {
                halt_after: Some("round3/kmer-analysis".into()),
                ..RunOptions::default()
            },
        ) {
            Err(e) => e,
            Ok(_) => panic!("an out-of-range round must not run the pipeline"),
        };
        match err {
            PipelineError::UnknownStage { stage, valid } => {
                assert_eq!(stage, "round3/kmer-analysis");
                assert_eq!(
                    valid,
                    [
                        "round1/kmer-analysis",
                        "round1/contig-generation",
                        "round2/kmer-analysis",
                        "round2/contig-generation"
                    ]
                );
            }
            other => panic!("expected UnknownStage, got {other}"),
        }
    }

    #[test]
    fn single_element_multi_k_matches_classic_byte_for_byte() {
        let dataset = human_like_dataset(15_000, 16.0, false, 32);
        let team = Team::new(Topology::new(4, 2));
        let reads = dataset.all_reads();
        let ranges = dataset.lib_ranges();

        let classic = PipelineConfig::new(21);
        let single = PipelineConfig::new(21).try_multi_k(&[21]).unwrap();
        let a = assemble(&team, &reads, &ranges, &classic);
        let b = assemble(&team, &reads, &ranges, &single);
        assert_eq!(
            a.scaffolds.sequences, b.scaffolds.sequences,
            "--multi-k 21 must be byte-identical to single-k"
        );
        // And it runs the classic stage list — no round prefixes — which
        // is what the plan says for both configs.
        let classic_stages = [
            "kmer-analysis",
            "contig-generation",
            "scaffold-prep",
            "alignment",
            "scaffolding",
        ];
        assert_eq!(stages_run(&a), classic_stages);
        assert_eq!(stages_run(&b), classic_stages);
        assert_eq!(planned_stage_names(&classic), classic_stages);
        assert_eq!(planned_stage_names(&single), classic_stages);
        assert!(b.report.rounds.is_empty(), "classic runs report no rounds");
    }

    #[test]
    fn multi_k_runs_rounds_and_reports_them() {
        let dataset = hipmer_readsim::metagenome_dataset(60_000, 8, 10.0, false, 33);
        let team = Team::new(Topology::new(4, 2));
        let reads = dataset.all_reads();
        let ranges = dataset.lib_ranges();
        let cfg = PipelineConfig::metagenome_preset(33)
            .try_multi_k(&[21, 33])
            .unwrap();

        let assembly = assemble(&team, &reads, &ranges, &cfg);
        let round_stages = [
            "round1/kmer-analysis",
            "round1/contig-generation",
            "round2/kmer-analysis",
            "round2/contig-generation",
        ];
        assert_eq!(stages_run(&assembly), round_stages);
        assert_eq!(planned_stage_names(&cfg), round_stages);
        let rounds = &assembly.report.rounds;
        assert_eq!(rounds.len(), 2);
        assert_eq!((rounds[0].round, rounds[0].k), (1, 21));
        assert_eq!((rounds[1].round, rounds[1].k), (2, 33));
        assert_eq!(rounds[0].pseudo_reads, 0, "round 1 sees only real reads");
        assert!(
            rounds[1].pseudo_reads >= 2 * rounds[0].contigs,
            "round 2 must be fed round 1's contigs as pseudo-reads (twice each)"
        );
        assert!(rounds[0].contigs > 0);
        assert!(assembly.stats.n_contigs > 0);
    }

    #[test]
    fn borrowed_round_input_counts_as_the_owned_copy() {
        let dataset = hipmer_readsim::metagenome_dataset(40_000, 6, 10.0, false, 35);
        let team = Team::new(Topology::new(4, 2));
        let reads = dataset.all_reads();
        let cfg = PipelineConfig::metagenome_preset(33);
        let (ka1, contig1) = cfg.round_stage_configs(21);
        let (spectrum, _) = analyze_kmers(&team, &reads, &ka1);
        let (contigs, _) = generate_contigs(&team, &spectrum, &contig1);
        assert!(contigs.len() > 10, "{}", contigs.len());

        // The copy rounds used to build: the reads, then two clones of
        // each contig's pseudo-read.
        let mut owned = reads.to_vec();
        for c in &contigs.contigs {
            let rec =
                SeqRecord::with_uniform_quality(format!("pseudo1:{}", c.id), c.seq.clone(), 40);
            owned.push(rec.clone());
            owned.push(rec);
        }
        let pseudo = pseudo_reads(1, &contigs);
        let borrowed = round_input(&reads, &pseudo);
        assert!(borrowed.iter().copied().eq(owned.iter()));

        let (ka2, _) = cfg.round_stage_configs(33);
        let (from_borrowed, a) = analyze_kmers(&team, &borrowed, &ka2);
        let (from_owned, b) = analyze_kmers(&team, &owned, &ka2);
        assert!(from_owned.distinct() > 1000);
        assert_eq!(from_borrowed.export_entries(), from_owned.export_entries());
        let counted = |r: &[PhaseReport]| -> Vec<CommStats> {
            r.iter()
                .flat_map(|p| p.stats.iter().map(|s| s.counted()))
                .collect()
        };
        assert_eq!(counted(&a), counted(&b));
    }

    #[test]
    fn multi_k_resumes_byte_identically_at_every_round_boundary() {
        let dataset = hipmer_readsim::metagenome_dataset(60_000, 8, 10.0, false, 34);
        let team = Team::new(Topology::new(4, 2));
        let reads = dataset.all_reads();
        let ranges = dataset.lib_ranges();
        // Scaffolding enabled: the resume sweep crosses both the round
        // boundaries and the rounds→scaffolding seam.
        let cfg = PipelineConfig::new(33).try_multi_k(&[21, 33]).unwrap();

        let plain = assemble(&team, &reads, &ranges, &cfg);
        // With scaffolding the plan is the round pairs plus the one tail,
        // and a full run executes exactly the plan.
        let plan = planned_stage_names(&cfg);
        assert_eq!(
            plan,
            [
                "round1/kmer-analysis",
                "round1/contig-generation",
                "round2/kmer-analysis",
                "round2/contig-generation",
                "scaffold-prep",
                "alignment",
                "scaffolding"
            ]
        );
        assert_eq!(stages_run(&plain), plan);

        for halt_stage in plan {
            let dir = ckpt_dir(&format!("mkres-{}", halt_stage.replace('/', "-")));
            let halted = run_assembly(
                &team,
                &reads,
                &ranges,
                &cfg,
                &RunOptions {
                    checkpoint_dir: Some(dir.clone()),
                    halt_after: Some(halt_stage.clone()),
                    ..RunOptions::default()
                },
            );
            assert!(
                matches!(halted, Err(PipelineError::Halted { ref stage }) if *stage == halt_stage),
                "run must halt after {halt_stage}"
            );
            let resumed = run_assembly(
                &team,
                &reads,
                &ranges,
                &cfg,
                &RunOptions {
                    checkpoint_dir: Some(dir.clone()),
                    resume: true,
                    ..RunOptions::default()
                },
            )
            .unwrap();
            assert_eq!(
                plain.scaffolds.sequences, resumed.scaffolds.sequences,
                "kill-and-resume at {halt_stage} must be byte-identical"
            );
            assert!(
                resumed.report.stage_attempts.iter().any(|a| a.resumed),
                "resume after {halt_stage} must reuse the checkpointed prefix"
            );
            // The rounds report is rebuilt identically on resume.
            assert_eq!(resumed.report.rounds.len(), plain.report.rounds.len());
            for (a, b) in plain.report.rounds.iter().zip(&resumed.report.rounds) {
                assert_eq!(
                    (a.round, a.k, a.contigs, a.pseudo_reads),
                    (b.round, b.k, b.contigs, b.pseudo_reads)
                );
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

#[cfg(test)]
mod indel_tests {
    use super::*;
    use crate::eval::evaluate;
    use hipmer_pgas::Topology;
    use hipmer_readsim::{human_like, simulate_library, ErrorModel, Library};

    #[test]
    fn assembly_tolerates_indel_reads() {
        // Indel errors break read k-mers (filtered by counting) and shift
        // alignment diagonals (recovered by the gapped merAligner path);
        // the assembly must stay accurate.
        let genome = human_like(30_000, 44);
        let reads = simulate_library(
            &genome,
            &Library::short_insert(20.0),
            &ErrorModel::illumina_with_indels(),
            45,
        );
        let team = Team::new(Topology::new(6, 3));
        let assembly = assemble(
            &team,
            &reads,
            std::slice::from_ref(&(0..reads.len())),
            &PipelineConfig::new(21),
        );
        let eval = evaluate(
            &[&genome.haplotypes[0], &genome.haplotypes[1]],
            &assembly.scaffolds.sequences,
            21,
        );
        assert!(eval.precision > 0.97, "precision {}", eval.precision);
        assert!(
            eval.genome_fraction > 0.80,
            "completeness {}",
            eval.genome_fraction
        );
        assert!(assembly.stats.scaffold_n50 > 2_000);
    }
}
