//! `hipmer` — command-line front end for the assembler.
//!
//! ```text
//! hipmer assemble <reads.fastq> -o <scaffolds.fasta> [-k 31] [--ranks 480] ...
//! hipmer simulate <human|wheat|meta> -o <reads.fastq> [--len 100000] [--cov 16]
//! hipmer serve [--addr HOST:PORT] [--state-dir DIR] ...
//! ```
//!
//! Run `hipmer` with no arguments for every flag: the usage text ([`USAGE`])
//! is also the list the parser checks argv against, so an unknown or
//! misspelled flag, a flag given twice, or a flag missing its value is an
//! `error: …` plus the usage and exit status 2 — never a silently ignored
//! argument.
//!
//! `assemble` reads a FASTQ file with the §3.3 parallel block reader, runs
//! the full pipeline on the requested virtual-machine shape, writes the
//! scaffolds as FASTA, and (with `--report`) prints the per-phase modeled
//! times on the Edison-like cost model.
//!
//! Multi-k: `--multi-k 21,33,55` (strictly increasing, comma-separated)
//! runs MetaHipMer-style iterative coassembly rounds: k-mer analysis +
//! contig generation repeat once per k, each round's contigs feed the next
//! round as high-confidence pseudo-reads, and one scaffolding pass at the
//! largest k finishes the assembly. The assembly k is the list's last
//! element (`-k`, if also given, must agree). Checkpoints, `--resume`,
//! and `--halt-after` address round stages as `round2/kmer-analysis` etc.;
//! `--report-json` gains a per-round `rounds` array.
//!
//! Observability: `--report-json <path>` writes the run's one record (the
//! machine-readable pipeline report, priced on the Edison constants): per
//! phase the counter totals, measured wall time, hash-table
//! occupancy, modeled-time breakdown, off-node fraction, imbalance and
//! heavy-hitter keys; per stage the attempts and resident-set readings; per
//! checkpoint the bytes, checksum and seconds. `--trace
//! <path>` (or the `HIPMER_TRACE=<path>` env var) writes the same per-rank
//! records as Chrome trace-event spans (load in `chrome://tracing` or
//! Perfetto); `--trace-ranks N` caps the number of traced ranks (0 = all,
//! default 16).
//!
//! Fault tolerance: `--checkpoint-dir <dir>` persists each completed
//! stage's artifact (every Nth stage with `--checkpoint-interval N`, N ≥ 1);
//! `--resume` validates the directory and skips completed stages;
//! `--halt-after <stage>` stops (successfully) after the named stage —
//! the restart test hook. `--stage-retries N` re-executes an aborted
//! stage up to N times. Fault injection: `--fault-seed S`,
//! `--fault-transient P` (per-message transient fault probability in
//! [0, 1]), `--fault-retries N` (per-message retry budget), and
//! `--fault-kill R:E` (hard-kill rank R at its Eth remote event) arm a
//! deterministic [`hipmer_pgas::FaultPlan`] on the team.

use hipmer::{run_assembly_fastq, PipelineConfig, PipelineError, RunOptions, StageTimes};
use hipmer_pgas::{trace, CostModel, FaultPlan, Team, Topology};
use hipmer_serve::{signal, ServeConfig, Server};
use std::num::{NonZeroU32, NonZeroUsize};
use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A subcommand body: `Err` is a usage error (`error: …`, the usage, exit 2).
type Run = fn(&Flags) -> Result<ExitCode, String>;

/// Every command line `hipmer` accepts. This is the usage text, and it is
/// the flag list [`Flags::parse`] checks argv against: a token starting with
/// `-` is a flag, `[--flag]` is a switch, and a flag followed by anything
/// else takes one value.
const USAGE: [(&str, &str, Run); 3] = [
    (
        "assemble",
        "<reads.fastq> -o <scaffolds.fasta> [-k K] [--ranks N]\n\
         \x20         [--ranks-per-node N] [--rounds N] [--metagenome] [--report]\n\
         \x20         [--multi-k K1,K2,...]\n\
         \x20         [--trace <trace.json>] [--trace-ranks N] [--report-json <report.json>]\n\
         \x20         [--checkpoint-dir <dir>] [--resume] [--checkpoint-interval N]\n\
         \x20         [--stage-retries N] [--halt-after <stage>] [--fault-seed S]\n\
         \x20         [--fault-transient P] [--fault-retries N] [--fault-kill R:E]",
        assemble,
    ),
    (
        "simulate",
        "<human|wheat|meta> -o <reads.fastq> [--len BP] [--cov X] [--seed S]",
        simulate,
    ),
    (
        "serve",
        "[--addr HOST:PORT] [--state-dir DIR] [--pool-ranks N]\n\
         \x20         [--ranks-per-node N] [--pool-threads N] [--queue-capacity N]\n\
         \x20         [--tenant-quota N]",
        serve,
    ),
];

/// One subcommand's argv, parsed once against its [`USAGE`] line.
struct Flags<'a> {
    /// Arguments before the first flag.
    positional: Vec<&'a str>,
    /// `(flag, value)` in argv order; a switch's value is `""`.
    given: Vec<(&'a str, &'a str)>,
}

impl<'a> Flags<'a> {
    fn parse(usage: &str, args: &'a [String]) -> Result<Self, String> {
        // (flag, takes a value)
        let table: Vec<(&str, bool)> = usage
            .split_whitespace()
            .map(|t| t.trim_start_matches('['))
            .filter(|t| t.starts_with('-'))
            .map(|t| (t.trim_end_matches(']'), !t.ends_with(']')))
            .collect();
        let known = |arg: &str| table.iter().find(|(flag, _)| *flag == arg);
        let mut flags = Flags {
            positional: Vec::new(),
            given: Vec::new(),
        };
        let mut args = args.iter().map(String::as_str);
        while let Some(arg) = args.next() {
            if !arg.starts_with('-') {
                if !flags.given.is_empty() {
                    return Err(format!("unexpected argument {arg:?}"));
                }
                flags.positional.push(arg);
                continue;
            }
            let &(_, takes_value) = known(arg).ok_or(format!("unknown flag {arg}"))?;
            if flags.has(arg) {
                return Err(format!("{arg} given more than once"));
            }
            // Another flag where the value should be is a missing value.
            let value = match takes_value {
                true => (args.next().filter(|v| known(v).is_none()))
                    .ok_or(format!("{arg} needs a value"))?,
                false => "",
            };
            flags.given.push((arg, value));
        }
        Ok(flags)
    }

    fn has(&self, flag: &str) -> bool {
        self.given.iter().any(|(f, _)| *f == flag)
    }

    /// The parsed value of `flag`, `None` when it was not given.
    fn get<T: FromStr>(&self, flag: &str) -> Result<Option<T>, String>
    where
        T::Err: std::fmt::Display,
    {
        let value = self.given.iter().find(|(f, _)| *f == flag).map(|(_, v)| v);
        value
            .map(|v| {
                v.parse()
                    .map_err(|e| format!("bad value {v:?} for {flag}: {e}"))
            })
            .transpose()
    }

    fn get_or<T: FromStr>(&self, flag: &str, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        Ok(self.get(flag)?.unwrap_or(default))
    }

    /// A count that must be at least 1: `--ranks 0` is a usage error here,
    /// not a panic in `Topology::new`.
    fn positive(&self, flag: &str, default: usize) -> Result<usize, String> {
        Ok(self.get(flag)?.map_or(default, NonZeroUsize::get))
    }

    /// The single positional argument every subcommand but `serve` takes.
    fn only_positional(&self, what: &str) -> Result<&'a str, String> {
        match self.positional[..] {
            [one] => Ok(one),
            _ => Err(format!("expected exactly one {what}")),
        }
    }

    fn output(&self) -> Result<PathBuf, String> {
        self.get("-o")?.ok_or("-o <output file> is required".into())
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run = || {
        let cmd = args.first().ok_or("missing subcommand")?;
        let (_, usage, run) = (USAGE.iter().find(|(name, ..)| name == cmd))
            .ok_or(format!("unknown subcommand {cmd:?}"))?;
        run(&Flags::parse(usage, &args[1..])?)
    };
    run().unwrap_or_else(|e: String| {
        eprintln!("error: {e}\nusage:");
        for (cmd, usage, _) in USAGE {
            eprintln!("  hipmer {cmd} {usage}");
        }
        ExitCode::from(2)
    })
}

/// A runtime failure, as opposed to a usage error: report it, exit 1.
fn failed(msg: impl std::fmt::Display) -> Result<ExitCode, String> {
    eprintln!("error: {msg}");
    Ok(ExitCode::FAILURE)
}

/// The fault plan requested by the `--fault-*` flags, if any.
fn fault_plan(flags: &Flags, ranks: usize) -> Result<Option<FaultPlan>, String> {
    if !flags.given.iter().any(|(f, _)| f.starts_with("--fault-")) {
        return Ok(None);
    }
    let transient: f64 = flags.get_or("--fault-transient", 0.0)?;
    if !(0.0..=1.0).contains(&transient) {
        return Err("--fault-transient wants a probability in [0, 1]".into());
    }
    let mut plan =
        FaultPlan::new(flags.get_or("--fault-seed", 1)?, ranks).with_transient(transient);
    if let Some(n) = flags.get::<NonZeroU32>("--fault-retries")? {
        plan = plan.with_max_retries(n.get());
    }
    if let Some(spec) = flags.get::<String>("--fault-kill")? {
        let (rank, event) = spec
            .split_once(':')
            .and_then(|(r, e)| Some((r.parse().ok()?, e.parse().ok()?)))
            .ok_or("--fault-kill wants RANK:EVENT")?;
        if rank >= ranks {
            return Err(format!("--fault-kill rank {rank} out of range"));
        }
        plan = plan.with_rank_failure(rank, event);
    }
    Ok(Some(plan))
}

fn assemble(flags: &Flags) -> Result<ExitCode, String> {
    let input = flags.only_positional("<reads.fastq>")?;
    let out = flags.output()?;
    // The assembly k defaults to the `--multi-k` list's largest (last)
    // element, so `-k` can be omitted; an explicit conflicting `-k` is
    // rejected by `try_multi_k`.
    let multi_k: Vec<usize> = match flags.get::<String>("--multi-k")? {
        Some(list) => {
            let ks: Result<_, std::num::ParseIntError> =
                list.split(',').map(|k| k.trim().parse()).collect();
            ks.map_err(|_| "--multi-k wants a comma-separated list of k values, e.g. 21,33,55")?
        }
        None => Vec::new(),
    };
    let k = flags.get_or("-k", multi_k.last().copied().unwrap_or(31))?;
    let ranks = flags.positive("--ranks", 480)?;
    let rpn = flags.positive("--ranks-per-node", 24)?;
    let cfg = PipelineConfig::from_spec(
        k,
        flags.get_or("--rounds", 1)?,
        flags.has("--metagenome"),
        &multi_k,
    )?;
    let cancel = Arc::new(AtomicBool::new(false));
    let opts = RunOptions {
        checkpoint_dir: flags.get("--checkpoint-dir")?,
        resume: flags.has("--resume"),
        checkpoint_interval: flags.positive("--checkpoint-interval", 1)?,
        stage_retries: flags.get_or("--stage-retries", 1)?,
        halt_after: flags.get("--halt-after")?,
        cancel: Some(Arc::clone(&cancel)),
    };

    // `--trace` wins over the HIPMER_TRACE env var; either turns the span
    // recorder on for the whole run.
    let trace_out = (flags.get("--trace")?).or(std::env::var_os("HIPMER_TRACE").map(PathBuf::from));
    let trace_ranks = flags.get_or("--trace-ranks", 16usize)?;
    let recorder = trace_out
        .is_some()
        .then(|| trace::Recorder::new(trace_ranks));
    let report_json: Option<PathBuf> = flags.get("--report-json")?;
    let mut team = Team::new(Topology::new(ranks, rpn));
    if let Some(recorder) = &recorder {
        team = team.with_recorder(recorder.clone());
    }
    if let Some(plan) = fault_plan(flags, ranks)? {
        eprintln!("fault injection armed (seed, transient, kill per --fault-* flags)");
        team = team.with_fault_plan(Arc::new(plan));
    }

    // SIGINT/SIGTERM stop the run at the next stage boundary, so every
    // completed stage's checkpoint is already flushed and a `--resume`
    // rerun restarts from the longest valid prefix. The handler only flips
    // a flag; a watcher thread feeds the pipeline's cancel flag.
    signal::install();
    std::thread::spawn(move || loop {
        if signal::triggered() {
            cancel.store(true, Ordering::SeqCst);
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    });
    match cfg.multi_k_rounds() {
        Some(ks) => eprintln!(
            "assembling {input} on {ranks} virtual ranks ({rpn}/node), multi-k rounds {ks:?}..."
        ),
        None => eprintln!("assembling {input} on {ranks} virtual ranks ({rpn}/node), k={k}..."),
    }
    let assembly = match run_assembly_fastq(&team, std::path::Path::new(input), &cfg, &opts) {
        Ok(a) => a,
        Err(PipelineError::Halted { stage }) => {
            eprintln!("halted after stage {stage:?} (checkpoints saved); no FASTA written");
            return Ok(ExitCode::SUCCESS);
        }
        Err(PipelineError::Interrupted { stage }) => {
            eprintln!(
                "interrupted by signal before stage {stage:?}; completed stages are \
                 checkpointed — rerun with --checkpoint-dir ... --resume to continue"
            );
            // 128 + SIGINT(2) by convention; SIGTERM lands here too but 130
            // keeps shell semantics simple.
            return Ok(ExitCode::from(130));
        }
        Err(e) => return failed(e),
    };

    // Every requested output, written by the one loop below.
    let mut outputs: Vec<(PathBuf, Vec<u8>, String)> = Vec::new();
    if let (Some(path), Some(recorder)) = (trace_out, &recorder) {
        let events = recorder.take_events();
        let sampled = match trace_ranks {
            0 => "all ranks".to_string(),
            n => format!("{n} ranks sampled"),
        };
        let what = format!("{} trace spans ({sampled})", events.len());
        outputs.push((path, trace::chrome_trace_json(&events).into(), what));
    }
    if let Some(path) = report_json {
        let json = assembly.report.to_json();
        outputs.push((path, json.into(), "pipeline report".into()));
    }
    outputs.push((out.clone(), assembly.to_fasta(), "scaffolds".into()));
    for (path, bytes, what) in outputs {
        if let Err(e) = std::fs::write(&path, bytes) {
            return failed(format!("writing {}: {e}", path.display()));
        }
        eprintln!("wrote {what} -> {}", path.display());
    }

    for r in &assembly.report.rounds {
        eprintln!(
            "round {} (k={}): {} contigs, {} pseudo-reads in, {:.1}% off-node",
            r.round,
            r.k,
            r.contigs,
            r.pseudo_reads,
            100.0 * r.offnode_fraction
        );
    }
    let s = &assembly.stats;
    eprintln!(
        "done: {} reads -> {} contigs (N50 {}) -> {} scaffolds (N50 {}), {} bases -> {}",
        s.n_reads,
        s.n_contigs,
        s.contig_n50,
        s.n_scaffolds,
        s.scaffold_n50,
        s.scaffold_bases,
        out.display()
    );
    if flags.has("--report") {
        let t = StageTimes::from_report(&assembly.report, &CostModel::edison());
        eprintln!("modeled on {ranks} Edison-like cores:");
        eprintln!("  io               {:>10.4} s", t.io);
        eprintln!("  k-mer analysis   {:>10.4} s", t.kmer_analysis);
        eprintln!("  contig generation{:>10.4} s", t.contig_generation);
        eprintln!("  scaffolding      {:>10.4} s", t.scaffolding());
        eprintln!("  TOTAL            {:>10.4} s", t.total());
    }
    Ok(ExitCode::SUCCESS)
}

fn serve(flags: &Flags) -> Result<ExitCode, String> {
    if !flags.positional.is_empty() {
        return Err(format!("unexpected argument {:?}", flags.positional[0]));
    }
    let defaults = ServeConfig::default();
    let cfg = ServeConfig {
        addr: flags.get_or("--addr", "127.0.0.1:7433".to_string())?,
        state_dir: flags.get_or("--state-dir", PathBuf::from("hipmer-serve-state"))?,
        queue_capacity: flags.get_or("--queue-capacity", defaults.queue_capacity)?,
        tenant_quota: flags.get_or("--tenant-quota", defaults.tenant_quota)?,
        pool_ranks: flags.positive("--pool-ranks", defaults.pool_ranks)?,
        ranks_per_node: flags.positive("--ranks-per-node", defaults.ranks_per_node)?,
        pool_threads: flags.get("--pool-threads")?.map(NonZeroUsize::get),
        handle_signals: true,
        ..defaults
    };
    let summary = format!(
        "pool: {} ranks ({}/node); queue: {}; quota: {}/tenant; SIGTERM drains gracefully",
        cfg.pool_ranks, cfg.ranks_per_node, cfg.queue_capacity, cfg.tenant_quota
    );
    let server = match Server::start(cfg, hipmer::AssemblyExecutor::shared()) {
        Ok(s) => s,
        Err(e) => return failed(format!("cannot start server: {e}")),
    };
    // Tests parse this line to find the bound port; keep stable.
    println!("hipmer serve listening on {}", server.addr());
    eprintln!("{summary}");
    server.join();
    eprintln!("drained; all running jobs checkpointed");
    Ok(ExitCode::SUCCESS)
}

fn simulate(flags: &Flags) -> Result<ExitCode, String> {
    let kind = flags.only_positional("<human|wheat|meta>")?;
    let out = flags.output()?;
    let len = flags.get_or("--len", 100_000usize)?;
    let cov = flags.get_or("--cov", 16.0f64)?;
    if !(cov.is_finite() && cov > 0.0) {
        return Err("--cov wants a positive, finite coverage".into());
    }
    let seed = flags.get_or("--seed", 42u64)?;
    let dataset = match kind {
        "human" => hipmer_readsim::human_like_dataset(len, cov, true, seed),
        "wheat" => hipmer_readsim::wheat_like_dataset(len, cov, true, seed),
        "meta" => hipmer_readsim::metagenome_dataset(len, 50, cov, true, seed),
        _ => return Err(format!("unknown genome kind {kind:?}")),
    };
    let reads = dataset.all_reads();
    let mut buf = Vec::new();
    if let Err(e) =
        hipmer_seqio::write_fastq(&mut buf, &reads).and_then(|_| std::fs::write(&out, &buf))
    {
        return failed(format!("writing {}: {e}", out.display()));
    }
    eprintln!(
        "simulated {} ({} bp, {} reads) -> {}",
        dataset.name,
        dataset.total_genome_bases(),
        reads.len(),
        out.display()
    );
    Ok(ExitCode::SUCCESS)
}
