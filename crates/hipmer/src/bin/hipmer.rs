//! `hipmer` — command-line front end for the assembler.
//!
//! ```text
//! hipmer assemble reads.fastq -o scaffolds.fasta [-k 31] [--ranks 480] \
//!        [--ranks-per-node 24] [--rounds 1] [--metagenome] [--report] \
//!        [--multi-k 21,33,55] \
//!        [--schedule static|dynamic] [--partition uniform|minimizer] \
//!        [--trace trace.json] [--trace-ranks N] [--report-json report.json]
//! hipmer simulate human|wheat|meta -o reads.fastq [--len 100000] [--cov 16]
//! ```
//!
//! `assemble` reads a FASTQ file with the §3.3 parallel block reader, runs
//! the full pipeline on the requested virtual-machine shape, writes the
//! scaffolds as FASTA, and (with `--report`) prints the per-phase modeled
//! times on the Edison-like cost model.
//!
//! Scheduling: `--schedule dynamic` deals the skew-prone stages' work
//! (cooperative traversal, alignment, depths, bubbles, gap closing) as
//! guided chunks from a shared pool instead of fixed blocks. The assembled
//! output is byte-identical to `--schedule static` (the default); only the
//! modeled per-rank load balance — visible as `imbalance` and `steal_ops`
//! in `--report-json` — changes.
//!
//! Partitioning: `--partition minimizer` buckets every k-mer table's keys
//! by window minimizer so adjacent k-mers share an owner rank (k-mer
//! analysis, the de Bruijn graph, and the aligner seed index). The
//! assembled output is byte-identical to `--partition uniform` (the
//! default); only the off-node traffic —
//! visible as `offnode_fraction`, the per-phase `placement` labels, and
//! the `offnode_by_placement` split in `--report-json` (schema v6) —
//! changes.
//!
//! Multi-k: `--multi-k 21,33,55` (strictly increasing, comma-separated)
//! runs MetaHipMer-style iterative coassembly rounds: k-mer analysis +
//! contig generation repeat once per k, each round's contigs feed the next
//! round as high-confidence pseudo-reads, and one scaffolding pass at the
//! largest k finishes the assembly. The assembly k is the list's last
//! element (`-k`, if also given, must agree). Checkpoints, `--resume`,
//! and `--halt-after` address round stages as `round2/kmer-analysis` etc.;
//! `--report-json` gains a per-round `rounds` array (schema v7).
//!
//! Observability: `--trace <path>` (or the `HIPMER_TRACE=<path>` env var)
//! records per-rank execution spans for every phase and writes them as
//! Chrome trace-event JSON (load in `chrome://tracing` or Perfetto);
//! `--trace-ranks N` caps the number of traced ranks (0 = all, default 16).
//! `--report-json <path>` writes the full machine-readable pipeline report:
//! per-phase counter totals, modeled-time breakdown, off-node fraction,
//! imbalance, heavy-hitter keys, and (schema v3) the per-stage attempt and
//! checkpoint bookkeeping.
//!
//! Metrics: `--metrics-json <path>` enables the [`hipmer_pgas::metrics`]
//! registry for the run and writes its final snapshot (counters, gauges,
//! power-of-two-bucket histograms) as JSON; `--metrics-text` prints the
//! same snapshot in Prometheus text exposition format on stdout.
//! `--heartbeat <secs>` emits rate-limited per-pool progress lines to
//! stderr (or, with `--heartbeat-jsonl <path>`, appends JSONL records).
//!
//! Calibration: `--calibrate <fitted.json>` fits the six measurable
//! `CostModel` constants by least-squares regression of measured per-rank
//! execution times against the run's own op counters (see
//! [`hipmer_pgas::calib`]) and writes them as JSON loadable with
//! `CostModel::from_json`; `--report-json` then prices the report with the
//! fitted model (`cost_model: "calibrated"`) instead of the Edison
//! constants.
//!
//! Fault tolerance: `--checkpoint-dir <dir>` persists each completed
//! stage's artifact (every Nth stage with `--checkpoint-interval N`);
//! `--resume` validates the directory and skips completed stages;
//! `--halt-after <stage>` stops (successfully) after the named stage —
//! the restart test hook. `--stage-retries N` re-executes an aborted
//! stage up to N times. Fault injection: `--fault-seed S`,
//! `--fault-transient P` (per-message transient fault probability),
//! `--fault-retries N` (per-message retry budget), and
//! `--fault-kill R:E` (hard-kill rank R at its Eth remote event) arm a
//! deterministic [`hipmer_pgas::FaultPlan`] on the team.

use hipmer::{run_assembly_fastq, PipelineConfig, PipelineError, RunOptions, StageTimes};
use hipmer_pgas::{calib, metrics, trace, CostModel, FaultPlan, Team, Topology};
use hipmer_serve::{signal, ServeConfig, Server};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  hipmer assemble <reads.fastq> -o <scaffolds.fasta> [-k K] [--ranks N]\n\
         \x20         [--ranks-per-node N] [--rounds N] [--metagenome] [--report]\n\
         \x20         [--multi-k K1,K2,...]\n\
         \x20         [--schedule static|dynamic] [--partition uniform|minimizer]\n\
         \x20         [--trace <trace.json>] [--trace-ranks N] [--report-json <report.json>]\n\
         \x20         [--metrics-json <metrics.json>] [--metrics-text]\n\
         \x20         [--calibrate <fitted.json>] [--heartbeat SECS] [--heartbeat-jsonl <path>]\n\
         \x20         [--checkpoint-dir <dir>] [--resume] [--checkpoint-interval N]\n\
         \x20         [--stage-retries N] [--halt-after <stage>] [--fault-seed S]\n\
         \x20         [--fault-transient P] [--fault-retries N] [--fault-kill R:E]\n  \
         hipmer simulate <human|wheat|meta> -o <reads.fastq> [--len BP] [--cov X] [--seed S]\n  \
         hipmer serve [--addr HOST:PORT] [--state-dir DIR] [--pool-ranks N]\n\
         \x20         [--ranks-per-node N] [--pool-threads N] [--queue-capacity N]\n\
         \x20         [--tenant-quota N]"
    );
    ExitCode::from(2)
}

fn parse_flag<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> Result<T, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(default),
        Some(i) => args
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?
            .parse()
            .map_err(|_| format!("bad value for {flag}")),
    }
}

fn parse_path_flag(args: &[String], flag: &str) -> Result<Option<PathBuf>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .map(|v| Some(PathBuf::from(v)))
            .ok_or_else(|| format!("{flag} needs a value")),
    }
}

fn parse_string_flag(args: &[String], flag: &str) -> Result<Option<String>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .map(|v| Some(v.clone()))
            .ok_or_else(|| format!("{flag} needs a value")),
    }
}

/// Build the fault plan requested by the `--fault-*` flags, if any.
fn fault_plan_from_args(args: &[String], ranks: usize) -> Result<Option<FaultPlan>, String> {
    let armed = args.iter().any(|a| a.starts_with("--fault-"));
    if !armed {
        return Ok(None);
    }
    let seed: u64 = parse_flag(args, "--fault-seed", 1)?;
    let transient: f64 = parse_flag(args, "--fault-transient", 0.0)?;
    let mut plan = FaultPlan::new(seed, ranks).with_transient(transient);
    if let Some(n) = parse_string_flag(args, "--fault-retries")? {
        let n: u32 = n
            .parse()
            .map_err(|_| "bad value for --fault-retries".to_string())?;
        plan = plan.with_max_retries(n);
    }
    if let Some(spec) = parse_string_flag(args, "--fault-kill")? {
        let (rank, event) = spec
            .split_once(':')
            .and_then(|(r, e)| Some((r.parse().ok()?, e.parse().ok()?)))
            .ok_or_else(|| "--fault-kill wants RANK:EVENT".to_string())?;
        if rank >= ranks {
            return Err(format!("--fault-kill rank {rank} out of range"));
        }
        plan = plan.with_rank_failure(rank, event);
    }
    Ok(Some(plan))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    let out: Option<PathBuf> = args
        .iter()
        .position(|a| a == "-o")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from);

    match cmd.as_str() {
        "assemble" => {
            let Some(input) = args.get(1).filter(|a| !a.starts_with('-')) else {
                return usage();
            };
            let Some(out) = out else {
                eprintln!("error: -o <scaffolds.fasta> is required");
                return usage();
            };
            // `--multi-k` first: the assembly k defaults to the list's
            // largest (last) element, so `-k` can be omitted; an explicit
            // conflicting `-k` is rejected by `try_multi_k` below.
            let multi_k: Option<Vec<usize>> = match parse_string_flag(&args, "--multi-k") {
                Ok(Some(spec)) => {
                    let ks: Result<Vec<usize>, _> =
                        spec.split(',').map(|s| s.trim().parse()).collect();
                    match ks {
                        Ok(ks) if !ks.is_empty() => Some(ks),
                        _ => {
                            eprintln!(
                                "error: --multi-k wants a comma-separated list of k values, \
                                 e.g. --multi-k 21,33,55"
                            );
                            return usage();
                        }
                    }
                }
                Ok(None) => None,
                Err(e) => {
                    eprintln!("error: {e}");
                    return usage();
                }
            };
            let k_default = multi_k
                .as_ref()
                .and_then(|ks| ks.last().copied())
                .unwrap_or(31);
            let (k, ranks, rpn, rounds) = match (
                parse_flag(&args, "-k", k_default),
                parse_flag(&args, "--ranks", 480usize),
                parse_flag(&args, "--ranks-per-node", 24usize),
                parse_flag(&args, "--rounds", 1usize),
            ) {
                (Ok(a), Ok(b), Ok(c), Ok(d)) => (a, b, c, d),
                _ => return usage(),
            };
            // `try_new` so a bad -k (even, 0, > 64) is a clean diagnostic
            // and a nonzero exit, not a panic.
            let mut cfg = match PipelineConfig::try_new(k) {
                Ok(cfg) => cfg,
                Err(e) => {
                    eprintln!("error: -k {k}: {e}");
                    return ExitCode::from(2);
                }
            };
            match parse_flag(&args, "--schedule", hipmer_pgas::Schedule::Static) {
                Ok(schedule) => cfg = cfg.with_schedule(schedule),
                Err(e) => {
                    eprintln!("error: {e} (want static|dynamic)");
                    return usage();
                }
            }
            match parse_flag(&args, "--partition", hipmer_pgas::PartitionScheme::Uniform) {
                Ok(partition) => cfg = cfg.with_partition(partition),
                Err(e) => {
                    eprintln!("error: {e} (want uniform|minimizer)");
                    return usage();
                }
            }
            if args.iter().any(|a| a == "--metagenome") {
                cfg.scaffold.rounds = 0; // skip scaffolding (§5.4)
            }
            if cfg.scaffolding_enabled() {
                cfg.scaffold.rounds = rounds;
            }
            if let Some(ks) = &multi_k {
                cfg = match cfg.try_multi_k(ks) {
                    Ok(cfg) => cfg,
                    Err(e) => {
                        eprintln!("error: --multi-k: {e}");
                        return ExitCode::from(2);
                    }
                };
            }
            // `--trace` wins over the HIPMER_TRACE env var; either turns
            // the span recorder on for the whole run.
            let (trace_out, report_json) = match (
                parse_path_flag(&args, "--trace"),
                parse_path_flag(&args, "--report-json"),
            ) {
                (Ok(t), Ok(r)) => (t, r),
                (Err(e), _) | (_, Err(e)) => {
                    eprintln!("error: {e}");
                    return usage();
                }
            };
            let trace_out =
                trace_out.or_else(|| std::env::var_os("HIPMER_TRACE").map(PathBuf::from));
            let trace_ranks = match parse_flag(&args, "--trace-ranks", 16usize) {
                Ok(n) => n,
                _ => return usage(),
            };
            let recorder = trace_out
                .as_ref()
                .map(|path| (trace::Recorder::new(trace_ranks), path));
            let (metrics_json, calibrate_out, heartbeat_jsonl) = match (
                parse_path_flag(&args, "--metrics-json"),
                parse_path_flag(&args, "--calibrate"),
                parse_path_flag(&args, "--heartbeat-jsonl"),
            ) {
                (Ok(m), Ok(c), Ok(h)) => (m, c, h),
                (Err(e), ..) | (_, Err(e), _) | (_, _, Err(e)) => {
                    eprintln!("error: {e}");
                    return usage();
                }
            };
            let metrics_text = args.iter().any(|a| a == "--metrics-text");
            let heartbeat_secs = match parse_string_flag(&args, "--heartbeat") {
                Ok(Some(v)) => match v.parse::<f64>() {
                    Ok(secs) if secs > 0.0 => Some(secs),
                    _ => {
                        eprintln!("error: --heartbeat wants a positive seconds value");
                        return usage();
                    }
                },
                Ok(None) => None,
                Err(e) => {
                    eprintln!("error: {e}");
                    return usage();
                }
            };
            if metrics_json.is_some()
                || metrics_text
                || calibrate_out.is_some()
                || heartbeat_secs.is_some()
                || heartbeat_jsonl.is_some()
            {
                metrics::enable();
            }
            if let Some(secs) = heartbeat_secs.or(if heartbeat_jsonl.is_some() {
                Some(1.0)
            } else {
                None
            }) {
                metrics::set_heartbeat_interval(Some(std::time::Duration::from_secs_f64(secs)));
                metrics::set_heartbeat_sink(heartbeat_jsonl.clone());
            }
            if trace_out.is_some() || report_json.is_some() {
                // Hash tables built from here on track their hottest keys.
                trace::set_hotkey_capacity(64);
            }
            let opts = {
                let (dir, interval, retries, halt) = match (
                    parse_path_flag(&args, "--checkpoint-dir"),
                    parse_flag(&args, "--checkpoint-interval", 1usize),
                    parse_flag(&args, "--stage-retries", 1usize),
                    parse_string_flag(&args, "--halt-after"),
                ) {
                    (Ok(a), Ok(b), Ok(c), Ok(d)) => (a, b, c, d),
                    (Err(e), ..) | (_, Err(e), ..) | (_, _, Err(e), _) | (_, _, _, Err(e)) => {
                        eprintln!("error: {e}");
                        return usage();
                    }
                };
                RunOptions {
                    checkpoint_dir: dir,
                    resume: args.iter().any(|a| a == "--resume"),
                    checkpoint_interval: interval,
                    stage_retries: retries,
                    halt_after: halt,
                    cancel: None,
                }
            };
            // SIGINT/SIGTERM stop the run at the next stage boundary, so
            // every completed stage's checkpoint is already flushed and a
            // `--resume` rerun restarts from the longest valid prefix.
            // The handler only flips a flag; a watcher thread feeds the
            // pipeline's cancel flag.
            let cancel = Arc::new(AtomicBool::new(false));
            let opts = {
                let mut opts = opts;
                opts.cancel = Some(Arc::clone(&cancel));
                opts
            };
            signal::install();
            {
                let cancel = Arc::clone(&cancel);
                std::thread::spawn(move || loop {
                    if signal::triggered() {
                        cancel.store(true, Ordering::SeqCst);
                        return;
                    }
                    std::thread::sleep(std::time::Duration::from_millis(50));
                });
            }
            let mut team = Team::new(Topology::new(ranks, rpn));
            if let Some((recorder, _)) = &recorder {
                team = team.with_recorder(recorder.clone());
            }
            match fault_plan_from_args(&args, ranks) {
                Ok(Some(plan)) => {
                    eprintln!("fault injection armed (seed, transient, kill per --fault-* flags)");
                    team = team.with_fault_plan(Arc::new(plan));
                }
                Ok(None) => {}
                Err(e) => {
                    eprintln!("error: {e}");
                    return usage();
                }
            }
            match cfg.multi_k_rounds() {
                Some(ks) => eprintln!(
                    "assembling {input} on {ranks} virtual ranks ({rpn}/node), \
                     multi-k rounds {ks:?}..."
                ),
                None => {
                    eprintln!("assembling {input} on {ranks} virtual ranks ({rpn}/node), k={k}...")
                }
            }
            let assembly = match run_assembly_fastq(&team, std::path::Path::new(input), &cfg, &opts)
            {
                Ok(a) => a,
                Err(PipelineError::Halted { stage }) => {
                    eprintln!("halted after stage {stage:?} (checkpoints saved); no FASTA written");
                    return ExitCode::SUCCESS;
                }
                Err(PipelineError::Interrupted { stage }) => {
                    eprintln!(
                        "interrupted by signal before stage {stage:?}; completed stages are \
                         checkpointed — rerun with --checkpoint-dir ... --resume to continue"
                    );
                    // 128 + SIGINT(2) by convention; SIGTERM lands here too
                    // but 130 keeps shell semantics simple.
                    return ExitCode::from(130);
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if let Some((recorder, path)) = &recorder {
                let events = recorder.take_events();
                if let Err(e) = std::fs::write(path, trace::chrome_trace_json(&events)) {
                    eprintln!("error writing {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
                let sampled = if trace_ranks == 0 {
                    "all ranks".to_string()
                } else {
                    format!("{trace_ranks} ranks sampled")
                };
                eprintln!(
                    "wrote {} trace spans ({sampled}) -> {}",
                    events.len(),
                    path.display()
                );
            }
            if let Some(path) = &metrics_json {
                if let Err(e) = std::fs::write(path, metrics::to_json()) {
                    eprintln!("error writing {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
                eprintln!("wrote metrics snapshot -> {}", path.display());
            }
            if metrics_text {
                print!("{}", metrics::prometheus_text());
            }
            // `--calibrate` fits the cost constants to this run's own
            // measurements; the report (if requested) is then priced with
            // the fitted model so `model_error` reflects the fit.
            let mut report_model = CostModel::edison();
            let mut report_label = "edison";
            if let Some(path) = &calibrate_out {
                match calib::fit(&assembly.report, &CostModel::edison()) {
                    Ok(cal) => {
                        eprintln!("{}", cal.summary());
                        if let Err(e) = std::fs::write(path, cal.model.to_json()) {
                            eprintln!("error writing {}: {e}", path.display());
                            return ExitCode::FAILURE;
                        }
                        eprintln!("wrote fitted cost constants -> {}", path.display());
                        report_model = cal.model;
                        report_label = "calibrated";
                    }
                    Err(e) => {
                        eprintln!("calibration failed: {e}; keeping Edison constants");
                    }
                }
            }
            if let Some(path) = &report_json {
                let json = assembly.report.to_json_labeled(&report_model, report_label);
                if let Err(e) = std::fs::write(path, json) {
                    eprintln!("error writing {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
                eprintln!("wrote pipeline report -> {}", path.display());
            }
            let records: Vec<hipmer_seqio::SeqRecord> = assembly
                .scaffolds
                .sequences
                .iter()
                .enumerate()
                .map(|(i, s)| hipmer_seqio::SeqRecord::new(format!("scaffold_{i}"), s.clone()))
                .collect();
            let mut buf = Vec::new();
            if let Err(e) = hipmer_seqio::write_fasta(&mut buf, &records, 80)
                .and_then(|_| std::fs::write(&out, &buf))
            {
                eprintln!("error writing {}: {e}", out.display());
                return ExitCode::FAILURE;
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
            if args.iter().any(|a| a == "--report") {
                let t = StageTimes::from_report(&assembly.report, &CostModel::edison());
                eprintln!("modeled on {ranks} Edison-like cores:");
                eprintln!("  io               {:>10.4} s", t.io);
                eprintln!("  k-mer analysis   {:>10.4} s", t.kmer_analysis);
                eprintln!("  contig generation{:>10.4} s", t.contig_generation);
                eprintln!("  scaffolding      {:>10.4} s", t.scaffolding());
                eprintln!("  TOTAL            {:>10.4} s", t.total());
            }
            ExitCode::SUCCESS
        }
        "serve" => {
            let (queue_capacity, tenant_quota, pool_ranks, rpn) = match (
                parse_flag(&args, "--queue-capacity", 64usize),
                parse_flag(&args, "--tenant-quota", 16usize),
                parse_flag(&args, "--pool-ranks", 16usize),
                parse_flag(&args, "--ranks-per-node", 8usize),
            ) {
                (Ok(a), Ok(b), Ok(c), Ok(d)) => (a, b, c, d),
                _ => return usage(),
            };
            let (addr, state_dir, pool_threads) = match (
                parse_string_flag(&args, "--addr"),
                parse_path_flag(&args, "--state-dir"),
                parse_string_flag(&args, "--pool-threads"),
            ) {
                (Ok(a), Ok(s), Ok(p)) => (a, s, p),
                (Err(e), ..) | (_, Err(e), _) | (_, _, Err(e)) => {
                    eprintln!("error: {e}");
                    return usage();
                }
            };
            let pool_threads = match pool_threads.map(|p| p.parse::<usize>()).transpose() {
                Ok(p) => p,
                Err(_) => {
                    eprintln!("error: bad value for --pool-threads");
                    return usage();
                }
            };
            // The daemon's metrics registry is always on: /metrics is an
            // endpoint, not an opt-in flag.
            metrics::enable();
            let cfg = ServeConfig {
                addr: addr.unwrap_or_else(|| "127.0.0.1:7433".to_string()),
                state_dir: state_dir.unwrap_or_else(|| PathBuf::from("hipmer-serve-state")),
                queue_capacity,
                tenant_quota,
                pool_ranks,
                ranks_per_node: rpn,
                pool_threads,
                handle_signals: true,
                ..ServeConfig::default()
            };
            let server = match Server::start(cfg, hipmer::AssemblyExecutor::shared()) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("error: cannot start server: {e}");
                    return ExitCode::FAILURE;
                }
            };
            // Tests parse this line to find the bound port; keep stable.
            println!("hipmer serve listening on {}", server.addr());
            eprintln!(
                "pool: {pool_ranks} ranks ({rpn}/node); queue: {queue_capacity}; \
                 quota: {tenant_quota}/tenant; SIGTERM drains gracefully"
            );
            server.join();
            eprintln!("drained; all running jobs checkpointed");
            ExitCode::SUCCESS
        }
        "simulate" => {
            let Some(kind) = args.get(1) else {
                return usage();
            };
            let Some(out) = out else {
                eprintln!("error: -o <reads.fastq> is required");
                return usage();
            };
            let (len, cov, seed) = match (
                parse_flag(&args, "--len", 100_000usize),
                parse_flag(&args, "--cov", 16.0f64),
                parse_flag(&args, "--seed", 42u64),
            ) {
                (Ok(a), Ok(b), Ok(c)) => (a, b, c),
                _ => return usage(),
            };
            let dataset = match kind.as_str() {
                "human" => hipmer_readsim::human_like_dataset(len, cov, true, seed),
                "wheat" => hipmer_readsim::wheat_like_dataset(len, cov, true, seed),
                "meta" => hipmer_readsim::metagenome_dataset(len, 50, cov, true, seed),
                _ => return usage(),
            };
            let mut buf = Vec::new();
            if let Err(e) = hipmer_seqio::write_fastq(&mut buf, &dataset.all_reads())
                .and_then(|_| std::fs::write(&out, &buf))
            {
                eprintln!("error writing {}: {e}", out.display());
                return ExitCode::FAILURE;
            }
            eprintln!(
                "simulated {} ({} bp, {} reads) -> {}",
                dataset.name,
                dataset.total_genome_bases(),
                dataset.all_reads().len(),
                out.display()
            );
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}
