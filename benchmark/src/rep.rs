//! One rep: the child process. FASTQ files in, FASTA file out.
//!
//! ```text
//! hipmer-benchmark --rep <preset> --threads <n> --out <fasta> \
//!     [--spans <json>] -- <lib0.fastq> [<lib1.fastq> …]
//! ```
//!
//! Without `--spans` the rep is what a CLI user runs:
//! `seqio::read_fastq_parallel` per library, `hipmer::run_assembly`,
//! `seqio::write_fasta`. With `--spans` the child calls the public stage
//! functions itself, in `run_assembly`'s order (including its multi-k round
//! loop), and records a span around each call; the counts come from the
//! `PhaseReport`s those functions return. Spans stay in memory until the
//! assembly is on disk. The two paths must produce the same bytes — the
//! parent compares their fingerprints.
//!
//! The last thing a rep does is print one JSON line with its own CPU
//! seconds and peak resident set.

use crate::host::process_cpu_seconds;
use crate::workloads::{Preset, RANKS, RANKS_PER_NODE};
use crate::{flag, parsed_flag};
use hipmer::{run_assembly, PipelineConfig, RunOptions};
use hipmer_align::align_reads;
use hipmer_contig::generate_contigs;
use hipmer_kanalysis::analyze_kmers;
use hipmer_pgas::json::Value;
use hipmer_pgas::{PhaseReport, Team, Topology};
use hipmer_scaffold::{prepare_contigs, scaffold_rounds};
use hipmer_seqio::{read_fastq_parallel, write_fasta, SeqRecord};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// Top-level span names, in pipeline order. `<name>_s` is the per-layer
/// metric holding the summed duration of the spans with that name.
pub const STAGE_SPANS: [&str; 7] = [
    "seqio.read_fastq",
    "kanalysis.analyze_kmers",
    "contig.generate_contigs",
    "scaffold.prepare_contigs",
    "align.align_reads",
    "scaffold.scaffold_rounds",
    "seqio.write_fasta",
];

pub fn main(args: &[String]) -> Result<ExitCode, String> {
    let start = Instant::now();
    let preset = Preset::parse(args.first().ok_or("--rep needs a preset")?)?;
    let threads: usize = parsed_flag(args, "--threads")?;
    let out = PathBuf::from(flag(args, "--out").ok_or("missing --out <fasta>")?);
    let spans = flag(args, "--spans").map(PathBuf::from);
    let first_input = args
        .iter()
        .position(|a| a == "--")
        .map_or(args.len(), |i| i + 1);
    let inputs: Vec<PathBuf> = args[first_input..].iter().map(PathBuf::from).collect();
    if inputs.is_empty() {
        return Err("no input FASTQ files after --".into());
    }

    let team = Team::new(Topology::new(RANKS, RANKS_PER_NODE)).with_os_threads(threads);
    let cfg = preset.config();
    match &spans {
        None => plain(&team, &cfg, &inputs, &out)?,
        Some(path) => {
            let mut ledger = Ledger::new(start);
            let mut metrics = traced(&team, &cfg, threads, &inputs, &out, &mut ledger)?;
            ledger.close_root();
            for name in STAGE_SPANS {
                metrics.set(format!("{name}_s"), ledger.total(name));
            }
            let mut doc = Value::obj();
            doc.set("rep", ledger.rep.as_str())
                .set("spans", ledger.to_json())
                .set("metrics", metrics);
            std::fs::write(path, doc.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
        }
    }

    let (cpu_s, peak_rss_mb) = self_usage()?;
    let mut line = Value::obj();
    line.set("cpu_s", cpu_s).set("peak_rss_mb", peak_rss_mb);
    println!("{}", line.to_json());
    Ok(ExitCode::SUCCESS)
}

/// The untraced rep.
fn plain(team: &Team, cfg: &PipelineConfig, inputs: &[PathBuf], out: &Path) -> Result<(), String> {
    let (reads, lib_ranges) = read_libraries(team, inputs)?;
    let assembly = run_assembly(team, &reads, &lib_ranges, cfg, &RunOptions::default())
        .map_err(|e| e.to_string())?;
    write_scaffolds(out, &assembly.scaffolds.sequences)
}

/// Read one FASTQ per library; the scaffolder wants the per-library index
/// ranges of the concatenated reads.
fn read_libraries(
    team: &Team,
    inputs: &[PathBuf],
) -> Result<(Vec<SeqRecord>, Vec<Range<usize>>), String> {
    let mut reads = Vec::new();
    let mut lib_ranges = Vec::new();
    for path in inputs {
        let (per_rank, _) =
            read_fastq_parallel(team, path).map_err(|e| format!("{}: {e}", path.display()))?;
        let start = reads.len();
        reads.extend(per_rank.into_iter().flatten());
        lib_ranges.push(start..reads.len());
    }
    Ok((reads, lib_ranges))
}

/// Render scaffolds exactly like `hipmer assemble -o` does.
fn write_scaffolds(out: &Path, sequences: &[Vec<u8>]) -> Result<(), String> {
    let records: Vec<SeqRecord> = sequences
        .iter()
        .enumerate()
        .map(|(i, s)| SeqRecord::new(format!("scaffold_{i}"), s.clone()))
        .collect();
    let mut buf = Vec::new();
    write_fasta(&mut buf, &records, 80)
        .and_then(|()| std::fs::write(out, &buf))
        .map_err(|e| format!("{}: {e}", out.display()))
}

/// One recorded interval, in seconds since the child started.
struct Span {
    name: &'static str,
    /// Index of the span that caused this one (`None` for the root).
    parent: Option<usize>,
    start_s: f64,
    end_s: f64,
}

/// The in-memory span recorder of a traced rep. Span 0 is the root `rep`
/// span; every stage span is its child.
struct Ledger {
    t0: Instant,
    /// Identifier shared by all spans of this rep.
    rep: String,
    spans: Vec<Span>,
}

impl Ledger {
    fn new(t0: Instant) -> Self {
        Ledger {
            t0,
            rep: format!("rep-{}", std::process::id()),
            spans: vec![Span {
                name: "rep",
                parent: None,
                start_s: 0.0,
                end_s: 0.0,
            }],
        }
    }

    /// Run `f` inside a span named `name` under the root.
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start_s = self.t0.elapsed().as_secs_f64();
        let out = f();
        self.spans.push(Span {
            name,
            parent: Some(0),
            start_s,
            end_s: self.t0.elapsed().as_secs_f64(),
        });
        out
    }

    fn close_root(&mut self) {
        self.spans[0].end_s = self.t0.elapsed().as_secs_f64();
    }

    /// Summed duration of the spans called `name`.
    fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_s - s.start_s)
            .sum()
    }

    fn to_json(&self) -> Vec<Value> {
        self.spans
            .iter()
            .map(|s| {
                let mut v = Value::obj();
                v.set("name", s.name)
                    .set("rep", self.rep.as_str())
                    .set("start_s", s.start_s)
                    .set("end_s", s.end_s);
                match s.parent {
                    Some(p) => v.set("parent", p),
                    None => v.set("parent", Value::Null),
                };
                v
            })
            .collect()
    }
}

/// Counters of one pipeline stage, summed over the `PhaseReport`s its
/// public function returned.
#[derive(Default)]
struct StageCounts {
    busy_nanos: u64,
    phases: u64,
    barriers: u64,
    remote_msgs: u64,
    wire_bytes: u64,
}

impl StageCounts {
    fn add(&mut self, reports: &[PhaseReport]) {
        for r in reports {
            let t = r.totals();
            self.busy_nanos += t.exec_nanos;
            self.phases += 1;
            // Every rank takes part in the same barriers; count them once.
            self.barriers += r.stats[0].barriers;
            self.remote_msgs += t.remote_msgs();
            self.wire_bytes += t.onnode_bytes + t.offnode_bytes;
        }
    }

    /// Emit `<stage>.rank_busy_s`, `.busy_ratio`, `.phases`, `.barriers`,
    /// `.remote_msgs`, `.wire_bytes`. `span_s` is the wall time of the
    /// stage's spans: `busy_ratio` is the useful share of the thread time
    /// the stage had; its shortfall is spawn, barrier and lock wait.
    fn emit(&self, stage: &str, threads: usize, span_s: f64, out: &mut Value) {
        let busy_s = self.busy_nanos as f64 / 1e9;
        out.set(format!("{stage}.rank_busy_s"), busy_s)
            .set(
                format!("{stage}.busy_ratio"),
                ratio(busy_s, threads as f64 * span_s),
            )
            .set(format!("{stage}.phases"), self.phases)
            .set(format!("{stage}.barriers"), self.barriers)
            .set(format!("{stage}.remote_msgs"), self.remote_msgs)
            .set(format!("{stage}.wire_bytes"), self.wire_bytes);
    }
}

/// `num / den`, or 0 when the denominator is (a stage did not run).
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The traced rep: `run_assembly`'s stage sequence, one span per public
/// call. Returns the count-derived per-layer metrics.
fn traced(
    team: &Team,
    cfg: &PipelineConfig,
    threads: usize,
    inputs: &[PathBuf],
    out: &Path,
    ledger: &mut Ledger,
) -> Result<Value, String> {
    let mut fastq_bytes = 0u64;
    for path in inputs {
        fastq_bytes += std::fs::metadata(path)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .len();
    }
    let (reads, lib_ranges) = ledger.span("seqio.read_fastq", || read_libraries(team, inputs))?;

    let (mut kanalysis, mut contig, mut align, mut scaffold) = (
        StageCounts::default(),
        StageCounts::default(),
        StageCounts::default(),
        StageCounts::default(),
    );
    let mut realign_busy_nanos = 0u64;
    let (mut cache_hits, mut cache_misses) = (0u64, 0u64);
    let mut note_aligner = |reports: &[PhaseReport]| {
        for r in reports.iter().filter(|r| r.name.contains("meraligner")) {
            let t = r.totals();
            cache_hits += t.cache_hits;
            cache_misses += t.cache_misses;
        }
    };

    // k-mer analysis + contig generation, once per k of the schedule
    // (a single-k config is a one-round schedule at its own stage configs).
    let ks: Vec<usize> = cfg.multi_k_rounds().map_or(vec![cfg.k], <[usize]>::to_vec);
    let mut round_reads: Vec<SeqRecord> = Vec::new();
    let mut kmers_in = 0u64;
    let mut kmers_walked = 0u64;
    let mut last = None;
    for (ri, &k) in ks.iter().enumerate() {
        let round = ri + 1;
        let is_final = round == ks.len();
        let (ka_cfg, contig_cfg) = if is_final {
            (cfg.kanalysis.clone(), cfg.contig.clone())
        } else {
            cfg.round_stage_configs(k)
        };
        let input: &[SeqRecord] = if ri == 0 { &reads } else { &round_reads };
        kmers_in += input
            .iter()
            .map(|r| (r.len() + 1).saturating_sub(k) as u64)
            .sum::<u64>();
        let (spectrum, reports) = ledger.span("kanalysis.analyze_kmers", || {
            analyze_kmers(team, input, &ka_cfg)
        });
        kanalysis.add(&reports);
        kmers_walked += spectrum.distinct() as u64;
        let (contigs, reports) = ledger.span("contig.generate_contigs", || {
            generate_contigs(team, &spectrum, &contig_cfg)
        });
        contig.add(&reports);
        if !is_final {
            // Next round's input: the reads plus this round's contigs as
            // duplicated Q40 pseudo-reads, exactly as `run_assembly` does.
            round_reads = reads.to_vec();
            for c in &contigs.contigs {
                let rec = SeqRecord::with_uniform_quality(
                    format!("pseudo{round}:{}", c.id),
                    c.seq.clone(),
                    40,
                );
                round_reads.push(rec.clone());
                round_reads.push(rec);
            }
        }
        last = Some((spectrum, contigs));
    }
    let (spectrum, contigs) = last.expect("a schedule has at least one k");

    let sequences = if cfg.scaffolding_enabled() {
        let (prepared, reports) = ledger.span("scaffold.prepare_contigs", || {
            prepare_contigs(team, &spectrum, &contigs, cfg.scaffold.schedule)
        });
        scaffold.add(&reports);
        let (alignments, reports) = ledger.span("align.align_reads", || {
            align_reads(team, &prepared, &reads, &cfg.scaffold.align)
        });
        align.add(&reports);
        note_aligner(&reports);
        let rounds = ledger.span("scaffold.scaffold_rounds", || {
            scaffold_rounds(
                team,
                &spectrum,
                prepared.clone(),
                &reads,
                &lib_ranges,
                &cfg.scaffold,
                Some(alignments.clone()),
            )
        });
        scaffold.add(&rounds.reports);
        note_aligner(&rounds.reports);
        realign_busy_nanos = rounds
            .reports
            .iter()
            .filter(|r| r.name.contains("meraligner"))
            .map(|r| r.totals().exec_nanos)
            .sum();
        rounds.scaffolds.sequences
    } else {
        contigs.contigs.iter().map(|c| c.seq.clone()).collect()
    };
    ledger.span("seqio.write_fasta", || write_scaffolds(out, &sequences))?;

    let mut m = Value::obj();
    let ka_s = ledger.total("kanalysis.analyze_kmers");
    let contig_s = ledger.total("contig.generate_contigs");
    let align_s = ledger.total("align.align_reads");
    let scaffold_s =
        ledger.total("scaffold.prepare_contigs") + ledger.total("scaffold.scaffold_rounds");
    kanalysis.emit("kanalysis", threads, ka_s, &mut m);
    contig.emit("contig", threads, contig_s, &mut m);
    align.emit("align", threads, align_s, &mut m);
    scaffold.emit("scaffold", threads, scaffold_s, &mut m);
    m.set(
        "seqio.read_fastq_mb_per_s",
        ratio(fastq_bytes as f64 / 1e6, ledger.total("seqio.read_fastq")),
    )
    .set("kanalysis.kmers_per_s", ratio(kmers_in as f64, ka_s))
    .set("contig.kmers_per_s", ratio(kmers_walked as f64, contig_s))
    .set("align.reads_per_s", ratio(reads.len() as f64, align_s))
    .set(
        "align.cache_hit_ratio",
        ratio(cache_hits as f64, (cache_hits + cache_misses) as f64),
    )
    .set("scaffold.realign_busy_s", realign_busy_nanos as f64 / 1e9)
    .set("kanalysis.distinct_kmers", spectrum.distinct())
    .set("contig.contigs", contigs.len());
    Ok(m)
}

/// This process's CPU seconds (user + system, all threads, live and
/// joined) and peak resident set in MB.
fn self_usage() -> Result<(f64, f64), String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let hwm_kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok((process_cpu_seconds(), hwm_kb / 1024.0))
}
