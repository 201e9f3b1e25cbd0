//! The parent: set up inputs, deal out reps, check outputs, report.
//!
//! Output: one `name value unit` line per metric, then — as the last line
//! of stdout — one JSON object `{"correct", "attempted", "failed",
//! "metrics"}`. `attempted` counts reps, `failed` the reps that exited
//! non-zero, wrote a FASTA whose FNV-64 differs from the run's first rep,
//! or fell under the workload's quality floor. The process exits non-zero
//! when any rep failed.

use crate::host::HostProbe;
use crate::rep::STAGE_SPANS;
use crate::stats::{median, quartiles};
use crate::workloads::{workload, Preset, Workload, EVAL_K};
use crate::{layers, parsed_flag, serve_row};
use hipmer::checkpoint::fnv1a;
use hipmer::{evaluate, EvalReport};
use hipmer_pgas::json::Value;
use hipmer_readsim::Dataset;
use hipmer_seqio::{parse_fasta, write_fastq};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// How often the inputs are generated and written per run; `setup_s` is
/// the median.
const SETUPS: usize = 7;

/// Rounds of a `--trace 1` run. One rep of a kind is not enough to tell
/// tracing overhead or a thread speed-up from this host's rep-to-rep noise;
/// two keep the run near the length of a `--trace 0` run.
const TRACE_ROUNDS: usize = 2;

/// End-to-end metrics (`--trace 0`) with their units, as listed in
/// `BENCHMARK.json`. A run reports exactly these.
pub const END_TO_END: [(&str, &str); 6] = [
    ("wall_s", "s"),
    ("reads_per_s", "1/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("genome_fraction", "ratio"),
    ("setup_s", "s"),
];

/// Per-layer metrics (`--trace 1`) with their units, as listed in
/// `BENCHMARK.json`. A run reports exactly these.
pub const PER_LAYER: [(&str, &str); 62] = [
    // Spans of the traced rep; with glue and spawn_teardown they sum to
    // its wall.
    ("seqio.read_fastq_s", "s"),
    ("kanalysis.analyze_kmers_s", "s"),
    ("contig.generate_contigs_s", "s"),
    ("scaffold.prepare_contigs_s", "s"),
    ("align.align_reads_s", "s"),
    ("scaffold.scaffold_rounds_s", "s"),
    ("seqio.write_fasta_s", "s"),
    ("hipmer.glue_s", "s"),
    ("hipmer.spawn_teardown_s", "s"),
    ("hipmer.traced_wall_s", "s"),
    // Rates over those spans.
    ("seqio.read_fastq_mb_per_s", "MB/s"),
    ("kanalysis.kmers_per_s", "1/s"),
    ("contig.kmers_per_s", "1/s"),
    ("align.reads_per_s", "1/s"),
    // Counts from the stage functions' PhaseReports.
    ("kanalysis.rank_busy_s", "s"),
    ("kanalysis.busy_ratio", "ratio"),
    ("kanalysis.phases", "count"),
    ("kanalysis.barriers", "count"),
    ("kanalysis.remote_msgs", "count"),
    ("kanalysis.wire_bytes", "B"),
    ("contig.rank_busy_s", "s"),
    ("contig.busy_ratio", "ratio"),
    ("contig.phases", "count"),
    ("contig.barriers", "count"),
    ("contig.remote_msgs", "count"),
    ("contig.wire_bytes", "B"),
    ("align.rank_busy_s", "s"),
    ("align.busy_ratio", "ratio"),
    ("align.phases", "count"),
    ("align.barriers", "count"),
    ("align.remote_msgs", "count"),
    ("align.wire_bytes", "B"),
    ("scaffold.rank_busy_s", "s"),
    ("scaffold.busy_ratio", "ratio"),
    ("scaffold.phases", "count"),
    ("scaffold.barriers", "count"),
    ("scaffold.remote_msgs", "count"),
    ("scaffold.wire_bytes", "B"),
    ("align.cache_hit_ratio", "ratio"),
    ("scaffold.realign_busy_s", "s"),
    ("kanalysis.distinct_kmers", "count"),
    ("contig.contigs", "count"),
    // Derived from the trace run's three reps.
    ("trace_overhead_frac", "ratio"),
    ("pgas.team.speedup_2t", "ratio"),
    ("pgas.team.cpu_inflation_2t", "ratio"),
    // hipmer::evaluate of the untraced rep.
    ("quality.genome_fraction", "ratio"),
    ("quality.misassemblies", "count"),
    ("quality.ng50", "bp"),
    // Layer microbenches.
    ("pgas.team.empty_phase_us_t1", "us"),
    ("pgas.team.empty_phase_us_t2", "us"),
    ("pgas.dht.merge_mops_t1", "Mop/s"),
    ("pgas.dht.merge_mops_t2", "Mop/s"),
    ("pgas.dht.multi_get_mops_t1", "Mop/s"),
    ("pgas.dht.multi_get_mops_t2", "Mop/s"),
    ("pgas.agg.push_mitems_t2", "Mitem/s"),
    ("dna.canonical_kmers_mkmers_per_s", "Mkmer/s"),
    ("align.sw_mcells_per_s", "Mcell/s"),
    ("seqio.parse_fastq_mb_per_s", "MB/s"),
    ("hipmer.checkpoint.encode_mb_per_s", "MB/s"),
    ("hipmer.checkpoint.decode_mb_per_s", "MB/s"),
    // The job-server row.
    ("serve.cold_job_ms", "ms"),
    ("serve.hit_p50_ms", "ms"),
];

pub fn main(args: &[String]) -> Result<ExitCode, String> {
    let w = workload(&parsed_flag::<String>(args, "--workload")?)?;
    let seed: u64 = parsed_flag(args, "--seed")?;
    let seconds: u64 = parsed_flag(args, "--seconds")?;
    let trace = match parsed_flag::<u8>(args, "--trace")? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace: want 0 or 1, got {other}")),
    };

    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    // Inside the build directory, hence inside the checkout and ignored by
    // git; removed when `work` drops, on every exit path below.
    let work = WorkDir::create(
        exe.parent()
            .ok_or("executable has no parent directory")?
            .join(format!("work-{}", std::process::id())),
    )?;
    eprintln!(
        "workload {} seed {seed} seconds {seconds} trace {} host_parallelism {}",
        w.name,
        u8::from(trace),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );

    let mut probe = HostProbe::new();
    let (inputs, setup_s) = set_up(w.preset, seed, &work.path, &mut probe)?;
    let bench = Bench {
        exe,
        w,
        inputs,
        work: work.path.clone(),
    };
    let outcome = if trace {
        bench.traced_run(seed, seconds)?
    } else {
        bench.timed_run(seconds, setup_s, &mut probe)?
    };

    // Exactly the metrics BENCHMARK.json lists for this mode, in its order.
    let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Value::obj();
    for &(name, unit) in table {
        let value = outcome
            .metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        println!("{name:<40} {value:>18.6} {unit}");
        let mut m = Value::obj();
        m.set("value", value).set("unit", unit);
        metrics.set(name, m);
    }
    let correct = outcome.failed == 0;
    let mut line = Value::obj();
    line.set("correct", correct)
        .set("attempted", outcome.attempted)
        .set("failed", outcome.failed)
        .set("metrics", metrics);
    println!("{}", line.to_json());
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// A directory removed, with everything in it, on drop.
struct WorkDir {
    path: PathBuf,
}

impl WorkDir {
    fn create(path: PathBuf) -> Result<Self, String> {
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(WorkDir { path })
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        // Nothing useful to do with a failure here; .gitignore covers what
        // a failed removal leaves behind.
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// What the assembly is checked against, and what the child reads.
struct Inputs {
    /// One FASTQ per library, in library order.
    fastq: Vec<PathBuf>,
    /// The reference (first) haplotype of every source genome.
    references: Vec<Vec<u8>>,
    n_reads: usize,
}

/// Generate the dataset and write its FASTQ files [`SETUPS`] times over;
/// returns the inputs and the median seconds of one set-up, divided by the
/// host's slowdown during the loop.
fn set_up(
    preset: Preset,
    seed: u64,
    dir: &Path,
    probe: &mut HostProbe,
) -> Result<(Inputs, f64), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    let (result, slowdown) = probe.during(|| {
        for _ in 0..SETUPS {
            let start = Instant::now();
            let dataset = preset.dataset(seed);
            let fastq = write_libraries(&dataset, dir)?;
            times.push(start.elapsed().as_secs_f64());
            last = Some((dataset, fastq));
        }
        Ok::<(), String>(())
    });
    result?;
    let (dataset, fastq) = last.expect("SETUPS >= 1");
    let n_reads = dataset.reads_per_library.iter().map(Vec::len).sum();
    let references = dataset
        .genomes
        .iter()
        .map(|g| g.reference().to_vec())
        .collect();
    Ok((
        Inputs {
            fastq,
            references,
            n_reads,
        },
        median(&times) / slowdown,
    ))
}

fn write_libraries(dataset: &Dataset, dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut paths = Vec::new();
    for (i, reads) in dataset.reads_per_library.iter().enumerate() {
        let path = dir.join(format!("lib{i}.fastq"));
        let mut buf = Vec::new();
        write_fastq(&mut buf, reads)
            .and_then(|()| std::fs::write(&path, &buf))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        paths.push(path);
    }
    Ok(paths)
}

/// One finished child process.
struct Rep {
    /// Parent-measured spawn→exit seconds.
    wall_s: f64,
    cpu_s: f64,
    peak_rss_mb: f64,
    /// The FASTA it wrote (`None`: it exited non-zero or wrote nothing).
    fasta: Option<Vec<u8>>,
}

/// Metrics plus the failure tally of one run.
struct Outcome {
    /// `(name, value)`; units come from [`END_TO_END`] / [`PER_LAYER`].
    metrics: Vec<(String, f64)>,
    /// Reps run.
    attempted: usize,
    /// Reps that did not produce the expected, good assembly.
    failed: usize,
}

struct Bench {
    exe: PathBuf,
    w: Workload,
    inputs: Inputs,
    work: PathBuf,
}

impl Bench {
    /// Run one rep in a fresh process. The child gets the generated files,
    /// the preset name and a thread count — never the seed.
    fn rep(&self, threads: usize, spans: Option<&Path>) -> Result<Rep, String> {
        let out = self.work.join("scaffolds.fasta");
        // A stale FASTA must not stand in for a rep that wrote none.
        let _ = std::fs::remove_file(&out);
        let mut cmd = Command::new(&self.exe);
        cmd.arg("--rep")
            .arg(self.w.preset.name())
            .args(["--threads", &threads.to_string()])
            .arg("--out")
            .arg(&out);
        if let Some(path) = spans {
            cmd.arg("--spans").arg(path);
        }
        cmd.arg("--").args(&self.inputs.fastq);
        // The runtime reads these; a rep must not inherit a stray setting.
        for var in ["HIPMER_THREADS", "HIPMER_AFFINITY", "HIPMER_TRACE"] {
            cmd.env_remove(var);
        }
        cmd.stdin(Stdio::null()).stderr(Stdio::inherit());
        let start = Instant::now();
        let output = cmd.output().map_err(|e| format!("spawning a rep: {e}"))?;
        let wall_s = start.elapsed().as_secs_f64();

        let usage = std::str::from_utf8(&output.stdout)
            .ok()
            .and_then(|s| s.lines().last())
            .and_then(|l| Value::parse(l).ok());
        let field = |name: &str| {
            usage
                .as_ref()
                .and_then(|u| u.get(name))
                .and_then(Value::as_f64)
        };
        let fasta = match (output.status.success(), field("cpu_s")) {
            (true, Some(_)) => std::fs::read(&out).ok(),
            _ => None,
        };
        Ok(Rep {
            wall_s,
            cpu_s: field("cpu_s").unwrap_or(0.0),
            peak_rss_mb: field("peak_rss_mb").unwrap_or(0.0),
            fasta,
        })
    }

    /// Check the reps of a run: the first one's FASTA is evaluated against
    /// the simulator's reference genomes and must clear the workload's
    /// quality floor; every other rep must reproduce its bytes (FNV-64).
    /// Returns the evaluation and the number of failed reps.
    fn check(&self, reps: &[&Rep]) -> Result<(EvalReport, usize), String> {
        let Some(first) = reps[0].fasta.as_deref() else {
            return Ok((EvalReport::default(), reps.len()));
        };
        let scaffolds: Vec<Vec<u8>> = parse_fasta(first)?.into_iter().map(|r| r.seq).collect();
        let refs: Vec<&[u8]> = self.inputs.references.iter().map(Vec::as_slice).collect();
        let eval = evaluate(&refs, &scaffolds, EVAL_K);
        eprintln!("{}", eval.render());
        let floor = self.w.preset.floor();
        if eval.genome_fraction < floor.min_genome_fraction
            || eval.misassembled_scaffolds > floor.max_misassemblies
        {
            eprintln!("check failed: the assembly is under the quality floor {floor:?}");
            return Ok((eval, reps.len()));
        }
        let want = fnv1a(first);
        let failed = reps
            .iter()
            .filter(|r| r.fasta.as_deref().map(fnv1a) != Some(want))
            .count();
        if failed > 0 {
            eprintln!("check failed: {failed} rep(s) did not reproduce FASTA fnv64 {want:016x}");
        }
        Ok((eval, failed))
    }

    /// `--trace 0`: untraced reps for `seconds`, then the end-to-end
    /// metrics. Each rep's timings are divided by the host's slowdown while
    /// it ran before the median over reps is taken.
    fn timed_run(
        &self,
        seconds: u64,
        setup_s: f64,
        probe: &mut HostProbe,
    ) -> Result<Outcome, String> {
        let mut reps: Vec<Rep> = Vec::new();
        let mut walls: Vec<f64> = Vec::new();
        let mut slowdowns: Vec<f64> = Vec::new();
        let start = Instant::now();
        // Start another rep while it is expected to end nearer to `seconds`
        // than the previous one did, so a run measures for `seconds` on
        // average whatever the rep length.
        while reps.is_empty()
            || start.elapsed().as_secs_f64() + median(&walls) / 2.0 < seconds as f64
        {
            let (rep, slowdown) = probe.during(|| self.rep(self.w.threads, None));
            let rep = rep?;
            walls.push(rep.wall_s);
            slowdowns.push(slowdown);
            reps.push(rep);
        }
        let (eval, failed) = self.check(&reps.iter().collect::<Vec<_>>())?;

        let (q1, q3) = quartiles(&walls);
        eprintln!(
            "{} reps: raw wall_s median {:.4} quartiles {q1:.4}..{q3:.4}; each {walls:.3?}",
            reps.len(),
            median(&walls)
        );
        eprintln!("host slowdown during each (1 = nominal): {slowdowns:.3?}");
        let norm = |f: fn(&Rep, f64) -> f64| {
            median(
                &reps
                    .iter()
                    .zip(&slowdowns)
                    .map(|(r, s)| f(r, *s))
                    .collect::<Vec<_>>(),
            )
        };
        let wall_s = norm(|r, s| r.wall_s / s);
        let metrics = [
            ("wall_s", wall_s),
            ("reads_per_s", self.inputs.n_reads as f64 / wall_s),
            ("cpu_s", norm(|r, s| r.cpu_s / s)),
            // The largest, not the median: a rep peaks at one of two levels
            // 8 % apart depending on how its threads interleave (meta: ~147
            // or ~160 MB), and a median of nine flips between them.
            (
                "peak_rss_mb",
                reps.iter().map(|r| r.peak_rss_mb).fold(0.0, f64::max),
            ),
            ("genome_fraction", eval.genome_fraction),
            ("setup_s", setup_s),
        ];
        Ok(Outcome {
            metrics: metrics.map(|(n, v)| (n.to_string(), v)).to_vec(),
            attempted: reps.len(),
            failed,
        })
    }

    /// `--trace 1`: [`TRACE_ROUNDS`] rounds of {traced rep, untraced rep,
    /// untraced rep at the other thread count (1 ↔ 2)}, then the layer
    /// microbenches and the job-server row; reports the per-layer metrics.
    /// The ledger reported is that of the traced rep with the median wall.
    fn traced_run(&self, seed: u64, seconds: u64) -> Result<Outcome, String> {
        let other_threads = if self.w.threads == 1 { 2 } else { 1 };
        let (mut traced, mut untraced, mut other) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..TRACE_ROUNDS {
            let spans_path = self.work.join(format!("rep{}.spans.json", traced.len()));
            traced.push((self.rep(self.w.threads, Some(&spans_path))?, spans_path));
            untraced.push(self.rep(self.w.threads, None)?);
            other.push(self.rep(other_threads, None)?);
        }
        // Untraced first: it is the reference the traced rep and the rep at
        // the other thread count must reproduce byte for byte.
        let all: Vec<&Rep> = untraced
            .iter()
            .chain(traced.iter().map(|(rep, _)| rep))
            .chain(&other)
            .collect();
        let (eval, mut failed) = self.check(&all)?;
        let attempted = all.len();

        traced.sort_by(|a, b| a.0.wall_s.total_cmp(&b.0.wall_s));
        let (rep, spans_path) = &traced[(traced.len() - 1) / 2];
        let ledger = std::fs::read_to_string(spans_path)
            .map_err(|e| format!("{}: {e}", spans_path.display()))
            .and_then(|t| Value::parse(&t).map_err(|e| format!("span file: {e:?}")))?;
        let child = ledger.get("metrics").ok_or("span file has no metrics")?;
        let mut metrics: Vec<(String, f64)> = child
            .keys()
            .into_iter()
            .map(|key| {
                let value = child.get(key).and_then(Value::as_f64).unwrap_or(0.0);
                (key.to_string(), value)
            })
            .collect();
        let spans = ledger.get("spans").and_then(Value::as_arr).unwrap_or(&[]);
        for s in spans {
            let num = |k: &str| s.get(k).and_then(Value::as_f64).unwrap_or(0.0);
            eprintln!(
                "span {:<28} {:>9.4} .. {:>9.4} s",
                s.get("name").and_then(Value::as_str).unwrap_or("?"),
                num("start_s"),
                num("end_s")
            );
        }
        let staged: f64 = STAGE_SPANS
            .iter()
            .filter_map(|s| child.get(&format!("{s}_s")).and_then(Value::as_f64))
            .sum();
        let root_s = spans
            .first()
            .and_then(|s| s.get("end_s"))
            .and_then(Value::as_f64)
            .unwrap_or(0.0);
        if !(staged <= root_s && root_s <= rep.wall_s) {
            eprintln!(
                "check failed: spans do not nest: stages {staged:.4} s, root {root_s:.4} s, \
                 wall {:.4} s",
                rep.wall_s
            );
            failed += 1;
        }

        let mid =
            |reps: &[Rep], f: fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
        let (t1, t2) = if self.w.threads == 1 {
            (&untraced, &other)
        } else {
            (&other, &untraced)
        };
        let derived = [
            // Driver self time, pseudo-read injection, clones, drops.
            ("hipmer.glue_s", root_s - staged),
            // exec, dynamic linking, the usage line, heap teardown, reaping.
            ("hipmer.spawn_teardown_s", rep.wall_s - root_s),
            ("hipmer.traced_wall_s", rep.wall_s),
            (
                "trace_overhead_frac",
                rep.wall_s / mid(&untraced, |r| r.wall_s) - 1.0,
            ),
            (
                "pgas.team.speedup_2t",
                mid(t1, |r| r.wall_s) / mid(t2, |r| r.wall_s),
            ),
            (
                "pgas.team.cpu_inflation_2t",
                mid(t2, |r| r.cpu_s) / mid(t1, |r| r.cpu_s),
            ),
            ("quality.genome_fraction", eval.genome_fraction),
            ("quality.misassemblies", eval.misassembled_scaffolds as f64),
            ("quality.ng50", eval.ng50 as f64),
        ];
        metrics.extend(derived.map(|(name, value)| (name.to_string(), value)));

        metrics.extend(layers::measure(&self.inputs.fastq[0], seconds)?);
        let (cold_ms, hit_p50_ms) = serve_row::measure(&self.work, seed)?;
        metrics.push(("serve.cold_job_ms".to_string(), cold_ms));
        metrics.push(("serve.hit_p50_ms".to_string(), hit_p50_ms));

        Ok(Outcome {
            metrics,
            attempted,
            failed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` must list exactly the workloads and metrics this
    /// binary accepts and reports, in the same order with the same units.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Value::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |key: &str, field: &str| -> Vec<String> {
            let entries = doc.get(key).and_then(Value::as_arr).unwrap();
            entries
                .iter()
                .map(|e| e.get(field).and_then(Value::as_str).unwrap().to_string())
                .collect()
        };
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let names: Vec<&str> = table.iter().map(|(n, _)| *n).collect();
            let units: Vec<&str> = table.iter().map(|(_, u)| *u).collect();
            assert_eq!(listed(key, "name"), names, "{key} names");
            assert_eq!(listed(key, "unit"), units, "{key} units");
        }
        let workloads: Vec<&str> = crate::workloads::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(listed("workloads", "name"), workloads);
    }
}
