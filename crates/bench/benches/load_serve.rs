//! Service-level load benchmark for `hipmer serve` (DESIGN.md §13): boot
//! an in-process job server backed by the real assembly pipeline, drive
//! it with the HTTP load generator at several submission rates, and
//! measure submission→completion latency split by how the result cache
//! served each job.
//!
//! Each rate point runs three phases:
//!
//! * **cold** — every spec distinct, empty cache: all misses. This is
//!   the baseline cost of actually assembling each input.
//! * **warm** — the same specs resubmitted against the now-populated
//!   cache: all hits. The p50 here versus the cold p50 is the headline
//!   `hit_speedup`, which the bench **hard-asserts ≥ 5×** (the result
//!   cache must make identical resubmissions at least 5× faster).
//! * **mixed** — a fresh server and cache, submissions interleaving
//!   distinct and duplicate specs (duplicate fraction 0.5), the
//!   realistic multi-tenant arrival pattern. The recorded
//!   `cache_hit_ratio` is machine-independent (it counts dispositions,
//!   not seconds) and is what CI gates against the checked-in baseline.
//!
//! Latencies come from the server's own `submitted_s`/`finished_s`
//! stamps, so client polling cadence does not distort them. The rate
//! sweep is identical in fast and full mode (CI compares points by
//! rate); `HIPMER_BENCH_FAST=1` only shrinks the genomes and job counts.

use std::path::PathBuf;
use std::time::Duration;

use hipmer::AssemblyExecutor;
use hipmer_bench::banner;
use hipmer_pgas::json::Value;
use hipmer_serve::loadgen::{self, LoadReport, LoadgenConfig};
use hipmer_serve::{JobSpec, ServeConfig, Server};

/// Submission rates (jobs/second). Same sweep in fast and full mode so
/// the CI gate can match points against the checked-in baseline by rate.
const RATES: [f64; 3] = [2.0, 6.0, 18.0];
/// Shared rank pool: two concurrent 4-rank jobs.
const POOL_RANKS: usize = 8;
const RANKS_PER_NODE: usize = 4;
const JOB_RANKS: usize = 4;
const TENANTS: [&str; 3] = ["alice", "bob", "carol"];

/// Distinct read sets, one FASTQ file per seed, shared by every point.
fn write_inputs(dir: &std::path::Path, n: usize, genome_bases: usize) -> Vec<PathBuf> {
    (0..n)
        .map(|i| {
            let dataset =
                hipmer_readsim::human_like_dataset(genome_bases, 10.0, false, 40_001 + i as u64);
            let mut buf = Vec::new();
            hipmer_seqio::write_fastq(&mut buf, &dataset.all_reads()).unwrap();
            let path = dir.join(format!("reads_{i}.fastq"));
            std::fs::write(&path, &buf).unwrap();
            path
        })
        .collect()
}

fn spec_for(input: &std::path::Path, i: usize) -> JobSpec {
    JobSpec {
        input: input.to_string_lossy().into_owned(),
        k: 21,
        ranks: JOB_RANKS,
        ranks_per_node: 2,
        rounds: 1,
        metagenome: false,
        tenant: TENANTS[i % TENANTS.len()].to_string(),
        priority: 0,
    }
}

fn boot(state_dir: PathBuf) -> Server {
    let cfg = ServeConfig {
        state_dir,
        queue_capacity: 256,
        tenant_quota: 256,
        pool_ranks: POOL_RANKS,
        ranks_per_node: RANKS_PER_NODE,
        ..ServeConfig::default()
    };
    Server::start(cfg, AssemblyExecutor::shared()).expect("server boots")
}

fn load(addr: &str, specs: Vec<JobSpec>, jobs: usize, rate: f64, dup: f64) -> LoadReport {
    loadgen::run(&LoadgenConfig {
        addr: addr.to_string(),
        jobs,
        rate_per_s: rate,
        duplicate_fraction: dup,
        specs,
        poll_interval: Duration::from_millis(10),
        timeout: Duration::from_secs(300),
    })
    .expect("load run completes")
}

fn main() {
    banner(
        "Service load",
        "hipmer serve latency/throughput under fresh, duplicate, and mixed submissions",
    );
    let fast = hipmer_bench::fast();
    let genome_bases = if fast { 5_000 } else { 10_000 };
    let n_cold = if fast { 3 } else { 4 };
    let mixed_jobs = if fast { 6 } else { 10 };
    // The mixed phase must never re-draw a cold spec (a re-draw is a
    // cache hit that would muddy the disposition counts), so hand it as
    // many distinct specs as it has submissions.
    let n_inputs = n_cold.max(mixed_jobs);

    let root = std::env::temp_dir().join(format!("hipmer-load-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();
    let inputs = write_inputs(&root, n_inputs, genome_bases);
    println!(
        "{} distinct inputs of ~{} bp genome each; pool {} ranks ({} per node), {} ranks/job",
        n_inputs, genome_bases, POOL_RANKS, RANKS_PER_NODE, JOB_RANKS
    );
    println!(
        "{:>8} {:>12} {:>12} {:>12} {:>10} {:>10}",
        "rate/s", "cold p50", "hit p50", "mixed p99", "speedup", "hit ratio"
    );

    let mut points: Vec<Value> = Vec::new();
    for (pi, &rate) in RATES.iter().enumerate() {
        let cold_specs: Vec<JobSpec> = inputs[..n_cold]
            .iter()
            .enumerate()
            .map(|(i, p)| spec_for(p, i))
            .collect();

        // Cold + warm share one server: the cold phase populates the
        // cache the warm phase then hits.
        let server = boot(root.join(format!("state_{pi}_coldwarm")));
        let addr = server.addr().to_string();
        let cold = load(&addr, cold_specs.clone(), n_cold, rate, 0.0);
        let warm = load(&addr, cold_specs, n_cold, rate, 0.0);
        server.begin_drain();
        server.join();

        // Mixed runs against a fresh cache so its misses are real.
        let mixed_specs: Vec<JobSpec> = inputs
            .iter()
            .enumerate()
            .map(|(i, p)| spec_for(p, i))
            .collect();
        let server = boot(root.join(format!("state_{pi}_mixed")));
        let addr = server.addr().to_string();
        let mixed = load(&addr, mixed_specs, mixed_jobs, rate, 0.5);
        server.begin_drain();
        server.join();

        // Disposition sanity: the phases must exercise what they claim.
        assert_eq!(cold.completed, n_cold, "cold phase must complete all jobs");
        assert_eq!(cold.cache_hits, 0, "cold phase must not hit the cache");
        assert_eq!(warm.completed, n_cold, "warm phase must complete all jobs");
        assert_eq!(
            warm.cache_hits, n_cold,
            "warm phase resubmits identical specs: every job must hit"
        );
        assert_eq!(mixed.completed, mixed_jobs);
        assert!(
            mixed.cache_hits > 0,
            "mixed phase interleaves duplicates: some must hit"
        );

        let hit_speedup = cold.p50_ms / warm.p50_ms.max(1e-9);
        let cache_hit_ratio = mixed.cache_hits as f64 / mixed.completed as f64;
        println!(
            "{:>8.1} {:>10.1}ms {:>10.1}ms {:>10.1}ms {:>9.1}x {:>10.2}",
            rate, cold.p50_ms, warm.p50_ms, mixed.p99_ms, hit_speedup, cache_hit_ratio
        );

        // The acceptance bar: identical resubmission must be at least
        // 5× faster than assembling from scratch, at every rate.
        assert!(
            hit_speedup >= 5.0,
            "rate {rate}: cache hits only {hit_speedup:.1}x faster than cold \
             (cold p50 {:.1}ms, hit p50 {:.1}ms)",
            cold.p50_ms,
            warm.p50_ms
        );

        let mut e = Value::obj();
        e.set("rate_per_s", rate)
            .set("hit_speedup", hit_speedup)
            .set("cache_hit_ratio", cache_hit_ratio)
            .set("cold", cold.to_value())
            .set("warm", warm.to_value())
            .set("mixed", mixed.to_value());
        points.push(e);
    }

    let mut doc = Value::obj();
    doc.set("schema_version", 1u64);
    doc.set("bench", "load_serve");
    hipmer_bench::stamp(&mut doc);
    doc.set("pool_ranks", POOL_RANKS as u64);
    doc.set("ranks_per_node", RANKS_PER_NODE as u64);
    doc.set("job_ranks", JOB_RANKS as u64);
    doc.set("genome_bases", genome_bases as u64);
    doc.set("cold_jobs_per_point", n_cold as u64);
    doc.set("mixed_jobs_per_point", mixed_jobs as u64);
    doc.set("points", points);
    std::fs::write("BENCH_serve.json", doc.to_json()).unwrap();
    println!(
        "wrote BENCH_serve.json ({} rate points); cache-hit speedup ≥ 5x at every rate ✓",
        RATES.len()
    );
    std::fs::remove_dir_all(&root).ok();
}
