//! End-to-end tests of the job service over real sockets, using a mock
//! executor so scheduling, caching, and drain policies are exercised in
//! milliseconds. The real-pipeline integration test lives in the `hipmer`
//! crate (`tests/serve.rs`).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hipmer_pgas::json::Value;
use hipmer_pgas::TeamLease;
use hipmer_serve::http;
use hipmer_serve::loadgen::{self, LoadgenConfig};
use hipmer_serve::{ExecOutcome, JobExecutor, JobSpec, ServeConfig, Server};

/// Executor that "assembles" by sleeping, writing deterministic outputs
/// derived from the spec. Counts real executions so tests can prove that
/// cache hits did not recompute.
struct MockExecutor {
    work: Duration,
    executions: AtomicU64,
    /// When true, interrupt as soon as the cancel flag is observed.
    honor_cancel: bool,
}

impl MockExecutor {
    fn new(work: Duration) -> Self {
        MockExecutor {
            work,
            executions: AtomicU64::new(0),
            honor_cancel: true,
        }
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

impl JobExecutor for MockExecutor {
    fn cache_key(&self, spec: &JobSpec) -> Result<String, String> {
        if spec.input == "/missing" {
            return Err("input not readable".to_string());
        }
        let material = format!(
            "{}|{}|{}|{}|{}|{}",
            spec.input, spec.k, spec.ranks, spec.ranks_per_node, spec.rounds, spec.metagenome
        );
        Ok(format!("{:016x}", fnv1a(material.as_bytes())))
    }

    fn execute(
        &self,
        _job_id: u64,
        spec: &JobSpec,
        lease: &TeamLease,
        out_dir: &Path,
        _resume: bool,
        cancel: &Arc<AtomicBool>,
    ) -> ExecOutcome {
        self.executions.fetch_add(1, Ordering::SeqCst);
        // Leave resumable state behind immediately, like the pipeline's
        // checkpoint manifest.
        std::fs::write(out_dir.join("checkpoints").join("manifest.json"), "{}").unwrap();
        let deadline = Instant::now() + self.work;
        while Instant::now() < deadline {
            if self.honor_cancel && cancel.load(Ordering::SeqCst) {
                return ExecOutcome::Interrupted;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let fasta = format!(">scaffold_1 input={} k={}\nACGTACGT\n", spec.input, spec.k);
        std::fs::write(out_dir.join("scaffolds.fasta"), &fasta).unwrap();
        std::fs::write(out_dir.join("report.json"), "{\"schema_version\": 6}").unwrap();
        std::fs::write(out_dir.join("trace.json"), "[]").unwrap();
        let mut summary = Value::obj();
        summary.set("scaffolds", 1u64).set("ranks", lease.ranks());
        ExecOutcome::Completed { summary }
    }
}

fn tmp_state(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hipmer-serve-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start(
    tag: &str,
    work: Duration,
    cfg_tweak: impl FnOnce(&mut ServeConfig),
) -> (Server, String, Arc<MockExecutor>) {
    let exec = Arc::new(MockExecutor::new(work));
    let mut cfg = ServeConfig {
        state_dir: tmp_state(tag),
        pool_ranks: 8,
        ranks_per_node: 4,
        pool_threads: Some(2),
        ..ServeConfig::default()
    };
    cfg_tweak(&mut cfg);
    let server = Server::start(cfg, exec.clone() as Arc<dyn JobExecutor>).unwrap();
    let addr = server.addr().to_string();
    (server, addr, exec)
}

fn submit(addr: &str, input: &str, tenant: &str) -> (u16, Value) {
    let body = format!(r#"{{"input": "{input}", "tenant": "{tenant}", "ranks": 4}}"#);
    let (status, reply) = http::request(addr, "POST", "/v1/jobs", Some(body.as_bytes())).unwrap();
    let doc = Value::parse(std::str::from_utf8(&reply).unwrap()).unwrap_or(Value::Null);
    (status, doc)
}

fn wait_terminal(addr: &str, id: u64, timeout: Duration) -> Value {
    let deadline = Instant::now() + timeout;
    loop {
        let (status, reply) = http::request(addr, "GET", &format!("/v1/jobs/{id}"), None).unwrap();
        assert_eq!(status, 200, "job {id} lookup failed");
        let doc = Value::parse(std::str::from_utf8(&reply).unwrap()).unwrap();
        match doc.get("status").and_then(Value::as_str) {
            Some("queued") | Some("running") => {
                assert!(Instant::now() < deadline, "job {id} stuck: {doc:?}");
                std::thread::sleep(Duration::from_millis(10));
            }
            _ => return doc,
        }
    }
}

fn get_json(addr: &str, path: &str) -> (u16, Value) {
    let (status, reply) = http::request(addr, "GET", path, None).unwrap();
    let doc = Value::parse(std::str::from_utf8(&reply).unwrap_or("null")).unwrap_or(Value::Null);
    (status, doc)
}

#[test]
fn fresh_job_completes_and_serves_artifacts() {
    let (server, addr, exec) = start("fresh", Duration::from_millis(30), |_| {});
    let (status, doc) = submit(&addr, "/data/a.fastq", "alice");
    assert_eq!(status, 200, "{doc:?}");
    let id = doc.get("id").and_then(Value::as_u64).unwrap();
    let done = wait_terminal(&addr, id, Duration::from_secs(10));
    assert_eq!(
        done.get("status").and_then(Value::as_str),
        Some("completed")
    );
    assert_eq!(done.get("cache").and_then(Value::as_str), Some("miss"));
    assert_eq!(exec.executions.load(Ordering::SeqCst), 1);

    let (status, fasta) =
        http::request(&addr, "GET", &format!("/v1/jobs/{id}/fasta"), None).unwrap();
    assert_eq!(status, 200);
    assert!(String::from_utf8(fasta).unwrap().starts_with(">scaffold_1"));
    let (status, report) = get_json(&addr, &format!("/v1/jobs/{id}/report"));
    assert_eq!(status, 200);
    assert_eq!(
        report.get("schema_version").and_then(Value::as_u64),
        Some(6)
    );

    let (status, health) = get_json(&addr, "/healthz");
    assert_eq!(status, 200);
    assert_eq!(health.get("draining").and_then(Value::as_bool), Some(false));

    let (_, _) = http::request(&addr, "POST", "/admin/drain", None).unwrap();
    server.join();
}

#[test]
fn duplicates_hit_the_cache_instead_of_recomputing() {
    let (server, addr, exec) = start("dups", Duration::from_millis(80), |_| {});
    // Primary plus a duplicate submitted while the primary runs.
    let (_, d1) = submit(&addr, "/data/dup.fastq", "alice");
    let (_, d2) = submit(&addr, "/data/dup.fastq", "bob");
    let id1 = d1.get("id").and_then(Value::as_u64).unwrap();
    let id2 = d2.get("id").and_then(Value::as_u64).unwrap();
    let done1 = wait_terminal(&addr, id1, Duration::from_secs(10));
    let done2 = wait_terminal(&addr, id2, Duration::from_secs(10));
    assert_eq!(done1.get("cache").and_then(Value::as_str), Some("miss"));
    assert_eq!(
        done2.get("status").and_then(Value::as_str),
        Some("completed")
    );
    assert_eq!(done2.get("cache").and_then(Value::as_str), Some("hit"));
    // A third submission after completion is an immediate hit.
    let (_, d3) = submit(&addr, "/data/dup.fastq", "carol");
    let id3 = d3.get("id").and_then(Value::as_u64).unwrap();
    let done3 = wait_terminal(&addr, id3, Duration::from_secs(10));
    assert_eq!(done3.get("cache").and_then(Value::as_str), Some("hit"));
    // Only the primary actually executed.
    assert_eq!(exec.executions.load(Ordering::SeqCst), 1);
    // All three return byte-identical FASTA.
    let f1 = http::request(&addr, "GET", &format!("/v1/jobs/{id1}/fasta"), None)
        .unwrap()
        .1;
    let f2 = http::request(&addr, "GET", &format!("/v1/jobs/{id2}/fasta"), None)
        .unwrap()
        .1;
    let f3 = http::request(&addr, "GET", &format!("/v1/jobs/{id3}/fasta"), None)
        .unwrap()
        .1;
    assert_eq!(f1, f2);
    assert_eq!(f1, f3);

    let (_, stats) = get_json(&addr, "/v1/stats");
    assert_eq!(stats.get("cache_hits").and_then(Value::as_u64), Some(2));
    assert_eq!(stats.get("completed").and_then(Value::as_u64), Some(3));

    let _ = http::request(&addr, "POST", "/admin/drain", None).unwrap();
    server.join();
}

/// `GET /metrics` as `(series, value)` samples.
fn metric_samples(addr: &str) -> Vec<(String, f64)> {
    let (status, body) = http::request(addr, "GET", "/metrics", None).unwrap();
    assert_eq!(status, 200);
    let text = String::from_utf8(body).unwrap();
    let samples = text.lines().filter(|l| !l.starts_with('#'));
    samples
        .map(|l| {
            let (series, value) = l.split_once(' ').unwrap();
            (series.to_string(), value.parse().unwrap())
        })
        .collect()
}

fn submitted_id(addr: &str, input: &str, tenant: &str) -> u64 {
    let (status, doc) = submit(addr, input, tenant);
    assert_eq!(status, 200, "{doc:?}");
    doc.get("id").and_then(Value::as_u64).unwrap()
}

#[test]
fn every_metrics_series_is_its_stats_field() {
    let (server, addr, _exec) = start("series", Duration::from_millis(60), |cfg| {
        cfg.tenant_quota = 2;
    });
    // Two runs, one refused over quota, then one cache hit.
    let a = submitted_id(&addr, "/data/a.fastq", "alice");
    let b = submitted_id(&addr, "/data/b.fastq", "alice");
    assert_eq!(submit(&addr, "/data/c.fastq", "alice").0, 429);
    for id in [a, b] {
        wait_terminal(&addr, id, Duration::from_secs(10));
    }
    let hit = submitted_id(&addr, "/data/a.fastq", "carol");
    wait_terminal(&addr, hit, Duration::from_secs(10));

    let (_, stats) = get_json(&addr, "/v1/stats");
    let samples = metric_samples(&addr);
    let field_of = [
        ("serve_jobs_submitted", "submitted"),
        ("serve_jobs_rejected", "rejected"),
        ("serve_jobs_completed", "completed"),
        ("serve_jobs_failed", "failed"),
        ("serve_jobs_cancelled", "cancelled"),
        ("serve_jobs_interrupted", "interrupted"),
        ("serve_cache_hits", "cache_hits"),
        ("serve_cache_resumes", "resumed"),
        ("serve_sched_queue_depth", "queue_depth"),
        ("serve_jobs_running", "running"),
        ("serve_pool_ranks", "pool_ranks"),
        ("serve_pool_leased_ranks", "leased_ranks"),
        ("serve_uptime_seconds", "uptime_s"),
    ];
    let series: Vec<&str> = samples.iter().map(|s| s.0.as_str()).collect();
    assert_eq!(series, field_of.map(|f| f.0), "one series per number");
    // Every number of /v1/stats is a series, and `draining` is its flag.
    let mut fields = stats.keys();
    assert_eq!(fields.pop(), Some("draining"));
    assert_eq!(fields, field_of.map(|f| f.1));
    for ((series, value), (_, field)) in samples.iter().zip(field_of) {
        let stat = stats.get(field).and_then(Value::as_f64).unwrap();
        if field == "uptime_s" {
            assert!(*value >= stat, "{series} {value} read after {stat}");
        } else {
            assert_eq!(*value, stat, "{series} vs {field}");
        }
    }
    let stat = |field: &str| stats.get(field).and_then(Value::as_u64).unwrap();
    assert_eq!(
        ["submitted", "rejected", "completed", "cache_hits"].map(stat),
        [3, 1, 3, 1]
    );

    let _ = http::request(&addr, "POST", "/admin/drain", None).unwrap();
    server.join();
}

#[test]
fn two_servers_in_one_process_keep_separate_metrics() {
    let (busy, busy_addr, _) = start("metrics-busy", Duration::from_millis(5), |_| {});
    let (idle, idle_addr, _) = start("metrics-idle", Duration::from_millis(5), |_| {});
    for input in ["/data/x.fastq", "/data/y.fastq"] {
        let id = submitted_id(&busy_addr, input, "alice");
        wait_terminal(&busy_addr, id, Duration::from_secs(10));
    }
    let value = |addr: &str, series: &str| {
        let samples = metric_samples(addr);
        samples.into_iter().find(|s| s.0 == series).map(|s| s.1)
    };
    for series in ["serve_jobs_submitted", "serve_jobs_completed"] {
        assert_eq!(value(&busy_addr, series), Some(2.0), "{series}");
        assert_eq!(value(&idle_addr, series), Some(0.0), "{series}");
    }
    for (server, addr) in [(busy, busy_addr), (idle, idle_addr)] {
        let _ = http::request(&addr, "POST", "/admin/drain", None).unwrap();
        server.join();
    }
}

#[test]
fn deeply_nested_body_gets_400_and_the_server_keeps_serving() {
    // 200 kB of '[' is far under the body limit; a parser that recurses per
    // level without a cap overflows the connection thread's stack and takes
    // the whole process — every tenant's jobs — down with it.
    let (server, addr, exec) = start("deepjson", Duration::from_millis(1), |_| {});
    let body = "[".repeat(200_000);
    let (status, reply) = http::request(&addr, "POST", "/v1/jobs", Some(body.as_bytes())).unwrap();
    assert_eq!(status, 400, "{}", String::from_utf8_lossy(&reply));
    let doc = Value::parse(std::str::from_utf8(&reply).unwrap()).unwrap();
    assert_eq!(doc.get("error").and_then(Value::as_str), Some("bad_spec"));
    let (status, _stats) = get_json(&addr, "/v1/stats");
    assert_eq!(status, 200, "server must still answer after the bad body");
    assert_eq!(exec.executions.load(Ordering::SeqCst), 0);
    let _ = http::request(&addr, "POST", "/admin/drain", None).unwrap();
    server.join();
}

#[test]
fn full_queue_rejects_with_429() {
    let (server, addr, _exec) = start("queuefull", Duration::from_millis(200), |cfg| {
        cfg.queue_capacity = 2;
        cfg.tenant_quota = 16;
        // One-rank pool so jobs serialize and the queue actually fills.
        cfg.pool_ranks = 1;
        cfg.ranks_per_node = 1;
    });
    // Distinct inputs (distinct cache keys) from distinct tenants.
    let mut rejects = 0;
    for i in 0..5 {
        let (status, doc) = submit(&addr, &format!("/data/{i}.fastq"), &format!("t{i}"));
        match status {
            200 => {}
            429 => {
                rejects += 1;
                assert_eq!(doc.get("error").and_then(Value::as_str), Some("queue_full"));
            }
            other => panic!("unexpected status {other}: {doc:?}"),
        }
    }
    assert!(
        rejects >= 1,
        "queue of 2 should reject some of 5 rapid submissions"
    );
    let _ = http::request(&addr, "POST", "/admin/drain", None).unwrap();
    server.join();
}

#[test]
fn tenant_quota_rejects_with_429() {
    let (server, addr, _exec) = start("quota", Duration::from_millis(200), |cfg| {
        cfg.queue_capacity = 64; // queue never binds; only the quota does
        cfg.tenant_quota = 2;
        cfg.pool_ranks = 1;
        cfg.ranks_per_node = 1;
    });
    let mut quota_rejects = 0;
    for i in 0..4 {
        let (status, doc) = submit(&addr, &format!("/data/q{i}.fastq"), "spammer");
        if status == 429 {
            assert_eq!(
                doc.get("error").and_then(Value::as_str),
                Some("tenant_quota")
            );
            quota_rejects += 1;
        }
    }
    assert!(
        quota_rejects >= 1,
        "tenant quota of 2 should cap 4 submissions"
    );
    // A different tenant is unaffected.
    let (status, _) = submit(&addr, "/data/other.fastq", "polite");
    assert_eq!(status, 200);
    let _ = http::request(&addr, "POST", "/admin/drain", None).unwrap();
    server.join();
}

#[test]
fn drain_cancels_queue_interrupts_running_and_leaves_resumable_state() {
    let (server, addr, _exec) = start("drain", Duration::from_secs(30), |cfg| {
        // Single-rank pool: first job runs, second queues.
        cfg.pool_ranks = 1;
        cfg.ranks_per_node = 1;
    });
    let (_, d1) = submit(&addr, "/data/long1.fastq", "alice");
    let (_, d2) = submit(&addr, "/data/long2.fastq", "alice");
    let id1 = d1.get("id").and_then(Value::as_u64).unwrap();
    let id2 = d2.get("id").and_then(Value::as_u64).unwrap();
    // Let the first job start.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (_, doc) = get_json(&addr, &format!("/v1/jobs/{id1}"));
        if doc.get("status").and_then(Value::as_str) == Some("running") {
            break;
        }
        assert!(Instant::now() < deadline, "job never started");
        std::thread::sleep(Duration::from_millis(10));
    }

    let (status, _) = http::request(&addr, "POST", "/admin/drain", None).unwrap();
    assert_eq!(status, 202);
    // New submissions are refused while draining.
    let (status, _) = submit(&addr, "/data/late.fastq", "alice");
    assert_eq!(status, 503);

    let done1 = wait_terminal(&addr, id1, Duration::from_secs(10));
    let done2 = wait_terminal(&addr, id2, Duration::from_secs(10));
    assert_eq!(
        done1.get("status").and_then(Value::as_str),
        Some("interrupted")
    );
    assert_eq!(
        done2.get("status").and_then(Value::as_str),
        Some("cancelled")
    );

    // The interrupted job left a checkpoint manifest: a resubmission on a
    // fresh server resumes rather than starting cold.
    let key = done1
        .get("cache_key")
        .and_then(Value::as_str)
        .unwrap()
        .to_string();
    server.join();

    let exec2 = Arc::new(MockExecutor::new(Duration::from_millis(20)));
    let cfg2 = ServeConfig {
        // Same state dir as the first server (tmp_state would wipe it, so
        // rebuild the path directly) — the checkpoints must survive.
        state_dir: std::env::temp_dir()
            .join(format!("hipmer-serve-it-drain-{}", std::process::id())),
        pool_ranks: 1,
        ranks_per_node: 1,
        pool_threads: Some(2),
        ..ServeConfig::default()
    };
    let server2 = Server::start(cfg2, exec2.clone() as Arc<dyn JobExecutor>).unwrap();
    let addr2 = server2.addr().to_string();
    let (_, d3) = submit(&addr2, "/data/long1.fastq", "alice");
    let id3 = d3.get("id").and_then(Value::as_u64).unwrap();
    let done3 = wait_terminal(&addr2, id3, Duration::from_secs(10));
    assert_eq!(done3.get("cache").and_then(Value::as_str), Some("resumed"));
    assert_eq!(
        done3.get("cache_key").and_then(Value::as_str),
        Some(key.as_str())
    );
    let _ = http::request(&addr2, "POST", "/admin/drain", None).unwrap();
    server2.join();
}

#[test]
fn loadgen_measures_cache_hit_speedup() {
    let (server, addr, _exec) = start("loadgen", Duration::from_millis(60), |cfg| {
        cfg.queue_capacity = 256;
        cfg.tenant_quota = 256;
    });
    let specs: Vec<JobSpec> = (0..3)
        .map(|i| JobSpec {
            input: format!("/data/lg{i}.fastq"),
            k: 21,
            ranks: 2,
            ranks_per_node: 2,
            rounds: 1,
            metagenome: false,
            tenant: format!("t{}", i % 2),
            priority: 0,
        })
        .collect();
    let report = loadgen::run(&LoadgenConfig {
        addr: addr.clone(),
        jobs: 12,
        rate_per_s: 50.0,
        duplicate_fraction: 0.5,
        specs,
        poll_interval: Duration::from_millis(10),
        timeout: Duration::from_secs(30),
    })
    .unwrap();
    assert_eq!(report.completed + report.failed + report.rejected, 12);
    assert!(report.completed >= 6, "{report:?}");
    assert!(report.cache_hits >= 3, "{report:?}");
    assert!(
        report.hit_speedup > 2.0,
        "cache hits should be much faster than 60ms cold runs: {report:?}"
    );
    let _ = http::request(&addr, "POST", "/admin/drain", None).unwrap();
    server.join();
}

#[test]
fn sigterm_triggers_graceful_drain() {
    let (server, addr, _exec) = start("sigterm", Duration::from_secs(30), |cfg| {
        cfg.handle_signals = true;
        cfg.pool_ranks = 1;
        cfg.ranks_per_node = 1;
    });
    let (_, d1) = submit(&addr, "/data/sig.fastq", "alice");
    let id1 = d1.get("id").and_then(Value::as_u64).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (_, doc) = get_json(&addr, &format!("/v1/jobs/{id1}"));
        if doc.get("status").and_then(Value::as_str) == Some("running") {
            break;
        }
        assert!(Instant::now() < deadline, "job never started");
        std::thread::sleep(Duration::from_millis(10));
    }
    hipmer_serve::signal::raise_self(hipmer_serve::signal::SIGTERM);
    let doc = wait_terminal(&addr, id1, Duration::from_secs(10));
    assert_eq!(
        doc.get("status").and_then(Value::as_str),
        Some("interrupted")
    );
    server.join();
    hipmer_serve::signal::reset();
}
