//! End-to-end test of `hipmer serve`: boot the real daemon binary, submit
//! a mix of fresh, duplicate, and resumed jobs over HTTP, and check that
//! the served assemblies are byte-identical to the one-shot CLI's output
//! while duplicates come from the result cache.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use hipmer_pgas::json::Value;
use hipmer_serve::http;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_hipmer")
}

struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    fn start(state_dir: &std::path::Path, pool_ranks: usize, rpn: usize) -> Daemon {
        let mut child = Command::new(bin())
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--state-dir",
                state_dir.to_str().unwrap(),
                "--pool-ranks",
                &pool_ranks.to_string(),
                "--ranks-per-node",
                &rpn.to_string(),
            ])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("daemon spawns");
        // The daemon prints "hipmer serve listening on IP:PORT" once bound.
        let stdout = child.stdout.take().expect("stdout piped");
        let mut lines = BufReader::new(stdout).lines();
        let line = lines
            .next()
            .expect("daemon printed its address")
            .expect("readable stdout");
        let addr = line
            .rsplit(' ')
            .next()
            .expect("address on the listening line")
            .to_string();
        Daemon { child, addr }
    }

    fn drain_and_wait(mut self) {
        let _ = http::request(&self.addr, "POST", "/admin/drain", None);
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            match self.child.try_wait().expect("wait works") {
                Some(status) => {
                    assert!(status.success(), "daemon exited with {status}");
                    return;
                }
                None if Instant::now() > deadline => {
                    let _ = self.child.kill();
                    panic!("daemon did not drain in time");
                }
                None => std::thread::sleep(Duration::from_millis(50)),
            }
        }
    }
}

fn simulate_reads(path: &std::path::Path, seed: u64) {
    let status = Command::new(bin())
        .args([
            "simulate",
            "human",
            "-o",
            path.to_str().unwrap(),
            "--len",
            "8000",
            "--cov",
            "12",
            "--seed",
            &seed.to_string(),
        ])
        .status()
        .expect("simulate runs");
    assert!(status.success());
}

fn oneshot_assemble(reads: &std::path::Path, out: &std::path::Path, ranks: usize, rpn: usize) {
    let status = Command::new(bin())
        .args([
            "assemble",
            reads.to_str().unwrap(),
            "-o",
            out.to_str().unwrap(),
            "-k",
            "21",
            "--ranks",
            &ranks.to_string(),
            "--ranks-per-node",
            &rpn.to_string(),
        ])
        .status()
        .expect("assemble runs");
    assert!(status.success());
}

fn submit(addr: &str, input: &std::path::Path, tenant: &str, ranks: usize, rpn: usize) -> u64 {
    let body = format!(
        r#"{{"input": "{}", "tenant": "{tenant}", "k": 21, "ranks": {ranks}, "ranks_per_node": {rpn}}}"#,
        input.to_str().unwrap()
    );
    let (status, reply) = http::request(addr, "POST", "/v1/jobs", Some(body.as_bytes())).unwrap();
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&reply));
    Value::parse(std::str::from_utf8(&reply).unwrap())
        .unwrap()
        .get("id")
        .and_then(Value::as_u64)
        .unwrap()
}

fn wait_completed(addr: &str, id: u64) -> Value {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (status, reply) = http::request(addr, "GET", &format!("/v1/jobs/{id}"), None).unwrap();
        assert_eq!(status, 200);
        let doc = Value::parse(std::str::from_utf8(&reply).unwrap()).unwrap();
        match doc.get("status").and_then(Value::as_str) {
            Some("queued") | Some("running") => {
                assert!(
                    Instant::now() < deadline,
                    "job {id} did not finish: {doc:?}"
                );
                std::thread::sleep(Duration::from_millis(50));
            }
            Some("completed") => return doc,
            other => panic!("job {id} ended as {other:?}: {doc:?}"),
        }
    }
}

fn fasta_of(addr: &str, id: u64) -> Vec<u8> {
    let (status, bytes) =
        http::request(addr, "GET", &format!("/v1/jobs/{id}/fasta"), None).unwrap();
    assert_eq!(status, 200);
    bytes
}

#[test]
fn served_jobs_match_oneshot_cli_and_duplicates_hit_cache() {
    let dir = std::env::temp_dir().join(format!("hipmer-serve-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let reads_a = dir.join("a.fastq");
    let reads_b = dir.join("b.fastq");
    simulate_reads(&reads_a, 5);
    simulate_reads(&reads_b, 6);

    // Ground truth from the one-shot CLI on the same team shape.
    let ref_a = dir.join("ref_a.fasta");
    let ref_b = dir.join("ref_b.fasta");
    oneshot_assemble(&reads_a, &ref_a, 4, 2);
    oneshot_assemble(&reads_b, &ref_b, 4, 2);

    let daemon = Daemon::start(&dir.join("state"), 8, 4);
    let addr = daemon.addr.clone();

    // Concurrent mix: two distinct fresh jobs from different tenants plus
    // a duplicate of the first submitted while it runs.
    let id_a = submit(&addr, &reads_a, "alice", 4, 2);
    let id_b = submit(&addr, &reads_b, "bob", 4, 2);
    let id_dup = submit(&addr, &reads_a, "carol", 4, 2);

    let done_a = wait_completed(&addr, id_a);
    let done_b = wait_completed(&addr, id_b);
    let done_dup = wait_completed(&addr, id_dup);
    assert_eq!(done_a.get("cache").and_then(Value::as_str), Some("miss"));
    assert_eq!(done_b.get("cache").and_then(Value::as_str), Some("miss"));
    assert_eq!(
        done_dup.get("cache").and_then(Value::as_str),
        Some("hit"),
        "duplicate of a running/finished job must come from the cache"
    );

    // Byte-identical FASTA versus the one-shot CLI.
    let served_a = fasta_of(&addr, id_a);
    let served_b = fasta_of(&addr, id_b);
    let served_dup = fasta_of(&addr, id_dup);
    assert_eq!(served_a, std::fs::read(&ref_a).unwrap());
    assert_eq!(served_b, std::fs::read(&ref_b).unwrap());
    assert_eq!(served_dup, served_a);

    // A cold resubmission after completion is also an instant hit.
    let id_again = submit(&addr, &reads_a, "alice", 4, 2);
    let done_again = wait_completed(&addr, id_again);
    assert_eq!(done_again.get("cache").and_then(Value::as_str), Some("hit"));

    // Stats agree: two real runs, two cache hits.
    let (status, reply) = http::request(&addr, "GET", "/v1/stats", None).unwrap();
    assert_eq!(status, 200);
    let stats = Value::parse(std::str::from_utf8(&reply).unwrap()).unwrap();
    assert_eq!(stats.get("completed").and_then(Value::as_u64), Some(4));
    assert_eq!(stats.get("cache_hits").and_then(Value::as_u64), Some(2));

    // The report artifact is the pipeline report — where the job's own
    // measurements live.
    let (status, report) =
        http::request(&addr, "GET", &format!("/v1/jobs/{id_a}/report"), None).unwrap();
    assert_eq!(status, 200);
    let report = Value::parse(std::str::from_utf8(&report).unwrap()).unwrap();
    assert_eq!(
        report.get("schema_version").and_then(Value::as_u64),
        Some(12)
    );
    let attempts = report.get("stage_attempts").unwrap().as_arr().unwrap();
    assert!(
        attempts[0]
            .get("peak_rss_bytes")
            .and_then(Value::as_u64)
            .unwrap()
            > 0
    );
    // A served job names its hot keys like a `--report-json` CLI run does
    // (the team carries the capacity; no process-global switch to forget).
    let phases = report.get("phases").unwrap().as_arr().unwrap();
    let count = phases
        .iter()
        .find(|p| p.get("name").and_then(Value::as_str) == Some("kmer-analysis/count"))
        .expect("count phase");
    assert!(
        !count.get("hot_keys").unwrap().as_arr().unwrap().is_empty(),
        "served report must surface hot keys"
    );
    // The per-job trace artifact is valid chrome-trace JSON.
    let (status, trace) =
        http::request(&addr, "GET", &format!("/v1/jobs/{id_a}/trace"), None).unwrap();
    assert_eq!(status, 200);
    assert!(Value::parse(std::str::from_utf8(&trace).unwrap()).is_ok());

    // Prometheus metrics carry the daemon's own counters.
    let (status, metrics) = http::request(&addr, "GET", "/metrics", None).unwrap();
    assert_eq!(status, 200);
    let text = String::from_utf8(metrics).unwrap();
    assert!(
        text.contains("serve_jobs_submitted"),
        "metrics text missing serve counters:\n{text}"
    );

    daemon.drain_and_wait();
    std::fs::remove_dir_all(&dir).ok();
}

/// The series names of `GET /metrics`.
fn metric_series(addr: &str) -> Vec<String> {
    let (status, metrics) = http::request(addr, "GET", "/metrics", None).unwrap();
    assert_eq!(status, 200);
    let text = String::from_utf8(metrics).unwrap();
    let samples = text.lines().filter(|l| !l.starts_with('#'));
    samples
        .map(|l| l.split([' ', '{']).next().unwrap().to_string())
        .collect()
}

#[test]
fn metrics_exposition_does_not_grow_with_completed_jobs() {
    let dir = std::env::temp_dir().join(format!("hipmer-serve-series-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let daemon = Daemon::start(&dir.join("state"), 4, 2);
    let addr = daemon.addr.clone();

    // Four distinct inputs, run one after the other: every job is a cache
    // miss, so each exercises the same daemon counters and nothing else.
    let mut after_first = Vec::new();
    for seed in 1..=4 {
        let reads = dir.join(format!("reads_{seed}.fastq"));
        simulate_reads(&reads, 40 + seed);
        let done = wait_completed(&addr, submit(&addr, &reads, "alice", 4, 2));
        assert_eq!(done.get("cache").and_then(Value::as_str), Some("miss"));
        if seed == 1 {
            after_first = metric_series(&addr);
        }
    }
    let after_fourth = metric_series(&addr);
    assert!(after_first.iter().any(|s| s == "serve_jobs_submitted"));
    assert_eq!(
        after_first, after_fourth,
        "a completed job must not leave series behind"
    );
    assert!(
        !after_fourth.iter().any(|s| s.contains("job_")),
        "per-job numbers belong to /v1/jobs/<id>/report: {after_fourth:?}"
    );

    daemon.drain_and_wait();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sigterm_drains_daemon_cleanly() {
    // Unix-only: uses kill(1) to deliver a real SIGTERM to the daemon.
    if !cfg!(unix) {
        return;
    }
    let dir = std::env::temp_dir().join(format!("hipmer-serve-sig-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let reads = dir.join("r.fastq");
    simulate_reads(&reads, 7);

    let mut daemon = Daemon::start(&dir.join("state"), 4, 2);
    let id = submit(&daemon.addr, &reads, "alice", 4, 2);

    let kill = Command::new("kill")
        .args(["-TERM", &daemon.child.id().to_string()])
        .status()
        .expect("kill runs");
    assert!(kill.success());

    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        match daemon.child.try_wait().expect("wait works") {
            Some(status) => {
                assert!(status.success(), "drained daemon must exit 0, got {status}");
                break;
            }
            None if Instant::now() > deadline => {
                let _ = daemon.child.kill();
                panic!("daemon ignored SIGTERM");
            }
            None => std::thread::sleep(Duration::from_millis(50)),
        }
    }
    // The job either completed before the drain or was interrupted with
    // checkpoints on disk; either way the state dir exists and a fresh
    // daemon can serve or resume it.
    let _ = id;
    assert!(dir.join("state").join("cache").is_dir());
    std::fs::remove_dir_all(&dir).ok();
}
