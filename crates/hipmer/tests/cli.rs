//! End-to-end test of the `hipmer` command-line binary: simulate reads,
//! assemble them, check the FASTA output.

use std::process::Command;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_hipmer")
}

#[test]
fn simulate_then_assemble_roundtrip() {
    let dir = std::env::temp_dir().join(format!("hipmer-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let reads = dir.join("reads.fastq");
    let out = dir.join("scaffolds.fasta");

    let sim = Command::new(bin())
        .args([
            "simulate",
            "human",
            "-o",
            reads.to_str().unwrap(),
            "--len",
            "20000",
            "--cov",
            "16",
            "--seed",
            "5",
        ])
        .output()
        .expect("simulate runs");
    assert!(
        sim.status.success(),
        "{}",
        String::from_utf8_lossy(&sim.stderr)
    );
    assert!(reads.exists());

    let asm = Command::new(bin())
        .args([
            "assemble",
            reads.to_str().unwrap(),
            "-o",
            out.to_str().unwrap(),
            "-k",
            "21",
            "--ranks",
            "16",
            "--ranks-per-node",
            "8",
            "--report",
        ])
        .output()
        .expect("assemble runs");
    assert!(
        asm.status.success(),
        "{}",
        String::from_utf8_lossy(&asm.stderr)
    );
    let stderr = String::from_utf8_lossy(&asm.stderr);
    assert!(stderr.contains("scaffolds"), "{stderr}");
    assert!(
        stderr.contains("TOTAL"),
        "--report must print modeled times"
    );

    // The FASTA parses and contains real sequence.
    let fasta = std::fs::read(&out).unwrap();
    let records = hipmer_seqio::parse_fasta(&fasta).unwrap();
    assert!(!records.is_empty());
    let total: usize = records.iter().map(|r| r.seq.len()).sum();
    assert!(total > 10_000, "assembled only {total} bases");
    for r in &records {
        assert!(hipmer_dna::validate_dna(&r.seq).is_ok());
        assert!(r.id.starts_with("scaffold_"));
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_and_report_json_outputs_are_valid() {
    use hipmer_pgas::json::Value;

    let dir = std::env::temp_dir().join(format!("hipmer-cli-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let reads = dir.join("reads.fastq");
    let out = dir.join("scaffolds.fasta");
    let trace = dir.join("trace.json");
    let report = dir.join("report.json");

    let sim = Command::new(bin())
        .args([
            "simulate",
            "human",
            "-o",
            reads.to_str().unwrap(),
            "--len",
            "15000",
            "--cov",
            "14",
            "--seed",
            "9",
        ])
        .output()
        .expect("simulate runs");
    assert!(
        sim.status.success(),
        "{}",
        String::from_utf8_lossy(&sim.stderr)
    );

    let asm = Command::new(bin())
        .args([
            "assemble",
            reads.to_str().unwrap(),
            "-o",
            out.to_str().unwrap(),
            "-k",
            "21",
            "--ranks",
            "8",
            "--ranks-per-node",
            "4",
            "--trace",
            trace.to_str().unwrap(),
            "--trace-ranks",
            "4",
            "--report-json",
            report.to_str().unwrap(),
        ])
        .output()
        .expect("assemble runs");
    assert!(
        asm.status.success(),
        "{}",
        String::from_utf8_lossy(&asm.stderr)
    );

    // The trace is a Chrome trace-event JSON array: complete ("X") spans
    // carrying pid/tid/ts/dur, restricted to the sampled ranks.
    let trace_doc = Value::parse(&std::fs::read_to_string(&trace).unwrap()).unwrap();
    let events = trace_doc.as_arr().expect("trace is a JSON array");
    let spans: Vec<&Value> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
        .collect();
    assert!(!spans.is_empty(), "trace must contain complete events");
    for s in &spans {
        assert!(s.get("name").and_then(Value::as_str).is_some());
        assert_eq!(s.get("pid").and_then(Value::as_u64), Some(1));
        let tid = s.get("tid").and_then(Value::as_u64).unwrap();
        assert!(tid < 4, "rank {tid} exceeds --trace-ranks 4");
        assert!(s.get("ts").and_then(Value::as_f64).is_some());
        assert!(s.get("dur").and_then(Value::as_f64).unwrap() >= 0.0);
    }
    // Every pipeline stage shows up at least once.
    for stage in ["io/", "kmer-analysis/", "contig/", "scaffold/"] {
        assert!(
            spans.iter().any(|s| s
                .get("name")
                .and_then(Value::as_str)
                .unwrap()
                .starts_with(stage)),
            "no trace span for stage {stage}"
        );
    }

    // The report is the schema-versioned pipeline document with per-phase
    // metrics, and the sketch phase names its hot keys.
    let report_doc = Value::parse(&std::fs::read_to_string(&report).unwrap()).unwrap();
    assert_eq!(
        report_doc.get("schema_version").and_then(Value::as_u64),
        Some(14)
    );
    // Classic single-k runs serialize an empty rounds array.
    assert!(report_doc
        .get("rounds")
        .unwrap()
        .as_arr()
        .unwrap()
        .is_empty());
    assert_eq!(
        report_doc.get("cost_model").and_then(Value::as_str),
        Some("edison")
    );
    // Schema v9 dropped the measured-vs-modeled block: Edison-priced
    // seconds over this host's seconds compared two different machines.
    assert!(report_doc.get("model_error").is_none());
    // Schema v10 dropped the `partition` header and v12 the per-placement
    // split: every table a CLI run builds is owned by uniform hashing.
    assert!(report_doc.get("partition").is_none());
    assert!(report_doc.get("offnode_by_placement").is_none());
    // Schema v3: per-stage attempt bookkeeping is always present; a
    // fault-free, checkpoint-free run shows one clean execution per stage
    // and no checkpoint events.
    let attempts = report_doc.get("stage_attempts").unwrap().as_arr().unwrap();
    assert_eq!(attempts.len(), 5, "five pipeline stages");
    for a in attempts {
        assert_eq!(a.get("executions").and_then(Value::as_u64), Some(1));
        assert_eq!(a.get("aborted").and_then(Value::as_u64), Some(0));
    }
    assert!(report_doc
        .get("checkpoints")
        .unwrap()
        .as_arr()
        .unwrap()
        .is_empty());
    assert_eq!(
        report_doc
            .get("topology")
            .and_then(|t| t.get("ranks"))
            .and_then(Value::as_u64),
        Some(8)
    );
    let phases = report_doc.get("phases").unwrap().as_arr().unwrap();
    assert!(phases.len() >= 8, "only {} phases reported", phases.len());
    for p in phases {
        // Every phase carries its measured block and table occupancy.
        let measured = p.get("measured").expect("measured block");
        assert!(
            measured
                .get("wall_seconds")
                .and_then(Value::as_f64)
                .unwrap()
                > 0.0
        );
        assert!(measured.get("exec_nanos").and_then(Value::as_u64).unwrap() > 0);
        let table = p.get("table").expect("table block");
        assert!(
            table.get("max_partition_entries").and_then(Value::as_u64)
                <= table.get("entries").and_then(Value::as_u64)
        );
        assert!(p.get("offnode_fraction").and_then(Value::as_f64).is_some());
        assert!(p.get("imbalance").and_then(Value::as_f64).unwrap() >= 1.0);
        // `totals` is exactly the counted field table.
        let counted: Vec<&str> = (hipmer_pgas::stats::FIELDS.iter())
            .filter(|f| f.1 == hipmer_pgas::stats::Kind::Counted)
            .map(|f| f.0)
            .collect();
        assert_eq!(p.get("totals").unwrap().keys(), counted);
        assert!(p
            .get("modeled")
            .and_then(|m| m.get("total_seconds"))
            .is_some());
    }
    // Only the sketch carries hot keys: the heaviest k-mers of its
    // Misra–Gries summary (this input holds more distinct k-mers than
    // θ counters, so its noise floor is 0 and every tracked k-mer counts).
    for p in phases {
        let name = p.get("name").and_then(Value::as_str).unwrap();
        let hot = p.get("hot_keys").unwrap().as_arr().unwrap();
        assert_eq!(!hot.is_empty(), name == "kmer-analysis/sketch", "{name}");
    }
    // Schema v2: the read-side communication-avoidance counters are
    // reported, and the aligner exercises both batching and caching.
    let align = phases
        .iter()
        .find(|p| p.get("name").and_then(Value::as_str) == Some("scaffold/meraligner-align"))
        .expect("align phase present");
    let totals = align.get("totals").expect("phase totals present");
    assert!(
        totals
            .get("lookup_batches")
            .and_then(Value::as_u64)
            .unwrap()
            > 0,
        "aligner must ship batched lookups"
    );
    assert!(
        totals.get("cache_hits").and_then(Value::as_u64).unwrap() > 0,
        "aligner caches must see hits"
    );
    assert!(totals.get("cache_misses").and_then(Value::as_u64).is_some());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn report_and_trace_sampling_flags_work_end_to_end() {
    use hipmer_pgas::json::Value;

    let dir = std::env::temp_dir().join(format!("hipmer-cli-metrics-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let reads = dir.join("reads.fastq");

    let sim = Command::new(bin())
        .args([
            "simulate",
            "human",
            "-o",
            reads.to_str().unwrap(),
            "--len",
            "15000",
            "--cov",
            "14",
            "--seed",
            "17",
        ])
        .output()
        .expect("simulate runs");
    assert!(sim.status.success());

    let out = dir.join("scaffolds.fasta");
    let trace = dir.join("trace.json");
    let report = dir.join("report.json");
    let asm = Command::new(bin())
        .args([
            "assemble",
            reads.to_str().unwrap(),
            "-o",
            out.to_str().unwrap(),
            "-k",
            "21",
            "--ranks",
            "8",
            "--ranks-per-node",
            "4",
            "--trace",
            trace.to_str().unwrap(),
            "--trace-ranks",
            "2",
            "--report-json",
            report.to_str().unwrap(),
        ])
        .output()
        .expect("assemble runs");
    assert!(
        asm.status.success(),
        "{}",
        String::from_utf8_lossy(&asm.stderr)
    );

    // --trace-ranks 2 holds alongside --report-json: no span may carry a
    // rank id >= 2.
    let trace_doc = Value::parse(&std::fs::read_to_string(&trace).unwrap()).unwrap();
    let spans: Vec<&Value> = trace_doc
        .as_arr()
        .unwrap()
        .iter()
        .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
        .collect();
    assert!(!spans.is_empty());
    for s in &spans {
        let tid = s.get("tid").and_then(Value::as_u64).unwrap();
        assert!(tid < 2, "rank {tid} exceeds --trace-ranks 2");
    }

    // What the metrics registry used to carry per run now sits in the one
    // report: table occupancy on the count phase, a resident-set peak on
    // the k-mer analysis stage, every stage attempted once.
    let report_doc = Value::parse(&std::fs::read_to_string(&report).unwrap()).unwrap();
    let phases = report_doc.get("phases").unwrap().as_arr().unwrap();
    let count = (phases.iter())
        .find(|p| p.get("name").and_then(Value::as_str) == Some("kmer-analysis/count"))
        .expect("count phase present");
    let entries = count.get("table").and_then(|t| t.get("entries"));
    assert!(entries.and_then(Value::as_u64).unwrap() > 0);
    let attempts = report_doc.get("stage_attempts").unwrap().as_arr().unwrap();
    assert_eq!(attempts.len(), 5);
    for a in attempts {
        assert_eq!(a.get("executions").and_then(Value::as_u64), Some(1));
    }
    assert_eq!(
        attempts[0].get("stage").and_then(Value::as_str),
        Some("kmer-analysis")
    );
    let peak = attempts[0].get("peak_rss_bytes").and_then(Value::as_u64);
    assert!(
        peak.unwrap() > 0,
        "resident-set peak must be a real reading"
    );
    assert!(peak >= attempts[0].get("rss_bytes").and_then(Value::as_u64));
    // The report is priced on the Edison constants; there is no other.
    assert_eq!(
        report_doc.get("cost_model").and_then(Value::as_str),
        Some("edison")
    );

    // The registry's flags went with it, and so did the calibration and
    // heartbeat side outputs, the k-mer partition knob and the work
    // schedule: unknown flag, usage, exit 2.
    for flag in [
        &["--metrics-json", "m.json"][..],
        &["--metrics-text"],
        &["--calibrate", "fitted.json"],
        &["--heartbeat", "1"],
        &["--heartbeat-jsonl", "hb.jsonl"],
        &["--partition", "uniform"],
        &["--schedule", "static"],
    ] {
        let gone = Command::new(bin())
            .args(["assemble", reads.to_str().unwrap(), "-o", "x.fa"])
            .args(flag)
            .output()
            .expect("assemble runs");
        assert_eq!(gone.status.code(), Some(2), "{flag:?}");
        let stderr = String::from_utf8_lossy(&gone.stderr);
        assert!(
            stderr.contains(&format!("unknown flag {}", flag[0])),
            "{stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpoint_halt_then_resume_is_byte_identical() {
    let dir = std::env::temp_dir().join(format!("hipmer-cli-resume-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let reads = dir.join("reads.fastq");

    let sim = Command::new(bin())
        .args([
            "simulate",
            "human",
            "-o",
            reads.to_str().unwrap(),
            "--len",
            "15000",
            "--cov",
            "14",
            "--seed",
            "21",
        ])
        .output()
        .expect("simulate runs");
    assert!(sim.status.success());

    let base = dir.join("base.fasta");
    let common = [
        "assemble",
        reads.to_str().unwrap(),
        "-k",
        "21",
        "--ranks",
        "8",
        "--ranks-per-node",
        "4",
    ];
    let run = |extra: &[&str]| {
        let out = Command::new(bin())
            .args(common)
            .args(extra)
            .output()
            .unwrap();
        (out.status, String::from_utf8_lossy(&out.stderr).to_string())
    };
    let (st, err) = run(&["-o", base.to_str().unwrap()]);
    assert!(st.success(), "{err}");

    // Kill the run after stage 2 (scaffold-prep): exit 0, no FASTA.
    let ckpt = dir.join("ckpt");
    let halted = dir.join("halted.fasta");
    let (st, err) = run(&[
        "-o",
        halted.to_str().unwrap(),
        "--checkpoint-dir",
        ckpt.to_str().unwrap(),
        "--halt-after",
        "scaffold-prep",
    ]);
    assert!(st.success(), "{err}");
    assert!(err.contains("halted after stage"), "{err}");
    assert!(!halted.exists(), "halted run must not write a FASTA");

    // Resume: completed stages load from checkpoints, the assembly is
    // byte-identical, and the report records the loads.
    let resumed = dir.join("resumed.fasta");
    let report = dir.join("resume-report.json");
    let (st, err) = run(&[
        "-o",
        resumed.to_str().unwrap(),
        "--checkpoint-dir",
        ckpt.to_str().unwrap(),
        "--resume",
        "--report-json",
        report.to_str().unwrap(),
    ]);
    assert!(st.success(), "{err}");
    assert_eq!(
        std::fs::read(&base).unwrap(),
        std::fs::read(&resumed).unwrap(),
        "resumed assembly must be byte-identical"
    );
    let doc = hipmer_pgas::json::Value::parse(&std::fs::read_to_string(&report).unwrap()).unwrap();
    use hipmer_pgas::json::Value;
    let resumed_stages: Vec<&str> = doc
        .get("stage_attempts")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .filter(|a| a.get("resumed").and_then(Value::as_bool) == Some(true))
        .map(|a| a.get("stage").and_then(Value::as_str).unwrap())
        .collect();
    assert_eq!(
        resumed_stages,
        ["kmer-analysis", "contig-generation", "scaffold-prep"]
    );
    let loads = doc
        .get("checkpoints")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .filter(|c| c.get("action").and_then(Value::as_str) == Some("load"))
        .count();
    assert_eq!(loads, 3);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fault_injection_recovers_byte_identically() {
    use hipmer_pgas::json::Value;

    let dir = std::env::temp_dir().join(format!("hipmer-cli-fault-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let reads = dir.join("reads.fastq");

    let sim = Command::new(bin())
        .args([
            "simulate",
            "human",
            "-o",
            reads.to_str().unwrap(),
            "--len",
            "15000",
            "--cov",
            "14",
            "--seed",
            "33",
        ])
        .output()
        .expect("simulate runs");
    assert!(sim.status.success());

    let common = [
        "assemble",
        reads.to_str().unwrap(),
        "-k",
        "21",
        "--ranks",
        "8",
        "--ranks-per-node",
        "4",
    ];
    let base = dir.join("base.fasta");
    let out = Command::new(bin())
        .args(common)
        .args(["-o", base.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());

    // Seeded transient faults plus a one-shot hard kill of rank 3: the
    // transient faults retry transparently, the kill aborts its stage,
    // and the retry (from checkpoints) must reproduce the assembly.
    //
    // The whole scenario runs once per OS-thread count (1, 4, and 8):
    // the recovered bytes and the number of aborted attempts must not
    // depend on how virtual ranks multiplex onto threads. *Which* stage
    // the kill lands in may: the kill is keyed off rank 3's remote-event
    // count, and cooperative traversal attributes a claim's lookups to
    // whichever rank wins it, so that count depends on the interleaving
    // (ROADMAP item 8(i)).
    for threads in ["1", "4", "8"] {
        let faulty = dir.join(format!("faulty-{threads}t.fasta"));
        let ckpt = dir.join(format!("ckpt-{threads}t"));
        let report = dir.join(format!("fault-report-{threads}t.json"));
        let out = Command::new(bin())
            .env("HIPMER_THREADS", threads)
            .args(common)
            .args([
                "-o",
                faulty.to_str().unwrap(),
                "--checkpoint-dir",
                ckpt.to_str().unwrap(),
                "--stage-retries",
                "2",
                "--fault-seed",
                "7",
                "--fault-transient",
                "0.002",
                // Event 100 is past rank 3's 77 remote events in k-mer
                // analysis, which are the same on every schedule (its
                // writes go through owner-applied exchanges), and below
                // what contig generation (~2,200 in the serial run, fewer
                // when other ranks win the claims) and alignment plus
                // scaffolding (~150) add, so the kill always fires after
                // the first checkpoint, in contig generation or in
                // alignment.
                "--fault-kill",
                "3:100",
                "--report-json",
                report.to_str().unwrap(),
            ])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "[{threads} threads] {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(
            std::fs::read(&base).unwrap(),
            std::fs::read(&faulty).unwrap(),
            "[{threads} threads] recovered assembly must be byte-identical to the fault-free one"
        );

        let doc = Value::parse(&std::fs::read_to_string(&report).unwrap()).unwrap();
        let attempts = doc.get("stage_attempts").unwrap().as_arr().unwrap();
        let aborted: u64 = attempts
            .iter()
            .map(|a| a.get("aborted").and_then(Value::as_u64).unwrap())
            .sum();
        let aborted_stages: Vec<&str> = attempts
            .iter()
            .filter(|a| a.get("aborted").and_then(Value::as_u64) != Some(0))
            .map(|a| a.get("stage").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(
            aborted, 1,
            "[{threads} threads] the kill must abort exactly one stage attempt, \
             aborted: {aborted_stages:?}"
        );
        // The injected transient faults and their retries are visible in
        // the phase totals.
        let phases = doc.get("phases").unwrap().as_arr().unwrap();
        let faults: u64 = phases
            .iter()
            .map(|p| {
                p.get("totals")
                    .and_then(|t| t.get("transient_faults"))
                    .and_then(Value::as_u64)
                    .unwrap_or(0)
            })
            .sum();
        let retries: u64 = phases
            .iter()
            .map(|p| {
                p.get("totals")
                    .and_then(|t| t.get("retries"))
                    .and_then(Value::as_u64)
                    .unwrap_or(0)
            })
            .sum();
        assert!(
            faults > 0,
            "[{threads} threads] transient faults must be injected and counted"
        );
        assert!(
            retries >= faults,
            "[{threads} threads] every transient fault costs a retry"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fault_inside_a_write_pass_recovers_byte_identically() {
    use hipmer_pgas::json::Value;

    // K-mer analysis sends about 30 remote events per rank, through owner-
    // applied exchanges, so rank 3's fifth event kills it inside the first
    // stage while mail is in flight. The attempt's undelivered mail must
    // never land: the retry starts from empty tables and must reproduce
    // the fault-free assembly byte for byte, at every thread count.
    let dir = std::env::temp_dir().join(format!("hipmer-cli-write-fault-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let reads = dir.join("reads.fastq");
    let sim = Command::new(bin())
        .args(["simulate", "human", "-o", reads.to_str().unwrap()])
        .args(["--len", "15000", "--cov", "14", "--seed", "33"])
        .output()
        .expect("simulate runs");
    assert!(sim.status.success());

    let common = [
        "assemble",
        reads.to_str().unwrap(),
        "-k",
        "21",
        "--ranks",
        "8",
        "--ranks-per-node",
        "4",
    ];
    let base = dir.join("base.fasta");
    let out = Command::new(bin())
        .args(common)
        .args(["-o", base.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());

    for threads in ["1", "4", "8"] {
        let faulty = dir.join(format!("faulty-{threads}t.fasta"));
        let report = dir.join(format!("report-{threads}t.json"));
        let out = Command::new(bin())
            .env("HIPMER_THREADS", threads)
            .args(common)
            .args(["-o", faulty.to_str().unwrap()])
            .args(["--stage-retries", "2", "--fault-kill", "3:5"])
            .args(["--report-json", report.to_str().unwrap()])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "[{threads} threads] {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(
            std::fs::read(&base).unwrap(),
            std::fs::read(&faulty).unwrap(),
            "[{threads} threads] recovered assembly must be byte-identical to the fault-free one"
        );
        let doc = Value::parse(&std::fs::read_to_string(&report).unwrap()).unwrap();
        let aborted: Vec<(&str, u64)> = (doc.get("stage_attempts").unwrap().as_arr().unwrap())
            .iter()
            .map(|a| {
                let stage = a.get("stage").and_then(Value::as_str).unwrap();
                (stage, a.get("aborted").and_then(Value::as_u64).unwrap())
            })
            .filter(|&(_, aborted)| aborted > 0)
            .collect();
        assert_eq!(
            aborted,
            [("kmer-analysis", 1)],
            "[{threads} threads] exactly one k-mer analysis attempt aborts"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn multi_k_assembles_and_reports_rounds() {
    use hipmer_pgas::json::Value;

    let dir = std::env::temp_dir().join(format!("hipmer-cli-multik-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let reads = dir.join("reads.fastq");

    let sim = Command::new(bin())
        .args([
            "simulate",
            "meta",
            "-o",
            reads.to_str().unwrap(),
            "--len",
            "60000",
            "--cov",
            "10",
            "--seed",
            "23",
        ])
        .output()
        .expect("simulate runs");
    assert!(
        sim.status.success(),
        "{}",
        String::from_utf8_lossy(&sim.stderr)
    );

    let out = dir.join("scaffolds.fasta");
    let report = dir.join("report.json");
    let asm = Command::new(bin())
        .args([
            "assemble",
            reads.to_str().unwrap(),
            "-o",
            out.to_str().unwrap(),
            "--multi-k",
            "21,33",
            "--metagenome",
            "--ranks",
            "8",
            "--ranks-per-node",
            "4",
            "--report-json",
            report.to_str().unwrap(),
        ])
        .output()
        .expect("assemble runs");
    let stderr = String::from_utf8_lossy(&asm.stderr);
    assert!(asm.status.success(), "{stderr}");
    assert!(stderr.contains("multi-k rounds [21, 33]"), "{stderr}");
    assert!(stderr.contains("round 1 (k=21):"), "{stderr}");
    assert!(stderr.contains("round 2 (k=33):"), "{stderr}");
    assert!(out.exists(), "multi-k run must write the FASTA");

    // The schema-v7 rounds surface.
    let doc = Value::parse(&std::fs::read_to_string(&report).unwrap()).unwrap();
    assert_eq!(doc.get("schema_version").and_then(Value::as_u64), Some(14));
    let rounds = doc.get("rounds").unwrap().as_arr().unwrap();
    assert_eq!(rounds.len(), 2);
    assert_eq!(rounds[0].get("k").and_then(Value::as_u64), Some(21));
    assert_eq!(rounds[1].get("k").and_then(Value::as_u64), Some(33));
    assert_eq!(
        rounds[0].get("pseudo_reads").and_then(Value::as_u64),
        Some(0)
    );
    assert!(
        rounds[1]
            .get("pseudo_reads")
            .and_then(Value::as_u64)
            .unwrap()
            > 0
    );
    let stages: Vec<&str> = doc
        .get("stage_attempts")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .map(|a| a.get("stage").and_then(Value::as_str).unwrap())
        .collect();
    assert_eq!(
        stages,
        [
            "round1/kmer-analysis",
            "round1/contig-generation",
            "round2/kmer-analysis",
            "round2/contig-generation"
        ]
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_halt_after_stage_exits_nonzero_listing_valid_stages() {
    let dir = std::env::temp_dir().join(format!("hipmer-cli-badhalt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let reads = dir.join("reads.fastq");
    std::fs::write(
        &reads,
        b"@r1\nACGTACGTACGTACGTACGTACGTACGT\n+\nIIIIIIIIIIIIIIIIIIIIIIIIIIII\n",
    )
    .unwrap();

    let out = Command::new(bin())
        .args([
            "assemble",
            reads.to_str().unwrap(),
            "-o",
            dir.join("out.fasta").to_str().unwrap(),
            "-k",
            "21",
            "--ranks",
            "4",
            "--ranks-per-node",
            "2",
            "--halt-after",
            "scafold-prep",
        ])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !out.status.success(),
        "a misspelled --halt-after stage must fail, not silently run: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(
        stderr.contains("unknown --halt-after stage") && stderr.contains("scaffold-prep"),
        "error must list the valid stages: {stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncated_fastq_exits_nonzero_with_clean_error() {
    let dir = std::env::temp_dir().join(format!("hipmer-cli-trunc-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let reads = dir.join("truncated.fastq");
    // Second record cut off mid-way: no quality line at all.
    std::fs::write(
        &reads,
        b"@r1\nACGTACGTACGT\n+\nIIIIIIIIIIII\n@r2\nACGTACGT\n",
    )
    .unwrap();

    let out = Command::new(bin())
        .args([
            "assemble",
            reads.to_str().unwrap(),
            "-o",
            dir.join("out.fasta").to_str().unwrap(),
            "-k",
            "21",
            "--ranks",
            "4",
            "--ranks-per-node",
            "2",
        ])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "truncated input must fail: {stderr}");
    assert!(
        !stderr.contains("panicked"),
        "must fail cleanly, not panic: {stderr}"
    );
    assert!(
        stderr.contains("error:") && stderr.contains("record"),
        "error must name the failing record: {stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_k_exits_nonzero_with_clean_error() {
    let dir = std::env::temp_dir().join(format!("hipmer-cli-badk-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let reads = dir.join("reads.fastq");
    std::fs::write(&reads, b"@r1\nACGTACGT\n+\nIIIIIIII\n").unwrap();
    for bad_k in ["22", "0", "65"] {
        let out = Command::new(bin())
            .args([
                "assemble",
                reads.to_str().unwrap(),
                "-o",
                dir.join("out.fasta").to_str().unwrap(),
                "-k",
                bad_k,
            ])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "-k {bad_k} must fail: {stderr}");
        assert!(
            !stderr.contains("panicked"),
            "-k {bad_k} must fail cleanly, not panic: {stderr}"
        );
        assert!(stderr.contains("error:"), "-k {bad_k}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_usage_exits_nonzero() {
    let out = Command::new(bin()).arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    let out = Command::new(bin())
        .args(["assemble", "/nonexistent.fastq", "-o", "/tmp/x.fasta"])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

/// Run `hipmer` with `args`; the exit code and the first stderr line (the
/// `error: …` line of a usage error).
fn usage_error(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(bin()).args(args).output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    let first = stderr.lines().next().unwrap_or_default().to_string();
    (out.status.code(), first)
}

/// Each subcommand's line of the usage text, as `(subcommand, flags)`.
fn usage_flags() -> Vec<(String, Vec<String>)> {
    let out = Command::new(bin()).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "no subcommand is a usage error");
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    let commands: Vec<_> = stderr
        .split("  hipmer ")
        .skip(1)
        .map(|section| {
            let mut tokens = section.split_whitespace();
            let cmd = tokens.next().unwrap().to_string();
            let flags = tokens
                .map(|t| t.trim_start_matches('[').trim_end_matches(']'))
                .filter(|t| t.starts_with('-'))
                .map(str::to_string)
                .collect();
            (cmd, flags)
        })
        .collect();
    let names: Vec<_> = commands.iter().map(|(cmd, _)| cmd.as_str()).collect();
    assert_eq!(names, ["assemble", "simulate", "serve"], "{stderr}");
    commands
}

#[test]
fn bad_flags_exit_2_naming_the_flag() {
    // Nothing below may get as far as reading a file or binding a port, so
    // the positionals need not exist.
    for base in [
        &["assemble", "reads.fastq", "-o", "x.fa"][..],
        &["simulate", "human", "-o", "x.fastq"],
        &["serve"],
    ] {
        let with = |extra: &[&str]| usage_error(&[base, extra].concat());
        // Unknown, and a misspelling of a flag the subcommand does take
        // (both used to be ignored: the run went ahead on the defaults).
        let (code, err) = with(&["--frobnicate", "3"]);
        assert_eq!(
            (code, err.as_str()),
            (Some(2), "error: unknown flag --frobnicate")
        );
        let misspelled = if base[0] == "simulate" {
            "--sead"
        } else {
            "--ranks-per-nod"
        };
        let (code, err) = with(&[misspelled, "2"]);
        assert_eq!(code, Some(2), "{err}");
        assert_eq!(err, format!("error: unknown flag {misspelled}"));
        // Given twice, and given without its value (at the end of argv, and
        // with another flag where the value should be).
        let flag = if base[0] == "simulate" {
            "--seed"
        } else {
            "--ranks-per-node"
        };
        let (code, err) = with(&[flag, "2", flag, "4"]);
        assert_eq!(code, Some(2), "{err}");
        assert_eq!(err, format!("error: {flag} given more than once"));
        for tail in [&[flag][..], &[flag, flag]] {
            let (code, err) = with(tail);
            assert_eq!(code, Some(2), "{err}");
            assert_eq!(err, format!("error: {flag} needs a value"));
        }
        // A value that does not parse names the flag too.
        let (code, err) = with(&[flag, "many"]);
        assert_eq!(code, Some(2), "{err}");
        assert!(
            err.starts_with(&format!("error: bad value \"many\" for {flag}")),
            "{err}"
        );
        // Zero ranks used to panic in `Topology::new`.
        if base[0] != "simulate" {
            let (code, err) = with(&[flag, "0"]);
            assert_eq!(code, Some(2), "{err}");
            assert!(
                err.starts_with(&format!("error: bad value \"0\" for {flag}")),
                "{err}"
            );
        }
        // A stray argument after the flags is not silently dropped either.
        let (code, err) = with(&["stray"]);
        assert_eq!(
            (code, err.as_str()),
            (Some(2), "error: unexpected argument \"stray\"")
        );
    }
}

#[test]
fn fault_transient_outside_zero_to_one_exits_2() {
    // NaN used to switch injection off while the CLI still announced it
    // armed, and 1.5 was clamped to 1.0. Nothing here reads the input.
    let base = ["assemble", "reads.fastq", "-o", "x.fa", "--fault-transient"];
    for bad in ["NaN", "1.5", "-0.1", "inf"] {
        let (code, err) = usage_error(&[&base[..], &[bad]].concat());
        assert_eq!(code, Some(2), "{bad}: {err}");
        assert!(err.starts_with("error: --fault-transient"), "{bad}: {err}");
    }
}

#[test]
fn simulate_coverage_must_be_positive_and_finite() {
    // NaN and negative coverages used to exit 0 with an empty FASTQ.
    // Nothing here writes the output.
    let base = ["simulate", "human", "-o", "x.fastq", "--cov"];
    for bad in ["nan", "-1", "0", "inf"] {
        let (code, err) = usage_error(&[&base[..], &[bad]].concat());
        assert_eq!(code, Some(2), "{bad}: {err}");
        assert!(err.starts_with("error: --cov"), "{bad}: {err}");
    }
}

#[test]
fn checkpoint_interval_zero_exits_2() {
    let (code, err) = usage_error(&[
        "assemble",
        "reads.fastq",
        "-o",
        "x.fa",
        "--checkpoint-interval",
        "0",
    ]);
    assert_eq!(code, Some(2), "{err}");
    assert!(
        err.starts_with("error: bad value \"0\" for --checkpoint-interval"),
        "{err}"
    );
}

#[test]
fn serve_pool_threads_zero_exits_2() {
    // Zero pool threads used to be accepted and clamped to one; it is a
    // usage error like `--pool-ranks 0`, raised before any port is bound.
    let (code, err) = usage_error(&["serve", "--pool-threads", "0"]);
    assert_eq!(code, Some(2), "{err}");
    assert!(
        err.starts_with("error: bad value \"0\" for --pool-threads"),
        "{err}"
    );
}

#[test]
fn every_flag_in_the_usage_text_is_accepted() {
    let flags = usage_flags();
    assert_eq!(flags[0].1.len(), 20, "assemble's flags: {:?}", flags[0].1);
    for (cmd, flags) in flags {
        assert!(!flags.is_empty(), "{cmd}");
        for flag in flags {
            // Given twice, a known flag is "given more than once" (a switch)
            // or "needs a value" (the second copy sits where the value
            // goes); only a flag the parser does not know is "unknown".
            let (code, err) = usage_error(&[&cmd, &flag, &flag]);
            assert_eq!(code, Some(2), "{cmd} {flag}: {err}");
            assert!(
                err == format!("error: {flag} given more than once")
                    || err == format!("error: {flag} needs a value"),
                "{cmd} {flag}: {err}"
            );
        }
    }
}
