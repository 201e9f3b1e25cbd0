//! The pipeline report is reproducible at one OS thread: assembling the
//! same reads twice writes equal `PipelineReport::to_json` documents once
//! the keys `hipmer_pgas::stats::measured_report_keys` names — host
//! measurements by construction — are removed. (Equality across thread
//! counts is ROADMAP item 4 i; this is its one-thread base case.)

use hipmer::{run_assembly, PipelineConfig, RunOptions};
use hipmer_pgas::json::Value;
use hipmer_pgas::stats::measured_report_keys;
use hipmer_pgas::{trace, PartitionScheme, Schedule, Team, Topology};
use hipmer_readsim::{human_like_dataset, metagenome_dataset, Dataset};

/// `doc` without the measured keys, at any depth.
fn counted_only(doc: Value, measured: &[&str]) -> Value {
    match doc {
        Value::Obj(pairs) => Value::Obj(
            (pairs.into_iter())
                .filter(|(key, _)| !measured.contains(&key.as_str()))
                .map(|(key, value)| (key, counted_only(value, measured)))
                .collect(),
        ),
        Value::Arr(items) => Value::Arr(
            items
                .into_iter()
                .map(|v| counted_only(v, measured))
                .collect(),
        ),
        other => other,
    }
}

/// One checkpointed one-thread run's report, with and without the
/// measured keys.
fn report_of(dataset: &Dataset, cfg: &PipelineConfig, tag: &str) -> (Value, Value) {
    let dir = std::env::temp_dir().join(format!("hipmer-repro-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    // Hot-key tracking on, as under `--report-json`: `hot_keys` ties are
    // part of what must repeat.
    let team = Team::new(Topology::new(8, 4))
        .with_os_threads(1)
        .with_hot_keys(trace::HOT_KEY_CAPACITY);
    let opts = RunOptions {
        checkpoint_dir: Some(dir.clone()),
        ..RunOptions::default()
    };
    let reads = dataset.all_reads();
    let assembly = run_assembly(&team, &reads, &dataset.lib_ranges(), cfg, &opts).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    let text = assembly.report.to_json();
    let full = Value::parse(&text).unwrap();
    let counted = counted_only(full.clone(), &measured_report_keys());
    (full, counted)
}

#[test]
fn two_one_thread_runs_write_equal_reports_minus_the_measured_keys() {
    let classic = PipelineConfig::new(21);
    let multi_k = PipelineConfig::metagenome_preset(33)
        .with_schedule(Schedule::Dynamic)
        .with_partition(PartitionScheme::Minimizer)
        .try_multi_k(&[21, 33])
        .unwrap();
    let runs = [
        (
            "classic",
            human_like_dataset(20_000, 16.0, true, 71),
            classic,
        ),
        (
            "multik",
            metagenome_dataset(40_000, 6, 10.0, true, 72),
            multi_k,
        ),
    ];
    for (tag, dataset, cfg) in &runs {
        let (full, first) = report_of(dataset, cfg, &format!("{tag}-a"));
        let (_, second) = report_of(dataset, cfg, &format!("{tag}-b"));
        assert_eq!(
            first.to_json(),
            second.to_json(),
            "{tag}: counted report differs"
        );

        // The filter removed what it names and nothing else is missing.
        assert!(first.get("wall_seconds").is_none() && first.get("model_error").is_none());
        let phase = &first.get("phases").unwrap().as_arr().unwrap()[0];
        assert_eq!(phase.get("measured").unwrap().keys(), Vec::<&str>::new());
        assert!(!phase.get("totals").unwrap().keys().is_empty());
        let full_phase = &full.get("phases").unwrap().as_arr().unwrap()[0];
        assert_eq!(
            full_phase.get("measured").unwrap().keys(),
            ["wall_seconds", "exec_nanos", "lock_waits"],
            "every key of `measured` is a measured key"
        );
        let attempt = &first.get("stage_attempts").unwrap().as_arr().unwrap()[0];
        assert_eq!(
            attempt.keys(),
            ["stage", "executions", "aborted", "resumed"]
        );
        let checkpoint = &first.get("checkpoints").unwrap().as_arr().unwrap()[0];
        assert_eq!(checkpoint.keys(), ["stage", "action", "bytes", "checksum"]);
    }
}
