//! Shared machinery for the benchmark harnesses that regenerate every
//! table and figure of the paper's evaluation (§5).
//!
//! Each `[[bench]]` target is a plain `harness = false` main that runs the
//! relevant pipeline slice over the paper's concurrency sweep (480 …
//! 20,480 virtual ranks) on a scaled-down synthetic analogue of the
//! paper's dataset and prints the same rows/series the paper reports.
//! Absolute seconds come from the PGAS cost model (see `hipmer-pgas`);
//! the *shapes* — who wins, by what factor, where the curves flatten —
//! are the reproduction targets recorded in `EXPERIMENTS.md`.
//!
//! Set `HIPMER_BENCH_SCALE` (float, default 1.0) to grow the synthetic
//! genomes, and `HIPMER_BENCH_FAST=1` to run a reduced sweep (used in CI
//! smoke checks).

use hipmer_pgas::json::Value;
use hipmer_pgas::{CostModel, PhaseReport};

/// Scale factor for genome sizes (`HIPMER_BENCH_SCALE`).
pub fn scale() -> f64 {
    std::env::var("HIPMER_BENCH_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1.0)
}

/// Whether to run the reduced sweep (`HIPMER_BENCH_FAST`).
pub fn fast() -> bool {
    std::env::var("HIPMER_BENCH_FAST")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Stamp a `BENCH_*.json` document with what a reader needs to compare it
/// with another one: `fast_mode`, `host_parallelism` (the host's available
/// parallelism) and `commit` (`GITHUB_SHA`, else `git rev-parse --short
/// HEAD`, else `"unknown"`). Every `BENCH_*.json` writer calls this.
pub fn stamp(doc: &mut Value) {
    let git_head = || {
        let out = std::process::Command::new("git")
            .args(["rev-parse", "--short", "HEAD"])
            .output()
            .ok()
            .filter(|out| out.status.success())?;
        Some(String::from_utf8_lossy(&out.stdout).trim().to_string())
    };
    let commit = (std::env::var("GITHUB_SHA").ok())
        .or_else(git_head)
        .filter(|c| !c.is_empty())
        .unwrap_or_else(|| "unknown".to_string());
    let host_parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    doc.set("fast_mode", fast())
        .set("host_parallelism", host_parallelism)
        .set("commit", commit);
}

/// A genome size scaled by [`scale`].
pub fn scaled(base: usize) -> usize {
    (base as f64 * scale()) as usize
}

/// The strong-scaling sweep. The paper sweeps 480..15,360 Edison cores on
/// gigabase data; our megabase-scale workloads keep the *data-per-core
/// ratio* in a comparable regime by sweeping the same number of doublings
/// at proportionally lower concurrency (see EXPERIMENTS.md).
pub fn concurrencies() -> Vec<usize> {
    if fast() {
        vec![48, 192]
    } else {
        vec![48, 96, 192, 384, 768]
    }
}

/// The cost model every harness prices with.
pub fn model() -> CostModel {
    CostModel::edison()
}

/// Print a banner for a table/figure.
pub fn banner(id: &str, caption: &str) {
    println!();
    println!("==================================================================");
    println!("{id}: {caption}");
    println!("==================================================================");
}

/// Sum the modeled seconds of the phases whose name contains `needle`.
pub fn phase_seconds(reports: &[PhaseReport], needle: &str) -> f64 {
    let m = model();
    reports
        .iter()
        .filter(|r| r.name.contains(needle))
        .map(|r| r.modeled(&m).total())
        .sum()
}

/// Parallel efficiency of a strong-scaling series relative to its first
/// point: `t0·p0 / (t·p)`.
pub fn efficiency(base: (usize, f64), point: (usize, f64)) -> f64 {
    (base.1 * base.0 as f64) / (point.1 * point.0 as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn efficiency_of_perfect_scaling_is_one() {
        let e = efficiency((480, 100.0), (960, 50.0));
        assert!((e - 1.0).abs() < 1e-12);
        let worse = efficiency((480, 100.0), (960, 80.0));
        assert!(worse < 0.7);
    }

    #[test]
    fn scaled_applies_factor() {
        // Without the env var the identity holds.
        if std::env::var("HIPMER_BENCH_SCALE").is_err() {
            assert_eq!(scaled(1000), 1000);
        }
    }
}
