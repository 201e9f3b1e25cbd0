//! The job-server row of the traced pass: boot `hipmer_serve::Server`
//! in-process over the real `AssemblyExecutor`, submit one cold job on a
//! 20 kb genome, then resubmit it 50 times from one closed-loop client
//! (each submission waits for the previous job to finish). Reported only:
//! `crates/bench`'s `load_serve` stays the service benchmark.

use crate::workloads::{splitmix64, RANKS, RANKS_PER_NODE};
use hipmer::AssemblyExecutor;
use hipmer_readsim::human_like_dataset;
use hipmer_serve::loadgen::{self, LoadgenConfig};
use hipmer_serve::{JobSpec, ServeConfig, Server};
use std::path::Path;
use std::time::Duration;

const RESUBMISSIONS: usize = 50;

/// Returns `(serve.cold_job_ms, serve.hit_p50_ms)`: server-stamped
/// submission→completion latency of the cold job, and the median over the
/// cache-hit resubmissions.
pub fn measure(work: &Path, seed: u64) -> Result<(f64, f64), String> {
    let dataset = human_like_dataset(20_000, 10.0, false, splitmix64(seed));
    let input = work.join("serve-reads.fastq");
    let mut buf = Vec::new();
    hipmer_seqio::write_fastq(&mut buf, &dataset.all_reads())
        .and_then(|()| std::fs::write(&input, &buf))
        .map_err(|e| format!("{}: {e}", input.display()))?;

    let server = Server::start(
        ServeConfig {
            state_dir: work.join("serve-state"),
            pool_ranks: RANKS,
            ranks_per_node: RANKS_PER_NODE,
            pool_threads: Some(2),
            ..ServeConfig::default()
        },
        AssemblyExecutor::shared(),
    )
    .map_err(|e| format!("job server: {e}"))?;
    let spec = JobSpec {
        input: input.to_string_lossy().into_owned(),
        k: 21,
        ranks: RANKS,
        ranks_per_node: RANKS_PER_NODE,
        rounds: 1,
        metagenome: false,
        tenant: "benchmark".to_string(),
        priority: 0,
    };
    // One job per call, waited for: a closed loop of one client.
    let one_job = LoadgenConfig {
        addr: server.addr().to_string(),
        jobs: 1,
        rate_per_s: 0.0,
        duplicate_fraction: 0.0,
        specs: vec![spec],
        poll_interval: Duration::from_millis(1),
        timeout: Duration::from_secs(60),
    };
    let result = (|| {
        let cold = loadgen::run(&one_job).map_err(|e| format!("cold job: {e}"))?;
        if cold.completed != 1 || cold.cache_hits != 0 {
            return Err("the cold job did not complete as a cache miss".to_string());
        }
        let mut hits = Vec::with_capacity(RESUBMISSIONS);
        for _ in 0..RESUBMISSIONS {
            let hit = loadgen::run(&one_job).map_err(|e| format!("resubmission: {e}"))?;
            if hit.cache_hits != 1 {
                return Err("an identical resubmission missed the result cache".to_string());
            }
            hits.push(hit.p50_ms);
        }
        Ok((cold.p50_ms, crate::stats::median(&hits)))
    })();
    server.begin_drain();
    server.join();
    result
}
