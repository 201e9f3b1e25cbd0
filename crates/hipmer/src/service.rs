//! The assembly-side implementation of the job service: wires the real
//! five-stage pipeline into `hipmer-serve`'s generic [`JobExecutor`].
//!
//! One executor instance serves the whole daemon. Each job:
//!
//! * keys the result cache by a fingerprint of the **input file bytes**
//!   plus every output-affecting parameter (`k`, ranks, ranks-per-node,
//!   rounds, metagenome preset), so identical resubmissions hit and any
//!   parameter change misses;
//! * runs on a sub-[`Team`](hipmer_pgas::Team) carved from the daemon's shared
//!   [`hipmer_pgas::TeamPool`] lease; the job's measurements are its own
//!   `report.json` and `trace.json` (a private per-team recorder), stored
//!   and evicted with the job, so concurrent jobs share no observability
//!   state and the daemon's `/metrics` does not grow with the job count;
//!   a resume that fell back to a fresh run says so in the job's own
//!   completion summary (`"resume_fallback": true` in `done.json`);
//! * checkpoints every stage into the cache directory, so a drain-time
//!   interruption leaves a prefix that the next submission of the same
//!   spec resumes instead of recomputing.

use std::path::Path;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use hipmer_pgas::json::Value;
use hipmer_pgas::{trace, TeamLease};
use hipmer_serve::{ExecOutcome, JobExecutor, JobSpec};

use crate::checkpoint;
use crate::config::PipelineConfig;
use crate::pipeline::{run_assembly_fastq, PipelineError, RunOptions};

/// Number of trace ranks sampled per job (kept small: the daemon may run
/// many jobs, and each trace is stored in the result cache).
const TRACE_SAMPLE_RANKS: usize = 4;

/// [`JobExecutor`] running the real assembly pipeline.
#[derive(Debug, Default)]
pub struct AssemblyExecutor;

impl AssemblyExecutor {
    /// A boxed executor ready for [`hipmer_serve::Server::start`].
    pub fn shared() -> Arc<dyn JobExecutor> {
        Arc::new(AssemblyExecutor)
    }
}

/// The pipeline configuration a spec describes, through the constructor the
/// one-shot CLI also uses.
fn config_for(spec: &JobSpec) -> Result<PipelineConfig, String> {
    PipelineConfig::from_spec(spec.k, spec.rounds, spec.metagenome, &[])
}

impl JobExecutor for AssemblyExecutor {
    fn cache_key(&self, spec: &JobSpec) -> Result<String, String> {
        // Content fingerprint, not path: a re-simulated input at the same
        // path must miss, and the same reads under a new name must hit.
        let bytes = std::fs::read(&spec.input)
            .map_err(|e| format!("cannot read input {:?}: {e}", spec.input))?;
        config_for(spec)?; // reject invalid parameters at admission
        let material = format!(
            "{:016x}|k={}|ranks={}|rpn={}|rounds={}|meta={}",
            checkpoint::fnv1a(&bytes),
            spec.k,
            spec.ranks,
            spec.ranks_per_node,
            spec.rounds,
            spec.metagenome,
        );
        Ok(format!("{:016x}", checkpoint::fnv1a(material.as_bytes())))
    }

    fn execute(
        &self,
        _job_id: u64,
        spec: &JobSpec,
        lease: &TeamLease,
        out_dir: &Path,
        resume: bool,
        cancel: &Arc<AtomicBool>,
    ) -> ExecOutcome {
        let recorder = trace::Recorder::new(TRACE_SAMPLE_RANKS);

        let cfg = match config_for(spec) {
            Ok(c) => c,
            Err(e) => return ExecOutcome::Failed { error: e },
        };
        // The lease may have granted fewer ranks than requested (clamped
        // to the pool); the topology must stay valid either way.
        let rpn = spec.ranks_per_node.clamp(1, lease.ranks());
        let team = lease.team_with_rpn(rpn).with_recorder(recorder.clone());

        let opts = RunOptions {
            checkpoint_dir: Some(out_dir.join("checkpoints")),
            resume,
            cancel: Some(Arc::clone(cancel)),
            ..RunOptions::default()
        };
        let mut resume_fallback = false;
        let assembly = match run_assembly_fastq(&team, Path::new(&spec.input), &cfg, &opts) {
            Ok(a) => a,
            Err(PipelineError::Interrupted { .. }) => return ExecOutcome::Interrupted,
            Err(PipelineError::Io(e)) if resume => {
                // A corrupt checkpoint prefix must not wedge the job:
                // fall back to a fresh run under the same key.
                resume_fallback = true;
                let fresh = RunOptions {
                    resume: false,
                    ..opts.clone()
                };
                match run_assembly_fastq(&team, Path::new(&spec.input), &cfg, &fresh) {
                    Ok(a) => a,
                    Err(PipelineError::Interrupted { .. }) => return ExecOutcome::Interrupted,
                    Err(e2) => {
                        return ExecOutcome::Failed {
                            error: format!("resume failed ({e}); fresh run failed: {e2}"),
                        }
                    }
                }
            }
            Err(e) => {
                return ExecOutcome::Failed {
                    error: e.to_string(),
                }
            }
        };

        // Outputs: FASTA, report, per-job chrome trace.
        let fasta = assembly.to_fasta();
        let report = assembly.report.to_json();
        let trace_json = trace::chrome_trace_json(&recorder.take_events());
        for (name, bytes) in [
            ("scaffolds.fasta", fasta.as_slice()),
            ("report.json", report.as_bytes()),
            ("trace.json", trace_json.as_bytes()),
        ] {
            if let Err(e) = std::fs::write(out_dir.join(name), bytes) {
                return ExecOutcome::Failed {
                    error: format!("writing {name} failed: {e}"),
                };
            }
        }

        let s = &assembly.stats;
        let mut summary = Value::obj();
        summary
            .set("n_reads", s.n_reads)
            .set("n_contigs", s.n_contigs)
            .set("contig_n50", s.contig_n50)
            .set("n_scaffolds", s.n_scaffolds)
            .set("scaffold_n50", s.scaffold_n50)
            .set("scaffold_bases", s.scaffold_bases)
            .set("ranks", team.topo().ranks());
        if resume_fallback {
            summary.set("resume_fallback", true);
        }
        ExecOutcome::Completed { summary }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_reads(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("hipmer-svc-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("reads.fastq");
        let dataset = hipmer_readsim::human_like_dataset(6_000, 10.0, false, 31);
        let mut buf = Vec::new();
        hipmer_seqio::write_fastq(&mut buf, &dataset.all_reads()).unwrap();
        std::fs::write(&path, &buf).unwrap();
        path
    }

    fn spec_for(input: &Path) -> JobSpec {
        JobSpec {
            input: input.to_string_lossy().into_owned(),
            k: 21,
            ranks: 4,
            ranks_per_node: 2,
            rounds: 1,
            metagenome: false,
            tenant: "test".to_string(),
            priority: 0,
        }
    }

    #[test]
    fn cache_key_tracks_content_and_parameters() {
        let input = write_reads("key");
        let exec = AssemblyExecutor;
        let mut spec = spec_for(&input);
        let base = exec.cache_key(&spec).unwrap();
        assert_eq!(exec.cache_key(&spec).unwrap(), base, "deterministic");

        spec.k = 23;
        assert_ne!(exec.cache_key(&spec).unwrap(), base, "k changes the key");
        spec.k = 21;
        spec.tenant = "other".to_string();
        spec.priority = 9;
        assert_eq!(
            exec.cache_key(&spec).unwrap(),
            base,
            "scheduling metadata must not affect the key"
        );

        // Content change -> new key, even at the same path.
        let mut bytes = std::fs::read(&input).unwrap();
        bytes.extend_from_slice(b"@extra\nACGT\n+\nIIII\n");
        std::fs::write(&input, &bytes).unwrap();
        assert_ne!(exec.cache_key(&spec).unwrap(), base);

        spec.input = "/nonexistent/reads.fastq".to_string();
        assert!(exec.cache_key(&spec).is_err());
        std::fs::remove_dir_all(input.parent().unwrap()).ok();
    }

    #[test]
    fn a_resume_that_falls_back_says_so_in_its_summary() {
        let input = write_reads("fallback");
        let out_dir = input.parent().unwrap().join("out");
        let checkpoints = out_dir.join("checkpoints");
        std::fs::create_dir_all(&checkpoints).unwrap();
        std::fs::write(checkpoints.join("manifest.json"), "not json").unwrap();
        let pool = Arc::new(hipmer_pgas::TeamPool::new(4, 2));
        let cancel = Arc::new(AtomicBool::new(false));
        let spec = spec_for(&input);
        // The unreadable manifest sends the resume to a fresh run, which
        // leaves a good one behind: a fresh run after it has no fallback.
        for (resume, fallback) in [(true, Some(true)), (false, None)] {
            let lease = pool.try_lease(4).unwrap();
            let outcome = AssemblyExecutor.execute(1, &spec, &lease, &out_dir, resume, &cancel);
            let ExecOutcome::Completed { summary } = outcome else {
                panic!("resume={resume}: {outcome:?}");
            };
            let flag = summary.get("resume_fallback").and_then(Value::as_bool);
            assert_eq!(flag, fallback, "resume={resume}");
        }
        std::fs::remove_dir_all(input.parent().unwrap()).ok();
    }

    #[test]
    fn invalid_k_is_rejected_at_key_time() {
        let input = write_reads("badk");
        let exec = AssemblyExecutor;
        let mut spec = spec_for(&input);
        spec.k = 22; // even k is invalid
        assert!(exec.cache_key(&spec).is_err());
        std::fs::remove_dir_all(input.parent().unwrap()).ok();
    }
}
