//! Job model for the assembly service: what a tenant submits
//! ([`JobSpec`]), how the server tracks it ([`JobRecord`]), and the JSON
//! wire forms of both.
//!
//! Timestamps are seconds since the *server's* start (monotonic), not wall
//! clock: latency math in the load generator subtracts pairs of them, so
//! only differences matter and monotonicity is what we need.

use hipmer_pgas::json::Value;

/// What a tenant submits: the assembly parameters plus scheduling
/// metadata. `input` is a path visible to the daemon (the service is
/// local-only; inputs travel by path, not by upload).
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    /// Path to the input reads (FASTQ), as seen by the daemon.
    pub input: String,
    /// k-mer length.
    pub k: usize,
    /// Virtual ranks requested from the shared [`hipmer_pgas::TeamPool`].
    pub ranks: usize,
    /// Virtual ranks per simulated node.
    pub ranks_per_node: usize,
    /// Scaffolding rounds.
    pub rounds: usize,
    /// Use the metagenome preset (iterating k not supported here; this
    /// toggles the preset configuration only).
    pub metagenome: bool,
    /// Tenant identity for quotas and fair-share accounting.
    pub tenant: String,
    /// Larger wins ties within a tenant. Default 0.
    pub priority: i64,
}

impl JobSpec {
    /// Parse a spec from the JSON body of `POST /v1/jobs`.
    ///
    /// Required: `input` (string), `tenant` (string). Everything else has
    /// a default matching the one-shot CLI (`k=21`, `ranks=8`,
    /// `ranks_per_node=4`, `rounds=1`).
    pub fn from_json(body: &[u8]) -> Result<JobSpec, String> {
        let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
        let v = Value::parse(text).map_err(|e| format!("bad JSON: {e:?}"))?;
        let str_field = |key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing or non-string field {key:?}"))
        };
        let num_field = |key: &str, default: usize| -> Result<usize, String> {
            match v.get(key) {
                None => Ok(default),
                Some(n) => n
                    .as_u64()
                    .map(|n| n as usize)
                    .ok_or_else(|| format!("field {key:?} must be a non-negative integer")),
            }
        };
        let spec = JobSpec {
            input: str_field("input")?,
            k: num_field("k", 21)?,
            ranks: num_field("ranks", 8)?,
            ranks_per_node: num_field("ranks_per_node", 4)?,
            rounds: num_field("rounds", 1)?,
            metagenome: v
                .get("metagenome")
                .and_then(Value::as_bool)
                .unwrap_or(false),
            tenant: str_field("tenant")?,
            priority: v
                .get("priority")
                .and_then(Value::as_f64)
                .map(|p| p as i64)
                .unwrap_or(0),
        };
        if spec.k == 0 || spec.ranks == 0 || spec.ranks_per_node == 0 {
            return Err("k, ranks, and ranks_per_node must be positive".to_string());
        }
        if spec.tenant.is_empty() {
            return Err("tenant must be non-empty".to_string());
        }
        Ok(spec)
    }

    /// The spec as JSON (embedded in job status documents).
    pub fn to_value(&self) -> Value {
        let mut v = Value::obj();
        v.set("input", self.input.as_str())
            .set("k", self.k)
            .set("ranks", self.ranks)
            .set("ranks_per_node", self.ranks_per_node)
            .set("rounds", self.rounds)
            .set("metagenome", self.metagenome)
            .set("tenant", self.tenant.as_str())
            .set("priority", self.priority as f64);
        v
    }
}

/// Lifecycle of a job inside the server.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobStatus {
    /// Admitted, waiting for the scheduler.
    Queued,
    /// Executing on a leased sub-team.
    Running,
    /// Finished; outputs are in the cache directory.
    Completed,
    /// Executor reported an error.
    Failed,
    /// Stopped at a stage boundary by drain/shutdown; checkpoints allow a
    /// later resubmission to resume.
    Interrupted,
    /// Removed from the queue before running (drain).
    Cancelled,
}

impl JobStatus {
    /// Lowercase wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Completed => "completed",
            JobStatus::Failed => "failed",
            JobStatus::Interrupted => "interrupted",
            JobStatus::Cancelled => "cancelled",
        }
    }

    /// True once the job can never run again in this server instance.
    pub fn is_terminal(self) -> bool {
        !matches!(self, JobStatus::Queued | JobStatus::Running)
    }
}

/// How the result cache served this job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheDisposition {
    /// Not yet dispatched, so not yet known.
    Unknown,
    /// No prior state under this cache key; full run.
    Miss,
    /// Valid checkpoint prefix found; run resumed mid-pipeline.
    Resumed,
    /// Complete cached outputs returned without running the pipeline.
    Hit,
}

impl CacheDisposition {
    /// Lowercase wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            CacheDisposition::Unknown => "unknown",
            CacheDisposition::Miss => "miss",
            CacheDisposition::Resumed => "resumed",
            CacheDisposition::Hit => "hit",
        }
    }
}

/// Server-side state of one submitted job.
#[derive(Clone, Debug)]
pub struct JobRecord {
    /// Server-assigned id, dense from 1.
    pub id: u64,
    /// The submitted spec.
    pub spec: JobSpec,
    /// Current lifecycle state.
    pub status: JobStatus,
    /// Cache key (content fingerprint + parameters), fixed at admission.
    pub cache_key: String,
    /// How the cache served this job; set at dispatch/completion.
    pub cache: CacheDisposition,
    /// Error text for `Failed`.
    pub error: Option<String>,
    /// Seconds since server start when the job was admitted.
    pub submitted_s: f64,
    /// Seconds since server start when execution began.
    pub started_s: Option<f64>,
    /// Seconds since server start when the job reached a terminal state.
    pub finished_s: Option<f64>,
    /// Ranks leased while running (0 otherwise).
    pub leased_ranks: usize,
}

impl JobRecord {
    /// A fresh queued record.
    pub fn new(id: u64, spec: JobSpec, cache_key: String, submitted_s: f64) -> JobRecord {
        JobRecord {
            id,
            spec,
            status: JobStatus::Queued,
            cache_key,
            cache: CacheDisposition::Unknown,
            error: None,
            submitted_s,
            started_s: None,
            finished_s: None,
            leased_ranks: 0,
        }
    }

    /// The job status document served at `GET /v1/jobs/<id>`.
    pub fn to_value(&self) -> Value {
        let mut v = Value::obj();
        v.set("id", self.id)
            .set("status", self.status.as_str())
            .set("cache", self.cache.as_str())
            .set("cache_key", self.cache_key.as_str())
            .set(
                "error",
                self.error
                    .as_deref()
                    .map(Value::from)
                    .unwrap_or(Value::Null),
            )
            .set("submitted_s", self.submitted_s)
            .set(
                "started_s",
                self.started_s.map(Value::from).unwrap_or(Value::Null),
            )
            .set(
                "finished_s",
                self.finished_s.map(Value::from).unwrap_or(Value::Null),
            )
            .set("leased_ranks", self.leased_ranks)
            .set("spec", self.spec.to_value());
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parses_with_defaults() {
        let spec =
            JobSpec::from_json(br#"{"input": "/data/reads.fastq", "tenant": "alice"}"#).unwrap();
        assert_eq!(spec.input, "/data/reads.fastq");
        assert_eq!(spec.tenant, "alice");
        assert_eq!(spec.k, 21);
        assert_eq!(spec.ranks, 8);
        assert_eq!(spec.ranks_per_node, 4);
        assert_eq!(spec.rounds, 1);
        assert!(!spec.metagenome);
        assert_eq!(spec.priority, 0);
    }

    #[test]
    fn spec_rejects_missing_tenant_and_bad_numbers() {
        assert!(JobSpec::from_json(br#"{"input": "/x"}"#).is_err());
        assert!(JobSpec::from_json(br#"{"input": "/x", "tenant": "t", "k": 0}"#).is_err());
        assert!(JobSpec::from_json(br#"{"input": "/x", "tenant": "t", "ranks": -3}"#).is_err());
        assert!(JobSpec::from_json(b"not json").is_err());
    }

    #[test]
    fn spec_round_trips_through_json() {
        let spec = JobSpec {
            input: "/data/r.fastq".into(),
            k: 31,
            ranks: 16,
            ranks_per_node: 8,
            rounds: 2,
            metagenome: true,
            tenant: "bob".into(),
            priority: 5,
        };
        let text = spec.to_value().to_json();
        let back = JobSpec::from_json(text.as_bytes()).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn record_document_has_wire_fields() {
        let spec = JobSpec::from_json(br#"{"input": "/x", "tenant": "t"}"#).unwrap();
        let mut rec = JobRecord::new(7, spec, "abc123".into(), 1.5);
        rec.status = JobStatus::Completed;
        rec.cache = CacheDisposition::Hit;
        rec.started_s = Some(2.0);
        rec.finished_s = Some(2.1);
        let v = rec.to_value();
        assert_eq!(v.get("id").and_then(Value::as_u64), Some(7));
        assert_eq!(v.get("status").and_then(Value::as_str), Some("completed"));
        assert_eq!(v.get("cache").and_then(Value::as_str), Some("hit"));
        assert_eq!(v.get("cache_key").and_then(Value::as_str), Some("abc123"));
        assert_eq!(v.get("error"), Some(&Value::Null));
        assert_eq!(
            v.get("spec")
                .and_then(|s| s.get("tenant"))
                .and_then(Value::as_str),
            Some("t")
        );
    }
}
