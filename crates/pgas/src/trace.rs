//! Structured tracing for SPMD phase execution.
//!
//! A [`crate::Team`] carrying a [`Recorder`] records one span per *sampled*
//! virtual rank per phase: when the rank started executing (relative to the
//! trace epoch), how long its body ran, how long it sat in the OS-thread
//! multiplex queue before starting, and the rank's [`CommStats`]. A team
//! without one records nothing and pays nothing.
//!
//! [`chrome_trace_json`] serializes the collected spans in the Chrome
//! trace-event format (`chrome://tracing`, Perfetto): one process, one lane
//! (`tid`) per rank, one `ph:"X"` complete event per phase execution, with
//! queue delay and every [`CommStats`] field attached as event `args`.
//!
//! Nothing here is process-global but the trace [`epoch`].

use crate::stats::CommStats;
use parking_lot::Mutex;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// One recorded rank-execution span: where and when a rank ran, plus the
/// rank's own record of the phase. The span's duration is
/// [`CommStats::exec_nanos`].
#[derive(Clone, Debug, PartialEq)]
pub struct SpanEvent {
    /// Phase label (e.g. `"contig/traverse"`).
    pub phase: String,
    /// Virtual rank the span belongs to.
    pub rank: usize,
    /// Nanoseconds from the trace epoch to the start of the rank body.
    pub start_nanos: u64,
    /// Nanoseconds the rank waited in the multiplex queue: time from phase
    /// launch (or, in a later superstep, from the barrier that started it)
    /// until an OS worker picked this rank up.
    pub queue_nanos: u64,
    /// The rank's counters at the end of its phase body (before the
    /// owner-side tallies [`crate::DistHashMap::drain_service_into`] adds).
    pub stats: CommStats,
}

/// A span recorder scoped to one [`Team`](crate::Team) (or any set of teams
/// that share a clone), so concurrent users — parallel tests, the jobs of a
/// multi-tenant server — never share a buffer. Attach it with
/// [`Team::with_recorder`](crate::Team::with_recorder) and that team's
/// phases record here unconditionally: the recorder's existence *is* the
/// enable flag.
///
/// Clones share the underlying buffer, so one recorder can span a
/// multi-team pipeline and be drained once at the end.
#[derive(Clone)]
pub struct Recorder {
    inner: Arc<RecorderInner>,
}

struct RecorderInner {
    sample_ranks: usize,
    events: Mutex<Vec<SpanEvent>>,
}

impl Recorder {
    /// A recorder sampling the first `sample_ranks` ranks of each phase
    /// (0 removes the cap and records every rank).
    pub fn new(sample_ranks: usize) -> Self {
        epoch(); // pin the epoch before any span is recorded
        Recorder {
            inner: Arc::new(RecorderInner {
                sample_ranks: if sample_ranks == 0 {
                    usize::MAX
                } else {
                    sample_ranks
                },
                events: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Ranks per phase whose spans this recorder keeps.
    pub fn sample_ranks(&self) -> usize {
        self.inner.sample_ranks
    }

    /// Append a batch of spans.
    pub fn record(&self, events: impl IntoIterator<Item = SpanEvent>) {
        self.inner.events.lock().extend(events);
    }

    /// Drain the collected spans, oldest first.
    pub fn take_events(&self) -> Vec<SpanEvent> {
        std::mem::take(&mut *self.inner.events.lock())
    }
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("sample_ranks", &self.inner.sample_ranks)
            .field("events", &self.inner.events.lock().len())
            .finish()
    }
}

/// The instant trace timestamps are measured from (fixed at first use).
pub fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Serialize spans in the Chrome trace-event JSON array format readable by
/// `chrome://tracing` and Perfetto: `ph:"X"` complete events with `ts` and
/// `dur` in microseconds, `pid` 1, and one `tid` lane per rank, preceded by
/// `ph:"M"` metadata events naming the process and each rank lane.
pub fn chrome_trace_json(events: &[SpanEvent]) -> String {
    use crate::json::Value;

    let mut out: Vec<Value> = Vec::with_capacity(events.len() + 8);

    let mut meta = Value::obj();
    meta.set("ph", "M")
        .set("name", "process_name")
        .set("pid", 1u64)
        .set("tid", 0u64);
    let mut args = Value::obj();
    args.set("name", "hipmer pgas ranks");
    meta.set("args", args);
    out.push(meta);

    let mut ranks: Vec<usize> = events.iter().map(|e| e.rank).collect();
    ranks.sort_unstable();
    ranks.dedup();
    for &rank in &ranks {
        let mut lane = Value::obj();
        lane.set("ph", "M")
            .set("name", "thread_name")
            .set("pid", 1u64)
            .set("tid", rank)
            .set("sort_index", rank);
        let mut args = Value::obj();
        args.set("name", format!("rank {rank}"));
        lane.set("args", args);
        out.push(lane);
    }

    for e in events {
        let mut span = Value::obj();
        span.set("ph", "X")
            .set("name", e.phase.as_str())
            .set("cat", "phase")
            .set("pid", 1u64)
            .set("tid", e.rank)
            .set("ts", e.start_nanos as f64 / 1e3)
            .set("dur", e.stats.exec_nanos as f64 / 1e3);
        let mut args = Value::obj();
        args.set("queue_us", e.queue_nanos as f64 / 1e3);
        for (name, _, value) in e.stats.fields() {
            args.set(name, value);
        }
        span.set("args", args);
        out.push(span);
    }

    Value::Arr(out).to_json()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;

    fn span(phase: &str, rank: usize, start: u64, dur: u64) -> SpanEvent {
        SpanEvent {
            phase: phase.to_string(),
            rank,
            start_nanos: start,
            queue_nanos: 250,
            stats: CommStats {
                barriers: 1,
                cache_hits: 40,
                exec_nanos: dur,
                ..CommStats::default()
            },
        }
    }

    #[test]
    fn chrome_trace_shape() {
        let events = vec![
            span("stage/a", 0, 1_000, 2_000),
            span("stage/b", 3, 5_000, 500),
        ];
        let text = chrome_trace_json(&events);
        let doc = Value::parse(&text).unwrap();
        let arr = doc.as_arr().unwrap();

        let metas: Vec<_> = arr
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some("M"))
            .collect();
        // process_name + one thread_name per distinct rank.
        assert_eq!(metas.len(), 3);

        let spans: Vec<_> = arr
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
            .collect();
        assert_eq!(spans.len(), 2);
        let s = spans[0];
        assert_eq!(s.get("name").and_then(Value::as_str), Some("stage/a"));
        assert_eq!(s.get("pid").and_then(Value::as_u64), Some(1));
        assert_eq!(s.get("tid").and_then(Value::as_u64), Some(0));
        assert_eq!(s.get("ts").and_then(Value::as_f64), Some(1.0)); // µs
        assert_eq!(s.get("dur").and_then(Value::as_f64), Some(2.0));
        let args = s.get("args").unwrap();
        assert_eq!(args.get("queue_us").and_then(Value::as_f64), Some(0.25));
        assert_eq!(args.get("barriers").and_then(Value::as_u64), Some(1));
        assert_eq!(args.get("cache_hits").and_then(Value::as_u64), Some(40));
        // The args are the queue delay plus the field table, nothing else.
        let names: Vec<&str> = crate::stats::FIELDS.iter().map(|f| f.0).collect();
        assert_eq!(args.keys()[0], "queue_us");
        assert_eq!(args.keys()[1..], names[..]);
    }

    #[test]
    fn awkward_phase_labels_survive_chrome_trace_round_trip() {
        // Control characters, quotes, backslashes, non-ASCII, and the
        // JS-hostile line separators must all come back intact.
        let labels = [
            "stage/\"quoted\"\\back\nnew\tline",
            "контиг-генерация/κ-мер 分析",
            "nul\u{0}bell\u{7}del\u{7f}",
            "line\u{2028}para\u{2029}end",
            "emoji 🧬 phase",
        ];
        let events: Vec<SpanEvent> = labels
            .iter()
            .enumerate()
            .map(|(i, l)| span(l, i, 100 * i as u64, 50))
            .collect();
        let text = chrome_trace_json(&events);
        let doc = Value::parse(&text).expect("valid JSON despite labels");
        let names: Vec<&str> = doc
            .as_arr()
            .unwrap()
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
            .map(|e| e.get("name").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(names, labels);
    }
}
