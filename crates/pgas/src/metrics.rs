//! Process-wide metrics registry: named counters, gauges, and log-bucketed
//! histograms.
//!
//! [`crate::trace`] answers *when* each rank ran; this module answers *how
//! much* — table occupancy, shard-lock contention, wire bytes per shipped
//! batch, checkpoint I/O latency, allocation high-water marks. The registry
//! is process-global for the same reason the tracer is: one flag covers
//! every `Team`, `DistHashMap`, and `Outbox` a pipeline constructs
//! internally.
//!
//! ## Cost contract
//!
//! Identical to the tracer's: when disabled (the default), every recording
//! entry point is **one relaxed atomic load and a branch** — no locks, no
//! allocation, no name hashing. When enabled, updates take the registry
//! mutex; that is acceptable because the instrumented sites are batch-level
//! (one update per shipped buffer, per phase, per checkpoint), not
//! per-element.
//!
//! ## Histograms
//!
//! Histograms are HDR-style with power-of-two buckets: bucket 0 counts
//! zeros and bucket `i >= 1` counts values in `[2^(i-1), 2^i - 1]`, so 65
//! buckets cover the full `u64` range with ≤ 2× relative error — plenty
//! for latency/size distributions whose interesting structure spans orders
//! of magnitude.
//!
//! ## Measured-execution counter (DESIGN.md §12)
//!
//! Lock waiting reports itself through this registry (never through a new
//! [`crate::CommStats`] field, which would change the report schema):
//! `pgas/dht/lock_contention` counts rank-partition locks an accessor
//! found held and then waited for.
//!
//! ## Exposition
//!
//! [`to_json`] renders the registry as a stable JSON document
//! (`metrics_schema_version` 1) and [`prometheus_text`] as Prometheus
//! text-exposition format (anticipating a `hipmer serve` scrape endpoint).
//! [`heartbeat`] additionally emits rate-limited progress lines (items
//! done / total per pool) to stderr or a JSONL sink.

use crate::json::Value;
use parking_lot::Mutex;
use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Histogram bucket count: bucket 0 for zero, buckets 1..=64 for each
/// power-of-two magnitude.
const BUCKETS: usize = 65;

/// One registered metric's live state.
enum Metric {
    Counter(u64),
    Gauge(f64),
    Histogram(Box<Hist>),
}

/// Log-bucketed histogram state (see module docs for bucket semantics).
struct Hist {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: [u64; BUCKETS],
}

impl Hist {
    fn new() -> Self {
        Hist {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; BUCKETS],
        }
    }

    fn observe(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.buckets[bucket_index(v)] += 1;
    }
}

/// The bucket index of `v`: 0 for zero, else `64 - leading_zeros`, i.e.
/// the bit length of `v`.
fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// The inclusive upper bound of bucket `i` (`2^i - 1`; bucket 64 saturates
/// at `u64::MAX`).
fn bucket_upper_bound(i: usize) -> u64 {
    if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static REGISTRY: Mutex<BTreeMap<String, Metric>> = Mutex::new(BTreeMap::new());

thread_local! {
    /// The recording scope of the current thread (see [`scoped`]).
    static SCOPE: RefCell<Option<Arc<str>>> = const { RefCell::new(None) };
}

/// Restores the previous thread scope on drop (see [`scoped`]).
pub struct ScopeGuard {
    prev: Option<Arc<str>>,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        SCOPE.with(|s| *s.borrow_mut() = self.prev.take());
    }
}

/// Prefix every metric this thread records with `label` until the
/// returned guard drops: a counter `pgas/dht/entries` recorded under the
/// scope `job/3` registers as `job/3/pgas/dht/entries`, and heartbeat
/// pools are prefixed the same way. This is how a multi-tenant server
/// keeps concurrent jobs' counters and heartbeat JSONL lines from
/// interleaving in the process-wide registry. [`crate::Team`] propagates
/// the spawning thread's scope into its OS worker threads, so everything
/// a job's phases record lands under the job's label.
///
/// Scopes nest: entering a scope while one is active appends
/// (`outer/inner/...`); the guard restores the outer scope.
pub fn scoped(label: &str) -> ScopeGuard {
    let prev = SCOPE.with(|s| s.borrow().clone());
    let full: Arc<str> = match &prev {
        Some(outer) => format!("{outer}/{label}").into(),
        None => label.into(),
    };
    SCOPE.with(|s| *s.borrow_mut() = Some(full));
    ScopeGuard { prev }
}

/// The current thread's recording scope, if any — captured by [`crate::Team`]
/// before spawning phase workers so they inherit it via [`inherit_scope`].
pub fn current_scope() -> Option<Arc<str>> {
    SCOPE.with(|s| s.borrow().clone())
}

/// Adopt `scope` (a [`current_scope`] capture) on this thread until the
/// guard drops; replaces, rather than nests under, any existing scope.
pub fn inherit_scope(scope: Option<Arc<str>>) -> ScopeGuard {
    let prev = SCOPE.with(|s| s.replace(scope));
    ScopeGuard { prev }
}

/// `name` under the current thread scope (borrowed when unscoped — the
/// common one-shot-CLI case pays nothing).
fn with_scope<'a>(name: &'a str) -> Cow<'a, str> {
    match SCOPE.with(|s| s.borrow().clone()) {
        Some(scope) => Cow::Owned(format!("{scope}/{name}")),
        None => Cow::Borrowed(name),
    }
}

/// Heartbeat emission state: rate limit and sink, plus per-pool last-emit
/// timestamps.
struct HeartbeatState {
    interval: Option<Duration>,
    sink: Option<PathBuf>,
    last: BTreeMap<String, Instant>,
}

static HEARTBEAT: Mutex<HeartbeatState> = Mutex::new(HeartbeatState {
    interval: None,
    sink: None,
    last: BTreeMap::new(),
});

/// The instant heartbeat elapsed-seconds are measured from (fixed at first
/// use, like [`crate::trace::epoch`]).
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Turn the registry on. Recording entry points start taking effect;
/// already-registered values are kept.
pub fn enable() {
    epoch();
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turn the registry off. Values stay readable via [`snapshot`] /
/// [`to_json`] / [`prometheus_text`] until [`reset`].
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether the registry is recording.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Clear every registered metric and all heartbeat rate-limit state (the
/// enabled flag is left as-is). Mostly for tests.
pub fn reset() {
    REGISTRY.lock().clear();
    let mut hb = HEARTBEAT.lock();
    hb.last.clear();
}

/// Add `delta` to the named monotonic counter (registered on first use).
#[inline]
pub fn counter_add(name: &str, delta: u64) {
    if !is_enabled() {
        return;
    }
    counter_add_slow(name, delta);
}

#[cold]
fn counter_add_slow(name: &str, delta: u64) {
    let name = with_scope(name);
    let mut reg = REGISTRY.lock();
    match reg.entry(name.to_string()).or_insert(Metric::Counter(0)) {
        Metric::Counter(c) => *c = c.saturating_add(delta),
        _ => debug_assert!(false, "metric {name:?} is not a counter"),
    }
}

/// Set the named gauge to `value` (last write wins).
#[inline]
pub fn gauge_set(name: &str, value: f64) {
    if !is_enabled() {
        return;
    }
    gauge_update_slow(name, value, false);
}

/// Raise the named gauge to `value` if it is higher than the current
/// reading — the high-water-mark update used for occupancy and allocation
/// peaks.
#[inline]
pub fn gauge_max(name: &str, value: f64) {
    if !is_enabled() {
        return;
    }
    gauge_update_slow(name, value, true);
}

#[cold]
fn gauge_update_slow(name: &str, value: f64, max_only: bool) {
    let name = with_scope(name);
    let mut reg = REGISTRY.lock();
    match reg
        .entry(name.to_string())
        .or_insert(Metric::Gauge(f64::NEG_INFINITY))
    {
        Metric::Gauge(g) => {
            if !max_only || value > *g {
                *g = value;
            }
        }
        _ => debug_assert!(false, "metric {name:?} is not a gauge"),
    }
}

/// Record one observation in the named log-bucketed histogram.
#[inline]
pub fn observe(name: &str, value: u64) {
    if !is_enabled() {
        return;
    }
    observe_slow(name, value);
}

#[cold]
fn observe_slow(name: &str, value: u64) {
    let name = with_scope(name);
    let mut reg = REGISTRY.lock();
    match reg
        .entry(name.to_string())
        .or_insert_with(|| Metric::Histogram(Box::new(Hist::new())))
    {
        Metric::Histogram(h) => h.observe(value),
        _ => debug_assert!(false, "metric {name:?} is not a histogram"),
    }
}

/// Record pool progress (`delta_done` newly completed items out of
/// `total`) and emit a rate-limited heartbeat line. The cumulative done
/// count lives in the counter `progress/<pool>/done` and the total in the
/// gauge `progress/<pool>/total`, so progress is also visible in
/// [`to_json`] / [`prometheus_text`] output.
pub fn pool_progress(pool: &str, delta_done: u64, total: u64) {
    if !is_enabled() {
        return;
    }
    let pool = with_scope(pool);
    let done = {
        let mut reg = REGISTRY.lock();
        let done = match reg
            .entry(format!("progress/{pool}/done"))
            .or_insert(Metric::Counter(0))
        {
            Metric::Counter(c) => {
                *c = c.saturating_add(delta_done);
                *c
            }
            _ => 0,
        };
        if let Metric::Gauge(g) = reg
            .entry(format!("progress/{pool}/total"))
            .or_insert(Metric::Gauge(0.0))
        {
            *g = total as f64;
        }
        done
    };
    heartbeat_scoped(&pool, done, total);
}

/// How often (at most) one heartbeat line per pool is emitted. `None`
/// (the default) suppresses emission entirely; progress counters are still
/// maintained by [`pool_progress`].
pub fn set_heartbeat_interval(interval: Option<Duration>) {
    HEARTBEAT.lock().interval = interval;
}

/// Where heartbeat lines go: `Some(path)` appends JSONL records
/// (`{"pool":...,"done":...,"total":...,"elapsed_seconds":...}`), `None`
/// (the default) writes human-readable lines to stderr.
pub fn set_heartbeat_sink(path: Option<PathBuf>) {
    HEARTBEAT.lock().sink = path;
}

/// Emit one progress heartbeat for `pool` (`done` items of `total`),
/// subject to the configured rate limit and sink. A no-op unless the
/// registry is enabled and an interval was set. The pool label is
/// prefixed with the current thread's recording scope (see [`scoped`]),
/// so concurrent jobs' heartbeat lines stay distinguishable.
pub fn heartbeat(pool: &str, done: u64, total: u64) {
    if !is_enabled() {
        return;
    }
    heartbeat_scoped(&with_scope(pool), done, total);
}

/// [`heartbeat`] body for a pool label that is already scope-qualified.
fn heartbeat_scoped(pool: &str, done: u64, total: u64) {
    let (sink, elapsed) = {
        let mut hb = HEARTBEAT.lock();
        let Some(interval) = hb.interval else {
            return;
        };
        let now = Instant::now();
        if let Some(last) = hb.last.get(pool) {
            if now.duration_since(*last) < interval {
                return;
            }
        }
        hb.last.insert(pool.to_string(), now);
        (hb.sink.clone(), epoch().elapsed().as_secs_f64())
    };
    match sink {
        None => {
            let pct = if total > 0 {
                100.0 * done as f64 / total as f64
            } else {
                0.0
            };
            eprintln!("hipmer: heartbeat pool={pool} done={done} total={total} ({pct:.1}%)");
        }
        Some(path) => {
            let mut line = Value::obj();
            line.set("pool", pool)
                .set("done", done)
                .set("total", total)
                .set("elapsed_seconds", elapsed);
            let _ = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)
                .and_then(|mut f| writeln!(f, "{}", line.to_json()));
        }
    }
}

/// A point-in-time copy of one registered metric.
#[derive(Clone, Debug, PartialEq)]
pub enum MetricSnapshot {
    /// A monotonic counter: `(name, value)`.
    Counter(String, u64),
    /// A gauge: `(name, value)`.
    Gauge(String, f64),
    /// A histogram snapshot.
    Histogram(HistogramSnapshot),
}

impl MetricSnapshot {
    /// The metric's registered name.
    pub fn name(&self) -> &str {
        match self {
            MetricSnapshot::Counter(n, _) => n,
            MetricSnapshot::Gauge(n, _) => n,
            MetricSnapshot::Histogram(h) => &h.name,
        }
    }
}

/// A point-in-time copy of one histogram's state.
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramSnapshot {
    /// The metric's registered name.
    pub name: String,
    /// Observations recorded.
    pub count: u64,
    /// Sum of observed values (saturating).
    pub sum: u64,
    /// Smallest observed value (0 when empty).
    pub min: u64,
    /// Largest observed value (0 when empty).
    pub max: u64,
    /// Non-empty buckets as `(inclusive_upper_bound, count)`, ascending.
    pub buckets: Vec<(u64, u64)>,
}

/// Copy every registered metric, sorted by name.
pub fn snapshot() -> Vec<MetricSnapshot> {
    let reg = REGISTRY.lock();
    reg.iter()
        .map(|(name, m)| match m {
            Metric::Counter(c) => MetricSnapshot::Counter(name.clone(), *c),
            Metric::Gauge(g) => MetricSnapshot::Gauge(name.clone(), *g),
            Metric::Histogram(h) => MetricSnapshot::Histogram(HistogramSnapshot {
                name: name.clone(),
                count: h.count,
                sum: h.sum,
                min: if h.count == 0 { 0 } else { h.min },
                max: h.max,
                buckets: h
                    .buckets
                    .iter()
                    .enumerate()
                    .filter(|(_, &c)| c > 0)
                    .map(|(i, &c)| (bucket_upper_bound(i), c))
                    .collect(),
            }),
        })
        .collect()
}

/// Serialize the registry as a JSON document:
/// `{"metrics_schema_version":1,"metrics":[...]}` with one object per
/// metric (`{"name","type","value"}` for counters/gauges;
/// `{"name","type","count","sum","min","max","buckets":[{"le","count"}]}`
/// for histograms). Metrics appear sorted by name, so the output is
/// deterministic for a given registry state.
pub fn to_json() -> String {
    let mut doc = Value::obj();
    doc.set("metrics_schema_version", 1u64);
    let metrics: Vec<Value> = snapshot()
        .iter()
        .map(|m| {
            let mut v = Value::obj();
            match m {
                MetricSnapshot::Counter(name, c) => {
                    v.set("name", name.as_str())
                        .set("type", "counter")
                        .set("value", *c);
                }
                MetricSnapshot::Gauge(name, g) => {
                    v.set("name", name.as_str())
                        .set("type", "gauge")
                        .set("value", *g);
                }
                MetricSnapshot::Histogram(h) => {
                    v.set("name", h.name.as_str())
                        .set("type", "histogram")
                        .set("count", h.count)
                        .set("sum", h.sum)
                        .set("min", h.min)
                        .set("max", h.max);
                    let buckets: Vec<Value> = h
                        .buckets
                        .iter()
                        .map(|&(le, count)| {
                            let mut b = Value::obj();
                            b.set("le", le).set("count", count);
                            b
                        })
                        .collect();
                    v.set("buckets", Value::Arr(buckets));
                }
            }
            v
        })
        .collect();
    doc.set("metrics", Value::Arr(metrics));
    doc.to_json()
}

/// Map a registry name onto the Prometheus metric-name charset
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`): every other character becomes `_`, and a
/// leading digit is prefixed with `_`.
fn prometheus_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, c) in name.chars().enumerate() {
        let keep = c.is_ascii_alphanumeric() || c == '_' || c == ':';
        if i == 0 && c.is_ascii_digit() {
            out.push('_');
        }
        out.push(if keep { c } else { '_' });
    }
    out
}

/// Render the registry in Prometheus text-exposition format: counters and
/// gauges as single samples, histograms as cumulative `_bucket{le=...}`
/// series plus `_sum` and `_count`. Registry names are sanitized to the
/// Prometheus charset (`/` and `-` become `_`).
pub fn prometheus_text() -> String {
    use std::fmt::Write;
    let mut out = String::new();
    for m in snapshot() {
        let name = prometheus_name(m.name());
        match m {
            MetricSnapshot::Counter(_, c) => {
                let _ = writeln!(out, "# TYPE {name} counter\n{name} {c}");
            }
            MetricSnapshot::Gauge(_, g) => {
                let _ = writeln!(out, "# TYPE {name} gauge\n{name} {g}");
            }
            MetricSnapshot::Histogram(h) => {
                let _ = writeln!(out, "# TYPE {name} histogram");
                let mut cumulative = 0u64;
                for (le, count) in &h.buckets {
                    cumulative += count;
                    let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
                }
                let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count);
                let _ = writeln!(out, "{name}_sum {}", h.sum);
                let _ = writeln!(out, "{name}_count {}", h.count);
            }
        }
    }
    out
}

/// Serializes tests — crate-wide — that toggle the process-global
/// registry. Any test that calls [`enable`] must hold this.
#[cfg(test)]
pub(crate) static TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    /// What this module's tests recorded: every name they use has a `test/`
    /// component. Other lib tests run phases and ship lookups in parallel
    /// without [`TEST_LOCK`], and whatever they record while the registry
    /// happens to be enabled (`pgas/lookup/wire_bytes`, …) must not shift
    /// a positional assert.
    fn own_snapshot() -> Vec<MetricSnapshot> {
        let mut own = snapshot();
        own.retain(|m| m.name().contains("test/"));
        own
    }

    fn with_clean_registry<R>(f: impl FnOnce() -> R) -> R {
        let _guard = TEST_LOCK.lock().unwrap();
        reset();
        enable();
        let out = f();
        disable();
        reset();
        out
    }

    #[test]
    fn disabled_recording_is_a_no_op() {
        let _guard = TEST_LOCK.lock().unwrap();
        reset();
        disable();
        counter_add("test/noop", 5);
        gauge_set("test/noop_gauge", 1.0);
        observe("test/noop_hist", 42);
        pool_progress("test/noop", 1, 10);
        assert!(own_snapshot().is_empty());
    }

    #[test]
    fn counters_accumulate_and_saturate() {
        with_clean_registry(|| {
            counter_add("test/c", 3);
            counter_add("test/c", 4);
            counter_add("test/c", u64::MAX);
            match &own_snapshot()[..] {
                [MetricSnapshot::Counter(name, v)] => {
                    assert_eq!(name, "test/c");
                    assert_eq!(*v, u64::MAX, "saturating, not wrapping");
                }
                other => panic!("unexpected snapshot {other:?}"),
            }
        });
    }

    #[test]
    fn gauge_set_overwrites_and_gauge_max_keeps_high_water() {
        with_clean_registry(|| {
            gauge_set("test/g", 5.0);
            gauge_set("test/g", 2.0);
            gauge_max("test/hw", 1.0);
            gauge_max("test/hw", 9.0);
            gauge_max("test/hw", 3.0);
            let snap = own_snapshot();
            assert_eq!(snap[0], MetricSnapshot::Gauge("test/g".into(), 2.0));
            assert_eq!(snap[1], MetricSnapshot::Gauge("test/hw".into(), 9.0));
        });
    }

    #[test]
    fn histogram_buckets_are_powers_of_two() {
        // Bucket semantics: 0 -> bucket 0, [2^(i-1), 2^i - 1] -> bucket i.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(255), 8);
        assert_eq!(bucket_index(256), 9);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(8), 255);
        assert_eq!(bucket_upper_bound(64), u64::MAX);

        with_clean_registry(|| {
            for v in [0u64, 1, 2, 3, 200, 300, u64::MAX] {
                observe("test/h", v);
            }
            match &own_snapshot()[..] {
                [MetricSnapshot::Histogram(h)] => {
                    assert_eq!(h.count, 7);
                    assert_eq!(h.min, 0);
                    assert_eq!(h.max, u64::MAX);
                    assert_eq!(h.sum, u64::MAX, "sum saturates");
                    assert_eq!(
                        h.buckets,
                        vec![
                            (0, 1),        // 0
                            (1, 1),        // 1
                            (3, 2),        // 2, 3
                            (255, 1),      // 200
                            (511, 1),      // 300
                            (u64::MAX, 1), // u64::MAX
                        ]
                    );
                }
                other => panic!("unexpected snapshot {other:?}"),
            }
        });
    }

    #[test]
    fn json_exposition_parses_and_carries_schema() {
        with_clean_registry(|| {
            counter_add("test/contended_locks", 2);
            gauge_set("test/entries", 128.0);
            observe("test/wire_bytes", 4096);
            let doc = Value::parse(&to_json()).expect("valid JSON");
            assert_eq!(
                doc.get("metrics_schema_version").and_then(Value::as_u64),
                Some(1)
            );
            let name = |m: &Value| m.get("name").and_then(Value::as_str).unwrap().to_string();
            let metrics: Vec<&Value> = (doc.get("metrics").unwrap().as_arr().unwrap().iter())
                .filter(|m| name(m).starts_with("test/"))
                .collect();
            let names: Vec<_> = metrics.iter().map(|m| name(m)).collect();
            assert_eq!(
                names,
                vec!["test/contended_locks", "test/entries", "test/wire_bytes"]
            );
            let hist = metrics[2];
            assert_eq!(hist.get("type").and_then(Value::as_str), Some("histogram"));
            assert_eq!(hist.get("count").and_then(Value::as_u64), Some(1));
            let buckets = hist.get("buckets").unwrap().as_arr().unwrap();
            assert_eq!(buckets[0].get("le").and_then(Value::as_u64), Some(8191));
        });
    }

    #[test]
    fn prometheus_text_is_well_formed() {
        with_clean_registry(|| {
            counter_add("sched/steals", 7);
            gauge_set("mem/peak_bytes/kmer-analysis", 1024.0);
            observe("checkpoint/save_nanos", 1000);
            observe("checkpoint/save_nanos", 3000);
            let text = prometheus_text();
            assert!(text.contains("# TYPE sched_steals counter\nsched_steals 7\n"));
            assert!(text.contains("mem_peak_bytes_kmer_analysis 1024\n"));
            assert!(text.contains("# TYPE checkpoint_save_nanos histogram"));
            assert!(text.contains("checkpoint_save_nanos_bucket{le=\"+Inf\"} 2"));
            assert!(text.contains("checkpoint_save_nanos_sum 4000"));
            assert!(text.contains("checkpoint_save_nanos_count 2"));
            // Cumulative bucket counts are monotonic by construction; both
            // observations fall in (1024, 4095] buckets.
            assert!(text.contains("checkpoint_save_nanos_bucket{le=\"1023\"} 1"));
            assert!(text.contains("checkpoint_save_nanos_bucket{le=\"4095\"} 2"));
        });
    }

    #[test]
    fn prometheus_names_are_sanitized() {
        assert_eq!(prometheus_name("a/b-c.d"), "a_b_c_d");
        assert_eq!(prometheus_name("9lives"), "_9lives");
        assert_eq!(prometheus_name("ok_name:unit"), "ok_name:unit");
    }

    #[test]
    fn pool_progress_maintains_counters_without_interval() {
        with_clean_registry(|| {
            // No heartbeat interval set: nothing is emitted, but the
            // progress counters still accumulate.
            pool_progress("test/sched", 10, 100);
            pool_progress("test/sched", 30, 100);
            let snap = own_snapshot();
            assert_eq!(
                snap[0],
                MetricSnapshot::Counter("progress/test/sched/done".into(), 40)
            );
            assert_eq!(
                snap[1],
                MetricSnapshot::Gauge("progress/test/sched/total".into(), 100.0)
            );
        });
    }

    #[test]
    fn heartbeat_jsonl_sink_appends_records() {
        with_clean_registry(|| {
            let path = std::env::temp_dir().join(format!(
                "hipmer-metrics-hb-{}-{:?}.jsonl",
                std::process::id(),
                std::thread::current().id()
            ));
            std::fs::remove_file(&path).ok();
            set_heartbeat_interval(Some(Duration::from_secs(0)));
            set_heartbeat_sink(Some(path.clone()));
            heartbeat("stage", 1, 5);
            heartbeat("stage", 2, 5);
            set_heartbeat_sink(None);
            set_heartbeat_interval(None);
            let text = std::fs::read_to_string(&path).unwrap();
            let lines: Vec<_> = text.lines().collect();
            assert_eq!(lines.len(), 2);
            let rec = Value::parse(lines[1]).unwrap();
            assert_eq!(rec.get("pool").and_then(Value::as_str), Some("stage"));
            assert_eq!(rec.get("done").and_then(Value::as_u64), Some(2));
            assert_eq!(rec.get("total").and_then(Value::as_u64), Some(5));
            assert!(rec.get("elapsed_seconds").and_then(Value::as_f64).is_some());
            std::fs::remove_file(&path).ok();
        });
    }

    #[test]
    fn scoped_recording_prefixes_names_and_restores() {
        with_clean_registry(|| {
            counter_add("test/c", 1);
            {
                let _job = scoped("job/7");
                counter_add("test/c", 2);
                gauge_set("test/g", 1.0);
                observe("test/h", 4);
                {
                    let _inner = scoped("stage");
                    counter_add("test/c", 5);
                }
                counter_add("test/c", 10);
            }
            counter_add("test/c", 100);
            let names: Vec<String> = own_snapshot()
                .iter()
                .map(|m| m.name().to_string())
                .collect();
            assert_eq!(
                names,
                vec![
                    "job/7/stage/test/c",
                    "job/7/test/c",
                    "job/7/test/g",
                    "job/7/test/h",
                    "test/c",
                ]
            );
            match &own_snapshot()[..] {
                [MetricSnapshot::Counter(_, nested), MetricSnapshot::Counter(_, scoped), _, _, MetricSnapshot::Counter(_, bare)] =>
                {
                    assert_eq!((*nested, *scoped, *bare), (5, 12, 101));
                }
                other => panic!("unexpected snapshot {other:?}"),
            }
        });
    }

    #[test]
    fn scoped_pool_progress_separates_jobs() {
        with_clean_registry(|| {
            {
                let _a = scoped("job/1");
                pool_progress("test/stages", 2, 5);
            }
            {
                let _b = scoped("job/2");
                pool_progress("test/stages", 3, 5);
            }
            let snap = own_snapshot();
            assert_eq!(
                snap[0],
                MetricSnapshot::Counter("progress/job/1/test/stages/done".into(), 2)
            );
            assert_eq!(
                snap[2],
                MetricSnapshot::Counter("progress/job/2/test/stages/done".into(), 3)
            );
        });
    }

    #[test]
    fn inherited_scope_replaces_and_restores() {
        with_clean_registry(|| {
            let captured = {
                let _outer = scoped("job/9");
                current_scope()
            };
            assert_eq!(captured.as_deref(), Some("job/9"));
            {
                let _worker = inherit_scope(captured);
                counter_add("test/c", 1);
            }
            assert!(current_scope().is_none(), "guard restored no-scope");
            assert_eq!(own_snapshot()[0].name(), "job/9/test/c");
        });
    }

    #[test]
    fn heartbeat_respects_rate_limit() {
        with_clean_registry(|| {
            let path = std::env::temp_dir().join(format!(
                "hipmer-metrics-rl-{}-{:?}.jsonl",
                std::process::id(),
                std::thread::current().id()
            ));
            std::fs::remove_file(&path).ok();
            set_heartbeat_interval(Some(Duration::from_secs(3600)));
            set_heartbeat_sink(Some(path.clone()));
            for i in 0..10 {
                heartbeat("limited", i, 10);
            }
            set_heartbeat_sink(None);
            set_heartbeat_interval(None);
            let text = std::fs::read_to_string(&path).unwrap();
            assert_eq!(text.lines().count(), 1, "only the first emission lands");
            std::fs::remove_file(&path).ok();
        });
    }
}
