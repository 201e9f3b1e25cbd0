//! The job server's metrics registry: named counters and gauges, always on.
//!
//! A *run*'s measurements live in the record the run returns
//! ([`crate::CommStats`] → [`crate::PipelineReport`]). What is left for a
//! process-wide registry is what belongs to no single run: the daemon's
//! admission, cache and pool tallies (`serve/*`, `pgas/pool/*`,
//! `hipmer/serve/*`), which `hipmer serve` exposes on `GET /metrics`
//! through [`prometheus_text`]. The set of names is fixed by the code that
//! records them — nothing is registered per job — so the exposition does
//! not grow with the daemon's uptime.
//!
//! Updates take the registry mutex; the instrumented sites are per request
//! or per lease, never per element.

use parking_lot::Mutex;
use std::collections::BTreeMap;

/// One registered metric's value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Metric {
    /// A monotonic counter.
    Counter(u64),
    /// A last-write-wins gauge.
    Gauge(f64),
}

static REGISTRY: Mutex<BTreeMap<String, Metric>> = Mutex::new(BTreeMap::new());

/// Add `delta` to the named monotonic counter (registered on first use;
/// saturating).
pub fn counter_add(name: &str, delta: u64) {
    let mut reg = REGISTRY.lock();
    match reg.entry(name.to_string()).or_insert(Metric::Counter(0)) {
        Metric::Counter(c) => *c = c.saturating_add(delta),
        Metric::Gauge(_) => debug_assert!(false, "metric {name:?} is not a counter"),
    }
}

/// Set the named gauge to `value` (last write wins).
pub fn gauge_set(name: &str, value: f64) {
    let mut reg = REGISTRY.lock();
    match reg.entry(name.to_string()).or_insert(Metric::Gauge(value)) {
        Metric::Gauge(g) => *g = value,
        Metric::Counter(_) => debug_assert!(false, "metric {name:?} is not a gauge"),
    }
}

/// Copy every registered metric, sorted by name.
pub fn snapshot() -> Vec<(String, Metric)> {
    let reg = REGISTRY.lock();
    reg.iter().map(|(name, m)| (name.clone(), *m)).collect()
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

/// Render the registry in Prometheus text-exposition format, one `# TYPE`
/// line and one sample per metric. Registry names are sanitized to the
/// Prometheus charset (`/` and `-` become `_`).
pub fn prometheus_text() -> String {
    use std::fmt::Write;
    let mut out = String::new();
    for (name, m) in snapshot() {
        let name = prometheus_name(&name);
        let _ = match m {
            Metric::Counter(c) => writeln!(out, "# TYPE {name} counter\n{name} {c}"),
            Metric::Gauge(g) => writeln!(out, "# TYPE {name} gauge\n{name} {g}"),
        };
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registry is shared with every other test of this binary (the
    /// pool tests record `pgas/pool/*`), so each test here uses names of
    /// its own and looks only at those.
    fn own(prefix: &str) -> Vec<(String, Metric)> {
        let mut own = snapshot();
        own.retain(|(name, _)| name.starts_with(prefix));
        own
    }

    #[test]
    fn counters_accumulate_and_saturate() {
        counter_add("test-c/c", 3);
        counter_add("test-c/c", 4);
        assert_eq!(own("test-c/"), [("test-c/c".into(), Metric::Counter(7))]);
        counter_add("test-c/c", u64::MAX);
        assert_eq!(
            own("test-c/"),
            [("test-c/c".into(), Metric::Counter(u64::MAX))],
            "saturating, not wrapping"
        );
    }

    #[test]
    fn gauge_set_overwrites() {
        gauge_set("test-g/g", 5.0);
        gauge_set("test-g/g", 2.0);
        assert_eq!(own("test-g/"), [("test-g/g".into(), Metric::Gauge(2.0))]);
    }

    #[test]
    fn prometheus_text_is_well_formed() {
        counter_add("test-p/sched/steals", 7);
        gauge_set("test-p/queue-depth", 1024.0);
        let text = prometheus_text();
        assert!(text.contains("# TYPE test_p_sched_steals counter\ntest_p_sched_steals 7\n"));
        assert!(text.contains("# TYPE test_p_queue_depth gauge\ntest_p_queue_depth 1024\n"));
    }

    #[test]
    fn prometheus_names_are_sanitized() {
        assert_eq!(prometheus_name("a/b-c.d"), "a_b_c_d");
        assert_eq!(prometheus_name("9lives"), "_9lives");
        assert_eq!(prometheus_name("ok_name:unit"), "ok_name:unit");
    }
}
