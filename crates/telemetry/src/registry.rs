//! The shared metrics registry.
//!
//! Two registration styles, one snapshot path:
//!
//! * **Owned** metrics ([`Registry::counter_with`] / [`Registry::gauge_with`])
//!   hand back a cloneable handle around an `Arc<AtomicU64>`. The handle is
//!   resolved once at startup; every subsequent [`Counter::inc`] /
//!   [`Counter::add`] is a single relaxed `fetch_add` — no lock, no
//!   allocation, no name lookup. This is the hot-path contract: a querier
//!   counts every send, answer and fault in such handles, and its final
//!   report is a snapshot of them.
//! * **Observed** metrics ([`Registry::observe_counter`] /
//!   [`Registry::observe_gauge`]) wrap a closure over state some subsystem
//!   already maintains (queue-depth cells, the in-flight count under the
//!   pending lock). The closure runs only at
//!   snapshot time — scrape cadence, not send cadence — so instrumenting an
//!   existing atomic is free on the hot path by construction.
//!
//! The registry's own lock guards registration and snapshot only; neither
//! is on the send path. Snapshots are sorted by `(name, labels)` so the
//! exposition (and anything derived from it, like manifest time-series) is
//! deterministic regardless of registration order.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

/// Counter or gauge — the only two shapes the pipeline needs, and the two
/// the Prometheus text exposition distinguishes with `# TYPE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically non-decreasing (sent, answered, faults).
    Counter,
    /// Instantaneous level (queue depth, in-flight).
    Gauge,
}

impl MetricKind {
    pub fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
        }
    }
}

/// Hot-path handle on an owned counter cell. Cloning shares the cell.
#[derive(Debug, Clone)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    #[inline]
    pub fn inc(&self) {
        self.cell.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        if n != 0 {
            self.cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// Hot-path handle on an owned gauge cell. Cloning shares the cell.
#[derive(Debug, Clone)]
pub struct Gauge {
    cell: Arc<AtomicU64>,
}

impl Gauge {
    #[inline]
    pub fn set(&self, v: u64) {
        self.cell.store(v, Ordering::Relaxed);
    }

    /// Relaxed add; pair with [`Gauge::sub`] so the level never wraps.
    #[inline]
    pub fn add(&self, n: u64) {
        if n != 0 {
            self.cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Relaxed subtract; callers must have added first (wraps otherwise).
    #[inline]
    pub fn sub(&self, n: u64) {
        if n != 0 {
            self.cell.fetch_sub(n, Ordering::Relaxed);
        }
    }

    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// One sampled metric value: everything the exposition needs, detached
/// from the live cells so rendering never holds the registry lock.
#[derive(Debug, Clone)]
pub struct Sample {
    pub name: String,
    pub help: String,
    pub kind: MetricKind,
    /// Sorted-at-registration label pairs (`shard="3"`).
    pub labels: Vec<(String, String)>,
    pub value: u64,
}

enum Source {
    Owned(Arc<AtomicU64>),
    Observed(Box<dyn Fn() -> u64 + Send + Sync>),
}

struct Metric {
    name: String,
    help: String,
    kind: MetricKind,
    labels: Vec<(String, String)>,
    source: Source,
}

/// Shared registry of named counters and gauges. Construct one per
/// process (or per experiment), hand `Arc<Registry>` to every subsystem
/// that should show up on the metrics endpoint.
#[derive(Default)]
pub struct Registry {
    metrics: Mutex<Vec<Metric>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("metrics", &self.metrics.lock().len())
            .finish()
    }
}

/// Prometheus metric names allow `[a-zA-Z_:][a-zA-Z0-9_:]*`; label names
/// drop the colon. Registration sanitizes rather than erroring — a bad
/// name becomes a legible-but-valid one instead of a runtime failure in
/// an observability layer that must never take the pipeline down.
fn sanitize(name: &str, allow_colon: bool) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphabetic()
            || c == '_'
            || (allow_colon && c == ':')
            || (i > 0 && c.is_ascii_digit());
        out.push(if ok { c } else { '_' });
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

fn clean_labels(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = labels
        .iter()
        .map(|(k, v)| (sanitize(k, false), v.to_string()))
        .collect();
    out.sort();
    out
}

impl Registry {
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Registers (or re-resolves) an owned counter with no labels.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.counter_with(name, help, &[])
    }

    /// Registers an owned counter. Re-registering the same
    /// `(name, labels)` returns a handle on the *existing* cell, so two
    /// subsystems (or two runs over one registry) share one count.
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        let cell = self.owned_cell(name, help, MetricKind::Counter, labels);
        Counter { cell }
    }

    /// Registers (or re-resolves) an owned gauge with no labels.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        self.gauge_with(name, help, &[])
    }

    /// Registers an owned gauge; same re-registration contract as
    /// [`Registry::counter_with`].
    pub fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        let cell = self.owned_cell(name, help, MetricKind::Gauge, labels);
        Gauge { cell }
    }

    /// Registers a counter whose value is read from `f` at snapshot time.
    /// Re-registering the same `(name, labels)` replaces the closure (the
    /// newest underlying state wins — e.g. a fresh replay run's counters).
    pub fn observe_counter(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        f: impl Fn() -> u64 + Send + Sync + 'static,
    ) {
        self.observed(name, help, MetricKind::Counter, labels, Box::new(f));
    }

    /// Gauge variant of [`Registry::observe_counter`].
    pub fn observe_gauge(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        f: impl Fn() -> u64 + Send + Sync + 'static,
    ) {
        self.observed(name, help, MetricKind::Gauge, labels, Box::new(f));
    }

    fn owned_cell(
        &self,
        name: &str,
        help: &str,
        kind: MetricKind,
        labels: &[(&str, &str)],
    ) -> Arc<AtomicU64> {
        let name = sanitize(name, true);
        let labels = clean_labels(labels);
        let mut metrics = self.metrics.lock();
        if let Some(m) = metrics
            .iter_mut()
            .find(|m| m.name == name && m.labels == labels)
        {
            if let Source::Owned(cell) = &m.source {
                return cell.clone();
            }
            // Was observed: promote to owned (fresh cell) below.
            let cell = Arc::new(AtomicU64::new(0));
            m.kind = kind;
            m.help = help.to_string();
            m.source = Source::Owned(cell.clone());
            return cell;
        }
        let cell = Arc::new(AtomicU64::new(0));
        metrics.push(Metric {
            name,
            help: help.to_string(),
            kind,
            labels,
            source: Source::Owned(cell.clone()),
        });
        cell
    }

    fn observed(
        &self,
        name: &str,
        help: &str,
        kind: MetricKind,
        labels: &[(&str, &str)],
        f: Box<dyn Fn() -> u64 + Send + Sync>,
    ) {
        let name = sanitize(name, true);
        let labels = clean_labels(labels);
        let mut metrics = self.metrics.lock();
        if let Some(m) = metrics
            .iter_mut()
            .find(|m| m.name == name && m.labels == labels)
        {
            m.kind = kind;
            m.help = help.to_string();
            m.source = Source::Observed(f);
            return;
        }
        metrics.push(Metric {
            name,
            help: help.to_string(),
            kind,
            labels,
            source: Source::Observed(f),
        });
    }

    /// Point-in-time values of every registered metric, sorted by
    /// `(name, labels)`. Counters read under relaxed ordering, so a
    /// snapshot taken concurrently with increments sees each cell's value
    /// at *some* moment during the snapshot — never a torn or decreasing
    /// counter.
    pub fn snapshot(&self) -> Vec<Sample> {
        let metrics = self.metrics.lock();
        let mut out: Vec<Sample> = metrics
            .iter()
            .map(|m| Sample {
                name: m.name.clone(),
                help: m.help.clone(),
                kind: m.kind,
                labels: m.labels.clone(),
                value: match &m.source {
                    Source::Owned(cell) => cell.load(Ordering::Relaxed),
                    Source::Observed(f) => f(),
                },
            })
            .collect();
        drop(metrics);
        out.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        out
    }

    /// Number of registered metrics (diagnostics/tests).
    pub fn len(&self) -> usize {
        self.metrics.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.metrics.lock().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owned_counter_roundtrip() {
        let reg = Registry::new();
        let c = reg.counter("ldp_test_total", "test counter");
        c.inc();
        c.add(4);
        c.add(0);
        assert_eq!(c.get(), 5);
        let snap = reg.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].value, 5);
        assert_eq!(snap[0].kind, MetricKind::Counter);
    }

    #[test]
    fn reregistration_shares_the_cell() {
        let reg = Registry::new();
        let a = reg.counter_with("ldp_shared_total", "h", &[("shard", "0")]);
        let b = reg.counter_with("ldp_shared_total", "h", &[("shard", "0")]);
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2, "same (name, labels) share one cell");
        assert_eq!(reg.len(), 1);
        // A different label set is a distinct metric.
        let c = reg.counter_with("ldp_shared_total", "h", &[("shard", "1")]);
        c.inc();
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn observed_metrics_read_at_snapshot_time() {
        let reg = Registry::new();
        let state = Arc::new(AtomicU64::new(7));
        let s = state.clone();
        reg.observe_gauge("ldp_depth", "queue depth", &[("shard", "2")], move || {
            s.load(Ordering::Relaxed)
        });
        assert_eq!(reg.snapshot()[0].value, 7);
        state.store(11, Ordering::Relaxed);
        assert_eq!(reg.snapshot()[0].value, 11);
    }

    #[test]
    fn snapshot_is_sorted_regardless_of_registration_order() {
        let reg = Registry::new();
        reg.counter_with("zzz_total", "z", &[]);
        reg.counter_with("aaa_total", "a", &[("shard", "1")]);
        reg.counter_with("aaa_total", "a", &[("shard", "0")]);
        let names: Vec<String> = reg
            .snapshot()
            .iter()
            .map(|s| format!("{}{:?}", s.name, s.labels))
            .collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }

    #[test]
    fn bad_names_are_sanitized_not_fatal() {
        let reg = Registry::new();
        let c = reg.counter_with("9bad name-total", "h", &[("bad key", "any value ok")]);
        c.inc();
        let snap = reg.snapshot();
        assert_eq!(snap[0].name, "_bad_name_total");
        assert_eq!(snap[0].labels[0].0, "bad_key");
        assert_eq!(snap[0].labels[0].1, "any value ok", "values pass through");
    }

    #[test]
    fn snapshot_consistent_under_concurrent_increments() {
        // The satellite-3 consistency test: hammer one counter from many
        // threads while snapshotting; every snapshot must be monotone and
        // the final value exact.
        let reg = Arc::new(Registry::new());
        let c = reg.counter("ldp_concurrent_total", "hammered");
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 50_000;
        let mut workers = Vec::new();
        for _ in 0..THREADS {
            let c = c.clone();
            workers.push(std::thread::spawn(move || {
                for _ in 0..PER_THREAD {
                    c.inc();
                }
            }));
        }
        let observer = {
            let reg = reg.clone();
            std::thread::spawn(move || {
                let mut last = 0u64;
                for _ in 0..200 {
                    let v = reg.snapshot()[0].value;
                    assert!(v >= last, "snapshot went backwards: {v} < {last}");
                    last = v;
                }
            })
        };
        for w in workers {
            w.join().unwrap();
        }
        observer.join().unwrap();
        assert_eq!(c.get(), THREADS as u64 * PER_THREAD, "no lost increments");
    }
}
