//! Lock-free metric primitives and a named registry.
//!
//! [`Counter`], [`Gauge`], and [`Histogram`] are plain atomics safe to update
//! from any thread without locking; subsystems own `Arc`s to the primitives
//! they update (no name lookup on the hot path) and register those same `Arc`s
//! in a [`Registry`] by name. [`Registry::snapshot`] reads everything into a
//! [`MetricsSnapshot`] renderable as a stable JSON document or a
//! Prometheus-style text exposition.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::{json, unpoison};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// New counter at zero.
    pub fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Add `n` to the counter.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins gauge (current size, watermark, configuration value).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// New gauge at zero.
    pub fn new() -> Self {
        Gauge(AtomicU64::new(0))
    }

    /// Set the gauge.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A histogram over `u64` observations with fixed inclusive upper-bound
/// buckets (the last bound is always `u64::MAX`, the `+Inf` bucket), plus a
/// running sum and count. Buckets are atomics, so observation is lock-free.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<u64>,
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    /// Histogram with explicit inclusive upper bounds. Bounds must be strictly
    /// increasing; a final `u64::MAX` bound is appended if missing.
    pub fn with_bounds(bounds: &[u64]) -> Self {
        assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds must ascend");
        let mut bounds = bounds.to_vec();
        if bounds.last() != Some(&u64::MAX) {
            bounds.push(u64::MAX);
        }
        let buckets = bounds.iter().map(|_| AtomicU64::new(0)).collect();
        Histogram {
            bounds,
            buckets,
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Histogram with power-of-two bounds `1, 2, 4, …, 2^(n-2)` plus `+Inf` —
    /// the log-bucketed shape used for latencies and group sizes.
    pub fn log2(n: usize) -> Self {
        assert!(n >= 2, "need at least one finite bucket plus +Inf");
        let bounds: Vec<u64> = (0..n as u32 - 1).map(|i| 1u64 << i).collect();
        Histogram::with_bounds(&bounds)
    }

    /// Record one observation.
    pub fn observe(&self, v: u64) {
        let idx = self.bounds.partition_point(|&b| b < v);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// The inclusive upper bounds (last is `u64::MAX`).
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Per-bucket counts, in bound order.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }
}

/// A registered metric: a shared handle to one of the three primitives.
#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// A named directory of metrics. Registration takes a lock; updates through
/// the returned `Arc`s never do. Re-registering a name returns the existing
/// primitive (names are process-stable identities), panicking only if the
/// kind differs — that is always a programming error.
#[derive(Debug, Default)]
pub struct Registry {
    inner: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// New empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Get or create the counter registered under `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = unpoison(self.inner.lock());
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::new())))
        {
            Metric::Counter(c) => c.clone(),
            _ => panic!("metric {name} already registered with a different kind"),
        }
    }

    /// Get or create the gauge registered under `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = unpoison(self.inner.lock());
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::new())))
        {
            Metric::Gauge(g) => g.clone(),
            _ => panic!("metric {name} already registered with a different kind"),
        }
    }

    /// Get or create a histogram registered under `name`. `make` supplies the
    /// bucket layout on first registration and is ignored afterwards.
    pub fn histogram(&self, name: &str, make: impl FnOnce() -> Histogram) -> Arc<Histogram> {
        let mut map = unpoison(self.inner.lock());
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(make())))
        {
            Metric::Histogram(h) => h.clone(),
            _ => panic!("metric {name} already registered with a different kind"),
        }
    }

    /// Register an existing shared counter under `name` (for subsystems that
    /// own their primitives, like a catalog's trie-reuse counters). Panics if
    /// the name is taken by a different primitive instance.
    pub fn register_counter(&self, name: &str, counter: Arc<Counter>) {
        let mut map = unpoison(self.inner.lock());
        match map.entry(name.to_string()) {
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert(Metric::Counter(counter));
            }
            std::collections::btree_map::Entry::Occupied(e) => {
                let same = matches!(e.get(), Metric::Counter(c) if Arc::ptr_eq(c, &counter));
                assert!(same, "metric {name} already registered");
            }
        }
    }

    /// Register an existing shared gauge under `name`.
    pub fn register_gauge(&self, name: &str, gauge: Arc<Gauge>) {
        let mut map = unpoison(self.inner.lock());
        match map.entry(name.to_string()) {
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert(Metric::Gauge(gauge));
            }
            std::collections::btree_map::Entry::Occupied(e) => {
                let same = matches!(e.get(), Metric::Gauge(g) if Arc::ptr_eq(g, &gauge));
                assert!(same, "metric {name} already registered");
            }
        }
    }

    /// Read every registered metric into a point-in-time snapshot, sorted by
    /// name (the `BTreeMap` order), so renderings are stable across runs.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let map = unpoison(self.inner.lock());
        let entries = map
            .iter()
            .map(|(name, m)| {
                let value = match m {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::Histogram(h) => MetricValue::Histogram {
                        bounds: h.bounds().to_vec(),
                        counts: h.bucket_counts(),
                        sum: h.sum(),
                        count: h.count(),
                    },
                };
                (name.clone(), value)
            })
            .collect();
        MetricsSnapshot { entries }
    }
}

/// The snapshotted value of one metric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(u64),
    /// Histogram state: inclusive upper bounds, per-bucket counts, sum, count.
    Histogram {
        /// Inclusive upper bounds, last is `u64::MAX`.
        bounds: Vec<u64>,
        /// Observation counts per bucket.
        counts: Vec<u64>,
        /// Sum of observations.
        sum: u64,
        /// Number of observations.
        count: u64,
    },
}

/// A point-in-time view of every metric in a [`Registry`], in sorted name
/// order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    entries: Vec<(String, MetricValue)>,
}

impl MetricsSnapshot {
    /// The (name, value) entries in sorted name order.
    pub fn entries(&self) -> &[(String, MetricValue)] {
        &self.entries
    }

    /// Look up one metric by name.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.entries
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| &self.entries[i].1)
    }

    /// A counter's value, if `name` is a registered counter.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        match self.get(name)? {
            MetricValue::Counter(v) => Some(*v),
            _ => None,
        }
    }

    /// A gauge's value, if `name` is a registered gauge.
    pub fn gauge_value(&self, name: &str) -> Option<u64> {
        match self.get(name)? {
            MetricValue::Gauge(v) => Some(*v),
            _ => None,
        }
    }

    /// Render the snapshot as a stable, pretty-printed JSON document:
    /// one object keyed by metric name, each value tagged with its kind.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        for (i, (name, value)) in self.entries.iter().enumerate() {
            out.push_str(&format!("  \"{}\": ", json::escape(name)));
            match value {
                MetricValue::Counter(v) => {
                    out.push_str(&format!("{{\"type\": \"counter\", \"value\": {v}}}"));
                }
                MetricValue::Gauge(v) => {
                    out.push_str(&format!("{{\"type\": \"gauge\", \"value\": {v}}}"));
                }
                MetricValue::Histogram {
                    bounds,
                    counts,
                    sum,
                    count,
                } => {
                    out.push_str("{\"type\": \"histogram\", \"bounds\": [");
                    for (j, b) in bounds.iter().enumerate() {
                        if j > 0 {
                            out.push_str(", ");
                        }
                        // u64::MAX is the +Inf bucket; JSON numbers above
                        // 2^53 lose precision, so emit it as null
                        if *b == u64::MAX {
                            out.push_str("null");
                        } else {
                            out.push_str(&b.to_string());
                        }
                    }
                    out.push_str("], \"counts\": [");
                    for (j, c) in counts.iter().enumerate() {
                        if j > 0 {
                            out.push_str(", ");
                        }
                        out.push_str(&c.to_string());
                    }
                    out.push_str(&format!("], \"sum\": {sum}, \"count\": {count}}}"));
                }
            }
            out.push_str(if i + 1 < self.entries.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("}\n");
        out
    }

    /// Render the snapshot in the Prometheus text exposition format. Metric
    /// names are sanitized (`.`/`-` → `_`); histograms expand to cumulative
    /// `_bucket{le="…"}` series plus `_sum` and `_count`.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.entries {
            let pname: String = name
                .chars()
                .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
                .collect();
            match value {
                MetricValue::Counter(v) => {
                    out.push_str(&format!("# TYPE {pname} counter\n{pname} {v}\n"));
                }
                MetricValue::Gauge(v) => {
                    out.push_str(&format!("# TYPE {pname} gauge\n{pname} {v}\n"));
                }
                MetricValue::Histogram {
                    bounds,
                    counts,
                    sum,
                    count,
                } => {
                    out.push_str(&format!("# TYPE {pname} histogram\n"));
                    let mut cumulative = 0u64;
                    for (b, c) in bounds.iter().zip(counts) {
                        cumulative += c;
                        let le = if *b == u64::MAX {
                            "+Inf".to_string()
                        } else {
                            b.to_string()
                        };
                        out.push_str(&format!("{pname}_bucket{{le=\"{le}\"}} {cumulative}\n"));
                    }
                    out.push_str(&format!("{pname}_sum {sum}\n"));
                    out.push_str(&format!("{pname}_count {count}\n"));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn counter_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.set(7);
        assert_eq!(g.get(), 7);
        g.set(3);
        assert_eq!(g.get(), 3);
    }

    #[test]
    fn histogram_bucket_edges_are_inclusive() {
        // same shape as the service's group-size buckets
        let h = Histogram::with_bounds(&[1, 2, 4, 8, 16]);
        assert_eq!(h.bounds().len(), 6); // +Inf appended
        for v in [1, 2, 3, 4, 8, 16, 17, 1000] {
            h.observe(v);
        }
        assert_eq!(h.bucket_counts(), vec![1, 1, 2, 1, 1, 2]);
        assert_eq!(h.count(), 8);
        assert_eq!(h.sum(), 1 + 2 + 3 + 4 + 8 + 16 + 17 + 1000);
    }

    #[test]
    fn log2_histogram_covers_powers() {
        let h = Histogram::log2(8);
        assert_eq!(h.bounds(), &[1, 2, 4, 8, 16, 32, 64, u64::MAX]);
        h.observe(0);
        h.observe(64);
        h.observe(65);
        assert_eq!(h.bucket_counts(), vec![1, 0, 0, 0, 0, 0, 1, 1]);
    }

    #[test]
    fn registry_shares_primitives_by_name() {
        let r = Registry::new();
        let a = r.counter("x.hits");
        let b = r.counter("x.hits");
        a.add(2);
        b.add(3);
        assert_eq!(r.snapshot().counter_value("x.hits"), Some(5));
    }

    #[test]
    fn register_existing_primitive_is_idempotent() {
        let r = Registry::new();
        let c = Arc::new(Counter::new());
        r.register_counter("cache.hits", c.clone());
        r.register_counter("cache.hits", c.clone());
        c.add(9);
        assert_eq!(r.snapshot().counter_value("cache.hits"), Some(9));
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("m");
        r.gauge("m");
    }

    #[test]
    fn a_kind_mismatch_leaves_the_registry_answering() {
        let r = Registry::new();
        r.counter("m").add(4);
        let mismatch = std::panic::catch_unwind(|| r.gauge("m"));
        assert!(mismatch.is_err(), "a kind mismatch still panics");
        // the panic fired under the registry's lock: later calls must not
        // inherit it
        assert_eq!(r.snapshot().counter_value("m"), Some(4));
        r.counter("m").inc();
        r.gauge("g").set(2);
        let snap = r.snapshot();
        assert_eq!(snap.counter_value("m"), Some(5));
        assert_eq!(snap.gauge_value("g"), Some(2));
    }

    #[test]
    fn snapshot_json_is_stable_and_parses() {
        let r = Registry::new();
        r.counter("b.count").add(2);
        r.gauge("a.bytes").set(1024);
        r.histogram("c.lat_us", || Histogram::log2(4)).observe(3);
        let snap = r.snapshot();
        let doc = snap.to_json();
        // stable: same registry state renders byte-identically
        assert_eq!(doc, r.snapshot().to_json());
        let v = Json::parse(&doc).expect("snapshot JSON parses");
        assert_eq!(
            v.get("b.count").unwrap().get("value").unwrap().as_u64(),
            Some(2)
        );
        assert_eq!(
            v.get("c.lat_us").unwrap().get("count").unwrap().as_u64(),
            Some(1)
        );
        // sorted name order
        let names: Vec<&str> = snap.entries().iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["a.bytes", "b.count", "c.lat_us"]);
    }

    #[test]
    fn prometheus_exposition_has_cumulative_buckets() {
        let r = Registry::new();
        let h = r.histogram("svc.lat", || Histogram::with_bounds(&[1, 2]));
        h.observe(1);
        h.observe(2);
        h.observe(100);
        let text = r.snapshot().to_prometheus();
        assert!(text.contains("svc_lat_bucket{le=\"1\"} 1"));
        assert!(text.contains("svc_lat_bucket{le=\"2\"} 2"));
        assert!(text.contains("svc_lat_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("svc_lat_sum 103"));
        assert!(text.contains("svc_lat_count 3"));
    }
}
