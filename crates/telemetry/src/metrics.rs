//! Metrics primitives: counters, gauges, fixed-bucket histograms, and a
//! registry with text/JSON snapshot export.
//!
//! All instruments are updated through `&self` with atomics, so handles
//! can be shared freely across threads (`Arc<Counter>` etc.). Snapshots
//! are taken by the [`MetricsRegistry`] without stopping writers; each
//! individual value is read atomically (a snapshot is not a consistent
//! cut across instruments, which is the standard trade-off).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::json::Value;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins floating-point gauge.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value (0.0 until first set).
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A histogram over fixed, caller-chosen bucket upper bounds.
///
/// Bucket `i` counts observations `v` with
/// `bounds[i-1] < v <= bounds[i]`; one implicit overflow bucket counts
/// everything above the last bound. Exact edge values land in the bucket
/// whose bound they equal (`le` semantics, as in Prometheus).
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<f64>,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// Sum of observations as f64 bits, updated by CAS.
    sum_bits: AtomicU64,
}

impl Histogram {
    /// Creates a histogram with the given strictly increasing upper
    /// bounds. Empty `bounds` is allowed and degenerates to a single
    /// overflow bucket: counts and sums still work, but quantiles have no
    /// bound to report and come back NaN.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is not strictly increasing.
    pub fn with_bounds(bounds: &[f64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing: {bounds:?}"
        );
        Histogram {
            bounds: bounds.to_vec(),
            buckets: (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0.0f64.to_bits()),
        }
    }

    /// `count` buckets spanning `[start, start + count*width]` in equal
    /// steps.
    pub fn linear(start: f64, width: f64, count: usize) -> Self {
        assert!(count > 0 && width > 0.0);
        let bounds: Vec<f64> = (1..=count).map(|i| start + width * i as f64).collect();
        Self::with_bounds(&bounds)
    }

    /// Records one observation.
    pub fn observe(&self, v: f64) {
        let idx = self.bounds.partition_point(|&b| v > b);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the histogram state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            counts: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            count: self.count(),
            sum: f64::from_bits(self.sum_bits.load(Ordering::Relaxed)),
        }
    }
}

/// Frozen histogram state.
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramSnapshot {
    /// Bucket upper bounds (the last bucket in `counts` is the overflow
    /// bucket above `bounds.last()`).
    pub bounds: Vec<f64>,
    /// Per-bucket observation counts (`bounds.len() + 1` entries).
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
}

impl HistogramSnapshot {
    /// Mean observation, or NaN when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.sum / self.count as f64
        }
    }

    /// Approximate quantile (`q` in `[0, 1]`) from the bucket counts,
    /// interpolating linearly within the containing bucket. NaN when
    /// empty; observations in the overflow bucket report the last bound,
    /// or NaN when there are no bounds at all (an empty-bounds histogram
    /// has no finite upper edge to attribute its mass to).
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile {q} out of [0, 1]");
        if self.count == 0 {
            return f64::NAN;
        }
        let last_bound = self.bounds.last().copied().unwrap_or(f64::NAN);
        let rank = q * self.count as f64;
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            let next = cum + c;
            if (next as f64) >= rank && c > 0 {
                let lo = if i == 0 { 0.0 } else { self.bounds[i - 1] };
                let hi = self.bounds.get(i).copied().unwrap_or(last_bound);
                let frac = ((rank - cum as f64) / c as f64).clamp(0.0, 1.0);
                return lo + (hi - lo) * frac;
            }
            cum = next;
        }
        last_bound
    }
}

/// One instrument's frozen state inside a [`MetricsSnapshot`].
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    /// A counter value.
    Counter(u64),
    /// A gauge value.
    Gauge(f64),
    /// A histogram state.
    Histogram(HistogramSnapshot),
}

/// A named registry of instruments.
///
/// `counter`/`gauge`/`histogram` get-or-create by name and hand back
/// `Arc` handles; the registry only locks during registration and
/// snapshotting, never on instrument updates.
#[derive(Default)]
pub struct MetricsRegistry {
    inner: Mutex<Vec<(String, Instrument)>>,
}

enum Instrument {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Gets or creates the counter `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different instrument
    /// type.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut inner = self.inner.lock().unwrap();
        if let Some((_, inst)) = inner.iter().find(|(n, _)| n == name) {
            match inst {
                Instrument::Counter(c) => return c.clone(),
                _ => panic!("metric {name:?} already registered with a different type"),
            }
        }
        let c = Arc::new(Counter::default());
        inner.push((name.to_string(), Instrument::Counter(c.clone())));
        c
    }

    /// Gets or creates the gauge `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different instrument
    /// type.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut inner = self.inner.lock().unwrap();
        if let Some((_, inst)) = inner.iter().find(|(n, _)| n == name) {
            match inst {
                Instrument::Gauge(g) => return g.clone(),
                _ => panic!("metric {name:?} already registered with a different type"),
            }
        }
        let g = Arc::new(Gauge::default());
        inner.push((name.to_string(), Instrument::Gauge(g.clone())));
        g
    }

    /// Gets or creates the histogram `name` (bounds apply only on
    /// creation).
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different instrument
    /// type, or if `bounds` are invalid.
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Arc<Histogram> {
        let mut inner = self.inner.lock().unwrap();
        if let Some((_, inst)) = inner.iter().find(|(n, _)| n == name) {
            match inst {
                Instrument::Histogram(h) => return h.clone(),
                _ => panic!("metric {name:?} already registered with a different type"),
            }
        }
        let h = Arc::new(Histogram::with_bounds(bounds));
        inner.push((name.to_string(), Instrument::Histogram(h.clone())));
        h
    }

    /// A point-in-time snapshot of every registered instrument, in
    /// registration order.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().unwrap();
        MetricsSnapshot {
            metrics: inner
                .iter()
                .map(|(name, inst)| {
                    let value = match inst {
                        Instrument::Counter(c) => MetricValue::Counter(c.get()),
                        Instrument::Gauge(g) => MetricValue::Gauge(g.get()),
                        Instrument::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                    };
                    (name.clone(), value)
                })
                .collect(),
        }
    }
}

/// A frozen view of a [`MetricsRegistry`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// `(name, value)` pairs in registration order.
    pub metrics: Vec<(String, MetricValue)>,
}

impl MetricsSnapshot {
    /// Looks up a metric by name.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.metrics.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// Human-readable one-metric-per-line rendering (histograms expand to
    /// count/mean/p50/p99 plus bucket rows).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.metrics {
            match value {
                MetricValue::Counter(c) => out.push_str(&format!("{name} {c}\n")),
                MetricValue::Gauge(g) => out.push_str(&format!("{name} {g}\n")),
                MetricValue::Histogram(h) => {
                    out.push_str(&format!(
                        "{name} count={} mean={:.4} p50={:.4} p99={:.4}\n",
                        h.count,
                        h.mean(),
                        h.quantile(0.5),
                        h.quantile(0.99)
                    ));
                    for (i, &c) in h.counts.iter().enumerate() {
                        let le = h
                            .bounds
                            .get(i)
                            .map(|b| format!("{b}"))
                            .unwrap_or_else(|| "+inf".to_string());
                        out.push_str(&format!("{name}{{le={le}}} {c}\n"));
                    }
                }
            }
        }
        out
    }

    /// JSON rendering of the snapshot.
    pub fn to_json(&self) -> Value {
        let mut obj = Value::obj();
        for (name, value) in &self.metrics {
            let v = match value {
                MetricValue::Counter(c) => Value::obj().set("type", "counter").set("value", *c),
                MetricValue::Gauge(g) => Value::obj().set("type", "gauge").set("value", *g),
                MetricValue::Histogram(h) => Value::obj()
                    .set("type", "histogram")
                    .set("count", h.count)
                    .set("sum", h.sum)
                    .set("mean", h.mean())
                    .set("p50", h.quantile(0.5))
                    .set("p99", h.quantile(0.99))
                    .set("bounds", Value::Arr(h.bounds.iter().map(|&b| Value::Num(b)).collect()))
                    .set("counts", Value::Arr(h.counts.iter().map(|&c| Value::from(c)).collect())),
            };
            obj = obj.set(name, v);
        }
        obj
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("steps");
        let g = reg.gauge("loss");
        c.inc();
        c.add(4);
        g.set(0.25);
        assert_eq!(c.get(), 5);
        assert_eq!(g.get(), 0.25);
        // Get-or-create returns the same instrument.
        reg.counter("steps").inc();
        assert_eq!(c.get(), 6);
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn type_mismatch_panics() {
        let reg = MetricsRegistry::new();
        reg.counter("x");
        reg.gauge("x");
    }

    #[test]
    fn histogram_bucket_edges_are_inclusive_upper() {
        let h = Histogram::with_bounds(&[1.0, 2.0, 4.0]);
        h.observe(0.5); // bucket 0: <= 1.0
        h.observe(1.0); // bucket 0: exactly on the edge
        h.observe(1.0000001); // bucket 1
        h.observe(2.0); // bucket 1: exactly on the edge
        h.observe(4.0); // bucket 2
        h.observe(100.0); // overflow bucket
        let s = h.snapshot();
        assert_eq!(s.counts, vec![2, 2, 1, 1]);
        assert_eq!(s.count, 6);
        assert!((s.sum - 108.5000001).abs() < 1e-6);
    }

    #[test]
    fn histogram_quantiles_interpolate() {
        let h = Histogram::linear(0.0, 1.0, 10); // bounds 1..=10
        for i in 0..100 {
            h.observe(i as f64 / 10.0); // uniform over [0, 9.9]
        }
        let s = h.snapshot();
        let p50 = s.quantile(0.5);
        assert!((p50 - 5.0).abs() < 1.0, "p50 = {p50}");
        assert!(s.quantile(1.0) >= s.quantile(0.5));
        assert!((s.mean() - 4.95).abs() < 1e-9);
    }

    #[test]
    fn histogram_empty_is_nan() {
        let s = Histogram::with_bounds(&[1.0]).snapshot();
        assert!(s.mean().is_nan());
        assert!(s.quantile(0.5).is_nan());
    }

    #[test]
    fn quantile_is_monotonic_in_q() {
        let h = Histogram::with_bounds(&[1.0, 2.0, 4.0, 8.0]);
        for v in [0.1, 0.5, 1.5, 1.7, 3.0, 3.9, 5.0, 7.5, 9.0, 20.0] {
            h.observe(v);
        }
        let s = h.snapshot();
        let mut prev = f64::NEG_INFINITY;
        for i in 0..=100 {
            let q = i as f64 / 100.0;
            let v = s.quantile(q);
            assert!(v >= prev, "quantile({q}) = {v} < quantile at previous q = {prev}");
            prev = v;
        }
    }

    #[test]
    fn quantile_endpoints() {
        let h = Histogram::with_bounds(&[1.0, 2.0, 4.0]);
        h.observe(1.5);
        h.observe(1.6);
        h.observe(3.0);
        let s = h.snapshot();
        // q = 0 sits at the lower edge of the first non-empty bucket.
        assert_eq!(s.quantile(0.0), 1.0);
        // q = 1 sits at the upper edge of the last non-empty bucket.
        assert_eq!(s.quantile(1.0), 4.0);
    }

    #[test]
    fn quantile_single_bucket() {
        let h = Histogram::with_bounds(&[10.0]);
        for _ in 0..4 {
            h.observe(3.0);
        }
        let s = h.snapshot();
        for q in [0.0, 0.25, 0.5, 1.0] {
            let v = s.quantile(q);
            assert!((0.0..=10.0).contains(&v), "quantile({q}) = {v} outside bucket [0, 10]");
        }
        assert_eq!(s.quantile(1.0), 10.0);
    }

    #[test]
    fn quantile_overflow_bucket_reports_last_bound() {
        let h = Histogram::with_bounds(&[1.0, 2.0]);
        h.observe(100.0);
        h.observe(200.0);
        let s = h.snapshot();
        assert_eq!(s.counts, vec![0, 0, 2]);
        assert_eq!(s.quantile(0.5), 2.0);
        assert_eq!(s.quantile(1.0), 2.0);
    }

    #[test]
    fn empty_bounds_histogram_does_not_panic() {
        // Regression test: quantile (and to_text/to_json through it) used
        // to panic on `bounds.last().unwrap()` for a boundless histogram.
        let reg = MetricsRegistry::new();
        let h = reg.histogram("boundless", &[]);
        h.observe(5.0);
        h.observe(7.0);
        let s = h.snapshot();
        assert_eq!(s.counts, vec![2]);
        assert_eq!(s.count, 2);
        assert!((s.mean() - 6.0).abs() < 1e-12);
        assert!(s.quantile(0.0).is_nan());
        assert!(s.quantile(0.5).is_nan());
        assert!(s.quantile(1.0).is_nan());
        let snap = reg.snapshot();
        assert!(snap.to_text().contains("boundless{le=+inf} 2"));
        // NaN quantiles serialize as null — the document must still parse.
        let parsed = crate::json::parse(&snap.to_json().to_compact()).unwrap();
        assert_eq!(
            parsed.get("boundless").and_then(|m| m.get("count")).and_then(Value::as_f64),
            Some(2.0)
        );
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_bounds_panic() {
        Histogram::with_bounds(&[2.0, 1.0]);
    }

    #[test]
    fn concurrent_counter_increments_sum_exactly() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("hits");
        let h = reg.histogram("vals", &[10.0, 100.0, 1000.0]);
        std::thread::scope(|scope| {
            for t in 0..8 {
                let c = c.clone();
                let h = h.clone();
                scope.spawn(move || {
                    for i in 0..10_000 {
                        c.inc();
                        h.observe((t * 100 + i % 7) as f64);
                    }
                });
            }
        });
        assert_eq!(c.get(), 80_000);
        let s = h.snapshot();
        assert_eq!(s.count, 80_000);
        assert_eq!(s.counts.iter().sum::<u64>(), 80_000);
    }

    #[test]
    fn snapshot_text_and_json_roundtrip() {
        let reg = MetricsRegistry::new();
        reg.counter("steps").add(3);
        reg.gauge("lr").set(0.01);
        reg.histogram("lat_us", &[10.0, 100.0]).observe(42.0);
        let snap = reg.snapshot();
        let text = snap.to_text();
        assert!(text.contains("steps 3"));
        assert!(text.contains("lr 0.01"));
        assert!(text.contains("lat_us{le=100} 1"));
        let json = snap.to_json();
        let parsed = crate::json::parse(&json.to_pretty()).unwrap();
        assert_eq!(
            parsed.get("steps").and_then(|m| m.get("value")).and_then(Value::as_f64),
            Some(3.0)
        );
        assert_eq!(
            parsed.get("lat_us").and_then(|m| m.get("count")).and_then(Value::as_f64),
            Some(1.0)
        );
    }
}
