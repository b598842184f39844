//! Counters, gauges and histograms with lock-free hot paths.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are cheap `Arc` clones
//! over atomics: instrumented code resolves a metric by name **once**
//! (registration takes a registry lock) and then updates it with plain
//! atomic operations, so per-event instrumentation costs one
//! `fetch_add` — cheap enough for the engine's solver hot path.
//!
//! A [`MetricsSnapshot`] is a point-in-time copy that renders to JSON
//! (machine consumption; round-trips through [`MetricsSnapshot::from_json`])
//! and to Prometheus-style exposition text (the CLI's `obs` dump).

use crate::json::{self, Value};
use crate::sync::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A monotonically increasing counter. `Counter::default()` is detached —
/// in no registry — which is what instrumented types hold until their
/// `set_obs` wires them to one.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A settable instantaneous value (stored as `f64` bits).
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Set the gauge.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Number of finite histogram bucket bounds: powers of 4 from 4^0 to
/// 4^15 (≈1.07e9), covering both small cardinalities (batch sizes, scope
/// sizes) and nanosecond latencies up to about a second. Everything
/// larger lands in the overflow (`+Inf`) bucket.
const HISTOGRAM_BOUNDS: usize = 16;

/// Upper bound of finite bucket `i`.
fn bucket_bound(i: usize) -> u64 {
    4u64.saturating_pow(i as u32)
}

struct HistogramCore {
    /// `HISTOGRAM_BOUNDS` finite buckets plus one overflow bucket.
    buckets: [AtomicU64; HISTOGRAM_BOUNDS + 1],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for HistogramCore {
    fn default() -> Self {
        HistogramCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// A fixed-bucket histogram of `u64` observations; `Histogram::default()`
/// is detached like [`Counter`]'s.
#[derive(Clone, Default)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    /// Record one observation.
    pub fn observe(&self, v: u64) {
        let idx = (0..HISTOGRAM_BOUNDS)
            .find(|&i| v <= bucket_bound(i))
            .unwrap_or(HISTOGRAM_BOUNDS);
        self.0.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Point-in-time copy of the bucket counts (for quantile estimates).
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: (0..HISTOGRAM_BOUNDS).map(bucket_bound).collect(),
            buckets: self.0.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            count: self.0.count.load(Ordering::Relaxed),
            sum: self.0.sum.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time copy of one histogram.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Finite bucket upper bounds (an implicit `+Inf` bucket follows).
    pub bounds: Vec<u64>,
    /// Per-bucket observation counts (`bounds.len() + 1` entries).
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Upper-bound estimate of the `q`-quantile (`q` in `[0, 1]`): the
    /// bound of the first bucket whose cumulative count reaches
    /// `ceil(q * count)`. Returns `None` for an empty histogram. Values
    /// that overflowed every finite bucket report the largest finite
    /// bound (the power-of-two buckets make this a ≤2x overestimate for
    /// in-range values — good enough for latency SLO gates).
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(c);
            if seen >= rank {
                return Some(match self.bounds.get(i) {
                    Some(&b) => b,
                    None => self.bounds.last().copied().unwrap_or(u64::MAX),
                });
            }
        }
        Some(self.bounds.last().copied().unwrap_or(u64::MAX))
    }
}

/// A named family of counters, gauges and histograms.
#[derive(Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

impl MetricsRegistry {
    /// Get or create the counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        self.counters.lock().entry(name.to_string()).or_default().clone()
    }

    /// Get or create the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.gauges.lock().entry(name.to_string()).or_default().clone()
    }

    /// Get or create the histogram `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.histograms.lock().entry(name.to_string()).or_default().clone()
    }

    /// Point-in-time copy of every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self.counters.lock().iter().map(|(k, v)| (k.clone(), v.get())).collect(),
            gauges: self.gauges.lock().iter().map(|(k, v)| (k.clone(), v.get())).collect(),
            histograms: self.histograms
                .lock()
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

/// Point-in-time copy of a whole [`MetricsRegistry`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram states by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

/// Sanitize a metric name for Prometheus exposition.
fn prom_name(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '_' || c == ':' { c } else { '_' })
        .collect()
}

impl MetricsSnapshot {
    /// Render as a single JSON object:
    /// `{"counters":{...},"gauges":{...},"histograms":{...}}`.
    pub fn to_json(&self) -> String {
        /// `,"k":` (no comma before the first member of an object).
        fn key(out: &mut String, first: bool, k: &str) {
            if !first {
                out.push(',');
            }
            #[expect(clippy::let_underscore_must_use, reason = "writing to a String cannot fail")]
            let _ = json::write_string(out, k);
            out.push(':');
        }
        fn u64_array(out: &mut String, values: &[u64]) {
            let items: Vec<String> = values.iter().map(u64::to_string).collect();
            out.push_str(&format!("[{}]", items.join(",")));
        }
        let mut out = String::with_capacity(256);
        out.push_str("{\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            key(&mut out, i == 0, k);
            out.push_str(&v.to_string());
        }
        out.push_str("},\"gauges\":{");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            key(&mut out, i == 0, k);
            // `{}` on f64 prints the shortest representation that parses
            // back to the same bits, so the round-trip is exact (NaN and
            // infinities are not representable in JSON; clamp to 0).
            let v = if v.is_finite() { *v } else { 0.0 };
            out.push_str(&v.to_string());
        }
        out.push_str("},\"histograms\":{");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            key(&mut out, i == 0, k);
            out.push_str("{\"bounds\":");
            u64_array(&mut out, &h.bounds);
            out.push_str(",\"buckets\":");
            u64_array(&mut out, &h.buckets);
            out.push_str(&format!(",\"count\":{},\"sum\":{}}}", h.count, h.sum));
        }
        out.push_str("}}");
        out
    }

    /// Parse a snapshot back from [`MetricsSnapshot::to_json`] output.
    /// A missing section reads as empty; an unknown one is an error.
    pub fn from_json(s: &str) -> Result<MetricsSnapshot, String> {
        fn unknown(field: &str) -> json::Error {
            json::Error::Shape { path: field.to_string(), message: "unknown field".into() }
        }
        fn map_of<T>(
            v: &Value,
            read: impl Fn(&Value) -> Result<T, json::Error>,
        ) -> Result<BTreeMap<String, T>, json::Error> {
            v.as_object()?
                .iter()
                .map(|(k, v)| Ok((k.clone(), read(v).map_err(|e| e.under(k))?)))
                .collect()
        }
        fn histogram(v: &Value) -> Result<HistogramSnapshot, json::Error> {
            const FIELDS: [&str; 4] = ["bounds", "buckets", "count", "sum"];
            if let Some((k, _)) = v.as_object()?.iter().find(|(k, _)| !FIELDS.contains(&k.as_str())) {
                return Err(unknown(k));
            }
            Ok(HistogramSnapshot {
                bounds: v.field("bounds", |b| b.list(Value::as_u64))?,
                buckets: v.field("buckets", |b| b.list(Value::as_u64))?,
                count: v.field("count", Value::as_u64)?,
                sum: v.field("sum", Value::as_u64)?,
            })
        }
        let read = |doc: &Value| {
            let mut snap = MetricsSnapshot::default();
            for (section, v) in doc.as_object()? {
                match section.as_str() {
                    "counters" => map_of(v, Value::as_u64).map(|m| snap.counters = m),
                    "gauges" => map_of(v, Value::as_f64).map(|m| snap.gauges = m),
                    "histograms" => map_of(v, histogram).map(|m| snap.histograms = m),
                    other => Err(unknown(other)),
                }
                .map_err(|e| e.under(section))?;
            }
            Ok(snap)
        };
        Value::parse(s).and_then(|doc| read(&doc)).map_err(|e: json::Error| e.to_string())
    }

    /// Render in the Prometheus text exposition format.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::with_capacity(256);
        for (k, v) in &self.counters {
            let name = prom_name(k);
            out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
        }
        for (k, v) in &self.gauges {
            let name = prom_name(k);
            out.push_str(&format!("# TYPE {name} gauge\n{name} {v}\n"));
        }
        for (k, h) in &self.histograms {
            let name = prom_name(k);
            out.push_str(&format!("# TYPE {name} histogram\n"));
            let mut cum = 0u64;
            for (i, b) in h.bounds.iter().enumerate() {
                cum += h.buckets.get(i).copied().unwrap_or(0);
                out.push_str(&format!("{name}_bucket{{le=\"{b}\"}} {cum}\n"));
            }
            cum += h.buckets.last().copied().unwrap_or(0);
            out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {cum}\n"));
            out.push_str(&format!("{name}_sum {}\n{name}_count {}\n", h.sum, h.count));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges() {
        let r = MetricsRegistry::default();
        let c = r.counter("hits");
        c.inc();
        c.add(2);
        // A second handle to the same name shares state.
        assert_eq!(r.counter("hits").get(), 3);
        r.gauge("load").set(0.75);
        assert_eq!(r.gauge("load").get(), 0.75);
    }

    #[test]
    fn histogram_buckets() {
        let r = MetricsRegistry::default();
        let h = r.histogram("sizes");
        h.observe(1);
        h.observe(4);
        h.observe(5);
        h.observe(u64::MAX);
        let s = r.snapshot().histograms["sizes"].clone();
        assert_eq!(s.count, 4);
        assert_eq!(s.buckets[0], 1); // 1 <= 4^0
        assert_eq!(s.buckets[1], 1); // 4 <= 4^1
        assert_eq!(s.buckets[2], 1); // 5 <= 4^2
        assert_eq!(*s.buckets.last().unwrap(), 1); // u64::MAX overflows
    }

    #[test]
    fn histogram_quantiles() {
        let r = MetricsRegistry::default();
        let h = r.histogram("lat");
        assert_eq!(h.snapshot().quantile(0.5), None, "empty histogram has no quantiles");
        for _ in 0..99 {
            h.observe(3); // bucket bound 4
        }
        h.observe(1000); // bucket bound 1024
        let s = h.snapshot();
        assert_eq!(s.quantile(0.5), Some(4));
        assert_eq!(s.quantile(0.99), Some(4));
        assert_eq!(s.quantile(1.0), Some(1024));
        assert_eq!(s.quantile(0.0), Some(4), "q=0 clamps to the first observation");
    }

    #[test]
    fn json_round_trips() {
        let r = MetricsRegistry::default();
        r.counter("a_total").add(7);
        r.gauge("frac").set(0.1 + 0.2); // not exactly 0.3 in binary64
        r.gauge("weird \"name\"\n").set(-1.5);
        let h = r.histogram("lat");
        h.observe(3);
        h.observe(1_000_000_000_000);
        let snap = r.snapshot();
        let parsed = MetricsSnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(parsed, snap);
    }

    #[test]
    fn prometheus_render_shape() {
        let r = MetricsRegistry::default();
        r.counter("hits total").inc();
        r.histogram("lat").observe(2);
        let text = r.snapshot().render_prometheus();
        assert!(text.contains("# TYPE hits_total counter"));
        assert!(text.contains("hits_total 1"));
        assert!(text.contains("lat_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("lat_count 1"));
    }

    #[test]
    fn from_json_rejects_garbage() {
        assert!(MetricsSnapshot::from_json("").is_err());
        assert!(MetricsSnapshot::from_json("{\"counters\":{}}trailing").is_err());
        assert!(MetricsSnapshot::from_json("{\"nope\":{}}").is_err());
    }
}
