//! `remos-obs`: hand-rolled observability for the Remos reproduction.
//!
//! Three facilities, all dependency-free and embeddable from the bottom
//! of the workspace's dependency graph (`remos-net`) upward:
//!
//! * **Metrics** — a [`MetricsRegistry`] of counters, gauges and
//!   histograms. Handles are resolved once and updated with single
//!   atomic operations, so hot paths (the engine's rate solver) pay one
//!   `fetch_add` per event. Snapshots render to JSON (round-trippable)
//!   and Prometheus exposition text.
//! * **Traces** — a [`TraceRecorder`] ring buffer of [`Span`] boundaries
//!   and events. Timestamps are injected by the caller (simulated time
//!   in-repo), so traces are deterministic: two identical runs produce
//!   bit-identical trace digests.
//! * **Clock injection** — latency measurement only happens when a
//!   top-level binary installs a [`ClockSource`] ([`WallClock`]);
//!   library code never reads wall-clock time (see `remos-audit`).
//!
//! The [`Obs`] handle bundles all three and is `Clone` (shared
//! internals), so one handle can be threaded through the simulator, the
//! SNMP manager, the collector, the Remos facade and the adaptation
//! layer — producing a single unified snapshot.

pub mod clock;
pub mod fnv;
pub mod json;
pub mod metrics;
pub mod sync;
pub mod trace;

pub use clock::{ClockSource, ManualClock, WallClock};
pub use fnv::Fnv;
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot};
pub use trace::{TraceKind, TraceRecord, TraceRecorder, DEFAULT_TRACE_CAPACITY};

use std::sync::Arc;
use sync::Mutex;

/// Shared observability handle: metrics + traces + optional clock.
#[derive(Clone)]
pub struct Obs {
    metrics: Arc<MetricsRegistry>,
    trace: Arc<Mutex<TraceRecorder>>,
    clock: Arc<Mutex<Option<Box<dyn ClockSource>>>>,
}

impl Default for Obs {
    fn default() -> Self {
        Self::new()
    }
}

impl Obs {
    /// Fresh handle with the default trace capacity.
    pub fn new() -> Obs {
        Obs::with_trace_capacity(DEFAULT_TRACE_CAPACITY)
    }

    /// Fresh handle keeping at most `capacity` trace records.
    pub fn with_trace_capacity(capacity: usize) -> Obs {
        Obs {
            metrics: Arc::new(MetricsRegistry::default()),
            trace: Arc::new(Mutex::new(TraceRecorder::new(capacity))),
            clock: Arc::new(Mutex::new(None)),
        }
    }

    /// Get or create a counter.
    pub fn counter(&self, name: &str) -> Counter {
        self.metrics.counter(name)
    }

    /// Get or create a gauge.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.metrics.gauge(name)
    }

    /// Get or create a histogram.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.metrics.histogram(name)
    }

    /// Point-in-time copy of every metric.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Record an instantaneous event at injected time `t_nanos`.
    pub fn event(&self, name: &'static str, t_nanos: u64, attrs: &[(&'static str, u64)]) {
        self.trace.lock().record(TraceKind::Event, name, t_nanos, attrs);
    }

    /// Open a span at injected time `t_nanos`. Close it with
    /// [`Span::end`]; an unclosed span simply never records its end
    /// (spans are not RAII on purpose — ends carry attributes and an
    /// explicit timestamp).
    pub fn span(&self, name: &'static str, t_nanos: u64) -> Span {
        self.trace.lock().record(TraceKind::SpanStart, name, t_nanos, &[]);
        Span { obs: self.clone(), name }
    }

    /// Order-sensitive digest over every trace record so far.
    pub fn trace_digest(&self) -> u64 {
        self.trace.lock().digest()
    }

    /// Total trace records ever appended (including evicted ones).
    pub fn trace_recorded(&self) -> u64 {
        self.trace.lock().recorded()
    }

    /// Copy of the records currently held by the ring buffer.
    pub fn trace_records(&self) -> Vec<TraceRecord> {
        self.trace.lock().records().cloned().collect()
    }

    /// Install a latency clock. Until one is installed,
    /// [`Obs::clock_nanos`] returns `None` and latency histograms stay
    /// empty — the deterministic default.
    pub fn set_clock(&self, clock: Box<dyn ClockSource>) {
        *self.clock.lock() = Some(clock);
    }

    /// Read the injected clock, if any.
    pub fn clock_nanos(&self) -> Option<u64> {
        self.clock.lock().as_ref().map(|c| c.nanos())
    }
}

/// An open span; close it with [`Span::end`].
pub struct Span {
    obs: Obs,
    name: &'static str,
}

impl Span {
    /// Close the span at injected time `t_nanos` with attributes.
    pub fn end(self, t_nanos: u64, attrs: &[(&'static str, u64)]) {
        self.obs.trace.lock().record(TraceKind::SpanEnd, self.name, t_nanos, attrs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_handle_shares_state() {
        let obs = Obs::new();
        let other = obs.clone();
        obs.counter("x").inc();
        other.counter("x").add(2);
        assert_eq!(obs.metrics_snapshot().counters["x"], 3);
        obs.event("e", 1, &[]);
        assert_eq!(other.trace_recorded(), 1);
    }

    #[test]
    fn spans_record_both_ends() {
        let obs = Obs::new();
        let span = obs.span("solve", 100);
        span.end(100, &[("flows", 7)]);
        let recs = obs.trace_records();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].kind, TraceKind::SpanStart);
        assert_eq!(recs[1].kind, TraceKind::SpanEnd);
        assert_eq!(recs[1].attrs(), &[("flows", 7)]);
    }

    #[test]
    fn clock_is_absent_by_default() {
        let obs = Obs::new();
        assert_eq!(obs.clock_nanos(), None);
        let manual = ManualClock::new();
        manual.set(42);
        obs.set_clock(Box::new(manual));
        assert_eq!(obs.clock_nanos(), Some(42));
    }

    #[test]
    fn identical_runs_identical_digests() {
        let run = || {
            let obs = Obs::new();
            for i in 0..20u64 {
                let s = obs.span("tick", i * 10);
                s.end(i * 10, &[("i", i)]);
                obs.event("mark", i * 10 + 5, &[("v", i * i)]);
            }
            obs.trace_digest()
        };
        assert_eq!(run(), run());
    }
}
