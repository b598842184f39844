//! Structured traces: spans and events in a bounded ring buffer with a
//! running order-sensitive digest.
//!
//! Timestamps are **injected** by the caller as raw nanoseconds — in the
//! simulator they are `SimTime` values, so two identical runs record
//! bit-identical traces (the determinism contract extends to
//! observability; see `docs/OBSERVABILITY.md`). The recorder never reads
//! a clock itself.
//!
//! The ring buffer bounds memory: old records are evicted, but the
//! digest folds **every** record at append time, so it fingerprints the
//! complete trace regardless of eviction.

use crate::fnv::Fnv;
use std::collections::VecDeque;

/// Default ring-buffer capacity (records kept for inspection).
pub const DEFAULT_TRACE_CAPACITY: usize = 4096;

/// What a trace record marks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceKind {
    /// A span was entered.
    SpanStart,
    /// A span was closed.
    SpanEnd,
    /// An instantaneous event.
    Event,
}

impl TraceKind {
    fn tag(self) -> u64 {
        match self {
            TraceKind::SpanStart => 0x10,
            TraceKind::SpanEnd => 0x11,
            TraceKind::Event => 0x12,
        }
    }

    /// Short label for rendering.
    pub fn label(self) -> &'static str {
        match self {
            TraceKind::SpanStart => "span-start",
            TraceKind::SpanEnd => "span-end",
            TraceKind::Event => "event",
        }
    }
}

/// Most attributes a single record keeps (extras are dropped, and
/// excluded from the digest, so stored and fingerprinted attributes
/// always agree). Inline storage keeps the hot recording path — one
/// span per rate recomputation — free of heap allocation.
pub const MAX_TRACE_ATTRS: usize = 4;

/// One recorded span boundary or event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// Global sequence number (0-based, never reused).
    pub seq: u64,
    /// Record kind.
    pub kind: TraceKind,
    /// Static name, e.g. `"engine.solve.scoped"`.
    pub name: &'static str,
    /// Injected timestamp in nanoseconds (simulated time in-repo).
    pub t_nanos: u64,
    attrs: [(&'static str, u64); MAX_TRACE_ATTRS],
    attrs_len: u8,
}

impl TraceRecord {
    /// Structured attributes (static keys, integer values).
    pub fn attrs(&self) -> &[(&'static str, u64)] {
        &self.attrs[..usize::from(self.attrs_len)]
    }
}

/// Bounded trace sink with an incremental FNV-1a digest.
#[derive(Debug)]
pub struct TraceRecorder {
    capacity: usize,
    buf: VecDeque<TraceRecord>,
    next_seq: u64,
    digest: Fnv,
}

impl Default for TraceRecorder {
    fn default() -> Self {
        Self::new(DEFAULT_TRACE_CAPACITY)
    }
}

impl TraceRecorder {
    /// Recorder keeping at most `capacity` records (digest is unbounded).
    /// The ring is allocated whole at the first record, so a recorder
    /// that never records (a component's default handle, replaced by
    /// `set_obs`) holds none, and recording never touches the heap again
    /// — spans are emitted from the engine's steady-state hot path.
    pub fn new(capacity: usize) -> TraceRecorder {
        let capacity = capacity.max(1);
        TraceRecorder {
            capacity,
            buf: VecDeque::new(),
            next_seq: 0,
            digest: Fnv::new(),
        }
    }

    /// Append one record; returns its sequence number.
    pub fn record(
        &mut self,
        kind: TraceKind,
        name: &'static str,
        t_nanos: u64,
        attrs: &[(&'static str, u64)],
    ) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        let attrs = &attrs[..attrs.len().min(MAX_TRACE_ATTRS)];
        self.digest.u64(kind.tag());
        self.digest.bytes(name.as_bytes());
        self.digest.u64(t_nanos);
        for (k, v) in attrs {
            self.digest.bytes(k.as_bytes());
            self.digest.u64(*v);
        }
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
        } else if self.buf.capacity() == 0 {
            self.buf.reserve_exact(self.capacity);
        }
        let mut stored = [("", 0u64); MAX_TRACE_ATTRS];
        stored[..attrs.len()].copy_from_slice(attrs);
        self.buf.push_back(TraceRecord {
            seq,
            kind,
            name,
            t_nanos,
            attrs: stored,
            attrs_len: attrs.len() as u8,
        });
        seq
    }

    /// Records still held (oldest first; earlier ones may be evicted).
    pub fn records(&self) -> impl Iterator<Item = &TraceRecord> {
        self.buf.iter()
    }

    /// Total records ever appended (including evicted ones).
    pub fn recorded(&self) -> u64 {
        self.next_seq
    }

    /// Order-sensitive digest over **all** records ever appended. Two
    /// identical runs must agree on this bit-for-bit.
    pub fn digest(&self) -> u64 {
        self.digest.value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_order_sensitive_and_stable() {
        let run = |order: &[u64]| {
            let mut t = TraceRecorder::new(8);
            for &x in order {
                t.record(TraceKind::Event, "e", x, &[("k", x)]);
            }
            t.digest()
        };
        assert_eq!(run(&[1, 2, 3]), run(&[1, 2, 3]));
        assert_ne!(run(&[1, 2, 3]), run(&[3, 2, 1]));
    }

    #[test]
    fn ring_evicts_but_digest_remembers() {
        let mut a = TraceRecorder::new(2);
        let mut b = TraceRecorder::new(1024);
        for i in 0..10 {
            a.record(TraceKind::Event, "x", i, &[]);
            b.record(TraceKind::Event, "x", i, &[]);
        }
        assert_eq!(a.records().count(), 2);
        assert_eq!(a.recorded(), 10);
        // Different capacities, same history: same digest.
        assert_eq!(a.digest(), b.digest());
        // Held records are the most recent, in order.
        let seqs: Vec<u64> = a.records().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![8, 9]);
    }

    #[test]
    fn the_ring_is_allocated_whole_at_the_first_record() {
        let mut t = TraceRecorder::new(8);
        assert_eq!(t.buf.capacity(), 0, "a recorder that never records holds no ring");
        t.record(TraceKind::Event, "e", 0, &[]);
        let ring = t.buf.capacity();
        assert!(ring >= 8);
        for i in 1..20 {
            t.record(TraceKind::Event, "e", i, &[]);
        }
        assert_eq!(t.buf.capacity(), ring, "the ring grew after the first record");
        assert_eq!(t.records().count(), 8);
    }

    #[test]
    fn span_kinds_differ_from_events() {
        let mut a = TraceRecorder::default();
        a.record(TraceKind::SpanStart, "s", 5, &[]);
        let mut b = TraceRecorder::default();
        b.record(TraceKind::Event, "s", 5, &[]);
        assert_ne!(a.digest(), b.digest());
    }
}
