//! Order-sensitive event-log digests for determinism checks.
//!
//! Two simulation runs with the same topology, seeds, and schedules must
//! produce byte-identical event sequences; [`EventDigest`] folds every
//! event into the workspace's one FNV-1a fold ([`Fnv`]) so a test can
//! compare whole runs with one equality check and CI can print a single
//! hex fingerprint per scenario (see `docs/DETERMINISM.md`).

use crate::engine::LinkEvent;
use crate::flow::FlowRecord;
use remos_obs::Fnv;

/// Incremental, order-sensitive 64-bit event-log digest.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EventDigest(pub(crate) Fnv);

impl EventDigest {
    /// A fresh digest (FNV-1a offset basis).
    pub fn new() -> EventDigest {
        EventDigest(Fnv::new())
    }

    /// Current digest value.
    pub fn value(&self) -> u64 {
        self.0.value()
    }

    /// Fold a flow-start event.
    pub fn record_start(&mut self, id: u64, src: u32, dst: u32, at_nanos: u64) {
        self.0.u64(0x01);
        self.0.u64(id);
        self.0.u64(u64::from(src));
        self.0.u64(u64::from(dst));
        self.0.u64(at_nanos);
    }

    /// Fold a flow-finish record (completion, stop, or kill).
    pub fn record_finish(&mut self, rec: &FlowRecord) {
        self.0.u64(0x02);
        self.0.u64(rec.id);
        self.0.u64(u64::from(rec.src.0));
        self.0.u64(u64::from(rec.dst.0));
        self.0.u64(rec.started.as_nanos());
        self.0.u64(rec.finished.as_nanos());
        self.0.f64(rec.bytes);
        self.0.u64(u64::from(rec.completed));
    }

    /// Fold a link state transition.
    pub fn record_link(&mut self, ev: &LinkEvent) {
        self.0.u64(0x03);
        self.0.u64(ev.t.as_nanos());
        self.0.u64(u64::from(ev.link.0));
        self.0.u64(u64::from(ev.up));
    }

    /// Fold one flow's bit-exact allocated rate. Used by the engine's
    /// mode-agnostic allocation digest: hashing `(id, rate)` pairs in id
    /// order lets the equivalence tests compare the full and incremental
    /// solvers' outputs with a single value per instant.
    pub fn record_rate(&mut self, id: u64, rate: f64) {
        self.0.u64(0x04);
        self.0.u64(id);
        self.0.f64(rate);
    }
}
