//! Flow descriptors and lifecycle records.
//!
//! A *flow* is an application-level connection between a pair of compute
//! nodes (§4.2). The engine supports three demand shapes, which together
//! cover the paper's spectrum from fixed-rate audio to unconstrained bulk
//! transfers:
//!
//! * **bounded volume** — a bulk transfer of `volume` bytes that completes
//!   and disappears (the unit of the Fx runtime's synchronous phases);
//! * **persistent greedy** — runs until stopped, absorbing its max-min
//!   share (the paper's *independent* flows, TCP-like background load);
//! * **rate-capped** — either of the above additionally limited to
//!   `rate_cap` bits/s (the paper's *fixed* flows, CBR sources).

use crate::time::SimTime;
use crate::topology::NodeId;
use crate::units::Bps;

/// Application-defined classification label carried by a flow.
///
/// The engine does not interpret tags; they let experiments separate
/// application traffic from background traffic when reading utilization —
/// which is exactly what plain Remos *cannot* do ("Remos does not
/// distinguish between different types or sources of traffic", §8.3), so
/// tags are only used by tests, oracles, and the self-traffic ablation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct FlowTag(pub u32);

impl FlowTag {
    /// Default tag for application traffic.
    pub const APP: FlowTag = FlowTag(0);
    /// Tag for synthetic background traffic.
    pub const BACKGROUND: FlowTag = FlowTag(1);
    /// Tag for collector probe traffic.
    pub const PROBE: FlowTag = FlowTag(2);
}

impl Default for FlowTag {
    fn default() -> Self {
        FlowTag::APP
    }
}

/// Parameters for starting a flow.
#[derive(Clone, Debug)]
pub struct FlowParams {
    /// Sending compute node.
    pub src: NodeId,
    /// Receiving compute node.
    pub dst: NodeId,
    /// Max-min weight (> 0); see [`crate::maxmin`].
    pub weight: f64,
    /// Optional rate cap in bits/s.
    pub rate_cap: Option<Bps>,
    /// Bytes to transfer; `None` = persistent until stopped.
    pub volume: Option<u64>,
    /// Classification label.
    pub tag: FlowTag,
}

impl FlowParams {
    /// A bulk transfer of `volume` bytes with no rate cap.
    pub fn bulk(src: NodeId, dst: NodeId, volume: u64) -> Self {
        FlowParams { src, dst, weight: 1.0, rate_cap: None, volume: Some(volume), tag: FlowTag::APP }
    }

    /// A persistent greedy flow (runs until stopped).
    pub fn greedy(src: NodeId, dst: NodeId) -> Self {
        FlowParams { src, dst, weight: 1.0, rate_cap: None, volume: None, tag: FlowTag::APP }
    }

    /// A persistent constant-bit-rate flow.
    pub fn cbr(src: NodeId, dst: NodeId, rate: Bps) -> Self {
        FlowParams { src, dst, weight: 1.0, rate_cap: Some(rate), volume: None, tag: FlowTag::APP }
    }

    /// Builder-style tag override.
    pub fn with_tag(mut self, tag: FlowTag) -> Self {
        self.tag = tag;
        self
    }

    /// Builder-style weight override.
    pub fn with_weight(mut self, weight: f64) -> Self {
        self.weight = weight;
        self
    }

    /// Builder-style rate-cap override.
    pub fn with_rate_cap(mut self, cap: Bps) -> Self {
        self.rate_cap = Some(cap);
        self
    }
}

/// Final record of a finished (completed or stopped) flow.
#[derive(Clone, Debug, PartialEq)]
pub struct FlowRecord {
    /// Engine-assigned id.
    pub id: u64,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Classification label.
    pub tag: FlowTag,
    /// When the flow started.
    pub started: SimTime,
    /// When it completed or was stopped.
    pub finished: SimTime,
    /// Bytes actually delivered.
    pub bytes: f64,
    /// True if a bounded flow delivered its whole volume.
    pub completed: bool,
}

impl FlowRecord {
    /// Mean throughput over the flow's lifetime, bits/s.
    pub fn mean_rate(&self) -> Bps {
        let secs = self.finished.since(self.started).as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.bytes * 8.0 / secs
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let a = NodeId(0);
        let b = NodeId(1);
        let f = FlowParams::bulk(a, b, 1000);
        assert_eq!(f.volume, Some(1000));
        assert!(f.rate_cap.is_none());
        let g = FlowParams::greedy(a, b).with_weight(2.0).with_tag(FlowTag::BACKGROUND);
        assert_eq!(g.weight, 2.0);
        assert_eq!(g.tag, FlowTag::BACKGROUND);
        assert!(g.volume.is_none());
        let c = FlowParams::cbr(a, b, 1e6);
        assert_eq!(c.rate_cap, Some(1e6));
    }

    #[test]
    fn record_mean_rate() {
        let rec = FlowRecord {
            id: 1,
            src: NodeId(0),
            dst: NodeId(1),
            tag: FlowTag::APP,
            started: SimTime::from_secs(1),
            finished: SimTime::from_secs(3),
            bytes: 1_000_000.0,
            completed: true,
        };
        assert!((rec.mean_rate() - 4e6).abs() < 1.0);
    }
}
