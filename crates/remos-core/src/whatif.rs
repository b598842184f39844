//! Typed answers for what-if flow-completion-time queries.
//!
//! [`Query::estimate_fcts`](crate::query::Query::estimate_fcts) asks the
//! admission/placement question the paper's interface leaves open: *what
//! would happen if I launched these flows?* The Modeler answers it by
//! replaying a fluid max-min schedule over the query plan's frozen
//! topology snapshot (see `remos_net::whatif`), never touching live
//! collector or engine state. This module holds the typed input
//! ([`HypotheticalFlow`]) and output ([`FctReport`]) the query builder
//! family exposes. A report's per-flow estimates are the kernel's own
//! [`FlowEstimate`]s, moved out of its answer; the `k`-th answers the
//! query's `k`-th flow, whose endpoints and size stay with the caller.

use crate::provenance::Provenance;
pub use remos_net::whatif::FlowEstimate;
use remos_net::{SimDuration, SimTime};

/// One hypothetical flow in an `estimate_fcts` query: named endpoints
/// (resolved against the query plan's topology), a transfer size, and an
/// arrival offset on the replay clock (`SimTime::ZERO` = "launched
/// immediately").
#[derive(Clone, Debug, PartialEq)]
pub struct HypotheticalFlow {
    /// Source host name.
    pub src: String,
    /// Destination host name.
    pub dst: String,
    /// Bytes the flow would transfer.
    pub size_bytes: u64,
    /// When the flow would start, on the replay's virtual clock.
    pub arrival: SimTime,
}

impl HypotheticalFlow {
    /// A flow launched at replay time zero.
    pub fn new(src: impl Into<String>, dst: impl Into<String>, size_bytes: u64) -> Self {
        HypotheticalFlow {
            src: src.into(),
            dst: dst.into(),
            size_bytes,
            arrival: SimTime::ZERO,
        }
    }

    /// Set the arrival offset (builder-style).
    pub fn at(mut self, arrival: SimTime) -> Self {
        self.arrival = arrival;
        self
    }
}

/// The typed answer to an `estimate_fcts` query: per-flow completion
/// estimates plus the replay's determinism digest and work counters.
#[derive(Clone, Debug, PartialEq)]
pub struct FctReport {
    /// Per-flow estimates, in the order the query listed the flows.
    pub flows: Vec<FlowEstimate>,
    /// FNV-1a digest over `(index, endpoints, size, started, finished,
    /// completed)` for every flow — bit-identical runs produce identical
    /// digests (see `docs/DETERMINISM.md`).
    pub fct_digest: u64,
    /// Discrete event steps the replay executed.
    pub replay_steps: u64,
    /// Max-min solver invocations (full or scoped) the replay needed.
    pub solves: u64,
    /// How the answer was derived: snapshot epoch and solver mode are
    /// stamped into `solver`; `None` when the query opted out.
    pub provenance: Option<Provenance>,
}

impl FctReport {
    /// How many flows drained before the horizon (all of them, when no
    /// horizon was set).
    pub fn completed_count(&self) -> usize {
        self.flows.iter().filter(|f| f.completed).count()
    }

    /// Nearest-rank quantile (`q` in `0.0..=1.0`) over the FCTs of
    /// *completed* flows; `None` when nothing completed.
    pub fn fct_quantile(&self, q: f64) -> Option<SimDuration> {
        let mut fcts: Vec<SimDuration> =
            self.flows.iter().filter(|f| f.completed).map(FlowEstimate::fct).collect();
        if fcts.is_empty() {
            return None;
        }
        fcts.sort_unstable();
        let rank = ((q.clamp(0.0, 1.0) * fcts.len() as f64).ceil() as usize)
            .saturating_sub(1)
            .min(fcts.len() - 1);
        Some(fcts[rank])
    }

    /// Mean slowdown over completed flows; `None` when nothing completed.
    pub fn mean_slowdown(&self) -> Option<f64> {
        let (mut sum, mut n) = (0.0, 0usize);
        for f in self.flows.iter().filter(|f| f.completed) {
            sum += f.slowdown;
            n += 1;
        }
        (n > 0).then(|| sum / n as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fct(ms: u64, completed: bool) -> FlowEstimate {
        FlowEstimate {
            started: SimTime::ZERO,
            finished: SimTime::from_millis(ms),
            completed,
            slowdown: if completed { 2.0 } else { f64::INFINITY },
            bottleneck: 0,
            bottleneck_capacity: 1e8,
        }
    }

    #[test]
    fn builder_defaults_and_at() {
        let f = HypotheticalFlow::new("a", "b", 42);
        assert_eq!(f.arrival, SimTime::ZERO);
        let f = f.at(SimTime::from_secs(3));
        assert_eq!(f.arrival, SimTime::from_secs(3));
        assert_eq!(f.size_bytes, 42);
    }

    #[test]
    fn quantiles_skip_incomplete_flows() {
        let report = FctReport {
            flows: vec![fct(10, true), fct(20, true), fct(30, true), fct(999, false)],
            fct_digest: 0,
            replay_steps: 0,
            solves: 0,
            provenance: None,
        };
        assert_eq!(report.completed_count(), 3);
        assert_eq!(report.fct_quantile(0.5), Some(SimDuration::from_millis(20)));
        assert_eq!(report.fct_quantile(1.0), Some(SimDuration::from_millis(30)));
        assert_eq!(report.fct_quantile(0.0), Some(SimDuration::from_millis(10)));
        assert_eq!(report.mean_slowdown(), Some(2.0));
    }

    #[test]
    fn empty_report_has_no_quantiles() {
        let report = FctReport {
            flows: vec![fct(5, false)],
            fct_digest: 0,
            replay_steps: 0,
            solves: 0,
            provenance: None,
        };
        assert_eq!(report.completed_count(), 0);
        assert_eq!(report.fct_quantile(0.5), None);
        assert_eq!(report.mean_slowdown(), None);
    }
}
