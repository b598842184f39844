//! Typed answers for what-if flow-completion-time queries.
//!
//! [`Query::estimate_fcts`](crate::query::Query::estimate_fcts) asks the
//! admission/placement question the paper's interface leaves open: *what
//! would happen if I launched these flows?* The Modeler answers it by
//! replaying a fluid max-min schedule over the query plan's frozen
//! topology snapshot (see `remos_net::whatif`), never touching live
//! collector or engine state. This module holds the typed input
//! ([`HypotheticalFlow`]) and output ([`FctReport`] / [`FlowFct`]) the
//! query builder family exposes.

use crate::provenance::Provenance;
use remos_net::{Bps, SimDuration, SimTime};

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

/// The estimated fate of one hypothetical flow. Estimates come in the
/// order the query listed its flows, so the `k`-th estimate is the `k`-th
/// flow's; the endpoint names stay with the caller's query rather than
/// being copied into every answer.
#[derive(Clone, Debug, PartialEq)]
pub struct FlowFct {
    /// Transfer size, echoed from the query.
    pub size_bytes: u64,
    /// When the flow entered the replay schedule.
    pub started: SimTime,
    /// When its last byte drained (or the horizon, if cut off).
    pub finished: SimTime,
    /// False when an `horizon` expired before the flow drained.
    pub completed: bool,
    /// Estimated flow completion time (`finished - started`).
    pub fct: SimDuration,
    /// FCT divided by the ideal FCT at the path's bottleneck line rate
    /// with zero contention; `INFINITY` for flows the horizon cut off.
    pub slowdown: f64,
    /// Resource index of the path's capacity bottleneck (directed-link
    /// index, or a backplane slot past the link prefix).
    pub bottleneck: usize,
    /// Capacity of that bottleneck resource, bits/s.
    pub bottleneck_capacity: Bps,
}

/// The typed answer to an `estimate_fcts` query: per-flow completion
/// estimates plus the replay's determinism digest and work counters.
#[derive(Clone, Debug, PartialEq)]
pub struct FctReport {
    /// Per-flow estimates, in the order the query listed the flows.
    pub flows: Vec<FlowFct>,
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
            self.flows.iter().filter(|f| f.completed).map(|f| f.fct).collect();
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

    fn fct(ms: u64, completed: bool) -> FlowFct {
        FlowFct {
            size_bytes: 1000,
            started: SimTime::ZERO,
            finished: SimTime::from_millis(ms),
            completed,
            fct: SimDuration::from_millis(ms),
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
