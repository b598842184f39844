//! Query provenance: where an answer's numbers came from.
//!
//! Remos answers are best-effort estimates (§4, §10). A [`Provenance`]
//! record makes the derivation inspectable: how many collector snapshots
//! the Modeler consumed, how old they were, the worst [`DataQuality`]
//! among them, which solver produced the numbers, and how large the
//! solved scope was. Provenance is attached to every
//! [`crate::RemosGraph`] and [`crate::flows::FlowGrant`] by default;
//! builders can opt out with `without_provenance()` (see
//! [`crate::query::GraphQuery`]).

use crate::quality::DataQuality;
use crate::timeframe::Timeframe;
use remos_net::{SimDuration, SimTime};

/// How an estimate was derived.
#[derive(Clone, Debug, PartialEq)]
pub struct Provenance {
    /// The timeframe the query asked for.
    pub timeframe: Timeframe,
    /// Collector snapshots the Modeler consumed (1 for `Current` and
    /// `Future`, the window population for `Window`).
    pub snapshots: usize,
    /// Collector time of the newest snapshot consumed.
    pub newest_sample: Option<SimTime>,
    /// Collector time of the oldest snapshot consumed.
    pub oldest_sample: Option<SimTime>,
    /// Worst measurement quality among the data behind the answer. For a
    /// graph this spans every logical link; for a flow grant, the
    /// resources on that flow's path.
    pub worst_quality: DataQuality,
    /// Human-readable solver description (modeler stage + sharing policy
    /// or predictor).
    pub solver: String,
    /// Size of the solved scope: logical links annotated (graph queries)
    /// or path resources crossed (flow grants).
    pub scope: usize,
    /// True when the answer was produced by a degraded serving mode
    /// (stale-snapshot or topology-only rung of a serving front end's
    /// degradation ladder) rather than a freshly measured query.
    pub degraded: bool,
    /// Which collector the measurements came from (see
    /// [`crate::collector::Collector::describe`]); a federated collector
    /// reports how many of its children contributed current data, so a
    /// failover is visible in the answer itself.
    pub source: Option<String>,
}

impl Provenance {
    /// Span covered by the consumed snapshots (zero when one snapshot).
    pub fn sample_span(&self) -> Option<SimDuration> {
        match (self.newest_sample, self.oldest_sample) {
            (Some(n), Some(o)) => Some(n.saturating_since(o)),
            _ => None,
        }
    }

    /// Age of the newest consumed snapshot relative to `now`.
    pub fn poll_age(&self, now: SimTime) -> Option<SimDuration> {
        self.newest_sample.map(|t| now.saturating_since(t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_and_ages() {
        let p = Provenance {
            timeframe: Timeframe::Current,
            snapshots: 3,
            newest_sample: Some(SimTime::from_secs(10)),
            oldest_sample: Some(SimTime::from_secs(7)),
            worst_quality: DataQuality::Fresh,
            solver: "test".into(),
            scope: 5,
            degraded: false,
            source: None,
        };
        assert_eq!(p.sample_span(), Some(SimDuration::from_secs(3)));
        assert_eq!(p.poll_age(SimTime::from_secs(12)), Some(SimDuration::from_secs(2)));
    }

    #[test]
    fn missing_times_yield_none() {
        let p = Provenance {
            timeframe: Timeframe::Current,
            snapshots: 0,
            newest_sample: None,
            oldest_sample: None,
            worst_quality: DataQuality::Missing,
            solver: "test".into(),
            scope: 0,
            degraded: false,
            source: None,
        };
        assert_eq!(p.sample_span(), None);
        assert_eq!(p.poll_age(SimTime::ZERO), None);
    }
}
