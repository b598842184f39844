//! Data-quality annotations for measurements and derived estimates.
//!
//! The paper is explicit that Remos answers are "best-effort estimates"
//! whose dependability varies (§4, §10); when agents crash or stop
//! answering, the Collector can keep serving its last good observation —
//! but the consumer must be able to distinguish "10 Mbps available,
//! measured now" from "10 Mbps, last seen 30 s ago" from "no data at all".
//! [`DataQuality`] is that distinction, attached per directed link to
//! collector snapshots, propagated through the Modeler into
//! [`crate::RemosLink`] annotations and flow-query responses, and consulted
//! by the adaptation layer before acting.

use remos_net::SimDuration;

/// How trustworthy one measurement (or an estimate derived from it) is.
///
/// Ordered from best to worst: `Fresh` < `Stale` (older is worse) <
/// `Missing`. Use [`DataQuality::worst`] to combine qualities along a
/// path — an estimate is only as good as its weakest input.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum DataQuality {
    /// Measured in the most recent poll interval.
    #[default]
    Fresh,
    /// Carried forward from an earlier interval; `age` is how long ago the
    /// underlying measurement was fresh.
    Stale {
        /// Time since the last fresh measurement.
        age: SimDuration,
    },
    /// No usable measurement exists (never measured, or stale past the
    /// collector's tolerance).
    Missing,
}

impl DataQuality {
    /// Is this a current measurement?
    pub fn is_fresh(self) -> bool {
        matches!(self, DataQuality::Fresh)
    }

    /// Is there no usable measurement at all?
    pub fn is_missing(self) -> bool {
        matches!(self, DataQuality::Missing)
    }

    /// Age of the underlying measurement: zero when fresh, `None` when
    /// missing.
    pub fn age(self) -> Option<SimDuration> {
        match self {
            DataQuality::Fresh => Some(SimDuration::ZERO),
            DataQuality::Stale { age } => Some(age),
            DataQuality::Missing => None,
        }
    }

    /// Rank for ordering: lower is better.
    fn rank(self) -> (u8, SimDuration) {
        match self {
            DataQuality::Fresh => (0, SimDuration::ZERO),
            DataQuality::Stale { age } => (1, age),
            DataQuality::Missing => (2, SimDuration::ZERO),
        }
    }

    /// The worse of two qualities (combine inputs of a derived estimate).
    pub fn worst(self, other: DataQuality) -> DataQuality {
        if self.rank() >= other.rank() {
            self
        } else {
            other
        }
    }

    /// The better of two qualities (merge redundant observations of the
    /// same link, e.g. from federated collectors).
    pub fn better(self, other: DataQuality) -> DataQuality {
        if self.rank() <= other.rank() {
            self
        } else {
            other
        }
    }

    /// Does this quality meet a floor? `Fresh` meets every floor; a stale
    /// quality meets any equally-old-or-older stale floor; nothing but
    /// `Missing` itself meets a `Missing` floor (which accepts anything).
    pub fn meets(self, floor: DataQuality) -> bool {
        self.rank() <= floor.rank()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stale(s: u64) -> DataQuality {
        DataQuality::Stale { age: SimDuration::from_secs(s) }
    }

    #[test]
    fn ordering_fresh_stale_missing() {
        let f = DataQuality::Fresh;
        let m = DataQuality::Missing;
        assert_eq!(f.worst(m), m);
        assert_eq!(f.worst(stale(3)), stale(3));
        assert_eq!(stale(3).worst(m), m);
        assert_eq!(f.better(m), f);
        assert_eq!(stale(3).better(m), stale(3));
    }

    #[test]
    fn older_stale_is_worse() {
        assert_eq!(stale(1).worst(stale(9)), stale(9));
        assert_eq!(stale(1).better(stale(9)), stale(1));
    }

    #[test]
    fn worst_and_better_are_total() {
        let all = [DataQuality::Fresh, stale(2), DataQuality::Missing];
        for a in all {
            for b in all {
                // One of the two is always returned, and the pair agrees.
                let w = a.worst(b);
                let g = a.better(b);
                assert!(w == a || w == b);
                assert!(g == a || g == b);
                if a != b {
                    assert_ne!(w, g);
                }
            }
        }
    }

    #[test]
    fn meets_floor() {
        assert!(DataQuality::Fresh.meets(DataQuality::Missing));
        assert!(DataQuality::Fresh.meets(stale(1)));
        assert!(stale(1).meets(stale(5)));
        assert!(!stale(5).meets(stale(1)));
        assert!(!DataQuality::Missing.meets(stale(5)));
        assert!(DataQuality::Missing.meets(DataQuality::Missing));
    }

    #[test]
    fn accessors() {
        assert!(DataQuality::Fresh.is_fresh());
        assert!(DataQuality::Missing.is_missing());
        assert_eq!(stale(4).age(), Some(SimDuration::from_secs(4)));
        assert_eq!(DataQuality::Missing.age(), None);
        assert_eq!(DataQuality::default(), DataQuality::Fresh);
    }
}
