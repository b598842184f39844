//! Per-request deadline budgets for the serving plane.
//!
//! A [`QueryBudget`] carries the absolute simulated-time deadline a
//! request must be answered by. The facade threads it through every
//! expensive stage of a query — measurement, plan building, sample
//! selection, solving — and sheds the request with
//! [`RemosError::DeadlineExceeded`] the moment the deadline has passed,
//! instead of computing an answer nobody will wait for. Deadlines are
//! denominated in *measured* (simulated) time, so shed decisions are
//! bit-reproducible run-to-run.

use crate::error::{CoreResult, RemosError};
use remos_net::{SimDuration, SimTime};

/// Deadline budget of one request. `deadline: None` means unlimited —
/// the behavior of the plain [`crate::Remos::run`] entry points.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryBudget {
    /// Absolute measured-time deadline, if any.
    pub deadline: Option<SimTime>,
}

impl QueryBudget {
    /// A budget that never expires.
    pub const UNLIMITED: QueryBudget = QueryBudget { deadline: None };

    /// A budget expiring at the absolute time `deadline`.
    pub fn until(deadline: SimTime) -> QueryBudget {
        QueryBudget { deadline: Some(deadline) }
    }

    /// A budget of `allowance` starting at `now`. An allowance past the
    /// end of the clock saturates to [`SimTime::MAX`]: it never expires.
    pub fn starting(now: SimTime, allowance: SimDuration) -> QueryBudget {
        QueryBudget { deadline: Some(now.checked_add(allowance).unwrap_or(SimTime::MAX)) }
    }

    /// `Ok` while the deadline has not passed at `now`; a typed
    /// [`RemosError::DeadlineExceeded`] once it has.
    pub fn check(&self, now: SimTime) -> CoreResult<()> {
        match self.deadline {
            Some(d) if now > d => {
                Err(RemosError::DeadlineExceeded { late_by: now.saturating_since(d) })
            }
            _ => Ok(()),
        }
    }

    /// True once the deadline has passed at `now`.
    pub fn expired(&self, now: SimTime) -> bool {
        self.check(now).is_err()
    }

    /// Budget left at `now` (`None` = unlimited; zero once expired).
    pub fn remaining(&self, now: SimTime) -> Option<SimDuration> {
        self.deadline.map(|d| d.saturating_since(now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_expires() {
        let b = QueryBudget::UNLIMITED;
        assert!(b.check(SimTime::from_secs(1_000_000)).is_ok());
        assert_eq!(b.remaining(SimTime::ZERO), None);
    }

    #[test]
    fn deadline_trips_typed_error() {
        let b = QueryBudget::until(SimTime::from_secs(5));
        assert!(b.check(SimTime::from_secs(5)).is_ok(), "deadline instant still admits");
        let err = b.check(SimTime::from_secs(7)).unwrap_err();
        assert!(matches!(
            err,
            RemosError::DeadlineExceeded { late_by } if late_by == SimDuration::from_secs(2)
        ));
        assert!(b.expired(SimTime::from_secs(7)));
        assert_eq!(b.remaining(SimTime::from_secs(7)), Some(SimDuration::ZERO));
    }

    #[test]
    fn starting_offsets_from_now() {
        let b = QueryBudget::starting(SimTime::from_secs(2), SimDuration::from_secs(3));
        assert_eq!(b.deadline, Some(SimTime::from_secs(5)));
        assert_eq!(
            b.remaining(SimTime::from_secs(3)),
            Some(SimDuration::from_secs(2))
        );
        let forever = SimDuration::from_nanos(u64::MAX);
        let forever = QueryBudget::starting(SimTime::from_secs(2), forever);
        assert_eq!(forever.deadline, Some(SimTime::MAX));
        assert!(!forever.expired(SimTime::MAX));
    }
}
