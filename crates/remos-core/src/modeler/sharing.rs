//! Sharing policies (§4.2).
//!
//! "Our approach is to return the best knowledge available … In general
//! Remos will assume that, all else being equal, the bottleneck link
//! bandwidth will be shared equally by all flows (not being bottlenecked
//! elsewhere). If other better information is available, Remos can use
//! different sharing policies when estimating flow bandwidths."
//!
//! Two models of how *observed external traffic* interacts with the flows
//! being queried:
//!
//! * [`SharingPolicy::ExternalPinned`] — external traffic keeps exactly
//!   its measured bandwidth; queried flows share the residual max-min
//!   fairly. Pessimistic for aggressive queried flows, right for
//!   reservation-style traffic (ATM CBR, the paper's guaranteed-service
//!   aside).
//! * [`SharingPolicy::ExternalFairShare`] — external traffic on each link
//!   is an aggregate elastic competitor (capped at its measured rate — it
//!   never *grows* under competition, but it backs off fairly). Right for
//!   TCP-like cross-traffic; this is the "shared equally by all flows"
//!   default reading.

/// How measured external utilization competes with queried flows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[derive(Default)]
pub enum SharingPolicy {
    /// External traffic is pinned at its measured rate.
    #[default]
    ExternalPinned,
    /// External traffic is an elastic aggregate, capped at its measured
    /// rate, sharing max-min fairly with queried flows.
    ExternalFairShare,
}

