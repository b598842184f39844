//! Error type for the Remos API.

use crate::quality::DataQuality;
use remos_net::SimDuration;
use std::fmt;

/// Why a query was rejected as malformed, with the offending values as
/// structured fields (callers can match on the shape instead of parsing
/// a message string).
#[derive(Debug, Clone, PartialEq)]
pub enum InvalidQueryKind {
    /// `get_graph` was asked about zero nodes.
    EmptyNodeSet,
    /// `flow_info` was asked about zero flows.
    EmptyFlowRequest,
    /// A fixed flow requested a non-positive or non-finite bandwidth.
    BadFixedBandwidth {
        /// The rejected bandwidth, bits/s.
        value: f64,
    },
    /// A variable flow carried a non-positive or non-finite weight.
    BadVariableWeight {
        /// The rejected weight.
        value: f64,
    },
    /// A flow's source and destination are the same node.
    IdenticalEndpoints {
        /// The node named as both endpoints.
        node: String,
    },
    /// A query named a network node where a compute host is required.
    NotAHost {
        /// The offending node name.
        node: String,
    },
    /// An adaptation query's current set cannot fit its pool.
    BadSetSize {
        /// Size of the current node set.
        current: usize,
        /// Size of the candidate pool.
        pool: usize,
    },
    /// An adaptive application was configured with an empty rate
    /// ladder, so there is no rate to run at.
    EmptyRateLadder,
    /// `estimate_fcts` was asked about zero hypothetical flows.
    EmptyFlowSet,
    /// A `Future` horizon reaches past the last time the simulated clock
    /// can represent, counted from the newest sample.
    HorizonPastClock {
        /// The rejected horizon.
        horizon: SimDuration,
    },
}

impl InvalidQueryKind {
    /// The node name this rejection is about, if any.
    pub fn offending_node(&self) -> Option<&str> {
        match self {
            InvalidQueryKind::IdenticalEndpoints { node }
            | InvalidQueryKind::NotAHost { node } => Some(node),
            _ => None,
        }
    }

    /// Was the query rejected for naming an empty set (of nodes or flows)?
    pub fn is_empty_set(&self) -> bool {
        matches!(
            self,
            InvalidQueryKind::EmptyNodeSet
                | InvalidQueryKind::EmptyFlowRequest
                | InvalidQueryKind::EmptyRateLadder
                | InvalidQueryKind::EmptyFlowSet
        )
    }
}

impl fmt::Display for InvalidQueryKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvalidQueryKind::EmptyNodeSet => write!(f, "empty node set"),
            InvalidQueryKind::EmptyFlowRequest => write!(f, "empty flow_info request"),
            InvalidQueryKind::BadFixedBandwidth { value } => {
                write!(f, "fixed flow bandwidth {value}")
            }
            InvalidQueryKind::BadVariableWeight { value } => {
                write!(f, "variable flow weight {value}")
            }
            InvalidQueryKind::IdenticalEndpoints { node } => {
                write!(f, "flow with identical endpoints {node:?}")
            }
            InvalidQueryKind::NotAHost { node } => write!(f, "{node} is not a host"),
            InvalidQueryKind::BadSetSize { current, pool } => {
                write!(f, "current set size {current} vs pool {pool}")
            }
            InvalidQueryKind::EmptyRateLadder => write!(f, "empty rate ladder"),
            InvalidQueryKind::EmptyFlowSet => write!(f, "empty what-if flow set"),
            InvalidQueryKind::HorizonPastClock { horizon } => {
                write!(f, "future horizon {horizon} runs past the clock")
            }
        }
    }
}

/// Errors surfaced by Remos queries.
#[derive(Debug, Clone, PartialEq)]
pub enum RemosError {
    /// A queried node name is not known to the collector.
    UnknownNode(String),
    /// The collector could not discover or refresh its view.
    Collector(String),
    /// The underlying SNMP substrate failed.
    Snmp(String),
    /// The underlying simulator failed.
    Net(String),
    /// A query was malformed; the kind carries the offending values.
    InvalidQuery(InvalidQueryKind),
    /// Not enough history to answer a windowed/predictive query.
    InsufficientHistory {
        /// Samples required.
        needed: usize,
        /// Samples available.
        available: usize,
    },
    /// Two queried nodes have no connecting path.
    Disconnected(String, String),
    /// The answer's measurement quality fell below the floor the query
    /// demanded (see `GraphQuery::min_quality`).
    QualityTooLow {
        /// The floor the query demanded.
        required: DataQuality,
        /// The worst quality actually backing the answer.
        actual: DataQuality,
    },
    /// A serving front end refused to accept the request: its queue (or
    /// in-flight cost budget) is full. The caller should back off for at
    /// least `retry_after` of measured time before resubmitting.
    Overloaded {
        /// Suggested back-off before resubmitting.
        retry_after: SimDuration,
    },
    /// The request's deadline budget expired before an answer could be
    /// produced; the remaining work was shed rather than computed and
    /// discarded.
    DeadlineExceeded {
        /// How far past the deadline the request was when it was shed.
        late_by: SimDuration,
    },
    /// An internal invariant was broken (corrupt graph, inconsistent
    /// modeler state, ...). Reaching this is a bug; it is surfaced as an
    /// error rather than a panic so callers degrade instead of aborting.
    Internal(String),
}

/// Convenience alias.
pub type CoreResult<T> = Result<T, RemosError>;

impl fmt::Display for RemosError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RemosError::UnknownNode(n) => write!(f, "unknown node {n:?}"),
            RemosError::Collector(m) => write!(f, "collector error: {m}"),
            RemosError::Snmp(m) => write!(f, "snmp error: {m}"),
            RemosError::Net(m) => write!(f, "network error: {m}"),
            RemosError::InvalidQuery(k) => write!(f, "invalid query: {k}"),
            RemosError::InsufficientHistory { needed, available } => write!(
                f,
                "insufficient history: need {needed} samples, have {available}"
            ),
            RemosError::Disconnected(a, b) => write!(f, "no path between {a:?} and {b:?}"),
            RemosError::QualityTooLow { required, actual } => write!(
                f,
                "answer quality {actual:?} below required floor {required:?}"
            ),
            RemosError::Overloaded { retry_after } => {
                write!(f, "server overloaded: retry after {retry_after}")
            }
            RemosError::DeadlineExceeded { late_by } => {
                write!(f, "deadline exceeded: {late_by} past budget when shed")
            }
            RemosError::Internal(m) => write!(f, "internal invariant broken: {m}"),
        }
    }
}

impl std::error::Error for RemosError {}

impl From<remos_snmp::SnmpError> for RemosError {
    fn from(e: remos_snmp::SnmpError) -> Self {
        RemosError::Snmp(e.to_string())
    }
}

impl From<remos_net::NetError> for RemosError {
    fn from(e: remos_net::NetError) -> Self {
        RemosError::Net(e.to_string())
    }
}

impl From<InvalidQueryKind> for RemosError {
    fn from(k: InvalidQueryKind) -> Self {
        RemosError::InvalidQuery(k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn invalid_query_kinds_render_and_classify() {
        let e = RemosError::InvalidQuery(InvalidQueryKind::EmptyNodeSet);
        assert_eq!(e.to_string(), "invalid query: empty node set");
        assert!(matches!(
            &e,
            RemosError::InvalidQuery(k) if k.is_empty_set()
        ));
        let k = InvalidQueryKind::IdenticalEndpoints { node: "m-1".into() };
        assert_eq!(k.offending_node(), Some("m-1"));
        assert!(!k.is_empty_set());
        assert_eq!(
            InvalidQueryKind::BadSetSize { current: 9, pool: 6 }.to_string(),
            "current set size 9 vs pool 6"
        );
    }

    #[test]
    fn overload_and_deadline_errors_render() {
        let e = RemosError::Overloaded { retry_after: SimDuration::from_millis(250) };
        assert!(e.to_string().contains("overloaded"));
        assert!(matches!(
            e,
            RemosError::Overloaded { retry_after } if retry_after == SimDuration::from_millis(250)
        ));
        let e = RemosError::DeadlineExceeded { late_by: SimDuration::from_millis(5) };
        assert!(e.to_string().contains("deadline exceeded"));
    }

    #[test]
    fn quality_floor_error_renders() {
        let e = RemosError::QualityTooLow {
            required: DataQuality::Fresh,
            actual: DataQuality::Missing,
        };
        assert!(e.to_string().contains("below required floor"));
    }
}
