//! # remos-core — the Remos resource query interface
//!
//! Rust reproduction of the system described in *"A Resource Query
//! Interface for Network-Aware Applications"* (Lowekamp, Miller, Gross,
//! Subhlok, Steenkiste, Sutherland — CMU, HPDC 1998).
//!
//! Remos lets network-aware applications obtain information about their
//! execution environment through two queries, built with
//! [`Query`] and executed by [`Remos::run`]:
//!
//! * [`Query::graph`](query::Query::graph) — the **logical network
//!   topology** connecting a set of nodes, annotated with static
//!   capacities and dynamic available-bandwidth statistics (§4.3);
//! * [`Query::flows`](query::Query::flows) — bandwidth/latency for a set
//!   of **flows** (fixed / variable / independent classes), solved
//!   simultaneously under max-min fair sharing (§4.2).
//!
//! All dynamic quantities are reported as quartile summaries with an
//! estimation-accuracy measure ([`stats::Quartiles`], §4.4), over a
//! caller-chosen [`Timeframe`] (current / historical window / predicted
//! future).
//!
//! The implementation mirrors the paper's split (§5, Fig 2):
//! [`collector`] retrieves raw network information (SNMP polling, active
//! benchmark probing, or federations of both), and [`modeler`] generates
//! logical topologies and satisfies flow requests on top of it.
//!
//! ```
//! use remos_core::prelude::*;
//! use remos_core::{Remos, RemosConfig};
//! use remos_core::collector::snmp::{SnmpCollector, SnmpCollectorConfig};
//! use remos_core::collector::SimClock;
//! use remos_net::{Simulator, TopologyBuilder, mbps, SimDuration};
//! use remos_snmp::sim::{register_all_agents, share};
//! use remos_snmp::SimTransport;
//! use std::sync::Arc;
//!
//! // A two-host network with one router.
//! let mut b = TopologyBuilder::new();
//! let h1 = b.compute("h1");
//! let h2 = b.compute("h2");
//! let r = b.network("r");
//! b.link(h1, r, mbps(100.0), SimDuration::from_micros(100)).unwrap();
//! b.link(r, h2, mbps(100.0), SimDuration::from_micros(100)).unwrap();
//! let sim = share(Simulator::new(b.build().unwrap()).unwrap());
//!
//! // SNMP agents on every node, a collector over them, and Remos on top.
//! let transport = Arc::new(SimTransport::new());
//! let agents = register_all_agents(&transport, &sim, "public");
//! let collector = SnmpCollector::new(transport, agents, SnmpCollectorConfig::default());
//! let mut remos = Remos::new(
//!     Box::new(collector),
//!     Box::new(SimClock(Arc::clone(&sim))),
//!     RemosConfig::default(),
//! );
//!
//! let graph = remos.run(Query::graph(["h1", "h2"])).unwrap().into_graph().unwrap();
//! let h1 = graph.index_of("h1").unwrap();
//! let h2 = graph.index_of("h2").unwrap();
//! assert!(graph.path_avail_bw(h1, h2).unwrap() > mbps(95.0));
//! ```

// The query path shares the engine's steady-state allocation budget
// (see docs/PERFORMANCE.md); performance-smelling patterns are build
// errors, not suggestions.
#![deny(clippy::perf)]

pub mod api;
pub mod budget;
pub mod collector;
pub mod error;
pub mod flows;
pub mod graph;
mod json;
pub mod modeler;
pub mod provenance;
pub mod quality;
pub mod query;
pub mod stats;
pub mod timeframe;
pub mod whatif;

pub use api::{Remos, RemosConfig};
pub use budget::QueryBudget;
pub use error::{CoreResult, InvalidQueryKind, RemosError};
pub use flows::{FlowEndpoints, FlowInfoRequest, FlowInfoResponse};
pub use graph::{HostInfo, RemosGraph, RemosLink, RemosNode};
pub use modeler::{Modeler, ModelerConfig};
pub use provenance::Provenance;
pub use quality::DataQuality;
pub use query::{Query, QueryResult, QuerySpec};
pub use stats::Quartiles;
pub use timeframe::Timeframe;
pub use whatif::{FctReport, FlowEstimate, HypotheticalFlow};

/// Everything a query-writing application needs, in one import:
/// `use remos_core::prelude::*;`.
pub mod prelude {
    pub use crate::budget::QueryBudget;
    pub use crate::error::{CoreResult, InvalidQueryKind, RemosError};
    pub use crate::flows::{FlowInfoRequest, FlowInfoResponse};
    pub use crate::provenance::Provenance;
    pub use crate::quality::DataQuality;
    pub use crate::query::{Query, QueryResult, QuerySpec};
    pub use crate::timeframe::Timeframe;
    pub use crate::whatif::{FctReport, FlowEstimate, HypotheticalFlow};
}
