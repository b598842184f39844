//! # remos-serve — overload-safe serving front end
//!
//! The paper positions Remos as a shared *service*: one collector/modeler
//! pair answering queries for many network-aware applications at once
//! (§5 — "a single Collector can support multiple Modelers", and the
//! Remos API is explicitly a multi-user interface). This crate is that
//! serving layer, built for the bad day: more offered load than
//! capacity, dead SNMP agents, requests with deadlines.
//!
//! * [`Server`] — bounded admission queue with per-tenant token-bucket
//!   quotas ([`quota`]) and a weighted-fair seeded dequeue ([`queue`]).
//!   Past the bounds, callers get a typed
//!   [`RemosError::Overloaded`](remos_core::RemosError::Overloaded) with
//!   an honest `retry_after` — never unbounded queueing.
//! * **Deadline budgets** — each admitted request carries an absolute
//!   deadline threaded through the facade as a
//!   [`QueryBudget`](remos_core::QueryBudget); the pipeline sheds at
//!   every stage boundary with a typed
//!   [`DeadlineExceeded`](remos_core::RemosError::DeadlineExceeded).
//! * [`breaker`] — circuit breakers around collector I/O. After repeated
//!   failures the breaker opens and collector calls fast-fail instead of
//!   burning retry budgets against a dead substrate; health signals come
//!   from call outcomes, all-`Missing` samples, and the SNMP manager's
//!   per-request retry loop (via [`remos_snmp::RetryObserver`]).
//! * **Degradation ladder** — full answer → stale snapshot →
//!   topology-only → typed rejection, the rung picked per request by its
//!   `min_quality` floor. Degraded answers are stamped in their
//!   [`Provenance`](remos_core::Provenance) (`degraded: true`, `source`
//!   naming the collector that produced the data).
//!
//! Everything runs on the measured (simulated) clock with seeded RNGs:
//! under a pinned seed and arrival sequence, every admission and shed
//! decision is bit-reproducible ([`Server::decision_digest`]).
//!
//! ```
//! use remos_core::collector::snmp::{SnmpCollector, SnmpCollectorConfig};
//! use remos_core::collector::SimClock;
//! use remos_core::{Query, Remos, RemosConfig};
//! use remos_net::{mbps, SimDuration, Simulator, TopologyBuilder};
//! use remos_serve::{ServeRequest, Server, ServerConfig};
//! use remos_snmp::sim::{register_all_agents, share};
//! use remos_snmp::SimTransport;
//! use std::sync::Arc;
//!
//! // Two hosts behind a router, agents on every node.
//! let mut b = TopologyBuilder::new();
//! let h1 = b.compute("h1");
//! let h2 = b.compute("h2");
//! let r = b.network("r");
//! b.link(h1, r, mbps(100.0), SimDuration::from_micros(100)).unwrap();
//! b.link(r, h2, mbps(100.0), SimDuration::from_micros(100)).unwrap();
//! let sim = share(Simulator::new(b.build().unwrap()).unwrap());
//! let transport = Arc::new(SimTransport::new());
//! let agents = register_all_agents(&transport, &sim, "public");
//! let collector = SnmpCollector::new(transport, agents, SnmpCollectorConfig::default());
//! let remos = Remos::new(
//!     Box::new(collector),
//!     Box::new(SimClock(Arc::clone(&sim))),
//!     RemosConfig::default(),
//! );
//!
//! // Serve through admission control, deadlines, and the ladder.
//! let mut server = Server::new(remos, ServerConfig::default());
//! let req = ServeRequest::new("tenant-a", Query::graph(["h1", "h2"]))
//!     .with_allowance(SimDuration::from_secs(5));
//! let id = server.submit(req).unwrap();
//! let outcome = server.serve_next().unwrap();
//! assert_eq!(outcome.id, id);
//! let graph = outcome.result.unwrap().into_graph().unwrap();
//! assert!(graph.provenance.unwrap().source.unwrap().starts_with("snmp("));
//! ```

// Library code returns typed errors: outside tests, a panic or a
// `let _ =` of a must-use value is a build error. Tests may use what
// clippy.toml disallows (docs/AUDIT.md).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::let_underscore_must_use))]
#![cfg_attr(test, allow(clippy::disallowed_types, clippy::disallowed_methods))]

pub mod breaker;
pub mod queue;
pub mod quota;
pub mod server;

pub use breaker::{BreakerCollector, BreakerConfig, BreakerState, CircuitBreaker};
pub use queue::{FairQueue, Queued, QueueFull, QueueLimits};
pub use quota::{QuotaConfig, TokenBuckets};
pub use server::{Rung, ServeOutcome, ServeRequest, Server, ServerConfig};
