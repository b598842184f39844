//! # remos-net — fluid flow-level network simulator
//!
//! This crate is the substrate that replaces the physical IP testbed used in
//! the Remos paper (Lowekamp et al., HPDC 1998). It models a network of
//! compute nodes (hosts) and network nodes (routers/switches) connected by
//! full-duplex point-to-point links, and simulates the bandwidth received by
//! concurrent *flows* under **max-min fair sharing** — precisely the sharing
//! model the paper assumes for bottleneck links (§4.2, refs [14, 16]).
//!
//! The simulator is *fluid*: instead of individual packets, each flow has an
//! instantaneous rate, and the vector of rates is the weighted max-min fair
//! allocation over the capacities of all resources (directed link interfaces
//! and, optionally, switch backplanes). Rates are recomputed at every flow
//! arrival and departure; between events all rates are constant, so byte
//! counters advance analytically. This makes simulating hours of testbed
//! time cheap while reproducing exactly the contention behaviour the paper's
//! experiments exercise: a busy link slows every synchronous communication
//! phase that crosses it.
//!
//! Main entry points:
//! * [`topology::Topology`] / [`topology::TopologyBuilder`] — build networks.
//! * [`engine::Simulator`] — start/stop flows, advance virtual time, read
//!   per-interface octet counters (the data source for the SNMP substrate).
//! * [`maxmin`] — the stand-alone weighted max-min fair solver.
//! * [`traffic`] — background traffic generators (CBR, on-off, bulk pools).
//! * [`audit`] / [`digest`] — runtime max-min invariant checking and
//!   event-log digests for determinism tests (`docs/DETERMINISM.md`).

// Library code returns typed errors: outside tests, a panic or a
// `let _ =` of a must-use value is a build error. Tests may use what
// clippy.toml disallows (docs/AUDIT.md).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::let_underscore_must_use))]
#![cfg_attr(test, allow(clippy::disallowed_types, clippy::disallowed_methods))]

// This crate is the workspace's hottest path (see docs/PERFORMANCE.md);
// performance-smelling patterns are build errors, not suggestions.
#![deny(clippy::perf)]

pub mod audit;
pub mod counters;
pub mod digest;
pub mod engine;
pub mod error;
pub mod fabric;
pub mod flow;
mod fluid;
pub mod maxmin;
pub mod pool;
pub mod rng;
pub mod routing;
pub mod time;
pub mod topology;
pub mod traffic;
pub mod units;
pub mod whatif;

pub use audit::{AuditViolation, MaxMinAudit};
pub use digest::EventDigest;
pub use engine::{FlowHandle, Simulator, SolverMode};
pub use error::{NetError, Result};
pub use fabric::{FabricChurn, FatTree};
pub use time::{SimDuration, SimTime};
pub use topology::{
    DirLink, Direction, HostInfo, LinkId, NodeId, NodeKind, Topology, TopologyBuilder,
};
pub use units::{gbps, kbps, mbps, Bps};
pub use whatif::{FlowEstimate, WhatIfEngine, WhatIfFlow, WhatIfReport};
