//! # remos-fx — a data-parallel runtime substrate
//!
//! Stand-in for the Fx compiler/runtime system the paper builds on (§6–7):
//! "The Fx compiler system developed at Carnegie Mellon supports
//! integrated task and data parallel programming. … The Fx runtime system
//! was enhanced so that the assignment of nodes to tasks in a program
//! could be modified during execution."
//!
//! What the experiments actually exercise is (a) the synchronous phase
//! structure of data-parallel programs — compute phases alternating with
//! collective communication — and (b) the ability to remap the active node
//! set at migration points. This crate models exactly that:
//!
//! * [`program`] — programs as iterated phase lists (compute +
//!   collective-communication patterns);
//! * [`runtime`] — synchronous execution against the network simulator:
//!   communication phases start real flows and complete under max-min
//!   sharing with whatever background traffic exists;
//! * [`cluster`] — the greedy node-selection heuristic of §7.2 (plus an
//!   exhaustive reference for quality measurements);
//! * [`adapt`] — the adaptation module of §7.3: query Remos, build the
//!   distance matrix, cluster, compare against the current mapping,
//!   migrate when the improvement clears a threshold — including the
//!   self-traffic discount that fixes §8.3's migrate-away-from-your-own-
//!   traffic fallacy.

// Outside tests, a `let _ =` of a must-use value is a build error;
// tests may use what clippy.toml disallows (docs/AUDIT.md).
#![cfg_attr(not(test), deny(clippy::let_underscore_must_use))]
#![cfg_attr(test, allow(clippy::disallowed_types, clippy::disallowed_methods))]

pub mod adapt;
pub mod cluster;
pub mod concurrent;
pub mod program;
pub mod runtime;

pub use adapt::{AdaptConfig, Adapter, QualityPolicy, SelfTraffic};
pub use cluster::{exhaustive_cluster, greedy_cluster, set_comm_cost};
pub use concurrent::{run_concurrent, TaskReport, TaskSpec};
pub use program::{CommPattern, Phase, Program};
pub use runtime::{ExecutionReport, FxRuntime, Mapping, RuntimeConfig};
