//! Property coverage for the CSR/arena core: across a generated
//! scenario matrix (fabric size, flow population, locality mix, churn
//! length, solver mode, timeframe), the index-based hot path must be a
//! pure layout change — every digest the old representation produced,
//! the CSR representation reproduces bit for bit.
//!
//! Two properties:
//!
//! 1. **Engine**: the same seeded churn schedule replayed in `Full` and
//!    `Incremental` mode agrees on `rates_digest` at every checkpoint
//!    and on the final `event_digest`.
//! 2. **Graph layer**: a query through a reused workspace against the
//!    plan cache (`get_graph_in`, the allocation-free shape of the one
//!    query path) produces the same `RemosGraph::digest` as a capacity-0
//!    modeler that rebuilds routing and logicalization from scratch —
//!    and repeat queries through the workspace never drift.

#![allow(clippy::disallowed_methods, reason = "the positional shims are the reference these tests compare against")]

use remos_prop::prelude::*;
use remos_core::collector::oracle::OracleCollector;
use remos_core::collector::Collector;
use remos_core::modeler::{Modeler, ModelerConfig, QueryWorkspace};
use remos_core::timeframe::Timeframe;
use remos_net::{FabricChurn, FatTree, SimDuration, Simulator, SolverMode};
use remos_snmp::sim::{share, SharedSim};
use std::sync::Arc;

/// Replay a seeded churn schedule; digest the rates every few events
/// plus the event log at the end.
fn churn_digests(
    k: usize,
    flows: usize,
    seed: u64,
    locality: u32,
    events: usize,
    mode: SolverMode,
) -> (Vec<u64>, u64) {
    let mut churn = FabricChurn::new(k, flows, seed, locality).expect("churn builds");
    churn.sim.set_solver_mode(mode);
    let mut checkpoints = Vec::new();
    for i in 0..events {
        churn.step().expect("churn event");
        if i % 4 == 3 {
            checkpoints.push(churn.sim.rates_digest());
        }
    }
    checkpoints.push(churn.sim.rates_digest());
    (checkpoints, churn.sim.event_digest())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Property 1: solver-mode equivalence on generated fabrics.
    #[test]
    fn csr_churn_digests_match_across_solver_modes(
        k in prop_oneof![Just(4usize), Just(8usize)],
        flows in 4usize..48,
        seed in any::<u64>(),
        locality in 0u32..=100,
        events in 1usize..24,
    ) {
        let full = churn_digests(k, flows, seed, locality, events, SolverMode::Full);
        let inc = churn_digests(k, flows, seed, locality, events, SolverMode::Incremental);
        prop_assert_eq!(full, inc);
    }

    /// Property 2: graph-query equivalence — the cached, reused-workspace
    /// query answers exactly as a capacity-0 cold rebuild does.
    #[test]
    fn csr_graph_digests_match_across_query_paths(
        k in prop_oneof![Just(4usize), Just(8usize)],
        seed in any::<u64>(),
        locality in 0u32..=100,
        hosts_per_pod in 1usize..4,
        polls in 1usize..5,
        window_ms in prop_oneof![Just(None), (100u64..4_000).prop_map(Some)],
    ) {
        // A churned fabric gives the collector non-trivial utilization.
        let mut churn =
            FabricChurn::new(k, 24, seed, locality).expect("churn builds");
        for _ in 0..8 {
            churn.step().expect("churn event");
        }
        let tree = FatTree::build(k).expect("fat tree builds");
        let mut names = Vec::new();
        for p in 0..tree.pods() {
            for i in 0..hosts_per_pod.min(tree.hosts_per_pod()) {
                names.push(tree.topology().node(tree.host(p, i)).name.clone());
            }
        }
        // Hand the churned simulator to the oracle: same topology, so the
        // query plan sees the fabric the churn actually loaded.
        let sim: SharedSim = share(std::mem::replace(
            &mut churn.sim,
            Simulator::new(tree.into_parts().0).expect("placeholder simulator"),
        ));
        let mut col = OracleCollector::new(Arc::clone(&sim));
        for _ in 0..polls {
            sim.lock().run_for(SimDuration::from_millis(200)).expect("advance sim");
            col.poll().expect("poll oracle");
        }
        let tf = match window_ms {
            None => Timeframe::Current,
            Some(ms) => Timeframe::Window(SimDuration::from_millis(ms)),
        };

        let cold = Modeler::new(ModelerConfig { plan_cache_capacity: 0, ..Default::default() });
        let cached = Modeler::new(ModelerConfig::default());
        let cold_digest = cold.get_graph(&col, &names, tf).expect("cold query").digest();

        let mut ws = QueryWorkspace::new();
        for round in 0..3 {
            let g = cached.get_graph_in(&col, &names, tf, &mut ws).expect("workspace query");
            prop_assert_eq!(
                g.digest(),
                cold_digest,
                "workspace query diverged on round {}",
                round
            );
        }
    }
}
