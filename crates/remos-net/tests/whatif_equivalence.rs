//! What-if kernel vs. ground-truth simulator equivalence.
//!
//! The fluid FCT kernel ([`WhatIfEngine`]) exists so the query layer can
//! answer "what if I launched these flows?" thousands of times faster
//! than running the event-driven [`Simulator`] — but it is only useful
//! if it is *exactly* as right. For seeded fabric workloads across
//! fat-tree arities, flow counts, and offered loads, the kernel's
//! per-flow start/finish instants and its FCT digest must match a
//! ground-truth simulator replay bit-for-bit, in both [`SolverMode`]s.

use remos_prop::prelude::*;
use remos_net::fabric::{synth_fabric_workload, FatTree, FlowSizeEcdf, WorkloadSpec};
use remos_net::whatif::{replay_ground_truth, WhatIfEngine, WhatIfFlow};
use remos_net::SolverMode;

/// Deterministic seeded workload over a k-ary fat-tree.
fn workload(k: usize, seed: u64, flows: usize, load: f64, web: bool) -> (FatTree, Vec<WhatIfFlow>) {
    let tree = FatTree::build(k).unwrap();
    let ecdf = if web { FlowSizeEcdf::web_search() } else { FlowSizeEcdf::data_mining() };
    let spec = WorkloadSpec::new(seed, flows, load);
    let flows = synth_fabric_workload(&tree, &ecdf, &spec).unwrap();
    (tree, flows)
}

/// `(digest, per-flow (started, finished, completed))` for one replay.
type Trace = (u64, Vec<(u64, u64, bool)>);

fn trace_of(report: &remos_net::whatif::WhatIfReport) -> Trace {
    let per_flow = report
        .estimates
        .iter()
        .map(|e| (e.started.as_nanos(), e.finished.as_nanos(), e.completed))
        .collect();
    (report.fct_digest, per_flow)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Kernel estimates in both solver modes agree with ground-truth
    /// simulator replays in both solver modes, bit-for-bit.
    #[test]
    fn whatif_matches_ground_truth_replay(
        k in prop_oneof![Just(4usize), Just(6), Just(8)],
        seed in 0u64..1_000_000,
        n_flows in 1usize..48,
        load_pct in 5u32..60,
        web in any::<bool>(),
    ) {
        let load = f64::from(load_pct) / 100.0;
        let (tree, flows) = workload(k, seed, n_flows, load, web);
        prop_assert_eq!(flows.len(), n_flows);

        let mut engine = WhatIfEngine::from_topology(tree.topology().clone());
        engine.set_mode(SolverMode::Incremental);
        let inc = engine.estimate(&flows).unwrap();
        engine.set_mode(SolverMode::Full);
        let full = engine.estimate(&flows).unwrap();

        let truth_inc =
            replay_ground_truth(tree.topology().clone(), &flows, SolverMode::Incremental)
                .unwrap();
        let truth_full =
            replay_ground_truth(tree.topology().clone(), &flows, SolverMode::Full).unwrap();

        let expected = trace_of(&truth_inc);
        prop_assert_eq!(&trace_of(&truth_full), &expected, "ground truth modes diverge");
        prop_assert_eq!(&trace_of(&inc), &expected, "incremental kernel != ground truth");
        prop_assert_eq!(&trace_of(&full), &expected, "full kernel != ground truth");

        // Every flow drains (no horizon, finite capacities), and the
        // kernel reports the slowdown >= 1 invariant the simulator's
        // max-min allocation implies.
        for e in &inc.estimates {
            prop_assert!(e.completed);
            prop_assert!(e.slowdown >= 1.0 - 1e-9, "slowdown {}", e.slowdown);
        }
    }
}

/// One scratch engine reused across back-to-back batches stays
/// bit-identical to fresh ground-truth replays: the arena reset between
/// `estimate` calls leaks no state.
#[test]
fn engine_reuse_across_batches_is_clean() {
    let tree = FatTree::build(4).unwrap();
    let ecdf = FlowSizeEcdf::web_search();
    let mut engine = WhatIfEngine::from_topology(tree.topology().clone());
    for seed in [1u64, 2, 3, 4, 5] {
        let spec = WorkloadSpec::new(seed, 24, 0.3);
        let flows = synth_fabric_workload(&tree, &ecdf, &spec).unwrap();
        let got = engine.estimate(&flows).unwrap();
        let truth =
            replay_ground_truth(tree.topology().clone(), &flows, SolverMode::Incremental)
                .unwrap();
        assert_eq!(got.fct_digest, truth.fct_digest, "seed {seed}");
    }
}
