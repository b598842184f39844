//! What-if kernel vs. ground-truth simulator equivalence.
//!
//! The fluid FCT kernel ([`WhatIfEngine`]) exists so the query layer can
//! answer "what if I launched these flows?" thousands of times faster
//! than running the event-driven [`Simulator`] — but it is only useful
//! if it is *exactly* as right. For seeded fabric workloads across
//! fat-tree arities, flow counts, and offered loads, the kernel's
//! per-flow start/finish instants and its FCT digest must match a
//! ground-truth simulator replay, run with the max-min audit and its
//! shadow full solve on, bit-for-bit — in both of the kernel's
//! [`SolverMode`]s.

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

    /// Kernel estimates in both solver modes agree with the audited
    /// ground-truth simulator replay, bit-for-bit.
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

        let truth = replay_ground_truth(tree.topology().clone(), &flows).unwrap();

        let expected = trace_of(&truth);
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
        let truth = replay_ground_truth(tree.topology().clone(), &flows).unwrap();
        assert_eq!(got.fct_digest, truth.fct_digest, "seed {seed}");
    }
}

/// `fct_digest` of the quick-scale batch (k=8 fat-tree, 1,000 web-search
/// flows seeded from `0x0FC7` at 30% load). Machine-independent.
const QUICK_FCT_DIGEST: u64 = 0x764c_fb8a_0662_089a;

/// At a scale where hundreds of hypothetical flows overlap, the kernel in
/// both solver modes and the audited ground-truth replay all answer the
/// recorded digest, not only each other.
#[test]
fn quick_scale_fct_digest_matches_the_golden() {
    let (tree, flows) = workload(8, 0x0FC7, 1_000, 0.3, true);
    let mut engine = WhatIfEngine::from_topology(tree.topology().clone());
    for mode in [SolverMode::Incremental, SolverMode::Full] {
        engine.set_mode(mode);
        let kernel = engine.estimate(&flows).unwrap().fct_digest;
        assert_eq!(kernel, QUICK_FCT_DIGEST, "kernel {mode:?}: got {kernel:#x}");
    }
    let truth = replay_ground_truth(tree.topology().clone(), &flows).unwrap().fct_digest;
    assert_eq!(truth, QUICK_FCT_DIGEST, "ground truth: got {truth:#x}");
}

/// A background that greedy flows have saturated leaves each link its
/// capacity's last few bits — not zero, so rates are positive and ETAs
/// lie centuries past the end of the clock. Such a flow is starved, not
/// an overflow: without a horizon the replay reports `Stalled`, under one
/// it reports the flows incomplete, and it never panics.
#[test]
fn saturated_background_stalls_or_cuts_off_instead_of_overflowing() {
    let (tree, flows) = workload(4, 7, 16, 0.3, true);
    assert!(flows.iter().any(|f| f.arrival > remos_net::SimTime::ZERO));
    let background: Vec<f64> =
        tree.topology().dir_link_capacities().iter().map(|c| c * (1.0 - f64::EPSILON)).collect();
    for mode in [SolverMode::Incremental, SolverMode::Full] {
        let mut engine = WhatIfEngine::from_topology(tree.topology().clone());
        engine.set_mode(mode);
        let stalled = engine.estimate_with(&flows, Some(&background), None);
        assert!(matches!(stalled, Err(remos_net::NetError::Stalled)), "{mode:?}: {stalled:?}");
        let horizon = remos_net::SimTime::from_secs(3_600);
        let cut = engine.estimate_with(&flows, Some(&background), Some(horizon)).unwrap();
        assert!(cut.estimates.iter().all(|e| !e.completed && e.finished <= horizon), "{mode:?}");
    }
}

/// On a k=8 fat-tree only the 1 Gb/s host links can bind, so what an
/// event re-solves is the flows sharing a host link with it — not every
/// flow its path meets on a 10 or 40 Gb/s tier. 32 transfers between
/// disjoint host pairs overlap: each arrival re-solves itself alone and
/// each completion nobody. One more transfer, from the first pair's
/// source to the second pair's destination, joins those two: its arrival
/// re-solves the three, the first pair's completion the two left, the
/// second pair's the one left.
#[test]
fn an_event_re_solves_only_the_flows_sharing_a_host_link() {
    const PAIRS: usize = 32;
    let tree = FatTree::build(8).unwrap();
    let (hosts, half) = (tree.hosts(), tree.hosts().len() / 2);
    let transfer = |src: usize, dst: usize, at_ms: u64| WhatIfFlow {
        src: hosts[src],
        dst: hosts[half + dst],
        size_bytes: 125_000_000, // one second alone on a host link
        arrival: remos_net::SimTime::from_millis(at_ms),
    };
    let mut flows: Vec<WhatIfFlow> = (0..PAIRS).map(|i| transfer(i, i, i as u64)).collect();
    flows.push(transfer(0, 1, PAIRS as u64));

    let mut engine = WhatIfEngine::from_topology(tree.topology().clone());
    let inc = engine.estimate(&flows).unwrap();
    assert_eq!(engine.flows_resolved(), PAIRS as u64 + 3 + 2 + 1);
    assert!(inc.estimates[2..PAIRS].iter().all(|e| e.slowdown == 1.0), "a disjoint pair shared");
    assert!(inc.estimates[PAIRS].slowdown > 1.9, "{}", inc.estimates[PAIRS].slowdown);

    // The same replay, step for step, as a full solve per event.
    engine.set_mode(SolverMode::Full);
    let full = engine.estimate(&flows).unwrap();
    assert_eq!(engine.flows_resolved(), 0);
    assert_eq!(trace_of(&full), trace_of(&inc));
    assert_eq!((full.replay_steps, full.solves), (inc.replay_steps, inc.solves));
    let truth = replay_ground_truth(tree.topology().clone(), &flows).unwrap();
    assert_eq!(truth.fct_digest, inc.fct_digest);
}
