//! Engine-level equivalence of the two rate-recomputation strategies.
//!
//! The same randomly generated churn schedule — weighted flow arrivals,
//! bounded completions, explicit stops, and scheduled link flaps
//! (including zero-length outages, which coalesce into a down+up pair at
//! one instant) — is replayed on two simulators, one per [`SolverMode`].
//! Every checkpoint's allocation digest, the final event digest, and the
//! audit outcome must match bit-for-bit: the incremental solver is not
//! allowed to be *approximately* right.

use remos_prop::prelude::*;
use remos_net::flow::FlowParams;
use remos_net::{mbps, SimDuration, SimTime, Simulator, SolverMode, Topology, TopologyBuilder};

/// A dumbbell with `n` hosts per side.
fn dumbbell(n: usize, backbone_mbps: f64) -> Topology {
    let mut b = TopologyBuilder::new();
    let rl = b.network("rl");
    let rr = b.network("rr");
    for i in 0..n {
        let h = b.compute(&format!("l{i}"));
        b.link(h, rl, mbps(100.0), SimDuration::from_micros(10)).unwrap();
    }
    for i in 0..n {
        let h = b.compute(&format!("r{i}"));
        b.link(h, rr, mbps(100.0), SimDuration::from_micros(10)).unwrap();
    }
    b.link(rl, rr, mbps(backbone_mbps), SimDuration::from_micros(10)).unwrap();
    b.build().unwrap()
}

#[derive(Debug, Clone)]
struct FlowPlan {
    src: usize, // left host index
    dst: usize, // right host index
    weight_tenths: u32,
    volume: Option<u64>,
    rate_cap_mbps: Option<f64>,
    start_ms: u64,
    stop_after_ms: Option<u64>,
}

fn arb_flow() -> impl Strategy<Value = FlowPlan> {
    (
        0usize..4,
        0usize..4,
        1u32..50,
        prop::option::of(1_000u64..20_000_000),
        prop::option::of(1.0..80.0f64),
        0u64..3_000,
        prop::option::of(100u64..5_000),
    )
        .prop_map(
            |(src, dst, weight_tenths, volume, rate_cap_mbps, start_ms, stop_after_ms)| FlowPlan {
                src,
                dst,
                weight_tenths,
                volume,
                rate_cap_mbps,
                start_ms,
                stop_after_ms,
            },
        )
}

#[derive(Debug, Clone)]
struct FlapPlan {
    link_pick: usize,
    down_ms: u64,
    /// Outage length; zero means down and up are due at the same instant
    /// and must be coalesced into one routing rebuild.
    outage_ms: u64,
}

fn arb_flap() -> impl Strategy<Value = FlapPlan> {
    (0usize..16, 100u64..4_000, prop_oneof![Just(0u64), 1u64..2_000])
        .prop_map(|(link_pick, down_ms, outage_ms)| FlapPlan { link_pick, down_ms, outage_ms })
}

/// Trace of one replay: per-arrival allocation digests, final allocation
/// digest, final event digest, and rendered audit violations.
type Trace = (Vec<u64>, u64, u64, Vec<String>);

fn replay(mode: SolverMode, plans: &[FlowPlan], flaps: &[FlapPlan], backbone: f64) -> Trace {
    let mut sim = Simulator::new(dumbbell(4, backbone)).unwrap();
    sim.set_solver_mode(mode);
    sim.enable_audit();
    let t = sim.topology_arc();
    let links: Vec<_> = t.link_ids().collect();
    for f in flaps {
        let l = links[f.link_pick % links.len()];
        sim.schedule_link_state(SimTime::from_millis(f.down_ms), l, false).unwrap();
        sim.schedule_link_state(SimTime::from_millis(f.down_ms + f.outage_ms), l, true).unwrap();
    }
    let mut checkpoints = Vec::new();
    let mut stops: Vec<(u64, remos_net::FlowHandle)> = Vec::new();
    for p in plans {
        sim.run_until(SimTime::from_millis(p.start_ms)).unwrap();
        let src = t.lookup(&format!("l{}", p.src)).unwrap();
        let dst = t.lookup(&format!("r{}", p.dst)).unwrap();
        let mut params = FlowParams {
            src,
            dst,
            weight: f64::from(p.weight_tenths) / 10.0,
            rate_cap: p.rate_cap_mbps.map(mbps),
            volume: p.volume,
            tag: remos_net::flow::FlowTag::APP,
        };
        if params.volume.is_none() && params.rate_cap.is_none() {
            params.volume = Some(1_000_000);
        }
        // A flap may have cut the route; both replays must fail alike.
        if let Ok(h) = sim.start_flow(params) {
            if let Some(after) = p.stop_after_ms {
                stops.push((p.start_ms + after, h));
            }
        }
        checkpoints.push(sim.rates_digest());
    }
    stops.sort_by_key(|&(at, h)| (at, h.id()));
    for (at, h) in stops {
        sim.run_until(SimTime::from_millis(at)).unwrap();
        if sim.flow_is_active(h) {
            sim.stop_flow(h).unwrap();
        }
        checkpoints.push(sim.rates_digest());
    }
    sim.run_until(SimTime::from_secs(10)).unwrap();
    let rates = sim.rates_digest();
    let violations = sim.audit_violations().iter().map(|v| v.to_string()).collect();
    (checkpoints, rates, sim.event_digest(), violations)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Bit-identical digests at every checkpoint, in both modes, with a
    /// clean audit (which, in incremental mode, includes a shadow full
    /// solve of every recomputation).
    #[test]
    fn incremental_and_full_replays_agree(
        plans in prop::collection::vec(arb_flow(), 1..12),
        flaps in prop::collection::vec(arb_flap(), 0..4),
        backbone in 10.0..100.0f64,
    ) {
        let mut plans = plans;
        plans.sort_by_key(|p| p.start_ms);
        let full = replay(SolverMode::Full, &plans, &flaps, backbone);
        let inc = replay(SolverMode::Incremental, &plans, &flaps, backbone);
        prop_assert!(full.3.is_empty(), "full-mode audit: {:?}", full.3);
        prop_assert!(inc.3.is_empty(), "incremental-mode audit: {:?}", inc.3);
        prop_assert_eq!(full, inc);
    }
}

/// Switching modes mid-run resynchronises cleanly: the rest of the run
/// still matches a run done entirely in the other mode.
#[test]
fn mode_switch_mid_run_converges() {
    let run = |switch: bool| {
        let mut sim = Simulator::new(dumbbell(4, 40.0)).unwrap();
        sim.enable_audit();
        let t = sim.topology_arc();
        let mut handles = Vec::new();
        for i in 0..4 {
            let src = t.lookup(&format!("l{i}")).unwrap();
            let dst = t.lookup(&format!("r{}", (i + 1) % 4)).unwrap();
            handles.push(sim.start_flow(FlowParams::bulk(src, dst, 40_000_000)).unwrap());
        }
        sim.run_until(SimTime::from_secs(1)).unwrap();
        if switch {
            sim.set_solver_mode(SolverMode::Full);
        }
        sim.run_until_flows_complete(&handles).unwrap();
        assert!(sim.audit_violations().is_empty(), "{:?}", sim.audit_violations());
        (sim.rates_digest(), sim.event_digest())
    };
    assert_eq!(run(false), run(true));
}

/// Two stars joined by one trunk: flows inside a star share only that
/// star's links, so the sharing graph has (at least) one component per
/// star until a flow crosses the trunk.
fn two_stars(n: usize) -> Topology {
    let mut b = TopologyBuilder::new();
    let sa = b.network("sa");
    let sb = b.network("sb");
    for (side, hub) in [("a", sa), ("b", sb)] {
        for i in 0..n {
            let h = b.compute(&format!("{side}{i}"));
            b.link(h, hub, mbps(100.0), SimDuration::from_micros(10)).unwrap();
        }
    }
    b.link(sa, sb, mbps(60.0), SimDuration::from_micros(10)).unwrap();
    b.build().unwrap()
}

/// The scoped solve walks each component once, from whichever touched
/// resource reaches it first. A trunk flow's arrival merges the two
/// stars' components and its departure splits them again, so one
/// recomputation's touched set spans several components; every step
/// must leave the rates a full solve leaves (the audit's shadow solve
/// compares each one bit for bit) and the digests of a `Full`-mode run.
#[test]
fn trunk_flow_arrival_merges_and_departure_splits_components() {
    let run = |mode: SolverMode| {
        let mut sim = Simulator::new(two_stars(4)).unwrap();
        sim.set_solver_mode(mode);
        sim.enable_audit();
        let t = sim.topology_arc();
        let host = |name: &str| t.lookup(name).unwrap();
        let mut digests = Vec::new();
        // Two components per star: {x0→x1, x0→x2} share x0's uplink,
        // {x3→x2} shares x2's downlink with the first — one component —
        // while b's star gets the same shape with other weights.
        for (side, w) in [("a", 1.0), ("b", 2.5)] {
            for (s, d) in [(0, 1), (0, 2), (3, 2)] {
                let mut p = FlowParams::greedy(host(&format!("{side}{s}")), host(&format!("{side}{d}")));
                p.weight = w + d as f64;
                sim.start_flow(p).unwrap();
            }
            digests.push(sim.rates_digest());
        }
        for round in 0..3 {
            sim.run_for(SimDuration::from_millis(10)).unwrap();
            let mut p = FlowParams::greedy(host("a0"), host(&format!("b{round}")));
            p.rate_cap = (round == 1).then(|| mbps(7.0));
            let trunk = sim.start_flow(p).unwrap();
            digests.push(sim.rates_digest());
            sim.run_for(SimDuration::from_millis(10)).unwrap();
            sim.stop_flow(trunk).unwrap();
            digests.push(sim.rates_digest());
        }
        assert!(sim.audit_violations().is_empty(), "{mode:?}: {:?}", sim.audit_violations());
        (digests, sim.event_digest(), sim.scoped_recomputes())
    };
    let (full, full_events, _) = run(SolverMode::Full);
    let (inc, inc_events, scoped) = run(SolverMode::Incremental);
    assert_eq!(full, inc);
    assert_eq!(full_events, inc_events);
    assert!(scoped >= 8, "incremental mode solved scoped only {scoped} times");
}
