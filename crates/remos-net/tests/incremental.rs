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
use remos_net::{
    mbps, FatTree, LinkId, NodeId, SimDuration, SimTime, Simulator, SolverMode, Topology,
    TopologyBuilder,
};

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

/// Four pods of four 100 Mb/s hosts behind switches whose backplanes cap
/// at 150 Mb/s, joined by a core capped at 400 Mb/s over 1 Gb/s uplinks
/// (which therefore never bind).
fn capped_pods() -> Topology {
    let mut b = TopologyBuilder::new();
    let lat = SimDuration::from_micros(10);
    let core = b.network_with_internal_bw("core", mbps(400.0));
    for p in 0..4 {
        let s = b.network_with_internal_bw(&format!("s{p}"), mbps(150.0));
        b.link(s, core, mbps(1000.0), lat).unwrap();
        for j in 0..4 {
            let h = b.compute(&format!("h{p}x{j}"));
            b.link(h, s, mbps(100.0), lat).unwrap();
        }
    }
    b.build().unwrap()
}

#[derive(Debug, Clone)]
struct FlowPlan {
    src: usize, // index into the topology's compute nodes
    dst: usize,
    weight_tenths: u32,
    volume: Option<u64>,
    rate_cap_mbps: Option<f64>,
    start_ms: u64,
    stop_after_ms: Option<u64>,
}

/// A flow between two of `hosts` compute nodes, capped (if at all) at up
/// to `max_cap_mbps`.
fn arb_flow_among(hosts: usize, max_cap_mbps: f64) -> impl Strategy<Value = FlowPlan> {
    (
        0..hosts,
        0..hosts,
        1u32..50,
        prop::option::of(1_000u64..20_000_000),
        prop::option::of(1.0..max_cap_mbps),
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

/// A left-to-right flow across [`dumbbell`]`(4, _)`, whose compute nodes
/// are the four left hosts and then the four right ones.
fn arb_flow() -> impl Strategy<Value = FlowPlan> {
    arb_flow_among(4, 80.0).prop_map(|p| FlowPlan { dst: p.dst + 4, ..p })
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

fn replay(mode: SolverMode, topo: Topology, plans: &[FlowPlan], flaps: &[FlapPlan]) -> Trace {
    let mut sim = Simulator::new(topo).unwrap();
    sim.set_solver_mode(mode);
    sim.enable_audit();
    let t = sim.topology_arc();
    let links: Vec<_> = t.link_ids().collect();
    let hosts = t.compute_nodes();
    for f in flaps {
        let l = links[f.link_pick % links.len()];
        sim.schedule_link_state(SimTime::from_millis(f.down_ms), l, false).unwrap();
        sim.schedule_link_state(SimTime::from_millis(f.down_ms + f.outage_ms), l, true).unwrap();
    }
    let mut checkpoints = Vec::new();
    let mut stops: Vec<(u64, remos_net::FlowHandle)> = Vec::new();
    for p in plans {
        sim.run_until(SimTime::from_millis(p.start_ms)).unwrap();
        let mut params = FlowParams {
            src: hosts[p.src],
            dst: hosts[p.dst],
            weight: f64::from(p.weight_tenths) / 10.0,
            rate_cap: p.rate_cap_mbps.map(mbps),
            volume: p.volume,
            tag: remos_net::flow::FlowTag::APP,
        };
        if params.volume.is_none() && params.rate_cap.is_none() {
            params.volume = Some(1_000_000);
        }
        // A flap may have cut the route, or the plan drew one host twice;
        // both replays must fail alike.
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

/// Bit-identical digests at every checkpoint, in both modes, with a clean
/// audit (which, in incremental mode, includes a shadow full solve of
/// every recomputation).
fn replays_agree(
    topo: impl Fn() -> Topology,
    mut plans: Vec<FlowPlan>,
    flaps: &[FlapPlan],
) -> Result<(), String> {
    plans.sort_by_key(|p| p.start_ms);
    let full = replay(SolverMode::Full, topo(), &plans, flaps);
    let inc = replay(SolverMode::Incremental, topo(), &plans, flaps);
    prop_assert!(full.3.is_empty(), "full-mode audit: {:?}", full.3);
    prop_assert!(inc.3.is_empty(), "incremental-mode audit: {:?}", inc.3);
    prop_assert_eq!(full, inc);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn incremental_and_full_replays_agree(
        plans in prop::collection::vec(arb_flow(), 1..12),
        flaps in prop::collection::vec(arb_flap(), 0..4),
        backbone in 10.0..100.0f64,
    ) {
        replays_agree(|| dumbbell(4, backbone), plans, &flaps)?;
    }

    /// The same on fabrics where most resources are slack most of the
    /// time — a k=4 fat-tree's 10/40 Gb/s tiers, a pod network's uplinks —
    /// and which ones bind moves with every cap drawn, stop and flap.
    #[test]
    fn replays_agree_where_slack_and_binding_resources_mix(
        plans in prop::collection::vec(arb_flow_among(16, 1_500.0), 1..24),
        flaps in prop::collection::vec(arb_flap(), 0..4),
    ) {
        replays_agree(|| FatTree::build(4).unwrap().topology().clone(), plans.clone(), &flaps)?;
        replays_agree(capped_pods, plans, &flaps)?;
    }
}

/// Drive `scenario` on an audited simulator over `topo` in each solver
/// mode; it returns the rates it observed, which — with the final event
/// digest — must agree bit for bit between the modes. Returns the rates.
fn in_both_modes(
    topo: impl Fn() -> Topology,
    scenario: impl Fn(&mut Simulator, &dyn Fn(&str) -> NodeId) -> Vec<f64>,
) -> Vec<f64> {
    let run = |mode: SolverMode| {
        let mut sim = Simulator::new(topo()).unwrap();
        sim.set_solver_mode(mode);
        sim.enable_audit();
        let t = sim.topology_arc();
        let rates = scenario(&mut sim, &|name| t.lookup(name).unwrap());
        assert!(sim.audit_violations().is_empty(), "{mode:?}: {:?}", sim.audit_violations());
        let bits: Vec<u64> = rates.iter().map(|r| r.to_bits()).collect();
        (rates, bits, sim.event_digest())
    };
    let (full, inc) = (run(SolverMode::Full), run(SolverMode::Incremental));
    assert_eq!((&full.1, full.2), (&inc.1, inc.2));
    inc.0
}

/// Three 25 Mb/s CBR flows over [`two_stars`]' 60 Mb/s trunk make it bind
/// (20 each); any two leave it slack. Returns the rates seen with all
/// three up, after the first left, and after a replacement arrived.
fn trunk_binding_then_slack_then_binding() -> Vec<f64> {
    in_both_modes(
        || two_stars(4),
        |sim, host| {
            let cbr = |i: usize| {
                FlowParams::cbr(host(&format!("a{i}")), host(&format!("b{i}")), mbps(25.0))
            };
            let flows: Vec<_> = (0..3).map(|i| sim.start_flow(cbr(i)).unwrap()).collect();
            let mut seen: Vec<f64> = flows.iter().map(|&f| sim.flow_rate(f).unwrap()).collect();
            sim.run_for(SimDuration::from_millis(10)).unwrap();
            sim.stop_flow(flows[0]).unwrap();
            seen.extend(flows[1..].iter().map(|&f| sim.flow_rate(f).unwrap()));
            sim.run_for(SimDuration::from_millis(10)).unwrap();
            let back = sim.start_flow(cbr(3)).unwrap();
            seen.extend([flows[1], flows[2], back].iter().map(|&f| sim.flow_rate(f).unwrap()));
            seen
        },
    )
}

/// The departure is the only thing that touches the trunk, and it leaves
/// it slack: only the mark set *before* the removal tells the walk that
/// the survivors' rates were set by it.
#[test]
fn a_departure_turns_a_binding_trunk_slack_and_the_survivors_speed_up() {
    let seen = trunk_binding_then_slack_then_binding();
    assert!(seen[..3].iter().all(|r| (r - mbps(20.0)).abs() < 1.0), "{seen:?}");
    assert_eq!(seen[3..5], [mbps(25.0); 2], "survivors did not reach their caps");
}

#[test]
fn an_arrival_turns_a_slack_trunk_binding_again() {
    let seen = trunk_binding_then_slack_then_binding();
    assert!(seen[5..].iter().all(|r| (r - mbps(20.0)).abs() < 1.0), "{seen:?}");
}

/// A 10 Mb/s CBR flow alone on 100 Mb/s links crosses nothing that can
/// bind: no component claims it and it gets exactly its cap. A greedy
/// neighbour into the same host makes the shared downlink bind (the two
/// are solved together), and its departure makes it slack again.
#[test]
fn a_cbr_flow_on_slack_resources_sits_at_its_cap_through_a_greedy_neighbour() {
    let seen = in_both_modes(
        || two_stars(4),
        |sim, host| {
            let cbr = sim.start_flow(FlowParams::cbr(host("a0"), host("a1"), mbps(10.0))).unwrap();
            let mut seen = vec![sim.flow_rate(cbr).unwrap()];
            sim.run_for(SimDuration::from_millis(10)).unwrap();
            let greedy = sim.start_flow(FlowParams::greedy(host("a2"), host("a1"))).unwrap();
            seen.extend([sim.flow_rate(cbr).unwrap(), sim.flow_rate(greedy).unwrap()]);
            sim.run_for(SimDuration::from_millis(10)).unwrap();
            sim.stop_flow(greedy).unwrap();
            seen.push(sim.flow_rate(cbr).unwrap());
            seen
        },
    );
    assert_eq!([seen[0], seen[1], seen[3]], [mbps(10.0); 3]);
    assert!((seen[2] - mbps(90.0)).abs() < 1.0, "{seen:?}");
}

/// h1 reaches h2 over r1 (100 Mb/s) or, one hop longer, over r2–r3
/// (50 Mb/s), which h3 → h4 also crosses. Returns the r1 link too.
fn detour() -> (Topology, LinkId) {
    let mut b = TopologyBuilder::new();
    let lat = SimDuration::from_micros(10);
    let [h1, h2, h3, h4] = ["h1", "h2", "h3", "h4"].map(|n| b.compute(n));
    let [r1, r2, r3] = ["r1", "r2", "r3"].map(|n| b.network(n));
    let primary = b.link(h1, r1, mbps(100.0), lat).unwrap();
    b.link(r1, h2, mbps(100.0), lat).unwrap();
    for (x, y, bw) in [(h1, r2, 50.0), (r2, r3, 50.0), (r3, h2, 50.0), (h3, r2, 100.0), (h4, r3, 100.0)] {
        b.link(x, y, mbps(bw), lat).unwrap();
    }
    (b.build().unwrap(), primary)
}

/// A flap re-paths the greedy flow onto the detour, where r2 → r3 starts
/// to bind and squeezes the CBR flow; the flap back takes it away again —
/// a re-path is a departure from the old path, so the same mark applies.
#[test]
fn a_repath_across_a_link_flap_binds_and_releases_the_detour() {
    let seen = in_both_modes(
        || detour().0,
        |sim, host| {
            let greedy = sim.start_flow(FlowParams::greedy(host("h1"), host("h2"))).unwrap();
            let cbr = sim.start_flow(FlowParams::cbr(host("h3"), host("h4"), mbps(30.0))).unwrap();
            let mut seen = Vec::new();
            for up in [true, false, true] {
                sim.set_link_state(detour().1, up).unwrap();
                seen.extend([sim.flow_rate(greedy).unwrap(), sim.flow_rate(cbr).unwrap()]);
                sim.run_for(SimDuration::from_millis(10)).unwrap();
            }
            seen
        },
    );
    let want = [100.0, 30.0, 25.0, 25.0, 100.0, 30.0].map(mbps);
    assert!(seen.iter().zip(want).all(|(r, w)| (r - w).abs() < 1.0), "{seen:?}");
    assert_eq!([seen[1], seen[5]], [mbps(30.0); 2]);
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
