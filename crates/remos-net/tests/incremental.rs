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
    gbps, mbps, FatTree, FlowHandle, LinkId, NodeId, SimDuration, SimTime, Simulator, SolverMode,
    Topology, TopologyBuilder,
};
use std::collections::VecDeque;

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

/// A unit-weight flow between two of `hosts` compute nodes: greedy or CBR
/// at a whole number of Mb/s, half and half — equal shares everywhere.
fn arb_tied_flow_among(hosts: usize) -> impl Strategy<Value = FlowPlan> {
    let cap = prop_oneof![Just(None), (1u32..1_000).prop_map(|m| Some(f64::from(m)))];
    (arb_flow_among(hosts, 2.0), cap)
        .prop_map(|(p, rate_cap_mbps)| FlowPlan { weight_tenths: 10, rate_cap_mbps, ..p })
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

    /// The same on a k=4 fat-tree with ties everywhere: unit weights,
    /// 1 Gb/s host links that greedy flows split into equal (and, by
    /// thirds and sevenths, rounded) shares, caps at whole Mb/s that land
    /// exactly on a share.
    #[test]
    fn replays_agree_on_a_tie_heavy_fat_tree(
        plans in prop::collection::vec(arb_tied_flow_among(16), 1..32),
        flaps in prop::collection::vec(arb_flap(), 0..3),
    ) {
        replays_agree(|| FatTree::build(4).unwrap().topology().clone(), plans, &flaps)?;
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
/// it slack: a slack resource is not rebuilt, so the survivors it froze
/// must find their new freezes elsewhere — here, at their caps.
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
/// a re-path is a departure from the old path and an arrival on the new.
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

/// A trunk flow's arrival merges the two stars' components and its
/// departure splits them again, so one recomputation's dirty set spans
/// several components; every step must leave the rates a full solve
/// leaves (the audit's shadow solve compares each one bit for bit) and
/// the digests of a `Full`-mode run.
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

/// A star whose hub does not bind, with one host link per `(name, Mb/s)`.
fn star_of(links: &[(&str, f64)]) -> Topology {
    let mut b = TopologyBuilder::new();
    let hub = b.network("s");
    for &(name, bw) in links {
        let h = b.compute(name);
        b.link(h, hub, mbps(bw), SimDuration::from_micros(10)).unwrap();
    }
    b.build().unwrap()
}

/// Flows the incremental run's solves froze during `change`; nothing to
/// count in `Full` mode.
fn resolved_by(sim: &mut Simulator, change: impl FnOnce(&mut Simulator)) -> u64 {
    let before = sim.flows_resolved();
    change(sim);
    sim.settle_rates();
    sim.flows_resolved() - before
}

/// a's uplink (m, g, h) and b's downlink (m, n1, n2) both share 90 Mb/s
/// three ways; a's pops first (lower index), then b's at the same 30.
/// When g leaves, b's downlink pops first at 30 and refreezes m, n1 and
/// n2 at the bits they had: n1 and n2 keep their keys, so e's and f's
/// uplinks — where p1 and p2 take the 60 n1 and n2 leave — are never
/// visited. The sweep freezes m, h, n1, n2; the closure walk it replaced
/// re-filled all six, the whole binding component.
#[test]
fn a_departure_whose_neighbouring_pop_comes_out_bit_equal_stops_there() {
    let links = [("a", 90.0), ("b", 90.0), ("e", 90.0), ("f", 90.0)];
    let wide = ["c", "d", "x", "y"].map(|n| (n, 1_000.0));
    let topo = || star_of(&[&links[..], &wide[..]].concat());
    let seen = in_both_modes(topo, |sim, host| {
        let go = |sim: &mut Simulator, s: &str, d: &str| {
            sim.start_flow(FlowParams::greedy(host(s), host(d))).unwrap()
        };
        let m = go(sim, "a", "b");
        let g = go(sim, "a", "c");
        let h = go(sim, "a", "d");
        let n = [go(sim, "e", "b"), go(sim, "f", "b")];
        let p = [go(sim, "e", "x"), go(sim, "f", "y")];
        let all = [m, h, n[0], n[1], p[0], p[1]];
        let mut seen: Vec<f64> = all.iter().map(|&f| sim.flow_rate(f).unwrap()).collect();
        let resolved = resolved_by(sim, |sim| {
            sim.stop_flow(g).unwrap();
        });
        if sim.solver_mode() == SolverMode::Incremental {
            assert_eq!(resolved, 4, "flows re-solved by the departure");
        }
        seen.extend(all.iter().map(|&f| sim.flow_rate(f).unwrap()));
        seen
    });
    assert_eq!(seen[..6], [30.0, 30.0, 30.0, 30.0, 60.0, 60.0].map(mbps));
    assert_eq!(seen[6..], [30.0, 60.0, 30.0, 30.0, 60.0, 60.0].map(mbps));
}

/// b's downlink (60 Mb/s: m, n) pops at 30 and sets m, while a's uplink
/// (100 Mb/s) carries m alone. Four arrivals on a's uplink make it pop at
/// 20 — below the clean downlink's stored pop — so m freezes there first,
/// which dirties the downlink: rebuilt with m's 20 gone, it pops n at 40.
#[test]
fn an_arrival_makes_a_dirty_resource_pop_below_a_clean_one() {
    let topo = || star_of(&[("a", 100.0), ("b", 60.0), ("c", 1_000.0), ("e", 1_000.0)]);
    let seen = in_both_modes(topo, |sim, host| {
        let m = sim.start_flow(FlowParams::greedy(host("a"), host("b"))).unwrap();
        let n = sim.start_flow(FlowParams::greedy(host("e"), host("b"))).unwrap();
        let mut seen = vec![sim.flow_rate(m).unwrap(), sim.flow_rate(n).unwrap()];
        let x: Vec<_> =
            (0..4).map(|_| sim.start_flow(FlowParams::greedy(host("a"), host("c"))).unwrap()).collect();
        seen.extend([m, n, x[0]].iter().map(|&f| sim.flow_rate(f).unwrap()));
        seen
    });
    assert_eq!(seen, [30.0, 30.0, 20.0, 40.0, 20.0].map(mbps));
}

/// f (weight 0.2, capped at 3 Mb/s) shares a's uplink with one unit
/// flow. The uplink's share comes out one ulp under 15 Mb/s = cap ÷
/// weight, so the link pops *before* f's cap event, and 0.2 × share
/// rounds to exactly 3 Mb/s: f freezes at the pop with rate == cap. When
/// its neighbour leaves, f freezes at its cap event instead — the same
/// rate under another key, which the sweep must treat as a change.
#[test]
fn a_capped_flow_freezes_at_a_pop_with_rate_equal_to_its_cap() {
    let uplink = 17_999_999.999_999_996 / 1e6;
    let topo = move || star_of(&[("a", uplink), ("b", 1_000.0), ("c", 1_000.0)]);
    let seen = in_both_modes(topo, |sim, host| {
        let p = FlowParams::cbr(host("a"), host("b"), mbps(3.0)).with_weight(0.2);
        let f = sim.start_flow(p).unwrap();
        let other = sim.start_flow(FlowParams::greedy(host("a"), host("c"))).unwrap();
        let mut seen = vec![sim.flow_rate(f).unwrap(), sim.flow_rate(other).unwrap()];
        sim.run_for(SimDuration::from_millis(10)).unwrap();
        sim.stop_flow(other).unwrap();
        seen.push(sim.flow_rate(f).unwrap());
        seen
    });
    assert_eq!([seen[0].to_bits(), seen[2].to_bits()], [mbps(3.0).to_bits(); 2]);
    assert!(seen[1] < 15e6 && seen[1] > 15e6 * (1.0 - 1e-15), "{seen:?}");
}

/// The flow of the test above, m, now also crosses b's 33 Mb/s downlink
/// with a (alone on d's uplink of exactly the pop share, one resource
/// later) and greedy n. Alone on its uplink, m freezes at its cap event,
/// after a; once a neighbour arrives on the uplink, m freezes at the
/// uplink's pop — the same 3 Mb/s, but before a — so the downlink takes
/// m's and a's rates off in the other order and n's share comes out an
/// ulp apart. Only m's changed *key* says so: its rate bits did not move.
#[test]
fn a_flow_refrozen_at_its_old_rate_under_an_earlier_key_reorders_its_neighbour() {
    let share = f64::from_bits((15e6f64).to_bits() - 1);
    let uplink = 17_999_999.999_999_996 / 1e6;
    let links = [("a", uplink), ("b", 33.0), ("c", 1_000.0), ("d", share / 1e6), ("e", 1_000.0)];
    let seen = in_both_modes(|| star_of(&links), |sim, host| {
        let p = FlowParams::cbr(host("a"), host("b"), mbps(3.0)).with_weight(0.2);
        let m = sim.start_flow(p).unwrap();
        let a = sim.start_flow(FlowParams::greedy(host("d"), host("b"))).unwrap();
        let n = sim.start_flow(FlowParams::greedy(host("e"), host("b"))).unwrap();
        let mut seen: Vec<f64> = [m, a, n].iter().map(|&f| sim.flow_rate(f).unwrap()).collect();
        sim.run_for(SimDuration::from_millis(10)).unwrap();
        sim.start_flow(FlowParams::greedy(host("a"), host("c"))).unwrap();
        seen.extend([m, a, n].iter().map(|&f| sim.flow_rate(f).unwrap()));
        seen
    });
    assert_eq!((seen[0], seen[3]), (mbps(3.0), mbps(3.0)));
    assert_eq!((seen[1].to_bits(), seen[4].to_bits()), (share.to_bits(), share.to_bits()));
    assert_ne!(seen[2].to_bits(), seen[5].to_bits(), "n's share should move by rounding: {seen:?}");
}

/// On b's 34 Mb/s downlink, m (3 Mb/s) freezes before a (the pop share)
/// although a has the lower id, and the two orders of taking them off
/// the capacity differ by an ulp. When y leaves z's uplink, z — frozen
/// there at 2 Mb/s, after m and a — no longer freezes at its old key, so
/// the downlink turns dirty with m and a behind it and is rebuilt: in key
/// order, as the fill took them off, or n's rate is an ulp off.
#[test]
fn a_rebuilt_resource_takes_rates_off_in_key_order_not_id_order() {
    let share = f64::from_bits((15e6f64).to_bits() - 1);
    let uplink = 17_999_999.999_999_996 / 1e6;
    let links = [
        ("a", uplink),
        ("b", 34.0),
        ("c", 1_000.0),
        ("d", share / 1e6),
        ("e", 1_000.0),
        ("z", 22.0),
        ("x", 1_000.0),
    ];
    let seen = in_both_modes(|| star_of(&links), |sim, host| {
        let go = |sim: &mut Simulator, s: &str, d: &str, w: f64| {
            sim.start_flow(FlowParams::greedy(host(s), host(d)).with_weight(w)).unwrap()
        };
        let a = go(sim, "d", "b", 1.0);
        let p = FlowParams::cbr(host("a"), host("b"), mbps(3.0)).with_weight(0.2);
        let m = sim.start_flow(p).unwrap();
        go(sim, "a", "c", 1.0);
        let n = go(sim, "e", "b", 0.1);
        let z = go(sim, "z", "b", 0.1);
        let y = go(sim, "z", "x", 1.0);
        let mut seen: Vec<f64> = [m, a, z, n].iter().map(|&f| sim.flow_rate(f).unwrap()).collect();
        sim.run_for(SimDuration::from_millis(10)).unwrap();
        sim.stop_flow(y).unwrap();
        seen.extend([m, a, z, n].iter().map(|&f| sim.flow_rate(f).unwrap()));
        seen
    });
    assert_eq!((seen[0], seen[4]), (mbps(3.0), mbps(3.0)));
    assert_eq!((seen[1].to_bits(), seen[5].to_bits()), (share.to_bits(), share.to_bits()));
    assert!((seen[2] - mbps(2.0)).abs() < 1.0 && (seen[6] - mbps(8.0)).abs() < 1.0, "{seen:?}");
}

/// A k=8 fat-tree where every host sends one greedy and one CBR flow, to
/// two different hosts: every 1 Gb/s host link binds, and they chain into
/// one component. One bulk transfer's departure re-solves only what its
/// freezes reach: the sweep freezes at most a tenth of the live flows (4
/// of 256), where the closure walk it replaced re-filled 128.
#[test]
fn one_bulk_departure_on_a_half_greedy_fabric_re_solves_a_few_flows() {
    let tree = FatTree::build(8).unwrap();
    let hosts = tree.hosts().to_vec();
    let mut sim = Simulator::new(tree.topology().clone()).unwrap();
    sim.enable_audit();
    for h in 0..128usize {
        let (src, to) = (hosts[h], |a: usize, b: usize| hosts[(h * a + b) % 128]);
        sim.start_flow(FlowParams::greedy(src, to(37, 11))).unwrap();
        sim.start_flow(FlowParams::cbr(src, to(53, 7), mbps(1.0 + (h % 97) as f64))).unwrap();
    }
    let bulk = sim.start_flow(FlowParams::bulk(hosts[3], hosts[77], 1_000_000_000)).unwrap();
    sim.run_for(SimDuration::from_millis(1)).unwrap();
    let live = sim.active_flow_count() as u64 - 1;
    let resolved = resolved_by(&mut sim, |sim| {
        sim.stop_flow(bulk).unwrap();
    });
    assert!(resolved * 10 <= live, "{resolved} of {live} live flows re-solved");
    assert!(sim.audit_violations().is_empty(), "{:?}", sim.audit_violations());
}

/// The pod network retired churn benchmark ran on: 100 pods behind one
/// core router, 4 hosts each on 100 Mb/s links, 10 Gb/s uplinks.
fn pods(pods: usize, hosts_per_pod: usize) -> Topology {
    let mut b = TopologyBuilder::new();
    let core = b.network("core");
    let lat = SimDuration::from_micros(10);
    for p in 0..pods {
        let s = b.network(&format!("s{p}"));
        b.link(s, core, gbps(10.0), lat).unwrap();
        for j in 0..hosts_per_pod {
            let h = b.compute(&format!("h{p}x{j}"));
            b.link(h, s, mbps(100.0), lat).unwrap();
        }
    }
    b.build().unwrap()
}

/// Steady pod churn: 10 weighted (1–4) greedy flows in each of 100 pods
/// of 4 hosts; each of 200 events retires one pod's oldest flow, admits a
/// replacement and advances 100 µs. Both modes end on the same rates and
/// the same event log, bit for bit.
#[test]
fn pod_churn_digests_agree_in_both_modes() {
    const PODS: usize = 100;
    const HOSTS: u64 = 4;
    let run = |mode: SolverMode| {
        let mut sim = Simulator::new(pods(PODS, HOSTS as usize)).unwrap();
        sim.set_solver_mode(mode);
        let t = sim.topology_arc();
        let host = |p: usize, i: u64| t.lookup(&format!("h{p}x{i}")).unwrap();
        let mut queues: Vec<VecDeque<FlowHandle>> = vec![VecDeque::new(); PODS];
        let mut spawned = 0u64;
        let mut spawn = |sim: &mut Simulator, queues: &mut Vec<VecDeque<FlowHandle>>, pod: usize| {
            let k = spawned;
            spawned += 1;
            let src = k % HOSTS;
            let dst = (src + 1 + k / HOSTS % (HOSTS - 1)) % HOSTS;
            let p = FlowParams::greedy(host(pod, src), host(pod, dst)).with_weight(1.0 + (k % 4) as f64);
            queues[pod].push_back(sim.start_flow(p).unwrap());
        };
        for _ in 0..10 {
            for pod in 0..PODS {
                spawn(&mut sim, &mut queues, pod);
            }
        }
        sim.run_for(SimDuration::from_millis(1)).unwrap();
        for i in 0..200 {
            let pod = i % PODS;
            let oldest = queues[pod].pop_front().unwrap();
            sim.stop_flow(oldest).unwrap();
            spawn(&mut sim, &mut queues, pod);
            sim.run_for(SimDuration::from_micros(100)).unwrap();
        }
        assert_eq!(sim.active_flow_count(), PODS * 10);
        (sim.rates_digest(), sim.event_digest())
    };
    assert_eq!(run(SolverMode::Full), run(SolverMode::Incremental));
}
