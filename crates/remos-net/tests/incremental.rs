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
