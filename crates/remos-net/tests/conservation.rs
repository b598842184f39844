//! Property tests for conservation invariants of the fluid engine:
//! every byte a flow delivers is accounted on every directed interface of
//! its path — the foundation the whole SNMP measurement chain rests on.

use remos_prop::prelude::*;
use remos_net::flow::FlowParams;
use remos_net::topology::DirLink;
use remos_net::{mbps, SimDuration, SimTime, Simulator, Topology, TopologyBuilder};

/// A dumbbell with `n` hosts per side; capacities vary by seed.
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
    src: usize,   // left host index
    dst: usize,   // right host index
    volume: Option<u64>,
    rate_cap_mbps: Option<f64>,
    start_ms: u64,
}

fn arb_plan() -> impl Strategy<Value = FlowPlan> {
    (
        0usize..4,
        0usize..4,
        prop::option::of(1_000u64..20_000_000),
        prop::option::of(1.0..80.0f64),
        0u64..2_000,
    )
        .prop_map(|(src, dst, volume, rate_cap_mbps, start_ms)| FlowPlan {
            src,
            dst,
            volume,
            rate_cap_mbps,
            start_ms,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bytes_are_conserved_on_every_interface(
        plans in prop::collection::vec(arb_plan(), 1..10),
        backbone in 10.0..100.0f64,
    ) {
        let topo = dumbbell(4, backbone);
        let mut sim = Simulator::new(topo).unwrap();
        let t = sim.topology_arc();

        // Start flows at their scheduled times.
        let mut plans = plans;
        plans.sort_by_key(|p| p.start_ms);
        let mut handles = Vec::new();
        for p in &plans {
            sim.run_until(SimTime::from_millis(p.start_ms)).unwrap();
            let src = t.lookup(&format!("l{}", p.src)).unwrap();
            let dst = t.lookup(&format!("r{}", p.dst)).unwrap();
            let mut params = FlowParams {
                src,
                dst,
                weight: 1.0,
                rate_cap: p.rate_cap_mbps.map(mbps),
                volume: p.volume,
                tag: remos_net::flow::FlowTag::APP,
            };
            if params.volume.is_none() && params.rate_cap.is_none() {
                // keep at least one bound so the run terminates cleanly
                params.volume = Some(1_000_000);
            }
            handles.push(sim.start_flow(params).unwrap());
        }
        sim.run_until(SimTime::from_secs(30)).unwrap();
        // Stop anything persistent.
        for h in handles {
            if sim.flow_is_active(h) {
                sim.stop_flow(h).unwrap();
            }
        }
        let finished = sim.take_finished();

        // Expected per-interface octets: each flow contributes its bytes
        // to every hop of its (final) path. Flows are never rerouted in
        // this test, so the static route is the path.
        let routing = sim.routing().clone_box_for_test();
        let mut expected = vec![0.0f64; t.dir_link_count()];
        for rec in &finished {
            let path = routing.path(&t, rec.src, rec.dst).unwrap();
            for hop in &path.hops {
                expected[hop.index()] += rec.bytes;
            }
        }
        for (i, exp) in expected.iter().enumerate() {
            let got = sim.dirlink_octets(DirLink::from_index(i));
            prop_assert!(
                (got - exp).abs() < 1.0,
                "iface {i}: counted {got}, expected {exp}"
            );
        }

        // And no resource ever exceeded its capacity-time budget: octets
        // on a link over 30 s cannot exceed capacity * 30 s.
        for i in 0..t.dir_link_count() {
            let link = t.link(DirLink::from_index(i).link);
            let budget = link.capacity * 30.0 / 8.0;
            let got = sim.dirlink_octets(DirLink::from_index(i));
            prop_assert!(got <= budget * (1.0 + 1e-9), "iface {i} overdrove its link");
        }
    }

    #[test]
    fn bounded_flows_deliver_exactly_their_volume(
        volumes in prop::collection::vec(1_000u64..5_000_000, 1..8),
    ) {
        let topo = dumbbell(4, 50.0);
        let mut sim = Simulator::new(topo).unwrap();
        let t = sim.topology_arc();
        let mut handles = Vec::new();
        for (i, &v) in volumes.iter().enumerate() {
            let src = t.lookup(&format!("l{}", i % 4)).unwrap();
            let dst = t.lookup(&format!("r{}", (i + 1) % 4)).unwrap();
            handles.push(sim.start_flow(FlowParams::bulk(src, dst, v)).unwrap());
        }
        let recs = sim.run_until_flows_complete(&handles).unwrap();
        for (rec, &v) in recs.iter().zip(&volumes) {
            prop_assert!(rec.completed);
            prop_assert!((rec.bytes - v as f64).abs() < 1.0, "{} vs {v}", rec.bytes);
        }
    }
}

/// Helper so the test can hold routing past later mutable borrows.
trait CloneRouting {
    fn clone_box_for_test(&self) -> remos_net::routing::Routing;
}

impl CloneRouting for remos_net::routing::Routing {
    fn clone_box_for_test(&self) -> remos_net::routing::Routing {
        self.clone()
    }
}

/// h1 reaches h2 over r1 (100 Mb/s) or, one hop longer, over r2–r3
/// (50 Mb/s); h3 hangs off r1. Bulk flow a (h1 → h2) shares r1 → h2 with
/// bulk flow b (h3 → h2) at 50 Mb/s each until h1–r1 goes down at 0.5 s,
/// which re-paths a onto the detour at 50 Mb/s and leaves b alone at 100
/// Mb/s until it is stopped at 0.8 s. Each counter must read rate ×
/// interval over exactly those intervals: the old path stops counting at
/// the flap instant, the new path starts there, b's links stop at its stop.
#[test]
fn counters_follow_a_repath_and_a_stop_to_the_instant() {
    let mut b = TopologyBuilder::new();
    let lat = SimDuration::from_micros(10);
    let [h1, h2, h3] = ["h1", "h2", "h3"].map(|n| b.compute(n));
    let [r1, r2, r3] = ["r1", "r2", "r3"].map(|n| b.network(n));
    let primary = b.link(h1, r1, mbps(100.0), lat).unwrap();
    for (x, y, bw) in [(r1, h2, 100.0), (h3, r1, 100.0), (h1, r2, 50.0), (r2, r3, 50.0), (r3, h2, 50.0)] {
        b.link(x, y, mbps(bw), lat).unwrap();
    }
    let mut sim = Simulator::new(b.build().unwrap()).unwrap();
    let t = sim.topology_arc();
    let dir = |x, y| {
        let link = t.neighbors(x).iter().find(|&&(_, n)| n == y).unwrap().0;
        DirLink { link, dir: t.link(link).direction_from(x) }
    };
    let (old, shared, new, b_only) = (dir(h1, r1), dir(r1, h2), dir(r2, r3), dir(h3, r1));
    let a = sim.start_flow(FlowParams::bulk(h1, h2, 100_000_000)).unwrap();
    let bf = sim.start_flow(FlowParams::bulk(h3, h2, 100_000_000)).unwrap();
    sim.schedule_link_state(SimTime::from_millis(500), primary, false).unwrap();
    // rate × interval in bytes, for `mbps` Mb/s over `ms` milliseconds.
    let bytes = |mbps: f64, ms: f64| mbps * 1e6 * ms / 1e3 / 8.0;
    let near = |got: f64, want: f64, what: &str| assert!((got - want).abs() <= 1.0, "{what}: {got} vs {want}");

    sim.run_until(SimTime::from_millis(500)).unwrap();
    assert!(!sim.link_is_up(primary), "the flap is applied by 0.5 s");
    near(sim.dirlink_octets(old), bytes(50.0, 500.0), "old path at the flap");
    near(sim.dirlink_octets(new), 0.0, "new path at the flap");
    sim.run_until(SimTime::from_millis(800)).unwrap();
    let rec = sim.stop_flow(bf).unwrap();
    near(rec.bytes, bytes(50.0, 500.0) + bytes(100.0, 300.0), "b's record");
    sim.run_until(SimTime::from_secs(1)).unwrap();

    near(sim.dirlink_octets(old), bytes(50.0, 500.0), "old path after the flap");
    near(sim.dirlink_octets(new), bytes(50.0, 500.0), "new path");
    near(sim.dirlink_octets(b_only), rec.bytes, "b's own link after its stop");
    near(sim.dirlink_octets(shared), bytes(50.0, 500.0) + rec.bytes, "shared link");
    near(sim.flow_bytes_sent(a).unwrap(), bytes(50.0, 1000.0), "a's bytes");
}

#[test]
fn counters_idle_network_stays_zero() {
    let topo = dumbbell(2, 100.0);
    let mut sim = Simulator::new(topo).unwrap();
    sim.run_until(SimTime::from_secs(100)).unwrap();
    let t = sim.topology_arc();
    for i in 0..t.dir_link_count() {
        assert_eq!(sim.dirlink_octets(DirLink::from_index(i)), 0.0);
    }
}
