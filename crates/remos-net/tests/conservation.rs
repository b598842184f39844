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
