//! One routing table per topology: the simulator (while every link is up)
//! and a caching modeler route over the topology's own all-links-up
//! table, so a plan miss reuses the rows the engine already filled. The
//! capacity-0 modeler, the reference the equivalence suites compare
//! against, keeps a private table, and a link outage routes the engine
//! over a masked table that no plan ever sees.

#![allow(clippy::disallowed_methods, reason = "the positional shims are the reference these tests compare against")]

use remos_core::collector::oracle::OracleCollector;
use remos_core::collector::Collector;
use remos_core::modeler::{Modeler, ModelerConfig};
use remos_core::timeframe::Timeframe;
use remos_net::flow::FlowParams;
use remos_net::routing::Routing;
use remos_net::topology::{NodeId, Topology};
use remos_net::{mbps, FatTree, SimDuration, Simulator};
use remos_snmp::sim::share;
use std::sync::Arc;

fn names(topo: &Topology, hosts: &[NodeId]) -> Vec<String> {
    hosts.iter().map(|&h| topo.node(h).name.clone()).collect()
}

fn cold() -> Modeler {
    Modeler::new(ModelerConfig { plan_cache_capacity: 0, ..ModelerConfig::default() })
}

/// Graph digests of `sets` from a caching modeler equal a capacity-0
/// modeler's.
fn assert_digests_match(col: &OracleCollector, cached: &Modeler, sets: &[Vec<String>]) {
    for set in sets {
        let got = cached.get_graph(col, set, Timeframe::Current).unwrap().digest();
        let want = cold().get_graph(col, set, Timeframe::Current).unwrap().digest();
        assert_eq!(got, want, "{set:?}");
    }
}

/// On a k=4 fabric with flows from the eight hosts of pods 0 and 1, a
/// cached plan routes over the simulator's table, and a miss over those
/// hosts fills no row. A capacity-0 plan routes over a table of its own
/// and answers the same. Every host is single-homed, so each routes from
/// its edge switch's row.
#[test]
fn plans_route_over_the_simulators_table() {
    let tree = FatTree::build(4).unwrap();
    let hosts = tree.hosts().to_vec();
    let mut sim = Simulator::new(tree.into_parts().0).unwrap();
    for i in 0..8 {
        sim.start_flow(FlowParams::cbr(hosts[i], hosts[15 - i], mbps(100.0))).unwrap();
    }
    sim.run_for(SimDuration::from_millis(100)).unwrap();
    let topo = sim.topology_arc();
    let sim = share(sim);
    let mut col = OracleCollector::new(Arc::clone(&sim));
    col.poll().unwrap();
    let routed = sim.read().routing().rows_built();
    assert_eq!(routed, 4, "one row per flow source's edge switch");

    let cached = Modeler::new(ModelerConfig::default());
    let sources = names(&topo, &hosts[..8]);
    let plan = cached.plan_for(&col, &sources, &mut Vec::new()).unwrap();
    assert!(Arc::ptr_eq(&plan.routing, topo.routing()));
    assert!(std::ptr::eq(&*plan.routing, sim.read().routing()), "the plan routes elsewhere");
    assert_eq!(plan.routing.rows_built(), routed, "the miss filled a row the engine had");

    let reference = cold().plan_for(&col, &sources, &mut Vec::new()).unwrap();
    assert!(!std::ptr::eq(&*reference.routing, sim.read().routing()), "capacity 0 shared");
    // The first seven hosts route; the last is only a destination.
    assert_eq!(reference.routing.rows_built(), 4, "a private table holds this query's rows only");

    // Sets the engine routed from, did not route from, and both.
    let sets = [sources, names(&topo, &hosts[8..]), names(&topo, &[hosts[0], hosts[9], hosts[14]])];
    assert_digests_match(&col, &cached, &sets);
}

/// Flows from one host of each edge switch of a k=4 fabric fill the
/// eight edge rows. A plan miss over any hosts, the other host of each
/// switch included, which never sourced a flow, then fills no row: a
/// single-homed host routes from its switch's row.
#[test]
fn a_miss_fills_no_row_its_switches_have() {
    let tree = FatTree::build(4).unwrap();
    let hosts = tree.hosts().to_vec();
    let mut sim = Simulator::new(tree.into_parts().0).unwrap();
    for i in (0..16).step_by(2) {
        sim.start_flow(FlowParams::cbr(hosts[i], hosts[(i + 5) % 16], mbps(100.0))).unwrap();
    }
    sim.run_for(SimDuration::from_millis(100)).unwrap();
    let topo = sim.topology_arc();
    let sim = share(sim);
    let mut col = OracleCollector::new(Arc::clone(&sim));
    col.poll().unwrap();
    assert_eq!(sim.read().routing().rows_built(), 8, "one row per edge switch");

    let cached = Modeler::new(ModelerConfig::default());
    let idle: Vec<_> = hosts.iter().skip(1).step_by(2).copied().collect();
    let sets = [names(&topo, &idle), names(&topo, &hosts), names(&topo, &[hosts[15], hosts[1]])];
    for set in &sets {
        let plan = cached.plan_for(&col, set, &mut Vec::new()).unwrap();
        assert!(Arc::ptr_eq(&plan.routing, topo.routing()));
        assert_eq!(plan.routing.rows_built(), 8, "the miss over {set:?} filled a row");
    }
    assert_digests_match(&col, &cached, &sets);
}

/// One agg–core link of a k=4 fabric goes down under flows that cross
/// it and flows started during the outage, then comes back up. While it
/// is down the engine routes over a masked table of its own, the
/// topology's table still holds all-links-up rows, and cached graph
/// answers equal a capacity-0 modeler's. Once it is up the engine is back
/// on the topology's table.
#[test]
fn a_flap_never_leaks_a_masked_row_into_a_plan() {
    let tree = FatTree::build(4).unwrap();
    let hosts = tree.hosts().to_vec();
    // Routes from a fabric built apart, so no table here shares its rows.
    let apart = FatTree::build(4).unwrap().into_parts().0;
    let fresh = Routing::new(&apart);
    // The agg–core link the all-up route from pod 0 to pod 2 crosses.
    let mut crossed = fresh.path(&apart, hosts[0], hosts[8]).unwrap().hops.into_iter();
    let link = crossed.find(|h| tree.pod_of_link(h.link).is_none()).unwrap().link;
    let mut sim = Simulator::new(tree.into_parts().0).unwrap();
    let topo = sim.topology_arc();
    sim.start_flow(FlowParams::cbr(hosts[0], hosts[8], mbps(300.0))).unwrap();
    sim.run_for(SimDuration::from_millis(100)).unwrap();

    sim.set_link_state(link, false).unwrap();
    assert!(!std::ptr::eq(sim.routing(), &**topo.routing()), "a down link kept the all-up table");
    let rerouted = sim.routing().path(&topo, hosts[0], hosts[8]).unwrap();
    assert!(rerouted.hops.iter().all(|h| h.link != link));
    // Every other host of pods 0 and 1 routes for the first time now,
    // over the masked table.
    for i in 1..8 {
        sim.start_flow(FlowParams::cbr(hosts[i], hosts[8 + i], mbps(100.0))).unwrap();
    }
    sim.run_for(SimDuration::from_millis(100)).unwrap();
    let sim = share(sim);
    let mut col = OracleCollector::new(Arc::clone(&sim));
    col.poll().unwrap();

    let cached = Modeler::new(ModelerConfig::default());
    let one_per_pod = [hosts[0], hosts[4], hosts[8], hosts[12]];
    let sets = [names(&topo, &hosts[..8]), names(&topo, &one_per_pod)];
    assert_digests_match(&col, &cached, &sets);
    for &src in &hosts {
        let row = topo.routing().tree(&topo, src).unwrap();
        let want = fresh.tree(&apart, src).unwrap();
        for v in topo.node_ids() {
            assert_eq!(row.prev(v), want.prev(v), "row {src:?} at {v:?}");
        }
    }

    let mut sim = sim.lock();
    sim.set_link_state(link, true).unwrap();
    assert!(std::ptr::eq(sim.routing(), &**topo.routing()), "the restored engine kept a mask");
    assert_eq!(sim.routing_rebuilds(), 2);
    for &src in &hosts {
        for &dst in &hosts {
            let want = fresh.path(&apart, src, dst).unwrap();
            assert_eq!(sim.routing().path(&topo, src, dst).unwrap(), want);
        }
    }
}
