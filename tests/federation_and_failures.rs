//! Integration tests for cooperating collectors and failure injection:
//! datagram loss, partial agent coverage, and wrong communities.

use remos::apps::testbed::cmu_testbed;
use remos::core::collector::multi::{MultiCollector, MultiCollectorConfig};
use remos::core::collector::snmp::{SnmpCollector, SnmpCollectorConfig};
use remos::core::collector::{Collector, SimClock};
use remos::core::{Query, Remos, RemosConfig, RemosError};
use remos::net::flow::FlowParams;
use remos::net::{mbps, HostInfo, SimDuration, Simulator, TopologyBuilder};
use remos::snmp::sim::{register_all_agents, share, SharedSim};
use remos::snmp::SimTransport;
use std::sync::Arc;

fn base() -> (Arc<SimTransport>, SharedSim, Vec<String>) {
    let sim = share(Simulator::new(cmu_testbed()).unwrap());
    let transport = Arc::new(SimTransport::new());
    let agents = register_all_agents(&transport, &sim, "public");
    (transport, sim, agents)
}

#[test]
fn federated_collectors_match_single_collector() {
    let (transport, sim, agents) = base();
    // Region split: aspen side vs timberline/whiteface side. The border
    // link (aspen—timberline) is visible to both children.
    let west: Vec<String> = agents
        .iter()
        .filter(|a| ["m-1", "m-2", "m-3", "aspen", "timberline"].contains(&a.as_str()))
        .cloned()
        .collect();
    let east: Vec<String> = agents
        .iter()
        .filter(|a| {
            ["m-4", "m-5", "m-6", "m-7", "m-8", "timberline", "whiteface", "aspen"]
                .contains(&a.as_str())
        })
        .cloned()
        .collect();
    let mk = |set: Vec<String>| {
        Box::new(SnmpCollector::new(
            Arc::clone(&transport),
            set,
            SnmpCollectorConfig::default(),
        )) as Box<dyn Collector>
    };
    let mut multi = MultiCollector::new(vec![mk(west), mk(east)]);
    multi.refresh_topology().unwrap();
    let merged = multi.topology().unwrap();

    let mut single =
        SnmpCollector::new(Arc::clone(&transport), agents, SnmpCollectorConfig::default());
    single.refresh_topology().unwrap();
    let truth = single.topology().unwrap();

    assert_eq!(merged.node_count(), truth.node_count());
    assert_eq!(merged.link_count(), truth.link_count());

    // Utilization seen through the federation matches too.
    {
        let mut s = sim.lock();
        let topo = s.topology_arc();
        let m1 = topo.lookup("m-1").unwrap();
        let m8 = topo.lookup("m-8").unwrap();
        s.start_flow(FlowParams::cbr(m1, m8, mbps(40.0))).unwrap();
    }
    multi.poll().unwrap();
    sim.lock().run_for(SimDuration::from_secs(2)).unwrap();
    assert!(multi.poll().unwrap());
    let snap = multi.history().latest().unwrap();
    let max_util = snap.util.iter().cloned().fold(0.0, f64::max);
    assert!((max_util - mbps(40.0)).abs() < mbps(1.0), "{max_util}");
    // Host info resolves through the federation.
    assert!(multi.host_info("m-1").is_ok());
    assert!(multi.host_info("aspen").is_err());
}

/// A border host that one child sees only as an agentless neighbour and
/// another measures through its own agent: the merged node and
/// `host_info` carry the measured resources, not the builder defaults.
#[test]
fn border_host_resources_come_from_the_child_that_measured_them() {
    let x_host = HostInfo { compute_flops: 200e6, memory_bytes: 512 << 20 };
    let mut b = TopologyBuilder::new();
    let (h1, h2) = (b.compute("h1"), b.compute("h2"));
    let x = b.compute_with_host("x", Some(x_host));
    let (r1, r2) = (b.network("r1"), b.network("r2"));
    for (a, c) in [(h1, r1), (x, r1), (r1, r2), (h2, r2)] {
        b.link(a, c, mbps(100.0), SimDuration::from_micros(50)).unwrap();
    }
    let sim = share(Simulator::new(b.build().unwrap()).unwrap());
    let transport = Arc::new(SimTransport::new());
    register_all_agents(&transport, &sim, "public");
    let mk = |set: &[&str]| {
        let set = set.iter().map(|a| a.to_string()).collect();
        let c = SnmpCollector::new(Arc::clone(&transport), set, SnmpCollectorConfig::default());
        Box::new(c) as Box<dyn Collector>
    };
    // The first child reaches x only as r1's neighbour; the second runs
    // x's agent.
    let mut multi = MultiCollector::new(vec![mk(&["h1", "r1"]), mk(&["x", "r2", "h2"])]);
    multi.refresh_topology().unwrap();
    let topo = multi.topology().unwrap();
    let host = |name: &str| topo.node(topo.lookup(name).unwrap()).host;
    assert_eq!(host("x"), Some(x_host));
    assert_eq!(multi.host_info("x").unwrap(), x_host);
    assert_eq!(host("h1"), Some(HostInfo::default()));
    // r1 looks like an agentless host to the second child; the router
    // kind wins, and a router has no host resources.
    assert_eq!(host("r1"), None);
    assert!(matches!(multi.host_info("r1"), Err(RemosError::UnknownNode(_))));
}

/// A federation with border entries recomputes them on every merge, so it
/// never publishes a plane shared with the previous entry: over idle
/// polls on a two-sample history (every publish evicts one) it is
/// bit-identical to a from-scratch re-merge and reuses nothing.
#[test]
fn snmp_federation_with_border_links_never_reuses_a_published_buffer() {
    let (transport, sim, agents) = base();
    let side = |names: &[&str]| -> Vec<String> {
        agents.iter().filter(|a| names.contains(&a.as_str())).cloned().collect()
    };
    let federation = |force_full_merge: bool| {
        let mk = |set: Vec<String>| {
            let cfg = SnmpCollectorConfig::default();
            Box::new(SnmpCollector::new(Arc::clone(&transport), set, cfg)) as Box<dyn Collector>
        };
        let children = vec![
            mk(side(&["m-1", "m-2", "m-3", "aspen", "timberline"])),
            mk(side(&["m-4", "m-5", "m-6", "m-7", "m-8", "timberline", "whiteface", "aspen"])),
        ];
        let cfg = MultiCollectorConfig { history_len: 2, force_full_merge, ..Default::default() };
        let mut multi = MultiCollector::with_config(children, cfg);
        multi.refresh_topology().unwrap();
        multi
    };
    let (mut inc, mut full) = (federation(false), federation(true));
    let obs = remos::obs::Obs::new();
    inc.set_obs(&obs);
    {
        let mut s = sim.lock();
        let topo = s.topology_arc();
        let (m1, m8) = (topo.lookup("m-1").unwrap(), topo.lookup("m-8").unwrap());
        s.start_flow(FlowParams::cbr(m1, m8, mbps(40.0))).unwrap();
    }
    for round in 0..6 {
        assert_eq!(inc.poll().unwrap(), full.poll().unwrap(), "round {round}");
        sim.lock().run_for(SimDuration::from_secs(1)).unwrap();
        let (Some(a), Some(b)) = (inc.history().latest(), full.history().latest()) else {
            assert_eq!(round, 0, "only the baseline poll publishes nothing");
            continue;
        };
        assert_eq!((a.t, a.interval, &a.quality), (b.t, b.interval, &b.quality), "round {round}");
        let bits = |s: &[f64]| s.iter().map(|u| u.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a.util), bits(&b.util), "round {round}");
        assert!(a.util.iter().any(|&u| u > mbps(39.0)), "round {round}: border traffic unseen");
    }
    assert_eq!(inc.history().len(), 2);
    assert_eq!(obs.counter("multi_publish_reused_total").get(), 0);
}

#[test]
fn collector_survives_datagram_loss() {
    let (transport, sim, agents) = base();
    // 5% loss: with 3 retries and two drop-rolls per attempt, a single
    // request fails with p = (1 - 0.95^2)^4 ≈ 9e-5, so the hundreds of
    // datagrams behind these queries still succeed reliably.
    transport.set_loss(0.05, 2024);
    let collector =
        SnmpCollector::new(Arc::clone(&transport), agents, SnmpCollectorConfig::default());
    let mut remos = Remos::new(
        Box::new(collector),
        Box::new(SimClock(Arc::clone(&sim))),
        RemosConfig::default(),
    );
    // Discovery plus several polls: manager retries absorb the loss.
    for _ in 0..5 {
        let g = remos.run(Query::graph(["m-1", "m-8"])).unwrap().into_graph().unwrap();
        assert_eq!(g.links.len(), 1);
    }
    assert!(transport.stats().drops() > 0, "loss injection did nothing");
}

#[test]
fn partial_agent_coverage_still_measures() {
    // Routers-only SNMP (the realistic case: hosts often run no agent).
    // Utilization on host links must come from the router side's
    // ifInOctets fallback.
    let (transport, sim, _) = base();
    let routers: Vec<String> =
        ["aspen", "timberline", "whiteface"].iter().map(|s| s.to_string()).collect();
    let mut collector =
        SnmpCollector::new(Arc::clone(&transport), routers, SnmpCollectorConfig::default());
    collector.refresh_topology().unwrap();
    let topo = collector.topology().unwrap();
    // Hosts appear as neighbor-only compute nodes.
    assert_eq!(topo.node_count(), 11);
    assert_eq!(topo.compute_nodes().len(), 8);

    {
        let mut s = sim.lock();
        let t = s.topology_arc();
        let m4 = t.lookup("m-4").unwrap();
        let m5 = t.lookup("m-5").unwrap();
        s.start_flow(FlowParams::cbr(m4, m5, mbps(30.0))).unwrap();
    }
    collector.poll().unwrap();
    sim.lock().run_for(SimDuration::from_secs(2)).unwrap();
    assert!(collector.poll().unwrap());
    let snap = collector.history().latest().unwrap();
    // m-4's uplink utilization is observable via timberline's ifInOctets.
    let max_util = snap.util.iter().cloned().fold(0.0, f64::max);
    assert!((max_util - mbps(30.0)).abs() < mbps(1.0), "{max_util}");
    // But host resources are not (no host agents).
    assert!(matches!(
        collector.host_info("m-4"),
        Err(RemosError::UnknownNode(_))
    ));
}

#[test]
fn route_table_discovery_matches_neighbor_table() {
    // The paper's collector walked ipRouteTable; the LLDP path is the
    // modern equivalent. Both must reconstruct the identical topology.
    use remos::core::collector::snmp::DiscoveryMode;
    let (transport, _sim, agents) = base();
    let discover = |mode: DiscoveryMode| {
        let mut c = SnmpCollector::new(
            Arc::clone(&transport),
            agents.clone(),
            SnmpCollectorConfig { discovery: mode, ..Default::default() },
        );
        c.refresh_topology().unwrap();
        c.topology().unwrap()
    };
    let lldp = discover(DiscoveryMode::NeighborTable);
    let routes = discover(DiscoveryMode::RouteTable);
    assert_eq!(lldp.node_count(), routes.node_count());
    assert_eq!(lldp.link_count(), routes.link_count());
    for n in lldp.node_ids() {
        let name = &lldp.node(n).name;
        let rn = routes.lookup(name).unwrap();
        assert_eq!(lldp.node(n).kind, routes.node(rn).kind, "{name}");
        assert_eq!(lldp.degree(n), routes.degree(rn), "{name}");
    }
}

#[test]
fn route_table_discovery_with_routers_only() {
    // Without host agents, direct routes still reveal the host links;
    // unresolved addresses become ip-10-0-0-x placeholder hosts.
    use remos::core::collector::snmp::DiscoveryMode;
    let (transport, _sim, _) = base();
    let routers: Vec<String> =
        ["aspen", "timberline", "whiteface"].iter().map(|s| s.to_string()).collect();
    let mut c = SnmpCollector::new(
        Arc::clone(&transport),
        routers,
        SnmpCollectorConfig { discovery: DiscoveryMode::RouteTable, ..Default::default() },
    );
    c.refresh_topology().unwrap();
    let topo = c.topology().unwrap();
    assert_eq!(topo.node_count(), 11);
    assert_eq!(topo.link_count(), 10);
    // Host names are unknown to a routers-only walk: they surface as
    // synthetic ip-… names.
    let placeholders = topo
        .compute_nodes()
        .iter()
        .filter(|&&n| topo.node(n).name.starts_with("ip-"))
        .count();
    assert_eq!(placeholders, 8);
}

#[test]
fn wrong_community_fails_loudly() {
    let sim = share(Simulator::new(cmu_testbed()).unwrap());
    let transport = Arc::new(SimTransport::new());
    register_all_agents(&transport, &sim, "secret");
    let mut collector = SnmpCollector::new(
        Arc::clone(&transport),
        vec!["aspen".into()],
        SnmpCollectorConfig::default(), // community "public" ≠ "secret"
    );
    assert!(collector.refresh_topology().is_err());
}

#[test]
fn rediscovery_after_loss_burst() {
    // A collector that hits a hard error can re-discover and continue.
    let (transport, sim, agents) = base();
    let mut collector =
        SnmpCollector::new(Arc::clone(&transport), agents, SnmpCollectorConfig::default());
    collector.refresh_topology().unwrap();
    collector.poll().unwrap();
    sim.lock().run_for(SimDuration::from_secs(1)).unwrap();
    collector.poll().unwrap();
    assert_eq!(collector.history().len(), 1);
    // Re-discovery clears history (indices may change meaning).
    collector.refresh_topology().unwrap();
    assert_eq!(collector.history().len(), 0);
    sim.lock().run_for(SimDuration::from_secs(1)).unwrap();
    collector.poll().unwrap();
    sim.lock().run_for(SimDuration::from_secs(1)).unwrap();
    assert!(collector.poll().unwrap());
}
