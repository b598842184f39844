//! Property tests for logical-topology generation: the logical view must
//! *behave* like the physical network it abstracts (§4.3's entire point:
//! "the graph presented to the user is intended only to represent how the
//! network behaves as seen by the user").

use remos_prop::prelude::*;
use remos_core::collector::oracle::OracleCollector;
use remos_core::collector::Collector;
use remos_core::modeler::Modeler;
use remos_core::Timeframe;
use remos_net::routing::Routing;
use remos_net::{mbps, SimDuration, Simulator, Topology, TopologyBuilder};
use remos_snmp::sim::share;

/// Random two-level topology. With `chords = false` the routers form a
/// random *tree*, so routes are unique and the logical view must match
/// the physical route exactly; with `chords = true` redundant paths exist
/// (used by the structural test only — with multiple equal-latency routes
/// the union logical graph may legitimately choose a different tie).
fn random_topo(hosts: usize, routers: usize, seed: u64, chords: bool) -> Topology {
    let mut state = seed ^ 0x9e3779b97f4a7c15;
    let mut next = |bound: u64| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) % bound
    };
    let mut b = TopologyBuilder::new();
    let rs: Vec<_> = (0..routers).map(|i| b.network(&format!("r{i}"))).collect();
    let lat = SimDuration::from_micros(100);
    // Random tree keeps it connected; capacities vary 10..100 Mbps.
    for i in 1..routers {
        let j = (next(i as u64)) as usize;
        let cap = mbps(10.0 + next(10) as f64 * 10.0);
        b.link(rs[i], rs[j], cap, lat).unwrap();
    }
    if chords {
        for _ in 0..2 {
            let i = next(routers as u64) as usize;
            let j = next(routers as u64) as usize;
            if i != j {
                let _ = b.link(rs[i], rs[j], mbps(10.0 + next(10) as f64 * 10.0), lat);
            }
        }
    }
    for i in 0..hosts {
        let h = b.compute(&format!("h{i}"));
        let cap = mbps(10.0 + next(10) as f64 * 10.0);
        b.link(h, rs[i % routers], cap, lat).unwrap();
    }
    b.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn logical_graph_preserves_path_characteristics(
        seed in 0u64..500,
        n_targets in 2usize..6,
    ) {
        let topo = random_topo(8, 5, seed, false);
        let routing = Routing::new(&topo);
        let sim = share(Simulator::new(topo).unwrap());
        let mut col = OracleCollector::new(sim.clone());
        col.poll().unwrap();
        let topo = col.topology().unwrap();

        let targets: Vec<String> = (0..n_targets).map(|i| format!("h{i}")).collect();
        let modeler = Modeler::default();
        let g = modeler.get_graph(&col, &targets, Timeframe::Current).unwrap();

        // For every target pair: the logical path must match the physical
        // route's bottleneck capacity and total latency.
        for a in &targets {
            for b in &targets {
                if a >= b {
                    continue;
                }
                let pa = topo.lookup(a).unwrap();
                let pb = topo.lookup(b).unwrap();
                let phys = routing.path(&topo, pa, pb).unwrap();
                let phys_cap = phys.capacity(&topo);
                let phys_lat = phys.latency(&topo);

                let la = g.index_of(a).unwrap();
                let lb = g.index_of(b).unwrap();
                // Idle network: available bandwidth == bottleneck capacity.
                let logical_avail = g.path_avail_bw(la, lb).unwrap();
                prop_assert!(
                    (logical_avail - phys_cap).abs() < 1.0,
                    "{a}->{b}: logical {logical_avail} vs physical {phys_cap} (seed {seed})"
                );
                let logical_lat = g.path_latency(la, lb).unwrap();
                prop_assert_eq!(
                    logical_lat, phys_lat,
                    "{}->{}: latency mismatch (seed {})", a, b, seed
                );
            }
        }

        // The logical graph never has MORE nodes than the physical one,
        // and every target is present.
        prop_assert!(g.nodes.len() <= topo.node_count());
        for t in &targets {
            prop_assert!(g.index_of(t).is_ok());
        }
    }

    #[test]
    fn degree2_forwarders_never_survive(
        seed in 0u64..200,
    ) {
        let topo = random_topo(6, 4, seed, true);
        let sim = share(Simulator::new(topo).unwrap());
        let mut col = OracleCollector::new(sim);
        col.poll().unwrap();
        let modeler = Modeler::default();
        let targets: Vec<String> = vec!["h0".into(), "h1".into()];
        let g = modeler.get_graph(&col, &targets, Timeframe::Current).unwrap();
        // Every retained network node must be a junction in the logical
        // graph (degree != 2) — pure forwarders are collapsed.
        for (i, n) in g.nodes.iter().enumerate() {
            if n.kind == remos_net::topology::NodeKind::Network {
                prop_assert!(
                    g.neighbors(i).len() != 2,
                    "degree-2 forwarder {} survived (seed {seed})",
                    n.name
                );
            }
        }
    }
}
