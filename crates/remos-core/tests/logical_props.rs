//! Property tests for logical-topology generation: the logical view must
//! *behave* like the physical network it abstracts (§4.3's entire point:
//! "the graph presented to the user is intended only to represent how the
//! network behaves as seen by the user").

use remos_prop::prelude::*;
use remos_core::collector::oracle::OracleCollector;
use remos_core::collector::Collector;
use remos_core::error::{CoreResult, InvalidQueryKind};
use remos_core::modeler::logical::{logicalize, LogicalLinkSpec, LogicalStructure};
use remos_core::modeler::Modeler;
use remos_core::{RemosError, Timeframe};
use remos_net::rng::Rng;
use remos_net::routing::Routing;
use remos_net::topology::{DirLink, LinkId, NodeId, NodeKind};
use remos_net::{mbps, SimDuration, Simulator, Topology, TopologyBuilder};
use remos_snmp::sim::share;
use std::collections::BTreeSet;

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

/// `logicalize` as it was while step 1 materialised one routed `Path`
/// per target pair into ordered sets — kept verbatim as the reference
/// the tree-walking version must reproduce field for field.
fn logicalize_pairwise(
    topo: &Topology,
    routing: &Routing,
    targets: &[NodeId],
) -> CoreResult<LogicalStructure> {
    if targets.is_empty() {
        return Err(RemosError::InvalidQuery(InvalidQueryKind::EmptyNodeSet));
    }
    let mut target_set = BTreeSet::new();
    for &t in targets {
        if topo.try_node(t).is_err() {
            return Err(RemosError::Net(format!("node {t:?} out of range")));
        }
        target_set.insert(t);
    }

    let mut used_links: BTreeSet<LinkId> = BTreeSet::new();
    let mut used_nodes: BTreeSet<NodeId> = target_set.clone();
    for &s in &target_set {
        for &d in &target_set {
            if s >= d {
                continue;
            }
            let path = routing.path(topo, s, d).map_err(|_| {
                RemosError::Disconnected(topo.node(s).name.clone(), topo.node(d).name.clone())
            })?;
            for h in &path.hops {
                used_links.insert(h.link);
            }
            for n in &path.nodes {
                used_nodes.insert(*n);
            }
        }
    }

    let mut adj: Vec<Vec<LinkId>> = vec![Vec::new(); topo.node_count()];
    for &l in &used_links {
        let link = topo.link(l);
        adj[link.a.index()].push(l);
        adj[link.b.index()].push(l);
    }

    let keep = |n: NodeId| -> bool {
        target_set.contains(&n)
            || topo.node(n).kind == NodeKind::Compute
            || adj[n.index()].len() != 2
    };
    let kept: Vec<NodeId> = used_nodes.iter().copied().filter(|&n| keep(n)).collect();

    let mut links = Vec::new();
    let mut visited_first_hop: BTreeSet<(NodeId, LinkId)> = BTreeSet::new();
    for &start in &kept {
        for &first in &adj[start.index()] {
            if visited_first_hop.contains(&(start, first)) {
                continue;
            }
            let mut fwd: Vec<DirLink> = Vec::new();
            let mut capacity = f64::INFINITY;
            let mut latency = SimDuration::ZERO;
            let mut at = start;
            let mut via = first;
            loop {
                let link = topo.link(via);
                let dir = link.direction_from(at);
                fwd.push(DirLink { link: via, dir });
                capacity = capacity.min(link.capacity);
                latency += link.latency;
                let next = link.opposite(at);
                if keep(next) {
                    visited_first_hop.insert((start, first));
                    visited_first_hop.insert((next, via));
                    let rev: Vec<DirLink> = fwd
                        .iter()
                        .rev()
                        .map(|d| DirLink { link: d.link, dir: d.dir.reverse() })
                        .collect();
                    let phys = [fwd, rev];
                    links.push(LogicalLinkSpec { a: start, b: next, capacity, latency, phys });
                    break;
                }
                let out = adj[next.index()]
                    .iter()
                    .copied()
                    .find(|&l| l != via)
                    .expect("degree-2 node has a second used link");
                at = next;
                via = out;
            }
        }
    }
    Ok(LogicalStructure { nodes: kept, links })
}

/// A random network of routers and hosts in interleaved id order: a
/// sparse router mesh with parallel links, hosts with zero to three
/// uplinks (so some are unreachable and some multi-homed), the odd
/// host-to-host link (hosts do not forward), mixed capacities and
/// latencies.
fn mesh_topo(rng: &mut Rng) -> Topology {
    let mut b = TopologyBuilder::new();
    let (mut routers, mut hosts) = (Vec::new(), Vec::new());
    for i in 0..rng.gen_range(4..24usize) {
        if i == 0 || rng.gen_bool(0.4) {
            routers.push(b.network(&format!("r{i}")));
        } else {
            hosts.push(b.compute(&format!("h{i}")));
        }
    }
    let link = |b: &mut TopologyBuilder, rng: &mut Rng, x: NodeId, y: NodeId| {
        let cap = mbps(10.0 + rng.gen_range(0..10u32) as f64 * 10.0);
        let lat = SimDuration::from_micros([10, 10, 25][rng.gen_range(0..3usize)]);
        b.link(x, y, cap, lat).unwrap();
    };
    for i in 0..routers.len() {
        for j in 0..i {
            for _ in 0..2 {
                if rng.gen_bool(0.3) {
                    link(&mut b, rng, routers[i], routers[j]);
                }
            }
        }
    }
    for (i, &h) in hosts.iter().enumerate() {
        let uplinks = if rng.gen_bool(0.1) { 0 } else { rng.gen_range(1..4usize) };
        for _ in 0..uplinks {
            let r = routers[rng.gen_range(0..routers.len())];
            link(&mut b, rng, h, r);
        }
        if i > 0 && rng.gen_bool(0.15) {
            let peer = hosts[rng.gen_range(0..i)];
            link(&mut b, rng, h, peer);
        }
    }
    b.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The tree-walking `logicalize` returns exactly what the pairwise
    /// one did — retained nodes, link order, capacities, latencies and
    /// `phys` chains — for target lists of one, two and many entries,
    /// unsorted, with repeats and the occasional switch; and when some
    /// pair has no route it names the same pair.
    #[test]
    fn tree_walk_logicalize_matches_pairwise(seed in 0u64..1_000_000, shape in 0usize..6) {
        let mut rng = Rng::seed_from_u64(seed);
        let topo = mesh_topo(&mut rng);
        let hosts = topo.compute_nodes();
        let len = match shape {
            0 => 1,
            1 => 2,
            _ => rng.gen_range(3..hosts.len().max(3) + 3),
        };
        let targets: Vec<NodeId> = (0..len)
            .map(|_| {
                if !hosts.is_empty() && rng.gen_bool(0.95) {
                    hosts[rng.gen_range(0..hosts.len())]
                } else {
                    NodeId(rng.gen_range(0..topo.node_count() as u32))
                }
            })
            .collect();
        // Fresh tables on both sides: neither sees rows the other filled.
        let got = logicalize(&topo, &Routing::new(&topo), &targets);
        let want = logicalize_pairwise(&topo, &Routing::new(&topo), &targets);
        prop_assert_eq!(&got, &want, "targets {:?} (seed {})", targets, seed);
        // A table other queries have already routed through answers the same.
        let shared = Routing::new(&topo);
        for &h in hosts.iter().rev() {
            shared.tree(&topo, h).unwrap();
        }
        prop_assert_eq!(&logicalize(&topo, &shared, &targets), &want);
    }
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
