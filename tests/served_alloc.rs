//! Counting-allocator bounds on a warm *served* request: `Server::submit`
//! → `serve_next` on the default stack (7 pod-group shards + spine under
//! a `MultiCollector`, `Remos`, `Server`) over a settled k=8 fabric.
//!
//! A warm plan-hit graph request may allocate what its answer owns — one
//! name `String` per node (`RemosNode.name` is a `String`), the node and
//! link tables, the provenance strings, the outcome's tenant — and a
//! small constant besides; the poll, the merge, the plan lookup, the
//! sample selection and the annotation indices allocate nothing. A warm
//! what-if request allocates a constant whatever its batch size: its
//! endpoints resolve into the workspace and the replay runs on the
//! workspace's kernel, so only the report's vectors and strings are new.
//! Strict only in release, like `crates/remos-core/tests/zero_alloc.rs`.

use remos::core::collector::multi::MultiCollector;
use remos::core::collector::shard::shard_fabric;
use remos::core::collector::{Collector, SimClock};
use remos::core::{HypotheticalFlow, Query, QueryResult, QuerySpec, Remos, RemosConfig};
use remos::net::flow::FlowParams;
use remos::net::{mbps, FatTree, SimDuration, SimTime, Simulator};
use remos::serve::{Rung, ServeRequest, Server, ServerConfig};
use remos::snmp::sim::share;
use std::sync::Arc;

#[path = "../crates/remos-core/tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::alloc_count;

/// Allocations beyond the answer's node names a warm request may make.
const SLACK: u64 = 16;

/// Allocations a warm what-if request may make, at any batch size.
const WHATIF_BOUND: u64 = 9;

/// The k=8 fabric with a greedy and a CBR flow per pod, settled, served
/// through the default sharded stack.
fn served_stack() -> (FatTree, Server) {
    let tree = FatTree::build(8).expect("fat tree builds");
    let mut sim = Simulator::new(FatTree::build(8).expect("fat tree builds").into_parts().0)
        .expect("fabric simulator");
    for p in 0..tree.pods() {
        let (src, dst) = (tree.host(p, 0), tree.host((p + 3) % tree.pods(), 1));
        sim.start_flow(FlowParams::greedy(src, dst)).expect("greedy flow");
        sim.start_flow(FlowParams::cbr(dst, src, mbps(20.0))).expect("cbr flow");
    }
    sim.run_for(SimDuration::from_millis(500)).expect("settle");
    let sim = share(sim);
    let children: Vec<Box<dyn Collector>> = shard_fabric(&tree, &sim, 7)
        .expect("shard fabric")
        .into_iter()
        .map(|s| Box::new(s) as Box<dyn Collector>)
        .collect();
    let remos = Remos::new(
        Box::new(MultiCollector::new(children)),
        Box::new(SimClock(Arc::clone(&sim))),
        RemosConfig::default(),
    );
    (tree, Server::new(remos, ServerConfig::default()))
}

/// Submit and serve one request; returns its answer and the allocations
/// the two calls made. The request is built outside the measured window:
/// it is the caller's.
fn serve(server: &mut Server, spec: &QuerySpec) -> (QueryResult, u64) {
    let req = ServeRequest::new("t0", spec.clone());
    let before = alloc_count();
    server.submit(req).expect("admitted");
    let out = server.serve_next().expect("served");
    let allocs = alloc_count() - before;
    assert_eq!(out.rung, Rung::Full);
    (out.result.expect("answered"), allocs)
}

/// Warm-up: discovery, the plan, every workspace buffer — and the merged
/// history, whose entry and undo rings grow until its 512 entries all
/// exist.
fn warm_up(server: &mut Server, spec: &QuerySpec) {
    for _ in 0..520 {
        serve(server, spec);
    }
}

fn check(what: &str, allocs: u64, bound: u64) {
    if cfg!(debug_assertions) {
        eprintln!("served_alloc: {what}: {allocs} allocations, bound {bound} (not asserted in debug)");
    } else {
        assert!(allocs <= bound, "{what} made {allocs} allocations, bound {bound}");
    }
}

#[test]
fn warm_served_graph_request_allocates_only_what_its_answer_owns() {
    let (tree, mut server) = served_stack();
    let names: Vec<String> = (0..tree.pods())
        .flat_map(|p| (0..2).map(move |i| (p, i)))
        .map(|(p, i)| tree.topology().node(tree.host(p, i)).name.clone())
        .collect();
    let spec: QuerySpec = Query::graph(names.iter()).into();
    let graph = |(r, allocs): (QueryResult, u64)| (r.into_graph().expect("a graph"), allocs);

    let (first, _) = graph(serve(&mut server, &spec));
    warm_up(&mut server, &spec);
    let bound = first.nodes.len() as u64 + SLACK;
    for _ in 0..8 {
        let (g, allocs) = graph(serve(&mut server, &spec));
        assert_eq!(g.digest(), {
            // Same settled fabric, later sample: only the provenance moves.
            let mut f = first.clone();
            f.provenance = g.provenance.clone();
            f.digest()
        });
        check("warm served graph request", allocs, bound);
    }
}

#[test]
fn warm_served_whatif_request_allocates_a_constant() {
    let (tree, mut server) = served_stack();
    let topo = tree.topology();
    let hosts = tree.hosts_per_pod() * tree.pods();
    let name = |i: usize| topo.node(tree.host(i / tree.hosts_per_pod(), i % tree.hosts_per_pod())).name.clone();
    // The greedy background saturates some paths; the horizon cuts their
    // flows off instead of letting the replay stall.
    let batch = |n: usize| -> QuerySpec {
        let flows = (0..n).map(|i| {
            let (src, dst) = (i * 7 % hosts, (i * 7 + 1 + i % (hosts - 1)) % hosts);
            HypotheticalFlow::new(name(src), name(dst), 20_000 + 1_000 * (i as u64 % 50))
                .at(SimTime::from_nanos(10_000 * i as u64))
        });
        Query::estimate_fcts(flows).horizon(SimTime::from_secs(10)).into()
    };
    let fcts = |(r, allocs): (QueryResult, u64)| (r.into_fcts().expect("a report"), allocs);

    warm_up(&mut server, &batch(200));
    for n in [200, 2_000] {
        let spec = batch(n);
        let (first, _) = fcts(serve(&mut server, &spec));
        assert_eq!(first.flows.len(), n);
        assert!(first.completed_count() > 0, "no flow of {n} completed");
        serve(&mut server, &spec);
        for _ in 0..3 {
            let (report, allocs) = fcts(serve(&mut server, &spec));
            assert_eq!(report.fct_digest, first.fct_digest, "warm what-if answer drifted at {n} flows");
            check(&format!("warm served what-if request of {n} flows"), allocs, WHATIF_BOUND);
        }
    }
}
