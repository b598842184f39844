//! Counting-allocator bound on a warm *served* request: `Server::submit`
//! → `serve_next` on the default stack (7 pod-group shards + spine under
//! a `MultiCollector`, `Remos`, `Server`) over a settled k=8 fabric.
//!
//! A warm plan-hit graph request may allocate what its answer owns — one
//! name `String` per node (`RemosNode.name` is a `String`), the node and
//! link tables, the provenance strings, the outcome's tenant — and a
//! small constant besides; the poll, the merge, the plan lookup, the
//! sample selection and the annotation indices allocate nothing. Strict
//! only in release, like `crates/remos-core/tests/zero_alloc.rs`.

use remos::core::collector::multi::MultiCollector;
use remos::core::collector::shard::shard_fabric;
use remos::core::collector::{Collector, SimClock};
use remos::core::{Query, QuerySpec, Remos, RemosConfig};
use remos::net::flow::FlowParams;
use remos::net::{mbps, FatTree, SimDuration, Simulator};
use remos::serve::{Rung, ServeRequest, Server, ServerConfig};
use remos::snmp::sim::share;
use std::sync::Arc;

#[path = "../crates/remos-core/tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::alloc_count;

/// Allocations beyond the answer's node names a warm request may make.
const SLACK: u64 = 16;

#[test]
fn warm_served_graph_request_allocates_only_what_its_answer_owns() {
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
    let mut server = Server::new(remos, ServerConfig::default());

    let names: Vec<String> = (0..tree.pods())
        .flat_map(|p| (0..2).map(move |i| (p, i)))
        .map(|(p, i)| tree.topology().node(tree.host(p, i)).name.clone())
        .collect();
    let spec: QuerySpec = Query::graph(names.iter()).into();
    let serve = |server: &mut Server| {
        // Built outside the measured window: the request is the caller's.
        let req = ServeRequest::new("t0", spec.clone());
        let before = alloc_count();
        server.submit(req).expect("admitted");
        let out = server.serve_next().expect("served");
        let allocs = alloc_count() - before;
        assert_eq!(out.rung, Rung::Full);
        (out.result.expect("answered").into_graph().expect("a graph"), allocs)
    };

    // Warm-up: discovery, the plan, every workspace buffer — and the
    // merged history, whose 512 entries must all exist before a publish
    // recycles instead of allocating.
    let (first, _) = serve(&mut server);
    for _ in 0..520 {
        serve(&mut server);
    }
    let bound = first.nodes.len() as u64 + SLACK;
    for _ in 0..8 {
        let (g, allocs) = serve(&mut server);
        assert_eq!(g.digest(), {
            // Same settled fabric, later sample: only the provenance moves.
            let mut f = first.clone();
            f.provenance = g.provenance.clone();
            f.digest()
        });
        if cfg!(debug_assertions) {
            eprintln!("served_alloc: {allocs} allocations, bound {bound} (not asserted in debug)");
        } else {
            assert!(allocs <= bound, "warm served request made {allocs} allocations, bound {bound}");
        }
    }
}
