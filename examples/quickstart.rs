//! Quickstart: the complete Remos pipeline on a small network.
//!
//! Builds the Fig 2 stack bottom-up — simulated network, SNMP agents,
//! Collector, Modeler/Remos — then asks the two questions Remos exists to
//! answer: "what does the network between my nodes look like?" and "what
//! bandwidth would my flows get?"
//!
//! Run with: `cargo run --example quickstart`

// Examples are the code users copy first, so they are held to the
// library crates' bar: a panic is a build error (docs/AUDIT.md).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo, clippy::unimplemented))]

use remos::core::collector::snmp::{SnmpCollector, SnmpCollectorConfig};
use remos::core::collector::SimClock;
use remos::core::{Remos, RemosConfig};
use remos::prelude::*;
use remos::net::flow::FlowParams;
use remos::net::{mbps, SimDuration, Simulator, TopologyBuilder};
use remos::snmp::sim::{register_all_agents, share};
use remos::snmp::SimTransport;
use std::error::Error;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn Error>> {
    // 1. A network: two hosts behind one router, 100 Mbps links.
    let mut b = TopologyBuilder::new();
    let alpha = b.compute("alpha");
    let beta = b.compute("beta");
    let router = b.network("router");
    b.link(alpha, router, mbps(100.0), SimDuration::from_micros(100))?;
    b.link(router, beta, mbps(100.0), SimDuration::from_micros(100))?;
    let sim = share(Simulator::new(b.build()?)?);

    // 2. SNMP agents on every node, and a collector that polls them.
    let transport = Arc::new(SimTransport::new());
    let agents = register_all_agents(&transport, &sim, "public");
    println!("SNMP agents: {agents:?}");
    let collector = SnmpCollector::new(
        Arc::clone(&transport),
        agents,
        SnmpCollectorConfig::default(),
    );

    // 3. Remos on top.
    let mut remos = Remos::new(
        Box::new(collector),
        Box::new(SimClock(Arc::clone(&sim))),
        RemosConfig::default(),
    );

    // 4. Some background traffic to make the answers interesting.
    sim.lock().start_flow(FlowParams::cbr(alpha, beta, mbps(60.0)))?;
    sim.lock().run_for(SimDuration::from_secs(1))?;

    // 5. remos_get_graph: the logical topology between alpha and beta.
    let graph = remos.run(Query::graph(["alpha", "beta"]))?.into_graph()?;
    println!("\nLogical topology: {} nodes, {} links", graph.nodes.len(), graph.links.len());
    if let Some(p) = &graph.provenance {
        println!(
            "(answer built from {} snapshot(s), worst quality {:?}, solver {})",
            p.snapshots, p.worst_quality, p.solver
        );
    }
    let a = graph.index_of("alpha")?;
    let z = graph.index_of("beta")?;
    println!(
        "available bandwidth alpha -> beta: {:.1} Mbps (60 of 100 Mbps are in use)",
        graph.path_avail_bw(a, z)? / 1e6
    );
    println!(
        "available bandwidth beta -> alpha: {:.1} Mbps (that direction is idle)",
        graph.path_avail_bw(z, a)? / 1e6
    );

    // 6. remos_flow_info: what would my flows get?
    let req = FlowInfoRequest::new()
        .fixed("alpha", "beta", mbps(10.0)) // an audio-like fixed flow
        .independent("alpha", "beta"); //      and a greedy bulk flow
    let resp = remos.run(Query::flows(req))?.into_flows()?;
    let fixed = &resp.fixed[0];
    println!(
        "\nfixed 10 Mbps flow: granted {:.1} Mbps (satisfied: {})",
        fixed.bandwidth.median / 1e6,
        fixed.fully_satisfied
    );
    let indep = resp.independent.as_ref().ok_or("independent flow missing from response")?;
    println!(
        "independent flow:   granted {:.1} Mbps (the residual after the fixed flow)",
        indep.bandwidth.median / 1e6
    );
    println!("path latency: {}", indep.latency);
    Ok(())
}
