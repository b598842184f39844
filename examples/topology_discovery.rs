//! Topology discovery and logical collapse (§4.3, §5).
//!
//! Shows the collector's raw SNMP view (walking a router agent's MIB the
//! way the real Remos collector did), the physical topology it
//! reconstructs, and how the Modeler collapses it into logical
//! topologies of different shapes depending on which nodes an
//! application asks about. Also demonstrates the benchmark collector for
//! "networks that do not respond to our SNMP queries".
//!
//! Run with: `cargo run --example topology_discovery`

// Examples are the code users copy first, so they are held to the
// library crates' bar: a panic is a build error (docs/AUDIT.md).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo, clippy::unimplemented))]

use remos::apps::testbed::cmu_testbed;
use remos::core::collector::benchmark::{BenchmarkCollector, BenchmarkCollectorConfig};
use remos::core::collector::snmp::{SnmpCollector, SnmpCollectorConfig};
use remos::core::collector::{Collector, SimClock};
use remos::core::{Remos, RemosConfig};
use remos::prelude::*;
use remos::snmp::oid::well_known;
use remos::snmp::sim::{register_all_agents, share};
use remos::snmp::{Manager, SimTransport};
use remos::net::Simulator;
use std::error::Error;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn Error>> {
    let sim = share(Simulator::new(cmu_testbed())?);
    let transport = Arc::new(SimTransport::new());
    let agents = register_all_agents(&transport, &sim, "public");

    // --- Raw SNMP: walk timberline's interface table --------------------
    let mgr = Manager::new(Arc::clone(&transport), "public");
    println!("SNMP walk of timberline's neighbor table:");
    for vb in mgr.bulk_walk("timberline", &well_known::neighbor_name())? {
        println!("  {} = {}", vb.oid, vb.value);
    }

    // --- The collector's reconstructed physical view --------------------
    let mut collector =
        SnmpCollector::new(Arc::clone(&transport), agents, SnmpCollectorConfig::default());
    collector.refresh_topology()?;
    let topo = collector.topology()?;
    println!(
        "\ndiscovered: {} nodes ({} hosts, {} routers), {} links",
        topo.node_count(),
        topo.compute_nodes().len(),
        topo.network_nodes().len(),
        topo.link_count()
    );

    // --- Logical collapse ------------------------------------------------
    let mut remos = Remos::new(
        Box::new(collector),
        Box::new(SimClock(Arc::clone(&sim))),
        RemosConfig::default(),
    );
    for nodes in [vec!["m-1", "m-8"], vec!["m-1", "m-4", "m-8"], vec!["m-4", "m-5"]] {
        let g = remos.run(Query::graph(nodes.iter().copied()))?.into_graph()?;
        println!(
            "\nlogical topology for {:?}: {} nodes, {} links",
            nodes,
            g.nodes.len(),
            g.links.len()
        );
        for l in &g.links {
            println!(
                "  {} -- {}: {:.0} Mbps, latency {} (physical chain collapsed)",
                g.nodes[l.a].name,
                g.nodes[l.b].name,
                l.capacity / 1e6,
                l.latency
            );
        }
    }

    // --- Benchmark collector over an "opaque" region ---------------------
    let mut probe = BenchmarkCollector::new(
        Arc::clone(&sim),
        vec!["m-1".into(), "m-4".into(), "m-7".into()],
        BenchmarkCollectorConfig::default(),
    );
    probe.poll()?;
    let snap = probe.history().latest().ok_or("benchmark collector produced no snapshot")?;
    println!("\nbenchmark collector (active probes, no SNMP):");
    let t = probe.topology()?;
    for l in t.link_ids() {
        let link = t.link(l);
        let fwd = 100e6 - snap.util[l.index() * 2];
        println!(
            "  measured {} -> {}: {:.0} Mbps available",
            t.node(link.a).name,
            t.node(link.b).name,
            fwd / 1e6
        );
    }
    println!("  probing consumed {} of simulated time (SNMP polling is passive)", snap.interval);
    Ok(())
}
