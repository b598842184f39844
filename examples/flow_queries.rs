//! The three flow classes and statistical reporting (§4.2, §4.4).
//!
//! Reproduces the paper's worked example — variable flows with relative
//! bandwidths 3 : 4.5 : 9 sharing a 5.5 Mbps bottleneck receive 1, 1.5
//! and 3 Mbps — and shows why Remos reports quartiles instead of a mean:
//! under bursty on/off cross-traffic the mean says "half a link", while
//! the quartiles reveal the bimodal truth.
//!
//! Run with: `cargo run --example flow_queries`

// Examples are the code users copy first, so they are held to the
// library crates' bar: a panic is a build error (docs/AUDIT.md).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo, clippy::unimplemented))]

use remos::apps::synthetic::add_bursty_traffic;
use remos::core::collector::snmp::{SnmpCollector, SnmpCollectorConfig};
use remos::core::collector::SimClock;
use remos::core::{Remos, RemosConfig};
use remos::prelude::*;
use remos::net::{kbps, mbps, SimDuration, Simulator, TopologyBuilder};
use remos::snmp::sim::{register_all_agents, share};
use remos::snmp::SimTransport;
use std::error::Error;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn Error>> {
    // Three senders, one receiver, and a 5.5 Mbps bottleneck link into it.
    let mut b = TopologyBuilder::new();
    let s1 = b.compute("s1");
    let s2 = b.compute("s2");
    let s3 = b.compute("s3");
    let sink = b.compute("sink");
    let sw = b.network("sw");
    let lat = SimDuration::from_micros(100);
    for s in [s1, s2, s3] {
        b.link(s, sw, mbps(100.0), lat)?;
    }
    b.link(sw, sink, mbps(5.5), lat)?;
    let sim = share(Simulator::new(b.build()?)?);

    let transport = Arc::new(SimTransport::new());
    let agents = register_all_agents(&transport, &sim, "public");
    let collector = SnmpCollector::new(transport, agents, SnmpCollectorConfig::default());
    let mut remos = Remos::new(
        Box::new(collector),
        Box::new(SimClock(Arc::clone(&sim))),
        RemosConfig::default(),
    );

    // --- The paper's §4.2 example -------------------------------------
    let req = FlowInfoRequest::new()
        .variable("s1", "sink", 3.0)
        .variable("s2", "sink", 4.5)
        .variable("s3", "sink", 9.0);
    let resp = remos.run(Query::flows(req))?.into_flows()?;
    println!("variable flows 3 : 4.5 : 9 over a 5.5 Mbps bottleneck:");
    for g in &resp.variable {
        println!(
            "  {} -> {}: {:.2} Mbps",
            g.endpoints.src,
            g.endpoints.dst,
            g.bandwidth.median / 1e6
        );
    }

    // --- Fixed + independent interplay ---------------------------------
    let req = FlowInfoRequest::new()
        .fixed("s1", "sink", kbps(1500.0))
        .independent("s2", "sink");
    let resp = remos.run(Query::flows(req))?.into_flows()?;
    let indep = resp.independent.as_ref().ok_or("independent flow missing from response")?;
    println!(
        "\nfixed 1.5 Mbps flow granted {:.2} Mbps; independent flow absorbs {:.2} Mbps",
        resp.fixed[0].bandwidth.median / 1e6,
        indep.bandwidth.median / 1e6
    );

    // --- Quartiles under bursty traffic (§4.4) --------------------------
    add_bursty_traffic(
        &sim,
        "s3",
        "sink",
        SimDuration::from_secs(2),
        SimDuration::from_secs(2),
        99,
    )?;
    let req = FlowInfoRequest::new().independent("s1", "sink");
    let resp = remos
        .run(Query::flows(req).timeframe(Timeframe::Window(SimDuration::from_secs(30))))?
        .into_flows()?;
    let q = &resp
        .independent
        .as_ref()
        .ok_or("independent flow missing from response")?
        .bandwidth;
    println!("\nindependent flow vs 50%-duty bursty cross-traffic, 30 s window:");
    println!("  quartiles [min|q1|median|q3|max] in Mbps:");
    println!(
        "  [{:.2} | {:.2} | {:.2} | {:.2} | {:.2}]  mean {:.2}, accuracy {:.2}",
        q.min / 1e6,
        q.q1 / 1e6,
        q.median / 1e6,
        q.q3 / 1e6,
        q.max / 1e6,
        q.mean / 1e6,
        q.accuracy
    );
    println!("  (a single mean would hide that the link alternates empty/full)");
    Ok(())
}
