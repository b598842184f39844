//! Link failure, SNMP traps, and application recovery.
//!
//! The paper's closing remarks note that "the topology and behavior of
//! networks will change from application invocation to invocation and may
//! even change during execution". This example takes the testbed's
//! timberline—whiteface backbone down mid-run: the simulator reroutes or
//! kills affected flows, the agents raise linkDown traps, the collector
//! re-discovers the topology, and an adaptive Airshed run evacuates the
//! stranded region.
//!
//! Run with: `cargo run --release --example failure_recovery`

// Examples are the code users copy first, so they are held to the
// library crates' bar: a panic is a build error (docs/AUDIT.md).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo, clippy::unimplemented))]

use remos::apps::airshed::airshed_program_iters;
use remos::apps::testbed::TESTBED_HOSTS;
use remos::apps::TestbedHarness;
use remos::prelude::*;
use remos::net::SimTime;
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    let mut h = TestbedHarness::cmu();

    // Find the backbone link.
    let backbone = {
        let s = h.sim.lock();
        let t = s.topology_arc();
        let tl = t.lookup("timberline")?;
        let wf = t.lookup("whiteface")?;
        t.neighbors(tl)
            .iter()
            .find(|&&(_, n)| n == wf)
            .map(|&(l, _)| l)
            .ok_or("timberline has no link to whiteface")?
    };

    // Show the healthy view first.
    let g = h
        .adapter
        .remos_mut()
        .run(Query::graph(TESTBED_HOSTS))?
        .into_graph()?;
    println!("healthy testbed: {} links, all hosts reachable", g.links.len());

    // The backbone dies at t = 25 s.
    h.sim.lock().schedule_link_state(SimTime::from_secs(25), backbone, false)?;
    println!("scheduled: timberline—whiteface fails at t=25 s\n");

    // An adaptive Airshed on 4 nodes, two of them beyond the doomed link.
    let prog = airshed_program_iters(4, 8);
    let rep = h.run_adaptive(&prog, &TESTBED_HOSTS, &["m-4", "m-5", "m-7", "m-8"]);
    match rep {
        Ok(rep) => {
            println!("run completed in {:.0} s", rep.elapsed);
            for (iter, nodes) in &rep.migrations {
                println!("  iteration {iter}: migrated to {}", nodes.join(", "));
            }
            println!("final node set: {}", rep.final_mapping.join(", "));
            assert!(!rep.final_mapping.iter().any(|n| n == "m-7" || n == "m-8"));
            println!("\nthe program evacuated the partitioned region and finished.");
        }
        Err(e) => {
            // The failure can also strike mid-communication, which a real
            // runtime would surface as a connection error.
            println!("run aborted by the partition: {e}");
            println!("(the failure hit while a transfer was in flight)");
        }
    }

    // The collector's view after the failure reflects the partition.
    let res = h
        .adapter
        .remos_mut()
        .run(Query::graph(["m-4", "m-7"]))
        .and_then(QueryResult::into_graph);
    println!(
        "\npost-failure graph query m-4 <-> m-7: {}",
        match res {
            Ok(_) => "still connected (unexpected!)".to_string(),
            Err(e) => format!("{e}"),
        }
    );
    Ok(())
}
