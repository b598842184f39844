//! Runtime adaptation: a migrating Airshed run (§8.3, Table 3).
//!
//! An Airshed simulation compiled for 8 ranks runs on 5 nodes. At every
//! outer iteration the adaptation module queries Remos and migrates to
//! the least-loaded part of the network. Midway through the run,
//! interfering traffic appears — watch the program move.
//!
//! Run with: `cargo run --release --example adaptive_airshed`

// Examples are the code users copy first, so they are held to the
// library crates' bar: a panic is a build error (docs/AUDIT.md).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo, clippy::unimplemented))]

use remos::apps::airshed::airshed_program_iters;
use remos::apps::synthetic::add_greedy_traffic;
use remos::apps::testbed::TESTBED_HOSTS;
use remos::apps::TestbedHarness;
use remos::fx::SelfTraffic;
use remos::net::SimTime;
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    let mut h = TestbedHarness::cmu();
    // Apply the §8.3 fix so the program doesn't flee its own traffic.
    h.adapter.cfg.self_traffic = SelfTraffic::Subtract;

    // Traffic through timberline -> whiteface appears at t = 100 s.
    add_greedy_traffic(&h.sim, "m-6", "m-8", 8, SimTime::from_secs(100), None)?;

    let prog = airshed_program_iters(8, 30);
    println!("Airshed, 8 ranks on 5 nodes, 30 outer iterations.");
    println!("Interfering m-6 -> m-8 traffic starts at t=100 s.\n");
    let rep = h.run_adaptive(&prog, &TESTBED_HOSTS, &["m-4", "m-5", "m-6", "m-7", "m-8"])?;

    println!("total time: {:.0} s", rep.elapsed);
    println!(
        "breakdown: compute {:.0} s, comm {:.0} s, decisions {:.0} s, migrations {:.0} s",
        rep.breakdown.compute,
        rep.breakdown.comm,
        rep.breakdown.decision,
        rep.breakdown.migration
    );
    if rep.migrations.is_empty() {
        println!("no migrations occurred");
    }
    for (iter, nodes) in &rep.migrations {
        println!("  iteration {iter:>3}: migrated to {}", nodes.join(", "));
    }
    println!("final node set: {}", rep.final_mapping.join(", "));

    // The same run without adaptation, for contrast.
    let mut h2 = TestbedHarness::cmu();
    add_greedy_traffic(&h2.sim, "m-6", "m-8", 8, SimTime::from_secs(100), None)?;
    let fixed = h2.run_fixed(&prog, &["m-4", "m-5", "m-6", "m-7", "m-8"])?;
    println!(
        "\nfixed-mapping run under the same traffic: {:.0} s ({:.0}% slower)",
        fixed.elapsed,
        (fixed.elapsed / rep.elapsed - 1.0) * 100.0
    );
    Ok(())
}
