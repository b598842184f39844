//! Network-aware node selection on the CMU testbed (§8.2, Fig 4).
//!
//! Installs the paper's synthetic m-6 → m-8 traffic, lets Remos select
//! execution nodes for a 4-node FFT, and compares against the naive
//! static choice — the experiment behind Table 2.
//!
//! Run with: `cargo run --release --example node_selection`

// Examples are the code users copy first, so they are held to the
// library crates' bar: a panic is a build error (docs/AUDIT.md).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo, clippy::unimplemented))]

use remos::apps::fft::fft_program;
use remos::apps::synthetic::{install_scenario, TrafficScenario};
use remos::apps::testbed::TESTBED_HOSTS;
use remos::apps::TestbedHarness;
use remos::net::SimDuration;
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    // The Fig 3 testbed with the Fig 4 traffic.
    let mut h = TestbedHarness::cmu();
    install_scenario(&h.sim, TrafficScenario::Interfering1)?;
    h.sim.lock().run_for(SimDuration::from_secs(1))?;
    println!("Background traffic: m-6 -> timberline -> whiteface -> m-8\n");

    // Remos-driven selection, start node m-4 (the paper's §7.3 pipeline).
    let selected = h.select_nodes(&TESTBED_HOSTS, "m-4", 4)?;
    println!("Remos selects: {}", selected.join(", "));

    let prog = fft_program(512, 4);
    let refs: Vec<&str> = selected.iter().map(String::as_str).collect();
    let smart = h.run_fixed(&prog, &refs)?;
    println!(
        "FFT(512) on Remos-selected nodes: {:.3} s  (compute {:.3}, comm {:.3})",
        smart.elapsed, smart.breakdown.compute, smart.breakdown.comm
    );

    // The naive choice: the locality-best set, ignoring traffic.
    let mut h2 = TestbedHarness::cmu();
    install_scenario(&h2.sim, TrafficScenario::Interfering1)?;
    h2.sim.lock().run_for(SimDuration::from_secs(1))?;
    let naive = ["m-4", "m-5", "m-6", "m-7"];
    let slow = h2.run_fixed(&prog, &naive)?;
    println!(
        "FFT(512) on static-chosen nodes  ({}): {:.3} s  (comm {:.3})",
        naive.join(", "),
        slow.elapsed,
        slow.breakdown.comm
    );
    println!(
        "\nnetwork-aware selection is {:.0}% faster under this traffic",
        (slow.elapsed / smart.elapsed - 1.0) * 100.0
    );
    Ok(())
}
