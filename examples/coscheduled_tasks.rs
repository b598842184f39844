//! Task parallelism: co-scheduled applications sharing one network.
//!
//! Fx "supports integrated task and data parallel programming" (§7.1);
//! this example launches three FFTs as concurrent tasks. Two share the
//! aspen—timberline backbone and interfere; the third arrives late onto a
//! disjoint region. A simultaneous Remos flow query predicts the
//! degraded shares the co-scheduled tasks will actually see — the §4.2
//! point that querying flows in isolation is "overly optimistic".
//!
//! Run with: `cargo run --release --example coscheduled_tasks`

// Examples are the code users copy first, so they are held to the
// library crates' bar: a panic is a build error (docs/AUDIT.md).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo, clippy::unimplemented))]

use remos::apps::fft::fft_program;
use remos::apps::TestbedHarness;
use remos::prelude::*;
use remos::fx::runtime::{Mapping, RuntimeConfig};
use remos::fx::{run_concurrent, TaskSpec};
use remos::net::SimTime;
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    let mut h = TestbedHarness::cmu();

    // Before launching: ask Remos what the two backbone-crossing tasks
    // will get, individually and together.
    let solo = h
        .adapter
        .remos_mut()
        .run(Query::flows(FlowInfoRequest::new().variable("m-1", "m-4", 1.0)))?
        .into_flows()?;
    let both = h
        .adapter
        .remos_mut()
        .run(Query::flows(
            FlowInfoRequest::new()
                .variable("m-1", "m-4", 1.0)
                .variable("m-2", "m-5", 1.0),
        ))?
        .into_flows()?;
    println!(
        "queried alone, m-1 -> m-4 is promised {:.0} Mbps; queried together with m-2 -> m-5: {:.0} Mbps each",
        solo.variable[0].bandwidth.median / 1e6,
        both.variable[0].bandwidth.median / 1e6
    );

    // Launch: two FFT(1K) tasks across the backbone at t=0, a third on
    // the whiteface region at t=1 s.
    let mapping = |a: &str, b: &str| Mapping::of(&[a, b]);
    let task = |m: Mapping, start| TaskSpec { program: fft_program(1024, 2), mapping: m, start };
    let reports = run_concurrent(
        &h.sim,
        RuntimeConfig::default(),
        vec![
            task(mapping("m-1", "m-4")?, SimTime::ZERO),
            task(mapping("m-2", "m-5")?, SimTime::ZERO),
            task(mapping("m-7", "m-8")?, SimTime::from_secs(1)),
        ],
    )?;

    println!("\nthree FFT(1K) tasks co-scheduled:");
    for r in &reports {
        println!(
            "  started t={:>4.1} s: finished t={:>5.2} s (elapsed {:.2} s; comm {:.2} s, compute {:.2} s)",
            r.started, r.finished, r.elapsed, r.breakdown.comm, r.breakdown.compute
        );
    }
    println!(
        "\nthe two backbone tasks ran their transposes at the shared 50 Mbps\n\
         Remos predicted; the whiteface task ran at full speed in parallel."
    );
    assert!(reports[0].elapsed > reports[2].elapsed);
    Ok(())
}
