//! Engine hot-path benchmark: per-event cost of rate recomputation under
//! ≥1k-flow churn, full vs incremental solver, written to
//! `BENCH_engine.json` so future changes have a recorded perf baseline.
//!
//! Scenario (see `remos_bench::churn`): a pod network with all traffic
//! intra-pod. Each event retires one flow and admits another, then
//! advances simulated time so the engine re-solves rates once. The full
//! solver re-solves every flow per event; the incremental solver only
//! the affected pod's component — the contrast this binary measures.
//!
//! Flags: `--quick` shrinks the scenario for CI smoke runs; the default
//! is the 1k-flow configuration the ISSUE's ≥3× acceptance bar refers
//! to. `--out <path>` overrides the JSON destination.

use remos_bench::churn::ChurnBench;
use remos_net::SolverMode;
use remos_obs::json::Value;
use std::time::Instant;

struct Config {
    pods: usize,
    hosts_per_pod: usize,
    flows_per_pod: usize,
    warmup_events: usize,
    events: usize,
}

struct ModeStats {
    label: &'static str,
    live_flows: usize,
    events: usize,
    wall_ns: u64,
    median_ns_per_event: u64,
    p90_ns_per_event: u64,
    events_per_sec: f64,
    full_recomputes: u64,
    scoped_recomputes: u64,
    rates_digest: u64,
}

fn run_mode(mode: SolverMode, label: &'static str, cfg: &Config) -> ModeStats {
    let mut bench = ChurnBench::new(cfg.pods, cfg.hosts_per_pod, cfg.flows_per_pod, mode);
    for i in 0..cfg.warmup_events {
        bench.step(i);
    }
    let mut samples: Vec<u64> = Vec::with_capacity(cfg.events);
    let start = Instant::now();
    for i in 0..cfg.events {
        let t0 = Instant::now();
        bench.step(cfg.warmup_events + i);
        samples.push(t0.elapsed().as_nanos() as u64);
    }
    let wall_ns = start.elapsed().as_nanos() as u64;
    samples.sort_unstable();
    let median_ns_per_event = samples[samples.len() / 2];
    let p90_ns_per_event = samples[samples.len() * 9 / 10];
    ModeStats {
        label,
        live_flows: bench.live_flows(),
        events: cfg.events,
        wall_ns,
        median_ns_per_event,
        p90_ns_per_event,
        events_per_sec: cfg.events as f64 / (wall_ns as f64 / 1e9),
        full_recomputes: bench.sim.full_recomputes(),
        scoped_recomputes: bench.sim.scoped_recomputes(),
        rates_digest: bench.sim.rates_digest(),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map_or("BENCH_engine.json", |s| s.as_str());

    let cfg = if quick {
        Config { pods: 25, hosts_per_pod: 4, flows_per_pod: 10, warmup_events: 25, events: 100 }
    } else {
        Config { pods: 100, hosts_per_pod: 4, flows_per_pod: 10, warmup_events: 100, events: 500 }
    };
    let flows = cfg.pods * cfg.flows_per_pod;
    println!(
        "engine churn benchmark: {} pods x {} flows = {} concurrent flows, {} events{}",
        cfg.pods,
        cfg.flows_per_pod,
        flows,
        cfg.events,
        if quick { " (quick)" } else { "" }
    );

    let full = run_mode(SolverMode::Full, "full", &cfg);
    let inc = run_mode(SolverMode::Incremental, "incremental", &cfg);
    assert_eq!(
        full.rates_digest, inc.rates_digest,
        "solver modes diverged on the benchmark scenario"
    );

    for s in [&full, &inc] {
        println!(
            "  {:<12} {:>10} ns/event median, {:>10} ns p90, {:>10.0} events/s \
             ({} full + {} scoped solves)",
            s.label,
            s.median_ns_per_event,
            s.p90_ns_per_event,
            s.events_per_sec,
            s.full_recomputes,
            s.scoped_recomputes,
        );
    }
    let speedup = full.median_ns_per_event as f64 / inc.median_ns_per_event as f64;
    println!("  speedup (median ns/event, full / incremental): {speedup:.2}x");

    let mode_json = |s: &ModeStats| {
        Value::object([
            ("events", Value::from(s.events)),
            ("live_flows", Value::from(s.live_flows)),
            ("wall_ns", Value::from(s.wall_ns)),
            ("median_ns_per_event", Value::from(s.median_ns_per_event)),
            ("p90_ns_per_event", Value::from(s.p90_ns_per_event)),
            ("events_per_sec", Value::from(s.events_per_sec)),
            ("full_recomputes", Value::from(s.full_recomputes)),
            ("scoped_recomputes", Value::from(s.scoped_recomputes)),
        ])
    };
    let doc = Value::object([
        ("benchmark", Value::from("engine_churn")),
        ("quick", Value::from(quick)),
        ("scenario", Value::object([
            ("pods", Value::from(cfg.pods)),
            ("hosts_per_pod", Value::from(cfg.hosts_per_pod)),
            ("flows_per_pod", Value::from(cfg.flows_per_pod)),
            ("concurrent_flows", Value::from(flows)),
            ("events", Value::from(cfg.events)),
        ])),
        ("modes", Value::object([("full", mode_json(&full)), ("incremental", mode_json(&inc))])),
        ("speedup_median", Value::from(speedup)),
        ("digests_match", Value::from(true)),
    ]);
    std::fs::write(out, format!("{:#}\n", doc)).expect("write BENCH_engine.json");
    println!("wrote {out}");

    // The acceptance bar: incremental must beat full by >=3x on the
    // 1k-flow scenario. Quick mode (CI smoke) only warns, since shared
    // runners make wall-clock ratios noisy.
    if !quick && speedup < 3.0 {
        eprintln!("FAIL: speedup {speedup:.2}x is below the 3x acceptance bar");
        std::process::exit(1);
    }
}
