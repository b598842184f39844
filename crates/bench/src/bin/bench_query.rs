//! Query-path benchmark: plan-cache warm vs cold graph queries, and
//! batched vs sequential query serving, written to `BENCH_query.json`
//! so future changes have a recorded perf baseline.
//!
//! Two scenarios over the pod network from `remos_bench::churn`:
//!
//! * **repeated_query** — the same all-hosts graph query answered over
//!   and over against an unchanged topology. Cold mode
//!   (`plan_cache_capacity: 0`) rebuilds routing + logicalization every
//!   time; warm mode (default capacity) hits the epoch-keyed plan cache
//!   and only re-annotates samples. The ISSUE's ≥5× acceptance bar is
//!   the cold/warm median ratio, and cold and warm answers must be
//!   digest-identical.
//! * **batch64** — 64 host-pair graph queries served by one
//!   `Remos::run_batch` call (single pinned sample selection, worker
//!   pool) versus 64 sequential `Remos::run` calls on an identically
//!   prepared stack. Per-entry digests must match bit for bit.
//!
//! Flags: `--quick` shrinks both scenarios for CI smoke runs (warn-only
//! gate); `--out <path>` overrides the JSON destination.

use remos_bench::churn::pod_network;
use remos_bench::fold_digests;
use remos_core::collector::oracle::OracleCollector;
use remos_core::collector::{Collector, SimClock};
use remos_core::modeler::{Modeler, ModelerConfig};
use remos_core::prelude::*;
use remos_core::{Remos, RemosConfig};
use remos_net::{SimDuration, Simulator};
use remos_obs::json::Value;
use remos_snmp::sim::{share, SharedSim};
use std::sync::Arc;
use std::time::Instant;

struct Config {
    pods: usize,
    hosts_per_pod: usize,
    /// Measured iterations of the repeated-query scenario, per mode.
    repeats: usize,
    /// Measured rounds of the batch scenario, per serving style.
    rounds: usize,
    /// Queries per batch round.
    batch: usize,
}

const PRIME_POLLS: usize = 8;
const WINDOW: SimDuration = SimDuration::from_secs(2);

fn primed_oracle(cfg: &Config) -> (SharedSim, OracleCollector) {
    let sim = share(
        Simulator::new(pod_network(cfg.pods, cfg.hosts_per_pod)).expect("simulator"),
    );
    let mut col = OracleCollector::new(Arc::clone(&sim));
    for _ in 0..PRIME_POLLS {
        sim.lock().run_for(SimDuration::from_millis(250)).expect("advance sim");
        col.poll().expect("poll oracle");
    }
    (sim, col)
}

fn host_names(cfg: &Config) -> Vec<String> {
    let mut names = Vec::with_capacity(cfg.pods * cfg.hosts_per_pod);
    for p in 0..cfg.pods {
        for j in 0..cfg.hosts_per_pod {
            names.push(format!("h{p}x{j}"));
        }
    }
    names
}

struct ModeStats {
    label: &'static str,
    iterations: usize,
    wall_ns: u64,
    median_ns: u64,
    p90_ns: u64,
    digest: u64,
}

fn percentiles(samples: &mut [u64]) -> (u64, u64) {
    samples.sort_unstable();
    (samples[samples.len() / 2], samples[samples.len() * 9 / 10])
}

/// Run the repeated all-hosts graph query `cfg.repeats` times against a
/// modeler with the given plan-cache capacity.
fn run_repeated(cfg: &Config, label: &'static str, capacity: usize) -> ModeStats {
    let (_sim, col) = primed_oracle(cfg);
    let names = host_names(cfg);
    let modeler = Modeler::new(ModelerConfig {
        plan_cache_capacity: capacity,
        ..ModelerConfig::default()
    });
    let tf = Timeframe::Window(WINDOW);
    // One untimed call so the warm mode measures steady-state hits, not
    // the initial miss; the cold mode's answer is identical either way.
    let reference = modeler.get_graph(&col, &names, tf).expect("graph query");
    let digest = reference.digest();

    let mut samples = Vec::with_capacity(cfg.repeats);
    let start = Instant::now();
    for _ in 0..cfg.repeats {
        let t0 = Instant::now();
        let g = modeler.get_graph(&col, &names, tf).expect("graph query");
        samples.push(t0.elapsed().as_nanos() as u64);
        assert_eq!(g.digest(), digest, "{label}: answer drifted across repeats");
    }
    let wall_ns = start.elapsed().as_nanos() as u64;
    let (median_ns, p90_ns) = percentiles(&mut samples);
    ModeStats { label, iterations: cfg.repeats, wall_ns, median_ns, p90_ns, digest }
}

fn batch_stack(cfg: &Config) -> Remos {
    let (sim, col) = primed_oracle(cfg);
    Remos::new(
        Box::new(col),
        Box::new(SimClock(Arc::clone(&sim))),
        RemosConfig::default(),
    )
}

/// The 64 (well, `cfg.batch`) host-pair graph queries of the batch
/// scenario, drawn from 32 distinct pairs so the working set fits the
/// default plan-cache capacity — the batch measures warm serving
/// (amortized sample selection + parallel annotation), not cache
/// thrash; pair k connects pod `k % pods` to pod `(k + 1) % pods`.
fn batch_specs(cfg: &Config) -> Vec<QuerySpec> {
    (0..cfg.batch)
        .map(|i| {
            let k = i % 32;
            let (pa, pb) = (k % cfg.pods, (k + 1) % cfg.pods);
            let (ha, hb) = (k % cfg.hosts_per_pod, (k / cfg.pods) % cfg.hosts_per_pod);
            Query::graph([format!("h{pa}x{ha}"), format!("h{pb}x{hb}")])
                .timeframe(Timeframe::Window(WINDOW))
                .into()
        })
        .collect()
}

fn result_digests(results: &[CoreResult<QueryResult>]) -> Vec<u64> {
    results
        .iter()
        .map(|r| match r {
            Ok(QueryResult::Graph(g)) => g.digest(),
            other => panic!("batch entry failed: {other:?}"),
        })
        .collect()
}

fn run_batched(cfg: &Config) -> (ModeStats, Vec<u64>) {
    let mut remos = batch_stack(cfg);
    let specs = batch_specs(cfg);
    let reference = result_digests(&remos.run_batch(specs.clone()));
    let mut samples = Vec::with_capacity(cfg.rounds);
    let start = Instant::now();
    for _ in 0..cfg.rounds {
        let round = specs.clone();
        let t0 = Instant::now();
        let results = remos.run_batch(round);
        samples.push(t0.elapsed().as_nanos() as u64);
        assert_eq!(result_digests(&results), reference, "batched answers drifted");
    }
    let wall_ns = start.elapsed().as_nanos() as u64;
    let (median_ns, p90_ns) = percentiles(&mut samples);
    let stats = ModeStats {
        label: "batched",
        iterations: cfg.rounds,
        wall_ns,
        median_ns,
        p90_ns,
        digest: fold_digests(&reference),
    };
    (stats, reference)
}

fn run_sequential(cfg: &Config) -> (ModeStats, Vec<u64>) {
    let mut remos = batch_stack(cfg);
    let specs = batch_specs(cfg);
    let one_round = |remos: &mut Remos| -> Vec<u64> {
        let results: Vec<CoreResult<QueryResult>> =
            specs.iter().map(|s| remos.run(s.clone())).collect();
        result_digests(&results)
    };
    let reference = one_round(&mut remos);
    let mut samples = Vec::with_capacity(cfg.rounds);
    let start = Instant::now();
    for _ in 0..cfg.rounds {
        let t0 = Instant::now();
        let digests = one_round(&mut remos);
        samples.push(t0.elapsed().as_nanos() as u64);
        assert_eq!(digests, reference, "sequential answers drifted");
    }
    let wall_ns = start.elapsed().as_nanos() as u64;
    let (median_ns, p90_ns) = percentiles(&mut samples);
    let stats = ModeStats {
        label: "sequential",
        iterations: cfg.rounds,
        wall_ns,
        median_ns,
        p90_ns,
        digest: fold_digests(&reference),
    };
    (stats, reference)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map_or("BENCH_query.json", |s| s.as_str());

    let cfg = if quick {
        Config { pods: 8, hosts_per_pod: 4, repeats: 50, rounds: 5, batch: 64 }
    } else {
        Config { pods: 16, hosts_per_pod: 4, repeats: 200, rounds: 20, batch: 64 }
    };
    println!(
        "query benchmark: {} pods x {} hosts, {} repeats, {} batch rounds of {}{}",
        cfg.pods,
        cfg.hosts_per_pod,
        cfg.repeats,
        cfg.rounds,
        cfg.batch,
        if quick { " (quick)" } else { "" }
    );

    // Scenario A: repeated all-hosts query, cold plan build vs cache hit.
    let cold = run_repeated(&cfg, "cold", 0);
    let warm = run_repeated(&cfg, "warm", remos_core::modeler::DEFAULT_PLAN_CACHE_CAPACITY);
    assert_eq!(
        cold.digest, warm.digest,
        "plan cache changed the answer: cold and warm digests diverged"
    );

    // Scenario B: one run_batch call vs the same queries run one by one.
    let (batched, batch_digests) = run_batched(&cfg);
    let (sequential, seq_digests) = run_sequential(&cfg);
    assert_eq!(
        batch_digests, seq_digests,
        "run_batch changed an answer: batched and sequential digests diverged"
    );

    for s in [&cold, &warm, &batched, &sequential] {
        println!(
            "  {:<12} {:>10} ns median, {:>10} ns p90, {:>4} iterations",
            s.label, s.median_ns, s.p90_ns, s.iterations
        );
    }
    let warm_speedup = cold.median_ns as f64 / warm.median_ns as f64;
    let batch_speedup = sequential.median_ns as f64 / batched.median_ns as f64;
    println!("  warm-path speedup (cold / warm median): {warm_speedup:.2}x");
    println!("  batch speedup (sequential / batched median): {batch_speedup:.2}x");

    let mode_json = |s: &ModeStats| {
        Value::object([
            ("iterations", Value::from(s.iterations)),
            ("wall_ns", Value::from(s.wall_ns)),
            ("median_ns", Value::from(s.median_ns)),
            ("p90_ns", Value::from(s.p90_ns)),
        ])
    };
    let doc = Value::object([
        ("benchmark", Value::from("query_path")),
        ("quick", Value::from(quick)),
        ("scenario", Value::object([
            ("pods", Value::from(cfg.pods)),
            ("hosts_per_pod", Value::from(cfg.hosts_per_pod)),
            ("targets", Value::from(cfg.pods * cfg.hosts_per_pod)),
            ("repeats", Value::from(cfg.repeats)),
            ("batch_rounds", Value::from(cfg.rounds)),
            ("batch_size", Value::from(cfg.batch)),
            ("window_secs", Value::from(2u32)),
            ("prime_polls", Value::from(PRIME_POLLS)),
        ])),
        ("repeated_query", Value::object([
            ("cold", mode_json(&cold)),
            ("warm", mode_json(&warm)),
            ("speedup_median", Value::from(warm_speedup)),
        ])),
        ("batch64", Value::object([
            ("sequential", mode_json(&sequential)),
            ("batched", mode_json(&batched)),
            ("speedup_median", Value::from(batch_speedup)),
        ])),
        ("digests_match", Value::from(true)),
    ]);
    std::fs::write(out, format!("{:#}\n", doc)).expect("write BENCH_query.json");
    println!("wrote {out}");

    // The acceptance bar: a plan-cache hit must beat a cold rebuild by
    // >=5x on the repeated-query scenario. Quick mode (CI smoke) only
    // warns, since shared runners make wall-clock ratios noisy.
    if !quick && warm_speedup < 5.0 {
        eprintln!("FAIL: warm-path speedup {warm_speedup:.2}x is below the 5x acceptance bar");
        std::process::exit(1);
    }
}
