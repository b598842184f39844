//! Serving-front-end benchmark: goodput and latency under overload and
//! fault injection, written to `BENCH_serve.json` so future changes have
//! a recorded robustness baseline.
//!
//! One scenario, four runs over the pod network:
//!
//! * **1x / 2x / 4x offered load** — each simulated round submits
//!   `base * multiplier` graph requests and serves `base`; excess must be
//!   refused at admission with a typed `Overloaded` (never queued without
//!   bound). Goodput — completed answers per round — must hold at the 1x
//!   level while shed-rate absorbs the overload.
//! * **chaos** — 1x load, but every SNMP agent crashes mid-run. The
//!   circuit breaker opens and the degradation ladder serves stale
//!   snapshots; goodput must stay within 10% of the healthy 1x baseline.
//!
//! The 4x run executes twice and its admission/shed decision digest must
//! be bit-identical — overload behavior is deterministic, not luck.
//!
//! Flags: `--quick` shrinks the round count for CI smoke runs (warn-only
//! gate); `--out <path>` overrides the JSON destination.

use remos_bench::pods::pod_network;
use remos_core::collector::snmp::{SnmpCollector, SnmpCollectorConfig};
use remos_core::collector::SimClock;
use remos_core::{Query, Remos, RemosConfig, RemosError};
use remos_net::{SimDuration, Simulator};
use remos_obs::json::Value;
use remos_serve::{
    BreakerCollector, BreakerConfig, CircuitBreaker, Rung, ServeRequest, Server, ServerConfig,
};
use remos_snmp::fault::FaultPlan;
use remos_snmp::sim::{register_all_agents_with_faults, share};
use remos_snmp::{FaultDirector, SimTransport};
use std::sync::Arc;

struct Config {
    pods: usize,
    hosts_per_pod: usize,
    /// Simulated rounds per run; each advances measured time by `GAP`.
    rounds: usize,
    /// Requests served per round — the serving capacity. 1x offered load
    /// submits exactly this many per round.
    base: usize,
    tenants: usize,
}

const GAP: SimDuration = SimDuration::from_millis(250);
const ALLOWANCE: SimDuration = SimDuration::from_secs(8);
const QUEUE_DEPTH: usize = 16;

fn stack(cfg: &Config) -> (Server, remos_snmp::sim::SharedSim, Arc<FaultDirector>) {
    let sim = share(
        Simulator::new(pod_network(cfg.pods, cfg.hosts_per_pod)).expect("simulator"),
    );
    let transport = Arc::new(SimTransport::new());
    let director = FaultDirector::new();
    let agents = register_all_agents_with_faults(&transport, &sim, "public", &director);
    let mut collector =
        SnmpCollector::new(Arc::clone(&transport), agents, SnmpCollectorConfig::default());
    let breaker = CircuitBreaker::new(BreakerConfig::default());
    collector.set_retry_observer(Arc::clone(&breaker) as _);
    let collector = BreakerCollector::wrap(collector, breaker);
    let remos = Remos::new(
        Box::new(collector),
        Box::new(SimClock(Arc::clone(&sim))),
        RemosConfig::default(),
    );
    let server_cfg = ServerConfig {
        max_queue_depth: QUEUE_DEPTH,
        max_tenant_depth: QUEUE_DEPTH,
        default_allowance: Some(ALLOWANCE),
        // The load ladder probes the queue-bound admission path; quotas
        // are exercised by the serve chaos tests and the CLI.
        quota: remos_serve::QuotaConfig { rate_milli_per_sec: 0, ..Default::default() },
        ..ServerConfig::default()
    };
    (Server::new(remos, server_cfg), sim, director)
}

fn host_name(cfg: &Config, k: usize) -> String {
    let (p, j) = (k % cfg.pods, (k / cfg.pods) % cfg.hosts_per_pod);
    format!("h{p}x{j}")
}

#[derive(Default)]
struct LoadStats {
    offered: usize,
    admitted: usize,
    shed_admission: usize,
    answered: usize,
    deadline_shed: usize,
    rejected: usize,
    max_depth: usize,
    latencies_ns: Vec<u64>,
    digest: u64,
}

impl LoadStats {
    fn goodput_per_round(&self, rounds: usize) -> f64 {
        self.answered as f64 / rounds as f64
    }

    fn shed_rate(&self) -> f64 {
        (self.shed_admission + self.deadline_shed) as f64 / self.offered as f64
    }

    /// Quantile over the latency samples; `run_load` sorts them once.
    fn quantile_us(&self, q: f64) -> f64 {
        if self.latencies_ns.is_empty() {
            return 0.0;
        }
        let idx = ((self.latencies_ns.len() - 1) as f64 * q).round() as usize;
        self.latencies_ns[idx] as f64 / 1e3
    }
}

/// Run `cfg.rounds` rounds at `multiplier`× offered load. When
/// `kill_at_round` fires, every agent crashes for the rest of the run.
fn run_load(cfg: &Config, multiplier: usize, kill_at_round: Option<usize>) -> LoadStats {
    let (mut server, sim, director) = stack(cfg);
    let mut stats = LoadStats::default();
    let mut next = 0usize;
    for round in 0..cfg.rounds {
        if kill_at_round == Some(round) {
            let now = sim.lock().now();
            let n = cfg.pods * cfg.hosts_per_pod;
            for k in 0..n {
                director.set_plan(
                    &host_name(cfg, k),
                    FaultPlan::new().crash(now, SimDuration::from_secs(1_000_000)),
                    7,
                );
            }
            // Router/switch agents go down too.
            let names: Vec<String> = {
                let s = sim.lock();
                let t = s.topology_arc();
                t.network_nodes().iter().map(|&n| t.node(n).name.clone()).collect()
            };
            for name in names {
                director.set_plan(
                    &name,
                    FaultPlan::new().crash(now, SimDuration::from_secs(1_000_000)),
                    7,
                );
            }
        }
        for _ in 0..cfg.base * multiplier {
            let tenant = format!("t{}", next % cfg.tenants);
            let a = host_name(cfg, next);
            let b = host_name(cfg, next + 1 + (next % 3));
            next += 1;
            stats.offered += 1;
            let req = ServeRequest::new(tenant, Query::graph([a, b]));
            match server.submit(req) {
                Ok(_) => stats.admitted += 1,
                Err(RemosError::Overloaded { .. }) => stats.shed_admission += 1,
                Err(e) => panic!("untyped admission failure: {e}"),
            }
            stats.max_depth = stats.max_depth.max(server.queue_depth());
        }
        for _ in 0..cfg.base {
            match server.serve_next() {
                None => break,
                Some(o) => note(&mut stats, o),
            }
        }
        sim.lock().run_for(GAP).expect("advance sim");
    }
    for o in server.drain() {
        note(&mut stats, o);
    }
    assert!(
        stats.max_depth <= QUEUE_DEPTH,
        "queue depth {} exceeded the admission bound {QUEUE_DEPTH}",
        stats.max_depth
    );
    stats.latencies_ns.sort_unstable();
    stats.digest = server.decision_digest();
    stats
}

fn note(stats: &mut LoadStats, o: remos_serve::ServeOutcome) {
    match &o.result {
        Ok(_) => {
            debug_assert!(o.rung != Rung::Rejected);
            stats.answered += 1;
            stats.latencies_ns.push(o.latency().as_nanos());
        }
        Err(RemosError::DeadlineExceeded { .. }) => stats.deadline_shed += 1,
        Err(_) => stats.rejected += 1,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map_or("BENCH_serve.json", |s| s.as_str());

    let cfg = if quick {
        Config { pods: 4, hosts_per_pod: 2, rounds: 40, base: 4, tenants: 4 }
    } else {
        Config { pods: 8, hosts_per_pod: 4, rounds: 160, base: 4, tenants: 4 }
    };
    println!(
        "serve benchmark: {} pods x {} hosts, {} rounds, capacity {}/round{}",
        cfg.pods,
        cfg.hosts_per_pod,
        cfg.rounds,
        cfg.base,
        if quick { " (quick)" } else { "" }
    );

    let x1 = run_load(&cfg, 1, None);
    let x2 = run_load(&cfg, 2, None);
    let x4 = run_load(&cfg, 4, None);
    let x4_again = run_load(&cfg, 4, None);
    assert_eq!(
        x4.digest, x4_again.digest,
        "overload decisions are not reproducible: 4x digests diverged"
    );
    let chaos = run_load(&cfg, 1, Some(cfg.rounds / 2));

    let report = |label: &str, s: &LoadStats, rounds: usize| {
        println!(
            "  {:<6} offered {:>5}, answered {:>5}, shed {:>5} ({:>5.1}%), goodput {:>5.2}/round, p50 {:>8.1} us, p99 {:>8.1} us, max depth {:>2}",
            label,
            s.offered,
            s.answered,
            s.shed_admission + s.deadline_shed,
            s.shed_rate() * 100.0,
            s.goodput_per_round(rounds),
            s.quantile_us(0.5),
            s.quantile_us(0.99),
            s.max_depth
        );
    };
    report("1x", &x1, cfg.rounds);
    report("2x", &x2, cfg.rounds);
    report("4x", &x4, cfg.rounds);
    report("chaos", &chaos, cfg.rounds);

    let base_goodput = x1.goodput_per_round(cfg.rounds);
    let x4_ratio = x4.goodput_per_round(cfg.rounds) / base_goodput;
    let chaos_ratio = chaos.goodput_per_round(cfg.rounds) / base_goodput;
    println!("  goodput vs 1x: 4x overload {:.2}, chaos {:.2}", x4_ratio, chaos_ratio);

    let load_json = |s: &LoadStats, rounds: usize| {
        Value::object([
            ("offered", Value::from(s.offered)),
            ("admitted", Value::from(s.admitted)),
            ("answered", Value::from(s.answered)),
            ("shed_admission", Value::from(s.shed_admission)),
            ("deadline_shed", Value::from(s.deadline_shed)),
            ("rejected", Value::from(s.rejected)),
            ("shed_rate", Value::from(s.shed_rate())),
            ("goodput_per_round", Value::from(s.goodput_per_round(rounds))),
            ("latency_p50_us", Value::from(s.quantile_us(0.5))),
            ("latency_p99_us", Value::from(s.quantile_us(0.99))),
            ("max_queue_depth", Value::from(s.max_depth)),
        ])
    };
    let doc = Value::object([
        ("benchmark", Value::from("serve_front_end")),
        ("quick", Value::from(quick)),
        ("scenario", Value::object([
            ("pods", Value::from(cfg.pods)),
            ("hosts_per_pod", Value::from(cfg.hosts_per_pod)),
            ("rounds", Value::from(cfg.rounds)),
            ("capacity_per_round", Value::from(cfg.base)),
            ("tenants", Value::from(cfg.tenants)),
            ("queue_depth", Value::from(QUEUE_DEPTH)),
            ("allowance_secs", Value::from(2u32)),
            ("gap_ms", Value::from(250u32)),
        ])),
        ("load_1x", load_json(&x1, cfg.rounds)),
        ("load_2x", load_json(&x2, cfg.rounds)),
        ("load_4x", load_json(&x4, cfg.rounds)),
        ("chaos", load_json(&chaos, cfg.rounds)),
        ("goodput_ratio_4x", Value::from(x4_ratio)),
        ("goodput_ratio_chaos", Value::from(chaos_ratio)),
        ("decision_digest_4x", Value::from(format!("{:016x}", x4.digest))),
        ("digests_match", Value::from(true)),
    ]);
    std::fs::write(out, format!("{:#}\n", doc)).expect("write BENCH_serve.json");
    println!("wrote {out}");

    // Acceptance: goodput at 4x overload and under fault injection must
    // hold within 10% of the healthy 1x baseline — admission control
    // sheds load, it must not shed capacity. Quick mode only warns.
    let mut failed = false;
    for (label, ratio) in [("4x overload", x4_ratio), ("chaos", chaos_ratio)] {
        if ratio < 0.9 {
            let msg = format!(
                "{label} goodput is {:.1}% of the 1x baseline (bar: 90%)",
                ratio * 100.0
            );
            if quick {
                println!("WARN (quick): {msg}");
            } else {
                eprintln!("FAIL: {msg}");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}
