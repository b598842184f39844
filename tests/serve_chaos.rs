//! Overload + chaos tests for the serving front end, with pinned seeds.
//!
//! The contract under test is the overload-safety bar of the serving
//! layer: at 4x the admission capacity, with agents crashing and links
//! going flaky mid-run, (a) the backlog never exceeds the configured
//! bound, (b) every submitted request either completes or comes back
//! with a *typed* `Overloaded` / `DeadlineExceeded` — nothing is
//! silently dropped and nothing panics, and (c) the shed decisions are
//! bit-reproducible: the same seed replays to the same admission/shed
//! digest.
//!
//! The same driver holds goodput on a pod network: at 4x the offered
//! load, and with every agent down for the second half of a 1x run, the
//! server answers at least 90% of what it answers at 1x.
//!
//! The satellite test races a `MultiCollector` failover against
//! `run_batch`: one region dies between two batches, the batch keeps
//! answering bit-identically run-to-run, and every answer's
//! `Provenance` names the surviving federation state.

use remos::net::rng::Rng;
use remos::apps::testbed::{cmu_testbed, TESTBED_HOSTS, TESTBED_ROUTERS};
use remos::core::collector::multi::MultiCollector;
use remos::core::collector::snmp::{SnmpCollector, SnmpCollectorConfig};
use remos::core::collector::{Collector, SimClock};
use remos::core::{Query, QuerySpec, Remos, RemosConfig, RemosError};
use remos::net::{gbps, mbps, SimDuration, Simulator, Topology, TopologyBuilder};
use remos::serve::{
    BreakerCollector, BreakerConfig, CircuitBreaker, QuotaConfig, Rung, ServeRequest, Server,
    ServerConfig,
};
use remos::snmp::fault::{FaultDirector, FaultPlan};
use remos::snmp::sim::{register_all_agents_with_faults, share, SharedSim};
use remos::snmp::SimTransport;
use std::sync::Arc;

const QUEUE_BOUND: usize = 8;
/// Requests served per round; each round offers 4x this.
const CAPACITY: usize = 2;
const ROUNDS: usize = 20;

/// A serving stack and the shape of the load it is driven with.
struct Stack {
    server: Server,
    sim: SharedSim,
    director: Arc<FaultDirector>,
    /// Request endpoints, taken round-robin.
    hosts: Vec<String>,
    /// Requests served per round; a run at `m`x offers `m` times this.
    capacity: usize,
    rounds: usize,
}

/// SNMP agents on every node of `topo`, polled through a circuit breaker
/// and served with `cfg`.
fn serving_stack(
    topo: Topology,
    cfg: ServerConfig,
    hosts: Vec<String>,
    capacity: usize,
    rounds: usize,
) -> Stack {
    let sim = share(Simulator::new(topo).expect("simulator"));
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
    Stack { server: Server::new(remos, cfg), sim, director, hosts, capacity, rounds }
}

/// A serving stack over the CMU testbed with a seeded fault schedule:
/// one agent crashes for good mid-run, another turns flaky.
fn chaos_stack(seed: u64) -> Stack {
    let cfg = ServerConfig {
        max_queue_depth: QUEUE_BOUND,
        max_tenant_depth: QUEUE_BOUND,
        default_allowance: Some(SimDuration::from_secs(6)),
        fair_seed: seed,
        ..ServerConfig::default()
    };
    let hosts = TESTBED_HOSTS.iter().map(|h| h.to_string()).collect();
    let stack = serving_stack(cmu_testbed(), cfg, hosts, CAPACITY, ROUNDS);

    let mut rng = Rng::seed_from_u64(seed);
    let mut pool: Vec<&str> =
        TESTBED_HOSTS.iter().chain(TESTBED_ROUTERS.iter()).copied().collect();
    let crash_victim = pool.swap_remove(rng.gen_range(0..pool.len()));
    let flaky_victim = pool.swap_remove(rng.gen_range(0..pool.len()));
    let crash_at = SimDuration::from_millis(rng.gen_range(2_000..6_000));
    stack.director.set_plan(
        crash_victim,
        FaultPlan::new().crash(remos::net::SimTime::ZERO + crash_at, SimDuration::from_secs(3_600)),
        seed,
    );
    let from = remos::net::SimTime::ZERO + SimDuration::from_millis(rng.gen_range(2_000..6_000));
    let until = from + SimDuration::from_millis(rng.gen_range(1_000..3_000));
    stack.director.set_plan(
        flaky_victim,
        FaultPlan::new().flaky(from, until, rng.gen_range(0.2..0.5)),
        seed ^ 1,
    );
    stack
}

#[derive(Default)]
struct OverloadOutcome {
    digest: u64,
    offered: usize,
    admission_shed: usize,
    answered: usize,
    deadline_shed: usize,
    served_errors: usize,
    max_depth: usize,
}

/// Drive `stack` through its rounds at `multiplier`x its capacity, with
/// every agent crashed for good from round `outage_at` on, and account
/// for every single request.
fn overload_run(stack: Stack, multiplier: usize, outage_at: Option<usize>) -> OverloadOutcome {
    let Stack { mut server, sim, director, hosts, capacity, rounds } = stack;
    let mut out = OverloadOutcome::default();
    let mut admitted = 0usize;
    let offered = capacity * multiplier;
    for round in 0..rounds {
        if outage_at == Some(round) {
            let (now, topo) = {
                let s = sim.lock();
                (s.now(), s.topology_arc())
            };
            for n in topo.node_ids() {
                let crash = FaultPlan::new().crash(now, SimDuration::from_secs(1_000_000));
                director.set_plan(&topo.node(n).name, crash, 7);
            }
        }
        for k in 0..offered {
            let i = (round * offered + k) % hosts.len();
            let j = (i + 1 + k % 3) % hosts.len();
            out.offered += 1;
            let query = Query::graph([&hosts[i], &hosts[j]]);
            let req = ServeRequest::new(format!("t{}", k % 3), query);
            match server.submit(req) {
                Ok(_) => admitted += 1,
                Err(RemosError::Overloaded { retry_after }) => {
                    assert!(retry_after > SimDuration::ZERO, "zero retry hint");
                    out.admission_shed += 1;
                }
                Err(e) => panic!("untyped admission failure: {e}"),
            }
            // The backlog bound must hold at its tightest point — right
            // after every submit, overloaded or not.
            out.max_depth = out.max_depth.max(server.queue_depth());
        }
        for _ in 0..capacity {
            let Some(o) = server.serve_next() else { break };
            note(&mut out, o);
        }
        sim.lock().run_for(SimDuration::from_millis(250)).expect("advance");
    }
    for o in server.drain() {
        note(&mut out, o);
    }
    assert_eq!(
        admitted,
        out.answered + out.deadline_shed + out.served_errors,
        "requests lost between admission and serving"
    );
    assert_eq!(out.offered, admitted + out.admission_shed, "offered mismatch");
    out.digest = server.decision_digest();
    out
}

fn note(out: &mut OverloadOutcome, o: remos::serve::ServeOutcome) {
    match &o.result {
        Ok(_) => {
            assert!(o.rung != Rung::Rejected, "Ok answer on the rejection rung");
            out.answered += 1;
        }
        Err(RemosError::DeadlineExceeded { .. }) => out.deadline_shed += 1,
        // Any other error must still be a typed RemosError (it is, by
        // construction) — count it so the accounting above stays exact.
        Err(_) => out.served_errors += 1,
    }
}

fn assert_overload_contract(seed: u64) {
    let first = overload_run(chaos_stack(seed), 4, None);
    let second = overload_run(chaos_stack(seed), 4, None);
    assert_eq!(
        first.digest, second.digest,
        "seed {seed:#x}: shed decisions are not reproducible"
    );
    assert!(
        first.max_depth <= QUEUE_BOUND,
        "seed {seed:#x}: queue grew to {} (bound {QUEUE_BOUND})",
        first.max_depth
    );
    assert!(first.admission_shed > 0, "seed {seed:#x}: 4x load never tripped admission");
    assert!(first.answered > 0, "seed {seed:#x}: overload starved every request");
}

#[test]
fn overload_chaos_seed_c0ffee() {
    assert_overload_contract(0xC0FFEE);
}

#[test]
fn overload_chaos_seed_1998() {
    assert_overload_contract(1998);
}

#[test]
fn overload_chaos_seed_42() {
    assert_overload_contract(42);
}

/// Four pods of two 100 Mb/s hosts behind one core router, serving 4
/// requests a round from a queue (and tenant lane) 16 deep, with an 8 s
/// allowance and no quota, so admission sheds only on the queue bound.
fn pod_stack() -> Stack {
    let mut b = TopologyBuilder::new();
    let core = b.network("core");
    let lat = SimDuration::from_micros(10);
    for p in 0..4 {
        let s = b.network(&format!("s{p}"));
        b.link(s, core, gbps(10.0), lat).expect("core uplink");
        for j in 0..2 {
            let h = b.compute(&format!("h{p}x{j}"));
            b.link(h, s, mbps(100.0), lat).expect("host link");
        }
    }
    let cfg = ServerConfig {
        max_queue_depth: 16,
        max_tenant_depth: 16,
        default_allowance: Some(SimDuration::from_secs(8)),
        quota: QuotaConfig { rate_milli_per_sec: 0, ..QuotaConfig::default() },
        ..ServerConfig::default()
    };
    let hosts = (0..8).map(|k| format!("h{}x{}", k % 4, k / 4)).collect();
    serving_stack(b.build().expect("pod network"), cfg, hosts, 4, 40)
}

/// Admission sheds load, not capacity: at 4x the offered load, and with
/// every host and switch agent crashed halfway through a 1x run, the
/// server still answers at least 90% of what it answers at 1x.
#[test]
fn goodput_holds_under_overload_and_outage() {
    let x1 = overload_run(pod_stack(), 1, None);
    let x4 = overload_run(pod_stack(), 4, None);
    let x4_again = overload_run(pod_stack(), 4, None);
    assert_eq!(x4.digest, x4_again.digest, "4x shed decisions are not reproducible");
    let outage = overload_run(pod_stack(), 1, Some(20));
    for (label, run) in [("1x", &x1), ("4x", &x4), ("outage", &outage)] {
        assert!(run.max_depth <= 16, "{label}: queue grew to {} (bound 16)", run.max_depth);
        let ratio = run.answered as f64 / x1.answered as f64;
        println!("{label}: answered {} of {} offered, {ratio:.3} of 1x", run.answered, run.offered);
        assert!(ratio >= 0.9, "{label}: goodput is {ratio:.3} of the 1x level (bar: 0.9)");
    }
}

/// FNV-1a over a debug rendering: good enough to detect any bit-level
/// divergence between two runs' answers.
fn fingerprint(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Satellite: a `MultiCollector` failover racing `run_batch`. The east
/// region dies between two batches under a pinned chaos seed; the batch
/// API keeps answering, the answers are bit-identical run-to-run, and
/// the provenance of every post-failover answer names the surviving
/// federation state.
fn failover_batch_run(seed: u64) -> (u64, u64) {
    let sim = share(Simulator::new(cmu_testbed()).expect("simulator"));
    let transport = Arc::new(SimTransport::new());
    let director = FaultDirector::new();
    let agents = register_all_agents_with_faults(&transport, &sim, "public", &director);
    let pick = |names: &[&str]| -> Vec<String> {
        agents.iter().filter(|a| names.contains(&a.as_str())).cloned().collect()
    };
    let east_names = ["m-4", "m-5", "m-6", "m-7", "m-8", "timberline", "whiteface"];
    let mk = |set: Vec<String>| -> Box<dyn Collector> {
        Box::new(SnmpCollector::new(
            Arc::clone(&transport),
            set,
            SnmpCollectorConfig::default(),
        ))
    };
    let multi =
        MultiCollector::new(vec![mk(pick(&["m-1", "m-2", "m-3", "aspen"])), mk(pick(&east_names))]);
    let mut remos = Remos::new(
        Box::new(multi),
        Box::new(SimClock(Arc::clone(&sim))),
        RemosConfig::default(),
    );
    sim.lock().run_for(SimDuration::from_secs(1)).expect("warmup");

    let batch: Vec<QuerySpec> = vec![
        Query::graph(["m-1", "m-8"]).into(), // cross-region
        Query::graph(["m-1", "m-3"]).into(), // west only
        Query::graph(["m-5", "m-8"]).into(), // east only
    ];

    // Healthy batch: both children current.
    let healthy = remos.run_batch(batch.clone());
    let mut healthy_fp = 0u64;
    for r in &healthy {
        let g = r
            .as_ref()
            .expect("healthy batch entry failed")
            .clone()
            .into_graph()
            .expect("graph answer");
        let p = g.provenance.as_ref().expect("provenance stripped");
        assert_eq!(p.source.as_deref(), Some("multi(2/2 children current)"));
        healthy_fp ^= fingerprint(&format!("{:?}{:?}{:?}", g.nodes, g.links, g.provenance));
    }

    // Chaos, pinned by seed: a flaky window on one east agent, then the
    // whole east region crashes for good.
    let mut rng = Rng::seed_from_u64(seed);
    let now = sim.lock().now();
    let until = now + SimDuration::from_millis(rng.gen_range(500..1_500));
    director.set_plan(
        east_names[rng.gen_range(0..east_names.len())],
        FaultPlan::new().flaky(now, until, rng.gen_range(0.2..0.5)),
        seed,
    );
    for a in east_names {
        director.set_plan(
            a,
            FaultPlan::new().crash(now, SimDuration::from_secs(3_600)),
            seed ^ 7,
        );
    }
    sim.lock().run_for(SimDuration::from_secs(1)).expect("outage settles");

    // Failover batch: the east child now only carries its last sample
    // forward, so the federation reports one current child — and every
    // answer still arrives, flagged instead of dropped.
    let after = remos.run_batch(batch);
    let mut after_fp = 0u64;
    for r in &after {
        let g = r
            .as_ref()
            .expect("failover batch entry failed")
            .clone()
            .into_graph()
            .expect("graph answer");
        let p = g.provenance.as_ref().expect("provenance stripped");
        assert_eq!(
            p.source.as_deref(),
            Some("multi(1/2 children current)"),
            "provenance does not name the surviving collector"
        );
        after_fp ^= fingerprint(&format!("{:?}{:?}{:?}", g.nodes, g.links, g.provenance));
    }
    (healthy_fp, after_fp)
}

#[test]
fn multicollector_failover_races_run_batch() {
    let (h1, a1) = failover_batch_run(0xC0FFEE);
    let (h2, a2) = failover_batch_run(0xC0FFEE);
    assert_eq!(h1, h2, "healthy batch answers diverged across identical runs");
    assert_eq!(a1, a2, "post-failover batch answers diverged across identical runs");
    assert_ne!(h1, a1, "failover left no trace in the answers at all");
}
