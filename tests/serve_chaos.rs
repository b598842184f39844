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
use remos::net::{SimDuration, Simulator};
use remos::serve::{
    BreakerCollector, BreakerConfig, CircuitBreaker, Rung, ServeRequest, Server, ServerConfig,
};
use remos::snmp::fault::{FaultDirector, FaultPlan};
use remos::snmp::sim::{register_all_agents_with_faults, share, SharedSim};
use remos::snmp::SimTransport;
use std::sync::Arc;

const QUEUE_BOUND: usize = 8;
/// Requests served per round; each round offers 4x this.
const CAPACITY: usize = 2;
const ROUNDS: usize = 20;

/// A serving stack over the CMU testbed with a seeded fault schedule:
/// one agent crashes for good mid-run, another turns flaky.
fn chaos_stack(seed: u64) -> (Server, SharedSim) {
    let sim = share(Simulator::new(cmu_testbed()).expect("simulator"));
    let transport = Arc::new(SimTransport::new());
    let director = FaultDirector::new();
    let agents = register_all_agents_with_faults(&transport, &sim, "public", &director);

    let mut rng = Rng::seed_from_u64(seed);
    let mut pool: Vec<&str> =
        TESTBED_HOSTS.iter().chain(TESTBED_ROUTERS.iter()).copied().collect();
    let crash_victim = pool.swap_remove(rng.gen_range(0..pool.len()));
    let flaky_victim = pool.swap_remove(rng.gen_range(0..pool.len()));
    let crash_at = SimDuration::from_millis(rng.gen_range(2_000..6_000));
    director.set_plan(
        crash_victim,
        FaultPlan::new().crash(remos::net::SimTime::ZERO + crash_at, SimDuration::from_secs(3_600)),
        seed,
    );
    let from = remos::net::SimTime::ZERO + SimDuration::from_millis(rng.gen_range(2_000..6_000));
    let until = from + SimDuration::from_millis(rng.gen_range(1_000..3_000));
    director.set_plan(
        flaky_victim,
        FaultPlan::new().flaky(from, until, rng.gen_range(0.2..0.5)),
        seed ^ 1,
    );

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
    let cfg = ServerConfig {
        max_queue_depth: QUEUE_BOUND,
        max_tenant_depth: QUEUE_BOUND,
        default_allowance: Some(SimDuration::from_secs(6)),
        fair_seed: seed,
        ..ServerConfig::default()
    };
    (Server::new(remos, cfg), sim)
}

struct OverloadOutcome {
    digest: u64,
    offered: usize,
    admission_shed: usize,
    answered: usize,
    deadline_shed: usize,
    served_errors: usize,
    max_depth: usize,
}

/// Drive one seeded overload+chaos run at 4x capacity and account for
/// every single request.
fn overload_run(seed: u64) -> OverloadOutcome {
    let (mut server, sim) = chaos_stack(seed);
    let mut out = OverloadOutcome {
        digest: 0,
        offered: 0,
        admission_shed: 0,
        answered: 0,
        deadline_shed: 0,
        served_errors: 0,
        max_depth: 0,
    };
    let mut admitted = 0usize;
    let hosts = TESTBED_HOSTS;
    for round in 0..ROUNDS {
        for k in 0..CAPACITY * 4 {
            let i = (round * CAPACITY * 4 + k) % hosts.len();
            let j = (i + 1 + k % 3) % hosts.len();
            out.offered += 1;
            let req = ServeRequest::new(format!("t{}", k % 3), Query::graph([hosts[i], hosts[j]]));
            match server.submit(req) {
                Ok(_) => admitted += 1,
                Err(RemosError::Overloaded { retry_after }) => {
                    assert!(retry_after > SimDuration::ZERO, "seed {seed:#x}: zero retry hint");
                    out.admission_shed += 1;
                }
                Err(e) => panic!("seed {seed:#x}: untyped admission failure: {e}"),
            }
            // The backlog bound must hold at its tightest point — right
            // after every submit, overloaded or not.
            out.max_depth = out.max_depth.max(server.queue_depth());
        }
        for _ in 0..CAPACITY {
            let Some(o) = server.serve_next() else { break };
            note(seed, &mut out, o);
        }
        sim.lock().run_for(SimDuration::from_millis(250)).expect("advance");
    }
    for o in server.drain() {
        note(seed, &mut out, o);
    }
    assert_eq!(
        admitted,
        out.answered + out.deadline_shed + out.served_errors,
        "seed {seed:#x}: requests lost between admission and serving"
    );
    assert_eq!(out.offered, admitted + out.admission_shed, "seed {seed:#x}: offered mismatch");
    out.digest = server.decision_digest();
    out
}

fn note(seed: u64, out: &mut OverloadOutcome, o: remos::serve::ServeOutcome) {
    match &o.result {
        Ok(_) => {
            assert!(o.rung != Rung::Rejected, "seed {seed:#x}: Ok answer on the rejection rung");
            out.answered += 1;
        }
        Err(RemosError::DeadlineExceeded { .. }) => out.deadline_shed += 1,
        // Any other error must still be a typed RemosError (it is, by
        // construction) — count it so the accounting above stays exact.
        Err(_) => out.served_errors += 1,
    }
}

fn assert_overload_contract(seed: u64) {
    let first = overload_run(seed);
    let second = overload_run(seed);
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
