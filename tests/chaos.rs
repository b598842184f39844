//! Chaos tests: Table-2-style runs under randomized, seeded fault
//! schedules. Agents crash (sysUpTime and counters reset), freeze
//! (responses delayed past the manager's deadline), and turn flaky
//! (datagram loss bursts) while programs execute and queries run.
//!
//! The invariants exercised here are the degraded-mode contract:
//! queries keep returning answers while at least one agent is
//! reachable, data derived from unreachable agents is flagged
//! non-fresh instead of silently served, counter discontinuities never
//! fabricate utilization spikes, and a federation fails over between
//! collectors when one region goes dark.

use remos::net::rng::Rng;
use remos::apps::airshed::airshed_program_iters;
use remos::apps::harness::TestbedHarness;
use remos::apps::synthetic::{install_scenario, TrafficScenario};
use remos::apps::testbed::{cmu_testbed, TESTBED_HOSTS, TESTBED_ROUTERS};
use remos::core::collector::multi::{MultiCollector, MultiCollectorConfig};
use remos::core::collector::snmp::{SnmpCollector, SnmpCollectorConfig};
use remos::core::collector::{Collector, SimClock, Snapshot};
use remos::core::{DataQuality, FlowInfoRequest, Query, Remos, RemosConfig};
use remos::net::flow::FlowParams;
use remos::net::{mbps, DirLink, Direction, SimDuration, SimTime, Simulator, Topology};
use remos::snmp::fault::{FaultDirector, FaultPlan};
use remos::snmp::sim::{register_all_agents_with_faults, share};
use remos::snmp::SimTransport;
use std::sync::Arc;

/// Both directions of the (unique) link between two named nodes.
fn dirs_between(topo: &Topology, x: &str, y: &str) -> [DirLink; 2] {
    let xi = topo.lookup(x).unwrap();
    let yi = topo.lookup(y).unwrap();
    for link in topo.link_ids() {
        let l = topo.link(link);
        let (a, b) = (l.tail(Direction::AtoB), l.tail(Direction::BtoA));
        if (a == xi && b == yi) || (a == yi && b == xi) {
            return [
                DirLink { link, dir: Direction::AtoB },
                DirLink { link, dir: Direction::BtoA },
            ];
        }
    }
    panic!("no link between {x} and {y}");
}

/// Install a randomized fault schedule on 2–3 agents: always at least
/// one crash and one freeze, sometimes a flaky window on top.
/// Deterministic in `seed`. Faults start no earlier than t = 2 s so the
/// initial (strict, all-agents) discovery at t ≈ 1 s stays clean.
fn random_fault_schedule(director: &Arc<FaultDirector>, seed: u64) -> Vec<String> {
    let mut rng = Rng::seed_from_u64(seed);
    let mut pool: Vec<&str> = TESTBED_HOSTS
        .iter()
        .chain(TESTBED_ROUTERS.iter())
        .copied()
        .collect();
    let n = rng.gen_range(2..=3);
    let mut victims = Vec::new();
    for _ in 0..n {
        let i = rng.gen_range(0..pool.len());
        victims.push(pool.swap_remove(i).to_string());
    }
    for (k, v) in victims.iter().enumerate() {
        let crash_at = SimTime::ZERO + SimDuration::from_millis(rng.gen_range(2_000..20_000));
        let downtime = SimDuration::from_millis(rng.gen_range(1_000..3_000));
        let from = SimTime::ZERO + SimDuration::from_millis(rng.gen_range(2_000..20_000));
        let until = from + SimDuration::from_millis(rng.gen_range(500..2_000));
        let loss = rng.gen_range(0.2..0.5);
        let plan = match k {
            0 => FaultPlan::new().crash(crash_at, downtime),
            1 => FaultPlan::new().freeze(from, until),
            _ => FaultPlan::new().crash(crash_at, downtime).flaky(from, until, loss),
        };
        director.set_plan(v, plan, seed ^ k as u64);
    }
    victims
}

/// One full Table-2-style scenario under a seeded fault schedule: an
/// adaptive program runs to completion while agents misbehave, queries
/// keep answering afterwards, and data behind a dead agent is flagged.
fn chaos_scenario(seed: u64) {
    let director = FaultDirector::new();
    let victims = random_fault_schedule(&director, seed);
    let mut h = TestbedHarness::cmu_with_faults(&director, SnmpCollectorConfig::default());
    install_scenario(&h.sim, TrafficScenario::Interfering1).unwrap();
    h.sim.lock().run_for(SimDuration::from_secs(1)).unwrap();

    // Force discovery before any fault window opens (strict discovery
    // needs every agent once; after that, degraded mode carries on).
    h.select_nodes(&TESTBED_HOSTS, "m-4", 2).unwrap();

    // 5 ranks to match the 5 initial nodes: the runtime rejects mappings
    // with more nodes than ranks.
    let prog = airshed_program_iters(5, 4);
    let rep = h
        .run_adaptive(&prog, &TESTBED_HOSTS, &["m-4", "m-5", "m-6", "m-7", "m-8"])
        .unwrap_or_else(|e| panic!("seed {seed:#x}: adaptive run failed: {e}"));
    assert!(rep.elapsed > 0.0, "seed {seed:#x}: no progress");
    assert!(rep.bytes_sent > 0, "seed {seed:#x}: nothing sent");

    // Kill one victim for good: queries must still answer (10 of 11
    // agents are reachable) and must flag the dead agent's links.
    let now = h.sim.lock().now();
    director.set_plan(
        &victims[0],
        FaultPlan::new().crash(now, SimDuration::from_secs(3_600)),
        seed,
    );
    h.sim.lock().run_for(SimDuration::from_secs(2)).unwrap();
    h.select_nodes(&TESTBED_HOSTS, "m-1", 2)
        .unwrap_or_else(|e| panic!("seed {seed:#x}: query died with one agent down: {e}"));
    let g = h
        .adapter
        .remos_mut()
        .run(Query::graph(TESTBED_HOSTS))
        .unwrap()
        .into_graph()
        .unwrap();
    assert!(
        g.links
            .iter()
            .any(|l| l.quality.iter().any(|q| !q.is_fresh())),
        "seed {seed:#x}: dead agent {} left no non-fresh flag",
        victims[0]
    );
}

#[test]
fn chaos_seed_c0ffee() {
    chaos_scenario(0xC0FFEE);
}

#[test]
fn chaos_seed_1998() {
    chaos_scenario(1998);
}

#[test]
fn chaos_seed_42() {
    chaos_scenario(42);
}

/// Poll a fault-wired collector once a second for six seconds over a
/// constant 40 Mbps flow m-1 → m-8 and return the snapshots.
fn polled_run(director: &Arc<FaultDirector>) -> Vec<Snapshot> {
    let sim = share(Simulator::new(cmu_testbed()).unwrap());
    let transport = Arc::new(SimTransport::new());
    let agents = register_all_agents_with_faults(&transport, &sim, "public", director);
    let mut c =
        SnmpCollector::new(Arc::clone(&transport), agents, SnmpCollectorConfig::default());
    c.refresh_topology().unwrap();
    {
        let mut s = sim.lock();
        let topo = s.topology_arc();
        let m1 = topo.lookup("m-1").unwrap();
        let m8 = topo.lookup("m-8").unwrap();
        s.start_flow(FlowParams::cbr(m1, m8, mbps(40.0))).unwrap();
    }
    c.poll().unwrap(); // prime baselines at t = 0
    let mut snaps = Vec::new();
    for _ in 0..6 {
        sim.lock().run_for(SimDuration::from_secs(1)).unwrap();
        assert!(c.poll().unwrap(), "poll produced no sample");
        snaps.push(c.history().latest().unwrap().clone());
    }
    snaps
}

/// A crash mid-run resets the agent's counters; naive differencing
/// across the restart would read as a multi-Gbps spike (the delta looks
/// like a 32-bit wrap). The collector must instead discard the poisoned
/// interval and be back within 5% of the fault-free value on the next
/// clean interval.
#[test]
fn crash_discontinuity_produces_no_spike() {
    let clean = polled_run(&FaultDirector::new());

    let director = FaultDirector::new();
    // aspen (which carries the m-1 → m-8 flow's first hop) crashes at
    // t = 2.5 s and is back at t = 3.5 s: the t = 4 s poll sees the
    // sysUpTime regression and the reset counters.
    director.set_plan(
        "aspen",
        FaultPlan::new().crash(
            SimTime::ZERO + SimDuration::from_millis(2_500),
            SimDuration::from_secs(1),
        ),
        1,
    );
    let faulty = polled_run(&director);
    assert_eq!(clean.len(), faulty.len());

    // No spike, ever: the true rate never exceeds 40 Mbps, so nothing
    // in the faulty run may either (a leaked reset-delta would read as
    // gigabits per second).
    for (i, s) in faulty.iter().enumerate() {
        for &u in s.util.iter() {
            assert!(u <= mbps(42.0), "spike at sample {i}: {u} bps");
        }
    }
    // The faulty run visibly degrades during the outage …
    assert!(
        faulty
            .iter()
            .any(|s| s.quality.iter().any(|q| !q.is_fresh())),
        "crash left no quality flag"
    );
    // … and the next clean interval (t = 5 s, sample index 4) plus the
    // one after match the fault-free run within 5%, fully fresh again.
    for i in [4, 5] {
        assert!(faulty[i].quality.iter().all(|q| q.is_fresh()), "sample {i} not fresh");
        for (f, c) in faulty[i].util.iter().zip(clean[i].util.iter()) {
            let tol = (c * 0.05).max(mbps(0.5));
            assert!((f - c).abs() <= tol, "sample {i}: {f} vs clean {c}");
        }
    }
}

/// Satellite: federation failover. Two regional collectors feed a
/// MultiCollector; one region's agents all die mid-run. Merged samples
/// keep flowing from the survivor, the dead region's data ages from
/// Stale into Missing, and the border link stays fresh because the
/// surviving side still measures it.
#[test]
fn multi_collector_failover() {
    let sim = share(Simulator::new(cmu_testbed()).unwrap());
    let transport = Arc::new(SimTransport::new());
    let director = FaultDirector::new();
    let agents = register_all_agents_with_faults(&transport, &sim, "public", &director);
    let pick = |names: &[&str]| -> Vec<String> {
        agents
            .iter()
            .filter(|a| names.contains(&a.as_str()))
            .cloned()
            .collect()
    };
    let east_names = ["m-4", "m-5", "m-6", "m-7", "m-8", "timberline", "whiteface"];
    let mk = |set: Vec<String>| -> Box<dyn Collector> {
        Box::new(SnmpCollector::new(
            Arc::clone(&transport),
            set,
            SnmpCollectorConfig::default(),
        ))
    };
    let mut multi = MultiCollector::with_config(
        vec![mk(pick(&["m-1", "m-2", "m-3", "aspen"])), mk(pick(&east_names))],
        MultiCollectorConfig { missing_after: SimDuration::from_secs(2), ..Default::default() },
    );
    multi.refresh_topology().unwrap();
    let topo = multi.topology().unwrap();
    assert_eq!(topo.node_count(), 11);

    let west_dirs = dirs_between(&topo, "m-1", "aspen");
    let east_dirs = dirs_between(&topo, "m-4", "timberline");
    let border_dirs = dirs_between(&topo, "aspen", "timberline");

    multi.poll().unwrap(); // prime
    sim.lock().run_for(SimDuration::from_secs(1)).unwrap();
    assert!(multi.poll().unwrap());
    {
        let snap = multi.history().latest().unwrap();
        for d in west_dirs.iter().chain(&east_dirs).chain(&border_dirs) {
            assert!(snap.quality_of(*d).is_fresh(), "not fresh before faults");
        }
    }

    // The entire east region goes dark.
    let now = sim.lock().now();
    for a in east_names {
        director.set_plan(a, FaultPlan::new().crash(now, SimDuration::from_secs(3_600)), 9);
    }

    // Next merged sample still arrives (west answers); east data is now
    // one second old — Stale, not Missing yet.
    sim.lock().run_for(SimDuration::from_secs(1)).unwrap();
    assert!(multi.poll().unwrap(), "federation stopped sampling after one region died");
    {
        let snap = multi.history().latest().unwrap();
        for d in &west_dirs {
            assert!(snap.quality_of(*d).is_fresh(), "survivor region degraded");
        }
        for d in &east_dirs {
            assert!(
                matches!(snap.quality_of(*d), DataQuality::Stale { .. }),
                "dead region should be stale, got {:?}",
                snap.quality_of(*d)
            );
        }
        // The border link is measured from the aspen side too, so the
        // failover keeps it fresh.
        for d in &border_dirs {
            assert!(snap.quality_of(*d).is_fresh(), "border link lost to failover");
        }
    }

    // Three more seconds: the dead region's age exceeds the 2 s budget
    // and its entries decay to Missing; the survivor never wavers.
    for _ in 0..3 {
        sim.lock().run_for(SimDuration::from_secs(1)).unwrap();
        assert!(multi.poll().unwrap());
    }
    let snap = multi.history().latest().unwrap();
    for d in &west_dirs {
        assert!(snap.quality_of(*d).is_fresh(), "survivor region degraded late");
    }
    for d in &east_dirs {
        assert!(
            snap.quality_of(*d).is_missing(),
            "dead region should have aged to missing, got {:?}",
            snap.quality_of(*d)
        );
    }
}

/// Queries keep answering during a partial outage, and every answer
/// derived from the dead agent is flagged: graph links, path quality,
/// and flow-grant estimates.
#[test]
fn queries_survive_partial_outage_with_flags() {
    let sim = share(Simulator::new(cmu_testbed()).unwrap());
    let transport = Arc::new(SimTransport::new());
    let director = FaultDirector::new();
    let agents = register_all_agents_with_faults(&transport, &sim, "public", &director);
    let collector =
        SnmpCollector::new(Arc::clone(&transport), agents, SnmpCollectorConfig::default());
    let mut remos = Remos::new(
        Box::new(collector),
        Box::new(SimClock(Arc::clone(&sim))),
        RemosConfig::default(),
    );

    // Healthy baseline: everything fresh.
    let g = remos.run(Query::graph(TESTBED_HOSTS)).unwrap().into_graph().unwrap();
    assert!(g.links.iter().all(|l| l.quality.iter().all(|q| q.is_fresh())));

    // whiteface dies for good. It serves the outbound counters of its
    // own links, so whiteface → m-8 (among others) loses its source.
    let now = sim.lock().now();
    director.set_plan(
        "whiteface",
        FaultPlan::new().crash(now, SimDuration::from_secs(3_600)),
        7,
    );
    sim.lock().run_for(SimDuration::from_secs(1)).unwrap();

    let g = remos.run(Query::graph(TESTBED_HOSTS)).unwrap().into_graph().unwrap();
    // The query answered, and the dead router's links are flagged …
    assert!(g.links.iter().any(|l| l.quality.iter().any(|q| !q.is_fresh())));
    // … path-granular: aspen's region is untouched, the path into the
    // whiteface region is not.
    let m1 = g.index_of("m-1").unwrap();
    let m2 = g.index_of("m-2").unwrap();
    let m8 = g.index_of("m-8").unwrap();
    assert!(g.path_quality(m1, m2).unwrap().is_fresh());
    assert!(!g.path_quality(m1, m8).unwrap().is_fresh());

    // Flow grants carry the same flag: an estimate across the dead
    // region is marked, one inside the healthy region is not.
    let req = FlowInfoRequest::new()
        .fixed("m-1", "m-2", mbps(5.0))
        .fixed("m-1", "m-8", mbps(5.0));
    let resp = remos.run(Query::flows(req)).unwrap().into_flows().unwrap();
    assert!(resp.fixed[0].estimate_quality.is_fresh());
    assert!(!resp.fixed[1].estimate_quality.is_fresh());
}
