//! Determinism harness: every paper scenario, run twice with the same
//! seed, must replay the exact same event stream.
//!
//! Each run records a 64-bit FNV-1a digest of every simulator event
//! (flow starts, completions, link state changes — including bit-exact
//! allocated rates) plus the final clock and per-interface octet
//! counters. Two runs of the same scenario disagreeing on a single
//! event order, timestamp, or allocated byte produce different digests.
//!
//! The runtime [`MaxMinAudit`] is switched on for every run, so these
//! tests double as end-to-end checks that the bandwidth allocator never
//! violates feasibility, bottleneck, or conservation invariants during
//! real workloads. See docs/DETERMINISM.md for the reproducibility
//! contract.

use remos::apps::airshed::airshed_program_iters;
use remos::apps::fft::fft_program;
use remos::apps::harness::TestbedHarness;
use remos::apps::synthetic::{install_scenario, TrafficScenario};
use remos::apps::testbed::TESTBED_HOSTS;
use remos::core::collector::snmp::SnmpCollectorConfig;
use remos::net::{SimDuration, SimTime, SolverMode};
use remos::snmp::fault::{FaultDirector, FaultPlan};

/// Digest and audit outcome of one scenario run.
struct RunTrace {
    digest: u64,
    violations: Vec<String>,
}

/// Run `scenario` on a fresh audited harness and capture its trace.
fn trace<F: FnOnce(&mut TestbedHarness)>(
    h: &mut TestbedHarness,
    mode: SolverMode,
    scenario: F,
) -> RunTrace {
    {
        let mut sim = h.sim.lock();
        sim.enable_audit();
        sim.set_solver_mode(mode);
    }
    scenario(h);
    let sim = h.sim.lock();
    RunTrace {
        digest: sim.event_digest(),
        violations: sim.audit_violations().iter().map(|v| v.to_string()).collect(),
    }
}

/// Three executions — incremental twice, full once — must agree
/// bit-for-bit and audit clean. The incremental runs prove replay
/// determinism; the full run proves the scoped solver is equivalent to
/// re-solving everything (under audit, incremental runs additionally
/// shadow-solve every recomputation and report any rate divergence as a
/// violation, so the audit check covers both solvers' invariants).
fn assert_deterministic<F: Fn(&mut TestbedHarness)>(
    name: &str,
    mk: impl Fn() -> TestbedHarness,
    scenario: F,
) {
    let mut first = mk();
    let a = trace(&mut first, SolverMode::Incremental, &scenario);
    let mut second = mk();
    let b = trace(&mut second, SolverMode::Incremental, &scenario);
    let mut full = mk();
    let c = trace(&mut full, SolverMode::Full, &scenario);
    assert!(
        a.violations.is_empty(),
        "{name}: max-min audit violations (incremental): {:?}",
        a.violations
    );
    assert!(
        c.violations.is_empty(),
        "{name}: max-min audit violations (full): {:?}",
        c.violations
    );
    assert_eq!(
        a.digest, b.digest,
        "{name}: two runs with identical seeds diverged"
    );
    assert_eq!(
        a.digest, c.digest,
        "{name}: incremental and full solver modes diverged"
    );
}

#[test]
fn fft_run_is_deterministic() {
    assert_deterministic(
        "fft",
        TestbedHarness::cmu,
        |h| {
            install_scenario(&h.sim, TrafficScenario::Interfering1).unwrap();
            h.sim.lock().run_for(SimDuration::from_secs(1)).unwrap();
            h.run_fixed(&fft_program(512, 4), &["m-4", "m-5", "m-6", "m-7"]).unwrap();
        },
    );
}

#[test]
fn airshed_run_is_deterministic() {
    assert_deterministic(
        "airshed",
        TestbedHarness::cmu,
        |h| {
            install_scenario(&h.sim, TrafficScenario::Interfering2).unwrap();
            h.sim.lock().run_for(SimDuration::from_secs(1)).unwrap();
            h.run_fixed(&airshed_program_iters(4, 6), &["m-4", "m-5", "m-6", "m-7"]).unwrap();
        },
    );
}

#[test]
fn node_selection_is_deterministic() {
    assert_deterministic(
        "selection",
        TestbedHarness::cmu,
        |h| {
            install_scenario(&h.sim, TrafficScenario::Interfering1).unwrap();
            h.sim.lock().run_for(SimDuration::from_secs(1)).unwrap();
            let sel_a = h.select_nodes(&TESTBED_HOSTS, "m-4", 4).unwrap();
            let sel_b = h.select_nodes(&TESTBED_HOSTS, "m-4", 4).unwrap();
            // Selection itself must also be stable within a run (modulo
            // measurement time passing between the two queries).
            assert_eq!(sel_a.len(), sel_b.len());
        },
    );
}

/// Chaos runs: an adaptive program under a seeded fault schedule. The
/// schedule (crash + freeze windows) and all datagram-loss draws derive
/// from the seed, so the whole degraded-mode pipeline must replay.
fn chaos_run(seed: u64) {
    let mk = || {
        let director = FaultDirector::new();
        director.set_plan(
            "m-6",
            FaultPlan::new().crash(
                SimTime::ZERO + SimDuration::from_secs(3),
                SimDuration::from_secs(2),
            ),
            seed,
        );
        director.set_plan(
            "timberline",
            FaultPlan::new()
                .freeze(
                    SimTime::ZERO + SimDuration::from_secs(4),
                    SimTime::ZERO + SimDuration::from_secs(5),
                )
                .flaky(
                    SimTime::ZERO + SimDuration::from_secs(6),
                    SimTime::ZERO + SimDuration::from_secs(7),
                    0.3,
                ),
            seed ^ 1,
        );
        TestbedHarness::cmu_with_faults(&director, SnmpCollectorConfig::default())
    };
    assert_deterministic(
        &format!("chaos seed {seed:#x}"),
        mk,
        |h| {
            install_scenario(&h.sim, TrafficScenario::Interfering1).unwrap();
            h.sim.lock().run_for(SimDuration::from_secs(1)).unwrap();
            h.select_nodes(&TESTBED_HOSTS, "m-4", 2).unwrap();
            let prog = airshed_program_iters(5, 3);
            h.run_adaptive(&prog, &TESTBED_HOSTS, &["m-4", "m-5", "m-6", "m-7", "m-8"])
                .unwrap();
        },
    );
}

/// Query-path caching must not leak into answers: the same query
/// schedule replayed under the cached (default) and cache-disabled
/// modeler configurations must produce bit-identical per-query graph
/// digests — in both solver modes. The schedule mixes
/// repeats (cache hits), a second target set (cache fills), and
/// measurement time passing between rounds.
#[test]
fn plan_cache_configs_agree_in_both_solver_modes() {
    use remos::core::{ModelerConfig, Query, QueryResult, Timeframe};

    let run = |mode: SolverMode, cfg: ModelerConfig| -> Vec<u64> {
        let mut h = TestbedHarness::cmu();
        h.sim.lock().set_solver_mode(mode);
        h.adapter.remos_mut().set_modeler_config(cfg);
        install_scenario(&h.sim, TrafficScenario::Interfering1).unwrap();
        h.sim.lock().run_for(SimDuration::from_secs(1)).unwrap();
        let sets: [&[&str]; 3] =
            [&["m-1", "m-8"], &["m-4", "m-5", "m-6"], &["m-1", "m-8"]];
        let mut digests = Vec::new();
        for _ in 0..4 {
            h.sim.lock().run_for(SimDuration::from_millis(500)).unwrap();
            for set in sets {
                let g = h
                    .adapter
                    .remos_mut()
                    .run(
                        Query::graph(set.iter().copied())
                            .timeframe(Timeframe::Window(SimDuration::from_secs(2))),
                    )
                    .and_then(QueryResult::into_graph)
                    .unwrap();
                digests.push(g.digest());
            }
        }
        digests
    };

    for mode in [SolverMode::Incremental, SolverMode::Full] {
        let cached = run(mode, ModelerConfig::default());
        let uncached = run(
            mode,
            ModelerConfig { plan_cache_capacity: 0, ..ModelerConfig::default() },
        );
        assert_eq!(
            cached, uncached,
            "{mode:?}: cached serving diverged from cold rebuilds"
        );
    }
}

/// `(rates_digest, event_digest)` of the quick-scale fabric churn (k=8
/// fat-tree, 256 persistent flows seeded from `0xFAB51C`, 80% intra-pod,
/// 100 retire-and-admit events). Machine-independent: a change to the
/// fill arithmetic, the event order or an ETA moves it.
const QUICK_FABRIC_DIGESTS: (u64, u64) = (0x0642_9d4e_0cc8_31b9, 0xe7ae_0f3e_985c_159b);

/// At a scale where one component spans most of the fabric, both solver
/// modes answer the recorded digests, not only each other.
#[test]
fn quick_fabric_churn_digests_match_the_golden_in_both_solver_modes() {
    use remos::net::FabricChurn;

    for mode in [SolverMode::Full, SolverMode::Incremental] {
        let mut churn = FabricChurn::new(8, 256, 0xFA_B51C, 80).unwrap();
        churn.sim.set_solver_mode(mode);
        for _ in 0..100 {
            churn.step().unwrap();
        }
        let got = (churn.sim.rates_digest(), churn.sim.event_digest());
        assert_eq!(got, QUICK_FABRIC_DIGESTS, "{mode:?}: got {:#x} {:#x}", got.0, got.1);
    }
}

#[test]
fn chaos_seed_c0ffee_is_deterministic() {
    chaos_run(0xC0FFEE);
}

#[test]
fn chaos_seed_1998_is_deterministic() {
    chaos_run(1998);
}

/// Digest of every field of every grant a staged flow query answered
/// (see `flow_answers_digest`). Machine-independent: a change to the
/// stage order, the sharing arithmetic, the quartile or degrade rules, a
/// path's latency or a grant's provenance moves it.
const FLOW_ANSWERS_DIGEST: u64 = 0x18c0_5c31_28f2_b122;

/// Two fixed, three variable and one independent flow over two capped
/// backplanes (`sw0` at 150 Mb/s, `sw1` at 200 Mb/s, joined by a 100 Mb/s
/// trunk), asked at `Current` and `Window(2 s)` after each of six rounds
/// of background churn, under each sharing policy; every grant's
/// endpoints, bandwidth quartile bits, latency, `fully_satisfied`,
/// quality and provenance folded in answer order.
fn flow_answers_digest() -> u64 {
    use remos::core::collector::oracle::OracleCollector;
    use remos::core::collector::Collector;
    use remos::core::modeler::sharing::SharingPolicy;
    use remos::core::{DataQuality, FlowInfoRequest, Modeler, ModelerConfig, Timeframe};
    use remos::net::flow::FlowParams;
    use remos::net::{mbps, Simulator, TopologyBuilder};
    use remos::obs::Fnv;
    use remos::snmp::sim::share;

    fn text(d: &mut Fnv, s: &str) {
        d.u64(s.len() as u64);
        d.bytes(s.as_bytes());
    }
    fn quality(d: &mut Fnv, q: DataQuality) {
        match q {
            DataQuality::Fresh => d.u64(0),
            DataQuality::Stale { age } => {
                d.u64(1);
                d.u64(age.as_nanos());
            }
            DataQuality::Missing => d.u64(2),
        }
    }

    let req = FlowInfoRequest::new()
        .fixed("a0", "b0", mbps(20.0))
        .fixed("a1", "b1", mbps(30.0))
        .variable("a2", "b2", 3.0)
        .variable("a3", "a1", 4.5)
        .variable("b3", "a0", 9.0)
        .independent("b1", "b2");
    let mut d = Fnv::new();
    for sharing in [SharingPolicy::ExternalPinned, SharingPolicy::ExternalFairShare] {
        let mut b = TopologyBuilder::new();
        let sw = [
            b.network_with_internal_bw("sw0", mbps(150.0)),
            b.network_with_internal_bw("sw1", mbps(200.0)),
        ];
        b.link(sw[0], sw[1], mbps(100.0), SimDuration::from_micros(200)).unwrap();
        let mut hosts = Vec::new();
        for (s, side) in ["a", "b"].into_iter().enumerate() {
            for i in 0..4 {
                let h = b.compute(&format!("{side}{i}"));
                b.link(h, sw[s], mbps(100.0), SimDuration::from_micros(50 + 10 * i)).unwrap();
                hosts.push(h);
            }
        }
        let sim = share(Simulator::new(b.build().unwrap()).unwrap());
        let mut col = OracleCollector::new(std::sync::Arc::clone(&sim));
        let modeler = Modeler::new(ModelerConfig { sharing, ..ModelerConfig::default() });
        let mut lcg = 0x00F1_0A25_u64;
        let mut next = |n: usize| {
            lcg = lcg
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (lcg >> 33) as usize % n
        };
        let mut background = std::collections::VecDeque::new();
        for round in 0..6 {
            {
                let mut s = sim.lock();
                // Churn: retire the oldest background flow once three
                // run, and admit one between random distinct hosts.
                if background.len() == 3 {
                    s.stop_flow(background.pop_front().unwrap()).unwrap();
                }
                let src = hosts[next(hosts.len())];
                let mut dst = hosts[next(hosts.len())];
                while dst == src {
                    dst = hosts[next(hosts.len())];
                }
                let flow = if round % 2 == 0 {
                    FlowParams::greedy(src, dst)
                } else {
                    FlowParams::cbr(src, dst, mbps(10.0 + next(40) as f64))
                };
                background.push_back(s.start_flow(flow).unwrap());
            }
            for _ in 0..2 {
                sim.lock().run_for(SimDuration::from_millis(500)).unwrap();
                col.poll().unwrap();
            }
            for tf in [Timeframe::Current, Timeframe::Window(SimDuration::from_secs(2))] {
                let resp = modeler.flow_info(&col, &req, tf).unwrap();
                assert_eq!(resp.fixed.len(), 2);
                assert_eq!(resp.variable.len(), 3);
                for g in resp.all_grants() {
                    text(&mut d, &g.endpoints.src);
                    text(&mut d, &g.endpoints.dst);
                    let q = &g.bandwidth;
                    for v in [q.min, q.q1, q.median, q.q3, q.max, q.mean, q.accuracy] {
                        d.f64(v);
                    }
                    d.u64(q.samples as u64);
                    d.u64(g.latency.as_nanos());
                    d.u64(u64::from(g.fully_satisfied));
                    quality(&mut d, g.estimate_quality);
                    let p = g.provenance.as_ref().expect("flow grants carry provenance");
                    match p.timeframe {
                        Timeframe::Current => d.u64(0),
                        Timeframe::Window(w) => {
                            d.u64(1);
                            d.u64(w.as_nanos());
                        }
                        Timeframe::Future(f) => {
                            d.u64(2);
                            d.u64(f.as_nanos());
                        }
                    }
                    d.u64(p.snapshots as u64);
                    for t in [p.newest_sample, p.oldest_sample] {
                        d.u64(t.map_or(u64::MAX, SimTime::as_nanos));
                    }
                    quality(&mut d, p.worst_quality);
                    text(&mut d, &p.solver);
                    d.u64(p.scope as u64);
                    d.u64(u64::from(p.degraded));
                    text(&mut d, p.source.as_deref().unwrap_or("-"));
                }
            }
        }
    }
    d.value()
}

/// §4.2's staged answer, pinned bit for bit.
#[test]
fn flow_answers_match_the_golden() {
    let got = flow_answers_digest();
    assert_eq!(got, FLOW_ANSWERS_DIGEST, "got {got:#x}");
}
