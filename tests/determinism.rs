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
