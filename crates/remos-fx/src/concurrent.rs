//! Concurrent task execution (Fx task parallelism, §7.1).
//!
//! "The Fx compiler system … supports integrated task and data parallel
//! programming. … The task parallelism support in Fx is used to map the
//! core computation onto an active task." Here several data-parallel
//! tasks run *concurrently* on one network: each task is an event-driven
//! state machine inside the simulator, so co-scheduled tasks contend for
//! links exactly like the paper's "internal sharing … as these
//! connections compete with each other for resources" (§3).
//!
//! Tasks run on fixed mappings (runtime migration stays with the
//! sequential [`crate::runtime::FxRuntime`]); use this executor to study
//! co-application interference and to validate simultaneous flow queries.

use crate::program::{Phase, Program};
use crate::runtime::{FxError, FxResult, Mapping, RuntimeConfig, TimeBreakdown};
use remos_obs::sync::Mutex;
use remos_net::engine::{FlowHandle, ProcessCtx, TrafficProcess};
use remos_net::flow::FlowParams;
use remos_net::topology::NodeId;
use remos_net::{SimDuration, SimTime};
use remos_snmp::sim::SharedSim;
use std::sync::Arc;

/// One task: a program pinned to a mapping, starting at `start`.
#[derive(Clone, Debug)]
pub struct TaskSpec {
    /// The program to run.
    pub program: Program,
    /// Its node set.
    pub mapping: Mapping,
    /// When the task launches.
    pub start: SimTime,
}

/// Outcome of one concurrent task.
#[derive(Clone, Debug)]
pub struct TaskReport {
    /// Program name.
    pub program: String,
    /// Launch time, seconds.
    pub started: f64,
    /// Completion time, seconds.
    pub finished: f64,
    /// Elapsed (finished - started).
    pub elapsed: f64,
    /// Time breakdown (compute/comm/sync).
    pub breakdown: TimeBreakdown,
    /// Application bytes sent.
    pub bytes_sent: u64,
}

/// What the task state machine does next.
enum Step {
    /// Phase list exhausted.
    Done,
    /// Compute (or overhead) for a fixed span.
    Sleep(SimDuration),
    /// Communication transfers to launch.
    Comm(Vec<(usize, usize, u64)>),
}

struct TaskMachine {
    program: Program,
    mapping: Mapping,
    ids: Vec<NodeId>,
    speeds: Vec<f64>,
    cfg: RuntimeConfig,
    /// (iteration, phase-in-body); startup phases use iteration == usize::MAX.
    cursor: (usize, usize),
    in_startup: bool,
    started_at: Option<SimTime>,
    comm_started: Option<SimTime>,
    pending: Vec<FlowHandle>,
    breakdown: TimeBreakdown,
    bytes_sent: u64,
    slot: usize,
    results: Arc<Mutex<Vec<Option<TaskReport>>>>,
}

impl TaskMachine {
    fn phases(&self) -> &[Phase] {
        if self.in_startup {
            &self.program.startup
        } else {
            &self.program.body
        }
    }

    /// Advance the cursor past the phase just finished.
    fn advance(&mut self) {
        self.cursor.1 += 1;
        if self.cursor.1 >= self.phases().len() {
            self.cursor.1 = 0;
            if self.in_startup {
                self.in_startup = false;
                self.cursor.0 = 0;
                if self.program.body.is_empty() || self.program.iterations == 0 {
                    self.cursor.0 = self.program.iterations; // done
                }
            } else {
                self.cursor.0 += 1;
            }
        }
    }

    fn current_step(&self) -> Step {
        if !self.in_startup && self.cursor.0 >= self.program.iterations {
            return Step::Done;
        }
        let Some(phase) = self.phases().get(self.cursor.1) else { return Step::Done };
        match phase {
            Phase::Compute { parallel_flops, replicated_flops } => {
                let ranks = self.program.ranks;
                let worst =
                    self.mapping.compute_span(&self.speeds, ranks, *parallel_flops, *replicated_flops);
                Step::Sleep(SimDuration::from_secs_f64(worst))
            }
            Phase::Comm(pattern) => {
                Step::Comm(self.mapping.node_transfers(pattern, self.program.ranks))
            }
        }
    }

    fn finish(&mut self, now: SimTime) {
        // `finish` only runs after `fire` set `started_at`; if that
        // invariant ever breaks, a zero-length report is still more
        // useful than a panic mid-simulation.
        let started = self.started_at.unwrap_or(now);
        self.results.lock()[self.slot] = Some(TaskReport {
            program: self.program.name.clone(),
            started: started.as_secs_f64(),
            finished: now.as_secs_f64(),
            elapsed: now.since(started).as_secs_f64(),
            breakdown: self.breakdown,
            bytes_sent: self.bytes_sent,
        });
    }
}

impl TrafficProcess for TaskMachine {
    fn fire(&mut self, now: SimTime, ctx: &mut ProcessCtx<'_>) -> Option<SimTime> {
        if self.started_at.is_none() {
            self.started_at = Some(now);
        }
        // A comm phase just completed?
        if let Some(t0) = self.comm_started.take() {
            self.breakdown.comm += now.since(t0).as_secs_f64();
            self.pending.clear();
            self.breakdown.sync += self.cfg.phase_overhead.as_secs_f64();
            self.advance();
            // Pay the barrier overhead as real time before the next phase.
            return Some(now + self.cfg.phase_overhead);
        }
        self.schedule_next(now, ctx)
    }
}

impl TaskMachine {
    fn schedule_next(&mut self, now: SimTime, ctx: &mut ProcessCtx<'_>) -> Option<SimTime> {
        loop {
            match self.current_step() {
                Step::Done => {
                    self.finish(now);
                    return None;
                }
                Step::Sleep(d) => {
                    self.breakdown.compute += d.as_secs_f64();
                    self.breakdown.sync += self.cfg.phase_overhead.as_secs_f64();
                    self.advance();
                    return Some(now + d + self.cfg.phase_overhead);
                }
                Step::Comm(transfers) => {
                    if transfers.is_empty() {
                        // Fully node-local: free.
                        self.advance();
                        continue;
                    }
                    let mut handles = Vec::with_capacity(transfers.len());
                    for (s, d, b) in transfers {
                        self.bytes_sent += b;
                        handles.push(ctx.start_flow(
                            FlowParams::bulk(self.ids[s], self.ids[d], b)
                                .with_tag(self.cfg.flow_tag),
                        ));
                    }
                    self.comm_started = Some(now);
                    self.pending = handles.clone();
                    ctx.notify_when_complete(handles);
                    return None;
                }
            }
        }
    }
}

/// Run several tasks concurrently on the shared simulator. Returns the
/// per-task reports in input order once every task has finished.
pub fn run_concurrent(
    sim: &SharedSim,
    cfg: RuntimeConfig,
    tasks: Vec<TaskSpec>,
) -> FxResult<Vec<TaskReport>> {
    if tasks.is_empty() {
        return Ok(Vec::new());
    }
    let results: Arc<Mutex<Vec<Option<TaskReport>>>> =
        Arc::new(Mutex::new(vec![None; tasks.len()]));
    {
        let mut s = sim.lock();
        let topo = s.topology_arc();
        for (slot, t) in tasks.into_iter().enumerate() {
            if t.mapping.nodes.len() > t.program.ranks {
                return Err(FxError::Invalid(format!(
                    "task {slot}: {} nodes exceed {} ranks",
                    t.mapping.nodes.len(),
                    t.program.ranks
                )));
            }
            let (ids, speeds) = t.mapping.resolve(&topo)?;
            let has_startup = !t.program.startup.is_empty();
            let machine = TaskMachine {
                program: t.program,
                mapping: t.mapping,
                ids,
                speeds,
                cfg,
                cursor: (0, 0),
                in_startup: has_startup,
                started_at: None,
                comm_started: None,
                pending: Vec::new(),
                breakdown: TimeBreakdown::default(),
                bytes_sent: 0,
                slot,
                results: Arc::clone(&results),
            };
            s.add_process(t.start, Box::new(machine));
        }
    }
    // Drive the simulation until every slot reports, with a stall guard.
    let mut stalls = 0;
    loop {
        if results.lock().iter().all(Option::is_some) {
            break;
        }
        let before = sim.lock().now();
        sim.lock().run_for(SimDuration::from_secs(10))?;
        if sim.lock().now() == before {
            stalls += 1;
            if stalls > 3 {
                return Err(FxError::Invalid(
                    "concurrent tasks stalled (deadlocked flows?)".into(),
                ));
            }
        } else {
            stalls = 0;
        }
    }
    // The loop above only exits once every slot is Some, so filter_map
    // takes every report; it just avoids a panic path in library code.
    let mut out = results.lock();
    Ok(out.iter_mut().filter_map(|r| r.take()).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::CommPattern;
    use remos_net::{mbps, Simulator, TopologyBuilder};
    use remos_snmp::sim::share;

    /// 4 hosts on each of two routers joined by a backbone.
    fn testnet() -> SharedSim {
        let mut b = TopologyBuilder::new();
        let rl = b.network("rl");
        let rr = b.network("rr");
        for i in 0..4 {
            let h = b.compute(&format!("l{i}"));
            b.link(h, rl, mbps(100.0), SimDuration::from_micros(10)).unwrap();
        }
        for i in 0..4 {
            let h = b.compute(&format!("r{i}"));
            b.link(h, rr, mbps(100.0), SimDuration::from_micros(10)).unwrap();
        }
        b.link(rl, rr, mbps(100.0), SimDuration::from_micros(10)).unwrap();
        share(Simulator::new(b.build().unwrap()).unwrap())
    }

    fn comm_prog(name: &str, bytes: u64, iters: usize) -> Program {
        Program {
            name: name.into(),
            ranks: 2,
            startup: vec![],
            body: vec![Phase::Comm(CommPattern::AllToAll { bytes_per_pair: bytes })],
            iterations: iters,
        }
    }

    #[test]
    fn single_task_matches_sequential_runtime() {
        // The event-driven machine and the sequential runtime must agree.
        let prog = comm_prog("t", 12_500_000, 3);
        let seq = {
            let sim = testnet();
            let mut rt = crate::runtime::FxRuntime::new(sim, RuntimeConfig::default());
            rt.run(&prog, &Mapping::of(&["l0", "l1"]).unwrap()).unwrap()
        };
        let conc = {
            let sim = testnet();
            run_concurrent(
                &sim,
                RuntimeConfig::default(),
                vec![TaskSpec {
                    program: prog,
                    mapping: Mapping::of(&["l0", "l1"]).unwrap(),
                    start: SimTime::ZERO,
                }],
            )
            .unwrap()
        };
        // The sequential runtime additionally charges per-phase tail
        // propagation latency (~60 µs here), which the event-driven
        // machine does not model; agreement within a few ms is exact
        // otherwise.
        assert!(
            (conc[0].elapsed - seq.elapsed).abs() < 5e-3,
            "{} vs {}",
            conc[0].elapsed,
            seq.elapsed
        );
        assert_eq!(conc[0].bytes_sent, seq.bytes_sent);
        assert!((conc[0].breakdown.comm - seq.breakdown.comm).abs() < 5e-3);
    }

    #[test]
    fn disjoint_tasks_do_not_interfere() {
        let sim = testnet();
        let reports = run_concurrent(
            &sim,
            RuntimeConfig::default(),
            vec![
                TaskSpec {
                    program: comm_prog("a", 12_500_000, 2),
                    mapping: Mapping::of(&["l0", "l1"]).unwrap(),
                    start: SimTime::ZERO,
                },
                TaskSpec {
                    program: comm_prog("b", 12_500_000, 2),
                    mapping: Mapping::of(&["r0", "r1"]).unwrap(),
                    start: SimTime::ZERO,
                },
            ],
        )
        .unwrap();
        // Each all-to-all iteration: 12.5 MB at 100 Mbps = 1 s, x2 iters.
        for r in &reports {
            assert!((r.elapsed - 2.0).abs() < 0.01, "{r:?}");
        }
    }

    #[test]
    fn co_scheduled_tasks_share_the_backbone() {
        let sim = testnet();
        let reports = run_concurrent(
            &sim,
            RuntimeConfig::default(),
            vec![
                TaskSpec {
                    program: comm_prog("a", 12_500_000, 2),
                    mapping: Mapping::of(&["l0", "r0"]).unwrap(),
                    start: SimTime::ZERO,
                },
                TaskSpec {
                    program: comm_prog("b", 12_500_000, 2),
                    mapping: Mapping::of(&["l1", "r1"]).unwrap(),
                    start: SimTime::ZERO,
                },
            ],
        )
        .unwrap();
        // Both cross the backbone: each direction shared 50/50 while both
        // are active => each iteration takes ~2 s, total ~4 s.
        for r in &reports {
            assert!((r.elapsed - 4.0).abs() < 0.05, "{r:?}");
        }
    }

    #[test]
    fn staggered_start_is_honored() {
        let sim = testnet();
        let reports = run_concurrent(
            &sim,
            RuntimeConfig::default(),
            vec![TaskSpec {
                program: comm_prog("late", 12_500_000, 1),
                mapping: Mapping::of(&["l0", "l1"]).unwrap(),
                start: SimTime::from_secs(5),
            }],
        )
        .unwrap();
        assert!((reports[0].started - 5.0).abs() < 1e-9);
        assert!((reports[0].elapsed - 1.0).abs() < 0.01);
    }

    #[test]
    fn compute_and_mixed_phases() {
        let sim = testnet();
        let prog = Program {
            name: "mixed".into(),
            ranks: 2,
            startup: vec![Phase::Compute { parallel_flops: 100e6, replicated_flops: 0.0 }],
            body: vec![
                Phase::Compute { parallel_flops: 100e6, replicated_flops: 0.0 },
                Phase::Comm(CommPattern::AllToAll { bytes_per_pair: 12_500_000 }),
            ],
            iterations: 2,
        };
        let reports = run_concurrent(
            &sim,
            RuntimeConfig::default(),
            vec![TaskSpec {
                program: prog,
                mapping: Mapping::of(&["l0", "l1"]).unwrap(),
                start: SimTime::ZERO,
            }],
        )
        .unwrap();
        let r = &reports[0];
        // startup 1 s + 2 * (1 s compute + 1 s comm) = 5 s (+overheads).
        assert!((r.breakdown.compute - 3.0).abs() < 1e-6, "{r:?}");
        assert!((r.breakdown.comm - 2.0).abs() < 0.01, "{r:?}");
        assert!((r.elapsed - 5.0).abs() < 0.05, "{r:?}");
    }

    mod properties {
        use super::*;
        use remos_prop::prelude::*;

        fn arb_program() -> impl Strategy<Value = Program> {
            let phase = prop_oneof![
                (1.0e6..50.0e6f64).prop_map(|f| Phase::Compute {
                    parallel_flops: f,
                    replicated_flops: 0.0
                }),
                (10_000u64..2_000_000).prop_map(|b| Phase::Comm(CommPattern::AllToAll {
                    bytes_per_pair: b
                })),
                (10_000u64..2_000_000)
                    .prop_map(|b| Phase::Comm(CommPattern::Broadcast { root: 0, bytes: b })),
                (10_000u64..2_000_000)
                    .prop_map(|b| Phase::Comm(CommPattern::Ring { bytes: b })),
            ];
            (
                prop::collection::vec(phase.clone(), 0..2),
                prop::collection::vec(phase, 1..4),
                1usize..4,
                2usize..5,
            )
                .prop_map(|(startup, body, iterations, ranks)| Program {
                    name: "prop".into(),
                    ranks,
                    startup,
                    body,
                    iterations,
                })
        }

        /// The event-driven task machine and the sequential runtime
        /// are two implementations of the same semantics: on any
        /// single program they must agree (up to the sequential
        /// runtime's extra per-phase tail-latency charge).
        fn agrees_with_sequential(prog: &Program) -> Result<(), String> {
            let nodes: Vec<String> = (0..prog.ranks.min(4)).map(|i| format!("l{i}")).collect();
            let refs: Vec<&str> = nodes.iter().map(String::as_str).collect();
            let mapping = Mapping::of(&refs).unwrap();

            let seq = {
                let sim = testnet();
                let mut rt = crate::runtime::FxRuntime::new(sim, RuntimeConfig::default());
                rt.run(prog, &mapping).unwrap()
            };
            let conc = {
                let sim = testnet();
                run_concurrent(
                    &sim,
                    RuntimeConfig::default(),
                    vec![TaskSpec { program: prog.clone(), mapping, start: SimTime::ZERO }],
                )
                .unwrap()
            };
            // Tail-latency differences: at most 40 µs per phase here.
            let phases = (prog.startup.len() + prog.body.len() * prog.iterations) as f64;
            let slack = phases * 60e-6 + 1e-6;
            prop_assert!(
                (conc[0].elapsed - seq.elapsed).abs() <= slack,
                "conc {} vs seq {} (slack {slack})",
                conc[0].elapsed,
                seq.elapsed
            );
            prop_assert_eq!(conc[0].bytes_sent, seq.bytes_sent);
            // The two paths round compute spans to nanoseconds at
            // different points: tolerate a few ns per phase.
            prop_assert!(
                (conc[0].breakdown.compute - seq.breakdown.compute).abs() < phases * 1e-8 + 1e-9
            );
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            #[test]
            fn concurrent_matches_sequential(prog in arb_program()) {
                agrees_with_sequential(&prog)?;
            }
        }

        /// A shrunk input that once failed the property above (recorded
        /// by proptest, formerly `proptest-regressions/concurrent.txt`):
        /// two iterations of one compute phase, no communication, on
        /// three ranks.
        #[test]
        fn regression_compute_only_program_on_three_ranks() {
            let prog = Program {
                name: "prop".into(),
                ranks: 3,
                startup: vec![],
                body: vec![Phase::Compute {
                    parallel_flops: 9474366.37343712,
                    replicated_flops: 0.0,
                }],
                iterations: 2,
            };
            agrees_with_sequential(&prog).unwrap();
        }
    }

    #[test]
    fn empty_and_invalid_inputs() {
        let sim = testnet();
        assert!(run_concurrent(&sim, RuntimeConfig::default(), vec![]).unwrap().is_empty());
        let too_many = TaskSpec {
            program: comm_prog("x", 10, 1), // 2 ranks
            mapping: Mapping::of(&["l0", "l1", "l2"]).unwrap(),
            start: SimTime::ZERO,
        };
        assert!(run_concurrent(&sim, RuntimeConfig::default(), vec![too_many]).is_err());
    }
}
