//! Synchronous execution of data-parallel programs on the simulated
//! network.
//!
//! Each phase is a barrier-synchronized step, as in the paper's programs:
//! compute time is the slowest node's (ranks are distributed cyclically —
//! running a program compiled for 8 ranks on 5 nodes stacks two ranks on
//! some nodes, reproducing the imbalance the paper reports as "the
//! overhead of compiling for 8 nodes and running on 5"); communication
//! phases start real flows in the simulator and finish when the last
//! transfer completes under max-min sharing with any background traffic —
//! which is precisely how "a single busy communication link … degrade\[s\]
//! overall performance dramatically".

use crate::program::{CommPattern, Phase, Program};
use remos_net::flow::{FlowParams, FlowTag};
use remos_net::topology::{NodeId, Topology};
use remos_net::{NetError, SimDuration, SimTime};
use remos_snmp::sim::SharedSim;
use std::collections::HashMap;
use std::fmt;

/// Errors from the runtime.
#[derive(Debug)]
pub enum FxError {
    /// Underlying simulator failure.
    Net(NetError),
    /// Remos/adaptation failure.
    Core(remos_core::RemosError),
    /// Bad mapping or program.
    Invalid(String),
}

impl fmt::Display for FxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FxError::Net(e) => write!(f, "network: {e}"),
            FxError::Core(e) => write!(f, "remos: {e}"),
            FxError::Invalid(m) => write!(f, "invalid: {m}"),
        }
    }
}

impl std::error::Error for FxError {}

impl From<NetError> for FxError {
    fn from(e: NetError) -> Self {
        FxError::Net(e)
    }
}

impl From<remos_core::RemosError> for FxError {
    fn from(e: remos_core::RemosError) -> Self {
        FxError::Core(e)
    }
}

/// Convenience alias.
pub type FxResult<T> = Result<T, FxError>;

/// Assignment of a program's ranks to named nodes (rank `r` runs on
/// `nodes[r % nodes.len()]`, i.e. cyclic distribution).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Mapping {
    /// Active node names, rank-major.
    pub nodes: Vec<String>,
}

impl Mapping {
    /// Build a mapping; node names must be distinct and non-empty.
    pub fn new(nodes: Vec<String>) -> FxResult<Mapping> {
        if nodes.is_empty() {
            return Err(FxError::Invalid("empty mapping".into()));
        }
        let mut sorted = nodes.clone();
        sorted.sort();
        sorted.dedup();
        if sorted.len() != nodes.len() {
            return Err(FxError::Invalid("duplicate node in mapping".into()));
        }
        Ok(Mapping { nodes })
    }

    /// Convenience constructor from string slices.
    pub fn of(nodes: &[&str]) -> FxResult<Mapping> {
        Mapping::new(nodes.iter().map(|s| s.to_string()).collect())
    }

    /// Node index hosting `rank`.
    pub fn node_of_rank(&self, rank: usize) -> usize {
        rank % self.nodes.len()
    }

    /// Ranks hosted by node index `i` for a program of `ranks` ranks.
    pub fn ranks_on_node(&self, i: usize, ranks: usize) -> usize {
        (0..ranks).filter(|&r| self.node_of_rank(r) == i).count()
    }

    /// Each mapped node's id and compute speed (flops/s) on `topo`. Only
    /// a node carrying host resources can run ranks.
    pub(crate) fn resolve(&self, topo: &Topology) -> FxResult<(Vec<NodeId>, Vec<f64>)> {
        let mut ids = Vec::with_capacity(self.nodes.len());
        let mut speeds = Vec::with_capacity(self.nodes.len());
        for n in &self.nodes {
            let id = topo.lookup(n)?;
            let host = topo.node(id).host;
            let host = host.ok_or_else(|| FxError::Invalid(format!("{n} is not a compute host")))?;
            ids.push(id);
            speeds.push(host.compute_flops);
        }
        Ok((ids, speeds))
    }

    /// Seconds a compute phase holds the barrier: the slowest node's
    /// time for the ranks it hosts, at the resolved `speeds`.
    pub(crate) fn compute_span(
        &self,
        speeds: &[f64],
        ranks: usize,
        parallel_flops: f64,
        replicated_flops: f64,
    ) -> f64 {
        let per_rank = parallel_flops / ranks as f64;
        speeds.iter().enumerate().fold(0.0f64, |worst, (i, &speed)| {
            let k = self.ranks_on_node(i, ranks) as f64;
            worst.max(k * (per_rank + replicated_flops) / speed.max(1.0))
        })
    }

    /// Node-pair transfers (src node, dst node, bytes) a comm phase
    /// induces under this mapping, sorted so flows start in a
    /// deterministic order; rank-local transfers are free.
    pub(crate) fn node_transfers(
        &self,
        pattern: &CommPattern,
        ranks: usize,
    ) -> Vec<(usize, usize, u64)> {
        let mut agg: HashMap<(usize, usize), u64> = HashMap::new();
        for (rs, rd, bytes) in pattern.transfers(ranks) {
            let ns = self.node_of_rank(rs);
            let nd = self.node_of_rank(rd);
            if ns != nd {
                *agg.entry((ns, nd)).or_insert(0) += bytes;
            }
        }
        let mut v: Vec<(usize, usize, u64)> =
            agg.into_iter().map(|((s, d), b)| (s, d, b)).collect();
        v.sort_unstable();
        v
    }
}

/// Runtime configuration.
#[derive(Clone, Copy, Debug)]
pub struct RuntimeConfig {
    /// Fixed synchronization overhead added per phase (barrier cost).
    pub phase_overhead: SimDuration,
    /// Fixed cost of remapping the active node set at a migration point
    /// (replicated data: no copying, but the task graph restarts).
    pub migration_cost: SimDuration,
    /// Tag attached to application flows.
    pub flow_tag: FlowTag,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            phase_overhead: SimDuration::from_millis(1),
            // Remapping replicated-data programs is cheap (no copying) —
            // 500 ms covers the barrier + task-graph restart; calibrated
            // so the paper's adaptive-overhead row (941 s vs 862 s over
            // ~100 decisions) is reproduced.
            migration_cost: SimDuration::from_millis(500),
            flow_tag: FlowTag::APP,
        }
    }
}

/// Where the time of a run went.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TimeBreakdown {
    /// Computation (barrier-synchronized max over nodes).
    pub compute: f64,
    /// Communication phases.
    pub comm: f64,
    /// Per-phase synchronization overhead.
    pub sync: f64,
    /// Remos queries + clustering decisions (adaptive runs).
    pub decision: f64,
    /// Remapping costs (adaptive runs).
    pub migration: f64,
}

impl TimeBreakdown {
    /// Sum of the parts.
    pub fn total(&self) -> f64 {
        self.compute + self.comm + self.sync + self.decision + self.migration
    }
}

/// Result of executing a program.
#[derive(Clone, Debug)]
pub struct ExecutionReport {
    /// Program name.
    pub program: String,
    /// Wall-clock (simulated) execution time, seconds.
    pub elapsed: f64,
    /// Where the time went.
    pub breakdown: TimeBreakdown,
    /// Application bytes sent over the network.
    pub bytes_sent: u64,
    /// Migrations performed: (iteration index, new node set).
    pub migrations: Vec<(usize, Vec<String>)>,
    /// The final node set.
    pub final_mapping: Vec<String>,
}

/// The runtime.
pub struct FxRuntime {
    sim: SharedSim,
    /// Configuration.
    pub cfg: RuntimeConfig,
}

impl FxRuntime {
    /// Runtime over the shared simulator.
    pub fn new(sim: SharedSim, cfg: RuntimeConfig) -> FxRuntime {
        FxRuntime { sim, cfg }
    }

    /// Shared simulator handle.
    pub fn sim(&self) -> &SharedSim {
        &self.sim
    }

    /// Execute one phase; returns (elapsed seconds, bytes sent).
    fn run_phase(
        &mut self,
        phase: &Phase,
        ranks: usize,
        mapping: &Mapping,
        ids: &[NodeId],
        speeds: &[f64],
        breakdown: &mut TimeBreakdown,
    ) -> FxResult<u64> {
        match phase {
            Phase::Compute { parallel_flops, replicated_flops } => {
                // Barrier semantics: the slowest node gates the phase.
                let worst =
                    mapping.compute_span(speeds, ranks, *parallel_flops, *replicated_flops);
                let d = SimDuration::from_secs_f64(worst);
                self.sim.lock().run_for(d)?;
                breakdown.compute += worst;
                Ok(0)
            }
            Phase::Comm(pattern) => {
                let transfers = mapping.node_transfers(pattern, ranks);
                if transfers.is_empty() {
                    return Ok(0);
                }
                let mut bytes = 0;
                let (t0, records, tail_latency) = {
                    let mut sim = self.sim.lock();
                    let t0 = sim.now();
                    let mut handles = Vec::with_capacity(transfers.len());
                    let mut tail_latency = SimDuration::ZERO;
                    for &(s, d, b) in &transfers {
                        bytes += b;
                        let path = sim.routing().path(sim.topology(), ids[s], ids[d])?;
                        tail_latency = tail_latency.max(path.latency(sim.topology()));
                        let h = sim.start_flow(
                            FlowParams::bulk(ids[s], ids[d], b).with_tag(self.cfg.flow_tag),
                        )?;
                        handles.push(h);
                    }
                    let records = sim.run_until_flows_complete(&handles)?;
                    (t0, records, tail_latency)
                };
                // The last bytes still propagate down the longest path
                // before the barrier releases.
                self.sim.lock().run_for(tail_latency)?;
                let t1 = records
                    .iter()
                    .map(|r| r.finished)
                    .max()
                    .unwrap_or(t0)
                    + tail_latency;
                breakdown.comm += t1.since(t0).as_secs_f64();
                Ok(bytes)
            }
        }
    }

    fn pay_overhead(&mut self, breakdown: &mut TimeBreakdown) -> FxResult<()> {
        self.sim.lock().run_for(self.cfg.phase_overhead)?;
        breakdown.sync += self.cfg.phase_overhead.as_secs_f64();
        Ok(())
    }

    /// Execute `prog` on a fixed mapping.
    pub fn run(&mut self, prog: &Program, mapping: &Mapping) -> FxResult<ExecutionReport> {
        self.run_with_hook(prog, mapping.clone(), |_, _, _| Ok(None))
    }

    /// Execute with a migration hook called at every iteration boundary:
    /// `hook(iteration, current mapping, last iteration secs)` may return
    /// a new mapping. The hook's own Remos queries advance simulated time;
    /// that time is accounted as `decision`.
    pub fn run_with_hook(
        &mut self,
        prog: &Program,
        mut mapping: Mapping,
        mut hook: impl FnMut(usize, &Mapping, f64) -> FxResult<Option<Mapping>>,
    ) -> FxResult<ExecutionReport> {
        if prog.ranks == 0 {
            return Err(FxError::Invalid("program has zero ranks".into()));
        }
        if mapping.nodes.len() > prog.ranks {
            return Err(FxError::Invalid(format!(
                "{} nodes exceed {} ranks",
                mapping.nodes.len(),
                prog.ranks
            )));
        }
        let (mut ids, mut speeds) = mapping.resolve(self.sim.lock().topology())?;
        let start = self.now();
        let mut breakdown = TimeBreakdown::default();
        let mut bytes_sent = 0u64;
        let mut migrations = Vec::new();

        for ph in &prog.startup {
            bytes_sent += self.run_phase(ph, prog.ranks, &mapping, &ids, &speeds, &mut breakdown)?;
            self.pay_overhead(&mut breakdown)?;
        }
        let mut last_iter_secs = 0.0;
        for it in 0..prog.iterations {
            // Migration point: all communication has completed.
            let t_dec0 = self.now();
            if let Some(new_mapping) = hook(it, &mapping, last_iter_secs)? {
                let t_dec1 = self.now();
                breakdown.decision += t_dec1.since(t_dec0).as_secs_f64();
                if new_mapping != mapping {
                    mapping = new_mapping;
                    let (i, s) = mapping.resolve(self.sim.lock().topology())?;
                    ids = i;
                    speeds = s;
                    self.sim.lock().run_for(self.cfg.migration_cost)?;
                    breakdown.migration += self.cfg.migration_cost.as_secs_f64();
                    migrations.push((it, mapping.nodes.clone()));
                }
            } else {
                let t_dec1 = self.now();
                breakdown.decision += t_dec1.since(t_dec0).as_secs_f64();
            }
            let t_it0 = self.now();
            // Execute the body; a mid-iteration route loss (link failure)
            // triggers one emergency adaptation and an iteration restart —
            // replicated data makes the restart legal (the paper's
            // migration-legality rule), though the partial work is lost.
            let mut emergency_retries = 0;
            'body: loop {
                let result: FxResult<u64> = (|| {
                    let mut sent = 0;
                    for ph in &prog.body {
                        sent += self
                            .run_phase(ph, prog.ranks, &mapping, &ids, &speeds, &mut breakdown)?;
                        self.pay_overhead(&mut breakdown)?;
                    }
                    Ok(sent)
                })();
                match result {
                    Ok(sent) => {
                        bytes_sent += sent;
                        break 'body;
                    }
                    Err(FxError::Net(NetError::NoRoute { .. })) if emergency_retries < 2 => {
                        emergency_retries += 1;
                        let Some(new_mapping) = hook(it, &mapping, last_iter_secs)? else {
                            return Err(FxError::Invalid(
                                "route lost mid-iteration and the adaptation hook offered no \
                                 alternative mapping"
                                    .into(),
                            ));
                        };
                        mapping = new_mapping;
                        let (i, s) = mapping.resolve(self.sim.lock().topology())?;
                        ids = i;
                        speeds = s;
                        self.sim.lock().run_for(self.cfg.migration_cost)?;
                        breakdown.migration += self.cfg.migration_cost.as_secs_f64();
                        migrations.push((it, mapping.nodes.clone()));
                    }
                    Err(e) => return Err(e),
                }
            }
            last_iter_secs = self.now().since(t_it0).as_secs_f64();
        }
        let elapsed = self.now().since(start).as_secs_f64();
        Ok(ExecutionReport {
            program: prog.name.clone(),
            elapsed,
            breakdown,
            bytes_sent,
            migrations,
            final_mapping: mapping.nodes,
        })
    }

    fn now(&self) -> SimTime {
        self.sim.lock().now()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::CommPattern;
    use remos_net::{mbps, Simulator, TopologyBuilder};
    use remos_snmp::sim::share;

    /// 4 hosts on one router, 100 Mbps.
    fn testnet() -> SharedSim {
        let mut b = TopologyBuilder::new();
        let r = b.network("sw");
        for i in 1..=4 {
            let h = b.compute(&format!("h{i}"));
            b.link(h, r, mbps(100.0), SimDuration::from_micros(50)).unwrap();
        }
        share(Simulator::new(b.build().unwrap()).unwrap())
    }

    fn compute_prog(iters: usize) -> Program {
        Program {
            name: "compute".into(),
            ranks: 2,
            startup: vec![],
            body: vec![Phase::Compute { parallel_flops: 100e6, replicated_flops: 0.0 }],
            iterations: iters,
        }
    }

    #[test]
    fn compute_phase_timing() {
        let sim = testnet();
        let mut rt = FxRuntime::new(sim, RuntimeConfig::default());
        let prog = compute_prog(1);
        let m = Mapping::of(&["h1", "h2"]).unwrap();
        let rep = rt.run(&prog, &m).unwrap();
        // 100 Mflops split over 2 nodes at 50 Mflops/s each = 1 s.
        assert!((rep.breakdown.compute - 1.0).abs() < 1e-6, "{:?}", rep.breakdown);
        assert_eq!(rep.bytes_sent, 0);
        assert!(rep.migrations.is_empty());
    }

    #[test]
    fn comm_phase_timing() {
        let sim = testnet();
        let mut rt = FxRuntime::new(sim, RuntimeConfig::default());
        let prog = Program {
            name: "x".into(),
            ranks: 2,
            startup: vec![],
            body: vec![Phase::Comm(CommPattern::AllToAll { bytes_per_pair: 12_500_000 })],
            iterations: 1,
        };
        let m = Mapping::of(&["h1", "h2"]).unwrap();
        let rep = rt.run(&prog, &m).unwrap();
        // 12.5 MB each way simultaneously over full-duplex 100 Mbps = 1 s.
        assert!((rep.breakdown.comm - 1.0).abs() < 1e-3, "{:?}", rep.breakdown);
        assert_eq!(rep.bytes_sent, 25_000_000);
    }

    #[test]
    fn comm_slows_under_background_traffic() {
        let sim = testnet();
        {
            let mut s = sim.lock();
            let topo = s.topology_arc();
            let h1 = topo.lookup("h1").unwrap();
            let h3 = topo.lookup("h3").unwrap();
            // One greedy background flow shares h1's uplink.
            s.start_flow(FlowParams::greedy(h1, h3)).unwrap();
        }
        let mut rt = FxRuntime::new(sim, RuntimeConfig::default());
        let prog = Program {
            name: "x".into(),
            ranks: 2,
            startup: vec![],
            body: vec![Phase::Comm(CommPattern::AllToAll { bytes_per_pair: 12_500_000 })],
            iterations: 1,
        };
        let m = Mapping::of(&["h1", "h2"]).unwrap();
        let rep = rt.run(&prog, &m).unwrap();
        // h1 -> h2 now gets 50 Mbps: that direction takes 2 s.
        assert!((rep.breakdown.comm - 2.0).abs() < 1e-2, "{:?}", rep.breakdown);
    }

    #[test]
    fn rank_stacking_imbalance() {
        let sim = testnet();
        let mut rt = FxRuntime::new(sim, RuntimeConfig::default());
        // Compiled for 4 ranks, run on 3 nodes: one node carries 2 ranks.
        let prog = Program {
            name: "x".into(),
            ranks: 4,
            startup: vec![],
            body: vec![Phase::Compute { parallel_flops: 200e6, replicated_flops: 0.0 }],
            iterations: 1,
        };
        let m3 = Mapping::of(&["h1", "h2", "h3"]).unwrap();
        let rep3 = rt.run(&prog, &m3).unwrap();
        // Per rank: 50 Mflops = 1 s; stacked node: 2 s.
        assert!((rep3.breakdown.compute - 2.0).abs() < 1e-6);
        let m4 = Mapping::of(&["h1", "h2", "h3", "h4"]).unwrap();
        let rep4 = rt.run(&prog, &m4).unwrap();
        assert!((rep4.breakdown.compute - 1.0).abs() < 1e-6);
    }

    #[test]
    fn local_transfers_are_free() {
        let sim = testnet();
        let mut rt = FxRuntime::new(sim, RuntimeConfig::default());
        // 2 ranks on ONE node: all-to-all is entirely node-local.
        let prog = Program {
            name: "x".into(),
            ranks: 2,
            startup: vec![],
            body: vec![Phase::Comm(CommPattern::AllToAll { bytes_per_pair: 1_000_000 })],
            iterations: 1,
        };
        let m = Mapping::of(&["h1"]).unwrap();
        let rep = rt.run(&prog, &m).unwrap();
        assert_eq!(rep.bytes_sent, 0);
        assert!(rep.breakdown.comm < 1e-9);
    }

    #[test]
    fn hook_driven_migration() {
        let sim = testnet();
        let cfg = RuntimeConfig {
            migration_cost: SimDuration::from_secs(3),
            ..RuntimeConfig::default()
        };
        let mut rt = FxRuntime::new(sim, cfg);
        let prog = compute_prog(3);
        let m = Mapping::of(&["h1", "h2"]).unwrap();
        let rep = rt
            .run_with_hook(&prog, m, |it, _cur, _last| {
                if it == 1 {
                    Ok(Some(Mapping::of(&["h3", "h4"]).unwrap()))
                } else {
                    Ok(None)
                }
            })
            .unwrap();
        assert_eq!(rep.migrations.len(), 1);
        assert_eq!(rep.migrations[0].0, 1);
        assert_eq!(rep.final_mapping, vec!["h3", "h4"]);
        assert!((rep.breakdown.migration - 3.0).abs() < 1e-9);
    }

    #[test]
    fn broadcast_gather_and_ring_patterns() {
        let sim = testnet();
        let mut rt = FxRuntime::new(sim, RuntimeConfig::default());
        let m = Mapping::of(&["h1", "h2", "h3", "h4"]).unwrap();
        let run = |rt: &mut FxRuntime, pattern: CommPattern| {
            let prog = Program {
                name: "p".into(),
                ranks: 4,
                startup: vec![],
                body: vec![Phase::Comm(pattern)],
                iterations: 1,
            };
            rt.run(&prog, &m).unwrap()
        };
        // Broadcast: root's uplink carries 3 x 12.5 MB = 3 s at 100 Mbps.
        let b = run(&mut rt, CommPattern::Broadcast { root: 0, bytes: 12_500_000 });
        assert!((b.breakdown.comm - 3.0).abs() < 1e-2, "{:?}", b.breakdown);
        // Gather: root's downlink carries 3 x 12.5 MB = 3 s.
        let g = run(&mut rt, CommPattern::Gather { root: 0, bytes: 12_500_000 });
        assert!((g.breakdown.comm - 3.0).abs() < 1e-2, "{:?}", g.breakdown);
        // Ring: disjoint hops, all concurrent: 1 s.
        let r = run(&mut rt, CommPattern::Ring { bytes: 12_500_000 });
        assert!((r.breakdown.comm - 1.0).abs() < 1e-2, "{:?}", r.breakdown);
    }

    #[test]
    fn runs_are_deterministic() {
        let run = || {
            let sim = testnet();
            let mut rt = FxRuntime::new(sim, RuntimeConfig::default());
            let prog = Program {
                name: "d".into(),
                ranks: 3,
                startup: vec![Phase::Comm(CommPattern::Broadcast { root: 0, bytes: 100_000 })],
                body: vec![
                    Phase::Compute { parallel_flops: 30e6, replicated_flops: 5e6 },
                    Phase::Comm(CommPattern::AllToAll { bytes_per_pair: 777_777 }),
                ],
                iterations: 7,
            };
            let m = Mapping::of(&["h1", "h2", "h3"]).unwrap();
            rt.run(&prog, &m).unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.elapsed, b.elapsed);
        assert_eq!(a.bytes_sent, b.bytes_sent);
        assert_eq!(a.breakdown, b.breakdown);
    }

    #[test]
    fn invalid_mappings_rejected() {
        assert!(Mapping::of(&[]).is_err());
        assert!(Mapping::of(&["a", "a"]).is_err());
        let sim = testnet();
        let mut rt = FxRuntime::new(sim, RuntimeConfig::default());
        let prog = compute_prog(1); // 2 ranks
        let m = Mapping::of(&["h1", "h2", "h3"]).unwrap();
        assert!(matches!(rt.run(&prog, &m), Err(FxError::Invalid(_))));
        let m2 = Mapping::of(&["h1", "nope"]).unwrap();
        assert!(matches!(rt.run(&prog, &m2), Err(FxError::Net(_))));
        // A switch has no compute resources, in either executor.
        let m3 = Mapping::of(&["h1", "sw"]).unwrap();
        assert!(matches!(rt.run(&prog, &m3), Err(FxError::Invalid(m)) if m.contains("sw")));
        let task = crate::TaskSpec { program: prog, mapping: m3, start: SimTime::ZERO };
        let concurrent = crate::run_concurrent(rt.sim(), RuntimeConfig::default(), vec![task]);
        assert!(matches!(concurrent, Err(FxError::Invalid(m)) if m.contains("sw")));
    }

    #[test]
    fn phase_overhead_accounted() {
        let sim = testnet();
        let cfg = RuntimeConfig {
            phase_overhead: SimDuration::from_millis(100),
            ..RuntimeConfig::default()
        };
        let mut rt = FxRuntime::new(sim, cfg);
        let prog = compute_prog(5);
        let m = Mapping::of(&["h1", "h2"]).unwrap();
        let rep = rt.run(&prog, &m).unwrap();
        assert!((rep.breakdown.sync - 0.5).abs() < 1e-9);
        assert!((rep.elapsed - rep.breakdown.total()).abs() < 1e-6);
    }
}
