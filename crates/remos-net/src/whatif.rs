//! Batch what-if engine: fluid max-min flow-completion-time estimation.
//!
//! The query side of the stack answers "what is the network doing now?";
//! this module answers the admission/placement question network-aware
//! applications ask before acting: *what would happen if I launched these
//! flows?* Given hypothetical flows `(size_bytes, arrival, src, dst)`,
//! [`WhatIfEngine::estimate`] replays a fluid max-min schedule against a
//! frozen topology snapshot — a discrete event loop over arrivals and
//! completions on its own instance of the simulator's fluid core
//! (`fluid.rs`: flow table, solve, lazy progress, completion heap), never
//! touching live engine state. The kernel's core is the unmetered flavour,
//! `Core<false>`: an estimate reads no interface counter, so it keeps none.
//!
//! A kernel is built once per snapshot and reused: the modeler keeps one in
//! each query workspace and reuses it for as long as the plan's topology
//! and routing table are the very ones it holds
//! ([`WhatIfEngine::serves`]), so a warm answer pays for its replay and
//! its report, not for the kernel's arenas.
//!
//! The replay is **bit-identical** to running the same flow set through a
//! [`Simulator`] (the ground truth [`replay_ground_truth`] builds) because
//! both run the same core code in the same order: flows started in
//! `(arrival, input index)` order take ascending ids, every solve goes in
//! id order, and progress is folded only where a rate changes, which both
//! do at the same instants. What the kernel *adds* is only the arrival
//! list, the background subtraction and the horizon; what it *omits* is
//! everything an estimate does not need — SNMP-visible state, traffic
//! processes, link schedules, completion watches, the audit — which is
//! where its speedup over the ground-truth replay comes from. The
//! [`fct_digest`](WhatIfReport::fct_digest) (FNV-1a over per-flow
//! start/finish nanos in input order) is the machine-independent proof,
//! asserted by the `whatif_equivalence` tests against the audited
//! simulator.

use crate::digest::EventDigest;
use crate::engine::{resources_into, ProcessCtx, Simulator, SolverMode, TrafficProcess};
use crate::error::{NetError, Result};
use crate::flow::FlowParams;
use crate::fluid::Core;
use crate::routing::{Path, Routing};
use crate::time::{SimDuration, SimTime};
use crate::topology::{NodeId, Topology};
use crate::units::Bps;
use std::sync::Arc;

/// One hypothetical flow: a bulk transfer of `size_bytes` from `src` to
/// `dst`, arriving at `arrival`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WhatIfFlow {
    /// Sending host (must be a compute node).
    pub src: NodeId,
    /// Receiving host (must be a compute node, distinct from `src`).
    pub dst: NodeId,
    /// Transfer volume in bytes.
    pub size_bytes: u64,
    /// Arrival instant on the replay clock.
    pub arrival: SimTime,
}

/// Estimated fate of one hypothetical flow.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FlowEstimate {
    /// When the flow started (its arrival instant).
    pub started: SimTime,
    /// When it finished — or the horizon, if it was cut off.
    pub finished: SimTime,
    /// False when the replay horizon expired before completion.
    pub completed: bool,
    /// FCT divided by the ideal FCT (the transfer alone on its path,
    /// running at the path's bottleneck capacity). `1.0` means the flow
    /// never shared its bottleneck.
    pub slowdown: f64,
    /// Resource index (directed interface, or a capped backplane past the
    /// dir-link prefix) with the least effective capacity on the path.
    pub bottleneck: usize,
    /// Effective capacity of that bottleneck resource, bits/s.
    pub bottleneck_capacity: Bps,
}

impl FlowEstimate {
    /// Flow completion time.
    pub fn fct(&self) -> SimDuration {
        self.finished.saturating_since(self.started)
    }
}

/// The estimate of a `size_bytes` transfer that ran from `started` to
/// `finished`, `completed` or cut off, with `(bottleneck, capacity)` the
/// least effective capacity on its path. The kernel and the ground truth
/// both report through here.
fn estimate_of(
    size_bytes: u64,
    (started, finished, completed): (SimTime, SimTime, bool),
    (bottleneck, bottleneck_capacity): (usize, Bps),
) -> FlowEstimate {
    let ideal_secs = if bottleneck_capacity > 0.0 {
        size_bytes as f64 * 8.0 / bottleneck_capacity
    } else {
        f64::INFINITY
    };
    let slowdown = if !completed {
        f64::INFINITY
    } else if ideal_secs > 0.0 {
        finished.saturating_since(started).as_secs_f64() / ideal_secs
    } else {
        1.0
    };
    FlowEstimate { started, finished, completed, slowdown, bottleneck, bottleneck_capacity }
}

/// The answer to a what-if batch: per-flow estimates in **input order**
/// plus replay statistics and the determinism digest.
#[derive(Clone, Debug)]
pub struct WhatIfReport {
    /// One estimate per input flow, in input order.
    pub estimates: Vec<FlowEstimate>,
    /// FNV-1a digest over `(index, src, dst, size, started, finished,
    /// completed)` per flow in input order. Two replays of the same flow
    /// set over the same snapshot must agree bit-for-bit — including the
    /// audited ground-truth [`Simulator`] replay, and the kernel in either
    /// [`SolverMode`].
    pub fct_digest: u64,
    /// Discrete event-loop iterations the replay took.
    pub replay_steps: u64,
    /// Rate recomputations (scoped or full) the replay performed.
    pub solves: u64,
}

/// Resource-vector layout of the simulator and the kernel: the dir-link
/// prefix (indexed by `DirLink::index`), then one entry per capped
/// backplane in node-id order. Indices never move, so dirty tracking can
/// key on them. `backplane[node]` maps to the resource index or
/// `usize::MAX`.
pub(crate) fn resource_layout(topo: &Topology) -> (Vec<f64>, Vec<usize>) {
    let mut capacities = topo.dir_link_capacities();
    let mut backplane = vec![usize::MAX; topo.node_count()];
    for (n, bw) in topo.capped_network_nodes() {
        backplane[n.index()] = capacities.len();
        capacities.push(bw);
    }
    (capacities, backplane)
}

/// The reusable what-if replay kernel over one frozen topology snapshot.
///
/// Construction routes nothing; paths are resolved per flow from the
/// shared [`Routing`] (typically the modeler's per-epoch table), which
/// fills a source's row the first time a flow starts there. All per-run
/// state lives in arenas that are reused across
/// [`estimate`](WhatIfEngine::estimate) calls, so a caller that keeps the
/// kernel — the modeler keeps one per query workspace, for as long as it
/// [`serves`](WhatIfEngine::serves) the plan — pays the allocation cost
/// once.
pub struct WhatIfEngine {
    topo: Arc<Topology>,
    routing: Arc<Routing>,
    /// Raw snapshot capacities (dir-links + capped backplanes).
    base_capacities: Vec<f64>,
    backplane: Vec<usize>,
    /// Flow table, solve and completion heap over the run's effective
    /// capacities (base minus background); a flow's slot is its input
    /// index, its id its replay rank. It keeps no octet counters.
    core: Core<false>,
    // --- per-run arenas, reused across estimates ---
    path: Path,
    /// Input indices sorted by `(arrival, input index)` — the replay id
    /// assignment order.
    sorted: Vec<u32>,
}

impl WhatIfEngine {
    /// Build a kernel over a topology snapshot and a routing table for it.
    pub fn new(topo: Arc<Topology>, routing: Arc<Routing>) -> WhatIfEngine {
        let (capacities, backplane) = resource_layout(&topo);
        WhatIfEngine {
            topo,
            routing,
            base_capacities: capacities.clone(),
            backplane,
            core: Core::new(capacities),
            path: Path { src: NodeId(0), dst: NodeId(0), hops: Vec::new(), nodes: Vec::new() },
            sorted: Vec::new(),
        }
    }

    /// Build a kernel from a bare topology, routing it internally.
    pub fn from_topology(topo: Topology) -> WhatIfEngine {
        let routing = Routing::new(&topo);
        WhatIfEngine::new(Arc::new(topo), Arc::new(routing))
    }

    /// Select the rate-recomputation strategy (both are bit-identical;
    /// `Incremental` is the fast path).
    pub fn set_mode(&mut self, mode: SolverMode) {
        self.core.set_mode(mode);
    }

    /// The active rate-recomputation strategy.
    pub fn mode(&self) -> SolverMode {
        self.core.mode()
    }

    /// The frozen topology the kernel replays against.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Whether this kernel replays over exactly `topo` and `routing`: the
    /// same allocations, not equal contents. The kernel holds both `Arc`s,
    /// so neither address can be reused by another snapshot while it
    /// lives, and a `true` answer can never come from a freed one.
    pub fn serves(&self, topo: &Arc<Topology>, routing: &Arc<Routing>) -> bool {
        Arc::ptr_eq(&self.topo, topo) && Arc::ptr_eq(&self.routing, routing)
    }

    /// Flows the last estimate's sweeps froze, summed over its solves
    /// (`Full` mode re-solves every live flow and counts none).
    pub fn flows_resolved(&self) -> u64 {
        self.core.resolved()
    }

    /// Estimate completion times for a batch of hypothetical flows on the
    /// idle snapshot (no background load, no horizon).
    pub fn estimate(&mut self, flows: &[WhatIfFlow]) -> Result<WhatIfReport> {
        self.estimate_with(flows, None, None)
    }

    /// Reset the core to the effective capacities under `background`, then
    /// validate and route every flow into its slot and return each one's
    /// bottleneck `(resource, capacity)`. The ground truth routes through
    /// here too, so both sides reject the same inputs and report the same
    /// ideals.
    fn route(&mut self, flows: &[WhatIfFlow], background: Option<&[Bps]>) -> Result<Vec<(usize, Bps)>> {
        assert!(flows.len() <= u32::MAX as usize, "what-if batch too large");
        self.core.clear();
        let n_dir = self.topo.dir_link_count();
        let capacities = self.core.capacities_mut();
        capacities.copy_from_slice(&self.base_capacities);
        if let Some(util) = background {
            for (i, c) in capacities.iter_mut().enumerate().take(n_dir) {
                *c = (*c - util.get(i).copied().unwrap_or(0.0)).max(0.0);
            }
        }
        let mut bottleneck = Vec::with_capacity(flows.len());
        for (i, w) in flows.iter().enumerate() {
            if w.src == w.dst {
                return Err(NetError::Invalid(format!("what-if flow {i}: src == dst")));
            }
            self.routing.path_into(&self.topo, w.src, w.dst, &mut self.path)?;
            resources_into(&self.backplane, &self.path, self.core.resources_mut(i as u32));
            let capacities = self.core.capacities();
            let least = |bn: (usize, Bps), &r: &usize| if capacities[r] < bn.1 { (r, capacities[r]) } else { bn };
            bottleneck.push(self.core.resources(i as u32).iter().fold((usize::MAX, f64::INFINITY), least));
        }
        Ok(bottleneck)
    }

    /// Estimate with options: `background` is per-directed-interface
    /// utilization (bits/s, indexed by `DirLink::index`) subtracted from
    /// the snapshot's link capacities (clamped at zero); `horizon` cuts
    /// the replay off at an absolute instant, reporting still-running
    /// flows with `completed = false`.
    ///
    /// Errors on an unroutable or degenerate flow, and with
    /// [`NetError::Stalled`] when zero-capacity resources starve a flow
    /// forever and no horizon bounds the replay.
    pub fn estimate_with(
        &mut self,
        flows: &[WhatIfFlow],
        background: Option<&[Bps]>,
        horizon: Option<SimTime>,
    ) -> Result<WhatIfReport> {
        let bottleneck = self.route(flows, background)?;
        // Replay ids follow (arrival, input index) order — exactly the
        // order a ground-truth arrival process starts them in. The keys
        // are distinct, so the unstable sort (no scratch buffer) agrees.
        self.sorted.clear();
        self.sorted.extend(0..flows.len() as u32);
        self.sorted.sort_unstable_by_key(|&i| (flows[i as usize].arrival, i));
        let arrival = |next: usize| self.sorted.get(next).map(|&i| flows[i as usize].arrival);

        let mut finished: Vec<(SimTime, bool)> = vec![(SimTime::MAX, false); flows.len()];
        let mut now = SimTime::ZERO;
        let mut next = 0usize;
        let (mut replay_steps, mut solves) = (0u64, 0u64);
        loop {
            // Start every arrival due at `now`, in replay-id order.
            while arrival(next).is_some_and(|t| t <= now) {
                let input = self.sorted[next];
                let size = flows[input as usize].size_bytes as f64;
                self.core.start(next as u64, input, 1.0, None, size, now);
                next += 1;
            }
            if self.core.order().is_empty() && next == flows.len() {
                break;
            }
            if horizon.is_some_and(|h| now >= h) {
                break;
            }
            if !self.core.is_settled() {
                solves += 1;
                self.core.recompute(now);
            }
            let mut t_next = self.core.next_completion().min(arrival(next).unwrap_or(SimTime::MAX));
            if let Some(h) = horizon {
                t_next = t_next.min(h);
            }
            if t_next == SimTime::MAX {
                return Err(NetError::Stalled);
            }
            now = t_next;
            while let Some(id) = self.core.pop_due(now) {
                if let Some(input) = self.core.retire(id, now) {
                    finished[input as usize] = (now, true);
                }
            }
            replay_steps += 1;
        }

        // Horizon leftovers: running flows are cut off now, and flows that
        // never arrived at their arrival.
        for &(_, input) in self.core.order() {
            finished[input as usize] = (now, false);
        }
        for &input in &self.sorted[next..] {
            finished[input as usize] = (flows[input as usize].arrival, false);
        }
        let estimates: Vec<FlowEstimate> = flows
            .iter()
            .zip(&finished)
            .zip(&bottleneck)
            .map(|((w, &(finish, completed)), &bn)| {
                estimate_of(w.size_bytes, (w.arrival.min(finish), finish, completed), bn)
            })
            .collect();
        let fct_digest = fct_digest(flows, &estimates);
        Ok(WhatIfReport { estimates, fct_digest, replay_steps, solves })
    }
}

/// FNV-1a digest over per-flow outcomes in input order. Both the what-if
/// kernel and the ground-truth replay fold through this one function, so
/// digest equality means every start/finish nanosecond matches.
pub fn fct_digest(flows: &[WhatIfFlow], estimates: &[FlowEstimate]) -> u64 {
    let mut d = EventDigest::new();
    for (i, (w, e)) in flows.iter().zip(estimates.iter()).enumerate() {
        d.write_u64(i as u64);
        d.write_u64(u64::from(w.src.0));
        d.write_u64(u64::from(w.dst.0));
        d.write_u64(w.size_bytes);
        d.write_u64(e.started.as_nanos());
        d.write_u64(e.finished.as_nanos());
        d.write_u64(u64::from(e.completed));
    }
    d.value()
}

/// The arrival schedule as a [`TrafficProcess`]: starts each bulk flow at
/// its arrival instant, in `(arrival, input index)` order — the same
/// order the what-if kernel assigns replay ids in.
struct ArrivalProcess {
    /// `(arrival, params)` sorted by arrival (stable in input order).
    entries: Vec<(SimTime, FlowParams)>,
    next: usize,
}

impl TrafficProcess for ArrivalProcess {
    fn fire(&mut self, now: SimTime, ctx: &mut ProcessCtx<'_>) -> Option<SimTime> {
        while self.next < self.entries.len() && self.entries[self.next].0 <= now {
            let params = self.entries[self.next].1.clone();
            ctx.start_flow(params);
            self.next += 1;
        }
        self.entries.get(self.next).map(|&(t, _)| t)
    }
}

/// Ground-truth replay: run the same hypothetical flow set through a
/// [`Simulator`] over `topo` (bulk flows scheduled by a traffic process,
/// with [`Simulator::enable_audit`] on) and report it in the same shape as
/// [`WhatIfEngine::estimate`]. Its digest must match the kernel's
/// bit-for-bit — this is the oracle the kernel is proptested against.
/// Any audit violation — including a
/// [`SolverDivergence`](crate::AuditViolation::SolverDivergence) from the
/// shadow full solve — fails the replay with [`NetError::Internal`]
/// naming the first one. `replay_steps` is reported as the simulator's
/// solve count.
pub fn replay_ground_truth(topo: Topology, flows: &[WhatIfFlow]) -> Result<WhatIfReport> {
    let bottleneck = WhatIfEngine::from_topology(topo.clone()).route(flows, None)?;
    let mut order: Vec<u32> = (0..flows.len() as u32).collect();
    order.sort_by_key(|&i| (flows[i as usize].arrival, i));
    let entries: Vec<(SimTime, FlowParams)> = order
        .iter()
        .map(|&i| {
            let w = &flows[i as usize];
            (w.arrival, FlowParams::bulk(w.src, w.dst, w.size_bytes))
        })
        .collect();

    let mut sim = Simulator::new(topo)?;
    sim.enable_audit();
    if let Some(&(first, _)) = entries.first() {
        sim.add_process(first, Box::new(ArrivalProcess { entries, next: 0 }));
        // Drive to completion: with every flow a finite bulk transfer the
        // event loop runs dry, the final advance jumps to the target, and
        // the loop exits.
        sim.run_until(SimTime::MAX)?;
    }
    if let Some(v) = sim.audit_violations().first() {
        return Err(NetError::Internal(format!("ground-truth replay failed its audit: {v}")));
    }

    // Engine flow ids are handed out monotonically from zero on a fresh
    // simulator, so record id k is the k-th started flow = `order[k]`.
    let mut ran = vec![(SimTime::ZERO, SimTime::MAX, false); flows.len()];
    let records = sim.take_finished();
    if records.len() != flows.len() {
        return Err(NetError::Stalled);
    }
    for rec in records {
        let input = order.get(rec.id as usize).ok_or(NetError::UnknownFlow(rec.id))?;
        ran[*input as usize] = (rec.started, rec.finished, rec.completed);
    }
    let estimates: Vec<FlowEstimate> =
        flows.iter().zip(ran).zip(bottleneck).map(|((w, ran), bn)| estimate_of(w.size_bytes, ran, bn)).collect();
    let solves = sim.rates_epoch();
    Ok(WhatIfReport { fct_digest: fct_digest(flows, &estimates), estimates, replay_steps: solves, solves })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TopologyBuilder;
    use crate::units::mbps;

    /// h1..h3 -- r star, 100 Mbps links.
    fn star() -> Topology {
        let mut b = TopologyBuilder::new();
        let h1 = b.compute("h1");
        let h2 = b.compute("h2");
        let h3 = b.compute("h3");
        let r = b.network("r");
        for h in [h1, h2, h3] {
            b.link(h, r, mbps(100.0), SimDuration::from_micros(10)).unwrap();
        }
        b.build().unwrap()
    }

    fn star_flows() -> Vec<WhatIfFlow> {
        // h1->h2 and h3->h2 share h2's ingress; staggered arrivals.
        let h1 = NodeId(0);
        let h2 = NodeId(1);
        let h3 = NodeId(2);
        vec![
            WhatIfFlow { src: h1, dst: h2, size_bytes: 12_500_000, arrival: SimTime::ZERO },
            WhatIfFlow {
                src: h3,
                dst: h2,
                size_bytes: 6_250_000,
                arrival: SimTime::from_millis(200),
            },
            WhatIfFlow {
                src: h2,
                dst: h1,
                size_bytes: 1_250_000,
                arrival: SimTime::from_millis(200),
            },
        ]
    }

    #[test]
    fn lone_flow_runs_at_line_rate() {
        let mut eng = WhatIfEngine::from_topology(star());
        let flows = vec![WhatIfFlow {
            src: NodeId(0),
            dst: NodeId(1),
            size_bytes: 12_500_000, // 12.5 MB at 100 Mbps = 1.0 s
            arrival: SimTime::ZERO,
        }];
        let rep = eng.estimate(&flows).unwrap();
        let e = &rep.estimates[0];
        assert!(e.completed);
        assert!((e.fct().as_secs_f64() - 1.0).abs() < 1e-6, "{:?}", e.fct());
        assert!((e.slowdown - 1.0).abs() < 1e-6, "{}", e.slowdown);
        assert_eq!(e.bottleneck_capacity, mbps(100.0));
    }

    #[test]
    fn matches_ground_truth_in_both_modes() {
        let flows = star_flows();
        let truth = replay_ground_truth(star(), &flows).unwrap();
        for mode in [SolverMode::Full, SolverMode::Incremental] {
            let mut eng = WhatIfEngine::from_topology(star());
            eng.set_mode(mode);
            let rep = eng.estimate(&flows).unwrap();
            assert_eq!(rep.fct_digest, truth.fct_digest, "what-if {mode:?} diverged from ground truth");
            assert_eq!(rep.estimates, truth.estimates);
        }
    }

    #[test]
    fn contention_slows_the_shared_flow() {
        let mut eng = WhatIfEngine::from_topology(star());
        let rep = eng.estimate(&star_flows()).unwrap();
        // Flow 0 runs alone for 200 ms, then shares h2's ingress with
        // flow 1: its slowdown must exceed 1, and every flow completes.
        assert!(rep.estimates.iter().all(|e| e.completed));
        assert!(rep.estimates[0].slowdown > 1.2, "{}", rep.estimates[0].slowdown);
        // Flow 2 runs on an uncontended reverse path at line rate.
        assert!((rep.estimates[2].slowdown - 1.0).abs() < 1e-6);
        assert!(rep.replay_steps >= 4);
        assert!(rep.solves >= 3);
    }

    #[test]
    fn a_kernel_serves_only_the_snapshot_it_holds() {
        let topo = Arc::new(star());
        let routing = Arc::new(Routing::new(&topo));
        let eng = WhatIfEngine::new(Arc::clone(&topo), Arc::clone(&routing));
        assert!(eng.serves(&topo, &routing));
        // Equal contents in other allocations are another snapshot.
        assert!(!eng.serves(&Arc::new(star()), &routing));
        assert!(!eng.serves(&topo, &Arc::new(Routing::new(&topo))));
    }

    #[test]
    fn engine_reuse_is_bit_stable() {
        let mut eng = WhatIfEngine::from_topology(star());
        let flows = star_flows();
        let a = eng.estimate(&flows).unwrap();
        let b = eng.estimate(&flows).unwrap();
        assert_eq!(a.fct_digest, b.fct_digest);
    }

    #[test]
    fn background_load_shrinks_capacity() {
        let mut eng = WhatIfEngine::from_topology(star());
        let flows = vec![WhatIfFlow {
            src: NodeId(0),
            dst: NodeId(1),
            size_bytes: 12_500_000,
            arrival: SimTime::ZERO,
        }];
        // 50 Mbps of background on every interface halves the rate.
        let util = vec![mbps(50.0); eng.topology().dir_link_count()];
        let rep = eng.estimate_with(&flows, Some(&util), None).unwrap();
        assert!((rep.estimates[0].fct().as_secs_f64() - 2.0).abs() < 1e-6);
        // And the idle run is unaffected afterwards (capacities restored).
        let idle = eng.estimate(&flows).unwrap();
        assert!((idle.estimates[0].fct().as_secs_f64() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn horizon_cuts_off_unfinished_flows() {
        let mut eng = WhatIfEngine::from_topology(star());
        let flows = star_flows();
        let rep = eng
            .estimate_with(&flows, None, Some(SimTime::from_millis(100)))
            .unwrap();
        assert!(!rep.estimates[0].completed);
        assert_eq!(rep.estimates[0].finished, SimTime::from_millis(100));
        // Flows arriving after the horizon never start.
        assert!(!rep.estimates[1].completed);
        assert_eq!(rep.estimates[1].finished, flows[1].arrival);
        // A later full run on the same engine is unaffected by leftovers.
        let full = eng.estimate(&flows).unwrap();
        assert!(full.estimates.iter().all(|e| e.completed));
    }

    #[test]
    fn degenerate_flows_are_rejected() {
        let mut eng = WhatIfEngine::from_topology(star());
        let bad = vec![WhatIfFlow {
            src: NodeId(0),
            dst: NodeId(0),
            size_bytes: 1,
            arrival: SimTime::ZERO,
        }];
        assert!(eng.estimate(&bad).is_err());
        // Routers are not valid endpoints.
        let router = vec![WhatIfFlow {
            src: NodeId(0),
            dst: NodeId(3),
            size_bytes: 1,
            arrival: SimTime::ZERO,
        }];
        assert!(eng.estimate(&router).is_err());
    }

    #[test]
    fn empty_batch_is_trivially_ok() {
        let mut eng = WhatIfEngine::from_topology(star());
        let rep = eng.estimate(&[]).unwrap();
        assert!(rep.estimates.is_empty());
        assert_eq!(rep.replay_steps, 0);
    }

    /// A zero-byte flow is done the instant it arrives, even on a path the
    /// background starves, which gives it rate 0 and so no ETA from its
    /// rate: alone (where the replay used to report `Stalled`) and with an
    /// unrelated flow arriving later (whose arrival it used to wait for).
    #[test]
    fn a_zero_byte_flow_on_a_starved_path_finishes_at_its_arrival() {
        let topo = star();
        let (h1, h2, h3) = (NodeId(0), NodeId(1), NodeId(2));
        let link = topo.neighbors(h1)[0].0;
        let egress = crate::topology::DirLink { link, dir: topo.link(link).direction_from(h1) };
        let mut background = vec![0.0; topo.dir_link_count()];
        background[egress.index()] = mbps(100.0);
        let empty = WhatIfFlow { src: h1, dst: h2, size_bytes: 0, arrival: SimTime::ZERO };
        let other = WhatIfFlow { src: h3, dst: h2, size_bytes: 1_250_000, arrival: SimTime::from_millis(500) };
        let mut eng = WhatIfEngine::from_topology(topo);
        for flows in [vec![empty], vec![empty, other]] {
            let rep = eng.estimate_with(&flows, Some(&background), None).unwrap();
            let e = &rep.estimates[0];
            assert_eq!((e.finished, e.completed), (empty.arrival, true), "with {} flows", flows.len());
        }
    }

    #[test]
    fn simultaneous_arrivals_keep_input_order() {
        // Two identical flows arriving at the same instant must tie-break
        // by input index — digest equality with ground truth proves the
        // id assignment matches the engine's start order.
        let h1 = NodeId(0);
        let h2 = NodeId(1);
        let h3 = NodeId(2);
        let flows = vec![
            WhatIfFlow { src: h3, dst: h2, size_bytes: 2_000_000, arrival: SimTime::ZERO },
            WhatIfFlow { src: h1, dst: h2, size_bytes: 2_000_000, arrival: SimTime::ZERO },
        ];
        let truth = replay_ground_truth(star(), &flows).unwrap();
        let mut eng = WhatIfEngine::from_topology(star());
        let rep = eng.estimate(&flows).unwrap();
        assert_eq!(rep.fct_digest, truth.fct_digest);
    }
}
