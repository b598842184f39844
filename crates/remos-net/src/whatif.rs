//! Batch what-if engine: fluid max-min flow-completion-time estimation.
//!
//! The query side of the stack answers "what is the network doing now?";
//! this module answers the admission/placement question network-aware
//! applications ask before acting: *what would happen if I launched these
//! flows?* Given hypothetical flows `(size_bytes, arrival, src, dst)`,
//! [`WhatIfEngine::estimate`] replays a fluid max-min schedule against a
//! frozen topology snapshot — a discrete event loop over arrivals and
//! completions in which every step re-solves only what the step changed,
//! through the engine's own incremental sweep on a scratch flow arena,
//! never touching live engine state.
//!
//! The replay is **bit-identical** to running the same flow set through a
//! full [`Simulator`] (the ground truth [`replay_ground_truth`] builds):
//! rates come from the same solver, ETAs are re-derived only when a rate
//! changes bitwise, remaining bytes integrate in the same order with the
//! same arithmetic, and completions use the same `eta <= now ||
//! remaining <= 1e-6` rule scanned in id order. What the kernel *omits*
//! is everything an estimate does not need: per-interface octet counters,
//! SNMP-visible state, traffic processes, link schedules, and completion
//! watches — which is where its speedup over the ground-truth replay
//! comes from. The [`fct_digest`](WhatIfReport::fct_digest) (FNV-1a over
//! per-flow start/finish nanos in input order) is the machine-independent
//! proof of that equivalence, asserted by the `whatif_equivalence` tests.

use crate::digest::EventDigest;
use crate::engine::{
    completion_eta, resources_into, ProcessCtx, Simulator, SolverMode, TrafficProcess,
};
use crate::error::{NetError, Result};
use crate::flow::FlowParams;
use crate::fluid::{Core, Dirty, Flow};
use crate::maxmin::{self, FlowRef, FlowSpec};
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

/// The answer to a what-if batch: per-flow estimates in **input order**
/// plus replay statistics and the determinism digest.
#[derive(Clone, Debug)]
pub struct WhatIfReport {
    /// One estimate per input flow, in input order.
    pub estimates: Vec<FlowEstimate>,
    /// FNV-1a digest over `(index, src, dst, size, started, finished,
    /// completed)` per flow in input order. Two replays of the same flow
    /// set over the same snapshot must agree bit-for-bit — including a
    /// ground-truth [`Simulator`] replay in either [`SolverMode`].
    pub fct_digest: u64,
    /// Discrete event-loop iterations the replay took.
    pub replay_steps: u64,
    /// Rate recomputations (scoped or full) the replay performed.
    pub solves: u64,
}

/// Resource-vector layout shared with the engine: the dir-link prefix
/// (indexed by `DirLink::index`), then one entry per capped backplane in
/// node-id order. `backplane[node]` maps to the resource index or
/// `usize::MAX`.
fn resource_layout(topo: &Topology) -> (Vec<f64>, Vec<usize>) {
    let mut capacities = topo.dir_link_capacities();
    let mut backplane = vec![usize::MAX; topo.node_count()];
    for (n, bw) in topo.capped_network_nodes() {
        backplane[n.index()] = capacities.len();
        capacities.push(bw);
    }
    (capacities, backplane)
}

/// Install a solved rate; the ETA is re-derived **only when the rate
/// changed bitwise** — the rule that keeps completion timestamps
/// identical between solver modes and between this kernel and the engine.
fn apply_rate(f: &mut ScratchFlow, rate: f64, now: SimTime) {
    if rate.to_bits() == f.rate.to_bits() {
        return;
    }
    f.rate = rate;
    f.eta = completion_eta(now, f.remaining, rate);
}

/// Per-flow scratch state in the replay arena. Slot index == replay id.
#[derive(Clone)]
struct ScratchFlow {
    resources: Vec<usize>,
    path: Path,
    /// Replay id (arrival rank), assigned when the flow starts.
    id: u64,
    rate: f64,
    remaining: f64,
    started: SimTime,
    eta: SimTime,
}

impl ScratchFlow {
    fn vacant() -> ScratchFlow {
        ScratchFlow {
            resources: Vec::new(),
            path: Path { src: NodeId(0), dst: NodeId(0), hops: Vec::new(), nodes: Vec::new() },
            id: 0,
            rate: 0.0,
            remaining: 0.0,
            started: SimTime::ZERO,
            eta: SimTime::MAX,
        }
    }
}

impl Flow for ScratchFlow {
    fn spec(&self) -> FlowRef<'_> {
        FlowRef { weight: 1.0, cap: None, resources: &self.resources }
    }

    fn rate(&self) -> f64 {
        self.rate
    }

    fn set_rate(&mut self, rate: f64, now: SimTime) {
        apply_rate(self, rate, now);
    }
}

/// The reusable what-if replay kernel over one frozen topology snapshot.
///
/// Construction routes nothing; paths are resolved per flow from the
/// shared [`Routing`] (typically the modeler's per-epoch table), which
/// fills a source's row the first time a flow starts there. All per-run
/// state lives in arenas that are reused across
/// [`estimate`](WhatIfEngine::estimate) calls, so batch callers pay the
/// allocation cost once.
pub struct WhatIfEngine {
    topo: Arc<Topology>,
    routing: Arc<Routing>,
    mode: SolverMode,
    /// Raw snapshot capacities (dir-links + capped backplanes).
    base_capacities: Vec<f64>,
    /// Effective capacities for the current run (base minus background).
    capacities: Vec<f64>,
    backplane: Vec<usize>,
    // --- per-run arenas, reused across estimates ---
    flows: Vec<ScratchFlow>,
    /// Active replay ids, ascending (ids are assigned in arrival order,
    /// so starts push and completions binary-search-remove).
    order: Vec<u32>,
    /// Membership index, dirty tracker and sweep (the engine's).
    core: Core,
    due: Vec<u64>,
    /// Input indices sorted by `(arrival, input index)` — the replay id
    /// assignment order.
    sorted: Vec<u32>,
}

impl WhatIfEngine {
    /// Build a kernel over a topology snapshot and a routing table for it.
    pub fn new(topo: Arc<Topology>, routing: Arc<Routing>) -> WhatIfEngine {
        let (capacities, backplane) = resource_layout(&topo);
        let core = Core::new(capacities.len());
        WhatIfEngine {
            topo,
            routing,
            mode: SolverMode::default(),
            base_capacities: capacities.clone(),
            capacities,
            backplane,
            flows: Vec::new(),
            order: Vec::new(),
            core,
            due: Vec::new(),
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
        self.mode = mode;
    }

    /// The active rate-recomputation strategy.
    pub fn mode(&self) -> SolverMode {
        self.mode
    }

    /// The frozen topology the kernel replays against.
    pub fn topology(&self) -> &Topology {
        &self.topo
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
        assert!(flows.len() <= u32::MAX as usize, "what-if batch too large");
        // Effective capacities for this run.
        let n_dir = self.topo.dir_link_count();
        self.capacities.clear();
        self.capacities.extend_from_slice(&self.base_capacities);
        if let Some(util) = background {
            for (i, c) in self.capacities.iter_mut().enumerate().take(n_dir) {
                let u = util.get(i).copied().unwrap_or(0.0);
                *c = (*c - u).max(0.0);
            }
        }

        // Validate and route every flow up front, and pre-compute its
        // path bottleneck on the effective capacities.
        self.flows.resize_with(flows.len(), ScratchFlow::vacant);
        let mut bottleneck = Vec::with_capacity(flows.len());
        for (i, w) in flows.iter().enumerate() {
            if w.src == w.dst {
                return Err(NetError::Invalid(format!("what-if flow {i}: src == dst")));
            }
            let f = &mut self.flows[i];
            self.routing.path_into(&self.topo, w.src, w.dst, &mut f.path)?;
            resources_into(&self.backplane, &f.path, &mut f.resources);
            let (mut bn, mut bn_cap) = (usize::MAX, f64::INFINITY);
            for &r in &f.resources {
                if self.capacities[r] < bn_cap {
                    bn_cap = self.capacities[r];
                    bn = r;
                }
            }
            bottleneck.push((bn, bn_cap));
            f.rate = 0.0;
            f.remaining = w.size_bytes as f64;
            f.started = w.arrival;
            f.eta = SimTime::MAX;
        }

        // Replay ids follow (arrival, input index) order — exactly the
        // order a ground-truth arrival process starts them in.
        self.sorted.clear();
        self.sorted.extend(0..flows.len() as u32);
        let arrivals = flows;
        self.sorted.sort_by_key(|&i| (arrivals[i as usize].arrival, i));

        // Reset the arenas.
        self.order.clear();
        self.core.clear();

        let mut finished: Vec<(SimTime, bool)> = vec![(SimTime::MAX, false); flows.len()];
        let mut now = SimTime::ZERO;
        let mut next_arrival = 0usize;
        let mut replay_steps = 0u64;
        let mut solves = 0u64;

        loop {
            // Start every arrival due at `now`, in replay-id order.
            while next_arrival < self.sorted.len() {
                let input = self.sorted[next_arrival] as usize;
                if arrivals[input].arrival > now {
                    break;
                }
                let id = next_arrival as u64;
                let slot = input as u32;
                let f = &mut self.flows[input];
                f.id = id;
                f.started = now;
                self.core.insert(&self.capacities, id, slot, None, &f.resources);
                self.order.push(slot);
                next_arrival += 1;
            }
            if self.order.is_empty() && next_arrival == self.sorted.len() {
                break;
            }
            if let Some(h) = horizon {
                if now >= h {
                    break;
                }
            }
            if self.core.dirty() != Dirty::Clean {
                solves += 1;
                self.recompute(now);
            }
            let mut t_next = self.next_completion();
            if next_arrival < self.sorted.len() {
                t_next = t_next.min(arrivals[self.sorted[next_arrival] as usize].arrival);
            }
            if let Some(h) = horizon {
                t_next = t_next.min(h);
            }
            if t_next == SimTime::MAX {
                return Err(NetError::Stalled);
            }
            self.advance(t_next.since(now));
            now = t_next;
            self.complete_due(now, &mut finished);
            replay_steps += 1;
        }

        // Horizon leftovers: active flows (and flows that never arrived)
        // are reported as incomplete at the cut-off.
        for pos in 0..self.order.len() {
            let input = self.order[pos] as usize;
            finished[input] = (now.max(self.flows[input].started), false);
        }
        self.order.clear();
        for input in self.sorted[next_arrival..].iter().map(|&i| i as usize) {
            finished[input] = (arrivals[input].arrival, false);
        }

        let mut estimates = Vec::with_capacity(flows.len());
        for (i, w) in flows.iter().enumerate() {
            let (finish, completed) = finished[i];
            let started = if w.arrival <= finish { w.arrival } else { finish };
            let fct_secs = finish.saturating_since(started).as_secs_f64();
            let (bn, bn_cap) = bottleneck[i];
            let ideal_secs =
                if bn_cap > 0.0 { w.size_bytes as f64 * 8.0 / bn_cap } else { f64::INFINITY };
            let slowdown = if !completed {
                f64::INFINITY
            } else if ideal_secs > 0.0 {
                fct_secs / ideal_secs
            } else {
                1.0
            };
            estimates.push(FlowEstimate {
                started,
                finished: finish,
                completed,
                slowdown,
                bottleneck: bn,
                bottleneck_capacity: bn_cap,
            });
        }
        let fct_digest = fct_digest(flows, &estimates);
        Ok(WhatIfReport { estimates, fct_digest, replay_steps, solves })
    }

    fn next_completion(&self) -> SimTime {
        self.order.iter().map(|&s| self.flows[s as usize].eta).min().unwrap_or(SimTime::MAX)
    }

    /// Integrate remaining bytes over `dt` at current rates, in id order,
    /// with the engine's exact arithmetic (`bytes = rate * secs / 8.0`,
    /// clamped subtraction per step).
    fn advance(&mut self, dt: SimDuration) {
        if dt.is_zero() {
            return;
        }
        let secs = dt.as_secs_f64();
        for &s in &self.order {
            let f = &mut self.flows[s as usize];
            if f.rate <= 0.0 {
                continue;
            }
            let bytes = f.rate * secs / 8.0;
            f.remaining = (f.remaining - bytes).max(0.0);
        }
    }

    /// Retire every flow due at `now` (`eta <= now || remaining <= 1e-6`),
    /// scanning and completing in id order.
    fn complete_due(&mut self, now: SimTime, finished: &mut [(SimTime, bool)]) {
        let mut due = std::mem::take(&mut self.due);
        due.clear();
        for (pos, &s) in self.order.iter().enumerate() {
            let f = &self.flows[s as usize];
            if f.eta <= now || f.remaining <= 1e-6 {
                due.push(((pos as u64) << 32) | u64::from(s));
            }
        }
        // Positions shift as we remove; walk back-to-front on positions
        // (completion *order* is id order only for bookkeeping in
        // `finished`, which is index-addressed, so order does not matter).
        for &packed in due.iter().rev() {
            let pos = (packed >> 32) as usize;
            let slot = (packed & 0xffff_ffff) as u32;
            let input = slot as usize;
            self.order.remove(pos);
            let f = &self.flows[input];
            self.core.remove(f.id, slot, &f.resources);
            finished[input] = (now, true);
        }
        due.clear();
        self.due = due;
    }

    /// Recompute rates for the dirty scope, mirroring the engine:
    /// full-mode rebuilds everything; incremental mode sweeps what the
    /// changes since the last solve reach.
    fn recompute(&mut self, now: SimTime) {
        match self.mode {
            SolverMode::Full => {
                self.core.settle_all();
                self.recompute_full(now);
            }
            SolverMode::Incremental => {
                self.core.resolve(&self.capacities, &mut self.flows, now);
            }
        }
    }

    fn recompute_full(&mut self, now: SimTime) {
        let specs: Vec<FlowSpec> = self
            .order
            .iter()
            .map(|&s| {
                let f = &self.flows[s as usize];
                FlowSpec { weight: 1.0, cap: None, resources: f.resources.clone() }
            })
            .collect();
        let alloc = maxmin::solve(&self.capacities, &specs);
        for (&s, &rate) in self.order.iter().zip(alloc.rates.iter()) {
            apply_rate(&mut self.flows[s as usize], rate, now);
        }
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

/// Ground-truth replay: run the same hypothetical flow set through a full
/// [`Simulator`] over `topo` (bulk flows scheduled by a traffic process)
/// and report it in the same shape as [`WhatIfEngine::estimate`]. The
/// digests must match bit-for-bit in either [`SolverMode`] — this is the
/// oracle the what-if kernel is benchmarked and proptested against.
/// `replay_steps` is reported as the simulator's solve count.
pub fn replay_ground_truth(
    topo: Topology,
    flows: &[WhatIfFlow],
    mode: SolverMode,
) -> Result<WhatIfReport> {
    let (capacities, backplane) = resource_layout(&topo);
    let routing = Routing::new(&topo);
    // Validate and pre-compute bottlenecks exactly like the kernel, so
    // both sides reject the same inputs and report the same ideals.
    let mut bottleneck = Vec::with_capacity(flows.len());
    let mut path = Path { src: NodeId(0), dst: NodeId(0), hops: Vec::new(), nodes: Vec::new() };
    let mut resources = Vec::new();
    for (i, w) in flows.iter().enumerate() {
        if w.src == w.dst {
            return Err(NetError::Invalid(format!("what-if flow {i}: src == dst")));
        }
        routing.path_into(&topo, w.src, w.dst, &mut path)?;
        resources_into(&backplane, &path, &mut resources);
        let (mut bn, mut bn_cap) = (usize::MAX, f64::INFINITY);
        for &r in &resources {
            if capacities[r] < bn_cap {
                bn_cap = capacities[r];
                bn = r;
            }
        }
        bottleneck.push((bn, bn_cap));
    }

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
    sim.set_solver_mode(mode);
    if let Some(&(first, _)) = entries.first() {
        sim.add_process(first, Box::new(ArrivalProcess { entries, next: 0 }));
        // Drive to completion: with every flow a finite bulk transfer the
        // event loop runs dry, the final advance jumps to the target, and
        // the loop exits.
        sim.run_until(SimTime::MAX)?;
    }

    // Engine flow ids are handed out monotonically from zero on a fresh
    // simulator, so record id k is the k-th started flow = `order[k]`.
    let mut finished: Vec<(SimTime, SimTime, bool)> =
        vec![(SimTime::ZERO, SimTime::MAX, false); flows.len()];
    let records = sim.take_finished();
    if records.len() != flows.len() {
        return Err(NetError::Stalled);
    }
    for rec in records {
        let input = order
            .get(rec.id as usize)
            .map(|&i| i as usize)
            .ok_or(NetError::UnknownFlow(rec.id))?;
        finished[input] = (rec.started, rec.finished, rec.completed);
    }

    let mut estimates = Vec::with_capacity(flows.len());
    for (i, w) in flows.iter().enumerate() {
        let (started, finish, completed) = finished[i];
        let fct_secs = finish.saturating_since(started).as_secs_f64();
        let (bn, bn_cap) = bottleneck[i];
        let ideal_secs =
            if bn_cap > 0.0 { w.size_bytes as f64 * 8.0 / bn_cap } else { f64::INFINITY };
        let slowdown = if !completed {
            f64::INFINITY
        } else if ideal_secs > 0.0 {
            fct_secs / ideal_secs
        } else {
            1.0
        };
        estimates.push(FlowEstimate {
            started,
            finished: finish,
            completed,
            slowdown,
            bottleneck: bn,
            bottleneck_capacity: bn_cap,
        });
    }
    let digest = fct_digest(flows, &estimates);
    Ok(WhatIfReport {
        estimates,
        fct_digest: digest,
        replay_steps: sim.full_recomputes() + sim.scoped_recomputes(),
        solves: sim.full_recomputes() + sim.scoped_recomputes(),
    })
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
        let truth_full =
            replay_ground_truth(star(), &flows, SolverMode::Full).unwrap();
        let truth_inc =
            replay_ground_truth(star(), &flows, SolverMode::Incremental).unwrap();
        assert_eq!(truth_full.fct_digest, truth_inc.fct_digest);
        for mode in [SolverMode::Full, SolverMode::Incremental] {
            let mut eng = WhatIfEngine::from_topology(star());
            eng.set_mode(mode);
            let rep = eng.estimate(&flows).unwrap();
            assert_eq!(
                rep.fct_digest, truth_full.fct_digest,
                "what-if {mode:?} diverged from ground truth"
            );
            for (a, b) in rep.estimates.iter().zip(truth_full.estimates.iter()) {
                assert_eq!(a, b);
            }
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
        let truth = replay_ground_truth(star(), &flows, SolverMode::Incremental).unwrap();
        let mut eng = WhatIfEngine::from_topology(star());
        let rep = eng.estimate(&flows).unwrap();
        assert_eq!(rep.fct_digest, truth.fct_digest);
    }
}
