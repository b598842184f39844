//! The fluid flow-level discrete-event simulator.
//!
//! Between events every active flow has a constant rate — the weighted
//! max-min fair allocation over all directed link interfaces and capped
//! switch backplanes. Events are: a bounded flow finishing its volume, a
//! scheduled traffic process firing, or the caller's time horizon. Octet
//! counters (the SNMP agents' data source) advance analytically between
//! events, so simulating 900 testbed-seconds of Airshed costs only as many
//! rate recomputations as there are flow arrivals and departures.
//!
//! The flow table, the solve, the octet counters and the completion heap
//! are the fluid core's (`fluid::Core<true>`, the metered flavour of the
//! what-if kernel's core); stepping the clock does no per-flow work. The simulator adds routing
//! and link state, traffic processes, completion watches, the audit and
//! the event digest.

use crate::audit::{AuditViolation, MaxMinAudit};
use crate::digest::EventDigest;
use crate::error::{NetError, Result};
use crate::flow::{FlowParams, FlowRecord, FlowTag};
use crate::fluid::Core;
pub use crate::fluid::SolverMode;
use crate::maxmin;
use crate::routing::{Path, Routing};
use crate::time::{SimDuration, SimTime};
use crate::topology::{DirLink, NodeId, Topology};
use crate::units::Bps;
use crate::whatif::resource_layout;
use std::cmp::Reverse;
// The solver, the completion pop and the event log take the core's
// live flows in ascending id order, and the remaining maps are BTreeMaps:
// ordering is a property of the data, not of a hash seed (HashMap is a
// disallowed type in this crate's clippy.toml).
use remos_obs::{Counter, Histogram, Obs};
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Cached observability handles for the engine's hot paths. Resolving a
/// metric by name takes a registry lock; caching the handles here means a
/// steady-state recomputation pays exactly one atomic op per update. The
/// struct is rebuilt whenever a new [`Obs`] is installed.
struct EngineMetrics {
    full_recomputes: Counter,
    scoped_recomputes: Counter,
    routing_rebuilds: Counter,
    /// Flows touched per solve (full: all flows; scoped: flows the sweep froze).
    solve_scope_flows: Histogram,
    /// Link transitions coalesced into one routing rebuild.
    link_batch_size: Histogram,
    /// Wall-clock nanoseconds per solve — only populated when a top-level
    /// caller injects a clock (see `remos_obs::clock`); empty by default.
    solve_latency_nanos: Histogram,
}

impl EngineMetrics {
    fn new(obs: &Obs) -> EngineMetrics {
        EngineMetrics {
            full_recomputes: obs.counter("engine_full_recomputes_total"),
            scoped_recomputes: obs.counter("engine_scoped_recomputes_total"),
            routing_rebuilds: obs.counter("engine_routing_rebuilds_total"),
            solve_scope_flows: obs.histogram("engine_solve_scope_flows"),
            link_batch_size: obs.histogram("engine_link_batch_size"),
            solve_latency_nanos: obs.histogram("engine_solve_latency_nanos"),
        }
    }
}

/// Handle to an active flow.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FlowHandle(pub(crate) u64);

impl FlowHandle {
    /// The flow's simulator-assigned id (ascending in start order; the
    /// id recorded in [`crate::flow::FlowRecord`] and the digests).
    pub fn id(&self) -> u64 {
        self.0
    }
}

/// Identifies a registered traffic process.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ProcessId(usize);

/// A scheduled traffic process (on-off sources, arrival generators, ...).
///
/// The engine calls [`TrafficProcess::fire`] at each scheduled time; the
/// process manipulates flows through the [`ProcessCtx`] and returns the next
/// time it wants to fire (or `None` to finish).
/// `Send + Sync` because processes live inside the [`Simulator`], which
/// sits behind a reader-writer cell (shard collectors read settled state
/// through shared guards); `fire` still requires `&mut self` through the
/// write guard, so `Sync` is only the marker that lets `&Simulator` travel.
pub trait TrafficProcess: Send + Sync {
    /// React to the scheduled instant `now`, returning the next fire time.
    fn fire(&mut self, now: SimTime, ctx: &mut ProcessCtx<'_>) -> Option<SimTime>;
}

/// The restricted engine API handed to firing traffic processes.
///
/// Actions are queued and applied by the engine after the process returns;
/// flow handles are assigned eagerly so a process can remember the flows it
/// started and stop them on a later fire.
pub struct ProcessCtx<'a> {
    actions: &'a mut Vec<ProcessAction>,
    next_id: u64,
}

enum ProcessAction {
    Start(FlowParams, u64),
    Stop(FlowHandle),
    NotifyWhenComplete(Vec<FlowHandle>),
}

impl ProcessCtx<'_> {
    /// Queue a flow start; returns the handle the flow will receive.
    pub fn start_flow(&mut self, params: FlowParams) -> FlowHandle {
        let id = self.next_id;
        self.next_id += 1;
        self.actions.push(ProcessAction::Start(params, id));
        FlowHandle(id)
    }

    /// Queue a flow stop.
    pub fn stop_flow(&mut self, h: FlowHandle) {
        self.actions.push(ProcessAction::Stop(h));
    }

    /// Ask the engine to fire this process again once every listed flow
    /// has finished (completed, been stopped, or been killed by a link
    /// failure). Lets processes implement synchronous communication
    /// phases. The process is kept alive even if `fire` returns `None`.
    pub fn notify_when_complete(&mut self, flows: Vec<FlowHandle>) {
        self.actions.push(ProcessAction::NotifyWhenComplete(flows));
    }
}

/// The simulator's side of a flow, by the core's slot; the core holds its
/// rate, progress, ETA and resources.
struct ActiveFlow {
    params: FlowParams,
    path: Path,
    started: SimTime,
}

impl ActiveFlow {
    /// Placeholder for a freshly grown slab slot; every field is
    /// overwritten before first use, and a retired slot keeps its path
    /// buffers so the next flow through it allocates nothing.
    fn vacant() -> ActiveFlow {
        ActiveFlow {
            params: FlowParams::greedy(NodeId(0), NodeId(0)),
            path: Path { src: NodeId(0), dst: NodeId(0), hops: Vec::new(), nodes: Vec::new() },
            started: SimTime::ZERO,
        }
    }
}

/// Collect the resource indices (dir-links, then the capped backplanes of
/// interior nodes) a routed path loads, into a reusable buffer.
/// `backplane[node]` is the backplane resource index or `usize::MAX`.
pub(crate) fn resources_into(backplane: &[usize], path: &Path, out: &mut Vec<usize>) {
    out.clear();
    out.extend(path.dirlink_indices());
    for n in path.interior_nodes() {
        let b = backplane[n.index()];
        if b != usize::MAX {
            out.push(b);
        }
    }
}

/// A link state transition that occurred in the simulation — the source
/// of SNMP linkDown/linkUp traps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkEvent {
    /// When the transition happened.
    pub t: SimTime,
    /// The affected link.
    pub link: crate::topology::LinkId,
    /// New state.
    pub up: bool,
}

/// The simulator.
///
/// ```
/// use remos_net::{Simulator, TopologyBuilder, mbps, SimDuration, SimTime};
/// use remos_net::flow::FlowParams;
///
/// let mut b = TopologyBuilder::new();
/// let h1 = b.compute("h1");
/// let h2 = b.compute("h2");
/// b.link(h1, h2, mbps(8.0), SimDuration::from_micros(10)).unwrap();
/// let mut sim = Simulator::new(b.build().unwrap()).unwrap();
///
/// // 1 MB at 8 Mbit/s takes exactly 1 second.
/// let f = sim.start_flow(FlowParams::bulk(h1, h2, 1_000_000)).unwrap();
/// let records = sim.run_until_flows_complete(&[f]).unwrap();
/// assert!((sim.now().as_secs_f64() - 1.0).abs() < 1e-6);
/// assert!(records[0].completed);
/// ```
pub struct Simulator {
    topo: Arc<Topology>,
    routing: Arc<Routing>,
    now: SimTime,
    /// The flow table (live flows in id order), the capacities and octet
    /// counters of all resources — `dir_link_count()` interfaces, then one
    /// per capped network node — the completion heap and the solve.
    core: Core<true>,
    /// The simulator's side of each core slot. Live slots are the core's;
    /// retired slots sit on `free` keeping their buffers for the next flow.
    slots: Vec<ActiveFlow>,
    /// Recycled slot indices.
    free: Vec<u32>,
    next_id: u64,
    /// node index -> backplane resource index (`usize::MAX` if uncapped).
    backplane: Vec<usize>,
    /// Statistics: full / scoped solver invocations and routing rebuilds.
    full_recomputes: u64,
    scoped_recomputes: u64,
    routing_rebuilds: u64,
    finished: Vec<FlowRecord>,
    processes: Vec<Option<Box<dyn TrafficProcess>>>,
    schedule: BinaryHeap<Reverse<(SimTime, usize)>>,
    /// Per-link operational state.
    link_up: Vec<bool>,
    /// Pending scheduled link transitions.
    link_schedule: BinaryHeap<Reverse<(SimTime, u32, bool)>>,
    /// Log of applied transitions (drained by trap sources).
    link_events: Vec<LinkEvent>,
    /// Completion watches: when all flows of a set are finished, the
    /// process fires.
    watches: Vec<(std::collections::BTreeSet<u64>, usize)>,
    /// Order-sensitive digest of every flow/link event so far.
    digest: EventDigest,
    /// When set, every rate recomputation is checked against the max-min
    /// invariants and violations are collected (always asserted in debug
    /// builds regardless).
    audit: Option<MaxMinAudit>,
    /// Violations collected while auditing (see [`Simulator::enable_audit`]).
    audit_violations: Vec<AuditViolation>,
    /// Observability handle (metrics + simulated-time traces). Every
    /// simulator owns one; [`Simulator::set_obs`] swaps in a shared handle
    /// so the whole stack reports into a single snapshot.
    obs: Obs,
    /// Cached metric handles derived from `obs`.
    obs_metrics: EngineMetrics,
}

impl Simulator {
    /// Build a simulator over a topology. Routes are computed per source,
    /// the first time a flow starts there, in the topology's own table
    /// ([`Topology::routing`]) while every link is up.
    pub fn new(topo: Topology) -> Result<Simulator> {
        let routing = Arc::clone(topo.routing());
        let (capacities, backplane) = resource_layout(&topo);
        let link_up = vec![true; topo.link_count()];
        let obs = Obs::new();
        let obs_metrics = EngineMetrics::new(&obs);
        Ok(Simulator {
            topo: Arc::new(topo),
            routing,
            now: SimTime::ZERO,
            core: Core::new(capacities),
            slots: Vec::new(),
            free: Vec::new(),
            next_id: 0,
            backplane,
            full_recomputes: 0,
            scoped_recomputes: 0,
            routing_rebuilds: 0,
            finished: Vec::new(),
            processes: Vec::new(),
            schedule: BinaryHeap::new(),
            link_up,
            link_schedule: BinaryHeap::new(),
            link_events: Vec::new(),
            watches: Vec::new(),
            digest: EventDigest::new(),
            audit: None,
            audit_violations: Vec::new(),
            obs,
            obs_metrics,
        })
    }

    /// Install a shared observability handle. Metric handles are re-cached
    /// against the new registry; counters restart from the registry's
    /// current values (the engine's own [`Simulator::full_recomputes`]-style
    /// counters are unaffected and keep their lifetime totals).
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs_metrics = EngineMetrics::new(&obs);
        self.obs = obs;
    }

    /// The observability handle this simulator reports into.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Turn on the runtime max-min audit: after every rate recomputation
    /// the allocation is checked against the invariants in
    /// [`MaxMinAudit`]; violations accumulate in
    /// [`Simulator::audit_violations`]. (Debug builds assert the same
    /// invariants unconditionally.)
    pub fn enable_audit(&mut self) {
        self.audit = Some(MaxMinAudit::default());
    }

    /// Violations collected since the audit was enabled (empty when the
    /// audit is off or every recomputation was valid).
    pub fn audit_violations(&self) -> &[AuditViolation] {
        &self.audit_violations
    }

    /// Select the rate-recomputation strategy. Switching marks the rates
    /// fully dirty so the next recomputation resynchronises under the new
    /// mode (a no-op in practice: both modes are bit-identical).
    pub fn set_solver_mode(&mut self, mode: SolverMode) {
        self.core.set_mode(mode);
    }

    /// The active rate-recomputation strategy.
    pub fn solver_mode(&self) -> SolverMode {
        self.core.mode()
    }

    /// Number of full (all-component) solver runs so far.
    pub fn full_recomputes(&self) -> u64 {
        self.full_recomputes
    }

    /// Number of scoped (dirty-resources-only) solver runs so far.
    pub fn scoped_recomputes(&self) -> u64 {
        self.scoped_recomputes
    }

    /// Flows the sweeps so far have frozen, summed over the solves (`Full`
    /// mode re-solves every live flow and counts none).
    pub fn flows_resolved(&self) -> u64 {
        self.core.resolved()
    }

    /// Monotone count of solver runs of either kind. Rates move only
    /// inside a run, and every start, retire and re-path leaves the rates
    /// unsettled until the next one, so two *settled* reads at the same
    /// epoch see bit-identical interface rates.
    pub fn rates_epoch(&self) -> u64 {
        self.full_recomputes + self.scoped_recomputes
    }

    /// Number of times routing was rebuilt after link transitions. All
    /// transitions due at one instant are coalesced into a single rebuild.
    pub fn routing_rebuilds(&self) -> u64 {
        self.routing_rebuilds
    }

    /// Mode-agnostic digest of the current allocation: every active flow's
    /// id and bit-exact rate, in id order. Two simulators in different
    /// [`SolverMode`]s driven through the same scenario must agree on this
    /// at every instant — the verification hook the equivalence tests use.
    pub fn rates_digest(&mut self) -> u64 {
        self.recompute_rates_if_dirty();
        let mut d = EventDigest::new();
        for &(id, s) in self.core.order() {
            d.record_rate(id, self.core.rate(s));
        }
        d.value()
    }

    /// Order-sensitive digest over every flow start, flow finish, and link
    /// transition so far, combined with the current clock and the exact
    /// per-interface octet counters. Two runs of the same scenario with
    /// the same seeds must produce equal digests; see
    /// `docs/DETERMINISM.md`.
    pub fn event_digest(&self) -> u64 {
        let mut d = self.digest.0;
        d.u64(self.now.as_nanos());
        for r in 0..self.topo.dir_link_count() {
            d.f64(self.core.octets(r, self.now));
        }
        d.value()
    }

    /// The topology being simulated.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Shared handle to the topology.
    pub fn topology_arc(&self) -> Arc<Topology> {
        Arc::clone(&self.topo)
    }

    /// The routing table: the topology's own ([`Topology::routing`])
    /// while every link is up, a masked one of the simulator's while some
    /// link is down.
    pub fn routing(&self) -> &Routing {
        &self.routing
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of currently active flows.
    pub fn active_flow_count(&self) -> usize {
        self.core.order().len()
    }

    /// Start a flow. Endpoints must be distinct compute nodes with a route.
    pub fn start_flow(&mut self, params: FlowParams) -> Result<FlowHandle> {
        if params.weight <= 0.0 || !params.weight.is_finite() {
            return Err(NetError::Invalid(format!("flow weight {}", params.weight)));
        }
        if let Some(cap) = params.rate_cap {
            if cap <= 0.0 || !cap.is_finite() {
                return Err(NetError::Invalid(format!("rate cap {cap}")));
            }
        }
        if params.src == params.dst {
            return Err(NetError::Invalid("flow src == dst".into()));
        }
        // Claim a slab slot first so the routed path lands directly in the
        // slot's reusable buffers: at steady state a start performs no
        // heap allocation at all.
        let slot_idx = match self.free.pop() {
            Some(s) => s as usize,
            None => {
                self.slots.push(ActiveFlow::vacant());
                self.slots.len() - 1
            }
        };
        let slot = &mut self.slots[slot_idx];
        if let Err(e) = self.routing.path_into(&self.topo, params.src, params.dst, &mut slot.path)
        {
            self.free.push(slot_idx as u32);
            return Err(e);
        }
        resources_into(&self.backplane, &slot.path, self.core.resources_mut(slot_idx as u32));
        let (src, dst) = (params.src.0, params.dst.0);
        // Ids are handed out monotonically, so the core's id order grows
        // at its end.
        let id = self.next_id;
        self.next_id += 1;
        let remaining = params.volume.map_or(f64::INFINITY, |v| v as f64);
        self.core.start(id, slot_idx as u32, params.weight, params.rate_cap, remaining, self.now);
        slot.started = self.now;
        slot.params = params;
        self.digest.record_start(id, src, dst, self.now.as_nanos());
        Ok(FlowHandle(id))
    }

    /// Remove an active flow from the slab, record and log its finish,
    /// and return the record. Allocation-free: the slot (with its path
    /// and resource buffers) is recycled through the free list. Callers
    /// settle completion watches themselves.
    fn retire_flow(&mut self, id: u64, completed: bool) -> Option<FlowRecord> {
        let slot = self.core.retire(id, self.now)?;
        let f = &self.slots[slot as usize];
        let rec = FlowRecord {
            id,
            src: f.params.src,
            dst: f.params.dst,
            tag: f.params.tag,
            started: f.started,
            finished: self.now,
            bytes: self.core.sent(slot, self.now),
            completed,
        };
        self.free.push(slot);
        self.digest.record_finish(&rec);
        self.finished.push(rec.clone());
        Some(rec)
    }

    /// Stop a flow immediately, returning its record.
    pub fn stop_flow(&mut self, h: FlowHandle) -> Result<FlowRecord> {
        let rec = self.retire_flow(h.0, false).ok_or(NetError::UnknownFlow(h.0))?;
        self.settle_watches(&[h.0]);
        Ok(rec)
    }

    /// Register a traffic process, firing first at `start`.
    pub fn add_process(&mut self, start: SimTime, p: Box<dyn TrafficProcess>) -> ProcessId {
        let id = self.processes.len();
        self.processes.push(Some(p));
        self.schedule.push(Reverse((start.max(self.now), id)));
        ProcessId(id)
    }

    /// Current rate of an active flow, bits/s.
    pub fn flow_rate(&mut self, h: FlowHandle) -> Result<Bps> {
        self.recompute_rates_if_dirty();
        self.core.slot_of(h.0).map(|s| self.core.rate(s)).ok_or(NetError::UnknownFlow(h.0))
    }

    /// Bytes delivered so far by an active flow.
    pub fn flow_bytes_sent(&self, h: FlowHandle) -> Result<f64> {
        let slot = self.core.slot_of(h.0).ok_or(NetError::UnknownFlow(h.0))?;
        Ok(self.core.sent(slot, self.now))
    }

    /// Whether the handle refers to a still-active flow.
    pub fn flow_is_active(&self, h: FlowHandle) -> bool {
        self.core.slot_of(h.0).is_some()
    }

    /// Drain the records of flows finished (completed or stopped) so far.
    pub fn take_finished(&mut self) -> Vec<FlowRecord> {
        std::mem::take(&mut self.finished)
    }

    /// Append the finished-flow records to `out` and clear the internal
    /// log, retaining its capacity — the allocation-free alternative to
    /// [`take_finished`](Self::take_finished) for steady-state callers.
    pub fn drain_finished_into(&mut self, out: &mut Vec<FlowRecord>) {
        out.append(&mut self.finished);
    }

    /// Operational state of a link.
    pub fn link_is_up(&self, link: crate::topology::LinkId) -> bool {
        self.link_up[link.index()]
    }

    /// Drain the log of link transitions (SNMP trap source).
    pub fn take_link_events(&mut self) -> Vec<LinkEvent> {
        std::mem::take(&mut self.link_events)
    }

    /// Change a link's state *now*: the routing table is replaced, every
    /// active flow is re-pathed onto its new best route (flows left with no
    /// route terminate with `completed = false`), and the transition is
    /// logged.
    pub fn set_link_state(&mut self, link: crate::topology::LinkId, up: bool) -> Result<()> {
        self.apply_link_transitions(&[(link, up)])
    }

    /// Apply a batch of link transitions as one event: all flips are
    /// recorded first, then routing is rebuilt **once** and every flow is
    /// re-pathed once against the final state. Coalescing simultaneous
    /// transitions this way means a link that goes down and comes back up
    /// at the same instant never strands the flows crossing it.
    fn apply_link_transitions(&mut self, batch: &[(crate::topology::LinkId, bool)]) -> Result<()> {
        let mut flips = 0u64;
        for &(link, up) in batch {
            self.topo.try_link(link)?;
            if self.link_up[link.index()] == up {
                continue;
            }
            self.link_up[link.index()] = up;
            let ev = LinkEvent { t: self.now, link, up };
            self.digest.record_link(&ev);
            self.link_events.push(ev);
            flips += 1;
        }
        if flips == 0 {
            return Ok(());
        }
        // A table of its own only while some link is down: with every link
        // back up, the routes are the topology's again.
        self.routing = if self.link_up.iter().all(|&up| up) {
            Arc::clone(self.topo.routing())
        } else {
            Arc::new(Routing::with_link_state(&self.topo, Some(&self.link_up)))
        };
        self.routing_rebuilds += 1;
        self.obs_metrics.routing_rebuilds.inc();
        self.obs_metrics.link_batch_size.observe(flips);
        self.obs.event("engine.routing.rebuild", self.now.as_nanos(), &[("links", flips)]);
        // Re-path every flow in id order (deterministic without a sort:
        // the core's order is ascending). Flows whose best path is
        // unchanged are skipped entirely — they stay outside the dirty
        // set, so a faraway flap costs them nothing. This is a rare path;
        // the snapshot and per-flow path allocations are acceptable here.
        let ids: Vec<u64> = self.core.order().iter().map(|&(id, _)| id).collect();
        for id in ids {
            let Some(s) = self.core.slot_of(id) else { continue };
            let f = &mut self.slots[s as usize];
            match self.routing.path(&self.topo, f.params.src, f.params.dst) {
                Ok(path) => {
                    if f.path.hops == path.hops {
                        continue;
                    }
                    f.path = path;
                    let backplane = &self.backplane;
                    self.core.repath(s, self.now, |resources| resources_into(backplane, &f.path, resources));
                }
                Err(_) => {
                    // Disconnected: the connection breaks.
                    if self.retire_flow(id, false).is_some() {
                        self.settle_watches(&[id]);
                    }
                }
            }
        }
        Ok(())
    }

    /// Schedule a link transition at a future instant.
    pub fn schedule_link_state(
        &mut self,
        t: SimTime,
        link: crate::topology::LinkId,
        up: bool,
    ) -> Result<()> {
        self.topo.try_link(link)?;
        self.link_schedule.push(Reverse((t.max(self.now), link.0, up)));
        Ok(())
    }

    fn next_link_change(&self) -> SimTime {
        self.link_schedule.peek().map_or(SimTime::MAX, |Reverse((t, _, _))| *t)
    }

    fn apply_due_link_changes(&mut self) -> Result<()> {
        // Coalesce every transition due at or before `now` into one batch:
        // one routing rebuild and one re-path pass regardless of how many
        // links flip together. Pop order — (time, link, down-before-up) —
        // fixes the digest order of the recorded events.
        let mut batch: Vec<(crate::topology::LinkId, bool)> = Vec::new();
        while let Some(&Reverse((t, link, up))) = self.link_schedule.peek() {
            if t > self.now {
                break;
            }
            self.link_schedule.pop();
            batch.push((crate::topology::LinkId(link), up));
        }
        if batch.is_empty() {
            return Ok(());
        }
        // Validated at insertion; re-propagate rather than panic in case
        // the invariant is ever broken.
        self.apply_link_transitions(&batch)
    }

    /// Exact octets delivered over a directed interface since t=0: the
    /// integral of its rate, derived at [`Simulator::now`].
    pub fn dirlink_octets(&self, d: DirLink) -> f64 {
        self.core.octets(d.index(), self.now)
    }

    /// Octets sent *by* `node` onto `link` (the `ifOutOctets` of that
    /// node's interface on the link).
    pub fn iface_out_octets(&self, node: NodeId, link: crate::topology::LinkId) -> f64 {
        let dir = self.topo.link(link).direction_from(node);
        self.dirlink_octets(DirLink { link, dir })
    }

    /// Instantaneous aggregate rate over a directed interface, bits/s:
    /// the sum over the flows crossing it, in ascending id order.
    pub fn dirlink_rate(&mut self, d: DirLink) -> Bps {
        self.recompute_rates_if_dirty();
        self.core.rate_sum(d.index())
    }

    /// Instantaneous aggregate rate of flows with a given tag over a
    /// directed interface (oracle view used by tests and ablations).
    pub fn dirlink_rate_by_tag(&mut self, d: DirLink, tag: FlowTag) -> Bps {
        self.recompute_rates_if_dirty();
        self.core
            .members(d.index())
            .iter()
            .filter(|&&(_, s)| self.slots[s as usize].params.tag == tag)
            .map(|&(_, s)| self.core.rate(s))
            .sum()
    }

    /// True when no pending flow or link change could alter the solved
    /// rates: [`Simulator::dirlink_rate_settled`] reads are valid.
    pub fn rates_settled(&self) -> bool {
        self.core.is_settled()
    }

    /// Solve any pending rate changes now, so that shared-read consumers
    /// (shard collectors holding only a `SimCell::read` guard) can use
    /// [`Simulator::dirlink_rate_settled`] without exclusive access.
    pub fn settle_rates(&mut self) {
        self.recompute_rates_if_dirty();
    }

    /// Instantaneous aggregate rate over a directed interface, bits/s,
    /// without re-solving. Valid only while [`Simulator::rates_settled`]
    /// holds; it is the same membership sum [`Simulator::dirlink_rate`]
    /// returns, so the two read bit-identical values.
    pub fn dirlink_rate_settled(&self, d: DirLink) -> Bps {
        debug_assert!(self.rates_settled(), "dirlink_rate_settled read on unsettled rates");
        self.core.rate_sum(d.index())
    }

    /// Solve what changed since the last solve (the core's `recompute`,
    /// in the current [`SolverMode`]), tallied by mode.
    fn recompute_rates_if_dirty(&mut self) {
        if self.core.is_settled() {
            return;
        }
        let (name, counter) = if self.core.mode() == SolverMode::Full {
            self.full_recomputes += 1;
            ("engine.solve.full", &self.obs_metrics.full_recomputes)
        } else {
            self.scoped_recomputes += 1;
            ("engine.solve.scoped", &self.obs_metrics.scoped_recomputes)
        };
        counter.inc();
        let span = self.obs.span(name, self.now.as_nanos());
        let t0 = self.obs.clock_nanos();
        let flows = self.core.recompute(self.now) as u64;
        self.obs_metrics.solve_scope_flows.observe(flows);
        if let (Some(t0), Some(t1)) = (t0, self.obs.clock_nanos()) {
            self.obs_metrics.solve_latency_nanos.observe(t1.saturating_sub(t0));
        }
        span.end(self.now.as_nanos(), &[("flows", flows)]);
        self.check_allocation();
    }

    /// Debug/audit hook run after every recomputation. In debug builds the
    /// current allocation (rates, and each resource's capacity minus its
    /// members' rates, clamped, as the residual) is asserted
    /// against the max-min invariants; with the audit enabled, violations
    /// are collected instead, and a shadow [`maxmin::solve`] cross-checks
    /// every rate bit-for-bit (divergence is reported as
    /// [`AuditViolation::SolverDivergence`]).
    fn check_allocation(&mut self) {
        if self.audit.is_none() && !cfg!(debug_assertions) {
            return;
        }
        let (core, caps) = (&self.core, self.core.capacities());
        let specs = core.live_specs();
        let alloc = maxmin::Allocation {
            rates: core.order().iter().map(|&(_, s)| core.rate(s)).collect(),
            residual: (0..caps.len()).map(|r| (caps[r] - core.rate_sum(r)).max(0.0)).collect(),
        };
        let violations = self.audit.unwrap_or_default().check(caps, &specs, &alloc);
        debug_assert!(violations.is_empty(), "engine produced invalid allocation: {violations:?}");
        if self.audit.is_some() {
            self.audit_violations.extend(violations);
            let full = maxmin::solve(caps, &specs);
            let flows = core.order().iter().zip(&alloc.rates).zip(&full.rates);
            let diverged = flows.filter(|&(got, want)| got.1.to_bits() != want.to_bits());
            self.audit_violations.extend(diverged.map(|((&(flow, _), &incremental), &full)| {
                AuditViolation::SolverDivergence { flow, incremental, full }
            }));
        }
    }

    /// Step the clock by `dt`. Progress and octet counters are derived
    /// from `now` when read, so no flow is touched.
    fn advance(&mut self, dt: SimDuration) {
        // DES monotonic-clock audit: `now` may only stand still or move
        // forward. Impossible to violate today (unsigned add), but the
        // tripwire survives refactors that change how time is stepped.
        let before = self.now;
        self.now += dt;
        debug_assert!(self.now >= before, "simulation clock moved backwards");
        if let Some(audit) = self.audit {
            if let Some(v) = audit.check_clock(before, self.now) {
                self.audit_violations.push(v);
            }
        }
    }

    fn next_process_fire(&self) -> SimTime {
        self.schedule.peek().map_or(SimTime::MAX, |Reverse((t, _))| *t)
    }

    fn complete_due_flows(&mut self) {
        // The core pops due flows in id order, so records of simultaneous
        // completions land in the `finished` log (and the event digest) in
        // a deterministic order.
        while let Some(id) = self.core.pop_due(self.now) {
            self.retire_flow(id, true);
            self.settle_watches(&[id]);
        }
    }

    /// Remove finished flow ids from completion watches; empty watches
    /// fire their process immediately.
    fn settle_watches(&mut self, finished: &[u64]) {
        if self.watches.is_empty() || finished.is_empty() {
            return;
        }
        let now = self.now;
        let mut fired = Vec::new();
        self.watches.retain_mut(|(set, pid)| {
            for id in finished {
                set.remove(id);
            }
            if set.is_empty() {
                fired.push(*pid);
                false
            } else {
                true
            }
        });
        for pid in fired {
            self.schedule.push(Reverse((now, pid)));
        }
    }

    fn fire_due_processes(&mut self) {
        while let Some(&Reverse((t, pid))) = self.schedule.peek() {
            if t > self.now {
                break;
            }
            self.schedule.pop();
            let Some(mut proc_) = self.processes[pid].take() else { continue };
            let mut actions = Vec::new();
            let next = {
                let mut ctx = ProcessCtx { actions: &mut actions, next_id: self.next_id };
                proc_.fire(self.now, &mut ctx)
            };
            // Apply queued actions.
            let mut registered_watch = false;
            for a in actions {
                match a {
                    ProcessAction::Start(params, id) => {
                        debug_assert_eq!(id, self.next_id, "reserved flow id out of sync");
                        // Errors from background generators are swallowed by
                        // design (a generator pointed at an unroutable pair
                        // simply produces nothing), but the reserved id must
                        // still be consumed to keep later handles in sync.
                        if self.start_flow(params).is_err() {
                            self.next_id = self.next_id.max(id + 1);
                        }
                    }
                    ProcessAction::Stop(h) => {
                        // A generator stopping an already-finished flow
                        // is routine, not an error; the record it would
                        // return is not wanted here.
                        self.stop_flow(h).ok();
                    }
                    ProcessAction::NotifyWhenComplete(handles) => {
                        registered_watch = true;
                        let set: std::collections::BTreeSet<u64> = handles
                            .iter()
                            .map(|h| h.0)
                            .filter(|&id| self.core.slot_of(id).is_some())
                            .collect();
                        if set.is_empty() {
                            // Everything already finished: fire right away.
                            self.schedule.push(Reverse((self.now, pid)));
                        } else {
                            self.watches.push((set, pid));
                        }
                    }
                }
            }
            if let Some(next_t) = next {
                let next_t = if next_t <= self.now {
                    self.now + SimDuration::from_nanos(1)
                } else {
                    next_t
                };
                self.processes[pid] = Some(proc_);
                self.schedule.push(Reverse((next_t, pid)));
            } else if registered_watch {
                // Kept alive: the completion watch will fire it.
                self.processes[pid] = Some(proc_);
            }
        }
    }

    /// Run the simulation up to `target` (inclusive).
    pub fn run_until(&mut self, target: SimTime) -> Result<()> {
        while self.now < target {
            self.apply_due_link_changes()?;
            self.fire_due_processes();
            self.recompute_rates_if_dirty();
            let t_next = self
                .core
                .next_completion()
                .min(self.next_process_fire())
                .min(self.next_link_change())
                .min(target);
            if t_next > self.now {
                let dt = t_next.since(self.now);
                self.advance(dt);
            }
            self.complete_due_flows();
            self.apply_due_link_changes()?;
            self.fire_due_processes();
            if self.now >= target {
                break;
            }
        }
        // Completions exactly at `target`.
        self.recompute_rates_if_dirty();
        self.complete_due_flows();
        Ok(())
    }

    /// Run for a span of simulated time.
    pub fn run_for(&mut self, d: SimDuration) -> Result<()> {
        let target = self.now.checked_add(d);
        self.run_until(target.ok_or_else(|| NetError::Invalid(format!("{d} past the clock")))?)
    }

    /// Run until every listed flow has finished; returns their records in
    /// the same order. Errors with [`NetError::Stalled`] if the listed
    /// flows can never finish (zero rate and no scheduled process).
    pub fn run_until_flows_complete(&mut self, handles: &[FlowHandle]) -> Result<Vec<FlowRecord>> {
        let pending: Vec<u64> = handles.iter().map(|h| h.0).collect();
        loop {
            if pending.iter().all(|&id| self.core.slot_of(id).is_none()) {
                break;
            }
            self.apply_due_link_changes()?;
            self.fire_due_processes();
            if pending.iter().all(|&id| self.core.slot_of(id).is_none()) {
                break; // a link failure may have terminated a waited flow
            }
            self.recompute_rates_if_dirty();
            let t_next = self
                .core
                .next_completion()
                .min(self.next_process_fire())
                .min(self.next_link_change());
            if t_next == SimTime::MAX {
                return Err(NetError::Stalled);
            }
            let dt = t_next.since(self.now);
            self.advance(dt);
            self.complete_due_flows();
            self.apply_due_link_changes()?;
            self.fire_due_processes();
        }
        // Collect records in request order.
        let mut out = Vec::with_capacity(pending.len());
        for id in pending {
            let rec = self
                .finished
                .iter()
                .rev()
                .find(|r| r.id == id)
                .cloned()
                .ok_or(NetError::UnknownFlow(id))?;
            out.push(rec);
        }
        Ok(out)
    }

    /// Static capacity of a directed interface, bits/s.
    pub fn dirlink_capacity(&self, d: DirLink) -> Bps {
        self.core.capacities()[d.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TopologyBuilder;
    use crate::units::{mbps, mib};

    /// h1 -- r -- h2 and h3 -- r (star), 100 Mbps links.
    fn star() -> (Simulator, NodeId, NodeId, NodeId) {
        let mut b = TopologyBuilder::new();
        let h1 = b.compute("h1");
        let h2 = b.compute("h2");
        let h3 = b.compute("h3");
        let r = b.network("r");
        for h in [h1, h2, h3] {
            b.link(h, r, mbps(100.0), SimDuration::from_micros(10)).unwrap();
        }
        (Simulator::new(b.build().unwrap()).unwrap(), h1, h2, h3)
    }

    #[test]
    fn bulk_transfer_timing() {
        let (mut sim, h1, h2, _) = star();
        // 12.5 MB at 100 Mbps = 1.0 s
        let f = sim.start_flow(FlowParams::bulk(h1, h2, 12_500_000)).unwrap();
        let recs = sim.run_until_flows_complete(&[f]).unwrap();
        assert!((sim.now().as_secs_f64() - 1.0).abs() < 1e-6, "{}", sim.now());
        assert!(recs[0].completed);
        assert!((recs[0].bytes - 12_500_000.0).abs() < 1.0);
    }

    #[test]
    fn two_flows_share_receiver_link() {
        let (mut sim, h1, h2, h3) = star();
        // Both h1->h2 and h3->h2 converge on h2's downlink: 50 Mbps each.
        let f1 = sim.start_flow(FlowParams::bulk(h1, h2, 12_500_000)).unwrap();
        let f2 = sim.start_flow(FlowParams::bulk(h3, h2, 12_500_000)).unwrap();
        let recs = sim.run_until_flows_complete(&[f1, f2]).unwrap();
        assert!((sim.now().as_secs_f64() - 2.0).abs() < 1e-6, "{}", sim.now());
        assert!(recs.iter().all(|r| r.completed));
    }

    #[test]
    fn early_finisher_releases_bandwidth() {
        let (mut sim, h1, h2, h3) = star();
        // f1 carries half the bytes of f2. Phase 1 (both active): 50 Mbps
        // each; f1 finishes at t=1. Phase 2: f2 alone at 100 Mbps finishes
        // the remaining 6.25 MB in 0.5 s => total 1.5 s.
        let f1 = sim.start_flow(FlowParams::bulk(h1, h2, 6_250_000)).unwrap();
        let f2 = sim.start_flow(FlowParams::bulk(h3, h2, 12_500_000)).unwrap();
        sim.run_until_flows_complete(&[f1, f2]).unwrap();
        assert!((sim.now().as_secs_f64() - 1.5).abs() < 1e-6, "{}", sim.now());
    }

    #[test]
    fn cbr_flow_limits_itself() {
        let (mut sim, h1, h2, _) = star();
        let f = sim.start_flow(FlowParams::cbr(h1, h2, mbps(10.0))).unwrap();
        sim.run_for(SimDuration::from_secs(2)).unwrap();
        let sent = sim.flow_bytes_sent(f).unwrap();
        assert!((sent - 2.5e6).abs() < 10.0, "sent {sent}");
    }

    #[test]
    fn counters_advance() {
        let (mut sim, h1, h2, _) = star();
        sim.start_flow(FlowParams::cbr(h1, h2, mbps(80.0))).unwrap();
        sim.run_for(SimDuration::from_secs(1)).unwrap();
        // h1's uplink carries 10 MB.
        let link = sim.topology().neighbors(h1)[0].0;
        let octets = sim.iface_out_octets(h1, link);
        assert!((octets - 1e7).abs() < 10.0, "{octets}");
        // Reverse direction carries nothing.
        let dir = sim.topology().link(link).direction_from(h1).reverse();
        assert_eq!(sim.dirlink_octets(DirLink { link, dir }), 0.0);
    }

    #[test]
    fn stop_flow_returns_record() {
        let (mut sim, h1, h2, _) = star();
        let f = sim.start_flow(FlowParams::greedy(h1, h2)).unwrap();
        sim.run_for(SimDuration::from_secs(1)).unwrap();
        let rec = sim.stop_flow(f).unwrap();
        assert!(!rec.completed);
        assert!((rec.bytes - 12.5e6).abs() < 10.0);
        assert!(!sim.flow_is_active(f));
        assert!(sim.stop_flow(f).is_err());
    }

    #[test]
    fn stalled_detection() {
        let (mut sim, h1, h2, h3) = star();
        // Saturate h2's downlink with a greedy persistent flow... a greedy
        // flow still shares, so instead: a flow with zero possible rate
        // cannot exist here. Use volume flow blocked by nothing => must
        // complete; the stall test needs an actually-stuck flow, which the
        // engine only produces with a zero-capacity path. Simplest: wait on
        // a persistent flow, which never completes.
        let _ = h3;
        let f = sim.start_flow(FlowParams::greedy(h1, h2)).unwrap();
        assert!(matches!(
            sim.run_until_flows_complete(&[f]),
            Err(NetError::Stalled)
        ));
    }

    #[test]
    fn weighted_sharing() {
        let (mut sim, h1, h2, h3) = star();
        let f1 = sim
            .start_flow(FlowParams::greedy(h1, h2).with_weight(3.0))
            .unwrap();
        let f2 = sim.start_flow(FlowParams::greedy(h3, h2)).unwrap();
        assert!((sim.flow_rate(f1).unwrap() - mbps(75.0)).abs() < 1.0);
        assert!((sim.flow_rate(f2).unwrap() - mbps(25.0)).abs() < 1.0);
    }

    #[test]
    fn backplane_limits_aggregate() {
        // Fig 1 semantics: a switch with 10 Mbps internal bandwidth caps the
        // sum of traffic through it even over 100 Mbps links.
        let mut b = TopologyBuilder::new();
        let h1 = b.compute("h1");
        let h2 = b.compute("h2");
        let h3 = b.compute("h3");
        let h4 = b.compute("h4");
        let sw = b.network_with_internal_bw("sw", mbps(10.0));
        for h in [h1, h2, h3, h4] {
            b.link(h, sw, mbps(100.0), SimDuration::ZERO).unwrap();
        }
        let mut sim = Simulator::new(b.build().unwrap()).unwrap();
        let f1 = sim.start_flow(FlowParams::greedy(h1, h2)).unwrap();
        let f2 = sim.start_flow(FlowParams::greedy(h3, h4)).unwrap();
        let r1 = sim.flow_rate(f1).unwrap();
        let r2 = sim.flow_rate(f2).unwrap();
        assert!((r1 + r2 - mbps(10.0)).abs() < 1.0, "{r1} + {r2}");
        assert!((r1 - r2).abs() < 1.0);
    }

    #[test]
    fn uncapped_backplane_does_not_limit() {
        let (mut sim, h1, h2, h3) = star();
        let f1 = sim.start_flow(FlowParams::greedy(h1, h2)).unwrap();
        let f2 = sim.start_flow(FlowParams::greedy(h2, h3)).unwrap();
        // Disjoint directed paths: both get full 100 Mbps.
        assert!((sim.flow_rate(f1).unwrap() - mbps(100.0)).abs() < 1.0);
        assert!((sim.flow_rate(f2).unwrap() - mbps(100.0)).abs() < 1.0);
    }

    #[test]
    fn full_duplex_independence() {
        let (mut sim, h1, h2, _) = star();
        let f1 = sim.start_flow(FlowParams::greedy(h1, h2)).unwrap();
        let f2 = sim.start_flow(FlowParams::greedy(h2, h1)).unwrap();
        assert!((sim.flow_rate(f1).unwrap() - mbps(100.0)).abs() < 1.0);
        assert!((sim.flow_rate(f2).unwrap() - mbps(100.0)).abs() < 1.0);
    }

    #[test]
    fn tag_filtered_rates() {
        let (mut sim, h1, h2, h3) = star();
        sim.start_flow(FlowParams::cbr(h1, h2, mbps(30.0)).with_tag(FlowTag::APP))
            .unwrap();
        sim.start_flow(
            FlowParams::cbr(h3, h2, mbps(20.0)).with_tag(FlowTag::BACKGROUND),
        )
        .unwrap();
        let link = sim.topology().neighbors(h2)[0].0;
        let dir = sim.topology().link(link).direction_from(h2).reverse();
        let d = DirLink { link, dir };
        assert!((sim.dirlink_rate(d) - mbps(50.0)).abs() < 1.0);
        assert!((sim.dirlink_rate_by_tag(d, FlowTag::APP) - mbps(30.0)).abs() < 1.0);
        assert!(
            (sim.dirlink_rate_by_tag(d, FlowTag::BACKGROUND) - mbps(20.0)).abs() < 1.0
        );
        assert_eq!(sim.dirlink_rate_by_tag(d, FlowTag::PROBE), 0.0);
        assert_eq!(sim.dirlink_capacity(d), mbps(100.0));
    }

    #[test]
    fn run_until_is_idempotent_at_target() {
        let (mut sim, h1, h2, _) = star();
        sim.start_flow(FlowParams::cbr(h1, h2, mbps(10.0))).unwrap();
        sim.run_until(SimTime::from_secs(5)).unwrap();
        sim.run_until(SimTime::from_secs(5)).unwrap();
        assert_eq!(sim.now(), SimTime::from_secs(5));
    }

    #[test]
    fn invalid_flow_params_rejected() {
        let (mut sim, h1, h2, _) = star();
        assert!(sim.start_flow(FlowParams::bulk(h1, h1, 10)).is_err());
        assert!(sim
            .start_flow(FlowParams::greedy(h1, h2).with_weight(0.0))
            .is_err());
        assert!(sim
            .start_flow(FlowParams::greedy(h1, h2).with_rate_cap(-1.0))
            .is_err());
    }

    #[test]
    fn process_fires_and_creates_flows() {
        struct Burst {
            src: NodeId,
            dst: NodeId,
            count: usize,
        }
        impl TrafficProcess for Burst {
            fn fire(&mut self, now: SimTime, ctx: &mut ProcessCtx<'_>) -> Option<SimTime> {
                ctx.start_flow(FlowParams::bulk(self.src, self.dst, mib(1)));
                self.count -= 1;
                if self.count > 0 {
                    Some(now + SimDuration::from_secs(1))
                } else {
                    None
                }
            }
        }
        let (mut sim, h1, h2, _) = star();
        sim.add_process(
            SimTime::from_secs(1),
            Box::new(Burst { src: h1, dst: h2, count: 3 }),
        );
        sim.run_until(SimTime::from_secs(10)).unwrap();
        let finished = sim.take_finished();
        assert_eq!(finished.len(), 3);
        assert!(finished.iter().all(|r| r.completed));
    }

    #[test]
    fn identical_runs_produce_identical_digests() {
        let run = || {
            let (mut sim, h1, h2, h3) = star();
            sim.enable_audit();
            let f1 = sim.start_flow(FlowParams::bulk(h1, h2, 12_500_000)).unwrap();
            let f2 = sim.start_flow(FlowParams::bulk(h3, h2, 12_500_000)).unwrap();
            sim.run_until_flows_complete(&[f1, f2]).unwrap();
            assert!(sim.audit_violations().is_empty(), "{:?}", sim.audit_violations());
            sim.event_digest()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn simultaneous_completions_finish_in_id_order() {
        // Two identical flows complete at the same instant; their records
        // must land in the finished log in id order every run (this was
        // hash-map dependent before the BTreeMap migration).
        let (mut sim, h1, h2, h3) = star();
        let f1 = sim.start_flow(FlowParams::bulk(h1, h2, 12_500_000)).unwrap();
        let f2 = sim.start_flow(FlowParams::bulk(h3, h2, 12_500_000)).unwrap();
        sim.run_until_flows_complete(&[f1, f2]).unwrap();
        let finished = sim.take_finished();
        let ids: Vec<u64> = finished.iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![0, 1]);
        assert_eq!(finished[0].finished, finished[1].finished);
    }

    #[test]
    fn audit_runs_clean_across_link_flaps() {
        let (mut sim, h1, h2, h3) = star();
        sim.enable_audit();
        let link = sim.topology().neighbors(h3)[0].0;
        sim.start_flow(FlowParams::greedy(h1, h2)).unwrap();
        sim.schedule_link_state(SimTime::from_millis(200), link, false).unwrap();
        sim.schedule_link_state(SimTime::from_millis(700), link, true).unwrap();
        sim.run_until(SimTime::from_secs(1)).unwrap();
        assert!(sim.audit_violations().is_empty(), "{:?}", sim.audit_violations());
    }

    #[test]
    fn link_failure_reroutes_flow() {
        // h1 - r1 - h2 primary, h1 - r2 - r3 - h2 backup (longer).
        let mut b = TopologyBuilder::new();
        let h1 = b.compute("h1");
        let h2 = b.compute("h2");
        let r1 = b.network("r1");
        let r2 = b.network("r2");
        let r3 = b.network("r3");
        let lat = SimDuration::from_micros(10);
        let primary = b.link(h1, r1, mbps(100.0), lat).unwrap();
        b.link(r1, h2, mbps(100.0), lat).unwrap();
        b.link(h1, r2, mbps(50.0), lat).unwrap();
        b.link(r2, r3, mbps(50.0), lat).unwrap();
        b.link(r3, h2, mbps(50.0), lat).unwrap();
        let mut sim = Simulator::new(b.build().unwrap()).unwrap();

        let f = sim.start_flow(FlowParams::greedy(h1, h2)).unwrap();
        assert!((sim.flow_rate(f).unwrap() - mbps(100.0)).abs() < 1.0);

        sim.set_link_state(primary, false).unwrap();
        // Rerouted onto the 50 Mbps backup, bytes preserved.
        assert!(sim.flow_is_active(f));
        assert!((sim.flow_rate(f).unwrap() - mbps(50.0)).abs() < 1.0);
        let events = sim.take_link_events();
        assert_eq!(events.len(), 1);
        assert!(!events[0].up);

        // Restoring the link moves the flow back to the best path.
        sim.set_link_state(primary, true).unwrap();
        assert!((sim.flow_rate(f).unwrap() - mbps(100.0)).abs() < 1.0);
        assert!(sim.take_link_events().iter().any(|e| e.up));
    }

    #[test]
    fn link_failure_without_backup_kills_flow() {
        let (mut sim, h1, h2, _) = star();
        let link = sim.topology().neighbors(h1)[0].0;
        let f = sim.start_flow(FlowParams::bulk(h1, h2, mib(100))).unwrap();
        sim.run_for(SimDuration::from_millis(100)).unwrap();
        sim.set_link_state(link, false).unwrap();
        assert!(!sim.flow_is_active(f));
        let rec = sim
            .take_finished()
            .into_iter()
            .find(|r| r.id == 0)
            .unwrap();
        assert!(!rec.completed);
        assert!(rec.bytes > 0.0);
        // New flows over the dead link are rejected.
        assert!(matches!(
            sim.start_flow(FlowParams::greedy(h1, h2)),
            Err(NetError::NoRoute { .. })
        ));
        assert!(!sim.link_is_up(link));
    }

    #[test]
    fn scheduled_link_flap_affects_transfer_timing() {
        // 12.5 MB at 100 Mbps takes 1 s; a 2-second outage in the middle
        // (no backup path) stalls the flow... with no route the flow dies,
        // so use a backup topology where the outage halves the rate.
        let mut b = TopologyBuilder::new();
        let h1 = b.compute("h1");
        let h2 = b.compute("h2");
        let r1 = b.network("r1");
        let r2 = b.network("r2");
        let lat = SimDuration::from_micros(10);
        let fast = b.link(h1, r1, mbps(100.0), lat).unwrap();
        b.link(r1, h2, mbps(100.0), lat).unwrap();
        b.link(h1, r2, mbps(25.0), lat).unwrap();
        b.link(r2, h2, mbps(25.0), lat).unwrap();
        let mut sim = Simulator::new(b.build().unwrap()).unwrap();
        // Outage of the fast path from t=0.5 s to t=1.5 s.
        sim.schedule_link_state(SimTime::from_millis(500), fast, false).unwrap();
        sim.schedule_link_state(SimTime::from_millis(1500), fast, true).unwrap();
        let f = sim.start_flow(FlowParams::bulk(h1, h2, 12_500_000)).unwrap();
        sim.run_until_flows_complete(&[f]).unwrap();
        // 0.5 s at 100 (6.25 MB) + 1.0 s at 25 (3.125 MB) + remaining
        // 3.125 MB at 100 (0.25 s) = 1.75 s.
        assert!((sim.now().as_secs_f64() - 1.75).abs() < 1e-3, "{}", sim.now());
    }

    #[test]
    fn process_can_stop_its_own_flow() {
        struct OnOff {
            src: NodeId,
            dst: NodeId,
            active: Option<FlowHandle>,
            toggles: usize,
        }
        impl TrafficProcess for OnOff {
            fn fire(&mut self, now: SimTime, ctx: &mut ProcessCtx<'_>) -> Option<SimTime> {
                match self.active.take() {
                    None => {
                        self.active =
                            Some(ctx.start_flow(FlowParams::cbr(self.src, self.dst, mbps(50.0))));
                    }
                    Some(h) => ctx.stop_flow(h),
                }
                self.toggles -= 1;
                (self.toggles > 0).then(|| now + SimDuration::from_secs(1))
            }
        }
        let (mut sim, h1, h2, _) = star();
        sim.add_process(
            SimTime::ZERO,
            Box::new(OnOff { src: h1, dst: h2, active: None, toggles: 4 }),
        );
        // on @0, off @1, on @2, off @3 => active for 2 of 4 seconds.
        sim.run_until(SimTime::from_secs(4)).unwrap();
        let link = sim.topology().neighbors(h1)[0].0;
        let octets = sim.iface_out_octets(h1, link);
        assert!((octets - 2.0 * 50e6 / 8.0).abs() < 10.0, "{octets}");
    }

    #[test]
    fn coalesced_link_transitions_rebuild_routing_once() {
        // Five spokes; the flow uses h0->h1. Three other spokes flap down
        // at the same instant: one routing rebuild, three logged
        // transitions, and the flow is untouched.
        let mut b = TopologyBuilder::new();
        let hs: Vec<NodeId> = (0..5).map(|i| b.compute(&format!("h{i}"))).collect();
        let r = b.network("r");
        let links: Vec<_> = hs
            .iter()
            .map(|&h| b.link(h, r, mbps(100.0), SimDuration::from_micros(10)).unwrap())
            .collect();
        let mut sim = Simulator::new(b.build().unwrap()).unwrap();
        let f = sim.start_flow(FlowParams::cbr(hs[0], hs[1], mbps(10.0))).unwrap();
        for &l in &links[2..] {
            sim.schedule_link_state(SimTime::from_secs(1), l, false).unwrap();
        }
        sim.run_until(SimTime::from_secs(2)).unwrap();
        assert_eq!(sim.routing_rebuilds(), 1);
        assert_eq!(sim.take_link_events().len(), 3);
        assert!(sim.flow_is_active(f));
    }

    #[test]
    fn simultaneous_down_up_keeps_flow_alive() {
        // h1's only link goes down *and* comes back up at the same
        // instant. The coalesced batch applies both flips before
        // re-pathing, so the flow never sees a routeless network; both
        // transitions still land in the event log, down first.
        let (mut sim, h1, h2, _) = star();
        let link = sim.topology().neighbors(h1)[0].0;
        let f = sim.start_flow(FlowParams::cbr(h1, h2, mbps(10.0))).unwrap();
        sim.schedule_link_state(SimTime::from_secs(1), link, true).unwrap();
        sim.schedule_link_state(SimTime::from_secs(1), link, false).unwrap();
        sim.run_until(SimTime::from_secs(2)).unwrap();
        assert!(sim.flow_is_active(f));
        let events = sim.take_link_events();
        assert_eq!(events.len(), 2);
        assert!(!events[0].up);
        assert!(events[1].up);
        assert_eq!(sim.routing_rebuilds(), 1);
    }

    #[test]
    fn incremental_matches_full_rates_and_digest() {
        // The acceptance bar for the scoped solver: the same scenario —
        // arrivals, departures, completions, a mid-run link flap — must
        // produce bit-identical rate digests at every checkpoint and an
        // identical event digest at the end, in both solver modes.
        let run = |mode: SolverMode| {
            let (mut sim, h1, h2, h3) = star();
            sim.set_solver_mode(mode);
            sim.enable_audit();
            let link3 = sim.topology().neighbors(h3)[0].0;
            sim.start_flow(FlowParams::bulk(h1, h2, 12_500_000)).unwrap();
            sim.start_flow(FlowParams::bulk(h3, h2, 6_250_000)).unwrap();
            sim.start_flow(FlowParams::cbr(h2, h1, mbps(30.0))).unwrap();
            sim.schedule_link_state(SimTime::from_millis(400), link3, false).unwrap();
            sim.schedule_link_state(SimTime::from_millis(900), link3, true).unwrap();
            let mut digests = Vec::new();
            for ms in [100u64, 500, 1000, 2500] {
                sim.run_until(SimTime::from_millis(ms)).unwrap();
                digests.push(sim.rates_digest());
            }
            assert!(
                sim.audit_violations().is_empty(),
                "{mode:?}: {:?}",
                sim.audit_violations()
            );
            (digests, sim.event_digest())
        };
        assert_eq!(run(SolverMode::Full), run(SolverMode::Incremental));
    }

    /// The flow-table scan the membership reads replaced, kept as their
    /// reference: every active flow in id order, counted once if its path
    /// crosses `d` (and carries `tag`, when one is given).
    fn scanned_rate(sim: &Simulator, d: DirLink, tag: Option<FlowTag>) -> Bps {
        let crosses = |s: u32| {
            let f = &sim.slots[s as usize];
            f.path.hops.contains(&d) && tag.is_none_or(|t| f.params.tag == t)
        };
        sim.core.order().iter().filter(|&&(_, s)| crosses(s)).map(|&(_, s)| sim.core.rate(s)).sum()
    }

    /// Three edge routers (one capped) with two hosts each, dual-homed to
    /// two cores (one capped): every edge-core link has a detour, so a
    /// link going down re-paths the flows on it instead of killing them.
    fn dual_homed() -> (Simulator, Vec<NodeId>) {
        let mut b = TopologyBuilder::new();
        let lat = SimDuration::from_micros(10);
        let cores = [b.network_with_internal_bw("c0", mbps(120.0)), b.network("c1")];
        let mut hosts = Vec::new();
        for e in 0..3 {
            let edge = match e {
                1 => b.network_with_internal_bw("e1", mbps(150.0)),
                _ => b.network(&format!("e{e}")),
            };
            for (c, &core) in cores.iter().enumerate() {
                b.link(edge, core, mbps(60.0 + 20.0 * (e + c) as f64), lat).unwrap();
            }
            for h in 0..2 {
                let host = b.compute(&format!("e{e}h{h}"));
                b.link(host, edge, mbps(100.0), lat).unwrap();
                hosts.push(host);
            }
        }
        (Simulator::new(b.build().unwrap()).unwrap(), hosts)
    }

    const TAGS: [FlowTag; 3] = [FlowTag::APP, FlowTag::BACKGROUND, FlowTag::PROBE];

    /// Hold every membership read to [`scanned_rate`], bit for bit, on
    /// every directed interface. Returns how many were idle (`-0.0`).
    fn assert_reads_match_scan(sim: &mut Simulator, what: &str) -> u64 {
        let mut idle = 0;
        for i in 0..sim.topology().dir_link_count() {
            let d = DirLink::from_index(i);
            // The `&mut` read goes first: it is the one that settles.
            let got = sim.dirlink_rate(d).to_bits();
            let want = scanned_rate(sim, d, None).to_bits();
            assert_eq!(got, want, "{what} link {i}");
            assert_eq!(sim.dirlink_rate_settled(d).to_bits(), want, "{what} link {i} settled");
            for tag in TAGS {
                let got = sim.dirlink_rate_by_tag(d, tag).to_bits();
                let want = scanned_rate(sim, d, Some(tag)).to_bits();
                assert_eq!(got, want, "{what} link {i} {tag:?}");
            }
            idle += u64::from(want == (-0.0f64).to_bits());
        }
        idle
    }

    /// Every live flow's id with the hops it currently takes.
    fn live_paths(sim: &Simulator) -> Vec<(u64, Vec<DirLink>)> {
        sim.core.order().iter().map(|&(id, s)| (id, sim.slots[s as usize].path.hops.clone())).collect()
    }

    #[test]
    fn membership_reads_match_the_flow_table_scan() {
        use crate::rng::Rng;
        for mode in [SolverMode::Full, SolverMode::Incremental] {
            let (mut idle_reads, mut repaths, mut completions) = (0u64, 0usize, 0usize);
            for seed in 0..24u64 {
                let mut rng = Rng::seed_from_u64(0x5EED_0017 ^ seed);
                let (mut sim, hosts) = dual_homed();
                sim.set_solver_mode(mode);
                let links: Vec<_> = sim.topology().link_ids().collect();
                let mut live: Vec<FlowHandle> = Vec::new();
                for step in 0..60 {
                    match rng.gen_range(0..10u32) {
                        0..=4 => {
                            let src = hosts[rng.gen_range(0..hosts.len())];
                            let dst = hosts[rng.gen_range(0..hosts.len())];
                            let p = match rng.gen_range(0..3u32) {
                                0 => FlowParams::greedy(src, dst),
                                1 => FlowParams::cbr(src, dst, mbps(rng.gen_range(1.0..90.0))),
                                _ => FlowParams::bulk(src, dst, rng.gen_range(10_000..4_000_000)),
                            };
                            // src == dst and cut-off hosts are rejected.
                            let tag = TAGS[rng.gen_range(0..TAGS.len())];
                            live.extend(sim.start_flow(p.with_tag(tag)).ok());
                        }
                        5 if !live.is_empty() => {
                            let h = live.swap_remove(rng.gen_range(0..live.len()));
                            if sim.flow_is_active(h) {
                                sim.stop_flow(h).unwrap();
                            }
                        }
                        6 | 7 => {
                            let l = links[rng.gen_range(0..links.len())];
                            let before = live_paths(&sim);
                            sim.set_link_state(l, !sim.link_is_up(l)).unwrap();
                            // Flows that survived the flip on other hops:
                            // the membership move is what they exercise.
                            let after = live_paths(&sim);
                            let moved = |(id, old): &(u64, Vec<DirLink>)| {
                                after.iter().any(|(a, new)| a == id && new != old)
                            };
                            repaths += before.iter().filter(|f| moved(f)).count();
                        }
                        _ => {
                            let ms = rng.gen_range(1..200u64);
                            sim.run_for(SimDuration::from_millis(ms)).unwrap();
                            let done = sim.take_finished();
                            completions += done.iter().filter(|r| r.completed).count();
                        }
                    }
                    let what = format!("{mode:?} seed {seed} step {step}");
                    idle_reads += assert_reads_match_scan(&mut sim, &what);
                }
            }
            // The generator reached the cases the claim is about.
            assert!(idle_reads > 0 && repaths > 0 && completions > 0, "{mode:?}");
        }
    }

    #[test]
    fn solver_mode_selects_recompute_path() {
        let (mut sim, h1, h2, _) = star();
        assert_eq!(sim.solver_mode(), SolverMode::Incremental);
        let f = sim.start_flow(FlowParams::cbr(h1, h2, mbps(10.0))).unwrap();
        let _ = sim.flow_rate(f).unwrap();
        assert!(sim.scoped_recomputes() > 0);
        assert_eq!(sim.full_recomputes(), 0);

        sim.set_solver_mode(SolverMode::Full);
        let f2 = sim.start_flow(FlowParams::cbr(h2, h1, mbps(10.0))).unwrap();
        let _ = sim.flow_rate(f2).unwrap();
        assert!(sim.full_recomputes() > 0);
    }

    #[test]
    fn unaffected_flap_skips_rate_recomputation() {
        // A flap on a link no flow crosses rebuilds routing but leaves
        // every path unchanged, so the rates never go dirty and the
        // solver is not re-run at all.
        let (mut sim, h1, h2, h3) = star();
        let f = sim.start_flow(FlowParams::cbr(h1, h2, mbps(10.0))).unwrap();
        let _ = sim.flow_rate(f).unwrap(); // settle the initial recompute
        let before = sim.scoped_recomputes();
        let l3 = sim.topology().neighbors(h3)[0].0;
        sim.set_link_state(l3, false).unwrap();
        let _ = sim.flow_rate(f).unwrap();
        assert_eq!(sim.scoped_recomputes(), before);
        assert_eq!(sim.routing_rebuilds(), 1);
    }
}
