//! The fluid model, once: what [`Simulator`](crate::Simulator) and
//! [`WhatIfEngine`](crate::WhatIfEngine) both run. [`Core`] holds the flow
//! table (per slot: id, weight, cap, resources, rate, progress and freeze
//! key), the live flows in ascending id order, which of them cross which
//! resource, the completion heap and what changed since the last solve. On
//! those it runs the model's event-loop primitives: the solve
//! ([`SolverMode::Full`] fills every live flow with [`maxmin::solve`];
//! [`SolverMode::Incremental`] sweeps what the change reaches), the rate
//! install, the next completion and the due pop.
//!
//! Only the simulator's core meters octets. `Core<true>` keeps each
//! resource's octet counter and member-rate sum, which the SNMP-visible
//! interface counters and link utilisation read; the what-if kernel's
//! `Core<false>` has no counter array, and every fold and re-sum that
//! keeps the counters compiles out of it. No solve reads a counter, so the
//! two flavours install the same rates at the same instants, bit for bit.
//!
//! The callers keep what differs: the simulator its routing, link state,
//! processes and audit; the what-if kernel its arrivals and horizon. Every
//! loop over flows goes in ascending flow id, over a flow's resources in
//! ascending index. That order is the specification: it fixes every
//! summation, so it fixes every bit the digests pin.
//!
//! ## Time costs what changed
//!
//! There is no clock step: between events rates are constant, so a slot
//! keeps its progress as `(remaining_at, sent_at, t_at)` and (in the
//! simulator's core) a resource its counter as `(octets_at, t_at,
//! sum_at)`, `sum_at` being its members' rates summed in id order; both
//! are derived at `now` when read. A rate install that changes the rate
//! bitwise, or a start, retire or re-path, first folds the old rate (and
//! sum) up to `now`; sums are summed again once the event is over. The
//! flows with a finite ETA sit once each in a min-heap keyed `(eta, id)`:
//! its top is the next completion, and the flows due pop off it in id
//! order. An event costs the flows it re-solves × their hops × `log n`.
//! docs/PERFORMANCE.md argues why that is the stepwise integral within
//! rounding.
//!
//! ## A delta re-solves what it changes
//!
//! The fill ([`maxmin::solve`]) freezes flows in the order of their keys
//! — `(share key, cap-before-pop, bottleneck resource, flow id)` — and a
//! resource's pop key is a function of its state, which is a function of
//! which of its members froze before it, at what rate and in what order.
//! So every solved flow keeps its key, and a solve is a **sweep in key
//! order over the dirty resources** only:
//!
//! - a resource is dirty when a member joined or left it, or when one of
//!   its members froze at a (rate, key) other than its stored one (or did
//!   not freeze at its stored key); it is dirty from that point on;
//! - a dirty resource's state is rebuilt from its members' keys: capacity
//!   minus the rates frozen before that point, subtracted in key order, and
//!   the id-order weight sum minus the same flows' weights, in key order;
//!   from then on it pops when its key is the least pending one;
//! - a clean resource is never visited: its pops replay from the stored
//!   keys of the flows it froze, and a pop that comes out bit-equal to its
//!   old one dirties nothing, so propagation ends there.
//!
//! A resource whose members' rate bounds (`min(cap, least capacity on the
//! path)`), summed in id order, fall below its capacity is *slack*: it
//! never pops with an active flow, so a dirty slack resource is not
//! rebuilt — only the flows it used to freeze are swept, to find where
//! they freeze now. A `Tally` per resource makes that O(1) while none
//! froze there: it counts the members whose stored key names it, and
//! keeps their bounds' sum as they join and leave, with an error band
//! wider than both that running sum's rounding and the id-order sum's.
//! The band decides the test unless the threshold lies inside it, where
//! the id-order sum decides, so the test is exactly the id-order one.
//! The sweep with every flow dirty is a full solve. docs/PERFORMANCE.md
//! has the argument.

use crate::maxmin::{self, pop_key, share_key, Event, FlowSpec, EPS, UNBOUNDED};
use crate::time::{SimDuration, SimTime};
use crate::units::Bps;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Which rate-recomputation strategy a [`Simulator`](crate::Simulator) or
/// [`WhatIfEngine`](crate::WhatIfEngine) uses.
///
/// Both modes produce **bit-identical** allocations, event digests, and
/// completion orders — the determinism tests assert it — so the choice is
/// purely a performance knob. See `docs/PERFORMANCE.md` for the invariants
/// that make the equivalence hold.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SolverMode {
    /// Solve every live flow from scratch with [`maxmin::solve`] on each
    /// recomputation: the reference the sweep is held to.
    Full,
    /// Re-solve only what changed since the last recomputation reaches: a
    /// sweep over the dirty resources, in which every other flow's freeze
    /// replays from its stored key. The default.
    #[default]
    Incremental,
}

/// What changed since the last rate recomputation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Dirty {
    /// Nothing: the cached rates are valid.
    Clean,
    /// Only what the touched resources reach may change.
    Touched,
    /// Everything must be recomputed (mode switches).
    All,
}

/// When `remaining` bytes finish at `rate` bits/s from `now`: `now` once
/// at most a millionth of a byte is left, whatever the rate;
/// [`SimTime::MAX`] (never) for a persistent or starved flow, and also
/// when the span is not finite or runs past the end of the clock — a
/// near-zero rate is a starved flow, not a clock overflow.
fn completion_eta(now: SimTime, remaining: f64, rate: Bps) -> SimTime {
    if remaining <= 1e-6 {
        return now;
    }
    let secs = remaining * 8.0 / rate;
    if rate > 0.0 && secs.is_finite() {
        now.checked_add(SimDuration::from_secs_f64(secs)).unwrap_or(SimTime::MAX)
    } else {
        SimTime::MAX
    }
}

/// One slot of the flow table.
struct Slot {
    id: u64,
    weight: f64,
    cap: Option<f64>,
    /// Resource indices (dir-links, then backplanes) the flow loads. A
    /// retired slot keeps the buffer, so the next flow through it
    /// allocates nothing.
    resources: Vec<usize>,
    rate: Bps,
    /// Progress at `t_at`, when the rate last changed (or the flow
    /// started): bytes left (`f64::INFINITY` for a persistent flow) and
    /// bytes sent.
    remaining_at: f64,
    sent_at: f64,
    t_at: SimTime,
    /// The event that froze it in the last sweep (meaningless while fresh).
    key: Event,
}

impl Slot {
    /// `(bytes sent, bytes left)` at `now`: the progress at `t_at` plus
    /// what the installed rate has carried since.
    fn progress(&self, now: SimTime) -> (f64, f64) {
        let dt = now.saturating_since(self.t_at);
        if dt.is_zero() {
            return (self.sent_at, self.remaining_at);
        }
        let bytes = self.rate * dt.as_secs_f64() / 8.0;
        let left = if self.remaining_at.is_finite() { (self.remaining_at - bytes).max(0.0) } else { f64::INFINITY };
        (self.sent_at + bytes, left)
    }

    /// Make `now` the instant the progress is kept at.
    fn fold(&mut self, now: SimTime) {
        (self.sent_at, self.remaining_at) = self.progress(now);
        self.t_at = now;
    }
}

/// A resource's octet counter, kept as of `t_at`: the octets carried by
/// then, and `sum_at`, the id-order sum of its members' rates since.
#[derive(Clone, Copy)]
struct Counter {
    octets_at: f64,
    t_at: SimTime,
    sum_at: Bps,
    /// Queued for `sum_at` to be summed again.
    stale: bool,
}

/// A resource nothing has crossed: `sum_at` is the empty sum, `-0.0`.
const IDLE: Counter = Counter { octets_at: 0.0, t_at: SimTime::ZERO, sum_at: -0.0, stale: false };

impl Counter {
    fn octets(&self, now: SimTime) -> f64 {
        let dt = now.saturating_since(self.t_at);
        if dt.is_zero() { self.octets_at } else { self.octets_at + self.sum_at * dt.as_secs_f64() / 8.0 }
    }
}

/// The octet counters, and the resources whose `sum_at` is stale; both
/// empty in a core that does not meter octets.
struct Counters {
    at: Vec<Counter>,
    stale: Vec<usize>,
}

impl Counters {
    /// Fold each of `resources` to `now` at its current sum, and queue the
    /// sum to be summed again: a member's rate or the membership changes.
    fn fold(&mut self, resources: &[usize], now: SimTime) {
        for &r in resources {
            let c = &mut self.at[r];
            (c.octets_at, c.t_at) = (c.octets(now), now);
            if !c.stale {
                c.stale = true;
                self.stale.push(r);
            }
        }
    }
}

/// Where a slot sits in no heap.
const ABSENT: u32 = u32::MAX;

/// The flows with a finite ETA: a binary min-heap on `(eta, id, slot)`,
/// with each slot's index in it, so an ETA moves instead of going stale.
#[derive(Default)]
struct Etas {
    heap: Vec<(SimTime, u64, u32)>,
    /// Per slot: its index in `heap`, or [`ABSENT`].
    place: Vec<u32>,
}

impl Etas {
    /// The earliest ETA ([`SimTime::MAX`] if none).
    fn next(&self) -> SimTime {
        self.heap.first().map_or(SimTime::MAX, |e| e.0)
    }

    /// Set flow `id`'s ETA (it sits in `slot`); [`SimTime::MAX`] takes it
    /// out.
    fn set(&mut self, slot: u32, id: u64, eta: SimTime) {
        let at = self.place[slot as usize];
        if eta == SimTime::MAX {
            if at != ABSENT {
                self.remove(at as usize);
            }
        } else {
            let i = if at == ABSENT {
                self.heap.push((eta, id, slot));
                self.heap.len() - 1
            } else {
                at as usize
            };
            (self.heap[i].0, self.place[slot as usize]) = (eta, i as u32);
            self.sift(i);
        }
    }

    /// Take out the entry at `i`.
    fn remove(&mut self, i: usize) {
        let last = self.heap.len() - 1;
        self.swap(i, last);
        self.place[self.heap[last].2 as usize] = ABSENT;
        self.heap.pop();
        if i < last {
            self.sift(i);
        }
    }

    fn swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.place[self.heap[a].2 as usize] = a as u32;
        self.place[self.heap[b].2 as usize] = b as u32;
    }

    /// Move the entry at `i` up or down to where the heap order holds.
    fn sift(&mut self, mut i: usize) {
        while i > 0 && self.heap[i] < self.heap[(i - 1) / 2] {
            self.swap(i, (i - 1) / 2);
            i = (i - 1) / 2;
        }
        loop {
            let l = 2 * i + 1;
            let c = if l + 1 < self.heap.len() && self.heap[l + 1] < self.heap[l] { l + 1 } else { l };
            if c >= self.heap.len() || self.heap[i] <= self.heap[c] {
                return;
            }
            self.swap(i, c);
            i = c;
        }
    }
}

/// A point of the sweep: `(share key, event, sub, slot)`, `sub` being 0
/// for a resource's pop and `id + 1` for the freeze at that event of flow
/// `id`, which sits in `slot`.
type Pos = (u64, u64, u64, u32);

/// Before every event.
const BOTTOM: Pos = (0, 0, 0, 0);

/// The resource whose pop `event` is (out of range for a cap event and
/// for [`UNBOUNDED`]).
fn named(event: Event) -> usize {
    event.1.wrapping_sub(1) as usize
}

/// Where flow `id` (in `slot`) froze, or is due to, by `event`.
fn at(event: Event, id: u64, slot: u32) -> Pos {
    (event.0, event.1, id + 1, slot)
}

/// Whether a resource whose members' rate bounds sum to `bound` can never
/// be anyone's bottleneck. Equality is not slack: one flow alone on its
/// tightest link saturates it.
pub(crate) fn is_slack(bound: f64, capacity: f64) -> bool {
    bound < capacity * (1.0 - EPS)
}

/// What a resource's slack test and slack walk read, kept as flows join
/// and leave it and as its members' stored keys change.
#[derive(Clone, Copy, Default)]
struct Tally {
    /// Its members' rate bounds, added as they joined and subtracted as
    /// they left: within `err` of their exact sum.
    bound: f64,
    err: f64,
    /// How many of its members' stored keys name it.
    keyed: u32,
}

impl Tally {
    /// Add `ub` to the bound (`-ub` takes it out): the rounding is at most
    /// half an ulp of the result, and `err` takes a whole one.
    fn add(&mut self, ub: f64) {
        self.bound += ub;
        self.err += f64::EPSILON * self.bound.abs();
    }

    /// `is_slack` of the id-order sum of the bounds of `n` members, if the
    /// running bound decides it: the id-order sum is within
    /// `(n + 1)·ε·(bound + err)` of the exact one, and the exact one within
    /// `err` of the running bound; the band is eight times that, which
    /// also covers the rounding of the band's own ends. `None` when
    /// `capacity·(1 − EPS)` lies inside it (or the bound is not finite).
    fn slack(&self, n: usize, capacity: f64) -> Option<bool> {
        let threshold = capacity * (1.0 - EPS);
        let band = 8.0 * (self.err + (n as f64 + 1.0) * f64::EPSILON * (self.bound.abs() + self.err));
        if self.bound + band < threshold {
            Some(true)
        } else if self.bound - band >= threshold {
            Some(false)
        } else {
            None
        }
    }
}

/// Flow table, membership index, completion heap, dirty tracker, stored
/// keys and the solve, plus per-resource octet counters when `OCTETS`;
/// allocation-free at steady state (every list is reused across solves).
/// The caller assigns slots and keeps the clock; flow ids ascend in start
/// order, and the instants it passes never go back.
pub(crate) struct Core<const OCTETS: bool> {
    mode: SolverMode,
    /// Per-resource capacity: dir-links, then capped backplanes.
    capacities: Vec<f64>,
    /// The flow table, by slot.
    slots: Vec<Slot>,
    /// Per-resource octet counters (none unless `OCTETS`).
    counters: Counters,
    /// The live flows with a finite ETA.
    etas: Etas,
    /// The live flows' `(id, slot)`, ascending by id: the order of every
    /// loop over flows.
    order: Vec<(u64, u32)>,
    /// Per-resource `(flow id, slot)` of the live flows crossing it, sorted
    /// by id and deduped.
    members: Vec<Vec<(u64, u32)>>,
    /// Per-resource running bound sum and count of members keyed there.
    tally: Vec<Tally>,
    /// Per-slot rate upper bound; holds a live flow; started (or re-pathed)
    /// and not yet solved.
    ub: Vec<f64>,
    live: Vec<bool>,
    fresh: Vec<bool>,
    /// Slots inserted since the last solve (may repeat, or have left).
    inserted: Vec<u32>,
    dirty: Dirty,
    /// `marks[r] == gen` means resource `r` is already in `touched`.
    marks: Vec<u64>,
    gen: u64,
    /// Touched resources since the last solve, in touch order.
    touched: Vec<usize>,
    // --- sweep scratch, stamped with the `gen` of the sweep ---
    /// Per-resource: dirty this sweep; rebuilt (it can bind); its state —
    /// residual, unfrozen weight and count, last event that froze one of
    /// its members — and the key of its live heap entry.
    rgen: Vec<u64>,
    tracked: Vec<bool>,
    lresid: Vec<f64>,
    weight_on: Vec<f64>,
    rcount: Vec<u32>,
    last: Vec<Event>,
    hkey: Vec<u64>,
    /// Per-slot: swept this sweep; frozen this sweep.
    fgen: Vec<u64>,
    done: Vec<bool>,
    /// Slots swept this sweep.
    swept: Vec<u32>,
    /// Pending pops of dirty resources and freezes of swept flows.
    heap: BinaryHeap<Reverse<Pos>>,
    /// Rebuild scratch: `(key, rate, weight)` of the members frozen so far.
    frozen: Vec<(Pos, f64, f64)>,
    /// Flows frozen by sweeps since the last [`Core::clear`] (a replayed
    /// freeze counts; a flow the sweep found already frozen does not).
    resolved: u64,
}

impl Core<true> {
    /// Sum of the installed rates of the flows crossing resource `r`: each
    /// flow once, in ascending id order, from the empty-sum identity
    /// `-0.0` — the same terms in the same order as a scan of the flow
    /// table, hence the same bits. It is the counter's `sum_at`, summed
    /// again after every event that changed a term.
    pub(crate) fn rate_sum(&self, r: usize) -> Bps {
        self.counters.at[r].sum_at
    }

    /// Octets resource `r` has carried by `now`.
    pub(crate) fn octets(&self, r: usize, now: SimTime) -> f64 {
        self.counters.at[r].octets(now)
    }
}

impl<const OCTETS: bool> Core<OCTETS> {
    /// Capacity the simulator gives a member list at its first member, so
    /// moderate per-resource load never grows one: its steady-state churn
    /// must stay allocation-free from the first event. A resource no flow
    /// crosses holds none (most of a fabric's, at any time). The kernel's
    /// lists grow as needed and keep what they grew across estimates.
    const MEMBERS_HEAD_START: usize = 16;

    pub(crate) fn new(capacities: Vec<f64>) -> Self {
        let n = capacities.len();
        Core {
            mode: SolverMode::default(),
            capacities,
            slots: Vec::new(),
            counters: Counters { at: if OCTETS { vec![IDLE; n] } else { Vec::new() }, stale: Vec::new() },
            etas: Etas::default(),
            order: Vec::new(),
            members: vec![Vec::new(); n],
            tally: vec![Tally::default(); n],
            ub: Vec::new(),
            live: Vec::new(),
            fresh: Vec::new(),
            inserted: Vec::new(),
            dirty: Dirty::Clean,
            marks: vec![0; n],
            gen: 1,
            touched: Vec::new(),
            rgen: vec![0; n],
            tracked: vec![false; n],
            lresid: vec![0.0; n],
            weight_on: vec![0.0; n],
            rcount: vec![0; n],
            last: vec![(0, 0); n],
            hkey: vec![u64::MAX; n],
            fgen: Vec::new(),
            done: Vec::new(),
            swept: Vec::new(),
            heap: BinaryHeap::new(),
            frozen: Vec::new(),
            resolved: 0,
        }
    }

    pub(crate) fn mode(&self) -> SolverMode {
        self.mode
    }

    /// Select the recomputation strategy. Switching with flows live marks
    /// everything dirty, so the next solve resynchronises under the new
    /// mode (a `Full` solve leaves the stored keys stale).
    pub(crate) fn set_mode(&mut self, mode: SolverMode) {
        if self.mode != mode {
            self.mode = mode;
            if !self.order.is_empty() {
                self.mark_all();
            }
        }
    }

    pub(crate) fn capacities(&self) -> &[f64] {
        &self.capacities
    }

    /// The capacities, to change while no flow is live: a flow's rate
    /// bound is taken from them when it starts.
    pub(crate) fn capacities_mut(&mut self) -> &mut [f64] {
        debug_assert!(self.order.is_empty(), "capacities changed under live flows");
        &mut self.capacities
    }

    /// The live flows' `(id, slot)`, ascending by id.
    pub(crate) fn order(&self) -> &[(u64, u32)] {
        &self.order
    }

    /// The slot of live flow `id`.
    pub(crate) fn slot_of(&self, id: u64) -> Option<u32> {
        self.order.binary_search_by_key(&id, |e| e.0).ok().map(|pos| self.order[pos].1)
    }

    /// The live `(flow id, slot)` pairs crossing resource `r`, by id.
    pub(crate) fn members(&self, r: usize) -> &[(u64, u32)] {
        &self.members[r]
    }

    /// The rate last installed in `slot`.
    pub(crate) fn rate(&self, slot: u32) -> Bps {
        self.slots[slot as usize].rate
    }

    /// Bytes the flow in `slot` has sent by `now` (a retired slot keeps
    /// what it had sent when it retired).
    pub(crate) fn sent(&self, slot: u32, now: SimTime) -> f64 {
        self.slots[slot as usize].progress(now).0
    }

    /// The resources of `slot`.
    pub(crate) fn resources(&self, slot: u32) -> &[usize] {
        &self.slots[slot as usize].resources
    }

    /// The resource buffer of `slot`, which holds no live flow, to fill
    /// before [`Core::start`]; grows the table to reach `slot`.
    pub(crate) fn resources_mut(&mut self, slot: u32) -> &mut Vec<usize> {
        let s = slot as usize;
        if self.slots.len() <= s {
            let n = s + 1;
            self.slots.resize_with(n, || Slot {
                id: 0,
                weight: 1.0,
                cap: None,
                resources: Vec::new(),
                rate: 0.0,
                remaining_at: 0.0,
                sent_at: 0.0,
                t_at: SimTime::ZERO,
                key: UNBOUNDED,
            });
            self.etas.place.resize(n, ABSENT);
            self.ub.resize(n, 0.0);
            self.live.resize(n, false);
            self.fresh.resize(n, false);
            self.fgen.resize(n, 0);
            self.done.resize(n, false);
        }
        debug_assert!(!self.live[s], "resources of a live flow rewritten");
        &mut self.slots[s].resources
    }

    /// Whether no start, retire or re-path is waiting for a solve.
    pub(crate) fn is_settled(&self) -> bool {
        self.dirty == Dirty::Clean
    }

    /// Flows frozen by sweeps since the last [`Core::clear`].
    pub(crate) fn resolved(&self) -> u64 {
        self.resolved
    }

    fn mark_all(&mut self) {
        self.dirty = Dirty::All;
    }

    /// Mark `slot`'s resources touched.
    fn touch(&mut self, slot: u32) {
        if self.dirty == Dirty::All {
            return;
        }
        self.dirty = Dirty::Touched;
        for &r in &self.slots[slot as usize].resources {
            if self.marks[r] != self.gen {
                self.marks[r] = self.gen;
                self.touched.push(r);
            }
        }
    }

    /// Return to clean, invalidating every touch mark in O(1).
    fn reset(&mut self) {
        self.dirty = Dirty::Clean;
        self.gen += 1;
        self.touched.clear();
    }

    /// Flow `id` starts in `slot` at `now` over the resources written
    /// through [`Core::resources_mut`], at rate 0 with `remaining` bytes to
    /// send (due at once if there are none). Ids ascend in start order.
    pub(crate) fn start(&mut self, id: u64, slot: u32, weight: f64, cap: Option<f64>, remaining: f64, now: SimTime) {
        debug_assert!(self.order.last().is_none_or(|&(last, _)| last < id), "flow ids must ascend");
        let f = &mut self.slots[slot as usize];
        (f.id, f.weight, f.cap) = (id, weight, cap);
        (f.rate, f.remaining_at, f.sent_at, f.t_at) = (0.0, remaining, 0.0, now);
        self.etas.set(slot, id, completion_eta(now, remaining, 0.0));
        self.order.push((id, slot));
        self.join(slot, now);
        self.sum_stale();
    }

    /// The flow in `slot` moves at `now` to the resources `fill` writes; it
    /// keeps its rate, progress and ETA until the next solve.
    pub(crate) fn repath(&mut self, slot: u32, now: SimTime, fill: impl FnOnce(&mut Vec<usize>)) {
        self.leave(slot, now);
        fill(&mut self.slots[slot as usize].resources);
        self.join(slot, now);
        self.sum_stale();
    }

    /// Live flow `id` leaves the table at `now` (it finished, or was
    /// stopped); returns its slot, which keeps its resource buffer and
    /// what it sent.
    pub(crate) fn retire(&mut self, id: u64, now: SimTime) -> Option<u32> {
        let pos = self.order.binary_search_by_key(&id, |e| e.0).ok()?;
        let (_, slot) = self.order.remove(pos);
        let f = &mut self.slots[slot as usize];
        f.fold(now);
        f.rate = 0.0;
        self.etas.set(slot, id, SimTime::MAX);
        self.leave(slot, now);
        self.sum_stale();
        Some(slot)
    }

    /// Sum the stale counters' members' rates again, in id order.
    fn sum_stale(&mut self) {
        if !OCTETS {
            return;
        }
        for &r in &self.counters.stale {
            let c = &mut self.counters.at[r];
            c.sum_at = self.members[r].iter().map(|&(_, s)| self.slots[s as usize].rate).sum();
            c.stale = false;
        }
        self.counters.stale.clear();
    }

    /// The flow in `slot` joins its resources' member lists at `now`.
    fn join(&mut self, slot: u32, now: SimTime) {
        let s = slot as usize;
        let f = &self.slots[s];
        if OCTETS {
            self.counters.fold(&f.resources, now);
        }
        let ub = f.resources.iter().map(|&r| self.capacities[r]).fold(f.cap.unwrap_or(f64::INFINITY), f64::min);
        self.ub[s] = ub;
        for &r in &f.resources {
            let v = &mut self.members[r];
            if let Err(pos) = v.binary_search_by_key(&f.id, |e| e.0) {
                if OCTETS && v.capacity() == 0 {
                    v.reserve_exact(Self::MEMBERS_HEAD_START);
                }
                v.insert(pos, (f.id, slot));
                let t = &mut self.tally[r];
                t.add(ub);
                t.keyed += u32::from(named(f.key) == r);
            }
        }
        self.live[s] = true;
        self.fresh[s] = true;
        self.inserted.push(slot);
        self.touch(slot);
    }

    /// The flow in `slot` leaves its resources' member lists at `now`.
    fn leave(&mut self, slot: u32, now: SimTime) {
        let s = slot as usize;
        let f = &self.slots[s];
        if OCTETS {
            self.counters.fold(&f.resources, now);
        }
        for &r in &f.resources {
            let v = &mut self.members[r];
            if let Ok(pos) = v.binary_search_by_key(&f.id, |e| e.0) {
                v.remove(pos);
                let t = &mut self.tally[r];
                t.keyed -= u32::from(named(f.key) == r);
                if v.is_empty() {
                    // The exact sum of no bounds: the band closes.
                    *t = Tally::default();
                } else {
                    t.add(-self.ub[s]);
                }
            }
        }
        self.live[s] = false;
        self.fresh[s] = false;
        self.touch(slot);
    }

    /// Forget every flow and every octet (the what-if kernel's per-run
    /// reset).
    pub(crate) fn clear(&mut self) {
        for m in &mut self.members {
            m.clear();
        }
        self.tally.fill(Tally::default());
        self.counters.at.fill(IDLE);
        self.counters.stale.clear();
        self.etas.heap.clear();
        self.etas.place.fill(ABSENT);
        self.order.clear();
        self.live.fill(false);
        self.settle_all();
        self.resolved = 0;
    }

    /// Nothing is pending (and the stored keys are stale until a sweep
    /// with everything dirty).
    fn settle_all(&mut self) {
        self.reset();
        self.fresh.fill(false);
        self.inserted.clear();
    }

    /// The live flows as solver input, in id order. Allocates: it serves
    /// the reference solve and the audit.
    pub(crate) fn live_specs(&self) -> Vec<FlowSpec> {
        let spec = |&(_, s): &(u64, u32)| {
            let f = &self.slots[s as usize];
            FlowSpec { weight: f.weight, cap: f.cap, resources: f.resources.clone() }
        };
        self.order.iter().map(spec).collect()
    }

    /// The earliest ETA of a live flow ([`SimTime::MAX`] if none will
    /// finish).
    pub(crate) fn next_completion(&self) -> SimTime {
        self.etas.next()
    }

    /// Take the next live flow whose ETA has come by `now` off the heap
    /// and return its id; the caller retires it. Flows come in `(eta, id)`
    /// order: id order for the flows due at one instant.
    pub(crate) fn pop_due(&mut self, now: SimTime) -> Option<u64> {
        let &(eta, id, _) = self.etas.heap.first()?;
        (eta <= now).then(|| {
            self.etas.remove(0);
            id
        })
    }

    /// Install a solved rate at `now`. Only a rate that changed **bitwise**
    /// does anything: it folds the old rate into the flow's progress (and
    /// its resources' counters, if metered), then re-derives the ETA. The
    /// sweep never visits a flow a change does not reach, so this rule is
    /// what keeps progress, counters and completions identical between the
    /// modes.
    fn apply_rate(&mut self, slot: u32, rate: Bps, now: SimTime) {
        let f = &mut self.slots[slot as usize];
        if rate.to_bits() == f.rate.to_bits() {
            return;
        }
        f.fold(now);
        f.rate = rate;
        if OCTETS {
            self.counters.fold(&f.resources, now);
        }
        self.etas.set(slot, f.id, completion_eta(now, f.remaining_at, rate));
    }

    /// Solve what changed since the last solve at `now`, and return how
    /// many flows were solved: every live flow in `Full` mode, the flows
    /// the sweep froze in `Incremental` mode. Every other flow keeps its
    /// rate, key and ETA.
    pub(crate) fn recompute(&mut self, now: SimTime) -> usize {
        let solved = match self.mode {
            SolverMode::Full => {
                self.settle_all();
                let alloc = maxmin::solve(&self.capacities, &self.live_specs());
                for (k, &rate) in alloc.rates.iter().enumerate() {
                    self.apply_rate(self.order[k].1, rate, now);
                }
                self.order.len()
            }
            SolverMode::Incremental => self.sweep(now),
        };
        self.sum_stale();
        solved
    }

    /// Re-solve what changed since the last solve by a sweep over the
    /// dirty resources, and return how many flows it froze.
    fn sweep(&mut self, now: SimTime) -> usize {
        if self.dirty == Dirty::All {
            for (s, fresh) in self.fresh.iter_mut().enumerate() {
                *fresh = self.live[s];
            }
            self.inserted.clear();
            self.inserted.extend((0..self.live.len() as u32).filter(|&s| self.live[s as usize]));
            self.touched.clear();
            self.touched.extend(0..self.members.len());
        }
        let before = self.resolved;
        let touched = std::mem::take(&mut self.touched);
        let inserted = std::mem::take(&mut self.inserted);
        self.reset();
        self.heap.clear();
        self.swept.clear();
        for &r in &touched {
            self.make_dirty(r, BOTTOM);
        }
        for &s in &inserted {
            if self.fresh[s as usize] {
                self.enter(s, BOTTOM);
            }
        }
        while let Some(Reverse(pos)) = self.heap.pop() {
            self.step(pos, now);
        }
        // What nothing froze is unbounded (and constrains nothing).
        for k in 0..self.swept.len() {
            let s = self.swept[k];
            if !self.done[s as usize] {
                self.set_key(s, UNBOUNDED);
                self.apply_rate(s, f64::INFINITY, now);
                self.resolved += 1;
            }
        }
        for &s in &inserted {
            self.fresh[s as usize] = false;
        }
        self.touched = touched;
        self.touched.clear();
        self.inserted = inserted;
        self.inserted.clear();
        (self.resolved - before) as usize
    }

    /// Whether slot `s` has not frozen by `pos`.
    fn unfrozen(&self, s: u32, pos: Pos) -> bool {
        let i = s as usize;
        let pending = if self.fgen[i] == self.gen { !self.done[i] } else { self.fresh[i] };
        pending || at(self.slots[i].key, self.slots[i].id, s) >= pos
    }

    /// The key dirty resource `r` would pop at now, if it can pop.
    fn pop_at(&self, r: usize) -> Option<u64> {
        let q = self.lresid[r] / self.weight_on[r];
        (self.rcount[r] > 0 && self.weight_on[r] > EPS && q.is_finite()).then(|| pop_key(q, r, self.last[r]))
    }

    /// Queue flow `s` for the sweep from `pos` on, at its stored key if it
    /// has one (or just its cap, if it is fresh); a stored key before `pos`
    /// means it already froze there, unchanged.
    fn enter(&mut self, s: u32, pos: Pos) {
        let i = s as usize;
        if self.fgen[i] == self.gen {
            return;
        }
        self.fgen[i] = self.gen;
        self.done[i] = false;
        self.swept.push(s);
        let f = &self.slots[i];
        let stored = at(f.key, f.id, s);
        if self.fresh[i] || f.key == UNBOUNDED {
            self.push_cap(s);
        } else if stored < pos {
            self.done[i] = true;
        } else {
            self.heap.push(Reverse(stored));
        }
    }

    /// Queue the cap event of flow `s`, if it has a cap.
    fn push_cap(&mut self, s: u32) {
        let f = &self.slots[s as usize];
        let level = f.cap.unwrap_or(f64::INFINITY) / f.weight;
        if level.is_finite() {
            self.heap.push(Reverse(at((share_key(level), 0), f.id, s)));
        }
    }

    /// Store `key` as live slot `s`'s freeze key, moving it between the
    /// resources' keyed counts.
    fn set_key(&mut self, s: u32, key: Event) {
        let f = &mut self.slots[s as usize];
        let old = std::mem::replace(&mut f.key, key);
        if old.1 != key.1 {
            if f.resources.contains(&named(old)) {
                self.tally[named(old)].keyed -= 1;
            }
            if f.resources.contains(&named(key)) {
                self.tally[named(key)].keyed += 1;
            }
        }
    }

    /// Its members' rate bounds summed in id order: the sum the slack
    /// test is defined on.
    fn bound_sum(&self, r: usize) -> f64 {
        self.members[r].iter().map(|&(_, s)| self.ub[s as usize]).sum()
    }

    /// Whether resource `r` is slack: [`is_slack`] of [`Core::bound_sum`].
    /// Its tally decides that in O(1) unless the threshold lies in the
    /// tally's error band; only then is the id-order sum taken.
    fn slack(&self, r: usize) -> bool {
        let capacity = self.capacities[r];
        self.tally[r].slack(self.members[r].len(), capacity).unwrap_or_else(|| is_slack(self.bound_sum(r), capacity))
    }

    /// From `pos` on, resource `r`'s stored pops no longer hold. If it can
    /// bind, rebuild its state from its members' keys and sweep them all;
    /// if it is slack it never pops, and only the flows it froze are swept
    /// (none, without a walk, when its tally counts none).
    fn make_dirty(&mut self, r: usize, pos: Pos) {
        if self.rgen[r] == self.gen {
            return;
        }
        self.rgen[r] = self.gen;
        let tracked = !self.slack(r);
        self.tracked[r] = tracked;
        if tracked {
            self.rebuild(r, pos);
            for m in 0..self.members[r].len() {
                self.enter(self.members[r][m].1, pos);
            }
            return;
        }
        let (mut left, mut m) = (self.tally[r].keyed, 0);
        while left > 0 {
            let s = self.members[r][m].1;
            if named(self.slots[s as usize].key) == r {
                self.enter(s, pos);
                left -= 1;
            }
            m += 1;
        }
    }

    /// Set dirty resource `r`'s state to the fill's at `pos`.
    fn rebuild(&mut self, r: usize, pos: Pos) {
        let mut frozen = std::mem::take(&mut self.frozen);
        frozen.clear();
        let (mut weight, mut active) = (0.0, 0);
        for &(id, s) in &self.members[r] {
            let f = &self.slots[s as usize];
            weight += f.weight;
            if self.unfrozen(s, pos) {
                active += 1;
            } else {
                frozen.push((at(f.key, id, s), f.rate, f.weight));
            }
        }
        frozen.sort_unstable_by_key(|e| e.0);
        let mut resid = self.capacities[r];
        let mut last = (0, 0);
        for &(p, rate, w) in &frozen {
            resid -= rate;
            weight -= w;
            last = (p.0, p.1);
        }
        self.frozen = frozen;
        (self.lresid[r], self.weight_on[r], self.rcount[r], self.last[r]) = (resid, weight, active, last);
        self.hkey[r] = u64::MAX;
        self.requeue(r);
    }

    /// Push dirty resource `r`'s pop if its key fell below its live entry.
    fn requeue(&mut self, r: usize) {
        if let Some(key) = self.pop_at(r) {
            if key < self.hkey[r] {
                self.hkey[r] = key;
                self.heap.push(Reverse((key, r as u64 + 1, 0, 0)));
            }
        }
    }

    /// Process the least pending entry.
    fn step(&mut self, pos: Pos, now: SimTime) {
        let (key, event, sub, s) = pos;
        if sub == 0 {
            // A dirty resource's pop, if it is still its live entry and
            // its key has not risen since.
            let r = (event - 1) as usize;
            if key != self.hkey[r] {
                return;
            }
            if self.pop_at(r) != Some(key) {
                self.hkey[r] = u64::MAX;
                self.requeue(r);
                return;
            }
            let q = self.lresid[r] / self.weight_on[r];
            let level = if q > 0.0 { q } else { 0.0 };
            for m in 0..self.members[r].len() {
                let s = self.members[r][m].1;
                let i = s as usize;
                if self.fgen[i] == self.gen && !self.done[i] {
                    let f = &self.slots[i];
                    let rate = (f.weight * level).min(f.cap.unwrap_or(f64::INFINITY));
                    self.freeze(s, rate, (key, event), now);
                }
            }
            return;
        }
        let i = s as usize;
        if self.done[i] {
            return;
        }
        if event == 0 {
            let cap = self.slots[i].cap.unwrap_or(f64::INFINITY);
            self.freeze(s, cap, (key, 0), now);
        } else if self.rgen[(event - 1) as usize] != self.gen {
            // Its bottleneck is clean, so that pop replays as it was.
            let rate = self.slots[i].rate;
            self.freeze(s, rate, (key, event), now);
        } else {
            // Its bottleneck's pop moved: it does not freeze here, which
            // its other resources must now account for.
            for k in 0..self.slots[i].resources.len() {
                let r = self.slots[i].resources[k];
                self.make_dirty(r, pos);
            }
            self.push_cap(s);
        }
    }

    /// Freeze flow `s` at `rate` by `event`. If that is not where it froze
    /// before, every resource it crosses is dirty from here on; every dirty
    /// one that can bind takes the freeze into its state.
    fn freeze(&mut self, s: u32, rate: f64, event: Event, now: SimTime) {
        let i = s as usize;
        let f = &self.slots[i];
        let changed = self.fresh[i] || f.key != event || f.rate.to_bits() != rate.to_bits();
        let (pos, weight) = (at(event, f.id, s), f.weight);
        self.done[i] = true;
        self.set_key(s, event);
        self.resolved += 1;
        self.apply_rate(s, rate, now);
        for k in 0..self.slots[i].resources.len() {
            let r = self.slots[i].resources[k];
            if changed {
                self.make_dirty(r, pos);
            }
            if self.rgen[r] == self.gen && self.tracked[r] {
                self.lresid[r] -= rate;
                self.weight_on[r] -= weight;
                self.rcount[r] -= 1;
                self.last[r] = event;
                self.requeue(r);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maxmin::solve;
    use remos_prop::prelude::*;

    #[derive(Clone, Debug)]
    enum Op {
        Add(FlowSpec),
        Remove(usize),
        Reroute(usize, Vec<usize>),
        /// Solve what is pending (`true`: everything, as a mode switch).
        Solve(bool),
    }

    /// A tape of arrivals, departures, re-paths and solves (several
    /// changes may share one solve) over up to six resources, with mostly
    /// unit weights. Off the `threshold`: round capacities and whole-Mb/s
    /// caps. On it: caps drawn from three random rates, and capacities
    /// within an ulp of a sum of some of them over `1 − EPS`, so members'
    /// bounds often sum to the slack threshold inside a tally's band, in
    /// an order whose rounding differs from the id order's.
    fn arb_tape(threshold: bool) -> impl Strategy<Value = (Vec<f64>, Vec<Op>)> {
        let rates =
            if threshold { prop::collection::vec(1.0e5..1.0e6f64, 3..4).boxed() } else { Just(Vec::new()).boxed() };
        rates.prop_flat_map(move |rates| {
            let capacity = if threshold {
                let rates = rates.clone();
                (1u32..8, -1i64..=1)
                    .prop_map(move |(subset, ulps)| {
                        let sum: f64 = (0..3).filter(|i| subset >> i & 1 == 1).map(|i| rates[i]).sum();
                        f64::from_bits((sum / (1.0 - EPS)).to_bits().wrapping_add_signed(ulps))
                    })
                    .boxed()
            } else {
                prop_oneof![Just(1.0e9), Just(1.0e8), Just(4.0e8), 1.0e6..1.0e9f64].boxed()
            };
            let cap = if threshold {
                let rates = rates.clone();
                prop::option::of((0..3usize).prop_map(move |i| rates[i])).boxed()
            } else {
                prop::option::of(prop_oneof![(1u32..400).prop_map(|m| f64::from(m) * 1e6), 1.0e5..1.0e9f64]).boxed()
            };
            prop::collection::vec(capacity, 1..6).prop_flat_map(move |caps| {
                let n = caps.len();
                let path =
                    move || prop::collection::btree_set(0..n, 1..=n.min(3)).prop_map(|r| r.into_iter().collect());
                let weight = prop_oneof![Just(1.0), Just(1.0), Just(2.0), 0.1..10.0f64];
                let flow =
                    (weight, cap.clone(), path()).prop_map(|(weight, cap, resources)| FlowSpec { weight, cap, resources });
                let op = (0..9u8, flow, 0..64usize, path()).prop_map(|(k, f, i, p)| match k {
                    0..=2 => Op::Add(f),
                    3 | 4 => Op::Remove(i),
                    5 => Op::Reroute(i, p),
                    _ => Op::Solve(k == 8),
                });
                (Just(caps), prop::collection::vec(op, 1..40))
            })
        })
    }

    /// A member list is allocated at its first member, with the
    /// simulator's head start, and never for a resource no flow crosses.
    #[test]
    fn member_lists_start_at_their_first_member() {
        let mut core = Core::<true>::new(vec![1e9; 3]);
        assert!(core.members.iter().all(|m| m.capacity() == 0));
        *core.resources_mut(0) = vec![0, 2];
        core.start(0, 0, 1.0, None, 1e6, SimTime::ZERO);
        let caps: Vec<usize> = core.members.iter().map(Vec::capacity).collect();
        assert_eq!(caps, [16, 0, 16]);
    }

    /// Every resource's tally against a recount: its slack test agrees
    /// with [`is_slack`] of the id-order sum, and it counts exactly the
    /// members whose stored key names the resource.
    fn check_tallies<const OCTETS: bool>(core: &Core<OCTETS>) -> Result<(), String> {
        for (r, t) in core.tally.iter().enumerate() {
            let (n, capacity) = (core.members[r].len(), core.capacities[r]);
            let slack = is_slack(core.bound_sum(r), capacity);
            prop_assert!(core.slack(r) == slack,
                "resource {} slack: {:?} by its band, {} by the id-order sum (octets metered: {})",
                r, t.slack(n, capacity), slack, OCTETS);
            let keyed = core.members[r].iter().filter(|&&(_, s)| named(core.slots[s as usize].key) == r).count();
            prop_assert_eq!(t.keyed as usize, keyed, "members keyed at resource {} (octets metered: {})", r, OCTETS);
        }
        Ok(())
    }

    /// Run `tape` through a `Core<OCTETS>` over `caps`; after every op the
    /// tallies must match a recount, and after every solve every live
    /// flow's rate must be the full solve's, bit for bit.
    fn replay<const OCTETS: bool>(caps: &[f64], tape: &[Op]) -> Result<(), String> {
        let mut core = Core::<OCTETS>::new(caps.to_vec());
        let (mut free, mut slots) = (Vec::new(), 0u32);
        let mut next_id = 0;
        for op in tape.iter().chain([Op::Solve(false)].iter()) {
            let live = core.order().len();
            match op.clone() {
                Op::Add(spec) => {
                    let slot = free.pop().unwrap_or_else(|| {
                        slots += 1;
                        slots - 1
                    });
                    *core.resources_mut(slot) = spec.resources;
                    core.start(next_id, slot, spec.weight, spec.cap, f64::INFINITY, SimTime::ZERO);
                    next_id += 1;
                }
                Op::Remove(i) if live > 0 => {
                    let id = core.order()[i % live].0;
                    free.extend(core.retire(id, SimTime::ZERO));
                }
                Op::Reroute(i, path) if live > 0 => {
                    let slot = core.order()[i % live].1;
                    core.repath(slot, SimTime::ZERO, |r| *r = path);
                }
                Op::Solve(all) => {
                    if all {
                        core.mark_all();
                    }
                    core.recompute(SimTime::ZERO);
                    let full = solve(caps, &core.live_specs());
                    for (&(id, s), want) in core.order().iter().zip(&full.rates) {
                        prop_assert_eq!(core.rate(s).to_bits(), want.to_bits(),
                            "flow {} after {:?} (octets metered: {})", id, op, OCTETS);
                    }
                }
                _ => {}
            }
            check_tallies(&core)?;
        }
        Ok(())
    }

    /// A resource turns slack while a flow it froze is still live: that
    /// flow is swept again and freezes where it binds now. Flows 0 and 1
    /// share resource 0 (10 Mb/s), flow 0 also crosses resource 1
    /// (8 Mb/s); both freeze at resource 0's pop at 5 Mb/s. Once flow 1
    /// leaves, resource 0's bound sum is flow 0's 8 Mb/s, so it is slack,
    /// and only its keyed count leads the sweep to flow 0, which must
    /// rise to 8 Mb/s at resource 1.
    fn slack_resource_resweeps_its_frozen_member<const OCTETS: bool>() {
        let caps = [10e6, 8e6];
        let mut core = Core::<OCTETS>::new(caps.to_vec());
        for (id, path) in [vec![0, 1], vec![0]].into_iter().enumerate() {
            *core.resources_mut(id as u32) = path;
            core.start(id as u64, id as u32, 1.0, None, f64::INFINITY, SimTime::ZERO);
        }
        core.recompute(SimTime::ZERO);
        assert_eq!((core.rate(0), core.rate(1)), (5e6, 5e6));
        assert_eq!(core.tally[0].keyed, 2);
        core.retire(1, SimTime::ZERO);
        assert!(core.slack(0) && core.tally[0].keyed == 1, "resource 0 is slack and keys flow 0");
        core.recompute(SimTime::ZERO);
        let full = solve(&caps, &core.live_specs());
        assert_eq!(core.rate(0).to_bits(), full.rates[0].to_bits(), "octets metered: {OCTETS}");
        assert_eq!(core.rate(0), 8e6);
    }

    #[test]
    fn a_resource_turned_slack_resweeps_the_flow_it_froze() {
        slack_resource_resweeps_its_frozen_member::<true>();
        slack_resource_resweeps_its_frozen_member::<false>();
    }

    proptest! {
        /// After every solve of a random tape, every live flow's rate is
        /// the full solve's, bit for bit: the stored keys carry the freezes
        /// no change reached from one sweep to the next. Both flavours of
        /// the core, with and without octet counters, are held to it.
        #[test]
        fn the_sweep_matches_a_full_solve_after_every_delta((caps, tape) in arb_tape(false)) {
            replay::<true>(&caps, &tape)?;
            replay::<false>(&caps, &tape)?;
        }

        /// The same where members' bounds sum to within ulps of the slack
        /// threshold, so the tallies' bands run their fallback to the
        /// id-order sum.
        #[test]
        fn the_sweep_matches_a_full_solve_at_the_slack_threshold((caps, tape) in arb_tape(true)) {
            replay::<true>(&caps, &tape)?;
            replay::<false>(&caps, &tape)?;
        }
    }
}
