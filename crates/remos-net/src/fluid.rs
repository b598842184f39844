//! The sharing state [`Simulator`](crate::Simulator) and
//! [`WhatIfEngine`](crate::WhatIfEngine) both drive: which live flows
//! cross which resource, what changed since the last solve, and the sweep
//! that re-solves what the change reaches.
//!
//! ## A delta re-solves what it changes
//!
//! The fill ([`Solver::run_fill`](crate::maxmin::Solver::run_fill)) freezes
//! flows in the order of their keys — `(share key, cap-before-pop, bottleneck
//! resource, flow id)` — and a resource's pop key is a function of its
//! state, which is a function of which of its members froze before it, at
//! what rate and in what order. So every solved flow keeps its key, and a
//! solve is a **sweep in key order over the dirty resources** only:
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
//! path)`) sum below its capacity is *slack*: it never pops with an active
//! flow, so a dirty slack resource is not rebuilt — only the flows it used
//! to freeze are swept, to find where they freeze now. The sweep with
//! every flow dirty is a full solve. docs/PERFORMANCE.md has the argument.

use crate::maxmin::{pop_key, share_key, Event, FlowRef, EPS, UNBOUNDED};
use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One slot of a caller's flow table, as the sweep sees it.
pub(crate) trait Flow {
    /// Weight, cap and resources, as handed to the solver.
    fn spec(&self) -> FlowRef<'_>;
    /// The rate last installed.
    fn rate(&self) -> f64;
    /// Install a freshly solved rate (callers re-derive the ETA only when
    /// it changed bitwise).
    fn set_rate(&mut self, rate: f64, now: SimTime);
}

/// What changed since the last rate recomputation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Dirty {
    /// Nothing: the cached rates are valid.
    Clean,
    /// Only what the touched resources reach may change.
    Touched,
    /// Everything must be recomputed (mode switches).
    All,
}

/// A point of the sweep: `(share key, event, sub, slot)`, `sub` being 0
/// for a resource's pop and `id + 1` for the freeze at that event of flow
/// `id`, which sits in `slot`.
type Pos = (u64, u64, u64, u32);

/// Before every event.
const BOTTOM: Pos = (0, 0, 0, 0);

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

/// Membership index, dirty tracker, stored keys and the sweep;
/// allocation-free at steady state (every list is reused across solves).
pub(crate) struct Core {
    /// Per-resource `(flow id, slot)` of the live flows crossing it, sorted
    /// by id and deduped.
    members: Vec<Vec<(u64, u32)>>,
    /// Per-slot flow id, rate upper bound, and the event that froze it in
    /// the last solve (meaningless while `fresh`).
    ids: Vec<u64>,
    ub: Vec<f64>,
    key: Vec<Event>,
    /// Per-slot: holds a live flow; inserted and not yet solved.
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

impl Core {
    pub(crate) fn new(n_resources: usize) -> Core {
        Core {
            // A head start so moderate per-resource load never grows a
            // list: steady-state churn must stay allocation-free.
            members: (0..n_resources).map(|_| Vec::with_capacity(16)).collect(),
            ids: Vec::new(),
            ub: Vec::new(),
            key: Vec::new(),
            live: Vec::new(),
            fresh: Vec::new(),
            inserted: Vec::new(),
            dirty: Dirty::Clean,
            marks: vec![0; n_resources],
            gen: 1,
            touched: Vec::new(),
            rgen: vec![0; n_resources],
            tracked: vec![false; n_resources],
            lresid: vec![0.0; n_resources],
            weight_on: vec![0.0; n_resources],
            rcount: vec![0; n_resources],
            last: vec![(0, 0); n_resources],
            hkey: vec![u64::MAX; n_resources],
            fgen: Vec::new(),
            done: Vec::new(),
            swept: Vec::new(),
            heap: BinaryHeap::new(),
            frozen: Vec::new(),
            resolved: 0,
        }
    }

    /// The live `(flow id, slot)` pairs crossing resource `r`, by id.
    pub(crate) fn members(&self, r: usize) -> &[(u64, u32)] {
        &self.members[r]
    }

    pub(crate) fn dirty(&self) -> Dirty {
        self.dirty
    }

    /// Force a full recomputation on the next query.
    pub(crate) fn mark_all(&mut self) {
        self.dirty = Dirty::All;
    }

    /// Flows frozen by sweeps since the last [`Core::clear`].
    pub(crate) fn resolved(&self) -> u64 {
        self.resolved
    }

    fn touch(&mut self, resources: &[usize]) {
        if self.dirty == Dirty::All {
            return;
        }
        self.dirty = Dirty::Touched;
        for &r in resources {
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

    /// A flow starts (or lands on a new path) in `slot`.
    pub(crate) fn insert(
        &mut self,
        capacities: &[f64],
        id: u64,
        slot: u32,
        cap: Option<f64>,
        resources: &[usize],
    ) {
        let s = slot as usize;
        if self.ids.len() <= s {
            let n = s + 1;
            self.ids.resize(n, 0);
            self.ub.resize(n, 0.0);
            self.key.resize(n, UNBOUNDED);
            self.live.resize(n, false);
            self.fresh.resize(n, false);
            self.fgen.resize(n, 0);
            self.done.resize(n, false);
        }
        self.ids[s] = id;
        self.ub[s] = resources.iter().map(|&r| capacities[r]).fold(cap.unwrap_or(f64::INFINITY), f64::min);
        self.live[s] = true;
        self.fresh[s] = true;
        self.inserted.push(slot);
        for &r in resources {
            let v = &mut self.members[r];
            if let Err(pos) = v.binary_search_by_key(&id, |e| e.0) {
                v.insert(pos, (id, slot));
            }
        }
        self.touch(resources);
    }

    /// The flow in `slot` leaves `resources` (it finished, or is about to
    /// be re-inserted on another path).
    pub(crate) fn remove(&mut self, id: u64, slot: u32, resources: &[usize]) {
        for &r in resources {
            let v = &mut self.members[r];
            if let Ok(pos) = v.binary_search_by_key(&id, |e| e.0) {
                v.remove(pos);
            }
        }
        self.live[slot as usize] = false;
        self.fresh[slot as usize] = false;
        self.touch(resources);
    }

    /// Forget every flow (the what-if kernel's per-run reset).
    pub(crate) fn clear(&mut self) {
        for m in &mut self.members {
            m.clear();
        }
        self.live.fill(false);
        self.settle_all();
        self.resolved = 0;
    }

    /// The caller solved everything itself: nothing is pending (and the
    /// stored keys are stale until a sweep with everything dirty).
    pub(crate) fn settle_all(&mut self) {
        self.reset();
        self.fresh.fill(false);
        self.inserted.clear();
    }

    /// Re-solve what changed since the last solve and return how many
    /// flows the sweep froze; every other flow keeps its rate and key.
    /// `flows` is the caller's table indexed by slot.
    pub(crate) fn resolve<F: Flow>(&mut self, capacities: &[f64], flows: &mut [F], now: SimTime) -> usize {
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
        let mut sweep = Sweep { core: self, capacities, flows, now };
        for &r in &touched {
            sweep.make_dirty(r, BOTTOM);
        }
        for &s in &inserted {
            if sweep.core.fresh[s as usize] {
                sweep.enter(s, BOTTOM);
            }
        }
        while let Some(Reverse(pos)) = sweep.core.heap.pop() {
            sweep.step(pos);
        }
        // What nothing froze is unbounded (and constrains nothing).
        for &s in &self.swept {
            let i = s as usize;
            if !self.done[i] {
                self.key[i] = UNBOUNDED;
                flows[i].set_rate(f64::INFINITY, now);
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
}

/// One sweep: the core's scratch plus what the caller lent it.
struct Sweep<'a, F> {
    core: &'a mut Core,
    capacities: &'a [f64],
    flows: &'a mut [F],
    now: SimTime,
}

impl<F: Flow> Sweep<'_, F> {
    /// Whether slot `s` has not frozen by `pos`.
    fn unfrozen(&self, s: u32, pos: Pos) -> bool {
        let (c, i) = (&self.core, s as usize);
        let pending = if c.fgen[i] == c.gen { !c.done[i] } else { c.fresh[i] };
        pending || at(c.key[i], c.ids[i], s) >= pos
    }

    /// The key dirty resource `r` would pop at now, if it can pop.
    fn pop_at(&self, r: usize) -> Option<u64> {
        let c = &self.core;
        let q = c.lresid[r] / c.weight_on[r];
        (c.rcount[r] > 0 && c.weight_on[r] > EPS && q.is_finite()).then(|| pop_key(q, r, c.last[r]))
    }

    /// Queue flow `s` for the sweep from `pos` on, at its stored key if it
    /// has one (or just its cap, if it is fresh); a stored key before `pos`
    /// means it already froze there, unchanged.
    fn enter(&mut self, s: u32, pos: Pos) {
        let c = &mut *self.core;
        let i = s as usize;
        if c.fgen[i] == c.gen {
            return;
        }
        c.fgen[i] = c.gen;
        c.done[i] = false;
        c.swept.push(s);
        let stored = at(c.key[i], c.ids[i], s);
        if c.fresh[i] || c.key[i] == UNBOUNDED {
            self.push_cap(s);
        } else if stored < pos {
            c.done[i] = true;
        } else {
            c.heap.push(Reverse(stored));
        }
    }

    /// Queue the cap event of flow `s`, if it has a cap.
    fn push_cap(&mut self, s: u32) {
        let f = self.flows[s as usize].spec();
        let level = f.cap.unwrap_or(f64::INFINITY) / f.weight;
        if level.is_finite() {
            self.core.heap.push(Reverse(at((share_key(level), 0), self.core.ids[s as usize], s)));
        }
    }

    /// From `pos` on, resource `r`'s stored pops no longer hold. If it can
    /// bind, rebuild its state from its members' keys and sweep them all;
    /// if it is slack it never pops, and only the flows it froze are swept.
    fn make_dirty(&mut self, r: usize, pos: Pos) {
        let c = &mut *self.core;
        if c.rgen[r] == c.gen {
            return;
        }
        c.rgen[r] = c.gen;
        let bound: f64 = c.members[r].iter().map(|&(_, s)| c.ub[s as usize]).sum();
        let tracked = !is_slack(bound, self.capacities[r]);
        c.tracked[r] = tracked;
        if tracked {
            self.rebuild(r, pos);
        }
        for m in 0..self.core.members[r].len() {
            let s = self.core.members[r][m].1;
            if tracked || self.core.key[s as usize].1 == r as u64 + 1 {
                self.enter(s, pos);
            }
        }
    }

    /// Set dirty resource `r`'s state to the fill's at `pos`.
    fn rebuild(&mut self, r: usize, pos: Pos) {
        let mut frozen = std::mem::take(&mut self.core.frozen);
        frozen.clear();
        let (mut weight, mut active) = (0.0, 0);
        for &(id, s) in &self.core.members[r] {
            let f = &self.flows[s as usize];
            let w = f.spec().weight;
            weight += w;
            if self.unfrozen(s, pos) {
                active += 1;
            } else {
                frozen.push((at(self.core.key[s as usize], id, s), f.rate(), w));
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
        let c = &mut *self.core;
        c.frozen = frozen;
        (c.lresid[r], c.weight_on[r], c.rcount[r], c.last[r]) = (resid, weight, active, last);
        c.hkey[r] = u64::MAX;
        self.requeue(r);
    }

    /// Push dirty resource `r`'s pop if its key fell below its live entry.
    fn requeue(&mut self, r: usize) {
        if let Some(key) = self.pop_at(r) {
            if key < self.core.hkey[r] {
                self.core.hkey[r] = key;
                self.core.heap.push(Reverse((key, r as u64 + 1, 0, 0)));
            }
        }
    }

    /// Process the least pending entry.
    fn step(&mut self, pos: Pos) {
        let (key, event, sub, s) = pos;
        if sub == 0 {
            // A dirty resource's pop, if it is still its live entry and
            // its key has not risen since.
            let r = (event - 1) as usize;
            if key != self.core.hkey[r] {
                return;
            }
            if self.pop_at(r) != Some(key) {
                self.core.hkey[r] = u64::MAX;
                self.requeue(r);
                return;
            }
            let c = &self.core;
            let q = c.lresid[r] / c.weight_on[r];
            let level = if q > 0.0 { q } else { 0.0 };
            for m in 0..self.core.members[r].len() {
                let s = self.core.members[r][m].1;
                let i = s as usize;
                if self.core.fgen[i] == self.core.gen && !self.core.done[i] {
                    let f = self.flows[i].spec();
                    let rate = (f.weight * level).min(f.cap.unwrap_or(f64::INFINITY));
                    self.freeze(s, rate, (key, event));
                }
            }
            return;
        }
        let i = s as usize;
        if self.core.done[i] {
            return;
        }
        if event == 0 {
            let cap = self.flows[i].spec().cap.unwrap_or(f64::INFINITY);
            self.freeze(s, cap, (key, 0));
        } else if self.core.rgen[(event - 1) as usize] != self.core.gen {
            // Its bottleneck is clean, so that pop replays as it was.
            let rate = self.flows[i].rate();
            self.freeze(s, rate, (key, event));
        } else {
            // Its bottleneck's pop moved: it does not freeze here, which
            // its other resources must now account for.
            for k in 0..self.flows[i].spec().resources.len() {
                let r = self.flows[i].spec().resources[k];
                self.make_dirty(r, pos);
            }
            self.push_cap(s);
        }
    }

    /// Freeze flow `s` at `rate` by `event`. If that is not where it froze
    /// before, every resource it crosses is dirty from here on; every dirty
    /// one that can bind takes the freeze into its state.
    fn freeze(&mut self, s: u32, rate: f64, event: Event) {
        let i = s as usize;
        let c = &mut *self.core;
        let changed = c.fresh[i] || c.key[i] != event || self.flows[i].rate().to_bits() != rate.to_bits();
        c.done[i] = true;
        c.key[i] = event;
        c.resolved += 1;
        self.flows[i].set_rate(rate, self.now);
        let pos = at(event, c.ids[i], s);
        let weight = self.flows[i].spec().weight;
        for k in 0..self.flows[i].spec().resources.len() {
            let r = self.flows[i].spec().resources[k];
            if changed {
                self.make_dirty(r, pos);
            }
            let c = &mut *self.core;
            if c.rgen[r] == c.gen && c.tracked[r] {
                c.lresid[r] -= rate;
                c.weight_on[r] -= weight;
                c.rcount[r] -= 1;
                c.last[r] = event;
                self.requeue(r);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maxmin::{solve, FlowSpec};
    use remos_prop::prelude::*;

    struct Slot {
        spec: FlowSpec,
        rate: f64,
    }

    impl Flow for Slot {
        fn spec(&self) -> FlowRef<'_> {
            self.spec.as_ref()
        }
        fn rate(&self) -> f64 {
            self.rate
        }
        fn set_rate(&mut self, rate: f64, _: SimTime) {
            self.rate = rate;
        }
    }

    #[derive(Clone, Debug)]
    enum Op {
        Add(FlowSpec),
        Remove(usize),
        Reroute(usize, Vec<usize>),
        /// Solve what is pending (`true`: everything, as a mode switch).
        Solve(bool),
    }

    /// Round capacities, mostly unit weights and whole-Mb/s caps over up
    /// to six resources, and a tape of arrivals, departures, re-paths and
    /// solves (several changes may share one solve).
    fn arb_tape() -> impl Strategy<Value = (Vec<f64>, Vec<Op>)> {
        let capacity = prop_oneof![Just(1.0e9), Just(1.0e8), Just(4.0e8), 1.0e6..1.0e9f64];
        prop::collection::vec(capacity, 1..6).prop_flat_map(|caps| {
            let n = caps.len();
            let path = move || prop::collection::btree_set(0..n, 1..=n.min(3)).prop_map(|r| r.into_iter().collect());
            let weight = prop_oneof![Just(1.0), Just(1.0), Just(2.0), 0.1..10.0f64];
            let cap = prop::option::of(prop_oneof![(1u32..400).prop_map(|m| f64::from(m) * 1e6), 1.0e5..1.0e9f64]);
            let flow = (weight, cap, path()).prop_map(|(weight, cap, resources)| FlowSpec { weight, cap, resources });
            let op = (0..9u8, flow, 0..64usize, path()).prop_map(|(k, f, i, p)| match k {
                0..=2 => Op::Add(f),
                3 | 4 => Op::Remove(i),
                5 => Op::Reroute(i, p),
                _ => Op::Solve(k == 8),
            });
            (Just(caps), prop::collection::vec(op, 1..40))
        })
    }

    proptest! {
        /// After every solve of a random tape, every live flow's rate is
        /// the full solve's, bit for bit: the stored keys carry the freezes
        /// no change reached from one sweep to the next.
        #[test]
        fn the_sweep_matches_a_full_solve_after_every_delta((caps, tape) in arb_tape()) {
            let mut core = Core::new(caps.len());
            let (mut slots, mut free, mut live) = (Vec::<Slot>::new(), Vec::new(), Vec::<(u64, u32)>::new());
            let mut next_id = 0;
            for op in tape.iter().chain([Op::Solve(false)].iter()) {
                match op.clone() {
                    Op::Add(spec) => {
                        let slot = free.pop().unwrap_or_else(|| {
                            slots.push(Slot { spec: FlowSpec::greedy(vec![]), rate: 0.0 });
                            slots.len() as u32 - 1
                        });
                        core.insert(&caps, next_id, slot, spec.cap, &spec.resources);
                        slots[slot as usize] = Slot { spec, rate: 0.0 };
                        live.push((next_id, slot));
                        next_id += 1;
                    }
                    Op::Remove(i) if !live.is_empty() => {
                        let (id, slot) = live.remove(i % live.len());
                        core.remove(id, slot, &slots[slot as usize].spec.resources);
                        free.push(slot);
                    }
                    Op::Reroute(i, path) if !live.is_empty() => {
                        let (id, slot) = live[i % live.len()];
                        let f = &mut slots[slot as usize];
                        core.remove(id, slot, &f.spec.resources);
                        f.spec.resources = path;
                        core.insert(&caps, id, slot, f.spec.cap, &f.spec.resources);
                    }
                    Op::Solve(all) => {
                        if all {
                            core.mark_all();
                        }
                        core.resolve(&caps, &mut slots, SimTime::ZERO);
                        let specs: Vec<FlowSpec> = live.iter().map(|&(_, s)| slots[s as usize].spec.clone()).collect();
                        let full = solve(&caps, &specs);
                        for (&(id, s), want) in live.iter().zip(&full.rates) {
                            prop_assert_eq!(slots[s as usize].rate.to_bits(), want.to_bits(),
                                "flow {} after {:?}", id, op);
                        }
                    }
                    _ => {}
                }
            }
        }
    }
}
