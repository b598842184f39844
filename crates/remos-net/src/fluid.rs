//! The sharing state [`Simulator`](crate::Simulator) and
//! [`WhatIfEngine`](crate::WhatIfEngine) both drive: which live flows
//! cross which resource, what changed since the last solve, and the scoped
//! re-solve that follows from the two.
//!
//! ## A resource that cannot bind does not connect
//!
//! A flow's rate never exceeds `ub = min(rate cap, least capacity on its
//! path)`. A resource whose members' bounds sum to less than its capacity
//! is *slack*: its share stays strictly above the level at which each of
//! its members freezes elsewhere (at its own cap, or at the path resource
//! that defines its `ub`), so the bottleneck-ordered fill never pops it
//! with an active flow and it carries nothing between the flows crossing
//! it. The closure walk therefore expands a reached resource only if it
//! can bind **now**, or could bind **just before a flow left it** (that
//! departure may be what made it slack, and the survivors' rates were set
//! while it still bound); slack resources are not handed to the solver at
//! all. The margin [`EPS`] keeps a resource that rounding in the fill's
//! `lresid` / `weight_on` accumulators could bring to within an ulp of
//! binding on the binding side. docs/PERFORMANCE.md has the full argument.

use crate::maxmin::{FlowRef, Solver, EPS};
use crate::time::SimTime;

/// One slot of a caller's flow table, as the scoped solve sees it.
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
    /// Only flows reachable from the touched resources may change.
    Touched,
    /// Everything must be recomputed (mode switches).
    All,
}

/// Walk state of a resource: not reached, reached (and binding unless
/// found otherwise when expanded), reached and slack.
const UNSEEN: u8 = 0;
const BINDING: u8 = 1;
const SLACK: u8 = 2;

/// Membership index, dirty tracker and scoped solve; allocation-free at
/// steady state (every list and mark array is reused across solves).
pub(crate) struct Core {
    /// Per-resource `(flow id, slot)` of the live flows crossing it, sorted
    /// by id and deduped. Carrying the slot lets the walk resolve members
    /// without an id → slot search per occurrence.
    members: Vec<Vec<(u64, u32)>>,
    /// Per-slot rate upper bound, set on insert.
    ub: Vec<f64>,
    /// Per-slot: inserted (started or re-pathed) and not yet given a rate.
    unsolved: Vec<bool>,
    /// Per-resource: could bind just before a flow left it; set before the
    /// removal, cleared by the walk that reaches it.
    could_bind: Vec<bool>,
    dirty: Dirty,
    /// `marks[r] == gen` means resource `r` is already in `touched`.
    marks: Vec<u64>,
    gen: u64,
    /// Touched resources since the last solve, in touch order.
    touched: Vec<usize>,
    solver: Solver,
    /// Walk scratch: per-resource state, every resource reached this solve
    /// (also the search queue), the component being collected, per-slot
    /// "already collected" marks.
    state: Vec<u8>,
    reached: Vec<usize>,
    comp: Vec<(u64, u32)>,
    flow_seen: Vec<bool>,
    /// Flows re-solved by scoped solves since the last [`Core::clear`].
    resolved: u64,
}

/// Whether a resource whose members' rate bounds sum to `bound` can never
/// be anyone's bottleneck. Equality is not slack: one flow alone on its
/// tightest link saturates it.
pub(crate) fn is_slack(bound: f64, capacity: f64) -> bool {
    bound < capacity * (1.0 - EPS)
}

impl Core {
    pub(crate) fn new(n_resources: usize) -> Core {
        Core {
            // A head start so moderate per-resource load never grows a
            // list: steady-state churn must stay allocation-free.
            members: (0..n_resources).map(|_| Vec::with_capacity(16)).collect(),
            ub: Vec::new(),
            unsolved: Vec::new(),
            could_bind: vec![false; n_resources],
            dirty: Dirty::Clean,
            marks: vec![0; n_resources],
            gen: 1,
            touched: Vec::new(),
            solver: Solver::new(),
            state: vec![UNSEEN; n_resources],
            reached: Vec::new(),
            comp: Vec::new(),
            flow_seen: Vec::new(),
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

    /// Flows re-solved by scoped solves since the last [`Core::clear`].
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

    /// Σ `ub` over the members of `r`, and whether one is still unsolved.
    fn bound(&self, r: usize) -> (f64, bool) {
        self.members[r].iter().fold((0.0, false), |(sum, fresh), &(_, s)| {
            (sum + self.ub[s as usize], fresh | self.unsolved[s as usize])
        })
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
        if self.ub.len() <= s {
            self.ub.resize(s + 1, 0.0);
            self.unsolved.resize(s + 1, false);
        }
        self.ub[s] = resources.iter().map(|&r| capacities[r]).fold(cap.unwrap_or(f64::INFINITY), f64::min);
        self.unsolved[s] = true;
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
    pub(crate) fn remove(&mut self, capacities: &[f64], id: u64, slot: u32, resources: &[usize]) {
        for &r in resources {
            if !self.could_bind[r] {
                self.could_bind[r] = !is_slack(self.bound(r).0, capacities[r]);
            }
            let v = &mut self.members[r];
            if let Ok(pos) = v.binary_search_by_key(&id, |e| e.0) {
                v.remove(pos);
            }
        }
        self.unsolved[slot as usize] = false;
        self.touch(resources);
    }

    /// Forget every flow (the what-if kernel's per-run reset).
    pub(crate) fn clear(&mut self) {
        for m in &mut self.members {
            m.clear();
        }
        self.settle_all();
        self.resolved = 0;
    }

    /// The caller solved everything from scratch: nothing is pending.
    pub(crate) fn settle_all(&mut self) {
        self.reset();
        self.unsolved.fill(false);
        self.could_bind.fill(false);
    }

    /// Re-solve what the touched resources can reach and return how many
    /// flows that was; every other flow keeps its rate. `flows` is the
    /// caller's table indexed by slot; `residual`, when the caller keeps
    /// one, is brought up to date for every resource whose load moved.
    ///
    /// One walk over the touched set in ascending order: a resource not
    /// yet reached seeds a search that expands binding (or could-bind)
    /// resources through their member lists and pulls unsolved flows out of
    /// slack ones; what it collects is filled on the spot with its flows
    /// in ascending id order. A collected set is closed under sharing a
    /// binding resource, so it may be several of the full solve's
    /// components at once — the fill treats them independently.
    pub(crate) fn resolve<F: Flow>(
        &mut self,
        capacities: &[f64],
        flows: &mut [F],
        now: SimTime,
        mut residual: Option<&mut [f64]>,
    ) -> usize {
        let mut touched = std::mem::take(&mut self.touched);
        self.reset();
        touched.sort_unstable();
        if self.flow_seen.len() < flows.len() {
            self.flow_seen.resize(flows.len(), false);
        }
        let mut scope = 0;
        self.reached.clear();
        for &seed in &touched {
            if self.state[seed] != UNSEEN {
                continue;
            }
            self.state[seed] = BINDING;
            let mut head = self.reached.len();
            self.reached.push(seed);
            self.comp.clear();
            while head < self.reached.len() {
                let r = self.reached[head];
                head += 1;
                let (bound, fresh) = self.bound(r);
                let slack = is_slack(bound, capacities[r]);
                if slack {
                    self.state[r] = SLACK;
                }
                let expand = std::mem::take(&mut self.could_bind[r]) || !slack;
                if !(expand || fresh) {
                    continue;
                }
                for &(fid, slot) in &self.members[r] {
                    let s = slot as usize;
                    if self.flow_seen[s] || !(expand || self.unsolved[s]) {
                        continue;
                    }
                    self.flow_seen[s] = true;
                    self.unsolved[s] = false;
                    self.comp.push((fid, slot));
                    for &r2 in flows[s].spec().resources {
                        if self.state[r2] == UNSEEN {
                            self.state[r2] = BINDING;
                            self.reached.push(r2);
                        }
                    }
                }
            }
            if self.comp.is_empty() {
                continue;
            }
            scope += self.comp.len();
            self.comp.sort_unstable();
            self.solver.begin_component(capacities.len());
            let state = &self.state;
            for &(_, slot) in &self.comp {
                let f = flows[slot as usize].spec();
                let binding = f.resources.iter().copied().filter(|&r| state[r] != SLACK);
                self.solver.push_flow(f.weight, f.cap, binding, capacities);
            }
            self.solver.run_fill();
            for (&(_, slot), &rate) in self.comp.iter().zip(self.solver.component_rates()) {
                self.flow_seen[slot as usize] = false;
                flows[slot as usize].set_rate(rate, now);
            }
            if let Some(residual) = residual.as_deref_mut() {
                for (r, resid) in self.solver.component_residuals() {
                    residual[r] = resid;
                }
            }
        }
        for &r in &self.reached {
            // The solver never saw a slack resource: what it has left is
            // its capacity minus its members' rates (all of it, once the
            // last member is gone), clamped as the solver clamps.
            if let (SLACK, Some(residual)) = (self.state[r], residual.as_deref_mut()) {
                let load: f64 = self.members[r].iter().map(|&(_, s)| flows[s as usize].rate()).sum();
                residual[r] = (capacities[r] - load).max(0.0);
            }
            self.state[r] = UNSEEN;
        }
        touched.clear();
        self.touched = touched;
        self.resolved += scope as u64;
        scope
    }
}
