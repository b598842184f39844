//! Weighted max-min fair bandwidth allocation.
//!
//! This is the sharing model the paper adopts (§4.2): "In general Remos
//! will assume that, all else being equal, the bottleneck link bandwidth
//! will be shared equally by all flows (not being bottlenecked elsewhere)",
//! i.e. the max-min fair share policy of Jaffe \[14\], the basis of ATM ABR
//! flow control \[16\].
//!
//! The solver computes the *progressive filling* (water-filling) allocation
//! generalised with per-flow weights (for the paper's *variable* flows,
//! whose "bandwidths … will share available bandwidth proportionally") and
//! per-flow rate caps (for *fixed* flows and application-limited sources),
//! in **bottleneck order**: a resource's *share* is its residual capacity
//! divided by the weight of the unfrozen flows crossing it, and
//!
//! 1. the resource with the lowest share is the next bottleneck: every
//!    unfrozen flow crossing it freezes at `weight × share`;
//! 2. unless a flow's `cap / weight` is lower still, in which case that
//!    flow freezes at exactly its cap;
//! 3. a frozen flow's rate leaves the residual of every resource on its
//!    path, which can only raise the shares that remain; repeat until all
//!    flows are frozen.
//!
//! A flow's rate is therefore computed once, from its own bottleneck and
//! from the flows that froze below it; nothing that happens at a higher
//! level can reach it.
//!
//! "Resources" are abstract capacities: the engine maps every directed link
//! interface and every capped switch backplane to one resource, so Fig 1's
//! internal-bandwidth semantics fall out naturally.
//!
//! ## Keys and incremental solving
//!
//! Every freeze has a key — `(share key, cap-before-pop, resource, flow
//! id)` — and the fill takes the exact least one each time, so freezes
//! come in key order and a resource's pop key is a function of which of
//! its members froze before it, at what rates, in what order. That is
//! what the engine's incremental solve (`fluid.rs`) is built on: a delta
//! re-solves the resources whose state it changes, and every other freeze
//! replays from its stored key. Two more facts make that cheap and exact:
//!
//! * flows that share no resource do not interact: a freeze touches only
//!   the resources on its flow's path, and ties break on the resource
//!   index and then on input order, never on what else is in the problem.
//!   One fill over every flow therefore gives each connected component of
//!   the sharing graph the rates it would get alone, **bit-identical**
//!   (`independent_components_solve_independently` below);
//! * a resource whose members' rate bounds (`min(cap, least capacity on
//!   the path)`) sum below its capacity never pops with an active flow,
//!   so it sets no rate (`slack_resources_set_no_rate` below).
//!
//! [`solve`] stays the reference every incremental result is compared
//! with, bit for bit ([`f64::to_bits`]).
//!
//! [`Solver`] owns reusable scratch buffers (CSR resource lists, share
//! state, the key heap), so repeated solves against one `Solver` allocate
//! only their result once the buffers have grown.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A flow to be allocated.
#[derive(Clone, Debug)]
pub struct FlowSpec {
    /// Relative weight (> 0). Variable flows with requested bandwidths
    /// 3, 4.5, 9 Mbps are expressed as weights 3 : 4.5 : 9 (§4.2 example).
    pub weight: f64,
    /// Optional absolute rate cap in bits/s (fixed flows, CBR sources).
    pub cap: Option<f64>,
    /// Indices of the resources this flow crosses. An empty path means the
    /// flow is limited only by its cap (or unbounded).
    pub resources: Vec<usize>,
}

impl FlowSpec {
    /// Unweighted, uncapped flow over the given resources.
    pub fn greedy(resources: Vec<usize>) -> Self {
        FlowSpec { weight: 1.0, cap: None, resources }
    }

    /// Unweighted flow with a rate cap.
    pub fn capped(resources: Vec<usize>, cap: f64) -> Self {
        FlowSpec { weight: 1.0, cap: Some(cap), resources }
    }

    /// Borrowed view of this flow, for allocation-free callers.
    pub fn as_ref(&self) -> FlowRef<'_> {
        FlowRef { weight: self.weight, cap: self.cap, resources: &self.resources }
    }
}

/// Borrowed view of one flow. The engine and the modeler keep
/// flows in their own long-lived structures; `FlowRef` lets them hand the
/// solver a window onto those without cloning each resource list per solve.
#[derive(Clone, Copy, Debug)]
pub struct FlowRef<'a> {
    /// Relative weight (> 0).
    pub weight: f64,
    /// Optional absolute rate cap in bits/s.
    pub cap: Option<f64>,
    /// Indices of the resources this flow crosses.
    pub resources: &'a [usize],
}

/// Outcome of an allocation.
#[derive(Clone, Debug)]
pub struct Allocation {
    /// Rate assigned to each flow, same order as the input.
    pub rates: Vec<f64>,
    /// Remaining capacity of each resource after allocation.
    pub residual: Vec<f64>,
}

/// Relative tolerance used when checking saturation / feasibility.
pub const EPS: f64 = 1e-9;

/// Order-preserving map from `f64` to `u64` (`a < b` ⇒ `key(a) < key(b)`,
/// `-0.0` below `0.0`, NaN above infinity), so shares can sit in an
/// integer-keyed heap.
pub(crate) fn share_key(x: f64) -> u64 {
    let b = x.to_bits();
    if b >> 63 == 0 {
        b | (1 << 63)
    } else {
        !b
    }
}

/// Where a freeze sits in the fill's order: `(share key, event)`, where
/// event `0` is the flow's own cap and `r + 1` the pop of resource `r`.
/// With the flow id appended it orders every freeze of a fill: caps before
/// pops at one level, pops by resource, a pop's flows by id.
pub(crate) type Event = (u64, u64);

/// The key of a flow no event froze (it is unbounded).
pub(crate) const UNBOUNDED: Event = (u64::MAX, u64::MAX);

/// The key resource `r` pops at when its share is `q` and the last event
/// that froze one of its members was `last` (`(0, 0)` for none): the
/// share's key, unless rounding in that freeze pushed the share below it,
/// in which case the pop comes right after it. Either way a pop never
/// sorts before an event that fed its share, so the fill's events come
/// in key order.
pub(crate) fn pop_key(q: f64, r: usize, last: Event) -> u64 {
    let (k, e) = (share_key(q), r as u64 + 1);
    if (k, e) > last {
        k
    } else if e > last.1 {
        last.0
    } else {
        last.0 + 1
    }
}

/// Solve the weighted max-min fair allocation problem.
///
/// `capacities[r]` is the capacity of resource `r` in bits/s; flows index
/// into this slice. Panics (debug assertions) on non-positive weights or
/// out-of-range resource indices; release builds treat bad indices as a
/// logic error via indexing panics.
pub fn solve(capacities: &[f64], flows: &[FlowSpec]) -> Allocation {
    let refs: Vec<FlowRef<'_>> = flows.iter().map(FlowSpec::as_ref).collect();
    Solver::new().solve_refs(capacities, &refs)
}

/// Reusable water-filling solver.
///
/// Holds every scratch buffer the fill needs (CSR flow→resource and
/// resource→flow lists, per-resource share state, the key heap), so
/// repeated solves against one `Solver` stop allocating scratch once the
/// buffers have grown to the working-set size; only the returned
/// [`Allocation`] is new each time.
#[derive(Debug, Default)]
pub struct Solver {
    /// Per-flow weight.
    weights: Vec<f64>,
    /// Per-flow cap; `f64::INFINITY` encodes "uncapped".
    caps: Vec<f64>,
    /// CSR offsets into `ridx`, length `flows + 1`.
    roff: Vec<usize>,
    /// Concatenated resource indices of every flow's path.
    ridx: Vec<usize>,
    /// Residual capacity of each resource (output).
    resid: Vec<f64>,
    /// Allocated rate of each flow (output).
    rates: Vec<f64>,
    /// Per-resource weight of the unfrozen flows crossing it.
    weight_on: Vec<f64>,
    /// Per-resource count of unfrozen flows crossing it.
    rcount: Vec<u32>,
    is_active: Vec<bool>,
    /// Capped flows as `(cap / weight, flow)`, ascending.
    capped: Vec<(f64, usize)>,
    /// CSR offsets into `mmemb`, length `resources + 1`: resource → flows.
    moff: Vec<usize>,
    /// Concatenated indices of the flows crossing each resource,
    /// ascending within each resource.
    mmemb: Vec<usize>,
    /// Cursor scratch for building `mmemb`.
    mcur: Vec<usize>,
    /// Min-heap of `(pop key, resource)`; `hkey` holds each resource's
    /// live entry, a lower bound on its current pop key, and an entry that
    /// is not a resource's live one is dropped when it surfaces.
    heap: BinaryHeap<Reverse<(u64, usize)>>,
    hkey: Vec<u64>,
    /// Per-resource: the last event that froze one of its flows.
    last: Vec<Event>,
    /// Per-flow: the event that froze it ([`UNBOUNDED`] for a flow nothing
    /// froze). Sorting the flows by `(key, index)` gives the order they
    /// froze in.
    #[cfg(test)]
    keys: Vec<Event>,
    /// Flows in the order they froze.
    #[cfg(test)]
    order: Vec<usize>,
}

impl Solver {
    /// Fresh solver with empty scratch buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Full solve over borrowed flows; see [`solve`].
    pub fn solve_refs(&mut self, capacities: &[f64], flows: &[FlowRef<'_>]) -> Allocation {
        self.weights.clear();
        self.caps.clear();
        self.roff.clear();
        self.roff.push(0);
        self.ridx.clear();
        for f in flows {
            debug_assert!(f.weight > 0.0, "flow weight must be positive");
            debug_assert!(
                f.resources.iter().all(|&r| r < capacities.len()),
                "resource index out of range"
            );
            self.weights.push(f.weight);
            self.caps.push(f.cap.unwrap_or(f64::INFINITY));
            self.ridx.extend_from_slice(f.resources);
            self.roff.push(self.ridx.len());
        }
        self.resid.clear();
        self.resid.extend_from_slice(capacities);
        self.run_fill();
        let mut residual = std::mem::take(&mut self.resid);
        // Clamp numerical dust (and a negative capacity no flow crosses).
        for r in residual.iter_mut() {
            if *r < 0.0 {
                *r = 0.0;
            }
        }
        Allocation { rates: std::mem::take(&mut self.rates), residual }
    }

    /// Fill the loaded problem in bottleneck order.
    ///
    /// Every flow is frozen once and every (flow, hop) subtracted once.
    /// The next event is the least of the next cap and the *exact* least
    /// pop key over the resources: freezing a flow at or below a
    /// resource's share mathematically raises that share, so a heap entry
    /// is usually a lower bound, re-derived when it surfaces; when
    /// rounding lowers a share instead, the freeze pushes a fresh entry.
    /// The order is therefore a function of the current state, not of the
    /// heap's history, and events come in key order — what lets a caller
    /// replay the freezes a change does not reach from their keys.
    ///
    /// A rate is `weight × share` of the flow's own bottleneck (or its
    /// cap) and nothing else: there is no running water level shared by
    /// the whole problem, so the arithmetic behind a rate involves only
    /// the resources the flow crosses and the flows that froze on them
    /// before it. Ties go to the cap, then to the lower resource index,
    /// and a bottleneck's flows freeze in input order.
    fn run_fill(&mut self) {
        let nf = self.weights.len();
        let nr = self.resid.len();
        self.rates.clear();
        self.rates.resize(nf, f64::INFINITY);
        self.is_active.clear();
        self.is_active.resize(nf, true);
        self.capped.clear();
        self.weight_on.clear();
        self.weight_on.resize(nr, 0.0);
        self.rcount.clear();
        self.rcount.resize(nr, 0);
        self.last.clear();
        self.last.resize(nr, (0, 0));
        #[cfg(test)]
        {
            self.keys.clear();
            self.keys.resize(nf, UNBOUNDED);
            self.order.clear();
        }
        for i in 0..nf {
            let level = self.caps[i] / self.weights[i];
            if level.is_finite() {
                self.capped.push((level, i));
            }
            for k in self.roff[i]..self.roff[i + 1] {
                let r = self.ridx[k];
                self.weight_on[r] += self.weights[i];
                self.rcount[r] += 1;
            }
        }
        self.capped.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        // Resource→flow membership (CSR), ascending flow order within each
        // resource because flows are visited in input order.
        self.moff.clear();
        self.moff.resize(nr + 1, 0);
        for r in 0..nr {
            self.moff[r + 1] = self.moff[r] + self.rcount[r] as usize;
        }
        self.mmemb.clear();
        self.mmemb.resize(self.ridx.len(), 0);
        self.mcur.clear();
        self.mcur.extend_from_slice(&self.moff[..nr]);
        for i in 0..nf {
            for k in self.roff[i]..self.roff[i + 1] {
                let r = self.ridx[k];
                self.mmemb[self.mcur[r]] = i;
                self.mcur[r] += 1;
            }
        }
        // Heapify in place: the buffer is the previous fill's.
        let mut keys = std::mem::take(&mut self.heap).into_vec();
        keys.clear();
        self.hkey.clear();
        for r in 0..nr {
            let key = self.pop_at(r);
            self.hkey.push(key.unwrap_or(u64::MAX));
            keys.extend(key.map(|k| Reverse((k, r))));
        }
        self.heap = BinaryHeap::from(keys);

        let (mut next_cap, mut unfrozen) = (0, nf);
        while unfrozen > 0 {
            while next_cap < self.capped.len() && !self.is_active[self.capped[next_cap].1] {
                next_cap += 1;
            }
            let top = self.least_pop();
            let cap = self.capped.get(next_cap).map(|&(level, i)| (share_key(level), i));
            match (cap, top) {
                (Some((level, i)), top) if top.is_none_or(|(k, _)| level <= k) => {
                    self.freeze(i, self.caps[i], (level, 0));
                    unfrozen -= 1;
                }
                (_, Some((key, r))) => {
                    self.heap.pop();
                    let q = self.resid[r] / self.weight_on[r];
                    // Only a zero or negative capacity gives a share below
                    // zero; `min` keeps a share that rounding put an ulp
                    // past a flow's `cap / weight` from lifting the flow
                    // past its cap.
                    let level = if q > 0.0 { q } else { 0.0 };
                    let event = (key, r as u64 + 1);
                    for m in self.moff[r]..self.moff[r + 1] {
                        let i = self.mmemb[m];
                        if self.is_active[i] {
                            self.freeze(i, (self.weights[i] * level).min(self.caps[i]), event);
                            unfrozen -= 1;
                        }
                    }
                }
                // No resource constrains the flows left and none has a
                // cap: they stay unbounded.
                _ => break,
            }
        }
    }

    /// Current share of resource `r`, or `None` once no flow that could be
    /// limited by it is left (weights at or below [`EPS`] are treated as
    /// exerting no demand).
    fn share(&self, r: usize) -> Option<f64> {
        (self.rcount[r] > 0 && self.weight_on[r] > EPS).then(|| self.resid[r] / self.weight_on[r])
    }

    /// The key resource `r` would pop at now, if it can pop: a non-finite
    /// share never does.
    fn pop_at(&self, r: usize) -> Option<u64> {
        let q = self.share(r).filter(|q| q.is_finite())?;
        Some(pop_key(q, r, self.last[r]))
    }

    /// Peek the exact least `(pop key, resource)`: entries that are not a
    /// resource's live one are dropped, and a live one whose resource's
    /// key has risen since is re-pushed at the new key.
    fn least_pop(&mut self) -> Option<(u64, usize)> {
        loop {
            let &Reverse((key, r)) = self.heap.peek()?;
            if key != self.hkey[r] {
                self.heap.pop();
                continue;
            }
            match self.pop_at(r) {
                Some(now) if now == key => return Some((key, r)),
                now => {
                    self.heap.pop();
                    self.hkey[r] = now.unwrap_or(u64::MAX);
                    if let Some(now) = now {
                        self.heap.push(Reverse((now, r)));
                    }
                }
            }
        }
    }

    /// Freeze flow `i` at `rate` by `event`, releasing it from every
    /// resource on its path; a resource whose pop key that lowers (only
    /// rounding can) gets a fresh heap entry.
    fn freeze(&mut self, i: usize, rate: f64, event: Event) {
        self.is_active[i] = false;
        self.rates[i] = rate;
        #[cfg(test)]
        {
            self.keys[i] = event;
            self.order.push(i);
        }
        for k in self.roff[i]..self.roff[i + 1] {
            let r = self.ridx[k];
            self.resid[r] -= rate;
            self.weight_on[r] -= self.weights[i];
            self.rcount[r] -= 1;
            self.last[r] = event;
            if let Some(key) = self.pop_at(r) {
                if key < self.hkey[r] {
                    self.hkey[r] = key;
                    self.heap.push(Reverse((key, r)));
                }
            }
        }
    }
}

/// Check the max-min invariants of an allocation; returns a human-readable
/// violation description, or `None` if the allocation is valid. Used by
/// property tests and debug assertions in the engine.
///
/// This is a thin wrapper over [`MaxMinAudit`](crate::audit::MaxMinAudit),
/// which performs the full typed check (feasibility, bottleneck
/// saturation, equal weighted shares, residual conservation); the first
/// violation is rendered as a string.
pub fn validate(capacities: &[f64], flows: &[FlowSpec], alloc: &Allocation) -> Option<String> {
    crate::audit::MaxMinAudit::default()
        .check(capacities, flows, alloc)
        .first()
        .map(|v| v.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::mbps;

    fn assert_valid(caps: &[f64], flows: &[FlowSpec], alloc: &Allocation) {
        if let Some(msg) = validate(caps, flows, alloc) {
            panic!("invalid allocation: {msg}\nrates={:?}", alloc.rates);
        }
    }

    #[test]
    fn single_flow_gets_full_link() {
        let caps = [mbps(100.0)];
        let flows = [FlowSpec::greedy(vec![0])];
        let a = solve(&caps, &flows);
        assert!((a.rates[0] - mbps(100.0)).abs() < 1.0);
        assert_valid(&caps, &flows, &a);
    }

    #[test]
    fn equal_split_on_shared_bottleneck() {
        let caps = [mbps(100.0)];
        let flows = vec![FlowSpec::greedy(vec![0]); 4];
        let a = solve(&caps, &flows);
        for r in &a.rates {
            assert!((r - mbps(25.0)).abs() < 1.0);
        }
        assert_valid(&caps, &flows, &a);
    }

    #[test]
    fn paper_variable_flow_example() {
        // §4.2: "three flows may have bandwidth requirements of 3, 4.5, and
        // 9 Mbps relative to each other; the result … may be that the flows
        // will get 1, 1.5 and 3 Mbps respectively" — i.e. a 5.5 Mbps
        // bottleneck shared proportionally.
        let caps = [mbps(5.5)];
        let flows = vec![
            FlowSpec { weight: 3.0, cap: None, resources: vec![0] },
            FlowSpec { weight: 4.5, cap: None, resources: vec![0] },
            FlowSpec { weight: 9.0, cap: None, resources: vec![0] },
        ];
        let a = solve(&caps, &flows);
        assert!((a.rates[0] - mbps(1.0)).abs() < 1.0, "{:?}", a.rates);
        assert!((a.rates[1] - mbps(1.5)).abs() < 1.0);
        assert!((a.rates[2] - mbps(3.0)).abs() < 1.0);
        assert_valid(&caps, &flows, &a);
    }

    #[test]
    fn capped_flow_releases_bandwidth() {
        // Two flows on a 100 Mbps link, one capped at 10: the other gets 90.
        let caps = [mbps(100.0)];
        let flows = vec![
            FlowSpec::capped(vec![0], mbps(10.0)),
            FlowSpec::greedy(vec![0]),
        ];
        let a = solve(&caps, &flows);
        assert!((a.rates[0] - mbps(10.0)).abs() < 1.0);
        assert!((a.rates[1] - mbps(90.0)).abs() < 1.0);
        assert_valid(&caps, &flows, &a);
    }

    #[test]
    fn classic_three_link_parking_lot() {
        // Flow 0 crosses links 0,1,2; flows 1,2,3 each cross one link.
        // Max-min: everyone gets 50 on 100 Mbps links.
        let caps = [mbps(100.0); 3];
        let flows = vec![
            FlowSpec::greedy(vec![0, 1, 2]),
            FlowSpec::greedy(vec![0]),
            FlowSpec::greedy(vec![1]),
            FlowSpec::greedy(vec![2]),
        ];
        let a = solve(&caps, &flows);
        for r in &a.rates {
            assert!((r - mbps(50.0)).abs() < 1.0, "{:?}", a.rates);
        }
        assert_valid(&caps, &flows, &a);
    }

    #[test]
    fn bottleneck_elsewhere_frees_share() {
        // Link 0: 10 Mbps, link 1: 100 Mbps. Flow A crosses both; flow B
        // crosses link 1 only. A is limited to 10 by link 0; B picks up 90.
        let caps = [mbps(10.0), mbps(100.0)];
        let flows = vec![
            FlowSpec::greedy(vec![0, 1]),
            FlowSpec::greedy(vec![1]),
        ];
        let a = solve(&caps, &flows);
        assert!((a.rates[0] - mbps(10.0)).abs() < 1.0);
        assert!((a.rates[1] - mbps(90.0)).abs() < 1.0);
        assert_valid(&caps, &flows, &a);
    }

    #[test]
    fn unconstrained_flow_is_infinite() {
        let caps: [f64; 0] = [];
        let flows = [FlowSpec::greedy(vec![])];
        let a = solve(&caps, &flows);
        assert!(a.rates[0].is_infinite());
    }

    #[test]
    fn capped_pathless_flow_gets_cap() {
        let caps: [f64; 0] = [];
        let flows = [FlowSpec::capped(vec![], mbps(3.0))];
        let a = solve(&caps, &flows);
        assert!((a.rates[0] - mbps(3.0)).abs() < 1.0);
    }

    #[test]
    fn no_flows() {
        let caps = [mbps(100.0)];
        let a = solve(&caps, &[]);
        assert!(a.rates.is_empty());
        assert_eq!(a.residual[0], mbps(100.0));
    }

    #[test]
    fn zero_capacity_resource() {
        let caps = [0.0];
        let flows = [FlowSpec::greedy(vec![0])];
        let a = solve(&caps, &flows);
        assert!(a.rates[0].abs() < EPS);
    }

    #[test]
    fn repeated_resource_in_path_counts_twice() {
        // A flow that enters and leaves the same backplane: listing the
        // resource twice halves its share of that resource.
        let caps = [mbps(100.0)];
        let flows = [FlowSpec::greedy(vec![0, 0])];
        let a = solve(&caps, &flows);
        assert!((a.rates[0] - mbps(50.0)).abs() < 1.0);
    }

    #[test]
    fn residual_reported() {
        let caps = [mbps(100.0)];
        let flows = [FlowSpec::capped(vec![0], mbps(30.0))];
        let a = solve(&caps, &flows);
        assert!((a.residual[0] - mbps(70.0)).abs() < 1.0);
    }

    #[test]
    fn independent_components_solve_independently() {
        // Two disjoint bottlenecks. The rates on one must be bit-identical
        // to solving it alone — the property incremental solves depend on.
        let caps = [mbps(100.0), mbps(40.0)];
        let flows = vec![
            FlowSpec::greedy(vec![0]),
            FlowSpec { weight: 2.5, cap: None, resources: vec![1] },
            FlowSpec::greedy(vec![0]),
            FlowSpec::capped(vec![1], mbps(7.0)),
        ];
        let a = solve(&caps, &flows);
        let left_only = solve(&caps, &[flows[0].clone(), flows[2].clone()]);
        assert_eq!(a.rates[0].to_bits(), left_only.rates[0].to_bits());
        assert_eq!(a.rates[2].to_bits(), left_only.rates[1].to_bits());
        assert_eq!(a.residual[0].to_bits(), left_only.residual[0].to_bits());
        assert_valid(&caps, &flows, &a);
    }

    mod properties {
        use super::*;
        use remos_prop::prelude::*;

        /// Random problem: up to 8 resources, up to 12 flows.
        fn arb_problem() -> impl Strategy<Value = (Vec<f64>, Vec<FlowSpec>)> {
            let caps = prop::collection::vec(1.0e6..1.0e9f64, 1..8);
            caps.prop_flat_map(|caps| {
                let n = caps.len();
                let flow = (
                    0.1..10.0f64,
                    prop::option::of(1.0e5..2.0e9f64),
                    prop::collection::btree_set(0..n, 1..=n.min(4)),
                )
                    .prop_map(|(weight, cap, res)| FlowSpec {
                        weight,
                        cap,
                        resources: res.into_iter().collect(),
                    });
                (Just(caps), prop::collection::vec(flow, 1..12))
            })
        }

        /// A delta applied to a base problem.
        #[derive(Clone, Debug)]
        enum Delta {
            Remove(usize),
            Add(FlowSpec),
            Retune { idx: usize, weight: f64, cap: Option<f64> },
            Reroute { idx: usize, resources: Vec<usize> },
        }

        fn arb_mutated() -> impl Strategy<Value = (Vec<f64>, Vec<FlowSpec>, Delta)> {
            arb_problem().prop_flat_map(|(caps, flows)| {
                let n = caps.len();
                let nf = flows.len();
                let new_flow = (
                    0.1..10.0f64,
                    prop::option::of(1.0e5..2.0e9f64),
                    prop::collection::btree_set(0..n, 1..=n.min(4)),
                )
                    .prop_map(|(weight, cap, res)| FlowSpec {
                        weight,
                        cap,
                        resources: res.into_iter().collect(),
                    });
                let delta = prop_oneof![
                    (0..nf).prop_map(Delta::Remove),
                    new_flow.prop_map(Delta::Add),
                    (0..nf, 0.1..10.0f64, prop::option::of(1.0e5..2.0e9f64))
                        .prop_map(|(idx, weight, cap)| Delta::Retune { idx, weight, cap }),
                    (0..nf, prop::collection::btree_set(0..n, 1..=n.min(4)))
                        .prop_map(|(idx, res)| Delta::Reroute {
                            idx,
                            resources: res.into_iter().collect(),
                        }),
                ];
                (Just(caps), Just(flows), delta)
            })
        }

        /// Apply `delta`, returning the new flow list.
        fn apply_delta(flows: &[FlowSpec], delta: &Delta) -> Vec<FlowSpec> {
            let mut flows2 = flows.to_vec();
            match delta {
                Delta::Remove(i) => {
                    flows2.remove(*i);
                }
                Delta::Add(f) => flows2.push(f.clone()),
                Delta::Retune { idx, weight, cap } => {
                    flows2[*idx].weight = *weight;
                    flows2[*idx].cap = *cap;
                }
                Delta::Reroute { idx, resources } => flows2[*idx].resources = resources.clone(),
            }
            flows2
        }

        /// Below every share and every `cap / weight` the generators above
        /// can produce (capacities ≥ 1e6 under at most ~140 units of
        /// weight; caps ≥ 1e5 at weight ≤ 10): a unit-weight flow capped
        /// here is the first thing any fill freezes.
        const BRIDGE_CAP: f64 = 1.0e3;

        /// Problems `a` and `b` side by side — `b`'s resources renumbered
        /// past `a`'s — joined by `bridge` over the first resource of
        /// each. Flows are `a`'s, the bridge, then `b`'s; returns the
        /// joint problem, `b`'s first resource and `b`'s first flow.
        fn side_by_side(
            a: (Vec<f64>, Vec<FlowSpec>),
            b: (Vec<f64>, Vec<FlowSpec>),
            bridge: FlowSpec,
        ) -> (Vec<f64>, Vec<FlowSpec>, usize, usize) {
            let (mut caps, mut flows) = a;
            let b_res = caps.len();
            caps.extend(b.0);
            flows.push(FlowSpec { resources: vec![0, b_res], ..bridge });
            let b_flows = flows.len();
            flows.extend(b.1.into_iter().map(|f| FlowSpec {
                resources: f.resources.iter().map(|r| r + b_res).collect(),
                ..f
            }));
            (caps, flows, b_res, b_flows)
        }

        /// Each flow's rate bound — its cap or the least capacity on its
        /// path — and which resources that makes slack: the inputs of the
        /// lemma by which `fluid::Core` leaves slack resources out of its sweep.
        fn bounds_and_slack(caps: &[f64], flows: &[FlowSpec]) -> (Vec<f64>, Vec<bool>) {
            let ub = |f: &FlowSpec| {
                f.resources.iter().map(|&r| caps[r]).fold(f.cap.unwrap_or(f64::INFINITY), f64::min)
            };
            let ubs: Vec<f64> = flows.iter().map(ub).collect();
            let mut sums = vec![0.0; caps.len()];
            for (f, ub) in flows.iter().zip(&ubs) {
                for &r in &f.resources {
                    sums[r] += ub;
                }
            }
            let slack = sums.iter().zip(caps).map(|(&s, &c)| crate::fluid::is_slack(s, c)).collect();
            (ubs, slack)
        }

        #[test]
        fn a_bound_sum_equal_to_capacity_is_not_slack() {
            // One flow alone on its tightest link saturates it; the wider
            // link behind it can never bind.
            let caps = [mbps(100.0), mbps(1000.0)];
            let (ubs, slack) = bounds_and_slack(&caps, &[FlowSpec::greedy(vec![0, 1])]);
            assert_eq!(ubs[0].to_bits(), mbps(100.0).to_bits());
            assert_eq!(slack, [false, true]);
            // A zero-capacity link holds its flow at zero: it binds.
            let (ubs, slack) = bounds_and_slack(&[0.0], &[FlowSpec::greedy(vec![0])]);
            assert_eq!((ubs[0], slack[0]), (0.0, false));
        }

        // The four properties of a `(caps, flows)` problem, as plain
        // functions so a recorded input can be replayed by name.

        fn output_is_valid(caps: &[f64], flows: &[FlowSpec]) -> Result<(), String> {
            let a = solve(caps, flows);
            prop_assert!(validate(caps, flows, &a).is_none(), "{:?}", validate(caps, flows, &a));
            Ok(())
        }

        fn is_homogeneous(caps: &[f64], flows: &[FlowSpec]) -> Result<(), String> {
            // Scaling every capacity *and* every cap by k scales the
            // whole allocation by k. (Note: scaling capacities alone is
            // NOT monotone for capped flows — freezing order changes —
            // which is why the stronger property is not asserted.)
            let k = 3.0;
            let a1 = solve(caps, flows);
            let caps2: Vec<f64> = caps.iter().map(|c| c * k).collect();
            let flows2: Vec<FlowSpec> = flows
                .iter()
                .map(|f| FlowSpec {
                    weight: f.weight,
                    cap: f.cap.map(|c| c * k),
                    resources: f.resources.clone(),
                })
                .collect();
            let a2 = solve(&caps2, &flows2);
            for (r1, r2) in a1.rates.iter().zip(&a2.rates) {
                prop_assert!((r2 - k * r1).abs() <= (k * r1).abs().max(1.0) * 1e-6,
                    "not homogeneous: {r1} vs {r2}");
            }
            Ok(())
        }

        fn is_deterministic(caps: &[f64], flows: &[FlowSpec]) -> Result<(), String> {
            let a1 = solve(caps, flows);
            let a2 = solve(caps, flows);
            prop_assert_eq!(a1.rates, a2.rates);
            prop_assert_eq!(a1.residual, a2.residual);
            Ok(())
        }

        fn solver_reuse_is_bit_stable(caps: &[f64], flows: &[FlowSpec]) -> Result<(), String> {
            // The same Solver instance re-used across problems must not
            // leak state between solves: scratch reuse is invisible.
            let refs: Vec<FlowRef<'_>> = flows.iter().map(FlowSpec::as_ref).collect();
            let mut solver = Solver::new();
            let a1 = solver.solve_refs(caps, &refs);
            let a2 = solver.solve_refs(caps, &refs);
            for (x, y) in a1.rates.iter().zip(&a2.rates) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
            for (x, y) in a1.residual.iter().zip(&a2.residual) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
            Ok(())
        }

        fn replay(caps: &[f64], flows: &[FlowSpec]) {
            let properties =
                [output_is_valid, is_homogeneous, is_deterministic, solver_reuse_is_bit_stable];
            for property in properties {
                property(caps, flows).unwrap();
            }
        }

        fn spec(weight: f64, cap: Option<f64>, resources: &[usize]) -> FlowSpec {
            FlowSpec { weight, cap, resources: resources.to_vec() }
        }

        /// Tie-heavy problems: capacities drawn from four round values,
        /// mostly unit weights, caps in whole Mb/s or at a rounded share
        /// such as 1e9/3 — so equal shares, shares that round, and caps
        /// that sit exactly at a share are the common case.
        fn arb_tied_problem() -> impl Strategy<Value = (Vec<f64>, Vec<FlowSpec>)> {
            let capacity = prop_oneof![Just(1.0e9), Just(1.0e9), Just(1.0e10), Just(1.0e8)];
            prop::collection::vec(capacity, 1..8).prop_flat_map(|caps| {
                let n = caps.len();
                let weight = prop_oneof![Just(1.0), Just(1.0), Just(1.0), Just(2.0), Just(0.5)];
                let cap = prop::option::of(prop_oneof![
                    (1u32..1_000).prop_map(|m| mbps(f64::from(m))),
                    (1u32..12).prop_map(|d| 1.0e9 / f64::from(d)),
                ]);
                let flow = (weight, cap, prop::collection::btree_set(0..n, 1..=n.min(4)))
                    .prop_map(|(weight, cap, res)| FlowSpec {
                        weight,
                        cap,
                        resources: res.into_iter().collect(),
                    });
                (Just(caps), prop::collection::vec(flow, 1..16))
            })
        }

        /// Solve `flows` and check that the freezes came in the order of the
        /// keys the fill reports.
        fn freezes_in_key_order(
            caps: &[f64],
            flows: &[FlowSpec],
        ) -> Result<(Solver, Allocation), String> {
            let refs: Vec<FlowRef<'_>> = flows.iter().map(FlowSpec::as_ref).collect();
            let mut solver = Solver::new();
            let alloc = solver.solve_refs(caps, &refs);
            let keys = &solver.keys;
            let mut by_key: Vec<usize> = (0..flows.len()).filter(|&i| keys[i] != UNBOUNDED).collect();
            by_key.sort_by_key(|&i| (keys[i], i));
            prop_assert_eq!(&solver.order, &by_key, "keys {:?}", keys);
            Ok((solver, alloc))
        }

        /// Eleven flows share 100 Mb/s (share `s` = 1e8/11); one of them is
        /// capped at exactly `s` and one also crosses a link two ulps
        /// narrower than `s`, alone. That link pops first, and freezing its
        /// flow rounds the big link's share one ulp *down*, below the cap
        /// level. The least key is now the big link's, so it pops before the
        /// cap and the capped flow freezes at the lowered share; a heap that
        /// compared the cap with the stale entry at `s` would have frozen it
        /// at its cap first.
        #[test]
        fn a_share_rounded_an_ulp_down_pops_before_a_cap_at_its_old_level() {
            let s: f64 = 1.0e8 / 11.0;
            let narrow = f64::from_bits(s.to_bits() - 2);
            let caps = [narrow, 1.0e8];
            let mut flows = vec![FlowSpec::greedy(vec![0, 1]), FlowSpec::capped(vec![1], s)];
            flows.extend((0..9).map(|_| FlowSpec::greedy(vec![1])));
            let lowered = (1.0e8 - narrow) / 10.0;
            assert_eq!(lowered.to_bits(), s.to_bits() - 1, "the freeze must round the share down");
            let (solver, alloc) = freezes_in_key_order(&caps, &flows).unwrap();
            assert_eq!(solver.keys[0], (share_key(narrow), 1));
            assert_eq!(solver.keys[1], (share_key(lowered), 2), "the capped flow froze at its cap");
            assert_eq!(alloc.rates[1].to_bits(), lowered.to_bits());
        }

        /// A shrunk input that once failed a property in this module
        /// (recorded by proptest, formerly `proptest-regressions/maxmin.txt`):
        /// seven weighted flows, four of them capped, over four resources.
        #[test]
        fn regression_capped_weighted_flows_over_four_resources() {
            let caps = [544249058.651596, 472289995.6732468, 826993774.208398, 274859428.16449946];
            let flows = [
                spec(5.8165865652732, None, &[0]),
                spec(0.44370643696738143, None, &[2, 3]),
                spec(0.4963109065368166, Some(721662988.5189196), &[0, 2, 3]),
                spec(7.569136992797882, None, &[0, 1, 2]),
                spec(9.308936893227544, Some(233913359.45130593), &[1, 2]),
                spec(3.83369562785346, Some(1452498258.13858), &[0, 3]),
                spec(3.0028372238976258, Some(940907044.5417429), &[1, 3]),
            ];
            replay(&caps, &flows);
        }

        /// The second recorded input: four equal light flows over two
        /// equal links, one of them crossing both.
        #[test]
        fn regression_equal_light_flows_over_two_links() {
            let caps = [1000000.0, 1000000.0];
            let flows = [
                spec(0.1, None, &[0]),
                spec(0.1, None, &[0]),
                spec(0.1, None, &[0, 1]),
                spec(0.1, None, &[1]),
            ];
            replay(&caps, &flows);
        }

        proptest! {
            #[test]
            fn fill_freezes_flows_in_the_order_of_their_keys((caps, flows) in arb_tied_problem()) {
                freezes_in_key_order(&caps, &flows)?;
            }

            #[test]
            fn solver_output_is_valid((caps, flows) in arb_problem()) {
                output_is_valid(&caps, &flows)?;
            }

            #[test]
            fn allocation_is_homogeneous((caps, flows) in arb_problem()) {
                is_homogeneous(&caps, &flows)?;
            }

            #[test]
            fn removal_monotone_on_single_bottleneck(
                cap in 1.0e6..1.0e9f64,
                n in 2usize..10,
            ) {
                // On a single shared resource, removing an unweighted,
                // uncapped competitor weakly increases every remaining rate.
                // (This is FALSE for general multi-link networks — removing
                // a flow on link L can grow a multi-link flow on L that then
                // squeezes a third flow elsewhere — so the property is only
                // asserted in the single-bottleneck setting where it is a
                // theorem.)
                let caps = [cap];
                let flows = vec![FlowSpec::greedy(vec![0]); n];
                let a_all = solve(&caps, &flows);
                let a_red = solve(&caps, &flows[1..]);
                for (i, r) in a_red.rates.iter().enumerate() {
                    let before = a_all.rates[i + 1];
                    prop_assert!(*r >= before - before.abs().max(1.0) * 1e-6);
                }
            }

            #[test]
            fn solver_is_deterministic((caps, flows) in arb_problem()) {
                is_deterministic(&caps, &flows)?;
            }

            #[test]
            fn reusing_a_solver_is_bit_stable((caps, flows) in arb_problem()) {
                solver_reuse_is_bit_stable(&caps, &flows)?;
            }

            #[test]
            fn edits_behind_a_capped_bridge_leave_the_far_side_bit_identical(
                (caps_a, flows_a, delta) in arb_mutated(),
                b in arb_problem(),
            ) {
                // Bridge locality: A and B joined only by a flow that
                // freezes at its cap. Whatever happens inside A, B sees
                // the bridge take exactly its cap and nothing else, so
                // every bit of B stays — there is no component-wide level
                // for A's arithmetic to travel through.
                let n_b = b.1.len();
                let (caps, flows, b_res, b_flows) =
                    side_by_side((caps_a, flows_a), b, FlowSpec::capped(vec![], BRIDGE_CAP));
                let base = solve(&caps, &flows);
                prop_assert_eq!(base.rates[b_flows - 1].to_bits(), BRIDGE_CAP.to_bits());
                let flows2 = apply_delta(&flows, &delta);
                let after = solve(&caps, &flows2);
                let b_flows2 = if matches!(delta, Delta::Remove(_)) { b_flows - 1 } else { b_flows };
                for k in 0..n_b {
                    prop_assert_eq!(
                        base.rates[b_flows + k].to_bits(), after.rates[b_flows2 + k].to_bits(),
                        "rate of B's flow {} moved under {:?}", k, delta);
                }
                for r in b_res..caps.len() {
                    prop_assert_eq!(base.residual[r].to_bits(), after.residual[r].to_bits(),
                        "residual {} moved under {:?}", r, delta);
                }
            }

            #[test]
            fn removing_a_flow_leaves_lower_levels_bit_identical(
                (caps, flows, gone) in arb_problem().prop_flat_map(|(caps, flows)| {
                    let nf = flows.len();
                    (Just(caps), Just(flows), 0..nf)
                })
            ) {
                // A flow that froze strictly below the removed one froze
                // before anything the removed flow crosses became a
                // bottleneck, so its rate cannot depend on it.
                let base = solve(&caps, &flows);
                let level = |a: &Allocation, fs: &[FlowSpec], i: usize| a.rates[i] / fs[i].weight;
                let gone_level = level(&base, &flows, gone);
                let mut rest = flows.clone();
                rest.remove(gone);
                let after = solve(&caps, &rest);
                for i in (0..flows.len()).filter(|&i| i != gone) {
                    if level(&base, &flows, i) < gone_level * (1.0 - EPS) {
                        let j = if i < gone { i } else { i - 1 };
                        prop_assert_eq!(base.rates[i].to_bits(), after.rates[j].to_bits(),
                            "flow {} (level {}) moved when flow {} (level {}) left",
                            i, level(&base, &flows, i), gone, gone_level);
                    }
                }
            }

            #[test]
            fn capped_flows_get_exactly_their_cap((caps, flows) in arb_problem()) {
                // No capped flow is a bit above its cap, and one that no
                // saturated resource holds back is not a bit below it.
                let a = solve(&caps, &flows);
                for (i, f) in flows.iter().enumerate() {
                    let Some(cap) = f.cap else { continue };
                    prop_assert!(a.rates[i] <= cap, "flow {} at {} above cap {}", i, a.rates[i], cap);
                    let held = f.resources.iter().any(|&r| a.residual[r] <= caps[r] * EPS);
                    if !held {
                        prop_assert_eq!(a.rates[i].to_bits(), cap.to_bits(),
                            "flow {} at {} short of cap {}", i, a.rates[i], cap);
                    }
                }
            }

            #[test]
            fn slack_resources_set_no_rate((caps, flows) in arb_problem()) {
                // The lemma: a resource whose members' bounds sum below
                // its capacity never pops with an active flow, so the
                // problem without it has the same rates, bit for bit —
                // and a flow left with no resource at all sits at its cap.
                let (ubs, slack) = bounds_and_slack(&caps, &flows);
                let binding_only: Vec<FlowSpec> = flows
                    .iter()
                    .map(|f| FlowSpec {
                        resources: f.resources.iter().copied().filter(|&r| !slack[r]).collect(),
                        ..f.clone()
                    })
                    .collect();
                let (all, binding) = (solve(&caps, &flows), solve(&caps, &binding_only));
                for (i, f) in binding_only.iter().enumerate() {
                    prop_assert_eq!(all.rates[i].to_bits(), binding.rates[i].to_bits(),
                        "flow {} moved when slack resources {:?} were dropped", i, slack);
                    prop_assert!(all.rates[i] <= ubs[i] * (1.0 + EPS), "flow {} above its bound", i);
                    if f.resources.is_empty() {
                        prop_assert_eq!(Some(all.rates[i].to_bits()), flows[i].cap.map(f64::to_bits),
                            "flow {} crosses only slack resources", i);
                    }
                }
            }
        }
    }
}
