//! Deterministic interleaving exhaustion for the serving crate's two
//! concurrency-sensitive state machines.
//!
//! Real thread schedules cannot be enumerated from a unit test, but both
//! `FairQueue` (used under the server's queue mutex) and `CircuitBreaker`
//! (a `Mutex<Inner>` shared across collector and observer threads) are
//! linearizable: every concurrent history is equivalent to SOME sequential
//! order of their operations. So we enumerate *every* merge order of
//! small per-thread operation scripts — preserving each thread's program
//! order, the way a loom-style model checker explores schedules — and
//! check the invariants after every single step of every order. A bug
//! that depends on operation ordering (lost accounting on a refused push,
//! a breaker that can re-close without a probe, a non-monotone trip
//! counter) has nowhere to hide in an exhaustive enumeration.
//!
//! A final test hammers the breaker from real threads as a smoke check.

use remos_net::rng::Rng;
use remos_core::Query;
use remos_net::{SimDuration, SimTime};
use remos_serve::{
    BreakerConfig, BreakerState, CircuitBreaker, FairQueue, QueueFull, QueueLimits, Queued,
};
use std::collections::BTreeMap;

/// All merge orders of the per-thread scripts, preserving each thread's
/// internal order. For scripts of lengths (a, b, ...) this yields the
/// multinomial (a+b+...)! / (a! b! ...) orders.
fn interleavings<T: Clone>(threads: &[Vec<T>]) -> Vec<Vec<T>> {
    fn rec<T: Clone>(
        threads: &[Vec<T>],
        idx: &mut [usize],
        cur: &mut Vec<T>,
        out: &mut Vec<Vec<T>>,
    ) {
        let mut done = true;
        for t in 0..threads.len() {
            if idx[t] < threads[t].len() {
                done = false;
                cur.push(threads[t][idx[t]].clone());
                idx[t] += 1;
                rec(threads, idx, cur, out);
                idx[t] -= 1;
                cur.pop();
            }
        }
        if done {
            out.push(cur.clone());
        }
    }
    let mut out = Vec::new();
    rec(threads, &mut vec![0; threads.len()], &mut Vec::new(), &mut out);
    out
}

#[test]
fn interleavings_are_exhaustive() {
    // 3+3 ops → C(6,3) = 20 merge orders; 2+2+2 → 6!/(2!2!2!) = 90.
    let two = interleavings(&[vec![1, 2, 3], vec![4, 5, 6]]);
    assert_eq!(two.len(), 20);
    let three = interleavings(&[vec![1, 2], vec![3, 4], vec![5, 6]]);
    assert_eq!(three.len(), 90);
    // Program order is preserved in every merge.
    for order in &two {
        let pos = |x: i32| order.iter().position(|&y| y == x).unwrap();
        assert!(pos(1) < pos(2) && pos(2) < pos(3));
        assert!(pos(4) < pos(5) && pos(5) < pos(6));
    }
    // No duplicate orders.
    let mut sorted = two.clone();
    sorted.sort();
    sorted.dedup();
    assert_eq!(sorted.len(), 20);
}

// ---------------------------------------------------------------------------
// FairQueue: bounds and accounting hold in every operation order.
// ---------------------------------------------------------------------------

#[derive(Clone, Debug)]
enum QOp {
    Push { id: u64, tenant: &'static str, cost: u64 },
    Pop,
}

/// Independent mirror of the queue's admission contract: same bound
/// checks in the same order (total depth, then cost, then tenant lane),
/// plain FIFO lanes. The real queue must agree with this model at every
/// step — and on a refused push it must be left bit-for-bit unchanged.
#[derive(Default)]
struct MirrorQueue {
    lanes: BTreeMap<&'static str, Vec<(u64, u64)>>,
}

impl MirrorQueue {
    fn len(&self) -> usize {
        self.lanes.values().map(|l| l.len()).sum()
    }

    fn cost(&self) -> u64 {
        self.lanes.values().flatten().map(|&(_, c)| c).sum()
    }

    fn push(&mut self, id: u64, tenant: &'static str, cost: u64, lim: &QueueLimits) -> Result<(), QueueFull> {
        if self.len() >= lim.max_depth {
            return Err(QueueFull::Total);
        }
        if self.cost().saturating_add(cost) > lim.max_cost {
            return Err(QueueFull::Cost);
        }
        if self.lanes.get(tenant).map(|l| l.len()).unwrap_or(0) >= lim.max_tenant_depth {
            return Err(QueueFull::Tenant);
        }
        self.lanes.entry(tenant).or_default().push((id, cost));
        Ok(())
    }

    /// Remove and return the FIFO head of `tenant`'s lane.
    fn take_front(&mut self, tenant: &str) -> Option<(u64, u64)> {
        let lane = self.lanes.get_mut(tenant)?;
        if lane.is_empty() {
            return None;
        }
        let head = lane.remove(0);
        if lane.is_empty() {
            self.lanes.retain(|_, l| !l.is_empty());
        }
        Some(head)
    }
}

fn queued(id: u64, tenant: &str, cost: u64) -> Queued {
    Queued {
        id,
        tenant: tenant.to_string(),
        spec: Query::graph(["m-1"]).into(),
        deadline: None,
        enqueued_at: SimTime::ZERO,
        cost,
    }
}

fn check_queue_agrees(q: &FairQueue, m: &MirrorQueue, lim: &QueueLimits, ctx: &str) {
    assert_eq!(q.len(), m.len(), "{ctx}: depth accounting diverged");
    assert_eq!(q.queued_cost(), m.cost(), "{ctx}: cost accounting diverged");
    assert!(q.len() <= lim.max_depth, "{ctx}: depth bound violated");
    assert!(q.queued_cost() <= lim.max_cost, "{ctx}: cost bound violated");
    for tenant in ["a", "b", "c"] {
        let want = m.lanes.get(tenant).map(|l| l.len()).unwrap_or(0);
        assert_eq!(q.depth_of(tenant), want, "{ctx}: lane depth diverged for {tenant}");
        assert!(want <= lim.max_tenant_depth, "{ctx}: tenant bound violated for {tenant}");
    }
}

#[test]
fn fair_queue_bounds_hold_in_every_interleaving() {
    // Two producers and one consumer, scripted to collide with every
    // bound: tenant "a" overruns its lane, "b"'s second push overruns
    // the cost budget in most orders, and the total-depth bound trips
    // whenever pops land late. 3+3+2 ops → 8!/(3!3!2!) = 560 orders.
    let threads: Vec<Vec<QOp>> = vec![
        vec![
            QOp::Push { id: 0, tenant: "a", cost: 2 },
            QOp::Push { id: 1, tenant: "a", cost: 2 },
            QOp::Push { id: 2, tenant: "a", cost: 1 },
        ],
        vec![
            QOp::Push { id: 10, tenant: "b", cost: 3 },
            QOp::Push { id: 11, tenant: "b", cost: 4 },
            QOp::Push { id: 12, tenant: "c", cost: 1 },
        ],
        vec![QOp::Pop, QOp::Pop],
    ];
    let lim = QueueLimits { max_depth: 4, max_tenant_depth: 2, max_cost: 8 };

    let orders = interleavings(&threads);
    assert_eq!(orders.len(), 560);
    for (n, order) in orders.iter().enumerate() {
        let mut q = FairQueue::new();
        let mut m = MirrorQueue::default();
        // The lottery RNG varies per order; fairness is statistical, the
        // invariants must hold for any draw sequence.
        let mut rng = Rng::seed_from_u64(n as u64);
        for (step, op) in order.iter().enumerate() {
            let ctx = format!("order {n} step {step} ({op:?})");
            match *op {
                QOp::Push { id, tenant, cost } => {
                    let got = q.push(queued(id, tenant, cost), &lim);
                    let want = m.push(id, tenant, cost, &lim);
                    assert_eq!(got, want, "{ctx}: admission decision diverged");
                }
                QOp::Pop => {
                    match q.pop_weighted(&mut rng, |_| 1) {
                        Some(item) => {
                            // Whichever lane won the lottery, the item
                            // must be that lane's FIFO head.
                            let (id, cost) = m
                                .take_front(&item.tenant)
                                .unwrap_or_else(|| panic!("{ctx}: popped from empty mirror lane"));
                            assert_eq!(item.id, id, "{ctx}: not the FIFO head");
                            assert_eq!(item.cost, cost, "{ctx}: cost mismatch");
                        }
                        None => assert_eq!(m.len(), 0, "{ctx}: spurious empty pop"),
                    }
                }
            }
            check_queue_agrees(&q, &m, &lim, &ctx);
        }
        // Drain: everything admitted must come back out exactly once.
        while let Some(item) = q.pop_weighted(&mut rng, |_| 1) {
            let (id, _) = m.take_front(&item.tenant).expect("drain: mirror empty");
            assert_eq!(item.id, id, "drain order {n}: not the FIFO head");
        }
        assert_eq!(m.len(), 0, "order {n}: items stranded in the queue");
        assert_eq!(q.queued_cost(), 0, "order {n}: cost accounting leaked");
    }
}

// ---------------------------------------------------------------------------
// CircuitBreaker: state-machine legality in every operation order.
// ---------------------------------------------------------------------------

#[derive(Clone, Debug)]
enum BOp {
    Fail(SimTime),
    Success,
    Allow(SimTime),
    NoteTime(SimTime),
}

/// Independent mirror of the breaker contract. Written from the
/// documented semantics, not the implementation: `Closed` counts
/// consecutive failures and trips at the threshold; `Open` fast-fails
/// until `until`, then one `allow` moves to `HalfOpen`; a half-open
/// probe's outcome decides `Closed` vs `Open`; failures are stamped with
/// the latest time the breaker has seen.
struct MirrorBreaker {
    cfg: BreakerConfig,
    state: MState,
    last_now: SimTime,
    opened: u64,
}

enum MState {
    Closed { fails: u32 },
    Open { until: SimTime },
    HalfOpen,
}

impl MirrorBreaker {
    fn new(cfg: BreakerConfig) -> MirrorBreaker {
        MirrorBreaker { cfg, state: MState::Closed { fails: 0 }, last_now: SimTime::ZERO, opened: 0 }
    }

    fn public(&self) -> BreakerState {
        match self.state {
            MState::Closed { .. } => BreakerState::Closed,
            MState::Open { .. } => BreakerState::Open,
            MState::HalfOpen => BreakerState::HalfOpen,
        }
    }

    fn note(&mut self, now: SimTime) {
        if now > self.last_now {
            self.last_now = now;
        }
    }

    fn allow(&mut self, now: SimTime) -> bool {
        self.note(now);
        match self.state {
            MState::Closed { .. } | MState::HalfOpen => true,
            MState::Open { until } => {
                if now >= until {
                    self.state = MState::HalfOpen;
                    true
                } else {
                    false
                }
            }
        }
    }

    fn success(&mut self) {
        match self.state {
            MState::Closed { .. } | MState::HalfOpen => self.state = MState::Closed { fails: 0 },
            MState::Open { .. } => {}
        }
    }

    fn fail(&mut self, now: SimTime) {
        self.note(now);
        let until = self.last_now + self.cfg.open_for;
        match self.state {
            MState::Closed { fails } => {
                if fails + 1 >= self.cfg.failure_threshold {
                    self.state = MState::Open { until };
                    self.opened += 1;
                } else {
                    self.state = MState::Closed { fails: fails + 1 };
                }
            }
            MState::HalfOpen => {
                self.state = MState::Open { until };
                self.opened += 1;
            }
            MState::Open { .. } => {}
        }
    }
}

fn run_breaker_orders(threads: Vec<Vec<BOp>>, cfg: BreakerConfig, expect_orders: usize) {
    let orders = interleavings(&threads);
    assert_eq!(orders.len(), expect_orders);
    for (n, order) in orders.iter().enumerate() {
        let b = CircuitBreaker::new(cfg);
        let mut m = MirrorBreaker::new(cfg);
        let mut prev_opened = 0u64;
        for (step, op) in order.iter().enumerate() {
            let ctx = format!("order {n} step {step} ({op:?})");
            match *op {
                BOp::Fail(t) => {
                    b.record_failure(t);
                    m.fail(t);
                }
                BOp::Success => {
                    b.record_success();
                    m.success();
                }
                BOp::Allow(t) => {
                    let got = b.allow(t);
                    let want = m.allow(t);
                    assert_eq!(got, want, "{ctx}: admission decision diverged");
                }
                BOp::NoteTime(t) => {
                    b.note_time(t);
                    m.note(t);
                }
            }
            assert_eq!(b.state(), m.public(), "{ctx}: state diverged");
            let opened = b.times_opened();
            assert_eq!(opened, m.opened, "{ctx}: trip count diverged");
            assert!(opened >= prev_opened, "{ctx}: times_opened went backwards");
            assert!(
                opened - prev_opened <= 1,
                "{ctx}: one operation tripped the breaker twice"
            );
            prev_opened = opened;
        }
    }
}

#[test]
fn breaker_trip_and_probe_hold_in_every_interleaving() {
    // Collector thread reports failures while the SNMP retry observer
    // reports a success and a late failure, and a server thread keeps
    // asking `allow`. 3+2+3 ops → 8!/(3!2!3!) = 560 orders, covering
    // streak-reset races, trip-at-threshold races, and probe admission
    // before/after the open window.
    let t = |s: u64| SimTime::from_secs(s);
    let cfg = BreakerConfig {
        failure_threshold: 3,
        open_for: SimDuration::from_secs(5),
        all_missing_is_failure: true,
    };
    run_breaker_orders(
        vec![
            vec![BOp::Fail(t(10)), BOp::Fail(t(11)), BOp::Fail(t(12))],
            vec![BOp::Success, BOp::Fail(t(13))],
            vec![BOp::Allow(t(12)), BOp::Allow(t(16)), BOp::Allow(t(20))],
        ],
        cfg,
        560,
    );
}

#[test]
fn breaker_half_open_probe_races_hold_in_every_interleaving() {
    // Start from a tripped breaker (threshold 1) and race the probe's
    // verdict against more failures and admission checks. Covers: a
    // stray success while open must NOT close the breaker; a half-open
    // failure re-opens with a fresh window; `note_time` from the retry
    // observer path advances the stamp used by clockless failures.
    let t = |s: u64| SimTime::from_secs(s);
    let cfg = BreakerConfig {
        failure_threshold: 1,
        open_for: SimDuration::from_secs(5),
        all_missing_is_failure: true,
    };
    run_breaker_orders(
        vec![
            vec![BOp::Fail(t(1)), BOp::Allow(t(6)), BOp::Success],
            vec![BOp::NoteTime(t(8)), BOp::Fail(t(2)), BOp::Allow(t(14))],
            vec![BOp::Allow(t(3)), BOp::Allow(t(7))],
        ],
        cfg,
        560,
    );
}

// ---------------------------------------------------------------------------
// Real threads: the breaker is Sync; hammer it and check global bounds.
// ---------------------------------------------------------------------------

#[test]
fn breaker_survives_concurrent_hammering() {
    const THREADS: usize = 4;
    const OPS: u64 = 500;
    let cfg = BreakerConfig {
        failure_threshold: 2,
        open_for: SimDuration::from_secs(1),
        all_missing_is_failure: true,
    };
    let b = CircuitBreaker::new(cfg);
    let handles: Vec<_> = (0..THREADS)
        .map(|tid| {
            let b = std::sync::Arc::clone(&b);
            std::thread::spawn(move || {
                let mut failure_ops = 0u64;
                for i in 0..OPS {
                    let now = SimTime::from_secs(i);
                    match (tid + i as usize) % 3 {
                        0 => {
                            b.record_failure(now);
                            failure_ops += 1;
                        }
                        1 => b.record_success(),
                        _ => {
                            b.allow(now);
                        }
                    }
                    let _state = b.state();
                }
                failure_ops
            })
        })
        .collect();
    let failure_ops: u64 = handles
        .into_iter()
        .map(|h| h.join().expect("worker panicked"))
        .sum();
    // Each trip consumes at least one failure report, so the trip count
    // is bounded by the number of failure ops issued across all threads.
    assert!(b.times_opened() <= failure_ops);
    assert!(matches!(
        b.state(),
        BreakerState::Closed | BreakerState::Open | BreakerState::HalfOpen
    ));
}
