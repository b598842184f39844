//! Bounded, tenant-fair request queue.
//!
//! One FIFO lane per tenant (`BTreeMap`, so iteration order — and every
//! digest derived from it — is deterministic), global depth and cost
//! bounds enforced *on push* so queue memory stays bounded no matter the
//! offered load, and a seeded weighted lottery on dequeue so a heavy
//! tenant cannot starve light ones.
//!
//! This module is the one sanctioned `VecDeque` home in the serving crate
//! (see remos-audit's `unbounded-queue` rule): every enqueue goes through
//! [`FairQueue::push`], which refuses work past the configured bounds
//! instead of growing.

use remos_net::rng::Rng;
use remos_core::QuerySpec;
use remos_net::SimTime;
use std::collections::{BTreeMap, VecDeque};

/// One admitted request waiting to be served.
#[derive(Clone, Debug)]
pub struct Queued {
    /// Monotone admission id, assigned by the server.
    pub id: u64,
    /// Quota/fairness accounting key.
    pub tenant: String,
    /// The query to execute.
    pub spec: QuerySpec,
    /// Absolute deadline on the measured clock, if the request has one.
    pub deadline: Option<SimTime>,
    /// Measured time at admission (latency accounting).
    pub enqueued_at: SimTime,
    /// Admission cost in poll-gap units: how much measurement time the
    /// request is expected to consume.
    pub cost: u64,
}

/// Why a push was refused (the caller turns this into a typed shed).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueueFull {
    /// Global depth bound hit.
    Total,
    /// The tenant's own lane is full.
    Tenant,
    /// Total queued measurement cost bound hit.
    Cost,
}

/// Bounds enforced by [`FairQueue::push`].
#[derive(Clone, Copy, Debug)]
pub struct QueueLimits {
    /// Requests queued across all tenants.
    pub max_depth: usize,
    /// Requests queued for any single tenant.
    pub max_tenant_depth: usize,
    /// Sum of queued request costs (poll-gap units).
    pub max_cost: u64,
}

/// The bounded multi-lane queue.
#[derive(Debug, Default)]
pub struct FairQueue {
    lanes: BTreeMap<String, VecDeque<Queued>>,
    len: usize,
    cost: u64,
}

impl FairQueue {
    /// An empty queue.
    pub fn new() -> FairQueue {
        FairQueue::default()
    }

    /// Total queued requests.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sum of queued request costs (poll-gap units).
    pub fn queued_cost(&self) -> u64 {
        self.cost
    }

    /// Requests queued for one tenant.
    pub fn depth_of(&self, tenant: &str) -> usize {
        self.lanes.get(tenant).map(|l| l.len()).unwrap_or(0)
    }

    /// Enqueue within bounds. A refusal means the caller must shed the
    /// request — nothing is ever queued past the limits, which is what
    /// keeps serving memory bounded under overload.
    pub fn push(&mut self, q: Queued, limits: &QueueLimits) -> Result<(), QueueFull> {
        if self.len >= limits.max_depth {
            return Err(QueueFull::Total);
        }
        if self.cost.saturating_add(q.cost) > limits.max_cost {
            return Err(QueueFull::Cost);
        }
        if self.depth_of(&q.tenant) >= limits.max_tenant_depth {
            return Err(QueueFull::Tenant);
        }
        self.len += 1;
        self.cost = self.cost.saturating_add(q.cost);
        self.lanes.entry(q.tenant.clone()).or_default().push_back(q);
        Ok(())
    }

    /// Weighted-fair dequeue: a lottery over non-empty lanes with tickets
    /// proportional to tenant weight (floored at 1), drawn from the
    /// caller's seeded RNG. Within a lane, FIFO. Deterministic for a
    /// given RNG state and queue content.
    pub fn pop_weighted(
        &mut self,
        rng: &mut Rng,
        weight_of: impl Fn(&str) -> u64,
    ) -> Option<Queued> {
        let total: u64 = self
            .lanes
            .iter()
            .filter(|(_, lane)| !lane.is_empty())
            .map(|(t, _)| weight_of(t).max(1))
            .sum();
        if total == 0 {
            return None;
        }
        let mut ticket = rng.gen_range(0..total);
        let mut winner = None;
        for (t, lane) in &self.lanes {
            if lane.is_empty() {
                continue;
            }
            let w = weight_of(t).max(1);
            if ticket < w {
                winner = Some(t.clone());
                break;
            }
            ticket -= w;
        }
        let tenant = winner?;
        let lane = self.lanes.get_mut(&tenant)?;
        let q = lane.pop_front()?;
        if lane.is_empty() {
            self.lanes.remove(&tenant);
        }
        self.len -= 1;
        self.cost = self.cost.saturating_sub(q.cost);
        Some(q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use remos_core::Query;

    fn req(id: u64, tenant: &str, cost: u64) -> Queued {
        Queued {
            id,
            tenant: tenant.to_string(),
            spec: Query::graph(["m-1"]).into(),
            deadline: None,
            enqueued_at: SimTime::ZERO,
            cost,
        }
    }

    const LIMITS: QueueLimits = QueueLimits { max_depth: 4, max_tenant_depth: 2, max_cost: 10 };

    #[test]
    fn bounds_are_enforced_per_axis() {
        let mut q = FairQueue::new();
        assert!(q.push(req(0, "a", 1), &LIMITS).is_ok());
        assert!(q.push(req(1, "a", 1), &LIMITS).is_ok());
        // Tenant lane full.
        assert_eq!(q.push(req(2, "a", 1), &LIMITS), Err(QueueFull::Tenant));
        // Cost bound: 2 queued, adding cost 9 would exceed 10.
        assert_eq!(q.push(req(3, "b", 9), &LIMITS), Err(QueueFull::Cost));
        assert!(q.push(req(4, "b", 1), &LIMITS).is_ok());
        assert!(q.push(req(5, "c", 1), &LIMITS).is_ok());
        // Global depth bound.
        assert_eq!(q.push(req(6, "d", 1), &LIMITS), Err(QueueFull::Total));
        assert_eq!(q.len(), 4);
        assert_eq!(q.queued_cost(), 4);
    }

    #[test]
    fn pop_is_fifo_within_a_lane_and_updates_accounting() {
        let mut q = FairQueue::new();
        q.push(req(0, "a", 2), &LIMITS).unwrap();
        q.push(req(1, "a", 3), &LIMITS).unwrap();
        let mut rng = Rng::seed_from_u64(7);
        let first = q.pop_weighted(&mut rng, |_| 1).unwrap();
        assert_eq!(first.id, 0);
        assert_eq!(q.len(), 1);
        assert_eq!(q.queued_cost(), 3);
        assert_eq!(q.pop_weighted(&mut rng, |_| 1).unwrap().id, 1);
        assert!(q.pop_weighted(&mut rng, |_| 1).is_none());
        assert_eq!(q.queued_cost(), 0);
    }

    #[test]
    fn weights_bias_the_lottery() {
        // Tenant "heavy" has weight 9, "light" weight 1: over many
        // independent draws, heavy should win the large majority.
        let mut heavy_wins = 0;
        for seed in 0..200u64 {
            let mut q = FairQueue::new();
            let limits = QueueLimits { max_depth: 8, max_tenant_depth: 4, max_cost: 100 };
            q.push(req(0, "heavy", 1), &limits).unwrap();
            q.push(req(1, "light", 1), &limits).unwrap();
            let mut rng = Rng::seed_from_u64(seed);
            let first = q
                .pop_weighted(&mut rng, |t| if t == "heavy" { 9 } else { 1 })
                .unwrap();
            if first.tenant == "heavy" {
                heavy_wins += 1;
            }
        }
        assert!(heavy_wins > 140, "heavy won only {heavy_wins}/200 draws");
    }

    #[test]
    fn equal_weights_do_not_starve_any_tenant() {
        let limits = QueueLimits { max_depth: 64, max_tenant_depth: 32, max_cost: 1000 };
        let mut q = FairQueue::new();
        for i in 0..10 {
            q.push(req(i, "a", 1), &limits).unwrap();
            q.push(req(100 + i, "b", 1), &limits).unwrap();
        }
        let mut rng = Rng::seed_from_u64(42);
        let mut first_b_position = None;
        for pos in 0.. {
            let Some(item) = q.pop_weighted(&mut rng, |_| 1) else { break };
            if item.tenant == "b" && first_b_position.is_none() {
                first_b_position = Some(pos);
            }
        }
        // With equal weights "b" must get service well before "a" drains.
        assert!(first_b_position.unwrap() < 10);
    }

    #[test]
    fn dequeue_order_is_seed_deterministic() {
        let order = |seed: u64| {
            let limits = QueueLimits { max_depth: 64, max_tenant_depth: 32, max_cost: 1000 };
            let mut q = FairQueue::new();
            for i in 0..8 {
                q.push(req(i, ["a", "b", "c"][i as usize % 3], 1), &limits).unwrap();
            }
            let mut rng = Rng::seed_from_u64(seed);
            let mut ids = Vec::new();
            while let Some(item) = q.pop_weighted(&mut rng, |_| 1) {
                ids.push(item.id);
            }
            ids
        };
        assert_eq!(order(1998), order(1998));
        // Different seed, (almost surely) different interleaving — but
        // always a permutation of the same set.
        let mut a = order(1998);
        let mut b = order(7);
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }
}
