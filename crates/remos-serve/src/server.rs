//! The serving front end.
//!
//! [`Server`] wraps a [`Remos`] facade with everything a shared query
//! service needs on a bad day:
//!
//! * **Admission control** — [`Server::submit`] charges the tenant's
//!   token bucket and enforces the bounded queue; past either limit the
//!   caller gets a typed [`RemosError::Overloaded`] with an honest
//!   `retry_after`, and *no* state is queued. Memory stays bounded at any
//!   offered load.
//! * **Deadlines** — each request carries an absolute deadline on the
//!   measured clock. The budget is threaded through the facade
//!   ([`QueryBudget`]), which sheds at every stage boundary: before
//!   measuring, after measuring, before solving. A request that waited
//!   out its deadline in the queue is shed without spending anything.
//! * **Weighted-fair dequeue** — a seeded lottery over tenant lanes
//!   ([`FairQueue`]); pinned seed + pinned arrival sequence ⇒
//!   bit-identical scheduling, auditable via [`Server::decision_digest`].
//! * **Degradation ladder** — full answer → stale snapshot →
//!   topology-only → typed rejection. The rung is chosen per request by
//!   its `min_quality` floor; degraded answers are marked in their
//!   [`Provenance`](remos_core::Provenance) (`degraded`, `source`).
//!
//! Time passes only through the measurements the served queries take;
//! there is no wall clock anywhere, so every test and benchmark over this
//! layer is reproducible.

use crate::quota::{QuotaConfig, TokenBuckets};
use crate::queue::{FairQueue, Queued, QueueLimits};
use remos_net::rng::Rng;
use remos_core::{
    CoreResult, DataQuality, QueryBudget, QueryResult, QuerySpec, Remos, RemosError,
};
use remos_net::{SimDuration, SimTime};
use remos_obs::{Counter, Fnv, Gauge, Histogram, Obs};
use std::collections::BTreeMap;

/// Serving-layer tuning.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Queued requests across all tenants.
    pub max_queue_depth: usize,
    /// Queued requests for any single tenant.
    pub max_tenant_depth: usize,
    /// Total queued measurement cost, in poll-gap units.
    pub max_queued_cost: u64,
    /// Deadline allowance granted to requests that do not bring their
    /// own; `None` means such requests run unlimited.
    pub default_allowance: Option<SimDuration>,
    /// Per-tenant token-bucket quota.
    pub quota: QuotaConfig,
    /// Dequeue lottery weights per tenant.
    pub weights: BTreeMap<String, u64>,
    /// Weight for tenants not listed in `weights`.
    pub default_weight: u64,
    /// Seed for the weighted-fair dequeue lottery.
    pub fair_seed: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_queue_depth: 64,
            max_tenant_depth: 16,
            max_queued_cost: 256,
            default_allowance: Some(SimDuration::from_secs(10)),
            quota: QuotaConfig::default(),
            weights: BTreeMap::new(),
            default_weight: 1,
            fair_seed: 0x5e11_e5e1,
        }
    }
}

/// One request presented for admission.
#[derive(Clone, Debug)]
pub struct ServeRequest {
    /// Quota/fairness accounting key.
    pub tenant: String,
    /// The query to execute.
    pub spec: QuerySpec,
    /// Deadline allowance measured from admission; `None` takes the
    /// server's `default_allowance`.
    pub allowance: Option<SimDuration>,
}

impl ServeRequest {
    /// A request with the server's default deadline allowance.
    pub fn new(tenant: impl Into<String>, spec: impl Into<QuerySpec>) -> ServeRequest {
        ServeRequest { tenant: tenant.into(), spec: spec.into(), allowance: None }
    }

    /// Give the request its own deadline allowance.
    pub fn with_allowance(mut self, allowance: SimDuration) -> ServeRequest {
        self.allowance = Some(allowance);
        self
    }
}

/// Which rung of the degradation ladder produced an outcome.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rung {
    /// Fresh measurement, within budget.
    Full,
    /// Answered from existing history, quality re-aged to now.
    StaleSnapshot,
    /// Static topology only; every dynamic quantity `Missing`.
    TopologyOnly,
    /// No rung could satisfy the request; the result holds the typed
    /// error (`DeadlineExceeded`, the original substrate failure, or a
    /// semantic rejection).
    Rejected,
}

/// The served (or shed) fate of one admitted request.
#[derive(Debug)]
pub struct ServeOutcome {
    /// Admission id from [`Server::submit`].
    pub id: u64,
    /// The requesting tenant.
    pub tenant: String,
    /// Ladder rung that produced the result.
    pub rung: Rung,
    /// The answer, or the typed error explaining exactly why not.
    pub result: CoreResult<QueryResult>,
    /// Measured time at admission.
    pub enqueued_at: SimTime,
    /// Measured time when serving finished.
    pub finished_at: SimTime,
}

impl ServeOutcome {
    /// Queue wait plus service time, on the measured clock.
    pub fn latency(&self) -> SimDuration {
        self.finished_at.saturating_since(self.enqueued_at)
    }
}

struct ServeMetrics {
    submitted: Counter,
    admitted: Counter,
    shed_quota: Counter,
    shed_overload: Counter,
    shed_deadline: Counter,
    answered_full: Counter,
    answered_stale: Counter,
    answered_topology: Counter,
    rejected: Counter,
    queue_depth: Gauge,
    latency: Histogram,
}

impl ServeMetrics {
    fn new(obs: &Obs) -> ServeMetrics {
        ServeMetrics {
            submitted: obs.counter("serve_submitted_total"),
            admitted: obs.counter("serve_admitted_total"),
            shed_quota: obs.counter("serve_quota_shed_total"),
            shed_overload: obs.counter("serve_overload_shed_total"),
            shed_deadline: obs.counter("serve_deadline_shed_total"),
            answered_full: obs.counter("serve_answered_full_total"),
            answered_stale: obs.counter("serve_answered_stale_total"),
            answered_topology: obs.counter("serve_answered_topology_total"),
            rejected: obs.counter("serve_rejected_total"),
            queue_depth: obs.gauge("serve_queue_depth"),
            latency: obs.histogram("serve_latency_nanos"),
        }
    }
}

const DECISION_ADMIT: u64 = 1;
const DECISION_SHED_QUOTA: u64 = 2;
const DECISION_SHED_QUEUE: u64 = 3;
const DECISION_FULL: u64 = 4;
const DECISION_STALE: u64 = 5;
const DECISION_TOPOLOGY: u64 = 6;
const DECISION_REJECT: u64 = 7;
const DECISION_SHED_DEADLINE: u64 = 8;

/// The overload-safe serving front end over one [`Remos`] facade.
pub struct Server {
    remos: Remos,
    cfg: ServerConfig,
    queue: FairQueue,
    quotas: TokenBuckets,
    rng: Rng,
    next_id: u64,
    /// FNV-1a over every admission and serving decision: two runs with
    /// the same seed and arrival sequence fold to the same digest.
    digest: Fnv,
    metrics: ServeMetrics,
}

impl Server {
    /// Wrap a facade. The server reports into the facade's observability
    /// handle (`serve_*` counters, `serve_queue_depth`,
    /// `serve_latency_nanos`, `serve_request` spans).
    pub fn new(remos: Remos, cfg: ServerConfig) -> Server {
        let metrics = ServeMetrics::new(remos.obs());
        let rng = Rng::seed_from_u64(cfg.fair_seed);
        let quotas = TokenBuckets::new(cfg.quota);
        Server {
            remos,
            cfg,
            queue: FairQueue::new(),
            quotas,
            rng,
            next_id: 0,
            digest: Fnv::new(),
            metrics,
        }
    }

    /// Direct access to the wrapped facade (harnesses, tests).
    pub fn remos(&mut self) -> &mut Remos {
        &mut self.remos
    }

    /// The observability handle the server reports into.
    pub fn obs(&self) -> &Obs {
        self.remos.obs()
    }

    /// Requests currently queued.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// FNV-1a fold of every admission and serving decision so far. Two
    /// runs with the same configuration, seed, and arrival sequence must
    /// report the same digest — the bit-reproducibility contract for shed
    /// decisions.
    pub fn decision_digest(&self) -> u64 {
        self.digest.value()
    }

    fn now(&self) -> SimTime {
        self.remos.collector().now().unwrap_or(SimTime::ZERO)
    }

    fn fold(&mut self, decision: u64, id: u64) {
        self.digest.u64(decision);
        self.digest.u64(id);
    }

    /// Admission control: charge the tenant's token bucket and reserve a
    /// bounded-queue slot. `Ok(id)` queues the request. `Err` is a typed
    /// shed decision made *before* any measurement time is spent:
    /// [`RemosError::Overloaded`] with a `retry_after` hint — exact
    /// bucket-refill time for quota sheds, estimated backlog-drain time
    /// for queue sheds.
    pub fn submit(&mut self, req: ServeRequest) -> CoreResult<u64> {
        self.metrics.submitted.inc();
        let now = self.now();
        if let Err(wait) = self.quotas.admit(&req.tenant, now) {
            self.metrics.shed_quota.inc();
            let id = self.next_id;
            self.fold(DECISION_SHED_QUOTA, id);
            return Err(RemosError::Overloaded { retry_after: wait });
        }
        let poll_gap = self.remos.poll_gap();
        let cost = cost_of(&req.spec, poll_gap);
        let limits = QueueLimits {
            max_depth: self.cfg.max_queue_depth,
            max_tenant_depth: self.cfg.max_tenant_depth,
            max_cost: self.cfg.max_queued_cost,
        };
        // Computed before the push so a refusal can still hint at how
        // long the backlog ahead will take to drain (one of the facade's
        // poll gaps per queued cost unit).
        let backlog_drain =
            poll_gap.mul_u64(self.queue.queued_cost().saturating_add(cost).max(1));
        let id = self.next_id;
        // An allowance past the end of the clock never expires.
        let deadline = req
            .allowance
            .or(self.cfg.default_allowance)
            .map(|allowance| now.checked_add(allowance).unwrap_or(SimTime::MAX));
        let q = Queued {
            id,
            tenant: req.tenant,
            spec: req.spec,
            deadline,
            enqueued_at: now,
            cost,
        };
        match self.queue.push(q, &limits) {
            Ok(()) => {
                self.next_id += 1;
                self.metrics.admitted.inc();
                self.metrics.queue_depth.set(self.queue.len() as f64);
                self.fold(DECISION_ADMIT, id);
                Ok(id)
            }
            Err(_full) => {
                self.metrics.shed_overload.inc();
                self.fold(DECISION_SHED_QUEUE, id);
                Err(RemosError::Overloaded { retry_after: backlog_drain })
            }
        }
    }

    /// Serve one queued request through the degradation ladder. Returns
    /// `None` when the queue is empty. Simulated time passes only through
    /// the measurements the served query takes.
    pub fn serve_next(&mut self) -> Option<ServeOutcome> {
        let q = {
            let weights = &self.cfg.weights;
            let default_weight = self.cfg.default_weight;
            self.queue.pop_weighted(&mut self.rng, |t| {
                weights.get(t).copied().unwrap_or(default_weight)
            })?
        };
        self.metrics.queue_depth.set(self.queue.len() as f64);
        let started = self.now();
        let span = self.remos.obs().span("serve_request", started.as_nanos());
        let budget = match q.deadline {
            Some(d) => QueryBudget::until(d),
            None => QueryBudget::UNLIMITED,
        };
        let (rung, result) = self.ladder(&q, budget);
        let finished = self.now();
        span.end(finished.as_nanos(), &[("id", q.id)]);
        let decision = match (rung, &result) {
            (Rung::Full, _) => {
                self.metrics.answered_full.inc();
                DECISION_FULL
            }
            (Rung::StaleSnapshot, _) => {
                self.metrics.answered_stale.inc();
                DECISION_STALE
            }
            (Rung::TopologyOnly, _) => {
                self.metrics.answered_topology.inc();
                DECISION_TOPOLOGY
            }
            (Rung::Rejected, Err(RemosError::DeadlineExceeded { .. })) => {
                self.metrics.shed_deadline.inc();
                DECISION_SHED_DEADLINE
            }
            (Rung::Rejected, _) => {
                self.metrics.rejected.inc();
                DECISION_REJECT
            }
        };
        self.fold(decision, q.id);
        self.metrics
            .latency
            .observe(finished.saturating_since(q.enqueued_at).as_nanos());
        Some(ServeOutcome {
            id: q.id,
            tenant: q.tenant,
            rung,
            result,
            enqueued_at: q.enqueued_at,
            finished_at: finished,
        })
    }

    /// Serve everything queued, in weighted-fair order.
    pub fn drain(&mut self) -> Vec<ServeOutcome> {
        let mut out = Vec::new();
        while let Some(o) = self.serve_next() {
            out.push(o);
        }
        out
    }

    fn ladder(&mut self, q: &Queued, budget: QueryBudget) -> (Rung, CoreResult<QueryResult>) {
        // Shed before spending anything if the deadline already passed
        // while the request sat in the queue.
        if let Err(e) = budget.check(self.now()) {
            return (Rung::Rejected, Err(e));
        }
        match self.remos.run_spec_within(&q.spec, budget) {
            Ok(r) => (Rung::Full, Ok(r)),
            // A blown deadline is final: a degraded answer would still be
            // late, and late answers teach callers to distrust deadlines.
            Err(e @ RemosError::DeadlineExceeded { .. }) => (Rung::Rejected, Err(e)),
            Err(e) if degradable(&e) => self.degrade(q, e),
            Err(e) => (Rung::Rejected, Err(e)),
        }
    }

    fn degrade(&mut self, q: &Queued, original: RemosError) -> (Rung, CoreResult<QueryResult>) {
        let floor = floor_of(&q.spec);
        // Rung 2: answer from the last good snapshot, re-aged — unless
        // the request demands Fresh, in which case staleness is exactly
        // what it asked not to get.
        if !matches!(floor, Some(DataQuality::Fresh)) {
            if let Some(ans) = self.stale_snapshot_answer(q, floor) {
                return (Rung::StaleSnapshot, Ok(ans));
            }
        }
        // Rung 3: static topology, dynamics Missing — graph queries only,
        // and only when the floor (if any) accepts Missing.
        if let QuerySpec::Graph(g) = &q.spec {
            let missing_ok = floor.is_none_or(|f| DataQuality::Missing.meets(f));
            if missing_ok {
                if let Ok(graph) = self.remos.topology_only(&g.nodes) {
                    return (Rung::TopologyOnly, Ok(QueryResult::Graph(graph)));
                }
            }
        }
        (Rung::Rejected, Err(original))
    }

    fn stale_snapshot_answer(
        &mut self,
        q: &Queued,
        floor: Option<DataQuality>,
    ) -> Option<QueryResult> {
        // How stale would the answer be? Quality floors are enforced
        // against the *re-aged* worst quality — what the inputs are worth
        // now, not when they were measured.
        let latest = self.remos.collector().history().latest()?.t;
        let lag = self.now().saturating_since(latest);
        let ans = self.remos.run_from_history(strip_floor(q.spec.clone())).ok()?;
        let aged = worst_of(&ans).worst(if lag.is_zero() {
            DataQuality::Fresh
        } else {
            DataQuality::Stale { age: lag }
        });
        match floor {
            Some(f) if !aged.meets(f) => None,
            _ => Some(ans),
        }
    }
}

/// Failures that mean "the measurement substrate is unhealthy", where a
/// degraded answer beats an error. Semantic rejections (unknown nodes,
/// malformed queries) and blown deadlines are final.
fn degradable(e: &RemosError) -> bool {
    matches!(
        e,
        RemosError::Collector(_)
            | RemosError::Snmp(_)
            | RemosError::Net(_)
            | RemosError::InsufficientHistory { .. }
    )
}

fn floor_of(spec: &QuerySpec) -> Option<DataQuality> {
    match spec {
        QuerySpec::Graph(g) => g.min_quality,
        QuerySpec::Flows(f) => f.min_quality,
        QuerySpec::WhatIf(w) => w.min_quality,
        QuerySpec::Reachable(_) => None,
    }
}

fn strip_floor(mut spec: QuerySpec) -> QuerySpec {
    match &mut spec {
        QuerySpec::Graph(g) => g.min_quality = None,
        QuerySpec::Flows(f) => f.min_quality = None,
        QuerySpec::WhatIf(w) => w.min_quality = None,
        QuerySpec::Reachable(_) => {}
    }
    spec
}

fn worst_of(r: &QueryResult) -> DataQuality {
    match r {
        QueryResult::Graph(g) => g.worst_quality(),
        QueryResult::Flows(f) => f.worst_quality(),
        QueryResult::Fcts(r) => r
            .provenance
            .as_ref()
            .map(|p| p.worst_quality)
            .unwrap_or(DataQuality::Fresh),
        QueryResult::Peers(_) => DataQuality::Fresh,
    }
}

/// Measurement cost of a request in poll-gap units: how many polls the
/// facade will take to answer it. This is what the queue's cost bound
/// and the overload `retry_after` hints are denominated in.
fn cost_of(spec: &QuerySpec, poll_gap: SimDuration) -> u64 {
    let tf = match spec {
        QuerySpec::Graph(g) => g.timeframe,
        QuerySpec::Flows(f) => f.timeframe,
        QuerySpec::WhatIf(w) => w.timeframe,
        QuerySpec::Reachable(_) => return 1,
    };
    tf.min_samples(poll_gap).max(1) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::breaker::{BreakerCollector, BreakerConfig, BreakerState, CircuitBreaker};
    use remos_core::collector::snmp::{SnmpCollector, SnmpCollectorConfig};
    use remos_core::collector::SimClock;
    use remos_core::{Query, RemosConfig, Timeframe};
    use remos_net::{mbps, Simulator, TopologyBuilder};
    use remos_snmp::fault::FaultPlan;
    use remos_snmp::sim::{register_all_agents_with_faults, share, SharedSim};
    use remos_snmp::{FaultDirector, SimTransport};
    use std::sync::Arc;

    /// m-1, m-2 — aspen === timberline — m-3, m-4, with SNMP agents on
    /// every node and a transport we can kill for fault injection.
    fn stack() -> (Server, SharedSim, Arc<FaultDirector>, Arc<CircuitBreaker>) {
        stack_with(RemosConfig::default(), ServerConfig::default())
    }

    fn stack_with(
        remos_cfg: RemosConfig,
        cfg: ServerConfig,
    ) -> (Server, SharedSim, Arc<FaultDirector>, Arc<CircuitBreaker>) {
        let mut b = TopologyBuilder::new();
        let m1 = b.compute("m-1");
        let m2 = b.compute("m-2");
        let m3 = b.compute("m-3");
        let m4 = b.compute("m-4");
        let aspen = b.network("aspen");
        let timberline = b.network("timberline");
        let lat = SimDuration::from_micros(100);
        b.link(m1, aspen, mbps(100.0), lat).unwrap();
        b.link(m2, aspen, mbps(100.0), lat).unwrap();
        b.link(aspen, timberline, mbps(100.0), lat).unwrap();
        b.link(timberline, m3, mbps(100.0), lat).unwrap();
        b.link(timberline, m4, mbps(100.0), lat).unwrap();
        let sim = share(Simulator::new(b.build().unwrap()).unwrap());
        let transport = Arc::new(SimTransport::new());
        let director = FaultDirector::new();
        let agents = register_all_agents_with_faults(&transport, &sim, "public", &director);
        let mut collector =
            SnmpCollector::new(Arc::clone(&transport), agents, SnmpCollectorConfig::default());
        // Full breaker wiring: per-request health from the manager retry
        // loop, call-level health from the decorator.
        let breaker = CircuitBreaker::new(BreakerConfig::default());
        collector.set_retry_observer(Arc::clone(&breaker) as _);
        let collector = BreakerCollector::wrap(collector, Arc::clone(&breaker));
        let remos =
            Remos::new(Box::new(collector), Box::new(SimClock(Arc::clone(&sim))), remos_cfg);
        let server = Server::new(remos, cfg);
        (server, sim, director, breaker)
    }

    /// Crash every agent forever, starting now: all polls time out.
    fn kill_all_agents(server: &Server, director: &FaultDirector) {
        let now = server.remos.collector().now().unwrap_or(SimTime::ZERO);
        for node in ["m-1", "m-2", "m-3", "m-4", "aspen", "timberline"] {
            director.set_plan(
                node,
                FaultPlan::new().crash(now, SimDuration::from_secs(1_000_000)),
                7,
            );
        }
    }

    fn graph_req(tenant: &str) -> ServeRequest {
        ServeRequest::new(tenant, Query::graph(["m-1", "m-3"]))
    }

    #[test]
    fn submit_serve_answers_fully() {
        let (mut server, _sim, _d, _b) = stack();
        let id = server.submit(graph_req("a")).unwrap();
        let out = server.serve_next().unwrap();
        assert_eq!(out.id, id);
        assert_eq!(out.rung, Rung::Full);
        let g = out.result.unwrap().into_graph().unwrap();
        let p = g.provenance.unwrap();
        assert!(!p.degraded);
        assert!(p.source.unwrap().starts_with("snmp("));
        assert!(server.serve_next().is_none());
    }

    #[test]
    fn quota_sheds_with_retry_hint() {
        let (mut server, _sim, _d, _b) = stack();
        // Default quota: burst of 8 at t=0.
        let mut shed = 0;
        for _ in 0..12 {
            match server.submit(graph_req("greedy")) {
                Ok(_) => {}
                Err(RemosError::Overloaded { retry_after }) => {
                    assert!(retry_after > SimDuration::ZERO);
                    shed += 1;
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert_eq!(shed, 4);
        // A different tenant is unaffected.
        assert!(server.submit(graph_req("patient")).is_ok());
    }

    #[test]
    fn queue_bounds_shed_past_burst() {
        let mut cfg = ServerConfig { max_queue_depth: 3, ..ServerConfig::default() };
        cfg.quota.rate_milli_per_sec = 0; // isolate the queue bound
        let (mut server, _sim, _d, _b) = stack_with(RemosConfig::default(), cfg);
        for i in 0..3 {
            assert!(server.submit(graph_req(&format!("t{i}"))).is_ok());
        }
        match server.submit(graph_req("t9")) {
            Err(RemosError::Overloaded { retry_after }) => {
                assert!(retry_after > SimDuration::ZERO)
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        assert_eq!(server.queue_depth(), 3);
    }

    #[test]
    fn queue_sheds_price_the_backlog_at_the_facades_poll_gap() {
        // One request queued, one more refused: the hint is the two polls
        // of backlog, priced at the wrapped facade's 1 s gap.
        let remos_cfg =
            RemosConfig { poll_gap: SimDuration::from_secs(1), ..RemosConfig::default() };
        let cfg = ServerConfig { max_queue_depth: 1, ..ServerConfig::default() };
        let (mut server, _sim, _d, _b) = stack_with(remos_cfg, cfg);
        server.submit(graph_req("a")).unwrap();
        match server.submit(graph_req("b")) {
            Err(RemosError::Overloaded { retry_after }) => {
                assert_eq!(retry_after, SimDuration::from_secs(2))
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
    }

    #[test]
    fn expired_deadline_sheds_without_measuring() {
        let (mut server, _sim, _d, _b) = stack();
        // Zero allowance: the deadline passes the moment it is admitted.
        server
            .submit(graph_req("a").with_allowance(SimDuration::ZERO))
            .unwrap();
        // Prime the clock past t=0 so the ZERO-allowance deadline (t=0,
        // admission time before any measurement) is behind "now".
        server.remos().run(Query::graph(["m-1", "m-2"])).unwrap();
        server
            .submit(graph_req("b").with_allowance(SimDuration::ZERO))
            .unwrap();
        let outs = server.drain();
        let b_out = outs.iter().find(|o| o.tenant == "b").unwrap();
        assert_eq!(b_out.rung, Rung::Rejected);
        assert!(matches!(
            b_out.result,
            Err(RemosError::DeadlineExceeded { .. })
        ));
    }

    /// An allowance that ends past `SimTime::MAX` (a request file's
    /// `1e300` seconds) saturates there: it is admitted, never sheds for
    /// its deadline and is answered in full, whether the request brings
    /// it or the server's default grants it.
    #[test]
    fn an_allowance_past_the_clock_never_expires() {
        let forever = SimDuration::from_nanos(u64::MAX);
        let cfg = ServerConfig { default_allowance: Some(forever), ..ServerConfig::default() };
        let (mut server, _sim, _d, _b) = stack_with(RemosConfig::default(), cfg);
        server.remos().run(Query::graph(["m-1", "m-2"])).unwrap();
        server.submit(graph_req("a").with_allowance(forever)).unwrap();
        server.submit(graph_req("b")).unwrap();
        let outs = server.drain();
        assert_eq!(outs.len(), 2);
        for out in outs {
            assert_eq!(out.rung, Rung::Full, "{}", out.tenant);
            assert!(out.result.is_ok(), "{}: {:?}", out.tenant, out.result);
        }
    }

    #[test]
    fn dead_substrate_trips_breaker_and_degrades_to_stale() {
        let (mut server, _sim, director, breaker) = stack();
        // Prime: one full answer builds topology + history.
        server.submit(graph_req("a")).unwrap();
        assert_eq!(server.drain().pop().unwrap().rung, Rung::Full);
        assert_eq!(breaker.state(), BreakerState::Closed);
        // Kill every agent. Dead agents answer nothing: polls "succeed"
        // with all-Missing samples, each of which the breaker counts as
        // a failure — along with the per-request timeouts the retry
        // observer reports — until it trips open. Once open, serving
        // fast-fails into the stale-snapshot rung.
        kill_all_agents(&server, &director);
        let mut stale = None;
        for i in 0..8 {
            server.submit(graph_req(&format!("t{i}"))).unwrap();
            let out = server.drain().pop().unwrap();
            if out.rung == Rung::StaleSnapshot {
                stale = Some(out);
                break;
            }
            assert_eq!(out.rung, Rung::Full);
        }
        assert_eq!(breaker.state(), BreakerState::Open);
        assert!(breaker.times_opened() >= 1);
        let out = stale.expect("breaker never tripped into the stale rung");
        let g = out.result.unwrap().into_graph().unwrap();
        let p = g.provenance.unwrap();
        assert!(p.degraded);
        assert!(p.source.unwrap().contains("[breaker open]"));
        // A Fresh floor refuses the stale rung, and Missing does not meet
        // Fresh either, so topology-only is refused too: typed rejection.
        let strict = ServeRequest::new(
            "fresh-demander",
            Query::graph(["m-1", "m-3"]).min_quality(DataQuality::Fresh),
        );
        server.submit(strict).unwrap();
        let out = server.drain().pop().unwrap();
        assert_eq!(out.rung, Rung::Rejected);
        assert!(out.result.is_err());
    }

    #[test]
    fn floorless_queries_survive_empty_history_via_topology_rung() {
        let (mut server, _sim, _director, breaker) = stack();
        // Discover the topology but take no measurements: history is
        // empty, so the stale-snapshot rung has nothing to serve from.
        server.remos().refresh_topology().unwrap();
        // Force the breaker open so polls fast-fail.
        let now = server.remos.collector().now().unwrap_or(SimTime::ZERO);
        for _ in 0..3 {
            breaker.record_failure(now);
        }
        assert_eq!(breaker.state(), BreakerState::Open);
        // The floorless graph query still gets the static topology with
        // Missing dynamics — the last rung before rejection.
        server.submit(graph_req("b")).unwrap();
        let out = server.drain().pop().unwrap();
        assert_eq!(out.rung, Rung::TopologyOnly);
        let g = out.result.unwrap().into_graph().unwrap();
        let p = g.provenance.unwrap();
        assert!(p.degraded);
        assert_eq!(p.solver, "topology-only");
    }

    #[test]
    fn decision_digest_is_reproducible() {
        let run = || {
            let (mut server, _sim, director, _breaker) = stack();
            for i in 0..20 {
                let tenant = ["a", "b", "c"][i % 3];
                let _ = server.submit(graph_req(tenant));
                if i == 9 {
                    kill_all_agents(&server, &director);
                }
                if i % 4 == 3 {
                    let _ = server.serve_next();
                }
            }
            let _ = server.drain();
            server.decision_digest()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn window_queries_cost_more_than_current() {
        let gap = SimDuration::from_millis(250);
        let current: QuerySpec = Query::graph(["m-1"]).into();
        let window: QuerySpec = Query::graph(["m-1"])
            .timeframe(Timeframe::Window(SimDuration::from_secs(5)))
            .into();
        assert_eq!(cost_of(&current, gap), 1);
        assert_eq!(cost_of(&window, gap), 20);
    }
}
