//! Client-side manager: typed get / walk / bulk-walk over a [`Transport`].
//!
//! Lost datagrams are retried under a [`RetryPolicy`]: exponential backoff
//! with seeded full jitter, bounded by a per-request deadline budget. Only
//! timeouts are retryable — authentication failures, decode errors, and
//! agent errors surface immediately, because retrying them can never
//! succeed and only hides the fault from the caller.

use crate::error::{SnmpError, SnmpResult};
use crate::oid::Oid;
use crate::pdu::{ErrorStatus, Pdu, VarBind};
use crate::transport::Transport;
use crate::value::Value;
use remos_obs::sync::Mutex;
use remos_net::rng::Rng;
use remos_obs::{Counter, Obs};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Cached fault-path counters (see `remos-obs`): how often requests were
/// retried, gave up on timeout, or failed hard (non-retryable).
#[derive(Default)]
struct ManagerMetrics {
    requests: Counter,
    retries: Counter,
    timeouts: Counter,
    hard_errors: Counter,
}

impl ManagerMetrics {
    fn new(obs: &Obs) -> ManagerMetrics {
        ManagerMetrics {
            requests: obs.counter("snmp_requests_total"),
            retries: obs.counter("snmp_retries_total"),
            timeouts: obs.counter("snmp_timeouts_total"),
            hard_errors: obs.counter("snmp_hard_errors_total"),
        }
    }
}

/// Default GETBULK repetition count.
pub const DEFAULT_MAX_REPETITIONS: u32 = 32;

/// Retry/backoff behavior of a [`Manager`].
///
/// Durations here are *virtual*: the simulated transport answers (or times
/// out) instantly, so the manager charges each timed-out attempt
/// `attempt_timeout` and each backoff its delay against `deadline` without
/// ever sleeping. A request stops retrying when its next attempt could not
/// finish inside the remaining budget.
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Retries after the first attempt (so `max_retries + 1` attempts total).
    pub max_retries: u32,
    /// Virtual cost of one timed-out attempt.
    pub attempt_timeout: Duration,
    /// First backoff; doubles per retry (exponential).
    pub base_backoff: Duration,
    /// Backoff growth cap.
    pub max_backoff: Duration,
    /// Total per-request budget across attempts and backoffs.
    pub deadline: Duration,
    /// Seed for the full-jitter RNG (deterministic backoff sequences).
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            attempt_timeout: Duration::from_millis(200),
            base_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(2),
            deadline: Duration::from_secs(5),
            jitter_seed: 0x5eed,
        }
    }
}

impl RetryPolicy {
    /// Policy that never retries (single attempt per request).
    pub fn no_retries() -> RetryPolicy {
        RetryPolicy { max_retries: 0, ..RetryPolicy::default() }
    }
}

/// Observer of the manager's request outcomes, called synchronously from
/// the retry path. Circuit breakers register one to learn about request
/// successes and exhausted-retry failures without wrapping every call
/// site; implementations must be cheap and must not call back into the
/// manager.
pub trait RetryObserver: Send + Sync {
    /// A request completed successfully (possibly after retries).
    fn on_success(&self, agent: &str);
    /// A request gave up: retries/deadline exhausted (`SnmpError::Timeout`)
    /// or a non-retryable hard error.
    fn on_failure(&self, agent: &str);
}

/// An SNMP manager bound to one transport and community.
pub struct Manager<T: Transport> {
    transport: Arc<T>,
    community: String,
    next_request_id: AtomicU32,
    /// Retry/backoff policy for lost datagrams.
    pub policy: RetryPolicy,
    jitter: Mutex<Rng>,
    obs_metrics: ManagerMetrics,
    retry_observer: Option<Arc<dyn RetryObserver>>,
}

impl<T: Transport> Manager<T> {
    /// New manager speaking `community` with the default [`RetryPolicy`].
    pub fn new(transport: Arc<T>, community: &str) -> Self {
        Self::with_policy(transport, community, RetryPolicy::default())
    }

    /// New manager with an explicit retry policy.
    pub fn with_policy(transport: Arc<T>, community: &str, policy: RetryPolicy) -> Self {
        let jitter = Mutex::new(Rng::seed_from_u64(policy.jitter_seed));
        Manager {
            transport,
            community: community.to_string(),
            next_request_id: AtomicU32::new(1),
            policy,
            jitter,
            obs_metrics: ManagerMetrics::default(),
            retry_observer: None,
        }
    }

    /// Report fault-path counters into a shared observability handle
    /// (`snmp_requests_total`, `snmp_retries_total`, `snmp_timeouts_total`,
    /// `snmp_hard_errors_total`).
    pub fn set_obs(&mut self, obs: &Obs) {
        self.obs_metrics = ManagerMetrics::new(obs);
    }

    /// Register an observer of request outcomes (see [`RetryObserver`]).
    /// One observer at a time; registering replaces the previous one.
    pub fn set_retry_observer(&mut self, observer: Arc<dyn RetryObserver>) {
        self.retry_observer = Some(observer);
    }

    fn rid(&self) -> u32 {
        self.next_request_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Full-jitter delay for retry number `attempt` (1-based): uniform in
    /// `[0, min(base * 2^(attempt-1), max_backoff)]`.
    fn backoff_delay(&self, attempt: u32) -> Duration {
        let cap = self
            .policy
            .base_backoff
            .saturating_mul(2u32.saturating_pow(attempt.saturating_sub(1)))
            .min(self.policy.max_backoff);
        if cap.is_zero() {
            return Duration::ZERO;
        }
        cap.mul_f64(self.jitter.lock().unit())
    }

    /// Notify the registered observer (if any) of a request outcome.
    fn observe_outcome(&self, agent: &str, ok: bool) {
        if let Some(obs) = &self.retry_observer {
            if ok {
                obs.on_success(agent);
            } else {
                obs.on_failure(agent);
            }
        }
    }

    fn send(&self, agent: &str, req: &Pdu) -> SnmpResult<Pdu> {
        let p = &self.policy;
        self.obs_metrics.requests.inc();
        let mut spent = Duration::ZERO;
        let mut attempt = 0u32;
        loop {
            match self.transport.request(agent, req) {
                Ok(resp) => {
                    if resp.error_status != ErrorStatus::NoError {
                        self.obs_metrics.hard_errors.inc();
                        self.observe_outcome(agent, false);
                        return Err(SnmpError::AgentError(resp.error_status));
                    }
                    self.observe_outcome(agent, true);
                    return Ok(resp);
                }
                Err(SnmpError::Timeout) => {
                    spent = spent.saturating_add(p.attempt_timeout);
                    attempt += 1;
                    if attempt > p.max_retries {
                        self.obs_metrics.timeouts.inc();
                        self.observe_outcome(agent, false);
                        return Err(SnmpError::Timeout);
                    }
                    let delay = self.backoff_delay(attempt);
                    // Would the next attempt blow the deadline budget?
                    if spent.saturating_add(delay).saturating_add(p.attempt_timeout) > p.deadline {
                        self.obs_metrics.timeouts.inc();
                        self.observe_outcome(agent, false);
                        return Err(SnmpError::Timeout);
                    }
                    spent = spent.saturating_add(delay);
                    self.obs_metrics.retries.inc();
                }
                // Anything else is non-retryable: an agent that rejected the
                // community or returned garbage will do so again.
                Err(e) => {
                    self.obs_metrics.hard_errors.inc();
                    self.observe_outcome(agent, false);
                    return Err(e);
                }
            }
        }
    }

    /// GET a single instance.
    pub fn get(&self, agent: &str, oid: &Oid) -> SnmpResult<Value> {
        let req = Pdu::get(&self.community, self.rid(), vec![oid.clone()]);
        let resp = self.send(agent, &req)?;
        resp.bindings
            .into_iter()
            .next()
            .map(|b| b.value)
            .ok_or_else(|| SnmpError::ProtocolMismatch("empty response".into()))
    }

    /// GET several instances in one request.
    pub fn get_many(&self, agent: &str, oids: &[Oid]) -> SnmpResult<Vec<Value>> {
        let req = Pdu::get(&self.community, self.rid(), oids.to_vec());
        let resp = self.send(agent, &req)?;
        if resp.bindings.len() != oids.len() {
            return Err(SnmpError::ProtocolMismatch(format!(
                "asked {} instances, got {}",
                oids.len(),
                resp.bindings.len()
            )));
        }
        Ok(resp.bindings.into_iter().map(|b| b.value).collect())
    }

    /// Walk an entire subtree with repeated GETNEXT.
    pub fn walk(&self, agent: &str, root: &Oid) -> SnmpResult<Vec<VarBind>> {
        let mut out = Vec::new();
        let mut cur = root.clone();
        loop {
            let req = Pdu::get_next(&self.community, self.rid(), vec![cur.clone()]);
            let resp = self.send(agent, &req)?;
            let Some(b) = resp.bindings.into_iter().next() else { break };
            if b.value == Value::EndOfMibView || !root.is_prefix_of(&b.oid) {
                break;
            }
            if b.oid <= cur {
                return Err(SnmpError::ProtocolMismatch("agent did not advance".into()));
            }
            cur = b.oid.clone();
            out.push(b);
        }
        Ok(out)
    }

    /// Walk an entire subtree with GETBULK (fewer round trips).
    pub fn bulk_walk(&self, agent: &str, root: &Oid) -> SnmpResult<Vec<VarBind>> {
        let mut out: Vec<VarBind> = Vec::new();
        let mut cur = root.clone();
        loop {
            let req = Pdu::get_bulk(
                &self.community,
                self.rid(),
                vec![cur.clone()],
                DEFAULT_MAX_REPETITIONS,
            );
            let resp = self.send(agent, &req)?;
            if resp.bindings.is_empty() {
                break;
            }
            let mut done = false;
            for b in resp.bindings {
                if b.value == Value::EndOfMibView || !root.is_prefix_of(&b.oid) {
                    done = true;
                    break;
                }
                if b.oid <= cur {
                    return Err(SnmpError::ProtocolMismatch("agent did not advance".into()));
                }
                cur = b.oid.clone();
                out.push(b);
            }
            if done {
                break;
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::{Agent, StaticMib};
    use crate::fault::{FaultDirector, FaultPlan};
    use crate::mib::{Mib, SERVICES_ROUTER};
    use crate::oid::well_known;
    use crate::transport::SimTransport;
    use remos_net::{SimDuration, SimTime};

    fn setup() -> (Manager<SimTransport>, Arc<SimTransport>) {
        let t = Arc::new(SimTransport::new());
        let mut m = Mib::new();
        m.set_system_group("aspen", "router", 0, SERVICES_ROUTER);
        m.set_if_number(3);
        for i in 1..=3 {
            m.set_interface_row(i, &format!("if{i}"), 100_000_000, true, i * 10, i * 20);
        }
        t.register(Agent::new("aspen", "public", Box::new(StaticMib(m))));
        (Manager::new(Arc::clone(&t), "public"), t)
    }

    #[test]
    fn get_and_get_many() {
        let (mgr, _) = setup();
        let v = mgr.get("aspen", &well_known::sys_name()).unwrap();
        assert_eq!(v, Value::text("aspen"));
        let vs = mgr
            .get_many(
                "aspen",
                &[well_known::if_in_octets().child([1]), well_known::if_in_octets().child([2])],
            )
            .unwrap();
        assert_eq!(vs, vec![Value::Counter32(10), Value::Counter32(20)]);
    }

    #[test]
    fn walk_and_bulk_walk_agree() {
        let (mgr, _) = setup();
        let a = mgr.walk("aspen", &well_known::interfaces()).unwrap();
        let b = mgr.bulk_walk("aspen", &well_known::interfaces()).unwrap();
        assert_eq!(a, b);
        // ifNumber + 6 columns x 3 rows.
        assert_eq!(a.len(), 1 + 6 * 3);
    }

    #[test]
    fn walk_restricts_to_subtree() {
        let (mgr, _) = setup();
        let rows = mgr.walk("aspen", &well_known::if_speed()).unwrap();
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|b| well_known::if_speed().is_prefix_of(&b.oid)));
    }

    #[test]
    fn walk_of_missing_subtree_is_empty() {
        let (mgr, _) = setup();
        let rows = mgr.walk("aspen", &Oid::new([9, 9, 9])).unwrap();
        assert!(rows.is_empty());
    }

    #[test]
    fn retries_survive_loss() {
        let (mgr, t) = setup();
        t.set_loss(0.2, 99);
        // Each attempt rolls the drop dice twice (request + response):
        // p(success/attempt) = 0.8^2 = 0.64, so with 3 retries
        // p(fail/get) = 0.36^4 ≈ 1.7% — expect ~1 failure in 50 gets.
        // (The default policy's deadline never truncates 4 attempts: worst
        // case costs 4×200 ms + 50+100+200 ms backoff ≈ 1.15 s < 5 s.)
        let mut failures = 0;
        for _ in 0..50 {
            if mgr.get("aspen", &well_known::sys_name()).is_err() {
                failures += 1;
            }
        }
        assert!(failures <= 5, "excessive failures: {failures}");
    }

    #[test]
    fn non_timeout_errors_are_not_retried() {
        let (_, t) = setup();
        let mgr = Manager::new(Arc::clone(&t), "wrong-community");
        t.reset_stats();
        let err = mgr.get("aspen", &well_known::sys_name()).unwrap_err();
        assert!(matches!(err, SnmpError::BadCommunity));
        // Exactly one request on the wire — no blind retry of a fault that
        // can never succeed.
        assert_eq!(t.stats().requests, 1);
        t.reset_stats();
        let err = mgr.get("no-such-agent", &well_known::sys_name()).unwrap_err();
        assert!(matches!(err, SnmpError::UnknownAgent(_)));
        assert_eq!(t.stats().requests, 1);
    }

    #[test]
    fn deadline_budget_truncates_retries() {
        let (_, t) = setup();
        // Agent down for the whole run (no clock installed: now is ZERO).
        let d = FaultDirector::new();
        d.set_plan(
            "aspen",
            FaultPlan::new().crash(SimTime::ZERO, SimDuration::from_secs(3600)),
            1,
        );
        t.set_fault_director(d);
        // A deadline of 300 ms fits exactly one 200 ms attempt: the first
        // retry (200 ms spent + backoff + 200 ms next attempt) would exceed
        // it, so the manager gives up after a single datagram.
        let policy = RetryPolicy {
            max_retries: 10,
            attempt_timeout: Duration::from_millis(200),
            deadline: Duration::from_millis(300),
            ..RetryPolicy::default()
        };
        let mgr = Manager::with_policy(Arc::clone(&t), "public", policy);
        t.reset_stats();
        let err = mgr.get("aspen", &well_known::sys_name()).unwrap_err();
        assert!(matches!(err, SnmpError::Timeout));
        assert_eq!(t.stats().requests, 1);
    }

    #[test]
    fn max_retries_bounds_attempts() {
        let (_, t) = setup();
        let d = FaultDirector::new();
        d.set_plan(
            "aspen",
            FaultPlan::new().crash(SimTime::ZERO, SimDuration::from_secs(3600)),
            1,
        );
        t.set_fault_director(d);
        let mgr = Manager::with_policy(
            Arc::clone(&t),
            "public",
            RetryPolicy { max_retries: 2, ..RetryPolicy::default() },
        );
        t.reset_stats();
        assert!(mgr.get("aspen", &well_known::sys_name()).is_err());
        // One initial attempt + two retries.
        assert_eq!(t.stats().requests, 3);
    }

    #[test]
    fn backoff_grows_exponentially_under_the_cap() {
        let (mgr, _) = setup();
        // Full jitter draws uniformly in [0, cap]; caps double per retry
        // until max_backoff clamps them.
        for _ in 0..100 {
            assert!(mgr.backoff_delay(1) <= mgr.policy.base_backoff);
            assert!(mgr.backoff_delay(3) <= mgr.policy.base_backoff * 4);
            assert!(mgr.backoff_delay(30) <= mgr.policy.max_backoff);
        }
    }

    #[test]
    fn bulk_walk_is_cheaper_than_walk() {
        let (mgr, t) = setup();
        t.reset_stats();
        mgr.walk("aspen", &well_known::interfaces()).unwrap();
        let walk_msgs = t.stats().requests;
        t.reset_stats();
        mgr.bulk_walk("aspen", &well_known::interfaces()).unwrap();
        let bulk_msgs = t.stats().requests;
        assert!(bulk_msgs < walk_msgs, "bulk {bulk_msgs} vs walk {walk_msgs}");
    }
}
