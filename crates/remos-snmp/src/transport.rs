//! Simulated datagram transport.
//!
//! Requests are *encoded to wire bytes* and decoded at the agent (and the
//! response likewise), so every query exercises the full codec path. The
//! transport keeps message/byte statistics — the paper stresses that the
//! cost an application pays "is low and directly related to the depth and
//! frequency of its requests", and these counters are how the bench
//! harness measures that — and can inject datagram loss with a seeded RNG.
//! A [`FaultDirector`] can additionally script per-agent crashes, freezes,
//! and flaky windows in simulated time (see [`crate::fault`]).

use crate::agent::Agent;
use crate::codec;
use crate::error::{SnmpError, SnmpResult};
use crate::fault::FaultDirector;
use crate::pdu::Pdu;
use remos_obs::sync::Mutex;
use remos_net::rng::Rng;
use remos_net::SimTime;
#[expect(clippy::disallowed_types, reason = "keyed lookups; `agent_names` sorts what it lists")]
use std::collections::HashMap;
use std::sync::Arc;

/// Client-side view of a request/response transport.
pub trait Transport: Send {
    /// Send `req` to the agent addressed by `agent`, returning its response.
    fn request(&self, agent: &str, req: &Pdu) -> SnmpResult<Pdu>;
}

/// Cumulative traffic statistics of a [`SimTransport`].
///
/// Drops are accounted per leg — a lost request never reached the agent, a
/// lost response means the agent did the work for nothing — so soak tests
/// can assert the injected loss hits both directions symmetrically.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TransportStats {
    /// Request datagrams sent.
    pub requests: u64,
    /// Response datagrams received.
    pub responses: u64,
    /// Total request bytes.
    pub request_bytes: u64,
    /// Total response bytes.
    pub response_bytes: u64,
    /// Request-leg datagrams lost (drop rolled before reaching the agent).
    pub request_drops: u64,
    /// Response-leg datagrams lost (agent answered; the reply was dropped
    /// or delayed past the deadline).
    pub response_drops: u64,
    /// Requests dropped by agents for community mismatch.
    pub auth_failures: u64,
}

impl TransportStats {
    /// Total datagrams lost on either leg.
    pub fn drops(&self) -> u64 {
        self.request_drops + self.response_drops
    }
}

/// A clock the transport consults to place datagrams in simulated time
/// (drives scripted fault windows).
pub type TransportClock = Box<dyn Fn() -> SimTime + Send>;

/// In-process datagram transport connecting managers to registered agents.
pub struct SimTransport {
    #[expect(clippy::disallowed_types, reason = "keyed lookups; `agent_names` sorts what it lists")]
    agents: Mutex<HashMap<String, Agent>>,
    stats: Mutex<TransportStats>,
    loss: Mutex<Option<LossModel>>,
    clock: Mutex<Option<TransportClock>>,
    faults: Mutex<Option<Arc<FaultDirector>>>,
}

struct LossModel {
    probability: f64,
    rng: Rng,
}

impl Default for SimTransport {
    fn default() -> Self {
        Self::new()
    }
}

impl SimTransport {
    /// Empty transport.
    #[expect(clippy::disallowed_types, reason = "keyed lookups; `agent_names` sorts what it lists")]
    pub fn new() -> SimTransport {
        SimTransport {
            agents: Mutex::new(HashMap::new()),
            stats: Mutex::new(TransportStats::default()),
            loss: Mutex::new(None),
            clock: Mutex::new(None),
            faults: Mutex::new(None),
        }
    }

    /// Register an agent under its name.
    pub fn register(&self, agent: Agent) {
        self.agents.lock().insert(agent.name().to_string(), agent);
    }

    /// Names of all registered agents, sorted.
    pub fn agent_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.agents.lock().keys().cloned().collect();
        v.sort();
        v
    }

    /// Enable random datagram loss with the given probability.
    pub fn set_loss(&self, probability: f64, seed: u64) {
        assert!((0.0..1.0).contains(&probability), "loss probability {probability}");
        // `<=` rather than float `==`: any non-positive probability means
        // "loss disabled" (audited by remos-audit's float-eq rule).
        *self.loss.lock() = if probability <= 0.0 {
            None
        } else {
            Some(LossModel { probability, rng: Rng::seed_from_u64(seed) })
        };
    }

    /// Install a simulated-time clock; scripted fault windows are evaluated
    /// against it. Without a clock, faults see `SimTime::ZERO`.
    pub fn set_clock(&self, clock: TransportClock) {
        *self.clock.lock() = Some(clock);
    }

    /// Attach a fault director scripting per-agent crash/freeze/flaky
    /// behavior.
    pub fn set_fault_director(&self, director: Arc<FaultDirector>) {
        *self.faults.lock() = Some(director);
    }

    /// Snapshot of the traffic statistics.
    pub fn stats(&self) -> TransportStats {
        *self.stats.lock()
    }

    /// Reset traffic statistics.
    pub fn reset_stats(&self) {
        *self.stats.lock() = TransportStats::default();
    }

    fn now(&self) -> SimTime {
        self.clock.lock().as_ref().map(|f| f()).unwrap_or(SimTime::ZERO)
    }

    fn roll_drop(&self) -> bool {
        let mut guard = self.loss.lock();
        match guard.as_mut() {
            Some(m) => m.rng.gen_bool(m.probability),
            None => false,
        }
    }

    fn fault_drops_request(&self, agent: &str, now: SimTime) -> bool {
        self.faults.lock().as_ref().is_some_and(|d| d.drop_request(agent, now))
    }

    fn fault_drops_response(&self, agent: &str, now: SimTime) -> bool {
        self.faults.lock().as_ref().is_some_and(|d| d.drop_response(agent, now))
    }
}

impl Transport for SimTransport {
    fn request(&self, agent: &str, req: &Pdu) -> SnmpResult<Pdu> {
        let now = self.now();
        // Encode request ("send the datagram").
        let wire = codec::encode(req);
        {
            let mut s = self.stats.lock();
            s.requests += 1;
            s.request_bytes += wire.len() as u64;
        }
        if self.roll_drop() || self.fault_drops_request(agent, now) {
            self.stats.lock().request_drops += 1;
            return Err(SnmpError::Timeout);
        }
        // Agent side: decode, authenticate, answer.
        let agents = self.agents.lock();
        let a = agents
            .get(agent)
            .ok_or_else(|| SnmpError::UnknownAgent(agent.to_string()))?;
        let decoded = codec::decode(wire)?;
        let Some(resp) = a.handle(&decoded) else {
            self.stats.lock().auth_failures += 1;
            return Err(SnmpError::BadCommunity);
        };
        drop(agents);
        // Encode/decode the response path.
        let wire = codec::encode(&resp);
        if self.roll_drop() || self.fault_drops_response(agent, now) {
            self.stats.lock().response_drops += 1;
            return Err(SnmpError::Timeout);
        }
        let resp = codec::decode(&wire)?;
        {
            let mut s = self.stats.lock();
            s.responses += 1;
            s.response_bytes += wire.len() as u64;
        }
        if resp.request_id != req.request_id {
            return Err(SnmpError::ProtocolMismatch(format!(
                "request id {} != {}",
                resp.request_id, req.request_id
            )));
        }
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::StaticMib;
    use crate::fault::FaultPlan;
    use crate::mib::{Mib, SERVICES_HOST};
    use crate::oid::well_known;
    use crate::value::Value;
    use remos_net::SimDuration;

    fn transport() -> SimTransport {
        let t = SimTransport::new();
        let mut m = Mib::new();
        m.set_system_group("m-1", "alpha host", 0, SERVICES_HOST);
        t.register(Agent::new("m-1", "public", Box::new(StaticMib(m))));
        t
    }

    #[test]
    fn request_response_over_wire() {
        let t = transport();
        let req = Pdu::get("public", 9, vec![well_known::sys_name()]);
        let resp = t.request("m-1", &req).unwrap();
        assert_eq!(resp.bindings[0].value, Value::text("m-1"));
        let s = t.stats();
        assert_eq!(s.requests, 1);
        assert_eq!(s.responses, 1);
        assert!(s.request_bytes > 0 && s.response_bytes > 0);
    }

    #[test]
    fn unknown_agent() {
        let t = transport();
        let req = Pdu::get("public", 1, vec![]);
        assert!(matches!(
            t.request("nope", &req),
            Err(SnmpError::UnknownAgent(_))
        ));
    }

    #[test]
    fn community_mismatch() {
        let t = transport();
        let req = Pdu::get("private", 1, vec![well_known::sys_name()]);
        assert!(matches!(t.request("m-1", &req), Err(SnmpError::BadCommunity)));
        assert_eq!(t.stats().auth_failures, 1);
    }

    #[test]
    fn loss_injection_times_out_sometimes() {
        let t = transport();
        t.set_loss(0.5, 123);
        let mut ok = 0;
        let mut lost = 0;
        for i in 0..100 {
            let req = Pdu::get("public", i, vec![well_known::sys_name()]);
            match t.request("m-1", &req) {
                Ok(_) => ok += 1,
                Err(SnmpError::Timeout) => lost += 1,
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(ok > 10 && lost > 10, "ok={ok} lost={lost}");
        assert_eq!(t.stats().drops(), lost);
        t.set_loss(0.0, 0);
        let req = Pdu::get("public", 999, vec![well_known::sys_name()]);
        assert!(t.request("m-1", &req).is_ok());
    }

    #[test]
    fn loss_hits_both_legs_symmetrically() {
        let t = transport();
        t.set_loss(0.3, 7);
        for i in 0..4000 {
            let req = Pdu::get("public", i, vec![well_known::sys_name()]);
            let _ = t.request("m-1", &req);
        }
        let s = t.stats();
        let req_rate = s.request_drops as f64 / s.requests as f64;
        // Responses are only attempted when the request leg survived.
        let attempts = s.requests - s.request_drops;
        let resp_rate = s.response_drops as f64 / attempts as f64;
        assert!((req_rate - 0.3).abs() < 0.05, "request-leg rate {req_rate}");
        assert!((resp_rate - 0.3).abs() < 0.05, "response-leg rate {resp_rate}");
        assert_eq!(s.drops(), s.request_drops + s.response_drops);
    }

    #[test]
    fn stats_reset() {
        let t = transport();
        let req = Pdu::get("public", 1, vec![well_known::sys_name()]);
        t.request("m-1", &req).unwrap();
        t.reset_stats();
        assert_eq!(t.stats(), TransportStats::default());
    }

    fn manual_clock(t: &SimTransport) -> Arc<Mutex<SimTime>> {
        let clock = Arc::new(Mutex::new(SimTime::ZERO));
        let c = Arc::clone(&clock);
        t.set_clock(Box::new(move || *c.lock()));
        clock
    }

    #[test]
    fn crashed_agent_unreachable_then_back() {
        let t = transport();
        let clock = manual_clock(&t);
        let d = FaultDirector::new();
        d.set_plan(
            "m-1",
            FaultPlan::new().crash(SimTime::from_secs(1), SimDuration::from_secs(2)),
            5,
        );
        t.set_fault_director(Arc::clone(&d));
        let req = |i| Pdu::get("public", i, vec![well_known::sys_name()]);
        assert!(t.request("m-1", &req(1)).is_ok());
        *clock.lock() = SimTime::from_secs_f64(1.5);
        assert!(matches!(t.request("m-1", &req(2)), Err(SnmpError::Timeout)));
        assert_eq!(t.stats().request_drops, 1);
        assert_eq!(t.stats().response_drops, 0);
        *clock.lock() = SimTime::from_secs_f64(3.5);
        assert!(t.request("m-1", &req(3)).is_ok());
    }

    #[test]
    fn frozen_agent_drops_only_the_response_leg() {
        let t = transport();
        let clock = manual_clock(&t);
        let d = FaultDirector::new();
        d.set_plan(
            "m-1",
            FaultPlan::new().freeze(SimTime::from_secs(1), SimTime::from_secs(2)),
            5,
        );
        t.set_fault_director(d);
        *clock.lock() = SimTime::from_secs_f64(1.5);
        let req = Pdu::get("public", 1, vec![well_known::sys_name()]);
        assert!(matches!(t.request("m-1", &req), Err(SnmpError::Timeout)));
        let s = t.stats();
        // The request was accepted (the agent did the work)…
        assert_eq!(s.request_drops, 0);
        // …but the answer never arrived.
        assert_eq!(s.response_drops, 1);
    }
}
