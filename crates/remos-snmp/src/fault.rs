//! Scriptable per-agent fault injection.
//!
//! The paper's deployment sections (§5, §10) stress that "the topology and
//! behavior of networks … may even change during execution": agents crash
//! and restart (wiping the MIB — counters restart from zero and `sysUpTime`
//! resets, the classic discontinuity that naive wrap-differencing turns
//! into a huge bogus delta), wedge without answering, or sit behind lossy
//! paths for a while. A [`FaultPlan`] scripts those behaviors per agent in
//! simulated time; the [`FaultDirector`] applies them inside the transport
//! (reachability) and the simulated MIB provider (counter/uptime resets),
//! so the whole manager → collector → modeler pipeline sees exactly what a
//! real deployment would.

use remos_obs::sync::Mutex;
use remos_net::rng::Rng;
use remos_net::{SimDuration, SimTime};
#[expect(clippy::disallowed_types, reason = "keyed lookups only; no answer reads the iteration order")]
use std::collections::HashMap;
use std::sync::Arc;

/// One scripted fault on an agent's timeline (simulated time).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Fault {
    /// Agent is down in `[at, at + downtime)`; on restart its MIB is wiped:
    /// counters read from zero and `sysUpTime` restarts.
    Crash {
        /// Crash instant.
        at: SimTime,
        /// How long the agent stays unreachable.
        downtime: SimDuration,
    },
    /// Agent accepts requests in `[from, until)` but never answers in time
    /// (responses delayed past any deadline — the manager sees timeouts).
    Freeze {
        /// Freeze start.
        from: SimTime,
        /// Freeze end.
        until: SimTime,
    },
    /// Elevated datagram loss toward/from the agent in `[from, until)`.
    Flaky {
        /// Window start.
        from: SimTime,
        /// Window end.
        until: SimTime,
        /// Per-datagram drop probability within the window.
        loss: f64,
    },
}

/// A per-agent schedule of [`Fault`]s, built fluently:
///
/// ```
/// use remos_snmp::fault::FaultPlan;
/// use remos_net::{SimDuration, SimTime};
/// let plan = FaultPlan::new()
///     .crash(SimTime::from_secs(5), SimDuration::from_secs(2))
///     .flaky(SimTime::from_secs(10), SimTime::from_secs(12), 0.4);
/// ```
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// Empty plan (agent behaves perfectly).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Script a crash at `at` lasting `downtime`.
    pub fn crash(mut self, at: SimTime, downtime: SimDuration) -> FaultPlan {
        self.faults.push(Fault::Crash { at, downtime });
        self
    }

    /// Script a freeze window `[from, until)`.
    pub fn freeze(mut self, from: SimTime, until: SimTime) -> FaultPlan {
        self.faults.push(Fault::Freeze { from, until });
        self
    }

    /// Script a flaky window `[from, until)` with per-datagram `loss`.
    pub fn flaky(mut self, from: SimTime, until: SimTime, loss: f64) -> FaultPlan {
        assert!((0.0..=1.0).contains(&loss), "flaky loss {loss}");
        self.faults.push(Fault::Flaky { from, until, loss });
        self
    }

    /// The scripted faults.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Is the agent crashed (unreachable) at `now`?
    pub fn is_down(&self, now: SimTime) -> bool {
        self.faults.iter().any(|f| match *f {
            Fault::Crash { at, downtime } => at <= now && now.saturating_since(at) < downtime,
            _ => false,
        })
    }

    /// Is the agent frozen (accepts requests, never answers) at `now`?
    pub fn is_frozen(&self, now: SimTime) -> bool {
        self.faults.iter().any(|f| match *f {
            Fault::Freeze { from, until } => from <= now && now < until,
            _ => false,
        })
    }

    /// Extra datagram loss applying at `now`, if inside a flaky window.
    /// Overlapping windows combine to the highest loss.
    pub fn flaky_loss(&self, now: SimTime) -> Option<f64> {
        self.faults
            .iter()
            .filter_map(|f| match *f {
                Fault::Flaky { from, until, loss } if from <= now && now < until => Some(loss),
                _ => None,
            })
            .fold(None, |acc, l| Some(acc.map_or(l, |a: f64| a.max(l))))
    }

    /// The most recent restart instant at or before `now` (end of the
    /// latest completed crash window), if any crash has finished by then.
    pub fn last_restart(&self, now: SimTime) -> Option<SimTime> {
        self.faults
            .iter()
            .filter_map(|f| match *f {
                Fault::Crash { at, downtime } => {
                    let up = at + downtime;
                    (up <= now).then_some(up)
                }
                _ => None,
            })
            .max()
    }
}

struct NodeFaults {
    plan: FaultPlan,
    rng: Rng,
    /// Restart the current counter baselines belong to.
    restart: Option<SimTime>,
    /// Raw octet totals captured at first read after `restart`, keyed by
    /// directed-link index; the agent reports `raw - baseline` so its
    /// counters look freshly zeroed.
    #[expect(clippy::disallowed_types, reason = "keyed lookups only; no answer reads the iteration order")]
    baselines: HashMap<u64, f64>,
}

/// Shared fault coordinator: the transport asks it whether datagrams reach
/// an agent, and [`crate::sim::SimMibProvider`] asks it how to rewrite
/// uptime and counters after a crash. One director serves a whole testbed.
#[derive(Default)]
pub struct FaultDirector {
    #[expect(clippy::disallowed_types, reason = "keyed lookups only; no answer reads the iteration order")]
    nodes: Mutex<HashMap<String, NodeFaults>>,
}

impl FaultDirector {
    /// New director with no plans (all agents healthy).
    pub fn new() -> Arc<FaultDirector> {
        Arc::new(FaultDirector::default())
    }

    /// Install (or replace) the plan for `agent`; `seed` drives its flaky
    /// windows deterministically.
    #[expect(clippy::disallowed_types, reason = "keyed lookups only; no answer reads the iteration order")]
    pub fn set_plan(&self, agent: &str, plan: FaultPlan, seed: u64) {
        self.nodes.lock().insert(
            agent.to_string(),
            NodeFaults {
                plan,
                rng: Rng::seed_from_u64(seed),
                restart: None,
                baselines: HashMap::new(),
            },
        );
    }

    /// Is `agent` crashed at `now`?
    pub fn is_down(&self, agent: &str, now: SimTime) -> bool {
        self.nodes.lock().get(agent).is_some_and(|nf| nf.plan.is_down(now))
    }

    /// Is `agent` frozen at `now`?
    pub fn is_frozen(&self, agent: &str, now: SimTime) -> bool {
        self.nodes.lock().get(agent).is_some_and(|nf| nf.plan.is_frozen(now))
    }

    /// Should the request datagram toward `agent` be dropped at `now`?
    /// (Crashed agents receive nothing; flaky windows drop probabilistically.)
    pub fn drop_request(&self, agent: &str, now: SimTime) -> bool {
        let mut nodes = self.nodes.lock();
        let Some(nf) = nodes.get_mut(agent) else { return false };
        if nf.plan.is_down(now) {
            return true;
        }
        match nf.plan.flaky_loss(now) {
            Some(p) => nf.rng.gen_bool(p),
            None => false,
        }
    }

    /// Should the response datagram from `agent` be dropped at `now`?
    /// (Frozen agents accepted the request but never answer in time.)
    pub fn drop_response(&self, agent: &str, now: SimTime) -> bool {
        let mut nodes = self.nodes.lock();
        let Some(nf) = nodes.get_mut(agent) else { return false };
        if nf.plan.is_down(now) || nf.plan.is_frozen(now) {
            return true;
        }
        match nf.plan.flaky_loss(now) {
            Some(p) => nf.rng.gen_bool(p),
            None => false,
        }
    }

    /// The instant `agent`'s `sysUpTime` counts from at `now`: its latest
    /// restart, or `None` if it has never crashed (uptime counts from the
    /// simulation epoch).
    pub fn uptime_base(&self, agent: &str, now: SimTime) -> Option<SimTime> {
        self.nodes.lock().get(agent).and_then(|nf| nf.plan.last_restart(now))
    }

    /// Rewrite a raw monotonic octet total as the crashed-and-restarted
    /// agent would report it: after a restart, counters restart from zero,
    /// so the first post-restart read establishes a baseline that is
    /// subtracted from every subsequent read. `key` identifies the counter
    /// (directed-link index); with no completed crash, `raw` passes through.
    pub fn adjust_octets(&self, agent: &str, now: SimTime, key: u64, raw: f64) -> f64 {
        let mut nodes = self.nodes.lock();
        let Some(nf) = nodes.get_mut(agent) else { return raw };
        let restart = nf.plan.last_restart(now);
        if restart != nf.restart {
            // A newer crash completed: wipe the MIB baselines.
            nf.restart = restart;
            nf.baselines.clear();
        }
        if restart.is_none() {
            return raw;
        }
        let base = *nf.baselines.entry(key).or_insert(raw);
        (raw - base).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn crash_window_and_restart() {
        let plan = FaultPlan::new().crash(t(5), SimDuration::from_secs(2));
        assert!(!plan.is_down(t(4)));
        assert!(plan.is_down(t(5)));
        assert!(plan.is_down(t(6)));
        assert!(!plan.is_down(t(7)));
        assert_eq!(plan.last_restart(t(4)), None);
        assert_eq!(plan.last_restart(t(6)), None);
        assert_eq!(plan.last_restart(t(7)), Some(t(7)));
        assert_eq!(plan.last_restart(t(100)), Some(t(7)));
    }

    #[test]
    fn repeated_crashes_track_latest_restart() {
        let plan = FaultPlan::new()
            .crash(t(2), SimDuration::from_secs(1))
            .crash(t(10), SimDuration::from_secs(3));
        assert_eq!(plan.last_restart(t(5)), Some(t(3)));
        assert_eq!(plan.last_restart(t(20)), Some(t(13)));
    }

    #[test]
    fn freeze_and_flaky_windows() {
        let plan = FaultPlan::new().freeze(t(1), t(2)).flaky(t(3), t(5), 0.4);
        assert!(plan.is_frozen(t(1)));
        assert!(!plan.is_frozen(t(2)));
        assert_eq!(plan.flaky_loss(t(3)), Some(0.4));
        assert_eq!(plan.flaky_loss(t(5)), None);
    }

    #[test]
    fn overlapping_flaky_windows_take_worst_loss() {
        let plan = FaultPlan::new().flaky(t(0), t(10), 0.2).flaky(t(4), t(6), 0.7);
        assert_eq!(plan.flaky_loss(t(2)), Some(0.2));
        assert_eq!(plan.flaky_loss(t(5)), Some(0.7));
    }

    #[test]
    fn director_counter_reset_is_exact_after_first_read() {
        let d = FaultDirector::new();
        d.set_plan("m-1", FaultPlan::new().crash(t(5), SimDuration::from_secs(1)), 7);
        // Before the crash completes, raw totals pass through.
        assert_eq!(d.adjust_octets("m-1", t(4), 0, 1000.0), 1000.0);
        // After restart, first read baselines: looks freshly zeroed.
        assert_eq!(d.adjust_octets("m-1", t(7), 0, 3000.0), 0.0);
        // Subsequent deltas are exact: +500 raw octets => +500 adjusted.
        assert_eq!(d.adjust_octets("m-1", t(8), 0, 3500.0), 500.0);
    }

    #[test]
    fn director_unplanned_agents_pass_through() {
        let d = FaultDirector::new();
        assert!(!d.drop_request("m-9", t(0)));
        assert!(!d.drop_response("m-9", t(0)));
        assert_eq!(d.adjust_octets("m-9", t(0), 3, 42.0), 42.0);
        assert_eq!(d.uptime_base("m-9", t(0)), None);
    }

    #[test]
    fn director_drop_semantics() {
        let d = FaultDirector::new();
        d.set_plan(
            "m-1",
            FaultPlan::new()
                .crash(t(1), SimDuration::from_secs(1))
                .freeze(t(4), t(5)),
            11,
        );
        // Down: the request leg never arrives.
        assert!(d.drop_request("m-1", t(1)));
        // Frozen: the request is accepted but the response never comes.
        assert!(!d.drop_request("m-1", t(4)));
        assert!(d.drop_response("m-1", t(4)));
        // Healthy outside windows.
        assert!(!d.drop_request("m-1", t(8)));
        assert!(!d.drop_response("m-1", t(8)));
    }

    #[test]
    fn flaky_drops_are_seeded_and_probabilistic() {
        let d = FaultDirector::new();
        d.set_plan("m-1", FaultPlan::new().flaky(t(0), t(100), 0.5), 42);
        let drops = (0..200).filter(|_| d.drop_request("m-1", t(1))).count();
        assert!(drops > 50 && drops < 150, "drops={drops}");
    }
}
