//! Circuit breakers around collector I/O.
//!
//! A breaker is `Closed` while the measurement substrate looks healthy.
//! After `failure_threshold` consecutive failures it trips `Open`:
//! collector calls fast-fail with a typed error instead of spending a
//! retry budget against a dead substrate, and the serving layer answers
//! from the last good snapshot via its degradation ladder. Once
//! `open_for` has elapsed on the measured clock, the next call runs
//! `HalfOpen` — one probe: success closes the breaker, failure re-opens
//! it for another `open_for`.
//!
//! Health signals feed in from two directions:
//! * the outcomes of the collector calls themselves (`poll` /
//!   `refresh_topology` errors, and polls whose sample came back entirely
//!   [`DataQuality::Missing`] — a "success" with no usable data);
//! * individual SNMP request outcomes inside the manager retry loop, via
//!   the [`remos_snmp::RetryObserver`] implementation — wire it with
//!   `SnmpCollector::set_retry_observer(breaker.clone())` so the breaker
//!   sees failures as they happen rather than once per poll.

use remos_obs::sync::Mutex;
use remos_core::collector::{Collector, SampleHistory};
use remos_core::{CoreResult, DataQuality, HostInfo, RemosError};
use remos_net::topology::Topology;
use remos_net::{SimDuration, SimTime};
use remos_obs::{Counter, Obs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Breaker tuning.
#[derive(Clone, Copy, Debug)]
pub struct BreakerConfig {
    /// Consecutive failures that trip `Closed` → `Open`.
    pub failure_threshold: u32,
    /// How long an open breaker fast-fails before allowing a half-open
    /// probe, on the measured clock.
    pub open_for: SimDuration,
    /// Count a poll whose appended sample is entirely
    /// [`DataQuality::Missing`] as a failure.
    pub all_missing_is_failure: bool,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 3,
            open_for: SimDuration::from_secs(5),
            all_missing_is_failure: true,
        }
    }
}

/// Public view of the breaker state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerState {
    /// Substrate healthy; calls pass through.
    Closed,
    /// Tripped; calls fast-fail until `open_for` elapses.
    Open,
    /// Probation: one probe decides between `Closed` and `Open`.
    HalfOpen,
}

enum State {
    Closed { consecutive_failures: u32 },
    Open { until: SimTime },
    HalfOpen,
}

struct BreakerMetrics {
    opened: Counter,
    closed: Counter,
    fast_fail: Counter,
}

struct Inner {
    state: State,
    /// Latest measured time the breaker has seen; failure reports from
    /// the SNMP retry observer (which has no clock) are stamped with it.
    last_now: SimTime,
    opened_total: u64,
    metrics: Option<BreakerMetrics>,
}

/// The breaker itself. `Arc`-shared between the decorated collector and
/// whoever wants to inspect or wire it (server, SNMP retry observer).
pub struct CircuitBreaker {
    cfg: BreakerConfig,
    inner: Mutex<Inner>,
}

impl CircuitBreaker {
    /// A closed breaker.
    pub fn new(cfg: BreakerConfig) -> Arc<CircuitBreaker> {
        Arc::new(CircuitBreaker {
            cfg,
            inner: Mutex::new(Inner {
                state: State::Closed { consecutive_failures: 0 },
                last_now: SimTime::ZERO,
                opened_total: 0,
                metrics: None,
            }),
        })
    }

    /// Route state transitions into `obs` counters
    /// (`breaker_opened_total`, `breaker_closed_total`,
    /// `breaker_fast_fail_total`).
    pub fn set_obs(&self, obs: &Obs) {
        self.inner.lock().metrics = Some(BreakerMetrics {
            opened: obs.counter("breaker_opened_total"),
            closed: obs.counter("breaker_closed_total"),
            fast_fail: obs.counter("breaker_fast_fail_total"),
        });
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        match self.inner.lock().state {
            State::Closed { .. } => BreakerState::Closed,
            State::Open { .. } => BreakerState::Open,
            State::HalfOpen => BreakerState::HalfOpen,
        }
    }

    /// How many times the breaker has tripped open.
    pub fn times_opened(&self) -> u64 {
        self.inner.lock().opened_total
    }

    /// Advance the breaker's notion of measured time (monotone). Failure
    /// reports arriving via [`remos_snmp::RetryObserver`] are stamped
    /// with the latest time noted here.
    pub fn note_time(&self, now: SimTime) {
        let mut i = self.inner.lock();
        if now > i.last_now {
            i.last_now = now;
        }
    }

    /// May a collector call proceed at measured time `now`? `Open`
    /// fast-fails (returns `false`) until `open_for` has elapsed, at
    /// which point the breaker moves to `HalfOpen` and admits one probe.
    pub fn allow(&self, now: SimTime) -> bool {
        let mut i = self.inner.lock();
        if now > i.last_now {
            i.last_now = now;
        }
        match i.state {
            State::Closed { .. } | State::HalfOpen => true,
            State::Open { until } => {
                if now >= until {
                    i.state = State::HalfOpen;
                    true
                } else {
                    if let Some(m) = &i.metrics {
                        m.fast_fail.inc();
                    }
                    false
                }
            }
        }
    }

    /// A call against the substrate succeeded.
    pub fn record_success(&self) {
        let mut i = self.inner.lock();
        match i.state {
            State::Closed { .. } => i.state = State::Closed { consecutive_failures: 0 },
            State::HalfOpen => {
                i.state = State::Closed { consecutive_failures: 0 };
                if let Some(m) = &i.metrics {
                    m.closed.inc();
                }
            }
            // A stray success while open (e.g. a late response) does not
            // close the breaker — the half-open probe decides that.
            State::Open { .. } => {}
        }
    }

    /// A call against the substrate failed at measured time `now`.
    pub fn record_failure(&self, now: SimTime) {
        let mut i = self.inner.lock();
        if now > i.last_now {
            i.last_now = now;
        }
        let stamped = i.last_now;
        match i.state {
            State::Closed { consecutive_failures } => {
                let f = consecutive_failures + 1;
                if f >= self.cfg.failure_threshold {
                    i.state = State::Open { until: stamped + self.cfg.open_for };
                    i.opened_total += 1;
                    if let Some(m) = &i.metrics {
                        m.opened.inc();
                    }
                } else {
                    i.state = State::Closed { consecutive_failures: f };
                }
            }
            State::HalfOpen => {
                i.state = State::Open { until: stamped + self.cfg.open_for };
                i.opened_total += 1;
                if let Some(m) = &i.metrics {
                    m.opened.inc();
                }
            }
            State::Open { .. } => {}
        }
    }
}

/// Per-request health straight from the SNMP manager's retry loop: each
/// exhausted retry budget or hard agent error is a failure, each answered
/// request a success. Timestamps come from the last measured time the
/// breaker saw (the observer callback itself has no clock).
impl remos_snmp::RetryObserver for CircuitBreaker {
    fn on_success(&self, _agent: &str) {
        self.record_success();
    }

    fn on_failure(&self, _agent: &str) {
        let now = self.inner.lock().last_now;
        self.record_failure(now);
    }
}

/// Collector decorator that fast-fails behind an open breaker.
///
/// * `poll` and `refresh_topology` are gated: when the breaker is open
///   they return a typed [`RemosError::Collector`] immediately instead of
///   burning a retry budget against a dead substrate.
/// * `now()` keeps working while open by answering from the last measured
///   time seen, so deadline budgets still tick and admission decisions
///   stay well-defined during an outage.
/// * Pure reads (`topology`, `history`, `host_info`) always pass through:
///   the last good snapshot *is* the degraded answer source.
pub struct BreakerCollector<C: Collector> {
    inner: C,
    breaker: Arc<CircuitBreaker>,
    cached_now: AtomicU64,
}

impl<C: Collector> BreakerCollector<C> {
    /// Wrap `inner` behind `breaker`.
    pub fn wrap(inner: C, breaker: Arc<CircuitBreaker>) -> BreakerCollector<C> {
        BreakerCollector { inner, breaker, cached_now: AtomicU64::new(0) }
    }

    /// The shared breaker (inspect state, wire observers).
    pub fn breaker(&self) -> &Arc<CircuitBreaker> {
        &self.breaker
    }

    fn known_now(&self) -> SimTime {
        SimTime::from_nanos(self.cached_now.load(Ordering::Relaxed))
    }

    fn note_now(&self, t: SimTime) {
        self.cached_now.fetch_max(t.as_nanos(), Ordering::Relaxed);
        self.breaker.note_time(t);
    }

    fn fast_fail(what: &str) -> RemosError {
        RemosError::Collector(format!("circuit open: {what} fast-failed"))
    }
}

impl<C: Collector> Collector for BreakerCollector<C> {
    fn refresh_topology(&mut self) -> CoreResult<()> {
        let now = self.known_now();
        if !self.breaker.allow(now) {
            return Err(Self::fast_fail("topology refresh"));
        }
        match self.inner.refresh_topology() {
            Ok(()) => {
                self.breaker.record_success();
                Ok(())
            }
            Err(e) => {
                self.breaker.record_failure(now);
                Err(e)
            }
        }
    }

    fn topology(&self) -> CoreResult<Arc<Topology>> {
        self.inner.topology()
    }

    fn host_info(&self, name: &str) -> CoreResult<HostInfo> {
        self.inner.host_info(name)
    }

    fn poll(&mut self) -> CoreResult<bool> {
        let now = self.known_now();
        if !self.breaker.allow(now) {
            return Err(Self::fast_fail("poll"));
        }
        match self.inner.poll() {
            Ok(appended) => {
                if let Ok(t) = self.inner.now() {
                    self.note_now(t);
                }
                // A sample with no usable measurement in it is a failure
                // in success clothing: the agents answered nothing.
                let unusable = appended
                    && self.breaker.cfg.all_missing_is_failure
                    && self
                        .inner
                        .history()
                        .latest()
                        .map(|s| {
                            !s.quality.is_empty()
                                && s.quality.iter().all(|q| matches!(q, DataQuality::Missing))
                        })
                        .unwrap_or(false);
                if unusable {
                    self.breaker.record_failure(self.known_now());
                } else {
                    self.breaker.record_success();
                }
                Ok(appended)
            }
            Err(e) => {
                self.breaker.record_failure(now);
                Err(e)
            }
        }
    }

    fn history(&self) -> &SampleHistory {
        self.inner.history()
    }

    fn topology_epoch(&self) -> u64 {
        self.inner.topology_epoch()
    }

    fn generation(&self) -> u64 {
        self.inner.generation()
    }

    fn now(&self) -> CoreResult<SimTime> {
        let known = self.known_now();
        if !self.breaker.allow(known) {
            return Ok(known);
        }
        match self.inner.now() {
            Ok(t) => {
                self.note_now(t);
                Ok(t)
            }
            // Clock failure with a cached time: serve the cached time so
            // budgets and admission keep working through the outage.
            Err(_) if self.cached_now.load(Ordering::Relaxed) > 0 => Ok(known),
            Err(e) => Err(e),
        }
    }

    fn set_obs(&mut self, obs: &Obs) {
        self.breaker.set_obs(obs);
        self.inner.set_obs(obs);
    }

    fn describe(&self) -> String {
        let state = match self.breaker.state() {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        };
        format!("{} [breaker {state}]", self.inner.describe())
    }

    fn coverage(&self) -> Option<&[u32]> {
        self.inner.coverage()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> BreakerConfig {
        BreakerConfig {
            failure_threshold: 3,
            open_for: SimDuration::from_secs(5),
            all_missing_is_failure: true,
        }
    }

    #[test]
    fn trips_after_threshold_and_recovers_via_half_open() {
        let b = CircuitBreaker::new(cfg());
        let t0 = SimTime::from_secs(100);
        assert_eq!(b.state(), BreakerState::Closed);
        b.record_failure(t0);
        b.record_failure(t0);
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.allow(t0));
        b.record_failure(t0);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.times_opened(), 1);
        // Fast-fails while open...
        assert!(!b.allow(t0 + SimDuration::from_secs(1)));
        // ...until open_for elapses: one half-open probe is admitted.
        assert!(b.allow(t0 + SimDuration::from_secs(5)));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn half_open_failure_reopens() {
        let b = CircuitBreaker::new(cfg());
        let t0 = SimTime::from_secs(10);
        for _ in 0..3 {
            b.record_failure(t0);
        }
        let t1 = t0 + SimDuration::from_secs(5);
        assert!(b.allow(t1));
        b.record_failure(t1);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.times_opened(), 2);
        assert!(!b.allow(t1 + SimDuration::from_secs(4)));
        assert!(b.allow(t1 + SimDuration::from_secs(5)));
    }

    #[test]
    fn success_resets_the_failure_streak() {
        let b = CircuitBreaker::new(cfg());
        let t0 = SimTime::ZERO;
        b.record_failure(t0);
        b.record_failure(t0);
        b.record_success();
        b.record_failure(t0);
        b.record_failure(t0);
        // Only 2 consecutive failures since the success: still closed.
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn retry_observer_failures_use_last_noted_time() {
        use remos_snmp::RetryObserver;
        let b = CircuitBreaker::new(cfg());
        b.note_time(SimTime::from_secs(42));
        b.on_failure("agent-1");
        b.on_failure("agent-1");
        b.on_failure("agent-2");
        assert_eq!(b.state(), BreakerState::Open);
        // Opened at t=42s, so the probe window starts at 47s.
        assert!(!b.allow(SimTime::from_secs(46)));
        assert!(b.allow(SimTime::from_secs(47)));
    }
}
