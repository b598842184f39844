//! Background traffic generators.
//!
//! The paper's dynamic-environment experiments use "a synthetic program
//! that generates communication traffic between nodes m-6 and m-8" (§8.2).
//! These generators reproduce that and richer load shapes:
//!
//! * [`CbrTraffic`] — a constant-bit-rate flow for a time window;
//! * [`GreedyTraffic`] — `n` parallel greedy flows (an aggressive bulk
//!   application; with `n` parallel flows a competing application flow's
//!   max-min share of a shared link drops to `1/(n+1)`);
//! * [`OnOffTraffic`] — exponential on/off bursts (bursty cross-traffic);
//! * [`PoissonTransfers`] — Poisson arrivals of bounded transfers with a
//!   chosen mean size (web-like background load).
//!
//! All generators are [`TrafficProcess`]es: register them with
//! [`Simulator::add_process`](crate::engine::Simulator::add_process).

use crate::engine::{FlowHandle, ProcessCtx, TrafficProcess};
use crate::flow::{FlowParams, FlowTag};
use crate::time::{SimDuration, SimTime};
use crate::topology::NodeId;
use crate::units::Bps;
use crate::rng::Rng;

/// A single CBR flow from `start` until `stop`.
pub struct CbrTraffic {
    src: NodeId,
    dst: NodeId,
    rate: Bps,
    stop: Option<SimTime>,
    state: CbrState,
}

enum CbrState {
    Pending,
    Running(FlowHandle),
    Done,
}

impl CbrTraffic {
    /// CBR of `rate` bits/s; `stop = None` runs forever.
    pub fn new(src: NodeId, dst: NodeId, rate: Bps, stop: Option<SimTime>) -> Self {
        CbrTraffic { src, dst, rate, stop, state: CbrState::Pending }
    }
}

impl TrafficProcess for CbrTraffic {
    fn fire(&mut self, _now: SimTime, ctx: &mut ProcessCtx<'_>) -> Option<SimTime> {
        match std::mem::replace(&mut self.state, CbrState::Done) {
            CbrState::Pending => {
                let h = ctx.start_flow(
                    FlowParams::cbr(self.src, self.dst, self.rate).with_tag(FlowTag::BACKGROUND),
                );
                self.state = CbrState::Running(h);
                self.stop
            }
            CbrState::Running(h) => {
                ctx.stop_flow(h);
                None
            }
            CbrState::Done => None,
        }
    }
}

/// `n` parallel greedy flows between one pair, from `start` until `stop`.
///
/// This is the shape used for the paper's Table 2 external traffic: several
/// aggressive bulk streams that leave a competing application flow only a
/// `1/(n+1)` max-min share of any shared link.
pub struct GreedyTraffic {
    src: NodeId,
    dst: NodeId,
    n: usize,
    stop: Option<SimTime>,
    running: Vec<FlowHandle>,
    started: bool,
}

impl GreedyTraffic {
    /// `n` parallel greedy flows; `stop = None` runs forever.
    pub fn new(src: NodeId, dst: NodeId, n: usize, stop: Option<SimTime>) -> Self {
        GreedyTraffic { src, dst, n, stop, running: Vec::new(), started: false }
    }
}

impl TrafficProcess for GreedyTraffic {
    fn fire(&mut self, _now: SimTime, ctx: &mut ProcessCtx<'_>) -> Option<SimTime> {
        if !self.started {
            self.started = true;
            for _ in 0..self.n {
                self.running.push(ctx.start_flow(
                    FlowParams::greedy(self.src, self.dst).with_tag(FlowTag::BACKGROUND),
                ));
            }
            self.stop
        } else {
            for h in self.running.drain(..) {
                ctx.stop_flow(h);
            }
            None
        }
    }
}

/// Exponential on/off bursts of a greedy flow.
///
/// During an *on* period a greedy flow runs; during *off* the link is idle.
/// Mean on/off durations are exponentially distributed, seeded for
/// reproducibility.
pub struct OnOffTraffic {
    src: NodeId,
    dst: NodeId,
    mean_on: SimDuration,
    mean_off: SimDuration,
    stop: Option<SimTime>,
    rng: Rng,
    active: Option<FlowHandle>,
}

impl OnOffTraffic {
    /// New on/off source; starts in the *off* state.
    pub fn new(
        src: NodeId,
        dst: NodeId,
        mean_on: SimDuration,
        mean_off: SimDuration,
        stop: Option<SimTime>,
        seed: u64,
    ) -> Self {
        OnOffTraffic {
            src,
            dst,
            mean_on,
            mean_off,
            stop,
            rng: Rng::seed_from_u64(seed),
            active: None,
        }
    }

    fn exp_sample(&mut self, mean: SimDuration) -> SimDuration {
        // Inverse-CDF exponential with the given mean.
        let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        SimDuration::from_secs_f64(-mean.as_secs_f64() * u.ln())
    }
}

impl TrafficProcess for OnOffTraffic {
    fn fire(&mut self, now: SimTime, ctx: &mut ProcessCtx<'_>) -> Option<SimTime> {
        if let Some(stop) = self.stop {
            if now >= stop {
                if let Some(h) = self.active.take() {
                    ctx.stop_flow(h);
                }
                return None;
            }
        }
        let next = match self.active.take() {
            None => {
                self.active = Some(ctx.start_flow(
                    FlowParams::greedy(self.src, self.dst).with_tag(FlowTag::BACKGROUND),
                ));
                now + self.exp_sample(self.mean_on)
            }
            Some(h) => {
                ctx.stop_flow(h);
                now + self.exp_sample(self.mean_off)
            }
        };
        Some(match self.stop {
            Some(stop) => next.min(stop),
            None => next,
        })
    }
}

/// Poisson arrivals of bounded bulk transfers with exponentially
/// distributed sizes (web-like background load).
pub struct PoissonTransfers {
    src: NodeId,
    dst: NodeId,
    /// Mean inter-arrival gap.
    mean_gap: SimDuration,
    /// Mean transfer size, bytes.
    mean_bytes: f64,
    stop: Option<SimTime>,
    rng: Rng,
}

impl PoissonTransfers {
    /// New arrival process, seeded for reproducibility.
    pub fn new(
        src: NodeId,
        dst: NodeId,
        mean_gap: SimDuration,
        mean_bytes: f64,
        stop: Option<SimTime>,
        seed: u64,
    ) -> Self {
        PoissonTransfers { src, dst, mean_gap, mean_bytes, stop, rng: Rng::seed_from_u64(seed) }
    }
}

impl TrafficProcess for PoissonTransfers {
    fn fire(&mut self, now: SimTime, ctx: &mut ProcessCtx<'_>) -> Option<SimTime> {
        if let Some(stop) = self.stop {
            if now >= stop {
                return None;
            }
        }
        let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        let bytes = (-self.mean_bytes * u.ln()).max(1.0) as u64;
        ctx.start_flow(
            FlowParams::bulk(self.src, self.dst, bytes).with_tag(FlowTag::BACKGROUND),
        );
        let v: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        let gap = SimDuration::from_secs_f64(-self.mean_gap.as_secs_f64() * v.ln());
        Some(now + gap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Simulator;
    use crate::topology::TopologyBuilder;
    use crate::units::mbps;

    fn pair() -> (Simulator, NodeId, NodeId) {
        let mut b = TopologyBuilder::new();
        let h1 = b.compute("h1");
        let h2 = b.compute("h2");
        let r = b.network("r");
        b.link(h1, r, mbps(100.0), SimDuration::from_micros(10)).unwrap();
        b.link(r, h2, mbps(100.0), SimDuration::from_micros(10)).unwrap();
        (Simulator::new(b.build().unwrap()).unwrap(), h1, h2)
    }

    #[test]
    fn cbr_window_delivers_expected_volume() {
        let (mut sim, h1, h2) = pair();
        sim.add_process(
            SimTime::from_secs(1),
            Box::new(CbrTraffic::new(h1, h2, mbps(40.0), Some(SimTime::from_secs(3)))),
        );
        sim.run_until(SimTime::from_secs(5)).unwrap();
        let link = sim.topology().neighbors(h1)[0].0;
        let octets = sim.iface_out_octets(h1, link);
        // 40 Mbit/s for 2 s = 10 MB.
        assert!((octets - 1e7).abs() < 10.0, "{octets}");
        assert_eq!(sim.active_flow_count(), 0);
    }

    #[test]
    fn greedy_traffic_fills_link() {
        let (mut sim, h1, h2) = pair();
        sim.add_process(
            SimTime::ZERO,
            Box::new(GreedyTraffic::new(h1, h2, 4, Some(SimTime::from_secs(2)))),
        );
        sim.run_until(SimTime::from_secs(1)).unwrap();
        assert_eq!(sim.active_flow_count(), 4);
        let link = sim.topology().neighbors(h1)[0].0;
        let dir = sim.topology().link(link).direction_from(h1);
        let rate = sim.dirlink_rate(crate::topology::DirLink { link, dir });
        assert!((rate - mbps(100.0)).abs() < 1.0, "{rate}");
        sim.run_until(SimTime::from_secs(3)).unwrap();
        assert_eq!(sim.active_flow_count(), 0);
    }

    #[test]
    fn greedy_traffic_squeezes_app_flow() {
        let (mut sim, h1, h2) = pair();
        sim.add_process(SimTime::ZERO, Box::new(GreedyTraffic::new(h1, h2, 4, None)));
        sim.run_until(SimTime::from_millis(1)).unwrap();
        let f = sim.start_flow(FlowParams::greedy(h1, h2)).unwrap();
        let r = sim.flow_rate(f).unwrap();
        assert!((r - mbps(20.0)).abs() < 1.0, "app share {r}");
    }

    #[test]
    fn onoff_produces_partial_load() {
        let (mut sim, h1, h2) = pair();
        sim.add_process(
            SimTime::ZERO,
            Box::new(OnOffTraffic::new(
                h1,
                h2,
                SimDuration::from_secs(1),
                SimDuration::from_secs(1),
                Some(SimTime::from_secs(60)),
                42,
            )),
        );
        sim.run_until(SimTime::from_secs(60)).unwrap();
        let link = sim.topology().neighbors(h1)[0].0;
        let octets = sim.iface_out_octets(h1, link);
        let full = 100e6 / 8.0 * 60.0;
        // Roughly half duty cycle: between 20% and 80% of a full-rate minute.
        assert!(octets > 0.2 * full && octets < 0.8 * full, "{octets}");
        assert_eq!(sim.active_flow_count(), 0, "stopped at the window end");
    }

    #[test]
    fn onoff_deterministic_with_same_seed() {
        let run = |seed| {
            let (mut sim, h1, h2) = pair();
            sim.add_process(
                SimTime::ZERO,
                Box::new(OnOffTraffic::new(
                    h1,
                    h2,
                    SimDuration::from_millis(500),
                    SimDuration::from_millis(500),
                    Some(SimTime::from_secs(20)),
                    seed,
                )),
            );
            sim.run_until(SimTime::from_secs(20)).unwrap();
            let link = sim.topology().neighbors(h1)[0].0;
            sim.iface_out_octets(h1, link)
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn poisson_transfers_complete() {
        let (mut sim, h1, h2) = pair();
        sim.add_process(
            SimTime::ZERO,
            Box::new(PoissonTransfers::new(
                h1,
                h2,
                SimDuration::from_millis(200),
                100_000.0,
                Some(SimTime::from_secs(10)),
                1,
            )),
        );
        sim.run_until(SimTime::from_secs(30)).unwrap();
        let finished = sim.take_finished();
        assert!(finished.len() > 20, "only {} transfers", finished.len());
        assert!(finished.iter().all(|r| r.completed));
        assert!(finished.iter().all(|r| r.tag == FlowTag::BACKGROUND));
    }
}
