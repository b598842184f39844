//! Application quality metrics: an adaptive video stream (§2, §6).
//!
//! "Some applications must meet an application-specific quality model,
//! e.g., jitter-free display of an image sequence … As the network
//! environment changes, the application has to adjust its mix" — and §6:
//! "Video streaming has the property that the parameters to adjust …
//! are fairly obvious (typically the frame rate or frame size) … if the
//! available bandwidth drops, the frame rate should be reduced."
//!
//! The [`VideoStream`] sends fixed-size frames at one of a ladder of
//! frame rates. Every adjustment period it issues a Remos *fixed-flow*
//! query for the next-higher rung (upgrade if satisfiable with headroom)
//! and for its current rung (downgrade if no longer satisfiable) — the
//! §4.2 use of fixed flows: "for a fixed flow, an application may be
//! primarily interested in whether the network can support it."

use remos_core::prelude::*;
use remos_core::Remos;
use remos_net::flow::{FlowParams, FlowTag};
use remos_net::{Bps, SimDuration};
use remos_snmp::sim::SharedSim;

/// Configuration of an adaptive stream.
#[derive(Clone, Debug)]
pub struct VideoConfig {
    /// Frame payload, bytes.
    pub frame_bytes: u64,
    /// Frame-rate ladder (frames/s), ascending.
    pub rate_ladder: Vec<f64>,
    /// How often the controller re-evaluates.
    pub adjust_period: SimDuration,
    /// Required headroom to upgrade: the next rung's bandwidth must be
    /// granted at `headroom` × its requirement.
    pub headroom: f64,
}

impl Default for VideoConfig {
    fn default() -> Self {
        VideoConfig {
            // 25 KB frames: 30 fps = 6 Mbit/s.
            frame_bytes: 25_000,
            rate_ladder: vec![5.0, 10.0, 15.0, 30.0],
            adjust_period: SimDuration::from_secs(2),
            headroom: 1.1,
        }
    }
}

/// Result of a streaming session.
#[derive(Clone, Debug)]
pub struct StreamReport {
    /// Frames actually delivered.
    pub frames_delivered: f64,
    /// Frames the top rung would have delivered in the same wall time.
    pub frames_ideal: f64,
    /// Frames that would have been lost had the stream *not* adapted
    /// (stayed at the top rung regardless of bandwidth).
    pub frames_lost_without_adaptation: f64,
    /// Rate changes performed: (time s, new fps).
    pub rate_changes: Vec<(f64, f64)>,
    /// Mean delivered frame rate.
    pub mean_fps: f64,
}

/// The adaptive sender.
pub struct VideoStream {
    cfg: VideoConfig,
    src: String,
    dst: String,
}

impl VideoStream {
    /// A stream from `src` to `dst`.
    pub fn new(src: &str, dst: &str, cfg: VideoConfig) -> VideoStream {
        VideoStream { cfg, src: src.to_string(), dst: dst.to_string() }
    }

    fn rate_bps(&self, fps: f64) -> Bps {
        self.cfg.frame_bytes as f64 * 8.0 * fps
    }

    /// Can the network support `fps` (with `margin` headroom)?
    fn supports(&self, remos: &mut Remos, fps: f64, margin: f64) -> CoreResult<bool> {
        let need = self.rate_bps(fps) * margin;
        let req = FlowInfoRequest::new().fixed(&self.src, &self.dst, need);
        let resp = remos.run(Query::flows(req))?.into_flows()?;
        Ok(resp.fixed[0].fully_satisfied)
    }

    /// Stream for `duration`, adapting every `adjust_period`. The stream
    /// itself runs as a CBR flow whose rate tracks the chosen rung; the
    /// achieved rate (max-min share) determines delivered frames.
    pub fn run(
        &self,
        sim: &SharedSim,
        remos: &mut Remos,
        duration: SimDuration,
    ) -> CoreResult<StreamReport> {
        let ladder = &self.cfg.rate_ladder;
        let mut rung = 0usize; // start conservatively at the bottom
        let Some(&top_fps) = ladder.last() else {
            return Err(remos_core::RemosError::InvalidQuery(
                remos_core::InvalidQueryKind::EmptyRateLadder,
            ));
        };

        let (src_id, dst_id) = {
            let s = sim.lock();
            let t = s.topology_arc();
            (
                t.lookup(&self.src).map_err(remos_core::RemosError::from)?,
                t.lookup(&self.dst).map_err(remos_core::RemosError::from)?,
            )
        };

        let t_start = sim.lock().now();
        let t_end = t_start + duration;
        let mut frames_delivered = 0.0;
        let mut frames_lost_na = 0.0; // without adaptation, at top rung
        let mut rate_changes = vec![(0.0, ladder[rung])];

        while sim.lock().now() < t_end {
            // One adjustment period at the current rung.
            let fps = ladder[rung];
            let flow = {
                let mut s = sim.lock();
                s.start_flow(
                    FlowParams::cbr(src_id, dst_id, self.rate_bps(fps))
                        .with_tag(FlowTag::APP),
                )
                .map_err(remos_core::RemosError::from)?
            };
            let period_end = (sim.lock().now() + self.cfg.adjust_period).min(t_end);
            {
                let mut s = sim.lock();
                s.run_until(period_end).map_err(remos_core::RemosError::from)?;
            }
            let rec = {
                let mut s = sim.lock();
                s.stop_flow(flow).map_err(remos_core::RemosError::from)?
            };
            let got_fps = rec.mean_rate() / (self.cfg.frame_bytes as f64 * 8.0);
            let period_secs = rec.finished.since(rec.started).as_secs_f64();
            frames_delivered += got_fps.min(fps) * period_secs;

            // What a stubborn top-rung sender would have lost: it offers
            // top_fps but only the achieved share arrives.
            let top_share = got_fps.min(fps) / fps; // fraction of offered rate delivered
            let na_delivered = top_fps * top_share.min(1.0);
            frames_lost_na += (top_fps - na_delivered).max(0.0) * period_secs;

            if sim.lock().now() >= t_end {
                break;
            }
            // Controller: upgrade if the next rung fits with headroom,
            // downgrade if even the current rung is unsupported.
            if rung + 1 < ladder.len()
                && self.supports(remos, ladder[rung + 1], self.cfg.headroom)?
            {
                rung += 1;
                rate_changes.push((
                    sim.lock().now().since(t_start).as_secs_f64(),
                    ladder[rung],
                ));
            } else if rung > 0 && !self.supports(remos, ladder[rung], 1.0)? {
                rung -= 1;
                rate_changes.push((
                    sim.lock().now().since(t_start).as_secs_f64(),
                    ladder[rung],
                ));
            }
        }
        let wall = sim.lock().now().since(t_start).as_secs_f64();
        Ok(StreamReport {
            frames_delivered,
            frames_ideal: top_fps * wall,
            frames_lost_without_adaptation: frames_lost_na,
            rate_changes,
            mean_fps: frames_delivered / wall.max(1e-9),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testbed::cmu_testbed;
    use crate::TestbedHarness;
    use remos_net::mbps;
    use remos_net::SimTime;

    fn harness() -> TestbedHarness {
        TestbedHarness::new(cmu_testbed())
    }

    #[test]
    fn idle_network_climbs_to_top_rate() {
        let mut h = harness();
        let stream = VideoStream::new("m-1", "m-8", VideoConfig::default());
        let rep = stream
            .run(&h.sim, h.adapter.remos_mut(), SimDuration::from_secs(30))
            .unwrap();
        // The controller must reach 30 fps and deliver nearly everything
        // it offers (it starts at 5 fps, so the ideal is unreachable).
        assert_eq!(rep.rate_changes.last().unwrap().1, 30.0);
        assert!(rep.mean_fps > 15.0, "{}", rep.mean_fps);
    }

    #[test]
    fn congestion_forces_downgrade() {
        let mut h = harness();
        // The stream climbs on an idle network; at t = 20 s, 20 greedy
        // streams flood the shared path, leaving the video a ~4.8 Mbit/s
        // max-min share — below the 6 Mbit/s the 30 fps rung needs.
        crate::synthetic::add_greedy_traffic(
            &h.sim,
            "m-2",
            "m-7",
            20,
            SimTime::from_secs(20),
            None,
        )
        .unwrap();
        let stream = VideoStream::new("m-1", "m-8", VideoConfig::default());
        let rep = stream
            .run(&h.sim, h.adapter.remos_mut(), SimDuration::from_secs(60))
            .unwrap();
        // It reached the top rung before the congestion...
        assert!(rep.rate_changes.iter().any(|&(_, fps)| fps == 30.0), "{rep:?}");
        // ...then backed off below it.
        let final_fps = rep.rate_changes.last().unwrap().1;
        assert!(final_fps < 30.0, "{rep:?}");
        // A stubborn top-rung sender would have lost frames meanwhile.
        assert!(rep.frames_lost_without_adaptation > 0.0, "{rep:?}");
    }

    #[test]
    fn rate_bps_math() {
        let s = VideoStream::new("a", "b", VideoConfig::default());
        assert!((s.rate_bps(30.0) - mbps(6.0)).abs() < 1.0);
    }
}
