//! Pipelined SOR with Remos-driven pipeline-depth selection.
//!
//! §6 cites this adaptation parameter directly: "in \[21\] an adaptation
//! module selects the optimal pipeline depth for a pipelined SOR
//! application based on network and CPU performance" (Siegell &
//! Steenkiste, Concurrency P&E 9(3)). The grid flows through a chain of
//! P stages in `depth` blocks: deeper pipelines overlap more but pay the
//! per-step synchronization/latency cost more often.
//!
//! Cost model for one sweep at depth `d` over `P` stages:
//!
//! ```text
//! T(d) = (P + d - 1) * (C/d + X/d + o)
//! ```
//!
//! with `C` the per-stage compute seconds, `X` the per-stage transfer
//! seconds at measured bandwidth, and `o` the per-step overhead (barrier +
//! path latency). The optimum is near `d* = sqrt((P-1)(C+X)/o)`.

use remos_core::prelude::*;
use remos_core::Remos;
use remos_net::flow::FlowParams;
use remos_net::{NodeId, SimDuration};
use remos_snmp::sim::SharedSim;

/// SOR pipeline parameters.
#[derive(Clone, Debug)]
pub struct SorConfig {
    /// Per-stage compute work for a whole sweep, flops.
    pub stage_flops: f64,
    /// Data volume forwarded between consecutive stages per sweep, bytes.
    pub stage_bytes: u64,
    /// Fixed per-step overhead (barrier, scheduling).
    pub step_overhead: SimDuration,
    /// Largest depth considered.
    pub max_depth: usize,
}

impl Default for SorConfig {
    fn default() -> Self {
        SorConfig {
            stage_flops: 25e6,   // 0.5 s/stage at 50 Mflops
            stage_bytes: 2_500_000, // 0.2 s/stage at 100 Mbps
            step_overhead: SimDuration::from_millis(5),
            max_depth: 64,
        }
    }
}

/// Predicted sweep time at a given depth.
pub fn predict_sweep_secs(
    depth: usize,
    stages: usize,
    compute_secs: f64,
    transfer_secs: f64,
    overhead_secs: f64,
) -> f64 {
    assert!(depth >= 1 && stages >= 1);
    let steps = (stages + depth - 1) as f64;
    steps * ((compute_secs + transfer_secs) / depth as f64 + overhead_secs)
}

/// Pick the depth minimizing the predicted sweep time from live Remos
/// measurements: per-stage compute rate from host info, the slowest
/// inter-stage bandwidth/latency from a graph query.
pub fn select_depth(
    remos: &mut Remos,
    chain: &[String],
    cfg: &SorConfig,
) -> CoreResult<(usize, f64)> {
    assert!(chain.len() >= 2, "pipeline needs at least 2 stages");
    let graph = remos.run(Query::graph(chain.iter().cloned()))?.into_graph()?;
    // Slowest hop gates every step.
    let mut worst_bw = f64::INFINITY;
    let mut worst_lat = 0.0f64;
    for w in chain.windows(2) {
        let a = graph.index_of(&w[0])?;
        let b = graph.index_of(&w[1])?;
        worst_bw = worst_bw.min(graph.path_avail_bw(a, b)?);
        worst_lat = worst_lat.max(graph.path_latency(a, b)?.as_secs_f64());
    }
    let mut slowest_flops = f64::INFINITY;
    for name in chain {
        let h = remos.host_info(name)?;
        slowest_flops = slowest_flops.min(h.compute_flops);
    }
    let compute = cfg.stage_flops / slowest_flops.max(1.0);
    let transfer = if worst_bw <= 0.0 {
        f64::INFINITY
    } else {
        cfg.stage_bytes as f64 * 8.0 / worst_bw
    };
    let overhead = cfg.step_overhead.as_secs_f64() + worst_lat;
    let mut best = (1usize, f64::INFINITY);
    for d in 1..=cfg.max_depth {
        let t = predict_sweep_secs(d, chain.len(), compute, transfer, overhead);
        if t < best.1 {
            best = (d, t);
        }
    }
    Ok(best)
}

/// Execute one pipelined sweep at `depth` with real flows; returns
/// elapsed simulated seconds.
pub fn execute_sweep(
    sim: &SharedSim,
    chain: &[NodeId],
    cfg: &SorConfig,
    depth: usize,
) -> CoreResult<f64> {
    assert!(depth >= 1 && chain.len() >= 2);
    let p = chain.len();
    let mut s = sim.lock();
    let t0 = s.now();
    let topo = s.topology_arc();
    let slowest_flops = chain
        .iter()
        .map(|&n| topo.node(n).host.map_or(0.0, |h| h.compute_flops))
        .fold(f64::INFINITY, f64::min);
    let block_compute =
        SimDuration::from_secs_f64(cfg.stage_flops / depth as f64 / slowest_flops.max(1.0));
    let block_bytes = (cfg.stage_bytes / depth as u64).max(1);

    for step in 0..(p + depth - 1) {
        // Stages holding a block this step compute concurrently.
        let active: Vec<usize> = (0..p)
            .filter(|&i| step >= i && step - i < depth)
            .collect();
        if active.is_empty() {
            continue;
        }
        s.run_for(block_compute).map_err(remos_core::RemosError::from)?;
        // Forward boundaries downstream (concurrently).
        let mut handles = Vec::new();
        for &i in &active {
            if i + 1 < p {
                handles.push(
                    s.start_flow(FlowParams::bulk(chain[i], chain[i + 1], block_bytes))
                        .map_err(remos_core::RemosError::from)?,
                );
            }
        }
        if !handles.is_empty() {
            s.run_until_flows_complete(&handles)
                .map_err(remos_core::RemosError::from)?;
        }
        s.run_for(cfg.step_overhead).map_err(remos_core::RemosError::from)?;
    }
    Ok(s.now().since(t0).as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testbed::star;
    use crate::TestbedHarness;

    #[test]
    fn model_has_interior_optimum() {
        // C + X = 0.7 s, o = 5 ms, P = 5: d* ≈ sqrt(4*0.7/0.005) ≈ 24.
        let t = |d| predict_sweep_secs(d, 5, 0.5, 0.2, 0.005);
        let best = (1..=64).min_by(|&a, &b| t(a).partial_cmp(&t(b)).unwrap()).unwrap();
        assert!((20..=28).contains(&best), "{best}");
        assert!(t(best) < t(1));
        assert!(t(best) < t(64));
        // Monotone pieces: way below and way above the optimum are worse.
        assert!(t(2) < t(1));
        assert!(t(60) > t(best));
    }

    #[test]
    fn selection_matches_execution_ranking() {
        let mut h = TestbedHarness::new(star(5));
        let chain: Vec<String> = (0..5).map(|i| format!("h{i}")).collect();
        let cfg = SorConfig::default();
        let (d_star, predicted) = select_depth(h.adapter.remos_mut(), &chain, &cfg).unwrap();
        assert!(d_star > 1 && d_star < cfg.max_depth, "{d_star}");

        let ids: Vec<NodeId> = {
            let s = h.sim.lock();
            let t = s.topology_arc();
            chain.iter().map(|n| t.lookup(n).unwrap()).collect()
        };
        let t_star = execute_sweep(&h.sim, &ids, &cfg, d_star).unwrap();
        let t_shallow = execute_sweep(&h.sim, &ids, &cfg, 1).unwrap();
        let t_deep = execute_sweep(&h.sim, &ids, &cfg, cfg.max_depth).unwrap();
        assert!(t_star < t_shallow, "{t_star} !< {t_shallow}");
        assert!(t_star < t_deep, "{t_star} !< {t_deep}");
        // The model's absolute prediction is in the right ballpark.
        assert!((t_star - predicted).abs() < predicted * 0.35, "{t_star} vs {predicted}");
    }

    #[test]
    fn congestion_shifts_depth() {
        // More transfer time (slower links) raises C+X and the optimal
        // depth with it.
        let quiet = {
            let mut h = TestbedHarness::new(star(5));
            let chain: Vec<String> = (0..5).map(|i| format!("h{i}")).collect();
            select_depth(h.adapter.remos_mut(), &chain, &SorConfig::default()).unwrap().0
        };
        let busy = {
            let mut h = TestbedHarness::new(star(5));
            // A 60 Mbps CBR stream on the h1->h2 hop leaves 40 Mbps:
            // transfers take 2.5x longer, pushing the optimum deeper.
            {
                let mut s = h.sim.lock();
                let t = s.topology_arc();
                let h1 = t.lookup("h1").unwrap();
                let h2 = t.lookup("h2").unwrap();
                s.start_flow(remos_net::flow::FlowParams::cbr(h1, h2, remos_net::mbps(60.0)))
                    .unwrap();
                s.run_for(SimDuration::from_secs(1)).unwrap();
            }
            let chain: Vec<String> = (0..5).map(|i| format!("h{i}")).collect();
            select_depth(h.adapter.remos_mut(), &chain, &SorConfig::default()).unwrap().0
        };
        assert!(busy > quiet, "busy {busy} <= quiet {quiet}");
    }
}
