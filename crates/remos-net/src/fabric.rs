//! Seeded k-ary fat-tree fabric generator and churn workload.
//!
//! ROADMAP item 1/4: the testbed scenarios top out at a few dozen nodes,
//! which is too small to expose hot-path costs that only matter at
//! datacenter scale. This module builds the classic 3-tier k-ary
//! fat-tree (Al-Fares et al.): `k` pods, each with `k/2` edge and `k/2`
//! aggregation switches, `(k/2)^2` core switches, and `(k/2)^2` hosts
//! per pod — `k = 16` yields 1024 hosts and 320 switches (1344 nodes,
//! 3072 duplex links). Construction is fully deterministic: node ids,
//! names, and link ids depend only on `k`, so two builds are
//! interchangeable in digest comparisons.
//!
//! [`FabricChurn`] layers a seeded steady-state workload on top: a fixed
//! population of persistent greedy flows where every step retires the
//! oldest flow and admits a fresh one, with seeded src/dst draws and a
//! configurable intra-pod locality. All randomness comes from one
//! seeded [`Rng`], so a `(k, flows, seed, locality)` tuple names a
//! reproducible scenario — the contract the pinned digests in
//! `tests/determinism.rs` rely on.

use crate::engine::{FlowHandle, Simulator};
use crate::error::{NetError, Result};
use crate::flow::FlowParams;
use crate::time::{SimDuration, SimTime};
use crate::topology::{NodeId, Topology, TopologyBuilder};
use crate::units::{gbps, Bps};
use crate::whatif::WhatIfFlow;
use crate::rng::Rng;
use std::collections::VecDeque;

/// A built fat-tree plus the dense host-id table needed to drive
/// workloads without any name lookups (the churn hot loop must not
/// touch the name map).
#[derive(Debug)]
pub struct FatTree {
    topology: Topology,
    /// Host ids in pod-major order: `hosts[pod * hosts_per_pod + i]`.
    hosts: Vec<NodeId>,
    /// Pod of each node, indexed by `NodeId`; `NO_POD` for core switches.
    pod_by_node: Vec<u32>,
    k: usize,
}

/// [`FatTree::pod_of`] sentinel for nodes outside every pod (the core).
const NO_POD: u32 = u32::MAX;

impl FatTree {
    /// Build the 3-tier k-ary fat-tree. `k` must be even and at least 4.
    ///
    /// Capacities follow the usual oversubscribed profile: 1 Gbps host
    /// links, 10 Gbps edge-aggregation links, 40 Gbps
    /// aggregation-core links, all at 5 us latency.
    pub fn build(k: usize) -> Result<FatTree> {
        assert!(k >= 4 && k.is_multiple_of(2), "fat-tree arity must be even and >= 4");
        let half = k / 2;
        let lat = SimDuration::from_micros(5);
        let mut b = TopologyBuilder::new();

        // Core layer: (k/2) groups of (k/2) switches. Aggregation switch
        // `a` of every pod uplinks to all of core group `a`.
        let mut pod_by_node: Vec<u32> = Vec::new();
        let tag = |n: NodeId, pod: u32, pods: &mut Vec<u32>| {
            let i = n.index();
            if pods.len() <= i {
                pods.resize(i + 1, NO_POD);
            }
            pods[i] = pod;
        };
        let mut core = Vec::with_capacity(half * half);
        for g in 0..half {
            for i in 0..half {
                let c = b.network(&format!("c{g}x{i}"));
                tag(c, NO_POD, &mut pod_by_node);
                core.push(c);
            }
        }

        let mut hosts = Vec::with_capacity(k * half * half);
        for p in 0..k {
            let mut edges = Vec::with_capacity(half);
            let mut aggs = Vec::with_capacity(half);
            for e in 0..half {
                let edge = b.network(&format!("p{p}e{e}"));
                tag(edge, p as u32, &mut pod_by_node);
                edges.push(edge);
            }
            for a in 0..half {
                let agg = b.network(&format!("p{p}a{a}"));
                tag(agg, p as u32, &mut pod_by_node);
                aggs.push(agg);
            }
            // Hosts: (k/2) per edge switch.
            for (e, &edge) in edges.iter().enumerate() {
                for h in 0..half {
                    let host = b.compute(&format!("p{p}e{e}h{h}"));
                    tag(host, p as u32, &mut pod_by_node);
                    b.link(host, edge, gbps(1.0), lat)?;
                    hosts.push(host);
                }
            }
            // Full bipartite edge <-> aggregation mesh within the pod.
            for &edge in &edges {
                for &agg in &aggs {
                    b.link(edge, agg, gbps(10.0), lat)?;
                }
            }
            // Aggregation switch `a` to every switch of core group `a`.
            for (a, &agg) in aggs.iter().enumerate() {
                for i in 0..half {
                    b.link(agg, core[a * half + i], gbps(40.0), lat)?;
                }
            }
        }

        Ok(FatTree { topology: b.build()?, hosts, pod_by_node, k })
    }

    /// The built topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Pod a node belongs to; `None` for core switches.
    pub fn pod_of(&self, n: NodeId) -> Option<usize> {
        match self.pod_by_node.get(n.index()).copied() {
            Some(p) if p != NO_POD => Some(p as usize),
            _ => None,
        }
    }

    /// Pod a link belongs to: `Some(p)` for host-edge and
    /// edge-aggregation links inside pod `p`, `None` for
    /// aggregation-core links (the spine/WAN tier). Every link is one or
    /// the other, so partitioning by this tiles the whole fabric.
    pub fn pod_of_link(&self, l: crate::topology::LinkId) -> Option<usize> {
        let link = self.topology.link(l);
        match (self.pod_of(link.a), self.pod_of(link.b)) {
            (Some(p), Some(q)) if p == q => Some(p),
            _ => None,
        }
    }

    /// Consume into the topology and the pod-major host table.
    pub fn into_parts(self) -> (Topology, Vec<NodeId>) {
        (self.topology, self.hosts)
    }

    /// Pod count (`k`).
    pub fn pods(&self) -> usize {
        self.k
    }

    /// Hosts per pod (`(k/2)^2`).
    pub fn hosts_per_pod(&self) -> usize {
        (self.k / 2) * (self.k / 2)
    }

    /// Host `i` of pod `p` (both zero-based).
    pub fn host(&self, pod: usize, i: usize) -> NodeId {
        self.hosts[pod * self.hosts_per_pod() + i]
    }

    /// All host ids, pod-major.
    pub fn hosts(&self) -> &[NodeId] {
        &self.hosts
    }
}

/// Seeded steady-state churn over a fat-tree: a constant population of
/// persistent greedy flows; each [`step`](FabricChurn::step) retires the
/// oldest flow, admits a seeded replacement, and advances simulated time
/// so the engine coalesces the pair into one rate recomputation.
pub struct FabricChurn {
    /// The simulator under test.
    pub sim: Simulator,
    hosts: Vec<NodeId>,
    pods: usize,
    hosts_per_pod: usize,
    live: VecDeque<FlowHandle>,
    rng: Rng,
    locality_pct: u32,
}

impl FabricChurn {
    /// Build a `k`-ary fabric, admit `flows` seeded flows, and settle the
    /// initial allocation outside any measured window. `locality_pct` of
    /// flows (0..=100) stay within their source pod; the rest cross the
    /// core. The simulator runs in the default solver mode; a caller that
    /// wants another sets it on [`FabricChurn::sim`].
    pub fn new(k: usize, flows: usize, seed: u64, locality_pct: u32) -> Result<FabricChurn> {
        let tree = FatTree::build(k)?;
        let pods = tree.pods();
        let hosts_per_pod = tree.hosts_per_pod();
        let (topology, hosts) = tree.into_parts();
        let mut churn = FabricChurn {
            sim: Simulator::new(topology)?,
            hosts,
            pods,
            hosts_per_pod,
            live: VecDeque::with_capacity(flows + 1),
            rng: Rng::seed_from_u64(seed),
            locality_pct: locality_pct.min(100),
        };
        for _ in 0..flows {
            churn.spawn()?;
        }
        churn.sim.run_for(SimDuration::from_millis(1))?;
        Ok(churn)
    }

    /// Admit one seeded flow.
    fn spawn(&mut self) -> Result<()> {
        let src_pod = self.rng.gen_range(0..self.pods);
        let src_i = self.rng.gen_range(0..self.hosts_per_pod);
        let dst_pod = if self.rng.gen_range(0..100u32) < self.locality_pct {
            src_pod
        } else {
            // A different pod, drawn uniformly from the others.
            (src_pod + 1 + self.rng.gen_range(0..self.pods - 1)) % self.pods
        };
        let dst_i = if dst_pod == src_pod {
            (src_i + 1 + self.rng.gen_range(0..self.hosts_per_pod - 1)) % self.hosts_per_pod
        } else {
            self.rng.gen_range(0..self.hosts_per_pod)
        };
        let src = self.hosts[src_pod * self.hosts_per_pod + src_i];
        let dst = self.hosts[dst_pod * self.hosts_per_pod + dst_i];
        let weight = 1.0 + f64::from(self.rng.gen_range(0..4u32));
        let h = self.sim.start_flow(FlowParams::greedy(src, dst).with_weight(weight))?;
        self.live.push_back(h);
        Ok(())
    }

    /// One churn event: retire the oldest flow, admit a replacement, and
    /// advance simulated time by 100 us so the engine recomputes rates.
    pub fn step(&mut self) -> Result<()> {
        if let Some(h) = self.live.pop_front() {
            self.sim.stop_flow(h)?;
        }
        self.spawn()?;
        self.sim.run_for(SimDuration::from_micros(100))?;
        Ok(())
    }

    /// Current live-flow population.
    pub fn live_flows(&self) -> usize {
        self.sim.active_flow_count()
    }
}

/// An empirical flow-size distribution as cumulative `(probability,
/// bytes)` points, sampled by inverse transform with linear
/// interpolation between points.
///
/// The presets follow the two canonical datacenter traces: the
/// search-cluster mix (mostly short RPCs plus a heavy tail of multi-MB
/// responses) and the data-mining mix (half the flows under a few KB but
/// nearly all bytes in >100 MB background transfers).
#[derive(Clone, Debug)]
pub struct FlowSizeEcdf {
    /// `(cumulative probability, bytes)`, strictly increasing in both
    /// coordinates, first probability 0, last probability 1.
    points: Vec<(f64, u64)>,
}

impl FlowSizeEcdf {
    /// Build from cumulative points. The first point anchors probability
    /// `0.0` at the minimum size; the last must reach probability `1.0`.
    pub fn new(points: &[(f64, u64)]) -> Result<FlowSizeEcdf> {
        if points.len() < 2 {
            return Err(NetError::Invalid("ECDF needs at least two points".into()));
        }
        if points[0].0 != 0.0 || points[points.len() - 1].0 != 1.0 {
            return Err(NetError::Invalid("ECDF must span probabilities 0.0..=1.0".into()));
        }
        for w in points.windows(2) {
            if w[1].0 <= w[0].0 || w[1].1 < w[0].1 {
                return Err(NetError::Invalid(format!(
                    "ECDF points must increase: {:?} then {:?}",
                    w[0], w[1]
                )));
            }
        }
        Ok(FlowSizeEcdf { points: points.to_vec() })
    }

    /// Search-cluster mix: short query/response RPCs with a moderate
    /// heavy tail.
    pub fn web_search() -> FlowSizeEcdf {
        FlowSizeEcdf::new(&[
            (0.0, 5_000),
            (0.15, 10_000),
            (0.30, 30_000),
            (0.45, 60_000),
            (0.60, 200_000),
            (0.70, 1_000_000),
            (0.80, 2_000_000),
            (0.90, 5_000_000),
            (0.97, 10_000_000),
            (1.0, 30_000_000),
        ])
        .expect("preset ECDF is valid")
    }

    /// Data-mining mix: half the flows are tiny control messages, almost
    /// all bytes ride in very large background transfers.
    pub fn data_mining() -> FlowSizeEcdf {
        FlowSizeEcdf::new(&[
            (0.0, 500),
            (0.50, 2_000),
            (0.70, 10_000),
            (0.80, 100_000),
            (0.90, 1_000_000),
            (0.95, 10_000_000),
            (0.99, 100_000_000),
            (1.0, 400_000_000),
        ])
        .expect("preset ECDF is valid")
    }

    /// Uniform sizes over `lo..=hi` bytes.
    pub fn uniform(lo: u64, hi: u64) -> Result<FlowSizeEcdf> {
        if hi <= lo {
            return Err(NetError::Invalid(format!("uniform ECDF needs lo < hi, got {lo}..{hi}")));
        }
        FlowSizeEcdf::new(&[(0.0, lo), (1.0, hi)])
    }

    /// Inverse-transform sample one flow size.
    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let u: f64 = rng.unit();
        // Segment whose upper cumulative probability covers `u`.
        let hi = self
            .points
            .partition_point(|&(p, _)| p < u)
            .clamp(1, self.points.len() - 1);
        let (p0, b0) = self.points[hi - 1];
        let (p1, b1) = self.points[hi];
        let t = ((u - p0) / (p1 - p0)).clamp(0.0, 1.0);
        b0 + ((b1 - b0) as f64 * t) as u64
    }

    /// Mean flow size in bytes (exact, by segment trapezoids) — the
    /// quantity the load calibration divides by.
    pub fn mean_bytes(&self) -> f64 {
        self.points
            .windows(2)
            .map(|w| (w[1].0 - w[0].0) * (w[0].1 as f64 + w[1].1 as f64) / 2.0)
            .sum()
    }
}

/// Parameters for seeded what-if workload synthesis.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadSpec {
    /// RNG seed; `(seed, flows, target_load, locality_pct, skew)` names a
    /// reproducible workload.
    pub seed: u64,
    /// Number of hypothetical flows to draw.
    pub flows: usize,
    /// Target utilization of the *hottest expected* host uplink
    /// (fraction of its capacity); the aggregate arrival rate is
    /// calibrated so offered load on that link equals this.
    pub target_load: f64,
    /// Percentage (0..=100) of flows whose destination stays in the
    /// source pod.
    pub locality_pct: u32,
    /// ToR (edge switch) popularity skew: per-ToR weight is
    /// `1 / (rank + 1)^skew` with rank = ToR index. `0.0` is uniform.
    pub skew: f64,
}

impl WorkloadSpec {
    /// A balanced default: moderate load, mild skew, mostly cross-pod.
    pub fn new(seed: u64, flows: usize, target_load: f64) -> WorkloadSpec {
        WorkloadSpec { seed, flows, target_load, locality_pct: 25, skew: 1.0 }
    }
}

/// Draw lognormal inter-arrival gaps with mean `mean_gap_secs` (sigma of
/// the underlying normal fixed at 1), via Box–Muller on the shared RNG.
fn lognormal_gap(rng: &mut Rng, mean_gap_secs: f64) -> f64 {
    const SIGMA: f64 = 1.0;
    let mu = mean_gap_secs.ln() - SIGMA * SIGMA / 2.0;
    // Box–Muller; clamp u1 away from zero so ln stays finite.
    let u1: f64 = rng.unit().max(1e-12);
    let u2: f64 = rng.unit();
    let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    (mu + SIGMA * z).exp()
}

/// Pick an index from cumulative weights via one uniform draw.
fn pick_weighted(rng: &mut Rng, cum: &[f64]) -> usize {
    let total = *cum.last().expect("non-empty weight table");
    let u: f64 = rng.unit() * total;
    cum.partition_point(|&c| c <= u).min(cum.len() - 1)
}

/// Synthesize a seeded hypothetical flow set over a fat-tree: flow sizes
/// from `ecdf`, lognormal inter-arrivals calibrated so the hottest
/// expected host uplink sees `target_load` of its capacity, and a skewed
/// ToR-to-ToR spatial matrix (Zipf-like ToR popularity, `locality_pct`
/// of flows staying intra-pod). Fully deterministic per spec.
pub fn synth_fabric_workload(
    tree: &FatTree,
    ecdf: &FlowSizeEcdf,
    spec: &WorkloadSpec,
) -> Result<Vec<WhatIfFlow>> {
    // Hosts hang off edge switches at the fat-tree's access tier.
    synth_workload_over(tree.hosts(), tree.pods(), tree.pods() / 2, gbps(1.0), ecdf, spec)
}

/// Generic variant of [`synth_fabric_workload`] for an arbitrary host
/// list: hosts are grouped into `groups * tors_per_group` equal "racks"
/// in list order (pass `1, 1` for no structure), and `access_capacity`
/// is the per-host access-link capacity the load calibration targets.
pub fn synth_workload_over(
    hosts: &[NodeId],
    groups: usize,
    tors_per_group: usize,
    access_capacity: Bps,
    ecdf: &FlowSizeEcdf,
    spec: &WorkloadSpec,
) -> Result<Vec<WhatIfFlow>> {
    if hosts.len() < 2 {
        return Err(NetError::Invalid("workload synthesis needs at least two hosts".into()));
    }
    if !(spec.target_load > 0.0 && spec.target_load.is_finite()) {
        return Err(NetError::Invalid(format!("target load {} out of range", spec.target_load)));
    }
    if access_capacity <= 0.0 || access_capacity.is_nan() {
        return Err(NetError::Invalid("access capacity must be positive".into()));
    }
    let requested_tors = (groups * tors_per_group).max(1);
    let hosts_per_tor = hosts.len().div_ceil(requested_tors);
    // Actual rack count after rounding (the last rack may be partial).
    let n_tors = (hosts.len() - 1) / hosts_per_tor + 1;
    let tors_per_group = n_tors.div_ceil(groups.max(1));
    let locality_pct = spec.locality_pct.min(100);
    let locality = f64::from(locality_pct) / 100.0;

    // Zipf-like ToR popularity (rank = index), as a cumulative table.
    let weight = |t: usize| 1.0 / ((t + 1) as f64).powf(spec.skew);
    let mut cum_src = Vec::with_capacity(n_tors);
    let mut acc = 0.0;
    for t in 0..n_tors {
        acc += weight(t);
        cum_src.push(acc);
    }
    let total_w = acc;

    // Destination marginals at ToR granularity, for calibration: the
    // sampler below picks dst ToRs with the same skew, restricted to the
    // source group (locality) or to the other groups (1 - locality).
    let group_of = |t: usize| t / tors_per_group;
    let mut p_dst_tor = vec![0.0; n_tors];
    for s in 0..n_tors {
        let ps = weight(s) / total_w;
        let g = group_of(s);
        let (mut in_w, mut out_w) = (0.0, 0.0);
        for d in 0..n_tors {
            if group_of(d) == g {
                in_w += weight(d);
            } else {
                out_w += weight(d);
            }
        }
        for (d, p) in p_dst_tor.iter_mut().enumerate() {
            let (branch, denom) =
                if group_of(d) == g { (locality, in_w) } else { (1.0 - locality, out_w) };
            if denom > 0.0 {
                *p += ps * branch * weight(d) / denom;
            }
        }
    }
    // Hottest expected host marginal over src egress and dst ingress.
    let mut p_max = 0.0f64;
    for (t, &p_dst) in p_dst_tor.iter().enumerate() {
        let p_src = weight(t) / total_w;
        let hosts_here = hosts_per_tor.min(hosts.len() - t * hosts_per_tor);
        let per_host = p_src.max(p_dst) / hosts_here.max(1) as f64;
        p_max = p_max.max(per_host);
    }

    // Aggregate arrival rate so offered load on the hottest access link
    // equals the target: lambda * P_max * mean_bytes * 8 = load * cap.
    let mean_bytes = ecdf.mean_bytes();
    let lambda = spec.target_load * access_capacity / (8.0 * mean_bytes * p_max);
    let mean_gap = 1.0 / lambda;

    let mut rng = Rng::seed_from_u64(spec.seed);
    let mut out = Vec::with_capacity(spec.flows);
    let mut at = 0.0f64;
    // Scratch cumulative table for the per-source dst-ToR draw.
    let mut cum_dst = vec![0.0; n_tors];
    for _ in 0..spec.flows {
        at += lognormal_gap(&mut rng, mean_gap);
        let src_tor = pick_weighted(&mut rng, &cum_src);
        let hosts_here = hosts_per_tor.min(hosts.len() - src_tor * hosts_per_tor);
        let src = hosts[src_tor * hosts_per_tor + rng.gen_range(0..hosts_here)];
        let stay_local = n_tors == 1 || rng.gen_range(0..100u32) < locality_pct;
        let g = group_of(src_tor);
        let mut acc = 0.0;
        for (d, c) in cum_dst.iter_mut().enumerate() {
            if (group_of(d) == g) == stay_local {
                acc += weight(d);
            }
            *c = acc;
        }
        let dst = if acc > 0.0 {
            let dst_tor = pick_weighted(&mut rng, &cum_dst);
            let dh = hosts_per_tor.min(hosts.len() - dst_tor * hosts_per_tor);
            let mut dst = hosts[dst_tor * hosts_per_tor + rng.gen_range(0..dh)];
            if dst == src {
                // Same rack, same host: take the neighbour instead.
                let i = hosts.iter().position(|&h| h == src).unwrap_or(0);
                dst = hosts[(i + 1) % hosts.len()];
            }
            dst
        } else {
            // Degenerate partition (e.g. one group, no locality): uniform.
            let i = hosts.iter().position(|&h| h == src).unwrap_or(0);
            hosts[(i + 1 + rng.gen_range(0..hosts.len() - 1)) % hosts.len()]
        };
        out.push(WhatIfFlow {
            src,
            dst,
            size_bytes: ecdf.sample(&mut rng),
            arrival: SimTime::from_secs_f64(at),
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k4_tree_has_standard_shape() {
        let t = FatTree::build(4).unwrap();
        // 16 hosts, 8 edge, 8 agg, 4 core.
        assert_eq!(t.topology().node_count(), 16 + 8 + 8 + 4);
        // 16 host links + 4 pods * 4 edge-agg + 4 pods * 4 agg-core.
        assert_eq!(t.topology().link_count(), 16 + 16 + 16);
        assert!(t.topology().is_connected());
        assert_eq!(t.hosts().len(), 16);
        assert_eq!(t.hosts_per_pod(), 4);
    }

    #[test]
    fn k16_tree_crosses_the_thousand_node_bar() {
        let t = FatTree::build(16).unwrap();
        assert_eq!(t.topology().node_count(), 1024 + 128 + 128 + 64);
        assert_eq!(t.topology().link_count(), 3 * 1024);
        assert!(t.topology().is_connected());
    }

    #[test]
    fn pod_partition_tiles_every_link() {
        let t = FatTree::build(4).unwrap();
        let mut per_pod = vec![0usize; t.pods()];
        let mut spine = 0usize;
        for l in t.topology().link_ids() {
            match t.pod_of_link(l) {
                Some(p) => per_pod[p] += 1,
                None => spine += 1,
            }
        }
        // Each pod: 4 host links + 4 edge-agg links; spine: 16 agg-core.
        assert!(per_pod.iter().all(|&c| c == 8), "{per_pod:?}");
        assert_eq!(spine, 16);
        // Hosts and pod switches carry their pod; the core carries none.
        assert_eq!(t.pod_of(t.host(2, 0)), Some(2));
        assert_eq!(t.pod_of(NodeId(0)), None); // first core switch
    }

    #[test]
    fn build_is_deterministic() {
        let a = FatTree::build(6).unwrap();
        let b = FatTree::build(6).unwrap();
        assert_eq!(a.hosts(), b.hosts());
        for n in a.topology().node_ids() {
            assert_eq!(a.topology().node(n).name, b.topology().node(n).name);
        }
    }

    #[test]
    fn churn_replays_bit_identically_per_seed_and_mode() {
        use crate::engine::SolverMode;
        let run = |mode| {
            let mut c = FabricChurn::new(4, 24, 0xFAB, 75).unwrap();
            c.sim.set_solver_mode(mode);
            for _ in 0..12 {
                c.step().unwrap();
            }
            assert_eq!(c.live_flows(), 24);
            (c.sim.rates_digest(), c.sim.event_digest())
        };
        assert_eq!(run(SolverMode::Incremental), run(SolverMode::Incremental));
        assert_eq!(run(SolverMode::Incremental), run(SolverMode::Full));
    }

    #[test]
    fn ecdf_validates_and_samples_in_range() {
        assert!(FlowSizeEcdf::new(&[(0.0, 10)]).is_err());
        assert!(FlowSizeEcdf::new(&[(0.1, 10), (1.0, 20)]).is_err());
        assert!(FlowSizeEcdf::new(&[(0.0, 10), (0.5, 5), (1.0, 20)]).is_err());
        let e = FlowSizeEcdf::uniform(1_000, 9_000).unwrap();
        assert!((e.mean_bytes() - 5_000.0).abs() < 1e-9);
        let mut rng = Rng::seed_from_u64(7);
        for _ in 0..200 {
            let s = e.sample(&mut rng);
            assert!((1_000..=9_000).contains(&s), "{s}");
        }
        let ws = FlowSizeEcdf::web_search();
        let dm = FlowSizeEcdf::data_mining();
        assert!(dm.mean_bytes() > ws.mean_bytes());
    }

    #[test]
    fn synthesis_is_deterministic_per_spec() {
        let tree = FatTree::build(4).unwrap();
        let ecdf = FlowSizeEcdf::web_search();
        let spec = WorkloadSpec::new(42, 64, 0.5);
        let a = synth_fabric_workload(&tree, &ecdf, &spec).unwrap();
        let b = synth_fabric_workload(&tree, &ecdf, &spec).unwrap();
        assert_eq!(a, b);
        let c = synth_fabric_workload(&tree, &ecdf, &WorkloadSpec::new(43, 64, 0.5)).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn synthesis_yields_valid_replayable_flows() {
        let tree = FatTree::build(4).unwrap();
        let ecdf = FlowSizeEcdf::uniform(10_000, 1_000_000).unwrap();
        let spec = WorkloadSpec { seed: 9, flows: 200, target_load: 0.6, locality_pct: 50, skew: 1.0 };
        let flows = synth_fabric_workload(&tree, &ecdf, &spec).unwrap();
        assert_eq!(flows.len(), 200);
        let hosts = tree.hosts();
        let mut last = crate::time::SimTime::ZERO;
        for f in &flows {
            assert_ne!(f.src, f.dst);
            assert!(hosts.contains(&f.src) && hosts.contains(&f.dst));
            assert!(f.arrival >= last, "arrivals must be nondecreasing");
            last = f.arrival;
        }
        // The set replays cleanly through the what-if kernel.
        let (topo, _) = tree.into_parts();
        let mut eng = crate::whatif::WhatIfEngine::from_topology(topo);
        let rep = eng.estimate(&flows).unwrap();
        assert!(rep.estimates.iter().all(|e| e.completed));
    }

    #[test]
    fn higher_target_load_packs_arrivals_tighter() {
        let tree = FatTree::build(4).unwrap();
        let ecdf = FlowSizeEcdf::web_search();
        let low = synth_fabric_workload(&tree, &ecdf, &WorkloadSpec::new(1, 128, 0.1)).unwrap();
        let high = synth_fabric_workload(&tree, &ecdf, &WorkloadSpec::new(1, 128, 0.9)).unwrap();
        let span = |v: &[WhatIfFlow]| v.last().unwrap().arrival.as_secs_f64();
        // 9x the offered load compresses the same flow count into
        // roughly a ninth of the time (same seed, same draws).
        assert!(span(&high) < span(&low) / 4.0, "{} vs {}", span(&high), span(&low));
    }

    #[test]
    fn generic_host_synthesis_handles_flat_lists() {
        let hosts: Vec<NodeId> = (0..5).map(NodeId).collect();
        let ecdf = FlowSizeEcdf::uniform(1_000, 2_000).unwrap();
        let spec = WorkloadSpec::new(3, 50, 0.4);
        let flows =
            synth_workload_over(&hosts, 1, 1, gbps(1.0), &ecdf, &spec).unwrap();
        assert_eq!(flows.len(), 50);
        for f in &flows {
            assert_ne!(f.src, f.dst);
        }
        assert!(synth_workload_over(&hosts[..1], 1, 1, gbps(1.0), &ecdf, &spec).is_err());
    }

    #[test]
    fn churn_audits_clean() {
        let mut c = FabricChurn::new(4, 16, 7, 50).unwrap();
        c.sim.enable_audit();
        for _ in 0..8 {
            c.step().unwrap();
        }
        assert!(c.sim.audit_violations().is_empty(), "{:?}", c.sim.audit_violations());
    }
}
