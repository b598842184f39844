//! Region-scoped shard collectors over a shared simulated fabric.
//!
//! The paper's §5 anticipates "multiple cooperating Collectors" for
//! large networks. [`ShardCollector`] is the sharded-back-end half of
//! that story: each shard owns a disjoint *region* (a set of directed
//! interfaces) of one shared fabric and measures only those, reading the
//! simulator through `SimCell::read` and paying for an exclusive lock
//! only when the rates still need settling. A shard is a sensor, not a
//! store: it holds exactly its latest sample, and the
//! [`MultiCollector`](crate::collector::multi::MultiCollector) that
//! federates the shards owns the time series.
//!
//! A poll re-sums the region only if the engine has solved since the
//! held sample was read ([`Simulator::rates_epoch`] moved). Otherwise it
//! is a *repeat*: the sample's `t`/`interval` move in place and
//! [`Collector::generation`] — a values generation here — stands still,
//! which is how the federation knows to skip the shard. Sound because
//! an interface's rate is a sum over its members' solved rates, both
//! change only through a solve, and polls read settled rates.
//!
//! A shard's sample is its region: entry `k` of each plane is the
//! interface at [`Collector::coverage`]`()[k]`. A re-read writes the util
//! plane the previous re-read displaced (its history's spare), so a shard
//! alternates between two util planes. Its all-`Fresh` quality plane is
//! built with the shard and never rewritten, so the federation, which
//! re-ages a child's quality only when that plane's pointer or the
//! child's lag moves, re-ages a live shard never.
//!
//! Because every shard reports the *same* full-fabric topology (its
//! region is declared through [`Collector::coverage`], not by cutting
//! the graph), the federation's merged view is the fabric's own
//! `Arc<Topology>` — node ids, routing, and therefore graph digests are
//! bit-identical to a monolithic collector over the same simulator.
//!
//! [`shard_fabric`] builds the canonical partition for a fat-tree:
//! per-pod-group shards owning the host and edge-aggregation links of
//! their pods, plus one WAN/spine shard owning every
//! aggregation-core link.

use crate::collector::{Collector, SampleHistory, Snapshot};
use crate::error::{CoreResult, RemosError};
use crate::quality::DataQuality;
use remos_net::topology::{DirLink, Topology};
use remos_net::{Direction, FatTree, SimDuration, SimTime, Simulator};
use remos_obs::{Counter, Obs};
use remos_snmp::sim::SharedSim;
use std::sync::Arc;

/// Collector measuring one region of a shared simulated fabric.
///
/// Only meaningful as a child of a
/// [`MultiCollector`](crate::collector::multi::MultiCollector): its
/// samples are in region order, so the modeler refuses to answer from a
/// bare shard, and its history holds one sample.
pub struct ShardCollector {
    sim: SharedSim,
    label: String,
    /// Directed-interface indices this shard measures, sorted ascending.
    region: Vec<u32>,
    /// Every sample's quality plane: the region, all `Fresh`.
    quality: Arc<[DataQuality]>,
    /// The latest sample only (depth 1); the util plane a re-read
    /// displaces is its spare, rewritten by the next re-read.
    history: SampleHistory,
    last_rates: Option<SimTime>,
    /// [`Simulator::rates_epoch`] the held sample's values were read at.
    read_epoch: u64,
    /// Values generation: bumped by a re-read or a rediscovery, not by a
    /// repeat. This is the shard's [`Collector::generation`].
    values_gen: u64,
    topology_epoch: u64,
    polls: Counter,
    repeats: Counter,
}

impl ShardCollector {
    /// Shard over `sim` measuring exactly `region` (directed-interface
    /// indices of the simulator's topology). The region is sorted and
    /// deduplicated; indices beyond the topology are rejected.
    pub fn new(sim: SharedSim, label: &str, mut region: Vec<u32>) -> CoreResult<ShardCollector> {
        region.sort_unstable();
        region.dedup();
        let n = sim.read().topology().dir_link_count();
        if region.last().is_some_and(|&i| i as usize >= n) {
            return Err(RemosError::Collector(format!(
                "shard {label}: region index out of range (topology has {n} directed interfaces)"
            )));
        }
        Ok(ShardCollector {
            sim,
            label: label.to_string(),
            quality: std::iter::repeat_n(DataQuality::Fresh, region.len()).collect(),
            region,
            history: SampleHistory::new(1),
            last_rates: None,
            read_epoch: 0,
            values_gen: 0,
            topology_epoch: 0,
            polls: Counter::default(),
            repeats: Counter::default(),
        })
    }

    /// The measured region (sorted directed-interface indices).
    pub fn region(&self) -> &[u32] {
        &self.region
    }

    /// Read one settled sample of the region, in region order.
    fn sample(&mut self, sim: &Simulator) -> CoreResult<bool> {
        let t = sim.now();
        let n = sim.topology().dir_link_count();
        if self.region.last().is_some_and(|&i| i as usize >= n) {
            return Err(RemosError::Collector(format!(
                "shard {}: region outgrew the topology ({n} directed interfaces)",
                self.label
            )));
        }
        let interval = match self.last_rates {
            Some(prev) => t.saturating_since(prev),
            None => SimDuration::ZERO,
        };
        self.last_rates = Some(t);
        self.polls.inc();
        // No solve since the held sample was read: re-summing the region
        // would reproduce its values bit for bit, so only its stamp moves.
        let epoch = sim.rates_epoch();
        if epoch == self.read_epoch && self.history.restamp_latest(t, interval) {
            self.repeats.inc();
            return Ok(true);
        }
        (self.read_epoch, self.values_gen) = (epoch, self.values_gen + 1);
        // Each entry is the engine's membership sum for that interface,
        // the same bits a monolithic `dirlink_rate` read returns, written
        // into the util plane the last re-read displaced (the federation
        // copies a shard's util and never holds it).
        let fresh = || self.region.iter().map(|_| 0.0).collect();
        let mut util = self.history.take_spare_util().unwrap_or_else(fresh);
        for (u, &i) in Arc::make_mut(&mut util).iter_mut().zip(&self.region) {
            *u = sim.dirlink_rate_settled(DirLink::from_index(i as usize));
        }
        self.history.push(Snapshot { t, interval, util, quality: Arc::clone(&self.quality) });
        Ok(true)
    }
}

impl Collector for ShardCollector {
    fn refresh_topology(&mut self) -> CoreResult<()> {
        self.topology_epoch += 1;
        self.values_gen += 1;
        self.history.clear();
        Ok(())
    }

    fn topology_epoch(&self) -> u64 {
        self.topology_epoch
    }

    fn topology(&self) -> CoreResult<Arc<Topology>> {
        Ok(self.sim.read().topology_arc())
    }

    fn poll(&mut self) -> CoreResult<bool> {
        let sim = Arc::clone(&self.sim);
        {
            let s = sim.read();
            if s.rates_settled() {
                return self.sample(&s);
            }
        }
        // Someone has to pay for the solve; the first shard to arrive
        // does, the rest find the rates settled. The read guard is
        // dropped before the write request (no reader-to-writer upgrade)
        // and settling is idempotent, so the race is harmless.
        sim.lock().settle_rates();
        let s = sim.read();
        self.sample(&s)
    }

    /// The latest sample alone; the federation keeps the time series.
    fn history(&self) -> &SampleHistory {
        &self.history
    }

    /// Moves only when the held sample's values may have: see `sample`.
    fn generation(&self) -> u64 {
        self.values_gen
    }

    fn now(&self) -> CoreResult<SimTime> {
        Ok(self.sim.read().now())
    }

    fn set_obs(&mut self, obs: &Obs) {
        self.polls = obs.counter("shard_polls_total");
        self.repeats = obs.counter("shard_repeats_total");
    }

    fn describe(&self) -> String {
        format!("shard({}, {} ifaces)", self.label, self.region.len())
    }

    fn coverage(&self) -> Option<&[u32]> {
        Some(&self.region)
    }
}

/// Split a fat-tree fabric into `pod_groups` pod-group shards (each
/// owning the host and edge-aggregation links of a contiguous pod
/// range) plus one WAN/spine shard owning every aggregation-core link.
/// The regions tile the fabric's directed interfaces exactly once, so
/// the federation's merged view covers every link Fresh.
///
/// `sim` must simulate the same topology `tree` describes (the shards
/// read rates by directed-interface index).
pub fn shard_fabric(
    tree: &FatTree,
    sim: &SharedSim,
    pod_groups: usize,
) -> CoreResult<Vec<ShardCollector>> {
    let pods = tree.pods();
    let groups = pod_groups.clamp(1, pods);
    let topo = tree.topology();
    if sim.read().topology().dir_link_count() != topo.dir_link_count() {
        return Err(RemosError::Collector(
            "shard_fabric: simulator topology does not match the fat-tree".into(),
        ));
    }
    let mut regions: Vec<Vec<u32>> = vec![Vec::new(); groups + 1];
    for l in topo.link_ids() {
        // Contiguous balanced pod->group map; core links go to the spine.
        let g = match tree.pod_of_link(l) {
            Some(pod) => pod * groups / pods,
            None => groups,
        };
        for dir in [Direction::AtoB, Direction::BtoA] {
            regions[g].push(DirLink { link: l, dir }.index() as u32);
        }
    }
    let mut out = Vec::with_capacity(groups + 1);
    for (g, region) in regions.into_iter().enumerate() {
        let label = if g == groups {
            "spine".to_string()
        } else {
            let lo = (g * pods).div_ceil(groups);
            let hi = ((g + 1) * pods).div_ceil(groups) - 1;
            format!("pods{lo}-{hi}")
        };
        out.push(ShardCollector::new(Arc::clone(sim), &label, region)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use remos_net::flow::FlowParams;
    use remos_snmp::sim::share;

    #[test]
    fn fabric_shards_tile_the_whole_fabric() {
        let tree = FatTree::build(4).unwrap();
        let n = tree.topology().dir_link_count();
        let sim = share(Simulator::new(FatTree::build(4).unwrap().into_parts().0).unwrap());
        let shards = shard_fabric(&tree, &sim, 3).unwrap();
        assert_eq!(shards.len(), 4, "3 pod groups + spine");
        let mut seen = vec![0u32; n];
        for s in &shards {
            for &i in s.region() {
                seen[i as usize] += 1;
            }
        }
        assert!(seen.iter().all(|&c| c == 1), "regions must tile every dirlink exactly once");
        assert!(shards.last().unwrap().describe().contains("spine"));
    }

    #[test]
    fn shard_reads_match_the_oracle_in_its_region() {
        let tree = FatTree::build(4).unwrap();
        let sim = share(Simulator::new(FatTree::build(4).unwrap().into_parts().0).unwrap());
        // Flows that share links (two senders into one host, one of them
        // cross-pod) so the per-link sums have more than one term.
        let flows: Vec<_> = [
            FlowParams::greedy(tree.host(0, 0), tree.host(0, 1)),
            FlowParams::greedy(tree.host(2, 1), tree.host(0, 1)),
            FlowParams::cbr(tree.host(0, 1), tree.host(3, 0), remos_net::mbps(30.0)),
        ]
        .into_iter()
        .map(|p| {
            let mut s = sim.lock();
            let path = s.routing().path(s.topology(), p.src, p.dst).unwrap();
            (s.start_flow(p).unwrap(), path)
        })
        .collect();
        sim.lock().run_for(SimDuration::from_millis(1)).unwrap();
        let mut shards = shard_fabric(&tree, &sim, 2).unwrap();
        for s in &mut shards {
            assert!(s.poll().unwrap());
        }
        // A shard's planes are its region in region order: entry `k` of
        // each equals bitwise both the simulator's own (exclusive-lock)
        // answer for `region[k]` and the reference both derive from one
        // index: a scan of the flow table in id order, rebuilt here from
        // routed paths.
        for shard in &shards {
            let (region, snap) = (shard.region(), shard.history().latest().unwrap());
            assert_eq!((snap.util.len(), snap.quality.len()), (region.len(), region.len()));
            for (k, &i) in region.iter().enumerate() {
                let d = DirLink::from_index(i as usize);
                let mut s = sim.lock();
                let scanned: f64 = flows
                    .iter()
                    .filter(|(_, path)| path.hops.contains(&d))
                    .map(|&(h, _)| s.flow_rate(h).unwrap())
                    .sum();
                assert_eq!(snap.util[k].to_bits(), scanned.to_bits(), "dirlink {i}");
                assert_eq!(snap.util[k].to_bits(), s.dirlink_rate(d).to_bits(), "dirlink {i}");
                assert_eq!(snap.quality[k], DataQuality::Fresh);
            }
        }
        // A shard is a sensor: it keeps its latest sample and nothing else.
        // Its quality plane is allocated once: a re-read after a solve and
        // a rediscovery publish the same one.
        let planes: Vec<_> =
            shards.iter().map(|s| Arc::clone(&s.history().latest().unwrap().quality)).collect();
        sim.lock().start_flow(FlowParams::greedy(tree.host(1, 0), tree.host(3, 1))).unwrap();
        for (s, plane) in shards.iter_mut().zip(&planes) {
            let gen = s.generation();
            assert!(s.poll().unwrap());
            assert!(s.generation() > gen, "{}: a solve must end the repeat", s.describe());
            assert!(Arc::ptr_eq(&s.history().latest().unwrap().quality, plane));
            s.refresh_topology().unwrap();
            assert!(s.poll().unwrap());
            assert_eq!(s.history().len(), 1);
            assert!(Arc::ptr_eq(&s.history().latest().unwrap().quality, plane));
        }
        // Host info and time answer like any full-view collector.
        assert!(shards[0].host_info("p0e0h0").is_ok());
        assert!(shards[0].host_info("c0x0").is_err());
        assert!(shards[0].now().is_ok());
    }

    fn bits(s: &Snapshot) -> (SimTime, SimDuration, Vec<u64>, Vec<DataQuality>) {
        (s.t, s.interval, s.util.iter().map(|u| u.to_bits()).collect(), s.quality.to_vec())
    }

    #[test]
    fn a_repeat_restamps_and_an_epoch_move_rereads() {
        let tree = FatTree::build(4).unwrap();
        let sim = share(Simulator::new(FatTree::build(4).unwrap().into_parts().0).unwrap());
        sim.lock().start_flow(FlowParams::greedy(tree.host(0, 0), tree.host(1, 0))).unwrap();
        let all: Vec<u32> = (0..tree.topology().dir_link_count() as u32).collect();
        let obs = Obs::new();
        let mut held = ShardCollector::new(Arc::clone(&sim), "held", all.clone()).unwrap();
        // The reference forgets its sample before every poll, so it always re-reads.
        let mut reread = ShardCollector::new(Arc::clone(&sim), "reread", all).unwrap();
        held.set_obs(&obs);
        let repeats = || obs.counter("shard_repeats_total").get();
        let step = |held: &mut ShardCollector, reread: &mut ShardCollector| {
            sim.lock().run_for(SimDuration::from_millis(250)).unwrap();
            reread.refresh_topology().unwrap();
            assert!(held.poll().unwrap() && reread.poll().unwrap());
            let (h, r) = (held.history().latest().unwrap(), reread.history().latest().unwrap());
            assert_eq!(bits(h), bits(r), "held sample differs from a re-read one");
            (held.generation(), held.history().generation())
        };

        let (gen0, hist0) = step(&mut held, &mut reread);
        assert_eq!(repeats(), 0, "the first poll has nothing to repeat");
        // Time passes, no solve runs: same values, new stamp. The values
        // generation stands still; the history's own counter (what a
        // decorator that does not forward `generation()` sees) moves.
        let (gen1, hist1) = step(&mut held, &mut reread);
        assert_eq!((repeats(), gen1), (1, gen0));
        assert!(hist1 > hist0);
        assert!(held.history().latest().unwrap().interval > SimDuration::ZERO);
        // A flow starts: the next settle solves, the epoch moves, the shard re-reads.
        sim.lock().start_flow(FlowParams::greedy(tree.host(2, 0), tree.host(1, 0))).unwrap();
        let (gen2, _) = step(&mut held, &mut reread);
        assert_eq!(repeats(), 1);
        assert!(gen2 > gen1);
        // Rediscovery drops the held sample: nothing to restamp, whatever the epoch.
        held.refresh_topology().unwrap();
        let (gen3, _) = step(&mut held, &mut reread);
        assert_eq!(repeats(), 1);
        assert!(gen3 > gen2);
        assert_eq!(obs.counter("shard_polls_total").get(), 4, "a repeat is still a poll");
    }

    #[test]
    fn shard_region_validation() {
        let sim = share(Simulator::new(FatTree::build(4).unwrap().into_parts().0).unwrap());
        let n = sim.read().topology().dir_link_count() as u32;
        assert!(ShardCollector::new(Arc::clone(&sim), "bad", vec![n]).is_err());
        let ok = ShardCollector::new(sim, "ok", vec![3, 1, 1, 2]).unwrap();
        assert_eq!(ok.region(), &[1, 2, 3]);
        assert_eq!(ok.coverage(), Some(&[1u32, 2, 3][..]));
    }
}
