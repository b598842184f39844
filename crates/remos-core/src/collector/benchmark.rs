//! The benchmark collector (§5): active probing.
//!
//! "We also have a Collector that uses benchmarks to probe networks that
//! do not respond to our SNMP queries (e.g. wide-area networks run by
//! commercial ISPs)."
//!
//! The probed region is opaque, so the view this collector produces is a
//! *logical clique*: one direct logical link per host pair, whose
//! available bandwidth is the throughput a short bulk transfer achieved.
//! Probes are intrusive — they inject real traffic and consume real
//! (simulated) time, which is exactly the practical trade-off against
//! passive SNMP polling; the bench harness quantifies it.

use crate::collector::{Collector, SampleHistory, Snapshot};
use crate::error::{CoreResult, RemosError};
use remos_net::flow::{FlowParams, FlowTag};
use remos_net::topology::{NodeId, NodeKind, Topology, TopologyBuilder};
use remos_net::{Bps, SimDuration, SimTime};
use remos_snmp::sim::SharedSim;
#[expect(clippy::disallowed_types, reason = "name-to-id lookups only; nothing iterates it")]
use std::collections::HashMap;
use std::sync::Arc;

/// Configuration of a [`BenchmarkCollector`].
#[derive(Clone, Debug)]
pub struct BenchmarkCollectorConfig {
    /// Bytes per probe transfer. Larger probes average longer and disturb
    /// the network more.
    pub probe_bytes: u64,
    /// Assumed static capacity of every pair (the probed cloud's access
    /// rate); available bandwidth is reported relative to this.
    pub assumed_capacity: Bps,
    /// Fallback pair latency when ping measurement is disabled.
    pub assumed_latency: SimDuration,
    /// Measure per-pair one-way latency with a ping at discovery time
    /// (otherwise every pair is annotated with `assumed_latency`).
    pub measure_latency: bool,
    /// Sample history bound.
    pub history_len: usize,
}

impl Default for BenchmarkCollectorConfig {
    fn default() -> Self {
        BenchmarkCollectorConfig {
            probe_bytes: 256 * 1024,
            assumed_capacity: remos_net::mbps(100.0),
            assumed_latency: SimDuration::from_micros(300),
            measure_latency: true,
            history_len: crate::collector::DEFAULT_HISTORY_LEN,
        }
    }
}

/// Active-probing collector over a set of hosts.
pub struct BenchmarkCollector {
    sim: SharedSim,
    hosts: Vec<String>,
    cfg: BenchmarkCollectorConfig,
    /// The logical clique; link order = pair order.
    topo: Option<Arc<Topology>>,
    /// Pair (i, j), i < j, per clique link.
    pairs: Vec<(String, String)>,
    history: SampleHistory,
    topology_epoch: u64,
}

impl BenchmarkCollector {
    /// New collector probing between `hosts` (names must exist in the
    /// simulated network).
    pub fn new(sim: SharedSim, hosts: Vec<String>, cfg: BenchmarkCollectorConfig) -> Self {
        let mut hosts = hosts;
        hosts.sort();
        hosts.dedup();
        let history = SampleHistory::new(cfg.history_len);
        BenchmarkCollector {
            sim,
            hosts,
            cfg,
            topo: None,
            pairs: Vec::new(),
            history,
            topology_epoch: 0,
        }
    }

    /// One-way latency measured by a ping between two named hosts (half
    /// the round trip a real `ping` would report).
    fn ping(&self, src: &str, dst: &str) -> CoreResult<SimDuration> {
        let sim = self.sim.lock();
        let topo = sim.topology_arc();
        let s = topo.lookup(src).map_err(RemosError::from)?;
        let d = topo.lookup(dst).map_err(RemosError::from)?;
        let path = sim
            .routing()
            .path(&topo, s, d)
            .map_err(RemosError::from)?;
        Ok(path.latency(&topo))
    }

    /// Throughput achieved by one probe transfer from `src` to `dst`
    /// (simulated node ids), in bits/s.
    fn probe(&self, src: NodeId, dst: NodeId) -> CoreResult<Bps> {
        let mut sim = self.sim.lock();
        let f = sim
            .start_flow(
                FlowParams::bulk(src, dst, self.cfg.probe_bytes).with_tag(FlowTag::PROBE),
            )
            .map_err(RemosError::from)?;
        let recs = sim.run_until_flows_complete(&[f]).map_err(RemosError::from)?;
        Ok(recs[0].mean_rate())
    }
}

impl Collector for BenchmarkCollector {
    #[expect(clippy::disallowed_types, reason = "name-to-id lookups only; nothing iterates it")]
    fn refresh_topology(&mut self) -> CoreResult<()> {
        if self.hosts.len() < 2 {
            return Err(RemosError::Collector("need at least two hosts to probe".into()));
        }
        // Validate the hosts exist and are compute nodes.
        {
            let sim = self.sim.lock();
            let topo = sim.topology();
            for h in &self.hosts {
                let id = topo.lookup(h).map_err(RemosError::from)?;
                if topo.node(id).kind != NodeKind::Compute {
                    return Err(RemosError::InvalidQuery(
                        crate::error::InvalidQueryKind::NotAHost { node: h.clone() },
                    ));
                }
            }
        }
        let mut b = TopologyBuilder::new();
        let ids: HashMap<&str, NodeId> = self
            .hosts
            .iter()
            // The probed region is opaque: no host resources are observable.
            .map(|h| (h.as_str(), b.compute_with_host(h, None)))
            .collect();
        self.pairs.clear();
        for i in 0..self.hosts.len() {
            for j in (i + 1)..self.hosts.len() {
                // A ping measures the pair's one-way latency; the cloud is
                // otherwise opaque so that is the only structure we learn.
                let latency = if self.cfg.measure_latency {
                    self.ping(&self.hosts[i], &self.hosts[j])?
                } else {
                    self.cfg.assumed_latency
                };
                b.link(
                    ids[self.hosts[i].as_str()],
                    ids[self.hosts[j].as_str()],
                    self.cfg.assumed_capacity,
                    latency,
                )
                .map_err(RemosError::from)?;
                self.pairs.push((self.hosts[i].clone(), self.hosts[j].clone()));
            }
        }
        self.topo = Some(Arc::new(b.build().map_err(RemosError::from)?));
        self.topology_epoch += 1;
        self.history.clear();
        Ok(())
    }

    fn topology_epoch(&self) -> u64 {
        self.topology_epoch
    }

    fn topology(&self) -> CoreResult<Arc<Topology>> {
        self.topo
            .as_ref()
            .map(Arc::clone)
            .ok_or_else(|| RemosError::Collector("topology not discovered yet".into()))
    }

    fn poll(&mut self) -> CoreResult<bool> {
        if self.topo.is_none() {
            self.refresh_topology()?;
        }
        let start = self.sim.lock().now();
        // Probe each ordered direction of each pair sequentially so probes
        // do not interfere with each other.
        let real_ids: Vec<(NodeId, NodeId)> = {
            let sim = self.sim.lock();
            let topo = sim.topology();
            self.pairs
                .iter()
                .map(|(a, c)| {
                    Ok((
                        topo.lookup(a).map_err(RemosError::from)?,
                        topo.lookup(c).map_err(RemosError::from)?,
                    ))
                })
                .collect::<CoreResult<_>>()?
        };
        let mut util = vec![0.0; self.pairs.len() * 2];
        for (li, &(a, c)) in real_ids.iter().enumerate() {
            let fwd = self.probe(a, c)?;
            let rev = self.probe(c, a)?;
            // Report as utilization relative to the assumed capacity, so
            // the modeler's `capacity - util` recovers the measurement.
            util[li * 2] = (self.cfg.assumed_capacity - fwd).max(0.0);
            util[li * 2 + 1] = (self.cfg.assumed_capacity - rev).max(0.0);
        }
        let end = self.sim.lock().now();
        self.history.push(Snapshot::fresh(end, end.saturating_since(start), util));
        Ok(true)
    }

    fn history(&self) -> &SampleHistory {
        &self.history
    }

    fn now(&self) -> CoreResult<SimTime> {
        Ok(self.sim.lock().now())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use remos_net::topology::DirLink;
    use remos_net::{mbps, Simulator, TopologyBuilder};
    use remos_snmp::sim::share;

    fn testnet() -> SharedSim {
        let mut b = TopologyBuilder::new();
        let h1 = b.compute("m-1");
        let h2 = b.compute("m-2");
        let h3 = b.compute("m-3");
        let r = b.network("r");
        for h in [h1, h2, h3] {
            b.link(h, r, mbps(100.0), SimDuration::from_micros(50)).unwrap();
        }
        share(Simulator::new(b.build().unwrap()).unwrap())
    }

    #[test]
    fn builds_clique_view() {
        let sim = testnet();
        let mut c = BenchmarkCollector::new(
            sim,
            vec!["m-1".into(), "m-2".into(), "m-3".into()],
            BenchmarkCollectorConfig::default(),
        );
        c.refresh_topology().unwrap();
        let t = c.topology().unwrap();
        assert_eq!(t.node_count(), 3);
        assert_eq!(t.link_count(), 3); // 3 choose 2
    }

    #[test]
    fn probes_measure_idle_capacity() {
        let sim = testnet();
        let mut c = BenchmarkCollector::new(
            sim,
            vec!["m-1".into(), "m-2".into()],
            BenchmarkCollectorConfig::default(),
        );
        assert!(c.poll().unwrap());
        let snap = c.history().latest().unwrap();
        // Idle network: probes run at full 100 Mbps, so reported
        // utilization is ~0 in both directions.
        assert!(snap.util[0] < mbps(1.0), "{}", snap.util[0]);
        assert!(snap.util[1] < mbps(1.0));
        // Probing consumed simulated time.
        assert!(snap.interval > SimDuration::ZERO);
    }

    #[test]
    fn probes_see_background_load() {
        let sim = testnet();
        {
            let mut s = sim.lock();
            let topo = s.topology_arc();
            let h1 = topo.lookup("m-1").unwrap();
            let h2 = topo.lookup("m-2").unwrap();
            // 4 greedy background flows squeeze the probe to ~20 Mbps.
            for _ in 0..4 {
                s.start_flow(FlowParams::greedy(h1, h2)).unwrap();
            }
        }
        let mut c = BenchmarkCollector::new(
            sim,
            vec!["m-1".into(), "m-2".into()],
            BenchmarkCollectorConfig::default(),
        );
        c.poll().unwrap();
        let snap = c.history().latest().unwrap();
        let avail_fwd = mbps(100.0) - snap.util[0];
        assert!(
            (avail_fwd - mbps(20.0)).abs() < mbps(2.0),
            "measured avail {avail_fwd}"
        );
        // Reverse direction is idle.
        let avail_rev = mbps(100.0) - snap.util[1];
        assert!(avail_rev > mbps(95.0));
        let _ = DirLink::from_index(0);
    }

    #[test]
    fn ping_measures_per_pair_latency() {
        let sim = testnet();
        let mut c = BenchmarkCollector::new(
            sim,
            vec!["m-1".into(), "m-2".into()],
            BenchmarkCollectorConfig::default(),
        );
        c.refresh_topology().unwrap();
        let t = c.topology().unwrap();
        // Two hops of 50 µs each through the router.
        let (link, _) = t.neighbors(t.lookup("m-1").unwrap())[0];
        assert_eq!(t.link(link).latency, SimDuration::from_micros(100));

        // With measurement off, the fallback constant is used.
        let sim2 = testnet();
        let mut c2 = BenchmarkCollector::new(
            sim2,
            vec!["m-1".into(), "m-2".into()],
            BenchmarkCollectorConfig { measure_latency: false, ..Default::default() },
        );
        c2.refresh_topology().unwrap();
        let t2 = c2.topology().unwrap();
        let (link2, _) = t2.neighbors(t2.lookup("m-1").unwrap())[0];
        assert_eq!(t2.link(link2).latency, SimDuration::from_micros(300));
    }

    #[test]
    fn rejects_router_hosts_and_tiny_sets() {
        let sim = testnet();
        let mut c = BenchmarkCollector::new(
            Arc::clone(&sim),
            vec!["m-1".into(), "r".into()],
            BenchmarkCollectorConfig::default(),
        );
        assert!(c.refresh_topology().is_err());
        let mut c2 = BenchmarkCollector::new(
            sim,
            vec!["m-1".into()],
            BenchmarkCollectorConfig::default(),
        );
        assert!(c2.refresh_topology().is_err());
    }
}
