//! Oracle collector: perfect, instantaneous knowledge of the simulator.
//!
//! Not part of the paper's system — it exists as the *ground truth*
//! baseline for ablations (how much does SNMP sampling noise, Counter32
//! wrap, or prediction error cost?) and for constructing hand-annotated
//! examples like Fig 1, where the information (switch internal bandwidth)
//! is not exposed through any MIB.

use crate::collector::{Collector, SampleHistory, Snapshot};
use crate::error::CoreResult;
use remos_net::topology::{DirLink, Topology};
use remos_net::SimTime;
use remos_snmp::sim::SharedSim;
use std::sync::Arc;

/// Collector that reads the simulator state directly.
pub struct OracleCollector {
    sim: SharedSim,
    history: SampleHistory,
    last_rates: Option<SimTime>,
    topology_epoch: u64,
}

impl OracleCollector {
    /// New oracle over the shared simulator.
    pub fn new(sim: SharedSim) -> Self {
        OracleCollector {
            sim,
            history: SampleHistory::default(),
            last_rates: None,
            topology_epoch: 0,
        }
    }
}

impl Collector for OracleCollector {
    fn refresh_topology(&mut self) -> CoreResult<()> {
        self.topology_epoch += 1;
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
        let mut sim = self.sim.lock();
        let t = sim.now();
        let n = sim.topology().dir_link_count();
        let util: Arc<[f64]> = (0..n).map(|i| sim.dirlink_rate(DirLink::from_index(i))).collect();
        let interval = match self.last_rates {
            Some(prev) => t.saturating_since(prev),
            None => remos_net::SimDuration::ZERO,
        };
        self.last_rates = Some(t);
        self.history.push(Snapshot::fresh(t, interval, util));
        Ok(true)
    }

    fn history(&self) -> &SampleHistory {
        &self.history
    }

    fn now(&self) -> CoreResult<SimTime> {
        Ok(self.sim.read().now())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use remos_net::flow::FlowParams;
    use remos_net::{mbps, SimDuration, Simulator, TopologyBuilder};
    use remos_snmp::sim::share;

    #[test]
    fn oracle_sees_instantaneous_rates() {
        let mut b = TopologyBuilder::new();
        let h1 = b.compute("h1");
        let h2 = b.compute("h2");
        let r = b.network("r");
        b.link(h1, r, mbps(100.0), SimDuration::ZERO).unwrap();
        b.link(r, h2, mbps(100.0), SimDuration::ZERO).unwrap();
        let sim = share(Simulator::new(b.build().unwrap()).unwrap());
        sim.lock().start_flow(FlowParams::cbr(h1, h2, mbps(30.0))).unwrap();

        let mut c = OracleCollector::new(sim);
        assert!(c.poll().unwrap());
        let snap = c.history().latest().unwrap();
        let topo = c.topology().unwrap();
        let (link, _) = topo.neighbors(h1)[0];
        let d = DirLink { link, dir: topo.link(link).direction_from(h1) };
        assert!((snap.util_of(d) - mbps(30.0)).abs() < 1.0);
        // Host info comes straight from the topology.
        let hi = c.host_info("h1").unwrap();
        assert!(hi.compute_flops > 0.0);
        assert!(c.host_info("r").is_err());
        assert!(c.host_info("zz").is_err());
    }
}
