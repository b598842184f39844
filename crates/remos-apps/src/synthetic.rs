//! Competing-traffic scenarios (§8.2–8.3).
//!
//! Table 2 uses "a synthetic program that generates significant traffic
//! between nodes m-6 and m-8"; Table 3 adds non-interfering and two
//! interfering placements. Each scenario registers background traffic
//! processes on the shared simulator.

use remos_net::traffic::{GreedyTraffic, OnOffTraffic};
use remos_net::{NetError, SimDuration, SimTime};
use remos_snmp::sim::SharedSim;

/// How many parallel greedy streams the synthetic traffic program opens.
/// With `n` streams, a competing application flow's max-min share of a
/// shared link drops to `1/(n+1)` — "significant traffic".
pub const DEFAULT_TRAFFIC_STREAMS: usize = 8;

/// A named background-traffic scenario.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrafficScenario {
    /// No background traffic.
    None,
    /// Traffic confined to the aspen region (m-1 → m-2): does not
    /// interfere with programs on {m-4..m-8} (Table 3 "Non-interfering").
    NonInterfering,
    /// The Table 2 / Fig 4 traffic: m-6 → m-8 over
    /// timberline → whiteface (Table 3 "Interfering Traffic-1").
    Interfering1,
    /// Traffic pinning the whiteface region *and* the
    /// timberline→whiteface backbone from the other side: m-8 → m-5
    /// (Table 3 "Interfering Traffic-2" — loads the initial region but
    /// leaves aspen completely clean, so an adaptive program escapes
    /// fully).
    Interfering2,
}

impl TrafficScenario {
    /// The (src, dst) host pair the scenario loads, if any.
    pub fn route(self) -> Option<(&'static str, &'static str)> {
        match self {
            TrafficScenario::None => None,
            TrafficScenario::NonInterfering => Some(("m-1", "m-2")),
            TrafficScenario::Interfering1 => Some(("m-6", "m-8")),
            TrafficScenario::Interfering2 => Some(("m-8", "m-5")),
        }
    }

    /// All scenarios, in Table 3 column order.
    pub fn all() -> [TrafficScenario; 4] {
        [
            TrafficScenario::None,
            TrafficScenario::NonInterfering,
            TrafficScenario::Interfering1,
            TrafficScenario::Interfering2,
        ]
    }

    /// Table 3 column label.
    pub fn label(self) -> &'static str {
        match self {
            TrafficScenario::None => "No Traffic",
            TrafficScenario::NonInterfering => "Non-interfering Traffic",
            TrafficScenario::Interfering1 => "Interfering Traffic-1",
            TrafficScenario::Interfering2 => "Interfering Traffic-2",
        }
    }
}

/// Install `streams` parallel greedy flows between two named hosts,
/// active from `start` until `stop` (`None` = forever).
pub fn add_greedy_traffic(
    sim: &SharedSim,
    src: &str,
    dst: &str,
    streams: usize,
    start: SimTime,
    stop: Option<SimTime>,
) -> Result<(), NetError> {
    let mut s = sim.lock();
    let topo = s.topology_arc();
    let src = topo.lookup(src)?;
    let dst = topo.lookup(dst)?;
    s.add_process(start, Box::new(GreedyTraffic::new(src, dst, streams, stop)));
    Ok(())
}

/// Install a scenario with the default stream count, active immediately
/// and forever.
pub fn install_scenario(sim: &SharedSim, scenario: TrafficScenario) -> Result<(), NetError> {
    if let Some((src, dst)) = scenario.route() {
        add_greedy_traffic(sim, src, dst, DEFAULT_TRAFFIC_STREAMS, SimTime::ZERO, None)?;
    }
    Ok(())
}

/// Install bursty (exponential on/off) cross-traffic between two hosts —
/// the §4.4 motivation for quartile reporting.
pub fn add_bursty_traffic(
    sim: &SharedSim,
    src: &str,
    dst: &str,
    mean_on: SimDuration,
    mean_off: SimDuration,
    seed: u64,
) -> Result<(), NetError> {
    let mut s = sim.lock();
    let topo = s.topology_arc();
    let src = topo.lookup(src)?;
    let dst = topo.lookup(dst)?;
    s.add_process(
        SimTime::ZERO,
        Box::new(OnOffTraffic::new(src, dst, mean_on, mean_off, None, seed)),
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testbed::cmu_testbed;
    use remos_net::flow::FlowParams;
    use remos_net::{mbps, Simulator};
    use remos_snmp::sim::share;

    fn sim() -> SharedSim {
        share(Simulator::new(cmu_testbed()).unwrap())
    }

    #[test]
    fn interfering1_loads_the_fig4_route() {
        let s = sim();
        install_scenario(&s, TrafficScenario::Interfering1).unwrap();
        let mut guard = s.lock();
        guard.run_for(SimDuration::from_secs(1)).unwrap();
        // An app flow m-4 -> m-8 shares timberline->whiteface with 8
        // greedy streams: it gets ~100/9 Mbps.
        let topo = guard.topology_arc();
        let m4 = topo.lookup("m-4").unwrap();
        let m8 = topo.lookup("m-8").unwrap();
        let f = guard.start_flow(FlowParams::greedy(m4, m8)).unwrap();
        let rate = guard.flow_rate(f).unwrap();
        assert!((rate - mbps(100.0 / 9.0)).abs() < mbps(0.5), "{rate}");
    }

    #[test]
    fn noninterfering_leaves_timberline_clean() {
        let s = sim();
        install_scenario(&s, TrafficScenario::NonInterfering).unwrap();
        let mut guard = s.lock();
        guard.run_for(SimDuration::from_secs(1)).unwrap();
        let topo = guard.topology_arc();
        let m4 = topo.lookup("m-4").unwrap();
        let m5 = topo.lookup("m-5").unwrap();
        let f = guard.start_flow(FlowParams::greedy(m4, m5)).unwrap();
        assert!((guard.flow_rate(f).unwrap() - mbps(100.0)).abs() < 1.0);
    }

    #[test]
    fn scenario_none_installs_nothing() {
        let s = sim();
        install_scenario(&s, TrafficScenario::None).unwrap();
        let mut guard = s.lock();
        guard.run_for(SimDuration::from_secs(1)).unwrap();
        assert_eq!(guard.active_flow_count(), 0);
    }

    #[test]
    fn scenario_metadata() {
        assert_eq!(TrafficScenario::all().len(), 4);
        assert_eq!(TrafficScenario::Interfering1.route(), Some(("m-6", "m-8")));
        assert!(TrafficScenario::None.route().is_none());
        assert_eq!(TrafficScenario::Interfering2.label(), "Interfering Traffic-2");
    }

    #[test]
    fn bursty_traffic_runs() {
        let s = sim();
        add_bursty_traffic(
            &s,
            "m-6",
            "m-8",
            SimDuration::from_millis(500),
            SimDuration::from_millis(500),
            7,
        )
        .unwrap();
        let mut guard = s.lock();
        guard.run_for(SimDuration::from_secs(10)).unwrap();
        let topo = guard.topology_arc();
        let m6 = topo.lookup("m-6").unwrap();
        let (link, _) = topo.neighbors(m6)[0];
        let octets = guard.iface_out_octets(m6, link);
        assert!(octets > 0.0);
    }
}
