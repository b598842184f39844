//! Simulator-backed agents.
//!
//! Materializes a MIB-II-style view from a shared
//! [`remos_net::Simulator`]: interface rows come from the node's incident
//! links (ifSpeed = link capacity, ifIn/OutOctets = wrapped Counter32
//! readings of the fluid model's exact octet totals), the system group
//! advertises the node's name and kind, and an LLDP-style neighbor table
//! exposes link-layer adjacency — the discovery source for the Remos
//! collector's topology queries.

use crate::agent::{Agent, MibProvider};
use crate::fault::FaultDirector;
use crate::mib::{Mib, SERVICES_HOST, SERVICES_ROUTER};
use crate::transport::SimTransport;
use remos_obs::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};
use remos_net::counters::to_counter32;
use remos_net::topology::{DirLink, NodeId, NodeKind};
use remos_net::{SimTime, Simulator};
use std::sync::Arc;

/// Reader-writer cell around the simulator. [`SimCell::lock`] keeps the
/// historical exclusive-access spelling every call site uses; the
/// [`SimCell::read`] path lets shard collectors sample *settled* rates
/// (`Simulator::dirlink_rate_settled`) through a shared guard, without
/// queueing behind other readers for the exclusive lock.
pub struct SimCell(RwLock<Simulator>);

impl SimCell {
    /// Exclusive access (mutation: flows, time, topology, lazy solves).
    pub fn lock(&self) -> RwLockWriteGuard<'_, Simulator> {
        self.0.write()
    }

    /// Shared read access for settled-state consumers. Callers must not
    /// hold a read guard while requesting [`SimCell::lock`] on the same
    /// thread (a classic reader-to-writer upgrade deadlock): drop the
    /// guard, write, then re-acquire.
    pub fn read(&self) -> RwLockReadGuard<'_, Simulator> {
        self.0.read()
    }
}

/// Shared handle to the simulated network.
pub type SharedSim = Arc<SimCell>;

/// The synthetic IPv4 address of a simulated node: `10.0.hi.lo` derived
/// from the node id (collision-free up to 50k nodes).
pub fn node_ip(node: NodeId) -> [u8; 4] {
    let id = node.0;
    [10, (id / (200 * 200)) as u8, ((id / 200) % 200) as u8, (id % 200 + 1) as u8]
}

/// Wrap a simulator for sharing between agents and the experiment harness.
pub fn share(sim: Simulator) -> SharedSim {
    Arc::new(SimCell(RwLock::new(sim)))
}

/// [`MibProvider`] reading one node's state from the shared simulator.
///
/// With a [`FaultDirector`] attached, the provider renders the MIB exactly
/// as a crashed-and-restarted agent would: `sysUpTime` counts from the
/// latest restart and octet counters restart from zero (the baselines are
/// captured lazily on first read after the restart).
pub struct SimMibProvider {
    sim: SharedSim,
    node: NodeId,
    faults: Option<Arc<FaultDirector>>,
}

impl SimMibProvider {
    /// Provider for `node`.
    pub fn new(sim: SharedSim, node: NodeId) -> Self {
        SimMibProvider { sim, node, faults: None }
    }

    /// Attach a fault director (crash semantics for uptime and counters).
    pub fn with_faults(mut self, director: Arc<FaultDirector>) -> Self {
        self.faults = Some(director);
        self
    }

    fn octets(&self, name: &str, now: SimTime, dl: DirLink, raw: f64) -> f64 {
        match &self.faults {
            Some(d) => d.adjust_octets(name, now, dl.index() as u64, raw),
            None => raw,
        }
    }
}

impl MibProvider for SimMibProvider {
    fn snapshot(&self) -> Mib {
        let sim = self.sim.lock();
        let topo = sim.topology();
        let node = topo.node(self.node);
        let mut mib = Mib::new();
        let services = match node.kind {
            NodeKind::Network => SERVICES_ROUTER,
            NodeKind::Compute => SERVICES_HOST,
        };
        let now = sim.now();
        let uptime_secs = match self.faults.as_ref().and_then(|d| d.uptime_base(&node.name, now)) {
            Some(base) => now.saturating_since(base).as_secs_f64(),
            None => now.as_secs_f64(),
        };
        let uptime_ticks = (uptime_secs * 100.0) as u32;
        let descr = match node.kind {
            NodeKind::Network => "remos-sim router",
            NodeKind::Compute => "remos-sim host",
        };
        mib.set_system_group(&node.name, descr, uptime_ticks, services);
        if let Some(h) = node.host {
            mib.set_host_resources(
                (h.memory_bytes / 1024) as i64,
                (h.compute_flops / 1e6).round() as u32,
            );
        }

        mib.set_own_address(node_ip(self.node));
        // The ipRouteTable the paper's collector walked: one row per
        // reachable destination, marked direct for adjacent nodes.
        for dest in topo.node_ids() {
            if dest == self.node {
                continue;
            }
            if let Some((link, next)) = sim.routing().next_hop(topo, self.node, dest) {
                if !sim.link_is_up(link) {
                    continue;
                }
                let if_index = topo
                    .neighbors(self.node)
                    .iter()
                    .position(|&(l, _)| l == link)
                    .map(|p| (p + 1) as u32)
                    .unwrap_or(0);
                mib.set_route_row(node_ip(dest), if_index, node_ip(next), next == dest);
            }
        }

        let neighbors = topo.neighbors(self.node);
        mib.set_if_number(neighbors.len() as u32);
        for (i, &(link_id, peer)) in neighbors.iter().enumerate() {
            let if_index = (i + 1) as u32;
            let link = topo.link(link_id);
            let up = sim.link_is_up(link_id);
            let out_dir = link.direction_from(self.node);
            let out_dl = DirLink { link: link_id, dir: out_dir };
            let in_dl = DirLink { link: link_id, dir: out_dir.reverse() };
            let out = self.octets(&node.name, now, out_dl, sim.dirlink_octets(out_dl));
            let inn = self.octets(&node.name, now, in_dl, sim.dirlink_octets(in_dl));
            let peer_name = &topo.node(peer).name;
            // ifSpeed is a Gauge32; 100 Mbps fits, faster links saturate the
            // gauge exactly like real MIB-II (ifHighSpeed exists for that,
            // but the testbed never needs it).
            let speed = link.capacity.min(u32::MAX as f64) as u32;
            mib.set_interface_row(
                if_index,
                &format!("to-{peer_name}"),
                speed,
                up,
                to_counter32(inn),
                to_counter32(out),
            );
            // Link-layer adjacency disappears while the link is down,
            // exactly like LLDP neighbor aging.
            if up {
                let peer_ifindex = topo
                    .neighbors(peer)
                    .iter()
                    .position(|&(l, _)| l == link_id)
                    .map(|p| (p + 1) as u32)
                    .unwrap_or(0);
                mib.set_neighbor_row(if_index, peer_name, peer_ifindex);
            }
        }
        mib
    }
}

/// SNMPv2 trap source: converts the simulator's link transitions into
/// linkDown/linkUp trap PDUs, attributed to the link's lower-named
/// endpoint agent (both ends would send in reality; one suffices for the
/// collector).
pub struct SimTrapSource {
    sim: SharedSim,
    community: String,
}

impl SimTrapSource {
    /// New trap source over the shared simulator.
    pub fn new(sim: SharedSim, community: &str) -> Self {
        SimTrapSource { sim, community: community.to_string() }
    }

    /// Drain pending transitions as `(agent name, trap PDU)` pairs.
    pub fn drain(&mut self) -> Vec<(String, crate::pdu::Pdu)> {
        use crate::oid::well_known;
        use crate::pdu::{ErrorStatus, Pdu, PduType, VarBind};
        use crate::value::Value;
        let mut sim = self.sim.lock();
        let topo = sim.topology_arc();
        sim.take_link_events()
            .into_iter()
            .map(|ev| {
                let link = topo.link(ev.link);
                let (a, b) = (&topo.node(link.a).name, &topo.node(link.b).name);
                let agent = if a <= b { a.clone() } else { b.clone() };
                let reporter = if a <= b { link.a } else { link.b };
                let if_index = topo
                    .neighbors(reporter)
                    .iter()
                    .position(|&(l, _)| l == ev.link)
                    .map(|p| (p + 1) as u32)
                    .unwrap_or(0);
                let trap_identity = if ev.up {
                    well_known::link_up_trap()
                } else {
                    well_known::link_down_trap()
                };
                let pdu = Pdu {
                    community: self.community.clone(),
                    pdu_type: PduType::TrapV2,
                    request_id: 0,
                    error_status: ErrorStatus::NoError,
                    error_index: 0,
                    max_repetitions: 0,
                    bindings: vec![
                        VarBind {
                            oid: well_known::sys_uptime(),
                            value: Value::TimeTicks((ev.t.as_secs_f64() * 100.0) as u32),
                        },
                        VarBind {
                            oid: well_known::snmp_trap_oid(),
                            value: Value::ObjectId(trap_identity),
                        },
                        VarBind {
                            oid: well_known::if_index().child([if_index]),
                            value: Value::Integer(if_index as i64),
                        },
                    ],
                };
                (agent, pdu)
            })
            .collect()
    }
}

/// Register one agent per node of the simulated topology (routers *and*
/// hosts — the paper's testbed ran NetBSD/FreeBSD machines as routers, all
/// SNMP-capable). Returns the agent names in node-id order.
pub fn register_all_agents(transport: &SimTransport, sim: &SharedSim, community: &str) -> Vec<String> {
    let topo = sim.lock().topology_arc();
    let mut names = Vec::new();
    for n in topo.node_ids() {
        let name = topo.node(n).name.clone();
        let provider = SimMibProvider::new(Arc::clone(sim), n);
        transport.register(Agent::new(&name, community, Box::new(provider)));
        names.push(name);
    }
    names
}

/// Like [`register_all_agents`], but every agent honors the fault
/// director's scripted crash/freeze/flaky plans: the transport gets a
/// simulated-time clock (so fault windows track the shared simulator) and
/// each MIB provider rewrites uptime/counters across restarts.
pub fn register_all_agents_with_faults(
    transport: &SimTransport,
    sim: &SharedSim,
    community: &str,
    director: &Arc<FaultDirector>,
) -> Vec<String> {
    let clock_sim = Arc::clone(sim);
    transport.set_clock(Box::new(move || clock_sim.lock().now()));
    transport.set_fault_director(Arc::clone(director));
    let topo = sim.lock().topology_arc();
    let mut names = Vec::new();
    for n in topo.node_ids() {
        let name = topo.node(n).name.clone();
        let provider = SimMibProvider::new(Arc::clone(sim), n).with_faults(Arc::clone(director));
        transport.register(Agent::new(&name, community, Box::new(provider)));
        names.push(name);
    }
    names
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oid::well_known;
    use crate::pdu::Pdu;
    use crate::transport::Transport;
    use crate::value::Value;
    use remos_net::flow::FlowParams;
    use remos_net::{mbps, SimDuration, TopologyBuilder};

    fn testnet() -> (SimTransport, SharedSim, NodeId, NodeId) {
        let mut b = TopologyBuilder::new();
        let h1 = b.compute("m-1");
        let h2 = b.compute("m-2");
        let r = b.network("aspen");
        b.link(h1, r, mbps(100.0), SimDuration::from_micros(50)).unwrap();
        b.link(r, h2, mbps(100.0), SimDuration::from_micros(50)).unwrap();
        let sim = share(Simulator::new(b.build().unwrap()).unwrap());
        let t = SimTransport::new();
        register_all_agents(&t, &sim, "public");
        (t, sim, h1, h2)
    }

    #[test]
    fn agents_registered_for_all_nodes() {
        let (t, _, _, _) = testnet();
        assert_eq!(t.agent_names(), vec!["aspen", "m-1", "m-2"]);
    }

    #[test]
    fn system_group_reflects_kind() {
        let (t, _, _, _) = testnet();
        let req = Pdu::get("public", 1, vec![well_known::sys_services()]);
        let router = t.request("aspen", &req).unwrap();
        assert_eq!(router.bindings[0].value, Value::Integer(SERVICES_ROUTER));
        let host = t.request("m-1", &req).unwrap();
        assert_eq!(host.bindings[0].value, Value::Integer(SERVICES_HOST));
    }

    #[test]
    fn counters_track_simulated_traffic() {
        let (t, sim, h1, h2) = testnet();
        {
            let mut s = sim.lock();
            s.start_flow(FlowParams::cbr(h1, h2, mbps(80.0))).unwrap();
            s.run_for(SimDuration::from_secs(1)).unwrap();
        }
        // aspen's interface #1 faces m-1: its ifInOctets saw 10 MB.
        let req = Pdu::get("public", 2, vec![well_known::if_in_octets().child([1])]);
        let resp = t.request("aspen", &req).unwrap();
        let octets = resp.bindings[0].value.as_counter32().unwrap();
        assert!((octets as f64 - 1e7).abs() < 16.0, "{octets}");
    }

    #[test]
    fn counter_wraps_like_counter32() {
        let (t, sim, h1, h2) = testnet();
        {
            let mut s = sim.lock();
            s.start_flow(FlowParams::cbr(h1, h2, mbps(100.0))).unwrap();
            // 100 Mbps for 400 s = 5e9 octets > 2^32: wraps once.
            s.run_for(SimDuration::from_secs(400)).unwrap();
        }
        let req = Pdu::get("public", 3, vec![well_known::if_in_octets().child([1])]);
        let resp = t.request("aspen", &req).unwrap();
        let octets = resp.bindings[0].value.as_counter32().unwrap() as u64;
        let expected = 5_000_000_000u64 % (1 << 32);
        assert!((octets as i64 - expected as i64).abs() < 16, "{octets} vs {expected}");
    }

    #[test]
    fn neighbor_table_exposes_adjacency() {
        let (t, _, _, _) = testnet();
        let req = Pdu::get_bulk("public", 4, vec![well_known::neighbor_name()], 8);
        let resp = t.request("aspen", &req).unwrap();
        let names: Vec<&str> = resp
            .bindings
            .iter()
            .filter(|b| well_known::neighbor_name().is_prefix_of(&b.oid))
            .filter_map(|b| b.value.as_text())
            .collect();
        assert_eq!(names, vec!["m-1", "m-2"]);
    }

    #[test]
    fn ifspeed_reports_capacity() {
        let (t, _, _, _) = testnet();
        let req = Pdu::get("public", 5, vec![well_known::if_speed().child([1])]);
        let resp = t.request("m-1", &req).unwrap();
        assert_eq!(resp.bindings[0].value, Value::Gauge32(100_000_000));
    }

    #[test]
    fn uptime_follows_sim_clock() {
        let (t, sim, _, _) = testnet();
        sim.lock().run_for(SimDuration::from_secs(3)).unwrap();
        let req = Pdu::get("public", 6, vec![well_known::sys_uptime()]);
        let resp = t.request("aspen", &req).unwrap();
        assert_eq!(resp.bindings[0].value, Value::TimeTicks(300));
    }

    #[test]
    fn crash_resets_uptime_and_counters() {
        use crate::error::SnmpError;
        use crate::fault::{FaultDirector, FaultPlan};
        let mut b = TopologyBuilder::new();
        let h1 = b.compute("m-1");
        let h2 = b.compute("m-2");
        let r = b.network("aspen");
        b.link(h1, r, mbps(100.0), SimDuration::from_micros(50)).unwrap();
        b.link(r, h2, mbps(100.0), SimDuration::from_micros(50)).unwrap();
        let sim = share(Simulator::new(b.build().unwrap()).unwrap());
        let t = SimTransport::new();
        let director = FaultDirector::new();
        register_all_agents_with_faults(&t, &sim, "public", &director);
        // aspen crashes at t=2 s for 1 s.
        director.set_plan(
            "aspen",
            FaultPlan::new().crash(SimTime::from_secs(2), SimDuration::from_secs(1)),
            21,
        );
        {
            let mut s = sim.lock();
            s.start_flow(FlowParams::cbr(h1, h2, mbps(80.0))).unwrap();
            s.run_for(SimDuration::from_secs(1)).unwrap();
        }
        let get = |rid, oid| Pdu::get("public", rid, vec![oid]);
        // Before the crash: uptime tracks the sim clock, counters are raw.
        let resp = t.request("aspen", &get(1, well_known::sys_uptime())).unwrap();
        assert_eq!(resp.bindings[0].value, Value::TimeTicks(100));
        let resp = t.request("aspen", &get(2, well_known::if_in_octets().child([1]))).unwrap();
        let before = resp.bindings[0].value.as_counter32().unwrap();
        assert!(before > 0);
        // During the crash (t=2.5 s): unreachable.
        sim.lock().run_for(SimDuration::from_millis(1500)).unwrap();
        assert!(matches!(
            t.request("aspen", &get(3, well_known::sys_uptime())),
            Err(SnmpError::Timeout)
        ));
        // After restart (t=4 s): uptime restarted, counters read near zero
        // even though the flow pushed ~40 MB through by now.
        sim.lock().run_for(SimDuration::from_millis(1500)).unwrap();
        let resp = t.request("aspen", &get(4, well_known::sys_uptime())).unwrap();
        let ticks = match resp.bindings[0].value {
            Value::TimeTicks(v) => v,
            ref v => panic!("expected TimeTicks, got {v:?}"),
        };
        assert_eq!(ticks, 100, "uptime counts from the restart at t=3 s");
        let resp = t.request("aspen", &get(5, well_known::if_in_octets().child([1]))).unwrap();
        let after = resp.bindings[0].value.as_counter32().unwrap();
        assert_eq!(after, 0, "first post-restart read is the baseline");
        // The next read advances by exactly the traffic since the baseline.
        sim.lock().run_for(SimDuration::from_secs(1)).unwrap();
        let resp = t.request("aspen", &get(6, well_known::if_in_octets().child([1]))).unwrap();
        let delta = resp.bindings[0].value.as_counter32().unwrap();
        assert!((delta as f64 - 1e7).abs() < 32.0, "{delta}");
    }
}
