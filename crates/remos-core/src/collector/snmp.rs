//! The SNMP collector (§5): discovers topology and polls octet counters.
//!
//! Discovery walks each agent's `system` group (name, kind via
//! sysServices), `ifTable` (interface speeds) and LLDP-style neighbor
//! table (adjacency), then reconstructs a [`Topology`]. A poll sends each
//! agent one GET: `sysUpTime.0` and exactly the `ifOutOctets` instances
//! of its links (the far side's `ifInOctets` when a link endpoint runs no
//! agent), so uptime and counters come from one agent snapshot. It
//! differences Counter32 readings with wrap handling and appends
//! per-interface utilization snapshots.
//!
//! Latency uses a fixed per-hop delay, exactly as the paper's collector
//! does ("For latency, the Collector currently assumes a fixed per-hop
//! delay. (A reasonable approximation as long as we use a LAN testbed.)").
//!
//! ## Degraded mode
//!
//! Polling is per-agent fault-isolated: an agent that times out or answers
//! garbage only degrades *its* interfaces, never the whole poll. Each agent
//! runs a Healthy → Degraded → Down state machine ([`AgentHealth`]); once
//! Down, the collector stops paying full-retry query costs and sends a
//! single cheap recovery probe per poll instead. Counter discontinuities
//! are detected via `sysUpTime` regression (the agent restarted, so its
//! counters restarted from zero): the poisoned interval is discarded and
//! re-baselined rather than differenced into a bogus utilization spike.
//! Every snapshot entry carries a [`DataQuality`] — `Fresh` when measured
//! this interval, `Stale { age }` while the collector carries an old value
//! forward, and `Missing` once it is older than
//! [`SnmpCollectorConfig::missing_after`] (or was never measured).

use crate::collector::{Collector, SampleHistory, Snapshot};
use crate::error::{CoreResult, RemosError};
use crate::graph::HostInfo;
use crate::quality::DataQuality;
use remos_net::counters::rate_from_readings;
use remos_net::topology::{DirLink, NodeId, Topology, TopologyBuilder};
use remos_net::{SimDuration, SimTime};
use remos_obs::{Counter, Obs};
use remos_snmp::agent::MAX_RESPONSE_BINDINGS;
use remos_snmp::oid::well_known;
use remos_snmp::transport::Transport;
use remos_snmp::{Manager, Oid, RetryPolicy, Value};
#[expect(clippy::disallowed_types, reason = "name-to-id lookups only; nothing iterates it")]
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// How adjacency is discovered from the agents.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum DiscoveryMode {
    /// Walk the LLDP-style neighbor table (modern deployments; the
    /// default because it names peers directly).
    #[default]
    NeighborTable,
    /// Walk `ipRouteTable` and take *direct* routes as adjacency — the
    /// mechanism the paper's collector actually used ("uses SNMP to
    /// extract both static topology and dynamic bandwidth information
    /// from the routers"). Peer names resolve through the agents'
    /// `ipAddrTable`; addresses with no agent become `ip-a-b-c-d` hosts.
    RouteTable,
}

/// Configuration of an [`SnmpCollector`].
#[derive(Clone, Debug)]
pub struct SnmpCollectorConfig {
    /// Community string for all agents.
    pub community: String,
    /// Fixed per-hop one-way latency assumed for every link.
    pub per_hop_latency: SimDuration,
    /// Sample history bound.
    pub history_len: usize,
    /// Topology discovery mechanism.
    pub discovery: DiscoveryMode,
    /// Consecutive poll failures after which an agent counts as Degraded.
    pub degraded_after: u32,
    /// Consecutive poll failures after which an agent counts as Down (the
    /// collector switches from full-retry reads to single recovery probes).
    pub down_after: u32,
    /// Carried-forward (stale) data older than this is reported as
    /// [`DataQuality::Missing`].
    pub missing_after: SimDuration,
}

impl Default for SnmpCollectorConfig {
    fn default() -> Self {
        SnmpCollectorConfig {
            community: "public".to_string(),
            per_hop_latency: SimDuration::from_micros(100),
            history_len: crate::collector::DEFAULT_HISTORY_LEN,
            discovery: DiscoveryMode::default(),
            degraded_after: 1,
            down_after: 3,
            missing_after: SimDuration::from_secs(30),
        }
    }
}

/// Liveness classification of one polled agent.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum AgentState {
    /// Answering normally.
    #[default]
    Healthy,
    /// Missed at least [`SnmpCollectorConfig::degraded_after`] consecutive
    /// polls; still queried with full retries.
    Degraded,
    /// Missed at least [`SnmpCollectorConfig::down_after`] consecutive
    /// polls; only probed with single datagrams until it answers again.
    Down,
}

/// Per-agent health record maintained across polls.
#[derive(Clone, Debug, Default)]
pub struct AgentHealth {
    /// Current liveness classification.
    pub state: AgentState,
    /// Consecutive polls the agent failed to answer.
    pub consecutive_failures: u32,
    /// Collector time of the last successful read.
    pub last_ok: Option<SimTime>,
    /// `sysUpTime` ticks at the last successful read (regression here is
    /// the restart/discontinuity signal).
    pub last_uptime_ticks: Option<u64>,
}

/// One agent's poll: a single GET of `sysUpTime.0` followed by every
/// counter instance the view reads from that agent.
struct AgentPoll {
    /// `sysUpTime.0`, then `ifOutOctets.i` / `ifInOctets.j` instances.
    oids: Vec<Oid>,
    /// The dir-link index each counter lands on: `oids[k + 1]` is read
    /// into dir-link `links[k]`.
    links: Vec<usize>,
}

struct View {
    topo: Arc<Topology>,
    /// Per agent, parallel to [`SnmpCollector::agents`]: its poll request.
    polls: Vec<AgentPoll>,
    /// Per dir-link: last good raw counter reading with its timestamp.
    baseline: Vec<Option<(SimTime, u32)>>,
    /// Per dir-link: last freshly measured rate (carried forward while
    /// stale).
    last_util: Vec<f64>,
    /// Per dir-link: when the rate was last freshly measured.
    last_fresh: Vec<Option<SimTime>>,
    /// The first poll after discovery only establishes baselines.
    primed: bool,
}

/// The SNMP-based collector.
pub struct SnmpCollector<T: Transport> {
    manager: Manager<T>,
    /// Single-attempt manager used to probe Down agents cheaply.
    probe: Manager<T>,
    /// Agent addresses this collector is responsible for.
    agents: Vec<String>,
    /// Health state machine, parallel to `agents`.
    health: Vec<AgentHealth>,
    cfg: SnmpCollectorConfig,
    view: Option<View>,
    /// Bumped on every successful (re-)discovery; see
    /// [`Collector::topology_epoch`].
    topology_epoch: u64,
    history: SampleHistory,
    /// Collector time at the end of the last poll, advanced by agent
    /// uptime deltas (robust to any one agent's clock resetting).
    last_t: Option<SimTime>,
    trap_source: Option<Box<dyn crate::collector::TrapSource>>,
    /// Observability handle (shared via [`SnmpCollector::set_obs`]).
    obs: Obs,
    obs_metrics: CollectorMetrics,
}

/// Cached collector-level counters (see `remos-obs`): poll cadence,
/// agent health transitions, and trap-triggered re-discoveries.
struct CollectorMetrics {
    polls: Counter,
    agent_degraded: Counter,
    agent_down: Counter,
    agent_recovered: Counter,
    rediscoveries: Counter,
}

impl CollectorMetrics {
    fn new(obs: &Obs) -> CollectorMetrics {
        CollectorMetrics {
            polls: obs.counter("collector_polls_total"),
            agent_degraded: obs.counter("collector_agent_degraded_total"),
            agent_down: obs.counter("collector_agent_down_total"),
            agent_recovered: obs.counter("collector_agent_recovered_total"),
            rediscoveries: obs.counter("collector_rediscoveries_total"),
        }
    }
}

struct AgentScan {
    name: String,
    is_router: bool,
    /// if_index -> (speed bps, neighbor name). In route-table mode the
    /// "name" is an unresolved `ip:a.b.c.d` placeholder until pass 2.
    ifaces: BTreeMap<u32, (f64, String)>,
    host: Option<HostInfo>,
    /// This agent's own address (route-table mode).
    own_ip: Option<[u8; 4]>,
}

/// Carried-forward value and quality for a directed link with no fresh
/// measurement at collector time `t`.
fn carry_forward(
    t: SimTime,
    last_fresh: Option<SimTime>,
    last_util: f64,
    missing_after: SimDuration,
) -> (f64, DataQuality) {
    match last_fresh {
        Some(tf) => {
            let age = t.saturating_since(tf);
            if age > missing_after {
                (0.0, DataQuality::Missing)
            } else {
                (last_util, DataQuality::Stale { age })
            }
        }
        None => (0.0, DataQuality::Missing),
    }
}

impl<T: Transport + Sync> SnmpCollector<T> {
    /// New collector over `agents` (addresses of the SNMP agents to use).
    pub fn new(transport: Arc<T>, agents: Vec<String>, cfg: SnmpCollectorConfig) -> Self {
        let history = SampleHistory::new(cfg.history_len);
        let manager = Manager::new(Arc::clone(&transport), &cfg.community);
        let probe = Manager::with_policy(transport, &cfg.community, RetryPolicy::no_retries());
        let mut agents = agents;
        agents.sort();
        agents.dedup();
        let health = vec![AgentHealth::default(); agents.len()];
        let obs = Obs::new();
        let obs_metrics = CollectorMetrics::new(&obs);
        SnmpCollector {
            manager,
            probe,
            agents,
            health,
            cfg,
            view: None,
            topology_epoch: 0,
            history,
            last_t: None,
            trap_source: None,
            obs,
            obs_metrics,
        }
    }

    /// Attach a trap source; linkDown/linkUp traps trigger re-discovery
    /// on the next poll.
    pub fn set_trap_source(&mut self, source: Box<dyn crate::collector::TrapSource>) {
        self.trap_source = Some(source);
    }

    /// Register an observer of SNMP request outcomes on the full-retry
    /// manager (circuit breakers hook in here). The single-attempt
    /// recovery probe is deliberately unobserved: probing a Down agent is
    /// *expected* to fail and must not re-trip an opening breaker.
    pub fn set_retry_observer(&mut self, observer: std::sync::Arc<dyn remos_snmp::RetryObserver>) {
        self.manager.set_retry_observer(observer);
    }

    /// Health records, parallel to [`SnmpCollector::agent_names`].
    pub fn agent_health(&self) -> &[AgentHealth] {
        &self.health
    }

    /// The agent addresses this collector polls (sorted).
    pub fn agent_names(&self) -> &[String] {
        &self.agents
    }

    fn scan_agent(&self, addr: &str) -> CoreResult<AgentScan> {
        let vals = self.manager.get_many(
            addr,
            &[well_known::sys_name(), well_known::sys_services()],
        )?;
        let name = vals[0]
            .as_text()
            .ok_or_else(|| RemosError::Collector(format!("{addr}: sysName not text")))?
            .to_string();
        let services = vals[1].as_u64().unwrap_or(0);
        let is_router = services & 4 != 0 && services & 64 == 0;

        let mut ifaces = BTreeMap::new();
        let speeds = self.manager.bulk_walk(addr, &well_known::if_speed())?;
        let oper = self.manager.bulk_walk(addr, &well_known::if_oper_status())?;
        let neighbors = self.manager.bulk_walk(addr, &well_known::neighbor_name())?;
        let mut speed_by_idx = BTreeMap::new();
        for b in &speeds {
            if let (Some([idx]), Some(v)) =
                (well_known::if_speed().suffix_of(&b.oid), b.value.as_u64())
            {
                speed_by_idx.insert(*idx, v as f64);
            }
        }
        let mut down: BTreeSet<u32> = BTreeSet::new();
        for b in &oper {
            if let (Some([idx]), Some(status)) =
                (well_known::if_oper_status().suffix_of(&b.oid), b.value.as_u64())
            {
                if status != 1 {
                    down.insert(*idx);
                }
            }
        }
        let mut own_ip = None;
        match self.cfg.discovery {
            DiscoveryMode::NeighborTable => {
                for b in &neighbors {
                    let Some([idx]) = well_known::neighbor_name().suffix_of(&b.oid) else {
                        continue;
                    };
                    if down.contains(idx) {
                        continue; // operationally down
                    }
                    let Some(peer) = b.value.as_text() else { continue };
                    let Some(&speed) = speed_by_idx.get(idx) else { continue };
                    ifaces.insert(*idx, (speed, peer.to_string()));
                }
            }
            DiscoveryMode::RouteTable => {
                let addrs = self.manager.bulk_walk(addr, &well_known::ip_ad_ent_addr())?;
                own_ip = addrs.iter().find_map(|b| b.value.as_ip());
                let types = self.manager.bulk_walk(addr, &well_known::ip_route_type())?;
                let route_if = self.manager.bulk_walk(addr, &well_known::ip_route_ifindex())?;
                let mut if_by_dest: BTreeMap<Vec<u32>, u32> = BTreeMap::new();
                for b in &route_if {
                    if let (Some(suffix), Some(i)) =
                        (well_known::ip_route_ifindex().suffix_of(&b.oid), b.value.as_u64())
                    {
                        if_by_dest.insert(suffix.to_vec(), i as u32);
                    }
                }
                for b in &types {
                    let Some(suffix) = well_known::ip_route_type().suffix_of(&b.oid) else {
                        continue;
                    };
                    // Direct routes (ipRouteType 3) reveal adjacency on a
                    // point-to-point network.
                    if b.value.as_u64() != Some(3) || suffix.len() != 4 {
                        continue;
                    }
                    let Some(&idx) = if_by_dest.get(suffix) else { continue };
                    if down.contains(&idx) {
                        continue;
                    }
                    let Some(&speed) = speed_by_idx.get(&idx) else { continue };
                    let placeholder = format!(
                        "ip:{}.{}.{}.{}",
                        suffix[0], suffix[1], suffix[2], suffix[3]
                    );
                    ifaces.insert(idx, (speed, placeholder));
                }
            }
        }

        let host = if is_router {
            None
        } else {
            let vals = self
                .manager
                .get_many(addr, &[well_known::hr_memory_size(), well_known::host_mflops()])?;
            match (&vals[0], &vals[1]) {
                (Value::Integer(kb), Value::Gauge32(mflops)) => Some(HostInfo {
                    compute_flops: *mflops as f64 * 1e6,
                    memory_bytes: (*kb as u64) * 1024,
                }),
                _ => None,
            }
        };
        Ok(AgentScan { name, is_router, ifaces, host, own_ip })
    }

    #[expect(clippy::disallowed_types, reason = "name-to-id lookups only; nothing iterates it")]
    fn discover(&self) -> CoreResult<View> {
        if self.agents.is_empty() {
            return Err(RemosError::Collector("no agents configured".into()));
        }
        let mut scans: Vec<AgentScan> = self
            .agents
            .iter()
            .map(|a| self.scan_agent(a))
            .collect::<CoreResult<_>>()?;

        // Route-table mode, pass 2: resolve `ip:a.b.c.d` placeholders to
        // agent names via the collected own-addresses; unresolvable peers
        // (no agent there) become `ip-a-b-c-d` host nodes.
        if self.cfg.discovery == DiscoveryMode::RouteTable {
            let ip_names: HashMap<String, String> = scans
                .iter()
                .filter_map(|s| {
                    s.own_ip.map(|ip| {
                        (
                            format!("ip:{}.{}.{}.{}", ip[0], ip[1], ip[2], ip[3]),
                            s.name.clone(),
                        )
                    })
                })
                .collect();
            for s in &mut scans {
                for (_, peer) in s.ifaces.values_mut() {
                    if let Some(resolved) = ip_names.get(peer.as_str()) {
                        *peer = resolved.clone();
                    } else if let Some(rest) = peer.strip_prefix("ip:") {
                        *peer = format!("ip-{}", rest.replace('.', "-"));
                    }
                }
            }
        }

        // Union of node names: agents plus neighbor-only names.
        let agent_index: HashMap<&str, usize> = scans
            .iter()
            .enumerate()
            .map(|(i, s)| (s.name.as_str(), i))
            .collect();
        let mut all_names = BTreeSet::new();
        for s in &scans {
            all_names.insert(s.name.clone());
            for (_, peer) in s.ifaces.values() {
                all_names.insert(peer.clone());
            }
        }

        // Edges keyed by ordered name pair; capacity = min of reports.
        let mut edges: BTreeMap<(String, String), f64> = BTreeMap::new();
        for s in &scans {
            for (speed, peer) in s.ifaces.values() {
                let key = if s.name < *peer {
                    (s.name.clone(), peer.clone())
                } else {
                    (peer.clone(), s.name.clone())
                };
                edges
                    .entry(key)
                    .and_modify(|c| *c = c.min(*speed))
                    .or_insert(*speed);
            }
        }

        // Rebuild a Topology (deterministic: names sorted).
        let mut b = TopologyBuilder::new();
        let mut ids: HashMap<String, NodeId> = HashMap::new();
        for name in &all_names {
            // A neighbor without an agent is assumed to be a host whose
            // resources nobody measured.
            let scan = agent_index.get(name.as_str()).map(|&i| &scans[i]);
            let id = match scan {
                Some(s) if s.is_router => b.network(name),
                _ => b.compute_with_host(name, scan.and_then(|s| s.host)),
            };
            ids.insert(name.clone(), id);
        }
        let mut link_of_pair: HashMap<(String, String), remos_net::LinkId> = HashMap::new();
        for ((a, c), capacity) in &edges {
            let id = b
                .link(ids[a], ids[c], *capacity, self.cfg.per_hop_latency)
                .map_err(RemosError::from)?;
            link_of_pair.insert((a.clone(), c.clone()), id);
        }
        let topo = Arc::new(b.build().map_err(RemosError::from)?);

        // Where each directed interface's counter lives: an agent and the
        // instance it reads. A link with no agent at either end has none,
        // and is reported as zero with `DataQuality::Missing`.
        let mut sources: Vec<Option<(usize, Oid)>> = vec![None; topo.dir_link_count()];
        for (si, s) in scans.iter().enumerate() {
            for (&if_index, (_, peer)) in &s.ifaces {
                let key = if s.name < *peer {
                    (s.name.clone(), peer.clone())
                } else {
                    (peer.clone(), s.name.clone())
                };
                let Some(&link) = link_of_pair.get(&key) else { continue };
                let me = ids[&s.name];
                let out_dir = topo.link(link).direction_from(me);
                let out_idx = DirLink { link, dir: out_dir }.index();
                let in_idx = DirLink { link, dir: out_dir.reverse() }.index();
                // Prefer the sender's ifOutOctets for each direction; the
                // far side's ifInOctets when that end runs no agent.
                sources[out_idx] = Some((si, well_known::if_out_octets().child([if_index])));
                if !agent_index.contains_key(peer.as_str()) {
                    sources[in_idx] = Some((si, well_known::if_in_octets().child([if_index])));
                }
            }
        }
        let n = sources.len();
        let mut polls: Vec<AgentPoll> = (0..scans.len())
            .map(|_| AgentPoll { oids: vec![well_known::sys_uptime()], links: Vec::new() })
            .collect();
        for (link, source) in sources.into_iter().enumerate() {
            if let Some((agent, oid)) = source {
                polls[agent].oids.push(oid);
                polls[agent].links.push(link);
            }
        }
        Ok(View {
            topo,
            polls,
            baseline: vec![None; n],
            last_util: vec![0.0; n],
            last_fresh: vec![None; n],
            primed: false,
        })
    }

    /// Read agent `ai`'s uptime and, into `readings`, the counters of
    /// the dir-links `poll` maps to it: one GET, split only past an
    /// agent's response limit. A counter that comes back `NoSuchObject`
    /// or not a Counter32 reads `None`, which leaves only its link
    /// unobservable. Any request failure returns `None`, and the caller
    /// degrades just this agent. A `Down` agent gets a single-datagram
    /// recovery probe first; full reads (and their retry costs) resume
    /// only once the probe answers.
    fn read_agent(
        &self,
        ai: usize,
        poll: &AgentPoll,
        readings: &mut [Option<u32>],
    ) -> Option<u64> {
        let addr = &self.agents[ai];
        if self.health[ai].state == AgentState::Down
            && self.probe.get(addr, &well_known::sys_uptime()).is_err()
        {
            return None;
        }
        let mut ticks = None;
        for (i, oids) in poll.oids.chunks(MAX_RESPONSE_BINDINGS).enumerate() {
            let mut values = self.manager.get_many(addr, oids).ok()?.into_iter();
            if i == 0 {
                ticks = Some(values.next()?.as_u64()?);
            }
            // `oids[k + 1]` lands on `links[k]`; chunk 0 led with sysUpTime.
            let first = (i * MAX_RESPONSE_BINDINGS).saturating_sub(1);
            for (&link, value) in poll.links[first..].iter().zip(values) {
                readings[link] = value.as_counter32();
            }
        }
        ticks
    }
}

impl<T: Transport + Sync> Collector for SnmpCollector<T> {
    /// Report into a shared observability handle: collector counters and
    /// health-transition events, plus the fault-path counters of both
    /// underlying SNMP managers.
    fn set_obs(&mut self, obs: &Obs) {
        self.manager.set_obs(obs);
        self.probe.set_obs(obs);
        self.obs_metrics = CollectorMetrics::new(obs);
        self.obs = obs.clone();
    }

    fn refresh_topology(&mut self) -> CoreResult<()> {
        self.obs_metrics.rediscoveries.inc();
        let view = self.discover()?;
        self.view = Some(view);
        self.topology_epoch += 1;
        self.history.clear();
        Ok(())
    }

    fn topology_epoch(&self) -> u64 {
        self.topology_epoch
    }

    fn topology(&self) -> CoreResult<Arc<Topology>> {
        self.view
            .as_ref()
            .map(|v| Arc::clone(&v.topo))
            .ok_or_else(|| RemosError::Collector("topology not discovered yet".into()))
    }

    fn poll(&mut self) -> CoreResult<bool> {
        self.obs_metrics.polls.inc();
        // Unsolicited notifications first: a link-state trap invalidates
        // the discovered view.
        if let Some(src) = &mut self.trap_source {
            let traps = src.drain();
            if traps
                .iter()
                .any(|(_, pdu)| crate::collector::is_link_state_trap(pdu))
            {
                match self.refresh_topology() {
                    Ok(()) => {}
                    // Degraded mode: discovery needs every agent, so keep
                    // serving the stale view if we have one; per-link
                    // quality flags already tell the consumer.
                    Err(_) if self.view.is_some() => {}
                    Err(e) => return Err(e),
                }
            }
        }
        if self.view.is_none() {
            self.refresh_topology()?;
        }

        // Fault-isolated per-agent reads, each straight into the
        // per-dir-link readings; a failed agent leaves all its links
        // unobservable.
        let view = self
            .view
            .as_ref()
            .ok_or_else(|| RemosError::Collector("topology not discovered yet".into()))?;
        let mut readings: Vec<Option<u32>> = vec![None; view.baseline.len()];
        let ticks: Vec<Option<u64>> = (0..self.agents.len())
            .map(|ai| {
                let poll = &view.polls[ai];
                let read = self.read_agent(ai, poll, &mut readings);
                if read.is_none() {
                    for &link in &poll.links {
                        readings[link] = None;
                    }
                }
                read
            })
            .collect();

        // sysUpTime regression marks a restart: that agent's counters
        // restarted from zero and the interval since the last reading is
        // poisoned.
        let disc: Vec<bool> = ticks
            .iter()
            .zip(&self.health)
            .map(|(r, h)| matches!((r, h.last_uptime_ticks), (Some(r), Some(l)) if *r < l))
            .collect();

        // Collector time advances by the largest uptime delta among agents
        // whose clock did not regress — robust to any subset crashing.
        let delta_ticks = ticks
            .iter()
            .zip(&self.health)
            .zip(&disc)
            .filter_map(|((r, h), d)| match (r, h.last_uptime_ticks) {
                (Some(r), Some(l)) if !*d => Some(r.saturating_sub(l)),
                _ => None,
            })
            .max();
        let t = match self.last_t {
            Some(t0) => Some(t0 + SimDuration::from_millis(delta_ticks.unwrap_or(0) * 10)),
            None => ticks
                .iter()
                .flatten()
                .max()
                .map(|&ticks| SimTime::from_millis(ticks * 10)),
        };

        // Health transitions.
        let t_nanos = t.or(self.last_t).map_or(0, SimTime::as_nanos);
        for (ai, read) in ticks.iter().enumerate() {
            let h = &mut self.health[ai];
            let prev = h.state;
            match *read {
                Some(r) => {
                    h.consecutive_failures = 0;
                    h.state = AgentState::Healthy;
                    h.last_ok = t.or(h.last_ok);
                    h.last_uptime_ticks = Some(r);
                }
                None => {
                    h.consecutive_failures += 1;
                    h.state = if h.consecutive_failures >= self.cfg.down_after {
                        AgentState::Down
                    } else if h.consecutive_failures >= self.cfg.degraded_after {
                        AgentState::Degraded
                    } else {
                        AgentState::Healthy
                    };
                }
            }
            if h.state != prev {
                let ai = ai as u64;
                match h.state {
                    AgentState::Degraded => {
                        self.obs_metrics.agent_degraded.inc();
                        self.obs.event("collector.agent.degraded", t_nanos, &[("agent", ai)]);
                    }
                    AgentState::Down => {
                        self.obs_metrics.agent_down.inc();
                        self.obs.event("collector.agent.down", t_nanos, &[("agent", ai)]);
                    }
                    AgentState::Healthy => {
                        self.obs_metrics.agent_recovered.inc();
                        self.obs.event("collector.agent.recovered", t_nanos, &[("agent", ai)]);
                    }
                }
            }
        }

        // Nothing answered: time cannot advance and there is nothing to
        // record. Not an error — a federated parent may still be covered
        // by its other collectors.
        let Some(t) = t else { return Ok(false) };
        if ticks.iter().all(Option::is_none) {
            return Ok(false);
        }

        let missing_after = self.cfg.missing_after;
        let view = self
            .view
            .as_mut()
            .ok_or_else(|| RemosError::Collector("topology not discovered yet".into()))?;
        let n = readings.len();
        let mut poisoned = vec![false; n];
        for (poll, _) in view.polls.iter().zip(&disc).filter(|(_, d)| **d) {
            for &link in &poll.links {
                poisoned[link] = true;
            }
        }

        if !view.primed {
            // First poll after discovery: establish baselines only.
            for (i, reading) in readings.iter().enumerate() {
                if let Some(c) = *reading {
                    view.baseline[i] = Some((t, c));
                }
            }
            view.primed = true;
            self.last_t = Some(t);
            return Ok(false);
        }

        let advanced = self.last_t.is_none_or(|t0| t > t0);
        if !advanced {
            // No measured time elapsed; just baseline newly observable
            // links.
            for (i, reading) in readings.iter().enumerate() {
                if view.baseline[i].is_none() {
                    if let Some(c) = *reading {
                        view.baseline[i] = Some((t, c));
                    }
                }
            }
            return Ok(false);
        }

        // Every entry is written below, so the history's spare planes are
        // refilled in place while no reader holds them.
        let mut util_plane = self
            .history
            .take_spare_util()
            .filter(|p| p.len() == n)
            .unwrap_or_else(|| std::iter::repeat_n(0.0, n).collect());
        let mut quality_plane = self
            .history
            .take_spare_quality()
            .filter(|p| p.len() == n)
            .unwrap_or_else(|| std::iter::repeat_n(DataQuality::Missing, n).collect());
        let util = Arc::make_mut(&mut util_plane);
        let quality = Arc::make_mut(&mut quality_plane);
        let mut interval = SimDuration::ZERO;
        for i in 0..n {
            match readings[i] {
                Some(c) if poisoned[i] => {
                    // Discard the poisoned interval: the counter restarted
                    // somewhere inside it, so differencing would produce a
                    // huge bogus delta. Re-baseline on the post-restart
                    // value and carry the last good rate forward.
                    view.baseline[i] = Some((t, c));
                    let (u, q) =
                        carry_forward(t, view.last_fresh[i], view.last_util[i], missing_after);
                    util[i] = u;
                    quality[i] = q;
                }
                Some(c) => match view.baseline[i] {
                    Some((t0, p)) => {
                        let dt = t.saturating_since(t0);
                        if dt > SimDuration::ZERO {
                            let rate = rate_from_readings(p, c, dt.as_secs_f64());
                            util[i] = rate;
                            quality[i] = DataQuality::Fresh;
                            view.last_util[i] = rate;
                            view.last_fresh[i] = Some(t);
                            view.baseline[i] = Some((t, c));
                            interval = interval.max(dt);
                        } else {
                            let (u, q) = carry_forward(
                                t,
                                view.last_fresh[i],
                                view.last_util[i],
                                missing_after,
                            );
                            util[i] = u;
                            quality[i] = q;
                        }
                    }
                    None => {
                        // First observation of this link: baseline it; a
                        // rate needs the next interval.
                        view.baseline[i] = Some((t, c));
                        let (u, q) =
                            carry_forward(t, view.last_fresh[i], view.last_util[i], missing_after);
                        util[i] = u;
                        quality[i] = q;
                    }
                },
                // Unobservable this poll (dark link, or its agent failed):
                // keep the old baseline — counters are monotonic, so when
                // the agent comes back the longer interval still averages
                // correctly (a restart in between is caught by the uptime
                // regression instead).
                None => {
                    let (u, q) =
                        carry_forward(t, view.last_fresh[i], view.last_util[i], missing_after);
                    util[i] = u;
                    quality[i] = q;
                }
            }
        }
        if interval == SimDuration::ZERO {
            interval = t.saturating_since(self.last_t.unwrap_or(t));
        }
        self.history.push(Snapshot { t, interval, util: util_plane, quality: quality_plane });
        self.last_t = Some(t);
        Ok(true)
    }

    fn history(&self) -> &SampleHistory {
        &self.history
    }

    fn describe(&self) -> String {
        let healthy =
            self.health.iter().filter(|h| h.state == AgentState::Healthy).count();
        format!("snmp({healthy}/{} agents healthy)", self.agents.len())
    }

    fn now(&self) -> CoreResult<SimTime> {
        // First answering agent wins; a freshly restarted agent's small
        // uptime is floored by the collector's own clock.
        for a in &self.agents {
            if let Ok(v) = self.manager.get(a, &well_known::sys_uptime()) {
                if let Some(ticks) = v.as_u64() {
                    let t = SimTime::from_millis(ticks * 10);
                    return Ok(self.last_t.map_or(t, |t0| t0.max(t)));
                }
            }
        }
        self.last_t
            .ok_or_else(|| RemosError::Collector("no agent reachable for time".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use remos_net::flow::FlowParams;
    use remos_net::{mbps, Simulator};
    use remos_snmp::agent::{Agent, MibProvider};
    use remos_snmp::sim::{share, SharedSim, SimMibProvider};
    use remos_snmp::{Mib, SimTransport};

    /// `m-1 — aspen — m-2`, an 80 Mb/s flow from m-1 to m-2, and a
    /// collector over `agents` (agent name → provider of its MIB).
    fn stack(
        agents: impl Fn(&SharedSim, NodeId, &str) -> Box<dyn MibProvider>,
    ) -> (SnmpCollector<SimTransport>, Arc<SimTransport>, SharedSim) {
        let mut b = TopologyBuilder::new();
        let (h1, h2, r) = (b.compute("m-1"), b.compute("m-2"), b.network("aspen"));
        b.link(h1, r, mbps(100.0), SimDuration::from_micros(50)).unwrap();
        b.link(r, h2, mbps(100.0), SimDuration::from_micros(50)).unwrap();
        let sim = share(Simulator::new(b.build().unwrap()).unwrap());
        sim.lock().start_flow(FlowParams::cbr(h1, h2, mbps(80.0))).unwrap();
        let transport = Arc::new(SimTransport::new());
        for (id, name) in [(h1, "m-1"), (h2, "m-2"), (r, "aspen")] {
            transport.register(Agent::new(name, "public", agents(&sim, id, name)));
        }
        let names = transport.agent_names();
        let c = SnmpCollector::new(Arc::clone(&transport), names, SnmpCollectorConfig::default());
        (c, transport, sim)
    }

    fn live(sim: &SharedSim, id: NodeId, _: &str) -> Box<dyn MibProvider> {
        Box::new(SimMibProvider::new(Arc::clone(sim), id))
    }

    /// Poll once a second of network time until a sample is recorded
    /// (the first poll after discovery only sets baselines).
    fn sample(c: &mut SnmpCollector<SimTransport>, sim: &SharedSim) {
        for _ in 0..3 {
            sim.lock().run_for(SimDuration::from_secs(1)).unwrap();
            if c.poll().unwrap() {
                return;
            }
        }
        panic!("three polls recorded no sample");
    }

    /// The collector's dir-link from `a` towards `b`.
    fn dir_link(c: &SnmpCollector<SimTransport>, a: &str, b: &str) -> usize {
        let topo = c.topology().unwrap();
        let (a, b) = (topo.lookup(a).unwrap(), topo.lookup(b).unwrap());
        let &(link, _) = topo.neighbors(a).iter().find(|&&(_, n)| n == b).unwrap();
        DirLink { link, dir: topo.link(link).direction_from(a) }.index()
    }

    #[test]
    fn a_poll_sends_one_datagram_per_agent() {
        let (mut c, transport, sim) = stack(live);
        sample(&mut c, &sim);
        for _ in 0..3 {
            transport.reset_stats();
            sample(&mut c, &sim);
            let healthy =
                c.agent_health().iter().filter(|h| h.state == AgentState::Healthy).count();
            assert_eq!(healthy, 3);
            assert_eq!(transport.stats().requests, healthy as u64);
        }
        let latest = c.history().latest().unwrap();
        let fwd = dir_link(&c, "aspen", "m-2");
        assert_eq!(latest.quality[fwd], DataQuality::Fresh);
        assert!((latest.util[fwd] - mbps(80.0)).abs() < mbps(80.0) * 0.01, "{}", latest.util[fwd]);
    }

    /// A provider whose MIB lacks one instance.
    struct Without(SimMibProvider, Oid);

    impl MibProvider for Without {
        fn snapshot(&self) -> Mib {
            let mut mib = Mib::new();
            for (oid, value) in self.0.snapshot().iter().filter(|(oid, _)| **oid != self.1) {
                mib.set(oid.clone(), value.clone());
            }
            mib
        }
    }

    #[test]
    fn a_missing_counter_instance_degrades_only_its_link() {
        // aspen's interface 1 faces m-1; its ifOutOctets is gone.
        let (mut c, _, sim) = stack(|sim, id, name| match name {
            "aspen" => Box::new(Without(
                SimMibProvider::new(Arc::clone(sim), id),
                well_known::if_out_octets().child([1]),
            )),
            _ => live(sim, id, name),
        });
        for _ in 0..3 {
            sample(&mut c, &sim);
        }
        assert!(c.agent_health().iter().all(|h| h.state == AgentState::Healthy));
        let dark = dir_link(&c, "aspen", "m-1");
        let latest = c.history().latest().unwrap();
        for (i, q) in latest.quality.iter().enumerate() {
            let want = if i == dark { DataQuality::Missing } else { DataQuality::Fresh };
            assert_eq!(*q, want, "dir-link {i}");
        }
        let fwd = dir_link(&c, "m-1", "aspen");
        assert!((latest.util[fwd] - mbps(80.0)).abs() < mbps(80.0) * 0.01, "{}", latest.util[fwd]);
    }

    #[test]
    fn a_poll_writes_into_the_planes_its_history_displaced() {
        let (mut c, _, sim) = stack(live);
        let planes = |c: &SnmpCollector<SimTransport>| {
            let s = c.history().latest().unwrap();
            (Arc::as_ptr(&s.util), Arc::as_ptr(&s.quality))
        };
        sample(&mut c, &sim);
        let first = planes(&c);
        sample(&mut c, &sim);
        let second = planes(&c);
        assert_ne!(first, second);
        // The third sample displaces the second's planes into the spare and
        // was written into the first's, which no undo keeps.
        sample(&mut c, &sim);
        assert_eq!(planes(&c), first);
        sample(&mut c, &sim);
        assert_eq!(planes(&c), second);
        // A plane a reader still holds is never written: the poll copies.
        let held = c.history().latest().unwrap().clone();
        let before: Vec<u64> = held.util.iter().map(|u| u.to_bits()).collect();
        sample(&mut c, &sim);
        sample(&mut c, &sim);
        assert_ne!(Arc::as_ptr(&c.history().latest().unwrap().util), Arc::as_ptr(&held.util));
        assert_eq!(held.util.iter().map(|u| u.to_bits()).collect::<Vec<_>>(), before);
    }

    #[test]
    fn a_poll_splits_only_past_the_response_limit() {
        // One agent on a router with more counters than one response
        // holds: its hosts run no agent, so it serves both directions.
        let hosts = MAX_RESPONSE_BINDINGS / 2 + 8;
        let mut b = TopologyBuilder::new();
        let r = b.network("hub");
        for i in 0..hosts {
            let h = b.compute(&format!("h{i}"));
            b.link(h, r, mbps(100.0), SimDuration::from_micros(50)).unwrap();
        }
        let sim = share(Simulator::new(b.build().unwrap()).unwrap());
        let transport = Arc::new(SimTransport::new());
        transport.register(Agent::new("hub", "public", live(&sim, r, "hub")));
        let mut c = SnmpCollector::new(
            Arc::clone(&transport),
            vec!["hub".into()],
            SnmpCollectorConfig::default(),
        );
        sample(&mut c, &sim);
        transport.reset_stats();
        sample(&mut c, &sim);
        // sysUpTime and 2 counters a host, MAX_RESPONSE_BINDINGS a GET.
        let bindings = 1 + 2 * hosts;
        assert_eq!(transport.stats().requests, bindings.div_ceil(MAX_RESPONSE_BINDINGS) as u64);
        let latest = c.history().latest().unwrap();
        assert!(latest.quality.iter().all(|q| *q == DataQuality::Fresh));
    }

    #[test]
    fn a_down_agent_is_probed_before_its_read() {
        let (mut c, transport, sim) = stack(live);
        sample(&mut c, &sim);
        c.health[0].state = AgentState::Down;
        transport.reset_stats();
        sample(&mut c, &sim);
        assert_eq!(transport.stats().requests, 3 + 1, "one probe, then one GET each");
        assert_eq!(c.agent_health()[0].state, AgentState::Healthy);
    }
}
