//! The SNMP collector (§5): discovers topology and polls octet counters.
//!
//! Discovery walks each agent's `system` group (name, kind via
//! sysServices), `ifTable` (interface speeds) and LLDP-style neighbor
//! table (adjacency), then reconstructs a [`Topology`]. Polling reads
//! `ifOutOctets` (falling back to the far side's `ifInOctets` when a link
//! endpoint runs no agent), differences Counter32 readings with wrap
//! handling, and appends per-interface utilization snapshots.
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
use remos_snmp::oid::well_known;
use remos_snmp::transport::Transport;
use remos_snmp::{Manager, RetryPolicy, Value};
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

/// Where a directed interface's traffic counter lives.
#[derive(Clone, Debug)]
enum CounterSource {
    /// `agents[idx]`'s interface `if_index`, ifOutOctets.
    Out { agent: usize, if_index: u32 },
    /// `agents[idx]`'s interface `if_index`, ifInOctets (far side has no
    /// agent).
    In { agent: usize, if_index: u32 },
    /// Neither endpoint runs an agent; utilization is unobservable and
    /// reported as zero with [`DataQuality::Missing`].
    None,
}

struct View {
    topo: Arc<Topology>,
    /// Per dir-link index: where to read its counter.
    sources: Vec<CounterSource>,
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

/// One agent's per-poll readings.
struct AgentRead {
    ticks: u64,
    out_col: Option<BTreeMap<u32, u32>>,
    in_col: Option<BTreeMap<u32, u32>>,
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

    /// Liveness of one agent by address.
    pub fn agent_state(&self, agent: &str) -> Option<AgentState> {
        let i = self.agents.iter().position(|a| a == agent)?;
        Some(self.health[i].state)
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

        // Counter sources per directed interface.
        let mut sources = vec![CounterSource::None; topo.dir_link_count()];
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
                // Prefer the sender's ifOutOctets for each direction.
                sources[out_idx] = CounterSource::Out { agent: si, if_index };
                if !agent_index.contains_key(peer.as_str()) {
                    sources[in_idx] = CounterSource::In { agent: si, if_index };
                }
            }
        }
        let n = sources.len();
        Ok(View {
            topo,
            sources,
            baseline: vec![None; n],
            last_util: vec![0.0; n],
            last_fresh: vec![None; n],
            primed: false,
        })
    }

    /// Read one agent's uptime and the counter columns it serves. Any
    /// failure returns `None` — the caller degrades just this agent.
    /// `down` agents get a single-datagram recovery probe first; full reads
    /// (and their retry costs) resume only once the probe answers.
    fn read_agent(
        &self,
        ai: usize,
        needs_out: bool,
        needs_in: bool,
        down: bool,
    ) -> Option<AgentRead> {
        let addr = &self.agents[ai];
        if down && self.probe.get(addr, &well_known::sys_uptime()).is_err() {
            return None;
        }
        let ticks = self.manager.get(addr, &well_known::sys_uptime()).ok()?.as_u64()?;
        let col = |root: &remos_snmp::Oid| -> Option<BTreeMap<u32, u32>> {
            let rows = self.manager.bulk_walk(addr, root).ok()?;
            let mut m = BTreeMap::new();
            for b in rows {
                if let (Some([idx]), Some(c)) = (root.suffix_of(&b.oid), b.value.as_counter32()) {
                    m.insert(*idx, c);
                }
            }
            Some(m)
        };
        let out_col = if needs_out { Some(col(&well_known::if_out_octets())?) } else { None };
        let in_col = if needs_in { Some(col(&well_known::if_in_octets())?) } else { None };
        Some(AgentRead { ticks, out_col, in_col })
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

        // Which counter columns each agent must serve.
        let needs: Vec<(bool, bool)> = {
            let view = self
                .view
                .as_ref()
                .ok_or_else(|| RemosError::Collector("topology not discovered yet".into()))?;
            let mut needs = vec![(false, false); self.agents.len()];
            for src in &view.sources {
                match src {
                    CounterSource::Out { agent, .. } => needs[*agent].0 = true,
                    CounterSource::In { agent, .. } => needs[*agent].1 = true,
                    CounterSource::None => {}
                }
            }
            needs
        };

        // Fault-isolated per-agent reads.
        let down: Vec<bool> = self.health.iter().map(|h| h.state == AgentState::Down).collect();
        let reads: Vec<Option<AgentRead>> = (0..self.agents.len())
            .map(|ai| self.read_agent(ai, needs[ai].0, needs[ai].1, down[ai]))
            .collect();

        let prev_ticks: Vec<Option<u64>> = self.health.iter().map(|h| h.last_uptime_ticks).collect();
        // sysUpTime regression marks a restart: that agent's counters
        // restarted from zero and the interval since the last reading is
        // poisoned.
        let disc: Vec<bool> = reads
            .iter()
            .zip(&prev_ticks)
            .map(|(r, p)| match (r, p) {
                (Some(r), Some(l)) => r.ticks < *l,
                _ => false,
            })
            .collect();

        // Collector time advances by the largest uptime delta among agents
        // whose clock did not regress — robust to any subset crashing.
        let delta_ticks = reads
            .iter()
            .zip(&prev_ticks)
            .zip(&disc)
            .filter_map(|((r, p), d)| match (r, p) {
                (Some(r), Some(l)) if !*d => Some(r.ticks.saturating_sub(*l)),
                _ => None,
            })
            .max();
        let t = match self.last_t {
            Some(t0) => Some(t0 + SimDuration::from_millis(delta_ticks.unwrap_or(0) * 10)),
            None => reads
                .iter()
                .flatten()
                .map(|r| r.ticks)
                .max()
                .map(|ticks| SimTime::from_millis(ticks * 10)),
        };

        // Health transitions.
        let t_nanos = t.or(self.last_t).map_or(0, SimTime::as_nanos);
        for (ai, read) in reads.iter().enumerate() {
            let h = &mut self.health[ai];
            let prev = h.state;
            match read {
                Some(r) => {
                    h.consecutive_failures = 0;
                    h.state = AgentState::Healthy;
                    h.last_ok = t.or(h.last_ok);
                    h.last_uptime_ticks = Some(r.ticks);
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
        if reads.iter().all(|r| r.is_none()) {
            return Ok(false);
        }

        let missing_after = self.cfg.missing_after;
        let view = self
            .view
            .as_mut()
            .ok_or_else(|| RemosError::Collector("topology not discovered yet".into()))?;
        let n = view.sources.len();

        // Per-directed-link readings from whichever agent serves each.
        let readings: Vec<Option<u32>> = view
            .sources
            .iter()
            .map(|src| match src {
                CounterSource::Out { agent, if_index } => reads[*agent]
                    .as_ref()
                    .and_then(|r| r.out_col.as_ref())
                    .and_then(|m| m.get(if_index))
                    .copied(),
                CounterSource::In { agent, if_index } => reads[*agent]
                    .as_ref()
                    .and_then(|r| r.in_col.as_ref())
                    .and_then(|m| m.get(if_index))
                    .copied(),
                CounterSource::None => None,
            })
            .collect();
        let poisoned: Vec<bool> = view
            .sources
            .iter()
            .map(|src| match src {
                CounterSource::Out { agent, .. } | CounterSource::In { agent, .. } => disc[*agent],
                CounterSource::None => false,
            })
            .collect();

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

        let mut util = vec![0.0; n];
        let mut quality = vec![DataQuality::Missing; n];
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
        self.history.push(Snapshot { t, interval, util: util.into(), quality: quality.into() });
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
