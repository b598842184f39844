//! Every use of the repo's APIs lives in this file, so a later
//! signature change is a one-file benchmark fix: the input generator,
//! the two stacks (sharded fabric, SNMP pod network), the span
//! decorators over the public seams, the lap executor, the per-layer
//! probes and the reference checks.

use crate::spans::{self, Layer};
use crate::stats::{fold, SplitMix64, DIGEST_SEED};
use remos_core::collector::multi::MultiCollector;
use remos_core::collector::oracle::OracleCollector;
use remos_core::collector::shard::shard_fabric;
use remos_core::collector::snmp::{SnmpCollector, SnmpCollectorConfig};
use remos_core::collector::{Clock, Collector, SampleHistory, SimClock};
use remos_core::modeler::QueryWorkspace;
use remos_core::{
    CoreResult, FlowInfoRequest, HostInfo, HypotheticalFlow, Modeler, ModelerConfig, Query,
    QueryBudget, QueryResult, QuerySpec, Remos, RemosConfig, RemosGraph, Timeframe,
};
use remos_net::flow::FlowParams;
use remos_net::routing::Routing;
use remos_net::{
    gbps, mbps, FatTree, FlowHandle, NodeId, SimDuration, SimTime, Simulator, SolverMode, Topology,
    TopologyBuilder, WhatIfEngine, WhatIfFlow,
};
use remos_obs::Obs;
use remos_serve::{
    BreakerCollector, BreakerConfig, CircuitBreaker, QuotaConfig, Rung, ServeOutcome, ServeRequest,
    Server, ServerConfig,
};
use remos_snmp::sim::{register_all_agents, share, SharedSim};
use remos_snmp::{codec, Pdu, SimTransport, SnmpResult, Transport};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The five workloads, in the order `run.sh` runs them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    FabricSteady,
    FabricChurn,
    FabricCold,
    FabricWhatif,
    PodSnmpMixed,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::FabricSteady,
        Workload::FabricChurn,
        Workload::FabricCold,
        Workload::FabricWhatif,
        Workload::PodSnmpMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FabricSteady => "fabric_steady",
            Workload::FabricChurn => "fabric_churn",
            Workload::FabricCold => "fabric_cold",
            Workload::FabricWhatif => "fabric_whatif",
            Workload::PodSnmpMixed => "pod_snmp_mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes. `FULL` is what the recorded numbers use; `SMOKE` only
/// checks the output contract.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Fat-tree arity.
    pub k: usize,
    /// Persistent background flows on the fabric.
    pub fabric_flows: usize,
    /// Hosts in one graph query's target set.
    pub set_hosts: usize,
    /// Target sets `fabric_cold` cycles through (above the 32-entry plan
    /// cache, so every lookup misses).
    pub cold_sets: usize,
    /// Host pool the what-if flows draw endpoints from.
    pub pool_hosts: usize,
    /// Hypothetical flows per what-if batch.
    pub batch_flows: usize,
    /// Requests per lap, by workload.
    pub steady_requests: usize,
    pub churn_requests: usize,
    pub cold_requests: usize,
    pub whatif_batches: usize,
    pub pod_bursts: usize,
    /// Pod network shape and its background flow count.
    pub pods: usize,
    pub hosts_per_pod: usize,
    pub pod_flows: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        k: 16,
        fabric_flows: 2048,
        set_hosts: 64,
        cold_sets: 36,
        pool_hosts: 256,
        batch_flows: 2000,
        steady_requests: 2400,
        churn_requests: 160,
        cold_requests: 36,
        whatif_batches: 3,
        pod_bursts: 40,
        pods: 8,
        hosts_per_pod: 4,
        pod_flows: 32,
    };

    pub const SMOKE: Scale = Scale {
        k: 4,
        fabric_flows: 32,
        set_hosts: 8,
        cold_sets: 36,
        pool_hosts: 16,
        batch_flows: 100,
        steady_requests: 40,
        churn_requests: 10,
        cold_requests: 36,
        whatif_batches: 2,
        pod_bursts: 3,
        pods: 4,
        hosts_per_pod: 2,
        pod_flows: 4,
    };
}

/// Steady/churn target sets: few enough that every plan lookup hits.
const WARM_SETS: usize = 8;
/// `fabric_steady` set-up requests: enough to fill the collectors'
/// 512-sample histories, so a lap runs in the recycling steady state
/// throughout and its median does not sit between two regimes.
const STEADY_PREFILL: usize = 512;
/// Requests a `pod_snmp_mixed` client submits before it drains.
const POD_BURST: usize = 8;
const POD_TENANTS: [(&str, u64); 4] = [("t0", 4), ("t1", 2), ("t2", 1), ("t3", 1)];
const POD_WINDOW: SimDuration = SimDuration::from_secs(2);
/// Let the initial allocation settle before the first measurement.
const SETTLE: SimDuration = SimDuration::from_millis(500);

/// One persistent background flow, endpoints as host indices.
#[derive(Clone, Copy, Debug)]
struct Background {
    src: usize,
    dst: usize,
    /// `None` is greedy.
    cbr: Option<f64>,
}

/// What `fabric_churn` does to the simulator before a request: swap the
/// oldest persistent flow for a new greedy one and start three bulk
/// transfers, so the request's poll-gap advance recomputes rates.
#[derive(Clone, Copy, Debug)]
struct Churn {
    greedy: (usize, usize),
    bulks: [(usize, usize, u64); 3],
}

/// One operation of a lap.
#[derive(Clone, Debug)]
struct Op {
    churn: Option<Churn>,
    tenant: &'static str,
    spec: QuerySpec,
    /// Compare this answer with the reference on the first lap.
    check: bool,
}

/// Everything a run derives from `--seed`: the same seed gives the same
/// inputs. The program under test sees only these.
pub struct Inputs {
    pub workload: Workload,
    scale: Scale,
    background: Vec<Background>,
    /// Requests that fill caches and histories during set-up.
    warmup: Vec<QuerySpec>,
    /// One lap; every lap replays it from a freshly built stack.
    ops: Vec<Op>,
    /// Requests submitted before the client drains.
    burst: usize,
}

impl Inputs {
    pub fn requests_per_lap(&self) -> usize {
        self.ops.len()
    }

    /// Requests of a traced lap: the first third of the lap (whole
    /// bursts), so a traced run fits several untraced/traced pairs.
    pub fn traced_requests(&self) -> usize {
        self.ops
            .len()
            .div_ceil(3)
            .next_multiple_of(self.burst)
            .min(self.ops.len())
    }

    pub fn generate(workload: Workload, seed: u64, scale: Scale) -> Inputs {
        let mut rng = SplitMix64::new(seed ^ fold(DIGEST_SEED, workload as u64));
        if workload == Workload::PodSnmpMixed {
            return Inputs::generate_pod(&mut rng, scale);
        }
        let tree = FatTree::build(scale.k).expect("fat-tree builds");
        let names: Vec<String> = tree
            .hosts()
            .iter()
            .map(|&h| tree.topology().node(h).name.clone())
            .collect();
        let hosts = names.len();
        let set = |rng: &mut SplitMix64, n: usize| -> Vec<String> {
            rng.distinct(hosts as u64, n)
                .into_iter()
                .map(|i| names[i as usize].clone())
                .collect()
        };
        let pair = |rng: &mut SplitMix64| -> (usize, usize) {
            let d = rng.distinct(hosts as u64, 2);
            (d[0] as usize, d[1] as usize)
        };

        // 80% intra-pod; half greedy, half CBR 5-50 Mb/s (`fabric_whatif`
        // is CBR-only: see the known failure in README.md).
        let per_pod = tree.hosts_per_pod();
        let cbr_only = workload == Workload::FabricWhatif;
        let background = (0..scale.fabric_flows)
            .map(|_| {
                let (sp, si) = (
                    rng.below(scale.k as u64) as usize,
                    rng.below(per_pod as u64),
                );
                let dp = if rng.below(100) < 80 {
                    sp
                } else {
                    (sp + 1 + rng.below(scale.k as u64 - 1) as usize) % scale.k
                };
                let mut di = rng.below(per_pod as u64);
                if dp == sp && di == si {
                    di = (di + 1) % per_pod as u64;
                }
                let greedy = rng.below(2) == 0 && !cbr_only;
                let rate = mbps(5.0 + rng.below(46) as f64);
                Background {
                    src: sp * per_pod + si as usize,
                    dst: dp * per_pod + di as usize,
                    cbr: (!greedy).then_some(rate),
                }
            })
            .collect();

        let graph = |nodes: &[String]| -> QuerySpec { Query::graph(nodes.iter()).into() };
        let op = |spec: QuerySpec, churn: Option<Churn>| Op {
            churn,
            tenant: "t0",
            spec,
            check: false,
        };
        let (warmup, mut ops): (Vec<QuerySpec>, Vec<Op>) = match workload {
            Workload::FabricSteady | Workload::FabricChurn => {
                let sets: Vec<Vec<String>> = (0..WARM_SETS)
                    .map(|_| set(&mut rng, scale.set_hosts))
                    .collect();
                let churning = workload == Workload::FabricChurn;
                let n = if churning {
                    scale.churn_requests
                } else {
                    scale.steady_requests
                };
                let ops = (0..n)
                    .map(|_| {
                        let churn = churning.then(|| Churn {
                            greedy: pair(&mut rng),
                            bulks: [100_000, 200_000, 300_000].map(|bytes| {
                                let (s, d) = pair(&mut rng);
                                (s, d, bytes)
                            }),
                        });
                        op(graph(&sets[rng.below(WARM_SETS as u64) as usize]), churn)
                    })
                    .collect();
                let prefill = if churning { 0 } else { STEADY_PREFILL.min(n) };
                let warmup = (0..WARM_SETS + prefill)
                    .map(|i| graph(&sets[i % WARM_SETS]))
                    .collect();
                (warmup, ops)
            }
            Workload::FabricCold => {
                let sets: Vec<Vec<String>> = (0..scale.cold_sets)
                    .map(|_| set(&mut rng, scale.set_hosts))
                    .collect();
                let ops = (0..scale.cold_requests)
                    .map(|i| op(graph(&sets[i % sets.len()]), None))
                    .collect();
                (Vec::new(), ops)
            }
            Workload::FabricWhatif => {
                let pool = set(&mut rng, scale.pool_hosts);
                // The first pool/2 flows pair the pool off, so every batch
                // names every pool host and the plan key is constant.
                let batch = |rng: &mut SplitMix64, n: usize| -> QuerySpec {
                    let mut t = 0.0f64;
                    let flows: Vec<HypotheticalFlow> = (0..n)
                        .map(|i| {
                            let (s, d) = if i < pool.len() / 2 {
                                (2 * i, 2 * i + 1)
                            } else {
                                let p = rng.distinct(pool.len() as u64, 2);
                                (p[0] as usize, p[1] as usize)
                            };
                            let bytes = 10_000 + rng.below(1_990_001);
                            // Exponential inter-arrivals, mean 100 us.
                            t += -rng.unit().ln() * 100e-6;
                            HypotheticalFlow::new(pool[s].as_str(), pool[d].as_str(), bytes)
                                .at(SimTime::from_secs_f64(t))
                        })
                        .collect();
                    Query::estimate_fcts(flows).into()
                };
                let warm = batch(&mut rng, pool.len() / 2);
                let ops = (0..scale.whatif_batches)
                    .map(|_| op(batch(&mut rng, scale.batch_flows), None))
                    .collect();
                (vec![warm], ops)
            }
            Workload::PodSnmpMixed => unreachable!("handled above"),
        };
        ops.first_mut().expect("a lap has operations").check = true;
        if workload != Workload::FabricWhatif {
            ops.last_mut().expect("a lap has operations").check = true;
        }
        Inputs {
            workload,
            scale,
            background,
            warmup,
            ops,
            burst: 1,
        }
    }

    fn generate_pod(rng: &mut SplitMix64, scale: Scale) -> Inputs {
        let hosts = scale.pods * scale.hosts_per_pod;
        let name = |i: u64| {
            format!(
                "h{}x{}",
                i as usize / scale.hosts_per_pod,
                i as usize % scale.hosts_per_pod
            )
        };
        let background = (0..scale.pod_flows)
            .map(|_| {
                let d = rng.distinct(hosts as u64, 2);
                Background {
                    src: d[0] as usize,
                    dst: d[1] as usize,
                    cbr: Some(mbps(1.0 + rng.below(5) as f64)),
                }
            })
            .collect();
        let set_hosts = 8.min(hosts);
        let mut kinds = [0usize; 3];
        let mut ops: Vec<Op> = (0..scale.pod_bursts * POD_BURST)
            .map(|i| {
                // Exact thirds, shuffled by the seed within each triple.
                if i % 3 == 0 {
                    let d = rng.distinct(3, 3);
                    kinds = [d[0] as usize, d[1] as usize, d[2] as usize];
                }
                let nodes: Vec<String> = rng
                    .distinct(hosts as u64, set_hosts)
                    .into_iter()
                    .map(name)
                    .collect();
                let spec: QuerySpec = match kinds[i % 3] {
                    0 => Query::graph(nodes).into(),
                    1 => Query::graph(nodes)
                        .timeframe(Timeframe::Window(POD_WINDOW))
                        .into(),
                    _ => Query::flows(
                        FlowInfoRequest::new()
                            .fixed(&nodes[0], &nodes[1], mbps(2.0))
                            .variable(&nodes[2], &nodes[3], 1.0)
                            .variable(&nodes[4 % set_hosts], &nodes[5 % set_hosts], 2.0)
                            .independent(&nodes[6 % set_hosts], &nodes[7 % set_hosts]),
                    )
                    .into(),
                };
                // Tenants in proportion to their dequeue weights.
                let tenant = match rng.below(8) {
                    0..=3 => "t0",
                    4..=5 => "t1",
                    6 => "t2",
                    _ => "t3",
                };
                let check =
                    matches!(&spec, QuerySpec::Graph(g) if g.timeframe == Timeframe::Current);
                Op {
                    churn: None,
                    tenant,
                    spec,
                    check,
                }
            })
            .collect();
        // Keep the reference check to the first and last `Current` graph.
        let checked: Vec<usize> = (0..ops.len()).filter(|&i| ops[i].check).collect();
        for &i in checked.iter().skip(1).rev().skip(1) {
            ops[i].check = false;
        }
        let warmup = ops.iter().take(6).map(|op| op.spec.clone()).collect();
        Inputs {
            workload: Workload::PodSnmpMixed,
            scale,
            background,
            warmup,
            ops,
            burst: POD_BURST,
        }
    }
}

/// `pods` switches off one core router, `hosts_per_pod` 100 Mb/s hosts
/// each: the shape the repo's serve benchmark uses.
fn pod_network(pods: usize, hosts_per_pod: usize) -> Topology {
    let mut b = TopologyBuilder::new();
    let core = b.network("core");
    let lat = SimDuration::from_micros(10);
    for p in 0..pods {
        let s = b.network(&format!("s{p}"));
        b.link(s, core, gbps(10.0), lat).expect("core uplink");
        for j in 0..hosts_per_pod {
            let h = b.compute(&format!("h{p}x{j}"));
            b.link(h, s, mbps(100.0), lat).expect("host link");
        }
    }
    b.build().expect("pod network builds")
}

// ---------------------------------------------------------------------
// Span decorators over the public seams (traced run only).

/// Engine time inside a request.
struct SpanClock(SimClock);

impl Clock for SpanClock {
    fn advance(&mut self, d: SimDuration) -> CoreResult<()> {
        spans::timed(Layer::Advance, || self.0.advance(d))
    }
}

/// A collector whose polls are recorded as spans of `layer`.
struct SpanCollector<C> {
    inner: C,
    layer: Layer,
}

impl<C: Collector> Collector for SpanCollector<C> {
    fn refresh_topology(&mut self) -> CoreResult<()> {
        self.inner.refresh_topology()
    }
    fn topology(&self) -> CoreResult<Arc<Topology>> {
        self.inner.topology()
    }
    fn host_info(&self, name: &str) -> CoreResult<HostInfo> {
        self.inner.host_info(name)
    }
    fn poll(&mut self) -> CoreResult<bool> {
        spans::timed(self.layer, || self.inner.poll())
    }
    fn history(&self) -> &SampleHistory {
        self.inner.history()
    }
    fn topology_epoch(&self) -> u64 {
        self.inner.topology_epoch()
    }
    fn generation(&self) -> u64 {
        self.inner.generation()
    }
    fn now(&self) -> CoreResult<SimTime> {
        self.inner.now()
    }
    fn set_obs(&mut self, obs: &Obs) {
        self.inner.set_obs(obs)
    }
    fn describe(&self) -> String {
        self.inner.describe()
    }
    fn coverage(&self) -> Option<&[u32]> {
        self.inner.coverage()
    }
}

/// `collector`, behind a span decorator of `layer` when `traced`.
fn spanned<C: Collector + 'static>(collector: C, layer: Layer, traced: bool) -> Box<dyn Collector> {
    if traced {
        Box::new(SpanCollector {
            inner: collector,
            layer,
        })
    } else {
        Box::new(collector)
    }
}

/// PDUs kept for the codec probe.
const CODEC_SAMPLES: usize = 64;

/// SNMP round trips as spans; keeps the first PDUs it sees so the codec
/// probe times the real messages.
struct SpanTransport {
    inner: Arc<SimTransport>,
    pdus: Arc<Mutex<Vec<Pdu>>>,
}

impl Transport for SpanTransport {
    fn request(&self, agent: &str, req: &Pdu) -> SnmpResult<Pdu> {
        let resp = spans::timed(Layer::SnmpRequest, || self.inner.request(agent, req));
        let mut pdus = self.pdus.lock().expect("pdu sample lock");
        if pdus.len() < CODEC_SAMPLES {
            pdus.push(req.clone());
            pdus.extend(resp.iter().cloned());
        }
        resp
    }
}

// ---------------------------------------------------------------------
// The stacks.

/// A built system under test plus the handles the benchmark injects load
/// and reads counts through.
pub struct Stack {
    server: Server,
    sim: SharedSim,
    obs: Obs,
    /// Host ids by generator index.
    hosts: Vec<NodeId>,
    /// Persistent flows, oldest first.
    live: VecDeque<FlowHandle>,
    transport: Option<Arc<SimTransport>>,
    pdus: Arc<Mutex<Vec<Pdu>>>,
    traced: bool,
    /// Bench-owned modeler fed the served specs in lockstep (traced run).
    probe_modeler: Modeler,
    probe_obs: Obs,
    probe_ws: QueryWorkspace,
    probe_kernel: Option<WhatIfEngine>,
}

fn snmp_collector<T: Transport + Sync + 'static>(
    transport: Arc<T>,
    agents: Vec<String>,
    traced: bool,
) -> Box<dyn Collector> {
    let mut collector = SnmpCollector::new(transport, agents, SnmpCollectorConfig::default());
    let breaker = CircuitBreaker::new(BreakerConfig::default());
    collector.set_retry_observer(Arc::clone(&breaker) as _);
    spanned(
        BreakerCollector::wrap(collector, breaker),
        Layer::Poll,
        traced,
    )
}

impl Stack {
    /// Set-up: topology, background flows, discovery and warm-up. With
    /// `traced`, the span decorators sit on every seam; without, the
    /// program runs exactly as a caller would assemble it.
    pub fn build(inputs: &Inputs, traced: bool) -> Stack {
        let scale = inputs.scale;
        let pod = inputs.workload == Workload::PodSnmpMixed;
        let tree = (!pod).then(|| FatTree::build(scale.k).expect("fat-tree builds"));
        let topo = match &tree {
            Some(tree) => tree.topology().clone(),
            None => pod_network(scale.pods, scale.hosts_per_pod),
        };
        let hosts = match &tree {
            Some(tree) => tree.hosts().to_vec(),
            None => topo.compute_nodes(),
        };
        let mut sim = Simulator::new(topo).expect("simulator");
        let mut live = VecDeque::with_capacity(inputs.background.len());
        for b in &inputs.background {
            let (src, dst) = (hosts[b.src], hosts[b.dst]);
            let params = match b.cbr {
                Some(rate) => FlowParams::cbr(src, dst, rate),
                None => FlowParams::greedy(src, dst),
            };
            live.push_back(sim.start_flow(params).expect("background flow"));
        }
        sim.run_for(SETTLE).expect("settle");
        let sim = share(sim);

        let pdus = Arc::new(Mutex::new(Vec::new()));
        let mut transport = None;
        let collector: Box<dyn Collector> = match &tree {
            Some(tree) => {
                let children = shard_fabric(tree, &sim, 7)
                    .expect("shard fabric")
                    .into_iter()
                    .map(|s| spanned(s, Layer::ChildPoll, traced))
                    .collect();
                spanned(MultiCollector::new(children), Layer::Poll, traced)
            }
            None => {
                let t = Arc::new(SimTransport::new());
                let agents = register_all_agents(&t, &sim, "public");
                transport = Some(Arc::clone(&t));
                if traced {
                    let t = Arc::new(SpanTransport {
                        inner: t,
                        pdus: Arc::clone(&pdus),
                    });
                    snmp_collector(t, agents, true)
                } else {
                    snmp_collector(t, agents, false)
                }
            }
        };
        let clock = SimClock(Arc::clone(&sim));
        let clock: Box<dyn Clock> = if traced {
            Box::new(SpanClock(clock))
        } else {
            Box::new(clock)
        };
        let mut remos = Remos::new(collector, clock, RemosConfig::default());
        // One registry for the facade, modeler and collectors, so counts
        // read at the same boundaries the spans are taken at.
        let obs = Obs::new();
        remos.set_obs(obs.clone());
        remos.refresh_topology().expect("discovery");

        let cfg = if pod {
            ServerConfig {
                default_allowance: None,
                // Quotas on, sized never to shed.
                quota: QuotaConfig {
                    rate_milli_per_sec: 1_000_000,
                    burst_milli: 1_000_000,
                    cost_milli: 1_000,
                },
                weights: POD_TENANTS
                    .iter()
                    .map(|&(t, w)| (t.to_string(), w))
                    .collect(),
                ..ServerConfig::default()
            }
        } else {
            ServerConfig {
                default_allowance: None,
                quota: QuotaConfig {
                    rate_milli_per_sec: 0,
                    ..QuotaConfig::default()
                },
                ..ServerConfig::default()
            }
        };
        let mut server = Server::new(remos, cfg);
        for spec in &inputs.warmup {
            server
                .submit(ServeRequest::new("warmup", spec.clone()))
                .expect("warm-up admitted");
            let out = server.serve_next().expect("warm-up served");
            out.result.expect("warm-up answered");
        }

        let probe_obs = Obs::new();
        let mut probe_modeler = Modeler::new(ModelerConfig::default());
        probe_modeler.set_obs(&probe_obs);
        let mut stack = Stack {
            server,
            sim,
            obs,
            hosts,
            live,
            transport,
            pdus,
            traced,
            probe_modeler,
            probe_obs,
            probe_ws: QueryWorkspace::new(),
            probe_kernel: None,
        };
        if traced {
            // The shadow modeler must enter the lap with the plan cache
            // the server's modeler has.
            for spec in &inputs.warmup {
                stack.probe(spec);
            }
        }
        stack
    }
}

// ---------------------------------------------------------------------
// Running a lap.

/// Which probe shadowed a request in the traced run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProbeKind {
    /// `Modeler::get_graph_in`, plan-cache hit.
    GraphWarm,
    /// `Modeler::get_graph_in`, plan-cache miss.
    GraphCold,
    /// `Modeler::flow_info`.
    Flows,
    /// `WhatIfEngine::estimate_with` on the request's flows.
    WhatifKernel,
}

/// One request of a lap, as the lap loop saw it.
#[derive(Clone, Copy, Debug)]
pub struct RequestRecord {
    /// `submit` call to `ServeOutcome` returned.
    pub latency_ns: u64,
    /// `submit` returned to `serve_next` called for it.
    pub queue_wait_ns: u64,
    /// Span ids (traced run; 0 otherwise).
    pub submit_span: u32,
    pub serve_span: u32,
    /// Lockstep probe of the layer that answered it (traced run).
    pub probe: Option<(ProbeKind, u64)>,
    /// Replay steps and flows of a what-if answer (0 otherwise).
    pub replay_steps: u64,
    pub whatif_flows: usize,
}

/// What one lap produced.
#[derive(Debug, Default)]
pub struct Lap {
    pub requests: Vec<RequestRecord>,
    /// Wall time of injection + submit + serve, checks excluded.
    pub busy_ns: u64,
    pub failed: usize,
    /// Fold of every answer's digest, in serve order.
    pub digest: u64,
    /// False when a sampled answer differed from its reference.
    pub reference_ok: bool,
    pub queue_depth_max: usize,
}

/// Counts read from the program's own registries.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counts {
    pub recomputes: u64,
    pub routing_rebuilds: u64,
    pub plan_hits: u64,
    pub plan_misses: u64,
    pub dirty_shards: u64,
    pub snmp_retries: u64,
    pub snmp_bytes: u64,
    pub shed: u64,
}

impl Counts {
    /// Counts accumulated since `earlier`.
    pub fn since(&self, earlier: &Counts) -> Counts {
        Counts {
            recomputes: self.recomputes - earlier.recomputes,
            routing_rebuilds: self.routing_rebuilds - earlier.routing_rebuilds,
            plan_hits: self.plan_hits - earlier.plan_hits,
            plan_misses: self.plan_misses - earlier.plan_misses,
            dirty_shards: self.dirty_shards - earlier.dirty_shards,
            snmp_retries: self.snmp_retries - earlier.snmp_retries,
            snmp_bytes: self.snmp_bytes - earlier.snmp_bytes,
            shed: self.shed - earlier.shed,
        }
    }
}

fn answer_digest(result: &QueryResult) -> u64 {
    match result {
        QueryResult::Graph(g) => g.digest(),
        QueryResult::Fcts(r) => r.fct_digest,
        QueryResult::Peers(p) => p.len() as u64,
        QueryResult::Flows(r) => r.all_grants().fold(DIGEST_SEED, |d, g| {
            let q = &g.bandwidth;
            [q.min, q.q1, q.median, q.q3, q.max, q.mean, q.accuracy]
                .iter()
                .fold(d, |d, v| fold(d, v.to_bits()))
                .wrapping_add(g.latency.as_nanos())
                .wrapping_add(u64::from(g.fully_satisfied))
        }),
    }
}

fn without_provenance(mut g: RemosGraph) -> RemosGraph {
    g.provenance = None;
    g
}

impl Stack {
    pub fn counts(&self) -> Counts {
        let m = self.obs.metrics_snapshot();
        let counter = |name: &str| m.counters.get(name).copied().unwrap_or(0);
        let sim = self.sim.read();
        let stats = self
            .transport
            .as_ref()
            .map(|t| t.stats())
            .unwrap_or_default();
        Counts {
            recomputes: sim.full_recomputes() + sim.scoped_recomputes(),
            routing_rebuilds: sim.routing_rebuilds(),
            plan_hits: counter("modeler_plan_cache_hits_total"),
            plan_misses: counter("modeler_plan_cache_misses_total"),
            dirty_shards: m.histograms.get("multi_dirty_shards").map_or(0, |h| h.sum),
            snmp_retries: counter("snmp_retries_total"),
            snmp_bytes: stats.request_bytes + stats.response_bytes,
            shed: counter("serve_quota_shed_total")
                + counter("serve_overload_shed_total")
                + counter("serve_deadline_shed_total"),
        }
    }

    /// Open a span in the traced run; 0 (no span) otherwise.
    fn begin(&self, layer: Layer) -> u32 {
        if self.traced {
            spans::begin(layer)
        } else {
            0
        }
    }

    fn end(&self, span: u32, request: u64) {
        if self.traced {
            spans::end(span, request);
        }
    }

    fn inject(&mut self, churn: &Churn) {
        let mut sim = self.sim.lock();
        if let Some(oldest) = self.live.pop_front() {
            sim.stop_flow(oldest).expect("persistent flow stops");
        }
        let (s, d) = churn.greedy;
        let h = sim
            .start_flow(FlowParams::greedy(self.hosts[s], self.hosts[d]))
            .expect("greedy flow");
        self.live.push_back(h);
        for (s, d, bytes) in churn.bulks {
            sim.start_flow(FlowParams::bulk(self.hosts[s], self.hosts[d], bytes))
                .expect("bulk flow");
        }
    }

    /// Replay the lap's first `requests` operations through
    /// `Server::submit` / `Server::serve_next`:
    /// closed loop, one client, `burst` requests outstanding. `verify`
    /// compares the sampled answers with their references (first lap
    /// only: every later lap must fold to the same digest).
    pub fn run_lap(&mut self, inputs: &Inputs, requests: usize, verify: bool) -> Lap {
        let mut lap = Lap {
            digest: DIGEST_SEED,
            reference_ok: true,
            ..Lap::default()
        };
        for burst in inputs.ops[..requests].chunks(inputs.burst) {
            let reqs: Vec<ServeRequest> = burst
                .iter()
                .map(|op| ServeRequest::new(op.tenant, op.spec.clone()))
                .collect();
            // (admission id, submit start, submit end, submit span, op)
            let mut pending: Vec<(u64, Instant, Instant, u32, &Op)> =
                Vec::with_capacity(burst.len());
            let mut served: Vec<(&Op, ServeOutcome, usize)> = Vec::with_capacity(burst.len());

            let burst_start = Instant::now();
            for (op, req) in burst.iter().zip(reqs) {
                if let Some(churn) = &op.churn {
                    self.inject(churn);
                }
                let t0 = Instant::now();
                let span = self.begin(Layer::Submit);
                let admitted = catch_unwind(AssertUnwindSafe(|| self.server.submit(req)));
                let id = match &admitted {
                    Ok(Ok(id)) => *id,
                    _ => spans::NO_REQUEST,
                };
                self.end(span, id);
                match admitted {
                    Ok(Ok(id)) => pending.push((id, t0, Instant::now(), span, op)),
                    // Shed, rejected or panicked at admission.
                    _ => lap.failed += 1,
                }
                lap.queue_depth_max = lap.queue_depth_max.max(self.server.queue_depth());
            }
            for _ in 0..pending.len() {
                let start = Instant::now();
                let span = self.begin(Layer::Serve);
                let outcome = catch_unwind(AssertUnwindSafe(|| self.server.serve_next()));
                let done = Instant::now();
                let id = match &outcome {
                    Ok(Some(o)) => o.id,
                    _ => spans::NO_REQUEST,
                };
                self.end(span, id);
                let slot = pending.iter().position(|p| p.0 == id);
                // A panic or an empty queue leaves its request in `pending`,
                // which is counted as failed below.
                if let (Ok(Some(o)), Some(slot)) = (outcome, slot) {
                    let (_, t0, t1, submit_span, op) = pending.swap_remove(slot);
                    lap.requests.push(RequestRecord {
                        latency_ns: (done - t0).as_nanos() as u64,
                        queue_wait_ns: start.saturating_duration_since(t1).as_nanos() as u64,
                        submit_span,
                        serve_span: span,
                        probe: None,
                        replay_steps: 0,
                        whatif_flows: 0,
                    });
                    served.push((op, o, lap.requests.len() - 1));
                }
            }
            lap.busy_ns += burst_start.elapsed().as_nanos() as u64;
            lap.failed += pending.len();

            // Untimed: check, digest and (traced) shadow every answer.
            for (op, outcome, index) in served {
                let result = match (outcome.rung, outcome.result) {
                    (Rung::Full, Ok(result)) => result,
                    // Degraded, shed after admission, or an error.
                    _ => {
                        lap.failed += 1;
                        continue;
                    }
                };
                lap.digest = fold(lap.digest, answer_digest(&result));
                if self.traced {
                    lap.requests[index].probe = self.probe(&op.spec);
                }
                if let QueryResult::Fcts(r) = &result {
                    lap.requests[index].replay_steps = r.replay_steps;
                    lap.requests[index].whatif_flows = r.flows.len();
                }
                if verify && op.check && !self.matches_reference(inputs, &op.spec, result) {
                    lap.reference_ok = false;
                }
            }
        }
        lap
    }

    /// `n` operations through `Remos::run_within` without the server,
    /// carrying on from operation `from` of the lap (wrapping): what the
    /// serving layer adds is the difference. Returns `(span id, lockstep
    /// probe)` per call. With `count_allocs` the calls run under the
    /// counting allocator instead (which slows them, so they are not the
    /// ones that are timed).
    pub fn run_direct(
        &mut self,
        inputs: &Inputs,
        from: usize,
        n: usize,
        count_allocs: bool,
    ) -> Vec<(u32, Option<(ProbeKind, u64)>)> {
        let mut out = Vec::new();
        for op in inputs.ops.iter().cycle().skip(from).take(n) {
            if let Some(churn) = &op.churn {
                self.inject(churn);
            }
            let spec = op.spec.clone();
            let span = spans::begin(Layer::ApiRun);
            crate::alloc::count(count_allocs);
            let result = catch_unwind(AssertUnwindSafe(|| {
                self.server.remos().run_within(spec, QueryBudget::UNLIMITED)
            }));
            crate::alloc::count(false);
            spans::end(span, spans::NO_REQUEST);
            if matches!(result, Ok(Ok(_))) {
                out.push((span, self.probe(&op.spec)));
            }
        }
        out
    }

    /// Call the layer that answers `spec` directly, on the collector's
    /// current samples, and time it.
    fn probe(&mut self, spec: &QuerySpec) -> Option<(ProbeKind, u64)> {
        let col = self.server.remos().collector();
        match spec {
            QuerySpec::Graph(q) => {
                let hits = self.probe_obs.counter("modeler_plan_cache_hits_total");
                let before = hits.get();
                let t = Instant::now();
                let g =
                    self.probe_modeler
                        .get_graph_in(col, &q.nodes, q.timeframe, &mut self.probe_ws);
                let ns = t.elapsed().as_nanos() as u64;
                g.ok()?;
                let kind = if hits.get() > before {
                    ProbeKind::GraphWarm
                } else {
                    ProbeKind::GraphCold
                };
                Some((kind, ns))
            }
            QuerySpec::Flows(q) => {
                let t = Instant::now();
                let r = self.probe_modeler.flow_info(col, &q.request, q.timeframe);
                let ns = t.elapsed().as_nanos() as u64;
                r.ok().map(|_| (ProbeKind::Flows, ns))
            }
            QuerySpec::WhatIf(q) => {
                let topo = col.topology().ok()?;
                let flows = whatif_flows(&topo, &q.flows)?;
                let util = col.history().latest()?.util.clone();
                let engine = self.probe_kernel.get_or_insert_with(|| {
                    WhatIfEngine::new(Arc::clone(&topo), Arc::new(Routing::new(&topo)))
                });
                let t = Instant::now();
                let r = engine.estimate_with(&flows, Some(&util), None);
                let ns = t.elapsed().as_nanos() as u64;
                r.ok().map(|_| (ProbeKind::WhatifKernel, ns))
            }
            QuerySpec::Reachable(_) => None,
        }
    }

    /// Compare a served answer with one built in-process from public
    /// APIs that share no state with the stack: an `OracleCollector`
    /// read of the simulator plus a capacity-0 (always cold) `Modeler`,
    /// or a `Full`-mode what-if engine over the oracle's utilization.
    /// Fabric answers must match bit for bit. SNMP answers come from
    /// differenced octet counters (and `ifSpeed` saturates at 2^32-1),
    /// so their measured load must match the oracle's within 1% of
    /// capacity.
    fn matches_reference(
        &mut self,
        inputs: &Inputs,
        spec: &QuerySpec,
        answer: QueryResult,
    ) -> bool {
        let mut oracle = OracleCollector::new(Arc::clone(&self.sim));
        if !matches!(oracle.poll(), Ok(true)) {
            return false;
        }
        match (spec, answer) {
            (QuerySpec::Graph(q), QueryResult::Graph(served)) => {
                let cold = Modeler::new(ModelerConfig {
                    plan_cache_capacity: 0,
                    ..ModelerConfig::default()
                });
                let Ok(reference) = cold.get_graph(&oracle, &q.nodes, q.timeframe) else {
                    return false;
                };
                if inputs.workload == Workload::PodSnmpMixed {
                    return graphs_agree(&served, &reference, 0.01);
                }
                without_provenance(served).digest() == without_provenance(reference).digest()
            }
            (QuerySpec::WhatIf(q), QueryResult::Fcts(served)) => {
                let Ok(topo) = oracle.topology() else {
                    return false;
                };
                let Some(flows) = whatif_flows(&topo, &q.flows) else {
                    return false;
                };
                let Some(snapshot) = oracle.history().latest() else {
                    return false;
                };
                let mut engine =
                    WhatIfEngine::new(Arc::clone(&topo), Arc::new(Routing::new(&topo)));
                engine.set_mode(SolverMode::Full);
                match engine.estimate_with(&flows, Some(&snapshot.util), None) {
                    Ok(reference) => reference.fct_digest == served.fct_digest,
                    Err(_) => false,
                }
            }
            _ => false,
        }
    }

    /// Encode + decode cost of the PDUs the traced lap actually sent, in
    /// ns per PDU; 0 when no SNMP traffic was seen.
    pub fn codec_probe(&self) -> f64 {
        let pdus = self.pdus.lock().expect("pdu sample lock");
        if pdus.is_empty() {
            return 0.0;
        }
        const ROUNDS: usize = 200;
        let t = Instant::now();
        for _ in 0..ROUNDS {
            for pdu in pdus.iter() {
                let back = codec::decode(codec::encode(std::hint::black_box(pdu)));
                std::hint::black_box(back.expect("own encoding decodes"));
            }
        }
        t.elapsed().as_nanos() as f64 / (ROUNDS * pdus.len()) as f64
    }
}

fn whatif_flows(topo: &Topology, flows: &[HypotheticalFlow]) -> Option<Vec<WhatIfFlow>> {
    flows
        .iter()
        .map(|f| {
            Some(WhatIfFlow {
                src: topo.lookup(&f.src).ok()?,
                dst: topo.lookup(&f.dst).ok()?,
                size_bytes: f.size_bytes,
                arrival: f.arrival,
            })
        })
        .collect()
}

/// Same links by endpoint names (an SNMP-discovered topology numbers
/// its nodes differently), and every direction's median load (capacity
/// minus available bandwidth) within `tolerance` of the link's capacity.
fn graphs_agree(a: &RemosGraph, b: &RemosGraph, tolerance: f64) -> bool {
    // (from, to) -> (load, capacity), one entry per link direction.
    let directed = |g: &RemosGraph| -> std::collections::BTreeMap<(String, String), (f64, f64)> {
        g.links
            .iter()
            .flat_map(|l| {
                let (a, b) = (g.nodes[l.a].name.clone(), g.nodes[l.b].name.clone());
                let load = |s: usize| (l.capacity - l.avail[s].median, l.capacity);
                [((a.clone(), b.clone()), load(0)), ((b, a), load(1))]
            })
            .collect()
    };
    let (a, b) = (directed(a), directed(b));
    a.len() == b.len()
        && a.iter()
            .zip(&b)
            .all(|((ka, (load_a, cap_a)), (kb, (load_b, cap_b)))| {
                ka == kb && (load_a - load_b).abs() <= tolerance * cap_a.min(*cap_b)
            })
}
