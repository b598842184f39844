//! The Modeler: the application-oriented half of Remos (§5).
//!
//! "The Modeler is a library that can be linked with applications. It
//! satisfies application requests based on the information provided by the
//! Collector. The primary tasks of the modeler are as follows: generating
//! a logical topology, associating appropriate static and dynamic
//! information with each of the network components, and satisfying flow
//! requests based on the logical topology."
//!
//! Every query, whichever entry point it arrives through, passes the
//! same four stages:
//!
//! 1. **validate** — `QuerySpec::validate`: pure, on the spec alone.
//! 2. **measure** — the caller's business: [`crate::Remos`] drives its
//!    collector and clock; the `Modeler::{get_graph, get_graph_in,
//!    flow_info}` wrappers take the collector's samples as they are.
//! 3. **prepare** — `Modeler::prepare`: every collector *read*. One
//!    lookup of the structural [`plan::QueryPlan`] (logicalization of
//!    the target set, cached per `(topology_epoch, target set)`, over
//!    routes memoised per `topology_epoch`), a what-if query's resolved
//!    flows, and the sample selection for the timeframe.
//! 4. **answer** — `Modeler::answer`: `&self`, pure over what stage 3
//!    produced. Annotation, flow solving, what-if replay, the
//!    `min_quality` floor and provenance stripping all live here and
//!    nowhere else.
//!
//! See `docs/PERFORMANCE.md` ("Query-path caching") for the plan-cache
//! invalidation rules and the bit-equality argument.

pub mod flowsolve;
pub mod logical;
pub mod plan;
pub mod predict;
pub mod sharing;

use crate::collector::{Collector, RewindBuf, SampleHistory};
use crate::error::{CoreResult, InvalidQueryKind, RemosError};
use crate::flows::{FlowGrant, FlowInfoRequest, FlowInfoResponse};
use crate::graph::{RemosGraph, RemosLink, RemosNode};
use crate::provenance::Provenance;
use crate::quality::DataQuality;
use crate::query::{GraphQuery, Query, QueryResult, QuerySpec, WhatIfQuery};
use crate::stats::Quartiles;
use crate::timeframe::Timeframe;
use flowsolve::{ResourceModel, SampleSolver, StageFlow};
use plan::{PlanCache, QueryPlan};
use predict::{predict, PredictorKind};
use remos_net::topology::{NodeId, NodeKind, Topology};
use remos_net::whatif::{WhatIfEngine, WhatIfFlow, WhatIfReport};
use remos_net::{Bps, SimTime};
use remos_obs::sync::Mutex;
use remos_obs::{Counter, Obs};
use sharing::SharingPolicy;
use std::fmt;
use std::sync::Arc;

/// Default number of query plans the modeler keeps cached.
pub const DEFAULT_PLAN_CACHE_CAPACITY: usize = 32;

/// Modeler configuration.
#[derive(Clone, Copy, Debug)]
pub struct ModelerConfig {
    /// Predictor used for `Timeframe::Future` queries.
    pub predictor: PredictorKind,
    /// How external traffic competes with queried flows.
    pub sharing: SharingPolicy,
    /// Bounded plan-cache capacity, in plans. `0` disables caching
    /// entirely: every query routes and logicalizes from scratch, over a
    /// routing table no other query sees — the reference the equivalence
    /// suites compare cached answers to.
    pub plan_cache_capacity: usize,
}

impl Default for ModelerConfig {
    fn default() -> Self {
        ModelerConfig {
            predictor: PredictorKind::WindowMean,
            sharing: SharingPolicy::default(),
            plan_cache_capacity: DEFAULT_PLAN_CACHE_CAPACITY,
        }
    }
}

/// The Modeler.
pub struct Modeler {
    /// Configuration.
    pub cfg: ModelerConfig,
    /// Epoch-keyed LRU of structural query plans. The entries are
    /// immutable `Arc`s, so a panicking holder cannot leave the cache
    /// inconsistent and the poison-ignoring lock is sound.
    cache: Mutex<PlanCache>,
    /// Plan-cache counters (hit/miss/evict), re-wired by [`Modeler::set_obs`].
    metrics: ModelerMetrics,
}

#[derive(Default)]
struct ModelerMetrics {
    plan_cache_hits: Counter,
    plan_cache_misses: Counter,
    plan_cache_evictions: Counter,
}

impl ModelerMetrics {
    fn new(obs: &Obs) -> ModelerMetrics {
        ModelerMetrics {
            plan_cache_hits: obs.counter("modeler_plan_cache_hits_total"),
            plan_cache_misses: obs.counter("modeler_plan_cache_misses_total"),
            plan_cache_evictions: obs.counter("modeler_plan_cache_evictions_total"),
        }
    }
}

impl fmt::Debug for Modeler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Modeler").field("cfg", &self.cfg).finish_non_exhaustive()
    }
}

impl Default for Modeler {
    fn default() -> Self {
        Modeler::new(ModelerConfig::default())
    }
}

/// A set of per-physical-dirlink utilization samples selected for a query.
#[derive(Default)]
pub(crate) struct SelectedSamples {
    /// (sample end time, utilization per physical dir-link index).
    samples: Vec<(SimTime, Vec<Bps>)>,
    /// Per physical dir-link: the worst measurement quality among the
    /// selected samples (entries the collector never measured are
    /// `Missing`).
    quality: Vec<DataQuality>,
    /// Where the history's older samples are rebuilt.
    rewind: RewindBuf,
    /// A `Future` prediction's per-dir-link series.
    series: Series,
}

/// The whole history as per-dir-link series, gathered in one walk: what
/// a `Future` prediction reads. Only the values that move are stored.
#[derive(Default)]
struct Series {
    /// Sample end times, newest first.
    times: Vec<SimTime>,
    /// The last visited sample's values, padded or truncated to the
    /// plan's dir-links.
    last: Vec<Bps>,
    /// `(d, k, v)`: sample `k` (newest = 0) reads `v` at dir-link `d`,
    /// which sample `k - 1` does not; sorted by `(d, k)`.
    changes: Vec<(usize, usize, Bps)>,
    /// One dir-link's series, oldest first.
    one: Vec<(SimTime, Bps)>,
}

impl Series {
    /// Walk `history` newest → oldest once, noting every sample's time
    /// and every value that differs from the sample after it.
    fn gather(&mut self, history: &SampleHistory, n: usize, buf: &mut RewindBuf) {
        self.times.clear();
        self.changes.clear();
        let mut walk = history.rewind(buf);
        while let Some(s) = walk.next_sample() {
            let value = |d: usize| s.util.get(d).copied().unwrap_or(0.0);
            let k = self.times.len();
            if k == 0 {
                self.last.clear();
                self.last.extend((0..n).map(value));
            }
            for (d, last) in self.last.iter_mut().enumerate() {
                let v = value(d);
                if v.to_bits() != last.to_bits() {
                    self.changes.push((d, k, v));
                    *last = v;
                }
            }
            self.times.push(s.t);
        }
        self.changes.sort_unstable_by_key(|&(d, k, _)| (d, k));
    }

    /// Predict each dir-link `horizon` past the newest sample into
    /// `util`, from its series oldest first, as [`predict`] takes it.
    fn predict_into(
        &mut self,
        newest: &[Bps],
        kind: PredictorKind,
        horizon: remos_net::SimDuration,
        util: &mut [Bps],
    ) {
        let m = self.times.len();
        self.one.clear();
        self.one.resize(m, (SimTime::ZERO, 0.0));
        let mut changes = self.changes.iter().peekable();
        for (d, u) in util.iter_mut().enumerate() {
            let mut v = newest.get(d).copied().unwrap_or(0.0);
            for (k, &t) in self.times.iter().enumerate() {
                if let Some(&(_, _, changed)) = changes.next_if(|&&(cd, ck, _)| (cd, ck) == (d, k))
                {
                    v = changed;
                }
                self.one[m - 1 - k] = (t, v);
            }
            *u = predict(kind, &self.one, horizon);
        }
    }
}

impl SelectedSamples {
    /// How an answer asked at `timeframe` was derived from these
    /// samples: `worst_quality` of the data behind it, by `solver`, over
    /// a scope of `scope` links or path resources.
    fn provenance(
        &self,
        timeframe: Timeframe,
        worst_quality: DataQuality,
        solver: String,
        scope: usize,
    ) -> Provenance {
        let times = self.samples.iter().map(|(t, _)| *t);
        Provenance {
            timeframe,
            snapshots: self.samples.len(),
            newest_sample: times.clone().max(),
            oldest_sample: times.min(),
            worst_quality,
            solver,
            scope,
            degraded: false,
            source: None,
        }
    }
}

/// What stage three read for one query besides its plan and samples:
/// what its kind of answer needs from the collector's topology.
#[derive(Default)]
pub(crate) struct Prepared {
    /// A what-if query's flows, endpoints resolved, in input order.
    flows: Vec<WhatIfFlow>,
    /// A what-if query's endpoints, sorted and deduplicated: its plan's
    /// node set.
    endpoints: Vec<NodeId>,
}

/// Buffers [`Modeler::answer`] works in, reused across queries.
#[derive(Default)]
pub(crate) struct AnswerScratch {
    /// Per-(link, direction) availability values.
    vals: Vec<Bps>,
    /// Quartile selection scratch.
    sort_buf: Vec<f64>,
    /// The annotated graph, rebuilt in place. A graph answer moves it
    /// out; a caller that puts it back (as [`Modeler::get_graph_in`]
    /// does) keeps every node name and link slot for the next query.
    graph: RemosGraph,
    /// The what-if kernel of the last what-if answer, reused while it
    /// serves the plan's topology and routing table (`WhatIfEngine::serves`)
    /// and rebuilt when it does not.
    kernel: Option<WhatIfEngine>,
}

/// Reusable buffers for the query path: what `Modeler::prepare` reads
/// from the collector, plus the scratch `Modeler::answer` works in.
/// One workspace per serving thread makes the warm cached-query path
/// (plan-cache hit, `Timeframe::Current`/`Window`, unchanged topology)
/// allocation-free: every `Vec` and `String` below settles at its
/// high-water capacity after the first few queries and is overwritten
/// in place from then on.
#[derive(Default)]
pub struct QueryWorkspace {
    /// Node list of the spec [`Modeler::get_graph_in`] builds.
    nodes: Vec<String>,
    /// Canonical (sorted, deduped) target-name cache key.
    key: Vec<String>,
    /// Host table or resolved what-if flows.
    pub(crate) prepared: Prepared,
    /// Selected utilization samples.
    pub(crate) selected: SelectedSamples,
    /// Stage-four scratch.
    pub(crate) scratch: AnswerScratch,
}

impl QueryWorkspace {
    /// Empty workspace; buffers grow to steady-state size on first use.
    pub fn new() -> QueryWorkspace {
        QueryWorkspace::default()
    }

    /// The graph produced by the most recent successful
    /// [`Modeler::get_graph_in`] call through this workspace.
    pub fn graph(&self) -> &RemosGraph {
        &self.scratch.graph
    }
}

/// Why a reachability query has no business in the prepare or answer stage.
const UNPLANNED: &str = "reachability is answered from the topology alone";

/// Overwrite `dst` with `src`, reusing each slot's `String` buffer.
fn copy_names<'a>(dst: &mut Vec<String>, src: impl ExactSizeIterator<Item = &'a String>) {
    dst.truncate(src.len());
    for (i, n) in src.enumerate() {
        match dst.get_mut(i) {
            Some(slot) => slot.clone_from(n),
            None => dst.push(n.clone()),
        }
    }
}

/// Enforce a query's `min_quality` floor.
fn check_floor(floor: Option<DataQuality>, actual: DataQuality) -> CoreResult<()> {
    match floor {
        Some(required) if !actual.meets(required) => {
            Err(RemosError::QualityTooLow { required, actual })
        }
        _ => Ok(()),
    }
}

/// How much to widen an estimate derived from data `age` old: grows
/// linearly (10 s of staleness doubles the spread) and saturates at 4×.
fn stale_widen_factor(age: remos_net::SimDuration) -> f64 {
    (1.0 + age.as_secs_f64() / 10.0).min(4.0)
}

/// Degrade a quantity's summary according to the quality of the data it
/// was derived from: fresh passes through, stale widens the spread with
/// age, missing yields total uncertainty over `[0, ceiling]`.
pub(crate) fn degrade(q: &Quartiles, quality: DataQuality, ceiling: Bps) -> Quartiles {
    match quality {
        DataQuality::Fresh => *q,
        DataQuality::Stale { age } => q.widen(stale_widen_factor(age)),
        DataQuality::Missing => Quartiles {
            min: 0.0,
            q1: 0.0,
            median: q.median.clamp(0.0, ceiling),
            q3: ceiling,
            max: ceiling,
            mean: q.mean.clamp(0.0, ceiling),
            samples: q.samples,
            accuracy: 0.0,
        },
    }
}

impl Modeler {
    /// Modeler with explicit configuration.
    pub fn new(cfg: ModelerConfig) -> Modeler {
        Modeler {
            cfg,
            cache: Mutex::new(PlanCache::new(cfg.plan_cache_capacity)),
            metrics: ModelerMetrics::default(),
        }
    }

    /// Re-wire the plan-cache counters onto `obs`.
    pub fn set_obs(&mut self, obs: &Obs) {
        self.metrics = ModelerMetrics::new(obs);
    }

    fn resolve_names(topo: &Topology, names: &[String]) -> CoreResult<Vec<remos_net::topology::NodeId>> {
        names
            .iter()
            .map(|n| topo.lookup(n).map_err(|_| RemosError::UnknownNode(n.clone())))
            .collect()
    }

    /// Obtain the structural plan for `names`: cache hit when the
    /// collector's topology epoch and the canonical target set match a
    /// resident plan, a build over the topology's routing table otherwise
    /// (capacity 0: always a build, over a table of its own). On a hit
    /// with a stable query set the only work is name validation and
    /// rebuilding the canonical key in the caller's buffer, so the warm
    /// path allocates nothing.
    pub fn plan_for(
        &self,
        col: &dyn Collector,
        names: &[String],
        key: &mut Vec<String>,
    ) -> CoreResult<Arc<QueryPlan>> {
        let topo = col.topology()?;
        // Resolve in query order first so unknown-node errors name the
        // first offending entry as written, exactly like the cold path.
        for n in names {
            topo.lookup(n).map_err(|_| RemosError::UnknownNode(n.clone()))?;
        }
        copy_names(key, names.iter());
        key.sort_unstable();
        key.dedup();
        self.plan_for_key(col, topo, key)
    }

    /// The plan for the canonical (sorted, deduplicated) name set `key`,
    /// every name known to `topo`, the collector's current topology.
    fn plan_for_key(
        &self,
        col: &dyn Collector,
        topo: Arc<Topology>,
        key: &[String],
    ) -> CoreResult<Arc<QueryPlan>> {
        let epoch = col.topology_epoch();
        if let Some(cached) = self.cache.lock().get(epoch, key) {
            // Defense in depth: an epoch match with a different topology
            // Arc means a collector swapped its view without bumping the
            // epoch — treat as a miss rather than serve a stale plan.
            if Arc::ptr_eq(&cached.topo, &topo) {
                self.metrics.plan_cache_hits.inc();
                return Ok(cached);
            }
        }
        self.metrics.plan_cache_misses.inc();
        // Plans are built from the canonical ordering (logicalization is
        // order-insensitive), so a cold rebuild reproduces a cached plan
        // bit for bit.
        let targets = Self::resolve_names(&topo, key)?;
        let routing = self.cache.lock().routing_for(&topo);
        let built = Arc::new(QueryPlan::build(epoch, topo, routing, &targets)?);
        if self.cache.lock().insert(epoch, key.to_vec(), Arc::clone(&built)) {
            self.metrics.plan_cache_evictions.inc();
        }
        Ok(built)
    }

    /// Overwrite `slot` with `(t, util padded/truncated to n)`, reusing
    /// the slot's utilization buffer.
    fn write_sample(slot: &mut (SimTime, Vec<Bps>), t: SimTime, util: &[Bps], n: usize) {
        slot.0 = t;
        slot.1.clear();
        slot.1.extend_from_slice(util);
        slot.1.resize(n, 0.0);
    }

    /// Pick (or synthesize) the utilization samples a timeframe refers
    /// to, into the caller's buffer. Older samples are rebuilt from the
    /// history newest → oldest, in one walk, into buffers the steady state
    /// reuses: once warm, no timeframe allocates.
    pub(crate) fn select_samples(
        &self,
        col: &dyn Collector,
        n_phys_dirlinks: usize,
        tf: Timeframe,
        out: &mut SelectedSamples,
    ) -> CoreResult<()> {
        // A covering collector's planes are in coverage order: only a
        // federation reads them.
        if col.coverage().is_some() {
            return Err(RemosError::Collector(format!("{}: not a full view", col.describe())));
        }
        let n = n_phys_dirlinks;
        let history = col.history();
        match tf {
            Timeframe::Current => {
                let latest = history.latest().ok_or(RemosError::InsufficientHistory {
                    needed: 1,
                    available: 0,
                })?;
                out.samples.truncate(1);
                if out.samples.is_empty() {
                    out.samples.push((latest.t, Vec::new()));
                }
                Self::write_sample(&mut out.samples[0], latest.t, &latest.util, n);
                out.quality.clear();
                out.quality.extend_from_slice(&latest.quality);
                out.quality.resize(n, DataQuality::Missing);
                Ok(())
            }
            Timeframe::Window(w) => {
                let latest_t = history
                    .latest()
                    .ok_or(RemosError::InsufficientHistory { needed: 1, available: 0 })?
                    .t;
                let SelectedSamples { samples, quality, rewind, .. } = out;
                // An estimate over a window is only as good as its worst
                // constituent sample, per dir-link.
                quality.clear();
                quality.resize(n, DataQuality::Fresh);
                let mut count = 0;
                let mut walk = history.rewind(rewind);
                while let Some(s) = walk.next_sample() {
                    if latest_t.saturating_since(s.t) > w {
                        continue;
                    }
                    for (d, q) in quality.iter_mut().enumerate() {
                        *q = q.worst(s.quality.get(d).copied().unwrap_or(DataQuality::Missing));
                    }
                    if count == samples.len() {
                        samples.push((s.t, Vec::new()));
                    }
                    Self::write_sample(&mut samples[count], s.t, s.util, n);
                    count += 1;
                }
                samples.truncate(count);
                if count == 0 {
                    return Err(RemosError::InsufficientHistory { needed: 1, available: 0 });
                }
                // Oldest first, the order the answer folds them in.
                samples.reverse();
                Ok(())
            }
            Timeframe::Future(h) => {
                let latest = history.latest().ok_or(RemosError::InsufficientHistory {
                    needed: 2,
                    available: 0,
                })?;
                let t_end = latest
                    .t
                    .checked_add(h)
                    .ok_or(InvalidQueryKind::HorizonPastClock { horizon: h })?;
                let SelectedSamples { samples, quality, rewind, series } = out;
                // A prediction inherits the quality of the newest data it
                // extrapolates from.
                quality.clear();
                quality.extend_from_slice(&latest.quality);
                quality.resize(n, DataQuality::Missing);
                samples.truncate(1);
                if samples.is_empty() {
                    samples.push((t_end, Vec::new()));
                }
                samples[0].0 = t_end;
                let util = &mut samples[0].1;
                util.clear();
                util.resize(n, 0.0);
                series.gather(history, n, rewind);
                series.predict_into(&latest.util, self.cfg.predictor, h, util);
                Ok(())
            }
        }
    }

    /// Worst quality over one logical direction's physical chain.
    fn logical_quality(
        phys: &[remos_net::topology::DirLink],
        quality: &[DataQuality],
    ) -> DataQuality {
        phys.iter()
            .map(|d| quality.get(d.index()).copied().unwrap_or(DataQuality::Missing))
            .fold(DataQuality::Fresh, DataQuality::worst)
    }

    /// Per-sample *availability* of one logical direction: the minimum
    /// over its physical chain of `capacity - utilization`, clamped to 0.
    fn logical_avail(
        topo: &Topology,
        phys: &[remos_net::topology::DirLink],
        util: &[Bps],
    ) -> Bps {
        phys.iter()
            .map(|d| {
                let cap = topo.link(d.link).capacity;
                (cap - util.get(d.index()).copied().unwrap_or(0.0)).max(0.0)
            })
            .fold(f64::INFINITY, f64::min)
    }

    /// Stage three of a query: every collector read it needs, into `ws`.
    /// One plan lookup over the spec's node names, the resolved flows for
    /// what-if answers, and the timeframe's sample selection.
    pub(crate) fn prepare(
        &self,
        col: &dyn Collector,
        spec: &QuerySpec,
        ws: &mut QueryWorkspace,
    ) -> CoreResult<Arc<QueryPlan>> {
        let (plan, tf) = self.plan_and_prepare(col, spec, &mut ws.key, &mut ws.prepared)?;
        self.select_samples(col, plan.topo.dir_link_count(), tf, &mut ws.selected)?;
        Ok(plan)
    }

    /// The per-query part of [`Modeler::prepare`], returning the plan and
    /// the timeframe whose samples the answer needs; a batch calls it per
    /// entry and shares one sample selection per distinct timeframe.
    pub(crate) fn plan_and_prepare(
        &self,
        col: &dyn Collector,
        spec: &QuerySpec,
        key: &mut Vec<String>,
        prepared: &mut Prepared,
    ) -> CoreResult<(Arc<QueryPlan>, Timeframe)> {
        let tf = spec.timeframe().ok_or_else(|| RemosError::Internal(UNPLANNED.into()))?;
        let plan = match spec {
            QuerySpec::Graph(q) => self.plan_for(col, &q.nodes, key)?,
            QuerySpec::Flows(q) => self.plan_for(col, &q.request.endpoint_names(), key)?,
            QuerySpec::WhatIf(q) => self.whatif_plan(col, q, key, prepared)?,
            QuerySpec::Reachable(_) => return Err(RemosError::Internal(UNPLANNED.into())),
        };
        Ok((plan, tf))
    }

    /// Resolve a what-if query's endpoints into `prepared`, once each, and
    /// return the plan over the hosts they name. Every endpoint must be a
    /// host — the replay routes host-to-host, and a switch would otherwise
    /// surface as a confusing [`RemosError::Disconnected`] from the
    /// planner; the first offending name in input order is reported.
    fn whatif_plan(
        &self,
        col: &dyn Collector,
        q: &WhatIfQuery,
        key: &mut Vec<String>,
        prepared: &mut Prepared,
    ) -> CoreResult<Arc<QueryPlan>> {
        let topo = col.topology()?;
        let host = |name: &String| {
            let id = topo.lookup(name).map_err(|_| RemosError::UnknownNode(name.clone()))?;
            if topo.node(id).kind != NodeKind::Compute {
                return Err(RemosError::from(InvalidQueryKind::NotAHost { node: name.clone() }));
            }
            Ok(id)
        };
        let Prepared { flows, endpoints } = prepared;
        flows.clear();
        endpoints.clear();
        for f in &q.flows {
            let (src, dst) = (host(&f.src)?, host(&f.dst)?);
            flows.push(WhatIfFlow { src, dst, size_bytes: f.size_bytes, arrival: f.arrival });
            endpoints.extend([src, dst]);
        }
        endpoints.sort_unstable();
        endpoints.dedup();
        // The plan key is the names in name order, as for every other
        // query, so a what-if and a graph query over one host set share a
        // plan.
        endpoints.sort_unstable_by(|&a, &b| topo.node(a).name.cmp(&topo.node(b).name));
        copy_names(key, endpoints.iter().map(|&id| &topo.node(id).name));
        self.plan_for_key(col, topo, key)
    }

    /// Stage four of a query: the answer, from what [`Modeler::prepare`]
    /// read. Pure — no collector or clock access — so a batch runs it on
    /// pool workers, and the one place the `min_quality` floor and the
    /// provenance opt-out are applied. `spec` must have passed
    /// `QuerySpec::validate`.
    pub(crate) fn answer(
        &self,
        plan: &QueryPlan,
        prepared: &Prepared,
        selected: &SelectedSamples,
        spec: &QuerySpec,
        scratch: &mut AnswerScratch,
    ) -> CoreResult<QueryResult> {
        match spec {
            QuerySpec::Graph(q) => {
                self.annotate_graph(plan, selected, q.timeframe, scratch)?;
                check_floor(q.min_quality, scratch.graph.worst_quality())?;
                let mut g = std::mem::take(&mut scratch.graph);
                if !q.provenance {
                    g.provenance = None;
                }
                Ok(QueryResult::Graph(g))
            }
            QuerySpec::Flows(q) => {
                let mut resp = self.flow_answer(plan, selected, &q.request, q.timeframe)?;
                check_floor(q.min_quality, resp.worst_quality())?;
                if !q.provenance {
                    for g in resp.all_grants_mut() {
                        g.provenance = None;
                    }
                }
                Ok(QueryResult::Flows(resp))
            }
            QuerySpec::WhatIf(q) => self
                .whatif_answer(plan, selected, q, &prepared.flows, &mut scratch.kernel)
                .map(QueryResult::Fcts),
            QuerySpec::Reachable(_) => Err(RemosError::Internal(UNPLANNED.into())),
        }
    }

    /// validate → prepare → answer over whatever samples the collector
    /// already holds: the stages behind the three public wrappers below.
    fn query(
        &self,
        col: &dyn Collector,
        spec: &QuerySpec,
        ws: &mut QueryWorkspace,
    ) -> CoreResult<QueryResult> {
        spec.validate()?;
        let plan = self.prepare(col, spec, ws)?;
        self.answer(&plan, &ws.prepared, &ws.selected, spec, &mut ws.scratch)
    }

    /// Build the annotated logical topology for `names` — the
    /// implementation of `remos_get_graph(nodes, graph, timeframe)`.
    pub fn get_graph(
        &self,
        col: &dyn Collector,
        names: &[String],
        tf: Timeframe,
    ) -> CoreResult<RemosGraph> {
        let mut ws = QueryWorkspace::new();
        self.get_graph_in(col, names, tf, &mut ws)?;
        Ok(ws.scratch.graph)
    }

    /// [`Modeler::get_graph`] through a caller-owned [`QueryWorkspace`].
    /// Identical answer, but every buffer (node list, cache key, sample
    /// selection, and the output graph itself) is reused in place, so a
    /// warm cached query — plan-cache hit, `Current`/`Window` timeframe,
    /// unchanged topology and target set — performs zero heap
    /// allocations. The returned reference borrows
    /// the workspace's resident graph.
    pub fn get_graph_in<'ws>(
        &self,
        col: &dyn Collector,
        names: &[String],
        tf: Timeframe,
        ws: &'ws mut QueryWorkspace,
    ) -> CoreResult<&'ws RemosGraph> {
        let mut nodes = std::mem::take(&mut ws.nodes);
        copy_names(&mut nodes, names.iter());
        let q = GraphQuery { nodes, timeframe: tf, min_quality: None, provenance: true };
        let spec = QuerySpec::Graph(q);
        let answered = self.query(col, &spec, ws);
        if let QuerySpec::Graph(q) = spec {
            ws.nodes = q.nodes;
        }
        ws.scratch.graph = answered?.into_graph()?;
        Ok(&ws.scratch.graph)
    }

    /// Annotate a plan's logical structure with the selected samples,
    /// into `scratch.graph`; each node's host resources are the ones its
    /// plan's topology carries. Node and link tables are overwritten
    /// element-wise (`clone_from` reuses each node-name `String` buffer;
    /// `RemosLink` owns no heap), the value buffers are shared by every
    /// (link, direction) pair, and the name/adjacency indices are
    /// rebuilt only when the logical structure actually changed — so
    /// re-annotating the same plan is allocation-free. When the resident
    /// graph was moved out into an answer, annotation starts from a clone
    /// of the plan's static graph (same node and link order), which
    /// shares the plan's indices instead of building a set per answer.
    fn annotate_graph(
        &self,
        plan: &QueryPlan,
        selected: &SelectedSamples,
        tf: Timeframe,
        scratch: &mut AnswerScratch,
    ) -> CoreResult<()> {
        let AnswerScratch { vals, sort_buf, graph: out, .. } = scratch;
        let topo: &Topology = &plan.topo;
        let structure = &plan.structure;
        if out.nodes.is_empty() {
            out.clone_from(&plan.static_graph);
        }

        let mut structure_changed = out.nodes.len() != structure.nodes.len()
            || out.links.len() != structure.links.len();
        // Node table: retained physical nodes, in order.
        out.nodes.truncate(structure.nodes.len());
        for (i, &nid) in structure.nodes.iter().enumerate() {
            let n = topo.node(nid);
            if i < out.nodes.len() {
                let e = &mut out.nodes[i];
                if e.name != n.name {
                    e.name.clone_from(&n.name);
                    structure_changed = true;
                }
                e.kind = n.kind;
                e.internal_bw = n.internal_bw;
                e.host = n.host;
            } else {
                out.nodes.push(RemosNode {
                    name: n.name.clone(),
                    kind: n.kind,
                    internal_bw: n.internal_bw,
                    host: n.host,
                });
            }
        }
        let mut li = 0;
        for spec in &structure.links {
            let mut avail = [Quartiles::exact(0.0), Quartiles::exact(0.0)];
            let mut quality = [DataQuality::Fresh; 2];
            for (slot, a) in avail.iter_mut().enumerate() {
                vals.clear();
                vals.extend(
                    selected
                        .samples
                        .iter()
                        .map(|(_, util)| Self::logical_avail(topo, &spec.phys[slot], util)),
                );
                let raw = Quartiles::from_samples_in(vals, sort_buf)
                    .unwrap_or_else(|| Quartiles::exact(spec.capacity));
                // Degraded measurements show through the annotation: stale
                // data widens the reported spread, missing data collapses
                // to total uncertainty over [0, capacity].
                quality[slot] = Self::logical_quality(&spec.phys[slot], &selected.quality);
                *a = degrade(&raw, quality[slot], spec.capacity);
            }
            let l = RemosLink {
                a: plan.node_slot(spec.a)?,
                b: plan.node_slot(spec.b)?,
                capacity: spec.capacity,
                latency: spec.latency,
                avail,
                quality,
            };
            if li < out.links.len() {
                let e = &mut out.links[li];
                if e.a != l.a || e.b != l.b {
                    structure_changed = true;
                }
                *e = l;
            } else {
                out.links.push(l);
            }
            li += 1;
        }
        out.links.truncate(li);
        if structure_changed {
            out.rebuild_indices();
        }
        // Keep the resident record's solver `String` buffer.
        let mut solver = out.provenance.take().map(|p| p.solver).unwrap_or_default();
        solver.clear();
        let _ = fmt::Write::write_fmt(
            &mut solver,
            format_args!("logical-annotate/{:?}", self.cfg.predictor),
        );
        out.provenance =
            Some(selected.provenance(tf, out.worst_quality(), solver, out.links.len()));
        Ok(())
    }

    /// Answer a flow query — the implementation of
    /// `remos_flow_info(fixed_flows, variable_flows, independent_flow,
    /// timeframe)`.
    pub fn flow_info(
        &self,
        col: &dyn Collector,
        req: &FlowInfoRequest,
        tf: Timeframe,
    ) -> CoreResult<FlowInfoResponse> {
        let spec = Query::flows(req.clone()).timeframe(tf).into();
        self.query(col, &spec, &mut QueryWorkspace::new())?.into_flows()
    }

    /// Solve the staged max-min problem over a plan's resource space for
    /// one sample selection: per sample, the fixed, variable and
    /// independent flows in turn over what the stages before left.
    fn flow_answer(
        &self,
        plan: &QueryPlan,
        selected: &SelectedSamples,
        req: &FlowInfoRequest,
        tf: Timeframe,
    ) -> CoreResult<FlowInfoResponse> {
        let topo: &Topology = &plan.topo;
        let structure = &plan.structure;
        let logical_graph: &RemosGraph = &plan.static_graph;
        let model = ResourceModel::from_graph(logical_graph);

        // Per-resource measurement quality (link resources come from the
        // collector; node resources are structural and always fresh).
        let mut res_quality = vec![DataQuality::Fresh; model.capacities.len()];
        for (li, spec) in structure.links.iter().enumerate() {
            for slot in 0..2 {
                res_quality[li * 2 + slot] =
                    Self::logical_quality(&spec.phys[slot], &selected.quality);
            }
        }

        // Every flow in solve order, its path resolved once (routing is
        // static), beside its endpoints and their graph slots.
        let mut flows = Vec::with_capacity(req.flow_count());
        let mut ends = Vec::with_capacity(req.flow_count());
        for (endpoints, weight, cap) in req.flows() {
            let s = logical_graph.index_of(&endpoints.src)?;
            let d = logical_graph.index_of(&endpoints.dst)?;
            let resources = model.path_resources(logical_graph, s, d)?;
            flows.push(StageFlow { resources, weight, cap });
            ends.push((endpoints, s, d));
        }
        let (fixed, rest) = flows.split_at(req.fixed.len());
        let (variable, independent) = rest.split_at(req.variable.len());

        // Solve per sample.
        let mut grants: Vec<Vec<Bps>> =
            vec![Vec::with_capacity(selected.samples.len()); flows.len()];
        let mut util_res = vec![0.0; model.capacities.len()];
        for (_, util_phys) in &selected.samples {
            // Translate physical utilization into resource-space
            // utilization: util_res = cap_logical - avail_logical.
            for (li, spec) in structure.links.iter().enumerate() {
                for slot in 0..2 {
                    let avail = Self::logical_avail(topo, &spec.phys[slot], util_phys);
                    util_res[li * 2 + slot] = (spec.capacity - avail).max(0.0);
                }
            }
            let mut solver = SampleSolver::new(&model, &util_res, self.cfg.sharing)?;
            let granted = [fixed, variable, independent]
                .into_iter()
                .flat_map(|stage| solver.solve_stage(stage));
            for (g, per_flow) in granted.zip(&mut grants) {
                per_flow.push(g);
            }
        }

        // Summarize.
        let solver = format!("staged-maxmin/{:?}", self.cfg.sharing);
        let mut all = Vec::with_capacity(flows.len());
        for ((flow, &(endpoints, s, d)), granted) in flows.iter().zip(&ends).zip(&grants) {
            let bw = Quartiles::from_samples(granted).unwrap_or_else(|| Quartiles::exact(0.0));
            let latency = logical_graph.path_latency(s, d)?;
            let fully_satisfied =
                flow.cap.is_none_or(|r| granted.iter().all(|&g| g >= r * (1.0 - 1e-9)));
            // The grant is only as trustworthy as the worst-measured
            // resource its path crosses; widen the estimate to match.
            let estimate_quality = flow
                .resources
                .iter()
                .map(|&r| res_quality[r])
                .fold(DataQuality::Fresh, DataQuality::worst);
            let ceiling = flow
                .resources
                .iter()
                .map(|&r| model.capacities[r])
                .fold(f64::INFINITY, f64::min)
                .max(bw.max);
            all.push(FlowGrant {
                endpoints: endpoints.clone(),
                bandwidth: degrade(&bw, estimate_quality, ceiling),
                latency,
                fully_satisfied,
                estimate_quality,
                provenance: Some(selected.provenance(
                    tf,
                    estimate_quality,
                    solver.clone(),
                    flow.resources.len(),
                )),
            });
        }
        let independent = if req.independent.is_some() { all.pop() } else { None };
        let variable = all.split_off(req.fixed.len());
        Ok(FlowInfoResponse { fixed: all, variable, independent })
    }

    /// Answer a what-if query over one sample selection. `flows` are the
    /// query's flows as [`Modeler::prepare`] resolved them against the
    /// plan's frozen topology; they route through the plan's (per-epoch)
    /// routing table, the newest selected snapshot supplies per-interface
    /// background utilization, and `remos_net::whatif` replays the fluid
    /// max-min schedule on `kernel`, the workspace's kernel, rebuilt first
    /// unless it serves this plan's topology and routing table.
    fn whatif_answer(
        &self,
        plan: &QueryPlan,
        selected: &SelectedSamples,
        q: &WhatIfQuery,
        flows: &[WhatIfFlow],
        kernel: &mut Option<WhatIfEngine>,
    ) -> CoreResult<crate::whatif::FctReport> {
        use crate::whatif::FctReport;

        // The replay's contention structure depends on every link's
        // background load, not just the queried paths — so the answer is
        // only as trustworthy as the worst-measured interface anywhere
        // in the snapshot.
        let worst_quality = selected
            .quality
            .iter()
            .copied()
            .fold(DataQuality::Fresh, DataQuality::worst);
        check_floor(q.min_quality, worst_quality)?;

        if kernel.as_ref().is_some_and(|k| !k.serves(&plan.topo, &plan.routing)) {
            *kernel = None;
        }
        let engine = kernel.get_or_insert_with(|| {
            WhatIfEngine::new(Arc::clone(&plan.topo), Arc::clone(&plan.routing))
        });
        let background = selected
            .samples
            .iter()
            .max_by_key(|(t, _)| *t)
            .map(|(_, util)| util.as_slice());
        let WhatIfReport { estimates, fct_digest, replay_steps, solves } =
            engine.estimate_with(flows, background, q.horizon)?;
        let provenance = q.provenance.then(|| {
            let solver = format!("whatif-replay/epoch{}/{:?}", plan.epoch, engine.mode());
            selected.provenance(q.timeframe, worst_quality, solver, flows.len())
        });
        Ok(FctReport { flows: estimates, fct_digest, replay_steps, solves, provenance })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::oracle::OracleCollector;
    use crate::collector::Snapshot;
    use crate::whatif::HypotheticalFlow;
    use remos_net::flow::FlowParams;
    use remos_net::{mbps, SimDuration, Simulator, TopologyBuilder};
    use remos_snmp::sim::{share, SharedSim};

    /// Hosts h1..h4 around one switch, `rate` Mb/s a link.
    fn star_sim(rate: f64) -> (SharedSim, Vec<NodeId>) {
        let mut b = TopologyBuilder::new();
        let hosts: Vec<_> = (1..=4).map(|i| b.compute(&format!("h{i}"))).collect();
        let r = b.network("r");
        for &h in &hosts {
            b.link(h, r, mbps(rate), SimDuration::from_micros(5)).expect("link");
        }
        (share(Simulator::new(b.build().expect("topology")).expect("simulator")), hosts)
    }

    /// The star with a 20 Mb/s CBR flow h1 -> h2, sampled once.
    fn star(rate: f64) -> OracleCollector {
        let (sim, hosts) = star_sim(rate);
        sim.lock().start_flow(FlowParams::cbr(hosts[0], hosts[1], mbps(20.0))).expect("flow");
        let mut col = OracleCollector::new(sim);
        col.poll().expect("poll");
        col
    }

    /// One workspace answers a what-if query against two collectors whose
    /// topologies differ, then against the first again: each answer is
    /// the one a fresh workspace gives, so the kernel a workspace keeps
    /// never replays over a plan it was not built for.
    #[test]
    fn the_cached_kernel_never_outlives_its_plan() {
        let (slow, fast) = (star(100.0), star(1_000.0));
        let spec: QuerySpec = Query::estimate_fcts([
            HypotheticalFlow::new("h1", "h2", 1_250_000),
            HypotheticalFlow::new("h3", "h2", 2_500_000).at(SimTime::from_millis(20)),
            HypotheticalFlow::new("h4", "h1", 625_000),
        ])
        .into();
        let modeler = Modeler::default();
        let digest = |col: &OracleCollector, ws: &mut QueryWorkspace| {
            let answer = modeler.query(col, &spec, ws).and_then(QueryResult::into_fcts);
            answer.expect("a what-if answer").fct_digest
        };
        let mut ws = QueryWorkspace::new();
        let mut digests = Vec::new();
        for col in [&slow, &fast, &slow] {
            let warm = digest(col, &mut ws);
            assert_eq!(warm, digest(col, &mut QueryWorkspace::new()), "answer {}", digests.len());
            digests.push(warm);
        }
        assert_ne!(digests[0], digests[1], "the two topologies must give different answers");
    }

    /// An oracle over the star whose history holds `polls` samples 1 s
    /// apart, a flow started or stopped before each, and the snapshots
    /// as they were published, oldest first.
    fn churned_star(polls: u64) -> (OracleCollector, Vec<Snapshot>) {
        let (sim, hosts) = star_sim(100.0);
        let mut col = OracleCollector::new(Arc::clone(&sim));
        let (mut live, mut published) = (Vec::new(), Vec::new());
        for i in 0..polls as usize {
            {
                let mut s = sim.lock();
                if i % 3 == 2 {
                    s.stop_flow(live.remove(0)).expect("stop");
                } else {
                    let (src, dst) = (hosts[i % 4], hosts[(i + 1 + i / 4) % 4]);
                    let rate = mbps(5.0 * (1 + i % 7) as f64);
                    live.push(s.start_flow(FlowParams::cbr(src, dst, rate)).expect("flow"));
                }
                s.run_for(SimDuration::from_secs(1)).expect("advance");
            }
            col.poll().expect("poll");
            published.push(col.history().latest().expect("a sample").clone());
        }
        (col, published)
    }

    /// `Window` and `Future` read older samples rebuilt from the history's
    /// undo entries: the samples a window selects, and every predictor's
    /// answer, equal those computed from the snapshots as published, bit
    /// for bit.
    #[test]
    fn window_and_future_read_the_published_samples() {
        let (col, published) = churned_star(10);
        let n = col.topology().expect("topology").dir_link_count();
        let bits = |u: &[Bps]| u.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut out = SelectedSamples::default();
        let modeler = Modeler::default();
        // A 3 s window over samples 1 s apart covers the newest four.
        modeler
            .select_samples(&col, n, Timeframe::Window(SimDuration::from_secs(3)), &mut out)
            .expect("window");
        let want: Vec<_> = published[6..].iter().map(|s| (s.t, bits(&s.util))).collect();
        let got: Vec<_> = out.samples.iter().map(|(t, u)| (*t, bits(u))).collect();
        assert_eq!(got, want);
        let h = SimDuration::from_secs(2);
        for kind in [
            PredictorKind::LastValue,
            PredictorKind::WindowMean,
            PredictorKind::Ewma(0.3),
            PredictorKind::LinearTrend,
        ] {
            let modeler = Modeler::new(ModelerConfig { predictor: kind, ..Default::default() });
            modeler.select_samples(&col, n, Timeframe::Future(h), &mut out).expect("future");
            let want: Vec<Bps> = (0..n)
                .map(|d| {
                    let series: Vec<_> = published.iter().map(|s| (s.t, s.util[d])).collect();
                    predict(kind, &series, h)
                })
                .collect();
            assert_eq!(bits(&out.samples[0].1), bits(&want), "{kind:?}");
        }
    }
}
