//! The Remos facade: `remos_get_graph` / `remos_flow_info` as a typed API.
//!
//! Binds a [`Collector`] (network-oriented), the [`Modeler`]
//! (application-oriented) and a [`Clock`] together. Queries that need
//! fresh or windowed measurements drive the collector — and *consume
//! measured time* doing so, which is exactly the runtime overhead the
//! paper attributes to Remos ("the cost that an application pays in terms
//! of runtime overhead is low and directly related to the depth and
//! frequency of its requests").
//!
//! Queries are built with [`Query`](crate::query::Query). Every entry
//! point runs the same four stages — validate, measure, prepare, answer
//! (see [`Remos`]) — and differs only in the second: [`Remos::run`] /
//! [`Remos::run_within`] measure for one query (the latter under a
//! per-request deadline budget), [`Remos::run_batch`] measures once for
//! many, and the degraded entry points a serving front end falls back
//! to measure nothing: [`Remos::run_from_history`] answers from existing
//! samples and [`Remos::topology_only`] returns structure with total
//! uncertainty, both marked via
//! [`Provenance::degraded`](crate::Provenance::degraded).

use crate::budget::QueryBudget;
use crate::collector::{Clock, Collector};
use crate::error::{CoreResult, RemosError};
use crate::graph::{HostInfo, RemosGraph};
use crate::modeler::plan::QueryPlan;
use crate::modeler::{
    AnswerScratch, Modeler, ModelerConfig, Prepared, QueryWorkspace, SelectedSamples,
};
use crate::provenance::Provenance;
use crate::quality::DataQuality;
use crate::query::{require_nodes, QueryResult, QuerySpec, ReachableQuery};
use crate::timeframe::Timeframe;
use remos_net::topology::NodeKind;
use remos_net::{pool, SimDuration, SimTime};
use remos_obs::{Counter, Histogram, Obs};
use std::sync::Arc;

/// Remos configuration.
#[derive(Clone, Copy, Debug)]
pub struct RemosConfig {
    /// Gap the facade lets pass between counter reads when it needs to
    /// freshen measurements (the effective polling period).
    pub poll_gap: SimDuration,
    /// Modeler configuration.
    pub modeler: ModelerConfig,
}

impl Default for RemosConfig {
    fn default() -> Self {
        RemosConfig {
            poll_gap: SimDuration::from_millis(250),
            modeler: ModelerConfig::default(),
        }
    }
}

/// Cached counter handles for the facade's hot path.
struct RemosMetrics {
    graph_queries: Counter,
    flow_queries: Counter,
    rejected_queries: Counter,
    batch_size: Histogram,
    whatif_flows_estimated: Counter,
    whatif_replay_steps: Counter,
    whatif_batch: Histogram,
}

impl RemosMetrics {
    fn new(obs: &Obs) -> RemosMetrics {
        RemosMetrics {
            graph_queries: obs.counter("remos_graph_queries_total"),
            flow_queries: obs.counter("remos_flow_queries_total"),
            rejected_queries: obs.counter("remos_rejected_queries_total"),
            batch_size: obs.histogram("remos_batch_size"),
            whatif_flows_estimated: obs.counter("whatif_flows_estimated_total"),
            whatif_replay_steps: obs.counter("whatif_replay_steps_total"),
            whatif_batch: obs.histogram("remos_whatif_batch"),
        }
    }
}

/// Stamp serving metadata into an answer's provenance: the collector the
/// measurements came from, and whether a degraded mode produced it.
/// Answers whose provenance was stripped are left untouched.
fn mark_answer(result: &mut QueryResult, source: &str, degraded: bool) {
    let mark = |p: &mut Option<Provenance>| {
        if let Some(p) = p.as_mut() {
            p.source = Some(source.to_string());
            p.degraded |= degraded;
        }
    };
    match result {
        QueryResult::Graph(g) => mark(&mut g.provenance),
        QueryResult::Flows(resp) => resp.all_grants_mut().for_each(|g| mark(&mut g.provenance)),
        QueryResult::Peers(_) => {}
        QueryResult::Fcts(r) => mark(&mut r.provenance),
    }
}

/// The Remos query interface.
///
/// Every entry point is the same four stages over one [`QuerySpec`]:
///
/// 1. **validate** — pure, on the spec; a malformed query is rejected
///    before any measured time is spent.
/// 2. **measure** — the only `&mut` stage and the only one that differs
///    between entry points: poll for one query's timeframe
///    ([`Remos::run`], [`Remos::run_within`]), poll once for a whole
///    batch ([`Remos::run_batch`]), or require existing history
///    ([`Remos::run_from_history`]).
/// 3. **prepare** — the collector reads: one plan lookup, the host
///    table, the timeframe's sample selection.
/// 4. **answer** — `Modeler::answer`: `&self`, pure, and the same
///    function whichever entry point got the query this far.
///
/// Each query counts once in its kind counter and, iff it returns
/// `Err`, once in `remos_rejected_queries_total`.
pub struct Remos {
    collector: Box<dyn Collector>,
    clock: Box<dyn Clock>,
    modeler: Modeler,
    cfg: RemosConfig,
    obs: Obs,
    obs_metrics: RemosMetrics,
    /// Stage-three and stage-four buffers of the single-query entry points.
    ws: QueryWorkspace,
}

/// A batch entry whose collector reads are done: what a pool worker
/// needs to call `Modeler::answer`.
struct BatchEntry {
    /// Index into the batch.
    index: usize,
    plan: Arc<QueryPlan>,
    /// Its host table or resolved what-if flows.
    prepared: Prepared,
    /// Index into the batch's per-timeframe sample selections.
    selection: usize,
}

impl Remos {
    /// Assemble the system. The collector's topology is discovered lazily
    /// on first use (or call [`Remos::refresh_topology`]).
    pub fn new(collector: Box<dyn Collector>, clock: Box<dyn Clock>, cfg: RemosConfig) -> Remos {
        let obs = Obs::new();
        let obs_metrics = RemosMetrics::new(&obs);
        let mut modeler = Modeler::new(cfg.modeler);
        modeler.set_obs(&obs);
        Remos { collector, clock, modeler, cfg, obs, obs_metrics, ws: QueryWorkspace::new() }
    }

    /// Report into a shared observability handle: facade query counters,
    /// modeler plan-cache counters, plus everything the collector
    /// underneath reports (polls, agent health, SNMP fault paths).
    pub fn set_obs(&mut self, obs: Obs) {
        self.collector.set_obs(&obs);
        self.modeler.set_obs(&obs);
        self.obs_metrics = RemosMetrics::new(&obs);
        self.obs = obs;
    }

    /// Replace the modeler configuration. Drops any cached query plans
    /// (the new configuration may change how answers are computed).
    pub fn set_modeler_config(&mut self, cfg: ModelerConfig) {
        self.cfg.modeler = cfg;
        let mut modeler = Modeler::new(cfg);
        modeler.set_obs(&self.obs);
        self.modeler = modeler;
    }

    /// The observability handle this facade reports into.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// The gap this facade lets pass between counter reads
    /// ([`RemosConfig::poll_gap`]): what one poll costs in measured time.
    pub fn poll_gap(&self) -> SimDuration {
        self.cfg.poll_gap
    }

    /// Re-discover the network topology (clears measurement history).
    pub fn refresh_topology(&mut self) -> CoreResult<()> {
        self.collector.refresh_topology()
    }

    /// Direct access to the collector (for harnesses and tests).
    pub fn collector(&self) -> &dyn Collector {
        &*self.collector
    }

    /// Discover the topology if the collector has none yet.
    fn ensure_topology(&mut self) -> CoreResult<()> {
        if self.collector.topology().is_err() {
            self.collector.refresh_topology()?;
        }
        Ok(())
    }

    /// What a timeframe demands of the history: `(samples, fresh)`.
    /// `Current` always measures *now*: a node-selection decision must
    /// reflect current traffic, not a stale snapshot. Measuring takes one
    /// poll gap of real (simulated) time — this is the per-decision
    /// overhead the paper reports — and the produced sample covers the
    /// interval since the previous counter read, so it includes whatever
    /// the application itself sent meanwhile (the root of the §8.3
    /// self-traffic fallacy).
    fn demand(&self, tf: Timeframe) -> (usize, bool) {
        match tf {
            Timeframe::Current => (0, true),
            _ => (tf.min_samples(self.cfg.poll_gap), false),
        }
    }

    /// Drive the collector until `needed` samples have accumulated, then
    /// take one extra fresh sample if `fresh` is set — the measurement
    /// step behind [`Remos::run`] and [`Remos::run_batch`], and the one
    /// place measured time passes.
    fn pin_samples(&mut self, (needed, fresh): (usize, bool)) -> CoreResult<()> {
        let mut guard = 0;
        while self.collector.history().len() < needed {
            guard += 1;
            // A history too short to ever hold them fails before polling.
            if needed > self.collector.history().capacity() || guard > needed * 2 + 8 {
                return Err(RemosError::Collector(format!(
                    "could not accumulate {needed} samples"
                )));
            }
            self.clock.advance(self.cfg.poll_gap)?;
            self.collector.poll()?;
        }
        if fresh {
            self.clock.advance(self.cfg.poll_gap)?;
            if !self.collector.poll()? {
                self.clock.advance(self.cfg.poll_gap)?;
                if !self.collector.poll()? {
                    return Err(RemosError::Collector(
                        "collector produced no sample after an advance".into(),
                    ));
                }
            }
        }
        Ok(())
    }

    /// Execute a typed query built with [`Query`](crate::query::Query).
    ///
    /// Malformed queries (empty node or flow sets) are rejected before any
    /// measurement time is consumed; answers that miss a requested
    /// [`min_quality`](crate::query::GraphQuery::min_quality) floor fail
    /// with [`RemosError::QualityTooLow`] after measurement.
    pub fn run(&mut self, spec: impl Into<QuerySpec>) -> CoreResult<QueryResult> {
        self.run_within(spec, QueryBudget::UNLIMITED)
    }

    /// [`Remos::run`] under a deadline budget. The budget is checked at
    /// entry, again after measurement (the stage that consumes measured
    /// time), and before solving; the first stage to find the deadline
    /// passed sheds the request with [`RemosError::DeadlineExceeded`]
    /// instead of computing an answer nobody will wait for.
    pub fn run_within(
        &mut self,
        spec: impl Into<QuerySpec>,
        budget: QueryBudget,
    ) -> CoreResult<QueryResult> {
        self.run_spec_within(&spec.into(), budget)
    }

    /// [`Remos::run_within`] for a caller that keeps its spec — a serving
    /// front end re-answers the same spec from its degradation ladder.
    pub fn run_spec_within(
        &mut self,
        spec: &QuerySpec,
        budget: QueryBudget,
    ) -> CoreResult<QueryResult> {
        let res = self.serve(spec, budget, false);
        self.finish(spec, res, false)
    }

    /// Answer a query from the measurement history already on hand,
    /// taking no new samples and consuming no measured time — the
    /// stale-snapshot rung of a serving front end's degradation ladder
    /// (used when the collector's circuit breaker is open). Fails with
    /// [`RemosError::InsufficientHistory`] when no samples exist yet;
    /// answers are marked [`Provenance::degraded`].
    pub fn run_from_history(&mut self, spec: impl Into<QuerySpec>) -> CoreResult<QueryResult> {
        let spec = spec.into();
        let res = self.serve(&spec, QueryBudget::UNLIMITED, true);
        self.finish(&spec, res, true)
    }

    /// The collector's current measured time, for deadline checks. A
    /// collector that cannot tell the time reads as [`SimTime::ZERO`],
    /// which never trips a deadline — budgets degrade to unlimited
    /// rather than shedding on a clock failure.
    fn measured_now(&self) -> SimTime {
        self.collector.now().unwrap_or(SimTime::ZERO)
    }

    /// The four stages for one query. `from_history` swaps the measure
    /// stage for a check that samples already exist.
    fn serve(
        &mut self,
        spec: &QuerySpec,
        budget: QueryBudget,
        from_history: bool,
    ) -> CoreResult<QueryResult> {
        spec.validate()?;
        if let QuerySpec::Reachable(q) = spec {
            return self.answer_reachable(q);
        }
        budget.check(self.measured_now())?;
        if from_history {
            self.ensure_topology()?;
            if self.collector.history().is_empty() {
                return Err(RemosError::InsufficientHistory { needed: 1, available: 0 });
            }
        } else if let Some(tf) = spec.timeframe() {
            self.pin_samples(self.demand(tf))?;
        }
        // Measurement consumed time; shed before planning if the
        // deadline passed while polling.
        budget.check(self.measured_now())?;
        let plan = self.modeler.prepare(&*self.collector, spec, &mut self.ws)?;
        budget.check(self.measured_now())?;
        let ws = &mut self.ws;
        self.modeler.answer(&plan, &ws.prepared, &ws.selected, spec, &mut ws.scratch)
    }

    /// The single exit of every entry point: count the query in its kind
    /// counter, count a rejection iff it failed, and stamp an answer's
    /// provenance with the collector it came from and whether a degraded
    /// mode produced it.
    fn finish(
        &self,
        spec: &QuerySpec,
        mut res: CoreResult<QueryResult>,
        degraded: bool,
    ) -> CoreResult<QueryResult> {
        let m = &self.obs_metrics;
        match spec {
            QuerySpec::Graph(_) => m.graph_queries.inc(),
            QuerySpec::Flows(_) => m.flow_queries.inc(),
            QuerySpec::WhatIf(q) => m.whatif_batch.observe(q.flows.len() as u64),
            QuerySpec::Reachable(_) => {}
        }
        match &mut res {
            Ok(answer) => {
                if let QueryResult::Fcts(report) = answer {
                    m.whatif_flows_estimated.add(report.flows.len() as u64);
                    m.whatif_replay_steps.add(report.replay_steps);
                }
                mark_answer(answer, &self.collector.describe(), degraded);
            }
            Err(_) => m.rejected_queries.inc(),
        }
        res
    }

    /// The topology-only degradation rung: the logical structure for
    /// `nodes` from the (possibly cached) query plan, with every dynamic
    /// quantity collapsed to total uncertainty over `[0, capacity]` and
    /// every link quality [`DataQuality::Missing`]. Needs no measurement
    /// history and consumes no measured time; the answer is marked
    /// [`Provenance::degraded`].
    pub fn topology_only(&mut self, nodes: &[String]) -> CoreResult<RemosGraph> {
        self.obs_metrics.graph_queries.inc();
        let res = self.topology_graph(nodes);
        if res.is_err() {
            self.obs_metrics.rejected_queries.inc();
        }
        res
    }

    fn topology_graph(&mut self, nodes: &[String]) -> CoreResult<RemosGraph> {
        require_nodes(nodes)?;
        self.ensure_topology()?;
        let plan = self.modeler.plan_for(&*self.collector, nodes, &mut Vec::new())?;
        let mut g: RemosGraph = (*plan.static_graph).clone();
        for link in &mut g.links {
            for slot in 0..2 {
                link.quality[slot] = DataQuality::Missing;
                link.avail[slot] = crate::modeler::degrade(
                    &link.avail[slot],
                    DataQuality::Missing,
                    link.capacity,
                );
            }
        }
        let scope = g.links.len();
        g.provenance = Some(Provenance {
            timeframe: Timeframe::Current,
            snapshots: 0,
            newest_sample: None,
            oldest_sample: None,
            worst_quality: DataQuality::Missing,
            solver: "topology-only".into(),
            scope,
            degraded: true,
            source: Some(self.collector.describe()),
        });
        Ok(g)
    }

    /// Reachability reads the topology alone — no samples, no plan — so
    /// it skips the measure, prepare and answer stages: one row of the
    /// topology's routing table ([`Topology::routing`](remos_net::Topology::routing))
    /// answers every candidate. Only hosts send or receive, so a switch
    /// reaches, and is reached by, nothing but itself.
    fn answer_reachable(&mut self, q: &ReachableQuery) -> CoreResult<QueryResult> {
        self.ensure_topology()?;
        let topo = self.collector.topology()?;
        let a = topo
            .lookup(&q.anchor)
            .map_err(|_| RemosError::UnknownNode(q.anchor.clone()))?;
        let routing = topo.routing();
        let host = |id| topo.node(id).kind == NodeKind::Compute;
        Ok(QueryResult::Peers(
            q.candidates
                .iter()
                .filter(|c| {
                    topo.lookup(c).is_ok_and(|id| {
                        id == a || (host(a) && host(id) && routing.reachable(&topo, a, id))
                    })
                })
                .cloned()
                .collect(),
        ))
    }

    /// Answer a batch of queries against one pinned snapshot selection.
    ///
    /// Measurement happens once for the whole batch — enough polls for
    /// the most demanding timeframe, plus a single fresh poll if any
    /// entry asks for [`Timeframe::Current`] — and every entry is then
    /// answered from that frozen history. No polling interleaves with
    /// the answers, so the batch is internally consistent: two entries
    /// naming the same timeframe see the very same samples (the §4.2
    /// simultaneous-query property, extended across query kinds), and
    /// the whole batch costs one query's worth of measured time.
    ///
    /// Sample selection is amortized across entries per distinct
    /// timeframe, plans come from the epoch-keyed cache, and the answer
    /// stage runs on a scoped worker pool. Results come back in input
    /// order, one per entry; a batch-wide measurement failure fails
    /// every entry.
    pub fn run_batch(&mut self, specs: Vec<QuerySpec>) -> Vec<CoreResult<QueryResult>> {
        self.obs_metrics.batch_size.observe(specs.len() as u64);
        // Validate; entries that fail make no measurement demand.
        let mut results: Vec<Option<CoreResult<QueryResult>>> =
            specs.iter().map(|s| s.validate().err().map(Err)).collect();
        // Measure once, for the union of the valid entries' demands.
        let demand = specs
            .iter()
            .zip(&results)
            .filter(|(_, invalid)| invalid.is_none())
            .filter_map(|(s, _)| s.timeframe())
            .map(|tf| self.demand(tf))
            .reduce(|(n1, f1), (n2, f2)| (n1.max(n2), f1 || f2));
        if let Some(Err(e)) = demand.map(|d| self.pin_samples(d)) {
            let failed = RemosError::Collector(format!("batch measurement failed: {e}"));
            return specs.iter().map(|s| self.finish(s, Err(failed.clone()), false)).collect();
        }
        // Prepare each entry on this thread — plans, host tables and
        // sample selections all read the collector, which is not
        // thread-safe.
        let mut selections: Vec<(Timeframe, SelectedSamples)> = Vec::new();
        let mut entries: Vec<BatchEntry> = Vec::new();
        let mut key = Vec::new();
        for (index, spec) in specs.iter().enumerate() {
            if results[index].is_some() {
                continue;
            }
            if let QuerySpec::Reachable(q) = spec {
                results[index] = Some(self.answer_reachable(q));
                continue;
            }
            match self.prepare_entry(index, spec, &mut key, &mut selections) {
                Ok(entry) => entries.push(entry),
                Err(e) => results[index] = Some(Err(e)),
            }
        }
        // Answer: pure compute over shared immutable data, in parallel,
        // deterministic output order.
        let modeler = &self.modeler;
        let answers = pool::run_indexed(&entries, pool::default_workers(entries.len()), |e| {
            let (spec, selected) = (&specs[e.index], &selections[e.selection].1);
            modeler.answer(&e.plan, &e.prepared, selected, spec, &mut AnswerScratch::default())
        });
        for (e, answer) in entries.iter().zip(answers) {
            results[e.index] = Some(answer);
        }
        specs
            .iter()
            .zip(results)
            .map(|(spec, r)| {
                let r = r.unwrap_or_else(|| {
                    Err(RemosError::Internal("batch entry produced no result".into()))
                });
                self.finish(spec, r, false)
            })
            .collect()
    }

    /// Stage three for one batch entry: its plan and prepared inputs, plus
    /// the batch's shared sample selection for its timeframe (selected
    /// from the pinned history on first use).
    fn prepare_entry(
        &self,
        index: usize,
        spec: &QuerySpec,
        key: &mut Vec<String>,
        selections: &mut Vec<(Timeframe, SelectedSamples)>,
    ) -> CoreResult<BatchEntry> {
        let (modeler, col) = (&self.modeler, &*self.collector);
        let mut prepared = Prepared::default();
        let (plan, tf) = modeler.plan_and_prepare(col, spec, key, &mut prepared)?;
        let selection = match selections.iter().position(|(t, _)| *t == tf) {
            Some(i) => i,
            None => {
                let mut s = SelectedSamples::default();
                modeler.select_samples(col, plan.topo.dir_link_count(), tf, &mut s)?;
                selections.push((tf, s));
                selections.len() - 1
            }
        };
        Ok(BatchEntry { index, plan, prepared, selection })
    }

    /// The simple host compute/memory interface (§2).
    pub fn host_info(&mut self, name: &str) -> CoreResult<HostInfo> {
        self.ensure_topology()?;
        self.collector.host_info(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::snmp::{SnmpCollector, SnmpCollectorConfig};
    use crate::collector::SimClock;
    use crate::error::InvalidQueryKind;
    use crate::flows::FlowInfoRequest;
    use crate::query::Query;
    use crate::whatif::HypotheticalFlow;
    use remos_net::flow::FlowParams;
    use remos_net::{mbps, SimDuration, Simulator, TopologyBuilder};
    use remos_snmp::sim::{register_all_agents, share, SharedSim};
    use remos_snmp::SimTransport;
    use std::sync::Arc;

    /// m-4's resources, which differ from the builder defaults.
    const M4: HostInfo = HostInfo { compute_flops: 120e6, memory_bytes: 1 << 30 };

    /// Build the full stack over a small dumbbell:
    /// m-1, m-2 — aspen === timberline — m-3, m-4.
    fn full_stack() -> (Remos, SharedSim) {
        let mut b = TopologyBuilder::new();
        let m1 = b.compute("m-1");
        let m2 = b.compute("m-2");
        let m3 = b.compute("m-3");
        let m4 = b.compute_with_host("m-4", Some(M4));
        let aspen = b.network("aspen");
        let timberline = b.network("timberline");
        let lat = SimDuration::from_micros(100);
        b.link(m1, aspen, mbps(100.0), lat).unwrap();
        b.link(m2, aspen, mbps(100.0), lat).unwrap();
        b.link(aspen, timberline, mbps(100.0), lat).unwrap();
        b.link(timberline, m3, mbps(100.0), lat).unwrap();
        b.link(timberline, m4, mbps(100.0), lat).unwrap();
        let sim = share(Simulator::new(b.build().unwrap()).unwrap());
        let transport = Arc::new(SimTransport::new());
        let agents = register_all_agents(&transport, &sim, "public");
        let collector =
            SnmpCollector::new(transport, agents, SnmpCollectorConfig::default());
        let remos = Remos::new(
            Box::new(collector),
            Box::new(SimClock(Arc::clone(&sim))),
            RemosConfig::default(),
        );
        (remos, sim)
    }

    #[test]
    fn graph_query_discovers_logical_topology() {
        let (mut remos, _sim) = full_stack();
        let g = remos
            .run(Query::graph(["m-1", "m-2", "m-3", "m-4"]))
            .unwrap()
            .into_graph()
            .unwrap();
        // Logical view keeps the two junction routers.
        assert_eq!(g.nodes.len(), 6);
        assert_eq!(g.links.len(), 5);
        let m1 = g.index_of("m-1").unwrap();
        let m3 = g.index_of("m-3").unwrap();
        // Idle network: full capacity available.
        let bw = g.path_avail_bw(m1, m3).unwrap();
        assert!((bw - mbps(100.0)).abs() < mbps(1.0), "{bw}");
    }

    #[test]
    fn two_host_query_collapses_backbone() {
        let (mut remos, _sim) = full_stack();
        let g = remos.run(Query::graph(["m-1", "m-3"])).unwrap().into_graph().unwrap();
        // Logical topology for two hosts: one collapsed link.
        assert_eq!(g.nodes.len(), 2);
        assert_eq!(g.links.len(), 1);
        assert_eq!(g.links[0].latency, SimDuration::from_micros(300));
    }

    #[test]
    fn graph_reflects_background_traffic() {
        let (mut remos, sim) = full_stack();
        {
            let mut s = sim.lock();
            let topo = s.topology_arc();
            let m1 = topo.lookup("m-1").unwrap();
            let m3 = topo.lookup("m-3").unwrap();
            s.start_flow(FlowParams::cbr(m1, m3, mbps(60.0))).unwrap();
            s.run_for(SimDuration::from_secs(1)).unwrap();
        }
        let g = remos.run(Query::graph(["m-2", "m-4"])).unwrap().into_graph().unwrap();
        let m2 = g.index_of("m-2").unwrap();
        let m4 = g.index_of("m-4").unwrap();
        // The m-2 -> m-4 path shares the backbone with the 60 Mbps flow.
        let bw = g.path_avail_bw(m2, m4).unwrap();
        assert!((bw - mbps(40.0)).abs() < mbps(3.0), "avail {bw}");
        // The reverse direction is idle.
        let bw_rev = g.path_avail_bw(m4, m2).unwrap();
        assert!(bw_rev > mbps(95.0), "{bw_rev}");
    }

    #[test]
    fn flow_info_accounts_for_internal_sharing() {
        let (mut remos, _sim) = full_stack();
        // Two variable flows from m-1 and m-2 converging on m-3: they share
        // the backbone and m-3's access link, 50 Mbps each — the classic
        // simultaneous-query case.
        let req = FlowInfoRequest::new()
            .variable("m-1", "m-3", 1.0)
            .variable("m-2", "m-3", 1.0);
        let resp = remos.run(Query::flows(req)).unwrap().into_flows().unwrap();
        for g in &resp.variable {
            assert!(
                (g.bandwidth.median - mbps(50.0)).abs() < mbps(2.0),
                "{}",
                g.bandwidth
            );
        }
        // Queried individually, each flow would (misleadingly) see 100.
        let alone = FlowInfoRequest::new().variable("m-1", "m-3", 1.0);
        let r = remos.run(Query::flows(alone)).unwrap().into_flows().unwrap();
        assert!(r.variable[0].bandwidth.median > mbps(95.0));
    }

    #[test]
    fn flow_info_three_classes() {
        let (mut remos, _sim) = full_stack();
        let req = FlowInfoRequest::new()
            .fixed("m-1", "m-3", mbps(20.0))
            .variable("m-1", "m-3", 1.0)
            .independent("m-2", "m-3");
        let resp = remos.run(Query::flows(req)).unwrap().into_flows().unwrap();
        let f = &resp.fixed[0];
        assert!(f.fully_satisfied);
        assert!((f.bandwidth.median - mbps(20.0)).abs() < mbps(1.0));
        // Variable gets what's left of the shared bottleneck after fixed.
        let v = &resp.variable[0];
        assert!((v.bandwidth.median - mbps(80.0)).abs() < mbps(2.0), "{}", v.bandwidth);
        // Independent shares m-3's access link residual: nothing is left
        // after fixed (20) + variable (80) fill it.
        let i = resp.independent.as_ref().unwrap();
        assert!(i.bandwidth.median < mbps(2.0), "{}", i.bandwidth);
    }

    #[test]
    fn window_query_accumulates_history() {
        let (mut remos, _sim) = full_stack();
        let g = remos
            .run(Query::graph(["m-1", "m-3"])
                .timeframe(Timeframe::Window(SimDuration::from_secs(2))))
            .unwrap()
            .into_graph()
            .unwrap();
        assert!(g.links[0].avail[0].samples >= 2, "{}", g.links[0].avail[0].samples);
    }

    #[test]
    fn future_query_uses_predictor() {
        let (mut remos, _sim) = full_stack();
        // Prime some history first.
        remos
            .run(Query::graph(["m-1", "m-3"])
                .timeframe(Timeframe::Window(SimDuration::from_secs(1))))
            .unwrap();
        let g = remos
            .run(Query::graph(["m-1", "m-3"])
                .timeframe(Timeframe::Future(SimDuration::from_secs(5))))
            .unwrap()
            .into_graph()
            .unwrap();
        // Idle history predicts an idle future.
        assert!(g.links[0].avail[0].median > mbps(95.0));
    }

    #[test]
    fn flow_info_window_reports_spread() {
        // A windowed flow query under on/off cross-traffic: grants are
        // solved per sample, so the quartiles show the two regimes.
        let (mut remos, sim) = full_stack();
        {
            let mut s = sim.lock();
            let topo = s.topology_arc();
            let m1 = topo.lookup("m-1").unwrap();
            let m3 = topo.lookup("m-3").unwrap();
            s.add_process(
                remos_net::SimTime::ZERO,
                Box::new(remos_net::traffic::OnOffTraffic::new(
                    m1,
                    m3,
                    SimDuration::from_secs(2),
                    SimDuration::from_secs(2),
                    None,
                    5,
                )),
            );
            s.run_for(SimDuration::from_secs(4)).unwrap();
        }
        let req = FlowInfoRequest::new().independent("m-2", "m-3");
        let resp = remos
            .run(Query::flows(req).timeframe(Timeframe::Window(SimDuration::from_secs(30))))
            .unwrap()
            .into_flows()
            .unwrap();
        let q = resp.independent.unwrap().bandwidth;
        assert!(q.samples >= 4, "{q}");
        // During bursts the independent flow gets ~0 of m-3's downlink;
        // between bursts the full 100 Mbps.
        assert!(q.max - q.min > mbps(50.0), "{q}");
    }

    /// A `Future` horizon that carries the newest sample's time past
    /// `SimTime::MAX` is a typed rejection, not an overflow panic.
    #[test]
    fn a_horizon_past_the_clock_is_rejected() {
        let (_, sim) = full_stack();
        let gap = SimDuration::from_nanos(u64::MAX / 10 * 3);
        let horizon = SimDuration::from_nanos(u64::MAX / 2);
        let mut remos = Remos::new(
            Box::new(crate::collector::oracle::OracleCollector::new(Arc::clone(&sim))),
            Box::new(SimClock(Arc::clone(&sim))),
            RemosConfig { poll_gap: gap, ..RemosConfig::default() },
        );
        let res = remos.run(Query::graph(["m-1", "m-3"]).timeframe(Timeframe::Future(horizon)));
        assert_eq!(
            res.err(),
            Some(RemosError::InvalidQuery(InvalidQueryKind::HorizonPastClock { horizon }))
        );
    }

    #[test]
    fn future_query_extrapolates_a_trend() {
        use crate::modeler::predict::PredictorKind;
        let cfg = RemosConfig {
            poll_gap: SimDuration::from_millis(250),
            modeler: crate::modeler::ModelerConfig {
                predictor: PredictorKind::LinearTrend,
                ..Default::default()
            },
        };
        let (remos, sim) = full_stack();
        let mut remos = remos;
        // Rebuild with the trend predictor.
        drop(remos);
        let transport = Arc::new(SimTransport::new());
        let agents = register_all_agents(&transport, &sim, "public2");
        let collector = SnmpCollector::new(
            transport,
            agents,
            crate::collector::snmp::SnmpCollectorConfig {
                community: "public2".into(),
                ..Default::default()
            },
        );
        remos = Remos::new(Box::new(collector), Box::new(SimClock(Arc::clone(&sim))), cfg);

        // Ramp the backbone load: each second, one more 10 Mbps stream.
        let (m1, m3) = {
            let s = sim.lock();
            let t = s.topology_arc();
            (t.lookup("m-1").unwrap(), t.lookup("m-3").unwrap())
        };
        for k in 0..8 {
            {
                let mut s = sim.lock();
                s.start_flow(FlowParams::cbr(m1, m3, mbps(10.0))).unwrap();
                s.run_for(SimDuration::from_secs(1)).unwrap();
            }
            // Sample each step so history records the ramp.
            remos.run(Query::graph(["m-1", "m-3"])).unwrap();
            let _ = k;
        }
        // Current sees ~80 Mbps used; a trend forecast 4 s out must
        // predict *less* available than now (load is rising).
        let g_now =
            remos.run(Query::graph(["m-2", "m-4"])).unwrap().into_graph().unwrap();
        let g_future = remos
            .run(Query::graph(["m-2", "m-4"])
                .timeframe(Timeframe::Future(SimDuration::from_secs(4))))
            .unwrap()
            .into_graph()
            .unwrap();
        let a = g_now.index_of("m-2").unwrap();
        let b = g_now.index_of("m-4").unwrap();
        let now_avail = g_now.path_avail_bw(a, b).unwrap();
        let fut_avail = g_future.path_avail_bw(a, b).unwrap();
        assert!(
            fut_avail < now_avail - mbps(3.0),
            "future {fut_avail} not below current {now_avail}"
        );
    }

    #[test]
    fn fair_share_policy_promises_more_than_pinned() {
        use crate::modeler::sharing::SharingPolicy;
        // 4 greedy background flows saturate a path. Pinned: nothing left.
        // Fair share: a new flow would claim 1/5 of the link.
        let build = |policy| {
            let (_, sim) = full_stack();
            let transport = Arc::new(SimTransport::new());
            let agents = register_all_agents(&transport, &sim, "p3");
            let collector = SnmpCollector::new(
                transport,
                agents,
                crate::collector::snmp::SnmpCollectorConfig {
                    community: "p3".into(),
                    ..Default::default()
                },
            );
            let cfg = RemosConfig {
                modeler: crate::modeler::ModelerConfig {
                    sharing: policy,
                    ..Default::default()
                },
                ..Default::default()
            };
            let remos =
                Remos::new(Box::new(collector), Box::new(SimClock(Arc::clone(&sim))), cfg);
            (remos, sim)
        };
        let promise = |policy| {
            let (mut remos, sim) = build(policy);
            {
                let mut s = sim.lock();
                let t = s.topology_arc();
                let m1 = t.lookup("m-1").unwrap();
                let m3 = t.lookup("m-3").unwrap();
                for _ in 0..4 {
                    s.start_flow(FlowParams::greedy(m1, m3)).unwrap();
                }
                s.run_for(SimDuration::from_secs(1)).unwrap();
            }
            let req = FlowInfoRequest::new().independent("m-2", "m-3");
            let resp = remos.run(Query::flows(req)).unwrap().into_flows().unwrap();
            resp.independent.unwrap().bandwidth.median
        };
        let pinned = promise(SharingPolicy::ExternalPinned);
        let fair = promise(SharingPolicy::ExternalFairShare);
        assert!(pinned < mbps(2.0), "pinned promised {pinned}");
        // Counters cannot count flows, so fair-share models the external
        // traffic as ONE elastic aggregate: a new flow gets half the link
        // (the simulator's per-flow truth would be 100/5 = 20 — the gap is
        // inherent to counter-based measurement, not a bug).
        assert!((fair - mbps(50.0)).abs() < mbps(2.0), "fair promised {fair}");
    }

    #[test]
    fn host_info_via_snmp() {
        let (mut remos, _sim) = full_stack();
        let h = remos.host_info("m-1").unwrap();
        assert!((h.compute_flops - 50e6).abs() < 1e6);
        assert_eq!(h.memory_bytes, 256 * 1024 * 1024);
        assert!(remos.host_info("aspen").is_err());
        // Discovery writes each agent's mflops and hrMemorySize onto its
        // node; a switch carries none.
        assert_eq!(remos.host_info("m-4").unwrap(), M4);
        let topo = remos.collector().topology().unwrap();
        let host = |name: &str| topo.node(topo.lookup(name).unwrap()).host;
        assert_eq!(host("m-1"), Some(h));
        assert_eq!(host("m-4"), Some(M4));
        assert_eq!(host("aspen"), None);
    }

    #[test]
    fn unknown_node_rejected() {
        let (mut remos, _sim) = full_stack();
        assert!(matches!(
            remos.run(Query::graph(["m-1", "nope"])),
            Err(RemosError::UnknownNode(_))
        ));
    }

    #[test]
    fn malformed_queries_fail_fast() {
        use InvalidQueryKind::*;
        let flows = |r: FlowInfoRequest| -> QuerySpec { Query::flows(r).into() };
        let whatif = |src: &str, dst: &str| -> QuerySpec {
            Query::estimate_fcts([HypotheticalFlow::new(src, dst, 10)]).into()
        };
        let invalid = RemosError::InvalidQuery;
        let unknown = |n: &str| RemosError::UnknownNode(n.to_string());
        let req = FlowInfoRequest::new;
        // (spec, the one error every entry point returns for it, whether
        // `validate` catches it — i.e. before any measured time is spent).
        let table: Vec<(QuerySpec, RemosError, bool)> = vec![
            (Query::graph(Vec::<String>::new()).into(), invalid(EmptyNodeSet), true),
            (flows(req()), invalid(EmptyFlowRequest), true),
            (
                flows(req().fixed("m-1", "m-3", -1.0)),
                invalid(BadFixedBandwidth { value: -1.0 }),
                true,
            ),
            (
                flows(req().variable("m-1", "m-3", f64::INFINITY)),
                invalid(BadVariableWeight { value: f64::INFINITY }),
                true,
            ),
            (
                flows(req().fixed("m-1", "m-3", 1e6).independent("m-2", "m-2")),
                invalid(IdenticalEndpoints { node: "m-2".into() }),
                true,
            ),
            (
                Query::estimate_fcts(Vec::<HypotheticalFlow>::new()).into(),
                invalid(EmptyFlowSet),
                true,
            ),
            (whatif("m-1", "m-1"), invalid(IdenticalEndpoints { node: "m-1".into() }), true),
            // These need the topology: the plan lookup rejects them,
            // after measurement.
            (whatif("m-1", "aspen"), invalid(NotAHost { node: "aspen".into() }), false),
            (whatif("m-1", "nope"), unknown("nope"), false),
            (Query::graph(["m-1", "nope"]).into(), unknown("nope"), false),
            (flows(req().independent("zz", "m-3")), unknown("zz"), false),
        ];
        let (mut remos, sim) = full_stack();
        // Prime one sample so `run_from_history` gets past its own
        // precondition and reports the query's error.
        remos.run(Query::graph(["m-1", "m-3"])).unwrap();
        for (spec, want, pure) in table {
            let t0 = sim.lock().now();
            assert_eq!(remos.run(spec.clone()).unwrap_err(), want);
            let batch = remos.run_batch(vec![spec.clone()]);
            assert_eq!(batch.into_iter().next().unwrap().unwrap_err(), want);
            if pure {
                assert_eq!(sim.lock().now(), t0, "{want}: rejected before sampling");
            }
            let t1 = sim.lock().now();
            assert_eq!(remos.run_from_history(spec.clone()).unwrap_err(), want);
            if let QuerySpec::Flows(q) = &spec {
                let direct =
                    Modeler::default().flow_info(remos.collector(), &q.request, q.timeframe);
                assert_eq!(direct.unwrap_err(), want);
            }
            assert_eq!(sim.lock().now(), t1);
        }
    }

    #[test]
    fn queries_cost_measured_time() {
        let (mut remos, sim) = full_stack();
        let t0 = sim.lock().now();
        remos.run(Query::graph(["m-1", "m-3"])).unwrap();
        let t1 = sim.lock().now();
        assert!(t1 > t0, "a Current query must consume measurement time");
    }

    #[test]
    fn run_attaches_and_strips_provenance() {
        let (mut remos, _sim) = full_stack();
        let g = remos.run(Query::graph(["m-1", "m-3"])).unwrap().into_graph().unwrap();
        let p = g.provenance.as_ref().expect("provenance attached by default");
        assert_eq!(p.timeframe, Timeframe::Current);
        assert_eq!(p.snapshots, 1);
        assert_eq!(p.scope, g.links.len());
        assert!(p.worst_quality.is_fresh());
        assert!(p.solver.contains("logical-annotate"));

        let g = remos
            .run(Query::graph(["m-1", "m-3"]).without_provenance())
            .unwrap()
            .into_graph()
            .unwrap();
        assert!(g.provenance.is_none());

        let req = FlowInfoRequest::new().independent("m-2", "m-3");
        let resp = remos.run(Query::flows(req)).unwrap().into_flows().unwrap();
        let p = resp.independent.as_ref().unwrap().provenance.as_ref().unwrap();
        assert!(p.scope >= 1, "independent path crosses at least one resource");
        assert!(p.solver.contains("staged-maxmin"));
    }

    #[test]
    fn quality_floor_passes_on_healthy_network() {
        use crate::quality::DataQuality;
        let (mut remos, _sim) = full_stack();
        let g = remos
            .run(Query::graph(["m-1", "m-4"]).min_quality(DataQuality::Fresh))
            .unwrap()
            .into_graph()
            .unwrap();
        assert!(g.worst_quality().is_fresh());
    }

    #[test]
    fn query_counters_track_queries() {
        let (mut remos, _sim) = full_stack();
        let obs = Obs::new();
        remos.set_obs(obs.clone());
        // (graph, flow, rejected) query counters.
        let counts = || {
            let c = |k: &str| obs.counter(k).get();
            (
                c("remos_graph_queries_total"),
                c("remos_flow_queries_total"),
                c("remos_rejected_queries_total"),
            )
        };
        remos.run(Query::graph(["m-1", "m-3"])).unwrap();
        assert!(remos.run(Query::graph(Vec::<String>::new())).is_err());
        let req = FlowInfoRequest::new().independent("m-1", "m-3");
        remos.run(Query::flows(req.clone())).unwrap();
        assert_eq!(counts(), (2, 1, 1));
        // The shared handle also carries the collector's poll counter.
        assert!(obs.counter("collector_polls_total").get() >= 2);
        // A shed query counts like any other failure: once in its kind,
        // once as rejected.
        let shed =
            remos.run_within(Query::flows(req.clone()), QueryBudget::until(SimTime::ZERO));
        assert!(matches!(shed, Err(RemosError::DeadlineExceeded { .. })));
        assert_eq!(counts(), (2, 2, 2));
        // So does every batch entry.
        let out = remos.run_batch(vec![
            Query::graph(["m-1", "m-3"]).into(),
            Query::graph(Vec::<String>::new()).into(),
            Query::flows(req).into(),
            Query::graph(["m-1", "nope"]).into(),
        ]);
        assert_eq!(out.iter().filter(|r| r.is_err()).count(), 2);
        assert_eq!(counts(), (5, 3, 4));
        // And the topology-only rung, errors included.
        assert!(remos.topology_only(&[]).is_err());
        assert!(remos.topology_only(&["nope".into()]).is_err());
        remos.topology_only(&["m-1".into(), "m-3".into()]).unwrap();
        assert_eq!(counts(), (8, 3, 6));
    }

    #[test]
    fn whatif_query_estimates_fcts() {
        use remos_net::SimTime;
        let (mut remos, _sim) = full_stack();
        let obs = Obs::new();
        remos.set_obs(obs.clone());
        // 1.25 MB at the 100 Mbps line rate: 0.1 s ideal FCT each; the
        // arrivals are staggered so the two flows never contend.
        let report = remos
            .run(Query::estimate_fcts([
                HypotheticalFlow::new("m-1", "m-3", 1_250_000),
                HypotheticalFlow::new("m-2", "m-4", 1_250_000).at(SimTime::from_secs(1)),
            ]))
            .unwrap()
            .into_fcts()
            .unwrap();
        assert_eq!(report.flows.len(), 2);
        assert_eq!(report.completed_count(), 2);
        for f in &report.flows {
            let fct = f.fct().as_secs_f64();
            assert!((fct - 0.1).abs() < 0.01, "fct {fct}");
            assert!(f.slowdown < 1.01, "slowdown {}", f.slowdown);
        }
        assert!(report.flows[1].started >= SimTime::from_secs(1));
        let p = report.provenance.as_ref().expect("provenance attached by default");
        assert!(p.solver.contains("whatif-replay/epoch"), "{}", p.solver);
        assert_eq!(p.scope, 2);
        assert_eq!(obs.counter("whatif_flows_estimated_total").get(), 2);
        assert!(obs.counter("whatif_replay_steps_total").get() >= 2);

        let stripped = remos
            .run(Query::estimate_fcts([HypotheticalFlow::new("m-1", "m-3", 1_000)])
                .without_provenance())
            .unwrap()
            .into_fcts()
            .unwrap();
        assert!(stripped.provenance.is_none());
    }

    #[test]
    fn whatif_accounts_for_background_utilization() {
        let (mut remos, sim) = full_stack();
        let flow = || Query::estimate_fcts([HypotheticalFlow::new("m-2", "m-4", 1_250_000)]);
        let idle = remos.run(flow()).unwrap().into_fcts().unwrap();
        {
            let mut s = sim.lock();
            let topo = s.topology_arc();
            let m1 = topo.lookup("m-1").unwrap();
            let m3 = topo.lookup("m-3").unwrap();
            s.start_flow(FlowParams::cbr(m1, m3, mbps(60.0))).unwrap();
            s.run_for(SimDuration::from_secs(1)).unwrap();
        }
        let busy = remos.run(flow()).unwrap().into_fcts().unwrap();
        // The hypothetical m-2 -> m-4 flow shares the backbone with the
        // 60 Mbps stream: ~40 Mbps left, so the estimate is ~2.5x slower.
        let i = idle.flows[0].fct().as_secs_f64();
        let b = busy.flows[0].fct().as_secs_f64();
        assert!(b > i * 2.0, "busy {b} vs idle {i}");
    }

    #[test]
    fn whatif_rejects_malformed_flow_sets() {
        let (mut remos, sim) = full_stack();
        let t0 = sim.lock().now();
        assert!(matches!(
            remos.run(Query::estimate_fcts(Vec::<HypotheticalFlow>::new())),
            Err(RemosError::InvalidQuery(k)) if k.is_empty_set()
        ));
        assert!(matches!(
            remos.run(Query::estimate_fcts([HypotheticalFlow::new("m-1", "m-1", 10)])),
            Err(RemosError::InvalidQuery(InvalidQueryKind::IdenticalEndpoints { .. }))
        ));
        // Both rejected before any measurement time was consumed.
        assert_eq!(sim.lock().now(), t0);
        assert!(matches!(
            remos.run(Query::estimate_fcts([HypotheticalFlow::new("m-1", "nope", 10)])),
            Err(RemosError::UnknownNode(_))
        ));
        assert!(matches!(
            remos.run(Query::estimate_fcts([HypotheticalFlow::new("m-1", "aspen", 10)])),
            Err(RemosError::InvalidQuery(InvalidQueryKind::NotAHost { .. }))
        ));
    }

    #[test]
    fn run_batch_whatif_matches_sequential() {
        use remos_net::SimTime;
        // What-if entries answered from one pinned batch selection must
        // be bit-identical to the same queries run sequentially from the
        // same history state. Window timeframes keep the sequential runs
        // from consuming extra measurement time.
        let tf = Timeframe::Window(SimDuration::from_secs(2));
        let specs = |n: usize| -> Vec<QuerySpec> {
            (0..n)
                .map(|i| {
                    let (src, dst) =
                        if i % 2 == 0 { ("m-1", "m-3") } else { ("m-2", "m-4") };
                    Query::estimate_fcts([
                        HypotheticalFlow::new(src, dst, 500_000 * (i as u64 + 1)),
                        HypotheticalFlow::new(dst, src, 250_000)
                            .at(SimTime::from_millis(50)),
                    ])
                    .timeframe(tf)
                    .into()
                })
                .collect()
        };
        let (mut batch_remos, _bsim) = full_stack();
        let batch = batch_remos.run_batch(specs(6));
        let (mut seq_remos, _sim) = full_stack();
        let seq: Vec<CoreResult<QueryResult>> =
            specs(6).into_iter().map(|s| seq_remos.run(s)).collect();
        assert_eq!(batch.len(), 6);
        for (b, s) in batch.iter().zip(&seq) {
            let (br, sr) = match (b, s) {
                (Ok(QueryResult::Fcts(br)), Ok(QueryResult::Fcts(sr))) => (br, sr),
                other => panic!("unexpected batch/sequential results: {other:?}"),
            };
            assert_eq!(br.fct_digest, sr.fct_digest);
            assert_eq!(br.flows, sr.flows);
        }
    }

    #[test]
    fn run_batch_matches_sequential_answers() {
        use remos_net::SimTime;
        // A batch answered against one pinned selection must equal the
        // same queries run sequentially from the same history state —
        // compare graph digests bit for bit. Use Window timeframes so
        // the sequential runs don't consume extra measurement time.
        let tf = Timeframe::Window(SimDuration::from_secs(2));
        let specs = |n: usize| -> Vec<QuerySpec> {
            (0..n)
                .map(|i| {
                    let pair: Vec<&str> = if i % 2 == 0 {
                        vec!["m-1", "m-3"]
                    } else {
                        vec!["m-2", "m-4"]
                    };
                    Query::graph(pair).timeframe(tf).into()
                })
                .collect()
        };
        let (mut batch_remos, bsim) = full_stack();
        let batch = batch_remos.run_batch(specs(8));
        let t_batch = bsim.lock().now();

        let (mut seq_remos, _sim) = full_stack();
        let seq: Vec<CoreResult<QueryResult>> =
            specs(8).into_iter().map(|s| seq_remos.run(s)).collect();

        assert_eq!(batch.len(), 8);
        for (b, s) in batch.iter().zip(&seq) {
            let (bg, sg) = match (b, s) {
                (Ok(QueryResult::Graph(bg)), Ok(QueryResult::Graph(sg))) => (bg, sg),
                other => panic!("unexpected batch/sequential results: {other:?}"),
            };
            assert_eq!(bg.digest(), sg.digest());
        }
        // The whole batch consumed one query's worth of measured time.
        assert!(t_batch > SimTime::ZERO);
        let (mut one_remos, osim) = full_stack();
        one_remos.run(Query::graph(["m-1", "m-3"]).timeframe(tf)).unwrap();
        assert_eq!(t_batch, osim.lock().now());
    }

    #[test]
    fn run_batch_mixes_kinds_and_isolates_errors() {
        let (mut remos, _sim) = full_stack();
        let req = FlowInfoRequest::new().independent("m-1", "m-3");
        let out = remos.run_batch(vec![
            Query::graph(["m-1", "m-3"]).into(),
            Query::graph(Vec::<String>::new()).into(),
            Query::flows(req).into(),
            Query::graph(["m-1", "nope"]).into(),
            Query::reachable("m-1", ["m-3".to_string(), "zz".to_string()]).into(),
        ]);
        assert_eq!(out.len(), 5);
        assert!(matches!(out[0], Ok(QueryResult::Graph(_))));
        assert!(matches!(out[1], Err(RemosError::InvalidQuery(_))));
        assert!(matches!(out[2], Ok(QueryResult::Flows(_))));
        assert!(matches!(out[3], Err(RemosError::UnknownNode(_))));
        match &out[4] {
            Ok(QueryResult::Peers(p)) => assert_eq!(p, &vec!["m-3".to_string()]),
            other => panic!("unexpected reachable result: {other:?}"),
        }
    }

    /// Reachability from one routing row equals routing a path to every
    /// candidate, for every anchor of a topology with an unlinked host
    /// (`d`), a host behind another host (`c`, which `b` reaches and `a`
    /// cannot: hosts do not forward) and switches among the candidates —
    /// behind a caching modeler and a capacity-0 one.
    #[test]
    fn reachable_matches_per_candidate_paths() {
        let mut b = TopologyBuilder::new();
        let [ha, hb, hc] = ["a", "b", "c"].map(|n| b.compute(n));
        b.compute("d");
        let [s, t] = ["s", "t"].map(|n| b.network(n));
        let lat = SimDuration::from_micros(100);
        for (x, y) in [(ha, s), (s, t), (t, hb), (hb, hc)] {
            b.link(x, y, mbps(100.0), lat).unwrap();
        }
        let sim = share(Simulator::new(b.build().unwrap()).unwrap());
        let candidates = ["a", "b", "c", "d", "s", "t", "zz"].map(String::from);
        for plan_cache_capacity in [crate::modeler::DEFAULT_PLAN_CACHE_CAPACITY, 0] {
            let modeler = ModelerConfig { plan_cache_capacity, ..ModelerConfig::default() };
            let mut remos = Remos::new(
                Box::new(crate::collector::oracle::OracleCollector::new(Arc::clone(&sim))),
                Box::new(SimClock(Arc::clone(&sim))),
                RemosConfig { modeler, ..RemosConfig::default() },
            );
            // A plan first: at capacity 0 it routes in a table of its own.
            remos.run(Query::graph(["a", "b"])).unwrap();
            for anchor in &candidates[..6] {
                let got = remos
                    .run(Query::reachable(anchor, candidates.clone()))
                    .and_then(|r| r.into_peers())
                    .unwrap();
                let topo = remos.collector.topology().unwrap();
                let routing = remos_net::routing::Routing::new(&topo);
                let from = topo.lookup(anchor).unwrap();
                let want: Vec<String> = candidates
                    .iter()
                    .filter(|c| {
                        topo.lookup(c)
                            .is_ok_and(|id| id == from || routing.path(&topo, from, id).is_ok())
                    })
                    .cloned()
                    .collect();
                assert_eq!(got, want, "anchor {anchor}, capacity {plan_cache_capacity}");
            }
            assert_eq!(
                remos.run(Query::reachable("a", candidates.clone())).unwrap().into_peers().unwrap(),
                ["a", "b"]
            );
            // Only host anchors route, and the topology's table keeps their rows.
            let topo = remos.collector.topology().unwrap();
            assert_eq!(topo.routing().rows_built(), 4, "capacity {plan_cache_capacity}");
        }
    }

    #[test]
    fn run_batch_entries_share_pinned_samples() {
        // Two identical Current entries in one batch see the very same
        // sample (the §4.2 simultaneous-query property): bit-identical
        // digests. Sequentially they poll twice and generally differ in
        // provenance timestamps.
        let (mut remos, sim) = full_stack();
        {
            let mut s = sim.lock();
            let topo = s.topology_arc();
            let m1 = topo.lookup("m-1").unwrap();
            let m3 = topo.lookup("m-3").unwrap();
            s.start_flow(FlowParams::cbr(m1, m3, mbps(60.0))).unwrap();
            s.run_for(SimDuration::from_secs(1)).unwrap();
        }
        let out = remos.run_batch(vec![
            Query::graph(["m-1", "m-3"]).into(),
            Query::graph(["m-1", "m-3"]).into(),
        ]);
        let digests: Vec<u64> = out
            .into_iter()
            .map(|r| r.unwrap().into_graph().unwrap().digest())
            .collect();
        assert_eq!(digests[0], digests[1]);
    }

    #[test]
    fn plan_cache_counters_and_batch_histogram() {
        let (mut remos, _sim) = full_stack();
        let obs = Obs::new();
        remos.set_obs(obs.clone());
        remos.run(Query::graph(["m-1", "m-3"])).unwrap();
        remos.run(Query::graph(["m-1", "m-3"])).unwrap();
        // Same target set, same epoch: second query hits the plan cache.
        assert_eq!(obs.counter("modeler_plan_cache_misses_total").get(), 1);
        assert_eq!(obs.counter("modeler_plan_cache_hits_total").get(), 1);
        remos.run_batch(vec![
            Query::graph(["m-1", "m-3"]).into(),
            Query::graph(["m-1", "m-3"]).into(),
        ]);
        assert!(obs.counter("modeler_plan_cache_hits_total").get() >= 3);
        assert_eq!(obs.histogram("remos_batch_size").count(), 1);
        // Rediscovery bumps the epoch: the old plan is unreachable.
        remos.refresh_topology().unwrap();
        remos.run(Query::graph(["m-1", "m-3"])).unwrap();
        assert_eq!(obs.counter("modeler_plan_cache_misses_total").get(), 2);
    }

    #[test]
    fn deadline_sheds_before_and_after_measurement() {
        use remos_net::SimTime;
        let (mut remos, sim) = full_stack();
        // Prime the clock past zero so entry-stage checks are meaningful.
        remos.run(Query::graph(["m-1", "m-3"])).unwrap();
        let now = sim.lock().now();
        // Already expired at entry: shed before any measurement.
        let err = remos
            .run_within(Query::graph(["m-1", "m-3"]), QueryBudget::until(SimTime::ZERO))
            .unwrap_err();
        assert!(matches!(err, RemosError::DeadlineExceeded { .. }), "{err}");
        assert_eq!(sim.lock().now(), now, "entry shed consumes no measurement time");
        // Survives entry but expires while the fresh sample is taken:
        // shed after measurement, before planning.
        let err = remos
            .run_within(
                Query::graph(["m-1", "m-3"]),
                QueryBudget::starting(now, SimDuration::from_millis(1)),
            )
            .unwrap_err();
        assert!(matches!(err, RemosError::DeadlineExceeded { .. }), "{err}");
        assert!(sim.lock().now() > now, "measurement time passed before the shed");
        // A generous budget answers normally.
        let t = sim.lock().now();
        let g = remos
            .run_within(
                Query::graph(["m-1", "m-3"]),
                QueryBudget::starting(t, SimDuration::from_secs(60)),
            )
            .unwrap()
            .into_graph()
            .unwrap();
        assert!(g.provenance.is_some());
    }

    #[test]
    fn degraded_entry_points_answer_without_measured_time() {
        let (mut remos, sim) = full_stack();
        // No history yet: the stale-snapshot rung refuses.
        assert!(matches!(
            remos.run_from_history(Query::graph(["m-1", "m-3"])),
            Err(RemosError::InsufficientHistory { .. })
        ));
        // Prime one measured sample, then answer from history: no time
        // passes and the answer is flagged degraded.
        remos.run(Query::graph(["m-1", "m-3"])).unwrap();
        let t0 = sim.lock().now();
        let g = remos
            .run_from_history(Query::graph(["m-1", "m-3"]))
            .unwrap()
            .into_graph()
            .unwrap();
        assert_eq!(sim.lock().now(), t0, "history answers consume no measured time");
        let p = g.provenance.as_ref().unwrap();
        assert!(p.degraded);
        assert!(
            p.source.as_deref().unwrap().starts_with("snmp("),
            "source names the collector: {:?}",
            p.source
        );
        // Topology-only rung: structure with total uncertainty.
        let g = remos.topology_only(&["m-1".into(), "m-3".into()]).unwrap();
        assert_eq!(sim.lock().now(), t0);
        let p = g.provenance.as_ref().unwrap();
        assert!(p.degraded);
        assert_eq!(p.snapshots, 0);
        assert_eq!(p.worst_quality, DataQuality::Missing);
        assert_eq!(p.solver, "topology-only");
        let l = &g.links[0];
        assert_eq!(l.avail[0].min, 0.0);
        assert_eq!(l.avail[0].max, l.capacity);
        assert_eq!(l.quality[0], DataQuality::Missing);
    }

    #[test]
    fn run_stamps_provenance_source() {
        let (mut remos, _sim) = full_stack();
        let g = remos.run(Query::graph(["m-1", "m-3"])).unwrap().into_graph().unwrap();
        let p = g.provenance.as_ref().unwrap();
        assert!(!p.degraded, "normal serving is not degraded");
        assert!(p.source.as_deref().unwrap().starts_with("snmp("), "{:?}", p.source);
        // Batch answers carry the same stamp.
        let out = remos.run_batch(vec![Query::graph(["m-1", "m-3"]).into()]);
        let g = out.into_iter().next().unwrap().unwrap().into_graph().unwrap();
        assert!(g.provenance.as_ref().unwrap().source.is_some());
    }
}
