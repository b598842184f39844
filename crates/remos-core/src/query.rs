//! Typed query builders for the Remos facade.
//!
//! The original entry points (`remos_get_graph`-style positional methods)
//! grew parameters — timeframe, quality floors, provenance opt-outs — that
//! positional arguments carry badly. [`Query`] is the redesigned front
//! door: build a typed spec, then execute it with
//! [`crate::api::Remos::run`]:
//!
//! ```ignore
//! let g = remos
//!     .run(Query::graph(["m-1", "m-4"])
//!         .timeframe(Timeframe::Current)
//!         .min_quality(DataQuality::Fresh))?
//!     .into_graph()?;
//! ```
//!
//! Every builder defaults to `Timeframe::Current`, no quality floor, and
//! provenance attached; each knob is an explicit named method rather than
//! a positional slot.

use crate::error::{CoreResult, InvalidQueryKind, RemosError};
use crate::flows::{FlowInfoRequest, FlowInfoResponse};
use crate::graph::RemosGraph;
use crate::quality::DataQuality;
use crate::timeframe::Timeframe;
use crate::whatif::{FctReport, HypotheticalFlow};
use remos_net::SimTime;
use std::borrow::Cow;

/// Entry points for building query specs.
///
/// `Query` is a namespace, not a value: each constructor returns the
/// matching typed builder.
pub struct Query;

impl Query {
    /// Start a logical-topology query over the named nodes
    /// (`remos_get_graph`).
    pub fn graph<I, S>(nodes: I) -> GraphQuery
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        GraphQuery {
            nodes: nodes.into_iter().map(Into::into).collect(),
            timeframe: Timeframe::Current,
            min_quality: None,
            provenance: true,
        }
    }

    /// Start a flow query from a built [`FlowInfoRequest`]
    /// (`remos_flow_info`).
    pub fn flows(request: FlowInfoRequest) -> FlowQuery {
        FlowQuery {
            request,
            timeframe: Timeframe::Current,
            min_quality: None,
            provenance: true,
        }
    }

    /// Start a what-if query: estimate the completion time of each
    /// hypothetical flow by replaying a fluid max-min schedule against
    /// the current topology snapshot (`remos_estimate_fcts`).
    pub fn estimate_fcts<I>(flows: I) -> WhatIfQuery
    where
        I: IntoIterator<Item = HypotheticalFlow>,
    {
        WhatIfQuery {
            flows: flows.into_iter().collect(),
            timeframe: Timeframe::Current,
            min_quality: None,
            provenance: true,
            horizon: None,
        }
    }

    /// Start a reachability query: which of `candidates` can `anchor`
    /// currently reach?
    pub fn reachable<I, S>(anchor: &str, candidates: I) -> ReachableQuery
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        ReachableQuery {
            anchor: anchor.to_string(),
            candidates: candidates.into_iter().map(Into::into).collect(),
        }
    }
}

/// A typed `remos_get_graph` query.
#[derive(Clone, Debug)]
pub struct GraphQuery {
    /// Nodes the logical topology must cover.
    pub nodes: Vec<String>,
    /// Timescale of the annotations.
    pub timeframe: Timeframe,
    /// Reject the answer unless every annotation meets this floor.
    pub min_quality: Option<DataQuality>,
    /// Attach a [`crate::provenance::Provenance`] record to the graph.
    pub provenance: bool,
}

impl GraphQuery {
    /// Set the timeframe (default `Current`).
    pub fn timeframe(mut self, tf: Timeframe) -> Self {
        self.timeframe = tf;
        self
    }

    /// Demand a measurement-quality floor: if the worst annotation behind
    /// the answer does not [`DataQuality::meets`] `floor`, the query fails
    /// with [`RemosError::QualityTooLow`] instead of returning numbers the
    /// caller would silently trust.
    pub fn min_quality(mut self, floor: DataQuality) -> Self {
        self.min_quality = Some(floor);
        self
    }

    /// Attach provenance to the answer (the default).
    pub fn with_provenance(mut self) -> Self {
        self.provenance = true;
        self
    }

    /// Strip provenance from the answer (smaller payloads for callers
    /// that only consume the numbers).
    pub fn without_provenance(mut self) -> Self {
        self.provenance = false;
        self
    }
}

/// A typed `remos_flow_info` query.
#[derive(Clone, Debug)]
pub struct FlowQuery {
    /// The flows to solve for, in the paper's three classes.
    pub request: FlowInfoRequest,
    /// Timescale of the grants.
    pub timeframe: Timeframe,
    /// Reject the answer unless every grant meets this floor.
    pub min_quality: Option<DataQuality>,
    /// Attach a [`crate::provenance::Provenance`] record to each grant.
    pub provenance: bool,
}

impl FlowQuery {
    /// Set the timeframe (default `Current`).
    pub fn timeframe(mut self, tf: Timeframe) -> Self {
        self.timeframe = tf;
        self
    }

    /// Demand a measurement-quality floor (see
    /// [`GraphQuery::min_quality`]).
    pub fn min_quality(mut self, floor: DataQuality) -> Self {
        self.min_quality = Some(floor);
        self
    }

    /// Attach provenance to each grant (the default).
    pub fn with_provenance(mut self) -> Self {
        self.provenance = true;
        self
    }

    /// Strip provenance from the grants.
    pub fn without_provenance(mut self) -> Self {
        self.provenance = false;
        self
    }
}

/// A typed `remos_estimate_fcts` query.
#[derive(Clone, Debug)]
pub struct WhatIfQuery {
    /// The hypothetical flows to replay, in caller order.
    pub flows: Vec<HypotheticalFlow>,
    /// Which snapshot the background load is read from. `Current` uses
    /// the latest collector sample; `Window`/`Future` select exactly as
    /// graph and flow queries do.
    pub timeframe: Timeframe,
    /// Reject the answer unless the snapshot meets this floor.
    pub min_quality: Option<DataQuality>,
    /// Attach a [`crate::provenance::Provenance`] record (stamped with
    /// the snapshot epoch and solver mode) to the report.
    pub provenance: bool,
    /// Stop the replay at this virtual time; flows still in flight are
    /// reported with `completed = false`. `None` replays to drain.
    pub horizon: Option<SimTime>,
}

impl WhatIfQuery {
    /// Set the timeframe (default `Current`).
    pub fn timeframe(mut self, tf: Timeframe) -> Self {
        self.timeframe = tf;
        self
    }

    /// Demand a measurement-quality floor (see
    /// [`GraphQuery::min_quality`]).
    pub fn min_quality(mut self, floor: DataQuality) -> Self {
        self.min_quality = Some(floor);
        self
    }

    /// Attach provenance to the report (the default).
    pub fn with_provenance(mut self) -> Self {
        self.provenance = true;
        self
    }

    /// Strip provenance from the report.
    pub fn without_provenance(mut self) -> Self {
        self.provenance = false;
        self
    }

    /// Cut the replay off at `t` of virtual time instead of replaying
    /// until every flow drains.
    pub fn horizon(mut self, t: SimTime) -> Self {
        self.horizon = Some(t);
        self
    }
}

/// A typed reachability query.
#[derive(Clone, Debug)]
pub struct ReachableQuery {
    /// The node reachability is judged from.
    pub anchor: String,
    /// Candidate peers to test.
    pub candidates: Vec<String>,
}

/// Any executable query, as accepted by [`crate::api::Remos::run`]. Each
/// builder converts into this via `From`, so `remos.run(Query::graph(..))`
/// works without naming the enum.
#[derive(Clone, Debug)]
pub enum QuerySpec {
    /// A logical-topology query.
    Graph(GraphQuery),
    /// A flow query.
    Flows(FlowQuery),
    /// A reachability query.
    Reachable(ReachableQuery),
    /// A what-if flow-completion-time query.
    WhatIf(WhatIfQuery),
}

/// A graph query must name at least one node.
pub(crate) fn require_nodes(nodes: &[String]) -> CoreResult<()> {
    if nodes.is_empty() {
        return Err(InvalidQueryKind::EmptyNodeSet.into());
    }
    Ok(())
}

/// Sorted, deduplicated endpoint names of a flow set.
fn endpoint_names<'a>(pairs: impl Iterator<Item = (&'a String, &'a String)>) -> Vec<String> {
    let mut names: Vec<String> = pairs.flat_map(|(s, d)| [s.clone(), d.clone()]).collect();
    names.sort();
    names.dedup();
    names
}

impl QuerySpec {
    /// Stage one of every query: reject a malformed spec. Pure — it looks
    /// at the spec alone, so a rejected query costs no measured time and
    /// fails identically through every entry point. Checks that need the
    /// topology (unknown nodes, switches named as what-if endpoints)
    /// happen later, when the plan is looked up.
    pub(crate) fn validate(&self) -> CoreResult<()> {
        match self {
            QuerySpec::Graph(q) => require_nodes(&q.nodes),
            QuerySpec::Flows(q) => q.request.validate(),
            QuerySpec::WhatIf(q) => {
                if q.flows.is_empty() {
                    return Err(InvalidQueryKind::EmptyFlowSet.into());
                }
                match q.flows.iter().find(|f| f.src == f.dst) {
                    Some(f) => {
                        Err(InvalidQueryKind::IdenticalEndpoints { node: f.src.clone() }.into())
                    }
                    None => Ok(()),
                }
            }
            QuerySpec::Reachable(_) => Ok(()),
        }
    }

    /// The timeframe whose samples answer this query; `None` for
    /// reachability, which reads the topology alone.
    pub(crate) fn timeframe(&self) -> Option<Timeframe> {
        match self {
            QuerySpec::Graph(q) => Some(q.timeframe),
            QuerySpec::Flows(q) => Some(q.timeframe),
            QuerySpec::WhatIf(q) => Some(q.timeframe),
            QuerySpec::Reachable(_) => None,
        }
    }

    /// The node names the query's structural plan must cover: a graph
    /// query's nodes as written, a flow set's endpoints in canonical
    /// (sorted, deduplicated) order.
    pub(crate) fn plan_names(&self) -> Cow<'_, [String]> {
        match self {
            QuerySpec::Graph(q) => Cow::Borrowed(&q.nodes),
            QuerySpec::Flows(q) => Cow::Owned(endpoint_names(
                q.request.all_endpoints().into_iter().map(|e| (&e.src, &e.dst)),
            )),
            QuerySpec::WhatIf(q) => {
                Cow::Owned(endpoint_names(q.flows.iter().map(|f| (&f.src, &f.dst))))
            }
            QuerySpec::Reachable(q) => Cow::Borrowed(std::slice::from_ref(&q.anchor)),
        }
    }
}

impl From<GraphQuery> for QuerySpec {
    fn from(q: GraphQuery) -> Self {
        QuerySpec::Graph(q)
    }
}

impl From<FlowQuery> for QuerySpec {
    fn from(q: FlowQuery) -> Self {
        QuerySpec::Flows(q)
    }
}

impl From<ReachableQuery> for QuerySpec {
    fn from(q: ReachableQuery) -> Self {
        QuerySpec::Reachable(q)
    }
}

impl From<WhatIfQuery> for QuerySpec {
    fn from(q: WhatIfQuery) -> Self {
        QuerySpec::WhatIf(q)
    }
}

/// The answer to an executed [`QuerySpec`], one variant per query kind.
#[derive(Clone, Debug)]
pub enum QueryResult {
    /// Answer to a [`QuerySpec::Graph`] query.
    Graph(RemosGraph),
    /// Answer to a [`QuerySpec::Flows`] query.
    Flows(FlowInfoResponse),
    /// Answer to a [`QuerySpec::Reachable`] query.
    Peers(Vec<String>),
    /// Answer to a [`QuerySpec::WhatIf`] query.
    Fcts(FctReport),
}

impl QueryResult {
    fn mismatch(self, wanted: &str) -> RemosError {
        let got = match self {
            QueryResult::Graph(_) => "graph",
            QueryResult::Flows(_) => "flows",
            QueryResult::Peers(_) => "peers",
            QueryResult::Fcts(_) => "fcts",
        };
        RemosError::Internal(format!("query result is {got}, not {wanted}"))
    }

    /// Unwrap a graph answer.
    pub fn into_graph(self) -> CoreResult<RemosGraph> {
        match self {
            QueryResult::Graph(g) => Ok(g),
            other => Err(other.mismatch("graph")),
        }
    }

    /// Unwrap a flow answer.
    pub fn into_flows(self) -> CoreResult<FlowInfoResponse> {
        match self {
            QueryResult::Flows(r) => Ok(r),
            other => Err(other.mismatch("flows")),
        }
    }

    /// Unwrap a reachability answer.
    pub fn into_peers(self) -> CoreResult<Vec<String>> {
        match self {
            QueryResult::Peers(p) => Ok(p),
            other => Err(other.mismatch("peers")),
        }
    }

    /// Unwrap a what-if answer.
    pub fn into_fcts(self) -> CoreResult<FctReport> {
        match self {
            QueryResult::Fcts(r) => Ok(r),
            other => Err(other.mismatch("fcts")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use remos_net::SimDuration;

    #[test]
    fn graph_builder_defaults_and_knobs() {
        let q = Query::graph(["m-1", "m-2"]);
        assert_eq!(q.nodes, vec!["m-1".to_string(), "m-2".to_string()]);
        assert_eq!(q.timeframe, Timeframe::Current);
        assert_eq!(q.min_quality, None);
        assert!(q.provenance);

        let q = q
            .timeframe(Timeframe::Window(SimDuration::from_secs(5)))
            .min_quality(DataQuality::Fresh)
            .without_provenance();
        assert_eq!(q.timeframe, Timeframe::Window(SimDuration::from_secs(5)));
        assert_eq!(q.min_quality, Some(DataQuality::Fresh));
        assert!(!q.provenance);
    }

    #[test]
    fn whatif_builder_defaults_and_knobs() {
        let q = Query::estimate_fcts([HypotheticalFlow::new("m-1", "m-4", 1 << 20)]);
        assert_eq!(q.flows.len(), 1);
        assert_eq!(q.timeframe, Timeframe::Current);
        assert_eq!(q.min_quality, None);
        assert!(q.provenance);
        assert_eq!(q.horizon, None);

        let q = q
            .timeframe(Timeframe::Window(SimDuration::from_secs(5)))
            .min_quality(DataQuality::Fresh)
            .horizon(SimTime::from_secs(30))
            .without_provenance();
        assert_eq!(q.timeframe, Timeframe::Window(SimDuration::from_secs(5)));
        assert_eq!(q.min_quality, Some(DataQuality::Fresh));
        assert_eq!(q.horizon, Some(SimTime::from_secs(30)));
        assert!(!q.provenance);

        let spec: QuerySpec = q.into();
        assert!(matches!(spec, QuerySpec::WhatIf(_)));
    }

    #[test]
    fn specs_convert_and_results_unwrap() {
        let spec: QuerySpec = Query::graph(["a"]).into();
        assert!(matches!(spec, QuerySpec::Graph(_)));
        let spec: QuerySpec = Query::flows(FlowInfoRequest::new().independent("a", "b")).into();
        assert!(matches!(spec, QuerySpec::Flows(_)));
        let spec: QuerySpec = Query::reachable("a", ["b", "c"]).into();
        assert!(matches!(spec, QuerySpec::Reachable(_)));

        let peers = QueryResult::Peers(vec!["b".into()]);
        assert_eq!(peers.clone().into_peers().unwrap(), vec!["b".to_string()]);
        assert!(matches!(
            peers.into_graph(),
            Err(RemosError::Internal(_))
        ));
    }
}
