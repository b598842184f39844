//! Flow-based queries (§4.2).
//!
//! "A general flow query has the following form:
//! `remos_flow_info(fixed_flows, variable_flows, independent_flow,
//! timeframe)`. Remos tries to satisfy the fixed_flows, then the
//! variable_flows simultaneously, and finally the independent_flow."
//!
//! All flows in one request are solved *simultaneously* over the same
//! logical topology, so internal sharing between an application's own
//! connections is taken into account — the feature the paper singles out
//! as "particularly important for parallel applications that use
//! collective communication".

use crate::error::{CoreResult, InvalidQueryKind};
use crate::provenance::Provenance;
use crate::quality::DataQuality;
use crate::stats::Quartiles;
use remos_net::{Bps, SimDuration};

/// An application-level connection between two named compute nodes.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct FlowEndpoints {
    /// Sending node name.
    pub src: String,
    /// Receiving node name.
    pub dst: String,
}

impl FlowEndpoints {
    /// Convenience constructor.
    pub fn new(src: &str, dst: &str) -> Self {
        FlowEndpoints { src: src.to_string(), dst: dst.to_string() }
    }
}

/// A fixed flow: needs `requested` bits/s, no more ("fixed and inherently
/// low bandwidth needs (e.g. audio)").
#[derive(Clone, Debug)]
pub struct FixedFlowReq {
    /// Endpoints.
    pub endpoints: FlowEndpoints,
    /// Required bandwidth, bits/s.
    pub requested: Bps,
}

/// A variable flow: scales with available bandwidth, proportionally to its
/// `relative_bw` weight ("the bandwidths of the flows are linked in the
/// sense that they will share available bandwidth proportionally").
#[derive(Clone, Debug)]
pub struct VariableFlowReq {
    /// Endpoints.
    pub endpoints: FlowEndpoints,
    /// Relative bandwidth weight (e.g. 3, 4.5 and 9 in the paper's §4.2
    /// example).
    pub relative_bw: f64,
}

/// The complete query: fixed flows, then variable flows, then one optional
/// independent flow absorbing whatever is left.
#[derive(Clone, Debug, Default)]
pub struct FlowInfoRequest {
    /// Satisfied first, in order.
    pub fixed: Vec<FixedFlowReq>,
    /// Satisfied second, simultaneously and proportionally.
    pub variable: Vec<VariableFlowReq>,
    /// Satisfied last from residual bandwidth ("lower priority flows").
    pub independent: Option<FlowEndpoints>,
}

impl FlowInfoRequest {
    /// Empty request builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a fixed flow.
    pub fn fixed(mut self, src: &str, dst: &str, requested: Bps) -> Self {
        self.fixed.push(FixedFlowReq { endpoints: FlowEndpoints::new(src, dst), requested });
        self
    }

    /// Add a variable flow.
    pub fn variable(mut self, src: &str, dst: &str, relative_bw: f64) -> Self {
        self.variable
            .push(VariableFlowReq { endpoints: FlowEndpoints::new(src, dst), relative_bw });
        self
    }

    /// Set the independent flow.
    pub fn independent(mut self, src: &str, dst: &str) -> Self {
        self.independent = Some(FlowEndpoints::new(src, dst));
        self
    }

    /// Total number of flows in the request.
    pub fn flow_count(&self) -> usize {
        self.fixed.len() + self.variable.len() + usize::from(self.independent.is_some())
    }

    /// All endpoints, in solve order (fixed, variable, independent).
    pub fn all_endpoints(&self) -> Vec<&FlowEndpoints> {
        self.fixed
            .iter()
            .map(|f| &f.endpoints)
            .chain(self.variable.iter().map(|v| &v.endpoints))
            .chain(self.independent.iter())
            .collect()
    }

    /// The endpoints' node names, sorted and deduplicated: the node set
    /// the request's plan covers.
    pub(crate) fn endpoint_names(&self) -> Vec<String> {
        let mut names: Vec<String> =
            self.all_endpoints().into_iter().flat_map(|e| [e.src.clone(), e.dst.clone()]).collect();
        names.sort();
        names.dedup();
        names
    }

    /// Reject a malformed request: no flows at all, a non-positive or
    /// non-finite fixed bandwidth or variable weight, or a flow whose
    /// endpoints coincide — checked in that order, naming the first
    /// offender of each class in solve order. Pure: every entry point
    /// runs this before any measurement time is spent.
    pub(crate) fn validate(&self) -> CoreResult<()> {
        if self.flow_count() == 0 {
            return Err(InvalidQueryKind::EmptyFlowRequest.into());
        }
        for f in &self.fixed {
            if f.requested <= 0.0 || !f.requested.is_finite() {
                return Err(InvalidQueryKind::BadFixedBandwidth { value: f.requested }.into());
            }
        }
        for v in &self.variable {
            if v.relative_bw <= 0.0 || !v.relative_bw.is_finite() {
                return Err(InvalidQueryKind::BadVariableWeight { value: v.relative_bw }.into());
            }
        }
        match self.all_endpoints().into_iter().find(|e| e.src == e.dst) {
            Some(e) => Err(InvalidQueryKind::IdenticalEndpoints { node: e.src.clone() }.into()),
            None => Ok(()),
        }
    }
}

/// Per-flow answer: granted bandwidth statistics plus path latency.
#[derive(Clone, Debug)]
pub struct FlowGrant {
    /// Endpoints echoed from the request.
    pub endpoints: FlowEndpoints,
    /// Granted bandwidth over the queried timeframe.
    pub bandwidth: Quartiles,
    /// One-way path latency (fixed per-hop model, §5).
    pub latency: SimDuration,
    /// For fixed flows: whether the full request was satisfiable in every
    /// sampled network state.
    pub fully_satisfied: bool,
    /// Quality of the measurements this estimate is derived from: the
    /// worst quality of any directed link on the flow's path. Non-`Fresh`
    /// grants have their `bandwidth` spread widened accordingly.
    pub estimate_quality: DataQuality,
    /// How this grant was derived (snapshots consumed, solver, path
    /// scope). `None` when the query opted out with `without_provenance()`.
    pub provenance: Option<Provenance>,
}

/// The complete answer to a [`FlowInfoRequest`].
#[derive(Clone, Debug)]
pub struct FlowInfoResponse {
    /// Grants for the fixed flows, in request order.
    pub fixed: Vec<FlowGrant>,
    /// Grants for the variable flows, in request order.
    pub variable: Vec<FlowGrant>,
    /// Grant for the independent flow, if requested.
    pub independent: Option<FlowGrant>,
}

impl FlowInfoResponse {
    /// Iterate all grants in solve order.
    pub fn all_grants(&self) -> impl Iterator<Item = &FlowGrant> {
        self.fixed
            .iter()
            .chain(self.variable.iter())
            .chain(self.independent.iter())
    }

    /// Mutable twin of [`FlowInfoResponse::all_grants`].
    pub(crate) fn all_grants_mut(&mut self) -> impl Iterator<Item = &mut FlowGrant> {
        self.fixed
            .iter_mut()
            .chain(self.variable.iter_mut())
            .chain(self.independent.iter_mut())
    }

    /// Worst measurement quality behind any grant in this response.
    pub fn worst_quality(&self) -> DataQuality {
        self.all_grants()
            .map(|g| g.estimate_quality)
            .fold(DataQuality::Fresh, DataQuality::worst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates() {
        let req = FlowInfoRequest::new()
            .fixed("m-1", "m-2", 1e6)
            .variable("m-1", "m-3", 3.0)
            .variable("m-2", "m-3", 4.5)
            .independent("m-4", "m-5");
        assert_eq!(req.flow_count(), 4);
        assert_eq!(req.fixed.len(), 1);
        assert_eq!(req.variable.len(), 2);
        assert!(req.independent.is_some());
        let eps = req.all_endpoints();
        assert_eq!(eps.len(), 4);
        assert_eq!(eps[0].src, "m-1");
        assert_eq!(eps[3].dst, "m-5");
    }

    #[test]
    fn empty_request() {
        let req = FlowInfoRequest::new();
        assert_eq!(req.flow_count(), 0);
        assert!(req.all_endpoints().is_empty());
    }
}
