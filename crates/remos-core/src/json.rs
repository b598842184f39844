//! The JSON forms of the types that cross a file boundary: answers are
//! written ([`RemosGraph::to_json`], [`FctReport::to_json`] — `remos-sim
//! graph --json`, `whatif --json`) and inputs are read
//! ([`HypotheticalFlow::list_from_json`] — `whatif --flows FILE`). A
//! what-if report is written beside the flows it answers: the caller owns
//! the endpoint names, and each estimate is written with its flow's.
//!
//! Field names and enum shapes are fixed: structs are objects keyed by
//! field name, unit variants are strings (`"Fresh"`), data-carrying
//! variants are single-member objects (`{"Stale":{"age":7000000000}}`,
//! `{"Window":1000000000}`), `None` is `null`, and every time is an
//! integer count of nanoseconds.

use crate::graph::{RemosGraph, RemosLink, RemosNode};
use crate::provenance::Provenance;
use crate::quality::DataQuality;
use crate::stats::Quartiles;
use crate::timeframe::Timeframe;
use crate::whatif::{FctReport, FlowFct, HypotheticalFlow};
use remos_net::topology::NodeKind;
use remos_net::SimTime;
use remos_obs::json::{Error, Value};

fn quartiles(q: &Quartiles) -> Value {
    Value::object([
        ("min", q.min.into()),
        ("q1", q.q1.into()),
        ("median", q.median.into()),
        ("q3", q.q3.into()),
        ("max", q.max.into()),
        ("mean", q.mean.into()),
        ("samples", q.samples.into()),
        ("accuracy", q.accuracy.into()),
    ])
}

fn quality(q: DataQuality) -> Value {
    match q {
        DataQuality::Fresh => "Fresh".into(),
        DataQuality::Stale { age } => {
            Value::object([("Stale", Value::object([("age", age.as_nanos().into())]))])
        }
        DataQuality::Missing => "Missing".into(),
    }
}

fn timeframe(tf: Timeframe) -> Value {
    match tf {
        Timeframe::Current => "Current".into(),
        Timeframe::Window(w) => Value::object([("Window", w.as_nanos().into())]),
        Timeframe::Future(f) => Value::object([("Future", f.as_nanos().into())]),
    }
}

fn provenance(p: &Provenance) -> Value {
    Value::object([
        ("timeframe", timeframe(p.timeframe)),
        ("snapshots", p.snapshots.into()),
        ("newest_sample", p.newest_sample.map(SimTime::as_nanos).into()),
        ("oldest_sample", p.oldest_sample.map(SimTime::as_nanos).into()),
        ("worst_quality", quality(p.worst_quality)),
        ("solver", (&p.solver).into()),
        ("scope", p.scope.into()),
        ("degraded", p.degraded.into()),
        ("source", p.source.as_deref().into()),
    ])
}

fn node(n: &RemosNode) -> Value {
    let kind = match n.kind {
        NodeKind::Compute => "Compute",
        NodeKind::Network => "Network",
    };
    let host = n.host.map(|h| {
        Value::object([
            ("compute_flops", h.compute_flops.into()),
            ("memory_bytes", h.memory_bytes.into()),
        ])
    });
    Value::object([
        ("name", (&n.name).into()),
        ("kind", kind.into()),
        ("internal_bw", n.internal_bw.into()),
        ("host", host.into()),
    ])
}

fn link(l: &RemosLink) -> Value {
    Value::object([
        ("a", l.a.into()),
        ("b", l.b.into()),
        ("capacity", l.capacity.into()),
        ("latency", l.latency.as_nanos().into()),
        ("avail", l.avail.iter().map(quartiles).collect()),
        ("quality", l.quality.iter().map(|&q| quality(q)).collect()),
    ])
}

/// One estimate, with the endpoint names of the query flow it answers
/// (`null` when the caller supplied none).
fn flow_fct(f: &FlowFct, query: Option<&HypotheticalFlow>) -> Value {
    Value::object([
        ("src", query.map(|h| h.src.as_str()).into()),
        ("dst", query.map(|h| h.dst.as_str()).into()),
        ("size_bytes", f.size_bytes.into()),
        ("started", f.started.as_nanos().into()),
        ("finished", f.finished.as_nanos().into()),
        ("completed", f.completed.into()),
        ("fct", f.fct.as_nanos().into()),
        // Infinite for a flow the horizon cut off: written as `null`.
        ("slowdown", f.slowdown.into()),
        ("bottleneck", f.bottleneck.into()),
        ("bottleneck_capacity", f.bottleneck_capacity.into()),
    ])
}

impl RemosGraph {
    /// The graph as a JSON document: `nodes`, `links` (endpoints as
    /// indices into `nodes`) and `provenance`.
    pub fn to_json(&self) -> Value {
        Value::object([
            ("nodes", self.nodes.iter().map(node).collect()),
            ("links", self.links.iter().map(link).collect()),
            ("provenance", self.provenance.as_ref().map(provenance).into()),
        ])
    }
}

impl FctReport {
    /// The report as a JSON document; `fct_digest` is written as an
    /// exact integer. A report does not hold its flows' endpoint names:
    /// pass the flows of the query it answers, in the query's order, and
    /// each estimate is written with its flow's `src` and `dst`.
    pub fn to_json(&self, flows: &[HypotheticalFlow]) -> Value {
        let answers = self.flows.iter().enumerate().map(|(i, f)| flow_fct(f, flows.get(i)));
        Value::object([
            ("flows", answers.collect()),
            ("fct_digest", self.fct_digest.into()),
            ("replay_steps", self.replay_steps.into()),
            ("solves", self.solves.into()),
            ("provenance", self.provenance.as_ref().map(provenance).into()),
        ])
    }
}

impl HypotheticalFlow {
    /// Read a flow file: a JSON array of `{src, dst, size_bytes[,
    /// arrival]}`, `arrival` in nanoseconds on the replay clock
    /// (default 0). Errors name the offending field, e.g.
    /// `flows[1].size_bytes: expected a non-negative integer, found -3`.
    pub fn list_from_json(text: &str) -> Result<Vec<HypotheticalFlow>, Error> {
        let flow = |v: &Value| {
            Ok(HypotheticalFlow {
                src: v.field("src", Value::as_str)?.to_string(),
                dst: v.field("dst", Value::as_str)?.to_string(),
                size_bytes: v.field("size_bytes", Value::as_u64)?,
                arrival: SimTime::from_nanos(v.opt_field("arrival", Value::as_u64)?.unwrap_or(0)),
            })
        };
        Value::parse(text)?.list(flow).map_err(|e| e.under("flows"))
    }
}
