//! Per-layer metrics of one traced lap, computed from the spans the
//! decorators recorded, the lockstep probes and the program's counters.
//! README.md defines every metric; the names and units here are the
//! ones `BENCHMARK.json` lists under `per_layer` (`run.sh --smoke` checks).

use crate::spans::{Layer, Span};
use crate::stack::{Counts, Lap, ProbeKind};
use crate::stats::{percentile, self_time};
use std::collections::BTreeMap;

/// What the traced lap hands over besides its spans.
pub struct TracedLap<'a> {
    pub lap: &'a Lap,
    /// `(ApiRun span id, lockstep probe)` per direct call.
    pub direct: &'a [(u32, Option<(ProbeKind, u64)>)],
    /// Counter deltas over the lap (the direct pass excluded).
    pub counts: Counts,
    /// Allocations and bytes per counted `Remos::run_within` call.
    pub allocs_per_call: (f64, f64),
    pub codec_ns_per_pdu: f64,
    /// The untraced lap the traced one is compared with.
    pub untraced_p50_us: f64,
    pub untraced_p99_us: f64,
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Ids of span `id`'s children recorded at `layer`.
fn children_of(spans: &[Span], kids: &BTreeMap<u32, Vec<u32>>, id: u32, layer: Layer) -> Vec<u32> {
    kids.get(&id)
        .into_iter()
        .flatten()
        .copied()
        .filter(|&c| spans[c as usize - 1].layer == layer)
        .collect()
}

/// `(name, unit, value)` of every per-layer metric, in output order.
pub fn metrics(spans: &[Span], t: &TracedLap<'_>) -> Vec<(&'static str, &'static str, f64)> {
    let mut kids: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.parent != 0 {
            kids.entry(s.parent).or_default().push(i as u32 + 1);
        }
    }
    // Time under span `id` spent in the engine clock and in collector polls.
    let below = |id: u32| -> u64 {
        [Layer::Advance, Layer::Poll]
            .iter()
            .flat_map(|&l| children_of(spans, &kids, id, l))
            .map(|c| spans[c as usize - 1].nanos())
            .sum()
    };
    let p50 = |v: &[f64]| percentile(v, 0.5);

    let n = t.lap.requests.len() as f64;
    let (mut submit, mut serve, mut rest, mut queue_wait, mut latency) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut advance, mut poll, mut child_poll, mut poll_self, mut snmp) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut probes: BTreeMap<u8, Vec<f64>> = BTreeMap::new();
    let (mut service_ns, mut advance_ns, mut poll_ns, mut modeler_ns, mut kernel_ns, mut steps) =
        (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
    let mut whatif_flows = 0usize;
    for r in &t.lap.requests {
        let (s, v) = (
            &spans[r.submit_span as usize - 1],
            &spans[r.serve_span as usize - 1],
        );
        let service = s.nanos() + v.nanos();
        service_ns += service;
        submit.push(us(s.nanos()));
        serve.push(us(v.nanos()));
        queue_wait.push(us(r.queue_wait_ns));
        latency.push(us(r.latency_ns));
        steps += r.replay_steps;
        whatif_flows += r.whatif_flows;
        for a in children_of(spans, &kids, r.serve_span, Layer::Advance) {
            let a = &spans[a as usize - 1];
            advance.push(us(a.nanos()));
            advance_ns += a.nanos();
        }
        for id in children_of(spans, &kids, r.serve_span, Layer::Poll) {
            let p = &spans[id as usize - 1];
            poll.push(us(p.nanos()));
            poll_ns += p.nanos();
            let mut inner = Vec::new();
            for c in kids
                .get(&id)
                .into_iter()
                .flatten()
                .map(|&c| &spans[c as usize - 1])
            {
                inner.push((c.start_ns, c.end_ns));
                match c.layer {
                    Layer::ChildPoll => child_poll.push(us(c.nanos())),
                    Layer::SnmpRequest => snmp.push(us(c.nanos())),
                    _ => {}
                }
            }
            poll_self.push(us(self_time(p.start_ns, p.end_ns, &inner)));
        }
        let probe_ns = r.probe.map_or(0, |(kind, ns)| {
            probes.entry(kind as u8).or_default().push(us(ns));
            if kind == ProbeKind::WhatifKernel {
                kernel_ns += ns;
            } else {
                modeler_ns += ns;
            }
            ns
        });
        rest.push(us(service.saturating_sub(below(r.serve_span) + probe_ns)));
    }
    let polls = poll.len() as f64;

    let mut api_run = Vec::new();
    let mut api_self = Vec::new();
    for &(id, probe) in t.direct {
        let run = spans[id as usize - 1].nanos();
        api_run.push(us(run));
        api_self.push(us(
            run.saturating_sub(below(id) + probe.map_or(0, |(_, ns)| ns))
        ));
    }
    let api_self_p50 = p50(&api_self);
    let probe_p50 = |kind: ProbeKind| probes.get(&(kind as u8)).map_or(0.0, |v| p50(v));
    let c = &t.counts;
    let traced_p50 = p50(&latency);

    vec![
        ("net.advance_us_p50", "us", p50(&advance)),
        (
            "net.advance_share",
            "share",
            ratio(advance_ns as f64, service_ns as f64),
        ),
        (
            "net.recomputes_per_query",
            "count",
            ratio(c.recomputes as f64, n),
        ),
        (
            "net.us_per_recompute",
            "us",
            ratio(us(advance_ns), c.recomputes as f64),
        ),
        ("net.routing_rebuilds", "count", c.routing_rebuilds as f64),
        (
            "net.whatif_kernel_us_per_flow",
            "us",
            ratio(us(kernel_ns), whatif_flows as f64),
        ),
        (
            "net.whatif_replay_steps_per_flow",
            "count",
            ratio(steps as f64, whatif_flows as f64),
        ),
        (
            "net.whatif_share",
            "share",
            ratio(kernel_ns as f64, service_ns as f64),
        ),
        (
            "snmp.requests_per_poll",
            "count",
            ratio(snmp.len() as f64, polls),
        ),
        ("snmp.request_us_p50", "us", p50(&snmp)),
        (
            "snmp.bytes_per_poll",
            "bytes",
            ratio(c.snmp_bytes as f64, polls),
        ),
        ("snmp.codec_roundtrip_ns_per_pdu", "ns", t.codec_ns_per_pdu),
        (
            "snmp.retries_per_poll",
            "count",
            ratio(c.snmp_retries as f64, polls),
        ),
        ("collector.poll_us_p50", "us", p50(&poll)),
        (
            "collector.poll_share",
            "share",
            ratio(poll_ns as f64, service_ns as f64),
        ),
        ("collector.child_poll_us_p50", "us", p50(&child_poll)),
        ("collector.poll_self_us_p50", "us", p50(&poll_self)),
        (
            "collector.dirty_shards_per_poll",
            "count",
            ratio(c.dirty_shards as f64, polls),
        ),
        ("collector.polls_per_query", "count", ratio(polls, n)),
        (
            "modeler.graph_warm_us_p50",
            "us",
            probe_p50(ProbeKind::GraphWarm),
        ),
        (
            "modeler.graph_cold_us_p50",
            "us",
            probe_p50(ProbeKind::GraphCold),
        ),
        ("modeler.flows_us_p50", "us", probe_p50(ProbeKind::Flows)),
        (
            "modeler.plan_hit_share",
            "share",
            ratio(c.plan_hits as f64, (c.plan_hits + c.plan_misses) as f64),
        ),
        (
            "modeler.share",
            "share",
            ratio(modeler_ns as f64, service_ns as f64),
        ),
        ("api.run_us_p50", "us", p50(&api_run)),
        ("api.self_us_p50", "us", api_self_p50),
        ("serve.submit_us_p50", "us", p50(&submit)),
        ("serve.serve_next_us_p50", "us", p50(&serve)),
        (
            "serve.self_us_p50",
            "us",
            (p50(&rest) - api_self_p50).max(0.0),
        ),
        ("serve.queue_wait_us_p50", "us", p50(&queue_wait)),
        (
            "serve.queue_depth_max",
            "count",
            t.lap.queue_depth_max as f64,
        ),
        (
            "serve.shed_share",
            "share",
            ratio(c.shed as f64, n + t.lap.failed as f64),
        ),
        ("serve.p99_us", "us", t.untraced_p99_us),
        (
            "obs.trace_overhead_share",
            "share",
            ratio(traced_p50, t.untraced_p50_us) - 1.0,
        ),
        ("alloc.allocs_per_query", "count", t.allocs_per_call.0),
        ("alloc.bytes_per_query", "bytes", t.allocs_per_call.1),
        (
            "gen.share",
            "share",
            ratio(
                t.lap.busy_ns.saturating_sub(service_ns) as f64,
                t.lap.busy_ns as f64,
            ),
        ),
    ]
}
