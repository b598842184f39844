//! `remos-sim serve` and `remos-sim loadgen` — the overload-safe serving
//! front end (`remos-serve`) from the command line.
//!
//! Both commands build the full protected stack over the chosen
//! scenario: SNMP collector behind a circuit breaker (with the manager's
//! retry loop feeding it), admission queue with per-tenant token-bucket
//! quotas, deadline budgets, and the degradation ladder. `serve` replays
//! a request file; `loadgen` synthesizes a seeded workload and reports
//! shed rates, rung counts, latency quantiles, and the decision digest.
//!
//! With `--shards N` the agents are split over N collectors, each behind
//! its own circuit breaker and federated through a `MultiCollector`, so
//! one faulty region trips one breaker instead of the whole stack.

use crate::args::{seconds, Parsed};
use remos_net::rng::Rng;
use remos_core::collector::multi::MultiCollector;
use remos_core::collector::snmp::{SnmpCollector, SnmpCollectorConfig};
use remos_core::collector::{Collector, SimClock};
use remos_core::{Query, Remos, RemosConfig, RemosError};
use remos_net::{SimDuration, SimTime, Simulator};
use remos_serve::quota::MILLI;
use remos_serve::{
    BreakerCollector, BreakerConfig, CircuitBreaker, Rung, ServeOutcome, ServeRequest, Server,
    ServerConfig,
};
use remos_snmp::fault::FaultPlan;
use remos_snmp::sim::{register_all_agents_with_faults, share, SharedSim};
use remos_snmp::{FaultDirector, SimTransport};
use std::io::Write;
use std::sync::Arc;

type CmdResult = Result<(), String>;

/// Per-shard circuit breakers, labelled for the summary printout. One
/// entry (labelled `all`) when the stack is monolithic.
type ShardBreakers = Vec<(String, Arc<CircuitBreaker>)>;

fn io_err(e: std::io::Error) -> String {
    format!("output error: {e}")
}

/// Build the protected serving stack for the scenario: simulator,
/// fault-aware agents, breaker-wrapped collector(s), `Server` on top.
///
/// `--shards N` splits the agents into N contiguous chunks, each polled
/// by its own SNMP collector behind its *own* circuit breaker, federated
/// through a [`MultiCollector`]. A misbehaving shard then trips only its
/// breaker — its region of the merged view degrades to stale/missing
/// while the other shards keep answering Fresh.
fn serve_stack(p: &Parsed) -> Result<(Server, SharedSim, ShardBreakers), String> {
    let sc = crate::commands::load_scenario(p)?;
    let topo = sc.build_topology().map_err(|e| e.to_string())?;
    let sim = share(Simulator::new(topo).map_err(|e| e.to_string())?);
    sc.install_traffic(&sim).map_err(|e| e.to_string())?;
    let warmup = p.get_f64("--warmup", 1.0)?;
    if warmup > 0.0 {
        sim.lock()
            .run_for(seconds("--warmup", warmup, SimDuration::from_secs_f64)?)
            .map_err(|e| e.to_string())?;
    }

    let transport = Arc::new(SimTransport::new());
    let director = FaultDirector::new();
    let agents = register_all_agents_with_faults(&transport, &sim, "public", &director);
    // `--kill node:T` crashes that node's agent at T seconds, for good.
    for spec in p.get_all("--kill") {
        let (node, at) = spec
            .rsplit_once(':')
            .ok_or_else(|| format!("--kill: expected node:seconds, got {spec:?}"))?;
        let at: f64 = at.parse().map_err(|_| format!("--kill: bad time in {spec:?}"))?;
        let at = seconds("--kill", at, SimTime::from_secs_f64)?;
        director.set_plan(node, FaultPlan::new().crash(at, SimDuration::from_secs(1_000_000)), 7);
    }

    let shards: usize = match p.get("--shards") {
        None => 1,
        Some(v) => match v.parse() {
            Ok(n) if n >= 1 => n,
            _ => return Err("--shards: expected an integer >= 1".into()),
        },
    };
    let shards = shards.min(agents.len().max(1));
    let mut breakers = Vec::with_capacity(shards);
    let collector: Box<dyn Collector> = if shards <= 1 {
        let mut collector =
            SnmpCollector::new(Arc::clone(&transport), agents, SnmpCollectorConfig::default());
        let breaker = CircuitBreaker::new(BreakerConfig::default());
        collector.set_retry_observer(Arc::clone(&breaker) as _);
        breakers.push(("all".to_string(), Arc::clone(&breaker)));
        Box::new(BreakerCollector::wrap(collector, breaker))
    } else {
        let chunk = agents.len().div_ceil(shards);
        let mut children: Vec<Box<dyn Collector>> = Vec::with_capacity(shards);
        for (i, group) in agents.chunks(chunk).enumerate() {
            let mut collector = SnmpCollector::new(
                Arc::clone(&transport),
                group.to_vec(),
                SnmpCollectorConfig::default(),
            );
            let breaker = CircuitBreaker::new(BreakerConfig::default());
            collector.set_retry_observer(Arc::clone(&breaker) as _);
            children.push(Box::new(BreakerCollector::wrap(collector, Arc::clone(&breaker))));
            breakers.push((format!("shard{i}"), breaker));
        }
        Box::new(MultiCollector::new(children))
    };
    let remos =
        Remos::new(collector, Box::new(SimClock(Arc::clone(&sim))), RemosConfig::default());

    let mut cfg = ServerConfig::default();
    if let Some(d) = p.get("--queue-depth") {
        cfg.max_queue_depth =
            d.parse().map_err(|_| "--queue-depth: not an integer".to_string())?;
    }
    let rate = p.get_f64("--rate", cfg.quota.rate_milli_per_sec as f64 / MILLI as f64)?;
    cfg.quota.rate_milli_per_sec = (rate * MILLI as f64) as u64;
    let burst = p.get_f64("--burst", cfg.quota.burst_milli as f64 / MILLI as f64)?;
    cfg.quota.burst_milli = (burst * MILLI as f64) as u64;
    let deadline = p.get_f64("--deadline", 5.0)?;
    cfg.default_allowance = if deadline > 0.0 {
        Some(seconds("--deadline", deadline, SimDuration::from_secs_f64)?)
    } else {
        None
    };
    if let Some(seed) = p.get("--seed") {
        cfg.fair_seed = seed.parse().map_err(|_| "--seed: not an integer".to_string())?;
    }
    Ok((Server::new(remos, cfg), sim, breakers))
}

/// Summary line(s) for the stack's breaker(s): the legacy single
/// `breaker:` line when the stack is monolithic, one labelled line per
/// shard when `--shards` split it.
fn write_breakers(
    breakers: &[(String, Arc<CircuitBreaker>)],
    out: &mut dyn Write,
) -> CmdResult {
    if let [(_, b)] = breakers {
        return writeln!(out, "breaker: {:?}, opened {} time(s)", b.state(), b.times_opened())
            .map_err(io_err);
    }
    for (label, b) in breakers {
        writeln!(out, "breaker[{label}]: {:?}, opened {} time(s)", b.state(), b.times_opened())
            .map_err(io_err)?;
    }
    Ok(())
}

/// How a submission was refused, for summary accounting.
fn shed_kind(e: &RemosError) -> &'static str {
    match e {
        RemosError::Overloaded { .. } => "overloaded",
        RemosError::DeadlineExceeded { .. } => "deadline",
        _ => "error",
    }
}

fn rung_name(r: Rung) -> &'static str {
    match r {
        Rung::Full => "full",
        Rung::StaleSnapshot => "stale",
        Rung::TopologyOnly => "topology",
        Rung::Rejected => "rejected",
    }
}

/// Counts and latency quantiles over a batch of outcomes.
struct Tally {
    by_rung: [usize; 4],
    deadline_shed: usize,
    latencies: Vec<u64>,
}

impl Tally {
    fn new() -> Tally {
        Tally { by_rung: [0; 4], deadline_shed: 0, latencies: Vec::new() }
    }

    fn note(&mut self, o: &ServeOutcome) {
        let idx = match o.rung {
            Rung::Full => 0,
            Rung::StaleSnapshot => 1,
            Rung::TopologyOnly => 2,
            Rung::Rejected => 3,
        };
        self.by_rung[idx] += 1;
        if matches!(o.result, Err(RemosError::DeadlineExceeded { .. })) {
            self.deadline_shed += 1;
        }
        if o.result.is_ok() {
            self.latencies.push(o.latency().as_nanos());
        }
    }

    fn answered(&self) -> usize {
        self.by_rung[0] + self.by_rung[1] + self.by_rung[2]
    }

    fn quantile(&mut self, q: f64) -> Option<f64> {
        if self.latencies.is_empty() {
            return None;
        }
        self.latencies.sort_unstable();
        let idx = ((self.latencies.len() - 1) as f64 * q).round() as usize;
        Some(self.latencies[idx] as f64 / 1e3)
    }

    fn write_summary(&mut self, server: &Server, out: &mut dyn Write) -> CmdResult {
        writeln!(
            out,
            "rungs: {} full, {} stale, {} topology-only, {} rejected ({} deadline-shed)",
            self.by_rung[0], self.by_rung[1], self.by_rung[2], self.by_rung[3],
            self.deadline_shed
        )
        .map_err(io_err)?;
        if let (Some(p50), Some(p99)) = (self.quantile(0.5), self.quantile(0.99)) {
            writeln!(out, "admitted latency: p50 {p50:.1} us, p99 {p99:.1} us")
                .map_err(io_err)?;
        }
        writeln!(out, "decision digest: {:016x}", server.decision_digest()).map_err(io_err)
    }
}

/// `remos-sim serve --requests FILE`
///
/// Request file: one request per line — `tenant node,node[,...] [deadline_s]`
/// — with `#` comments. Requests are admitted in file order and served
/// with the weighted-fair dequeue; every outcome is printed.
pub fn serve(p: &Parsed, out: &mut dyn Write) -> CmdResult {
    let path = p.require("--requests")?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read requests {path:?}: {e}"))?;
    let (mut server, _sim, breakers) = serve_stack(p)?;

    let mut submitted = 0usize;
    let mut shed = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (Some(tenant), Some(nodes)) = (parts.next(), parts.next()) else {
            return Err(format!("{path}:{}: expected `tenant node,node [deadline_s]`", lineno + 1));
        };
        let nodes: Vec<String> =
            nodes.split(',').map(str::trim).filter(|s| !s.is_empty()).map(String::from).collect();
        if nodes.is_empty() {
            return Err(format!("{path}:{}: empty node list", lineno + 1));
        }
        let mut req = ServeRequest::new(tenant, Query::graph(nodes));
        if let Some(d) = parts.next() {
            let at = format!("{path}:{}: deadline", lineno + 1);
            let d: f64 = d.parse().map_err(|_| format!("{at}: not a number"))?;
            req = req.with_allowance(seconds(&at, d, SimDuration::from_secs_f64)?);
        }
        submitted += 1;
        match server.submit(req) {
            Ok(id) => writeln!(out, "[{id}] {tenant}: admitted").map_err(io_err)?,
            Err(e) => {
                shed += 1;
                writeln!(out, "[-] {tenant}: shed ({}): {e}", shed_kind(&e)).map_err(io_err)?;
            }
        }
    }

    let mut tally = Tally::new();
    for o in server.drain() {
        tally.note(&o);
        match &o.result {
            Ok(_) => writeln!(
                out,
                "[{}] {}: answered ({}) in {}",
                o.id,
                o.tenant,
                rung_name(o.rung),
                o.latency()
            )
            .map_err(io_err)?,
            Err(e) => {
                writeln!(out, "[{}] {}: {} ({})", o.id, o.tenant, e, rung_name(o.rung))
                    .map_err(io_err)?
            }
        }
    }
    writeln!(out, "\n{} submitted, {} shed at admission", submitted, shed).map_err(io_err)?;
    tally.write_summary(&server, out)?;
    write_breakers(&breakers, out)
}

/// `remos-sim loadgen`
///
/// Seeded synthetic workload: `--count` graph requests spread over
/// `--tenants` tenants, node pairs drawn from the scenario's hosts,
/// submitted in per-tenant rounds with `--gap` seconds of simulated time
/// between them. Prints the admission/shed/rung summary and the decision
/// digest — same seed, same scenario, same digest.
pub fn loadgen(p: &Parsed, out: &mut dyn Write) -> CmdResult {
    let tenants: usize = match p.get("--tenants") {
        None => 4,
        Some(v) => v.parse().map_err(|_| "--tenants: not an integer".to_string())?,
    };
    let count: usize = match p.get("--count") {
        None => 32,
        Some(v) => v.parse().map_err(|_| "--count: not an integer".to_string())?,
    };
    if tenants == 0 || count == 0 {
        return Err("--tenants and --count must be >= 1".into());
    }
    let seed: u64 = match p.get("--seed") {
        None => 7,
        Some(v) => v.parse().map_err(|_| "--seed: not an integer".to_string())?,
    };
    let gap = p.get_f64("--gap", 0.25)?;

    let (mut server, sim, breakers) = serve_stack(p)?;
    let hosts: Vec<String> = {
        let s = sim.lock();
        let t = s.topology_arc();
        t.compute_nodes().iter().map(|&n| t.node(n).name.clone()).collect()
    };
    if hosts.len() < 2 {
        return Err("scenario has fewer than two hosts".into());
    }

    let mut rng = Rng::seed_from_u64(seed);
    let mut submitted = 0usize;
    let mut quota_shed = 0usize;
    let mut overload_shed = 0usize;
    let mut tally = Tally::new();
    for i in 0..count {
        let tenant = format!("t{}", i % tenants);
        let a = rng.gen_range(0..hosts.len());
        let b = (a + 1 + rng.gen_range(0..hosts.len() - 1)) % hosts.len();
        let req = ServeRequest::new(
            tenant.as_str(),
            Query::graph([hosts[a].as_str(), hosts[b].as_str()]),
        );
        submitted += 1;
        match server.submit(req) {
            Ok(_) => {}
            Err(RemosError::Overloaded { retry_after }) => {
                // Admission distinguishes quota (per-tenant) from queue
                // pressure only via the hint source; count both honestly.
                if server.queue_depth() == 0 {
                    quota_shed += 1;
                } else {
                    overload_shed += 1;
                }
                let _ = retry_after;
            }
            Err(e) => return Err(format!("submit failed: {e}")),
        }
        // Serve one request per round and let measured time advance so
        // quotas refill and the collector sees fresh samples.
        if let Some(o) = server.serve_next() {
            tally.note(&o);
        }
        if gap > 0.0 {
            sim.lock()
                .run_for(seconds("--gap", gap, SimDuration::from_secs_f64)?)
                .map_err(|e| e.to_string())?;
        }
    }
    for o in server.drain() {
        tally.note(&o);
    }

    writeln!(
        out,
        "{} requests over {} tenant(s), seed {}: {} answered, {} quota-shed, {} queue-shed",
        submitted,
        tenants,
        seed,
        tally.answered(),
        quota_shed,
        overload_shed
    )
    .map_err(io_err)?;
    tally.write_summary(&server, out)?;
    write_breakers(&breakers, out)
}
