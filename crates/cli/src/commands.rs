//! Command implementations.

use crate::args::{parse_pair, parse_pair_value, Parsed};
use remos_apps::scenario::{Scenario, TrafficSpec};
use remos_apps::TestbedHarness;
use remos_core::{FlowInfoRequest, HypotheticalFlow, Query, QueryResult, QuerySpec, Timeframe};
use remos_net::fabric::{synth_workload_over, FlowSizeEcdf, WorkloadSpec};
use remos_net::{mbps, SimDuration, SimTime};
use std::io::Write;
use std::time::Instant;

type CmdResult = Result<(), String>;

fn io_err(e: std::io::Error) -> String {
    format!("output error: {e}")
}

/// Resolve `--scenario`: a built-in name or a JSON file path.
pub(crate) fn load_scenario(p: &Parsed) -> Result<Scenario, String> {
    match p.get("--scenario").unwrap_or("cmu") {
        "cmu" => Ok(Scenario::cmu(vec![])),
        "fig4" => Ok(Scenario::cmu(vec![TrafficSpec::Greedy {
            src: "m-6".into(),
            dst: "m-8".into(),
            streams: remos_apps::synthetic::DEFAULT_TRAFFIC_STREAMS,
            start_s: 0.0,
            stop_s: None,
        }])),
        path => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read scenario {path:?}: {e}"))?;
            Scenario::from_json(&text).map_err(|e| format!("bad scenario {path:?}: {e}"))
        }
    }
}

/// Build the harness and let the scenario's traffic warm up.
fn harness(p: &Parsed) -> Result<TestbedHarness, String> {
    let sc = load_scenario(p)?;
    let h = sc.build_harness().map_err(|e| e.to_string())?;
    let warmup = p.get_f64("--warmup", 1.0)?;
    if warmup > 0.0 {
        h.sim
            .lock()
            .run_for(SimDuration::from_secs_f64(warmup))
            .map_err(|e| e.to_string())?;
    }
    Ok(h)
}

fn timeframe(p: &Parsed) -> Result<Timeframe, String> {
    match (p.get("--window"), p.get("--future")) {
        (Some(_), Some(_)) => Err("--window and --future are mutually exclusive".into()),
        (Some(w), None) => {
            let s: f64 = w.parse().map_err(|_| "--window: not a number".to_string())?;
            Ok(Timeframe::Window(SimDuration::from_secs_f64(s)))
        }
        (None, Some(f)) => {
            let s: f64 = f.parse().map_err(|_| "--future: not a number".to_string())?;
            Ok(Timeframe::Future(SimDuration::from_secs_f64(s)))
        }
        (None, None) => Ok(Timeframe::Current),
    }
}

/// `remos-sim topology`
pub fn topology(p: &Parsed, out: &mut dyn Write) -> CmdResult {
    let mut h = harness(p)?;
    h.adapter.remos_mut().refresh_topology().map_err(|e| e.to_string())?;
    let topo = h.adapter.remos_mut().collector().topology().map_err(|e| e.to_string())?;
    writeln!(
        out,
        "{} nodes ({} hosts, {} routers), {} links:",
        topo.node_count(),
        topo.compute_nodes().len(),
        topo.network_nodes().len(),
        topo.link_count()
    )
    .map_err(io_err)?;
    for l in topo.link_ids() {
        let link = topo.link(l);
        writeln!(
            out,
            "  {:<12} -- {:<12} {:>6.0} Mbps  {:>4.0} us",
            topo.node(link.a).name,
            topo.node(link.b).name,
            link.capacity / 1e6,
            link.latency.as_secs_f64() * 1e6
        )
        .map_err(io_err)?;
    }
    Ok(())
}

/// `remos-sim graph`
pub fn graph(p: &Parsed, out: &mut dyn Write) -> CmdResult {
    let mut h = harness(p)?;
    let nodes = p.get_list("--nodes")?;
    let tf = timeframe(p)?;
    let g = h
        .adapter
        .remos_mut()
        .run(Query::graph(nodes.iter().cloned()).timeframe(tf))
        .and_then(QueryResult::into_graph)
        .map_err(|e| e.to_string())?;
    if p.flag("--dot") {
        write!(out, "{}", g.to_dot()).map_err(io_err)?;
        return Ok(());
    }
    if p.flag("--json") {
        writeln!(out, "{:#}", g.to_json()).map_err(io_err)?;
        return Ok(());
    }
    writeln!(out, "logical topology ({} nodes, {} links):", g.nodes.len(), g.links.len())
        .map_err(io_err)?;
    if let Some(prov) = &g.provenance {
        writeln!(
            out,
            "  provenance: {} snapshot(s), worst quality {:?}, solver {}",
            prov.snapshots, prov.worst_quality, prov.solver
        )
        .map_err(io_err)?;
    }
    for l in &g.links {
        writeln!(
            out,
            "  {:<12} -- {:<12} cap {:>6.1} Mbps   avail {:>6.1} / {:>6.1} Mbps (median, each direction)",
            g.nodes[l.a].name,
            g.nodes[l.b].name,
            l.capacity / 1e6,
            l.avail[0].median / 1e6,
            l.avail[1].median / 1e6,
        )
        .map_err(io_err)?;
    }
    writeln!(out, "pairwise available bandwidth (median, Mbps):").map_err(io_err)?;
    for a in &nodes {
        for b in &nodes {
            if a >= b {
                continue;
            }
            let ia = g.index_of(a).map_err(|e| e.to_string())?;
            let ib = g.index_of(b).map_err(|e| e.to_string())?;
            let fwd = g.path_avail_bw(ia, ib).map_err(|e| e.to_string())?;
            let rev = g.path_avail_bw(ib, ia).map_err(|e| e.to_string())?;
            writeln!(out, "  {a} <-> {b}: {:.1} / {:.1}", fwd / 1e6, rev / 1e6)
                .map_err(io_err)?;
        }
    }
    if let Some((a, b, bw)) = g.best_connected_pair() {
        writeln!(
            out,
            "best-connected pair: {} -> {} at {:.1} Mbps",
            g.nodes[a].name,
            g.nodes[b].name,
            bw / 1e6
        )
        .map_err(io_err)?;
    }
    Ok(())
}

/// `remos-sim flows`
pub fn flows(p: &Parsed, out: &mut dyn Write) -> CmdResult {
    let mut h = harness(p)?;
    let mut req = FlowInfoRequest::new();
    for f in p.get_all("--fixed") {
        let (src, dst, rate) = parse_pair_value(f)?;
        req = req.fixed(&src, &dst, mbps(rate));
    }
    for v in p.get_all("--variable") {
        let (src, dst, w) = parse_pair_value(v)?;
        req = req.variable(&src, &dst, w);
    }
    if let Some(i) = p.get("--independent") {
        let (src, dst) = parse_pair(i)?;
        req = req.independent(&src, &dst);
    }
    if req.flow_count() == 0 {
        return Err("no flows given (use --fixed/--variable/--independent)".into());
    }
    let tf = timeframe(p)?;
    let resp = h
        .adapter
        .remos_mut()
        .run(Query::flows(req).timeframe(tf))
        .and_then(QueryResult::into_flows)
        .map_err(|e| e.to_string())?;
    for g in &resp.fixed {
        writeln!(
            out,
            "fixed       {} -> {}: {:.2} Mbps (satisfied: {})",
            g.endpoints.src,
            g.endpoints.dst,
            g.bandwidth.median / 1e6,
            g.fully_satisfied
        )
        .map_err(io_err)?;
    }
    for g in &resp.variable {
        writeln!(
            out,
            "variable    {} -> {}: {:.2} Mbps {}",
            g.endpoints.src,
            g.endpoints.dst,
            g.bandwidth.median / 1e6,
            g.bandwidth
        )
        .map_err(io_err)?;
    }
    if let Some(g) = &resp.independent {
        writeln!(
            out,
            "independent {} -> {}: {:.2} Mbps {}",
            g.endpoints.src,
            g.endpoints.dst,
            g.bandwidth.median / 1e6,
            g.bandwidth
        )
        .map_err(io_err)?;
    }
    Ok(())
}

/// Parse a `--batch` file: one graph query per non-empty line, each a
/// comma-separated node list; `#` starts a comment line.
fn load_batch(path: &str, tf: Timeframe) -> Result<Vec<QuerySpec>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read batch {path:?}: {e}"))?;
    let mut specs: Vec<QuerySpec> = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let nodes: Vec<String> = line
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(String::from)
            .collect();
        if nodes.is_empty() {
            return Err(format!("{path}:{}: empty node list", lineno + 1));
        }
        specs.push(Query::graph(nodes).timeframe(tf).into());
    }
    if specs.is_empty() {
        return Err(format!(
            "{path}: no queries (one comma-separated node list per line)"
        ));
    }
    Ok(specs)
}

/// `remos-sim query`
///
/// Plan-cache-aware query serving: repeat one graph query (`--nodes`
/// with `--repeat N`) or answer a whole file of queries in one
/// `run_batch` call (`--batch`), then report the modeler's plan-cache
/// counters from the observability registry.
pub fn query(p: &Parsed, out: &mut dyn Write) -> CmdResult {
    let mut h = harness(p)?;
    let tf = timeframe(p)?;
    let repeat = match p.get("--repeat") {
        None => 1usize,
        Some(v) => v.parse().map_err(|_| "--repeat: not an integer".to_string())?,
    };
    if repeat == 0 {
        return Err("--repeat must be >= 1".into());
    }

    match (p.get("--batch"), p.get("--nodes")) {
        (Some(_), Some(_)) => {
            return Err("--batch and --nodes are mutually exclusive".into())
        }
        (None, None) => return Err("query needs --nodes or --batch".into()),
        (Some(path), None) => {
            let specs = load_batch(path, tf)?;
            let n = specs.len();
            for round in 0..repeat {
                let t0 = Instant::now();
                let results = h.adapter.remos_mut().run_batch(specs.clone());
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                writeln!(out, "batch round {}: {n} queries in {ms:.3} ms", round + 1)
                    .map_err(io_err)?;
                if round == 0 {
                    for (i, r) in results.iter().enumerate() {
                        match r {
                            Ok(QueryResult::Graph(g)) => writeln!(
                                out,
                                "  [{i}] {} nodes, {} links, digest {:016x}",
                                g.nodes.len(),
                                g.links.len(),
                                g.digest()
                            )
                            .map_err(io_err)?,
                            Ok(other) => {
                                writeln!(out, "  [{i}] {other:?}").map_err(io_err)?
                            }
                            Err(e) => writeln!(out, "  [{i}] error: {e}").map_err(io_err)?,
                        }
                    }
                }
            }
        }
        (None, Some(_)) => {
            let nodes = p.get_list("--nodes")?;
            let mut times_us: Vec<f64> = Vec::with_capacity(repeat);
            let mut last = None;
            for _ in 0..repeat {
                let t0 = Instant::now();
                let g = h
                    .adapter
                    .remos_mut()
                    .run(Query::graph(nodes.iter().cloned()).timeframe(tf))
                    .and_then(QueryResult::into_graph)
                    .map_err(|e| e.to_string())?;
                times_us.push(t0.elapsed().as_secs_f64() * 1e6);
                last = Some(g);
            }
            let g = last.ok_or_else(|| "no query ran".to_string())?;
            writeln!(
                out,
                "graph over {} node(s): {} nodes, {} links, digest {:016x}",
                nodes.len(),
                g.nodes.len(),
                g.links.len(),
                g.digest()
            )
            .map_err(io_err)?;
            let first = times_us[0];
            let mut rest: Vec<f64> = times_us[1..].to_vec();
            rest.sort_by(f64::total_cmp);
            match rest.get(rest.len() / 2) {
                Some(median) if repeat > 1 => writeln!(
                    out,
                    "{repeat} run(s): first {first:.1} us, later median {median:.1} us"
                )
                .map_err(io_err)?,
                _ => writeln!(out, "1 run: {first:.1} us").map_err(io_err)?,
            }
        }
    }

    let snap = h.obs.metrics_snapshot();
    let c = |k: &str| snap.counters.get(k).copied().unwrap_or(0);
    writeln!(
        out,
        "plan cache: {} hit(s), {} miss(es), {} eviction(s)",
        c("modeler_plan_cache_hits_total"),
        c("modeler_plan_cache_misses_total"),
        c("modeler_plan_cache_evictions_total")
    )
    .map_err(io_err)?;
    Ok(())
}

/// Parse `--synth seed,n,load`.
fn parse_synth(s: &str) -> Result<(u64, usize, f64), String> {
    let parts: Vec<&str> = s.split(',').map(str::trim).collect();
    match parts.as_slice() {
        [seed, n, load] => {
            let seed: u64 = seed.parse().map_err(|_| "--synth: bad seed".to_string())?;
            let n: usize = n.parse().map_err(|_| "--synth: bad flow count".to_string())?;
            let load: f64 = load.parse().map_err(|_| "--synth: bad load".to_string())?;
            if n == 0 {
                return Err("--synth: flow count must be >= 1".into());
            }
            if !(load > 0.0 && load.is_finite()) {
                return Err("--synth: load must be positive".into());
            }
            Ok((seed, n, load))
        }
        _ => Err(format!("--synth: expected seed,n,load, got {s:?}")),
    }
}

/// `remos-sim whatif`
///
/// Estimate flow completion times for a hypothetical workload against
/// the live snapshot: flows come from a JSON file (`--flows`, an array
/// of `{src, dst, size_bytes[, arrival]}`) or are synthesized
/// deterministically over the scenario's hosts (`--synth seed,n,load`).
pub fn whatif(p: &Parsed, out: &mut dyn Write) -> CmdResult {
    let mut h = harness(p)?;
    let flows: Vec<HypotheticalFlow> = match (p.get("--flows"), p.get("--synth")) {
        (Some(_), Some(_)) => return Err("--flows and --synth are mutually exclusive".into()),
        (None, None) => {
            return Err("whatif needs --flows FILE.json or --synth seed,n,load".into())
        }
        (Some(path), None) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read flows {path:?}: {e}"))?;
            HypotheticalFlow::list_from_json(&text)
                .map_err(|e| format!("bad flow file {path:?}: {e}"))?
        }
        (None, Some(spec)) => {
            let (seed, n, load) = parse_synth(spec)?;
            h.adapter.remos_mut().refresh_topology().map_err(|e| e.to_string())?;
            let topo =
                h.adapter.remos_mut().collector().topology().map_err(|e| e.to_string())?;
            let hosts = topo.compute_nodes();
            // Calibrate the offered load against the slowest access link
            // in the pool so `load` reads as a fraction of line rate.
            let access = hosts
                .iter()
                .flat_map(|&hid| {
                    topo.neighbors(hid).iter().map(|&(l, _)| topo.link(l).capacity)
                })
                .fold(f64::INFINITY, f64::min);
            let ecdf = FlowSizeEcdf::web_search();
            let spec = WorkloadSpec::new(seed, n, load);
            synth_workload_over(&hosts, 1, 1, access, &ecdf, &spec)
                .map_err(|e| e.to_string())?
                .into_iter()
                .map(|w| {
                    HypotheticalFlow::new(
                        topo.node(w.src).name.clone(),
                        topo.node(w.dst).name.clone(),
                        w.size_bytes,
                    )
                    .at(w.arrival)
                })
                .collect()
        }
    };

    let tf = timeframe(p)?;
    let mut q = Query::estimate_fcts(flows).timeframe(tf);
    if let Some(hz) = p.get("--horizon") {
        let s: f64 = hz.parse().map_err(|_| "--horizon: not a number".to_string())?;
        q = q.horizon(SimTime::from_secs_f64(s));
    }
    let report = h
        .adapter
        .remos_mut()
        .run(q.clone())
        .and_then(QueryResult::into_fcts)
        .map_err(|e| e.to_string())?;

    if p.flag("--json") {
        writeln!(out, "{:#}", report.to_json(&q.flows)).map_err(io_err)?;
        return Ok(());
    }
    writeln!(
        out,
        "what-if: {} flow(s), {} completed",
        report.flows.len(),
        report.completed_count()
    )
    .map_err(io_err)?;
    if let Some(prov) = &report.provenance {
        writeln!(
            out,
            "  provenance: {} snapshot(s), worst quality {:?}, solver {}",
            prov.snapshots, prov.worst_quality, prov.solver
        )
        .map_err(io_err)?;
    }
    let ms = |d: Option<SimDuration>| d.map_or(f64::NAN, |d| d.as_secs_f64() * 1e3);
    writeln!(
        out,
        "  fct ms: p50 {:.3}  p90 {:.3}  p99 {:.3}  max {:.3}",
        ms(report.fct_quantile(0.5)),
        ms(report.fct_quantile(0.9)),
        ms(report.fct_quantile(0.99)),
        ms(report.fct_quantile(1.0)),
    )
    .map_err(io_err)?;
    if let Some(s) = report.mean_slowdown() {
        writeln!(out, "  mean slowdown: {s:.3}").map_err(io_err)?;
    }
    writeln!(out, "  replay: {} step(s), {} solve(s)", report.replay_steps, report.solves)
        .map_err(io_err)?;
    writeln!(out, "  fct digest: {:016x}", report.fct_digest).map_err(io_err)?;
    Ok(())
}

/// `remos-sim select`
pub fn select(p: &Parsed, out: &mut dyn Write) -> CmdResult {
    let mut h = harness(p)?;
    let pool = p.get_list("--pool")?;
    let start = p.require("--start")?.to_string();
    let k = p.require_usize("-k")?;
    if k == 0 || k > pool.len() {
        return Err(format!("-k {k} out of range for a pool of {}", pool.len()));
    }
    let selected = h.adapter.select_nodes(&pool, &start, k).map_err(|e| e.to_string())?;
    writeln!(out, "selected nodes: {}", selected.join(", ")).map_err(io_err)?;
    Ok(())
}

/// Parse `--app fft:N:P` / `--app airshed:P[:ITERS]`.
fn parse_app(spec: &str) -> Result<remos_fx::Program, String> {
    let parts: Vec<&str> = spec.split(':').collect();
    match parts.as_slice() {
        ["fft", n, pr] => {
            let n: usize = n.parse().map_err(|_| "fft: bad size".to_string())?;
            let pr: usize = pr.parse().map_err(|_| "fft: bad rank count".to_string())?;
            if !n.is_power_of_two() || pr == 0 {
                return Err("fft: size must be a power of two, ranks >= 1".into());
            }
            Ok(remos_apps::fft::fft_program(n, pr))
        }
        ["airshed", pr] => {
            let pr: usize = pr.parse().map_err(|_| "airshed: bad rank count".to_string())?;
            Ok(remos_apps::airshed::airshed_program(pr))
        }
        ["airshed", pr, iters] => {
            let pr: usize = pr.parse().map_err(|_| "airshed: bad rank count".to_string())?;
            let iters: usize =
                iters.parse().map_err(|_| "airshed: bad iteration count".to_string())?;
            Ok(remos_apps::airshed::airshed_program_iters(pr, iters))
        }
        _ => Err(format!(
            "unknown app {spec:?} (expected fft:N:P or airshed:P[:ITERS])"
        )),
    }
}

/// `remos-sim run`
pub fn run_app(p: &Parsed, out: &mut dyn Write) -> CmdResult {
    let mut h = harness(p)?;
    let prog = parse_app(p.require("--app")?)?;
    let nodes = p.get_list("--nodes")?;
    let refs: Vec<&str> = nodes.iter().map(String::as_str).collect();
    let rep = if p.flag("--adaptive") {
        let pool: Vec<String> = match p.get("--pool") {
            Some(_) => p.get_list("--pool")?,
            None => remos_apps::testbed::TESTBED_HOSTS.iter().map(|s| s.to_string()).collect(),
        };
        let pool_refs: Vec<&str> = pool.iter().map(String::as_str).collect();
        h.run_adaptive(&prog, &pool_refs, &refs).map_err(|e| e.to_string())?
    } else {
        h.run_fixed(&prog, &refs).map_err(|e| e.to_string())?
    };
    writeln!(out, "{}: elapsed {:.3} s", rep.program, rep.elapsed).map_err(io_err)?;
    writeln!(
        out,
        "  compute {:.3} s, comm {:.3} s, sync {:.3} s, decisions {:.3} s, migration {:.3} s",
        rep.breakdown.compute,
        rep.breakdown.comm,
        rep.breakdown.sync,
        rep.breakdown.decision,
        rep.breakdown.migration
    )
    .map_err(io_err)?;
    writeln!(out, "  bytes sent: {}", rep.bytes_sent).map_err(io_err)?;
    writeln!(out, "  migrations: {}", rep.migrations.len()).map_err(io_err)?;
    for (it, set) in &rep.migrations {
        writeln!(out, "    iteration {it}: -> {}", set.join(", ")).map_err(io_err)?;
    }
    writeln!(out, "  final nodes: {}", rep.final_mapping.join(", ")).map_err(io_err)?;
    Ok(())
}

/// `remos-sim watch`
pub fn watch(p: &Parsed, out: &mut dyn Write) -> CmdResult {
    let mut h = harness(p)?;
    let (src, dst) = parse_pair(p.require("--pair")?)?;
    let interval = p.get_f64("--interval", 1.0)?;
    let duration = p.get_f64("--duration", 10.0)?;
    if interval <= 0.0 || duration <= 0.0 {
        return Err("--interval and --duration must be positive".into());
    }
    // With --window W each line also summarizes the trailing W seconds
    // as quartiles (the paper's statistical reporting, §4.4).
    let window = match p.get("--window") {
        None => None,
        Some(w) => {
            let s: f64 = w.parse().map_err(|_| "--window: not a number".to_string())?;
            Some(SimDuration::from_secs_f64(s))
        }
    };
    let steps = (duration / interval).ceil() as usize;
    match window {
        None => writeln!(out, "available bandwidth {src} -> {dst} (median):"),
        Some(_) => writeln!(
            out,
            "available bandwidth {src} -> {dst}: current, then trailing-window [min|q1|median|q3|max]:"
        ),
    }
    .map_err(io_err)?;
    for _ in 0..steps {
        h.sim
            .lock()
            .run_for(SimDuration::from_secs_f64(interval))
            .map_err(|e| e.to_string())?;
        let g = h
            .adapter
            .remos_mut()
            .run(Query::graph([src.as_str(), dst.as_str()]))
            .and_then(QueryResult::into_graph)
            .map_err(|e| e.to_string())?;
        let a = g.index_of(&src).map_err(|e| e.to_string())?;
        let b = g.index_of(&dst).map_err(|e| e.to_string())?;
        let bw = g.path_avail_bw(a, b).map_err(|e| e.to_string())?;
        let t = h.sim.lock().now().as_secs_f64();
        match window {
            None => {
                writeln!(out, "  t={t:>8.2}s  {:>7.2} Mbps", bw / 1e6).map_err(io_err)?;
            }
            Some(w) => {
                let gw = h
                    .adapter
                    .remos_mut()
                    .run(Query::graph([src.as_str(), dst.as_str()])
                        .timeframe(Timeframe::Window(w)))
                    .and_then(QueryResult::into_graph)
                    .map_err(|e| e.to_string())?;
                let a = gw.index_of(&src).map_err(|e| e.to_string())?;
                // The two-node logical graph is a single link; summarize
                // the direction leaving `src`.
                let q = gw.links[gw.neighbors(a)[0].0].avail_from(a);
                writeln!(
                    out,
                    "  t={t:>8.2}s  {:>7.2} Mbps   [{:.1}|{:.1}|{:.1}|{:.1}|{:.1}] n={}",
                    bw / 1e6,
                    q.min / 1e6,
                    q.q1 / 1e6,
                    q.median / 1e6,
                    q.q3 / 1e6,
                    q.max / 1e6,
                    q.samples
                )
                .map_err(io_err)?;
            }
        }
    }
    Ok(())
}

/// `remos-sim obs`
///
/// Exercise the stack (warmup plus an optional graph query over
/// `--nodes`), then dump the shared observability state: the metrics
/// registry as JSON (default) or Prometheus text, and with `--trace`
/// the structured trace digest and records.
pub fn obs(p: &Parsed, out: &mut dyn Write) -> CmdResult {
    let mut h = harness(p)?;
    if p.get("--nodes").is_some() {
        let nodes = p.get_list("--nodes")?;
        let tf = timeframe(p)?;
        h.adapter
            .remos_mut()
            .run(Query::graph(nodes.iter().cloned()).timeframe(tf))
            .map_err(|e| e.to_string())?;
    }
    let snap = h.obs.metrics_snapshot();
    match p.get("--format").unwrap_or("json") {
        "json" => writeln!(out, "{}", snap.to_json()).map_err(io_err)?,
        "prometheus" | "prom" => {
            write!(out, "{}", snap.render_prometheus()).map_err(io_err)?
        }
        other => return Err(format!("--format: expected json or prometheus, got {other:?}")),
    }
    if p.flag("--trace") {
        writeln!(
            out,
            "# trace digest={:016x} recorded={}",
            h.obs.trace_digest(),
            h.obs.trace_recorded()
        )
        .map_err(io_err)?;
        for r in h.obs.trace_records() {
            let attrs: Vec<String> =
                r.attrs().iter().map(|(k, v)| format!("{k}={v}")).collect();
            writeln!(out, "# {:?} {} t={}ns {}", r.kind, r.name, r.t_nanos, attrs.join(" "))
                .map_err(io_err)?;
        }
    }
    Ok(())
}

/// `remos-sim example`
pub fn example(out: &mut dyn Write) -> CmdResult {
    let sc = Scenario::cmu(vec![
        TrafficSpec::Greedy {
            src: "m-6".into(),
            dst: "m-8".into(),
            streams: 8,
            start_s: 0.0,
            stop_s: Some(120.0),
        },
        TrafficSpec::Bursty {
            src: "m-1".into(),
            dst: "m-3".into(),
            mean_on_s: 2.0,
            mean_off_s: 2.0,
            seed: 7,
        },
        TrafficSpec::LinkDown {
            a: "timberline".into(),
            b: "whiteface".into(),
            at_s: 200.0,
            restore_s: Some(260.0),
        },
    ]);
    writeln!(out, "{:#}", sc.to_json()).map_err(io_err)?;
    Ok(())
}
