//! The lazy fluid core against a stepwise integrator.
//!
//! The simulator keeps a flow's progress and a link's octet counter as of
//! the last change and derives them when read. The reference here shares
//! no code with it beyond routing and [`maxmin::solve`]: a plain event
//! loop that re-solves every live flow at every event and, at every clock
//! step, integrates every flow's bytes into its remaining bytes and hop by
//! hop into the counters. On seeded dumbbell and k=4 fat-tree scenarios —
//! bulk, CBR and greedy flows, caps, weights, stops — every completion
//! must land within 1 ns and every counter and byte count within 1e-9
//! relative.

use remos_net::flow::FlowParams;
use remos_net::maxmin::{self, FlowSpec};
use remos_net::rng::Rng;
use remos_net::routing::Routing;
use remos_net::topology::DirLink;
use remos_net::{mbps, FatTree, SimDuration, SimTime, Simulator, Topology, TopologyBuilder};

/// At `at`, start a flow, or stop the flow the `usize`-th start began.
enum Op {
    Start(FlowParams),
    Stop(usize),
}

/// Finished flows `(id, finished ns, completed, bytes)` by id, and every
/// directed interface's octets at the end.
type Outcome = (Vec<(u64, u64, bool, f64)>, Vec<f64>);

fn dumbbell() -> Topology {
    let mut b = TopologyBuilder::new();
    let (rl, rr) = (b.network("rl"), b.network_with_internal_bw("rr", mbps(150.0)));
    for (side, hub) in [("l", rl), ("r", rr)] {
        for i in 0..4 {
            let h = b.compute(&format!("{side}{i}"));
            b.link(h, hub, mbps(100.0), SimDuration::from_micros(10)).unwrap();
        }
    }
    b.link(rl, rr, mbps(60.0), SimDuration::from_micros(10)).unwrap();
    b.build().unwrap()
}

/// A seeded tape of starts and stops over `topo`'s hosts, in time order.
fn scenario(topo: &Topology, seed: u64) -> Vec<(SimTime, Op)> {
    let mut rng = Rng::seed_from_u64(seed);
    let hosts = topo.compute_nodes();
    let mut starts = Vec::new();
    for _ in 0..rng.gen_range(8..24usize) {
        let src = rng.gen_range(0..hosts.len());
        let (src, dst) = (hosts[src], hosts[(src + rng.gen_range(1..hosts.len())) % hosts.len()]);
        let mut p = match rng.gen_range(0..4u32) {
            0 => FlowParams::greedy(src, dst),
            1 => FlowParams::cbr(src, dst, mbps(rng.gen_range(1.0..80.0))),
            k => FlowParams::bulk(src, dst, if k == 2 { rng.gen_range(0..200_000) } else { rng.gen_range(0..20_000_000) }),
        };
        p.weight = [1.0, 1.0, 0.5, 2.5][rng.gen_range(0..4usize)];
        if p.volume.is_some() && rng.gen_bool(0.3) {
            p.rate_cap = Some(mbps(rng.gen_range(5.0..90.0)));
        }
        let at = SimTime::from_nanos(rng.gen_range(0..2_000_000u64) * 1_000);
        let stop = rng.gen_bool(0.3).then(|| at + SimDuration::from_micros(rng.gen_range(1..3_000_000)));
        starts.push((at, p, stop));
    }
    // Flow ids follow start order, which a stop names its flow by.
    starts.sort_by_key(|s| s.0);
    let mut ops = Vec::new();
    for (k, (at, p, stop)) in starts.into_iter().enumerate() {
        ops.push((at, Op::Start(p)));
        ops.extend(stop.map(|t| (t, Op::Stop(k))));
    }
    ops.sort_by_key(|o| o.0);
    ops
}

/// The scenario on the simulator, up to `end`.
fn simulated(topo: Topology, ops: &[(SimTime, Op)], end: SimTime) -> Outcome {
    let mut sim = Simulator::new(topo).unwrap();
    let mut handles = Vec::new();
    for (at, op) in ops {
        sim.run_until(*at).unwrap();
        match op {
            Op::Start(p) => handles.push(sim.start_flow(p.clone()).unwrap()),
            Op::Stop(k) if sim.flow_is_active(handles[*k]) => sim.stop_flow(handles[*k]).map(drop).unwrap(),
            Op::Stop(_) => {}
        }
    }
    sim.run_until(end).unwrap();
    let mut done: Vec<_> =
        sim.take_finished().iter().map(|r| (r.id, r.finished.as_nanos(), r.completed, r.bytes)).collect();
    done.sort_by_key(|d| d.0);
    let octets = (0..sim.topology().dir_link_count()).map(|i| sim.dirlink_octets(DirLink::from_index(i)));
    (done, octets.collect())
}

struct Flow {
    spec: FlowSpec,
    hops: Vec<usize>,
    remaining: f64,
    sent: f64,
    rate: f64,
    eta: SimTime,
}

/// The scenario stepwise: complete what is due, apply the ops due, solve
/// everything, step to the next event integrating every flow.
fn stepwise(topo: &Topology, ops: &[(SimTime, Op)], end: SimTime) -> Outcome {
    let routing = Routing::new(topo);
    let mut capacities = topo.dir_link_capacities();
    let mut backplane = vec![usize::MAX; topo.node_count()];
    for (n, bw) in topo.capped_network_nodes() {
        backplane[n.index()] = capacities.len();
        capacities.push(bw);
    }
    let (mut flows, mut live, mut done) = (Vec::<Flow>::new(), Vec::<usize>::new(), Vec::new());
    let (mut octets, mut now, mut next) = (vec![0.0; topo.dir_link_count()], SimTime::ZERO, 0);
    loop {
        let due = |f: &Flow| f.eta <= now || f.remaining <= 1e-6;
        for &id in live.iter().filter(|&&id| due(&flows[id])) {
            done.push((id as u64, now.as_nanos(), true, flows[id].sent));
        }
        live.retain(|&id| !due(&flows[id]));
        while next < ops.len() && ops[next].0 <= now {
            match &ops[next].1 {
                Op::Start(p) => {
                    let path = routing.path(topo, p.src, p.dst).unwrap();
                    let hops: Vec<usize> = path.dirlink_indices().collect();
                    let bp = path.interior_nodes().iter().map(|n| backplane[n.index()]).filter(|&b| b != usize::MAX);
                    let spec = FlowSpec { weight: p.weight, cap: p.rate_cap, resources: hops.iter().copied().chain(bp).collect() };
                    let remaining = p.volume.map_or(f64::INFINITY, |v| v as f64);
                    live.push(flows.len());
                    flows.push(Flow { spec, hops, remaining, sent: 0.0, rate: 0.0, eta: SimTime::MAX });
                }
                Op::Stop(k) => {
                    if let Some(pos) = live.iter().position(|&id| id == *k) {
                        done.push((*k as u64, now.as_nanos(), false, flows[live.remove(pos)].sent));
                    }
                }
            }
            next += 1;
        }
        let specs: Vec<FlowSpec> = live.iter().map(|&id| flows[id].spec.clone()).collect();
        for (&id, &rate) in live.iter().zip(&maxmin::solve(&capacities, &specs).rates) {
            let f = &mut flows[id];
            if rate.to_bits() != f.rate.to_bits() {
                f.rate = rate;
                let secs = Some(f.remaining * 8.0 / rate).filter(|s| rate > 0.0 && s.is_finite());
                f.eta = secs.and_then(|s| now.checked_add(SimDuration::from_secs_f64(s))).unwrap_or(SimTime::MAX);
            }
        }
        if now >= end {
            break;
        }
        let t = live.iter().map(|&id| flows[id].eta).chain(ops.get(next).map(|o| o.0)).fold(end, SimTime::min);
        let secs = t.since(now).as_secs_f64();
        for &id in &live {
            let f = &mut flows[id];
            if f.rate > 0.0 {
                let bytes = f.rate * secs / 8.0;
                if f.remaining.is_finite() {
                    f.remaining = (f.remaining - bytes).max(0.0);
                }
                f.sent += bytes;
                for &h in &f.hops {
                    octets[h] += bytes;
                }
            }
        }
        now = t;
    }
    done.sort_by_key(|d| d.0);
    (done, octets)
}

#[test]
fn the_lazy_core_matches_a_stepwise_integrator() {
    let end = SimTime::from_secs(6);
    let (mut worst_ns, mut worst_rel, mut completions) = (0u64, 0.0f64, 0);
    // `|a − b|` relative to the larger magnitude.
    let relative = |a: f64, b: f64| if a == b { 0.0 } else { (a - b).abs() / a.abs().max(b.abs()) };
    let fat_tree = FatTree::build(4).unwrap().topology().clone();
    for (name, topo) in [("dumbbell", dumbbell()), ("k=4 fat-tree", fat_tree)] {
        for seed in 0..48u64 {
            let ops = scenario(&topo, seed);
            let (want, got) = (stepwise(&topo, &ops, end), simulated(topo.clone(), &ops, end));
            let what = format!("{name} seed {seed}");
            assert_eq!(got.0.len(), want.0.len(), "{what}: finished flows");
            for (g, w) in got.0.iter().zip(&want.0) {
                assert_eq!((g.0, g.2), (w.0, w.2), "{what}: flow {} outcome", w.0);
                worst_ns = worst_ns.max(g.1.abs_diff(w.1));
                worst_rel = worst_rel.max(relative(g.3, w.3));
                completions += usize::from(w.2);
            }
            worst_rel = got.1.iter().zip(&want.1).map(|(g, w)| relative(*g, *w)).fold(worst_rel, f64::max);
            assert!(worst_ns <= 1 && worst_rel <= 1e-9, "{what}: {worst_ns} ns, {worst_rel:e} relative");
        }
    }
    assert!(completions > 100, "only {completions} completions");
    eprintln!("stepwise: {completions} completions, worst {worst_ns} ns; worst count {worst_rel:e} relative");
}
