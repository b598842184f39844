//! Sharded-collection equivalence and degradation tests.
//!
//! The sharded coordinator's contract has two halves. First, splitting a
//! fabric across shard collectors must be *invisible* to consumers: the
//! merged view is bit-identical — topology `Arc`, samples, graph
//! digests, flow grants — to a monolithic collector over the same
//! simulator, in both solver modes. Second, the incremental dirty-shard
//! merge must be bit-identical to a from-scratch re-merge
//! (`force_full_merge`) under any interleaving of shard faults, and a
//! crashed shard must degrade only its own region.

use remos_prop::prelude::*;
use remos::core::collector::multi::{MultiCollector, MultiCollectorConfig};
use remos::core::collector::oracle::OracleCollector;
use remos::core::collector::shard::{shard_fabric, ShardCollector};
use remos::core::collector::{Collector, RewindBuf, SampleHistory, SimClock, Snapshot};
use remos::core::{
    CoreResult, DataQuality, FlowInfoRequest, Modeler, ModelerConfig, Query, Remos, RemosConfig,
    RemosError, Timeframe,
};
use remos::net::flow::FlowParams;
use remos::net::topology::Topology;
use remos::net::{mbps, FatTree, SimDuration, SimTime, Simulator, SolverMode};
use remos::obs::Obs;
use remos::serve::{BreakerCollector, BreakerConfig, CircuitBreaker};
use remos::snmp::sim::{share, SharedSim};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Shard wrapper with an externally driven kill switch: while `down`,
/// polling and rediscovery fail as an unreachable region would, but the
/// last samples stay in the history to be aged by the federation.
struct FlakyShard {
    inner: ShardCollector,
    down: Arc<AtomicBool>,
    /// Forward the shard's values `generation()`. A decorator that does
    /// not (the trait's default reads the history's own counter, which a
    /// repeat moves too) makes the federation re-apply the child on every
    /// poll: slower, never stale.
    forward_generation: bool,
}

impl FlakyShard {
    fn check(&self) -> CoreResult<()> {
        if self.down.load(Ordering::Relaxed) {
            Err(RemosError::Collector("injected shard outage".into()))
        } else {
            Ok(())
        }
    }
}

impl Collector for FlakyShard {
    fn refresh_topology(&mut self) -> CoreResult<()> {
        self.check()?;
        self.inner.refresh_topology()
    }

    fn topology(&self) -> CoreResult<Arc<Topology>> {
        self.inner.topology()
    }

    fn poll(&mut self) -> CoreResult<bool> {
        self.check()?;
        self.inner.poll()
    }

    fn history(&self) -> &SampleHistory {
        self.inner.history()
    }

    fn topology_epoch(&self) -> u64 {
        self.inner.topology_epoch()
    }

    fn generation(&self) -> u64 {
        if self.forward_generation {
            self.inner.generation()
        } else {
            self.inner.history().generation()
        }
    }

    fn set_obs(&mut self, obs: &Obs) {
        self.inner.set_obs(obs)
    }

    fn now(&self) -> CoreResult<SimTime> {
        self.check()?;
        self.inner.now()
    }

    fn coverage(&self) -> Option<&[u32]> {
        self.inner.coverage()
    }

    fn describe(&self) -> String {
        self.inner.describe()
    }
}

fn fabric_sim(k: usize, mode: SolverMode) -> (FatTree, SharedSim) {
    let tree = FatTree::build(k).unwrap();
    let mut sim = Simulator::new(FatTree::build(k).unwrap().into_parts().0).unwrap();
    sim.set_solver_mode(mode);
    (tree, share(sim))
}

/// The seeded draw both flow generators below share: the next value of
/// a 64-bit LCG, reduced below `bound`.
fn lcg(seed: u64) -> impl FnMut(u64) -> u64 {
    let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
    move |bound| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) % bound
    }
}

/// Cross-pod traffic: a mix of greedy and fixed-rate flows derived from
/// the seed, so utilization differs per link and per run.
fn seed_flows(tree: &FatTree, sim: &SharedSim, seed: u64, n: usize) -> Vec<remos::net::FlowHandle> {
    let mut next = lcg(seed);
    let pods = tree.pods() as u64;
    let per_pod = (tree.topology().compute_nodes().len() / tree.pods()) as u64;
    let mut handles = Vec::new();
    let mut s = sim.lock();
    for _ in 0..n {
        let (sp, si) = (next(pods) as usize, next(per_pod) as usize);
        let (mut dp, di) = (next(pods) as usize, next(per_pod) as usize);
        if dp == sp {
            dp = (dp + 1) % tree.pods();
        }
        let (src, dst) = (tree.host(sp, si), tree.host(dp, di));
        let params = if next(2) == 0 {
            FlowParams::greedy(src, dst)
        } else {
            FlowParams::cbr(src, dst, mbps(5.0 + next(40) as f64))
        };
        handles.push(s.start_flow(params).unwrap());
    }
    handles
}

/// The persistent cross-section the retired sharded-poll benchmark
/// seeded, draw for draw (its quick-scale graph digest is pinned below):
/// `locality_pct`% of flows stay inside their pod, the rest cross the
/// spine; a mix of greedy and fixed-rate.
fn seed_local_flows(tree: &FatTree, sim: &SharedSim, seed: u64, n: usize, locality_pct: u64) {
    let mut next = lcg(seed);
    let pods = tree.pods() as u64;
    let per_pod = (tree.topology().compute_nodes().len() / tree.pods()) as u64;
    let mut s = sim.lock();
    for _ in 0..n {
        let (sp, si) = (next(pods) as usize, next(per_pod) as usize);
        let mut di = next(per_pod) as usize;
        let dp = if next(100) < locality_pct {
            sp
        } else {
            (sp + 1 + next(pods - 1) as usize) % tree.pods()
        };
        if dp == sp && di == si {
            di = (di + 1) % per_pod as usize;
        }
        let (src, dst) = (tree.host(sp, si), tree.host(dp, di));
        let params = if next(2) == 0 {
            FlowParams::greedy(src, dst)
        } else {
            FlowParams::cbr(src, dst, mbps(5.0 + next(45) as f64))
        };
        s.start_flow(params).unwrap();
    }
}

/// A monolithic oracle and a default-configured 8-way (7 pod groups +
/// spine) shard federation over the same simulator.
fn mono_and_sharded(tree: &FatTree, sim: &SharedSim) -> (OracleCollector, MultiCollector) {
    let children: Vec<Box<dyn Collector>> = shard_fabric(tree, sim, 7)
        .unwrap()
        .into_iter()
        .map(|s| Box::new(s) as Box<dyn Collector>)
        .collect();
    assert_eq!(children.len(), 8, "7 pod groups + spine");
    let mut fed = MultiCollector::new(children);
    fed.refresh_topology().unwrap();
    (OracleCollector::new(Arc::clone(sim)), fed)
}

/// Two hosts of every pod, by name: the target set of the graph queries.
fn two_hosts_per_pod(tree: &FatTree) -> Vec<String> {
    (0..tree.pods())
        .flat_map(|p| (0..2).map(move |i| (p, i)))
        .map(|(p, i)| tree.topology().node(tree.host(p, i)).name.clone())
        .collect()
}

fn snapshots_bit_identical(a: &Snapshot, b: &Snapshot, what: &str) {
    assert_eq!(a.t, b.t, "{what}: sample time");
    assert_eq!(a.interval, b.interval, "{what}: sample interval");
    assert_eq!(a.util.len(), b.util.len(), "{what}: width");
    for (i, (x, y)) in a.util.iter().zip(b.util.iter()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: util[{i}] {x} vs {y}");
    }
    assert_eq!(a.quality, b.quality, "{what}: quality");
}

/// The headline equivalence: an 8-way sharded federation over a fabric
/// answers bit-identically to a monolithic oracle collector over the
/// same simulator — shared topology `Arc`, samples, graph digest, and
/// flow grants — in both solver modes.
#[test]
fn sharded_view_is_bit_identical_to_monolithic() {
    for mode in [SolverMode::Incremental, SolverMode::Full] {
        let (tree, sim) = fabric_sim(8, mode);
        let mut handles = seed_flows(&tree, &sim, 0xC0FFEE, 24);
        sim.lock().run_for(SimDuration::from_millis(500)).unwrap();

        let (mut mono, mut fed) = mono_and_sharded(&tree, &sim);
        let obs = Obs::new();
        fed.set_obs(&obs);

        // The merged topology IS the fabric's (same allocation), so node
        // ids, routing, and digests cannot drift.
        assert!(Arc::ptr_eq(&mono.topology().unwrap(), &fed.topology().unwrap()));

        // Every published snapshot matches, through idle polls (the clock
        // advances, nothing else: the shards repeat) interleaved with
        // everything that must end a repeat.
        let core = tree.topology().link_ids().find(|&l| tree.pod_of_link(l).is_none()).unwrap();
        for step in 0..12 {
            match step {
                2 => drop(sim.lock().stop_flow(handles.swap_remove(0)).unwrap()),
                5 => handles.extend(seed_flows(&tree, &sim, 0xFACADE, 2)),
                7 | 9 => sim.lock().set_link_state(core, step == 9).unwrap(),
                10 => {
                    mono.refresh_topology().unwrap();
                    fed.refresh_topology().unwrap();
                }
                _ => {}
            }
            sim.lock().run_for(SimDuration::from_millis(250)).unwrap();
            assert!(mono.poll().unwrap());
            assert!(fed.poll().unwrap());
            let (ms, fs) = (mono.history().latest().unwrap(), fed.history().latest().unwrap());
            snapshots_bit_identical(ms, fs, &format!("{mode:?}, step {step}"));
        }
        let (ms, fs) = (mono.history().latest().unwrap(), fed.history().latest().unwrap());
        assert!(ms.util.iter().any(|&u| u > 0.0), "scenario produced no traffic");
        assert!(fs.quality.iter().all(|q| q.is_fresh()));
        assert!(fs.interval > SimDuration::ZERO);
        let repeats = obs.counter("shard_repeats_total").get();
        assert!((8..96).contains(&repeats), "{mode:?}: {repeats} of 96 shard polls repeated");

        // Graph digest and flow grants through the modeler agree.
        let names = two_hosts_per_pod(&tree);
        let modeler = Modeler::default();
        let gm = modeler.get_graph(&mono, &names, Timeframe::Current).unwrap();
        let gf = modeler.get_graph(&fed, &names, Timeframe::Current).unwrap();
        assert_eq!(gm.digest(), gf.digest(), "{mode:?}: merged graph digest drifted");

        let req = FlowInfoRequest::new()
            .fixed(&names[0], &names[3], mbps(10.0))
            .fixed(&names[1], &names[5], mbps(25.0));
        let rm = modeler.flow_info(&mono, &req, Timeframe::Current).unwrap();
        let rf = modeler.flow_info(&fed, &req, Timeframe::Current).unwrap();
        for (a, b) in rm.fixed.iter().zip(rf.fixed.iter()) {
            assert_eq!(a.bandwidth, b.bandwidth, "{mode:?}: grant bandwidth");
            assert_eq!(a.fully_satisfied, b.fully_satisfied);
            assert_eq!(a.estimate_quality, b.estimate_quality);
        }
    }
}

/// `RemosGraph::digest` of the quick-scale scenario the retired
/// sharded-poll benchmark pinned (k=8, 256 flows seeded from
/// `0x5AAD_5EED`, 80% intra-pod). Machine-independent: any change to how
/// rates are read, merged or annotated that moves a bit moves this.
const QUICK_GOLDEN_GRAPH_DIGEST: u64 = 0xac32_eece_d7fb_369b;

/// The same equivalence at a scale where links carry many flows, against
/// a recorded value rather than only against each other: monolithic and
/// sharded, in both solver modes, all answer the golden digest.
#[test]
fn quick_scale_graph_digest_matches_the_golden() {
    for mode in [SolverMode::Full, SolverMode::Incremental] {
        let (tree, sim) = fabric_sim(8, mode);
        seed_local_flows(&tree, &sim, 0x5AAD_5EED, 256, 80);
        sim.lock().run_for(SimDuration::from_millis(500)).unwrap();
        let (mut mono, mut fed) = mono_and_sharded(&tree, &sim);
        assert!(mono.poll().unwrap());
        assert!(fed.poll().unwrap());
        let what = format!("{mode:?}");
        snapshots_bit_identical(
            mono.history().latest().unwrap(),
            fed.history().latest().unwrap(),
            &what,
        );
        let names = two_hosts_per_pod(&tree);
        let modeler = Modeler::default();
        for col in [&mono as &dyn Collector, &fed] {
            let g = modeler.get_graph(col, &names, Timeframe::Current).unwrap();
            assert_eq!(g.digest(), QUICK_GOLDEN_GRAPH_DIGEST, "{what}: {}", col.describe());
        }
    }
}

/// The served miss path end to end: `Remos::run` over the shard
/// federation with a 4-plan cache, cycling six 16-host sets so every
/// lookup misses, evicts, and builds its plan over the epoch's shared
/// routing table (rows left there by earlier, overlapping sets). Every
/// answer must digest equal to a capacity-0 modeler — private routing
/// table, nothing cached — reading a fresh monolithic oracle.
#[test]
fn served_plan_misses_match_the_cold_oracle_answer() {
    let (tree, sim) = fabric_sim(8, SolverMode::Incremental);
    seed_local_flows(&tree, &sim, 0xC01D_5E75, 128, 70);
    sim.lock().run_for(SimDuration::from_millis(500)).unwrap();
    let (_, fed) = mono_and_sharded(&tree, &sim);
    let cached = ModelerConfig { plan_cache_capacity: 4, ..ModelerConfig::default() };
    let mut remos = Remos::new(
        Box::new(fed),
        Box::new(SimClock(Arc::clone(&sim))),
        RemosConfig { modeler: cached, ..RemosConfig::default() },
    );
    let cold = Modeler::new(ModelerConfig { plan_cache_capacity: 0, ..ModelerConfig::default() });

    let hosts = tree.topology().compute_nodes();
    let mut next = lcg(0x5E75);
    let sets: Vec<Vec<String>> = (0..6)
        .map(|_| {
            let mut picked = std::collections::BTreeSet::new();
            while picked.len() < 16 {
                picked.insert(hosts[next(hosts.len() as u64) as usize]);
            }
            picked.into_iter().map(|h| tree.topology().node(h).name.clone()).collect()
        })
        .collect();

    for round in 0..3 {
        for (i, set) in sets.iter().enumerate() {
            let served = remos
                .run(Query::graph(set.iter()).without_provenance())
                .and_then(|r| r.into_graph())
                .unwrap();
            let mut oracle = OracleCollector::new(Arc::clone(&sim));
            assert!(oracle.poll().unwrap());
            let mut reference = cold.get_graph(&oracle, set, Timeframe::Current).unwrap();
            reference.provenance = None;
            assert_eq!(served.digest(), reference.digest(), "round {round}, set {i}");
            assert!(served.links.iter().any(|l| l.avail[0].median < l.capacity), "idle answer");
        }
    }
    let counters = remos.obs().metrics_snapshot().counters;
    assert_eq!(counters.get("modeler_plan_cache_hits_total").copied().unwrap_or(0), 0);
    assert_eq!(counters.get("modeler_plan_cache_misses_total").copied(), Some(18));
}

/// Builds a 4-shard flaky federation over `sim`, returning the
/// federation, the per-shard kill switches, and the per-shard regions.
/// The merged history holds two samples, so every publish from the third
/// on evicts one.
fn flaky_federation(
    tree: &FatTree,
    sim: &SharedSim,
    force_full_merge: bool,
    forward_generation: bool,
) -> (MultiCollector, Vec<Arc<AtomicBool>>, Vec<Vec<u32>>) {
    let shards = shard_fabric(tree, sim, 3).unwrap();
    let mut flags = Vec::new();
    let mut regions = Vec::new();
    let children: Vec<Box<dyn Collector>> = shards
        .into_iter()
        .map(|s| {
            let down = Arc::new(AtomicBool::new(false));
            flags.push(Arc::clone(&down));
            regions.push(s.region().to_vec());
            Box::new(FlakyShard { inner: s, down, forward_generation }) as Box<dyn Collector>
        })
        .collect();
    let fed = MultiCollector::with_config(
        children,
        MultiCollectorConfig {
            missing_after: SimDuration::from_secs(4),
            history_len: 2,
            force_full_merge,
        },
    );
    (fed, flags, regions)
}

/// Rounds of the interleaving below; the last `QUIET` are idle with every
/// shard up, so the fast path has a settled fabric to show itself on.
const ROUNDS: u64 = 20;
const QUIET: u64 = 4;

/// Every sample of `fed`'s merged history, rebuilt, newest first.
fn rebuilt(fed: &MultiCollector) -> Vec<Snapshot> {
    let mut buf = RewindBuf::default();
    let mut walk = fed.history().rewind(&mut buf);
    let mut out = Vec::new();
    while let Some(s) = walk.next_sample() {
        out.push(Snapshot {
            t: s.t,
            interval: s.interval,
            util: s.util.into(),
            quality: s.quality.into(),
        });
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The incremental merge — unchanged shards restamped, unchanged
    /// planes published by sharing them — is bit-identical to a
    /// from-scratch re-merge and to a monolithic oracle under interleaved
    /// idle polls, flow starts and stops, link flaps, shard crashes and
    /// recoveries, and rediscoveries. Three federations over one simulator
    /// see the same schedule: `inc` (shards forward their values
    /// generation: the fast path), `legacy` (they do not: every poll
    /// re-applies) and `full` (`force_full_merge`: the reference).
    #[test]
    fn incremental_merge_matches_full_remerge(seed in 0u64..200) {
        let tree = FatTree::build(4).unwrap();
        let sim = share(Simulator::new(FatTree::build(4).unwrap().into_parts().0).unwrap());
        let mut handles = seed_flows(&tree, &sim, seed, 6);
        let (inc, inc_flags, _) = flaky_federation(&tree, &sim, false, true);
        let (legacy, legacy_flags, _) = flaky_federation(&tree, &sim, false, false);
        let (full, full_flags, _) = flaky_federation(&tree, &sim, true, true);
        let mut feds = [inc, legacy, full];
        let obs = [Obs::new(), Obs::new(), Obs::new()];
        for (fed, obs) in feds.iter_mut().zip(&obs) {
            fed.set_obs(obs);
            fed.refresh_topology().unwrap();
        }
        prop_assert_eq!(feds[0].topology_epoch(), feds[2].topology_epoch());
        let mut oracle = OracleCollector::new(Arc::clone(&sim));
        // Flaps take one core link at a time, so every host stays routable.
        let core: Vec<_> =
            tree.topology().link_ids().filter(|&l| tree.pod_of_link(l).is_none()).collect();
        let mut down_link = None;

        let mut next = lcg(seed ^ 0x5DEE_CE66);
        // Rounds since any shard was down (the oracle's `interval` matches
        // the federation's only once every shard has polled twice running).
        let mut all_up_for = 0u64;
        let mut full_held: Option<Snapshot> = None;
        for round in 0..ROUNDS {
            let quiet = round >= ROUNDS - QUIET;
            // Interleaved faults: each shard is independently down ~1/4
            // of the rounds; the schedule is identical for all three.
            let mut all_up = true;
            for shard in 0..inc_flags.len() {
                let down = !quiet && next(4) == 0;
                all_up &= !down;
                for flags in [&inc_flags, &legacy_flags, &full_flags] {
                    flags[shard].store(down, Ordering::Relaxed);
                }
            }
            all_up_for = if all_up { all_up_for + 1 } else { 0 };
            match if quiet { 0 } else { next(6) } {
                // Idle: the clock advances and nothing else happens.
                0 | 1 => {}
                2 if !handles.is_empty() => {
                    let h = handles.swap_remove(next(handles.len() as u64) as usize);
                    sim.lock().stop_flow(h).unwrap();
                }
                2 | 3 => handles.extend(seed_flows(&tree, &sim, seed ^ round, 1)),
                4 => match down_link.take() {
                    Some(link) => sim.lock().set_link_state(link, true).unwrap(),
                    None => {
                        let link = core[next(core.len() as u64) as usize];
                        sim.lock().set_link_state(link, false).unwrap();
                        down_link = Some(link);
                    }
                },
                _ => {
                    let outcomes = feds.each_mut().map(|f| f.refresh_topology().is_ok());
                    prop_assert_eq!(outcomes, [outcomes[2]; 3], "round {}: rediscovery", round);
                }
            }
            sim.lock().run_for(SimDuration::from_millis(500)).unwrap();

            prop_assert!(oracle.poll().unwrap());
            let outcomes = feds.each_mut().map(|f| f.poll().ok());
            prop_assert_eq!(outcomes, [outcomes[2]; 3], "round {}: poll outcome diverged", round);
            if outcomes[2].is_none() {
                continue; // every shard down this round
            }
            let [inc, legacy, full] = feds.each_ref().map(|f| f.history().latest());
            prop_assert_eq!(inc.is_some(), full.is_some(), "round {}: inc published?", round);
            prop_assert_eq!(legacy.is_some(), full.is_some(), "round {}: legacy published?", round);
            let (Some(inc), Some(legacy), Some(full)) = (inc, legacy, full) else { continue };
            snapshots_bit_identical(inc, full, &format!("round {round}, inc vs full"));
            snapshots_bit_identical(legacy, full, &format!("round {round}, legacy vs full"));
            // Once the quiet tail has settled, `inc` publishes the previous
            // entry's planes as they are, so its newest undo is empty.
            // `full` rewrites both every merge: it never publishes a plane
            // it published before (held, so no pointer is reused).
            if round > ROUNDS - QUIET {
                let unchanged = feds[0].history().newest_undo_is_empty();
                prop_assert_eq!(unchanged, [true; 2], "round {}: inc", round);
            }
            if outcomes[2] == Some(true) {
                if let Some(held) = &full_held {
                    let shared = [
                        Arc::ptr_eq(&held.util, &full.util),
                        Arc::ptr_eq(&held.quality, &full.quality),
                    ];
                    prop_assert_eq!(shared, [false; 2], "round {}: full", round);
                }
                full_held = Some(full.clone());
            }
            if all_up {
                let mut truth = oracle.history().latest().unwrap().clone();
                if all_up_for < 2 {
                    truth.interval = inc.interval;
                }
                snapshots_bit_identical(inc, &truth, &format!("round {round}, inc vs oracle"));
            }
        }

        // The quiet tail was served from repeats: `inc` republished the
        // previous entry's planes; `legacy`, whose shards repeated just
        // the same, re-applied every child's util every time and copied.
        let count = |o: &Obs, name: &str| o.counter(name).get();
        let repeats = obs.each_ref().map(|o| count(o, "shard_repeats_total"));
        prop_assert!(repeats[0] > 0 && repeats[0] == repeats[1], "repeats: {:?}", repeats);
        prop_assert!(count(&obs[0], "multi_publish_reused_total") > 0);
        prop_assert_eq!(count(&obs[1], "multi_publish_reused_total"), 0);
        prop_assert_eq!(count(&obs[2], "multi_publish_reused_total"), 0);

        // Everything a consumer can observe agrees at the end too.
        let names: Vec<String> = (0..4)
            .map(|p| tree.topology().node(tree.host(p, 0)).name.clone())
            .collect();
        let modeler = Modeler::default();
        let req = FlowInfoRequest::new().fixed(&names[0], &names[2], mbps(8.0));
        let answers = feds.each_ref().map(|fed| {
            let g = modeler.get_graph(fed, &names, Timeframe::Current).unwrap();
            let r = modeler.flow_info(fed, &req, Timeframe::Current).unwrap();
            (g.digest(), r.fixed[0].bandwidth, r.fixed[0].estimate_quality)
        });
        prop_assert_eq!(&answers[0], &answers[2]);
        prop_assert_eq!(&answers[1], &answers[2]);
    }
}

/// Publishing by identity is invisible to history queries. Idle polls
/// share their predecessor's planes (an empty undo) and churn polls write
/// new ones (undo pairs, or a whole plane), so a window rebuilds entries
/// of every kind; throughout, a `Window` graph over every host, a
/// `Window` flow query and every rebuilt entry agree bit for bit on `inc`
/// and on `full`, which shares nothing.
#[test]
fn window_answers_agree_when_entries_share_planes() {
    let tree = FatTree::build(4).unwrap();
    let sim = share(Simulator::new(FatTree::build(4).unwrap().into_parts().0).unwrap());
    let mut handles = seed_flows(&tree, &sim, 0x51DE, 6);
    let (mut inc, _, _) = flaky_federation(&tree, &sim, false, true);
    let (mut full, _, _) = flaky_federation(&tree, &sim, true, true);
    inc.refresh_topology().unwrap();
    full.refresh_topology().unwrap();
    let names: Vec<String> = tree
        .topology()
        .compute_nodes()
        .iter()
        .map(|&h| tree.topology().node(h).name.clone())
        .collect();
    let req = FlowInfoRequest::new()
        .fixed(&names[0], &names[9], mbps(8.0))
        .fixed(&names[5], &names[14], mbps(30.0));
    let tf = Timeframe::Window(SimDuration::from_secs(10));
    let modeler = Modeler::default();
    let answer = |fed: &MultiCollector| {
        let g = modeler.get_graph(fed, &names, tf).unwrap();
        let r = modeler.flow_info(fed, &req, tf).unwrap();
        // `{:?}` prints each f64 in its shortest round-trip form, -0.0 included.
        let grants: Vec<_> =
            r.fixed.iter().map(|f| (format!("{:?}", f.bandwidth), f.estimate_quality)).collect();
        (g.digest(), grants)
    };
    let mut next = lcg(0x1D1E);
    let mut unchanged = 0;
    for round in 0..32u64 {
        match next(4) {
            0 if !handles.is_empty() => {
                let h = handles.swap_remove(next(handles.len() as u64) as usize);
                sim.lock().stop_flow(h).unwrap();
            }
            0 | 1 => handles.extend(seed_flows(&tree, &sim, round, 1)),
            _ => {} // idle
        }
        sim.lock().run_for(SimDuration::from_millis(500)).unwrap();
        assert!(inc.poll().unwrap() && full.poll().unwrap());
        assert_eq!(answer(&inc), answer(&full), "round {round}: window answers");
        let (inc_all, full_all) = (rebuilt(&inc), rebuilt(&full));
        assert_eq!(inc_all.len(), full_all.len(), "round {round}: history length");
        for (a, b) in inc_all.iter().zip(&full_all) {
            snapshots_bit_identical(a, b, &format!("round {round}"));
        }
        unchanged += u32::from(inc.history().newest_undo_is_empty()[0]);
    }
    assert!(unchanged > 4, "only {unchanged} publishes left their util plane unchanged");
}

/// One shard crashes mid-churn: its region ages Stale and then Missing
/// while every other region keeps answering Fresh with live utilization.
#[test]
fn crashed_shard_degrades_only_its_region() {
    let tree = FatTree::build(4).unwrap();
    let sim = share(Simulator::new(FatTree::build(4).unwrap().into_parts().0).unwrap());
    seed_flows(&tree, &sim, 0x1998, 10);
    let (mut fed, flags, regions) = flaky_federation(&tree, &sim, false, true);
    fed.refresh_topology().unwrap();
    sim.lock().run_for(SimDuration::from_millis(500)).unwrap();
    assert!(fed.poll().unwrap());
    {
        let snap = fed.history().latest().unwrap();
        assert!(snap.quality.iter().all(|q| q.is_fresh()), "healthy baseline not fresh");
    }

    // Shard 0 (first pod group) crashes; traffic keeps churning.
    flags[0].store(true, Ordering::Relaxed);
    let in_region = |i: usize| regions[0].contains(&(i as u32));
    for _ in 0..3 {
        seed_flows(&tree, &sim, 0xD00D, 2);
        sim.lock().run_for(SimDuration::from_secs(1)).unwrap();
        assert!(fed.poll().unwrap(), "federation must keep publishing");
    }
    let snap = fed.history().latest().unwrap();
    for (i, q) in snap.quality.iter().enumerate() {
        if in_region(i) {
            assert!(
                matches!(q, DataQuality::Stale { .. }),
                "crashed region entry {i} should be Stale, got {q:?}"
            );
        } else {
            assert!(q.is_fresh(), "healthy region entry {i} degraded: {q:?}");
        }
    }
    assert!(fed.describe().contains("3/4"), "describe: {}", fed.describe());

    // Past `missing_after`, the dead region reads Missing — but only it.
    sim.lock().run_for(SimDuration::from_secs(4)).unwrap();
    assert!(fed.poll().unwrap());
    let snap = fed.history().latest().unwrap();
    for (i, q) in snap.quality.iter().enumerate() {
        if in_region(i) {
            assert_eq!(*q, DataQuality::Missing, "entry {i}");
        } else {
            assert!(q.is_fresh(), "entry {i}: {q:?}");
        }
    }

    // The shard recovers: one poll later its region is Fresh again.
    flags[0].store(false, Ordering::Relaxed);
    sim.lock().run_for(SimDuration::from_millis(100)).unwrap();
    assert!(fed.poll().unwrap());
    let snap = fed.history().latest().unwrap();
    assert!(snap.quality.iter().all(|q| q.is_fresh()), "recovery did not restore freshness");
}

/// The same degradation on a settled fabric, where the surviving shards
/// only ever repeat: the crashed region still ages Fresh → Stale (by the
/// measured lag) → Missing, because a child's lag behind the merge time
/// is re-applied whether or not any values moved.
#[test]
fn crashed_shard_ages_while_its_siblings_repeat() {
    let tree = FatTree::build(4).unwrap();
    let sim = share(Simulator::new(FatTree::build(4).unwrap().into_parts().0).unwrap());
    seed_flows(&tree, &sim, 0x1998, 10);
    let (mut fed, flags, regions) = flaky_federation(&tree, &sim, false, true);
    let obs = Obs::new();
    fed.set_obs(&obs);
    fed.refresh_topology().unwrap();
    sim.lock().run_for(SimDuration::from_millis(500)).unwrap();
    assert!(fed.poll().unwrap());
    let healthy = fed.history().latest().unwrap().clone();
    assert!(healthy.quality.iter().all(|q| q.is_fresh()));

    flags[0].store(true, Ordering::Relaxed);
    for secs in 1..=6 {
        sim.lock().run_for(SimDuration::from_secs(1)).unwrap();
        assert!(fed.poll().unwrap(), "federation must keep publishing");
        let snap = fed.history().latest().unwrap();
        let expected = if secs <= 4 {
            DataQuality::Stale { age: SimDuration::from_secs(secs) }
        } else {
            DataQuality::Missing
        };
        for (i, q) in snap.quality.iter().enumerate() {
            let want = if regions[0].contains(&(i as u32)) { expected } else { DataQuality::Fresh };
            assert_eq!(*q, want, "{secs} s after the crash, entry {i}");
            assert_eq!(snap.util[i].to_bits(), healthy.util[i].to_bits(), "entry {i} moved");
        }
    }
    // 3 surviving shards x 6 polls, none of which re-read anything; the
    // merge re-aged the dead child every time, so no publish went uncopied.
    assert_eq!(obs.counter("shard_repeats_total").get(), 18);
    assert_eq!(obs.counter("multi_publish_reused_total").get(), 0);

    // Recovery with nothing changed in between is a repeat too, and still
    // restores freshness: the lag, not the values generation, says so.
    flags[0].store(false, Ordering::Relaxed);
    sim.lock().run_for(SimDuration::from_millis(100)).unwrap();
    assert!(fed.poll().unwrap());
    assert_eq!(obs.counter("shard_repeats_total").get(), 22);
    assert!(fed.history().latest().unwrap().quality.iter().all(|q| q.is_fresh()));
}

/// Border entries read every contributor's sample at its own position.
/// One shard covers every dir-link, the other every even one, so every
/// entry of the second is shared and sits at half its dir-link index in
/// that shard's planes. The second sits behind a circuit breaker, which
/// must forward its coverage. The merge keeps the larger utilization
/// (`max` from `0.0` turns an idle link's `-0.0` into `0.0`), so values
/// are compared as numbers; every entry is measured Fresh.
#[test]
fn overlapping_regions_merge_like_the_oracle() {
    let tree = FatTree::build(4).unwrap();
    let sim = share(Simulator::new(FatTree::build(4).unwrap().into_parts().0).unwrap());
    let mut handles = seed_flows(&tree, &sim, 0xB0DE2, 12);
    let n = tree.topology().dir_link_count() as u32;
    let all = ShardCollector::new(Arc::clone(&sim), "all", (0..n).collect()).unwrap();
    let even = ShardCollector::new(Arc::clone(&sim), "even", (0..n).step_by(2).collect()).unwrap();
    let even = BreakerCollector::wrap(even, CircuitBreaker::new(BreakerConfig::default()));
    let mut fed = MultiCollector::new(vec![Box::new(all), Box::new(even)]);
    fed.refresh_topology().unwrap();
    let mut oracle = OracleCollector::new(Arc::clone(&sim));
    for round in 0..6u64 {
        match round {
            2 => drop(sim.lock().stop_flow(handles.swap_remove(0)).unwrap()),
            4 => handles.extend(seed_flows(&tree, &sim, round, 3)),
            _ => {}
        }
        sim.lock().run_for(SimDuration::from_millis(250)).unwrap();
        assert!(oracle.poll().unwrap() && fed.poll().unwrap());
        let (o, f) = (oracle.history().latest().unwrap(), fed.history().latest().unwrap());
        assert_eq!(f.util.len(), n as usize, "round {round}: merged width");
        for (i, (x, y)) in o.util.iter().zip(f.util.iter()).enumerate() {
            assert_eq!(x, y, "round {round}: util[{i}]");
            assert!(f.quality[i].is_fresh(), "round {round}: quality[{i}] {:?}", f.quality[i]);
        }
        assert!(o.util.iter().any(|&u| u > 0.0), "round {round}: no traffic");
    }
}

/// A covering collector's samples are in coverage order, so a query
/// asked of a bare shard is refused with a typed error instead of being
/// answered from region positions read as dir-link indices. What needs
/// no samples still answers.
#[test]
fn a_bare_shard_refuses_sample_queries() {
    let tree = FatTree::build(4).unwrap();
    let sim = share(Simulator::new(FatTree::build(4).unwrap().into_parts().0).unwrap());
    seed_flows(&tree, &sim, 0xBA2E, 4);
    let shard = shard_fabric(&tree, &sim, 2).unwrap().swap_remove(0);
    let mut remos =
        Remos::new(Box::new(shard), Box::new(SimClock(Arc::clone(&sim))), RemosConfig::default());
    let names: Vec<String> =
        (0..2).map(|p| tree.topology().node(tree.host(p, 0)).name.clone()).collect();
    let err = remos.run(Query::graph(names.iter())).unwrap_err();
    assert!(matches!(err, RemosError::Collector(_)), "{err:?}");
    assert!(remos.topology_only(&names).is_ok());
    assert!(remos.host_info(&names[0]).is_ok());
    assert!(remos.collector().now().is_ok());
}
