//! Plan-cache equivalence: a modeler serving from the epoch-keyed plan
//! cache must answer every query **bit-identically** to a modeler that
//! rebuilds routing + logicalization cold on every call — across
//! interleaved polls, topology rediscoveries (epoch bumps), LRU
//! evictions, and degraded sample quality. Both run the same code; the
//! cache capacity is the only difference, so the capacity-0 modeler is
//! the reference every cached answer is compared against.

#![allow(clippy::disallowed_methods, reason = "the positional shims are the reference these tests compare against")]

use remos_prop::prelude::*;
use remos_core::collector::{Collector, SampleHistory, Snapshot};
use remos_core::error::CoreResult;
use remos_core::graph::HostInfo;
use remos_core::modeler::{Modeler, ModelerConfig, QueryWorkspace};
use remos_core::{FlowInfoRequest, Timeframe};
use remos_net::topology::Topology;
use remos_net::{mbps, SimDuration, SimTime, TopologyBuilder};
use remos_obs::Obs;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const HOSTS: [&str; 4] = ["h0", "h1", "h2", "h3"];

/// Two structurally different topologies over the same host names, so a
/// plan cached under one must never answer a query about the other.
fn topo_a() -> Topology {
    topo_a_with_h3(HostInfo::default())
}

/// Topology A with `h3`'s resources set to `h3`.
fn topo_a_with_h3(h3: HostInfo) -> Topology {
    let mut b = TopologyBuilder::new();
    let mut hs: Vec<_> = HOSTS[..3].iter().map(|h| b.compute(h)).collect();
    hs.push(b.compute_with_host("h3", Some(h3)));
    let r0 = b.network("r0");
    let r1 = b.network("r1");
    let lat = SimDuration::from_micros(100);
    b.link(hs[0], r0, mbps(100.0), lat).unwrap();
    b.link(hs[1], r0, mbps(80.0), lat).unwrap();
    b.link(hs[2], r1, mbps(60.0), lat).unwrap();
    b.link(hs[3], r1, mbps(40.0), lat).unwrap();
    b.link(r0, r1, mbps(50.0), lat).unwrap();
    b.build().unwrap()
}

fn topo_b() -> Topology {
    let mut b = TopologyBuilder::new();
    let hs: Vec<_> = HOSTS.iter().map(|h| b.compute(h)).collect();
    let r0 = b.network("r0");
    let r1 = b.network("r1");
    let r2 = b.network("r2");
    let lat = SimDuration::from_micros(200);
    b.link(hs[0], r0, mbps(90.0), lat).unwrap();
    b.link(hs[1], r1, mbps(70.0), lat).unwrap();
    b.link(hs[2], r1, mbps(65.0), lat).unwrap();
    b.link(hs[3], r2, mbps(45.0), lat).unwrap();
    b.link(r0, r1, mbps(55.0), lat).unwrap();
    b.link(r1, r2, mbps(35.0), lat).unwrap();
    b.build().unwrap()
}

/// Hand-driven collector: topology swaps between A and B on every
/// rediscovery (bumping the epoch), and each poll pushes a snapshot
/// with LCG-driven utilization and, occasionally, degraded per-link
/// sample quality.
struct StubCollector {
    topos: [Arc<Topology>; 2],
    current: usize,
    epoch: u64,
    history: SampleHistory,
    t: SimTime,
    state: u64,
}

impl StubCollector {
    fn new(seed: u64) -> StubCollector {
        StubCollector::over(seed, [topo_a(), topo_b()])
    }

    /// A stub alternating between the two given topologies.
    fn over(seed: u64, [a, b]: [Topology; 2]) -> StubCollector {
        StubCollector {
            topos: [Arc::new(a), Arc::new(b)],
            current: 0,
            epoch: 0,
            history: SampleHistory::default(),
            t: SimTime::ZERO,
            state: seed ^ 0x9e37_79b9_7f4a_7c15,
        }
    }

    fn next(&mut self, bound: u64) -> u64 {
        self.state =
            self.state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (self.state >> 33) % bound
    }

    /// The misbehaviour the modeler's `Arc::ptr_eq` check defends
    /// against: a new topology under the old epoch.
    fn swap_topology_without_bumping_the_epoch(&mut self) {
        self.current = 1 - self.current;
        self.history.clear();
    }
}

impl Collector for StubCollector {
    fn refresh_topology(&mut self) -> CoreResult<()> {
        self.current = 1 - self.current;
        self.epoch += 1;
        self.history.clear();
        Ok(())
    }

    fn topology(&self) -> CoreResult<Arc<Topology>> {
        Ok(Arc::clone(&self.topos[self.current]))
    }

    fn poll(&mut self) -> CoreResult<bool> {
        self.t += SimDuration::from_millis(250);
        let n = self.topos[self.current].dir_link_count();
        let mut util = Vec::with_capacity(n);
        let mut quality = Vec::with_capacity(n);
        for _ in 0..n {
            util.push(self.next(60) as f64 * 1e6);
            quality.push(match self.next(10) {
                0 => remos_core::DataQuality::Stale { age: SimDuration::from_millis(500) },
                1 => remos_core::DataQuality::Missing,
                _ => remos_core::DataQuality::Fresh,
            });
        }
        let mut snap = Snapshot::fresh(self.t, SimDuration::from_millis(250), util);
        snap.quality = quality.into();
        self.history.push(snap);
        Ok(true)
    }

    fn history(&self) -> &SampleHistory {
        &self.history
    }

    fn topology_epoch(&self) -> u64 {
        self.epoch
    }

    fn now(&self) -> CoreResult<SimTime> {
        Ok(self.t)
    }
}

/// The three target sets the queries cycle through. With a warm cache
/// capacity of 2, cycling all three forces LRU evictions.
fn target_set(i: usize) -> Vec<String> {
    match i % 3 {
        0 => vec!["h0".into(), "h3".into()],
        1 => vec!["h1".into(), "h2".into(), "h3".into()],
        _ => vec!["h3".into(), "h2".into(), "h1".into(), "h0".into()],
    }
}

fn flow_request(i: usize) -> FlowInfoRequest {
    match i % 2 {
        0 => FlowInfoRequest::new().independent("h0", "h3"),
        _ => FlowInfoRequest::new()
            .fixed("h0", "h2", mbps(5.0))
            .variable("h1", "h3", 1.0),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Interleave polls, rediscoveries, graph queries, and flow queries;
    /// after every query the warm (cached, eviction-prone) modeler and
    /// the cold (capacity-0) modeler must agree bit for bit.
    #[test]
    fn cached_answers_are_bit_identical_to_cold(
        seed in 0u64..200,
        ops in prop::collection::vec(0u8..255, 1..40),
    ) {
        let mut col = StubCollector::new(seed);
        col.poll().unwrap();
        let warm = Modeler::new(ModelerConfig {
            plan_cache_capacity: 2,
            ..ModelerConfig::default()
        });
        let cold = Modeler::new(ModelerConfig {
            plan_cache_capacity: 0,
            ..ModelerConfig::default()
        });

        for op in ops {
            match op % 8 {
                0 | 1 => { col.poll().unwrap(); }
                2 => {
                    col.refresh_topology().unwrap();
                    // Rediscovery clears the history; re-prime so Current
                    // queries have a sample to select.
                    col.poll().unwrap();
                }
                3 => {
                    let req = flow_request(op as usize / 8);
                    let a = warm.flow_info(&col, &req, Timeframe::Current);
                    let b = cold.flow_info(&col, &req, Timeframe::Current);
                    prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
                }
                _ => {
                    let targets = target_set(op as usize / 8);
                    let tf = if op % 2 == 0 {
                        Timeframe::Current
                    } else {
                        Timeframe::Window(SimDuration::from_secs(2))
                    };
                    let a = warm.get_graph(&col, &targets, tf).unwrap();
                    let b = cold.get_graph(&col, &targets, tf).unwrap();
                    prop_assert_eq!(a.digest(), b.digest());
                }
            }
        }
    }
}

/// After a rediscovery the old plan's epoch key misses: the answer must
/// reflect the *new* topology, never the cached shape of the old one.
#[test]
fn stale_plan_is_never_served_across_epochs() {
    let obs = Obs::new();
    let mut col = StubCollector::new(7);
    col.poll().unwrap();
    let mut modeler = Modeler::new(ModelerConfig::default());
    modeler.set_obs(&obs);
    let cold = Modeler::new(ModelerConfig { plan_cache_capacity: 0, ..ModelerConfig::default() });
    let targets: Vec<String> = vec!["h0".into(), "h3".into()];

    let before = modeler.get_graph(&col, &targets, Timeframe::Current).unwrap();
    let hit = modeler.get_graph(&col, &targets, Timeframe::Current).unwrap();
    assert_eq!(before.digest(), hit.digest(), "idle repeat must be a pure cache hit");
    let reference = cold.get_graph(&col, &targets, Timeframe::Current).unwrap();
    assert_eq!(hit.digest(), reference.digest(), "cache hit diverged from a cold rebuild");

    col.refresh_topology().unwrap();
    col.poll().unwrap();
    let after = modeler.get_graph(&col, &targets, Timeframe::Current).unwrap();
    let reference = cold.get_graph(&col, &targets, Timeframe::Current).unwrap();
    assert_eq!(after.digest(), reference.digest(), "post-rediscovery answer is not the cold one");

    // Topology A's h0..h3 bottleneck is the 40 Mbps h3 uplink; topology
    // B's is the 35 Mbps r1-r2 hop. A served stale plan could not show
    // the new bottleneck.
    let bottleneck =
        |g: &remos_core::RemosGraph| g.links.iter().map(|l| l.capacity as u64).min().unwrap();
    assert_eq!(bottleneck(&before), 40_000_000);
    assert_eq!(
        bottleneck(&after),
        35_000_000,
        "post-rediscovery answer still has the old topology's bottleneck"
    );
    let c = |k: &str| obs.metrics_snapshot().counters.get(k).copied().unwrap_or(0);
    assert_eq!(c("modeler_plan_cache_misses_total"), 2, "one cold build per epoch");
    assert_eq!(c("modeler_plan_cache_hits_total"), 1);
}

/// A capacity-1 cache alternating between two target sets evicts on
/// every flip, and the eviction counter records each one.
#[test]
fn lru_evictions_are_counted() {
    let obs = Obs::new();
    let mut col = StubCollector::new(11);
    col.poll().unwrap();
    let mut modeler = Modeler::new(ModelerConfig {
        plan_cache_capacity: 1,
        ..ModelerConfig::default()
    });
    modeler.set_obs(&obs);
    let set_a = target_set(0);
    let set_b = target_set(1);
    for _ in 0..3 {
        modeler.get_graph(&col, &set_a, Timeframe::Current).unwrap();
        modeler.get_graph(&col, &set_b, Timeframe::Current).unwrap();
    }
    let c = |k: &str| obs.metrics_snapshot().counters.get(k).copied().unwrap_or(0);
    assert_eq!(c("modeler_plan_cache_hits_total"), 0);
    assert_eq!(c("modeler_plan_cache_misses_total"), 6);
    // The first insert fills the empty slot; every later insert evicts.
    assert_eq!(c("modeler_plan_cache_evictions_total"), 5);
}

/// Routing depends on the topology alone, so every plan built under one
/// `(epoch, topology Arc)` routes through one shared table — across LRU
/// evictions too — and the table is replaced when either half of that
/// key changes. The capacity-0 reference modeler shares nothing.
#[test]
fn plans_of_one_epoch_share_one_routing_table() {
    let mut col = StubCollector::new(3);
    col.poll().unwrap();
    let cached = Modeler::new(ModelerConfig { plan_cache_capacity: 2, ..ModelerConfig::default() });
    let cold = Modeler::new(ModelerConfig { plan_cache_capacity: 0, ..ModelerConfig::default() });
    let plan = |m: &Modeler, col: &StubCollector, set: usize| {
        m.plan_for(col, &target_set(set), &mut Vec::new()).unwrap()
    };

    let first = plan(&cached, &col, 0);
    assert_eq!(first.routing.rows_built(), 1, "{{h0, h3}} routes from h0's switch r0 alone");
    let second = plan(&cached, &col, 1);
    assert!(Arc::ptr_eq(&first.routing, &second.routing), "two misses, one epoch, two tables");
    // h1 shares h0's switch r0; h3 is only ever a destination.
    assert_eq!(first.routing.rows_built(), 2, "h2 routes from its switch r1");
    // A third set evicts the first; rebuilding it is a miss that still
    // lands on the shared table and finds its row there.
    plan(&cached, &col, 2);
    let rebuilt = plan(&cached, &col, 0);
    assert!(!Arc::ptr_eq(&first, &rebuilt), "capacity 2 kept three plans");
    assert!(Arc::ptr_eq(&first.routing, &rebuilt.routing));
    assert_eq!(rebuilt.routing.rows_built(), 2);

    col.refresh_topology().unwrap();
    col.poll().unwrap();
    let bumped = plan(&cached, &col, 0);
    assert!(!Arc::ptr_eq(&first.routing, &bumped.routing), "an epoch bump kept the old table");
    assert!(Arc::ptr_eq(&bumped.topo, &col.topology().unwrap()));

    col.swap_topology_without_bumping_the_epoch();
    col.poll().unwrap();
    let swapped = plan(&cached, &col, 0);
    assert_eq!(swapped.epoch, bumped.epoch);
    assert!(Arc::ptr_eq(&swapped.topo, &col.topology().unwrap()), "stale plan served");
    assert!(!Arc::ptr_eq(&bumped.routing, &swapped.routing), "routes of the swapped-out topology");
    for set in 0..3 {
        let a = cached.get_graph(&col, &target_set(set), Timeframe::Current).unwrap();
        let b = cold.get_graph(&col, &target_set(set), Timeframe::Current).unwrap();
        assert_eq!(a.digest(), b.digest(), "set {set} after the silent swap");
    }

    let (x, y) = (plan(&cold, &col, 1), plan(&cold, &col, 1));
    assert!(!Arc::ptr_eq(&x.routing, &y.routing), "capacity 0 shared a table");
    assert_eq!(y.routing.rows_built(), 2, "a private table holds this query's rows only");
}

/// A host's resources live on its topology node, so a plan's answer
/// follows the topology it was built from: two topologies that differ
/// only in h3's memory answer with each one's value, whether the
/// collector bumps its epoch between them or swaps silently and only the
/// plan cache's `Arc::ptr_eq` guard notices.
#[test]
fn host_resources_follow_the_topology_across_swaps() {
    let big = HostInfo { memory_bytes: 4 << 30, ..HostInfo::default() };
    let mut col = StubCollector::over(5, [topo_a(), topo_a_with_h3(big)]);
    col.poll().unwrap();
    let modeler = Modeler::new(ModelerConfig::default());
    let targets = target_set(0);
    // One workspace throughout, so each answer overwrites the last in place.
    let mut ws = QueryWorkspace::new();
    let mut h3_memory = |col: &StubCollector| {
        let g = modeler.get_graph_in(col, &targets, Timeframe::Current, &mut ws).unwrap();
        g.nodes[g.index_of("h3").unwrap()].host.unwrap().memory_bytes
    };
    assert_eq!(h3_memory(&col), HostInfo::default().memory_bytes);
    col.refresh_topology().unwrap();
    col.poll().unwrap();
    assert_eq!(h3_memory(&col), big.memory_bytes, "after an epoch bump");
    col.swap_topology_without_bumping_the_epoch();
    col.poll().unwrap();
    assert_eq!(h3_memory(&col), HostInfo::default().memory_bytes, "after a silent swap");
    col.swap_topology_without_bumping_the_epoch();
    col.poll().unwrap();
    assert_eq!(h3_memory(&col), big.memory_bytes, "after a second silent swap");
}

/// Counts `host_info` calls on their way to the stub.
struct CountingCollector {
    inner: StubCollector,
    host_info_calls: AtomicUsize,
}

impl Collector for CountingCollector {
    fn refresh_topology(&mut self) -> CoreResult<()> {
        self.inner.refresh_topology()
    }

    fn topology(&self) -> CoreResult<Arc<Topology>> {
        self.inner.topology()
    }

    fn host_info(&self, name: &str) -> CoreResult<HostInfo> {
        self.host_info_calls.fetch_add(1, Ordering::Relaxed);
        self.inner.host_info(name)
    }

    fn poll(&mut self) -> CoreResult<bool> {
        self.inner.poll()
    }

    fn history(&self) -> &SampleHistory {
        self.inner.history()
    }

    fn topology_epoch(&self) -> u64 {
        self.inner.topology_epoch()
    }

    fn now(&self) -> CoreResult<SimTime> {
        self.inner.now()
    }
}

/// A graph answer reads host resources from its plan's topology: a warm
/// answer (plan-cache hit) asks the collector for none of them.
#[test]
fn a_warm_graph_answer_makes_no_host_info_call() {
    let obs = Obs::new();
    let mut col = CountingCollector { inner: StubCollector::new(9), host_info_calls: 0.into() };
    col.poll().unwrap();
    let mut modeler = Modeler::new(ModelerConfig::default());
    modeler.set_obs(&obs);
    let targets = target_set(2);
    let cold = modeler.get_graph(&col, &targets, Timeframe::Current).unwrap();
    let warm = modeler.get_graph(&col, &targets, Timeframe::Current).unwrap();
    assert_eq!(warm.digest(), cold.digest());
    assert_eq!(warm.nodes.iter().filter(|n| n.host.is_some()).count(), HOSTS.len());
    let hits = obs.metrics_snapshot().counters.get("modeler_plan_cache_hits_total").copied();
    assert_eq!(hits, Some(1), "the second answer is a plan-cache hit");
    assert_eq!(col.host_info_calls.load(Ordering::Relaxed), 0);
}
