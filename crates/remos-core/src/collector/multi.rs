//! Cooperating collectors (§5) — the sharded coordinator.
//!
//! "A large environment may require multiple cooperating Collectors. …
//! we are also looking into the problem of dealing with very large
//! networks, where multiple collectors will have to collaborate to collect
//! the network information."
//!
//! [`MultiCollector`] owns several child collectors, each responsible for
//! a region (e.g. one SNMP collector per campus subnet, a
//! [`ShardCollector`](crate::collector::shard::ShardCollector) per pod
//! group of a fabric), and merges their views: nodes are unified by name
//! (a host keeps the first resources a child measured for it), links by
//! endpoint-name pair (border links observed by two children are
//! deduplicated, utilization merged by maximum), and snapshots are
//! re-indexed into the merged topology. When every child reports the
//! *same* shared topology `Arc` (the fabric-shard case), the merged view
//! *is* that topology and the remap is the identity — graph digests stay
//! bit-identical to a monolithic collector.
//!
//! Four properties keep the coordinator cheap:
//!
//! * **Polling on the caller** — children are polled one after another
//!   on the calling thread, with no allocation. Every child this
//!   repository federates reads one in-process source behind one lock
//!   (a `SimCell` for fabric shards, a `SimTransport` for SNMP
//!   children), so a thread per child buys contention, not overlap:
//!   spawning scoped threads costs ≈300 µs per poll against ≈5 µs per
//!   shard read, and polls a 4–8-way SNMP federation 20–60% *slower*
//!   than this loop (measured in docs/PERFORMANCE.md).
//! * **Dirty-shard merge** — the merged `util`/`quality` vectors are
//!   persistent. A child's util is re-applied only when its
//!   `generation()` moved (a shard that only restamped its sample keeps
//!   it), as one copy per run of entries only it observes (a covering
//!   child's planes hold just its coverage, in order). Its quality
//!   is re-aged only when its latest quality plane is not the one the
//!   last apply read (the federation holds that `Arc`, so the pointer
//!   cannot be reused) or its lag behind the merge time moved. Border
//!   entries observed by several children are recomputed every merge.
//! * **Publish by identity** — [`Snapshot`]'s planes are shared `Arc`s.
//!   A plane the merge did not write is the previous entry's, shared,
//!   and the history stores it for nothing. A written one goes into the
//!   history's spare — the plane the last publish displaced — when
//!   `Arc::get_mut` grants it, else into a new allocation; the history
//!   keeps only the entries it changed, as the displaced entry's undo.
//!   So publish alternates between two planes, and no plane is written
//!   while another holder reads it.
//! * **Epoch vector** — [`Collector::topology_epoch`] is an FNV-1a
//!   digest over the children's *structural* digests, not a counter. A
//!   child re-discovering an unchanged region keeps the digest (and the
//!   merged topology `Arc`, remap, and history), so cached query plans
//!   keyed on the epoch survive shard rediscovery that changed nothing.
//!
//! The federation is also the failover layer: a child whose region stops
//! answering keeps contributing its *last* sample, aged into
//! [`DataQuality::Stale`] and eventually [`DataQuality::Missing`], while
//! the surviving children's regions stay [`DataQuality::Fresh`]. Polling
//! and re-discovery succeed as long as at least one child does.

use crate::collector::{refill, Collector, SampleHistory, Snapshot};
use crate::error::{CoreResult, RemosError};
use crate::graph::HostInfo;
use crate::quality::DataQuality;
use remos_net::topology::{DirLink, NodeKind, Topology, TopologyBuilder};
use remos_net::{SimDuration, SimTime};
use remos_obs::{Counter, Fnv, Histogram, Obs};
#[expect(clippy::disallowed_types, reason = "name-to-id lookups only; nothing iterates it")]
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Configuration of a [`MultiCollector`].
#[derive(Clone, Debug)]
pub struct MultiCollectorConfig {
    /// Child samples older than this (relative to the newest child sample)
    /// are reported as [`DataQuality::Missing`] instead of `Stale`.
    pub missing_after: SimDuration,
    /// Bound of the merged sample history.
    pub history_len: usize,
    /// Reference mode for equivalence tests: every merge re-applies
    /// every child from scratch instead of only the dirty ones. The
    /// incremental merge must be bit-identical to this.
    pub force_full_merge: bool,
}

impl Default for MultiCollectorConfig {
    fn default() -> Self {
        MultiCollectorConfig {
            missing_after: SimDuration::from_secs(30),
            history_len: crate::collector::DEFAULT_HISTORY_LEN,
            force_full_merge: false,
        }
    }
}

/// One child's observation of a merged entry.
struct Contributor {
    child: u32,
    /// The entry's position in the child's sample planes.
    child_idx: u32,
}

/// A merged entry observed by two or more children (a border link):
/// recomputed from all contributors on every merge.
struct SharedEntry {
    merged_idx: u32,
    /// In child order, so quality tie-breaks match a sequential merge.
    contributors: Vec<Contributor>,
}

/// A run of entries only one child observes: its entries
/// `child..child + len` land at merged `merged..merged + len`.
struct Run {
    child: u32,
    merged: u32,
    len: u32,
}

/// Persistent merge state: topology, remap, contributor split, and the
/// in-place merged sample buffers.
struct Merged {
    topo: Arc<Topology>,
    /// Per child: the entries only it observes, coalesced into runs.
    exclusive: Vec<Vec<Run>>,
    /// Entries observed by several children.
    shared: Vec<SharedEntry>,
    /// Persistent merged buffers, re-applied in place per dirty child.
    util: Vec<f64>,
    quality: Vec<DataQuality>,
    /// Child sample generation at the last util apply.
    applied_gen: Vec<Option<u64>>,
    /// Child lag behind the merge time at the last quality apply
    /// (`None` = child had no sample).
    applied_age: Vec<Option<SimDuration>>,
    /// The child quality plane the last quality apply read, held so its
    /// pointer cannot be freed and reused (`None` = not vouched for).
    applied_quality: Vec<Option<Arc<[DataQuality]>>>,
    /// Per-child structural digests the epoch vector is built from.
    child_struct: Vec<u64>,
    /// The child topology `Arc`s behind those digests (pointer-equality
    /// fast path on rediscovery).
    child_topos: Vec<Option<Arc<Topology>>>,
}

struct MultiMetrics {
    shard_polls: Counter,
    dirty_shards: Histogram,
    merge_ns: Histogram,
    publish_reused: Counter,
}

impl MultiMetrics {
    fn new(obs: &Obs) -> MultiMetrics {
        MultiMetrics {
            shard_polls: obs.counter("multi_shard_polls_total"),
            dirty_shards: obs.histogram("multi_dirty_shards"),
            merge_ns: obs.histogram("multi_merge_ns"),
            publish_reused: obs.counter("multi_publish_reused_total"),
        }
    }
}

/// FNV-1a digest of everything that gives a child topology its meaning:
/// node names/kinds/resources and link endpoints/capacity/latency, in id
/// order. Equal digests imply the same dir-link indexing, so remaps and
/// histories built under one stay valid under the other.
fn structure_digest(t: &Topology) -> u64 {
    let mut d = Fnv::new();
    for n in t.node_ids() {
        let node = t.node(n);
        d.bytes(node.name.as_bytes());
        d.bytes(&[matches!(node.kind, NodeKind::Network) as u8, node.host.is_some() as u8]);
        if let Some(h) = node.host {
            d.f64(h.compute_flops);
            d.u64(h.memory_bytes);
        }
    }
    for l in t.link_ids() {
        let link = t.link(l);
        d.u64(link.a.index() as u64);
        d.u64(link.b.index() as u64);
        d.f64(link.capacity);
        d.u64(link.latency.as_nanos());
    }
    d.value()
}

/// The epoch *vector* folded to one value: FNV-1a over the per-child
/// structural digests plus the child count. Fed to the plan cache as
/// [`Collector::topology_epoch`]; one shard's rediscovery only moves it
/// when that shard's structure actually changed.
fn epoch_digest(child_structs: &[u64]) -> u64 {
    let mut d = Fnv::new();
    for &s in child_structs {
        d.u64(s);
    }
    d.u64(child_structs.len() as u64);
    d.value()
}

/// A federation of collectors presenting one merged view.
pub struct MultiCollector {
    children: Vec<Box<dyn Collector>>,
    cfg: MultiCollectorConfig,
    merged: Option<Merged>,
    history: SampleHistory,
    epoch: u64,
    obs: Obs,
    metrics: MultiMetrics,
}

impl MultiCollector {
    /// Federate the given children. At least one is required.
    pub fn new(children: Vec<Box<dyn Collector>>) -> Self {
        Self::with_config(children, MultiCollectorConfig::default())
    }

    /// Federate with an explicit configuration.
    pub fn with_config(children: Vec<Box<dyn Collector>>, cfg: MultiCollectorConfig) -> Self {
        let obs = Obs::new();
        let metrics = MultiMetrics::new(&obs);
        let history = SampleHistory::new(cfg.history_len);
        MultiCollector { children, cfg, merged: None, history, epoch: 0, obs, metrics }
    }

    /// Rebuild the merged view if any child's structure changed; keep
    /// everything (topology `Arc`, remap, merged history, epoch) when
    /// rediscovery found the same structures.
    fn rebuild_or_keep(&mut self) -> CoreResult<()> {
        if self.children.is_empty() {
            return Err(RemosError::Collector("no child collectors".into()));
        }
        // Children without a discovered view (their whole region is down)
        // simply contribute nothing to the merge.
        let topos: Vec<Option<Arc<Topology>>> =
            self.children.iter().map(|c| c.topology().ok()).collect();
        if topos.iter().all(|t| t.is_none()) {
            return Err(RemosError::Collector("no child has a discovered topology".into()));
        }
        let mut structs = Vec::with_capacity(topos.len());
        for (ci, topo) in topos.iter().enumerate() {
            let s = match topo {
                None => 0,
                Some(t) => {
                    let prior = self
                        .merged
                        .as_ref()
                        .and_then(|m| m.child_topos.get(ci))
                        .and_then(|o| o.as_ref());
                    match prior {
                        // Same Arc as last time: digest cannot have moved.
                        Some(old) if Arc::ptr_eq(old, t) => {
                            self.merged.as_ref().map(|m| m.child_struct[ci]).unwrap_or(0)
                        }
                        _ => structure_digest(t),
                    }
                }
            };
            structs.push(s);
        }
        if let Some(m) = &mut self.merged {
            if m.child_struct == structs {
                // Structures unchanged: merged topology, remap, buffers,
                // history, and the epoch all stay — cached plans keyed on
                // the epoch survive this rediscovery.
                m.child_topos = topos;
                return Ok(());
            }
        }
        let merged = self.merge(&topos, structs)?;
        self.epoch = epoch_digest(&merged.child_struct);
        self.merged = Some(merged);
        self.history.clear();
        Ok(())
    }

    /// Build the merged topology, remap, and contributor split.
    fn merge(
        &self,
        topos: &[Option<Arc<Topology>>],
        child_struct: Vec<u64>,
    ) -> CoreResult<Merged> {
        // Fast path: every discovered child reports the same shared
        // topology (fabric shards). The merged view IS that topology —
        // identity remap, and crucially the same `Arc`, so plan-cache
        // pointer guards and graph digests match a monolithic collector.
        let first = topos.iter().flatten().next().cloned();
        let all_same = first.as_ref().is_some_and(|f| {
            topos.iter().flatten().all(|t| Arc::ptr_eq(f, t))
        });
        let (topo, remap) = if let (Some(f), true) = (first, all_same) {
            let n = f.dir_link_count();
            let remap: Vec<Vec<usize>> = topos
                .iter()
                .map(|t| if t.is_some() { (0..n).collect() } else { Vec::new() })
                .collect();
            (f, remap)
        } else {
            self.merge_by_name(topos)?
        };

        // Contributor split: which children actually observe each merged
        // entry. A child observes the entries its coverage() declares
        // (all of them by default), remapped into the merged indexing; a
        // covering child's sample holds entry `coverage()[k]` at `k`.
        let n = topo.dir_link_count();
        let mut contrib: Vec<Vec<Contributor>> = (0..n).map(|_| Vec::new()).collect();
        for (ci, map) in remap.iter().enumerate() {
            if map.is_empty() {
                continue;
            }
            let mut note = |dir_idx: usize, child_idx: usize| {
                let m = map.get(dir_idx).copied().unwrap_or(usize::MAX);
                if m != usize::MAX {
                    contrib[m].push(Contributor { child: ci as u32, child_idx: child_idx as u32 });
                }
            };
            match self.children[ci].coverage() {
                None => (0..map.len()).for_each(|i| note(i, i)),
                Some(list) => list.iter().enumerate().for_each(|(k, &i)| note(i as usize, k)),
            }
        }
        let mut exclusive: Vec<Vec<Run>> = (0..topos.len()).map(|_| Vec::new()).collect();
        let mut shared = Vec::new();
        for (m, list) in contrib.into_iter().enumerate() {
            match &list[..] {
                [] => {}
                [c] => {
                    let runs = &mut exclusive[c.child as usize];
                    match runs.last_mut() {
                        Some(r) if (r.child + r.len, r.merged + r.len) == (c.child_idx, m as u32) => {
                            r.len += 1
                        }
                        _ => runs.push(Run { child: c.child_idx, merged: m as u32, len: 1 }),
                    }
                }
                _ => shared.push(SharedEntry { merged_idx: m as u32, contributors: list }),
            }
        }
        Ok(Merged {
            topo,
            exclusive,
            shared,
            util: vec![0.0; n],
            quality: vec![DataQuality::Missing; n],
            applied_gen: vec![None; topos.len()],
            applied_age: vec![None; topos.len()],
            applied_quality: vec![None; topos.len()],
            child_struct,
            child_topos: topos.to_vec(),
        })
    }

    /// The general name-union merge for heterogeneous children (regional
    /// SNMP collectors with border overlap).
    #[expect(clippy::disallowed_types, reason = "name-to-id lookups only; nothing iterates it")]
    fn merge_by_name(
        &self,
        topos: &[Option<Arc<Topology>>],
    ) -> CoreResult<(Arc<Topology>, Vec<Vec<usize>>)> {
        // Union of nodes by name. Network kind wins on conflict (a border
        // router may look like an opaque endpoint to a benchmark child); a
        // host's resources are the first child's that measured them.
        let mut nodes: BTreeMap<String, (NodeKind, Option<HostInfo>)> = BTreeMap::new();
        for t in topos.iter().flatten() {
            for n in t.node_ids() {
                let node = t.node(n);
                let e = nodes.entry(node.name.clone()).or_insert((node.kind, None));
                if node.kind == NodeKind::Network {
                    e.0 = NodeKind::Network;
                }
                e.1 = e.1.or(node.host);
            }
        }
        // Union of links by ordered name pair.
        let mut edges: BTreeMap<(String, String), (f64, remos_net::SimDuration)> = BTreeMap::new();
        for t in topos.iter().flatten() {
            for l in t.link_ids() {
                let link = t.link(l);
                let (an, bn) = (t.node(link.a).name.clone(), t.node(link.b).name.clone());
                let key = if an < bn { (an, bn) } else { (bn, an) };
                edges
                    .entry(key)
                    .and_modify(|(c, _)| *c = c.min(link.capacity))
                    .or_insert((link.capacity, link.latency));
            }
        }
        // Build merged topology.
        let mut b = TopologyBuilder::new();
        let mut ids = HashMap::new();
        for (name, &(kind, host)) in &nodes {
            let id = match kind {
                NodeKind::Network => b.network(name),
                NodeKind::Compute => b.compute_with_host(name, host),
            };
            ids.insert(name.clone(), id);
        }
        let mut link_ids = HashMap::new();
        for ((an, bn), (cap, lat)) in &edges {
            let id = b.link(ids[an], ids[bn], *cap, *lat).map_err(RemosError::from)?;
            link_ids.insert((an.clone(), bn.clone()), id);
        }
        let topo = Arc::new(b.build().map_err(RemosError::from)?);

        // Per-child dir-link remap.
        let mut remap = Vec::with_capacity(topos.len());
        for t in topos {
            let Some(t) = t else {
                remap.push(Vec::new());
                continue;
            };
            let mut m = vec![usize::MAX; t.dir_link_count()];
            for l in t.link_ids() {
                let link = t.link(l);
                let (an, bn) = (t.node(link.a).name.clone(), t.node(link.b).name.clone());
                let key = if an < bn { (an.clone(), bn.clone()) } else { (bn.clone(), an.clone()) };
                let merged_link = link_ids[&key];
                // Directions must be matched by tail-node name, since the
                // merged link may list endpoints in either order.
                let merged_l = topo.link(merged_link);
                let tail_a_name = &topo.node(merged_l.a).name;
                for dir in [remos_net::Direction::AtoB, remos_net::Direction::BtoA] {
                    let child_tail = t.node(link.tail(dir)).name.clone();
                    let merged_dir = if &child_tail == tail_a_name {
                        remos_net::Direction::AtoB
                    } else {
                        remos_net::Direction::BtoA
                    };
                    m[DirLink { link: l, dir }.index()] =
                        DirLink { link: merged_link, dir: merged_dir }.index();
                }
            }
            remap.push(m);
        }
        Ok((topo, remap))
    }
}

/// Quality of `snap`'s entry `idx`, aged by how far the snapshot lags
/// the merge time (`age`), degrading to Missing past `missing_after`.
fn aged_quality(
    snap: &Snapshot,
    idx: usize,
    age: SimDuration,
    missing_after: SimDuration,
) -> DataQuality {
    let mut q = snap.quality.get(idx).copied().unwrap_or(DataQuality::Missing);
    if age > SimDuration::ZERO {
        q = q.worst(DataQuality::Stale { age });
    }
    if let Some(total_age) = q.age() {
        if total_age > missing_after {
            q = DataQuality::Missing;
        }
    }
    q
}

impl Collector for MultiCollector {
    fn set_obs(&mut self, obs: &remos_obs::Obs) {
        self.obs = obs.clone();
        self.metrics = MultiMetrics::new(obs);
        for c in &mut self.children {
            c.set_obs(obs);
        }
    }

    fn refresh_topology(&mut self) -> CoreResult<()> {
        // Failover: children whose region cannot be discovered right now
        // are tolerated as long as at least one child succeeds.
        let mut ok = 0usize;
        let mut first_err = None;
        for c in &mut self.children {
            match c.refresh_topology() {
                Ok(()) => ok += 1,
                Err(e) => {
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
            }
        }
        if ok == 0 {
            return Err(first_err.unwrap_or_else(|| {
                RemosError::Collector("multi-collector has no children".into())
            }));
        }
        self.rebuild_or_keep()
    }

    fn topology_epoch(&self) -> u64 {
        self.epoch
    }

    fn topology(&self) -> CoreResult<Arc<Topology>> {
        self.merged
            .as_ref()
            .map(|m| Arc::clone(&m.topo))
            .ok_or_else(|| RemosError::Collector("topology not discovered yet".into()))
    }

    fn poll(&mut self) -> CoreResult<bool> {
        if self.merged.is_none() {
            self.refresh_topology()?;
        }
        // Poll every child; a failing child only degrades its own region.
        // The poll as a whole errors only when *every* child errors.
        let mut any = false;
        let mut errors = 0usize;
        let mut first_err = None;
        for c in &mut self.children {
            match c.poll() {
                Ok(produced) => any |= produced,
                Err(e) => {
                    errors += 1;
                    first_err.get_or_insert(e);
                }
            }
        }
        self.metrics.shard_polls.add(self.children.len() as u64);
        if errors == self.children.len() {
            return Err(first_err.unwrap_or_else(|| {
                RemosError::Collector("multi-collector has no children".into())
            }));
        }
        if !any {
            return Ok(false);
        }
        // Disjoint field borrows: the merge mutates `merged`/`history`
        // while reading the children's sample histories.
        let MultiCollector { children, cfg, merged, history, obs, metrics, .. } = self;
        let Some(merged) = merged.as_mut() else {
            return Err(RemosError::Collector("topology not discovered yet".into()));
        };
        let t0 = obs.clock_nanos();
        // Merged time is the newest child sample; older child samples age
        // into Stale/Missing relative to it.
        let t = children
            .iter()
            .filter_map(|c| c.history().latest().map(|s| s.t))
            .max();
        let Some(t) = t else { return Ok(false) };
        let mut interval = SimDuration::ZERO;
        let mut dirty = 0u64;
        // Border entries are recomputed, so rewritten, on every merge.
        let border = !merged.shared.is_empty();
        let (mut wrote_util, mut wrote_quality) = (border, border);
        for (ci, c) in children.iter().enumerate() {
            let latest = c.history().latest();
            let gen = c.generation();
            let age = latest.map(|s| t.saturating_since(s.t));
            if let Some(s) = latest {
                interval = interval.max(s.interval);
            }
            // Util needs re-applying when the child produced (or dropped)
            // samples. Quality moves only with the child's quality plane
            // or its lag behind the merge time: the held plane cannot be
            // freed and reused, so an equal pointer means equal bits. A
            // plane not as wide as its util plane (topology drift) is
            // never vouched for.
            let util_dirty = cfg.force_full_merge || merged.applied_gen[ci] != Some(gen);
            let plane = latest.filter(|s| s.quality.len() == s.util.len()).map(|s| &s.quality);
            let same_plane = match (plane, &merged.applied_quality[ci]) {
                (Some(p), Some(held)) => Arc::ptr_eq(p, held),
                _ => latest.is_none(),
            };
            let quality_dirty =
                cfg.force_full_merge || merged.applied_age[ci] != age || !same_plane;
            dirty += u64::from(util_dirty);
            let runs = &merged.exclusive[ci];
            match latest {
                _ if !util_dirty && !quality_dirty => continue,
                // Values only: one copy per run. A single contributor's
                // sample goes through bit-exactly (a max against the 0.0
                // base would rewrite -0.0 and break bit-identity with a
                // monolithic collector).
                Some(snap)
                    if !quality_dirty
                        && runs.iter().all(|r| (r.child + r.len) as usize <= snap.util.len()) =>
                {
                    for r in runs {
                        let (c, m, len) = (r.child as usize, r.merged as usize, r.len as usize);
                        merged.util[m..m + len].copy_from_slice(&snap.util[c..c + len]);
                    }
                    wrote_util = true;
                }
                _ => {
                    for r in runs {
                        for k in 0..r.len {
                            let (c, m) = ((r.child + k) as usize, (r.merged + k) as usize);
                            (merged.util[m], merged.quality[m]) = match latest {
                                Some(s) if c < s.util.len() => {
                                    let age = t.saturating_since(s.t);
                                    (s.util[c], aged_quality(s, c, age, cfg.missing_after))
                                }
                                // No sample, or topology drift: reads as
                                // unmeasured, as a from-scratch merge
                                // leaves it.
                                _ => (0.0, DataQuality::Missing),
                            };
                        }
                    }
                    merged.applied_quality[ci] = plane.cloned();
                    (wrote_util, wrote_quality) = (true, true);
                }
            }
            merged.applied_gen[ci] = Some(gen);
            merged.applied_age[ci] = age;
        }
        // Border entries observed by several children: recompute from all
        // contributors (child order, matching a sequential merge).
        for e in &merged.shared {
            let mut u = 0.0f64;
            let mut q = DataQuality::Missing;
            for contrib in &e.contributors {
                let Some(snap) = children[contrib.child as usize].history().latest() else {
                    continue;
                };
                let idx = contrib.child_idx as usize;
                if idx >= snap.util.len() {
                    continue;
                }
                let age = t.saturating_since(snap.t);
                // Border links observed twice: keep the larger utilization
                // and the better-quality observation.
                u = u.max(snap.util[idx]);
                q = q.better(aged_quality(snap, idx, age, cfg.missing_after));
            }
            merged.util[e.merged_idx as usize] = u;
            merged.quality[e.merged_idx as usize] = q;
        }
        metrics.dirty_shards.observe(dirty);
        // Publish by identity: a plane the merge did not write is the
        // previous entry's, shared (that entry was published from the
        // merged buffers as they still stand), and costs the history
        // nothing. A written plane goes into the history's spare, the
        // plane the last publish displaced, when no one else holds it,
        // else into a new allocation.
        let n = merged.util.len();
        let prev = history.latest().filter(|s| s.util.len() == n && s.quality.len() == n);
        let kept_util = prev.filter(|_| !wrote_util).map(|s| Arc::clone(&s.util));
        let kept_quality = prev.filter(|_| !wrote_quality).map(|s| Arc::clone(&s.quality));
        if kept_util.is_some() && kept_quality.is_some() {
            metrics.publish_reused.inc();
        }
        let util = match kept_util {
            Some(u) => u,
            None => refill(history.take_spare_util(), &merged.util),
        };
        let quality = match kept_quality {
            Some(q) => q,
            None => refill(history.take_spare_quality(), &merged.quality),
        };
        history.push(Snapshot { t, interval, util, quality });
        if let (Some(t0), Some(t1)) = (t0, obs.clock_nanos()) {
            metrics.merge_ns.observe(t1.saturating_sub(t0));
        }
        Ok(true)
    }

    fn history(&self) -> &SampleHistory {
        &self.history
    }

    fn describe(&self) -> String {
        // A child is "current" when its latest sample is as new as the
        // newest across the federation — i.e. it is still producing data,
        // not being carried forward and aged toward Missing.
        let newest = self
            .children
            .iter()
            .filter_map(|c| c.history().latest().map(|s| s.t))
            .max();
        let current = match newest {
            Some(t) => self
                .children
                .iter()
                .filter(|c| c.history().latest().map(|s| s.t >= t).unwrap_or(false))
                .count(),
            None => 0,
        };
        format!("multi({current}/{} children current)", self.children.len())
    }

    fn now(&self) -> CoreResult<SimTime> {
        // First child that can tell the time wins (each child is already
        // robust to its own agents restarting).
        let mut first_err = None;
        for c in &self.children {
            match c.now() {
                Ok(t) => return Ok(t),
                Err(e) => {
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
            }
        }
        Err(first_err
            .unwrap_or_else(|| RemosError::Collector("no child collectors".into())))
    }
}
