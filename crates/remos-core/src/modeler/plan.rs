//! Epoch-keyed query-plan cache.
//!
//! Answering a graph or flow query splits into a structural half —
//! routing between the targets plus logicalization of the target set
//! (§4.3) — and a cheap per-query half that annotates the structure with
//! the currently selected utilization samples. The structural half is a
//! pure function of `(topology, target set)`, so it is computed once into
//! a [`QueryPlan`] and shared behind `Arc`s; a small bounded LRU
//! ([`PlanCache`]) keyed by `(topology_epoch, canonical target set)` lets
//! repeated queries skip it entirely. Routing depends on the topology
//! alone, so a plan is built over the topology's own [`Routing`] table,
//! the one the simulator fills while every link is up: a miss routes only
//! from targets nothing has routed from yet.
//!
//! Invalidation is epoch-based: every collector bumps its
//! `topology_epoch` on rediscovery, so a plan built under an older epoch
//! can never be looked up again. The epoch need not be a counter — a
//! federated `collector::multi::MultiCollector` reports a digest over
//! its per-child structure digests, so one shard's rediscovery leaves
//! the epoch (and every cached plan) untouched unless that child's
//! structure actually changed. As defense in depth the modeler also
//! rejects a hit whose topology `Arc` is not pointer-identical to the
//! collector's current one, so a collector that swaps its topology
//! without bumping the epoch falls back to a cold rebuild instead of
//! serving a stale plan.

use crate::error::{CoreResult, RemosError};
use crate::graph::{RemosGraph, RemosLink, RemosNode};
use crate::modeler::logical::{self, LogicalStructure};
use crate::quality::DataQuality;
use crate::stats::Quartiles;
use remos_net::routing::Routing;
use remos_net::topology::{NodeId, Topology};
use std::sync::Arc;

/// The reusable structural product of a query: everything about an
/// answer that does not depend on measurement samples.
pub struct QueryPlan {
    /// Topology epoch the plan was built under.
    pub epoch: u64,
    /// The physical topology the plan was derived from.
    pub topo: Arc<Topology>,
    /// Routes over `topo`, rows filled as sources are routed from: the
    /// topology's own table (private to the plan at capacity 0).
    pub routing: Arc<Routing>,
    /// Logical structure connecting the targets.
    pub structure: Arc<LogicalStructure>,
    /// Statically annotated logical graph (host resources from `topo`,
    /// availability = capacity): the flow solver's resource space.
    pub static_graph: Arc<RemosGraph>,
}

impl QueryPlan {
    /// Build a plan over `routing`, a table for `topo`: logicalization + static graph.
    pub fn build(
        epoch: u64,
        topo: Arc<Topology>,
        routing: Arc<Routing>,
        targets: &[NodeId],
    ) -> CoreResult<QueryPlan> {
        let structure = logical::logicalize(&topo, &routing, targets)?;
        let nodes = structure
            .nodes
            .iter()
            .map(|&nid| {
                let n = topo.node(nid);
                RemosNode {
                    name: n.name.clone(),
                    kind: n.kind,
                    internal_bw: n.internal_bw,
                    host: n.host,
                }
            })
            .collect();
        let links = structure
            .links
            .iter()
            .map(|spec| {
                Ok(RemosLink {
                    a: slot_of(&structure.nodes, spec.a)?,
                    b: slot_of(&structure.nodes, spec.b)?,
                    capacity: spec.capacity,
                    latency: spec.latency,
                    avail: [Quartiles::exact(spec.capacity), Quartiles::exact(spec.capacity)],
                    quality: [DataQuality::Fresh; 2],
                })
            })
            .collect::<CoreResult<Vec<_>>>()?;
        let static_graph = Arc::new(RemosGraph::new(nodes, links));
        Ok(QueryPlan {
            epoch,
            topo,
            routing,
            structure: Arc::new(structure),
            static_graph,
        })
    }

    /// Node-table slot of a retained physical node.
    pub fn node_slot(&self, nid: NodeId) -> CoreResult<usize> {
        slot_of(&self.structure.nodes, nid)
    }
}

/// Slot of `nid` in a structure's retained-node list, which is sorted.
fn slot_of(retained: &[NodeId], nid: NodeId) -> CoreResult<usize> {
    retained.binary_search(&nid).map_err(|_| {
        RemosError::Internal(format!("logical structure references unretained node {nid:?}"))
    })
}

/// Bounded LRU over [`QueryPlan`]s keyed by `(epoch, canonical targets)`.
///
/// Capacities are tiny (tens of plans), so the store is a flat `Vec`
/// with a logical tick for recency — deterministic and allocation-light.
pub struct PlanCache {
    cap: usize,
    tick: u64,
    entries: Vec<Entry>,
}

struct Entry {
    epoch: u64,
    targets: Vec<String>,
    plan: Arc<QueryPlan>,
    last_used: u64,
}

impl PlanCache {
    /// Cache holding at most `cap` plans (`0` disables storage).
    pub fn new(cap: usize) -> PlanCache {
        PlanCache { cap, tick: 0, entries: Vec::new() }
    }

    /// The routing table to build a plan over `topo` with: the topology's
    /// own ([`Topology::routing`]), which everything else routing over it
    /// with every link up shares — except at capacity 0, where every plan
    /// gets a fresh one, so the reference modeler shares no memo with the
    /// path under test.
    pub fn routing_for(&self, topo: &Topology) -> Arc<Routing> {
        if self.cap == 0 {
            Arc::new(Routing::new(topo))
        } else {
            Arc::clone(topo.routing())
        }
    }

    /// Look up a plan; refreshes its recency on hit.
    pub fn get(&mut self, epoch: u64, targets: &[String]) -> Option<Arc<QueryPlan>> {
        self.tick += 1;
        let tick = self.tick;
        let e = self
            .entries
            .iter_mut()
            .find(|e| e.epoch == epoch && e.targets.as_slice() == targets)?;
        e.last_used = tick;
        Some(Arc::clone(&e.plan))
    }

    /// Insert (or replace) a plan. Returns `true` if a resident entry
    /// was evicted to make room.
    pub fn insert(&mut self, epoch: u64, targets: Vec<String>, plan: Arc<QueryPlan>) -> bool {
        if self.cap == 0 {
            return false;
        }
        self.tick += 1;
        if let Some(e) = self
            .entries
            .iter_mut()
            .find(|e| e.epoch == epoch && e.targets == targets)
        {
            e.plan = plan;
            e.last_used = self.tick;
            return false;
        }
        let mut evicted = false;
        if self.entries.len() >= self.cap {
            // Evict the least-recently-used entry. Ticks are unique, so
            // the victim is deterministic.
            if let Some(i) = (0..self.entries.len()).min_by_key(|&i| self.entries[i].last_used) {
                self.entries.swap_remove(i);
                evicted = true;
            }
        }
        self.entries.push(Entry { epoch, targets, plan, last_used: self.tick });
        evicted
    }

    /// Number of resident plans.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use remos_net::{mbps, SimDuration, TopologyBuilder};

    fn tiny_plan(epoch: u64) -> Arc<QueryPlan> {
        let mut b = TopologyBuilder::new();
        let h1 = b.compute("h1");
        let h2 = b.compute("h2");
        b.link(h1, h2, mbps(10.0), SimDuration::from_micros(5)).unwrap();
        let topo = Arc::new(b.build().unwrap());
        let routing = Arc::new(Routing::new(&topo));
        Arc::new(QueryPlan::build(epoch, topo, routing, &[h1, h2]).unwrap())
    }

    fn key(names: &[&str]) -> Vec<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = PlanCache::new(2);
        let p = tiny_plan(0);
        assert!(!c.insert(0, key(&["a"]), Arc::clone(&p)));
        assert!(!c.insert(0, key(&["b"]), Arc::clone(&p)));
        // Touch "a" so "b" becomes the LRU victim.
        assert!(c.get(0, &key(&["a"])).is_some());
        assert!(c.insert(0, key(&["c"]), Arc::clone(&p)));
        assert!(c.get(0, &key(&["a"])).is_some());
        assert!(c.get(0, &key(&["b"])).is_none());
        assert!(c.get(0, &key(&["c"])).is_some());
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn epoch_is_part_of_the_key() {
        let mut c = PlanCache::new(4);
        let p = tiny_plan(0);
        c.insert(0, key(&["a"]), Arc::clone(&p));
        assert!(c.get(1, &key(&["a"])).is_none());
        assert!(c.get(0, &key(&["a"])).is_some());
    }

    #[test]
    fn zero_capacity_stores_nothing() {
        let mut c = PlanCache::new(0);
        let p = tiny_plan(0);
        assert!(!c.insert(0, key(&["a"]), p));
        assert!(c.get(0, &key(&["a"])).is_none());
        assert!(c.is_empty());
    }
}
