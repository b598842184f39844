//! Shortest-path routing.
//!
//! Routes minimise `(hop count, total latency, tie-break by node id)` —
//! the testbed's behaviour, where "latency between any pair of nodes is
//! virtually the same" and hop count dominates. Compute nodes never
//! forward traffic (§4.3: network nodes are responsible for forwarding),
//! so interior path nodes must be network nodes.
//!
//! A source's routes are computed the first time something routes from
//! it. A host forwards only as a source, so a host whose only link leads
//! to a network node reaches everything through that access switch,
//! in the switch's order: its tree is the switch's row plus one hop, and
//! it fills no row of its own ([`Routing::tree`]). A [`Topology`] owns
//! its all-links-up table ([`Topology::routing`]); the engine (while no
//! link is down), the what-if kernel, the SNMP `ipRouteTable` walk and
//! the modeler all route over it, so each row is filled once between
//! them. A row is a pure function of its inputs, so sharing a table only
//! shares the work.
//!
//! Every link costs exactly one hop and hop count is the first key, so a
//! row settles one hop layer at a time: the nodes first reached at
//! `h + 1` hops are sorted by `(latency, node id)` once layer `h` is
//! expanded, which is the order a Dijkstra heap on `(hops, latency, node
//! id)` would pop them in, and the first strict improvement wins as it
//! would there. The relaxations read the topology's packed routing
//! adjacency, not its `Link` and `Node` structs. Path latencies saturate
//! at `u64::MAX` nanoseconds instead of wrapping. The table is
//! deterministic, which keeps whole-simulation runs reproducible.

use crate::error::{NetError, Result};
use crate::topology::{DirLink, LinkId, NodeId, NodeKind, Topology};
use std::cell::RefCell;
use std::sync::OnceLock;

/// A routed path between two compute nodes.
#[derive(Clone, Debug, PartialEq)]
pub struct Path {
    /// Source compute node.
    pub src: NodeId,
    /// Destination compute node.
    pub dst: NodeId,
    /// The directed interfaces traversed, in order.
    pub hops: Vec<DirLink>,
    /// Every node visited, starting with `src` and ending with `dst`.
    pub nodes: Vec<NodeId>,
}

impl Path {
    /// Number of links traversed.
    #[inline]
    pub fn hop_count(&self) -> usize {
        self.hops.len()
    }

    /// Total one-way latency along the path, saturating at `u64::MAX`
    /// nanoseconds.
    pub fn latency(&self, topo: &Topology) -> crate::time::SimDuration {
        let mut total = crate::time::SimDuration::ZERO;
        for h in &self.hops {
            total = total.saturating_add(topo.link(h.link).latency);
        }
        total
    }

    /// The static bottleneck capacity (minimum link capacity on the path).
    pub fn capacity(&self, topo: &Topology) -> f64 {
        self.hops
            .iter()
            .map(|h| topo.link(h.link).capacity)
            .fold(f64::INFINITY, f64::min)
    }

    /// Stable resource indices of the directed interfaces traversed, in
    /// hop order (see [`DirLink::index`]). These index the leading prefix
    /// of the simulator's capacity vector.
    pub fn dirlink_indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.hops.iter().map(|h| h.index())
    }

    /// Interior (forwarding) nodes of the path — every node except the two
    /// endpoints. These are the nodes whose backplanes, when capped,
    /// contribute extra capacity resources.
    pub fn interior_nodes(&self) -> &[NodeId] {
        match self.nodes.len() {
            0..=2 => &[],
            n => &self.nodes[1..n - 1],
        }
    }
}

/// Sentinel in a predecessor row: the node is the source itself or is
/// unreachable from it.
const NO_PREV: u32 = u32::MAX;

/// Rows allocated at a time. The engine walks every flow's path buffers
/// each step: a 5 KB row on the heap between each two of them slowed
/// that walk by a quarter on the k=16 fabric, a batch every 32 does not.
const ROW_BATCH: usize = 32;

/// Working state of a row fill, reused by every row a thread fills: the
/// best distances and two hop layers.
#[derive(Default)]
struct Scratch {
    /// Best `(hops, latency ns)` found so far, per node.
    dist: Vec<(u32, u64)>,
    /// The forwarding nodes settled at the current hop count, in
    /// `(latency, node id)` order.
    layer: Vec<NodeId>,
    /// The forwarding nodes first reached at one hop more.
    next: Vec<NodeId>,
    /// Rows of [`NO_PREV`] allocated ahead, all of one length.
    blank: Vec<Box<[u32]>>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

/// Routing table over one topology and link state, each row filled on
/// first use: one per network node, and one per host that is not
/// single-homed. A single-homed host routes from its access switch's row.
///
/// A row is a pure function of `(topology, link state, source)`, so
/// which caller fills it, in what order and on which thread cannot show
/// in any route; sharing a table only shares the work. The all-links-up
/// table of a topology is [`Topology::routing`]; [`Routing::new`] makes a
/// private one, which shares nothing.
#[derive(Clone, Debug)]
pub struct Routing {
    /// `rows[src][node]` = id of the link taken to reach `node` from its
    /// predecessor on the best path from `src`; [`NO_PREV`] if none.
    rows: Vec<OnceLock<Box<[u32]>>>,
    /// `up[l]` false: link `l` is down. `None`: everything is up.
    up: Option<Box<[bool]>>,
}

/// One source's shortest-path tree, borrowed from its [`Routing`]: the
/// row of `via`, read with `src` and `via` swapped. `via` is `src` for a
/// source with a row of its own, and the access switch of a single-homed
/// host, whose row holds that host's access link at `src` and nothing at
/// `via` itself — exactly the host's predecessors at `via` and `src`.
#[derive(Clone, Copy, Debug)]
pub struct Tree<'a> {
    row: &'a [u32],
    src: NodeId,
    via: NodeId,
}

impl Tree<'_> {
    /// The link `node` is reached over on the best path from the source:
    /// `None` for the source itself and for nodes it cannot reach
    /// (respecting the no-forwarding rule for hosts).
    #[inline]
    pub fn prev(self, node: NodeId) -> Option<LinkId> {
        let swap = if node == self.src || node == self.via { self.src.0 ^ self.via.0 } else { 0 };
        let raw = *self.row.get((node.0 ^ swap) as usize)?;
        (raw != NO_PREV).then_some(LinkId(raw))
    }
}

impl Routing {
    /// Route over `topo` with all links up. Computes nothing yet.
    pub fn new(topo: &Topology) -> Routing {
        Self::with_link_state(topo, None)
    }

    /// Route honoring link state: `up[l]` false means link `l` is down
    /// and carries no routes. `None` means everything is up.
    pub fn with_link_state(topo: &Topology, up: Option<&[bool]>) -> Routing {
        debug_assert!(up.is_none_or(|up| up.len() == topo.link_count()));
        Routing { up: up.map(Box::from), ..Self::with_rows(topo.node_count()) }
    }

    /// An empty all-links-up table for a topology of `nodes` nodes (the
    /// one [`Topology::routing`] hands out).
    pub(crate) fn with_rows(nodes: usize) -> Routing {
        Routing { rows: vec![OnceLock::new(); nodes], up: None }
    }

    /// Number of rows filled so far: one per source routed from, but one
    /// for a switch and all the single-homed hosts behind it.
    pub fn rows_built(&self) -> usize {
        self.rows.iter().filter(|r| r.get().is_some()).count()
    }

    /// The shortest-path tree rooted at `src` (any node, routers
    /// included), computed on first use. `topo` must be the topology the
    /// table was built over.
    ///
    /// A host forwards only as a source, so one whose only link leads to
    /// a forwarding node `e` routes as `e` does, one hop and one link
    /// latency further out: while no path latency can saturate that shift
    /// keeps every `(hops, latency, id)` comparison and layer order, and
    /// the host's tree is `e`'s row. If that link is down the host
    /// reaches nothing and fills no row.
    pub fn tree(&self, topo: &Topology, src: NodeId) -> Result<Tree<'_>> {
        if src.index() >= self.rows.len() || topo.node_count() != self.rows.len() {
            return Err(NetError::Internal(format!("no routing row for {src:?}")));
        }
        let via = match topo.access(src) {
            Some((link, e)) if self.up.as_deref().is_none_or(|up| up[link as usize]) => e,
            Some(_) => return Ok(Tree { row: &[], src, via: src }),
            None => src,
        };
        let row = self.rows[via.index()]
            .get_or_init(|| SCRATCH.with_borrow_mut(|s| self.fill(topo, via, s)));
        Ok(Tree { row, src, via })
    }

    /// Shortest paths from `src`, one hop layer at a time: its
    /// predecessor row.
    fn fill(&self, topo: &Topology, src: NodeId, scratch: &mut Scratch) -> Box<[u32]> {
        let Scratch { dist, layer, next, blank } = scratch;
        let n = topo.node_count();
        let mut prev = match blank.pop() {
            Some(row) if row.len() == n => row,
            _ => {
                blank.clear();
                blank.resize(ROW_BATCH - 1, vec![NO_PREV; n].into_boxed_slice());
                vec![NO_PREV; n].into_boxed_slice()
            }
        };
        dist.clear();
        dist.resize(n, (u32::MAX, u64::MAX));
        dist[src.index()] = (0, 0);
        layer.clear();
        layer.push(src);
        let up = self.up.as_deref();
        let mut hops = 0;
        while !layer.is_empty() {
            next.clear();
            for &node in layer.iter() {
                let latency_ns = dist[node.index()].1;
                for edge in topo.route_edges(node) {
                    if up.is_some_and(|up| !up[edge.link as usize]) {
                        continue;
                    }
                    let cand = (hops + 1, latency_ns.saturating_add(edge.latency_ns));
                    let best = &mut dist[edge.next.index()];
                    if cand < *best {
                        // Hosts terminate paths: only the source host and
                        // network nodes forward, so no other host is
                        // expanded. A node joins the next layer once.
                        if edge.forwards && best.0 != cand.0 {
                            next.push(edge.next);
                        }
                        *best = cand;
                        prev[edge.next.index()] = edge.link;
                    }
                }
            }
            // Only layer `hops` relaxes nodes at `hops + 1`, so their
            // latencies are final now: expand them in heap order.
            next.sort_unstable_by_key(|&v| (dist[v.index()].1, v));
            std::mem::swap(layer, next);
            hops += 1;
        }
        prev
    }

    /// True if `dst` is reachable from `src` (respecting the no-forwarding
    /// rule for hosts).
    pub fn reachable(&self, topo: &Topology, src: NodeId, dst: NodeId) -> bool {
        src == dst || self.tree(topo, src).is_ok_and(|t| t.prev(dst).is_some())
    }

    /// First hop out of `src` toward `dst`: `(link, next node)`. `None`
    /// when unreachable or `src == dst`. Works for *any* source node
    /// (including routers) — the data behind `ipRouteTable` entries.
    pub fn next_hop(&self, topo: &Topology, src: NodeId, dst: NodeId) -> Option<(LinkId, NodeId)> {
        let tree = self.tree(topo, src).ok()?;
        let mut cur = dst;
        loop {
            let link = tree.prev(cur)?;
            let from = topo.link(link).opposite(cur);
            if from == src {
                return Some((link, cur));
            }
            cur = from;
        }
    }

    /// The routed path from `src` to `dst`.
    ///
    /// Both endpoints must be compute nodes; errors with
    /// [`NetError::NoRoute`] if disconnected.
    pub fn path(&self, topo: &Topology, src: NodeId, dst: NodeId) -> Result<Path> {
        let mut path = Path { src, dst, hops: Vec::new(), nodes: Vec::new() };
        self.path_into(topo, src, dst, &mut path)?;
        Ok(path)
    }

    /// Write the routed path from `src` to `dst` into `out`, reusing its
    /// hop and node buffers (the allocation-free variant of
    /// [`path`](Self::path) the engine's steady-state flow admission uses
    /// once `src`'s row exists). On error `out` is left cleared.
    pub fn path_into(
        &self,
        topo: &Topology,
        src: NodeId,
        dst: NodeId,
        out: &mut Path,
    ) -> Result<()> {
        out.src = src;
        out.dst = dst;
        out.hops.clear();
        out.nodes.clear();
        topo.try_node(src)?;
        topo.try_node(dst)?;
        if topo.node(src).kind != NodeKind::Compute {
            return Err(NetError::NotComputeNode(src));
        }
        if topo.node(dst).kind != NodeKind::Compute {
            return Err(NetError::NotComputeNode(dst));
        }
        if src == dst {
            out.nodes.push(src);
            return Ok(());
        }
        let tree = self.tree(topo, src)?;
        if tree.prev(dst).is_none() {
            return Err(NetError::NoRoute { src, dst });
        }
        // Walk predecessors dst -> src, then reverse in place.
        out.nodes.push(dst);
        let mut cur = dst;
        while cur != src {
            let link = tree.prev(cur)
                .ok_or_else(|| NetError::Internal(format!("routing row broken at {cur:?}")))?;
            let l = topo.link(link);
            let from = l.opposite(cur);
            out.hops.push(DirLink { link, dir: l.direction_from(from) });
            out.nodes.push(from);
            cur = from;
        }
        out.hops.reverse();
        out.nodes.reverse();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;
    use crate::time::SimDuration;
    use crate::topology::TopologyBuilder;
    use crate::units::mbps;
    use remos_prop::prelude::*;
    use std::collections::BinaryHeap;
    use std::sync::Barrier;

    /// Line: h1 - r1 - r2 - h2, plus a slow shortcut h1 - r2.
    fn line_with_shortcut() -> (Topology, NodeId, NodeId) {
        let mut b = TopologyBuilder::new();
        let h1 = b.compute("h1");
        let h2 = b.compute("h2");
        let r1 = b.network("r1");
        let r2 = b.network("r2");
        let lat = SimDuration::from_micros(100);
        b.link(h1, r1, mbps(100.0), lat).unwrap();
        b.link(r1, r2, mbps(100.0), lat).unwrap();
        b.link(r2, h2, mbps(100.0), lat).unwrap();
        (b.build().unwrap(), h1, h2)
    }

    #[test]
    fn shortest_path_line() {
        let (t, h1, h2) = line_with_shortcut();
        let r = Routing::new(&t);
        let p = r.path(&t, h1, h2).unwrap();
        assert_eq!(p.hop_count(), 3);
        assert_eq!(p.nodes.len(), 4);
        assert_eq!(p.nodes[0], h1);
        assert_eq!(*p.nodes.last().unwrap(), h2);
        assert_eq!(p.latency(&t), SimDuration::from_micros(300));
        assert_eq!(p.capacity(&t), mbps(100.0));
    }

    #[test]
    fn trivial_path() {
        let (t, h1, _) = line_with_shortcut();
        let r = Routing::new(&t);
        let p = r.path(&t, h1, h1).unwrap();
        assert_eq!(p.hop_count(), 0);
        assert_eq!(p.nodes, vec![h1]);
    }

    #[test]
    fn hosts_do_not_forward() {
        // h1 - h2 - h3 chain: h1 cannot reach h3 through host h2.
        let mut b = TopologyBuilder::new();
        let h1 = b.compute("h1");
        let h2 = b.compute("h2");
        let h3 = b.compute("h3");
        b.link(h1, h2, mbps(100.0), SimDuration::ZERO).unwrap();
        b.link(h2, h3, mbps(100.0), SimDuration::ZERO).unwrap();
        let t = b.build().unwrap();
        let r = Routing::new(&t);
        assert!(r.path(&t, h1, h2).is_ok());
        assert!(matches!(
            r.path(&t, h1, h3),
            Err(NetError::NoRoute { .. })
        ));
    }

    #[test]
    fn network_endpoint_rejected() {
        let (t, h1, _) = line_with_shortcut();
        let r = Routing::new(&t);
        let r1 = t.lookup("r1").unwrap();
        assert!(matches!(
            r.path(&t, h1, r1),
            Err(NetError::NotComputeNode(_))
        ));
    }

    #[test]
    fn prefers_fewer_hops_over_latency() {
        // Two routes h1->h2: via r1 (2 hops, high latency) or via r2-r3
        // (3 hops, tiny latency). Hop count wins.
        let mut b = TopologyBuilder::new();
        let h1 = b.compute("h1");
        let h2 = b.compute("h2");
        let r1 = b.network("r1");
        let r2 = b.network("r2");
        let r3 = b.network("r3");
        let slow = SimDuration::from_millis(10);
        let fast = SimDuration::from_nanos(1);
        b.link(h1, r1, mbps(100.0), slow).unwrap();
        b.link(r1, h2, mbps(100.0), slow).unwrap();
        b.link(h1, r2, mbps(100.0), fast).unwrap();
        b.link(r2, r3, mbps(100.0), fast).unwrap();
        b.link(r3, h2, mbps(100.0), fast).unwrap();
        let t = b.build().unwrap();
        let routing = Routing::new(&t);
        let p = routing.path(&t, h1, h2).unwrap();
        assert_eq!(p.hop_count(), 2);
        assert!(p.nodes.contains(&r1));
    }

    #[test]
    fn prefers_lower_latency_at_equal_hops() {
        let mut b = TopologyBuilder::new();
        let h1 = b.compute("h1");
        let h2 = b.compute("h2");
        let fast = b.network("fast");
        let slow = b.network("slow");
        b.link(h1, slow, mbps(100.0), SimDuration::from_millis(5)).unwrap();
        b.link(slow, h2, mbps(100.0), SimDuration::from_millis(5)).unwrap();
        b.link(h1, fast, mbps(100.0), SimDuration::from_micros(1)).unwrap();
        b.link(fast, h2, mbps(100.0), SimDuration::from_micros(1)).unwrap();
        let t = b.build().unwrap();
        let routing = Routing::new(&t);
        let p = routing.path(&t, h1, h2).unwrap();
        assert!(p.nodes.contains(&fast));
        assert!(!p.nodes.contains(&slow));
    }

    #[test]
    fn next_hop_from_any_node() {
        let (t, h1, h2) = line_with_shortcut();
        let r = Routing::new(&t);
        let r1 = t.lookup("r1").unwrap();
        let r2 = t.lookup("r2").unwrap();
        // From the host: first hop is its access link toward r1.
        let (_, next) = r.next_hop(&t, h1, h2).unwrap();
        assert_eq!(next, r1);
        // From a router: toward h2 via r2.
        let (_, next) = r.next_hop(&t, r1, h2).unwrap();
        assert_eq!(next, r2);
        // Direct neighbor.
        let (_, next) = r.next_hop(&t, r2, h2).unwrap();
        assert_eq!(next, h2);
        // Degenerate cases.
        assert!(r.next_hop(&t, h1, h1).is_none());
    }

    #[test]
    fn path_direction_consistency() {
        let (t, h1, h2) = line_with_shortcut();
        let r = Routing::new(&t);
        let p = r.path(&t, h1, h2).unwrap();
        // Each hop must leave the node we are currently at.
        let mut at = h1;
        for hop in &p.hops {
            let l = t.link(hop.link);
            assert_eq!(l.tail(hop.dir), at);
            at = l.head(hop.dir);
        }
        assert_eq!(at, h2);
    }

    #[test]
    fn link_state_reroutes_and_disconnects() {
        // h1 - r1 - h2 with a backup path h1 - r2 - r3 - h2.
        let mut b = TopologyBuilder::new();
        let h1 = b.compute("h1");
        let h2 = b.compute("h2");
        let r1 = b.network("r1");
        let r2 = b.network("r2");
        let r3 = b.network("r3");
        let lat = SimDuration::from_micros(10);
        let l_a = b.link(h1, r1, mbps(100.0), lat).unwrap();
        b.link(r1, h2, mbps(100.0), lat).unwrap();
        b.link(h1, r2, mbps(100.0), lat).unwrap();
        b.link(r2, r3, mbps(100.0), lat).unwrap();
        b.link(r3, h2, mbps(100.0), lat).unwrap();
        let t = b.build().unwrap();

        let mut up = vec![true; t.link_count()];
        let all_up = Routing::with_link_state(&t, Some(&up));
        assert_eq!(all_up.path(&t, h1, h2).unwrap().hop_count(), 2);

        // Primary access link down: the 3-hop backup is used.
        up[l_a.index()] = false;
        let degraded = Routing::with_link_state(&t, Some(&up));
        let p = degraded.path(&t, h1, h2).unwrap();
        assert_eq!(p.hop_count(), 3);
        assert!(p.nodes.contains(&r2));

        // Backup down too: disconnected.
        up[2] = false; // h1 - r2
        let cut = Routing::with_link_state(&t, Some(&up));
        assert!(matches!(cut.path(&t, h1, h2), Err(NetError::NoRoute { .. })));
    }

    #[test]
    fn reverse_path_mirrors_forward() {
        let (t, h1, h2) = line_with_shortcut();
        let r = Routing::new(&t);
        let fwd = r.path(&t, h1, h2).unwrap();
        let rev = r.path(&t, h2, h1).unwrap();
        assert_eq!(fwd.hop_count(), rev.hop_count());
        let mut rn = rev.nodes.clone();
        rn.reverse();
        assert_eq!(fwd.nodes, rn);
    }

    /// The eager all-sources table this module built before rows became
    /// lazy — two flat `src * n + node` arrays filled by a Dijkstra that
    /// pushes every relaxed node and skips hosts when popped — with its
    /// builder and ordering kept verbatim: the reference the lazy rows
    /// are compared against.
    struct Eager {
        n: usize,
        prev: Vec<u32>,
        reachable: Vec<bool>,
    }

    #[derive(PartialEq, Eq)]
    struct HeapEntry {
        hops: u32,
        latency_ns: u64,
        node: NodeId,
    }

    impl Ord for HeapEntry {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            // BinaryHeap is a max-heap: invert so the smallest cost pops first.
            (other.hops, other.latency_ns, other.node)
                .cmp(&(self.hops, self.latency_ns, self.node))
        }
    }

    impl PartialOrd for HeapEntry {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    impl Eager {
        fn build(topo: &Topology, up: Option<&[bool]>) -> Eager {
            let n = topo.node_count();
            let mut table =
                Eager { n, prev: vec![NO_PREV; n * n], reachable: vec![false; n * n] };
            let mut dist = vec![(u32::MAX, u64::MAX); n];
            let mut done = vec![false; n];
            let mut heap = BinaryHeap::new();
            for src in topo.node_ids() {
                let row = src.index() * n;
                let prev = &mut table.prev[row..row + n];
                dist.fill((u32::MAX, u64::MAX));
                done.fill(false);
                heap.clear();
                dist[src.index()] = (0, 0);
                heap.push(HeapEntry { hops: 0, latency_ns: 0, node: src });
                while let Some(HeapEntry { hops, latency_ns, node }) = heap.pop() {
                    if done[node.index()] {
                        continue;
                    }
                    done[node.index()] = true;
                    if node != src && topo.node(node).kind == NodeKind::Compute {
                        continue;
                    }
                    for &(link, next) in topo.neighbors(node) {
                        if done[next.index()] {
                            continue;
                        }
                        if let Some(up) = up {
                            if !up[link.index()] {
                                continue;
                            }
                        }
                        let l = topo.link(link);
                        let cand = (hops + 1, latency_ns.saturating_add(l.latency.as_nanos()));
                        if cand < dist[next.index()] {
                            dist[next.index()] = cand;
                            prev[next.index()] = link.index() as u32;
                            heap.push(HeapEntry { hops: cand.0, latency_ns: cand.1, node: next });
                        }
                    }
                }
                for (i, &(h, _)) in dist.iter().enumerate() {
                    table.reachable[row + i] = h != u32::MAX;
                }
            }
            table
        }

        fn reachable(&self, src: NodeId, dst: NodeId) -> bool {
            self.reachable[src.index() * self.n + dst.index()]
        }

        /// The route `src -> dst` read off the flat table: every
        /// `(link, node it leaves)` hop, in travel order.
        fn hops(&self, topo: &Topology, src: NodeId, dst: NodeId) -> Option<Vec<(LinkId, NodeId)>> {
            let mut hops = Vec::new();
            let mut cur = dst;
            while self.reachable(src, dst) && cur != src {
                let link = LinkId(self.prev[src.index() * self.n + cur.index()]);
                cur = topo.link(link).opposite(cur);
                hops.push((link, cur));
            }
            hops.reverse();
            self.reachable(src, dst).then_some(hops)
        }

        fn next_hop(&self, topo: &Topology, src: NodeId, dst: NodeId) -> Option<(LinkId, NodeId)> {
            let (link, _) = *self.hops(topo, src, dst)?.first()?;
            Some((link, topo.link(link).opposite(src)))
        }

        fn path(&self, topo: &Topology, src: NodeId, dst: NodeId) -> Result<Path> {
            if let Some(&n) = [src, dst].iter().find(|&&n| topo.node(n).kind != NodeKind::Compute) {
                return Err(NetError::NotComputeNode(n));
            }
            let hops = self.hops(topo, src, dst).ok_or(NetError::NoRoute { src, dst })?;
            let mut path = empty_path(src, dst);
            for &(link, from) in &hops {
                path.hops.push(DirLink { link, dir: topo.link(link).direction_from(from) });
                path.nodes.push(from);
            }
            path.nodes.push(dst);
            Ok(path)
        }
    }

    fn empty_path(src: NodeId, dst: NodeId) -> Path {
        Path { src, dst, hops: Vec::new(), nodes: Vec::new() }
    }

    /// A random network of routers and hosts in interleaved id order:
    /// a sparse router mesh with parallel links, hosts with zero to three
    /// uplinks, the odd host-to-host link, three latency classes (so hop
    /// ties and latency ties both occur) — and, half the time, a link
    /// mask that takes a fifth of the links down, which disconnects some
    /// pairs.
    fn random_net(seed: u64) -> (Topology, Option<Vec<bool>>) {
        let mut rng = Rng::seed_from_u64(seed);
        let mut b = TopologyBuilder::new();
        let (mut routers, mut hosts) = (Vec::new(), Vec::new());
        for i in 0..rng.gen_range(3..20usize) {
            if i == 0 || rng.gen_bool(0.4) {
                routers.push(b.network(&format!("r{i}")));
            } else {
                hosts.push(b.compute(&format!("h{i}")));
            }
        }
        let link = |b: &mut TopologyBuilder, rng: &mut Rng, x: NodeId, y: NodeId| {
            let lat = SimDuration::from_micros([10, 10, 25][rng.gen_range(0..3usize)]);
            b.link(x, y, mbps(100.0), lat).unwrap();
        };
        for i in 0..routers.len() {
            for j in 0..i {
                for _ in 0..2 {
                    if rng.gen_bool(0.35) {
                        link(&mut b, &mut rng, routers[i], routers[j]);
                    }
                }
            }
        }
        for (i, &h) in hosts.iter().enumerate() {
            for _ in 0..rng.gen_range(0..4usize) {
                let r = routers[rng.gen_range(0..routers.len())];
                link(&mut b, &mut rng, h, r);
            }
            if i > 0 && rng.gen_bool(0.2) {
                let peer = hosts[rng.gen_range(0..i)];
                link(&mut b, &mut rng, h, peer);
            }
        }
        let topo = b.build().unwrap();
        let up = rng
            .gen_bool(0.5)
            .then(|| (0..topo.link_count()).map(|_| rng.gen_bool(0.8)).collect());
        (topo, up)
    }

    /// The sources whose rows routing from every node fills: a host whose
    /// only link leads to a network node routes from that node's row, or
    /// from none if the link is down; every other node from its own.
    fn row_roots(topo: &Topology, up: Option<&[bool]>) -> std::collections::BTreeSet<NodeId> {
        let fits = topo
            .link_ids()
            .try_fold(0u64, |sum, l| sum.checked_add(topo.link(l).latency.as_nanos()))
            .is_some();
        let network = |n: NodeId| topo.node(n).kind == NodeKind::Network;
        topo.node_ids()
            .filter_map(|n| match topo.neighbors(n) {
                &[(l, e)] if fits && !network(n) && network(e) => {
                    up.is_none_or(|up| up[l.index()]).then_some(e)
                }
                _ => Some(n),
            })
            .collect()
    }

    /// Every answer `lazy` gives about each of `pairs` equals the eager
    /// table's; one path buffer is reused, dirty, from pair to pair.
    fn agree<'a>(
        topo: &Topology,
        eager: &Eager,
        lazy: &Routing,
        pairs: impl Iterator<Item = &'a (NodeId, NodeId)>,
    ) -> std::result::Result<(), String> {
        let mut buf = empty_path(NodeId(0), NodeId(0));
        for &(src, dst) in pairs {
            prop_assert_eq!(lazy.reachable(topo, src, dst), eager.reachable(src, dst));
            prop_assert_eq!(lazy.next_hop(topo, src, dst), eager.next_hop(topo, src, dst));
            let want = eager.path(topo, src, dst);
            prop_assert_eq!(&lazy.path(topo, src, dst), &want, "{src:?}->{dst:?}");
            let got = lazy.path_into(topo, src, dst, &mut buf).map(|()| buf.clone());
            prop_assert_eq!(&got, &want, "path_into {src:?}->{dst:?}");
            prop_assert!(got.is_ok() || buf == empty_path(src, dst), "error left a path behind");
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Rows first touched in a random pair order, rows first touched
        /// by four threads racing from a barrier, and a clone of a filled
        /// table all answer exactly like the eager table: routes, next
        /// hops (from routers too), reachability and the `NoRoute` /
        /// `NotComputeNode` errors.
        #[test]
        fn lazy_rows_match_the_eager_table(seed in 0u64..1_000_000) {
            let (topo, up) = random_net(seed);
            let eager = Eager::build(&topo, up.as_deref());
            let mut pairs: Vec<(NodeId, NodeId)> = topo
                .node_ids()
                .flat_map(|s| topo.node_ids().map(move |d| (s, d)))
                .collect();
            let mut rng = Rng::seed_from_u64(seed ^ 0xfeed);
            for i in (1..pairs.len()).rev() {
                pairs.swap(i, rng.gen_range(0..i + 1));
            }

            let rows = row_roots(&topo, up.as_deref()).len();
            let lazy = Routing::with_link_state(&topo, up.as_deref());
            prop_assert_eq!(lazy.rows_built(), 0);
            agree(&topo, &eager, &lazy, pairs.iter())?;
            prop_assert_eq!(lazy.rows_built(), rows);

            let raced = Routing::with_link_state(&topo, up.as_deref());
            let start = Barrier::new(4);
            let (pairs, n) = (&pairs, pairs.len());
            let outcomes: Vec<std::result::Result<(), String>> = std::thread::scope(|scope| {
                let workers: Vec<_> = (0..4)
                    .map(|quarter| {
                        let (topo, eager, raced, start) = (&topo, &eager, &raced, &start);
                        scope.spawn(move || {
                            start.wait();
                            // Each thread starts a quarter further into `pairs`.
                            let from = pairs.iter().cycle().skip(quarter * n / 4);
                            agree(topo, eager, raced, from.take(n))
                        })
                    })
                    .collect();
                workers.into_iter().map(|w| w.join().expect("worker panicked")).collect()
            });
            for outcome in outcomes {
                outcome?;
            }
            prop_assert_eq!(raced.rows_built(), rows);
            agree(&topo, &eager, &raced.clone(), pairs.iter())?;
        }
    }

    /// Every row of `lazy`, routers' included, equals the eager table's,
    /// predecessor for predecessor.
    fn rows_agree(topo: &Topology, eager: &Eager, lazy: &Routing) {
        for src in topo.node_ids() {
            let tree = lazy.tree(topo, src).unwrap();
            for node in topo.node_ids() {
                let want = eager.prev[src.index() * eager.n + node.index()];
                let want = (want != NO_PREV).then_some(LinkId(want));
                assert_eq!(tree.prev(node), want, "{src:?}->{node:?}");
            }
        }
    }

    /// The fat-tree's links are all of one latency, so the node-id
    /// tie-break picks every predecessor, across up to six hop layers:
    /// with every link up, and with one aggregation-core and one
    /// edge-aggregation link down.
    #[test]
    fn fat_tree_rows_match_the_eager_table() {
        for k in [4, 8] {
            let tree = crate::fabric::FatTree::build(k).unwrap();
            let topo = tree.topology();
            let between = |a: &str, b: &str| {
                let (a, b) = (topo.lookup(a).unwrap(), topo.lookup(b).unwrap());
                topo.neighbors(a).iter().find(|&&(_, n)| n == b).unwrap().0
            };
            let mut up = vec![true; topo.link_count()];
            up[between("p0a0", "c0x0").index()] = false;
            up[between("p1e0", "p1a1").index()] = false;
            for up in [None, Some(&up[..])] {
                let eager = Eager::build(topo, up);
                let lazy = Routing::with_link_state(topo, up);
                rows_agree(topo, &eager, &lazy);
                let hosts = tree.hosts();
                let pairs: Vec<_> =
                    hosts.iter().flat_map(|&s| hosts.iter().map(move |&d| (s, d))).collect();
                agree(topo, &eager, &lazy, pairs.iter()).unwrap();
            }
        }
    }

    /// Path latencies add without overflow: a path whose sum exceeds
    /// `u64` nanoseconds saturates, so it loses to a short one of the same
    /// hop count instead of wrapping around to beat it.
    #[test]
    fn latency_sums_saturate_instead_of_wrapping() {
        let mut b = TopologyBuilder::new();
        let h1 = b.compute("h1");
        let h2 = b.compute("h2");
        let far = b.network("far");
        let near = b.network("near");
        // 1.8e19 ns + 4.47e17 ns is 384 ns past `u64::MAX`.
        b.link(h1, far, mbps(100.0), SimDuration::from_micros(18_000_000_000_000_000)).unwrap();
        b.link(far, h2, mbps(100.0), SimDuration::from_micros(446_744_073_709_552)).unwrap();
        b.link(h1, near, mbps(100.0), SimDuration::from_micros(1)).unwrap();
        b.link(near, h2, mbps(100.0), SimDuration::from_micros(1)).unwrap();
        let t = b.build().unwrap();
        let p = Routing::new(&t).path(&t, h1, h2).unwrap();
        assert_eq!(p.nodes, vec![h1, near, h2]);
        let p = Routing::new(&t).path(&t, h2, h1).unwrap();
        assert_eq!(p.nodes, vec![h2, near, h1]);
    }

    /// The edge switches' rows hold every host's tree: each host of a
    /// k=4 and a k=8 fabric routes exactly as the eager table says while
    /// routing from all of them fills only the k²/2 edge rows. A host
    /// whose one link is down reaches nothing and fills no row, and a host
    /// with two links keeps a row of its own, with both up or one down.
    #[test]
    fn single_homed_hosts_route_through_their_switch_row() {
        for k in [4, 8] {
            let tree = crate::fabric::FatTree::build(k).unwrap();
            let topo = tree.topology();
            let eager = Eager::build(topo, None);
            let lazy = Routing::new(topo);
            for &src in tree.hosts() {
                let row = lazy.tree(topo, src).unwrap();
                for node in topo.node_ids() {
                    let want = eager.prev[src.index() * eager.n + node.index()];
                    assert_eq!(row.prev(node), (want != NO_PREV).then_some(LinkId(want)));
                }
            }
            let filled: Vec<_> = topo
                .node_ids()
                .filter(|n| lazy.rows[n.index()].get().is_some())
                .map(|n| topo.node(n).name.clone())
                .collect();
            let edges: Vec<_> =
                (0..k).flat_map(|p| (0..k / 2).map(move |e| format!("p{p}e{e}"))).collect();
            assert_eq!(filled, edges, "k={k}");

            let host = tree.hosts()[1];
            let mut up = vec![true; topo.link_count()];
            up[topo.neighbors(host)[0].0.index()] = false;
            let cut = Routing::with_link_state(topo, Some(&up));
            assert!(tree.hosts().iter().all(|&dst| !cut.reachable(topo, host, dst) || dst == host));
            assert_eq!(cut.next_hop(topo, host, tree.hosts()[0]), None);
            assert_eq!(cut.rows_built(), 0);
        }

        let (mut b, h, r1, r2) = (TopologyBuilder::new(), NodeId(0), NodeId(1), NodeId(2));
        b.compute("h");
        b.network("r1");
        b.network("r2");
        let h2 = b.compute("h2");
        let lat = SimDuration::from_micros(10);
        for (x, y) in [(h, r1), (h, r2), (r1, h2), (r2, h2)] {
            b.link(x, y, mbps(100.0), lat).unwrap();
        }
        let t = b.build().unwrap();
        let r = Routing::new(&t);
        assert_eq!(r.path(&t, h, h2).unwrap().nodes, vec![h, r1, h2]);
        let masked = Routing::with_link_state(&t, Some(&[false, true, true, true]));
        assert_eq!(masked.path(&t, h, h2).unwrap().nodes, vec![h, r2, h2]);
        for r in [r, masked] {
            assert!(r.rows[h.index()].get().is_some() && r.rows_built() == 1, "h shared a row");
        }
    }

    /// A host behind a link of nearly `u64::MAX` ns: from its switch `e`,
    /// `h2` is nearer through `r1`, but from the host both routes' latencies
    /// saturate and `r2`, settled first, keeps the tie. Sharing `e`'s row
    /// would answer `r1`, so where latencies can saturate the host keeps
    /// its own row.
    #[test]
    fn saturating_latencies_keep_a_host_on_its_own_row() {
        let mut b = TopologyBuilder::new();
        let h = b.compute("h");
        let e = b.network("e");
        let r1 = b.network("r1");
        let r2 = b.network("r2");
        let h2 = b.compute("h2");
        let ns = SimDuration::from_nanos;
        b.link(h, e, mbps(100.0), ns(u64::MAX - 4)).unwrap();
        for (x, y, lat) in [(e, r1, 10), (e, r2, 1), (r1, h2, 1), (r2, h2, 100)] {
            b.link(x, y, mbps(100.0), ns(lat)).unwrap();
        }
        let t = b.build().unwrap();
        let eager = Eager::build(&t, None);
        let lazy = Routing::new(&t);
        rows_agree(&t, &eager, &lazy);
        assert_eq!(lazy.path(&t, h, h2).unwrap().nodes, vec![h, e, r2, h2]);
        assert_eq!(lazy.path(&t, h2, h).unwrap().nodes, vec![h2, r1, e, h]);
    }

    #[test]
    fn a_table_asked_about_another_topology_answers_with_a_typed_error() {
        let (t, h1, h2) = line_with_shortcut();
        let mut b = TopologyBuilder::new();
        let lone = b.compute("lone");
        let small = b.build().unwrap();
        let r = Routing::new(&small);
        assert!(matches!(r.path(&t, h1, h2), Err(NetError::Internal(_))));
        assert!(r.next_hop(&t, h1, h2).is_none());
        assert!(!r.reachable(&t, h1, h2));
        assert!(r.path(&small, lone, lone).is_ok());
        assert_eq!(r.rows_built(), 0);
    }
}
