//! Logical-topology generation (§4.3).
//!
//! "Use of a logical topology graph means that the graph presented to the
//! user is intended only to represent how the network behaves as seen by
//! the user … if the routing rules imply that a physical link will not be
//! used … that information is reflected in the graph. Similarly, if two
//! sets of hosts are connected by a complex network (e.g. the Internet),
//! Remos can represent this network by a single link with appropriate
//! characteristics."
//!
//! Concretely, given the physical view and a target node set:
//! 1. keep only the links and nodes that routing actually uses between
//!    targets (information hiding);
//! 2. collapse every chain of degree-2 non-target forwarding nodes into a
//!    single logical link (capacity = min, latency = sum), remembering the
//!    underlying physical interfaces so dynamic annotations stay
//!    per-sample accurate.

use crate::error::{CoreResult, RemosError};
use remos_net::routing::Routing;
use remos_net::topology::{DirLink, LinkId, NodeId, NodeKind, Topology};
use remos_net::{Bps, SimDuration};

/// A logical link between two retained nodes, with its physical support.
#[derive(Clone, Debug, PartialEq)]
pub struct LogicalLinkSpec {
    /// Retained endpoint (physical node id).
    pub a: NodeId,
    /// Retained endpoint (physical node id).
    pub b: NodeId,
    /// Static capacity: minimum along the collapsed chain.
    pub capacity: Bps,
    /// Latency: sum along the collapsed chain.
    pub latency: SimDuration,
    /// Underlying physical directed interfaces: `[a→b order, b→a order]`.
    pub phys: [Vec<DirLink>; 2],
}

/// The structure of a logical topology, before dynamic annotation.
#[derive(Clone, Debug, PartialEq)]
pub struct LogicalStructure {
    /// Retained physical node ids, sorted.
    pub nodes: Vec<NodeId>,
    /// Logical links between retained nodes.
    pub links: Vec<LogicalLinkSpec>,
}

/// Compute the logical structure connecting `targets`.
///
/// Every target must be a compute node; pairs with no route produce
/// [`RemosError::Disconnected`].
pub fn logicalize(
    topo: &Topology,
    routing: &Routing,
    targets: &[NodeId],
) -> CoreResult<LogicalStructure> {
    if targets.is_empty() {
        return Err(RemosError::InvalidQuery(
            crate::error::InvalidQueryKind::EmptyNodeSet,
        ));
    }
    for &t in targets {
        if topo.try_node(t).is_err() {
            return Err(RemosError::Net(format!("node {t:?} out of range")));
        }
    }
    let mut sorted = targets.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    let host = |n: NodeId| topo.node(n).kind == NodeKind::Compute;

    // 1. Union of links used by routed paths between all target pairs
    //    `s < d`. The paths out of one source form a tree, so each is
    //    walked from `d` back toward `s` only as far as the first node an
    //    earlier walk from this source already covered.
    let mut used_link = vec![false; topo.link_count()];
    let mut walked_from = vec![u32::MAX; topo.node_count()];
    for (i, &s) in sorted.iter().enumerate().take(sorted.len() - 1) {
        let tree = routing.tree(topo, s)?;
        for &d in &sorted[i + 1..] {
            let unrouted = || {
                RemosError::Disconnected(topo.node(s).name.clone(), topo.node(d).name.clone())
            };
            if !host(s) || !host(d) {
                return Err(unrouted());
            }
            let mut cur = d;
            while cur != s && walked_from[cur.index()] != s.0 {
                // No predecessor at `d` itself: `s` does not reach it.
                let link = tree.prev(cur).ok_or_else(unrouted)?;
                walked_from[cur.index()] = s.0;
                used_link[link.index()] = true;
                cur = topo.link(link).opposite(cur);
            }
        }
    }

    // Induced adjacency over used links, one CSR built in two passes:
    // count degrees, then scatter in link-id order. Node `n`'s used links
    // end up at `adj[off[n]..off[n + 1]]`.
    let nodes = topo.node_count();
    let mut off = vec![0u32; nodes + 2];
    for l in topo.link_ids().filter(|l| used_link[l.index()]) {
        let link = topo.link(l);
        off[link.a.index() + 2] += 1;
        off[link.b.index() + 2] += 1;
    }
    for i in 2..nodes + 2 {
        off[i] += off[i - 1];
    }
    // `off[i + 1]` now starts node `i`; scattering advances it to node
    // `i`'s end, which is where node `i + 1` starts.
    let mut adj = vec![LinkId(0); off[nodes + 1] as usize];
    for l in topo.link_ids().filter(|l| used_link[l.index()]) {
        let link = topo.link(l);
        for end in [link.a, link.b] {
            adj[off[end.index() + 1] as usize] = l;
            off[end.index() + 1] += 1;
        }
    }
    let adj_of = |n: NodeId| &adj[off[n.index()] as usize..off[n.index() + 1] as usize];

    // 2. Retained nodes, of those a used link touches (and the lone
    //    target of a one-target query, which none does): compute nodes,
    //    and network nodes of induced degree != 2 (junctions). Degree-2
    //    network nodes are pure forwarders and get collapsed.
    let keep = |n: NodeId| -> bool { host(n) || adj_of(n).len() != 2 };
    let used = |n: NodeId| n == sorted[0] || !adj_of(n).is_empty();
    let kept_count = topo.node_ids().filter(|&n| used(n) && keep(n)).count();
    let mut kept = Vec::with_capacity(kept_count);
    kept.extend(topo.node_ids().filter(|&n| used(n) && keep(n)));

    // Walk chains from each kept node. A used link lies on exactly one
    // chain, so un-marking links as they are walked emits each chain
    // once, from its end that comes first in (node, link) order. Every
    // chain ends in two used links at kept nodes, so there are half as
    // many chains as such links.
    let ends: usize = kept.iter().map(|&k| adj_of(k).len()).sum();
    let mut links = Vec::with_capacity(ends / 2);
    let mut chain: Vec<DirLink> = Vec::new();
    for &start in &kept {
        for &first in adj_of(start) {
            if !used_link[first.index()] {
                continue;
            }
            // Traverse to the next kept node.
            chain.clear();
            let mut capacity = f64::INFINITY;
            let mut latency = SimDuration::ZERO;
            let mut at = start;
            let mut via = first;
            loop {
                used_link[via.index()] = false;
                let link = topo.link(via);
                let dir = link.direction_from(at);
                chain.push(DirLink { link: via, dir });
                capacity = capacity.min(link.capacity);
                latency = latency.saturating_add(link.latency);
                let next = link.opposite(at);
                if keep(next) {
                    let rev = chain
                        .iter()
                        .rev()
                        .map(|d| DirLink { link: d.link, dir: d.dir.reverse() })
                        .collect();
                    links.push(LogicalLinkSpec {
                        a: start,
                        b: next,
                        capacity,
                        latency,
                        phys: [chain.to_vec(), rev],
                    });
                    break;
                }
                // Degree-2 forwarder: continue out the other side.
                let out = adj_of(next).iter().copied().find(|&l| l != via).ok_or_else(|| {
                    RemosError::Internal(format!("degree-2 node {next:?} lacks a second used link"))
                })?;
                at = next;
                via = out;
            }
        }
    }

    Ok(LogicalStructure { nodes: kept, links })
}

#[cfg(test)]
mod tests {
    use super::*;
    use remos_net::{mbps, TopologyBuilder};

    /// h1 - r1 - r2 - r3 - h2, with a spur r2 - h3 and an unused link
    /// r1 - r4 - r3 (longer, never routed).
    fn chain_net() -> (Topology, Routing) {
        let mut b = TopologyBuilder::new();
        let h1 = b.compute("h1");
        let h2 = b.compute("h2");
        let h3 = b.compute("h3");
        let r1 = b.network("r1");
        let r2 = b.network("r2");
        let r3 = b.network("r3");
        let r4 = b.network("r4");
        let lat = SimDuration::from_micros(100);
        b.link(h1, r1, mbps(100.0), lat).unwrap();
        b.link(r1, r2, mbps(40.0), lat).unwrap();
        b.link(r2, r3, mbps(100.0), lat).unwrap();
        b.link(r3, h2, mbps(100.0), lat).unwrap();
        b.link(r2, h3, mbps(100.0), lat).unwrap();
        b.link(r1, r4, mbps(100.0), lat).unwrap();
        b.link(r4, r3, mbps(100.0), lat).unwrap();
        let t = b.build().unwrap();
        let r = Routing::new(&t);
        (t, r)
    }

    #[test]
    fn two_targets_collapse_to_single_link() {
        let (t, r) = chain_net();
        let h1 = t.lookup("h1").unwrap();
        let h2 = t.lookup("h2").unwrap();
        let s = logicalize(&t, &r, &[h1, h2]).unwrap();
        // Just the two hosts, joined by one logical link.
        assert_eq!(s.nodes, vec![h1, h2]);
        assert_eq!(s.links.len(), 1);
        let l = &s.links[0];
        assert_eq!(l.capacity, mbps(40.0)); // min along the chain
        assert_eq!(l.latency, SimDuration::from_micros(400)); // 4 hops
        assert_eq!(l.phys[0].len(), 4);
        assert_eq!(l.phys[1].len(), 4);
        // Reverse support mirrors forward support.
        for (f, rv) in l.phys[0].iter().zip(l.phys[1].iter().rev()) {
            assert_eq!(f.link, rv.link);
            assert_eq!(f.dir, rv.dir.reverse());
        }
    }

    #[test]
    fn junction_is_retained() {
        let (t, r) = chain_net();
        let h1 = t.lookup("h1").unwrap();
        let h2 = t.lookup("h2").unwrap();
        let h3 = t.lookup("h3").unwrap();
        let s = logicalize(&t, &r, &[h1, h2, h3]).unwrap();
        // r2 is a junction (degree 3 in the induced graph) and survives;
        // r1 and r3 collapse.
        let r2 = t.lookup("r2").unwrap();
        assert!(s.nodes.contains(&r2));
        assert!(!s.nodes.contains(&t.lookup("r1").unwrap()));
        assert!(!s.nodes.contains(&t.lookup("r3").unwrap()));
        assert_eq!(s.nodes.len(), 4); // h1, h2, h3, r2
        assert_eq!(s.links.len(), 3); // three collapsed spokes
        // Unused detour r4 is hidden.
        assert!(s.links.iter().all(|l| {
            l.phys[0]
                .iter()
                .all(|d| t.link(d.link).a != t.lookup("r4").unwrap()
                    && t.link(d.link).b != t.lookup("r4").unwrap())
        }));
    }

    #[test]
    fn single_target_yields_no_links() {
        let (t, r) = chain_net();
        let h1 = t.lookup("h1").unwrap();
        let s = logicalize(&t, &r, &[h1]).unwrap();
        assert_eq!(s.nodes, vec![h1]);
        assert!(s.links.is_empty());
    }

    #[test]
    fn empty_targets_rejected() {
        let (t, r) = chain_net();
        assert!(matches!(
            logicalize(&t, &r, &[]),
            Err(RemosError::InvalidQuery(_))
        ));
    }

    #[test]
    fn disconnected_targets_reported() {
        let mut b = TopologyBuilder::new();
        let h1 = b.compute("h1");
        let h2 = b.compute("h2");
        let t = b.build().unwrap();
        let r = Routing::new(&t);
        assert!(matches!(
            logicalize(&t, &r, &[h1, h2]),
            Err(RemosError::Disconnected(_, _))
        ));
    }

    #[test]
    fn direct_neighbors_keep_one_physical_hop() {
        let mut b = TopologyBuilder::new();
        let h1 = b.compute("h1");
        let h2 = b.compute("h2");
        b.link(h1, h2, mbps(10.0), SimDuration::from_micros(5)).unwrap();
        let t = b.build().unwrap();
        let r = Routing::new(&t);
        let s = logicalize(&t, &r, &[h1, h2]).unwrap();
        assert_eq!(s.links.len(), 1);
        assert_eq!(s.links[0].phys[0].len(), 1);
    }
}
