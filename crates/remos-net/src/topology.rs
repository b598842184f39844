//! Network topology: compute nodes, network nodes, and duplex links.
//!
//! Mirrors the paper's model (§2, §4.3): a networked system consists of
//! compute nodes (hosts), network nodes (routers and switches), and
//! communication links. Applications run only on compute nodes; network
//! nodes only forward. Links are full-duplex point-to-point (the testbed
//! uses 100 Mbps and 10 Mbps point-to-point Ethernet segments), so each
//! physical link contributes two independent capacity resources, one per
//! direction. A network node may additionally carry an *internal bandwidth*
//! cap (Fig 1: "if nodes A and B have internal bandwidths of 10 Mbps, then
//! these two network nodes are the bottleneck").

use crate::error::{NetError, Result};
use crate::routing::Routing;
use crate::time::SimDuration;
use crate::units::Bps;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Identifies a node within one [`Topology`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

/// Identifies a duplex link within one [`Topology`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub u32);

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Debug for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

impl NodeId {
    /// Index into per-node vectors.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl LinkId {
    /// Index into per-link vectors.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// What a node is (the paper's host/switch distinction).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NodeKind {
    /// A host: runs applications, sends and receives messages.
    Compute,
    /// A router or switch: forwards only.
    Network,
}

/// Traffic direction over a duplex link, relative to its endpoint order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Direction {
    /// From endpoint `a` to endpoint `b`.
    AtoB,
    /// From endpoint `b` to endpoint `a`.
    BtoA,
}

impl Direction {
    /// The opposite direction.
    #[inline]
    pub fn reverse(self) -> Direction {
        match self {
            Direction::AtoB => Direction::BtoA,
            Direction::BtoA => Direction::AtoB,
        }
    }

    /// 0 for `AtoB`, 1 for `BtoA`; used to index per-direction arrays.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Direction::AtoB => 0,
            Direction::BtoA => 1,
        }
    }
}

/// One directed half of a duplex link — the unit of capacity in the
/// simulator and the unit reported by SNMP interface counters.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct DirLink {
    /// The underlying duplex link.
    pub link: LinkId,
    /// Which direction of it.
    pub dir: Direction,
}

impl DirLink {
    /// Dense index: `2 * link + dir`, for indexing per-direction tables.
    #[inline]
    pub fn index(self) -> usize {
        self.link.index() * 2 + self.dir.index()
    }

    /// Inverse of [`DirLink::index`].
    #[inline]
    pub fn from_index(i: usize) -> DirLink {
        DirLink {
            link: LinkId((i / 2) as u32),
            dir: if i.is_multiple_of(2) { Direction::AtoB } else { Direction::BtoA },
        }
    }
}

/// A host's compute and memory resources (§2: Remos "does include a
/// simple interface to computation and memory resources").
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HostInfo {
    /// Peak floating-point rate, flops.
    pub compute_flops: f64,
    /// Physical memory, bytes.
    pub memory_bytes: u64,
}

impl Default for HostInfo {
    /// [`DEFAULT_COMPUTE_FLOPS`] and [`DEFAULT_MEMORY_BYTES`].
    fn default() -> Self {
        HostInfo { compute_flops: DEFAULT_COMPUTE_FLOPS, memory_bytes: DEFAULT_MEMORY_BYTES }
    }
}

/// Node attributes.
#[derive(Clone, Debug)]
pub struct Node {
    /// Human-readable unique name (e.g. `"m-4"`, `"timberline"`).
    pub name: String,
    /// Host or switch.
    pub kind: NodeKind,
    /// Internal (backplane) bandwidth cap for network nodes, in bits/s.
    /// `None` means the node never limits aggregate throughput.
    pub internal_bw: Option<Bps>,
    /// The host's resources: `None` for network nodes and for hosts
    /// whose resources nobody measured (an SNMP neighbour without an
    /// agent, an opaque benchmark endpoint).
    pub host: Option<HostInfo>,
}

/// Duplex link attributes.
#[derive(Clone, Debug)]
pub struct Link {
    /// One endpoint.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// Capacity of each direction, in bits/s.
    pub capacity: Bps,
    /// One-way propagation/forwarding latency.
    pub latency: SimDuration,
}

impl Link {
    /// The endpoint a packet leaves from when travelling in `dir`.
    #[inline]
    pub fn tail(&self, dir: Direction) -> NodeId {
        match dir {
            Direction::AtoB => self.a,
            Direction::BtoA => self.b,
        }
    }

    /// The endpoint a packet arrives at when travelling in `dir`.
    #[inline]
    pub fn head(&self, dir: Direction) -> NodeId {
        match dir {
            Direction::AtoB => self.b,
            Direction::BtoA => self.a,
        }
    }

    /// Given one endpoint, return the other. Panics if `n` is not an endpoint.
    #[inline]
    pub fn opposite(&self, n: NodeId) -> NodeId {
        if n == self.a {
            self.b
        } else {
            debug_assert_eq!(n, self.b, "node not an endpoint of this link");
            self.a
        }
    }

    /// Direction of travel when leaving `from` over this link.
    #[inline]
    pub fn direction_from(&self, from: NodeId) -> Direction {
        if from == self.a {
            Direction::AtoB
        } else {
            debug_assert_eq!(from, self.b, "node not an endpoint of this link");
            Direction::BtoA
        }
    }
}

/// One entry of the routing adjacency: what a shortest-path relaxation
/// reads about an incident link, packed so that the relaxation loop
/// dereferences no [`Link`] or [`Node`].
#[derive(Clone, Copy, Debug)]
pub(crate) struct RouteEdge {
    /// The link's one-way latency, in nanoseconds.
    pub(crate) latency_ns: u64,
    /// The neighbor the link leads to.
    pub(crate) next: NodeId,
    /// The link's raw id.
    pub(crate) link: u32,
    /// True if the neighbor forwards traffic (is a network node).
    pub(crate) forwards: bool,
}

/// An immutable network topology.
///
/// Construct with [`TopologyBuilder`]. All simulator state (routing, flows,
/// counters) is derived from this structure. Nothing changes it after
/// [`TopologyBuilder::build`] but one memo: its all-links-up [`Routing`]
/// table, whose rows fill on first use and which every clone shares (see
/// [`Topology::routing`]).
#[derive(Clone)]
pub struct Topology {
    nodes: Vec<Node>,
    links: Vec<Link>,
    /// CSR adjacency offsets, length `node_count + 1`: node `n`'s incident
    /// `(link, neighbor)` pairs live at `adj[adj_off[n]..adj_off[n+1]]`.
    adj_off: Vec<u32>,
    /// Concatenated `(link, neighbor)` pairs for all nodes, in link order
    /// within each node (one flat arena instead of a boxed list per node).
    adj: Vec<(LinkId, NodeId)>,
    /// [`RouteEdge`]s parallel to `adj`, under the same offsets.
    route_adj: Vec<RouteEdge>,
    names: BTreeMap<String, NodeId>,
    /// Per node: the one link of a single-homed host and the forwarding
    /// node it leads to, whose routing row the host reads (see
    /// [`Routing::tree`]); `None` for every other node.
    access: Vec<Option<(u32, NodeId)>>,
    /// Routes with every link up, rows filled on first use.
    routing: Arc<Routing>,
}

impl fmt::Debug for Topology {
    /// The structure alone: which routing rows are filled does not show.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Topology")
            .field("nodes", &self.nodes)
            .field("links", &self.links)
            .field("adj_off", &self.adj_off)
            .field("adj", &self.adj)
            .field("route_adj", &self.route_adj)
            .field("names", &self.names)
            .finish_non_exhaustive()
    }
}

impl Topology {
    /// The routing table over this topology with every link up. A row is
    /// a pure function of `(topology, source)`, so everything that routes
    /// over an all-up view of this topology — the simulator while no link
    /// is down, the modeler's plans, the what-if kernel — shares one table
    /// and fills each row once.
    #[inline]
    pub fn routing(&self) -> &Arc<Routing> {
        &self.routing
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of duplex links.
    #[inline]
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Number of directed interfaces (`2 * link_count`).
    #[inline]
    pub fn dir_link_count(&self) -> usize {
        self.links.len() * 2
    }

    /// Iterate over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Iterate over all link ids.
    pub fn link_ids(&self) -> impl Iterator<Item = LinkId> + '_ {
        (0..self.links.len() as u32).map(LinkId)
    }

    /// Node attributes. Panics on an id from another topology.
    #[inline]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Link attributes. Panics on an id from another topology.
    #[inline]
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.index()]
    }

    /// Checked node lookup.
    pub fn try_node(&self, id: NodeId) -> Result<&Node> {
        self.nodes.get(id.index()).ok_or(NetError::UnknownNode(id))
    }

    /// Checked link lookup.
    pub fn try_link(&self, id: LinkId) -> Result<&Link> {
        self.links.get(id.index()).ok_or(NetError::UnknownLink(id))
    }

    /// Resolve a node by name.
    pub fn lookup(&self, name: &str) -> Result<NodeId> {
        self.names
            .get(name)
            .copied()
            .ok_or_else(|| NetError::UnknownName(name.to_string()))
    }

    /// `(link, neighbor)` pairs incident to `n`.
    #[inline]
    pub fn neighbors(&self, n: NodeId) -> &[(LinkId, NodeId)] {
        let i = n.index();
        &self.adj[self.adj_off[i] as usize..self.adj_off[i + 1] as usize]
    }

    /// The link and the forwarding node a single-homed host `n` routes
    /// through; `None` if `n` is not one.
    #[inline]
    pub(crate) fn access(&self, n: NodeId) -> Option<(u32, NodeId)> {
        self.access[n.index()]
    }

    /// The routing adjacency of `n`: [`neighbors`](Self::neighbors) in the
    /// same order, with each link's latency and each neighbor's kind.
    #[inline]
    pub(crate) fn route_edges(&self, n: NodeId) -> &[RouteEdge] {
        let i = n.index();
        &self.route_adj[self.adj_off[i] as usize..self.adj_off[i + 1] as usize]
    }

    /// Degree of a node.
    #[inline]
    pub fn degree(&self, n: NodeId) -> usize {
        let i = n.index();
        (self.adj_off[i + 1] - self.adj_off[i]) as usize
    }

    /// All compute-node ids, in id order.
    pub fn compute_nodes(&self) -> Vec<NodeId> {
        self.node_ids()
            .filter(|&n| self.node(n).kind == NodeKind::Compute)
            .collect()
    }

    /// All network-node ids, in id order.
    pub fn network_nodes(&self) -> Vec<NodeId> {
        self.node_ids()
            .filter(|&n| self.node(n).kind == NodeKind::Network)
            .collect()
    }

    /// Per-direction link capacities indexed by [`DirLink::index`]: entry
    /// `2*l + d` is the capacity of link `l` in direction `d`. This is the
    /// leading, stable prefix of the simulator's resource vector — indices
    /// never move while the topology is alive, which is what lets the
    /// incremental solver key dirty-tracking on resource indices.
    pub fn dir_link_capacities(&self) -> Vec<Bps> {
        let mut caps = Vec::with_capacity(self.dir_link_count());
        for l in &self.links {
            caps.push(l.capacity); // AtoB
            caps.push(l.capacity); // BtoA
        }
        caps
    }

    /// Network nodes with a capped backplane, in node-id order, paired
    /// with the cap. The simulator appends one capacity resource per entry
    /// after the dir-link prefix, in exactly this order, so backplane
    /// resource indices are stable for the lifetime of the topology too.
    pub fn capped_network_nodes(&self) -> impl Iterator<Item = (NodeId, Bps)> + '_ {
        self.node_ids().filter_map(|n| {
            let node = self.node(n);
            match (node.kind, node.internal_bw) {
                (NodeKind::Network, Some(bw)) => Some((n, bw)),
                _ => None,
            }
        })
    }

    /// True if every node can reach every other node.
    pub fn is_connected(&self) -> bool {
        if self.nodes.is_empty() {
            return true;
        }
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![NodeId(0)];
        seen[0] = true;
        let mut count = 1;
        while let Some(n) = stack.pop() {
            for &(_, next) in self.neighbors(n) {
                if !seen[next.index()] {
                    seen[next.index()] = true;
                    count += 1;
                    stack.push(next);
                }
            }
        }
        count == self.nodes.len()
    }
}

/// Incremental constructor for [`Topology`].
///
/// ```
/// use remos_net::{TopologyBuilder, NodeKind, mbps, SimDuration};
///
/// let mut b = TopologyBuilder::new();
/// let h1 = b.compute("h1");
/// let h2 = b.compute("h2");
/// let sw = b.network("sw");
/// b.link(h1, sw, mbps(100.0), SimDuration::from_micros(50)).unwrap();
/// b.link(h2, sw, mbps(100.0), SimDuration::from_micros(50)).unwrap();
/// let topo = b.build().unwrap();
/// assert_eq!(topo.node_count(), 3);
/// assert!(topo.is_connected());
/// ```
#[derive(Default, Debug)]
pub struct TopologyBuilder {
    nodes: Vec<Node>,
    links: Vec<Link>,
    names: BTreeMap<String, NodeId>,
    errors: Vec<NetError>,
}

/// Default host speed: 50 Mflop/s, calibrated so that the FFT and Airshed
/// models land near the paper's 1998-era DEC Alpha execution times.
pub const DEFAULT_COMPUTE_FLOPS: f64 = 50e6;

/// Default host memory: 256 MiB, typical for the paper's era.
pub const DEFAULT_MEMORY_BYTES: u64 = 256 * 1024 * 1024;

impl TopologyBuilder {
    /// Empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    fn add_node(&mut self, name: &str, kind: NodeKind, host: Option<HostInfo>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        if self.names.insert(name.to_string(), id).is_some() {
            self.errors.push(NetError::DuplicateName(name.to_string()));
        }
        self.nodes.push(Node { name: name.to_string(), kind, internal_bw: None, host });
        id
    }

    /// Add a compute node (host) with default resources.
    pub fn compute(&mut self, name: &str) -> NodeId {
        self.compute_with_host(name, Some(HostInfo::default()))
    }

    /// Add a compute node with an explicit speed (flops/s) and default
    /// memory.
    pub fn compute_with_speed(&mut self, name: &str, flops: f64) -> NodeId {
        let host = HostInfo { compute_flops: flops, ..HostInfo::default() };
        self.compute_with_host(name, Some(host))
    }

    /// Add a compute node with the given resources (`None`: unmeasured).
    pub fn compute_with_host(&mut self, name: &str, host: Option<HostInfo>) -> NodeId {
        self.add_node(name, NodeKind::Compute, host)
    }

    /// Add a network node (router/switch).
    pub fn network(&mut self, name: &str) -> NodeId {
        self.add_node(name, NodeKind::Network, None)
    }

    /// Add a network node whose backplane caps aggregate throughput
    /// (Fig 1's "internal bandwidth").
    pub fn network_with_internal_bw(&mut self, name: &str, internal_bw: Bps) -> NodeId {
        let id = self.network(name);
        self.nodes[id.index()].internal_bw = Some(internal_bw);
        id
    }

    /// Add a full-duplex link. `capacity` applies per direction.
    pub fn link(
        &mut self,
        a: NodeId,
        b: NodeId,
        capacity: Bps,
        latency: SimDuration,
    ) -> Result<LinkId> {
        if a.index() >= self.nodes.len() {
            return Err(NetError::UnknownNode(a));
        }
        if b.index() >= self.nodes.len() {
            return Err(NetError::UnknownNode(b));
        }
        if a == b {
            return Err(NetError::Invalid("self-loop link".into()));
        }
        if capacity <= 0.0 || !capacity.is_finite() {
            return Err(NetError::Invalid(format!("link capacity {capacity}")));
        }
        let id = LinkId(self.links.len() as u32);
        self.links.push(Link { a, b, capacity, latency });
        Ok(id)
    }

    /// Finish, validating names and building adjacency.
    pub fn build(self) -> Result<Topology> {
        if let Some(e) = self.errors.into_iter().next() {
            return Err(e);
        }
        // Two-pass CSR build: count degrees, prefix-sum, scatter in link
        // order (matching the per-node push order of the old boxed lists).
        let n = self.nodes.len();
        let mut adj_off = vec![0u32; n + 1];
        for l in &self.links {
            adj_off[l.a.index() + 1] += 1;
            adj_off[l.b.index() + 1] += 1;
        }
        for i in 0..n {
            adj_off[i + 1] += adj_off[i];
        }
        let mut cur: Vec<u32> = adj_off[..n].to_vec();
        let mut adj = vec![(LinkId(0), NodeId(0)); self.links.len() * 2];
        for (i, l) in self.links.iter().enumerate() {
            let id = LinkId(i as u32);
            adj[cur[l.a.index()] as usize] = (id, l.b);
            cur[l.a.index()] += 1;
            adj[cur[l.b.index()] as usize] = (id, l.a);
            cur[l.b.index()] += 1;
        }
        let route_adj: Vec<RouteEdge> = adj
            .iter()
            .map(|&(link, next)| RouteEdge {
                latency_ns: self.links[link.index()].latency.as_nanos(),
                next,
                link: link.0,
                forwards: self.nodes[next.index()].kind == NodeKind::Network,
            })
            .collect();
        // Sharing its switch's row needs every path latency to stay
        // unsaturated, which holds while the sum of all latencies fits.
        let latencies_fit = self
            .links
            .iter()
            .try_fold(0u64, |sum, l| sum.checked_add(l.latency.as_nanos()))
            .is_some();
        let access = (0..n)
            .map(|i| match &route_adj[adj_off[i] as usize..adj_off[i + 1] as usize] {
                [e] if latencies_fit && e.forwards && self.nodes[i].kind == NodeKind::Compute => {
                    Some((e.link, e.next))
                }
                _ => None,
            })
            .collect();
        Ok(Topology {
            nodes: self.nodes,
            links: self.links,
            adj_off,
            adj,
            route_adj,
            names: self.names,
            access,
            routing: Arc::new(Routing::with_rows(n)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::mbps;

    fn star3() -> Topology {
        let mut b = TopologyBuilder::new();
        let h1 = b.compute("h1");
        let h2 = b.compute("h2");
        let h3 = b.compute("h3");
        let sw = b.network("sw");
        for h in [h1, h2, h3] {
            b.link(h, sw, mbps(100.0), SimDuration::from_micros(50)).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn builder_constructs_star() {
        let t = star3();
        assert_eq!(t.node_count(), 4);
        assert_eq!(t.link_count(), 3);
        assert_eq!(t.dir_link_count(), 6);
        assert_eq!(t.compute_nodes().len(), 3);
        assert_eq!(t.network_nodes().len(), 1);
        assert!(t.is_connected());
        let sw = t.lookup("sw").unwrap();
        assert_eq!(t.degree(sw), 3);
    }

    #[test]
    fn name_lookup() {
        let t = star3();
        assert_eq!(t.lookup("h2").unwrap(), NodeId(1));
        assert!(matches!(t.lookup("nope"), Err(NetError::UnknownName(_))));
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut b = TopologyBuilder::new();
        b.compute("x");
        b.compute("x");
        assert!(matches!(b.build(), Err(NetError::DuplicateName(_))));
    }

    #[test]
    fn self_loop_rejected() {
        let mut b = TopologyBuilder::new();
        let h = b.compute("h");
        assert!(b.link(h, h, mbps(10.0), SimDuration::ZERO).is_err());
    }

    #[test]
    fn bad_capacity_rejected() {
        let mut b = TopologyBuilder::new();
        let h1 = b.compute("h1");
        let h2 = b.compute("h2");
        assert!(b.link(h1, h2, 0.0, SimDuration::ZERO).is_err());
        assert!(b.link(h1, h2, -5.0, SimDuration::ZERO).is_err());
        assert!(b.link(h1, h2, f64::NAN, SimDuration::ZERO).is_err());
    }

    #[test]
    fn link_endpoint_helpers() {
        let t = star3();
        let l = t.link(LinkId(0));
        assert_eq!(l.tail(Direction::AtoB), l.a);
        assert_eq!(l.head(Direction::AtoB), l.b);
        assert_eq!(l.opposite(l.a), l.b);
        assert_eq!(l.direction_from(l.b), Direction::BtoA);
        assert_eq!(l.direction_from(l.a).reverse(), Direction::BtoA);
    }

    #[test]
    fn dirlink_index_roundtrip() {
        for i in 0..10 {
            assert_eq!(DirLink::from_index(i).index(), i);
        }
    }

    #[test]
    fn disconnected_detected() {
        let mut b = TopologyBuilder::new();
        b.compute("a");
        b.compute("b");
        let t = b.build().unwrap();
        assert!(!t.is_connected());
    }

    #[test]
    fn internal_bw_recorded() {
        let mut b = TopologyBuilder::new();
        let sw = b.network_with_internal_bw("sw", mbps(10.0));
        let t = {
            let h = b.compute("h");
            b.link(h, sw, mbps(100.0), SimDuration::ZERO).unwrap();
            b.build().unwrap()
        };
        assert_eq!(t.node(sw).internal_bw, Some(mbps(10.0)));
    }
}
