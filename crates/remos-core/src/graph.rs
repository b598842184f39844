//! The logical network topology returned by `remos_get_graph` (§4.3).
//!
//! "Remos represents the network as a graph with each edge corresponding
//! to a link between nodes; nodes can be either compute nodes or network
//! nodes. … Use of a logical topology graph means that the graph presented
//! to the user is intended only to represent how the network behaves as
//! seen by the user" — links are annotated with static capacity and
//! dynamic available-bandwidth *statistics*, and network nodes may carry an
//! internal bandwidth (Fig 1).

use crate::error::{CoreResult, RemosError};
use crate::provenance::Provenance;
use crate::quality::DataQuality;
use crate::stats::Quartiles;
use remos_net::topology::NodeKind;
use remos_net::{Bps, SimDuration};
#[expect(clippy::disallowed_types, reason = "name-to-id lookups only; nothing iterates it")]
use std::collections::HashMap;
use std::sync::Arc;

/// Host compute/memory attributes, carried on the topology node.
pub use remos_net::topology::HostInfo;

/// [`RemosGraph::digest`]'s fold: FNV-1a ([`remos_obs::Fnv`]) with
/// length-delimited byte strings. Floats are folded by bit pattern so
/// the digest is exactly as strict as bit equality.
struct Fold(remos_obs::Fnv);

impl Fold {
    fn new() -> Fold {
        Fold(remos_obs::Fnv::new())
    }

    fn bytes(&mut self, b: &[u8]) {
        self.0.bytes(b);
        // Length-delimit so ("ab","c") and ("a","bc") differ.
        self.u64(b.len() as u64);
    }

    fn u64(&mut self, v: u64) {
        self.0.u64(v);
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn opt_f64(&mut self, v: Option<f64>) {
        match v {
            None => self.u64(0),
            Some(x) => {
                self.u64(1);
                self.f64(x);
            }
        }
    }

    fn quartiles(&mut self, q: &Quartiles) {
        for v in [q.min, q.q1, q.median, q.q3, q.max, q.mean, q.accuracy] {
            self.f64(v);
        }
        self.usize(q.samples);
    }

    fn quality(&mut self, q: DataQuality) {
        match q {
            DataQuality::Fresh => self.u64(0),
            DataQuality::Stale { age } => {
                self.u64(1);
                self.u64(age.as_nanos());
            }
            DataQuality::Missing => self.u64(2),
        }
    }

    fn finish(&self) -> u64 {
        self.0.value()
    }
}

/// A node of the logical topology.
#[derive(Clone, Debug)]
pub struct RemosNode {
    /// Unique name (the API's lingua franca; applications name nodes, not
    /// ids, exactly like the paper's `nodes = m1,m2,…`).
    pub name: String,
    /// Host or switch.
    pub kind: NodeKind,
    /// Backplane cap for network nodes (Fig 1 "internal bandwidth").
    pub internal_bw: Option<Bps>,
    /// Compute/memory resources for hosts.
    pub host: Option<HostInfo>,
}

/// A logical link, annotated per direction.
#[derive(Clone, Debug)]
pub struct RemosLink {
    /// Endpoint index into the node table.
    pub a: usize,
    /// Endpoint index into the node table.
    pub b: usize,
    /// Static capacity, bits/s (min along any collapsed physical chain).
    pub capacity: Bps,
    /// One-way latency (sum along any collapsed chain).
    pub latency: SimDuration,
    /// Available bandwidth statistics: `[a→b, b→a]`.
    pub avail: [Quartiles; 2],
    /// Quality of the measurements behind `avail`: `[a→b, b→a]`. A link
    /// whose underlying counters could not be read recently is `Stale` or
    /// `Missing`; its `avail` is then a carried-forward (and widened)
    /// estimate rather than a current observation.
    pub quality: [DataQuality; 2],
}

impl RemosLink {
    /// Available-bandwidth summary in the direction leaving `from`
    /// (node-table index).
    pub fn avail_from(&self, from: usize) -> &Quartiles {
        if from == self.a {
            &self.avail[0]
        } else {
            debug_assert_eq!(from, self.b);
            &self.avail[1]
        }
    }

    /// Measurement quality in the direction leaving `from` (node-table
    /// index).
    pub fn quality_from(&self, from: usize) -> DataQuality {
        if from == self.a {
            self.quality[0]
        } else {
            debug_assert_eq!(from, self.b);
            self.quality[1]
        }
    }
}

/// The logical topology graph.
#[derive(Clone, Debug, Default)]
pub struct RemosGraph {
    /// Nodes (hosts and switches).
    pub nodes: Vec<RemosNode>,
    /// Logical links.
    pub links: Vec<RemosLink>,
    /// How this annotated view was derived (snapshots consumed, their
    /// quality, solver, scope). `None` when the producing query opted out
    /// with `without_provenance()`.
    pub provenance: Option<Provenance>,
    /// Shared by every clone, so an answer annotated from a plan's static
    /// graph borrows the plan's indices. `None` only for the empty
    /// default graph, which must not allocate.
    indices: Option<Arc<Indices>>,
}

/// Name lookup and adjacency derived from `nodes`/`links`.
#[derive(Debug)]
struct Indices {
    #[expect(clippy::disallowed_types, reason = "name-to-id lookups only; nothing iterates it")]
    name_index: HashMap<String, usize>,
    adj: Vec<Vec<(usize, usize)>>, // per node: (link index, neighbor index)
}

impl RemosGraph {
    /// Assemble a graph; builds the indices.
    pub fn new(nodes: Vec<RemosNode>, links: Vec<RemosLink>) -> RemosGraph {
        let mut g = RemosGraph { nodes, links, provenance: None, indices: None };
        g.rebuild_indices();
        g
    }

    /// Worst measurement quality across every logical link direction (the
    /// quality a consumer should assume for path-level conclusions drawn
    /// from this graph). `Fresh` for a graph with no links.
    pub fn worst_quality(&self) -> DataQuality {
        self.links
            .iter()
            .flat_map(|l| l.quality)
            .fold(DataQuality::Fresh, DataQuality::worst)
    }

    /// FNV-1a digest over every field of the graph, including the
    /// annotation statistics (each `f64` by bit pattern) and the
    /// provenance record. Two graphs digest equal iff they are
    /// bit-identical answers — the equality the plan cache is held to:
    /// a cache hit must produce the same digest a cold build would.
    pub fn digest(&self) -> u64 {
        let mut d = Fold::new();
        d.usize(self.nodes.len());
        for n in &self.nodes {
            d.bytes(n.name.as_bytes());
            d.u64(match n.kind {
                NodeKind::Compute => 0,
                NodeKind::Network => 1,
            });
            d.opt_f64(n.internal_bw);
            match n.host {
                None => d.u64(0),
                Some(h) => {
                    d.u64(1);
                    d.f64(h.compute_flops);
                    d.u64(h.memory_bytes);
                }
            }
        }
        d.usize(self.links.len());
        for l in &self.links {
            d.usize(l.a);
            d.usize(l.b);
            d.f64(l.capacity);
            d.u64(l.latency.as_nanos());
            for q in &l.avail {
                d.quartiles(q);
            }
            for q in &l.quality {
                d.quality(*q);
            }
        }
        match &self.provenance {
            None => d.u64(0),
            Some(p) => {
                d.u64(1);
                match p.timeframe {
                    crate::timeframe::Timeframe::Current => d.u64(0),
                    crate::timeframe::Timeframe::Window(w) => {
                        d.u64(1);
                        d.u64(w.as_nanos());
                    }
                    crate::timeframe::Timeframe::Future(h) => {
                        d.u64(2);
                        d.u64(h.as_nanos());
                    }
                }
                d.usize(p.snapshots);
                d.u64(p.newest_sample.map_or(u64::MAX, |t| t.as_nanos()));
                d.u64(p.oldest_sample.map_or(u64::MAX, |t| t.as_nanos()));
                d.quality(p.worst_quality);
                d.bytes(p.solver.as_bytes());
                d.usize(p.scope);
                d.u64(p.degraded as u64);
                match &p.source {
                    None => d.u64(0),
                    Some(s) => {
                        d.u64(1);
                        d.bytes(s.as_bytes());
                    }
                }
            }
        }
        d.finish()
    }

    /// Rebuild the name index and adjacency (after deserialization or
    /// mutation of `nodes`/`links`).
    pub fn rebuild_indices(&mut self) {
        let name_index = self.nodes.iter().enumerate().map(|(i, n)| (n.name.clone(), i)).collect();
        let mut adj = vec![Vec::new(); self.nodes.len()];
        for (li, l) in self.links.iter().enumerate() {
            adj[l.a].push((li, l.b));
            adj[l.b].push((li, l.a));
        }
        self.indices = Some(Arc::new(Indices { name_index, adj }));
    }

    /// Node index by name.
    pub fn index_of(&self, name: &str) -> CoreResult<usize> {
        (self.indices.as_ref())
            .and_then(|ix| ix.name_index.get(name).copied())
            .ok_or_else(|| RemosError::UnknownNode(name.to_string()))
    }

    /// `(link index, neighbor index)` pairs incident to node `i`.
    pub fn neighbors(&self, i: usize) -> &[(usize, usize)] {
        self.indices.as_ref().map_or(&[], |ix| &ix.adj[i])
    }

    /// All compute-node names, in node order.
    pub fn compute_names(&self) -> Vec<&str> {
        self.nodes
            .iter()
            .filter(|n| n.kind == NodeKind::Compute)
            .map(|n| n.name.as_str())
            .collect()
    }

    /// Routed path between two nodes, as a list of
    /// `(link index, from node, to node)` steps. Hosts do not forward.
    ///
    /// Minimizes `(total latency, logical hop count, link index)` — a
    /// logical link may abstract a long physical chain, so latency (which
    /// the Modeler accumulates through collapses) is the faithful length
    /// measure, not the logical hop count.
    pub fn path(&self, src: usize, dst: usize) -> CoreResult<Vec<(usize, usize, usize)>> {
        if src == dst {
            return Ok(Vec::new());
        }
        let n = self.nodes.len();
        let mut dist: Vec<(u64, u32)> = vec![(u64::MAX, u32::MAX); n];
        let mut prev: Vec<Option<(usize, usize)>> = vec![None; n]; // (link, from)
        let mut done = vec![false; n];
        let mut heap: std::collections::BinaryHeap<
            std::cmp::Reverse<(u64, u32, usize)>,
        > = std::collections::BinaryHeap::new();
        dist[src] = (0, 0);
        heap.push(std::cmp::Reverse((0, 0, src)));
        while let Some(std::cmp::Reverse((lat, hops, u))) = heap.pop() {
            if done[u] {
                continue;
            }
            done[u] = true;
            if u != src && self.nodes[u].kind == NodeKind::Compute {
                continue; // hosts terminate paths
            }
            for &(li, v) in self.neighbors(u) {
                if done[v] {
                    continue;
                }
                let cand = (lat.saturating_add(self.links[li].latency.as_nanos()), hops + 1);
                if cand < dist[v] {
                    dist[v] = cand;
                    prev[v] = Some((li, u));
                    heap.push(std::cmp::Reverse((cand.0, cand.1, v)));
                }
            }
        }
        // Not `dist`: a saturated latency is `u64::MAX` on a real path.
        if prev[dst].is_none() {
            return Err(RemosError::Disconnected(
                self.nodes[src].name.clone(),
                self.nodes[dst].name.clone(),
            ));
        }
        let mut steps = Vec::new();
        let mut cur = dst;
        while cur != src {
            let (li, from) = prev[cur].ok_or_else(|| {
                RemosError::Internal(format!("dijkstra parent chain broken at node {cur}"))
            })?;
            steps.push((li, from, cur));
            cur = from;
        }
        steps.reverse();
        Ok(steps)
    }

    /// Available bandwidth (median) along the routed path `src → dst`:
    /// the minimum of the per-link directional medians, further capped by
    /// any switch internal bandwidth on the path.
    pub fn path_avail_bw(&self, src: usize, dst: usize) -> CoreResult<Bps> {
        let steps = self.path(src, dst)?;
        let mut bw = f64::INFINITY;
        for &(li, from, to) in &steps {
            bw = bw.min(self.links[li].avail_from(from).median);
            if to != dst {
                if let Some(ib) = self.nodes[to].internal_bw {
                    bw = bw.min(ib);
                }
            }
        }
        Ok(bw)
    }

    /// Measurement quality along the routed path `src → dst`: the worst
    /// quality of any directed link on the path. An application that wants
    /// only trustworthy data checks this before acting on
    /// [`RemosGraph::path_avail_bw`].
    pub fn path_quality(&self, src: usize, dst: usize) -> CoreResult<DataQuality> {
        let steps = self.path(src, dst)?;
        let mut q = DataQuality::Fresh;
        for &(li, from, _) in &steps {
            q = q.worst(self.links[li].quality_from(from));
        }
        Ok(q)
    }

    /// One-way latency along the routed path, saturating at `u64::MAX`
    /// nanoseconds.
    pub fn path_latency(&self, src: usize, dst: usize) -> CoreResult<SimDuration> {
        let steps = self.path(src, dst)?;
        let mut total = SimDuration::ZERO;
        for &(li, _, _) in &steps {
            total = total.saturating_add(self.links[li].latency);
        }
        Ok(total)
    }

    /// The pair of compute nodes with the highest available bandwidth
    /// between them — §4.3's motivating example for exposing topology:
    /// "finding the pair of nodes with the highest bandwidth connectivity
    /// would be expensive if only flow-based queries were allowed."
    /// Returns `(src index, dst index, bandwidth)` over ordered pairs;
    /// `None` if fewer than two hosts are connected.
    pub fn best_connected_pair(&self) -> Option<(usize, usize, Bps)> {
        let hosts: Vec<usize> = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.kind == NodeKind::Compute)
            .map(|(i, _)| i)
            .collect();
        let mut best: Option<(usize, usize, Bps)> = None;
        for &a in &hosts {
            for &b in &hosts {
                if a == b {
                    continue;
                }
                let Ok(bw) = self.path_avail_bw(a, b) else { continue };
                match best {
                    Some((_, _, bb)) if bw <= bb => {}
                    _ => best = Some((a, b, bw)),
                }
            }
        }
        best
    }

    /// Render as Graphviz DOT: hosts as boxes, switches as ellipses,
    /// links labelled `avail/capacity` (median, Mbps). Handy for
    /// visualizing what an application actually sees.
    pub fn to_dot(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::from("graph remos {\n  overlap=false;\n");
        for n in &self.nodes {
            let shape = match n.kind {
                NodeKind::Compute => "box",
                NodeKind::Network => "ellipse",
            };
            let extra = match n.internal_bw {
                Some(bw) => format!("\\n[{:.0} Mbps backplane]", bw / 1e6),
                None => String::new(),
            };
            #[expect(clippy::let_underscore_must_use, reason = "writing to a String cannot fail")]
            let _ = writeln!(s, "  \"{}\" [shape={shape} label=\"{}{extra}\"];", n.name, n.name);
        }
        for l in &self.links {
            #[expect(clippy::let_underscore_must_use, reason = "writing to a String cannot fail")]
            let _ = writeln!(
                s,
                "  \"{}\" -- \"{}\" [label=\"{:.0}/{:.0} Mbps\"];",
                self.nodes[l.a].name,
                self.nodes[l.b].name,
                l.avail[0].median.min(l.avail[1].median) / 1e6,
                l.capacity / 1e6,
            );
        }
        s.push_str("}\n");
        s
    }

    /// Pairwise communication *distance* matrix over the named nodes —
    /// the clustering input (§7.3: "The logical topology graph is used to
    /// compute a matrix representing distance between all pairs of
    /// nodes"). Distance is `1 / available-bandwidth` plus a latency term
    /// weighted by `latency_weight` (the paper's testbed uses
    /// bandwidth-only distances: pass 0.0).
    pub fn distance_matrix(
        &self,
        names: &[String],
        latency_weight: f64,
    ) -> CoreResult<Vec<Vec<f64>>> {
        let idx: Vec<usize> =
            names.iter().map(|n| self.index_of(n)).collect::<CoreResult<_>>()?;
        let k = idx.len();
        let mut m = vec![vec![0.0; k]; k];
        for i in 0..k {
            for j in 0..k {
                if i == j {
                    continue;
                }
                let bw = self.path_avail_bw(idx[i], idx[j])?;
                let lat = self.path_latency(idx[i], idx[j])?.as_secs_f64();
                let bw_term = if bw <= 0.0 { f64::INFINITY } else { 1.0 / bw };
                m[i][j] = bw_term + latency_weight * lat;
            }
        }
        Ok(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use remos_net::mbps;
    use remos_obs::json::Value;

    /// Fig-1-shaped helper: hosts h0..h3 on switch A, h4..h7 on switch B,
    /// A—B backbone. `avail` sets every link's available bandwidth.
    pub(crate) fn two_switch_graph(internal_bw: Option<Bps>, avail: Bps) -> RemosGraph {
        let mut nodes = Vec::new();
        for i in 0..8 {
            nodes.push(RemosNode {
                name: format!("h{i}"),
                kind: NodeKind::Compute,
                internal_bw: None,
                host: Some(HostInfo { compute_flops: 50e6, memory_bytes: 1 << 28 }),
            });
        }
        for s in ["A", "B"] {
            nodes.push(RemosNode {
                name: s.to_string(),
                kind: NodeKind::Network,
                internal_bw,
                host: None,
            });
        }
        let mut links = Vec::new();
        let mk = |a: usize, b: usize, cap: f64, av: f64| RemosLink {
            a,
            b,
            capacity: cap,
            latency: SimDuration::from_micros(50),
            avail: [Quartiles::exact(av), Quartiles::exact(av)],
            quality: [DataQuality::Fresh; 2],
        };
        for h in 0..4 {
            links.push(mk(h, 8, mbps(10.0), avail.min(mbps(10.0))));
        }
        for h in 4..8 {
            links.push(mk(h, 9, mbps(10.0), avail.min(mbps(10.0))));
        }
        links.push(mk(8, 9, mbps(100.0), avail));
        RemosGraph::new(nodes, links)
    }

    #[test]
    fn lookup_and_neighbors() {
        let g = two_switch_graph(None, mbps(10.0));
        let a = g.index_of("A").unwrap();
        assert_eq!(g.neighbors(a).len(), 5);
        assert!(g.index_of("zz").is_err());
        assert_eq!(g.compute_names().len(), 8);
    }

    #[test]
    fn path_across_switches() {
        let g = two_switch_graph(None, mbps(10.0));
        let h0 = g.index_of("h0").unwrap();
        let h5 = g.index_of("h5").unwrap();
        let p = g.path(h0, h5).unwrap();
        assert_eq!(p.len(), 3); // h0-A, A-B, B-h5
        assert_eq!(g.path(h0, h0).unwrap().len(), 0);
        assert_eq!(
            g.path_latency(h0, h5).unwrap(),
            SimDuration::from_micros(150)
        );
    }

    #[test]
    fn huge_latencies_saturate_along_a_path() {
        // Three links, each more than a third of `u64::MAX` ns: the route
        // is still found, and its latency is clamped, not wrapped.
        let mut g = two_switch_graph(None, mbps(10.0));
        for l in &mut g.links {
            l.latency = SimDuration::from_nanos(u64::MAX / 3 + 1);
        }
        let h0 = g.index_of("h0").unwrap();
        let h5 = g.index_of("h5").unwrap();
        assert_eq!(g.path(h0, h5).unwrap().len(), 3);
        assert_eq!(g.path_latency(h0, h5).unwrap(), SimDuration::from_nanos(u64::MAX));
    }

    #[test]
    fn hosts_do_not_forward_in_logical_graph() {
        // h0 - h1 - h2 chain of hosts: no path h0 -> h2.
        let nodes: Vec<RemosNode> = (0..3)
            .map(|i| RemosNode {
                name: format!("h{i}"),
                kind: NodeKind::Compute,
                internal_bw: None,
                host: None,
            })
            .collect();
        let l = |a, b| RemosLink {
            a,
            b,
            capacity: mbps(10.0),
            latency: SimDuration::ZERO,
            avail: [Quartiles::exact(mbps(10.0)), Quartiles::exact(mbps(10.0))],
            quality: [DataQuality::Fresh; 2],
        };
        let g = RemosGraph::new(nodes, vec![l(0, 1), l(1, 2)]);
        assert!(g.path(0, 1).is_ok());
        assert!(matches!(g.path(0, 2), Err(RemosError::Disconnected(_, _))));
    }

    #[test]
    fn fig1_fast_switches_links_bottleneck() {
        // Fig 1, first interpretation: switches at 100 Mbps internal, host
        // links 10 Mbps => pair bandwidth limited by access links to 10.
        let g = two_switch_graph(Some(mbps(100.0)), mbps(100.0));
        let h0 = g.index_of("h0").unwrap();
        let h5 = g.index_of("h5").unwrap();
        assert!((g.path_avail_bw(h0, h5).unwrap() - mbps(10.0)).abs() < 1.0);
    }

    #[test]
    fn fig1_slow_switches_become_bottleneck() {
        // Fig 1, second interpretation: switches at 10 Mbps internal would
        // cap *aggregate*; for a single path the min is still 10, but a
        // 5 Mbps switch shows through the path bound.
        let g = two_switch_graph(Some(mbps(5.0)), mbps(100.0));
        let h0 = g.index_of("h0").unwrap();
        let h5 = g.index_of("h5").unwrap();
        assert!((g.path_avail_bw(h0, h5).unwrap() - mbps(5.0)).abs() < 1.0);
    }

    #[test]
    fn distance_matrix_orders_pairs() {
        let g = two_switch_graph(None, mbps(10.0));
        let names: Vec<String> = ["h0", "h1", "h4"].iter().map(|s| s.to_string()).collect();
        let m = g.distance_matrix(&names, 0.0).unwrap();
        assert_eq!(m[0][0], 0.0);
        // Same available bandwidth everywhere: all pair distances equal.
        assert!((m[0][1] - m[0][2]).abs() < 1e-15);
        // With a latency term, the cross-switch pair is farther.
        let ml = g.distance_matrix(&names, 1.0).unwrap();
        assert!(ml[0][2] > ml[0][1]);
    }

    #[test]
    fn best_connected_pair_prefers_clean_paths() {
        let mut g = two_switch_graph(None, mbps(10.0));
        // Load every access link except h2's and h3's.
        for (li, l) in g.links.iter_mut().enumerate() {
            if li != 2 && li != 3 && li < 8 {
                l.avail = [Quartiles::exact(mbps(1.0)), Quartiles::exact(mbps(1.0))];
            }
        }
        g.rebuild_indices();
        let (a, b, bw) = g.best_connected_pair().unwrap();
        let names = [&g.nodes[a].name, &g.nodes[b].name];
        assert!(names.contains(&&"h2".to_string()) && names.contains(&&"h3".to_string()), "{names:?}");
        assert!((bw - mbps(10.0)).abs() < 1.0);
        // Degenerate: single host.
        let lone = RemosGraph::new(
            vec![RemosNode {
                name: "x".into(),
                kind: NodeKind::Compute,
                internal_bw: None,
                host: None,
            }],
            vec![],
        );
        assert!(lone.best_connected_pair().is_none());
    }

    #[test]
    fn dot_rendering() {
        let g = two_switch_graph(Some(mbps(10.0)), mbps(8.0));
        let dot = g.to_dot();
        assert!(dot.starts_with("graph remos {"));
        assert!(dot.contains("\"h0\" [shape=box"));
        assert!(dot.contains("\"A\" [shape=ellipse"));
        assert!(dot.contains("10 Mbps backplane"));
        assert!(dot.contains("\"h0\" -- \"A\""));
        assert!(dot.trim_end().ends_with('}'));
    }

    #[test]
    fn json_dump_has_the_documented_shape() {
        let mut g = two_switch_graph(None, mbps(10.0));
        let backbone = g.links.len() - 1;
        g.links[backbone].quality =
            [DataQuality::Stale { age: SimDuration::from_secs(7) }, DataQuality::Missing];
        let doc = Value::parse(&g.to_json().to_string()).unwrap();
        // Exactly the three public fields; the indices are not dumped.
        let keys: Vec<&str> = doc.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["nodes", "links", "provenance"]);
        assert_eq!(doc.get("provenance"), Some(&Value::Null));
        let nodes = doc.field("nodes", |n| n.list(Ok)).unwrap();
        let links = doc.field("links", |l| l.list(Ok)).unwrap();
        assert_eq!((nodes.len(), links.len()), (g.nodes.len(), g.links.len()));
        for (dumped, node) in nodes.iter().zip(&g.nodes) {
            assert_eq!(dumped.field("name", Value::as_str).unwrap(), node.name);
        }
        let a = g.index_of("A").unwrap();
        assert_eq!(nodes[a].field("kind", Value::as_str).unwrap(), "Network");
        assert_eq!(nodes[a].get("host"), Some(&Value::Null));
        let h0 = &nodes[g.index_of("h0").unwrap()];
        assert_eq!(h0.field("kind", Value::as_str).unwrap(), "Compute");
        let link = links[backbone];
        assert_eq!(link.field("a", Value::as_u64).unwrap() as usize, g.links[backbone].a);
        assert_eq!(link.field("capacity", Value::as_f64).unwrap(), g.links[backbone].capacity);
        assert_eq!(
            link.get("quality").unwrap().to_string(),
            r#"[{"Stale":{"age":7000000000}},"Missing"]"#
        );
        assert_eq!(links[0].get("quality").unwrap().to_string(), r#"["Fresh","Fresh"]"#);
        let avail = link.field("avail", |q| q.list(|d| d.field("median", Value::as_f64))).unwrap();
        assert_eq!(avail, g.links[backbone].avail.map(|q| q.median));
    }

    #[test]
    fn path_quality_is_worst_link_quality() {
        let mut g = two_switch_graph(None, mbps(10.0));
        let h0 = g.index_of("h0").unwrap();
        let h5 = g.index_of("h5").unwrap();
        assert_eq!(g.path_quality(h0, h5).unwrap(), DataQuality::Fresh);
        // Degrade the backbone in the A->B direction only.
        let backbone = g.links.len() - 1;
        let stale = DataQuality::Stale { age: SimDuration::from_secs(7) };
        g.links[backbone].quality = [stale, DataQuality::Fresh];
        g.rebuild_indices();
        assert_eq!(g.path_quality(h0, h5).unwrap(), stale);
        assert_eq!(g.path_quality(h5, h0).unwrap(), DataQuality::Fresh);
    }

    #[test]
    fn directional_annotation() {
        let mut g = two_switch_graph(None, mbps(10.0));
        // Make the backbone asymmetric: A->B busy, B->A idle.
        let backbone = g.links.len() - 1;
        g.links[backbone].avail = [Quartiles::exact(mbps(2.0)), Quartiles::exact(mbps(90.0))];
        g.rebuild_indices();
        let h0 = g.index_of("h0").unwrap();
        let h5 = g.index_of("h5").unwrap();
        assert!((g.path_avail_bw(h0, h5).unwrap() - mbps(2.0)).abs() < 1.0);
        assert!((g.path_avail_bw(h5, h0).unwrap() - mbps(10.0)).abs() < 1.0);
    }
}
