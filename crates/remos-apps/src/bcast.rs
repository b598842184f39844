//! Communication optimization: broadcast strategy selection (§2).
//!
//! "Closely related to the application mapping issues is the problem of
//! exploiting low-level system information, such as network topology. As
//! an example, if an application relies heavily on broadcasts, some
//! subnets (with a specific network architecture) may be better platforms
//! than others." — and §2's closing note that Remos can be used "to
//! optimize primitives in a communication library by customizing the
//! implementation of group communication operations for a particular
//! network."
//!
//! Three broadcast algorithms are provided; [`select_strategy`] picks the
//! one a Remos logical-topology query predicts to finish first, and
//! [`execute_broadcast`] runs any of them with real flows so predictions
//! can be validated against the simulator.

use remos_core::{CoreResult, RemosGraph};
use remos_net::flow::FlowParams;
use remos_net::{NetError, NodeId, SimTime};
use remos_snmp::sim::SharedSim;

/// A broadcast algorithm.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BroadcastStrategy {
    /// The root sends a separate copy to every receiver, all at once.
    /// One round, but the root's uplink carries (P-1) copies.
    Flat,
    /// Binomial tree: in round k every node that has the data forwards to
    /// one that doesn't. ⌈log₂ P⌉ rounds of disjoint pairwise transfers.
    BinomialTree,
    /// Store-and-forward chain: node i forwards to node i+1. P-1 rounds,
    /// each a single transfer.
    Chain,
}

impl BroadcastStrategy {
    /// All strategies.
    pub fn all() -> [BroadcastStrategy; 3] {
        [BroadcastStrategy::Flat, BroadcastStrategy::BinomialTree, BroadcastStrategy::Chain]
    }

    /// The transfer rounds for `p` members (member 0 is the root): each
    /// round is a set of `(src rank, dst rank)` pairs that run
    /// concurrently.
    pub fn rounds(&self, p: usize) -> Vec<Vec<(usize, usize)>> {
        match self {
            BroadcastStrategy::Flat => {
                vec![(1..p).map(|d| (0, d)).collect()]
            }
            BroadcastStrategy::BinomialTree => {
                let mut rounds = Vec::new();
                let mut have = 1; // ranks [0, have) hold the data
                while have < p {
                    let round: Vec<(usize, usize)> = (0..have)
                        .filter_map(|s| {
                            let d = s + have;
                            (d < p).then_some((s, d))
                        })
                        .collect();
                    rounds.push(round);
                    have *= 2;
                }
                rounds
            }
            BroadcastStrategy::Chain => {
                (0..p.saturating_sub(1)).map(|i| vec![(i, i + 1)]).collect()
            }
        }
    }
}

/// Predicted completion time (seconds) of broadcasting `bytes` from
/// `members[0]` over the measured logical topology.
///
/// Round model: concurrent transfers within a round share availability
/// according to how many of them leave the same source (the dominant
/// contention for Flat); the round ends with its slowest transfer.
pub fn predict_broadcast_secs(
    graph: &RemosGraph,
    members: &[String],
    bytes: u64,
    strategy: BroadcastStrategy,
) -> CoreResult<f64> {
    let idx: Vec<usize> =
        members.iter().map(|m| graph.index_of(m)).collect::<CoreResult<_>>()?;
    let mut total = 0.0;
    for round in strategy.rounds(members.len()) {
        let mut slowest: f64 = 0.0;
        for &(s, d) in &round {
            let fan_out = round.iter().filter(|&&(s2, _)| s2 == s).count() as f64;
            let avail = graph.path_avail_bw(idx[s], idx[d])? / fan_out;
            let latency = graph.path_latency(idx[s], idx[d])?.as_secs_f64();
            let t = if avail <= 0.0 {
                f64::INFINITY
            } else {
                bytes as f64 * 8.0 / avail + latency
            };
            slowest = slowest.max(t);
        }
        total += slowest;
    }
    Ok(total)
}

/// Pick the strategy with the lowest predicted completion time (ties
/// break in [`BroadcastStrategy::all`] order).
pub fn select_strategy(
    graph: &RemosGraph,
    members: &[String],
    bytes: u64,
) -> CoreResult<(BroadcastStrategy, f64)> {
    let mut best: Option<(BroadcastStrategy, f64)> = None;
    for s in BroadcastStrategy::all() {
        let t = predict_broadcast_secs(graph, members, bytes, s)?;
        match best {
            Some((_, bt)) if t >= bt => {}
            _ => best = Some((s, t)),
        }
    }
    Ok(best.expect("at least one strategy"))
}

/// Execute a broadcast with real flows; returns the elapsed simulated
/// seconds.
pub fn execute_broadcast(
    sim: &SharedSim,
    members: &[NodeId],
    bytes: u64,
    strategy: BroadcastStrategy,
) -> Result<f64, NetError> {
    let mut s = sim.lock();
    let t0: SimTime = s.now();
    for round in strategy.rounds(members.len()) {
        let mut handles = Vec::with_capacity(round.len());
        for &(src, dst) in &round {
            handles.push(s.start_flow(FlowParams::bulk(members[src], members[dst], bytes))?);
        }
        s.run_until_flows_complete(&handles)?;
    }
    Ok(s.now().since(t0).as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testbed::star;
    use remos_net::Simulator;
    use remos_snmp::sim::share;

    #[test]
    fn rounds_shapes() {
        let flat = BroadcastStrategy::Flat.rounds(5);
        assert_eq!(flat.len(), 1);
        assert_eq!(flat[0].len(), 4);

        let tree = BroadcastStrategy::BinomialTree.rounds(8);
        assert_eq!(tree.len(), 3); // log2(8)
        assert_eq!(tree.iter().map(Vec::len).sum::<usize>(), 7);
        // Every receiver appears exactly once as a destination.
        let mut dsts: Vec<usize> =
            tree.iter().flatten().map(|&(_, d)| d).collect();
        dsts.sort_unstable();
        assert_eq!(dsts, (1..8).collect::<Vec<_>>());

        let chain = BroadcastStrategy::Chain.rounds(4);
        assert_eq!(chain.len(), 3);
        assert_eq!(chain[2], vec![(2, 3)]);
        // A source in round k of the tree must already hold the data.
        let mut have = [true, false, false, false, false, false, false, false];
        for round in &tree {
            for &(s, d) in round {
                assert!(have[s], "round sends from a non-holder");
                have[d] = true;
            }
        }
    }

    #[test]
    fn degenerate_sizes() {
        assert!(BroadcastStrategy::Flat.rounds(1)[0].is_empty());
        assert!(BroadcastStrategy::BinomialTree.rounds(1).is_empty());
        assert!(BroadcastStrategy::Chain.rounds(1).is_empty());
        assert_eq!(BroadcastStrategy::BinomialTree.rounds(2).len(), 1);
    }

    #[test]
    fn tree_beats_flat_on_a_star_and_prediction_agrees() {
        // 8 hosts on one switch: flat serializes 7 copies through the
        // root's uplink; the tree needs only 3 rounds.
        let topo = star(8);
        let sim = share(Simulator::new(topo).unwrap());
        let members: Vec<NodeId> = {
            let s = sim.lock();
            let t = s.topology_arc();
            (0..8).map(|i| t.lookup(&format!("h{i}")).unwrap()).collect()
        };
        let bytes = 1_250_000; // 10 Mbit
        let t_flat =
            execute_broadcast(&sim, &members, bytes, BroadcastStrategy::Flat).unwrap();
        let t_tree =
            execute_broadcast(&sim, &members, bytes, BroadcastStrategy::BinomialTree).unwrap();
        let t_chain =
            execute_broadcast(&sim, &members, bytes, BroadcastStrategy::Chain).unwrap();
        // Flat: 7 copies over one 100 Mbps uplink = 0.7 s.
        assert!((t_flat - 0.7).abs() < 0.01, "{t_flat}");
        // Tree: 3 rounds of parallel disjoint transfers = 0.3 s.
        assert!((t_tree - 0.3).abs() < 0.01, "{t_tree}");
        // Chain: 7 sequential transfers = 0.7 s.
        assert!((t_chain - 0.7).abs() < 0.01, "{t_chain}");
        assert!(t_tree < t_flat && t_tree <= t_chain);
    }

    #[test]
    fn selection_via_remos_graph() {
        use crate::TestbedHarness;
        use remos_core::Query;
        let mut h = TestbedHarness::new(star(8));
        let members: Vec<String> = (0..8).map(|i| format!("h{i}")).collect();
        let g = h
            .adapter
            .remos_mut()
            .run(Query::graph(members.iter().cloned()))
            .unwrap()
            .into_graph()
            .unwrap();
        let (best, t) = select_strategy(&g, &members, 1_250_000).unwrap();
        assert_eq!(best, BroadcastStrategy::BinomialTree);
        assert!((t - 0.3).abs() < 0.05, "{t}");
    }

    #[test]
    fn two_members_all_equal() {
        let topo = star(2);
        let sim = share(Simulator::new(topo).unwrap());
        let members: Vec<NodeId> = {
            let s = sim.lock();
            let t = s.topology_arc();
            (0..2).map(|i| t.lookup(&format!("h{i}")).unwrap()).collect()
        };
        for s in BroadcastStrategy::all() {
            let t = execute_broadcast(&sim, &members, 125_000, s).unwrap();
            assert!((t - 0.01).abs() < 1e-3, "{s:?}: {t}");
        }
    }
}
