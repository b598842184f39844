//! Node clustering (§7.2).
//!
//! "The application provides an initial start node, which is the first
//! node that is added to the selected cluster of nodes. Next, the node
//! with the shortest distance to the existing nodes in the cluster is
//! determined and added to the cluster. … The above step is repeated until
//! the cluster contains the number of nodes needed for execution."
//!
//! Distances come from a Remos logical-topology query
//! ([`remos_core::RemosGraph::distance_matrix`]). The optimal-set problem
//! "is equivalent to a k-clique problem which is known to be NP-hard"
//! (§7.2 fn. 1); [`exhaustive_cluster`] solves it anyway for testbed-sized
//! pools so the greedy heuristic's quality can be measured.

/// Symmetrize a directional distance matrix by taking the worst direction
/// — synchronous data-parallel phases are gated by their slowest transfer.
pub fn symmetrize_worst(m: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let n = m.len();
    let mut out = vec![vec![0.0; n]; n];
    for i in 0..n {
        for j in 0..n {
            out[i][j] = m[i][j].max(m[j][i]);
        }
    }
    out
}

/// Communication cost of a candidate node set: the sum of pairwise
/// distances. Lower is better. (A sum — rather than the bottleneck max —
/// rewards sets that are close on *all* pairs, matching all-to-all
/// phases.)
pub fn set_comm_cost(dist: &[Vec<f64>], members: &[usize]) -> f64 {
    let mut cost = 0.0;
    for (a, &i) in members.iter().enumerate() {
        for &j in &members[a + 1..] {
            cost += dist[i][j];
        }
    }
    cost
}

/// Greedy cluster selection: grow from `start` by repeatedly adding the
/// node minimizing the summed distance to the current members (ties break
/// toward the lower index, keeping runs deterministic). Returns member
/// indices including `start`, in selection order.
///
/// Panics if `k` exceeds the pool size or `start` is out of range.
pub fn greedy_cluster(dist: &[Vec<f64>], start: usize, k: usize) -> Vec<usize> {
    let n = dist.len();
    assert!(start < n, "start node out of range");
    assert!(k >= 1 && k <= n, "cluster size {k} out of range (pool {n})");
    let mut members = vec![start];
    let mut in_cluster = vec![false; n];
    in_cluster[start] = true;
    while members.len() < k {
        let mut best: Option<(f64, usize)> = None;
        for cand in 0..n {
            if in_cluster[cand] {
                continue;
            }
            let d: f64 = members.iter().map(|&m| dist[m][cand]).sum();
            match best {
                Some((bd, _)) if d >= bd => {}
                _ => best = Some((d, cand)),
            }
        }
        let (_, chosen) = best.expect("pool exhausted before k reached");
        members.push(chosen);
        in_cluster[chosen] = true;
    }
    members
}

/// Exhaustive optimal cluster containing `start`: the k-subset minimizing
/// [`set_comm_cost`]. Exponential; intended for pools the size of the
/// paper's testbed (n ≤ ~20).
pub fn exhaustive_cluster(dist: &[Vec<f64>], start: usize, k: usize) -> Vec<usize> {
    let n = dist.len();
    assert!(start < n && k >= 1 && k <= n);
    let others: Vec<usize> = (0..n).filter(|&i| i != start).collect();
    let mut best_cost = f64::INFINITY;
    let mut best: Vec<usize> = Vec::new();
    let mut current = vec![start];

    fn recur(
        others: &[usize],
        from: usize,
        need: usize,
        current: &mut Vec<usize>,
        dist: &[Vec<f64>],
        best_cost: &mut f64,
        best: &mut Vec<usize>,
    ) {
        if need == 0 {
            let c = set_comm_cost(dist, current);
            if c < *best_cost {
                *best_cost = c;
                *best = current.clone();
            }
            return;
        }
        for idx in from..others.len() {
            if others.len() - idx < need {
                break;
            }
            current.push(others[idx]);
            recur(others, idx + 1, need - 1, current, dist, best_cost, best);
            current.pop();
        }
    }
    recur(&others, 0, k - 1, &mut current, dist, &mut best_cost, &mut best);
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 6 nodes in two triangles {0,1,2} and {3,4,5}: close within a
    /// triangle (1.0), far across (10.0).
    #[allow(clippy::needless_range_loop)]
    fn two_clusters() -> Vec<Vec<f64>> {
        let mut m = vec![vec![0.0; 6]; 6];
        for i in 0..6 {
            for j in 0..6 {
                if i == j {
                    continue;
                }
                m[i][j] = if (i < 3) == (j < 3) { 1.0 } else { 10.0 };
            }
        }
        m
    }

    #[test]
    fn greedy_stays_in_cluster() {
        let m = two_clusters();
        assert_eq!(greedy_cluster(&m, 0, 3), vec![0, 1, 2]);
        assert_eq!(greedy_cluster(&m, 4, 3), vec![4, 3, 5]);
    }

    #[test]
    fn greedy_spills_when_forced() {
        let m = two_clusters();
        let sel = greedy_cluster(&m, 0, 4);
        assert_eq!(&sel[..3], &[0, 1, 2]);
        assert_eq!(sel[3], 3); // tie among 3,4,5 broken by index
    }

    #[test]
    fn exhaustive_matches_greedy_on_easy_instance() {
        let m = two_clusters();
        let g = greedy_cluster(&m, 0, 3);
        let mut e = exhaustive_cluster(&m, 0, 3);
        let mut gs = g.clone();
        gs.sort_unstable();
        e.sort_unstable();
        assert_eq!(gs, e);
    }

    #[test]
    fn exhaustive_beats_greedy_on_adversarial_instance() {
        // Greedy trap: node 1 is very close to 0, but everything else is
        // close to {2,3} and far from 1.
        let inf = 100.0;
        let m = vec![
            vec![0.0, 0.1, 2.0, 2.0], // 0
            vec![0.1, 0.0, inf, inf], // 1
            vec![2.0, inf, 0.0, 0.5], // 2
            vec![2.0, inf, 0.5, 0.0], // 3
        ];
        let g = greedy_cluster(&m, 0, 3); // grabs 1 first, then pays inf
        let e = exhaustive_cluster(&m, 0, 3); // {0,2,3}
        assert!(set_comm_cost(&m, &e) < set_comm_cost(&m, &g));
        let mut es = e.clone();
        es.sort_unstable();
        assert_eq!(es, vec![0, 2, 3]);
    }

    #[test]
    fn set_cost_counts_each_pair_once() {
        let m = two_clusters();
        assert_eq!(set_comm_cost(&m, &[0, 1, 2]), 3.0);
        assert_eq!(set_comm_cost(&m, &[0, 3]), 10.0);
        assert_eq!(set_comm_cost(&m, &[2]), 0.0);
    }

    #[test]
    fn symmetrize_takes_worst_direction() {
        let m = vec![vec![0.0, 1.0], vec![5.0, 0.0]];
        let s = symmetrize_worst(&m);
        assert_eq!(s[0][1], 5.0);
        assert_eq!(s[1][0], 5.0);
    }

    #[test]
    fn k_equals_one() {
        let m = two_clusters();
        assert_eq!(greedy_cluster(&m, 2, 1), vec![2]);
        assert_eq!(exhaustive_cluster(&m, 2, 1), vec![2]);
    }

    mod properties {
        use super::*;
        use remos_prop::prelude::*;

        #[allow(clippy::needless_range_loop)]
        fn arb_dist(n: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
            prop::collection::vec(prop::collection::vec(0.01..100.0f64, n), n).prop_map(
                move |mut m| {
                    for i in 0..n {
                        m[i][i] = 0.0;
                        for j in 0..i {
                            m[i][j] = m[j][i]; // symmetric
                        }
                    }
                    m
                },
            )
        }

        proptest! {
            #[test]
            fn greedy_result_is_valid(m in arb_dist(7), start in 0usize..7, k in 1usize..=7) {
                let sel = greedy_cluster(&m, start, k);
                prop_assert_eq!(sel.len(), k);
                prop_assert_eq!(sel[0], start);
                let mut sorted = sel.clone();
                sorted.sort_unstable();
                sorted.dedup();
                prop_assert_eq!(sorted.len(), k, "duplicates in selection");
            }

            #[test]
            fn exhaustive_never_worse_than_greedy(
                m in arb_dist(7),
                start in 0usize..7,
                k in 1usize..=7,
            ) {
                let g = greedy_cluster(&m, start, k);
                let e = exhaustive_cluster(&m, start, k);
                prop_assert!(
                    set_comm_cost(&m, &e) <= set_comm_cost(&m, &g) + 1e-9,
                    "exhaustive {} > greedy {}",
                    set_comm_cost(&m, &e),
                    set_comm_cost(&m, &g)
                );
            }
        }
    }
}
