//! Graph metrics used by the paper's analysis.
//!
//! * [`degree_sum_along_path`] / [`max_shortest_path_degree_sum`] — the
//!   quantity of Lemma 2: "the sum of the degrees of the nodes along any
//!   shortest path between any two nodes is at most 3n". This drives the
//!   `O(n)` bound for BRR broadcast (Theorem 5).
//! * [`conductance_upper_bound`] — a sweep-cut bound on the conductance;
//!   the barbell's single bridge edge is the canonical low-conductance cut
//!   that makes uniform gossip slow.

use crate::graph::{Graph, NodeId};

/// Sum of degrees of the nodes on a given path (inclusive of endpoints).
///
/// # Panics
///
/// Panics if the path is empty or contains an out-of-range node.
#[must_use]
pub fn degree_sum_along_path(g: &Graph, path: &[NodeId]) -> usize {
    assert!(!path.is_empty(), "path must be non-empty");
    path.iter().map(|&v| g.degree(v)).sum()
}

/// The maximum, over all ordered pairs `(u, v)`, of the degree sum along
/// *the BFS shortest path* from `u` to `v`.
///
/// Lemma 2 proves this is at most `3n` for any connected graph. `O(n²·m)`
/// in the worst case — use on simulation-scale graphs.
///
/// # Panics
///
/// Panics if the graph is disconnected.
#[must_use]
pub fn max_shortest_path_degree_sum(g: &Graph) -> usize {
    let mut best = 0;
    for u in 0..g.n() {
        let bfs = g.bfs_tree(u);
        assert_eq!(bfs.reached(), g.n(), "graph must be connected");
        for v in 0..g.n() {
            let path = bfs.path_to(v).expect("connected");
            best = best.max(degree_sum_along_path(g, &path));
        }
    }
    best
}

/// A cheap upper bound on the graph conductance `Φ(G)`: the minimum cut
/// conductance over BFS-ball sweeps from every node.
///
/// For the barbell this finds the bridge cut exactly; for expanders it
/// stays `Ω(1)`. (Exact conductance is NP-hard; a sweep heuristic is the
/// standard substitute and is only used for reporting, never inside a
/// protocol.)
///
/// # Panics
///
/// Panics if the graph has fewer than 2 nodes.
#[must_use]
pub fn conductance_upper_bound(g: &Graph) -> f64 {
    assert!(g.n() >= 2, "conductance needs at least 2 nodes");
    let total = 2 * g.num_edges();
    let mut best = f64::INFINITY;
    let mut in_set = vec![false; g.n()];
    for start in 0..g.n() {
        in_set.fill(false);
        // The cut (S, V \ S) as S grows along the BFS order: adding `v`
        // moves its edges into S off the boundary and the rest onto it.
        let (mut boundary, mut volume) = (0, 0);
        for (i, &v) in g.bfs_tree(start).order().iter().enumerate() {
            let inside = g.neighbors(v).filter(|&u| in_set[u]).count();
            in_set[v] = true;
            boundary = boundary + g.degree(v) - 2 * inside;
            volume += g.degree(v);
            if i + 1 == g.n() {
                break; // S = V: no cut left
            }
            // Conductance |∂S| / min(vol(S), vol(V \ S)); a side of zero
            // volume is a degenerate cut.
            let denom = volume.min(total - volume);
            if denom > 0 {
                best = best.min(boundary as f64 / denom as f64);
            }
        }
    }
    best
}

/// The global minimum edge cut of a connected graph, by the Stoer–Wagner
/// algorithm (`O(n³)` with the simple selection step — fine at simulation
/// scale).
///
/// This is the `γ` (min-cut) quantity in Haeupler's bound
/// `O(k/γ + log²n/λ)` that the paper's Table 2 compares against: the line
/// and the barbell have `γ = 1`, the complete graph `γ = n − 1`.
///
/// # Panics
///
/// Panics if the graph has fewer than 2 nodes or is disconnected.
#[must_use]
pub fn global_min_cut(g: &Graph) -> usize {
    assert!(g.n() >= 2, "min cut needs at least 2 nodes");
    assert!(g.is_connected(), "min cut of a disconnected graph is 0");
    // Weighted adjacency matrix that Stoer-Wagner contracts in place.
    let n = g.n();
    let mut w = vec![vec![0u64; n]; n];
    for (u, v) in g.edges() {
        w[u][v] = 1;
        w[v][u] = 1;
    }
    let mut active: Vec<usize> = (0..n).collect();
    let mut best = u64::MAX;
    while active.len() > 1 {
        // Maximum-adjacency search over the active super-nodes.
        let m = active.len();
        let mut weight_to_a = vec![0u64; m]; // connectivity into the A set
        let mut in_a = vec![false; m];
        let mut prev = 0usize;
        let mut last = 0usize;
        for _ in 0..m {
            let mut pick = None;
            for (i, &added) in in_a.iter().enumerate() {
                if !added && pick.is_none_or(|p: usize| weight_to_a[i] > weight_to_a[p]) {
                    pick = Some(i);
                }
            }
            let s = pick.expect("some node remains");
            in_a[s] = true;
            prev = last;
            last = s;
            for i in 0..m {
                if !in_a[i] {
                    weight_to_a[i] += w[active[s]][active[i]];
                }
            }
        }
        // Cut-of-the-phase: `last` alone vs the rest.
        best = best.min(weight_to_a[last]);
        // Contract `last` into `prev`.
        let (lp, ll) = (active[prev], active[last]);
        #[allow(
            clippy::needless_range_loop,
            reason = "the body writes both w[lp][i] and w[i][lp], which no iterator borrow allows"
        )]
        for i in 0..n {
            w[lp][i] += w[ll][i];
            w[i][lp] = w[lp][i];
        }
        w[lp][lp] = 0;
        active.remove(last);
    }
    usize::try_from(best).expect("cut fits usize")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn degree_sum_on_path_graph() {
        let g = builders::path(5).unwrap();
        // Path 0..4: degrees 1,2,2,2,1 -> sum over the whole path = 8 <= 15.
        let p = g.shortest_path(0, 4).unwrap();
        assert_eq!(degree_sum_along_path(&g, &p), 8);
        assert!(degree_sum_along_path(&g, &p) <= 3 * g.n());
    }

    #[test]
    fn lemma2_holds_on_fixed_families() {
        for g in [
            builders::path(20).unwrap(),
            builders::cycle(15).unwrap(),
            builders::complete(12).unwrap(),
            builders::grid(4, 5).unwrap(),
            builders::barbell(14).unwrap(),
            builders::binary_tree(31).unwrap(),
            builders::star(16).unwrap(),
            builders::hypercube(4).unwrap(),
            builders::lollipop(8, 6).unwrap(),
        ] {
            let m = max_shortest_path_degree_sum(&g);
            assert!(
                m <= 3 * g.n(),
                "Lemma 2 violated: max degree sum {m} > 3n = {}",
                3 * g.n()
            );
        }
    }

    #[test]
    fn lemma2_holds_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(77);
        for _ in 0..5 {
            let g = builders::erdos_renyi_connected(25, 0.2, &mut rng).unwrap();
            assert!(max_shortest_path_degree_sum(&g) <= 3 * g.n());
            let r = builders::random_regular(20, 4, &mut rng).unwrap();
            assert!(max_shortest_path_degree_sum(&r) <= 3 * r.n());
        }
    }

    #[test]
    fn conductance_bound_small_on_barbell_large_on_complete() {
        let barbell = builders::barbell(16).unwrap();
        let complete = builders::complete(16).unwrap();
        let phi_b = conductance_upper_bound(&barbell);
        let phi_c = conductance_upper_bound(&complete);
        assert!(phi_b < 0.05, "barbell conductance bound {phi_b} too large");
        assert!(phi_c > 0.3, "complete conductance bound {phi_c} too small");
        // The sweep finds the bridge of barbell(10): one edge over
        // vol(K₅ side) = 4·4 + 5 = 21.
        let phi = conductance_upper_bound(&builders::barbell(10).unwrap());
        assert_eq!(phi, 1.0 / 21.0);
    }

    #[test]
    fn min_cut_known_families() {
        assert_eq!(global_min_cut(&builders::path(8).unwrap()), 1);
        assert_eq!(global_min_cut(&builders::cycle(8).unwrap()), 2);
        assert_eq!(global_min_cut(&builders::complete(7).unwrap()), 6);
        assert_eq!(global_min_cut(&builders::barbell(12).unwrap()), 1);
        assert_eq!(global_min_cut(&builders::binary_tree(15).unwrap()), 1);
        assert_eq!(global_min_cut(&builders::hypercube(4).unwrap()), 4);
        assert_eq!(global_min_cut(&builders::grid(3, 5).unwrap()), 2);
        assert_eq!(global_min_cut(&builders::star(6).unwrap()), 1);
    }

    #[test]
    fn min_cut_bounded_by_min_degree() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..5 {
            let g = builders::erdos_renyi_connected(18, 0.3, &mut rng).unwrap();
            assert!(global_min_cut(&g) <= g.min_degree());
            assert!(global_min_cut(&g) >= 1);
        }
    }

    #[test]
    fn min_cut_two_nodes() {
        let g = builders::path(2).unwrap();
        assert_eq!(global_min_cut(&g), 1);
    }

    #[test]
    #[should_panic(expected = "disconnected")]
    fn min_cut_rejects_disconnected() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        let _ = global_min_cut(&g);
    }
}
