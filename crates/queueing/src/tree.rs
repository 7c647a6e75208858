//! `Q^tree_n`: the feed-forward tree of M/M/1 queues (Theorem 2).

use ag_graph::{NodeId, SpanningTree};
use rand::Rng;

use crate::sample_exp;

/// A tree of identical exponential servers with customers draining to the
/// root.
///
/// Because every service time is `Exp(μ)` and servers are work-conserving,
/// the system is a continuous-time Markov chain: when `b` servers are busy
/// the next completion happens after `Exp(b·μ)` and belongs to each busy
/// server with probability `1/b`. The simulation is therefore exact, not a
/// discretization.
///
/// # Examples
///
/// ```
/// use ag_graph::SpanningTree;
/// use ag_queueing::TreeSystem;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// // Root 0 with children 1, 2; one customer at each leaf.
/// let tree = SpanningTree::from_parents(0, vec![None, Some(0), Some(0)]).unwrap();
/// let sys = TreeSystem::new(&tree, vec![0, 1, 1], 1.0).unwrap();
/// let mut rng = StdRng::seed_from_u64(9);
/// assert!(sys.drain_time(&mut rng) > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct TreeSystem {
    /// Parent of each node (`None` for the root).
    parent: Vec<Option<NodeId>>,
    /// Initial customers per node.
    initial: Vec<usize>,
    /// Service rate μ shared by every server.
    mu: f64,
}

impl TreeSystem {
    /// Builds the system from a spanning tree, an initial placement
    /// (customers per node) and a service rate.
    ///
    /// # Errors
    ///
    /// Returns a descriptive error if the placement length differs from the
    /// tree size or `mu` is not positive (NaN included).
    pub fn new(tree: &SpanningTree, initial: Vec<usize>, mu: f64) -> Result<Self, String> {
        if initial.len() != tree.n() {
            return Err(format!(
                "placement has {} entries for a tree of {} nodes",
                initial.len(),
                tree.n()
            ));
        }
        // `mu <= 0.0` alone is false for NaN, whose drain times are NaN.
        if mu.is_nan() || mu <= 0.0 {
            return Err(format!("service rate must be positive, got {mu}"));
        }
        Ok(TreeSystem {
            parent: tree.parents().to_vec(),
            initial,
            mu,
        })
    }

    /// Total customers `k` in the system.
    #[must_use]
    pub fn total_customers(&self) -> usize {
        self.initial.iter().sum()
    }

    /// Number of queues `n`.
    #[must_use]
    pub fn n(&self) -> usize {
        self.parent.len()
    }

    /// Simulates one drain: the time until the last customer leaves the
    /// system via the root, in the same time unit as `1/μ`.
    #[must_use]
    pub fn drain_time<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let mut queue_len = self.initial.clone();
        let mut remaining: usize = queue_len.iter().sum();
        if remaining == 0 {
            return 0.0;
        }
        // Indices of currently busy servers (queue_len > 0), kept as a
        // vector for O(1) uniform choice; membership tracked via position.
        let n = self.parent.len();
        let mut busy: Vec<NodeId> = Vec::with_capacity(n);
        let mut pos: Vec<Option<usize>> = vec![None; n];
        for (v, &q) in queue_len.iter().enumerate() {
            if q > 0 {
                pos[v] = Some(busy.len());
                busy.push(v);
            }
        }
        let mut t = 0.0;
        while remaining > 0 {
            debug_assert!(!busy.is_empty());
            // Next completion: Exp(b * mu); uniformly a busy server.
            let b = busy.len();
            t += sample_exp(b as f64 * self.mu, rng);
            let i = rng.gen_range(0..b);
            let v = busy[i];
            queue_len[v] -= 1;
            if queue_len[v] == 0 {
                // Swap-remove v from the busy set.
                let last = *busy.last().expect("nonempty");
                busy.swap_remove(i);
                pos[last] = if last == v { None } else { Some(i) };
                pos[v] = None;
                if last != v && i < busy.len() {
                    pos[busy[i]] = Some(i);
                }
            }
            match self.parent[v] {
                Some(p) => {
                    queue_len[p] += 1;
                    if pos[p].is_none() {
                        pos[p] = Some(busy.len());
                        busy.push(p);
                    }
                }
                None => {
                    // Serviced at the root: leaves the system.
                    remaining -= 1;
                }
            }
        }
        t
    }

    /// Convenience: many independent drain samples.
    #[must_use]
    pub fn drain_times<R: Rng + ?Sized>(&self, trials: usize, rng: &mut R) -> Vec<f64> {
        (0..trials).map(|_| self.drain_time(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ag_graph::builders;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mean(xs: &[f64]) -> f64 {
        xs.iter().sum::<f64>() / xs.len() as f64
    }

    #[test]
    fn empty_system_drains_instantly() {
        let tree = SpanningTree::from_parents(0, vec![None, Some(0)]).unwrap();
        let sys = TreeSystem::new(&tree, vec![0, 0], 1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(sys.drain_time(&mut rng), 0.0);
    }

    #[test]
    fn single_queue_single_customer_is_one_service() {
        // One node, one customer: drain time ~ Exp(mu), mean 1/mu.
        let tree = SpanningTree::from_parents(0, vec![None]).unwrap();
        let sys = TreeSystem::new(&tree, vec![1], 4.0).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let m = mean(&sys.drain_times(20_000, &mut rng));
        assert!((m - 0.25).abs() < 0.01, "mean {m}");
    }

    #[test]
    fn k_customers_at_root_take_erlang_time() {
        // k customers at the root: sum of k Exp(mu) services -> mean k/mu.
        let tree = SpanningTree::from_parents(0, vec![None]).unwrap();
        let k = 12;
        let sys = TreeSystem::new(&tree, vec![k], 2.0).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let m = mean(&sys.drain_times(5_000, &mut rng));
        assert!((m - k as f64 / 2.0).abs() < 0.15, "mean {m}");
    }

    #[test]
    fn rejects_bad_inputs() {
        let tree = SpanningTree::from_parents(0, vec![None, Some(0)]).unwrap();
        assert!(TreeSystem::new(&tree, vec![1], 1.0).is_err());
        assert!(TreeSystem::new(&tree, vec![1, 0], 0.0).is_err());
        assert!(TreeSystem::new(&tree, vec![1, 0], -1.0).is_err());
        // NaN compares false both ways: refused, not drained in NaN time.
        assert!(TreeSystem::new(&tree, vec![1, 0], f64::NAN).is_err());
    }

    #[test]
    fn theorem2_scaling_in_k_is_roughly_linear() {
        // Fix the tree; drain time should grow ~linearly with k.
        let g = builders::binary_tree(15).unwrap();
        let tree = g.bfs_tree(0).into_spanning_tree();
        let mut rng = StdRng::seed_from_u64(3);
        let time_for_k = |k: usize, rng: &mut StdRng| {
            let mut placement = vec![0usize; 15];
            for i in 0..k {
                placement[1 + (i % 14)] += 1; // spread over non-root nodes
            }
            let sys = TreeSystem::new(&tree, placement, 1.0).unwrap();
            mean(&sys.drain_times(400, rng))
        };
        let t10 = time_for_k(10, &mut rng);
        let t40 = time_for_k(40, &mut rng);
        let ratio = t40 / t10;
        assert!(
            (2.0..8.0).contains(&ratio),
            "4x customers changed time by {ratio}x"
        );
    }

    #[test]
    fn deeper_trees_take_longer() {
        // Same k, same mu: a path of depth 20 beats... is slower than a
        // star of depth 1.
        let star = builders::star(21).unwrap().bfs_tree(0).into_spanning_tree();
        let path = builders::path(21).unwrap().bfs_tree(0).into_spanning_tree();
        let mut placement_star = vec![0usize; 21];
        let mut placement_path = vec![0usize; 21];
        placement_star[20] = 10;
        placement_path[20] = 10; // farthest node in the path
        let mut rng = StdRng::seed_from_u64(4);
        let t_star = mean(
            &TreeSystem::new(&star, placement_star, 1.0)
                .unwrap()
                .drain_times(400, &mut rng),
        );
        let t_path = mean(
            &TreeSystem::new(&path, placement_path, 1.0)
                .unwrap()
                .drain_times(400, &mut rng),
        );
        assert!(
            t_path > t_star + 5.0,
            "path {t_path} should be much slower than star {t_star}"
        );
    }

    #[test]
    fn rate_scales_time_inversely() {
        let tree = SpanningTree::from_parents(0, vec![None, Some(0), Some(1)]).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let slow = TreeSystem::new(&tree, vec![0, 0, 5], 1.0).unwrap();
        let fast = TreeSystem::new(&tree, vec![0, 0, 5], 10.0).unwrap();
        let ms = mean(&slow.drain_times(2_000, &mut rng));
        let mf = mean(&fast.drain_times(2_000, &mut rng));
        let ratio = ms / mf;
        assert!((8.0..12.5).contains(&ratio), "rate-10 speedup was {ratio}");
    }
}
