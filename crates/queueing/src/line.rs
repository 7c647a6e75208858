//! `Q^line` and its modified placements (Definitions 6–8 of the paper).

use ag_graph::SpanningTree;
use rand::Rng;

use crate::tree::TreeSystem;

/// A line of M/M/1 queues `Z^lmax → … → Z^1`, customers draining out of
/// queue `Z^1` (the paper's Definitions 6–8).
///
/// Internally a [`TreeSystem`] over a path rooted at the exit, so the same
/// exact CTMC simulation applies. Index 0 is the exit queue `Z^1`; index
/// `lmax − 1` is the farthest queue `Z^lmax`.
///
/// # Examples
///
/// ```
/// use ag_queueing::LineSystem;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(5);
/// // Q̂^line: every customer starts at the farthest queue.
/// let hat = LineSystem::all_at_tail(6, 20, 1.0);
/// assert_eq!(hat.lmax(), 6);
/// assert!(hat.drain_time(&mut rng) > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct LineSystem {
    inner: TreeSystem,
    lmax: usize,
    placement: Vec<usize>,
    mu: f64,
}

impl LineSystem {
    /// A line of `lmax` queues with an explicit placement
    /// (`placement[i]` = customers initially in queue `i`, exit = 0).
    ///
    /// # Panics
    ///
    /// Panics if `lmax == 0`, `placement.len() != lmax`, or `mu` is not
    /// positive (NaN included).
    #[must_use]
    pub fn new(lmax: usize, placement: Vec<usize>, mu: f64) -> Self {
        assert!(lmax > 0, "need at least one queue");
        assert_eq!(placement.len(), lmax, "placement length must equal lmax");
        assert!(mu > 0.0, "service rate must be positive");
        // Path rooted at node 0 (the exit): parent(i) = i - 1.
        let parents = (0..lmax)
            .map(|i| if i == 0 { None } else { Some(i - 1) })
            .collect();
        let tree = SpanningTree::from_parents(0, parents).expect("a path is a tree");
        let inner = TreeSystem::new(&tree, placement.clone(), mu)
            .expect("the asserts above are every TreeSystem precondition");
        LineSystem {
            inner,
            lmax,
            placement,
            mu,
        }
    }

    /// `Q̂^line` (Definition 8): all `k` customers start at the farthest
    /// queue — the stochastically *slowest* placement (Corollary 1).
    ///
    /// # Panics
    ///
    /// Panics if `lmax == 0` or `mu <= 0`.
    #[must_use]
    pub fn all_at_tail(lmax: usize, k: usize, mu: f64) -> Self {
        let mut placement = vec![0; lmax];
        placement[lmax - 1] = k;
        LineSystem::new(lmax, placement, mu)
    }

    /// `Q̀^line` (Definition 7): this system's placement with one customer
    /// moved one queue *backward* (from queue `m` to queue `m + 1`).
    ///
    /// Returns `None` when queue `m` is empty or `m` is the last queue.
    #[must_use]
    pub fn push_one_back(&self, m: usize) -> Option<Self> {
        if m + 1 >= self.lmax || self.placement[m] == 0 {
            return None;
        }
        let mut p = self.placement.clone();
        p[m] -= 1;
        p[m + 1] += 1;
        Some(LineSystem::new(self.lmax, p, self.mu))
    }

    /// Number of queues.
    #[must_use]
    pub fn lmax(&self) -> usize {
        self.lmax
    }

    /// Total customers.
    #[must_use]
    pub fn total_customers(&self) -> usize {
        self.placement.iter().sum()
    }

    /// Initial placement (index 0 = exit queue).
    #[must_use]
    pub fn placement(&self) -> &[usize] {
        &self.placement
    }

    /// One simulated drain time.
    #[must_use]
    pub fn drain_time<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.inner.drain_time(rng)
    }

    /// Many independent drain samples.
    #[must_use]
    pub fn drain_times<R: Rng + ?Sized>(&self, trials: usize, rng: &mut R) -> Vec<f64> {
        self.inner.drain_times(trials, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mean(xs: &[f64]) -> f64 {
        xs.iter().sum::<f64>() / xs.len() as f64
    }

    #[test]
    fn tail_placement_shape() {
        let s = LineSystem::all_at_tail(5, 7, 1.0);
        assert_eq!(s.placement(), &[0, 0, 0, 0, 7]);
        assert_eq!(s.total_customers(), 7);
    }

    #[test]
    fn single_queue_line_is_erlang() {
        let s = LineSystem::all_at_tail(1, 5, 1.0);
        let mut rng = StdRng::seed_from_u64(1);
        let m = mean(&s.drain_times(10_000, &mut rng));
        assert!((m - 5.0).abs() < 0.15, "mean {m}");
    }

    #[test]
    fn push_one_back_moves_a_customer() {
        let s = LineSystem::new(4, vec![2, 1, 0, 0], 1.0);
        let moved = s.push_one_back(0).unwrap();
        assert_eq!(moved.placement(), &[1, 2, 0, 0]);
        assert!(s.push_one_back(2).is_none(), "queue 2 is empty");
        assert!(s.push_one_back(3).is_none(), "last queue cannot move back");
    }

    #[test]
    fn lemma6_backward_move_is_slower_on_average() {
        // Lemma 6: moving one customer backward stochastically delays
        // every departure. Check the means with paired sampling.
        let base = LineSystem::new(3, vec![5, 0, 0], 1.0);
        let moved = base.push_one_back(0).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let mb = mean(&base.drain_times(6_000, &mut rng));
        let mm = mean(&moved.drain_times(6_000, &mut rng));
        assert!(
            mm > mb,
            "moved-back system should be slower: base {mb}, moved {mm}"
        );
    }

    #[test]
    fn corollary1_tail_is_slowest_placement() {
        // Among placements of 6 customers in 4 queues, all-at-tail has the
        // largest mean drain time.
        let mut rng = StdRng::seed_from_u64(3);
        let tail = LineSystem::all_at_tail(4, 6, 1.0);
        let spread = LineSystem::new(4, vec![2, 2, 1, 1], 1.0);
        let front = LineSystem::new(4, vec![6, 0, 0, 0], 1.0);
        let mt = mean(&tail.drain_times(4_000, &mut rng));
        let ms = mean(&spread.drain_times(4_000, &mut rng));
        let mf = mean(&front.drain_times(4_000, &mut rng));
        assert!(mt > ms && ms > mf, "tail {mt} > spread {ms} > front {mf}");
    }

    #[test]
    #[should_panic(expected = "placement length")]
    fn bad_placement_length_panics() {
        let _ = LineSystem::new(3, vec![1], 1.0);
    }

    #[test]
    #[should_panic(expected = "service rate must be positive")]
    fn nan_service_rate_panics() {
        let _ = LineSystem::new(2, vec![1, 0], f64::NAN);
    }
}
