//! Partner selection: the paper's gossip communication models.

use ag_graph::{NodeId, Topology};
use rand::rngs::StdRng;
use rand::Rng;

/// Which communication model a protocol uses to pick partners.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CommModel {
    /// Definition 1 (Uniform Gossip): "a communication partner is chosen
    /// randomly and uniformly among all the neighbors."
    #[default]
    Uniform,
    /// Definition 2 (Round-Robin Gossip): "the communication partner is
    /// chosen according to a fixed, cyclic list of the node's neighbors
    /// … If the initial partner is chosen at random, this … is known as
    /// the quasirandom rumor spreading model."
    RoundRobin,
}

/// Stateful partner selector for every node of a topology.
///
/// For [`CommModel::RoundRobin`] each node keeps an **absolute** contact
/// counter, reduced modulo the node's *current* degree at each pick; the
/// initial counter is random, per the quasirandom model. Storing the
/// counter unreduced (instead of pre-reduced modulo the degree at pick
/// time, as an earlier version did) is what makes the selector correct
/// over a dynamic [`Topology`]: when churn changes a node's degree the
/// cycle simply continues at `counter mod new_degree`, whereas a
/// pre-reduced cursor silently remapped which neighbor came next and
/// could skip or repeat neighbors. At fixed degree the two laws are
/// identical (`counter ≡ cursor (mod d)` is preserved by `+1`), so
/// static-topology behavior is bit-for-bit unchanged — pinned by
/// `static_round_robin_sequences_are_unchanged` below.
///
/// For [`CommModel::Uniform`] each call samples fresh from the current
/// neighbor view; the selector keeps no per-node state and draws nothing
/// when it is built.
///
/// # Examples
///
/// ```
/// use ag_graph::builders;
/// use ag_sim::{CommModel, PartnerSelector};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let g = builders::cycle(5).unwrap();
/// let mut rng = StdRng::seed_from_u64(3);
/// let mut sel = PartnerSelector::new(&g, CommModel::RoundRobin, &mut rng);
/// // Two consecutive picks by the same node hit both neighbors.
/// let a = sel.next_partner(&g, 0, &mut rng).unwrap();
/// let b = sel.next_partner(&g, 0, &mut rng).unwrap();
/// assert_ne!(a, b);
/// ```
#[derive(Debug, Clone)]
pub struct PartnerSelector {
    model: CommModel,
    /// Absolute round-robin contact counter per node (empty for
    /// Uniform); reduced modulo the current degree at each pick.
    cursor: Vec<u64>,
}

impl PartnerSelector {
    /// Creates a selector; round-robin counters start at random offsets
    /// within the node's initial degree. A uniform selector leaves `rng`
    /// untouched.
    #[must_use]
    pub fn new<T: Topology + ?Sized>(topology: &T, model: CommModel, rng: &mut StdRng) -> Self {
        let cursor = match model {
            CommModel::Uniform => Vec::new(),
            CommModel::RoundRobin => (0..topology.n())
                .map(|v| match topology.degree(v) {
                    0 => 0,
                    d => rng.gen_range(0..d) as u64,
                })
                .collect(),
        };
        PartnerSelector { model, cursor }
    }

    /// The configured model.
    #[must_use]
    pub fn model(&self) -> CommModel {
        self.model
    }

    /// Picks the next partner for `v` under `topology`'s current view, or
    /// `None` if `v` currently has no neighbors (a round-robin node's
    /// counter does not advance on such an idle wakeup).
    pub fn next_partner<T: Topology + ?Sized>(
        &mut self,
        topology: &T,
        v: NodeId,
        rng: &mut StdRng,
    ) -> Option<NodeId> {
        let d = topology.degree(v);
        if d == 0 {
            return None;
        }
        match self.model {
            CommModel::Uniform => Some(topology.neighbor_at(v, rng.gen_range(0..d))),
            CommModel::RoundRobin => {
                let idx = (self.cursor[v] % d as u64) as usize;
                self.cursor[v] = self.cursor[v].wrapping_add(1);
                Some(topology.neighbor_at(v, idx))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ag_graph::{builders, ChurnSchedule, ScheduledTopology};
    use rand::SeedableRng;

    #[test]
    fn round_robin_cycles_all_neighbors() {
        let g = builders::star(6).unwrap(); // hub 0 with 5 leaves
        let mut rng = StdRng::seed_from_u64(1);
        let mut sel = PartnerSelector::new(&g, CommModel::RoundRobin, &mut rng);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..5 {
            seen.insert(sel.next_partner(&g, 0, &mut rng).unwrap());
        }
        assert_eq!(seen.len(), 5, "one full cycle visits every neighbor once");
        // Second cycle repeats the same fixed order.
        let first_again = sel.next_partner(&g, 0, &mut rng).unwrap();
        let mut sel2 = sel.clone();
        for _ in 0..4 {
            sel2.next_partner(&g, 0, &mut rng).unwrap();
        }
        assert_eq!(sel2.next_partner(&g, 0, &mut rng).unwrap(), first_again);
    }

    /// Pins the exact pick sequences the pre-fix (modulo-stored cursor)
    /// implementation produced on static graphs: the absolute-counter fix
    /// must be invisible whenever degrees never change. The literals were
    /// generated by the original implementation.
    #[test]
    fn static_round_robin_sequences_are_unchanged() {
        let g = builders::star(6).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let mut sel = PartnerSelector::new(&g, CommModel::RoundRobin, &mut rng);
        let seq: Vec<_> = (0..12)
            .map(|_| sel.next_partner(&g, 0, &mut rng).unwrap())
            .collect();
        assert_eq!(seq, vec![3, 4, 5, 1, 2, 3, 4, 5, 1, 2, 3, 4]);

        let g2 = builders::grid(3, 3).unwrap();
        let mut rng2 = StdRng::seed_from_u64(7);
        let mut sel2 = PartnerSelector::new(&g2, CommModel::RoundRobin, &mut rng2);
        let expected: [(usize, [usize; 8]); 3] = [
            (0, [3, 1, 3, 1, 3, 1, 3, 1]),
            (4, [5, 7, 1, 3, 5, 7, 1, 3]),
            (8, [7, 5, 7, 5, 7, 5, 7, 5]),
        ];
        for (v, want) in expected {
            let seq: Vec<_> = (0..8)
                .map(|_| sel2.next_partner(&g2, v, &mut rng2).unwrap())
                .collect();
            assert_eq!(seq, want, "node {v}");
        }
    }

    /// Regression for the cursor-aliasing bug: the pre-fix selector stored
    /// the cursor reduced modulo the *current* degree, so a degree change
    /// silently remapped which neighbor came next. The absolute counter
    /// must follow the law `pick_t = neighbor_at(v, (c0 + t) mod d_t)`
    /// across arbitrary degree changes.
    #[test]
    fn round_robin_counter_survives_degree_changes() {
        // Same node 0 at degree 5 (star) and degree 2 (cycle view of the
        // same node count).
        let wide = builders::star(6).unwrap();
        let narrow = builders::cycle(6).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let mut sel = PartnerSelector::new(&wide, CommModel::RoundRobin, &mut rng);
        // Learn the initial counter from the first pick at degree 5.
        let first = sel.next_partner(&wide, 0, &mut rng).unwrap();
        let c0 = (0..5)
            .find(|&i| ag_graph::Topology::neighbor_at(&wide, 0, i) == first)
            .unwrap() as u64;
        // Alternate views; every pick must follow the absolute law.
        let views: [(&ag_graph::Graph, u64); 6] = [
            (&narrow, 2),
            (&wide, 5),
            (&narrow, 2),
            (&narrow, 2),
            (&wide, 5),
            (&narrow, 2),
        ];
        for (t, (view, d)) in views.iter().enumerate() {
            let got = sel.next_partner(*view, 0, &mut rng).unwrap();
            let want_idx = ((c0 + 1 + t as u64) % d) as usize;
            assert_eq!(
                got,
                ag_graph::Topology::neighbor_at(*view, 0, want_idx),
                "pick {t} at degree {d}"
            );
        }
    }

    /// End-to-end dynamic sanity: picks under a churning topology are
    /// always current-epoch neighbors, and a degree-0 epoch yields `None`
    /// without advancing the counter.
    #[test]
    fn round_robin_over_scheduled_topology_stays_valid() {
        let g = builders::cycle(8).unwrap();
        let mut topo = ScheduledTopology::new(&g, ChurnSchedule::rewire(0.5, 4));
        let mut rng = StdRng::seed_from_u64(9);
        let mut sel = PartnerSelector::new(&topo, CommModel::RoundRobin, &mut rng);
        for epoch in 0..30 {
            topo.advance_to_epoch(epoch);
            for v in 0..topo.n() {
                match sel.next_partner(&topo, v, &mut rng) {
                    Some(u) => assert!(topo.has_edge(v, u), "epoch {epoch}: {v} picked {u}"),
                    None => assert_eq!(topo.degree(v), 0),
                }
            }
        }
    }

    #[test]
    fn uniform_covers_all_neighbors_eventually() {
        let g = builders::complete(8).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let mut sel = PartnerSelector::new(&g, CommModel::Uniform, &mut rng);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..300 {
            seen.insert(sel.next_partner(&g, 3, &mut rng).unwrap());
        }
        assert_eq!(seen.len(), 7);
        assert!(!seen.contains(&3), "never selects itself");
    }

    #[test]
    fn uniform_selector_leaves_the_rng_where_it_found_it() {
        let g = builders::grid(4, 4).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let mut untouched = StdRng::seed_from_u64(6);
        let sel = PartnerSelector::new(&g, CommModel::Uniform, &mut rng);
        assert!(sel.cursor.is_empty(), "no per-node state");
        let next: [u64; 4] = std::array::from_fn(|_| rng.gen());
        assert_eq!(next, std::array::from_fn(|_| untouched.gen()));
    }

    #[test]
    fn isolated_node_has_no_partner() {
        let g = ag_graph::Graph::from_edges(3, &[(0, 1)]).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let mut sel = PartnerSelector::new(&g, CommModel::Uniform, &mut rng);
        assert_eq!(sel.next_partner(&g, 2, &mut rng), None);
    }

    #[test]
    fn partners_are_always_neighbors() {
        let g = builders::grid(3, 3).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        for model in [CommModel::Uniform, CommModel::RoundRobin] {
            let mut sel = PartnerSelector::new(&g, model, &mut rng);
            for v in 0..g.n() {
                for _ in 0..10 {
                    let u = sel.next_partner(&g, v, &mut rng).unwrap();
                    assert!(g.has_edge(v, u), "{model:?} picked non-neighbor");
                }
            }
        }
    }

    #[test]
    fn random_initial_cursor_varies_across_nodes() {
        // With 16 nodes of degree 15, at least two cursors should differ.
        let g = builders::complete(16).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let sel = PartnerSelector::new(&g, CommModel::RoundRobin, &mut rng);
        let all_same = sel.cursor.windows(2).all(|w| w[0] == w[1]);
        assert!(!all_same);
    }
}
