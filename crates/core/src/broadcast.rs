//! Spanning trees from 1-dissemination (Section 4.1 and Theorem 5).
//!
//! "When a node receives for the first time the message, it marks the
//! sending node as its parent. In such a way we obtain a spanning tree
//! rooted at the node that initiated the broadcast protocol."
//!
//! With the round-robin communication model this is the paper's `B_RR`:
//! Theorem 5 shows it broadcasts in at most `3n` synchronous rounds with
//! probability 1 (via Lemma 2: degree sums along shortest paths are ≤ 3n)
//! and `O(n)` asynchronous rounds w.h.p.

use ag_graph::{Graph, GraphError, NodeId, Topology};
use ag_sim::{Action, CommModel, ContactIntent, PartnerSelector, Protocol};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::tree_protocol::TreeProtocol;

/// Broadcast-based spanning-tree protocol (uniform or round-robin).
///
/// The broadcast message itself carries no data — reception is what
/// matters — so `Msg = ()`. Informed nodes gossip every wakeup; an
/// uninformed node still wakes (and, under EXCHANGE, thereby *pulls* from
/// an informed partner, which the paper's EXCHANGE variant exploits).
///
/// Neighbors are read through a [`Topology`] view (default: the static
/// [`Graph`]); over a `ScheduledTopology` the contact schedule follows the
/// churn, which is how TAG's Phase 1 degrades under the F9 bridge-cut
/// adversary.
#[derive(Debug, Clone)]
pub struct BroadcastTree<T: Topology = Graph> {
    topology: T,
    root: NodeId,
    informed: Vec<bool>,
    parent: Vec<Option<NodeId>>,
    selector: PartnerSelector,
    action: Action,
}

impl BroadcastTree<Graph> {
    /// Creates the protocol with the message initially at `root`.
    ///
    /// `comm` selects uniform gossip or the round-robin (`B_RR`) variant.
    /// `seed` fixes the round-robin starting offsets (the quasirandom
    /// model's random initial pointer).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError`] if `root` is out of range or the graph is
    /// disconnected.
    pub fn new(
        graph: &Graph,
        root: NodeId,
        comm: CommModel,
        seed: u64,
    ) -> Result<Self, GraphError> {
        Self::on_topology(graph.clone(), root, comm, seed)
    }
}

impl<T: Topology> BroadcastTree<T> {
    /// [`BroadcastTree::new`] over an owned [`Topology`] (static or
    /// scheduled), with the identical seed discipline.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError`] if `root` is out of range or the initial
    /// view is disconnected.
    pub fn on_topology(
        topology: T,
        root: NodeId,
        comm: CommModel,
        seed: u64,
    ) -> Result<Self, GraphError> {
        if root >= topology.n() {
            return Err(GraphError::NodeOutOfRange {
                node: root,
                n: topology.n(),
            });
        }
        if !topology.is_connected_now() {
            return Err(GraphError::InvalidSize(
                "broadcast requires a connected (initial) graph".into(),
            ));
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let selector = PartnerSelector::new(&topology, comm, &mut rng);
        let mut informed = vec![false; topology.n()];
        informed[root] = true;
        let parent = vec![None; topology.n()];
        Ok(BroadcastTree {
            topology,
            root,
            informed,
            parent,
            selector,
            action: Action::Exchange,
        })
    }

    /// Overrides the gossip action (the paper proves Theorem 5 for PUSH
    /// and notes it also holds for EXCHANGE, the default here).
    #[must_use]
    pub fn with_action(mut self, action: Action) -> Self {
        self.action = action;
        self
    }
}

impl<T: Topology> Protocol for BroadcastTree<T> {
    type Msg = ();

    fn num_nodes(&self) -> usize {
        self.topology.n()
    }

    fn on_round_start(&mut self, round: u64) {
        self.topology.advance_to_epoch(round.saturating_sub(1));
    }

    fn on_wakeup(&mut self, node: NodeId, rng: &mut StdRng) -> Option<ContactIntent> {
        // Every node follows its schedule; uninformed nodes' contacts
        // still matter under EXCHANGE/PULL (they can pull the message).
        let partner = self.selector.next_partner(&self.topology, node, rng)?;
        Some(ContactIntent {
            partner,
            action: self.action,
            tag: 0,
        })
    }

    fn compose(&self, from: NodeId, _to: NodeId, _tag: u32, _rng: &mut StdRng) -> Option<()> {
        self.informed[from].then_some(())
    }

    fn deliver(&mut self, from: NodeId, to: NodeId, _tag: u32, _msg: ()) {
        if !self.informed[to] {
            self.informed[to] = true;
            self.parent[to] = Some(from);
        }
    }

    fn node_complete(&self, node: NodeId) -> bool {
        self.informed[node]
    }
}

impl<T: Topology> TreeProtocol for BroadcastTree<T> {
    fn root(&self) -> NodeId {
        self.root
    }

    fn parent(&self, node: NodeId) -> Option<NodeId> {
        self.parent[node]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ag_graph::builders;
    use ag_sim::{Engine, EngineConfig};

    fn run_broadcast(
        g: &Graph,
        comm: CommModel,
        cfg: EngineConfig,
        seed: u64,
    ) -> (BroadcastTree, ag_sim::RunStats) {
        let mut b = BroadcastTree::new(g, 0, comm, seed).unwrap();
        let stats = Engine::new(cfg).run_batch(&mut b);
        (b, stats)
    }

    #[test]
    fn produces_valid_spanning_tree() {
        let g = builders::grid(4, 4).unwrap();
        let (b, stats) = run_broadcast(&g, CommModel::Uniform, EngineConfig::synchronous(3), 3);
        assert!(stats.completed);
        let tree = b.spanning_tree().unwrap();
        assert!(tree.is_spanning_tree_of(&g));
        assert_eq!(tree.root(), 0);
    }

    #[test]
    fn brr_sync_finishes_within_3n_rounds() {
        // Theorem 5: with probability 1, B_RR broadcasts within 3n
        // synchronous rounds — deterministically, for any RR offsets.
        for seed in 0..10 {
            for g in [
                builders::barbell(16).unwrap(),
                builders::path(20).unwrap(),
                builders::star(15).unwrap(),
                builders::lollipop(8, 8).unwrap(),
            ] {
                let (_, stats) = run_broadcast(
                    &g,
                    CommModel::RoundRobin,
                    EngineConfig::synchronous(seed).with_max_rounds(3 * g.n() as u64 + 1),
                    seed,
                );
                assert!(
                    stats.completed,
                    "B_RR exceeded 3n rounds on n = {} (seed {seed})",
                    g.n()
                );
            }
        }
    }

    #[test]
    fn brr_async_is_linear_whp() {
        let g = builders::barbell(20).unwrap();
        let (_, stats) = run_broadcast(
            &g,
            CommModel::RoundRobin,
            EngineConfig::asynchronous(5).with_max_rounds(6 * g.n() as u64),
            5,
        );
        assert!(stats.completed, "async B_RR exceeded 6n rounds");
    }

    #[test]
    fn uniform_broadcast_slow_on_barbell_fast_on_complete() {
        // Uniform broadcast crosses the barbell bridge with prob ~2/n per
        // round; B_RR crosses deterministically within deg rounds. On the
        // complete graph both are fast.
        let barbell = builders::barbell(24).unwrap();
        let (_, s_uniform) = run_broadcast(
            &barbell,
            CommModel::Uniform,
            EngineConfig::synchronous(1).with_max_rounds(10_000),
            1,
        );
        let (_, s_rr) = run_broadcast(
            &barbell,
            CommModel::RoundRobin,
            EngineConfig::synchronous(1).with_max_rounds(10_000),
            1,
        );
        assert!(s_uniform.completed && s_rr.completed);
        assert!(
            s_rr.rounds <= 3 * barbell.n() as u64,
            "B_RR took {} rounds",
            s_rr.rounds
        );
    }

    #[test]
    fn parent_is_always_a_neighbor_and_informed_earlier() {
        let g = builders::binary_tree(31).unwrap();
        let (b, _) = run_broadcast(&g, CommModel::Uniform, EngineConfig::asynchronous(9), 9);
        let tree = b.spanning_tree().unwrap();
        for (child, parent) in tree.edges() {
            assert!(g.has_edge(child, parent));
        }
    }

    #[test]
    fn rejects_bad_root_and_disconnected() {
        let g = builders::path(4).unwrap();
        assert!(BroadcastTree::new(&g, 9, CommModel::Uniform, 0).is_err());
        let dis = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert!(BroadcastTree::new(&dis, 0, CommModel::Uniform, 0).is_err());
    }

    #[test]
    fn push_only_broadcast_also_completes() {
        let g = builders::cycle(10).unwrap();
        let mut b = BroadcastTree::new(&g, 0, CommModel::RoundRobin, 2)
            .unwrap()
            .with_action(Action::Push);
        let stats = Engine::new(EngineConfig::synchronous(2)).run_batch(&mut b);
        assert!(stats.completed);
        assert!(stats.rounds <= 3 * 10);
    }
}
