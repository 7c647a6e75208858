//! Algebraic gossip on a fixed tree (the setting of Lemma 1).
//!
//! "Consider algebraic gossip EXCHANGE protocol with the following
//! communication model: the communication partner of a node is fixed to be
//! its parent in `T_n` during the whole protocol. Then, the time needed for
//! all the nodes to learn all the k messages is `O(k + log n + l_max)`
//! rounds…" — this is TAG's Phase 2 in isolation, and the experiment that
//! isolates the queueing bound from tree-construction time.

use ag_gf::SlabField;
use ag_graph::{GraphError, NodeId, SpanningTree};
use ag_rlnc::Generation;
use ag_sim::{Action, ContactIntent, Protocol};
use rand::rngs::StdRng;

use crate::ag::AgConfig;
use crate::coded_nodes::CodedNodes;

/// EXCHANGE algebraic gossip where every node's partner is its tree parent.
///
/// # Examples
///
/// ```
/// use ag_gf::Gf256;
/// use ag_graph::builders;
/// use ag_sim::{Engine, EngineConfig};
/// use algebraic_gossip::{AgConfig, TreeAg};
///
/// let g = builders::binary_tree(15).unwrap();
/// let tree = g.bfs_tree(0).into_spanning_tree();
/// let mut proto = TreeAg::<Gf256>::new(&tree, &AgConfig::new(15), 4).unwrap();
/// let stats = Engine::new(EngineConfig::synchronous(4).with_max_rounds(100_000))
///     .run(&mut proto);
/// assert!(stats.completed);
/// ```
#[derive(Debug, Clone)]
pub struct TreeAg<F: SlabField> {
    tree: SpanningTree,
    nodes: CodedNodes<F>,
}

impl<F: SlabField> TreeAg<F> {
    /// Builds the protocol on a spanning tree.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidSize`] if `k == 0`,
    /// `cfg.coding_density` is outside `(0, 1]` or a custom placement does
    /// not list `k` hosts, and [`GraphError::NodeOutOfRange`] if
    /// `cfg.placement` names a host that is not a node.
    pub fn new(tree: &SpanningTree, cfg: &AgConfig, seed: u64) -> Result<Self, GraphError> {
        let generation = CodedNodes::random_generation(cfg, seed)?;
        // EXCHANGE with the parent: two messages per contact.
        let (nodes, _) = CodedNodes::new(tree.n(), cfg, generation, seed, 2)?;
        Ok(TreeAg {
            tree: tree.clone(),
            nodes,
        })
    }

    /// The ground-truth generation.
    #[must_use]
    pub fn generation(&self) -> &Generation<F> {
        &self.nodes.generation
    }

    /// Node `v`'s decoded messages once complete.
    #[must_use]
    pub fn decoded(&self, v: NodeId) -> Option<Vec<Vec<F>>> {
        self.nodes.basis.solution(v)
    }

    /// Node `v`'s current rank.
    #[must_use]
    pub fn rank(&self, v: NodeId) -> usize {
        self.nodes.basis.rank(v)
    }
}

impl<F: SlabField> Protocol for TreeAg<F> {
    /// Row indices into the round's message slab, or no row for a
    /// receiver whose span contained the sender's at compose, as in
    /// [`crate::AlgebraicGossip`].
    type Msg = Option<u32>;

    fn num_nodes(&self) -> usize {
        self.tree.n()
    }

    fn on_round_start(&mut self, _round: u64) {
        self.nodes.rewind();
    }

    fn on_wakeup(&mut self, node: NodeId, _rng: &mut StdRng) -> Option<ContactIntent> {
        let parent = self.tree.parent(node)?;
        Some(ContactIntent {
            partner: parent,
            action: Action::Exchange,
            tag: 0,
        })
    }

    fn compose(
        &self,
        from: NodeId,
        to: NodeId,
        _tag: u32,
        rng: &mut StdRng,
    ) -> Option<Option<u32>> {
        self.nodes.compose(from, to, rng)
    }

    fn deliver(&mut self, from: NodeId, to: NodeId, _tag: u32, msg: Option<u32>) {
        self.nodes.deliver(from, to, msg);
    }

    fn node_complete(&self, node: NodeId) -> bool {
        self.nodes.basis.is_full(node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::Placement;
    use ag_gf::Gf256;
    use ag_graph::builders;
    use ag_sim::{Engine, EngineConfig};

    fn run(tree: &SpanningTree, cfg: &AgConfig, seed: u64) -> (TreeAg<Gf256>, ag_sim::RunStats) {
        let mut proto = TreeAg::<Gf256>::new(tree, cfg, seed).unwrap();
        let stats =
            Engine::new(EngineConfig::synchronous(seed).with_max_rounds(200_000)).run(&mut proto);
        (proto, stats)
    }

    #[test]
    fn all_to_all_on_path_tree() {
        let tree = builders::path(10).unwrap().bfs_tree(0).into_spanning_tree();
        let (proto, stats) = run(&tree, &AgConfig::new(10).with_payload_len(1), 5);
        assert!(stats.completed);
        for v in 0..10 {
            assert_eq!(proto.decoded(v).unwrap(), proto.generation().messages());
        }
    }

    #[test]
    fn lemma1_scaling_k_dominates_on_shallow_trees() {
        // On a star (depth 1), time is Θ(k): doubling k roughly doubles
        // rounds.
        let tree = builders::star(16).unwrap().bfs_tree(0).into_spanning_tree();
        let (_, s1) = run(
            &tree,
            &AgConfig::new(8).with_placement(Placement::Random),
            7,
        );
        let (_, s2) = run(
            &tree,
            &AgConfig::new(32).with_placement(Placement::Random),
            7,
        );
        assert!(s1.completed && s2.completed);
        let ratio = s2.rounds as f64 / s1.rounds as f64;
        assert!(
            (1.5..10.0).contains(&ratio),
            "4x k scaled rounds by {ratio} ({} -> {})",
            s1.rounds,
            s2.rounds
        );
    }

    #[test]
    fn bidirectional_flow_reaches_leaves() {
        // Seed everything at a leaf: messages must flow up AND back down.
        let tree = builders::path(6).unwrap().bfs_tree(0).into_spanning_tree();
        let cfg = AgConfig::new(3).with_placement(Placement::SingleSource(5));
        let (proto, stats) = run(&tree, &cfg, 3);
        assert!(stats.completed);
        assert_eq!(proto.decoded(0).unwrap(), proto.generation().messages());
    }

    #[test]
    fn root_only_node_is_trivially_special() {
        // Single-node tree with k messages at the root: complete at t=0.
        let tree = SpanningTree::from_parents(0, vec![None]).unwrap();
        let (_, stats) = run(&tree, &AgConfig::new(3), 1);
        assert!(stats.completed);
        assert_eq!(stats.rounds, 0);
    }
}
