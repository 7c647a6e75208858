//! TAG: Tree-based Algebraic Gossip (Section 4).

use ag_gf::SlabField;
use ag_graph::{Graph, GraphError, NodeId, SpanningTree, Topology};
use ag_rlnc::Generation;
use ag_sim::{Action, ContactIntent, Protocol};
use rand::rngs::StdRng;

use crate::ag::AgConfig;
use crate::coded_nodes::{require_connected, CodedNodes};
use crate::tree_protocol::TreeProtocol;

/// The message type of [`Tag`]: Phase-1 (spanning tree) or Phase-2 (RLNC).
#[derive(Debug, Clone)]
pub enum TagMsg<M> {
    /// A spanning-tree protocol message.
    Tree(M),
    /// An algebraic-gossip coded message: the index of its packed row in
    /// the round's message slab, or `None` for a receiver whose span
    /// contained the sender's at compose (no row, one redundant reception
    /// on delivery), exactly as [`crate::AlgebraicGossip`] moves them.
    Ag(Option<u32>),
}

/// Contact tags distinguishing TAG's phases inside the engine.
const TAG_PHASE1: u32 = 1;
const TAG_PHASE2: u32 = 2;

/// The TAG protocol: "if a node wakes up when the total number of its
/// wakeups until now is odd, it acts according to Phase 1 [the spanning
/// tree protocol S]. If … even, it acts according to Phase 2 [EXCHANGE
/// algebraic gossip with its parent]."
///
/// Phase 2 is idle until the node obtains a parent, after which its fixed
/// communication partner is that parent — which removes the `Δ` factor
/// from the uniform-gossip bound and yields Theorem 4:
/// `t(TAG) = O(k + log n + d(S) + t(S))` w.h.p.
///
/// # Examples
///
/// ```
/// use ag_gf::Gf256;
/// use ag_graph::builders;
/// use ag_sim::{CommModel, Engine, EngineConfig};
/// use algebraic_gossip::{AgConfig, BroadcastTree, Tag};
///
/// // TAG with B_RR on the barbell: the paper's headline configuration.
/// let g = builders::barbell(12).unwrap();
/// let brr = BroadcastTree::new(&g, 0, CommModel::RoundRobin, 5).unwrap();
/// let cfg = AgConfig::new(12); // k = n: all-to-all
/// let mut tag = Tag::<Gf256, _>::new(&g, brr, &cfg, 5).unwrap();
/// let stats = Engine::new(EngineConfig::synchronous(5).with_max_rounds(100_000))
///     .run(&mut tag);
/// assert!(stats.completed);
/// ```
#[derive(Debug, Clone)]
pub struct Tag<F: SlabField, S, T: Topology = Graph> {
    topology: T,
    tree: S,
    nodes: CodedNodes<F>,
    wakeups: Vec<u64>,
}

impl<F: SlabField, S: TreeProtocol> Tag<F, S, Graph> {
    /// Builds TAG over `graph` using `tree` as the Phase-1 protocol `S`.
    ///
    /// `cfg.comm_model` is ignored (Phase 2's partner is always the
    /// parent; Phase 1 uses `S`'s own rule); `cfg.action` is ignored in
    /// Phase 2, which is EXCHANGE per the paper's pseudo-code. Everything
    /// else in `cfg` configures the RLNC state exactly as it does for
    /// [`crate::AlgebraicGossip`].
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidSize`] if `k == 0`, the graph is
    /// disconnected, `tree` is for a different node count,
    /// `cfg.coding_density` is outside `(0, 1]` or a custom placement does
    /// not list `k` hosts, and [`GraphError::NodeOutOfRange`] if
    /// `cfg.placement` names a host that is not a node.
    pub fn new(graph: &Graph, tree: S, cfg: &AgConfig, seed: u64) -> Result<Self, GraphError> {
        Self::on_topology(graph.clone(), tree, cfg, seed)
    }

    /// Like [`Tag::new`] but disseminating the *given* generation (real
    /// data, e.g. from [`ag_rlnc::BlockEncoder`]).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidSize`] on shape mismatch, disconnected
    /// graph, or tree-size mismatch.
    pub fn new_with_generation(
        graph: &Graph,
        tree: S,
        cfg: &AgConfig,
        generation: Generation<F>,
        seed: u64,
    ) -> Result<Self, GraphError> {
        Self::on_topology_with_generation(graph.clone(), tree, cfg, generation, seed)
    }
}

impl<F: SlabField, S: TreeProtocol, T: Topology> Tag<F, S, T> {
    /// Builds TAG over an owned [`Topology`]. `tree` should read through
    /// the *same* schedule (e.g. a clone of the same
    /// `ScheduledTopology`): TAG forwards the engines' round-start hook
    /// to both its own view and `tree`'s, so the two advance in lockstep.
    /// Phase-2 contacts additionally check that the tree edge to the
    /// parent still exists in the current view — a cut parent edge makes
    /// the node sit the phase out, which is exactly how TAG's
    /// static-tree advantage erodes under the F9 bridge-cut adversary.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidSize`] if `k == 0`, the initial view
    /// is disconnected, or `tree` is for a different node count.
    pub fn on_topology(
        topology: T,
        tree: S,
        cfg: &AgConfig,
        seed: u64,
    ) -> Result<Self, GraphError> {
        Self::build(topology, tree, cfg, None, seed)
    }

    /// [`Tag::on_topology`] with the *given* generation.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidSize`] on shape mismatch, a
    /// disconnected initial view, or tree-size mismatch.
    pub fn on_topology_with_generation(
        topology: T,
        tree: S,
        cfg: &AgConfig,
        generation: Generation<F>,
        seed: u64,
    ) -> Result<Self, GraphError> {
        Self::build(topology, tree, cfg, Some(generation), seed)
    }

    /// Both constructors: `generation`, or the random one `seed` draws.
    fn build(
        topology: T,
        tree: S,
        cfg: &AgConfig,
        generation: Option<Generation<F>>,
        seed: u64,
    ) -> Result<Self, GraphError> {
        // Phase 2 is EXCHANGE: two messages per contact.
        let (nodes, _) = CodedNodes::new(topology.n(), cfg, generation, seed, 2, || {
            require_connected(&topology)?;
            if tree.num_nodes() != topology.n() {
                return Err(GraphError::InvalidSize(format!(
                    "tree protocol covers {} nodes but graph has {}",
                    tree.num_nodes(),
                    topology.n()
                )));
            }
            Ok(())
        })?;
        let wakeups = vec![0; topology.n()];
        Ok(Tag {
            topology,
            tree,
            nodes,
            wakeups,
        })
    }

    /// The Phase-1 protocol.
    #[must_use]
    pub fn tree_protocol(&self) -> &S {
        &self.tree
    }

    /// The finished spanning tree, once Phase 1 completes.
    #[must_use]
    pub fn spanning_tree(&self) -> Option<SpanningTree> {
        self.tree.spanning_tree()
    }

    /// The ground-truth generation.
    #[must_use]
    pub fn generation(&self) -> &Generation<F> {
        &self.nodes.generation
    }

    /// Node `v`'s current rank.
    #[must_use]
    pub fn rank(&self, v: NodeId) -> usize {
        self.nodes.basis.rank(v)
    }

    /// Node `v`'s decoded messages once complete.
    #[must_use]
    pub fn decoded(&self, v: NodeId) -> Option<Vec<Vec<F>>> {
        self.nodes.basis.solution(v)
    }
}

impl<F: SlabField, S: TreeProtocol, T: Topology> Protocol for Tag<F, S, T> {
    type Msg = TagMsg<S::Msg>;

    fn num_nodes(&self) -> usize {
        self.topology.n()
    }

    fn on_round_start(&mut self, round: u64) {
        self.nodes.rewind();
        // Advance both views in lockstep (no-ops for static topologies).
        self.topology.advance_to_epoch(round.saturating_sub(1));
        self.tree.on_round_start(round);
    }

    fn on_wakeup(&mut self, node: NodeId, rng: &mut StdRng) -> Option<ContactIntent> {
        self.wakeups[node] += 1;
        if self.wakeups[node] % 2 == 1 {
            // Phase 1: one step of the spanning-tree protocol S.
            let mut intent = self.tree.on_wakeup(node, rng)?;
            intent.tag = TAG_PHASE1;
            Some(intent)
        } else {
            // Phase 2: EXCHANGE algebraic gossip with the parent, if any —
            // and only while the tree edge still exists in the current
            // view. Statically a parent is always a neighbor (it was
            // learned over a contact), so the check never fires; under
            // churn a cut parent edge idles the phase.
            let parent = self.tree.parent(node)?;
            if !self.topology.has_edge(node, parent) {
                return None;
            }
            Some(ContactIntent {
                partner: parent,
                action: Action::Exchange,
                tag: TAG_PHASE2,
            })
        }
    }

    fn compose(&self, from: NodeId, to: NodeId, tag: u32, rng: &mut StdRng) -> Option<Self::Msg> {
        if tag == TAG_PHASE2 {
            return self.nodes.compose(from, to, rng).map(TagMsg::Ag);
        }
        debug_assert_eq!(tag, TAG_PHASE1, "TAG labels every contact it returns");
        self.tree.compose(from, to, 0, rng).map(TagMsg::Tree)
    }

    fn deliver(&mut self, from: NodeId, to: NodeId, _tag: u32, msg: Self::Msg) {
        // "On contact from other node w: if w performs Phase 1, exchange
        // according to S; else exchange according to algebraic gossip."
        // The message variant itself carries the phase.
        match msg {
            TagMsg::Tree(m) => self.tree.deliver(from, to, 0, m),
            TagMsg::Ag(row) => self.nodes.deliver(from, to, row),
        }
    }

    fn discard(&mut self, msg: Self::Msg) {
        if let TagMsg::Tree(m) = msg {
            self.tree.discard(m);
        }
    }

    fn node_complete(&self, node: NodeId) -> bool {
        self.nodes.basis.is_full(node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broadcast::BroadcastTree;
    use crate::oracle::OracleTree;
    use crate::placement::Placement;
    use ag_gf::{Gf2, Gf256};
    use ag_graph::builders;
    use ag_sim::{CommModel, Engine, EngineConfig, TimeModel};

    fn run_tag_brr<F: SlabField>(
        g: &Graph,
        cfg: &AgConfig,
        time: TimeModel,
        seed: u64,
    ) -> (Tag<F, BroadcastTree>, ag_sim::RunStats) {
        let brr = BroadcastTree::new(g, 0, CommModel::RoundRobin, seed).unwrap();
        let mut tag = Tag::<F, _>::new(g, brr, cfg, seed).unwrap();
        let ecfg = match time {
            TimeModel::Synchronous => EngineConfig::synchronous(seed),
            TimeModel::Asynchronous => EngineConfig::asynchronous(seed),
        }
        .with_max_rounds(500_000);
        let stats = Engine::new(ecfg).run(&mut tag);
        (tag, stats)
    }

    #[test]
    fn tag_brr_completes_and_decodes_on_barbell() {
        let g = builders::barbell(12).unwrap();
        let cfg = AgConfig::new(12).with_payload_len(2);
        let (tag, stats) = run_tag_brr::<Gf256>(&g, &cfg, TimeModel::Synchronous, 3);
        assert!(stats.completed);
        for v in 0..12 {
            assert_eq!(tag.decoded(v).unwrap(), tag.generation().messages());
        }
        // Phase 1 finished too, and the tree is genuine.
        let tree = tag.spanning_tree().unwrap();
        assert!(tree.is_spanning_tree_of(&g));
    }

    #[test]
    fn tag_completes_asynchronously() {
        let g = builders::grid(3, 4).unwrap();
        let cfg = AgConfig::new(6);
        let (_, stats) = run_tag_brr::<Gf256>(&g, &cfg, TimeModel::Asynchronous, 9);
        assert!(stats.completed);
    }

    #[test]
    fn tag_with_gf2_on_path() {
        let g = builders::path(8).unwrap();
        let cfg = AgConfig::new(8);
        let (_, stats) = run_tag_brr::<Gf2>(&g, &cfg, TimeModel::Synchronous, 1);
        assert!(stats.completed);
    }

    #[test]
    fn tag_with_oracle_tree() {
        let g = builders::barbell(16).unwrap();
        let oracle = OracleTree::new(&g, 0, 4).unwrap();
        let cfg = AgConfig::new(8).with_placement(Placement::Random);
        let mut tag = Tag::<Gf256, _>::new(&g, oracle, &cfg, 2).unwrap();
        let stats =
            Engine::new(EngineConfig::synchronous(2).with_max_rounds(100_000)).run(&mut tag);
        assert!(stats.completed);
        let tree = tag.spanning_tree().unwrap();
        assert!(tree.is_spanning_tree_of(&g));
    }

    #[test]
    fn tag_beats_theorem4_bound_with_margin() {
        // t(TAG) = O(k + log n + d(S) + t(S)); with BRR, t(S) <= 3n and
        // the TAG interleaving doubles it. Check a x16 constant.
        let g = builders::barbell(16).unwrap();
        let k = 16;
        let cfg = AgConfig::new(k);
        let (_, stats) = run_tag_brr::<Gf256>(&g, &cfg, TimeModel::Synchronous, 13);
        assert!(stats.completed);
        let bound = ag_analysis::tag_bound(k, g.n(), g.n() as u32, 6.0 * g.n() as f64);
        assert!(
            (stats.rounds as f64) < 16.0 * bound,
            "{} rounds vs bound {bound}",
            stats.rounds
        );
    }

    #[test]
    fn rejects_mismatched_tree_size() {
        let g = builders::path(6).unwrap();
        let other = builders::path(5).unwrap();
        let brr = BroadcastTree::new(&other, 0, CommModel::RoundRobin, 0).unwrap();
        assert!(Tag::<Gf256, _>::new(&g, brr, &AgConfig::new(2), 0).is_err());
    }

    #[test]
    fn deterministic_under_seed() {
        let g = builders::barbell(10).unwrap();
        let cfg = AgConfig::new(5);
        let (_, a) = run_tag_brr::<Gf256>(&g, &cfg, TimeModel::Asynchronous, 42);
        let (_, b) = run_tag_brr::<Gf256>(&g, &cfg, TimeModel::Asynchronous, 42);
        assert_eq!(a, b);
    }

    #[test]
    fn phase2_idle_until_parent_known() {
        // With an oracle that reveals very late, no AG packets flow early:
        // after a few rounds every rank is still the seeded value.
        let g = builders::cycle(8).unwrap();
        let oracle = OracleTree::new(&g, 0, 1_000).unwrap();
        let cfg = AgConfig::new(8);
        let mut tag = Tag::<Gf256, _>::new(&g, oracle, &cfg, 3).unwrap();
        let _ = Engine::new(EngineConfig::synchronous(3).with_max_rounds(10)).run(&mut tag);
        for v in 0..8 {
            assert_eq!(tag.rank(v), 1, "node {v} gained rank before Phase 1 ended");
        }
    }
}
