//! The [`TreeProtocol`] trait: spanning-tree gossip protocols `S`.

use ag_graph::{NodeId, SpanningTree};
use ag_sim::Protocol;

/// A *gossip STP protocol* (Section 2): a gossip protocol whose goal is
/// that "every node, except a node which is the root, will have a single
/// neighbor called the parent."
///
/// It is an [`ag_sim::Protocol`] like any other, so it runs standalone
/// under [`ag_sim::Engine`] (which is how `t(S)` and `d(S)` are measured),
/// under [`crate::WithCrashes`] and under `run_observed`, with
/// `node_complete(v)` = "`v` is the root or has a parent"; this trait adds
/// the two questions [`crate::Tag`] asks of its Phase 1. `Tag` relabels a
/// Phase-1 contact with its own phase tag and hands `S` tag 0, so a tree
/// protocol's `compose` and `deliver` must not depend on the tag.
///
/// # Examples
///
/// ```
/// use ag_graph::builders;
/// use ag_sim::{CommModel, Engine, EngineConfig};
/// use algebraic_gossip::{BroadcastTree, TreeProtocol};
///
/// let g = builders::cycle(8).unwrap();
/// let mut bcast = BroadcastTree::new(&g, 0, CommModel::RoundRobin, 1).unwrap();
/// let stats = Engine::new(EngineConfig::synchronous(1)).run(&mut bcast);
/// assert!(stats.completed);
/// let tree = bcast.spanning_tree().unwrap();
/// assert!(tree.is_spanning_tree_of(&g));
/// ```
pub trait TreeProtocol: Protocol {
    /// The designated root (the node that never obtains a parent).
    fn root(&self) -> NodeId;

    /// The parent `node` has obtained so far (always `None` for the root).
    fn parent(&self, node: NodeId) -> Option<NodeId>;

    /// True once every non-root node has a parent.
    fn is_tree_complete(&self) -> bool {
        let root = self.root();
        (0..self.num_nodes()).all(|v| v == root || self.parent(v).is_some())
    }

    /// The finished spanning tree, or `None` before completion.
    fn spanning_tree(&self) -> Option<SpanningTree> {
        if !self.is_tree_complete() {
            return None;
        }
        let parents = (0..self.num_nodes()).map(|v| self.parent(v)).collect();
        SpanningTree::from_parents(self.root(), parents).ok()
    }
}
