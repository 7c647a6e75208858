//! An IS-style bitstring spanning-tree protocol (Section 6 facsimile).
//!
//! The paper builds a spanning tree from the information-spreading protocol
//! of Censor-Hillel & Shachnai [5]: "the information sent by a node v is an
//! n-bit string, characterizing the nodes from which v heard from …
//! initially the n-bit string of node v is a unit vector … The spanning
//! tree … corresponds to each node v declaring its parent as the first node
//! u from which it received a message that caused its most significant bit
//! to change from zero to one."
//!
//! This module implements that interface faithfully — monotone n-bit
//! heard-sets, EXCHANGE gossip, the MSB parent rule, and the alternation
//! between deterministic (odd-step, round-robin) and randomized (even-step,
//! uniform) neighbor choices that [5] prescribes — but *not* the SODA'11
//! protocol's internal list machinery, so it does **not** attain the
//! polylog bound on low-conductance graphs (it is Θ(n) on the barbell, like
//! any uniform-ish neighbor rule). The oracle in [`crate::OracleTree`]
//! stands in for the exact bound; experiments report both (T1.5 in the
//! EXPERIMENTS.md index).

use ag_graph::{Graph, GraphError, NodeId};
use ag_sim::{Action, CommModel, ContactIntent, PartnerSelector, Protocol};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::tree_protocol::TreeProtocol;

/// Compact bitset over node ids — the n-bit string the IS protocol
/// gossips. Public because it is the protocol's message type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeardSet {
    words: Vec<u64>,
}

impl HeardSet {
    fn new(n: usize) -> Self {
        HeardSet {
            words: vec![0; n.div_ceil(64)],
        }
    }

    fn insert(&mut self, v: NodeId) {
        self.words[v / 64] |= 1 << (v % 64);
    }

    fn contains(&self, v: NodeId) -> bool {
        self.words[v / 64] & (1 << (v % 64)) != 0
    }

    fn union_with(&mut self, other: &HeardSet) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }
}

/// The IS-style spanning-tree protocol.
///
/// State per node: a monotone heard-set (n bits). Contacts EXCHANGE
/// heard-sets; a node's parent is the first sender whose message sets the
/// root's bit (the "most significant bit" of the designated root).
/// Neighbor choice alternates round-robin (odd local steps, the
/// deterministic list) and uniform (even local steps).
#[derive(Debug, Clone)]
pub struct IsTree {
    graph: Graph,
    root: NodeId,
    heard: Vec<HeardSet>,
    parent: Vec<Option<NodeId>>,
    rr: PartnerSelector,
    uniform: PartnerSelector,
    steps: Vec<u64>,
}

impl IsTree {
    /// Creates the protocol with designated root `root` (whose bit plays
    /// the MSB role in the parent rule).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError`] if `root` is out of range or the graph is
    /// disconnected.
    pub fn new(graph: &Graph, root: NodeId, seed: u64) -> Result<Self, GraphError> {
        if root >= graph.n() {
            return Err(GraphError::NodeOutOfRange {
                node: root,
                n: graph.n(),
            });
        }
        if !graph.is_connected() {
            return Err(GraphError::InvalidSize(
                "IS tree requires a connected graph".into(),
            ));
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let rr = PartnerSelector::new(graph, CommModel::RoundRobin, &mut rng);
        let uniform = PartnerSelector::new(graph, CommModel::Uniform, &mut rng);
        let mut heard = Vec::with_capacity(graph.n());
        for v in 0..graph.n() {
            let mut h = HeardSet::new(graph.n());
            h.insert(v); // unit vector: every node has heard of itself
            heard.push(h);
        }
        Ok(IsTree {
            graph: graph.clone(),
            root,
            heard,
            parent: vec![None; graph.n()],
            rr,
            uniform,
            steps: vec![0; graph.n()],
        })
    }

    /// Has `v` heard from the root yet?
    #[must_use]
    pub fn heard_root(&self, v: NodeId) -> bool {
        self.heard[v].contains(self.root)
    }
}

impl Protocol for IsTree {
    type Msg = HeardSet;

    fn num_nodes(&self) -> usize {
        self.graph.n()
    }

    fn on_wakeup(&mut self, node: NodeId, rng: &mut StdRng) -> Option<ContactIntent> {
        self.steps[node] += 1;
        // Odd local steps: deterministic (round-robin list); even local
        // steps: uniformly random neighbor — the structure of [5].
        let partner = if self.steps[node] % 2 == 1 {
            self.rr.next_partner(&self.graph, node, rng)?
        } else {
            self.uniform.next_partner(&self.graph, node, rng)?
        };
        Some(ContactIntent {
            partner,
            action: Action::Exchange,
            tag: 0,
        })
    }

    fn compose(&self, from: NodeId, _to: NodeId, _tag: u32, _rng: &mut StdRng) -> Option<HeardSet> {
        Some(self.heard[from].clone())
    }

    fn deliver(&mut self, from: NodeId, to: NodeId, _tag: u32, msg: HeardSet) {
        // MSB rule: the first message that flips the root's bit from 0 to
        // 1 determines the parent.
        if to != self.root
            && self.parent[to].is_none()
            && !self.heard_root(to)
            && msg.contains(self.root)
        {
            self.parent[to] = Some(from);
        }
        self.heard[to].union_with(&msg);
    }

    fn node_complete(&self, node: NodeId) -> bool {
        node == self.root || self.parent[node].is_some()
    }
}

impl TreeProtocol for IsTree {
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

    fn build_tree(g: &Graph, seed: u64) -> (IsTree, ag_sim::RunStats) {
        let mut is = IsTree::new(g, 0, seed).unwrap();
        let stats =
            Engine::new(EngineConfig::synchronous(seed).with_max_rounds(50_000)).run_batch(&mut is);
        (is, stats)
    }

    #[test]
    fn builds_valid_tree_on_standard_families() {
        for g in [
            builders::cycle(12).unwrap(),
            builders::grid(4, 4).unwrap(),
            builders::complete(10).unwrap(),
            builders::binary_tree(15).unwrap(),
        ] {
            let (is, stats) = build_tree(&g, 5);
            assert!(stats.completed, "IS tree incomplete on n = {}", g.n());
            let tree = is.spanning_tree().unwrap();
            assert!(tree.is_spanning_tree_of(&g));
        }
    }

    #[test]
    fn parent_heard_root_before_child() {
        let g = builders::grid(3, 5).unwrap();
        let (is, _) = build_tree(&g, 6);
        // After completion everyone heard the root.
        for v in 0..g.n() {
            assert!(is.heard_root(v));
        }
    }

    #[test]
    fn heard_sets_grow_monotonically() {
        // Short run with an observer-style repeated engine stepping: here
        // just verify the sets only grow across two runs of different length.
        let g = builders::cycle(10).unwrap();
        let is = IsTree::new(&g, 0, 7).unwrap();
        let mut short = is.clone();
        let _ = Engine::new(EngineConfig::synchronous(7).with_max_rounds(2)).run_batch(&mut short);
        let mut long = is;
        let _ = Engine::new(EngineConfig::synchronous(7).with_max_rounds(6)).run_batch(&mut long);
        for v in 0..10 {
            let (early, late) = (&short.heard[v], &long.heard[v]);
            assert!((0..10).all(|u| !early.contains(u) || late.contains(u)));
        }
    }

    #[test]
    fn tree_depends_on_the_protocol_seed() {
        // One engine seed: only the round-robin start pointers, drawn from
        // the protocol seed, tell the two runs apart.
        let g = builders::grid(4, 4).unwrap();
        let parents = |seed| {
            let mut is = IsTree::new(&g, 0, seed).unwrap();
            let stats = Engine::new(EngineConfig::synchronous(9).with_max_rounds(50_000))
                .run_batch(&mut is);
            assert!(stats.completed);
            is.parent
        };
        assert_ne!(parents(1), parents(2));
    }

    #[test]
    fn fast_on_complete_graph() {
        // On K_n the heard-sets double per round: O(log n) completion.
        let g = builders::complete(64).unwrap();
        let (_, stats) = build_tree(&g, 8);
        assert!(stats.completed);
        assert!(
            stats.rounds <= 30,
            "IS tree took {} rounds on K_64",
            stats.rounds
        );
    }

    #[test]
    fn rejects_invalid_inputs() {
        let g = builders::path(4).unwrap();
        assert!(IsTree::new(&g, 10, 0).is_err());
        let dis = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert!(IsTree::new(&dis, 0, 0).is_err());
    }

    #[test]
    fn heardset_primitives() {
        let count = |h: &HeardSet| (0..130).filter(|&v| h.contains(v)).count();
        let mut h = HeardSet::new(130);
        assert_eq!(count(&h), 0);
        h.insert(0);
        h.insert(64);
        h.insert(129);
        assert_eq!(count(&h), 3);
        assert!(h.contains(64));
        assert!(!h.contains(63));
        let mut other = HeardSet::new(130);
        other.insert(63);
        h.union_with(&other);
        assert!(h.contains(63));
        assert_eq!(count(&h), 4);
    }
}
