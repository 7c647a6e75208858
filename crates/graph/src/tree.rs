//! Rooted spanning trees with parent pointers.

use std::error::Error;
use std::fmt;

use crate::graph::NodeId;
use crate::topology::Topology;

/// Error constructing a [`SpanningTree`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TreeError {
    /// The root had a parent, or a non-root had none.
    BadRoot(String),
    /// Parent pointers contain a cycle or an out-of-range node.
    NotATree(String),
}

impl fmt::Display for TreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TreeError::BadRoot(m) => write!(f, "bad root: {m}"),
            TreeError::NotATree(m) => write!(f, "not a tree: {m}"),
        }
    }
}

impl Error for TreeError {}

/// A rooted spanning tree over nodes `0..n`, stored as parent pointers.
///
/// This is the artifact a spanning-tree gossip protocol `S` produces: "every
/// node, except a node which is the root, will have a single neighbor called
/// the parent" (Section 2). TAG's Phase 2 then runs algebraic gossip where
/// each node's fixed communication partner is its parent.
///
/// # Examples
///
/// ```
/// use ag_graph::SpanningTree;
///
/// // A path 0 - 1 - 2 rooted at 0.
/// let t = SpanningTree::from_parents(0, vec![None, Some(0), Some(1)]).unwrap();
/// assert_eq!(t.depth(), 2);
/// assert_eq!(t.children(0), &[1]);
/// assert_eq!(t.tree_diameter(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanningTree {
    root: NodeId,
    parent: Vec<Option<NodeId>>,
    depth: Vec<u32>,
    children: Vec<Vec<NodeId>>,
}

impl SpanningTree {
    /// Validates parent pointers and builds the tree.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError`] if the root has a parent, any other node lacks
    /// one, a parent index is out of range, or the pointers contain a cycle.
    pub fn from_parents(root: NodeId, parent: Vec<Option<NodeId>>) -> Result<Self, TreeError> {
        let n = parent.len();
        if root >= n {
            return Err(TreeError::BadRoot(format!(
                "root {root} out of range for {n} nodes"
            )));
        }
        if parent[root].is_some() {
            return Err(TreeError::BadRoot(format!("root {root} has a parent")));
        }
        for (v, p) in parent.iter().enumerate() {
            if v != root && p.is_none() {
                return Err(TreeError::NotATree(format!(
                    "non-root node {v} has no parent"
                )));
            }
            if let Some(p) = p {
                if *p >= n {
                    return Err(TreeError::NotATree(format!(
                        "parent {p} of node {v} out of range"
                    )));
                }
            }
        }
        // Compute depths iteratively, detecting cycles by depth > n.
        let mut depth = vec![u32::MAX; n];
        depth[root] = 0;
        for v in 0..n {
            // Walk up until a known depth; path length bounded by n.
            let mut chain = Vec::new();
            let mut cur = v;
            let mut steps = 0;
            while depth[cur] == u32::MAX {
                chain.push(cur);
                cur = parent[cur].expect("non-root nodes have parents");
                steps += 1;
                if steps > n {
                    return Err(TreeError::NotATree(format!(
                        "cycle reachable from node {v}"
                    )));
                }
            }
            let mut d = depth[cur];
            for &u in chain.iter().rev() {
                d += 1;
                depth[u] = d;
            }
        }
        let mut children = vec![Vec::new(); n];
        for (v, p) in parent.iter().enumerate() {
            if let Some(p) = p {
                children[*p].push(v);
            }
        }
        Ok(SpanningTree {
            root,
            parent,
            depth,
            children,
        })
    }

    /// The root node.
    #[must_use]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Number of nodes.
    #[must_use]
    pub fn n(&self) -> usize {
        self.parent.len()
    }

    /// Parent of `v` (`None` only for the root).
    #[must_use]
    pub fn parent(&self, v: NodeId) -> Option<NodeId> {
        self.parent[v]
    }

    /// Children of `v`, ascending.
    #[must_use]
    pub fn children(&self, v: NodeId) -> &[NodeId] {
        &self.children[v]
    }

    /// Depth of node `v` (root = 0).
    #[must_use]
    pub fn node_depth(&self, v: NodeId) -> u32 {
        self.depth[v]
    }

    /// Tree depth `l_max`: the maximum node depth.
    #[must_use]
    pub fn depth(&self) -> u32 {
        self.depth.iter().copied().max().unwrap_or(0)
    }

    /// The diameter `d(S)` of the tree *as a graph* (longest path, in
    /// edges). This is the quantity in TAG's bound
    /// `O(k + log n + d(S) + t(S))`.
    ///
    /// Computed by the classic two-pass method via the tree edges.
    #[must_use]
    pub fn tree_diameter(&self) -> u32 {
        // Build adjacency over tree edges and do double BFS.
        let n = self.n();
        if n == 1 {
            return 0;
        }
        let far = |start: NodeId| -> (NodeId, u32) {
            let mut dist = vec![u32::MAX; n];
            dist[start] = 0;
            let mut queue = std::collections::VecDeque::from([start]);
            let mut best = (start, 0);
            while let Some(u) = queue.pop_front() {
                let push =
                    |v: NodeId,
                     du: u32,
                     dist: &mut Vec<u32>,
                     queue: &mut std::collections::VecDeque<NodeId>| {
                        if dist[v] == u32::MAX {
                            dist[v] = du + 1;
                            queue.push_back(v);
                        }
                    };
                let du = dist[u];
                if du > best.1 {
                    best = (u, du);
                }
                if let Some(p) = self.parent[u] {
                    push(p, du, &mut dist, &mut queue);
                }
                for &c in &self.children[u] {
                    push(c, du, &mut dist, &mut queue);
                }
            }
            best
        };
        let (far_node, _) = far(self.root);
        far(far_node).1
    }

    /// The parent-pointer array (index = node).
    #[must_use]
    pub fn parents(&self) -> &[Option<NodeId>] {
        &self.parent
    }

    /// All tree edges `(child, parent)`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.parent
            .iter()
            .enumerate()
            .filter_map(|(v, p)| p.map(|p| (v, p)))
    }

    /// Checks that every tree edge is an edge of `g` — i.e. the tree is a
    /// spanning tree *of that graph* (protocol output validation).
    #[must_use]
    pub fn is_spanning_tree_of(&self, g: &crate::graph::Graph) -> bool {
        self.n() == g.n() && self.edges().all(|(u, v)| g.has_edge(u, v))
    }
}

/// A tree's parent links as a static [`Topology`]: each node's only
/// contact is its parent (degree 1, and 0 at the root), Lemma 1's "the
/// communication partner of a node is fixed to be its parent in `T_n`".
/// Run it with EXCHANGE: over parent links PUSH moves messages only up the
/// tree and PULL only down. `has_edge` answers for a tree edge either way
/// round, the view is connected, and epochs are no-ops.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParentLinks(Vec<Option<NodeId>>);

impl ParentLinks {
    /// The parent links of `tree`.
    #[must_use]
    pub fn new(tree: &SpanningTree) -> Self {
        ParentLinks(tree.parents().to_vec())
    }
}

impl Topology for ParentLinks {
    fn n(&self) -> usize {
        self.0.len()
    }

    fn degree(&self, v: NodeId) -> usize {
        usize::from(self.0[v].is_some())
    }

    fn neighbor_at(&self, v: NodeId, i: usize) -> NodeId {
        self.0[v]
            .filter(|_| i == 0)
            .expect("an index below the degree")
    }

    fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        let parent = |x: NodeId| self.0.get(x).copied().flatten();
        parent(u) == Some(v) || parent(v) == Some(u)
    }

    /// A tree is connected, though a walk over parent links alone reaches
    /// only the root.
    fn is_connected_now(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;

    #[test]
    fn valid_tree_construction() {
        // Star rooted at 0.
        let t = SpanningTree::from_parents(0, vec![None, Some(0), Some(0), Some(0)]).unwrap();
        assert_eq!(t.depth(), 1);
        assert_eq!(t.children(0), &[1, 2, 3]);
        assert_eq!(t.tree_diameter(), 2);
        assert_eq!(t.edges().count(), 3);
    }

    #[test]
    fn rejects_root_with_parent() {
        let err = SpanningTree::from_parents(0, vec![Some(1), None]).unwrap_err();
        assert!(matches!(err, TreeError::BadRoot(_)));
    }

    #[test]
    fn rejects_orphan() {
        let err = SpanningTree::from_parents(0, vec![None, None]).unwrap_err();
        assert!(matches!(err, TreeError::NotATree(_)));
    }

    #[test]
    fn rejects_cycle() {
        // 1 -> 2 -> 1 cycle detached from root 0... but then 1,2 have
        // parents and 0 is root; the walk from 1 never reaches known depth.
        let err = SpanningTree::from_parents(0, vec![None, Some(2), Some(1)]).unwrap_err();
        assert!(matches!(err, TreeError::NotATree(_)));
    }

    #[test]
    fn rejects_out_of_range_parent() {
        let err = SpanningTree::from_parents(0, vec![None, Some(9)]).unwrap_err();
        assert!(matches!(err, TreeError::NotATree(_)));
    }

    #[test]
    fn path_tree_depth_and_diameter() {
        // 0 <- 1 <- 2 <- 3 rooted at 0.
        let t = SpanningTree::from_parents(0, vec![None, Some(0), Some(1), Some(2)]).unwrap();
        assert_eq!(t.depth(), 3);
        assert_eq!(t.tree_diameter(), 3);
        assert_eq!(t.node_depth(3), 3);
    }

    #[test]
    fn mid_rooted_path_diameter_exceeds_depth() {
        // Path 0-1-2-3-4 rooted at the middle (2): depth 2, diameter 4.
        let t =
            SpanningTree::from_parents(2, vec![Some(1), Some(2), None, Some(2), Some(3)]).unwrap();
        assert_eq!(t.depth(), 2);
        assert_eq!(t.tree_diameter(), 4);
    }

    #[test]
    fn bfs_tree_is_spanning_tree_of_its_graph() {
        let g = builders::grid(4, 4).unwrap();
        let t = g.bfs_tree(5).into_spanning_tree();
        assert!(t.is_spanning_tree_of(&g));
        // But not of a disjoint topology.
        let other = builders::path(16).unwrap();
        assert!(!t.is_spanning_tree_of(&other) || t.edges().all(|(u, v)| other.has_edge(u, v)));
    }

    #[test]
    fn single_node_tree() {
        let t = SpanningTree::from_parents(0, vec![None]).unwrap();
        assert_eq!(t.depth(), 0);
        assert_eq!(t.tree_diameter(), 0);
        assert_eq!(t.children(0), &[] as &[NodeId]);
    }

    /// Parent links on a tree rooted mid-path: one contact a node, the
    /// root's none; edges either way round; connected; epochs change
    /// nothing.
    #[test]
    fn parent_links_give_each_node_its_parent_alone() {
        // 0 - 1 - 2 - 3 rooted at 1.
        let t = SpanningTree::from_parents(1, vec![Some(1), None, Some(1), Some(2)]).unwrap();
        let mut links = ParentLinks::new(&t);
        for _ in 0..2 {
            assert_eq!(links.n(), 4);
            assert_eq!(
                (0..4).map(|v| links.degree(v)).collect::<Vec<_>>(),
                [1, 0, 1, 1]
            );
            assert_eq!([0, 2, 3].map(|v| links.neighbor_at(v, 0)), [1, 1, 2]);
            for (u, v) in t.edges() {
                assert!(links.has_edge(u, v) && links.has_edge(v, u), "{u}-{v}");
            }
            assert!(!links.has_edge(0, 2) && !links.has_edge(1, 3) && !links.has_edge(1, 9));
            assert!(links.is_connected_now());
            assert_eq!(links.epoch(), 0);
            links.advance_to_epoch(7);
        }
        assert!(
            ParentLinks::new(&SpanningTree::from_parents(0, vec![None]).unwrap())
                .is_connected_now()
        );
    }
}
