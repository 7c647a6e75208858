//! Breadth-first search, distances, diameter, connectivity.

use std::collections::VecDeque;

use crate::graph::{Graph, NodeId};
use crate::topology::Topology;
use crate::tree::SpanningTree;

/// The result of a BFS from a root: parents, distances, visit order.
///
/// The proofs of Theorems 1 and 2 start by running BFS from an arbitrary
/// node `v` to obtain "a directed shortest path spanning tree `T_n` rooted
/// at `v`" whose depth `l_max` is at most the diameter `D`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BfsResult {
    root: NodeId,
    parent: Vec<Option<NodeId>>,
    dist: Vec<Option<u32>>,
    order: Vec<NodeId>,
}

impl BfsResult {
    /// The BFS root.
    #[must_use]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Parent of `v` in the BFS tree (`None` for the root and for
    /// unreachable nodes).
    #[must_use]
    pub fn parent(&self, v: NodeId) -> Option<NodeId> {
        self.parent[v]
    }

    /// Hop distance from the root (`None` if unreachable).
    #[must_use]
    pub fn dist(&self, v: NodeId) -> Option<u32> {
        self.dist[v]
    }

    /// Nodes in visit order (root first). Unreachable nodes are absent.
    #[must_use]
    pub fn order(&self) -> &[NodeId] {
        &self.order
    }

    /// Number of reached nodes (including the root).
    #[must_use]
    pub fn reached(&self) -> usize {
        self.order.len()
    }

    /// Depth of the BFS tree (`l_max` in the paper): the largest distance.
    #[must_use]
    pub fn depth(&self) -> u32 {
        self.dist.iter().flatten().copied().max().unwrap_or(0)
    }

    /// The shortest path from the root to `v` (inclusive), or `None` if
    /// unreachable.
    #[must_use]
    pub fn path_to(&self, v: NodeId) -> Option<Vec<NodeId>> {
        self.dist[v]?;
        let mut path = vec![v];
        let mut cur = v;
        while let Some(p) = self.parent[cur] {
            path.push(p);
            cur = p;
        }
        path.reverse();
        Some(path)
    }

    /// Converts into a [`SpanningTree`] (requires the graph was connected).
    ///
    /// # Panics
    ///
    /// Panics if some node was unreachable.
    #[must_use]
    pub fn into_spanning_tree(self) -> SpanningTree {
        assert_eq!(
            self.reached(),
            self.parent.len(),
            "BFS did not reach every node; graph is disconnected"
        );
        SpanningTree::from_parents(self.root, self.parent)
            .expect("BFS parents always form a valid tree")
    }
}

impl Graph {
    /// BFS from `root`, producing the shortest-path tree.
    ///
    /// # Panics
    ///
    /// Panics if `root >= n`.
    #[must_use]
    pub fn bfs_tree(&self, root: NodeId) -> BfsResult {
        assert!(root < self.n(), "root out of range");
        let n = self.n();
        let mut parent = vec![None; n];
        let mut dist = vec![None; n];
        let mut order = Vec::with_capacity(n);
        let mut queue = VecDeque::new();
        dist[root] = Some(0);
        queue.push_back(root);
        while let Some(u) = queue.pop_front() {
            order.push(u);
            let du = dist[u].expect("queued nodes have distances");
            for v in self.neighbors(u) {
                if dist[v].is_none() {
                    dist[v] = Some(du + 1);
                    parent[v] = Some(u);
                    queue.push_back(v);
                }
            }
        }
        BfsResult {
            root,
            parent,
            dist,
            order,
        }
    }

    /// True when every node is reachable from node 0, by the crate's one
    /// walk ([`Topology::is_connected_now`]): O(n + m), O(1) on `K_n`.
    #[must_use]
    pub fn is_connected(&self) -> bool {
        self.is_connected_now()
    }

    /// The eccentricity of `v`: the largest hop distance from `v`.
    ///
    /// # Panics
    ///
    /// Panics if the graph is disconnected (eccentricity undefined).
    #[must_use]
    pub fn eccentricity(&self, v: NodeId) -> u32 {
        let bfs = self.bfs_tree(v);
        assert_eq!(
            bfs.reached(),
            self.n(),
            "eccentricity undefined on a disconnected graph"
        );
        bfs.depth()
    }

    /// The exact diameter `D` via all-pairs BFS (`O(n·m)`).
    ///
    /// Fine for simulation-scale graphs (n up to a few thousand).
    ///
    /// # Panics
    ///
    /// Panics if the graph is disconnected.
    #[must_use]
    pub fn diameter(&self) -> u32 {
        (0..self.n())
            .map(|v| self.eccentricity(v))
            .max()
            .unwrap_or(0)
    }

    /// Hop distance between two nodes, or `None` if disconnected.
    #[must_use]
    pub fn distance(&self, u: NodeId, v: NodeId) -> Option<u32> {
        self.bfs_tree(u).dist(v)
    }

    /// The shortest path between two nodes (inclusive), or `None`.
    #[must_use]
    pub fn shortest_path(&self, u: NodeId, v: NodeId) -> Option<Vec<NodeId>> {
        self.bfs_tree(u).path_to(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;

    #[test]
    fn bfs_on_path_gives_linear_distances() {
        let g = builders::path(5).unwrap();
        let bfs = g.bfs_tree(0);
        for v in 0..5 {
            assert_eq!(bfs.dist(v), Some(v as u32));
        }
        assert_eq!(bfs.depth(), 4);
        assert_eq!(bfs.parent(3), Some(2));
        assert_eq!(bfs.parent(0), None);
        assert_eq!(bfs.path_to(4).unwrap(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn bfs_depth_at_most_diameter() {
        for g in [
            builders::grid(4, 5).unwrap(),
            builders::barbell(12).unwrap(),
            builders::binary_tree(31).unwrap(),
            builders::hypercube(4).unwrap(),
        ] {
            let d = g.diameter();
            for v in 0..g.n() {
                assert!(g.bfs_tree(v).depth() <= d);
            }
        }
    }

    #[test]
    fn disconnected_graph_detected() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert!(!g.is_connected());
        assert_eq!(g.distance(0, 2), None);
        assert_eq!(g.shortest_path(0, 3), None);
        let bfs = g.bfs_tree(0);
        assert_eq!(bfs.reached(), 2);
        assert_eq!(bfs.dist(2), None);
    }

    #[test]
    fn shortest_path_length_matches_distance() {
        let g = builders::grid(5, 5).unwrap();
        for (u, v) in [(0, 24), (3, 20), (7, 13)] {
            let d = g.distance(u, v).unwrap();
            let p = g.shortest_path(u, v).unwrap();
            assert_eq!(p.len() as u32, d + 1);
            assert_eq!(p[0], u);
            assert_eq!(*p.last().unwrap(), v);
            // Consecutive path nodes must be adjacent.
            for w in p.windows(2) {
                assert!(g.has_edge(w[0], w[1]));
            }
        }
    }

    #[test]
    fn into_spanning_tree_valid() {
        let g = builders::barbell(10).unwrap();
        let tree = g.bfs_tree(3).into_spanning_tree();
        assert_eq!(tree.root(), 3);
        assert_eq!(tree.n(), 10);
        assert!(tree.depth() <= g.diameter());
    }

    #[test]
    #[should_panic(expected = "disconnected")]
    fn into_spanning_tree_panics_when_disconnected() {
        let g = Graph::from_edges(3, &[(0, 1)]).unwrap();
        let _ = g.bfs_tree(0).into_spanning_tree();
    }

    /// The implicit `K_n` is answered without a walk: at n = 2²⁰ a
    /// neighbor-by-neighbor walk would visit ~10¹² entries.
    #[test]
    fn complete_graph_connectivity_is_constant_time() {
        assert!(builders::complete(1 << 20).unwrap().is_connected());
        assert!(builders::complete(1).unwrap().is_connected());
    }

    #[test]
    fn single_node_graph() {
        let g = Graph::from_edges(1, &[]).unwrap();
        assert!(g.is_connected());
        assert_eq!(g.diameter(), 0);
        assert_eq!(g.eccentricity(0), 0);
    }
}
