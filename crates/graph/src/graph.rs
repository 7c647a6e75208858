//! The core undirected graph type.

use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// Index of a node in a [`Graph`] (`0..n`).
pub type NodeId = usize;

/// Error constructing a [`Graph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An edge referenced a node `>= n`.
    NodeOutOfRange {
        /// The offending endpoint.
        node: NodeId,
        /// The graph size.
        n: usize,
    },
    /// A self-loop `(v, v)` was supplied.
    SelfLoop(NodeId),
    /// The same undirected edge appeared twice.
    DuplicateEdge(NodeId, NodeId),
    /// A builder was asked for an impossible size (e.g. `n = 0`).
    InvalidSize(String),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, n } => {
                write!(f, "node {node} out of range for graph of {n} nodes")
            }
            GraphError::SelfLoop(v) => write!(f, "self-loop at node {v}"),
            GraphError::DuplicateEdge(u, v) => write!(f, "duplicate edge ({u}, {v})"),
            GraphError::InvalidSize(msg) => write!(f, "invalid size: {msg}"),
        }
    }
}

impl Error for GraphError {}

/// The error for a node count that is 0 or whose arrays' sizes overflow.
fn bad_node_count(n: usize) -> GraphError {
    GraphError::InvalidSize(format!("n = {n} is 0 or too large for a graph"))
}

/// Iterator over a node's sorted neighbor list (see [`Graph::neighbors`]).
#[derive(Debug, Clone)]
pub struct Neighbors<'a> {
    inner: NeighborsInner<'a>,
}

#[derive(Debug, Clone)]
enum NeighborsInner<'a> {
    Csr(std::slice::Iter<'a, NodeId>),
    Complete {
        next: NodeId,
        skip: NodeId,
        n: usize,
    },
}

impl Iterator for Neighbors<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        match &mut self.inner {
            NeighborsInner::Csr(it) => it.next().copied(),
            NeighborsInner::Complete { next, skip, n } => {
                if next == skip {
                    *next += 1;
                }
                if *next >= *n {
                    return None;
                }
                let v = *next;
                *next += 1;
                Some(v)
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match &self.inner {
            NeighborsInner::Csr(it) => it.size_hint(),
            NeighborsInner::Complete { next, skip, n } => {
                let remaining = (n - next.min(n)).saturating_sub(usize::from(next <= skip));
                (remaining, Some(remaining))
            }
        }
    }
}

impl ExactSizeIterator for Neighbors<'_> {}

/// A simple undirected graph `G_n = (V, E)` with sorted adjacency lists.
///
/// Invariants (enforced at construction): no self-loops, no parallel edges,
/// neighbor lists sorted ascending. Gossip protocols rely on the sorted
/// order for deterministic round-robin neighbor cycling (Definition 2 of
/// the paper: "a fixed, cyclic list of the node's neighbors").
///
/// Storage is CSR (compressed sparse row): one flat target array plus
/// per-node offsets. [`Graph::neighbor_at`] — the innermost call of every
/// partner selection, at `n` calls per synchronous round — is a single
/// bounds-checked load from contiguous memory instead of a pointer chase
/// through per-node heap `Vec`s. The complete graph additionally has an
/// *implicit* representation ([`Graph::complete`]): `N(v)` is computed
/// arithmetically, so `K_n` costs O(1) memory at any `n` and a uniform
/// partner pick touches no adjacency memory at all — without it, `K_n` at
/// n = 10⁵ would need an ~80 GB target array. A graph is immutable once
/// built and the arrays are shared: a clone (every protocol keeps one of
/// the caller's graph) costs two reference counts, not a second copy.
///
/// # Examples
///
/// ```
/// use ag_graph::Graph;
///
/// let g = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
/// assert_eq!(g.degree(1), 2);
/// assert_eq!(g.neighbors(1).collect::<Vec<_>>(), vec![0, 2]);
/// assert_eq!(g.neighbor_at(1, 1), 2);
/// assert_eq!(g.num_edges(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Graph {
    repr: Repr,
    num_edges: usize,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Repr {
    /// CSR: `targets[offsets[v]..offsets[v + 1]]` is the sorted `N(v)`.
    Csr {
        offsets: Arc<[usize]>,
        targets: Arc<[NodeId]>,
    },
    /// The complete graph `K_n`, with arithmetic adjacency.
    Complete { n: usize },
}

/// Equality is *semantic* — same node count and same edge set — not
/// representational: a CSR-built `K_n` equals the implicit
/// [`Graph::complete`] `K_n`. (A simple graph on `n` nodes with
/// `n·(n−1)/2` edges is necessarily complete, so the cross-representation
/// case is O(1).)
impl PartialEq for Graph {
    fn eq(&self, other: &Self) -> bool {
        match (&self.repr, &other.repr) {
            (Repr::Csr { .. }, Repr::Csr { .. })
            | (Repr::Complete { .. }, Repr::Complete { .. }) => self.repr == other.repr,
            _ => {
                self.n() == other.n() && {
                    let n = self.n();
                    self.num_edges == n * (n - 1) / 2 && other.num_edges == self.num_edges
                }
            }
        }
    }
}

impl Eq for Graph {}

impl Graph {
    /// Builds a graph on `n` nodes from an undirected edge list, by counting
    /// sort: one pass validates the edges in list order and counts degrees,
    /// a prefix sum places the rows, a second pass fills them, and each row
    /// is sorted and checked for a repeated neighbor. O(n + m log Δ) time
    /// and two allocations, the arrays the graph keeps.
    ///
    /// # Errors
    ///
    /// [`GraphError::InvalidSize`] for `n == 0` or `n == usize::MAX`; else
    /// the first bad edge in list order (an endpoint `>= n`, `u` before `v`,
    /// then a self-loop); else [`GraphError::DuplicateEdge`] naming the
    /// lowest node with a repeated neighbor, and the smallest such neighbor.
    pub fn from_edges(n: usize, edges: &[(NodeId, NodeId)]) -> Result<Self, GraphError> {
        if n == 0 || n == usize::MAX {
            return Err(bad_node_count(n));
        }
        let mut offsets: Arc<[usize]> = std::iter::repeat_n(0, n + 1).collect();
        let ends = Arc::make_mut(&mut offsets);
        for &(u, v) in edges {
            if let Some(node) = [u, v].into_iter().find(|&x| x >= n) {
                return Err(GraphError::NodeOutOfRange { node, n });
            }
            if u == v {
                return Err(GraphError::SelfLoop(u));
            }
            ends[u] += 1;
            ends[v] += 1;
        }
        // Inclusive prefix sum: `ends[v]` is where row `v` ends, and the
        // trailing slot (count 0) is the total.
        let mut total = 0;
        for end in ends.iter_mut() {
            total += *end;
            *end = total;
        }
        // Rows fill from their ends back, leaving `ends[v]` at row `v`'s start.
        let mut targets: Arc<[NodeId]> = std::iter::repeat_n(0, total).collect();
        let slots = Arc::make_mut(&mut targets);
        for &(u, v) in edges {
            ends[u] -= 1;
            slots[ends[u]] = v;
            ends[v] -= 1;
            slots[ends[v]] = u;
        }
        for u in 0..n {
            let row = &mut slots[ends[u]..ends[u + 1]];
            row.sort_unstable();
            if let Some(w) = row.windows(2).find(|w| w[0] == w[1]) {
                return Err(GraphError::DuplicateEdge(u, w[0]));
            }
        }
        Ok(Graph {
            repr: Repr::Csr { offsets, targets },
            num_edges: edges.len(),
        })
    }

    /// The complete graph `K_n` in the implicit O(1)-memory representation:
    /// adjacency is computed arithmetically (`N(v) = {0..n} \ {v}`, sorted),
    /// so `K_n` is cheap at any `n` and partner picks touch no memory.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidSize`] for `n == 0` or if `n·(n−1)`
    /// overflows `usize`.
    pub fn complete(n: usize) -> Result<Self, GraphError> {
        let pairs = n.checked_mul(n.wrapping_sub(1)).filter(|_| n > 0);
        Ok(Graph {
            repr: Repr::Complete { n },
            num_edges: pairs.ok_or_else(|| bad_node_count(n))? / 2,
        })
    }

    /// Number of nodes `n`.
    #[must_use]
    pub fn n(&self) -> usize {
        match &self.repr {
            Repr::Csr { offsets, .. } => offsets.len() - 1,
            Repr::Complete { n } => *n,
        }
    }

    /// Number of undirected edges `|E|`.
    #[must_use]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Iterates the sorted neighbor list `N(v)`.
    ///
    /// The representation is dispatched once: CSR yields a plain slice
    /// walk, the implicit complete graph counts `0..n` skipping `v` — so
    /// whole-adjacency traversals (BFS, [`Graph::edges`]) pay no
    /// per-element dispatch.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    pub fn neighbors(&self, v: NodeId) -> Neighbors<'_> {
        let inner = match &self.repr {
            Repr::Csr { offsets, targets } => {
                NeighborsInner::Csr(targets[offsets[v]..offsets[v + 1]].iter())
            }
            Repr::Complete { n } => {
                assert!(v < *n, "node out of range");
                NeighborsInner::Complete {
                    next: 0,
                    skip: v,
                    n: *n,
                }
            }
        };
        Neighbors { inner }
    }

    /// The `i`-th (0-based) neighbor of `v` in sorted order — the O(1)
    /// primitive partner selection is built on. Implicit `K_n` resolves it
    /// arithmetically; CSR with one contiguous load.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n` or `i >= degree(v)`.
    #[must_use]
    pub fn neighbor_at(&self, v: NodeId, i: usize) -> NodeId {
        match &self.repr {
            Repr::Csr { offsets, targets } => {
                let (start, end) = (offsets[v], offsets[v + 1]);
                assert!(i < end - start, "neighbor index out of range");
                targets[start + i]
            }
            Repr::Complete { n } => {
                assert!(v < *n && i < *n - 1, "neighbor index out of range");
                // N(v) sorted is 0..v then v+1..n.
                if i < v {
                    i
                } else {
                    i + 1
                }
            }
        }
    }

    /// The degree `d_v = |N(v)|`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    #[must_use]
    pub fn degree(&self, v: NodeId) -> usize {
        match &self.repr {
            Repr::Csr { offsets, .. } => offsets[v + 1] - offsets[v],
            Repr::Complete { n } => {
                assert!(v < *n, "node out of range");
                *n - 1
            }
        }
    }

    /// The maximum degree `Δ`.
    #[must_use]
    pub fn max_degree(&self) -> usize {
        match &self.repr {
            Repr::Csr { .. } => (0..self.n()).map(|v| self.degree(v)).max().unwrap_or(0),
            Repr::Complete { n } => *n - 1,
        }
    }

    /// The minimum degree.
    #[must_use]
    pub fn min_degree(&self) -> usize {
        match &self.repr {
            Repr::Csr { .. } => (0..self.n()).map(|v| self.degree(v)).min().unwrap_or(0),
            Repr::Complete { n } => *n - 1,
        }
    }

    /// True when `(u, v)` is an edge.
    #[must_use]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        match &self.repr {
            Repr::Csr { offsets, targets } => {
                u < self.n()
                    && targets[offsets[u]..offsets[u + 1]]
                        .binary_search(&v)
                        .is_ok()
            }
            Repr::Complete { n } => u < *n && v < *n && u != v,
        }
    }

    /// Iterates over each undirected edge once, as `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        (0..self.n()).flat_map(move |u| {
            self.neighbors(u)
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// All node ids `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        0..self.n()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_edges_basic() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 1), (3, 0)]).unwrap();
        assert_eq!(g.n(), 4);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.neighbors(0).collect::<Vec<_>>(), vec![1, 3]);
        assert_eq!(g.neighbors(1).collect::<Vec<_>>(), vec![0, 2]);
        assert!(g.has_edge(1, 2));
        assert!(g.has_edge(2, 1));
        assert!(!g.has_edge(0, 2));
    }

    #[test]
    fn rejects_zero_nodes() {
        assert!(matches!(
            Graph::from_edges(0, &[]),
            Err(GraphError::InvalidSize(_))
        ));
    }

    #[test]
    fn equality_is_semantic_across_representations() {
        // An edge-built K_4 (CSR) equals the implicit K_4.
        let mut edges = Vec::new();
        for u in 0..4 {
            for v in (u + 1)..4 {
                edges.push((u, v));
            }
        }
        let csr = Graph::from_edges(4, &edges).unwrap();
        let implicit = Graph::complete(4).unwrap();
        assert_eq!(csr, implicit);
        assert_eq!(implicit, csr);
        // …but a K_4 is not a K_5, and not a path.
        assert_ne!(implicit, Graph::complete(5).unwrap());
        assert_ne!(
            Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap(),
            implicit
        );
    }

    /// A clone shares the CSR arrays instead of copying them, and stays
    /// equal to the original in the semantic sense.
    #[test]
    fn clone_shares_the_csr_arrays() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let c = g.clone();
        let (
            Repr::Csr { offsets, targets },
            Repr::Csr {
                offsets: co,
                targets: ct,
            },
        ) = (&g.repr, &c.repr)
        else {
            panic!("edge-built graphs are CSR");
        };
        assert!(Arc::ptr_eq(offsets, co) && Arc::ptr_eq(targets, ct));
        assert_eq!(g, c);
        assert_eq!(c.neighbors(2).collect::<Vec<_>>(), vec![1, 3]);
    }

    #[test]
    fn implicit_complete_matches_csr_adjacency() {
        let implicit = Graph::complete(6).unwrap();
        let mut edges = Vec::new();
        for u in 0..6 {
            for v in (u + 1)..6 {
                edges.push((u, v));
            }
        }
        let csr = Graph::from_edges(6, &edges).unwrap();
        assert_eq!(implicit.num_edges(), 15);
        for v in 0..6 {
            assert_eq!(implicit.degree(v), 5);
            let imp: Vec<_> = implicit.neighbors(v).collect();
            let exp: Vec<_> = csr.neighbors(v).collect();
            assert_eq!(imp, exp, "N({v}) diverged");
            assert_eq!(implicit.neighbors(v).len(), 5);
            for (i, &u) in exp.iter().enumerate() {
                assert_eq!(implicit.neighbor_at(v, i), u);
            }
        }
        assert_eq!(
            implicit.edges().collect::<Vec<_>>(),
            csr.edges().collect::<Vec<_>>()
        );
        assert!(implicit.has_edge(0, 5) && !implicit.has_edge(3, 3));
        assert!(implicit.is_connected());
        assert_eq!(implicit.diameter(), 1);
    }

    #[test]
    fn rejects_out_of_range() {
        assert_eq!(
            Graph::from_edges(2, &[(0, 2)]),
            Err(GraphError::NodeOutOfRange { node: 2, n: 2 })
        );
    }

    #[test]
    fn rejects_self_loop() {
        assert_eq!(
            Graph::from_edges(2, &[(1, 1)]),
            Err(GraphError::SelfLoop(1))
        );
    }

    #[test]
    fn rejects_duplicate_edge_either_orientation() {
        assert_eq!(
            Graph::from_edges(3, &[(0, 1), (1, 0)]),
            Err(GraphError::DuplicateEdge(0, 1))
        );
        assert_eq!(
            Graph::from_edges(3, &[(0, 1), (0, 1)]),
            Err(GraphError::DuplicateEdge(0, 1))
        );
    }

    #[test]
    fn edges_iterator_visits_each_once() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (0, 3)]).unwrap();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 4);
        assert!(edges.iter().all(|&(u, v)| u < v));
    }

    #[test]
    fn isolated_node_has_degree_zero() {
        let g = Graph::from_edges(3, &[(0, 1)]).unwrap();
        assert_eq!(g.degree(2), 0);
        assert_eq!(g.min_degree(), 0);
        assert_eq!(g.max_degree(), 1);
    }

    #[test]
    fn error_display_messages() {
        assert!(GraphError::SelfLoop(3).to_string().contains("self-loop"));
        assert!(GraphError::NodeOutOfRange { node: 5, n: 2 }
            .to_string()
            .contains("out of range"));
    }
}
