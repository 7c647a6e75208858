//! Time-varying topologies: the [`Topology`] abstraction and scheduled
//! churn.
//!
//! The paper analyzes algebraic gossip on *static* graphs, but its core
//! robustness argument — any `k` linearly independent equations decode, no
//! matter where they came from — carries over to adversarially *dynamic*
//! networks (Haeupler, "Analyzing network coding gossip made easy"). This
//! module makes that scenario class first-class: protocols read neighbors
//! through a [`Topology`] view instead of a pinned [`Graph`] snapshot, and
//! the simulation engines advance the view once per round.
//!
//! Three implementations:
//!
//! * [`Graph`] — the static CSR graph. Every accessor delegates to the
//!   corresponding inherent method and epoch advancement is a no-op, so
//!   static runs compile to exactly the code they ran before the
//!   abstraction existed (the golden trajectory hashes pin this
//!   bit-for-bit).
//! * [`crate::ParentLinks`] — a spanning tree's parent links, static: each
//!   node's only contact is its parent, Lemma 1's fixed partner.
//! * [`ScheduledTopology`] — an epoch-based time-varying graph driven by a
//!   deterministic, seeded [`ChurnSchedule`]: random per-epoch edge
//!   rewires or flips at a configurable rate, plus adversarial schedules
//!   (periodic bridge cuts, alternating partition/heal). Epoch `e`'s view
//!   is a pure function of `(initial graph, schedule, e)`, so seeded runs
//!   reproduce regardless of which engine drives them.
//!
//! # Epoch convention
//!
//! Epoch 0 is the initial graph, untouched. The engines call
//! `Protocol::on_round_start(round)` before round `round` (1-based) and
//! dynamic protocols advance their topology to epoch `round − 1`, so round
//! 1 always runs on the initial graph and churn first bites in round 2.
//!
//! # Examples
//!
//! ```
//! use ag_graph::{builders, ChurnSchedule, ScheduledTopology, Topology};
//!
//! let g = builders::cycle(8).unwrap();
//! let mut topo = ScheduledTopology::new(&g, ChurnSchedule::rewire(0.25, 42));
//! assert_eq!(topo.epoch(), 0);
//! assert_eq!(topo.edge_count(), 8); // epoch 0 is the seed graph
//! topo.advance_to_epoch(5);
//! assert_eq!(topo.epoch(), 5);
//! assert_eq!(topo.edge_count(), 8); // rewires preserve the edge count
//! ```

// Seed-keying code: a narrowing `as` would collapse distinct seed domains.
#![warn(clippy::cast_possible_truncation)]

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::graph::{Graph, NodeId};

/// A (possibly time-varying) gossip topology: the neighbor view protocols
/// and partner selectors read, plus an epoch clock the engines advance.
///
/// The epoch methods default to a static view (epoch 0, never advanced),
/// which [`Graph`] and [`crate::ParentLinks`] are, so every static call
/// site keeps its exact pre-abstraction behavior and cost.
pub trait Topology {
    /// Number of nodes (fixed for the lifetime of the topology — churn
    /// rewires edges, it does not add or remove nodes).
    fn n(&self) -> usize;

    /// Current degree of `v`.
    fn degree(&self, v: NodeId) -> usize;

    /// The `i`-th (0-based) neighbor of `v` in sorted order, under the
    /// current epoch's view.
    fn neighbor_at(&self, v: NodeId, i: usize) -> NodeId;

    /// True when `(u, v)` is an edge of the current epoch's view.
    fn has_edge(&self, u: NodeId, v: NodeId) -> bool;

    /// The epoch the view currently reflects (0 = initial graph).
    fn epoch(&self) -> u64 {
        0
    }

    /// Advances the view to `epoch`, applying every scheduled change in
    /// `(self.epoch(), epoch]`. Calls with `epoch <= self.epoch()` are
    /// no-ops (epochs never rewind); static topologies ignore this
    /// entirely.
    fn advance_to_epoch(&mut self, _epoch: u64) {}

    /// Is the *current* view connected? A walk from node 0 over the
    /// trait's own neighbor accessors (seen flags and a stack): O(n + m),
    /// and O(1) when node 0 neighbors every other node, as on `K_n`.
    /// Construction-time validation only — not a hot path.
    fn is_connected_now(&self) -> bool {
        let n = self.n();
        if n == 0 {
            return false;
        }
        if self.degree(0) == n - 1 {
            return true;
        }
        let mut seen = vec![false; n];
        seen[0] = true;
        let mut stack = vec![0];
        while let Some(v) = stack.pop() {
            for i in 0..self.degree(v) {
                let u = self.neighbor_at(v, i);
                if !seen[u] {
                    seen[u] = true;
                    stack.push(u);
                }
            }
        }
        seen.into_iter().all(|s| s)
    }
}

impl Topology for Graph {
    #[inline]
    fn n(&self) -> usize {
        Graph::n(self)
    }

    #[inline]
    fn degree(&self, v: NodeId) -> usize {
        Graph::degree(self, v)
    }

    #[inline]
    fn neighbor_at(&self, v: NodeId, i: usize) -> NodeId {
        Graph::neighbor_at(self, v, i)
    }

    #[inline]
    fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        Graph::has_edge(self, u, v)
    }
}

use crate::seedmix::{splitmix64, GOLDEN_GAMMA};

/// What happens to the edge set at each epoch. All variants are
/// deterministic: random ones derive a fresh RNG per epoch from
/// `(seed, epoch)`, adversarial ones are pure functions of the epoch.
#[derive(Debug, Clone, PartialEq)]
pub enum ChurnSchedule {
    /// No churn: the dynamic machinery over a fixed edge set (the
    /// differential tests' control lane).
    None,
    /// Each epoch, `round(rate · m)` uniformly random edges are rewired:
    /// one endpoint is kept (fair coin) and the other replaced by a
    /// uniformly random non-adjacent node. Preserves the edge count; may
    /// transiently disconnect the graph or isolate nodes — both are legal
    /// states a dynamic protocol must survive.
    Rewire {
        /// Fraction of the current edge count rewired per epoch.
        rate: f64,
        /// Seed of the per-epoch RNG streams.
        seed: u64,
    },
    /// Each epoch, `count` uniformly random node pairs are flipped: the
    /// edge is removed if present, added if absent. Edge count drifts.
    Flip {
        /// Pairs flipped per epoch.
        count: usize,
        /// Seed of the per-epoch RNG streams.
        seed: u64,
    },
    /// Adversarial bridge cut: `edge` cycles through `up_len` epochs
    /// present then `cut_len` epochs absent (epoch 0 starts an up
    /// window). Aimed at the barbell bridge. `cut_len = u64::MAX` cuts
    /// it for good.
    BridgeCut {
        /// The targeted edge.
        edge: (NodeId, NodeId),
        /// Epochs per window with the edge present.
        up_len: u64,
        /// Epochs per window with the edge cut.
        cut_len: u64,
    },
    /// Adversarial partition/heal: every edge crossing the node cut
    /// `[0, boundary) | [boundary, n)` cycles through `heal_len` epochs
    /// present then `cut_len` epochs removed (epoch 0 starts healed).
    /// Removed edges are stashed and restored verbatim on heal;
    /// `cut_len = u64::MAX` never heals.
    PartitionHeal {
        /// First node of the right-hand side.
        boundary: NodeId,
        /// Epochs per window with the graph healed.
        heal_len: u64,
        /// Epochs per window with the cut edges removed.
        cut_len: u64,
    },
}

impl ChurnSchedule {
    /// [`ChurnSchedule::Rewire`] with validation.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not in `[0, 1]`.
    #[must_use]
    pub fn rewire(rate: f64, seed: u64) -> Self {
        ChurnSchedule::Rewire { rate, seed }.validated()
    }

    /// [`ChurnSchedule::BridgeCut`] with validation.
    ///
    /// # Panics
    ///
    /// Panics if either window length is zero.
    #[must_use]
    pub fn bridge_cut(edge: (NodeId, NodeId), up_len: u64, cut_len: u64) -> Self {
        ChurnSchedule::BridgeCut {
            edge,
            up_len,
            cut_len,
        }
        .validated()
    }

    /// [`ChurnSchedule::PartitionHeal`] with validation.
    ///
    /// # Panics
    ///
    /// Panics if either window length is zero.
    #[must_use]
    pub fn partition_heal(boundary: NodeId, heal_len: u64, cut_len: u64) -> Self {
        ChurnSchedule::PartitionHeal {
            boundary,
            heal_len,
            cut_len,
        }
        .validated()
    }

    /// The schedule, once its parameters are checked: the variants are
    /// public, so the constructors above are not the only way in.
    ///
    /// # Panics
    ///
    /// Panics if a rewire rate is not in `[0, 1]` or a window length is
    /// zero.
    fn validated(self) -> Self {
        match self {
            ChurnSchedule::Rewire { rate, .. } => assert!(
                (0.0..=1.0).contains(&rate),
                "rewire rate must be in [0, 1], got {rate}"
            ),
            ChurnSchedule::BridgeCut {
                up_len: on,
                cut_len: off,
                ..
            }
            | ChurnSchedule::PartitionHeal {
                heal_len: on,
                cut_len: off,
                ..
            } => assert!(on > 0 && off > 0, "window lengths must be positive"),
            ChurnSchedule::None | ChurnSchedule::Flip { .. } => {}
        }
        self
    }
}

/// Whether `epoch` falls in the first `on` epochs of a window that
/// repeats every `on + off` epochs. The sum is taken in `u128`, so a
/// window of `u64::MAX` epochs, which never ends, cannot overflow it.
fn in_on_window(epoch: u64, on: u64, off: u64) -> bool {
    u128::from(epoch) % (u128::from(on) + u128::from(off)) < u128::from(on)
}

/// An epoch-based time-varying graph: a seed [`Graph`] plus a
/// [`ChurnSchedule`] applied one epoch at a time.
///
/// Storage is mutable sorted adjacency lists (so [`Topology::neighbor_at`]
/// stays an O(1) indexed load and round-robin partner order stays
/// deterministic) plus an edge list with an ordered position index (so
/// random schedules sample an edge in O(1) and remove it in O(log m)).
/// Per-epoch cost is O(changes · (Δ + log m)); reads between epochs cost
/// the same as a `Vec`-of-`Vec` graph.
///
/// # Examples
///
/// ```
/// use ag_graph::{builders, ChurnSchedule, ScheduledTopology, Topology};
///
/// // The barbell bridge, cut for 3 epochs out of every 4.
/// let g = builders::barbell(8).unwrap();
/// let mut topo = ScheduledTopology::new(&g, ChurnSchedule::bridge_cut((3, 4), 1, 3));
/// assert!(topo.has_edge(3, 4)); // epoch 0: up
/// topo.advance_to_epoch(2);
/// assert!(!topo.has_edge(3, 4)); // cut window
/// topo.advance_to_epoch(4);
/// assert!(topo.has_edge(3, 4)); // healed again
/// ```
#[derive(Debug, Clone)]
pub struct ScheduledTopology {
    /// Sorted neighbor lists of the current epoch's view.
    adj: Vec<Vec<NodeId>>,
    /// Current edges as `(u, v)` with `u < v`, in arbitrary order.
    edges: Vec<(NodeId, NodeId)>,
    /// Position of each edge in `edges` (for O(log m) removal).
    edge_pos: BTreeMap<(NodeId, NodeId), usize>,
    /// Crossing edges removed by an active partition window.
    stash: Vec<(NodeId, NodeId)>,
    partitioned: bool,
    epoch: u64,
    schedule: ChurnSchedule,
}

impl ScheduledTopology {
    /// Wraps `graph` (the epoch-0 view) with `schedule`.
    ///
    /// # Panics
    ///
    /// Panics if a [`ChurnSchedule::BridgeCut`] edge is not an edge of
    /// `graph`, a [`ChurnSchedule::PartitionHeal`] boundary is not in
    /// `1..n` (both sides must be nonempty), or the schedule fails its
    /// constructor's check (a rewire rate outside `[0, 1]`, a zero window
    /// length).
    #[must_use]
    pub fn new(graph: &Graph, schedule: ChurnSchedule) -> Self {
        let schedule = schedule.validated();
        match &schedule {
            ChurnSchedule::BridgeCut { edge: (u, v), .. } => {
                assert!(
                    graph.has_edge(*u, *v),
                    "bridge-cut edge ({u}, {v}) is not an edge of the seed graph"
                );
            }
            ChurnSchedule::PartitionHeal { boundary, .. } => {
                assert!(
                    (1..graph.n()).contains(boundary),
                    "partition boundary {boundary} must split {} nodes in two",
                    graph.n()
                );
            }
            _ => {}
        }
        let adj: Vec<Vec<NodeId>> = (0..graph.n())
            .map(|v| graph.neighbors(v).collect())
            .collect();
        let edges: Vec<(NodeId, NodeId)> = graph.edges().collect();
        let edge_pos = edges.iter().enumerate().map(|(i, &e)| (e, i)).collect();
        ScheduledTopology {
            adj,
            edges,
            edge_pos,
            stash: Vec::new(),
            partitioned: false,
            epoch: 0,
            schedule,
        }
    }

    /// The schedule driving this topology.
    #[must_use]
    pub fn schedule(&self) -> &ChurnSchedule {
        &self.schedule
    }

    /// Number of edges in the current view.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Materializes the current view's edge list as a [`Graph`]
    /// (diagnostics; O(n + m log Δ)).
    ///
    /// # Panics
    ///
    /// Never — the maintained edge list holds each edge once, in range and
    /// without self-loops.
    #[must_use]
    pub fn snapshot(&self) -> Graph {
        Graph::from_edges(self.adj.len(), &self.edges)
            .expect("maintained edge list is always valid")
    }

    /// Adds `(u, v)` if absent; true on change.
    fn add_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        if u == v {
            return false;
        }
        let key = (u.min(v), u.max(v));
        if self.edge_pos.contains_key(&key) {
            return false;
        }
        let absent = "edge_pos and adj agree: an edge missing from edge_pos is in neither list";
        let iu = self.adj[u].binary_search(&v).expect_err(absent);
        self.adj[u].insert(iu, v);
        let iv = self.adj[v].binary_search(&u).expect_err(absent);
        self.adj[v].insert(iv, u);
        self.edge_pos.insert(key, self.edges.len());
        self.edges.push(key);
        true
    }

    /// Removes `(u, v)` if present; true on change.
    fn remove_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        let key = (u.min(v), u.max(v));
        let Some(pos) = self.edge_pos.remove(&key) else {
            return false;
        };
        self.edges.swap_remove(pos);
        if pos < self.edges.len() {
            self.edge_pos.insert(self.edges[pos], pos);
        }
        let iu = self.adj[u].binary_search(&v).expect("edge present");
        self.adj[u].remove(iu);
        let iv = self.adj[v].binary_search(&u).expect("edge present");
        self.adj[v].remove(iv);
        true
    }

    /// Applies the schedule's changes for `epoch` (called in sequence by
    /// [`Topology::advance_to_epoch`]).
    fn apply_epoch(&mut self, epoch: u64) {
        match self.schedule.clone() {
            ChurnSchedule::None => {}
            ChurnSchedule::Rewire { rate, seed } => {
                let mut rng = epoch_rng(seed, epoch);
                #[expect(
                    clippy::cast_possible_truncation,
                    reason = "a float-to-int `as` saturates, and `new` keeps rate in [0, 1], so count <= edge count"
                )]
                let count = (rate * self.edges.len() as f64).round() as usize;
                let n = self.adj.len();
                for _ in 0..count {
                    if self.edges.is_empty() {
                        break;
                    }
                    let i = rng.gen_range(0..self.edges.len());
                    let (a, b) = self.edges[i];
                    let keep = if rng.gen_bool(0.5) { a } else { b };
                    // A few tries to find a fresh endpoint; dense spots may
                    // reject every sample, in which case the edge stays.
                    for _ in 0..8 {
                        let w = rng.gen_range(0..n);
                        if w != keep && !Topology::has_edge(self, keep, w) {
                            self.remove_edge(a, b);
                            self.add_edge(keep, w);
                            break;
                        }
                    }
                }
            }
            ChurnSchedule::Flip { count, seed } => {
                let mut rng = epoch_rng(seed, epoch);
                let n = self.adj.len();
                for _ in 0..count {
                    let u = rng.gen_range(0..n);
                    let v = rng.gen_range(0..n);
                    if u == v {
                        continue;
                    }
                    if !self.remove_edge(u, v) {
                        self.add_edge(u, v);
                    }
                }
            }
            ChurnSchedule::BridgeCut {
                edge: (u, v),
                up_len,
                cut_len,
            } => {
                if in_on_window(epoch, up_len, cut_len) {
                    self.add_edge(u, v);
                } else {
                    self.remove_edge(u, v);
                }
            }
            ChurnSchedule::PartitionHeal {
                boundary,
                heal_len,
                cut_len,
            } => {
                let cut = !in_on_window(epoch, heal_len, cut_len);
                if cut && !self.partitioned {
                    let crossing: Vec<(NodeId, NodeId)> = self
                        .edges
                        .iter()
                        .copied()
                        .filter(|&(u, v)| (u < boundary) != (v < boundary))
                        .collect();
                    for &(u, v) in &crossing {
                        self.remove_edge(u, v);
                    }
                    self.stash = crossing;
                    self.partitioned = true;
                } else if !cut && self.partitioned {
                    let stashed = std::mem::take(&mut self.stash);
                    for (u, v) in stashed {
                        self.add_edge(u, v);
                    }
                    self.partitioned = false;
                }
            }
        }
    }
}

/// One independent RNG per `(seed, epoch)` pair: epoch `e`'s changes
/// depend only on `(seed, e)` — never on how many draws earlier epochs
/// consumed.
fn epoch_rng(seed: u64, epoch: u64) -> StdRng {
    StdRng::seed_from_u64(splitmix64(
        seed.wrapping_add(epoch.wrapping_mul(GOLDEN_GAMMA)),
    ))
}

impl Topology for ScheduledTopology {
    fn n(&self) -> usize {
        self.adj.len()
    }

    fn degree(&self, v: NodeId) -> usize {
        self.adj[v].len()
    }

    fn neighbor_at(&self, v: NodeId, i: usize) -> NodeId {
        self.adj[v][i]
    }

    fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        u < self.adj.len() && self.adj[u].binary_search(&v).is_ok()
    }

    fn epoch(&self) -> u64 {
        self.epoch
    }

    fn advance_to_epoch(&mut self, epoch: u64) {
        while self.epoch < epoch {
            self.epoch += 1;
            self.apply_epoch(self.epoch);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;

    #[test]
    fn graph_implements_topology_statically() {
        let mut g = builders::grid(3, 3).unwrap();
        assert_eq!(Topology::n(&g), 9);
        assert_eq!(Topology::degree(&g, 4), 4);
        assert_eq!(Topology::neighbor_at(&g, 0, 1), 3);
        assert!(Topology::has_edge(&g, 0, 1));
        assert_eq!(g.epoch(), 0);
        g.advance_to_epoch(100); // no-op
        assert_eq!(g.epoch(), 0);
        assert!(g.is_connected_now());
    }

    #[test]
    fn scheduled_none_is_the_seed_graph_forever() {
        let g = builders::barbell(10).unwrap();
        let mut t = ScheduledTopology::new(&g, ChurnSchedule::None);
        t.advance_to_epoch(50);
        assert_eq!(t.epoch(), 50);
        assert_eq!(t.snapshot(), g);
    }

    #[test]
    fn scheduled_matches_graph_view_at_epoch_zero() {
        let g = builders::grid(4, 3).unwrap();
        let t = ScheduledTopology::new(&g, ChurnSchedule::rewire(0.3, 9));
        for v in 0..g.n() {
            assert_eq!(t.degree(v), Graph::degree(&g, v));
            for i in 0..t.degree(v) {
                assert_eq!(t.neighbor_at(v, i), Graph::neighbor_at(&g, v, i));
            }
        }
        assert_eq!(t.edge_count(), g.num_edges());
    }

    /// The invariants every epoch's view must uphold: the snapshot is
    /// built from the edge list (`from_edges` rejects a repeated edge),
    /// and every node's `neighbor_at` view must equal its sorted neighbor
    /// list there, so the adjacency is sorted, symmetric, free of
    /// duplicates and in sync with the edges.
    #[test]
    fn views_stay_valid_under_every_schedule() {
        let g = builders::barbell(12).unwrap();
        let schedules = [
            ChurnSchedule::rewire(0.4, 1),
            ChurnSchedule::Flip { count: 5, seed: 2 },
            ChurnSchedule::bridge_cut((5, 6), 2, 3),
            ChurnSchedule::partition_heal(6, 2, 2),
        ];
        for schedule in schedules {
            let mut t = ScheduledTopology::new(&g, schedule.clone());
            for e in 1..=20 {
                t.advance_to_epoch(e);
                let snap = t.snapshot(); // panics if the edge list broke
                assert_eq!(snap.num_edges(), t.edge_count(), "{schedule:?}");
                for v in 0..t.n() {
                    let view: Vec<_> = (0..t.degree(v)).map(|i| t.neighbor_at(v, i)).collect();
                    assert_eq!(view, snap.neighbors(v).collect::<Vec<_>>(), "{schedule:?}");
                }
            }
        }
    }

    #[test]
    fn rewire_preserves_edge_count_and_is_deterministic() {
        let g = builders::cycle(20).unwrap();
        let mut a = ScheduledTopology::new(&g, ChurnSchedule::rewire(0.5, 7));
        let mut b = ScheduledTopology::new(&g, ChurnSchedule::rewire(0.5, 7));
        a.advance_to_epoch(10);
        b.advance_to_epoch(10);
        assert_eq!(a.snapshot(), b.snapshot());
        assert_eq!(a.edge_count(), 20);
        // A different seed diverges.
        let mut c = ScheduledTopology::new(&g, ChurnSchedule::rewire(0.5, 8));
        c.advance_to_epoch(10);
        assert_ne!(a.snapshot(), c.snapshot());
        // Rewiring actually changed something.
        assert_ne!(a.snapshot(), g);
    }

    #[test]
    fn advancing_in_steps_equals_advancing_at_once() {
        // Epoch e's view is a function of (graph, schedule, e), not of the
        // advancement pattern — required for the engine/oracle
        // differential identity (`ag-sim`'s `differential_engine`).
        let g = builders::grid(4, 4).unwrap();
        let schedule = ChurnSchedule::Flip { count: 3, seed: 3 };
        let mut stepped = ScheduledTopology::new(&g, schedule.clone());
        for e in 1..=12 {
            stepped.advance_to_epoch(e);
        }
        let mut jumped = ScheduledTopology::new(&g, schedule);
        jumped.advance_to_epoch(12);
        assert_eq!(stepped.snapshot(), jumped.snapshot());
        // Rewinding is a no-op.
        jumped.advance_to_epoch(3);
        assert_eq!(jumped.epoch(), 12);
    }

    #[test]
    fn bridge_cut_windows_follow_the_cycle() {
        let g = builders::barbell(8).unwrap();
        let mut t = ScheduledTopology::new(&g, ChurnSchedule::bridge_cut((3, 4), 2, 3));
        // Cycle of 5: epochs 0,1 up; 2,3,4 cut; 5,6 up; …
        let expect_up = [true, true, false, false, false, true, true, false];
        for (e, &up) in expect_up.iter().enumerate() {
            t.advance_to_epoch(e as u64);
            assert_eq!(t.has_edge(3, 4), up, "epoch {e}");
            assert_eq!(t.has_edge(4, 3), up, "epoch {e} (reversed query)");
        }
    }

    #[test]
    fn partition_heal_restores_crossing_edges_verbatim() {
        let g = builders::grid(4, 4).unwrap();
        let mut t = ScheduledTopology::new(&g, ChurnSchedule::partition_heal(8, 2, 2));
        let before = t.snapshot();
        t.advance_to_epoch(2); // cut window
        assert!(!t.is_connected_now());
        let crossing_gone = t.snapshot().edges().all(|(u, v)| (u < 8) == (v < 8));
        assert!(crossing_gone);
        t.advance_to_epoch(4); // healed window
        assert_eq!(t.snapshot(), before);
        assert!(t.is_connected_now());
    }

    #[test]
    fn flip_toggles_edges() {
        let g = builders::path(6).unwrap();
        let mut t = ScheduledTopology::new(&g, ChurnSchedule::Flip { count: 4, seed: 11 });
        t.advance_to_epoch(6);
        assert_ne!(t.snapshot(), g, "24 flips must change a 5-edge path");
    }

    #[test]
    #[should_panic(expected = "not an edge")]
    fn bridge_cut_validates_edge() {
        let g = builders::path(4).unwrap();
        let _ = ScheduledTopology::new(&g, ChurnSchedule::bridge_cut((0, 3), 1, 1));
    }

    #[test]
    #[should_panic(expected = "boundary")]
    fn partition_validates_boundary() {
        let g = builders::path(4).unwrap();
        let _ = ScheduledTopology::new(&g, ChurnSchedule::partition_heal(0, 1, 1));
    }

    /// Regression: `heal_len + cut_len` overflowed at the first epoch
    /// advance (a debug panic, a zero divisor in release).
    #[test]
    fn partition_that_never_heals_stays_cut() {
        let g = builders::barbell(16).unwrap();
        let mut t = ScheduledTopology::new(&g, ChurnSchedule::partition_heal(8, 1, u64::MAX));
        assert!(t.is_connected_now(), "epoch 0 starts healed");
        for e in 1..=64 {
            t.advance_to_epoch(e);
            assert!(!t.is_connected_now(), "epoch {e}");
        }
    }

    /// Regression: the same overflow in `up_len + cut_len`.
    #[test]
    fn bridge_that_is_never_back_up_stays_cut() {
        let g = builders::barbell(8).unwrap();
        let mut t = ScheduledTopology::new(&g, ChurnSchedule::bridge_cut((3, 4), 1, u64::MAX));
        assert!(t.has_edge(3, 4), "epoch 0 starts up");
        for e in 1..=64 {
            t.advance_to_epoch(e);
            assert!(!t.has_edge(3, 4), "epoch {e}");
        }
    }

    /// A directly built variant is checked too: zero windows used to
    /// divide by zero at the first epoch advance.
    #[test]
    #[should_panic(expected = "window lengths must be positive")]
    fn zero_windows_are_rejected_however_built() {
        let g = builders::barbell(8).unwrap();
        let schedule = ChurnSchedule::BridgeCut {
            edge: (3, 4),
            up_len: 0,
            cut_len: 0,
        };
        let _ = ScheduledTopology::new(&g, schedule);
    }

    #[test]
    #[should_panic(expected = "rewire rate")]
    fn a_directly_built_rewire_rate_is_checked() {
        let g = builders::cycle(8).unwrap();
        let _ = ScheduledTopology::new(&g, ChurnSchedule::Rewire { rate: 2.0, seed: 1 });
    }

    /// FNV-1a over a view's CSR arrays: the degree prefix sums from 0,
    /// then the neighbor lists in node order, each as a little-endian
    /// `u64` (the hash `ag-graph`'s `proptest_graph` pins builders with).
    fn csr_hash(g: &Graph) -> u64 {
        let ends = g.nodes().scan(0, |end, v| {
            *end += Graph::degree(g, v);
            Some(*end)
        });
        let targets = g.nodes().flat_map(|v| g.neighbors(v));
        let words = std::iter::once(0).chain(ends).chain(targets);
        words.fold(0xCBF2_9CE4_8422_2325, |h, x| {
            (x as u64).to_le_bytes().iter().fold(h, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
            })
        })
    }

    /// Every schedule's view after 64 epochs, pinned: a change to how the
    /// edge list or its position index is kept must not move a single
    /// edge. `Rewire` picks edges by their position in `edges`, so a
    /// reordering of that list shows here.
    #[test]
    fn views_after_64_epochs_are_pinned() {
        let grid = builders::grid(8, 8).unwrap();
        let barbell = builders::barbell(16).unwrap();
        let cases = [
            (&grid, ChurnSchedule::rewire(0.25, 5), 0x413A_74BC_5888_236F),
            (
                &grid,
                ChurnSchedule::Flip { count: 6, seed: 9 },
                0x5D41_79ED_5FC7_B37E,
            ),
            (
                &barbell,
                ChurnSchedule::bridge_cut((7, 8), 3, 2),
                0x0AF8_4E59_7EA8_3A85,
            ),
            (
                &grid,
                ChurnSchedule::partition_heal(32, 2, 3),
                0x5773_462A_DABB_9FC5,
            ),
        ];
        for (g, schedule, want) in cases {
            let mut t = ScheduledTopology::new(g, schedule.clone());
            t.advance_to_epoch(64);
            let got = csr_hash(&t.snapshot());
            assert_eq!(got, want, "{schedule:?}: {got:#018X}");
        }
    }

    #[test]
    fn default_bfs_matches_graph_is_connected() {
        let con = builders::lollipop(4, 3).unwrap();
        let t = ScheduledTopology::new(&con, ChurnSchedule::None);
        assert!(t.is_connected_now());
        let dis = Graph::from_edges(5, &[(0, 1), (2, 3)]).unwrap();
        let t2 = ScheduledTopology::new(&dis, ChurnSchedule::None);
        assert!(!t2.is_connected_now());
    }
}
