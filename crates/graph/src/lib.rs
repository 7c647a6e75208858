//! Graph topologies and metrics for gossip analysis.
//!
//! The paper's bounds are parameterized by the number of nodes `n`, the
//! diameter `D` and the maximum degree `Δ`; its evaluation families are the
//! line, grid, binary tree, barbell and complete graphs (Tables 1 and 2).
//! This crate provides:
//!
//! * [`Graph`] — a compact undirected graph with sorted adjacency lists,
//! * [`builders`] — every topology used in the paper plus random families,
//! * BFS / distance machinery ([`Graph::bfs_tree`], [`Graph::diameter`]),
//! * [`SpanningTree`] — rooted parent-pointer trees as produced by the
//!   paper's spanning-tree gossip protocols,
//! * [`metrics`] — degree sums along shortest paths (Lemma 2), cut
//!   boundaries and cut conductance,
//! * [`Topology`] — the (possibly time-varying) neighbor view gossip
//!   protocols read: the static [`Graph`] and [`ParentLinks`] (a tree's
//!   child-to-parent contacts, Lemma 1's fixed partners), and
//!   [`ScheduledTopology`], which applies a deterministic [`ChurnSchedule`]
//!   (random rewires/flips, adversarial bridge cuts and partitions) one
//!   epoch per simulation round.
//!
//! # Examples
//!
//! ```
//! use ag_graph::builders;
//!
//! let g = builders::barbell(10).unwrap(); // two 5-cliques + bridge
//! assert_eq!(g.n(), 10);
//! assert_eq!(g.diameter(), 3);
//! assert_eq!(g.max_degree(), 5);
//! assert!(g.is_connected());
//! ```

#![forbid(unsafe_code)]
// Seeded crate: no hash-ordered collection (clippy.toml's type ban), and
// no item-level `allow` can reopen one.
#![forbid(clippy::disallowed_types)]
// Panic policy (README, "Static analysis"): typed errors or `.expect("<invariant>")`;
// an exception is an `#[expect(clippy::…, reason = "…")]` at its site.
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::allow_attributes_without_reason
    )
)]

pub mod builders;
mod graph;
pub mod metrics;
pub mod seedmix;
mod topology;
mod traversal;
mod tree;

pub use graph::{Graph, GraphError, Neighbors, NodeId};
pub use topology::{ChurnSchedule, ScheduledTopology, Topology};
pub use traversal::BfsResult;
pub use tree::{ParentLinks, SpanningTree, TreeError};
