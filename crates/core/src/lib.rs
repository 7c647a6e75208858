//! # Algebraic Gossip
//!
//! A faithful implementation of the protocols from **"Order Optimal
//! Information Spreading Using Algebraic Gossip"** (Avin, Borokhovich,
//! Censor-Hillel, Lotker — PODC 2011):
//!
//! * [`AlgebraicGossip`] — uniform (or round-robin) algebraic gossip:
//!   every contact exchanges random-linear-coded packets; Theorem 1 bounds
//!   its stopping time by `O((k + log n + D)·Δ)` rounds w.h.p., which makes
//!   it order-optimal (`Θ(k + D)`) on constant-max-degree graphs
//!   (Theorem 3).
//! * [`Tag`] — **T**ree-based **A**lgebraic **G**ossip: odd wakeups run a
//!   pluggable spanning-tree gossip protocol `S`, even wakeups run
//!   algebraic gossip with the node's tree parent as its fixed partner.
//!   Theorem 4: `O(k + log n + d(S) + t(S))` rounds w.h.p. `S` is any
//!   [`TreeProtocol`]: an [`ag_sim::Protocol`] that can also name its
//!   root and each node's parent, so the three below run standalone
//!   under the engine (that is how `t(S)` and `d(S)` are measured) as
//!   well as inside `Tag`.
//! * [`BroadcastTree`] — spanning-tree construction via 1-dissemination:
//!   with [`CommModel::RoundRobin`] this is the paper's `B_RR`, which
//!   finishes in at most `3n` synchronous rounds *deterministically*
//!   (Theorem 5 + Lemma 2), making TAG order-optimal (`Θ(n)`) for
//!   `k = Ω(n)` on **any** graph.
//! * [`IsTree`] — a bitstring information-spreading spanning-tree protocol
//!   in the style of Censor-Hillel & Shachnai (Section 6), with the MSB
//!   parent rule; and [`OracleTree`] — an oracle standing in for the exact
//!   IS protocol, delivering a BFS tree after a configurable `t(S)`.
//!
//! Lemma 1's setting, EXCHANGE with each node's partner fixed to its tree
//! parent, is [`AlgebraicGossip`] over [`ag_graph::ParentLinks`] with
//! [`CommModel::RoundRobin`] (a one-contact node then draws nothing to
//! pick its partner).
//!
//! Beyond the paper, the protocols form a **scenario engine**:
//! [`AlgebraicGossip`], [`RandomMessageGossip`], [`Tag`] and
//! [`BroadcastTree`] are generic over an [`ag_graph::Topology`] view
//! (static [`ag_graph::Graph`] by default, at zero overhead, or
//! [`ag_graph::ScheduledTopology`] with deterministic churn: rewires,
//! flips, bridge cuts, partitions), and [`WithCrashes`] layers crash-stop
//! failures (including dead-on-arrival nodes) over any
//! [`ag_sim::Protocol`], a tree protocol included, forwarding the
//! round-start hook and `discard` so the wrapped protocol sees what it
//! would see unwrapped. The F9 experiment family measures the
//! combinations.
//!
//! # Quickstart
//!
//! ```
//! use ag_gf::Gf256;
//! use ag_graph::builders;
//! use ag_sim::{Engine, EngineConfig};
//! use algebraic_gossip::{AgConfig, AlgebraicGossip, Placement};
//!
//! // Disseminate k = 8 messages over a 4x4 grid, synchronous EXCHANGE.
//! let graph = builders::grid(4, 4).unwrap();
//! let cfg = AgConfig::new(8).with_payload_len(4);
//! let mut proto = AlgebraicGossip::<Gf256>::new(&graph, &cfg, 7).unwrap();
//! let stats = Engine::new(EngineConfig::synchronous(7)).run(&mut proto);
//! assert!(stats.completed);
//! // Every node decoded every message:
//! for v in 0..16 {
//!     assert_eq!(proto.decoded(v).unwrap(), proto.generation().messages());
//! }
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

mod ag;
mod baseline;
mod broadcast;
mod coded_nodes;
mod crash;
mod is_tree;
mod oracle;
mod placement;
mod plan;
mod runner;
pub mod seeding;
mod tag;
mod tree_protocol;

// The unit tests share `ag-sim`'s per-node completion observer.
#[cfg(test)]
#[path = "../../sim/tests/completion/mod.rs"]
mod completion;

pub use ag::{AgConfig, AlgebraicGossip};
pub use ag_sim::{Action, CommModel, TimeModel};
pub use baseline::{RandomMessageGossip, RawMsg};
pub use broadcast::BroadcastTree;
pub use crash::{CrashPlan, WithCrashes};
pub use is_tree::{HeardSet, IsTree};
pub use oracle::OracleTree;
pub use placement::Placement;
pub use plan::{TrialPlan, TrialSeeds, TrialSet};
pub use runner::{measure_tree_protocol, run_protocol, ProtocolKind, RunSpec};
pub use tag::{Tag, TagMsg};
pub use tree_protocol::TreeProtocol;
