//! Dense linear algebra over finite fields.
//!
//! Algebraic gossip nodes "store messages (linear equations) in a matrix
//! form and once the dimension (or rank) of the matrix becomes k, a node can
//! solve the linear system and discover all the k messages" (Avin et al.,
//! Section 2). This crate provides exactly that machinery: one
//! *incremental* row-echelon basis — the decoder hot path that inserts one
//! received equation at a time and reports whether it was innovative (a
//! "helpful message" in the paper's terminology) — with one owner.
//! [`BasisArena`] holds all of a simulation's nodes: pivot maps and
//! coefficient rows in one slab indexed by node, ranks in a vector beside
//! it, and a node's payload rows in the one allocation its first row
//! makes. A node is assembled from those parts in two places, the arena
//! and the `Send` [`BasisShard`]s that split it for parallel rounds.
//! [`EchelonBasis`] is node 0 of a one-node arena that learns its row
//! length from its first stored row and answers malformed rows with a
//! typed [`BasisError`]. The dense Gaussian elimination the basis is
//! checked against is test code (`tests/oracle`).
//!
//! # The slab layer
//!
//! Every node's rows are contiguous packed bytes and every row operation
//! (normalize, axpy, row-sum) is driven through the
//! [`ag_gf::SlabField`] bulk kernels. Elimination is
//! therefore bounds-check-free table streaming for GF(2⁸) and `u64`-chunked
//! XOR for GF(2), instead of a scalar [`ag_gf::Field`] multiply per symbol.
//! Malformed rows are rejected up front with a typed [`BasisError`] (see
//! [`EchelonBasis::try_insert`]) so a shape bug can never corrupt a basis
//! mid-elimination.

#![forbid(unsafe_code)]
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

mod arena;
mod echelon;
mod node;

pub use arena::{ArenaError, BasisArena, BasisShard};
pub use echelon::{BasisError, EchelonBasis};
pub use node::Insertion;
