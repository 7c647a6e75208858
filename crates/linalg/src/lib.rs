//! Dense linear algebra over finite fields.
//!
//! Algebraic gossip nodes "store messages (linear equations) in a matrix
//! form and once the dimension (or rank) of the matrix becomes k, a node can
//! solve the linear system and discover all the k messages" (Avin et al.,
//! Section 2). This crate provides exactly that machinery:
//!
//! * [`Matrix`] — a dense row-major matrix over any [`ag_gf::SlabField`],
//!   with Gaussian elimination, rank, inversion and solving,
//! * one *incremental* row-echelon basis — the decoder hot path that
//!   inserts one received equation at a time and reports whether it was
//!   innovative (a "helpful message" in the paper's terminology) — behind
//!   two views: [`EchelonBasis`] holds one node, [`BasisArena`] all of a
//!   simulation's ([`ArenaGrowth`] picks rank-bounded or preallocated
//!   storage; `Send` [`BasisShard`]s split it for parallel rounds).
//!
//! # The slab layer
//!
//! Both [`Matrix`] and [`EchelonBasis`] store their rows as contiguous
//! packed byte slabs and drive every row operation (normalize, axpy,
//! row-sum) through the [`ag_gf::SlabField`] bulk kernels. Elimination is
//! therefore bounds-check-free table streaming for GF(2⁸) and `u64`-chunked
//! XOR for GF(2), instead of a scalar [`ag_gf::Field`] multiply per symbol.
//! Malformed rows are rejected up front with a typed [`BasisError`] (see
//! [`EchelonBasis::try_insert`]) so a shape bug can never corrupt a basis
//! mid-elimination.
//!
//! # Examples
//!
//! ```
//! use ag_gf::{Field, Gf256};
//! use ag_linalg::Matrix;
//!
//! let m = Matrix::from_rows(vec![
//!     vec![Gf256::new(1), Gf256::new(2)],
//!     vec![Gf256::new(3), Gf256::new(4)],
//! ]).unwrap();
//! assert_eq!(m.rank(), 2);
//! let inv = m.inverse().unwrap();
//! assert!(m.matmul(&inv).unwrap().is_identity());
//! ```

mod arena;
mod echelon;
mod matrix;
mod node;

pub use arena::{ArenaError, ArenaGrowth, BasisArena, BasisShard};
pub use echelon::{BasisError, EchelonBasis};
pub use matrix::{Matrix, ShapeError};
pub use node::Insertion;
