//! Random linear network coding (RLNC) for algebraic gossip.
//!
//! This crate implements the message layer of the paper (Section 2,
//! "Random Linear Network Coding"): there are `k ≤ n` initial messages
//! `x_1, …, x_k`, each a vector in `F_q^r`. Every transmitted [`Packet`]
//! carries the coefficients of a random linear combination together with the
//! combined payload, i.e. one linear equation over the unknowns. A node
//! accumulates equations in a [`Decoder`]; a received packet is *helpful*
//! (innovative) iff it raises the decoder's rank, and once the rank reaches
//! `k` the node solves the system and recovers every message. The verdict
//! has one type, the store's [`Insertion`], re-exported here: a reception
//! is an insertion into the node's basis, whichever entry point it took.
//!
//! [`Recoder`] produces outgoing packets as fresh random combinations of
//! *everything the node currently stores* — the defining feature of RLNC
//! gossip (as opposed to store-and-forward rumor spreading).
//!
//! For simulations, every node's equations live in one
//! [`ag_linalg::BasisArena`] the caller owns (a [`Decoder`] is node 0 of a
//! one-node arena behind the [`Packet`] API), and [`recode`] is the one
//! coefficient draw and combination, over that arena or one of its
//! [`ag_linalg::BasisShard`]s. It emits into and receives from packed rows
//! the caller owns, so a gossip round loop that keeps its messages in one
//! slab of its own is free of per-message heap allocation: coefficient
//! rows live in the arena's slab from construction on, a node makes one
//! allocation for its payload rows, at its first row (none in a rank-only
//! run), and nothing else allocates, which
//! `crates/core/tests/alloc_audit.rs` bounds round by round.
//! [`Generation::seed_row_into`] writes the row that gives a node a source
//! message.
//!
//! # Examples
//!
//! ```
//! use ag_gf::Gf256;
//! use ag_rlnc::{Decoder, Generation, Recoder};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! // Three source messages of four symbols each.
//! let generation = Generation::from_messages(vec![
//!     vec![Gf256::new(1); 4],
//!     vec![Gf256::new(2); 4],
//!     vec![Gf256::new(3); 4],
//! ]).unwrap();
//!
//! // The source holds everything; a sink starts empty.
//! let source = Decoder::with_all_messages(&generation);
//! let mut sink = Decoder::new(3, 4);
//! while !sink.is_complete() {
//!     let pkt = Recoder::new(&source).emit(&mut rng).expect("source has data");
//!     sink.try_receive(&pkt).expect("the source's packets fit the sink");
//! }
//! assert_eq!(sink.decode().unwrap(), generation.messages());
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

mod block;
mod decoder;
mod generation;
mod packet;
mod recoder;

pub use ag_linalg::{ArenaError, Insertion};
pub use block::{BlockDecoder, BlockEncoder, BlockError};
pub use decoder::{CodingError, Decoder};
pub use generation::{Generation, GenerationError};
pub use packet::Packet;
pub use recoder::{recode, Recoder, StoredRows};
