//! Umbrella crate for the *Order Optimal Information Spreading Using
//! Algebraic Gossip* reproduction (Avin, Borokhovich, Censor-Hillel,
//! Lotker — PODC 2011).
//!
//! This crate re-exports the whole workspace under one roof for the
//! examples and integration tests:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`gf`] | `ag-gf` | finite fields GF(2), GF(2⁸), GF(p) |
//! | [`linalg`] | `ag-linalg` | incremental echelon bases, one node or all |
//! | [`rlnc`] | `ag-rlnc` | coded packets, decoders, recoding |
//! | [`graph`] | `ag-graph` | topologies, BFS, spanning trees, metrics |
//! | [`sim`] | `ag-sim` | the gossip engine (time models, actions) |
//! | [`queueing`] | `ag-queueing` | M/M/1 tree/line networks (Theorem 2) |
//! | [`analysis`] | `ag-analysis` | bounds, statistics, scaling fits |
//! | [`protocols`] | `algebraic-gossip` | uniform AG, TAG, BRR, IS |
//!
//! See the `examples/` directory for runnable entry points and
//! `crates/experiments` for the table/figure regenerators.

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

pub use ag_analysis as analysis;
pub use ag_gf as gf;
pub use ag_graph as graph;
pub use ag_linalg as linalg;
pub use ag_queueing as queueing;
pub use ag_rlnc as rlnc;
pub use ag_sim as sim;
pub use algebraic_gossip as protocols;

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_compile_and_link() {
        // Touch one item from each re-exported crate.
        use crate::gf::Field;
        let _ = crate::gf::Gf256::ONE;
        let mut basis = crate::linalg::EchelonBasis::<crate::gf::Gf2>::new(2);
        assert_eq!(
            basis.try_insert(vec![crate::gf::Gf2::ONE; 2]),
            Ok(crate::linalg::Insertion::Innovative)
        );
        assert_eq!(basis.rank(), 1);
        let g = crate::graph::builders::path(3).unwrap();
        assert_eq!(g.n(), 3);
        let _ = crate::sim::EngineConfig::default();
        let _ = crate::analysis::lower_bound_rounds(4, 2, true);
        let _ = crate::protocols::AgConfig::new(1);
    }
}
