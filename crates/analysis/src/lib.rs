//! Analysis toolkit: the paper's closed-form bounds, summary statistics,
//! and scaling-exponent fits.
//!
//! The experiments compare *measured* stopping times against the paper's
//! bound `O((k + log n + D)·Δ)` (Theorem 1), TAG's bound
//! `O(k + log n + d(S) + t(S))` (Theorem 4), the trivial lower bounds
//! `Ω(k)` / `Ω(k + D)`, and — for Table 2 — Haeupler's
//! `O(k/γ + log²n / λ)` with the per-family values of `γ` and `λ` the
//! paper's Table 2 assumes. "Order optimal" is a statement about growth
//! rates, so [`regression`] provides least-squares and log-log slope fits
//! to turn sweep measurements into exponents.

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

pub mod bounds;
pub mod regression;
pub mod stats;
pub mod table;
pub mod viz;

pub use bounds::{haeupler_bound, lower_bound_rounds, tag_bound, uniform_ag_bound, Table2Family};
pub use regression::{linear_fit, loglog_slope, LinearFit};
pub use stats::Summary;
pub use table::TableBuilder;
pub use viz::{downsample, sparkline};
