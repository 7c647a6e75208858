//! Queueing-network simulator for the paper's proof technique.
//!
//! Theorem 2 of Avin et al. bounds the drain time of a *feed-forward tree of
//! M/M/1 queues*: `n` identical exponential servers arranged in a tree,
//! `k` customers placed arbitrarily, no external arrivals; every serviced
//! customer moves to its parent queue and leaves the system at the root.
//! The proof (Figure 1) walks a chain of stochastically-dominated systems:
//!
//! ```text
//! t(Q^tree_n)  ⪯  t(Q̂^tree_n)  ≈  t(Q^line_lmax)  ⪯  t(Q̀^line)  ⪯  t(Q̂^line_lmax)
//!              = O((k + l_max + log n)/μ)
//! ```
//!
//! This crate simulates every system in that chain exactly (the tree/line
//! networks are continuous-time Markov chains because exponential service is
//! memoryless) plus the Jackson-equilibrium construction of Lemma 7, and
//! provides an empirical stochastic-dominance checker used by the `queue_fig`
//! experiment.
//!
//! # Examples
//!
//! ```
//! use ag_queueing::{LineSystem, TreeSystem};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! // 4 queues in a line, 10 customers at the farthest queue, mu = 1.
//! let t = LineSystem::all_at_tail(4, 10, 1.0).drain_time(&mut rng);
//! assert!(t > 0.0);
//! ```

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

mod dominance;
mod jackson;
mod line;
mod reduce;
mod tree;

pub use dominance::{dominance_violation, empirical_cdf_points, ks_critical_5pct};
pub use jackson::JacksonLine;
pub use line::LineSystem;
pub use reduce::level_line_of;
pub use tree::TreeSystem;

/// Draws an exponential random variable with the given `rate`.
///
/// # Panics
///
/// Panics if `rate <= 0`.
pub(crate) fn sample_exp<R: rand::Rng + ?Sized>(rate: f64, rng: &mut R) -> f64 {
    assert!(rate > 0.0, "exponential rate must be positive");
    // Inverse CDF; 1 - U in (0, 1] avoids ln(0).
    let u: f64 = rng.gen::<f64>();
    -(1.0 - u).ln() / rate
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn exponential_sample_mean_matches_rate() {
        let mut rng = StdRng::seed_from_u64(42);
        let rate = 2.5;
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| sample_exp(rate, &mut rng)).sum::<f64>() / n as f64;
        assert!(
            (mean - 1.0 / rate).abs() < 0.02,
            "sample mean {mean} far from {}",
            1.0 / rate
        );
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_rejected() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = sample_exp(0.0, &mut rng);
    }
}
