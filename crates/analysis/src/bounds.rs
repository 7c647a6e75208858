//! Closed-form bounds from the paper and from Haeupler \[13\].

/// Theorem 1: uniform algebraic gossip stops in `O((k + log n + D)·Δ)`
/// rounds w.h.p. (both time models). This evaluates the bound expression
/// with constant 1 — experiments report the *ratio* measured/bound, which
/// must stay bounded as parameters grow for the theorem's shape to hold.
///
/// # Panics
///
/// Panics if `n == 0`.
#[must_use]
pub fn uniform_ag_bound(k: usize, n: usize, diameter: u32, max_degree: usize) -> f64 {
    assert!(n > 0, "n must be positive");
    (k as f64 + (n as f64).ln().max(1.0) + f64::from(diameter)) * max_degree as f64
}

/// Theorem 4: TAG stops in `O(k + log n + d(S) + t(S))` rounds w.h.p.,
/// where `t(S)` is the stopping time of the spanning-tree protocol and
/// `d(S)` the diameter of the produced tree.
///
/// # Panics
///
/// Panics if `n == 0`.
#[must_use]
pub fn tag_bound(k: usize, n: usize, tree_diameter: u32, tree_time: f64) -> f64 {
    assert!(n > 0, "n must be positive");
    k as f64 + (n as f64).ln().max(1.0) + f64::from(tree_diameter) + tree_time
}

/// The trivial lower bounds from the proof of Theorem 3: `k/2` rounds in
/// both models (each round moves ≤ 2n messages), plus `D/2` in the
/// synchronous model (one hop per round). Returns `max(k/2, D/2)` for the
/// synchronous model and `k/2` for the asynchronous one.
#[must_use]
pub fn lower_bound_rounds(k: usize, diameter: u32, synchronous: bool) -> f64 {
    let by_messages = k as f64 / 2.0;
    if synchronous {
        by_messages.max(f64::from(diameter) / 2.0)
    } else {
        by_messages
    }
}

/// Haeupler's bound `O(k/γ + log²n / λ)` \[13\], where `γ` is a min-cut
/// measure and `λ` a conductance measure of the graph.
///
/// # Panics
///
/// Panics if `gamma` or `lambda` is not positive.
#[must_use]
pub fn haeupler_bound(k: usize, n: usize, gamma: f64, lambda: f64) -> f64 {
    assert!(
        gamma > 0.0 && lambda > 0.0,
        "gamma and lambda must be positive"
    );
    let ln_n = (n as f64).ln().max(1.0);
    k as f64 / gamma + ln_n * ln_n / lambda
}

/// The three graph families of the paper's Table 2, with the `γ` and `λ`
/// values its rows assume and both bound formulas evaluated per family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Table2Family {
    /// The path graph: `γ = Θ(1/n)`, `λ = Θ(1/n²)` ⇒ Haeupler
    /// `O(k·n/n + n·log²n)` per the paper's normalized column `O(k + n log²n)`.
    Line,
    /// The √n×√n grid: Haeupler column `O(k + √n·log²n)`.
    Grid,
    /// The complete binary tree: Haeupler column `O(k + n·log²n)`.
    BinaryTree,
}

impl Table2Family {
    /// All three families in table order.
    #[must_use]
    pub fn all() -> [Table2Family; 3] {
        [
            Table2Family::Line,
            Table2Family::Grid,
            Table2Family::BinaryTree,
        ]
    }

    /// The family's display name as printed in Table 2.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Table2Family::Line => "Line",
            Table2Family::Grid => "Grid",
            Table2Family::BinaryTree => "Binary Tree",
        }
    }

    /// Haeupler's column of Table 2 (divided-by-n form as printed):
    /// the paper lists `O(k/γ + log²n/λ)/n`.
    #[must_use]
    pub fn haeupler_column(self, k: usize, n: usize) -> f64 {
        let nf = n as f64;
        let ln2 = {
            let l = nf.ln().max(1.0);
            l * l
        };
        match self {
            // O(k + n log^2 n)
            Table2Family::Line => k as f64 + nf * ln2,
            // O(k + sqrt(n) log^2 n)
            Table2Family::Grid => k as f64 + nf.sqrt() * ln2,
            // O(k + n log^2 n)
            Table2Family::BinaryTree => k as f64 + nf * ln2,
        }
    }

    /// This paper's column of Table 2: `O((k + log n + D)·Δ)` with the
    /// family's D and Δ plugged in, simplified as printed.
    #[must_use]
    pub fn our_column(self, k: usize, n: usize) -> f64 {
        let nf = n as f64;
        match self {
            // O(k + n): D = n-1, Delta = 2.
            Table2Family::Line => k as f64 + nf,
            // O(k + sqrt(n)): D = 2(sqrt(n)-1), Delta = 4.
            Table2Family::Grid => k as f64 + nf.sqrt(),
            // O(k + log n): D = O(log n), Delta = 3.
            Table2Family::BinaryTree => k as f64 + nf.ln().max(1.0),
        }
    }

    /// The improvement factor of our bound over Haeupler's for this
    /// family, as the paper's third column reports it.
    #[must_use]
    pub fn improvement_factor(self, k: usize, n: usize) -> f64 {
        self.haeupler_column(k, n) / self.our_column(k, n)
    }

    /// The exact graph parameters `(D, Δ)` of an `n`-node instance.
    #[must_use]
    pub fn params(self, n: usize) -> (u32, usize) {
        match self {
            Table2Family::Line => ((n.saturating_sub(1)) as u32, 2.min(n.saturating_sub(1))),
            Table2Family::Grid => {
                let side = (n as f64).sqrt().round() as usize;
                ((2 * side.saturating_sub(1)) as u32, 4)
            }
            Table2Family::BinaryTree => {
                // Diameter of a complete binary tree on n nodes ~ 2 log2 n.
                let depth = (usize::BITS - n.leading_zeros()).saturating_sub(1);
                ((2 * depth), 3)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_bound_monotone_in_every_parameter() {
        let base = uniform_ag_bound(10, 100, 5, 4);
        assert!(uniform_ag_bound(20, 100, 5, 4) > base);
        assert!(uniform_ag_bound(10, 100, 9, 4) > base);
        assert!(uniform_ag_bound(10, 100, 5, 8) > base);
        assert!(uniform_ag_bound(10, 1000, 5, 4) > base);
    }

    #[test]
    fn tag_bound_adds_tree_terms() {
        let b = tag_bound(10, 100, 6, 25.0);
        assert!((b - (10.0 + (100f64).ln() + 6.0 + 25.0)).abs() < 1e-12);
    }

    #[test]
    fn lower_bound_uses_diameter_only_in_sync() {
        assert_eq!(lower_bound_rounds(4, 100, true), 50.0);
        assert_eq!(lower_bound_rounds(4, 100, false), 2.0);
        assert_eq!(lower_bound_rounds(400, 100, true), 200.0);
    }

    #[test]
    fn table2_improvement_factors_match_paper_shapes() {
        let n = 1 << 14; // 16384
                         // Line: improvement ~ log^2 n for k = O(n).
        let line = Table2Family::Line.improvement_factor(100, n);
        let ln2 = (n as f64).ln().powi(2);
        assert!(
            line > 0.5 * ln2 && line < 2.0 * ln2,
            "line improvement {line}, log^2 n = {ln2}"
        );
        // Grid with k = O(sqrt n): also ~ log^2 n.
        let grid = Table2Family::Grid.improvement_factor(64, n);
        assert!(
            grid > 0.3 * ln2 && grid < 3.0 * ln2,
            "grid improvement {grid}"
        );
        // Binary tree with small k: improvement Omega(n log n / k).
        let k = 16;
        let tree = Table2Family::BinaryTree.improvement_factor(k, n);
        let target = (n as f64) * (n as f64).ln() / k as f64;
        assert!(tree > 0.1 * target, "tree improvement {tree} vs {target}");
    }

    #[test]
    fn family_params_match_known_instances() {
        assert_eq!(Table2Family::Line.params(10), (9, 2));
        let (d, delta) = Table2Family::Grid.params(16);
        assert_eq!((d, delta), (6, 4));
        let (d, delta) = Table2Family::BinaryTree.params(15);
        assert_eq!((d, delta), (6, 3));
    }

    #[test]
    fn haeupler_generic_formula() {
        let b = haeupler_bound(10, 100, 0.5, 0.01);
        let ln_n = (100f64).ln();
        assert!((b - (20.0 + ln_n * ln_n / 0.01)).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn haeupler_rejects_zero_gamma() {
        let _ = haeupler_bound(1, 10, 0.0, 1.0);
    }
}
