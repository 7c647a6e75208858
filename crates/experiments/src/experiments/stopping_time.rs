//! F8 — the stopping-time scaling suite: median rounds vs `n` at fixed
//! `k`, per graph family, under both time models, with fitted log-log
//! slopes next to the paper's bounds.
//!
//! This is the experiment that *measures the theorems at scale*: EXCHANGE
//! algebraic gossip stops in O(Δn) rounds on any graph (Theorem 1/3), and
//! the related analyses (Haeupler's tighter worst-case bounds; the
//! Borokhovich–Avin–Lotker graph-family bounds) predict where that bound
//! is tight versus wildly loose. At fixed `k` the tight prediction is
//! `O((k + log n + D)·Δ)`, so the rounds-vs-n exponent should approach:
//!
//! | family          | Δ      | tight exponent | Δn-bound exponent |
//! |-----------------|--------|----------------|-------------------|
//! | complete        | n − 1  | ~0 (log n)     | 2                 |
//! | ring            | 2      | 1              | 1                 |
//! | grid (√n × √n)  | 4      | 0.5            | 1                 |
//! | random 3-regular| 3      | ~0 (log n)     | 1                 |
//! | barbell         | ~n/2   | 2              | 2                 |
//!
//! The ring sits exactly on the Δn bound, the barbell shows the bound is
//! attained with Δ = Θ(n) (the Ω(n²) bridge bottleneck), and the expander
//! shows how loose Δn can be — the separations only emerge as n grows,
//! which is why the sweeps run rank-only packets (`payload_len = 0`: the
//! decoder cost stays flat while the loop scales) and why
//! `AG_BENCH_SCALE=full` lengthens the ladders.

use std::fmt::Write as _;

use ag_analysis::TableBuilder;
use ag_gf::Gf256;
use ag_graph::seedmix::GOLDEN_GAMMA;
use ag_sim::TimeModel::{Asynchronous, Synchronous};
use algebraic_gossip::ProtocolKind;

use crate::common::{median_rounds, run_spec, Family, Scale, Sweep};

/// The generation size most sweeps run at: fixed and small, so the
/// rounds-vs-n exponent isolates the topology term `D·Δ` of the bound.
/// The barbell is the exception — its Ω(n²) bottleneck is a statement
/// about all-to-all dissemination (the regime of the paper's lower bound
/// and its "speedup ratio of n" claim), so it sweeps at `k = n`.
const SWEEP_K: usize = 4;

/// The swept families, each with the exponent the *tight* analysis
/// predicts at its sweep regime (fixed `k`: `O((k + log n + D)Δ)`;
/// barbell at `k = n`: the Ω(n²) bridge bottleneck; 0 stands for
/// "polylogarithmic") and the exponent of the paper's universal EXCHANGE
/// bound O(Δn).
const FAMILIES: [(Family, f64, f64); 5] = [
    (Family::Complete, 0.0, 2.0),
    (Family::Ring, 1.0, 1.0),
    (Family::GridSquare, 0.5, 1.0),
    (Family::RandomRegular, 0.0, 1.0),
    (Family::Barbell, 2.0, 2.0),
];

/// The sweep ladder of a family: sizes its builder instantiates exactly
/// (squares for the grid, even for the 3-regular graphs).
fn ladder(family: Family, scale: Scale) -> &'static [usize] {
    match (family, scale) {
        (Family::Barbell, Scale::Quick) => &[8, 12, 16, 24],
        (Family::Barbell, Scale::Full) => &[16, 24, 32, 48],
        (Family::GridSquare, Scale::Quick) => &[16, 36, 64, 144],
        (Family::GridSquare, Scale::Full) => &[64, 144, 256, 576],
        (_, Scale::Quick) => &[16, 32, 64, 128],
        (_, Scale::Full) => &[64, 128, 256, 512],
    }
}

/// Runs the stopping-time scaling suite.
#[must_use]
pub fn run(scale: Scale) -> String {
    let trials = scale.trials();
    let mut md = String::new();

    let mut summary = TableBuilder::new([
        "family",
        "sync slope",
        "async slope",
        "tight exp.",
        "Δn-bound exp.",
    ]);
    let _ = writeln!(
        md,
        "Median stopping time vs n (rank-only packets), uniform algebraic\n\
         gossip with EXCHANGE, {trials} trials per cell, k = {SWEEP_K} fixed except the\n\
         barbell, which runs all-to-all (k = n — the regime of its Ω(n²)\n\
         lower bound). Fitted log-log slopes sit next to the exponents of\n\
         the tight prediction (`O((k + log n + D)Δ)` at fixed k) and the\n\
         paper's universal `O(Δn)` bound (the Table 2 regime:\n\
         constant-degree families are linear-ish, the barbell is the\n\
         quadratic worst case, expanders are polylog — \"0\").\n"
    );
    for (family, tight, delta_n) in FAMILIES {
        let lanes = [(Synchronous, 801u64), (Asynchronous, 802)];
        let ns = ladder(family, scale);
        let sweep = Sweep::measure(ns, &lanes, |n, &(time, seed0)| {
            // Every cell has its own seed (keyed by its row), so the random
            // family draws a fresh graph per cell.
            let row = ns
                .iter()
                .position(|&m| m == n)
                .expect("n is a ladder entry");
            let cell_seed = seed0.wrapping_mul(GOLDEN_GAMMA).wrapping_add(row as u64);
            let k = if family == Family::Barbell {
                n
            } else {
                SWEEP_K
            };
            let spec = run_spec(ProtocolKind::UniformAg, k, time);
            median_rounds::<Gf256>(&family.build(n, cell_seed), &spec, trials, cell_seed)
        });
        let (sync, async_) = (sweep.exponent(0), sweep.exponent(1));
        let _ = writeln!(
            md,
            "### F8 {} — slopes: sync {sync:.2}, async {async_:.2} (tight {tight:.1}, Δn bound {delta_n:.1})\n\n{}",
            family.label(),
            sweep.table(["n", "sync rounds", "async rounds"])
        );
        summary.row([
            family.label().to_string(),
            format!("{sync:.2}"),
            format!("{async_:.2}"),
            format!("{tight:.1}"),
            format!("{delta_n:.1}"),
        ]);
    }
    let _ = writeln!(
        md,
        "### F8 summary\n\n{}\n`AG_BENCH_SCALE=full` runs longer ladders; the same rank-only loop at\n\
         n = 10⁵ is the `gossip-rank` workload of `BENCHMARK.json`.\n",
        summary.render_markdown()
    );
    md
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tables print the ladder entry as `n` and fit against it, so
    /// each entry must be a size its family builds exactly.
    #[test]
    fn ladders_hold_sizes_their_families_build_exactly() {
        for (family, ..) in FAMILIES {
            for scale in [Scale::Quick, Scale::Full] {
                for &n in ladder(family, scale) {
                    assert_eq!(family.build(n, 1).n(), n, "{family:?} {scale:?}");
                }
            }
        }
    }
}
