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

use ag_analysis::{loglog_slope, LinearFit, TableBuilder};
use ag_gf::Gf256;
use ag_graph::{builders, Graph};
use ag_sim::TimeModel;
use algebraic_gossip::ProtocolKind;

use crate::common::{median_rounds_protocol, ExperimentReport, Scale};

/// The generation size most sweeps run at: fixed and small, so the
/// rounds-vs-n exponent isolates the topology term `D·Δ` of the bound.
/// The barbell is the exception — its Ω(n²) bottleneck is a statement
/// about all-to-all dissemination, so it sweeps at `k = n` (see
/// [`SweepFamily::k_for`]).
pub const SWEEP_K: usize = 4;

/// One graph family of the stopping-time sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepFamily {
    /// `K_n` — Δ = n − 1, D = 1.
    Complete,
    /// The cycle `C_n` — Δ = 2, D = ⌊n/2⌋.
    Ring,
    /// The √n × √n grid — Δ = 4, D = Θ(√n).
    Grid,
    /// A random 3-regular graph — an expander w.h.p.
    RandomRegular,
    /// The barbell — the paper's Ω(n²) worst case for uniform AG.
    Barbell,
}

impl SweepFamily {
    /// Every family, sweep order.
    pub const ALL: [SweepFamily; 5] = [
        SweepFamily::Complete,
        SweepFamily::Ring,
        SweepFamily::Grid,
        SweepFamily::RandomRegular,
        SweepFamily::Barbell,
    ];

    /// Human label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SweepFamily::Complete => "complete",
            SweepFamily::Ring => "ring",
            SweepFamily::Grid => "grid",
            SweepFamily::RandomRegular => "random 3-regular",
            SweepFamily::Barbell => "barbell",
        }
    }

    /// Builds the family instance closest to `n` nodes (the grid rounds
    /// to a square, random-regular to even `n`); `seed` only matters for
    /// the random family.
    ///
    /// # Panics
    ///
    /// Panics if `n` is below the family's minimum size (the sweep
    /// ladders are all comfortably above it).
    #[must_use]
    pub fn build(self, n: usize, seed: u64) -> Graph {
        match self {
            SweepFamily::Complete => builders::complete(n).expect("complete"),
            SweepFamily::Ring => builders::cycle(n).expect("cycle"),
            SweepFamily::Grid => {
                let side = (n as f64).sqrt().round().max(2.0) as usize;
                builders::grid(side, side).expect("grid")
            }
            SweepFamily::RandomRegular => {
                let n = if n.is_multiple_of(2) { n } else { n + 1 };
                let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
                builders::random_regular(n, 3, &mut rng).expect("random regular")
            }
            SweepFamily::Barbell => builders::barbell(n).expect("barbell"),
        }
    }

    /// The generation size this family sweeps at: `k = n` on the barbell
    /// (all-to-all — the regime of the paper's Ω(n²) lower bound and the
    /// "speedup ratio of n" claim), [`SWEEP_K`] everywhere else.
    #[must_use]
    pub fn k_for(self, n: usize) -> usize {
        match self {
            SweepFamily::Barbell => n,
            _ => SWEEP_K,
        }
    }

    /// The exponent predicted by the *tight* analysis at this family's
    /// sweep regime (fixed `k`: `O((k + log n + D)Δ)`; barbell at
    /// `k = n`: the Ω(n²) bridge bottleneck). 0 stands for
    /// "polylogarithmic".
    #[must_use]
    pub fn tight_exponent(self) -> f64 {
        match self {
            SweepFamily::Complete | SweepFamily::RandomRegular => 0.0,
            SweepFamily::Grid => 0.5,
            SweepFamily::Ring => 1.0,
            SweepFamily::Barbell => 2.0,
        }
    }

    /// The exponent of the paper's universal EXCHANGE bound O(Δn).
    #[must_use]
    pub fn delta_n_exponent(self) -> f64 {
        match self {
            SweepFamily::Complete | SweepFamily::Barbell => 2.0,
            SweepFamily::Ring | SweepFamily::Grid | SweepFamily::RandomRegular => 1.0,
        }
    }
}

/// One measured cell of a sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// Nodes actually instantiated (the grid rounds to a square).
    pub n: usize,
    /// Median stopping time in rounds over the trials.
    pub median_rounds: f64,
}

/// Sweeps one family across `ns` under `time`, returning median stopping
/// times (rank-only uniform algebraic gossip, `k` per
/// [`SweepFamily::k_for`]).
///
/// # Panics
///
/// Panics if any trial fails to complete within the 20M-round budget —
/// the ladders are sized so completion is certain.
#[must_use]
pub fn sweep_family(
    family: SweepFamily,
    ns: &[usize],
    trials: u64,
    time: TimeModel,
    seed0: u64,
) -> Vec<SweepPoint> {
    ns.iter()
        .enumerate()
        .map(|(i, &n)| {
            let cell_seed = seed0
                .wrapping_mul(ag_graph::seedmix::GOLDEN_GAMMA)
                .wrapping_add(i as u64);
            let graph = family.build(n, cell_seed);
            let median_rounds = median_rounds_protocol::<Gf256>(
                &graph,
                ProtocolKind::UniformAg,
                family.k_for(graph.n()),
                time,
                trials,
                cell_seed,
            );
            SweepPoint {
                n: graph.n(),
                median_rounds,
            }
        })
        .collect()
}

/// The log-log fit of a sweep: `median_rounds ~ n^slope`.
///
/// # Panics
///
/// Panics on fewer than 2 points (a sweep always has 4+).
#[must_use]
pub fn fit_slope(points: &[SweepPoint]) -> LinearFit {
    let pts: Vec<(f64, f64)> = points
        .iter()
        .map(|p| (p.n as f64, p.median_rounds.max(1.0)))
        .collect();
    loglog_slope(&pts)
}

/// The sweep ladder of a family at an experiment [`Scale`].
#[must_use]
pub fn ladder(family: SweepFamily, scale: Scale) -> Vec<usize> {
    match (family, scale) {
        (SweepFamily::Barbell, Scale::Quick) => vec![8, 12, 16, 24],
        (SweepFamily::Barbell, Scale::Full) => vec![16, 24, 32, 48],
        (SweepFamily::Grid, Scale::Quick) => vec![16, 36, 64, 144],
        (SweepFamily::Grid, Scale::Full) => vec![64, 144, 256, 576],
        (_, Scale::Quick) => vec![16, 32, 64, 128],
        (_, Scale::Full) => vec![64, 128, 256, 512],
    }
}

/// Runs the stopping-time scaling suite.
#[must_use]
pub fn run(scale: Scale) -> ExperimentReport {
    let trials = scale.trials();
    let mut md = String::new();

    let mut summary = TableBuilder::new(vec![
        "family".into(),
        "sync slope".into(),
        "async slope".into(),
        "tight exp.".into(),
        "Δn-bound exp.".into(),
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
    for family in SweepFamily::ALL {
        let ns = ladder(family, scale);
        let sync = sweep_family(family, &ns, trials, TimeModel::Synchronous, 801);
        let async_ = sweep_family(family, &ns, trials, TimeModel::Asynchronous, 802);
        let mut t = TableBuilder::new(vec![
            "n".into(),
            "sync rounds".into(),
            "async rounds".into(),
        ]);
        for (s, a) in sync.iter().zip(&async_) {
            t.row(vec![
                s.n.to_string(),
                format!("{:.0}", s.median_rounds),
                format!("{:.0}", a.median_rounds),
            ]);
        }
        let fit_s = fit_slope(&sync);
        let fit_a = fit_slope(&async_);
        let _ = writeln!(
            md,
            "### F8 {} — slopes: sync {:.2}, async {:.2} (tight {:.1}, Δn bound {:.1})\n\n{}",
            family.label(),
            fit_s.slope,
            fit_a.slope,
            family.tight_exponent(),
            family.delta_n_exponent(),
            t.render_markdown()
        );
        summary.row(vec![
            family.label().to_string(),
            format!("{:.2}", fit_s.slope),
            format!("{:.2}", fit_a.slope),
            format!("{:.1}", family.tight_exponent()),
            format!("{:.1}", family.delta_n_exponent()),
        ]);
    }
    let _ = writeln!(
        md,
        "### F8 summary\n\n{}\n`AG_BENCH_SCALE=full` runs longer ladders; the same rank-only loop at\n\
         n = 10⁵ is the `gossip-rank` workload of `BENCHMARK.json`.\n",
        summary.render_markdown()
    );

    ExperimentReport {
        id: "F8",
        title: "Stopping-time scaling suite: rounds vs n per family",
        markdown: md,
    }
}
