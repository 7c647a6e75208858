//! What every experiment is a spec over, each written once:
//!
//! * [`Scale`] — the harness's one input (`AG_BENCH_SCALE`);
//! * [`Family`] — every graph family the suite builds at a size `n`;
//! * the cell runner — [`median_rounds`] of a [`run_spec`] over a
//!   [`TrialPlan`], under the one round budget [`ROUND_BUDGET`] that
//!   [`engine`] gives every run that is meant to complete;
//! * the two table shapes — a [`Sweep`] (axis values × measured columns,
//!   with a log-log fit per column) and a [`ratio_table`] (two protocols
//!   against their first row).
//!
//! A table that shares neither shape with two others is written out in
//! its module on [`TableBuilder`] directly.

use ag_analysis::{loglog_slope, TableBuilder};
use ag_gf::SlabField;
use ag_graph::{builders, Graph};
use ag_sim::{EngineConfig, TimeModel};
use algebraic_gossip::{ProtocolKind, RunSpec, TrialPlan};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// How big to run the experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small sizes / few trials — the default, and the scale of the
    /// committed `EXPERIMENTS.md`, which `tests/experiments_md.rs`
    /// regenerates and compares.
    Quick,
    /// Larger sizes and more trials.
    Full,
}

impl Scale {
    /// Reads `AG_BENCH_SCALE`: unset is `Quick`, otherwise the value must
    /// name a scale ([`Self::from_value`]).
    ///
    /// # Errors
    ///
    /// Returns the offending value when it names no scale.
    #[allow(
        clippy::disallowed_methods,
        reason = "the harness's one knob; library code never reads the environment"
    )]
    pub fn from_env() -> Result<Self, String> {
        match std::env::var("AG_BENCH_SCALE") {
            Err(std::env::VarError::NotPresent) => Ok(Scale::Quick),
            Err(std::env::VarError::NotUnicode(v)) => Err(v.to_string_lossy().into_owned()),
            Ok(v) => Self::from_value(&v).ok_or(v),
        }
    }

    /// The scale `value` names: `quick` or `full`, in any capitalization,
    /// surrounding whitespace ignored; `None` for anything else.
    #[must_use]
    pub fn from_value(value: &str) -> Option<Self> {
        [Scale::Quick, Scale::Full]
            .into_iter()
            .find(|scale| value.trim().eq_ignore_ascii_case(scale.name()))
    }

    /// The value of `AG_BENCH_SCALE` that selects this scale.
    #[must_use]
    pub fn name(self) -> &'static str {
        self.pick("quick", "full")
    }

    /// The value a parameter takes at this scale: `quick` or `full`.
    #[must_use]
    pub fn pick<T>(self, quick: T, full: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }

    /// Number of trials per measured cell.
    #[must_use]
    pub fn trials(self) -> u64 {
        self.pick(3, 7)
    }
}

/// A graph family of the suite, built at a size by [`Family::build`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// The path `P_n` — Δ = 2, D = n − 1.
    Path,
    /// The cycle `C_n` — Δ = 2, D = ⌊n/2⌋.
    Ring,
    /// The 4 × (n/4) grid, a strip that grows in one direction — Δ = 4,
    /// D = Θ(n).
    GridStrip,
    /// The √n × √n grid, `n` rounded to the nearest square — Δ = 4,
    /// D = Θ(√n).
    GridSquare,
    /// The complete binary tree — Δ = 3, D = Θ(log n).
    BinaryTree,
    /// Two cliques joined by one bridge edge — the paper's Ω(n²) worst
    /// case for uniform AG.
    Barbell,
    /// `K_n` — Δ = n − 1, D = 1.
    Complete,
    /// A random 3-regular graph (an expander w.h.p.), odd `n` bumped to
    /// the next even size; the one family whose instance depends on the
    /// seed.
    RandomRegular,
    /// The star `K_{1,n−1}`.
    Star,
    /// A clique of ⌊n/2⌋ nodes with a tail of ⌊n/2⌋.
    Lollipop,
}

impl Family {
    /// The family's name in row labels.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Family::Path => "path",
            Family::Ring => "ring",
            Family::GridStrip | Family::GridSquare => "grid",
            Family::BinaryTree => "binary tree",
            Family::Barbell => "barbell",
            Family::Complete => "complete",
            Family::RandomRegular => "random 3-regular",
            Family::Star => "star",
            Family::Lollipop => "lollipop",
        }
    }

    /// Builds the family's instance closest to `n` nodes. `seed` seeds the
    /// generator of the random family; the others ignore it.
    ///
    /// # Panics
    ///
    /// Panics if `n` is below the family's minimum size (every size the
    /// suite asks for is comfortably above it).
    #[must_use]
    pub fn build(self, n: usize, seed: u64) -> Graph {
        match self {
            Family::Path => builders::path(n),
            Family::Ring => builders::cycle(n),
            Family::GridStrip => builders::grid(4, n / 4),
            Family::GridSquare => {
                let side = (n as f64).sqrt().round().max(2.0) as usize;
                builders::grid(side, side)
            }
            Family::BinaryTree => builders::binary_tree(n),
            Family::Barbell => builders::barbell(n),
            Family::Complete => builders::complete(n),
            Family::RandomRegular => {
                builders::random_regular(n.next_multiple_of(2), 3, &mut StdRng::seed_from_u64(seed))
            }
            Family::Star => builders::star(n),
            Family::Lollipop => builders::lollipop(n / 2, n / 2),
        }
        .expect("every size the suite asks for is above the family's minimum")
    }
}

/// The round budget of every run that is meant to complete: far above any
/// stopping time in the suite, so hitting it is a failed cell, never a
/// measurement. The two scenarios where a stalled run *is* the measurement
/// (A6's crashes, F9c′'s recovery) set their own stall budget locally.
pub const ROUND_BUDGET: u64 = 20_000_000;

/// The engine configuration of such a run.
#[must_use]
pub fn engine(time: TimeModel, seed: u64) -> EngineConfig {
    EngineConfig {
        time_model: time,
        max_rounds: ROUND_BUDGET,
        seed,
        ..EngineConfig::default()
    }
}

/// The spec of one measured cell: `kind` disseminating `k` messages under
/// `time`, rank-only packets. A table builds it once and tweaks its public
/// fields per row; [`median_rounds`] seeds it per trial.
#[must_use]
pub fn run_spec(kind: ProtocolKind, k: usize, time: TimeModel) -> RunSpec {
    RunSpec {
        engine: engine(time, 0),
        ..RunSpec::new(kind, k)
    }
}

/// The cell runner: the median stopping time, in rounds, of `spec` on
/// `graph` over `trials` trials of the [`TrialPlan`] seeded by `seed0`.
///
/// # Panics
///
/// Panics if the spec is invalid for the graph or any trial fails to
/// complete and decode — cells are sized so that completion is certain.
#[must_use]
pub fn median_rounds<F: SlabField>(graph: &Graph, spec: &RunSpec, trials: u64, seed0: u64) -> f64 {
    TrialPlan::new(trials, seed0)
        .run::<F>(graph, spec)
        .expect("valid spec")
        .expect_all_ok(&format!(
            "{:?} on n={} k={}",
            spec.kind,
            graph.n(),
            spec.ag.k
        ))
        .median_rounds()
}

/// A sweep: one measurement per axis value (a row) and column.
#[derive(Debug, Clone, PartialEq)]
pub struct Sweep {
    /// The axis values, one per row.
    axis: Vec<usize>,
    /// `rows[i][c]` is column `c` measured at `axis[i]`.
    rows: Vec<Vec<f64>>,
}

impl Sweep {
    /// Measures `cell(axis value, column)` for every row and column.
    pub fn measure<C>(axis: &[usize], columns: &[C], cell: impl Fn(usize, &C) -> f64) -> Self {
        let rows = axis
            .iter()
            .map(|&x| columns.iter().map(|c| cell(x, c)).collect())
            .collect();
        Sweep {
            axis: axis.to_vec(),
            rows,
        }
    }

    /// The `(axis value, measurement)` points of one column.
    #[must_use]
    pub fn points(&self, column: usize) -> Vec<(f64, f64)> {
        let xs = self.axis.iter().map(|&x| x as f64);
        xs.zip(self.rows.iter().map(|row| row[column])).collect()
    }

    /// The fitted exponent `b` of `measurement ~ axis^b` for one column
    /// (log-log least squares; measurements clamped to ≥ 1).
    #[must_use]
    pub fn exponent(&self, column: usize) -> f64 {
        let clamped: Vec<(f64, f64)> = self
            .points(column)
            .into_iter()
            .map(|(x, y)| (x, y.max(1.0)))
            .collect();
        loglog_slope(&clamped).slope
    }

    /// The Markdown table under `header`: per row the axis value, then
    /// `cells(axis value, measurements)`.
    #[must_use]
    pub fn table_with(
        &self,
        header: impl IntoIterator<Item = impl Into<String>>,
        cells: impl Fn(usize, &[f64]) -> Vec<String>,
    ) -> String {
        let mut t = TableBuilder::new(header);
        for (&x, row) in self.axis.iter().zip(&self.rows) {
            t.row([x.to_string()].into_iter().chain(cells(x, row)));
        }
        t.render_markdown()
    }

    /// [`Self::table_with`] every measurement printed as whole rounds.
    #[must_use]
    pub fn table(&self, header: impl IntoIterator<Item = impl Into<String>>) -> String {
        self.table_with(header, |_, row| {
            row.iter().map(|r| format!("{r:.0}")).collect()
        })
    }
}

/// The Markdown table of two protocols `A` and `B` measured row by row,
/// `rows` yielding `(label, A rounds, B rounds)`: each protocol's rounds
/// beside their ratio to its own first row (the baseline), then `B/A`.
/// `header` names the six columns.
#[must_use]
pub fn ratio_table(
    header: impl IntoIterator<Item = impl Into<String>>,
    rows: impl IntoIterator<Item = (String, f64, f64)>,
) -> String {
    let mut t = TableBuilder::new(header);
    let mut baseline = None;
    for (label, a, b) in rows {
        let (base_a, base_b) = *baseline.get_or_insert((a, b));
        t.row([
            label,
            format!("{a:.0}"),
            format!("{:.2}", a / base_a),
            format!("{b:.0}"),
            format!("{:.2}", b / base_b),
            format!("{:.2}", b / a),
        ]);
    }
    t.render_markdown()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ag_gf::Gf256;

    #[test]
    fn scale_trials_ordering() {
        assert!(Scale::Full.trials() > Scale::Quick.trials());
    }

    #[test]
    fn scale_parsing_is_case_insensitive_and_rejects_garbage() {
        for full in ["full", "FULL", "Full", "fUlL", "  full "] {
            assert_eq!(Scale::from_value(full), Some(Scale::Full), "{full:?}");
        }
        for quick in ["quick", "Quick", " QUICK\n"] {
            assert_eq!(Scale::from_value(quick), Some(Scale::Quick), "{quick:?}");
        }
        for garbage in ["", "ful", "fullest", "banana", "quick full"] {
            assert_eq!(Scale::from_value(garbage), None, "{garbage:?}");
        }
    }

    // No set_var-based test for from_env: mutating the process
    // environment races with the concurrent getenv calls other test
    // threads make (the rayon shim reads RAYON_NUM_THREADS), which is
    // undefined behavior on glibc. from_value covers the parsing;
    // from_env is an env read over it, exercised end-to-end by the
    // AG_BENCH_SCALE=FuLL and AG_BENCH_SCALE=ful runs of the verify flow.

    /// The `n`, `Δ` and label the committed tables print for each family.
    #[test]
    fn families_build_what_the_tables_print() {
        for (family, asked, label, n, max_degree) in [
            (Family::Path, 16, "path", 16, 2),
            (Family::Ring, 32, "ring", 32, 2),
            (Family::GridStrip, 16, "grid", 16, 4),
            (Family::GridStrip, 64, "grid", 64, 4),
            (Family::GridSquare, 36, "grid", 36, 4),
            (Family::GridSquare, 40, "grid", 36, 4),
            (Family::GridSquare, 2, "grid", 4, 2),
            (Family::BinaryTree, 16, "binary tree", 16, 3),
            (Family::Barbell, 16, "barbell", 16, 8),
            (Family::Complete, 16, "complete", 16, 15),
            (Family::RandomRegular, 32, "random 3-regular", 32, 3),
            (Family::RandomRegular, 33, "random 3-regular", 34, 3),
            (Family::Star, 10, "star", 10, 9),
            (Family::Lollipop, 16, "lollipop", 16, 8),
        ] {
            let g = family.build(asked, 7);
            assert_eq!(family.label(), label);
            assert_eq!(g.n(), n, "{family:?} at {asked}");
            assert_eq!(g.max_degree(), max_degree, "{family:?} at {asked}");
        }
        // The strip is 4 wide and the square is square.
        assert_eq!(Family::GridStrip.build(64, 0).diameter(), 3 + 15);
        assert_eq!(Family::GridSquare.build(64, 0).diameter(), 7 + 7);
        // Only the random family reads the seed.
        let rr = |seed| Family::RandomRegular.build(32, seed);
        assert_eq!(rr(1), rr(1));
        assert_ne!(rr(1), rr(2));
        assert_eq!(Family::Barbell.build(16, 1), Family::Barbell.build(16, 2));
    }

    #[test]
    fn cell_runner_is_deterministic_and_uses_the_one_budget() {
        let g = Family::Ring.build(8, 0);
        let spec = run_spec(ProtocolKind::UniformAg, 4, TimeModel::Asynchronous);
        assert_eq!(spec.engine.time_model, TimeModel::Asynchronous);
        assert_eq!(spec.engine.max_rounds, ROUND_BUDGET);
        let a = median_rounds::<Gf256>(&g, &spec, 3, 1);
        assert_eq!(a, median_rounds::<Gf256>(&g, &spec, 3, 1));
        assert!(a >= 2.0, "k/2 lower bound");
    }

    #[test]
    fn sweep_fits_the_exponent_and_lays_rows_out_in_axis_order() {
        let sweep = Sweep::measure(&[2, 4, 8, 16], &[2, 1], |n, &power| (n as f64).powi(power));
        assert_eq!(format!("{:.2}", sweep.exponent(0)), "2.00");
        assert_eq!(format!("{:.2}", sweep.exponent(1)), "1.00");
        assert_eq!(
            sweep.table(["n", "n²", "n"]),
            "| n | n² | n |\n|---|---|---|\n| 2 | 4 | 2 |\n| 4 | 16 | 4 |\n| 8 | 64 | 8 |\n| 16 | 256 | 16 |\n"
        );
        let ratios = sweep.table_with(["n", "n²/n"], |n, row| {
            vec![format!("{:.1}", row[0] / row[1] / n as f64)]
        });
        assert!(ratios.ends_with("| 16 | 1.0 |\n"), "{ratios}");
    }

    #[test]
    fn ratio_table_divides_by_its_first_row() {
        let table = ratio_table(
            ["x", "A", "A ratio", "B", "B ratio", "B/A"],
            [("static", 10.0, 40.0), ("churned", 15.0, 30.0)]
                .map(|(label, a, b)| (label.to_string(), a, b)),
        );
        assert_eq!(
            table,
            "| x | A | A ratio | B | B ratio | B/A |\n|---|---|---|---|---|---|\n\
             | static | 10 | 1.00 | 40 | 1.00 | 4.00 |\n\
             | churned | 15 | 1.50 | 30 | 0.75 | 2.00 |\n"
        );
    }
}
