//! T2 — Table 2 of the paper: our bound vs Haeupler's `O(k/γ + log²n/λ)`
//! on the line, grid and binary tree, plus measured uniform-AG times.

use std::fmt::Write as _;

use ag_analysis::{uniform_ag_bound, Table2Family, TableBuilder};
use ag_gf::Gf256;
use ag_sim::TimeModel;
use algebraic_gossip::ProtocolKind;

use crate::common::{median_rounds, run_spec, Family, Scale};

/// Runs the Table 2 comparison.
#[must_use]
pub fn run(scale: Scale) -> String {
    let n_measure = scale.pick(36, 64);
    let n_formula = scale.pick(1 << 12, 1 << 16);
    let trials = scale.trials();
    let mut md = String::new();

    // Formula comparison at large n (the table as printed in the paper).
    let mut t = TableBuilder::new([
        "graph",
        "k",
        "Haeupler [13]",
        "this paper",
        "improvement",
        "paper predicts",
    ]);
    let ln2 = (n_formula as f64).ln().powi(2);
    for family in Table2Family::all() {
        let k = match family {
            // Table 2's regimes: any k for line; k = O(sqrt n) for grid;
            // small k shows the tree's Ω(n log n / k) factor best.
            Table2Family::Line => 256,
            Table2Family::Grid => (n_formula as f64).sqrt() as usize,
            Table2Family::BinaryTree => 64,
        };
        let h = family.haeupler_column(k, n_formula);
        let ours = family.our_column(k, n_formula);
        let predicted = match family {
            Table2Family::Line | Table2Family::Grid => format!("log²n = {ln2:.0}"),
            Table2Family::BinaryTree => {
                format!(
                    "Ω(n·ln n/k) = {:.0}",
                    n_formula as f64 * (n_formula as f64).ln() / k as f64
                )
            }
        };
        t.row([
            family.name().to_string(),
            k.to_string(),
            format!("{h:.3e}"),
            format!("{ours:.3e}"),
            format!("{:.0}x", family.improvement_factor(k, n_formula)),
            predicted,
        ]);
    }
    let _ = writeln!(
        md,
        "### T2(a) Bound formulas at n = {n_formula}\n\n{}",
        t.render_markdown()
    );

    // Measured uniform AG vs both bounds at simulation scale, with the
    // graph quantities computed exactly: γ via Stoer–Wagner min cut, λ via
    // the BFS-sweep conductance estimate.
    let mut t = TableBuilder::new([
        "graph",
        "n",
        "k",
        "γ (min cut)",
        "λ (sweep est.)",
        "measured sync",
        "our bound",
        "Haeupler bound",
        "meas/ours",
    ]);
    let graphs = [Family::Path, Family::GridSquare, Family::BinaryTree];
    for (family, graph) in Table2Family::all().into_iter().zip(graphs) {
        let g = graph.build(n_measure, 0);
        let k = (g.n() / 2).max(2);
        let gamma = ag_graph::metrics::global_min_cut(&g);
        let lambda = ag_graph::metrics::conductance_upper_bound(&g);
        let spec = run_spec(ProtocolKind::UniformAg, k, TimeModel::Synchronous);
        let measured = median_rounds::<Gf256>(&g, &spec, trials, 201);
        let bound = uniform_ag_bound(k, g.n(), g.diameter(), g.max_degree());
        let haeupler = ag_analysis::haeupler_bound(k, g.n(), gamma as f64, lambda);
        t.row([
            family.name().to_string(),
            g.n().to_string(),
            k.to_string(),
            gamma.to_string(),
            format!("{lambda:.4}"),
            format!("{measured:.0}"),
            format!("{bound:.0}"),
            format!("{haeupler:.0}"),
            format!("{:.2}", measured / bound),
        ]);
    }
    let _ = writeln!(
        md,
        "### T2(b) Measured uniform AG vs both bounds (n ≈ {n_measure})\n\nγ is the exact Stoer–Wagner min cut; λ the BFS-sweep conductance estimate.\n\n{}",
        t.render_markdown()
    );

    // Improvement factor growth across n for the line (should track
    // log² n): the shape of Table 2's "Improvement factor" column.
    let mut t = TableBuilder::new(["n", "improvement (line)", "log²n", "ratio"]);
    for exp in [8u32, 10, 12, 14, 16] {
        let n = 1usize << exp;
        let imp = Table2Family::Line.improvement_factor(n / 4, n);
        let l2 = (n as f64).ln().powi(2);
        t.row([
            n.to_string(),
            format!("{imp:.0}"),
            format!("{l2:.0}"),
            format!("{:.2}", imp / l2),
        ]);
    }
    let _ = writeln!(
        md,
        "### T2(c) Improvement factor growth (line, k = n/4)\n\n{}",
        t.render_markdown()
    );
    md
}
