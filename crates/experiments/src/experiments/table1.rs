//! T1 — Table 1 of the paper: the main stopping-time results, measured.
//!
//! | protocol | graph | claim |
//! |---|---|---|
//! | Uniform AG | any | `O((k + log n + D)Δ)` (sync + async) |
//! | Uniform AG | constant Δ | `Θ(k + D)` sync, `O(k + D)` async |
//! | TAG | any | `O(k + log n + d(S) + t(S))` |
//! | TAG + B_RR | any, k = Ω(n) | `Θ(n)` |
//! | TAG + IS | large weak conductance, k = Ω(polylog) | `Θ(k)` sync |

use std::fmt::Write as _;

use ag_analysis::{linear_fit, tag_bound, uniform_ag_bound, TableBuilder};
use ag_gf::Gf256;
use ag_sim::TimeModel::{Asynchronous, Synchronous};
use algebraic_gossip::{measure_tree_protocol, BroadcastTree, CommModel, ProtocolKind};

use crate::common::{engine, median_rounds, run_spec, Family, Scale, Sweep};

/// The "any graph" rows of Table 1.
const FAMILIES: [Family; 5] = [
    Family::Path,
    Family::GridStrip,
    Family::BinaryTree,
    Family::Barbell,
    Family::Complete,
];

/// Runs the full Table 1 validation.
#[must_use]
pub fn run(scale: Scale) -> String {
    let n = scale.pick(16, 32);
    let trials = scale.trials();
    let mut md = String::new();

    // ---- Row 1: uniform AG on any graph, both time models. -------------
    let k = n / 2;
    let sync_spec = run_spec(ProtocolKind::UniformAg, k, Synchronous);
    let async_spec = run_spec(ProtocolKind::UniformAg, k, Asynchronous);
    let mut t = TableBuilder::new([
        "graph",
        "D",
        "Δ",
        "sync rounds",
        "async rounds",
        "bound",
        "sync/bound",
    ]);
    for family in FAMILIES {
        let g = family.build(n, 0);
        let sync = median_rounds::<Gf256>(&g, &sync_spec, trials, 101);
        let asyn = median_rounds::<Gf256>(&g, &async_spec, trials, 102);
        let bound = uniform_ag_bound(k, g.n(), g.diameter(), g.max_degree());
        t.row([
            family.label().to_string(),
            g.diameter().to_string(),
            g.max_degree().to_string(),
            format!("{sync:.0}"),
            format!("{asyn:.0}"),
            format!("{bound:.0}"),
            format!("{:.2}", sync / bound),
        ]);
    }
    let _ = writeln!(
        md,
        "### T1.1 Uniform AG: `O((k + log n + D)Δ)` (k = {k}, n = {n})\n\n{}",
        t.render_markdown()
    );

    // ---- Row 2: Θ(k + D) on constant-max-degree graphs. ----------------
    // Sweep k on the path and fit rounds = a + b·(k + D): order-optimality
    // shows up as a good linear fit with a moderate slope.
    let g = Family::Path.build(n, 0);
    let d = f64::from(g.diameter());
    // Sweep k well past D so the k-term dominates the fit.
    let ks = [2, n / 2, n, 2 * n, 4 * n];
    let sweep = Sweep::measure(&ks, &[Synchronous], |k, &time| {
        let spec = run_spec(ProtocolKind::UniformAg, k, time);
        median_rounds::<Gf256>(&g, &spec, trials, 103)
    });
    let points: Vec<(f64, f64)> = sweep.points(0).iter().map(|&(k, r)| (k + d, r)).collect();
    let fit = linear_fit(&points);
    let _ = writeln!(
        md,
        "### T1.2 Constant max degree: `Θ(k + D)` (path, n = {n})\n\nFit: rounds ≈ {:.2}·(k+D) + {:.1}, R² = {:.3}\n\n{}",
        fit.slope,
        fit.intercept,
        fit.r_squared,
        sweep.table_with(["k", "k+D", "sync rounds"], |k, row| vec![
            format!("{:.0}", k as f64 + d),
            format!("{:.0}", row[0]),
        ])
    );

    // ---- Row 3: TAG bound O(k + log n + d(S) + t(S)). ------------------
    let tag_spec = run_spec(ProtocolKind::TagBrr(0), k, Synchronous);
    let mut t = TableBuilder::new(["graph", "t(S) BRR", "d(S)", "TAG rounds", "bound", "ratio"]);
    for family in FAMILIES {
        let g = family.build(n, 0);
        let brr = BroadcastTree::new(&g, 0, CommModel::RoundRobin, 11).unwrap();
        let (tstats, tree) = measure_tree_protocol(brr, engine(Synchronous, 11));
        let tree = tree.expect("BRR completes");
        let rounds = median_rounds::<Gf256>(&g, &tag_spec, trials, 104);
        // TAG runs Phase 1 on alternate wakeups: charge 2·t(S).
        let bound = tag_bound(k, g.n(), tree.tree_diameter(), 2.0 * tstats.rounds as f64);
        t.row([
            family.label().to_string(),
            tstats.rounds.to_string(),
            tree.tree_diameter().to_string(),
            format!("{rounds:.0}"),
            format!("{bound:.0}"),
            format!("{:.2}", rounds / bound),
        ]);
    }
    let _ = writeln!(
        md,
        "### T1.3 TAG: `O(k + log n + d(S) + t(S))` (k = {k}, n = {n})\n\n{}",
        t.render_markdown()
    );

    // ---- Row 4: k = Ω(n) ⇒ TAG+BRR = Θ(n) on any graph. ----------------
    let ns: &[usize] = scale.pick(&[12, 24, 48], &[16, 32, 64, 128]);
    let families = [Family::Path, Family::Barbell, Family::Complete];
    let sweep = Sweep::measure(ns, &families, |n, family| {
        let spec = run_spec(ProtocolKind::TagBrr(0), n, Synchronous); // k = n
        median_rounds::<Gf256>(&family.build(n, 0), &spec, trials, 105)
    });
    let _ = writeln!(
        md,
        "### T1.4 `k = Ω(n)` ⇒ TAG+B_RR finishes in `Θ(n)` on any graph\n\n{}",
        sweep.table_with(
            ["n", "path t/n", "barbell t/n", "complete t/n"],
            |n, row| row.iter().map(|r| format!("{:.2}", r / n as f64)).collect()
        )
    );

    // ---- Row 5: large weak conductance, k = Ω(polylog) ⇒ Θ(k). ---------
    let mut t = TableBuilder::new([
        "n",
        "k=⌈log²n⌉",
        "oracle t(IS)",
        "TAG+oracle t/k",
        "TAG+IS t/k (facsimile)",
    ]);
    for &nn in ns {
        let g = Family::Barbell.build(nn, 0);
        let lg = (nn as f64).log2();
        let kk = (lg * lg).ceil() as usize;
        let t_is = lg.ceil() as u64; // [5]: O(c(log n/Φ_c + c)), c=2, Φ_2=Θ(1)
        let oracle_spec = run_spec(ProtocolKind::TagOracle(0, t_is), kk, Synchronous);
        let oracle = median_rounds::<Gf256>(&g, &oracle_spec, trials, 106);
        let is_spec = run_spec(ProtocolKind::TagIs(0), kk, Synchronous);
        let is = median_rounds::<Gf256>(&g, &is_spec, trials, 107);
        t.row([
            nn.to_string(),
            kk.to_string(),
            t_is.to_string(),
            format!("{:.2}", oracle / kk as f64),
            format!("{:.2}", is / kk as f64),
        ]);
    }
    let _ = writeln!(
        md,
        "### T1.5 Weak conductance: `Θ(k)` with the IS bound (barbell)\n\nThe oracle charges Phase 1 the `O(c(log n/Φ_c + c))` rounds of [5]; the\nconcrete facsimile (no polylog machinery) is honestly Θ(n) — see DESIGN.md §4.\n\n{}",
        t.render_markdown()
    );
    md
}
