//! F1/F2 — Figure 1 and Theorem 2: the queueing reduction chain.

use std::fmt::Write as _;

use ag_analysis::{linear_fit, Summary, TableBuilder};
use ag_graph::builders;
use ag_queueing::{
    dominance_violation, ks_critical_5pct, level_line_of, JacksonLine, LineSystem, TreeSystem,
};
use algebraic_gossip::TrialPlan;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::common::Scale;

/// Runs the queueing-reduction experiments.
#[must_use]
pub fn run(scale: Scale) -> String {
    let trials: u64 = scale.pick(600, 3000);
    // Queueing drains are plain sampling functions (no RunSpec), so every
    // series runs through a TrialPlan's map(): one fresh, centrally
    // derived rng per trial, executed in parallel, collected in order.
    let sample = |seed0: u64, n: u64, f: &(dyn Fn(&mut StdRng) -> f64 + Sync)| -> Vec<f64> {
        TrialPlan::new(n, seed0).map(|s| f(&mut StdRng::seed_from_u64(s.protocol)))
    };
    let mut md = String::new();

    // ---- F1: the dominance chain of Figure 1. --------------------------
    let g = builders::binary_tree(15).unwrap();
    let tree = g.bfs_tree(0).into_spanning_tree();
    let mut placement = vec![0usize; 15];
    for i in 0..12 {
        placement[3 + (i % 12)] += 1;
    }
    let lmax = tree.depth() as usize + 1;
    let k: usize = placement.iter().sum();

    let line_sys = level_line_of(&tree, &placement, 1.0);
    let tree_sys = TreeSystem::new(&tree, placement, 1.0).unwrap();
    let tail_sys = LineSystem::all_at_tail(lmax, k, 1.0);
    let jackson = JacksonLine::new(lmax, k, 1.0);

    let x_tree = sample(0xF1_01, trials, &|rng| tree_sys.drain_time(rng));
    let x_line = sample(0xF1_02, trials, &|rng| line_sys.drain_time(rng));
    let x_tail = sample(0xF1_03, trials, &|rng| tail_sys.drain_time(rng));
    let x_jack = sample(0xF1_04, trials, &|rng| jackson.stopping_time(rng));

    let crit = ks_critical_5pct(trials as usize, trials as usize);
    let mut t = TableBuilder::new([
        "dominance link (X ⪯ Y)",
        "mean X",
        "mean Y",
        "KS violation",
        "5% critical",
        "holds",
    ]);
    for (name, x, y) in [
        ("Q^tree ⪯ Q^line", &x_tree, &x_line),
        ("Q^line ⪯ Q̂^line", &x_line, &x_tail),
        ("Q̂^line ⪯ Jackson(λ=μ/2)", &x_tail, &x_jack),
    ] {
        let v = dominance_violation(x, y);
        t.row([
            name.to_string(),
            format!("{:.1}", Summary::of(x).mean()),
            format!("{:.1}", Summary::of(y).mean()),
            format!("{v:.4}"),
            format!("{crit:.4}"),
            (v < crit).to_string(),
        ]);
    }
    let _ = writeln!(
        md,
        "### F1 Figure 1: stochastic-dominance chain (k = {k}, l_max = {lmax}, {trials} trials)\n\n{}",
        t.render_markdown()
    );

    // ---- F2: Theorem 2 scaling: drain time linear in k and in l_max. ---
    let mut t = TableBuilder::new(["k", "mean drain (l=6)"]);
    let mut pts_k = Vec::new();
    for k in [5usize, 10, 20, 40] {
        let sys = LineSystem::all_at_tail(6, k, 1.0);
        let draws = sample(0xF2_A000 + k as u64, trials.min(800), &|rng| {
            sys.drain_time(rng)
        });
        let m = Summary::of(&draws).mean();
        pts_k.push((k as f64, m));
        t.row([k.to_string(), format!("{m:.1}")]);
    }
    let fit_k = linear_fit(&pts_k);
    let _ = writeln!(
        md,
        "### F2(a) Theorem 2 k-scaling — slope {:.2}, R² {:.3}\n\n{}",
        fit_k.slope,
        fit_k.r_squared,
        t.render_markdown()
    );

    let mut t = TableBuilder::new(["l_max", "mean drain (k=10)"]);
    let mut pts_l = Vec::new();
    for l in [2usize, 4, 8, 16, 32] {
        let sys = LineSystem::all_at_tail(l, 10, 1.0);
        let draws = sample(0xF2_B000 + l as u64, trials.min(800), &|rng| {
            sys.drain_time(rng)
        });
        let m = Summary::of(&draws).mean();
        pts_l.push((l as f64, m));
        t.row([l.to_string(), format!("{m:.1}")]);
    }
    let fit_l = linear_fit(&pts_l);
    let _ = writeln!(
        md,
        "### F2(b) Theorem 2 l_max-scaling — slope {:.2}, R² {:.3}\n\n{}",
        fit_l.slope,
        fit_l.r_squared,
        t.render_markdown()
    );

    // ---- F2(c): the gossip rate μ = 1/(2nΔ) bound-violation check. -----
    let g = builders::grid(4, 4).unwrap();
    let (n, delta) = (g.n(), g.max_degree());
    let mu = 1.0 / (2.0 * n as f64 * delta as f64);
    let tree = g.bfs_tree(0).into_spanning_tree();
    let k = 12;
    let mut placement = vec![0usize; n];
    for i in 0..k {
        placement[1 + (i % (n - 1))] += 1;
    }
    let sys = TreeSystem::new(&tree, placement, mu).unwrap();
    let bound = (4.0 * k as f64 + 4.0 * f64::from(tree.depth()) + 16.0 * (n as f64).ln()) / mu;
    let times = sample(0xF2_C000, trials.min(800), &|rng| sys.drain_time(rng));
    let violations = times.iter().filter(|&&t| t > bound).count();
    let _ = writeln!(
        md,
        "### F2(c) Theorem 2 at the gossip rate μ = 1/(2nΔ)\n\nBound {bound:.0} timeslots; violations {violations}/{} (allowed ≈ 2/n²).\n",
        times.len()
    );
    md
}
