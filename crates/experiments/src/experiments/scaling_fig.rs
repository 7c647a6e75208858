//! F5 — stopping-time scaling curves: t vs n at fixed k, t vs k at fixed
//! n, per topology and time model (the "figures" implied by every Θ claim).

use std::fmt::Write as _;

use ag_gf::Gf256;
use ag_sim::TimeModel::{Asynchronous, Synchronous};
use algebraic_gossip::ProtocolKind::{TagBrr, UniformAg};

use crate::common::{median_rounds, run_spec, Family, Scale, Sweep};

/// Runs the scaling-curve experiments.
#[must_use]
pub fn run(scale: Scale) -> String {
    let trials = scale.trials();
    let ns: &[usize] = scale.pick(&[8, 16, 32, 64], &[8, 16, 32, 64, 128]);
    let mut md = String::new();

    // ---- t vs n at fixed k, per family (uniform AG, sync). -------------
    let k_fixed = 4;
    let spec = run_spec(UniformAg, k_fixed, Synchronous);
    let families = [
        Family::Path,
        Family::Ring,
        Family::GridStrip,
        Family::BinaryTree,
        Family::Complete,
    ];
    let sweep = Sweep::measure(ns, &families, |n, family| {
        median_rounds::<Gf256>(&family.build(n, 0), &spec, trials, 501)
    });
    let _ = writeln!(
        md,
        "### F5(a) Uniform AG: t vs n at k = {k_fixed} (synchronous)\n\n{}\nFitted exponents: path {:.2}, cycle {:.2}, grid {:.2}, tree {:.2}, complete {:.2}.\n",
        sweep.table(["n", "path", "cycle", "grid 4×(n/4)", "binary tree", "complete"]),
        sweep.exponent(0),
        sweep.exponent(1),
        sweep.exponent(2),
        sweep.exponent(3),
        sweep.exponent(4)
    );

    // ---- t vs k at fixed n, per family. ---------------------------------
    let n_fixed = scale.pick(32, 64);
    let columns = [
        (Family::Path, Synchronous, 502),
        (Family::Path, Asynchronous, 503),
        (Family::Complete, Synchronous, 504),
        (Family::Complete, Asynchronous, 505),
    ];
    let sweep = Sweep::measure(&[2, 4, 8, 16, 32], &columns, |k, &(family, time, seed0)| {
        let spec = run_spec(UniformAg, k, time);
        median_rounds::<Gf256>(&family.build(n_fixed, 0), &spec, trials, seed0)
    });
    let _ = writeln!(
        md,
        "### F5(b) Uniform AG: t vs k at n = {n_fixed}\n\n{}",
        sweep.table([
            "k",
            "path (sync)",
            "path (async)",
            "complete (sync)",
            "complete (async)"
        ])
    );

    // ---- TAG vs uniform across n on the path (both linear here). -------
    let sweep = Sweep::measure(
        ns,
        &[(UniformAg, 506), (TagBrr(0), 507)],
        |n, &(kind, seed0)| {
            let spec = run_spec(kind, n, Synchronous);
            median_rounds::<Gf256>(&Family::Path.build(n, 0), &spec, trials, seed0)
        },
    );
    let _ = writeln!(
        md,
        "### F5(c) All-to-all on the path — exponents: uniform {:.2}, TAG {:.2}\n\n{}",
        sweep.exponent(0),
        sweep.exponent(1),
        sweep.table(["n", "uniform AG (k=n)", "TAG+BRR (k=n)"])
    );
    md
}
