//! F6 — the barbell separation: uniform AG is ~quadratic while TAG+B_RR is
//! linear, the paper's "speedup ratio of n" (Sections 1.1 and 5).

use ag_gf::Gf256;
use ag_sim::TimeModel::Synchronous;
use algebraic_gossip::ProtocolKind::{TagBrr, UniformAg};

use crate::common::{median_rounds, run_spec, Family, Scale, Sweep};

/// Runs the barbell separation experiment.
#[must_use]
pub fn run(scale: Scale) -> String {
    let trials = scale.trials();
    let ns: &[usize] = scale.pick(&[8, 16, 32, 64], &[8, 16, 32, 64, 96, 128]);
    let sweep = Sweep::measure(
        ns,
        &[(UniformAg, 601), (TagBrr(0), 602)],
        |n, &(kind, seed0)| {
            let spec = run_spec(kind, n, Synchronous);
            median_rounds::<Gf256>(&Family::Barbell.build(n, 0), &spec, trials, seed0)
        },
    );
    let table = sweep.table_with(
        [
            "n",
            "uniform AG",
            "TAG+BRR",
            "speedup",
            "uniform/n²",
            "TAG/n",
        ],
        |n, row| {
            let (u, ta) = (row[0], row[1]);
            vec![
                format!("{u:.0}"),
                format!("{ta:.0}"),
                format!("{:.1}x", u / ta),
                format!("{:.3}", u / (n * n) as f64),
                format!("{:.2}", ta / n as f64),
            ]
        },
    );
    format!(
        "### F6 Barbell separation (k = n, synchronous)\n\n{table}\nFitted exponents: uniform AG `n^{:.2}` (paper: Ω(n²)), TAG+B_RR `n^{:.2}` (paper: Θ(n)).\n\n",
        sweep.exponent(0),
        sweep.exponent(1)
    )
}
