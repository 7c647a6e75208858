//! F6 — the barbell separation: uniform AG is ~quadratic while TAG+B_RR is
//! linear, the paper's "speedup ratio of n" (Sections 1.1 and 5).

use std::fmt::Write as _;

use ag_analysis::{loglog_slope, TableBuilder};
use ag_gf::Gf256;
use ag_graph::builders;
use ag_sim::TimeModel;
use algebraic_gossip::ProtocolKind;

use crate::common::{median_rounds_protocol, ExperimentReport, Scale};

/// Runs the barbell separation experiment.
#[must_use]
pub fn run(scale: Scale) -> ExperimentReport {
    let trials = scale.trials();
    let ns: Vec<usize> = match scale {
        Scale::Quick => vec![8, 16, 32, 64],
        Scale::Full => vec![8, 16, 32, 64, 96, 128],
    };
    let mut md = String::new();

    let mut t = TableBuilder::new(vec![
        "n".into(),
        "uniform AG".into(),
        "TAG+BRR".into(),
        "speedup".into(),
        "uniform/n²".into(),
        "TAG/n".into(),
    ]);
    let mut u_pts = Vec::new();
    let mut g_pts = Vec::new();
    for &n in &ns {
        let g = builders::barbell(n).unwrap();
        let u = median_rounds_protocol::<Gf256>(
            &g,
            ProtocolKind::UniformAg,
            n,
            TimeModel::Synchronous,
            trials,
            601,
        );
        let ta = median_rounds_protocol::<Gf256>(
            &g,
            ProtocolKind::TagBrr(0),
            n,
            TimeModel::Synchronous,
            trials,
            602,
        );
        u_pts.push((n as f64, u));
        g_pts.push((n as f64, ta));
        t.row(vec![
            n.to_string(),
            format!("{u:.0}"),
            format!("{ta:.0}"),
            format!("{:.1}x", u / ta),
            format!("{:.3}", u / (n * n) as f64),
            format!("{:.2}", ta / n as f64),
        ]);
    }
    let fu = loglog_slope(&u_pts);
    let ft = loglog_slope(&g_pts);
    let _ = writeln!(
        md,
        "### F6 Barbell separation (k = n, synchronous)\n\n{}\nFitted exponents: uniform AG `n^{:.2}` (paper: Ω(n²)), TAG+B_RR `n^{:.2}` (paper: Θ(n)).\n",
        t.render_markdown(),
        fu.slope,
        ft.slope
    );

    ExperimentReport {
        id: "F6",
        title: "Barbell: uniform AG Ω(n²) vs TAG Θ(n)",
        markdown: md,
    }
}
