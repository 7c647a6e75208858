//! F5 — stopping-time scaling curves: t vs n at fixed k, t vs k at fixed
//! n, per topology and time model (the "figures" implied by every Θ claim).

use std::fmt::Write as _;

use ag_analysis::{loglog_slope, TableBuilder};
use ag_gf::Gf256;
use ag_graph::builders;
use ag_sim::TimeModel;
use algebraic_gossip::ProtocolKind;

use crate::common::{median_rounds_protocol, ExperimentReport, Scale};

/// Runs the scaling-curve experiments.
#[must_use]
pub fn run(scale: Scale) -> ExperimentReport {
    let trials = scale.trials();
    let ns: Vec<usize> = match scale {
        Scale::Quick => vec![8, 16, 32, 64],
        Scale::Full => vec![8, 16, 32, 64, 128],
    };
    let mut md = String::new();

    // ---- t vs n at fixed k, per family (uniform AG, sync). -------------
    let k_fixed = 4;
    let mut t = TableBuilder::new(vec![
        "n".into(),
        "path".into(),
        "cycle".into(),
        "grid 4×(n/4)".into(),
        "binary tree".into(),
        "complete".into(),
    ]);
    let mut series: Vec<Vec<(f64, f64)>> = vec![Vec::new(); 5];
    for &n in &ns {
        let graphs = [
            builders::path(n).unwrap(),
            builders::cycle(n).unwrap(),
            builders::grid(4, n / 4).unwrap(),
            builders::binary_tree(n).unwrap(),
            builders::complete(n).unwrap(),
        ];
        let mut row = vec![n.to_string()];
        for (i, g) in graphs.iter().enumerate() {
            let r = median_rounds_protocol::<Gf256>(
                g,
                ProtocolKind::UniformAg,
                k_fixed,
                TimeModel::Synchronous,
                trials,
                501,
            );
            series[i].push((n as f64, r));
            row.push(format!("{r:.0}"));
        }
        t.row(row);
    }
    let slopes: Vec<f64> = series.iter().map(|s| loglog_slope(s).slope).collect();
    let _ = writeln!(
        md,
        "### F5(a) Uniform AG: t vs n at k = {k_fixed} (synchronous)\n\n{}\nFitted exponents: path {:.2}, cycle {:.2}, grid {:.2}, tree {:.2}, complete {:.2}.\n",
        t.render_markdown(),
        slopes[0], slopes[1], slopes[2], slopes[3], slopes[4]
    );

    // ---- t vs k at fixed n, per family. ---------------------------------
    let n_fixed = match scale {
        Scale::Quick => 32,
        Scale::Full => 64,
    };
    let ks: Vec<usize> = vec![2, 4, 8, 16, 32];
    let mut t = TableBuilder::new(vec![
        "k".into(),
        "path (sync)".into(),
        "path (async)".into(),
        "complete (sync)".into(),
        "complete (async)".into(),
    ]);
    let mut sync_pts = Vec::new();
    for &k in &ks {
        let path = builders::path(n_fixed).unwrap();
        let comp = builders::complete(n_fixed).unwrap();
        let ps = median_rounds_protocol::<Gf256>(
            &path,
            ProtocolKind::UniformAg,
            k,
            TimeModel::Synchronous,
            trials,
            502,
        );
        let pa = median_rounds_protocol::<Gf256>(
            &path,
            ProtocolKind::UniformAg,
            k,
            TimeModel::Asynchronous,
            trials,
            503,
        );
        let cs = median_rounds_protocol::<Gf256>(
            &comp,
            ProtocolKind::UniformAg,
            k,
            TimeModel::Synchronous,
            trials,
            504,
        );
        let ca = median_rounds_protocol::<Gf256>(
            &comp,
            ProtocolKind::UniformAg,
            k,
            TimeModel::Asynchronous,
            trials,
            505,
        );
        sync_pts.push((k as f64, ps));
        t.row(vec![
            k.to_string(),
            format!("{ps:.0}"),
            format!("{pa:.0}"),
            format!("{cs:.0}"),
            format!("{ca:.0}"),
        ]);
    }
    let _ = writeln!(
        md,
        "### F5(b) Uniform AG: t vs k at n = {n_fixed}\n\n{}",
        t.render_markdown()
    );

    // ---- TAG vs uniform across n on the path (both linear here). -------
    let mut t = TableBuilder::new(vec![
        "n".into(),
        "uniform AG (k=n)".into(),
        "TAG+BRR (k=n)".into(),
    ]);
    let mut u_pts = Vec::new();
    let mut g_pts = Vec::new();
    for &n in &ns {
        let g = builders::path(n).unwrap();
        let u = median_rounds_protocol::<Gf256>(
            &g,
            ProtocolKind::UniformAg,
            n,
            TimeModel::Synchronous,
            trials,
            506,
        );
        let ta = median_rounds_protocol::<Gf256>(
            &g,
            ProtocolKind::TagBrr(0),
            n,
            TimeModel::Synchronous,
            trials,
            507,
        );
        u_pts.push((n as f64, u));
        g_pts.push((n as f64, ta));
        t.row(vec![n.to_string(), format!("{u:.0}"), format!("{ta:.0}")]);
    }
    let su = loglog_slope(&u_pts).slope;
    let st = loglog_slope(&g_pts).slope;
    let _ = writeln!(
        md,
        "### F5(c) All-to-all on the path — exponents: uniform {su:.2}, TAG {st:.2}\n\n{}",
        t.render_markdown()
    );

    ExperimentReport {
        id: "F5",
        title: "Scaling curves: t vs n and t vs k",
        markdown: md,
    }
}
