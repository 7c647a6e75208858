//! F3/F4 — Theorem 5 (B_RR broadcast in O(n)) and Lemma 2 (degree sums).

use std::fmt::Write as _;

use ag_analysis::{Summary, TableBuilder};
use ag_graph::{builders, metrics, Graph};
use ag_sim::EngineConfig;
use algebraic_gossip::{measure_tree_protocol, BroadcastTree, CommModel, TrialPlan};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::common::{ExperimentReport, Scale};

fn broadcast_rounds(g: &Graph, comm: CommModel, sync: bool, seed: u64) -> Option<u64> {
    let b = BroadcastTree::new(g, 0, comm, seed).ok()?;
    let cfg = if sync {
        EngineConfig::synchronous(seed)
    } else {
        EngineConfig::asynchronous(seed)
    }
    .with_max_rounds(200_000);
    let (stats, _) = measure_tree_protocol(b, cfg);
    stats.completed.then_some(stats.rounds)
}

/// Runs the broadcast / Lemma 2 experiments.
#[must_use]
pub fn run(scale: Scale) -> ExperimentReport {
    let seeds: u64 = match scale {
        Scale::Quick => 5,
        Scale::Full => 20,
    };
    let mut md = String::new();

    // ---- F3: BRR vs the 3n bound (sync, worst over seeds) and async. ---
    let ns: Vec<usize> = match scale {
        Scale::Quick => vec![16, 32, 64],
        Scale::Full => vec![16, 32, 64, 128, 256],
    };
    let mut t = TableBuilder::new(vec![
        "graph".into(),
        "n".into(),
        "BRR sync worst".into(),
        "3n".into(),
        "BRR async median".into(),
        "uniform sync worst".into(),
    ]);
    for &n in &ns {
        for (name, g) in [
            ("barbell", builders::barbell(n).unwrap()),
            ("star", builders::star(n).unwrap()),
            ("lollipop", builders::lollipop(n / 2, n / 2).unwrap()),
        ] {
            // Tree protocols run standalone (no RunSpec), so each series
            // goes through a TrialPlan's map(): central seeds, parallel
            // trials, deterministic order.
            let sync_worst = TrialPlan::new(seeds, 0xF3_01)
                .map(|s| broadcast_rounds(&g, CommModel::RoundRobin, true, s.protocol).unwrap())
                .into_iter()
                .max()
                .unwrap();
            let asyncs = TrialPlan::new(seeds, 0xF3_02)
                .map(|s| broadcast_rounds(&g, CommModel::RoundRobin, false, s.protocol).unwrap());
            let async_median = Summary::of_u64(&asyncs).median();
            let uni_worst = TrialPlan::new(seeds, 0xF3_03)
                .map(|s| broadcast_rounds(&g, CommModel::Uniform, true, s.protocol).unwrap())
                .into_iter()
                .max()
                .unwrap();
            assert!(
                sync_worst <= 3 * g.n() as u64,
                "Theorem 5 violated on {name} n={n}"
            );
            t.row(vec![
                name.into(),
                g.n().to_string(),
                sync_worst.to_string(),
                (3 * g.n()).to_string(),
                format!("{async_median:.0}"),
                uni_worst.to_string(),
            ]);
        }
    }
    let _ = writeln!(
        md,
        "### F3 Theorem 5: `B_RR` broadcast is `O(n)` (worst over {seeds} seeds)\n\n{}",
        t.render_markdown()
    );

    // ---- F4: Lemma 2 degree sums <= 3n, fixed + random families. -------
    let mut t = TableBuilder::new(vec![
        "graph".into(),
        "n".into(),
        "max Σdeg on shortest path".into(),
        "3n".into(),
        "slack".into(),
    ]);
    let mut rng = StdRng::seed_from_u64(0xF4);
    let mut families: Vec<(String, Graph)> = vec![
        ("path".into(), builders::path(40).unwrap()),
        ("barbell".into(), builders::barbell(40).unwrap()),
        ("star".into(), builders::star(40).unwrap()),
        ("complete".into(), builders::complete(30).unwrap()),
        ("binary tree".into(), builders::binary_tree(31).unwrap()),
        ("hypercube".into(), builders::hypercube(5).unwrap()),
        ("lollipop".into(), builders::lollipop(20, 20).unwrap()),
    ];
    for i in 0..3 {
        families.push((
            format!("G(30, 0.2) #{i}"),
            builders::erdos_renyi_connected(30, 0.2, &mut rng).unwrap(),
        ));
        families.push((
            format!("4-regular #{i}"),
            builders::random_regular(30, 4, &mut rng).unwrap(),
        ));
    }
    for (name, g) in &families {
        let m = metrics::max_shortest_path_degree_sum(g);
        assert!(m <= 3 * g.n(), "Lemma 2 violated on {name}");
        t.row(vec![
            name.clone(),
            g.n().to_string(),
            m.to_string(),
            (3 * g.n()).to_string(),
            format!("{:.2}", m as f64 / (3 * g.n()) as f64),
        ]);
    }
    let _ = writeln!(
        md,
        "### F4 Lemma 2: `Σ deg ≤ 3n` along every shortest path\n\n{}",
        t.render_markdown()
    );

    ExperimentReport {
        id: "F3/F4",
        title: "Theorem 5 (B_RR) & Lemma 2 (degree sums)",
        markdown: md,
    }
}
