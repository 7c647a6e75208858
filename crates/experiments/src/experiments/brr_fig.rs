//! F3/F4 — Theorem 5 (B_RR broadcast in O(n)) and Lemma 2 (degree sums).

use std::fmt::Write as _;

use ag_analysis::{Summary, TableBuilder};
use ag_graph::{builders, metrics, Graph};
use ag_sim::TimeModel::{Asynchronous, Synchronous};
use algebraic_gossip::{measure_tree_protocol, BroadcastTree, CommModel, TrialPlan};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::common::{engine, Family, Scale};

/// Runs the broadcast / Lemma 2 experiments.
#[must_use]
pub fn run(scale: Scale) -> String {
    let seeds: u64 = scale.pick(5, 20);
    let mut md = String::new();

    // ---- F3: BRR vs the 3n bound (sync, worst over seeds) and async. ---
    let ns: &[usize] = scale.pick(&[16, 32, 64], &[16, 32, 64, 128, 256]);
    let mut t = TableBuilder::new([
        "graph",
        "n",
        "BRR sync worst",
        "3n",
        "BRR async median",
        "uniform sync worst",
    ]);
    for &n in ns {
        for family in [Family::Barbell, Family::Star, Family::Lollipop] {
            let g = family.build(n, 0);
            // Tree protocols run standalone (no RunSpec), so each series
            // goes through a TrialPlan's map(): central seeds, parallel
            // trials, deterministic order.
            let series = |seed0, comm, time| {
                TrialPlan::new(seeds, seed0).map(|s| {
                    let tree = BroadcastTree::new(&g, 0, comm, s.protocol).expect("connected");
                    let (stats, _) = measure_tree_protocol(tree, engine(time, s.protocol));
                    assert!(stats.completed, "broadcast hit the round budget");
                    stats.rounds
                })
            };
            let worst = |rounds: Vec<u64>| rounds.into_iter().max().expect("seeds > 0");
            let sync_worst = worst(series(0xF3_01, CommModel::RoundRobin, Synchronous));
            let asyncs = series(0xF3_02, CommModel::RoundRobin, Asynchronous);
            let async_median = Summary::of_u64(&asyncs).median();
            let uni_worst = worst(series(0xF3_03, CommModel::Uniform, Synchronous));
            assert!(
                sync_worst <= 3 * g.n() as u64,
                "Theorem 5 violated on {} n={n}",
                family.label()
            );
            t.row([
                family.label().to_string(),
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
    let mut t = TableBuilder::new(["graph", "n", "max Σdeg on shortest path", "3n", "slack"]);
    let mut rng = StdRng::seed_from_u64(0xF4);
    let mut families: Vec<(String, Graph)> = [
        ("path", builders::path(40)),
        ("barbell", builders::barbell(40)),
        ("star", builders::star(40)),
        ("complete", builders::complete(30)),
        ("binary tree", builders::binary_tree(31)),
        ("hypercube", builders::hypercube(5)),
        ("lollipop", builders::lollipop(20, 20)),
    ]
    .map(|(name, g)| (name.to_string(), g.unwrap()))
    .into();
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
        t.row([
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
    md
}
