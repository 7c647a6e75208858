//! Protocol race: every protocol in the crate on every evaluation family.
//!
//! Prints a comparison matrix of stopping times (median of trials) for
//! uniform AG, round-robin AG, TAG+B_RR, TAG+uniform-broadcast, TAG+IS and
//! TAG+oracle on the paper's graph families — a compact live view of
//! Table 1.
//!
//! Run with: `cargo run --release --example protocol_race [n] [k]`

use ag_analysis::TableBuilder;
use ag_gf::Gf256;
use ag_sim::EngineConfig;
use algebraic_gossip::{run_protocol, ProtocolKind, RunSpec};

fn median_rounds(
    graph: &ag_graph::Graph,
    kind: ProtocolKind,
    k: usize,
    trials: u64,
) -> Option<f64> {
    let mut rounds = Vec::new();
    for t in 0..trials {
        let mut spec = RunSpec::new(kind, k).with_seed(31 * t + 7);
        spec.engine = EngineConfig::synchronous(17 * t + 3).with_max_rounds(3_000_000);
        let (stats, ok) = run_protocol::<Gf256>(graph, &spec).ok()?;
        if !(stats.completed && ok) {
            return None;
        }
        rounds.push(stats.rounds);
    }
    rounds.sort_unstable();
    Some(rounds[rounds.len() / 2] as f64)
}

#[allow(
    clippy::disallowed_methods,
    reason = "a command-line example reads its arguments"
)]
fn main() {
    let args: Vec<String> = std::env::args().collect();
    let n: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(16);
    let k: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(n);
    let trials = 3;

    let families: Vec<(&str, ag_graph::Graph)> = vec![
        ("path", ag_graph::builders::path(n).unwrap()),
        ("cycle", ag_graph::builders::cycle(n).unwrap()),
        ("grid", ag_graph::builders::grid(4, n.div_ceil(4)).unwrap()),
        ("binary tree", ag_graph::builders::binary_tree(n).unwrap()),
        ("barbell", ag_graph::builders::barbell(n).unwrap()),
        ("complete", ag_graph::builders::complete(n).unwrap()),
    ];
    let protocols: Vec<(&str, ProtocolKind)> = vec![
        ("uniform AG", ProtocolKind::UniformAg),
        ("RR AG", ProtocolKind::RoundRobinAg),
        ("TAG+BRR", ProtocolKind::TagBrr(0)),
        ("TAG+uni", ProtocolKind::TagUniformBroadcast(0)),
        ("TAG+IS", ProtocolKind::TagIs(0)),
        ("TAG+oracle", ProtocolKind::TagOracle(0, 3)),
        ("uncoded", ProtocolKind::UncodedRandom),
    ];

    println!(
        "median synchronous rounds to disseminate k = {k} messages, n = {n} \
         ({} trials/cell)\n",
        trials
    );
    let header = ["graph", "D", "Δ"].into_iter();
    let mut table = TableBuilder::new(header.chain(protocols.iter().map(|(name, _)| *name)));
    for (name, graph) in &families {
        let mut row = vec![
            (*name).to_string(),
            graph.diameter().to_string(),
            graph.max_degree().to_string(),
        ];
        for (_, kind) in &protocols {
            match median_rounds(graph, *kind, k, trials) {
                Some(m) => row.push(format!("{m:.0}")),
                None => row.push("—".into()),
            }
        }
        table.row(row);
    }
    println!("{}", table.render_markdown());
    println!("note: TAG+oracle charges the oracle only ~2·3 rounds of Phase 1;");
    println!("      it models a spanning-tree service with the bound of [5].");
}
