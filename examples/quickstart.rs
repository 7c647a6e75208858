//! Quickstart: disseminate k messages over a grid with uniform algebraic
//! gossip and watch every node decode them.
//!
//! Run with: `cargo run --release --example quickstart`

use ag_gf::Gf256;
use ag_graph::builders;
use ag_sim::{Engine, EngineConfig};
use algebraic_gossip::{AgConfig, AlgebraicGossip, Placement};

fn main() {
    // A 6x6 grid of nodes: constant maximum degree 4, diameter 10 — the
    // family where Theorem 3 makes uniform algebraic gossip order-optimal.
    let graph = builders::grid(6, 6).expect("valid grid dimensions");
    let n = graph.n();
    let k = 12;

    println!(
        "graph: 6x6 grid  (n = {n}, D = {}, max degree = {})",
        graph.diameter(),
        graph.max_degree()
    );
    println!("task : disseminate k = {k} messages of 32 payload symbols each\n");

    // k random messages over GF(2^8), spread round-robin over the nodes.
    let cfg = AgConfig::new(k)
        .with_payload_len(32)
        .with_placement(Placement::Spread);
    let mut protocol =
        AlgebraicGossip::<Gf256>::new(&graph, &cfg, 42).expect("connected graph, k > 0");

    // Synchronous EXCHANGE gossip, seeded for reproducibility. A closure
    // is a probe that sees the protocol at every round end; a struct
    // implementing `ag_sim::Probe` also hears each message's fate and
    // each node's completion.
    let mut engine = Engine::new(EngineConfig::synchronous(42));
    let stats = engine.run_observed(&mut protocol, &mut |round, p: &AlgebraicGossip<Gf256>| {
        if round % 10 == 0 {
            println!(
                "  round {round:>4}: total rank {}/{}",
                p.total_rank(),
                n * k
            );
        }
    });

    println!("\ncompleted      : {}", stats.completed);
    println!("rounds         : {}", stats.rounds);
    println!(
        "messages       : {} delivered, {} empty sends",
        stats.messages_delivered, stats.empty_sends
    );
    println!(
        "helpful        : {} innovative / {} redundant receptions",
        protocol.helpful_receptions(),
        protocol.redundant_receptions()
    );

    // Every node can now solve its linear system and read all k messages.
    let truth = protocol.generation().messages().to_vec();
    let all_decoded = (0..n).all(|v| protocol.decoded(v).as_deref() == Some(&truth[..]));
    println!("all decoded    : {all_decoded}");
    assert!(all_decoded, "a completed run must decode everywhere");

    // Compare against the paper's Theorem 1 bound (k + log n + D) * Delta.
    let bound = ag_analysis::uniform_ag_bound(k, n, graph.diameter(), graph.max_degree());
    println!(
        "Theorem 1 bound: (k + ln n + D)·Δ = {bound:.0} rounds  (measured/bound = {:.2})",
        stats.rounds as f64 / bound
    );
}
