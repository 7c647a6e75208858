//! Sensor-network all-to-all: every node of a grid holds one reading and
//! everyone must learn all readings — the paper's all-to-all special case
//! (k = n) on a constant-maximum-degree topology where Theorem 3 proves
//! uniform algebraic gossip order-optimal: Θ(k + D) synchronous rounds.
//!
//! Compares the synchronous and asynchronous time models on the same task.
//!
//! Run with: `cargo run --release --example sensor_all_to_all`

use ag_gf::symbols::bytes_to_symbols;
use ag_gf::{Field, Gf256};
use ag_graph::builders;
use ag_rlnc::Generation;
use ag_sim::{Engine, EngineConfig, TimeModel};
use algebraic_gossip::{AgConfig, AlgebraicGossip, Placement};

fn main() {
    let side = 6;
    let graph = builders::grid(side, side).expect("valid grid");
    let n = graph.n();

    // Each sensor's "reading": an 8-byte record (id, temperature-ish).
    let readings: Vec<Vec<u8>> = (0..n)
        .map(|v| {
            let temp = 2000 + (v as u32 * 37) % 1500; // centi-degrees
            let mut rec = (v as u32).to_be_bytes().to_vec();
            rec.extend(temp.to_be_bytes());
            rec
        })
        .collect();
    let messages: Vec<Vec<Gf256>> = readings
        .iter()
        .map(|r| bytes_to_symbols::<Gf256>(r))
        .collect();
    let generation = Generation::from_messages(messages).expect("equal-length records");

    println!(
        "{}x{} sensor grid (n = {n}, D = {}, Δ = {}): all-to-all exchange of {}-byte readings\n",
        side,
        side,
        graph.diameter(),
        graph.max_degree(),
        readings[0].len()
    );

    for time in [TimeModel::Synchronous, TimeModel::Asynchronous] {
        let cfg = AgConfig::new(n)
            .with_payload_len(generation.message_len())
            .with_placement(Placement::Spread); // reading v starts at node v
        let mut proto =
            AlgebraicGossip::<Gf256>::new_with_generation(&graph, &cfg, generation.clone(), 99)
                .expect("valid setup");
        let ecfg = match time {
            TimeModel::Synchronous => EngineConfig::synchronous(99),
            TimeModel::Asynchronous => EngineConfig::asynchronous(99),
        }
        .with_max_rounds(1_000_000);
        let stats = Engine::new(ecfg).run_batch(&mut proto);
        assert!(stats.completed);

        // Every sensor can now reconstruct the full temperature map.
        let map = proto.decoded(0).expect("node 0 decodes");
        let sample: u32 = u32::from_be_bytes([
            map[7][4].to_u64() as u8,
            map[7][5].to_u64() as u8,
            map[7][6].to_u64() as u8,
            map[7][7].to_u64() as u8,
        ]);
        let bound =
            ag_analysis::lower_bound_rounds(n, graph.diameter(), time == TimeModel::Synchronous);
        println!("{time:?}:");
        println!("  rounds            : {}", stats.rounds);
        println!("  timeslots         : {}", stats.timeslots);
        println!("  messages delivered: {}", stats.messages_delivered);
        println!(
            "  lower bound Ω(k+D): {bound:.0} rounds (measured/LB = {:.2})",
            stats.rounds as f64 / bound
        );
        println!("  spot check        : sensor 7 reads {sample} centi-degrees\n");
        assert_eq!(sample, 2000 + (7 * 37));
    }
}
