//! File dissemination: the paper's motivating application ("multicast via
//! network coding"). A byte blob is chunked into k messages, gossiped with
//! TAG over a random regular network, and reassembled bit-exactly at every
//! node.
//!
//! Run with: `cargo run --release --example file_dissemination`

use ag_gf::Gf256;
use ag_graph::builders;
use ag_rlnc::{BlockDecoder, BlockEncoder};
use ag_sim::{CommModel, Engine, EngineConfig};
use algebraic_gossip::{AgConfig, BroadcastTree, Placement, Tag};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // A synthetic 8 KiB "file" with recognizable structure.
    let file: Vec<u8> = (0..8192u32)
        .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
        .collect();
    let k = 32;

    // Split into k chunks over GF(2^8); each chunk is one source message.
    let encoder = BlockEncoder::<Gf256>::new(&file, k);
    let generation = encoder.generation();
    println!(
        "file: {} bytes -> k = {} chunks of {} bytes ({} symbols each)",
        file.len(),
        k,
        encoder.chunk_bytes(),
        generation.message_len()
    );

    // A 4-regular random network of 48 peers (an expander w.h.p.).
    let mut rng = StdRng::seed_from_u64(7);
    let graph = builders::random_regular(48, 4, &mut rng).expect("regular graph exists");
    println!(
        "network: {} peers, 4-regular, diameter {}",
        graph.n(),
        graph.diameter()
    );

    // The file initially lives at peer 0 (a single seeder).
    // TAG with the round-robin broadcast B_RR builds the distribution tree.
    let cfg = AgConfig::new(k)
        .with_payload_len(generation.message_len())
        .with_placement(Placement::SingleSource(0));
    let brr = BroadcastTree::new(&graph, 0, CommModel::RoundRobin, 7).expect("valid root");
    let mut tag = Tag::<Gf256, _>::new_with_generation(&graph, brr, &cfg, generation.clone(), 7)
        .expect("valid TAG setup");

    let stats = Engine::new(EngineConfig::synchronous(7).with_max_rounds(100_000)).run(&mut tag);
    println!(
        "dissemination: {} rounds, {} packets delivered",
        stats.rounds, stats.messages_delivered
    );
    assert!(stats.completed, "dissemination must finish");

    // Every peer reassembles the file and verifies it bit-exactly.
    let reassembler = BlockDecoder::new(file.len(), k);
    let mut verified = 0;
    for v in 0..graph.n() {
        let decoded = tag.decoded(v).expect("completed peers decode");
        let bytes = reassembler
            .reassemble(&decoded)
            .expect("a decoded generation has the blob's shape");
        assert_eq!(bytes, file, "peer {v} reassembled a corrupted file");
        verified += 1;
    }
    println!(
        "verified: {verified}/{} peers hold a bit-exact copy",
        graph.n()
    );
}
