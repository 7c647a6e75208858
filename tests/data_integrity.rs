//! Real-data integrity: byte blobs survive chunking → gossip → decode →
//! reassembly bit-exactly, across fields and protocols.

use algebraic_gossip_repro::gf::{Gf2, Gf256, SlabField, F65537};
use algebraic_gossip_repro::graph::builders;
use algebraic_gossip_repro::protocols::{
    AgConfig, AlgebraicGossip, BroadcastTree, CommModel, Placement, Tag,
};
use algebraic_gossip_repro::rlnc::{BlockDecoder, BlockEncoder};
use algebraic_gossip_repro::sim::{Engine, EngineConfig};

fn blob(len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| ((i as u64).wrapping_mul(0x9E3779B97F4A7C15) >> 32) as u8)
        .collect()
}

fn disseminate_and_verify<F: SlabField>(data: &[u8], k: usize, seed: u64) {
    let g = builders::grid(3, 4).unwrap();
    let enc = BlockEncoder::<F>::new(data, k);
    let generation = enc.generation().clone();
    let cfg = AgConfig::new(k)
        .with_payload_len(generation.message_len())
        .with_placement(Placement::SingleSource(0));
    let mut proto = AlgebraicGossip::<F>::new_with_generation(&g, &cfg, generation, seed).unwrap();
    let stats =
        Engine::new(EngineConfig::synchronous(seed).with_max_rounds(1_000_000)).run(&mut proto);
    assert!(stats.completed);
    let dec = BlockDecoder::new(data.len(), k);
    for v in 0..g.n() {
        let msgs = proto.decoded(v).expect("complete");
        assert_eq!(
            dec.reassemble(&msgs).as_deref(),
            Ok(data),
            "node {v} corrupted the blob"
        );
    }
}

#[test]
fn gf256_blob_round_trip() {
    disseminate_and_verify::<Gf256>(&blob(1000), 7, 1);
}

#[test]
fn gf2_blob_round_trip() {
    disseminate_and_verify::<Gf2>(&blob(64), 4, 2);
}

#[test]
fn f65537_blob_round_trip() {
    // Two-byte symbol groups, end to end.
    disseminate_and_verify::<F65537>(&blob(500), 5, 3);
}

#[test]
fn empty_and_tiny_blobs() {
    disseminate_and_verify::<Gf256>(&[], 3, 4);
    disseminate_and_verify::<Gf256>(&[0xAB], 3, 5);
    disseminate_and_verify::<Gf256>(&blob(2), 5, 6);
}

#[test]
fn tag_disseminates_real_data() {
    let data = blob(2048);
    let k = 16;
    let g = builders::barbell(14).unwrap();
    let enc = BlockEncoder::<Gf256>::new(&data, k);
    let generation = enc.generation().clone();
    let cfg = AgConfig::new(k)
        .with_payload_len(generation.message_len())
        .with_placement(Placement::Random);
    let brr = BroadcastTree::new(&g, 0, CommModel::RoundRobin, 7).unwrap();
    let mut tag = Tag::<Gf256, _>::new_with_generation(&g, brr, &cfg, generation, 7).unwrap();
    let stats = Engine::new(EngineConfig::synchronous(7).with_max_rounds(1_000_000)).run(&mut tag);
    assert!(stats.completed);
    let dec = BlockDecoder::new(data.len(), k);
    for v in 0..g.n() {
        assert_eq!(
            dec.reassemble(&tag.decoded(v).unwrap()).as_deref(),
            Ok(&data[..])
        );
    }
}

#[test]
fn lossy_network_still_delivers_exact_data() {
    let data = blob(512);
    let k = 8;
    let g = builders::complete(10).unwrap();
    let enc = BlockEncoder::<Gf256>::new(&data, k);
    let generation = enc.generation().clone();
    let cfg = AgConfig::new(k).with_payload_len(generation.message_len());
    let mut proto = AlgebraicGossip::<Gf256>::new_with_generation(&g, &cfg, generation, 8).unwrap();
    let stats = Engine::new(
        EngineConfig::synchronous(8)
            .with_loss(0.3)
            .with_max_rounds(1_000_000),
    )
    .run(&mut proto);
    assert!(stats.completed);
    assert!(stats.lost > 0, "loss injection must be active");
    let dec = BlockDecoder::new(data.len(), k);
    for v in 0..g.n() {
        assert_eq!(
            dec.reassemble(&proto.decoded(v).unwrap()).as_deref(),
            Ok(&data[..])
        );
    }
}

#[test]
fn wire_format_bits_accounting() {
    // The paper: message length is r·log2(q) + k·log2(q) bits. Verify via
    // a composed packet from a live protocol run.
    use algebraic_gossip_repro::rlnc::{Decoder, Recoder};
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let g = BlockEncoder::<Gf256>::new(&blob(100), 4);
    let d = Decoder::with_all_messages(g.generation());
    let p = Recoder::new(&d).emit(&mut rng).unwrap();
    assert_eq!(
        p.wire_bits(),
        ((4 + g.generation().message_len()) * 8) as u64
    );
}
