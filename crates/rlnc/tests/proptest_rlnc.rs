//! Property-based tests: RLNC end-to-end invariants.

use ag_gf::{Gf2, Gf256};
use ag_rlnc::{BlockDecoder, BlockEncoder, Decoder, Generation, Recoder};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any blob, any chunk count, any field: dissemination-free round trip.
    #[test]
    fn block_framing_round_trip(
        data in proptest::collection::vec(any::<u8>(), 0..400),
        k in 1usize..12,
    ) {
        let enc = BlockEncoder::<Gf256>::new(&data, k);
        let back = BlockDecoder::new(data.len(), k).reassemble(enc.generation().messages());
        prop_assert_eq!(back, Ok(data));
    }

    /// Source-to-sink transfer over a lossless link decodes exactly, for any
    /// seed, over GF(2) (the worst field).
    #[test]
    fn gf2_source_sink_decode(seed in any::<u64>(), k in 1usize..10, r in 0usize..5) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = Generation::<Gf2>::random(k, r, &mut rng);
        let source = Decoder::with_all_messages(&g);
        let mut sink = Decoder::new(k, r);
        let mut steps = 0;
        while !sink.is_complete() {
            if let Some(p) = Recoder::new(&source).emit(&mut rng) {
                sink.try_receive(&p).unwrap();
            }
            steps += 1;
            prop_assert!(steps < 50 * (k + 2), "decode did not converge");
        }
        prop_assert_eq!(sink.decode().unwrap(), g.messages());
    }

    /// Rank is monotone and bounded under arbitrary traffic.
    #[test]
    fn rank_monotone_and_bounded(seed in any::<u64>(), k in 2usize..8) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = Generation::<Gf256>::random(k, 1, &mut rng);
        let mut partial = Decoder::new(k, 1);
        partial.seed_message(&g, 0);
        let source = Decoder::with_all_messages(&g);
        let mut prev = partial.rank();
        for _ in 0..3 * k {
            if let Some(p) = Recoder::new(&source).emit(&mut rng) {
                let innovative = partial.try_receive(&p).unwrap().is_innovative();
                let now = partial.rank();
                prop_assert!(now >= prev);
                prop_assert_eq!(innovative, now == prev + 1);
                prop_assert!(now <= k);
                prev = now;
            }
        }
    }

    /// A node is never helpful to itself, and a complete node is helpful to
    /// every incomplete one.
    #[test]
    fn helpfulness_relation(seed in any::<u64>(), k in 2usize..8) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = Generation::<Gf256>::random(k, 0, &mut rng);
        let full = Decoder::with_all_messages(&g);
        let mut partial = Decoder::new(k, 0);
        partial.seed_message(&g, k - 1);
        prop_assert!(!full.is_helpful_node(&full));
        prop_assert!(!partial.is_helpful_node(&partial));
        prop_assert!(partial.is_helpful_node(&full));
        prop_assert!(!full.is_helpful_node(&partial));
    }

    /// Relay chains preserve decodability: source -> relay -> sink.
    #[test]
    fn two_hop_relay_decodes(seed in any::<u64>(), k in 1usize..6) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = Generation::<Gf256>::random(k, 2, &mut rng);
        let source = Decoder::with_all_messages(&g);
        let mut relay = Decoder::new(k, 2);
        let mut sink = Decoder::new(k, 2);
        let mut steps = 0;
        while !sink.is_complete() {
            if let Some(p) = Recoder::new(&source).emit(&mut rng) {
                relay.try_receive(&p).unwrap();
            }
            if let Some(p) = Recoder::new(&relay).emit(&mut rng) {
                sink.try_receive(&p).unwrap();
            }
            steps += 1;
            prop_assert!(steps < 100 * (k + 2), "relay chain did not converge");
        }
        prop_assert_eq!(sink.decode().unwrap(), g.messages());
    }
}
