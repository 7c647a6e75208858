//! Differential test harness: the packed slab decoder vs the scalar
//! reference (and the simulation-wide basis arena with the public recode
//! draw), locked step for step.
//!
//! The shared `oracle` module (`tests/oracle/mod.rs`) wraps `ScalarBasis` —
//! the pre-slab element-at-a-time elimination, preserved verbatim — in a
//! decoder with the same receive/decode semantics as [`ag_rlnc::Decoder`].
//! Every property replays one random packet stream through all
//! implementations (including an [`ag_linalg::BasisArena`] node, the
//! storage the engine hot path uses, recoded by [`ag_rlnc::recode`]) and
//! asserts they agree on
//!
//! * the per-packet [`ag_rlnc::Insertion`] verdict,
//! * the full rank trajectory (rank after every delivery),
//! * helpfulness queries, and
//! * the decoded messages once rank `k` is reached.
//!
//! Streams are exercised over `Gf2` (pure-XOR fast path), `F13` (a prime
//! field's scalar slab fallback) and `Gf256` (full-table fast path), with
//! shape-mismatch packets injected to pin the typed-error path too. Run
//! with `PROPTEST_CASES=256` in CI for the elevated-coverage pass.

use ag_gf::{Field, Gf2, Gf256, SlabField, F13};
use ag_linalg::BasisArena;
use ag_rlnc::{recode, CodingError, Decoder, Generation, Packet, Recoder};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

mod oracle;

use oracle::{scalar_emit, ScalarDecoder};

/// Replays `steps` random packets (mostly source recodings, some junk) into
/// a packed decoder and a scalar decoder and asserts identical behaviour.
fn differential_stream<F: SlabField>(
    seed: u64,
    k: usize,
    r: usize,
    steps: usize,
) -> Result<(), TestCaseError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let generation = Generation::<F>::random(k, r, &mut rng);
    let source = Decoder::with_all_messages(&generation);

    let mut packed = Decoder::<F>::new(k, r);
    let mut scalar = ScalarDecoder::<F>::new(k, r);
    // Third lane: the same node as node 0 of a BasisArena — the
    // simulation-wide storage must not change a single verdict.
    let mut arena = BasisArena::<F>::try_new(1, k, k + r).expect("a small arena fits");

    for step in 0..steps {
        // Mix of streams: recodings of the full source, raw random rows
        // (not necessarily in any span), and occasional all-zero packets.
        let packet: Packet<F> = match step % 7 {
            0..=3 => Recoder::new(&source).emit(&mut rng).expect("source emits"),
            4 | 5 => {
                let coeffs: Vec<F> = (0..k).map(|_| F::random(&mut rng)).collect();
                let payload: Vec<F> = (0..r).map(|_| F::random(&mut rng)).collect();
                Packet::new(coeffs, payload)
            }
            _ => Packet::new(vec![F::ZERO; k], vec![F::ZERO; r]),
        };

        // Helpfulness prediction must agree before delivery...
        prop_assert_eq!(
            packed.would_help(&packet),
            scalar.would_help(&packet),
            "would_help diverged at step {}",
            step
        );
        // ...and so must the verdict and the rank trajectory after it.
        let verdict = packed
            .try_receive(&packet)
            .expect("shape-valid packet must be accepted");
        let arena_verdict = arena.insert_packed_slice(0, &packet.to_packed_row());
        let want = scalar.receive(packet);
        prop_assert_eq!(verdict, want, "verdict diverged at step {}", step);
        prop_assert_eq!(
            arena_verdict,
            want,
            "arena verdict diverged at step {}",
            step
        );
        prop_assert_eq!(
            packed.rank(),
            scalar.rank(),
            "rank trajectory diverged at step {}",
            step
        );
        prop_assert_eq!(arena.rank(0), scalar.rank());
        prop_assert_eq!(packed.is_complete(), scalar.is_complete());
        prop_assert_eq!(arena.is_full(0), scalar.is_complete());
    }

    // Decoded output must be identical whenever available. (It need not
    // equal the generation here: the junk packets are *inconsistent*
    // equations by construction — `full_decode_agrees` covers ground-truth
    // correctness on consistent streams.)
    prop_assert_eq!(packed.decode(), scalar.decode());
    prop_assert_eq!(arena.solution(0), scalar.decode());
    Ok(())
}

/// The lazy-elimination lane: interleaves receptions, recode-emits from
/// *partially filled* bases, helpfulness probes and mid-stream decode
/// attempts. Every relay emit recombines a basis whose payload ledger has
/// pending elimination events (the emit itself forces the flush), so this
/// pins the deferred replay — verdicts, rank trajectories, emitted bytes
/// and decoded output — against the eager scalar oracle, across the
/// packed decoder AND the arena-backed decoder.
fn lazy_interleaved_stream<F: SlabField>(
    seed: u64,
    k: usize,
    r: usize,
    steps: usize,
) -> Result<(), TestCaseError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let generation = Generation::<F>::random(k, r, &mut rng);
    let source = Decoder::with_all_messages(&generation);

    // Two relay nodes per lane: node 0 receives from the source, node 1
    // receives node 0's recodings (built from a partially-eliminated basis).
    let mut packed = [Decoder::<F>::new(k, r), Decoder::<F>::new(k, r)];
    let mut scalar = [ScalarDecoder::<F>::new(k, r), ScalarDecoder::<F>::new(k, r)];
    let mut arena = BasisArena::<F>::try_new(2, k, k + r).expect("a small arena fits");
    let mut factors = Vec::new();

    // All three lanes draw their recoding coefficients from identically
    // seeded RNG streams, so equal draw *sequences* imply equal bytes.
    let mut emit_a = StdRng::seed_from_u64(seed ^ 0xE717);
    let mut emit_b = emit_a.clone();
    let mut emit_c = emit_a.clone();
    let mut buf = vec![0; arena.row_bytes()];

    for step in 0..steps {
        match step % 5 {
            // Source recoding into node 0.
            0 | 1 => {
                let p = Recoder::new(&source).emit(&mut rng).expect("source emits");
                prop_assert_eq!(
                    packed[0].would_help(&p),
                    scalar[0].would_help(&p),
                    "would_help diverged at step {}",
                    step
                );
                let va = packed[0].try_receive(&p).expect("shape-valid packet");
                let vb = arena.insert_packed_slice(0, &p.to_packed_row());
                let vc = scalar[0].receive(p);
                prop_assert_eq!(va, vc, "verdict diverged at step {}", step);
                prop_assert_eq!(vb, vc, "arena verdict diverged at step {}", step);
            }
            // Relay: node 0 recodes from its partially filled basis into
            // node 1. The packed/arena emits flush node 0's pending payload
            // events; the bytes must still match the scalar recombination.
            2 | 3 => {
                let row_a = Recoder::new(&packed[0]).emit_packed_row(&mut emit_a);
                let emitted_b = recode(
                    &mut &arena,
                    0,
                    None,
                    &mut factors,
                    &mut emit_b,
                    Some(&mut buf),
                );
                let pkt_c = scalar_emit::<F>(scalar[0].rows(), k, r, &mut emit_c);
                prop_assert_eq!(row_a.is_some(), emitted_b);
                prop_assert_eq!(row_a.is_some(), pkt_c.is_some());
                let (Some(row_a), Some(pkt_c)) = (row_a, pkt_c) else {
                    continue;
                };
                prop_assert_eq!(&row_a, &buf, "arena emit bytes diverged at step {}", step);
                prop_assert_eq!(
                    &row_a,
                    &pkt_c.to_packed_row(),
                    "recoded bytes diverged from scalar at step {} (flush bug)",
                    step
                );
                prop_assert_eq!(
                    packed[1].would_help(&pkt_c),
                    scalar[1].would_help(&pkt_c),
                    "relay would_help diverged at step {}",
                    step
                );
                let va = packed[1].receive_packed_slice(&row_a);
                let vb = arena.insert_packed_slice(1, &row_a);
                let vc = scalar[1].receive(pkt_c);
                prop_assert_eq!(va, vc, "relay verdict diverged at step {}", step);
                prop_assert_eq!(vb, vc, "relay arena verdict diverged at step {}", step);
            }
            // Mid-stream observation: decode attempts (forcing a payload
            // flush once complete) and cross-node helpfulness.
            _ => {
                for node in 0..2 {
                    prop_assert_eq!(
                        packed[node].decode(),
                        scalar[node].decode(),
                        "mid-stream decode diverged at step {}",
                        step
                    );
                    prop_assert_eq!(arena.solution(node), scalar[node].decode());
                }
                prop_assert_eq!(
                    packed[1].is_helpful_node(&packed[0]),
                    scalar[1].is_helped_by(&scalar[0]),
                    "helpful-node diverged at step {}",
                    step
                );
            }
        }
        for node in 0..2 {
            prop_assert_eq!(packed[node].rank(), scalar[node].rank());
            prop_assert_eq!(arena.rank(node), scalar[node].rank());
        }
    }

    // Every delivered packet was a consistent combination of the source
    // messages, so a completed node must decode the generation exactly.
    for node in 0..2 {
        prop_assert_eq!(packed[node].decode(), scalar[node].decode());
        prop_assert_eq!(arena.solution(node), scalar[node].decode());
        if packed[node].is_complete() {
            prop_assert_eq!(
                packed[node].decode().expect("complete"),
                generation.messages().to_vec()
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn gf2_packed_decoder_matches_scalar(
        seed in any::<u64>(),
        k in 1usize..12,
        r in 0usize..6,
    ) {
        differential_stream::<Gf2>(seed, k, r, 6 * k + 8)?;
    }

    #[test]
    fn f13_packed_decoder_matches_scalar(
        seed in any::<u64>(),
        k in 1usize..10,
        r in 0usize..6,
    ) {
        differential_stream::<F13>(seed, k, r, 4 * k + 6)?;
    }

    #[test]
    fn gf256_packed_decoder_matches_scalar(
        seed in any::<u64>(),
        k in 1usize..10,
        r in 0usize..8,
    ) {
        differential_stream::<Gf256>(seed, k, r, 4 * k + 6)?;
    }

    #[test]
    fn gf2_lazy_interleaved_matches_scalar(
        seed in any::<u64>(),
        k in 1usize..10,
        r in 0usize..6,
    ) {
        lazy_interleaved_stream::<Gf2>(seed, k, r, 10 * k + 10)?;
    }

    #[test]
    fn f13_lazy_interleaved_matches_scalar(
        seed in any::<u64>(),
        k in 1usize..9,
        r in 0usize..6,
    ) {
        lazy_interleaved_stream::<F13>(seed, k, r, 8 * k + 10)?;
    }

    #[test]
    fn gf256_lazy_interleaved_matches_scalar(
        seed in any::<u64>(),
        k in 1usize..9,
        r in 0usize..8,
    ) {
        lazy_interleaved_stream::<Gf256>(seed, k, r, 8 * k + 10)?;
    }

    /// A complete dissemination (source -> sink until full rank) decodes to
    /// the same messages on both paths.
    #[test]
    fn full_decode_agrees(seed in any::<u64>(), k in 1usize..9) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = Generation::<Gf256>::random(k, 3, &mut rng);
        let source = Decoder::with_all_messages(&g);
        let scalar_source = ScalarDecoder::with_all_messages(&g);
        let mut sink = Decoder::<Gf256>::new(k, 3);
        let mut scalar_sink = ScalarDecoder::<Gf256>::new(k, 3);
        let mut guard = 0;
        while !sink.is_complete() {
            let p = Recoder::new(&source).emit(&mut rng).expect("source emits");
            prop_assert_eq!(
                scalar_source.would_help(&p),
                false,
                "a source combination can never help the source"
            );
            let a = sink.try_receive(&p).expect("shape-valid packet");
            let b = scalar_sink.receive(p);
            prop_assert_eq!(a, b);
            guard += 1;
            prop_assert!(guard < 60 * (k + 2), "did not converge");
        }
        prop_assert_eq!(sink.decode().unwrap(), scalar_sink.decode().unwrap());
    }
}

/// Shape-mismatched packets take the typed-error path and leave the packed
/// decoder in lockstep with the scalar one (which never saw the packet).
#[test]
fn mismatched_packets_do_not_desynchronize() {
    let mut rng = StdRng::seed_from_u64(0xD1FF);
    let k = 5;
    let r = 2;
    let generation = Generation::<Gf256>::random(k, r, &mut rng);
    let source = Decoder::with_all_messages(&generation);
    let mut packed = Decoder::<Gf256>::new(k, r);
    let mut scalar = ScalarDecoder::<Gf256>::new(k, r);

    while !packed.is_complete() {
        // Interleave a malformed packet before every good one.
        let bad = Packet::new(
            (0..k).map(|_| Gf256::random(&mut rng)).collect(),
            (0..r + 1).map(|_| Gf256::random(&mut rng)).collect(),
        );
        assert_eq!(
            packed.try_receive(&bad),
            Err(CodingError::PayloadLengthMismatch {
                expected: r,
                got: r + 1
            })
        );
        let good = Recoder::new(&source).emit(&mut rng).expect("source emits");
        let a = packed.try_receive(&good).expect("good packet");
        let b = scalar.receive(good);
        assert_eq!(a, b);
        assert_eq!(packed.rank(), scalar.rank());
    }
    assert_eq!(packed.decode(), scalar.decode());
    assert_eq!(
        packed.decode().expect("complete"),
        generation.messages().to_vec()
    );
}
