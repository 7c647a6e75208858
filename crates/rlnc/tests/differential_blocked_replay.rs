//! Differential lanes sized so the shipped replay rule takes the blocked
//! schedule.
//!
//! A flush replays its pending elimination log as one blocked
//! (transform-panel GEMM) multiply only when the pending suffix is deep
//! (≥ 16 events), is at least half the basis, payload rows are wide
//! (≥ 64 bytes) and the logged multipliers are dense; the small streams of
//! `differential_decoder` never leave the row-wise path. The streams here
//! are shaped to: `k ≥ 32`, payloads of ≥ 64 bytes, receptions arriving in
//! bursts of [`BURST`] innovative rows between recode emits (each emit
//! flushes the burst), and a relay sink that only ever receives, so its
//! final decode settles its whole log at once. One more lane keeps the
//! payload under 64 bytes and so stays row-wise on the same schedule of
//! calls. Every verdict, rank, emitted byte and decoded message must match
//! the eager scalar oracle (`tests/oracle/mod.rs`) exactly.
//!
//! Which schedule a flush takes is not observable from here. The unit test
//! `rule_picks_blocked_only_for_deep_dense_suffixes` in
//! `ag-linalg/src/node.rs` asserts the rule at exactly these shapes (same
//! `k`, payload widths and [`BURST`], both fields), so the lanes cannot
//! silently fall off the path they are named for; keep the two in step.
//!
//! Run with `PROPTEST_CASES=256` in CI for the elevated-coverage pass.

use ag_gf::{Gf2, Gf256, SlabField};
use ag_linalg::BasisArena;
use ag_rlnc::{recode, Decoder, Generation, Recoder};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

mod oracle;

use oracle::{scalar_emit, ScalarDecoder};

/// Innovative receptions node 0 takes between two recode emits: the depth
/// of the pending suffix every emit flushes.
const BURST: usize = 16;

/// One stream: source recodings into node 0 in bursts of [`BURST`]
/// innovative rows; after each burst node 0 recodes twice into node 1 (the
/// first emit flushes the burst, the second finds nothing pending); once
/// node 0 is complete it keeps feeding node 1 until that completes too.
/// Node 1 is never read before its final decode, which therefore settles
/// its whole log in one flush. Three lanes in lockstep: `Decoder`s, a
/// `BasisArena` recoded by `ag_rlnc::recode`, and the scalar oracle.
fn burst_stream<F: SlabField>(seed: u64, k: usize, r: usize) -> Result<(), TestCaseError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let generation = Generation::<F>::random(k, r, &mut rng);
    let source = Decoder::with_all_messages(&generation);

    let mut packed = [Decoder::<F>::new(k, r), Decoder::<F>::new(k, r)];
    let mut scalar = [ScalarDecoder::<F>::new(k, r), ScalarDecoder::<F>::new(k, r)];
    let mut arena = BasisArena::<F>::try_new(2, k, k + r).expect("a small arena fits");
    let mut factors = Vec::new();

    let mut emit_a = StdRng::seed_from_u64(seed ^ 0xB10C);
    let mut emit_b = emit_a.clone();
    let mut emit_c = emit_a.clone();
    let mut buf = vec![0; arena.row_bytes()];

    let mut guard = 0usize;
    while !packed[1].is_complete() {
        guard += 1;
        prop_assert!(guard < 64 * k, "relay sink did not converge");
        // One burst into node 0 (fewer rows once it nears full rank).
        let target = (packed[0].rank() + BURST).min(k);
        while packed[0].rank() < target {
            let p = Recoder::new(&source).emit(&mut rng).expect("source emits");
            let va = packed[0].try_receive(&p).expect("shape-valid packet");
            let vb = arena.insert_packed_slice(0, &p.to_packed_row());
            let vc = scalar[0].receive(p);
            prop_assert_eq!(va, vc, "verdict diverged at rank {}", scalar[0].rank());
            prop_assert_eq!(vb, vc, "arena verdict diverged");
        }
        // Two relay emits from node 0 into node 1. The first settles the
        // whole burst; its bytes must match the scalar recombination.
        for _ in 0..2 {
            let row_a = Recoder::new(&packed[0])
                .emit_packed_row(&mut emit_a)
                .expect("node 0 has rank");
            prop_assert!(recode(
                &mut &arena,
                0,
                None,
                &mut factors,
                &mut emit_b,
                Some(&mut buf)
            ));
            let pkt_c = scalar_emit::<F>(scalar[0].rows(), k, r, &mut emit_c).expect("has rank");
            prop_assert_eq!(&row_a, &buf, "arena emit bytes diverged");
            prop_assert_eq!(
                &row_a,
                &pkt_c.to_packed_row(),
                "emit bytes diverged from scalar at rank {} (flush bug)",
                scalar[0].rank()
            );
            let va = packed[1].receive_packed_slice(&row_a);
            let vb = arena.insert_packed_slice(1, &row_a);
            let vc = scalar[1].receive(pkt_c);
            prop_assert_eq!(va, vc, "relay verdict diverged");
            prop_assert_eq!(vb, vc, "relay arena verdict diverged");
        }
        for node in 0..2 {
            prop_assert_eq!(packed[node].rank(), scalar[node].rank());
            prop_assert_eq!(arena.rank(node), scalar[node].rank());
        }
    }

    // Node 1's first and only flush: rank k, nothing settled before.
    for node in 0..2 {
        let want = scalar[node].decode();
        prop_assert_eq!(packed[node].decode(), want.clone(), "node {} decode", node);
        prop_assert_eq!(arena.solution(node), want, "arena node {} decode", node);
        prop_assert_eq!(
            packed[node].decode().expect("both nodes completed"),
            generation.messages().to_vec()
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn gf256_blocked_flushes_match_scalar(seed in any::<u64>(), k in 32usize..48, r in 64usize..96) {
        burst_stream::<Gf256>(seed, k, r)?;
    }

    #[test]
    fn gf2_blocked_flushes_match_scalar(seed in any::<u64>(), k in 32usize..48, r in 64usize..96) {
        burst_stream::<Gf2>(seed, k, r)?;
    }

    /// Same bursts, payload rows under 64 bytes: every flush stays row-wise.
    #[test]
    fn gf256_narrow_payload_stays_rowwise_and_matches_scalar(
        seed in any::<u64>(),
        k in 32usize..48,
        r in 1usize..64,
    ) {
        burst_stream::<Gf256>(seed, k, r)?;
    }
}
