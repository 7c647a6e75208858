//! Forced blocked-replay differential lane.
//!
//! The default `cargo test` run resolves the payload-replay schedule to
//! [`ReplayMode::Auto`], which only picks the blocked (BLAS-3) schedule
//! once a basis accumulates a deep pending suffix — small differential
//! streams would never leave the row-wise path. This binary forces
//! [`ReplayMode::Blocked`] process-wide (it is its own test process, so
//! the global knob cannot leak into other suites) and replays interleaved
//! receive/emit/decode streams against the eager scalar oracle: every
//! flush — recode emits from partially-eliminated bases, mid-stream and
//! final decodes, arena solutions — runs through the transform-panel GEMM
//! path, and every verdict, rank, emitted byte and decoded message must
//! match [`ag_linalg::reference::ScalarBasis`] exactly.
//!
//! Run with `PROPTEST_CASES=256` in CI for the elevated-coverage pass; CI
//! additionally re-runs the main `differential_decoder` suite under
//! `AG_LINALG_REPLAY=blocked` and `=rowwise`.

use ag_gf::{Field, Gf16, Gf2, Gf256, SlabField};
use ag_linalg::reference::ScalarBasis;
use ag_linalg::{set_replay_mode, Insertion, ReplayMode};
use ag_rlnc::{Decoder, DecoderArena, Generation, Packet, Reception, Recoder};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Minimal scalar decoder mirror (see `differential_decoder.rs` for the
/// full-featured twin): eager element-at-a-time elimination.
struct ScalarDecoder<F> {
    k: usize,
    basis: ScalarBasis<F>,
}

impl<F: Field> ScalarDecoder<F> {
    fn new(k: usize) -> Self {
        ScalarDecoder {
            k,
            basis: ScalarBasis::new(k),
        }
    }

    fn receive(&mut self, packet: Packet<F>) -> Reception {
        match self.basis.insert(packet.into_row()) {
            Insertion::Innovative => Reception::Innovative,
            Insertion::Redundant => Reception::Redundant,
        }
    }

    fn rank(&self) -> usize {
        self.basis.rank()
    }

    fn rows(&self) -> &[Vec<F>] {
        self.basis.rows()
    }

    fn decode(&self) -> Option<Vec<Vec<F>>> {
        self.basis.solution()
    }
}

/// Scalar mirror of `Recoder::emit_packed_row`: one uniform draw per
/// stored row in insertion order (zeros included). Under a shared RNG
/// state this must reproduce the packed emit byte for byte — here the
/// packed emit settles its pending elimination through the forced blocked
/// schedule first.
fn scalar_emit<F: SlabField>(
    rows: &[Vec<F>],
    k: usize,
    r: usize,
    rng: &mut StdRng,
) -> Option<Packet<F>> {
    if rows.is_empty() {
        return None;
    }
    let mut acc = vec![F::ZERO; k + r];
    for row in rows {
        let c = F::random(rng);
        if c.is_zero() {
            continue;
        }
        for (a, &x) in acc.iter_mut().zip(row.iter()) {
            *a += c * x;
        }
    }
    let payload = acc.split_off(k);
    Some(Packet::new(acc, payload))
}

/// One interleaved stream under forced blocked replay: source recodings
/// into node 0, relay emits (each forcing a blocked flush of a partially
/// filled basis) into node 1, mid-stream decodes, final ground truth.
fn blocked_stream<F: SlabField>(
    seed: u64,
    k: usize,
    r: usize,
    steps: usize,
) -> Result<(), TestCaseError> {
    set_replay_mode(ReplayMode::Blocked);
    let mut rng = StdRng::seed_from_u64(seed);
    let generation = Generation::<F>::random(k, r, &mut rng);
    let source = Decoder::with_all_messages(&generation);

    let mut packed = [Decoder::<F>::new(k, r), Decoder::<F>::new(k, r)];
    let mut scalar = [ScalarDecoder::<F>::new(k), ScalarDecoder::<F>::new(k)];
    let mut arena = DecoderArena::<F>::new(2, k, r);

    let mut emit_a = StdRng::seed_from_u64(seed ^ 0xB10C);
    let mut emit_b = emit_a.clone();
    let mut emit_c = emit_a.clone();
    let mut buf = Vec::new();

    for step in 0..steps {
        match step % 5 {
            // Source recoding into node 0.
            0 | 1 => {
                let p = Recoder::new(&source).emit(&mut rng).expect("source emits");
                let va = packed[0].try_receive(&p).expect("shape-valid packet");
                let vb = arena.receive_packed_slice(0, &p.to_packed_row());
                let vc = scalar[0].receive(p);
                prop_assert_eq!(va, vc, "verdict diverged at step {}", step);
                prop_assert_eq!(vb, vc, "arena verdict diverged at step {}", step);
            }
            // Relay emit from node 0's partially filled basis: the packed
            // and arena emits settle pending events through the blocked
            // schedule; the bytes must match the scalar recombination.
            2 | 3 => {
                let row_a = Recoder::new(&packed[0]).emit_packed_row(&mut emit_a);
                let emitted_b = arena.emit_packed_row_into(0, None, &mut emit_b, &mut buf);
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
                    "blocked-flush emit bytes diverged at step {}",
                    step
                );
                let va = packed[1].receive_packed_slice(&row_a);
                let vb = arena.receive_packed_slice(1, &row_a);
                let vc = scalar[1].receive(pkt_c);
                prop_assert_eq!(va, vc, "relay verdict diverged at step {}", step);
                prop_assert_eq!(vb, vc, "relay arena verdict diverged at step {}", step);
            }
            // Mid-stream decode attempts: a completed basis settles its
            // whole remaining log in one blocked panel multiply here.
            _ => {
                for node in 0..2 {
                    prop_assert_eq!(
                        packed[node].decode(),
                        scalar[node].decode(),
                        "mid-stream decode diverged at step {}",
                        step
                    );
                    prop_assert_eq!(arena.decode(node), scalar[node].decode());
                }
            }
        }
        for node in 0..2 {
            prop_assert_eq!(packed[node].rank(), scalar[node].rank());
            prop_assert_eq!(arena.rank(node), scalar[node].rank());
        }
    }

    for node in 0..2 {
        prop_assert_eq!(packed[node].decode(), scalar[node].decode());
        prop_assert_eq!(arena.decode(node), scalar[node].decode());
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
    fn gf256_blocked_replay_matches_scalar(
        seed in any::<u64>(),
        // Deep enough that full-rank flushes exceed the Auto thresholds
        // too: the forced lane covers panel shapes Auto would also pick.
        k in 1usize..24,
        r in 1usize..12,
    ) {
        blocked_stream::<Gf256>(seed, k, r, 5 * k + 10)?;
    }

    #[test]
    fn gf16_blocked_replay_matches_scalar(
        seed in any::<u64>(),
        k in 1usize..16,
        r in 1usize..8,
    ) {
        blocked_stream::<Gf16>(seed, k, r, 5 * k + 10)?;
    }

    #[test]
    fn gf2_blocked_replay_matches_scalar(
        seed in any::<u64>(),
        k in 1usize..16,
        r in 1usize..8,
    ) {
        blocked_stream::<Gf2>(seed, k, r, 5 * k + 10)?;
    }
}
