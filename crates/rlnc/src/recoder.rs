//! Recoding: emitting fresh random combinations of stored equations.

use ag_gf::SlabField;
use rand::Rng;

use crate::decoder::Decoder;
use crate::packet::Packet;

/// Builds outgoing packets as random linear combinations of everything a
/// node currently stores.
///
/// This is the core RLNC operation from the paper: "A message is built as a
/// random linear combination of all messages stored by the node and the
/// coefficients are drawn uniformly at random from `F_q`." Note that the
/// combination is over the node's *stored equations*, so the emitted
/// packet's coefficient vector (over the original messages) is the same
/// random combination applied to the stored coefficient rows.
///
/// `Recoder` borrows the decoder immutably, so a node can compose its
/// outgoing message from pre-round state while its own inbox fills up —
/// exactly the synchronous-round semantics the simulator needs.
///
/// # Examples
///
/// ```
/// use ag_gf::Gf256;
/// use ag_rlnc::{Decoder, Generation, Recoder};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(7);
/// let g = Generation::<Gf256>::random(4, 2, &mut rng);
/// let source = Decoder::with_all_messages(&g);
/// let pkt = Recoder::new(&source).emit(&mut rng).unwrap();
/// assert_eq!(pkt.generation_size(), 4);
/// assert_eq!(pkt.payload_len(), 2);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Recoder<'a, F> {
    decoder: &'a Decoder<F>,
}

impl<'a, F: SlabField> Recoder<'a, F> {
    /// Wraps a decoder for recoding.
    #[must_use]
    pub fn new(decoder: &'a Decoder<F>) -> Self {
        Recoder { decoder }
    }

    /// Emits one coded packet, or `None` when the node stores nothing yet
    /// (rank 0 — it has nothing to say).
    ///
    /// The combination runs as fused multi-row gathers over the decoder's
    /// coefficient and payload slabs (one memory pass each).
    #[must_use]
    pub fn emit<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<Packet<F>> {
        self.emit_packed_row(rng)
            .map(|acc| Packet::from_packed_row(&acc, self.decoder.k()))
    }

    /// Like [`Recoder::emit`] but returning the packed augmented row
    /// directly — the wire format of the simulation hot path. Skipping the
    /// unpack-to-[`Packet`]/repack round trip (and its allocations) is
    /// what lets a rank-only contact cost one allocation end to end; feed
    /// the row to [`Decoder::receive_packed_slice`]. Draws the same
    /// coefficients as [`Recoder::emit`] under the same RNG state.
    #[must_use]
    pub fn emit_packed_row<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<Vec<u8>> {
        let mut acc = Vec::new();
        self.emit_packed_row_into(rng, &mut acc).then_some(acc)
    }

    /// Like [`Recoder::emit_packed_row`] but writing into a caller-provided
    /// reusable buffer (sized to the row width), so the steady-state emit
    /// path performs no heap allocation once `out` has warmed up to
    /// capacity. Returns `false` — leaving `out` empty — when the node
    /// stores nothing yet. Draws the same coefficients as
    /// [`Recoder::emit`] under the same RNG state.
    ///
    /// This is the dense [`crate::DecoderArena::emit_packed_row_into`] on
    /// the decoder's one-node store, which also settles any payload
    /// elimination the node had deferred.
    // ag-lint: hot-path
    pub fn emit_packed_row_into<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut Vec<u8>) -> bool {
        let arena = self.decoder.arena();
        if arena.rank(0) == 0 {
            out.clear();
            return false;
        }
        out.resize(arena.row_bytes(), 0);
        arena.emit_packed_row_into(0, None, rng, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generation::Generation;
    use ag_gf::{Field, Gf2, Gf256};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn empty_node_emits_nothing() {
        let d = Decoder::<Gf256>::new(3, 1);
        let mut rng = StdRng::seed_from_u64(1);
        assert!(Recoder::new(&d).emit(&mut rng).is_none());
    }

    #[test]
    fn emitted_packet_is_in_span() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = Generation::<Gf256>::random(4, 3, &mut rng);
        let mut d = Decoder::new(4, 3);
        d.seed_message(&g, 1);
        d.seed_message(&g, 2);
        for _ in 0..20 {
            let p = Recoder::new(&d).emit(&mut rng).unwrap();
            // Packet must be a combination of messages 1 and 2 only.
            assert!(p.coefficients()[0].is_zero());
            assert!(p.coefficients()[3].is_zero());
            // And it must never help the emitting node itself.
            assert!(!d.would_help(&p));
        }
    }

    #[test]
    fn payload_is_consistent_with_coefficients() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = Generation::<Gf256>::random(3, 5, &mut rng);
        let source = Decoder::with_all_messages(&g);
        for _ in 0..20 {
            let p = Recoder::new(&source).emit(&mut rng).unwrap();
            // Recompute payload from ground truth and compare.
            for j in 0..5 {
                let mut acc = Gf256::ZERO;
                for (i, m) in g.messages().iter().enumerate() {
                    acc += p.coefficients()[i] * m[j];
                }
                assert_eq!(acc, p.payload()[j], "payload symbol {j} inconsistent");
            }
        }
    }

    #[test]
    fn helpfulness_probability_is_at_least_1_minus_1_over_q() {
        // Over GF(2) the bound is 1/2; empirically check a margin.
        let mut rng = StdRng::seed_from_u64(4);
        let g = Generation::<Gf2>::random(8, 0, &mut rng);
        let source = Decoder::with_all_messages(&g);
        let mut sink = Decoder::<Gf2>::new(8, 0);
        let mut helpful = 0u32;
        let mut total = 0u32;
        while !sink.is_complete() {
            let p = Recoder::new(&source).emit(&mut rng).unwrap();
            total += 1;
            if sink.try_receive(&p).unwrap().is_innovative() {
                helpful += 1;
            }
        }
        // E[total] ~ k + 1.6; a catastrophically bad codec would blow this.
        assert!(total < 100, "took {total} packets to fill rank 8");
        assert!(helpful == 8);
    }
}
