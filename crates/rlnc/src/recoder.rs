//! Recoding: emitting fresh random combinations of stored equations.
//!
//! The coefficient draws and the combination that follows are written
//! once, in [`recode`], over whatever holds a node's stored rows
//! ([`StoredRows`]): the simulation's [`BasisArena`] and its
//! [`BasisShard`]s, and through the one-node arena of a [`Decoder`], the
//! [`Recoder`].

use ag_gf::SlabField;
use ag_linalg::{BasisArena, BasisShard};
use rand::Rng;

use crate::decoder::Decoder;
use crate::packet::Packet;

/// What a recode reads of a node's stored rows. Implemented by the serial
/// arena (through `&`: its scratch is interior-mutable) and by a shard
/// (through `&mut`), so the draw-and-combine loop is written once.
pub trait StoredRows {
    /// The field the rows are over.
    type Field: SlabField;
    /// Node `node`'s rank.
    fn rank(&self, node: usize) -> usize;
    /// `out += Σᵢ factors[i] · row_i` over node `node`'s stored rows (see
    /// [`BasisArena::accumulate_rows_into`]).
    fn accumulate_rows_into(&mut self, node: usize, factors: &[u8], out: &mut [u8]);
}

impl<F: SlabField> StoredRows for &BasisArena<F> {
    type Field = F;
    fn rank(&self, node: usize) -> usize {
        BasisArena::rank(self, node)
    }
    fn accumulate_rows_into(&mut self, node: usize, factors: &[u8], out: &mut [u8]) {
        BasisArena::accumulate_rows_into(self, node, factors, out);
    }
}

impl<F: SlabField> StoredRows for BasisShard<'_, F> {
    type Field = F;
    fn rank(&self, node: usize) -> usize {
        BasisShard::rank(self, node)
    }
    fn accumulate_rows_into(&mut self, node: usize, factors: &[u8], out: &mut [u8]) {
        BasisShard::accumulate_rows_into(self, node, factors, out);
    }
}

/// The one recode: draws the coefficients of a fresh random combination of
/// everything node `node` stores and, given an `out` row, writes the
/// combination there, one packed row wide, whatever it held. Settles any
/// payload elimination the node had deferred. Returns `false`, drawing
/// nothing and leaving `out` untouched, when the node stores nothing yet.
///
/// `density: None` is the paper's dense combination: one uniform
/// coefficient per stored row, in insertion order, zeros included.
/// `Some(p)` is sparse recoding: each stored row participates with
/// probability `p`, with a uniform *nonzero* coefficient; an empty sample
/// forwards one uniformly chosen stored row verbatim, so the packet is
/// never informationless. That cuts the combination from `rank` to
/// `p · rank` row-axpys per packet at the price of a higher redundancy
/// probability (the density ablation, A5, measures it).
///
/// With no `out` row it makes exactly the draws and combines nothing: the
/// emit of a message whose receiver's span already contains `node`'s, and
/// would find the row redundant. `rng` ends where the full emit leaves it,
/// so skipping the combination moves no later draw. `factors` is the
/// caller's reusable packed-coefficient buffer; with `k` symbols of
/// capacity it never allocates.
///
/// # Panics
///
/// Panics if `density` is `Some(p)` with `p` not in `(0, 1]`, or if the
/// node stores a row and `out` is not one row long.
// ag-lint: hot-path
pub fn recode<F: SlabField, S: StoredRows<Field = F> + ?Sized, R: Rng + ?Sized>(
    rows: &mut S,
    node: usize,
    density: Option<f64>,
    factors: &mut Vec<u8>,
    rng: &mut R,
    out: Option<&mut [u8]>,
) -> bool {
    assert!(
        density.is_none_or(|p| p > 0.0 && p <= 1.0),
        "coding density must be in (0, 1]"
    );
    let sb = F::SYMBOL_BYTES;
    let rank = rows.rank(node);
    if rank == 0 {
        return false;
    }
    factors.clear();
    factors.resize(rank * sb, 0);
    let mut picked_any = false;
    for slot in factors.chunks_exact_mut(sb) {
        match density {
            None => F::random(rng).write_symbol(slot),
            Some(p) if rng.gen_bool(p) => F::random_nonzero(rng).write_symbol(slot),
            Some(_) => continue,
        }
        picked_any = true;
    }
    if !picked_any {
        // Degenerate sparse draw: forward one stored row unmodified, as
        // the combination with a single unit factor.
        F::ONE.write_symbol(&mut factors[rng.gen_range(0..rank) * sb..]);
    }
    if let Some(out) = out {
        out.fill(0);
        rows.accumulate_rows_into(node, factors, out);
    }
    true
}

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
    /// This is the dense [`recode`] on the decoder's one-node store, which
    /// also settles any payload elimination the node had deferred.
    // ag-lint: hot-path
    pub fn emit_packed_row_into<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut Vec<u8>) -> bool {
        let d = self.decoder;
        if d.rank() == 0 {
            out.clear();
            return false;
        }
        out.resize(d.basis.row_bytes(), 0);
        let factors = &mut d.scratch.borrow_mut();
        recode(&mut &d.basis, 0, None, factors, rng, Some(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generation::Generation;
    use ag_gf::{Field, Gf2, Gf256};
    use ag_linalg::Insertion;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

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

    /// An arena of `nodes` empty bases for `g`'s shape.
    fn arena_for<F: SlabField>(nodes: usize, g: &Generation<F>) -> BasisArena<F> {
        BasisArena::try_new(nodes, g.k(), g.k() + g.message_len()).unwrap()
    }

    /// Gives node `node` source message `msg`.
    fn seed<F: SlabField>(arena: &mut BasisArena<F>, node: usize, g: &Generation<F>, msg: usize) {
        let mut row = Vec::new();
        g.seed_row_into(msg, &mut row);
        assert!(arena.insert_packed_mut(node, &mut row).is_innovative());
    }

    /// Gives node `node` every source message.
    fn seed_all<F: SlabField>(arena: &mut BasisArena<F>, node: usize, g: &Generation<F>) {
        for msg in 0..g.k() {
            seed(arena, node, g, msg);
        }
    }

    /// [`recode`] from the serial arena into `out`.
    fn emit<F: SlabField>(
        arena: &BasisArena<F>,
        node: usize,
        density: Option<f64>,
        rng: &mut StdRng,
        out: &mut [u8],
    ) -> bool {
        recode(&mut &*arena, node, density, &mut Vec::new(), rng, Some(out))
    }

    /// A shard's delivery as the simulation makes it: the row is copied
    /// and reduced in the copy.
    fn receive_in_shard(shard: &mut BasisShard<'_, Gf256>, node: usize, row: &[u8]) -> Insertion {
        shard.insert_packed_mut(node, &mut row.to_vec())
    }

    /// Node `v` of an n-node arena and a one-node `Decoder` (the same store
    /// behind the `Packet` API) must agree bit for bit when both consume
    /// identical streams — including the RNG draw sequence of emits. A
    /// decoder's innovative count is the rank it gained.
    #[test]
    fn arena_tracks_vec_of_decoders_under_shared_rng() {
        let mut setup_rng = StdRng::seed_from_u64(42);
        let k = 5;
        let r = 3;
        let nodes = 4;
        let g = Generation::<Gf256>::random(k, r, &mut setup_rng);

        let mut arena = arena_for(nodes, &g);
        let mut decoders: Vec<Decoder<Gf256>> = (0..nodes).map(|_| Decoder::new(k, r)).collect();
        let mut seeded = [0; 4];
        for (msg, node) in [(0usize, 0usize), (1, 1), (2, 2), (3, 3), (4, 0)] {
            seed(&mut arena, node, &g, msg);
            decoders[node].seed_message(&g, msg);
            seeded[node] += 1;
        }

        let mut rng_a = StdRng::seed_from_u64(7);
        let mut rng_b = StdRng::seed_from_u64(7);
        let mut buf = vec![0; arena.row_bytes()];
        let mut traffic_rng = StdRng::seed_from_u64(13);
        for _ in 0..200 {
            let from = traffic_rng.gen_range(0..nodes);
            let to = (from + 1 + traffic_rng.gen_range(0..nodes - 1)) % nodes;
            let emitted_a = emit(&arena, from, None, &mut rng_a, &mut buf);
            let emitted_b = Recoder::new(&decoders[from]).emit_packed_row(&mut rng_b);
            assert_eq!(emitted_a, emitted_b.is_some(), "emit disagreement");
            let Some(row_b) = emitted_b else { continue };
            assert_eq!(buf, row_b, "emitted bytes diverged");
            let got = arena.insert_packed_slice(to, &buf);
            let want = decoders[to].receive_packed_slice(&row_b);
            assert_eq!(got, want, "verdict diverged");
            assert_eq!(arena.rank(to), decoders[to].rank());
            assert_eq!(
                decoders[to].innovative_count(),
                (arena.rank(to) - seeded[to]) as u64
            );
        }
        for (v, decoder) in decoders.iter().enumerate() {
            assert_eq!(arena.is_full(v), decoder.is_complete());
            assert_eq!(arena.solution(v), decoder.decode());
        }
    }

    /// The sparse draws are the documented ones, in the documented order:
    /// per stored row a participation coin, then a nonzero coefficient for
    /// a row that takes part; an empty sample forwards one stored row.
    #[test]
    fn sparse_emit_makes_the_documented_draws() {
        let mut setup_rng = StdRng::seed_from_u64(3);
        let g = Generation::<Gf256>::random(6, 2, &mut setup_rng);
        let mut arena = arena_for(1, &g);
        seed_all(&mut arena, 0, &g);
        let mut rng_a = StdRng::seed_from_u64(99);
        let mut rng_b = StdRng::seed_from_u64(99);
        let mut buf = vec![0; arena.row_bytes()];
        for density in [0.05, 0.4, 1.0] {
            for _ in 0..20 {
                assert!(emit(&arena, 0, Some(density), &mut rng_a, &mut buf));
                // Seeded with unit equations in order, stored row i is
                // message i, so the combination is over the generation.
                let mut want = vec![Gf256::ZERO; 6 + 2];
                let mut picked_any = false;
                for factor in &mut want[..6] {
                    if rng_b.gen_bool(density) {
                        *factor = Gf256::random_nonzero(&mut rng_b);
                        picked_any = true;
                    }
                }
                if !picked_any {
                    want[rng_b.gen_range(0..6usize)] = Gf256::ONE;
                }
                for (i, message) in g.messages().iter().enumerate() {
                    for (j, &symbol) in message.iter().enumerate() {
                        let term = want[i] * symbol;
                        want[6 + j] += term;
                    }
                }
                assert_eq!(buf, Gf256::pack(&want), "density {density}");
            }
        }
    }

    #[test]
    fn sparse_emit_is_in_span_and_never_zero() {
        let mut rng = StdRng::seed_from_u64(11);
        let g = Generation::<Gf256>::random(6, 2, &mut rng);
        let mut arena = arena_for(1, &g);
        seed(&mut arena, 0, &g, 1);
        seed(&mut arena, 0, &g, 4);
        let mut buf = vec![0; arena.row_bytes()];
        for density in [0.05, 0.3, 1.0] {
            for _ in 0..30 {
                assert!(emit(&arena, 0, Some(density), &mut rng, &mut buf));
                let p = Packet::<Gf256>::from_packed_row(&buf, 6);
                assert!(!p.is_zero(), "density {density} produced a zero packet");
                assert!(p.coefficients()[0].is_zero());
                assert!(
                    !arena.would_be_innovative_packed(0, &buf),
                    "packet left the node's span"
                );
            }
        }
    }

    #[test]
    fn sparse_source_still_fills_sink() {
        let mut rng = StdRng::seed_from_u64(12);
        let g = Generation::<Gf256>::random(8, 1, &mut rng);
        let mut arena = arena_for(2, &g);
        seed_all(&mut arena, 0, &g);
        let mut buf = vec![0; arena.row_bytes()];
        let mut sent = 0;
        while !arena.is_full(1) {
            assert!(emit(&arena, 0, Some(0.25), &mut rng, &mut buf));
            arena.insert_packed_slice(1, &buf);
            sent += 1;
            assert!(sent < 500, "sparse coding failed to converge");
        }
        assert_eq!(arena.solution(1).unwrap(), g.messages());
    }

    #[test]
    fn empty_node_emits_nothing_sparse() {
        let arena = BasisArena::<Gf256>::try_new(1, 3, 3).unwrap();
        let mut rng = StdRng::seed_from_u64(13);
        assert!(!emit(&arena, 0, Some(0.5), &mut rng, &mut []));
    }

    #[test]
    #[should_panic(expected = "density")]
    fn zero_density_rejected() {
        let mut rng = StdRng::seed_from_u64(14);
        let g = Generation::<Gf256>::random(2, 0, &mut rng);
        let mut arena = arena_for(1, &g);
        seed_all(&mut arena, 0, &g);
        let _ = emit(&arena, 0, Some(0.0), &mut rng, &mut []);
    }

    #[test]
    fn source_to_sink_completes_and_decodes() {
        let mut rng = StdRng::seed_from_u64(11);
        let g = Generation::<Gf2>::random(8, 4, &mut rng);
        let mut arena = arena_for(2, &g);
        seed_all(&mut arena, 0, &g);
        assert!(arena.is_full(0));
        let mut buf = vec![0; arena.row_bytes()];
        let mut sent = 0;
        while !arena.is_full(1) {
            assert!(emit(&arena, 0, None, &mut rng, &mut buf));
            arena.insert_packed_slice(1, &buf);
            sent += 1;
            assert!(sent < 200, "GF(2) source-to-sink failed to converge");
        }
        assert_eq!(arena.solution(1).unwrap(), g.messages());
    }

    /// A node that stores nothing draws nothing and writes nothing.
    #[test]
    fn an_empty_node_draws_and_writes_nothing() {
        let arena = BasisArena::<Gf256>::try_new(1, 3, 4).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let untouched = rng.clone();
        let mut buf = [1, 2, 3, 4];
        assert!(!emit(&arena, 0, None, &mut rng, &mut buf));
        assert_eq!(buf, [1, 2, 3, 4], "a failed emit leaves the row alone");
        assert_eq!(rng.next_u64(), untouched.clone().next_u64());
    }

    /// Every stored row of node `v`, coefficients and settled payload.
    fn stored_rows(arena: &BasisArena<Gf256>, v: usize) -> Vec<Vec<u8>> {
        (0..arena.rank(v))
            .map(|i| {
                let mut row = Vec::new();
                arena.copy_packed_row_into(v, i, &mut row);
                row
            })
            .collect()
    }

    /// A row delivered to a node that is already full, through the arena
    /// and through a shard: redundant, and the node's rank and stored bytes
    /// stay as they were.
    #[test]
    fn a_full_receiver_answers_from_its_rank() {
        let mut rng = StdRng::seed_from_u64(31);
        let (k, r) = (4, 3);
        let g = Generation::<Gf256>::random(k, r, &mut rng);
        let mut arena = arena_for(3, &g);
        seed_all(&mut arena, 0, &g);
        let mut buf = vec![0; arena.row_bytes()];
        while !arena.is_full(1) {
            assert!(emit(&arena, 0, None, &mut rng, &mut buf));
            arena.insert_packed_slice(1, &buf);
        }
        // Node 2 stays empty, so the shard split below has two ranges.
        let before = stored_rows(&arena, 1);
        assert!(emit(&arena, 0, None, &mut rng, &mut buf));
        assert_eq!(arena.insert_packed_slice(1, &buf), Insertion::Redundant);
        assert_eq!(stored_rows(&arena, 1), before, "arena");
        {
            let mut shards = arena.shards_mut(&[(0, 2), (2, 3)]);
            assert!(shards[0].is_full(1));
            assert_eq!(
                receive_in_shard(&mut shards[0], 1, &buf),
                Insertion::Redundant
            );
        }
        assert_eq!(arena.rank(1), k);
        assert_eq!(stored_rows(&arena, 1), before, "shard");
        assert_eq!(arena.solution(1).unwrap(), g.messages());
    }

    /// An emit whose combination is skipped makes exactly the draws of the
    /// full emit, dense, sparse and at a density so low that nearly every
    /// draw forwards one stored row (the degenerate branch): an equally
    /// seeded RNG is left where the full emit leaves it, through the arena
    /// and through a shard, and an empty node draws nothing either way.
    #[test]
    fn a_skipped_emit_makes_the_full_emits_draws() {
        let mut setup = StdRng::seed_from_u64(17);
        let (k, r) = (6, 2);
        let g = Generation::<Gf256>::random(k, r, &mut setup);
        let mut arena = arena_for(3, &g);
        seed_all(&mut arena, 0, &g);
        for msg in [1, 3, 4] {
            seed(&mut arena, 1, &g, msg);
        }
        let mut buf = vec![0; arena.row_bytes()];
        let mut factors = Vec::new();
        let mut forwarded = 0;
        for (seed, density) in [None, Some(0.4), Some(1e-9)].into_iter().enumerate() {
            let mut full = StdRng::seed_from_u64(seed as u64);
            let mut skip = full.clone();
            for step in 0..40 {
                let node = step % 3;
                let emitted = emit(&arena, node, density, &mut full, &mut buf);
                let skipped = recode(&mut &arena, node, density, &mut factors, &mut skip, None);
                assert_eq!(skipped, emitted);
                assert_eq!(full.next_u64(), skip.next_u64(), "{density:?}, step {step}");
                // Node 0 stores unit equations: a forwarded row has one
                // nonzero coefficient.
                let one = buf[..k].iter().filter(|&&c| c != 0).count() == 1;
                if density == Some(1e-9) && node == 0 && one {
                    forwarded += 1;
                }
            }
            let mut shards = arena.shards_mut(&[(0, 1), (1, 3)]);
            for step in 0..40 {
                let (shard, node) = if step % 2 == 0 {
                    (0, 0)
                } else {
                    (1, 1 + step % 4 / 2)
                };
                let shard = &mut shards[shard];
                let emitted = recode(
                    shard,
                    node,
                    density,
                    &mut factors,
                    &mut full,
                    Some(&mut buf),
                );
                let skipped = recode(shard, node, density, &mut factors, &mut skip, None);
                assert_eq!(skipped, emitted);
                assert_eq!(
                    full.next_u64(),
                    skip.next_u64(),
                    "{density:?}, shard step {step}"
                );
            }
        }
        assert!(
            forwarded >= 10,
            "the degenerate branch ran {forwarded} times"
        );
    }

    /// Shard receive/emit must be byte-identical to the serial arena under
    /// the same RNG streams — the property the engine's fan-out rests on.
    #[test]
    fn shards_track_serial_arena_under_shared_rng() {
        let mut setup_rng = StdRng::seed_from_u64(21);
        let k = 6;
        let r = 3;
        let nodes = 5;
        let g = Generation::<Gf256>::random(k, r, &mut setup_rng);
        let mut serial = arena_for(nodes, &g);
        let mut sharded = arena_for(nodes, &g);
        for v in 0..nodes {
            seed(&mut serial, v, &g, v % k);
            seed(&mut sharded, v, &g, v % k);
        }
        let mut rng_a = StdRng::seed_from_u64(8);
        let mut rng_b = StdRng::seed_from_u64(8);
        let mut traffic = StdRng::seed_from_u64(5);
        let mut buf_a = vec![0; serial.row_bytes()];
        let mut buf_b = vec![0; serial.row_bytes()];
        let mut factors = Vec::new();
        {
            let mut shards = sharded.shards_mut(&[(0, 2), (2, nodes)]);
            for _ in 0..300 {
                let from = traffic.gen_range(0..nodes);
                let to = (from + 1 + traffic.gen_range(0..nodes - 1)) % nodes;
                let density = traffic.gen_bool(0.5).then_some(0.3);
                let a = emit(&serial, from, density, &mut rng_a, &mut buf_a);
                let sf = shards
                    .iter_mut()
                    .position(|s| s.node_range().contains(&from))
                    .unwrap();
                let b = recode(
                    &mut shards[sf],
                    from,
                    density,
                    &mut factors,
                    &mut rng_b,
                    Some(&mut buf_b),
                );
                assert_eq!(a, b, "emit disagreement");
                assert_eq!(buf_a, buf_b, "emitted bytes diverged");
                if !a {
                    continue;
                }
                let want = serial.insert_packed_slice(to, &buf_a);
                let st = shards
                    .iter_mut()
                    .position(|s| s.node_range().contains(&to))
                    .unwrap();
                let got = receive_in_shard(&mut shards[st], to, &buf_b);
                assert_eq!(got, want, "verdict diverged");
            }
        }
        for v in 0..nodes {
            assert_eq!(serial.rank(v), sharded.rank(v));
            assert_eq!(stored_rows(&serial, v), stored_rows(&sharded, v));
            assert_eq!(serial.solution(v), sharded.solution(v));
        }
    }
}
