//! All of a simulation's decoders in one arena: allocation-free RLNC.
//!
//! [`DecoderArena`] is the only RLNC decoder state in the workspace: every
//! node's equations live in one [`ag_linalg::BasisArena`], coefficient rows
//! in a slab indexed by node that exists from construction on, payload
//! rows in one allocation per node, made when the node stores its first
//! row. A [`Decoder`](crate::Decoder) is a one-node arena behind the
//! [`Packet`](crate::Packet) API; the differential suite in
//! `tests/differential_decoder.rs` pins this one store against the scalar
//! oracle packet for packet. Emits write into a row the caller owns and
//! receptions read one, so a simulation that keeps its messages in storage
//! of its own performs no per-message heap allocation: a node allocates at
//! its first row and never again, and without a payload not at all.
//!
//! Recoding lives here too: the dense and the sparse coefficient draws and
//! the combination that follows are written once (`emit`, below) and serve
//! the serial arena, its [`DecoderShard`]s and, through the one-node
//! arena, [`crate::Recoder`].

use std::cell::RefCell;

use ag_gf::SlabField;
use ag_linalg::{ArenaError, BasisArena, BasisShard, Insertion};
use rand::Rng;

use crate::generation::Generation;

/// One node's reception counters (seeds excluded).
#[derive(Debug, Clone, Copy, Default)]
struct Counts {
    innovative: u64,
    redundant: u64,
}

impl Counts {
    /// Counts one delivered row by the basis's verdict on it, and passes
    /// the verdict on.
    fn record(&mut self, outcome: Insertion) -> Insertion {
        match outcome {
            Insertion::Innovative => self.innovative += 1,
            Insertion::Redundant => self.redundant += 1,
        }
        outcome
    }
}

/// What an emit reads of a node's stored rows. Implemented by the serial
/// arena (through `&`: its scratch is interior-mutable) and by a shard
/// (through `&mut`), so the draw-and-combine loop is written once.
trait StoredRows {
    fn rank(&self, node: usize) -> usize;
    fn accumulate_rows_into(&mut self, node: usize, factors: &[u8], out: &mut [u8]);
}

impl<F: SlabField> StoredRows for &BasisArena<F> {
    fn rank(&self, node: usize) -> usize {
        BasisArena::rank(self, node)
    }
    fn accumulate_rows_into(&mut self, node: usize, factors: &[u8], out: &mut [u8]) {
        BasisArena::accumulate_rows_into(self, node, factors, out);
    }
}

impl<F: SlabField> StoredRows for BasisShard<'_, F> {
    fn rank(&self, node: usize) -> usize {
        BasisShard::rank(self, node)
    }
    fn accumulate_rows_into(&mut self, node: usize, factors: &[u8], out: &mut [u8]) {
        BasisShard::accumulate_rows_into(self, node, factors, out);
    }
}

/// The one recode-emit, behind [`DecoderArena::emit_packed_row_into`] (which
/// documents the draws), [`DecoderArena::skip_emit`] and their shard twins.
/// `factors` is the caller's reusable packed-coefficient buffer. With no
/// `out` row it makes the draws and combines nothing.
// ag-lint: hot-path
fn emit<F: SlabField, R: Rng + ?Sized>(
    rows: &mut impl StoredRows,
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
    let rank = rows.rank(node);
    if rank == 0 {
        return false;
    }
    factors.clear();
    factors.resize(rank * F::SYMBOL_BYTES, 0);
    let mut picked_any = false;
    for slot in factors.chunks_exact_mut(F::SYMBOL_BYTES) {
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
        F::ONE.write_symbol(&mut factors[rng.gen_range(0..rank) * F::SYMBOL_BYTES..]);
    }
    if let Some(out) = out {
        out.fill(0);
        rows.accumulate_rows_into(node, factors, out);
    }
    true
}

/// `n` decoders for one generation, backed by a single contiguous arena.
///
/// # Examples
///
/// ```
/// use ag_gf::Gf256;
/// use ag_rlnc::{DecoderArena, Generation};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(7);
/// let g = Generation::<Gf256>::random(4, 2, &mut rng);
/// let mut arena = DecoderArena::try_new(2, 4, 2).expect("a small arena fits");
/// arena.seed_all_messages(0, &g); // node 0 is the source
/// let mut buf = vec![0; arena.row_bytes()];
/// while !arena.is_complete(1) {
///     assert!(arena.emit_packed_row_into(0, None, &mut rng, &mut buf));
///     arena.receive_packed_slice(1, &buf);
/// }
/// assert_eq!(arena.decode(1).unwrap(), g.messages());
/// ```
#[derive(Debug, Clone)]
pub struct DecoderArena<F> {
    k: usize,
    payload_len: usize,
    basis: BasisArena<F>,
    counts: Vec<Counts>,
    /// Reusable row buffer for seeding and the borrowing receive paths.
    scratch: Vec<u8>,
    /// Reusable packed `k`-symbol buffer for the `&self` paths: recoding
    /// factors on emit, the coefficient prefix on a helpfulness probe.
    ksyms: RefCell<Vec<u8>>,
}

impl<F: SlabField> DecoderArena<F> {
    /// An arena of `nodes` empty decoders for a generation of `k` messages
    /// of `payload_len` symbols. Every node's coefficient rows are laid
    /// out here, as untouched zero pages; payload storage waits for a
    /// node's first row (see [`BasisArena`]). Overflowing capacity math
    /// and refused reservations surface as a typed [`ArenaError`] (with
    /// the computed byte count) instead of a silent wrap or allocator
    /// abort.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` (a shape bug, not a sizing condition).
    pub fn try_new(nodes: usize, k: usize, payload_len: usize) -> Result<Self, ArenaError> {
        assert!(k > 0, "generation size must be positive");
        Ok(DecoderArena {
            k,
            payload_len,
            basis: BasisArena::try_new(nodes, k, k + payload_len)?,
            counts: vec![Counts::default(); nodes],
            scratch: Vec::with_capacity((k + payload_len) * F::SYMBOL_BYTES),
            // Full-rank capacity up front, like the basis arena's shared
            // scratch: emits must not allocate as ranks grow mid-run.
            ksyms: RefCell::new(Vec::with_capacity(k * F::SYMBOL_BYTES)),
        })
    }

    /// Number of decoders.
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.basis.nodes()
    }

    /// The generation size `k`.
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Payload length `r` in symbols.
    #[must_use]
    pub fn payload_len(&self) -> usize {
        self.payload_len
    }

    /// Bytes per packed augmented row `(k + r) · SYMBOL_BYTES`.
    #[must_use]
    pub fn row_bytes(&self) -> usize {
        self.basis.row_bytes()
    }

    /// Node `node`'s current rank.
    #[must_use]
    pub fn rank(&self, node: usize) -> usize {
        self.basis.rank(node)
    }

    /// True once node `node` can decode every message (rank = k).
    #[must_use]
    pub fn is_complete(&self, node: usize) -> bool {
        self.basis.is_full(node)
    }

    /// Do nodes `a` and `b` span the same subspace? Exact; `false` unless
    /// both hold the same nonzero rank. Usually answered from the two
    /// nodes' span classes, and a match found row by row gives both the
    /// smaller of their classes (see [`ag_linalg::BasisArena::same_span`]).
    /// A message between two such nodes can never help its receiver.
    #[must_use]
    pub fn same_span(&self, a: usize, b: usize) -> bool {
        self.basis.same_span(a, b)
    }

    /// Node `node`'s innovative receptions so far (excluding seeds).
    #[must_use]
    pub fn innovative_count(&self, node: usize) -> u64 {
        self.counts[node].innovative
    }

    /// Node `node`'s redundant receptions so far.
    #[must_use]
    pub fn redundant_count(&self, node: usize) -> u64 {
        self.counts[node].redundant
    }

    /// Sum of all nodes' ranks — the global progress measure.
    #[must_use]
    pub fn total_rank(&self) -> usize {
        (0..self.nodes()).map(|v| self.basis.rank(v)).sum()
    }

    /// Total innovative receptions across all nodes.
    #[must_use]
    pub fn total_innovative(&self) -> u64 {
        self.counts.iter().map(|c| c.innovative).sum()
    }

    /// Total redundant receptions across all nodes.
    #[must_use]
    pub fn total_redundant(&self) -> u64 {
        self.counts.iter().map(|c| c.redundant).sum()
    }

    /// The per-node bases, for the read paths a one-node
    /// [`Decoder`](crate::Decoder) adds (settle, helpfulness scans).
    pub(crate) fn basis(&self) -> &BasisArena<F> {
        &self.basis
    }

    /// Lets `build` write one packed row into the arena's reusable buffer,
    /// then inserts it into node `node`, reducing it there.
    // ag-lint: hot-path
    fn insert_built(&mut self, node: usize, build: impl FnOnce(&mut Vec<u8>)) -> Insertion {
        let mut row = std::mem::take(&mut self.scratch);
        row.clear();
        build(&mut row);
        let outcome = self.basis.insert_packed_mut(node, &mut row);
        self.scratch = row;
        outcome
    }

    /// Seeds node `node` with source message `index`: inserts the unit
    /// equation `e_index · x = x_index`. Counts as neither innovative nor
    /// redundant traffic.
    ///
    /// # Panics
    ///
    /// Panics if the generation's shape differs from the arena's or
    /// `index >= k`.
    pub fn seed_message(&mut self, node: usize, generation: &Generation<F>, index: usize) {
        assert_eq!(generation.k(), self.k, "generation size mismatch");
        assert_eq!(
            generation.message_len(),
            self.payload_len,
            "payload length mismatch"
        );
        let k = self.k;
        let _ = self.insert_built(node, |row| {
            row.resize(k * F::SYMBOL_BYTES, 0);
            F::ONE.write_symbol(&mut row[index * F::SYMBOL_BYTES..]);
            F::pack_into(generation.message(index), row);
        });
    }

    /// Seeds node `node` with *all* messages (a full source).
    pub fn seed_all_messages(&mut self, node: usize, generation: &Generation<F>) {
        for i in 0..generation.k() {
            self.seed_message(node, generation, i);
        }
    }

    /// Delivers a packed augmented row to node `node`, reducing it in the
    /// arena's internal scratch so the caller keeps its bytes, and stores
    /// it on an innovative verdict. A *redundant* reception costs zero heap
    /// allocations, and so does an innovative one after the node's first.
    ///
    /// # Panics
    ///
    /// Panics if the row's byte length differs from
    /// [`DecoderArena::row_bytes`].
    // ag-lint: hot-path
    pub fn receive_packed_slice(&mut self, node: usize, row: &[u8]) -> Insertion {
        self.receive_built(node, |buf| buf.extend_from_slice(row))
    }

    /// Counts one redundant reception at node `node`: the delivery of a
    /// message that carries no row (see [`DecoderArena::skip_emit`]). The
    /// caller's contract is that the receiver's span contained the
    /// sender's when the message was composed (for instance it was full,
    /// or its span was the sender's, see [`DecoderArena::same_span`]), so
    /// any row the sender could have drawn is in the receiver's span now.
    /// The basis is not touched. Only the part of the contract that
    /// survives until delivery is asserted: a synchronous receiver may have
    /// grown since, and its sender too, but a node that held a nonzero span
    /// still does.
    pub fn count_redundant(&mut self, node: usize) {
        debug_assert!(
            self.rank(node) > 0,
            "a no-row message went to an empty node"
        );
        self.counts[node].record(Insertion::Redundant);
    }

    /// [`DecoderArena::receive_packed_slice`] for a row `build` writes
    /// straight into the arena's buffer (a packet being packed).
    // ag-lint: hot-path
    pub(crate) fn receive_built(
        &mut self,
        node: usize,
        build: impl FnOnce(&mut Vec<u8>),
    ) -> Insertion {
        let outcome = self.insert_built(node, build);
        self.counts[node].record(outcome)
    }

    /// Would a packet with these `k` coefficients raise node `node`'s
    /// rank? Non-mutating and allocation-free; payload state is untouched.
    pub(crate) fn would_help(&self, node: usize, coefficients: &[F]) -> bool {
        let mut prefix = self.ksyms.borrow_mut();
        prefix.clear();
        F::pack_into(coefficients, &mut prefix);
        self.basis.would_be_innovative_packed(node, &prefix)
    }

    /// Emits one coded packed row from node `node` into `out`, one row
    /// wide, whatever it held: a fresh random combination over everything
    /// the node stores. Returns `false`, leaving `out` untouched, when the
    /// node stores nothing yet. Settles any payload elimination the node
    /// had deferred.
    ///
    /// `density: None` is the paper's dense combination: one uniform
    /// coefficient per stored row, in insertion order, zeros included.
    /// `Some(p)` is sparse recoding: each stored row participates with
    /// probability `p`, with a uniform *nonzero* coefficient; an empty
    /// sample forwards one uniformly chosen stored row verbatim, so the
    /// packet is never informationless. That cuts the combination from
    /// `rank` to `p · rank` row-axpys per packet at the price of a higher
    /// redundancy probability (the density ablation, A5, measures it).
    ///
    /// # Panics
    ///
    /// Panics if `density` is `Some(p)` with `p` not in `(0, 1]`, or if the
    /// node stores a row and `out` is not [`DecoderArena::row_bytes`] long.
    // ag-lint: hot-path
    pub fn emit_packed_row_into<R: Rng + ?Sized>(
        &self,
        node: usize,
        density: Option<f64>,
        rng: &mut R,
        out: &mut [u8],
    ) -> bool {
        let factors = &mut self.ksyms.borrow_mut();
        emit::<F, R>(&mut &self.basis, node, density, factors, rng, Some(out))
    }

    /// Makes exactly the draws [`DecoderArena::emit_packed_row_into`] makes
    /// from node `node`, and combines and writes nothing: the emit of a
    /// message whose receiver's span already contains `node`'s, and would
    /// find the row redundant.
    /// `rng` ends where the full emit leaves it, so skipping the
    /// combination moves no later draw. Returns `false` when the node
    /// stores nothing yet, as the emit does.
    ///
    /// # Panics
    ///
    /// Panics if `density` is `Some(p)` with `p` not in `(0, 1]`.
    // ag-lint: hot-path
    pub fn skip_emit<R: Rng + ?Sized>(
        &self,
        node: usize,
        density: Option<f64>,
        rng: &mut R,
    ) -> bool {
        let factors = &mut self.ksyms.borrow_mut();
        emit::<F, R>(&mut &self.basis, node, density, factors, rng, None)
    }

    /// Solves node `node`'s system once complete; `None` before rank `k`.
    #[must_use]
    pub fn decode(&self, node: usize) -> Option<Vec<Vec<F>>> {
        self.basis.solution(node)
    }

    /// Splits the arena into disjoint contiguous [`DecoderShard`]s for
    /// parallel round execution. `bounds` must partition `0..nodes()` in
    /// order (see [`BasisArena::shards_mut`]); each shard is `Send`,
    /// addresses its nodes by global id, and owns one scratch row (sized
    /// here, not by the worker) for its emits' factors and its receptions'
    /// row copies, so shard receive/emit sequences are byte-identical to
    /// the serial arena's under the same RNG streams.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is not an ordered contiguous partition.
    pub fn shards_mut(&mut self, bounds: &[(usize, usize)]) -> Vec<DecoderShard<'_, F>> {
        let row_bytes = self.row_bytes();
        let mut counts = self.counts.as_mut_slice();
        self.basis
            .shards_mut(bounds)
            .into_iter()
            .map(|basis| {
                let (mine, rest) =
                    std::mem::take(&mut counts).split_at_mut(basis.node_range().len());
                counts = rest;
                DecoderShard {
                    basis,
                    counts: mine,
                    scratch: Vec::with_capacity(row_bytes),
                }
            })
            .collect()
    }
}

/// A disjoint contiguous slice of a [`DecoderArena`]: the same
/// receive/emit entry points, addressed by global node ids, `Send` by
/// construction (see [`BasisShard`]). Emits draw coefficients in exactly
/// the serial order, so a shard fed the same per-message RNG streams
/// produces byte-identical traffic.
#[derive(Debug)]
pub struct DecoderShard<'a, F> {
    basis: BasisShard<'a, F>,
    /// Counters of the shard's nodes, indexed from the shard's first node.
    counts: &'a mut [Counts],
    /// One row wide: an emit's packed recoding factors (`rank` symbols, at
    /// most `k`), or the copy of a received row its reduction runs in.
    scratch: Vec<u8>,
}

impl<F: SlabField> DecoderShard<'_, F> {
    /// Global node ids covered by this shard.
    #[must_use]
    pub fn node_range(&self) -> std::ops::Range<usize> {
        self.basis.node_range()
    }

    /// Node `node`'s current rank (`node` is a global id in
    /// [`DecoderShard::node_range`]).
    #[must_use]
    pub fn rank(&self, node: usize) -> usize {
        self.basis.rank(node)
    }

    /// Shard-local [`DecoderArena::receive_packed_slice`]: same verdicts,
    /// same counters, and the caller keeps its bytes. A full receiver is
    /// answered from its rank before the row is copied.
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the shard, or if it is not full and the
    /// row length mismatches.
    // ag-lint: hot-path
    pub fn receive_packed_slice(&mut self, node: usize, row: &[u8]) -> Insertion {
        if self.basis.is_full(node) {
            return self.counts[node - self.basis.node_range().start].record(Insertion::Redundant);
        }
        let buf = &mut self.scratch;
        buf.clear();
        buf.extend_from_slice(row);
        let outcome = self.basis.insert_packed_mut(node, buf);
        self.counts[node - self.basis.node_range().start].record(outcome)
    }

    /// Shard-local [`DecoderArena::count_redundant`].
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the shard.
    pub fn count_redundant(&mut self, node: usize) {
        debug_assert!(
            self.basis.rank(node) > 0,
            "a no-row message went to an empty node"
        );
        self.counts[node - self.basis.node_range().start].record(Insertion::Redundant);
    }

    /// Shard-local [`DecoderArena::emit_packed_row_into`] — the same
    /// draws, in exactly the serial sequence.
    ///
    /// # Panics
    ///
    /// Panics if `density` is `Some(p)` with `p` not in `(0, 1]`, or if the
    /// node stores a row and `out` is not one row long.
    // ag-lint: hot-path
    pub fn emit_packed_row_into<R: Rng + ?Sized>(
        &mut self,
        node: usize,
        density: Option<f64>,
        rng: &mut R,
        out: &mut [u8],
    ) -> bool {
        emit::<F, R>(
            &mut self.basis,
            node,
            density,
            &mut self.scratch,
            rng,
            Some(out),
        )
    }

    /// Shard-local [`DecoderArena::skip_emit`].
    ///
    /// # Panics
    ///
    /// Panics if `density` is `Some(p)` with `p` not in `(0, 1]`.
    // ag-lint: hot-path
    pub fn skip_emit<R: Rng + ?Sized>(
        &mut self,
        node: usize,
        density: Option<f64>,
        rng: &mut R,
    ) -> bool {
        emit::<F, R>(&mut self.basis, node, density, &mut self.scratch, rng, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Decoder, Packet, Recoder};
    use ag_gf::{Field, Gf2, Gf256};
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    /// Node `v` of an n-node arena and a one-node `Decoder` (the same store
    /// behind the `Packet` API) must agree bit for bit when both consume
    /// identical streams — including the RNG draw sequence of emits.
    #[test]
    fn arena_tracks_vec_of_decoders_under_shared_rng() {
        let mut setup_rng = StdRng::seed_from_u64(42);
        let k = 5;
        let r = 3;
        let nodes = 4;
        let g = Generation::<Gf256>::random(k, r, &mut setup_rng);

        let mut arena = DecoderArena::<Gf256>::try_new(nodes, k, r).unwrap();
        let mut decoders: Vec<Decoder<Gf256>> = (0..nodes).map(|_| Decoder::new(k, r)).collect();
        for (msg, node) in [(0usize, 0usize), (1, 1), (2, 2), (3, 3), (4, 0)] {
            arena.seed_message(node, &g, msg);
            decoders[node].seed_message(&g, msg);
        }

        let mut rng_a = StdRng::seed_from_u64(7);
        let mut rng_b = StdRng::seed_from_u64(7);
        let mut buf = vec![0; arena.row_bytes()];
        let mut traffic_rng = StdRng::seed_from_u64(13);
        for _ in 0..200 {
            let from = traffic_rng.gen_range(0..nodes);
            let to = (from + 1 + traffic_rng.gen_range(0..nodes - 1)) % nodes;
            let emitted_a = arena.emit_packed_row_into(from, None, &mut rng_a, &mut buf);
            let emitted_b = Recoder::new(&decoders[from]).emit_packed_row(&mut rng_b);
            assert_eq!(emitted_a, emitted_b.is_some(), "emit disagreement");
            let Some(row_b) = emitted_b else { continue };
            assert_eq!(buf, row_b, "emitted bytes diverged");
            let got = arena.receive_packed_slice(to, &buf);
            let want = decoders[to].receive_packed_slice(&row_b);
            assert_eq!(got, want, "verdict diverged");
            assert_eq!(arena.rank(to), decoders[to].rank());
            assert_eq!(arena.innovative_count(to), decoders[to].innovative_count());
            assert_eq!(arena.redundant_count(to), decoders[to].redundant_count());
        }
        for (v, decoder) in decoders.iter().enumerate() {
            assert_eq!(arena.is_complete(v), decoder.is_complete());
            assert_eq!(arena.decode(v), decoder.decode());
        }
    }

    /// The sparse draws are the documented ones, in the documented order:
    /// per stored row a participation coin, then a nonzero coefficient for
    /// a row that takes part; an empty sample forwards one stored row.
    #[test]
    fn sparse_emit_makes_the_documented_draws() {
        let mut setup_rng = StdRng::seed_from_u64(3);
        let g = Generation::<Gf256>::random(6, 2, &mut setup_rng);
        let mut arena = DecoderArena::<Gf256>::try_new(1, 6, 2).unwrap();
        arena.seed_all_messages(0, &g);
        let mut rng_a = StdRng::seed_from_u64(99);
        let mut rng_b = StdRng::seed_from_u64(99);
        let mut buf = vec![0; arena.row_bytes()];
        for density in [0.05, 0.4, 1.0] {
            for _ in 0..20 {
                assert!(arena.emit_packed_row_into(0, Some(density), &mut rng_a, &mut buf));
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
        let mut arena = DecoderArena::<Gf256>::try_new(1, 6, 2).unwrap();
        arena.seed_message(0, &g, 1);
        arena.seed_message(0, &g, 4);
        let mut buf = vec![0; arena.row_bytes()];
        for density in [0.05, 0.3, 1.0] {
            for _ in 0..30 {
                assert!(arena.emit_packed_row_into(0, Some(density), &mut rng, &mut buf));
                let p = Packet::<Gf256>::from_packed_row(&buf, 6);
                assert!(!p.is_zero(), "density {density} produced a zero packet");
                assert!(p.coefficients()[0].is_zero());
                assert!(
                    !arena.would_help(0, p.coefficients()),
                    "packet left the node's span"
                );
            }
        }
    }

    #[test]
    fn sparse_source_still_fills_sink() {
        let mut rng = StdRng::seed_from_u64(12);
        let g = Generation::<Gf256>::random(8, 1, &mut rng);
        let mut arena = DecoderArena::<Gf256>::try_new(2, 8, 1).unwrap();
        arena.seed_all_messages(0, &g);
        let mut buf = vec![0; arena.row_bytes()];
        let mut sent = 0;
        while !arena.is_complete(1) {
            assert!(arena.emit_packed_row_into(0, Some(0.25), &mut rng, &mut buf));
            arena.receive_packed_slice(1, &buf);
            sent += 1;
            assert!(sent < 500, "sparse coding failed to converge");
        }
        assert_eq!(arena.decode(1).unwrap(), g.messages());
    }

    #[test]
    fn empty_node_emits_nothing_sparse() {
        let arena = DecoderArena::<Gf256>::try_new(1, 3, 0).unwrap();
        let mut rng = StdRng::seed_from_u64(13);
        assert!(!arena.emit_packed_row_into(0, Some(0.5), &mut rng, &mut Vec::new()));
    }

    #[test]
    #[should_panic(expected = "density")]
    fn zero_density_rejected() {
        let mut rng = StdRng::seed_from_u64(14);
        let g = Generation::<Gf256>::random(2, 0, &mut rng);
        let mut arena = DecoderArena::<Gf256>::try_new(1, 2, 0).unwrap();
        arena.seed_all_messages(0, &g);
        let _ = arena.emit_packed_row_into(0, Some(0.0), &mut rng, &mut Vec::new());
    }

    #[test]
    fn source_to_sink_completes_and_decodes() {
        let mut rng = StdRng::seed_from_u64(11);
        let g = Generation::<Gf2>::random(8, 4, &mut rng);
        let mut arena = DecoderArena::<Gf2>::try_new(2, 8, 4).unwrap();
        arena.seed_all_messages(0, &g);
        assert!(arena.is_complete(0));
        assert_eq!(arena.innovative_count(0), 0, "seeding is not traffic");
        let mut buf = vec![0; arena.row_bytes()];
        let mut sent = 0;
        while !arena.is_complete(1) {
            assert!(arena.emit_packed_row_into(0, None, &mut rng, &mut buf));
            arena.receive_packed_slice(1, &buf);
            sent += 1;
            assert!(sent < 200, "GF(2) source-to-sink failed to converge");
        }
        assert_eq!(arena.decode(1).unwrap(), g.messages());
        assert_eq!(arena.innovative_count(1), 8);
    }

    #[test]
    fn empty_node_emits_nothing() {
        let arena = DecoderArena::<Gf256>::try_new(1, 3, 1).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let mut buf = [1, 2, 3, 4];
        assert!(!arena.emit_packed_row_into(0, None, &mut rng, &mut buf));
        assert_eq!(buf, [1, 2, 3, 4], "a failed emit leaves the row alone");
    }

    #[test]
    fn receive_packed_slice_leaves_the_callers_row() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = Generation::<Gf256>::random(2, 1, &mut rng);
        let mut arena = DecoderArena::<Gf256>::try_new(2, 2, 1).unwrap();
        arena.seed_all_messages(0, &g);
        let mut buf = vec![0; arena.row_bytes()];
        assert!(arena.emit_packed_row_into(0, None, &mut rng, &mut buf));
        let before = buf.clone();
        assert!(arena.receive_packed_slice(1, &buf).is_innovative());
        assert_eq!(buf, before, "the reduction ran in the arena's scratch");
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn shape_mismatch_panics() {
        let mut arena = DecoderArena::<Gf256>::try_new(1, 3, 1).unwrap();
        let _ = arena.receive_packed_slice(0, &[1, 2]);
    }

    /// Every stored row of node `v`, coefficients and settled payload.
    fn stored_rows(arena: &DecoderArena<Gf256>, v: usize) -> Vec<Vec<u8>> {
        (0..arena.rank(v))
            .map(|i| {
                let mut row = Vec::new();
                arena.basis().copy_packed_row_into(v, i, &mut row);
                row
            })
            .collect()
    }

    /// A row delivered to a node that is already full, through the arena
    /// (the insert answers) and through a shard (answered before the row
    /// is copied): redundant, counted once, and the node's stored bytes
    /// stay as they were.
    #[test]
    fn a_full_receiver_answers_from_its_rank() {
        let mut rng = StdRng::seed_from_u64(31);
        let (k, r) = (4, 3);
        let g = Generation::<Gf256>::random(k, r, &mut rng);
        let mut arena = DecoderArena::<Gf256>::try_new(3, k, r).unwrap();
        arena.seed_all_messages(0, &g);
        let mut buf = vec![0; arena.row_bytes()];
        while !arena.is_complete(1) {
            assert!(arena.emit_packed_row_into(0, None, &mut rng, &mut buf));
            arena.receive_packed_slice(1, &buf);
        }
        // Node 2 stays empty, so the shard split below has two ranges.
        let before = stored_rows(&arena, 1);
        assert!(arena.emit_packed_row_into(0, None, &mut rng, &mut buf));
        let redundant = arena.redundant_count(1);
        assert_eq!(arena.receive_packed_slice(1, &buf), Insertion::Redundant);
        assert_eq!(arena.redundant_count(1), redundant + 1);
        assert_eq!(stored_rows(&arena, 1), before, "arena");
        {
            let mut shards = arena.shards_mut(&[(0, 2), (2, 3)]);
            assert_eq!(
                shards[0].receive_packed_slice(1, &buf),
                Insertion::Redundant
            );
        }
        assert_eq!(arena.redundant_count(1), redundant + 2);
        assert_eq!(arena.innovative_count(1), k as u64);
        assert_eq!(stored_rows(&arena, 1), before, "shard");
        assert_eq!(arena.decode(1).unwrap(), g.messages());
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
        let mut arena = DecoderArena::<Gf256>::try_new(3, k, r).unwrap();
        arena.seed_all_messages(0, &g);
        for msg in [1, 3, 4] {
            arena.seed_message(1, &g, msg);
        }
        let mut buf = vec![0; arena.row_bytes()];
        let mut forwarded = 0;
        for (seed, density) in [None, Some(0.4), Some(1e-9)].into_iter().enumerate() {
            let mut full = StdRng::seed_from_u64(seed as u64);
            let mut skip = full.clone();
            for step in 0..40 {
                let node = step % 3;
                let emitted = arena.emit_packed_row_into(node, density, &mut full, &mut buf);
                assert_eq!(arena.skip_emit(node, density, &mut skip), emitted);
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
                let emitted = shard.emit_packed_row_into(node, density, &mut full, &mut buf);
                assert_eq!(shard.skip_emit(node, density, &mut skip), emitted);
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
        let mut serial = DecoderArena::<Gf256>::try_new(nodes, k, r).unwrap();
        let mut sharded = DecoderArena::<Gf256>::try_new(nodes, k, r).unwrap();
        for v in 0..nodes {
            serial.seed_message(v, &g, v % k);
            sharded.seed_message(v, &g, v % k);
        }
        let mut rng_a = StdRng::seed_from_u64(8);
        let mut rng_b = StdRng::seed_from_u64(8);
        let mut traffic = StdRng::seed_from_u64(5);
        let mut buf_a = vec![0; serial.row_bytes()];
        let mut buf_b = vec![0; serial.row_bytes()];
        {
            let mut shards = sharded.shards_mut(&[(0, 2), (2, nodes)]);
            for _ in 0..300 {
                let from = traffic.gen_range(0..nodes);
                let to = (from + 1 + traffic.gen_range(0..nodes - 1)) % nodes;
                let density = traffic.gen_bool(0.5).then_some(0.3);
                let a = serial.emit_packed_row_into(from, density, &mut rng_a, &mut buf_a);
                let sf = shards
                    .iter_mut()
                    .position(|s| s.node_range().contains(&from))
                    .unwrap();
                let b = shards[sf].emit_packed_row_into(from, density, &mut rng_b, &mut buf_b);
                assert_eq!(a, b, "emit disagreement");
                assert_eq!(buf_a, buf_b, "emitted bytes diverged");
                if !a {
                    continue;
                }
                let want = serial.receive_packed_slice(to, &buf_a);
                let st = shards
                    .iter_mut()
                    .position(|s| s.node_range().contains(&to))
                    .unwrap();
                let got = shards[st].receive_packed_slice(to, &buf_b);
                assert_eq!(got, want, "verdict diverged");
            }
        }
        for v in 0..nodes {
            assert_eq!(serial.rank(v), sharded.rank(v));
            assert_eq!(serial.innovative_count(v), sharded.innovative_count(v));
            assert_eq!(serial.redundant_count(v), sharded.redundant_count(v));
            assert_eq!(serial.decode(v), sharded.decode(v));
        }
    }
}
