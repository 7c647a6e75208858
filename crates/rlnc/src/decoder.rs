//! The progressive Gauss–Jordan decoder: a node's stored equations.
//!
//! A [`Decoder`] is the single-sink library view of the workspace's one
//! RLNC store: node 0 of a one-node [`BasisArena`] behind the [`Packet`]
//! API, with typed shape errors where untrusted packets enter and its own
//! reception counters. A reception's verdict is the store's own
//! [`Insertion`]. Receptions and
//! helpfulness queries ([`Decoder::would_help`],
//! [`Decoder::is_helpful_node`]) read and reduce only the `k`-symbol
//! coefficient headers — allocation-free through reusable scratch — while
//! payload elimination is logged and replayed in fused batches when
//! [`Decoder::decode`], a recoder emit, or an explicit [`Decoder::settle`]
//! actually observes payload bytes. Verdicts and decoded bytes are
//! bit-identical to eager elimination (the differential suites pin this
//! against the scalar oracle); only the *when* and the *grouping* of the
//! payload arithmetic change.

use std::cell::RefCell;
use std::error::Error;
use std::fmt;

use ag_gf::SlabField;

use ag_linalg::{BasisArena, Insertion};

use crate::generation::Generation;
use crate::packet::Packet;

/// A packet whose shape does not match the decoder it was delivered to.
///
/// Returned by [`Decoder::try_receive`] *before* any elimination runs, so a
/// malformed packet can never corrupt (or panic out of) a half-updated
/// basis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodingError {
    /// The packet was coded over a different generation size than the
    /// decoder's `k`.
    GenerationSizeMismatch {
        /// The decoder's generation size.
        expected: usize,
        /// The packet's coefficient count.
        got: usize,
    },
    /// The packet's payload length differs from the decoder's `r`.
    PayloadLengthMismatch {
        /// The decoder's payload length in symbols.
        expected: usize,
        /// The packet's payload length in symbols.
        got: usize,
    },
}

impl fmt::Display for CodingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            CodingError::GenerationSizeMismatch { expected, got } => write!(
                f,
                "packet generation size mismatch: coded over {got} messages, \
                 decoder expects {expected}"
            ),
            CodingError::PayloadLengthMismatch { expected, got } => write!(
                f,
                "packet payload length mismatch: {got} symbols, decoder \
                 expects {expected}"
            ),
        }
    }
}

impl Error for CodingError {}

/// A node's RLNC state: the matrix of stored linear equations.
///
/// The decoder accepts [`Packet`]s, tracks its rank, answers the paper's
/// helpfulness queries, and solves for the source messages once the rank
/// reaches `k`. Internally the equations live in a one-node
/// [`BasisArena`] — the same packed store, growing with the rank, that a
/// simulation holds for all its nodes — so every elimination runs on the
/// [`SlabField`] bulk kernels.
///
/// # Examples
///
/// ```
/// use ag_gf::Gf256;
/// use ag_rlnc::{Decoder, Insertion, Packet};
///
/// let mut d = Decoder::new(2, 1);
/// let p1 = Packet::new(vec![Gf256::new(1), Gf256::new(1)], vec![Gf256::new(7)]);
/// assert_eq!(d.try_receive(&p1), Ok(Insertion::Innovative));
/// assert_eq!(d.try_receive(&p1), Ok(Insertion::Redundant));
/// assert_eq!(d.rank(), 1);
/// assert!(!d.is_complete());
/// ```
#[derive(Debug, Clone)]
pub struct Decoder<F> {
    /// The store; this decoder is its node 0.
    pub(crate) basis: BasisArena<F>,
    k: usize,
    payload_len: usize,
    innovative: u64,
    redundant: u64,
    /// One row wide from construction on: a packet packed for an insert,
    /// a coefficient prefix for a probe, or an emit's recoding factors.
    pub(crate) scratch: RefCell<Vec<u8>>,
}

impl<F: SlabField> Decoder<F> {
    /// An empty decoder for a generation of `k` messages of `payload_len`
    /// symbols.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or on the [`crate::ArenaError`] of
    /// [`BasisArena::try_new`] — the one panicking constructor of the
    /// store, kept because this signature is frozen.
    #[must_use]
    pub fn new(k: usize, payload_len: usize) -> Self {
        assert!(k > 0, "generation size must be positive");
        match BasisArena::try_new(1, k, k + payload_len) {
            Ok(basis) => Decoder {
                scratch: RefCell::new(Vec::with_capacity(basis.row_bytes())),
                basis,
                k,
                payload_len,
                innovative: 0,
                redundant: 0,
            },
            #[expect(
                clippy::panic,
                reason = "documented panicking constructor over BasisArena::try_new"
            )]
            Err(e) => panic!("{e}"),
        }
    }

    /// A decoder pre-seeded with *all* messages of the generation (a source
    /// that holds everything, e.g. for single-source broadcast workloads).
    #[must_use]
    pub fn with_all_messages(generation: &Generation<F>) -> Self {
        let mut d = Decoder::new(generation.k(), generation.message_len());
        for i in 0..generation.k() {
            d.seed_message(generation, i);
        }
        d
    }

    /// Seeds the decoder with source message `index` of the generation:
    /// inserts the unit equation `e_index · x = x_index`. Seeding counts as
    /// neither innovative nor redundant traffic.
    ///
    /// # Panics
    ///
    /// Panics if `index >= k` or the generation shape differs from the
    /// decoder's.
    pub fn seed_message(&mut self, generation: &Generation<F>, index: usize) {
        assert_eq!(generation.k(), self.k, "generation size mismatch");
        assert_eq!(
            generation.message_len(),
            self.payload_len,
            "payload length mismatch"
        );
        let row = self.scratch.get_mut();
        generation.seed_row_into(index, row);
        let _ = self.basis.insert_packed_mut(0, row);
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

    /// Current rank (the "dimension of the node" in the paper).
    #[must_use]
    pub fn rank(&self) -> usize {
        self.basis.rank(0)
    }

    /// True once the node can decode every message (rank = k).
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.basis.is_full(0)
    }

    /// Number of innovative receptions so far (excluding seeds).
    #[must_use]
    pub fn innovative_count(&self) -> u64 {
        self.innovative
    }

    /// Number of redundant receptions so far.
    #[must_use]
    pub fn redundant_count(&self) -> u64 {
        self.redundant
    }

    /// Counts one reception by its verdict, and passes the verdict on.
    fn record(&mut self, verdict: Insertion) -> Insertion {
        match verdict {
            Insertion::Innovative => self.innovative += 1,
            Insertion::Redundant => self.redundant += 1,
        }
        verdict
    }

    /// Is `packet` coded for this decoder's `(k, r)`?
    fn check_shape(&self, packet: &Packet<F>) -> Result<(), CodingError> {
        if packet.generation_size() != self.k() {
            return Err(CodingError::GenerationSizeMismatch {
                expected: self.k(),
                got: packet.generation_size(),
            });
        }
        if packet.payload_len() != self.payload_len() {
            return Err(CodingError::PayloadLengthMismatch {
                expected: self.payload_len(),
                got: packet.payload_len(),
            });
        }
        Ok(())
    }

    /// Delivers a packet and reports whether it was helpful, rejecting
    /// shape mismatches with a typed error — the decoder's state (basis,
    /// rank, counters) is untouched on `Err`.
    /// The packet is packed into a reusable row buffer and reduced there,
    /// so a reception performs no heap allocation beyond the growth of the
    /// stored rows themselves.
    ///
    /// # Errors
    ///
    /// [`CodingError::GenerationSizeMismatch`] or
    /// [`CodingError::PayloadLengthMismatch`] when the packet was coded for
    /// a different `(k, r)` than this decoder's.
    pub fn try_receive(&mut self, packet: &Packet<F>) -> Result<Insertion, CodingError> {
        self.check_shape(packet)?;
        let row = self.scratch.get_mut();
        row.clear();
        packet.write_packed_row_into(row);
        let verdict = self.basis.insert_packed_mut(0, row);
        Ok(self.record(verdict))
    }

    /// Delivers an already-packed augmented row (the output of
    /// [`crate::Recoder::emit_packed_row`]) with zero format conversion.
    /// The row is reduced in an internal reusable buffer, so the caller
    /// keeps (and can recycle) its bytes, and a *redundant* reception costs
    /// zero heap allocations. Elimination, rank growth and the
    /// innovative/redundant counters behave exactly as
    /// [`Decoder::try_receive`] on the equivalent [`Packet`].
    ///
    /// # Panics
    ///
    /// Panics if the row's byte length does not match this decoder's
    /// `(k + r) · SYMBOL_BYTES` shape.
    pub fn receive_packed_slice(&mut self, row: &[u8]) -> Insertion {
        let verdict = self.basis.insert_packed_slice(0, row);
        self.record(verdict)
    }

    /// Would this packet be helpful, without consuming it? `false` for
    /// every packet [`Decoder::try_receive`] would reject: a packet coded
    /// for another `(k, r)` cannot help this decoder. Allocation-free.
    #[must_use]
    pub fn would_help(&self, packet: &Packet<F>) -> bool {
        if self.check_shape(packet).is_err() {
            return false;
        }
        let mut prefix = self.scratch.borrow_mut();
        prefix.clear();
        F::pack_into(packet.coefficients(), &mut prefix);
        self.basis.would_be_innovative_packed(0, &prefix)
    }

    /// The paper's Definition 3: is node `other` a *helpful node* for
    /// `self`? True iff `other`'s subspace is not contained in `self`'s,
    /// i.e. a random combination from `other` **can** be innovative here.
    /// Touches only coefficient headers on both sides.
    #[must_use]
    pub fn is_helpful_node(&self, other: &Decoder<F>) -> bool {
        other
            .basis
            .coeff_rows(0)
            .any(|row| self.basis.would_be_innovative_packed(0, row))
    }

    /// Forces the deferred payload elimination to settle now instead of at
    /// the next read (recode emit, [`Decoder::decode`]). Lets a caller
    /// schedule the batched replay — one blocked panel application when the
    /// pending suffix is deep and dense — during idle time off the receive
    /// path. Idempotent and invisible to results.
    pub fn settle(&self) {
        self.basis.settle(0);
    }

    /// Solves the system once complete; `None` before rank `k`.
    ///
    /// Row `i` of the output is source message `x_i`.
    #[must_use]
    pub fn decode(&self) -> Option<Vec<Vec<F>>> {
        self.basis.solution(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ag_gf::{Field, Gf2, Gf256};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn receive<F: SlabField>(d: &mut Decoder<F>, packet: Packet<F>) -> Insertion {
        d.try_receive(&packet).expect("shape-valid packet")
    }

    fn pkt(coeffs: &[u8], payload: &[u8]) -> Packet<Gf256> {
        Packet::new(
            coeffs.iter().map(|&c| Gf256::new(c)).collect(),
            payload.iter().map(|&p| Gf256::new(p)).collect(),
        )
    }

    /// A packed row with GF(2) high-bit garbage is received as the
    /// canonical row it denotes: same verdicts, same decoded messages
    /// (those were always right) and the same bytes on the wire when the
    /// node recodes. Every nonzero GF(2) coefficient is 1 and takes the XOR
    /// path, which used to pass stored garbage through.
    #[test]
    fn noncanonical_packed_row_is_received_as_its_canonical_form() {
        use crate::Recoder;
        use ag_gf::Gf2;
        let (mut dirty, mut clean) = (Decoder::<Gf2>::new(2, 1), Decoder::<Gf2>::new(2, 1));
        assert!(dirty
            .receive_packed_slice(&[0x03, 0xFE, 0x81])
            .is_innovative());
        assert!(clean
            .receive_packed_slice(&[0x01, 0x00, 0x01])
            .is_innovative());
        for seed in 0..64 {
            let emit = |d: &Decoder<Gf2>| {
                Recoder::new(d).emit_packed_row(&mut StdRng::seed_from_u64(seed))
            };
            assert_eq!(emit(&dirty), emit(&clean), "recoded bytes, seed {seed}");
        }
        assert!(!dirty
            .receive_packed_slice(&[0xFF, 0x10, 0x03])
            .is_innovative());
        for d in [&mut dirty, &mut clean] {
            assert!(d.receive_packed_slice(&[0xA0, 0x51, 0x33]).is_innovative());
        }
        assert!(dirty.is_complete());
        assert_eq!(dirty.decode(), clean.decode());
    }

    #[test]
    fn seeded_source_is_complete() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = Generation::<Gf256>::random(4, 2, &mut rng);
        let d = Decoder::with_all_messages(&g);
        assert!(d.is_complete());
        assert_eq!(d.decode().unwrap(), g.messages());
        assert_eq!(d.innovative_count(), 0, "seeding is not traffic");
    }

    #[test]
    fn partial_seed_partial_rank() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = Generation::<Gf256>::random(5, 1, &mut rng);
        let mut d = Decoder::new(5, 1);
        d.seed_message(&g, 0);
        d.seed_message(&g, 3);
        assert_eq!(d.rank(), 2);
        assert!(!d.is_complete());
        assert!(d.decode().is_none());
    }

    #[test]
    fn reception_counters() {
        let mut d = Decoder::new(2, 1);
        assert!(receive(&mut d, pkt(&[1, 0], &[9])).is_innovative());
        assert!(!receive(&mut d, pkt(&[2, 0], &[18])).is_innovative()); // dependent
        assert!(receive(&mut d, pkt(&[0, 1], &[5])).is_innovative());
        assert_eq!(d.innovative_count(), 2);
        assert_eq!(d.redundant_count(), 1);
        assert!(d.is_complete());
    }

    #[test]
    fn decode_recovers_exact_messages() {
        // x0 = [7], x1 = [5]; equations x0+x1=[2] and x1=[5] (GF(256): XOR).
        let mut d = Decoder::new(2, 1);
        receive(&mut d, pkt(&[1, 1], &[2]));
        receive(&mut d, pkt(&[0, 1], &[5]));
        let decoded = d.decode().unwrap();
        assert_eq!(decoded, vec![vec![Gf256::new(7)], vec![Gf256::new(5)]]);
    }

    #[test]
    fn helpful_node_definition() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = Generation::<Gf256>::random(3, 0, &mut rng);
        let full = Decoder::with_all_messages(&g);
        let mut partial = Decoder::new(3, 0);
        partial.seed_message(&g, 0);
        // Full node helps partial; partial does not help full.
        assert!(partial.is_helpful_node(&full));
        assert!(!full.is_helpful_node(&partial));
        // Equal ranks with identical subspaces: unhelpful both ways.
        let mut p2 = Decoder::new(3, 0);
        p2.seed_message(&g, 0);
        assert!(!partial.is_helpful_node(&p2));
        assert!(!p2.is_helpful_node(&partial));
    }

    #[test]
    fn would_help_is_consistent_with_receive() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut d = Decoder::<Gf2>::new(6, 0);
        for _ in 0..40 {
            let coeffs: Vec<Gf2> = (0..6).map(|_| Gf2::random(&mut rng)).collect();
            let p = Packet::new(coeffs, vec![]);
            let predicted = d.would_help(&p);
            let got = receive(&mut d, p).is_innovative();
            assert_eq!(predicted, got);
        }
    }

    #[test]
    fn zero_packet_is_redundant() {
        let mut d = Decoder::<Gf256>::new(3, 0);
        let z = Packet::new(vec![Gf256::ZERO; 3], vec![]);
        assert_eq!(receive(&mut d, z), Insertion::Redundant);
    }

    /// Regression test for the borrowing receive path: a redundant packed
    /// row delivered through [`Decoder::receive_packed_slice`] must leave
    /// the basis bit-identical (only the redundancy counter moves).
    #[test]
    fn receive_packed_slice_redundant_row_leaves_basis_untouched() {
        let mut d = Decoder::<Gf256>::new(3, 2);
        let p1 = pkt(&[1, 2, 3], &[7, 9]);
        let p2 = pkt(&[0, 1, 1], &[4, 5]);
        assert_eq!(
            d.receive_packed_slice(&p1.to_packed_row()),
            Insertion::Innovative
        );
        assert_eq!(
            d.receive_packed_slice(&p2.to_packed_row()),
            Insertion::Innovative
        );
        let stored_rows = |d: &Decoder<Gf256>| -> Vec<Vec<u8>> {
            (0..d.rank())
                .map(|i| {
                    let mut row = Vec::new();
                    d.basis.copy_packed_row_into(0, i, &mut row);
                    row
                })
                .collect()
        };
        let before_rows = stored_rows(&d);

        // The sum of the two inserted equations: redundant by construction.
        let dep = pkt(&[1, 3, 2], &[3, 12]);
        assert_eq!(
            d.receive_packed_slice(&dep.to_packed_row()),
            Insertion::Redundant
        );
        assert_eq!(d.rank(), 2);
        assert_eq!(d.redundant_count(), 1);
        assert_eq!(
            stored_rows(&d),
            before_rows,
            "redundant row mutated the basis"
        );
    }

    /// `would_help` must answer `false`, without panicking, for a packet
    /// `try_receive` rejects. The in-shape twin of each `bad` packet below
    /// *is* helpful, so a `false` is the shape check and not the span.
    fn assert_would_help_rejects(bad: Packet<Gf256>) {
        let mut d = Decoder::<Gf256>::new(3, 1);
        receive(&mut d, pkt(&[1, 0, 0], &[9]));
        assert!(d.would_help(&pkt(&[0, 1, 0], &[5])), "in-shape twin helps");
        assert!(d.clone().try_receive(&bad).is_err());
        assert!(!d.would_help(&bad));
    }

    /// Too few coefficients must not reach the basis's prefix assert.
    #[test]
    fn would_help_rejects_fewer_than_k_coefficients() {
        assert_would_help_rejects(pkt(&[0, 1], &[5]));
    }

    /// Extra coefficients must not be truncated to the first `k`.
    #[test]
    fn would_help_rejects_more_than_k_coefficients() {
        assert_would_help_rejects(pkt(&[0, 1, 0, 0], &[5]));
    }

    /// The payload length is part of the shape, though a probe never reads it.
    #[test]
    fn would_help_rejects_payload_length_mismatch() {
        assert_would_help_rejects(pkt(&[0, 1, 0], &[5, 6]));
    }

    /// Regression test for the typed-error path: a payload-length-mismatched
    /// packet must be rejected with [`CodingError::PayloadLengthMismatch`]
    /// before elimination, leaving the decoder bit-identical — previously
    /// this was only an assert that aborted the whole simulation.
    #[test]
    fn try_receive_rejects_mismatches_without_corrupting_state() {
        let mut d = Decoder::<Gf256>::new(2, 1);
        receive(&mut d, pkt(&[1, 1], &[2]));
        let before_rank = d.rank();
        let before = d.clone();

        let wrong_payload = pkt(&[0, 1], &[5, 6]); // r = 2, decoder expects 1
        assert_eq!(
            d.try_receive(&wrong_payload),
            Err(CodingError::PayloadLengthMismatch {
                expected: 1,
                got: 2
            })
        );
        let wrong_k = pkt(&[0, 1, 1], &[5]); // k = 3, decoder expects 2
        assert_eq!(
            d.try_receive(&wrong_k),
            Err(CodingError::GenerationSizeMismatch {
                expected: 2,
                got: 3
            })
        );
        assert_eq!(d.rank(), before_rank);
        assert_eq!(d.innovative_count(), before.innovative_count());
        assert_eq!(d.redundant_count(), before.redundant_count());

        // The decoder still works normally afterwards.
        assert_eq!(
            d.try_receive(&pkt(&[0, 1], &[5])),
            Ok(Insertion::Innovative)
        );
        assert_eq!(
            d.decode().unwrap(),
            vec![vec![Gf256::new(7)], vec![Gf256::new(5)]]
        );
        assert!(CodingError::PayloadLengthMismatch {
            expected: 1,
            got: 2
        }
        .to_string()
        .contains("payload length mismatch"));
    }
}
