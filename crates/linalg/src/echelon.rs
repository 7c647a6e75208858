//! [`EchelonBasis`]: the single-sink view of the per-node store.
//!
//! The store — the coefficient/payload split, the elimination log and its
//! replay — is implemented once, in the crate-private `node` module, and a
//! node of it is assembled in two places only: a [`BasisArena`] and its
//! shards. An [`EchelonBasis`] is node 0 of a one-node arena, as an
//! `ag_rlnc::Decoder` is. What it adds is the
//! single-sink contract: it learns its row length from the first stored
//! row (rebuilding its still-empty arena when a row of another length
//! arrives) and rejects malformed rows with a typed [`BasisError`] where
//! the arena, whose row length is fixed up front, asserts.

use std::error::Error;
use std::fmt;

use ag_gf::SlabField;

use crate::arena::BasisArena;
use crate::node::Insertion;

/// A malformed row rejected by [`EchelonBasis::try_insert`] before any
/// elimination ran — the basis is untouched when one of these is returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BasisError {
    /// The row has fewer entries than the pivot width.
    RowTooShort {
        /// Entries in the offending row.
        len: usize,
        /// Required minimum (the basis's pivot width).
        pivot_width: usize,
    },
    /// The row's length differs from the rows already stored.
    LengthMismatch {
        /// Symbols per stored row.
        expected: usize,
        /// Symbols in the offending row.
        got: usize,
    },
    /// A packed row's byte length is not a multiple of the symbol size.
    Misaligned {
        /// Byte length of the offending slab.
        len: usize,
        /// Bytes per symbol for this field.
        symbol_bytes: usize,
    },
}

impl fmt::Display for BasisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            BasisError::RowTooShort { len, pivot_width } => {
                write!(
                    f,
                    "row of length {len} shorter than pivot width {pivot_width}"
                )
            }
            BasisError::LengthMismatch { expected, got } => write!(
                f,
                "row has {got} symbols but stored rows have {expected} \
                 (all rows in a basis must have equal length)"
            ),
            BasisError::Misaligned { len, symbol_bytes } => write!(
                f,
                "packed row of {len} bytes is not a multiple of the \
                 {symbol_bytes}-byte symbol size"
            ),
        }
    }
}

impl Error for BasisError {}

/// A growing row-echelon basis of vectors of fixed width over `F`.
///
/// Rows may carry an *augmented tail* (e.g. RLNC payload symbols) beyond the
/// `pivot_width` leading coefficients: only the leading `pivot_width`
/// entries participate in pivot selection, and the tails are not even
/// eliminated eagerly: the elimination applied to the coefficient
/// prefix is logged and replayed onto the payloads only when payload bytes
/// are observed (row-wise or as one blocked panel multiply, picked per flush
/// from the pending suffix's shape; both produce the same bytes).
/// Observed state (verdicts, ranks, materialized rows, solutions) is
/// bit-identical to eager Gauss–Jordan decoding.
///
/// Inserting a row costs `O(rank · pivot_width)` symbol operations over the
/// coefficient slab plus one payload `memcpy`; the deferred payload
/// elimination is paid once per stored row when payloads are next observed,
/// in fused multi-row kernel passes. The coefficient rows and scratch are
/// allocated at construction and again, at their full-rank size, when the
/// first row of a new length arrives; the payload rows once, at their
/// full-rank footprint, by the first stored row. Nothing after that
/// allocates. This is node 0 of a one-node [`BasisArena`].
///
/// # Examples
///
/// ```
/// use ag_gf::{Field, Gf256};
/// use ag_linalg::{EchelonBasis, Insertion};
///
/// let mut basis = EchelonBasis::<Gf256>::new(3);
/// let e0 = vec![Gf256::ONE, Gf256::ZERO, Gf256::ZERO];
/// assert_eq!(basis.try_insert(e0.clone()), Ok(Insertion::Innovative));
/// assert_eq!(basis.try_insert(e0), Ok(Insertion::Redundant));
/// assert_eq!(basis.rank(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct EchelonBasis<F> {
    /// The store; this basis is its node 0. While it is empty its rows are
    /// as long as the last row offered (the pivot prefix before any).
    arena: BasisArena<F>,
}

/// Logical-state equality: two bases are equal iff they store the same
/// rows with the same pivots. Payloads are compared materialized (both
/// sides are settled first); scratch buffers and log histories never
/// participate.
impl<F: SlabField> PartialEq for EchelonBasis<F> {
    fn eq(&self, other: &Self) -> bool {
        self.pivot_width() == other.pivot_width()
            && self.row_bytes() == other.row_bytes()
            && self.arena.head(0) == other.arena.head(0)
            && self.rows() == other.rows()
    }
}

impl<F: SlabField> Eq for EchelonBasis<F> {}

impl<F: SlabField> EchelonBasis<F> {
    /// Creates an empty basis whose rows have `pivot_width` leading
    /// coefficient entries. Allocates the head (`pivot_width²` symbols and
    /// a 4-byte pivot entry per row) and scratch; payload storage waits
    /// for the first row.
    ///
    /// # Panics
    ///
    /// Panics if a head of that width cannot be addressed.
    #[must_use]
    pub fn new(pivot_width: usize) -> Self {
        EchelonBasis {
            arena: Self::one_node(pivot_width, pivot_width),
        }
    }

    /// The one-node store for rows of `row_elems` symbols.
    fn one_node(pivot_width: usize, row_elems: usize) -> BasisArena<F> {
        BasisArena::try_new(1, pivot_width, row_elems)
            .expect("one node's full-rank store for rows that exist is addressable")
    }

    /// The number of independent rows stored so far.
    #[must_use]
    pub fn rank(&self) -> usize {
        self.arena.rank(0)
    }

    /// The pivot (coefficient) width rows must have at minimum.
    #[must_use]
    pub fn pivot_width(&self) -> usize {
        self.arena.pivot_width()
    }

    /// True once the basis spans the full coefficient space.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.arena.is_full(0)
    }

    /// Bytes per stored row (0 before the first row is stored).
    #[must_use]
    pub fn row_bytes(&self) -> usize {
        if self.rank() == 0 {
            0
        } else {
            self.arena.row_bytes()
        }
    }

    /// Iterates over the stored rows' reduced coefficient prefixes, in
    /// insertion order. Payloads are untouched — this is the hot-path view
    /// for helpfulness scans.
    pub fn coeff_rows(&self) -> impl Iterator<Item = &[u8]> {
        self.arena.coeff_rows(0)
    }

    /// Materializes full row `i` (coefficients + reduced payload) into
    /// `out`, replaying any pending payload elimination first.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rank`.
    pub fn copy_packed_row_into(&self, i: usize, out: &mut Vec<u8>) {
        self.arena.copy_packed_row_into(0, i, out);
    }

    /// Row `i` decoded back to field elements (materialized).
    ///
    /// # Panics
    ///
    /// Panics if `i >= rank`.
    #[must_use]
    pub fn row(&self, i: usize) -> Vec<F> {
        let mut packed = Vec::new();
        self.copy_packed_row_into(i, &mut packed);
        F::unpack(&packed)
    }

    /// All stored rows, materialized as element vectors. Prefer
    /// [`EchelonBasis::coeff_rows`] on hot paths that only need headers.
    #[must_use]
    pub fn rows(&self) -> Vec<Vec<F>> {
        (0..self.rank()).map(|i| self.row(i)).collect()
    }

    /// Accumulates the linear combination `Σᵢ factors[i] · row_i` of the
    /// stored rows into `out` (`out += …`), materializing payloads first.
    /// `factors` holds one packed symbol per stored row; zero factors are
    /// skipped. This is the recoder's emit kernel: two fused gathers (one
    /// over the coefficient slab, one over the payload slab) per packet.
    ///
    /// # Panics
    ///
    /// Panics if `factors` is not exactly `rank` packed symbols or `out` is
    /// not exactly [`EchelonBasis::row_bytes`] long.
    pub fn accumulate_rows_into(&self, factors: &[u8], out: &mut [u8]) {
        self.arena.accumulate_rows_into(0, factors, out);
    }

    /// Forces the deferred payload elimination to settle now instead of at
    /// the next read. Useful for callers that want the (possibly blocked)
    /// replay off their critical path — e.g. during idle time between a
    /// completing receive stream and the eventual [`EchelonBasis::solution`]
    /// call — and for benchmarks that time the flush stage in isolation.
    /// Idempotent, and invisible to results: every read path flushes on
    /// demand anyway.
    pub fn settle(&self) {
        self.arena.settle(0);
    }

    /// Inserts an equation, rejecting malformed rows with a typed error
    /// *before* any elimination runs — the basis is unchanged on `Err`.
    ///
    /// # Errors
    ///
    /// [`BasisError::RowTooShort`] when `row.len() < pivot_width`;
    /// [`BasisError::LengthMismatch`] when the length differs from the rows
    /// already stored.
    pub fn try_insert(&mut self, row: Vec<F>) -> Result<Insertion, BasisError> {
        let mut row = F::pack(&row);
        self.fit(row.len())?;
        Ok(self.arena.insert_packed_mut(0, &mut row))
    }

    /// Like [`EchelonBasis::try_insert`] but *borrowing* an already-packed
    /// row slab: the bytes are copied into a reusable scratch buffer and
    /// reduced there, so no insert after the first stored row allocates —
    /// the contract the engine's redundant-reception path relies on.
    ///
    /// # Errors
    ///
    /// The [`EchelonBasis::try_insert`] errors, plus
    /// [`BasisError::Misaligned`] when `row.len()` is not a multiple of
    /// [`SlabField::SYMBOL_BYTES`]. The basis (its logical state — scratch
    /// is transient) is unchanged on `Err` *and* on a redundant insert.
    // ag-lint: hot-path
    pub fn try_insert_packed_slice(&mut self, row: &[u8]) -> Result<Insertion, BasisError> {
        self.fit(row.len())?;
        Ok(self.arena.insert_packed_slice(0, row))
    }

    /// Shape-checks a packed row of `bytes` bytes and, while the basis is
    /// empty, rebuilds the arena for rows of that length: the first stored
    /// row is what fixes it.
    fn fit(&mut self, bytes: usize) -> Result<(), BasisError> {
        if !bytes.is_multiple_of(F::SYMBOL_BYTES) {
            return Err(BasisError::Misaligned {
                len: bytes,
                symbol_bytes: F::SYMBOL_BYTES,
            });
        }
        let (elems, pivot_width) = (bytes / F::SYMBOL_BYTES, self.pivot_width());
        if elems < pivot_width {
            return Err(BasisError::RowTooShort {
                len: elems,
                pivot_width,
            });
        }
        let expected = self.arena.row_bytes() / F::SYMBOL_BYTES;
        if elems != expected {
            if self.rank() > 0 {
                return Err(BasisError::LengthMismatch {
                    expected,
                    got: elems,
                });
            }
            self.arena = Self::one_node(pivot_width, elems);
        }
        Ok(())
    }

    /// Would `row` be innovative, without mutating the basis?
    ///
    /// This implements the paper's helpfulness check: node `x` is a
    /// *helpful node* for node `y` iff some vector in `x`'s subspace is
    /// independent of `y`'s subspace. Only the coefficient prefix is
    /// consulted, through reusable scratch buffers — the probe is
    /// allocation-free and never touches payload state.
    ///
    /// # Panics
    ///
    /// Panics if `row` is shorter than the pivot prefix.
    #[must_use]
    pub fn would_be_innovative(&self, row: &[F]) -> bool {
        let prefix = &row[..self.pivot_width()];
        self.arena.probe(0, |p| F::pack_into(prefix, p))
    }

    /// Packed-slab variant of [`EchelonBasis::would_be_innovative`]; `row`
    /// may be a full packed row — only the pivot prefix is read.
    ///
    /// # Panics
    ///
    /// Panics if `row` is shorter than the packed pivot prefix.
    #[must_use]
    pub fn would_be_innovative_packed(&self, row: &[u8]) -> bool {
        self.arena.would_be_innovative_packed(0, row)
    }

    /// True iff `other`'s span contains a vector outside `self`'s span,
    /// i.e. `other` (as a node) is helpful to `self`. Touches only
    /// coefficient headers on both sides.
    #[must_use]
    pub fn is_helped_by(&self, other: &EchelonBasis<F>) -> bool {
        other
            .coeff_rows()
            .any(|r| self.would_be_innovative_packed(r))
    }

    /// Once full, extracts the solution: row `i` of the result is the tail
    /// (augmented part) of the equation whose coefficient vector is the
    /// `i`-th unit vector. Returns `None` while rank < pivot width.
    ///
    /// With RLNC augmentation the tails are exactly the decoded source
    /// messages. This is where deferred payload elimination is settled:
    /// one blocked replay of the log (fused multi-row passes) materializes
    /// every tail, then the rows are read out in pivot order.
    #[must_use]
    pub fn solution(&self) -> Option<Vec<Vec<F>>> {
        self.arena.solution(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ag_gf::{Field, Gf2, Gf256};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn insert<F: SlabField>(basis: &mut EchelonBasis<F>, row: Vec<F>) -> Insertion {
        basis.try_insert(row).expect("well-formed row")
    }

    fn unit(width: usize, i: usize) -> Vec<Gf256> {
        let mut v = vec![Gf256::ZERO; width];
        v[i] = Gf256::ONE;
        v
    }

    #[test]
    fn unit_vectors_fill_basis() {
        let mut b = EchelonBasis::<Gf256>::new(4);
        for i in 0..4 {
            assert!(!b.is_full());
            assert_eq!(insert(&mut b, unit(4, i)), Insertion::Innovative);
        }
        assert!(b.is_full());
        assert_eq!(b.rank(), 4);
    }

    /// A packed row off the wire may be non-canonical: GF(2) high bits, an
    /// out-of-range GF(p) residue. What is
    /// stored must not depend on the multipliers elimination happens to
    /// apply: with a pivot that is already 1 the normaliser is a no-op, and
    /// the garbage used to be stored verbatim, making bases that span the
    /// same space unequal.
    fn stores_canonical<F: SlabField>(dirty_row: &[u8], clean_row: &[u8]) {
        let (mut dirty, mut clean) = (EchelonBasis::<F>::new(2), EchelonBasis::<F>::new(2));
        assert_eq!(
            dirty.try_insert_packed_slice(dirty_row),
            Ok(Insertion::Innovative)
        );
        assert_eq!(
            clean.try_insert_packed_slice(clean_row),
            Ok(Insertion::Innovative)
        );
        let mut stored = Vec::new();
        dirty.copy_packed_row_into(0, &mut stored);
        assert_eq!(stored, clean_row, "stored bytes must be canonical");
        assert!(dirty.coeff_rows().eq(clean.coeff_rows()));
        assert_eq!(dirty, clean);
        assert_eq!(dirty.rows(), clean.rows());
        assert!(!clean.would_be_innovative_packed(dirty_row));
    }

    #[test]
    fn noncanonical_packed_rows_are_stored_canonical() {
        use ag_gf::F7;
        stores_canonical::<Gf2>(&[0x03, 0xFE, 0x81], &[0x01, 0x00, 0x01]);
        // 8 ≡ 1 and 9 ≡ 2 (mod 7).
        let [one, two, eight, nine] = [1u64, 2, 8, 9].map(u64::to_le_bytes);
        stores_canonical::<F7>(&[eight, nine].concat(), &[one, two].concat());
        // A field whose symbols fill their bytes has nothing to canonicalise.
        stores_canonical::<Gf256>(&[0x01, 0xF7], &[0x01, 0xF7]);
    }

    #[test]
    fn dependent_row_is_redundant() {
        let mut b = EchelonBasis::<Gf256>::new(3);
        insert(&mut b, vec![Gf256::new(1), Gf256::new(2), Gf256::new(3)]);
        insert(&mut b, vec![Gf256::new(0), Gf256::new(1), Gf256::new(1)]);
        // Sum of the two inserted rows (GF(2^8) addition = XOR of bytes).
        let dep = vec![Gf256::new(1), Gf256::new(3), Gf256::new(2)];
        assert_eq!(insert(&mut b, dep), Insertion::Redundant);
        assert_eq!(b.rank(), 2);
    }

    #[test]
    fn zero_row_is_redundant() {
        let mut b = EchelonBasis::<Gf256>::new(3);
        assert_eq!(insert(&mut b, vec![Gf256::ZERO; 3]), Insertion::Redundant);
        assert_eq!(b.rank(), 0);
    }

    #[test]
    fn rank_never_exceeds_width_under_random_inserts() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut b = EchelonBasis::<Gf2>::new(6);
        for _ in 0..100 {
            let row: Vec<Gf2> = (0..6).map(|_| Gf2::random(&mut rng)).collect();
            insert(&mut b, row);
            assert!(b.rank() <= 6);
        }
        assert!(b.is_full(), "100 random GF(2) rows fill rank 6 w.h.p.");
    }

    #[test]
    fn would_be_innovative_matches_insert() {
        let mut rng = StdRng::seed_from_u64(12);
        let mut b = EchelonBasis::<Gf256>::new(5);
        for _ in 0..30 {
            let row: Vec<Gf256> = (0..5).map(|_| Gf256::random(&mut rng)).collect();
            let predicted = b.would_be_innovative(&row);
            let actual = insert(&mut b, row).is_innovative();
            assert_eq!(predicted, actual);
        }
    }

    #[test]
    fn augmented_solution_decodes_messages() {
        // 3 source messages of 2 symbols each; feed random combinations.
        let mut rng = StdRng::seed_from_u64(13);
        let k = 3;
        let r = 2;
        let msgs: Vec<Vec<Gf256>> = (0..k)
            .map(|_| (0..r).map(|_| Gf256::random(&mut rng)).collect())
            .collect();
        let mut b = EchelonBasis::<Gf256>::new(k);
        while !b.is_full() {
            // Random combination: coeffs + combined payload.
            let coeffs: Vec<Gf256> = (0..k).map(|_| Gf256::random(&mut rng)).collect();
            let mut row = coeffs.clone();
            for j in 0..r {
                let mut acc = Gf256::ZERO;
                for (i, m) in msgs.iter().enumerate() {
                    acc += coeffs[i] * m[j];
                }
                row.push(acc);
            }
            insert(&mut b, row);
        }
        assert_eq!(b.solution().unwrap(), msgs);
    }

    #[test]
    fn solution_none_until_full() {
        let mut b = EchelonBasis::<Gf256>::new(2);
        assert!(b.solution().is_none());
        insert(&mut b, vec![Gf256::ONE, Gf256::ZERO]);
        assert!(b.solution().is_none());
    }

    #[test]
    fn helpfulness_between_bases() {
        let mut x = EchelonBasis::<Gf256>::new(3);
        let mut y = EchelonBasis::<Gf256>::new(3);
        insert(&mut x, unit(3, 0));
        insert(&mut y, unit(3, 0));
        // Equal subspaces: not helpful.
        assert!(!y.is_helped_by(&x));
        insert(&mut x, unit(3, 1));
        // x now strictly larger: helpful to y but not vice versa.
        assert!(y.is_helped_by(&x));
        assert!(!x.is_helped_by(&y));
    }

    #[test]
    fn insert_keeps_rows_reduced() {
        let mut rng = StdRng::seed_from_u64(14);
        let mut b = EchelonBasis::<Gf256>::new(8);
        for _ in 0..40 {
            let row: Vec<Gf256> = (0..8).map(|_| Gf256::random(&mut rng)).collect();
            insert(&mut b, row);
        }
        // Every pivot column — a reduced row's leading nonzero — must be
        // zero in all other rows (Gauss-Jordan).
        let rows = b.rows();
        for (ri, row) in rows.iter().enumerate() {
            let c = row.iter().position(|x| !x.is_zero()).expect("stored row");
            assert_eq!(row[c], Gf256::ONE, "pivot of row {ri} not normalized");
            for (j, other) in rows.iter().enumerate() {
                if j != ri {
                    assert!(other[c].is_zero(), "column {c} not eliminated in row {j}");
                }
            }
        }
    }

    #[test]
    fn try_insert_reports_typed_errors_and_leaves_basis_intact() {
        let g = |bytes: &[u8]| bytes.iter().map(|&b| Gf256::new(b)).collect::<Vec<_>>();
        let mut b = EchelonBasis::<Gf256>::new(2);
        assert_eq!(
            b.try_insert(vec![Gf256::ONE]),
            Err(BasisError::RowTooShort {
                len: 1,
                pivot_width: 2
            })
        );
        // A redundant first row, of any length, fixes nothing: the row
        // length is the first *stored* row's.
        assert_eq!(b.row_bytes(), 0);
        assert_eq!(insert(&mut b, g(&[0, 0, 5, 5])), Insertion::Redundant);
        assert_eq!(b.row_bytes(), 0, "no row is stored yet");
        assert_eq!(b, EchelonBasis::new(2));
        insert(&mut b, g(&[1, 0, 9]));
        assert_eq!(b.row_bytes(), 3);
        let before = b.clone();
        for (row, got) in [(g(&[1, 1]), 2), (g(&[1, 1, 1, 1]), 4)] {
            assert_eq!(
                b.try_insert(row),
                Err(BasisError::LengthMismatch { expected: 3, got })
            );
            assert_eq!(b, before, "failed insert must not mutate the basis");
        }
        assert_eq!(
            b.try_insert_packed_slice(&[0u8; 3]),
            Ok(Insertion::Redundant),
            "aligned zero row is simply redundant"
        );
        // Equality reads settled payloads and the pivots in stored order,
        // not just the span.
        let mut other_payload = EchelonBasis::new(2);
        insert(&mut other_payload, g(&[1, 0, 8]));
        assert_ne!(b, other_payload);
        let (mut ab, mut ba) = (EchelonBasis::new(2), EchelonBasis::new(2));
        for row in [unit(2, 0), unit(2, 1)] {
            insert(&mut ab, row);
        }
        for row in [unit(2, 1), unit(2, 0)] {
            insert(&mut ba, row);
        }
        assert_ne!(ab, ba);
        assert_eq!(ab.solution(), ba.solution());
    }

    #[test]
    fn materialized_rows_round_trip_through_element_view() {
        let mut b = EchelonBasis::<Gf256>::new(3);
        assert_eq!(b.coeff_rows().count(), 0);
        insert(
            &mut b,
            vec![Gf256::new(5), Gf256::new(1), Gf256::new(2), Gf256::new(7)],
        );
        insert(
            &mut b,
            vec![Gf256::new(0), Gf256::new(3), Gf256::new(1), Gf256::new(8)],
        );
        assert_eq!(b.row_bytes(), 4);
        let mut buf = Vec::new();
        for i in 0..b.rank() {
            b.copy_packed_row_into(i, &mut buf);
            assert_eq!(Gf256::unpack(&buf), b.row(i));
        }
        assert_eq!(b.rows().len(), 2);
    }

    #[test]
    fn interleaved_flush_matches_deferred_flush() {
        // Forcing materialization after every insert and deferring it to
        // the very end must yield identical bases and solutions: lazy
        // replay applies the same field ops eager elimination would.
        let mut rng = StdRng::seed_from_u64(21);
        let k = 6;
        let r = 5;
        let mut eager = EchelonBasis::<Gf256>::new(k);
        let mut lazy = EchelonBasis::<Gf256>::new(k);
        for _ in 0..3 * k {
            let row: Vec<Gf256> = (0..k + r).map(|_| Gf256::random(&mut rng)).collect();
            assert_eq!(insert(&mut eager, row.clone()), insert(&mut lazy, row));
            // `rows()` settles `eager`'s payload tails every step.
            let _ = eager.rows();
            assert_eq!(eager.rank(), lazy.rank());
        }
        assert_eq!(eager, lazy);
        assert_eq!(eager.solution(), lazy.solution());
    }

    #[test]
    fn accumulate_rows_into_matches_materialized_axpys() {
        let mut rng = StdRng::seed_from_u64(22);
        let k = 5;
        let r = 3;
        let mut b = EchelonBasis::<Gf256>::new(k);
        for _ in 0..k {
            let row: Vec<Gf256> = (0..k + r).map(|_| Gf256::random(&mut rng)).collect();
            insert(&mut b, row);
        }
        let factors: Vec<Gf256> = (0..b.rank()).map(|_| Gf256::random(&mut rng)).collect();
        let packed_factors = Gf256::pack(&factors);
        let mut fused = vec![0u8; b.row_bytes()];
        b.accumulate_rows_into(&packed_factors, &mut fused);
        let mut want = vec![0u8; b.row_bytes()];
        let mut rowbuf = Vec::new();
        for (i, c) in factors.iter().enumerate() {
            b.copy_packed_row_into(i, &mut rowbuf);
            Gf256::mul_add_slice(*c, &rowbuf, &mut want);
        }
        assert_eq!(fused, want);
    }

    #[test]
    fn gf2_dense_decode() {
        // Full decode over GF(2) with payloads.
        let mut rng = StdRng::seed_from_u64(15);
        let k = 8;
        let msgs: Vec<Vec<Gf2>> = (0..k)
            .map(|_| (0..4).map(|_| Gf2::random(&mut rng)).collect())
            .collect();
        let mut b = EchelonBasis::<Gf2>::new(k);
        let mut inserted = 0;
        while !b.is_full() && inserted < 1000 {
            let coeffs: Vec<Gf2> = (0..k).map(|_| Gf2::random(&mut rng)).collect();
            let mut row = coeffs.clone();
            for j in 0..4 {
                let mut acc = Gf2::ZERO;
                for (i, m) in msgs.iter().enumerate() {
                    acc += coeffs[i] * m[j];
                }
                row.push(acc);
            }
            insert(&mut b, row);
            inserted += 1;
        }
        assert_eq!(b.solution().unwrap(), msgs);
        // Expected insertions to fill GF(2) rank k is about k + 1.6.
        assert!(inserted < 100, "took {inserted} inserts");
        let _ = rng.gen::<u8>();
    }
}
