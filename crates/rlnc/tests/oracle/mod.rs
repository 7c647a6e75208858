//! The eager scalar oracle of the `ag-rlnc` differential suites: test-only,
//! and deliberately *not* the library's structure.
//!
//! [`ScalarBasis`] is the pre-slab echelon basis, preserved verbatim: rows
//! are `Vec<F>`, every elimination step runs one [`Field`] multiply at a
//! time, and payload tails are eliminated eagerly on every insert — no
//! packed slabs, no coefficient/payload split, no log, no replay schedule.
//! [`ScalarDecoder`] gives it `ag_rlnc::Decoder`'s receive/decode semantics
//! and [`scalar_emit`] mirrors `Recoder::emit`, so a stream replayed
//! through both sides must agree on every verdict, rank, emitted byte and
//! decoded message.
//!
//! Do not "optimize" this module: its value is being structurally
//! different from the store it checks. Each suite uses a subset of it.
#![allow(dead_code)]

use ag_gf::{Field, SlabField};
use ag_linalg::Insertion;
use ag_rlnc::{Generation, Packet};
use rand::rngs::StdRng;

/// A growing row-echelon basis with scalar (element-at-a-time) elimination.
///
/// Semantically identical to `ag_linalg::EchelonBasis`; see its docs for
/// the invariants. Only the storage layout and inner loops differ.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScalarBasis<F> {
    /// Width of the pivot (coefficient) prefix of every row.
    pivot_width: usize,
    /// `pivots[c]` = index into `rows` of the row whose pivot is column `c`.
    pivots: Vec<Option<usize>>,
    /// Rows in reduced form.
    rows: Vec<Vec<F>>,
}

impl<F: Field> ScalarBasis<F> {
    /// Creates an empty basis whose rows have `pivot_width` leading
    /// coefficient entries.
    pub fn new(pivot_width: usize) -> Self {
        ScalarBasis {
            pivot_width,
            pivots: vec![None; pivot_width],
            rows: Vec::new(),
        }
    }

    /// The number of independent rows stored so far.
    pub fn rank(&self) -> usize {
        self.rows.len()
    }

    /// True once the basis spans the full coefficient space.
    pub fn is_full(&self) -> bool {
        self.rank() == self.pivot_width
    }

    /// The stored (reduced) rows.
    pub fn rows(&self) -> &[Vec<F>] {
        &self.rows
    }

    /// Reduces `row` in place, stopping at the first pivot-free nonzero
    /// column; `None` when the row is annihilated.
    fn reduce(&self, row: &mut [F]) -> Option<usize> {
        for c in 0..self.pivot_width {
            if row[c].is_zero() {
                continue;
            }
            match self.pivots[c] {
                Some(ri) => {
                    let factor = row[c];
                    let stored = &self.rows[ri];
                    for (x, &s) in row.iter_mut().zip(stored) {
                        *x -= factor * s;
                    }
                    debug_assert!(row[c].is_zero());
                }
                None => return Some(c),
            }
        }
        None
    }

    /// Fully reduces `row` against every pivot column, returning the
    /// leading pivot-free column if the row survives.
    fn reduce_full(&self, row: &mut [F]) -> Option<usize> {
        let mut lead = None;
        for c in 0..self.pivot_width {
            if row[c].is_zero() {
                continue;
            }
            match self.pivots[c] {
                Some(ri) => {
                    let factor = row[c];
                    let stored = &self.rows[ri];
                    for (x, &s) in row.iter_mut().zip(stored) {
                        *x -= factor * s;
                    }
                    debug_assert!(row[c].is_zero());
                }
                None => {
                    if lead.is_none() {
                        lead = Some(c);
                    }
                }
            }
        }
        lead
    }

    /// Inserts an equation. Returns whether it was innovative.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() < pivot_width`, or if its length differs from
    /// previously inserted rows.
    pub fn insert(&mut self, mut row: Vec<F>) -> Insertion {
        assert!(
            row.len() >= self.pivot_width,
            "row of length {} shorter than pivot width {}",
            row.len(),
            self.pivot_width
        );
        if let Some(first) = self.rows.first() {
            assert_eq!(
                row.len(),
                first.len(),
                "all rows in a basis must have equal length"
            );
        }
        let Some(pivot_col) = self.reduce_full(&mut row) else {
            return Insertion::Redundant;
        };
        let pinv = row[pivot_col].inv().expect("pivot is nonzero");
        for x in &mut row {
            *x *= pinv;
        }
        for r in &mut self.rows {
            let factor = r[pivot_col];
            if !factor.is_zero() {
                for (x, &s) in r.iter_mut().zip(&row) {
                    *x -= factor * s;
                }
            }
        }
        self.pivots[pivot_col] = Some(self.rows.len());
        self.rows.push(row);
        Insertion::Innovative
    }

    /// Would `row` be innovative, without mutating the basis?
    pub fn would_be_innovative(&self, row: &[F]) -> bool {
        assert!(row.len() >= self.pivot_width);
        let mut tmp = row.to_vec();
        self.reduce(&mut tmp).is_some()
    }

    /// Once full, extracts the augmented tails in pivot order (the decoded
    /// source messages under RLNC augmentation).
    pub fn solution(&self) -> Option<Vec<Vec<F>>> {
        if !self.is_full() {
            return None;
        }
        let mut out = Vec::with_capacity(self.pivot_width);
        for c in 0..self.pivot_width {
            let ri = self.pivots[c].expect("full basis has all pivots");
            let row = &self.rows[ri];
            out.push(row[self.pivot_width..].to_vec());
        }
        Some(out)
    }
}

/// The scalar decoder: `ag_rlnc::Decoder` semantics on [`ScalarBasis`].
pub struct ScalarDecoder<F> {
    k: usize,
    payload_len: usize,
    basis: ScalarBasis<F>,
}

impl<F: Field> ScalarDecoder<F> {
    pub fn new(k: usize, payload_len: usize) -> Self {
        ScalarDecoder {
            k,
            payload_len,
            basis: ScalarBasis::new(k),
        }
    }

    pub fn with_all_messages(generation: &Generation<F>) -> Self {
        let mut d = ScalarDecoder::new(generation.k(), generation.message_len());
        for i in 0..generation.k() {
            d.seed_message(generation, i);
        }
        d
    }

    pub fn seed_message(&mut self, generation: &Generation<F>, index: usize) {
        let mut row = vec![F::ZERO; self.k];
        row[index] = F::ONE;
        row.extend_from_slice(generation.message(index));
        let _ = self.basis.insert(row);
    }

    /// Scalar mirror of `Decoder::try_receive`; packets are assumed
    /// shape-valid (the differential drivers check shapes up front, as
    /// `try_receive` does).
    pub fn receive(&mut self, packet: Packet<F>) -> Insertion {
        assert_eq!(packet.generation_size(), self.k);
        assert_eq!(packet.payload_len(), self.payload_len);
        let mut row = packet.coefficients().to_vec();
        row.extend_from_slice(packet.payload());
        self.basis.insert(row)
    }

    pub fn rank(&self) -> usize {
        self.basis.rank()
    }

    pub fn is_complete(&self) -> bool {
        self.basis.is_full()
    }

    pub fn would_help(&self, packet: &Packet<F>) -> bool {
        self.basis.would_be_innovative(packet.coefficients())
    }

    /// The stored (eagerly reduced) rows — what [`scalar_emit`] recombines.
    pub fn rows(&self) -> &[Vec<F>] {
        self.basis.rows()
    }

    /// Scalar mirror of `Decoder::is_helpful_node`.
    pub fn is_helped_by(&self, other: &ScalarDecoder<F>) -> bool {
        other
            .rows()
            .iter()
            .any(|row| self.basis.would_be_innovative(&row[..self.k]))
    }

    pub fn decode(&self) -> Option<Vec<Vec<F>>> {
        self.basis.solution()
    }
}

/// Scalar mirror of `Recoder::emit`: one uniform draw per stored row in
/// insertion order (zeros included), accumulated in scalar arithmetic.
/// Under a shared RNG state this must reproduce the packed emit byte for
/// byte — including when the packed basis still has payload elimination
/// pending and the emit forces a mid-stream flush.
pub fn scalar_emit<F: SlabField>(
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

#[test]
fn scalar_basis_basics() {
    use ag_gf::Gf256;
    let mut b = ScalarBasis::<Gf256>::new(2);
    assert_eq!(
        b.insert(vec![Gf256::new(1), Gf256::new(1), Gf256::new(2)]),
        Insertion::Innovative
    );
    assert_eq!(
        b.insert(vec![Gf256::new(2), Gf256::new(2), Gf256::new(4)]),
        Insertion::Redundant
    );
    assert_eq!(
        b.insert(vec![Gf256::new(0), Gf256::new(1), Gf256::new(5)]),
        Insertion::Innovative
    );
    assert!(b.is_full());
    assert_eq!(
        b.solution().unwrap(),
        vec![vec![Gf256::new(7)], vec![Gf256::new(5)]]
    );
}
