//! The scalar reference implementation of the echelon basis.
//!
//! [`ScalarBasis`] is the pre-slab `EchelonBasis`, preserved verbatim: rows
//! are `Vec<F>` and every elimination step runs one [`Field`] multiply at a
//! time. It exists for two jobs:
//!
//! 1. **Differential testing** — `ag-rlnc`'s `differential_decoder` suite
//!    replays every packet stream through both implementations and asserts
//!    identical verdicts, rank trajectories and decoded messages.
//! 2. **Benchmarking** — `ag-bench`'s `bench_decoder_slab` binary measures
//!    the packed [`EchelonBasis`](crate::EchelonBasis) against this baseline
//!    and records the speedup in `BENCH_decoder_slab.json`.
//!
//! Do not use it in protocol code; it is deliberately the slow path.

use ag_gf::Field;

use crate::Insertion;

/// A growing row-echelon basis with scalar (element-at-a-time) elimination.
///
/// Semantically identical to [`EchelonBasis`](crate::EchelonBasis); see its
/// docs for the invariants. Only the storage layout and inner loops differ.
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
    #[must_use]
    pub fn new(pivot_width: usize) -> Self {
        ScalarBasis {
            pivot_width,
            pivots: vec![None; pivot_width],
            rows: Vec::new(),
        }
    }

    /// The number of independent rows stored so far.
    #[must_use]
    pub fn rank(&self) -> usize {
        self.rows.len()
    }

    /// The pivot (coefficient) width rows must have at minimum.
    #[must_use]
    pub fn pivot_width(&self) -> usize {
        self.pivot_width
    }

    /// True once the basis spans the full coefficient space.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.rank() == self.pivot_width
    }

    /// The stored (reduced) rows.
    #[must_use]
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
    #[must_use]
    pub fn would_be_innovative(&self, row: &[F]) -> bool {
        assert!(row.len() >= self.pivot_width);
        let mut tmp = row.to_vec();
        self.reduce(&mut tmp).is_some()
    }

    /// Once full, extracts the augmented tails in pivot order (the decoded
    /// source messages under RLNC augmentation).
    #[must_use]
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

#[cfg(test)]
mod tests {
    use super::*;
    use ag_gf::Gf256;

    #[test]
    fn scalar_basis_basics() {
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
}
