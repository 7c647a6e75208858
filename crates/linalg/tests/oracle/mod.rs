//! The dense-matrix oracle of the `ag-linalg` property suite: test-only.
//!
//! [`Matrix`] is textbook Gauss–Jordan elimination over a whole matrix at
//! once — column by column, with row swaps — and shares no structure with
//! the incremental store it checks (`ag_linalg`'s `node` module: one row
//! at a time, no swaps, coefficient/payload split, deferred payload
//! replay). It was `ag_linalg::Matrix` until it had no caller left outside
//! the tests; what remains is what the lanes call.

use std::marker::PhantomData;

use ag_gf::SlabField;

/// A dense matrix over the field `F`, stored row-major as one contiguous
/// packed byte slab (see [`ag_gf::slab`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Matrix<F> {
    rows: usize,
    cols: usize,
    /// `rows * cols * F::SYMBOL_BYTES` packed bytes; row `r` occupies
    /// `data[r * row_bytes .. (r + 1) * row_bytes]`.
    data: Vec<u8>,
    _field: PhantomData<F>,
}

impl<F: SlabField> Matrix<F> {
    /// Creates a `rows × cols` zero matrix.
    fn zero(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0u8; rows * cols * F::SYMBOL_BYTES],
            _field: PhantomData,
        }
    }

    /// Builds a matrix from row vectors.
    ///
    /// # Panics
    ///
    /// Panics if the rows have differing lengths.
    pub fn from_rows(rows: &[Vec<F>]) -> Self {
        let ncols = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(rows.len() * ncols * F::SYMBOL_BYTES);
        for r in rows {
            assert_eq!(r.len(), ncols, "ragged rows");
            F::pack_into(r, &mut data);
        }
        Matrix {
            rows: rows.len(),
            cols: ncols,
            data,
            _field: PhantomData,
        }
    }

    /// Bytes per packed row.
    fn row_bytes(&self) -> usize {
        self.cols * F::SYMBOL_BYTES
    }

    /// The entry at (`r`, `c`).
    fn get(&self, r: usize, c: usize) -> F {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        F::read_symbol(&self.data[(r * self.cols + c) * F::SYMBOL_BYTES..])
    }

    /// Sets the entry at (`r`, `c`).
    fn set(&mut self, r: usize, c: usize, v: F) {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        v.write_symbol(&mut self.data[(r * self.cols + c) * F::SYMBOL_BYTES..]);
    }

    /// In-place reduction to *reduced row echelon form*; returns the rank.
    pub fn rref(&mut self) -> usize {
        let mut pivot_row = 0;
        for col in 0..self.cols {
            if pivot_row == self.rows {
                break;
            }
            // Find a nonzero pivot in this column at or below pivot_row.
            let Some(src) = (pivot_row..self.rows).find(|&r| !self.get(r, col).is_zero()) else {
                continue;
            };
            self.swap_rows(pivot_row, src);
            // Normalize the pivot row.
            let p = self.get(pivot_row, col);
            let pinv = p.inv().expect("pivot is nonzero");
            let rb = self.row_bytes();
            F::mul_slice(pinv, &mut self.data[pivot_row * rb..(pivot_row + 1) * rb]);
            // Eliminate the column everywhere else.
            for r in 0..self.rows {
                if r != pivot_row {
                    let factor = self.get(r, col);
                    if !factor.is_zero() {
                        self.row_axpy(r, pivot_row, factor);
                    }
                }
            }
            pivot_row += 1;
        }
        pivot_row
    }

    /// The rank, computed on a scratch copy.
    pub fn rank(&self) -> usize {
        self.clone().rref()
    }

    /// Solves `self · x = b` for square `self`; `None` when the system is
    /// singular (or inconsistent).
    ///
    /// # Panics
    ///
    /// Panics if `self` is not square or `b.len() != rows`.
    pub fn solve(&self, b: &[F]) -> Option<Vec<F>> {
        assert_eq!(self.rows, self.cols, "solve requires a square matrix");
        assert_eq!(b.len(), self.rows, "one right-hand side per row");
        let n = self.rows;
        let mut aug = Matrix::zero(n, n + 1);
        for (i, &rhs) in b.iter().enumerate() {
            for j in 0..n {
                aug.set(i, j, self.get(i, j));
            }
            aug.set(i, n, rhs);
        }
        aug.rref();
        // Solvable (uniquely) iff the left block reduced to the identity;
        // otherwise the system is singular or a pivot landed in column n
        // (inconsistent).
        for i in 0..n {
            for j in 0..n {
                let want = if i == j { F::ONE } else { F::ZERO };
                if aug.get(i, j) != want {
                    return None;
                }
            }
        }
        Some((0..n).map(|i| aug.get(i, n)).collect())
    }

    fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        let rb = self.row_bytes();
        let (a, b) = (a.min(b), a.max(b));
        let (first, second) = self.data.split_at_mut(b * rb);
        first[a * rb..(a + 1) * rb].swap_with_slice(&mut second[..rb]);
    }

    /// `row[dst] -= factor * row[src]`, as one slab axpy with coefficient
    /// `-factor`.
    fn row_axpy(&mut self, dst: usize, src: usize, factor: F) {
        debug_assert_ne!(dst, src);
        let rb = self.row_bytes();
        let (dst_slab, src_slab) = if dst < src {
            let (lo, hi) = self.data.split_at_mut(src * rb);
            (&mut lo[dst * rb..(dst + 1) * rb], &hi[..rb])
        } else {
            let (lo, hi) = self.data.split_at_mut(dst * rb);
            (&mut hi[..rb], &lo[src * rb..(src + 1) * rb])
        };
        F::mul_add_slice(-factor, src_slab, dst_slab);
    }
}
