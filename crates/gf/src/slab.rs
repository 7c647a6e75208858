//! Bulk "slab" arithmetic: field operations over packed byte rows.
//!
//! The RLNC hot path — Gauss–Jordan elimination inside
//! `ag_linalg::EchelonBasis` and packet combination inside
//! `ag_rlnc::Recoder` — spends all of its time doing `dst += c · src` over
//! rows of thousands of symbols. Doing that one [`Field`] element at a time
//! costs a bounds-checked table lookup per symbol. The [`SlabField`] trait
//! instead exposes the three row primitives over *packed byte slabs*:
//!
//! * [`SlabField::add_slice`] — `dst += src`,
//! * [`SlabField::mul_slice`] — `dst *= c`,
//! * [`SlabField::mul_add_slice`] — `dst += c · src` (the axpy kernel),
//! * [`SlabField::mul_add_multi`] — fused gather `dst += Σᵢ cᵢ · srcᵢ`
//!   over contiguous source rows (the batched-elimination kernel),
//! * [`SlabField::mul_add_scatter`] — fused scatter `dstᵢ += cᵢ · src`
//!   (the back-substitution kernel).
//!
//! Every field gets a correct scalar fallback (unpack, apply [`Field`] ops,
//! repack), and the fields that matter for throughput override it:
//!
//! | Field | packing | fast path |
//! |---|---|---|
//! | [`Gf2`](crate::Gf2) | 1 byte/symbol | pure XOR (`u64`-chunked) |
//! | [`Gf256`](crate::Gf256) | 1 byte/symbol | XOR add + table/SIMD multiply |
//! | [`Fp<P>`](crate::Fp) | 8 bytes/symbol LE | scalar fallback |
//!
//! The GF(2⁸) multiply kernels exist twice, bit-identically: per-`c`
//! product-table loops ([`crate::reference`]) and runtime-detected x86-64
//! SIMD — `PSHUFB` nibble shuffles or the GFNI `GF2P8MULB` instruction
//! ([`crate::simd`]). Which one a call runs is decided in [`crate::simd`]
//! from the row length and the CPU; there is nothing to configure.
//!
//! # Packing invariants
//!
//! A packed slab stores each symbol in exactly [`SlabField::SYMBOL_BYTES`]
//! bytes at offset `i * SYMBOL_BYTES`, in the field's canonical
//! representation. Two invariants make the fast paths sound and are asserted
//! by the `proptest_slab` suite:
//!
//! 1. `ZERO` packs to the all-zero byte pattern (so `mul_slice(ZERO, ..)`
//!    may `fill(0)` and a freshly zeroed buffer is a row of zeros), and
//! 2. packing is canonical: `write_symbol(read_symbol(b)) == b` for every
//!    slab produced by `write_symbol` (so byte equality of slabs is element
//!    equality).
//!
//! # Examples
//!
//! ```
//! use ag_gf::{Field, Gf256, SlabField};
//!
//! let c = Gf256::new(0x57);
//! let src = Gf256::pack(&[Gf256::new(0x83), Gf256::ONE]);
//! let mut dst = vec![0u8; src.len()];
//! Gf256::mul_add_slice(c, &src, &mut dst);
//! assert_eq!(Gf256::unpack(&dst), vec![Gf256::new(0xC1), c]);
//! ```

use crate::field::Field;

/// A [`Field`] that additionally supports bulk arithmetic over packed byte
/// rows ("slabs").
///
/// All slice operations require `src.len() == dst.len()` and lengths that
/// are a multiple of [`SlabField::SYMBOL_BYTES`]; they panic otherwise.
/// Empty slices are valid and are no-ops.
pub trait SlabField: Field {
    /// Bytes one packed symbol occupies.
    const SYMBOL_BYTES: usize;

    /// Writes the canonical packed representation into
    /// `dst[..SYMBOL_BYTES]`.
    ///
    /// # Panics
    ///
    /// Panics if `dst` is shorter than [`SlabField::SYMBOL_BYTES`].
    fn write_symbol(self, dst: &mut [u8]);

    /// Reads a symbol from `src[..SYMBOL_BYTES]`.
    ///
    /// # Panics
    ///
    /// Panics if `src` is shorter than [`SlabField::SYMBOL_BYTES`].
    fn read_symbol(src: &[u8]) -> Self;

    /// Appends the packed representation of `elems` to `out`.
    fn pack_into(elems: &[Self], out: &mut Vec<u8>) {
        let start = out.len();
        out.resize(start + elems.len() * Self::SYMBOL_BYTES, 0);
        for (e, chunk) in elems
            .iter()
            .zip(out[start..].chunks_exact_mut(Self::SYMBOL_BYTES))
        {
            e.write_symbol(chunk);
        }
    }

    /// The packed representation of `elems` as a fresh slab.
    #[must_use]
    fn pack(elems: &[Self]) -> Vec<u8> {
        let mut out = Vec::with_capacity(elems.len() * Self::SYMBOL_BYTES);
        Self::pack_into(elems, &mut out);
        out
    }

    /// Decodes a packed slab back into field elements.
    ///
    /// # Panics
    ///
    /// Panics if `bytes.len()` is not a multiple of
    /// [`SlabField::SYMBOL_BYTES`].
    #[must_use]
    fn unpack(bytes: &[u8]) -> Vec<Self> {
        assert!(
            bytes.len().is_multiple_of(Self::SYMBOL_BYTES),
            "slab length {} is not a multiple of the {}-byte symbol size",
            bytes.len(),
            Self::SYMBOL_BYTES
        );
        bytes
            .chunks_exact(Self::SYMBOL_BYTES)
            .map(Self::read_symbol)
            .collect()
    }

    /// `dst[i] += src[i]` for every symbol.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    fn add_slice(src: &[u8], dst: &mut [u8]) {
        check_pair::<Self>(src, dst);
        for (d, s) in dst
            .chunks_exact_mut(Self::SYMBOL_BYTES)
            .zip(src.chunks_exact(Self::SYMBOL_BYTES))
        {
            (Self::read_symbol(d) + Self::read_symbol(s)).write_symbol(d);
        }
    }

    /// `dst[i] *= c` for every symbol.
    ///
    /// # Panics
    ///
    /// Panics if `dst.len()` is not a multiple of
    /// [`SlabField::SYMBOL_BYTES`].
    fn mul_slice(c: Self, dst: &mut [u8]) {
        check_one::<Self>(dst);
        if c == Self::ONE {
            return;
        }
        if c.is_zero() {
            dst.fill(0);
            return;
        }
        for d in dst.chunks_exact_mut(Self::SYMBOL_BYTES) {
            (c * Self::read_symbol(d)).write_symbol(d);
        }
    }

    /// `dst[i] += c * src[i]` for every symbol — the axpy kernel that
    /// dominates Gauss–Jordan elimination and recoding.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    fn mul_add_slice(c: Self, src: &[u8], dst: &mut [u8]) {
        check_pair::<Self>(src, dst);
        if c.is_zero() {
            return;
        }
        for (d, s) in dst
            .chunks_exact_mut(Self::SYMBOL_BYTES)
            .zip(src.chunks_exact(Self::SYMBOL_BYTES))
        {
            (Self::read_symbol(d) + c * Self::read_symbol(s)).write_symbol(d);
        }
    }

    /// Fused gather: `dst += Σᵢ factors[i] · srcs_row_i` in one call.
    ///
    /// `factors` holds `n` packed symbols; `srcs` holds `n` contiguous rows
    /// of exactly `dst.len()` bytes each (row `i` starts at byte
    /// `i * dst.len()`). Rows whose factor is zero are skipped, so callers
    /// may pass a sparse factor vector without pre-filtering.
    ///
    /// This is the batched-elimination kernel: one destination row is
    /// accumulated from many sources per memory pass, which lets SIMD kernels
    /// keep the accumulator in registers instead of re-reading `dst` once
    /// per source row.
    ///
    /// # Panics
    ///
    /// Panics if `factors` or `dst` is misaligned, or if
    /// `srcs.len() != n * dst.len()`.
    fn mul_add_multi(factors: &[u8], srcs: &[u8], dst: &mut [u8]) {
        multi_by_axpy::<Self>(factors, srcs, dst, Self::mul_add_slice);
    }

    /// Blocked panel update: `dsts_row_i += Σⱼ coefs[i·c + j] · srcs_row_j`
    /// for an `r × c` coefficient micro-panel — the BLAS-3 kernel.
    ///
    /// `coefs` holds `r · c` packed symbols in row-major order (symbol
    /// `i · c + j` multiplies source row `j` into destination row `i`);
    /// `srcs` holds `c` contiguous rows and `dsts` holds `r` contiguous
    /// rows, each exactly `row_bytes` long. Zero coefficients are skipped.
    ///
    /// Where [`SlabField::mul_add_multi`] re-streams every source row once
    /// per destination, this kernel lets an optimized path reuse each loaded
    /// source vector across all `r` accumulators before it leaves registers
    /// and keep a source tile cache-resident across the whole destination
    /// panel — O(r·c) arithmetic per O(r+c) rows of memory traffic. The
    /// default implementation is the gather loop (one `mul_add_multi` per
    /// destination row), which every override must match bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `row_bytes` is not a multiple of
    /// [`SlabField::SYMBOL_BYTES`], if `srcs` or `dsts` is not a whole
    /// number of `row_bytes` rows, or if `coefs` is not exactly `r · c`
    /// packed symbols. `row_bytes == 0` requires all three slabs empty.
    fn mul_add_block(coefs: &[u8], srcs: &[u8], dsts: &mut [u8], row_bytes: usize) {
        block_by_multi::<Self>(coefs, srcs, dsts, row_bytes, Self::mul_add_multi);
    }

    /// Fused scatter: `dsts_row_i += factors[i] · src` for every row.
    ///
    /// The transpose of [`SlabField::mul_add_multi`]: `factors` holds `n`
    /// packed symbols and `dsts` holds `n` contiguous rows of exactly
    /// `src.len()` bytes each. Rows with a zero factor are untouched.
    ///
    /// This is the back-substitution kernel: one new pivot row is applied to
    /// every stored row in a single pass. `src` stays cache-hot across the
    /// default loop's iterations, so what a fused kernel saves is the
    /// per-row kernel selection, which on short rows outweighs the field
    /// work.
    ///
    /// # Panics
    ///
    /// Panics if `factors` or `src` is misaligned, or if
    /// `dsts.len() != n * src.len()`.
    fn mul_add_scatter(factors: &[u8], src: &[u8], dsts: &mut [u8]) {
        scatter_by_axpy::<Self>(factors, src, dsts, Self::mul_add_slice);
    }

    /// Rewrites every symbol of `slab` in its canonical packed form, so
    /// that byte equality of slabs is element equality (packing invariant 2)
    /// even for bytes that did not come from [`SlabField::write_symbol`]: a
    /// row off the wire. Stored rows are canonicalised once, where they
    /// enter a basis; the kernels then never see anything else.
    ///
    /// A no-op for a field whose symbols fill their bytes (every pattern is
    /// canonical there). Bytes after the last whole symbol are left alone.
    fn canonicalize_slice(slab: &mut [u8]) {
        for symbol in slab.chunks_exact_mut(Self::SYMBOL_BYTES) {
            Self::read_symbol(symbol).write_symbol(symbol);
        }
    }
}

#[inline]
fn check_pair<F: SlabField>(src: &[u8], dst: &mut [u8]) {
    assert_eq!(src.len(), dst.len(), "slab operands must have equal length");
    check_one::<F>(dst);
}

/// Asserts the shapes [`SlabField::mul_add_multi`] documents; `false` when
/// they hold but leave nothing to accumulate (no factors, or empty rows).
#[inline]
pub(crate) fn check_multi<F: SlabField>(factors: &[u8], srcs: &[u8], dst: &[u8]) -> bool {
    check_one::<F>(factors);
    check_one::<F>(dst);
    assert_eq!(
        srcs.len(),
        factors.len() / F::SYMBOL_BYTES * dst.len(),
        "srcs must hold exactly one row of dst.len() bytes per factor"
    );
    !(factors.is_empty() || dst.is_empty())
}

/// Asserts the shapes [`SlabField::mul_add_scatter`] documents; `false`
/// when they hold but leave nothing to update.
#[inline]
pub(crate) fn check_scatter<F: SlabField>(factors: &[u8], src: &[u8], dsts: &[u8]) -> bool {
    check_one::<F>(factors);
    check_one::<F>(src);
    assert_eq!(
        dsts.len(),
        factors.len() / F::SYMBOL_BYTES * src.len(),
        "dsts must hold exactly one row of src.len() bytes per factor"
    );
    !(factors.is_empty() || src.is_empty())
}

/// Asserts the shapes [`SlabField::mul_add_block`] documents; `false` when
/// they hold but the panel has no destination or no source row.
#[inline]
pub(crate) fn check_block<F: SlabField>(
    coefs: &[u8],
    srcs: &[u8],
    dsts: &[u8],
    row_bytes: usize,
) -> bool {
    if row_bytes == 0 {
        assert!(
            coefs.is_empty() && srcs.is_empty() && dsts.is_empty(),
            "zero row_bytes requires empty panel slabs"
        );
        return false;
    }
    assert!(
        row_bytes.is_multiple_of(F::SYMBOL_BYTES),
        "row_bytes {} is not a multiple of the {}-byte symbol size",
        row_bytes,
        F::SYMBOL_BYTES
    );
    assert!(
        srcs.len().is_multiple_of(row_bytes) && dsts.len().is_multiple_of(row_bytes),
        "panel slabs must be whole rows of {row_bytes} bytes"
    );
    let c = srcs.len() / row_bytes;
    let r = dsts.len() / row_bytes;
    assert_eq!(
        coefs.len(),
        r * c * F::SYMBOL_BYTES,
        "coefficient panel must be exactly r x c packed symbols"
    );
    r != 0 && c != 0
}

/// The gather as a loop of single-row axpys, shapes asserted first: what
/// [`SlabField::mul_add_multi`] means, and what it runs wherever no fused
/// kernel exists (every field but GF(2⁸), and GF(2⁸) below GFNI, where a
/// per-multiplier table is built per source row either way). The caller
/// names the axpy, so a kernel module can stay on its own rung for the
/// whole loop.
#[inline]
pub(crate) fn multi_by_axpy<F: SlabField>(
    factors: &[u8],
    srcs: &[u8],
    dst: &mut [u8],
    axpy: impl Fn(F, &[u8], &mut [u8]),
) {
    if !check_multi::<F>(factors, srcs, dst) {
        return;
    }
    let rows = srcs.chunks_exact(dst.len());
    for (f, row) in factors.chunks_exact(F::SYMBOL_BYTES).zip(rows) {
        let c = F::read_symbol(f);
        if !c.is_zero() {
            axpy(c, row, dst);
        }
    }
}

/// The scatter as a loop of single-row axpys, the mirror image of
/// [`multi_by_axpy`].
#[inline]
pub(crate) fn scatter_by_axpy<F: SlabField>(
    factors: &[u8],
    src: &[u8],
    dsts: &mut [u8],
    axpy: impl Fn(F, &[u8], &mut [u8]),
) {
    if !check_scatter::<F>(factors, src, dsts) {
        return;
    }
    let rows = dsts.chunks_exact_mut(src.len());
    for (f, row) in factors.chunks_exact(F::SYMBOL_BYTES).zip(rows) {
        let c = F::read_symbol(f);
        if !c.is_zero() {
            axpy(c, src, row);
        }
    }
}

/// The panel update as one gather per destination row, shapes asserted
/// first, wherever no register panel exists; the caller names the gather.
#[inline]
pub(crate) fn block_by_multi<F: SlabField>(
    coefs: &[u8],
    srcs: &[u8],
    dsts: &mut [u8],
    row_bytes: usize,
    multi: impl Fn(&[u8], &[u8], &mut [u8]),
) {
    if !check_block::<F>(coefs, srcs, dsts, row_bytes) {
        return;
    }
    let c = srcs.len() / row_bytes;
    let panel_rows = coefs.chunks_exact(c * F::SYMBOL_BYTES);
    for (panel_row, dst) in panel_rows.zip(dsts.chunks_exact_mut(row_bytes)) {
        multi(panel_row, srcs, dst);
    }
}

#[inline]
fn check_one<F: SlabField>(dst: &[u8]) {
    assert!(
        dst.len().is_multiple_of(F::SYMBOL_BYTES),
        "slab length {} is not a multiple of the {}-byte symbol size",
        dst.len(),
        F::SYMBOL_BYTES
    );
}

/// `dst ^= src`, processed in `u64` chunks. Addition for every
/// characteristic-2 field in this crate, since their canonical packings are
/// plain bit patterns.
pub(crate) fn xor_slice(src: &[u8], dst: &mut [u8]) {
    debug_assert_eq!(src.len(), dst.len());
    let mut d = dst.chunks_exact_mut(8);
    let mut s = src.chunks_exact(8);
    for (dc, sc) in (&mut d).zip(&mut s) {
        let word = u64::from_le_bytes(dc[..8].try_into().expect("8-byte chunk"))
            ^ u64::from_le_bytes(sc[..8].try_into().expect("8-byte chunk"));
        dc.copy_from_slice(&word.to_le_bytes());
    }
    for (db, sb) in d.into_remainder().iter_mut().zip(s.remainder()) {
        *db ^= sb;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Gf2, Gf256};

    #[test]
    fn xor_slice_matches_bytewise() {
        let src: Vec<u8> = (0..37u8).collect();
        let mut dst: Vec<u8> = (100..137u8).collect();
        let want: Vec<u8> = dst.iter().zip(&src).map(|(d, s)| d ^ s).collect();
        xor_slice(&src, &mut dst);
        assert_eq!(dst, want);
    }

    #[test]
    fn pack_unpack_round_trip() {
        let elems: Vec<Gf256> = (0..=255u8).map(Gf256::new).collect();
        assert_eq!(Gf256::unpack(&Gf256::pack(&elems)), elems);
        let bits = [Gf2::ZERO, Gf2::ONE, Gf2::ONE];
        assert_eq!(Gf2::unpack(&Gf2::pack(&bits)), bits);
    }

    #[test]
    fn zero_packs_to_zero_bytes() {
        // Invariant 1 of the module docs, for the byte-packed fields.
        assert_eq!(Gf256::pack(&[Gf256::ZERO]), vec![0]);
        assert_eq!(Gf2::pack(&[Gf2::ZERO]), vec![0]);
    }

    #[test]
    fn canonicalize_slice_rewrites_only_what_is_not_canonical() {
        use crate::F7;
        let dirty: Vec<u8> = (0..=255u8).collect();
        let canonical = |mask: u8| dirty.iter().map(|b| b & mask).collect::<Vec<u8>>();
        let mut slab = dirty.clone();
        Gf2::canonicalize_slice(&mut slab);
        assert_eq!(slab, canonical(0x01));
        assert_eq!(Gf2::pack(&Gf2::unpack(&dirty)), slab, "what packing writes");
        // Symbols that fill their bytes: every pattern is canonical already.
        let mut slab = dirty.clone();
        Gf256::canonicalize_slice(&mut slab);
        assert_eq!(slab, dirty);
        // GF(p) reduces each residue; bytes past the last whole symbol stay.
        let mut slab = [9u64.to_le_bytes().as_slice(), &[0xFF; 3]].concat();
        F7::canonicalize_slice(&mut slab);
        assert_eq!(slab, [2u64.to_le_bytes().as_slice(), &[0xFF; 3]].concat());
    }

    #[test]
    fn empty_slabs_are_noops() {
        let mut empty: Vec<u8> = Vec::new();
        Gf256::add_slice(&[], &mut empty);
        Gf256::mul_slice(Gf256::new(7), &mut empty);
        Gf256::mul_add_slice(Gf256::new(7), &[], &mut empty);
        assert!(empty.is_empty());
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn mismatched_lengths_panic() {
        let mut dst = vec![0u8; 4];
        Gf256::mul_add_slice(Gf256::ONE, &[1, 2, 3], &mut dst);
    }

    #[test]
    fn mul_add_multi_matches_axpy_loop() {
        let rows: Vec<u8> = (0u8..=255).chain(0..=255).take(3 * 96).collect();
        let factors = [0x00, 0x57, 0x01];
        let mut fused = vec![0xAAu8; 96];
        let mut looped = fused.clone();
        Gf256::mul_add_multi(&factors, &rows, &mut fused);
        for (f, row) in factors.iter().zip(rows.chunks_exact(96)) {
            Gf256::mul_add_slice(Gf256::new(*f), row, &mut looped);
        }
        assert_eq!(fused, looped);
    }

    #[test]
    fn mul_add_scatter_matches_axpy_loop() {
        let src: Vec<u8> = (1u8..=64).collect();
        let factors = [0x03, 0x00, 0xFF];
        let mut fused: Vec<u8> = (0u8..192).collect();
        let mut looped = fused.clone();
        Gf256::mul_add_scatter(&factors, &src, &mut fused);
        for (f, row) in factors.iter().zip(looped.chunks_exact_mut(64)) {
            Gf256::mul_add_slice(Gf256::new(*f), &src, row);
        }
        assert_eq!(fused, looped);
    }

    #[test]
    fn mul_add_block_matches_axpy_loop() {
        let row = 48;
        let (r, c) = (3, 2);
        let srcs: Vec<u8> = (0u8..(c * row) as u8).collect();
        let coefs = [0x00, 0x57, 0x01, 0x03, 0xFF, 0x00];
        let mut blocked: Vec<u8> = (100u8..100 + (r * row) as u8).collect();
        let mut looped = blocked.clone();
        Gf256::mul_add_block(&coefs, &srcs, &mut blocked, row);
        for (panel, dst) in coefs.chunks_exact(c).zip(looped.chunks_exact_mut(row)) {
            for (f, src) in panel.iter().zip(srcs.chunks_exact(row)) {
                Gf256::mul_add_slice(Gf256::new(*f), src, dst);
            }
        }
        assert_eq!(blocked, looped);
    }

    #[test]
    fn mul_add_block_accepts_empty_panels() {
        let mut dsts: Vec<u8> = Vec::new();
        Gf256::mul_add_block(&[], &[], &mut dsts, 0);
        // c = 0 sources into r = 2 rows: a no-op with an empty panel.
        let mut two = vec![7u8; 8];
        Gf256::mul_add_block(&[], &[], &mut two, 4);
        assert_eq!(two, vec![7u8; 8]);
        // r = 0 rows from c = 2 sources: nothing to write.
        Gf256::mul_add_block(&[], &[1, 2, 3, 4, 5, 6, 7, 8], &mut dsts, 4);
        assert!(dsts.is_empty());
    }

    #[test]
    #[should_panic(expected = "r x c packed symbols")]
    fn mul_add_block_rejects_ragged_panels() {
        let mut dsts = vec![0u8; 8];
        Gf256::mul_add_block(&[1, 2, 3], &[0u8; 8], &mut dsts, 4);
    }

    #[test]
    fn fused_kernels_accept_empty_rows() {
        // Zero-width rows (rank-only bases) must be no-ops for any factor
        // count, including zero factors over zero rows.
        let mut dst: Vec<u8> = Vec::new();
        Gf256::mul_add_multi(&[1, 2, 3], &[], &mut dst);
        Gf256::mul_add_multi(&[], &[], &mut dst);
        let mut dsts: Vec<u8> = Vec::new();
        Gf256::mul_add_scatter(&[1, 2, 3], &[], &mut dsts);
        assert!(dst.is_empty() && dsts.is_empty());
    }

    #[test]
    #[should_panic(expected = "one row of dst.len() bytes per factor")]
    fn mul_add_multi_rejects_ragged_slabs() {
        let mut dst = vec![0u8; 4];
        Gf256::mul_add_multi(&[1, 2], &[0u8; 7], &mut dst);
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn misaligned_multibyte_slab_panics() {
        // 3 bytes is not a whole number of 8-byte GF(p) symbols; the
        // scalar fallback must uphold the trait's alignment contract.
        let mut dst = vec![0u8; 3];
        crate::F257::add_slice(&[1, 2, 3], &mut dst);
    }
}
