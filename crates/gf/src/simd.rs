//! The hardware kernels: `PSHUFB` / `GF2P8MULB` slabs.
//!
//! This module applies the split-nibble decomposition of [`crate::wide`] —
//! `c·b = LO[b & 0xF] ^ HI[b >> 4]` — through the instruction built for it:
//! `PSHUFB` performs sixteen (SSSE3) or thirty-two (AVX2) parallel 16-entry
//! table lookups per cycle. On CPUs with GFNI, GF(2⁸) skips the tables
//! entirely: `GF2P8MULB` multiplies bytes directly in GF(2⁸) modulo
//! `x⁸+x⁴+x³+x+1` (0x11B) — exactly the polynomial [`crate::Gf256`] is
//! built on, so the instruction *is* the field.
//!
//! Everything is runtime-detected (`is_x86_feature_detected!`) and compiled
//! only on x86-64. The slab operations never dispatch here on a CPU without
//! SSSE3 (see [`crate::kernel`]); called directly there, or on another
//! architecture, the entry points stay total by delegating to the portable
//! kernels ([`crate::reference`] for GF(2⁸), [`crate::wide`] for GF(2⁴)).
//!
//! What is left of a row after the last whole vector differs by rung. The
//! `PSHUFB` kernels, which built nibble tables for the multiplier anyway,
//! finish the sub-block tail (&lt; 16/32 bytes) through those tables in
//! scalar code. The GFNI kernels have no tables to fall back on and build
//! none: every one of them finishes in exact-width 32-, 16- and 8-byte
//! `GF2P8MULB` windows plus a register-assembled remainder under 8 bytes
//! (`gf256_multi_tail_gfni`, `gf256_mul_gfni`), which is why
//! [`crate::kernel`] sends GF(2⁸) rows of *every* length here on a GFNI CPU.
//! All of it produces bit-identical bytes; `proptest_kernels` and the
//! per-level lane in this module's tests pin every level to the reference
//! kernel at every row length up to 130 bytes and across the longer
//! block-boundary geometries.
//!
//! The fused gather kernel [`gf256_mul_add_multi`] accumulates many source
//! rows into one destination per memory pass, keeping a tile of the
//! destination in vector registers across all sources. On GFNI machines it
//! runs 128-byte (AVX2) or 256-byte (AVX-512, the `gfni512` level) tiles
//! and the same register-resident accumulator in every narrower window
//! down to the last byte; below GFNI it degrades to a loop of single-row
//! axpys, which is already optimal there because the nibble tables must be
//! rebuilt per source coefficient anyway.

#![allow(
    unsafe_code,
    reason = "the ISA kernels are this workspace's unsafe surface"
)]

use crate::slab::xor_slice;

/// Are the SIMD kernels available on this CPU at all (x86-64 with SSSE3+)?
#[must_use]
pub fn supported() -> bool {
    detail::supported()
}

/// The detected instruction level, for benchmark reports: `"gfni512"`,
/// `"gfni"`, `"avx2"`, `"ssse3"`, or `"portable"` where there is none.
#[must_use]
pub fn level_name() -> &'static str {
    detail::level_name()
}

/// Do the GF(2⁸) kernels here run on `GF2P8MULB` (the `gfni` and `gfni512`
/// levels)? Then no call builds a per-multiplier table, which is what lets
/// [`crate::kernel`] send rows of every length here.
pub(crate) fn gf256_is_table_free() -> bool {
    detail::gf256_is_table_free()
}

/// Test-only: calls `f` once per instruction level this CPU has, weakest
/// first and the delegating `"portable"` one included, with that level
/// forced on the calling thread; `f` receives its [`level_name`].
#[cfg(test)]
pub(crate) fn for_each_level(f: impl FnMut(&'static str)) {
    detail::for_each_level(f);
}

/// `dst[i] = c · dst[i]` over GF(2⁸), SIMD kernel.
pub fn gf256_mul_slice(c: u8, dst: &mut [u8]) {
    if c == 1 {
        return;
    }
    if c == 0 {
        dst.fill(0);
        return;
    }
    detail::gf256_mul_slice(c, dst);
}

/// `dst[i] ^= c · src[i]` over GF(2⁸), SIMD kernel.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn gf256_mul_add_slice(c: u8, src: &[u8], dst: &mut [u8]) {
    assert_eq!(src.len(), dst.len(), "slab operands must have equal length");
    if c == 0 {
        return;
    }
    if c == 1 {
        xor_slice(src, dst);
        return;
    }
    detail::gf256_mul_add_slice(c, src, dst);
}

/// Fused gather `dst[j] ^= Σᵢ factors[i] · srcs_row_i[j]` over GF(2⁸),
/// SIMD kernel. `srcs` holds one contiguous row of `dst.len()` bytes per
/// factor; zero factors are skipped.
///
/// # Panics
///
/// Panics if `srcs.len() != factors.len() * dst.len()`.
pub fn gf256_mul_add_multi(factors: &[u8], srcs: &[u8], dst: &mut [u8]) {
    assert_eq!(
        srcs.len(),
        factors.len() * dst.len(),
        "srcs must hold exactly one row of dst.len() bytes per factor"
    );
    if dst.is_empty() || factors.is_empty() {
        return;
    }
    detail::gf256_mul_add_multi(factors, srcs, dst);
}

/// Blocked panel update `dsts_row_i ^= Σⱼ coefs[i·c + j] · srcs_row_j`
/// over GF(2⁸), SIMD kernel — the BLAS-3 kernel behind
/// `SlabField::mul_add_block`. `coefs` holds `r · c` symbols row-major;
/// `srcs` holds `c` rows and `dsts` holds `r` rows of `row_bytes` each.
///
/// On GFNI hardware a register panel of four destination rows accumulates
/// in vector registers while the source rows stream through once, so each
/// loaded source vector is reused across all four accumulator rows; the
/// column-tile loop keeps one narrow column of every source L1-resident
/// across the whole destination panel. Below GFNI it degrades to one
/// fused gather per destination row.
///
/// # Panics
///
/// Panics if `srcs`/`dsts` are not whole rows or `coefs` is not exactly
/// `r · c` symbols (`row_bytes == 0` requires all slabs empty).
pub fn gf256_mul_add_block(coefs: &[u8], srcs: &[u8], dsts: &mut [u8], row_bytes: usize) {
    if row_bytes == 0 {
        assert!(
            coefs.is_empty() && srcs.is_empty() && dsts.is_empty(),
            "zero row_bytes requires empty panel slabs"
        );
        return;
    }
    assert!(
        srcs.len().is_multiple_of(row_bytes) && dsts.len().is_multiple_of(row_bytes),
        "panel slabs must be whole rows of {row_bytes} bytes"
    );
    let c = srcs.len() / row_bytes;
    let r = dsts.len() / row_bytes;
    assert_eq!(
        coefs.len(),
        r * c,
        "coefficient panel must be exactly r x c packed symbols"
    );
    if r == 0 || c == 0 {
        return;
    }
    detail::gf256_mul_add_block(coefs, srcs, dsts, row_bytes);
}

/// Fused scatter `dsts_row_i ^= factors[i] · src` over GF(2⁸), SIMD kernel.
/// `dsts` holds one contiguous row of `src.len()` bytes per factor; zero
/// factors are skipped. Hoists the kernel dispatch and constant splat out
/// of the per-row loop — back-substitution applies one pivot row to every
/// stored coefficient row, so on short rows the per-row dispatch of a
/// plain axpy loop dominates the actual field work.
///
/// # Panics
///
/// Panics if `dsts.len() != factors.len() * src.len()`.
pub fn gf256_mul_add_scatter(factors: &[u8], src: &[u8], dsts: &mut [u8]) {
    assert_eq!(
        dsts.len(),
        factors.len() * src.len(),
        "dsts must hold exactly one row of src.len() bytes per factor"
    );
    if src.is_empty() || factors.is_empty() {
        return;
    }
    detail::gf256_mul_add_scatter(factors, src, dsts);
}

/// `dst[i] = c · dst[i]` over GF(2⁴), SIMD kernel.
pub fn gf16_mul_slice(c: u8, dst: &mut [u8]) {
    if c == 1 {
        return;
    }
    if c == 0 {
        dst.fill(0);
        return;
    }
    detail::gf16_mul_slice(c, dst);
}

/// `dst[i] ^= c · src[i]` over GF(2⁴), SIMD kernel.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn gf16_mul_add_slice(c: u8, src: &[u8], dst: &mut [u8]) {
    assert_eq!(src.len(), dst.len(), "slab operands must have equal length");
    if c == 0 {
        return;
    }
    if c == 1 {
        xor_slice(src, dst);
        return;
    }
    detail::gf16_mul_add_slice(c, src, dst);
}

#[cfg(target_arch = "x86_64")]
mod detail {
    use std::arch::x86_64::*;
    use std::sync::OnceLock;

    use crate::wide::{self, gf16_nibble_tables, gf256_nibble_tables, NibbleTables};

    /// Detected instruction level, weakest first.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    pub(super) enum Level {
        /// No SSSE3: delegate every call to the portable kernels.
        None,
        Ssse3,
        Avx2,
        /// GFNI + AVX2: `GF2P8MULB` for GF(2⁸); GF(2⁴) uses the AVX2 path.
        Gfni,
        /// GFNI + AVX-512F/BW: 512-bit `GF2P8MULB` for the fused gather
        /// kernel. Single-row axpys stay on the 256-bit path, where they
        /// are already memory-bound and immune to zmm frequency effects.
        Gfni512,
    }

    fn detect() -> Level {
        if is_x86_feature_detected!("gfni")
            && is_x86_feature_detected!("avx512f")
            && is_x86_feature_detected!("avx512bw")
            && is_x86_feature_detected!("avx2")
        {
            Level::Gfni512
        } else if is_x86_feature_detected!("gfni") && is_x86_feature_detected!("avx2") {
            Level::Gfni
        } else if is_x86_feature_detected!("avx2") {
            Level::Avx2
        } else if is_x86_feature_detected!("ssse3") {
            Level::Ssse3
        } else {
            Level::None
        }
    }

    #[cfg(test)]
    thread_local! {
        /// Test-only: runs the calling thread at a level below the detected
        /// one, so the kernels older CPUs execute are exercised here too.
        pub(super) static FORCED: std::cell::Cell<Option<Level>> =
            const { std::cell::Cell::new(None) };
    }

    /// The detected level, or — in this module's own tests only — a lower
    /// one installed through `FORCED`; either way never above what the CPU
    /// supports, which is what every `unsafe` call below relies on.
    pub(super) fn level() -> Level {
        #[cfg(test)]
        if let Some(forced) = FORCED.with(std::cell::Cell::get) {
            return forced;
        }
        static LEVEL: OnceLock<Level> = OnceLock::new();
        *LEVEL.get_or_init(detect)
    }

    pub(super) fn supported() -> bool {
        level() != Level::None
    }

    pub(super) fn gf256_is_table_free() -> bool {
        level() >= Level::Gfni
    }

    #[cfg(test)]
    pub(super) fn for_each_level(mut f: impl FnMut(&'static str)) {
        let detected = level();
        let ladder = [
            Level::None,
            Level::Ssse3,
            Level::Avx2,
            Level::Gfni,
            Level::Gfni512,
        ];
        // Never above `detected`: a forced level must be one the CPU has.
        for forced in ladder.into_iter().filter(|&l| l <= detected) {
            FORCED.set(Some(forced));
            f(level_name());
        }
        // `--test-threads=1` runs the next test on this same thread.
        FORCED.set(None);
    }

    pub(super) fn level_name() -> &'static str {
        match level() {
            Level::Gfni512 => "gfni512",
            Level::Gfni => "gfni",
            Level::Avx2 => "avx2",
            Level::Ssse3 => "ssse3",
            Level::None => "portable",
        }
    }

    pub(super) fn gf256_mul_add_slice(c: u8, src: &[u8], dst: &mut [u8]) {
        match level() {
            // SAFETY: the matched level was runtime-detected (detect()
            // never reports a level the CPU lacks), so gfni+avx2 are legal.
            Level::Gfni512 | Level::Gfni => unsafe { gf256_mul_add_gfni(c, src, dst) },
            // SAFETY: this arm runs only when detect() observed avx2.
            Level::Avx2 => unsafe { mul_add_avx2::<true>(&gf256_nibble_tables(c), src, dst) },
            // SAFETY: this arm runs only when detect() observed ssse3.
            Level::Ssse3 => unsafe { mul_add_ssse3::<true>(&gf256_nibble_tables(c), src, dst) },
            Level::None => crate::reference::gf256_mul_add_slice(c, src, dst),
        }
    }

    pub(super) fn gf256_mul_slice(c: u8, dst: &mut [u8]) {
        match level() {
            // SAFETY: level was runtime-detected, so gfni+avx2 are legal.
            Level::Gfni512 | Level::Gfni => unsafe { gf256_mul_gfni(c, dst) },
            // SAFETY: this arm runs only when detect() observed avx2.
            Level::Avx2 => unsafe { mul_avx2::<true>(&gf256_nibble_tables(c), dst) },
            // SAFETY: this arm runs only when detect() observed ssse3.
            Level::Ssse3 => unsafe { mul_ssse3::<true>(&gf256_nibble_tables(c), dst) },
            Level::None => crate::reference::gf256_mul_slice(c, dst),
        }
    }

    pub(super) fn gf256_mul_add_multi(factors: &[u8], srcs: &[u8], dst: &mut [u8]) {
        match level() {
            // SAFETY: level was runtime-detected; Gfni512 means
            // avx512f+avx512bw+gfni were all observed.
            Level::Gfni512 => unsafe { gf256_mul_add_multi_gfni512(factors, srcs, dst) },
            // SAFETY: this arm runs only when detect() observed gfni+avx2.
            Level::Gfni => unsafe { gf256_mul_add_multi_gfni(factors, srcs, dst) },
            // Below GFNI a fused pass buys nothing: the per-coefficient
            // nibble tables must be rebuilt per source row either way.
            _ => {
                for (&f, row) in factors.iter().zip(srcs.chunks_exact(dst.len())) {
                    if f != 0 {
                        super::gf256_mul_add_slice(f, row, dst);
                    }
                }
            }
        }
    }

    pub(super) fn gf256_mul_add_block(coefs: &[u8], srcs: &[u8], dsts: &mut [u8], rb: usize) {
        match level() {
            // SAFETY: level was runtime-detected; Gfni512 means
            // avx512f+avx512bw+gfni were all observed.
            Level::Gfni512 => unsafe { gf256_mul_add_block_gfni512(coefs, srcs, dsts, rb) },
            // SAFETY: this arm runs only when detect() observed gfni+avx2.
            Level::Gfni => unsafe { gf256_mul_add_block_gfni(coefs, srcs, dsts, rb) },
            // Below GFNI the panel cannot beat one fused gather per
            // destination row: nibble tables are rebuilt per coefficient
            // either way, so there is nothing for a register panel to
            // amortize.
            _ => {
                let c = srcs.len() / rb;
                for (panel, dst) in coefs.chunks_exact(c).zip(dsts.chunks_exact_mut(rb)) {
                    super::gf256_mul_add_multi(panel, srcs, dst);
                }
            }
        }
    }

    pub(super) fn gf256_mul_add_scatter(factors: &[u8], src: &[u8], dsts: &mut [u8]) {
        match level() {
            // SAFETY: level was runtime-detected; Gfni512 means
            // avx512f+avx512bw+gfni were all observed.
            Level::Gfni512 => unsafe { gf256_mul_add_scatter_gfni512(factors, src, dsts) },
            // SAFETY: this arm runs only when detect() observed gfni+avx2.
            Level::Gfni => unsafe { gf256_mul_add_scatter_gfni(factors, src, dsts) },
            // Below GFNI each row needs its per-coefficient nibble tables
            // built anyway; the plain axpy loop is already optimal.
            _ => {
                for (&f, row) in factors.iter().zip(dsts.chunks_exact_mut(src.len())) {
                    if f != 0 {
                        super::gf256_mul_add_slice(f, src, row);
                    }
                }
            }
        }
    }

    pub(super) fn gf16_mul_add_slice(c: u8, src: &[u8], dst: &mut [u8]) {
        match level() {
            // SAFETY: level was runtime-detected; Gfni implies AVX2.
            Level::Gfni512 | Level::Gfni | Level::Avx2 => unsafe {
                mul_add_avx2::<false>(&gf16_nibble_tables(c), src, dst)
            },
            // SAFETY: this arm runs only when detect() observed ssse3.
            Level::Ssse3 => unsafe { mul_add_ssse3::<false>(&gf16_nibble_tables(c), src, dst) },
            Level::None => wide::gf16_mul_add_slice(c, src, dst),
        }
    }

    pub(super) fn gf16_mul_slice(c: u8, dst: &mut [u8]) {
        match level() {
            // SAFETY: level was runtime-detected; Gfni implies AVX2.
            Level::Gfni512 | Level::Gfni | Level::Avx2 => unsafe {
                mul_avx2::<false>(&gf16_nibble_tables(c), dst)
            },
            // SAFETY: this arm runs only when detect() observed ssse3.
            Level::Ssse3 => unsafe { mul_ssse3::<false>(&gf16_nibble_tables(c), dst) },
            Level::None => wide::gf16_mul_slice(c, dst),
        }
    }

    /// Scalar nibble-table tail shared by the `PSHUFB` kernels below.
    fn tail_mul_add(t: &NibbleTables, src: &[u8], dst: &mut [u8]) {
        for (d, s) in dst.iter_mut().zip(src) {
            *d ^= t.lo[(s & 0xF) as usize] ^ t.hi[(s >> 4) as usize];
        }
    }

    fn tail_mul(t: &NibbleTables, dst: &mut [u8]) {
        for d in dst.iter_mut() {
            *d = t.lo[(*d & 0xF) as usize] ^ t.hi[(*d >> 4) as usize];
        }
    }

    /// `HI` (GF(2⁸)) or low-nibble-only (GF(2⁴), canonical packing) product
    /// of one 256-bit block of source bytes.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 support.
    // SAFETY: register-only intrinsics — no memory access; the avx2
    // requirement is discharged by the caller contract above.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn product_block_avx2<const SPLIT: bool>(
        lo: __m256i,
        hi: __m256i,
        mask: __m256i,
        s: __m256i,
    ) -> __m256i {
        let p_lo = _mm256_shuffle_epi8(lo, _mm256_and_si256(s, mask));
        if SPLIT {
            let hi_idx = _mm256_and_si256(_mm256_srli_epi64::<4>(s), mask);
            _mm256_xor_si256(p_lo, _mm256_shuffle_epi8(hi, hi_idx))
        } else {
            p_lo
        }
    }

    /// # Safety
    ///
    /// Caller must have verified AVX2 support.
    // SAFETY: unaligned loads/stores only. Table pointers cover the 16-byte
    // arrays in `t`; `sp`/`dp` offsets stay below `blocks * 32 <= src.len()`
    // and the public wrapper asserts `src.len() == dst.len()`.
    #[target_feature(enable = "avx2")]
    unsafe fn mul_add_avx2<const SPLIT: bool>(t: &NibbleTables, src: &[u8], dst: &mut [u8]) {
        let lo = _mm256_broadcastsi128_si256(_mm_loadu_si128(t.lo.as_ptr().cast()));
        let hi = _mm256_broadcastsi128_si256(_mm_loadu_si128(t.hi.as_ptr().cast()));
        let mask = _mm256_set1_epi8(0x0F);
        let blocks = src.len() / 32;
        for b in 0..blocks {
            let sp = src.as_ptr().add(b * 32).cast();
            let dp = dst.as_mut_ptr().add(b * 32).cast();
            let p = product_block_avx2::<SPLIT>(lo, hi, mask, _mm256_loadu_si256(sp));
            _mm256_storeu_si256(dp, _mm256_xor_si256(_mm256_loadu_si256(dp), p));
        }
        tail_mul_add(t, &src[blocks * 32..], &mut dst[blocks * 32..]);
    }

    /// # Safety
    ///
    /// Caller must have verified AVX2 support.
    // SAFETY: unaligned loads/stores only; `dp` offsets stay below
    // `blocks * 32 <= dst.len()`, in-place within the one slice.
    #[target_feature(enable = "avx2")]
    unsafe fn mul_avx2<const SPLIT: bool>(t: &NibbleTables, dst: &mut [u8]) {
        let lo = _mm256_broadcastsi128_si256(_mm_loadu_si128(t.lo.as_ptr().cast()));
        let hi = _mm256_broadcastsi128_si256(_mm_loadu_si128(t.hi.as_ptr().cast()));
        let mask = _mm256_set1_epi8(0x0F);
        let blocks = dst.len() / 32;
        for b in 0..blocks {
            let dp = dst.as_mut_ptr().add(b * 32).cast();
            let p = product_block_avx2::<SPLIT>(lo, hi, mask, _mm256_loadu_si256(dp));
            _mm256_storeu_si256(dp, p);
        }
        tail_mul(t, &mut dst[blocks * 32..]);
    }

    /// # Safety
    ///
    /// Caller must have verified SSSE3 support.
    // SAFETY: unaligned loads/stores only; `sp`/`dp` offsets stay below
    // `blocks * 16 <= src.len()` and the public wrapper asserts
    // `src.len() == dst.len()`.
    #[target_feature(enable = "ssse3")]
    unsafe fn mul_add_ssse3<const SPLIT: bool>(t: &NibbleTables, src: &[u8], dst: &mut [u8]) {
        let lo = _mm_loadu_si128(t.lo.as_ptr().cast());
        let hi = _mm_loadu_si128(t.hi.as_ptr().cast());
        let mask = _mm_set1_epi8(0x0F);
        let blocks = src.len() / 16;
        for b in 0..blocks {
            let sp = src.as_ptr().add(b * 16).cast();
            let dp = dst.as_mut_ptr().add(b * 16).cast();
            let s = _mm_loadu_si128(sp);
            let mut p = _mm_shuffle_epi8(lo, _mm_and_si128(s, mask));
            if SPLIT {
                let hi_idx = _mm_and_si128(_mm_srli_epi64::<4>(s), mask);
                p = _mm_xor_si128(p, _mm_shuffle_epi8(hi, hi_idx));
            }
            _mm_storeu_si128(dp, _mm_xor_si128(_mm_loadu_si128(dp), p));
        }
        tail_mul_add(t, &src[blocks * 16..], &mut dst[blocks * 16..]);
    }

    /// # Safety
    ///
    /// Caller must have verified SSSE3 support.
    // SAFETY: unaligned loads/stores only; `dp` offsets stay below
    // `blocks * 16 <= dst.len()`, in-place within the one slice.
    #[target_feature(enable = "ssse3")]
    unsafe fn mul_ssse3<const SPLIT: bool>(t: &NibbleTables, dst: &mut [u8]) {
        let lo = _mm_loadu_si128(t.lo.as_ptr().cast());
        let hi = _mm_loadu_si128(t.hi.as_ptr().cast());
        let mask = _mm_set1_epi8(0x0F);
        let blocks = dst.len() / 16;
        for b in 0..blocks {
            let dp: *mut __m128i = dst.as_mut_ptr().add(b * 16).cast();
            let s = _mm_loadu_si128(dp.cast_const());
            let mut p = _mm_shuffle_epi8(lo, _mm_and_si128(s, mask));
            if SPLIT {
                let hi_idx = _mm_and_si128(_mm_srli_epi64::<4>(s), mask);
                p = _mm_xor_si128(p, _mm_shuffle_epi8(hi, hi_idx));
            }
            _mm_storeu_si128(dp, p);
        }
        tail_mul(t, &mut dst[blocks * 16..]);
    }

    /// Width selector of [`load_window`]/[`store_window`] for the last
    /// `n < 8` bytes of a row, beside the exact widths 32, 16 and 8.
    const REMAINDER: usize = 0;

    /// Loads the `W`-byte window at `p` (`W` ∈ {32, 16, 8}) or, for
    /// [`REMAINDER`], the `n < 8` bytes there assembled in a register,
    /// zero-extended to a ymm either way.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 support, and that `W` bytes
    /// ([`REMAINDER`]: `n` bytes) are readable at `p`.
    // SAFETY: unaligned loads only, of exactly `W` bytes; the remainder
    // arm reads 4, 2 and 1 bytes as the bits of `n` say, `n` bytes in all,
    // and never past `p + n`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn load_window<const W: usize>(p: *const u8, n: usize) -> __m256i {
        let low = match W {
            32 => return _mm256_loadu_si256(p.cast()),
            16 => _mm_loadu_si128(p.cast()),
            8 => _mm_loadl_epi64(p.cast()),
            _ => {
                let (mut v, mut at) = (0u64, 0usize);
                if n & 4 != 0 {
                    v = u64::from(p.cast::<u32>().read_unaligned());
                    at = 4;
                }
                if n & 2 != 0 {
                    v |= u64::from(p.add(at).cast::<u16>().read_unaligned()) << (8 * at);
                    at += 2;
                }
                if n & 1 != 0 {
                    v |= u64::from(*p.add(at)) << (8 * at);
                }
                _mm_cvtsi64_si128(v as i64)
            }
        };
        _mm256_zextsi128_si256(low)
    }

    /// Stores the low `W` bytes of `v` (for [`REMAINDER`]: its low `n < 8`
    /// bytes) at `p`: the inverse of [`load_window`], and like it never a
    /// byte wider than asked, so a window cannot reach into the next row.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 support, and that `W` bytes
    /// ([`REMAINDER`]: `n` bytes) are writable at `p`.
    // SAFETY: unaligned stores only, of exactly `W` bytes; the remainder
    // arm writes 4, 2 and 1 bytes as the bits of `n` say, `n` bytes in
    // all, and never past `p + n`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn store_window<const W: usize>(p: *mut u8, n: usize, v: __m256i) {
        let low = _mm256_castsi256_si128(v);
        match W {
            32 => _mm256_storeu_si256(p.cast(), v),
            16 => _mm_storeu_si128(p.cast(), low),
            8 => _mm_storel_epi64(p.cast(), low),
            _ => {
                let (mut bits, mut p) = (_mm_cvtsi128_si64(low) as u64, p);
                if n & 4 != 0 {
                    p.cast::<u32>().write_unaligned(bits as u32);
                    bits >>= 32;
                    p = p.add(4);
                }
                if n & 2 != 0 {
                    p.cast::<u16>().write_unaligned(bits as u16);
                    bits >>= 16;
                    p = p.add(2);
                }
                if n & 1 != 0 {
                    *p = bits as u8;
                }
            }
        }
    }

    /// Walks columns `$base..$len` of a row in the GFNI tail windows —
    /// 32-byte blocks while they last, then at most one each of 16 bytes,
    /// 8 bytes and the remainder under 8 — calling `$window::<W>(args..,
    /// base)` on each. Written once so that every GFNI kernel finishes its
    /// rows the same table-free way; expands inside an `unsafe fn` only.
    macro_rules! tail_windows {
        ($len:expr, $base:expr, $window:ident($($arg:expr),*)) => {{
            let (len, mut base) = ($len, $base);
            for _ in 0..(len - base) / 32 {
                $window::<32>($($arg,)* base);
                base += 32;
            }
            if len - base >= 16 {
                $window::<16>($($arg,)* base);
                base += 16;
            }
            if len - base >= 8 {
                $window::<8>($($arg,)* base);
                base += 8;
            }
            if len > base {
                $window::<REMAINDER>($($arg,)* base);
            }
        }};
    }

    /// One column window of the fused gather, `W` bytes wide at `base`
    /// ([`REMAINDER`]: from `base` to the row end, under 8 bytes): the
    /// window of `dst` sits in one register while every source row's window
    /// is multiplied into it, so `dst` is read and written once whatever
    /// the number of sources.
    ///
    /// # Safety
    ///
    /// Caller must have verified GFNI and AVX2 support, that `srcs` holds
    /// `factors.len()` rows of `dst.len()` bytes, and that the window ends
    /// at or before the row end (`base + W <= dst.len()`; [`REMAINDER`]:
    /// `dst.len() - base < 8`).
    // SAFETY: loads/stores through `load_window`/`store_window` only, `W`
    // (or `rb - base`) bytes at column `base` of `dst` and of source row
    // `i < factors.len()`, which the caller contract keeps inside one row
    // of `rb` bytes.
    #[inline]
    #[target_feature(enable = "gfni,avx2")]
    unsafe fn gather_window<const W: usize>(
        factors: &[u8],
        srcs: &[u8],
        dst: &mut [u8],
        base: usize,
    ) {
        let rb = dst.len();
        let n = rb - base;
        let dp = dst.as_mut_ptr().add(base);
        let mut acc = load_window::<W>(dp, n);
        for (i, &f) in factors.iter().enumerate() {
            if f == 0 {
                continue;
            }
            let s = load_window::<W>(srcs.as_ptr().add(i * rb + base), n);
            acc = _mm256_xor_si256(acc, _mm256_gf2p8mul_epi8(s, _mm256_set1_epi8(f as i8)));
        }
        store_window::<W>(dp, n, acc);
    }

    /// One column window of the fused scatter, the mirror image of
    /// [`gather_window`]: the window of `src` sits in one register while it
    /// is multiplied into the same window of every destination row. Exact
    /// widths matter most here: a window reaching into the next row would
    /// make that row's load wait for this row's store.
    ///
    /// # Safety
    ///
    /// Caller must have verified GFNI and AVX2 support, that `dsts` holds
    /// `factors.len()` rows of `src.len()` bytes, and that the window ends
    /// at or before the row end (`base + W <= src.len()`; [`REMAINDER`]:
    /// `src.len() - base < 8`).
    // SAFETY: loads/stores through `load_window`/`store_window` only, `W`
    // (or `rb - base`) bytes at column `base` of `src` and of destination
    // row `i < factors.len()`, which the caller contract keeps inside one
    // row of `rb` bytes.
    #[inline]
    #[target_feature(enable = "gfni,avx2")]
    unsafe fn scatter_window<const W: usize>(
        factors: &[u8],
        src: &[u8],
        dsts: &mut [u8],
        base: usize,
    ) {
        let rb = src.len();
        let n = rb - base;
        let s = load_window::<W>(src.as_ptr().add(base), n);
        for (i, &f) in factors.iter().enumerate() {
            if f == 0 {
                continue;
            }
            let dp = dsts.as_mut_ptr().add(i * rb + base);
            let p = _mm256_gf2p8mul_epi8(s, _mm256_set1_epi8(f as i8));
            store_window::<W>(dp, n, _mm256_xor_si256(load_window::<W>(dp, n), p));
        }
    }

    /// One window of the in-place product, `dst[base..] = cv · dst[base..]`
    /// over `W` bytes ([`REMAINDER`]: to the end of `dst`, under 8 bytes).
    ///
    /// # Safety
    ///
    /// Caller must have verified GFNI and AVX2 support, and that the window
    /// ends at or before `dst.len()` as for [`gather_window`].
    // SAFETY: one `load_window`/`store_window` pair on `W` (or `len -
    // base`) bytes at offset `base`, inside `dst` per the caller contract.
    #[inline]
    #[target_feature(enable = "gfni,avx2")]
    unsafe fn mul_window<const W: usize>(cv: __m256i, dst: &mut [u8], base: usize) {
        let n = dst.len() - base;
        let p = dst.as_mut_ptr().add(base);
        store_window::<W>(p, n, _mm256_gf2p8mul_epi8(load_window::<W>(p, n), cv));
    }

    /// The table-free tail of the GFNI gathers: the fused gather over
    /// columns `base..` of `dst`, one [`gather_window`] per tail window.
    /// The axpy finishes its row here with one factor, the two gathers and
    /// the AVX2 panel with all of theirs; a short row (a `k`-byte
    /// coefficient row, a 16-byte payload) is nothing but this tail.
    ///
    /// # Safety
    ///
    /// Caller must have verified GFNI and AVX2 support, and that `srcs`
    /// holds `factors.len()` rows of `dst.len()` bytes and `base <=
    /// dst.len()`.
    // SAFETY: `tail_windows` guards every window by `len - base` before
    // `gather_window` touches it, and the caller contract above bounds
    // each source row inside `srcs`.
    #[inline]
    #[target_feature(enable = "gfni,avx2")]
    unsafe fn gf256_multi_tail_gfni(factors: &[u8], srcs: &[u8], dst: &mut [u8], base: usize) {
        tail_windows!(dst.len(), base, gather_window(factors, srcs, dst));
    }

    /// # Safety
    ///
    /// Caller must have verified GFNI and AVX2 support.
    // SAFETY: unaligned loads/stores only; `sp`/`dp` offsets stay below
    // `blocks * 32 <= src.len()` and the public wrapper asserts `src.len()
    // == dst.len()`, so `src` is the one row of `dst.len()` bytes the
    // tail's contract asks for.
    #[target_feature(enable = "gfni,avx2")]
    unsafe fn gf256_mul_add_gfni(c: u8, src: &[u8], dst: &mut [u8]) {
        let cv = _mm256_set1_epi8(c as i8);
        let blocks = src.len() / 32;
        for b in 0..blocks {
            let sp = src.as_ptr().add(b * 32).cast();
            let dp = dst.as_mut_ptr().add(b * 32).cast();
            let p = _mm256_gf2p8mul_epi8(_mm256_loadu_si256(sp), cv);
            _mm256_storeu_si256(dp, _mm256_xor_si256(_mm256_loadu_si256(dp), p));
        }
        if blocks * 32 < src.len() {
            gf256_multi_tail_gfni(std::slice::from_ref(&c), src, dst, blocks * 32);
        }
    }

    /// Fused gather over 128-byte destination tiles: the tile lives in four
    /// ymm accumulators across *all* source rows, so `dst` is read and
    /// written once per pass instead of once per source.
    ///
    /// # Safety
    ///
    /// Caller must have verified GFNI and AVX2 support.
    // SAFETY: unaligned loads/stores only. `dp` tile offsets stay below
    // `tiles * 128 <= dst.len()`; `sp` row offsets stay inside `srcs`
    // because the public wrapper asserts `srcs.len() == factors.len() *
    // dst.len()` and `i < factors.len()`, `base + 127 < rb`.
    #[target_feature(enable = "gfni,avx2")]
    unsafe fn gf256_mul_add_multi_gfni(factors: &[u8], srcs: &[u8], dst: &mut [u8]) {
        const TILE: usize = 128;
        let rb = dst.len();
        let tiles = rb / TILE;
        for t in 0..tiles {
            let base = t * TILE;
            let dp = dst.as_mut_ptr().add(base);
            let mut acc0 = _mm256_loadu_si256(dp.cast());
            let mut acc1 = _mm256_loadu_si256(dp.add(32).cast());
            let mut acc2 = _mm256_loadu_si256(dp.add(64).cast());
            let mut acc3 = _mm256_loadu_si256(dp.add(96).cast());
            for (i, &f) in factors.iter().enumerate() {
                if f == 0 {
                    continue;
                }
                let cv = _mm256_set1_epi8(f as i8);
                let sp = srcs.as_ptr().add(i * rb + base);
                acc0 = _mm256_xor_si256(
                    acc0,
                    _mm256_gf2p8mul_epi8(_mm256_loadu_si256(sp.cast()), cv),
                );
                acc1 = _mm256_xor_si256(
                    acc1,
                    _mm256_gf2p8mul_epi8(_mm256_loadu_si256(sp.add(32).cast()), cv),
                );
                acc2 = _mm256_xor_si256(
                    acc2,
                    _mm256_gf2p8mul_epi8(_mm256_loadu_si256(sp.add(64).cast()), cv),
                );
                acc3 = _mm256_xor_si256(
                    acc3,
                    _mm256_gf2p8mul_epi8(_mm256_loadu_si256(sp.add(96).cast()), cv),
                );
            }
            _mm256_storeu_si256(dp.cast(), acc0);
            _mm256_storeu_si256(dp.add(32).cast(), acc1);
            _mm256_storeu_si256(dp.add(64).cast(), acc2);
            _mm256_storeu_si256(dp.add(96).cast(), acc3);
        }
        gf256_multi_tail_gfni(factors, srcs, dst, tiles * TILE);
    }

    /// As [`gf256_mul_add_multi_gfni`] with 256-byte tiles in four zmm
    /// accumulators.
    ///
    /// # Safety
    ///
    /// Caller must have verified GFNI, AVX-512F, AVX-512BW and AVX2 support.
    // SAFETY: unaligned loads/stores only. Tile and sub-tile loops guard
    // `base + {256,128,64} <= rb` before touching `dst[base..]`; `sp` row
    // offsets stay inside `srcs` (wrapper asserts `srcs.len() ==
    // factors.len() * dst.len()`); `get_unchecked(i)` has `i < n`.
    #[target_feature(enable = "gfni,avx512f,avx512bw,avx2")]
    unsafe fn gf256_mul_add_multi_gfni512(factors: &[u8], srcs: &[u8], dst: &mut [u8]) {
        const TILE: usize = 256;
        let rb = dst.len();
        let tiles = rb / TILE;
        for t in 0..tiles {
            let base = t * TILE;
            let dp = dst.as_mut_ptr().add(base);
            let mut acc0 = _mm512_loadu_si512(dp.cast());
            let mut acc1 = _mm512_loadu_si512(dp.add(64).cast());
            let mut acc2 = _mm512_loadu_si512(dp.add(128).cast());
            let mut acc3 = _mm512_loadu_si512(dp.add(192).cast());
            for (i, &f) in factors.iter().enumerate() {
                if f == 0 {
                    continue;
                }
                let cv = _mm512_set1_epi8(f as i8);
                let sp = srcs.as_ptr().add(i * rb + base);
                acc0 = _mm512_xor_si512(
                    acc0,
                    _mm512_gf2p8mul_epi8(_mm512_loadu_si512(sp.cast()), cv),
                );
                acc1 = _mm512_xor_si512(
                    acc1,
                    _mm512_gf2p8mul_epi8(_mm512_loadu_si512(sp.add(64).cast()), cv),
                );
                acc2 = _mm512_xor_si512(
                    acc2,
                    _mm512_gf2p8mul_epi8(_mm512_loadu_si512(sp.add(128).cast()), cv),
                );
                acc3 = _mm512_xor_si512(
                    acc3,
                    _mm512_gf2p8mul_epi8(_mm512_loadu_si512(sp.add(192).cast()), cv),
                );
            }
            _mm512_storeu_si512(dp.cast(), acc0);
            _mm512_storeu_si512(dp.add(64).cast(), acc1);
            _mm512_storeu_si512(dp.add(128).cast(), acc2);
            _mm512_storeu_si512(dp.add(192).cast(), acc3);
        }
        // Fused sub-tile tails. Without these, rows shorter than a full
        // tile would degrade to one axpy pass per source. The 128-byte
        // block (the whole coefficient row of a k = 128 basis) splits the
        // sources between two accumulator pairs so the xor chain is half
        // as deep as a single-accumulator loop.
        let mut base = tiles * TILE;
        while base + 128 <= rb {
            let dp = dst.as_mut_ptr().add(base);
            let mut a0 = _mm512_loadu_si512(dp.cast());
            let mut a1 = _mm512_setzero_si512();
            let mut b0 = _mm512_loadu_si512(dp.add(64).cast());
            let mut b1 = _mm512_setzero_si512();
            let n = factors.len();
            let mut i = 0;
            while i < n {
                let f = *factors.get_unchecked(i);
                if f != 0 {
                    let cv = _mm512_set1_epi8(f as i8);
                    let sp = srcs.as_ptr().add(i * rb + base);
                    a0 = _mm512_xor_si512(
                        a0,
                        _mm512_gf2p8mul_epi8(_mm512_loadu_si512(sp.cast()), cv),
                    );
                    b0 = _mm512_xor_si512(
                        b0,
                        _mm512_gf2p8mul_epi8(_mm512_loadu_si512(sp.add(64).cast()), cv),
                    );
                }
                i += 1;
                if i < n {
                    let f = *factors.get_unchecked(i);
                    if f != 0 {
                        let cv = _mm512_set1_epi8(f as i8);
                        let sp = srcs.as_ptr().add(i * rb + base);
                        a1 = _mm512_xor_si512(
                            a1,
                            _mm512_gf2p8mul_epi8(_mm512_loadu_si512(sp.cast()), cv),
                        );
                        b1 = _mm512_xor_si512(
                            b1,
                            _mm512_gf2p8mul_epi8(_mm512_loadu_si512(sp.add(64).cast()), cv),
                        );
                    }
                    i += 1;
                }
            }
            _mm512_storeu_si512(dp.cast(), _mm512_xor_si512(a0, a1));
            _mm512_storeu_si512(dp.add(64).cast(), _mm512_xor_si512(b0, b1));
            base += 128;
        }
        while base + 64 <= rb {
            let dp = dst.as_mut_ptr().add(base);
            let mut acc = _mm512_loadu_si512(dp.cast());
            for (i, &f) in factors.iter().enumerate() {
                if f == 0 {
                    continue;
                }
                let cv = _mm512_set1_epi8(f as i8);
                let sp = srcs.as_ptr().add(i * rb + base);
                acc =
                    _mm512_xor_si512(acc, _mm512_gf2p8mul_epi8(_mm512_loadu_si512(sp.cast()), cv));
            }
            _mm512_storeu_si512(dp.cast(), acc);
            base += 64;
        }
        gf256_multi_tail_gfni(factors, srcs, dst, base);
    }

    /// Register-blocked BLAS-3 panel: four destination rows × 128 payload
    /// bytes live in eight zmm accumulators while the `c` source rows
    /// stream through, so every loaded source vector feeds four
    /// multiply-accumulates before it leaves registers. The outer loop
    /// walks 128-byte column tiles — one column of all `c` sources
    /// (≤ 16 KiB at c = 128) stays L1-resident while every destination
    /// panel consumes it. Ragged columns finish with a 64-byte pass and an
    /// AVX-512BW byte-masked pass, so no scalar cleanup exists; the `r % 4`
    /// leftover destination rows fall back to one fused gather each.
    ///
    /// # Safety
    ///
    /// Caller must have verified GFNI, AVX-512F, AVX-512BW and AVX2
    /// support, and that `coefs` is `r·c` bytes, `srcs` is `c` rows and
    /// `dsts` is `r` rows of `rb` bytes each (the public wrapper asserts
    /// this).
    // SAFETY: unaligned and byte-masked loads/stores only. The tile loops
    // guard `base + {128,64} <= rb` before touching column `base`, and the
    // masked pass clamps every lane at or past `rb - base` via `k0`, so no
    // access crosses a row end. Panel row indices stay `< panels * 4 <= r`
    // and source indices `j < c`, keeping `dp`/`sp`/`cp` offsets inside
    // their slabs per the caller contract above.
    #[target_feature(enable = "gfni,avx512f,avx512bw,avx2")]
    unsafe fn gf256_mul_add_block_gfni512(coefs: &[u8], srcs: &[u8], dsts: &mut [u8], rb: usize) {
        let c = srcs.len() / rb;
        let r = dsts.len() / rb;
        let panels = r / 4;
        let mut base = 0usize;
        while base + 128 <= rb {
            for p in 0..panels {
                let cp = coefs.as_ptr().add(p * 4 * c);
                let dp = dsts.as_mut_ptr().add(p * 4 * rb + base);
                let mut a0 = _mm512_loadu_si512(dp.cast());
                let mut a1 = _mm512_loadu_si512(dp.add(64).cast());
                let mut b0 = _mm512_loadu_si512(dp.add(rb).cast());
                let mut b1 = _mm512_loadu_si512(dp.add(rb + 64).cast());
                let mut c0 = _mm512_loadu_si512(dp.add(2 * rb).cast());
                let mut c1 = _mm512_loadu_si512(dp.add(2 * rb + 64).cast());
                let mut d0 = _mm512_loadu_si512(dp.add(3 * rb).cast());
                let mut d1 = _mm512_loadu_si512(dp.add(3 * rb + 64).cast());
                // Sources go two at a time so each accumulator update is a
                // single VPTERNLOGD (acc ^ ma ^ mb, imm 0x96) instead of two
                // VPXORDs: GF2P8MULB, VPXORD and VPBROADCASTB all compete
                // for the same two vector ports, so halving the xor count
                // lifts the port-bound ceiling of the whole panel.
                let mut j = 0usize;
                while j + 2 <= c {
                    let f0a = *cp.add(j);
                    let f1a = *cp.add(c + j);
                    let f2a = *cp.add(2 * c + j);
                    let f3a = *cp.add(3 * c + j);
                    let f0b = *cp.add(j + 1);
                    let f1b = *cp.add(c + j + 1);
                    let f2b = *cp.add(2 * c + j + 1);
                    let f3b = *cp.add(3 * c + j + 1);
                    if f0a | f1a | f2a | f3a | f0b | f1b | f2b | f3b == 0 {
                        j += 2;
                        continue;
                    }
                    let spa = srcs.as_ptr().add(j * rb + base);
                    let spb = srcs.as_ptr().add((j + 1) * rb + base);
                    let sa0 = _mm512_loadu_si512(spa.cast());
                    let sa1 = _mm512_loadu_si512(spa.add(64).cast());
                    let sb0 = _mm512_loadu_si512(spb.cast());
                    let sb1 = _mm512_loadu_si512(spb.add(64).cast());
                    let ca = _mm512_set1_epi8(f0a as i8);
                    let cb = _mm512_set1_epi8(f0b as i8);
                    a0 = _mm512_ternarylogic_epi64(
                        a0,
                        _mm512_gf2p8mul_epi8(sa0, ca),
                        _mm512_gf2p8mul_epi8(sb0, cb),
                        0x96,
                    );
                    a1 = _mm512_ternarylogic_epi64(
                        a1,
                        _mm512_gf2p8mul_epi8(sa1, ca),
                        _mm512_gf2p8mul_epi8(sb1, cb),
                        0x96,
                    );
                    let ca = _mm512_set1_epi8(f1a as i8);
                    let cb = _mm512_set1_epi8(f1b as i8);
                    b0 = _mm512_ternarylogic_epi64(
                        b0,
                        _mm512_gf2p8mul_epi8(sa0, ca),
                        _mm512_gf2p8mul_epi8(sb0, cb),
                        0x96,
                    );
                    b1 = _mm512_ternarylogic_epi64(
                        b1,
                        _mm512_gf2p8mul_epi8(sa1, ca),
                        _mm512_gf2p8mul_epi8(sb1, cb),
                        0x96,
                    );
                    let ca = _mm512_set1_epi8(f2a as i8);
                    let cb = _mm512_set1_epi8(f2b as i8);
                    c0 = _mm512_ternarylogic_epi64(
                        c0,
                        _mm512_gf2p8mul_epi8(sa0, ca),
                        _mm512_gf2p8mul_epi8(sb0, cb),
                        0x96,
                    );
                    c1 = _mm512_ternarylogic_epi64(
                        c1,
                        _mm512_gf2p8mul_epi8(sa1, ca),
                        _mm512_gf2p8mul_epi8(sb1, cb),
                        0x96,
                    );
                    let ca = _mm512_set1_epi8(f3a as i8);
                    let cb = _mm512_set1_epi8(f3b as i8);
                    d0 = _mm512_ternarylogic_epi64(
                        d0,
                        _mm512_gf2p8mul_epi8(sa0, ca),
                        _mm512_gf2p8mul_epi8(sb0, cb),
                        0x96,
                    );
                    d1 = _mm512_ternarylogic_epi64(
                        d1,
                        _mm512_gf2p8mul_epi8(sa1, ca),
                        _mm512_gf2p8mul_epi8(sb1, cb),
                        0x96,
                    );
                    j += 2;
                }
                if j < c {
                    let f0 = *cp.add(j);
                    let f1 = *cp.add(c + j);
                    let f2 = *cp.add(2 * c + j);
                    let f3 = *cp.add(3 * c + j);
                    if f0 | f1 | f2 | f3 != 0 {
                        let sp = srcs.as_ptr().add(j * rb + base);
                        let s0 = _mm512_loadu_si512(sp.cast());
                        let s1 = _mm512_loadu_si512(sp.add(64).cast());
                        let cv = _mm512_set1_epi8(f0 as i8);
                        a0 = _mm512_xor_si512(a0, _mm512_gf2p8mul_epi8(s0, cv));
                        a1 = _mm512_xor_si512(a1, _mm512_gf2p8mul_epi8(s1, cv));
                        let cv = _mm512_set1_epi8(f1 as i8);
                        b0 = _mm512_xor_si512(b0, _mm512_gf2p8mul_epi8(s0, cv));
                        b1 = _mm512_xor_si512(b1, _mm512_gf2p8mul_epi8(s1, cv));
                        let cv = _mm512_set1_epi8(f2 as i8);
                        c0 = _mm512_xor_si512(c0, _mm512_gf2p8mul_epi8(s0, cv));
                        c1 = _mm512_xor_si512(c1, _mm512_gf2p8mul_epi8(s1, cv));
                        let cv = _mm512_set1_epi8(f3 as i8);
                        d0 = _mm512_xor_si512(d0, _mm512_gf2p8mul_epi8(s0, cv));
                        d1 = _mm512_xor_si512(d1, _mm512_gf2p8mul_epi8(s1, cv));
                    }
                }
                _mm512_storeu_si512(dp.cast(), a0);
                _mm512_storeu_si512(dp.add(64).cast(), a1);
                _mm512_storeu_si512(dp.add(rb).cast(), b0);
                _mm512_storeu_si512(dp.add(rb + 64).cast(), b1);
                _mm512_storeu_si512(dp.add(2 * rb).cast(), c0);
                _mm512_storeu_si512(dp.add(2 * rb + 64).cast(), c1);
                _mm512_storeu_si512(dp.add(3 * rb).cast(), d0);
                _mm512_storeu_si512(dp.add(3 * rb + 64).cast(), d1);
            }
            base += 128;
        }
        if base + 64 <= rb {
            for p in 0..panels {
                let cp = coefs.as_ptr().add(p * 4 * c);
                let dp = dsts.as_mut_ptr().add(p * 4 * rb + base);
                let mut a0 = _mm512_loadu_si512(dp.cast());
                let mut b0 = _mm512_loadu_si512(dp.add(rb).cast());
                let mut c0 = _mm512_loadu_si512(dp.add(2 * rb).cast());
                let mut d0 = _mm512_loadu_si512(dp.add(3 * rb).cast());
                for j in 0..c {
                    let f0 = *cp.add(j);
                    let f1 = *cp.add(c + j);
                    let f2 = *cp.add(2 * c + j);
                    let f3 = *cp.add(3 * c + j);
                    if f0 | f1 | f2 | f3 == 0 {
                        continue;
                    }
                    let s0 = _mm512_loadu_si512(srcs.as_ptr().add(j * rb + base).cast());
                    let cv = _mm512_set1_epi8(f0 as i8);
                    a0 = _mm512_xor_si512(a0, _mm512_gf2p8mul_epi8(s0, cv));
                    let cv = _mm512_set1_epi8(f1 as i8);
                    b0 = _mm512_xor_si512(b0, _mm512_gf2p8mul_epi8(s0, cv));
                    let cv = _mm512_set1_epi8(f2 as i8);
                    c0 = _mm512_xor_si512(c0, _mm512_gf2p8mul_epi8(s0, cv));
                    let cv = _mm512_set1_epi8(f3 as i8);
                    d0 = _mm512_xor_si512(d0, _mm512_gf2p8mul_epi8(s0, cv));
                }
                _mm512_storeu_si512(dp.cast(), a0);
                _mm512_storeu_si512(dp.add(rb).cast(), b0);
                _mm512_storeu_si512(dp.add(2 * rb).cast(), c0);
                _mm512_storeu_si512(dp.add(3 * rb).cast(), d0);
            }
            base += 64;
        }
        if base < rb {
            let rem = rb - base; // 1..=63
            let k0: __mmask64 = (1u64 << rem) - 1;
            for p in 0..panels {
                let cp = coefs.as_ptr().add(p * 4 * c);
                let dp = dsts.as_mut_ptr().add(p * 4 * rb + base);
                let mut a0 = _mm512_maskz_loadu_epi8(k0, dp.cast());
                let mut b0 = _mm512_maskz_loadu_epi8(k0, dp.add(rb).cast());
                let mut c0 = _mm512_maskz_loadu_epi8(k0, dp.add(2 * rb).cast());
                let mut d0 = _mm512_maskz_loadu_epi8(k0, dp.add(3 * rb).cast());
                for j in 0..c {
                    let f0 = *cp.add(j);
                    let f1 = *cp.add(c + j);
                    let f2 = *cp.add(2 * c + j);
                    let f3 = *cp.add(3 * c + j);
                    if f0 | f1 | f2 | f3 == 0 {
                        continue;
                    }
                    let s0 = _mm512_maskz_loadu_epi8(k0, srcs.as_ptr().add(j * rb + base).cast());
                    let cv = _mm512_set1_epi8(f0 as i8);
                    a0 = _mm512_xor_si512(a0, _mm512_gf2p8mul_epi8(s0, cv));
                    let cv = _mm512_set1_epi8(f1 as i8);
                    b0 = _mm512_xor_si512(b0, _mm512_gf2p8mul_epi8(s0, cv));
                    let cv = _mm512_set1_epi8(f2 as i8);
                    c0 = _mm512_xor_si512(c0, _mm512_gf2p8mul_epi8(s0, cv));
                    let cv = _mm512_set1_epi8(f3 as i8);
                    d0 = _mm512_xor_si512(d0, _mm512_gf2p8mul_epi8(s0, cv));
                }
                _mm512_mask_storeu_epi8(dp.cast(), k0, a0);
                _mm512_mask_storeu_epi8(dp.add(rb).cast(), k0, b0);
                _mm512_mask_storeu_epi8(dp.add(2 * rb).cast(), k0, c0);
                _mm512_mask_storeu_epi8(dp.add(3 * rb).cast(), k0, d0);
            }
        }
        for i in panels * 4..r {
            gf256_mul_add_multi_gfni512(
                &coefs[i * c..(i + 1) * c],
                srcs,
                &mut dsts[i * rb..(i + 1) * rb],
            );
        }
    }

    /// As [`gf256_mul_add_block_gfni512`] with four-row × 64-byte ymm
    /// panels (eight ymm accumulators), a 32-byte column pass, and one
    /// fused gather tail per panel row for the last `rb % 32` bytes.
    ///
    /// # Safety
    ///
    /// Caller must have verified GFNI and AVX2 support, and that `coefs`
    /// is `r·c` bytes, `srcs` is `c` rows and `dsts` is `r` rows of `rb`
    /// bytes each (the public wrapper asserts this).
    // SAFETY: unaligned loads/stores only. The tile loops guard
    // `base + {64,32} <= rb` before touching column `base`; the tail and
    // leftover-row gathers get checked slices of one `rb`-byte row each
    // beside all `c` sources. Panel row indices stay `< panels * 4 <= r`
    // and source indices `j < c`, keeping `dp`/`sp`/`cp` offsets inside
    // their slabs per the caller contract.
    #[target_feature(enable = "gfni,avx2")]
    unsafe fn gf256_mul_add_block_gfni(coefs: &[u8], srcs: &[u8], dsts: &mut [u8], rb: usize) {
        let c = srcs.len() / rb;
        let r = dsts.len() / rb;
        let panels = r / 4;
        let mut base = 0usize;
        while base + 64 <= rb {
            for p in 0..panels {
                let cp = coefs.as_ptr().add(p * 4 * c);
                let dp = dsts.as_mut_ptr().add(p * 4 * rb + base);
                let mut a0 = _mm256_loadu_si256(dp.cast());
                let mut a1 = _mm256_loadu_si256(dp.add(32).cast());
                let mut b0 = _mm256_loadu_si256(dp.add(rb).cast());
                let mut b1 = _mm256_loadu_si256(dp.add(rb + 32).cast());
                let mut c0 = _mm256_loadu_si256(dp.add(2 * rb).cast());
                let mut c1 = _mm256_loadu_si256(dp.add(2 * rb + 32).cast());
                let mut d0 = _mm256_loadu_si256(dp.add(3 * rb).cast());
                let mut d1 = _mm256_loadu_si256(dp.add(3 * rb + 32).cast());
                for j in 0..c {
                    let f0 = *cp.add(j);
                    let f1 = *cp.add(c + j);
                    let f2 = *cp.add(2 * c + j);
                    let f3 = *cp.add(3 * c + j);
                    if f0 | f1 | f2 | f3 == 0 {
                        continue;
                    }
                    let sp = srcs.as_ptr().add(j * rb + base);
                    let s0 = _mm256_loadu_si256(sp.cast());
                    let s1 = _mm256_loadu_si256(sp.add(32).cast());
                    let cv = _mm256_set1_epi8(f0 as i8);
                    a0 = _mm256_xor_si256(a0, _mm256_gf2p8mul_epi8(s0, cv));
                    a1 = _mm256_xor_si256(a1, _mm256_gf2p8mul_epi8(s1, cv));
                    let cv = _mm256_set1_epi8(f1 as i8);
                    b0 = _mm256_xor_si256(b0, _mm256_gf2p8mul_epi8(s0, cv));
                    b1 = _mm256_xor_si256(b1, _mm256_gf2p8mul_epi8(s1, cv));
                    let cv = _mm256_set1_epi8(f2 as i8);
                    c0 = _mm256_xor_si256(c0, _mm256_gf2p8mul_epi8(s0, cv));
                    c1 = _mm256_xor_si256(c1, _mm256_gf2p8mul_epi8(s1, cv));
                    let cv = _mm256_set1_epi8(f3 as i8);
                    d0 = _mm256_xor_si256(d0, _mm256_gf2p8mul_epi8(s0, cv));
                    d1 = _mm256_xor_si256(d1, _mm256_gf2p8mul_epi8(s1, cv));
                }
                _mm256_storeu_si256(dp.cast(), a0);
                _mm256_storeu_si256(dp.add(32).cast(), a1);
                _mm256_storeu_si256(dp.add(rb).cast(), b0);
                _mm256_storeu_si256(dp.add(rb + 32).cast(), b1);
                _mm256_storeu_si256(dp.add(2 * rb).cast(), c0);
                _mm256_storeu_si256(dp.add(2 * rb + 32).cast(), c1);
                _mm256_storeu_si256(dp.add(3 * rb).cast(), d0);
                _mm256_storeu_si256(dp.add(3 * rb + 32).cast(), d1);
            }
            base += 64;
        }
        if base + 32 <= rb {
            for p in 0..panels {
                let cp = coefs.as_ptr().add(p * 4 * c);
                let dp = dsts.as_mut_ptr().add(p * 4 * rb + base);
                let mut a0 = _mm256_loadu_si256(dp.cast());
                let mut b0 = _mm256_loadu_si256(dp.add(rb).cast());
                let mut c0 = _mm256_loadu_si256(dp.add(2 * rb).cast());
                let mut d0 = _mm256_loadu_si256(dp.add(3 * rb).cast());
                for j in 0..c {
                    let f0 = *cp.add(j);
                    let f1 = *cp.add(c + j);
                    let f2 = *cp.add(2 * c + j);
                    let f3 = *cp.add(3 * c + j);
                    if f0 | f1 | f2 | f3 == 0 {
                        continue;
                    }
                    let s0 = _mm256_loadu_si256(srcs.as_ptr().add(j * rb + base).cast());
                    let cv = _mm256_set1_epi8(f0 as i8);
                    a0 = _mm256_xor_si256(a0, _mm256_gf2p8mul_epi8(s0, cv));
                    let cv = _mm256_set1_epi8(f1 as i8);
                    b0 = _mm256_xor_si256(b0, _mm256_gf2p8mul_epi8(s0, cv));
                    let cv = _mm256_set1_epi8(f2 as i8);
                    c0 = _mm256_xor_si256(c0, _mm256_gf2p8mul_epi8(s0, cv));
                    let cv = _mm256_set1_epi8(f3 as i8);
                    d0 = _mm256_xor_si256(d0, _mm256_gf2p8mul_epi8(s0, cv));
                }
                _mm256_storeu_si256(dp.cast(), a0);
                _mm256_storeu_si256(dp.add(rb).cast(), b0);
                _mm256_storeu_si256(dp.add(2 * rb).cast(), c0);
                _mm256_storeu_si256(dp.add(3 * rb).cast(), d0);
            }
            base += 32;
        }
        if base < rb {
            for i in 0..panels * 4 {
                gf256_multi_tail_gfni(
                    &coefs[i * c..(i + 1) * c],
                    srcs,
                    &mut dsts[i * rb..(i + 1) * rb],
                    base,
                );
            }
        }
        for i in panels * 4..r {
            gf256_mul_add_multi_gfni(
                &coefs[i * c..(i + 1) * c],
                srcs,
                &mut dsts[i * rb..(i + 1) * rb],
            );
        }
    }

    /// Fused scatter: each destination row gets `factors[i] · src` with
    /// the dispatch hoisted out of the row loop. Whole 32-byte blocks go
    /// row by row (`src` stays cache-hot across rows); what is left of the
    /// rows — all of a short row — goes window by window through
    /// [`scatter_window`], `src` in a register across all rows.
    ///
    /// # Safety
    ///
    /// Caller must have verified GFNI and AVX2 support, and that `dsts`
    /// holds `factors.len()` rows of `src.len()` bytes.
    // SAFETY: unaligned loads/stores only; `sp` stays below `blocks * 32
    // <= src.len()` and `dp` points into `row`, a checked slice of `dsts`
    // with exactly `rb = src.len()` bytes; `tail_windows` guards every
    // window by `len - base` and the caller contract bounds its rows.
    #[target_feature(enable = "gfni,avx2")]
    unsafe fn gf256_mul_add_scatter_gfni(factors: &[u8], src: &[u8], dsts: &mut [u8]) {
        let rb = src.len();
        let blocks = rb / 32;
        if blocks > 0 {
            for (i, &f) in factors.iter().enumerate() {
                if f == 0 {
                    continue;
                }
                let cv = _mm256_set1_epi8(f as i8);
                let row = &mut dsts[i * rb..(i + 1) * rb];
                for b in 0..blocks {
                    let sp = src.as_ptr().add(b * 32).cast();
                    let dp: *mut __m256i = row.as_mut_ptr().add(b * 32).cast();
                    let p = _mm256_gf2p8mul_epi8(_mm256_loadu_si256(sp), cv);
                    _mm256_storeu_si256(
                        dp,
                        _mm256_xor_si256(_mm256_loadu_si256(dp.cast_const()), p),
                    );
                }
            }
        }
        tail_windows!(rb, blocks * 32, scatter_window(factors, src, dsts));
    }

    /// As [`gf256_mul_add_scatter_gfni`] with 64-byte zmm blocks.
    ///
    /// # Safety
    ///
    /// Caller must have verified GFNI, AVX-512F, AVX-512BW and AVX2
    /// support, and that `dsts` holds `factors.len()` rows of `src.len()`
    /// bytes.
    // SAFETY: unaligned loads/stores only; `sp` stays below `blocks * 64
    // <= src.len()` and `dp` points into `row`, a checked slice of `dsts`
    // with exactly `rb = src.len()` bytes; `tail_windows` guards every
    // window by `len - base` and the caller contract bounds its rows.
    #[target_feature(enable = "gfni,avx512f,avx512bw,avx2")]
    unsafe fn gf256_mul_add_scatter_gfni512(factors: &[u8], src: &[u8], dsts: &mut [u8]) {
        let rb = src.len();
        let blocks = rb / 64;
        if blocks > 0 {
            for (i, &f) in factors.iter().enumerate() {
                if f == 0 {
                    continue;
                }
                let cv = _mm512_set1_epi8(f as i8);
                let row = &mut dsts[i * rb..(i + 1) * rb];
                for b in 0..blocks {
                    let sp = src.as_ptr().add(b * 64).cast();
                    let dp = row.as_mut_ptr().add(b * 64);
                    let p = _mm512_gf2p8mul_epi8(_mm512_loadu_si512(sp), cv);
                    _mm512_storeu_si512(
                        dp.cast(),
                        _mm512_xor_si512(_mm512_loadu_si512(dp.cast()), p),
                    );
                }
            }
        }
        tail_windows!(rb, blocks * 64, scatter_window(factors, src, dsts));
    }

    /// The in-place product, one [`mul_window`] per tail window from the
    /// first byte on: the 32-byte blocks of a long row are that walk's
    /// leading loop.
    ///
    /// # Safety
    ///
    /// Caller must have verified GFNI and AVX2 support.
    // SAFETY: `tail_windows` guards every window by `len - base` before
    // `mul_window` touches it.
    #[target_feature(enable = "gfni,avx2")]
    unsafe fn gf256_mul_gfni(c: u8, dst: &mut [u8]) {
        let cv = _mm256_set1_epi8(c as i8);
        tail_windows!(dst.len(), 0, mul_window(cv, dst));
    }
}

#[cfg(not(target_arch = "x86_64"))]
mod detail {
    //! Non-x86-64 hosts: every entry point is an alias of a portable kernel.
    use crate::{reference, wide};

    pub(super) fn supported() -> bool {
        false
    }

    pub(super) fn level_name() -> &'static str {
        "portable"
    }

    pub(super) fn gf256_is_table_free() -> bool {
        false
    }

    #[cfg(test)]
    pub(super) fn for_each_level(mut f: impl FnMut(&'static str)) {
        f(level_name());
    }

    pub(super) fn gf256_mul_add_slice(c: u8, src: &[u8], dst: &mut [u8]) {
        reference::gf256_mul_add_slice(c, src, dst);
    }

    pub(super) fn gf256_mul_slice(c: u8, dst: &mut [u8]) {
        reference::gf256_mul_slice(c, dst);
    }

    pub(super) fn gf256_mul_add_multi(factors: &[u8], srcs: &[u8], dst: &mut [u8]) {
        for (&f, row) in factors.iter().zip(srcs.chunks_exact(dst.len())) {
            reference::gf256_mul_add_slice(f, row, dst);
        }
    }

    pub(super) fn gf256_mul_add_scatter(factors: &[u8], src: &[u8], dsts: &mut [u8]) {
        for (&f, row) in factors.iter().zip(dsts.chunks_exact_mut(src.len())) {
            reference::gf256_mul_add_slice(f, src, row);
        }
    }

    pub(super) fn gf256_mul_add_block(coefs: &[u8], srcs: &[u8], dsts: &mut [u8], rb: usize) {
        let c = srcs.len() / rb;
        for (panel, dst) in coefs.chunks_exact(c).zip(dsts.chunks_exact_mut(rb)) {
            gf256_mul_add_multi(panel, srcs, dst);
        }
    }

    pub(super) fn gf16_mul_add_slice(c: u8, src: &[u8], dst: &mut [u8]) {
        wide::gf16_mul_add_slice(c, src, dst);
    }

    pub(super) fn gf16_mul_slice(c: u8, dst: &mut [u8]) {
        wide::gf16_mul_slice(c, dst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every row length from empty through the first whole vectors — each
    /// exact-width window, every remainder under 8 bytes, and both sides of
    /// `SHORT_ROW_BYTES` — then the given longer tile-boundary lengths.
    fn lengths(long: &[usize]) -> impl Iterator<Item = usize> + '_ {
        (0..=130).chain(long.iter().copied())
    }

    #[test]
    fn simd_matches_reference_at_every_length() {
        let src: Vec<u8> = (0..200u8)
            .map(|b| b.wrapping_mul(101).wrapping_add(7))
            .collect();
        for c in [0u8, 1, 2, 0x57, 0x8E, 0xFF] {
            for len in lengths(&[200]) {
                let mut want = vec![0xC3u8; len];
                crate::reference::gf256_mul_add_slice(c, &src[..len], &mut want);
                let mut got = vec![0xC3u8; len];
                gf256_mul_add_slice(c, &src[..len], &mut got);
                assert_eq!(got, want, "gf256 axpy c={c} len={len}");

                let mut want_mul = src[..len].to_vec();
                crate::reference::gf256_mul_slice(c, &mut want_mul);
                let mut got_mul = src[..len].to_vec();
                gf256_mul_slice(c, &mut got_mul);
                assert_eq!(got_mul, want_mul, "gf256 mul c={c} len={len}");
            }
        }
    }

    #[test]
    fn simd_gf16_matches_reference_with_dirty_high_nibbles() {
        let src: Vec<u8> = (0..=255u8).collect();
        for c in 0..16u8 {
            for len in [0usize, 13, 16, 40, 256] {
                let mut want = vec![0x09u8; len];
                crate::reference::gf16_mul_add_slice(c, &src[..len], &mut want);
                let mut got = vec![0x09u8; len];
                gf16_mul_add_slice(c, &src[..len], &mut got);
                assert_eq!(got, want, "gf16 axpy c={c} len={len}");
            }
        }
    }

    #[test]
    fn fused_multi_matches_reference_loop_at_every_length() {
        // The long row lengths straddle the 128-byte (AVX2) and 256-byte
        // (AVX-512) tile sizes.
        let factors: Vec<u8> = vec![0x00, 0x01, 0x57, 0x8E, 0xFF, 0x02, 0x00, 0xC3];
        let srcs: Vec<u8> = (0..factors.len() * 520)
            .map(|i| (i as u8).wrapping_mul(167).wrapping_add(13))
            .collect();
        for rb in lengths(&[255, 256, 257, 300, 511, 512, 520]) {
            let packed: Vec<u8> = srcs
                .chunks_exact(520)
                .flat_map(|row| row[..rb].to_vec())
                .collect();
            let mut want = vec![0x5Au8; rb];
            for (f, row) in factors.iter().zip(packed.chunks_exact(rb.max(1))) {
                crate::reference::gf256_mul_add_slice(*f, row, &mut want);
            }
            let mut got = vec![0x5Au8; rb];
            gf256_mul_add_multi(&factors, &packed, &mut got);
            assert_eq!(got, want, "fused gather rb={rb}");
        }
    }

    #[test]
    fn scatter_matches_reference_loop_at_every_length() {
        // Each row's neighbours are the next row and, after the last one, a
        // guard: a window a byte too wide shows up in one or the other.
        const GUARD: [u8; 8] = [0xEE; 8];
        let factors: Vec<u8> = vec![0x57, 0x00, 0x01, 0x8E, 0xFF, 0x02, 0xC3, 0x00, 0x1B];
        let src: Vec<u8> = (0..257usize)
            .map(|i| (i as u8).wrapping_mul(59).wrapping_add(3))
            .collect();
        for rb in lengths(&[191, 192, 193, 256, 257]) {
            let init: Vec<u8> = (0..factors.len() * rb)
                .map(|i| (i as u8).wrapping_mul(29).wrapping_add(1))
                .collect();
            let mut want = init.clone();
            for (f, row) in factors.iter().zip(want.chunks_exact_mut(rb.max(1))) {
                crate::reference::gf256_mul_add_slice(*f, &src[..rb], row);
            }
            let mut got = [&init[..], &GUARD[..]].concat();
            gf256_mul_add_scatter(&factors, &src[..rb], &mut got[..init.len()]);
            assert_eq!(got[..init.len()], want, "fused scatter rb={rb}");
            assert_eq!(got[init.len()..], GUARD, "fused scatter overran rb={rb}");
        }
    }

    #[test]
    fn blocked_panel_matches_reference_loop_at_every_length() {
        // Panel shapes straddle the 4-row register panel; the row lengths
        // cover every column pass (128/64-byte zmm tiles, 64/32-byte ymm
        // tiles, the masked pass and the fused gather tail).
        for (r, c) in [(1usize, 1usize), (2, 3), (4, 4), (5, 2), (7, 9), (8, 17)] {
            let coefs: Vec<u8> = (0..r * c)
                .map(|i| (i as u8).wrapping_mul(73).wrapping_add(5) % 7)
                .map(|v| if v == 3 { 0 } else { v.wrapping_mul(41) })
                .collect();
            for rb in lengths(&[200, 256, 300]).skip(1) {
                let srcs: Vec<u8> = (0..c * rb)
                    .map(|i| (i as u8).wrapping_mul(167).wrapping_add(13))
                    .collect();
                let init: Vec<u8> = (0..r * rb).map(|i| (i as u8).wrapping_mul(29)).collect();
                let mut want = init.clone();
                for (panel, dst) in coefs.chunks_exact(c).zip(want.chunks_exact_mut(rb)) {
                    for (f, row) in panel.iter().zip(srcs.chunks_exact(rb)) {
                        crate::reference::gf256_mul_add_slice(*f, row, dst);
                    }
                }
                let mut got = init.clone();
                gf256_mul_add_block(&coefs, &srcs, &mut got, rb);
                assert_eq!(got, want, "blocked panel r={r} c={c} rb={rb}");
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn detection_reports_a_level() {
        // Printed for CI logs (`--nocapture`): which rung this host's
        // differential lanes exercised.
        println!("ag-gf simd level: {}", level_name());
        // On any x86-64 made this century there is at least SSSE3.
        assert!(supported(), "no SIMD level detected: {}", level_name());
    }

    /// The kernels older CPUs execute, on this CPU: every level up to the
    /// detected one (the delegating `portable` included) is forced in turn
    /// on this thread and driven through the every-length checks above.
    #[test]
    fn every_level_the_cpu_has_matches_reference() {
        for_each_level(|_| {
            simd_matches_reference_at_every_length();
            simd_gf16_matches_reference_with_dirty_high_nibbles();
            fused_multi_matches_reference_loop_at_every_length();
            scatter_matches_reference_loop_at_every_length();
            blocked_panel_matches_reference_loop_at_every_length();
        });
    }
}
