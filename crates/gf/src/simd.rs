//! The hardware kernels: `PSHUFB` / `GF2P8MULB` slabs.
//!
//! Two x86-64 instructions multiply a whole register of GF(2⁸) bytes by one
//! field constant. Multiplication by a fixed `c` is GF(2)-linear in the
//! operand, so a product splits along the operand's nibbles, `c·b = LO[b &
//! 0xF] ^ HI[b >> 4]` with `LO[x] = c·x` and `HI[x] = c·(x << 4)`, and
//! `PSHUFB` applies that pair of per-multiplier tables as sixteen (SSSE3)
//! or thirty-two (AVX2) parallel 16-entry lookups. `GF2P8MULB` (GFNI; 32
//! bytes with AVX2, 64 with AVX-512) multiplies bytes directly modulo
//! `x⁸+x⁴+x³+x+1` (0x11B) — exactly the polynomial [`crate::Gf256`] is
//! built on, so the instruction *is* the field and no call builds or reads
//! a table.
//!
//! The entry points below are [`crate::Gf256`]'s slab operations, and this
//! module is the one place a GF(2⁸) kernel is picked: per call, from the
//! row length and the detected level.
//!
//! # Lanes, one body per operation
//!
//! A *lane* (`Lane`) is one of those instructions over one register width:
//! load, store, xor, prepare a multiplier, multiply by it. The lanes hold
//! every intrinsic and every pointer of this module, and a lane value is
//! proof that the CPU has its instructions (see `lane`), so their methods
//! are safe and each bounds-checks the slice it touches.
//!
//! Each slab operation is written once, in safe code generic over the
//! lane: what it does to one column window of its rows (`row_at`,
//! `gather_at`, `scatter_at`, `panel_at`), and the walk that covers a row
//! with windows: tiles of several vectors, single vectors, then the rest of
//! the row. That rest differs by instruction. `PSHUFB` hands it (under a
//! vector) to the product-table kernel, [`crate::reference`], and so it
//! does a whole row under [`SHORT_ROW_BYTES`]. `GF2P8MULB` has no table to
//! fall back on and wants none: it finishes in exact-width 16- and 8-byte
//! windows and a register-assembled remainder under 8 bytes
//! (`tail_windows!`), never a byte wider than the row. That is why a GFNI
//! level runs GF(2⁸) rows of *every* length itself: a `k`-byte coefficient
//! row or a 16-byte payload is nothing but such windows.
//!
//! One `#[target_feature]` function per level names the lanes:
//!
//! | level | axpy, scale | gather, scatter, panel |
//! |---|---|---|
//! | `ssse3` | `PSHUFB` xmm | loop of axpys |
//! | `avx2` | `PSHUFB` ymm | loop of axpys |
//! | `gfni` | `GF2P8MULB` ymm | `GF2P8MULB` ymm |
//! | `gfni512` | `GF2P8MULB` ymm | `GF2P8MULB` zmm |
//!
//! Below GFNI a fused pass buys nothing (the nibble tables are rebuilt per
//! source coefficient either way), so there the gather, scatter and panel
//! are the loops of single-row axpys of [`crate::slab`]. Single rows stay
//! on ymm at `gfni512`: they are memory-bound and immune to zmm frequency
//! effects.
//!
//! Everything is runtime-detected (`is_x86_feature_detected!`) and compiled
//! only on x86-64. On a CPU without SSSE3 or on another architecture every
//! entry point runs [`crate::reference`]. All of it produces bit-identical
//! bytes; `proptest_kernels` and this module's tests pin every level to the
//! reference kernel at every row length up to 130 bytes and across the
//! longer tile-boundary geometries.
//!
//! # Unsafe
//!
//! This module is the workspace's one `unsafe` outside tests: `ag-gf`
//! denies `unsafe_code` and only this module allows it, and every other
//! crate forbids it. Each block carries a `// SAFETY:` comment, which
//! clippy's `undocumented_unsafe_blocks` requires. By function, the blocks
//! are of three kinds:
//!
//! * **Level dispatch** — one per arm of `detail::row` and
//!   `detail::fused`: each calls the `#[target_feature]` function of the
//!   level `level()` reports, and `detect()` reports a level only on
//!   observing its features.
//! * **Register-only lane intrinsics** — `xor`, `xor3`, `constant` and
//!   `mul` of the lanes `Pshufb<__m128i>`, `Pshufb<__m256i>`,
//!   `Gfni<__m256i>` and `Gfni<__m512i>`: no memory is touched, and the
//!   lane value is proof that the CPU has the instruction.
//! * **Slice-bounded loads and stores** — the four blocks that touch
//!   memory: `Lane::load` and `Lane::store` (an unaligned read or write of
//!   `size_of::<V>()` bytes) and `Window::load` and `Window::store` (16
//!   bytes). Each first cuts its slice to exactly the bytes it touches, so
//!   a short slice panics there, before a pointer is made.

#![allow(
    unsafe_code,
    reason = "the ISA kernels are this workspace's unsafe surface"
)]

use crate::slab::{
    block_by_multi, check_block, check_multi, check_scatter, multi_by_axpy, scatter_by_axpy,
    xor_slice,
};
use crate::{reference, Gf256};

/// The detected instruction level, for benchmark reports: `"gfni512"`,
/// `"gfni"`, `"avx2"`, `"ssse3"`, or `"portable"` where there is none.
pub use detail::level_name;

/// Rows shorter than this skip the `PSHUFB` kernels for the product-table
/// kernel: the per-multiplier nibble-table build (~30 scalar products) only
/// amortizes over longer rows, while [`crate::reference`] just indexes a
/// prebuilt product row. `GF2P8MULB` builds nothing, so a GFNI level runs
/// rows of every length itself.
pub const SHORT_ROW_BYTES: usize = 64;

/// Test-only: calls `f` once per instruction level this CPU has, weakest
/// first and the delegating `"portable"` one included, with that level
/// forced on the calling thread; `f` receives its [`level_name`].
#[cfg(test)]
pub(crate) use detail::for_each_level;

/// `dst[i] = c · dst[i]` over GF(2⁸), SIMD kernel.
pub fn gf256_mul_slice(c: u8, dst: &mut [u8]) {
    row(c, None, dst);
}

/// `dst[i] ^= c · src[i]` over GF(2⁸), SIMD kernel.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn gf256_mul_add_slice(c: u8, src: &[u8], dst: &mut [u8]) {
    row(c, Some(src), dst);
}

/// The two single-row operations: the axpy `dst ^= c · src` or, with no
/// `src`, the in-place product `dst = c · dst`.
fn row(c: u8, src: Option<&[u8]>, dst: &mut [u8]) {
    if let Some(src) = src {
        assert_eq!(src.len(), dst.len(), "slab operands must have equal length");
    }
    match (c, src) {
        (0, Some(_)) | (1, None) => return,
        (0, None) => return dst.fill(0),
        (1, Some(src)) => return xor_slice(src, dst),
        _ => {}
    }
    if !detail::row(c, src, dst) {
        reference_row(c, src, dst);
    }
}

/// [`row`] on the product-table kernel: what a level without SIMD runs, and
/// what a `PSHUFB` level finishes a row with.
fn reference_row(c: u8, src: Option<&[u8]>, dst: &mut [u8]) {
    match src {
        Some(src) => reference::gf256_mul_add_slice(c, src, dst),
        None => reference::gf256_mul_slice(c, dst),
    }
}

/// This module's own axpy as the row kernel of the [`crate::slab`] loops,
/// which is what a fused operation is at a level with no kernel for it:
/// each wrapper below runs its kernel on checked shapes where the CPU has
/// one, and otherwise the loop, which asserts the shapes itself.
fn axpy_row(c: Gf256, src: &[u8], dst: &mut [u8]) {
    gf256_mul_add_slice(c.value(), src, dst);
}

/// Fused gather `dst[j] ^= Σᵢ factors[i] · srcs_row_i[j]` over GF(2⁸),
/// SIMD kernel. `srcs` holds one contiguous row of `dst.len()` bytes per
/// factor; zero factors are skipped.
///
/// On GFNI machines a tile of the destination (four ymm or zmm registers,
/// then narrower windows down to the last byte) stays in registers across
/// *all* source rows, so `dst` is read and written once per pass instead of
/// once per source. Below GFNI it is a loop of single-row axpys.
///
/// # Panics
///
/// Panics if `srcs.len() != factors.len() * dst.len()`.
pub fn gf256_mul_add_multi(factors: &[u8], srcs: &[u8], dst: &mut [u8]) {
    #[cfg(target_arch = "x86_64")]
    if check_multi::<Gf256>(factors, srcs, dst)
        && detail::fused(detail::Gather {
            factors,
            srcs,
            dst,
            from: 0,
        })
    {
        return;
    }
    multi_by_axpy::<Gf256>(factors, srcs, dst, axpy_row);
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
    #[cfg(target_arch = "x86_64")]
    if check_block::<Gf256>(coefs, srcs, dsts, row_bytes)
        && detail::fused(detail::Panel {
            coefs,
            srcs,
            dsts,
            rb: row_bytes,
        })
    {
        return;
    }
    block_by_multi::<Gf256>(coefs, srcs, dsts, row_bytes, gf256_mul_add_multi);
}

/// Fused scatter `dsts_row_i ^= factors[i] · src` over GF(2⁸), SIMD kernel.
/// `dsts` holds one contiguous row of `src.len()` bytes per factor; zero
/// factors are skipped. Hoists the kernel dispatch out of the per-row loop
/// — back-substitution applies one pivot row to every stored coefficient
/// row, so on short rows the per-row dispatch of a plain axpy loop
/// dominates the actual field work. Below GFNI it is that loop.
///
/// # Panics
///
/// Panics if `dsts.len() != factors.len() * src.len()`.
pub fn gf256_mul_add_scatter(factors: &[u8], src: &[u8], dsts: &mut [u8]) {
    #[cfg(target_arch = "x86_64")]
    if check_scatter::<Gf256>(factors, src, dsts)
        && detail::fused(detail::Scatter { factors, src, dsts })
    {
        return;
    }
    scatter_by_axpy::<Gf256>(factors, src, dsts, axpy_row);
}

#[cfg(target_arch = "x86_64")]
mod detail {
    use std::arch::x86_64::{__m128i, __m256i, __m512i};
    use std::sync::OnceLock;

    use self::lane::{Gfni, Lane, Pshufb};
    use super::reference_row;
    use crate::Gf256;

    /// Detected instruction level, weakest first.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    pub(super) enum Level {
        /// No SSSE3: every call is handed back to the portable kernels.
        None,
        Ssse3,
        Avx2,
        /// GFNI + AVX2: `GF2P8MULB`.
        Gfni,
        /// GFNI + AVX-512F/BW: 512-bit `GF2P8MULB` for the fused kernels.
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

    #[cfg(test)]
    pub(crate) fn for_each_level(mut f: impl FnMut(&'static str)) {
        /// Unforces the level however `f` leaves: were one level's
        /// assertion to fail, the thread's later tests (`--test-threads=1`)
        /// must not inherit it and fail in its wake.
        struct Unforce;
        impl Drop for Unforce {
            fn drop(&mut self) {
                FORCED.set(None);
            }
        }
        let detected = level();
        let ladder = [
            Level::None,
            Level::Ssse3,
            Level::Avx2,
            Level::Gfni,
            Level::Gfni512,
        ];
        let _unforce = Unforce;
        // Never above `detected`: a forced level must be one the CPU has.
        for forced in ladder.into_iter().filter(|&l| l <= detected) {
            FORCED.set(Some(forced));
            f(level_name());
        }
    }

    #[must_use]
    pub fn level_name() -> &'static str {
        match level() {
            Level::Gfni512 => "gfni512",
            Level::Gfni => "gfni",
            Level::Avx2 => "avx2",
            Level::Ssse3 => "ssse3",
            Level::None => "portable",
        }
    }

    /// A fused GF(2⁸) operation, written once over `GF2P8MULB` lanes:
    /// `wide` is the widest the level has, `ymm` the one whose windows
    /// finish a row. The implementors' fields are the arguments of the
    /// public wrapper of the same name, shapes checked (no kernel's memory
    /// safety rests on that: every access below is a bounds-checked slice).
    pub(super) trait Fused {
        fn run<L: Lane>(self, wide: L, ymm: Gfni<__m256i>);
    }

    pub(super) struct Gather<'a> {
        pub(super) factors: &'a [u8],
        pub(super) srcs: &'a [u8],
        pub(super) dst: &'a mut [u8],
        /// The first column: 0, but where [`Panel`] finishes ragged rows.
        pub(super) from: usize,
    }

    pub(super) struct Scatter<'a> {
        pub(super) factors: &'a [u8],
        pub(super) src: &'a [u8],
        pub(super) dsts: &'a mut [u8],
    }

    pub(super) struct Panel<'a> {
        pub(super) coefs: &'a [u8],
        pub(super) srcs: &'a [u8],
        pub(super) dsts: &'a mut [u8],
        pub(super) rb: usize,
    }

    /// Runs a single-row operation (see `super::row`) on this CPU's vector
    /// kernel for it and says so, or returns `false` having done nothing:
    /// at [`Level::None`], and at a `PSHUFB` level for a row under
    /// [`SHORT_ROW_BYTES`](super::SHORT_ROW_BYTES), which the product-table
    /// kernel runs instead.
    pub(super) fn row(c: u8, src: Option<&[u8]>, dst: &mut [u8]) -> bool {
        let long = dst.len() >= super::SHORT_ROW_BYTES;
        match level() {
            // SAFETY: level() never reports a level the CPU lacks, and
            // detect() puts a CPU at Gfni or above only on observing
            // gfni+avx2.
            Level::Gfni512 | Level::Gfni => unsafe { row_gfni(c, src, dst) },
            // SAFETY: this arm runs only when detect() observed avx2.
            Level::Avx2 if long => unsafe { row_avx2(c, src, dst) },
            // SAFETY: this arm runs only when detect() observed ssse3.
            Level::Ssse3 if long => unsafe { row_ssse3(c, src, dst) },
            Level::Avx2 | Level::Ssse3 | Level::None => return false,
        }
        true
    }

    /// Runs a fused operation over the widest `GF2P8MULB` the CPU has and
    /// says so, or returns `false` having done nothing below GFNI.
    pub(super) fn fused(op: impl Fused) -> bool {
        match level() {
            // SAFETY: level() never reports a level the CPU lacks; Gfni512
            // means gfni+avx512f+avx512bw+avx2 were all observed.
            Level::Gfni512 => unsafe { fused_gfni512(op) },
            // SAFETY: this arm runs only when detect() observed gfni+avx2.
            Level::Gfni => unsafe { fused_gfni(op) },
            _ => return false,
        }
        true
    }

    // The instantiations: the one place a lane is named and, being
    // `#[target_feature]` functions, the one place it can be made.

    #[target_feature(enable = "ssse3")]
    fn row_ssse3(c: u8, src: Option<&[u8]>, dst: &mut [u8]) {
        row_pshufb(Pshufb::<__m128i>::new(), c, src, dst);
    }

    #[target_feature(enable = "avx2")]
    fn row_avx2(c: u8, src: Option<&[u8]>, dst: &mut [u8]) {
        row_pshufb(Pshufb::<__m256i>::new(), c, src, dst);
    }

    #[target_feature(enable = "gfni,avx2")]
    fn row_gfni(c: u8, src: Option<&[u8]>, dst: &mut [u8]) {
        let ymm = Gfni::<__m256i>::new();
        let cv = ymm.constant(c);
        let mut at = row_vectors(ymm, cv, src, dst);
        tail_windows!(ymm, dst.len(), at, |l| row_at(
            l,
            cv,
            columns(src, at..),
            &mut dst[at..]
        ));
    }

    #[target_feature(enable = "gfni,avx2")]
    fn fused_gfni(op: impl Fused) {
        let ymm = Gfni::<__m256i>::new();
        op.run(ymm, ymm);
    }

    #[target_feature(enable = "gfni,avx512f,avx512bw,avx2")]
    fn fused_gfni512(op: impl Fused) {
        op.run(Gfni::<__m512i>::new(), Gfni::<__m256i>::new());
    }

    // The walks: how windows cover a row. Safe code, generic over the
    // lanes, inlined into the instantiation that names them.

    /// Walks columns `$at..$len` of a row in the GFNI tail windows — whole
    /// ymm vectors while they last, then at most one each of 16 bytes, 8
    /// bytes and the remainder under 8 — evaluating `$window` for each with
    /// `$l` bound to the window's lane and `$at` to its first column.
    /// Written once so that every GFNI kernel finishes its rows the same
    /// table-free way.
    macro_rules! tail_windows {
        ($ymm:expr, $len:expr, $at:ident, |$l:ident| $window:expr) => {{
            let (ymm, len): (Gfni<__m256i>, usize) = ($ymm, $len);
            while len - $at >= 32 {
                let $l = ymm;
                $window;
                $at += 32;
            }
            if len - $at >= 16 {
                let $l = ymm.window::<16>();
                $window;
                $at += 16;
            }
            if len - $at >= 8 {
                let $l = ymm.window::<8>();
                $window;
                $at += 8;
            }
            if len > $at {
                let $l = ymm.remainder(len - $at);
                $window;
            }
        }};
    }
    use tail_windows;

    /// A single-row operation over `PSHUFB`: whole vectors through `l`, and
    /// the bytes after the last one through the product-table kernel, which
    /// builds nothing per multiplier.
    #[inline(always)]
    fn row_pshufb<L: Lane>(l: L, c: u8, src: Option<&[u8]>, dst: &mut [u8]) {
        let whole = row_vectors(l, l.constant(c), src, dst);
        if whole < dst.len() {
            reference_row(c, columns(src, whole..), &mut dst[whole..]);
        }
    }

    /// `src[range]`, if there is a `src`. (Not `Option::map`: a closure in a
    /// `#[target_feature]` function has its features, the `map` it is
    /// handed to has not, and so neither is inlined into the other.)
    #[inline(always)]
    fn columns<R>(src: Option<&[u8]>, range: R) -> Option<&[u8]>
    where
        R: std::slice::SliceIndex<[u8], Output = [u8]>,
    {
        match src {
            Some(src) => Some(&src[range]),
            None => None,
        }
    }

    impl Fused for Gather<'_> {
        /// Tiles of four, two and one `wide` vectors, then the tail
        /// windows. A short row is nothing but those.
        #[inline(always)]
        fn run<L: Lane>(self, wide: L, ymm: Gfni<__m256i>) {
            let (factors, srcs, dst) = (self.factors, self.srcs, self.dst);
            let (rb, w, mut at) = (dst.len(), wide.bytes(), self.from);
            while rb - at >= 4 * w {
                gather_at::<L, 4>(wide, factors, srcs, dst, at);
                at += 4 * w;
            }
            if rb - at >= 2 * w {
                gather_at::<L, 2>(wide, factors, srcs, dst, at);
                at += 2 * w;
            }
            if rb - at >= w {
                gather_at::<L, 1>(wide, factors, srcs, dst, at);
                at += w;
            }
            tail_windows!(ymm, rb, at, |l| gather_at::<_, 1>(
                l, factors, srcs, dst, at
            ));
        }
    }

    impl Fused for Scatter<'_> {
        /// Whole `wide` vectors go row by row (`src` stays cache-hot across
        /// rows, and the multiplier is prepared once per row); what is
        /// left of the rows — all of a short row — goes window by window,
        /// `src` in a register across all rows.
        #[inline(always)]
        fn run<L: Lane>(self, wide: L, ymm: Gfni<__m256i>) {
            let (factors, src, dsts) = (self.factors, self.src, self.dsts);
            let rb = src.len();
            let mut at = rb - rb % wide.bytes();
            if at > 0 {
                for (&f, row) in factors.iter().zip(dsts.chunks_exact_mut(rb)) {
                    if f != 0 {
                        row_vectors(wide, wide.constant(f), Some(src), row);
                    }
                }
            }
            tail_windows!(ymm, rb, at, |l| scatter_at(l, factors, src, dsts, at));
        }
    }

    impl Fused for Panel<'_> {
        /// Destination rows go four at a time; the outer loop walks column
        /// tiles of two `wide` vectors, then one: one such column of all
        /// `c` sources (≤ 16 KiB at c = 128) stays L1-resident while every
        /// four-row panel consumes it. The `r % 4` leftover rows are one
        /// fused gather each.
        ///
        /// Columns past the last whole vector are test-only input. The one
        /// caller outside tests, the blocked payload replay of `ag-linalg`,
        /// always passes its `padded_stride`, a whole and odd number of
        /// 64-byte lines (`ag-linalg` pins that for every payload width),
        /// so on both lanes the one-vector pass runs once per call and
        /// nothing is left. Ragged columns therefore get no pass of their
        /// own: each paneled row finishes as a gather from that column on.
        #[inline(always)]
        fn run<L: Lane>(self, wide: L, ymm: Gfni<__m256i>) {
            let (coefs, srcs, dsts, rb) = (self.coefs, self.srcs, self.dsts, self.rb);
            let (c, w) = (srcs.len() / rb, wide.bytes());
            let paneled = dsts.len() / (4 * rb) * 4;
            let mut at = 0;
            while rb - at >= 2 * w {
                let panels = dsts[..paneled * rb].chunks_exact_mut(4 * rb);
                for (panel, coefs) in panels.zip(coefs.chunks_exact(4 * c)) {
                    panel_at::<L, 2>(wide, coefs, srcs, panel, at);
                }
                at += 2 * w;
            }
            if rb - at >= w {
                let panels = dsts[..paneled * rb].chunks_exact_mut(4 * rb);
                for (panel, coefs) in panels.zip(coefs.chunks_exact(4 * c)) {
                    panel_at::<L, 1>(wide, coefs, srcs, panel, at);
                }
                at += w;
            }
            let rows = dsts.chunks_exact_mut(rb).zip(coefs.chunks_exact(c));
            for (i, (dst, factors)) in rows.enumerate() {
                let from = if i < paneled { at } else { 0 };
                if from < rb {
                    let rest = Gather {
                        factors,
                        srcs,
                        dst,
                        from,
                    };
                    rest.run(wide, ymm);
                }
            }
        }
    }

    // The operations: what each does to one window of its rows, through
    // whatever lane it is given.

    /// One register of a single-row operation, over the first `l.bytes()`
    /// bytes of its slices: `dst ^= c · src` or, with no `src`,
    /// `dst = c · dst`.
    #[inline(always)]
    fn row_at<L: Lane>(l: L, c: L::C, src: Option<&[u8]>, dst: &mut [u8]) {
        let v = match src {
            Some(src) => l.xor(l.load(dst), l.mul(l.load(src), c)),
            None => l.mul(l.load(dst), c),
        };
        l.store(dst, v);
    }

    /// [`row_at`] over every whole `l` vector of a row; returns the first
    /// column it left.
    #[inline(always)]
    fn row_vectors<L: Lane>(l: L, c: L::C, src: Option<&[u8]>, dst: &mut [u8]) -> usize {
        let w = l.bytes();
        match src {
            Some(src) => {
                for (s, d) in src.chunks_exact(w).zip(dst.chunks_exact_mut(w)) {
                    row_at(l, c, Some(s), d);
                }
            }
            None => {
                for d in dst.chunks_exact_mut(w) {
                    row_at(l, c, None, d);
                }
            }
        }
        dst.len() - dst.len() % w
    }

    /// One window of the gather, `N` registers wide from column `at`: the
    /// window of `dst` sits in registers while every source row's window is
    /// multiplied into it, so `dst` is read and written once whatever the
    /// number of sources.
    #[inline(always)]
    fn gather_at<L: Lane, const N: usize>(
        l: L,
        factors: &[u8],
        srcs: &[u8],
        dst: &mut [u8],
        at: usize,
    ) {
        let mut acc = l.load_n::<N>(&dst[at..]);
        for (&f, row) in factors.iter().zip(srcs.chunks_exact(dst.len())) {
            if f != 0 {
                let cv = l.constant(f);
                for (a, s) in acc.iter_mut().zip(l.load_n::<N>(&row[at..])) {
                    *a = l.xor(*a, l.mul(s, cv));
                }
            }
        }
        l.store_n(&mut dst[at..], acc);
    }

    /// One window of the scatter, the mirror image of [`gather_at`]: the
    /// window of `src` sits in one register while it is multiplied into the
    /// same window of every destination row. Exact widths matter most here:
    /// a window reaching into the next row would make that row's load wait
    /// for this row's store.
    #[inline(always)]
    fn scatter_at<L: Lane>(l: L, factors: &[u8], src: &[u8], dsts: &mut [u8], at: usize) {
        let s = l.load(&src[at..]);
        for (&f, row) in factors.iter().zip(dsts.chunks_exact_mut(src.len())) {
            if f != 0 {
                let sum = l.xor(l.load(&row[at..]), l.mul(s, l.constant(f)));
                l.store(&mut row[at..], sum);
            }
        }
    }

    /// One window of the panel, `N` registers wide from column `at`: four
    /// destination rows × `N` registers live in `4·N` accumulators while
    /// the `c` source rows stream through, so every loaded source vector
    /// feeds four multiply-accumulates before it leaves registers. `coefs`
    /// is the panel's four rows of `c` coefficients and `dsts` its four
    /// destination rows.
    ///
    /// Sources go two at a time so that each accumulator update is one
    /// [`Lane::xor3`]: on zmm that is a single `VPTERNLOGD` instead of two
    /// `VPXORD`s, and `GF2P8MULB`, `VPXORD` and `VPBROADCASTB` all compete
    /// for the same two vector ports, so halving the xor count lifts the
    /// port-bound ceiling of the whole panel.
    #[inline(always)]
    fn panel_at<L: Lane, const N: usize>(
        l: L,
        coefs: &[u8],
        srcs: &[u8],
        dsts: &mut [u8],
        at: usize,
    ) {
        let (c, rb) = (coefs.len() / 4, dsts.len() / 4);
        let mut acc = [l.load_n::<N>(&dsts[at..]); 4];
        for (i, a) in acc.iter_mut().enumerate().skip(1) {
            *a = l.load_n(&dsts[i * rb + at..]);
        }
        // The four coefficient rows, each as pairs of columns and what an
        // odd `c` leaves; zipped with the pairs of source rows, the loop
        // below indexes nothing.
        let [(f0, l0), (f1, l1), (f2, l2), (f3, l3)] =
            [0, 1, 2, 3].map(|i| coefs[i * c..(i + 1) * c].as_chunks::<2>());
        let pairs = srcs.chunks_exact(2 * rb);
        let last = pairs.remainder();
        for ((((pair, f0), f1), f2), f3) in pairs.zip(f0).zip(f1).zip(f2).zip(f3) {
            panel_step(
                l,
                &mut acc,
                [*f0, *f1, *f2, *f3],
                &pair[at..],
                &pair[rb + at..],
            );
        }
        if let ([f0], [f1], [f2], [f3]) = (l0, l1, l2, l3) {
            // An odd last source pairs with itself under a zero factor.
            let (f, last) = ([[*f0, 0], [*f1, 0], [*f2, 0], [*f3, 0]], &last[at..]);
            panel_step(l, &mut acc, f, last, last);
        }
        for (i, a) in acc.into_iter().enumerate() {
            l.store_n(&mut dsts[i * rb + at..], a);
        }
    }

    /// `acc[i] ^= f[i][0] · a ^ f[i][1] · b` over `N` registers of the
    /// source rows `a` and `b`, for the four rows of a panel; skipped when
    /// all eight factors are zero.
    #[inline(always)]
    fn panel_step<L: Lane, const N: usize>(
        l: L,
        acc: &mut [[L::V; N]; 4],
        f: [[u8; 2]; 4],
        a: &[u8],
        b: &[u8],
    ) {
        if f == [[0; 2]; 4] {
            return;
        }
        let (sa, sb) = (l.load_n::<N>(a), l.load_n::<N>(b));
        for (row_acc, [fa, fb]) in acc.iter_mut().zip(f) {
            let (ca, cb) = (l.constant(fa), l.constant(fb));
            for ((acc, &sa), &sb) in row_acc.iter_mut().zip(&sa).zip(&sb) {
                *acc = l.xor3(*acc, l.mul(sa, ca), l.mul(sb, cb));
            }
        }
    }

    /// The split-nibble tables of multiplier `c`, which the `PSHUFB` lanes
    /// look up in: `lo[x] = c·x` and `hi[x] = c·(x << 4)`. 30 scalar
    /// products at the top of a row operation, amortized over its length.
    pub(super) fn nibble_tables(c: u8) -> ([u8; 16], [u8; 16]) {
        let c = Gf256::new(c);
        let (mut lo, mut hi) = ([0; 16], [0; 16]);
        for x in 0..16u8 {
            lo[x as usize] = (c * Gf256::new(x)).value();
            hi[x as usize] = (c * Gf256::new(x << 4)).value();
        }
        (lo, hi)
    }

    /// The lanes: every intrinsic and every pointer of this module. A lane
    /// value is proof that the CPU has the instructions its methods
    /// execute: the fields are private to this module, and a lane's
    /// constructor either is a `#[target_feature]` function — which safe
    /// code may call only from a function with those features enabled, and
    /// `unsafe` code (the dispatch above) only on its SAFETY comment's word
    /// that the level was detected — or takes such a lane. That is what the
    /// `unsafe` blocks here rest on and why the methods are safe to call:
    /// with a lane in hand, the only thing left to get wrong is a slice
    /// length, and `load`/`store` check it.
    mod lane {
        use std::arch::x86_64::*;
        use std::marker::PhantomData;

        use super::nibble_tables;

        /// One multiply instruction over one register width.
        pub(in crate::simd) trait Lane: Copy {
            /// The register: a vector of integers, so that any bytes are a
            /// value of it.
            type V: Copy;
            /// A multiplier in the form the instruction wants it.
            type C: Copy;

            /// Bytes one load or store moves.
            #[inline(always)]
            fn bytes(self) -> usize {
                size_of::<Self::V>()
            }

            /// Loads the first [`Lane::bytes`] bytes of `from`, panicking
            /// if it is shorter.
            #[inline(always)]
            fn load(self, from: &[u8]) -> Self::V {
                let from = &from[..size_of::<Self::V>()];
                // SAFETY: an unaligned read of the `size_of::<V>()` bytes
                // `from` was cut to on the line above, as a type any bytes
                // are a value of. (It names no instruction; `self` is there
                // so that it inlines where one register does it.)
                unsafe { from.as_ptr().cast::<Self::V>().read_unaligned() }
            }

            /// Stores `v` over the first [`Lane::bytes`] bytes of `to`,
            /// panicking if it is shorter.
            #[inline(always)]
            fn store(self, to: &mut [u8], v: Self::V) {
                let to = &mut to[..size_of::<Self::V>()];
                // SAFETY: an unaligned write over the `size_of::<V>()`
                // bytes `to` was cut to on the line above.
                unsafe { to.as_mut_ptr().cast::<Self::V>().write_unaligned(v) }
            }

            /// Loads `N` registers from consecutive windows of `from`.
            #[inline(always)]
            fn load_n<const N: usize>(self, from: &[u8]) -> [Self::V; N] {
                let mut vs = [self.load(from); N];
                for (j, v) in vs.iter_mut().enumerate().skip(1) {
                    *v = self.load(&from[j * self.bytes()..]);
                }
                vs
            }

            /// Stores `vs` over consecutive windows of `to`.
            #[inline(always)]
            fn store_n<const N: usize>(self, to: &mut [u8], vs: [Self::V; N]) {
                for (j, v) in vs.into_iter().enumerate() {
                    self.store(&mut to[j * self.bytes()..], v);
                }
            }

            fn xor(self, a: Self::V, b: Self::V) -> Self::V;

            /// `a ^ b ^ c`, in one instruction where the ISA has one.
            #[inline(always)]
            fn xor3(self, a: Self::V, b: Self::V, c: Self::V) -> Self::V {
                self.xor(self.xor(a, b), c)
            }

            /// Prepares the multiplier `c`.
            fn constant(self, c: u8) -> Self::C;

            /// `c · v`, byte by byte.
            fn mul(self, v: Self::V, c: Self::C) -> Self::V;
        }

        /// `PSHUFB` nibble-table lookups over register `V`.
        #[derive(Clone, Copy)]
        pub(super) struct Pshufb<V>(PhantomData<V>);

        /// `GF2P8MULB` over register `V`.
        #[derive(Clone, Copy)]
        pub(in crate::simd) struct Gfni<V>(PhantomData<V>);

        /// Width selector of [`Window`] for the last `n < 8` bytes of a
        /// row, beside the exact widths 16 and 8.
        const REMAINDER: usize = 0;

        /// `GF2P8MULB` over the low `W` bytes of a ymm register (`W` ∈
        /// {16, 8}) or, for [`REMAINDER`], its low `n < 8` bytes: loaded
        /// zero-extended and stored never a byte wider than asked, so a
        /// window cannot reach into the next row. What a GFNI kernel covers
        /// the end of a row with. (`W` is a type parameter because a window
        /// that looks at `n` to find its width costs a remainder a third
        /// more.)
        #[derive(Clone, Copy)]
        pub(super) struct Window<const W: usize> {
            ymm: Gfni<__m256i>,
            /// `W`, or the remainder's length.
            n: usize,
        }

        impl Pshufb<__m128i> {
            #[target_feature(enable = "ssse3")]
            pub(super) fn new() -> Self {
                Pshufb(PhantomData)
            }
        }

        impl Pshufb<__m256i> {
            #[target_feature(enable = "avx2")]
            pub(super) fn new() -> Self {
                Pshufb(PhantomData)
            }
        }

        impl Gfni<__m256i> {
            #[target_feature(enable = "gfni,avx2")]
            pub(super) fn new() -> Self {
                Gfni(PhantomData)
            }

            /// The same instruction over the low `W` bytes of the register.
            pub(super) fn window<const W: usize>(self) -> Window<W> {
                Window { ymm: self, n: W }
            }

            /// The same instruction over the last `n < 8` bytes of a row.
            pub(super) fn remainder(self, n: usize) -> Window<REMAINDER> {
                Window { ymm: self, n }
            }
        }

        impl Gfni<__m512i> {
            #[target_feature(enable = "gfni,avx512f")]
            pub(super) fn new() -> Self {
                Gfni(PhantomData)
            }
        }

        /// The `PSHUFB` multiplier `c`: its [`nibble_tables`], each twice
        /// over because the instruction looks up inside every 16-byte half
        /// of its register (`l` loads as many halves as it has).
        #[inline(always)]
        fn nibble_registers<L: Lane>(l: L, c: u8) -> (L::V, L::V) {
            let (lo, hi) = nibble_tables(c);
            let (lo, hi) = ([lo; 2], [hi; 2]);
            (l.load(lo.as_flattened()), l.load(hi.as_flattened()))
        }

        impl Lane for Pshufb<__m128i> {
            type V = __m128i;
            type C = (__m128i, __m128i);

            #[inline(always)]
            fn xor(self, a: __m128i, b: __m128i) -> __m128i {
                // SAFETY: register-only; SSE2 is part of x86-64.
                unsafe { _mm_xor_si128(a, b) }
            }

            #[inline(always)]
            fn constant(self, c: u8) -> Self::C {
                nibble_registers(self, c)
            }

            #[inline(always)]
            fn mul(self, v: __m128i, (lo, hi): Self::C) -> __m128i {
                // SAFETY: register-only; `self` is proof of SSSE3.
                unsafe {
                    let mask = _mm_set1_epi8(0x0F);
                    let low = _mm_and_si128(v, mask);
                    let high = _mm_and_si128(_mm_srli_epi64::<4>(v), mask);
                    _mm_xor_si128(_mm_shuffle_epi8(lo, low), _mm_shuffle_epi8(hi, high))
                }
            }
        }

        impl Lane for Pshufb<__m256i> {
            type V = __m256i;
            type C = (__m256i, __m256i);

            #[inline(always)]
            fn xor(self, a: __m256i, b: __m256i) -> __m256i {
                // SAFETY: register-only; `self` is proof of AVX2.
                unsafe { _mm256_xor_si256(a, b) }
            }

            #[inline(always)]
            fn constant(self, c: u8) -> Self::C {
                nibble_registers(self, c)
            }

            #[inline(always)]
            fn mul(self, v: __m256i, (lo, hi): Self::C) -> __m256i {
                // SAFETY: register-only; `self` is proof of AVX2.
                unsafe {
                    let mask = _mm256_set1_epi8(0x0F);
                    let low = _mm256_and_si256(v, mask);
                    let high = _mm256_and_si256(_mm256_srli_epi64::<4>(v), mask);
                    _mm256_xor_si256(_mm256_shuffle_epi8(lo, low), _mm256_shuffle_epi8(hi, high))
                }
            }
        }

        impl Lane for Gfni<__m256i> {
            type V = __m256i;
            type C = __m256i;

            #[inline(always)]
            fn xor(self, a: __m256i, b: __m256i) -> __m256i {
                // SAFETY: register-only; `self` is proof of AVX2.
                unsafe { _mm256_xor_si256(a, b) }
            }

            #[inline(always)]
            fn constant(self, c: u8) -> __m256i {
                // SAFETY: register-only; `self` is proof of AVX2.
                unsafe { _mm256_set1_epi8(c as i8) }
            }

            #[inline(always)]
            fn mul(self, v: __m256i, c: __m256i) -> __m256i {
                // SAFETY: register-only; `self` is proof of GFNI and AVX2.
                unsafe { _mm256_gf2p8mul_epi8(v, c) }
            }
        }

        impl Lane for Gfni<__m512i> {
            type V = __m512i;
            type C = __m512i;

            #[inline(always)]
            fn xor(self, a: __m512i, b: __m512i) -> __m512i {
                // SAFETY: register-only; `self` is proof of AVX-512F.
                unsafe { _mm512_xor_si512(a, b) }
            }

            #[inline(always)]
            fn xor3(self, a: __m512i, b: __m512i, c: __m512i) -> __m512i {
                // SAFETY: register-only (`VPTERNLOGD`, truth table 0x96:
                // the three-way xor); `self` is proof of AVX-512F.
                unsafe { _mm512_ternarylogic_epi64(a, b, c, 0x96) }
            }

            #[inline(always)]
            fn constant(self, c: u8) -> __m512i {
                // SAFETY: register-only; `self` is proof of AVX-512F.
                unsafe { _mm512_set1_epi8(c as i8) }
            }

            #[inline(always)]
            fn mul(self, v: __m512i, c: __m512i) -> __m512i {
                // SAFETY: register-only; `self` is proof of GFNI and
                // AVX-512F.
                unsafe { _mm512_gf2p8mul_epi8(v, c) }
            }
        }

        /// The bytes of `from`, fewer than 8, as the low bytes of a word: 4,
        /// 2 and 1 of them as they fit, so that no byte past the slice is
        /// read and, in a register, none needs masking off.
        #[inline(always)]
        fn read_under_8(mut from: &[u8]) -> u64 {
            let (mut word, mut shift) = (0, 0);
            if let Some((four, rest)) = from.split_first_chunk() {
                (word, shift, from) = (u32::from_le_bytes(*four).into(), 32, rest);
            }
            if let Some((two, rest)) = from.split_first_chunk() {
                word |= u64::from(u16::from_le_bytes(*two)) << shift;
                (shift, from) = (shift + 16, rest);
            }
            if let Some(&one) = from.first() {
                word |= u64::from(one) << shift;
            }
            word
        }

        /// The inverse of [`read_under_8`]: the low `to.len() < 8` bytes of
        /// `word` over `to`, never a byte wider.
        #[inline(always)]
        fn write_under_8(mut to: &mut [u8], mut word: u64) {
            if let Some(four) = to.split_off_mut(..4) {
                four.copy_from_slice(&(word as u32).to_le_bytes());
                word >>= 32;
            }
            if let Some(two) = to.split_off_mut(..2) {
                two.copy_from_slice(&(word as u16).to_le_bytes());
                word >>= 16;
            }
            if let Some(one) = to.first_mut() {
                *one = word as u8;
            }
        }

        impl<const W: usize> Lane for Window<W> {
            type V = __m256i;
            type C = __m256i;

            #[inline(always)]
            fn bytes(self) -> usize {
                self.n
            }

            #[inline(always)]
            fn load(self, from: &[u8]) -> __m256i {
                let from = &from[..self.n];
                // SAFETY: the one memory access is the unaligned load of
                // the 16 bytes `from[..16]` was just cut (and checked) to;
                // the narrower windows arrive as integers, and the rest is
                // register-only. `self.ymm` is proof of AVX2.
                unsafe {
                    let low = match W {
                        16 => _mm_loadu_si128(from[..16].as_ptr().cast()),
                        8 => {
                            let eight = from[..8].try_into().expect("8 bytes");
                            _mm_cvtsi64_si128(i64::from_le_bytes(eight))
                        }
                        _ => _mm_cvtsi64_si128(read_under_8(from) as i64),
                    };
                    _mm256_zextsi128_si256(low)
                }
            }

            #[inline(always)]
            fn store(self, to: &mut [u8], v: __m256i) {
                let to = &mut to[..self.n];
                // SAFETY: the one memory access is the unaligned store over
                // the 16 bytes `to[..16]` was just cut (and checked) to;
                // the narrower windows leave as integers, and the rest is
                // register-only. `self.ymm` is proof of AVX2.
                unsafe {
                    let low = _mm256_castsi256_si128(v);
                    match W {
                        16 => _mm_storeu_si128(to[..16].as_mut_ptr().cast(), low),
                        8 => to[..8].copy_from_slice(&_mm_cvtsi128_si64(low).to_le_bytes()),
                        _ => write_under_8(to, _mm_cvtsi128_si64(low) as u64),
                    }
                }
            }

            #[inline(always)]
            fn xor(self, a: __m256i, b: __m256i) -> __m256i {
                self.ymm.xor(a, b)
            }

            #[inline(always)]
            fn constant(self, c: u8) -> __m256i {
                self.ymm.constant(c)
            }

            #[inline(always)]
            fn mul(self, v: __m256i, c: __m256i) -> __m256i {
                self.ymm.mul(v, c)
            }
        }
    }
}

#[cfg(not(target_arch = "x86_64"))]
mod detail {
    //! Non-x86-64 hosts have no level: every public entry point takes its
    //! portable path.

    #[must_use]
    pub fn level_name() -> &'static str {
        "portable"
    }

    pub(super) fn row(_c: u8, _src: Option<&[u8]>, _dst: &mut [u8]) -> bool {
        false
    }

    #[cfg(test)]
    pub(crate) fn for_each_level(mut f: impl FnMut(&'static str)) {
        f(level_name());
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

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn nibble_tables_recombine_to_full_products() {
        for c in [2u8, 3, 0x57, 0x8E, 0xFF] {
            let (lo, hi) = detail::nibble_tables(c);
            for b in 0..=255u8 {
                let want = (Gf256::new(c) * Gf256::new(b)).value();
                assert_eq!(lo[(b & 0xF) as usize] ^ hi[(b >> 4) as usize], want);
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
        // Panel shapes straddle the 4-row register panel and odd source
        // counts; the row lengths cover every column pass (128/64-byte zmm
        // tiles, 64/32-byte ymm tiles) and every ragged end finished as a
        // gather.
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
        assert_ne!(level_name(), "portable", "no SIMD level detected");
    }

    /// The kernel rule as the dispatch applies it, at every level the CPU
    /// has: GFNI runs every row, `PSHUFB` rows of at least
    /// `SHORT_ROW_BYTES`, and everything else is the product-table kernel.
    #[test]
    fn rule_reads_only_row_length_and_cpu() {
        for_each_level(|level| {
            let short = matches!(level, "gfni" | "gfni512");
            let long = level != "portable";
            for len in [0, 1, SHORT_ROW_BYTES - 1] {
                assert_eq!(
                    detail::row(2, None, &mut vec![0; len]),
                    short,
                    "{level} len={len}"
                );
            }
            for len in [SHORT_ROW_BYTES, 1024, 1 << 20] {
                assert_eq!(
                    detail::row(2, None, &mut vec![0; len]),
                    long,
                    "{level} len={len}"
                );
            }
        });
    }

    /// A level whose checks fail must not stay forced on the thread: the
    /// tests that run there next would fail in its wake.
    #[test]
    fn a_failing_level_does_not_stay_forced() {
        let detected = level_name();
        let failed = std::panic::catch_unwind(|| for_each_level(|_| panic!("a level fails")));
        assert!(failed.is_err());
        assert_eq!(level_name(), detected);
    }

    /// The kernels older CPUs execute, on this CPU: every level up to the
    /// detected one (the delegating `portable` included) is forced in turn
    /// on this thread and driven through the every-length checks above.
    #[test]
    fn every_level_the_cpu_has_matches_reference() {
        for_each_level(|_| {
            simd_matches_reference_at_every_length();
            fused_multi_matches_reference_loop_at_every_length();
            scatter_matches_reference_loop_at_every_length();
            blocked_panel_matches_reference_loop_at_every_length();
        });
    }
}
