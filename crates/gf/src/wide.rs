//! Split-nibble tables, and the GF(2⁴) SWAR kernels built on them.
//!
//! Multiplication by a fixed `c` in a binary extension field is GF(2)-linear
//! in the operand, so the product of `c` with a whole byte splits along the
//! byte's two nibbles:
//!
//! ```text
//! c · b  =  LO[b & 0xF]  ^  HI[b >> 4]
//! ```
//!
//! where `LO[x] = c · x` and `HI[x] = c · (x << 4)` are two 16-entry
//! *nibble tables* built per multiplier ([`NibbleTables`]). `PSHUFB` applies
//! exactly this table pair 16/32 bytes at a time (see [`crate::simd`]).
//!
//! The SWAR kernels are the scalar emulation of that shuffle for GF(2⁴),
//! whose symbols occupy the low nibble of their byte: by linearity again,
//! `LO` is determined by its four power-of-two entries, so
//!
//! ```text
//! c · b = Σ_{i=0..4} bit_i(b) · LO[1 << i]
//! ```
//!
//! and a `u64` word of 8 packed symbols is multiplied with four
//! shift-mask-multiply-XOR steps, no per-byte loads:
//!
//! ```text
//! acc ^= ((w >> i) & 0x0101…01) * LO[1 << i]      // for i in 0..4
//! ```
//!
//! (`(w >> i) & 0x0101…01` extracts bit `i` of every byte lane;
//! multiplying that 0/1 lane mask by the table byte broadcasts it into
//! exactly the lanes whose bit was set — lanes never carry into each other
//! because the table byte is `< 256`.) The high nibble is ignored — the same
//! masking the reference kernel applies. GF(2⁸) has no SWAR kernel: eight
//! steps per word plus the table build lose to the prebuilt product table
//! of [`crate::reference`] at every row length.
//!
//! Loads go through `u64::from_le_bytes`, so slabs need no alignment; the
//! sub-8-byte tail falls back to the nibble table one byte at a time. The
//! `proptest_kernels` suite pins these kernels bit-identical to
//! [`crate::reference`] and [`crate::simd`] over every geometry (odd
//! lengths, tails, empty rows, misaligned starts) and coefficient class.

use crate::slab::xor_slice;
use crate::{Gf16, Gf256};

/// The per-multiplier split-nibble tables: `lo[x] = c·x`,
/// `hi[x] = c·(x << 4)`.
///
/// 32 bytes per multiplier, built with 30 scalar products at the top of a
/// row operation and amortized over its length. Shared by the SWAR kernels
/// (via the power-of-two entries of `lo`) and the `PSHUFB` kernels
/// (verbatim).
#[derive(Debug, Clone, Copy)]
pub struct NibbleTables {
    /// Products of `c` with the 16 low-nibble values.
    pub lo: [u8; 16],
    /// Products of `c` with the 16 high-nibble values `x << 4`.
    pub hi: [u8; 16],
}

/// Builds the GF(2⁸) nibble tables for multiplier `c`.
#[must_use]
pub fn gf256_nibble_tables(c: u8) -> NibbleTables {
    let c = Gf256::new(c);
    let mut t = NibbleTables {
        lo: [0; 16],
        hi: [0; 16],
    };
    for x in 0..16u8 {
        t.lo[x as usize] = (c * Gf256::new(x)).value();
        t.hi[x as usize] = (c * Gf256::new(x << 4)).value();
    }
    t
}

/// Builds the GF(2⁴) nibble table for multiplier `c` (the `lo` half; the
/// `hi` half is identically zero because canonical GF(2⁴) packing keeps
/// the high nibble clear and the reference kernel masks it off).
#[must_use]
pub fn gf16_nibble_tables(c: u8) -> NibbleTables {
    let c = Gf16::new(c);
    let mut t = NibbleTables {
        lo: [0; 16],
        hi: [0; 16],
    };
    for x in 0..16u8 {
        t.lo[x as usize] = (c * Gf16::new(x)).value();
    }
    t
}

/// Bit `0` of every byte lane.
const LANE_LSB: u64 = 0x0101_0101_0101_0101;

/// The four SWAR broadcast steps for one word: `Σ bit_i(w) · t[i]` over the
/// low nibble of every byte lane.
#[inline]
fn mul_word(w: u64, t: &[u64; 4]) -> u64 {
    let mut acc = 0u64;
    for (i, &ti) in t.iter().enumerate() {
        acc ^= ((w >> i) & LANE_LSB) * ti;
    }
    acc
}

/// Expands the power-of-two entries of `lo` into the per-bit multipliers
/// consumed by [`mul_word`].
#[inline]
fn bit_multipliers(lo: &[u8; 16]) -> [u64; 4] {
    [1, 2, 4, 8].map(|x| u64::from(lo[x]))
}

/// `dst[i] = c · dst[i]` over GF(2⁴), 8 symbols per `u64` step.
pub fn gf16_mul_slice(c: u8, dst: &mut [u8]) {
    if c == 1 {
        // Match the reference kernel exactly: multiplying by 1 leaves even
        // non-canonical high nibbles untouched.
        return;
    }
    if c == 0 {
        dst.fill(0);
        return;
    }
    let lo = gf16_nibble_tables(c).lo;
    let tb = bit_multipliers(&lo);
    let mut d = dst.chunks_exact_mut(8);
    for dc in &mut d {
        let w = u64::from_le_bytes(dc[..8].try_into().expect("8-byte chunk"));
        dc.copy_from_slice(&mul_word(w, &tb).to_le_bytes());
    }
    for db in d.into_remainder() {
        *db = lo[(*db & 0xF) as usize];
    }
}

/// `dst[i] ^= c · src[i]` over GF(2⁴), 8 symbols per `u64` step.
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
    let lo = gf16_nibble_tables(c).lo;
    let tb = bit_multipliers(&lo);
    let mut d = dst.chunks_exact_mut(8);
    let mut s = src.chunks_exact(8);
    for (dc, sc) in (&mut d).zip(&mut s) {
        let w = u64::from_le_bytes(sc.try_into().expect("8-byte chunk"));
        let acc = u64::from_le_bytes(dc[..8].try_into().expect("8-byte chunk")) ^ mul_word(w, &tb);
        dc.copy_from_slice(&acc.to_le_bytes());
    }
    for (db, sb) in d.into_remainder().iter_mut().zip(s.remainder()) {
        *db ^= lo[(sb & 0xF) as usize];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nibble_tables_recombine_to_full_products() {
        for c in [2u8, 3, 0x57, 0x8E, 0xFF] {
            let t = gf256_nibble_tables(c);
            for b in 0..=255u8 {
                let want = (Gf256::new(c) * Gf256::new(b)).value();
                assert_eq!(t.lo[(b & 0xF) as usize] ^ t.hi[(b >> 4) as usize], want);
            }
        }
    }

    #[test]
    fn gf16_swar_matches_reference_including_dirty_high_nibbles() {
        let src: Vec<u8> = (0..=255u8).collect(); // includes non-canonical bytes
        for c in 0..16u8 {
            let mut want = vec![0x0Fu8; 256];
            crate::reference::gf16_mul_add_slice(c, &src, &mut want);
            let mut got = vec![0x0Fu8; 256];
            gf16_mul_add_slice(c, &src, &mut got);
            assert_eq!(got, want, "axpy c={c}");
        }
    }

    #[test]
    fn tails_and_odd_lengths_match_reference() {
        let src: Vec<u8> = (0..64u8).map(|b| b.wrapping_mul(37)).collect();
        for len in [0usize, 1, 3, 7, 8, 9, 15, 17, 63] {
            let mut want = vec![0x03u8; len];
            crate::reference::gf16_mul_add_slice(0xD, &src[..len], &mut want);
            let mut got = vec![0x03u8; len];
            gf16_mul_add_slice(0xD, &src[..len], &mut got);
            assert_eq!(got, want, "axpy len={len}");

            let mut want_mul = src[..len].to_vec();
            crate::reference::gf16_mul_slice(0xD, &mut want_mul);
            let mut got_mul = src[..len].to_vec();
            gf16_mul_slice(0xD, &mut got_mul);
            assert_eq!(got_mul, want_mul, "mul len={len}");
        }
    }
}
