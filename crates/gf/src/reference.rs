//! The GF(2⁸) product-table slab kernels.
//!
//! Byte-at-a-time kernels: one product-table row per multiplier, one
//! bounds-elided load plus an XOR per byte. They do two jobs:
//!
//! 1. **Production** — where the alternative builds nibble tables per
//!    multiplier, indexing a prebuilt table wins on short rows: on a CPU
//!    whose SIMD is `PSHUFB`, [`crate::simd`] runs here the rows shorter
//!    than [`SHORT_ROW_BYTES`](crate::simd::SHORT_ROW_BYTES) and the bytes
//!    a `PSHUFB` kernel leaves after its last whole vector; it runs every
//!    row here on a CPU without SIMD. A GFNI CPU multiplies without tables, so
//!    there these are the kernel of no row at all, short or long.
//! 2. **Differential testing** — the `proptest_kernels` suite replays every
//!    geometry through these kernels and [`crate::simd`] and asserts
//!    bit-identical output.
//!
//! Why the module is public: job 1. It is the shipped kernel of every CPU
//! below GFNI, so it is library code and cannot move to `tests/`; and the
//! suites of job 2 are integration tests, outside the crate, which reach
//! both kernel modules by name to compare them. Were GF(2⁸) ever
//! table-free everywhere, this would become a test oracle and leave `src/`
//! as `ag_linalg::Matrix` did.
//!
//! Like every kernel module, these functions are total in `c` (the 0 and 1
//! fast paths live here too, so each module is a complete implementation
//! on its own).

use crate::slab::xor_slice;

/// `dst[i] = c · dst[i]` over GF(2⁸), one product-table load per byte.
pub fn gf256_mul_slice(c: u8, dst: &mut [u8]) {
    if c == 1 {
        return;
    }
    if c == 0 {
        dst.fill(0);
        return;
    }
    let row = &crate::gf256::mul_table()[c as usize];
    for d in dst.iter_mut() {
        *d = row[*d as usize];
    }
}

/// `dst[i] ^= c · src[i]` over GF(2⁸) — the table axpy kernel.
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
    let row = &crate::gf256::mul_table()[c as usize];
    for (d, s) in dst.iter_mut().zip(src) {
        *d ^= row[*s as usize];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Gf256;

    #[test]
    fn gf256_kernels_match_scalar_field_ops() {
        let src: Vec<u8> = (0..=255u8).collect();
        for c in [0u8, 1, 2, 3, 0x57, 0xFF] {
            let mut axpy = vec![0xAA; 256];
            gf256_mul_add_slice(c, &src, &mut axpy);
            let mut mul = src.clone();
            gf256_mul_slice(c, &mut mul);
            for (i, &s) in src.iter().enumerate() {
                let prod = (Gf256::new(c) * Gf256::new(s)).value();
                assert_eq!(axpy[i], 0xAA ^ prod, "axpy c={c} i={i}");
                assert_eq!(mul[i], prod, "mul c={c} i={i}");
            }
        }
    }

    #[test]
    fn identity_and_annihilator_fast_paths() {
        let src = [7u8, 9];
        let mut dst = [1u8, 2];
        gf256_mul_add_slice(0, &src, &mut dst);
        assert_eq!(dst, [1, 2]);
        gf256_mul_add_slice(1, &src, &mut dst);
        assert_eq!(dst, [1 ^ 7, 2 ^ 9]);
        let mut z = [3u8, 4];
        gf256_mul_slice(0, &mut z);
        assert_eq!(z, [0, 0]);
        let mut one = [3u8, 4];
        gf256_mul_slice(1, &mut one);
        assert_eq!(one, [3, 4]);
    }
}
