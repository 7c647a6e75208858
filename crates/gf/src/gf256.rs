//! GF(2⁸): the 256-element binary extension field with log/exp tables.
//!
//! Scalar products go through the log/exp tables. Each slab operation is
//! one call into [`crate::simd`], which picks the kernel from the row
//! length and the CPU: on a CPU with GFNI every row, of any length, runs
//! `GF2P8MULB` and touches no table; below GFNI rows of at least
//! [`SHORT_ROW_BYTES`](crate::simd::SHORT_ROW_BYTES) run the `PSHUFB`
//! kernels and shorter ones, like every row on a CPU without SIMD, the
//! product-table kernel ([`crate::reference`]).

use std::fmt;
use std::ops::Mul;
use std::sync::OnceLock;

use rand::Rng;

use crate::field::{char2_ops, Field};
use crate::simd;
use crate::slab::{xor_slice, SlabField};

/// Reduction polynomial x⁸ + x⁴ + x³ + x + 1 (0x11B, the AES polynomial).
const POLY: u16 = 0x11B;
/// 0x03 = x + 1 is a generator of the multiplicative group for 0x11B.
const GENERATOR: u8 = 0x03;

/// An element of GF(2⁸): one byte.
///
/// This is the practical default for RLNC — symbols align with bytes, the
/// redundancy probability is only `1/256`, and multiplication is two table
/// lookups. The tables are built lazily on first use and shared process-wide.
///
/// # Examples
///
/// ```
/// use ag_gf::{Field, Gf256};
///
/// // The classic AES test vector: 0x57 * 0x83 = 0xC1.
/// assert_eq!(Gf256::new(0x57) * Gf256::new(0x83), Gf256::new(0xC1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Gf256(u8);

struct Tables {
    /// exp[i] = g^i for i in 0..255 (extended to 510 to skip a mod).
    exp: [u8; 512],
    /// log[v] = i such that g^i = v, for v in 1..=255. log[0] unused.
    log: [u16; 256],
}

fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut exp = [0u8; 512];
        let mut log = [0u16; 256];
        let mut acc: u16 = 1;
        for i in 0..255u16 {
            exp[i as usize] = acc as u8;
            log[acc as usize] = i;
            // Multiply acc by the generator (x + 1): acc*x + acc.
            acc = (acc << 1) ^ acc;
            if acc & 0x100 != 0 {
                acc ^= POLY;
            }
        }
        debug_assert_eq!(acc, 1, "generator must have order 255");
        // Extend so that exp[i + j] is valid for i, j <= 255 without a mod.
        for i in 255..512 {
            exp[i] = exp[i - 255];
        }
        Tables { exp, log }
    })
}

impl Gf256 {
    /// Creates an element from a byte.
    #[must_use]
    pub fn new(v: u8) -> Self {
        Gf256(v)
    }

    /// The raw byte value.
    #[must_use]
    pub fn value(self) -> u8 {
        self.0
    }

    /// The generator `g = x + 1` of the multiplicative group.
    #[must_use]
    pub fn generator() -> Self {
        Gf256(GENERATOR)
    }
}

impl Field for Gf256 {
    const ZERO: Self = Gf256(0);
    const ONE: Self = Gf256(1);
    const SIZE: u64 = 256;

    fn inv(self) -> Option<Self> {
        if self.0 == 0 {
            return None;
        }
        let t = tables();
        let l = t.log[self.0 as usize] as usize;
        Some(Gf256(t.exp[255 - l]))
    }

    fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        Gf256(rng.gen::<u8>())
    }

    fn from_u64(v: u64) -> Self {
        Gf256((v & 0xFF) as u8)
    }

    fn to_u64(self) -> u64 {
        u64::from(self.0)
    }
}

/// The full 256×256 product table: `mul_table()[a][b] = a · b`.
///
/// 64 KiB, built once from the log/exp tables and shared process-wide. The
/// reference slab kernels index one 256-byte row per coefficient, turning
/// each symbol of an axpy into a single dependent load plus an XOR —
/// versus two table lookups, an add and a zero-test on the scalar log/exp
/// path. The `PSHUFB` kernels (`crate::simd`) replace the row with
/// per-multiplier 16-entry nibble tables instead, and the GFNI kernels with
/// nothing: on such a CPU no slab operation reads this table.
pub(crate) fn mul_table() -> &'static [[u8; 256]; 256] {
    static FULL: OnceLock<Box<[[u8; 256]; 256]>> = OnceLock::new();
    FULL.get_or_init(|| {
        let mut full = Box::new([[0u8; 256]; 256]);
        for a in 0..=255u8 {
            let row = &mut full[a as usize];
            for (b, slot) in row.iter_mut().enumerate() {
                *slot = (Gf256(a) * Gf256(b as u8)).0;
            }
        }
        full
    })
}

impl SlabField for Gf256 {
    const SYMBOL_BYTES: usize = 1;

    fn write_symbol(self, dst: &mut [u8]) {
        dst[0] = self.0;
    }

    fn read_symbol(src: &[u8]) -> Self {
        Gf256(src[0])
    }

    fn add_slice(src: &[u8], dst: &mut [u8]) {
        assert_eq!(src.len(), dst.len(), "slab operands must have equal length");
        xor_slice(src, dst);
    }

    fn mul_slice(c: Self, dst: &mut [u8]) {
        simd::gf256_mul_slice(c.0, dst);
    }

    fn mul_add_slice(c: Self, src: &[u8], dst: &mut [u8]) {
        simd::gf256_mul_add_slice(c.0, src, dst);
    }

    fn mul_add_multi(factors: &[u8], srcs: &[u8], dst: &mut [u8]) {
        simd::gf256_mul_add_multi(factors, srcs, dst);
    }

    fn mul_add_block(coefs: &[u8], srcs: &[u8], dsts: &mut [u8], row_bytes: usize) {
        simd::gf256_mul_add_block(coefs, srcs, dsts, row_bytes);
    }

    fn mul_add_scatter(factors: &[u8], src: &[u8], dsts: &mut [u8]) {
        simd::gf256_mul_add_scatter(factors, src, dsts);
    }

    fn canonicalize_slice(_slab: &mut [u8]) {}
}

impl fmt::Display for Gf256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:02x}", self.0)
    }
}

char2_ops!(Gf256);

impl Mul for Gf256 {
    type Output = Self;
    fn mul(self, rhs: Self) -> Self {
        if self.0 == 0 || rhs.0 == 0 {
            return Gf256(0);
        }
        let t = tables();
        let idx = t.log[self.0 as usize] as usize + t.log[rhs.0 as usize] as usize;
        Gf256(t.exp[idx])
    }
}

impl From<u8> for Gf256 {
    fn from(v: u8) -> Self {
        Gf256(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aes_reference_products() {
        assert_eq!(Gf256::new(0x57) * Gf256::new(0x83), Gf256::new(0xC1));
        assert_eq!(Gf256::new(0x57) * Gf256::new(0x13), Gf256::new(0xFE));
        assert_eq!(Gf256::new(0x02) * Gf256::new(0x87), Gf256::new(0x15));
    }

    #[test]
    fn all_nonzero_elements_invert() {
        for v in 1..=255u8 {
            let a = Gf256::new(v);
            assert_eq!(a * a.inv().unwrap(), Gf256::ONE, "v = {v}");
        }
    }

    #[test]
    fn generator_has_full_order() {
        let g = Gf256::generator();
        let mut acc = Gf256::ONE;
        for i in 1..255u32 {
            acc *= g;
            assert_ne!(acc, Gf256::ONE, "premature cycle at {i}");
        }
        assert_eq!(acc * g, Gf256::ONE);
    }

    #[test]
    fn mul_matches_slow_carryless_reference() {
        // Cross-check the table-based product against a bitwise reference.
        fn slow_mul(mut a: u16, mut b: u16) -> u8 {
            let mut p: u16 = 0;
            while b != 0 {
                if b & 1 == 1 {
                    p ^= a;
                }
                a <<= 1;
                if a & 0x100 != 0 {
                    a ^= POLY;
                }
                b >>= 1;
            }
            p as u8
        }
        for a in (0..=255u16).step_by(7) {
            for b in (0..=255u16).step_by(11) {
                assert_eq!(
                    (Gf256::new(a as u8) * Gf256::new(b as u8)).value(),
                    slow_mul(a, b),
                    "a={a} b={b}"
                );
            }
        }
    }

    #[test]
    fn pow_fermat_identity() {
        // a^255 = 1 for a != 0 (Fermat's little theorem for GF(2^8)).
        for v in [1u8, 2, 3, 0x57, 0xAB, 0xFF] {
            assert_eq!(Gf256::new(v).pow(255), Gf256::ONE);
        }
    }
}
