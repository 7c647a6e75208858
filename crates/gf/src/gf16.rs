//! GF(2⁴): the 16-element binary extension field.

use std::fmt;
use std::ops::Mul;
use std::sync::OnceLock;

use rand::Rng;

use crate::field::{char2_ops, Field};
use crate::slab::{xor_slice, SlabField};

/// Reduction polynomial x⁴ + x + 1 (0b1_0011), primitive over GF(2).
const POLY: u16 = 0b1_0011;

/// An element of GF(2⁴), stored in the low nibble of a byte.
///
/// Nibble-sized symbols halve coefficient overhead relative to GF(2⁸) while
/// keeping the redundancy probability `1/q = 1/16` low; they are a common
/// operating point for RLNC over small generations.
///
/// # Examples
///
/// ```
/// use ag_gf::{Field, Gf16};
///
/// let a = Gf16::new(0x6);
/// let b = Gf16::new(0xB);
/// assert_eq!((a * b) * b.inv().unwrap(), a);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Gf16(u8);

struct Tables {
    mul: [[u8; 16]; 16],
    inv: [u8; 16],
}

fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut mul = [[0u8; 16]; 16];
        for a in 0..16u16 {
            for (b, slot) in mul[a as usize].iter_mut().enumerate() {
                *slot = carryless_mod(a, b as u16);
            }
        }
        let mut inv = [0u8; 16];
        for a in 1..16usize {
            let b = mul[a]
                .iter()
                .position(|&p| p == 1)
                .expect("every nonzero GF(16) element has an inverse");
            inv[a] = b as u8;
        }
        Tables { mul, inv }
    })
}

/// Carry-less (polynomial) multiplication followed by reduction mod POLY.
fn carryless_mod(a: u16, b: u16) -> u8 {
    let mut prod: u16 = 0;
    let mut a = a;
    let mut b = b;
    while b != 0 {
        if b & 1 == 1 {
            prod ^= a;
        }
        a <<= 1;
        b >>= 1;
    }
    // Reduce the (up to 7-bit) product modulo the degree-4 polynomial.
    for shift in (4..8).rev() {
        if prod & (1 << shift) != 0 {
            prod ^= POLY << (shift - 4);
        }
    }
    (prod & 0xF) as u8
}

impl Gf16 {
    /// Creates an element from the low nibble of `v`.
    #[must_use]
    pub fn new(v: u8) -> Self {
        Gf16(v & 0xF)
    }

    /// The raw nibble value (0..=15).
    #[must_use]
    pub fn value(self) -> u8 {
        self.0
    }
}

impl Field for Gf16 {
    const ZERO: Self = Gf16(0);
    const ONE: Self = Gf16(1);
    const SIZE: u64 = 16;

    fn inv(self) -> Option<Self> {
        if self.0 == 0 {
            None
        } else {
            Some(Gf16(tables().inv[self.0 as usize]))
        }
    }

    fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        Gf16(rng.gen::<u8>() & 0xF)
    }

    fn from_u64(v: u64) -> Self {
        Gf16((v & 0xF) as u8)
    }

    fn to_u64(self) -> u64 {
        u64::from(self.0)
    }
}

impl SlabField for Gf16 {
    const SYMBOL_BYTES: usize = 1;

    fn write_symbol(self, dst: &mut [u8]) {
        dst[0] = self.0;
    }

    fn read_symbol(src: &[u8]) -> Self {
        Gf16(src[0] & 0xF)
    }

    fn add_slice(src: &[u8], dst: &mut [u8]) {
        assert_eq!(src.len(), dst.len(), "slab operands must have equal length");
        xor_slice(src, dst);
    }

    // One kernel at every row length: a load from the multiplier's 16-entry
    // product row per byte. It reads only the low nibble of a byte; the 0
    // and 1 fast paths look at no byte at all, so a dirty high nibble
    // survives `c = 1` (rows are canonicalised where they enter a basis).
    fn mul_slice(c: Self, dst: &mut [u8]) {
        match c.0 {
            1 => {}
            0 => dst.fill(0),
            _ => {
                let row = &tables().mul[c.0 as usize];
                for d in dst {
                    *d = row[(*d & 0xF) as usize];
                }
            }
        }
    }

    fn mul_add_slice(c: Self, src: &[u8], dst: &mut [u8]) {
        assert_eq!(src.len(), dst.len(), "slab operands must have equal length");
        match c.0 {
            0 => {}
            1 => xor_slice(src, dst),
            _ => {
                let row = &tables().mul[c.0 as usize];
                for (d, s) in dst.iter_mut().zip(src) {
                    *d ^= row[(*s & 0xF) as usize];
                }
            }
        }
    }
}

impl fmt::Display for Gf16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:x}", self.0)
    }
}

char2_ops!(Gf16);

impl Mul for Gf16 {
    type Output = Self;
    fn mul(self, rhs: Self) -> Self {
        Gf16(tables().mul[self.0 as usize][rhs.0 as usize])
    }
}

// Test-only duplicate probes: insert/contains, order never observed.
#[allow(clippy::disallowed_types)]
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multiplication_by_generator_cycles_through_all_nonzero() {
        // x (= 2) is a generator for the chosen primitive polynomial.
        let g = Gf16::new(2);
        let mut seen = std::collections::HashSet::new();
        let mut acc = Gf16::ONE;
        for _ in 0..15 {
            seen.insert(acc);
            acc *= g;
        }
        assert_eq!(acc, Gf16::ONE, "generator order must be 15");
        assert_eq!(seen.len(), 15);
    }

    #[test]
    fn inverse_table_is_total_on_nonzero() {
        for v in 1..16u8 {
            let a = Gf16::new(v);
            let ai = a.inv().expect("invertible");
            assert_eq!(a * ai, Gf16::ONE);
        }
        assert!(Gf16::ZERO.inv().is_none());
    }

    #[test]
    fn known_products() {
        // (x+1)(x^2+x) = x^3 + x  -> 3 * 6 = 0b1010 = 10 (no reduction needed)
        assert_eq!(Gf16::new(3) * Gf16::new(6), Gf16::new(10));
        // x^3 * x = x^4 = x + 1 -> 8 * 2 = 3
        assert_eq!(Gf16::new(8) * Gf16::new(2), Gf16::new(3));
    }

    #[test]
    fn slab_kernel_matches_scalar_field_ops() {
        let src: Vec<u8> = (0..16u8).collect();
        for c in (0..16u8).map(Gf16::new) {
            let mut axpy = vec![0x05; 16];
            Gf16::mul_add_slice(c, &src, &mut axpy);
            let mut mul = src.clone();
            Gf16::mul_slice(c, &mut mul);
            for (i, &s) in src.iter().enumerate() {
                let prod = (c * Gf16::new(s)).value();
                assert_eq!(axpy[i], 0x05 ^ prod, "axpy c={c} i={i}");
                assert_eq!(mul[i], prod, "mul c={c} i={i}");
            }
        }
    }

    #[test]
    fn slab_kernel_masks_noncanonical_high_nibbles() {
        let src = [0xF3u8, 0x2A];
        let mut dst = [0u8; 2];
        Gf16::mul_add_slice(Gf16::new(2), &src, &mut dst);
        assert_eq!(dst[0], (Gf16::new(2) * Gf16::new(3)).value());
        assert_eq!(dst[1], (Gf16::new(2) * Gf16::new(0xA)).value());
        let mut one = [0xF3u8, 0x2A];
        Gf16::mul_slice(Gf16::ONE, &mut one);
        assert_eq!(one, [0xF3, 0x2A], "c = 1 rewrites nothing");
    }

    #[test]
    fn new_masks_high_bits() {
        assert_eq!(Gf16::new(0xFF), Gf16::new(0xF));
    }
}
