//! GF(2¹⁶): the 65536-element binary extension field.

use std::fmt;
use std::ops::Mul;

use rand::Rng;

use crate::field::{char2_ops, Field};
use crate::slab::{xor_slice, SlabField};

/// Reduction polynomial x¹⁶ + x¹² + x³ + x + 1 (0x1100B), primitive.
const POLY: u32 = 0x1_100B;

/// An element of GF(2¹⁶): one 16-bit word.
///
/// Multiplication uses carry-less (Russian-peasant) multiplication with
/// interleaved reduction — 16 shift/xor steps, no tables — and inversion uses
/// Fermat's little theorem (`a⁻¹ = a^(2¹⁶−2)`). This keeps the type
/// allocation-free while still being fast enough for simulation workloads
/// where GF(2¹⁶) appears only in the field-size ablation.
///
/// # Examples
///
/// ```
/// use ag_gf::{Field, Gf65536};
///
/// let a = Gf65536::new(0x1234);
/// assert_eq!(a * a.inv().unwrap(), Gf65536::ONE);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Gf65536(u16);

impl Gf65536 {
    /// Creates an element from a 16-bit word.
    #[must_use]
    pub fn new(v: u16) -> Self {
        Gf65536(v)
    }

    /// The raw 16-bit value.
    #[must_use]
    pub fn value(self) -> u16 {
        self.0
    }
}

/// Carry-less multiply of two 16-bit polynomials, reduced mod POLY.
fn clmul_reduce(a: u16, b: u16) -> u16 {
    let mut a = u32::from(a);
    let mut b = u32::from(b);
    let mut p: u32 = 0;
    while b != 0 {
        if b & 1 == 1 {
            p ^= a;
        }
        a <<= 1;
        if a & 0x1_0000 != 0 {
            a ^= POLY;
        }
        b >>= 1;
    }
    debug_assert!(p < 0x1_0000);
    p as u16
}

impl Field for Gf65536 {
    const ZERO: Self = Gf65536(0);
    const ONE: Self = Gf65536(1);
    const SIZE: u64 = 65536;

    fn inv(self) -> Option<Self> {
        if self.0 == 0 {
            return None;
        }
        // a^(q-2) = a^65534 by Fermat.
        Some(self.pow(65534))
    }

    fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        Gf65536(rng.gen::<u16>())
    }

    fn from_u64(v: u64) -> Self {
        Gf65536((v & 0xFFFF) as u16)
    }

    fn to_u64(self) -> u64 {
        u64::from(self.0)
    }
}

impl SlabField for Gf65536 {
    const SYMBOL_BYTES: usize = 2;

    fn write_symbol(self, dst: &mut [u8]) {
        dst[..2].copy_from_slice(&self.0.to_le_bytes());
    }

    fn read_symbol(src: &[u8]) -> Self {
        Gf65536(u16::from_le_bytes([src[0], src[1]]))
    }

    // Addition is XOR on the little-endian packing; multiplication stays on
    // the scalar clmul fallback (GF(2^16) only appears in the field-size
    // ablation, never on the throughput-critical configurations).
    fn add_slice(src: &[u8], dst: &mut [u8]) {
        assert_eq!(src.len(), dst.len(), "slab operands must have equal length");
        assert!(
            dst.len().is_multiple_of(Self::SYMBOL_BYTES),
            "slab length {} is not a multiple of the 2-byte symbol size",
            dst.len()
        );
        xor_slice(src, dst);
    }

    fn canonicalize_slice(_slab: &mut [u8]) {}
}

impl fmt::Display for Gf65536 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:04x}", self.0)
    }
}

char2_ops!(Gf65536);

impl Mul for Gf65536 {
    type Output = Self;
    fn mul(self, rhs: Self) -> Self {
        Gf65536(clmul_reduce(self.0, rhs.0))
    }
}

impl From<u16> for Gf65536 {
    fn from(v: u16) -> Self {
        Gf65536(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn multiplication_by_x_shifts() {
        // 2 = x; multiplying x^14 by x gives x^15 with no reduction.
        assert_eq!(
            Gf65536::new(1 << 14) * Gf65536::new(2),
            Gf65536::new(1 << 15)
        );
        // x^15 * x = x^16 = x^12 + x^3 + x + 1 (mod POLY).
        assert_eq!(
            Gf65536::new(1 << 15) * Gf65536::new(2),
            Gf65536::new(0x100B)
        );
    }

    #[test]
    fn random_elements_invert() {
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..50 {
            let a = Gf65536::random_nonzero(&mut rng);
            let ai = a.inv().expect("nonzero inverts");
            assert_eq!(a * ai, Gf65536::ONE);
        }
        assert!(Gf65536::ZERO.inv().is_none());
    }

    #[test]
    fn fermat_order_divides_group_order() {
        let mut rng = StdRng::seed_from_u64(43);
        for _ in 0..20 {
            let a = Gf65536::random_nonzero(&mut rng);
            assert_eq!(a.pow(65535), Gf65536::ONE);
        }
    }

    #[test]
    fn distributes_over_addition_spot_check() {
        let mut rng = StdRng::seed_from_u64(44);
        for _ in 0..100 {
            let a = Gf65536::random(&mut rng);
            let b = Gf65536::random(&mut rng);
            let c = Gf65536::random(&mut rng);
            assert_eq!(a * (b + c), a * b + a * c);
        }
    }
}
