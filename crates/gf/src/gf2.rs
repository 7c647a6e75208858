//! The binary field GF(2).

use std::fmt;
use std::ops::Mul;

use rand::Rng;

use crate::field::{char2_ops, Field};
use crate::slab::{xor_slice, SlabField};

/// An element of GF(2): a single bit.
///
/// This is the paper's worst-case field — the helpfulness probability of a
/// random linear combination is only `1 − 1/q = 1/2`, which is exactly the
/// constant the proofs of Theorems 1 and 4 assume (`p = 1/(2nΔ)` and
/// `p = 1/(2n)` respectively).
///
/// # Examples
///
/// ```
/// use ag_gf::{Field, Gf2};
///
/// assert_eq!(Gf2::ONE + Gf2::ONE, Gf2::ZERO); // XOR
/// assert_eq!(Gf2::ONE * Gf2::ONE, Gf2::ONE);  // AND
/// assert_eq!(Gf2::ONE.inv(), Some(Gf2::ONE));
/// assert_eq!(Gf2::ZERO.inv(), None);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Gf2(u8);

impl Gf2 {
    /// Creates an element from a bit; only the lowest bit of `v` is kept.
    #[must_use]
    pub fn new(v: u8) -> Self {
        Gf2(v & 1)
    }

    /// The raw bit (0 or 1).
    #[must_use]
    pub fn bit(self) -> u8 {
        self.0
    }
}

impl Field for Gf2 {
    const ZERO: Self = Gf2(0);
    const ONE: Self = Gf2(1);
    const SIZE: u64 = 2;

    fn inv(self) -> Option<Self> {
        if self.0 == 1 {
            Some(self)
        } else {
            None
        }
    }

    fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        Gf2(rng.gen::<u8>() & 1)
    }

    fn random_nonzero<R: Rng + ?Sized>(_rng: &mut R) -> Self {
        // The only nonzero element.
        Gf2(1)
    }

    fn from_u64(v: u64) -> Self {
        Gf2((v & 1) as u8)
    }

    fn to_u64(self) -> u64 {
        u64::from(self.0)
    }
}

impl SlabField for Gf2 {
    const SYMBOL_BYTES: usize = 1;

    fn write_symbol(self, dst: &mut [u8]) {
        dst[0] = self.0;
    }

    fn read_symbol(src: &[u8]) -> Self {
        Gf2(src[0] & 1)
    }

    // GF(2) slabs are pure XOR: the only coefficients are 0 and 1, so an
    // axpy either vanishes or degenerates to `dst ^= src`.
    fn add_slice(src: &[u8], dst: &mut [u8]) {
        assert_eq!(src.len(), dst.len(), "slab operands must have equal length");
        xor_slice(src, dst);
    }

    fn mul_slice(c: Self, dst: &mut [u8]) {
        if c.is_zero() {
            dst.fill(0);
        }
    }

    fn mul_add_slice(c: Self, src: &[u8], dst: &mut [u8]) {
        assert_eq!(src.len(), dst.len(), "slab operands must have equal length");
        if !c.is_zero() {
            xor_slice(src, dst);
        }
    }
}

impl fmt::Display for Gf2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

char2_ops!(Gf2);

#[expect(
    clippy::suspicious_arithmetic_impl,
    reason = "AND is multiplication in GF(2)"
)]
impl Mul for Gf2 {
    type Output = Self;
    fn mul(self, rhs: Self) -> Self {
        Gf2(self.0 & rhs.0)
    }
}

impl From<bool> for Gf2 {
    fn from(b: bool) -> Self {
        Gf2(u8::from(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_masks_to_one_bit() {
        assert_eq!(Gf2::new(0), Gf2::ZERO);
        assert_eq!(Gf2::new(1), Gf2::ONE);
        assert_eq!(Gf2::new(2), Gf2::ZERO);
        assert_eq!(Gf2::new(0xFF), Gf2::ONE);
    }

    #[test]
    fn xor_addition_table() {
        assert_eq!(Gf2::ZERO + Gf2::ZERO, Gf2::ZERO);
        assert_eq!(Gf2::ZERO + Gf2::ONE, Gf2::ONE);
        assert_eq!(Gf2::ONE + Gf2::ZERO, Gf2::ONE);
        assert_eq!(Gf2::ONE + Gf2::ONE, Gf2::ZERO);
    }

    #[test]
    fn and_multiplication_table() {
        assert_eq!(Gf2::ZERO * Gf2::ZERO, Gf2::ZERO);
        assert_eq!(Gf2::ZERO * Gf2::ONE, Gf2::ZERO);
        assert_eq!(Gf2::ONE * Gf2::ONE, Gf2::ONE);
    }

    #[test]
    fn negation_is_identity_in_char_2() {
        assert_eq!(-Gf2::ONE, Gf2::ONE);
        assert_eq!(-Gf2::ZERO, Gf2::ZERO);
    }

    #[test]
    fn from_bool() {
        assert_eq!(Gf2::from(true), Gf2::ONE);
        assert_eq!(Gf2::from(false), Gf2::ZERO);
    }

    #[test]
    fn display_is_bit() {
        assert_eq!(Gf2::ONE.to_string(), "1");
        assert_eq!(Gf2::ZERO.to_string(), "0");
    }
}
