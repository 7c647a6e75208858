//! Prime fields GF(p) for odd characteristic experiments.

use std::fmt;
use std::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};

use rand::Rng;

use crate::field::Field;
use crate::slab::SlabField;

/// An element of the prime field GF(`P`), for a prime `P < 2³²`.
///
/// The paper's bounds hold for any field; prime fields let the field-size
/// ablation include non-power-of-two `q` (e.g. q = 257 just above one byte).
/// The representation is the canonical residue in `0..P`.
///
/// # Examples
///
/// ```
/// use ag_gf::{Field, Fp};
///
/// type F11 = Fp<11>;
/// let a = F11::from_u64(7);
/// assert_eq!(a * a.inv().unwrap(), F11::ONE);
/// assert_eq!(F11::from_u64(8) + F11::from_u64(5), F11::from_u64(2));
/// ```
///
/// Any other `P` fails the build: a composite one is no field (a nonzero
/// element has no inverse), and from 2³² on a product overflows `u64`.
///
/// ```compile_fail
/// use ag_gf::{Field, Fp};
///
/// let _ = Fp::<15>::ONE;
/// ```
///
/// ```compile_fail
/// use ag_gf::Fp;
///
/// let _ = Fp::<{ (1 << 32) + 15 }>::new(3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fp<const P: u64>(u64);

/// Is `p` a prime below 2³²? Trial division, run at compile time.
const fn is_prime_below_2_32(p: u64) -> bool {
    if p < 2 || p >= 1 << 32 {
        return false;
    }
    let mut d = 2;
    while d * d <= p {
        if p.is_multiple_of(d) {
            return false;
        }
        d += 1;
    }
    true
}

/// GF(7): tiny prime field (exhaustively testable).
pub type F7 = Fp<7>;
/// GF(13): small prime field.
pub type F13 = Fp<13>;
/// GF(257): the smallest prime above one byte — pairs with [`crate::Gf256`]
/// in the field-size ablation.
pub type F257 = Fp<257>;
/// GF(65537): the Fermat prime above two bytes.
pub type F65537 = Fp<65537>;

impl<const P: u64> Fp<P> {
    /// Fails the build where it is evaluated, unless `P` is a prime below
    /// 2³². Every way to make an element evaluates it.
    const PRIME: () = assert!(is_prime_below_2_32(P), "Fp<P> needs a prime P below 2^32");

    /// Creates an element from any integer by reducing mod `P`.
    #[must_use]
    pub fn new(v: u64) -> Self {
        let () = Self::PRIME;
        Fp(v % P)
    }

    /// The canonical residue in `0..P`.
    #[must_use]
    pub fn residue(self) -> u64 {
        self.0
    }

    /// Extended Euclid over the integers; returns the inverse of `a` mod `P`.
    fn euclid_inv(a: u64) -> Option<u64> {
        if a == 0 {
            return None;
        }
        let (mut old_r, mut r) = (i128::from(P), i128::from(a));
        let (mut old_t, mut t) = (0i128, 1i128);
        while r != 0 {
            let q = old_r / r;
            (old_r, r) = (r, old_r - q * r);
            (old_t, t) = (t, old_t - q * t);
        }
        // P is prime, so gcd(P, a) = old_r = 1 and old_t is the inverse.
        let p = i128::from(P);
        Some((((old_t % p) + p) % p) as u64)
    }
}

impl<const P: u64> Field for Fp<P> {
    const ZERO: Self = {
        let () = Self::PRIME;
        Fp(0)
    };
    const ONE: Self = {
        let () = Self::PRIME;
        Fp(1)
    };
    const SIZE: u64 = P;

    fn inv(self) -> Option<Self> {
        Self::euclid_inv(self.0).map(Fp)
    }

    fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        let () = Self::PRIME;
        Fp(rng.gen_range(0..P))
    }

    fn from_u64(v: u64) -> Self {
        Self::new(v)
    }

    fn to_u64(self) -> u64 {
        self.0
    }
}

impl<const P: u64> SlabField for Fp<P> {
    // Prime-field slabs use the scalar fallback throughout: odd
    // characteristic rules out the XOR fast path, and GF(p) appears only in
    // the field-size ablation, never on the throughput-critical
    // configurations.
    const SYMBOL_BYTES: usize = 8;

    fn write_symbol(self, dst: &mut [u8]) {
        dst[..8].copy_from_slice(&self.0.to_le_bytes());
    }

    fn read_symbol(src: &[u8]) -> Self {
        Self::new(u64::from_le_bytes(src[..8].try_into().expect("8 bytes")))
    }
}

impl<const P: u64> Default for Fp<P> {
    fn default() -> Self {
        Self::ZERO
    }
}

impl<const P: u64> fmt::Display for Fp<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl<const P: u64> Add for Fp<P> {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        let s = self.0 + rhs.0;
        Fp(if s >= P { s - P } else { s })
    }
}

impl<const P: u64> AddAssign for Fp<P> {
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl<const P: u64> Sub for Fp<P> {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        Fp(if self.0 >= rhs.0 {
            self.0 - rhs.0
        } else {
            self.0 + P - rhs.0
        })
    }
}

impl<const P: u64> SubAssign for Fp<P> {
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}

impl<const P: u64> Mul for Fp<P> {
    type Output = Self;
    fn mul(self, rhs: Self) -> Self {
        // P < 2^32 keeps the product within u64.
        Fp((self.0 * rhs.0) % P)
    }
}

impl<const P: u64> MulAssign for Fp<P> {
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl<const P: u64> Neg for Fp<P> {
    type Output = Self;
    fn neg(self) -> Self {
        if self.0 == 0 {
            self
        } else {
            Fp(P - self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modular_wraparound() {
        assert_eq!(F7::new(9), F7::new(2));
        assert_eq!(F7::from_u64(6) + F7::from_u64(6), F7::from_u64(5));
        assert_eq!(F7::from_u64(2) - F7::from_u64(5), F7::from_u64(4));
    }

    #[test]
    fn negation_sums_to_zero() {
        for v in 0..7 {
            let a = F7::from_u64(v);
            assert_eq!(a + (-a), F7::ZERO);
        }
    }

    #[test]
    fn f257_inverses_exhaustive() {
        for v in 1..257u64 {
            let a = F257::from_u64(v);
            assert_eq!(a * a.inv().unwrap(), F257::ONE, "v = {v}");
        }
    }

    #[test]
    fn fermat_little_theorem() {
        for v in [1u64, 2, 100, 256] {
            assert_eq!(F257::from_u64(v).pow(256), F257::ONE);
        }
    }

    #[test]
    fn modulus_check_accepts_exactly_the_primes_below_2_32() {
        let primes: Vec<u64> = (0..60).filter(|&p| is_prime_below_2_32(p)).collect();
        assert_eq!(
            primes,
            [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
        );
        for p in [257, 65537, (1 << 32) - 5] {
            assert!(is_prime_below_2_32(p), "{p}");
        }
        for p in [65535, 1 << 32, (1 << 32) + 15, u64::MAX] {
            assert!(!is_prime_below_2_32(p), "{p}");
        }
    }
}
