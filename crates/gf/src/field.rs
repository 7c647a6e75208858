//! The [`Field`] trait: the contract every coefficient type satisfies.

use std::fmt::Debug;
use std::hash::Hash;
use std::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub, SubAssign};

use rand::Rng;

/// A finite field `F_q`.
///
/// Implementors are small `Copy` value types (one machine word or less).
/// Arithmetic comes from the standard operator traits, which are supertraits
/// here, so generic code writes `a + b` and `a * b` directly. The trait adds
/// only what operators cannot express: identities, inversion, sampling, and
/// a canonical integer embedding.
///
/// # Examples
///
/// Generic code can be written once for every field:
///
/// ```
/// use ag_gf::{Field, Gf2, Gf256};
///
/// fn dot<F: Field>(xs: &[F], ys: &[F]) -> F {
///     xs.iter().zip(ys).fold(F::ZERO, |acc, (&x, &y)| acc + x * y)
/// }
///
/// let a = [Gf256::new(3), Gf256::new(5)];
/// let b = [Gf256::new(7), Gf256::new(11)];
/// assert_eq!(dot(&a, &b), Gf256::new(3) * Gf256::new(7)
///     + Gf256::new(5) * Gf256::new(11));
///
/// let c = [Gf2::ONE, Gf2::ONE];
/// assert_eq!(dot(&c, &c), Gf2::ZERO); // 1·1 + 1·1 = 0 in GF(2)
/// ```
pub trait Field:
    Copy
    + Clone
    + Debug
    + PartialEq
    + Eq
    + Hash
    + Default
    + Send
    + Sync
    + 'static
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
{
    /// The additive identity.
    const ZERO: Self;
    /// The multiplicative identity.
    const ONE: Self;
    /// The number of elements `q` in the field.
    const SIZE: u64;

    /// Multiplicative inverse, or `None` for zero.
    #[must_use]
    fn inv(self) -> Option<Self>;

    /// Field division (`self / rhs`), or `None` when `rhs` is zero.
    #[must_use]
    fn div(self, rhs: Self) -> Option<Self> {
        rhs.inv().map(|r| self * r)
    }

    /// Exponentiation by squaring.
    #[must_use]
    fn pow(self, mut exp: u64) -> Self {
        let mut base = self;
        let mut acc = Self::ONE;
        while exp > 0 {
            if exp & 1 == 1 {
                acc *= base;
            }
            base = base * base;
            exp >>= 1;
        }
        acc
    }

    /// An element drawn uniformly at random from the whole field.
    fn random<R: Rng + ?Sized>(rng: &mut R) -> Self;

    /// An element drawn uniformly at random from the nonzero elements.
    fn random_nonzero<R: Rng + ?Sized>(rng: &mut R) -> Self {
        loop {
            let x = Self::random(rng);
            if x != Self::ZERO {
                return x;
            }
        }
    }

    /// Canonical embedding of a small integer (reduced mod the field's
    /// natural representation). Used by tests and the symbol codecs.
    fn from_u64(v: u64) -> Self;

    /// The canonical integer representation of the element.
    fn to_u64(self) -> u64;

    /// True when the element is zero. Provided for readability at call
    /// sites that scan coefficient vectors.
    fn is_zero(self) -> bool {
        self == Self::ZERO
    }
}

/// The operators the characteristic-2 fields share, for a tuple struct over
/// the element's bit pattern: `+` and `-` are both XOR, every element is
/// its own negative, and `*=` is the field's own `Mul`, the one operator
/// each field writes itself.
macro_rules! char2_ops {
    ($t:ident) => {
        #[expect(
            clippy::suspicious_arithmetic_impl,
            reason = "XOR is addition in characteristic 2"
        )]
        impl ::std::ops::Add for $t {
            type Output = Self;
            fn add(self, rhs: Self) -> Self {
                $t(self.0 ^ rhs.0)
            }
        }

        #[expect(
            clippy::suspicious_op_assign_impl,
            reason = "XOR is addition in characteristic 2"
        )]
        impl ::std::ops::AddAssign for $t {
            fn add_assign(&mut self, rhs: Self) {
                self.0 ^= rhs.0;
            }
        }

        #[expect(
            clippy::suspicious_arithmetic_impl,
            reason = "subtraction is addition in characteristic 2"
        )]
        impl ::std::ops::Sub for $t {
            type Output = Self;
            fn sub(self, rhs: Self) -> Self {
                $t(self.0 ^ rhs.0)
            }
        }

        #[expect(
            clippy::suspicious_op_assign_impl,
            reason = "subtraction is addition in characteristic 2"
        )]
        impl ::std::ops::SubAssign for $t {
            fn sub_assign(&mut self, rhs: Self) {
                self.0 ^= rhs.0;
            }
        }

        impl ::std::ops::MulAssign for $t {
            fn mul_assign(&mut self, rhs: Self) {
                *self = *self * rhs;
            }
        }

        impl ::std::ops::Neg for $t {
            type Output = Self;
            fn neg(self) -> Self {
                self
            }
        }
    };
}
pub(crate) use char2_ops;
