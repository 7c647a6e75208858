//! The `Standard` distribution: `rng.gen::<T>()` support.

use crate::RngCore;

/// A distribution that can sample values of type `T`.
pub trait Distribution<T> {
    /// Draws one sample.
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> T;
}

/// The standard distribution: full range for `u8`, `u16` and `u64`,
/// `[0, 1)` for `f64`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Standard;

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl Distribution<$t> for Standard {
            fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_standard_int!(u8, u16, u64);

impl Distribution<f64> for Standard {
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
        // 53 uniform mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}
