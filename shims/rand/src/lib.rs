//! Deterministic, dependency-free stand-in for the parts of `rand` 0.8
//! this workspace uses.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors exactly the subset it needs, and nothing without a caller:
//!
//! * [`RngCore`] (`next_u32`, `next_u64`), [`SeedableRng`] (`from_seed`,
//!   `seed_from_u64`) and a seeded [`rngs::StdRng`] (xoshiro256++ expanded
//!   from SplitMix64 — *not* the upstream ChaCha12 stream, which is fine
//!   because every consumer seeds explicitly and nothing in the repo
//!   depends on upstream's exact stream),
//! * [`Rng::gen`] for `u8`, `u16`, `u64` and `f64`, [`Rng::gen_bool`], and
//!   [`Rng::gen_range`] over `a..b` and `a..=b` of `u8`, `u64` and `usize`,
//! * `seq::SliceRandom::shuffle`.
//!
//! Statistical quality: xoshiro256++ passes BigCrush; integer ranges use
//! rejection sampling so they are exactly uniform.

#![forbid(unsafe_code)]

pub mod distributions;
pub mod rngs;
pub mod seq;

pub use distributions::{Distribution, Standard};

/// The core source of randomness: raw 32/64-bit output.
pub trait RngCore {
    /// Next 32 random bits.
    fn next_u32(&mut self) -> u32;
    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// User-facing sampling methods, mirroring `rand::Rng`.
pub trait Rng: RngCore {
    /// Samples a value of type `T` from the standard distribution.
    fn gen<T>(&mut self) -> T
    where
        Standard: Distribution<T>,
    {
        Standard.sample(self)
    }

    /// Samples uniformly from a range (`start..end` or `start..=end`).
    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        R: SampleRange<T>,
    {
        range.sample_single(self)
    }

    /// Returns `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool p out of range: {p}");
        self.gen::<f64>() < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Seedable construction, mirroring `rand::SeedableRng`.
pub trait SeedableRng: Sized {
    /// Raw seed type.
    type Seed: Default + AsMut<[u8]>;

    /// Constructs the generator from a raw seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Expands a `u64` into a full seed via SplitMix64 (the same
    /// expansion scheme upstream uses).
    fn seed_from_u64(state: u64) -> Self {
        let mut seed = Self::Seed::default();
        let mut x = state;
        for chunk in seed.as_mut().chunks_mut(8) {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let bytes = splitmix64_mix(x).to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
        Self::from_seed(seed)
    }
}

/// SplitMix64 finalizer: bijective 64-bit mix.
pub(crate) fn splitmix64_mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform sample in `[0, bound)` via rejection (exactly uniform).
/// `bound = 0` means the full 64-bit range.
pub(crate) fn uniform_below<R: RngCore + ?Sized>(rng: &mut R, bound: u64) -> u64 {
    if bound == 0 {
        return rng.next_u64();
    }
    // Powers of two never bias: masking equals `% bound` and consumes one
    // draw, exactly like the general rem == 0 path below. This matters on
    // hot paths — degree-2 partner picks on the ring hit this every call,
    // and `x & (bound - 1)` costs nothing while `x % bound` is a 64-bit
    // hardware division.
    if bound.is_power_of_two() {
        return rng.next_u64() & (bound - 1);
    }
    // 2^64 mod bound values at the top would bias `% bound`; reject them.
    // rem = 2^64 mod bound, computed branchily from u64::MAX % bound so the
    // common path pays two divisions total, not three.
    let max_rem = u64::MAX % bound;
    let rem = if max_rem + 1 == bound { 0 } else { max_rem + 1 };
    if rem == 0 {
        return rng.next_u64() % bound;
    }
    let top = u64::MAX - rem; // inclusive: exactly a multiple of `bound` values below
    loop {
        let x = rng.next_u64();
        if x <= top {
            return x % bound;
        }
    }
}

/// Range types `gen_range` accepts, mirroring `rand::distributions::uniform::SampleRange`.
pub trait SampleRange<T> {
    /// Draws one uniform sample from the range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_int_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end - self.start) as u64;
                self.start + uniform_below(rng, span) as $t
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                // hi - lo + 1 == 0 encodes the full 64-bit range.
                let span = ((hi - lo) as u64).wrapping_add(1);
                lo + uniform_below(rng, span) as $t
            }
        }
    )*};
}

impl_int_sample_range!(u8, u64, usize);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rngs::StdRng;

    #[test]
    fn seeded_streams_are_reproducible() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        assert_ne!(
            (0..4).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..4).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let x: usize = rng.gen_range(3..17);
            assert!((3..17).contains(&x));
            let y: u64 = rng.gen_range(5..=5);
            assert_eq!(y, 5);
        }
    }

    /// The straight-line reference `uniform_below` (pre fast paths): any
    /// strength reduction must preserve the exact value mapping *and* draw
    /// count, or every seeded simulation in the workspace silently changes.
    fn uniform_below_reference<R: RngCore + ?Sized>(rng: &mut R, bound: u64) -> u64 {
        if bound == 0 {
            return rng.next_u64();
        }
        let rem = (u64::MAX % bound).wrapping_add(1) % bound;
        if rem == 0 {
            return rng.next_u64() % bound;
        }
        let top = u64::MAX - rem;
        loop {
            let x = rng.next_u64();
            if x <= top {
                return x % bound;
            }
        }
    }

    #[test]
    fn uniform_below_fast_paths_are_bit_identical() {
        for bound in [0u64, 1, 2, 3, 4, 5, 7, 8, 16, 100, 9_999, 1 << 33, u64::MAX] {
            let mut fast = StdRng::seed_from_u64(0xFEED ^ bound);
            let mut reference = StdRng::seed_from_u64(0xFEED ^ bound);
            for _ in 0..2_000 {
                assert_eq!(
                    uniform_below(&mut fast, bound),
                    uniform_below_reference(&mut reference, bound),
                    "value mapping changed at bound {bound}"
                );
            }
            // Same number of draws consumed: streams stay aligned.
            assert_eq!(fast.next_u64(), reference.next_u64());
        }
    }

    #[test]
    fn gen_range_covers_all_values() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut seen = [false; 6];
        for _ in 0..1000 {
            seen[rng.gen_range(0usize..6)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = StdRng::seed_from_u64(3);
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
    }

    #[test]
    fn f64_unit_interval() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..1000 {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn works_through_unsized_ref() {
        fn draw<R: Rng + ?Sized>(rng: &mut R) -> u8 {
            rng.gen::<u8>()
        }
        let mut rng = StdRng::seed_from_u64(5);
        let _ = draw(&mut rng);
    }
}
