//! Slab-law property tests: for every [`SlabField`], the packed bulk
//! operations agree element-wise with the scalar [`Field`] arithmetic.
//!
//! Each law is checked including the `c = 0` and `c = 1` edge cases and on
//! empty and odd-length slices (lengths are drawn from `0..67`, which covers
//! both sides of the 8-byte XOR chunking boundary).

use ag_gf::{Gf2, Gf256, SlabField, F257};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Random elements of `F` plus the forced edge coefficients 0 and 1.
fn elems_and_coeff<F: SlabField>(seed: u64, len: usize, coeff_sel: u8) -> (Vec<F>, Vec<F>, F) {
    let mut rng = StdRng::seed_from_u64(seed);
    let xs = (0..len).map(|_| F::random(&mut rng)).collect();
    let ys = (0..len).map(|_| F::random(&mut rng)).collect();
    let c = match coeff_sel {
        0 => F::ZERO,
        1 => F::ONE,
        _ => F::random(&mut rng),
    };
    (xs, ys, c)
}

/// Checks all three slab laws plus the packing invariants for one draw.
fn check_laws<F: SlabField>(seed: u64, len: usize, coeff_sel: u8) -> Result<(), TestCaseError> {
    let (xs, ys, c) = elems_and_coeff::<F>(seed, len, coeff_sel);
    let px = F::pack(&xs);
    let py = F::pack(&ys);
    prop_assert_eq!(px.len(), len * F::SYMBOL_BYTES);

    // Packing is canonical and round-trips.
    prop_assert_eq!(F::unpack(&px), xs.clone());
    prop_assert_eq!(F::pack(&[F::ZERO]), vec![0u8; F::SYMBOL_BYTES]);

    // add_slice == element-wise Field::add.
    let mut add = px.clone();
    F::add_slice(&py, &mut add);
    let want_add: Vec<F> = xs.iter().zip(&ys).map(|(&x, &y)| x + y).collect();
    prop_assert_eq!(F::unpack(&add), want_add);

    // mul_slice == element-wise Field::mul by c.
    let mut mul = px.clone();
    F::mul_slice(c, &mut mul);
    let want_mul: Vec<F> = xs.iter().map(|&x| c * x).collect();
    prop_assert_eq!(F::unpack(&mul), want_mul);

    // mul_add_slice == element-wise axpy.
    let mut axpy = px.clone();
    F::mul_add_slice(c, &py, &mut axpy);
    let want_axpy: Vec<F> = xs.iter().zip(&ys).map(|(&x, &y)| x + c * y).collect();
    prop_assert_eq!(F::unpack(&axpy), want_axpy);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn gf2_slab_laws(seed in any::<u64>(), len in 0usize..67, sel in 0u8..4) {
        check_laws::<Gf2>(seed, len, sel)?;
    }

    #[test]
    fn gf256_slab_laws(seed in any::<u64>(), len in 0usize..67, sel in 0u8..4) {
        check_laws::<Gf256>(seed, len, sel)?;
    }

    #[test]
    fn f257_slab_laws(seed in any::<u64>(), len in 0usize..67, sel in 0u8..4) {
        check_laws::<F257>(seed, len, sel)?;
    }
}

#[test]
fn gf256_axpy_exhaustive_over_coefficients() {
    // Every coefficient c, against a slab holding every byte value: the
    // full-table kernel must match the scalar product on all 256×256 pairs.
    let all: Vec<Gf256> = (0..=255u8).map(Gf256::new).collect();
    let src = Gf256::pack(&all);
    for c in 0..=255u8 {
        let c = Gf256::new(c);
        let mut dst = vec![0u8; src.len()];
        Gf256::mul_add_slice(c, &src, &mut dst);
        let want: Vec<Gf256> = all.iter().map(|&x| c * x).collect();
        assert_eq!(Gf256::unpack(&dst), want, "c = {c}");
    }
}
