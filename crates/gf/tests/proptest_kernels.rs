//! Kernel differential proptests: every kernel module, every edge geometry.
//!
//! The GF(2⁸) slab-kernel modules — [`ag_gf::reference`] (product tables)
//! and [`ag_gf::simd`] (runtime-detected `PSHUFB`/`GF2P8MULB`) — must be
//! bit-identical on every input, or simulation trajectories would depend on
//! the host CPU. These properties drive both, and the one kernel of every
//! other field, against the scalar [`Field`]-arithmetic oracle over the
//! geometries where wide kernels break in practice:
//!
//! * empty rows and odd lengths,
//! * sub-8-byte and sub-16/32-byte tails (SIMD window and block
//!   boundaries),
//! * slabs starting at every misalignment `0..8` inside a parent buffer,
//! * coefficients `c ∈ {0, 1, generator, random}`.
//!
//! The dispatch lanes go through [`SlabField`] and draw row lengths on both
//! sides of [`SHORT_ROW_BYTES`]. Which arms of the selection rule (in
//! `ag_gf::simd`'s level dispatch) that exercises depends on the CPU class:
//! below GFNI a GF(2⁸) row under the bound takes the reference kernel and a
//! longer one SIMD, while on a GFNI CPU every length is the SIMD arm. The
//! arm a host does not take by itself is driven by `ag-gf`'s unit tests,
//! which force every level the CPU has (`simd::tests`).
//!
//! Run with `PROPTEST_CASES=256` in CI for the elevated-coverage pass.

use ag_gf::simd::SHORT_ROW_BYTES;
use ag_gf::{reference, simd, Field, Gf256, SlabField};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic pseudo-random byte buffer.
fn bytes(seed: u64, len: usize) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len).map(|_| rng.gen::<u8>()).collect()
}

/// Maps a coefficient selector to the forced edge cases and random draws.
fn coeff<F: Field>(sel: u8, generator: F, seed: u64) -> F {
    match sel {
        0 => F::ZERO,
        1 => F::ONE,
        2 => generator,
        _ => F::random(&mut StdRng::seed_from_u64(seed ^ 0xC0FFEE)),
    }
}

/// Runs one (c, geometry) draw through both GF(2⁸) kernels and the scalar
/// oracle. `off` misaligns the slab start inside a parent buffer.
fn gf256_rungs_agree(seed: u64, len: usize, off: usize, sel: u8) -> Result<(), TestCaseError> {
    let c = coeff(sel, Gf256::generator(), seed);
    let src_buf = bytes(seed, off + len);
    let dst_buf = bytes(seed.wrapping_mul(31).wrapping_add(7), off + len);
    let src = &src_buf[off..];

    // Scalar oracle from one-element Field ops.
    let want_axpy: Vec<u8> = dst_buf[off..]
        .iter()
        .zip(src)
        .map(|(&d, &s)| d ^ (c * Gf256::new(s)).value())
        .collect();
    let want_mul: Vec<u8> = dst_buf[off..]
        .iter()
        .map(|&d| (c * Gf256::new(d)).value())
        .collect();

    type MulAdd = fn(u8, &[u8], &mut [u8]);
    type Mul = fn(u8, &mut [u8]);
    let rungs: [(&str, MulAdd, Mul); 2] = [
        (
            "reference",
            reference::gf256_mul_add_slice,
            reference::gf256_mul_slice,
        ),
        ("simd", simd::gf256_mul_add_slice, simd::gf256_mul_slice),
    ];
    for (name, mul_add, mul) in rungs {
        let mut axpy = dst_buf.clone();
        mul_add(c.value(), src, &mut axpy[off..]);
        prop_assert_eq!(&axpy[off..], &want_axpy[..], "{} axpy", name);
        prop_assert_eq!(
            &axpy[..off],
            &dst_buf[..off],
            "{} axpy prefix clobbered",
            name
        );

        let mut m = dst_buf.clone();
        mul(c.value(), &mut m[off..]);
        prop_assert_eq!(&m[off..], &want_mul[..], "{} mul", name);
        prop_assert_eq!(&m[..off], &dst_buf[..off], "{} mul prefix clobbered", name);
    }
    Ok(())
}

/// The fused gather `mul_add_multi` against a loop of single-row scalar
/// axpys, for any field — pins the fused kernels (GFNI tiles, tails, zero
/// factors) and the generic default to the same bytes.
fn fused_multi_matches_loop<F: SlabField>(
    seed: u64,
    n: usize,
    len: usize,
    zero_mask: u8,
) -> Result<(), TestCaseError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let factors: Vec<F> = (0..n)
        .map(|i| {
            if zero_mask & (1 << (i % 8)) != 0 {
                F::ZERO
            } else {
                F::random(&mut rng)
            }
        })
        .collect();
    let rows: Vec<Vec<F>> = (0..n)
        .map(|_| (0..len).map(|_| F::random(&mut rng)).collect())
        .collect();
    let dst: Vec<F> = (0..len).map(|_| F::random(&mut rng)).collect();

    let pf = F::pack(&factors);
    let mut psrcs = Vec::new();
    for r in &rows {
        F::pack_into(r, &mut psrcs);
    }
    let mut fused = F::pack(&dst);
    F::mul_add_multi(&pf, &psrcs, &mut fused);

    let want: Vec<F> = (0..len)
        .map(|j| {
            let mut acc = dst[j];
            for (c, r) in factors.iter().zip(&rows) {
                acc += *c * r[j];
            }
            acc
        })
        .collect();
    prop_assert_eq!(F::unpack(&fused), want);
    Ok(())
}

/// `mul_add_scatter` against a loop of single-row scalar axpys.
fn scatter_matches_loop<F: SlabField>(
    seed: u64,
    n: usize,
    len: usize,
) -> Result<(), TestCaseError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let factors: Vec<F> = (0..n).map(|_| F::random(&mut rng)).collect();
    let src: Vec<F> = (0..len).map(|_| F::random(&mut rng)).collect();
    let rows: Vec<Vec<F>> = (0..n)
        .map(|_| (0..len).map(|_| F::random(&mut rng)).collect())
        .collect();

    let pf = F::pack(&factors);
    let psrc = F::pack(&src);
    let mut pdsts = Vec::new();
    for r in &rows {
        F::pack_into(r, &mut pdsts);
    }
    F::mul_add_scatter(&pf, &psrc, &mut pdsts);

    for (i, (c, row)) in factors.iter().zip(&rows).enumerate() {
        let want: Vec<F> = row.iter().zip(&src).map(|(&d, &s)| d + *c * s).collect();
        let rb = len * F::SYMBOL_BYTES;
        prop_assert_eq!(F::unpack(&pdsts[i * rb..(i + 1) * rb]), want, "row {}", i);
    }
    Ok(())
}

/// The blocked panel kernel `mul_add_block` against a scalar axpy loop,
/// for any field: an `r × c` coefficient micro-panel applied to `c` source
/// rows accumulated into `r` destination rows must equal `r · c`
/// independent scalar axpys. `force_mask` pins coefficients to the 0/1
/// edge cases (skip paths and the mul-free accumulate); ragged `r`, `c`
/// and odd `len` straddle the register-panel tile sizes and masked tails.
fn block_matches_axpy_loop<F: SlabField>(
    seed: u64,
    r: usize,
    c: usize,
    len: usize,
    force_mask: u16,
) -> Result<(), TestCaseError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let coefs: Vec<F> = (0..r * c)
        .map(|i| match (force_mask >> (i % 16)) & 1 {
            1 if i % 2 == 0 => F::ZERO,
            1 => F::ONE,
            _ => F::random(&mut rng),
        })
        .collect();
    let srcs: Vec<Vec<F>> = (0..c)
        .map(|_| (0..len).map(|_| F::random(&mut rng)).collect())
        .collect();
    let dsts: Vec<Vec<F>> = (0..r)
        .map(|_| (0..len).map(|_| F::random(&mut rng)).collect())
        .collect();

    let pc = F::pack(&coefs);
    let mut psrcs = Vec::new();
    for row in &srcs {
        F::pack_into(row, &mut psrcs);
    }
    let mut pdsts = Vec::new();
    for row in &dsts {
        F::pack_into(row, &mut pdsts);
    }
    F::mul_add_block(&pc, &psrcs, &mut pdsts, len * F::SYMBOL_BYTES);

    for i in 0..r {
        let want: Vec<F> = (0..len)
            .map(|j| {
                let mut acc = dsts[i][j];
                for (k, src) in srcs.iter().enumerate() {
                    acc += coefs[i * c + k] * src[j];
                }
                acc
            })
            .collect();
        let rb = len * F::SYMBOL_BYTES;
        prop_assert_eq!(F::unpack(&pdsts[i * rb..(i + 1) * rb]), want, "row {}", i);
    }
    Ok(())
}

/// The GF(2⁸) SIMD block entry point directly (not through dispatch)
/// against the reference gather loop, with every slab misaligned inside a
/// parent buffer — pins the detected level's register panels, masked tails
/// and leftover-row gathers whatever the dispatch rule would have picked.
fn gf256_simd_block_matches_reference(
    seed: u64,
    r: usize,
    c: usize,
    len: usize,
    off: usize,
) -> Result<(), TestCaseError> {
    let coefs_buf = bytes(seed, off + r * c);
    let srcs_buf = bytes(seed ^ 0xB10C, off + c * len);
    let dsts_buf = bytes(seed ^ 0x5EED, off + r * len);
    let coefs = &coefs_buf[off..];
    let srcs = &srcs_buf[off..];

    let mut want = dsts_buf.clone();
    for i in 0..r {
        for (k, f) in coefs[i * c..(i + 1) * c].iter().enumerate() {
            reference::gf256_mul_add_slice(
                *f,
                &srcs[k * len..(k + 1) * len],
                &mut want[off + i * len..off + (i + 1) * len],
            );
        }
    }

    let mut got = dsts_buf.clone();
    simd::gf256_mul_add_block(coefs, srcs, &mut got[off..], len);
    prop_assert_eq!(&got[off..], &want[off..], "panel bytes");
    prop_assert_eq!(&got[..off], &dsts_buf[..off], "prefix clobbered");
    Ok(())
}

/// The dispatched `SlabField` surface (whatever kernel the rule picks)
/// against the scalar oracle, for every field — pins the dispatch itself.
fn dispatch_matches_scalar<F: SlabField>(
    seed: u64,
    len: usize,
    sel: u8,
) -> Result<(), TestCaseError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let xs: Vec<F> = (0..len).map(|_| F::random(&mut rng)).collect();
    let ys: Vec<F> = (0..len).map(|_| F::random(&mut rng)).collect();
    let c = match sel {
        0 => F::ZERO,
        1 => F::ONE,
        _ => F::random(&mut rng),
    };
    let px = F::pack(&xs);
    let py = F::pack(&ys);

    let mut axpy = px.clone();
    F::mul_add_slice(c, &py, &mut axpy);
    let want: Vec<F> = xs.iter().zip(&ys).map(|(&x, &y)| x + c * y).collect();
    prop_assert_eq!(F::unpack(&axpy), want);

    let mut mul = px;
    F::mul_slice(c, &mut mul);
    let want_mul: Vec<F> = xs.iter().map(|&x| c * x).collect();
    prop_assert_eq!(F::unpack(&mul), want_mul);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn gf256_kernels_are_bit_identical(
        seed in any::<u64>(),
        len in 0usize..100,
        off in 0usize..8,
        sel in 0u8..5,
    ) {
        gf256_rungs_agree(seed, len, off, sel)?;
    }

    #[test]
    fn fused_multi_matches_loop_gf256(
        seed in any::<u64>(),
        n in 0usize..20,
        // Straddles the 128/256-byte GFNI tile sizes and the scalar tail.
        len in 0usize..300,
        zero_mask in any::<u8>(),
    ) {
        fused_multi_matches_loop::<Gf256>(seed, n, len, zero_mask)?;
    }

    #[test]
    fn fused_multi_matches_loop_gf2(
        seed in any::<u64>(),
        n in 0usize..12,
        len in 0usize..80,
        zero_mask in any::<u8>(),
    ) {
        fused_multi_matches_loop::<ag_gf::Gf2>(seed, n, len, zero_mask)?;
    }

    #[test]
    fn fused_multi_matches_loop_f257(
        seed in any::<u64>(),
        n in 0usize..8,
        len in 0usize..40,
        zero_mask in any::<u8>(),
    ) {
        fused_multi_matches_loop::<ag_gf::F257>(seed, n, len, zero_mask)?;
    }

    #[test]
    fn block_matches_axpy_loop_gf256(
        seed in any::<u64>(),
        // Ragged panel shapes straddling the 4-row register panels and the
        // leftover-row gathers.
        ri in 0usize..5,
        ci in 0usize..5,
        // Odd lengths straddle the 128/64-byte vector passes and the
        // masked/scalar tails. (`len = 0` is excluded: `check_block` can
        // only infer the panel shape from whole rows, so zero-byte rows
        // require empty slabs by contract.)
        len in 1usize..300,
        force_mask in any::<u16>(),
    ) {
        let shapes = [1usize, 2, 3, 8, 17];
        block_matches_axpy_loop::<Gf256>(seed, shapes[ri], shapes[ci], len, force_mask)?;
    }

    #[test]
    fn block_matches_axpy_loop_gf2(
        seed in any::<u64>(),
        ri in 0usize..5,
        ci in 0usize..5,
        len in 1usize..80,
        force_mask in any::<u16>(),
    ) {
        let shapes = [1usize, 2, 3, 8, 17];
        block_matches_axpy_loop::<ag_gf::Gf2>(seed, shapes[ri], shapes[ci], len, force_mask)?;
    }

    #[test]
    fn block_matches_axpy_loop_f257(
        seed in any::<u64>(),
        ri in 0usize..5,
        ci in 0usize..5,
        len in 1usize..40,
        force_mask in any::<u16>(),
    ) {
        let shapes = [1usize, 2, 3, 8, 17];
        block_matches_axpy_loop::<ag_gf::F257>(seed, shapes[ri], shapes[ci], len, force_mask)?;
    }

    #[test]
    fn gf256_simd_block_matches_reference_misaligned(
        seed in any::<u64>(),
        ri in 0usize..5,
        ci in 0usize..5,
        len in 1usize..300,
        off in 0usize..8,
    ) {
        let shapes = [1usize, 2, 3, 8, 17];
        gf256_simd_block_matches_reference(seed, shapes[ri], shapes[ci], len, off)?;
    }

    #[test]
    fn scatter_matches_loop_gf256(
        seed in any::<u64>(),
        n in 0usize..16,
        len in 0usize..150,
    ) {
        scatter_matches_loop::<Gf256>(seed, n, len)?;
    }

    #[test]
    fn dispatch_matches_scalar_gf2(
        seed in any::<u64>(),
        len in 0usize..2 * SHORT_ROW_BYTES,
        sel in 0u8..4,
    ) {
        dispatch_matches_scalar::<ag_gf::Gf2>(seed, len, sel)?;
    }

    #[test]
    fn dispatch_matches_scalar_gf256(
        seed in any::<u64>(),
        len in 0usize..2 * SHORT_ROW_BYTES,
        sel in 0u8..4,
    ) {
        dispatch_matches_scalar::<Gf256>(seed, len, sel)?;
    }

    #[test]
    fn dispatch_matches_scalar_f257(
        seed in any::<u64>(),
        len in 0usize..2 * SHORT_ROW_BYTES,
        sel in 0u8..4,
    ) {
        dispatch_matches_scalar::<ag_gf::F257>(seed, len, sel)?;
    }
}

/// Deterministic exhaustive pin: every GF(2⁸) multiplier × every source
/// byte, both kernels and the dispatched op, one 256-byte row — then the
/// same 256 × 256 products through all five dispatched ops on 3-, 8- and
/// 16-byte rows, the shapes a GFNI CPU serves from its sub-vector windows
/// (remainder, 8-byte and 16-byte) and any other CPU from the reference
/// kernel.
#[test]
fn gf256_all_multipliers_all_bytes_all_kernels() {
    let src: Vec<u8> = (0..=255u8).collect();
    for c in 0..=255u8 {
        let want: Vec<u8> = src
            .iter()
            .map(|&s| (Gf256::new(c) * Gf256::new(s)).value())
            .collect();
        let mut table = vec![0u8; 256];
        reference::gf256_mul_add_slice(c, &src, &mut table);
        assert_eq!(table, want, "reference c={c}");
        let mut sd = vec![0u8; 256];
        simd::gf256_mul_add_slice(c, &src, &mut sd);
        assert_eq!(sd, want, "simd c={c}");
        let mut dispatched = vec![0u8; 256];
        Gf256::mul_add_slice(Gf256::new(c), &src, &mut dispatched);
        assert_eq!(dispatched, want, "dispatched c={c}");

        for rb in [3usize, 8, 16] {
            for (row, want) in src.chunks(rb).zip(want.chunks(rb)) {
                let n = row.len();
                let mut axpy = vec![0u8; n];
                Gf256::mul_add_slice(Gf256::new(c), row, &mut axpy);
                assert_eq!(axpy, want, "axpy c={c} rb={rb}");
                let mut mul = row.to_vec();
                Gf256::mul_slice(Gf256::new(c), &mut mul);
                assert_eq!(mul, want, "mul c={c} rb={rb}");
                let mut gather = vec![0u8; n];
                Gf256::mul_add_multi(&[c], row, &mut gather);
                assert_eq!(gather, want, "gather c={c} rb={rb}");
                let mut scatter = vec![0u8; n];
                Gf256::mul_add_scatter(&[c], row, &mut scatter);
                assert_eq!(scatter, want, "scatter c={c} rb={rb}");
                let mut block = vec![0u8; n];
                Gf256::mul_add_block(&[c], row, &mut block, n);
                assert_eq!(block, want, "block c={c} rb={rb}");
            }
        }
    }
}
