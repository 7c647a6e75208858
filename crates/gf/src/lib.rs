//! Finite-field arithmetic for algebraic gossip.
//!
//! Random linear network coding (RLNC) — the message format used by the
//! algebraic gossip protocols of Avin, Borokhovich, Censor-Hillel and Lotker
//! (PODC 2011) — draws coefficients uniformly at random from a finite field
//! `F_q`. The probability that a coded message emitted by a *helpful* node is
//! itself helpful is at least `1 − 1/q` (Deb et al., Lemma 2.1), so the field
//! size is a first-class experimental parameter. This crate provides:
//!
//! * [`Field`] — the trait every coefficient type implements,
//! * [`Gf2`] — the binary field (q = 2, the paper's worst case),
//! * [`Gf256`] — GF(2⁸) with log/exp tables (the practical RLNC default),
//! * [`Fp`] — prime fields GF(p) for any prime `p < 2³²`,
//! * [`SlabField`] — bulk row arithmetic over packed byte slabs (the
//!   [`slab`] module), which is what the decoder and recoder hot paths use,
//! * two bit-identical GF(2⁸) kernel modules behind it — the product-table
//!   path ([`mod@reference`]) and runtime-detected x86-64 SIMD
//!   (`PSHUFB`/`GF2P8MULB`, [`simd`]) — where [`simd`] alone picks one per
//!   call from the row length and the CPU: with GFNI, rows of every length
//!   multiply in hardware; anywhere else rows under 64 bytes index the
//!   product tables. Every other field has one kernel.
//!
//! # Choosing a field
//!
//! Throughput and overhead pull in opposite directions. [`Gf256`] is the
//! practical default: symbols align with bytes, redundancy probability is
//! `1/256`, and the slab kernels reduce an axpy to one `GF2P8MULB` per 32
//! bytes where the CPU has it and to one table load plus an XOR per byte
//! where it does not. [`Gf2`] symbols cost 8× fewer bits in the paper's
//! wire-size model (`(k + r)·log₂ q`, see `Packet::wire_bits` in
//! `ag-rlnc`; in-memory slabs here store one byte per symbol regardless)
//! and its slabs are pure XOR, but a random combination is redundant with
//! probability `1/2`, so more rounds are needed — it is the paper's worst
//! case, kept for fidelity. [`Fp`] spans the rest of `q` for the
//! field-size ablation (F₁₃ below GF(2⁸), F₂₅₇ and F₆₅₅₃₇ above it; the
//! stopping time sees `q` only through `1/q`, never the characteristic).
//! Its slabs take the scalar fallback; do not pick it for throughput.
//!
//! # Examples
//!
//! ```
//! use ag_gf::{Field, Gf256};
//!
//! let a = Gf256::new(0x57);
//! let b = Gf256::new(0x83);
//! // Multiplication in GF(2^8) with the AES polynomial x^8+x^4+x^3+x+1.
//! assert_eq!(a * b, Gf256::new(0xc1));
//! // Every nonzero element has a multiplicative inverse.
//! let inv = a.inv().unwrap();
//! assert_eq!(a * inv, Gf256::ONE);
//! ```

// The unsafe boundary as a compiler fact: denied here, so that `simd`'s
// `#![allow(unsafe_code, reason = "..")]` is the one opt-out it says it is;
// every other crate of the workspace forbids it outright. Every unsafe
// block it opens carries a `// SAFETY:` comment.
#![deny(unsafe_code)]
#![warn(clippy::undocumented_unsafe_blocks)]
// Panic policy (README, "Static analysis"): typed errors or `.expect("<invariant>")`;
// an exception is an `#[expect(clippy::…, reason = "…")]` at its site.
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::allow_attributes_without_reason
    )
)]

mod field;
mod fp;
mod gf2;
mod gf256;
pub mod reference;
pub mod simd;
pub mod slab;
pub mod symbols;

pub use field::Field;
pub use fp::{Fp, F13, F257, F65537, F7};
pub use gf2::Gf2;
pub use gf256::Gf256;
pub use slab::SlabField;

#[cfg(test)]
mod axiom_tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Exercise the full field-axiom battery on a sample of elements.
    fn check_axioms_sample<F: Field>(elems: &[F]) {
        for &a in elems {
            // Additive identity / inverse.
            assert_eq!(a + F::ZERO, a);
            assert_eq!(a + (-a), F::ZERO);
            // Multiplicative identity.
            assert_eq!(a * F::ONE, a);
            assert_eq!(a * F::ZERO, F::ZERO);
            // Inverse (nonzero only).
            if a != F::ZERO {
                let ai = a.inv().expect("nonzero element must be invertible");
                assert_eq!(a * ai, F::ONE, "a * a^-1 != 1");
            } else {
                assert!(a.inv().is_none(), "zero must not be invertible");
            }
            for &b in elems {
                // Commutativity.
                assert_eq!(a + b, b + a);
                assert_eq!(a * b, b * a);
                // Subtraction is the inverse of addition.
                assert_eq!((a + b) - b, a);
                // Compound assignment is the binary operator.
                let mut x = a;
                x += b;
                assert_eq!(x, a + b);
                let mut x = a;
                x -= b;
                assert_eq!(x, a - b);
                let mut x = a;
                x *= b;
                assert_eq!(x, a * b);
                for &c in elems {
                    // Associativity.
                    assert_eq!((a + b) + c, a + (b + c));
                    assert_eq!((a * b) * c, a * (b * c));
                    // Distributivity.
                    assert_eq!(a * (b + c), a * b + a * c);
                }
            }
        }
    }

    fn sample<F: Field>(count: usize, seed: u64) -> Vec<F> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut v = vec![F::ZERO, F::ONE];
        while v.len() < count {
            v.push(F::random(&mut rng));
        }
        v
    }

    #[test]
    fn gf2_axioms_exhaustive() {
        check_axioms_sample::<Gf2>(&[Gf2::ZERO, Gf2::ONE]);
    }

    #[test]
    fn gf256_axioms_sampled() {
        check_axioms_sample::<Gf256>(&sample(12, 0xA11CE));
    }

    #[test]
    fn f257_axioms_sampled() {
        check_axioms_sample::<F257>(&sample(12, 0xCAFE));
    }

    #[test]
    fn f65537_axioms_sampled() {
        check_axioms_sample::<F65537>(&sample(10, 0xD00D));
    }

    #[test]
    fn f7_axioms_exhaustive() {
        let all: Vec<F7> = (0..7u64).map(F7::from_u64).collect();
        check_axioms_sample(&all);
    }

    #[test]
    fn field_sizes_are_correct() {
        assert_eq!(Gf2::SIZE, 2);
        assert_eq!(Gf256::SIZE, 256);
        assert_eq!(F257::SIZE, 257);
        assert_eq!(F65537::SIZE, 65537);
    }

    #[test]
    fn random_nonzero_is_nonzero() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..200 {
            assert_ne!(Gf2::random_nonzero(&mut rng), Gf2::ZERO);
            assert_ne!(Gf256::random_nonzero(&mut rng), Gf256::ZERO);
            assert_ne!(F257::random_nonzero(&mut rng), F257::ZERO);
        }
    }

    #[test]
    fn pow_matches_repeated_multiplication() {
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..20 {
            let a = Gf256::random(&mut rng);
            let mut acc = Gf256::ONE;
            for e in 0..10u64 {
                assert_eq!(a.pow(e), acc);
                acc *= a;
            }
        }
    }

    #[test]
    fn from_u64_round_trips_small_values() {
        for v in 0..2 {
            assert_eq!(Gf2::from_u64(v).to_u64(), v);
        }
        for v in [0u64, 1, 17, 200, 255] {
            assert_eq!(Gf256::from_u64(v).to_u64(), v);
        }
        for v in [0u64, 1, 256] {
            assert_eq!(F257::from_u64(v).to_u64(), v);
        }
    }
}
