//! Property-based tests of the field axioms over randomly drawn elements.

use ag_gf::symbols::{bytes_to_symbols, symbols_to_bytes};
use ag_gf::{Field, Gf2, Gf256, F257, F65537};
use proptest::prelude::*;

/// Asserts the axioms that bind three arbitrary elements together.
fn ternary_axioms<F: Field>(a: F, b: F, c: F) -> Result<(), TestCaseError> {
    prop_assert_eq!(a + b, b + a);
    prop_assert_eq!(a * b, b * a);
    prop_assert_eq!((a + b) + c, a + (b + c));
    prop_assert_eq!((a * b) * c, a * (b * c));
    prop_assert_eq!(a * (b + c), a * b + a * c);
    prop_assert_eq!((a - b) + b, a);
    prop_assert_eq!(a + (-a), F::ZERO);
    if b != F::ZERO {
        let q = a.div(b).unwrap();
        prop_assert_eq!(q * b, a);
    }
    Ok(())
}

macro_rules! field_axiom_suite {
    ($name:ident, $field:ty) => {
        proptest! {
            #[test]
            fn $name(a in 0u64..1_000_000, b in 0u64..1_000_000, c in 0u64..1_000_000) {
                let (a, b, c) = (
                    <$field>::from_u64(a),
                    <$field>::from_u64(b),
                    <$field>::from_u64(c),
                );
                ternary_axioms(a, b, c)?;
            }
        }
    };
}

field_axiom_suite!(gf2_axioms, Gf2);
field_axiom_suite!(gf256_axioms, Gf256);
field_axiom_suite!(f257_axioms, F257);

proptest! {
    #[test]
    fn inverse_of_inverse_is_identity(v in 1u64..=255) {
        let a = Gf256::from_u64(v);
        let ai = a.inv().unwrap();
        prop_assert_eq!(ai.inv().unwrap(), a);
    }

    #[test]
    fn pow_is_homomorphic(v in 1u64..=255, e1 in 0u64..50, e2 in 0u64..50) {
        let a = Gf256::from_u64(v);
        prop_assert_eq!(a.pow(e1) * a.pow(e2), a.pow(e1 + e2));
    }

    #[test]
    fn symbol_round_trip_gf256(data in proptest::collection::vec(any::<u8>(), 0..300)) {
        let syms = bytes_to_symbols::<Gf256>(&data);
        prop_assert_eq!(symbols_to_bytes::<Gf256>(&syms, data.len()), data);
    }

    #[test]
    fn symbol_round_trip_gf2(data in proptest::collection::vec(any::<u8>(), 0..64)) {
        let syms = bytes_to_symbols::<Gf2>(&data);
        prop_assert_eq!(symbols_to_bytes::<Gf2>(&syms, data.len()), data);
    }

    #[test]
    fn symbol_round_trip_f65537(data in proptest::collection::vec(any::<u8>(), 0..128)) {
        let syms = bytes_to_symbols::<F65537>(&data);
        prop_assert_eq!(symbols_to_bytes::<F65537>(&syms, data.len()), data);
    }
}
