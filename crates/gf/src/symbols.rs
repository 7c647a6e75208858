//! Conversions between byte streams and field-symbol vectors.
//!
//! The paper represents each initial message as an integer bounded by `M`,
//! i.e. a vector of `r = ⌈log_q M⌉` symbols over `F_q`. This module provides
//! the framing used by the examples and the end-to-end integrity tests:
//! arbitrary bytes in, symbols over the chosen field out, and back.
//!
//! A symbol carries `b` bits of the stream, `b` the largest power of two
//! that fits a symbol (`2ᵇ ≤ q`), at most 16: a power of two so that symbol
//! and byte boundaries nest, and no more than fit so that every value is a
//! field element whatever `q` is (a prime field uses `2ᵇ` of its `q`
//! values). For GF(2⁸) and F₂₅₇ the mapping is the identity on bytes; below
//! that each byte expands into `8/b` symbols, above it `b/8` bytes pack into
//! one. Round-tripping requires remembering the original byte length because
//! of padding ([`symbols_to_bytes`] takes it explicitly).

use crate::field::Field;

/// Payload bits one symbol carries: 1, 2, 4, 8 or 16.
fn symbol_bits<F: Field>() -> usize {
    (1 << F::SIZE.ilog2().ilog2()).min(16)
}

/// Number of symbols produced by [`bytes_to_symbols`] for `len` bytes.
///
/// # Examples
///
/// ```
/// use ag_gf::{Gf2, Gf256, F65537};
/// use ag_gf::symbols::symbol_len;
///
/// assert_eq!(symbol_len::<Gf256>(10), 10);
/// assert_eq!(symbol_len::<Gf2>(10), 80);
/// assert_eq!(symbol_len::<F65537>(10), 5);
/// ```
#[must_use]
pub fn symbol_len<F: Field>(len: usize) -> usize {
    let bits = symbol_bits::<F>();
    if bits < 8 {
        len * (8 / bits)
    } else {
        len.div_ceil(bits / 8)
    }
}

/// Encodes a byte slice as a vector of field symbols.
///
/// The encoding is big-endian within each byte/symbol group and pads the
/// final symbol with zero bits when the field packs multiple bytes.
///
/// # Examples
///
/// ```
/// use ag_gf::{Field, Gf256};
/// use ag_gf::symbols::{bytes_to_symbols, symbols_to_bytes};
///
/// let data = b"gossip";
/// let syms = bytes_to_symbols::<Gf256>(data);
/// assert_eq!(symbols_to_bytes::<Gf256>(&syms, data.len()), data);
/// ```
#[must_use]
pub fn bytes_to_symbols<F: Field>(bytes: &[u8]) -> Vec<F> {
    let bits = symbol_bits::<F>();
    let mut out = Vec::with_capacity(symbol_len::<F>(bytes.len()));
    if bits < 8 {
        let mask = (1u8 << bits) - 1;
        for &b in bytes {
            for shift in (0..8).step_by(bits).rev() {
                out.push(F::from_u64(u64::from((b >> shift) & mask)));
            }
        }
    } else {
        for group in bytes.chunks(bits / 8) {
            let mut v: u64 = 0;
            for (&b, shift) in group.iter().zip((0..bits).step_by(8).rev()) {
                v |= u64::from(b) << shift;
            }
            out.push(F::from_u64(v));
        }
    }
    out
}

/// Decodes a symbol vector back into `byte_len` bytes.
///
/// `byte_len` is the length of the original input to [`bytes_to_symbols`];
/// it disambiguates padding in the final symbol.
///
/// # Panics
///
/// Panics if `symbols` is too short to contain `byte_len` bytes.
#[must_use]
pub fn symbols_to_bytes<F: Field>(symbols: &[F], byte_len: usize) -> Vec<u8> {
    assert!(
        symbols.len() >= symbol_len::<F>(byte_len),
        "symbol vector too short: {} symbols for {} bytes",
        symbols.len(),
        byte_len
    );
    let bits = symbol_bits::<F>();
    if bits < 8 {
        let groups = symbols.chunks(8 / bits).take(byte_len);
        groups
            .map(|group| group.iter().fold(0, |b, s| (b << bits) | s.to_u64() as u8))
            .collect()
    } else {
        let shifts = (0..bits).step_by(8).rev();
        let bytes = symbols
            .iter()
            .flat_map(|s| shifts.clone().map(move |shift| (s.to_u64() >> shift) as u8));
        bytes.take(byte_len).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Gf2, Gf256, F13, F257, F65537, F7};

    fn round_trip<F: Field>(data: &[u8]) {
        let syms = bytes_to_symbols::<F>(data);
        assert_eq!(syms.len(), symbol_len::<F>(data.len()));
        let back = symbols_to_bytes::<F>(&syms, data.len());
        assert_eq!(back, data, "round trip failed for q = {}", F::SIZE);
    }

    #[test]
    fn round_trip_all_fields() {
        let data: Vec<u8> = (0..=255).collect();
        round_trip::<Gf2>(&data);
        round_trip::<Gf256>(&data);
        round_trip::<F257>(&data);
        round_trip::<F7>(&data);
        round_trip::<F13>(&data);
        round_trip::<F65537>(&data);
    }

    #[test]
    fn round_trip_odd_lengths() {
        for len in [0usize, 1, 3, 7, 255] {
            let data: Vec<u8> = (0..len).map(|i| (i * 31 % 256) as u8).collect();
            round_trip::<Gf2>(&data);
            round_trip::<F65537>(&data);
            round_trip::<Gf256>(&data);
        }
    }

    #[test]
    fn gf2_is_bits_msb_first() {
        let syms = bytes_to_symbols::<Gf2>(&[0b1010_0001]);
        let bits: Vec<u64> = syms.iter().map(|s| s.to_u64()).collect();
        assert_eq!(bits, vec![1, 0, 1, 0, 0, 0, 0, 1]);
    }

    #[test]
    fn f65537_packs_two_bytes_big_endian() {
        let syms = bytes_to_symbols::<F65537>(&[0x12, 0x34, 0x56]);
        assert_eq!(syms.len(), 2);
        assert_eq!(syms[0].to_u64(), 0x1234);
        assert_eq!(syms[1].to_u64(), 0x5600); // padded
    }

    #[test]
    #[should_panic(expected = "symbol vector too short")]
    fn too_short_symbol_vector_panics() {
        let syms = bytes_to_symbols::<Gf256>(&[1, 2]);
        let _ = symbols_to_bytes::<Gf256>(&syms, 5);
    }
}
