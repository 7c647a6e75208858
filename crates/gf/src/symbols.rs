//! Conversions between byte streams and field-symbol vectors.
//!
//! The paper represents each initial message as an integer bounded by `M`,
//! i.e. a vector of `r = ⌈log_q M⌉` symbols over `F_q`. This module provides
//! the framing used by the examples and the end-to-end integrity tests:
//! arbitrary bytes in, symbols over the chosen field out, and back.
//!
//! For GF(2⁸) the mapping is the identity on bytes. For smaller fields each
//! byte expands into several symbols; for larger fields several bytes pack
//! into one symbol. Round-tripping requires remembering the original byte
//! length because of padding ([`symbols_to_bytes`] takes it explicitly).

use crate::field::Field;

/// How many field symbols are needed to carry one byte (for sub-byte
/// fields), or `1` otherwise.
fn symbols_per_byte<F: Field>() -> usize {
    match F::SIZE {
        2 => 8,
        4 => 4,
        16 => 2,
        _ => 1,
    }
}

/// How many whole bytes one symbol can carry (for super-byte fields).
fn bytes_per_symbol<F: Field>() -> usize {
    if F::SIZE >= 65536 {
        2
    } else {
        1
    }
}

/// Number of symbols produced by [`bytes_to_symbols`] for `len` bytes.
///
/// # Examples
///
/// ```
/// use ag_gf::{Gf2, Gf256, Gf65536};
/// use ag_gf::symbols::symbol_len;
///
/// assert_eq!(symbol_len::<Gf256>(10), 10);
/// assert_eq!(symbol_len::<Gf2>(10), 80);
/// assert_eq!(symbol_len::<Gf65536>(10), 5);
/// ```
#[must_use]
pub fn symbol_len<F: Field>(len: usize) -> usize {
    let spb = symbols_per_byte::<F>();
    if spb > 1 {
        len * spb
    } else {
        let bps = bytes_per_symbol::<F>();
        len.div_ceil(bps)
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
    let spb = symbols_per_byte::<F>();
    if spb > 1 {
        // Sub-byte field: split each byte into big-endian chunks.
        let bits = match F::SIZE {
            2 => 1,
            4 => 2,
            16 => 4,
            #[expect(
                clippy::unreachable,
                reason = "spb > 1 only for the three sub-byte field sizes matched above"
            )]
            _ => unreachable!("symbols_per_byte covered these"),
        };
        let mask = (1u16 << bits) - 1;
        let mut out = Vec::with_capacity(bytes.len() * spb);
        for &b in bytes {
            for i in (0..spb).rev() {
                let chunk = (u16::from(b) >> (i * bits as usize)) & mask;
                out.push(F::from_u64(u64::from(chunk)));
            }
        }
        out
    } else {
        let bps = bytes_per_symbol::<F>();
        let mut out = Vec::with_capacity(bytes.len().div_ceil(bps));
        for group in bytes.chunks(bps) {
            let mut v: u64 = 0;
            for (i, &b) in group.iter().enumerate() {
                v |= u64::from(b) << (8 * (bps - 1 - i));
            }
            out.push(F::from_u64(v));
        }
        out
    }
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
    let spb = symbols_per_byte::<F>();
    let mut out = Vec::with_capacity(byte_len);
    if spb > 1 {
        let bits = match F::SIZE {
            2 => 1,
            4 => 2,
            16 => 4,
            #[expect(
                clippy::unreachable,
                reason = "spb > 1 only for the three sub-byte field sizes matched above"
            )]
            _ => unreachable!("symbols_per_byte covered these"),
        };
        for group in symbols.chunks(spb).take(byte_len) {
            let mut b: u16 = 0;
            for &s in group {
                b = (b << bits) | (s.to_u64() as u16);
            }
            out.push(b as u8);
        }
    } else {
        let bps = bytes_per_symbol::<F>();
        'outer: for &s in symbols {
            let v = s.to_u64();
            for i in 0..bps {
                if out.len() == byte_len {
                    break 'outer;
                }
                out.push(((v >> (8 * (bps - 1 - i))) & 0xFF) as u8);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Gf16, Gf2, Gf256, Gf65536, F257};

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
        round_trip::<Gf16>(&data);
        round_trip::<Gf256>(&data);
        round_trip::<Gf65536>(&data);
        round_trip::<F257>(&data);
    }

    #[test]
    fn round_trip_odd_lengths() {
        for len in [0usize, 1, 3, 7, 255] {
            let data: Vec<u8> = (0..len).map(|i| (i * 31 % 256) as u8).collect();
            round_trip::<Gf2>(&data);
            round_trip::<Gf65536>(&data);
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
    fn gf65536_packs_two_bytes_big_endian() {
        let syms = bytes_to_symbols::<Gf65536>(&[0x12, 0x34, 0x56]);
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
