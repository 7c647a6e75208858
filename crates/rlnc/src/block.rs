//! Byte-block framing: disseminating real data with RLNC.
//!
//! The paper's motivation is bandwidth-limited dissemination of `k` bounded
//! messages. This module maps an arbitrary byte blob onto a [`Generation`]:
//! the blob is split into `k` equal chunks (zero-padded), each chunk becomes
//! one source message over the field, and after gossip completes every node
//! reassembles the blob from its decoded generation. Used by the
//! `file_dissemination` example and the end-to-end integrity tests.

use ag_gf::symbols::{bytes_to_symbols, symbol_len, symbols_to_bytes};
use ag_gf::Field;

use crate::generation::Generation;

/// Splits a byte blob into a `k`-message [`Generation`] over `F`.
///
/// # Examples
///
/// ```
/// use ag_gf::Gf256;
/// use ag_rlnc::{BlockDecoder, BlockEncoder};
///
/// let blob = b"the quick brown fox jumps over the lazy dog";
/// let enc = BlockEncoder::<Gf256>::new(blob, 5);
/// let gen = enc.generation();
/// assert_eq!(gen.k(), 5);
/// let back = BlockDecoder::new(blob.len(), 5).reassemble(gen.messages());
/// assert_eq!(back, blob);
/// ```
#[derive(Debug, Clone)]
pub struct BlockEncoder<F> {
    generation: Generation<F>,
    byte_len: usize,
}

impl<F: Field> BlockEncoder<F> {
    /// Splits `data` into `k` chunks and encodes each as field symbols.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    #[must_use]
    pub fn new(data: &[u8], k: usize) -> Self {
        assert!(k > 0, "block count must be positive");
        let chunk_bytes = data.len().div_ceil(k).max(1);
        let mut messages = Vec::with_capacity(k);
        for i in 0..k {
            let start = (i * chunk_bytes).min(data.len());
            let end = ((i + 1) * chunk_bytes).min(data.len());
            let mut chunk = data[start..end].to_vec();
            chunk.resize(chunk_bytes, 0); // zero-pad the tail chunk
            messages.push(bytes_to_symbols::<F>(&chunk));
        }
        let generation =
            Generation::from_messages(messages).expect("chunks are equal length by construction");
        BlockEncoder {
            generation,
            byte_len: data.len(),
        }
    }

    /// The generation ready for dissemination.
    #[must_use]
    pub fn generation(&self) -> &Generation<F> {
        &self.generation
    }

    /// Original blob length in bytes.
    #[must_use]
    pub fn byte_len(&self) -> usize {
        self.byte_len
    }

    /// Per-message chunk size in bytes (including padding).
    #[must_use]
    pub fn chunk_bytes(&self) -> usize {
        self.byte_len.div_ceil(self.generation.k()).max(1)
    }
}

/// Reassembles the original byte blob from decoded messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockDecoder {
    byte_len: usize,
    k: usize,
}

impl BlockDecoder {
    /// A reassembler for a blob of `byte_len` bytes split into `k` chunks.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    #[must_use]
    pub fn new(byte_len: usize, k: usize) -> Self {
        assert!(k > 0, "block count must be positive");
        BlockDecoder { byte_len, k }
    }

    /// Stitches decoded messages back into the original bytes.
    ///
    /// # Panics
    ///
    /// Panics if `messages.len() != k` or a message is too short for its
    /// chunk.
    #[must_use]
    pub fn reassemble<F: Field>(&self, messages: &[Vec<F>]) -> Vec<u8> {
        assert_eq!(messages.len(), self.k, "wrong number of decoded messages");
        let chunk_bytes = self.byte_len.div_ceil(self.k).max(1);
        let expected_syms = symbol_len::<F>(chunk_bytes);
        let mut out = Vec::with_capacity(self.byte_len);
        for (i, msg) in messages.iter().enumerate() {
            assert!(
                msg.len() >= expected_syms,
                "decoded message {i} too short: {} symbols, expected {expected_syms}",
                msg.len()
            );
            let remaining = self.byte_len.saturating_sub(i * chunk_bytes);
            let take = remaining.min(chunk_bytes);
            if take == 0 {
                break;
            }
            out.extend(symbols_to_bytes::<F>(msg, chunk_bytes)[..take].iter());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ag_gf::{Gf2, Gf256, F13, F65537, F7};

    fn round_trip<F: Field>(data: &[u8], k: usize) {
        let enc = BlockEncoder::<F>::new(data, k);
        let back = BlockDecoder::new(data.len(), k).reassemble(enc.generation().messages());
        assert_eq!(back, data, "q = {}, k = {k}", F::SIZE);
    }

    #[test]
    fn round_trip_various_fields_and_k() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        for k in [1, 2, 3, 7, 16, 100] {
            round_trip::<Gf256>(&data, k);
            round_trip::<Gf2>(&data, k);
            round_trip::<F7>(&data, k);
            round_trip::<F13>(&data, k);
            round_trip::<F65537>(&data, k);
        }
    }

    #[test]
    fn round_trip_short_data_many_chunks() {
        // More chunks than bytes: padding-only tail chunks.
        round_trip::<Gf256>(b"ab", 5);
        round_trip::<Gf256>(b"", 3);
    }

    #[test]
    fn chunk_geometry() {
        let enc = BlockEncoder::<Gf256>::new(&[0u8; 10], 3);
        assert_eq!(enc.chunk_bytes(), 4); // ceil(10/3)
        assert_eq!(enc.generation().k(), 3);
        assert_eq!(enc.generation().message_len(), 4);
        assert_eq!(enc.byte_len(), 10);
    }

    #[test]
    #[should_panic(expected = "wrong number of decoded messages")]
    fn reassemble_validates_count() {
        let _ = BlockDecoder::new(10, 3).reassemble::<Gf256>(&[vec![]]);
    }
}
