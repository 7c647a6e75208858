//! Byte-block framing: disseminating real data with RLNC.
//!
//! The paper's motivation is bandwidth-limited dissemination of `k` bounded
//! messages. This module maps an arbitrary byte blob onto a [`Generation`]:
//! the blob is split into `k` equal chunks (zero-padded), each chunk becomes
//! one source message over the field, and after gossip completes every node
//! reassembles the blob from its decoded generation. Used by the
//! `file_dissemination` example and the end-to-end integrity tests.

use std::error::Error;
use std::fmt;

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
/// assert_eq!(back.as_deref(), Ok(&blob[..]));
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

/// Decoded messages that do not have the shape of the blob a
/// [`BlockDecoder`] reassembles. They are a decoder's output, so a wrong
/// shape is reported, not asserted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockError {
    /// There are not `k` messages.
    MessageCount {
        /// The reassembler's `k`.
        expected: usize,
        /// The number of messages given.
        got: usize,
    },
    /// A message holds fewer symbols than its chunk needs.
    MessageTooShort {
        /// The first such message.
        index: usize,
        /// Symbols a chunk needs.
        expected: usize,
        /// Symbols the message holds.
        got: usize,
    },
}

impl fmt::Display for BlockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            BlockError::MessageCount { expected, got } => write!(
                f,
                "wrong number of decoded messages: {got}, expected {expected}"
            ),
            BlockError::MessageTooShort {
                index,
                expected,
                got,
            } => write!(
                f,
                "decoded message {index} too short: {got} symbols, expected {expected}"
            ),
        }
    }
}

impl Error for BlockError {}

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
    /// # Errors
    ///
    /// [`BlockError::MessageCount`] unless there are exactly `k` messages,
    /// and [`BlockError::MessageTooShort`] for the first message with
    /// fewer symbols than a chunk.
    pub fn reassemble<F: Field>(&self, messages: &[Vec<F>]) -> Result<Vec<u8>, BlockError> {
        if messages.len() != self.k {
            return Err(BlockError::MessageCount {
                expected: self.k,
                got: messages.len(),
            });
        }
        let chunk_bytes = self.byte_len.div_ceil(self.k).max(1);
        let expected = symbol_len::<F>(chunk_bytes);
        if let Some((index, msg)) = messages
            .iter()
            .enumerate()
            .find(|(_, m)| m.len() < expected)
        {
            return Err(BlockError::MessageTooShort {
                index,
                expected,
                got: msg.len(),
            });
        }
        let mut out = Vec::with_capacity(self.byte_len);
        for (i, msg) in messages.iter().enumerate() {
            let take = self
                .byte_len
                .saturating_sub(i * chunk_bytes)
                .min(chunk_bytes);
            if take == 0 {
                break;
            }
            out.extend(symbols_to_bytes::<F>(msg, chunk_bytes)[..take].iter());
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ag_gf::{Gf2, Gf256, F13, F65537, F7};

    fn round_trip<F: Field>(data: &[u8], k: usize) {
        let enc = BlockEncoder::<F>::new(data, k);
        let back = BlockDecoder::new(data.len(), k).reassemble(enc.generation().messages());
        assert_eq!(back.as_deref(), Ok(data), "q = {}, k = {k}", F::SIZE);
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

    /// Fewer or more messages than `k` are refused, not stitched.
    #[test]
    fn reassemble_refuses_a_wrong_message_count() {
        let dec = BlockDecoder::new(10, 3);
        let chunk = vec![Gf256::ZERO; 4];
        for got in [0, 1, 2, 4] {
            let err = dec.reassemble(&vec![chunk.clone(); got]).unwrap_err();
            assert_eq!(err, BlockError::MessageCount { expected: 3, got });
            assert!(err.to_string().contains("wrong number of decoded messages"));
        }
        assert!(dec.reassemble(&vec![chunk; 3]).is_ok());
    }

    /// A message shorter than its chunk is refused, and so is one past the
    /// blob's last byte, whose chunk is padding only.
    #[test]
    fn reassemble_refuses_a_message_shorter_than_its_chunk() {
        let dec = BlockDecoder::new(2, 5);
        let full = vec![Gf256::new(7)];
        for index in [0, 4] {
            let mut messages = vec![full.clone(); 5];
            messages[index].clear();
            let err = dec.reassemble(&messages).unwrap_err();
            assert_eq!(
                err,
                BlockError::MessageTooShort {
                    index,
                    expected: 1,
                    got: 0
                }
            );
            assert!(err
                .to_string()
                .contains(&format!("message {index} too short")));
        }
        assert_eq!(dec.reassemble(&vec![full; 5]), Ok(vec![7, 7]));
    }
}
