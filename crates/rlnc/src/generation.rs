//! A generation: the `k` source messages being disseminated.

use std::error::Error;
use std::fmt;

use ag_gf::{Field, SlabField};

/// Error constructing a [`Generation`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GenerationError {
    /// The message list was empty.
    Empty,
    /// Messages had differing symbol lengths.
    RaggedMessages {
        /// Length of message 0.
        expected: usize,
        /// Index of the first offending message.
        index: usize,
        /// Its length.
        actual: usize,
    },
}

impl fmt::Display for GenerationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GenerationError::Empty => write!(f, "a generation needs at least one message"),
            GenerationError::RaggedMessages {
                expected,
                index,
                actual,
            } => write!(
                f,
                "message {index} has {actual} symbols but message 0 has {expected}"
            ),
        }
    }
}

impl Error for GenerationError {}

/// The `k` source messages `x_1, …, x_k`, each `r` symbols over `F`.
///
/// A `Generation` is the ground truth of one dissemination task: protocols
/// seed node decoders from it and integrity checks compare decoded output
/// against it.
///
/// # Examples
///
/// ```
/// use ag_gf::Gf256;
/// use ag_rlnc::Generation;
///
/// let g = Generation::from_messages(vec![
///     vec![Gf256::new(10), Gf256::new(11)],
///     vec![Gf256::new(20), Gf256::new(21)],
/// ]).unwrap();
/// assert_eq!(g.k(), 2);
/// assert_eq!(g.message_len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Generation<F> {
    messages: Vec<Vec<F>>,
    message_len: usize,
}

impl<F: Field> Generation<F> {
    /// Builds a generation from `k` equal-length messages.
    ///
    /// # Errors
    ///
    /// Returns [`GenerationError`] when the list is empty or ragged.
    pub fn from_messages(messages: Vec<Vec<F>>) -> Result<Self, GenerationError> {
        let Some(first) = messages.first() else {
            return Err(GenerationError::Empty);
        };
        let message_len = first.len();
        for (index, m) in messages.iter().enumerate() {
            if m.len() != message_len {
                return Err(GenerationError::RaggedMessages {
                    expected: message_len,
                    index,
                    actual: m.len(),
                });
            }
        }
        Ok(Generation {
            messages,
            message_len,
        })
    }

    /// A generation of `k` random messages of `r` symbols each — the
    /// standard synthetic workload for dissemination experiments.
    pub fn random<R: rand::Rng + ?Sized>(k: usize, r: usize, rng: &mut R) -> Self {
        assert!(k > 0, "generation size must be positive");
        let messages = (0..k)
            .map(|_| (0..r).map(|_| F::random(rng)).collect())
            .collect();
        Generation {
            messages,
            message_len: r,
        }
    }

    /// The number of messages `k`.
    #[must_use]
    pub fn k(&self) -> usize {
        self.messages.len()
    }

    /// Symbols per message `r` (may be 0 for rank-dynamics-only runs).
    #[must_use]
    pub fn message_len(&self) -> usize {
        self.message_len
    }

    /// The source messages.
    #[must_use]
    pub fn messages(&self) -> &[Vec<F>] {
        &self.messages
    }

    /// Message `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= k`.
    #[must_use]
    pub fn message(&self, i: usize) -> &[F] {
        &self.messages[i]
    }
}

impl<F: SlabField> Generation<F> {
    /// Writes the packed seed row of message `index` into `row`, replacing
    /// what it held: the unit equation `e_index · x = x_index`, `k`
    /// coefficients and then the message. Inserting it into a node's basis
    /// is how a node is given a source message.
    ///
    /// # Panics
    ///
    /// Panics if `index >= k`.
    pub fn seed_row_into(&self, index: usize, row: &mut Vec<u8>) {
        let message = self.message(index);
        row.clear();
        row.resize(self.k() * F::SYMBOL_BYTES, 0);
        F::ONE.write_symbol(&mut row[index * F::SYMBOL_BYTES..]);
        F::pack_into(message, row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ag_gf::Gf256;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rejects_empty() {
        assert_eq!(
            Generation::<Gf256>::from_messages(vec![]),
            Err(GenerationError::Empty)
        );
    }

    #[test]
    fn rejects_ragged() {
        let err = Generation::from_messages(vec![vec![Gf256::ONE], vec![]]).unwrap_err();
        assert!(matches!(
            err,
            GenerationError::RaggedMessages {
                expected: 1,
                index: 1,
                actual: 0
            }
        ));
        assert!(err.to_string().contains("message 1"));
    }

    #[test]
    fn zero_length_messages_allowed() {
        // r = 0: pure rank-dynamics simulation.
        let g = Generation::from_messages(vec![vec![], vec![]] as Vec<Vec<Gf256>>).unwrap();
        assert_eq!(g.k(), 2);
        assert_eq!(g.message_len(), 0);
    }

    #[test]
    fn random_generation_shape() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = Generation::<Gf256>::random(5, 7, &mut rng);
        assert_eq!(g.k(), 5);
        assert_eq!(g.message_len(), 7);
        assert!(g.messages().iter().all(|m| m.len() == 7));
    }
}
