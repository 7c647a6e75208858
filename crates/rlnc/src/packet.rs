//! The coded packet: one linear equation over the source messages.

use ag_gf::{Field, SlabField};

/// A coded packet: `k` combination coefficients plus the combined payload.
///
/// This mirrors the paper's message format exactly: "a message contains the
/// coefficients of the variables and the result of the equation; therefore
/// the length of each message is `r·log₂q + k·log₂q` bits". A packet with a
/// zero coefficient vector carries no information (a node with rank 0 sends
/// nothing in our protocols, but such packets are still representable and
/// are simply redundant on receipt).
///
/// # Examples
///
/// ```
/// use ag_gf::Gf256;
/// use ag_rlnc::Packet;
///
/// let p = Packet::new(vec![Gf256::new(1), Gf256::new(0)], vec![Gf256::new(9)]);
/// assert_eq!(p.generation_size(), 2);
/// assert_eq!(p.payload_len(), 1);
/// assert!(!p.is_zero());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Packet<F> {
    coefficients: Vec<F>,
    payload: Vec<F>,
}

impl<F: Field> Packet<F> {
    /// Creates a packet from a coefficient vector and combined payload.
    #[must_use]
    pub fn new(coefficients: Vec<F>, payload: Vec<F>) -> Self {
        Packet {
            coefficients,
            payload,
        }
    }

    /// The generation size `k` this packet was coded over.
    #[must_use]
    pub fn generation_size(&self) -> usize {
        self.coefficients.len()
    }

    /// The payload length `r` in field symbols.
    #[must_use]
    pub fn payload_len(&self) -> usize {
        self.payload.len()
    }

    /// The combination coefficients.
    #[must_use]
    pub fn coefficients(&self) -> &[F] {
        &self.coefficients
    }

    /// The combined payload symbols.
    #[must_use]
    pub fn payload(&self) -> &[F] {
        &self.payload
    }

    /// True when every coefficient is zero (the packet is informationless).
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.coefficients.iter().all(|c| c.is_zero())
    }

    /// Size of the packet on the wire in bits: `(k + r)·log₂ q`.
    ///
    /// This is the quantity the paper's "bounded message size" premise
    /// constrains; it is reported by the simulator's traffic metrics.
    #[must_use]
    pub fn wire_bits(&self) -> u64 {
        let log_q = 64 - (F::SIZE - 1).leading_zeros() as u64;
        (self.coefficients.len() as u64 + self.payload.len() as u64) * log_q
    }
}

impl<F: SlabField> Packet<F> {
    /// The packet as one packed augmented row `[coefficients | payload]`,
    /// in the slab layout `ag_linalg::EchelonBasis` stores and consumes.
    #[must_use]
    pub fn to_packed_row(&self) -> Vec<u8> {
        let mut row =
            Vec::with_capacity((self.coefficients.len() + self.payload.len()) * F::SYMBOL_BYTES);
        F::pack_into(&self.coefficients, &mut row);
        F::pack_into(&self.payload, &mut row);
        row
    }

    /// Packs the augmented row into a caller-owned buffer (cleared first)
    /// — the allocation-free sibling of [`Packet::to_packed_row`] for hot
    /// receive loops that deliver many packets through one scratch row.
    pub fn write_packed_row_into(&self, out: &mut Vec<u8>) {
        out.clear();
        out.reserve((self.coefficients.len() + self.payload.len()) * F::SYMBOL_BYTES);
        F::pack_into(&self.coefficients, out);
        F::pack_into(&self.payload, out);
    }

    /// Rebuilds a packet from a packed augmented row (the inverse of
    /// [`Packet::to_packed_row`]).
    ///
    /// # Panics
    ///
    /// Panics if `row` holds fewer than `k` symbols or is not a multiple of
    /// the symbol size.
    #[must_use]
    pub fn from_packed_row(row: &[u8], k: usize) -> Self {
        assert!(
            row.len() >= k * F::SYMBOL_BYTES,
            "row shorter than generation size"
        );
        let split = k * F::SYMBOL_BYTES;
        Packet {
            coefficients: F::unpack(&row[..split]),
            payload: F::unpack(&row[split..]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ag_gf::{Field, Gf2, Gf256};

    #[test]
    fn zero_detection() {
        let z = Packet::new(vec![Gf256::ZERO; 3], vec![Gf256::new(5)]);
        assert!(z.is_zero());
        let nz = Packet::new(vec![Gf256::ZERO, Gf256::ONE], vec![]);
        assert!(!nz.is_zero());
    }

    #[test]
    fn wire_bits_matches_paper_formula() {
        // GF(256): log q = 8 bits; k = 4, r = 16 -> (4+16)*8 = 160.
        let p = Packet::new(vec![Gf256::ZERO; 4], vec![Gf256::ZERO; 16]);
        assert_eq!(p.wire_bits(), 160);
        // GF(2): log q = 1 bit.
        let b = Packet::new(vec![Gf2::ZERO; 4], vec![Gf2::ZERO; 16]);
        assert_eq!(b.wire_bits(), 20);
    }
}
