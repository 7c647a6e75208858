//! Run statistics collected by the engine.

/// Everything measured during one protocol run.
///
/// Times are reported in *rounds* under both time models (the paper's
/// convention: 1 round = n asynchronous timeslots); `timeslots` carries the
/// raw slot count for asynchronous runs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunStats {
    /// Whether the protocol reached global completion within the budget.
    pub completed: bool,
    /// Rounds elapsed at completion (or at the budget limit).
    ///
    /// **Asynchronous convention:** always `ceil(timeslots / n)` — a
    /// partially elapsed round counts as a full round. The same ceiling
    /// convention is used everywhere rounds are derived from timeslots:
    /// this field and the round number passed to `run_observed`
    /// observers. A run that completes at exactly `m·n` timeslots
    /// therefore reports `m` rounds, and one that completes at `m·n + 1`
    /// reports `m + 1`. Per-node completion is not recorded: an observer
    /// that reads [`crate::Protocol::node_complete`] sees each node finish
    /// at the ceiling round of the slot it finished in.
    pub rounds: u64,
    /// Raw timeslots (asynchronous model; equals `rounds * n` for the
    /// synchronous model).
    pub timeslots: u64,
    /// Messages delivered to protocol state.
    pub messages_delivered: u64,
    /// Messages composed but discarded by the synchronous same-sender
    /// deduplication rule (the paper's "discard the second message from
    /// the same node in the same round" assumption). Always 0 when dedup
    /// is disabled and under the asynchronous model.
    pub dedup_dropped: u64,
    /// Messages composed but destroyed by loss injection. Always 0 when
    /// `loss_prob == 0` — dedup discards are *not* losses.
    pub lost: u64,
    /// Contacts where the chosen direction produced no message (e.g. an
    /// RLNC node with rank 0 has nothing to send).
    pub empty_sends: u64,
}

impl RunStats {
    /// Total messages that entered the network
    /// (delivered + dedup-dropped + lost).
    #[must_use]
    pub fn messages_sent(&self) -> u64 {
        self.messages_delivered + self.dedup_dropped + self.lost
    }
}

/// Order-sensitive FNV-1a hash over a sequence of `u64` observations.
///
/// Used to *pin* per-round trajectories (e.g. the total decoder rank after
/// every round, fed from [`crate::Engine::run_observed`]) in golden tests:
/// a refactor of the arithmetic hot path must reproduce the exact same
/// trajectory hash or the simulation output changed. The hash is a pure
/// function of the observed values and their order — no platform-dependent
/// state — so pinned constants are portable.
///
/// # Examples
///
/// ```
/// use ag_sim::TrajectoryHash;
///
/// let mut h = TrajectoryHash::new();
/// h.observe(3);
/// h.observe(7);
/// let mut g = TrajectoryHash::new();
/// g.observe_slice(&[3, 7]);
/// assert_eq!(h.finish(), g.finish());
/// let mut swapped = TrajectoryHash::new();
/// swapped.observe_slice(&[7, 3]);
/// assert_ne!(h.finish(), swapped.finish());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrajectoryHash {
    state: u64,
}

impl TrajectoryHash {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A fresh hasher (FNV-1a offset basis).
    #[must_use]
    pub fn new() -> Self {
        TrajectoryHash {
            state: Self::OFFSET_BASIS,
        }
    }

    /// Feeds one observation (little-endian byte order).
    pub fn observe(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.state ^= u64::from(byte);
            self.state = self.state.wrapping_mul(Self::PRIME);
        }
    }

    /// Feeds a slice of observations in order.
    pub fn observe_slice(&mut self, values: &[u64]) {
        for &v in values {
            self.observe(v);
        }
    }

    /// The current digest. The hasher can keep observing afterwards.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for TrajectoryHash {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trajectory_hash_is_order_sensitive_and_stable() {
        let mut h = TrajectoryHash::new();
        h.observe_slice(&[1, 2, 3]);
        // Same observations in the same order give the same digest…
        let mut h2 = TrajectoryHash::new();
        h2.observe(1);
        h2.observe(2);
        h2.observe(3);
        assert_eq!(h.finish(), h2.finish());
        // …and swapping the order changes it.
        let mut g = TrajectoryHash::new();
        g.observe_slice(&[3, 2, 1]);
        assert_ne!(h.finish(), g.finish());
        // Empty hasher has the offset basis; observing zero changes it.
        let mut z = TrajectoryHash::new();
        let empty = z.finish();
        z.observe(0);
        assert_ne!(z.finish(), empty);
    }

    #[test]
    fn messages_sent_sums() {
        let s = RunStats {
            messages_delivered: 10,
            dedup_dropped: 2,
            lost: 1,
            ..RunStats::default()
        };
        assert_eq!(s.messages_sent(), 13);
    }
}
