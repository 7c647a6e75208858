//! The RLNC state every gossip protocol in this crate shares.

use ag_gf::SlabField;
use ag_graph::{GraphError, NodeId};
use ag_rlnc::{DecoderArena, Generation, RowPool};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::ag::AgConfig;

/// The RLNC half of every gossip protocol in this crate: the ground-truth
/// generation, all `n` nodes' decoders in one [`DecoderArena`], and the
/// [`RowPool`] their packed-row messages cycle through.
/// [`crate::AlgebraicGossip`], [`crate::Tag`] and [`crate::TreeAg`] differ
/// only in who talks to whom; what is said and how it is received is this,
/// once.
#[derive(Debug, Clone)]
pub(crate) struct CodedNodes<F: SlabField> {
    /// The ground-truth generation.
    pub(crate) generation: Generation<F>,
    /// Every node's stored equations.
    pub(crate) decoders: DecoderArena<F>,
    /// Sparse-recoding density; `None` is the paper's dense combination
    /// (`cfg.coding_density == 1.0`).
    pub(crate) density: Option<f64>,
    /// Recycles outgoing packed-row buffers through compose → the
    /// engine's slot table → deliver (or dedup/loss drop) → back to the
    /// pool.
    pub(crate) pool: RowPool,
    /// How many buffers `pool` was pre-warmed with (recorded at
    /// construction so the balance diagnostics never re-derive it).
    pub(crate) pool_prewarm: usize,
}

/// Sizes one node's full-rank rows, `k · (k + payload_len) · symbol_bytes`,
/// before anything is drawn or allocated: `payload_len` is a public field,
/// and a generation that cannot be allocated aborts the process where a
/// typed error is owed. The bound is `isize::MAX`, the largest allocation
/// the language allows.
///
/// # Errors
///
/// Returns [`GraphError::InvalidSize`] with the byte count (exact, in
/// `u128`) if it is above that bound.
pub(crate) fn check_row_bytes(cfg: &AgConfig, symbol_bytes: usize) -> Result<(), GraphError> {
    let bytes = (cfg.k as u128) * (cfg.k as u128 + cfg.payload_len as u128) * symbol_bytes as u128;
    if bytes > isize::MAX as u128 {
        return Err(GraphError::InvalidSize(format!(
            "k = {} rows of {} + {} symbols need {bytes} bytes per node",
            cfg.k, cfg.k, cfg.payload_len
        )));
    }
    Ok(())
}

impl<F: SlabField> CodedNodes<F> {
    /// The random generation of `cfg.k` messages that `seed` stands for.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidSize`] if `k == 0` or one node's rows
    /// cannot be allocated (see [`check_row_bytes`]).
    pub(crate) fn random_generation(
        cfg: &AgConfig,
        seed: u64,
    ) -> Result<Generation<F>, GraphError> {
        if cfg.k == 0 {
            return Err(GraphError::InvalidSize("k must be positive".into()));
        }
        check_row_bytes(cfg, F::SYMBOL_BYTES)?;
        let mut rng = StdRng::seed_from_u64(seed);
        Ok(Generation::random(cfg.k, cfg.payload_len, &mut rng))
    }

    /// Seeds `n` empty decoders with `generation` per `cfg.placement`.
    /// `directions` is how many messages one contact moves (2 for
    /// EXCHANGE). Also returns the `seed` RNG positioned after the
    /// placement draw, for the caller's own seeded state — the same
    /// stream whether the generation was drawn from `seed` or given.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidSize`] if `cfg`'s shape does not match
    /// the generation's or `cfg.coding_density` is outside `(0, 1]`, and
    /// `Placement::validate`'s error for a `cfg.placement` that does not
    /// fit `n` nodes and `cfg.k` messages, or if the arena's sizing fails
    /// (an [`ag_rlnc::ArenaError`], reported by its message).
    pub(crate) fn new(
        n: usize,
        cfg: &AgConfig,
        generation: Generation<F>,
        seed: u64,
        directions: usize,
    ) -> Result<(Self, StdRng), GraphError> {
        if cfg.k != generation.k() || cfg.payload_len != generation.message_len() {
            return Err(GraphError::InvalidSize(format!(
                "config shape (k={}, r={}) does not match generation (k={}, r={})",
                cfg.k,
                cfg.payload_len,
                generation.k(),
                generation.message_len()
            )));
        }
        // `coding_density` is a public field, so `with_coding_density`'s
        // assert is not the only way in (NaN fails both comparisons).
        if !(cfg.coding_density > 0.0 && cfg.coding_density <= 1.0) {
            return Err(GraphError::InvalidSize(
                "coding density must be in (0, 1]".into(),
            ));
        }
        // `placement` is a public field too, and `assign` panics on a host
        // that is not a node.
        cfg.placement.validate(n, cfg.k)?;
        // Advance the RNG past the generation draw, so that placement (and
        // whatever the caller draws next) agrees between the random- and
        // given-generation constructors.
        let mut rng = StdRng::seed_from_u64(seed);
        let _ = Generation::<F>::random(cfg.k, cfg.payload_len, &mut rng);
        let hosts = cfg.placement.assign(n, cfg.k, &mut rng);
        let mut decoders = DecoderArena::try_new(n, cfg.k, cfg.payload_len)
            .map_err(|e| GraphError::InvalidSize(e.to_string()))?;
        for (msg, &host) in hosts.iter().enumerate() {
            decoders.seed_message(host, &generation, msg);
        }
        // Pre-warm the message pool to the synchronous-round in-flight
        // ceiling (one buffer per contact direction per node), so the
        // round loop never allocates — not even while early-round traffic
        // is still ramping up to its high-water mark.
        let pool_prewarm = directions * n;
        let pool = RowPool::preallocated(pool_prewarm, decoders.row_bytes());
        let nodes = CodedNodes {
            generation,
            decoders,
            density: (cfg.coding_density < 1.0).then_some(cfg.coding_density),
            pool,
            pool_prewarm,
        };
        Ok((nodes, rng))
    }

    /// One coded message from `from`: a fresh random combination of
    /// everything it stores, as a packed row in a pooled buffer — which
    /// goes straight back to the pool for a rank-0 node, which has nothing
    /// to say.
    pub(crate) fn compose(&self, from: NodeId, rng: &mut StdRng) -> Option<Vec<u8>> {
        let mut row = self.pool.take();
        if self
            .decoders
            .emit_packed_row_into(from, self.density, rng, &mut row)
        {
            Some(row)
        } else {
            self.pool.put(row);
            None
        }
    }

    /// Delivers a composed message to `to`: reduced in place in the
    /// message buffer — no scratch copy — which then returns to the pool.
    pub(crate) fn deliver(&mut self, to: NodeId, mut msg: Vec<u8>) {
        let _ = self.decoders.receive_packed_mut(to, &mut msg);
        self.pool.put(msg);
    }

    /// Reclaims a composed message the engine dropped undelivered.
    pub(crate) fn discard(&self, msg: Vec<u8>) {
        self.pool.put(msg);
    }
}
