//! Central seed derivation for every trial the repo runs.
//!
//! History: `RunSpec::with_seed` and the bench crate's old
//! `median_rounds_protocol` each invented their own splitmix-style
//! constant, so "trial 3 of experiment X" and "trial 0 of experiment Y"
//! could silently share an engine stream. All derivation now goes through
//! this module:
//!
//! * a **protocol seed** for trial `t` of a plan seeded `s₀` is
//!   `splitmix64(s₀ + t·γ)` with γ the golden-ratio increment — the
//!   SplitMix64 sequence, which is a bijection of the trial index, so
//!   distinct trials of one plan can never share a protocol seed;
//! * an **engine seed** is `splitmix64(protocol_seed ⊕ SALT)` — again a
//!   bijection, so distinct protocol seeds can never share an engine
//!   seed, and the two streams of one trial are decorrelated.

// Seed-keying code: a narrowing `as` would collapse distinct seed domains.
#![warn(clippy::cast_possible_truncation)]

/// Golden-ratio increment of the SplitMix64 sequence (the shared
/// workspace definition — see [`ag_graph::seedmix`], which also feeds
/// `ScheduledTopology`'s per-epoch churn streams).
pub(crate) const GOLDEN_GAMMA: u64 = ag_graph::seedmix::GOLDEN_GAMMA;

/// Salt separating the engine-seed domain from the protocol-seed domain.
const ENGINE_SALT: u64 = 0x5EED_BA5E_D0C5_EED5;

/// SplitMix64 finalizer: a bijective 64-bit mix with full avalanche.
/// Re-exported from the single workspace definition.
pub use ag_graph::seedmix::splitmix64;

/// The engine seed paired with a protocol seed. Bijective in
/// `protocol_seed`, so two distinct protocol seeds never share an engine
/// stream.
#[must_use]
pub fn engine_seed_for(protocol_seed: u64) -> u64 {
    splitmix64(protocol_seed ^ ENGINE_SALT)
}

/// The protocol seed of trial `trial` in a plan seeded `seed0`.
/// Bijective in `trial` for fixed `seed0` (γ is odd), so distinct trials
/// never collide.
#[must_use]
pub fn trial_protocol_seed(seed0: u64, trial: u64) -> u64 {
    splitmix64(seed0.wrapping_add(trial.wrapping_mul(GOLDEN_GAMMA)))
}
