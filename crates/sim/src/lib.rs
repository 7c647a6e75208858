//! Discrete gossip simulator with the paper's execution model.
//!
//! Section 2 of Avin et al. fixes the model this crate implements:
//!
//! * **Asynchronous time**: "at every timeslot, one node selected
//!   independently and uniformly at random takes an action and a single
//!   pair of nodes communicates. We consider n consecutive timeslots as one
//!   round." Messages are usable immediately.
//! * **Synchronous time**: "at every round, every node takes an action and
//!   selects a single communication partner. It is assumed that the
//!   information received in the current round will be available to a node
//!   for sending only at the beginning of the next round." The engine
//!   enforces this with compose-then-deliver rounds, and (optionally, on by
//!   default) discards the second message a node receives from the same
//!   sender within one round — the paper's simplifying assumption.
//! * **Actions**: [`Action::Push`], [`Action::Pull`], [`Action::Exchange`].
//! * **Communication models**: [`CommModel::Uniform`] (Definition 1) and
//!   [`CommModel::RoundRobin`] (Definition 2, the quasirandom model with a
//!   random initial pointer).
//!
//! Protocols implement the [`Protocol`] trait; [`Engine`] drives them under
//! either time model, injects optional message loss (an ablation beyond the
//! paper's lossless model), and returns [`RunStats`] with split drop
//! accounting (`dedup_dropped` vs `lost`). A [`Probe`] passed to
//! [`Engine::run_observed`] hears what the counters sum up: every round
//! end, every node's completion round and every message's [`Fate`];
//! [`Engine::run_batch`] runs the disabled probe `()`, which compiles out.
//!
//! The synchronous round is written once (in the `engine` module), over
//! one slot-indexed message table and a compact per-node table allocated
//! once a run: an 8-byte contact entry and one flag byte a node (send
//! directions, live bits, completion). Same-sender dedup reads that table
//! instead of hashing pairs, and the completion sweep walks the flag bytes
//! with a running count of incomplete nodes.
//! Each survivor goes to its receiver in one merge walk: serially through
//! [`Protocol::deliver`], or, for a protocol that splits into
//! [`ProtocolShard`]s through [`Protocol::shards`], on the rayon pool on
//! every round big enough to pay for it, one shard per pool thread (the
//! `fan_out` module). Wakeups and loss draw from the engine's main RNG;
//! every composed message draws from an RNG private to
//! `(seed, round, slot)`. A round is therefore bit-identical at every
//! thread count, and so at every shard count, and is differentially
//! tested against a structurally different oracle loop in `tests/oracle`.
//!
//! The engine calls [`Protocol::on_round_start`] once before every round
//! (and at every n-timeslot boundary of the asynchronous model) — the
//! epoch-advance hook that lets protocols run over a *time-varying*
//! [`ag_graph::Topology`] ([`ag_graph::ScheduledTopology`] with seeded
//! churn schedules). [`PartnerSelector`] reads neighbors through the
//! topology view and keeps round-robin state as absolute contact counters,
//! so degree changes under churn never skip or repeat neighbors; static
//! graphs implement the view with no-ops and keep their exact
//! pre-abstraction behavior.

#![forbid(unsafe_code)]
// Seeded crate: no hash-ordered collection (clippy.toml's type ban), and
// no item-level `allow` can reopen one.
#![forbid(clippy::disallowed_types)]
// Panic policy (README, "Static analysis"): typed errors or `.expect("<invariant>")`;
// an exception is an `#[expect(clippy::…, reason = "…")]` at its site.
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::allow_attributes_without_reason
    )
)]

mod comm;
mod engine;
mod fan_out;
mod probe;
mod protocol;
mod stats;

pub use comm::{CommModel, PartnerSelector};
#[doc(hidden)]
pub use engine::Contact;
pub use engine::{Engine, EngineConfig, TimeModel};
pub use probe::{Fate, Probe};
pub use protocol::{Action, ContactIntent, Protocol, ProtocolShard};
pub use stats::{RunStats, TrajectoryHash};

// The unit tests share the integration tests' probe module, which
// names this crate by its external name.
#[cfg(test)]
extern crate self as ag_sim;
#[cfg(test)]
#[path = "../tests/probes/mod.rs"]
mod probes;
