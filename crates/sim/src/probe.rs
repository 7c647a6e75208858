//! What a run reports while it runs: [`Probe`] events and message [`Fate`]s.

use ag_graph::NodeId;

use crate::protocol::Protocol;

/// What became of one planned composition, decided once per message under
/// both time models; each fate has its [`crate::RunStats`] counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Fate {
    /// Nothing was composed (`empty_sends`).
    Empty,
    /// A second `(from, to)` message in a synchronous round (`dedup_dropped`).
    Deduped,
    /// Destroyed by loss injection (`lost`).
    Lost,
    /// Handed to its receiver (`messages_delivered`).
    Delivered,
}

/// An observer of one run, passed to [`crate::Engine::run_observed`].
///
/// Monomorphized: an event left at its no-op default compiles to nothing,
/// and `()` is the disabled probe [`crate::Engine::run_batch`] runs. A
/// closure `FnMut(u64, &P)` is a probe of round ends; it must name its
/// argument's type (`|round, p: &MyProtocol| ..`), or rustc reports
/// "`FnMut` is not general enough". A probe never touches engine
/// randomness, so a probed run is the unprobed run.
pub trait Probe<P: Protocol> {
    /// `false` lets the asynchronous loop skip its round-end bookkeeping.
    const ENABLED: bool = true;

    /// After every completed round, under both time models. An
    /// asynchronous run that completes mid-round ends once more, at its
    /// ceiling round ([`crate::RunStats::rounds`]), so the last call sees
    /// the completed state.
    fn round_end(&mut self, _round: u64, _proto: &P) {}

    /// `node` is complete, reported once: at round 0 if it was before any
    /// round ran, else at the round whose completion check first found it
    /// (asynchronous: `ceil(timeslots / n)` of the timeslot).
    fn node_complete(&mut self, _round: u64, _node: NodeId) {}

    /// The message `from → to` in slot `slot` of `round` met `fate`. Waking
    /// node `v` owns slot `2v` (forward) and `2v + 1` (backward). A
    /// synchronous round reports every planned slot in ascending order from
    /// its serial merge walk, the same at every shard and thread count; an
    /// asynchronous timeslot reports its slots at round `ceil(timeslots / n)`.
    fn admitted(&mut self, _round: u64, _slot: usize, _from: NodeId, _to: NodeId, _fate: Fate) {}
}

impl<P: Protocol> Probe<P> for () {
    const ENABLED: bool = false;
}

impl<P: Protocol, F: FnMut(u64, &P)> Probe<P> for F {
    fn round_end(&mut self, round: u64, proto: &P) {
        self(round, proto);
    }
}
