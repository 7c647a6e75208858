//! Test-side [`Probe`]s: per-node completion rounds, a recorder of a
//! run's trajectory and message fates, and [`trace_diff`], which names the
//! first event where two recorded runs part.
//!
//! Shared by the engine's unit tests, the `ag-sim` integration tests and
//! the `algebraic-gossip` tests (each includes this file as a module, and
//! each uses part of it).
#![allow(dead_code, reason = "each including test uses part of the module")]

use ag_graph::NodeId;
use ag_sim::{Engine, Fate, Probe, Protocol, RunStats, TrajectoryHash};

/// Records the round each node completed in, from the engine's
/// `node_complete` events, and passes round ends on to a closure.
struct Completion<F> {
    finished: Vec<Option<u64>>,
    round_end: F,
}

impl<P: Protocol, F: FnMut(u64, &P)> Probe<P> for Completion<F> {
    fn round_end(&mut self, round: u64, proto: &P) {
        (self.round_end)(round, proto);
    }

    fn node_complete(&mut self, round: u64, node: NodeId) {
        let earlier = self.finished[node].replace(round);
        assert_eq!(earlier, None, "node {node} reported complete twice");
    }
}

/// Runs `proto` on `engine`, passing every round end on to `observer`,
/// and returns the run's stats beside each node's completion round (0 if
/// it was complete before round 1, `None` if it never finished).
pub fn run_with_completion<P: Protocol>(
    engine: &mut Engine,
    proto: &mut P,
    observer: impl FnMut(u64, &P),
) -> (RunStats, Vec<Option<u64>>) {
    let mut probe = Completion {
        finished: vec![None; proto.num_nodes()],
        round_end: observer,
    };
    let stats = engine.run_observed(proto, &mut probe);
    (stats, probe.finished)
}

/// One `admitted` event: `(round, slot, from, to, fate)`.
pub type Admitted = (u64, usize, NodeId, NodeId, Fate);

/// A recorded run: its stats, the hash of `(round, value(p))` at every
/// round end (what the golden pins hold) and every `admitted` event.
#[derive(Debug)]
pub struct Recorded {
    pub stats: RunStats,
    pub trajectory: u64,
    pub events: Vec<Admitted>,
}

impl Recorded {
    /// Asserts that `self` is the run `want`: the same stats, trajectory
    /// and admitted stream, event for event; a mismatch names the first
    /// diverging event (index, `want`'s, `self`'s). The streams are
    /// compared whole rather than hashed: in a debug build, hashing a
    /// long stream byte by byte costs more than the run it records.
    pub fn assert_same_run(&self, want: &Recorded, lane: &str) {
        assert_eq!(self.stats, want.stats, "{lane}: stats diverged");
        assert_eq!(
            self.trajectory, want.trajectory,
            "{lane}: trajectory diverged"
        );
        let diff = trace_diff(&want.events, &self.events);
        assert_eq!(diff, None, "{lane}: admitted stream diverged");
    }
}

struct Recorder<F> {
    value: F,
    rounds: TrajectoryHash,
    events: Vec<Admitted>,
}

impl<P: Protocol, F: Fn(&P) -> u64> Probe<P> for Recorder<F> {
    fn round_end(&mut self, round: u64, proto: &P) {
        self.rounds.observe(round);
        self.rounds.observe((self.value)(proto));
    }

    fn admitted(&mut self, round: u64, slot: usize, from: NodeId, to: NodeId, fate: Fate) {
        self.events.push((round, slot, from, to, fate));
    }
}

/// Runs `proto` on `engine`, recording it with `value` read at every
/// round end.
pub fn record<P: Protocol>(
    mut engine: Engine,
    proto: &mut P,
    value: impl Fn(&P) -> u64,
) -> Recorded {
    let mut recorder = Recorder {
        value,
        rounds: TrajectoryHash::new(),
        events: Vec::new(),
    };
    let stats = engine.run_observed(proto, &mut recorder);
    Recorded {
        stats,
        trajectory: recorder.rounds.finish(),
        events: recorder.events,
    }
}

/// Where two admitted streams first differ: the index, and each stream's
/// event there (`None` past its end). `None` if they are equal.
pub fn trace_diff(
    a: &[Admitted],
    b: &[Admitted],
) -> Option<(usize, Option<Admitted>, Option<Admitted>)> {
    let at = (0..a.len().max(b.len())).find(|&i| a.get(i) != b.get(i))?;
    Some((at, a.get(at).copied(), b.get(at).copied()))
}
