//! Test-side [`Probe`]s: per-node completion rounds, a recorder of a
//! run's trajectory and message fates, and [`trace_diff`], which names the
//! first event where two recorded runs part; and [`Heavy`], the wrapper
//! through which a test reaches the sharded round, run [`in_pool`].
//!
//! Shared by the engine's unit tests, the `ag-sim` integration tests and
//! the `algebraic-gossip` tests (each includes this file as a module, and
//! each uses part of it).
#![allow(dead_code, reason = "each including test uses part of the module")]

use ag_graph::NodeId;
use ag_sim::{
    ContactIntent, Engine, Fate, Probe, Protocol, ProtocolShard, RunStats, TrajectoryHash,
};
use rand::rngs::StdRng;

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

/// Runs `op` inside a local rayon pool of `threads` threads: the shard
/// count of every round [`Heavy`] puts over the engine's byte rule.
pub fn in_pool<R: Send>(threads: usize, op: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("local pool")
        .install(op)
}

/// Forwards every [`Protocol`] method to `proto` but weighs each message
/// at 2 MiB, the engine's fan-out rule, so every round with a contact
/// clears it: on a pool of T > 1 threads the round splits into
/// `min(T, n)` shards, as a production round over the rule does, and on
/// one thread it is serial. `shards` says whether [`Protocol::shards`] is
/// forwarded too; without it the fan-out has no shards to run and the
/// round falls back to the serial one.
pub struct Heavy<P> {
    pub proto: P,
    pub shards: bool,
}

impl<P: Protocol> Protocol for Heavy<P> {
    type Msg = P::Msg;

    fn num_nodes(&self) -> usize {
        self.proto.num_nodes()
    }

    fn on_round_start(&mut self, round: u64) {
        self.proto.on_round_start(round);
    }

    fn on_wakeup(&mut self, node: NodeId, rng: &mut StdRng) -> Option<ContactIntent> {
        self.proto.on_wakeup(node, rng)
    }

    fn compose(&self, from: NodeId, to: NodeId, tag: u32, rng: &mut StdRng) -> Option<P::Msg> {
        self.proto.compose(from, to, tag, rng)
    }

    fn deliver(&mut self, from: NodeId, to: NodeId, tag: u32, msg: P::Msg) {
        self.proto.deliver(from, to, tag, msg);
    }

    fn discard(&mut self, msg: P::Msg) {
        self.proto.discard(msg);
    }

    fn msg_bytes(&self) -> usize {
        2 << 20
    }

    fn shards(
        &mut self,
        bounds: &[(usize, usize)],
        send_counts: &[usize],
    ) -> Option<Vec<Box<dyn ProtocolShard<Msg = P::Msg> + '_>>> {
        if self.shards {
            self.proto.shards(bounds, send_counts)
        } else {
            None
        }
    }

    fn node_complete(&self, node: NodeId) -> bool {
        self.proto.node_complete(node)
    }
}
