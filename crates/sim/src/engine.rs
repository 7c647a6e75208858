//! The simulation engine: drives a [`Protocol`] under either time model.
//!
//! The paper's synchronous round (every node wakes, messages are composed
//! from start-of-round state, delivery happens at the round boundary) is
//! written once, in `Engine::sync_round`, over one slot table: slot `2v`
//! holds node `v`'s forward message and slot `2v + 1` its backward one.
//! A round fills every planned slot, then walks the table once in
//! ascending slot order: each message meets its fate in `Engine::admit`
//! (empty send, same-sender dedup drop, loss, or delivery), and each
//! survivor goes straight to its receiver. Compose and delivery run
//! serially through [`Protocol::compose`] and [`Protocol::deliver`], or,
//! when the protocol offers [`Protocol::shards`] and the round is big
//! enough to pay for it, on the rayon pool (the `fan_out` module; the
//! walk then queues each survivor on its receiver's shard). The
//! round-start hook, the wakeups, the merge walk, the [`RunStats`]
//! accounting and the completion sweep are serial at every shard count.
//! An asynchronous timeslot settles its two messages through the same
//! `admit`.
//!
//! Wakeups and loss draws come from the engine's main RNG, in node order
//! and in slot order. Every composition *slot* draws from its own
//! `slot_rng`, a pure function of `(seed, round, slot)`: a message's
//! randomness never depends on which other messages were composed, by
//! whom, or in what order. That makes a round bit-identical at every
//! shard count and a trajectory mismatch localisable to a
//! `(round, slot)`. The asynchronous loop (one wakeup per timeslot,
//! immediate delivery) is inherently sequential and draws everything from
//! the main RNG.
//!
//! The round loop is built for large `n`: all per-round scratch lives in
//! buffers reused across rounds, same-sender dedup is resolved
//! analytically from the intent table instead of hashing `(from, to)`
//! pairs, and the completion sweep walks an explicit list of
//! still-incomplete nodes. Messages the engine decides not to deliver are
//! handed back through [`Protocol::discard`].
//! `tests/differential_engine.rs` checks the loop against a structurally
//! different oracle that derives the slot keys on its own.

// Seed-keying code: a narrowing `as` would collapse distinct seed domains.
#![warn(clippy::cast_possible_truncation)]

use ag_graph::seedmix::{splitmix64, GOLDEN_GAMMA};
use ag_graph::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::fan_out::{shard_count, FanOut};
use crate::protocol::{ContactIntent, Protocol};
use crate::stats::RunStats;

/// The paper's two time models (Section 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TimeModel {
    /// Every node wakes once per round; messages composed from start-of-
    /// round state, delivered at the round boundary.
    #[default]
    Synchronous,
    /// One uniformly random node wakes per timeslot; delivery is
    /// immediate. `n` timeslots = 1 round.
    Asynchronous,
}

/// Engine configuration.
///
/// `loss_prob` and `dedup_same_sender` go beyond the paper: loss is a
/// robustness ablation (the paper assumes reliable channels), and dedup
/// implements the paper's synchronous-model simplifying assumption ("if a
/// node receives 2 messages from the same node at the same round, it will
/// discard the second") — on by default, toggleable for the ablation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// Synchronous rounds or asynchronous timeslots grouping.
    pub time_model: TimeModel,
    /// Stop (unfinished) after this many rounds.
    pub max_rounds: u64,
    /// Per-message drop probability in `[0, 1]`.
    pub loss_prob: f64,
    /// Keep only the first message per (sender, receiver) pair within a
    /// synchronous round.
    pub dedup_same_sender: bool,
    /// RNG seed: equal seeds give bit-identical runs.
    pub seed: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            time_model: TimeModel::Synchronous,
            max_rounds: 1_000_000,
            loss_prob: 0.0,
            dedup_same_sender: true,
            seed: 0,
        }
    }
}

impl EngineConfig {
    /// Synchronous config with a seed.
    #[must_use]
    pub fn synchronous(seed: u64) -> Self {
        EngineConfig {
            time_model: TimeModel::Synchronous,
            seed,
            ..EngineConfig::default()
        }
    }

    /// Asynchronous config with a seed.
    #[must_use]
    pub fn asynchronous(seed: u64) -> Self {
        EngineConfig {
            time_model: TimeModel::Asynchronous,
            seed,
            ..EngineConfig::default()
        }
    }

    /// Sets the round budget (builder-style).
    #[must_use]
    pub fn with_max_rounds(mut self, max_rounds: u64) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    /// Sets the loss probability (builder-style).
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    #[must_use]
    pub fn with_loss(mut self, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "loss probability must be in [0,1]"
        );
        self.loss_prob = p;
        self
    }

    /// Enables/disables synchronous same-sender dedup (builder-style).
    #[must_use]
    pub fn with_dedup(mut self, dedup: bool) -> Self {
        self.dedup_same_sender = dedup;
        self
    }
}

/// Per-round observation hook, monomorphized so the no-observer path
/// compiles to nothing (no closure call, no round bookkeeping between
/// asynchronous round boundaries).
trait Observe<P: Protocol> {
    /// Whether observations are wanted at all. `false` lets the loop skip
    /// observation-only work entirely.
    const ENABLED: bool;
    fn observe(&mut self, round: u64, proto: &P);
}

/// The [`Engine::run_batch`] hot path: observations statically disabled.
struct NoObserver;

impl<P: Protocol> Observe<P> for NoObserver {
    const ENABLED: bool = false;
    #[inline]
    fn observe(&mut self, _round: u64, _proto: &P) {}
}

/// Adapter for the `run_observed` closure.
struct FnObserver<F>(F);

impl<P: Protocol, F: FnMut(u64, &P)> Observe<P> for FnObserver<F> {
    const ENABLED: bool = true;
    #[inline]
    fn observe(&mut self, round: u64, proto: &P) {
        (self.0)(round, proto);
    }
}

/// One planned composition: `(slot, from, to, tag)`.
pub(crate) type Planned = (usize, NodeId, NodeId, u32);

/// The private RNG of one composition slot: a pure function of
/// `(seed, round, slot)`, and the only place that key is derived.
#[inline]
pub(crate) fn slot_rng(seed: u64, round: u64, slot: usize) -> StdRng {
    let round_key = splitmix64(seed ^ round.wrapping_mul(GOLDEN_GAMMA));
    StdRng::seed_from_u64(splitmix64(
        round_key ^ (slot as u64).wrapping_mul(GOLDEN_GAMMA),
    ))
}

/// The compositions node `v`'s intent asks for: slot `2v` carries the
/// forward message `v → partner`, slot `2v + 1` the backward message
/// `partner → v`; `None` where the action does not send that way.
/// Ascending slot order is the round's one message order.
#[inline]
pub(crate) fn slot_plan(v: NodeId, intent: ContactIntent) -> [Option<Planned>; 2] {
    let (u, action, tag) = (intent.partner, intent.action, intent.tag);
    debug_assert_ne!(u, v, "self-contact");
    [
        action.sends_forward().then_some((2 * v, v, u, tag)),
        action.sends_backward().then_some((2 * v + 1, u, v, tag)),
    ]
}

/// Every composition a round's intents ask for, in ascending slot order.
#[inline]
pub(crate) fn planned(intents: &[Option<ContactIntent>]) -> impl Iterator<Item = Planned> + '_ {
    intents
        .iter()
        .enumerate()
        .flat_map(|(v, intent)| intent.map_or([None, None], |i| slot_plan(v, i)))
        .flatten()
}

/// One synchronous round's engine-owned scratch, allocated once per run
/// and reused by every round, so a steady-state serial round performs no
/// engine-side heap allocation (messages themselves are owned by the
/// protocol).
#[derive(Debug)]
struct SyncRound<M> {
    /// Start-of-round contact intents, one per node.
    intents: Vec<Option<ContactIntent>>,
    /// The round's messages, indexed by slot ([`slot_plan`]); all `None`
    /// between rounds.
    table: Vec<Option<M>>,
    /// `live[d][v]`: v's message in direction `d` (0 forward, 1
    /// backward) took its `(from, to)` pair.
    live: [Vec<bool>; 2],
    /// The fan-out's partition and scratch; `None` until a round is
    /// sharded.
    fan: Option<FanOut<M>>,
}

impl<M> SyncRound<M> {
    fn new(n: usize) -> Self {
        SyncRound {
            intents: Vec::with_capacity(n),
            table: std::iter::repeat_with(|| None).take(2 * n).collect(),
            live: [vec![false; n], vec![false; n]],
            fan: None,
        }
    }
}

/// Drives a [`Protocol`] to completion (or budget exhaustion).
///
/// The engine assumes node completion is *monotone* (once
/// [`Protocol::node_complete`] returns true for a node it stays true) —
/// which holds for every protocol in this workspace since decoder ranks and
/// heard-sets only grow. Completion is re-checked once per still-incomplete
/// node per synchronous round (every node wakes each round, so the set of
/// nodes whose status may have changed — the "dirty" set — is exactly the
/// incomplete set), and per contact participant per asynchronous slot (the
/// two contact participants are the only dirty nodes of a slot: a node's
/// status can change on receipt *or* on its own wakeup, e.g. under an
/// oracle tree protocol).
///
/// # Examples
///
/// ```
/// use ag_sim::{Engine, EngineConfig};
/// # use ag_sim::{ContactIntent, Protocol};
/// # use ag_graph::NodeId;
/// # use rand::rngs::StdRng;
/// # struct Noop;
/// # impl Protocol for Noop {
/// #     type Msg = ();
/// #     fn num_nodes(&self) -> usize { 2 }
/// #     fn on_wakeup(&mut self, _: NodeId, _: &mut StdRng) -> Option<ContactIntent> { None }
/// #     fn compose(&self, _: NodeId, _: NodeId, _: u32, _: &mut StdRng) -> Option<()> { None }
/// #     fn deliver(&mut self, _: NodeId, _: NodeId, _: u32, _: ()) {}
/// #     fn node_complete(&self, _: NodeId) -> bool { true }
/// # }
/// let stats = Engine::new(EngineConfig::synchronous(42)).run(&mut Noop);
/// assert!(stats.completed);
/// assert_eq!(stats.rounds, 0); // complete before any round ran
/// ```
#[derive(Debug)]
pub struct Engine {
    config: EngineConfig,
    rng: StdRng,
    forced_shards: Option<usize>,
}

impl Engine {
    /// Creates an engine with its own seeded RNG.
    ///
    /// # Panics
    ///
    /// Panics if `config.loss_prob` is not in `[0, 1]`: the field is public,
    /// so [`EngineConfig::with_loss`] is not the only way in.
    #[must_use]
    pub fn new(config: EngineConfig) -> Self {
        assert!(
            (0.0..=1.0).contains(&config.loss_prob),
            "loss probability must be in [0,1]"
        );
        Engine {
            rng: StdRng::seed_from_u64(config.seed),
            config,
            forced_shards: None,
        }
    }

    /// Test seam: every synchronous round runs over exactly `shards`
    /// shards (clamped to `[1, n]`; 1 is serial), whatever the round
    /// moves and however many threads there are. Results are
    /// bit-identical with and without it; a protocol whose
    /// [`Protocol::shards`] is `None` runs serially regardless.
    #[doc(hidden)]
    #[must_use]
    pub fn with_forced_shards(mut self, shards: usize) -> Self {
        self.forced_shards = Some(shards);
        self
    }

    /// Runs the protocol to completion or budget; returns statistics.
    ///
    /// Equivalent to [`Engine::run_batch`] — same seed, same results.
    pub fn run<P: Protocol>(&mut self, proto: &mut P) -> RunStats {
        self.run_batch(proto)
    }

    /// The no-trace hot path: like [`Engine::run`] but named for what the
    /// trial runner wants — large batches of runs where nobody asks for a
    /// per-round trace. Observation support is compiled out entirely
    /// (statically, via a disabled observer type), so the round loop pays
    /// no closure call and, under the asynchronous model, skips the
    /// round-boundary bookkeeping that only exists to feed observers.
    ///
    /// Produces bit-identical [`RunStats`] to [`Engine::run_observed`]
    /// under the same seed: observers never touch engine randomness.
    pub fn run_batch<P: Protocol>(&mut self, proto: &mut P) -> RunStats {
        self.run_with(proto, NoObserver)
    }

    /// Like [`Engine::run`] but invokes `observer(round, proto)` after
    /// every completed round (under both time models) — used to trace rank
    /// growth for the figures, or, through [`Protocol::node_complete`],
    /// the round each node finished in (the engine records no per-node
    /// completion).
    ///
    /// Under the asynchronous model the observer also fires one final time
    /// when a run completes *mid-round*, with the ceiling round number
    /// (see [`RunStats::rounds`]), so the trace always ends with the
    /// completed state — a run finishing at `m·n + j` timeslots
    /// (`0 < j < n`) is observed at rounds `1, …, m, m+1`, not truncated
    /// at `m`.
    pub fn run_observed<P: Protocol>(
        &mut self,
        proto: &mut P,
        observer: impl FnMut(u64, &P),
    ) -> RunStats {
        self.run_with(proto, FnObserver(observer))
    }

    /// The one outer loop: initial completion scan, then synchronous
    /// rounds or asynchronous timeslots, until every node is complete or
    /// the budget is spent.
    fn run_with<P: Protocol, O: Observe<P>>(&mut self, proto: &mut P, mut obs: O) -> RunStats {
        let n = proto.num_nodes();
        assert!(n > 0, "protocol must have at least one node");
        let mut stats = RunStats::default();
        let mut complete: Vec<bool> = (0..n).map(|v| proto.node_complete(v)).collect();
        let mut incomplete = complete.iter().filter(|&&done| !done).count();
        if incomplete == 0 {
            stats.completed = true;
            return stats;
        }
        match self.config.time_model {
            TimeModel::Synchronous => {
                // The incomplete set as an explicit list: the per-round
                // completion sweep touches only these nodes, not all n.
                let mut pending: Vec<NodeId> = (0..n).filter(|&v| !complete[v]).collect();
                let mut scratch = SyncRound::new(n);
                while stats.rounds < self.config.max_rounds {
                    self.sync_round(proto, &mut stats, &mut scratch, &mut pending);
                    if O::ENABLED {
                        obs.observe(stats.rounds, proto);
                    }
                    if pending.is_empty() {
                        stats.completed = true;
                        break;
                    }
                }
            }
            TimeModel::Asynchronous => {
                let max_slots = self.config.max_rounds.saturating_mul(n as u64);
                while stats.timeslots < max_slots {
                    if stats.timeslots.is_multiple_of(n as u64) {
                        // A new round group of n timeslots begins.
                        proto.on_round_start(stats.timeslots / n as u64 + 1);
                    }
                    self.async_slot(proto, &mut stats, &mut complete, &mut incomplete, n);
                    if O::ENABLED && stats.timeslots.is_multiple_of(n as u64) {
                        stats.rounds = stats.timeslots / n as u64;
                        obs.observe(stats.rounds, proto);
                    }
                    if incomplete == 0 {
                        stats.completed = true;
                        break;
                    }
                }
                // One rounds convention everywhere: ceil(timeslots / n).
                stats.rounds = stats.timeslots.div_ceil(n as u64);
                if O::ENABLED && stats.completed && !stats.timeslots.is_multiple_of(n as u64) {
                    // The run completed mid-round; the round-boundary
                    // observation above never saw the final state.
                    obs.observe(stats.rounds, proto);
                }
            }
        }
        stats
    }

    /// One synchronous round: wakeups → every planned slot composed from
    /// pre-round state → one merge walk in ascending slot order, which
    /// settles each message through [`Engine::admit`] and hands each
    /// survivor to its receiver → completion sweep. Shards decide only
    /// *where* slots are composed and messages applied: slot `s` of round
    /// `r` is composed from pre-round state with `slot_rng(seed, r, s)`
    /// and nothing else, and every receiver takes its messages in slot
    /// order. Delivering inside the merge changes nothing the merge reads:
    /// it reads the intents and its own `live` flags, never protocol
    /// state.
    ///
    /// Same-sender dedup needs no hash set: within one round a pair
    /// `(from, to)` can occur at most twice — once as the *forward*
    /// message of `from`'s own intent and once as the *backward* message
    /// of `to`'s intent (each node files exactly one intent). The merge
    /// runs in node order with forward before backward, so "keep the first
    /// per pair" reduces to two O(1) lookups against the intent table. A
    /// duplicate's slot is still taken: whether it counts as
    /// `dedup_dropped` or as `empty_sends` depends on what it composed.
    /// Loss is drawn on the main RNG as each dedup survivor is merged, so
    /// the draws follow slot order.
    // ag-lint: hot-path
    fn sync_round<P: Protocol>(
        &mut self,
        proto: &mut P,
        stats: &mut RunStats,
        scratch: &mut SyncRound<P::Msg>,
        pending: &mut Vec<NodeId>,
    ) {
        let n = proto.num_nodes();
        let round = stats.rounds + 1;
        let seed = self.config.seed;
        let SyncRound {
            intents,
            table,
            live,
            fan,
        } = scratch;
        // 0. Round-start hook (epoch advance for dynamic topologies).
        proto.on_round_start(round);
        // 1. Every node wakes and declares its contact: serial, in node
        //    order, on the main RNG.
        intents.clear();
        intents.extend((0..n).map(|v| proto.on_wakeup(v, &mut self.rng)));
        // 2. Compose every planned slot from round-start state: through
        //    the protocol's shards if the round is worth them and it offers
        //    them, serially otherwise.
        let shards = shard_count(intents, proto.msg_bytes(), self.forced_shards);
        let mut sharded = None;
        if shards > 1 {
            let fan = fan.get_or_insert_with(|| FanOut::new(n, shards));
            if fan.compose(proto, intents, table, seed, round) {
                sharded = Some(fan);
            }
        }
        if sharded.is_none() {
            for (slot, from, to, tag) in planned(intents) {
                table[slot] = proto.compose(from, to, tag, &mut slot_rng(seed, round, slot));
            }
        }
        // 3. Merge the slots in ascending order; each survivor goes
        //    straight to its receiver, or onto its receiver's shard.
        let dedup = self.config.dedup_same_sender;
        live.iter_mut().for_each(|l| l.fill(false));
        for v in 0..n {
            let Some(intent) = intents[v] else { continue };
            let u = intent.partner;
            for (slot, from, to, tag) in slot_plan(v, intent).into_iter().flatten() {
                let d = slot % 2; // 0 forward, 1 backward
                let msg = table[slot].take();
                // The pair can already be taken only by an earlier node u
                // that contacted v back: (v → u) by u's backward message,
                // (u → v) by its forward one. Asked of composed messages.
                let dup = dedup
                    && msg.is_some()
                    && u < v
                    && live[1 - d][u]
                    && matches!(intents[u], Some(i) if i.partner == v);
                live[d][v] = msg.is_some() && !dup;
                if let Some(msg) = self.admit(proto, stats, msg, dup) {
                    match sharded.as_mut() {
                        Some(fan) => fan.queue(from, to, tag, msg),
                        None => proto.deliver(from, to, tag, msg),
                    }
                }
            }
        }
        // 4. A sharded round applies its queued survivors shard by shard.
        if let Some(fan) = sharded {
            fan.deliver(proto);
        }
        stats.rounds += 1;
        stats.timeslots += n as u64;
        // 5. Completion sweep over the still-incomplete nodes only (all of
        //    them are dirty: every node woke, and any may have received).
        pending.retain(|&v| !proto.node_complete(v));
    }

    /// The fate of one composed message, under both time models: nothing
    /// composed is an empty send, a same-sender duplicate (`dup`) is a
    /// dedup drop, a message that fails the loss draw is lost, and
    /// anything else is delivered. Drops go back through
    /// [`Protocol::discard`]; the survivor is returned for its receiver.
    // ag-lint: hot-path
    #[inline]
    fn admit<P: Protocol>(
        &mut self,
        proto: &mut P,
        stats: &mut RunStats,
        msg: Option<P::Msg>,
        dup: bool,
    ) -> Option<P::Msg> {
        let Some(msg) = msg else {
            stats.empty_sends += 1;
            return None;
        };
        if dup {
            stats.dedup_dropped += 1;
            proto.discard(msg);
            return None;
        }
        if self.config.loss_prob > 0.0 && self.rng.gen_bool(self.config.loss_prob) {
            stats.lost += 1;
            proto.discard(msg);
            return None;
        }
        stats.messages_delivered += 1;
        Some(msg)
    }

    /// One asynchronous timeslot: a uniformly random node wakes; both
    /// directions of its contact are composed from pre-contact state on
    /// the main RNG, then settled through [`Engine::admit`] and delivered.
    // ag-lint: hot-path
    fn async_slot<P: Protocol>(
        &mut self,
        proto: &mut P,
        stats: &mut RunStats,
        complete: &mut [bool],
        incomplete: &mut usize,
        n: usize,
    ) {
        stats.timeslots += 1;
        let v = self.rng.gen_range(0..n);
        let intent = proto.on_wakeup(v, &mut self.rng);
        if let Some(intent) = intent {
            // Compose both directions before either delivery: a node cannot
            // receive two messages from the same node in one timeslot, and
            // the reply must not depend on the just-received message.
            let composed = slot_plan(v, intent).map(|plan| {
                plan.map(|(_, from, to, tag)| {
                    (from, to, tag, proto.compose(from, to, tag, &mut self.rng))
                })
            });
            for (from, to, tag, msg) in composed.into_iter().flatten() {
                if let Some(msg) = self.admit(proto, stats, msg, false) {
                    proto.deliver(from, to, tag, msg);
                }
            }
        }
        // Either participant may have completed: on receipt, or on its own
        // wakeup (oracle protocols).
        for node in [Some(v), intent.map(|i| i.partner)].into_iter().flatten() {
            if !complete[node] && proto.node_complete(node) {
                complete[node] = true;
                *incomplete -= 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::completion::run_with_completion;
    use crate::protocol::{Action, ContactIntent};

    /// A deterministic "hot potato" counter: node v always pushes to
    /// v+1 mod n; the message is the sender's current value; receivers
    /// take the max. Node complete <=> value == 1. Starts with only node 0
    /// hot. Under correct synchronous snapshot semantics the value moves
    /// exactly one hop per round.
    struct Relay {
        values: Vec<u8>,
    }

    impl Relay {
        fn new(n: usize) -> Self {
            let mut values = vec![0; n];
            values[0] = 1;
            Relay { values }
        }
    }

    impl Protocol for Relay {
        type Msg = u8;

        fn num_nodes(&self) -> usize {
            self.values.len()
        }

        fn on_wakeup(&mut self, node: NodeId, _rng: &mut StdRng) -> Option<ContactIntent> {
            Some(ContactIntent {
                partner: (node + 1) % self.values.len(),
                action: Action::Push,
                tag: 0,
            })
        }

        fn compose(&self, from: NodeId, _to: NodeId, _tag: u32, _rng: &mut StdRng) -> Option<u8> {
            Some(self.values[from])
        }

        fn deliver(&mut self, _from: NodeId, to: NodeId, _tag: u32, msg: u8) {
            self.values[to] = self.values[to].max(msg);
        }

        fn node_complete(&self, node: NodeId) -> bool {
            self.values[node] == 1
        }
    }

    #[test]
    fn synchronous_rounds_move_information_one_hop() {
        // 6 nodes in a directed relay ring: the paper's snapshot rule means
        // the hot value advances exactly one node per round => 5 rounds.
        let mut proto = Relay::new(6);
        let mut engine = Engine::new(EngineConfig::synchronous(1));
        let (stats, finished) = run_with_completion(&mut engine, &mut proto, |_, _| {});
        assert!(stats.completed);
        assert_eq!(stats.rounds, 5);
        // Every node pushes every round: 6 messages per round.
        assert_eq!(stats.messages_delivered, 5 * 6);
        // Completion rounds are exactly the hop distances.
        for (v, r) in finished.iter().enumerate() {
            assert_eq!(r.unwrap(), v as u64);
        }
    }

    #[test]
    fn asynchronous_delivery_is_immediate() {
        // In the async model the value can hop several times within n
        // slots, but never backwards; completion takes SOME slots and the
        // round count is ceil(slots / n).
        let mut proto = Relay::new(4);
        let stats = Engine::new(EngineConfig::asynchronous(7)).run(&mut proto);
        assert!(stats.completed);
        assert_eq!(stats.rounds, stats.timeslots.div_ceil(4));
        assert!(proto.values.iter().all(|&v| v == 1));
    }

    #[test]
    fn loss_one_blocks_everything() {
        let mut proto = Relay::new(4);
        let cfg = EngineConfig::synchronous(3)
            .with_loss(1.0)
            .with_max_rounds(50);
        let stats = Engine::new(cfg).run(&mut proto);
        assert!(!stats.completed);
        assert_eq!(stats.messages_delivered, 0);
        // Relay pairs are unique within a round: everything is loss.
        assert_eq!(stats.lost, 50 * 4);
        assert_eq!(stats.dedup_dropped, 0);
    }

    #[test]
    fn budget_exhaustion_reports_incomplete() {
        let mut proto = Relay::new(10);
        let mut engine = Engine::new(EngineConfig::synchronous(3).with_max_rounds(3));
        let (stats, finished) = run_with_completion(&mut engine, &mut proto, |_, _| {});
        assert!(!stats.completed);
        assert_eq!(stats.rounds, 3);
        // Node 0 starts hot; the value gets three hops further, no more.
        let hops = (0..4).map(Some).chain([None; 6]);
        assert_eq!(finished, hops.collect::<Vec<_>>());
    }

    #[test]
    fn already_complete_protocol_runs_zero_rounds() {
        struct Done;
        impl Protocol for Done {
            type Msg = ();
            fn num_nodes(&self) -> usize {
                3
            }
            fn on_wakeup(&mut self, _: NodeId, _: &mut StdRng) -> Option<ContactIntent> {
                None
            }
            fn compose(&self, _: NodeId, _: NodeId, _: u32, _: &mut StdRng) -> Option<()> {
                None
            }
            fn deliver(&mut self, _: NodeId, _: NodeId, _: u32, _msg: ()) {}
            fn node_complete(&self, _: NodeId) -> bool {
                true
            }
        }
        let stats = Engine::new(EngineConfig::synchronous(0)).run(&mut Done);
        assert!(stats.completed);
        assert_eq!(stats.rounds, 0);
        assert_eq!(stats.timeslots, 0);
    }

    /// An EXCHANGE protocol where both endpoints contact each other,
    /// producing duplicate (from, to) messages in one synchronous round.
    struct MutualExchange {
        delivered: Vec<u32>,
    }

    impl Protocol for MutualExchange {
        type Msg = ();

        fn num_nodes(&self) -> usize {
            2
        }

        fn on_wakeup(&mut self, node: NodeId, _rng: &mut StdRng) -> Option<ContactIntent> {
            Some(ContactIntent::exchange(1 - node))
        }

        fn compose(&self, _: NodeId, _: NodeId, _: u32, _: &mut StdRng) -> Option<()> {
            Some(())
        }

        fn deliver(&mut self, _from: NodeId, to: NodeId, _tag: u32, _msg: ()) {
            self.delivered[to] += 1;
        }

        fn node_complete(&self, node: NodeId) -> bool {
            self.delivered[node] >= 2
        }
    }

    #[test]
    fn same_sender_dedup_drops_second_message() {
        // Both nodes EXCHANGE with each other: 4 messages composed, but
        // each (from, to) pair appears twice, so dedup delivers only 2.
        let mut proto = MutualExchange {
            delivered: vec![0, 0],
        };
        let cfg = EngineConfig::synchronous(0).with_max_rounds(1);
        let stats = Engine::new(cfg).run(&mut proto);
        assert_eq!(stats.messages_delivered, 2);
        assert_eq!(stats.dedup_dropped, 2);
        assert_eq!(proto.delivered, vec![1, 1]);
    }

    /// Regression for the drop-counter conflation bug: with
    /// `loss_prob = 0` a run must report `lost == 0` even when the
    /// same-sender rule discards messages — dedup discards used to be
    /// indistinguishable from channel loss in the stats.
    #[test]
    fn dedup_drops_do_not_count_as_loss() {
        let mut proto = MutualExchange {
            delivered: vec![0, 0],
        };
        let cfg = EngineConfig::synchronous(9).with_max_rounds(3);
        assert_eq!(cfg.loss_prob, 0.0);
        let stats = Engine::new(cfg).run(&mut proto);
        assert!(stats.dedup_dropped > 0, "dedup must be active");
        assert_eq!(stats.lost, 0, "no loss was configured");
        assert_eq!(
            stats.messages_sent(),
            stats.messages_delivered + stats.dedup_dropped
        );
    }

    #[test]
    fn dedup_disabled_delivers_all() {
        let mut proto = MutualExchange {
            delivered: vec![0, 0],
        };
        let cfg = EngineConfig::synchronous(0)
            .with_dedup(false)
            .with_max_rounds(1);
        let stats = Engine::new(cfg).run(&mut proto);
        assert!(stats.completed);
        assert_eq!(stats.messages_delivered, 4);
        assert_eq!(stats.dedup_dropped, 0);
        assert_eq!(proto.delivered, vec![2, 2]);
    }

    #[test]
    fn identical_seeds_identical_runs() {
        let run = |seed| {
            let mut p = Relay::new(8);
            Engine::new(EngineConfig::asynchronous(seed)).run(&mut p)
        };
        let a = run(99);
        let b = run(99);
        assert_eq!(a, b);
        let c = run(100);
        assert!(a.timeslots != c.timeslots || a.messages_delivered != c.messages_delivered);
    }

    #[test]
    fn run_batch_and_run_observed_agree() {
        // Observers must not perturb the run: all three entry points
        // produce the same stats under the same seed, both time models.
        for cfg in [EngineConfig::synchronous(5), EngineConfig::asynchronous(5)] {
            let batch = Engine::new(cfg).run_batch(&mut Relay::new(7));
            let plain = Engine::new(cfg).run(&mut Relay::new(7));
            let observed = Engine::new(cfg).run_observed(&mut Relay::new(7), |_, _| {});
            assert_eq!(batch, plain);
            assert_eq!(batch, observed);
        }
    }

    #[test]
    fn observer_sees_every_round() {
        let mut proto = Relay::new(5);
        let mut rounds_seen = Vec::new();
        let mut engine = Engine::new(EngineConfig::synchronous(0));
        engine.run_observed(&mut proto, |r, _p| rounds_seen.push(r));
        assert_eq!(rounds_seen, vec![1, 2, 3, 4]);
    }

    /// Regression for the truncated-trace bug: an asynchronous run that
    /// completes mid-round used to hide its final state from the observer
    /// (it only fired at `timeslots % n == 0`). The observer must always
    /// end on the completed state, at the ceiling round number.
    #[test]
    fn async_observer_sees_final_partial_round() {
        let mut mid_round_completions = 0;
        for seed in 0..24u64 {
            let mut proto = Relay::new(5);
            let mut trace: Vec<(u64, bool)> = Vec::new();
            let stats = Engine::new(EngineConfig::asynchronous(seed)).run_observed(
                &mut proto,
                |round, p| {
                    trace.push((round, p.values.iter().all(|&v| v == 1)));
                },
            );
            assert!(stats.completed);
            let &(last_round, last_done) = trace.last().expect("observer fired");
            assert_eq!(
                last_round, stats.rounds,
                "trace must end at the final round"
            );
            assert!(last_done, "final observation must show the completed state");
            if !stats.timeslots.is_multiple_of(5) {
                mid_round_completions += 1;
                // The partial round is observed exactly once.
                let final_obs = trace.iter().filter(|&&(r, _)| r == last_round).count();
                assert_eq!(final_obs, 1);
            }
        }
        assert!(
            mid_round_completions > 0,
            "test never exercised a mid-round completion"
        );
    }

    /// A two-node protocol that completes at an exact global timeslot:
    /// `on_wakeup` runs once per slot and both participants are refreshed
    /// every slot, so completion lands precisely when the counter hits the
    /// target.
    struct SlotCounter {
        slots: u64,
        target: u64,
    }

    impl Protocol for SlotCounter {
        type Msg = ();

        fn num_nodes(&self) -> usize {
            2
        }

        fn on_wakeup(&mut self, node: NodeId, _rng: &mut StdRng) -> Option<ContactIntent> {
            self.slots += 1;
            Some(ContactIntent {
                partner: 1 - node,
                action: Action::Push,
                tag: 0,
            })
        }

        fn compose(&self, _: NodeId, _: NodeId, _: u32, _: &mut StdRng) -> Option<()> {
            Some(())
        }

        fn deliver(&mut self, _: NodeId, _: NodeId, _: u32, _msg: ()) {}

        fn node_complete(&self, _: NodeId) -> bool {
            self.slots >= self.target
        }
    }

    /// Boundary pin for the unified ceiling convention: completion at
    /// exactly `n·m` timeslots reports `m` rounds; at `n·m + 1` it
    /// reports `m + 1` — in `stats.rounds`, in the per-node completion
    /// rounds, and in the observer's final round number.
    #[test]
    fn async_round_accounting_boundary() {
        let n = 2u64;
        let m = 5u64;
        for (target, want_rounds) in [(n * m, m), (n * m + 1, m + 1)] {
            let mut proto = SlotCounter { slots: 0, target };
            let mut last_observed = None;
            let mut engine = Engine::new(EngineConfig::asynchronous(1));
            let (stats, finished) = run_with_completion(&mut engine, &mut proto, |round, _| {
                last_observed = Some(round);
            });
            assert!(stats.completed);
            assert_eq!(stats.timeslots, target, "completion slot must be exact");
            assert_eq!(stats.rounds, want_rounds, "target {target}");
            assert_eq!(stats.rounds, stats.timeslots.div_ceil(n));
            assert_eq!(last_observed, Some(want_rounds));
            for r in finished {
                assert_eq!(r, Some(want_rounds));
            }
        }
    }

    #[test]
    #[should_panic(expected = "loss probability")]
    fn invalid_loss_rejected() {
        let _ = EngineConfig::default().with_loss(1.5);
    }
}
