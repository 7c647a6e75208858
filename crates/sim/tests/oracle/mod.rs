//! The oracle round loop for `differential_engine`: test-only, and
//! deliberately *not* the engine's structure.
//!
//! [`ReferenceEngine`] allocates a fresh intent `Vec`, message queue and
//! dedup `BTreeSet` every synchronous round, queues only composed messages
//! (no slot table), resolves same-sender dedup by looking `(from, to)` up at
//! delivery time, delivers each survivor as soon as its loss draw passes,
//! and sweeps all `n` completion flags each round. It
//! shares only the *contract* with [`ag_sim::Engine`]: wakeups and loss on
//! the main RNG, every composed message on an RNG private to
//! `(seed, round, slot)`, the `dedup_dropped`/`lost` counter split, the
//! ceiling rounds convention, and the final mid-round observation under
//! the asynchronous model. For any protocol and seed it must therefore
//! produce bit-identical [`RunStats`] and round-end traces. It also keeps
//! its own per-node completion record: the round each node finished in,
//! which a test compares with the engine's `node_complete` events.
//!
//! The slot key is derived here, from the public seed-mixing primitives,
//! not through the engine's private `slot_rng`: a keying bug in the engine
//! is then caught by the comparison instead of being shared with it.
//!
//! Do not "optimize" this module: its value is being structurally
//! different from the loop it checks.

use ag_graph::seedmix::{splitmix64, GOLDEN_GAMMA};
use ag_graph::NodeId;
use ag_sim::{EngineConfig, Protocol, RunStats, TimeModel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Drop-in, allocation-heavy counterpart of [`ag_sim::Engine`].
#[derive(Debug)]
pub struct ReferenceEngine {
    config: EngineConfig,
    rng: StdRng,
}

impl ReferenceEngine {
    /// Creates a reference engine with its own seeded RNG.
    #[must_use]
    pub fn new(config: EngineConfig) -> Self {
        ReferenceEngine {
            rng: StdRng::seed_from_u64(config.seed),
            config,
        }
    }

    /// Runs the protocol to completion or budget, invoking
    /// `observer(round, proto)` after every completed round, with the same
    /// final mid-round call as [`ag_sim::Probe::round_end`] under
    /// [`ag_sim::Engine::run_observed`]. Returns the stats beside the round
    /// each node finished in (0 if it was complete before round 1, `None`
    /// if it never finished).
    pub fn run_observed<P: Protocol>(
        &mut self,
        proto: &mut P,
        mut observer: impl FnMut(u64, &P),
    ) -> (RunStats, Vec<Option<u64>>) {
        let n = proto.num_nodes();
        assert!(n > 0, "protocol must have at least one node");
        let mut stats = RunStats {
            completed: false,
            rounds: 0,
            timeslots: 0,
            messages_delivered: 0,
            dedup_dropped: 0,
            lost: 0,
            empty_sends: 0,
        };
        let mut finished = vec![None; n];
        let mut incomplete = n;
        for (v, at) in finished.iter_mut().enumerate() {
            if proto.node_complete(v) {
                *at = Some(0);
                incomplete -= 1;
            }
        }
        if incomplete == 0 {
            stats.completed = true;
            return (stats, finished);
        }
        match self.config.time_model {
            TimeModel::Synchronous => {
                while stats.rounds < self.config.max_rounds {
                    self.sync_round(proto, &mut stats, &mut finished, &mut incomplete);
                    observer(stats.rounds, proto);
                    if incomplete == 0 {
                        stats.completed = true;
                        break;
                    }
                }
            }
            TimeModel::Asynchronous => {
                let max_slots = self.config.max_rounds.saturating_mul(n as u64);
                while stats.timeslots < max_slots {
                    if stats.timeslots.is_multiple_of(n as u64) {
                        proto.on_round_start(stats.timeslots / n as u64 + 1);
                    }
                    self.async_slot(proto, &mut stats, &mut finished, &mut incomplete, n);
                    if stats.timeslots.is_multiple_of(n as u64) {
                        stats.rounds = stats.timeslots / n as u64;
                        observer(stats.rounds, proto);
                    }
                    if incomplete == 0 {
                        stats.completed = true;
                        break;
                    }
                }
                stats.rounds = stats.timeslots.div_ceil(n as u64);
                if stats.completed && !stats.timeslots.is_multiple_of(n as u64) {
                    observer(stats.rounds, proto);
                }
            }
        }
        (stats, finished)
    }

    /// One synchronous round: fresh per-round allocations, hash-set dedup
    /// at delivery time, full O(n) sweep.
    fn sync_round<P: Protocol>(
        &mut self,
        proto: &mut P,
        stats: &mut RunStats,
        finished: &mut [Option<u64>],
        incomplete: &mut usize,
    ) {
        let n = proto.num_nodes();
        let round = stats.rounds + 1;
        // 0. Round-start hook — like the drop accounting, a semantic
        //    contract shared with the fast engine: dynamic topologies must
        //    see identical epoch sequences under both loops.
        proto.on_round_start(round);
        // 1. Every node wakes and declares its contact.
        let intents: Vec<_> = (0..n).map(|v| proto.on_wakeup(v, &mut self.rng)).collect();
        // 2. Compose all messages against the (still unmodified) round-
        //    start data state. Slot 2v is v's forward message, slot 2v+1
        //    its backward one; each draws from its own keyed RNG.
        let round_key = splitmix64(self.config.seed ^ round.wrapping_mul(GOLDEN_GAMMA));
        let keyed = |slot: usize| {
            StdRng::seed_from_u64(splitmix64(
                round_key ^ (slot as u64).wrapping_mul(GOLDEN_GAMMA),
            ))
        };
        let mut queue: Vec<(NodeId, NodeId, u32, P::Msg)> = Vec::new();
        for (v, intent) in intents.iter().enumerate() {
            let Some(intent) = intent else { continue };
            let u = intent.partner;
            debug_assert_ne!(u, v, "self-contact");
            if intent.action.sends_forward() {
                match proto.compose(v, u, intent.tag, &mut keyed(2 * v)) {
                    Some(m) => queue.push((v, u, intent.tag, m)),
                    None => stats.empty_sends += 1,
                }
            }
            if intent.action.sends_backward() {
                match proto.compose(u, v, intent.tag, &mut keyed(2 * v + 1)) {
                    Some(m) => queue.push((u, v, intent.tag, m)),
                    None => stats.empty_sends += 1,
                }
            }
        }
        // 3. Same-sender dedup (keep the first per (from, to) pair).
        let mut seen = std::collections::BTreeSet::new();
        for (from, to, tag, msg) in queue {
            if self.config.dedup_same_sender && !seen.insert((from, to)) {
                stats.dedup_dropped += 1;
                // Not an optimization — the same discard hook the fast
                // engine invokes, so a protocol sees the same fates under
                // both loops.
                proto.discard(msg);
                continue;
            }
            // 4. Loss injection.
            if self.config.loss_prob > 0.0 && self.rng.gen_bool(self.config.loss_prob) {
                stats.lost += 1;
                proto.discard(msg);
                continue;
            }
            // 5. Delivery.
            proto.deliver(from, to, tag, msg);
            stats.messages_delivered += 1;
        }
        stats.rounds += 1;
        stats.timeslots += n as u64;
        // 6. Completion sweep over every node's record.
        for (v, at) in finished.iter_mut().enumerate() {
            if at.is_none() && proto.node_complete(v) {
                *at = Some(stats.rounds);
                *incomplete -= 1;
            }
        }
    }

    /// One asynchronous timeslot: everything on the main RNG.
    fn async_slot<P: Protocol>(
        &mut self,
        proto: &mut P,
        stats: &mut RunStats,
        finished: &mut [Option<u64>],
        incomplete: &mut usize,
        n: usize,
    ) {
        stats.timeslots += 1;
        let round_now = stats.timeslots.div_ceil(n as u64);
        let refresh =
            |proto: &P, node: NodeId, finished: &mut [Option<u64>], incomplete: &mut usize| {
                if finished[node].is_none() && proto.node_complete(node) {
                    finished[node] = Some(round_now);
                    *incomplete -= 1;
                }
            };
        let v = self.rng.gen_range(0..n);
        let Some(intent) = proto.on_wakeup(v, &mut self.rng) else {
            refresh(proto, v, finished, incomplete);
            return;
        };
        let u = intent.partner;
        debug_assert_ne!(u, v, "self-contact");
        let forward = if intent.action.sends_forward() {
            proto.compose(v, u, intent.tag, &mut self.rng)
        } else {
            None
        };
        let backward = if intent.action.sends_backward() {
            proto.compose(u, v, intent.tag, &mut self.rng)
        } else {
            None
        };
        if intent.action.sends_forward() && forward.is_none() {
            stats.empty_sends += 1;
        }
        if intent.action.sends_backward() && backward.is_none() {
            stats.empty_sends += 1;
        }
        for (from, to, msg) in [(v, u, forward), (u, v, backward)] {
            let Some(msg) = msg else { continue };
            if self.config.loss_prob > 0.0 && self.rng.gen_bool(self.config.loss_prob) {
                stats.lost += 1;
                proto.discard(msg);
                continue;
            }
            proto.deliver(from, to, intent.tag, msg);
            stats.messages_delivered += 1;
        }
        refresh(proto, v, finished, incomplete);
        refresh(proto, u, finished, incomplete);
    }
}
