//! The sharded phases of the synchronous round: compose and deliver on
//! the rayon pool, around the engine's one merge walk.
//!
//! # When a round is sharded
//!
//! A protocol offers shards through [`Protocol::shards`] and says what a
//! message weighs through [`Protocol::msg_bytes`]. The default
//! [`crate::Engine`] then decides round by round: a round is sharded when
//! it moves at least `FAN_OUT_MIN_ROUND_BYTES` (planned slots × bytes per
//! message) and the rayon pool has more than one thread, over
//! `SHARDS_PER_THREAD` shards per thread. Any other round, every round of
//! a protocol whose `shards` is `None`, and every round whose shard list
//! does not match the ranges one to one, is composed and delivered
//! serially; the fan-out's scratch is allocated by the first sharded round
//! only. Tests force the shard count instead, on every round, through the
//! hidden `Engine::with_forced_shards` seam.
//!
//! # Determinism contract
//!
//! A sharded round is the same round as a serial one: the round body in
//! the `engine` module, whose one merge walk settles every slot serially
//! on the main engine RNG. Only *where* the two data-parallel phases run
//! changes: the node set is partitioned into contiguous shards, message
//! *composition* is grouped by sender shard, the merge queues each
//! survivor on its receiver's shard ([`FanOut::queue`]) instead of
//! delivering it, and both phases fan out over rayon workers.
//!
//! Every composition slot draws from its own RNG, a pure function of
//! `(seed, round, slot)`, so a message's randomness does not depend on
//! which worker composed it, when, or on how many workers exist. The merge
//! takes the slots in ascending order whoever composed them, so every
//! receiver's queue, and so every receiver, sees its messages in that same
//! order.
//!
//! Within a shard the work is ordered node by node: a worker composes all
//! of one sender's messages back to back, and applies all of one
//! receiver's. A node's rows are then read from memory once per phase
//! instead of once per message, which on the payload-bearing benchmark
//! shape is worth about as much again as the second thread.
//!
//! Consequently the output is **bit-identical to the serial round at
//! every shard count and thread count**, for every protocol whose shards
//! compose and deliver what the protocol itself would:
//! `differential_sharded`, the golden trajectory, `thread_invisibility`
//! and the unit tests below assert serial ≡ S shards.
//!
//! A shard owns nothing when its phase ends: the engine drops it, and what
//! a message refers to (algebraic gossip's rows) stays with the protocol,
//! which rewinds it at the next round start.
//!
//! The asynchronous time model wakes one node per timeslot with immediate
//! delivery — inherently sequential — so it never fans out.

use ag_graph::NodeId;
use rayon::prelude::*;

use crate::engine::{planned, slot_rng, Planned};
use crate::protocol::{ContactIntent, Protocol, ProtocolShard};

/// One queued survivor: `(from, to, tag, msg)`.
type Delivery<M> = (NodeId, NodeId, u32, M);

/// A round is sharded only if it moves at least this many bytes (planned
/// slots × bytes per message). On the measured ladder (CHANGES.md, PR 14)
/// every shape from 2 MiB up wins 14–43 % of its wall time on 2 threads
/// for 2–3 % more peak memory. Below it the picture is mixed: at half a
/// MiB a small graph loses 30 % to the two thread fan-outs a round pays,
/// and rank-only rounds, which move few bytes per node, would pay for the
/// fan-out's per-node scratch with 15–77 % of their peak memory.
const FAN_OUT_MIN_ROUND_BYTES: usize = 2 << 20;

/// Shards per rayon thread of a sharded round: enough that the shared
/// work queue evens out shards of unequal rank, few enough that a shard
/// amortises its setup. The ladder is flat from 2 to 64 shards on 2
/// threads and slower from 256 up.
const SHARDS_PER_THREAD: usize = 8;

/// The shard count of a round with these intents, in `[1, n]`, 1 meaning
/// serial: the count a test forced, else the rule in the module docs. The
/// byte test comes first: it is the one most rounds fail, and it reads
/// nothing but the intents.
pub(crate) fn shard_count(
    intents: &[Option<ContactIntent>],
    msg_bytes: usize,
    forced: Option<usize>,
) -> usize {
    let n = intents.len();
    if let Some(shards) = forced {
        return shards.clamp(1, n);
    }
    if planned(intents).count().saturating_mul(msg_bytes) < FAN_OUT_MIN_ROUND_BYTES {
        return 1;
    }
    let threads = rayon::current_num_threads();
    if threads > 1 {
        (threads * SHARDS_PER_THREAD).min(n)
    } else {
        1
    }
}

#[cfg(test)]
thread_local! {
    /// How many times this thread allocated a [`FanOut`]: lets the tests
    /// assert that a serial run never touches the fan-out's scratch.
    static FAN_OUT_ALLOCATIONS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// The fan-out's partition plus per-round scratch, allocated by the first
/// sharded round of a run and reused by every later one: a sharded round
/// allocates per shard (the shards themselves and the job list), never per
/// message.
#[derive(Debug)]
pub(crate) struct FanOut<M> {
    /// `bounds[s] = (start, end)`: shard `s`'s contiguous node range.
    bounds: Vec<(usize, usize)>,
    /// `node_shard[v]`: the shard owning node `v`.
    node_shard: Vec<usize>,
    /// What each shard will compose (all 0 to deliver), for
    /// [`Protocol::shards`].
    send_counts: Vec<usize>,
    /// Each shard's lists, lent to its worker.
    lists: Vec<ShardLists<M>>,
}

/// One shard's per-round lists, reused across rounds: the slots it
/// composes, each entry carrying its own result, and the merged survivors
/// it receives, in slot order.
type ShardLists<M> = (Vec<(Planned, Option<M>)>, Vec<Delivery<M>>);

impl<M: Send> FanOut<M> {
    /// The partition of `n` nodes into `shards` contiguous ranges
    /// (`shards` in `[1, n]`).
    pub(crate) fn new(n: usize, shards: usize) -> Self {
        #[cfg(test)]
        FAN_OUT_ALLOCATIONS.with(|c| c.set(c.get() + 1));
        let bounds: Vec<(usize, usize)> = (0..shards)
            .map(|s| (s * n / shards, (s + 1) * n / shards))
            .collect();
        let mut node_shard = vec![0; n];
        for (s, &(start, end)) in bounds.iter().enumerate() {
            node_shard[start..end].fill(s);
        }
        FanOut {
            send_counts: Vec::with_capacity(shards),
            lists: bounds.iter().map(|_| (Vec::new(), Vec::new())).collect(),
            bounds,
            node_shard,
        }
    }

    /// Parallel compose: groups the round's slots by sender shard, lets
    /// each shard compose its list, sender by sender, with per-slot RNGs,
    /// and files the results in `table` by slot. Returns `false`, with
    /// `table` untouched, if the protocol offers no shards or not exactly
    /// one per range.
    pub(crate) fn compose<P: Protocol<Msg = M>>(
        &mut self,
        proto: &mut P,
        intents: &[Option<ContactIntent>],
        table: &mut [Option<M>],
        seed: u64,
        round: u64,
    ) -> bool {
        for (worklist, _) in &mut self.lists {
            worklist.clear();
        }
        for planned @ (_, from, ..) in planned(intents) {
            self.lists[self.node_shard[from]].0.push((planned, None));
        }
        self.send_counts.clear();
        self.send_counts
            .extend(self.lists.iter().map(|(w, _)| w.len()));
        // ag-lint: sharded-phase(begin) — only per-slot-keyed RNGs below
        let sharded = self.run_shards(proto, |shard, (worklist, _)| {
            // Sender-major: a node's messages (its own and its replies to
            // whoever contacted it) are composed back to back, so all but
            // the first find its rows in cache. Any order is the same
            // round: each slot has its own RNG.
            worklist.sort_unstable_by_key(|&((slot, from, ..), _)| (from, slot));
            for ((slot, from, to, tag), msg) in worklist.iter_mut() {
                let mut slot_rng = slot_rng(seed, round, *slot);
                *msg = shard.compose(*from, *to, *tag, &mut slot_rng);
            }
        });
        // ag-lint: sharded-phase(end)
        if sharded {
            for ((slot, ..), msg) in self.lists.iter_mut().flat_map(|(w, _)| w.drain(..)) {
                table[slot] = msg;
            }
        }
        sharded
    }

    /// Queues a merged survivor on its receiver's shard; the merge calls
    /// this in slot order.
    pub(crate) fn queue(&mut self, from: NodeId, to: NodeId, tag: u32, msg: M) {
        self.lists[self.node_shard[to]].1.push((from, to, tag, msg));
    }

    /// Parallel delivery: lets each shard apply its queue receiver by
    /// receiver. If the protocol offers no shards, or not exactly one per
    /// range, the queues are drained serially instead.
    pub(crate) fn deliver<P: Protocol<Msg = M>>(&mut self, proto: &mut P) {
        self.send_counts.fill(0);
        // ag-lint: sharded-phase(begin) — delivery draws no randomness
        let sharded = self.run_shards(proto, |shard, (_, queue)| {
            // Receiver-major, for the same reason; the sort is stable, so
            // each receiver still sees its messages in slot order.
            queue.sort_by_key(|&(_, to, ..)| to);
            for (from, to, tag, msg) in queue.drain(..) {
                shard.deliver(from, to, tag, msg);
            }
        });
        // ag-lint: sharded-phase(end)
        if !sharded {
            for (from, to, tag, msg) in self.lists.iter_mut().flat_map(|(_, q)| q.drain(..)) {
                proto.deliver(from, to, tag, msg);
            }
        }
    }

    /// Runs `work` on every shard of `proto` with that shard's own lists,
    /// on the rayon pool. Returns `false`, having run nothing, if the
    /// protocol offers no shards or not exactly one per range.
    fn run_shards<P: Protocol<Msg = M>>(
        &mut self,
        proto: &mut P,
        work: impl Fn(&mut dyn ProtocolShard<Msg = M>, &mut ShardLists<M>) + Sync,
    ) -> bool {
        let Some(shards) = proto.shards(&self.bounds, &self.send_counts) else {
            return false;
        };
        if shards.len() != self.lists.len() {
            return false;
        }
        let jobs: Vec<_> = shards.into_iter().zip(&mut self.lists).collect();
        jobs.into_par_iter()
            .for_each(|(mut shard, lists)| work(&mut *shard, lists));
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, EngineConfig};
    use crate::protocol::Action;
    use crate::stats::RunStats;
    use rand::rngs::StdRng;
    use rand::Rng;

    /// The default engine with the fan-out forced over `shards` shards.
    fn forced(cfg: EngineConfig, shards: usize) -> Engine {
        Engine::new(cfg).with_forced_shards(shards)
    }

    /// A randomized exchange protocol exercising every seam the merge has
    /// to keep deterministic: random partners (wakeup RNG), random
    /// message content (compose RNG), EXCHANGE contacts (dedup pairs),
    /// and empty sends via an emit budget.
    struct NoisyExchange {
        values: Vec<u64>,
        /// Compose returns None once a node's value exceeds this (so the
        /// empty-send path runs).
        saturation: u64,
        /// What `msg_bytes` tells the sharding rule one message weighs;
        /// 0 keeps the default engine serial.
        msg_bytes: usize,
        /// `short[phase]`: `shards` returns one shard too few in that
        /// phase (0 compose, 1 delivery), breaking its contract.
        short: [bool; 2],
    }

    impl NoisyExchange {
        fn new(n: usize) -> Self {
            NoisyExchange {
                values: (0..n as u64).collect(),
                saturation: u64::MAX,
                msg_bytes: 0,
                short: [false; 2],
            }
        }

        fn target(&self) -> u64 {
            // Sum high-water mark every node must reach.
            1_000
        }
    }

    impl Protocol for NoisyExchange {
        type Msg = u64;

        fn num_nodes(&self) -> usize {
            self.values.len()
        }

        fn on_wakeup(&mut self, node: NodeId, rng: &mut StdRng) -> Option<ContactIntent> {
            let n = self.values.len();
            let offset = rng.gen_range(1..n);
            Some(ContactIntent {
                partner: (node + offset) % n,
                action: Action::Exchange,
                tag: 0,
            })
        }

        fn compose(&self, from: NodeId, _to: NodeId, _tag: u32, rng: &mut StdRng) -> Option<u64> {
            if self.values[from] > self.saturation {
                return None;
            }
            Some(self.values[from].wrapping_add(rng.gen_range(0..64)))
        }

        fn deliver(&mut self, _from: NodeId, to: NodeId, _tag: u32, msg: u64) {
            self.values[to] = self.values[to].max(msg).wrapping_add(1);
        }

        fn msg_bytes(&self) -> usize {
            self.msg_bytes
        }

        fn shards(
            &mut self,
            bounds: &[(usize, usize)],
            send_counts: &[usize],
        ) -> Option<Vec<Box<dyn ProtocolShard<Msg = u64> + '_>>> {
            // Every round plans 2n slots, so only delivery asks for none.
            let phase = usize::from(send_counts.iter().all(|&c| c == 0));
            let short = self.short[phase];
            let saturation = self.saturation;
            let mut rest: &mut [u64] = &mut self.values;
            let mut taken = 0;
            let mut shards: Vec<Box<dyn ProtocolShard<Msg = u64> + '_>> = Vec::new();
            for &(start, end) in bounds {
                assert_eq!(start, taken, "bounds must be contiguous");
                let (head, tail) = rest.split_at_mut(end - start);
                shards.push(Box::new(NoisyShard {
                    values: head,
                    start,
                    saturation,
                }));
                rest = tail;
                taken = end;
            }
            if short {
                shards.pop();
            }
            Some(shards)
        }

        fn node_complete(&self, node: NodeId) -> bool {
            self.values[node] >= self.target()
        }
    }

    struct NoisyShard<'a> {
        values: &'a mut [u64],
        start: usize,
        saturation: u64,
    }

    impl ProtocolShard for NoisyShard<'_> {
        type Msg = u64;

        fn compose(
            &mut self,
            from: NodeId,
            _to: NodeId,
            _tag: u32,
            rng: &mut StdRng,
        ) -> Option<u64> {
            let v = self.values[from - self.start];
            if v > self.saturation {
                return None;
            }
            Some(v.wrapping_add(rng.gen_range(0..64)))
        }

        fn deliver(&mut self, _from: NodeId, to: NodeId, _tag: u32, msg: u64) {
            let v = &mut self.values[to - self.start];
            *v = (*v).max(msg).wrapping_add(1);
        }
    }

    #[test]
    fn noisy_protocol_matches_serial_engine_exactly() {
        // Random partners (main RNG) + random payload contents (per-slot
        // RNGs) + exchange dedup + loss: the full merge surface. The
        // serial round and every forced shard count (0 clamps to 1, 64 to
        // n) agree on stats and state.
        let cfg = lossy_cfg();
        let mut serial = NoisyExchange::new(23);
        let want = Engine::new(cfg).run(&mut serial);
        assert!(want.completed);
        assert!(want.dedup_dropped > 0, "dedup must be exercised");
        assert!(want.lost > 0, "loss must be exercised");
        for shards in [0, 1, 2, 3, 7, 23, 64] {
            let mut proto = NoisyExchange::new(23);
            let got = forced(cfg, shards).run(&mut proto);
            assert_eq!(got, want, "shards = {shards}");
            assert_eq!(proto.values, serial.values, "shards = {shards}");
        }
    }

    #[test]
    fn a_short_shard_list_runs_its_phase_serially() {
        // A `shards` that returns fewer shards than ranges must not count
        // the missing ranges' slots as empty sends, nor strand the
        // messages queued for them: the phase runs serially instead.
        let cfg = lossy_cfg();
        let mut serial = NoisyExchange::new(23);
        let want = Engine::new(cfg).run(&mut serial);
        for short in [[true, true], [true, false], [false, true]] {
            for shards in [2, 5] {
                let mut proto = NoisyExchange::new(23);
                proto.short = short;
                let got = forced(cfg, shards).run(&mut proto);
                assert_eq!(got, want, "short = {short:?}, shards = {shards}");
                assert_eq!(proto.values, serial.values, "short = {short:?}");
            }
        }
    }

    fn lossy_cfg() -> EngineConfig {
        EngineConfig::synchronous(0xD15EA5E)
            .with_loss(0.1)
            .with_max_rounds(400)
    }

    /// One default-engine run of the shard-offering protocol inside a
    /// local pool: how many times it allocated the fan-out's scratch, and
    /// what it computed.
    fn engine_run(threads: usize, msg_bytes: usize) -> (usize, RunStats, Vec<u64>) {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("local pool");
        pool.install(|| {
            let mut proto = NoisyExchange::new(23);
            proto.msg_bytes = msg_bytes;
            let before = FAN_OUT_ALLOCATIONS.with(std::cell::Cell::get);
            let stats = Engine::new(lossy_cfg()).run(&mut proto);
            let allocated = FAN_OUT_ALLOCATIONS.with(std::cell::Cell::get) - before;
            (allocated, stats, proto.values)
        })
    }

    #[test]
    fn default_engine_fans_out_by_the_rule_and_allocates_scratch_only_then() {
        // 23 nodes, all EXCHANGE: 46 planned slots every round.
        let at_rule = FAN_OUT_MIN_ROUND_BYTES.div_ceil(46);
        let (allocated, want_stats, want_values) = engine_run(1, at_rule);
        assert_eq!(allocated, 0, "one thread: serial whatever the round moves");
        assert!(want_stats.completed && want_stats.rounds > 1);
        for (threads, msg_bytes, want_allocated) in [
            // Below the rule the fan-out's scratch is never touched…
            (2, 0, 0),
            (2, at_rule - 1, 0),
            (4, at_rule - 1, 0),
            // …at it, the first sharded round allocates it, once per run.
            (2, at_rule, 1),
            (4, at_rule, 1),
        ] {
            let (allocated, stats, values) = engine_run(threads, msg_bytes);
            let lane = format!("{threads} threads, {msg_bytes} B/message");
            assert_eq!(allocated, want_allocated, "{lane}");
            assert_eq!(stats, want_stats, "{lane}");
            assert_eq!(values, want_values, "{lane}");
        }
        // The forced fan-out agrees, and needs no second thread.
        let mut proto = NoisyExchange::new(23);
        assert_eq!(forced(lossy_cfg(), 5).run(&mut proto), want_stats);
        assert_eq!(proto.values, want_values);
    }

    #[test]
    fn observed_traces_match_across_shard_counts() {
        let trace = |shards: usize| {
            let cfg = EngineConfig::synchronous(7).with_max_rounds(300);
            let mut proto = NoisyExchange::new(11);
            let mut rounds = Vec::new();
            let stats = forced(cfg, shards).run_observed(&mut proto, |round, p| {
                rounds.push((round, p.values.iter().sum::<u64>()));
            });
            (stats, rounds)
        };
        let want = trace(1);
        assert!(want.0.completed);
        for shards in [2, 5] {
            assert_eq!(trace(shards), want, "shards = {shards}");
        }
    }

    #[test]
    fn empty_sends_are_counted_once_per_silent_direction() {
        // Saturated nodes stop composing; a sharded round must count
        // those the way the serial merge would.
        let run = |shards: usize| {
            let cfg = EngineConfig::synchronous(3).with_max_rounds(50);
            let mut proto = NoisyExchange::new(9);
            proto.saturation = 40;
            let stats = forced(cfg, shards).run(&mut proto);
            (stats, proto.values)
        };
        let want = run(1);
        assert!(
            want.0.empty_sends > 0,
            "saturation must trigger empty sends"
        );
        for shards in [2, 4] {
            assert_eq!(run(shards), want, "shards = {shards}");
        }
    }

    #[test]
    fn async_model_never_fans_out() {
        let cfg = EngineConfig::asynchronous(5).with_max_rounds(400);
        let mut serial = NoisyExchange::new(8);
        let want = Engine::new(cfg).run(&mut serial);
        assert!(want.completed);
        let mut proto = NoisyExchange::new(8);
        let before = FAN_OUT_ALLOCATIONS.with(std::cell::Cell::get);
        let got = forced(cfg, 4).run(&mut proto);
        assert_eq!(FAN_OUT_ALLOCATIONS.with(std::cell::Cell::get), before);
        assert_eq!(got, want);
        assert_eq!(proto.values, serial.values);
    }

    #[test]
    fn run_batch_and_run_observed_agree() {
        let cfg = EngineConfig::synchronous(5).with_max_rounds(200);
        let batch = forced(cfg, 3).run_batch(&mut NoisyExchange::new(10));
        let observed = forced(cfg, 3).run_observed(&mut NoisyExchange::new(10), |_, _| {});
        assert_eq!(batch, observed);
    }

    #[test]
    fn already_complete_protocol_runs_zero_rounds() {
        let mut proto = NoisyExchange::new(4);
        let target = proto.target();
        proto.values.fill(target);
        let stats = forced(EngineConfig::synchronous(0), 4).run(&mut proto);
        assert!(stats.completed);
        assert_eq!(stats.rounds, 0);
    }
}
