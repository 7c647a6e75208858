//! Failure injection: crash-stop nodes under any protocol.
//!
//! The paper assumes fail-free execution; a practical gossip library must
//! tolerate crash-stop failures, and RLNC is naturally robust to them —
//! any `k` independent equations suffice, no matter which nodes vanish.
//! [`WithCrashes`] wraps any [`Protocol`]: crashed nodes stop initiating
//! contacts, stop responding, and drop incoming messages. Completion is
//! then defined over the *surviving* nodes. The wrapper offers no
//! [`Protocol::shards`], so the engine composes and delivers a wrapped
//! round serially, through the `compose` and `deliver` below.
//!
//! Note that survivors can only finish if the initial messages remain
//! collectively reachable: if every holder of some message crashes before
//! forwarding anything, that message is lost — exactly the real-world
//! failure mode, and the `ablation` experiment quantifies when coding
//! has already spread enough redundancy to survive it.

use ag_graph::NodeId;
use ag_sim::{ContactIntent, Protocol};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// When and which nodes crash.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashPlan {
    /// Node `v` crashes just before its `schedule[i].1`-th wakeup.
    schedule: Vec<(NodeId, u64)>,
}

impl CrashPlan {
    /// An explicit plan: each `(node, wakeup)` pair crashes `node` at its
    /// `wakeup`-th wakeup (1-based; 1 = crashed from the very start).
    #[must_use]
    pub fn explicit(schedule: Vec<(NodeId, u64)>) -> Self {
        CrashPlan { schedule }
    }

    /// Crashes each node independently with probability `fraction`, all at
    /// the given wakeup count. Deterministic in `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is not in `[0, 1]`.
    #[must_use]
    pub fn random_fraction(n: usize, fraction: f64, at_wakeup: u64, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "crash fraction must be in [0,1]"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let schedule = (0..n)
            .filter(|_| rng.gen_bool(fraction))
            .map(|v| (v, at_wakeup))
            .collect();
        CrashPlan { schedule }
    }

    /// Number of scheduled crashes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.schedule.len()
    }

    /// True when no crash is scheduled.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.schedule.is_empty()
    }
}

/// Wraps a protocol with crash-stop failure injection.
///
/// # Examples
///
/// ```
/// use ag_gf::Gf256;
/// use ag_graph::builders;
/// use ag_sim::{Engine, EngineConfig};
/// use algebraic_gossip::{AgConfig, AlgebraicGossip, CrashPlan, WithCrashes};
///
/// let g = builders::complete(10).unwrap();
/// let inner = AlgebraicGossip::<Gf256>::new(&g, &AgConfig::new(5), 3).unwrap();
/// // Node 7 crashes at its 4th wakeup.
/// let mut proto = WithCrashes::new(inner, CrashPlan::explicit(vec![(7, 4)]));
/// let stats = Engine::new(EngineConfig::synchronous(3).with_max_rounds(100_000))
///     .run(&mut proto);
/// assert!(stats.completed); // the 9 survivors all decode
/// assert!(proto.is_crashed(7));
/// ```
#[derive(Debug, Clone)]
pub struct WithCrashes<P> {
    inner: P,
    crash_at: Vec<Option<u64>>,
    wakeups: Vec<u64>,
    crashed: Vec<bool>,
}

impl<P: Protocol> WithCrashes<P> {
    /// Wraps `inner` with the given crash plan.
    ///
    /// # Panics
    ///
    /// Panics if the plan names a node outside `0..inner.num_nodes()` or
    /// schedules a node twice.
    #[must_use]
    pub fn new(inner: P, plan: CrashPlan) -> Self {
        let n = inner.num_nodes();
        let mut crash_at = vec![None; n];
        let mut crashed = vec![false; n];
        for &(v, at) in &plan.schedule {
            assert!(v < n, "crash plan names node {v} out of {n}");
            assert!(crash_at[v].is_none(), "node {v} scheduled to crash twice");
            crash_at[v] = Some(at);
            // "Crashed from the very start" means exactly that: a node
            // scheduled at (or before) its 1st wakeup must already be dead
            // at construction. Deferring the flag to the first wakeup (as
            // an earlier version did) let such a node answer `compose` and
            // accept `deliver` in the asynchronous model until its wakeup
            // slot happened to be drawn.
            if at <= 1 {
                crashed[v] = true;
            }
        }
        WithCrashes {
            inner,
            crash_at,
            wakeups: vec![0; n],
            crashed,
        }
    }

    /// The wrapped protocol.
    #[must_use]
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Has `v` crashed yet?
    #[must_use]
    pub fn is_crashed(&self, v: NodeId) -> bool {
        self.crashed[v]
    }

    /// Number of nodes currently crashed.
    #[must_use]
    pub fn crashed_count(&self) -> usize {
        self.crashed.iter().filter(|&&c| c).count()
    }

    /// Nodes that are still alive.
    #[must_use]
    pub fn survivors(&self) -> Vec<NodeId> {
        (0..self.inner.num_nodes())
            .filter(|&v| !self.crashed[v])
            .collect()
    }
}

impl<P: Protocol> Protocol for WithCrashes<P> {
    type Msg = P::Msg;

    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }

    fn on_round_start(&mut self, round: u64) {
        // Forward so a dynamic inner topology keeps advancing — crashes
        // kill nodes, not the network's own evolution.
        self.inner.on_round_start(round);
    }

    fn on_wakeup(&mut self, node: NodeId, rng: &mut StdRng) -> Option<ContactIntent> {
        if self.crashed[node] {
            return None;
        }
        self.wakeups[node] += 1;
        if let Some(at) = self.crash_at[node] {
            if self.wakeups[node] >= at {
                self.crashed[node] = true;
                return None;
            }
        }
        self.inner.on_wakeup(node, rng)
    }

    fn compose(&self, from: NodeId, to: NodeId, tag: u32, rng: &mut StdRng) -> Option<P::Msg> {
        if self.crashed[from] {
            return None; // a dead node does not respond
        }
        self.inner.compose(from, to, tag, rng)
    }

    fn deliver(&mut self, from: NodeId, to: NodeId, tag: u32, msg: P::Msg) {
        if self.crashed[to] {
            // Messages to the dead are dropped, through the inner
            // protocol's `discard` like every other undelivered message.
            self.inner.discard(msg);
            return;
        }
        self.inner.deliver(from, to, tag, msg);
    }

    fn discard(&mut self, msg: P::Msg) {
        // Forward the engine's dedup/loss drops: the inner protocol sees
        // every fate it would see unwrapped.
        self.inner.discard(msg);
    }

    fn node_complete(&self, node: NodeId) -> bool {
        // Completion is over the survivors: crashed nodes are excused.
        self.crashed[node] || self.inner.node_complete(node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ag::{AgConfig, AlgebraicGossip};
    use crate::placement::Placement;
    use ag_gf::Gf256;
    use ag_graph::builders;
    use ag_sim::{Engine, EngineConfig};

    #[test]
    fn survivors_decode_despite_crashes() {
        let g = builders::complete(12).unwrap();
        let inner =
            AlgebraicGossip::<Gf256>::new(&g, &AgConfig::new(6).with_payload_len(1), 7).unwrap();
        // A quarter of the nodes crash early (but after round 2, by which
        // time every message has been forwarded at least once w.h.p.).
        let plan = CrashPlan::explicit(vec![(1, 3), (5, 3), (9, 3)]);
        let mut proto = WithCrashes::new(inner, plan);
        let stats =
            Engine::new(EngineConfig::synchronous(7).with_max_rounds(200_000)).run(&mut proto);
        assert!(stats.completed);
        assert_eq!(proto.crashed_count(), 3);
        for v in proto.survivors() {
            assert_eq!(
                proto.inner().decoded(v).unwrap(),
                proto.inner().generation().messages(),
                "survivor {v} failed to decode"
            );
        }
    }

    #[test]
    fn crash_from_start_isolates_node() {
        // k = 3 messages live at nodes 0, 1, 2 (spread placement); node 5
        // holds nothing, so crashing it from the start loses no data.
        let g = builders::complete(6).unwrap();
        let inner = AlgebraicGossip::<Gf256>::new(&g, &AgConfig::new(3), 2).unwrap();
        let mut proto = WithCrashes::new(inner, CrashPlan::explicit(vec![(5, 1)]));
        let stats =
            Engine::new(EngineConfig::synchronous(2).with_max_rounds(100_000)).run(&mut proto);
        assert!(stats.completed);
        assert!(proto.is_crashed(5));
        // The crashed node never gained any rank: it was dead on arrival.
        assert_eq!(proto.inner().rank(5), 0);
    }

    #[test]
    fn losing_every_holder_stalls_the_run() {
        // The only holder of all messages crashes before its 1st wakeup
        // AND before anyone contacts it: information is gone.
        let g = builders::path(4).unwrap();
        let cfg = AgConfig::new(2).with_placement(Placement::SingleSource(3));
        let inner = AlgebraicGossip::<Gf256>::new(&g, &cfg, 3).unwrap();
        let mut proto = WithCrashes::new(inner, CrashPlan::explicit(vec![(3, 1)]));
        let stats = Engine::new(EngineConfig::synchronous(3).with_max_rounds(500)).run(&mut proto);
        assert!(
            !stats.completed,
            "messages were lost; survivors cannot finish"
        );
    }

    /// Regression for the dead-on-arrival bug: under the asynchronous
    /// model a node scheduled with `at_wakeup = 1` used to answer
    /// `compose` and accept `deliver` until its own wakeup slot was first
    /// drawn. It must be dead from timeslot 0.
    #[test]
    fn dead_on_arrival_node_is_silent_in_async_model() {
        // The sole holder of the lone message is dead on arrival: nothing
        // can ever spread, under any seed. Before the fix, neighbors
        // pulled coded packets out of the "dead" node via EXCHANGE until
        // its first wakeup fired, so other ranks grew.
        let g = builders::path(4).unwrap();
        let cfg = AgConfig::new(2).with_placement(Placement::SingleSource(1));
        for seed in 0..16u64 {
            let inner = AlgebraicGossip::<Gf256>::new(&g, &cfg, seed).unwrap();
            let mut proto = WithCrashes::new(inner, CrashPlan::explicit(vec![(1, 1)]));
            assert!(proto.is_crashed(1), "DOA node must be dead at construction");
            let stats =
                Engine::new(EngineConfig::asynchronous(seed).with_max_rounds(50)).run(&mut proto);
            assert!(!stats.completed, "seed {seed}: information was conjured");
            for v in [0, 2, 3] {
                assert_eq!(
                    proto.inner().rank(v),
                    0,
                    "seed {seed}: node {v} heard from the dead"
                );
            }
        }
    }

    /// Dead-on-arrival nodes also never *receive* in the async model: a
    /// DOA sink's rank stays at its seeded value.
    #[test]
    fn dead_on_arrival_node_never_gains_rank_async() {
        let g = builders::complete(6).unwrap();
        let cfg = AgConfig::new(3);
        for seed in 0..8u64 {
            let inner = AlgebraicGossip::<Gf256>::new(&g, &cfg, seed).unwrap();
            let doa = 5; // spread placement on k=3 seeds nodes 0, 1, 2
            let seeded_rank = inner.rank(doa);
            let mut proto = WithCrashes::new(inner, CrashPlan::explicit(vec![(doa, 1)]));
            let _ =
                Engine::new(EngineConfig::asynchronous(seed).with_max_rounds(200)).run(&mut proto);
            assert_eq!(
                proto.inner().rank(doa),
                seeded_rank,
                "seed {seed}: dead node accepted deliveries"
            );
        }
    }

    /// Crashes and loss together, under both time models: dedup and loss
    /// drops (engine → `discard`) and deliveries to crashed nodes all
    /// settle a message without delivering it, and the survivors still
    /// finish and decode.
    #[test]
    fn crash_and_loss_run_completes_in_both_time_models() {
        let g = builders::complete(12).unwrap();
        let cfg = AgConfig::new(6).with_payload_len(4);
        for (sync, seed) in [(true, 3u64), (false, 4u64)] {
            let inner = AlgebraicGossip::<Gf256>::new(&g, &cfg, seed).unwrap();
            // Crash only nodes that hold no initial message (spread
            // placement seeds 0..6), so the survivors can still finish.
            let plan = CrashPlan::explicit(vec![(7, 1), (8, 2), (9, 4)]);
            let mut proto = WithCrashes::new(inner, plan);
            let ecfg = if sync {
                EngineConfig::synchronous(seed)
            } else {
                EngineConfig::asynchronous(seed)
            }
            .with_loss(0.3)
            .with_max_rounds(200_000);
            let stats = Engine::new(ecfg).run(&mut proto);
            assert!(stats.completed, "sync={sync}: survivors must finish");
            assert!(stats.lost > 0, "sync={sync}: loss never fired");
            for v in proto.survivors() {
                assert_eq!(
                    proto.inner().decoded(v).as_deref(),
                    Some(proto.inner().generation().messages()),
                    "sync={sync}: survivor {v} decoded wrong bytes"
                );
            }
        }
    }

    /// Crash-then-rewire recovery: crashing the star hub strands every
    /// leaf on the static graph, but the same crash under rewiring churn
    /// heals the topology around the dead hub and the survivors finish —
    /// the dynamic-scenario counterpart of RLNC's crash robustness.
    #[test]
    fn rewire_churn_recovers_from_a_hub_crash() {
        use ag_graph::{ChurnSchedule, ScheduledTopology};
        let g = builders::star(10).unwrap();
        let cfg = AgConfig::new(3).with_placement(Placement::SingleSource(0));
        let seed = 6;
        // The hub (the single source) answers exactly one round — each
        // leaf ends round 1 with one random combo (rank 1 < k = 3), and
        // the 9 combos collectively span the whole generation w.h.p. —
        // then it dies. Statically the leaves are mutually unreachable.
        let plan = CrashPlan::explicit(vec![(0, 2)]);
        let inner = AlgebraicGossip::<Gf256>::new(&g, &cfg, seed).unwrap();
        let mut static_run = WithCrashes::new(inner, plan.clone());
        let s_static = Engine::new(EngineConfig::synchronous(seed).with_max_rounds(3_000))
            .run(&mut static_run);
        assert!(
            !s_static.completed,
            "static star with a dead hub must stall"
        );
        let topo = ScheduledTopology::new(&g, ChurnSchedule::rewire(0.2, 99));
        let inner = AlgebraicGossip::<Gf256, _>::on_topology(topo, &cfg, seed).unwrap();
        let mut dynamic_run = WithCrashes::new(inner, plan);
        let s_dynamic = Engine::new(EngineConfig::synchronous(seed).with_max_rounds(3_000))
            .run(&mut dynamic_run);
        assert!(
            s_dynamic.completed,
            "rewiring should reconnect the survivors"
        );
    }

    #[test]
    fn random_fraction_is_deterministic_and_bounded() {
        let a = CrashPlan::random_fraction(100, 0.3, 5, 42);
        let b = CrashPlan::random_fraction(100, 0.3, 5, 42);
        assert_eq!(a, b);
        assert!(a.len() > 10 && a.len() < 60, "got {} crashes", a.len());
        assert!(CrashPlan::random_fraction(50, 0.0, 1, 0).is_empty());
        assert_eq!(CrashPlan::random_fraction(50, 1.0, 1, 0).len(), 50);
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn plan_validates_node_range() {
        let g = builders::path(3).unwrap();
        let inner = AlgebraicGossip::<Gf256>::new(&g, &AgConfig::new(1), 0).unwrap();
        let _ = WithCrashes::new(inner, CrashPlan::explicit(vec![(99, 1)]));
    }

    #[test]
    #[should_panic(expected = "twice")]
    fn plan_rejects_duplicates() {
        let g = builders::path(3).unwrap();
        let inner = AlgebraicGossip::<Gf256>::new(&g, &AgConfig::new(1), 0).unwrap();
        let _ = WithCrashes::new(inner, CrashPlan::explicit(vec![(1, 1), (1, 2)]));
    }
}
