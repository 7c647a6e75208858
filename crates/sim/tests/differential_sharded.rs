//! Differential lock for the fan-out: a synchronous round forced over S
//! shards must produce results bit-identical to the serial round, at
//! every S.
//!
//! The reference lane is the default [`Engine`], which at these sizes
//! keeps every round serial and composes through
//! `AlgebraicGossip::compose`; the forced lanes (`with_forced_shards`, the
//! hidden test seam) with S > 1 go through the protocol's shards, so the
//! comparison also locks the shard type to the protocol it splits. Each
//! lane runs the real algebraic-gossip protocol (the dev-only dependency
//! cycle that also powers `proptest_engine_invariants`) over random
//! connected graphs, both communication models, GF(256) and GF(2) (at
//! q = 2 about half of all coefficient draws are unhelpful, so the rank
//! trace moves with any change to a compose stream), loss on/off, and
//! asserts:
//!
//! * identical [`RunStats`],
//! * an identical hash of the per-round trace (round, total rank),
//! * an identical fate for every message, the engine's `admitted` stream
//!   (a mismatch names its first diverging event),
//! * identical decoded messages on completed runs.
//!
//! A protocol that offers no shards (`Protocol::shards` is `None`) runs
//! serially whatever the seam or the sharding rule asks for, so both must
//! be inert on it: the crash wrapper lane pins that for a protocol that
//! keeps the defaults, and the unsharded lane for one that reports
//! messages big enough for the rule.
//!
//! CI runs this suite with `PROPTEST_CASES=256` under
//! `RAYON_NUM_THREADS ∈ {1, 4}`; the case count honors that env var.

use ag_gf::{Gf2, Gf256, SlabField};
use ag_graph::{builders, NodeId};
use ag_sim::{CommModel, ContactIntent, Engine, EngineConfig, Protocol};
use algebraic_gossip::{AgConfig, AlgebraicGossip, CrashPlan, Placement, WithCrashes};
use probes::{record, Recorded};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

mod probes;

#[allow(
    clippy::disallowed_methods,
    reason = "test harness: CI raises the case count through PROPTEST_CASES"
)]
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(24)
}

/// The lanes' protocol configuration: 2-symbol payloads, spread placement.
fn ag_cfg(k: usize, comm: CommModel) -> AgConfig {
    AgConfig::new(k)
        .with_payload_len(2)
        .with_comm_model(comm)
        .with_placement(Placement::Spread)
}

/// The lanes' protocol on the lanes' graph, both drawn from `proto_seed`.
fn protocol<F: SlabField>(n: usize, ag_cfg: &AgConfig, proto_seed: u64) -> AlgebraicGossip<F> {
    let mut graph_rng = StdRng::seed_from_u64(proto_seed);
    let graph = builders::erdos_renyi_connected(n, 0.4, &mut graph_rng)
        .unwrap_or_else(|_| builders::cycle(n.max(3)).unwrap());
    AlgebraicGossip::<F>::new(&graph, ag_cfg, proto_seed).expect("protocol")
}

/// The default engine, with the fan-out forced over `shards` shards if
/// given.
fn engine(cfg: EngineConfig, shards: Option<usize>) -> Engine {
    match shards {
        Some(s) => Engine::new(cfg).with_forced_shards(s),
        None => Engine::new(cfg),
    }
}

/// Runs `proto` to completion, forced over `shards` shards (`Some(s)`) or
/// left to the engine's own rule (`None`: serial at these sizes),
/// recording (round, total rank). `ag` finds the algebraic-gossip protocol
/// inside `proto`.
fn traced_run<F: SlabField, P: Protocol>(
    proto: &mut P,
    cfg: EngineConfig,
    shards: Option<usize>,
    ag: impl Fn(&P) -> &AlgebraicGossip<F>,
) -> Recorded {
    record(engine(cfg, shards), proto, |p| ag(p).total_rank() as u64)
}

/// One full run of bare algebraic gossip, which offers shards; also
/// checks the decoded messages.
fn run_lane<F: SlabField + Send>(
    n: usize,
    ag_cfg: &AgConfig,
    cfg: EngineConfig,
    proto_seed: u64,
    shards: Option<usize>,
) -> Recorded {
    let mut proto = protocol::<F>(n, ag_cfg, proto_seed);
    let lane = traced_run(&mut proto, cfg, shards, |p| p);
    if lane.stats.completed {
        for v in 0..n {
            assert_eq!(
                proto.decoded(v).expect("complete node decodes"),
                proto.generation().messages(),
                "shards = {shards:?}: node {v} decoded wrong messages"
            );
        }
    }
    lane
}

/// The same run under the crash wrapper, which offers no shards: a
/// deterministic fraction crashes at staggered wakeups.
fn run_crash_lane(
    n: usize,
    ag_cfg: &AgConfig,
    cfg: EngineConfig,
    proto_seed: u64,
    shards: Option<usize>,
) -> Recorded {
    let plan = CrashPlan::random_fraction(n, 0.2, 3, proto_seed ^ 0xDEAD);
    let mut proto = WithCrashes::new(protocol::<Gf256>(n, ag_cfg, proto_seed), plan);
    traced_run(&mut proto, cfg, shards, WithCrashes::inner)
}

/// A wrapper that forwards everything but [`Protocol::shards`] and weighs
/// every message at 2 MiB: the sharding rule asks for shards on every
/// round, and the protocol has none to give.
struct Unsharded<P>(P);

impl<P> Unsharded<P> {
    fn inner(&self) -> &P {
        &self.0
    }
}

impl<P: Protocol> Protocol for Unsharded<P> {
    type Msg = P::Msg;

    fn num_nodes(&self) -> usize {
        self.0.num_nodes()
    }

    fn on_round_start(&mut self, round: u64) {
        self.0.on_round_start(round);
    }

    fn on_wakeup(&mut self, node: NodeId, rng: &mut StdRng) -> Option<ContactIntent> {
        self.0.on_wakeup(node, rng)
    }

    fn compose(&self, from: NodeId, to: NodeId, tag: u32, rng: &mut StdRng) -> Option<P::Msg> {
        self.0.compose(from, to, tag, rng)
    }

    fn deliver(&mut self, from: NodeId, to: NodeId, tag: u32, msg: P::Msg) {
        self.0.deliver(from, to, tag, msg);
    }

    fn discard(&mut self, msg: P::Msg) {
        self.0.discard(msg);
    }

    fn msg_bytes(&self) -> usize {
        2 << 20
    }

    fn node_complete(&self, node: NodeId) -> bool {
        self.0.node_complete(node)
    }
}

/// Bare algebraic gossip behind [`Unsharded`], inside a two-thread pool so
/// the rule would shard too: it must run serially.
fn run_unsharded_lane(
    n: usize,
    ag_cfg: &AgConfig,
    cfg: EngineConfig,
    proto_seed: u64,
    shards: Option<usize>,
) -> Recorded {
    let mut proto = Unsharded(protocol::<Gf256>(n, ag_cfg, proto_seed));
    rayon::ThreadPoolBuilder::new()
        .num_threads(2)
        .build()
        .expect("local pool")
        .install(|| traced_run(&mut proto, cfg, shards, Unsharded::inner))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// The tentpole lock: every shard count reproduces the serial round
    /// bit-for-bit — stats, trace hash, admitted stream — over random
    /// graphs × both comm models × both fields × loss.
    #[test]
    fn shard_count_is_invisible(
        seed in any::<u64>(),
        n in 6usize..20,
        k in 2usize..6,
        comm_pick in 0u8..2,
        binary_field in any::<bool>(),
        lossy in any::<bool>(),
    ) {
        let comm = if comm_pick == 0 { CommModel::Uniform } else { CommModel::RoundRobin };
        let mut cfg = EngineConfig::synchronous(seed).with_max_rounds(20_000);
        if lossy {
            cfg = cfg.with_loss(0.2);
        }
        let ag = ag_cfg(k, comm);
        let lane = |shards| {
            let run = if binary_field { run_lane::<Gf2> } else { run_lane::<Gf256> };
            run(n, &ag, cfg, seed ^ 0xA6, shards)
        };
        let want = lane(None);
        for shards in [1usize, 3, 7] {
            lane(Some(shards)).assert_same_run(&want, &format!("seed {seed:#x}, {shards} shards"));
        }
    }

    /// The seam is inert on a protocol without shards: a crash-wrapped
    /// run is the same run with and without it.
    #[test]
    fn forced_shards_are_inert_without_shards(
        seed in any::<u64>(),
        n in 6usize..20,
        k in 2usize..6,
        shards in 1usize..8,
        lossy in any::<bool>(),
    ) {
        let mut cfg = EngineConfig::synchronous(seed).with_max_rounds(20_000);
        if lossy {
            cfg = cfg.with_loss(0.2);
        }
        let ag = ag_cfg(k, CommModel::Uniform);
        let lane = |shards| run_crash_lane(n, &ag, cfg, seed ^ 0xC4, shards);
        lane(Some(shards)).assert_same_run(&lane(None), &format!("seed {seed:#x}, crash lane"));
    }

    /// The serial fallback: a protocol whose messages clear the sharding
    /// rule but which offers no shards, forced over S shards or left to
    /// the rule on two threads, is the plain serial run bit for bit.
    #[test]
    fn a_protocol_without_shards_falls_back_to_the_serial_round(
        seed in any::<u64>(),
        n in 6usize..20,
        k in 2usize..6,
        shards in 2usize..8,
        lossy in any::<bool>(),
    ) {
        let mut cfg = EngineConfig::synchronous(seed).with_max_rounds(20_000);
        if lossy {
            cfg = cfg.with_loss(0.2);
        }
        let ag = ag_cfg(k, CommModel::Uniform);
        let want = run_lane::<Gf256>(n, &ag, cfg, seed ^ 0x5E, None);
        for lane in [Some(shards), None] {
            run_unsharded_lane(n, &ag, cfg, seed ^ 0x5E, lane)
                .assert_same_run(&want, &format!("seed {seed:#x}, unsharded {lane:?}"));
        }
    }
}
