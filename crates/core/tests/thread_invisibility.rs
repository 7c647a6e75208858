//! The default engine picks a round's shard count from the rayon thread
//! count and the bytes the round moves; none of that may be visible in a
//! result.
//!
//! Every lane here runs real algebraic gossip at a size *above* the
//! fan-out's byte rule, through the default entry points
//! (`Engine::run_observed`, `TrialPlan::run`) and inside local rayon pools:
//! one thread keeps every round serial, two and four shard it over 16
//! and 32 shards. All lanes must agree on the whole [`RunStats`], the
//! per-round trajectory hash and the decoded bytes.
//!
//! CI re-runs this file under `RAYON_NUM_THREADS ∈ {1, 4}`: the local
//! pools make the lanes independent of it, so it varies only what runs
//! outside them (the ambient `TrialPlan::run` lane).

use ag_gf::{Gf2, Gf256, SlabField};
use ag_graph::{builders, Graph, NodeId};
use ag_sim::{ContactIntent, Engine, EngineConfig, Protocol, RunStats, TrajectoryHash};
use algebraic_gossip::{AgConfig, AlgebraicGossip, Placement, ProtocolKind, RunSpec, TrialPlan};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The shape every lane runs: 2 · 360 planned slots of 3003-byte rows is
/// 2.06 MiB a round, just above the 2 MiB from which the engine fans out.
const N: usize = 360;
const K: usize = 3;
const PAYLOAD: usize = 3000;
const FAN_OUT_FROM_BYTES: usize = 2 << 20;

fn graph() -> Graph {
    builders::random_regular(N, 3, &mut StdRng::seed_from_u64(0x7E57)).expect("rr(3)")
}

fn ag_config() -> AgConfig {
    AgConfig::new(K)
        .with_payload_len(PAYLOAD)
        .with_placement(Placement::Spread)
}

fn in_pool<R: Send>(threads: usize, op: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("local pool")
        .install(op)
}

/// Forwards every required `Protocol` method, the round-start hook and
/// `discard`, and leaves `msg_bytes` and `shards` at their defaults: the
/// shape of the benchmark's `Traced` wrapper.
struct Forwarding<P>(P);

impl<P: Protocol> Protocol for Forwarding<P> {
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

    fn node_complete(&self, node: NodeId) -> bool {
        self.0.node_complete(node)
    }
}

/// One observed run on the default engine, lossy and with dedup on,
/// inside a pool of `threads`: the stats and the per-round (round, total
/// rank) hash. `wrapped` runs it through [`Forwarding`]. Checks every
/// node's decoded bytes.
fn lane<F: SlabField>(graph: &Graph, threads: usize, wrapped: bool) -> (RunStats, u64) {
    in_pool(threads, || {
        let mut proto = AlgebraicGossip::<F>::new(graph, &ag_config(), 0xA6).expect("protocol");
        // The precondition the file is named for: at this size the rule
        // asks for the fan-out.
        assert!(
            2 * N * proto.msg_bytes() >= FAN_OUT_FROM_BYTES,
            "lane below the rule"
        );
        let cfg = EngineConfig::synchronous(0x51AB)
            .with_loss(0.2)
            .with_dedup(true)
            .with_max_rounds(10_000);
        let mut hash = TrajectoryHash::new();
        let mut observe = |round: u64, p: &AlgebraicGossip<F>| {
            hash.observe(round);
            hash.observe(p.total_rank() as u64);
        };
        let (stats, proto) = if wrapped {
            let mut wrapper = Forwarding(proto);
            let stats = Engine::new(cfg).run_observed(&mut wrapper, |r, w| observe(r, &w.0));
            (stats, wrapper.0)
        } else {
            let stats = Engine::new(cfg).run_observed(&mut proto, &mut observe);
            (stats, proto)
        };
        assert!(stats.completed && stats.lost > 0 && stats.dedup_dropped > 0);
        for v in 0..N {
            assert_eq!(
                proto.decoded(v).as_deref(),
                Some(proto.generation().messages()),
                "node {v} decoded wrong bytes on {threads} thread(s)"
            );
        }
        (stats, hash.finish())
    })
}

fn thread_count_is_invisible<F: SlabField>() {
    let graph = graph();
    let serial = lane::<F>(&graph, 1, false);
    for threads in [2, 4] {
        assert_eq!(
            lane::<F>(&graph, threads, false),
            serial,
            "{threads} threads"
        );
    }
    // A wrapper that offers no shards runs serially on any pool, and must
    // equal the sharded run of the protocol it wraps: what the
    // benchmark's traced-versus-untraced check relies on.
    assert_eq!(lane::<F>(&graph, 2, true), serial, "shards not forwarded");
}

#[test]
fn engine_results_do_not_depend_on_the_thread_count_gf256() {
    thread_count_is_invisible::<Gf256>();
}

#[test]
fn engine_results_do_not_depend_on_the_thread_count_gf2() {
    thread_count_is_invisible::<Gf2>();
}

/// Nested fan-out: `TrialPlan::run` spreads the trials over the rayon
/// pool, and each synchronous trial above the rule shards its rounds
/// from inside a trial worker.
#[test]
fn trial_plan_results_do_not_depend_on_the_thread_count() {
    let graph = graph();
    let mut base = RunSpec::new(ProtocolKind::UniformAg, K);
    base.ag = ag_config();
    base.engine = EngineConfig::synchronous(0).with_max_rounds(10_000);
    let plan = TrialPlan::new(3, 0xD1CE);
    let run = || plan.run::<Gf256>(&graph, &base).expect("plan");
    let serial = in_pool(1, run);
    assert!(serial.all_ok());
    assert_eq!(in_pool(4, run), serial, "4-thread trial pool");
    assert_eq!(run(), serial, "ambient RAYON_NUM_THREADS");
}
