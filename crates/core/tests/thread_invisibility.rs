//! The default engine picks a round's shard count from the rayon thread
//! count and the bytes the round moves; none of that may be visible in a
//! result.
//!
//! Every lane here runs real algebraic gossip at a size *above* the
//! fan-out's byte rule, through the default entry points
//! (`Engine::run_observed`, `TrialPlan::run`) and inside local rayon pools:
//! one thread keeps every round serial, two and four shard it over 2 and
//! 4 shards, one a thread. All lanes must agree on the whole
//! [`RunStats`], the per-round trajectory hash, every message's fate (the
//! engine's `admitted` stream, event for event; a mismatch names its
//! first diverging event) and the decoded bytes.
//!
//! CI re-runs this file under `RAYON_NUM_THREADS ∈ {1, 4}`: the local
//! pools make the lanes independent of it, so it varies only what runs
//! outside them (the ambient `TrialPlan::run` lane).

use ag_gf::{Gf2, Gf256, SlabField};
use ag_graph::{builders, Graph};
use ag_sim::{Engine, EngineConfig, Protocol};
use algebraic_gossip::{AgConfig, AlgebraicGossip, Placement, ProtocolKind, RunSpec, TrialPlan};
use probes::{in_pool, record, Heavy, Recorded};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[path = "../../sim/tests/probes/mod.rs"]
mod probes;

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

/// One recorded run on the default engine, lossy and with dedup on,
/// inside a pool of `threads`, tracing (round, total rank). `wrapped`
/// runs it through a [`Heavy`] that does not forward the shards, the
/// fan-out's serial fallback. Checks every node's decoded bytes.
fn lane<F: SlabField>(graph: &Graph, threads: usize, wrapped: bool) -> Recorded {
    in_pool(threads, || {
        let mut proto = AlgebraicGossip::<F>::new(graph, &ag_config(), 0xA6).expect("protocol");
        // The precondition the file is named for: at this size the rule
        // asks for the fan-out.
        assert!(
            2 * N * proto.msg_bytes() >= FAN_OUT_FROM_BYTES,
            "lane below the rule"
        );
        let engine = Engine::new(
            EngineConfig::synchronous(0x51AB)
                .with_loss(0.2)
                .with_dedup(true)
                .with_max_rounds(10_000),
        );
        let (run, proto) = if wrapped {
            let mut wrapper = Heavy {
                proto,
                shards: false,
            };
            let run = record(engine, &mut wrapper, |w| w.proto.total_rank() as u64);
            (run, wrapper.proto)
        } else {
            (record(engine, &mut proto, |p| p.total_rank() as u64), proto)
        };
        let stats = &run.stats;
        assert!(stats.completed && stats.lost > 0 && stats.dedup_dropped > 0);
        for v in 0..N {
            assert_eq!(
                proto.decoded(v).as_deref(),
                Some(proto.generation().messages()),
                "node {v} decoded wrong bytes on {threads} thread(s)"
            );
        }
        run
    })
}

fn thread_count_is_invisible<F: SlabField>() {
    let graph = graph();
    let serial = lane::<F>(&graph, 1, false);
    for threads in [2, 4] {
        lane::<F>(&graph, threads, false).assert_same_run(&serial, &format!("{threads} threads"));
    }
    // A wrapper that offers no shards runs serially on any pool, and must
    // equal the sharded run of the protocol it wraps: what the
    // benchmark's traced-versus-untraced check relies on.
    lane::<F>(&graph, 2, true).assert_same_run(&serial, "shards not forwarded");
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
