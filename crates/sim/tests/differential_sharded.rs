//! Differential lock for the sharded executor: [`ShardedEngine`] must
//! produce results bit-identical to the serial [`Engine`] at every shard
//! count.
//!
//! The reference lane is the serial engine itself, which composes through
//! `AlgebraicGossip::compose` / `WithCrashes` where the sharded lanes go
//! through `AgShard::compose` / `CrashShard`, so the comparison also locks
//! each shard type to the protocol it splits. Each lane runs the real
//! pooled algebraic-gossip protocol (the dev-only dependency cycle that
//! also powers `proptest_engine_invariants`) over random connected
//! graphs, both communication models, GF(256) and GF(2) (at q = 2 about
//! half of all coefficient draws are unhelpful, so the rank trace moves
//! with any change to a compose stream), loss on/off, and the crash
//! wrapper, and asserts:
//!
//! * identical [`RunStats`],
//! * identical per-round observer traces (round, total rank) and their
//!   [`TrajectoryHash`],
//! * the pool-balance invariant `pool_idle == pool_prewarm` at **every**
//!   round boundary — per-shard emit stashes must hand every buffer back
//!   by the end of the round (the sharded analogue of the serial
//!   `crash_pool_audit`),
//! * identical decoded messages on completed runs.
//!
//! The chunked-growth lane additionally pins that the rank-bounded arena
//! is trajectory-identical to the preallocated one under sharding.
//!
//! CI runs this suite with `PROPTEST_CASES=256` under
//! `RAYON_NUM_THREADS ∈ {1, 4}`; the case count honors that env var.

use ag_gf::{Gf2, Gf256, SlabField};
use ag_graph::builders;
use ag_sim::{CommModel, Engine, EngineConfig, RunStats, ShardedEngine, TrajectoryHash};
use algebraic_gossip::{AgConfig, AlgebraicGossip, ArenaGrowth, CrashPlan, Placement, WithCrashes};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(24)
}

/// The lanes' protocol configuration: 2-symbol payloads, spread placement.
fn ag_cfg(k: usize, comm: CommModel, growth: ArenaGrowth) -> AgConfig {
    AgConfig::new(k)
        .with_payload_len(2)
        .with_comm_model(comm)
        .with_placement(Placement::Spread)
        .with_arena_growth(growth)
}

/// One full run, sharded (`shards = Some(s)`) or on the serial engine
/// (`None`); returns stats, the hashed trace and the raw trace, and checks
/// the decoded messages. Asserts pool balance at every round boundary.
fn run_lane<F: SlabField + Send>(
    n: usize,
    ag_cfg: &AgConfig,
    crashes: bool,
    cfg: EngineConfig,
    proto_seed: u64,
    shards: Option<usize>,
) -> (RunStats, u64, Vec<(u64, u64)>) {
    let mut graph_rng = StdRng::seed_from_u64(proto_seed);
    let graph = builders::erdos_renyi_connected(n, 0.4, &mut graph_rng)
        .unwrap_or_else(|_| builders::cycle(n.max(3)).unwrap());
    let inner = AlgebraicGossip::<F>::new(&graph, ag_cfg, proto_seed).expect("protocol");
    let prewarm = inner.pool_prewarm();
    // Crash a deterministic fraction at staggered wakeups; survivors must
    // still account for every pooled buffer.
    let plan = if crashes {
        CrashPlan::random_fraction(n, 0.2, 3, proto_seed ^ 0xDEAD)
    } else {
        CrashPlan::explicit(Vec::new())
    };
    let mut proto = WithCrashes::new(inner, plan);
    let mut hash = TrajectoryHash::new();
    let mut trace = Vec::new();
    let observer = |round: u64, p: &WithCrashes<AlgebraicGossip<F>>| {
        assert_eq!(
            p.inner().pool_idle(),
            prewarm,
            "shards = {shards:?}: pooled buffer leaked by round {round}"
        );
        let rank = p.inner().total_rank() as u64;
        hash.observe(round);
        hash.observe(rank);
        trace.push((round, rank));
    };
    let stats = match shards {
        Some(s) => ShardedEngine::new(cfg, s).run_observed(&mut proto, observer),
        None => Engine::new(cfg).run_observed(&mut proto, observer),
    };
    assert_eq!(
        proto.inner().pool_idle(),
        prewarm,
        "shards = {shards:?}: pool did not end balanced"
    );
    if stats.completed {
        for v in proto.survivors() {
            assert_eq!(
                proto.inner().decoded(v).expect("survivor decodes"),
                proto.inner().generation().messages(),
                "shards = {shards:?}: node {v} decoded wrong messages"
            );
        }
    }
    (stats, hash.finish(), trace)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// The tentpole lock: every shard count reproduces the serial engine
    /// bit-for-bit — stats, trace, hash — over random graphs × both comm
    /// models × both fields × loss × crashes.
    #[test]
    fn shard_count_is_invisible(
        seed in any::<u64>(),
        n in 6usize..20,
        k in 2usize..6,
        comm_pick in 0u8..2,
        binary_field in any::<bool>(),
        lossy in any::<bool>(),
        crashes in any::<bool>(),
    ) {
        let comm = if comm_pick == 0 { CommModel::Uniform } else { CommModel::RoundRobin };
        let mut cfg = EngineConfig::synchronous(seed).with_max_rounds(20_000);
        if lossy {
            cfg = cfg.with_loss(0.2);
        }
        let ag = ag_cfg(k, comm, ArenaGrowth::Chunked);
        let lane = |shards| {
            let run = if binary_field { run_lane::<Gf2> } else { run_lane::<Gf256> };
            run(n, &ag, crashes, cfg, seed ^ 0xA6, shards)
        };
        let want = lane(None);
        for shards in [1usize, 3, 7] {
            let got = lane(Some(shards));
            prop_assert_eq!(&got.0, &want.0, "stats diverged at {} shards", shards);
            prop_assert_eq!(got.1, want.1, "trajectory hash diverged at {} shards", shards);
            prop_assert_eq!(&got.2, &want.2, "trace diverged at {} shards", shards);
        }
    }

    /// The rank-bounded-arena lane under sharding: chunked growth must be
    /// verdict/rank/trajectory-identical to the preallocated arena (the
    /// allocation pattern is the only difference).
    #[test]
    fn chunked_arena_is_trajectory_identical_under_sharding(
        seed in any::<u64>(),
        n in 6usize..16,
        k in 2usize..6,
        shards in 1usize..5,
    ) {
        let cfg = EngineConfig::synchronous(seed).with_max_rounds(20_000);
        let lane = |growth| {
            let ag = ag_cfg(k, CommModel::Uniform, growth);
            run_lane::<Gf256>(n, &ag, false, cfg, seed ^ 0xC4, Some(shards))
        };
        prop_assert_eq!(lane(ArenaGrowth::Chunked), lane(ArenaGrowth::Preallocated));
    }
}
