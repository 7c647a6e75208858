//! Differential lock for the fan-out: a synchronous round sharded over S
//! shards must produce results bit-identical to the serial round, at
//! every S.
//!
//! The reference lane is the default [`Engine`], which at these sizes
//! keeps every round serial and composes through
//! `AlgebraicGossip::compose`. The sharded lanes run the protocol behind
//! the probes' [`Heavy`] wrapper, whose messages clear the engine's byte
//! rule, inside a local pool of S threads: with S > 1 every round goes
//! through the protocol's S shards, so the comparison also locks the shard
//! type to the protocol it splits. Each lane runs the real
//! algebraic-gossip protocol (the dev-only dependency cycle that also
//! powers `proptest_engine_invariants`) over random connected graphs,
//! both communication models, GF(256) and GF(2) (at q = 2 about half of
//! all coefficient draws are unhelpful, so the rank trace moves with any
//! change to a compose stream), loss on/off, and asserts:
//!
//! * identical [`RunStats`],
//! * an identical hash of the per-round trace (round, total rank),
//! * an identical fate for every message, the engine's `admitted` stream
//!   (a mismatch names its first diverging event),
//! * identical decoded messages on completed runs.
//!
//! A protocol that offers no shards (`Protocol::shards` is `None`) runs
//! serially whatever the pool and the sharding rule ask for: the crash
//! wrapper lane pins that for a protocol that keeps the default, and the
//! unsharded lane for a `Heavy` that does not forward the shards.
//!
//! Every lane but the reference sets its own pool, and the reference
//! stays under the byte rule at any thread count, so CI runs this suite
//! once, with `PROPTEST_CASES=256`; the case count honors that env var.

use ag_gf::{Gf2, Gf256, SlabField};
use ag_graph::builders;
use ag_sim::{CommModel, Engine, EngineConfig, Protocol};
use algebraic_gossip::{AgConfig, AlgebraicGossip, CrashPlan, Placement, WithCrashes};
use probes::{in_pool, record, Heavy, Recorded};
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

/// Where a lane runs: `None` is the default engine at the ambient thread
/// count (serial at these sizes); `Some((threads, shards))` is behind
/// [`Heavy`], forwarding the protocol's shards or not, in a pool of
/// `threads`.
type Pool = Option<(usize, bool)>;

/// Runs `proto` to completion in `pool`, recording (round, total rank);
/// hands the protocol back. `ag` finds the algebraic-gossip protocol
/// inside `proto`.
fn traced_run<F: SlabField, P: Protocol + Send>(
    proto: P,
    cfg: EngineConfig,
    pool: Pool,
    ag: impl Fn(&P) -> &AlgebraicGossip<F> + Sync,
) -> (Recorded, P) {
    let Some((threads, shards)) = pool else {
        let mut proto = proto;
        let run = record(Engine::new(cfg), &mut proto, |p| ag(p).total_rank() as u64);
        return (run, proto);
    };
    in_pool(threads, || {
        let mut heavy = Heavy { proto, shards };
        let run = record(Engine::new(cfg), &mut heavy, |h| {
            ag(&h.proto).total_rank() as u64
        });
        (run, heavy.proto)
    })
}

/// One full run of bare algebraic gossip, which offers shards; also
/// checks the decoded messages.
fn run_lane<F: SlabField + Send>(
    n: usize,
    ag_cfg: &AgConfig,
    cfg: EngineConfig,
    proto_seed: u64,
    pool: Pool,
) -> Recorded {
    let proto = protocol::<F>(n, ag_cfg, proto_seed);
    let (lane, proto) = traced_run(proto, cfg, pool, |p| p);
    if lane.stats.completed {
        for v in 0..n {
            assert_eq!(
                proto.decoded(v).expect("complete node decodes"),
                proto.generation().messages(),
                "pool {pool:?}: node {v} decoded wrong messages"
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
    pool: Pool,
) -> Recorded {
    let plan = CrashPlan::random_fraction(n, 0.2, 3, proto_seed ^ 0xDEAD);
    let proto = WithCrashes::new(protocol::<Gf256>(n, ag_cfg, proto_seed), plan);
    traced_run(proto, cfg, pool, WithCrashes::inner).0
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
            lane(Some((shards, true)))
                .assert_same_run(&want, &format!("seed {seed:#x}, {shards} shards"));
        }
    }

    /// The pool is inert on a protocol without shards: a crash-wrapped
    /// run behind `Heavy` in a pool of S threads is the same run as the
    /// reference. The budget is a few hundred rounds: a completing case
    /// takes about 8, and one whose survivors can never decode (a source
    /// crashed before it shared) spends the whole budget on both sides.
    #[test]
    fn pool_is_inert_without_shards(
        seed in any::<u64>(),
        n in 6usize..20,
        k in 2usize..6,
        threads in 1usize..8,
        lossy in any::<bool>(),
    ) {
        let mut cfg = EngineConfig::synchronous(seed).with_max_rounds(300);
        if lossy {
            cfg = cfg.with_loss(0.2);
        }
        let ag = ag_cfg(k, CommModel::Uniform);
        let lane = |pool| run_crash_lane(n, &ag, cfg, seed ^ 0xC4, pool);
        lane(Some((threads, true)))
            .assert_same_run(&lane(None), &format!("seed {seed:#x}, crash lane"));
    }

    /// The serial fallback: a protocol whose messages clear the sharding
    /// rule but which offers no shards, in a pool of S threads or of two,
    /// is the plain serial run bit for bit.
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
        for threads in [shards, 2] {
            run_lane::<Gf256>(n, &ag, cfg, seed ^ 0x5E, Some((threads, false)))
                .assert_same_run(&want, &format!("seed {seed:#x}, unsharded on {threads}"));
        }
    }
}
