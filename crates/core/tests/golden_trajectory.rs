//! Golden determinism tests: pinned per-round trajectory hashes.
//!
//! Each test runs a fixed-seed quick-scale end-to-end simulation, records
//! an observable after every round (total decoder rank for algebraic
//! gossip, total held messages for the uncoded baseline) through the
//! shared recording probe, which hashes the trajectory with
//! [`ag_sim::TrajectoryHash`], and compares against a pinned constant. Step-level equivalence between the packed decoder and the
//! preserved scalar path is established by `ag-rlnc`'s differential suite;
//! these pins extend that guarantee end-to-end: any future hot-path change
//! must reproduce the exact simulation results in every round, not just
//! the final stopping time.
//!
//! CI re-runs this file under `RAYON_NUM_THREADS=1` and `=4`; combined with
//! `parallel_trials_match_serial` below, that re-verifies parallel ==
//! serial for the trial runner on top of the engine-level pins.

use ag_gf::Gf256;
use ag_graph::{builders, ParentLinks};
use ag_sim::{CommModel, Engine, EngineConfig};
use algebraic_gossip::{
    run_protocol, AgConfig, AlgebraicGossip, BroadcastTree, Placement, ProtocolKind,
    RandomMessageGossip, RunSpec, Tag, TrialPlan,
};
use probes::{record, Recorded};

#[path = "../../sim/tests/probes/mod.rs"]
mod probes;

/// Pinned hash of the UniformAg rank trajectory for the run below: one
/// value for the serial round and for the fan-out forced over every shard
/// count, at every thread count (CI re-runs this file under
/// `RAYON_NUM_THREADS=1` and `=4`).
const GOLDEN_SHARDED_AG_TRAJECTORY: u64 = 0xC2B0_ECC9_946E_1A35;
/// Pinned hash of the UncodedRandom holdings trajectory for the run below.
const GOLDEN_BASELINE_TRAJECTORY: u64 = 0x8C88_73B0_963D_BC23;
/// Pinned hashes of the TAG + B_RR rank trajectory on `barbell(12)`,
/// synchronous and asynchronous, and of AG over the parent links of a BFS
/// tree of the 3×5 grid (Lemma 1's setting).
const GOLDEN_TAG_SYNC_TRAJECTORY: u64 = 0xA14C_8C82_F834_4F5A;
const GOLDEN_TAG_ASYNC_TRAJECTORY: u64 = 0x5224_9EE2_CFBD_7B5D;
const GOLDEN_TREE_AG_TRAJECTORY: u64 = 0xBC79_2DE0_03D1_CB50;

/// One AG protocol: uniform algebraic gossip over GF(256) on a 4×4 grid,
/// k = 8 with payloads, synchronous rounds, all seeds fixed. `shards`
/// forces every round through the fan-out over that many shards; `None`
/// leaves the engine to its own rule, which keeps a run this small serial.
fn ag_trajectory(shards: Option<usize>) -> Recorded {
    let g = builders::grid(4, 4).expect("grid");
    let cfg = AgConfig::new(8)
        .with_payload_len(4)
        .with_placement(Placement::Spread);
    let mut proto = AlgebraicGossip::<Gf256>::new(&g, &cfg, 0xA11CE).expect("protocol");
    let engine = Engine::new(EngineConfig::synchronous(0xBEEF).with_max_rounds(100_000));
    let engine = match shards {
        Some(s) => engine.with_forced_shards(s),
        None => engine,
    };
    let run = record(engine, &mut proto, |p| p.total_rank() as u64);
    assert!(run.stats.completed, "golden AG run must complete");
    // Completed runs must also decode correctly — a hash collision can in
    // principle hide a wrong trajectory, but not wrong decoded bytes too.
    for v in 0..g.n() {
        assert_eq!(
            proto.decoded(v).expect("complete node decodes"),
            proto.generation().messages()
        );
    }
    run
}

/// One baseline: uncoded random-message gossip on the same graph and seeds.
fn baseline_trajectory() -> Recorded {
    let g = builders::grid(4, 4).expect("grid");
    let cfg = AgConfig::new(8).with_payload_len(4);
    let mut proto = RandomMessageGossip::<Gf256>::new(&g, &cfg, 0xA11CE).expect("protocol");
    let engine = Engine::new(EngineConfig::synchronous(0xBEEF).with_max_rounds(100_000));
    record(engine, &mut proto, |p| {
        (0..16).map(|v| p.held(v) as u64).sum()
    })
}

/// TAG with B_RR as Phase 1 on `barbell(12)`, k = n = 12 with payloads,
/// under the given engine config (all seeds fixed).
fn tag_trajectory(engine: EngineConfig) -> u64 {
    let g = builders::barbell(12).expect("barbell");
    let cfg = AgConfig::new(12).with_payload_len(4);
    let brr = BroadcastTree::new(&g, 0, CommModel::RoundRobin, 0xA11CE).expect("tree");
    let mut proto = Tag::<Gf256, _>::new(&g, brr, &cfg, 0xA11CE).expect("protocol");
    let engine = Engine::new(engine.with_max_rounds(100_000));
    let run = record(engine, &mut proto, |p| {
        (0..g.n()).map(|v| p.rank(v) as u64).sum()
    });
    assert!(run.stats.completed, "golden TAG run must complete");
    for v in 0..g.n() {
        assert_eq!(
            proto.decoded(v).expect("complete node decodes"),
            proto.generation().messages()
        );
    }
    run.trajectory
}

/// Lemma 1's fixed-parent EXCHANGE: AG over the parent links of the BFS
/// tree of a 3×5 grid, round-robin, k = 6 with payloads, synchronous
/// rounds, all seeds fixed.
fn tree_ag_trajectory() -> u64 {
    let tree = builders::grid(3, 5)
        .expect("grid")
        .bfs_tree(0)
        .into_spanning_tree();
    let cfg = AgConfig::new(6)
        .with_payload_len(4)
        .with_comm_model(CommModel::RoundRobin);
    let mut proto =
        AlgebraicGossip::<Gf256, _>::on_topology(ParentLinks::new(&tree), &cfg, 0xA11CE)
            .expect("protocol");
    let engine = Engine::new(EngineConfig::synchronous(0xBEEF).with_max_rounds(100_000));
    let run = record(engine, &mut proto, |p| {
        (0..tree.n()).map(|v| p.rank(v) as u64).sum()
    });
    assert!(
        run.stats.completed,
        "golden parent-links AG run must complete"
    );
    for v in 0..tree.n() {
        assert_eq!(
            proto.decoded(v).expect("complete node decodes"),
            proto.generation().messages()
        );
    }
    run.trajectory
}

#[test]
fn golden_tag_and_tree_ag_trajectories_are_pinned() {
    for (name, hash, want) in [
        (
            "TAG+B_RR synchronous",
            tag_trajectory(EngineConfig::synchronous(0xBEEF)),
            GOLDEN_TAG_SYNC_TRAJECTORY,
        ),
        (
            "TAG+B_RR asynchronous",
            tag_trajectory(EngineConfig::asynchronous(0xBEEF)),
            GOLDEN_TAG_ASYNC_TRAJECTORY,
        ),
        (
            "AG over parent links",
            tree_ag_trajectory(),
            GOLDEN_TREE_AG_TRAJECTORY,
        ),
    ] {
        assert_eq!(
            hash, want,
            "{name} per-round rank trajectory changed: got {hash:#018X}"
        );
    }
}

#[test]
fn golden_ag_rank_trajectory_is_pinned() {
    let hash = ag_trajectory(None).trajectory;
    assert_eq!(
        hash, GOLDEN_SHARDED_AG_TRAJECTORY,
        "UniformAg per-round rank trajectory changed: got {hash:#018X} — \
         the serial round no longer matches the sharded pin"
    );
}

#[test]
fn golden_baseline_trajectory_is_pinned() {
    let run = baseline_trajectory();
    assert!(run.stats.completed);
    let hash = run.trajectory;
    assert_eq!(
        hash, GOLDEN_BASELINE_TRAJECTORY,
        "UncodedRandom per-round holdings trajectory changed: got {hash:#018X}"
    );
}

#[test]
fn golden_sharded_trajectory_is_pinned_at_every_shard_count() {
    // Every shard count (including more shards than would ever be useful
    // at n = 16) must reproduce the serial round's pinned value
    // bit-for-bit — the determinism contract, pinned — and its every
    // message's fate.
    let serial = ag_trajectory(None);
    for shards in [1usize, 2, 4, 16] {
        let run = ag_trajectory(Some(shards));
        run.assert_same_run(&serial, &format!("{shards} shard(s)"));
        let hash = run.trajectory;
        assert_eq!(
            hash, GOLDEN_SHARDED_AG_TRAJECTORY,
            "sharded AG trajectory changed at {shards} shard(s): got {hash:#018X} — \
             the sharded merge is no longer a pure function of (seed, round, slot)"
        );
    }
}

#[test]
fn golden_runs_are_rerun_stable() {
    // The same seeds twice in one process (warm field tables) must agree —
    // separates "tables depend on init order" bugs from genuine pin breaks.
    ag_trajectory(None).assert_same_run(&ag_trajectory(None), "AG rerun");
    baseline_trajectory().assert_same_run(&baseline_trajectory(), "baseline rerun");
}

#[test]
fn parallel_trials_match_serial() {
    // Re-verify the trial runner on the slab decoder: rayon execution must
    // be bit-identical to the serial reference regardless of thread count
    // (CI runs this under RAYON_NUM_THREADS=1 and 4). The trials end in
    // 10–29 rounds; the budget makes a run that stalls fail `all_ok`
    // within a second instead of hanging.
    let g = builders::barbell(10).expect("barbell");
    let mut base = RunSpec::new(ProtocolKind::UniformAg, 5);
    base.engine = EngineConfig::synchronous(0).with_max_rounds(1_000);
    let plan = TrialPlan::new(8, 0x51AB);
    let parallel = plan.run::<Gf256>(&g, &base).expect("parallel");
    let serial: Vec<_> = plan
        .specs(&base)
        .iter()
        .map(|spec| run_protocol::<Gf256>(&g, spec).expect("serial"))
        .collect();
    assert_eq!(parallel.results(), serial);
    assert!(parallel.all_ok());
}
