//! Machine-readable gate for the sharded round loop + rank-bounded arena:
//! asserts the sharded engine's determinism contract (identical stats and
//! per-round trajectory at every shard count), times a shard-count ladder,
//! then drives the two acceptance runs — a rank-only completion at
//! n = 10⁶ and a payload-bearing completion at n = 3·10⁵ — recording
//! wall-clock and the chunked arena's measured bytes (initial, final, and
//! what the old k-rows-per-node preallocation would have pinned up front).
//! Writes `BENCH_engine_shard.json` for future PRs to diff against.
//!
//! The determinism assertion is unconditional: what must hold everywhere
//! is that shard count (and `RAYON_NUM_THREADS`) cannot change a single
//! bit of the run. The timings depend on the rayon thread count, which the
//! JSON records as `threads`: with one thread the shim degrades to a
//! serial loop and `speedup ≈ 1x` across the ladder is expected.
//!
//! Usage: `cargo run --release -p ag-bench --bin bench_engine_shard`
//! (optionally `AG_BENCH_SHARD_BIG_N=n`, `AG_BENCH_SHARD_PAYLOAD_N=n`,
//! `AG_BENCH_SHARD_LADDER_N=n` to resize).

// Timing harness: wall-clock reads are this binary's job; the
// workspace-wide ban exists for simulation code.
#![allow(clippy::disallowed_methods)]

use std::fmt::Write as _;
use std::time::Instant;

use ag_bench::experiments::stopping_time::SweepFamily;
use ag_gf::Gf256;
use ag_graph::Graph;
use ag_sim::{EngineConfig, RunStats, ShardedEngine, TrajectoryHash};
use algebraic_gossip::{AgConfig, AlgebraicGossip, ArenaGrowth, Placement};

const SEED: u64 = 0x5C_A1_E0;

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&v| v > 0)
        .unwrap_or(default)
}

fn protocol(graph: &Graph, k: usize, payload_len: usize) -> AlgebraicGossip<Gf256> {
    let cfg = AgConfig::new(k)
        .with_payload_len(payload_len)
        .with_placement(Placement::Spread);
    AlgebraicGossip::<Gf256>::new(graph, &cfg, SEED ^ 0xA6).expect("protocol")
}

struct TracedRun {
    stats: RunStats,
    hash: u64,
    seconds: f64,
}

/// One observed sharded run: per-round (round, total rank) trajectory
/// hashed, wall-clock timed (observer included — identical across the
/// ladder, so relative timings stay comparable).
fn traced_run(graph: &Graph, k: usize, shards: usize) -> TracedRun {
    let mut proto = protocol(graph, k, 0);
    let mut hash = TrajectoryHash::new();
    let t = Instant::now();
    let stats = ShardedEngine::new(
        EngineConfig::synchronous(SEED).with_max_rounds(1_000_000),
        shards,
    )
    .run_observed(&mut proto, |round, p| {
        hash.observe(round);
        hash.observe(p.total_rank() as u64);
    });
    let seconds = t.elapsed().as_secs_f64();
    assert!(
        stats.completed,
        "ladder run must complete ({shards} shards)"
    );
    TracedRun {
        stats,
        hash: hash.finish(),
        seconds,
    }
}

struct BigRun {
    n: usize,
    rounds: u64,
    timeslots: u64,
    seconds: f64,
    initial_bytes: usize,
    final_bytes: usize,
    prealloc_bytes: usize,
}

/// Drives a chunked-arena completion run at scale and measures the arena
/// before and after, plus what `ArenaGrowth::Preallocated` would have
/// committed to up front on the same configuration.
fn big_run(graph: &Graph, k: usize, payload_len: usize, shards: usize, label: &str) -> BigRun {
    let prealloc_bytes = {
        let cfg = AgConfig::new(k)
            .with_payload_len(payload_len)
            .with_placement(Placement::Spread)
            .with_arena_growth(ArenaGrowth::Preallocated);
        AlgebraicGossip::<Gf256>::new(graph, &cfg, SEED ^ 0xA6)
            .expect("preallocated protocol")
            .arena_allocated_bytes()
    };
    let mut proto = protocol(graph, k, payload_len);
    let initial_bytes = proto.arena_allocated_bytes();
    let t = Instant::now();
    let stats = ShardedEngine::new(
        EngineConfig::synchronous(SEED).with_max_rounds(1_000_000),
        shards,
    )
    .run_batch(&mut proto);
    let seconds = t.elapsed().as_secs_f64();
    assert!(stats.completed, "{label} run must complete");
    assert_eq!(
        proto.total_rank(),
        graph.n() * k,
        "{label}: every node must reach full rank"
    );
    BigRun {
        n: graph.n(),
        rounds: stats.rounds,
        timeslots: stats.timeslots,
        seconds,
        initial_bytes,
        final_bytes: proto.arena_allocated_bytes(),
        prealloc_bytes,
    }
}

fn main() {
    let ladder_n = env_usize("AG_BENCH_SHARD_LADDER_N", 4096);
    let big_n = env_usize("AG_BENCH_SHARD_BIG_N", 1_000_000);
    let payload_n = env_usize("AG_BENCH_SHARD_PAYLOAD_N", 300_000);
    const LADDER_K: usize = 8;
    const SHARDS: [usize; 4] = [1, 2, 4, 8];

    // --- Determinism + shard ladder at moderate n. ----------------------
    eprintln!("shard ladder at n = {ladder_n} (k = {LADDER_K}, rank-only)…");
    let graph = SweepFamily::RandomRegular.build(ladder_n, SEED ^ 0xB16);
    let runs: Vec<TracedRun> = SHARDS
        .iter()
        .map(|&s| traced_run(&graph, LADDER_K, s))
        .collect();
    let serial = &runs[0];
    for (s, run) in SHARDS.iter().zip(&runs) {
        assert_eq!(
            run.stats, serial.stats,
            "stats diverged at {s} shards — determinism contract broken"
        );
        assert_eq!(
            run.hash, serial.hash,
            "trajectory diverged at {s} shards — determinism contract broken"
        );
        eprintln!(
            "  {s} shard(s): {:.3} s over {} rounds (hash {:#018X}) — {:.2}x vs 1 shard",
            run.seconds,
            run.stats.rounds,
            run.hash,
            serial.seconds / run.seconds
        );
    }
    let deterministic_match = true; // asserted above; recorded for the diff

    // --- Acceptance run 1: rank-only completion at n = 10^6. ------------
    eprintln!("rank-only completion at n = {big_n} (k = {LADDER_K}, 4 shards)…");
    let graph = SweepFamily::RandomRegular.build(big_n, SEED ^ 0xB16);
    let big = big_run(&graph, LADDER_K, 0, 4, "rank-only");
    eprintln!(
        "  n = {}: {} rounds ({} slots) in {:.1} s; arena {} -> {} bytes \
         (prealloc would pin {}; final {:.1} B/node)",
        big.n,
        big.rounds,
        big.timeslots,
        big.seconds,
        big.initial_bytes,
        big.final_bytes,
        big.prealloc_bytes,
        big.final_bytes as f64 / big.n as f64
    );

    // --- Acceptance run 2: payload-bearing completion at n = 3·10^5. ----
    const PAYLOAD_K: usize = 16;
    const PAYLOAD_LEN: usize = 64;
    eprintln!(
        "payload completion at n = {payload_n} (k = {PAYLOAD_K}, {PAYLOAD_LEN}-byte payloads)…"
    );
    let graph = SweepFamily::RandomRegular.build(payload_n, SEED ^ 0x9A7);
    let pay = big_run(&graph, PAYLOAD_K, PAYLOAD_LEN, 4, "payload");
    eprintln!(
        "  n = {}: {} rounds in {:.1} s; arena {} -> {} bytes (prealloc {})",
        pay.n, pay.rounds, pay.seconds, pay.initial_bytes, pay.final_bytes, pay.prealloc_bytes
    );

    // --- JSON. ----------------------------------------------------------
    let mut json = String::from("{\n  \"bench\": \"engine_shard\",\n");
    let _ = writeln!(json, "  \"threads\": {},", rayon::current_num_threads());
    let _ = writeln!(json, "  \"deterministic_match\": {deterministic_match},");
    let _ = writeln!(
        json,
        "  \"shard_ladder\": {{\"family\": \"random 3-regular\", \"n\": {ladder_n}, \
         \"k\": {LADDER_K}, \"payload_len\": 0, \"rounds\": {}, \"trajectory_hash\": \
         \"{:#018X}\", \"runs\": [",
        serial.stats.rounds, serial.hash
    );
    for (i, (s, run)) in SHARDS.iter().zip(&runs).enumerate() {
        let _ = writeln!(
            json,
            "    {{\"shards\": {s}, \"seconds\": {:.3}, \"speedup_vs_1_shard\": {:.3}}}{}",
            run.seconds,
            serial.seconds / run.seconds,
            if i + 1 < SHARDS.len() { "," } else { "" }
        );
    }
    json.push_str("  ]},\n");
    for (key, r, k, payload_len, trailer) in [
        ("large_run", &big, LADDER_K, 0usize, ","),
        ("payload_run", &pay, PAYLOAD_K, PAYLOAD_LEN, "\n}"),
    ] {
        let _ = writeln!(
            json,
            "  \"{key}\": {{\"family\": \"random 3-regular\", \"n\": {}, \"k\": {k}, \
             \"payload_len\": {payload_len}, \"shards\": 4, \"completed\": true, \
             \"rounds\": {}, \"timeslots\": {}, \"seconds\": {:.2},",
            r.n, r.rounds, r.timeslots, r.seconds
        );
        let _ = writeln!(
            json,
            "    \"arena_initial_bytes\": {}, \"arena_final_bytes\": {}, \
             \"prealloc_bytes\": {}, \"final_bytes_per_node\": {:.1}}}{trailer}",
            r.initial_bytes,
            r.final_bytes,
            r.prealloc_bytes,
            r.final_bytes as f64 / r.n as f64
        );
    }

    std::fs::write("BENCH_engine_shard.json", &json).expect("write BENCH_engine_shard.json");
    print!("{json}");
}
