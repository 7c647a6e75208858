//! Allocation audit for the crash wrapper: a `WithCrashes`-wrapped
//! algebraic gossip run with loss injection must stay allocation-free in
//! steady state, exactly like the bare protocol (`bench_rlnc_throughput`
//! pins the bare case at n = 10⁵).
//!
//! This is the regression lock for two pooled-row leaks the wrapper used
//! to have: it did not forward `Protocol::discard` (so the engine's
//! dedup/loss drops hit the default `drop` instead of the `RowPool`
//! recycle), and it dropped messages delivered to crashed nodes on the
//! floor instead of routing them through `inner.discard`. Either leak
//! shows up here immediately: once the pool drains, every subsequent
//! `compose` allocates a fresh buffer, and the per-round allocator deltas
//! stop being zero.
//!
//! What is audited is the inline round, on any rayon pool: `WithCrashes`
//! keeps `Protocol`'s default bulk hooks, and 2 · 96 rows of 40 bytes are
//! far below the size from which the engine fans a round out (the
//! fan-out allocates per shard per round by design; `bench_rlnc_throughput`
//! audits its n = 10⁵ run inside a one-thread pool for that reason).
//!
//! One test only: the file has its own counting global allocator, and a
//! sibling test running concurrently would pollute the per-round deltas.
//! The helpfulness-probe audit lives in its own file
//! (`would_help_audit.rs`) for the same reason.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use ag_gf::Gf256;
use ag_graph::builders;
use ag_sim::{Engine, EngineConfig};
use algebraic_gossip::{AgConfig, AlgebraicGossip, ArenaGrowth, CrashPlan, WithCrashes};

/// Counts every allocator entry on the *armed* thread so the round loop can
/// be proven allocation-free (not just leak-free).
struct CountingAllocator;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Armed only on the test thread around the measured run. libtest's
    /// harness threads allocate at their own pace (result channels, capture
    /// buffers), and a process-wide counter intermittently picks those up;
    /// gating on a thread-local keeps the per-round deltas deterministic.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn record_alloc() {
    // `try_with`: TLS is unavailable during thread teardown, and the
    // allocator can be entered from there.
    let _ = COUNTING.try_with(|armed| {
        if armed.get() {
            ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        }
    });
}

// SAFETY: delegates verbatim to `System`; the counter is a side channel.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: forwards `layout` untouched to `System.alloc`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record_alloc();
        System.alloc(layout)
    }
    // SAFETY: forwards `layout` untouched to `System.alloc_zeroed`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record_alloc();
        System.alloc_zeroed(layout)
    }
    // SAFETY: forwards the caller's `ptr`/`layout`/`new_size` (valid per
    // the GlobalAlloc contract) untouched to `System.realloc`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record_alloc();
        System.realloc(ptr, layout, new_size)
    }
    // SAFETY: forwards the caller's `ptr`/`layout` (valid per the
    // GlobalAlloc contract) untouched to `System.dealloc`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

#[test]
fn crash_and_loss_run_is_allocation_free_in_steady_state() {
    let n = 96;
    let k = 8;
    let seed = 0xC4A5_4E57;
    let mut grng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
    let graph = builders::random_regular(n, 3, &mut grng).expect("rr(3)");
    // Pin the preallocated arena: the chunked default trades steady-state
    // allocation freedom for memory (rows materialize as ranks grow),
    // which is exactly what this audit must not see.
    let cfg = AgConfig::new(k)
        .with_payload_len(32)
        .with_arena_growth(ArenaGrowth::Preallocated);
    let inner = AlgebraicGossip::<Gf256>::new(&graph, &cfg, seed).expect("protocol");
    let prewarm = inner.pool_prewarm();
    // Crash a deterministic batch of non-holders (spread placement seeds
    // 0..k) at staggered wakeups, including two dead-on-arrival nodes, so
    // every gated path — DOA, mid-run crash, deliver-to-dead — runs.
    let plan = CrashPlan::explicit(vec![(20, 1), (21, 1), (40, 2), (41, 3), (60, 5), (61, 8)]);
    let mut proto = WithCrashes::new(inner, plan);

    // Per-round allocator snapshots; preallocated so the observer itself
    // never allocates inside the measured loop. The baseline snapshot
    // taken before the run makes round 1's window observable too.
    let mut snapshots: Vec<(u64, u64)> = Vec::with_capacity(4096);
    COUNTING.with(|armed| armed.set(true));
    snapshots.push((0, ALLOC_CALLS.load(Ordering::Relaxed)));
    let ecfg = EngineConfig::synchronous(seed ^ 0x1)
        .with_loss(0.3)
        .with_max_rounds(3_000);
    let stats = Engine::new(ecfg).run_observed(&mut proto, |round, _p| {
        snapshots.push((round, ALLOC_CALLS.load(Ordering::Relaxed)));
    });
    COUNTING.with(|armed| armed.set(false));
    assert!(stats.completed, "survivors must finish within the budget");
    assert_eq!(proto.crashed_count(), 6);

    let mut allocating_rounds = Vec::new();
    for w in snapshots.windows(2) {
        let delta = w[1].1 - w[0].1;
        if delta > 0 {
            allocating_rounds.push((w[1].0, delta));
        }
    }
    // Round 1's window carries the engine's one-time per-run setup
    // (RunStats buffers, round scratch); every later round — including
    // every dedup drop, loss drop and delivery to a crashed node — must
    // be allocation-free.
    assert!(
        allocating_rounds.iter().all(|&(round, _)| round <= 1),
        "pooled buffers leaked: allocations in rounds {allocating_rounds:?}"
    );
    assert!(
        stats.rounds >= 5,
        "run too short ({} rounds) to call the loop steady",
        stats.rounds
    );
    // And the pool itself ends exactly as pre-warmed: nothing leaked,
    // nothing grew.
    assert_eq!(
        proto.inner().pool_idle(),
        prewarm,
        "pool did not end balanced"
    );
    // The scenario genuinely exercised the drop paths.
    assert!(stats.lost > 0, "loss injection never fired");
}
