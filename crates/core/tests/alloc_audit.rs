//! Counting-allocator audits: what the library promises to do without
//! touching the heap, checked against this file's own global allocator.
//!
//! Three tests share one [`CountingAllocator`]. The counter is per thread,
//! so they may run concurrently: each reads the allocator entries its own
//! thread made, and libtest's harness threads (result channels, capture
//! buffers) never show up in anyone's deltas.
//!
//! * **Bare protocol** — an `AlgebraicGossip` run with real payloads
//!   allocates for rank growth and for nothing else: the pre-warmed
//!   `RowPool` makes the per-message path allocation-free outright, and a
//!   node's rows live in four growable slabs that are reallocated only when
//!   an innovative reception outgrows the chunk last reserved. So in every
//!   round after the first (whose window also carries the engine's
//!   one-time setup) the allocator is entered at most 4 × (rank gained
//!   that round) times — zero in a round that gains none — and over the
//!   whole run at most 4·n·(⌈log₂ k⌉ + 1) times, the chunks being
//!   geometric.
//! * **Crash + loss lane** — the same for a `WithCrashes`-wrapped run under
//!   loss injection. This is the regression lock for two pooled-row leaks
//!   the wrapper used to have: it did not forward `Protocol::discard` (so
//!   the engine's dedup/loss drops hit the default `drop` instead of the
//!   `RowPool` recycle), and it dropped messages delivered to crashed nodes
//!   on the floor instead of routing them through `inner.discard`. Either
//!   leak shows up immediately: once the pool drains, every subsequent
//!   `compose` allocates a fresh buffer, 2n messages a round against a
//!   handful of innovations.
//! * **Helpfulness probes** — `Decoder::would_help`,
//!   `Decoder::is_helpful_node` and `BasisArena::would_be_innovative_packed`
//!   are allocation-free once their scratch buffers have warmed up.
//!
//! What the two protocol audits look at is the *inline* round; the rayon
//! fan-out allocates per shard per round by design.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ag_gf::{Gf256, SlabField};
use ag_graph::builders;
use ag_linalg::BasisArena;
use ag_rlnc::{Decoder, Generation, Packet, Recoder};
use ag_sim::{Engine, EngineConfig, Protocol, RunStats};
use algebraic_gossip::{AgConfig, AlgebraicGossip, CrashPlan, Placement, WithCrashes};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Counts every allocator entry per thread, so a loop can be proven
/// allocation-free (not just leak-free).
struct CountingAllocator;

thread_local! {
    /// Allocator entries (alloc, alloc_zeroed, realloc) made by this thread.
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
}

fn record_alloc() {
    // `try_with`: TLS is unavailable during thread teardown, and the
    // allocator can be entered from there.
    let _ = ALLOC_CALLS.try_with(|calls| calls.set(calls.get() + 1));
}

/// Allocator entries the calling thread has made so far.
fn alloc_calls() -> u64 {
    ALLOC_CALLS.with(Cell::get)
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

/// One round's window: the allocator entries the calling thread made in
/// it and the rank the whole network gained in it.
#[derive(Debug)]
struct RoundWindow {
    round: u64,
    allocs: u64,
    rank_gained: u64,
}

/// Runs `proto` on the calling thread and returns the stats plus every
/// round's window; `total_rank` reads the network's rank off the protocol.
/// The baseline snapshot taken before the run makes round 1's window
/// observable too: it carries the engine's one-time per-run setup
/// (`RunStats` buffers, round scratch), which allocates inside `run` ahead
/// of the first round.
fn round_windows<P: Protocol>(
    proto: &mut P,
    ecfg: EngineConfig,
    total_rank: impl Fn(&P) -> u64,
) -> (RunStats, Vec<RoundWindow>) {
    // Preallocated so the observer itself never allocates inside the
    // measured loop.
    let mut snapshots: Vec<(u64, u64, u64)> = Vec::with_capacity(4096);
    snapshots.push((0, alloc_calls(), total_rank(proto)));
    let stats = Engine::new(ecfg).run_observed(proto, |round, p| {
        snapshots.push((round, alloc_calls(), total_rank(p)));
    });
    let windows = snapshots
        .windows(2)
        .map(|w| RoundWindow {
            round: w[1].0,
            allocs: w[1].1 - w[0].1,
            rank_gained: w[1].2 - w[0].2,
        })
        .collect();
    (stats, windows)
}

/// The rank-bounded storage contract over a whole run of `n` nodes and `k`
/// messages: after round 1 a round enters the allocator at most four times
/// per rank gained (a node owns four growable slabs), so not at all when
/// it gains none; and the run, setup included, at most
/// 4·n·(⌈log₂ k⌉ + 1) times.
fn assert_allocations_track_rank_growth(windows: &[RoundWindow], n: usize, k: usize) {
    let leaking: Vec<&RoundWindow> = windows
        .iter()
        .filter(|w| w.round > 1 && w.allocs > 4 * w.rank_gained)
        .collect();
    assert!(
        leaking.is_empty(),
        "rounds allocating beyond four times their rank growth: {leaking:?}"
    );
    let total: u64 = windows.iter().map(|w| w.allocs).sum();
    let chunks_per_slab = u64::from(k.next_power_of_two().ilog2()) + 1;
    let ceiling = 4 * n as u64 * chunks_per_slab;
    assert!(
        total <= ceiling,
        "{total} allocator calls over the run; geometric growth allows {ceiling}"
    );
}

#[test]
fn bare_protocol_allocates_only_for_rank_growth() {
    // A round of the run below moves 2 · 1024 rows of 1056 bytes, above the
    // size from which the default engine fans a round out when rayon has
    // more than one thread — so it sits inside a one-thread pool, where the
    // engine's rule picks the inline round on any machine.
    rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("one-thread pool")
        .install(bare_protocol_audit);
}

/// rr(3), k = 32 messages of 1 KiB over GF(2⁸), EXCHANGE.
fn bare_protocol_audit() {
    let (n, k, r) = (1024, 32, 1024);
    let seed = 0x51AB_51AB;
    let mut grng = StdRng::seed_from_u64(seed ^ 0xE0);
    let graph = builders::random_regular(n, 3, &mut grng).expect("rr(3)");
    let cfg = AgConfig::new(k)
        .with_payload_len(r)
        .with_placement(Placement::Spread);
    let mut proto = AlgebraicGossip::<Gf256>::new(&graph, &cfg, seed).expect("protocol");
    let prewarm = proto.pool_prewarm();

    let ecfg = EngineConfig::synchronous(seed ^ 0x1).with_max_rounds(4000);
    let (stats, windows) = round_windows(&mut proto, ecfg, |p| p.total_rank() as u64);
    assert!(stats.completed, "completion run hit the round budget");
    assert_allocations_track_rank_growth(&windows, n, k);
    assert!(
        stats.rounds >= 6,
        "run too short ({} rounds) to call the loop steady",
        stats.rounds
    );
    assert_eq!(proto.pool_idle(), prewarm, "pool did not end balanced");
    // Decoded bytes are the generation's: the audited path is also the
    // correct one.
    for v in [0, 1, 2, n / 2, n - 1] {
        assert_eq!(
            proto.decoded(v).as_deref(),
            Some(proto.generation().messages()),
            "node {v} failed to decode — codec bug"
        );
    }
}

#[test]
fn crash_and_loss_run_allocates_only_for_rank_growth() {
    // `WithCrashes` keeps `Protocol`'s default bulk hooks, and 2 · 96 rows
    // of 40 bytes are far below the fan-out size: inline on any rayon pool.
    let n = 96;
    let k = 8;
    let seed = 0xC4A5_4E57;
    let mut grng = StdRng::seed_from_u64(seed);
    let graph = builders::random_regular(n, 3, &mut grng).expect("rr(3)");
    let cfg = AgConfig::new(k).with_payload_len(32);
    let inner = AlgebraicGossip::<Gf256>::new(&graph, &cfg, seed).expect("protocol");
    let prewarm = inner.pool_prewarm();
    // Crash a deterministic batch of non-holders (spread placement seeds
    // 0..k) at staggered wakeups, including two dead-on-arrival nodes, so
    // every gated path — DOA, mid-run crash, deliver-to-dead — runs.
    let plan = CrashPlan::explicit(vec![(20, 1), (21, 1), (40, 2), (41, 3), (60, 5), (61, 8)]);
    let mut proto = WithCrashes::new(inner, plan);

    let ecfg = EngineConfig::synchronous(seed ^ 0x1)
        .with_loss(0.3)
        .with_max_rounds(3_000);
    let (stats, windows) = round_windows(&mut proto, ecfg, |p| p.inner().total_rank() as u64);
    assert!(stats.completed, "survivors must finish within the budget");
    assert_eq!(proto.crashed_count(), 6);

    // No dedup drop, loss drop or delivery to a crashed node may cost an
    // allocation: only rank growth does.
    assert_allocations_track_rank_growth(&windows, n, k);
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

/// Pull-style protocol variants and the helpful-node oracle ablation call
/// the probes once per contact — far more often than rows are actually
/// stored — so a per-probe temporary (the pre-PR 6 implementation cloned
/// the row before reducing it) multiplies into millions of allocations per
/// trial. A probe packs the `k`-byte coefficient header into a reusable
/// scratch row, reduces it there in one fused pass, and never touches
/// payload state; this proves the whole probe + redundant-receive +
/// recode-emit cycle performs zero allocator calls in steady state.
#[test]
fn would_help_heavy_loop_is_allocation_free_after_warmup() {
    let mut rng = StdRng::seed_from_u64(0x5EED_4E1F);
    let k = 16;
    let r = 64;
    let g = Generation::<Gf256>::random(k, r, &mut rng);
    let source = Decoder::with_all_messages(&g);

    // A partially filled sink: its probes do real elimination work.
    let mut sink = Decoder::<Gf256>::new(k, r);
    let mut arena = BasisArena::<Gf256>::new(1, k, k + r);
    while sink.rank() < k / 2 {
        let row = Recoder::new(&source)
            .emit_packed_row(&mut rng)
            .expect("source emits");
        let a = sink.receive_packed_slice(&row).is_innovative();
        let b = arena.insert_packed_slice(0, &row).is_innovative();
        assert_eq!(a, b, "packed and arena lanes must agree");
    }

    // Pre-generate the probe workload outside the measured region (packet
    // construction allocates by design).
    let probes: Vec<Packet<Gf256>> = (0..32)
        .map(|_| Recoder::new(&source).emit(&mut rng).expect("source emits"))
        .collect();
    let redundant: Vec<Vec<u8>> = (0..8)
        .map(|_| {
            Recoder::new(&sink)
                .emit_packed_row(&mut rng)
                .expect("sink has rank")
        })
        .collect();
    let mut emit_buf = Vec::with_capacity(sink.payload_len() + k);

    // Warm-up: one pass over every path so scratch buffers, kernel tables
    // and the emit-factor buffer reach steady-state capacity.
    let _ = sink.would_help(&probes[0]);
    let _ = source.would_help(&probes[0]);
    let _ = arena.would_be_innovative_packed(0, &probes[0].to_packed_row());
    let _ = sink.is_helpful_node(&source);
    assert!(!sink.receive_packed_slice(&redundant[0]).is_innovative());
    assert!(Recoder::new(&sink).emit_packed_row_into(&mut rng, &mut emit_buf));
    let packed_probes: Vec<Vec<u8>> = probes.iter().map(Packet::to_packed_row).collect();

    let before = alloc_calls();
    let mut innovative_probes = 0u32;
    for i in 0..2_000 {
        let p = &probes[i % probes.len()];
        if sink.would_help(p) {
            innovative_probes += 1;
        }
        assert!(
            !source.would_help(p),
            "a source combination can never help the source"
        );
        let _ = arena.would_be_innovative_packed(0, &packed_probes[i % packed_probes.len()]);
        assert!(sink.is_helpful_node(&source), "source stays helpful");
        // Redundant receptions ride along: they may not allocate either.
        assert!(!sink
            .receive_packed_slice(&redundant[i % redundant.len()])
            .is_innovative());
        // Nor may steady-state recode emits (fused gathers, warm buffers).
        assert!(Recoder::new(&sink).emit_packed_row_into(&mut rng, &mut emit_buf));
    }
    let delta = alloc_calls() - before;
    assert_eq!(
        delta, 0,
        "would-help-heavy loop allocated {delta} times in steady state"
    );
    assert!(
        innovative_probes > 0,
        "probe workload never predicted an innovative packet"
    );
    assert_eq!(Gf256::SYMBOL_BYTES, 1);
}
