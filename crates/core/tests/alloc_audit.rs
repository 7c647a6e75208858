//! Counting-allocator audits: what the library promises to do without
//! touching the heap, checked against this file's own global allocator.
//!
//! Eight tests share one [`CountingAllocator`], which counts allocator
//! entries twice and tracks live bytes once. The per-thread call count
//! lets the serial audits run concurrently: each reads the allocator
//! entries its own thread made, and libtest's harness threads (result
//! channels, capture buffers) never show up in anyone's deltas. The
//! process-wide one is for the fan-out lane, whose workers are other
//! threads; it sees everybody, so that lane takes [`QUIET`] for writing
//! and the serial audits take it for reading. The per-thread live and
//! peak-live byte counts are for the footprint lane.
//!
//! Each lane below names the library functions it holds allocation-free,
//! and this list is the one place that says which functions are: an
//! allocation added to any of them fails its lanes (`tests/mutants/alloc-*`
//! are those mutants; `scripts/mutants.sh` runs them against this file).
//! Every lane but the footprint one also holds the node store's insert
//! path in `ag-linalg`'s `node.rs`: `NodeBasis::insert_packed` or
//! `NodeBasis::insert_packed_slice`, `Rows::settle`, and
//! `core_ops::flush_pending` wherever rows carry a payload.
//!
//! * **Bare protocol** — an `AlgebraicGossip` run with real payloads
//!   allocates for a node's first row and for nothing else: a message is a
//!   row of the protocol's message slab, sized to a round's ceiling at
//!   construction, or no row at all for a receiver whose span contains
//!   the sender's, so the per-message path is allocation-free outright; a
//!   node's coefficient rows live in the arena's slab from construction
//!   on, and its payload rows and elimination log share one allocation
//!   made, at its full-rank footprint, by the insert that stores its first
//!   row. So in every round after the first (whose window also carries the
//!   engine's one-time setup) the allocator is entered at most once per
//!   node that stored its first row that round — not at all once every
//!   node holds a row — and over the whole run at most n times. Holds
//!   `Engine::sync_round`, `Engine::admit`, `recode` and
//!   `BasisArena::insert_packed_slice`.
//! * **Rank-only lane** — the same run with no payload (k = 8, the
//!   `gossip-rank` shape) has nothing to allocate per node: after round 1
//!   it never enters the allocator. Holds the bare lane's functions.
//! * **Footprint lane** — that rank-only run's peak live heap, graph,
//!   protocol and engine round scratch together, grows by at most
//!   [`RANK_ONLY_NODE_EIGHTHS`] eighths of a byte per node, a sum of
//!   named parts, measured between two node counts so that what does not
//!   scale with `n` cancels.
//! * **Crash + loss lane** — the same for a `WithCrashes`-wrapped run under
//!   loss injection: no dedup drop, loss drop or delivery to a crashed node
//!   costs an allocation. Holds the bare lane's functions.
//! * **Asynchronous lane** — the `trial-sweep` shape (barbell(16), k = n,
//!   16-byte payloads) under uniform AG and under TAG with `B_RR`, one
//!   contact per timeslot. Every node holds a row from construction on, so
//!   no round after the first may enter the allocator at all. This is the
//!   lane that catches a protocol that forgets to rewind its message slab
//!   in `on_round_start`: an asynchronous round composes up to the slab's
//!   whole ceiling, so the next one would have to grow it. Holds
//!   `Engine::async_slot`, `Engine::admit`, `recode` and
//!   `BasisArena::insert_packed_slice`.
//! * **Fan-out lane** — the bare protocol again behind the probes'
//!   `Heavy`, whose messages clear the byte rule, in a pool of S threads:
//!   every round over S shards. A sharded round allocates per shard by
//!   design (the shards and their scratch, the job lists, the workers),
//!   all of it outside node storage: once every node holds a row a round
//!   enters the allocator at most [`FAN_OUT_CALLS_PER_SHARD`] · (S + 1)
//!   times, across all threads, however many messages it delivers and
//!   however much rank it gains. Holds `BasisShard::insert_packed_mut`,
//!   `Engine::admit` and `recode`.
//! * **Helpfulness probes** — `Decoder::would_help`,
//!   `Decoder::is_helpful_node` and `BasisArena::would_be_innovative_packed`
//!   are allocation-free once their scratch buffers have warmed up. Holds
//!   `Recoder::emit_packed_row_into`, `Decoder::receive_packed_slice`,
//!   `recode` and `BasisArena::insert_packed_slice`.
//! * **Single sink** — the `decode-stream` shape (k = 128, 1 KiB payloads)
//!   through `EchelonBasis::try_insert_packed_slice` and through
//!   `Decoder::try_receive`: each enters the allocator at construction and
//!   at its first row, and after that only for the messages `solution` /
//!   `decode` hand back — not as ranks grow, not for the blocked replay of
//!   a whole log, not for a redundant row. Holds
//!   `EchelonBasis::try_insert_packed_slice`, `Decoder::try_receive`,
//!   `BasisArena::insert_packed_mut` and `BasisArena::insert_packed_slice`.

// The counting allocator is this file's one unsafe surface: each block in
// it states why it is sound, and an `unsafe fn` body is no unsafe block.
#![warn(clippy::undocumented_unsafe_blocks)]
#![deny(unsafe_op_in_unsafe_fn)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{PoisonError, RwLock};

use ag_gf::{Gf256, SlabField};
use ag_graph::builders;
use ag_linalg::{BasisArena, EchelonBasis};
use ag_rlnc::{Decoder, Generation, Packet, Recoder};
use ag_sim::{Contact, Engine, EngineConfig, Protocol, RunStats};
use algebraic_gossip::{
    AgConfig, AlgebraicGossip, BroadcastTree, CommModel, CrashPlan, Placement, Tag, WithCrashes,
};
use probes::{in_pool, Heavy};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[path = "../../sim/tests/probes/mod.rs"]
mod probes;

/// Counts every allocator entry, per thread and process-wide, so a loop
/// can be proven allocation-free (not just leak-free).
struct CountingAllocator;

thread_local! {
    /// Allocator entries (alloc, alloc_zeroed, realloc) made by this thread.
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread allocated less the bytes it freed (a block freed
    /// on another thread than the one that allocated it counts there).
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
    /// The most [`LIVE_BYTES`] has held since [`peak_growth`] last reset it.
    static PEAK_BYTES: Cell<i64> = const { Cell::new(0) };
}

/// Allocator entries made by every thread of the process.
static PROCESS_ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

/// Held for writing by the one audit that reads [`PROCESS_ALLOC_CALLS`],
/// for reading by the others: nothing but libtest's own main thread can
/// allocate next to the former. It guards no data, so a holder that finds
/// it poisoned by another audit's failure just takes the guard.
static QUIET: RwLock<()> = RwLock::new(());

/// Counts one allocator entry that changed this thread's live bytes by
/// `grown` (negative for a shrinking realloc).
fn record_alloc(grown: i64) {
    PROCESS_ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
    // `try_with`: TLS is unavailable during thread teardown, and the
    // allocator can be entered from there.
    let _ = ALLOC_CALLS.try_with(|calls| calls.set(calls.get() + 1));
    record_bytes(grown);
}

/// Moves this thread's live bytes by `grown`, raising its peak with them.
fn record_bytes(grown: i64) {
    let _ = LIVE_BYTES.try_with(|live| {
        live.set(live.get() + grown);
        let _ = PEAK_BYTES.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

/// The bytes a block of `size` bytes counts for.
fn bytes(size: usize) -> i64 {
    i64::try_from(size).unwrap_or(i64::MAX)
}

/// How far `f` raised the calling thread's live heap above where it stood
/// when `f` began, at the highest point.
fn peak_growth(f: impl FnOnce()) -> i64 {
    let base = LIVE_BYTES.with(Cell::get);
    PEAK_BYTES.with(|peak| peak.set(base));
    f();
    PEAK_BYTES.with(Cell::get) - base
}

/// Allocator entries the calling thread has made so far.
fn alloc_calls() -> u64 {
    ALLOC_CALLS.with(Cell::get)
}

/// Allocator entries the whole process has made so far.
fn process_alloc_calls() -> u64 {
    PROCESS_ALLOC_CALLS.load(Ordering::Relaxed)
}

// SAFETY: delegates verbatim to `System`; the counters are a side channel.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record_alloc(bytes(layout.size()));
        // SAFETY: forwards `layout` untouched to `System.alloc`.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record_alloc(bytes(layout.size()));
        // SAFETY: forwards `layout` untouched to `System.alloc_zeroed`.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record_alloc(bytes(new_size) - bytes(layout.size()));
        // SAFETY: forwards the caller's `ptr`/`layout`/`new_size` (valid per
        // the GlobalAlloc contract) untouched to `System.realloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        record_bytes(-bytes(layout.size()));
        // SAFETY: forwards the caller's `ptr`/`layout` (valid per the
        // GlobalAlloc contract) untouched to `System.dealloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// One round's window: the allocator entries made in it, the nodes that
/// stored their first row in it and the rank the whole network gained.
#[derive(Debug)]
struct RoundWindow {
    round: u64,
    allocs: u64,
    first_rows: u64,
    rank_gained: u64,
}

/// How many of `n` nodes hold a row, and the rank they hold in total.
fn holders_and_rank(n: usize, rank: impl Fn(usize) -> usize) -> (u64, u64) {
    (0..n).map(rank).fold((0, 0), |(holders, total), r| {
        (holders + u64::from(r > 0), total + r as u64)
    })
}

/// Runs `proto` under `engine` on the calling thread and returns the stats
/// plus every round's window; `calls` is the allocator counter to read and
/// `progress` reads [`holders_and_rank`] off the protocol. The baseline
/// snapshot taken before the run makes round 1's window observable too: it
/// carries the engine's one-time per-run setup (`RunStats` buffers, round
/// scratch), which allocates inside `run` ahead of the first round.
fn round_windows<P: Protocol>(
    proto: &mut P,
    mut engine: Engine,
    calls: fn() -> u64,
    progress: impl Fn(&P) -> (u64, u64),
) -> (RunStats, Vec<RoundWindow>) {
    // Preallocated so the observer itself never allocates inside the
    // measured loop.
    let mut snapshots: Vec<(u64, u64, (u64, u64))> = Vec::with_capacity(4096);
    snapshots.push((0, calls(), progress(proto)));
    let stats = engine.run_observed(proto, &mut |round, p: &P| {
        snapshots.push((round, calls(), progress(p)));
    });
    let windows = snapshots
        .windows(2)
        .map(|w| RoundWindow {
            round: w[1].0,
            allocs: w[1].1 - w[0].1,
            first_rows: w[1].2 .0 - w[0].2 .0,
            rank_gained: w[1].2 .1 - w[0].2 .1,
        })
        .collect();
    (stats, windows)
}

/// The storage contract over a whole serial run of `n` nodes: after round
/// 1 a round enters the allocator at most once per node that stored its
/// first row in it (a node that stores payloads owns one allocation), so
/// not at all once every node holds one; and the run, setup included, at
/// most n times.
fn assert_allocations_are_first_rows_only(windows: &[RoundWindow], n: usize) {
    let leaking: Vec<&RoundWindow> = windows
        .iter()
        .filter(|w| w.round > 1 && w.allocs > w.first_rows)
        .collect();
    assert!(
        leaking.is_empty(),
        "rounds allocating beyond their first rows: {leaking:?}"
    );
    let total: u64 = windows.iter().map(|w| w.allocs).sum();
    assert!(
        total <= n as u64,
        "{total} allocator calls over the run; one allocation per node allows {n}"
    );
}

/// rr(3) on `n` nodes, `k` messages of `r` bytes over GF(2⁸), EXCHANGE:
/// the protocol and the seed its engine runs on.
fn protocol(n: usize, k: usize, r: usize) -> (AlgebraicGossip<Gf256>, u64) {
    let seed = 0x51AB_51AB;
    let mut grng = StdRng::seed_from_u64(seed ^ 0xE0);
    let graph = builders::random_regular(n, 3, &mut grng).expect("rr(3)");
    let cfg = AgConfig::new(k)
        .with_payload_len(r)
        .with_placement(Placement::Spread);
    let proto = AlgebraicGossip::<Gf256>::new(&graph, &cfg, seed).expect("protocol");
    (proto, seed ^ 0x1)
}

/// The audited path is also the correct one: decoded bytes are the
/// generation's.
fn assert_decoded(proto: &AlgebraicGossip<Gf256>) {
    let n = proto.num_nodes();
    for v in [0, 1, 2, n / 2, n - 1] {
        assert_eq!(
            proto.decoded(v).as_deref(),
            Some(proto.generation().messages()),
            "node {v} failed to decode — codec bug"
        );
    }
}

#[test]
fn bare_protocol_allocates_only_for_rank_growth() {
    let _shared = QUIET.read().unwrap_or_else(PoisonError::into_inner);
    // A round of the run below moves 2 · 1024 rows of 1056 bytes, above the
    // size from which the default engine shards a round when rayon has
    // more than one thread — so it sits inside a one-thread pool, where the
    // engine's rule picks the serial round on any machine.
    in_pool(1, bare_protocol_audit);
}

fn bare_protocol_audit() {
    let n = 1024;
    let (mut proto, engine_seed) = protocol(n, 32, 1024);
    let engine = Engine::new(EngineConfig::synchronous(engine_seed).with_max_rounds(4000));
    let (stats, windows) = round_windows(&mut proto, engine, alloc_calls, |p| {
        holders_and_rank(n, |v| p.rank(v))
    });
    assert!(stats.completed, "completion run hit the round budget");
    assert_allocations_are_first_rows_only(&windows, n);
    assert!(
        stats.rounds >= 6,
        "run too short ({} rounds) to call the loop steady",
        stats.rounds
    );
    assert_decoded(&proto);
}

#[test]
fn rank_only_run_never_allocates_after_setup() {
    let _shared = QUIET.read().unwrap_or_else(PoisonError::into_inner);
    // 2 · 4096 rows of 8 bytes: far below the fan-out size, serial on any
    // rayon pool.
    let n = 4096;
    let (mut proto, engine_seed) = protocol(n, 8, 0);
    let engine = Engine::new(EngineConfig::synchronous(engine_seed).with_max_rounds(4000));
    let (stats, windows) = round_windows(&mut proto, engine, alloc_calls, |p| {
        holders_and_rank(n, |v| p.rank(v))
    });
    assert!(stats.completed, "completion run hit the round budget");
    let allocating: Vec<&RoundWindow> = windows
        .iter()
        .filter(|w| w.round > 1 && w.allocs > 0)
        .collect();
    assert!(
        allocating.is_empty(),
        "a rank-only node has nothing to allocate: {allocating:?}"
    );
    let first_rows: u64 = windows.iter().map(|w| w.first_rows).sum();
    assert!(
        stats.rounds >= 6 && first_rows >= (n - 8) as u64,
        "{} rounds, {first_rows} first rows: not the run this audit is about",
        stats.rounds
    );
}

/// What a node of the rank-only run (k = 8 over GF(2⁸), EXCHANGE on a
/// random 3-regular graph) holds at the run's peak, in bytes, part by
/// part. The graph's CSR: one `u32` offset and three `u32` targets.
const CSR_BYTES: usize = 4 + 3 * 4;
/// The arena: a head of eight 2-byte pivot-map entries and eight 8-byte
/// coefficient rows, a `u32` rank and a `u32` span class.
const HEAD_RANK_CLASS_BYTES: usize = 8 * (2 + 8) + 4 + 4;
/// The pair ledger's slot: a partner and a count, `u32` each.
const LEDGER_SLOT_BYTES: usize = 8;
/// The message slab: one 8-byte row per contact direction.
const SLAB_ROW_BYTES: usize = 2 * 8;
/// The engine's per-node state: the node's 8-byte contact entry (a `u32`
/// partner and a `u32` tag), its two slot-table entries (an `Option` of
/// the protocol's message each) and its flag byte (send, live and
/// completion bits). No list of incomplete nodes: the completion sweep
/// walks the flag bytes.
const CONTACT_BYTES: usize = 8;
const SLOT_BYTES: usize = 2 * 4;
const FLAG_BYTES: usize = 1;
/// The protocol's bit in its set of full nodes, in eighths of a byte.
const FULL_BIT_EIGHTHS: usize = 1;

/// The sum of the named parts, in eighths of a byte.
const RANK_ONLY_NODE_EIGHTHS: usize = 8
    * (CSR_BYTES
        + HEAD_RANK_CLASS_BYTES
        + LEDGER_SLOT_BYTES
        + SLAB_ROW_BYTES
        + CONTACT_BYTES
        + SLOT_BYTES
        + FLAG_BYTES)
    + FULL_BIT_EIGHTHS;

// The parts that are the size of a type, checked against it.
const _: () = assert!(size_of::<Contact>() == CONTACT_BYTES);
const _: () =
    assert!(2 * size_of::<Option<<AlgebraicGossip<Gf256> as Protocol>::Msg>>() == SLOT_BYTES);

/// The footprint lane: from `SMALL` to `LARGE` nodes the rank-only run's
/// peak live heap, the graph's construction, the protocol's and a whole run
/// included, grows by the named parts per node and by no more than one byte
/// less: the bound is the footprint, not headroom.
#[test]
fn rank_only_peak_heap_is_the_named_parts_per_node() {
    let _shared = QUIET.read().unwrap_or_else(PoisonError::into_inner);
    // Multiples of 64: the set of full nodes is whole `u64` words.
    const SMALL: usize = 4096;
    const LARGE: usize = 16384;
    let peak = |n| {
        peak_growth(|| {
            let (mut proto, engine_seed) = protocol(n, 8, 0);
            let stats = Engine::new(EngineConfig::synchronous(engine_seed)).run_batch(&mut proto);
            assert!(stats.completed, "completion run hit the round budget");
        })
    };
    let (small, large) = (peak(SMALL), peak(LARGE));
    let grown = usize::try_from(large - small).expect("a larger run peaks higher");
    let nodes = LARGE - SMALL;
    assert!(
        8 * grown <= nodes * RANK_ONLY_NODE_EIGHTHS,
        "{grown} B for {nodes} more nodes; the named parts allow {} eighths a node",
        RANK_ONLY_NODE_EIGHTHS
    );
    assert!(
        8 * grown > nodes * (RANK_ONLY_NODE_EIGHTHS - 8),
        "{grown} B for {nodes} more nodes: a named part is no longer held"
    );
}

/// Allocator entries a sharded round may make once every node holds a
/// row, over both phases and all threads: this many per shard, and as
/// many again for the round. A shard costs its box and scratch (four
/// allocations a phase, made on the main thread), the delivery sort's
/// buffer and a worker in each phase; a round costs two phases' shard and
/// job lists. Measured on one worker per shard, under the test harness's
/// output capture: 48 calls at 2 shards and 162 at 8, every settled round
/// alike. None of them is node storage, which a settled round has no
/// reason to touch, and none is per message. The bound sits below what
/// per-shard message-buffer lists (a stash of rows to compose into, a
/// residue handed back afterwards) make a round cost, 70 calls at 2
/// shards and 228 at 8, so bringing them back fails it.
const FAN_OUT_CALLS_PER_SHARD: u64 = 20;

#[test]
fn fanned_out_round_allocates_per_shard_once_every_node_holds_a_row() {
    let _alone = QUIET.write().unwrap_or_else(PoisonError::into_inner);
    // `Heavy` puts every round over the byte rule, so the rows can be
    // short: what a round allocates does not depend on their length.
    let n = 1024;
    for shards in [2, 8] {
        let (proto, engine_seed) = protocol(n, 32, 64);
        let engine = Engine::new(EngineConfig::synchronous(engine_seed).with_max_rounds(4000));
        let mut heavy = Heavy {
            proto,
            shards: true,
        };
        // As many threads as shards, whatever `RAYON_NUM_THREADS` says:
        // each phase spawns a worker per shard.
        let (stats, windows) = in_pool(shards, || {
            round_windows(&mut heavy, engine, process_alloc_calls, |h| {
                holders_and_rank(n, |v| h.proto.rank(v))
            })
        });
        assert!(stats.completed, "completion run hit the round budget");
        assert_decoded(&heavy.proto);

        let bound = FAN_OUT_CALLS_PER_SHARD * (shards as u64 + 1);
        let last_first_row = windows.iter().rposition(|w| w.first_rows > 0);
        let settled = &windows[last_first_row.map_or(0, |i| i + 1)..];
        assert!(settled.len() >= 6, "only {} settled rounds", settled.len());
        let over: Vec<&RoundWindow> = settled.iter().filter(|w| w.allocs > bound).collect();
        assert!(
            over.is_empty(),
            "{shards} shards: settled rounds allocating beyond {bound}: {over:?}"
        );
        // The bound says something: those rounds deliver and gain several
        // times more than they may allocate.
        let busiest = settled.iter().map(|w| w.rank_gained).max().unwrap_or(0);
        let delivered_per_round = stats.messages_delivered / stats.rounds;
        assert!(
            busiest >= 4 * bound && delivered_per_round >= 4 * bound,
            "{shards} shards: {busiest} rank in a round, {delivered_per_round} messages, bound {bound}"
        );
    }
}

#[test]
fn crash_and_loss_run_allocates_only_for_rank_growth() {
    let _shared = QUIET.read().unwrap_or_else(PoisonError::into_inner);
    // `WithCrashes` offers no shards, and 2 · 96 rows of 40 bytes are far
    // below the fan-out size: serial on any rayon pool.
    let n = 96;
    let k = 8;
    let seed = 0xC4A5_4E57;
    let mut grng = StdRng::seed_from_u64(seed);
    let graph = builders::random_regular(n, 3, &mut grng).expect("rr(3)");
    let cfg = AgConfig::new(k).with_payload_len(32);
    let inner = AlgebraicGossip::<Gf256>::new(&graph, &cfg, seed).expect("protocol");
    // Crash a deterministic batch of non-holders (spread placement seeds
    // 0..k) at staggered wakeups, including two dead-on-arrival nodes, so
    // every gated path — DOA, mid-run crash, deliver-to-dead — runs.
    let plan = CrashPlan::explicit(vec![(20, 1), (21, 1), (40, 2), (41, 3), (60, 5), (61, 8)]);
    let mut proto = WithCrashes::new(inner, plan);

    let engine = Engine::new(
        EngineConfig::synchronous(seed ^ 0x1)
            .with_loss(0.3)
            .with_max_rounds(3_000),
    );
    let (stats, windows) = round_windows(&mut proto, engine, alloc_calls, |p| {
        holders_and_rank(n, |v| p.inner().rank(v))
    });
    assert!(stats.completed, "survivors must finish within the budget");
    assert_eq!(proto.crashed_count(), 6);

    // No dedup drop, loss drop or delivery to a crashed node may cost an
    // allocation: only a node's first row does.
    assert_allocations_are_first_rows_only(&windows, n);
    assert!(
        stats.rounds >= 5,
        "run too short ({} rounds) to call the loop steady",
        stats.rounds
    );
    // The scenario genuinely exercised the drop paths.
    assert!(stats.lost > 0, "loss injection never fired");
}

/// One asynchronous run of `proto` on the calling thread, audited like
/// the bare protocol: `rank` reads a node's rank off it.
fn audit_asynchronous<P: Protocol>(proto: &mut P, n: usize, rank: impl Fn(&P, usize) -> usize) {
    let engine = Engine::new(EngineConfig::asynchronous(0xA5_7C).with_max_rounds(100_000));
    let (stats, windows) = round_windows(proto, engine, alloc_calls, |p| {
        holders_and_rank(n, |v| rank(p, v))
    });
    assert!(stats.completed, "completion run hit the round budget");
    assert!(
        stats.rounds >= 6,
        "run too short ({} rounds) to call the loop steady",
        stats.rounds
    );
    assert_allocations_are_first_rows_only(&windows, n);
}

#[test]
fn asynchronous_runs_allocate_only_for_first_rows() {
    let _shared = QUIET.read().unwrap_or_else(PoisonError::into_inner);
    let n = 16;
    let seed = 0x7A6_5EED;
    let graph = builders::barbell(n).expect("barbell");
    let cfg = AgConfig::new(n)
        .with_payload_len(16)
        .with_placement(Placement::Spread);

    let mut ag = AlgebraicGossip::<Gf256>::new(&graph, &cfg, seed).expect("protocol");
    audit_asynchronous(&mut ag, n, |p, v| p.rank(v));
    assert_decoded(&ag);

    let brr = BroadcastTree::new(&graph, 0, CommModel::RoundRobin, seed).expect("B_RR");
    let mut tag = Tag::<Gf256, _>::new(&graph, brr, &cfg, seed).expect("TAG");
    audit_asynchronous(&mut tag, n, |p, v| p.rank(v));
    for v in 0..n {
        assert_eq!(
            tag.decoded(v).as_deref(),
            Some(tag.generation().messages()),
            "TAG node {v} failed to decode"
        );
    }
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
    let _shared = QUIET.read().unwrap_or_else(PoisonError::into_inner);
    let mut rng = StdRng::seed_from_u64(0x5EED_4E1F);
    let k = 16;
    let r = 64;
    let g = Generation::<Gf256>::random(k, r, &mut rng);
    let source = Decoder::with_all_messages(&g);

    // A partially filled sink: its probes do real elimination work.
    let mut sink = Decoder::<Gf256>::new(k, r);
    let mut arena = BasisArena::<Gf256>::try_new(1, k, k + r).expect("a small arena fits");
    while sink.rank() < k / 2 {
        let mut row = Recoder::new(&source)
            .emit_packed_row(&mut rng)
            .expect("source emits");
        let a = sink.receive_packed_slice(&row).is_innovative();
        let b = arena.insert_packed_mut(0, &mut row).is_innovative();
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

/// Feeds a stream of `len` rows to `sink` through `receive`: up to full
/// rank every stored row twice (the repeat is redundant and reduced in
/// full), then `settle` on the whole log, then the rest of the stream.
/// Over GF(2⁸) from a full-rank source the stream is innovative until the
/// sink is full, which the callers' decodes confirm. Returns the allocator
/// calls the first row made and those every later step made.
fn single_sink_calls<S>(
    sink: &mut S,
    len: usize,
    receive: impl Fn(&mut S, usize) -> bool,
    settle: impl Fn(&S),
) -> (u64, u64) {
    let before = alloc_calls();
    let mut stored = receive(sink, 0);
    assert!(stored, "a full source's first row is innovative");
    let first_row = alloc_calls();
    let mut next = 0;
    while stored {
        assert!(!receive(sink, next), "the same row again is redundant");
        next += 1;
        stored = receive(sink, next);
    }
    settle(sink);
    for i in next + 1..len {
        assert!(!receive(sink, i), "a full sink takes nothing");
    }
    (first_row - before, alloc_calls() - first_row)
}

#[test]
fn single_sink_allocates_at_construction_and_first_row_only() {
    let _shared = QUIET.read().unwrap_or_else(PoisonError::into_inner);
    let mut rng = StdRng::seed_from_u64(0x51AB_51AB);
    let (k, r) = (128, 1024);
    let g = Generation::<Gf256>::random(k, r, &mut rng);
    let source = Decoder::with_all_messages(&g);
    let packets: Vec<Packet<Gf256>> = (0..k + 32)
        .map(|_| Recoder::new(&source).emit(&mut rng).expect("source emits"))
        .collect();
    let rows: Vec<Vec<u8>> = packets.iter().map(Packet::to_packed_row).collect();

    let mut basis = EchelonBasis::<Gf256>::new(k);
    let (first, later) = single_sink_calls(
        &mut basis,
        rows.len(),
        |b, i| {
            b.try_insert_packed_slice(&rows[i])
                .expect("stream rows have the basis shape")
                .is_innovative()
        },
        EchelonBasis::settle,
    );
    assert!(first > 0, "the first row sizes the store");
    assert_eq!(later, 0, "EchelonBasis allocated after its first row");
    assert_eq!(basis.solution().as_deref(), Some(g.messages()));

    let mut sink = Decoder::<Gf256>::new(k, r);
    let (first, later) = single_sink_calls(
        &mut sink,
        packets.len(),
        |d, i| {
            d.try_receive(&packets[i])
                .expect("stream packets have the sink shape")
                .is_innovative()
        },
        Decoder::settle,
    );
    assert!(first > 0, "the first row stores a payload");
    assert_eq!(
        later, 0,
        "Decoder::try_receive allocated after its first row"
    );
    assert_eq!(sink.decode().as_deref(), Some(g.messages()));
}
