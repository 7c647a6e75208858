//! Allocation audit for the helpfulness probes: `Decoder::would_help`,
//! `Decoder::is_helpful_node` and the arena-side
//! `BasisArena::would_be_innovative_packed` must be allocation-free once
//! their scratch buffers have warmed up.
//!
//! Pull-style protocol variants and the helpful-node oracle ablation call
//! these probes once per contact — far more often than rows are actually
//! stored — so a per-probe temporary (the pre-PR 6 implementation cloned
//! the row before reducing it) multiplies into millions of allocations per
//! trial. Since the coefficient/payload split, a probe packs the `k`-byte
//! coefficient header into a reusable scratch row, reduces it there in one
//! fused pass, and never touches payload state; this test proves the whole
//! probe + redundant-receive + recode-emit cycle performs zero allocator
//! calls in steady state.
//!
//! One test only: the file has its own counting global allocator, and a
//! sibling test running concurrently would pollute the deltas (same
//! discipline as `crash_pool_audit.rs`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use ag_gf::{Gf256, SlabField};
use ag_linalg::BasisArena;
use ag_rlnc::{Decoder, Generation, Packet, Recoder};

/// Counts every allocator entry on the *armed* thread so the probe loop can
/// be proven allocation-free (not just leak-free).
struct CountingAllocator;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Armed only on the test thread around the measured loop. libtest's
    /// harness threads allocate at their own pace (result channels, capture
    /// buffers), and a process-wide counter intermittently picks those up;
    /// gating on a thread-local keeps the audit deterministic.
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
fn would_help_heavy_loop_is_allocation_free_after_warmup() {
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(0x5EED_4E1F);
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

    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    COUNTING.with(|armed| armed.set(true));
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
    COUNTING.with(|armed| armed.set(false));
    let delta = ALLOC_CALLS.load(Ordering::Relaxed) - before;
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
