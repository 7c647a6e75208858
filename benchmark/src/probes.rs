//! Isolated per-layer probes at the workloads' own shapes, plus the
//! same-run machine calibration that normalises them across machines.
//!
//! Every probe calls a layer's public functions directly and reports the
//! median of [`REPS`] timed batches. The shapes are the two the workloads
//! run: `gossip-payload`'s k = 32 and `decode-stream`'s k = 128, both with
//! 1 KiB payloads over GF(256).

use std::hint::black_box;
use std::time::{Duration, Instant};

use ag_gf::{Gf2, Gf256, SlabField};
use ag_linalg::EchelonBasis;
use ag_rlnc::{Decoder, Generation, Packet, Recoder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::metrics::Metrics;
use crate::stats::median;

/// Timed batches per probe; the median is reported.
const REPS: usize = 5;

/// Minimum length of one timed batch.
const BATCH: Duration = Duration::from_millis(10);

const KIB: usize = 1024;
const MIB: usize = 1024 * 1024;
const GIB: f64 = (1024 * 1024 * 1024) as f64;

/// Payload bytes per message in every payload-carrying workload.
pub const PAYLOAD: usize = KIB;

/// Median seconds per call over [`REPS`] batches, where `batch(calls)`
/// makes that many calls and returns the time they took. The batch size
/// doubles from one call until a batch lasts [`BATCH`].
fn median_per_call_s(mut batch: impl FnMut(u64) -> Duration) -> f64 {
    batch(1);
    let mut calls = 1u64;
    while batch(calls) < BATCH {
        calls *= 2;
    }
    let samples: Vec<f64> = (0..REPS)
        .map(|_| batch(calls).as_secs_f64() / calls as f64)
        .collect();
    median(&samples)
}

/// Median seconds per call of `f`, timing whole batches of calls.
fn per_call_s(mut f: impl FnMut()) -> f64 {
    median_per_call_s(|calls| {
        let start = Instant::now();
        for _ in 0..calls {
            f();
        }
        start.elapsed()
    })
}

/// Median seconds per call of `run`, with a fresh untimed `setup` before
/// each call. Every `run` here takes microseconds, so the two clock reads
/// around it are noise.
fn per_call_with_setup_s<S>(mut setup: impl FnMut() -> S, mut run: impl FnMut(&mut S)) -> f64 {
    median_per_call_s(|calls| {
        let mut total = Duration::ZERO;
        for _ in 0..calls {
            let mut state = setup();
            let start = Instant::now();
            run(&mut state);
            total += start.elapsed();
        }
        total
    })
}

fn random_bytes(len: usize, rng: &mut StdRng) -> Vec<u8> {
    (0..len).map(|_| rng.gen()).collect()
}

/// Factors that are neither 0 nor 1, so no kernel takes a shortcut.
fn dense_factors(len: usize, rng: &mut StdRng) -> Vec<u8> {
    (0..len).map(|_| rng.gen_range(2..=255u8)).collect()
}

/// The cost of one read of the tracing clock, in nanoseconds: what
/// [`crate::trace`] subtracts from every sampled call.
#[must_use]
pub fn timer_ns() -> f64 {
    per_call_s(|| {
        black_box(crate::trace::ticks());
    }) * 1e9
}

/// `cal.*`: copy and XOR bandwidth over 1 MiB buffers (source plus
/// destination are 2 MiB, inside the 4 MiB L2 the GF kernels' `.1m` probe
/// also runs in).
fn calibration(m: &mut Metrics, rng: &mut StdRng) {
    let src = random_bytes(MIB, rng);
    let mut dst = random_bytes(MIB, rng);
    let copy = per_call_s(|| {
        dst.copy_from_slice(black_box(&src));
        black_box(&mut dst);
    });
    m.set("cal.memcpy_gib_s", MIB as f64 / GIB / copy);
    let xor = per_call_s(|| {
        for (d, s) in dst.chunks_exact_mut(8).zip(black_box(&src).chunks_exact(8)) {
            let v = u64::from_ne_bytes((&*d).try_into().expect("8-byte chunk"))
                ^ u64::from_ne_bytes(s.try_into().expect("8-byte chunk"));
            d.copy_from_slice(&v.to_ne_bytes());
        }
        black_box(&mut dst);
    });
    m.set("cal.xor_gib_s", MIB as f64 / GIB / xor);
}

/// `gf.*`: the four slab kernels at the row shapes the workloads feed them.
fn gf(m: &mut Metrics, rng: &mut StdRng) {
    let c = Gf256::new(0x53);
    for (name, len) in [("gf.axpy_gib_s.1k", KIB), ("gf.axpy_gib_s.1m", MIB)] {
        let src = random_bytes(len, rng);
        let mut dst = random_bytes(len, rng);
        let t = per_call_s(|| Gf256::mul_add_slice(c, black_box(&src), black_box(&mut dst)));
        m.set(name, len as f64 / GIB / t);
    }

    // k = 32 rows of 1 KiB: one recode emit (gather) and one
    // back-substitution (scatter) of `gossip-payload`.
    let rows = 32;
    let factors = dense_factors(rows, rng);
    let slab = random_bytes(rows * KIB, rng);
    let mut row = random_bytes(KIB, rng);
    let t = per_call_s(|| {
        Gf256::mul_add_multi(black_box(&factors), black_box(&slab), black_box(&mut row));
    });
    m.set("gf.multi_gib_s.32x1k", (rows * KIB) as f64 / GIB / t);
    let mut slab = slab;
    let t = per_call_s(|| {
        Gf256::mul_add_scatter(black_box(&factors), black_box(&row), black_box(&mut slab));
    });
    m.set("gf.scatter_gib_s.32x1k", (rows * KIB) as f64 / GIB / t);

    // The 128 x 128 panel over 1 KiB rows: `decode-stream`'s whole flush.
    let k = 128;
    let coefs = dense_factors(k * k, rng);
    let srcs = random_bytes(k * KIB, rng);
    let mut dsts = random_bytes(k * KIB, rng);
    let t = per_call_s(|| {
        Gf256::mul_add_block(
            black_box(&coefs),
            black_box(&srcs),
            black_box(&mut dsts),
            KIB,
        );
    });
    m.set("gf.block_gmul_s.128", (k * k * KIB) as f64 / 1e9 / t);

    let src = random_bytes(KIB, rng);
    let mut dst = random_bytes(KIB, rng);
    let t = per_call_s(|| Gf2::mul_add_slice(Gf2::new(1), black_box(&src), black_box(&mut dst)));
    m.set("gf.axpy_gib_s.gf2.1k", KIB as f64 / GIB / t);
}

/// A full-rank source for a random generation of `k` messages, and `count`
/// recoded packets from it.
#[must_use]
pub fn coded_stream(
    k: usize,
    count: usize,
    rng: &mut StdRng,
) -> (Generation<Gf256>, Vec<Packet<Gf256>>) {
    let generation = Generation::<Gf256>::random(k, PAYLOAD, rng);
    let source = Decoder::with_all_messages(&generation);
    let recoder = Recoder::new(&source);
    let packets = (0..count)
        .map(|_| recoder.emit(rng).expect("a full-rank source always emits"))
        .collect();
    (generation, packets)
}

/// A basis holding the first `rank` innovative rows of `rows`.
fn basis_of(k: usize, rank: usize, rows: &[Vec<u8>]) -> EchelonBasis<Gf256> {
    let mut basis = EchelonBasis::new(k);
    for row in rows {
        if basis.rank() == rank {
            break;
        }
        basis
            .try_insert_packed_slice(row)
            .expect("stream rows have the basis shape");
    }
    assert_eq!(basis.rank(), rank, "stream too short to reach rank {rank}");
    basis
}

/// `linalg.*`: `EchelonBasis` replaying `decode-stream`'s packed rows
/// (k = 128), and the recoder's gather on a k = 32 half-rank basis.
fn linalg(m: &mut Metrics, rng: &mut StdRng) {
    let k = 128;
    let (_, packets) = coded_stream(k, 2 * k + 32, rng);
    let rows: Vec<Vec<u8>> = packets.iter().map(Packet::to_packed_row).collect();

    let fill = |basis: &mut EchelonBasis<Gf256>| {
        for row in &rows {
            if basis.is_full() {
                break;
            }
            let _ = black_box(basis.try_insert_packed_slice(row));
        }
    };
    let insert_all = per_call_with_setup_s(|| EchelonBasis::<Gf256>::new(k), fill);
    // Over GF(256) a stream from a full-rank source is innovative until the
    // basis fills (a redundant row has probability 2^-8 at the very end).
    m.set("linalg.insert_innovative_ns", insert_all / k as f64 * 1e9);

    let mut full = basis_of(k, k, &rows);
    let mut next = 0;
    let t = per_call_s(|| {
        let _ = black_box(full.try_insert_packed_slice(&rows[next % rows.len()]));
        next += 1;
    });
    m.set("linalg.insert_redundant_ns", t * 1e9);
    let t = per_call_s(|| {
        black_box(full.would_be_innovative_packed(&rows[next % rows.len()]));
        next += 1;
    });
    m.set("linalg.probe_ns", t * 1e9);

    let settle = per_call_with_setup_s(|| basis_of(k, k, &rows), |basis| basis.settle());
    m.set("linalg.settle_us", settle * 1e6);
    let solution = per_call_with_setup_s(
        || {
            let basis = basis_of(k, k, &rows);
            basis.settle();
            basis
        },
        |basis| {
            black_box(basis.solution());
        },
    );
    m.set("linalg.solution_us", solution * 1e6);

    let k32 = 32;
    let (_, packets) = coded_stream(k32, 2 * k32, rng);
    let rows32: Vec<Vec<u8>> = packets.iter().map(Packet::to_packed_row).collect();
    let half = basis_of(k32, k32 / 2, &rows32);
    half.settle();
    let factors = dense_factors(half.rank(), rng);
    let mut out = vec![0u8; half.row_bytes()];
    let t = per_call_s(|| half.accumulate_rows_into(black_box(&factors), black_box(&mut out)));
    m.set("linalg.accumulate_ns", t * 1e9);
}

/// `rlnc.*` per-call probes at `gossip-payload`'s shape (k = 32, 1 KiB):
/// what one compose (emit) and one deliver (receive) of that workload cost
/// in isolation. `decode-stream`'s k = 128 receive cost comes from its own
/// spans instead.
fn rlnc(m: &mut Metrics, rng: &mut StdRng) {
    let k = 32;
    let (generation, packets) = coded_stream(k, 2 * k, rng);

    // As in the linalg probe, the stream is innovative until the sink fills.
    let fill = per_call_with_setup_s(
        || Decoder::<Gf256>::new(k, PAYLOAD),
        |d| {
            for p in &packets {
                if d.is_complete() {
                    break;
                }
                let _ = black_box(d.try_receive(p));
            }
        },
    );
    m.set("rlnc.receive_innovative_ns", fill / k as f64 * 1e9);

    let mut half = Decoder::<Gf256>::new(k, PAYLOAD);
    for p in &packets {
        if half.rank() == k / 2 {
            break;
        }
        half.try_receive(p)
            .expect("stream packets have the decoder shape");
    }
    half.settle();
    // Packets recoded from the half-rank node itself lie in its span.
    let in_span: Vec<Packet<Gf256>> = (0..64)
        .map(|_| Recoder::new(&half).emit(rng).expect("rank 16 node emits"))
        .collect();
    let mut sink = half.clone();
    let mut next = 0;
    let t = per_call_s(|| {
        let _ = black_box(sink.try_receive(&in_span[next % in_span.len()]));
        next += 1;
    });
    assert_eq!(sink.rank(), k / 2, "in-span packets must all be redundant");
    m.set("rlnc.receive_redundant_ns", t * 1e9);

    let t = per_call_s(|| {
        black_box(half.would_help(&packets[next % packets.len()]));
        next += 1;
    });
    m.set("rlnc.would_help_ns", t * 1e9);

    let full = Decoder::with_all_messages(&generation);
    full.settle();
    let mut out = Vec::new();
    for (name, node) in [("rlnc.emit_ns.full", &full), ("rlnc.emit_ns.half", &half)] {
        let recoder = Recoder::new(node);
        let t = per_call_s(|| {
            black_box(recoder.emit_packed_row_into(rng, &mut out));
        });
        m.set(name, t * 1e9);
    }
}

/// Runs every probe and records its metric. `timer_ns` is the clock cost
/// the traced passes of this run were corrected with.
pub fn run_all(m: &mut Metrics, seed: u64, timer_ns: f64) {
    let mut rng = StdRng::seed_from_u64(seed);
    m.set("cal.timer_ns", timer_ns);
    calibration(m, &mut rng);
    gf(m, &mut rng);
    linalg(m, &mut rng);
    rlnc(m, &mut rng);
}
