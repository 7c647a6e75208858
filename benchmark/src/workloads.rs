//! The four workloads. Each `pass` builds its state from scratch, runs
//! closed-loop to completion, checks every output against the source data
//! and drops its state before returning, so no pass sees the previous
//! pass's memory.
//!
//! The benchmark measures what the library picks by default (kernel rung,
//! replay schedule, arena growth) and calls only the public surface listed
//! in `README.md`.

use std::time::Instant;

use ag_gf::Gf256;
use ag_graph::builders;
use ag_rlnc::Decoder;
use ag_sim::{Engine, EngineConfig, RunStats};
use algebraic_gossip::{
    run_protocol, AgConfig, AlgebraicGossip, Placement, ProtocolKind, RunSpec, TrialPlan,
};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use crate::env::PINNED_THREADS;
use crate::metrics::Metrics;
use crate::probes::{coded_stream, PAYLOAD};
use crate::stats::{median, quantile};
use crate::trace::{self_time_ns, CallRecord, Method, SpanId, Traced, Tracer};

/// Rounds after which a gossip run is declared failed. Every workload here
/// completes in well under a tenth of this.
const ROUND_BUDGET: u64 = 100_000;

/// One step of the SplitMix64 sequence: derives the graph, generation,
/// protocol and engine seeds of a pass from the one `--seed`.
#[must_use]
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed.wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The inputs of one run, made from `--seed` once per process, before the
/// first pass and outside every timed region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Inputs {
    /// Generation, protocol, engine and trial-plan seeds derive from this.
    pub seed: u64,
    /// The seed the gossip workloads build their graph from.
    pub graph_seed: u64,
}

/// Graph seeds [`graph_seed`] chooses among.
const GRAPH_SEED_CANDIDATES: u64 = 16;

/// A `StdRng` that counts the numbers drawn from it.
struct CountingRng {
    rng: StdRng,
    draws: u64,
}

impl RngCore for CountingRng {
    fn next_u32(&mut self) -> u32 {
        self.draws += 1;
        self.rng.next_u32()
    }

    fn next_u64(&mut self) -> u64 {
        self.draws += 1;
        self.rng.next_u64()
    }
}

/// Picks the graph seed of a gossip workload.
///
/// `random_regular` resamples until its pairing is simple and connected:
/// for degree 3 about seven attempts on average, geometrically distributed.
/// Built straight from `--seed`, the graph would cost anything from one to
/// twenty attempts, and `setup_s` (and the allocator's high-water mark)
/// would say more about the seed's luck than about the code. Of
/// [`GRAPH_SEED_CANDIDATES`] seeds derived from `seed`, this keeps the one
/// whose build drew the fewest random numbers: nine times in ten a single
/// attempt, otherwise two.
fn graph_seed(shape: &GossipShape, seed: u64) -> Result<u64, String> {
    let mut best = None;
    for candidate in (0..GRAPH_SEED_CANDIDATES).map(|i| derive_seed(seed, 16 + i)) {
        let mut rng = CountingRng {
            rng: StdRng::seed_from_u64(candidate),
            draws: 0,
        };
        builders::random_regular(shape.n, 3, &mut rng).map_err(|e| format!("graph: {e}"))?;
        if best.is_none_or(|(draws, _)| rng.draws < draws) {
            best = Some((rng.draws, candidate));
        }
    }
    Ok(best.expect("at least one candidate").1)
}

/// Uniform algebraic gossip over GF(256) on a random 3-regular graph,
/// synchronous EXCHANGE, spread placement, run to global completion.
#[derive(Debug, Clone, Copy)]
pub struct GossipShape {
    pub n: usize,
    pub k: usize,
    pub payload: usize,
}

/// One sink decoder fed a fixed recoded stream, `ops` times per pass.
#[derive(Debug, Clone, Copy)]
pub struct DecodeShape {
    pub k: usize,
    pub ops: usize,
}

/// The paper-table regime: many small asynchronous runs on a barbell
/// through `TrialPlan::run`, `k = n`.
#[derive(Debug, Clone, Copy)]
pub struct SweepShape {
    pub n: usize,
    pub payload: usize,
    pub tag_trials: u64,
    pub uniform_trials: u64,
}

/// A workload and its problem size.
#[derive(Debug, Clone, Copy)]
pub enum Workload {
    GossipPayload(GossipShape),
    GossipRank(GossipShape),
    DecodeStream(DecodeShape),
    TrialSweep(SweepShape),
}

impl Workload {
    /// The workload called `name` at the benchmark's problem size, or at a
    /// toy size (`quick`) that keeps every code path and runs in
    /// milliseconds.
    #[must_use]
    pub fn by_name(name: &str, quick: bool) -> Option<Workload> {
        Some(match (name, quick) {
            ("gossip-payload", false) => Workload::GossipPayload(GossipShape {
                n: 8192,
                k: 32,
                payload: PAYLOAD,
            }),
            ("gossip-payload", true) => Workload::GossipPayload(GossipShape {
                n: 256,
                k: 32,
                payload: PAYLOAD,
            }),
            ("gossip-rank", false) => Workload::GossipRank(GossipShape {
                n: 100_000,
                k: 8,
                payload: 0,
            }),
            ("gossip-rank", true) => Workload::GossipRank(GossipShape {
                n: 2000,
                k: 8,
                payload: 0,
            }),
            ("decode-stream", false) => Workload::DecodeStream(DecodeShape { k: 128, ops: 2000 }),
            ("decode-stream", true) => Workload::DecodeStream(DecodeShape { k: 128, ops: 40 }),
            ("trial-sweep", false) => Workload::TrialSweep(SweepShape {
                n: 64,
                payload: 16,
                tag_trials: 192,
                uniform_trials: 48,
            }),
            ("trial-sweep", true) => Workload::TrialSweep(SweepShape {
                n: 16,
                payload: 16,
                tag_trials: 8,
                uniform_trials: 4,
            }),
            _ => return None,
        })
    }

    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Workload::GossipPayload(_) => "gossip-payload",
            Workload::GossipRank(_) => "gossip-rank",
            Workload::DecodeStream(_) => "decode-stream",
            Workload::TrialSweep(_) => "trial-sweep",
        }
    }

    /// Makes the run's inputs from `--seed`.
    ///
    /// # Errors
    ///
    /// A message when the library cannot build the workload's graph.
    pub fn inputs(&self, seed: u64) -> Result<Inputs, String> {
        let graph_seed = match self {
            Workload::GossipPayload(shape) | Workload::GossipRank(shape) => {
                graph_seed(shape, seed)?
            }
            Workload::DecodeStream(_) | Workload::TrialSweep(_) => 0,
        };
        Ok(Inputs { seed, graph_seed })
    }

    /// Runs one pass. `trace` carries the measured cost of one clock read
    /// when the pass is to be traced.
    ///
    /// # Errors
    ///
    /// A message when the library rejects the workload's inputs, or when a
    /// serial `trial-sweep` trial disagrees with its parallel twin.
    pub fn pass(&self, inputs: &Inputs, trace: Option<f64>) -> Result<Pass, String> {
        match self {
            Workload::GossipPayload(shape) | Workload::GossipRank(shape) => {
                gossip_pass(shape, inputs, trace)
            }
            Workload::DecodeStream(shape) => decode_pass(shape, inputs.seed, trace.is_some()),
            Workload::TrialSweep(shape) => sweep_pass(shape, inputs.seed, trace),
        }
    }

    /// Per-layer metrics that combine a workload's traced passes with the
    /// isolated probes of the same run, both already recorded in `m`.
    #[must_use]
    pub fn derived(&self, m: &Metrics) -> LayerValues {
        let get = |name: &str| m.value(name).unwrap_or(0.0);
        match self {
            // Probe cost x exact counts / measured span, at the one
            // workload whose shape the per-call probes share. Emits are
            // priced at half rank, the mean over a run that fills every
            // node from empty; a ratio far from 1 is time the probes do
            // not explain (deferred payload replay settles inside emit).
            Workload::GossipPayload(_) => {
                let messages = get("sim.delivered") + get("sim.dedup_dropped");
                let compose_model = messages * get("rlnc.emit_ns.half") * 1e-9;
                let deliver_model = (get("core.helpful") * get("rlnc.receive_innovative_ns")
                    + get("core.redundant") * get("rlnc.receive_redundant_ns"))
                    * 1e-9;
                vec![
                    (
                        "trace.model_ratio.compose",
                        compose_model / get("core.compose_s"),
                    ),
                    (
                        "trace.model_ratio.deliver",
                        deliver_model / get("core.deliver_s"),
                    ),
                ]
            }
            // The share of a decode that `ag-rlnc` adds on top of the
            // `ag-linalg` replay of the same rows: k innovative inserts,
            // one settle, one solution.
            Workload::DecodeStream(shape) => {
                let linalg_s = shape.k as f64 * get("linalg.insert_innovative_ns") * 1e-9
                    + (get("linalg.settle_us") + get("linalg.solution_us")) * 1e-6;
                let rlnc_s = get("rlnc.decode_ms_p50") * 1e-3;
                vec![("rlnc.self_share", 1.0 - linalg_s / rlnc_s)]
            }
            Workload::GossipRank(_) | Workload::TrialSweep(_) => Vec::new(),
        }
    }
}

/// Per-layer metric values by name.
pub type LayerValues = Vec<(&'static str, f64)>;

/// What one pass measured.
#[derive(Debug)]
pub struct Pass {
    /// Seconds before the timed region: graph, protocol, decoder and
    /// packet-stream construction.
    pub setup_s: f64,
    /// Seconds of the timed region: the run plus the output check.
    pub wall_s: f64,
    /// Simulated timeslots (packets received, for `decode-stream`).
    pub slots: u64,
    /// Operations attempted: node decodes, decodes, or trials.
    pub attempted: u64,
    pub failed: u64,
    /// Exact counters: equal on every pass of one seed, traced or not.
    pub counters: Vec<(&'static str, u64)>,
    /// Equal on every pass of one seed, traced or not.
    pub run_stats: Vec<RunStats>,
    /// Per-layer metrics this pass measured.
    pub layer: LayerValues,
    pub tracer: Tracer,
}

fn sim_counters(stats: &[RunStats]) -> Vec<(&'static str, u64)> {
    let sum = |f: fn(&RunStats) -> u64| stats.iter().map(f).sum();
    vec![
        ("sim.rounds", sum(|s| s.rounds)),
        ("sim.timeslots", sum(|s| s.timeslots)),
        ("sim.delivered", sum(|s| s.messages_delivered)),
        ("sim.dedup_dropped", sum(|s| s.dedup_dropped)),
        ("sim.empty_sends", sum(|s| s.empty_sends)),
    ]
}

/// Exact totals of the runs a [`CallRecord`] covers.
#[derive(Debug, Clone, Copy, Default)]
struct RunTotals {
    run_s: f64,
    slots: u64,
    composed: u64,
    delivered: u64,
}

impl RunTotals {
    fn add(&mut self, stats: &RunStats, run_s: f64) {
        self.run_s += run_s;
        self.slots += stats.timeslots;
        self.composed += stats.messages_delivered + stats.dedup_dropped + stats.lost;
        self.delivered += stats.messages_delivered;
    }
}

/// The per-layer metrics of traced `run_batch` calls: protocol-method time
/// by sampled estimate, and the engine's self time as the `sim.run` spans
/// minus all of it.
fn call_metrics(record: &CallRecord, totals: &RunTotals, timer_ns: f64) -> LayerValues {
    let of = |m: Method| record.stats(m).estimated_s(timer_ns);
    let self_s = totals.run_s - record.children_s(timer_ns) - record.timer_cost_s(timer_ns);
    let per = |seconds: f64, count: u64| seconds * 1e9 / count.max(1) as f64;
    vec![
        ("core.on_wakeup_s", of(Method::Wakeup)),
        ("core.compose_s", of(Method::Compose)),
        ("core.deliver_s", of(Method::Deliver)),
        ("core.complete_s", of(Method::NodeComplete)),
        ("sim.self_s", self_s),
        ("sim.self_ns_per_slot", per(self_s, totals.slots)),
        (
            "core.compose_ns_per_msg",
            per(of(Method::Compose), totals.composed),
        ),
        (
            "core.deliver_ns_per_msg",
            per(of(Method::Deliver), totals.delivered),
        ),
    ]
}

fn helpful_share(helpful: u64, redundant: u64) -> f64 {
    helpful as f64 / (helpful + redundant).max(1) as f64
}

/// Share of the timed region that lies inside some layer's span; the rest
/// is the benchmark's own glue.
fn accounted_share(tracer: &Tracer, timed: SpanId) -> f64 {
    let total = tracer.spans()[timed].duration_ns().max(1);
    1.0 - self_time_ns(tracer.spans(), timed) as f64 / total as f64
}

/// Counts the nodes whose decoded messages differ from the generation.
fn undecoded_nodes(proto: &AlgebraicGossip<Gf256>, n: usize) -> u64 {
    let want = proto.generation().messages();
    (0..n)
        .filter(|&v| proto.decoded(v).is_none_or(|got| got != want))
        .count() as u64
}

fn gossip_pass(shape: &GossipShape, inputs: &Inputs, trace: Option<f64>) -> Result<Pass, String> {
    let seed = inputs.seed;
    let mut tracer = Tracer::new();
    let pass = tracer.begin("bench.pass", None);

    let setup = tracer.begin("bench.setup", Some(pass));
    let span = tracer.begin("graph.build", Some(setup));
    let mut graph_rng = StdRng::seed_from_u64(inputs.graph_seed);
    let graph =
        builders::random_regular(shape.n, 3, &mut graph_rng).map_err(|e| format!("graph: {e}"))?;
    let graph_s = tracer.end(span);
    let span = tracer.begin("core.new", Some(setup));
    let cfg = AgConfig::new(shape.k)
        .with_payload_len(shape.payload)
        .with_placement(Placement::Spread);
    let mut proto = AlgebraicGossip::<Gf256>::new(&graph, &cfg, derive_seed(seed, 2))
        .map_err(|e| format!("protocol: {e}"))?;
    let mut engine =
        Engine::new(EngineConfig::synchronous(derive_seed(seed, 3)).with_max_rounds(ROUND_BUDGET));
    let new_s = tracer.end(span);
    let setup_s = tracer.end(setup);

    let timed = tracer.begin("bench.timed", Some(pass));
    let run = tracer.begin("sim.run", Some(timed));
    let (stats, record) = if trace.is_some() {
        let mut traced = Traced::new(proto);
        let stats = engine.run_batch(&mut traced);
        let (inner, record) = traced.into_parts();
        proto = inner;
        (stats, Some(record))
    } else {
        (engine.run_batch(&mut proto), None)
    };
    let run_s = tracer.end(run);
    let verify = tracer.begin("core.verify", Some(timed));
    let failed = if stats.completed {
        undecoded_nodes(&proto, shape.n)
    } else {
        shape.n as u64
    };
    let verify_s = tracer.end(verify);
    let wall_s = tracer.end(timed);

    let (helpful, redundant) = (proto.helpful_receptions(), proto.redundant_receptions());
    drop(proto);
    drop(graph);
    tracer.end(pass);

    let mut counters = sim_counters(std::slice::from_ref(&stats));
    counters.push(("core.helpful", helpful));
    counters.push(("core.redundant", redundant));
    let mut layer = vec![
        ("graph.build_s", graph_s),
        ("core.new_s", new_s),
        ("sim.run_s", run_s),
        ("core.verify_s", verify_s),
        ("core.helpful_share", helpful_share(helpful, redundant)),
        ("trace.accounted_share", accounted_share(&tracer, timed)),
    ];
    if let (Some(record), Some(timer_ns)) = (&record, trace) {
        let mut totals = RunTotals::default();
        totals.add(&stats, run_s);
        layer.extend(call_metrics(record, &totals, timer_ns));
        tracer.adopt(run, record);
    }
    Ok(Pass {
        setup_s,
        wall_s,
        slots: stats.timeslots,
        attempted: shape.n as u64,
        failed,
        counters,
        run_stats: vec![stats],
        layer,
        tracer,
    })
}

fn decode_pass(shape: &DecodeShape, seed: u64, traced: bool) -> Result<Pass, String> {
    let mut tracer = Tracer::new();
    let pass = tracer.begin("bench.pass", None);

    let setup = tracer.begin("bench.setup", Some(pass));
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, 1));
    let (generation, packets) = coded_stream(shape.k, 2 * shape.k + 32, &mut rng);
    let setup_s = tracer.end(setup);

    let want = generation.messages();
    let (mut received, mut innovative, mut redundant, mut failed) = (0u64, 0u64, 0u64, 0u64);
    // Clock reads per operation happen on traced passes only.
    let now = || traced.then(Instant::now);
    let mut marks = Vec::with_capacity(if traced { shape.ops } else { 0 });

    let timed = tracer.begin("bench.timed", Some(pass));
    for _ in 0..shape.ops {
        let t0 = now();
        let mut sink = Decoder::<Gf256>::new(shape.k, PAYLOAD);
        let t1 = now();
        for packet in &packets {
            sink.try_receive(packet)
                .map_err(|e| format!("receive: {e}"))?;
            received += 1;
            if sink.is_complete() {
                break;
            }
        }
        let t2 = now();
        let decoded = sink.decode();
        let t3 = now();
        failed += u64::from(decoded.is_none_or(|got| got != want));
        innovative += sink.innovative_count();
        redundant += sink.redundant_count();
        drop(sink);
        if let (Some(t0), Some(t1), Some(t2), Some(t3)) = (t0, t1, t2, t3) {
            marks.push([t0, t1, t2, t3, Instant::now()]);
        }
    }
    let wall_s = tracer.end(timed);
    tracer.end(pass);

    let mut layer = Vec::new();
    if traced {
        for m in &marks {
            let op = tracer.push("rlnc.op", Some(timed), m[0], m[4]);
            tracer.push("rlnc.new", Some(op), m[0], m[1]);
            tracer.push("rlnc.receive", Some(op), m[1], m[2]);
            tracer.push("rlnc.decode", Some(op), m[2], m[3]);
            tracer.push("core.verify", Some(op), m[3], m[4]);
        }
        let op_ms: Vec<f64> = marks
            .iter()
            .map(|m| m[4].duration_since(m[0]).as_secs_f64() * 1e3)
            .collect();
        let p50 = quantile(&op_ms, 0.5);
        let decoded_mib = (shape.k * PAYLOAD) as f64 / (1024.0 * 1024.0);
        layer = vec![
            ("rlnc.new_s", tracer.total_s("rlnc.new")),
            ("rlnc.receive_s", tracer.total_s("rlnc.receive")),
            ("rlnc.decode_s", tracer.total_s("rlnc.decode")),
            ("core.verify_s", tracer.total_s("core.verify")),
            ("rlnc.decode_ms_p50", p50),
            ("rlnc.decode_ms_p99", quantile(&op_ms, 0.99)),
            ("rlnc.decode_mib_per_s", decoded_mib / (p50 * 1e-3)),
            ("trace.accounted_share", accounted_share(&tracer, timed)),
        ];
    }
    Ok(Pass {
        setup_s,
        wall_s,
        slots: received,
        attempted: shape.ops as u64,
        failed,
        counters: vec![
            ("received", received),
            ("innovative", innovative),
            ("redundant", redundant),
        ],
        run_stats: Vec::new(),
        layer,
        tracer,
    })
}

/// One cell of the sweep: a protocol and how many trials of it.
struct Cell {
    span: &'static str,
    metric: &'static str,
    base: RunSpec,
    plan: TrialPlan,
}

fn sweep_cells(shape: &SweepShape, seed: u64) -> [Cell; 2] {
    let base = |kind| {
        let mut spec = RunSpec::new(kind, shape.n);
        spec.ag = AgConfig::new(shape.n)
            .with_payload_len(shape.payload)
            .with_placement(Placement::Spread);
        spec.engine = EngineConfig::asynchronous(0).with_max_rounds(ROUND_BUDGET);
        spec
    };
    [
        Cell {
            span: "core.cell.tag-brr-async",
            metric: "core.cell_s.tag-brr-async",
            base: base(ProtocolKind::TagBrr(0)),
            plan: TrialPlan::new(shape.tag_trials, derive_seed(seed, 1)),
        },
        Cell {
            span: "core.cell.uniform-async",
            metric: "core.cell_s.uniform-async",
            base: base(ProtocolKind::UniformAg),
            plan: TrialPlan::new(shape.uniform_trials, derive_seed(seed, 2)),
        },
    ]
}

/// Times a `trial-sweep` pass sets up. One set-up takes tens of microseconds, too
/// short for a single reading to mean anything, so the pass reports the
/// median of this many.
const SWEEP_SETUPS: usize = 15;

fn sweep_pass(shape: &SweepShape, seed: u64, trace: Option<f64>) -> Result<Pass, String> {
    let mut tracer = Tracer::new();
    let pass = tracer.begin("bench.pass", None);

    let mut setups = Vec::with_capacity(SWEEP_SETUPS);
    let (graph, graph_s, cells) = loop {
        let setup = tracer.begin("bench.setup", Some(pass));
        let span = tracer.begin("graph.build", Some(setup));
        let graph = builders::barbell(shape.n).map_err(|e| format!("graph: {e}"))?;
        let graph_s = tracer.end(span);
        let cells = sweep_cells(shape, seed);
        setups.push(tracer.end(setup));
        if setups.len() == SWEEP_SETUPS {
            break (graph, graph_s, cells);
        }
    };
    let setup_s = median(&setups);

    let mut results: Vec<(RunStats, bool)> = Vec::new();
    let mut layer = vec![("graph.build_s", graph_s)];
    let timed = tracer.begin("bench.timed", Some(pass));
    for cell in &cells {
        let span = tracer.begin(cell.span, Some(timed));
        let set = cell
            .plan
            .run::<Gf256>(&graph, &cell.base)
            .map_err(|e| format!("{}: {e}", cell.span))?;
        layer.push((cell.metric, tracer.end(span)));
        results.extend_from_slice(set.results());
    }
    let wall_s = tracer.end(timed);
    layer.push(("trace.accounted_share", accounted_share(&tracer, timed)));

    if let Some(timer_ns) = trace {
        let (serial_s, serial) =
            sweep_serial(&graph, &cells, &results, timer_ns, &mut tracer, pass)?;
        layer.extend(serial);
        layer.push(("core.trial_serial_s", serial_s));
        layer.push((
            "core.plan_efficiency",
            serial_s / (PINNED_THREADS as f64 * wall_s),
        ));
    }
    tracer.end(pass);

    let failed = results
        .iter()
        .filter(|(s, ok)| !(s.completed && *ok))
        .count() as u64;
    let run_stats: Vec<RunStats> = results.into_iter().map(|(s, _)| s).collect();
    Ok(Pass {
        setup_s,
        wall_s,
        slots: run_stats.iter().map(|s| s.timeslots).sum(),
        attempted: run_stats.len() as u64,
        failed,
        counters: sim_counters(&run_stats),
        run_stats,
        layer,
        tracer,
    })
}

/// The attribution step of a traced `trial-sweep` pass: the plan's own
/// specs run one after another on this thread, a span around each trial.
/// `TrialPlan::run` hides its trials behind rayon, so this is the only
/// place they can be timed from outside. Uniform-AG trials are rebuilt
/// from the same public pieces `run_protocol` uses, under [`Traced`]; every
/// trial must reproduce the `RunStats` the parallel run returned.
///
/// Returns the seconds the serial run took, and its per-layer metrics.
fn sweep_serial(
    graph: &ag_graph::Graph,
    cells: &[Cell; 2],
    parallel: &[(RunStats, bool)],
    timer_ns: f64,
    tracer: &mut Tracer,
    pass: SpanId,
) -> Result<(f64, LayerValues), String> {
    let serial = tracer.begin("core.trial_serial", Some(pass));
    let mut trial_ms = Vec::with_capacity(parallel.len());
    let mut expected = parallel.iter();
    let mut calls = CallRecord::default();
    let mut totals = RunTotals::default();
    let (mut helpful, mut redundant) = (0u64, 0u64);

    for cell in cells {
        for spec in cell.plan.specs(&cell.base) {
            let trial = tracer.begin("core.trial", Some(serial));
            let got = if spec.kind == ProtocolKind::UniformAg {
                let span = tracer.begin("core.new", Some(trial));
                let proto = AlgebraicGossip::<Gf256>::new(graph, &spec.ag, spec.seed)
                    .map_err(|e| format!("protocol: {e}"))?;
                let mut engine = Engine::new(spec.engine);
                tracer.end(span);
                let run = tracer.begin("sim.run", Some(trial));
                let mut traced = Traced::new(proto);
                let stats = engine.run_batch(&mut traced);
                let (proto, record) = traced.into_parts();
                totals.add(&stats, tracer.end(run));
                let span = tracer.begin("core.verify", Some(trial));
                let ok = stats.completed && undecoded_nodes(&proto, graph.n()) == 0;
                tracer.end(span);
                helpful += proto.helpful_receptions();
                redundant += proto.redundant_receptions();
                tracer.adopt(run, &record);
                calls.merge(&record);
                (stats, ok)
            } else {
                run_protocol::<Gf256>(graph, &spec).map_err(|e| format!("trial: {e}"))?
            };
            trial_ms.push(tracer.end(trial) * 1e3);
            if expected.next() != Some(&got) {
                return Err(format!(
                    "serial trial {} ({}) disagrees with the parallel run",
                    trial_ms.len() - 1,
                    cell.span
                ));
            }
        }
    }
    let serial_s = tracer.end(serial);
    let mut layer = vec![
        ("core.trial_ms_p50", quantile(&trial_ms, 0.5)),
        ("core.trial_ms_p90", quantile(&trial_ms, 0.9)),
        ("core.new_s", tracer.total_s("core.new")),
        ("core.verify_s", tracer.total_s("core.verify")),
        ("sim.run_s", totals.run_s),
        ("core.helpful", helpful as f64),
        ("core.redundant", redundant as f64),
        ("core.helpful_share", helpful_share(helpful, redundant)),
    ];
    layer.extend(call_metrics(&calls, &totals, timer_ns));
    Ok((serial_s, layer))
}
