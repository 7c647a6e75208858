//! Outside-in tracing: spans recorded from the benchmark's own files around
//! the calls into each layer. Nothing in the library is instrumented.
//!
//! [`Tracer`] holds the span tree of one pass. [`Traced`] wraps a
//! [`Protocol`] and forwards every method to it, timing a deterministic
//! sample of the calls; the engine's self time is then the `sim.run` span
//! minus everything the protocol methods account for.

use std::cell::{Cell, RefCell};
use std::time::Instant;

use ag_sim::{ContactIntent, Protocol};
use rand::rngs::StdRng;

use crate::json::Json;

/// Index of a span within its [`Tracer`].
pub type SpanId = usize;

/// One timed interval: what ran, when, and which span caused it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<SpanId>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The spans of one pass, kept in memory until the benchmark ends.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    #[must_use]
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            start_ns: now,
            end_ns: now,
        });
        self.spans.len() - 1
    }

    /// Records a span whose two ends were read earlier.
    pub fn push(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let ns = |t: Instant| t.duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            parent,
            start_ns: ns(start),
            end_ns: ns(end),
        });
        self.spans.len() - 1
    }

    /// Closes a span and returns its duration in seconds.
    pub fn end(&mut self, id: SpanId) -> f64 {
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].duration_ns() as f64 * 1e-9
    }

    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total seconds of every span called `name`.
    #[must_use]
    pub fn total_s(&self, name: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .sum();
        ns as f64 * 1e-9
    }

    /// Adopts the sampled call spans of a [`Traced`] run as children of
    /// `parent` (the `sim.run` span they happened under), up to
    /// [`MAX_KEPT_SPANS`] per tracer.
    pub fn adopt(&mut self, parent: SpanId, record: &CallRecord) {
        let Some(epoch) = record.epoch else { return };
        let offset = epoch.duration_since(self.epoch).as_nanos() as u64;
        let room = MAX_KEPT_SPANS.saturating_sub(self.spans.len());
        self.spans.extend(
            record
                .spans
                .iter()
                .take(room)
                .map(|&(method, start, end)| Span {
                    name: method.span_name(),
                    parent: Some(parent),
                    start_ns: start + offset,
                    end_ns: end + offset,
                }),
        );
    }

    /// The span list as JSON, for `out/trace-<workload>.json`.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj([
                        ("name", Json::str(s.name)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                    ])
                })
                .collect(),
        )
    }
}

/// A span's self time: its duration minus the part of that interval its
/// direct children cover. Overlapping children are counted once and
/// children are clipped to the parent's interval.
#[must_use]
pub fn self_time_ns(spans: &[Span], id: SpanId) -> u64 {
    let parent = &spans[id];
    let mut children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| {
            (
                s.start_ns.clamp(parent.start_ns, parent.end_ns),
                s.end_ns.clamp(parent.start_ns, parent.end_ns),
            )
        })
        .collect();
    children.sort_unstable();
    let mut covered = 0;
    let mut reach = parent.start_ns;
    for (start, end) in children {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    parent.duration_ns() - covered
}

/// The [`Protocol`] methods the engine calls on its hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    RoundStart,
    Wakeup,
    Compose,
    Deliver,
    Discard,
    NodeComplete,
}

impl Method {
    pub const ALL: [Method; 6] = [
        Method::RoundStart,
        Method::Wakeup,
        Method::Compose,
        Method::Deliver,
        Method::Discard,
        Method::NodeComplete,
    ];

    #[must_use]
    pub fn span_name(self) -> &'static str {
        match self {
            Method::RoundStart => "core.on_round_start",
            Method::Wakeup => "core.on_wakeup",
            Method::Compose => "core.compose",
            Method::Deliver => "core.deliver",
            Method::Discard => "core.discard",
            Method::NodeComplete => "core.node_complete",
        }
    }
}

/// Mean gap between two timed calls of one method. Timing every call
/// doubles `gossip-rank`'s wall time (13.6 M calls of a few dozen ns
/// each); one call in about thirty-two keeps the overhead within a few
/// percent while the call *counts* stay exact.
const MEAN_SAMPLE_GAP: u64 = 32;

/// Sampled call spans kept for one trace file; calls sampled beyond it
/// still count towards the totals.
const MAX_KEPT_SPANS: usize = 50_000;

/// Reads the CPU's tick counter.
///
/// `Instant::now()` orders itself against the surrounding instructions, so
/// a call timed with it runs without the overlap it has with its
/// neighbours in the untimed flow. On `gossip-rank`, whose calls are short
/// and miss the cache, the method times estimated that way summed to more
/// than the whole run. The bare counter read does not serialise, costs
/// half as much, and is converted to nanoseconds per run against
/// `Instant` (see [`Traced::into_parts`]).
#[cfg(target_arch = "x86_64")]
#[inline]
#[allow(unsafe_code)]
pub fn ticks() -> u64 {
    // SAFETY: RDTSC has no preconditions: it reads a counter every x86-64
    // CPU has and touches no memory.
    unsafe { core::arch::x86_64::_rdtsc() }
}

/// Reads a nanosecond counter (no cheaper clock on this architecture).
#[cfg(not(target_arch = "x86_64"))]
#[inline]
pub fn ticks() -> u64 {
    static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

#[derive(Debug, Default)]
struct MethodCells {
    calls: Cell<u64>,
    timed: Cell<u64>,
    timed_ticks: Cell<u64>,
    warm_ticks: Cell<u64>,
    next_timed: Cell<u64>,
    lcg: Cell<u64>,
}

/// Exact call counts and sampled timings of one method over one run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MethodStats {
    pub calls: u64,
    pub timed: u64,
    pub timed_ns: f64,
    /// Nanoseconds between the warming clock read and the one that starts
    /// the interval, summed over the timed calls.
    pub warm_ns: f64,
}

impl MethodStats {
    /// Estimated total seconds inside the method: the sampled mean, less
    /// the one clock read each timed interval contains, times the exact
    /// call count.
    #[must_use]
    pub fn estimated_s(&self, timer_ns: f64) -> f64 {
        if self.timed == 0 {
            return 0.0;
        }
        let mean = (self.timed_ns / self.timed as f64 - timer_ns).max(0.0);
        mean * self.calls as f64 * 1e-9
    }
}

/// What one [`Traced`] run recorded, or several merged.
#[derive(Debug, Clone, Default)]
pub struct CallRecord {
    /// When the recorded run started; `None` for an empty record.
    epoch: Option<Instant>,
    stats: [MethodStats; Method::ALL.len()],
    /// `(method, start_ns, end_ns)` relative to `epoch`.
    spans: Vec<(Method, u64, u64)>,
}

impl CallRecord {
    #[must_use]
    pub fn stats(&self, method: Method) -> MethodStats {
        self.stats[method as usize]
    }

    /// Adds another run's counts and timings (its spans stay behind).
    pub fn merge(&mut self, other: &CallRecord) {
        for (mine, theirs) in self.stats.iter_mut().zip(&other.stats) {
            mine.calls += theirs.calls;
            mine.timed += theirs.timed;
            mine.timed_ns += theirs.timed_ns;
            mine.warm_ns += theirs.warm_ns;
        }
    }

    /// Seconds the clock reads themselves added to the enclosing span:
    /// three per timed call, the first at its measured in-place cost.
    #[must_use]
    pub fn timer_cost_s(&self, timer_ns: f64) -> f64 {
        let timed: u64 = self.stats.iter().map(|s| s.timed).sum();
        let warm_ns: f64 = self.stats.iter().map(|s| s.warm_ns).sum();
        (warm_ns + 2.0 * timer_ns * timed as f64) * 1e-9
    }

    /// Estimated seconds inside all protocol methods together.
    #[must_use]
    pub fn children_s(&self, timer_ns: f64) -> f64 {
        self.stats.iter().map(|s| s.estimated_s(timer_ns)).sum()
    }
}

/// Decides which calls are timed, and keeps what the timed ones measured.
///
/// A per-method counter and a fixed linear-congruential gap sequence (gaps
/// of 1 to 63 calls, mean [`MEAN_SAMPLE_GAP`]) pick the calls:
/// deterministic, but not periodic, so the sample cannot lock onto the
/// node order of a synchronous round.
#[derive(Debug)]
struct Sampler {
    epoch: Instant,
    epoch_ticks: u64,
    cells: [MethodCells; Method::ALL.len()],
    /// `(method, start, end)` in ticks since `epoch_ticks`.
    spans: RefCell<Vec<(Method, u64, u64)>>,
}

impl Sampler {
    fn new() -> Self {
        let cells: [MethodCells; Method::ALL.len()] = Default::default();
        for (i, c) in cells.iter().enumerate() {
            c.lcg.set(0x9E37_79B9_7F4A_7C15 ^ i as u64);
        }
        Sampler {
            epoch: Instant::now(),
            epoch_ticks: ticks(),
            cells,
            spans: RefCell::new(Vec::new()),
        }
    }

    /// Runs `call`, timing it if this is one of the sampled calls.
    #[inline]
    fn time<R>(&self, method: Method, call: impl FnOnce() -> R) -> R {
        let c = &self.cells[method as usize];
        let index = c.calls.get();
        c.calls.set(index + 1);
        if index != c.next_timed.get() {
            return call();
        }
        // The first read pays for whatever of the clock path the simulation
        // evicted since the last timed call; the interval proper then holds
        // the call and one warm read, which is what `cal.timer_ns` measures.
        let warm = ticks();
        let start = ticks();
        let result = call();
        let end = ticks();
        c.timed.set(c.timed.get() + 1);
        c.timed_ticks
            .set(c.timed_ticks.get() + end.wrapping_sub(start));
        c.warm_ticks
            .set(c.warm_ticks.get() + start.wrapping_sub(warm));
        let lcg = c
            .lcg
            .get()
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        c.lcg.set(lcg);
        c.next_timed
            .set(index + 1 + (lcg >> 33) % (2 * MEAN_SAMPLE_GAP - 1));
        let mut spans = self.spans.borrow_mut();
        if spans.len() < MAX_KEPT_SPANS {
            spans.push((
                method,
                start.wrapping_sub(self.epoch_ticks),
                end.wrapping_sub(self.epoch_ticks),
            ));
        }
        result
    }

    /// Converts everything recorded from ticks to nanoseconds, by the ratio
    /// of the two clocks over the sampler's own lifetime.
    fn finish(self) -> CallRecord {
        let elapsed_ticks = ticks().wrapping_sub(self.epoch_ticks).max(1);
        let ns_per_tick = self.epoch.elapsed().as_nanos() as f64 / elapsed_ticks as f64;
        let ns = |t: u64| t as f64 * ns_per_tick;
        let stats = std::array::from_fn(|i| {
            let c = &self.cells[i];
            MethodStats {
                calls: c.calls.get(),
                timed: c.timed.get(),
                timed_ns: ns(c.timed_ticks.get()),
                warm_ns: ns(c.warm_ticks.get()),
            }
        });
        let spans = self
            .spans
            .into_inner()
            .into_iter()
            .map(|(m, start, end)| (m, ns(start) as u64, ns(end) as u64))
            .collect();
        CallRecord {
            epoch: Some(self.epoch),
            stats,
            spans,
        }
    }
}

/// A transparent [`Protocol`] wrapper that times a sample of the calls.
///
/// Transparency is the contract: the wrapper draws no randomness, keeps no
/// state the protocol can see and forwards every method, defaults included,
/// so a traced run returns a `RunStats` equal to the untraced run's. The
/// benchmark asserts that on every traced pass.
#[derive(Debug)]
pub struct Traced<P> {
    inner: P,
    sampler: Sampler,
}

impl<P: Protocol> Traced<P> {
    pub fn new(inner: P) -> Self {
        Traced {
            inner,
            sampler: Sampler::new(),
        }
    }

    /// Unwraps the protocol and what was recorded around it.
    pub fn into_parts(self) -> (P, CallRecord) {
        (self.inner, self.sampler.finish())
    }
}

impl<P: Protocol> Protocol for Traced<P> {
    type Msg = P::Msg;

    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }

    fn on_round_start(&mut self, round: u64) {
        let Traced { inner, sampler } = self;
        sampler.time(Method::RoundStart, || inner.on_round_start(round));
    }

    fn on_wakeup(&mut self, node: usize, rng: &mut StdRng) -> Option<ContactIntent> {
        let Traced { inner, sampler } = self;
        sampler.time(Method::Wakeup, || inner.on_wakeup(node, rng))
    }

    fn compose(&self, from: usize, to: usize, tag: u32, rng: &mut StdRng) -> Option<P::Msg> {
        self.sampler
            .time(Method::Compose, || self.inner.compose(from, to, tag, rng))
    }

    fn deliver(&mut self, from: usize, to: usize, tag: u32, msg: P::Msg) {
        let Traced { inner, sampler } = self;
        sampler.time(Method::Deliver, || inner.deliver(from, to, tag, msg));
    }

    fn discard(&mut self, msg: P::Msg) {
        let Traced { inner, sampler } = self;
        sampler.time(Method::Discard, || inner.discard(msg));
    }

    fn node_complete(&self, node: usize) -> bool {
        self.sampler
            .time(Method::NodeComplete, || self.inner.node_complete(node))
    }

    fn is_complete(&self) -> bool {
        self.inner.is_complete()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ag_gf::Gf256;
    use ag_graph::builders;
    use ag_sim::{Engine, EngineConfig};
    use algebraic_gossip::{AgConfig, AlgebraicGossip};

    fn span(name: &'static str, parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_direct_children() {
        let spans = vec![
            span("root", None, 100, 1100),
            span("a", Some(0), 200, 400),
            // Overlaps `a`: only 400..500 is new cover.
            span("b", Some(0), 300, 500),
            // Sticks out of the parent: clipped to 1000..1100.
            span("c", Some(0), 1000, 1300),
            // A grandchild covers nothing of the root directly.
            span("a.inner", Some(1), 210, 390),
            // Somebody else's child.
            span("other", Some(1), 600, 900),
        ];
        assert_eq!(self_time_ns(&spans, 0), 1000 - 300 - 100);
        assert_eq!(self_time_ns(&spans, 1), 200 - 180);
        assert_eq!(self_time_ns(&spans, 4), 180);
    }

    #[test]
    fn tracer_nests_spans_and_sums_by_name() {
        let mut t = Tracer::new();
        let root = t.begin("bench.pass", None);
        let a = t.begin("core.new", Some(root));
        let a_s = t.end(a);
        let b = t.begin("core.new", Some(root));
        let b_s = t.end(b);
        t.end(root);
        assert_eq!(t.spans()[a].parent, Some(root));
        assert!((t.total_s("core.new") - (a_s + b_s)).abs() < 1e-12);
        assert!(self_time_ns(t.spans(), root) <= t.spans()[root].duration_ns());
        assert_eq!(t.to_json().elements().len(), 3);
    }

    #[test]
    fn traced_is_transparent_on_a_4x4_grid() {
        let graph = builders::grid(4, 4).unwrap();
        let cfg = AgConfig::new(8).with_payload_len(4);
        for engine_cfg in [EngineConfig::synchronous(7), EngineConfig::asynchronous(7)] {
            let mut plain = AlgebraicGossip::<Gf256>::new(&graph, &cfg, 7).unwrap();
            let plain_stats = Engine::new(engine_cfg).run_batch(&mut plain);

            let mut traced = Traced::new(AlgebraicGossip::<Gf256>::new(&graph, &cfg, 7).unwrap());
            let traced_stats = Engine::new(engine_cfg).run_batch(&mut traced);
            let (proto, record) = traced.into_parts();

            assert!(plain_stats.completed);
            assert_eq!(traced_stats, plain_stats);
            assert_eq!(proto.helpful_receptions(), plain.helpful_receptions());
            assert_eq!(proto.redundant_receptions(), plain.redundant_receptions());
            for v in 0..16 {
                assert_eq!(proto.decoded(v), plain.decoded(v));
            }

            // Counts are exact whatever the sampling did.
            let composed = plain_stats.messages_delivered
                + plain_stats.dedup_dropped
                + plain_stats.lost
                + plain_stats.empty_sends;
            assert_eq!(record.stats(Method::Compose).calls, composed);
            assert_eq!(
                record.stats(Method::Deliver).calls,
                plain_stats.messages_delivered
            );
            assert_eq!(
                record.stats(Method::Discard).calls,
                plain_stats.dedup_dropped
            );
            assert_eq!(record.stats(Method::Wakeup).calls, plain_stats.timeslots);
            let timed = record.stats(Method::Compose).timed;
            assert!(timed >= 1 && timed <= composed);
        }
    }

    #[test]
    fn sampling_times_about_one_call_in_thirty_two() {
        let graph = builders::grid(4, 4).unwrap();
        let cfg = AgConfig::new(16).with_payload_len(1);
        let mut traced = Traced::new(AlgebraicGossip::<Gf256>::new(&graph, &cfg, 3).unwrap());
        let mut rng = <StdRng as rand::SeedableRng>::seed_from_u64(1);
        for i in 0..32_000 {
            let _ = traced.on_wakeup(i % 16, &mut rng);
        }
        let (_, record) = traced.into_parts();
        let s = record.stats(Method::Wakeup);
        assert_eq!(s.calls, 32_000);
        assert!((800..=1250).contains(&s.timed), "timed {} calls", s.timed);
        assert!(s.timed_ns > 0.0 && s.warm_ns > 0.0);
        // A zero-cost method estimates to zero, never negative.
        assert_eq!(MethodStats::default().estimated_s(25.0), 0.0);
        let cheap = MethodStats {
            calls: 10,
            timed: 2,
            timed_ns: 20.0,
            warm_ns: 0.0,
        };
        assert_eq!(cheap.estimated_s(25.0), 0.0);
    }
}
