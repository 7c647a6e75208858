//! Differential lock for the round loop: [`Engine`] and the test-only
//! oracle loop in `oracle/` ([`ReferenceEngine`]) must produce
//! bit-identical [`RunStats`], observer traces and per-node completion
//! rounds for every protocol, graph, time model, action, loss rate and
//! dedup setting. The engine keeps no per-node record: its side is what
//! an observer sees (`completion/`), the oracle's is its own record.
//!
//! The engine keeps persistent scratch, resolves same-sender dedup with an
//! analytic rule over the intent table while it merges, composes slot by
//! slot, and sweeps an incomplete-node list; the oracle allocates per
//! round, composes everything first, dedups through a hash set at delivery
//! time and sweeps all `n` flags. None of that may be visible in the
//! results. The oracle also derives the per-slot compose keys on its own,
//! so the [`AlgebraicGossip`] lanes below (whose `compose` draws
//! coefficients) fail if either side's keying drifts. This suite is the
//! engine-level analogue of `crates/rlnc/tests/differential_decoder.rs`.

mod completion;
mod oracle;

use ag_gf::Gf2;
use ag_graph::{builders, ChurnSchedule, Graph, NodeId, ScheduledTopology, Topology};
use ag_sim::{
    Action, CommModel, ContactIntent, Engine, EngineConfig, PartnerSelector, Protocol, RunStats,
};
use algebraic_gossip::{AgConfig, AlgebraicGossip, CrashPlan, Placement, WithCrashes};
use completion::run_with_completion;
use oracle::ReferenceEngine;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Epidemic flooding with a configurable action — every engine code path
/// (forward, backward, both, empty sends via uninformed composers) fires.
/// Generic over the topology view so the same protocol drives the static
/// lanes and the dynamic (scheduled-churn) lane.
struct Flood<T: Topology = Graph> {
    topology: T,
    informed: Vec<bool>,
    selector: PartnerSelector,
    action: Action,
}

impl<T: Topology> Flood<T> {
    fn new(topology: T, action: Action, comm: CommModel, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let selector = PartnerSelector::new(&topology, comm, &mut rng);
        let mut informed = vec![false; topology.n()];
        informed[0] = true;
        Flood {
            topology,
            informed,
            selector,
            action,
        }
    }
}

impl<T: Topology> Protocol for Flood<T> {
    type Msg = ();

    fn num_nodes(&self) -> usize {
        self.topology.n()
    }

    fn on_round_start(&mut self, round: u64) {
        self.topology.advance_to_epoch(round.saturating_sub(1));
    }

    fn on_wakeup(&mut self, node: NodeId, rng: &mut StdRng) -> Option<ContactIntent> {
        let partner = self.selector.next_partner(&self.topology, node, rng)?;
        Some(ContactIntent {
            partner,
            action: self.action,
            tag: 0,
        })
    }

    fn compose(&self, from: NodeId, _to: NodeId, _tag: u32, _rng: &mut StdRng) -> Option<()> {
        self.informed[from].then_some(())
    }

    fn deliver(&mut self, _from: NodeId, to: NodeId, _tag: u32, _msg: ()) {
        self.informed[to] = true;
    }

    fn node_complete(&self, node: NodeId) -> bool {
        self.informed[node]
    }
}

/// Observer trace entry: round number plus a state fingerprint.
type Trace = Vec<(u64, u64)>;

fn flood_fingerprint<T: Topology>(p: &Flood<T>) -> u64 {
    p.informed.iter().map(|&b| u64::from(b)).sum()
}

fn run_both_on<T: Topology + Clone>(
    topology: &T,
    action: Action,
    comm: CommModel,
    cfg: EngineConfig,
    proto_seed: u64,
) -> ((RunStats, Trace), (RunStats, Trace)) {
    let mut fast_proto = Flood::new(topology.clone(), action, comm, proto_seed);
    let mut fast_trace = Trace::new();
    let (fast, fast_finished) =
        run_with_completion(&mut Engine::new(cfg), &mut fast_proto, |r, p| {
            fast_trace.push((r, flood_fingerprint(p)));
        });
    let mut ref_proto = Flood::new(topology.clone(), action, comm, proto_seed);
    let mut ref_trace = Trace::new();
    let (slow, ref_finished) = ReferenceEngine::new(cfg).run_observed(&mut ref_proto, |r, p| {
        ref_trace.push((r, flood_fingerprint(p)));
    });
    assert_eq!(
        fast_proto.informed, ref_proto.informed,
        "final state diverged"
    );
    assert_eq!(
        fast_finished, ref_finished,
        "per-node completion rounds diverged"
    );
    assert_eq!(
        fast_proto.topology.epoch(),
        ref_proto.topology.epoch(),
        "engines advanced topologies to different epochs"
    );
    ((fast, fast_trace), (slow, ref_trace))
}

fn run_both(
    graph: &Graph,
    action: Action,
    comm: CommModel,
    cfg: EngineConfig,
    proto_seed: u64,
) -> ((RunStats, Trace), (RunStats, Trace)) {
    run_both_on(graph, action, comm, cfg, proto_seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Fast and reference engines agree on stats and traces across random
    /// connected graphs, every action, both partner models, both time
    /// models, loss in {0, ~0.3}, dedup on and off.
    #[test]
    fn engines_are_bit_identical(
        seed in any::<u64>(),
        n in 4usize..24,
        p_edge in 0.2f64..0.8,
        action_pick in 0u8..3,
        comm_pick in 0u8..2,
        sync in any::<bool>(),
        lossy in any::<bool>(),
        dedup in any::<bool>(),
    ) {
        let action = match action_pick {
            0 => Action::Push,
            1 => Action::Pull,
            _ => Action::Exchange,
        };
        let comm = if comm_pick == 0 { CommModel::Uniform } else { CommModel::RoundRobin };
        let mut graph_rng = StdRng::seed_from_u64(seed);
        let graph = builders::erdos_renyi_connected(n, p_edge, &mut graph_rng)
            .unwrap_or_else(|_| builders::cycle(n.max(3)).unwrap());
        let mut cfg = if sync {
            EngineConfig::synchronous(seed)
        } else {
            EngineConfig::asynchronous(seed)
        }
        .with_dedup(dedup)
        .with_max_rounds(10_000);
        if lossy {
            cfg = cfg.with_loss(0.3);
        }
        let ((fast, fast_trace), (slow, slow_trace)) =
            run_both(&graph, action, comm, cfg, seed ^ 0xD1FF);
        prop_assert_eq!(fast, slow);
        prop_assert_eq!(fast_trace, slow_trace);
    }

    /// The dynamic lane: fast and reference engines must call the
    /// round-start hook at identical round boundaries, so a protocol over
    /// a `ScheduledTopology` sees the same epoch sequence — and therefore
    /// the same neighbors, messages, stats and traces — under both loops.
    /// Runs every churn family, both time models, both partner models,
    /// loss on and off. Completion is *not* asserted: churn may legally
    /// disconnect the graph for the whole budget.
    #[test]
    fn dynamic_engines_are_bit_identical(
        seed in any::<u64>(),
        n in 4usize..20,
        p_edge in 0.3f64..0.8,
        schedule_pick in 0u8..4,
        comm_pick in 0u8..2,
        sync in any::<bool>(),
        lossy in any::<bool>(),
    ) {
        let comm = if comm_pick == 0 { CommModel::Uniform } else { CommModel::RoundRobin };
        let mut graph_rng = StdRng::seed_from_u64(seed);
        let graph = builders::erdos_renyi_connected(n, p_edge, &mut graph_rng)
            .unwrap_or_else(|_| builders::cycle(n.max(3)).unwrap());
        let schedule = match schedule_pick {
            0 => ChurnSchedule::rewire(0.3, seed),
            1 => ChurnSchedule::Flip { count: 2, seed },
            2 => {
                let edge = graph.edges().next().expect("connected graph has edges");
                ChurnSchedule::bridge_cut(edge, 2, 2)
            }
            _ => ChurnSchedule::partition_heal(graph.n() / 2, 2, 2),
        };
        let topo = ScheduledTopology::new(&graph, schedule);
        let mut cfg = if sync {
            EngineConfig::synchronous(seed)
        } else {
            EngineConfig::asynchronous(seed)
        }
        .with_max_rounds(2_000);
        if lossy {
            cfg = cfg.with_loss(0.3);
        }
        let ((fast, fast_trace), (slow, slow_trace)) =
            run_both_on(&topo, Action::Exchange, comm, cfg, seed ^ 0xD74A);
        prop_assert_eq!(fast, slow);
        prop_assert_eq!(fast_trace, slow_trace);
    }
}

/// The adversarial fixed case: a barbell whose bridge is cut 3 epochs out
/// of 4. Both engines must agree round for round, and the run must
/// actually exercise the cut (flooding crosses only during up windows).
#[test]
fn bridge_cut_barbell_matches_reference() {
    let graph = builders::barbell(12).expect("barbell");
    let bridge = (5, 6);
    for seed in 0..20u64 {
        let topo = ScheduledTopology::new(&graph, ChurnSchedule::bridge_cut(bridge, 1, 3));
        let cfg = EngineConfig::synchronous(seed).with_max_rounds(5_000);
        let ((fast, fast_trace), (slow, slow_trace)) =
            run_both_on(&topo, Action::Exchange, CommModel::Uniform, cfg, seed);
        assert!(fast.completed, "flooding must finish once the bridge is up");
        assert_eq!(fast, slow, "stats diverged at seed {seed}");
        assert_eq!(fast_trace, slow_trace, "traces diverged at seed {seed}");
    }
}

/// The dedup-heavy worst case: EXCHANGE on the complete graph makes
/// mutual contacts (and hence duplicate `(from, to)` pairs) common, so the
/// analytic dedup rule is exercised against the reference hash set in
/// volume and in both first-wins orientations (`u < v` and `v < u`).
#[test]
fn dedup_storm_matches_reference() {
    let graph = builders::complete(12).expect("complete");
    let mut total_dedup_drops = 0;
    for seed in 0..40u64 {
        let cfg = EngineConfig::synchronous(seed).with_max_rounds(10_000);
        let ((fast, fast_trace), (slow, slow_trace)) =
            run_both(&graph, Action::Exchange, CommModel::Uniform, cfg, seed);
        total_dedup_drops += fast.dedup_dropped;
        assert_eq!(fast, slow, "stats diverged at seed {seed}");
        assert_eq!(fast_trace, slow_trace, "traces diverged at seed {seed}");
    }
    assert!(
        total_dedup_drops > 0,
        "40 EXCHANGE runs on K12 must hit mutual contacts"
    );
}

/// Mid-round asynchronous completions: the final observation (ceiling
/// round number, completed state) is part of the contract the oracle
/// shares with the engine.
#[test]
fn async_final_observation_matches_reference() {
    let graph = builders::cycle(7).expect("cycle");
    for seed in 0..40u64 {
        let cfg = EngineConfig::asynchronous(seed).with_max_rounds(10_000);
        let ((fast, fast_trace), (slow, slow_trace)) =
            run_both(&graph, Action::Exchange, CommModel::Uniform, cfg, seed);
        assert!(fast.completed);
        assert_eq!(fast, slow, "stats diverged at seed {seed}");
        assert_eq!(fast_trace, slow_trace, "traces diverged at seed {seed}");
        assert_eq!(fast_trace.last().map(|&(r, _)| r), Some(fast.rounds));
    }
}

/// The compose-drawing lane. `Flood` ignores its compose RNG, so every
/// lane above is blind to *which* stream a message's randomness comes
/// from. Algebraic gossip over GF(2) is not: each EXCHANGE draws fresh
/// coefficients, and at q = 2 about half of all draws are unhelpful, so
/// the rank and helpful/redundant trajectories move with any change to
/// the per-slot keys on either side. Loss and dedup are both active (and
/// asserted to fire), so the main-RNG loss draws and the drop paths are
/// compared as well.
#[test]
fn compose_drawing_protocol_matches_reference() {
    type AgTrace = Vec<(u64, [u64; 3])>;
    let fingerprint = |p: &AlgebraicGossip<Gf2>| {
        [
            p.total_rank() as u64,
            p.helpful_receptions(),
            p.redundant_receptions(),
        ]
    };
    let mut graph_rng = StdRng::seed_from_u64(0xA6);
    let graphs = [
        builders::complete(10).expect("complete"),
        builders::erdos_renyi_connected(17, 0.3, &mut graph_rng).expect("connected G(n,p)"),
    ];
    let (mut total_dedup_drops, mut total_lost) = (0, 0);
    for (graph, comm) in graphs
        .iter()
        .flat_map(|g| [(g, CommModel::Uniform), (g, CommModel::RoundRobin)])
    {
        for seed in 0..12u64 {
            let ag_cfg = AgConfig::new(6).with_payload_len(3).with_comm_model(comm);
            let cfg = EngineConfig::synchronous(seed)
                .with_loss(0.2)
                .with_max_rounds(20_000);
            let build = || AlgebraicGossip::<Gf2>::new(graph, &ag_cfg, seed ^ 0xC0DE).expect("ag");
            let (mut fast_proto, mut ref_proto) = (build(), build());
            let (mut fast_trace, mut ref_trace) = (AgTrace::new(), AgTrace::new());
            let (fast, fast_finished) =
                run_with_completion(&mut Engine::new(cfg), &mut fast_proto, |r, p| {
                    fast_trace.push((r, fingerprint(p)));
                });
            let (slow, ref_finished) = ReferenceEngine::new(cfg)
                .run_observed(&mut ref_proto, |r, p| ref_trace.push((r, fingerprint(p))));
            assert!(fast.completed, "AG must finish at seed {seed}");
            assert_eq!(fast, slow, "stats diverged at seed {seed}");
            assert_eq!(fast_trace, ref_trace, "traces diverged at seed {seed}");
            assert_eq!(
                fast_finished, ref_finished,
                "completion diverged at seed {seed}"
            );
            for v in 0..graph.n() {
                assert_eq!(fast_proto.decoded(v), ref_proto.decoded(v));
            }
            total_dedup_drops += fast.dedup_dropped;
            total_lost += fast.lost;
        }
    }
    assert!(total_dedup_drops > 0, "dedup must be exercised");
    assert!(total_lost > 0, "loss must be exercised");
}

/// Algebraic gossip over GF(2) under the crash wrapper, which silences
/// crashed nodes, drops what is delivered to them and forwards the
/// engine's drops to the protocol inside: a deterministic fifth of the
/// nodes crashes at their third wakeup.
fn crash_wrapped_ag(n: usize, k: usize, seed: u64) -> WithCrashes<AlgebraicGossip<Gf2>> {
    let mut graph_rng = StdRng::seed_from_u64(seed);
    let graph = builders::erdos_renyi_connected(n, 0.4, &mut graph_rng)
        .unwrap_or_else(|_| builders::cycle(n.max(3)).unwrap());
    let ag_cfg = AgConfig::new(k)
        .with_payload_len(2)
        .with_placement(Placement::Spread);
    let inner = AlgebraicGossip::<Gf2>::new(&graph, &ag_cfg, seed).expect("ag");
    WithCrashes::new(inner, CrashPlan::random_fraction(n, 0.2, 3, seed ^ 0xDEAD))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The crash lane: a crash-wrapped algebraic-gossip run, under both
    /// time models, with and without loss, is the same run under both
    /// loops.
    #[test]
    fn crash_wrapped_protocol_matches_reference(
        seed in any::<u64>(),
        n in 6usize..20,
        k in 2usize..6,
        sync in any::<bool>(),
        lossy in any::<bool>(),
    ) {
        let mut cfg = if sync {
            EngineConfig::synchronous(seed)
        } else {
            EngineConfig::asynchronous(seed)
        }
        .with_max_rounds(5_000);
        if lossy {
            cfg = cfg.with_loss(0.2);
        }
        let rank = |p: &WithCrashes<AlgebraicGossip<Gf2>>| p.inner().total_rank() as u64;
        let (mut fast_proto, mut ref_proto) =
            (crash_wrapped_ag(n, k, seed), crash_wrapped_ag(n, k, seed));
        let (mut fast_trace, mut ref_trace) = (Trace::new(), Trace::new());
        let (fast, fast_finished) =
            run_with_completion(&mut Engine::new(cfg), &mut fast_proto, |r, p| {
                fast_trace.push((r, rank(p)));
            });
        let (slow, ref_finished) = ReferenceEngine::new(cfg)
            .run_observed(&mut ref_proto, |r, p| ref_trace.push((r, rank(p))));
        prop_assert_eq!(fast, slow);
        prop_assert_eq!(fast_trace, ref_trace);
        prop_assert_eq!(fast_finished, ref_finished);
    }
}
