//! Whole-stack determinism: a seeded experiment is bit-identical across
//! runs — the property that makes every number in EXPERIMENTS.md
//! reproducible.

use algebraic_gossip_repro::gf::Gf256;
use algebraic_gossip_repro::graph::builders;
use algebraic_gossip_repro::protocols::{run_protocol, ProtocolKind, RunSpec, TrialPlan};
use algebraic_gossip_repro::queueing::LineSystem;
use algebraic_gossip_repro::sim::EngineConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn protocol_runs_are_reproducible() {
    let g = builders::barbell(12).unwrap();
    for kind in [
        ProtocolKind::UniformAg,
        ProtocolKind::RoundRobinAg,
        ProtocolKind::TagBrr(0),
        ProtocolKind::TagIs(0),
    ] {
        let make = || {
            let mut spec = RunSpec::new(kind, 6).with_seed(12345);
            spec.engine = EngineConfig::asynchronous(777).with_max_rounds(1_000_000);
            run_protocol::<Gf256>(&g, &spec).unwrap()
        };
        let (a, _) = make();
        let (b, _) = make();
        assert_eq!(a, b, "{kind:?} not reproducible");
    }
}

#[test]
fn different_seeds_differ() {
    let g = builders::grid(4, 4).unwrap();
    let run = |seed: u64| {
        let mut spec = RunSpec::new(ProtocolKind::UniformAg, 8).with_seed(seed);
        spec.engine = EngineConfig::asynchronous(seed).with_max_rounds(1_000_000);
        run_protocol::<Gf256>(&g, &spec).unwrap().0
    };
    let outcomes: Vec<u64> = (0..8).map(|s| run(s).timeslots).collect();
    let all_same = outcomes.windows(2).all(|w| w[0] == w[1]);
    assert!(
        !all_same,
        "8 seeds gave identical timeslot counts: {outcomes:?}"
    );
}

#[test]
fn random_graph_builders_are_seed_stable() {
    let mk = |seed: u64| {
        let mut rng = StdRng::seed_from_u64(seed);
        (
            builders::erdos_renyi_connected(20, 0.3, &mut rng).unwrap(),
            builders::random_regular(16, 4, &mut rng).unwrap(),
        )
    };
    let (er1, rr1) = mk(9);
    let (er2, rr2) = mk(9);
    assert_eq!(er1, er2);
    assert_eq!(rr1, rr2);
}

#[test]
fn queueing_samples_are_seed_stable() {
    let sys = LineSystem::all_at_tail(4, 10, 1.0);
    let a = sys.drain_times(50, &mut StdRng::seed_from_u64(3));
    let b = sys.drain_times(50, &mut StdRng::seed_from_u64(3));
    assert_eq!(a, b);
}

#[test]
fn parallel_trial_plan_is_bit_identical_to_serial() {
    // The tentpole determinism property: TrialPlan::run (rayon, however
    // many worker threads RAYON_NUM_THREADS grants — CI exercises both 1
    // and the default) returns the same per-trial RunStats, in the same
    // order, as the single-threaded reference executor.
    let g = builders::barbell(10).unwrap();
    for kind in [
        ProtocolKind::UniformAg,
        ProtocolKind::TagBrr(0),
        ProtocolKind::UncodedRandom,
    ] {
        let mut base = RunSpec::new(kind, 5);
        base.engine = EngineConfig::asynchronous(0).with_max_rounds(2_000_000);
        let plan = TrialPlan::new(7, 0xD37);
        let parallel = plan.run::<Gf256>(&g, &base).unwrap();
        let serial: Vec<_> = plan
            .specs(&base)
            .iter()
            .map(|spec| run_protocol::<Gf256>(&g, spec).unwrap())
            .collect();
        assert_eq!(
            parallel.results(),
            serial,
            "{kind:?} diverged under parallelism"
        );
        assert!(parallel.all_ok(), "{kind:?} had failed trials");
    }
}

#[test]
fn trial_plan_map_is_order_deterministic() {
    // map() — the escape hatch used by tree/queueing/crash experiments —
    // must also collect in trial order regardless of thread count.
    let plan = TrialPlan::new(100, 7);
    let par = plan.map(|s| (s.trial, s.protocol.wrapping_mul(s.engine)));
    let ser: Vec<_> = plan
        .seed_list()
        .into_iter()
        .map(|s| (s.trial, s.protocol.wrapping_mul(s.engine)))
        .collect();
    assert_eq!(par, ser);
    assert_eq!(par[0].0, 0);
    assert_eq!(par[99].0, 99);
}

#[test]
fn engine_and_protocol_seeds_are_independent_knobs() {
    // Same protocol seed (same generation/placement), different engine
    // seed (different wakeups) => same completion but different traffic.
    let g = builders::cycle(10).unwrap();
    let run = |engine_seed: u64| {
        let mut spec = RunSpec::new(ProtocolKind::UniformAg, 5).with_seed(42);
        spec.engine = EngineConfig::asynchronous(engine_seed).with_max_rounds(1_000_000);
        run_protocol::<Gf256>(&g, &spec).unwrap().0
    };
    let a = run(1);
    let b = run(2);
    assert!(a.completed && b.completed);
    assert_ne!(
        (a.timeslots, a.messages_delivered),
        (b.timeslots, b.messages_delivered),
        "engine seed had no effect"
    );
}
