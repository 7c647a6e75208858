//! Integration: the uncoded baseline and failure injection, cross-crate.

use algebraic_gossip_repro::gf::Gf256;
use algebraic_gossip_repro::graph::builders;
use algebraic_gossip_repro::protocols::{
    run_protocol, AgConfig, AlgebraicGossip, CrashPlan, ProtocolKind, RandomMessageGossip, RunSpec,
    WithCrashes,
};
use algebraic_gossip_repro::sim::{Engine, EngineConfig, TimeModel};

#[test]
fn uncoded_baseline_completes_on_all_families() {
    for (name, g) in [
        ("path", builders::path(10).unwrap()),
        ("grid", builders::grid(3, 4).unwrap()),
        ("barbell", builders::barbell(10).unwrap()),
        ("complete", builders::complete(10).unwrap()),
    ] {
        let mut spec = RunSpec::new(ProtocolKind::UncodedRandom, 5).with_seed(3);
        spec.ag = spec.ag.with_payload_len(2);
        spec.engine = EngineConfig::synchronous(4).with_max_rounds(1_000_000);
        let (stats, ok) = run_protocol::<Gf256>(&g, &spec).unwrap();
        assert!(stats.completed && ok, "baseline failed on {name}");
    }
}

#[test]
fn coding_gain_grows_with_k_on_complete_graph() {
    // Median over seeds; the gain should be > 2x at k = 24 and larger at
    // k = 48 (coupon collector: baseline pays ~log k).
    let gain_at = |k: usize| -> f64 {
        let g = builders::complete(k).unwrap();
        let median = |kind: ProtocolKind| -> f64 {
            let mut rounds: Vec<u64> = (0..5u64)
                .map(|s| {
                    let mut spec = RunSpec::new(kind, k).with_seed(s);
                    spec.engine = EngineConfig::synchronous(s ^ 0xF00).with_max_rounds(1_000_000);
                    let (stats, ok) = run_protocol::<Gf256>(&g, &spec).unwrap();
                    assert!(stats.completed && ok);
                    stats.rounds
                })
                .collect();
            rounds.sort_unstable();
            rounds[2] as f64
        };
        median(ProtocolKind::UncodedRandom) / median(ProtocolKind::UniformAg)
    };
    let g24 = gain_at(24);
    let g48 = gain_at(48);
    assert!(g24 > 2.0, "coding gain at k=24 only {g24:.2}");
    assert!(g48 > g24, "gain should grow with k: {g24:.2} -> {g48:.2}");
}

#[test]
fn crashes_in_async_model() {
    let g = builders::complete(16).unwrap();
    let inner =
        AlgebraicGossip::<Gf256>::new(&g, &AgConfig::new(8).with_payload_len(1), 9).unwrap();
    // Crash at the 2nd wakeup: late enough to exercise mid-run crashes,
    // early enough that both schedules fire before the survivors finish
    // regardless of the async wakeup order the seed produces.
    let plan = CrashPlan::explicit(vec![(3, 2), (12, 2)]);
    let mut proto = WithCrashes::new(inner, plan);
    let stats =
        Engine::new(EngineConfig::asynchronous(9).with_max_rounds(100_000)).run_batch(&mut proto);
    assert!(stats.completed);
    assert_eq!(proto.crashed_count(), 2);
    for v in proto.survivors() {
        assert_eq!(
            proto.inner().decoded(v).unwrap(),
            proto.inner().generation().messages()
        );
    }
}

#[test]
fn crashes_plus_loss_combined() {
    // Both failure modes at once: 10% loss and 2 crash-stops.
    let g = builders::complete(14).unwrap();
    let inner = AlgebraicGossip::<Gf256>::new(&g, &AgConfig::new(7), 11).unwrap();
    let plan = CrashPlan::explicit(vec![(6, 4), (13, 6)]);
    let mut proto = WithCrashes::new(inner, plan);
    let stats = Engine::new(
        EngineConfig::synchronous(11)
            .with_loss(0.1)
            .with_max_rounds(100_000),
    )
    .run_batch(&mut proto);
    assert!(stats.completed);
    assert!(stats.lost > 0);
}

#[test]
fn baseline_and_rlnc_share_generation_under_same_seed() {
    // Paired-comparison guarantee: same seed => identical ground truth.
    let g = builders::cycle(8).unwrap();
    let cfg = AgConfig::new(4).with_payload_len(3);
    let base = RandomMessageGossip::<Gf256>::new(&g, &cfg, 77).unwrap();
    let rlnc = AlgebraicGossip::<Gf256>::new(&g, &cfg, 77).unwrap();
    assert_eq!(base.generation(), rlnc.generation());
}

#[test]
fn baseline_slower_than_rlnc_even_async() {
    let g = builders::complete(20).unwrap();
    let run = |kind: ProtocolKind| -> u64 {
        let mut spec = RunSpec::new(kind, 20).with_seed(5);
        spec.engine = EngineConfig {
            time_model: TimeModel::Asynchronous,
            ..EngineConfig::asynchronous(6)
        }
        .with_max_rounds(1_000_000);
        let (stats, ok) = run_protocol::<Gf256>(&g, &spec).unwrap();
        assert!(stats.completed && ok);
        stats.timeslots
    };
    let base = run(ProtocolKind::UncodedRandom);
    let rlnc = run(ProtocolKind::UniformAg);
    assert!(
        base > rlnc,
        "baseline ({base} slots) should trail RLNC ({rlnc} slots)"
    );
}
