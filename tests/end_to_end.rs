//! End-to-end integration: every protocol × topology × time model × field
//! combination completes and decodes correct data.

use algebraic_gossip_repro::gf::{Gf2, Gf256, F13, F257};
use algebraic_gossip_repro::graph::{builders, Graph};
use algebraic_gossip_repro::protocols::{run_protocol, Placement, ProtocolKind, RunSpec};
use algebraic_gossip_repro::sim::EngineConfig;

fn families(n: usize) -> Vec<(&'static str, Graph)> {
    vec![
        ("path", builders::path(n).unwrap()),
        ("cycle", builders::cycle(n).unwrap()),
        ("grid", builders::grid(3, n.div_ceil(3)).unwrap()),
        ("binary_tree", builders::binary_tree(n).unwrap()),
        ("barbell", builders::barbell(n).unwrap()),
        ("complete", builders::complete(n).unwrap()),
        ("star", builders::star(n).unwrap()),
        ("hypercube", builders::hypercube(4).unwrap()),
        ("lollipop", builders::lollipop(n / 2, n / 2).unwrap()),
    ]
}

fn check(kind: ProtocolKind, sync: bool, seed: u64) {
    for (name, g) in families(12) {
        let k = 6;
        let mut spec = RunSpec::new(kind, k).with_seed(seed);
        spec.ag = spec.ag.with_payload_len(2);
        spec.engine = if sync {
            EngineConfig::synchronous(seed ^ 0xABCD)
        } else {
            EngineConfig::asynchronous(seed ^ 0xABCD)
        }
        .with_max_rounds(2_000_000);
        let (stats, ok) =
            run_protocol::<Gf256>(&g, &spec).unwrap_or_else(|e| panic!("{kind:?} on {name}: {e}"));
        assert!(
            stats.completed,
            "{kind:?} on {name} (sync={sync}) incomplete"
        );
        assert!(ok, "{kind:?} on {name} failed decode verification");
        // Sanity: messages were actually exchanged.
        assert!(stats.messages_delivered > 0);
    }
}

#[test]
fn uniform_ag_all_families_synchronous() {
    check(ProtocolKind::UniformAg, true, 1);
}

#[test]
fn uniform_ag_all_families_asynchronous() {
    check(ProtocolKind::UniformAg, false, 2);
}

#[test]
fn round_robin_ag_all_families_synchronous() {
    check(ProtocolKind::RoundRobinAg, true, 3);
}

#[test]
fn tag_brr_all_families_synchronous() {
    check(ProtocolKind::TagBrr(0), true, 4);
}

#[test]
fn tag_brr_all_families_asynchronous() {
    check(ProtocolKind::TagBrr(0), false, 5);
}

#[test]
fn tag_uniform_broadcast_all_families_synchronous() {
    check(ProtocolKind::TagUniformBroadcast(0), true, 6);
}

#[test]
fn tag_is_all_families_synchronous() {
    check(ProtocolKind::TagIs(0), true, 7);
}

#[test]
fn tag_oracle_all_families_asynchronous() {
    check(ProtocolKind::TagOracle(0, 2), false, 8);
}

#[test]
fn all_fields_complete_on_the_grid() {
    let g = builders::grid(3, 4).unwrap();
    let mut spec = RunSpec::new(ProtocolKind::UniformAg, 6).with_seed(11);
    spec.ag = spec.ag.with_payload_len(3);
    spec.engine = EngineConfig::synchronous(12).with_max_rounds(2_000_000);
    let (s, ok) = run_protocol::<Gf2>(&g, &spec).unwrap();
    assert!(s.completed && ok, "GF(2)");
    let (s, ok) = run_protocol::<F13>(&g, &spec).unwrap();
    assert!(s.completed && ok, "F13");
    let (s, ok) = run_protocol::<Gf256>(&g, &spec).unwrap();
    assert!(s.completed && ok, "GF(256)");
    let (s, ok) = run_protocol::<F257>(&g, &spec).unwrap();
    assert!(s.completed && ok, "F257");
}

#[test]
fn placements_single_source_and_random() {
    let g = builders::barbell(10).unwrap();
    for placement in [
        Placement::SingleSource(0),
        Placement::SingleSource(9),
        Placement::Random,
        Placement::Custom(vec![0, 9, 4, 5]),
    ] {
        let mut spec = RunSpec::new(ProtocolKind::TagBrr(0), 4).with_seed(21);
        spec.ag = spec.ag.with_placement(placement.clone());
        spec.engine = EngineConfig::synchronous(22).with_max_rounds(2_000_000);
        let (stats, ok) = run_protocol::<Gf256>(&g, &spec).unwrap();
        assert!(stats.completed && ok, "placement {placement:?} failed");
    }
}

#[test]
fn k_larger_than_n_works() {
    // More messages than nodes: nodes hold several initial messages.
    let g = builders::cycle(6).unwrap();
    let mut spec = RunSpec::new(ProtocolKind::UniformAg, 15).with_seed(31);
    spec.engine = EngineConfig::synchronous(32).with_max_rounds(2_000_000);
    let (stats, ok) = run_protocol::<Gf256>(&g, &spec).unwrap();
    assert!(stats.completed && ok);
}

#[test]
fn single_node_graph_is_trivially_complete() {
    let g = builders::path(1).unwrap();
    let mut spec = RunSpec::new(ProtocolKind::UniformAg, 3).with_seed(41);
    spec.engine = EngineConfig::synchronous(42);
    let (stats, ok) = run_protocol::<Gf256>(&g, &spec).unwrap();
    assert!(stats.completed && ok);
    assert_eq!(stats.rounds, 0);
}

#[test]
fn two_node_graph_fast_exchange() {
    let g = builders::path(2).unwrap();
    let mut spec = RunSpec::new(ProtocolKind::UniformAg, 4).with_seed(51);
    spec.engine = EngineConfig::synchronous(52).with_max_rounds(1_000);
    let (stats, ok) = run_protocol::<Gf256>(&g, &spec).unwrap();
    assert!(stats.completed && ok);
    // 2 messages per round move, 4 needed in total (2 per node): >= 2 rounds.
    assert!(
        stats.rounds >= 2 && stats.rounds <= 30,
        "{} rounds",
        stats.rounds
    );
}
