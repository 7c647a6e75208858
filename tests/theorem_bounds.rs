//! Empirical validation of every theorem's bound shape, with generous
//! constants. These are the integration-level versions of the bench
//! experiments, kept small enough for `cargo test`.

use algebraic_gossip_repro::analysis;
use algebraic_gossip_repro::gf::Gf256;
use algebraic_gossip_repro::graph::{builders, metrics};
use algebraic_gossip_repro::protocols::{
    measure_tree_protocol, run_protocol, BroadcastTree, CommModel, IsTree, ProtocolKind, RunSpec,
};
use algebraic_gossip_repro::sim::{Engine, EngineConfig};

fn rounds_of(
    g: &algebraic_gossip_repro::graph::Graph,
    kind: ProtocolKind,
    k: usize,
    seed: u64,
    sync: bool,
) -> u64 {
    let mut spec = RunSpec::new(kind, k).with_seed(seed);
    spec.engine = if sync {
        EngineConfig::synchronous(seed.wrapping_add(99))
    } else {
        EngineConfig::asynchronous(seed.wrapping_add(99))
    }
    .with_max_rounds(5_000_000);
    let (stats, ok) = run_protocol::<Gf256>(g, &spec).expect("valid spec");
    assert!(stats.completed && ok);
    stats.rounds
}

/// Theorem 1: uniform AG within O((k + log n + D)·Δ), constant ≤ 12,
/// across families, both time models.
#[test]
fn theorem1_uniform_ag_bound_holds() {
    for (g, name) in [
        (builders::path(20).unwrap(), "path"),
        (builders::grid(4, 5).unwrap(), "grid"),
        (builders::binary_tree(31).unwrap(), "binary tree"),
        (builders::barbell(16).unwrap(), "barbell"),
        (builders::complete(16).unwrap(), "complete"),
        (builders::star(16).unwrap(), "star"),
    ] {
        let k = 8;
        let bound = analysis::uniform_ag_bound(k, g.n(), g.diameter(), g.max_degree());
        for sync in [true, false] {
            let rounds = rounds_of(&g, ProtocolKind::UniformAg, k, 7, sync);
            assert!(
                (rounds as f64) <= 12.0 * bound,
                "{name} sync={sync}: {rounds} rounds vs 12x bound {bound:.0}"
            );
        }
    }
}

/// Theorem 3: on constant-max-degree graphs, synchronous uniform AG is
/// Θ(k + D) — check both directions with constants [1/2, 12].
#[test]
fn theorem3_order_optimality_constant_degree() {
    for (g, name) in [
        (builders::path(24).unwrap(), "path"),
        (builders::cycle(24).unwrap(), "cycle"),
        (builders::grid(5, 5).unwrap(), "grid"),
        (builders::binary_tree(31).unwrap(), "binary tree"),
    ] {
        let k = 12;
        let kd = k as f64 + f64::from(g.diameter());
        let rounds = rounds_of(&g, ProtocolKind::UniformAg, k, 3, true) as f64;
        let lower = analysis::lower_bound_rounds(k, g.diameter(), true);
        assert!(
            rounds >= lower,
            "{name}: {rounds} below the k/2, D/2 lower bound"
        );
        assert!(
            rounds <= 12.0 * kd,
            "{name}: {rounds} rounds vs 12·(k+D) = {}",
            12.0 * kd
        );
    }
}

/// Theorem 4: TAG within O(k + log n + d(S) + t(S)) for BRR trees.
#[test]
fn theorem4_tag_bound_holds() {
    for (g, name) in [
        (builders::barbell(20).unwrap(), "barbell"),
        (builders::path(20).unwrap(), "path"),
        (builders::complete(20).unwrap(), "complete"),
    ] {
        let k = 10;
        // Measure t(S) and d(S) of BRR standalone, then the full TAG time.
        let brr = BroadcastTree::new(&g, 0, CommModel::RoundRobin, 5).unwrap();
        let (tstats, tree) =
            measure_tree_protocol(brr, EngineConfig::synchronous(6).with_max_rounds(100_000));
        assert!(tstats.completed);
        let tree = tree.expect("completed");
        // TAG interleaves phases, so charge 2·t(S).
        let bound = analysis::tag_bound(k, g.n(), tree.tree_diameter(), 2.0 * tstats.rounds as f64);
        let rounds = rounds_of(&g, ProtocolKind::TagBrr(0), k, 5, true) as f64;
        assert!(
            rounds <= 16.0 * bound,
            "{name}: TAG took {rounds} vs 16x bound {bound:.0}"
        );
    }
}

/// Theorem 5: BRR broadcast finishes within 3n synchronous rounds with
/// probability 1, and O(n) asynchronous rounds w.h.p.
#[test]
fn theorem5_brr_broadcast_linear() {
    for n in [10, 20, 40] {
        for (g, name) in [
            (builders::barbell(n).unwrap(), "barbell"),
            (builders::lollipop(n / 2, n / 2).unwrap(), "lollipop"),
            (builders::star(n).unwrap(), "star"),
        ] {
            // Synchronous: deterministic 3n bound, any seed.
            for seed in 0..5 {
                let mut brr = BroadcastTree::new(&g, 0, CommModel::RoundRobin, seed).unwrap();
                let stats =
                    Engine::new(EngineConfig::synchronous(seed).with_max_rounds(3 * g.n() as u64))
                        .run_batch(&mut brr);
                assert!(
                    stats.completed,
                    "{name} n={n} seed={seed}: BRR exceeded 3n sync rounds"
                );
            }
            // Asynchronous: 8n rounds is far beyond the w.h.p. bound.
            let mut brr = BroadcastTree::new(&g, 0, CommModel::RoundRobin, 9).unwrap();
            let stats =
                Engine::new(EngineConfig::asynchronous(9).with_max_rounds(8 * g.n() as u64))
                    .run_batch(&mut brr);
            assert!(
                stats.completed,
                "{name} n={n}: async BRR exceeded 8n rounds"
            );
        }
    }
}

/// Lemma 2: degree sums along shortest paths are at most 3n — on every
/// evaluation family at integration scale.
#[test]
fn lemma2_degree_sums() {
    for g in [
        builders::path(30).unwrap(),
        builders::barbell(30).unwrap(),
        builders::grid(5, 6).unwrap(),
        builders::binary_tree(31).unwrap(),
        builders::complete(20).unwrap(),
        builders::hypercube(5).unwrap(),
    ] {
        assert!(metrics::max_shortest_path_degree_sum(&g) <= 3 * g.n());
    }
}

/// Section 5: for k = Ω(n), TAG+BRR is Θ(n) on any graph — the ratio
/// rounds/n stays within a fixed band as n doubles.
#[test]
fn section5_tag_brr_linear_in_n() {
    let mut ratios = Vec::new();
    for n in [12usize, 24, 48] {
        let g = builders::barbell(n).unwrap();
        let rounds = rounds_of(&g, ProtocolKind::TagBrr(0), n, 13, true);
        ratios.push(rounds as f64 / n as f64);
    }
    let max = ratios.iter().cloned().fold(f64::MIN, f64::max);
    let min = ratios.iter().cloned().fold(f64::MAX, f64::min);
    assert!(
        max / min < 3.0,
        "t/n ratios {ratios:?} drift too much for Θ(n)"
    );
}

/// Section 6 oracle path: with a polylog-time tree service, TAG
/// disseminates k = Θ(log³n) messages in Θ(k) rounds on the barbell.
#[test]
fn section6_tag_oracle_theta_k() {
    let mut ratios = Vec::new();
    for n in [16usize, 32, 64] {
        let g = builders::barbell(n).unwrap();
        let lg = (n as f64).log2();
        let k = (lg * lg).round() as usize; // log^2 n: >= polylog regime
        let t_is = lg.ceil() as u64; // the [5] bound for Phi_2 = Theta(1)
        let rounds = rounds_of(&g, ProtocolKind::TagOracle(0, t_is), k, 17, true);
        ratios.push(rounds as f64 / k as f64);
    }
    let max = ratios.iter().cloned().fold(f64::MIN, f64::max);
    let min = ratios.iter().cloned().fold(f64::MAX, f64::min);
    assert!(
        max / min < 3.5,
        "t/k ratios {ratios:?} drift too much for Θ(k)"
    );
}

/// The IS facsimile builds valid trees everywhere (no polylog claim).
#[test]
fn is_facsimile_builds_trees() {
    for g in [
        builders::barbell(16).unwrap(),
        builders::grid(4, 4).unwrap(),
        builders::complete(16).unwrap(),
    ] {
        let is = IsTree::new(&g, 0, 3).unwrap();
        let (stats, tree) =
            measure_tree_protocol(is, EngineConfig::synchronous(4).with_max_rounds(100_000));
        assert!(stats.completed);
        assert!(tree.unwrap().is_spanning_tree_of(&g));
    }
}
