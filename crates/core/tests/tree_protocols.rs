//! Cross-cutting tests of the spanning-tree protocol layer: every tree
//! protocol against every topology, Theorem-4 quantity extraction, and
//! TAG composition with each of them.

use ag_gf::Gf256;
use ag_graph::{builders, Graph, GraphError};
use ag_sim::{Engine, EngineConfig};
use algebraic_gossip::{
    measure_tree_protocol, AgConfig, AlgebraicGossip, BroadcastTree, CommModel, IsTree, OracleTree,
    Tag, TreeAg, TreeProtocol, TreeRunner,
};

fn graphs() -> Vec<(&'static str, Graph)> {
    vec![
        ("path", builders::path(12).unwrap()),
        ("cycle", builders::cycle(12).unwrap()),
        ("grid", builders::grid(3, 4).unwrap()),
        ("barbell", builders::barbell(12).unwrap()),
        ("star", builders::star(12).unwrap()),
        ("binary_tree", builders::binary_tree(15).unwrap()),
        ("torus", builders::torus(3, 4).unwrap()),
        ("dumbbell", builders::dumbbell(4, 4).unwrap()),
    ]
}

#[test]
fn brr_tree_valid_on_every_topology_and_root() {
    for (name, g) in graphs() {
        for root in [0, g.n() / 2, g.n() - 1] {
            let brr = BroadcastTree::new(&g, root, CommModel::RoundRobin, 3).unwrap();
            let (stats, tree) = measure_tree_protocol(
                brr,
                EngineConfig::synchronous(3).with_max_rounds(3 * g.n() as u64),
            );
            assert!(stats.completed, "BRR incomplete on {name} root {root}");
            let tree = tree.unwrap();
            assert!(tree.is_spanning_tree_of(&g));
            assert_eq!(tree.root(), root);
            // d(S) sanity: within [D, n-1] of the host graph.
            assert!(u64::from(tree.tree_diameter()) <= g.n() as u64);
        }
    }
}

#[test]
fn uniform_broadcast_tree_valid_everywhere() {
    for (name, g) in graphs() {
        let b = BroadcastTree::new(&g, 0, CommModel::Uniform, 5).unwrap();
        let (stats, tree) =
            measure_tree_protocol(b, EngineConfig::synchronous(5).with_max_rounds(100_000));
        assert!(stats.completed, "uniform broadcast incomplete on {name}");
        assert!(tree.unwrap().is_spanning_tree_of(&g));
    }
}

#[test]
fn is_tree_valid_everywhere_async_too() {
    for (name, g) in graphs() {
        let is = IsTree::new(&g, 0, 7).unwrap();
        let (stats, tree) =
            measure_tree_protocol(is, EngineConfig::asynchronous(7).with_max_rounds(200_000));
        assert!(stats.completed, "IS incomplete on {name} (async)");
        assert!(tree.unwrap().is_spanning_tree_of(&g));
    }
}

#[test]
fn oracle_tree_depth_bounded_by_diameter() {
    for (_, g) in graphs() {
        let oracle = OracleTree::new(&g, 0, 2).unwrap();
        let (stats, tree) =
            measure_tree_protocol(oracle, EngineConfig::synchronous(1).with_max_rounds(100));
        assert!(stats.completed);
        assert!(tree.unwrap().depth() <= g.diameter());
    }
}

#[test]
fn tag_composes_with_every_tree_protocol_on_torus() {
    let g = builders::torus(3, 4).unwrap();
    let cfg = AgConfig::new(6).with_payload_len(1);
    // BRR
    let t1 = BroadcastTree::new(&g, 0, CommModel::RoundRobin, 1).unwrap();
    let mut tag = Tag::<Gf256, _>::new(&g, t1, &cfg, 1).unwrap();
    let s = Engine::new(EngineConfig::synchronous(1).with_max_rounds(100_000)).run(&mut tag);
    assert!(s.completed);
    // IS
    let t2 = IsTree::new(&g, 0, 2).unwrap();
    let mut tag = Tag::<Gf256, _>::new(&g, t2, &cfg, 2).unwrap();
    let s = Engine::new(EngineConfig::synchronous(2).with_max_rounds(100_000)).run(&mut tag);
    assert!(s.completed);
    // Oracle
    let t3 = OracleTree::new(&g, 0, 3).unwrap();
    let mut tag = Tag::<Gf256, _>::new(&g, t3, &cfg, 3).unwrap();
    let s = Engine::new(EngineConfig::synchronous(3).with_max_rounds(100_000)).run(&mut tag);
    assert!(s.completed);
}

#[test]
fn broadcast_finish_time_upper_bounds_tree_depth_sync() {
    // In the synchronous model a broadcast tree's depth cannot exceed the
    // broadcast time (the paper's observation t(B) >= d(B)/2... actually
    // depth grows at most one level per round).
    for (name, g) in graphs() {
        let b = BroadcastTree::new(&g, 0, CommModel::Uniform, 11).unwrap();
        let mut runner = TreeRunner::new(b);
        let stats =
            Engine::new(EngineConfig::synchronous(11).with_max_rounds(100_000)).run(&mut runner);
        assert!(stats.completed);
        let tree = runner.inner().spanning_tree().unwrap();
        assert!(
            u64::from(tree.depth()) <= stats.rounds,
            "{name}: depth {} exceeded broadcast time {}",
            tree.depth(),
            stats.rounds
        );
    }
}

#[test]
fn tree_protocol_default_completeness_logic() {
    // A freshly built broadcast tree is incomplete (non-root nodes lack
    // parents) and spanning_tree() is None until completion.
    let g = builders::path(5).unwrap();
    let b = BroadcastTree::new(&g, 2, CommModel::Uniform, 0).unwrap();
    assert!(!b.is_tree_complete());
    assert!(b.spanning_tree().is_none());
    assert_eq!(b.root(), 2);
    assert_eq!(b.parent(2), None);
}

/// `AgConfig::coding_density` is a public field, so a value the builder
/// would have refused can still reach the constructors: each must answer
/// with the typed error, not a panic.
#[test]
fn out_of_range_coding_density_is_a_typed_error_in_every_constructor() {
    let g = builders::cycle(6).unwrap();
    let tree = g.bfs_tree(0).into_spanning_tree();
    for density in [f64::NAN, 0.0, -0.5, 1.5, f64::INFINITY] {
        let cfg = AgConfig {
            coding_density: density,
            ..AgConfig::new(4)
        };
        let want = GraphError::InvalidSize("coding density must be in (0, 1]".into());
        let ag = AlgebraicGossip::<Gf256>::new(&g, &cfg, 1).map(|_| ());
        assert_eq!(ag, Err(want.clone()), "AlgebraicGossip, density {density}");
        let oracle = OracleTree::new(&g, 0, 0).unwrap();
        let tag = Tag::<Gf256, _>::new(&g, oracle, &cfg, 1).map(|_| ());
        assert_eq!(tag, Err(want.clone()), "Tag, density {density}");
        let tree_ag = TreeAg::<Gf256>::new(&tree, &cfg, 1).map(|_| ());
        assert_eq!(tree_ag, Err(want), "TreeAg, density {density}");
    }
}
