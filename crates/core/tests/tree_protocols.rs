//! Cross-cutting tests of the spanning-tree protocol layer: every tree
//! protocol against every topology, Theorem-4 quantity extraction, and
//! TAG composition with each of them.

#[path = "../../sim/tests/probes/mod.rs"]
mod probes;

use ag_gf::Gf256;
use ag_graph::{builders, Graph, GraphError, NodeId};
use ag_sim::{ContactIntent, Engine, EngineConfig, Protocol};
use algebraic_gossip::{
    measure_tree_protocol, AgConfig, AlgebraicGossip, BroadcastTree, CommModel, CrashPlan, IsTree,
    OracleTree, Tag, TreeProtocol, WithCrashes,
};
use probes::run_with_completion;
use rand::rngs::StdRng;

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
    let s = Engine::new(EngineConfig::synchronous(1).with_max_rounds(100_000)).run_batch(&mut tag);
    assert!(s.completed);
    // IS
    let t2 = IsTree::new(&g, 0, 2).unwrap();
    let mut tag = Tag::<Gf256, _>::new(&g, t2, &cfg, 2).unwrap();
    let s = Engine::new(EngineConfig::synchronous(2).with_max_rounds(100_000)).run_batch(&mut tag);
    assert!(s.completed);
    // Oracle
    let t3 = OracleTree::new(&g, 0, 3).unwrap();
    let mut tag = Tag::<Gf256, _>::new(&g, t3, &cfg, 3).unwrap();
    let s = Engine::new(EngineConfig::synchronous(3).with_max_rounds(100_000)).run_batch(&mut tag);
    assert!(s.completed);
}

#[test]
fn broadcast_finish_time_upper_bounds_tree_depth_sync() {
    // In the synchronous model a broadcast tree's depth cannot exceed the
    // broadcast time (the paper's observation t(B) >= d(B)/2... actually
    // depth grows at most one level per round).
    for (name, g) in graphs() {
        let mut b = BroadcastTree::new(&g, 0, CommModel::Uniform, 11).unwrap();
        let stats =
            Engine::new(EngineConfig::synchronous(11).with_max_rounds(100_000)).run_batch(&mut b);
        assert!(stats.completed);
        let tree = b.spanning_tree().unwrap();
        assert!(
            u64::from(tree.depth()) <= stats.rounds,
            "{name}: depth {} exceeded broadcast time {}",
            tree.depth(),
            stats.rounds
        );
    }
}

/// A tree protocol is a protocol: the engine drives it directly, with a
/// node complete once it is informed, and observers see it like any other.
#[test]
fn broadcast_tree_runs_under_the_engine_directly() {
    let g = builders::grid(3, 4).unwrap();
    for cfg in [EngineConfig::synchronous(4), EngineConfig::asynchronous(4)] {
        let mut b = BroadcastTree::new(&g, 0, CommModel::RoundRobin, 4).unwrap();
        let mut informed = vec![1];
        let (stats, finished) = run_with_completion(&mut Engine::new(cfg), &mut b, |_, p| {
            informed.push((0..g.n()).filter(|&v| p.node_complete(v)).count());
        });
        assert!(stats.completed);
        assert!(informed.is_sorted(), "a node lost its parent: {informed:?}");
        assert_eq!(informed.last(), Some(&g.n()));
        assert_eq!(finished[0], Some(0), "the root is born done");
        assert!(b.spanning_tree().unwrap().is_spanning_tree_of(&g));
    }
}

/// Under `WithCrashes` a dead-on-arrival corner of the grid is excused:
/// the run completes without it, it never obtains a parent and never
/// becomes one, and the survivors' parents form a tree on the survivors.
#[test]
fn broadcast_tree_under_crashes_spans_the_survivors() {
    let g = builders::grid(3, 4).unwrap();
    let dead = g.n() - 1;
    for cfg in [EngineConfig::synchronous(8), EngineConfig::asynchronous(8)] {
        let b = BroadcastTree::new(&g, 0, CommModel::Uniform, 8).unwrap();
        let mut proto = WithCrashes::new(b, CrashPlan::explicit(vec![(dead, 1)]));
        let stats = Engine::new(cfg.with_max_rounds(10_000)).run_batch(&mut proto);
        assert!(stats.completed, "the survivors must finish");
        let b = proto.inner();
        assert_eq!(b.parent(dead), None);
        assert!(!b.is_tree_complete() && b.spanning_tree().is_none());
        for v in proto.survivors() {
            // Walk up: every hop is a live graph neighbour, and the walk
            // ends at the root in fewer than n hops.
            let (mut at, mut hops) = (v, 0);
            while let Some(p) = b.parent(at) {
                assert!(g.has_edge(at, p) && !proto.is_crashed(p));
                at = p;
                hops += 1;
                assert!(hops < g.n(), "parent pointers of {v} cycle");
            }
            assert_eq!(at, b.root(), "survivor {v} is not under the root");
        }
    }
}

/// A tree protocol that never finds a parent, so TAG's Phase 2 stays idle
/// and every message in the run is a Phase-1 message: each odd wakeup
/// EXCHANGEs a token with the next node round the cycle. Counts what the
/// engine hands back.
struct Chatter {
    n: usize,
    delivered: u64,
    discarded: u64,
}

impl Protocol for Chatter {
    type Msg = ();

    fn num_nodes(&self) -> usize {
        self.n
    }

    fn on_wakeup(&mut self, node: NodeId, _rng: &mut StdRng) -> Option<ContactIntent> {
        Some(ContactIntent::exchange((node + 1) % self.n))
    }

    fn compose(&self, _from: NodeId, _to: NodeId, _tag: u32, _rng: &mut StdRng) -> Option<()> {
        Some(())
    }

    fn deliver(&mut self, _from: NodeId, _to: NodeId, _tag: u32, _msg: ()) {
        self.delivered += 1;
    }

    fn discard(&mut self, _msg: ()) {
        self.discarded += 1;
    }

    fn node_complete(&self, _node: NodeId) -> bool {
        false
    }
}

impl TreeProtocol for Chatter {
    fn root(&self) -> NodeId {
        0
    }

    fn parent(&self, _node: NodeId) -> Option<NodeId> {
        None
    }
}

/// `Tag::discard` hands a dropped Phase-1 message back to `S`, so a tree
/// protocol that pools its messages stays balanced: under loss (and, on
/// two nodes, same-sender dedup) `S` sees every message it composed again,
/// delivered or discarded.
#[test]
fn tag_returns_dropped_phase1_messages_to_the_tree_protocol() {
    for (n, sync) in [(6, true), (6, false), (2, true)] {
        let g = builders::path(n).unwrap();
        let chatter = Chatter {
            n,
            delivered: 0,
            discarded: 0,
        };
        let mut tag = Tag::<Gf256, _>::new(&g, chatter, &AgConfig::new(2), 1).unwrap();
        let cfg = if sync {
            EngineConfig::synchronous(1)
        } else {
            EngineConfig::asynchronous(1)
        };
        let stats = Engine::new(cfg.with_loss(0.3).with_max_rounds(40)).run_batch(&mut tag);
        assert!(!stats.completed);
        assert!(stats.lost > 0, "loss injection never fired");
        assert_eq!(stats.dedup_dropped > 0, n == 2);
        let s = tag.tree_protocol();
        assert_eq!(s.discarded, stats.lost + stats.dedup_dropped);
        assert_eq!(s.delivered, stats.messages_delivered);
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
        assert_eq!(tag, Err(want), "Tag, density {density}");
    }
}
