//! High-level experiment runner: one call from (graph, spec) to stats.
//!
//! The bench harness, the examples and the integration tests all drive the
//! protocols through this module so that every experiment applies identical
//! seeding, verification and accounting rules. Runs go through
//! [`Engine::run_batch`] — the observer-free hot path — since nothing at
//! this level asks for per-round traces; figures that do trace rank growth
//! call [`Engine::run_observed`] on a protocol directly.

use ag_gf::SlabField;
use ag_graph::{Graph, GraphError, NodeId, SpanningTree};
use ag_rlnc::Generation;
use ag_sim::{Engine, EngineConfig, RunStats};

use crate::ag::{AgConfig, AlgebraicGossip};
use crate::baseline::RandomMessageGossip;
use crate::broadcast::BroadcastTree;
use crate::is_tree::IsTree;
use crate::oracle::OracleTree;
use crate::tag::Tag;
use crate::tree_protocol::TreeProtocol;
use crate::CommModel;

/// Which protocol configuration to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolKind {
    /// Uniform algebraic gossip (Theorem 1 / 3).
    UniformAg,
    /// Algebraic gossip with round-robin partner selection (ablation A3).
    RoundRobinAg,
    /// TAG with the round-robin broadcast `B_RR` rooted at the node
    /// (Theorem 5 / Section 5).
    TagBrr(NodeId),
    /// TAG with uniform-gossip broadcast as the tree protocol.
    TagUniformBroadcast(NodeId),
    /// TAG with the IS-style bitstring tree protocol (Section 6 facsimile).
    TagIs(NodeId),
    /// TAG with the oracle tree revealing after the given per-node wakeup
    /// count (the \[5\]-bound stand-in; Theorems 7/8).
    TagOracle(NodeId, u64),
    /// The uncoded store-and-forward baseline (random message selection) —
    /// the comparator that quantifies the coding gain.
    UncodedRandom,
}

/// A complete run specification: protocol, AG parameters, engine settings.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Protocol selection.
    pub kind: ProtocolKind,
    /// Generation size, payload, placement, action.
    pub ag: AgConfig,
    /// Time model, budget, loss, dedup, engine seed.
    pub engine: EngineConfig,
    /// Protocol seed (generation content, placement, RR offsets).
    pub seed: u64,
}

impl RunSpec {
    /// A spec with sane defaults for the given protocol and `k`.
    #[must_use]
    pub fn new(kind: ProtocolKind, k: usize) -> Self {
        RunSpec {
            kind,
            ag: AgConfig::new(k),
            engine: EngineConfig::default(),
            seed: 0,
        }
    }

    /// Sets both seeds (protocol and engine) from one value, using the
    /// central derivation in [`crate::seeding`] — the same pairing a
    /// [`crate::TrialPlan`] applies to each of its trials.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self.engine.seed = crate::seeding::engine_seed_for(seed);
        self
    }
}

/// Runs the specified protocol on `graph` and verifies decoding.
///
/// Returns the run statistics and whether every node decoded the exact
/// generation (`false` when the run hit the round budget first; decoding
/// success is always checked when the run completes and a failure is a
/// **panic**, because it would mean the codec is wrong, not the protocol
/// slow).
///
/// # Errors
///
/// Propagates construction errors (disconnected graph, bad root, `k = 0`,
/// a placement that does not fit the graph, a `payload_len` whose rows
/// cannot be allocated) and returns [`GraphError::InvalidSize`] if
/// `spec.engine.loss_prob` is outside `[0, 1]`.
///
/// # Panics
///
/// Panics if a completed run fails to decode — that is a correctness bug,
/// never a performance artifact.
pub fn run_protocol<F: SlabField>(
    graph: &Graph,
    spec: &RunSpec,
) -> Result<(RunStats, bool), GraphError> {
    // `loss_prob` is a public field; `Engine::new` would panic on it.
    if !(0.0..=1.0).contains(&spec.engine.loss_prob) {
        return Err(GraphError::InvalidSize(
            "loss probability must be in [0, 1]".into(),
        ));
    }
    let mut engine = Engine::new(spec.engine);
    match spec.kind {
        ProtocolKind::UniformAg | ProtocolKind::RoundRobinAg => {
            let comm = if spec.kind == ProtocolKind::UniformAg {
                CommModel::Uniform
            } else {
                CommModel::RoundRobin
            };
            let cfg = spec.ag.clone().with_comm_model(comm);
            let mut proto = AlgebraicGossip::<F>::new(graph, &cfg, spec.seed)?;
            let stats = engine.run_batch(&mut proto);
            let ok = verified(&stats, graph.n(), proto.generation(), |v| proto.decoded(v));
            Ok((stats, ok))
        }
        ProtocolKind::TagBrr(root) => {
            let tree = BroadcastTree::new(graph, root, CommModel::RoundRobin, spec.seed)?;
            run_tag::<F, _>(graph, tree, spec, &mut engine)
        }
        ProtocolKind::TagUniformBroadcast(root) => {
            let tree = BroadcastTree::new(graph, root, CommModel::Uniform, spec.seed)?;
            run_tag::<F, _>(graph, tree, spec, &mut engine)
        }
        ProtocolKind::TagIs(root) => {
            let tree = IsTree::new(graph, root, spec.seed)?;
            run_tag::<F, _>(graph, tree, spec, &mut engine)
        }
        ProtocolKind::TagOracle(root, reveal_after) => {
            let tree = OracleTree::new(graph, root, reveal_after)?;
            run_tag::<F, _>(graph, tree, spec, &mut engine)
        }
        ProtocolKind::UncodedRandom => {
            let mut proto = RandomMessageGossip::<F>::new(graph, &spec.ag, spec.seed)?;
            let stats = engine.run_batch(&mut proto);
            // A node that holds all `k` raw messages has "decoded" them.
            let ok = verified(&stats, graph.n(), proto.generation(), |v| {
                let held = proto.messages_of(v);
                (held.len() == spec.ag.k).then(|| held.into_iter().map(|m| m.payload).collect())
            });
            Ok((stats, ok))
        }
    }
}

fn run_tag<F: SlabField, S: TreeProtocol>(
    graph: &Graph,
    tree: S,
    spec: &RunSpec,
    engine: &mut Engine,
) -> Result<(RunStats, bool), GraphError> {
    let mut proto = Tag::<F, S>::new(graph, tree, &spec.ag, spec.seed)?;
    let stats = engine.run_batch(&mut proto);
    let ok = verified(&stats, graph.n(), proto.generation(), |v| proto.decoded(v));
    Ok((stats, ok))
}

/// Whether the run completed, in which case every one of the `n` nodes
/// must have decoded exactly `generation`.
fn verified<F: SlabField>(
    stats: &RunStats,
    n: usize,
    generation: &Generation<F>,
    decoded: impl Fn(NodeId) -> Option<Vec<Vec<F>>>,
) -> bool {
    if !stats.completed {
        return false;
    }
    let want = generation.messages();
    for v in 0..n {
        let got = decoded(v).expect("completed node must decode");
        assert_eq!(got, want, "node {v} decoded wrong data — codec bug");
    }
    true
}

/// Runs a spanning-tree protocol standalone and reports `(t(S), d(S),
/// depth)` together with the run stats — the quantities in Theorem 4's
/// bound.
///
/// # Panics
///
/// Panics if the protocol completes without producing a valid tree (a
/// protocol bug).
pub fn measure_tree_protocol<S: TreeProtocol>(
    mut tree: S,
    engine_cfg: EngineConfig,
) -> (RunStats, Option<SpanningTree>) {
    let stats = Engine::new(engine_cfg).run_batch(&mut tree);
    let tree = stats.completed.then(|| {
        tree.spanning_tree()
            .expect("completed tree protocol must yield a tree")
    });
    (stats, tree)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coded_nodes::CodedNodes;
    use ag_gf::Gf256;
    use ag_graph::builders;
    use ag_sim::TimeModel;

    #[test]
    fn every_protocol_kind_completes_on_barbell() {
        let g = builders::barbell(10).unwrap();
        for kind in [
            ProtocolKind::UniformAg,
            ProtocolKind::RoundRobinAg,
            ProtocolKind::TagBrr(0),
            ProtocolKind::TagUniformBroadcast(0),
            ProtocolKind::TagIs(0),
            ProtocolKind::TagOracle(0, 3),
            ProtocolKind::UncodedRandom,
        ] {
            let mut spec = RunSpec::new(kind, 5).with_seed(11);
            spec.engine.max_rounds = 500_000;
            let (stats, ok) = run_protocol::<Gf256>(&g, &spec).unwrap();
            assert!(stats.completed, "{kind:?} incomplete");
            assert!(ok, "{kind:?} failed verification");
        }
    }

    #[test]
    fn asynchronous_runs_work_through_runner() {
        let g = builders::grid(3, 3).unwrap();
        let mut spec = RunSpec::new(ProtocolKind::TagBrr(4), 9).with_seed(5);
        spec.engine.time_model = TimeModel::Asynchronous;
        spec.engine.max_rounds = 500_000;
        let (stats, ok) = run_protocol::<Gf256>(&g, &spec).unwrap();
        assert!(stats.completed && ok);
    }

    #[test]
    fn budget_exhaustion_reports_not_ok() {
        let g = builders::barbell(20).unwrap();
        let mut spec = RunSpec::new(ProtocolKind::UniformAg, 20).with_seed(3);
        spec.engine.max_rounds = 2; // hopeless budget
        let (stats, ok) = run_protocol::<Gf256>(&g, &spec).unwrap();
        assert!(!stats.completed);
        assert!(!ok);
    }

    /// `EngineConfig::loss_prob` is a public field, so a value `with_loss`
    /// would have refused can still reach an engine: 1.5 used to panic
    /// inside `gen_bool` on the first message, NaN and negatives to run
    /// lossless without a word.
    #[test]
    fn out_of_range_loss_prob_is_refused_where_the_config_enters() {
        let g = builders::cycle(6).unwrap();
        for loss_prob in [f64::NAN, -0.1, 1.5] {
            let mut spec = RunSpec::new(ProtocolKind::UniformAg, 3).with_seed(1);
            spec.engine.loss_prob = loss_prob;
            assert_eq!(
                run_protocol::<Gf256>(&g, &spec),
                Err(GraphError::InvalidSize(
                    "loss probability must be in [0, 1]".into()
                )),
                "run_protocol, loss {loss_prob}"
            );
            assert!(
                std::panic::catch_unwind(|| Engine::new(spec.engine)).is_err(),
                "Engine::new, loss {loss_prob}"
            );
        }
    }

    /// `AgConfig::placement` is a public field too: a host that is not a
    /// node, or a custom list of the wrong length, used to panic inside
    /// `Placement::assign` on its way through every constructor, while a
    /// bad TAG root on the same call was already a typed error.
    #[test]
    fn placement_that_does_not_fit_the_graph_is_a_typed_error() {
        use crate::Placement;
        let g = builders::path(4).unwrap();
        let brr = || BroadcastTree::new(&g, 0, CommModel::RoundRobin, 1).unwrap();
        let out_of_range = |node| GraphError::NodeOutOfRange { node, n: 4 };
        let wrong_length = |listed: usize| {
            GraphError::InvalidSize(format!(
                "custom placement lists {listed} hosts for k = 3 messages"
            ))
        };
        for (placement, want) in [
            (Placement::SingleSource(17), out_of_range(17)),
            (Placement::SingleSource(4), out_of_range(4)),
            (Placement::Custom(vec![0, 9, 3]), out_of_range(9)),
            (Placement::Custom(vec![0, 1]), wrong_length(2)),
            (Placement::Custom(vec![0, 1, 2, 3]), wrong_length(4)),
        ] {
            let cfg = AgConfig::new(3).with_placement(placement.clone());
            assert_eq!(
                AlgebraicGossip::<Gf256>::new(&g, &cfg, 1).err(),
                Some(want.clone()),
                "AlgebraicGossip::new, {placement:?}"
            );
            assert_eq!(
                Tag::<Gf256, _>::new(&g, brr(), &cfg, 1).err(),
                Some(want.clone()),
                "Tag::new, {placement:?}"
            );
            for kind in [
                ProtocolKind::UniformAg,
                ProtocolKind::TagBrr(0),
                ProtocolKind::UncodedRandom,
            ] {
                let mut spec = RunSpec::new(kind, 3).with_seed(1);
                spec.ag.placement = placement.clone();
                assert_eq!(
                    run_protocol::<Gf256>(&g, &spec),
                    Err(want.clone()),
                    "run_protocol {kind:?}, {placement:?}"
                );
            }
        }
        // What fits still builds, and a bad root is still its own error.
        let fits = AgConfig::new(3).with_placement(Placement::Custom(vec![3, 3, 0]));
        assert!(AlgebraicGossip::<Gf256>::new(&g, &fits, 1).is_ok());
        assert_eq!(
            run_protocol::<Gf256>(&g, &RunSpec::new(ProtocolKind::TagBrr(17), 3)),
            Err(out_of_range(17))
        );
    }

    /// `AgConfig::payload_len` is a public field as well: a row that
    /// cannot be allocated used to abort the process inside
    /// `Generation::random` (`memory allocation of 9223372036854775807
    /// bytes failed`), before any arena sizing was consulted.
    #[test]
    fn payload_too_large_to_allocate_is_a_typed_error() {
        let g = builders::path(2).unwrap();
        for kind in [
            ProtocolKind::UniformAg,
            ProtocolKind::RoundRobinAg,
            ProtocolKind::TagBrr(0),
            ProtocolKind::TagUniformBroadcast(0),
            ProtocolKind::TagIs(0),
            ProtocolKind::TagOracle(0, 3),
            ProtocolKind::UncodedRandom,
        ] {
            for time_model in [TimeModel::Synchronous, TimeModel::Asynchronous] {
                for k in [1, 2] {
                    let mut spec = RunSpec::new(kind, k).with_seed(1);
                    spec.engine.time_model = time_model;
                    spec.ag.payload_len = usize::MAX / 2;
                    let err = run_protocol::<Gf256>(&g, &spec).expect_err("must not fit");
                    assert!(
                        matches!(&err, GraphError::InvalidSize(m) if m.contains("bytes")),
                        "{kind:?} {time_model:?} k={k}: {err:?}"
                    );
                }
            }
        }
        // The message slab's row index is a u32: 2^31 nodes' two messages
        // a contact index to 2^32 − 1, one node more does not fit, and is
        // refused before anything is allocated.
        let cfg = AgConfig::new(1);
        let err = CodedNodes::<Gf256>::new((1 << 31) + 1, &cfg, None, 1, 2, || Ok(()))
            .expect_err("the slab index must overflow");
        assert_eq!(
            err,
            GraphError::InvalidSize(format!(
                "2 × {} message rows do not fit a u32 row index",
                (1u64 << 31) + 1
            ))
        );
        // The arena's own sizing is typed too. At 2^31 nodes the slab's
        // rows fit, and nodes of k = 2^17 one-symbol messages overflow
        // `usize`. The count reported is the whole full-rank footprint: per
        // node a head (pivot map, coefficient rows), a rank, a span class,
        // the payload rows with their alignment slack and the elimination
        // log.
        let k: u128 = 1 << 17;
        let cfg = AgConfig::new(1 << 17).with_payload_len(1);
        let err = CodedNodes::<Gf256>::new(1 << 31, &cfg, None, 1, 2, || Ok(()))
            .expect_err("arena sizing must overflow");
        let bytes = (1u128 << 31) * (k * (4 + k) + 4 + 4 + k + 63 + k * k);
        assert!(
            matches!(&err, GraphError::InvalidSize(m)
                if m.contains("overflows usize") && m.contains(&bytes.to_string())),
            "{err:?}"
        );
        // At k = 512 those nodes are 2^31 heads of 264,192 bytes: that fits
        // `usize` and no machine, and is refused as an error too.
        let cfg = AgConfig::new(512);
        let err = CodedNodes::<Gf256>::new(1 << 31, &cfg, None, 1, 2, || Ok(()))
            .expect_err("the head slab must be refused");
        let heads = (1u64 << 31) * 512 * (4 + 512);
        assert!(
            matches!(&err, GraphError::InvalidSize(m)
                if m.contains(&format!("could not reserve {heads} bytes"))),
            "{err:?}"
        );
    }

    #[test]
    fn measure_tree_protocol_reports_tree() {
        let g = builders::lollipop(6, 4).unwrap();
        let brr = BroadcastTree::new(&g, 0, CommModel::RoundRobin, 7).unwrap();
        let (stats, tree) =
            measure_tree_protocol(brr, EngineConfig::synchronous(7).with_max_rounds(10_000));
        assert!(stats.completed);
        let tree = tree.unwrap();
        assert!(tree.is_spanning_tree_of(&g));
        assert!(u64::from(tree.tree_diameter()) <= stats.rounds * 2);
    }

    #[test]
    fn with_seed_decorrelates_engine_seed() {
        let a = RunSpec::new(ProtocolKind::UniformAg, 2).with_seed(1);
        let b = RunSpec::new(ProtocolKind::UniformAg, 2).with_seed(2);
        assert_ne!(a.engine.seed, b.engine.seed);
        assert_ne!(a.engine.seed, a.seed);
    }
}
