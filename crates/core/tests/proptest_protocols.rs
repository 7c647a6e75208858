//! Property-based tests across the protocol layer.

use ag_gf::{Gf2, Gf256, SlabField};
use ag_graph::{builders, NodeId};
use ag_sim::{Engine, EngineConfig, Fate, Probe, TimeModel};
use algebraic_gossip::{run_protocol, AgConfig, AlgebraicGossip, Placement, ProtocolKind, RunSpec};
use probes::{in_pool, Heavy};
use proptest::prelude::*;

#[path = "../../sim/tests/probes/mod.rs"]
mod probes;

/// Small connected graphs drawn from the evaluation families.
fn small_graph(idx: usize, n: usize) -> ag_graph::Graph {
    let n = n.max(4);
    match idx % 5 {
        0 => builders::path(n).unwrap(),
        1 => builders::cycle(n).unwrap(),
        2 => builders::grid(2, n / 2).unwrap(),
        3 => builders::barbell(n).unwrap(),
        _ => builders::complete(n).unwrap(),
    }
}

/// Per round: the rank the network gained and the messages the engine
/// reported `Delivered`.
struct Receptions {
    rank: usize,
    delivered: u64,
    rounds: Vec<(u64, u64)>,
}

impl<F: SlabField> Probe<Heavy<AlgebraicGossip<F>>> for Receptions {
    fn round_end(&mut self, _: u64, h: &Heavy<AlgebraicGossip<F>>) {
        let before = std::mem::replace(&mut self.rank, h.proto.total_rank());
        let delivered = std::mem::take(&mut self.delivered);
        self.rounds.push(((self.rank - before) as u64, delivered));
    }

    fn admitted(&mut self, _: u64, _: usize, _: NodeId, _: NodeId, fate: Fate) {
        self.delivered += u64::from(fate == Fate::Delivered);
    }
}

/// Runs uniform AG with a 3-symbol payload to completion in `lane` (0
/// synchronous and serial, 1 synchronous over 3 shards: behind [`Heavy`]
/// in a pool of 3 threads, 2 asynchronous) and checks the reception
/// accounting against the run's own counters: every delivered message is
/// exactly one helpful or one redundant reception, including those that
/// carry no row because their receiver's span contained the sender's;
/// every helpful one raises a rank by one above the `k` seeds; and every
/// node decodes the generation.
/// Helpful receptions are read from the ranks and redundant ones are
/// counted by verdict at delivery, so the first identity is an independent
/// check that each delivery that raised no rank is counted exactly once.
/// A probe repeats both identities round by round from the engine's own
/// events: the rank gained per round sums to the helpful receptions and
/// never exceeds that round's `Delivered` messages, and the deliveries
/// beyond it sum to the redundant ones.
fn accounting_holds<F: SlabField>(
    graph: &ag_graph::Graph,
    k: usize,
    seed: u64,
    lane: usize,
    loss: f64,
) -> Result<(), TestCaseError> {
    let cfg = AgConfig::new(k).with_payload_len(3);
    let proto = AlgebraicGossip::<F>::new(graph, &cfg, seed).unwrap();
    let ecfg = if lane == 2 {
        EngineConfig::asynchronous(seed)
    } else {
        EngineConfig::synchronous(seed)
    }
    .with_loss(loss)
    .with_max_rounds(1_000_000);
    let mut probe = Receptions {
        rank: proto.total_rank(),
        delivered: 0,
        rounds: Vec::new(),
    };
    // The serial lanes run in a one-thread pool, where `Heavy` changes
    // nothing; the sharded lane in a pool of 3 threads, one a shard.
    let mut heavy = Heavy {
        proto,
        shards: true,
    };
    let threads = if lane == 1 { 3 } else { 1 };
    let stats = in_pool(threads, || {
        Engine::new(ecfg).run_observed(&mut heavy, &mut probe)
    });
    let proto = heavy.proto;
    prop_assert!(stats.completed, "lane {lane} did not complete");
    let (helpful, redundant) = (proto.helpful_receptions(), proto.redundant_receptions());
    let gained: u64 = probe.rounds.iter().map(|r| r.0).sum();
    let delivered: u64 = probe.rounds.iter().map(|r| r.1).sum();
    prop_assert!(probe.rounds.iter().all(|&(gain, got)| gain <= got));
    prop_assert_eq!(gained, helpful, "lane {}", lane);
    prop_assert_eq!(delivered - gained, redundant, "lane {}", lane);
    prop_assert_eq!(
        helpful + redundant,
        stats.messages_delivered,
        "lane {}",
        lane
    );
    prop_assert_eq!(helpful as usize, proto.total_rank() - k, "lane {}", lane);
    for v in 0..graph.n() {
        let decoded = proto.decoded(v);
        prop_assert_eq!(decoded.as_deref(), Some(proto.generation().messages()));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The accounting oracle: helpful + redundant receptions equal the
    /// deliveries and helpful ones equal the rank gained, in total and
    /// round by round, over GF(256) and GF(2), serial, sharded and
    /// asynchronous, with and without loss.
    #[test]
    fn accounting_oracle(
        seed in any::<u64>(),
        gidx in 0usize..5,
        n in 4usize..12,
        k in 1usize..8,
        lossy in any::<bool>(),
    ) {
        let g = small_graph(gidx, n);
        let loss = if lossy { 0.2 } else { 0.0 };
        for lane in 0..3 {
            accounting_holds::<Gf256>(&g, k, seed, lane, loss)?;
            accounting_holds::<Gf2>(&g, k, seed, lane, loss)?;
        }
    }

    /// Uniform AG completes and decodes on every family, any seed, any k,
    /// both time models.
    #[test]
    fn uniform_ag_always_completes(
        seed in any::<u64>(),
        gidx in 0usize..5,
        n in 4usize..12,
        k in 1usize..8,
        sync in any::<bool>(),
    ) {
        let g = small_graph(gidx, n);
        let mut spec = RunSpec::new(ProtocolKind::UniformAg, k).with_seed(seed);
        spec.engine = if sync {
            EngineConfig::synchronous(seed)
        } else {
            EngineConfig::asynchronous(seed)
        }
        .with_max_rounds(1_000_000);
        let (stats, ok) = run_protocol::<Gf256>(&g, &spec).unwrap();
        prop_assert!(stats.completed, "incomplete on graph {gidx}, n={n}, k={k}");
        prop_assert!(ok);
        // Trivial lower bound: >= k/2 rounds in the synchronous model.
        if sync {
            prop_assert!(stats.rounds >= (k as u64) / 2);
        }
    }

    /// TAG with BRR completes and its Phase-1 tree is a spanning tree.
    #[test]
    fn tag_brr_always_completes(
        seed in any::<u64>(),
        gidx in 0usize..5,
        n in 4usize..12,
        k in 1usize..8,
    ) {
        let g = small_graph(gidx, n);
        let root = seed as usize % g.n();
        let mut spec = RunSpec::new(ProtocolKind::TagBrr(root), k).with_seed(seed);
        spec.engine = EngineConfig::synchronous(seed).with_max_rounds(1_000_000);
        let (stats, ok) = run_protocol::<Gf256>(&g, &spec).unwrap();
        prop_assert!(stats.completed);
        prop_assert!(ok);
    }

    /// GF(2) — the worst-case field — still always decodes correctly.
    #[test]
    fn gf2_decodes_exactly(
        seed in any::<u64>(),
        n in 4usize..10,
        k in 1usize..6,
    ) {
        let g = builders::cycle(n).unwrap();
        let mut spec = RunSpec::new(ProtocolKind::UniformAg, k).with_seed(seed);
        spec.ag = spec.ag.with_payload_len(3).with_placement(Placement::Random);
        spec.engine = EngineConfig::synchronous(seed).with_max_rounds(1_000_000);
        let (stats, ok) = run_protocol::<Gf2>(&g, &spec).unwrap();
        prop_assert!(stats.completed && ok);
    }

    /// Determinism: the same spec gives bit-identical stats.
    #[test]
    fn seeded_runs_are_reproducible(seed in any::<u64>(), k in 1usize..6) {
        let g = builders::grid(3, 3).unwrap();
        let mut spec = RunSpec::new(ProtocolKind::TagBrr(0), k).with_seed(seed);
        spec.engine = EngineConfig::asynchronous(seed).with_max_rounds(1_000_000);
        let (a, _) = run_protocol::<Gf256>(&g, &spec).unwrap();
        let (b, _) = run_protocol::<Gf256>(&g, &spec).unwrap();
        prop_assert_eq!(a, b);
    }

    /// Moderate message loss slows but does not break dissemination.
    #[test]
    fn lossy_channels_still_complete(seed in any::<u64>(), loss in 0.05f64..0.4) {
        let g = builders::cycle(8).unwrap();
        let mut spec = RunSpec::new(ProtocolKind::UniformAg, 4).with_seed(seed);
        spec.engine = EngineConfig::synchronous(seed)
            .with_loss(loss)
            .with_max_rounds(1_000_000);
        let (stats, ok) = run_protocol::<Gf256>(&g, &spec).unwrap();
        prop_assert!(stats.completed && ok, "loss {loss} broke the run");
        prop_assert!(stats.lost > 0);
    }

    /// The asynchronous model is never *slower in timeslots* than
    /// max_rounds * n, and rounds accounting is consistent.
    #[test]
    fn async_accounting_consistent(seed in any::<u64>()) {
        let g = builders::path(6).unwrap();
        let mut spec = RunSpec::new(ProtocolKind::UniformAg, 3).with_seed(seed);
        spec.engine = EngineConfig {
            time_model: TimeModel::Asynchronous,
            ..EngineConfig::asynchronous(seed)
        }
        .with_max_rounds(1_000_000);
        let (stats, _) = run_protocol::<Gf256>(&g, &spec).unwrap();
        prop_assert_eq!(stats.rounds, stats.timeslots.div_ceil(6));
    }
}
