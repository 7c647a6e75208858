//! Property-based tests of the engine's invariants under a randomized
//! flooding protocol.

mod probes;

use ag_graph::{builders, Graph, NodeId};
use ag_sim::{Action, CommModel, ContactIntent, Engine, EngineConfig, PartnerSelector, Protocol};
use probes::run_with_completion;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Epidemic flooding: nodes carry a boolean, EXCHANGE spreads it.
struct Flood {
    graph: Graph,
    informed: Vec<bool>,
    selector: PartnerSelector,
    action: Action,
}

impl Flood {
    fn new(graph: Graph, action: Action, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let selector = PartnerSelector::new(&graph, CommModel::Uniform, &mut rng);
        let mut informed = vec![false; graph.n()];
        informed[0] = true;
        Flood {
            graph,
            informed,
            selector,
            action,
        }
    }
}

impl Protocol for Flood {
    type Msg = ();

    fn num_nodes(&self) -> usize {
        self.graph.n()
    }

    fn on_wakeup(&mut self, node: NodeId, rng: &mut StdRng) -> Option<ContactIntent> {
        let partner = self.selector.next_partner(&self.graph, node, rng)?;
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Flooding completes under every action/time-model combination on a
    /// connected graph, and completion rounds are monotone along any path
    /// from the source in the synchronous model.
    #[test]
    fn flooding_completes(seed in any::<u64>(), n in 3usize..20, sync in any::<bool>(),
                          action_pick in 0u8..3) {
        let action = match action_pick {
            0 => Action::Push,
            1 => Action::Pull,
            _ => Action::Exchange,
        };
        let g = builders::cycle(n).unwrap();
        let mut proto = Flood::new(g, action, seed);
        let cfg = if sync {
            EngineConfig::synchronous(seed)
        } else {
            EngineConfig::asynchronous(seed)
        }
        .with_max_rounds(500_000);
        let (stats, finished) = run_with_completion(&mut Engine::new(cfg), &mut proto, |_, _| {});
        prop_assert!(stats.completed);
        // Every node finished, the source at round 0.
        prop_assert_eq!(finished[0], Some(0));
        prop_assert!(finished.iter().all(Option::is_some));
        // Bookkeeping identities.
        prop_assert_eq!(stats.messages_sent(),
                        stats.messages_delivered + stats.dedup_dropped + stats.lost);
        prop_assert_eq!(finished.iter().flatten().max(), Some(&stats.rounds));
    }

    /// In the synchronous model information travels at most one hop per
    /// round: completion round of v >= dist(0, v).
    #[test]
    fn sync_speed_of_light(seed in any::<u64>(), n in 4usize..24) {
        let g = builders::path(n).unwrap();
        let bfs = g.bfs_tree(0);
        let mut proto = Flood::new(g.clone(), Action::Exchange, seed);
        let mut engine = Engine::new(EngineConfig::synchronous(seed).with_max_rounds(500_000));
        let (stats, finished) = run_with_completion(&mut engine, &mut proto, |_, _| {});
        prop_assert!(stats.completed);
        for (v, round) in finished.into_iter().enumerate() {
            let round = round.unwrap();
            prop_assert!(
                round >= u64::from(bfs.dist(v).unwrap()),
                "node {v} informed at round {round}, below its distance"
            );
        }
    }

    /// Loss slows flooding but never breaks completion, and the message
    /// accounting identity holds. (A short lucky run may legitimately see
    /// zero drops, so we only require drops when enough messages flowed
    /// for zero drops to be a ~10^-9 event.)
    #[test]
    fn lossy_flooding_accounting(seed in any::<u64>(), loss in 0.1f64..0.6) {
        let g = builders::complete(8).unwrap();
        let mut proto = Flood::new(g, Action::Exchange, seed);
        let cfg = EngineConfig::synchronous(seed)
            .with_loss(loss)
            .with_max_rounds(500_000);
        let stats = Engine::new(cfg).run_batch(&mut proto);
        prop_assert!(stats.completed);
        prop_assert_eq!(stats.messages_sent(),
                        stats.messages_delivered + stats.dedup_dropped + stats.lost);
        if stats.messages_sent() > 200 {
            prop_assert!(stats.lost > 0);
        }
    }
}
