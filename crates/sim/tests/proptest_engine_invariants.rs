//! Engine accounting and monotonicity invariants, property-tested over
//! random graphs, both time models and loss ∈ {0, 0.3}:
//!
//! 1. **Conservation**: every `compose` attempt is accounted for exactly
//!    once — `delivered + lost + dedup_dropped + empty_sends` equals the
//!    number of compose calls the engine made.
//! 2. **Loss attribution**: `lost == 0` whenever `loss_prob == 0`, and
//!    `dedup_dropped == 0` whenever dedup is disabled or the model is
//!    asynchronous.
//! 3. **Completion monotonicity**: observed through `run_observed`, a
//!    node that reports complete never reverts, and the observed
//!    per-node completion rounds never exceed `stats.rounds`.

mod completion;

use std::cell::Cell;

use ag_graph::{builders, Graph, NodeId};
use ag_sim::{
    Action, CommModel, ContactIntent, Engine, EngineConfig, PartnerSelector, Protocol, TimeModel,
};
use completion::run_with_completion;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Flooding protocol that counts every `compose` invocation (the engine
/// promises to call `compose` once per attempted send direction).
struct CountingFlood {
    graph: Graph,
    informed: Vec<bool>,
    selector: PartnerSelector,
    action: Action,
    compose_calls: Cell<u64>,
}

impl CountingFlood {
    fn new(graph: Graph, action: Action, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let selector = PartnerSelector::new(&graph, CommModel::Uniform, &mut rng);
        let mut informed = vec![false; graph.n()];
        informed[0] = true;
        CountingFlood {
            graph,
            informed,
            selector,
            action,
            compose_calls: Cell::new(0),
        }
    }
}

impl Protocol for CountingFlood {
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
        self.compose_calls.set(self.compose_calls.get() + 1);
        self.informed[from].then_some(())
    }

    fn deliver(&mut self, _from: NodeId, to: NodeId, _tag: u32, _msg: ()) {
        self.informed[to] = true;
    }

    fn node_complete(&self, node: NodeId) -> bool {
        self.informed[node]
    }
}

fn random_graph(seed: u64, n: usize, regular: bool) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    if regular {
        let d = if n.is_multiple_of(2) { 3 } else { 4 };
        builders::random_regular(n, d, &mut rng)
            .unwrap_or_else(|_| builders::cycle(n.max(3)).unwrap())
    } else {
        builders::erdos_renyi_connected(n, 0.4, &mut rng)
            .unwrap_or_else(|_| builders::cycle(n.max(3)).unwrap())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Conservation + loss attribution, over random graphs, both time
    /// models, all actions, dedup on/off, loss in {0, 0.3}.
    #[test]
    fn message_accounting_is_conserved(
        seed in any::<u64>(),
        n in 4usize..28,
        regular in any::<bool>(),
        sync in any::<bool>(),
        action_pick in 0u8..3,
        lossy in any::<bool>(),
        dedup in any::<bool>(),
    ) {
        let action = match action_pick {
            0 => Action::Push,
            1 => Action::Pull,
            _ => Action::Exchange,
        };
        let graph = random_graph(seed, n, regular);
        let mut proto = CountingFlood::new(graph, action, seed ^ 0xC0DE);
        let mut cfg = if sync {
            EngineConfig::synchronous(seed)
        } else {
            EngineConfig::asynchronous(seed)
        }
        .with_dedup(dedup)
        .with_max_rounds(50_000);
        if lossy {
            cfg = cfg.with_loss(0.3);
        }
        let (stats, finished) = run_with_completion(&mut Engine::new(cfg), &mut proto, |_, _| {});
        prop_assert!(stats.completed, "flooding must finish within budget");
        // 1. Conservation: every compose attempt lands in exactly one
        //    bucket.
        prop_assert_eq!(
            proto.compose_calls.get(),
            stats.messages_delivered + stats.lost + stats.dedup_dropped + stats.empty_sends,
            "composed {} != delivered {} + lost {} + dedup {} + empty {}",
            proto.compose_calls.get(),
            stats.messages_delivered,
            stats.lost,
            stats.dedup_dropped,
            stats.empty_sends
        );
        prop_assert_eq!(
            stats.messages_sent(),
            stats.messages_delivered + stats.dedup_dropped + stats.lost
        );
        // 2. Attribution: no phantom losses, no phantom dedup.
        if !lossy {
            prop_assert_eq!(stats.lost, 0);
        }
        if !dedup || cfg.time_model == TimeModel::Asynchronous {
            prop_assert_eq!(stats.dedup_dropped, 0);
        }
        // 3. Per-node completion rounds are bounded by the run length.
        for r in finished.iter().flatten() {
            prop_assert!(*r <= stats.rounds);
        }
        prop_assert!(finished.iter().all(Option::is_some));
    }

    /// Completion is monotone under the observer: once a node reports
    /// complete at some observed round it stays complete at every later
    /// observation, and rounds as seen by the observer strictly increase
    /// (with the final partial-round observation included exactly once).
    #[test]
    fn completion_is_monotone(
        seed in any::<u64>(),
        n in 4usize..20,
        sync in any::<bool>(),
        lossy in any::<bool>(),
    ) {
        let graph = random_graph(seed, n, false);
        let n_nodes = graph.n();
        let mut proto = CountingFlood::new(graph, Action::Exchange, seed ^ 0xBEE);
        let mut cfg = if sync {
            EngineConfig::synchronous(seed)
        } else {
            EngineConfig::asynchronous(seed)
        }
        .with_max_rounds(50_000);
        if lossy {
            cfg = cfg.with_loss(0.3);
        }
        let mut prev_complete = vec![false; n_nodes];
        let mut prev_round = 0u64;
        let mut violations = Vec::new();
        let stats = Engine::new(cfg).run_observed(&mut proto, |round, p| {
            if round <= prev_round && prev_round != 0 {
                violations.push(format!("round went {prev_round} -> {round}"));
            }
            prev_round = round;
            for (v, prev) in prev_complete.iter_mut().enumerate() {
                let now = p.node_complete(v);
                if *prev && !now {
                    violations.push(format!("node {v} reverted at round {round}"));
                }
                *prev = now;
            }
        });
        prop_assert!(stats.completed);
        prop_assert!(violations.is_empty(), "{:?}", violations);
        prop_assert_eq!(prev_round, stats.rounds);
        // The final observation saw every node complete.
        prop_assert!(prev_complete.iter().all(|&c| c));
    }
}
