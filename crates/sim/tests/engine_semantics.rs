//! Extra engine-semantics tests: direction handling, accounting, and the
//! paper's model rules, exercised through a purpose-built probe protocol.

mod completion;

use ag_graph::NodeId;
use ag_sim::{Action, ContactIntent, Engine, EngineConfig, Protocol};
use completion::run_with_completion;
use rand::rngs::StdRng;
use rand::Rng;

/// A probe protocol: node 0 contacts node 1 every wakeup with a fixed
/// action; both nodes record what they receive. Everyone else idles.
struct Probe {
    n: usize,
    action: Action,
    received: Vec<Vec<(NodeId, u32)>>,
    target_msgs: u32,
}

impl Protocol for Probe {
    type Msg = u32;

    fn num_nodes(&self) -> usize {
        self.n
    }

    fn on_wakeup(&mut self, node: NodeId, _rng: &mut StdRng) -> Option<ContactIntent> {
        (node == 0).then_some(ContactIntent {
            partner: 1,
            action: self.action,
            tag: 7,
        })
    }

    fn compose(&self, from: NodeId, _to: NodeId, tag: u32, _rng: &mut StdRng) -> Option<u32> {
        assert_eq!(tag, 7, "tag must round-trip");
        Some(from as u32)
    }

    fn deliver(&mut self, from: NodeId, to: NodeId, tag: u32, msg: u32) {
        assert_eq!(tag, 7);
        assert_eq!(msg, from as u32, "message carries composer identity");
        self.received[to].push((from, tag));
    }

    fn node_complete(&self, node: NodeId) -> bool {
        // Complete once both endpoints have seen enough traffic; idle
        // nodes are immediately complete.
        if node > 1 {
            return true;
        }
        let total: usize = self.received[0].len() + self.received[1].len();
        total >= self.target_msgs as usize
    }
}

fn probe(action: Action, rounds: u64) -> Probe {
    let mut p = Probe {
        n: 4,
        action,
        received: vec![Vec::new(); 4],
        target_msgs: u32::MAX, // run until budget
    };
    let cfg = EngineConfig::synchronous(1).with_max_rounds(rounds);
    let _ = Engine::new(cfg).run(&mut p);
    p
}

#[test]
fn push_sends_forward_only() {
    let p = probe(Action::Push, 5);
    assert_eq!(p.received[1].len(), 5, "partner gets one push per round");
    assert!(p.received[0].is_empty(), "initiator must receive nothing");
}

#[test]
fn pull_sends_backward_only() {
    let p = probe(Action::Pull, 5);
    assert_eq!(p.received[0].len(), 5, "initiator pulls one per round");
    assert!(p.received[1].is_empty(), "partner must receive nothing");
}

#[test]
fn exchange_sends_both_directions() {
    let p = probe(Action::Exchange, 5);
    assert_eq!(p.received[0].len(), 5);
    assert_eq!(p.received[1].len(), 5);
    // All messages from the expected peers.
    assert!(p.received[0].iter().all(|&(from, _)| from == 1));
    assert!(p.received[1].iter().all(|&(from, _)| from == 0));
}

#[test]
fn empty_sends_are_counted_not_delivered() {
    struct Silent;
    impl Protocol for Silent {
        type Msg = ();
        fn num_nodes(&self) -> usize {
            2
        }
        fn on_wakeup(&mut self, node: NodeId, _rng: &mut StdRng) -> Option<ContactIntent> {
            (node == 0).then_some(ContactIntent::exchange(1))
        }
        fn compose(&self, _: NodeId, _: NodeId, _: u32, _: &mut StdRng) -> Option<()> {
            None // nothing to say, ever
        }
        fn deliver(&mut self, _: NodeId, _: NodeId, _: u32, _msg: ()) {
            panic!("nothing should ever be delivered");
        }
        fn node_complete(&self, _: NodeId) -> bool {
            false
        }
    }
    let cfg = EngineConfig::synchronous(1).with_max_rounds(3);
    let stats = Engine::new(cfg).run(&mut Silent);
    assert_eq!(stats.messages_delivered, 0);
    // EXCHANGE attempts 2 sends per round, both empty: 3 rounds * 2.
    assert_eq!(stats.empty_sends, 6);
}

#[test]
fn async_round_accounting_is_ceil_of_slots() {
    // Under the asynchronous model with an always-idle protocol, the
    // engine still consumes exactly max_rounds * n slots.
    struct Idle;
    impl Protocol for Idle {
        type Msg = ();
        fn num_nodes(&self) -> usize {
            5
        }
        fn on_wakeup(&mut self, _: NodeId, _: &mut StdRng) -> Option<ContactIntent> {
            None
        }
        fn compose(&self, _: NodeId, _: NodeId, _: u32, _: &mut StdRng) -> Option<()> {
            None
        }
        fn deliver(&mut self, _: NodeId, _: NodeId, _: u32, _msg: ()) {}
        fn node_complete(&self, _: NodeId) -> bool {
            false
        }
    }
    let cfg = EngineConfig::asynchronous(2).with_max_rounds(7);
    let stats = Engine::new(cfg).run(&mut Idle);
    assert!(!stats.completed);
    assert_eq!(stats.timeslots, 7 * 5);
    assert_eq!(stats.rounds, 7);
}

#[test]
fn observer_fires_once_per_round_in_async_mode() {
    struct Idle;
    impl Protocol for Idle {
        type Msg = ();
        fn num_nodes(&self) -> usize {
            6
        }
        fn on_wakeup(&mut self, _: NodeId, _: &mut StdRng) -> Option<ContactIntent> {
            None
        }
        fn compose(&self, _: NodeId, _: NodeId, _: u32, _: &mut StdRng) -> Option<()> {
            None
        }
        fn deliver(&mut self, _: NodeId, _: NodeId, _: u32, _msg: ()) {}
        fn node_complete(&self, _: NodeId) -> bool {
            false
        }
    }
    let mut rounds_seen = Vec::new();
    let cfg = EngineConfig::asynchronous(3).with_max_rounds(4);
    Engine::new(cfg).run_observed(&mut Idle, |r, _p| rounds_seen.push(r));
    assert_eq!(rounds_seen, vec![1, 2, 3, 4]);
}

#[test]
fn loss_applies_per_direction_of_exchange() {
    // With loss 1.0 nothing arrives but empty_sends stays zero (messages
    // were composed) and drops count both directions.
    let mut p = Probe {
        n: 4,
        action: Action::Exchange,
        received: vec![Vec::new(); 4],
        target_msgs: u32::MAX,
    };
    let cfg = EngineConfig::synchronous(1)
        .with_max_rounds(4)
        .with_loss(1.0);
    let stats = Engine::new(cfg).run(&mut p);
    assert_eq!(stats.messages_delivered, 0);
    assert_eq!(stats.lost, 4 * 2);
    assert_eq!(stats.dedup_dropped, 0);
    assert_eq!(stats.empty_sends, 0);
}

#[test]
fn completion_round_zero_for_pre_complete_nodes() {
    let mut p = Probe {
        n: 4,
        action: Action::Push,
        received: vec![Vec::new(); 4],
        target_msgs: 2,
    };
    let mut engine = Engine::new(EngineConfig::synchronous(0).with_max_rounds(100));
    let (stats, finished) = run_with_completion(&mut engine, &mut p, |_, _| {});
    assert!(stats.completed);
    // Idle nodes 2, 3 complete at time 0; the active pair at round 2 (one
    // push per round).
    assert_eq!(finished, [Some(2), Some(2), Some(0), Some(0)]);
}

/// What happened to one message: `(from, to, delivered)`.
type Fate = (NodeId, NodeId, bool);

/// Every node EXCHANGEs with a random other node each round; the
/// protocol logs each round's intents and, in call order, every
/// `deliver` and `discard`. Messages carry their `(from, to)` pair so a
/// discarded one can be told apart.
struct FateLog {
    n: usize,
    /// Per round: the intents filed, and the fates in call order.
    rounds: Vec<(Vec<Option<ContactIntent>>, Vec<Fate>)>,
}

impl Protocol for FateLog {
    type Msg = (NodeId, NodeId);

    fn num_nodes(&self) -> usize {
        self.n
    }

    fn on_round_start(&mut self, _round: u64) {
        self.rounds.push((vec![None; self.n], Vec::new()));
    }

    fn on_wakeup(&mut self, node: NodeId, rng: &mut StdRng) -> Option<ContactIntent> {
        let intent = ContactIntent::exchange((node + rng.gen_range(1..self.n)) % self.n);
        self.rounds.last_mut().expect("round started").0[node] = Some(intent);
        Some(intent)
    }

    fn compose(&self, from: NodeId, to: NodeId, _: u32, _: &mut StdRng) -> Option<Self::Msg> {
        Some((from, to))
    }

    fn deliver(&mut self, from: NodeId, to: NodeId, _: u32, msg: Self::Msg) {
        assert_eq!(msg, (from, to), "a message reaches its own receiver");
        self.rounds
            .last_mut()
            .expect("round started")
            .1
            .push((from, to, true));
    }

    fn discard(&mut self, (from, to): Self::Msg) {
        self.rounds
            .last_mut()
            .expect("round started")
            .1
            .push((from, to, false));
    }

    fn node_complete(&self, _: NodeId) -> bool {
        false
    }
}

#[test]
fn survivors_and_drops_meet_their_fate_in_slot_order() {
    let mut p = FateLog {
        n: 5,
        rounds: Vec::new(),
    };
    let cfg = EngineConfig::synchronous(11)
        .with_loss(0.3)
        .with_max_rounds(60);
    let stats = Engine::new(cfg).run(&mut p);
    assert!(stats.dedup_dropped > 0 && stats.lost > 0 && stats.messages_delivered > 0);
    let mut drop_after_delivery = false;
    for (round, (intents, fates)) in p.rounds.iter().enumerate() {
        // Slot 2v is v's forward message, 2v + 1 its backward one.
        let planned: Vec<(NodeId, NodeId)> = intents
            .iter()
            .enumerate()
            .flat_map(|(v, i)| {
                let u = i.expect("every node contacts").partner;
                [(v, u), (u, v)]
            })
            .collect();
        let order: Vec<(NodeId, NodeId)> = fates.iter().map(|&(f, t, _)| (f, t)).collect();
        assert_eq!(order, planned, "round {}", round + 1);
        drop_after_delivery |= fates.windows(2).any(|w| w[0].2 && !w[1].2);
    }
    assert!(
        drop_after_delivery,
        "deliveries and drops never interleaved"
    );
}
