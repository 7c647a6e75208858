//! The [`Protocol`] trait: what a gossip protocol must provide, and the
//! [`ProtocolShard`]s it may split into so the engine can run a
//! synchronous round's compose and deliver phases on the rayon pool.

use ag_graph::NodeId;
use rand::rngs::StdRng;

/// The direction(s) of a gossip contact, from the initiator's viewpoint.
///
/// "…either the node pushes information to the partner (PUSH), pulls
/// information from the partner (PULL), or does both (EXCHANGE)."
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Action {
    /// Initiator sends to partner.
    Push,
    /// Partner sends to initiator.
    Pull,
    /// Both directions (the paper's default).
    #[default]
    Exchange,
}

impl Action {
    /// Does this action send a message initiator → partner?
    #[must_use]
    pub fn sends_forward(self) -> bool {
        matches!(self, Action::Push | Action::Exchange)
    }

    /// Does this action send a message partner → initiator?
    #[must_use]
    pub fn sends_backward(self) -> bool {
        matches!(self, Action::Pull | Action::Exchange)
    }
}

/// A contact decided by a waking node: whom to talk to, in which
/// direction(s), and an opaque protocol-defined tag.
///
/// The `tag` travels into [`Protocol::compose`] so multi-phase protocols
/// (TAG interleaves a spanning-tree phase and an algebraic-gossip phase by
/// wakeup parity) know which sub-protocol this contact belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContactIntent {
    /// The chosen communication partner.
    pub partner: NodeId,
    /// Message direction(s).
    pub action: Action,
    /// Protocol-defined contact label (e.g. TAG phase).
    pub tag: u32,
}

impl ContactIntent {
    /// An EXCHANGE contact with tag 0 — the common case.
    #[must_use]
    pub fn exchange(partner: NodeId) -> Self {
        ContactIntent {
            partner,
            action: Action::Exchange,
            tag: 0,
        }
    }
}

/// A gossip protocol driven by the [`crate::Engine`].
///
/// The split between `on_wakeup` (may mutate *control* state: wakeup
/// counters, round-robin pointers) and `compose` (read-only: message
/// content derives from *data* state) is what lets one protocol
/// implementation run under both time models: in the synchronous model the
/// engine calls every node's `on_wakeup`, then composes **all** messages
/// from pre-round data state, then delivers them — so information received
/// in a round is available only from the next round, exactly as the paper
/// assumes.
pub trait Protocol {
    /// Message type carried between nodes. `Send`, because a sharded
    /// round moves messages between the rayon workers.
    type Msg: Send;

    /// Number of nodes.
    fn num_nodes(&self) -> usize;

    /// Round-start hook: the engine calls this exactly once before round
    /// `round` (1-based) begins — ahead of every wakeup of a synchronous
    /// round, and ahead of the first timeslot of each asynchronous round
    /// group. This is the epoch-advance point for dynamic topologies:
    /// protocols over an [`ag_graph::Topology`] advance their view to
    /// epoch `round − 1` here, so round 1 always runs on the initial
    /// graph. It is also where a protocol that keeps a round's messages
    /// in storage of its own frees it: no message outlives its round under
    /// either time model. The default is a no-op (and a static topology's
    /// advance is itself a no-op), so static protocols pay nothing. Must
    /// not touch any engine-provided RNG — topology schedules carry their
    /// own seeded streams — so the engine's draw sequence is independent
    /// of whether a protocol overrides this. Wrapper protocols must
    /// forward it to their inner protocol.
    fn on_round_start(&mut self, round: u64) {
        let _ = round;
    }

    /// Node `node` wakes up; returns its contact for this wakeup, or
    /// `None` to stay idle. May mutate control state only — message
    /// content must not depend on mutations made here in a way that leaks
    /// intra-round data (the engine cannot check this; protocols in this
    /// workspace uphold it by construction).
    fn on_wakeup(&mut self, node: NodeId, rng: &mut StdRng) -> Option<ContactIntent>;

    /// Composes the message `from → to` for a contact with the given tag,
    /// reading only committed (pre-round) data state. `None` = nothing to
    /// send in this direction (e.g. an empty RLNC node).
    ///
    /// Under the synchronous model `rng` is private to
    /// `(seed, round, slot)`, where the slot identifies the waking node
    /// and the direction: what one message draws never shifts the stream
    /// another message, a wakeup or a loss draw sees. Under the
    /// asynchronous model it is the engine's main RNG.
    fn compose(&self, from: NodeId, to: NodeId, tag: u32, rng: &mut StdRng) -> Option<Self::Msg>;

    /// Delivers a previously composed message into `to`'s data state.
    fn deliver(&mut self, from: NodeId, to: NodeId, tag: u32, msg: Self::Msg);

    /// Hands back a composed message the engine decided **not** to
    /// deliver — same-sender dedup or loss injection. The default just
    /// drops it, which is all a message that owns nothing (a value, or an
    /// index into storage the protocol rewinds each round) needs; a
    /// wrapper forwards it so the protocol inside sees its messages' fates.
    /// Must not mutate any state the simulation can observe: drop
    /// accounting lives in the engine's `RunStats`.
    fn discard(&mut self, msg: Self::Msg) {
        drop(msg);
    }

    /// Bytes one message moves, which the engine's sharding rule reads: a
    /// synchronous round is split over shards only if its planned slots
    /// times this reach 2 MiB. The default, 0, keeps every round serial.
    fn msg_bytes(&self) -> usize {
        0
    }

    /// Splits the protocol into shards over the contiguous node ranges
    /// `bounds[s] = (start, end)`, which cover `0..n` in order, so the
    /// engine can run a synchronous round's compose and deliver phases on
    /// the rayon pool. `send_counts[s]` is how many messages shard `s`
    /// will be asked to compose (all 0 for the delivery phase), so a
    /// protocol that writes its messages into storage of its own can hand
    /// each shard a disjoint part of it sized up front.
    ///
    /// The default, `None`, has the engine compose and deliver serially
    /// through [`Protocol::compose`] and [`Protocol::deliver`], with the
    /// same results. A wrapper whose `compose` or `deliver` adds to its
    /// inner protocol's must keep the default: forwarding would bypass it.
    fn shards(
        &mut self,
        bounds: &[(usize, usize)],
        send_counts: &[usize],
    ) -> Option<Vec<Box<dyn ProtocolShard<Msg = Self::Msg> + '_>>> {
        let _ = (bounds, send_counts);
        None
    }

    /// Has this node individually completed its task? The engine reports
    /// each node's completion round from it to a [`crate::Probe`] and stops
    /// the run once every node reports `true`; it assumes a node, once
    /// complete, stays so.
    fn node_complete(&self, node: NodeId) -> bool;

    /// Whether every node is complete. The engine never calls this; the
    /// method stays only because `benchmark/src/trace.rs` implements it.
    fn is_complete(&self) -> bool {
        (0..self.num_nodes()).all(|v| self.node_complete(v))
    }
}

/// One shard of a [`Protocol`] (see [`Protocol::shards`]): exclusive
/// ownership of a contiguous node range, movable to a worker thread.
///
/// All node ids passed to shard methods are **global**; the engine
/// guarantees `from` lies in this shard's range for [`ProtocolShard::compose`]
/// and `to` lies in it for [`ProtocolShard::deliver`]. A shard must compose
/// and deliver exactly what its protocol would.
pub trait ProtocolShard: Send {
    /// Message type, matching the parent protocol's.
    type Msg: Send;

    /// Composes the message `from → to` from pre-round data state.
    /// `rng` is the slot's private RNG — fresh per `(seed, round, slot)`.
    fn compose(
        &mut self,
        from: NodeId,
        to: NodeId,
        tag: u32,
        rng: &mut StdRng,
    ) -> Option<Self::Msg>;

    /// Delivers a message into `to`'s data state.
    fn deliver(&mut self, from: NodeId, to: NodeId, tag: u32, msg: Self::Msg);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn action_directions() {
        assert!(Action::Push.sends_forward());
        assert!(!Action::Push.sends_backward());
        assert!(!Action::Pull.sends_forward());
        assert!(Action::Pull.sends_backward());
        assert!(Action::Exchange.sends_forward());
        assert!(Action::Exchange.sends_backward());
        assert_eq!(Action::default(), Action::Exchange);
    }

    #[test]
    fn exchange_intent_shape() {
        let i = ContactIntent::exchange(5);
        assert_eq!(i.partner, 5);
        assert_eq!(i.action, Action::Exchange);
        assert_eq!(i.tag, 0);
    }
}
