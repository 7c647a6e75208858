//! The [`Protocol`] trait: what a gossip protocol must provide.

use ag_graph::NodeId;
use rand::rngs::StdRng;

use crate::engine::SyncRound;

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
    /// Message type carried between nodes.
    type Msg;

    /// Number of nodes.
    fn num_nodes(&self) -> usize;

    /// Round-start hook: the engine calls this exactly once before round
    /// `round` (1-based) begins — ahead of every wakeup of a synchronous
    /// round, and ahead of the first timeslot of each asynchronous round
    /// group. This is the epoch-advance point for dynamic topologies:
    /// protocols over an [`ag_graph::Topology`] advance their view to
    /// epoch `round − 1` here, so round 1 always runs on the initial
    /// graph. The default is a no-op (and a static topology's advance is
    /// itself a no-op), so static protocols pay nothing. Must not touch
    /// any engine-provided RNG — topology schedules carry their own
    /// seeded streams — so the engine's draw sequence is independent of
    /// whether a protocol overrides this. Wrapper protocols must forward
    /// it to their inner protocol.
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

    /// Reclaims a composed message the engine decided **not** to deliver —
    /// same-sender dedup or loss injection. The default just drops it;
    /// protocols that pool their message buffers (e.g. algebraic gossip's
    /// `RowPool`) override this to recycle the allocation, which is what
    /// keeps their round loop allocation-free even on rounds with dropped
    /// messages. Must not mutate any state the simulation can observe:
    /// drop accounting lives in the engine's `RunStats`.
    fn discard(&mut self, msg: Self::Msg) {
        drop(msg);
    }

    /// Bulk hook for the compose phase of a synchronous round: the engine
    /// calls it once per round, after every wakeup and before the merge.
    /// The default does nothing, which leaves every slot to be composed
    /// inline through [`Protocol::compose`] at the moment the merge
    /// reaches it. A [`crate::ShardableProtocol`] overrides it with one
    /// line, `round.fan_out_compose(self, bytes_per_message)`, to let the
    /// engine compose the round on the rayon pool when the round is big
    /// enough to pay for it ([`SyncRound::fan_out_compose`] decides; the
    /// results are bit-identical either way).
    ///
    /// Wrapper protocols need not forward this hook or
    /// [`Protocol::deliver_round`]: a wrapper that keeps the defaults
    /// stays correct and runs inline, through its own `compose` and
    /// `deliver`, with the same results. It must not forward them to an
    /// inner protocol unless its `compose`/`deliver` add nothing to the
    /// inner ones, since the inner fan-out would bypass them.
    fn compose_round(&mut self, round: &mut SyncRound<Self::Msg>) {
        let _ = round;
    }

    /// Bulk hook for the delivery phase of a synchronous round: applies
    /// the round's surviving messages, each receiver seeing its messages
    /// in outbox (ascending-slot) order. The default delivers them one by
    /// one through [`Protocol::deliver`]; a [`crate::ShardableProtocol`]
    /// that overrides [`Protocol::compose_round`] overrides this with
    /// `round.fan_out_deliver(self)`.
    fn deliver_round(&mut self, round: &mut SyncRound<Self::Msg>) {
        round.deliver_inline(self);
    }

    /// Has this node individually completed its task? Used for per-node
    /// completion-time metrics; the run stops when [`Protocol::is_complete`].
    fn node_complete(&self, node: NodeId) -> bool;

    /// Global termination predicate (default: every node complete).
    fn is_complete(&self) -> bool {
        (0..self.num_nodes()).all(|v| self.node_complete(v))
    }
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
