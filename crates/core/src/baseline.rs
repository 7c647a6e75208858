//! The uncoded baseline: random-message (store-and-forward) gossip.
//!
//! Algebraic gossip's raison d'être is that coding beats routing: "network
//! coding can improve the throughput of the network by better sharing of
//! the network resources" [14]. The classical uncoded protocol sends, on
//! each contact, one *raw* message chosen uniformly from those the sender
//! holds (random message selection — the "multiple rumor mongering"
//! baseline of Deb et al.). It suffers a coupon-collector tail: the last
//! few missing messages keep failing to arrive, costing a `Θ(log k)`
//! multiplicative overhead on the complete graph, which RLNC removes.
//!
//! This module implements that baseline with the same engine/config
//! surface as [`crate::AlgebraicGossip`], so every experiment can swap the
//! codec out and measure the coding gain (experiment A4).

use std::collections::BTreeSet;

use ag_gf::Field;
use ag_graph::{Graph, GraphError, NodeId, Topology};
use ag_rlnc::Generation;
use ag_sim::{Action, ContactIntent, PartnerSelector, Protocol};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::ag::AgConfig;
use crate::coded_nodes::{check_row_bytes, require_connected};

/// A raw (uncoded) message a node holds: its index and payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawMsg<F> {
    /// Which of the `k` source messages this is.
    pub index: usize,
    /// The message content.
    pub payload: Vec<F>,
}

/// Store-and-forward gossip with uniform random message selection.
///
/// Node state is simply the set of raw messages held. On each contact the
/// sender forwards one uniformly random held message. A node is complete
/// when it holds all `k`.
///
/// # Examples
///
/// ```
/// use ag_gf::Gf256;
/// use ag_graph::builders;
/// use ag_sim::{Engine, EngineConfig};
/// use algebraic_gossip::{AgConfig, RandomMessageGossip};
///
/// let g = builders::complete(8).unwrap();
/// let mut proto =
///     RandomMessageGossip::<Gf256>::new(&g, &AgConfig::new(8), 3).unwrap();
/// let stats = Engine::new(EngineConfig::synchronous(3).with_max_rounds(100_000))
///     .run(&mut proto);
/// assert!(stats.completed);
/// assert_eq!(proto.held(0), 8);
/// ```
#[derive(Debug, Clone)]
pub struct RandomMessageGossip<F: Field, T: Topology = Graph> {
    topology: T,
    generation: Generation<F>,
    // BTreeSet, not HashSet: `compose` picks the nth held index, so the
    // iteration order must be deterministic for seeded runs to reproduce
    // (std's HashSet randomizes its order per instance).
    holdings: Vec<BTreeSet<usize>>,
    selector: PartnerSelector,
    action: Action,
}

impl<F: Field> RandomMessageGossip<F, Graph> {
    /// Builds the baseline with a random generation, mirroring
    /// [`crate::AlgebraicGossip::new`] (same seed ⇒ same generation and
    /// placement, so comparisons are paired).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidSize`] if `k == 0` or the graph is
    /// disconnected.
    pub fn new(graph: &Graph, cfg: &AgConfig, seed: u64) -> Result<Self, GraphError> {
        Self::on_topology(graph.clone(), cfg, seed)
    }
}

impl<F: Field, T: Topology> RandomMessageGossip<F, T> {
    /// Builds the baseline over an owned [`Topology`], mirroring
    /// [`crate::AlgebraicGossip::on_topology`] — same seed ⇒ same
    /// generation and placement, so coded-vs-uncoded comparisons stay
    /// paired in the dynamic scenarios too.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidSize`] if `k == 0`, the initial view
    /// is disconnected, a custom placement does not list `k` hosts or
    /// `cfg.payload_len` is too large to allocate, and
    /// [`GraphError::NodeOutOfRange`] if `cfg.placement` names a host that
    /// is not a node.
    pub fn on_topology(topology: T, cfg: &AgConfig, seed: u64) -> Result<Self, GraphError> {
        if cfg.k == 0 {
            return Err(GraphError::InvalidSize("k must be positive".into()));
        }
        require_connected(&topology)?;
        cfg.placement.validate(topology.n(), cfg.k)?;
        check_row_bytes(cfg, std::mem::size_of::<F>())?;
        let mut rng = StdRng::seed_from_u64(seed);
        let generation = Generation::<F>::random(cfg.k, cfg.payload_len, &mut rng);
        let hosts = cfg.placement.assign(topology.n(), cfg.k, &mut rng);
        let mut holdings: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); topology.n()];
        for (msg, &host) in hosts.iter().enumerate() {
            holdings[host].insert(msg);
        }
        let selector = PartnerSelector::new(&topology, cfg.comm_model, &mut rng);
        Ok(RandomMessageGossip {
            topology,
            generation,
            holdings,
            selector,
            action: cfg.action,
        })
    }

    /// Number of distinct messages node `v` holds.
    #[must_use]
    pub fn held(&self, v: NodeId) -> usize {
        self.holdings[v].len()
    }

    /// The ground-truth generation.
    #[must_use]
    pub fn generation(&self) -> &Generation<F> {
        &self.generation
    }

    /// The messages node `v` holds, as `(index, payload)` pairs sorted by
    /// index — all `k` of them once the node is complete.
    #[must_use]
    pub fn messages_of(&self, v: NodeId) -> Vec<RawMsg<F>> {
        self.holdings[v]
            .iter()
            .map(|&index| RawMsg {
                index,
                payload: self.generation.message(index).to_vec(),
            })
            .collect()
    }
}

impl<F: Field, T: Topology> Protocol for RandomMessageGossip<F, T> {
    /// The index of the message sent. Payloads are read from the one
    /// ground-truth generation ([`RandomMessageGossip::messages_of`]), so
    /// none travels.
    type Msg = usize;

    fn num_nodes(&self) -> usize {
        self.topology.n()
    }

    fn on_round_start(&mut self, round: u64) {
        self.topology.advance_to_epoch(round.saturating_sub(1));
    }

    fn on_wakeup(&mut self, node: NodeId, rng: &mut StdRng) -> Option<ContactIntent> {
        let partner = self.selector.next_partner(&self.topology, node, rng)?;
        Some(ContactIntent {
            partner,
            action: self.action,
            tag: 0,
        })
    }

    fn compose(&self, from: NodeId, _to: NodeId, _tag: u32, rng: &mut StdRng) -> Option<usize> {
        let held = &self.holdings[from];
        if held.is_empty() {
            return None;
        }
        // Uniform random message selection (the sender does not know what
        // the receiver is missing — same information model as RLNC).
        let pick = rng.gen_range(0..held.len());
        held.iter().nth(pick).copied()
    }

    fn deliver(&mut self, _from: NodeId, to: NodeId, _tag: u32, index: usize) {
        self.holdings[to].insert(index);
    }

    fn node_complete(&self, node: NodeId) -> bool {
        self.holdings[node].len() == self.generation.k()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::Placement;
    use ag_gf::Gf256;
    use ag_graph::builders;
    use ag_sim::{Engine, EngineConfig};

    fn run(g: &Graph, cfg: &AgConfig, seed: u64) -> (RandomMessageGossip<Gf256>, ag_sim::RunStats) {
        let mut proto = RandomMessageGossip::<Gf256>::new(g, cfg, seed).unwrap();
        let stats =
            Engine::new(EngineConfig::synchronous(seed).with_max_rounds(1_000_000)).run(&mut proto);
        (proto, stats)
    }

    #[test]
    fn completes_and_holds_exact_payloads() {
        let g = builders::grid(3, 3).unwrap();
        let cfg = AgConfig::new(5).with_payload_len(2);
        let (proto, stats) = run(&g, &cfg, 1);
        assert!(stats.completed);
        for v in 0..9 {
            let msgs = proto.messages_of(v);
            assert_eq!(msgs.len(), 5);
            for (i, m) in msgs.iter().enumerate() {
                assert_eq!(m.index, i);
                assert_eq!(m.payload, proto.generation().message(i));
            }
        }
    }

    #[test]
    fn coupon_collector_penalty_on_complete_graph() {
        // On K_n with k = n, the uncoded baseline pays ~log k over RLNC.
        // Check it is measurably slower on the same seeds.
        use crate::ag::AlgebraicGossip;
        let n = 24;
        let g = builders::complete(n).unwrap();
        let cfg = AgConfig::new(n);
        let mut base_total = 0u64;
        let mut rlnc_total = 0u64;
        for seed in 0..5 {
            let (_, s) = run(&g, &cfg, seed);
            assert!(s.completed);
            base_total += s.rounds;
            let mut ag = AlgebraicGossip::<Gf256>::new(&g, &cfg, seed).unwrap();
            let s2 = Engine::new(EngineConfig::synchronous(seed).with_max_rounds(1_000_000))
                .run(&mut ag);
            assert!(s2.completed);
            rlnc_total += s2.rounds;
        }
        assert!(
            base_total > rlnc_total * 3 / 2,
            "baseline {base_total} not clearly slower than RLNC {rlnc_total}"
        );
    }

    #[test]
    fn single_source_broadcast_works() {
        let g = builders::path(8).unwrap();
        let cfg = AgConfig::new(3).with_placement(Placement::SingleSource(0));
        let (proto, stats) = run(&g, &cfg, 4);
        assert!(stats.completed);
        assert_eq!(proto.held(7), 3);
    }

    #[test]
    fn empty_holder_sends_nothing() {
        let g = builders::path(3).unwrap();
        let cfg = AgConfig::new(1).with_placement(Placement::SingleSource(0));
        let proto = RandomMessageGossip::<Gf256>::new(&g, &cfg, 5).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        assert!(proto.compose(2, 1, 0, &mut rng).is_none());
        assert!(proto.compose(0, 1, 0, &mut rng).is_some());
    }

    #[test]
    fn rejects_invalid_inputs() {
        let g = builders::path(3).unwrap();
        assert!(RandomMessageGossip::<Gf256>::new(&g, &AgConfig::new(0), 0).is_err());
        let dis = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert!(RandomMessageGossip::<Gf256>::new(&dis, &AgConfig::new(2), 0).is_err());
    }
}
