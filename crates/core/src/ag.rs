//! Uniform (and round-robin) algebraic gossip — the protocol of Theorem 1.

use ag_gf::SlabField;
use ag_graph::{Graph, GraphError, NodeId, Topology};
use ag_rlnc::Generation;
use ag_sim::{Action, CommModel, ContactIntent, PartnerSelector, Protocol, ProtocolShard};
use rand::rngs::StdRng;

use crate::coded_nodes::{require_connected, CodedNodes};
use crate::placement::Placement;

/// Configuration for an [`AlgebraicGossip`] instance.
///
/// # Examples
///
/// ```
/// use algebraic_gossip::{Action, AgConfig, CommModel, Placement};
///
/// let cfg = AgConfig::new(16)
///     .with_payload_len(8)
///     .with_comm_model(CommModel::Uniform)
///     .with_action(Action::Exchange)
///     .with_placement(Placement::Spread);
/// assert_eq!(cfg.k, 16);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AgConfig {
    /// Number of initial messages to disseminate.
    pub k: usize,
    /// Symbols per message (`r`); 0 runs pure rank dynamics.
    pub payload_len: usize,
    /// Partner-selection model (Definition 1 or 2).
    pub comm_model: CommModel,
    /// PUSH / PULL / EXCHANGE (the paper mostly analyzes EXCHANGE).
    pub action: Action,
    /// Who initially holds which message. A host that is not a node of
    /// the graph makes the protocol constructors return
    /// [`GraphError::NodeOutOfRange`], a custom list of the wrong length
    /// [`GraphError::InvalidSize`].
    pub placement: Placement,
    /// Sparse-recoding density in `(0, 1]`; `1.0` (default) is the
    /// paper's dense combination over all stored rows. A value outside
    /// the interval makes the protocol constructors return
    /// [`GraphError::InvalidSize`].
    pub coding_density: f64,
}

impl AgConfig {
    /// A config for `k` messages with the paper's defaults: EXCHANGE,
    /// uniform gossip, spread placement, payload-free packets.
    #[must_use]
    pub fn new(k: usize) -> Self {
        AgConfig {
            k,
            payload_len: 0,
            comm_model: CommModel::Uniform,
            action: Action::Exchange,
            placement: Placement::Spread,
            coding_density: 1.0,
        }
    }

    /// Sets the payload length in symbols (builder-style).
    #[must_use]
    pub fn with_payload_len(mut self, r: usize) -> Self {
        self.payload_len = r;
        self
    }

    /// Sets the communication model (builder-style).
    #[must_use]
    pub fn with_comm_model(mut self, m: CommModel) -> Self {
        self.comm_model = m;
        self
    }

    /// Sets the action (builder-style).
    #[must_use]
    pub fn with_action(mut self, a: Action) -> Self {
        self.action = a;
        self
    }

    /// Sets the placement (builder-style).
    #[must_use]
    pub fn with_placement(mut self, p: Placement) -> Self {
        self.placement = p;
        self
    }

    /// Sets the sparse-recoding density (builder-style).
    ///
    /// # Panics
    ///
    /// Panics if `density` is not in `(0, 1]`.
    #[must_use]
    pub fn with_coding_density(mut self, density: f64) -> Self {
        assert!(
            density > 0.0 && density <= 1.0,
            "coding density must be in (0, 1]"
        );
        self.coding_density = density;
        self
    }
}

/// The algebraic gossip protocol of Section 3.
///
/// Every node keeps an RLNC decoder; on wakeup it picks a partner per
/// the communication model and the contact moves fresh random linear
/// combinations in the configured direction(s). A node is complete when
/// its rank reaches `k`, at which point [`AlgebraicGossip::decoded`]
/// returns all the original messages.
///
/// Neighbors are read through a [`Topology`] view `T`. The default
/// `T = Graph` is the static case, at zero overhead (its trajectories
/// are pinned by the golden hashes). A
/// [`ag_graph::ScheduledTopology`] makes the same protocol run over a
/// churning graph: the engines' round-start hook advances the view to
/// epoch `round − 1`, so partner selection (and nothing else — RLNC state
/// is topology-oblivious, which is exactly the Haeupler-style robustness
/// the F9 experiments measure) follows the schedule. Over
/// [`ag_graph::ParentLinks`] each node's one contact is its tree parent:
/// Lemma 1's setting, run with EXCHANGE and [`CommModel::RoundRobin`].
///
/// All `n` nodes' equations live in one simulation-owned
/// [`ag_linalg::BasisArena`] and a round's messages are rows of one slab
/// sized to the round's ceiling — the RLNC wiring this protocol shares
/// with [`crate::Tag`] — so the engine's round loop
/// performs **zero** per-message heap allocation: a node allocates once,
/// for its payload rows, at its first row (coefficient rows are in the
/// arena's slab from construction on, so a rank-only run allocates
/// nothing), and nothing else allocates, which `tests/alloc_audit.rs`
/// bounds round by round with a counting allocator on a 1 KiB-payload run,
/// serial and sharded, on a rank-only one and on asynchronous ones. The
/// golden-trajectory hashes pin the per-round results of both protocols
/// end to end.
///
/// Drive it with [`ag_sim::Engine`] under either time model.
#[derive(Debug, Clone)]
pub struct AlgebraicGossip<F: SlabField, T: Topology = Graph> {
    topology: T,
    nodes: CodedNodes<F>,
    selector: PartnerSelector,
    action: Action,
}

impl<F: SlabField> AlgebraicGossip<F, Graph> {
    /// Builds the protocol over `graph` with a random generation of
    /// `cfg.k` messages. `seed` controls the generation content, the
    /// placement, and round-robin pointer offsets (the engine has its own
    /// seed for wakeups/coefficients).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidSize`] if `k == 0`, the graph is
    /// disconnected (dissemination could never complete),
    /// `cfg.coding_density` is outside `(0, 1]` or a custom placement does
    /// not list `k` hosts, and [`GraphError::NodeOutOfRange`] if
    /// `cfg.placement` names a host that is not a node.
    pub fn new(graph: &Graph, cfg: &AgConfig, seed: u64) -> Result<Self, GraphError> {
        Self::on_topology(graph.clone(), cfg, seed)
    }

    /// Like [`AlgebraicGossip::new`] but disseminating the *given*
    /// generation (real data, e.g. from [`ag_rlnc::BlockEncoder`]) instead
    /// of random content. `cfg.k` and `cfg.payload_len` must match the
    /// generation's shape.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidSize`] on shape mismatch or a
    /// disconnected graph.
    pub fn new_with_generation(
        graph: &Graph,
        cfg: &AgConfig,
        generation: Generation<F>,
        seed: u64,
    ) -> Result<Self, GraphError> {
        Self::on_topology_with_generation(graph.clone(), cfg, generation, seed)
    }
}

impl<F: SlabField, T: Topology> AlgebraicGossip<F, T> {
    /// Builds the protocol over an owned [`Topology`] (static or
    /// scheduled) with a random generation — the dynamic-scenario
    /// counterpart of [`AlgebraicGossip::new`], with the identical seed
    /// discipline (same seed ⇒ same generation, placement and round-robin
    /// offsets, whatever the topology type).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidSize`] if `k == 0` or the topology's
    /// initial (epoch-0) view is disconnected. Later epochs may
    /// disconnect freely — surviving that is the point of the dynamic
    /// scenarios.
    pub fn on_topology(topology: T, cfg: &AgConfig, seed: u64) -> Result<Self, GraphError> {
        Self::build(topology, cfg, None, seed)
    }

    /// [`AlgebraicGossip::on_topology`] with the *given* generation.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidSize`] on shape mismatch or a
    /// disconnected initial view.
    pub fn on_topology_with_generation(
        topology: T,
        cfg: &AgConfig,
        generation: Generation<F>,
        seed: u64,
    ) -> Result<Self, GraphError> {
        Self::build(topology, cfg, Some(generation), seed)
    }

    /// Both constructors: `generation`, or the random one `seed` draws.
    fn build(
        topology: T,
        cfg: &AgConfig,
        generation: Option<Generation<F>>,
        seed: u64,
    ) -> Result<Self, GraphError> {
        let directions =
            usize::from(cfg.action.sends_forward()) + usize::from(cfg.action.sends_backward());
        let (nodes, mut rng) =
            CodedNodes::new(topology.n(), cfg, generation, seed, directions, || {
                require_connected(&topology)
            })?;
        let selector = PartnerSelector::new(&topology, cfg.comm_model, &mut rng);
        Ok(AlgebraicGossip {
            topology,
            nodes,
            selector,
            action: cfg.action,
        })
    }

    /// The ground-truth generation (for integrity checks).
    #[must_use]
    pub fn generation(&self) -> &Generation<F> {
        &self.nodes.generation
    }

    /// Node `v`'s current rank.
    #[must_use]
    pub fn rank(&self, v: NodeId) -> usize {
        self.nodes.basis.rank(v)
    }

    /// The sum of all node ranks — a convenient global progress measure.
    #[must_use]
    pub fn total_rank(&self) -> usize {
        let basis = &self.nodes.basis;
        (0..basis.nodes()).map(|v| basis.rank(v)).sum()
    }

    /// Node `v`'s decoded messages once complete.
    #[must_use]
    pub fn decoded(&self, v: NodeId) -> Option<Vec<Vec<F>>> {
        self.nodes.basis.solution(v)
    }

    /// Total innovative (helpful) receptions across all nodes: the rank
    /// gained over the `k` seeds, since each raises one rank by one.
    #[must_use]
    pub fn helpful_receptions(&self) -> u64 {
        (self.total_rank() - self.nodes.generation.k()) as u64
    }

    /// Total redundant receptions across all nodes, each counted by its
    /// verdict as it is delivered (a message with no row included).
    #[must_use]
    pub fn redundant_receptions(&self) -> u64 {
        self.nodes.redundant_receptions()
    }

    /// The topology view partners are drawn from.
    #[must_use]
    pub fn topology(&self) -> &T {
        &self.topology
    }
}

impl<F: SlabField, T: Topology> Protocol for AlgebraicGossip<F, T> {
    /// A message is `Some` index of its packed augmented row (the
    /// [`ag_rlnc::Recoder::emit_packed_row`] wire format) in the protocol's
    /// slab of the round's messages, which `on_round_start` rewinds, or
    /// `None` when its receiver's span contained the sender's at compose
    /// (the no-row contract of `CodedNodes`, in `coded_nodes.rs`): such a
    /// message makes the same coefficient draws, carries no row and is
    /// delivered as one redundant reception.
    /// A contact costs **zero** heap allocations end to end, and a message
    /// the engine drops frees nothing — the difference that lets the
    /// payload-carrying sweeps run 10⁵-node graphs.
    type Msg = Option<u32>;

    fn num_nodes(&self) -> usize {
        self.topology.n()
    }

    fn on_round_start(&mut self, round: u64) {
        self.nodes.rewind();
        // Round r runs on epoch r − 1 (epoch 0 = initial graph). A no-op
        // for `T = Graph`, so the static path is unchanged.
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

    fn compose(
        &self,
        from: NodeId,
        to: NodeId,
        _tag: u32,
        rng: &mut StdRng,
    ) -> Option<Option<u32>> {
        self.nodes.compose(from, to, rng)
    }

    fn deliver(&mut self, from: NodeId, to: NodeId, _tag: u32, msg: Option<u32>) {
        self.nodes.deliver(from, to, msg);
    }

    /// Every message is one packed row, so a round moves planned slots ×
    /// `row_bytes`: the engine shards it over the rayon pool when that is
    /// worth a second core (1 KiB payloads from a few thousand nodes up;
    /// rank-only rounds stay serial).
    fn msg_bytes(&self) -> usize {
        self.nodes.basis.row_bytes()
    }

    fn shards(
        &mut self,
        bounds: &[(usize, usize)],
        send_counts: &[usize],
    ) -> Option<Vec<Box<dyn ProtocolShard<Msg = Option<u32>> + '_>>> {
        let shards = self.nodes.shards(bounds, send_counts);
        Some(
            shards
                .map(|s| Box::new(s) as Box<dyn ProtocolShard<Msg = Option<u32>> + '_>)
                .collect(),
        )
    }

    fn node_complete(&self, node: NodeId) -> bool {
        self.nodes.basis.is_full(node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::completion::run_with_completion;
    use ag_gf::{Gf2, Gf256};
    use ag_graph::{builders, ParentLinks, SpanningTree};
    use ag_sim::{Engine, EngineConfig, TimeModel};

    fn run<F: SlabField>(
        graph: &Graph,
        cfg: &AgConfig,
        time: TimeModel,
        seed: u64,
    ) -> (AlgebraicGossip<F>, ag_sim::RunStats) {
        let mut proto = AlgebraicGossip::<F>::new(graph, cfg, seed).unwrap();
        let ecfg = match time {
            TimeModel::Synchronous => EngineConfig::synchronous(seed),
            TimeModel::Asynchronous => EngineConfig::asynchronous(seed),
        }
        .with_max_rounds(200_000);
        let stats = Engine::new(ecfg).run(&mut proto);
        (proto, stats)
    }

    #[test]
    fn all_to_all_on_cycle_completes_and_decodes() {
        let g = builders::cycle(8).unwrap();
        let cfg = AgConfig::new(8).with_payload_len(2);
        let (proto, stats) = run::<Gf256>(&g, &cfg, TimeModel::Synchronous, 11);
        assert!(stats.completed);
        for v in 0..8 {
            assert_eq!(proto.decoded(v).unwrap(), proto.generation().messages());
        }
        // Exactly n*k helpful receptions are needed in total.
        assert_eq!(proto.helpful_receptions(), 8 * 8 - 8); // minus k seeds
    }

    #[test]
    fn single_source_on_grid_asynchronous() {
        let g = builders::grid(3, 3).unwrap();
        let cfg = AgConfig::new(4)
            .with_placement(Placement::SingleSource(0))
            .with_payload_len(1);
        let (proto, stats) = run::<Gf256>(&g, &cfg, TimeModel::Asynchronous, 3);
        assert!(stats.completed);
        for v in 0..9 {
            assert_eq!(proto.decoded(v).unwrap(), proto.generation().messages());
        }
    }

    #[test]
    fn gf2_worst_case_field_still_completes() {
        let g = builders::path(6).unwrap();
        let cfg = AgConfig::new(6);
        let (proto, stats) = run::<Gf2>(&g, &cfg, TimeModel::Synchronous, 5);
        assert!(stats.completed, "GF(2) run did not finish");
        assert_eq!(proto.total_rank(), 6 * 6);
    }

    #[test]
    fn round_robin_comm_model_completes() {
        let g = builders::complete(6).unwrap();
        let cfg = AgConfig::new(6).with_comm_model(CommModel::RoundRobin);
        let (_, stats) = run::<Gf256>(&g, &cfg, TimeModel::Synchronous, 2);
        assert!(stats.completed);
    }

    #[test]
    fn push_and_pull_variants_complete() {
        let g = builders::cycle(6).unwrap();
        for action in [Action::Push, Action::Pull] {
            let cfg = AgConfig::new(3).with_action(action);
            let (_, stats) = run::<Gf256>(&g, &cfg, TimeModel::Synchronous, 8);
            assert!(stats.completed, "{action:?} did not complete");
        }
    }

    #[test]
    fn rejects_disconnected_graph() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert!(AlgebraicGossip::<Gf256>::new(&g, &AgConfig::new(2), 0).is_err());
    }

    /// The implicit `K_n` needs no connectivity walk, so construction
    /// accepts it at the sizes its docs promise.
    #[test]
    fn accepts_a_large_complete_graph() {
        let g = builders::complete(100_000).unwrap();
        let proto = AlgebraicGossip::<Gf256>::new(&g, &AgConfig::new(2), 0).unwrap();
        assert_eq!(proto.topology().n(), 100_000);
    }

    #[test]
    fn rejects_zero_k() {
        let g = builders::path(3).unwrap();
        assert!(AlgebraicGossip::<Gf256>::new(&g, &AgConfig::new(0), 0).is_err());
    }

    #[test]
    fn sync_stopping_respects_k_over_2_lower_bound() {
        // Theorem 3's lower bound: k-dissemination needs >= k/2 rounds.
        let g = builders::complete(16).unwrap();
        let cfg = AgConfig::new(16);
        let (_, stats) = run::<Gf256>(&g, &cfg, TimeModel::Synchronous, 4);
        assert!(stats.completed);
        assert!(
            stats.rounds >= 8,
            "finished in {} rounds, below the k/2 = 8 lower bound",
            stats.rounds
        );
    }

    #[test]
    fn sync_stopping_respects_diameter_lower_bound() {
        // A message can travel one hop per synchronous round.
        let g = builders::path(20).unwrap();
        let cfg = AgConfig::new(1).with_placement(Placement::SingleSource(0));
        let (_, stats) = run::<Gf256>(&g, &cfg, TimeModel::Synchronous, 4);
        assert!(stats.completed);
        assert!(
            stats.rounds >= 19,
            "beat the diameter: {} rounds",
            stats.rounds
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let g = builders::grid(3, 3).unwrap();
        let cfg = AgConfig::new(5);
        let (_, s1) = run::<Gf256>(&g, &cfg, TimeModel::Asynchronous, 77);
        let (_, s2) = run::<Gf256>(&g, &cfg, TimeModel::Asynchronous, 77);
        assert_eq!(s1, s2);
    }

    /// A clone takes its state and its own message slab with it: cloned
    /// mid-run and finished under equal engine seeds, original and clone
    /// report the same run.
    #[test]
    fn a_clone_finishes_the_same_run_on_its_own() {
        let g = builders::grid(4, 4).unwrap();
        let cfg = AgConfig::new(8).with_payload_len(2);
        let mut original = AlgebraicGossip::<Gf256>::new(&g, &cfg, 5).unwrap();
        let head = EngineConfig::synchronous(5).with_max_rounds(3);
        assert!(!Engine::new(head).run(&mut original).completed);
        let mut clone = original.clone();
        let finish = |proto: &mut AlgebraicGossip<Gf256>| {
            let tail = EngineConfig::synchronous(6).with_loss(0.2);
            let stats = Engine::new(tail).run(proto);
            assert!(stats.completed);
            stats
        };
        assert_eq!(finish(&mut original), finish(&mut clone));
        for v in 0..g.n() {
            assert_eq!(clone.decoded(v), original.decoded(v));
        }
    }

    /// A topology that is never connected after epoch 0 spends the whole
    /// round budget, under both time models, instead of panicking: the
    /// far half of the barbell never completes.
    #[test]
    fn a_partition_that_never_heals_spends_the_round_budget() {
        use ag_graph::{ChurnSchedule, ScheduledTopology};
        let g = builders::barbell(16).unwrap();
        let cfg = AgConfig::new(4).with_placement(Placement::Custom(vec![0, 1, 2, 3]));
        let max_rounds = 200;
        for ecfg in [EngineConfig::synchronous(9), EngineConfig::asynchronous(9)] {
            let topo = ScheduledTopology::new(&g, ChurnSchedule::partition_heal(8, 1, u64::MAX));
            let mut proto = AlgebraicGossip::<Gf256, _>::on_topology(topo, &cfg, 9).unwrap();
            let mut engine = Engine::new(ecfg.with_max_rounds(max_rounds));
            let (stats, finished) = run_with_completion(&mut engine, &mut proto, |_, _| {});
            let model = ecfg.time_model;
            assert!(!stats.completed, "{model:?}");
            assert_eq!(stats.rounds, max_rounds, "{model:?}");
            assert_eq!(stats.timeslots, max_rounds * 16, "{model:?}");
            for v in 8..16 {
                assert!(!proto.node_complete(v), "{model:?}: far node {v} completed");
            }
            assert_eq!(finished[8..], [None; 8], "{model:?}");
        }
    }

    /// Lemma 1's setting: round-robin EXCHANGE over `tree`'s parent links,
    /// synchronous.
    fn run_on_tree(
        tree: &SpanningTree,
        cfg: &AgConfig,
        seed: u64,
    ) -> (AlgebraicGossip<Gf256, ParentLinks>, ag_sim::RunStats) {
        let cfg = cfg.clone().with_comm_model(CommModel::RoundRobin);
        let mut proto = AlgebraicGossip::on_topology(ParentLinks::new(tree), &cfg, seed).unwrap();
        let ecfg = EngineConfig::synchronous(seed).with_max_rounds(200_000);
        let stats = Engine::new(ecfg).run(&mut proto);
        (proto, stats)
    }

    #[test]
    fn all_to_all_on_path_tree() {
        let tree = builders::path(10).unwrap().bfs_tree(0).into_spanning_tree();
        let (proto, stats) = run_on_tree(&tree, &AgConfig::new(10).with_payload_len(1), 5);
        assert!(stats.completed);
        for v in 0..10 {
            assert_eq!(proto.decoded(v).unwrap(), proto.generation().messages());
        }
    }

    #[test]
    fn lemma1_scaling_k_dominates_on_shallow_trees() {
        // On a star (depth 1), time is Θ(k): doubling k roughly doubles
        // rounds.
        let tree = builders::star(16).unwrap().bfs_tree(0).into_spanning_tree();
        let cfg = |k| AgConfig::new(k).with_placement(Placement::Random);
        let (_, s1) = run_on_tree(&tree, &cfg(8), 7);
        let (_, s2) = run_on_tree(&tree, &cfg(32), 7);
        assert!(s1.completed && s2.completed);
        let ratio = s2.rounds as f64 / s1.rounds as f64;
        assert!(
            (1.5..10.0).contains(&ratio),
            "4x k scaled rounds by {ratio} ({} -> {})",
            s1.rounds,
            s2.rounds
        );
    }

    #[test]
    fn bidirectional_flow_reaches_leaves() {
        // Seed everything at a leaf: messages must flow up AND back down.
        let tree = builders::path(6).unwrap().bfs_tree(0).into_spanning_tree();
        let cfg = AgConfig::new(3).with_placement(Placement::SingleSource(5));
        let (proto, stats) = run_on_tree(&tree, &cfg, 3);
        assert!(stats.completed);
        assert_eq!(proto.decoded(0).unwrap(), proto.generation().messages());
    }

    #[test]
    fn root_only_node_is_trivially_special() {
        // Single-node tree with k messages at the root: complete at t=0.
        let tree = SpanningTree::from_parents(0, vec![None]).unwrap();
        let (_, stats) = run_on_tree(&tree, &AgConfig::new(3), 1);
        assert!(stats.completed);
        assert_eq!(stats.rounds, 0);
    }

    #[test]
    fn stays_within_theorem1_bound_with_margin() {
        // Theorem 1: O((k + log n + D) * Delta). Check a generous constant
        // (x12) holds on several families — this is the T1.1 experiment in
        // miniature.
        for (g, name) in [
            (builders::path(16).unwrap(), "path"),
            (builders::grid(4, 4).unwrap(), "grid"),
            (builders::binary_tree(15).unwrap(), "tree"),
            (builders::complete(12).unwrap(), "complete"),
        ] {
            let k = 4;
            let cfg = AgConfig::new(k);
            let bound = ag_analysis::uniform_ag_bound(k, g.n(), g.diameter(), g.max_degree());
            let (_, stats) = run::<Gf256>(&g, &cfg, TimeModel::Synchronous, 21);
            assert!(stats.completed, "{name} incomplete");
            assert!(
                (stats.rounds as f64) < 12.0 * bound,
                "{name}: {} rounds vs bound {bound}",
                stats.rounds
            );
        }
    }
}
