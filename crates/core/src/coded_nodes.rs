//! The RLNC state every gossip protocol in this crate shares.
//!
//! A node is what the paper's node stores: its equations, one node of the
//! [`BasisArena`] that [`CodedNodes`] owns, recoded by [`ag_rlnc::recode`]
//! and received by the arena's insert. Its helpful receptions are the rank
//! it gained, so no per-node counter sits beside it; the redundant ones are
//! one count for the whole run.
//!
//! # The pair ledger
//!
//! A message helps only if its row lies outside the receiver's span, so a
//! sender whose span the receiver's already contains need not combine one
//! (see [`CodedNodes`]). Proving span(x) ⊆ span(y) in general takes an
//! elimination; the pair ledger proves it for the first partner each node
//! exchanges a helpful row with, in two loads. Node `v` has one slot: a
//! partner id (or none) and `h`, the number of helpful (innovative)
//! receptions between `v` and that partner, in either direction, since `v`
//! claimed the slot. An innovative delivery adds 1 to `h` at each endpoint
//! whose slot names the other, and an endpoint with a free slot claims it
//! for the other with `h = 1`. A slot is never evicted. Compose skips the
//! row when `rank(x) ≤ h`, with `h` from whichever endpoint's slot names
//! the other (the larger if both do).
//!
//! *Why it is exact.* Write D(x, y) = dim((span x + span y) / span y), the
//! part of x's span that y lacks. For a slot naming the pair {x, y} the
//! ledger keeps D(x, y) ≤ rank(x) − h, and by symmetry D(y, x) ≤ rank(y) −
//! h. At the claim it holds with `h = 1`: D was at most rank(x) before the
//! claiming event, and that event either raises rank(x) and leaves D as it
//! was (case 1 below) or lowers D by one (case 3). After it, event by
//! event:
//!
//! 1. x gains a row from y: both sides stay the same, because the row lay
//!    in y's span at compose, and spans only grow.
//! 2. x gains a row from another node: the right side grows by 1, and D
//!    grows by at most 1.
//! 3. y gains a row from x: the right side falls by 1, and so does D,
//!    exactly: the row lies in span(x) and outside span(y).
//! 4. y gains a row from another node: the right side stays the same, and
//!    D cannot grow.
//!
//! So rank(x) ≤ h gives D(x, y) = 0, that is span(x) ⊆ span(y). Each slot
//! keeps the bound on its own, so the larger of two is sound, and their
//! sum is not. A missed event only lowers `h`, which keeps the bound: that
//! is why a [`CodedShard`] neither reads nor writes the ledger, and the
//! helpful receptions of a sharded phase are simply not counted in it.

use std::cell::{Cell, RefCell};

use ag_gf::SlabField;
use ag_graph::{GraphError, NodeId, Topology};
use ag_linalg::{BasisArena, BasisShard, Insertion};
use ag_rlnc::{recode, Generation};
use ag_sim::ProtocolShard;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::ag::AgConfig;

/// The RLNC half of every gossip protocol in this crate: the ground-truth
/// generation, all `n` nodes' stored equations in one [`BasisArena`], and
/// the round's messages in one slab. [`crate::AlgebraicGossip`] and
/// [`crate::Tag`] differ only in who talks to whom; what is said and how
/// it is received is this, once.
///
/// A message is `Some` index of its packed row in the slab, or `None`.
///
/// **The no-row contract:** a message carries no row only when, as it is
/// composed, its receiver's span contains its sender's. A message helps
/// only if its coefficient vector lies outside the receiver's span, and
/// every row the sender can draw lies inside it, so such a message makes
/// the coefficient draws a real emit makes (the RNG stream is unchanged)
/// but skips the combination, takes no slab row, and its delivery counts
/// one redundant reception here without touching the receiver's basis
/// (see `no_row`). Spans only grow, so a synchronous receiver that gains rows before the
/// delivery still finds the row it was not sent redundant. The serial path
/// skips a receiver that is full, one the pair ledger (see the module
/// docs) proves contains the sender's span, and one whose span equals the
/// sender's ([`BasisArena::same_span`], usually two loads), all read
/// live, which during a compose phase is the round-start state; a
/// [`CodedShard`] cannot see a receiver in another shard, so it reads a
/// bit set of the full nodes, taken when the round's compose phase is
/// split, and skips only those.
///
/// `compose` writes rows one after another from the start of the slab,
/// and the protocol rewinds it in its round-start hook: no message
/// outlives its round, under either time model (a synchronous round
/// delivers or drops all it composed; an asynchronous timeslot settles its
/// two messages at once). A round composes at most one message per
/// contact direction per node, so the slab is sized to that ceiling up
/// front and a round never allocates; dropping an index frees nothing.
#[derive(Debug, Clone)]
pub(crate) struct CodedNodes<F: SlabField> {
    /// The ground-truth generation.
    pub(crate) generation: Generation<F>,
    /// Every node's stored equations.
    pub(crate) basis: BasisArena<F>,
    /// Sparse-recoding density; `None` is the paper's dense combination
    /// (`cfg.coding_density == 1.0`).
    pub(crate) density: Option<f64>,
    /// A serial emit's packed recoding factors: `k` symbols of capacity
    /// from construction on, so emits do not allocate as ranks grow.
    factors: RefCell<Vec<u8>>,
    /// The round's messages, one packed row each, row `i` at
    /// `i · row_bytes`: `directions × n` rows from construction on.
    slab: RefCell<Vec<u8>>,
    /// Rows composed since the last rewind.
    composed: Cell<usize>,
    /// Bit `v % 64` of word `v / 64` is set when node `v` is full: `n`
    /// bits from construction on, rewritten each time a compose phase is
    /// split into shards, which read it in place of ranks they cannot see.
    full: Vec<u64>,
    /// The pair ledger (see the module docs): one slot per node.
    ledger: Vec<Slot>,
    /// Redundant receptions delivered serially: a redundant verdict or a
    /// message with no row.
    redundant: u64,
    /// Redundant receptions delivered in shards, one slot a shard: sized
    /// at the first sharded round and never shrunk.
    shard_redundant: Vec<u64>,
}

/// One node's slot of the pair ledger: the partner it claimed and the
/// helpful receptions between the two since. A slot is free while it has
/// counted nothing (the default), so its first count is its claim and a
/// free slot names no partner whatever its `partner` field holds.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    partner: u32,
    helpful: u32,
}

impl Slot {
    /// The helpful receptions this slot has counted between its node and
    /// `other`: 0 unless it names `other`.
    fn helpful_with(self, other: NodeId) -> u32 {
        if self.partner as usize == other {
            self.helpful
        } else {
            0
        }
    }

    /// Counts one helpful reception between the slot's node and `other`,
    /// claiming the slot for `other` if it is free.
    fn record(&mut self, other: NodeId) {
        // `CodedNodes::new` bounds `n` by its `u32` row index.
        let other = other as u32;
        if self.helpful == 0 {
            self.partner = other;
        }
        if self.partner == other {
            // Saturating undercounts, which the ledger allows.
            self.helpful = self.helpful.saturating_add(1);
        }
    }
}

/// Sizes one node's full-rank rows, `k · (k + payload_len) · symbol_bytes`,
/// before anything is drawn or allocated: `payload_len` is a public field,
/// and a generation that cannot be allocated aborts the process where a
/// typed error is owed. The bound is `isize::MAX`, the largest allocation
/// the language allows.
///
/// # Errors
///
/// Returns [`GraphError::InvalidSize`] with the byte count (exact, in
/// `u128`) if it is above that bound.
pub(crate) fn check_row_bytes(cfg: &AgConfig, symbol_bytes: usize) -> Result<(), GraphError> {
    let bytes = (cfg.k as u128) * (cfg.k as u128 + cfg.payload_len as u128) * symbol_bytes as u128;
    if bytes > isize::MAX as u128 {
        return Err(GraphError::InvalidSize(format!(
            "k = {} rows of {} + {} symbols need {bytes} bytes per node",
            cfg.k, cfg.k, cfg.payload_len
        )));
    }
    Ok(())
}

/// The error every dissemination protocol here returns for a topology
/// whose initial view is disconnected: it could never complete.
pub(crate) fn require_connected(topology: &impl Topology) -> Result<(), GraphError> {
    if topology.is_connected_now() {
        Ok(())
    } else {
        Err(GraphError::InvalidSize(
            "dissemination requires a connected (initial) graph".into(),
        ))
    }
}

impl<F: SlabField> CodedNodes<F> {
    /// Seeds `n` empty nodes per `cfg.placement` with `generation`, or with
    /// the random one `seed` stands for when it is `None`. That one is drawn
    /// either way, so the placement drawn after it, and the `seed` RNG
    /// returned for the caller's own seeded state, are one stream whether
    /// the generation was drawn or given. `directions` is how many messages
    /// one contact moves (2 for EXCHANGE): the slab holds `directions × n`.
    ///
    /// # Errors
    ///
    /// In this order: for a generation to draw, [`GraphError::InvalidSize`]
    /// if `k == 0` or one node's rows cannot be allocated
    /// ([`check_row_bytes`]); `graph`'s error (the caller's checks of its
    /// topology); [`GraphError::InvalidSize`] if a given generation's shape
    /// is not `cfg`'s or `cfg.coding_density` is outside `(0, 1]`;
    /// `Placement::validate`'s; and [`GraphError::InvalidSize`] if
    /// `directions × n` rows do not fit a `u32` row index or the arena's
    /// sizing or the slab's allocation fails.
    pub(crate) fn new(
        n: usize,
        cfg: &AgConfig,
        generation: Option<Generation<F>>,
        seed: u64,
        directions: usize,
        graph: impl FnOnce() -> Result<(), GraphError>,
    ) -> Result<(Self, StdRng), GraphError> {
        if generation.is_none() {
            if cfg.k == 0 {
                return Err(GraphError::InvalidSize("k must be positive".into()));
            }
            check_row_bytes(cfg, F::SYMBOL_BYTES)?;
        }
        graph()?;
        if let Some(given) = &generation {
            if cfg.k != given.k() || cfg.payload_len != given.message_len() {
                return Err(GraphError::InvalidSize(format!(
                    "config shape (k={}, r={}) does not match generation (k={}, r={})",
                    cfg.k,
                    cfg.payload_len,
                    given.k(),
                    given.message_len()
                )));
            }
        }
        // `coding_density` is a public field, so `with_coding_density`'s
        // assert is not the only way in (NaN fails both comparisons).
        if !(cfg.coding_density > 0.0 && cfg.coding_density <= 1.0) {
            return Err(GraphError::InvalidSize(
                "coding density must be in (0, 1]".into(),
            ));
        }
        // `placement` is a public field too, and `assign` panics on a host
        // that is not a node.
        cfg.placement.validate(n, cfg.k)?;
        let mut rng = StdRng::seed_from_u64(seed);
        let drawn = Generation::random(cfg.k, cfg.payload_len, &mut rng);
        let generation = generation.unwrap_or(drawn);
        let hosts = cfg.placement.assign(n, cfg.k, &mut rng);
        let rows = directions.saturating_mul(n);
        if u32::try_from(rows.saturating_sub(1)).is_err() {
            return Err(GraphError::InvalidSize(format!(
                "{directions} × {n} message rows do not fit a u32 row index"
            )));
        }
        let mut basis = BasisArena::try_new(n, cfg.k, cfg.k + cfg.payload_len)
            .map_err(|e| GraphError::InvalidSize(e.to_string()))?;
        let slab = slab_of(rows, basis.row_bytes())?;
        let ledger = ledger_of(n)?;
        let mut row = Vec::new();
        for (msg, &host) in hosts.iter().enumerate() {
            generation.seed_row_into(msg, &mut row);
            let _ = basis.insert_packed_mut(host, &mut row);
        }
        let nodes = CodedNodes {
            generation,
            basis,
            density: (cfg.coding_density < 1.0).then_some(cfg.coding_density),
            factors: RefCell::new(Vec::with_capacity(cfg.k * F::SYMBOL_BYTES)),
            slab: RefCell::new(slab),
            composed: Cell::new(0),
            full: vec![0; n.div_ceil(64)],
            ledger,
            redundant: 0,
            shard_redundant: Vec::new(),
        };
        Ok((nodes, rng))
    }

    /// Starts a new round: every row of the slab is free again.
    pub(crate) fn rewind(&mut self) {
        self.composed.set(0);
    }

    /// One coded message `from → to`: a fresh random combination of
    /// everything `from` stores, written into the slab's next free row,
    /// whose index it returns. `None` for a rank-0 node, which has nothing
    /// to say, and takes no row. A receiver that is already full, that the
    /// pair ledger proves contains `from`'s span, or that spans exactly
    /// what `from` does, gets the same draws and no row (`Some(None)`). A
    /// round that outgrows the slab's ceiling (a caller that composes
    /// without ever starting a round) grows it, and one whose row index
    /// outgrows a `u32` composes nothing.
    pub(crate) fn compose(
        &self,
        from: NodeId,
        to: NodeId,
        rng: &mut StdRng,
    ) -> Option<Option<u32>> {
        let (mut basis, factors) = (&self.basis, &mut self.factors.borrow_mut());
        if basis.is_full(to) || self.ledger_contains(from, to) || basis.same_span(from, to) {
            return recode(&mut basis, from, self.density, factors, rng, None).then_some(None);
        }
        let rb = basis.row_bytes();
        let row = self.composed.get();
        let index = u32::try_from(row).ok()?;
        let mut slab = self.slab.borrow_mut();
        let at = row * rb;
        if slab.len() < at + rb {
            slab.resize(at + rb, 0);
        }
        let out = &mut slab[at..at + rb];
        if !recode(&mut basis, from, self.density, factors, rng, Some(out)) {
            return None;
        }
        self.composed.set(row + 1);
        Some(Some(index))
    }

    /// Does the pair ledger prove span(`from`) ⊆ span(`to`)? Sound, not
    /// complete (see the module docs): `rank(from) ≤ h`. A containment
    /// needs `rank(from) ≤ rank(to)`, so a sender of higher rank is
    /// answered from the two ranks, without the two slots.
    fn ledger_contains(&self, from: NodeId, to: NodeId) -> bool {
        let rank = self.basis.rank(from);
        if rank > self.basis.rank(to) {
            return false;
        }
        let h = self.ledger[from]
            .helpful_with(to)
            .max(self.ledger[to].helpful_with(from));
        rank <= h as usize
    }

    /// Delivers `from`'s message at slab row `msg` to `to`, reducing a
    /// copy of the row. A helpful one is counted in the pair ledger; a
    /// redundant one, or a message with no row, in the redundant count.
    pub(crate) fn deliver(&mut self, from: NodeId, to: NodeId, msg: Option<u32>) {
        let verdict = match msg {
            None => no_row(self.basis.rank(to)),
            Some(msg) => {
                let rb = self.basis.row_bytes();
                let at = msg as usize * rb;
                self.basis
                    .insert_packed_slice(to, &self.slab.get_mut()[at..at + rb])
            }
        };
        if verdict.is_innovative() {
            self.ledger[to].record(from);
            self.ledger[from].record(to);
        } else {
            self.redundant += 1;
        }
    }

    /// Redundant receptions so far, serial and sharded.
    pub(crate) fn redundant_receptions(&self) -> u64 {
        self.redundant + self.shard_redundant.iter().sum::<u64>()
    }

    /// Splits the nodes into one [`CodedShard`] per range of `bounds` for a
    /// sharded round (see [`ag_sim::Protocol::shards`]). Shard `s` gets the
    /// next `send_counts[s]` free rows of the slab to compose into, and
    /// every shard reads the rows composed before this call, which is what
    /// a delivery phase (all counts 0) delivers. A compose phase first
    /// rewrites the set of full nodes the shards read.
    pub(crate) fn shards<'s, 'c>(
        &'s mut self,
        bounds: &[(usize, usize)],
        send_counts: &'c [usize],
    ) -> impl Iterator<Item = CodedShard<'s, F>> + use<'s, 'c, F> {
        let rb = self.basis.row_bytes();
        let first = self.composed.get();
        let sends = send_counts.iter().sum::<usize>();
        if sends > 0 {
            self.mark_full();
        }
        if self.shard_redundant.len() < bounds.len() {
            self.shard_redundant.resize(bounds.len(), 0);
        }
        let end = first + sends;
        self.composed.set(end);
        let slab = self.slab.get_mut();
        if slab.len() < end * rb {
            slab.resize(end * rb, 0);
        }
        let (composed, free) = slab.split_at_mut(first * rb);
        let composed: &[u8] = composed;
        let mut free = &mut free[..(end - first) * rb];
        let mut next = first;
        let density = self.density;
        let full: &[u64] = &self.full;
        self.basis
            .shards_mut(bounds)
            .into_iter()
            .zip(send_counts)
            .zip(&mut self.shard_redundant)
            .map(move |((basis, &count), redundant)| {
                let (mine, rest) = std::mem::take(&mut free).split_at_mut(count * rb);
                free = rest;
                let shard = CodedShard {
                    basis,
                    scratch: Vec::with_capacity(rb),
                    redundant,
                    full,
                    density,
                    row_bytes: rb,
                    composed,
                    free: mine,
                    next,
                };
                next += count;
                shard
            })
    }

    /// Rewrites the set of full nodes from the live ranks.
    fn mark_full(&mut self) {
        let basis = &self.basis;
        for (w, word) in self.full.iter_mut().enumerate() {
            let nodes = w * 64..(w * 64 + 64).min(basis.nodes());
            *word = nodes
                .filter(|&v| basis.is_full(v))
                .fold(0, |bits, v| bits | 1 << (v % 64));
        }
    }
}

/// `rows` zeroed packed rows of `row_bytes` each, or the typed error for a
/// slab that does not fit `usize` or that the allocator refuses. The
/// allocation is tried fallibly first (`vec!` aborts when refused) and
/// handed straight back, so the pages come from the allocator unwritten.
fn slab_of(rows: usize, row_bytes: usize) -> Result<Vec<u8>, GraphError> {
    let refused = |bytes: u128| {
        GraphError::InvalidSize(format!(
            "{rows} message rows of {row_bytes} bytes: could not reserve {bytes} bytes"
        ))
    };
    let bytes = rows
        .checked_mul(row_bytes)
        .ok_or_else(|| refused(rows as u128 * row_bytes as u128))?;
    Vec::<u8>::new()
        .try_reserve_exact(bytes)
        .map_err(|_| refused(bytes as u128))?;
    Ok(vec![0; bytes])
}

/// `n` free slots of the pair ledger, or the typed error for a ledger the
/// allocator refuses.
fn ledger_of(n: usize) -> Result<Vec<Slot>, GraphError> {
    let mut ledger = Vec::new();
    ledger.try_reserve_exact(n).map_err(|_| {
        GraphError::InvalidSize(format!(
            "a pair ledger of {n} nodes: could not reserve {} bytes",
            n as u128 * size_of::<Slot>() as u128
        ))
    })?;
    ledger.resize(n, Slot::default());
    Ok(ledger)
}

/// The verdict on a message with no row: redundant, by the no-row
/// contract (see [`CodedNodes`]). A debug build checks the part of it that
/// survives until delivery, a receiver of nonzero `rank`: a synchronous
/// receiver may have grown since compose, and its sender too, but a node
/// that held a nonzero span still does.
fn no_row(rank: usize) -> Insertion {
    debug_assert!(rank > 0, "a no-row message went to an empty node");
    Insertion::Redundant
}

/// One shard of [`CodedNodes`] for a sharded round: a [`BasisShard`]
/// over a contiguous node range, the slab rows reserved for what it
/// composes, and the rows composed before its phase, for what it delivers.
/// Disjoint by construction, so no lock is taken. A receiver outside the
/// shard's range is read from the set of full nodes all shards share.
pub(crate) struct CodedShard<'a, F: SlabField> {
    basis: BasisShard<'a, F>,
    /// One row wide: an emit's packed recoding factors, or the copy of a
    /// received row its reduction runs in.
    scratch: Vec<u8>,
    /// This shard's slot of [`CodedNodes`]' shard redundant counts.
    redundant: &'a mut u64,
    /// [`CodedNodes`]' set of full nodes, as of the round's compose phase.
    full: &'a [u64],
    density: Option<f64>,
    row_bytes: usize,
    /// Rows composed before this phase began.
    composed: &'a [u8],
    /// This shard's free rows, one per planned send.
    free: &'a mut [u8],
    /// The slab index of `free`'s first row.
    next: usize,
}

impl<F: SlabField> ProtocolShard for CodedShard<'_, F> {
    type Msg = Option<u32>;

    /// Takes the shard's next free row whatever it composes (the rows were
    /// reserved per planned send), and leaves it unwritten for a full
    /// receiver; a shard asked for more than it was planned composes
    /// nothing.
    fn compose(
        &mut self,
        from: NodeId,
        to: NodeId,
        _tag: u32,
        rng: &mut StdRng,
    ) -> Option<Option<u32>> {
        let rb = self.row_bytes;
        let (out, rest) = std::mem::take(&mut self.free).split_at_mut_checked(rb)?;
        self.free = rest;
        let index = u32::try_from(self.next).ok()?;
        self.next += 1;
        let factors = &mut self.scratch;
        if self.full[to / 64] >> (to % 64) & 1 == 1 {
            return recode(&mut self.basis, from, self.density, factors, rng, None).then_some(None);
        }
        recode(&mut self.basis, from, self.density, factors, rng, Some(out)).then_some(Some(index))
    }

    /// Reduces a copy of the row; the insert answers a full receiver from
    /// its rank.
    fn deliver(&mut self, _from: NodeId, to: NodeId, _tag: u32, msg: Option<u32>) {
        let verdict = match msg {
            None => no_row(self.basis.rank(to)),
            Some(msg) => {
                let rb = self.row_bytes;
                let at = msg as usize * rb;
                self.scratch.clear();
                self.scratch.extend_from_slice(&self.composed[at..at + rb]);
                self.basis.insert_packed_mut(to, &mut self.scratch)
            }
        };
        if !verdict.is_innovative() {
            *self.redundant += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::Placement;
    use ag_gf::{Field, Gf2, Gf256, F13};
    use proptest::prelude::*;
    use rand::{Rng, RngCore};

    /// Gives node `node` source message `msg`.
    fn seed<F: SlabField>(nodes: &mut CodedNodes<F>, node: NodeId, msg: usize) {
        let mut row = Vec::new();
        nodes.generation.seed_row_into(msg, &mut row);
        let _ = nodes.basis.insert_packed_mut(node, &mut row);
    }

    /// A message to a full receiver, or to one whose span is the sender's,
    /// makes the draws a real one makes, takes no slab row and writes no
    /// byte, serially and (for a full receiver) in a shard; delivered,
    /// serially or in a shard, it is one redundant reception and nothing
    /// else.
    #[test]
    fn a_full_receiver_is_sent_no_row() {
        // Nodes 0 and 2 full, node 1 empty; nodes 3 and 4 hold one span,
        // messages 1 and 3, stored in opposite orders.
        let cfg = AgConfig::new(4)
            .with_payload_len(2)
            .with_placement(Placement::SingleSource(0));
        let (mut nodes, _) = CodedNodes::<Gf256>::new(5, &cfg, None, 1, 2, || Ok(())).unwrap();
        for msg in 0..4 {
            seed(&mut nodes, 2, msg);
        }
        for (node, messages) in [(3, [1, 3]), (4, [3, 1])] {
            for m in messages {
                seed(&mut nodes, node, m);
            }
        }
        let rb = nodes.basis.row_bytes();
        let ranks =
            |nodes: &CodedNodes<Gf256>| (0..5).map(|v| nodes.basis.rank(v)).collect::<Vec<_>>();
        let seeded = ranks(&nodes);

        let mut skip = StdRng::seed_from_u64(5);
        let mut real = skip.clone();
        assert_eq!(nodes.compose(0, 2, &mut skip), Some(None));
        assert_eq!(nodes.composed.get(), 0, "a row was taken");
        assert!(nodes.slab.borrow().iter().all(|&b| b == 0), "written");
        assert_eq!(nodes.compose(0, 1, &mut real), Some(Some(0)));
        assert_eq!(skip.next_u64(), real.next_u64());
        assert_eq!(nodes.compose(1, 2, &mut skip), None, "rank 0 says nothing");
        nodes.deliver(0, 2, None);
        assert_eq!(nodes.redundant_receptions(), 1);

        // Equal spans, neither full. A fixed emit from the receiver reads
        // its stored rows before and after.
        let emit_4 = |nodes: &CodedNodes<Gf256>| {
            let mut row = vec![0; rb];
            let mut rng = StdRng::seed_from_u64(9);
            assert!(recode(
                &mut &nodes.basis,
                4,
                None,
                &mut Vec::new(),
                &mut rng,
                Some(&mut row)
            ));
            row
        };
        let rows_4 = emit_4(&nodes);
        let slab = nodes.slab.borrow().clone();
        assert!(!nodes.basis.is_full(4));
        assert_eq!(nodes.compose(3, 4, &mut skip), Some(None), "equal spans");
        assert_eq!(nodes.composed.get(), 1, "a row was taken");
        assert_eq!(*nodes.slab.borrow(), slab, "written");
        assert_eq!(nodes.compose(3, 1, &mut real), Some(Some(1)));
        assert_eq!(skip.next_u64(), real.next_u64());
        let mut other = StdRng::seed_from_u64(6);
        assert_eq!(nodes.compose(4, 3, &mut other), Some(None), "either way");
        nodes.deliver(3, 4, None);
        assert_eq!(nodes.redundant_receptions(), 2);
        assert_eq!(nodes.basis.rank(4), 2);
        assert_eq!(emit_4(&nodes), rows_4, "the receiver's rows changed");
        // The row node 3 did compose is redundant at node 4 too.
        nodes.deliver(3, 4, Some(1));
        assert_eq!(nodes.redundant_receptions(), 3);
        assert_eq!(emit_4(&nodes), rows_4);

        nodes.rewind();
        let row_0 = nodes.slab.borrow()[..rb].to_vec();
        let mut shards: Vec<_> = nodes.shards(&[(0, 1), (1, 5)], &[2, 0]).collect();
        assert_eq!(shards[0].compose(0, 2, 0, &mut skip), Some(None));
        assert_eq!(shards[0].compose(0, 1, 0, &mut real), Some(Some(1)));
        assert_eq!(skip.next_u64(), real.next_u64());
        drop(shards);
        assert_eq!(
            nodes.slab.borrow()[..rb],
            row_0,
            "the reserved row was written"
        );
        // A shard counts a no-row message as the serial path does: any
        // receiver that holds the sender's span, full or not; and a row to
        // a full receiver too.
        let mut shards: Vec<_> = nodes.shards(&[(0, 1), (1, 5)], &[0, 0]).collect();
        shards[1].deliver(0, 2, 0, None);
        shards[1].deliver(3, 4, 0, None);
        shards[1].deliver(0, 2, 0, Some(0));
        drop(shards);
        assert_eq!(nodes.shard_redundant, [0, 3]);
        assert_eq!(nodes.redundant_receptions(), 6);
        assert_eq!(ranks(&nodes), seeded, "no rank moved");
        assert_eq!(emit_4(&nodes), rows_4);
    }

    /// Bytes `nodes` holds on the heap, field by field. The destructuring
    /// names every field, so a field added to `CodedNodes` does not build
    /// here until it is counted.
    fn held_bytes<F: SlabField>(nodes: &CodedNodes<F>) -> usize {
        let CodedNodes {
            generation,
            basis,
            density: _,
            factors,
            slab,
            composed: _,
            full,
            ledger,
            redundant: _,
            shard_redundant,
        } = nodes;
        let messages = generation.messages();
        basis.allocated_bytes()
            + factors.borrow().capacity()
            + slab.borrow().capacity()
            + full.capacity() * size_of::<u64>()
            + ledger.capacity() * size_of::<Slot>()
            + shard_redundant.capacity() * size_of::<u64>()
            + size_of_val(messages)
            + messages
                .iter()
                .map(|m| m.capacity() * size_of::<F>())
                .sum::<usize>()
    }

    /// The node store's footprint: a rank-only GF(2⁸) node at k = 8 holds
    /// its arena head, rank and class (104 B), its ledger slot (8 B), two
    /// message-slab rows (16 B) and its bit of the full set, at
    /// construction and after serial and sharded rounds. Measured as the
    /// growth from 640 to 1,280 nodes, so what does not scale with `n`
    /// (the generation, scratch, one count a shard) cancels.
    #[test]
    fn a_rank_only_node_holds_head_ledger_slot_and_two_slab_rows() {
        let cfg = AgConfig::new(8);
        let store = |n| {
            CodedNodes::<Gf256>::new(n, &cfg, None, 3, 2, || Ok(()))
                .unwrap()
                .0
        };
        let (small, large) = (640, 1280);
        let (mut a, mut b) = (store(small), store(large));
        let per_node_eighths = 8 * (104 + 8 + 16) + 1;
        let mut rng = StdRng::seed_from_u64(4);
        for round in 0..4 {
            for nodes in [&mut a, &mut b] {
                let n = nodes.basis.nodes();
                nodes.rewind();
                if round % 2 == 0 {
                    let mut sent = Vec::new();
                    for from in 0..n {
                        let to = (from + 1) % n;
                        if let Some(msg) = nodes.compose(from, to, &mut rng) {
                            sent.push((from, to, msg));
                        }
                    }
                    for (from, to, msg) in sent {
                        nodes.deliver(from, to, msg);
                    }
                } else {
                    let bounds = [(0, n / 2), (n / 2, n)];
                    let mut shards: Vec<_> = nodes.shards(&bounds, &[1, 1]).collect();
                    let mut sent = Vec::new();
                    for (shard, from) in [(0, 0), (1, n / 2)] {
                        if let Some(msg) = shards[shard].compose(from, from + 1, 0, &mut rng) {
                            sent.push((shard, from, msg));
                        }
                    }
                    drop(shards);
                    let mut shards: Vec<_> = nodes.shards(&bounds, &[0, 0]).collect();
                    for (shard, from, msg) in sent {
                        shards[shard].deliver(from, from + 1, 0, msg);
                    }
                }
            }
            let grown = held_bytes(&b) - held_bytes(&a);
            assert!(
                8 * grown <= (large - small) * per_node_eighths,
                "round {round}: {grown} B for {} nodes",
                large - small
            );
        }
    }

    /// The rank of `rows` over `F`: the dense oracle, whole-matrix
    /// Gauss–Jordan elimination that shares nothing with the arena.
    fn dense_rank<F: Field>(mut rows: Vec<Vec<F>>) -> usize {
        let width = rows.first().map_or(0, Vec::len);
        let mut rank = 0;
        for col in 0..width {
            let Some(p) = (rank..rows.len()).find(|&i| !rows[i][col].is_zero()) else {
                continue;
            };
            rows.swap(rank, p);
            let inv = rows[rank][col].inv().expect("a nonzero pivot");
            let pivot: Vec<F> = rows[rank].iter().map(|&x| x * inv).collect();
            for row in &mut rows {
                let f = row[col];
                for (x, &y) in row.iter_mut().zip(&pivot) {
                    *x -= f * y;
                }
            }
            rows[rank] = pivot;
            rank += 1;
        }
        rank
    }

    /// One lane of the pair ledger's soundness check: `steps` contacts
    /// among `n` nodes that hold `k` unit messages at random hosts, between
    /// random pairs or, with `path`, between neighbours on the path
    /// `0 – 1 – … – n−1`. A contact is one message or an exchange (both
    /// composed before either is delivered, as an asynchronous timeslot
    /// does). Before each compose a verdict of containment is checked
    /// against the dense oracle on every coefficient row each node was ever
    /// given: rank [B; A] = rank B. Returns how often the ledger proved a
    /// nonzero sender contained in a receiver that is not full, where
    /// compose would act on it.
    fn ledger_lane<F: SlabField>(
        seed: u64,
        n: usize,
        k: usize,
        steps: usize,
        path: bool,
    ) -> Result<usize, TestCaseError> {
        let mut rng = StdRng::seed_from_u64(seed);
        let hosts: Vec<NodeId> = (0..k).map(|_| rng.gen_range(0..n)).collect();
        let cfg = AgConfig::new(k)
            .with_payload_len(1)
            .with_placement(Placement::Custom(hosts.clone()));
        let (mut nodes, _) = CodedNodes::<F>::new(n, &cfg, None, seed, 2, || Ok(())).unwrap();
        let mut given: Vec<Vec<Vec<F>>> = vec![Vec::new(); n];
        for (m, &host) in hosts.iter().enumerate() {
            let mut unit = vec![F::ZERO; k];
            unit[m] = F::ONE;
            given[host].push(unit);
        }
        let coeff_bytes = k * F::SYMBOL_BYTES;
        let mut fired = 0;
        for step in 0..steps {
            let (a, b) = if path {
                let a = rng.gen_range(0..n - 1);
                (a, a + 1)
            } else {
                let a = rng.gen_range(0..n);
                (a, (a + rng.gen_range(1..n)) % n)
            };
            let contacts = if rng.gen_bool(0.5) {
                &[(a, b), (b, a)][..]
            } else {
                &[(a, b)][..]
            };
            let mut composed = Vec::new();
            for &(from, to) in contacts {
                if nodes.ledger_contains(from, to) {
                    let both = given[to].iter().chain(&given[from]).cloned().collect();
                    prop_assert_eq!(
                        dense_rank(both),
                        dense_rank(given[to].clone()),
                        "step {}: span({}) is not inside span({})",
                        step,
                        from,
                        to
                    );
                    let acts = nodes.basis.rank(from) > 0 && !nodes.basis.is_full(to);
                    fired += usize::from(acts);
                }
                if let Some(msg) = nodes.compose(from, to, &mut rng) {
                    composed.push((from, to, msg));
                }
            }
            for (from, to, msg) in composed {
                if let Some(row) = msg {
                    let at = row as usize * nodes.basis.row_bytes();
                    given[to].push(F::unpack(&nodes.slab.borrow()[at..at + coeff_bytes]));
                }
                nodes.deliver(from, to, msg);
            }
            nodes.rewind();
        }
        Ok(fired)
    }

    proptest! {
        /// The pair ledger is sound over GF(2), F₁₃ and GF(2⁸): every
        /// containment it proves holds (see `ledger_lane`), on random
        /// pairs and on a path.
        #[test]
        fn ledger_is_sound(seed in any::<u64>(), n in 4usize..7, k in 2usize..7) {
            for path in [false, true] {
                ledger_lane::<Gf2>(seed, n, k, 48, path)?;
                ledger_lane::<F13>(seed, n, k, 48, path)?;
                ledger_lane::<Gf256>(seed, n, k, 48, path)?;
            }
        }
    }

    /// On a path, where a parent and child exchange over one edge, the
    /// ledger proves containments compose acts on, in every field.
    #[test]
    fn ledger_fires_between_parent_and_child() {
        let fired = |lane: fn(u64, usize, usize, usize, bool) -> Result<usize, TestCaseError>| {
            (0..8)
                .map(|seed| lane(seed, 4, 6, 48, true).unwrap())
                .sum::<usize>()
        };
        assert!(fired(ledger_lane::<Gf2>) > 0, "GF(2)");
        assert!(fired(ledger_lane::<F13>) > 0, "F13");
        assert!(fired(ledger_lane::<Gf256>) > 0, "GF(2^8)");
    }

    /// `CodedNodes::new` draws a generation from `seed` whether it keeps it
    /// or is given one, so the placement drawn next is the same: a protocol
    /// given the generation its seed draws runs as the one that drew it.
    /// Pinned for AG and for TAG + B_RR under both time models, with a
    /// random placement (drawn after the generation) and a payload.
    #[test]
    fn a_given_generation_sees_the_placement_stream_of_a_drawn_one() {
        use crate::{AlgebraicGossip, BroadcastTree, Tag};
        use ag_graph::builders;
        use ag_sim::{CommModel, Engine, EngineConfig, Protocol, RunStats};

        fn run(engine: EngineConfig, proto: &mut impl Protocol) -> RunStats {
            let stats = Engine::new(engine.with_max_rounds(100_000)).run(proto);
            assert!(stats.completed, "{:?}", engine.time_model);
            stats
        }
        let g = builders::barbell(10).unwrap();
        let cfg = AgConfig::new(6)
            .with_payload_len(3)
            .with_placement(Placement::Random);
        let brr = || BroadcastTree::new(&g, 0, CommModel::RoundRobin, 7).unwrap();
        for engine in [EngineConfig::synchronous(4), EngineConfig::asynchronous(4)] {
            let model = engine.time_model;
            let mut drawn = AlgebraicGossip::<Gf256>::new(&g, &cfg, 7).unwrap();
            let generation = drawn.generation().clone();
            let mut given =
                AlgebraicGossip::<Gf256>::new_with_generation(&g, &cfg, generation, 7).unwrap();
            let stats = run(engine, &mut drawn);
            assert_eq!(stats, run(engine, &mut given), "AG, {model:?}");
            for v in 0..g.n() {
                assert_eq!(
                    drawn.decoded(v),
                    given.decoded(v),
                    "AG, {model:?}, node {v}"
                );
            }

            let mut drawn = Tag::<Gf256, _>::new(&g, brr(), &cfg, 7).unwrap();
            let generation = drawn.generation().clone();
            let mut given =
                Tag::<Gf256, _>::new_with_generation(&g, brr(), &cfg, generation, 7).unwrap();
            let stats = run(engine, &mut drawn);
            assert_eq!(stats, run(engine, &mut given), "TAG, {model:?}");
            for v in 0..g.n() {
                assert_eq!(
                    drawn.decoded(v),
                    given.decoded(v),
                    "TAG, {model:?}, node {v}"
                );
            }
        }
    }
}
