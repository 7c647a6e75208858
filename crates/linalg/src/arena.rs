//! A simulation-wide arena of echelon bases: one store per node.
//!
//! A gossip simulation holds one decoder basis per node. [`BasisArena`]
//! owns every node's rows behind one type, and stores what the paper's
//! node stores: the equations received so far. A node holds nothing until
//! its first row; that insert allocates the node's slabs once, at their
//! full-rank footprint (`NodeBasis` in the `node` module has the rule),
//! which every node of a completed run reaches anyway. Until then the
//! reservation is address space, not memory: the kernel commits a page
//! when a row is first written into it, so a slab larger than a page
//! costs memory as `rank(v)` grows, and a slab smaller than a page is
//! resident in full from the first row. Lazy page commit, not a growth
//! policy, is what keeps the resident footprint near `Σ rank(v)` instead
//! of `n · pivot_width` mid-run, and what the case for n = 10⁶ fitting in
//! memory rests on. Rank-only runs (`row_elems == pivot_width`) have no
//! payload slab and no elimination log: nothing would ever replay them.
//!
//! Each node is the same crate-private store (the `node` module: an
//! eagerly reduced coefficient slab, raw payload tails and an elimination
//! log replayed on demand) that an [`EchelonBasis`](crate::EchelonBasis)
//! wraps one of. The arena adds indexing and one scratch set shared by all
//! nodes, reserved at its full-rank size at construction (per arena, not
//! per node); there is no second elimination, so an arena
//! node and an owned basis cannot diverge. What the differential suites in
//! `ag-rlnc` pin is that one implementation against an eager scalar oracle
//! kept in their test code.
//!
//! For parallel round execution, [`BasisArena::shards_mut`] splits the
//! arena into disjoint contiguous [`BasisShard`]s: `&mut` slices of nodes,
//! `Send` without any locking — disjointness is enforced by the slice
//! split, not at runtime.
//!
//! # Examples
//!
//! ```
//! use ag_gf::{Field, Gf256, SlabField};
//! use ag_linalg::{BasisArena, Insertion};
//!
//! // Two nodes, width-2 bases, rows carry one payload symbol.
//! let mut arena = BasisArena::<Gf256>::new(2, 2, 3);
//! let row = Gf256::pack(&[Gf256::ONE, Gf256::ZERO, Gf256::new(9)]);
//! assert_eq!(arena.insert_packed_slice(0, &row), Insertion::Innovative);
//! assert_eq!(arena.insert_packed_slice(0, &row), Insertion::Redundant);
//! assert_eq!(arena.rank(0), 1);
//! assert_eq!(arena.rank(1), 0);
//! ```

use std::cell::RefCell;
use std::fmt;
use std::marker::PhantomData;

use ag_gf::SlabField;

use crate::node::{Dims, Insertion, NodeBasis, Scratch};

/// Typed sizing failures from [`BasisArena::try_new`].
///
/// The capacity math (`nodes · pivot_width · row_elems · SYMBOL_BYTES`
/// plus the `pivot_width²` log) runs through `checked_mul`, so impossible
/// shapes surface as [`ArenaError::CapacityOverflow`] with the computed
/// byte count instead of a silent wrap or an opaque allocator abort, and
/// failed reservations surface as [`ArenaError::AllocationFailure`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArenaError {
    /// The full-rank footprint does not fit in `usize`.
    CapacityOverflow {
        /// Requested node count.
        nodes: usize,
        /// Requested pivot (coefficient) width.
        pivot_width: usize,
        /// Requested symbols per row.
        row_elems: usize,
        /// The full-rank footprint that overflowed, in bytes (exact, in
        /// `u128`).
        bytes: u128,
    },
    /// The allocator refused a reservation of `bytes` bytes.
    AllocationFailure {
        /// Size of the refused reservation.
        bytes: usize,
    },
}

impl fmt::Display for ArenaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArenaError::CapacityOverflow {
                nodes,
                pivot_width,
                row_elems,
                bytes,
            } => write!(
                f,
                "arena capacity overflows usize: {nodes} nodes × {pivot_width} rows × \
                 {row_elems} symbols (+ elimination log) = {bytes} bytes"
            ),
            ArenaError::AllocationFailure { bytes } => {
                write!(
                    f,
                    "arena allocation failed: could not reserve {bytes} bytes"
                )
            }
        }
    }
}

impl std::error::Error for ArenaError {}

/// All of a simulation's echelon bases; a node's storage is allocated
/// once, by its first row (see the module docs).
///
/// Unlike [`EchelonBasis`](crate::EchelonBasis), whose row length is
/// learned from the first inserted row, an arena fixes `row_elems`
/// (coefficients + augmented tail) at construction; every row must match.
/// Shape violations are bugs in the caller's wiring, not data-dependent
/// conditions, so the arena asserts rather than returning typed errors —
/// the decoder layer above re-checks shapes where untrusted input enters.
/// *Sizing* failures, in contrast, are data-dependent (they scale with
/// `n`), so [`BasisArena::try_new`] reports them as [`ArenaError`].
#[derive(Debug, Clone)]
pub struct BasisArena<F> {
    /// Per-node bases; shards take disjoint `&mut` slices of this.
    nodes: Vec<NodeBasis>,
    /// Pivot (coefficient) width of every basis — also the per-node row
    /// cap.
    pivot_width: usize,
    /// Symbols per row (pivot prefix + augmented tail), fixed up front.
    row_elems: usize,
    /// Reusable buffers (transient), shared by all nodes — operations are
    /// serial per arena.
    scratch: RefCell<Scratch>,
    _field: PhantomData<F>,
}

impl<F: SlabField> BasisArena<F> {
    /// Creates an arena of `nodes` empty bases with `pivot_width` leading
    /// coefficients and `row_elems` total symbols per row.
    ///
    /// # Panics
    ///
    /// Panics if `pivot_width == 0`, `row_elems < pivot_width`, or the
    /// full-rank capacity math fails (see [`BasisArena::try_new`] for the
    /// non-panicking form).
    #[must_use]
    pub fn new(nodes: usize, pivot_width: usize, row_elems: usize) -> Self {
        match Self::try_new(nodes, pivot_width, row_elems) {
            Ok(arena) => arena,
            #[expect(
                clippy::panic,
                reason = "documented panicking wrapper; try_new is the typed-error twin"
            )]
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible constructor: checks the full-rank capacity math with
    /// `checked_mul` (returning [`ArenaError::CapacityOverflow`] with the
    /// exact byte count) and reserves the node table and the shared scratch
    /// via `try_reserve` (returning [`ArenaError::AllocationFailure`]
    /// instead of aborting). Per-node rows are not reserved here: each
    /// node's first row does that.
    ///
    /// # Panics
    ///
    /// Panics if `pivot_width == 0` or `row_elems < pivot_width` — shape
    /// bugs, not sizing conditions.
    pub fn try_new(nodes: usize, pivot_width: usize, row_elems: usize) -> Result<Self, ArenaError> {
        assert!(pivot_width > 0, "pivot width must be positive");
        assert!(
            row_elems >= pivot_width,
            "rows must at least cover the pivot prefix"
        );
        let sb = F::SYMBOL_BYTES;
        let tail = row_elems - pivot_width;
        // Full-rank footprint per node, in symbols: k·k coefficients,
        // k·tail payload, k² log events (only when a payload exists).
        let log_syms = if tail > 0 {
            pivot_width * pivot_width
        } else {
            0
        };
        let overflow = || {
            let per_node = (pivot_width as u128) * (row_elems as u128) + log_syms as u128;
            ArenaError::CapacityOverflow {
                nodes,
                pivot_width,
                row_elems,
                bytes: (nodes as u128) * per_node * sb as u128,
            }
        };
        pivot_width
            .checked_mul(row_elems)
            .and_then(|s| s.checked_add(log_syms))
            .and_then(|s| s.checked_mul(sb))
            .and_then(|b| b.checked_mul(nodes))
            .ok_or_else(overflow)?;
        let refused = |bytes| ArenaError::AllocationFailure { bytes };
        let mut cells = Vec::new();
        cells
            .try_reserve_exact(nodes)
            .map_err(|_| refused(nodes.saturating_mul(std::mem::size_of::<NodeBasis>())))?;
        cells.resize_with(nodes, NodeBasis::default);
        let mut scratch = Scratch::default();
        scratch
            .try_preallocate::<F>(Dims::new::<F>(pivot_width, row_elems))
            .map_err(refused)?;
        Ok(BasisArena {
            nodes: cells,
            pivot_width,
            row_elems,
            scratch: RefCell::new(scratch),
            _field: PhantomData,
        })
    }

    #[inline]
    fn dims(&self) -> Dims {
        Dims::new::<F>(self.pivot_width, self.row_elems)
    }

    /// Number of per-node bases.
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Bytes per row.
    #[must_use]
    pub fn row_bytes(&self) -> usize {
        self.dims().row_bytes()
    }

    /// Bytes of the packed coefficient prefix of every row.
    #[must_use]
    pub fn coeff_bytes(&self) -> usize {
        self.dims().kb
    }

    /// Heap bytes currently reserved across every node's row storage
    /// (slab capacities plus per-node headers) — the number the memory
    /// model in the benches reports per node.
    #[must_use]
    pub fn allocated_bytes(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| n.heap_bytes() + std::mem::size_of::<NodeBasis>())
            .sum()
    }

    /// Node `node`'s current rank.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[must_use]
    pub fn rank(&self, node: usize) -> usize {
        self.nodes[node].rank()
    }

    /// True once node `node`'s basis spans the full coefficient space.
    #[must_use]
    pub fn is_full(&self, node: usize) -> bool {
        self.rank(node) == self.pivot_width
    }

    /// Iterates over node `node`'s reduced coefficient prefixes, in
    /// insertion order. Payloads are untouched — the view for helpfulness
    /// scans between nodes.
    pub fn coeff_rows(&self, node: usize) -> impl Iterator<Item = &[u8]> {
        self.nodes[node].coeff().chunks_exact(self.coeff_bytes())
    }

    /// Materializes full row `i` of node `node` (coefficients + reduced
    /// payload) into `out`, replaying the node's pending payload
    /// elimination first.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rank(node)`.
    pub fn copy_packed_row_into(&self, node: usize, i: usize, out: &mut Vec<u8>) {
        let mut sc = self.scratch.borrow_mut();
        self.nodes[node]
            .rows()
            .copy_packed_row_into::<F>(self.dims(), i, &mut sc, out);
    }

    /// Accumulates `Σᵢ factors[i] · row_i` of node `node`'s stored rows
    /// into `out` (`out += …`), materializing the node's payloads first.
    /// `factors` holds one packed symbol per stored row; zero factors are
    /// skipped. This is the recoder's emit kernel: two fused gathers per
    /// packet.
    ///
    /// # Panics
    ///
    /// Panics if `factors` is not exactly `rank(node)` packed symbols or
    /// `out` is not exactly [`BasisArena::row_bytes`] long.
    pub fn accumulate_rows_into(&self, node: usize, factors: &[u8], out: &mut [u8]) {
        let mut sc = self.scratch.borrow_mut();
        self.nodes[node]
            .rows()
            .accumulate_rows_into::<F>(self.dims(), factors, &mut sc, out);
    }

    /// Forces node `node`'s deferred payload elimination to settle now
    /// instead of at the next read. Idempotent and invisible to results:
    /// every read path settles on demand anyway.
    pub fn settle(&self, node: usize) {
        let mut sc = self.scratch.borrow_mut();
        self.nodes[node].rows().settle::<F>(self.dims(), &mut sc);
    }

    /// Inserts a packed row into node `node`'s basis, reducing its
    /// coefficient prefix **in place** in the caller's buffer (which is
    /// clobbered: on return the prefix holds the reduced/normalized
    /// remainder, while the payload tail is untouched — its elimination is
    /// deferred to the node's log). A node already at full rank reduces
    /// nothing: the verdict is redundant and the buffer is left as passed.
    /// This is the zero-copy hot path for callers that own a reusable row
    /// buffer.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range or `row.len() != row_bytes()`.
    // ag-lint: hot-path
    pub fn insert_packed_mut(&mut self, node: usize, row: &mut [u8]) -> Insertion {
        let dims = self.dims();
        self.nodes[node].insert_packed::<F>(dims, row, self.scratch.get_mut())
    }

    /// Borrowing variant of [`BasisArena::insert_packed_mut`]: copies the
    /// row into the arena's internal scratch buffer first. Still
    /// allocation-free once the scratch has warmed up.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range or `row.len() != row_bytes()`.
    // ag-lint: hot-path
    pub fn insert_packed_slice(&mut self, node: usize, row: &[u8]) -> Insertion {
        let dims = self.dims();
        self.nodes[node].insert_packed_slice::<F>(dims, row, self.scratch.get_mut())
    }

    /// Would this packed row raise node `node`'s rank? Non-mutating; `row`
    /// may be a pivot-prefix-only slab or a full row — only the prefix is
    /// read, through reusable scratch buffers, so the probe is
    /// allocation-free once warmed up and never touches payload state.
    ///
    /// # Panics
    ///
    /// Panics if `row` is shorter than the packed pivot prefix.
    #[must_use]
    pub fn would_be_innovative_packed(&self, node: usize, row: &[u8]) -> bool {
        let kb = self.coeff_bytes();
        assert!(row.len() >= kb, "row shorter than the packed pivot prefix");
        self.nodes[node].probe::<F>(self.dims(), &mut self.scratch.borrow_mut(), |p| {
            p.extend_from_slice(&row[..kb]);
        })
    }

    /// Once node `node` is full, extracts its solution exactly as
    /// [`EchelonBasis::solution`](crate::EchelonBasis::solution): row `i`
    /// of the result is the augmented tail of the equation whose
    /// coefficient vector is the `i`-th unit vector. Settles the node's
    /// deferred payload elimination in one blocked replay first.
    #[must_use]
    pub fn solution(&self, node: usize) -> Option<Vec<Vec<F>>> {
        let mut sc = self.scratch.borrow_mut();
        self.nodes[node].rows().solution::<F>(self.dims(), &mut sc)
    }

    /// Splits the arena into disjoint contiguous shards for parallel round
    /// execution. `bounds` must partition `0..nodes()` in order:
    /// `[(0, b₁), (b₁, b₂), …, (bₘ₋₁, nodes())]` (empty shards allowed).
    /// Each shard owns fresh scratch (sized here, not by its worker), so shards
    /// are independent `Send` values; the borrow of `self` ends when they drop.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is not an ordered contiguous partition.
    pub fn shards_mut(&mut self, bounds: &[(usize, usize)]) -> Vec<BasisShard<'_, F>> {
        let dims = self.dims();
        let total = self.nodes.len();
        let mut out = Vec::with_capacity(bounds.len());
        let mut rest = self.nodes.as_mut_slice();
        let mut consumed = 0;
        for &(start, end) in bounds {
            assert!(
                start == consumed && end >= start && end <= total,
                "shard bounds must partition the arena contiguously"
            );
            let (nodes, tail) = rest.split_at_mut(end - start);
            rest = tail;
            consumed = end;
            out.push(BasisShard {
                nodes,
                start,
                dims,
                scratch: Scratch::for_shard(dims),
                _field: PhantomData,
            });
        }
        assert_eq!(consumed, total, "shard bounds must cover every node");
        out
    }
}

/// A disjoint contiguous slice of a [`BasisArena`], addressable by the
/// original (global) node ids. `Send` by construction — per-node state is
/// reached through a `&mut` slice + `get_mut`, no locks, no aliasing — so
/// shards can run on worker threads while the arena itself stays single-
/// threaded. Each shard carries its own scratch buffers.
#[derive(Debug)]
pub struct BasisShard<'a, F> {
    nodes: &'a mut [NodeBasis],
    /// Global id of `nodes[0]`.
    start: usize,
    dims: Dims,
    scratch: Scratch,
    _field: PhantomData<F>,
}

impl<F: SlabField> BasisShard<'_, F> {
    /// Global node ids covered: `start..start + len`.
    #[must_use]
    pub fn node_range(&self) -> std::ops::Range<usize> {
        self.start..self.start + self.nodes.len()
    }

    /// Node `node`'s current rank (`node` is a global id inside
    /// [`BasisShard::node_range`]).
    #[must_use]
    pub fn rank(&self, node: usize) -> usize {
        self.nodes[node - self.start].rank()
    }

    /// Shard-local [`BasisArena::insert_packed_mut`] — same elimination
    /// code, same verdicts.
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the shard or the row length mismatches.
    // ag-lint: hot-path
    pub fn insert_packed_mut(&mut self, node: usize, row: &mut [u8]) -> Insertion {
        self.nodes[node - self.start].insert_packed::<F>(self.dims, row, &mut self.scratch)
    }

    /// Shard-local [`BasisArena::copy_packed_row_into`].
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the shard or `i >= rank(node)`.
    pub fn copy_packed_row_into(&mut self, node: usize, i: usize, out: &mut Vec<u8>) {
        self.nodes[node - self.start]
            .rows_mut()
            .copy_packed_row_into::<F>(self.dims, i, &mut self.scratch, out);
    }

    /// Shard-local [`BasisArena::accumulate_rows_into`].
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the shard, `factors` is not exactly
    /// `rank(node)` packed symbols, or `out` is not one full row.
    pub fn accumulate_rows_into(&mut self, node: usize, factors: &[u8], out: &mut [u8]) {
        self.nodes[node - self.start]
            .rows_mut()
            .accumulate_rows_into::<F>(self.dims, factors, &mut self.scratch, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EchelonBasis;
    use ag_gf::{Field, Gf2, Gf256};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Random augmented row over F.
    fn random_row<F: SlabField>(rng: &mut StdRng, elems: usize) -> Vec<u8> {
        let row: Vec<F> = (0..elems).map(|_| F::random(rng)).collect();
        F::pack(&row)
    }

    /// The two views of the one store: an arena node (row length fixed up
    /// front, shared scratch) and a standalone
    /// `EchelonBasis` (row length learned, own scratch) fed the same
    /// stream agree on verdicts, ranks, stored rows, and solutions.
    fn differential_vs_echelon<F: SlabField>(seed: u64, k: usize, tail: usize) {
        let mut rng = StdRng::seed_from_u64(seed);
        let nodes = 3;
        let elems = k + tail;
        let mut arena = BasisArena::<F>::new(nodes, k, elems);
        let mut bases: Vec<EchelonBasis<F>> = (0..nodes).map(|_| EchelonBasis::new(k)).collect();
        for _ in 0..6 * k {
            let node = rng.gen_range(0..nodes);
            let row = random_row::<F>(&mut rng, elems);
            let got = arena.insert_packed_slice(node, &row);
            let want = bases[node]
                .try_insert_packed_slice(&row)
                .expect("shape-valid row");
            assert_eq!(got, want);
            assert_eq!(arena.rank(node), bases[node].rank());
        }
        let mut arena_row = Vec::new();
        let mut basis_row = Vec::new();
        for (node, basis) in bases.iter().enumerate() {
            assert_eq!(arena.is_full(node), basis.is_full());
            for i in 0..arena.rank(node) {
                arena.copy_packed_row_into(node, i, &mut arena_row);
                basis.copy_packed_row_into(i, &mut basis_row);
                assert_eq!(arena_row, basis_row, "materialized rows diverged");
                let kb = arena.coeff_bytes();
                let header: Vec<&[u8]> = basis.coeff_rows().collect();
                assert_eq!(&arena_row[..kb], header[i], "coefficient rows diverged");
            }
            if arena.is_full(node) {
                assert_eq!(arena.solution(node), basis.solution());
            }
        }
    }

    #[test]
    fn arena_matches_echelon_gf256() {
        for seed in 0..4 {
            differential_vs_echelon::<Gf256>(seed, 6, 3);
        }
    }

    #[test]
    fn arena_matches_echelon_gf2() {
        // GF(2) produces many redundant rows — exercises the annihilation
        // path heavily.
        for seed in 0..4 {
            differential_vs_echelon::<Gf2>(seed, 8, 2);
        }
    }

    /// Shards over disjoint node ranges replay the exact serial inserts.
    #[test]
    fn shards_match_serial_inserts() {
        let k = 6;
        let r = 3;
        let nodes = 5;
        let mut rng = StdRng::seed_from_u64(77);
        let stream: Vec<(usize, Vec<u8>)> = (0..6 * k * nodes)
            .map(|_| {
                (
                    rng.gen_range(0..nodes),
                    random_row::<Gf256>(&mut rng, k + r),
                )
            })
            .collect();
        let mut serial = BasisArena::<Gf256>::new(nodes, k, k + r);
        let serial_verdicts: Vec<Insertion> = stream
            .iter()
            .map(|(node, row)| serial.insert_packed_slice(*node, row))
            .collect();
        let mut sharded = BasisArena::<Gf256>::new(nodes, k, k + r);
        {
            let mut shards = sharded.shards_mut(&[(0, 2), (2, 2), (2, nodes)]);
            let mut buf = Vec::new();
            for ((node, row), want) in stream.iter().zip(&serial_verdicts) {
                let shard = shards
                    .iter_mut()
                    .find(|s| s.node_range().contains(node))
                    .expect("bounds cover every node");
                buf.clear();
                buf.extend_from_slice(row);
                assert_eq!(shard.insert_packed_mut(*node, &mut buf), *want);
            }
        }
        let mut a = Vec::new();
        let mut b = Vec::new();
        for node in 0..nodes {
            assert_eq!(serial.rank(node), sharded.rank(node));
            for i in 0..serial.rank(node) {
                serial.copy_packed_row_into(node, i, &mut a);
                sharded.copy_packed_row_into(node, i, &mut b);
                assert_eq!(a, b);
            }
            assert_eq!(serial.solution(node), sharded.solution(node));
        }
    }

    #[test]
    fn shard_types_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<BasisShard<'_, Gf256>>();
    }

    #[test]
    fn capacity_overflow_is_typed_and_reports_bytes() {
        let err = BasisArena::<Gf256>::try_new(usize::MAX / 4, 8, 16).expect_err("must overflow");
        assert!(matches!(err, ArenaError::CapacityOverflow { .. }));
        let msg = err.to_string();
        assert!(msg.contains("bytes"), "byte count missing from: {msg}");
        // The exact u128 byte count appears in the message.
        let want = (usize::MAX as u128 / 4) * (8 * 16 + 64);
        assert!(
            msg.contains(&want.to_string()),
            "computed count missing: {msg}"
        );
    }

    /// A node holds nothing before its first row, exactly its full-rank
    /// footprint after it, and that for good: no later insert, innovative
    /// or redundant, changes what the arena has allocated.
    #[test]
    fn node_storage_grows_with_rank_and_stops_at_the_full_rank_footprint() {
        let mut rng = StdRng::seed_from_u64(3);
        let (k, r) = (6, 4);
        let mut arena = BasisArena::<Gf256>::new(2, k, k + r);
        let headers = 2 * std::mem::size_of::<NodeBasis>();
        assert_eq!(arena.allocated_bytes(), headers);
        // Coefficients, payload, elimination log, pivot map.
        let full_rank = k * k + k * r + k * k + k * std::mem::size_of::<usize>();
        let mut redundant = 0;
        while !arena.is_full(0) || !arena.is_full(1) {
            let node = rng.gen_range(0..2);
            // Every other row repeats the node's span: a redundant insert.
            let mut row = random_row::<Gf256>(&mut rng, k + r);
            if arena.rank(node) > 0 && rng.gen_bool(0.5) {
                arena.copy_packed_row_into(node, 0, &mut row);
            }
            redundant += usize::from(!arena.insert_packed_slice(node, &row).is_innovative());
            let holding = (0..2).filter(|&v| arena.rank(v) > 0).count();
            assert_eq!(arena.allocated_bytes(), headers + holding * full_rank);
        }
        assert!(redundant > 0, "the stream must include redundant inserts");
        for node in 0..2 {
            let row = random_row::<Gf256>(&mut rng, k + r);
            assert_eq!(arena.insert_packed_slice(node, &row), Insertion::Redundant);
        }
        assert_eq!(arena.allocated_bytes(), headers + 2 * full_rank);
    }

    #[test]
    fn rank_only_arena_skips_payload_and_log_storage() {
        let mut rng = StdRng::seed_from_u64(11);
        let k = 8;
        let mut arena = BasisArena::<Gf256>::new(1, k, k);
        while !arena.is_full(0) {
            let row = random_row::<Gf256>(&mut rng, k);
            arena.insert_packed_slice(0, &row);
        }
        // Coefficients only: k rows × k bytes, plus the pivot map. No pay,
        // no log — nothing will ever replay them.
        assert!(arena.allocated_bytes() < 4 * k * k + 256);
        assert!(arena.solution(0).is_some());
    }

    #[test]
    fn full_node_rejects_everything_without_overflow() {
        let mut rng = StdRng::seed_from_u64(9);
        let k = 4;
        let mut arena = BasisArena::<Gf256>::new(1, k, k);
        while !arena.is_full(0) {
            let row = random_row::<Gf256>(&mut rng, k);
            arena.insert_packed_slice(0, &row);
        }
        for _ in 0..20 {
            let row = random_row::<Gf256>(&mut rng, k);
            assert_eq!(arena.insert_packed_slice(0, &row), Insertion::Redundant);
        }
        assert_eq!(arena.rank(0), k);
    }

    #[test]
    fn nodes_are_independent() {
        let mut arena = BasisArena::<Gf256>::new(2, 2, 2);
        let e0 = Gf256::pack(&[Gf256::ONE, Gf256::ZERO]);
        assert_eq!(arena.insert_packed_slice(0, &e0), Insertion::Innovative);
        assert_eq!(arena.rank(0), 1);
        assert_eq!(arena.rank(1), 0);
        assert_eq!(arena.insert_packed_slice(1, &e0), Insertion::Innovative);
        assert_eq!(arena.rank(1), 1);
    }

    #[test]
    fn insert_packed_mut_reduces_in_callers_buffer() {
        let mut arena = BasisArena::<Gf256>::new(1, 2, 2);
        let mut row = Gf256::pack(&[Gf256::new(2), Gf256::ZERO]);
        assert_eq!(arena.insert_packed_mut(0, &mut row), Insertion::Innovative);
        // The buffer now holds the normalized row (pivot scaled to 1).
        assert_eq!(row, Gf256::pack(&[Gf256::ONE, Gf256::ZERO]));
        // A dependent row's coefficient prefix is annihilated in place.
        let mut dep = Gf256::pack(&[Gf256::new(7), Gf256::ZERO]);
        assert_eq!(arena.insert_packed_mut(0, &mut dep), Insertion::Redundant);
        assert_eq!(dep, vec![0, 0]);
    }

    #[test]
    fn would_be_innovative_matches_insert() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut arena = BasisArena::<Gf256>::new(1, 5, 5);
        for _ in 0..30 {
            let row = random_row::<Gf256>(&mut rng, 5);
            let predicted = arena.would_be_innovative_packed(0, &row);
            let actual = arena.insert_packed_slice(0, &row) == Insertion::Innovative;
            assert_eq!(predicted, actual);
        }
    }

    #[test]
    fn interleaved_materialization_matches_deferred() {
        // Forcing one node's payload flush mid-stream must not perturb any
        // node's verdicts or final solution.
        let mut rng = StdRng::seed_from_u64(33);
        let k = 5;
        let r = 4;
        let mut arena = BasisArena::<Gf256>::new(2, k, k + r);
        let mut oracle = BasisArena::<Gf256>::new(2, k, k + r);
        let mut buf = Vec::new();
        let mut step = 0;
        while !(arena.is_full(0) && arena.is_full(1)) {
            let node = rng.gen_range(0..2);
            let row = random_row::<Gf256>(&mut rng, k + r);
            assert_eq!(
                arena.insert_packed_slice(node, &row),
                oracle.insert_packed_slice(node, &row)
            );
            step += 1;
            if step % 3 == 0 && arena.rank(0) > 0 {
                // Materialize node 0 in `arena` only; `oracle` stays lazy.
                arena.copy_packed_row_into(0, arena.rank(0) - 1, &mut buf);
            }
        }
        for node in 0..2 {
            assert_eq!(arena.solution(node), oracle.solution(node));
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn wrong_row_length_panics() {
        let mut arena = BasisArena::<Gf256>::new(1, 2, 3);
        let _ = arena.insert_packed_slice(0, &[1, 2]);
    }

    #[test]
    #[should_panic(expected = "pivot prefix")]
    fn tail_shorter_than_pivot_rejected_at_construction() {
        let _ = BasisArena::<Gf256>::new(1, 3, 2);
    }

    #[test]
    #[should_panic(expected = "partition the arena contiguously")]
    fn overlapping_shard_bounds_panic() {
        let mut arena = BasisArena::<Gf256>::new(4, 2, 2);
        let _ = arena.shards_mut(&[(0, 3), (2, 4)]);
    }
}
