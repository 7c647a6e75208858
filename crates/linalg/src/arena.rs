//! A simulation-wide arena of echelon bases: one store per node.
//!
//! A gossip simulation holds one decoder basis per node. [`BasisArena`]
//! owns every node's rows behind one type, and stores what the paper's
//! node stores: the equations received so far. The part of a node every
//! operation touches is not the node's own: all *heads* (a node's pivot
//! map, then its reduced coefficient rows) are one slab in node order,
//! node `v`'s at `v · head_bytes`, and all ranks and all span classes are
//! dense vectors beside it. A node is a head, a rank, a class and, where
//! rows carry a payload, tails. The heads and ranks come zeroed from the
//! allocator at construction, pages untouched, the classes zeroed, and all
//! are written in place, so a rank-only arena (`row_elems == pivot_width`)
//! is `head_bytes + 8` bytes a node (88 at k = 8 over GF(2⁸)), has no
//! per-node struct and never allocates again.
//!
//! A class (the `node` module has the invariant) makes
//! [`BasisArena::same_span`] usually one load per node: two nodes of equal
//! rank and class span the same subspace, and two found equal row by row
//! both take the smaller of their classes, so a group of equal spans
//! converges on one class and stops paying for row compares. Class ids
//! are node ids in a `u32`, so an arena holds at most 2³² nodes.
//!
//! Rows with a payload add one table entry per node and one allocation per
//! node, made by the insert that stores its first row, at the full-rank
//! footprint of its elimination log and payload rows (`NodeBasis` in the
//! `node` module has the rule), which every node of a completed run
//! reaches anyway. Until then that reservation is address space, not
//! memory: the kernel commits a page when a row is first written into it.
//! Lazy page commit, not a growth policy, is what keeps the resident
//! footprint near `Σ rank(v)` instead of `n · pivot_width` mid-run, and
//! what the case for n = 10⁶ fitting in memory rests on.
//!
//! A node is the crate-private store of the `node` module, and this file
//! is the one place one is assembled from its parts: once for the arena,
//! once for a shard. The arena adds indexing and one scratch set shared by
//! all nodes, reserved at its full-rank size at construction. An
//! [`EchelonBasis`](crate::EchelonBasis) and an `ag_rlnc::Decoder` are node
//! 0 of a one-node arena, and a simulation's nodes are one arena its
//! protocol owns, so there is one owner of node state and no second
//! elimination. What the differential suites in `ag-rlnc` pin is that one
//! implementation against an eager scalar oracle kept in their test code.
//!
//! For parallel round execution, [`BasisArena::shards_mut`] splits the
//! arena into disjoint contiguous [`BasisShard`]s: `&mut` slices of the
//! four slabs by node range, `Send` without any locking — disjointness is
//! enforced by the slice split, not at runtime.
//!
//! # Examples
//!
//! ```
//! use ag_gf::{Field, Gf256, SlabField};
//! use ag_linalg::{BasisArena, Insertion};
//!
//! // Two nodes, width-2 bases, rows carry one payload symbol.
//! let mut arena = BasisArena::<Gf256>::try_new(2, 2, 3).expect("a small arena fits");
//! let row = Gf256::pack(&[Gf256::ONE, Gf256::ZERO, Gf256::new(9)]);
//! assert_eq!(arena.insert_packed_mut(0, &mut row.clone()), Insertion::Innovative);
//! assert_eq!(arena.insert_packed_mut(0, &mut row.clone()), Insertion::Redundant);
//! assert_eq!(arena.rank(0), 1);
//! assert_eq!(arena.rank(1), 0);
//! ```

use std::cell::{Cell, RefCell, RefMut};
use std::fmt;
use std::marker::PhantomData;
use std::mem::size_of;

use ag_gf::SlabField;

use crate::node::{Dims, Head, Insertion, NodeBasis, Rows, Scratch, Tails};

/// Typed sizing failures from [`BasisArena::try_new`].
///
/// The capacity math (per node a head, a 4-byte rank, a 4-byte span class
/// and, where rows carry a payload, `pivot_width` payload rows and the
/// `pivot_width²`-symbol log) runs in `u128`, so impossible shapes surface as
/// [`ArenaError::CapacityOverflow`] with the computed byte count instead of
/// a silent wrap or an opaque allocator abort, and failed reservations
/// surface as [`ArenaError::AllocationFailure`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArenaError {
    /// The full-rank footprint does not fit in `usize`, the pivot width
    /// exceeds the 65,536 columns the 2-byte entries of a node's pivot map
    /// can name, or the node count exceeds the 2³² ids a 4-byte span class
    /// can name.
    CapacityOverflow {
        /// Requested node count.
        nodes: usize,
        /// Requested pivot (coefficient) width.
        pivot_width: usize,
        /// Requested symbols per row.
        row_elems: usize,
        /// The full-rank footprint that overflowed, in bytes (exact in
        /// `u128`, saturating there).
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
                "arena capacity overflows usize: {nodes} nodes × ({pivot_width} rows × \
                 {row_elems} symbols + elimination log + pivot map + rank + class) = {bytes} bytes"
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

/// `len` zeroed elements whose pages come from the allocator unwritten, or
/// the size in bytes it refused. `std` has no fallible zeroed allocation
/// and `vec!` aborts when refused, so the size is tried with a fallible
/// reservation first, which is handed straight back.
fn try_zeroed<T: Copy + Default>(len: usize) -> Result<Vec<T>, usize> {
    Vec::<T>::new()
        .try_reserve_exact(len)
        .map_err(|_| len.saturating_mul(size_of::<T>()))?;
    Ok(vec![T::default(); len])
}

/// All of a simulation's echelon bases, in slabs indexed by node (see the
/// module docs).
///
/// Unlike [`EchelonBasis`](crate::EchelonBasis), whose row length is
/// learned from the first stored row, an arena fixes `row_elems`
/// (coefficients + augmented tail) at construction; every row must match.
/// Shape violations are bugs in the caller's wiring, not data-dependent
/// conditions, so the arena asserts rather than returning typed errors —
/// the decoder layer above re-checks shapes where untrusted input enters.
/// *Sizing* failures, in contrast, are data-dependent (they scale with
/// `n`), so [`BasisArena::try_new`] reports them as [`ArenaError`].
#[derive(Debug, Clone)]
pub struct BasisArena<F> {
    /// Every node's head (pivot map, then reduced coefficient rows), node
    /// `v`'s at `v · dims.head_bytes()`; shards take disjoint `&mut`
    /// slices of this, of `ranks`, of `classes` and of `tails`.
    heads: Vec<u8>,
    /// Every node's rank.
    ranks: Vec<u32>,
    /// Every node's span class (see the module docs); a `Cell`, because
    /// [`BasisArena::same_span`] records what it found through `&self`.
    classes: Vec<Cell<u32>>,
    /// Every node's payload tails; empty when rows carry no payload.
    tails: Vec<RefCell<Tails>>,
    /// Row widths and per-node sizes, fixed up front.
    dims: Dims,
    /// Reusable buffers (transient), shared by all nodes — operations are
    /// serial per arena.
    scratch: RefCell<Scratch>,
    _field: PhantomData<F>,
}

impl<F: SlabField> BasisArena<F> {
    /// Creates an arena of `nodes` empty bases with `pivot_width` leading
    /// coefficients and `row_elems` total symbols per row. Checks the
    /// full-rank capacity math (returning [`ArenaError::CapacityOverflow`]
    /// with the exact byte count; also for more than 2³² nodes) and
    /// allocates the head, rank and class slabs, the table of payload tails
    /// and the shared scratch fallibly (returning
    /// [`ArenaError::AllocationFailure`] instead of aborting). Payload rows
    /// are not reserved here: each node's first row does that.
    ///
    /// # Panics
    ///
    /// Panics if `row_elems < pivot_width` — a shape bug, not a sizing
    /// condition. A zero pivot width is a degenerate store that is full
    /// from the start.
    pub fn try_new(nodes: usize, pivot_width: usize, row_elems: usize) -> Result<Self, ArenaError> {
        assert!(
            row_elems >= pivot_width,
            "rows must at least cover the pivot prefix"
        );
        let dims = Dims::sized::<F>(nodes, pivot_width, row_elems).map_err(|bytes| {
            ArenaError::CapacityOverflow {
                nodes,
                pivot_width,
                row_elems,
                bytes,
            }
        })?;
        let refused = |bytes| ArenaError::AllocationFailure { bytes };
        let heads = try_zeroed(nodes * dims.head_bytes()).map_err(refused)?;
        let ranks = try_zeroed(nodes).map_err(refused)?;
        let mut classes = Vec::new();
        classes
            .try_reserve_exact(nodes)
            .map_err(|_| refused(nodes.saturating_mul(size_of::<Cell<u32>>())))?;
        classes.resize_with(nodes, Cell::default);
        let mut tails = Vec::new();
        if dims.pb > 0 {
            tails
                .try_reserve_exact(nodes)
                .map_err(|_| refused(nodes.saturating_mul(size_of::<RefCell<Tails>>())))?;
            tails.resize_with(nodes, RefCell::default);
        }
        let mut scratch = Scratch::default();
        scratch.try_preallocate::<F>(dims).map_err(refused)?;
        Ok(BasisArena {
            heads,
            ranks,
            classes,
            tails,
            dims,
            scratch: RefCell::new(scratch),
            _field: PhantomData,
        })
    }

    /// Node `node`'s stored pivots and coefficient rows.
    pub(crate) fn head(&self, node: usize) -> Head<'_> {
        let head = &self.heads[self.dims.head_range(node)];
        Head::new(self.dims, head, self.ranks[node] as usize)
    }

    /// Node `node`'s rows for a read through `&self`.
    fn rows(&self, node: usize) -> Rows<'_, RefMut<'_, Tails>> {
        Rows {
            head: self.head(node),
            tails: self.tails.get(node).map(RefCell::borrow_mut),
        }
    }

    /// Node `node` assembled for an insert, and the scratch to run it on.
    fn node_mut(&mut self, node: usize) -> (NodeBasis<'_>, &mut Scratch) {
        let node = NodeBasis {
            head: &mut self.heads[self.dims.head_range(node)],
            rank: &mut self.ranks[node],
            class: self.classes[node].get_mut(),
            id: node,
            tails: self.tails.get_mut(node).map(RefCell::get_mut),
        };
        (node, self.scratch.get_mut())
    }

    /// Number of per-node bases.
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.ranks.len()
    }

    /// The pivot (coefficient) width of every row.
    pub(crate) fn pivot_width(&self) -> usize {
        self.dims.pivot_width
    }

    /// Bytes per row.
    #[must_use]
    pub fn row_bytes(&self) -> usize {
        self.dims.row_bytes()
    }

    /// Bytes of the packed coefficient prefix of every row.
    #[must_use]
    pub fn coeff_bytes(&self) -> usize {
        self.dims.kb
    }

    /// Heap bytes currently reserved for node state: the head, rank and
    /// class slabs and, for rows with a payload, the table of tails and
    /// every node's own allocation.
    #[must_use]
    pub fn allocated_bytes(&self) -> usize {
        let per_node: usize = self.tails.iter().map(|t| t.borrow().heap_bytes()).sum();
        self.heads.capacity()
            + self.ranks.capacity() * size_of::<u32>()
            + self.classes.capacity() * size_of::<Cell<u32>>()
            + self.tails.capacity() * size_of::<RefCell<Tails>>()
            + per_node
    }

    /// Node `node`'s current rank.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[must_use]
    pub fn rank(&self, node: usize) -> usize {
        self.ranks[node] as usize
    }

    /// True once node `node`'s basis spans the full coefficient space.
    #[must_use]
    pub fn is_full(&self, node: usize) -> bool {
        self.rank(node) == self.dims.pivot_width
    }

    /// Do nodes `a` and `b` span the same subspace? Exact, and allocation
    /// free. `false` unless their ranks are equal and nonzero (so never for
    /// two empty nodes); `true` at once when they share a span class (see
    /// the module docs); otherwise their reduced coefficient rows are
    /// compared, and when they match both take the smaller of their two
    /// classes, so that the next call on the pair answers from the classes
    /// and nodes found equal pairwise converge on one class.
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` is out of range.
    #[must_use]
    pub fn same_span(&self, a: usize, b: usize) -> bool {
        let rank = self.ranks[a];
        if rank == 0 || rank != self.ranks[b] {
            return false;
        }
        let (class_a, class_b) = (self.classes[a].get(), self.classes[b].get());
        if class_a == class_b {
            return true;
        }
        let same = self
            .head(a)
            .same_rows(self.head(b), self.dims, &mut self.scratch.borrow_mut());
        if same {
            let class = class_a.min(class_b);
            self.classes[a].set(class);
            self.classes[b].set(class);
        }
        same
    }

    /// Node `node`'s span class (see the module docs): what the property
    /// suite reads to pin which class [`BasisArena::same_span`] leaves a
    /// matched pair in.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[doc(hidden)]
    #[must_use]
    pub fn span_class(&self, node: usize) -> u32 {
        self.classes[node].get()
    }

    /// Iterates over node `node`'s reduced coefficient prefixes, in
    /// insertion order. Payloads are untouched — the view for helpfulness
    /// scans between nodes.
    pub fn coeff_rows(&self, node: usize) -> impl Iterator<Item = &[u8]> {
        // `max(1)` only matters at pivot width 0, where coeff is empty.
        self.head(node)
            .coeff
            .chunks_exact(self.coeff_bytes().max(1))
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
        self.rows(node)
            .copy_packed_row_into::<F>(self.dims, i, &mut sc, out);
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
        self.rows(node)
            .accumulate_rows_into::<F>(self.dims, factors, &mut sc, out);
    }

    /// Forces node `node`'s deferred payload elimination to settle now
    /// instead of at the next read. Idempotent and invisible to results:
    /// every read path settles on demand anyway.
    pub fn settle(&self, node: usize) {
        let mut sc = self.scratch.borrow_mut();
        self.rows(node).settle::<F>(self.dims, &mut sc);
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
    pub fn insert_packed_mut(&mut self, node: usize, row: &mut [u8]) -> Insertion {
        let dims = self.dims;
        let (node, sc) = self.node_mut(node);
        node.insert_packed::<F>(dims, row, sc)
    }

    /// [`BasisArena::insert_packed_mut`] on a copy of `row` in the shared
    /// scratch, so the caller's bytes survive and no insert allocates.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range or `row.len() != row_bytes()`.
    pub fn insert_packed_slice(&mut self, node: usize, row: &[u8]) -> Insertion {
        let dims = self.dims;
        let (node, sc) = self.node_mut(node);
        node.insert_packed_slice::<F>(dims, row, sc)
    }

    /// Would this packed row raise node `node`'s rank? Non-mutating; `row`
    /// may be a pivot-prefix-only slab or a full row — only the prefix is
    /// read, through reusable scratch buffers, so the probe is
    /// allocation-free and never touches payload state.
    ///
    /// # Panics
    ///
    /// Panics if `row` is shorter than the packed pivot prefix.
    #[must_use]
    pub fn would_be_innovative_packed(&self, node: usize, row: &[u8]) -> bool {
        let kb = self.coeff_bytes();
        assert!(row.len() >= kb, "row shorter than the packed pivot prefix");
        self.probe(node, |p| p.extend_from_slice(&row[..kb]))
    }

    /// Would the packed coefficient prefix `fill` writes into the scratch
    /// probe row raise node `node`'s rank?
    pub(crate) fn probe(&self, node: usize, fill: impl FnOnce(&mut Vec<u8>)) -> bool {
        self.head(node)
            .probe::<F>(self.dims, &mut self.scratch.borrow_mut(), fill)
    }

    /// Once node `node` is full, extracts its solution exactly as
    /// [`EchelonBasis::solution`](crate::EchelonBasis::solution): row `i`
    /// of the result is the augmented tail of the equation whose
    /// coefficient vector is the `i`-th unit vector. Settles the node's
    /// deferred payload elimination in one blocked replay first.
    #[must_use]
    pub fn solution(&self, node: usize) -> Option<Vec<Vec<F>>> {
        let mut sc = self.scratch.borrow_mut();
        self.rows(node).solution::<F>(self.dims, &mut sc)
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
        let dims = self.dims;
        let total = self.nodes();
        let mut out = Vec::with_capacity(bounds.len());
        let mut heads = self.heads.as_mut_slice();
        let mut ranks = self.ranks.as_mut_slice();
        let mut classes = self.classes.as_mut_slice();
        let mut tails = self.tails.as_mut_slice();
        let mut consumed = 0;
        for &(start, end) in bounds {
            assert!(
                start == consumed && end >= start && end <= total,
                "shard bounds must partition the arena contiguously"
            );
            let len = end - start;
            consumed = end;
            out.push(BasisShard {
                heads: heads
                    .split_off_mut(..len * dims.head_bytes())
                    .expect("in bounds"),
                ranks: ranks.split_off_mut(..len).expect("in bounds"),
                classes: classes.split_off_mut(..len).expect("in bounds"),
                // One per node, or none at all for rank-only rows.
                tails: tails
                    .split_off_mut(..len.min(tails.len()))
                    .expect("in bounds"),
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
/// reached through `&mut` slices of the arena's slabs, no locks, no
/// aliasing — so shards can run on worker threads while the arena itself
/// stays single-threaded. Each shard carries its own scratch buffers.
#[derive(Debug)]
pub struct BasisShard<'a, F> {
    /// The heads of the shard's nodes: the arena's
    /// `[start · head_bytes, end · head_bytes)`.
    heads: &'a mut [u8],
    ranks: &'a mut [u32],
    /// The span classes of the shard's nodes, kept by its inserts.
    classes: &'a mut [Cell<u32>],
    tails: &'a mut [RefCell<Tails>],
    /// Global id of the shard's first node.
    start: usize,
    dims: Dims,
    scratch: Scratch,
    _field: PhantomData<F>,
}

impl<F: SlabField> BasisShard<'_, F> {
    /// Global node ids covered: `start..start + len`.
    #[must_use]
    pub fn node_range(&self) -> std::ops::Range<usize> {
        self.start..self.start + self.ranks.len()
    }

    /// Node `node`'s current rank (`node` is a global id inside
    /// [`BasisShard::node_range`]).
    #[must_use]
    pub fn rank(&self, node: usize) -> usize {
        self.ranks[node - self.start] as usize
    }

    /// Shard-local [`BasisArena::is_full`].
    #[must_use]
    pub fn is_full(&self, node: usize) -> bool {
        self.rank(node) == self.dims.pivot_width
    }

    /// Node `node`'s rows for a read, and the scratch to run it on.
    fn rows(&mut self, node: usize) -> (Rows<'_, &mut Tails>, &mut Scratch) {
        let i = node - self.start;
        let head = &self.heads[self.dims.head_range(i)];
        let rows = Rows {
            head: Head::new(self.dims, head, self.ranks[i] as usize),
            tails: self.tails.get_mut(i).map(RefCell::get_mut),
        };
        (rows, &mut self.scratch)
    }

    /// Shard-local [`BasisArena::insert_packed_mut`] — same elimination
    /// code, same verdicts.
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the shard or the row length mismatches.
    pub fn insert_packed_mut(&mut self, node: usize, row: &mut [u8]) -> Insertion {
        let i = node - self.start;
        let node = NodeBasis {
            head: &mut self.heads[self.dims.head_range(i)],
            rank: &mut self.ranks[i],
            class: self.classes[i].get_mut(),
            id: node,
            tails: self.tails.get_mut(i).map(RefCell::get_mut),
        };
        node.insert_packed::<F>(self.dims, row, &mut self.scratch)
    }

    /// Shard-local [`BasisArena::copy_packed_row_into`].
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the shard or `i >= rank(node)`.
    pub fn copy_packed_row_into(&mut self, node: usize, i: usize, out: &mut Vec<u8>) {
        let dims = self.dims;
        let (mut rows, sc) = self.rows(node);
        rows.copy_packed_row_into::<F>(dims, i, sc, out);
    }

    /// Shard-local [`BasisArena::accumulate_rows_into`].
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the shard, `factors` is not exactly
    /// `rank(node)` packed symbols, or `out` is not one full row.
    pub fn accumulate_rows_into(&mut self, node: usize, factors: &[u8], out: &mut [u8]) {
        let dims = self.dims;
        let (mut rows, sc) = self.rows(node);
        rows.accumulate_rows_into::<F>(dims, factors, sc, out);
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
        let mut arena = BasisArena::<F>::try_new(nodes, k, elems).unwrap();
        let mut bases: Vec<EchelonBasis<F>> = (0..nodes).map(|_| EchelonBasis::new(k)).collect();
        for _ in 0..6 * k {
            let node = rng.gen_range(0..nodes);
            let row = random_row::<F>(&mut rng, elems);
            let got = arena.insert_packed_mut(node, &mut row.clone());
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
        let mut serial = BasisArena::<Gf256>::try_new(nodes, k, k + r).unwrap();
        let serial_verdicts: Vec<Insertion> = stream
            .iter()
            .map(|(node, row)| serial.insert_packed_mut(*node, &mut row.clone()))
            .collect();
        let mut sharded = BasisArena::<Gf256>::try_new(nodes, k, k + r).unwrap();
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
        // The exact u128 byte count appears in the message: per node a head
        // (pivot map, coefficient rows), a rank, a class, payload rows and
        // the log.
        let want = (usize::MAX as u128 / 4) * ((8 * 2 + 8 * 8) + 4 + 4 + (8 * 8 + 64 + 63));
        assert!(
            msg.contains(&want.to_string()),
            "computed count missing: {msg}"
        );
        // A rank-only arena has only the first three terms, and they count.
        let err = BasisArena::<Gf256>::try_new(usize::MAX / 64, 8, 8).expect_err("must overflow");
        let want = (usize::MAX as u128 / 64) * (80 + 4 + 4);
        assert!(err.to_string().contains(&want.to_string()), "{err}");
    }

    /// A pivot column is stored in two bytes: a basis wider than 65,536
    /// columns is refused by the sizing check, whatever the node count,
    /// instead of truncated, and the widest one a `u16` names passes it.
    #[test]
    fn pivot_width_beyond_u16_is_a_capacity_overflow() {
        let k = usize::from(u16::MAX) + 2;
        for nodes in [0, 1] {
            let err = BasisArena::<Gf2>::try_new(nodes, k, k).expect_err("must not fit");
            assert!(matches!(err, ArenaError::CapacityOverflow { .. }), "{err}");
        }
        let widest = Dims::sized::<Gf2>(1, k - 1, k - 1).expect("65,536 columns fit");
        assert_eq!(widest.pivot_width, 65_536);
    }

    /// A span class names a node in a `u32`: an arena of more than 2³²
    /// nodes is refused by the sizing check, even where its slabs would fit.
    #[test]
    fn more_than_two_to_the_32_nodes_is_a_capacity_overflow() {
        let nodes = u32::MAX as usize + 2;
        let err = BasisArena::<Gf2>::try_new(nodes, 1, 1).expect_err("must not fit");
        assert!(matches!(err, ArenaError::CapacityOverflow { .. }), "{err}");
    }

    /// Slabs that fit `usize` and not the machine are refused with the size
    /// asked for, not by an allocator abort. 2³² nodes, the most a class
    /// can name, pass the sizing check.
    #[test]
    fn refused_slab_is_a_typed_allocation_failure() {
        let (nodes, k) = (1usize << 32, 1024);
        let err = BasisArena::<Gf256>::try_new(nodes, k, k).expect_err("4 PiB of heads");
        let head = k * (2 + k);
        assert_eq!(
            err,
            ArenaError::AllocationFailure {
                bytes: nodes * head
            }
        );
    }

    /// With a payload a node holds nothing of its own before its first row,
    /// exactly one allocation of its full-rank footprint after it, and that
    /// for good: no later insert, innovative or redundant, changes what the
    /// arena has allocated.
    #[test]
    fn payload_node_storage_is_one_allocation_at_its_first_row() {
        let mut rng = StdRng::seed_from_u64(3);
        let (k, r) = (6, 4);
        let mut arena = BasisArena::<Gf256>::try_new(2, k, k + r).unwrap();
        // Heads (pivot map, coefficients), ranks, classes, and the table of
        // tails.
        let fixed = 2 * (k * (2 + k) + 4 + 4 + size_of::<RefCell<Tails>>());
        assert!(size_of::<RefCell<Tails>>() <= 48);
        assert_eq!(arena.allocated_bytes(), fixed);
        // Elimination log, alignment slack, payload rows.
        let full_rank = k * k + 63 + k * r;
        let mut redundant = 0;
        while !arena.is_full(0) || !arena.is_full(1) {
            let node = rng.gen_range(0..2);
            // Every other row repeats the node's span: a redundant insert.
            let mut row = random_row::<Gf256>(&mut rng, k + r);
            if arena.rank(node) > 0 && rng.gen_bool(0.5) {
                arena.copy_packed_row_into(node, 0, &mut row);
            }
            redundant += usize::from(!arena.insert_packed_mut(node, &mut row).is_innovative());
            let holding = (0..2).filter(|&v| arena.rank(v) > 0).count();
            assert_eq!(arena.allocated_bytes(), fixed + holding * full_rank);
        }
        assert!(redundant > 0, "the stream must include redundant inserts");
        for node in 0..2 {
            let mut row = random_row::<Gf256>(&mut rng, k + r);
            assert_eq!(
                arena.insert_packed_mut(node, &mut row),
                Insertion::Redundant
            );
        }
        assert_eq!(arena.allocated_bytes(), fixed + 2 * full_rank);
    }

    /// A rank-only arena is a head, a rank and a class per node from
    /// construction on: no table of tails, no per-node allocation, and no
    /// insert changes what it has allocated or where.
    #[test]
    fn rank_only_arena_is_head_rank_and_class_bytes_a_node_throughout() {
        let mut rng = StdRng::seed_from_u64(11);
        let (k, nodes) = (8, 3);
        let mut arena = BasisArena::<Gf256>::try_new(nodes, k, k).unwrap();
        let bytes = nodes * (k * (2 + k) + 4 + 4);
        let base = arena.heads.as_ptr();
        while (0..nodes).any(|v| !arena.is_full(v)) {
            assert_eq!(arena.allocated_bytes(), bytes);
            let mut row = random_row::<Gf256>(&mut rng, k);
            arena.insert_packed_mut(rng.gen_range(0..nodes), &mut row);
        }
        assert_eq!(arena.allocated_bytes(), bytes);
        assert_eq!(arena.heads.as_ptr(), base);
        assert!(arena.tails.is_empty());
        assert!(arena.solution(0).is_some());
    }

    /// A shard's slabs are its node range of the arena's: heads
    /// `[start · head_bytes, end · head_bytes)`, one rank and one class a
    /// node, and one tails entry a node where rows carry a payload.
    #[test]
    fn a_shards_slabs_are_its_node_range_of_the_arenas() {
        for r in [0, 3] {
            let k = 5;
            let mut arena = BasisArena::<Gf256>::try_new(7, k, k + r).unwrap();
            let stride = arena.dims.head_bytes();
            assert_eq!(stride, k * (2 + k));
            let heads = arena.heads.as_ptr() as usize;
            let ranks = arena.ranks.as_ptr() as usize;
            let classes = arena.classes.as_ptr() as usize;
            let bounds = [(0, 2), (2, 2), (2, 6), (6, 7)];
            for (shard, (start, end)) in arena.shards_mut(&bounds).iter().zip(bounds) {
                assert_eq!(shard.node_range(), start..end);
                assert_eq!(shard.heads.as_ptr() as usize, heads + start * stride);
                assert_eq!(shard.heads.len(), (end - start) * stride);
                assert_eq!(shard.ranks.as_ptr() as usize, ranks + start * 4);
                assert_eq!(shard.ranks.len(), end - start);
                assert_eq!(shard.classes.as_ptr() as usize, classes + start * 4);
                assert_eq!(shard.classes.len(), end - start);
                assert_eq!(shard.tails.len(), if r > 0 { end - start } else { 0 });
            }
        }
    }

    #[test]
    fn full_node_rejects_everything_without_overflow() {
        let mut rng = StdRng::seed_from_u64(9);
        let k = 4;
        let mut arena = BasisArena::<Gf256>::try_new(1, k, k).unwrap();
        while !arena.is_full(0) {
            let mut row = random_row::<Gf256>(&mut rng, k);
            arena.insert_packed_mut(0, &mut row);
        }
        for _ in 0..20 {
            let mut row = random_row::<Gf256>(&mut rng, k);
            assert_eq!(arena.insert_packed_mut(0, &mut row), Insertion::Redundant);
        }
        assert_eq!(arena.rank(0), k);
    }

    #[test]
    fn nodes_are_independent() {
        let mut arena = BasisArena::<Gf256>::try_new(2, 2, 2).unwrap();
        let e0 = Gf256::pack(&[Gf256::ONE, Gf256::ZERO]);
        assert_eq!(
            arena.insert_packed_mut(0, &mut e0.clone()),
            Insertion::Innovative
        );
        assert_eq!(arena.rank(0), 1);
        assert_eq!(arena.rank(1), 0);
        assert_eq!(
            arena.insert_packed_mut(1, &mut e0.clone()),
            Insertion::Innovative
        );
        assert_eq!(arena.rank(1), 1);
    }

    #[test]
    fn insert_packed_mut_reduces_in_callers_buffer() {
        let mut arena = BasisArena::<Gf256>::try_new(1, 2, 2).unwrap();
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
        let mut arena = BasisArena::<Gf256>::try_new(1, 5, 5).unwrap();
        for _ in 0..30 {
            let mut row = random_row::<Gf256>(&mut rng, 5);
            let predicted = arena.would_be_innovative_packed(0, &row);
            let actual = arena.insert_packed_mut(0, &mut row) == Insertion::Innovative;
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
        let mut arena = BasisArena::<Gf256>::try_new(2, k, k + r).unwrap();
        let mut oracle = BasisArena::<Gf256>::try_new(2, k, k + r).unwrap();
        let mut buf = Vec::new();
        let mut step = 0;
        while !(arena.is_full(0) && arena.is_full(1)) {
            let node = rng.gen_range(0..2);
            let row = random_row::<Gf256>(&mut rng, k + r);
            assert_eq!(
                arena.insert_packed_mut(node, &mut row.clone()),
                oracle.insert_packed_mut(node, &mut row.clone())
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
        let mut arena = BasisArena::<Gf256>::try_new(1, 2, 3).unwrap();
        let _ = arena.insert_packed_mut(0, &mut [1, 2]);
    }

    #[test]
    #[should_panic(expected = "pivot prefix")]
    fn tail_shorter_than_pivot_rejected_at_construction() {
        let _ = BasisArena::<Gf256>::try_new(1, 3, 2);
    }

    #[test]
    #[should_panic(expected = "partition the arena contiguously")]
    fn overlapping_shard_bounds_panic() {
        let mut arena = BasisArena::<Gf256>::try_new(4, 2, 2).unwrap();
        let _ = arena.shards_mut(&[(0, 3), (2, 4)]);
    }
}
