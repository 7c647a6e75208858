//! The one per-node RLNC store: [`NodeBasis`] and its read side, [`Rows`].
//!
//! A node's learned subspace is held exactly once in this workspace, in
//! the layout this module defines; nobody here owns one. A node is four
//! parts: a *head* of [`Dims::head_bytes`] bytes (its pivot map, then its
//! reduced coefficient rows), a rank, a span *class* and, where rows carry
//! a payload, its [`Tails`]. Their one owner is [`crate::BasisArena`],
//! which keeps every node's head in one slab indexed by node, the ranks and
//! the classes in dense vectors beside it and the tails in a fourth
//! ([`crate::EchelonBasis`] and `ag_rlnc::Decoder` are one-node arenas, and
//! a simulation holds its nodes in one arena with nothing per node beside
//! it: a reception count is the rank gained). The two assemblers of the
//! borrowed views below are the arena and a [`crate::BasisShard`], which
//! borrows a node range of the four; each assembles them per call. Insert,
//! flush, probe, row copy, recode gather, span comparison and solution are
//! each written once, on those views, over the pure slab functions in
//! [`core_ops`].
//!
//! # Span classes
//!
//! A node's class is a node id `c` with one meaning: the node's span is
//! the span node `c` had when `c`'s rank was the node's rank now. Spans
//! only grow, one dimension per innovative insert, so node `c`'s span at
//! a given rank is one fixed subspace, and two nodes of equal rank and
//! equal class hold the same span. The class is written where the rank
//! changes, in [`NodeBasis::insert_packed`]: an innovative insert makes
//! the node its own class. The arena's span comparison (`same_span`) adds
//! the other write: two nodes found equal row by row both take the smaller
//! of their two classes, so the next comparison of the pair is one load
//! each, and nodes of one span compared pairwise converge on one class.
//! Either class is a valid one for both (each names a node whose span at
//! this rank was the common span), so the smaller one is too.
//!
//! # The coefficient/payload split
//!
//! Every inserted row is an augmented equation `[k coefficients | payload]`,
//! but only the `k`-symbol coefficient prefix ever decides anything: pivot
//! selection, innovation verdicts, rank. The two parts are therefore stored
//! separately:
//!
//! * **coefficient rows** (the head) — one packed `pivot_width`-symbol row
//!   per stored equation, kept *eagerly* in reduced (Gauss–Jordan) form.
//!   Inserts and probes touch only the head, so a reception costs
//!   `O(rank · k)` regardless of payload size — and a *redundant* reception
//!   does **zero** payload work. Rank-only rows have nothing else: such a
//!   node is `head_bytes + 8` bytes of three slabs and never allocates.
//! * **payload rows + elimination log** ([`Tails`]) — payload tails are
//!   appended verbatim (one `memcpy`) and the elimination applied to the
//!   coefficient prefix is recorded instead of executed: per innovative
//!   insert the log stores the row-indexed reduction multipliers, the pivot
//!   normalizer, and the back-substitution multipliers. The log is
//!   *replayed* onto the payload slab only when payload bytes are actually
//!   observed (solution, row materialization, a recoder combining stored
//!   rows, an explicit settle), row-wise or as one blocked panel multiply
//!   — `core_ops::use_blocked` picks per flush from the pending suffix.
//!
//! Either schedule executes the *same field operations* eager elimination
//! would, merely batched and reordered within single output symbols; field
//! arithmetic is exact and GF addition is XOR, so every materialized byte —
//! and every verdict, which never depends on payloads at all — is
//! bit-identical to the eager path. The `ag-rlnc` differential suites pin
//! this against an eager scalar oracle (`crates/rlnc/tests/oracle`), on both
//! schedules.
//!
//! Only the lazily materialised part sits behind a `RefCell` at its
//! owner, so `&self` read paths can settle payloads on demand while pivots
//! and coefficient rows stay plainly borrowable. [`Rows`] takes it either
//! way: a `RefMut` taken through `&self` (one borrow-flag check: the serial
//! arena) or a plain `&mut` (none: the shards).

use std::ops::DerefMut;

use ag_gf::SlabField;

/// Outcome of inserting one equation into a node of the store — and so of
/// delivering a packet to an `ag_rlnc` decoder, which re-exports it.
///
/// In the paper's vocabulary (Definition 3), an [`Insertion::Innovative`]
/// row is a *helpful message*: it increased the rank of the node that
/// received it. A [`Insertion::Redundant`] row was already in the span and
/// is discarded, as the protocol has it: "a received message will be
/// appended to the node's stored messages only if it is independent … and
/// otherwise ignored."
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Insertion {
    /// The row increased the rank of the basis.
    Innovative,
    /// The row was linearly dependent on the existing basis and was dropped.
    Redundant,
}

impl Insertion {
    /// True for [`Insertion::Innovative`].
    #[must_use]
    pub fn is_innovative(self) -> bool {
        matches!(self, Insertion::Innovative)
    }
}

/// The Gauss–Jordan elimination core: pure functions over packed slabs,
/// called only by [`NodeBasis`] (one call site per operation).
pub(crate) mod core_ops {
    use ag_gf::SlabField;

    use super::PIVOT_BYTES;

    /// The columns a packed pivot map names, in stored-row order.
    pub(crate) fn pivot_cols(pivots: &[u8]) -> impl Iterator<Item = usize> + '_ {
        let (entries, _) = pivots.as_chunks::<PIVOT_BYTES>();
        entries.iter().map(|&c| usize::from(u16::from_le_bytes(c)))
    }

    /// Reads the symbol in column `c` of a packed row.
    #[inline]
    pub(crate) fn col<F: SlabField>(row: &[u8], c: usize) -> F {
        F::read_symbol(&row[c * F::SYMBOL_BYTES..])
    }

    /// Reduces the coefficient prefix `crow` against the stored (reduced)
    /// coefficient slab in one fused pass, leaving the row-indexed
    /// elimination multipliers in `factors` (one packed symbol per stored
    /// row; zero where the row was unused). Returns the leading pivot-free
    /// nonzero column — the new pivot — or `None` when the row was
    /// annihilated (already in the span).
    ///
    /// The multipliers can be assembled *before* any elimination runs
    /// because the slab is in reduced form: stored rows carry zeros at
    /// every pivot column but their own, so eliminating one pivot never
    /// changes `crow`'s value at another pivot column — the multiplier for
    /// stored row `ri` with pivot column `pivot_cols[ri]` is simply
    /// `-crow[pivot_cols[ri]]` as received. For the same reason the
    /// surviving value at every pivot-free column equals what sequential
    /// column-order elimination would have produced, making the returned
    /// pivot (and the verdict) identical to the scalar oracle's.
    ///
    /// `pivots` is the packed row-indexed pivot map (`rank` entries, one
    /// per stored row in insertion order) — iterating stored rows directly
    /// keeps this gather `O(rank)` instead of scanning every column.
    pub(crate) fn reduce_coeff<F: SlabField>(
        pivots: &[u8],
        coeff: &[u8],
        crow: &mut [u8],
        factors: &mut Vec<u8>,
    ) -> Option<usize> {
        let sb = F::SYMBOL_BYTES;
        factors.clear();
        factors.resize(pivots.len() / PIVOT_BYTES * sb, 0);
        for (ri, c) in pivot_cols(pivots).enumerate() {
            let x = col::<F>(crow, c);
            if !x.is_zero() {
                (-x).write_symbol(&mut factors[ri * sb..]);
            }
        }
        F::mul_add_multi(factors, coeff, crow);
        // Pivot columns were annihilated exactly, so the leading nonzero
        // column is automatically pivot-free.
        let lead = (0..crow.len() / sb).find(|&c| !col::<F>(crow, c).is_zero());
        debug_assert!(
            lead.is_none_or(|c| pivot_cols(pivots).all(|p| p != c)),
            "pivot columns must be fully eliminated"
        );
        lead
    }

    /// Normalizes a fully reduced coefficient row (pivot entry becomes 1)
    /// and back-substitutes it into every stored row in one fused scatter,
    /// leaving the row-indexed back-substitution multipliers in `back`.
    /// Returns the pivot normalizer `pinv`. The caller then appends `crow`
    /// as the newest stored row and logs `(factors, pinv, back)` for the
    /// deferred payload replay.
    pub(crate) fn normalize_and_back_substitute<F: SlabField>(
        coeff: &mut [u8],
        rank: usize,
        pivot_col: usize,
        crow: &mut [u8],
        back: &mut Vec<u8>,
    ) -> F {
        let sb = F::SYMBOL_BYTES;
        let kb = crow.len();
        let pinv = col::<F>(crow, pivot_col).inv().expect("pivot is nonzero");
        F::mul_slice(pinv, crow);
        back.clear();
        back.resize(rank * sb, 0);
        for r in 0..rank {
            let g: F = col::<F>(&coeff[r * kb..], pivot_col);
            if !g.is_zero() {
                (-g).write_symbol(&mut back[r * sb..]);
            }
        }
        F::mul_add_scatter(back, crow, &mut coeff[..rank * kb]);
        pinv
    }

    /// Byte offset of logged event `e` in an elimination log.
    ///
    /// Event `e` records `[e reduce multipliers | pinv | e back-substitution
    /// multipliers]` — `(2e + 1)` symbols — so the events pack contiguously
    /// at offset `Σ_{i<e} (2i + 1) = e²` symbols.
    #[inline]
    pub(crate) fn log_offset<F: SlabField>(e: usize) -> usize {
        e * e * F::SYMBOL_BYTES
    }

    /// Replays logged elimination event `e` onto the payload slab: the
    /// exact field operations eager elimination would have applied to the
    /// payload tails when stored row `e` was inserted, executed as two
    /// fused passes. On entry `pay` rows `0..e` are materialized (reduced)
    /// and row `e` still holds the raw received payload; on exit row `e`
    /// is materialized too.
    pub(crate) fn replay_event<F: SlabField>(
        pay: &mut [u8],
        log: &[u8],
        e: usize,
        pay_bytes: usize,
    ) {
        let sb = F::SYMBOL_BYTES;
        let ev = &log[log_offset::<F>(e)..];
        let (fwd, rest) = ev.split_at(e * sb);
        let (pinv, back) = rest[..(e + 1) * sb].split_at(sb);
        let (done, tail) = pay.split_at_mut(e * pay_bytes);
        let row_e = &mut tail[..pay_bytes];
        F::mul_add_multi(fwd, done, row_e);
        F::mul_slice(F::read_symbol(pinv), row_e);
        F::mul_add_scatter(back, row_e, done);
    }

    /// Pending-event count below which a flush stays row-wise: the
    /// transform build and panel copies only amortize over a batch of
    /// events.
    pub(crate) const BLOCKED_MIN_PENDING: usize = 16;

    /// Payload rows narrower than this replay row-wise: the panel machinery
    /// exists to feed the wide register-blocked kernels.
    pub(crate) const BLOCKED_MIN_PAY_BYTES: usize = 64;

    /// Source/destination panel row stride for the blocked replay scratch:
    /// `pay_bytes` rounded up to a whole number of cache lines and forced
    /// to an *odd* multiple of 64, so power-of-two payload sizes (the
    /// common case) stop aliasing every panel row onto a handful of L1
    /// sets — measured worth ~9% GEMM throughput on the k=128 / 1 KiB
    /// decode shape. Falls back to `pay_bytes` exactly
    /// if the symbol size ever failed to divide the cache line (no such
    /// field today).
    pub(crate) fn padded_stride<F: SlabField>(pay_bytes: usize) -> usize {
        if 64 % F::SYMBOL_BYTES != 0 {
            return pay_bytes;
        }
        let lines = pay_bytes.div_ceil(64);
        (if lines.is_multiple_of(2) {
            lines + 1
        } else {
            lines
        }) * 64
    }

    /// Should this flush take the blocked schedule? Deterministic in the
    /// basis state alone (pending-suffix shape plus log density), and both
    /// schedules produce identical bytes, so the choice is invisible to
    /// results: blocked when the pending suffix is deep, is at least half
    /// the basis, payload rows are wide and the pending multipliers dense.
    pub(crate) fn use_blocked<F: SlabField>(
        rank: usize,
        flushed: usize,
        pay_bytes: usize,
        log: &[u8],
    ) -> bool {
        let pending = rank - flushed;
        if pending < BLOCKED_MIN_PENDING || pay_bytes < BLOCKED_MIN_PAY_BYTES || pending * 2 < rank
        {
            return false;
        }
        // The dense panel multiply pays rank² multiplies whatever the log
        // holds; a sparse log — e.g. a source node, whose unit-row inserts
        // carry all-zero multipliers — replays row-wise in O(rank)
        // *skipped* gathers instead. Require a quarter of the pending log
        // bytes nonzero.
        let region = &log[log_offset::<F>(flushed)..log_offset::<F>(rank)];
        let nz = region.iter().filter(|&&b| b != 0).count();
        nz * 4 >= region.len().max(1)
    }

    /// Replays every pending event `flushed..rank` as one blocked panel
    /// application — the BLAS-3 replay schedule.
    ///
    /// The pending suffix of the log is first replayed onto an identity
    /// panel of `rank × rank` packed symbols (L1-resident: coefficient
    /// width, not payload width), factoring the whole suffix into one
    /// dense transform `T` with final payload row `i = Σ_j T[i,j] ·
    /// (current payload row j)`. Rows `< flushed` are already materialized
    /// and enter as unit rows. The payload slab is then updated by a
    /// single [`SlabField::mul_add_block`] panel multiply through a
    /// stride-padded scratch panel (see [`padded_stride`]).
    ///
    /// Bit-identity with the row-wise schedule: building `T` performs, in
    /// coefficient space, exactly the multiplier products sequential
    /// replay would fold into the payload bytes; field multiplication is
    /// exact and addition is XOR, so re-associating the accumulation into
    /// a panel multiply reproduces the row-wise bytes bit for bit (pinned
    /// by the differential suite and the golden trajectories).
    pub(crate) fn replay_blocked<F: SlabField>(
        pay: &mut [u8],
        log: &[u8],
        flushed: usize,
        rank: usize,
        pay_bytes: usize,
        transform: &mut Vec<u8>,
        panel: &mut Vec<u8>,
    ) {
        let sb = F::SYMBOL_BYTES;
        let tb = rank * sb;
        transform.clear();
        transform.resize(rank * tb, 0);
        for i in 0..rank {
            F::ONE.write_symbol(&mut transform[i * tb + i * sb..]);
        }
        for e in flushed..rank {
            replay_event::<F>(transform, log, e, tb);
        }
        // One blocked panel multiply from a stride-padded copy of the
        // payload slab into a zeroed destination panel; the padding
        // columns multiply zeros and are never copied back.
        let ps = padded_stride::<F>(pay_bytes);
        panel.clear();
        panel.resize(2 * rank * ps, 0);
        let (srcs, dsts) = panel.split_at_mut(rank * ps);
        for (src_row, pay_row) in srcs.chunks_exact_mut(ps).zip(pay.chunks_exact(pay_bytes)) {
            src_row[..pay_bytes].copy_from_slice(pay_row);
        }
        F::mul_add_block(transform, srcs, dsts, ps);
        for (dst_row, pay_row) in dsts.chunks_exact(ps).zip(pay.chunks_exact_mut(pay_bytes)) {
            pay_row.copy_from_slice(&dst_row[..pay_bytes]);
        }
    }

    /// Settles every pending elimination event onto `pay` on the schedule
    /// [`use_blocked`] picks, leaving `flushed == rank`. `pay` must be
    /// exactly `rank` rows.
    pub(crate) fn flush_pending<F: SlabField>(
        pay: &mut [u8],
        log: &[u8],
        flushed: &mut usize,
        rank: usize,
        pay_bytes: usize,
        transform: &mut Vec<u8>,
        panel: &mut Vec<u8>,
    ) {
        if *flushed >= rank {
            return;
        }
        if use_blocked::<F>(rank, *flushed, pay_bytes, log) {
            replay_blocked::<F>(pay, log, *flushed, rank, pay_bytes, transform, panel);
            *flushed = rank;
        } else {
            while *flushed < rank {
                replay_event::<F>(pay, log, *flushed, pay_bytes);
                *flushed += 1;
            }
        }
    }
}

/// Bytes of one pivot-map entry in a node's head: a column index as a
/// little-endian `u16`, so a pivot width is at most 65,536 columns (a
/// wider one is refused at construction).
pub(crate) const PIVOT_BYTES: usize = 2;

/// A node's payload rows start on a cache line (and stay on one where `pb`
/// is a multiple of it): rows that straddle lines cost the wide kernels a
/// split access per load, a third of a hot 32 × 1 KiB recode gather.
const PAY_ALIGN: usize = 64;

/// Per-row widths and per-node sizes, precomputed once per call tree so the
/// node views need no back-reference to whoever assembled them.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Dims {
    /// Pivot (coefficient) width in symbols — also the per-node row cap.
    pub(crate) pivot_width: usize,
    /// Bytes of the packed coefficient prefix of every row.
    pub(crate) kb: usize,
    /// Bytes of the payload tail of every row.
    pub(crate) pb: usize,
    /// Bytes of a full-rank elimination log; 0 for rank-only rows, which
    /// log nothing.
    pub(crate) lb: usize,
}

impl Dims {
    /// Widths for rows of `row_elems >= pivot_width` symbols over `F`, for a
    /// shape [`Dims::sized`] has accepted.
    pub(crate) fn new<F: SlabField>(pivot_width: usize, row_elems: usize) -> Self {
        let kb = pivot_width * F::SYMBOL_BYTES;
        let pb = (row_elems - pivot_width) * F::SYMBOL_BYTES;
        let lb = if pb > 0 { pivot_width * kb } else { 0 };
        Dims {
            pivot_width,
            kb,
            pb,
            lb,
        }
    }

    /// [`Dims::new`] for a shape nobody has vetted. `Err` carries the
    /// full-rank footprint of `nodes` such nodes in bytes (a head, a rank,
    /// a class and [`Dims::tail_bytes`] each; exact in `u128`, saturating
    /// there) when it does not fit `usize`, a pivot column would not fit
    /// its [`PIVOT_BYTES`] entry, or a node id would not fit a `u32` span
    /// class (more than 2³² nodes).
    pub(crate) fn sized<F: SlabField>(
        nodes: usize,
        pivot_width: usize,
        row_elems: usize,
    ) -> Result<Self, u128> {
        let (k, sb) = (pivot_width as u128, F::SYMBOL_BYTES as u128);
        let tail = (row_elems - pivot_width) as u128;
        // Symbols per stored row: coefficients, payload, and the k logged
        // multipliers a full-rank log averages per row.
        let row_syms = k + tail + if tail > 0 { k } else { 0 };
        let slack = if tail > 0 { PAY_ALIGN - 1 } else { 0 };
        let bytes = k
            .saturating_mul(row_syms.saturating_mul(sb) + PIVOT_BYTES as u128)
            .saturating_add((2 * std::mem::size_of::<u32>() + slack) as u128)
            .saturating_mul(nodes as u128);
        if u16::try_from(pivot_width.saturating_sub(1)).is_err()
            || u32::try_from(nodes.saturating_sub(1)).is_err()
            || usize::try_from(bytes).is_err()
        {
            return Err(bytes);
        }
        Ok(Self::new::<F>(pivot_width, row_elems))
    }

    /// Bytes per full row.
    pub(crate) fn row_bytes(self) -> usize {
        self.kb + self.pb
    }

    /// Bytes of the pivot map that opens a head.
    fn map_bytes(self) -> usize {
        self.pivot_width * PIVOT_BYTES
    }

    /// Bytes of one node's head: its pivot map, then `pivot_width`
    /// coefficient rows.
    pub(crate) fn head_bytes(self) -> usize {
        self.pivot_width * (PIVOT_BYTES + self.kb)
    }

    /// Bytes of one node's tails at full rank: the elimination log, the
    /// slack that aligns the payload rows, then `pivot_width` of those. 0
    /// for rank-only rows.
    pub(crate) fn tail_bytes(self) -> usize {
        match self.pb {
            0 => 0,
            pb => self.lb + PAY_ALIGN - 1 + self.pivot_width * pb,
        }
    }

    /// Where node `i`'s head lies in a slab of heads.
    pub(crate) fn head_range(self, i: usize) -> std::ops::Range<usize> {
        i * self.head_bytes()..(i + 1) * self.head_bytes()
    }
}

/// `try_reserve_exact`, reporting the refused size in bytes.
fn try_reserve<T>(vec: &mut Vec<T>, additional: usize) -> Result<(), usize> {
    vec.try_reserve_exact(additional)
        .map_err(|_| additional.saturating_mul(std::mem::size_of::<T>()))
}

/// Reusable scratch buffers; transient, never part of logical state. One
/// set per arena (shared by its nodes — operations are serial per arena)
/// and one per shard.
#[derive(Debug, Clone, Default)]
pub(crate) struct Scratch {
    /// Row-indexed reduction multipliers (`rank` symbols).
    factors: Vec<u8>,
    /// Row-indexed back-substitution multipliers (`rank` symbols).
    back: Vec<u8>,
    /// Coefficient-prefix probe row for `&self` innovation verdicts.
    probe: Vec<u8>,
    /// Row copy for [`NodeBasis::insert_packed_slice`].
    insert: Vec<u8>,
    /// Blocked-replay transform panel (`rank × rank` packed symbols).
    transform: Vec<u8>,
    /// Blocked-replay stride-padded source/destination payload panels.
    panel: Vec<u8>,
    /// Column → stored-row map (`pivot_width` entries) for a span
    /// comparison.
    row_of_col: Vec<usize>,
}

impl Scratch {
    /// Reserves every buffer at its full-rank footprint, once per arena, so
    /// that a node's first row is the only thing an insert or a read can
    /// allocate for (the row-indexed multiplier buffers would otherwise
    /// cross `Vec` capacity thresholds mid-run, as ranks grow). `Err`
    /// carries the size in bytes of the reservation the allocator refused.
    pub(crate) fn try_preallocate<F: SlabField>(&mut self, d: Dims) -> Result<(), usize> {
        let k = d.pivot_width;
        try_reserve(&mut self.factors, d.kb)?;
        try_reserve(&mut self.back, d.kb)?;
        try_reserve(&mut self.probe, d.kb)?;
        try_reserve(&mut self.insert, d.row_bytes())?;
        try_reserve(&mut self.row_of_col, k)?;
        if d.pb > 0 {
            try_reserve(&mut self.transform, d.lb)?;
            try_reserve(&mut self.panel, 2 * k * core_ops::padded_stride::<F>(d.pb))?;
        }
        Ok(())
    }

    /// A shard's scratch, sized where the shard is made (the main thread,
    /// not its worker): the two multiplier buffers of an insert, `k` symbols
    /// each. Replay panels stay lazy: gossip rarely settles a blocked batch.
    pub(crate) fn for_shard(d: Dims) -> Self {
        Scratch {
            factors: Vec::with_capacity(d.kb),
            back: Vec::with_capacity(d.kb),
            ..Scratch::default()
        }
    }
}

/// The lazily materialised part of a node that stores payloads: raw payload
/// tails plus the elimination log that turns them into reduced rows on
/// demand, in the node's one allocation.
#[derive(Debug, Clone, Default)]
pub(crate) struct Tails {
    /// `[elimination log | payload rows]`. The log is `Dims::lb` bytes,
    /// events packed per [`core_ops::log_offset`]; the payload rows follow
    /// from `pay_at`, `pb` bytes per stored row and nothing beyond the
    /// last, so the pages of a large slab are committed as rows arrive.
    /// Rows `< flushed` are materialized (reduced); later rows are raw as
    /// received. Empty until the node's first row.
    slab: Vec<u8>,
    /// Where the payload rows start: the first [`PAY_ALIGN`]-aligned
    /// address past the log when the slab was allocated.
    pay_at: usize,
    /// Events already replayed onto the payload rows.
    flushed: usize,
}

impl Tails {
    /// The one place node storage is allocated (see [`NodeBasis`]): the
    /// full-rank footprint, with the log zeroed so that an event is a
    /// plain write. Runs again after a clone, which copies the rows and
    /// not the reservation (nor, then, their alignment).
    fn reserve_full_rank(&mut self, d: Dims) {
        self.slab.reserve_exact(d.tail_bytes() - self.slab.len());
        if self.slab.is_empty() {
            let log_end = self.slab.as_ptr().addr() + d.lb;
            self.pay_at = d.lb + log_end.next_multiple_of(PAY_ALIGN) - log_end;
            self.slab.resize(self.pay_at, 0);
        }
    }

    /// Heap bytes reserved.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.slab.capacity()
    }
}

/// The stored part of one node's head: the pivot map and the reduced
/// coefficient rows of the `rank` rows it holds. What a probe, a
/// helpfulness scan and an equality check read; payloads are out of reach.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Head<'a> {
    /// Row-indexed pivot map: stored row `i` has pivot column
    /// `pivots[i]`, a little-endian `u16`.
    pivots: &'a [u8],
    /// Reduced coefficient prefixes, `kb` bytes per row, fully reduced
    /// (Gauss–Jordan) at all times, in insertion order.
    pub(crate) coeff: &'a [u8],
}

impl<'a> Head<'a> {
    /// The first `rank` entries and rows of a [`Dims::head_bytes`] head.
    pub(crate) fn new(d: Dims, head: &'a [u8], rank: usize) -> Self {
        let (map, rows) = head.split_at(d.map_bytes());
        Head {
            pivots: &map[..rank * PIVOT_BYTES],
            coeff: &rows[..rank * d.kb],
        }
    }

    /// Independent rows stored.
    fn rank(self) -> usize {
        self.pivots.len() / PIVOT_BYTES
    }

    /// Would the packed coefficient prefix `fill` writes (into a cleared
    /// scratch row) raise this node's rank? Non-mutating, allocation-free
    /// once the scratch is warm. A node at full rank says no without
    /// calling `fill`.
    pub(crate) fn probe<F: SlabField>(
        self,
        d: Dims,
        sc: &mut Scratch,
        fill: impl FnOnce(&mut Vec<u8>),
    ) -> bool {
        if self.rank() == d.pivot_width {
            return false;
        }
        let Scratch { factors, probe, .. } = sc;
        probe.clear();
        fill(probe);
        F::canonicalize_slice(probe);
        core_ops::reduce_coeff::<F>(self.pivots, self.coeff, probe, factors).is_some()
    }

    /// Do this head and `other`, of equal rank, store the same reduced
    /// rows in whatever order, and so span the same subspace? Both are in
    /// Gauss–Jordan form, which a subspace has exactly one of: the spans
    /// are equal exactly when the pivot sets are and each pivot's row
    /// matches byte for byte (stored symbols are canonical). Matches rows
    /// through the scratch's column map, so nothing allocates.
    pub(crate) fn same_rows(self, other: Head<'_>, d: Dims, sc: &mut Scratch) -> bool {
        debug_assert_eq!(self.rank(), other.rank(), "compare equal ranks only");
        let row_of_col = &mut sc.row_of_col;
        row_of_col.clear();
        row_of_col.resize(d.pivot_width, usize::MAX);
        for (ri, c) in core_ops::pivot_cols(self.pivots).enumerate() {
            row_of_col[c] = ri;
        }
        // `max(1)` only matters at pivot width 0, where both are empty.
        core_ops::pivot_cols(other.pivots)
            .zip(other.coeff.chunks_exact(d.kb.max(1)))
            .all(|(c, row)| {
                let ri = row_of_col[c];
                ri != usize::MAX && self.coeff[ri * d.kb..][..d.kb] == *row
            })
    }
}

/// One node's basis, assembled for an insert from the arena's (or a
/// shard's) slabs: its head ([`Dims::head_bytes`] of the slab of heads),
/// its rank, its span class and id (see the module docs), and — when rows
/// carry a payload — its [`Tails`].
///
/// Storage: the head exists from construction and is written in place, so
/// rank-only rows never meet the allocator. A node that stores payloads
/// makes one allocation, at its full-rank footprint, in the insert that
/// stores its first row ([`Tails::reserve_full_rank`]). No later insert
/// reallocates, moves or frees a row, so a round's parallel phases never
/// meet the allocator over node storage.
pub(crate) struct NodeBasis<'a> {
    pub(crate) head: &'a mut [u8],
    pub(crate) rank: &'a mut u32,
    pub(crate) class: &'a mut u32,
    /// The node's own id: its class after an innovative insert.
    pub(crate) id: usize,
    pub(crate) tails: Option<&'a mut Tails>,
}

impl NodeBasis<'_> {
    /// Inserts a packed row, reducing its coefficient prefix **in place**
    /// in the caller's buffer (the payload tail is only canonicalised: it
    /// is copied as it is and its elimination deferred to the log). The one
    /// insert of the workspace, and so the one place the row length is
    /// asserted and the one place a row's bytes are made canonical
    /// ([`SlabField::canonicalize_slice`]; free for the fields whose
    /// symbols fill their bytes): a row off the wire may carry GF(2)
    /// high-bit garbage, and the GF(2) kernels never mask — every nonzero
    /// coefficient XORs whole bytes, and only `read_symbol` masks — so the
    /// garbage would pass through every copy and XOR; canonicalising here
    /// is the one place it is cleaned. A node at full rank answers
    /// [`Insertion::Redundant`] from its rank alone — its basis spans
    /// everything — and leaves the caller's bytes untouched. An innovative
    /// insert makes the node its own span class: the one place a rank, and
    /// so a class, changes.
    ///
    /// # Panics
    ///
    /// Panics if `row` is not exactly one full row.
    pub(crate) fn insert_packed<F: SlabField>(
        self,
        d: Dims,
        row: &mut [u8],
        sc: &mut Scratch,
    ) -> Insertion {
        let rb = d.row_bytes();
        assert_eq!(
            row.len(),
            rb,
            "packed row length mismatch: got {}, stored rows are {rb} bytes",
            row.len()
        );
        let rank = *self.rank as usize;
        if rank == d.pivot_width {
            return Insertion::Redundant;
        }
        F::canonicalize_slice(row);
        let (crow, pay_in) = row.split_at_mut(d.kb);
        let (map, rows) = self.head.split_at_mut(d.map_bytes());
        let (existing, slot) = rows[..(rank + 1) * d.kb].split_at_mut(rank * d.kb);
        let Some(pivot_col) = core_ops::reduce_coeff::<F>(
            &map[..rank * PIVOT_BYTES],
            existing,
            crow,
            &mut sc.factors,
        ) else {
            return Insertion::Redundant;
        };
        let pinv = core_ops::normalize_and_back_substitute::<F>(
            existing,
            rank,
            pivot_col,
            crow,
            &mut sc.back,
        );
        slot.copy_from_slice(crow);
        if d.pb > 0 {
            // Payload: raw memcpy now, elimination deferred to the log.
            let tails = self.tails.expect("rows with a payload come with tails");
            if tails.slab.capacity() < d.tail_bytes() {
                tails.reserve_full_rank(d);
            }
            let slab = &mut tails.slab;
            let sb = F::SYMBOL_BYTES;
            let event = &mut slab[core_ops::log_offset::<F>(rank)..][..(2 * rank + 1) * sb];
            event[..rank * sb].copy_from_slice(&sc.factors);
            pinv.write_symbol(&mut event[rank * sb..]);
            event[(rank + 1) * sb..].copy_from_slice(&sc.back);
            slab.extend_from_slice(pay_in);
        }
        let entry = u16::try_from(pivot_col).expect("construction bounds the pivot width");
        map[rank * PIVOT_BYTES..][..PIVOT_BYTES].copy_from_slice(&entry.to_le_bytes());
        *self.rank += 1;
        *self.class = u32::try_from(self.id).expect("construction bounds the node count");
        Insertion::Innovative
    }

    /// Borrowing variant of [`NodeBasis::insert_packed`]: the row is copied
    /// into the scratch's reusable buffer and reduced there, so the
    /// caller's bytes survive and a redundant insert costs zero heap
    /// allocations once the scratch has warmed up.
    pub(crate) fn insert_packed_slice<F: SlabField>(
        self,
        d: Dims,
        row: &[u8],
        sc: &mut Scratch,
    ) -> Insertion {
        let mut buf = std::mem::take(&mut sc.insert);
        buf.clear();
        buf.extend_from_slice(row);
        let outcome = self.insert_packed::<F>(d, &mut buf, sc);
        sc.insert = buf;
        outcome
    }
}

/// One node's rows with the payload tails unlocked — the read side of the
/// store (settle, row copy, recode gather, solution), written once for
/// both ways of reaching the tails: a `RefMut` taken through `&self` (one
/// borrow-flag check, which panics if a [`Rows`] of the node is still
/// alive: the serial arena) and a plain `&mut` (none: the shards). `tails` is `None` where rows carry no payload. Every
/// method settles pending payload elimination first.
pub(crate) struct Rows<'a, T> {
    pub(crate) head: Head<'a>,
    pub(crate) tails: Option<T>,
}

impl<T: DerefMut<Target = Tails>> Rows<'_, T> {
    /// Replays every pending elimination event onto the payload rows,
    /// row-wise or as one blocked panel application (see
    /// [`core_ops::use_blocked`]), and returns them settled. After this,
    /// payload rows are exactly what eager elimination would have produced
    /// — both schedules are bit-identical. Idempotent; trivial when nothing
    /// is pending or rows carry no payload.
    pub(crate) fn settle<F: SlabField>(&mut self, d: Dims, sc: &mut Scratch) -> &[u8] {
        let Some(tails) = self.tails.as_deref_mut().filter(|_| d.pb > 0) else {
            return &[];
        };
        let Tails {
            slab,
            pay_at,
            flushed,
        } = tails;
        let (log, pay) = slab.split_at_mut(*pay_at);
        core_ops::flush_pending::<F>(
            pay,
            log,
            flushed,
            self.head.rank(),
            d.pb,
            &mut sc.transform,
            &mut sc.panel,
        );
        pay
    }

    /// Materializes full row `i` (coefficients + reduced payload) into
    /// `out`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rank`.
    pub(crate) fn copy_packed_row_into<F: SlabField>(
        &mut self,
        d: Dims,
        i: usize,
        sc: &mut Scratch,
        out: &mut Vec<u8>,
    ) {
        assert!(i < self.head.rank(), "row index out of bounds");
        out.clear();
        out.extend_from_slice(&self.head.coeff[i * d.kb..(i + 1) * d.kb]);
        out.extend_from_slice(&self.settle::<F>(d, sc)[i * d.pb..(i + 1) * d.pb]);
    }

    /// Accumulates `Σᵢ factors[i] · row_i` of the stored rows into `out`
    /// (`out += …`): two fused gathers, one over the coefficient slab and
    /// one over the settled payload rows. Zero factors are skipped.
    ///
    /// # Panics
    ///
    /// Panics if `factors` is not exactly `rank` packed symbols or `out` is
    /// not exactly one full row.
    pub(crate) fn accumulate_rows_into<F: SlabField>(
        &mut self,
        d: Dims,
        factors: &[u8],
        sc: &mut Scratch,
        out: &mut [u8],
    ) {
        assert_eq!(
            factors.len(),
            self.head.rank() * F::SYMBOL_BYTES,
            "one packed factor per stored row"
        );
        assert_eq!(out.len(), d.row_bytes(), "out must be one full row");
        let (oc, op) = out.split_at_mut(d.kb);
        F::mul_add_multi(factors, self.head.coeff, oc);
        F::mul_add_multi(factors, self.settle::<F>(d, sc), op);
    }

    /// Once full, the solution: row `i` of the result is the tail of the
    /// equation whose coefficient vector is the `i`-th unit vector. `None`
    /// while rank < pivot width.
    pub(crate) fn solution<F: SlabField>(
        &mut self,
        d: Dims,
        sc: &mut Scratch,
    ) -> Option<Vec<Vec<F>>> {
        let k = d.pivot_width;
        if self.head.rank() != k {
            return None;
        }
        // Invert the row-indexed pivot map: a full basis has every column.
        let mut row_of_col = vec![usize::MAX; k];
        for (ri, c) in core_ops::pivot_cols(self.head.pivots).enumerate() {
            row_of_col[c] = ri;
        }
        let coeff = self.head.coeff;
        let pay = self.settle::<F>(d, sc);
        let mut out = Vec::with_capacity(k);
        for (c, &ri) in row_of_col.iter().enumerate() {
            assert_ne!(ri, usize::MAX, "full basis has all pivots");
            debug_assert!(
                (0..k).all(|j| {
                    let v: F = core_ops::col::<F>(&coeff[ri * d.kb..], j);
                    if j == c {
                        v == F::ONE
                    } else {
                        v.is_zero()
                    }
                }),
                "fully reduced basis rows must be unit vectors"
            );
            out.push(F::unpack(&pay[ri * d.pb..(ri + 1) * d.pb]));
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ag_gf::{Gf2, Gf256, F13};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// One node that owns its parts, so the tests below can reach its slab.
    #[derive(Clone)]
    struct Owned {
        head: Vec<u8>,
        rank: u32,
        class: u32,
        tails: Tails,
    }

    impl Owned {
        fn new(d: Dims) -> Self {
            Owned {
                head: vec![0; d.head_bytes()],
                rank: 0,
                class: 0,
                tails: Tails::default(),
            }
        }

        fn rank(&self) -> usize {
            self.rank as usize
        }

        fn node(&mut self) -> NodeBasis<'_> {
            NodeBasis {
                head: &mut self.head,
                rank: &mut self.rank,
                class: &mut self.class,
                id: 0,
                tails: Some(&mut self.tails),
            }
        }

        fn stored(&self, d: Dims) -> Head<'_> {
            Head::new(d, &self.head, self.rank())
        }

        fn rows(&mut self, d: Dims) -> Rows<'_, &mut Tails> {
            Rows {
                head: Head::new(d, &self.head, self.rank as usize),
                tails: Some(&mut self.tails),
            }
        }

        /// The elimination log and the payload rows stored so far.
        fn log_and_pay(&self) -> (&[u8], &[u8]) {
            self.tails.slab.split_at(self.tails.pay_at)
        }
    }

    /// A uniformly random packed row.
    fn random_row<F: SlabField>(d: Dims, rng: &mut StdRng) -> Vec<u8> {
        let row: Vec<F> = (0..d.row_bytes() / F::SYMBOL_BYTES)
            .map(|_| F::random(rng))
            .collect();
        F::pack(&row)
    }

    /// A fresh node fed uniformly random rows until it holds `rank` of them.
    fn random_node<F: SlabField>(d: Dims, rank: usize, rng: &mut StdRng) -> Owned {
        let mut b = Owned::new(d);
        let mut sc = Scratch::default();
        while b.rank() < rank {
            b.node()
                .insert_packed::<F>(d, &mut random_row::<F>(d, rng), &mut sc);
        }
        b
    }

    /// The blocked (transform-panel GEMM) replay schedule against the
    /// row-wise event replay, byte for byte, from every flush frontier —
    /// including the mid-suffix entry where rows `< flushed` are already
    /// materialized and enter the transform as unit rows. Calls
    /// `replay_blocked` directly, so shapes far below the rule's thresholds
    /// are covered on every field.
    fn blocked_matches_rowwise_from_every_frontier<F: SlabField>() {
        let mut rng = StdRng::seed_from_u64(23);
        // Shapes straddle the rule's thresholds and the kernel tile sizes:
        // tiny panels, odd payload widths, and a >16-deep pending suffix.
        for (k, r) in [(3usize, 5usize), (8, 64), (17, 37), (24, 200)] {
            let d = Dims::new::<F>(k, k + r);
            let b = random_node::<F>(d, k, &mut rng);
            let (rank, pb) = (b.rank(), d.pb);
            assert_eq!(b.tails.flushed, 0, "inserts must not flush");
            let (log, pay) = b.log_and_pay();
            for frontier in 0..=rank {
                // Materialize rows < frontier row-wise on both copies,
                // then settle the rest through each schedule.
                let mut rowwise = pay.to_vec();
                for e in 0..frontier {
                    core_ops::replay_event::<F>(&mut rowwise[..rank * pb], log, e, pb);
                }
                let mut blocked = rowwise.clone();
                for e in frontier..rank {
                    core_ops::replay_event::<F>(&mut rowwise[..rank * pb], log, e, pb);
                }
                let (mut transform, mut panel) = (Vec::new(), Vec::new());
                core_ops::replay_blocked::<F>(
                    &mut blocked[..rank * pb],
                    log,
                    frontier,
                    rank,
                    pb,
                    &mut transform,
                    &mut panel,
                );
                assert_eq!(
                    rowwise, blocked,
                    "schedules diverged at k={k} r={r} frontier={frontier}"
                );
            }
        }
    }

    #[test]
    fn blocked_replay_matches_rowwise_from_every_frontier() {
        blocked_matches_rowwise_from_every_frontier::<Gf256>();
        blocked_matches_rowwise_from_every_frontier::<F13>();
        blocked_matches_rowwise_from_every_frontier::<Gf2>();
    }

    /// A node at full rank answers from its rank: any well-formed row is
    /// redundant and comes back byte for byte (nothing was reduced in it),
    /// no probe can help, and a malformed row is still refused.
    fn full_node_answers_from_its_rank<F: SlabField>() {
        let mut rng = StdRng::seed_from_u64(41);
        let (k, r) = (6usize, 3usize);
        let d = Dims::new::<F>(k, k + r);
        let mut b = random_node::<F>(d, k, &mut rng);
        let mut sc = Scratch::default();
        let before = b.clone();
        for _ in 0..8 {
            let sent = random_row::<F>(d, &mut rng);
            let mut buf = sent.clone();
            assert_eq!(
                b.node().insert_packed::<F>(d, &mut buf, &mut sc),
                Insertion::Redundant
            );
            assert_eq!(buf, sent, "a full node must not touch the caller's row");
            let head = b.stored(d);
            assert!(!head.probe::<F>(d, &mut sc, |p| p.extend_from_slice(&sent[..d.kb])));
        }
        assert!(!b.stored(d).probe::<F>(d, &mut sc, |_| unreachable!(
            "a full node must not build the probe row"
        )));
        assert_eq!(b.rank(), k);
        assert_eq!(b.stored(d), before.stored(d));
        assert_eq!(b.tails.slab, before.tails.slab);
        let refused = std::panic::catch_unwind(move || {
            b.node()
                .insert_packed::<F>(d, &mut vec![0u8; d.row_bytes() + 1], &mut sc)
        });
        assert!(refused.is_err(), "a malformed row must still be refused");
    }

    #[test]
    fn full_node_says_redundant_without_reducing() {
        full_node_answers_from_its_rank::<Gf2>();
        full_node_answers_from_its_rank::<F13>();
        full_node_answers_from_its_rank::<Gf256>();
    }

    /// The storage rule. Rank-only rows are written into the head and
    /// nothing else exists: no tails are handed in and none are missed.
    /// With a payload the first stored row makes the node's one allocation,
    /// at the full-rank footprint, and from then on up to full rank
    /// (redundant inserts and settles in between) its base address and
    /// capacity stay, so no stored row ever moves.
    fn rows_never_move_after_the_first<F: SlabField>(k: usize, r: usize) {
        let mut rng = StdRng::seed_from_u64(59);
        let d = Dims::new::<F>(k, k + r);
        let mut b = Owned::new(d);
        let mut sc = Scratch::default();
        let mut pinned = None;
        while b.rank() < k {
            let packed = random_row::<F>(d, &mut rng);
            let mut node = b.node();
            if r == 0 {
                node.tails = None;
            }
            if node
                .insert_packed_slice::<F>(d, &packed, &mut sc)
                .is_innovative()
            {
                // The same row again is redundant; then read the payloads.
                b.node().insert_packed_slice::<F>(d, &packed, &mut sc);
                b.rows(d).settle::<F>(d, &mut sc);
            }
            let slab = &b.tails.slab;
            if b.rank() == 0 || r == 0 {
                assert_eq!(slab.capacity(), 0, "nothing to allocate for");
                continue;
            }
            assert_eq!(slab.capacity(), d.tail_bytes());
            assert_eq!(slab.len(), b.tails.pay_at + b.rank() * d.pb);
            assert_eq!(slab[b.tails.pay_at..].as_ptr().addr() % PAY_ALIGN, 0);
            let now = slab.as_ptr() as usize;
            assert_eq!(*pinned.get_or_insert(now), now, "the slab moved");
        }
        assert_eq!(b.head.len(), d.head_bytes(), "the head is what it was");
    }

    #[test]
    fn slabs_are_allocated_once_and_rows_never_move() {
        for (k, r) in [(1, 0), (5, 0), (5, 3), (33, 70)] {
            rows_never_move_after_the_first::<Gf2>(k, r);
            rows_never_move_after_the_first::<F13>(k, r);
            rows_never_move_after_the_first::<Gf256>(k, r);
        }
    }

    /// A clone carries the rows and not the reservation; the next row it
    /// stores makes it again, whole, instead of growing row by row.
    #[test]
    fn clone_reserves_again_at_its_next_stored_row() {
        let mut rng = StdRng::seed_from_u64(61);
        let (k, r) = (8, 5);
        let d = Dims::new::<Gf256>(k, k + r);
        let original = random_node::<Gf256>(d, k / 2, &mut rng);
        assert_eq!(original.tails.heap_bytes(), d.tail_bytes());
        let mut clone = original.clone();
        assert!(clone.tails.heap_bytes() < d.tail_bytes());
        let mut sc = Scratch::default();
        while clone.rank() == k / 2 {
            let mut row = random_row::<Gf256>(d, &mut rng);
            clone.node().insert_packed::<Gf256>(d, &mut row, &mut sc);
        }
        assert_eq!(clone.tails.heap_bytes(), d.tail_bytes());
        assert_eq!(clone.log_and_pay().1.len(), (k / 2 + 1) * d.pb);
    }

    /// What `use_blocked` says for the flushes of the `ag-rlnc`
    /// `differential_blocked_replay` stream at generation size `k` and
    /// payload width `pb`: bursts of 16 innovative rows, each followed by a
    /// flush, on one node; and one flush of a whole never-settled log.
    fn lane_picks<F: SlabField>(k: usize, pb: usize) -> Vec<bool> {
        const BURST: usize = 16;
        let d = Dims::new::<F>(k, k + pb / F::SYMBOL_BYTES);
        let b = random_node::<F>(d, k, &mut StdRng::seed_from_u64(0xB10C));
        let log = b.log_and_pay().0;
        let mut picks: Vec<bool> = (BURST..=k)
            .step_by(BURST)
            .map(|rank| core_ops::use_blocked::<F>(rank, rank - BURST, d.pb, log))
            .collect();
        picks.push(core_ops::use_blocked::<F>(k, 0, d.pb, log));
        picks
    }

    /// The traffic fact the GF(2⁸) panel kernel's tile plan leans on
    /// (`ag_gf::simd`, `Panel`): the one caller of `mul_add_block` outside
    /// tests always passes `padded_stride`, and for the one-byte-symbol
    /// fields that is a whole, odd number of 64-byte lines covering the
    /// payload. So a panel row is whole zmm (and ymm) vectors, the kernel's
    /// one-vector column pass runs exactly once per call, and its ragged
    /// columns are reached by tests only.
    #[test]
    fn padded_stride_is_an_odd_number_of_whole_cache_lines() {
        fn check<F: SlabField>() {
            for pay_bytes in 1..=4096 {
                let ps = core_ops::padded_stride::<F>(pay_bytes);
                assert!(
                    ps >= pay_bytes && ps.is_multiple_of(64) && (ps / 64) % 2 == 1,
                    "padded_stride({pay_bytes}) = {ps}"
                );
            }
        }
        check::<Gf256>();
        check::<Gf2>();
    }

    /// The schedule choice: deterministic in the basis state, row-wise for
    /// shallow/narrow/sparse pending suffixes, blocked for deep dense ones.
    /// (Both schedules are bit-identical — this pins the rule itself, at its
    /// thresholds and at exactly the shapes the `ag-rlnc` integration lanes
    /// `differential_blocked_replay` run, which cannot observe it.)
    #[test]
    fn rule_picks_blocked_only_for_deep_dense_suffixes() {
        let deep = core_ops::BLOCKED_MIN_PENDING;
        let wide = core_ops::BLOCKED_MIN_PAY_BYTES;
        let dense_log = vec![0xABu8; core_ops::log_offset::<Gf256>(2 * deep)];
        let sparse_log = vec![0u8; core_ops::log_offset::<Gf256>(2 * deep)];
        let pick =
            |rank, flushed, pb, log: &[u8]| core_ops::use_blocked::<Gf256>(rank, flushed, pb, log);
        // Deep + wide + dense → blocked.
        assert!(pick(2 * deep, 0, wide, &dense_log));
        // Too shallow a suffix, too narrow a row, or a mostly-flushed
        // basis (pending < rank/2) stays row-wise…
        assert!(!pick(2 * deep, deep + 1, wide, &dense_log));
        assert!(!pick(deep - 1, 0, wide, &dense_log));
        assert!(!pick(2 * deep, 0, wide - 1, &dense_log));
        // …and so does a sparse log (a source node's identity inserts):
        // row-wise replay skips zero multipliers in O(rank).
        assert!(!pick(2 * deep, 0, wide, &sparse_log));

        // The integration lanes: k in 32..48, payloads of 64..96 bytes. The
        // flushes after the bursts ending at rank 16 and 32 and the
        // whole-log flush go blocked (the last, shorter burst up to k does
        // not); under 64 payload bytes nothing does.
        for (k, pb) in [(32usize, 64usize), (32, 95), (47, 64), (47, 95)] {
            assert_eq!(lane_picks::<Gf256>(k, pb), [true, true, true], "{k} {pb}");
            assert_eq!(lane_picks::<Gf2>(k, pb), [true, true, true], "{k} {pb}");
            // A GF(p) log is one residue per 8-byte symbol, mostly zero
            // bytes, so the density test keeps it row-wise: the blocked
            // lanes are the one-byte-symbol fields.
            assert_eq!(lane_picks::<F13>(k, pb), [false, false, false], "{k} {pb}");
        }
        for (k, pb) in [(32usize, 1usize), (47, 63)] {
            assert_eq!(lane_picks::<Gf256>(k, pb), [false, false, false]);
        }
    }
}
