//! A recycling pool of packed-row message buffers.
//!
//! The simulation engine moves coded messages as packed byte rows
//! (`Vec<u8>`). Allocating a fresh `Vec` per message is the single
//! remaining steady-state allocation once decoders live in a
//! [`ag_linalg::BasisArena`] — at `n = 10⁵` nodes that is hundreds of
//! thousands of malloc/free pairs per round. [`RowPool`] removes it: a
//! protocol [`take`](RowPool::take)s a buffer in `compose`, the engine
//! carries it in its slot table as a plain `Vec<u8>`, and the protocol
//! [`put`](RowPool::put)s it back wherever the message ends its life —
//! in `deliver` after the row is consumed, or in the `Protocol::discard`
//! hook the engines invoke for messages they drop without delivering
//! (same-sender dedup, loss injection). Pre-warmed to the per-round
//! in-flight ceiling ([`RowPool::preallocated`]), the round loop performs
//! **zero** per-message heap allocation from the first round, which
//! `crates/core/tests/alloc_audit.rs` asserts with a counting global
//! allocator.
//!
//! Messages stay plain `Vec<u8>`s on purpose: an earlier design wrapped
//! them in a self-returning smart pointer (drop = return to pool), but
//! threading a `Drop`-glued, refcount-carrying type through the engine's
//! message queue made the rank-only round loop ~4× slower — the buffer is `k`
//! bytes there, so per-message bookkeeping *is* the workload. The
//! explicit take/put discipline keeps the engine's message plumbing
//! untouched and costs a few nanoseconds per cycle.
//!
//! The free list is a `RefCell`, because `compose` takes a buffer through
//! `&self`: a pool (and any protocol holding one) is `!Sync`. The engine
//! composes on worker threads only through a protocol's shards, which are
//! handed buffers drawn on the main thread.
//!
//! # Examples
//!
//! ```
//! use ag_rlnc::RowPool;
//!
//! let pool = RowPool::preallocated(2, 64);
//! let mut row = pool.take();
//! row.extend_from_slice(&[1, 2, 3]);
//! pool.put(row); // buffer (and its capacity) returns to the pool
//! assert_eq!(pool.idle(), 2);
//! assert!(pool.take().is_empty()); // cleared, but capacity recycled
//! ```

use std::cell::RefCell;

/// A pool of reusable byte buffers for packed-row messages (the take/put
/// discipline is described at the top of `pool.rs`).
///
/// A clone owns its own free list: as many idle buffers, of the same
/// capacities, so a cloned protocol is balanced on its own.
#[derive(Debug, Default)]
pub struct RowPool {
    free: RefCell<Vec<Vec<u8>>>,
}

impl Clone for RowPool {
    fn clone(&self) -> Self {
        let free = self.free.borrow();
        let free = free.iter().map(|buf| Vec::with_capacity(buf.capacity()));
        RowPool {
            free: RefCell::new(free.collect()),
        }
    }
}

impl RowPool {
    /// An empty pool.
    #[must_use]
    pub fn new() -> Self {
        RowPool::default()
    }

    /// A pool pre-warmed with `count` buffers of `capacity_bytes` each.
    ///
    /// A synchronous gossip round has a known in-flight ceiling (one
    /// message per contact direction per node), so a protocol that
    /// preallocates to it makes its round loop allocation-free from the
    /// *first* round — otherwise the pool would grow lazily for as long
    /// as per-round traffic keeps setting new high-water marks.
    #[must_use]
    pub fn preallocated(count: usize, capacity_bytes: usize) -> Self {
        let free = (0..count).map(|_| Vec::with_capacity(capacity_bytes));
        RowPool {
            free: RefCell::new(free.collect()),
        }
    }

    /// Takes a cleared buffer out of the pool, allocating a fresh (empty)
    /// one only when the pool is dry — start-up, or after the in-flight
    /// high-water mark outgrew the preallocation.
    #[must_use]
    pub fn take(&self) -> Vec<u8> {
        let mut buf = self.free.borrow_mut().pop().unwrap_or_default();
        buf.clear();
        buf
    }

    /// Returns a buffer to the pool. The contents are irrelevant (the next
    /// [`RowPool::take`] clears it); only the allocation is recycled.
    pub fn put(&self, buf: Vec<u8>) {
        self.free.borrow_mut().push(buf);
    }

    /// Buffers currently resting in the pool (diagnostics/tests).
    #[must_use]
    pub fn idle(&self) -> usize {
        self.free.borrow().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_cycle_through_the_pool() {
        let pool = RowPool::new();
        assert_eq!(pool.idle(), 0);
        let mut a = pool.take();
        a.resize(64, 7);
        let cap = a.capacity();
        pool.put(a);
        assert_eq!(pool.idle(), 1);
        let b = pool.take();
        assert!(b.is_empty(), "recycled buffers come back cleared");
        assert_eq!(b.capacity(), cap, "capacity must be recycled");
        assert_eq!(pool.idle(), 0);
    }

    #[test]
    fn steady_state_take_put_does_not_grow_the_pool() {
        let pool = RowPool::new();
        for _ in 0..100 {
            let mut r = pool.take();
            r.resize(32, 1);
            pool.put(r);
        }
        assert_eq!(pool.idle(), 1, "serial take/put reuses one buffer");
    }

    #[test]
    fn preallocated_pool_has_capacity_ready() {
        let pool = RowPool::preallocated(3, 16);
        assert_eq!(pool.idle(), 3);
        let a = pool.take();
        let b = pool.take();
        assert_eq!(pool.idle(), 1);
        assert!(a.capacity() >= 16 && b.capacity() >= 16);
        pool.put(a);
        pool.put(b);
        assert_eq!(pool.idle(), 3);
    }

    #[test]
    fn a_clone_owns_its_buffers() {
        let pool = RowPool::preallocated(3, 16);
        let in_flight = pool.take();
        let clone = pool.clone();
        assert_eq!(clone.idle(), 2, "as many buffers as rest in the original");
        let mine = clone.take();
        assert!(mine.capacity() >= 16, "of the same capacity");
        assert_eq!(pool.idle(), 2, "a take from the clone leaves the original");
        pool.put(in_flight);
        assert_eq!((pool.idle(), clone.idle()), (3, 1));
    }
}
