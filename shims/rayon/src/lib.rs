//! Offline stand-in for the parts of `rayon` this workspace uses.
//!
//! The build environment has no crates.io access, so this crate provides
//! the data-parallel subset its callers (the trial runner and the engine's
//! round fan-out) need and nothing else: `Vec::into_par_iter()` with
//! `map(...).collect()` into a `Vec` or a `Result<Vec, E>`,
//! [`current_num_threads`] and a local [`ThreadPool`]. It executes on scoped
//! OS threads with a shared dynamic work queue (so uneven per-item costs
//! balance, like rayon's work stealing). Results always come back in
//! input order, which is what makes the parallel trial runner
//! bit-identical to serial execution.
//!
//! `RAYON_NUM_THREADS` is honored on every call (rayon itself reads it
//! once at pool construction); `RAYON_NUM_THREADS=1` degrades to a plain
//! serial loop on the calling thread. A local [`ThreadPool`] overrides
//! the environment for the code it [`ThreadPool::install`]s, as in rayon.

#![forbid(unsafe_code)]

use std::cell::Cell;

pub mod iter;

pub mod prelude {
    //! One-stop imports, mirroring `rayon::prelude::*`.
    pub use crate::iter::{FromParallelIterator, IntoParallelIterator, ParallelIterator};
}

thread_local! {
    /// Thread count of the pool this thread runs in: set for the duration
    /// of [`ThreadPool::install`] and in every worker a parallel call
    /// spawns; `None` outside any pool (the environment decides).
    static POOL_THREADS: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Runs `op` with this thread counted as part of a `threads`-wide pool.
pub(crate) fn in_pool<R>(threads: usize, op: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            POOL_THREADS.with(|p| p.set(self.0));
        }
    }
    let _restore = Restore(POOL_THREADS.with(|p| p.replace(Some(threads))));
    op()
}

/// Number of worker threads a parallel call will use: the enclosing
/// pool's, when the caller runs inside [`ThreadPool::install`] or on a
/// worker of a parallel call (no environment read, no allocation);
/// otherwise `RAYON_NUM_THREADS`, otherwise the machine's parallelism.
#[must_use]
pub fn current_num_threads() -> usize {
    POOL_THREADS
        .with(Cell::get)
        .unwrap_or_else(default_num_threads)
}

#[allow(
    clippy::disallowed_methods,
    reason = "upstream rayon's API: the pool size comes from RAYON_NUM_THREADS"
)]
fn default_num_threads() -> usize {
    std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
}

/// Builds a local [`ThreadPool`], mirroring `rayon::ThreadPoolBuilder`.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

/// Error of [`ThreadPoolBuilder::build`]. The shim's pools hold no OS
/// resources, so it is never returned; the type keeps call sites
/// source-compatible with rayon.
#[derive(Debug)]
pub struct ThreadPoolBuildError(());

impl ThreadPoolBuilder {
    /// A builder with the default thread count (see
    /// [`current_num_threads`]).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the pool's thread count; 0 keeps the default.
    #[must_use]
    pub fn num_threads(mut self, num_threads: usize) -> Self {
        self.num_threads = num_threads;
        self
    }

    /// Builds the pool.
    ///
    /// # Errors
    ///
    /// Never, in this shim.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let threads = match self.num_threads {
            0 => default_num_threads(),
            n => n,
        };
        Ok(ThreadPool { threads })
    }
}

/// A local pool: parallel calls made inside [`ThreadPool::install`] use
/// its thread count instead of the environment's.
#[derive(Debug)]
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    /// Runs `op` inside the pool. The shim runs it on the calling thread
    /// (rayon moves it to a worker, hence the `Send` bounds, kept so call
    /// sites stay portable); what it shares with rayon is that
    /// [`current_num_threads`] and every parallel call inside `op` see
    /// this pool's thread count.
    pub fn install<OP, R>(&self, op: OP) -> R
    where
        OP: FnOnce() -> R + Send,
        R: Send,
    {
        in_pool(self.threads, op)
    }
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn map_collect_preserves_order() {
        let input: Vec<u64> = (0..1000).collect();
        let out: Vec<u64> = input.into_par_iter().map(|x| x * 3).collect();
        assert_eq!(out, (0..1000).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn collect_into_result_short_circuits_value() {
        let input: Vec<u32> = (0..10).collect();
        let ok: Result<Vec<u32>, String> = input.clone().into_par_iter().map(Ok).collect();
        assert_eq!(ok.unwrap().len(), 10);
        let err: Result<Vec<u32>, String> = input
            .into_par_iter()
            .map(|i| {
                if i == 5 {
                    Err("boom".to_string())
                } else {
                    Ok(i)
                }
            })
            .collect();
        assert_eq!(err.unwrap_err(), "boom");
    }

    /// The sharded-engine determinism contract: results are a pure
    /// function of the input, never of the worker count. Forcing every
    /// plausible thread count (including more threads than items and the
    /// degenerate 0/1) over an uneven workload must give byte-identical
    /// output — if any partitioning or chunk sizing ever consulted the
    /// thread count, this is the test that breaks.
    #[test]
    fn thread_count_cannot_change_results() {
        let items: Vec<u64> = (0..257).rev().collect();
        let op = |x: u64| {
            // Uneven per-item cost so workers genuinely interleave.
            let mut acc = x;
            for i in 0..(x % 17) * 500 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            acc
        };
        let want = crate::iter::par_apply_with_threads(items.clone(), &op, 1);
        for threads in [0, 2, 3, 4, 8, 64, 1024] {
            let got = crate::iter::par_apply_with_threads(items.clone(), &op, threads);
            assert_eq!(got, want, "threads = {threads}");
        }
    }

    #[test]
    fn install_overrides_thread_count_and_restores_it() {
        let outside = crate::current_num_threads();
        let pool = |n| {
            crate::ThreadPoolBuilder::new()
                .num_threads(n)
                .build()
                .unwrap()
        };
        pool(3).install(|| {
            assert_eq!(crate::current_num_threads(), 3);
            pool(1).install(|| assert_eq!(crate::current_num_threads(), 1));
            assert_eq!(crate::current_num_threads(), 3);
        });
        assert_eq!(crate::current_num_threads(), outside);
    }

    #[test]
    fn workers_inherit_the_pool_thread_count() {
        // Nested parallel calls (a sharded round inside a trial worker)
        // must see the pool they run in, not the environment.
        let pool = crate::ThreadPoolBuilder::new()
            .num_threads(3)
            .build()
            .unwrap();
        let seen: Vec<usize> = pool.install(|| {
            vec![(); 8]
                .into_par_iter()
                .map(|()| crate::current_num_threads())
                .collect()
        });
        assert_eq!(seen, vec![3; 8]);
    }

    #[test]
    fn uneven_work_still_ordered() {
        let input: Vec<usize> = (0..64).collect();
        let out: Vec<usize> = input
            .clone()
            .into_par_iter()
            .map(|i| {
                // Uneven per-item cost exercises the dynamic queue.
                let mut acc = 0usize;
                for j in 0..(i * 1000) {
                    acc = acc.wrapping_add(j);
                }
                std::hint::black_box(acc);
                i
            })
            .collect();
        assert_eq!(out, input);
    }
}
