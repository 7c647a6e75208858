//! The parallel-iterator traits and their thread-pool driver.

use std::sync::Mutex;

/// A finite, order-preserving parallel iterator.
pub trait ParallelIterator: Sized {
    /// Item type.
    type Item: Send;

    /// Runs the pipeline and returns all items in input order.
    fn drive(self) -> Vec<Self::Item>;

    /// Applies `op` to every item, in parallel.
    fn map<R, F>(self, op: F) -> Map<Self, F>
    where
        R: Send,
        F: Fn(Self::Item) -> R + Sync + Send,
    {
        Map { base: self, op }
    }

    /// Applies `op` to every item, in parallel, for its effect alone.
    fn for_each<F>(self, op: F)
    where
        F: Fn(Self::Item) + Sync + Send,
    {
        self.map(op).drive();
    }

    /// Executes the pipeline and collects the results.
    fn collect<C>(self) -> C
    where
        C: FromParallelIterator<Self::Item>,
    {
        C::from_ordered_vec(self.drive())
    }
}

/// Collection types a parallel iterator can gather into.
pub trait FromParallelIterator<T> {
    /// Builds the collection from items already in input order.
    fn from_ordered_vec(items: Vec<T>) -> Self;
}

impl<T> FromParallelIterator<T> for Vec<T> {
    fn from_ordered_vec(items: Vec<T>) -> Self {
        items
    }
}

impl<T, E> FromParallelIterator<Result<T, E>> for Result<Vec<T>, E> {
    fn from_ordered_vec(items: Vec<Result<T, E>>) -> Self {
        items.into_iter().collect()
    }
}

/// Base parallel iterator over an eagerly materialized item list.
#[derive(Debug)]
pub struct IterPar<T> {
    items: Vec<T>,
}

impl<T: Send> ParallelIterator for IterPar<T> {
    type Item = T;

    fn drive(self) -> Vec<T> {
        self.items
    }
}

/// Parallel iterator returned by [`ParallelIterator::map`].
#[derive(Debug)]
pub struct Map<B, F> {
    base: B,
    op: F,
}

impl<B, R, F> ParallelIterator for Map<B, F>
where
    B: ParallelIterator,
    R: Send,
    F: Fn(B::Item) -> R + Sync + Send,
{
    type Item = R;

    fn drive(self) -> Vec<R> {
        par_apply(self.base.drive(), &self.op)
    }
}

/// Owned conversion into a parallel iterator.
pub trait IntoParallelIterator {
    /// Item type.
    type Item: Send;
    /// Iterator type.
    type Iter: ParallelIterator<Item = Self::Item>;

    /// Converts `self`.
    fn into_par_iter(self) -> Self::Iter;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    type Iter = IterPar<T>;

    fn into_par_iter(self) -> IterPar<T> {
        IterPar { items: self }
    }
}

/// Applies `op` across worker threads via a shared dynamic queue,
/// returning results in input order.
fn par_apply<T, R, F>(items: Vec<T>, op: &F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    par_apply_with_threads(items, op, crate::current_num_threads())
}

/// `par_apply` with an explicit worker count — the auditable core of the
/// shim's determinism contract.
///
/// The thread count influences **scheduling only**: items are pulled from
/// one shared queue (so which worker computes which item, and in what
/// order, is nondeterministic), but each result lands in the slot of its
/// *input index* and the output is read back in input order. No chunking,
/// partitioning or sizing decision anywhere in the shim depends on
/// `threads` — sharded-engine merges built on this are pure functions of
/// their input, never of `RAYON_NUM_THREADS`. Pinned by the
/// `thread_count_cannot_change_results` test.
pub(crate) fn par_apply_with_threads<T, R, F>(items: Vec<T>, op: &F, threads: usize) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let workers = threads.min(items.len());
    if workers <= 1 {
        return items.into_iter().map(op).collect();
    }
    let len = items.len();
    let queue = Mutex::new(items.into_iter().enumerate());
    let slots: Vec<Mutex<Option<R>>> = (0..len).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                // Workers count as part of a `threads`-wide pool, so a
                // nested parallel call sees the thread count this one got.
                crate::in_pool(threads, || loop {
                    let next = queue.lock().expect("queue poisoned").next();
                    match next {
                        Some((index, item)) => {
                            *slots[index].lock().expect("slot poisoned") = Some(op(item));
                        }
                        None => break,
                    }
                });
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot poisoned")
                .expect("every slot filled")
        })
        .collect()
}
