//! Offline drop-in replacement for the subset of the `rayon` API this
//! workspace uses.
//!
//! The build environment has no access to crates.io, so this crate provides
//! `par_iter` / `into_par_iter` with `map` / `for_each` / `collect` over
//! slices, `Vec`s, and integer ranges, plus [`join`] — all executed on a
//! **persistent worker pool** ([`pool`]) spawned once per process, so
//! high-frequency callers pay a queue push instead of an OS thread spawn. Results are always merged **in input order**, so
//! parallel sweeps are deterministic: a seed-indexed map produces
//! byte-identical output to its sequential counterpart.
//!
//! This is not work-stealing rayon — chunks are static — but for the
//! embarrassingly-parallel, per-seed protocol sweeps in `bench` the static
//! split is within noise of optimal, and the near-zero-dependency
//! implementation keeps the workspace buildable offline. The only `unsafe`
//! in the shim is the scoped lifetime erasure inside [`pool`], with the
//! soundness argument documented there.

#![deny(unsafe_code)]

use std::ops::Range;

pub mod pool;

pub use pool::{join, ThreadPool};

/// Re-exports matching `rayon::prelude`.
pub mod prelude {
    pub use crate::{IntoParallelIterator, IntoParallelRefIterator, ParIter, ParMap};
}

/// Number of worker threads used for parallel execution (the persistent
/// pool's size: `RAYON_NUM_THREADS` if set, otherwise the available
/// parallelism).
#[must_use]
pub fn current_num_threads() -> usize {
    pool::global().thread_count()
}

/// An eager parallel iterator over an owned list of items.
#[derive(Debug)]
pub struct ParIter<T> {
    items: Vec<T>,
}

/// Conversion of an owned collection into a [`ParIter`].
pub trait IntoParallelIterator {
    /// The element type.
    type Item: Send;
    /// Converts `self` into a parallel iterator.
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

macro_rules! impl_range_par_iter {
    ($($t:ty),*) => {$(
        impl IntoParallelIterator for Range<$t> {
            type Item = $t;
            fn into_par_iter(self) -> ParIter<$t> {
                ParIter { items: self.collect() }
            }
        }
    )*};
}

impl_range_par_iter!(usize, u64, u32, i32, i64);

/// Conversion of a borrowed collection into a [`ParIter`] of references.
pub trait IntoParallelRefIterator<'data> {
    /// The element type (a reference).
    type Item: Send + 'data;
    /// Borrows `self` as a parallel iterator.
    fn par_iter(&'data self) -> ParIter<Self::Item>;
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for [T] {
    type Item = &'data T;
    fn par_iter(&'data self) -> ParIter<&'data T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for Vec<T> {
    type Item = &'data T;
    fn par_iter(&'data self) -> ParIter<&'data T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

impl<T: Send> ParIter<T> {
    /// Maps every item through `f` in parallel.
    pub fn map<R, F>(self, f: F) -> ParMap<T, F>
    where
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        ParMap {
            items: self.items,
            f,
        }
    }

    /// Runs `f` on every item in parallel.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(T) + Sync,
    {
        let _: Vec<()> = ParMap {
            items: self.items,
            f: |t| f(t),
        }
        .collect();
    }
}

/// A mapped parallel iterator; consumed by [`ParMap::collect`].
pub struct ParMap<T, F> {
    items: Vec<T>,
    f: F,
}

/// Collections constructible from ordered parallel results.
pub trait FromParallelIterator<R>: Sized {
    /// Builds the collection from results in input order.
    fn from_ordered_vec(v: Vec<R>) -> Self;
}

impl<R> FromParallelIterator<R> for Vec<R> {
    fn from_ordered_vec(v: Vec<R>) -> Self {
        v
    }
}

impl<T, R, F> ParMap<T, F>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    /// Executes the map on scoped threads and collects results in input
    /// order (deterministic regardless of thread scheduling).
    pub fn collect<C: FromParallelIterator<R>>(self) -> C {
        C::from_ordered_vec(self.run())
    }

    fn run(self) -> Vec<R> {
        let ParMap { mut items, f } = self;
        let n = items.len();
        let workers = current_num_threads().min(n.max(1));
        if workers <= 1 || n <= 1 {
            return items.into_iter().map(f).collect();
        }
        // Static split into `workers` contiguous chunks; each chunk maps into
        // its own result slot, so reassembling the slots in slot order
        // restores input order exactly regardless of execution order.
        let chunk_size = n.div_ceil(workers);
        let mut chunks: Vec<Vec<T>> = Vec::with_capacity(workers);
        while !items.is_empty() {
            let tail = items.split_off(items.len().saturating_sub(chunk_size));
            chunks.push(tail);
        }
        chunks.reverse(); // split_off peeled chunks from the back
        let f = &f;
        let mut slots: Vec<Vec<R>> = (0..chunks.len()).map(|_| Vec::new()).collect();
        {
            let mut tasks: Vec<_> = chunks
                .into_iter()
                .zip(slots.iter_mut())
                .map(|(mut chunk, slot)| move || *slot = chunk.drain(..).map(f).collect::<Vec<R>>())
                .collect();
            pool::global().scope_execute_batch(&mut tasks);
        }
        slots.into_iter().flatten().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_collect_preserves_order() {
        let squares: Vec<u64> = (0u64..1000).into_par_iter().map(|x| x * x).collect();
        let expected: Vec<u64> = (0u64..1000).map(|x| x * x).collect();
        assert_eq!(squares, expected);
    }

    #[test]
    fn par_iter_borrows() {
        let data: Vec<u32> = (0..100).collect();
        let doubled: Vec<u32> = data.par_iter().map(|&x| x * 2).collect();
        assert_eq!(doubled[99], 198);
        assert_eq!(doubled.len(), 100);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = Vec::<u32>::new().into_par_iter().map(|x| x).collect();
        assert!(empty.is_empty());
        let one: Vec<u32> = vec![7u32].into_par_iter().map(|x| x + 1).collect();
        assert_eq!(one, vec![8]);
    }

    #[test]
    fn for_each_runs_on_all_items() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let count = AtomicUsize::new(0);
        (0usize..257).into_par_iter().for_each(|_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 257);
    }
}
