//! Offline stand-in for the `rayon` crate.
//!
//! The build environment has no registry access, so this workspace-local shim
//! provides the small API subset the toolchain uses: `slice.par_iter()` followed by
//! `enumerate` / `map` / `collect`. Work is genuinely parallel: items are split into
//! contiguous chunks, one per available core, and executed on `std::thread::scope`
//! threads. Results are returned in input order, matching rayon's indexed semantics.
//!
//! Every `collect` spawns its threads afresh (tens of microseconds), so only work
//! far coarser than that belongs here. Its one user is `a2a_mcf::decomposed`,
//! which solves its child LPs in parallel; loops of microsecond items, such as
//! widest-path extraction's per-commodity passes, stay serial.

use std::num::NonZeroUsize;

pub mod prelude {
    pub use crate::{IndexedParallelIterator, IntoParallelRefIterator};
}

/// Number of worker threads to use for a job of `len` items: one per
/// available core, never more than there are items.
fn thread_count(len: usize) -> usize {
    std::thread::available_parallelism()
        .map_or(1, NonZeroUsize::get)
        .min(len)
        .max(1)
}

/// An indexed parallel computation: a known length plus a per-index item function.
///
/// This is the shim's analogue of rayon's `IndexedParallelIterator`. All adapters
/// are lazy; the work happens in [`IndexedParallelIterator::collect`].
pub trait IndexedParallelIterator: Sized + Sync {
    /// Item produced for one index.
    type Item: Send;

    /// Total number of items.
    fn par_len(&self) -> usize;

    /// Computes the item at `index`.
    fn par_item(&self, index: usize) -> Self::Item;

    /// Pairs every item with its index, like `Iterator::enumerate`.
    fn enumerate(self) -> Enumerate<Self> {
        Enumerate { inner: self }
    }

    /// Maps every item through `f`.
    fn map<F, R>(self, f: F) -> Map<Self, F>
    where
        F: Fn(Self::Item) -> R + Sync,
        R: Send,
    {
        Map { inner: self, f }
    }

    /// Executes the computation across threads and collects the results in input
    /// order.
    fn collect<C: FromIterator<Self::Item>>(self) -> C {
        let len = self.par_len();
        let threads = thread_count(len);
        if threads <= 1 {
            return (0..len).map(|i| self.par_item(i)).collect();
        }
        let chunk = len.div_ceil(threads);
        let mut parts: Vec<Vec<Self::Item>> = Vec::with_capacity(threads);
        std::thread::scope(|scope| {
            let this = &self;
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let lo = t * chunk;
                    let hi = ((t + 1) * chunk).min(len);
                    scope.spawn(move || (lo..hi).map(|i| this.par_item(i)).collect::<Vec<_>>())
                })
                .collect();
            for h in handles {
                parts.push(h.join().expect("rayon-shim worker panicked"));
            }
        });
        parts.into_iter().flatten().collect()
    }
}

/// `&self` conversion into a parallel iterator, mirroring rayon's trait of the same
/// name (provides `.par_iter()` on slices and `Vec`s).
pub trait IntoParallelRefIterator<'a> {
    /// The borrowed element type.
    type Item: Send + 'a;
    /// The concrete iterator type.
    type Iter: IndexedParallelIterator<Item = Self::Item>;

    /// Borrowing parallel iterator over the collection.
    fn par_iter(&'a self) -> Self::Iter;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;
    type Iter = Iter<'a, T>;

    fn par_iter(&'a self) -> Iter<'a, T> {
        Iter { slice: self }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = &'a T;
    type Iter = Iter<'a, T>;

    fn par_iter(&'a self) -> Iter<'a, T> {
        Iter { slice: self }
    }
}

/// Base parallel iterator over a slice.
pub struct Iter<'a, T> {
    slice: &'a [T],
}

impl<'a, T: Sync> IndexedParallelIterator for Iter<'a, T> {
    type Item = &'a T;

    fn par_len(&self) -> usize {
        self.slice.len()
    }

    fn par_item(&self, index: usize) -> &'a T {
        &self.slice[index]
    }
}

/// Adapter produced by [`IndexedParallelIterator::enumerate`].
pub struct Enumerate<I> {
    inner: I,
}

impl<I: IndexedParallelIterator> IndexedParallelIterator for Enumerate<I> {
    type Item = (usize, I::Item);

    fn par_len(&self) -> usize {
        self.inner.par_len()
    }

    fn par_item(&self, index: usize) -> (usize, I::Item) {
        (index, self.inner.par_item(index))
    }
}

/// Adapter produced by [`IndexedParallelIterator::map`].
pub struct Map<I, F> {
    inner: I,
    f: F,
}

impl<I, F, R> IndexedParallelIterator for Map<I, F>
where
    I: IndexedParallelIterator,
    F: Fn(I::Item) -> R + Sync,
    R: Send,
{
    type Item = R;

    fn par_len(&self) -> usize {
        self.inner.par_len()
    }

    fn par_item(&self, index: usize) -> R {
        (self.f)(self.inner.par_item(index))
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_collect_preserves_order() {
        let xs: Vec<u64> = (0..1000).collect();
        let doubled: Vec<u64> = xs.par_iter().map(|&x| x * 2).collect();
        assert_eq!(doubled, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn enumerate_matches_indices() {
        let xs = vec!["a", "b", "c"];
        let tagged: Vec<(usize, String)> = xs
            .par_iter()
            .enumerate()
            .map(|(i, s)| (i, s.to_string()))
            .collect();
        assert_eq!(
            tagged,
            vec![(0, "a".into()), (1, "b".into()), (2, "c".into())]
        );
    }

    #[test]
    fn empty_input_collects_empty() {
        let xs: Vec<i32> = Vec::new();
        let out: Vec<i32> = xs.par_iter().map(|&x| x).collect();
        assert!(out.is_empty());
    }
}
