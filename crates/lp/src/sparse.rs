//! Sparse vectors and the sparse solve workspace.
//!
//! The simplex solver only needs a small set of kernels: building a matrix column by
//! column, iterating the nonzeros of a column, gathering a column into a dense
//! workspace, and computing sparse dot products. Everything is `f64`; indices are
//! `usize`. Entries with magnitude below [`DROP_TOL`] are dropped on construction.

/// Magnitude below which an entry is treated as an exact zero.
pub const DROP_TOL: f64 = 1e-13;

/// A sparse vector: parallel arrays of indices and values.
///
/// Indices are kept sorted and unique; construction sums duplicate entries.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SparseVec {
    indices: Vec<usize>,
    values: Vec<f64>,
}

impl SparseVec {
    /// An empty sparse vector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a sparse vector from (index, value) pairs. Duplicates are summed,
    /// near-zero results are dropped, and indices are sorted.
    pub fn from_entries(entries: impl IntoIterator<Item = (usize, f64)>) -> Self {
        let mut pairs: Vec<(usize, f64)> = entries.into_iter().collect();
        pairs.sort_by_key(|&(i, _)| i);
        let mut indices = Vec::with_capacity(pairs.len());
        let mut values = Vec::with_capacity(pairs.len());
        for (i, v) in pairs {
            if let Some(&last) = indices.last() {
                if last == i {
                    *values.last_mut().expect("values tracks indices") += v;
                    continue;
                }
            }
            indices.push(i);
            values.push(v);
        }
        // Drop entries that cancelled to ~zero.
        let mut out_i = Vec::with_capacity(indices.len());
        let mut out_v = Vec::with_capacity(values.len());
        for (i, v) in indices.into_iter().zip(values) {
            if v.abs() > DROP_TOL {
                out_i.push(i);
                out_v.push(v);
            }
        }
        Self {
            indices: out_i,
            values: out_v,
        }
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// True if no nonzeros are stored.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// Iterates `(index, value)` pairs in increasing index order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.indices
            .iter()
            .copied()
            .zip(self.values.iter().copied())
    }

    /// Returns the value at `index` (zero if not stored).
    pub fn get(&self, index: usize) -> f64 {
        match self.indices.binary_search(&index) {
            Ok(pos) => self.values[pos],
            Err(_) => 0.0,
        }
    }

    /// Dot product with a dense vector.
    pub fn dot_dense(&self, dense: &[f64]) -> f64 {
        self.iter().map(|(i, v)| v * dense[i]).sum()
    }

    /// Scatters `scale * self` into a dense accumulator.
    pub fn scatter_into(&self, dense: &mut [f64], scale: f64) {
        for (i, v) in self.iter() {
            dense[i] += scale * v;
        }
    }

    /// Converts to a dense vector of length `len`.
    #[cfg(test)]
    fn to_dense(&self, len: usize) -> Vec<f64> {
        let mut out = vec![0.0; len];
        for (i, v) in self.iter() {
            out[i] = v;
        }
        out
    }

    /// Largest stored index plus one (0 for an empty vector).
    pub fn min_len(&self) -> usize {
        self.indices.last().map_or(0, |&i| i + 1)
    }
}

/// A dense-value / explicit-pattern workspace vector for the sparse solve kernels.
///
/// The revised simplex spends most of its time in triangular solves. Their inputs
/// have a handful of nonzeros (a unit vector, a 2–4-entry column) and so do many
/// of their outputs — the median FTRAN result of a torus-4x4 decomposed solve
/// marks 19 of 304 rows — but not all: on the ~4.3k-row torus-8x8 decomposed
/// master `ρ = e_r B⁻¹` marks 34 % of the rows and the FTRANed entering column
/// 48 %. `SparseScratch` pairs a dense value array (O(1) random
/// access) with an explicit nonzero pattern and mark bits, so a solve can iterate
/// just the pattern when it is short, sweep the mark bits when it is not (see
/// [`crate::lu::Kernel`] for which), and [`SparseScratch::clear`] costs O(nnz)
/// rather than O(n).
///
/// The pattern is a *superset* of the true nonzeros: entries that cancel to exactly
/// zero stay marked, which is harmless (a little wasted work, never a wrong value).
/// Under the symbolic-reach kernel it is the whole structural reach, which on a
/// flow basis is about twice the numeric nonzeros (2,079 marked vs ~980 nonzero
/// on that master's entering column).
#[derive(Debug, Clone, Default)]
pub struct SparseScratch {
    values: Vec<f64>,
    pattern: Vec<usize>,
    marked: Vec<bool>,
}

impl SparseScratch {
    /// Creates an empty scratch of dimension `n`.
    pub fn new(n: usize) -> Self {
        Self {
            values: vec![0.0; n],
            pattern: Vec::with_capacity(64),
            marked: vec![false; n],
        }
    }

    /// Dimension of the workspace.
    pub fn dim(&self) -> usize {
        self.values.len()
    }

    /// Grows the workspace to dimension `n` (never shrinks, keeps contents).
    pub fn resize(&mut self, n: usize) {
        if n > self.values.len() {
            self.values.resize(n, 0.0);
            self.marked.resize(n, false);
        }
    }

    /// Number of pattern entries (an upper bound on the true nonzero count).
    pub fn nnz(&self) -> usize {
        self.pattern.len()
    }

    /// Resets all marked entries to zero. O(nnz), not O(n).
    pub fn clear(&mut self) {
        for &i in &self.pattern {
            self.values[i] = 0.0;
            self.marked[i] = false;
        }
        self.pattern.clear();
    }

    /// Value at `i` (zero when unmarked).
    #[inline]
    pub fn get(&self, i: usize) -> f64 {
        self.values[i]
    }

    /// True if `i` is in the pattern.
    #[inline]
    pub fn is_marked(&self, i: usize) -> bool {
        self.marked[i]
    }

    /// Adds `i` to the pattern without touching its value.
    #[inline]
    pub fn mark(&mut self, i: usize) {
        if !self.marked[i] {
            self.marked[i] = true;
            self.pattern.push(i);
        }
    }

    /// Sets the value at `i`, marking it.
    #[inline]
    pub fn set(&mut self, i: usize, v: f64) {
        self.mark(i);
        self.values[i] = v;
    }

    /// Accumulates `v` into the value at `i`, marking it.
    #[inline]
    pub fn add(&mut self, i: usize, v: f64) {
        self.mark(i);
        self.values[i] += v;
    }

    /// The current pattern (indices in insertion order, unsorted).
    #[inline]
    pub fn pattern(&self) -> &[usize] {
        &self.pattern
    }

    /// The dense value array (unmarked entries are exactly zero).
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The dense value array, writable without the mark test of [`Self::set`] /
    /// [`Self::add`]. Legal only for positions already in the pattern:
    /// [`Self::clear`] and [`Self::drain_into`] zero what the pattern lists, so
    /// a nonzero written to an unmarked position would survive them and
    /// corrupt every later use of the workspace. The reach kernel of
    /// [`crate::lu`] qualifies — its symbolic pass marks the whole structural
    /// reach before the numeric pass writes anything; the in-order sweep, which
    /// discovers its pattern as it goes, does not.
    #[inline]
    pub(crate) fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Iterates `(index, value)` over the pattern.
    pub fn iter(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.pattern.iter().map(move |&i| (i, self.values[i]))
    }

    /// Copies the marked entries into `out` (cleared first) and clears `self`.
    pub fn drain_into(&mut self, out: &mut Vec<(usize, f64)>) {
        out.clear();
        for &i in &self.pattern {
            out.push((i, self.values[i]));
            self.values[i] = 0.0;
            self.marked[i] = false;
        }
        self.pattern.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparse_vec_sums_duplicates_and_sorts() {
        let v = SparseVec::from_entries(vec![(3, 1.0), (1, 2.0), (3, 2.5)]);
        assert_eq!(v.nnz(), 2);
        assert_eq!(v.get(1), 2.0);
        assert_eq!(v.get(3), 3.5);
        assert_eq!(v.get(0), 0.0);
        let idx: Vec<usize> = v.iter().map(|(i, _)| i).collect();
        assert_eq!(idx, vec![1, 3]);
    }

    #[test]
    fn sparse_vec_drops_cancelled_entries() {
        let v = SparseVec::from_entries(vec![(2, 1.0), (2, -1.0), (5, 4.0)]);
        assert_eq!(v.nnz(), 1);
        assert_eq!(v.get(5), 4.0);
    }

    #[test]
    fn sparse_vec_from_dense_roundtrip() {
        let dense = vec![0.0, 1.5, 0.0, -2.0, 0.0];
        let v = SparseVec::from_entries(dense.iter().copied().enumerate());
        assert_eq!(v.nnz(), 2);
        assert_eq!(v.to_dense(5), dense);
        assert_eq!(v.min_len(), 4);
    }

    #[test]
    fn sparse_vec_dot_and_scatter() {
        let v = SparseVec::from_entries(vec![(0, 2.0), (3, -1.0)]);
        let dense = vec![1.0, 10.0, 10.0, 4.0];
        assert_eq!(v.dot_dense(&dense), 2.0 - 4.0);
        let mut acc = vec![0.0; 4];
        v.scatter_into(&mut acc, 3.0);
        assert_eq!(acc, vec![6.0, 0.0, 0.0, -3.0]);
    }
}
