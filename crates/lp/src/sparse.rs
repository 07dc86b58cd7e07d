//! Sparse vector and matrix containers.
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

    /// Builds a sparse vector from a dense slice, dropping near-zero entries.
    pub fn from_dense(dense: &[f64]) -> Self {
        Self::from_entries(
            dense
                .iter()
                .enumerate()
                .filter(|(_, v)| v.abs() > DROP_TOL)
                .map(|(i, &v)| (i, v)),
        )
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
    pub fn to_dense(&self, len: usize) -> Vec<f64> {
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

/// Compressed sparse column matrix.
///
/// The simplex method accesses the constraint matrix strictly by column (pricing uses a
/// transpose-free dual trick), so CSC is the only storage we need for the main solver.
#[derive(Debug, Clone, PartialEq)]
pub struct CscMatrix {
    nrows: usize,
    ncols: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CscMatrix {
    /// Creates an all-zero matrix with the given shape.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        Self {
            nrows,
            ncols,
            col_ptr: vec![0; ncols + 1],
            row_idx: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Builds a matrix from per-column sparse vectors.
    ///
    /// # Panics
    /// Panics if any column stores an index `>= nrows`.
    pub fn from_columns(nrows: usize, columns: &[SparseVec]) -> Self {
        let ncols = columns.len();
        let mut col_ptr = Vec::with_capacity(ncols + 1);
        col_ptr.push(0usize);
        let nnz: usize = columns.iter().map(SparseVec::nnz).sum();
        let mut row_idx = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        for col in columns {
            for (i, v) in col.iter() {
                assert!(i < nrows, "row index {i} out of bounds for {nrows} rows");
                row_idx.push(i);
                values.push(v);
            }
            col_ptr.push(row_idx.len());
        }
        Self {
            nrows,
            ncols,
            col_ptr,
            row_idx,
            values,
        }
    }

    /// Builds a matrix from (row, col, value) triplets; duplicates are summed.
    pub fn from_triplets(
        nrows: usize,
        ncols: usize,
        triplets: impl IntoIterator<Item = (usize, usize, f64)>,
    ) -> Self {
        let mut per_col: Vec<Vec<(usize, f64)>> = vec![Vec::new(); ncols];
        for (r, c, v) in triplets {
            assert!(r < nrows && c < ncols, "triplet ({r},{c}) out of bounds");
            per_col[c].push((r, v));
        }
        let columns: Vec<SparseVec> = per_col.into_iter().map(SparseVec::from_entries).collect();
        Self::from_columns(nrows, &columns)
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.row_idx.len()
    }

    /// Iterates the `(row, value)` nonzeros of column `col`.
    pub fn col_iter(&self, col: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let start = self.col_ptr[col];
        let end = self.col_ptr[col + 1];
        self.row_idx[start..end]
            .iter()
            .copied()
            .zip(self.values[start..end].iter().copied())
    }

    /// Number of nonzeros in column `col`.
    pub fn col_nnz(&self, col: usize) -> usize {
        self.col_ptr[col + 1] - self.col_ptr[col]
    }

    /// Extracts column `col` as a [`SparseVec`].
    pub fn col(&self, col: usize) -> SparseVec {
        SparseVec::from_entries(self.col_iter(col))
    }

    /// Computes `y = A * x` for a dense `x`.
    pub fn mul_dense(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.ncols, "dimension mismatch in mul_dense");
        let mut y = vec![0.0; self.nrows];
        for c in 0..self.ncols {
            let xc = x[c];
            if xc == 0.0 {
                continue;
            }
            for (r, v) in self.col_iter(c) {
                y[r] += v * xc;
            }
        }
        y
    }

    /// Computes `y = Aᵀ * x` for a dense `x`.
    pub fn mul_transpose_dense(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(
            x.len(),
            self.nrows,
            "dimension mismatch in mul_transpose_dense"
        );
        let mut y = vec![0.0; self.ncols];
        for c in 0..self.ncols {
            let mut acc = 0.0;
            for (r, v) in self.col_iter(c) {
                acc += v * x[r];
            }
            y[c] = acc;
        }
        y
    }

    /// Dot product of column `col` with a dense vector.
    pub fn col_dot_dense(&self, col: usize, x: &[f64]) -> f64 {
        self.col_iter(col).map(|(r, v)| v * x[r]).sum()
    }

    /// Converts to a dense row-major matrix (tests / small problems only).
    pub fn to_dense(&self) -> Vec<Vec<f64>> {
        let mut out = vec![vec![0.0; self.ncols]; self.nrows];
        for c in 0..self.ncols {
            for (r, v) in self.col_iter(c) {
                out[r][c] = v;
            }
        }
        out
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
        let v = SparseVec::from_dense(&dense);
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

    #[test]
    fn csc_from_triplets_matches_dense() {
        let m = CscMatrix::from_triplets(
            3,
            4,
            vec![
                (0, 0, 1.0),
                (2, 0, -1.0),
                (1, 2, 5.0),
                (1, 2, 1.0),
                (2, 3, 2.0),
            ],
        );
        assert_eq!(m.nrows(), 3);
        assert_eq!(m.ncols(), 4);
        assert_eq!(m.nnz(), 4);
        let dense = m.to_dense();
        assert_eq!(dense[0][0], 1.0);
        assert_eq!(dense[2][0], -1.0);
        assert_eq!(dense[1][2], 6.0);
        assert_eq!(dense[2][3], 2.0);
        assert_eq!(dense[0][1], 0.0);
    }

    #[test]
    fn csc_matvec_and_transpose_matvec() {
        // A = [[1, 0, 2],
        //      [0, 3, 0]]
        let m = CscMatrix::from_triplets(2, 3, vec![(0, 0, 1.0), (0, 2, 2.0), (1, 1, 3.0)]);
        assert_eq!(m.mul_dense(&[1.0, 1.0, 1.0]), vec![3.0, 3.0]);
        assert_eq!(m.mul_transpose_dense(&[1.0, 2.0]), vec![1.0, 6.0, 2.0]);
        assert_eq!(m.col_dot_dense(2, &[1.0, 2.0]), 2.0);
    }

    #[test]
    fn csc_zeros_has_no_entries() {
        let m = CscMatrix::zeros(4, 5);
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.mul_dense(&[1.0; 5]), vec![0.0; 4]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn csc_rejects_out_of_bounds_rows() {
        let col = SparseVec::from_entries(vec![(5, 1.0)]);
        let _ = CscMatrix::from_columns(3, &[col]);
    }

    #[test]
    fn col_extraction_matches_iteration() {
        let m = CscMatrix::from_triplets(4, 2, vec![(1, 0, 2.0), (3, 0, -1.0), (0, 1, 7.0)]);
        let c0 = m.col(0);
        assert_eq!(c0.get(1), 2.0);
        assert_eq!(c0.get(3), -1.0);
        assert_eq!(m.col_nnz(0), 2);
        assert_eq!(m.col_nnz(1), 1);
    }
}
