//! Presolve / postsolve reductions for standard-form LPs.
//!
//! The network-flow LPs this crate serves arrive with a lot of structure the
//! simplex should never have to discover one pivot at a time: variables pinned to
//! a single value (`lower == upper`, e.g. the "no flow back into the source"
//! edges of every MCF formulation), rows whose only job is to bound one variable,
//! and rows that constrain nothing at all. [`Reduction::build`] strips those out
//! before the solver starts:
//!
//! 1. **Fixed-variable elimination** — a column with `lower == upper` is removed
//!    and its contribution folded into the row bounds.
//! 2. **Empty-row removal** — a row with no remaining structural entries is a
//!    pure feasibility check (`row_lower <= 0 <= row_upper` after the fixed-value
//!    shift); feasible ones are dropped, violated ones abort with
//!    [`LpError::Infeasible`].
//! 3. **Free-row removal** — rows with infinite bounds on both sides.
//! 4. **Singleton-row substitution** — a row with exactly one structural entry is
//!    a bound `row_lower/a <= x_j <= row_upper/a`; the bound is folded into the
//!    variable and the row dropped (crossing bounds again abort as infeasible).
//! 5. **Doubleton-row substitution** — an *equality* row with exactly two
//!    structural entries `a·x + b·y = c` determines one variable from the
//!    other: `y = (c − a·x)/b` is substituted into every other row and the
//!    objective, `y`'s bounds are folded into `x`, and both the row and `y` are
//!    removed. The eliminated variable is the one with the sparser column (less
//!    fill-in), and numerically lopsided rows (`|a/b|` extreme) are left alone.
//!
//! The passes iterate to a fixpoint (eliminating a fixed variable can empty a
//! row; substituting a singleton or doubleton row can fix a variable), then the
//! surviving rows/columns are compacted into a reduced [`StandardForm`].
//!
//! Optionally the reduced model is **scaled**: geometric-mean row/column scaling
//! (two sweeps), with every scale rounded to a power of two so the transform is
//! exact in floating point. Scaling never changes the basis structure — only the
//! numerics the simplex works with.
//!
//! [`Reduction::postsolve`] maps the reduced solution back onto the original
//! model: primal values are unscaled and the fixed variables re-inserted, row
//! activities and the objective are recomputed against the original data, and the
//! exported basis is completed by marking the logical variable of every removed
//! row basic — which keeps the basis square *and* provably nonsingular (each
//! removed-row slack is the only basic column covering its row), so warm starts
//! and basis export keep working end to end across presolve.

use crate::error::{LpError, LpResult};
use crate::simplex::{
    self, BasisStatus, SimplexOptions, StandardForm, StandardSolution, WarmStart,
};
use crate::sparse::SparseVec;
use crate::INF;

/// Upper bound on presolve fixpoint rounds (each round is O(nnz); real models
/// converge in two or three).
const MAX_ROUNDS: usize = 16;

/// Scaling sweeps (alternating row/column geometric-mean passes).
const SCALING_SWEEPS: usize = 2;

/// Solves `sf` through the presolve pipeline: reduce, solve the reduced model
/// with the core simplex, and postsolve the answer back. Called by
/// [`crate::simplex::solve`] whenever presolve or scaling is enabled.
pub fn solve_with_reductions(
    sf: &StandardForm,
    options: &SimplexOptions,
) -> LpResult<StandardSolution> {
    let reduction = Reduction::build(sf, options)?;
    let mut core_opts = options.clone();
    core_opts.presolve = false;
    core_opts.scaling = false;
    core_opts.warm_start = options
        .warm_start
        .as_ref()
        .and_then(|ws| reduction.map_warm_start(ws));
    let reduced_sol = simplex::solve_core(&reduction.reduced, &core_opts)?;
    Ok(reduction.postsolve(sf, reduced_sol))
}

/// Numerical guard for doubleton substitution: rows whose coefficient ratio
/// exceeds this are left alone (substituting would scale errors by the ratio).
const DOUBLETON_MAX_RATIO: f64 = 1e8;

/// One elimination recorded during presolve, replayed in reverse by postsolve.
enum PostsolveOp {
    /// Column `col` was fixed at `value`.
    Fix { col: usize, value: f64 },
    /// Column `y` was substituted out of equality row `row`:
    /// `a·x + b·y = rhs`, so `y = (rhs − a·x) / b`.
    Doubleton {
        row: usize,
        y: usize,
        b: f64,
        x: usize,
        a: f64,
        rhs: f64,
    },
}

/// A presolved model plus everything needed to map solutions back.
pub struct Reduction {
    /// The reduced (and possibly scaled) standard form handed to the simplex.
    pub reduced: StandardForm,
    orig_ncols: usize,
    orig_nrows: usize,
    /// Original column index of every reduced column, in order.
    keep_cols: Vec<usize>,
    /// Original row index of every reduced row, in order.
    keep_rows: Vec<usize>,
    /// Eliminations in the order presolve performed them.
    ops: Vec<PostsolveOp>,
    /// Per-reduced-column scale `c_j` (`x_orig = c_j * x_scaled`); all ones when
    /// scaling is off.
    col_scale: Vec<f64>,
}

impl Reduction {
    /// Runs the presolve passes (when [`SimplexOptions::presolve`]) and scaling
    /// (when [`SimplexOptions::scaling`]) on `sf`.
    ///
    /// Returns [`LpError::Infeasible`] when a reduction proves the model
    /// infeasible outright.
    pub fn build(sf: &StandardForm, options: &SimplexOptions) -> LpResult<Self> {
        let ncols = sf.cols.len();
        let nrows = sf.nrows;
        let tol = options.tol;

        let mut lower = sf.lower.clone();
        let mut upper = sf.upper.clone();
        let mut row_lower = sf.row_lower.clone();
        let mut row_upper = sf.row_upper.clone();
        let mut col_alive = vec![true; ncols];
        let mut row_alive = vec![true; nrows];
        let mut ops: Vec<PostsolveOp> = Vec::new();

        // Working matrix: doubleton substitution rewrites coefficients, so the
        // passes operate on a mutable copy. `mat[j]` holds the current entries
        // of column j (entries of dead rows linger and are filtered on use);
        // `row_cols[i]` lists candidate columns of row i (no duplicates, may go
        // stale after cancellation); `row_nnz[i]` counts alive entries exactly.
        let mut mat: Vec<Vec<(usize, f64)>> = sf.cols.iter().map(|c| c.iter().collect()).collect();
        let mut obj = sf.obj.clone();
        let mut row_cols: Vec<Vec<usize>> = vec![Vec::new(); nrows];
        let mut row_nnz = vec![0usize; nrows];
        for (j, col) in mat.iter().enumerate() {
            for &(i, _) in col {
                row_cols[i].push(j);
                row_nnz[i] += 1;
            }
        }
        let entry_of = |mat: &[Vec<(usize, f64)>], j: usize, i: usize| -> Option<f64> {
            mat[j].iter().find(|&&(r, _)| r == i).map(|&(_, v)| v)
        };

        let feas = |bound: f64| tol * (1.0 + bound.abs());

        if options.presolve {
            for _ in 0..MAX_ROUNDS {
                let mut changed = false;

                // Pass 1: fixed variables.
                for j in 0..ncols {
                    if !col_alive[j] {
                        continue;
                    }
                    if lower[j] > upper[j] {
                        if lower[j] - upper[j] > feas(lower[j]) {
                            return Err(LpError::Infeasible);
                        }
                        let mid = 0.5 * (lower[j] + upper[j]);
                        lower[j] = mid;
                        upper[j] = mid;
                    }
                    if lower[j] == upper[j] {
                        let v = lower[j];
                        for &(i, a) in &mat[j] {
                            if !row_alive[i] {
                                continue;
                            }
                            if row_lower[i].is_finite() {
                                row_lower[i] -= a * v;
                            }
                            if row_upper[i].is_finite() {
                                row_upper[i] -= a * v;
                            }
                            row_nnz[i] -= 1;
                        }
                        col_alive[j] = false;
                        ops.push(PostsolveOp::Fix { col: j, value: v });
                        changed = true;
                    }
                }

                // Passes 2-5: empty, free, singleton and doubleton rows.
                for i in 0..nrows {
                    if !row_alive[i] {
                        continue;
                    }
                    if row_lower[i] == -INF && row_upper[i] == INF {
                        row_alive[i] = false;
                        changed = true;
                        continue;
                    }
                    if row_nnz[i] == 0 {
                        // Remaining activity is exactly zero.
                        if row_lower[i] > feas(row_lower[i]) || row_upper[i] < -feas(row_upper[i]) {
                            return Err(LpError::Infeasible);
                        }
                        row_alive[i] = false;
                        changed = true;
                        continue;
                    }
                    if row_nnz[i] == 1 {
                        let (j, a) = row_cols[i]
                            .iter()
                            .filter(|&&j| col_alive[j])
                            .find_map(|&j| entry_of(&mat, j, i).map(|a| (j, a)))
                            .expect("row_nnz tracks alive entries");
                        // Implied bounds row_lower/a and row_upper/a, ordered by
                        // the sign of `a` (infinite row bounds map naturally).
                        let (b1, b2) = (row_lower[i] / a, row_upper[i] / a);
                        let (lo, hi) = if a > 0.0 { (b1, b2) } else { (b2, b1) };
                        if lo > lower[j] {
                            lower[j] = lo;
                        }
                        if hi < upper[j] {
                            upper[j] = hi;
                        }
                        if lower[j] > upper[j] + feas(lower[j]) {
                            return Err(LpError::Infeasible);
                        }
                        row_alive[i] = false;
                        changed = true;
                        continue;
                    }
                    if row_nnz[i] == 2 && row_lower[i] == row_upper[i] && row_lower[i].is_finite() {
                        // Doubleton equality a·x + b·y = rhs: substitute y out.
                        let mut pair: Vec<(usize, f64)> = row_cols[i]
                            .iter()
                            .filter(|&&j| col_alive[j])
                            .filter_map(|&j| entry_of(&mat, j, i).map(|a| (j, a)))
                            .collect();
                        debug_assert_eq!(pair.len(), 2, "row_nnz tracks alive entries");
                        let rhs = row_lower[i];
                        // Eliminate the sparser column (less fill-in); ties go to
                        // the larger pivot magnitude.
                        let alive_nnz =
                            |j: usize| mat[j].iter().filter(|&&(r, _)| row_alive[r]).count();
                        let (n0, n1) = (alive_nnz(pair[0].0), alive_nnz(pair[1].0));
                        if n1 < n0 || (n1 == n0 && pair[1].1.abs() > pair[0].1.abs()) {
                            pair.swap(0, 1);
                        }
                        let (y, b) = pair[0];
                        let (x, a) = pair[1];
                        let ratio = (a / b).abs();
                        if !(ratio.is_finite()
                            && (1.0 / DOUBLETON_MAX_RATIO..=DOUBLETON_MAX_RATIO).contains(&ratio))
                        {
                            continue; // numerically lopsided; leave the row alone
                        }
                        // Fold y's bounds into x: a·x = rhs − b·y with
                        // y in [lower[y], upper[y]].
                        let (t1, t2) = (rhs - b * lower[y], rhs - b * upper[y]);
                        let (axl, axu) = if b > 0.0 { (t2, t1) } else { (t1, t2) };
                        let (xl, xu) = if a > 0.0 {
                            (axl / a, axu / a)
                        } else {
                            (axu / a, axl / a)
                        };
                        if xl > lower[x] {
                            lower[x] = xl;
                        }
                        if xu < upper[x] {
                            upper[x] = xu;
                        }
                        if lower[x] > upper[x] + feas(lower[x]) {
                            return Err(LpError::Infeasible);
                        }
                        // Substitute y = (rhs − a·x)/b into every other row and
                        // the objective.
                        row_alive[i] = false;
                        let y_entries: Vec<(usize, f64)> = mat[y]
                            .iter()
                            .filter(|&&(r, _)| row_alive[r])
                            .copied()
                            .collect();
                        for &(r, d) in &y_entries {
                            let shift = d * rhs / b;
                            if row_lower[r].is_finite() {
                                row_lower[r] -= shift;
                            }
                            if row_upper[r].is_finite() {
                                row_upper[r] -= shift;
                            }
                            let delta = -d * a / b;
                            if let Some(pos) = mat[x].iter().position(|&(rr, _)| rr == r) {
                                let new = mat[x][pos].1 + delta;
                                if new == 0.0 {
                                    // Exact cancellation: the entry vanishes.
                                    mat[x].swap_remove(pos);
                                    row_nnz[r] -= 1;
                                } else {
                                    mat[x][pos].1 = new;
                                }
                            } else if delta != 0.0 {
                                mat[x].push((r, delta));
                                if !row_cols[r].contains(&x) {
                                    row_cols[r].push(x);
                                }
                                row_nnz[r] += 1;
                            }
                            // y's entry disappears with the column.
                            row_nnz[r] -= 1;
                        }
                        obj[x] += -obj[y] * a / b;
                        col_alive[y] = false;
                        ops.push(PostsolveOp::Doubleton {
                            row: i,
                            y,
                            b,
                            x,
                            a,
                            rhs,
                        });
                        changed = true;
                    }
                }

                if !changed {
                    break;
                }
            }
        }

        // Compact the survivors into the reduced standard form.
        let keep_cols: Vec<usize> = (0..ncols).filter(|&j| col_alive[j]).collect();
        let keep_rows: Vec<usize> = (0..nrows).filter(|&i| row_alive[i]).collect();
        let mut row_map = vec![usize::MAX; nrows];
        for (ri, &i) in keep_rows.iter().enumerate() {
            row_map[i] = ri;
        }
        let mut red_cols: Vec<SparseVec> = Vec::with_capacity(keep_cols.len());
        for &j in &keep_cols {
            let mut entries: Vec<(usize, f64)> = mat[j]
                .iter()
                .filter(|&&(i, _)| row_alive[i])
                .map(|&(i, v)| (row_map[i], v))
                .collect();
            // Substitution fill-in appends out of order.
            entries.sort_unstable_by_key(|&(i, _)| i);
            red_cols.push(SparseVec::from_entries(entries));
        }
        let mut reduced = StandardForm {
            nrows: keep_rows.len(),
            cols: red_cols,
            obj: keep_cols.iter().map(|&j| obj[j]).collect(),
            lower: keep_cols.iter().map(|&j| lower[j]).collect(),
            upper: keep_cols.iter().map(|&j| upper[j]).collect(),
            row_lower: keep_rows.iter().map(|&i| row_lower[i]).collect(),
            row_upper: keep_rows.iter().map(|&i| row_upper[i]).collect(),
        };

        let col_scale = if options.scaling {
            scale_geometric(&mut reduced)
        } else {
            vec![1.0; reduced.cols.len()]
        };

        Ok(Self {
            reduced,
            orig_ncols: ncols,
            orig_nrows: nrows,
            keep_cols,
            keep_rows,
            ops,
            col_scale,
        })
    }

    /// Rows removed by the reductions.
    pub fn rows_removed(&self) -> usize {
        self.orig_nrows - self.keep_rows.len()
    }

    /// Columns removed by the reductions.
    pub fn cols_removed(&self) -> usize {
        self.orig_ncols - self.keep_cols.len()
    }

    /// Maps a warm start for the original model into the reduced space by
    /// dropping the statuses of eliminated columns and rows. Returns `None` when
    /// the warm start has the wrong length; a mapped start whose basic count no
    /// longer matches falls back inside the solver as usual.
    pub fn map_warm_start(&self, ws: &WarmStart) -> Option<WarmStart> {
        if ws.statuses.len() != self.orig_ncols + self.orig_nrows {
            return None;
        }
        let mut statuses = Vec::with_capacity(self.keep_cols.len() + self.keep_rows.len());
        for &j in &self.keep_cols {
            statuses.push(ws.statuses[j]);
        }
        for &i in &self.keep_rows {
            statuses.push(ws.statuses[self.orig_ncols + i]);
        }
        Some(WarmStart { statuses })
    }

    /// Maps a reduced solution back onto the original model: primal values are
    /// unscaled and the eliminations replayed in reverse (fixed variables
    /// re-inserted, doubleton-substituted variables recomputed from their
    /// partner), row activities and the objective are recomputed against the
    /// original data, and the basis is completed per removed row — the logical
    /// variable for bound-style removals (always nonsingular: each such slack is
    /// the only basic column covering its row), the substituted variable for
    /// doubleton rows whose recovered value sits strictly between its bounds
    /// (generically nonsingular; the solver's warm start falls back to the
    /// all-slack basis on the degenerate exceptions).
    pub fn postsolve(&self, orig: &StandardForm, sol: StandardSolution) -> StandardSolution {
        let mut x = vec![0.0; self.orig_ncols];
        for (jr, &j) in self.keep_cols.iter().enumerate() {
            x[j] = sol.x[jr] * self.col_scale[jr];
        }
        // Later eliminations may reference variables removed earlier, so the
        // replay runs newest-first: by the time an op computes its value, every
        // variable it depends on has been restored.
        for op in self.ops.iter().rev() {
            match *op {
                PostsolveOp::Fix { col, value } => x[col] = value,
                PostsolveOp::Doubleton {
                    y,
                    b,
                    x: xc,
                    a,
                    rhs,
                    ..
                } => x[y] = (rhs - a * x[xc]) / b,
            }
        }

        let mut row_activity = vec![0.0; self.orig_nrows];
        for (j, &v) in x.iter().enumerate() {
            if v != 0.0 {
                orig.cols[j].scatter_into(&mut row_activity, v);
            }
        }
        let objective = x.iter().zip(&orig.obj).map(|(v, c)| v * c).sum();

        // Basis: kept columns/rows inherit the reduced statuses; fixed columns
        // are nonbasic at their (degenerate) bound; removed rows' logicals join
        // the basis, except doubleton rows whose substituted variable is
        // interior (then the variable is basic and the slack nonbasic).
        let mut statuses = vec![BasisStatus::Basic; self.orig_ncols + self.orig_nrows];
        for j in 0..self.orig_ncols {
            statuses[j] = BasisStatus::AtLower;
        }
        for (jr, &j) in self.keep_cols.iter().enumerate() {
            statuses[j] = sol.basis.statuses[jr];
        }
        let red_ncols = self.keep_cols.len();
        for (ir, &i) in self.keep_rows.iter().enumerate() {
            statuses[self.orig_ncols + i] = sol.basis.statuses[red_ncols + ir];
        }
        // (Removed rows keep the Basic default from initialization.)
        for op in &self.ops {
            if let PostsolveOp::Doubleton { row, y, .. } = *op {
                let v = x[y];
                let tol = 1e-9 * (1.0 + v.abs());
                if (v - orig.lower[y]).abs() <= tol {
                    statuses[y] = BasisStatus::AtLower;
                } else if (v - orig.upper[y]).abs() <= tol {
                    statuses[y] = BasisStatus::AtUpper;
                } else {
                    statuses[y] = BasisStatus::Basic;
                    statuses[self.orig_ncols + row] = BasisStatus::AtLower;
                }
            }
        }

        StandardSolution {
            x,
            row_activity,
            objective,
            iterations: sol.iterations,
            dual_iterations: sol.dual_iterations,
            pivots: sol.pivots,
            refactorizations: sol.refactorizations,
            presolve_rows_removed: self.rows_removed(),
            presolve_cols_removed: self.cols_removed(),
            basis: WarmStart { statuses },
        }
    }
}

/// Geometric-mean row/column scaling of `sf` in place, scales rounded to powers
/// of two (exact in floating point). Returns the per-column scales `c_j` with
/// `x_orig = c_j * x_scaled`; row scales only affect row bounds and need no
/// memory for the primal postsolve.
fn scale_geometric(sf: &mut StandardForm) -> Vec<f64> {
    let nrows = sf.nrows;
    let ncols = sf.cols.len();
    let mut row_scale = vec![1.0f64; nrows];
    let mut col_scale = vec![1.0f64; ncols];
    if nrows == 0 || ncols == 0 {
        return col_scale;
    }

    let pow2 = |s: f64| -> f64 {
        if s.is_finite() && s > 0.0 {
            s.log2().round().exp2()
        } else {
            1.0
        }
    };

    for _ in 0..SCALING_SWEEPS {
        // Row pass: r_i = 1/sqrt(min*max) of the scaled row magnitudes.
        let mut row_min = vec![INF; nrows];
        let mut row_max = vec![0.0f64; nrows];
        for (j, col) in sf.cols.iter().enumerate() {
            for (i, v) in col.iter() {
                let m = (v * row_scale[i] * col_scale[j]).abs();
                if m > 0.0 {
                    row_min[i] = row_min[i].min(m);
                    row_max[i] = row_max[i].max(m);
                }
            }
        }
        for i in 0..nrows {
            if row_max[i] > 0.0 {
                row_scale[i] *= pow2(1.0 / (row_min[i] * row_max[i]).sqrt());
            }
        }
        // Column pass.
        for (j, col) in sf.cols.iter().enumerate() {
            let mut cmin = INF;
            let mut cmax = 0.0f64;
            for (i, v) in col.iter() {
                let m = (v * row_scale[i] * col_scale[j]).abs();
                if m > 0.0 {
                    cmin = cmin.min(m);
                    cmax = cmax.max(m);
                }
            }
            if cmax > 0.0 {
                col_scale[j] *= pow2(1.0 / (cmin * cmax).sqrt());
            }
        }
    }

    // Apply: A' = R A C, obj' = C obj, bounds x' = x / c, row bounds r' = R r.
    for (j, col) in sf.cols.iter_mut().enumerate() {
        let cj = col_scale[j];
        *col = SparseVec::from_entries(col.iter().map(|(i, v)| (i, v * row_scale[i] * cj)));
        sf.obj[j] *= cj;
        sf.lower[j] /= cj;
        sf.upper[j] /= cj;
    }
    for i in 0..nrows {
        sf.row_lower[i] *= row_scale[i];
        sf.row_upper[i] *= row_scale[i];
    }
    col_scale
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simplex::solve;

    fn col(entries: &[(usize, f64)]) -> SparseVec {
        SparseVec::from_entries(entries.iter().copied())
    }

    fn opts(presolve: bool, scaling: bool) -> SimplexOptions {
        SimplexOptions {
            presolve,
            scaling,
            ..SimplexOptions::default()
        }
    }

    #[test]
    fn fixed_variables_are_eliminated() {
        // x fixed to 2, y free to optimize: min -y s.t. x + y <= 5, x == 2 via bounds.
        let sf = StandardForm {
            nrows: 1,
            cols: vec![col(&[(0, 1.0)]), col(&[(0, 1.0)])],
            obj: vec![0.0, -1.0],
            lower: vec![2.0, 0.0],
            upper: vec![2.0, INF],
            row_lower: vec![-INF],
            row_upper: vec![5.0],
        };
        let red = Reduction::build(&sf, &opts(true, false)).unwrap();
        assert_eq!(red.cols_removed(), 1);
        assert_eq!(red.reduced.cols.len(), 1);
        // The row absorbed the fixed contribution (y <= 3) and then collapsed
        // into a bound as a singleton row.
        assert_eq!(red.rows_removed(), 1);
        assert_eq!(red.reduced.nrows, 0);
        assert_eq!(red.reduced.upper[0], 3.0);
        let sol = solve(&sf, &opts(true, false)).unwrap();
        assert!((sol.objective + 3.0).abs() < 1e-9);
        assert_eq!(sol.x, vec![2.0, 3.0]);
        assert_eq!(sol.presolve_cols_removed, 1);
    }

    #[test]
    fn singleton_rows_become_bounds() {
        // Rows "x <= 4" and "x >= 1" collapse into bounds; the remaining model has
        // a single real constraint.
        let sf = StandardForm {
            nrows: 3,
            cols: vec![col(&[(0, 1.0), (1, 1.0), (2, 1.0)]), col(&[(2, 1.0)])],
            obj: vec![-1.0, -1.0],
            lower: vec![0.0, 0.0],
            upper: vec![INF, 2.0],
            row_lower: vec![-INF, 1.0, -INF],
            row_upper: vec![4.0, INF, 5.0],
        };
        let red = Reduction::build(&sf, &opts(true, false)).unwrap();
        assert_eq!(red.rows_removed(), 2);
        let sol = solve(&sf, &opts(true, false)).unwrap();
        let base = solve(&sf, &opts(false, false)).unwrap();
        assert!((sol.objective - base.objective).abs() < 1e-8);
        assert_eq!(sol.presolve_rows_removed, 2);
    }

    #[test]
    fn doubleton_equality_rows_are_substituted() {
        // max x + y  s.t.  x + y = 4 (doubleton), x <= 3, y <= 3, x,y >= 0.
        // Substituting y = 4 - x folds y's bounds into x ([1, 3] after the
        // fold) and leaves a model with no rows at all.
        let sf = StandardForm {
            nrows: 1,
            cols: vec![col(&[(0, 1.0)]), col(&[(0, 1.0)])],
            obj: vec![-1.0, -1.0],
            lower: vec![0.0, 0.0],
            upper: vec![3.0, 3.0],
            row_lower: vec![4.0],
            row_upper: vec![4.0],
        };
        let red = Reduction::build(&sf, &opts(true, false)).unwrap();
        assert_eq!(red.rows_removed(), 1);
        assert_eq!(red.cols_removed(), 1);
        assert_eq!(red.reduced.nrows, 0);
        assert_eq!(red.reduced.lower[0], 1.0, "y <= 3 implies x >= 1");
        assert_eq!(red.reduced.upper[0], 3.0);
        let sol = solve(&sf, &opts(true, false)).unwrap();
        let base = solve(&sf, &opts(false, false)).unwrap();
        assert!((sol.objective - base.objective).abs() < 1e-9);
        // Exactly one shard of x + y = 4 is recovered for y.
        assert!((sol.x[0] + sol.x[1] - 4.0).abs() < 1e-9);
        assert_eq!(sol.presolve_rows_removed, 1);
        assert_eq!(sol.presolve_cols_removed, 1);
    }

    #[test]
    fn doubleton_substitution_rewrites_other_rows() {
        // x + y = 3 is a doubleton; y also appears in x + 2y <= 5 and in the
        // objective. Substituting y = 3 - x turns the second row into
        // -x <= -1 (i.e. x >= 1) and the objective -2y into 2x - 6.
        let sf = StandardForm {
            nrows: 2,
            cols: vec![
                col(&[(0, 1.0), (1, 1.0)]),
                col(&[(0, 1.0), (1, 2.0)]),
                col(&[(1, 1.0)]),
            ],
            obj: vec![-1.0, -2.0, 0.5],
            lower: vec![0.0, 0.0, 0.0],
            upper: vec![INF, INF, 4.0],
            row_lower: vec![3.0, -INF],
            row_upper: vec![3.0, 5.0],
        };
        let plain = solve(&sf, &opts(false, false)).unwrap();
        let pre = solve(&sf, &opts(true, true)).unwrap();
        assert!(
            (plain.objective - pre.objective).abs() < 1e-8,
            "{} vs {}",
            plain.objective,
            pre.objective
        );
        assert!(pre.presolve_cols_removed >= 1);
        // The postsolved point satisfies the original equality exactly.
        assert!((pre.x[0] + pre.x[1] - 3.0).abs() < 1e-8);
    }

    #[test]
    fn doubleton_infeasibility_via_folded_bounds_detected() {
        // x + y = 10 with x <= 2, y <= 3 cannot hold.
        let sf = StandardForm {
            nrows: 1,
            cols: vec![col(&[(0, 1.0)]), col(&[(0, 1.0)])],
            obj: vec![1.0, 1.0],
            lower: vec![0.0, 0.0],
            upper: vec![2.0, 3.0],
            row_lower: vec![10.0],
            row_upper: vec![10.0],
        };
        assert_eq!(
            solve(&sf, &opts(true, false)).unwrap_err(),
            LpError::Infeasible
        );
    }

    #[test]
    fn lopsided_doubleton_rows_are_left_alone() {
        // The coefficient ratio exceeds the substitution guard, so the row
        // must survive presolve (and still solve correctly).
        let sf = StandardForm {
            nrows: 1,
            cols: vec![col(&[(0, 1e9)]), col(&[(0, 1.0)])],
            obj: vec![-1.0, -1.0],
            lower: vec![0.0, 0.0],
            upper: vec![1.0, 1.0],
            row_lower: vec![1.0],
            row_upper: vec![1.0],
        };
        let red = Reduction::build(&sf, &opts(true, false)).unwrap();
        assert_eq!(red.rows_removed(), 0);
        let plain = solve(&sf, &opts(false, false)).unwrap();
        let pre = solve(&sf, &opts(true, false)).unwrap();
        assert!((plain.objective - pre.objective).abs() < 1e-7);
    }

    #[test]
    fn empty_and_free_rows_are_removed() {
        let sf = StandardForm {
            nrows: 3,
            cols: vec![col(&[(1, 1.0)])],
            obj: vec![1.0],
            lower: vec![-1.0],
            upper: vec![INF],
            // Row 0 is empty-but-feasible, row 2 is free.
            row_lower: vec![-1.0, -1.0, -INF],
            row_upper: vec![1.0, INF, INF],
        };
        let red = Reduction::build(&sf, &opts(true, false)).unwrap();
        assert_eq!(red.rows_removed(), 3, "singleton row 1 is removed too");
        let sol = solve(&sf, &opts(true, false)).unwrap();
        assert!((sol.objective + 1.0).abs() < 1e-9);
    }

    #[test]
    fn infeasible_empty_row_detected() {
        // Fixed variables leave row 0 demanding 3 <= 0.
        let sf = StandardForm {
            nrows: 1,
            cols: vec![col(&[(0, 1.0)])],
            obj: vec![0.0],
            lower: vec![1.0],
            upper: vec![1.0],
            row_lower: vec![4.0],
            row_upper: vec![INF],
        };
        assert_eq!(
            solve(&sf, &opts(true, false)).unwrap_err(),
            LpError::Infeasible
        );
    }

    #[test]
    fn crossing_singleton_bounds_detected() {
        let sf = StandardForm {
            nrows: 2,
            cols: vec![col(&[(0, 1.0), (1, 1.0)])],
            obj: vec![0.0],
            lower: vec![0.0],
            upper: vec![INF],
            row_lower: vec![-INF, 2.0],
            row_upper: vec![1.0, INF],
        };
        assert_eq!(
            solve(&sf, &opts(true, false)).unwrap_err(),
            LpError::Infeasible
        );
    }

    #[test]
    fn scaling_is_exact_powers_of_two() {
        // Badly scaled rows/columns: scaling must leave the optimum untouched.
        let sf = StandardForm {
            nrows: 2,
            cols: vec![col(&[(0, 1e4), (1, 2.0)]), col(&[(0, 2e4), (1, 1e-3)])],
            obj: vec![-1.0, -2.0],
            lower: vec![0.0, 0.0],
            upper: vec![INF, INF],
            row_lower: vec![-INF, -INF],
            row_upper: vec![4e4, 3.0],
        };
        let plain = solve(&sf, &opts(false, false)).unwrap();
        let scaled = solve(&sf, &opts(false, true)).unwrap();
        let both = solve(&sf, &opts(true, true)).unwrap();
        assert!((plain.objective - scaled.objective).abs() < 1e-7 * (1.0 + plain.objective.abs()));
        assert!((plain.objective - both.objective).abs() < 1e-7 * (1.0 + plain.objective.abs()));
        for (a, b) in plain.x.iter().zip(&scaled.x) {
            assert!((a - b).abs() < 1e-6 * (1.0 + a.abs()), "{a} vs {b}");
        }
    }

    #[test]
    fn all_fixed_model_solves_without_simplex_work() {
        let sf = StandardForm {
            nrows: 2,
            cols: vec![col(&[(0, 1.0), (1, 2.0)]), col(&[(0, 1.0)])],
            obj: vec![3.0, -1.0],
            lower: vec![1.0, 2.0],
            upper: vec![1.0, 2.0],
            row_lower: vec![-INF, 0.0],
            row_upper: vec![3.0, 2.0],
        };
        let sol = solve(&sf, &opts(true, true)).unwrap();
        assert_eq!(sol.iterations, 0);
        assert_eq!(sol.x, vec![1.0, 2.0]);
        assert!((sol.objective - 1.0).abs() < 1e-12);
        assert_eq!(sol.presolve_cols_removed, 2);
        assert_eq!(sol.presolve_rows_removed, 2);
        // The exported basis is the full original shape with slacks basic.
        assert_eq!(sol.basis.statuses.len(), 4);
        let basics = sol
            .basis
            .statuses
            .iter()
            .filter(|s| matches!(s, BasisStatus::Basic))
            .count();
        assert_eq!(basics, 2);
    }

    #[test]
    fn postsolved_basis_warm_starts_the_original() {
        // Solve with presolve, feed the postsolved basis back into a presolved
        // re-solve: the mapped basis must re-verify pivot-free.
        let sf = StandardForm {
            nrows: 3,
            cols: vec![
                col(&[(0, 1.0), (1, 1.0)]),
                col(&[(0, 1.0), (2, 1.0)]),
                col(&[(2, 1.0)]),
            ],
            obj: vec![-2.0, -1.0, 0.0],
            lower: vec![0.0, 0.0, 1.0],
            upper: vec![INF, INF, 1.0],
            row_lower: vec![-INF, -INF, -INF],
            row_upper: vec![4.0, 3.0, 6.0],
        };
        let cold = solve(&sf, &opts(true, true)).unwrap();
        let warm_opts = SimplexOptions {
            warm_start: Some(cold.basis.clone()),
            ..opts(true, true)
        };
        let warm = solve(&sf, &warm_opts).unwrap();
        assert!((warm.objective - cold.objective).abs() < 1e-9);
        assert_eq!(
            warm.pivots, 0,
            "postsolved basis should re-verify pivot-free"
        );
    }
}
