//! Basis maintenance: the starting basis, the LU factors and their refactor
//! cadence, the one Forrest–Tomlin commit of a basis change, and the
//! row-wise matrix copy partitioned by basis status.
//!
//! # Warm starts
//!
//! [`SimplexOptions::warm_start`] seeds the initial basis from a [`WarmStart`]
//! (per-variable [`BasisStatus`], structural variables first, then one logical per
//! row). Solved instances export their final basis in
//! [`StandardSolution::basis`], so a caller can re-solve a perturbed instance — or
//! seed a *related* instance, see [`triangular_crash`] — without paying for phase 1
//! from an all-slack start. A warm basis that turns out singular (or malformed)
//! falls back to the all-slack basis silently.
//!
//! [`SimplexOptions::warm_start`]: super::SimplexOptions::warm_start
//! [`StandardSolution::basis`]: super::StandardSolution::basis

use super::{
    basis_status, column_entries, BasisStatus, Solver, StandardForm, VarStatus, WarmStart,
};
use crate::error::{LpError, LpResult};
use crate::lu::{Kernel, LuFactorization};
use crate::sparse::SparseScratch;

/// Forrest–Tomlin updates accumulated before the basis is refactorized from
/// scratch (fill growth or an unstable update refactorize earlier). FT updates
/// keep per-solve cost flat, so this can be much larger than a product-form
/// eta file would tolerate.
const REFACTOR_INTERVAL: usize = 100;

static OBS_REFACTORIZATIONS: a2a_obs::Counter = a2a_obs::Counter::new("lp.refactorizations");

/// Builds a nonsingular starting basis for `sf` from per-column preference weights
/// (a *crash* basis): structural columns with positive preference are greedily
/// assigned to rows so that the selected submatrix is lower triangular up to
/// permutation — a column is chosen only while it has exactly one nonzero in still
/// unassigned rows, highest preference first. Rows left unassigned keep their
/// logical variable basic.
///
/// Triangularity guarantees the crash basis factorizes, so
/// [`SimplexOptions::warm_start`] never falls back when fed its result. Callers use
/// this to *project* a solved related LP onto a new one: give columns that were
/// basic (or carried value) in the source solution a positive preference and
/// everything else zero.
///
/// [`SimplexOptions::warm_start`]: super::SimplexOptions::warm_start
pub fn triangular_crash(sf: &StandardForm, preference: &[f64]) -> WarmStart {
    assert_eq!(preference.len(), sf.cols.len(), "one preference per column");
    let nrows = sf.nrows;
    let nstruct = sf.cols.len();

    let mut remaining: Vec<usize> = (0..nstruct)
        .filter(|&j| preference[j] > 0.0 && !sf.cols[j].is_empty())
        .collect();
    // Highest preference first; index order breaks ties deterministically.
    remaining.sort_by(|&a, &b| {
        preference[b]
            .partial_cmp(&preference[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });

    let mut row_free = vec![true; nrows];
    let mut basic_col = vec![false; nstruct];
    loop {
        let mut assigned_any = false;
        remaining.retain(|&j| {
            let mut count = 0usize;
            let mut hit_row = 0usize;
            let mut hit_val = 0.0f64;
            let mut col_max = 0.0f64;
            for (r, v) in sf.cols[j].iter() {
                col_max = col_max.max(v.abs());
                if row_free[r] {
                    count += 1;
                    hit_row = r;
                    hit_val = v;
                }
            }
            match count {
                0 => false, // every row covered: the column can no longer help
                1 if hit_val.abs() >= 0.01 * col_max => {
                    basic_col[j] = true;
                    row_free[hit_row] = false;
                    assigned_any = true;
                    false
                }
                _ => true, // still ambiguous; retry next round
            }
        });
        if !assigned_any {
            break;
        }
    }

    // Structurals, then logicals: basic if chosen, else at the default bound.
    let basic = basic_col.iter().chain(&row_free);
    let lower = sf.lower.iter().chain(&sf.row_lower);
    let upper = sf.upper.iter().chain(&sf.row_upper);
    let statuses = basic.zip(lower.zip(upper)).map(|(&basic, (&l, &u))| {
        if basic {
            BasisStatus::Basic
        } else {
            basis_status(Solver::default_nonbasic(l, u).0)
        }
    });
    WarmStart {
        statuses: statuses.collect(),
    }
}

/// Adds a nonbasic column's entry to a row of the partitioned row-wise matrix
/// copy (`Solver::a_rows`) whose nonbasic prefix is `nb` long: the entry is
/// appended, trades places with the first basic entry, and the prefix grows
/// over it.
pub(super) fn push_nonbasic(row: &mut Vec<(usize, f64)>, nb: &mut usize, entry: (usize, f64)) {
    row.push(entry);
    let last = row.len() - 1;
    row.swap(*nb, last);
    *nb += 1;
}

impl Solver<'_> {
    /// Nonbasic status (and starting value) a variable gets from its bounds.
    pub(super) fn default_nonbasic(l: f64, u: f64) -> (VarStatus, f64) {
        if l.is_infinite() && u.is_infinite() {
            (VarStatus::FreeZero, 0.0)
        } else if l.is_infinite() {
            (VarStatus::AtUpper, u)
        } else if u.is_infinite() || l.abs() <= u.abs() {
            (VarStatus::AtLower, l)
        } else {
            (VarStatus::AtUpper, u)
        }
    }

    /// Attempts to install a starting basis (a caller's, or the all-logical
    /// one). Returns `Ok(false)` (leaving the solver ready for the slack
    /// fallback) when the warm start is malformed or its basis matrix is
    /// singular.
    pub(super) fn try_install_warm_start(&mut self, statuses: &[BasisStatus]) -> LpResult<bool> {
        if statuses.len() != self.ntotal {
            return Ok(false);
        }
        let nbasic = statuses
            .iter()
            .filter(|s| matches!(s, BasisStatus::Basic))
            .count();
        if nbasic != self.nrows {
            return Ok(false);
        }
        self.status.clear();
        self.basis.clear();
        self.x = vec![0.0; self.ntotal];
        for (j, &st) in statuses.iter().enumerate() {
            let (l, u) = (self.lower[j], self.upper[j]);
            let (status, v) = match st {
                BasisStatus::Basic => {
                    self.basis.push(j);
                    (VarStatus::Basic(self.basis.len() - 1), 0.0)
                }
                BasisStatus::AtLower if l.is_finite() => (VarStatus::AtLower, l),
                BasisStatus::AtUpper if u.is_finite() => (VarStatus::AtUpper, u),
                // Statuses inconsistent with the bounds degrade to the default.
                _ => Self::default_nonbasic(l, u),
            };
            self.status.push(status);
            self.x[j] = v;
        }
        match self.refactorize() {
            Ok(()) => Ok(true),
            Err(LpError::Numerical(_)) => Ok(false), // singular warm basis
            Err(e) => Err(e),
        }
    }

    /// Rebuilds the LU factorization of the current basis and recomputes basic values.
    pub(super) fn refactorize(&mut self) -> LpResult<()> {
        let cols = self.basis.iter().map(|&j| column_entries(&self.sf, j));
        self.lu = LuFactorization::factorize(self.nrows, cols)?;
        debug_assert!(self.a_rows_partitioned(), "a_rows partition broken");
        self.refactorizations += 1;
        OBS_REFACTORIZATIONS.incr();
        self.recompute_basic_values();
        // Collapsing the eta file changes the numerics of the dual solves; the
        // incremental reduced costs are rebuilt from fresh duals at next pricing.
        self.d_fresh = false;
        Ok(())
    }

    /// Recomputes the values of basic variables from the nonbasic values.
    pub(super) fn recompute_basic_values(&mut self) {
        let mut rhs = self.take_zeroed_rhs();
        for j in 0..self.ntotal {
            match self.status[j] {
                VarStatus::Basic(_) => {}
                _ => {
                    let v = self.x[j];
                    if v != 0.0 {
                        self.scatter_col(j, -v, &mut rhs);
                    }
                }
            }
        }
        self.lu.solve(&mut rhs, &mut self.lu_scratch);
        for (pos, &j) in self.basis.iter().enumerate() {
            self.x[j] = rhs[pos];
        }
        self.rhs_buf = rhs;
    }

    /// Takes the dense right-hand-side buffer, zeroed to `nrows` entries; the
    /// caller hands it back to `rhs_buf` when done.
    pub(super) fn take_zeroed_rhs(&mut self) -> Vec<f64> {
        let mut rhs = std::mem::take(&mut self.rhs_buf);
        rhs.clear();
        rhs.resize(self.nrows, 0.0);
        rhs
    }

    /// Computes the pivotal row `rho = e_r B^{-1}` into the (taken) row buffer.
    pub(super) fn compute_pivotal_rho(&mut self, r: usize, kernel: Kernel) -> SparseScratch {
        let mut rho = std::mem::take(&mut self.row_buf);
        rho.clear();
        rho.set(r, 1.0);
        self.lu.btran_sparse(kernel, &mut rho, &mut self.lu_scratch);
        rho
    }

    /// The pivotal row `alpha = e_r B^{-1} A` of basis position `r`, in the
    /// taken `alpha_buf`: `rho = e_r B^{-1}` (left in `row_buf`) expanded over
    /// its pattern from the nonbasic prefixes of the row-wise matrix copy (the
    /// logical column of row `i` carries `-rho_i`), so `alpha` holds nonbasic
    /// columns only.
    pub(super) fn pivotal_row(&mut self, r: usize, kernel: Kernel) -> SparseScratch {
        let rho = self.compute_pivotal_rho(r, kernel);
        let mut alpha = std::mem::take(&mut self.alpha_buf);
        alpha.clear();
        for (i, rv) in rho.iter() {
            if rv == 0.0 {
                continue;
            }
            #[cfg(test)]
            if self.full_row_expansion {
                for &(j, a) in &self.a_rows[i] {
                    if !matches!(self.status[j], VarStatus::Basic(_)) {
                        alpha.add(j, rv * a);
                    }
                }
                if !matches!(self.status[self.nstruct + i], VarStatus::Basic(_)) {
                    alpha.add(self.nstruct + i, -rv);
                }
                continue;
            }
            for &(j, a) in &self.a_rows[i][..self.nb_len[i]] {
                alpha.add(j, rv * a);
            }
            if !matches!(self.status[self.nstruct + i], VarStatus::Basic(_)) {
                alpha.add(self.nstruct + i, -rv);
            }
        }
        self.row_buf = rho;
        alpha
    }

    /// Builds the row-wise matrix copy, partitioned against the installed
    /// basis (once, at construction).
    pub(super) fn build_a_rows(&mut self) {
        let mut rows: Vec<Vec<(usize, f64)>> = vec![Vec::new(); self.nrows];
        let mut nb_len = vec![0; self.nrows];
        for (j, col) in self.sf.cols.iter().enumerate() {
            let basic = matches!(self.status[j], VarStatus::Basic(_));
            for (i, v) in col.iter() {
                if basic {
                    rows[i].push((j, v));
                } else {
                    push_nonbasic(&mut rows[i], &mut nb_len[i], (j, v));
                }
            }
        }
        self.a_rows = rows;
        self.nb_len = nb_len;
    }

    /// Moves column `j`'s entries across the nonbasic / basic boundary of
    /// their `a_rows` rows as `j` enters (`to_basic`) or leaves the basis: each
    /// entry trades places with the entry on its side of the boundary, and
    /// the boundary steps over it.
    fn move_in_a_rows(&mut self, j: usize, to_basic: bool) {
        if j >= self.nstruct {
            return;
        }
        for (i, _) in self.sf.cols[j].iter() {
            let row = &mut self.a_rows[i];
            let nb = &mut self.nb_len[i];
            if to_basic {
                let at = row[..*nb]
                    .iter()
                    .position(|&(c, _)| c == j)
                    .expect("an entering column sits in the nonbasic prefixes");
                *nb -= 1;
                row.swap(at, *nb);
            } else {
                let at = *nb
                    + row[*nb..]
                        .iter()
                        .position(|&(c, _)| c == j)
                        .expect("a leaving column sits in the basic suffixes");
                row.swap(at, *nb);
                *nb += 1;
            }
        }
    }

    /// The one place a basis change is committed, for the primal and the dual
    /// loop alike: `q` becomes basic at position `r`, the variable it replaces
    /// turns nonbasic with `leaving_status`, the `a_rows` partition follows
    /// both, and the factorization takes the Forrest–Tomlin update from the
    /// spike [`Self::ftran_entering`] saved. An unstable update poisons the
    /// factors, so a rejection refactorizes the new basis at once, as do
    /// `REFACTOR_INTERVAL` accumulated updates and update fill outgrowing the
    /// base factorization.
    pub(super) fn commit_basis_change(
        &mut self,
        r: usize,
        q: usize,
        leaving_status: VarStatus,
    ) -> LpResult<()> {
        let leaving_var = self.basis[r];
        self.status[leaving_var] = leaving_status;
        self.status[q] = VarStatus::Basic(r);
        self.basis[r] = q;
        self.move_in_a_rows(leaving_var, false);
        self.move_in_a_rows(q, true);
        self.pivots += 1;
        if !self
            .lu
            .replace_column(r, &self.spike_buf, &mut self.lu_scratch)
            || self.lu.updates() >= REFACTOR_INTERVAL
            || self.lu.fill_exceeded()
        {
            self.refactorize()?;
        }
        Ok(())
    }

    /// Whether every row of `a_rows` has exactly its nonbasic columns in its
    /// prefix (vacuously true before the copy is built). Debug builds assert
    /// it at every refactorization.
    pub(super) fn a_rows_partitioned(&self) -> bool {
        self.a_rows.iter().zip(&self.nb_len).all(|(row, &nb)| {
            row.iter()
                .enumerate()
                .all(|(k, &(j, _))| (k < nb) != matches!(self.status[j], VarStatus::Basic(_)))
        })
    }
}
