//! The incremental session of column generation: columns appended to and
//! deactivated in a live solver, and the duals that price new ones.

use super::basis::push_nonbasic;
use super::{check_column, NewColumn, Solver, VarStatus};
use crate::error::{LpError, LpResult};

impl Solver<'_> {
    /// Appends structural columns to a live session, preserving the solved basis.
    ///
    /// Contract, in terms of the solver state the next [`Solver::reoptimize`]
    /// starts from:
    ///
    /// * the basis (and therefore the LU factorization, *including* any
    ///   mid-cycle Forrest–Tomlin updates) is untouched — appending columns
    ///   never changes the basis matrix, so nothing is refactorized;
    /// * every new column enters nonbasic at its default bound (lower when
    ///   finite, else upper, else free-at-zero), and basic values are
    ///   recomputed in case a new column sits at a nonzero bound;
    /// * new columns get unit devex weights; the incremental reduced-cost
    ///   array is invalidated so the next pricing pass rebuilds it from a
    ///   fresh dual solve (the appended columns' reduced costs included).
    ///
    /// Logical (slack) variables keep their identity: their indices shift up by
    /// `cols.len()` because structural columns precede logicals in the
    /// per-variable ordering — callers holding a [`WarmStart`](super::WarmStart)
    /// from before the append can rebuild the equivalent start by splicing the
    /// new columns' statuses in at position `old_ncols`.
    pub fn add_columns(&mut self, cols: &[NewColumn]) -> LpResult<()> {
        if cols.is_empty() {
            return Ok(());
        }
        let old_nstruct = self.nstruct;
        for (idx, c) in cols.iter().enumerate() {
            check_column(
                old_nstruct + idx,
                &c.col,
                c.obj,
                (c.lower, c.upper),
                self.nrows,
            )?;
        }

        let k = cols.len();
        let sf = self.sf.to_mut();
        for c in cols {
            sf.cols.push(c.col.clone());
            sf.obj.push(c.obj);
            sf.lower.push(c.lower);
            sf.upper.push(c.upper);
        }

        // Per-variable arrays are ordered structurals-then-logicals, so the new
        // entries splice in *before* the logical block.
        let mut new_status = Vec::with_capacity(k);
        let mut new_x = Vec::with_capacity(k);
        let mut any_nonzero = false;
        for c in cols {
            let (st, v) = Self::default_nonbasic(c.lower, c.upper);
            any_nonzero |= v != 0.0;
            new_status.push(st);
            new_x.push(v);
        }
        self.status.splice(old_nstruct..old_nstruct, new_status);
        self.x.splice(old_nstruct..old_nstruct, new_x);
        self.lower
            .splice(old_nstruct..old_nstruct, cols.iter().map(|c| c.lower));
        self.upper
            .splice(old_nstruct..old_nstruct, cols.iter().map(|c| c.upper));
        self.weights
            .splice(old_nstruct..old_nstruct, std::iter::repeat_n(1.0, k));
        self.d
            .splice(old_nstruct..old_nstruct, std::iter::repeat_n(0.0, k));
        // Logical variable indices stored in the basis shift with the splice.
        for j in self.basis.iter_mut() {
            if *j >= old_nstruct {
                *j += k;
            }
        }
        self.nstruct += k;
        self.ntotal += k;
        self.alpha_buf.resize(self.ntotal);
        // Phase 2 and the dual phase expand the pivotal row from the row-wise
        // matrix copy; keep it current. The new columns are nonbasic, so each
        // entry joins its row's prefix.
        for (idx, c) in cols.iter().enumerate() {
            let j = old_nstruct + idx;
            for (i, v) in c.col.iter() {
                push_nonbasic(&mut self.a_rows[i], &mut self.nb_len[i], (j, v));
            }
        }
        // Candidate lists hold pre-splice indices; reduced costs must be rebuilt
        // so the appended columns price correctly.
        self.candidates.clear();
        self.d_fresh = false;
        if any_nonzero {
            self.recompute_basic_values();
        }
        Ok(())
    }

    /// Deactivates structural columns of a live session by **bound-fixing**:
    /// each column's bounds collapse to `[0, 0]`, its value snaps to zero, and
    /// — since pricing skips fixed columns entirely — it can never re-enter
    /// the basis. This is the session-level equivalent of deleting the column
    /// from the master: the storage stays (row indices and column numbering
    /// must remain stable for the session contract), but the LP the simplex
    /// works on no longer contains it.
    ///
    /// Only **nonbasic** columns are accepted: a basic column's value is
    /// determined by the factorization and fixing it would silently change the
    /// solution. Callers purge columns that have priced out and idled at zero
    /// for several rounds, so this is no restriction in practice. Columns that
    /// are already fixed are ignored. Errors on an out-of-range or basic
    /// column index before touching anything.
    pub fn deactivate_columns(&mut self, cols: &[usize]) -> LpResult<()> {
        if cols.is_empty() {
            return Ok(());
        }
        for &j in cols {
            if j >= self.nstruct {
                return Err(LpError::InvalidModel(format!(
                    "deactivation targets column {j} but the session has {} structural columns",
                    self.nstruct
                )));
            }
            if matches!(self.status[j], VarStatus::Basic(_)) {
                return Err(LpError::InvalidModel(format!(
                    "cannot deactivate basic column {j}"
                )));
            }
        }
        let sf = self.sf.to_mut();
        let mut any_moved = false;
        for &j in cols {
            sf.lower[j] = 0.0;
            sf.upper[j] = 0.0;
            self.lower[j] = 0.0;
            self.upper[j] = 0.0;
            any_moved |= self.x[j] != 0.0;
            self.x[j] = 0.0;
            self.status[j] = VarStatus::AtLower;
        }
        // The candidate list may hold now-fixed columns; the stored reduced
        // costs stay valid (the basis and costs are untouched) and eligibility
        // itself excludes fixed columns, so `d` needs no refresh.
        self.candidates.clear();
        if any_moved {
            self.recompute_basic_values();
        }
        Ok(())
    }

    /// Row duals `y` solving `Bᵀy = c_B` for the current basis and the phase-2
    /// (real) cost vector, dense in row space. A candidate column `a` with cost
    /// `c` prices to the reduced cost `c - yᵀa`; at optimality every nonbasic
    /// at-lower-bound column satisfies `c - yᵀa >= -tol`, which is the
    /// certificate column-generation callers test against.
    pub fn current_duals(&mut self) -> Vec<f64> {
        self.compute_duals(false);
        self.dual_buf.values().to_vec()
    }
}
