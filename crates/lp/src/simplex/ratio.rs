//! Ratio tests: the primal one over the pivot column, with the bound flip of
//! the entering column, and the dual bound-flipping walk over the pivotal row.
//!
//! The dual phase runs a **bound-flipping (long-step) ratio test**:
//! breakpoints are passed in ratio order while the dual slope lasts, and every
//! boxed column passed flips to its opposite bound in one aggregated FTRAN — a
//! single dual iteration can relocate many primal variables, which is what
//! kills degenerate plateaus.

use super::{Solver, VarStatus, PIVOT_TOL, TOL};
use crate::error::{LpError, LpResult};
use crate::sparse::SparseScratch;
use crate::INF;

impl Solver<'_> {
    /// Runs the primal ratio test for entering `q` moving in `direction` and
    /// applies the step. A bound flip of `q` completes the iteration and
    /// returns `None`; otherwise the leaving variable is moved onto the bound
    /// it hit, the devex bookkeeping is done against the outgoing basis, and
    /// the basis change for [`Self::commit_basis_change`] is returned as its
    /// position and leaving status. The pivot column `w = B^{-1} A_q` is in
    /// `self.col_buf`.
    pub(super) fn pivot_step(
        &mut self,
        q: usize,
        direction: f64,
        phase1: bool,
    ) -> LpResult<Option<(usize, VarStatus)>> {
        // Bound-flip limit for the entering variable itself: its range,
        // infinite unless it is boxed.
        let (lq, uq) = (self.lower[q], self.upper[q]);
        let flip_limit = uq - lq;

        // Ratio test over the nonzero pattern of the pivot column.
        let mut t_min = INF;
        let mut leaving: Option<(usize, f64)> = None; // (basic position, bound it hits)
        for (pos, wi) in self.col_buf.iter() {
            if wi.abs() <= PIVOT_TOL {
                continue;
            }
            let j = self.basis[pos];
            let v = self.x[j];
            let l = self.lower[j];
            let u = self.upper[j];
            // Rate of change of this basic variable per unit step of the entering one.
            let delta = -direction * wi;
            // The bound it stops at: in phase 1 an infeasible basic moves only
            // toward its bounds and stops at the violated one (the ratio is
            // positive there, so the clamp at 0 is idle).
            let viol = if phase1 { self.violation(j) } else { 0.0 };
            let (limit, bound) = if delta > PIVOT_TOL && viol <= 0.0 {
                let b = if viol < 0.0 { l } else { u };
                (((b - v) / delta).max(0.0), b)
            } else if delta < -PIVOT_TOL && viol >= 0.0 {
                let b = if viol > 0.0 { u } else { l };
                (((v - b) / (-delta)).max(0.0), b)
            } else {
                continue;
            };
            if bound.is_infinite() {
                continue;
            }

            let better = match leaving {
                None => limit < t_min,
                Some((cur_pos, _)) => {
                    if limit < t_min - PIVOT_TOL {
                        true
                    } else if limit <= t_min + PIVOT_TOL {
                        if self.use_bland {
                            self.basis[pos] < self.basis[cur_pos]
                        } else {
                            // Prefer the largest pivot magnitude for numerical stability.
                            self.col_buf.get(pos).abs() > self.col_buf.get(cur_pos).abs()
                        }
                    } else {
                        false
                    }
                }
            };
            if better {
                t_min = limit;
                leaving = Some((pos, bound));
            }
        }

        let t = t_min.min(flip_limit);
        if !t.is_finite() {
            return if phase1 {
                Err(LpError::Numerical(
                    "unbounded direction encountered during phase 1".into(),
                ))
            } else {
                Err(LpError::Unbounded)
            };
        }

        // Degeneracy bookkeeping, before the devex update below reads Bland.
        self.note_step(t <= TOL);
        self.apply_step(q, direction * t);

        if flip_limit <= t_min {
            // Bound flip: the entering variable moves to its opposite bound; the
            // basis (and therefore the devex framework) is unchanged.
            self.status[q] = if direction > 0.0 {
                VarStatus::AtUpper
            } else {
                VarStatus::AtLower
            };
            self.x[q] = if direction > 0.0 { uq } else { lq };
            return Ok(None);
        }

        let (r, bound) = leaving.expect("finite ratio implies a leaving variable");
        let alpha_q = self.col_buf.get(r);
        if alpha_q.abs() <= PIVOT_TOL {
            return Err(LpError::Numerical(format!(
                "pivot magnitude {alpha_q} too small at basis position {r}"
            )));
        }

        // The leaving variable exits exactly at the bound it hit.
        let leaving_var = self.basis[r];
        self.x[leaving_var] = bound;
        let leaving_status =
            if (bound - self.lower[leaving_var]).abs() <= (bound - self.upper[leaving_var]).abs() {
                VarStatus::AtLower
            } else {
                VarStatus::AtUpper
            };

        // Devex/reduced-cost bookkeeping must run against the *outgoing* basis
        // inverse, before the basis change is committed. Phase 2 always updates
        // (its `d` array must track every basis change); phase 1 skips the
        // candidate-list weights under Bland.
        if !phase1 {
            self.update_incremental(q, r, alpha_q, leaving_var);
        } else if !self.use_bland {
            self.update_devex_weights(q, r, alpha_q, leaving_var);
        }
        Ok(Some((r, leaving_status)))
    }

    /// Dual ratio-test breakpoint of column `j` of the pivotal row (`aj`, a
    /// nonbasic column by construction of the row): `Some(ratio)` when the
    /// column's reduced cost moves toward its sign limit as the dual step
    /// grows — the sign rule applied to `-abar` at `PIVOT_TOL`, so `|aj|`
    /// exceeds it. `abar = σ·alpha_j` normalizes both leaving directions to
    /// one sign convention, so an eligible column always has ratio
    /// `d_j / abar >= 0` (clamped — a within-tolerance dual violation must not
    /// produce a negative step).
    #[inline]
    fn dual_breakpoint(&self, j: usize, aj: f64, sigma: f64) -> Option<f64> {
        let abar = sigma * aj;
        self.eligibility_from(j, -abar, PIVOT_TOL)
            .map(|_| (self.d[j] / abar).max(0.0))
    }

    /// The dual ratio test over the pivotal row `alpha` of a leaving row with
    /// signed violation `viol` (`sigma` its sign): the entering column and its
    /// dual step `theta`, or `None` when no column has a breakpoint (the dual
    /// is unbounded). The boxed columns the long step passes are flipped to
    /// their opposite bounds before it returns. `breaks` and `flips` are the
    /// caller's scratch.
    ///
    /// The minimum ratio (ties by smallest index — the same order the sorted
    /// walk uses) is tracked inline and the breakpoints are only counted: on
    /// LPs whose columns are mostly unboxed the walk cannot pass the first
    /// breakpoint anyway, and neither the list nor its O(B log B) sort is
    /// needed. Bland's mode takes that minimum directly, with no long step.
    /// Otherwise, when the minimum-ratio breakpoint is boxed, a second pass
    /// collects the breakpoints in ratio order and walks them, flipping boxed
    /// ones while the slope survives them; the breakpoint the slope dies on
    /// (or the first unboxed one) enters.
    pub(super) fn dual_ratio_test(
        &mut self,
        alpha: &SparseScratch,
        sigma: f64,
        viol: f64,
        breaks: &mut Vec<(usize, f64)>,
        flips: &mut Vec<usize>,
    ) -> Option<(usize, f64)> {
        let mut q_min = usize::MAX;
        let mut r_min = f64::INFINITY;
        let mut nbreaks = 0usize;
        for (j, aj) in alpha.iter() {
            let Some(ratio) = self.dual_breakpoint(j, aj, sigma) else {
                continue;
            };
            if ratio < r_min || (ratio == r_min && j < q_min) {
                r_min = ratio;
                q_min = j;
            }
            nbreaks += 1;
        }
        flips.clear();
        if nbreaks == 0 {
            return None;
        }
        let mut entering = (q_min, r_min);
        if !self.use_bland && nbreaks > 1 && (self.upper[q_min] - self.lower[q_min]).is_finite() {
            breaks.clear();
            breaks.extend(
                alpha.iter().filter_map(|(j, aj)| {
                    self.dual_breakpoint(j, aj, sigma).map(|ratio| (j, ratio))
                }),
            );
            breaks.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
            let mut slope = viol.abs();
            for (idx, &(j, ratio)) in breaks.iter().enumerate() {
                entering = (j, ratio);
                let range = self.upper[j] - self.lower[j];
                if !range.is_finite() || idx == breaks.len() - 1 {
                    break;
                }
                let next_slope = slope - (sigma * alpha.get(j)).abs() * range;
                if next_slope <= 0.0 {
                    break;
                }
                flips.push(j);
                slope = next_slope;
            }
        }
        if !flips.is_empty() {
            self.apply_bound_flips(flips);
        }
        Some(entering)
    }

    /// Moves every column in `flips` to its opposite bound and the basic
    /// variables with them, in one aggregated solve of the combined column
    /// delta.
    fn apply_bound_flips(&mut self, flips: &[usize]) {
        let mut rhs = self.take_zeroed_rhs();
        for &j in flips {
            let (l, u) = (self.lower[j], self.upper[j]);
            let (st, v) = match self.status[j] {
                VarStatus::AtLower => (VarStatus::AtUpper, u),
                VarStatus::AtUpper => (VarStatus::AtLower, l),
                _ => unreachable!("only boxed bound columns flip"),
            };
            let delta = v - self.x[j];
            if delta != 0.0 {
                self.scatter_col(j, delta, &mut rhs);
            }
            self.status[j] = st;
            self.x[j] = v;
        }
        self.lu.solve(&mut rhs, &mut self.lu_scratch);
        for (pos, &jb) in self.basis.iter().enumerate() {
            if rhs[pos] != 0.0 {
                self.x[jb] -= rhs[pos];
            }
        }
        self.rhs_buf = rhs;
    }
}
