//! A small modelling layer for linear programs.
//!
//! [`LpProblem`] lets callers declare variables with bounds and objective coefficients,
//! add linear constraints, and solve the model with the bounded-variable revised simplex
//! in [`crate::simplex`]. The model is deliberately minimal: the flow formulations in
//! the all-to-all toolchain only need named variables, `<=`/`>=`/`==` rows and a linear
//! objective.

use crate::error::{LpError, LpResult};
use crate::simplex::{self, SimplexOptions, StandardForm};
use crate::sparse::SparseVec;
use crate::INF;

/// Handle to a variable in an [`LpProblem`].
///
/// The handle is only meaningful for the problem that created it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub(crate) usize);

impl VarId {
    /// Index of the variable inside its problem (also the index into
    /// [`LpSolution::values`]).
    pub fn index(self) -> usize {
        self.0
    }
}

/// Direction of optimization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// Minimize the objective function.
    Minimize,
    /// Maximize the objective function.
    Maximize,
}

/// Sense of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConstraintSense {
    /// `a'x <= rhs`
    Le,
    /// `a'x >= rhs`
    Ge,
    /// `a'x == rhs`
    Eq,
}

/// Termination status of a solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveStatus {
    /// An optimal basic solution was found.
    Optimal,
}

#[derive(Debug, Clone)]
struct Constraint {
    coeffs: Vec<(usize, f64)>,
    sense: ConstraintSense,
    rhs: f64,
}

/// A linear program with bounded variables and linear constraints.
#[derive(Debug, Clone)]
pub struct LpProblem {
    objective: Objective,
    obj_coeffs: Vec<f64>,
    lower: Vec<f64>,
    upper: Vec<f64>,
    names: Vec<String>,
    constraints: Vec<Constraint>,
}

/// Solution of an [`LpProblem`].
#[derive(Debug, Clone)]
pub struct LpSolution {
    /// Objective value in the user's optimization sense.
    pub objective_value: f64,
    /// Value of each variable, indexed by [`VarId::index`].
    pub values: Vec<f64>,
    /// Activity (left-hand-side value) of each constraint, in insertion order.
    pub row_activity: Vec<f64>,
    /// Termination status.
    pub status: SolveStatus,
    /// Total simplex iterations (both phases).
    pub iterations: usize,
    /// Iterations spent in the dual-simplex phase (a subset of `iterations`;
    /// nonzero exactly when the dual phase ran — see
    /// [`crate::simplex::DualSimplex`]).
    pub dual_iterations: usize,
    /// Basis changes performed (iterations minus bound flips).
    pub pivots: usize,
    /// Basis refactorizations performed during the solve.
    pub refactorizations: usize,
    /// Final simplex basis: structural variables in [`VarId::index`] order followed
    /// by one logical variable per constraint. Feed it back through
    /// [`crate::SimplexOptions::warm_start`] to re-solve this (or a structurally
    /// identical) problem without a cold phase-1 start.
    pub basis: crate::simplex::WarmStart,
}

impl LpSolution {
    /// Value of a single variable.
    pub fn value(&self, var: VarId) -> f64 {
        self.values[var.0]
    }
}

impl LpProblem {
    /// Creates an empty problem with the given optimization sense.
    pub fn new(objective: Objective) -> Self {
        Self {
            objective,
            obj_coeffs: Vec::new(),
            lower: Vec::new(),
            upper: Vec::new(),
            names: Vec::new(),
            constraints: Vec::new(),
        }
    }

    /// Creates an empty minimization problem.
    pub fn minimize() -> Self {
        Self::new(Objective::Minimize)
    }

    /// Creates an empty maximization problem.
    pub fn maximize() -> Self {
        Self::new(Objective::Maximize)
    }

    /// Optimization sense of this problem.
    pub fn objective(&self) -> Objective {
        self.objective
    }

    /// Adds a variable with bounds `[lower, upper]` and objective coefficient `obj`.
    ///
    /// Use [`crate::INF`] / `-INF` for unbounded directions.
    pub fn add_var(&mut self, name: impl Into<String>, lower: f64, upper: f64, obj: f64) -> VarId {
        let id = VarId(self.obj_coeffs.len());
        self.obj_coeffs.push(obj);
        self.lower.push(lower);
        self.upper.push(upper);
        self.names.push(name.into());
        id
    }

    /// Adds a non-negative variable (`[0, +inf)`) with objective coefficient `obj`.
    pub fn add_nonneg_var(&mut self, name: impl Into<String>, obj: f64) -> VarId {
        self.add_var(name, 0.0, INF, obj)
    }

    /// Overwrites the objective coefficient of an existing variable.
    pub fn set_obj_coeff(&mut self, var: VarId, obj: f64) {
        self.obj_coeffs[var.0] = obj;
    }

    /// Overwrites the bounds of an existing variable.
    pub fn set_bounds(&mut self, var: VarId, lower: f64, upper: f64) {
        self.lower[var.0] = lower;
        self.upper[var.0] = upper;
    }

    /// Lower bound of a variable.
    pub fn lower_bound(&self, var: VarId) -> f64 {
        self.lower[var.0]
    }

    /// Upper bound of a variable.
    pub fn upper_bound(&self, var: VarId) -> f64 {
        self.upper[var.0]
    }

    /// Name given to a variable at creation time.
    pub fn var_name(&self, var: VarId) -> &str {
        &self.names[var.0]
    }

    /// Appends a variable together with its coefficients in *existing*
    /// constraint rows — the post-construction "add column" entry point that
    /// column generation builds on ([`Self::add_var`] can only reach rows added
    /// after it).
    ///
    /// `entries` are `(constraint row index, coefficient)` pairs; duplicate row
    /// references are summed like duplicate variable references in
    /// [`Self::add_constraint`]. After appending columns, re-solve with
    /// [`Self::resolve_with`] to continue from a basis exported *before* the
    /// append instead of paying for a cold start.
    ///
    /// # Panics
    /// Panics if an entry references a constraint that does not exist yet.
    pub fn add_column(
        &mut self,
        name: impl Into<String>,
        lower: f64,
        upper: f64,
        obj: f64,
        entries: impl IntoIterator<Item = (usize, f64)>,
    ) -> VarId {
        let var = self.add_var(name, lower, upper, obj);
        for (row, coeff) in entries {
            assert!(
                row < self.constraints.len(),
                "add_column entry references constraint {row} but only {} exist",
                self.constraints.len()
            );
            self.constraints[row].coeffs.push((var.0, coeff));
        }
        var
    }

    /// Adds the constraint `sum coeffs[i].1 * coeffs[i].0  (sense)  rhs`.
    ///
    /// Duplicate variable references are summed. Returns the row index.
    pub fn add_constraint(
        &mut self,
        coeffs: impl IntoIterator<Item = (VarId, f64)>,
        sense: ConstraintSense,
        rhs: f64,
    ) -> usize {
        let coeffs: Vec<(usize, f64)> = coeffs.into_iter().map(|(v, c)| (v.0, c)).collect();
        self.constraints.push(Constraint { coeffs, sense, rhs });
        self.constraints.len() - 1
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.obj_coeffs.len()
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    fn validate(&self) -> LpResult<()> {
        for (i, (&l, &u)) in self.lower.iter().zip(&self.upper).enumerate() {
            if l.is_nan() || u.is_nan() {
                return Err(LpError::InvalidModel(format!(
                    "variable {} ({}) has NaN bounds",
                    i, self.names[i]
                )));
            }
            if l > u {
                return Err(LpError::InvalidModel(format!(
                    "variable {} ({}) has lower bound {} > upper bound {}",
                    i, self.names[i], l, u
                )));
            }
        }
        for (c, con) in self.constraints.iter().enumerate() {
            if !con.rhs.is_finite() {
                return Err(LpError::InvalidModel(format!(
                    "constraint {c} has non-finite right-hand side"
                )));
            }
            for &(v, coeff) in &con.coeffs {
                if v >= self.num_vars() {
                    return Err(LpError::InvalidModel(format!(
                        "constraint {c} references unknown variable index {v}"
                    )));
                }
                if !coeff.is_finite() {
                    return Err(LpError::InvalidModel(format!(
                        "constraint {c} has a non-finite coefficient on variable {v}"
                    )));
                }
            }
        }
        for (i, &c) in self.obj_coeffs.iter().enumerate() {
            if !c.is_finite() {
                return Err(LpError::InvalidModel(format!(
                    "objective coefficient of variable {i} is not finite"
                )));
            }
        }
        Ok(())
    }

    /// Lowers the model to the equality standard form consumed by the simplex solver.
    pub fn to_standard_form(&self) -> LpResult<StandardForm> {
        self.validate()?;
        let nrows = self.constraints.len();
        let nvars = self.num_vars();

        // Column-wise constraint matrix.
        let mut per_col: Vec<Vec<(usize, f64)>> = vec![Vec::new(); nvars];
        for (r, con) in self.constraints.iter().enumerate() {
            for &(v, c) in &con.coeffs {
                per_col[v].push((r, c));
            }
        }
        let cols: Vec<SparseVec> = per_col.into_iter().map(SparseVec::from_entries).collect();

        let sign = match self.objective {
            Objective::Minimize => 1.0,
            Objective::Maximize => -1.0,
        };
        let obj: Vec<f64> = self.obj_coeffs.iter().map(|&c| sign * c).collect();

        let mut row_lower = Vec::with_capacity(nrows);
        let mut row_upper = Vec::with_capacity(nrows);
        for con in &self.constraints {
            match con.sense {
                ConstraintSense::Le => {
                    row_lower.push(-INF);
                    row_upper.push(con.rhs);
                }
                ConstraintSense::Ge => {
                    row_lower.push(con.rhs);
                    row_upper.push(INF);
                }
                ConstraintSense::Eq => {
                    row_lower.push(con.rhs);
                    row_upper.push(con.rhs);
                }
            }
        }

        Ok(StandardForm {
            nrows,
            cols,
            obj,
            lower: self.lower.clone(),
            upper: self.upper.clone(),
            row_lower,
            row_upper,
        })
    }

    /// Solves the problem with default [`SimplexOptions`].
    pub fn solve(&self) -> LpResult<LpSolution> {
        self.solve_with(&SimplexOptions::default())
    }

    /// Re-solves the problem from a basis exported by an earlier solve of this
    /// same problem — possibly *before* columns were appended with
    /// [`Self::add_column`].
    ///
    /// The number of variables the exporting solve saw is inferred from the
    /// basis length (`statuses.len() - num_constraints`); statuses for the
    /// variables appended since then are spliced in as nonbasic at their
    /// default bound, exactly mirroring what [`crate::simplex::Solver::add_columns`]
    /// does to a live session. The extended basis is then handed to
    /// [`Self::solve_with`] as a warm start; any `warm_start` already present in
    /// `options` is replaced.
    ///
    /// The constraint set must be unchanged since the basis was exported; only
    /// columns may have been appended.
    pub fn resolve_with(
        &self,
        basis: &crate::simplex::WarmStart,
        options: &SimplexOptions,
    ) -> LpResult<LpSolution> {
        let nrows = self.num_constraints();
        let nvars = self.num_vars();
        let prev_vars = basis
            .statuses
            .len()
            .checked_sub(nrows)
            .filter(|&p| p <= nvars)
            .ok_or_else(|| {
                LpError::InvalidModel(format!(
                    "basis has {} statuses; expected between {} and {} for this model",
                    basis.statuses.len(),
                    nrows,
                    nvars + nrows
                ))
            })?;
        let mut statuses = Vec::with_capacity(nvars + nrows);
        statuses.extend_from_slice(&basis.statuses[..prev_vars]);
        for j in prev_vars..nvars {
            let (l, u) = (self.lower[j], self.upper[j]);
            statuses.push(if l.is_infinite() && u.is_infinite() {
                crate::simplex::BasisStatus::Free
            } else if l.is_infinite() {
                crate::simplex::BasisStatus::AtUpper
            } else if u.is_infinite() || l.abs() <= u.abs() {
                crate::simplex::BasisStatus::AtLower
            } else {
                crate::simplex::BasisStatus::AtUpper
            });
        }
        statuses.extend_from_slice(&basis.statuses[prev_vars..]);
        let opts = SimplexOptions {
            warm_start: Some(crate::simplex::WarmStart { statuses }),
            ..options.clone()
        };
        self.solve_with(&opts)
    }

    /// Recovers the constraint-row duals (shadow prices) of a solution: `y[i]`
    /// is the sensitivity of the optimal objective *in this problem's
    /// optimization sense* to the right-hand side of row `i` — for a
    /// maximization problem a binding `<=` capacity row gets `y[i] >= 0`, and a
    /// variable's reduced cost is `c_j - sum_i y[i] a_ij` (non-positive for
    /// at-lower-bound nonbasic variables at a maximum).
    ///
    /// The solution's exported basis is factorized once for the transposed dual
    /// solve ([`crate::simplex::recover_row_duals`]).
    pub fn row_duals(&self, solution: &LpSolution) -> LpResult<Vec<f64>> {
        let sf = self.to_standard_form()?;
        let y = simplex::recover_row_duals(&sf, &solution.basis)?;
        let sign = match self.objective {
            Objective::Minimize => 1.0,
            Objective::Maximize => -1.0,
        };
        Ok(y.into_iter().map(|v| sign * v).collect())
    }

    /// Solves the problem with explicit solver options.
    pub fn solve_with(&self, options: &SimplexOptions) -> LpResult<LpSolution> {
        let sf = self.to_standard_form()?;
        let sol = simplex::solve(&sf, options)?;
        let sign = match self.objective {
            Objective::Minimize => 1.0,
            Objective::Maximize => -1.0,
        };
        Ok(LpSolution {
            objective_value: sign * sol.objective,
            values: sol.x,
            row_activity: sol.row_activity,
            status: SolveStatus::Optimal,
            iterations: sol.iterations,
            dual_iterations: sol.dual_iterations,
            pivots: sol.pivots,
            refactorizations: sol.refactorizations,
            basis: sol.basis,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_two_variable_maximization() {
        // max 3x + 5y  s.t. x <= 4, 2y <= 12, 3x + 2y <= 18, x,y >= 0.
        // Classic textbook problem: optimum 36 at (2, 6).
        let mut lp = LpProblem::maximize();
        let x = lp.add_nonneg_var("x", 3.0);
        let y = lp.add_nonneg_var("y", 5.0);
        lp.add_constraint([(x, 1.0)], ConstraintSense::Le, 4.0);
        lp.add_constraint([(y, 2.0)], ConstraintSense::Le, 12.0);
        lp.add_constraint([(x, 3.0), (y, 2.0)], ConstraintSense::Le, 18.0);
        let sol = lp.solve().unwrap();
        assert!(
            (sol.objective_value - 36.0).abs() < 1e-6,
            "{}",
            sol.objective_value
        );
        assert!((sol.value(x) - 2.0).abs() < 1e-6);
        assert!((sol.value(y) - 6.0).abs() < 1e-6);
    }

    #[test]
    fn equality_constraints_and_minimization() {
        // min x + 2y s.t. x + y == 10, x - y >= 2, x,y >= 0. Optimum at y as small as
        // possible: x - y >= 2 and x + y = 10 -> y <= 4 -> y = 4? No: minimizing x + 2y
        // with x = 10 - y gives 10 + y, so y = 0, x = 10 (satisfies x - y = 10 >= 2).
        let mut lp = LpProblem::minimize();
        let x = lp.add_nonneg_var("x", 1.0);
        let y = lp.add_nonneg_var("y", 2.0);
        lp.add_constraint([(x, 1.0), (y, 1.0)], ConstraintSense::Eq, 10.0);
        lp.add_constraint([(x, 1.0), (y, -1.0)], ConstraintSense::Ge, 2.0);
        let sol = lp.solve().unwrap();
        assert!((sol.objective_value - 10.0).abs() < 1e-6);
        assert!((sol.value(x) - 10.0).abs() < 1e-6);
        assert!(sol.value(y).abs() < 1e-6);
    }

    #[test]
    fn bounded_variables_are_respected() {
        // max x + y with 1 <= x <= 3, -2 <= y <= 5, x + y <= 6.
        let mut lp = LpProblem::maximize();
        let x = lp.add_var("x", 1.0, 3.0, 1.0);
        let y = lp.add_var("y", -2.0, 5.0, 1.0);
        lp.add_constraint([(x, 1.0), (y, 1.0)], ConstraintSense::Le, 6.0);
        let sol = lp.solve().unwrap();
        assert!((sol.objective_value - 6.0).abs() < 1e-6);
        assert!(sol.value(x) >= 1.0 - 1e-9 && sol.value(x) <= 3.0 + 1e-9);
        assert!(sol.value(y) >= -2.0 - 1e-9 && sol.value(y) <= 5.0 + 1e-9);
    }

    #[test]
    fn infeasible_problem_is_reported() {
        let mut lp = LpProblem::minimize();
        let x = lp.add_nonneg_var("x", 1.0);
        lp.add_constraint([(x, 1.0)], ConstraintSense::Le, 1.0);
        lp.add_constraint([(x, 1.0)], ConstraintSense::Ge, 2.0);
        assert_eq!(lp.solve().unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn unbounded_problem_is_reported() {
        let mut lp = LpProblem::maximize();
        let x = lp.add_nonneg_var("x", 1.0);
        let y = lp.add_nonneg_var("y", 0.0);
        lp.add_constraint([(x, 1.0), (y, -1.0)], ConstraintSense::Le, 1.0);
        assert_eq!(lp.solve().unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn invalid_bounds_rejected() {
        let mut lp = LpProblem::minimize();
        lp.add_var("x", 2.0, 1.0, 1.0);
        assert!(matches!(lp.solve(), Err(LpError::InvalidModel(_))));
    }

    #[test]
    fn free_variables_work() {
        // min x subject to x >= -5 via constraint (variable itself is free).
        let mut lp = LpProblem::minimize();
        let x = lp.add_var("x", -INF, INF, 1.0);
        lp.add_constraint([(x, 1.0)], ConstraintSense::Ge, -5.0);
        let sol = lp.solve().unwrap();
        assert!((sol.objective_value + 5.0).abs() < 1e-6);
    }

    #[test]
    fn duplicate_coefficients_are_summed() {
        // max x s.t. 0.5x + 0.5x <= 3  ->  x <= 3.
        let mut lp = LpProblem::maximize();
        let x = lp.add_nonneg_var("x", 1.0);
        lp.add_constraint([(x, 0.5), (x, 0.5)], ConstraintSense::Le, 3.0);
        let sol = lp.solve().unwrap();
        assert!((sol.objective_value - 3.0).abs() < 1e-6);
    }

    #[test]
    fn row_activity_is_reported() {
        let mut lp = LpProblem::maximize();
        let x = lp.add_nonneg_var("x", 1.0);
        let y = lp.add_nonneg_var("y", 1.0);
        lp.add_constraint([(x, 1.0), (y, 2.0)], ConstraintSense::Le, 4.0);
        lp.add_constraint([(x, 1.0)], ConstraintSense::Le, 2.0);
        let sol = lp.solve().unwrap();
        assert_eq!(sol.row_activity.len(), 2);
        assert!(sol.row_activity[0] <= 4.0 + 1e-7);
        assert!(sol.row_activity[1] <= 2.0 + 1e-7);
    }

    #[test]
    fn add_column_reaches_existing_rows() {
        // max x s.t. x <= 4, x <= 3: optimum 3. Then append y with coefficient 1
        // in the first row only and objective 2: max x + 2y, x + y <= 4, x <= 3
        // -> optimum 8 at (0, 4).
        let mut lp = LpProblem::maximize();
        let x = lp.add_nonneg_var("x", 1.0);
        let r0 = lp.add_constraint([(x, 1.0)], ConstraintSense::Le, 4.0);
        lp.add_constraint([(x, 1.0)], ConstraintSense::Le, 3.0);
        let first = lp.solve().unwrap();
        assert!((first.objective_value - 3.0).abs() < 1e-7);

        let y = lp.add_column("y", 0.0, INF, 2.0, [(r0, 1.0)]);
        let second = lp
            .resolve_with(&first.basis, &SimplexOptions::default())
            .unwrap();
        assert!(
            (second.objective_value - 8.0).abs() < 1e-7,
            "{}",
            second.objective_value
        );
        assert!((second.value(y) - 4.0).abs() < 1e-7);

        // The warm resolve must agree with a cold solve of the extended model.
        let cold = lp.solve().unwrap();
        assert!((cold.objective_value - second.objective_value).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "references constraint")]
    fn add_column_rejects_missing_rows() {
        let mut lp = LpProblem::maximize();
        lp.add_nonneg_var("x", 1.0);
        lp.add_column("y", 0.0, INF, 1.0, [(0, 1.0)]);
    }

    #[test]
    fn resolve_with_rejects_malformed_basis() {
        let mut lp = LpProblem::maximize();
        let x = lp.add_nonneg_var("x", 1.0);
        lp.add_constraint([(x, 1.0)], ConstraintSense::Le, 1.0);
        let bad = crate::simplex::WarmStart {
            statuses: Vec::new(),
        };
        assert!(matches!(
            lp.resolve_with(&bad, &SimplexOptions::default()),
            Err(LpError::InvalidModel(_))
        ));
    }

    #[test]
    fn row_duals_match_shadow_prices() {
        // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18. Binding rows 2 and 3
        // have the textbook shadow prices 3/2 and 1; row 1 is slack (dual 0).
        let mut lp = LpProblem::maximize();
        let x = lp.add_nonneg_var("x", 3.0);
        let y = lp.add_nonneg_var("y", 5.0);
        lp.add_constraint([(x, 1.0)], ConstraintSense::Le, 4.0);
        lp.add_constraint([(y, 2.0)], ConstraintSense::Le, 12.0);
        lp.add_constraint([(x, 3.0), (y, 2.0)], ConstraintSense::Le, 18.0);
        let sol = lp.solve().unwrap();
        let duals = lp.row_duals(&sol).unwrap();
        assert!(duals[0].abs() < 1e-7, "{duals:?}");
        assert!((duals[1] - 1.5).abs() < 1e-7, "{duals:?}");
        assert!((duals[2] - 1.0).abs() < 1e-7, "{duals:?}");
        // Reduced costs of the basic structurals are zero: c_j == y' a_j.
        assert!((3.0 - (duals[0] + 3.0 * duals[2])).abs() < 1e-7);
        assert!((5.0 - (2.0 * duals[1] + 2.0 * duals[2])).abs() < 1e-7);
    }

    #[test]
    fn row_duals_minimize_sign_convention() {
        // min x + 2y s.t. x + y >= 4, y >= 1. Optimum (3, 1), objective 5.
        // Raising the first rhs by delta raises the minimum by delta: dual 1.
        let mut lp = LpProblem::minimize();
        let x = lp.add_nonneg_var("x", 1.0);
        let y = lp.add_nonneg_var("y", 2.0);
        lp.add_constraint([(x, 1.0), (y, 1.0)], ConstraintSense::Ge, 4.0);
        lp.add_constraint([(y, 1.0)], ConstraintSense::Ge, 1.0);
        let sol = lp.solve().unwrap();
        assert!((sol.objective_value - 5.0).abs() < 1e-7);
        let duals = lp.row_duals(&sol).unwrap();
        assert!((duals[0] - 1.0).abs() < 1e-7, "{duals:?}");
        assert!((duals[1] - 1.0).abs() < 1e-7, "{duals:?}");
    }

    #[test]
    fn names_and_metadata_accessible() {
        let mut lp = LpProblem::minimize();
        let x = lp.add_var("flow_0_1", 0.0, 2.0, 1.5);
        assert_eq!(lp.var_name(x), "flow_0_1");
        assert_eq!(lp.lower_bound(x), 0.0);
        assert_eq!(lp.upper_bound(x), 2.0);
        assert_eq!(lp.num_vars(), 1);
        assert_eq!(lp.num_constraints(), 0);
        assert_eq!(x.index(), 0);
    }
}
