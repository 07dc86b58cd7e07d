//! The row builder: declare bounded variables and linear rows, then lower them
//! once to the [`StandardForm`] the simplex consumes.
//!
//! The flow formulations write their LPs row by row — a `<=`, `>=` or `==`
//! constraint over [`VarId`]s at a time — while the simplex wants one sparse
//! column per variable. [`LpProblem`] collects the rows and
//! [`LpProblem::to_standard_form`] transposes them; it has no solve of its own.
//! The caller hands the standard form to [`crate::simplex::solve`] (or holds a
//! [`crate::simplex::Solver`] on it) and reads the
//! [`crate::StandardSolution`]'s `x` by [`VarId::index`]. The objective is
//! minimized: a maximizing builder writes the negated cost.

use crate::error::{LpError, LpResult};
use crate::simplex::StandardForm;
use crate::sparse::SparseVec;
use crate::INF;

/// Handle to a variable in an [`LpProblem`].
///
/// The handle is only meaningful for the problem that created it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(usize);

impl VarId {
    /// Index of the variable inside its problem: its column in the lowered
    /// [`StandardForm`] and its entry in [`crate::StandardSolution::x`].
    pub fn index(self) -> usize {
        self.0
    }
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

#[derive(Debug, Clone)]
struct Constraint {
    coeffs: Vec<(usize, f64)>,
    sense: ConstraintSense,
    rhs: f64,
}

/// A minimization LP under construction: bounded variables with costs, and
/// linear rows over them.
#[derive(Debug, Clone, Default)]
pub struct LpProblem {
    obj: Vec<f64>,
    lower: Vec<f64>,
    upper: Vec<f64>,
    constraints: Vec<Constraint>,
}

impl LpProblem {
    /// Creates an empty problem.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a variable with bounds `[lower, upper]` and objective coefficient `obj`.
    ///
    /// Use [`crate::INF`] / `-INF` for unbounded directions.
    pub fn add_var(&mut self, lower: f64, upper: f64, obj: f64) -> VarId {
        let id = VarId(self.obj.len());
        self.obj.push(obj);
        self.lower.push(lower);
        self.upper.push(upper);
        id
    }

    /// Adds a non-negative variable (`[0, +inf)`) with objective coefficient `obj`.
    pub fn add_nonneg_var(&mut self, obj: f64) -> VarId {
        self.add_var(0.0, INF, obj)
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
    fn num_vars(&self) -> usize {
        self.obj.len()
    }

    /// Lowers the rows to the column-wise standard form: variable `v` becomes
    /// column `v.index()` and constraint `r` row `r`, with row bounds
    /// `(-inf, rhs]`, `[rhs, inf)` or `[rhs, rhs]` by its sense.
    ///
    /// The only check made here is the one [`crate::simplex::Solver::new`]
    /// cannot make: a [`VarId`] from another problem is an
    /// [`LpError::InvalidModel`]. Bounds, costs and coefficients are checked
    /// once, by the solver.
    pub fn to_standard_form(&self) -> LpResult<StandardForm> {
        let nrows = self.constraints.len();
        let mut per_col: Vec<Vec<(usize, f64)>> = vec![Vec::new(); self.num_vars()];
        let mut row_lower = Vec::with_capacity(nrows);
        let mut row_upper = Vec::with_capacity(nrows);
        for (r, con) in self.constraints.iter().enumerate() {
            for &(v, c) in &con.coeffs {
                let col = per_col.get_mut(v).ok_or_else(|| {
                    LpError::InvalidModel(format!(
                        "constraint {r} references unknown variable index {v}"
                    ))
                })?;
                col.push((r, c));
            }
            let (lo, up) = match con.sense {
                ConstraintSense::Le => (-INF, con.rhs),
                ConstraintSense::Ge => (con.rhs, INF),
                ConstraintSense::Eq => (con.rhs, con.rhs),
            };
            row_lower.push(lo);
            row_upper.push(up);
        }
        Ok(StandardForm {
            nrows,
            cols: per_col.into_iter().map(SparseVec::from_entries).collect(),
            obj: self.obj.clone(),
            lower: self.lower.clone(),
            upper: self.upper.clone(),
            row_lower,
            row_upper,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simplex::{self, SimplexOptions, StandardSolution};

    fn solve(lp: &LpProblem) -> LpResult<StandardSolution> {
        simplex::solve(&lp.to_standard_form()?, &SimplexOptions::default())
    }

    #[test]
    fn simple_two_variable_maximization() {
        // max 3x + 5y  s.t. x <= 4, 2y <= 12, 3x + 2y <= 18, x,y >= 0.
        // Classic textbook problem: optimum 36 at (2, 6), written as min -3x - 5y.
        let mut lp = LpProblem::new();
        let x = lp.add_nonneg_var(-3.0);
        let y = lp.add_nonneg_var(-5.0);
        lp.add_constraint([(x, 1.0)], ConstraintSense::Le, 4.0);
        lp.add_constraint([(y, 2.0)], ConstraintSense::Le, 12.0);
        lp.add_constraint([(x, 3.0), (y, 2.0)], ConstraintSense::Le, 18.0);
        let sol = solve(&lp).unwrap();
        assert!((sol.objective + 36.0).abs() < 1e-6, "{}", sol.objective);
        assert!((sol.x[x.index()] - 2.0).abs() < 1e-6);
        assert!((sol.x[y.index()] - 6.0).abs() < 1e-6);
    }

    #[test]
    fn equality_constraints_and_minimization() {
        // min x + 2y s.t. x + y == 10, x - y >= 2, x,y >= 0. Optimum at y as small as
        // possible: x - y >= 2 and x + y = 10 -> y <= 4 -> y = 4? No: minimizing x + 2y
        // with x = 10 - y gives 10 + y, so y = 0, x = 10 (satisfies x - y = 10 >= 2).
        let mut lp = LpProblem::new();
        let x = lp.add_nonneg_var(1.0);
        let y = lp.add_nonneg_var(2.0);
        lp.add_constraint([(x, 1.0), (y, 1.0)], ConstraintSense::Eq, 10.0);
        lp.add_constraint([(x, 1.0), (y, -1.0)], ConstraintSense::Ge, 2.0);
        let sol = solve(&lp).unwrap();
        assert!((sol.objective - 10.0).abs() < 1e-6);
        assert!((sol.x[x.index()] - 10.0).abs() < 1e-6);
        assert!(sol.x[y.index()].abs() < 1e-6);
    }

    #[test]
    fn bounded_variables_are_respected() {
        // max x + y with 1 <= x <= 3, -2 <= y <= 5, x + y <= 6.
        let mut lp = LpProblem::new();
        let x = lp.add_var(1.0, 3.0, -1.0);
        let y = lp.add_var(-2.0, 5.0, -1.0);
        lp.add_constraint([(x, 1.0), (y, 1.0)], ConstraintSense::Le, 6.0);
        let sol = solve(&lp).unwrap();
        assert!((sol.objective + 6.0).abs() < 1e-6);
        let (xv, yv) = (sol.x[x.index()], sol.x[y.index()]);
        assert!((1.0 - 1e-9..=3.0 + 1e-9).contains(&xv));
        assert!((-2.0 - 1e-9..=5.0 + 1e-9).contains(&yv));
    }

    #[test]
    fn infeasible_problem_is_reported() {
        let mut lp = LpProblem::new();
        let x = lp.add_nonneg_var(1.0);
        lp.add_constraint([(x, 1.0)], ConstraintSense::Le, 1.0);
        lp.add_constraint([(x, 1.0)], ConstraintSense::Ge, 2.0);
        assert_eq!(solve(&lp).unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn unbounded_problem_is_reported() {
        // max x s.t. x - y <= 1.
        let mut lp = LpProblem::new();
        let x = lp.add_nonneg_var(-1.0);
        let y = lp.add_nonneg_var(0.0);
        lp.add_constraint([(x, 1.0), (y, -1.0)], ConstraintSense::Le, 1.0);
        assert_eq!(solve(&lp).unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn invalid_bounds_rejected() {
        let mut lp = LpProblem::new();
        lp.add_var(2.0, 1.0, 1.0);
        assert!(matches!(solve(&lp), Err(LpError::InvalidModel(_))));
    }

    #[test]
    fn foreign_variables_are_invalid_models() {
        // A handle from a bigger problem indexes past this one's columns.
        let mut other = LpProblem::new();
        other.add_nonneg_var(0.0);
        let foreign = other.add_nonneg_var(0.0);
        let mut lp = LpProblem::new();
        let x = lp.add_nonneg_var(1.0);
        lp.add_constraint([(x, 1.0), (foreign, 1.0)], ConstraintSense::Le, 1.0);
        assert_eq!((lp.num_vars(), lp.constraints.len()), (1, 1));
        assert!(matches!(
            lp.to_standard_form(),
            Err(LpError::InvalidModel(_))
        ));
    }

    #[test]
    fn free_variables_work() {
        // min x subject to x >= -5 via constraint (variable itself is free).
        let mut lp = LpProblem::new();
        let x = lp.add_var(-INF, INF, 1.0);
        lp.add_constraint([(x, 1.0)], ConstraintSense::Ge, -5.0);
        let sol = solve(&lp).unwrap();
        assert!((sol.objective + 5.0).abs() < 1e-6);
    }

    #[test]
    fn duplicate_coefficients_are_summed() {
        // max x s.t. 0.5x + 0.5x <= 3  ->  x <= 3.
        let mut lp = LpProblem::new();
        let x = lp.add_nonneg_var(-1.0);
        lp.add_constraint([(x, 0.5), (x, 0.5)], ConstraintSense::Le, 3.0);
        let sol = solve(&lp).unwrap();
        assert!((sol.objective + 3.0).abs() < 1e-6);
    }

    #[test]
    fn row_activity_is_reported() {
        let mut lp = LpProblem::new();
        let x = lp.add_nonneg_var(-1.0);
        let y = lp.add_nonneg_var(-1.0);
        lp.add_constraint([(x, 1.0), (y, 2.0)], ConstraintSense::Le, 4.0);
        lp.add_constraint([(x, 1.0)], ConstraintSense::Le, 2.0);
        let sol = solve(&lp).unwrap();
        assert_eq!(sol.row_activity.len(), 2);
        assert!(sol.row_activity[0] <= 4.0 + 1e-7);
        assert!(sol.row_activity[1] <= 2.0 + 1e-7);
    }
}
