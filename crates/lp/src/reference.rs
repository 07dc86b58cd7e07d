//! Dense tableau simplex used as an independent test oracle.
//!
//! This is a deliberately simple textbook implementation: variables are shifted /
//! split so that everything is non-negative, constraints are turned into equalities
//! with slack and artificial columns, and a dense two-phase tableau simplex with
//! Bland's rule is run. It is O(rows · cols) memory and therefore only suitable for
//! small problems, which is exactly what a test oracle needs to be: slow, dumb and
//! written completely differently from the production solver in [`crate::simplex`].

use crate::error::{LpError, LpResult};
use crate::model::ConstraintSense;
use crate::simplex::StandardForm;

const TOL: f64 = 1e-9;

/// Solution returned by the dense reference solver.
#[derive(Debug, Clone)]
pub struct ReferenceSolution {
    /// Objective value, minimized as the form states it.
    pub objective_value: f64,
    /// Variable values in the original model space.
    pub values: Vec<f64>,
}

/// Internal description of how an original variable maps onto tableau columns.
#[derive(Debug, Clone, Copy)]
enum VarMap {
    /// `x = shift + column`
    Shifted { col: usize, shift: f64 },
    /// `x = shift - column`
    Negated { col: usize, shift: f64 },
    /// `x = plus - minus`
    Split { plus: usize, minus: usize },
}

/// Solves a small [`StandardForm`] with the dense reference simplex.
pub fn solve_reference(sf: &StandardForm) -> LpResult<ReferenceSolution> {
    let n = sf.cols.len();

    // --- Rewrite variables so that every tableau column is >= 0. ---------------------
    let mut maps = Vec::with_capacity(n);
    let mut ncols = 0usize;
    // Extra constraints x' <= u - l for doubly bounded variables.
    let mut extra_upper: Vec<(usize, f64)> = Vec::new();
    for v in 0..n {
        let (l, u) = (sf.lower[v], sf.upper[v]);
        if l > u {
            return Err(LpError::InvalidModel(format!(
                "variable {v} has lower bound {l} > upper bound {u}"
            )));
        }
        if l.is_finite() {
            let col = ncols;
            ncols += 1;
            maps.push(VarMap::Shifted { col, shift: l });
            if u.is_finite() {
                extra_upper.push((col, u - l));
            }
        } else if u.is_finite() {
            let col = ncols;
            ncols += 1;
            maps.push(VarMap::Negated { col, shift: u });
        } else {
            let plus = ncols;
            let minus = ncols + 1;
            ncols += 2;
            maps.push(VarMap::Split { plus, minus });
        }
    }

    // --- Build rows: original constraints (rewritten) + bound rows. ------------------
    // Each row: (coeffs over tableau cols, sense, rhs).
    struct Row {
        coeffs: Vec<f64>,
        sense: ConstraintSense,
        rhs: f64,
    }
    let mut rows: Vec<Row> = Vec::new();

    // A row with equal bounds is an equality; otherwise each finite bound is
    // one inequality (a free row gives none).
    for r in 0..sf.nrows {
        let mut coeffs = vec![0.0; ncols];
        let mut shift_total = 0.0;
        for v in 0..n {
            let a = sf.cols[v].get(r);
            if a == 0.0 {
                continue;
            }
            match maps[v] {
                VarMap::Shifted { col, shift } => {
                    coeffs[col] += a;
                    shift_total += a * shift;
                }
                VarMap::Negated { col, shift } => {
                    coeffs[col] -= a;
                    shift_total += a * shift;
                }
                VarMap::Split { plus, minus } => {
                    coeffs[plus] += a;
                    coeffs[minus] -= a;
                }
            }
        }
        let (lo, up) = (sf.row_lower[r], sf.row_upper[r]);
        if lo.is_finite() && up.is_finite() && (up - lo).abs() <= TOL {
            rows.push(Row {
                coeffs,
                sense: ConstraintSense::Eq,
                rhs: lo - shift_total,
            });
        } else {
            if up.is_finite() {
                rows.push(Row {
                    coeffs: coeffs.clone(),
                    sense: ConstraintSense::Le,
                    rhs: up - shift_total,
                });
            }
            if lo.is_finite() {
                rows.push(Row {
                    coeffs,
                    sense: ConstraintSense::Ge,
                    rhs: lo - shift_total,
                });
            }
        }
    }
    for (col, ub) in extra_upper {
        let mut coeffs = vec![0.0; ncols];
        coeffs[col] = 1.0;
        rows.push(Row {
            coeffs,
            sense: ConstraintSense::Le,
            rhs: ub,
        });
    }

    // --- Objective over tableau columns (minimize sense). ----------------------------
    let mut obj = vec![0.0; ncols];
    let mut obj_shift = 0.0;
    for v in 0..n {
        let c = sf.obj[v];
        if c == 0.0 {
            continue;
        }
        match maps[v] {
            VarMap::Shifted { col, shift } => {
                obj[col] += c;
                obj_shift += c * shift;
            }
            VarMap::Negated { col, shift } => {
                obj[col] -= c;
                obj_shift += c * shift;
            }
            VarMap::Split { plus, minus } => {
                obj[plus] += c;
                obj[minus] -= c;
            }
        }
    }

    // --- Convert rows to equalities with slack columns, make rhs >= 0. ---------------
    let m = rows.len();
    let mut slack_cols = 0usize;
    for row in &rows {
        if row.sense != ConstraintSense::Eq {
            let _ = row;
            slack_cols += 1;
        }
    }
    let total_cols = ncols + slack_cols + m; // structural + slack + artificial
    let art_base = ncols + slack_cols;

    // Tableau: m rows x (total_cols + 1) with the rhs in the last column.
    let mut t = vec![vec![0.0; total_cols + 1]; m];
    let mut slack_idx = ncols;
    let mut basis = vec![0usize; m];
    for (i, row) in rows.iter().enumerate() {
        let mut coeffs = row.coeffs.clone();
        let mut rhs = row.rhs;
        let mut slack_sign = match row.sense {
            ConstraintSense::Le => 1.0,
            ConstraintSense::Ge => -1.0,
            ConstraintSense::Eq => 0.0,
        };
        if rhs < 0.0 {
            for c in coeffs.iter_mut() {
                *c = -*c;
            }
            rhs = -rhs;
            slack_sign = -slack_sign;
        }
        for (j, &c) in coeffs.iter().enumerate() {
            t[i][j] = c;
        }
        if row.sense != ConstraintSense::Eq {
            t[i][slack_idx] = slack_sign;
            slack_idx += 1;
        }
        t[i][art_base + i] = 1.0;
        t[i][total_cols] = rhs;
        basis[i] = art_base + i;
    }

    // --- Phase 1: minimize the sum of artificials. ------------------------------------
    let mut phase1_cost = vec![0.0; total_cols];
    for j in art_base..total_cols {
        phase1_cost[j] = 1.0;
    }
    run_tableau(&mut t, &mut basis, &phase1_cost, total_cols)?;
    let phase1_obj: f64 = basis
        .iter()
        .enumerate()
        .filter(|(_, &b)| b >= art_base)
        .map(|(i, _)| t[i][total_cols])
        .sum();
    if phase1_obj > 1e-6 {
        return Err(LpError::Infeasible);
    }

    // Drive any remaining (zero-valued) artificials out of the basis if possible, then
    // forbid artificials from re-entering by fixing their columns to zero.
    for i in 0..m {
        if basis[i] >= art_base {
            if let Some(j) = (0..art_base).find(|&j| t[i][j].abs() > 1e-9) {
                pivot(&mut t, &mut basis, i, j, total_cols);
            }
        }
    }
    for row in t.iter_mut() {
        for j in art_base..total_cols {
            row[j] = 0.0;
        }
    }

    // --- Phase 2: minimize the real objective. ----------------------------------------
    let mut phase2_cost = vec![0.0; total_cols];
    phase2_cost[..ncols].copy_from_slice(&obj);
    run_tableau(&mut t, &mut basis, &phase2_cost, total_cols)?;

    // --- Extract the solution. ----------------------------------------------------------
    let mut col_values = vec![0.0; total_cols];
    for (i, &b) in basis.iter().enumerate() {
        col_values[b] = t[i][total_cols];
    }
    let mut values = vec![0.0; n];
    for v in 0..n {
        values[v] = match maps[v] {
            VarMap::Shifted { col, shift } => shift + col_values[col],
            VarMap::Negated { col, shift } => shift - col_values[col],
            VarMap::Split { plus, minus } => col_values[plus] - col_values[minus],
        };
    }
    let objective_value: f64 = obj
        .iter()
        .zip(&col_values[..ncols])
        .map(|(c, v)| c * v)
        .sum::<f64>()
        + obj_shift;
    Ok(ReferenceSolution {
        objective_value,
        values,
    })
}

/// Runs the primal simplex on a dense tableau until optimality for the given cost row.
fn run_tableau(
    t: &mut [Vec<f64>],
    basis: &mut [usize],
    cost: &[f64],
    total_cols: usize,
) -> LpResult<()> {
    let m = t.len();
    let mut iterations = 0usize;
    let max_iterations = 50_000 + 200 * (m + total_cols);
    loop {
        iterations += 1;
        if iterations > max_iterations {
            return Err(LpError::IterationLimit { iterations });
        }
        // Reduced costs: z_j - c_j with z_j = sum_i c_B(i) * t[i][j].
        let mut entering = None;
        for j in 0..total_cols {
            let mut zj = 0.0;
            for i in 0..m {
                let cb = cost[basis[i]];
                if cb != 0.0 {
                    zj += cb * t[i][j];
                }
            }
            let red = cost[j] - zj;
            if red < -1e-9 {
                // Bland's rule: first improving column.
                entering = Some(j);
                break;
            }
        }
        let Some(q) = entering else {
            return Ok(());
        };
        // Ratio test (Bland ties by smallest basis variable index).
        let mut leaving: Option<(usize, f64)> = None;
        for i in 0..m {
            if t[i][q] > 1e-9 {
                let ratio = t[i][total_cols] / t[i][q];
                match leaving {
                    None => leaving = Some((i, ratio)),
                    Some((li, lr)) => {
                        if ratio < lr - 1e-12
                            || ((ratio - lr).abs() <= 1e-12 && basis[i] < basis[li])
                        {
                            leaving = Some((i, ratio));
                        }
                    }
                }
            }
        }
        let Some((r, _)) = leaving else {
            return Err(LpError::Unbounded);
        };
        pivot(t, basis, r, q, total_cols);
    }
}

/// Gauss-Jordan pivot on tableau entry (r, q).
fn pivot(t: &mut [Vec<f64>], basis: &mut [usize], r: usize, q: usize, total_cols: usize) {
    let piv = t[r][q];
    for j in 0..=total_cols {
        t[r][j] /= piv;
    }
    let pivot_row = t[r].clone();
    for (i, row) in t.iter_mut().enumerate() {
        if i == r {
            continue;
        }
        let factor = row[q];
        if factor != 0.0 {
            for j in 0..=total_cols {
                row[j] -= factor * pivot_row[j];
            }
        }
    }
    basis[r] = q;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::LpProblem;

    fn lowered(lp: &LpProblem) -> StandardForm {
        lp.to_standard_form().unwrap()
    }

    #[test]
    fn matches_known_textbook_optimum() {
        // max 3x + 5y: optimum 36.
        let mut lp = LpProblem::new();
        let x = lp.add_nonneg_var(-3.0);
        let y = lp.add_nonneg_var(-5.0);
        lp.add_constraint([(x, 1.0)], ConstraintSense::Le, 4.0);
        lp.add_constraint([(y, 2.0)], ConstraintSense::Le, 12.0);
        lp.add_constraint([(x, 3.0), (y, 2.0)], ConstraintSense::Le, 18.0);
        let sol = solve_reference(&lowered(&lp)).unwrap();
        assert!((sol.objective_value + 36.0).abs() < 1e-6);
    }

    #[test]
    fn handles_bounded_and_free_variables() {
        // max x + y: optimum 6.
        let mut lp = LpProblem::new();
        let x = lp.add_var(1.0, 3.0, -1.0);
        let y = lp.add_var(-crate::INF, crate::INF, -1.0);
        lp.add_constraint([(x, 1.0), (y, 1.0)], ConstraintSense::Le, 6.0);
        lp.add_constraint([(y, 1.0)], ConstraintSense::Ge, -1.0);
        let sol = solve_reference(&lowered(&lp)).unwrap();
        assert!(
            (sol.objective_value + 6.0).abs() < 1e-6,
            "{}",
            sol.objective_value
        );
    }

    #[test]
    fn detects_infeasible() {
        let mut lp = LpProblem::new();
        let x = lp.add_nonneg_var(1.0);
        lp.add_constraint([(x, 1.0)], ConstraintSense::Le, 1.0);
        lp.add_constraint([(x, 1.0)], ConstraintSense::Ge, 2.0);
        assert_eq!(
            solve_reference(&lowered(&lp)).unwrap_err(),
            LpError::Infeasible
        );
    }

    #[test]
    fn detects_unbounded() {
        // max x s.t. x - y <= 1.
        let mut lp = LpProblem::new();
        let x = lp.add_nonneg_var(-1.0);
        let y = lp.add_nonneg_var(0.0);
        lp.add_constraint([(x, 1.0), (y, -1.0)], ConstraintSense::Le, 1.0);
        assert_eq!(
            solve_reference(&lowered(&lp)).unwrap_err(),
            LpError::Unbounded
        );
    }

    #[test]
    fn agrees_with_production_solver_on_equalities() {
        let mut lp = LpProblem::new();
        let x = lp.add_nonneg_var(2.0);
        let y = lp.add_nonneg_var(3.0);
        let z = lp.add_nonneg_var(1.0);
        lp.add_constraint([(x, 1.0), (y, 1.0), (z, 1.0)], ConstraintSense::Eq, 10.0);
        lp.add_constraint([(x, 1.0), (y, -1.0)], ConstraintSense::Ge, 2.0);
        lp.add_constraint([(z, 1.0)], ConstraintSense::Le, 4.0);
        let sf = lowered(&lp);
        let reference = solve_reference(&sf).unwrap();
        let production = crate::simplex::solve(&sf, &crate::SimplexOptions::default()).unwrap();
        assert!(
            (reference.objective_value - production.objective).abs() < 1e-6,
            "reference {} vs production {}",
            reference.objective_value,
            production.objective
        );
    }
}
