//! Degenerate model shapes, solved by the bare simplex and checked against
//! the dense reference oracle ([`a2a_lp::reference::solve_reference`]).
//!
//! The MCF builders never hand the solver these shapes, so nothing else in
//! the workspace does: fixed, free and boxed columns; singleton, empty, free
//! and equality rows; models whose every column is fixed; appended empty and
//! free rows; a free column in a single row. On each seeded (ChaCha8) case the
//! simplex must agree with the reference on the status — `Infeasible` where
//! the reference says so — and on the objective to `1e-6`, return a
//! primal-feasible point and export a square basis of the model's shape.

use a2a_lp::reference::solve_reference;
use a2a_lp::simplex::{Solver, StandardForm, StandardSolution};
use a2a_lp::sparse::SparseVec;
use a2a_lp::{BasisStatus, LpError, LpResult, SimplexOptions, INF};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn solve(sf: &StandardForm) -> LpResult<StandardSolution> {
    Solver::new(sf, SimplexOptions::default())?.solve()
}

/// A random standard-form LP of degenerate shape: a mix of fixed, free and
/// boxed variables, singleton rows, empty rows, ranged and equality rows.
fn random_standard_form(rng: &mut ChaCha8Rng) -> StandardForm {
    let nvars = rng.random_range(2..7);
    let nrows = rng.random_range(1..7);
    let mut lower = Vec::with_capacity(nvars);
    let mut upper = Vec::with_capacity(nvars);
    let mut obj = Vec::with_capacity(nvars);
    for _ in 0..nvars {
        obj.push(rng.random_range(0..9) as f64 - 4.0);
        match rng.random_range(0..10) {
            // Fixed variable.
            0 => {
                let v = rng.random_range(0..5) as f64 - 2.0;
                lower.push(v);
                upper.push(v);
            }
            // Free variable.
            1 => {
                lower.push(-INF);
                upper.push(INF);
            }
            // Bounded range.
            2..=5 => {
                let l = rng.random_range(0..4) as f64 - 2.0;
                lower.push(l);
                upper.push(l + rng.random_range(1..6) as f64);
            }
            // Non-negative, possibly unbounded above.
            _ => {
                lower.push(0.0);
                upper.push(if rng.random_bool(0.5) {
                    INF
                } else {
                    rng.random_range(1..8) as f64
                });
            }
        }
    }

    let mut per_col: Vec<Vec<(usize, f64)>> = vec![Vec::new(); nvars];
    let mut row_lower = Vec::with_capacity(nrows);
    let mut row_upper = Vec::with_capacity(nrows);
    for i in 0..nrows {
        let kind = rng.random_range(0..10);
        let arity = match kind {
            // Empty row.
            0 => 0,
            // Singleton row.
            1 | 2 => 1,
            _ => rng.random_range(2..nvars.min(4) + 1),
        };
        let mut cols: Vec<usize> = (0..nvars).collect();
        for k in 0..arity {
            let pick = rng.random_range(0..cols.len() - k);
            cols.swap(k, k + pick);
        }
        for &j in cols.iter().take(arity) {
            let c = loop {
                let c = rng.random_range(0..7) as f64 - 3.0;
                if c != 0.0 {
                    break c;
                }
            };
            per_col[j].push((i, c));
        }
        let rhs = rng.random_range(0..13) as f64 - 4.0;
        match rng.random_range(0..4) {
            0 => {
                // <=
                row_lower.push(-INF);
                row_upper.push(rhs);
            }
            1 => {
                // >=
                row_lower.push(rhs);
                row_upper.push(INF);
            }
            2 => {
                // ==
                row_lower.push(rhs);
                row_upper.push(rhs);
            }
            _ => {
                // Range (or free when the draw is wide).
                let w = rng.random_range(0..8) as f64;
                row_lower.push(rhs - w);
                row_upper.push(rhs + w);
            }
        }
    }

    StandardForm {
        nrows,
        cols: per_col.into_iter().map(SparseVec::from_entries).collect(),
        obj,
        lower,
        upper,
        row_lower,
        row_upper,
    }
}

/// Asserts `sol.x` is primal feasible for `sf` and that the exported basis has
/// the model's shape with exactly `nrows` basic variables.
fn assert_solution_valid(sf: &StandardForm, sol: &StandardSolution, tag: &str) {
    let tol = 1e-6;
    for (j, &v) in sol.x.iter().enumerate() {
        assert!(
            v >= sf.lower[j] - tol && v <= sf.upper[j] + tol,
            "{tag}: x[{j}] = {v} violates bounds [{}, {}]",
            sf.lower[j],
            sf.upper[j]
        );
    }
    let mut activity = vec![0.0; sf.nrows];
    for (j, col) in sf.cols.iter().enumerate() {
        col.scatter_into(&mut activity, sol.x[j]);
    }
    for (i, &a) in activity.iter().enumerate() {
        let scale = 1.0 + a.abs();
        assert!(
            a >= sf.row_lower[i] - tol * scale && a <= sf.row_upper[i] + tol * scale,
            "{tag}: row {i} activity {a} violates [{}, {}]",
            sf.row_lower[i],
            sf.row_upper[i]
        );
    }
    assert_eq!(
        sol.basis.statuses.len(),
        sf.cols.len() + sf.nrows,
        "{tag}: exported basis must cover the model"
    );
    let basics = sol
        .basis
        .statuses
        .iter()
        .filter(|s| matches!(s, BasisStatus::Basic))
        .count();
    assert_eq!(basics, sf.nrows, "{tag}: exported basis must be square");
}

/// Solves `sf` with the simplex and the reference and asserts they agree.
/// Returns whether the case was optimal.
fn agrees_with_reference(sf: &StandardForm, tag: &str) -> bool {
    match (solve(sf), solve_reference(sf)) {
        (Ok(a), Ok(b)) => {
            assert!(
                (a.objective - b.objective_value).abs() < 1e-6 * (1.0 + b.objective_value.abs()),
                "{tag}: objective {} (simplex) vs {} (reference)",
                a.objective,
                b.objective_value
            );
            assert_solution_valid(sf, &a, tag);
            true
        }
        (Err(LpError::Infeasible), Err(LpError::Infeasible)) => false,
        (Err(LpError::Unbounded), Err(LpError::Unbounded)) => false,
        (a, b) => panic!("{tag}: simplex {a:?} disagrees with reference {b:?}"),
    }
}

#[test]
fn random_degenerate_shapes_match_the_reference() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xA2A_5EED);
    let optimal = (0..400)
        .filter(|case| {
            let sf = random_standard_form(&mut rng);
            agrees_with_reference(&sf, &format!("case {case}"))
        })
        .count();
    assert!(optimal > 50, "only {optimal} optimal cases");
}

/// Equality rows over two columns, forced onto every case (the base
/// generator draws them only by luck).
#[test]
fn forced_equality_doubletons_match_the_reference() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xD0B_7E70);
    let mut optimal = 0usize;
    for case in 0..200 {
        let mut sf = random_standard_form(&mut rng);
        let nvars = sf.cols.len();
        for _ in 0..rng.random_range(1..3) {
            let j0 = rng.random_range(0..nvars);
            let mut j1 = rng.random_range(0..nvars - 1);
            if j1 >= j0 {
                j1 += 1;
            }
            let c0 = (rng.random_range(0..5) as f64 - 2.0).abs().max(1.0)
                * if rng.random_bool(0.5) { 1.0 } else { -1.0 };
            let c1 = (rng.random_range(0..5) as f64 - 2.0).abs().max(1.0)
                * if rng.random_bool(0.5) { 1.0 } else { -1.0 };
            let i = sf.nrows;
            sf.nrows += 1;
            // Draw the rhs through a bound-feasible point so the forced row is
            // satisfiable on its own (the base rows may still conflict).
            let pick = |j: usize, rng: &mut ChaCha8Rng| -> f64 {
                let lo = sf.lower[j].max(-2.0);
                let hi = sf.upper[j].min(2.0).max(lo);
                lo + (hi - lo) * 0.25 * rng.random_range(0..5) as f64
            };
            let rhs = c0 * pick(j0, &mut rng) + c1 * pick(j1, &mut rng);
            sf.row_lower.push(rhs);
            sf.row_upper.push(rhs);
            for (j, c) in [(j0, c0), (j1, c1)] {
                let mut entries: Vec<(usize, f64)> = sf.cols[j].iter().collect();
                entries.push((i, c));
                sf.cols[j] = SparseVec::from_entries(entries);
            }
        }
        if agrees_with_reference(&sf, &format!("doubleton case {case}")) {
            optimal += 1;
        }
    }
    assert!(optimal > 30, "only {optimal} optimal cases");
}

#[test]
fn all_fixed_models_match_the_reference() {
    let mut rng = ChaCha8Rng::seed_from_u64(77);
    for case in 0..50 {
        let mut sf = random_standard_form(&mut rng);
        for j in 0..sf.cols.len() {
            let v = rng.random_range(0..5) as f64 - 2.0;
            sf.lower[j] = v;
            sf.upper[j] = v;
        }
        agrees_with_reference(&sf, &format!("all-fixed case {case}"));
    }
}

#[test]
fn appended_empty_and_free_rows_match_the_reference() {
    let mut rng = ChaCha8Rng::seed_from_u64(4242);
    for case in 0..50 {
        let mut sf = random_standard_form(&mut rng);
        // A feasible empty row and a free row.
        sf.nrows += 2;
        sf.row_lower.push(-1.0);
        sf.row_upper.push(1.0);
        sf.row_lower.push(-INF);
        sf.row_upper.push(INF);
        agrees_with_reference(&sf, &format!("empty-rows case {case}"));
    }
}

#[test]
fn free_singleton_column_closed_form() {
    // min y s.t. x + y >= 3, x <= 2 (singleton row), y free: x = 2, y = 1.
    let sf = StandardForm {
        nrows: 2,
        cols: vec![
            SparseVec::from_entries([(0usize, 1.0), (1, 1.0)]),
            SparseVec::from_entries([(0usize, 1.0)]),
        ],
        obj: vec![0.0, 1.0],
        lower: vec![0.0, -INF],
        upper: vec![INF, INF],
        row_lower: vec![3.0, -INF],
        row_upper: vec![INF, 2.0],
    };
    assert!(agrees_with_reference(&sf, "free singleton column"));
    let sol = solve(&sf).unwrap();
    assert!((sol.objective - 1.0).abs() < 1e-8, "{}", sol.objective);
}
