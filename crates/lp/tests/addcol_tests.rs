//! Add-column / resolve properties on randomized (seeded ChaCha8) LPs: after
//! appending columns to a solved model, the extended solve must match a cold
//! solve of the full model. The session (`Solver::add_columns` + `reoptimize`)
//! carries its basis over *mid Forrest–Tomlin update cycle* (the small base
//! solves pivot far fewer times than the refactorization interval, so every
//! pivot of the previous round is still in the update file when columns are
//! appended), across several append/reoptimize rounds.

use a2a_lp::simplex::Solver;
use a2a_lp::sparse::SparseVec;
use a2a_lp::{ConstraintSense, LpError, LpProblem, NewColumn, SimplexOptions, StandardForm, INF};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn random_bounds(rng: &mut ChaCha8Rng) -> (f64, f64) {
    match rng.random_range(0..8) {
        // Occasionally a nonzero lower bound, so appended nonbasic columns
        // perturb the basic values and exercise the recompute path.
        0 => {
            let l = rng.random_range(1..4) as f64;
            (l, l + rng.random_range(1..6) as f64)
        }
        1 => {
            let l = rng.random_range(0..4) as f64 - 2.0;
            (l, l + rng.random_range(1..6) as f64)
        }
        2 => (0.0, rng.random_range(1..8) as f64),
        _ => (0.0, INF),
    }
}

/// Mostly-positive coefficients keep the maximize-with-`<=`-rows base bounded
/// and feasible often enough for the matrix checks to actually run.
fn random_coeff(rng: &mut ChaCha8Rng) -> f64 {
    if rng.random_range(0..4) == 0 {
        -(rng.random_range(1..4) as f64)
    } else {
        rng.random_range(1..4) as f64
    }
}

/// `(lower, upper, obj, entries)` of one column to append post-solve.
type AppendedColumn = (f64, f64, f64, Vec<(usize, f64)>);

/// A random base model plus a batch of columns to append later. The base is
/// built so that it is usually feasible and bounded (nonnegative variables,
/// mostly `<=` rows with positive slack). It maximizes, so it is written as the
/// minimization of the negated costs.
struct Scenario {
    base: LpProblem,
    appended: Vec<AppendedColumn>,
}

fn random_scenario(rng: &mut ChaCha8Rng) -> Scenario {
    let nvars = rng.random_range(2..6);
    let nrows = rng.random_range(1..6);
    let mut lp = LpProblem::new();
    let mut vars = Vec::new();
    for _ in 0..nvars {
        let (l, u) = random_bounds(rng);
        let obj = rng.random_range(0..9) as f64 - 3.0;
        vars.push(lp.add_var(l, u, -obj));
    }
    for i in 0..nrows {
        let arity = rng.random_range(1..nvars.min(3) + 1);
        let mut cols: Vec<usize> = (0..nvars).collect();
        for k in 0..arity {
            let pick = rng.random_range(0..cols.len() - k);
            cols.swap(k, k + pick);
        }
        let coeffs: Vec<(a2a_lp::VarId, f64)> = cols
            .iter()
            .take(arity)
            .map(|&j| (vars[j], random_coeff(rng)))
            .collect();
        let rhs = rng.random_range(0..14) as f64;
        let sense = match rng.random_range(0..8) {
            0 => ConstraintSense::Ge,
            1 => ConstraintSense::Eq,
            _ => ConstraintSense::Le,
        };
        let _ = i;
        lp.add_constraint(coeffs, sense, rhs);
    }

    let nappend = rng.random_range(1..5);
    let mut appended = Vec::with_capacity(nappend);
    for _ in 0..nappend {
        let (l, u) = random_bounds(rng);
        let obj = rng.random_range(0..9) as f64 - 3.0;
        let arity = rng.random_range(1..nrows.min(3) + 1);
        let mut rows: Vec<usize> = (0..nrows).collect();
        for k in 0..arity {
            let pick = rng.random_range(0..rows.len() - k);
            rows.swap(k, k + pick);
        }
        let entries: Vec<(usize, f64)> = rows
            .iter()
            .take(arity)
            .map(|&r| (r, random_coeff(rng)))
            .collect();
        appended.push((l, u, obj, entries));
    }
    Scenario { base: lp, appended }
}

/// Converts a scenario to standard form plus the `NewColumn` batch for the
/// session tests (the appended costs negated like the base's).
fn scenario_standard_forms(s: &Scenario) -> (StandardForm, StandardForm, Vec<NewColumn>) {
    let base_sf = s.base.to_standard_form().expect("valid model");
    // Extended model: clone + append, mirroring what Solver::add_columns does.
    let mut full = base_sf.clone();
    let mut batch = Vec::new();
    for (l, u, obj, entries) in &s.appended {
        let col = SparseVec::from_entries(entries.iter().copied());
        // Maximize model: internal objective is negated.
        let c = NewColumn {
            col,
            obj: -*obj,
            lower: *l,
            upper: *u,
        };
        full.cols.push(c.col.clone());
        full.obj.push(c.obj);
        full.lower.push(c.lower);
        full.upper.push(c.upper);
        batch.push(c);
    }
    (base_sf, full, batch)
}

/// Session layer: `add_columns` + `reoptimize` on a live solver — whose basis
/// still carries the previous round's pivots as Forrest–Tomlin updates — must
/// match a cold solve of the full model.
#[test]
fn session_add_columns_mid_ft_cycle_matches_cold_solve() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xF7_C3C1E);
    let mut exercised = 0usize;
    let mut with_pivots = 0usize;
    for case in 0..240 {
        let scenario = random_scenario(&mut rng);
        let (base_sf, full_sf, batch) = scenario_standard_forms(&scenario);
        let tag = format!("case {case}");
        // The base solve pivots far fewer times than the refactorization
        // interval, so the append happens mid-update-cycle, never on a fresh
        // basis.
        let mut solver = match Solver::new(&base_sf, SimplexOptions::default()) {
            Ok(s) => s,
            Err(e) => panic!("{tag}: solver construction failed: {e:?}"),
        };
        let first = solver.reoptimize();
        let Ok(first) = first else { continue };
        if first.pivots > 0 {
            with_pivots += 1;
        }

        // Append the batch in two chunks with a reoptimize in between, so the
        // second append also lands on a basis whose FT file reflects columns
        // that did not exist at construction time.
        let split = batch.len() / 2;
        solver.add_columns(&batch[..split]).expect("append chunk 1");
        let mid = solver.reoptimize();
        solver.add_columns(&batch[split..]).expect("append chunk 2");
        let warm = solver.reoptimize();

        let cold = a2a_lp::simplex::solve(&full_sf, &SimplexOptions::default());
        match (&cold, &warm) {
            (Ok(a), Ok(b)) => {
                exercised += 1;
                let scale = 1.0 + a.objective.abs();
                assert!(
                    (a.objective - b.objective).abs() < 1e-6 * scale,
                    "{tag}: cold {} vs session {}",
                    a.objective,
                    b.objective
                );
                // The session solution must be primal feasible for the full model.
                let mut activity = vec![0.0; full_sf.nrows];
                for (j, col) in full_sf.cols.iter().enumerate() {
                    col.scatter_into(&mut activity, b.x[j]);
                    assert!(
                        b.x[j] >= full_sf.lower[j] - 1e-6 && b.x[j] <= full_sf.upper[j] + 1e-6,
                        "{tag}: x[{j}] = {} out of bounds",
                        b.x[j]
                    );
                }
                for (i, &a_i) in activity.iter().enumerate() {
                    let s = 1.0 + a_i.abs();
                    assert!(
                        a_i >= full_sf.row_lower[i] - 1e-6 * s
                            && a_i <= full_sf.row_upper[i] + 1e-6 * s,
                        "{tag}: row {i} activity {a_i} violates bounds"
                    );
                }
            }
            (Err(LpError::Unbounded), Err(LpError::Unbounded)) => {
                exercised += 1;
            }
            (Err(LpError::Infeasible), Err(LpError::Infeasible)) => {
                exercised += 1;
            }
            // The intermediate solve may already be unbounded; then the final
            // reoptimize reports the same.
            (Err(LpError::Unbounded), _) if matches!(mid, Err(LpError::Unbounded)) => {}
            (a, b) => panic!("{tag}: cold {a:?} vs session {b:?}"),
        }
    }
    assert!(exercised > 60, "only {exercised} session checks ran");
    assert!(
        with_pivots > 40,
        "only {with_pivots} base solves pivoted — FT cycle not exercised"
    );
}

/// Appending zero columns is a no-op and malformed columns are rejected without
/// corrupting the session.
#[test]
fn session_append_validation() {
    let sf = StandardForm {
        nrows: 1,
        cols: vec![SparseVec::from_entries([(0, 1.0)])],
        obj: vec![-1.0],
        lower: vec![0.0],
        upper: vec![2.0],
        row_lower: vec![-INF],
        row_upper: vec![5.0],
    };
    let mut solver = Solver::new(
        &sf,
        SimplexOptions {
            ..SimplexOptions::default()
        },
    )
    .unwrap();
    let first = solver.reoptimize().unwrap();
    assert!((first.objective + 2.0).abs() < 1e-9);

    solver.add_columns(&[]).unwrap();
    // Row index out of range.
    let bad_row = NewColumn {
        col: SparseVec::from_entries([(3, 1.0)]),
        obj: 0.0,
        lower: 0.0,
        upper: INF,
    };
    assert!(matches!(
        solver.add_columns(std::slice::from_ref(&bad_row)),
        Err(LpError::InvalidModel(_))
    ));
    // Inverted bounds.
    let bad_bounds = NewColumn {
        col: SparseVec::from_entries([(0, 1.0)]),
        obj: 0.0,
        lower: 1.0,
        upper: 0.0,
    };
    assert!(matches!(
        solver.add_columns(std::slice::from_ref(&bad_bounds)),
        Err(LpError::InvalidModel(_))
    ));
    // The session still works after the rejections.
    let again = solver.reoptimize().unwrap();
    assert!((again.objective + 2.0).abs() < 1e-9);

    // A valid append at a nonzero lower bound shifts the optimum: new column
    // consumes 3 units of the row at lower bound 3, leaving 2 for x.
    solver
        .add_columns(&[NewColumn {
            col: SparseVec::from_entries([(0, 1.0)]),
            obj: 0.0,
            lower: 3.0,
            upper: 3.0,
        }])
        .unwrap();
    let shifted = solver.reoptimize().unwrap();
    assert!(
        (shifted.objective + 2.0).abs() < 1e-9,
        "{}",
        shifted.objective
    );
    assert!((shifted.x[1] - 3.0).abs() < 1e-9);
}

/// A seeded packing column: 2–4 positive coefficients on distinct rows, a
/// negative (maximize-sense) cost, and now and then a finite upper bound so
/// bound flips occur next to basis changes.
fn packing_column(rng: &mut ChaCha8Rng, nrows: usize) -> NewColumn {
    let mut entries: Vec<(usize, f64)> = Vec::new();
    for _ in 0..rng.random_range(2..5) {
        let r = rng.random_range(0..nrows);
        if entries.iter().all(|&(i, _)| i != r) {
            entries.push((r, rng.random_range(1..5) as f64));
        }
    }
    NewColumn {
        col: SparseVec::from_entries(entries),
        obj: -(rng.random_range(1..12) as f64),
        lower: 0.0,
        upper: if rng.random_range(0..4) == 0 {
            rng.random_range(1..4) as f64
        } else {
            INF
        },
    }
}

/// Count pin of a column-generation-shaped session at the LP level: a seeded
/// 120-row packing LP grown from 150 to 600 columns in three appends, each
/// followed by a `reoptimize` under the default refactorization cadence. The
/// first round's 77 pivots are all still in the Forrest–Tomlin file when the
/// first batch lands (no refactorization yet), and the later rounds cross
/// refactorizations triggered both by the interval and by fill — so the
/// per-round `(iterations, pivots, refactorizations, objective bits)` move with
/// any change to which pivots are taken, to their arithmetic, or to how
/// `add_columns` splices into a live basis.
#[test]
fn session_trajectory_across_appends_and_refactorizations_is_pinned() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xADD_901D);
    let nrows = 120;
    let mut sf = StandardForm {
        nrows,
        cols: Vec::new(),
        obj: Vec::new(),
        lower: Vec::new(),
        upper: Vec::new(),
        row_lower: vec![-INF; nrows],
        row_upper: (0..nrows).map(|_| rng.random_range(4..20) as f64).collect(),
    };
    for _ in 0..150 {
        let c = packing_column(&mut rng, nrows);
        sf.cols.push(c.col);
        sf.obj.push(c.obj);
        sf.lower.push(c.lower);
        sf.upper.push(c.upper);
    }
    let mut solver = Solver::new_owned(sf, SimplexOptions::default()).unwrap();
    let mut rounds = Vec::new();
    for round in 0..4 {
        if round > 0 {
            let batch: Vec<NewColumn> = (0..150).map(|_| packing_column(&mut rng, nrows)).collect();
            solver.add_columns(&batch).unwrap();
        }
        let s = solver.reoptimize().unwrap();
        rounds.push((
            s.iterations,
            s.pivots,
            s.refactorizations,
            s.objective.to_bits(),
        ));
    }
    assert_eq!(
        rounds,
        [
            (83, 77, 0, 0xc092_2579_48b0_fcd6),
            (104, 99, 2, 0xc099_9c9f_0000_0000),
            (145, 143, 3, 0xc09f_e7b8_ca7a_9a87),
            (160, 159, 3, 0xc0a3_8f68_b80e_7d3d),
        ],
        "session trajectory moved"
    );
}
