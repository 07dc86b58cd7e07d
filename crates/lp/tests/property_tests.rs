//! Randomized-property tests: the production revised simplex is compared against the
//! dense reference oracle on randomly generated LPs, and solver outputs are checked
//! for primal feasibility.
//!
//! The generators are driven by a seeded ChaCha8 stream (no proptest in this build
//! environment); every case is reproducible from its printed seed.

use a2a_lp::reference::{self, ReferenceSolution};
use a2a_lp::{
    ConstraintSense, LpError, LpProblem, LpResult, SimplexOptions, StandardSolution, INF,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A compact description of a random LP.
#[derive(Debug, Clone)]
struct RandomLp {
    nvars: usize,
    obj: Vec<i32>,
    upper: Vec<Option<u8>>,
    rows: Vec<(Vec<i32>, u8, i32)>, // (coefficients, sense code, rhs)
}

fn random_lp(rng: &mut ChaCha8Rng) -> RandomLp {
    let nvars = rng.random_range(2..5);
    let nrows = rng.random_range(1..5);
    let obj: Vec<i32> = (0..nvars)
        .map(|_| rng.random_range(0..9) as i32 - 4)
        .collect();
    let upper: Vec<Option<u8>> = (0..nvars)
        .map(|_| {
            if rng.random_bool(0.5) {
                Some(rng.random_range(1..9) as u8)
            } else {
                None
            }
        })
        .collect();
    let rows: Vec<(Vec<i32>, u8, i32)> = (0..nrows)
        .map(|_| {
            let coeffs: Vec<i32> = (0..nvars)
                .map(|_| rng.random_range(0..7) as i32 - 3)
                .collect();
            let sense = rng.random_range(0..3) as u8;
            let rhs = rng.random_range(0..15) as i32;
            (coeffs, sense, rhs)
        })
        .collect();
    RandomLp {
        nvars,
        obj,
        upper,
        rows,
    }
}

/// Builds the LP; a maximization is written as the minimization of the
/// negated costs, so every objective below is in the minimize sense.
fn build(lp_desc: &RandomLp, maximize: bool) -> LpProblem {
    let sign = if maximize { -1.0 } else { 1.0 };
    let mut lp = LpProblem::new();
    let vars: Vec<_> = (0..lp_desc.nvars)
        .map(|i| {
            let ub = lp_desc.upper[i].map(f64::from).unwrap_or(INF);
            lp.add_var(0.0, ub, sign * f64::from(lp_desc.obj[i]))
        })
        .collect();
    for (coeffs, sense, rhs) in &lp_desc.rows {
        let sense = match sense % 3 {
            0 => ConstraintSense::Le,
            1 => ConstraintSense::Ge,
            _ => ConstraintSense::Eq,
        };
        lp.add_constraint(
            coeffs
                .iter()
                .enumerate()
                .map(|(i, &c)| (vars[i], f64::from(c))),
            sense,
            f64::from(*rhs),
        );
    }
    lp
}

/// Lowers `lp` and solves it with the simplex under `options`.
fn solve(lp: &LpProblem, options: &SimplexOptions) -> LpResult<StandardSolution> {
    a2a_lp::simplex::solve(&lp.to_standard_form()?, options)
}

/// Lowers `lp` and solves it with the dense reference oracle.
fn solve_reference(lp: &LpProblem) -> LpResult<ReferenceSolution> {
    reference::solve_reference(&lp.to_standard_form()?)
}

/// Checks that a solution satisfies every bound and constraint of the model.
fn assert_primal_feasible(lp: &LpProblem, values: &[f64]) {
    let sf = lp.to_standard_form().unwrap();
    for (j, &v) in values.iter().enumerate() {
        assert!(
            v >= sf.lower[j] - 1e-6 && v <= sf.upper[j] + 1e-6,
            "variable {j} = {v} violates bounds [{}, {}]",
            sf.lower[j],
            sf.upper[j]
        );
    }
    let mut activity = vec![0.0; sf.nrows];
    for (j, &v) in values.iter().enumerate() {
        for (r, a) in sf.cols[j].iter() {
            activity[r] += a * v;
        }
    }
    for r in 0..sf.nrows {
        assert!(
            activity[r] >= sf.row_lower[r] - 1e-5 && activity[r] <= sf.row_upper[r] + 1e-5,
            "row {r} activity {} violates [{}, {}]",
            activity[r],
            sf.row_lower[r],
            sf.row_upper[r]
        );
    }
}

/// The production solver and the dense oracle must agree on status and optimum.
#[test]
fn simplex_agrees_with_dense_reference() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xA2A_51317);
    for case in 0..200 {
        let desc = random_lp(&mut rng);
        let maximize = case % 2 == 0;
        let lp = build(&desc, maximize);
        let fast = solve(&lp, &SimplexOptions::default());
        let slow = solve_reference(&lp);
        match (fast, slow) {
            (Ok(a), Ok(b)) => {
                assert!(
                    (a.objective - b.objective_value).abs() <= 1e-5 * (1.0 + a.objective.abs()),
                    "case {case} ({desc:?}): objectives differ: simplex {} vs reference {}",
                    a.objective,
                    b.objective_value
                );
                assert_primal_feasible(&lp, &a.x);
            }
            (Err(LpError::Infeasible), Err(LpError::Infeasible)) => {}
            (Err(LpError::Unbounded), Err(LpError::Unbounded)) => {}
            (a, b) => {
                panic!("case {case} ({desc:?}): status mismatch: simplex {a:?} vs reference {b:?}")
            }
        }
    }
}

/// Whenever the production solver reports an optimum, the solution is feasible and the
/// reported objective matches the recomputed one.
#[test]
fn optimal_solutions_are_feasible() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xFEA51B1E);
    for case in 0..200 {
        let desc = random_lp(&mut rng);
        let lp = build(&desc, true);
        if let Ok(sol) = solve(&lp, &SimplexOptions::default()) {
            assert_primal_feasible(&lp, &sol.x);
            let recomputed: f64 = sol
                .x
                .iter()
                .enumerate()
                .map(|(i, &v)| v * f64::from(desc.obj[i]))
                .sum();
            // The model maximizes: the reported minimum is the negated maximum.
            assert!(
                (recomputed + sol.objective).abs() <= 1e-6 * (1.0 + recomputed.abs()),
                "case {case}: reported objective {} does not match recomputed {}",
                -sol.objective,
                recomputed
            );
        }
    }
}

/// A random capacitated max-concurrent-flow LP on a random strongly-connected-ish
/// digraph: variables are per-edge flows of `k` commodities plus the concurrent
/// rate `F`; constraints are edge capacities and per-commodity conservation with
/// demand `F` at the sink. This is the structure every MCF formulation in the
/// workspace lowers to, so it is the right family to hold the simplex against the
/// dense oracle on.
fn random_network_lp(rng: &mut ChaCha8Rng) -> LpProblem {
    let n = rng.random_range(4..9);
    // Ring backbone (guarantees connectivity) plus random chords.
    let mut edges: Vec<(usize, usize)> = (0..n).map(|u| (u, (u + 1) % n)).collect();
    for _ in 0..rng.random_range(n..2 * n) {
        let u = rng.random_range(0..n);
        let v = rng.random_range(0..n);
        if u != v && !edges.contains(&(u, v)) {
            edges.push((u, v));
        }
    }
    let caps: Vec<f64> = edges
        .iter()
        .map(|_| 1.0 + rng.random_range(0..8) as f64 * 0.5)
        .collect();
    let k = rng.random_range(1..4);
    let commodities: Vec<(usize, usize)> = (0..k)
        .map(|_| loop {
            let s = rng.random_range(0..n);
            let t = rng.random_range(0..n);
            if s != t {
                return (s, t);
            }
        })
        .collect();

    // Maximize F as minimize −F.
    let mut lp = LpProblem::new();
    let f_var = lp.add_var(0.0, INF, -1.0);
    let flows: Vec<Vec<_>> = commodities
        .iter()
        .map(|_| edges.iter().map(|_| lp.add_nonneg_var(0.0)).collect())
        .collect();
    for (e, &cap) in caps.iter().enumerate() {
        lp.add_constraint(
            flows.iter().map(|per_edge| (per_edge[e], 1.0)),
            ConstraintSense::Le,
            cap,
        );
    }
    for (ci, &(s, t)) in commodities.iter().enumerate() {
        for u in 0..n {
            if u == s {
                continue;
            }
            let coeffs: Vec<_> = edges
                .iter()
                .enumerate()
                .filter_map(|(e, &(a, b))| {
                    if a == u {
                        Some((flows[ci][e], 1.0))
                    } else if b == u {
                        Some((flows[ci][e], -1.0))
                    } else {
                        None
                    }
                })
                .collect();
            if u == t {
                // Net inflow at the sink must cover F.
                lp.add_constraint(
                    coeffs.into_iter().chain(std::iter::once((f_var, 1.0))),
                    ConstraintSense::Le,
                    0.0,
                );
            } else {
                lp.add_constraint(coeffs, ConstraintSense::Eq, 0.0);
            }
        }
    }
    lp
}

/// On randomized network LPs the simplex must reach the dense oracle's optimum
/// with a feasible point, and a warm start from its optimal basis must
/// re-verify that optimum without pivoting.
#[test]
fn simplex_matches_reference_on_network_lps() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xDE7E0);
    for case in 0..60 {
        let lp = random_network_lp(&mut rng);
        let sol = solve(&lp, &SimplexOptions::default())
            .unwrap_or_else(|e| panic!("case {case}: simplex failed: {e:?}"));
        let reference =
            solve_reference(&lp).unwrap_or_else(|e| panic!("case {case}: reference failed: {e:?}"));
        assert!(
            (sol.objective - reference.objective_value).abs()
                <= 1e-6 * (1.0 + reference.objective_value.abs()),
            "case {case}: simplex {} vs reference {}",
            sol.objective,
            reference.objective_value
        );
        assert_primal_feasible(&lp, &sol.x);
        assert_primal_feasible(&lp, &reference.values);

        // Warm-start roundtrip: the optimal basis re-verifies pivot-free.
        let warm = solve(
            &lp,
            &SimplexOptions {
                warm_start: Some(sol.basis.clone()),
                ..SimplexOptions::default()
            },
        )
        .unwrap();
        assert!((warm.objective - sol.objective).abs() <= 1e-6 * (1.0 + sol.objective.abs()));
        assert_eq!(
            warm.pivots, 0,
            "case {case}: warm restart from the optimal basis should not pivot"
        );
    }
}

/// A second seeded stream of general random LPs (infeasible and unbounded
/// cases included) beside [`simplex_agrees_with_dense_reference`]: the simplex
/// under explicit default options and the dense oracle agree in status and
/// objective.
#[test]
fn simplex_matches_reference_on_general_lps() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xD4217160);
    for case in 0..150 {
        let desc = random_lp(&mut rng);
        let lp = build(&desc, case % 2 == 0);
        let fast = solve(&lp, &SimplexOptions::default());
        match (fast, solve_reference(&lp)) {
            (Ok(a), Ok(b)) => {
                assert!(
                    (a.objective - b.objective_value).abs()
                        <= 1e-5 * (1.0 + b.objective_value.abs()),
                    "case {case} ({desc:?}): simplex {} vs reference {}",
                    a.objective,
                    b.objective_value
                );
            }
            (Err(LpError::Infeasible), Err(LpError::Infeasible)) => {}
            (Err(LpError::Unbounded), Err(LpError::Unbounded)) => {}
            (a, b) => {
                panic!("case {case} ({desc:?}): status mismatch: simplex {a:?} vs reference {b:?}")
            }
        }
    }
}

/// Tightening a <= right-hand side can never improve a maximization optimum
/// (max x + 2y, written as min −x − 2y).
#[test]
fn monotonicity_in_capacity() {
    for cap in 1..20 {
        let mut lp = LpProblem::new();
        let x = lp.add_nonneg_var(-1.0);
        let y = lp.add_nonneg_var(-2.0);
        lp.add_constraint([(x, 1.0), (y, 1.0)], ConstraintSense::Le, f64::from(cap));
        lp.add_constraint([(y, 1.0)], ConstraintSense::Le, 5.0);
        let sol = solve(&lp, &SimplexOptions::default()).unwrap();

        let mut tighter = LpProblem::new();
        let x2 = tighter.add_nonneg_var(-1.0);
        let y2 = tighter.add_nonneg_var(-2.0);
        tighter.add_constraint(
            [(x2, 1.0), (y2, 1.0)],
            ConstraintSense::Le,
            f64::from(cap) * 0.5,
        );
        tighter.add_constraint([(y2, 1.0)], ConstraintSense::Le, 5.0);
        let tighter_sol = solve(&tighter, &SimplexOptions::default()).unwrap();
        assert!(-tighter_sol.objective <= -sol.objective + 1e-7);
    }
}

/// A seeded chain `s_k (x_{k+1} − x_k) ≤ 0` over `n` variables, closed by
/// `x_0 ≤ 1`, minimizing `−c · x_{n−1}`. From the slack basis exactly one
/// column prices eligible at a time, the next link of the chain, and it enters
/// at zero: the first `n − 1` pivots are degenerate in a row, so the run passes
/// the stall escape (100) and the switch to Bland's rule (2,000), which no
/// other suite reaches. The last pivot lifts every `x_k` to 1. Pinned: the
/// iterations, the pivots and the objective bits.
#[test]
fn degenerate_chain_reaches_blands_rule() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xB1A4D);
    let n = rng.random_range(2_100..2_400);
    let mut lp = LpProblem::new();
    let x: Vec<_> = (0..n)
        .map(|k| {
            let cost = if k == n - 1 {
                -(rng.random_range(1..9) as f64)
            } else {
                0.0
            };
            lp.add_nonneg_var(cost)
        })
        .collect();
    lp.add_constraint([(x[0], 1.0)], ConstraintSense::Le, 1.0);
    for k in 0..n - 1 {
        let s = rng.random_range(1..8) as f64;
        lp.add_constraint([(x[k + 1], s), (x[k], -s)], ConstraintSense::Le, 0.0);
    }
    let sol = solve(&lp, &SimplexOptions::default()).unwrap();
    assert_primal_feasible(&lp, &sol.x);
    assert_eq!(
        (sol.iterations, sol.pivots, sol.objective.to_bits()),
        (2_190, 2_190, (-5.0f64).to_bits()),
        "chain of {n}: trajectory moved (objective now {})",
        sol.objective
    );
}
