//! Dual-simplex equivalence and engagement tests.
//!
//! The primal two-phase method is the reference: on the same seeded random-LP
//! streams the property suite uses, starting the dual simplex wherever it can
//! engage — the all-slack basis handed over as an explicit warm start, which
//! runs the dual phase whenever it prices dual-feasible — must reproduce every
//! status and objective of the cold (primal) solve. The warm-restart tests pin
//! the production trigger: re-solving after a bound/rhs tightening from the
//! old optimal basis must engage the dual phase (the basis stays
//! dual-feasible — costs didn't move) and land on the primal-verified optimum
//! of the tightened instance.

use a2a_lp::{
    BasisStatus, ConstraintSense, LpError, LpProblem, LpResult, SimplexOptions, StandardForm,
    StandardSolution, WarmStart, INF,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A compact description of a random LP (same shape as the property suite).
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

/// Lowers `lp` and solves it under `options`.
fn solve(lp: &LpProblem, options: &SimplexOptions) -> LpResult<StandardSolution> {
    a2a_lp::simplex::solve(&lp.to_standard_form()?, options)
}

/// Lowers `lp` and solves it cold: the primal two-phase method from the
/// all-slack basis.
fn solve_primal(lp: &LpProblem) -> LpResult<StandardSolution> {
    solve(lp, &SimplexOptions::default())
}

/// Lowers `lp` and solves it from the all-slack basis passed as an explicit
/// warm start, so the dual simplex runs whenever that basis is
/// primal-infeasible and prices dual-feasible.
fn solve_dual_from_slack(lp: &LpProblem) -> LpResult<StandardSolution> {
    let sf = lp.to_standard_form()?;
    let options = SimplexOptions {
        warm_start: Some(slack_basis(&sf)),
        ..SimplexOptions::default()
    };
    a2a_lp::simplex::solve(&sf, &options)
}

/// The cold start's all-slack basis as a [`WarmStart`]: every logical basic,
/// every structural column at the bound the cold start puts it on (lower
/// when finite and no larger in magnitude than a finite upper, else upper;
/// free columns at zero).
fn slack_basis(sf: &StandardForm) -> WarmStart {
    let structural = sf.lower.iter().zip(&sf.upper).map(|(&l, &u)| {
        if l.is_infinite() && u.is_infinite() {
            BasisStatus::Free
        } else if l.is_finite() && (u.is_infinite() || l.abs() <= u.abs()) {
            BasisStatus::AtLower
        } else {
            BasisStatus::AtUpper
        }
    });
    let logical = std::iter::repeat_n(BasisStatus::Basic, sf.nrows);
    WarmStart {
        statuses: structural.chain(logical).collect(),
    }
}

/// A warm start from `basis` under otherwise default options.
fn warm_from(basis: &WarmStart) -> SimplexOptions {
    SimplexOptions {
        warm_start: Some(basis.clone()),
        ..SimplexOptions::default()
    }
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

/// Primal-vs-dual equivalence on the same 400 seeded random LPs the property
/// suite runs (both generator streams): wherever the dual simplex can engage
/// it must reproduce the primal method's status and objective exactly, and it
/// must actually engage on a healthy share of the feasible cases.
#[test]
fn dual_simplex_matches_primal_on_random_lps() {
    let mut engaged = 0usize;
    let mut optimal = 0usize;
    for (seed, maximize_alternates) in [(0xA2A_51317u64, true), (0xFEA51B1Eu64, false)] {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for case in 0..200 {
            let desc = random_lp(&mut rng);
            let maximize = !maximize_alternates || case % 2 == 0;
            let lp = build(&desc, maximize);
            let dual = solve_dual_from_slack(&lp);
            let primal = solve_primal(&lp);
            match (dual, primal) {
                (Ok(a), Ok(b)) => {
                    assert!(
                        (a.objective - b.objective).abs() <= 1e-5 * (1.0 + b.objective.abs()),
                        "case {case} (seed {seed:#x}, {desc:?}): dual {} vs primal {}",
                        a.objective,
                        b.objective
                    );
                    assert_primal_feasible(&lp, &a.x);
                    optimal += 1;
                    if a.dual_iterations > 0 {
                        engaged += 1;
                    }
                }
                (Err(LpError::Infeasible), Err(LpError::Infeasible)) => {}
                (Err(LpError::Unbounded), Err(LpError::Unbounded)) => {}
                (a, b) => panic!(
                    "case {case} (seed {seed:#x}, {desc:?}): status mismatch: \
                     dual {a:?} vs primal {b:?}"
                ),
            }
        }
    }
    // The streams mix cost signs, so not every slack start is dual-feasible;
    // but a substantial share must be, or the dual path was never tested.
    assert!(
        engaged >= optimal / 10 && engaged > 0,
        "dual simplex engaged on only {engaged} of {optimal} optimal cases"
    );
}

/// Description of a random max-concurrent-flow network (the structure every
/// MCF master in the workspace lowers to), buildable at any capacity scale so
/// the *same* instance can be re-posed with tightened right-hand sides.
struct NetworkDesc {
    n: usize,
    edges: Vec<(usize, usize)>,
    caps: Vec<f64>,
    commodities: Vec<(usize, usize)>,
}

fn random_network(rng: &mut ChaCha8Rng) -> NetworkDesc {
    let n = rng.random_range(4..9);
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
    NetworkDesc {
        n,
        edges,
        caps,
        commodities,
    }
}

/// Builds the network LP, maximizing F as minimize −F.
fn build_network(desc: &NetworkDesc, cap_scale: impl Fn(usize) -> f64) -> LpProblem {
    let mut lp = LpProblem::new();
    let f_var = lp.add_var(0.0, INF, -1.0);
    let flows: Vec<Vec<_>> = desc
        .commodities
        .iter()
        .map(|_| desc.edges.iter().map(|_| lp.add_nonneg_var(0.0)).collect())
        .collect();
    for (e, &cap) in desc.caps.iter().enumerate() {
        lp.add_constraint(
            flows.iter().map(|per_edge| (per_edge[e], 1.0)),
            ConstraintSense::Le,
            cap * cap_scale(e),
        );
    }
    for (ci, &(s, t)) in desc.commodities.iter().enumerate() {
        for u in 0..desc.n {
            if u == s {
                continue;
            }
            let coeffs: Vec<_> = desc
                .edges
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

/// The production trigger: tightening capacities *non-uniformly* leaves the
/// old optimal basis dual-feasible (costs unchanged) but generically
/// primal-infeasible, so a warm re-solve engages the dual phase — and lands
/// exactly where a cold primal solve of the tightened instance lands. (A uniform scaling
/// would scale the basic solution with it and keep the basis primal-feasible;
/// the per-edge factors below are what force real dual pivots.)
#[test]
fn warm_restart_after_capacity_tightening_uses_dual_simplex() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xD0A1_51317);
    let mut engaged = 0usize;
    for case in 0..60 {
        let desc = random_network(&mut rng);
        let nominal = build_network(&desc, |_| 1.0);
        let cold = solve_primal(&nominal).unwrap();

        let tightened = build_network(&desc, |e| if e % 2 == 0 { 0.15 } else { 0.9 });
        let warm = solve(&tightened, &warm_from(&cold.basis))
            .unwrap_or_else(|e| panic!("case {case}: warm dual re-solve failed: {e:?}"));
        let reference = solve_primal(&tightened).unwrap();
        assert!(
            (warm.objective - reference.objective).abs()
                <= 1e-6 * (1.0 + reference.objective.abs()),
            "case {case}: warm dual {} vs cold primal {}",
            warm.objective,
            reference.objective
        );
        assert_primal_feasible(&tightened, &warm.x);
        if warm.dual_iterations > 0 {
            engaged += 1;
        }
    }
    assert!(
        engaged >= 30,
        "dual simplex engaged on only {engaged}/60 warm tightened re-solves"
    );
}

/// Deterministic unit case: tightening a shared capacity and warm-restarting
/// engages the dual phase, does no primal phase-1 work, and reaches the
/// tightened optimum.
#[test]
fn tightened_bottleneck_resolves_dually() {
    // max x + y, written as min −x − y.
    let build = |cap: f64| {
        let mut lp = LpProblem::new();
        let x = lp.add_var(0.0, 4.0, -1.0);
        let y = lp.add_var(0.0, 3.0, -1.0);
        lp.add_constraint([(x, 1.0), (y, 1.0)], ConstraintSense::Le, cap);
        lp
    };
    let cold = solve_primal(&build(5.0)).unwrap();
    assert!((cold.objective + 5.0).abs() <= 1e-9);

    let warm = solve(&build(2.0), &warm_from(&cold.basis)).unwrap();
    assert!(
        (warm.objective + 2.0).abs() <= 1e-9,
        "tightened optimum should be 2, got {}",
        -warm.objective
    );
    assert!(
        warm.dual_iterations > 0,
        "the warm primal-infeasible dual-feasible start must take the dual phase"
    );
    assert_eq!(
        warm.iterations, warm.dual_iterations,
        "no primal phase-1/phase-2 iterations should be needed after the dual phase"
    );
}

/// An instance made infeasible by the tightening must be reported infeasible
/// through the dual path's fallback exactly like the primal method reports it.
#[test]
fn infeasible_tightening_is_detected_through_the_dual_path() {
    let build = |ub: f64| {
        let mut lp = LpProblem::new();
        let x = lp.add_var(0.0, ub, 1.0);
        let y = lp.add_var(0.0, ub, 2.0);
        lp.add_constraint([(x, 1.0), (y, 1.0)], ConstraintSense::Ge, 4.0);
        lp
    };
    let cold = solve_primal(&build(3.0)).unwrap();
    let warm = solve(&build(1.0), &warm_from(&cold.basis));
    assert!(
        matches!(warm, Err(LpError::Infeasible)),
        "x + y >= 4 with x, y <= 1 must be infeasible, got {warm:?}"
    );
}

/// The dual phase on both sides of the solve-kernel switch
/// (`a2a_lp::lu::IN_ORDER_DENSITY`). Every LP above has so few rows that a unit
/// vector is already "dense" and the in-order kernel runs throughout. These two
/// have enough rows that the phase starts on the reach kernel, and bases whose
/// inverse fills in until the density averages carry the solves across the
/// switch (counted with `a2a_obs` when written: the covering LP's dual phase runs
/// 421 triangular stages by reach and 215 in order, the tightened network's 94
/// and 552). Whichever kernel ran, the optimum is the primal-only one.
#[test]
fn dual_phase_agrees_with_primal_across_the_kernel_switch() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xDE45E_51317);

    // A seeded covering LP: min c'x, Ax >= b with A >= 0 sparse, c > 0. The
    // slack basis is dual-feasible and primal-infeasible, so the dual simplex
    // runs the whole solve.
    let (nrows, nvars) = (160, 320);
    let mut covering = LpProblem::new();
    let vars: Vec<_> = (0..nvars)
        .map(|_| covering.add_nonneg_var(rng.random_range(1..20) as f64))
        .collect();
    for i in 0..nrows {
        // Every row holds its own variable, so the LP is feasible.
        let mut coeffs = vec![(vars[i], 1.0 + rng.random_range(0..4) as f64)];
        for _ in 0..7 {
            let j = rng.random_range(0..nvars);
            if coeffs.iter().all(|&(v, _)| v != vars[j]) {
                coeffs.push((vars[j], 1.0 + rng.random_range(0..4) as f64));
            }
        }
        covering.add_constraint(coeffs, ConstraintSense::Ge, rng.random_range(1..10) as f64);
    }
    let dual = solve_dual_from_slack(&covering).unwrap();
    let primal = solve_primal(&covering).unwrap();
    assert!(dual.dual_iterations > 0, "the covering LP must run dually");
    assert!(
        (dual.objective - primal.objective).abs() <= 1e-9 * (1.0 + primal.objective.abs()),
        "covering LP: dual {} vs primal {}",
        dual.objective,
        primal.objective
    );
    assert_primal_feasible(&covering, &dual.x);

    // The production trigger at a size where it matters: a 24-node network with
    // 8 commodities (~270 rows), warm-restarted after a non-uniform tightening.
    let n = 24;
    let mut edges: Vec<(usize, usize)> = (0..n).map(|u| (u, (u + 1) % n)).collect();
    while edges.len() < 3 * n {
        let (u, v) = (rng.random_range(0..n), rng.random_range(0..n));
        if u != v && !edges.contains(&(u, v)) {
            edges.push((u, v));
        }
    }
    let desc = NetworkDesc {
        n,
        caps: edges
            .iter()
            .map(|_| 1.0 + rng.random_range(0..8) as f64 * 0.5)
            .collect(),
        edges,
        commodities: (0..8).map(|c| (c, (3 * c + 5) % n)).collect(),
    };
    let cold = solve_primal(&build_network(&desc, |_| 1.0)).unwrap();
    let tightened = build_network(&desc, |e| if e % 2 == 0 { 0.15 } else { 0.9 });
    let warm = solve(&tightened, &warm_from(&cold.basis)).unwrap();
    let reference = solve_primal(&tightened).unwrap();
    assert!(
        warm.dual_iterations > 0,
        "the tightened network must run dually"
    );
    assert!(
        (warm.objective - reference.objective).abs() <= 1e-9 * (1.0 + reference.objective.abs()),
        "tightened network: warm dual {} vs cold primal {}",
        warm.objective,
        reference.objective
    );
    assert_primal_feasible(&tightened, &warm.x);
}

/// Count pin of the dual loop at the LP level: the seeded covering LP of
/// [`dual_phase_agrees_with_primal_across_the_kernel_switch`] (same seed, same
/// draws) runs entirely in the dual phase and crosses one refactorization, so
/// its `(iterations, dual iterations, pivots, refactorizations)` and objective
/// bits move with any change to which dual pivots are taken, to their
/// arithmetic, or to the refactorization cadence.
#[test]
fn covering_lp_dual_trajectory_is_pinned() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xDE45E_51317);
    let (nrows, nvars) = (160, 320);
    let mut covering = LpProblem::new();
    let vars: Vec<_> = (0..nvars)
        .map(|_| covering.add_nonneg_var(rng.random_range(1..20) as f64))
        .collect();
    for i in 0..nrows {
        let mut coeffs = vec![(vars[i], 1.0 + rng.random_range(0..4) as f64)];
        for _ in 0..7 {
            let j = rng.random_range(0..nvars);
            if coeffs.iter().all(|&(v, _)| v != vars[j]) {
                coeffs.push((vars[j], 1.0 + rng.random_range(0..4) as f64));
            }
        }
        covering.add_constraint(coeffs, ConstraintSense::Ge, rng.random_range(1..10) as f64);
    }
    let dual = solve_dual_from_slack(&covering).unwrap();
    assert_eq!(
        (
            dual.iterations,
            dual.dual_iterations,
            dual.pivots,
            dual.refactorizations,
            dual.objective.to_bits()
        ),
        (105, 105, 105, 1, 0x407c_7d06_d481_f304),
        "covering LP: dual trajectory moved (objective now {})",
        dual.objective
    );
}

/// A seeded covering LP on near-singular columns: entries drawn from ±1,
/// `1 ± δ`, `±δ` (δ a few hundred multiples of 2⁻³⁶), 1/3, 3 and 0.1. Started
/// from the slack basis it runs the dual phase, and at one dual pivot the
/// FTRANed `w_r` falls within the pivot tolerance while the expanded row's
/// `alpha_q` does not, so the loop refactorizes and retries, the path no
/// other suite reaches (a bounded search found it on 6 of 3.5 million seeds).
/// The primal two-phase method calls this model infeasible; the pin holds the
/// retry's trajectory, not an answer: iterations, dual iterations, pivots,
/// refactorizations and the objective bits.
#[test]
fn near_singular_dual_pivot_refactorizes_and_retries() {
    let mut rng = ChaCha8Rng::seed_from_u64(340_360);
    let m = rng.random_range(2..12);
    let n = rng.random_range(m..3 * m + 2);
    let delta = rng.random_range(1..400) as f64 * 2f64.powi(-36);
    let entry = |rng: &mut ChaCha8Rng| match rng.random_range(0..12) {
        0 => 1.0,
        1 => -1.0,
        2 => 1.0 + delta,
        3 => 1.0 - delta,
        4 => delta,
        5 => -delta,
        6 => 1.0 / 3.0,
        7 => 3.0,
        8 => 0.1,
        _ => 0.0,
    };
    let cols = (0..n)
        .map(|_| {
            let entries: Vec<(usize, f64)> = (0..m)
                .map(|i| (i, entry(&mut rng)))
                .filter(|&(_, v)| v != 0.0)
                .collect();
            a2a_lp::sparse::SparseVec::from_entries(entries)
        })
        .collect();
    let obj = (0..n).map(|_| rng.random_range(0..4) as f64).collect();
    let upper = (0..n)
        .map(|_| {
            if rng.random_bool(0.3) {
                rng.random_range(1..4) as f64
            } else {
                INF
            }
        })
        .collect();
    let sf = StandardForm {
        nrows: m,
        cols,
        obj,
        lower: vec![0.0; n],
        upper,
        row_lower: (0..m).map(|_| rng.random_range(0..6) as f64).collect(),
        row_upper: vec![INF; m],
    };
    let options = SimplexOptions {
        warm_start: Some(slack_basis(&sf)),
        ..SimplexOptions::default()
    };
    let sol = a2a_lp::simplex::solve(&sf, &options).unwrap();
    assert_eq!(
        (
            sol.iterations,
            sol.dual_iterations,
            sol.pivots,
            sol.refactorizations,
            sol.objective.to_bits()
        ),
        (6, 5, 6, 1, 0x41d4_46f8_6522_d9fb),
        "near-singular covering LP: trajectory moved (objective now {})",
        sol.objective
    );
}
