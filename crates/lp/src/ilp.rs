//! Branch-and-bound integer programming over the LP solver.
//!
//! The evaluation in the paper uses small integer programs (ILP-disjoint /
//! ILP-shortest path selection) as baselines and explicitly relies on the fact that
//! they *do not scale* — so this module favours clarity over sophistication: LP-based
//! branch and bound with most-fractional branching, best-bound node selection and a
//! node limit that makes the exponential blow-up observable rather than fatal.

use std::collections::BinaryHeap;

use crate::error::{LpError, LpResult};
use crate::simplex::{self, SimplexOptions, StandardForm, StandardSolution};

/// Tolerance used to decide whether an LP value is integral.
pub const INTEGRALITY_TOL: f64 = 1e-6;

/// Options for the branch-and-bound search.
#[derive(Debug, Clone)]
pub struct IlpOptions {
    /// Maximum number of branch-and-bound nodes explored before giving up.
    pub max_nodes: usize,
    /// Relative optimality gap at which the search stops (0.0 = prove optimality).
    pub relative_gap: f64,
}

impl Default for IlpOptions {
    fn default() -> Self {
        Self {
            max_nodes: 100_000,
            relative_gap: 0.0,
        }
    }
}

/// Result of a branch-and-bound run.
#[derive(Debug, Clone)]
pub struct IlpSolution {
    /// Best integer-feasible solution found (its objective in the minimize sense
    /// of the [`StandardForm`]).
    pub solution: StandardSolution,
    /// Number of nodes explored.
    pub nodes: usize,
    /// True if optimality was proven (search tree exhausted or gap closed), false if the
    /// node limit stopped the search with an incumbent in hand.
    pub proven_optimal: bool,
}

#[derive(Debug)]
struct Node {
    /// Bound of the parent relaxation (a lower bound on descendants).
    bound: f64,
    /// Extra variable bounds applied on the path to this node.
    bound_changes: Vec<(usize, f64, f64)>,
}

/// Ordering for the best-bound priority queue (smallest minimize-sense bound first).
impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        self.bound == other.bound
    }
}
impl Eq for Node {}
impl PartialOrd for Node {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Node {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; invert so the smallest bound is popped first.
        other
            .bound
            .partial_cmp(&self.bound)
            .unwrap_or(std::cmp::Ordering::Equal)
    }
}

/// Solves `sf` with the requirement that every column in `integer_vars` takes an
/// integral value.
///
/// Every node solves the same model under its own bounds: one working copy
/// whose bounds are reset to `sf`'s and tightened by the node's branching
/// decisions, solved from a cold start.
pub fn solve_ilp(
    sf: &StandardForm,
    integer_vars: &[usize],
    options: &IlpOptions,
) -> LpResult<IlpSolution> {
    let mut work = sf.clone();
    let root = Node {
        bound: f64::NEG_INFINITY,
        bound_changes: Vec::new(),
    };
    let mut heap = BinaryHeap::new();
    heap.push(root);

    let mut incumbent: Option<StandardSolution> = None;
    let mut incumbent_obj = f64::INFINITY;
    let mut nodes = 0usize;
    let mut hit_node_limit = false;

    while let Some(node) = heap.pop() {
        if nodes >= options.max_nodes {
            hit_node_limit = true;
            break;
        }
        // Prune by bound.
        if node.bound >= incumbent_obj - gap_slack(incumbent_obj, options.relative_gap) {
            continue;
        }
        nodes += 1;

        // Apply this node's bound changes to the root bounds. Crossed bounds mean
        // the node is trivially infeasible (e.g. branching x >= 1 on a variable whose
        // upper bound is 0.8).
        work.lower.copy_from_slice(&sf.lower);
        work.upper.copy_from_slice(&sf.upper);
        let crossed = node.bound_changes.iter().any(|&(var, lo, up)| {
            work.lower[var] = work.lower[var].max(lo);
            work.upper[var] = work.upper[var].min(up);
            work.lower[var] > work.upper[var]
        });
        if crossed {
            continue;
        }

        let relax = match simplex::solve(&work, &SimplexOptions::default()) {
            Ok(sol) => sol,
            Err(LpError::Infeasible) => continue,
            Err(e) => return Err(e),
        };
        let relax_min_obj = relax.objective;
        if relax_min_obj >= incumbent_obj - gap_slack(incumbent_obj, options.relative_gap) {
            continue;
        }

        // Find the most fractional integer variable.
        let mut branch: Option<(usize, f64, f64)> = None; // (var, value, fractionality)
        for &v in integer_vars {
            let val = relax.x[v];
            let frac = (val - val.round()).abs();
            if frac > INTEGRALITY_TOL {
                let dist_to_half = (val.fract().abs() - 0.5).abs();
                match branch {
                    Some((_, _, best)) if best <= dist_to_half => {}
                    _ => branch = Some((v, val, dist_to_half)),
                }
            }
        }

        match branch {
            None => {
                // Integer feasible: update the incumbent.
                if relax_min_obj < incumbent_obj {
                    incumbent_obj = relax_min_obj;
                    incumbent = Some(relax);
                }
            }
            Some((var, val, _)) => {
                let floor = val.floor();
                let ceil = val.ceil();
                let mut down = node.bound_changes.clone();
                down.push((var, f64::NEG_INFINITY, floor));
                let mut up = node.bound_changes.clone();
                up.push((var, ceil, f64::INFINITY));
                heap.push(Node {
                    bound: relax_min_obj,
                    bound_changes: down,
                });
                heap.push(Node {
                    bound: relax_min_obj,
                    bound_changes: up,
                });
            }
        }
    }

    match incumbent {
        Some(solution) => Ok(IlpSolution {
            solution,
            nodes,
            proven_optimal: !hit_node_limit,
        }),
        None => {
            if hit_node_limit {
                Err(LpError::IterationLimit { iterations: nodes })
            } else {
                Err(LpError::Infeasible)
            }
        }
    }
}

fn gap_slack(incumbent_obj: f64, relative_gap: f64) -> f64 {
    if incumbent_obj.is_finite() {
        relative_gap * incumbent_obj.abs()
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ConstraintSense, LpProblem};

    /// The lowered model and its columns' indices.
    fn lower(lp: &LpProblem, vars: &[crate::VarId]) -> (StandardForm, Vec<usize>) {
        let sf = lp.to_standard_form().unwrap();
        (sf, vars.iter().map(|v| v.index()).collect())
    }

    #[test]
    fn knapsack_is_solved_to_optimality() {
        // max 10a + 13b + 7c subject to 3a + 4b + 2c <= 6, binary.
        // Best: a + c (weight 5, value 17)? b + c = weight 6 value 20. Optimal 20.
        let mut lp = LpProblem::new();
        let a = lp.add_var(0.0, 1.0, -10.0);
        let b = lp.add_var(0.0, 1.0, -13.0);
        let c = lp.add_var(0.0, 1.0, -7.0);
        lp.add_constraint([(a, 3.0), (b, 4.0), (c, 2.0)], ConstraintSense::Le, 6.0);
        let (sf, ints) = lower(&lp, &[a, b, c]);
        let sol = solve_ilp(&sf, &ints, &IlpOptions::default()).unwrap();
        assert!(sol.proven_optimal);
        assert!((sol.solution.objective + 20.0).abs() < 1e-5);
        for &j in &ints {
            let x = sol.solution.x[j];
            assert!((x - x.round()).abs() < 1e-5, "{x} not integral");
        }
    }

    #[test]
    fn lp_relaxation_differs_from_ilp_optimum() {
        // Fractional knapsack would take half of an item; ILP cannot.
        let mut lp = LpProblem::new();
        let a = lp.add_var(0.0, 1.0, -5.0);
        let b = lp.add_var(0.0, 1.0, -5.0);
        lp.add_constraint([(a, 2.0), (b, 2.0)], ConstraintSense::Le, 3.0);
        let (sf, ints) = lower(&lp, &[a, b]);
        let relax = simplex::solve(&sf, &SimplexOptions::default()).unwrap();
        assert!(relax.objective < -5.0 - 1e-6);
        let sol = solve_ilp(&sf, &ints, &IlpOptions::default()).unwrap();
        assert!((sol.solution.objective + 5.0).abs() < 1e-5);
    }

    #[test]
    fn infeasible_ilp_is_reported() {
        // x must be an integer in [0.2, 0.8]: LP feasible, ILP infeasible.
        let mut lp = LpProblem::new();
        let x = lp.add_var(0.2, 0.8, 1.0);
        lp.add_constraint([(x, 1.0)], ConstraintSense::Ge, 0.2);
        let (sf, ints) = lower(&lp, &[x]);
        assert_eq!(
            solve_ilp(&sf, &ints, &IlpOptions::default()).unwrap_err(),
            LpError::Infeasible
        );
    }

    #[test]
    fn mixed_integer_keeps_continuous_variables_fractional() {
        // max x + y, x integer in [0,3], y continuous in [0, 2.5], x + y <= 4.7.
        let mut lp = LpProblem::new();
        let x = lp.add_var(0.0, 3.0, -1.0);
        let y = lp.add_var(0.0, 2.5, -1.0);
        lp.add_constraint([(x, 1.0), (y, 1.0)], ConstraintSense::Le, 4.7);
        let (sf, ints) = lower(&lp, &[x]);
        let sol = solve_ilp(&sf, &ints, &IlpOptions::default()).unwrap();
        let xv = sol.solution.x[x.index()];
        assert!((xv - xv.round()).abs() < 1e-6);
        assert!((sol.solution.objective + 4.7).abs() < 1e-5);
    }

    #[test]
    fn node_limit_is_respected() {
        // A slightly larger knapsack with a node limit of 1 still returns an incumbent
        // only if one was found in the first node; otherwise it reports the limit.
        let mut lp = LpProblem::new();
        let vars: Vec<_> = (0..8)
            .map(|i| lp.add_var(0.0, 1.0, -((i + 1) as f64)))
            .collect();
        lp.add_constraint(vars.iter().map(|&v| (v, 2.0)), ConstraintSense::Le, 7.0);
        let options = IlpOptions {
            max_nodes: 1,
            ..IlpOptions::default()
        };
        let (sf, ints) = lower(&lp, &vars);
        match solve_ilp(&sf, &ints, &options) {
            Ok(sol) => assert!(!sol.proven_optimal),
            Err(LpError::IterationLimit { .. }) => {}
            Err(e) => panic!("unexpected error {e}"),
        }
    }
}
