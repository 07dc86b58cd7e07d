//! # a2a-lp
//!
//! A self-contained linear-programming toolkit used by the all-to-all scheduling
//! toolchain. The paper ("Efficient all-to-all Collective Communication Schedules for
//! Direct-connect Topologies", HPDC 2024) solves all of its flow formulations with a
//! commercial LP solver (MOSEK); this crate is the from-scratch substitute.
//!
//! The crate provides:
//!
//! * [`sparse`] — compressed sparse column/row matrices and sparse vectors.
//! * [`lu`] — sparse LU factorization (Markowitz threshold pivoting) of simplex
//!   bases, kept current across pivots by **Forrest–Tomlin updates**
//!   ([`lu::LuFactorization::replace_column`]): the entering column's partial
//!   FTRAN spikes the replaced `U` column, the row spike is eliminated into one
//!   bounded row eta, and the factorization refuses unstable updates so the
//!   simplex refactorizes exactly when the numerics demand it.
//! * [`presolve`] — reductions applied before the simplex sees a model
//!   (fixed-variable elimination, singleton-row substitution, empty/redundant-row
//!   removal) plus geometric-mean row/column scaling rounded to powers of two,
//!   with a postsolve that maps primal values and the exported basis back to the
//!   original model so warm starts keep working end to end.
//! * [`simplex`] — a bounded-variable revised simplex method with a two-phase
//!   start. Pricing defaults to devex with incrementally maintained reduced costs
//!   ([`simplex::Pricing::Devex`]); Dantzig remains available, starts can be
//!   warm ([`simplex::SimplexOptions::warm_start`], [`simplex::triangular_crash`])
//!   and every solution exports its basis for reuse. Presolve and scaling are on
//!   by default ([`simplex::SimplexOptions::presolve`] /
//!   [`simplex::SimplexOptions::scaling`]). A [`simplex::Solver`] can also be
//!   held open as an incremental *session* for column generation:
//!   [`simplex::Solver::add_columns`] appends structural columns without
//!   disturbing the factorized basis and [`simplex::Solver::reoptimize`]
//!   continues from it, while [`simplex::Solver::current_duals`] /
//!   [`simplex::recover_row_duals`] expose the duals that price new columns.
//! * [`model`] — a small modelling layer ([`model::LpProblem`]) with named variables,
//!   linear constraints and minimize/maximize objectives.
//! * [`ilp`] — branch-and-bound over the LP solver for the (deliberately small-scale)
//!   integer-programming baselines in the paper's evaluation.
//! * [`mod@reference`] — a dense textbook tableau simplex used as an independent oracle in
//!   tests.
//!
//! # Solve pipeline
//!
//! [`simplex::solve`] runs `presolve → scale → simplex (FT-updated basis) →
//! postsolve`. The presolve typically strips the hundreds of forced-zero flow
//! variables every MCF formulation carries (for example "no flow back into the
//! source" edges) and the rows they empty; the Forrest–Tomlin update policy
//! refactorizes after [`simplex::SimplexOptions::refactor_interval`] updates,
//! on fill growth past a fixed multiple of the base factorization, or
//! immediately when an update's new diagonal is too small relative to its spike.
//!
//! The solver targets the structure of network-flow LPs: very sparse columns (2–4
//! nonzeros), coefficients of ±1 and modest right-hand sides. It is exact (up to
//! floating-point tolerances) rather than approximate, which is what the paper's
//! optimality claims require.

pub mod error;
pub mod ilp;
pub mod lu;
pub mod model;
pub mod presolve;
pub mod reference;
pub mod simplex;
pub mod sparse;

pub use error::{LpError, LpResult};
pub use model::{ConstraintSense, LpProblem, LpSolution, Objective, SolveStatus, VarId};
pub use presolve::Reduction;
pub use simplex::{
    recover_row_duals, triangular_crash, BasisStatus, DualSimplex, NewColumn, Pricing,
    SimplexOptions, Solver, StandardForm, StandardSolution, WarmStart,
};

/// Default feasibility / optimality tolerance used across the crate.
pub const DEFAULT_TOL: f64 = 1e-7;

/// Value used to represent "no bound".
pub const INF: f64 = f64::INFINITY;
