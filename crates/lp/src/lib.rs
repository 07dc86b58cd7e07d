//! # a2a-lp
//!
//! A self-contained linear-programming toolkit used by the all-to-all scheduling
//! toolchain. The paper ("Efficient all-to-all Collective Communication Schedules for
//! Direct-connect Topologies", HPDC 2024) solves all of its flow formulations with a
//! commercial LP solver (MOSEK); this crate is the from-scratch substitute.
//!
//! The crate provides:
//!
//! * [`sparse`] — sparse vectors (matrix columns) and the dense-value /
//!   explicit-pattern workspace of the sparse solve kernels.
//! * [`lu`] — sparse LU factorization (Markowitz threshold pivoting) of simplex
//!   bases, kept current across pivots by **Forrest–Tomlin updates**
//!   ([`lu::LuFactorization::replace_column`]): the entering column's partial
//!   FTRAN spikes the replaced `U` column, the row spike is eliminated into one
//!   bounded row eta, and the factorization refuses unstable updates so the
//!   simplex refactorizes exactly when the numerics demand it.
//! * [`simplex`] — a bounded-variable revised simplex method with a two-phase
//!   start and one pricing rule, devex with incrementally maintained reduced
//!   costs in phase 2. Its primal and dual loops share one pivot core, and
//!   basis maintenance, pricing, the ratio tests and the session each have a
//!   private module (see the [`simplex`] module docs). Starts can be warm
//!   ([`simplex::SimplexOptions::warm_start`], [`simplex::triangular_crash`])
//!   and every solution exports its basis for reuse. A [`simplex::Solver`] can
//!   also be held open as an incremental *session* for column generation:
//!   [`simplex::Solver::add_columns`] appends structural columns without
//!   disturbing the factorized basis and [`simplex::Solver::reoptimize`]
//!   continues from it, while [`simplex::Solver::current_duals`] exposes the
//!   duals that price new columns.
//! * [`model`] — a row builder ([`model::LpProblem`]): bounded variables and
//!   `<=` / `>=` / `==` rows, lowered once to a [`simplex::StandardForm`].
//! * [`ilp`] — branch-and-bound over the LP solver for the (deliberately small-scale)
//!   integer-programming baselines in the paper's evaluation.
//! * [`mod@reference`] — a dense textbook tableau simplex used as an independent oracle in
//!   tests.
//!
//! # Solve pipeline
//!
//! There is one way into the LP: a [`simplex::StandardForm`] (built directly, or
//! lowered from an [`LpProblem`] by [`LpProblem::to_standard_form`]) goes to a
//! [`simplex::Solver`] as it is — [`simplex::solve`] is
//! `Solver::new(sf, options)?.solve()` — and every result is a
//! [`simplex::StandardSolution`], minimize sense, indexed like the form.
//! `Solver::new` is the one place a model is checked (bounds, costs,
//! coefficients). Nothing is removed or rescaled on the way, so
//! indices, the exported basis and the duals refer to the caller's model. The
//! MCF builders emit only the columns that can carry flow (no "flow back into
//! the source" variables fixed at zero). The Forrest–Tomlin update policy
//! refactorizes after a fixed number of updates (100), on fill growth past a
//! fixed multiple of the base factorization, or immediately when an update's new
//! diagonal is too small relative to its spike. The tolerances and that interval
//! are constants: [`simplex::SimplexOptions`] sets only the iteration cap and
//! the warm start.
//!
//! The solver targets the structure of network-flow LPs: very sparse columns (2–4
//! nonzeros), coefficients of ±1 and modest right-hand sides. It is exact (up to
//! floating-point tolerances) rather than approximate, which is what the paper's
//! optimality claims require.

pub mod error;
pub mod ilp;
pub mod lu;
pub mod model;
pub mod reference;
pub mod simplex;
pub mod sparse;

pub use error::{LpError, LpResult};
pub use model::{ConstraintSense, LpProblem, VarId};
pub use simplex::{
    triangular_crash, BasisStatus, NewColumn, SimplexOptions, Solver, StandardForm,
    StandardSolution, WarmStart,
};

/// Value used to represent "no bound".
pub const INF: f64 = f64::INFINITY;
