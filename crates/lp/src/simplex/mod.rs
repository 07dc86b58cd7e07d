//! Bounded-variable revised simplex method.
//!
//! The solver works on an equality *standard form*: structural columns `A`, one logical
//! (slack) variable per row, and the system `A x - s = 0` with `s` bounded by the row
//! bounds. A two-phase method is used: phase 1 minimizes the total bound violation of
//! the basic variables (a piecewise-linear infeasibility objective), phase 2 minimizes
//! the real objective.
//!
//! The solver works on the model exactly as the caller built it — no row or column
//! is removed or rescaled — so row and column indices, the exported basis and the
//! duals all refer to the caller's [`StandardForm`].
//!
//! The basis inverse is maintained as a sparse LU factorization ([`crate::lu`]) kept
//! current across pivots by **Forrest–Tomlin updates**
//! ([`crate::lu::LuFactorization::replace_column`]): each basis change spikes the
//! replaced `U` column with the entering column's partial FTRAN, eliminates the row
//! spike into a single bounded row eta, and leaves `U` explicitly triangular — so
//! FTRAN/BTRAN cost stays at factorization quality instead of growing with an
//! unbounded product-form eta file. The basis is refactorized from scratch only when
//! the update count reaches a fixed interval (100), when update fill outgrows the
//! base factorization, or when an update reports instability. All
//! per-pivot linear algebra works on sparse vectors: FTRAN/BTRAN take sparse
//! right-hand sides ([`crate::lu::LuFactorization::ftran_sparse`]) and the ratio
//! test and step update iterate nonzero patterns instead of dense work arrays.
//! The primal phases order their triangular solves by symbolic reach; the dual
//! phase, whose operands fill a third to a half of the dimension on the masters
//! it serves, lets each solve stage pick between that and a plain in-order sweep
//! from the density it sees ([`crate::lu::Kernel`]).
//!
//! # One pivot core
//!
//! The primal loop ([`Solver::reoptimize`]'s phases 1 and 2) and the dual loop
//! share the steps of an iteration that do not depend on how it chose its
//! pivot: opening the pass against [`SimplexOptions::max_iterations`], loading
//! and FTRANing the entering column (keeping the Forrest–Tomlin spike), the
//! step of the basic values, the reduced-cost update over the pivotal row,
//! counting the iteration, committing the basis change (Forrest–Tomlin update,
//! refactorization on rejection, on the update interval or on fill) and the
//! degenerate-run / Bland bookkeeping. Each loop owns only its choices: the
//! primal its pricing, two-pass ratio test and bound flip of the entering
//! column; the dual its leaving-row selection, long-step (bound-flipping) ratio
//! test and dual steepest-edge weights. The loops and the core live here;
//! basis maintenance, pricing, the ratio tests and the session's column edits
//! each have a module (`basis`, `pricing`, `ratio`, `session`).
//!
//! # Phase selection: primal two-phase vs. dual simplex
//!
//! A solve that starts primal-*feasible* (a session [`Solver::reoptimize`] after
//! [`Solver::add_columns`], or a warm start at an optimal basis of the same
//! instance) runs phase 2 only. A primal-infeasible start normally pays for
//! phase 1 first — but when the starting basis prices **dual-feasible** against
//! the real objective (every nonbasic reduced cost respects its bound's sign
//! condition) and the start is an installed warm or crash basis
//! ([`SimplexOptions::warm_start`]), the **dual simplex** takes over instead:
//! it repairs primal infeasibility while *keeping* dual feasibility, so it
//! walks straight to optimality on the real costs where phase 1 would burn
//! thousands of degenerate pivots on an infeasibility objective that knows
//! nothing about them. This is exactly the
//! warm-restart case (bounds or right-hand sides changed, costs didn't — the old
//! optimal basis stays dual-feasible) and the crash-basis case (a basis of
//! zero-cost columns against a one-hot objective, see the MCF master crash).
//!
//! Numerical trouble or a dual stall falls back to the primal two-phase method
//! on the current (still valid) basis, so a dual start is never worse than a
//! slow one. A cold all-slack start always runs the primal two-phase method; a
//! caller that wants the dual phase from the slack basis passes that basis as
//! an explicit warm start.

use std::borrow::Cow;

use crate::error::{LpError, LpResult};
use crate::lu::{Kernel, LuFactorization, LuScratch};
use crate::sparse::{SparseScratch, SparseVec};
use crate::INF;

mod basis;
mod pricing;
mod ratio;
mod session;

pub use basis::triangular_crash;

/// Basis status of one variable in a [`WarmStart`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BasisStatus {
    /// In the basis.
    Basic,
    /// Nonbasic at its lower bound.
    AtLower,
    /// Nonbasic at its upper bound.
    AtUpper,
    /// Nonbasic free variable (held at zero).
    Free,
}

/// A starting basis: one [`BasisStatus`] per variable, structural variables first
/// (in column order) followed by one logical/slack variable per row (in row order).
///
/// Exactly `nrows` entries must be [`BasisStatus::Basic`] for the start to be
/// usable; anything else (or a singular basis matrix) makes the solver fall back to
/// the all-slack start.
#[derive(Debug, Clone)]
pub struct WarmStart {
    /// Per-variable statuses, length `ncols + nrows`.
    pub statuses: Vec<BasisStatus>,
}

/// Solver options.
#[derive(Debug, Clone)]
pub struct SimplexOptions {
    /// Hard cap on total simplex iterations (both phases combined).
    pub max_iterations: usize,
    /// Optional starting basis (see [`WarmStart`]). Falls back to the all-slack
    /// basis when absent, malformed or singular.
    pub warm_start: Option<WarmStart>,
}

impl Default for SimplexOptions {
    fn default() -> Self {
        Self {
            max_iterations: 1_000_000,
            warm_start: None,
        }
    }
}

/// Feasibility / optimality tolerance.
const TOL: f64 = 1e-7;

/// Pivot-magnitude tolerance of the ratio tests.
const PIVOT_TOL: f64 = 1e-9;

/// Consecutive degenerate pivots tolerated before pricing falls back to the
/// plain largest-`|d|` score over every column until the plateau breaks. Devex's
/// weight growth deliberately de-prioritizes directions similar to recent
/// pivots; on the huge degenerate plateaus of time-expanded flow LPs that
/// scatters effort across commodities and can stall for millions of pivots,
/// while the plain steepest-reduced-cost rule follows the accumulated dual
/// signal out. Escaping early (well before [`DEGENERATE_SWITCH`]) keeps the
/// plateau shallow enough for that rule to exit it.
const STALL_ESCAPE_THRESHOLD: usize = 100;

/// Consecutive degenerate pivots after which both loops switch to Bland's
/// anti-cycling rule; the dual loop hands back to the primal phases at four
/// times this many.
const DEGENERATE_SWITCH: usize = 2_000;

// Observability taps (see `a2a_obs`): free when the global switch is off, and
// totals line up with the per-solve `iterations`/`refactorizations` fields —
// these accumulate across every solver in the process until `a2a_obs::reset`.
static OBS_ITERATIONS: a2a_obs::Counter = a2a_obs::Counter::new("lp.iterations");
static OBS_DUAL_ITERATIONS: a2a_obs::Counter = a2a_obs::Counter::new("lp.dual_iterations");
static OBS_STALL_ESCAPES: a2a_obs::Counter = a2a_obs::Counter::new("lp.stall_escapes");
static OBS_DEGENERATE_PIVOTS: a2a_obs::Counter = a2a_obs::Counter::new("lp.degenerate_pivots");
static OBS_ITERATION_NANOS: a2a_obs::Histogram = a2a_obs::Histogram::new("lp.iteration_nanos");

/// An LP in equality standard form: `A x = s`, `lower <= x <= upper`,
/// `row_lower <= s <= row_upper`, minimize `obj' x`.
#[derive(Debug, Clone)]
pub struct StandardForm {
    /// Number of constraint rows.
    pub nrows: usize,
    /// Structural columns of `A` (one [`SparseVec`] per variable).
    pub cols: Vec<SparseVec>,
    /// Objective coefficients (minimize sense), one per structural column.
    pub obj: Vec<f64>,
    /// Structural variable lower bounds.
    pub lower: Vec<f64>,
    /// Structural variable upper bounds.
    pub upper: Vec<f64>,
    /// Row activity lower bounds.
    pub row_lower: Vec<f64>,
    /// Row activity upper bounds.
    pub row_upper: Vec<f64>,
}

/// Solution of a [`StandardForm`] problem.
#[derive(Debug, Clone)]
pub struct StandardSolution {
    /// Structural variable values.
    pub x: Vec<f64>,
    /// Row activities `A x`.
    pub row_activity: Vec<f64>,
    /// Objective value (minimize sense).
    pub objective: f64,
    /// Total simplex iterations used.
    pub iterations: usize,
    /// Iterations spent in the dual-simplex phase (a subset of `iterations`;
    /// nonzero exactly when the dual phase ran, see the module docs).
    pub dual_iterations: usize,
    /// Basis changes performed (iterations minus bound flips).
    pub pivots: usize,
    /// Basis refactorizations performed (initial factorization excluded).
    pub refactorizations: usize,
    /// Final basis, reusable as [`SimplexOptions::warm_start`] for a related solve.
    pub basis: WarmStart,
}

/// Solves a standard-form LP to optimality with a one-shot [`Solver`].
pub fn solve(sf: &StandardForm, options: &SimplexOptions) -> LpResult<StandardSolution> {
    Solver::new(sf, options.clone())?.solve()
}

/// Checks the data of structural column `j` (its entries, cost and bounds):
/// the bounds are not NaN and ordered, the cost is finite, and every entry sits
/// on one of `nrows` rows with a finite coefficient.
fn check_column(
    j: usize,
    col: &SparseVec,
    obj: f64,
    (lower, upper): (f64, f64),
    nrows: usize,
) -> LpResult<()> {
    check_bounds("column", j, lower, upper)?;
    if !obj.is_finite() {
        return Err(LpError::InvalidModel(format!(
            "column {j} has non-finite objective {obj}"
        )));
    }
    if col.min_len() > nrows {
        return Err(LpError::InvalidModel(format!(
            "column {j} references row {} but the problem has {nrows} rows",
            col.min_len() - 1
        )));
    }
    if col.iter().any(|(_, v)| !v.is_finite()) {
        return Err(LpError::InvalidModel(format!(
            "column {j} has a non-finite coefficient"
        )));
    }
    Ok(())
}

/// Checks that the bounds of `what` `j` (a column or a row) are not NaN, that
/// the lower one is not `+inf` nor the upper one `-inf`, and that the lower
/// one does not exceed the upper one.
fn check_bounds(what: &str, j: usize, lower: f64, upper: f64) -> LpResult<()> {
    if lower.is_nan() || upper.is_nan() || lower > upper || lower == INF || upper == -INF {
        return Err(LpError::InvalidModel(format!(
            "{what} {j} has invalid bounds [{lower}, {upper}]"
        )));
    }
    Ok(())
}

/// The exported form of a variable's status.
fn basis_status(st: VarStatus) -> BasisStatus {
    match st {
        VarStatus::Basic(_) => BasisStatus::Basic,
        VarStatus::AtLower => BasisStatus::AtLower,
        VarStatus::AtUpper => BasisStatus::AtUpper,
        VarStatus::FreeZero => BasisStatus::Free,
    }
}

/// Entries of variable `j`'s constraint column, borrowed from `sf`: the
/// structural column, or the single `-1` of the logical of row `j - ncols`.
fn column_entries(sf: &StandardForm, j: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
    let structural = sf.cols.get(j).map(SparseVec::iter);
    let logical = (j >= sf.cols.len()).then(|| (j - sf.cols.len(), -1.0));
    structural.into_iter().flatten().chain(logical)
}

/// How a dual-simplex phase ended (internal to [`Solver::reoptimize`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DualOutcome {
    /// Primal feasibility reached with dual feasibility maintained — optimal
    /// (phase 2 runs afterwards only as a zero-iteration certification pass).
    Optimal,
    /// The dual run could not finish (dual unboundedness — which the primal
    /// phases re-prove as infeasibility from clean state — a degenerate stall,
    /// or repeated numerical trouble). The basis is valid; the primal
    /// two-phase method continues from it.
    Fallback,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VarStatus {
    Basic(usize),
    AtLower,
    AtUpper,
    /// Free (both bounds infinite) nonbasic variable held at zero.
    FreeZero,
}

/// A structural column appended to a live solver session by
/// [`Solver::add_columns`].
#[derive(Debug, Clone)]
pub struct NewColumn {
    /// Sparse constraint-matrix column (`(row, coefficient)` entries).
    pub col: SparseVec,
    /// Objective coefficient (minimize sense).
    pub obj: f64,
    /// Lower bound.
    pub lower: f64,
    /// Upper bound.
    pub upper: f64,
}

/// Bounded-variable revised simplex solver state.
///
/// Beyond the one-shot [`solve`] entry point, a `Solver` can be kept alive as an
/// *incremental session* for column generation: [`Solver::new`] (or
/// [`Solver::new_owned`]) builds the initial basis, [`Solver::reoptimize`] runs
/// the two phases without consuming the solver, [`Solver::add_columns`] appends
/// structural columns while keeping the factorized basis — including any
/// accumulated Forrest–Tomlin updates — intact, and [`Solver::current_duals`]
/// exposes the row duals the caller needs to price candidate columns.
pub struct Solver<'a> {
    // The model and the loops' state, written here and by `session`.
    /// The model being solved. Borrowed until the first [`Solver::add_columns`]
    /// call clones it into owned storage (columns can then be appended freely).
    sf: Cow<'a, StandardForm>,
    opts: SimplexOptions,
    nstruct: usize,
    ntotal: usize,
    nrows: usize,
    /// Lower bound of every variable, structurals then logicals — `sf.lower`
    /// followed by `sf.row_lower`, flat, so the per-column scans (pricing, the
    /// ratio tests, dual row selection) read one array with no structural /
    /// logical branch. Rebuilt wherever the model's bounds change:
    /// construction, [`Solver::add_columns`], [`Solver::deactivate_columns`].
    lower: Vec<f64>,
    /// Upper bound of every variable; see `lower`.
    upper: Vec<f64>,
    status: Vec<VarStatus>,
    /// Current value of every variable (structural + logical).
    x: Vec<f64>,
    iterations: usize,
    dual_iterations: usize,
    degenerate_run: usize,
    use_bland: bool,
    /// Whether a caller-provided warm/crash basis was actually installed (the
    /// dual-phase trigger; slack fallbacks leave this false).
    warm_installed: bool,
    /// Scratch: pivot column `w = B^{-1} A_q` (basis-position space).
    col_buf: SparseScratch,
    /// Scratch: partial FTRAN of the entering column (the Forrest–Tomlin spike).
    spike_buf: SparseScratch,
    /// Scratch for the pivotal row `alpha` (dimension: all variables).
    alpha_buf: SparseScratch,
    /// Scratch for the LU symbolic/numeric solves.
    lu_scratch: LuScratch,
    // `basis`: the basis, its factors and the partitioned row copy.
    basis: Vec<usize>,
    /// Basis factorization, kept current across pivots by Forrest–Tomlin updates.
    lu: LuFactorization,
    pivots: usize,
    refactorizations: usize,
    /// Scratch: dense right-hand side of the basic-value and bound-flip solves.
    rhs_buf: Vec<f64>,
    /// Scratch: pivotal row `rho = e_r B^{-1}` for devex updates.
    row_buf: SparseScratch,
    /// Row-wise copy of the structural matrix: `a_rows[i]` lists `(column, value)`
    /// of row `i`. Used to expand the pivotal row `alpha = rho A` from `rho`'s
    /// sparse pattern in O(touched-row lengths) instead of O(nnz(A)).
    ///
    /// Each row is partitioned by basis status: its nonbasic columns come first
    /// (`a_rows[i][..nb_len[i]]`), its basic ones after. The pivotal row is only
    /// ever needed at nonbasic columns, so the expansion reads the prefixes
    /// and never sees a basic column (a third of the entries it used to
    /// accumulate and the update loops then skipped one by one on the
    /// genkautz path masters). The order inside either part is arbitrary; each
    /// `alpha_j` accumulates over `rho`'s pattern in pattern order whatever
    /// it is. [`Solver::commit_basis_change`] keeps the partition across
    /// pivots, [`Solver::build_a_rows`] builds it against the installed basis.
    a_rows: Vec<Vec<(usize, f64)>>,
    /// Length of the nonbasic prefix of each row of `a_rows`.
    nb_len: Vec<usize>,
    /// Differential tests only: expand the pivotal row by walking whole
    /// `a_rows` rows and testing each column's status, as the expansion did
    /// before the rows were partitioned.
    #[cfg(test)]
    full_row_expansion: bool,
    // `pricing`: reduced costs and duals, and the weights that rank columns and rows.
    /// Exact reduced costs of every variable, maintained incrementally across
    /// the pivots of phase 2 and the dual phase (`d[j] -= step * alpha_j`).
    d: Vec<f64>,
    /// Whether `d` is currently trusted; cleared on refactorization and phase
    /// changes, rebuilt from a fresh BTRAN when needed.
    d_fresh: bool,
    /// Scratch: dual vector `y` (BTRAN output, original-row space).
    dual_buf: SparseScratch,
    /// Devex reference weights, one per variable.
    weights: Vec<f64>,
    /// Dual-devex row weights, one per basis position (dual phase only).
    row_weights: Vec<f64>,
    /// Cost perturbation active during the dual phase (empty otherwise): the
    /// dual method's anti-degeneracy counterpart of `phase1_jitter`. Entirely
    /// zero-cost LPs (flow masters) are maximally dual degenerate — every
    /// ratio is zero and no dual step makes progress — so the dual phase runs
    /// on costs nudged away from zero in each nonbasic's dual-feasible
    /// direction, and the final primal phase 2 (true costs) cleans up.
    perturb: Vec<f64>,
    /// Current phase-1 devex pricing candidate list.
    candidates: Vec<usize>,
    /// Partial-pricing rotation cursor into the column range.
    scan_cursor: usize,
    /// Minor iterations priced against the current candidate list.
    minor_count: usize,
}

impl<'a> Solver<'a> {
    /// Builds the initial basis: the warm start when one is provided and usable,
    /// the all-logical basis otherwise.
    pub fn new(sf: &'a StandardForm, opts: SimplexOptions) -> LpResult<Self> {
        Self::from_cow(Cow::Borrowed(sf), opts)
    }

    /// [`Solver::new`] over an owned standard form — for sessions that outlive
    /// the scope that built the model (column generation keeps one of these).
    pub fn new_owned(sf: StandardForm, opts: SimplexOptions) -> LpResult<Solver<'static>> {
        Solver::from_cow(Cow::Owned(sf), opts)
    }

    fn from_cow(sf: Cow<'a, StandardForm>, opts: SimplexOptions) -> LpResult<Self> {
        let nstruct = sf.cols.len();
        let nrows = sf.nrows;
        if sf.obj.len() != nstruct || sf.lower.len() != nstruct || sf.upper.len() != nstruct {
            return Err(LpError::InvalidModel(
                "standard form arrays have inconsistent lengths".into(),
            ));
        }
        if sf.row_lower.len() != nrows || sf.row_upper.len() != nrows {
            return Err(LpError::InvalidModel(
                "standard form row bound arrays have inconsistent lengths".into(),
            ));
        }
        for (j, col) in sf.cols.iter().enumerate() {
            check_column(j, col, sf.obj[j], (sf.lower[j], sf.upper[j]), nrows)?;
        }
        for i in 0..nrows {
            check_bounds("row", i, sf.row_lower[i], sf.row_upper[i])?;
        }
        let ntotal = nstruct + nrows;
        let lower = [sf.lower.as_slice(), sf.row_lower.as_slice()].concat();
        let upper = [sf.upper.as_slice(), sf.row_upper.as_slice()].concat();

        let mut solver = Self {
            sf,
            opts,
            nstruct,
            ntotal,
            nrows,
            status: Vec::new(),
            basis: Vec::new(),
            x: Vec::new(),
            lu: LuFactorization::factorize(0, std::iter::empty::<[(usize, f64); 0]>())?,
            iterations: 0,
            dual_iterations: 0,
            pivots: 0,
            refactorizations: 0,
            degenerate_run: 0,
            use_bland: false,
            warm_installed: false,
            weights: vec![1.0; ntotal],
            row_weights: Vec::new(),
            perturb: Vec::new(),
            candidates: Vec::new(),
            scan_cursor: 0,
            minor_count: 0,
            dual_buf: SparseScratch::new(nrows),
            col_buf: SparseScratch::new(nrows),
            row_buf: SparseScratch::new(nrows),
            spike_buf: SparseScratch::new(nrows),
            lu_scratch: LuScratch::new(nrows),
            rhs_buf: Vec::new(),
            lower,
            upper,
            a_rows: Vec::new(),
            nb_len: Vec::new(),
            d: vec![0.0; ntotal],
            d_fresh: false,
            alpha_buf: SparseScratch::new(ntotal),
            #[cfg(test)]
            full_row_expansion: false,
        };

        let installed = match solver.opts.warm_start.take() {
            Some(ws) => solver.try_install_warm_start(&ws.statuses)?,
            None => false,
        };
        if !installed {
            // The all-logical basis, which always factorizes.
            let structural = (0..nstruct)
                .map(|j| basis_status(Self::default_nonbasic(solver.lower[j], solver.upper[j]).0));
            let slack = structural.chain(std::iter::repeat_n(BasisStatus::Basic, nrows));
            solver.try_install_warm_start(&slack.collect::<Vec<_>>())?;
        }
        solver.warm_installed = installed;
        solver.build_a_rows();
        Ok(solver)
    }

    /// Scatters column `j` (structural or logical) into a dense vector scaled by `scale`.
    #[inline]
    fn scatter_col(&self, j: usize, scale: f64, dense: &mut [f64]) {
        for (i, v) in column_entries(&self.sf, j) {
            dense[i] += scale * v;
        }
    }

    /// Dot product of column `j` with a dense row vector.
    #[inline]
    fn col_dot(&self, j: usize, dense: &[f64]) -> f64 {
        if j < self.nstruct {
            self.sf.cols[j].dot_dense(dense)
        } else {
            -dense[j - self.nstruct]
        }
    }

    /// Total bound violation of the basic variables.
    fn infeasibility(&self) -> f64 {
        let mut total = 0.0;
        for &j in &self.basis {
            let v = self.x[j];
            let l = self.lower[j];
            let u = self.upper[j];
            if v < l {
                total += l - v;
            } else if v > u {
                total += v - u;
            }
        }
        total
    }

    /// Runs both phases to optimality.
    pub fn solve(mut self) -> LpResult<StandardSolution> {
        self.reoptimize()
    }

    /// Runs both phases to optimality without consuming the solver, so a session
    /// can alternate [`Solver::add_columns`] and `reoptimize` calls.
    ///
    /// The solve continues from the *current* basis: after a previous
    /// `reoptimize`, that basis is primal feasible (appended columns enter
    /// nonbasic at a bound), so phase 1 is skipped entirely and phase 2 picks up
    /// with the existing factorization — Forrest–Tomlin updates and all.
    /// Iteration / pivot / refactorization counters reset per call, so each
    /// round's [`StandardSolution`] reports only the work that round did.
    pub fn reoptimize(&mut self) -> LpResult<StandardSolution> {
        self.iterations = 0;
        self.dual_iterations = 0;
        self.pivots = 0;
        // Count only in-solve refactorizations, not the initial basis setup.
        self.refactorizations = 0;
        if self.infeasibility() > TOL {
            // A primal-infeasible start that prices dual-feasible (a warm basis
            // after a bound/rhs change, or a zero-cost crash basis) is the dual
            // simplex's home turf: it repairs feasibility while staying
            // dual-feasible, so reaching primal feasibility *is* optimality —
            // no phase-1 work on the real costs is wasted. See the module docs.
            let mut dual_done = false;
            if self.warm_installed && self.dual_feasible() {
                match self.run_dual_phase()? {
                    DualOutcome::Optimal => dual_done = true,
                    DualOutcome::Fallback => {
                        // The dual run stalled or hit numerical trouble; its
                        // basis is still valid, so the primal phases continue
                        // from wherever it got.
                        self.recompute_basic_values();
                    }
                }
            }
            if !dual_done {
                self.run_phase(true)?;
                self.recompute_basic_values();
                if self.infeasibility() > TOL * (1.0 + self.scale_estimate()) {
                    return Err(LpError::Infeasible);
                }
                self.clamp_basics_into_bounds();
            }
        }
        self.run_phase(false)?;
        self.recompute_basic_values();
        Ok(self.extract_solution())
    }

    /// A crude magnitude estimate used to make the phase-1 exit test scale-aware.
    fn scale_estimate(&self) -> f64 {
        let mut m = 1.0f64;
        for i in 0..self.nrows {
            let l = self.sf.row_lower[i];
            let u = self.sf.row_upper[i];
            if l.is_finite() {
                m = m.max(l.abs());
            }
            if u.is_finite() {
                m = m.max(u.abs());
            }
        }
        m
    }

    /// Clamps basic values that are within tolerance of a bound exactly onto the bound.
    fn clamp_basics_into_bounds(&mut self) {
        let tol = TOL * 10.0 * (1.0 + self.scale_estimate());
        for &j in &self.basis {
            let l = self.lower[j];
            let u = self.upper[j];
            if self.x[j] < l && self.x[j] > l - tol {
                self.x[j] = l;
            } else if self.x[j] > u && self.x[j] < u + tol {
                self.x[j] = u;
            }
        }
    }

    /// Final basis in the exportable per-variable representation.
    fn export_basis(&self) -> WarmStart {
        let statuses = self.status.iter().map(|&st| basis_status(st)).collect();
        WarmStart { statuses }
    }

    fn extract_solution(&self) -> StandardSolution {
        let x: Vec<f64> = self.x[..self.nstruct].to_vec();
        let mut row_activity = vec![0.0; self.nrows];
        for (j, &v) in x.iter().enumerate() {
            if v != 0.0 {
                self.sf.cols[j].scatter_into(&mut row_activity, v);
            }
        }
        let objective = x.iter().zip(&self.sf.obj).map(|(v, c)| v * c).sum();
        StandardSolution {
            x,
            row_activity,
            objective,
            iterations: self.iterations,
            dual_iterations: self.dual_iterations,
            pivots: self.pivots,
            refactorizations: self.refactorizations,
            basis: self.export_basis(),
        }
    }

    /// Runs simplex iterations for one phase until optimality (phase-2) or zero
    /// infeasibility (phase-1).
    fn run_phase(&mut self, phase1: bool) -> LpResult<()> {
        let _obs = a2a_obs::span(if phase1 { "lp.phase1" } else { "lp.phase2" });
        self.note_step(false);
        // Fresh reference framework per phase: the phase cost changes entirely.
        self.weights.iter_mut().for_each(|w| *w = 1.0);
        self.candidates.clear();
        self.d_fresh = false;
        loop {
            let sample = self.start_iteration()?;
            if phase1 && self.infeasibility() <= TOL {
                return Ok(());
            }

            // Phase 2 maintains exact reduced costs `d` across pivots via the
            // pivotal row, so no per-iteration BTRAN or matrix scan is needed;
            // `d` is rebuilt from a fresh dual solve after refactorizations.
            // Phase 1, whose composite cost vector changes with the basics'
            // feasibility state, recomputes the duals every iteration and
            // prices devex over the candidate list.
            //
            // In both phases a run that degenerates for too long prices by the
            // plain `|d|` until a productive pivot breaks the plateau (see
            // [`STALL_ESCAPE_THRESHOLD`]), and Bland's rule remains the final
            // anti-cycling authority.
            let stall_escape = self.degenerate_run >= STALL_ESCAPE_THRESHOLD;
            if self.degenerate_run == STALL_ESCAPE_THRESHOLD {
                // First iteration of a stall plateau (the run counter moves
                // every degenerate pivot, so == fires once per episode).
                OBS_STALL_ESCAPES.incr();
            }
            let entering = if phase1 {
                // Dual vector y = B^{-T} c_B for the phase cost. The cost vector
                // is hypersparse on network LPs (few basic columns carry cost), so
                // the BTRAN works on pattern, not dimension.
                if self.compute_duals(true) == 0 {
                    // No infeasible basic variable left.
                    return Ok(());
                }
                if self.use_bland || stall_escape {
                    self.price_scan(true, stall_escape)
                } else {
                    self.price_devex()
                }
            } else {
                let just_refreshed = !self.d_fresh;
                if just_refreshed {
                    self.refresh_reduced_costs();
                }
                let mut entering = self.price_scan(false, stall_escape);
                if entering.is_none() && !just_refreshed {
                    // The stored reduced costs may have drifted; only a fresh dual
                    // solve can certify optimality.
                    self.refresh_reduced_costs();
                    entering = self.price_scan(false, stall_escape);
                }
                entering
            };
            let Some((q, direction)) = entering else {
                if phase1 && self.infeasibility() > TOL {
                    return Err(LpError::Infeasible);
                }
                return Ok(());
            };

            self.ftran_entering(q, Kernel::Reach);
            let basis_change = self.pivot_step(q, direction, phase1)?;
            self.count_iteration(sample, false);
            if let Some((r, leaving_status)) = basis_change {
                self.commit_basis_change(r, q, leaving_status)?;
            }
        }
    }

    /// Opens one pass of the primal or the dual loop: errors once
    /// `max_iterations` iterations have been counted, and otherwise starts the
    /// pass's `lp.iteration_nanos` sample.
    ///
    /// Both loops close the sample in [`Self::count_iteration`], after the
    /// step has been applied and before the basis change is committed, so the
    /// Forrest–Tomlin update and any refactorization stay out of the
    /// iteration-time distribution. A pass that ends without an iteration
    /// (optimality, a dual verification or retry) records its sample when the
    /// guard drops.
    fn start_iteration(&self) -> LpResult<a2a_obs::HistogramTimer> {
        if self.iterations >= self.opts.max_iterations {
            return Err(LpError::IterationLimit {
                iterations: self.iterations,
            });
        }
        Ok(OBS_ITERATION_NANOS.start())
    }

    /// Counts one iteration of the primal (`dual == false`) or the dual loop
    /// and closes its `lp.iteration_nanos` sample (see
    /// [`Self::start_iteration`]).
    fn count_iteration(&mut self, sample: a2a_obs::HistogramTimer, dual: bool) {
        self.iterations += 1;
        OBS_ITERATIONS.incr();
        if dual {
            self.dual_iterations += 1;
            OBS_DUAL_ITERATIONS.incr();
        }
        drop(sample);
    }

    /// Loads column `q` (structural or logical) into `col_buf` and FTRANs it to
    /// the pivot column `w = B^{-1} A_q` (hypersparse), keeping the partial
    /// result after the lower solve in `spike_buf` as the Forrest–Tomlin spike
    /// of the basis change that may follow.
    fn ftran_entering(&mut self, q: usize, kernel: Kernel) {
        self.col_buf.clear();
        for (i, v) in column_entries(&self.sf, q) {
            self.col_buf.set(i, v);
        }
        self.lu.ftran_sparse_with_partial(
            kernel,
            &mut self.col_buf,
            &mut self.lu_scratch,
            &mut self.spike_buf,
        );
    }

    /// Moves the entering variable `q` by `step` and every basic variable by
    /// `-step * w_i` along the pivot column `w` in `col_buf`.
    fn apply_step(&mut self, q: usize, step: f64) {
        if step == 0.0 {
            return;
        }
        for (pos, wi) in self.col_buf.iter() {
            if wi != 0.0 {
                self.x[self.basis[pos]] -= step * wi;
            }
        }
        self.x[q] += step;
    }

    /// Records whether the pivot just taken was degenerate: `DEGENERATE_SWITCH`
    /// degenerate pivots in a row switch the loop to Bland's rule, and the
    /// first productive one switches it back. Each phase opens with a
    /// productive step: no run, no Bland.
    fn note_step(&mut self, degenerate: bool) {
        if degenerate {
            self.degenerate_run += 1;
            OBS_DEGENERATE_PIVOTS.incr();
            if self.degenerate_run >= DEGENERATE_SWITCH {
                self.use_bland = true;
            }
        } else {
            self.degenerate_run = 0;
            self.use_bland = false;
        }
    }

    /// Runs the dual simplex from the current (dual-feasible, primal-infeasible)
    /// basis until primal feasibility — which, with dual feasibility maintained
    /// throughout, is optimality — or until it has to hand back to the primal
    /// phases (see [`DualOutcome`]).
    ///
    /// Each iteration: pick the most-infeasible basic by dual devex row
    /// pricing, expand the pivotal row `alpha = e_r B^{-1} A` hypersparsely
    /// from the row-wise matrix copy, and run the **bound-flipping (long-step)
    /// ratio test**: eligible breakpoints are walked in ratio order while the
    /// dual slope (the row's residual violation) lasts; every *boxed* column
    /// passed flips to its opposite bound — applied in one aggregated FTRAN —
    /// and the breakpoint the slope dies on enters the basis. The reduced
    /// costs `d`, the step, the basis change with its Forrest–Tomlin update and
    /// refactorization cadence, and the degenerate-run bookkeeping are the
    /// primal loop's own steps (see the module docs, "One pivot core").
    fn run_dual_phase(&mut self) -> LpResult<DualOutcome> {
        let _obs = a2a_obs::span("lp.dual");
        a2a_obs::instant("lp.dual_engaged");
        self.install_dual_perturbation();
        let outcome = self.dual_phase_loop();
        // Back to true costs no matter how the phase ended; the reduced costs
        // the primal continuation prices with must not see the perturbation.
        self.perturb.clear();
        self.refresh_reduced_costs();
        outcome
    }

    fn dual_phase_loop(&mut self) -> LpResult<DualOutcome> {
        self.row_weights.clear();
        self.row_weights.resize(self.nrows, 1.0);
        // Consecutive degenerate (zero-dual-step) pivots: past the usual switch
        // the entering rule degrades to Bland's (smallest ratio, then smallest
        // index, no long step); persisting far past it, the phase gives up and
        // falls back to primal phase 1 rather than risk cycling.
        self.note_step(false);
        // Consecutive numerical rejections (tiny pivot after refactorization).
        let mut retries = 0usize;
        // Primal values are maintained incrementally; certify feasibility from
        // recomputed values before declaring optimality.
        let mut verified = false;
        // Ratio-test scratch, reused across iterations (the breakpoint list
        // reaches thousands of entries on dense pivotal rows).
        let mut breaks: Vec<(usize, f64)> = Vec::new();
        let mut flips: Vec<usize> = Vec::new();
        loop {
            let sample = self.start_iteration()?;
            if !self.d_fresh {
                self.refresh_reduced_costs();
            }
            let Some((r, viol)) = self.dual_select_row() else {
                if verified {
                    self.clamp_basics_into_bounds();
                    return Ok(DualOutcome::Optimal);
                }
                self.recompute_basic_values();
                verified = true;
                continue;
            };
            verified = false;
            // σ = +1: leaving above its upper bound, the basic must decrease;
            // σ = -1: below its lower bound, it must increase.
            let sigma = if viol > 0.0 { 1.0 } else { -1.0 };

            // Pivotal row alpha = e_r B^{-1} A. The three solves of a dual
            // iteration run the density-adaptive kernel: on the masters this
            // phase exists for, none of their operands is hypersparse.
            let alpha = self.pivotal_row(r, Kernel::Adaptive);
            // Exact steepest-edge weight of the leaving row — a free byproduct
            // of the `rho` the pivotal row needs anyway.
            let kappa: f64 = self.row_buf.iter().map(|(_, v)| v * v).sum();

            let Some((q, theta)) =
                self.dual_ratio_test(&alpha, sigma, viol, &mut breaks, &mut flips)
            else {
                // No entering candidate for an infeasible row: the dual is
                // unbounded, i.e. the primal is infeasible. Hand to phase 1 to
                // re-prove that from cleanly recomputed state.
                self.alpha_buf = alpha;
                return Ok(DualOutcome::Fallback);
            };

            self.ftran_entering(q, Kernel::Adaptive);
            let w_r = self.col_buf.get(r);
            if w_r.abs() <= PIVOT_TOL {
                // The FTRANed column disagrees with the expanded row, whose
                // entry at `q` passed the same threshold in the ratio test —
                // stale factors. Refactorize once and retry; twice in a row
                // means the dual run is numerically lost.
                self.alpha_buf = alpha;
                retries += 1;
                if retries > 1 {
                    return Ok(DualOutcome::Fallback);
                }
                self.refactorize()?;
                continue;
            }
            retries = 0;

            // Dual step: every nonbasic reduced cost in the pivotal row moves
            // by -θσ·alpha_j (flipped columns included — flipping changes no
            // reduced cost, only which sign of it is feasible).
            let leaving_var = self.basis[r];
            self.update_reduced_costs(&alpha, q, leaving_var, sigma * theta, None);
            self.alpha_buf = alpha;
            self.update_dual_row_weights(r, w_r, kappa);

            // Primal step: drive the leaving basic exactly onto its violated
            // bound. The sign works out by construction — an eligible entering
            // column always moves off its bound in the allowed direction.
            let (bound, leaving_status) = if sigma > 0.0 {
                (self.upper[leaving_var], VarStatus::AtUpper)
            } else {
                (self.lower[leaving_var], VarStatus::AtLower)
            };
            self.apply_step(q, (self.x[leaving_var] - bound) / w_r);
            self.x[leaving_var] = bound;
            self.count_iteration(sample, true);
            self.commit_basis_change(r, q, leaving_status)?;

            // Degenerate-stall bookkeeping on the *dual* step.
            self.note_step(theta <= TOL);
            if self.degenerate_run >= 4 * DEGENERATE_SWITCH {
                return Ok(DualOutcome::Fallback);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn col(entries: &[(usize, f64)]) -> SparseVec {
        SparseVec::from_entries(entries.iter().copied())
    }

    /// max x1 + 2 x2 s.t. x1 + x2 <= 4, x2 <= 3, x >= 0  ->  min -x1 - 2x2, opt = -7.
    #[test]
    fn small_inequality_lp() {
        let sf = StandardForm {
            nrows: 2,
            cols: vec![col(&[(0, 1.0)]), col(&[(0, 1.0), (1, 1.0)])],
            obj: vec![-1.0, -2.0],
            lower: vec![0.0, 0.0],
            upper: vec![INF, INF],
            row_lower: vec![-INF, -INF],
            row_upper: vec![4.0, 3.0],
        };
        let sol = solve(&sf, &SimplexOptions::default()).unwrap();
        assert!((sol.objective + 7.0).abs() < 1e-7, "{}", sol.objective);
        assert!((sol.x[0] - 1.0).abs() < 1e-7);
        assert!((sol.x[1] - 3.0).abs() < 1e-7);
    }

    /// `Solver::new` rejects a malformed model up front instead of
    /// solving it to a NaN or wrong "optimum" (the LP of
    /// [`small_inequality_lp`], optimum -7).
    #[test]
    fn malformed_standard_forms_are_invalid_models() {
        let sf = StandardForm {
            nrows: 2,
            cols: vec![col(&[(0, 1.0)]), col(&[(0, 1.0), (1, 1.0)])],
            obj: vec![-1.0, -2.0],
            lower: vec![0.0, 0.0],
            upper: vec![INF, INF],
            row_lower: vec![-INF, -INF],
            row_upper: vec![4.0, 3.0],
        };
        assert!((solve(&sf, &SimplexOptions::default()).unwrap().objective + 7.0).abs() < 1e-7);
        let mut nan_lower = sf.clone();
        nan_lower.lower[0] = f64::NAN;
        let mut nan_obj = sf.clone();
        nan_obj.obj[1] = f64::NAN;
        let mut crossed = sf.clone();
        (crossed.lower[1], crossed.upper[1]) = (5.0, 1.0);
        let mut nan_row = sf.clone();
        nan_row.row_upper[0] = f64::NAN;
        // Infinite bounds on the wrong side: no finite value satisfies them.
        let mut col_at_plus_inf = sf.clone();
        (col_at_plus_inf.lower[0], col_at_plus_inf.upper[0]) = (INF, INF);
        let mut col_at_minus_inf = sf.clone();
        (col_at_minus_inf.lower[1], col_at_minus_inf.upper[1]) = (-INF, -INF);
        let mut row_at_plus_inf = sf.clone();
        (row_at_plus_inf.row_lower[0], row_at_plus_inf.row_upper[0]) = (INF, INF);
        let cases = [
            nan_lower,
            nan_obj,
            crossed,
            nan_row,
            col_at_plus_inf,
            col_at_minus_inf,
            row_at_plus_inf,
        ];
        let opts = SimplexOptions::default();
        for (case, model) in cases.iter().enumerate() {
            assert!(
                matches!(solve(model, &opts), Err(LpError::InvalidModel(_))),
                "case {case}: {:?}",
                solve(model, &opts)
            );
        }
    }

    /// Equality rows exercise phase 1: min x1 + x2, x1 + x2 = 5, x1 - x2 = 1.
    #[test]
    fn equality_rows_need_phase_one() {
        let sf = StandardForm {
            nrows: 2,
            cols: vec![col(&[(0, 1.0), (1, 1.0)]), col(&[(0, 1.0), (1, -1.0)])],
            obj: vec![1.0, 1.0],
            lower: vec![0.0, 0.0],
            upper: vec![INF, INF],
            row_lower: vec![5.0, 1.0],
            row_upper: vec![5.0, 1.0],
        };
        let sol = solve(&sf, &SimplexOptions::default()).unwrap();
        assert!((sol.objective - 5.0).abs() < 1e-7);
        assert!((sol.x[0] - 3.0).abs() < 1e-7);
        assert!((sol.x[1] - 2.0).abs() < 1e-7);
    }

    #[test]
    fn detects_infeasibility() {
        // x <= 1 and x >= 2.
        let sf = StandardForm {
            nrows: 2,
            cols: vec![col(&[(0, 1.0), (1, 1.0)])],
            obj: vec![0.0],
            lower: vec![0.0],
            upper: vec![INF],
            row_lower: vec![-INF, 2.0],
            row_upper: vec![1.0, INF],
        };
        assert_eq!(
            solve(&sf, &SimplexOptions::default()).unwrap_err(),
            LpError::Infeasible
        );
    }

    #[test]
    fn detects_unboundedness() {
        // max x (min -x) with only x >= 0 and a vacuous row.
        let sf = StandardForm {
            nrows: 1,
            cols: vec![col(&[(0, 1.0)])],
            obj: vec![-1.0],
            lower: vec![0.0],
            upper: vec![INF],
            row_lower: vec![0.0],
            row_upper: vec![INF],
        };
        assert_eq!(
            solve(&sf, &SimplexOptions::default()).unwrap_err(),
            LpError::Unbounded
        );
    }

    #[test]
    fn bound_flips_are_used() {
        // max x1 + x2 with 0 <= xi <= 1 and x1 + x2 <= 10: both variables flip to their
        // upper bounds without any pivoting being strictly necessary.
        let sf = StandardForm {
            nrows: 1,
            cols: vec![col(&[(0, 1.0)]), col(&[(0, 1.0)])],
            obj: vec![-1.0, -1.0],
            lower: vec![0.0, 0.0],
            upper: vec![1.0, 1.0],
            row_lower: vec![-INF],
            row_upper: vec![10.0],
        };
        let sol = solve(&sf, &SimplexOptions::default()).unwrap();
        assert!((sol.objective + 2.0).abs() < 1e-7);
        // Flips are not basis changes.
        assert_eq!(sol.pivots, 0);
        assert!(sol.iterations >= 2);
    }

    /// A small max-flow instance expressed as an LP: source 0 -> sink 3 through two
    /// disjoint paths with capacities 3 and 2; max flow value 5.
    #[test]
    fn max_flow_as_lp() {
        // Variables: f01, f02, f13, f23, F (flow value).
        // Conservation at 1: f01 - f13 = 0; at 2: f02 - f23 = 0.
        // Source balance: f01 + f02 - F = 0.
        // Capacities: f01 <= 3, f13 <= 3, f02 <= 2, f23 <= 2.
        let sf = StandardForm {
            nrows: 3,
            cols: vec![
                col(&[(0, 1.0), (2, 1.0)]), // f01
                col(&[(1, 1.0), (2, 1.0)]), // f02
                col(&[(0, -1.0)]),          // f13
                col(&[(1, -1.0)]),          // f23
                col(&[(2, -1.0)]),          // F
            ],
            obj: vec![0.0, 0.0, 0.0, 0.0, -1.0],
            lower: vec![0.0, 0.0, 0.0, 0.0, 0.0],
            upper: vec![3.0, 2.0, 3.0, 2.0, INF],
            row_lower: vec![0.0, 0.0, 0.0],
            row_upper: vec![0.0, 0.0, 0.0],
        };
        let sol = solve(&sf, &SimplexOptions::default()).unwrap();
        assert!((sol.objective + 5.0).abs() < 1e-7, "{}", sol.objective);
    }

    #[test]
    fn iteration_limit_is_enforced() {
        let sf = StandardForm {
            nrows: 2,
            cols: vec![col(&[(0, 1.0), (1, 1.0)]), col(&[(0, 1.0), (1, -1.0)])],
            obj: vec![1.0, 1.0],
            lower: vec![0.0, 0.0],
            upper: vec![INF, INF],
            row_lower: vec![5.0, 1.0],
            row_upper: vec![5.0, 1.0],
        };
        let opts = SimplexOptions {
            max_iterations: 0,
            ..SimplexOptions::default()
        };
        assert!(matches!(
            solve(&sf, &opts).unwrap_err(),
            LpError::IterationLimit { .. }
        ));
    }

    #[test]
    fn fixed_row_bounds_and_negative_bounds() {
        // min x + y with -3 <= x <= -1, y free, x + y == 0  -> y = -x in [1,3],
        // objective x + y = 0 always; check feasibility handling of negative bounds.
        let sf = StandardForm {
            nrows: 1,
            cols: vec![col(&[(0, 1.0)]), col(&[(0, 1.0)])],
            obj: vec![1.0, 1.0],
            lower: vec![-3.0, -INF],
            upper: vec![-1.0, INF],
            row_lower: vec![0.0],
            row_upper: vec![0.0],
        };
        let sol = solve(&sf, &SimplexOptions::default()).unwrap();
        assert!(sol.objective.abs() < 1e-7);
        assert!(sol.x[0] <= -1.0 + 1e-7 && sol.x[0] >= -3.0 - 1e-7);
        assert!((sol.x[0] + sol.x[1]).abs() < 1e-7);
    }

    #[test]
    fn warm_start_roundtrip_skips_work() {
        // Solve once cold, then re-solve warm-started from the optimal basis: the
        // warm solve must agree on the optimum and need (near) zero pivots.
        let sf = StandardForm {
            nrows: 2,
            cols: vec![col(&[(0, 1.0), (1, 1.0)]), col(&[(0, 1.0), (1, -1.0)])],
            obj: vec![1.0, 1.0],
            lower: vec![0.0, 0.0],
            upper: vec![INF, INF],
            row_lower: vec![5.0, 1.0],
            row_upper: vec![5.0, 1.0],
        };
        let cold = solve(&sf, &SimplexOptions::default()).unwrap();
        assert!(cold.pivots > 0);
        let warm_opts = SimplexOptions {
            warm_start: Some(cold.basis.clone()),
            ..SimplexOptions::default()
        };
        let warm = solve(&sf, &warm_opts).unwrap();
        assert!((warm.objective - cold.objective).abs() < 1e-9);
        assert_eq!(warm.pivots, 0, "optimal basis should re-verify pivot-free");
    }

    #[test]
    fn malformed_warm_start_falls_back() {
        let sf = StandardForm {
            nrows: 1,
            cols: vec![col(&[(0, 1.0)])],
            obj: vec![-1.0],
            lower: vec![0.0],
            upper: vec![2.0],
            row_lower: vec![-INF],
            row_upper: vec![5.0],
        };
        // Wrong length and wrong basic count both degrade to the slack start.
        for statuses in [
            vec![BasisStatus::Basic],
            vec![BasisStatus::Basic, BasisStatus::Basic],
            vec![BasisStatus::AtLower, BasisStatus::AtLower],
        ] {
            let opts = SimplexOptions {
                warm_start: Some(WarmStart { statuses }),
                ..SimplexOptions::default()
            };
            let sol = solve(&sf, &opts).unwrap();
            assert!((sol.objective + 2.0).abs() < 1e-7);
        }
    }

    #[test]
    fn singular_warm_start_falls_back() {
        // Two parallel columns cannot form a 2x2 basis; the warm start must be
        // rejected at factorization time and the solve still succeed.
        let sf = StandardForm {
            nrows: 2,
            cols: vec![col(&[(0, 1.0), (1, 1.0)]), col(&[(0, 1.0), (1, 1.0)])],
            obj: vec![-1.0, 0.0],
            lower: vec![0.0, 0.0],
            upper: vec![3.0, 3.0],
            row_lower: vec![-INF, -INF],
            row_upper: vec![4.0, 4.0],
        };
        let opts = SimplexOptions {
            warm_start: Some(WarmStart {
                statuses: vec![
                    BasisStatus::Basic,
                    BasisStatus::Basic,
                    BasisStatus::AtLower,
                    BasisStatus::AtLower,
                ],
            }),
            ..SimplexOptions::default()
        };
        let sol = solve(&sf, &opts).unwrap();
        assert!((sol.objective + 3.0).abs() < 1e-7, "{}", sol.objective);
    }

    #[test]
    fn triangular_crash_produces_factorizable_basis() {
        // Network-ish columns; prefer the first two. The crash must return a
        // status vector with exactly nrows basics that the solver accepts.
        let sf = StandardForm {
            nrows: 3,
            cols: vec![
                col(&[(0, 1.0), (2, 1.0)]),
                col(&[(1, 1.0), (2, 1.0)]),
                col(&[(0, -1.0)]),
                col(&[(1, -1.0)]),
                col(&[(2, -1.0)]),
            ],
            obj: vec![0.0, 0.0, 0.0, 0.0, -1.0],
            lower: vec![0.0; 5],
            upper: vec![3.0, 2.0, 3.0, 2.0, INF],
            row_lower: vec![0.0, 0.0, 0.0],
            row_upper: vec![0.0, 0.0, 0.0],
        };
        let ws = triangular_crash(&sf, &[5.0, 4.0, 3.0, 2.0, 1.0]);
        let basics = ws
            .statuses
            .iter()
            .filter(|s| matches!(s, BasisStatus::Basic))
            .count();
        assert_eq!(basics, sf.nrows);
        let opts = SimplexOptions {
            warm_start: Some(ws),
            ..SimplexOptions::default()
        };
        let sol = solve(&sf, &opts).unwrap();
        assert!((sol.objective + 5.0).abs() < 1e-7);
    }

    /// A seeded column for the partition sessions: 2–4 positive coefficients
    /// on distinct rows, cost of the given sign, sometimes boxed.
    fn session_column(rng: &mut ChaCha8Rng, nrows: usize, cost_sign: f64) -> NewColumn {
        let mut entries: Vec<(usize, f64)> = Vec::new();
        for _ in 0..rng.random_range(2..5) {
            let r = rng.random_range(0..nrows);
            if entries.iter().all(|&(i, _)| i != r) {
                entries.push((r, rng.random_range(1..5) as f64));
            }
        }
        NewColumn {
            col: SparseVec::from_entries(entries),
            obj: cost_sign * rng.random_range(1..12) as f64,
            lower: 0.0,
            upper: if rng.random_range(0..3) == 0 {
                rng.random_range(1..4) as f64
            } else {
                INF
            },
        }
    }

    /// The cold start's all-slack basis as an explicit warm start: each
    /// structural column nonbasic where the cold start puts it, every logical
    /// basic. Installed, it is the cold start, except that a warm start may
    /// hand a dual-feasible, primal-infeasible basis to the dual phase.
    fn slack_basis(sf: &StandardForm) -> WarmStart {
        let structural = (0..sf.cols.len()).map(|j| {
            match Solver::default_nonbasic(sf.lower[j], sf.upper[j]).0 {
                VarStatus::AtUpper => BasisStatus::AtUpper,
                VarStatus::FreeZero => BasisStatus::Free,
                _ => BasisStatus::AtLower,
            }
        });
        let logical = std::iter::repeat_n(BasisStatus::Basic, sf.nrows);
        WarmStart {
            statuses: structural.chain(logical).collect(),
        }
    }

    fn push_column(sf: &mut StandardForm, c: &NewColumn) {
        sf.cols.push(c.col.clone());
        sf.obj.push(c.obj);
        sf.lower.push(c.lower);
        sf.upper.push(c.upper);
    }

    /// One seeded session through everything that moves a column across the
    /// `a_rows` partition or splices into it — primal pivots, dual pivots with
    /// bound flips, `add_columns` with and without Forrest–Tomlin updates
    /// pending, `deactivate_columns`, a warm start from an exported basis —
    /// returning `(iterations, dual iterations, objective bits)` of every
    /// `reoptimize`. With `full_rows` the pivotal rows are expanded the old
    /// way; without, the partition invariant is asserted after every step.
    fn partition_session(seed: u64, full_rows: bool) -> Vec<(usize, usize, u64)> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut trail = Vec::new();
        let nrows = rng.random_range(30..70);
        let step = |solver: &mut Solver<'_>, trail: &mut Vec<(usize, usize, u64)>| {
            solver.full_row_expansion = full_rows;
            let sol = solver.reoptimize().expect("feasible and bounded");
            assert!(full_rows || solver.a_rows_partitioned(), "seed {seed}");
            trail.push((sol.iterations, sol.dual_iterations, sol.objective.to_bits()));
            sol
        };

        // Packing rows, maximize: the slack basis is feasible, the primal
        // phase 2 does the work, columns arrive in batches and idle ones go.
        let mut packing = StandardForm {
            nrows,
            cols: Vec::new(),
            obj: Vec::new(),
            lower: Vec::new(),
            upper: Vec::new(),
            row_lower: vec![-INF; nrows],
            row_upper: (0..nrows).map(|_| rng.random_range(4..20) as f64).collect(),
        };
        for _ in 0..nrows {
            push_column(&mut packing, &session_column(&mut rng, nrows, -1.0));
        }
        let mut solver = Solver::new_owned(packing, SimplexOptions::default()).unwrap();
        for round in 0..4 {
            if round > 0 {
                let batch: Vec<NewColumn> = (0..nrows / 2)
                    .map(|_| session_column(&mut rng, nrows, -1.0))
                    .collect();
                solver.add_columns(&batch).unwrap();
                assert!(full_rows || solver.a_rows_partitioned(), "seed {seed}");
            }
            let sol = step(&mut solver, &mut trail);
            let idle: Vec<usize> = (0..sol.x.len())
                .filter(|&j| {
                    sol.basis.statuses[j] == BasisStatus::AtLower && rng.random_range(0..8) == 0
                })
                .collect();
            solver.deactivate_columns(&idle).unwrap();
            assert!(full_rows || solver.a_rows_partitioned(), "seed {seed}");
        }

        // Covering rows, minimize: the slack basis is dual feasible and primal
        // infeasible, so started from it as a warm start the dual phase runs
        // (boxed columns flip); appended columns hand over to the primal
        // phase 2.
        let mut covering = StandardForm {
            nrows,
            cols: Vec::new(),
            obj: Vec::new(),
            lower: Vec::new(),
            upper: Vec::new(),
            row_lower: (0..nrows).map(|_| rng.random_range(1..10) as f64).collect(),
            row_upper: vec![INF; nrows],
        };
        for i in 0..nrows {
            // Row i's own unboxed column keeps the LP feasible.
            let own = NewColumn {
                col: SparseVec::from_entries([(i, rng.random_range(1..4) as f64)]),
                obj: rng.random_range(5..20) as f64,
                lower: 0.0,
                upper: INF,
            };
            push_column(&mut covering, &own);
            push_column(&mut covering, &session_column(&mut rng, nrows, 1.0));
        }
        let slack_opts = SimplexOptions {
            warm_start: Some(slack_basis(&covering)),
            ..SimplexOptions::default()
        };
        let mut solver = Solver::new(&covering, slack_opts).unwrap();
        let slack = step(&mut solver, &mut trail);
        assert!(
            slack.dual_iterations > 0,
            "seed {seed}: slack start not dual"
        );
        let batch: Vec<NewColumn> = (0..nrows)
            .map(|_| session_column(&mut rng, nrows, 1.0))
            .collect();
        solver.add_columns(&batch).unwrap();
        assert!(full_rows || solver.a_rows_partitioned(), "seed {seed}");
        let solved = step(&mut solver, &mut trail);

        // Warm start on the grown model with every row tightened by 1 to 4:
        // the old optimal basis stays dual feasible and its tight rows turn
        // violated, so the dual phase repairs it.
        let mut tightened = covering.clone();
        batch.iter().for_each(|c| push_column(&mut tightened, c));
        for b in tightened.row_lower.iter_mut() {
            *b += rng.random_range(1..5) as f64;
        }
        let warm_opts = SimplexOptions {
            warm_start: Some(solved.basis),
            ..SimplexOptions::default()
        };
        let mut solver = Solver::new(&tightened, warm_opts).unwrap();
        assert!(full_rows || solver.a_rows_partitioned(), "seed {seed}");
        let warm = step(&mut solver, &mut trail);
        assert!(warm.dual_iterations > 0, "seed {seed}: warm start not dual");
        trail
    }

    #[test]
    fn partitioned_rows_repeat_the_full_row_expansion() {
        let (mut primal, mut dual) = (0, 0);
        for seed in 0..36 {
            let trail = partition_session(seed, false);
            assert_eq!(
                trail,
                partition_session(seed, true),
                "seed {seed}: (iterations, dual iterations, objective bits) per reoptimize"
            );
            primal += trail.iter().map(|t| t.0 - t.1).sum::<usize>();
            dual += trail.iter().map(|t| t.1).sum::<usize>();
        }
        assert!(primal > 3_000 && dual > 1_000, "{primal} / {dual}");
    }

    /// `dual_feasible` holds exactly when no nonbasic column is eligible to
    /// enter under the reduced costs it refreshes (`eligibility_from` is
    /// `None` for every variable), on seeded models with boxed, one-sided,
    /// free and fixed columns and rows, from random starting bases and again
    /// at the optimum. One sign rule serves both on this equivalence.
    #[test]
    fn dual_feasibility_is_no_eligible_column() {
        let bounds = |rng: &mut ChaCha8Rng| match rng.random_range(0..5) {
            0 => (0.0, INF),
            1 => (0.0, rng.random_range(1..4) as f64),
            2 => (-INF, rng.random_range(0..3) as f64),
            3 => (-INF, INF),
            _ => (1.0, 1.0),
        };
        let mut outcomes = [0usize; 2];
        for seed in 0..300 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let nrows = rng.random_range(2..8);
            let mut sf = StandardForm {
                nrows,
                cols: Vec::new(),
                obj: Vec::new(),
                lower: Vec::new(),
                upper: Vec::new(),
                row_lower: Vec::new(),
                row_upper: Vec::new(),
            };
            for _ in 0..nrows {
                let (l, u) = bounds(&mut rng);
                sf.row_lower.push(l);
                sf.row_upper.push(u);
            }
            for _ in 0..rng.random_range(2..12) {
                let sign = if rng.random_range(0..4) == 0 {
                    -1.0
                } else {
                    1.0
                };
                let mut c = session_column(&mut rng, nrows, sign);
                (c.lower, c.upper) = bounds(&mut rng);
                push_column(&mut sf, &c);
            }
            let ntotal = sf.cols.len() + nrows;
            let statuses = if rng.random_range(0..2) == 0 {
                slack_basis(&sf).statuses
            } else {
                let mut st: Vec<BasisStatus> = (0..ntotal)
                    .map(|_| match rng.random_range(0..3) {
                        0 => BasisStatus::AtLower,
                        1 => BasisStatus::AtUpper,
                        _ => BasisStatus::Free,
                    })
                    .collect();
                let mut basic = 0;
                while basic < nrows {
                    let j = rng.random_range(0..ntotal);
                    if st[j] != BasisStatus::Basic {
                        st[j] = BasisStatus::Basic;
                        basic += 1;
                    }
                }
                st
            };
            let opts = SimplexOptions {
                warm_start: Some(WarmStart { statuses }),
                ..SimplexOptions::default()
            };
            let mut solver = Solver::new(&sf, opts).unwrap();
            let mut check = |solver: &mut Solver<'_>| {
                let feasible = solver.dual_feasible();
                let none_eligible = (0..solver.ntotal)
                    .all(|j| solver.eligibility_from(j, solver.d[j], TOL).is_none());
                assert_eq!(feasible, none_eligible, "seed {seed}");
                outcomes[usize::from(feasible)] += 1;
            };
            check(&mut solver);
            if solver.reoptimize().is_ok() {
                check(&mut solver);
            }
        }
        assert!(outcomes.iter().all(|&n| n > 50), "{outcomes:?}");
    }

    #[test]
    fn degenerate_transportation_lp_matches_reference() {
        // A degenerate transportation-style LP where many bases are optimal.
        let mut lp = crate::LpProblem::new();
        let x: Vec<_> = [1.0, 2.0, 3.0, 4.0]
            .into_iter()
            .map(|c| lp.add_nonneg_var(c))
            .collect();
        for (a, b) in [(0, 1), (2, 3), (0, 2), (1, 3)] {
            lp.add_constraint([(x[a], 1.0), (x[b], 1.0)], crate::ConstraintSense::Eq, 2.0);
        }
        let sf = lp.to_standard_form().unwrap();
        let sol = solve(&sf, &SimplexOptions::default()).unwrap();
        let reference = crate::reference::solve_reference(&sf).unwrap();
        assert!((sol.objective - reference.objective_value).abs() < 1e-7);
    }
}
