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
//! # Pricing
//!
//! The primal phases price by devex reference-framework weights
//! (Forrest–Goldfarb), scoring an eligible column by `d_j² / w_j`. In phase 2
//! the reduced costs `d` of *all* variables are maintained incrementally across
//! pivots from the pivotal row (expanded hypersparsely from a row-wise matrix
//! copy), so an iteration needs no dual solve and no matrix scan at all; weights
//! of every touched column are updated exactly, and the framework resets when
//! the entering weight grows past a threshold. In phase 1 — where the composite
//! infeasibility costs change with the basics' feasibility state and
//! incremental updates are invalid — the duals are recomputed every iteration
//! and devex prices over a rotating *candidate list*, a fraction of the column
//! count refilled by periodic partial-pricing window scans.
//!
//! A run of 100 degenerate pivots (the stall escape) switches the score to the
//! plain `|d_j|` over every column until a productive pivot breaks the plateau
//! (devex's weight growth deliberately avoids recent pivot directions, which
//! scatters effort on large degenerate plateaus); a run of 2,000 switches to
//! Bland's anti-cycling rule, which prevents cycling in the highly degenerate
//! network-flow LPs this crate is used for. Phase-1 penalty costs carry a tiny
//! deterministic per-row jitter that breaks the massive reduced-cost ties those
//! plateaus are made of.
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
//! test and dual steepest-edge weights.
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
//! The dual phase selects the leaving row by **exact dual steepest-edge** row
//! weights (`violation² / weight`, Forrest–Goldfarb update; the pivotal-row
//! BTRAN every iteration computes anyway makes the leaving row's true norm
//! free, so the recurrence is self-correcting), expands the pivotal row
//! hypersparsely from the row-wise matrix copy, and runs a **bound-flipping
//! (long-step) ratio test**: breakpoints are passed in ratio order while the
//! dual slope lasts, and every boxed column passed flips to its opposite bound
//! in one aggregated FTRAN — a single dual iteration can relocate many primal
//! variables, which is what kills degenerate plateaus. For the duration of the
//! phase, nonbasic bounded columns carry a small deterministic **cost
//! perturbation** pushed *into* their dual-feasible sign region, so the
//! zero-reduced-cost ties that zero-cost flow LPs are made of become strictly
//! signed and the ratio test takes real dual steps; true costs are restored
//! (and reduced costs re-priced) before the phase returns. Numerical trouble
//! or a dual stall falls back to the primal two-phase method on the current
//! (still valid) basis, so a dual start is never worse than a slow one. A cold
//! all-slack start always runs the primal two-phase method; a caller that wants
//! the dual phase from the slack basis passes that basis as an explicit warm
//! start.
//!
//! # Warm starts
//!
//! [`SimplexOptions::warm_start`] seeds the initial basis from a [`WarmStart`]
//! (per-variable [`BasisStatus`], structural variables first, then one logical per
//! row). Solved instances export their final basis in
//! [`StandardSolution::basis`], so a caller can re-solve a perturbed instance — or
//! seed a *related* instance, see [`triangular_crash`] — without paying for phase 1
//! from an all-slack start. A warm basis that turns out singular (or malformed)
//! falls back to the all-slack basis silently.

use std::borrow::Cow;

use crate::error::{LpError, LpResult};
use crate::lu::{Kernel, LuFactorization, LuScratch};
use crate::sparse::{SparseScratch, SparseVec};
use crate::INF;

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

/// Forrest–Tomlin updates accumulated before the basis is refactorized from
/// scratch (fill growth or an unstable update refactorize earlier). FT updates
/// keep per-solve cost flat, so this can be much larger than a product-form
/// eta file would tolerate.
const REFACTOR_INTERVAL: usize = 100;

/// Devex weights are reset to the unit framework once the entering weight exceeds
/// this threshold (keeps the reference approximation bounded).
const DEVEX_RESET_THRESHOLD: f64 = 1e7;

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
static OBS_REFACTORIZATIONS: a2a_obs::Counter = a2a_obs::Counter::new("lp.refactorizations");
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

/// Builds a nonsingular starting basis for `sf` from per-column preference weights
/// (a *crash* basis): structural columns with positive preference are greedily
/// assigned to rows so that the selected submatrix is lower triangular up to
/// permutation — a column is chosen only while it has exactly one nonzero in still
/// unassigned rows, highest preference first. Rows left unassigned keep their
/// logical variable basic.
///
/// Triangularity guarantees the crash basis factorizes, so
/// [`SimplexOptions::warm_start`] never falls back when fed its result. Callers use
/// this to *project* a solved related LP onto a new one: give columns that were
/// basic (or carried value) in the source solution a positive preference and
/// everything else zero.
pub fn triangular_crash(sf: &StandardForm, preference: &[f64]) -> WarmStart {
    assert_eq!(preference.len(), sf.cols.len(), "one preference per column");
    let nrows = sf.nrows;
    let nstruct = sf.cols.len();

    let mut remaining: Vec<usize> = (0..nstruct)
        .filter(|&j| preference[j] > 0.0 && !sf.cols[j].is_empty())
        .collect();
    // Highest preference first; index order breaks ties deterministically.
    remaining.sort_by(|&a, &b| {
        preference[b]
            .partial_cmp(&preference[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });

    let mut row_free = vec![true; nrows];
    let mut basic_col = vec![false; nstruct];
    loop {
        let mut assigned_any = false;
        remaining.retain(|&j| {
            let mut count = 0usize;
            let mut hit_row = 0usize;
            let mut hit_val = 0.0f64;
            let mut col_max = 0.0f64;
            for (r, v) in sf.cols[j].iter() {
                col_max = col_max.max(v.abs());
                if row_free[r] {
                    count += 1;
                    hit_row = r;
                    hit_val = v;
                }
            }
            match count {
                0 => false, // every row covered: the column can no longer help
                1 if hit_val.abs() >= 0.01 * col_max => {
                    basic_col[j] = true;
                    row_free[hit_row] = false;
                    assigned_any = true;
                    false
                }
                _ => true, // still ambiguous; retry next round
            }
        });
        if !assigned_any {
            break;
        }
    }

    let nearest_bound = |l: f64, u: f64| -> BasisStatus {
        if l.is_infinite() && u.is_infinite() {
            BasisStatus::Free
        } else if l.is_infinite() {
            BasisStatus::AtUpper
        } else if u.is_infinite() || l.abs() <= u.abs() {
            BasisStatus::AtLower
        } else {
            BasisStatus::AtUpper
        }
    };

    let mut statuses = Vec::with_capacity(nstruct + nrows);
    for j in 0..nstruct {
        if basic_col[j] {
            statuses.push(BasisStatus::Basic);
        } else {
            statuses.push(nearest_bound(sf.lower[j], sf.upper[j]));
        }
    }
    for i in 0..nrows {
        if row_free[i] {
            statuses.push(BasisStatus::Basic);
        } else {
            statuses.push(nearest_bound(sf.row_lower[i], sf.row_upper[i]));
        }
    }
    WarmStart { statuses }
}

/// Entries of variable `j`'s constraint column, borrowed from `sf`: the
/// structural column, or the single `-1` of the logical of row `j - ncols`.
fn column_entries(sf: &StandardForm, j: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
    let structural = sf.cols.get(j).map(SparseVec::iter);
    let logical = (j >= sf.cols.len()).then(|| (j - sf.cols.len(), -1.0));
    structural.into_iter().flatten().chain(logical)
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

/// Adds a nonbasic column's entry to a row of the partitioned row-wise matrix
/// copy (`Solver::a_rows`) whose nonbasic prefix is `nb` long: the entry is
/// appended, trades places with the first basic entry, and the prefix grows
/// over it.
fn push_nonbasic(row: &mut Vec<(usize, f64)>, nb: &mut usize, entry: (usize, f64)) {
    row.push(entry);
    let last = row.len() - 1;
    row.swap(*nb, last);
    *nb += 1;
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
    /// The model being solved. Borrowed until the first [`Solver::add_columns`]
    /// call clones it into owned storage (columns can then be appended freely).
    sf: Cow<'a, StandardForm>,
    opts: SimplexOptions,
    nstruct: usize,
    ntotal: usize,
    nrows: usize,
    status: Vec<VarStatus>,
    basis: Vec<usize>,
    /// Current value of every variable (structural + logical).
    x: Vec<f64>,
    /// Basis factorization, kept current across pivots by Forrest–Tomlin updates.
    lu: LuFactorization,
    iterations: usize,
    dual_iterations: usize,
    pivots: usize,
    refactorizations: usize,
    degenerate_run: usize,
    use_bland: bool,
    /// Whether a caller-provided warm/crash basis was actually installed (the
    /// dual-phase trigger; slack fallbacks leave this false).
    warm_installed: bool,
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
    /// Scratch: dual vector `y` (BTRAN output, original-row space).
    dual_buf: SparseScratch,
    /// Scratch: pivot column `w = B^{-1} A_q` (basis-position space).
    col_buf: SparseScratch,
    /// Scratch: pivotal row `rho = e_r B^{-1}` for devex updates.
    row_buf: SparseScratch,
    /// Scratch: partial FTRAN of the entering column (the Forrest–Tomlin spike).
    spike_buf: SparseScratch,
    /// Scratch for the LU symbolic/numeric solves.
    lu_scratch: LuScratch,
    /// Scratch: dense right-hand side of the basic-value and bound-flip solves.
    rhs_buf: Vec<f64>,
    /// Lower bound of every variable, structurals then logicals — `sf.lower`
    /// followed by `sf.row_lower`, flat, so the per-column scans (pricing, the
    /// ratio tests, dual row selection) read one array with no structural /
    /// logical branch. Rebuilt wherever the model's bounds change:
    /// construction, [`Solver::add_columns`], [`Solver::deactivate_columns`].
    lower: Vec<f64>,
    /// Upper bound of every variable; see `lower`.
    upper: Vec<f64>,
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
    /// Exact reduced costs of every variable, maintained incrementally across
    /// the pivots of phase 2 and the dual phase (`d[j] -= step * alpha_j`).
    d: Vec<f64>,
    /// Whether `d` is currently trusted; cleared on refactorization and phase
    /// changes, rebuilt from a fresh BTRAN when needed.
    d_fresh: bool,
    /// Scratch for the pivotal row `alpha` (dimension: all variables).
    alpha_buf: SparseScratch,
    /// Differential tests only: expand the pivotal row by walking whole
    /// `a_rows` rows and testing each column's status, as the expansion did
    /// before the rows were partitioned.
    #[cfg(test)]
    full_row_expansion: bool,
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

        let warm = solver.opts.warm_start.take();
        let installed = match &warm {
            Some(ws) => solver.try_install_warm_start(ws)?,
            None => false,
        };
        if !installed {
            solver.install_slack_basis();
            solver.refactorize()?;
        }
        solver.warm_installed = installed;
        solver.build_a_rows();
        Ok(solver)
    }

    /// Nonbasic status (and starting value) a variable gets from its bounds.
    fn default_nonbasic(l: f64, u: f64) -> (VarStatus, f64) {
        if l.is_infinite() && u.is_infinite() {
            (VarStatus::FreeZero, 0.0)
        } else if l.is_infinite() {
            (VarStatus::AtUpper, u)
        } else if u.is_infinite() || l.abs() <= u.abs() {
            (VarStatus::AtLower, l)
        } else {
            (VarStatus::AtUpper, u)
        }
    }

    /// Resets to the all-logical (slack) basis.
    fn install_slack_basis(&mut self) {
        self.status.clear();
        self.basis.clear();
        self.x = vec![0.0; self.ntotal];
        for j in 0..self.nstruct {
            let (st, v) = Self::default_nonbasic(self.sf.lower[j], self.sf.upper[j]);
            self.x[j] = v;
            self.status.push(st);
        }
        for i in 0..self.nrows {
            self.status.push(VarStatus::Basic(i));
            self.basis.push(self.nstruct + i);
        }
    }

    /// Attempts to install a caller-provided starting basis. Returns `Ok(false)`
    /// (leaving the solver ready for the slack fallback) when the warm start is
    /// malformed or its basis matrix is singular.
    fn try_install_warm_start(&mut self, ws: &WarmStart) -> LpResult<bool> {
        if ws.statuses.len() != self.ntotal {
            return Ok(false);
        }
        let nbasic = ws
            .statuses
            .iter()
            .filter(|s| matches!(s, BasisStatus::Basic))
            .count();
        if nbasic != self.nrows {
            return Ok(false);
        }
        self.status.clear();
        self.basis.clear();
        self.x = vec![0.0; self.ntotal];
        for (j, &st) in ws.statuses.iter().enumerate() {
            let (l, u) = (self.var_lower(j), self.var_upper(j));
            match st {
                BasisStatus::Basic => {
                    self.status.push(VarStatus::Basic(self.basis.len()));
                    self.basis.push(j);
                }
                BasisStatus::AtLower if l.is_finite() => {
                    self.status.push(VarStatus::AtLower);
                    self.x[j] = l;
                }
                BasisStatus::AtUpper if u.is_finite() => {
                    self.status.push(VarStatus::AtUpper);
                    self.x[j] = u;
                }
                // Statuses inconsistent with the bounds degrade to the default.
                _ => {
                    let (fixed, v) = Self::default_nonbasic(l, u);
                    self.status.push(fixed);
                    self.x[j] = v;
                }
            }
        }
        match self.refactorize() {
            Ok(()) => Ok(true),
            Err(LpError::Numerical(_)) => Ok(false), // singular warm basis
            Err(e) => Err(e),
        }
    }

    #[inline]
    fn var_lower(&self, j: usize) -> f64 {
        self.lower[j]
    }

    #[inline]
    fn var_upper(&self, j: usize) -> f64 {
        self.upper[j]
    }

    fn var_cost(&self, j: usize) -> f64 {
        let c = if j < self.nstruct {
            self.sf.obj[j]
        } else {
            0.0
        };
        if self.perturb.is_empty() {
            c
        } else {
            c + self.perturb[j]
        }
    }

    /// Scatters column `j` (structural or logical) into a dense vector scaled by `scale`.
    fn scatter_col(&self, j: usize, scale: f64, dense: &mut [f64]) {
        if j < self.nstruct {
            self.sf.cols[j].scatter_into(dense, scale);
        } else {
            dense[j - self.nstruct] -= scale;
        }
    }

    /// Dot product of column `j` with a dense row vector.
    fn col_dot(&self, j: usize, dense: &[f64]) -> f64 {
        if j < self.nstruct {
            self.sf.cols[j].dot_dense(dense)
        } else {
            -dense[j - self.nstruct]
        }
    }

    /// Rebuilds the LU factorization of the current basis and recomputes basic values.
    fn refactorize(&mut self) -> LpResult<()> {
        let cols = self.basis.iter().map(|&j| column_entries(&self.sf, j));
        self.lu = LuFactorization::factorize(self.nrows, cols)?;
        debug_assert!(self.a_rows_partitioned(), "a_rows partition broken");
        self.refactorizations += 1;
        OBS_REFACTORIZATIONS.incr();
        self.recompute_basic_values();
        // Collapsing the eta file changes the numerics of the dual solves; the
        // incremental reduced costs are rebuilt from fresh duals at next pricing.
        self.d_fresh = false;
        Ok(())
    }

    /// Recomputes the values of basic variables from the nonbasic values.
    fn recompute_basic_values(&mut self) {
        let mut rhs = self.take_zeroed_rhs();
        for j in 0..self.ntotal {
            match self.status[j] {
                VarStatus::Basic(_) => {}
                _ => {
                    let v = self.x[j];
                    if v != 0.0 {
                        self.scatter_col(j, -v, &mut rhs);
                    }
                }
            }
        }
        self.lu.solve(&mut rhs, &mut self.lu_scratch);
        for (pos, &j) in self.basis.iter().enumerate() {
            self.x[j] = rhs[pos];
        }
        self.rhs_buf = rhs;
    }

    /// Takes the dense right-hand-side buffer, zeroed to `nrows` entries; the
    /// caller hands it back to `rhs_buf` when done.
    fn take_zeroed_rhs(&mut self) -> Vec<f64> {
        let mut rhs = std::mem::take(&mut self.rhs_buf);
        rhs.clear();
        rhs.resize(self.nrows, 0.0);
        rhs
    }

    /// Total bound violation of the basic variables.
    fn infeasibility(&self) -> f64 {
        let mut total = 0.0;
        for &j in &self.basis {
            let v = self.x[j];
            let l = self.var_lower(j);
            let u = self.var_upper(j);
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

    /// Appends structural columns to a live session, preserving the solved basis.
    ///
    /// Contract, in terms of the solver state the next [`Solver::reoptimize`]
    /// starts from:
    ///
    /// * the basis (and therefore the LU factorization, *including* any
    ///   mid-cycle Forrest–Tomlin updates) is untouched — appending columns
    ///   never changes the basis matrix, so nothing is refactorized;
    /// * every new column enters nonbasic at its default bound (lower when
    ///   finite, else upper, else free-at-zero), and basic values are
    ///   recomputed in case a new column sits at a nonzero bound;
    /// * new columns get unit devex weights; the incremental reduced-cost
    ///   array is invalidated so the next pricing pass rebuilds it from a
    ///   fresh dual solve (the appended columns' reduced costs included).
    ///
    /// Logical (slack) variables keep their identity: their indices shift up by
    /// `cols.len()` because structural columns precede logicals in the
    /// per-variable ordering — callers holding a [`WarmStart`] from before the
    /// append can rebuild the equivalent start by splicing the new columns'
    /// statuses in at position `old_ncols`.
    pub fn add_columns(&mut self, cols: &[NewColumn]) -> LpResult<()> {
        if cols.is_empty() {
            return Ok(());
        }
        let old_nstruct = self.nstruct;
        for (idx, c) in cols.iter().enumerate() {
            check_column(
                old_nstruct + idx,
                &c.col,
                c.obj,
                (c.lower, c.upper),
                self.nrows,
            )?;
        }

        let k = cols.len();
        let sf = self.sf.to_mut();
        for c in cols {
            sf.cols.push(c.col.clone());
            sf.obj.push(c.obj);
            sf.lower.push(c.lower);
            sf.upper.push(c.upper);
        }

        // Per-variable arrays are ordered structurals-then-logicals, so the new
        // entries splice in *before* the logical block.
        let mut new_status = Vec::with_capacity(k);
        let mut new_x = Vec::with_capacity(k);
        let mut any_nonzero = false;
        for c in cols {
            let (st, v) = Self::default_nonbasic(c.lower, c.upper);
            any_nonzero |= v != 0.0;
            new_status.push(st);
            new_x.push(v);
        }
        self.status.splice(old_nstruct..old_nstruct, new_status);
        self.x.splice(old_nstruct..old_nstruct, new_x);
        self.lower
            .splice(old_nstruct..old_nstruct, cols.iter().map(|c| c.lower));
        self.upper
            .splice(old_nstruct..old_nstruct, cols.iter().map(|c| c.upper));
        self.weights
            .splice(old_nstruct..old_nstruct, std::iter::repeat_n(1.0, k));
        self.d
            .splice(old_nstruct..old_nstruct, std::iter::repeat_n(0.0, k));
        // Logical variable indices stored in the basis shift with the splice.
        for j in self.basis.iter_mut() {
            if *j >= old_nstruct {
                *j += k;
            }
        }
        self.nstruct += k;
        self.ntotal += k;
        self.alpha_buf.resize(self.ntotal);
        // Phase 2 and the dual phase expand the pivotal row from the row-wise
        // matrix copy; keep it current. The new columns are nonbasic, so each
        // entry joins its row's prefix.
        for (idx, c) in cols.iter().enumerate() {
            let j = old_nstruct + idx;
            for (i, v) in c.col.iter() {
                push_nonbasic(&mut self.a_rows[i], &mut self.nb_len[i], (j, v));
            }
        }
        // Candidate lists hold pre-splice indices; reduced costs must be rebuilt
        // so the appended columns price correctly.
        self.candidates.clear();
        self.minor_count = 0;
        self.d_fresh = false;
        if any_nonzero {
            self.recompute_basic_values();
        }
        Ok(())
    }

    /// Deactivates structural columns of a live session by **bound-fixing**:
    /// each column's bounds collapse to `[0, 0]`, its value snaps to zero, and
    /// — since pricing skips fixed columns entirely — it can never re-enter
    /// the basis. This is the session-level equivalent of deleting the column
    /// from the master: the storage stays (row indices and column numbering
    /// must remain stable for the session contract), but the LP the simplex
    /// works on no longer contains it.
    ///
    /// Only **nonbasic** columns are accepted: a basic column's value is
    /// determined by the factorization and fixing it would silently change the
    /// solution. Callers purge columns that have priced out and idled at zero
    /// for several rounds, so this is no restriction in practice. Columns that
    /// are already fixed are ignored. Errors on an out-of-range or basic
    /// column index before touching anything.
    pub fn deactivate_columns(&mut self, cols: &[usize]) -> LpResult<()> {
        if cols.is_empty() {
            return Ok(());
        }
        for &j in cols {
            if j >= self.nstruct {
                return Err(LpError::InvalidModel(format!(
                    "deactivation targets column {j} but the session has {} structural columns",
                    self.nstruct
                )));
            }
            if matches!(self.status[j], VarStatus::Basic(_)) {
                return Err(LpError::InvalidModel(format!(
                    "cannot deactivate basic column {j}"
                )));
            }
        }
        let sf = self.sf.to_mut();
        for &j in cols {
            sf.lower[j] = 0.0;
            sf.upper[j] = 0.0;
            self.lower[j] = 0.0;
            self.upper[j] = 0.0;
        }
        let mut any_moved = false;
        for &j in cols {
            any_moved |= self.x[j] != 0.0;
            self.x[j] = 0.0;
            self.status[j] = VarStatus::AtLower;
        }
        // The candidate list may hold now-fixed columns; the stored reduced
        // costs stay valid (the basis and costs are untouched) and eligibility
        // itself excludes fixed columns, so `d` needs no refresh.
        self.candidates.clear();
        self.minor_count = 0;
        if any_moved {
            self.recompute_basic_values();
        }
        Ok(())
    }

    /// Row duals `y` solving `Bᵀy = c_B` for the current basis and the phase-2
    /// (real) cost vector, dense in row space. A candidate column `a` with cost
    /// `c` prices to the reduced cost `c - yᵀa`; at optimality every nonbasic
    /// at-lower-bound column satisfies `c - yᵀa >= -tol`, which is the
    /// certificate column-generation callers test against.
    pub fn current_duals(&mut self) -> Vec<f64> {
        self.compute_duals(false);
        let mut y = vec![0.0; self.nrows];
        for (i, v) in self.dual_buf.iter() {
            y[i] = v;
        }
        y
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
            let l = self.var_lower(j);
            let u = self.var_upper(j);
            if self.x[j] < l && self.x[j] > l - tol {
                self.x[j] = l;
            } else if self.x[j] > u && self.x[j] < u + tol {
                self.x[j] = u;
            }
        }
    }

    /// Final basis in the exportable per-variable representation.
    fn export_basis(&self) -> WarmStart {
        let statuses = self
            .status
            .iter()
            .map(|st| match st {
                VarStatus::Basic(_) => BasisStatus::Basic,
                VarStatus::AtLower => BasisStatus::AtLower,
                VarStatus::AtUpper => BasisStatus::AtUpper,
                VarStatus::FreeZero => BasisStatus::Free,
            })
            .collect();
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

    /// Phase-aware cost of basic position `pos`.
    ///
    /// Phase-1 costs are *weighted* unit penalties: every infeasible basic
    /// contributes `±(1 + ε_j)` with a small deterministic per-variable jitter
    /// instead of exactly `±1`. On highly degenerate network LPs the unweighted
    /// composite objective produces huge plateaus of columns whose reduced costs
    /// all tie (every path edge prices at exactly -1), and pricing — devex and
    /// the plain `|d|` score alike — can wander them for millions of degenerate
    /// pivots. The jitter breaks those ties while keeping the phase-1 goal
    /// intact: total weighted infeasibility is zero exactly when total
    /// infeasibility is.
    fn basic_phase_cost(&self, pos: usize, phase1: bool) -> f64 {
        let j = self.basis[pos];
        if phase1 {
            let v = self.x[j];
            let w = 1.0 + Self::phase1_jitter(j);
            if v < self.var_lower(j) - TOL {
                -w
            } else if v > self.var_upper(j) + TOL {
                w
            } else {
                0.0
            }
        } else {
            self.var_cost(j)
        }
    }

    /// Deterministic per-variable jitter in `[0, 2^-7)` (a Weyl-style hash), used
    /// to de-tie the phase-1 penalty costs.
    #[inline]
    fn phase1_jitter(j: usize) -> f64 {
        let h = (j as u64).wrapping_mul(0x9E3779B97F4A7C15) >> 40;
        (h as f64) / (1u64 << 24) as f64 / 128.0
    }

    /// Runs simplex iterations for one phase until optimality (phase-2) or zero
    /// infeasibility (phase-1).
    fn run_phase(&mut self, phase1: bool) -> LpResult<()> {
        let _obs = a2a_obs::span(if phase1 { "lp.phase1" } else { "lp.phase2" });
        self.use_bland = false;
        self.degenerate_run = 0;
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
        if q < self.nstruct {
            for (i, v) in self.sf.cols[q].iter() {
                self.col_buf.set(i, v);
            }
        } else {
            self.col_buf.set(q - self.nstruct, -1.0);
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
    /// first productive one switches it back.
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

    /// Reduced cost of nonbasic variable `j` under the current duals.
    fn reduced_cost(&self, j: usize, phase1: bool) -> f64 {
        let c = if phase1 { 0.0 } else { self.var_cost(j) };
        c - self.col_dot(j, self.dual_buf.values())
    }

    /// Loads the phase cost of the basic variables into `dual_buf` and solves
    /// `Bᵀ y = c_B` in place (the single dual-vector construction behind phase-1
    /// pricing, the phase-2 reduced-cost refresh and [`Self::current_duals`]).
    /// Returns the number of nonzero basic costs — zero in phase 1 means no
    /// infeasible basic variable is left.
    fn compute_duals(&mut self, phase1: bool) -> usize {
        self.dual_buf.clear();
        let mut nonzero = 0usize;
        for pos in 0..self.nrows {
            let c = self.basic_phase_cost(pos, phase1);
            if c != 0.0 {
                self.dual_buf.set(pos, c);
                nonzero += 1;
            }
        }
        if nonzero > 0 {
            self.lu
                .btran_sparse(Kernel::Reach, &mut self.dual_buf, &mut self.lu_scratch);
        }
        nonzero
    }

    /// Rebuilds the exact phase-2 reduced-cost array `d` from a fresh dual
    /// solve (one BTRAN plus one pass over the matrix).
    fn refresh_reduced_costs(&mut self) {
        self.compute_duals(false);
        for j in 0..self.ntotal {
            self.d[j] = if matches!(self.status[j], VarStatus::Basic(_)) {
                0.0
            } else {
                self.reduced_cost(j, false)
            };
        }
        self.d_fresh = true;
    }

    /// Eligibility of nonbasic `j` given its reduced cost `d`: `(direction, |d|)`
    /// when the reduced cost allows an improving move, `None` otherwise. Fixed
    /// variables (`lower == upper`) can never move and are excluded entirely.
    /// The single eligibility rule behind both the stored-reduced-cost (phase
    /// 2) and the fresh-dual (phase 1) pricing paths.
    #[inline]
    fn eligibility_from(&self, j: usize, d: f64) -> Option<(f64, f64)> {
        if self.var_lower(j) == self.var_upper(j) {
            return None;
        }
        match self.status[j] {
            VarStatus::Basic(_) => None,
            VarStatus::AtLower => (d < -TOL).then_some((1.0, -d)),
            VarStatus::AtUpper => (d > TOL).then_some((-1.0, d)),
            VarStatus::FreeZero => {
                if d < -TOL {
                    Some((1.0, -d))
                } else if d > TOL {
                    Some((-1.0, d))
                } else {
                    None
                }
            }
        }
    }

    /// Forrest–Goldfarb reference-framework check at a pivot with entering `q`:
    /// returns the clamped entering weight for the update formulas, or `None`
    /// after resetting the whole framework because the weight grew too large.
    /// Shared by the phase-2 and the phase-1 (candidate-list) devex updates.
    fn devex_entering_weight(&mut self, q: usize) -> Option<f64> {
        let wq = self.weights[q].max(1.0);
        if wq > DEVEX_RESET_THRESHOLD {
            self.weights.iter_mut().for_each(|w| *w = 1.0);
            None
        } else {
            Some(wq)
        }
    }

    /// Devex weight update of one nonbasic column touched by the pivotal row:
    /// `w_j = max(w_j, (α_j²/α_q²)·w_q)`.
    #[inline]
    fn bump_devex_weight(&mut self, j: usize, aj: f64, piv2: f64, wq: f64) {
        let cand = (aj * aj / piv2) * wq;
        if cand > self.weights[j] {
            self.weights[j] = cand;
        }
    }

    /// Devex weight the leaving variable takes as it turns nonbasic.
    #[inline]
    fn set_leaving_weight(&mut self, leaving_var: usize, piv2: f64, wq: f64) {
        self.weights[leaving_var] = (wq / piv2).max(1.0);
    }

    /// Computes the pivotal row `rho = e_r B^{-1}` into the (taken) row buffer.
    fn compute_pivotal_rho(&mut self, r: usize, kernel: Kernel) -> SparseScratch {
        let mut rho = std::mem::take(&mut self.row_buf);
        rho.clear();
        rho.set(r, 1.0);
        self.lu.btran_sparse(kernel, &mut rho, &mut self.lu_scratch);
        rho
    }

    /// Expands the pivotal row `alpha = rho A` over `rho`'s pattern from the
    /// nonbasic prefixes of the row-wise matrix copy (the logical column of row
    /// `i` carries `-rho_i`). `alpha` ends up holding nonbasic columns only.
    fn expand_pivotal_row(&self, rho: &SparseScratch, alpha: &mut SparseScratch) {
        alpha.clear();
        for (i, rv) in rho.iter() {
            if rv == 0.0 {
                continue;
            }
            #[cfg(test)]
            if self.full_row_expansion {
                for &(j, a) in &self.a_rows[i] {
                    if !matches!(self.status[j], VarStatus::Basic(_)) {
                        alpha.add(j, rv * a);
                    }
                }
                if !matches!(self.status[self.nstruct + i], VarStatus::Basic(_)) {
                    alpha.add(self.nstruct + i, -rv);
                }
                continue;
            }
            for &(j, a) in &self.a_rows[i][..self.nb_len[i]] {
                alpha.add(j, rv * a);
            }
            if !matches!(self.status[self.nstruct + i], VarStatus::Basic(_)) {
                alpha.add(self.nstruct + i, -rv);
            }
        }
    }

    /// Post-pivot update of phase 2: expands the pivotal row `alpha = e_r B^{-1}
    /// A` from the row-wise matrix copy, updates every touched reduced cost
    /// exactly (`d_j -= (d_q/alpha_q) alpha_j`) and, in the same pass, the
    /// devex weights of the touched columns (with the usual reference-framework
    /// reset when the entering weight has grown too large).
    fn update_incremental(&mut self, q: usize, r: usize, alpha_q: f64, leaving_var: usize) {
        let ratio = self.d[q] / alpha_q;
        let rho = self.compute_pivotal_rho(r, Kernel::Reach);
        let mut alpha = std::mem::take(&mut self.alpha_buf);
        self.expand_pivotal_row(&rho, &mut alpha);
        let piv2 = alpha_q * alpha_q;
        let devex = self
            .devex_entering_weight(q)
            .filter(|_| piv2 > 0.0)
            .map(|wq| (piv2, wq));
        self.update_reduced_costs(&alpha, q, leaving_var, ratio, devex);
        if let Some((piv2, wq)) = devex {
            self.set_leaving_weight(leaving_var, piv2, wq);
        }
        self.row_buf = rho;
        self.alpha_buf = alpha;
    }

    /// Moves the reduced costs across a basis change with entering `q` and
    /// leaving `leaving_var`, shared by phase 2 and the dual loop: every other
    /// column of the pivotal row `alpha` (nonbasic columns only, see `a_rows`)
    /// shifts by `-step * alpha_j`, `q` turns basic and the leaving variable
    /// takes `-step`. `devex`, the primal's `(alpha_q², w_q)`, bumps the
    /// touched columns' reference weights in the same pass.
    fn update_reduced_costs(
        &mut self,
        alpha: &SparseScratch,
        q: usize,
        leaving_var: usize,
        step: f64,
        devex: Option<(f64, f64)>,
    ) {
        if step != 0.0 || devex.is_some() {
            for (j, aj) in alpha.iter() {
                if j == q || aj == 0.0 {
                    continue;
                }
                self.d[j] -= step * aj;
                if let Some((piv2, wq)) = devex {
                    self.bump_devex_weight(j, aj, piv2, wq);
                }
            }
        }
        self.d[q] = 0.0;
        self.d[leaving_var] = -step;
    }

    /// Builds the row-wise matrix copy, partitioned against the installed
    /// basis (once, at construction).
    fn build_a_rows(&mut self) {
        let mut rows: Vec<Vec<(usize, f64)>> = vec![Vec::new(); self.nrows];
        let mut nb_len = vec![0; self.nrows];
        for (j, col) in self.sf.cols.iter().enumerate() {
            let basic = matches!(self.status[j], VarStatus::Basic(_));
            for (i, v) in col.iter() {
                if basic {
                    rows[i].push((j, v));
                } else {
                    push_nonbasic(&mut rows[i], &mut nb_len[i], (j, v));
                }
            }
        }
        self.a_rows = rows;
        self.nb_len = nb_len;
    }

    /// Moves column `j`'s entries across the nonbasic / basic boundary of
    /// their `a_rows` rows as `j` enters (`to_basic`) or leaves the basis: each
    /// entry trades places with the entry on its side of the boundary, and
    /// the boundary steps over it.
    fn move_in_a_rows(&mut self, j: usize, to_basic: bool) {
        if j >= self.nstruct {
            return;
        }
        for (i, _) in self.sf.cols[j].iter() {
            let row = &mut self.a_rows[i];
            let nb = &mut self.nb_len[i];
            if to_basic {
                let at = row[..*nb]
                    .iter()
                    .position(|&(c, _)| c == j)
                    .expect("an entering column sits in the nonbasic prefixes");
                *nb -= 1;
                row.swap(at, *nb);
            } else {
                let at = *nb
                    + row[*nb..]
                        .iter()
                        .position(|&(c, _)| c == j)
                        .expect("a leaving column sits in the basic suffixes");
                row.swap(at, *nb);
                *nb += 1;
            }
        }
    }

    /// The one place a basis change is committed, for the primal and the dual
    /// loop alike: `q` becomes basic at position `r`, the variable it replaces
    /// turns nonbasic with `leaving_status`, the `a_rows` partition follows
    /// both, and the factorization takes the Forrest–Tomlin update from the
    /// spike [`Self::ftran_entering`] saved. An unstable update poisons the
    /// factors, so a rejection refactorizes the new basis at once, as do
    /// `REFACTOR_INTERVAL` accumulated updates and update fill outgrowing the
    /// base factorization.
    fn commit_basis_change(
        &mut self,
        r: usize,
        q: usize,
        leaving_status: VarStatus,
    ) -> LpResult<()> {
        let leaving_var = self.basis[r];
        self.status[leaving_var] = leaving_status;
        self.status[q] = VarStatus::Basic(r);
        self.basis[r] = q;
        self.move_in_a_rows(leaving_var, false);
        self.move_in_a_rows(q, true);
        self.pivots += 1;
        if !self
            .lu
            .replace_column(r, &self.spike_buf, &mut self.lu_scratch)
            || self.lu.updates() >= REFACTOR_INTERVAL
            || self.lu.fill_exceeded()
        {
            self.refactorize()?;
        }
        Ok(())
    }

    /// Whether every row of `a_rows` has exactly its nonbasic columns in its
    /// prefix (vacuously true before the copy is built). Debug builds assert
    /// it at every refactorization.
    fn a_rows_partitioned(&self) -> bool {
        self.a_rows.iter().zip(&self.nb_len).all(|(row, &nb)| {
            row.iter()
                .enumerate()
                .all(|(k, &(j, _))| (k < nb) != matches!(self.status[j], VarStatus::Basic(_)))
        })
    }

    /// Whether the current basis prices dual-feasible against the *real*
    /// (phase-2) objective: every nonbasic reduced cost respects its bound's
    /// sign condition. Refreshes the incremental reduced-cost array as a side
    /// effect, so a subsequent dual phase starts from exact `d`.
    fn dual_feasible(&mut self) -> bool {
        self.refresh_reduced_costs();
        (0..self.ntotal).all(|j| {
            // Fixed columns never enter the basis; their sign is irrelevant.
            if self.var_lower(j) == self.var_upper(j) {
                return true;
            }
            match self.status[j] {
                VarStatus::Basic(_) => true,
                VarStatus::AtLower => self.d[j] >= -TOL,
                VarStatus::AtUpper => self.d[j] <= TOL,
                VarStatus::FreeZero => self.d[j].abs() <= TOL,
            }
        })
    }

    /// Leaving-row selection of the dual phase: the basic position with the
    /// largest steepest-edge merit `violation² / weight` (smallest infeasible
    /// basic variable index under Bland's rule), or `None` when every basic
    /// value is within its bounds — primal feasible, and since the dual phase
    /// maintains dual feasibility, optimal. The returned violation is signed:
    /// positive above the upper bound, negative below the lower.
    fn dual_select_row(&self) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64, f64)> = None;
        for (pos, &j) in self.basis.iter().enumerate() {
            let v = self.x[j];
            let l = self.var_lower(j);
            let u = self.var_upper(j);
            let viol = if v < l - TOL {
                v - l
            } else if v > u + TOL {
                v - u
            } else {
                continue;
            };
            if self.use_bland {
                match best {
                    Some((bp, _, _)) if self.basis[bp] <= j => {}
                    _ => best = Some((pos, viol, 0.0)),
                }
                continue;
            }
            let merit = viol * viol / self.row_weights[pos];
            match best {
                Some((_, _, m)) if m >= merit => {}
                _ => best = Some((pos, viol, merit)),
            }
        }
        best.map(|(pos, viol, _)| (pos, viol))
    }

    /// Exact dual steepest-edge weight update (Forrest–Goldfarb) after a dual
    /// pivot on row `r` with the FTRANed entering column `w` in `col_buf`
    /// (basis-position space). `kappa = ||rho||²` is the *exact* weight of the
    /// pivotal row — free, since the dual iteration BTRANs `rho = e_r B^{-1}`
    /// anyway — which makes the recurrence self-correcting: whatever drift a
    /// row's weight accumulated is replaced by the true norm the moment it
    /// pivots. `tau = B^{-1} rho` carries the cross terms. Weights are floored
    /// to keep cancellation from turning them non-positive.
    fn update_dual_row_weights(&mut self, r: usize, w_r: f64, kappa: f64, tau: &SparseScratch) {
        const FLOOR: f64 = 1e-4;
        let piv2 = w_r * w_r;
        if piv2 == 0.0 {
            return;
        }
        for (pos, wi) in self.col_buf.iter() {
            if pos == r || wi == 0.0 {
                continue;
            }
            let ratio = wi / w_r;
            let cand = self.row_weights[pos] - ratio * (2.0 * tau.get(pos) - ratio * kappa);
            self.row_weights[pos] = cand.max(FLOOR);
        }
        self.row_weights[r] = (kappa / piv2).max(FLOOR);
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

    /// Installs the dual anti-degeneracy cost perturbation (see the `perturb`
    /// field): every nonbasic non-fixed bounded column gets a small
    /// deterministic cost nudge *into* its dual-feasible sign region — positive
    /// at a lower bound, negative at an upper bound — so zero reduced costs
    /// (ubiquitous in zero-cost flow LPs) become strictly signed and the dual
    /// ratio test takes real steps instead of degenerate ones. Basic and free
    /// columns keep exact costs: perturbing basics would move the duals `y` and
    /// could destroy the start's dual feasibility, and free nonbasics require
    /// `d = 0` which any nudge would break.
    fn install_dual_perturbation(&mut self) {
        let base = TOL * 1e2 * (1.0 + self.sf.obj.iter().fold(0.0f64, |m, c| m.max(c.abs())));
        self.perturb.clear();
        self.perturb.resize(self.ntotal, 0.0);
        for j in 0..self.ntotal {
            if self.var_lower(j) == self.var_upper(j) {
                continue;
            }
            let eps = base * (1.0 + 64.0 * Self::phase1_jitter(j));
            match self.status[j] {
                VarStatus::AtLower => self.perturb[j] = eps,
                VarStatus::AtUpper => self.perturb[j] = -eps,
                VarStatus::Basic(_) | VarStatus::FreeZero => {}
            }
        }
        self.refresh_reduced_costs();
    }

    /// Dual ratio-test breakpoint of column `j` of the pivotal row (`aj`, a
    /// nonbasic column by construction of the row): `Some(ratio)` when the
    /// column is not fixed and its reduced cost moves toward its sign limit as
    /// the dual step grows. `abar = σ·alpha_j` normalizes both leaving
    /// directions to one sign convention, so an eligible column always has
    /// ratio `d_j / abar >= 0` (clamped — a within-tolerance dual violation
    /// must not produce a negative step).
    #[inline]
    fn dual_breakpoint(&self, j: usize, aj: f64, sigma: f64) -> Option<f64> {
        if self.var_lower(j) == self.var_upper(j) {
            return None;
        }
        let abar = sigma * aj;
        let eligible = match self.status[j] {
            VarStatus::AtLower => abar > PIVOT_TOL,
            VarStatus::AtUpper => abar < -PIVOT_TOL,
            VarStatus::FreeZero => abar.abs() > PIVOT_TOL,
            VarStatus::Basic(_) => false,
        };
        eligible.then(|| (self.d[j] / abar).max(0.0))
    }

    fn dual_phase_loop(&mut self) -> LpResult<DualOutcome> {
        self.row_weights.clear();
        self.row_weights.resize(self.nrows, 1.0);
        // Consecutive degenerate (zero-dual-step) pivots: past the usual switch
        // the entering rule degrades to Bland's (smallest ratio, then smallest
        // index, no long step); persisting far past it, the phase gives up and
        // falls back to primal phase 1 rather than risk cycling.
        self.degenerate_run = 0;
        self.use_bland = false;
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
            let rho = self.compute_pivotal_rho(r, Kernel::Adaptive);
            // Exact steepest-edge weight of the leaving row — a free byproduct
            // of the pivotal row the iteration needs anyway.
            let kappa: f64 = rho.iter().map(|(_, v)| v * v).sum();
            let mut alpha = std::mem::take(&mut self.alpha_buf);
            self.expand_pivotal_row(&rho, &mut alpha);
            self.row_buf = rho;

            // Breakpoints: nonbasic columns whose reduced cost starts changing
            // toward its sign limit as the dual step grows
            // ([`Self::dual_breakpoint`]). The minimum ratio (ties by smallest
            // index — the same order the sorted walk below uses) is tracked
            // inline and the breakpoints are only counted: on LPs whose columns
            // are mostly unboxed the walk cannot pass the first breakpoint
            // anyway, and neither the list nor its O(B log B) sort is needed.
            let mut q_min = usize::MAX;
            let mut r_min = f64::INFINITY;
            let mut nbreaks = 0usize;
            for (j, aj) in alpha.iter() {
                let Some(ratio) = self.dual_breakpoint(j, aj, sigma) else {
                    continue;
                };
                if ratio < r_min || (ratio == r_min && j < q_min) {
                    r_min = ratio;
                    q_min = j;
                }
                nbreaks += 1;
            }
            if nbreaks == 0 {
                // No entering candidate for an infeasible row: the dual is
                // unbounded, i.e. the primal is infeasible. Hand to phase 1 to
                // re-prove that from cleanly recomputed state.
                self.alpha_buf = alpha;
                return Ok(DualOutcome::Fallback);
            }

            // Long-step walk: flip boxed breakpoints while the slope survives
            // them; the breakpoint the slope dies on (or the first unboxed one)
            // enters. Bland's mode takes the smallest-ratio/smallest-index
            // breakpoint directly, with no long step — exactly the tracked
            // minimum. The ratio order is only needed when the minimum-ratio
            // breakpoint is boxed and could be flipped; only then does a second
            // pass over the row collect the breakpoints to sort.
            flips.clear();
            let mut entering = q_min;
            if !self.use_bland
                && nbreaks > 1
                && (self.var_upper(q_min) - self.var_lower(q_min)).is_finite()
            {
                breaks.clear();
                breaks.extend(alpha.iter().filter_map(|(j, aj)| {
                    self.dual_breakpoint(j, aj, sigma).map(|ratio| (j, ratio))
                }));
                breaks.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
                let mut slope = viol.abs();
                for (idx, &(j, _)) in breaks.iter().enumerate() {
                    entering = j;
                    let range = self.var_upper(j) - self.var_lower(j);
                    if !range.is_finite() || idx == breaks.len() - 1 {
                        break;
                    }
                    let next_slope = slope - (sigma * alpha.get(j)).abs() * range;
                    if next_slope <= 0.0 {
                        break;
                    }
                    flips.push(j);
                    slope = next_slope;
                }
            }
            let q = entering;
            let alpha_q = alpha.get(q);
            if alpha_q.abs() <= PIVOT_TOL {
                // The expanded row disagrees with the eligibility threshold —
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
            let theta = (self.d[q] / (sigma * alpha_q)).max(0.0);

            // Apply the accumulated bound flips in one aggregated FTRAN: the
            // basics absorb the combined column delta of every flipped column.
            if !flips.is_empty() {
                let mut rhs = self.take_zeroed_rhs();
                for &j in &flips {
                    let (l, u) = (self.var_lower(j), self.var_upper(j));
                    let (st, v) = match self.status[j] {
                        VarStatus::AtLower => (VarStatus::AtUpper, u),
                        VarStatus::AtUpper => (VarStatus::AtLower, l),
                        _ => unreachable!("only boxed bound columns flip"),
                    };
                    let delta = v - self.x[j];
                    if delta != 0.0 {
                        self.scatter_col(j, delta, &mut rhs);
                    }
                    self.status[j] = st;
                    self.x[j] = v;
                }
                self.lu.solve(&mut rhs, &mut self.lu_scratch);
                for (pos, &jb) in self.basis.iter().enumerate() {
                    if rhs[pos] != 0.0 {
                        self.x[jb] -= rhs[pos];
                    }
                }
                self.rhs_buf = rhs;
            }

            self.ftran_entering(q, Kernel::Adaptive);
            let w_r = self.col_buf.get(r);
            if w_r.abs() <= PIVOT_TOL {
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
            // Steepest-edge cross terms tau = B^{-1} rho, FTRANed in place over
            // the rho buffer (dead once the pivotal row has been expanded).
            let mut tau = std::mem::take(&mut self.row_buf);
            self.lu
                .ftran_sparse(Kernel::Adaptive, &mut tau, &mut self.lu_scratch);
            self.update_dual_row_weights(r, w_r, kappa, &tau);
            self.row_buf = tau;

            // Primal step: drive the leaving basic exactly onto its violated
            // bound. The sign works out by construction — an eligible entering
            // column always moves off its bound in the allowed direction.
            let (bound, leaving_status) = if sigma > 0.0 {
                (self.var_upper(leaving_var), VarStatus::AtUpper)
            } else {
                (self.var_lower(leaving_var), VarStatus::AtLower)
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

    /// Eligibility of nonbasic `j` under the current phase-1 duals (fresh
    /// reduced cost).
    fn eligibility(&self, j: usize) -> Option<(f64, f64)> {
        // Skip the reduced-cost computation for variables that can never enter.
        if matches!(self.status[j], VarStatus::Basic(_)) || self.var_lower(j) == self.var_upper(j) {
            return None;
        }
        self.eligibility_from(j, self.reduced_cost(j, true))
    }

    /// Entering-variable selection by one O(variables) scan: phase 2 prices
    /// from the incremental reduced-cost array `d` (no matrix access at all),
    /// phase 1 from the current duals. Bland's anti-cycling rule (first
    /// eligible index) takes priority when active; a degeneracy stall escape
    /// scores the plain `|d|` merit, devex scores `d²/w` (phase 1 scans only
    /// under one of the first two, see [`Self::price_devex`]).
    fn price_scan(&self, phase1: bool, stall_escape: bool) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64, f64)> = None;
        for j in 0..self.ntotal {
            let elig = if phase1 {
                self.eligibility(j)
            } else {
                self.eligibility_from(j, self.d[j])
            };
            let Some((dir, dabs)) = elig else {
                continue;
            };
            if self.use_bland {
                return Some((j, dir));
            }
            let merit = if stall_escape {
                dabs
            } else {
                dabs * dabs / self.weights[j]
            };
            match best {
                Some((_, _, m)) if m >= merit => {}
                _ => best = Some((j, dir, merit)),
            }
        }
        best.map(|(j, dir, _)| (j, dir))
    }

    /// Candidate-list size: a fraction of the column count, bounded so tiny
    /// LPs price everything and huge LPs keep the list cache-resident.
    fn candidate_list_target(&self) -> usize {
        (self.ntotal / 16).clamp(32, 256)
    }

    /// Phase-1 devex pricing over the candidate list (minor iteration). The
    /// list is rebuilt by a partial-pricing window scan (rotating cursor) when
    /// it goes stale — empty, *or* priced for more minor iterations than its
    /// refresh budget. The periodic refresh matters on degenerate LPs: pivots
    /// make new columns attractive (nonzero duals appear on fresh rows), and a
    /// list frozen until exhaustion would keep grinding degenerate candidates
    /// instead. `None` is returned only after a whole-column-range scan found
    /// nothing eligible — the same optimality proof a full scan gives.
    fn price_devex(&mut self) -> Option<(usize, f64)> {
        let mut cands = std::mem::take(&mut self.candidates);
        let refresh_budget = (self.candidate_list_target() / 4).max(16);
        if self.minor_count >= refresh_budget {
            cands.clear();
        }
        let mut rebuilt = false;
        let result = loop {
            let mut best: Option<(usize, f64, f64)> = None;
            cands.retain(|&j| {
                let Some((dir, d)) = self.eligibility(j) else {
                    return false;
                };
                let merit = d * d / self.weights[j];
                match best {
                    Some((_, _, m)) if m >= merit => {}
                    _ => best = Some((j, dir, merit)),
                }
                true
            });
            if let Some((j, dir, _)) = best {
                self.minor_count += 1;
                break Some((j, dir));
            }
            if rebuilt {
                break None;
            }
            self.rebuild_candidates(&mut cands);
            self.minor_count = 0;
            rebuilt = true;
            if cands.is_empty() {
                break None;
            }
        };
        self.candidates = cands;
        result
    }

    /// Refills the candidate list by scanning columns from the rotation cursor,
    /// wrapping at most once around the whole range.
    fn rebuild_candidates(&mut self, cands: &mut Vec<usize>) {
        cands.clear();
        let target = self.candidate_list_target();
        let mut scanned = 0usize;
        let mut j = self.scan_cursor % self.ntotal.max(1);
        while scanned < self.ntotal && cands.len() < target {
            if self.eligibility(j).is_some() {
                cands.push(j);
            }
            j = (j + 1) % self.ntotal;
            scanned += 1;
        }
        self.scan_cursor = j;
    }

    /// Forrest–Goldfarb devex update after a basis change with entering `q`,
    /// pivotal row `r` and pivot element `alpha_q`: weights of the candidate-list
    /// columns (partial devex) and of the leaving variable are refreshed from the
    /// pivotal row; the framework resets once the entering weight grows too large.
    fn update_devex_weights(&mut self, q: usize, r: usize, alpha_q: f64, leaving_var: usize) {
        let Some(wq) = self.devex_entering_weight(q) else {
            return;
        };
        let piv2 = alpha_q * alpha_q;
        if piv2 == 0.0 {
            return;
        }
        // rho = e_r B^{-1}: the pivotal row in original-row space, hypersparse.
        let rho = self.compute_pivotal_rho(r, Kernel::Reach);
        for idx in 0..self.candidates.len() {
            let j = self.candidates[idx];
            if j == q || matches!(self.status[j], VarStatus::Basic(_)) {
                continue;
            }
            let aj = self.col_dot(j, rho.values());
            if aj != 0.0 {
                self.bump_devex_weight(j, aj, piv2, wq);
            }
        }
        self.row_buf = rho;
        self.set_leaving_weight(leaving_var, piv2, wq);
    }

    /// Runs the primal ratio test for entering `q` moving in `direction` and
    /// applies the step. A bound flip of `q` completes the iteration and
    /// returns `None`; otherwise the leaving variable is moved onto the bound
    /// it hit, the devex bookkeeping is done against the outgoing basis, and
    /// the basis change for [`Self::commit_basis_change`] is returned as its
    /// position and leaving status. The pivot column `w = B^{-1} A_q` is in
    /// `self.col_buf`.
    fn pivot_step(
        &mut self,
        q: usize,
        direction: f64,
        phase1: bool,
    ) -> LpResult<Option<(usize, VarStatus)>> {
        // Bound-flip limit for the entering variable itself.
        let (lq, uq) = (self.var_lower(q), self.var_upper(q));
        let flip_limit = if lq.is_finite() && uq.is_finite() {
            uq - lq
        } else {
            INF
        };

        // Ratio test over the nonzero pattern of the pivot column.
        let mut t_min = INF;
        let mut leaving: Option<(usize, f64)> = None; // (basic position, bound it hits)
        for (pos, wi) in self.col_buf.iter() {
            if wi.abs() <= PIVOT_TOL {
                continue;
            }
            let j = self.basis[pos];
            let v = self.x[j];
            let l = self.var_lower(j);
            let u = self.var_upper(j);
            // Rate of change of this basic variable per unit step of the entering one.
            let delta = -direction * wi;
            let infeasible_below = phase1 && v < l - TOL;
            let infeasible_above = phase1 && v > u + TOL;

            let (limit, bound) = if infeasible_below {
                if delta > PIVOT_TOL {
                    ((l - v) / delta, l)
                } else {
                    continue;
                }
            } else if infeasible_above {
                if delta < -PIVOT_TOL {
                    ((v - u) / (-delta), u)
                } else {
                    continue;
                }
            } else if delta < -PIVOT_TOL {
                if l.is_infinite() {
                    continue;
                }
                (((v - l) / (-delta)).max(0.0), l)
            } else if delta > PIVOT_TOL {
                if u.is_infinite() {
                    continue;
                }
                (((u - v) / delta).max(0.0), u)
            } else {
                continue;
            };

            let better = match leaving {
                None => limit < t_min,
                Some((cur_pos, _)) => {
                    if limit < t_min - PIVOT_TOL {
                        true
                    } else if limit <= t_min + PIVOT_TOL {
                        if self.use_bland {
                            self.basis[pos] < self.basis[cur_pos]
                        } else {
                            // Prefer the largest pivot magnitude for numerical stability.
                            self.col_buf.get(pos).abs() > self.col_buf.get(cur_pos).abs()
                        }
                    } else {
                        false
                    }
                }
            };
            if better {
                t_min = limit;
                leaving = Some((pos, bound));
            }
        }

        let t = t_min.min(flip_limit);
        if !t.is_finite() {
            return if phase1 {
                Err(LpError::Numerical(
                    "unbounded direction encountered during phase 1".into(),
                ))
            } else {
                Err(LpError::Unbounded)
            };
        }

        // Degeneracy bookkeeping, before the devex update below reads Bland.
        self.note_step(t <= TOL);
        self.apply_step(q, direction * t);

        if flip_limit <= t_min {
            // Bound flip: the entering variable moves to its opposite bound; the
            // basis (and therefore the devex framework) is unchanged.
            self.status[q] = if direction > 0.0 {
                VarStatus::AtUpper
            } else {
                VarStatus::AtLower
            };
            self.x[q] = if direction > 0.0 { uq } else { lq };
            return Ok(None);
        }

        let (r, bound) = leaving.expect("finite ratio implies a leaving variable");
        let alpha_q = self.col_buf.get(r);
        if alpha_q.abs() <= PIVOT_TOL {
            return Err(LpError::Numerical(format!(
                "pivot magnitude {alpha_q} too small at basis position {r}"
            )));
        }

        // The leaving variable exits exactly at the bound it hit.
        let leaving_var = self.basis[r];
        self.x[leaving_var] = bound;
        let leaving_status = if (bound - self.var_lower(leaving_var)).abs()
            <= (bound - self.var_upper(leaving_var)).abs()
        {
            VarStatus::AtLower
        } else {
            VarStatus::AtUpper
        };

        // Devex/reduced-cost bookkeeping must run against the *outgoing* basis
        // inverse, before the basis change is committed. Phase 2 always updates
        // (its `d` array must track every basis change); phase 1 skips the
        // candidate-list weights under Bland.
        if !phase1 {
            self.update_incremental(q, r, alpha_q, leaving_var);
        } else if !self.use_bland {
            self.update_devex_weights(q, r, alpha_q, leaving_var);
        }
        Ok(Some((r, leaving_status)))
    }

    /// Number of simplex iterations performed so far.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Number of basis changes performed so far.
    pub fn pivots(&self) -> usize {
        self.pivots
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
