//! Pricing: the reduced costs, the devex weights and candidate lists that
//! choose the primal loop's entering column, and the dual steepest-edge
//! choice of the dual loop's leaving row.
//!
//! # Primal pricing
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
//! # Dual pricing
//!
//! The dual phase selects the leaving row by **exact dual steepest-edge** row
//! weights (`violation² / weight`, Forrest–Goldfarb update; the pivotal-row
//! BTRAN every iteration computes anyway makes the leaving row's true norm
//! free, so the recurrence is self-correcting). For the duration of the
//! phase, nonbasic bounded columns carry a small deterministic **cost
//! perturbation** pushed *into* their dual-feasible sign region, so the
//! zero-reduced-cost ties that zero-cost flow LPs are made of become strictly
//! signed and the ratio test takes real dual steps; true costs are restored
//! (and reduced costs re-priced) before the phase returns.

use super::{Solver, VarStatus, TOL};
use crate::lu::Kernel;
use crate::sparse::SparseScratch;

/// Devex weights are reset to the unit framework once the entering weight exceeds
/// this threshold (keeps the reference approximation bounded).
const DEVEX_RESET_THRESHOLD: f64 = 1e7;

/// Keeps `cand` in `best` unless the incumbent's merit is at least `merit`:
/// the argmax of every pricing scan, ties keeping the first.
fn keep_best<T>(best: &mut Option<(T, f64)>, cand: T, merit: f64) {
    match best {
        Some((_, m)) if *m >= merit => {}
        _ => *best = Some((cand, merit)),
    }
}

impl Solver<'_> {
    /// Cost of variable `j` in the real objective, plus the dual phase's
    /// perturbation while one is installed.
    pub(super) fn var_cost(&self, j: usize) -> f64 {
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
        if !phase1 {
            return self.var_cost(j);
        }
        let viol = self.violation(j);
        if viol == 0.0 {
            0.0
        } else {
            (1.0 + Self::phase1_jitter(j)).copysign(viol)
        }
    }

    /// Deterministic per-variable jitter in `[0, 2^-7)` (a Weyl-style hash), used
    /// to de-tie the phase-1 penalty costs.
    #[inline]
    fn phase1_jitter(j: usize) -> f64 {
        let h = (j as u64).wrapping_mul(0x9E3779B97F4A7C15) >> 40;
        (h as f64) / (1u64 << 24) as f64 / 128.0
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
    pub(super) fn compute_duals(&mut self, phase1: bool) -> usize {
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
    pub(super) fn refresh_reduced_costs(&mut self) {
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

    /// The directions `(up, down)` nonbasic `j` may move in from where it
    /// sits: up from a lower bound, down from an upper one, either way when
    /// free. Basic and fixed (`lower == upper`) variables move in neither.
    #[inline]
    fn moves(&self, j: usize) -> (bool, bool) {
        if self.lower[j] == self.upper[j] {
            return (false, false);
        }
        match self.status[j] {
            VarStatus::Basic(_) => (false, false),
            VarStatus::AtLower => (true, false),
            VarStatus::AtUpper => (false, true),
            VarStatus::FreeZero => (true, true),
        }
    }

    /// The sign rule of a nonbasic column: `(direction, |v|)` when `j` may
    /// move in the direction opposite to `v`'s sign and `|v|` exceeds `tol`,
    /// `None` otherwise. Given a reduced cost and `TOL`, it is eligibility to
    /// enter the basis (both pricing paths and [`Self::dual_feasible`]).
    #[inline]
    pub(super) fn eligibility_from(&self, j: usize, v: f64, tol: f64) -> Option<(f64, f64)> {
        let (up, down) = self.moves(j);
        if up && v < -tol {
            Some((1.0, -v))
        } else if down && v > tol {
            Some((-1.0, v))
        } else {
            None
        }
    }

    /// Eligibility of nonbasic `j` under the current phase-1 duals (fresh
    /// reduced cost).
    fn eligibility(&self, j: usize) -> Option<(f64, f64)> {
        // Skip the reduced-cost computation for variables that can never enter.
        if self.moves(j) == (false, false) {
            return None;
        }
        self.eligibility_from(j, self.reduced_cost(j, true), TOL)
    }

    /// Signed bound violation of variable `j` beyond `TOL`: `x_j − l_j` below
    /// its lower bound, `x_j − u_j` above its upper one, `0` within.
    #[inline]
    pub(super) fn violation(&self, j: usize) -> f64 {
        let (v, l, u) = (self.x[j], self.lower[j], self.upper[j]);
        if v < l - TOL {
            v - l
        } else if v > u + TOL {
            v - u
        } else {
            0.0
        }
    }

    /// Entering-variable selection by one O(variables) scan: phase 2 prices
    /// from the incremental reduced-cost array `d` (no matrix access at all),
    /// phase 1 from the current duals. Bland's anti-cycling rule (first
    /// eligible index) takes priority when active; a degeneracy stall escape
    /// scores the plain `|d|` merit, devex scores `d²/w` (phase 1 scans only
    /// under one of the first two, see [`Self::price_devex`]).
    pub(super) fn price_scan(&self, phase1: bool, stall_escape: bool) -> Option<(usize, f64)> {
        let mut best = None;
        for j in 0..self.ntotal {
            let elig = if phase1 {
                self.eligibility(j)
            } else {
                self.eligibility_from(j, self.d[j], TOL)
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
            keep_best(&mut best, (j, dir), merit);
        }
        best.map(|(c, _)| c)
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
    pub(super) fn price_devex(&mut self) -> Option<(usize, f64)> {
        let mut cands = std::mem::take(&mut self.candidates);
        let refresh_budget = (self.candidate_list_target() / 4).max(16);
        if self.minor_count >= refresh_budget {
            cands.clear();
        }
        let mut rebuilt = false;
        let result = loop {
            let mut best = None;
            cands.retain(|&j| {
                let Some((dir, d)) = self.eligibility(j) else {
                    return false;
                };
                keep_best(&mut best, (j, dir), d * d / self.weights[j]);
                true
            });
            if let Some((c, _)) = best {
                self.minor_count += 1;
                break Some(c);
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

    /// Post-pivot update of phase 2: expands the pivotal row `alpha = e_r B^{-1}
    /// A` from the row-wise matrix copy, updates every touched reduced cost
    /// exactly (`d_j -= (d_q/alpha_q) alpha_j`) and, in the same pass, the
    /// devex weights of the touched columns (with the usual reference-framework
    /// reset when the entering weight has grown too large).
    pub(super) fn update_incremental(&mut self, q: usize, r: usize, alpha_q: f64, out: usize) {
        let ratio = self.d[q] / alpha_q;
        let alpha = self.pivotal_row(r, Kernel::Reach);
        let piv2 = alpha_q * alpha_q;
        let devex = self
            .devex_entering_weight(q)
            .filter(|_| piv2 > 0.0)
            .map(|wq| (piv2, wq));
        self.update_reduced_costs(&alpha, q, out, ratio, devex);
        if let Some((piv2, wq)) = devex {
            self.set_leaving_weight(out, piv2, wq);
        }
        self.alpha_buf = alpha;
    }

    /// Forrest–Goldfarb devex update after a basis change with entering `q`,
    /// pivotal row `r` and pivot element `alpha_q`: weights of the candidate-list
    /// columns (partial devex) and of the leaving variable are refreshed from the
    /// pivotal row; the framework resets once the entering weight grows too large.
    pub(super) fn update_devex_weights(&mut self, q: usize, r: usize, alpha_q: f64, out: usize) {
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
        self.set_leaving_weight(out, piv2, wq);
    }

    /// Moves the reduced costs across a basis change with entering `q` and
    /// leaving `leaving_var`, shared by phase 2 and the dual loop: every other
    /// column of the pivotal row `alpha` (nonbasic columns only, see `a_rows`)
    /// shifts by `-step * alpha_j`, `q` turns basic and the leaving variable
    /// takes `-step`. `devex`, the primal's `(alpha_q², w_q)`, bumps the
    /// touched columns' reference weights in the same pass.
    pub(super) fn update_reduced_costs(
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

    /// Whether the current basis prices dual-feasible against the *real*
    /// (phase-2) objective: no nonbasic column is eligible to enter. Refreshes
    /// the incremental reduced-cost array as a side effect, so a subsequent
    /// dual phase starts from exact `d`.
    pub(super) fn dual_feasible(&mut self) -> bool {
        self.refresh_reduced_costs();
        (0..self.ntotal).all(|j| self.eligibility_from(j, self.d[j], TOL).is_none())
    }

    /// Leaving-row selection of the dual phase: the basic position with the
    /// largest steepest-edge merit `violation² / weight` (smallest infeasible
    /// basic variable index under Bland's rule), or `None` when every basic
    /// value is within its bounds — primal feasible, and since the dual phase
    /// maintains dual feasibility, optimal. The returned violation is signed:
    /// positive above the upper bound, negative below the lower.
    pub(super) fn dual_select_row(&self) -> Option<(usize, f64)> {
        let mut best = None;
        for (pos, &j) in self.basis.iter().enumerate() {
            let viol = self.violation(j);
            if viol == 0.0 {
                continue;
            }
            let merit = if self.use_bland {
                -(j as f64)
            } else {
                viol * viol / self.row_weights[pos]
            };
            keep_best(&mut best, (pos, viol), merit);
        }
        best.map(|(c, _)| c)
    }

    /// Exact dual steepest-edge weight update (Forrest–Goldfarb) after a dual
    /// pivot on row `r` with the FTRANed entering column `w` in `col_buf`
    /// (basis-position space) and `rho = e_r B^{-1}` in `row_buf`.
    /// `kappa = ||rho||²` is the *exact* weight of the
    /// pivotal row — free, since the dual iteration BTRANs `rho`
    /// anyway — which makes the recurrence self-correcting: whatever drift a
    /// row's weight accumulated is replaced by the true norm the moment it
    /// pivots. `tau = B^{-1} rho` carries the cross terms. Weights are floored
    /// to keep cancellation from turning them non-positive.
    pub(super) fn update_dual_row_weights(&mut self, r: usize, w_r: f64, kappa: f64) {
        const FLOOR: f64 = 1e-4;
        // tau is FTRANed in place over the rho buffer (dead once the pivotal
        // row has been expanded).
        let mut tau = std::mem::take(&mut self.row_buf);
        self.lu
            .ftran_sparse(Kernel::Adaptive, &mut tau, &mut self.lu_scratch);
        let piv2 = w_r * w_r;
        if piv2 == 0.0 {
            self.row_buf = tau;
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
        self.row_buf = tau;
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
    pub(super) fn install_dual_perturbation(&mut self) {
        let base = TOL * 1e2 * (1.0 + self.sf.obj.iter().fold(0.0f64, |m, c| m.max(c.abs())));
        self.perturb.clear();
        self.perturb.resize(self.ntotal, 0.0);
        for j in 0..self.ntotal {
            let eps = base * (1.0 + 64.0 * Self::phase1_jitter(j));
            match self.moves(j) {
                (true, false) => self.perturb[j] = eps,
                (false, true) => self.perturb[j] = -eps,
                _ => {}
            }
        }
        self.refresh_reduced_costs();
    }
}
