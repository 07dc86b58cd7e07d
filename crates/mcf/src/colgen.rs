//! The column-generation engine of this crate: one restricted **path master**
//! and the **round loop** over it, plus the option/statistics surface.
//!
//! Two formulations generate columns — [`crate::pmcf`] (path-MCF over the
//! fabric) and the demand-indexed time-expanded master of [`crate::tscolgen`],
//! which serves both the nominal tsMCF solve and the mid-run re-planning of
//! [`crate::residual`] — and both are the same kind of LP: path columns over a
//! graph (the fabric, or its time expansion), one capacity row per arc, one
//! convexity row per owner (commodity or demand). What they share is written
//! once, in the crate-private `PathMaster`: the arc→row map, the
//! dual→arc-weight and convexity-dual slices, the per-source Dijkstra pricing
//! sweep with its `seen` check, the path→column lowering, and each column's
//! `(owner, path)`. A solver supplies only what differs — the graph, each
//! source's start node and each owner's terminus, its own rows and structural
//! columns and extraction, and two closures handed to the round loop (tsMCF's
//! detour splice of a priced path, pMCF's objective sign). Each master is
//! seeded with one hop-shortest path per owner (for [`crate::tscolgen`] its
//! earliest-arrival time expansion; [`crate::residual`] adds its warm seeds) —
//! pricing provably closes any gap that seed leaves. A new pricing or row rule
//! lands in the path master, for every solver: the orbit fold did. A master
//! folded by a group of automorphisms has one capacity row per arc orbit and
//! one owner per commodity orbit, with columns, weights and violations scaled
//! by the orbit sizes; pMCF folds by the fabric's group ([`crate::pmcf`],
//! *The orbit fold*), the time-expanded master by the trivial group, which
//! builds the unfolded master bit for bit.
//!
//! The round loop, `run_colgen`, owns
//!
//! * the master re-solve / dual-extraction / pricing-sweep round structure,
//! * dual stabilization ([`Stabilization`]) and the misprice-collapse resweep,
//! * the drift-based partial-pricing tracker and the certificate resweep of
//!   skipped sources,
//! * the serial pricing sweep over the sources, in source-index order (see
//!   *Determinism* below),
//! * column-pool aging ([`ColGenOptions::purge_nonbasic_after`]),
//! * the deterministic sort/record of candidates and all per-round
//!   statistics ([`ColGenRound`], [`ColGenStats`]).
//!
//! # The certificate invariant
//!
//! A colgen run may terminate with [`ColGenStats::proved_optimal`] **only on
//! the strength of a full sweep at the master's raw, unsmoothed duals in which
//! every source was actually priced and no improving column was found.** This
//! is stated here once and enforced in one place (the driver); the two
//! mechanisms that make intermediate rounds cheaper both defer to it:
//!
//! * under [`Stabilization::Smoothing`] a no-candidate sweep at smoothed duals
//!   is a *misprice*, not a proof — the driver collapses the stability center
//!   onto the raw duals and re-prices every source unsmoothed;
//! * under partial pricing a round that would otherwise terminate while
//!   sources are being skipped re-prices all skipped sources first.
//!
//! A round appends every candidate it found, and the certificate is that list
//! coming back empty at a pricing tolerance of [`PRICING_TOLERANCE`]. Column
//! purging cannot weaken the certificate: a column that is *in* the master has
//! non-negative reduced cost at the master's optimum, so re-pricing a purged
//! path at the raw duals of a terminating round cannot find it violating.
//!
//! # Determinism
//!
//! The pricing sweep is a plain loop over the sources in source-index order
//! (pricing is under 0.5% of every measured colgen wall — the master is the
//! cost — so there is nothing to fan out), followed by the
//! `(violation desc, owner asc)` sort. Each owner is priced from exactly one
//! source, so an owner contributes at most one candidate per sweep and every
//! sort key is unique: the rounds of a run are a pure function of the instance
//! and the options — same columns, same objective trajectory, same
//! certificate, run after run and machine after machine.
//!
//! # Dual stabilization
//!
//! On degenerate masters (the time-expanded LPs especially) the duals of
//! consecutive restricted-master optima oscillate wildly between extreme
//! vertices of the optimal face, so each pricing round chases a different
//! corner and generates columns that the next round's duals disavow. Wentges
//! smoothing prices at a convex combination of a *stability center* and the
//! fresh duals,
//!
//! ```text
//! ŷ = α · center + (1 − α) · y,      center' = ŷ
//! ```
//!
//! which damps the oscillation (and, as a side effect, shrinks the per-round
//! dual drift that partial pricing accumulates — stabilization is what makes
//! the drift-based source skip actually fire). Smoothing never weakens the
//! optimality certificate: a sweep at smoothed duals that finds no improving
//! column is a *misprice*, not a proof, so the driver collapses the center onto
//! the true duals and re-prices everything unsmoothed before terminating.

use std::collections::HashSet;
use std::time::Instant;

use a2a_lp::sparse::SparseVec;
use a2a_lp::{BasisStatus, NewColumn, Solver, StandardSolution, INF};
use a2a_topology::{paths, EdgeId, NodeId, Path, Topology};

use crate::types::{McfError, McfResult};

/// Reduced-cost tolerance of the pricing test: a path improves when its
/// dual-weighted length is below its owner's convexity dual minus this.
pub const PRICING_TOLERANCE: f64 = 1e-7;

/// Dual stabilization applied to the pricing duals of a colgen run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Stabilization {
    /// Price at the master's raw duals (no stabilization).
    #[default]
    None,
    /// Wentges smoothing: price at `α · center + (1 − α) · y` where the center
    /// follows the smoothed point. `alpha` in `[0, 1)`; higher damps harder.
    /// Termination is unaffected — a no-candidate sweep at smoothed duals
    /// forces an unsmoothed full re-price before the certificate is declared.
    Smoothing {
        /// Weight of the stability center in the smoothed duals.
        alpha: f64,
    },
}

/// Options shared by the column-generation solvers
/// ([`crate::pmcf::solve_path_mcf_colgen_among`],
/// [`crate::tscolgen::solve_tsmcf_colgen_among_with`]).
#[derive(Debug, Clone)]
pub struct ColGenOptions {
    /// Hard cap on master-solve/pricing rounds. When the cap is hit the best
    /// restricted solution is returned with
    /// [`ColGenStats::proved_optimal`]` == false`.
    pub max_rounds: usize,
    /// Partial pricing: skip re-pricing a source whose relevant duals (the
    /// global arc duals plus its own commodities' convexity duals) have drifted
    /// less than this tolerance — accumulated — since the round it was last
    /// priced, provided that pricing found no improving path then. `None`
    /// re-prices every source every round. The optimality certificate is
    /// unaffected: a round that would otherwise terminate while sources are
    /// being skipped re-prices them all before declaring optimality.
    pub partial_pricing: Option<f64>,
    /// Dual stabilization of the pricing duals (see [`Stabilization`]).
    pub stabilization: Stabilization,
    /// Column-pool aging: a master column whose weight has been (numerically)
    /// zero for this many consecutive rounds is dropped from the driver's
    /// `seen` bookkeeping, so pricing may regenerate the path later if the
    /// duals swing back — long runs stop pinning every column they ever
    /// added. `None` (the default) never purges. A purged column that is
    /// nonbasic at the round's optimum is also *deactivated* in the master
    /// ([`Solver::deactivate_columns`] bound-fixes it to zero), so the simplex
    /// stops pricing it; a re-priced purged path re-enters as a fresh column.
    /// Purged columns that happen to sit in the basis (degenerate, at zero
    /// weight) only leave the `seen` bookkeeping.
    pub purge_nonbasic_after: Option<usize>,
}

impl Default for ColGenOptions {
    /// Stabilized partial pricing: mild Wentges smoothing (`α = 0.1`) with a
    /// loose drift skip tolerance (`1e-1`). Smoothing is what makes the
    /// drift-based skip fire (module docs), so the two ship together; every
    /// benchmarked workload reaches the same certified optimum with fewer
    /// priced sources per round than the old unsmoothed `1e-7` default.
    /// [`ColGenOptions::plain`] restores the raw-dual configuration for
    /// equivalence suites that pin the unstabilized trajectory.
    fn default() -> Self {
        Self {
            max_rounds: 200,
            partial_pricing: Some(1e-1),
            stabilization: Stabilization::Smoothing { alpha: 0.1 },
            purge_nonbasic_after: None,
        }
    }
}

impl ColGenOptions {
    /// Raw-dual pricing: no smoothing, and a drift skip tolerance so tight
    /// (`1e-7`) that partial pricing effectively re-prices every source every
    /// round. This was the default before stabilization became standard; the
    /// equivalence suites keep using it to pin the unstabilized trajectory.
    pub fn plain() -> Self {
        Self {
            partial_pricing: Some(1e-7),
            stabilization: Stabilization::None,
            ..Self::default()
        }
    }

    /// The default options with Wentges smoothing hardened to `α = 0.5` — the
    /// recommended configuration for the degenerate time-expanded masters.
    pub fn stabilized() -> Self {
        Self {
            stabilization: Stabilization::Smoothing { alpha: 0.5 },
            ..Self::default()
        }
    }

    /// Validates the option fields shared by every colgen solver, so entry
    /// points fail with [`crate::types::McfError::BadArgument`]-style errors
    /// instead of panicking mid-solve. Returns a description of the first
    /// problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.max_rounds == 0 {
            return Err("colgen needs max_rounds >= 1".into());
        }
        if let Stabilization::Smoothing { alpha } = self.stabilization {
            if !(0.0..1.0).contains(&alpha) {
                return Err(format!("smoothing weight must be in [0, 1), got {alpha}"));
            }
        }
        if let Some(skip) = self.partial_pricing {
            if skip.is_nan() || skip < 0.0 {
                return Err(format!(
                    "partial-pricing drift tolerance must be non-negative, got {skip}"
                ));
            }
        }
        if self.purge_nonbasic_after == Some(0) {
            return Err(
                "purge_nonbasic_after must be at least 1 (a column cannot be \
                 nonbasic for zero rounds; None disables purging)"
                    .into(),
            );
        }
        Ok(())
    }
}

/// Per-round measurements of a column-generation solve.
#[derive(Debug, Clone)]
pub struct ColGenRound {
    /// Columns in the restricted master when the round's solve started.
    pub columns_in_master: usize,
    /// Columns appended after pricing (0 on the terminating round).
    pub columns_added: usize,
    /// Wall time of the master (re)solve.
    pub master_wall_secs: f64,
    /// Wall time of dual extraction plus the per-source Dijkstra pricing sweep.
    pub pricing_wall_secs: f64,
    /// Simplex iterations of the master solve this round.
    pub master_iterations: usize,
    /// Basis changes of the master solve this round.
    pub master_pivots: usize,
    /// Objective-level value of the restricted master after this round's solve
    /// (concurrent flow `F` for pMCF, total utilization `Σ_t U_t` for tsMCF).
    pub flow_value: f64,
    /// Largest pricing violation found (`convexity dual - cheapest path cost`
    /// over the *new* candidate paths, under the duals the sweep priced at);
    /// `<= PRICING_TOLERANCE` on the final round of a proven-optimal run.
    pub max_violation: f64,
    /// Sources whose Dijkstra pricing sweep was skipped by partial pricing this
    /// round (0 when partial pricing is disabled, and 0 on any round that forced
    /// a full re-price to establish the optimality certificate).
    pub sources_skipped: usize,
    /// Columns dropped from the `seen` bookkeeping by pool aging this round
    /// (0 unless [`ColGenOptions::purge_nonbasic_after`] is set).
    pub columns_purged: usize,
    /// True when this round's no-candidate sweep at smoothed duals had to be
    /// redone at the raw duals (the round contributed to
    /// [`ColGenStats::misprices`]).
    pub misprice: bool,
}

/// Aggregate timing/progress statistics of a column-generation solve.
#[derive(Debug, Clone)]
pub struct ColGenStats {
    /// One entry per master-solve/pricing round, in order.
    pub rounds: Vec<ColGenRound>,
    /// True when the run terminated with the optimality certificate: no
    /// commodity has a column whose dual-weighted cost is below its convexity
    /// dual minus [`PRICING_TOLERANCE`], established by a full sweep at the
    /// master's *raw* duals — i.e. the restricted master's optimum is the
    /// optimum of the unrestricted formulation.
    pub proved_optimal: bool,
    /// Columns the master was seeded with.
    pub seed_columns: usize,
    /// Columns in the master at termination.
    pub total_columns: usize,
    /// Pricing sweeps that found no candidate at *smoothed* duals and had to be
    /// redone at the raw duals (0 when stabilization is off). Each misprice
    /// resets the stability center.
    pub misprices: usize,
}

impl ColGenStats {
    /// An empty statistics block for a master seeded with `seed_columns`.
    pub fn new(seed_columns: usize) -> Self {
        Self {
            rounds: Vec::new(),
            proved_optimal: false,
            seed_columns,
            total_columns: seed_columns,
            misprices: 0,
        }
    }

    /// Number of master-solve/pricing rounds performed.
    pub fn num_rounds(&self) -> usize {
        self.rounds.len()
    }

    /// Total master simplex iterations across all rounds.
    pub fn total_master_iterations(&self) -> usize {
        self.rounds.iter().map(|r| r.master_iterations).sum()
    }

    /// Total source-pricing sweeps skipped by partial pricing across all rounds.
    pub fn total_sources_skipped(&self) -> usize {
        self.rounds.iter().map(|r| r.sources_skipped).sum()
    }

    /// Total wall time of the master (re)solves across all rounds.
    pub fn total_master_wall_secs(&self) -> f64 {
        self.rounds.iter().map(|r| r.master_wall_secs).sum()
    }

    /// Total wall time of dual extraction plus pricing across all rounds.
    pub fn total_pricing_wall_secs(&self) -> f64 {
        self.rounds.iter().map(|r| r.pricing_wall_secs).sum()
    }

    /// Total columns dropped from the `seen` bookkeeping by pool aging.
    pub fn total_columns_purged(&self) -> usize {
        self.rounds.iter().map(|r| r.columns_purged).sum()
    }
}

/// The Wentges-smoothing stability center of a colgen run.
///
/// Driver protocol per round: call [`DualStabilizer::pricing_duals`] with the
/// master's raw duals and price at the returned vector. If the sweep finds no
/// candidate and the returned `smoothed` flag was true, call
/// [`DualStabilizer::collapse`] and re-price everything at the raw duals — only
/// that sweep can certify optimality.
#[derive(Debug, Clone)]
struct DualStabilizer {
    alpha: f64,
    center: Vec<f64>,
}

impl DualStabilizer {
    /// A stabilizer for the given policy (inactive for [`Stabilization::None`]).
    ///
    /// # Panics
    /// Panics if a smoothing weight is outside `[0, 1)`.
    fn new(stab: Stabilization) -> Self {
        let alpha = match stab {
            Stabilization::None => 0.0,
            Stabilization::Smoothing { alpha } => {
                assert!(
                    (0.0..1.0).contains(&alpha),
                    "smoothing weight must be in [0, 1), got {alpha}"
                );
                alpha
            }
        };
        Self {
            alpha,
            center: Vec::new(),
        }
    }

    /// True when the stabilizer damps at all.
    fn is_active(&self) -> bool {
        self.alpha > 0.0
    }

    /// The duals to price at this round, updating the stability center to the
    /// smoothed point. Returns `(duals, smoothed)` where `smoothed` says the
    /// result differs from `y` (so a no-candidate sweep is a misprice, not a
    /// certificate). The first round anchors the center at `y` unsmoothed.
    fn pricing_duals(&mut self, y: &[f64]) -> (Vec<f64>, bool) {
        if !self.is_active() || self.center.len() != y.len() {
            // Inactive, first round, or the master grew rows (it never does in
            // the current solvers — columns grow, rows are fixed): anchor here.
            self.center = y.to_vec();
            return (y.to_vec(), false);
        }
        let mut smoothed = Vec::with_capacity(y.len());
        let mut differs = false;
        for (c, &v) in self.center.iter().zip(y) {
            let s = self.alpha * c + (1.0 - self.alpha) * v;
            if (s - v).abs() > 1e-12 * (1.0 + v.abs()) {
                differs = true;
            }
            smoothed.push(s);
        }
        self.center.copy_from_slice(&smoothed);
        (smoothed, differs)
    }

    /// Collapses the center onto the raw duals after a misprice, so the
    /// certificate sweep (and the next round) price unsmoothed from here.
    fn collapse(&mut self, y: &[f64]) {
        self.center.clear();
        self.center.extend_from_slice(y);
    }
}

/// Drift-based partial-pricing tracker shared by the colgen solvers.
///
/// A column uses each priced arc at most once, so an owner `K`'s pricing
/// violation `μ_K − |K| · dist` moves by at most `|K|` times the L1 norm of
/// the arc-weight drift plus its own convexity-dual drift (`|K| = 1` unless
/// the master is folded). Accumulating exactly that bound per source since its
/// last sweep bounds a skipped source's largest possible violation by
/// `PRICING_TOLERANCE + skip tolerance`; the optimality certificate never
/// relies on it (the terminating round re-prices every skipped source). Under
/// [`Stabilization::Smoothing`] the tracker runs on the *smoothed* duals — the
/// vector pricing actually uses — which is precisely why stabilization makes
/// the skip fire more often.
#[derive(Debug, Clone)]
struct PartialPricing {
    tol: Option<f64>,
    acc_shift: Vec<f64>,
    found_last: Vec<bool>,
    prev_weights: Vec<f64>,
    prev_mu: Vec<f64>,
}

impl PartialPricing {
    /// A tracker over `nsrc` pricing sources; `tol` of `None` disables skipping
    /// (every `should_skip` is false).
    fn new(tol: Option<f64>, nsrc: usize) -> Self {
        Self {
            tol,
            acc_shift: vec![f64::INFINITY; nsrc],
            found_last: vec![true; nsrc],
            prev_weights: Vec::new(),
            prev_mu: Vec::new(),
        }
    }

    /// Accumulates this round's dual drift: `weights` are the pricing arc
    /// weights, `mu` the per-owner convexity duals, `owner_size[k]` the size
    /// `|K|` of owner `k`'s orbit, and `owners_of_source[si]` lists the owners
    /// priced from source `si`. Call once per round before the sweep, with the
    /// same duals the sweep prices at.
    fn accumulate(
        &mut self,
        weights: &[f64],
        mu: &[f64],
        owner_size: &[f64],
        owners_of_source: &[Vec<usize>],
    ) {
        if self.tol.is_some() && self.prev_weights.len() == weights.len() {
            let weight_shift: f64 = weights
                .iter()
                .zip(&self.prev_weights)
                .map(|(a, b)| (a - b).abs())
                .sum();
            for (si, ks) in owners_of_source.iter().enumerate() {
                // Rounding is monotone, so at `|K| = 1` this is the weight
                // drift plus the largest convexity drift, to the bit.
                let shift = ks.iter().fold(weight_shift, |acc, &k| {
                    acc.max(owner_size[k] * weight_shift + (mu[k] - self.prev_mu[k]).abs())
                });
                self.acc_shift[si] += shift;
            }
        }
        self.prev_weights.clear();
        self.prev_weights.extend_from_slice(weights);
        self.prev_mu.clear();
        self.prev_mu.extend_from_slice(mu);
    }

    /// True if source `si` may be skipped this round: its accumulated drift is
    /// under the tolerance and its last sweep found nothing.
    fn should_skip(&self, si: usize) -> bool {
        match self.tol {
            Some(tol) => self.acc_shift[si] <= tol && !self.found_last[si],
            None => false,
        }
    }

    /// Records that source `si` was priced this round and whether the sweep
    /// produced a candidate.
    fn mark_priced(&mut self, si: usize, found: bool) {
        self.found_last[si] = found;
        self.acc_shift[si] = 0.0;
    }
}

/// One improving column found by pricing: its violation
/// `μ_owner − dual path cost`, the owner it belongs to, and the priced path.
struct Candidate {
    /// `μ_owner − cost` under the duals the sweep priced at;
    /// `> PRICING_TOLERANCE`.
    violation: f64,
    owner: usize,
    /// Owners see at most one candidate per sweep, so `(violation, owner)`
    /// sort keys are unique — the determinism anchor.
    path: Path,
}

/// How a path master folds its rows by a group `H` of automorphisms of the
/// priced graph: the `H`-orbit of every arc, orbits numbered by their first
/// arc, and the size `|K|` of every owner's orbit. [`Fold::trivial`] — every
/// arc and every owner its own orbit — builds the unfolded master.
pub(crate) struct Fold {
    /// Orbit of each arc of the priced graph.
    pub(crate) arc_orbit: Vec<usize>,
    /// `|K|` of each owner's orbit.
    pub(crate) owner_size: Vec<f64>,
}

impl Fold {
    /// The fold by the trivial group: `graph`'s arcs and `owners` owners, each
    /// alone in its orbit.
    pub(crate) fn trivial(graph: &Topology, owners: usize) -> Self {
        Self {
            arc_orbit: (0..graph.num_edges()).collect(),
            owner_size: vec![1.0; owners],
        }
    }
}

/// The restricted path master every colgen solver of this crate prices
/// through: path-MCF over the fabric, the time-expanded master over its time
/// expansion. It owns what does not depend on the formulation:
///
/// * **rows** — one capacity row per orbit `A` of finite-capacity arcs of the
///   priced graph (a time expansion's holding arcs have infinite capacity),
///   in order of the orbits' first arcs, then one convexity row per owner;
/// * **dual weights** — arc weights `w_a = max(0, −y_A) / |A|` for `a ∈ A`
///   (capacity-row duals are non-positive at a minimize optimum;
///   uncapacitated arcs are free) and convexity duals `μ_K = y_{convexity K}`;
/// * **pricing** — one Dijkstra tree per source from its start node; each
///   owner `K` priced from it, in stored order, improves when
///   `μ_K − |K| · dist(terminus_K) > PRICING_TOLERANCE` and its (spliced)
///   path is not already in the master;
/// * **columns** — `|K| · c_A(p) / |A|` on row `A`, where `c_A(p)` counts
///   the arcs of `A` that path `p` crosses (one entry per row, in order of
///   first crossing), then a `1` on its owner's convexity row; and each
///   column's `(owner, path)`, stored once.
///
/// An owner `K` stands for the orbit of one commodity (or demand) under the
/// [`Fold`]'s group, and a column for that path's images averaged over the
/// group: by the group's invariance every arc of `A` carries `1/|A|` of the
/// orbit's load on `A`. Under the trivial fold `|K| = |A| = 1`, every
/// multiply and divide above is by `1.0` and exact, and the rows, columns,
/// weights and candidate order are the unfolded master's to the bit.
///
/// The caller supplies the graph, the sources' start nodes and the owners'
/// termini, the fold, the capacity rows' upper bounds, and builds its own
/// convexity-row bounds and structural columns (pMCF's `F`, the time-stepped
/// `U_t`s).
pub(crate) struct PathMaster<'g> {
    graph: &'g Topology,
    /// Capacity row of each arc of `graph`, `None` for an infinite capacity.
    arc_row: Vec<Option<usize>>,
    /// `|A|`: arcs of each capacity row's orbit.
    row_size: Vec<f64>,
    /// Start node of each pricing source.
    starts: Vec<NodeId>,
    /// Owners priced from each source, in pricing order. Sources partition
    /// the owners.
    owners_of_source: Vec<Vec<usize>>,
    /// Node of `graph` each owner's paths end at.
    terminus: Vec<NodeId>,
    /// `|K|` of each owner's orbit.
    owner_size: Vec<f64>,
    /// Paths of each owner in the master (minus those pool aging purged).
    seen: Vec<HashSet<Path>>,
    /// `(owner, path)` of path column `j`, in append order.
    columns: Vec<(usize, Path)>,
}

impl<'g> PathMaster<'g> {
    /// An empty master over `graph`, folded by `fold`; returns it with the
    /// capacity rows' bounds `[-INF, cap_row_upper(capacity)]`, to which the
    /// caller appends one convexity row per owner, in owner order.
    pub(crate) fn new(
        graph: &'g Topology,
        starts: Vec<NodeId>,
        owners_of_source: Vec<Vec<usize>>,
        terminus: Vec<NodeId>,
        fold: Fold,
        cap_row_upper: impl Fn(f64) -> f64,
    ) -> (Self, Vec<f64>, Vec<f64>) {
        debug_assert_eq!(fold.arc_orbit.len(), graph.num_edges());
        debug_assert_eq!(fold.owner_size.len(), terminus.len());
        let mut orbit_row: Vec<Option<usize>> = vec![None; graph.num_edges()];
        let mut arc_row = Vec::with_capacity(graph.num_edges());
        let mut row_size: Vec<f64> = Vec::new();
        let mut row_upper = Vec::new();
        for (edge, &orbit) in graph.edges().iter().zip(&fold.arc_orbit) {
            if edge.capacity.is_finite() {
                let r = *orbit_row[orbit].get_or_insert_with(|| {
                    row_upper.push(cap_row_upper(edge.capacity));
                    row_size.push(0.0);
                    row_upper.len() - 1
                });
                row_size[r] += 1.0;
                arc_row.push(Some(r));
            } else {
                arc_row.push(None);
            }
        }
        let ncap_rows = row_upper.len();
        let master = Self {
            graph,
            arc_row,
            row_size,
            starts,
            owners_of_source,
            seen: vec![HashSet::new(); terminus.len()],
            terminus,
            owner_size: fold.owner_size,
            columns: Vec::new(),
        };
        (master, vec![-INF; ncap_rows], row_upper)
    }

    /// Capacity row of arc `a`, `None` for an infinite-capacity arc.
    pub(crate) fn capacity_row(&self, a: EdgeId) -> Option<usize> {
        self.arc_row[a]
    }

    /// Convexity row of `owner`.
    pub(crate) fn convexity_row(&self, owner: usize) -> usize {
        self.row_size.len() + owner
    }

    /// Records `path` as the next path column of `owner` and returns its
    /// LP column, or `None` (recording nothing) when the master already has it.
    pub(crate) fn push_column(&mut self, owner: usize, path: Path) -> Option<SparseVec> {
        if !self.seen[owner].insert(path.clone()) {
            return None;
        }
        // `(row, c_A(p))` in order of first crossing.
        let mut entries: Vec<(usize, f64)> = Vec::with_capacity(path.hops() + 1);
        for (u, v) in path.links() {
            let a = self
                .graph
                .find_edge(u, v)
                .expect("master paths live in the priced graph");
            if let Some(r) = self.arc_row[a] {
                match entries.iter_mut().find(|(row, _)| *row == r) {
                    Some((_, crossings)) => *crossings += 1.0,
                    None => entries.push((r, 1.0)),
                }
            }
        }
        let size = self.owner_size[owner];
        for (r, coefficient) in &mut entries {
            *coefficient = size * *coefficient / self.row_size[*r];
        }
        entries.push((self.convexity_row(owner), 1.0));
        self.columns.push((owner, path));
        Some(SparseVec::from_entries(entries))
    }

    /// `(owner, path)` of every path column, in LP order.
    pub(crate) fn into_columns(self) -> Vec<(usize, Path)> {
        self.columns
    }

    /// Drops path column `j` from the `seen` bookkeeping, so pricing may
    /// regenerate it.
    fn forget(&mut self, j: usize) {
        let (owner, path) = &self.columns[j];
        self.seen[*owner].remove(path);
    }

    fn arc_weights(&self, y: &[f64]) -> Vec<f64> {
        self.arc_row
            .iter()
            .map(|r| r.map_or(0.0, |r| (-y[r]).max(0.0) / self.row_size[r]))
            .collect()
    }

    fn convexity_duals(&self, y: &[f64]) -> Vec<f64> {
        let ncap_rows = self.row_size.len();
        y[ncap_rows..ncap_rows + self.terminus.len()].to_vec()
    }

    /// Prices source `si` under `weights`/`mu`, pushing every improving path
    /// not already in the master onto `out`. `splice` rewrites a priced path
    /// before the `seen` check; it must not raise its cost.
    fn price_source(
        &self,
        si: usize,
        (weights, mu): (&[f64], &[f64]),
        splice: &impl Fn(Path) -> Path,
        out: &mut Vec<Candidate>,
    ) {
        let tree = paths::weighted_shortest_path_tree(self.graph, self.starts[si], weights);
        for &k in &self.owners_of_source[si] {
            let cost = tree
                .distance(self.terminus[k])
                .expect("every terminus is reachable from its source");
            let violation = mu[k] - self.owner_size[k] * cost;
            if violation > PRICING_TOLERANCE {
                let path = splice(
                    tree.path_to(self.terminus[k])
                        .expect("finite distance implies a path"),
                );
                // An in-master path has non-negative reduced cost at this
                // optimum, so skipping it cannot hide a violation.
                if !self.seen[k].contains(&path) {
                    out.push(Candidate {
                        violation,
                        owner: k,
                        path,
                    });
                }
            }
        }
    }
}

/// Column weight at or below which a master column counts as nonbasic for
/// pool aging (matches the extraction thresholds of the concrete solvers).
const PURGE_WEIGHT_TOL: f64 = 1e-9;

/// Pool-aging record of path column `j` (LP column `structural_cols + j`).
#[derive(Clone, Default)]
struct PoolAge {
    idle_rounds: usize,
    purged: bool,
}

/// Prices `sources`, in order, under the `(arc weights, convexity duals)`
/// pair, appending each source's candidates to `out`.
fn priced_sweep(
    master: &PathMaster<'_>,
    sources: &[usize],
    duals: (&[f64], &[f64]),
    splice: &impl Fn(Path) -> Path,
    partial: &mut PartialPricing,
    out: &mut Vec<Candidate>,
) {
    for &si in sources {
        let _obs = a2a_obs::span("colgen.price_source");
        let before = out.len();
        master.price_source(si, duals, splice, out);
        partial.mark_priced(si, out.len() > before);
    }
}

/// The column-generation round loop of every colgen solver in this crate.
/// See the module docs for the certificate invariant and the determinism
/// argument, and [`PathMaster`] for the pricing.
///
/// `solver` holds the restricted master with `structural_cols` non-path
/// columns first, then one column per path column already in `master` (the
/// seed), in order. `flow_value` maps the master's minimize-sense objective
/// to the reported flow value; `splice` rewrites each priced path (the
/// identity for pMCF). Returns the final master solution (terminating
/// round's optimum) and the statistics block; the caller extracts its
/// solution from the LP `x` and [`PathMaster::into_columns`].
pub(crate) fn run_colgen(
    solver: &mut Solver<'_>,
    master: &mut PathMaster<'_>,
    structural_cols: usize,
    options: &ColGenOptions,
    flow_value: impl Fn(f64) -> f64,
    splice: impl Fn(Path) -> Path,
) -> McfResult<(StandardSolution, ColGenStats)> {
    let nsrc = master.starts.len();
    let mut stats = ColGenStats::new(master.columns.len());
    let mut ages: Vec<PoolAge> = Vec::new();
    let mut stabilizer = DualStabilizer::new(options.stabilization);
    let mut partial = PartialPricing::new(options.partial_pricing, nsrc);
    loop {
        let _obs_round = a2a_obs::span("colgen.round");
        let t_master = Instant::now();
        let sol = {
            let _obs = a2a_obs::span("colgen.master");
            solver.reoptimize().map_err(McfError::from)?
        };
        let master_wall_secs = t_master.elapsed().as_secs_f64();
        let flow_value = flow_value(sol.objective);

        // Pool aging: a path column whose weight has been numerically zero
        // for `purge_nonbasic_after` consecutive master optima leaves the
        // `seen` bookkeeping, so pricing may regenerate it later, and — when
        // it is nonbasic at this optimum — is deactivated in the master
        // (bound-fixed to zero) so the simplex stops pricing it. Purging is
        // certificate-safe (module docs): an in-master column cannot violate
        // at the raw duals of the round that terminates the run, and a
        // deactivated column the duals swing back toward re-enters as a
        // fresh column rather than by reactivation.
        let mut columns_purged = 0usize;
        if let Some(age) = options.purge_nonbasic_after {
            ages.resize(master.columns.len(), PoolAge::default());
            let mut deactivate: Vec<usize> = Vec::new();
            for (j, entry) in ages.iter_mut().enumerate() {
                if entry.purged {
                    continue;
                }
                let col = structural_cols + j;
                if sol.x[col] > PURGE_WEIGHT_TOL {
                    entry.idle_rounds = 0;
                } else {
                    entry.idle_rounds += 1;
                    if entry.idle_rounds >= age {
                        entry.purged = true;
                        master.forget(j);
                        columns_purged += 1;
                        // A zero-weight column can still sit in the basis
                        // (degenerately); only nonbasic columns deactivate.
                        if sol.basis.statuses[col] != BasisStatus::Basic {
                            deactivate.push(col);
                        }
                    }
                }
            }
            solver
                .deactivate_columns(&deactivate)
                .map_err(McfError::from)?;
        }

        let t_pricing = Instant::now();
        let obs_pricing = a2a_obs::span("colgen.pricing");
        let y_raw = solver.current_duals();
        let (y, smoothed) = stabilizer.pricing_duals(&y_raw);
        let mut weights = master.arc_weights(&y);
        let mut mu = master.convexity_duals(&y);
        partial.accumulate(&weights, &mu, &master.owner_size, &master.owners_of_source);

        let mut to_price: Vec<usize> = Vec::with_capacity(nsrc);
        let mut skipped: Vec<usize> = Vec::new();
        for si in 0..nsrc {
            if partial.should_skip(si) {
                skipped.push(si);
            } else {
                to_price.push(si);
            }
        }
        let mut sources_skipped = skipped.len();
        let mut mispriced = false;
        let mut candidates: Vec<Candidate> = Vec::new();
        priced_sweep(
            master,
            &to_price,
            (&weights, &mu),
            &splice,
            &mut partial,
            &mut candidates,
        );
        if candidates.is_empty() && (smoothed || !skipped.is_empty()) {
            // The round is about to terminate, but the certificate must rest
            // on a full sweep at the raw duals (module docs): a no-candidate
            // sweep at smoothed duals is a misprice (collapse the stability
            // center and re-price everything), and partial pricing's deferred
            // sources must be re-priced either way.
            let resweep: Vec<usize> = if smoothed {
                stats.misprices += 1;
                mispriced = true;
                stabilizer.collapse(&y_raw);
                weights = master.arc_weights(&y_raw);
                mu = master.convexity_duals(&y_raw);
                partial.accumulate(&weights, &mu, &master.owner_size, &master.owners_of_source);
                (0..nsrc).collect()
            } else {
                skipped
            };
            priced_sweep(
                master,
                &resweep,
                (&weights, &mu),
                &splice,
                &mut partial,
                &mut candidates,
            );
            sources_skipped = 0;
        }
        drop(obs_pricing);
        let pricing_wall_secs = t_pricing.elapsed().as_secs_f64();

        // Most violating candidates first; the owner index breaks ties so the
        // round is deterministic.
        candidates.sort_by(|a, b| {
            b.violation
                .total_cmp(&a.violation)
                .then(a.owner.cmp(&b.owner))
        });
        let max_violation = candidates.first().map_or(0.0, |c| c.violation);
        let proved = candidates.is_empty();
        let capped = !proved && stats.rounds.len() + 1 >= options.max_rounds;

        stats.rounds.push(ColGenRound {
            columns_in_master: stats.total_columns,
            // Only columns actually appended count; a round that terminates
            // the loop (certificate or round cap) appends nothing.
            columns_added: if proved || capped {
                0
            } else {
                candidates.len()
            },
            master_wall_secs,
            pricing_wall_secs,
            master_iterations: sol.iterations,
            master_pivots: sol.pivots,
            flow_value,
            max_violation,
            sources_skipped,
            columns_purged,
            misprice: mispriced,
        });

        if proved {
            stats.proved_optimal = true;
            return Ok((sol, stats));
        }
        if capped {
            return Ok((sol, stats));
        }

        let new_cols: Vec<NewColumn> = candidates
            .into_iter()
            .map(|c| NewColumn {
                col: master
                    .push_column(c.owner, c.path)
                    .expect("pricing skips paths already in the master"),
                obj: 0.0,
                lower: 0.0,
                upper: INF,
            })
            .collect();
        solver.add_columns(&new_cols).map_err(McfError::from)?;
        stats.total_columns += new_cols.len();
    }
}

#[cfg(test)]
impl ColGenOptions {
    /// Numerically malformed option values every colgen entry point must
    /// reject: a NaN or negative partial-pricing drift tolerance.
    pub(crate) fn malformed_numeric_cases() -> Vec<Self> {
        let partial = |skip| Self {
            partial_pricing: Some(skip),
            ..Self::default()
        };
        vec![partial(f64::NAN), partial(-1.0)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stabilizer_none_passes_duals_through() {
        let mut st = DualStabilizer::new(Stabilization::None);
        assert!(!st.is_active());
        let (d, smoothed) = st.pricing_duals(&[1.0, -2.0]);
        assert_eq!(d, vec![1.0, -2.0]);
        assert!(!smoothed);
        let (d, smoothed) = st.pricing_duals(&[3.0, 4.0]);
        assert_eq!(d, vec![3.0, 4.0]);
        assert!(!smoothed);
    }

    #[test]
    fn smoothing_damps_dual_movement() {
        let mut st = DualStabilizer::new(Stabilization::Smoothing { alpha: 0.5 });
        // First round anchors the center.
        let (d0, s0) = st.pricing_duals(&[0.0, 0.0]);
        assert_eq!(d0, vec![0.0, 0.0]);
        assert!(!s0);
        // Second round: halfway between the center and the new duals.
        let (d1, s1) = st.pricing_duals(&[2.0, -2.0]);
        assert_eq!(d1, vec![1.0, -1.0]);
        assert!(s1);
        // The center followed the smoothed point.
        let (d2, s2) = st.pricing_duals(&[2.0, -2.0]);
        assert_eq!(d2, vec![1.5, -1.5]);
        assert!(s2);
        // Collapsing re-anchors: the next identical duals are unsmoothed.
        st.collapse(&[2.0, -2.0]);
        let (d3, s3) = st.pricing_duals(&[2.0, -2.0]);
        assert_eq!(d3, vec![2.0, -2.0]);
        assert!(!s3);
    }

    #[test]
    #[should_panic(expected = "smoothing weight")]
    fn smoothing_weight_of_one_is_rejected() {
        DualStabilizer::new(Stabilization::Smoothing { alpha: 1.0 });
    }

    #[test]
    fn partial_pricing_skips_only_quiet_found_nothing_sources() {
        let per_source = vec![vec![0usize], vec![1usize]];
        let mut pp = PartialPricing::new(Some(0.1), 2);
        // Before any sweep nothing may be skipped (infinite initial drift).
        assert!(!pp.should_skip(0) && !pp.should_skip(1));
        pp.accumulate(&[1.0, 1.0], &[0.5, 0.5], &[1.0, 1.0], &per_source);
        pp.mark_priced(0, false);
        pp.mark_priced(1, true);
        // Identical duals next round: source 0 (found nothing) skips, source 1
        // (found a candidate) does not.
        pp.accumulate(&[1.0, 1.0], &[0.5, 0.5], &[1.0, 1.0], &per_source);
        assert!(pp.should_skip(0));
        assert!(!pp.should_skip(1));
        // A large drift un-skips source 0.
        pp.accumulate(&[2.0, 1.0], &[0.5, 0.5], &[1.0, 1.0], &per_source);
        assert!(!pp.should_skip(0));
    }

    /// A folded owner standing for `|K|` commodities drifts `|K|` times as
    /// far under the same arc-weight change: here `0.05` for one commodity
    /// (skipped at `0.1`), `0.15` for an orbit of three (priced).
    #[test]
    fn partial_pricing_scales_weight_drift_by_orbit_size() {
        let per_source = vec![vec![0usize], vec![1usize]];
        let mut pp = PartialPricing::new(Some(0.1), 2);
        pp.accumulate(&[1.0, 1.0], &[0.5, 0.5], &[1.0, 3.0], &per_source);
        pp.mark_priced(0, false);
        pp.mark_priced(1, false);
        pp.accumulate(&[1.05, 1.0], &[0.5, 0.5], &[1.0, 3.0], &per_source);
        assert!(pp.should_skip(0));
        assert!(!pp.should_skip(1));
    }

    #[test]
    fn partial_pricing_disabled_never_skips() {
        let per_source = vec![vec![0usize]];
        let mut pp = PartialPricing::new(None, 1);
        pp.accumulate(&[1.0], &[0.0], &[1.0], &per_source);
        pp.mark_priced(0, false);
        pp.accumulate(&[1.0], &[0.0], &[1.0], &per_source);
        assert!(!pp.should_skip(0));
    }
}
