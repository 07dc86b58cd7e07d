//! Sparse LU factorization of simplex basis matrices, with Forrest–Tomlin updates.
//!
//! The factorization is a right-looking Markowitz-pivoted column algorithm. It
//! produces `P·B = L·U` with `L` unit lower triangular and `U` upper triangular,
//! both stored column-wise in *pivot-position* ("step") space, plus the row
//! permutation `P` and the pivot-order column permutation.
//!
//! A dense solve serves one-off work (basic values, bound flips):
//! [`LuFactorization::solve`] (`B x = b`, "ftran"); its transpose (`Bᵀ x = b`,
//! "btran") is kept in test builds as the reference the sparse BTRAN is checked
//! against. The per-pivot solves are [`LuFactorization::ftran_sparse`] /
//! [`LuFactorization::btran_sparse`], which take a sparse right-hand side and
//! run each of their triangular stages with one of two [`Kernel`]s.
//!
//! # Which kernel runs
//!
//! A triangular stage needs a processing order that respects the triangle.
//! The *reach* kernel finds one by a symbolic DFS from the right-hand side's
//! pattern and then touches only the positions that DFS reached — O(flops),
//! the right cost while operands are hypersparse (a unit vector against a
//! near-triangular basis; the median FTRAN result of a torus-4x4 decomposed
//! solve marks 19 of 304 rows).
//! The *in-order* kernel sweeps the stored triangular order itself, skipping
//! positions nothing has written to, with no symbolic pass — O(n) bookkeeping
//! plus the same flops, and no DFS. On the ~4.3k-row torus-8x8 decomposed
//! master none of the dual iteration's operands is hypersparse: `ρ = e_r B⁻¹`
//! carries 1,479 marked rows (34 %), the FTRANed entering column 2,079 (48 %,
//! of which only ~980 are numerically nonzero — the symbolic reach cannot see
//! the ±1 cancellations of a flow basis), and there the DFS costs as much as
//! the solve it prepares. [`Kernel::Adaptive`] therefore picks per stage, from
//! the right-hand side's density and a running average of that stage's result
//! density ([`IN_ORDER_DENSITY`]); the dual simplex asks for it, the primal
//! call sites ask for [`Kernel::Reach`] (see [`Kernel`] for why).
//!
//! The primal colgen masters are not hypersparse either — on the genkautz path
//! masters (~1.8k rows) the FTRANed entering column's reach marks all but a
//! handful of rows — and there the symbolic pass is over half of the solve:
//! timers around it on `pmcf-genkautz` put it at 2.82 s of the 5.20 s the
//! 80,000 FTRANs and BTRANs of two reps took (54 %), ~1,500 DFS nodes a solve.
//! Those call sites keep paying for it because the in-order sweep sums in a
//! different order and the primal pivot sequence is pinned bit for bit
//! ([`Kernel`]); what they no longer pay is the overhead around the same
//! operations. The DFS keeps its current frame in locals and gives childless
//! nodes no frame at all (same order; 1.98 s on the same run), and once it
//! has marked the whole reach the numeric pass writes the raw value slice
//! instead of testing a mark per update (same arithmetic) — together 5.20 →
//! 3.80 s for those 80,000 solves.
//!
//! # Finding the pivot
//!
//! [`LuFactorization::factorize`] peels singleton rows and columns off
//! worklists and falls back to a Markowitz search among the four active
//! columns with the fewest active rows. On the near-triangular decomposed
//! masters the fallback is rare; on the genkautz path masters, whose bump is
//! most of the basis, 61 % of all elimination steps take it. Those four
//! columns come out of count-bucketed bitsets (`CountBuckets`) in the same
//! `(count, index)` order a scan over every active column would produce, at
//! the cost of one bit move per count change instead of an O(active columns)
//! pass per step.
//!
//! # Forrest–Tomlin basis updates
//!
//! A simplex pivot replaces one basis column. Instead of appending a product-form
//! eta (whose FTRAN/BTRAN cost grows without bound until the next refactorization),
//! [`LuFactorization::replace_column`] performs the Forrest–Tomlin update: the
//! partial FTRAN result `w = R·L⁻¹·P·a` of the entering column becomes the new
//! column of `U` (a *spike*), the replaced pivot position moves to the end of the
//! triangular order, and the resulting row spike is eliminated against the rows
//! below it. The elimination multipliers are recorded as one *row eta* (`R` grows
//! by a factor `I − e_p mᵀ`), so fill is confined to the spike column — `U` stays
//! explicitly triangular and every later solve runs at factorization-quality cost.
//!
//! The update refuses to commit (returns `false`, demanding a fresh
//! factorization) when the new diagonal is too small relative to the spike — the
//! standard FT stability trigger — and callers should also refactorize once
//! [`LuFactorization::updates`] or [`LuFactorization::fill_exceeded`] report that
//! the accumulated row-eta file or fill outgrew the base factorization.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::error::{LpError, LpResult};
use crate::sparse::SparseScratch;

/// Pivot magnitudes below this threshold are considered singular.
pub const PIVOT_TOL: f64 = 1e-10;

/// A Forrest–Tomlin update rejects the new diagonal (and demands refactorization)
/// when it is smaller than this fraction of the largest spike magnitude.
const FT_STABILITY_TOL: f64 = 1e-9;

/// [`LuFactorization::fill_exceeded`] triggers once the stored factor nonzeros
/// outgrow this multiple of the base factorization's fill.
const FT_FILL_GROWTH_LIMIT: usize = 4;

// Observability taps: one relaxed-load branch each while tracing is off, so
// they can sit inside the solve kernels permanently.
static OBS_FT_UPDATES: a2a_obs::Counter = a2a_obs::Counter::new("lp.ft_updates");
static OBS_FT_REJECTS: a2a_obs::Counter = a2a_obs::Counter::new("lp.ft_update_rejects");
// Result *pattern* sizes of the sparse solves. Under the reach kernel the
// pattern is the structural reach — a superset of the numeric nonzeros (2,079
// marked vs ~980 nonzero on the torus-8x8 master's entering column); under the
// in-order kernel it is the positions a nonzero update actually wrote to.
static OBS_FTRAN_NNZ: a2a_obs::Histogram = a2a_obs::Histogram::new("lp.ftran_nnz");
static OBS_BTRAN_NNZ: a2a_obs::Histogram = a2a_obs::Histogram::new("lp.btran_nnz");
// Which kernel each triangular stage ran (one bump per stage, four per
// FTRAN + BTRAN pair): the answer to "why did FTRAN get cheaper".
static OBS_SOLVE_IN_ORDER: a2a_obs::Counter = a2a_obs::Counter::new("lp.solve_in_order");
static OBS_SOLVE_REACH: a2a_obs::Counter = a2a_obs::Counter::new("lp.solve_reach");

/// How the triangular stages of a sparse solve obtain their processing order
/// (module docs, "Which kernel runs").
///
/// The two kernels compute the same vector but sum each entry's updates in a
/// different order, so they differ in the last bits. The primal simplex's
/// pivot choices are pinned bit-for-bit by the colgen trajectory goldens, so
/// its call sites stay on [`Kernel::Reach`]; only the dual phase, whose
/// operands are the dense ones, runs [`Kernel::Adaptive`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Symbolic-reach order on every stage.
    Reach,
    /// The stored triangular order on every stage (benches and tests).
    InOrder,
    /// Per stage: in order once the right-hand side or the stage's running
    /// result density reaches [`IN_ORDER_DENSITY`], reach below it.
    Adaptive,
}

/// Density (pattern size ÷ dimension) from which [`Kernel::Adaptive`] runs a
/// stage in order — the Hall–McKinnon hypersparsity switch. Applied to the
/// stage's right-hand side and to the running average of its result density.
///
/// Where the crossover sits, from `crates/bench/benches/lu_solve_density.rs`
/// (µs per solve on the bench box; a 4,096-row network-like basis, fresh
/// factors; the `arc` right-hand side `e_head − e_mid` is an entering flow
/// column, half of whose reach cancels to exact zeros):
///
/// | result pattern | FTRAN `e_head` reach / in order | FTRAN `arc` reach / in order | BTRAN `e_tail` reach / in order |
/// |---|---|---|---|
/// | 0.1 % | 0.10 / 13.4 | 0.11 / 13.6 | 0.10 / 12.4 |
/// | 1 %   | 0.81 / 13.9 | 0.95 / 15.0 | 0.98 / 12.9 |
/// | 5 %   | 4.4 / 17.0  | 4.2 / 15.6  | 4.8 / 14.3  |
/// | 10 %  | 8.9 / 18.4  | 8.3 / 16.5  | 9.9 / 16.3  |
/// | 25 %  | 23.2 / 24.2 | 22.2 / 19.5 | 25.2 / 22.1 |
/// | 50 %  | 50.1 / 42.1 | 43.6 / 33.4 | 51.4 / 33.1 |
///
/// (With 60 Forrest–Tomlin etas both FTRAN columns gain the same ~10 µs of eta
/// gathers: 20.0 / 28.3 at 10 %, 37.8 / 38.0 at 25 %, 61.2 / 49.1 at 50 %.)
/// The in-order kernel's floor is its two O(n) sweeps, ~13 µs here; the reach
/// kernel's DFS costs about what its numeric pass does. So the reach kernel is
/// 2× ahead at 10 %, the two are level between 20 % (with cancellation) and
/// 25 %, and the sweep is 1.2–1.5× ahead at 50 %. The bench's factors are
/// paths; the torus-8x8 decomposed master's are deeper (its DFS revisits more
/// edges), and on it constants of 0.05, 0.10 and 0.15 measure alike while 0.25
/// costs 3–10 % more LU solve time. 0.10 is the sparse end of that bracket:
/// it gives the sweep every stage it wins, and where it does not the loss is
/// bounded by one O(n) pass (≤ 10 µs at this size).
pub const IN_ORDER_DENSITY: f64 = 0.10;

/// Weight of the newest result in a stage's running density average (a memory
/// of about twenty solves, so one odd right-hand side does not flip the kernel).
const DENSITY_AVERAGE_WEIGHT: f64 = 0.05;

/// The four triangular stages, indexing [`LuScratch`]'s density averages.
#[derive(Debug, Clone, Copy)]
enum Stage {
    FtranLower,
    FtranUpper,
    BtranUpper,
    BtranLower,
}

/// One Forrest–Tomlin row transformation `R = I − e_pos·mᵀ`: the elimination
/// multipliers that zeroed the row spike of one column replacement.
#[derive(Debug, Clone)]
struct FtEta {
    /// Step position whose row was eliminated (the replaced pivot, now last in
    /// the triangular order).
    pos: usize,
    /// `(step, multiplier)` pairs in elimination order.
    entries: Vec<(usize, f64)>,
}

/// Sparse LU factors of a square basis matrix.
#[derive(Debug, Clone)]
pub struct LuFactorization {
    n: usize,
    /// Column `k` of `L` (unit diagonal implicit): entries `(row_position, value)` with
    /// `row_position > k`.
    l_cols: Vec<Vec<(usize, f64)>>,
    /// Column `k` of `U` excluding the diagonal: entries `(row_position, value)` with
    /// `row_position < k`.
    u_cols: Vec<Vec<(usize, f64)>>,
    /// Diagonal of `U` in position space.
    u_diag: Vec<f64>,
    /// Row `k` of `L` (unit diagonal implicit): entries `(column, value)` with
    /// `column < k`. Transposed copy of `l_cols` used by the hypersparse BTRAN.
    l_rows: Vec<Vec<(usize, f64)>>,
    /// Row `k` of `U` excluding the diagonal: entries `(column, value)` with
    /// `column > k`. Transposed copy of `u_cols` used by the hypersparse BTRAN.
    u_rows: Vec<Vec<(usize, f64)>>,
    /// `row_perm[k]` = original row index that occupies pivot position `k`.
    row_perm: Vec<usize>,
    /// Inverse permutation: `row_pos[r]` = pivot position of original row `r`.
    row_pos: Vec<usize>,
    /// `col_perm[k]` = original column index factorized at step `k`. The pivot
    /// order is chosen by Markowitz threshold pivoting, which keeps fill near the
    /// basis nonzero count instead of the quadratic blow-up a fixed column order
    /// suffers on simplex bases.
    col_perm: Vec<usize>,
    /// Inverse permutation: `col_pos[j]` = factorization step of original column `j`.
    col_pos: Vec<usize>,
    /// Triangular order of the steps: `order[i]` = step processed `i`-th during
    /// back substitution. Identity after factorization; Forrest–Tomlin updates
    /// cyclically move the replaced step to the end.
    order: Vec<usize>,
    /// Inverse of `order`: `order_pos[k]` = rank of step `k` in the order.
    order_pos: Vec<usize>,
    /// Forrest–Tomlin row etas accumulated since factorization, in creation order.
    ft_etas: Vec<FtEta>,
    /// Column replacements committed since factorization (an update whose row
    /// spike was already empty records no eta but still counts).
    updates: usize,
    /// Nonzeros stored by the base factorization (fill-growth reference).
    base_nnz: usize,
    /// Running factor + eta nonzero count, maintained incrementally by
    /// [`Self::replace_column`] so the per-pivot fill check is O(1).
    current_nnz: usize,
}

/// Reusable state for the solve kernels: DFS visit flags, the topological order of
/// the reach set, staging buffers for permutations, and the per-stage density
/// averages [`Kernel::Adaptive`] decides from. Owning it outside the factorization
/// lets one allocation serve every pivot of a simplex run.
#[derive(Debug, Clone, Default)]
pub struct LuScratch {
    /// DFS visit flags, reset after every traversal via `order`.
    visited: Vec<bool>,
    /// Reverse-postorder (= topological order) of the reach set of the current phase.
    order: Vec<usize>,
    /// Explicit DFS stack: `(node, next_child_index)` frames of the ancestors
    /// of the node being expanded (whose own frame lives in locals).
    stack: Vec<(usize, usize)>,
    /// Staging buffer for sparse permutations.
    pairs: Vec<(usize, f64)>,
    /// Row-spike accumulator for Forrest–Tomlin eliminations.
    row_acc: SparseScratch,
    /// Forrest–Tomlin elimination queue: `(order rank, step)` of the row-spike
    /// entries still to eliminate. Empty between updates.
    ft_heap: BinaryHeap<Reverse<(usize, usize)>>,
    /// Multipliers of the row eta under construction; copied out at its exact
    /// size when the update commits.
    ft_entries: Vec<(usize, f64)>,
    /// Permuted work vector of the dense solves.
    dense: Vec<f64>,
    /// Running average of each [`Stage`]'s result density, updated after every
    /// stage whichever kernel ran it.
    density: [f64; 4],
    /// Stages run by the in-order and by the reach kernel since construction.
    #[cfg(test)]
    kernel_runs: [u64; 2],
    /// Differential tests only: run the reach kernel as it was before its DFS
    /// and its numeric pass were trimmed (`tests::symbolic_reach_reference`, then the
    /// mark-testing sweep body over the reach order).
    #[cfg(test)]
    reference_reach: bool,
}

impl LuScratch {
    /// Creates scratch state for dimension-`n` solves.
    pub fn new(n: usize) -> Self {
        Self {
            visited: vec![false; n],
            order: Vec::with_capacity(64),
            stack: Vec::with_capacity(64),
            pairs: Vec::with_capacity(64),
            row_acc: SparseScratch::new(n),
            ft_heap: BinaryHeap::new(),
            ft_entries: Vec::new(),
            dense: Vec::new(),
            density: [0.0; 4],
            #[cfg(test)]
            kernel_runs: [0; 2],
            #[cfg(test)]
            reference_reach: false,
        }
    }

    /// `(in-order, reach)` triangular stages run through this scratch so far.
    #[cfg(test)]
    fn kernel_runs(&self) -> (u64, u64) {
        (self.kernel_runs[0], self.kernel_runs[1])
    }

    /// Grows the scratch to dimension `n`.
    pub fn resize(&mut self, n: usize) {
        if n > self.visited.len() {
            self.visited.resize(n, false);
        }
        self.row_acc.resize(n);
    }

    /// Prepares one triangular stage over `adj` for right-hand side `b`: decides
    /// the kernel and, for the reach kernel, leaves the processing order in
    /// `self.order`. Returns true when the stage runs in order.
    fn begin_stage(
        &mut self,
        kernel: Kernel,
        stage: Stage,
        adj: &[Vec<(usize, f64)>],
        b: &mut SparseScratch,
    ) -> bool {
        let in_order = match kernel {
            Kernel::Reach => false,
            Kernel::InOrder => true,
            Kernel::Adaptive => {
                b.nnz() as f64 >= IN_ORDER_DENSITY * b.dim() as f64
                    || self.density[stage as usize] >= IN_ORDER_DENSITY
            }
        };
        #[cfg(test)]
        {
            self.kernel_runs[usize::from(!in_order)] += 1;
        }
        if in_order {
            OBS_SOLVE_IN_ORDER.incr();
        } else {
            OBS_SOLVE_REACH.incr();
            #[cfg(test)]
            if self.reference_reach {
                tests::symbolic_reach_reference(adj, b, self);
                return false;
            }
            symbolic_reach(adj, b, self);
        }
        in_order
    }

    /// Folds the finished stage's result density into its running average.
    fn end_stage(&mut self, stage: Stage, b: &SparseScratch) {
        let density = b.nnz() as f64 / b.dim().max(1) as f64;
        let avg = &mut self.density[stage as usize];
        *avg += DENSITY_AVERAGE_WEIGHT * (density - *avg);
    }
}

/// Depth-first symbolic pass: computes the topological order of every position
/// reachable from `b`'s pattern along `adj` edges, leaving it in `scratch.order`
/// (reverse postorder, i.e. process front-to-back). Marks the discovered fill
/// positions in `b` so its pattern covers the numeric result.
///
/// The frame being expanded (node, adjacency slice, child cursor) lives in
/// locals; the explicit stack is touched only to descend into a node that has
/// children of its own and to return from one, and a childless node is emitted
/// on discovery without ever getting a frame. Against the traversal that kept
/// every frame on the stack and re-read it at each step
/// (`symbolic_reach_reference` in the tests; same order), the `lu_reach` group
/// of `crates/bench/benches/lu_solve_density.rs` — both symbolic passes of one
/// FTRAN over a 4,096-row path basis with nothing to do numerically, µs per
/// solve, median (range) of three runs — and the pass itself inside a
/// `pmcf-genkautz` run (timers on a scratch copy, 80,000 solves of ~1,500
/// nodes; a real factor has the childless nodes a path has not):
///
/// | result pattern | every frame on the stack | frame in locals |
/// |---|---|---|
/// | 1 % | 0.74 (0.71 – 0.79) | 0.68 (0.66 – 0.85) |
/// | 10 % | 8.5 (7.8 – 8.7) | 7.2 (6.9 – 7.8) |
/// | 50 % | 46.9 (44.4 – 48.4) | 39.7 (38.8 – 40.4) |
/// | 100 % | 102 (94 – 102) | 82 (82 – 83) |
/// | `pmcf-genkautz`, all symbolic passes of two reps | 2.82 s | 1.98 s |
fn symbolic_reach(adj: &[Vec<(usize, f64)>], b: &mut SparseScratch, scratch: &mut LuScratch) {
    let LuScratch {
        visited,
        order,
        stack,
        ..
    } = scratch;
    order.clear();
    // The seeds are `b`'s pattern as it stands; the fill discovered below joins
    // the pattern only once the traversal is over.
    for &seed in b.pattern() {
        if visited[seed] {
            continue;
        }
        visited[seed] = true;
        let (mut node, mut edges, mut child) = (seed, adj[seed].as_slice(), 0);
        loop {
            if let Some(&(next, _)) = edges.get(child) {
                child += 1;
                if !visited[next] {
                    visited[next] = true;
                    let next_edges = adj[next].as_slice();
                    if next_edges.is_empty() {
                        order.push(next);
                    } else {
                        stack.push((node, child));
                        (node, edges, child) = (next, next_edges, 0);
                    }
                }
            } else {
                order.push(node);
                let Some((parent, cursor)) = stack.pop() else {
                    break;
                };
                (node, edges, child) = (parent, adj[parent].as_slice(), cursor);
            }
        }
    }
    order.reverse();
    for &i in order.iter() {
        visited[i] = false;
        b.mark(i);
    }
}

/// Numeric pass of one triangular stage over `adj` (columns of `L` / `U` for
/// FTRAN, rows for BTRAN, all in push form): every processed position `k` is
/// divided by `diag[k]` unless the triangle has a `UNIT` diagonal, and its value
/// is pushed along `adj[k]`.
///
/// `in_order` carries the stored triangular order when the stage sweeps it;
/// the sweep skips positions nothing has written to and marks the ones it
/// writes. Otherwise the stage follows `reach`, the order the symbolic pass
/// left — which has marked every position the stage can touch, so this variant
/// works on the raw value slice with no mark tests at all
/// ([`SparseScratch::values_mut`]). Both perform the same floating-point
/// operations on the positions they share, in the order they are given.
fn solve_stage<const UNIT: bool>(
    adj: &[Vec<(usize, f64)>],
    diag: &[f64],
    in_order: Option<impl Iterator<Item = usize>>,
    reach: &[usize],
    b: &mut SparseScratch,
) {
    if let Some(full) = in_order {
        for k in full {
            if !b.is_marked(k) {
                continue;
            }
            let mut xk = b.get(k);
            if !UNIT {
                xk /= diag[k];
                b.set(k, xk);
            }
            if xk == 0.0 {
                continue;
            }
            for &(pos, v) in &adj[k] {
                b.add(pos, -v * xk);
            }
        }
    } else {
        let values = b.values_mut();
        for &k in reach {
            let mut xk = values[k];
            if !UNIT {
                xk /= diag[k];
                values[k] = xk;
            }
            if xk == 0.0 {
                continue;
            }
            for &(pos, v) in &adj[k] {
                values[pos] += -v * xk;
            }
        }
    }
}

/// How many smallest-count columns the Markowitz pivot search examines per step.
const SEARCH_COLS: usize = 4;

/// The column side of the Markowitz search in [`LuFactorization::factorize`]:
/// the exact active-row count of every active column, and the lookup of the
/// active columns that come first in `(count, index)` order.
trait ColumnSearch {
    /// Every column active, with the given active-row counts.
    fn new(count: Vec<usize>) -> Self;

    /// Active-row count of column `c` (zero once it is deactivated).
    fn count(&self, c: usize) -> usize;

    /// Records a new active-row count for the active column `c`.
    fn set_count(&mut self, c: usize, count: usize);

    /// Takes the pivoted column `c` out of the search for good.
    fn deactivate(&mut self, c: usize);

    /// Writes the up to [`SEARCH_COLS`] active columns smallest in
    /// `(count, index)` order to the front of `cand`, in that order, and
    /// returns how many there are.
    fn candidates(&mut self, cand: &mut [usize; SEARCH_COLS]) -> usize;

    /// One active row fewer in column `c`; returns the new count.
    fn decrement(&mut self, c: usize) -> usize {
        let count = self.count(c) - 1;
        self.set_count(c, count);
        count
    }

    /// One active row more in column `c`.
    fn increment(&mut self, c: usize) {
        self.set_count(c, self.count(c) + 1);
    }
}

/// Active-row counts from which columns share the overflow bucket of
/// [`CountBuckets`]. Correctness does not depend on it (the overflow bucket is
/// searched exactly); it only has to sit above the counts the search actually
/// picks. Measured at candidate time on the four solve workloads of the repo
/// benchmark, the largest count of a *selected* column was 19 on
/// `pmcf-genkautz`, 22 on `extp-torus8x8` and 33 on `tsmcf-torus3x3x3` /
/// `replan-torus3x3x3` (the largest count of any active column: 2,029, 3,881
/// and 174 — the `F` column and the capacity rows' heavy hitters, which a
/// smallest-count search never reaches). At 32 the overflow bucket was
/// consulted by 0 of 440,000, 0 of 360,000, 24 of 80,000 and 48 of 220,000
/// lookups; at 16 by up to 3 %.
const BUCKET_CAP: usize = 32;

/// [`ColumnSearch`] by count-bucketed bitsets: one `n`-bit set per active-row
/// count below [`BUCKET_CAP`], and one overflow set for every count from the cap
/// up. Reading the sets out in bucket order, lowest bit first, yields the
/// active columns in `(count, index)` order — exactly below the cap; the few
/// slots still empty after that are filled from the overflow set by comparing
/// its members' exact counts, so the answer never depends on where the cap is.
/// A count change moves one bit; a lookup touches `n / 64` words per non-empty
/// bucket instead of every active column.
///
/// Against the scan it replaced (compact the active-column list, insertion-scan
/// all of it — `ActiveScan` in the tests), same pivots, same factors:
///
/// | | scan | buckets |
/// |---|---|---|
/// | `lu_factor/bump60%` of `crates/bench/benches/lu_solve_density.rs` (2,048 rows, banded 1,229-row bump, per factorization; three runs each) | 3.59 ms (3.56 – 4.45) | 2.00 ms (1.87 – 2.14) |
/// | `lp.lu_factor_s` of a traced `pmcf-genkautz` run (203 refactorizations per rep; two runs each) | 0.84, 0.87 s | 0.39, 0.34 s |
struct CountBuckets {
    /// Exact active-row count per column.
    count: Vec<usize>,
    /// `u64` words per bucket.
    words: usize,
    /// Bucket-major membership: bit `c` of bucket `k` is set iff column `c` is
    /// active and `min(count[c], BUCKET_CAP) == k`.
    bits: Vec<u64>,
    /// Columns per bucket, so a lookup skips the empty ones.
    members: [usize; BUCKET_CAP + 1],
}

impl CountBuckets {
    fn flip(&mut self, bucket: usize, c: usize) {
        self.bits[bucket * self.words + c / 64] ^= 1 << (c % 64);
    }

    /// Members of `bucket` in increasing index order.
    fn iter(&self, bucket: usize) -> impl Iterator<Item = usize> + '_ {
        let words = &self.bits[bucket * self.words..(bucket + 1) * self.words];
        words.iter().enumerate().flat_map(|(w, &word)| {
            std::iter::successors((word != 0).then_some(word), |&rest| {
                let rest = rest & (rest - 1);
                (rest != 0).then_some(rest)
            })
            .map(move |rest| w * 64 + rest.trailing_zeros() as usize)
        })
    }
}

impl ColumnSearch for CountBuckets {
    fn new(count: Vec<usize>) -> Self {
        let words = count.len().div_ceil(64);
        let mut buckets = Self {
            words,
            bits: vec![0; (BUCKET_CAP + 1) * words],
            members: [0; BUCKET_CAP + 1],
            count,
        };
        for c in 0..buckets.count.len() {
            let bucket = buckets.count[c].min(BUCKET_CAP);
            buckets.flip(bucket, c);
            buckets.members[bucket] += 1;
        }
        buckets
    }

    fn count(&self, c: usize) -> usize {
        self.count[c]
    }

    fn set_count(&mut self, c: usize, count: usize) {
        let (from, to) = (self.count[c].min(BUCKET_CAP), count.min(BUCKET_CAP));
        self.count[c] = count;
        if from != to {
            self.flip(from, c);
            self.flip(to, c);
            self.members[from] -= 1;
            self.members[to] += 1;
        }
    }

    fn deactivate(&mut self, c: usize) {
        let bucket = self.count[c].min(BUCKET_CAP);
        self.flip(bucket, c);
        self.members[bucket] -= 1;
        self.count[c] = 0;
    }

    fn candidates(&mut self, cand: &mut [usize; SEARCH_COLS]) -> usize {
        let mut len = 0;
        for bucket in (0..BUCKET_CAP).filter(|&k| self.members[k] > 0) {
            for c in self.iter(bucket) {
                cand[len] = c;
                len += 1;
                if len == SEARCH_COLS {
                    return len;
                }
            }
        }
        if self.members[BUCKET_CAP] > 0 {
            for c in self.iter(BUCKET_CAP) {
                insert_candidate(&self.count, cand, &mut len, c);
            }
        }
        len
    }
}

/// One step of the insertion scan that keeps `cand[..len]` the smallest columns
/// in `(count, index)` order among those offered so far, given that columns are
/// offered in increasing index order: `c` takes its place after every
/// candidate whose count does not exceed its own.
fn insert_candidate(count: &[usize], cand: &mut [usize; SEARCH_COLS], len: &mut usize, c: usize) {
    let cc = count[c];
    let mut k = (*len).min(SEARCH_COLS - 1);
    if *len < SEARCH_COLS {
        *len += 1;
    } else if count[cand[SEARCH_COLS - 1]] <= cc {
        return;
    }
    while k > 0 && count[cand[k - 1]] > cc {
        cand[k] = cand[k - 1];
        k -= 1;
    }
    cand[k] = c;
}

impl LuFactorization {
    /// Factorizes a square matrix given as `n` sparse columns, each an iterator of
    /// `(row, value)` entries with `row < n` — borrowed straight from wherever the
    /// caller keeps them (`cols.iter().map(SparseVec::iter)` for a slice).
    ///
    /// Returns an error if the matrix is (numerically) singular.
    pub fn factorize<C>(n: usize, columns: impl IntoIterator<Item = C>) -> LpResult<Self>
    where
        C: IntoIterator<Item = (usize, f64)>,
    {
        Self::factorize_with::<CountBuckets, C>(n, columns)
    }

    /// [`Self::factorize`] over a chosen candidate search (the tests run the
    /// scan that [`CountBuckets`] replaced through the same elimination).
    fn factorize_with<S, C>(n: usize, columns: impl IntoIterator<Item = C>) -> LpResult<Self>
    where
        S: ColumnSearch,
        C: IntoIterator<Item = (usize, f64)>,
    {
        let _obs = a2a_obs::span("lp.lu.factor");

        // Right-looking elimination with Markowitz pivoting: at every step pick the
        // eligible entry minimizing (row_len - 1) * (col_count - 1) among a few
        // smallest-count columns, subject to the threshold |a| >= 0.05 * colmax.
        // Singleton rows/columns score zero and peel off with no fill, so the
        // near-triangular majority of a simplex basis costs nothing and fill
        // concentrates in the small strongly-coupled bump.
        //
        // The active submatrix is stored row-major; `col_rows` is a lazily
        // maintained column index (stale ids are re-validated on use) and
        // `search` tracks the exact number of active rows per column.
        let mut rows: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
        let mut ncols = 0;
        for col in columns {
            assert!(ncols < n, "expected {n} columns, got more");
            for (r, v) in col {
                debug_assert!(r < n);
                rows[r].push((ncols, v));
            }
            ncols += 1;
        }
        assert_eq!(ncols, n, "expected {n} columns, got {ncols}");
        let mut col_rows: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut col_count = vec![0usize; n];
        for (i, row) in rows.iter().enumerate() {
            for &(c, _) in row {
                col_rows[c].push(i);
                col_count[c] += 1;
            }
        }
        let mut row_active = vec![true; n];

        let mut l_cols: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
        let mut u_diag = vec![0.0; n];
        let mut row_perm = vec![usize::MAX; n];
        let mut row_pos = vec![usize::MAX; n];
        let mut col_perm = vec![usize::MAX; n];
        let mut col_pos = vec![usize::MAX; n];
        // Pivot rows become rows of U; columns are remapped to positions at the end.
        let mut u_pivot_rows: Vec<Vec<(usize, f64)>> = Vec::with_capacity(n);

        // Dense merge workspace (indexed by column) and row-validation stamps.
        let mut work = vec![0.0f64; n];
        let mut in_row = vec![false; n];
        let mut row_mark = vec![0u32; n];
        let mut stamp = 0u32;

        /// Relative magnitude threshold for pivot eligibility.
        const THRESHOLD: f64 = 0.05;

        // Singleton worklists: simplex bases are dominated by columns/rows that
        // reach count one, and popping those directly (zero fill, no Markowitz
        // scan) makes the common path O(nnz). Entries are validated on pop.
        let mut sing_cols: Vec<usize> = (0..n).filter(|&c| col_count[c] == 1).collect();
        let mut sing_rows: Vec<usize> = (0..n).filter(|&r| rows[r].len() == 1).collect();
        // Smallest-count lookup for the Markowitz fallback; every count change
        // below goes through it. All columns start active.
        let mut search = S::new(col_count);
        // Per-candidate and per-eliminated-row staging, reused across steps.
        let mut valid: Vec<(usize, f64)> = Vec::new();
        let mut fills: Vec<usize> = Vec::new();

        for step in 0..n {
            // --- Fast path: a singleton column (its single active row) or a
            // singleton row (its single active column).
            let mut pivot: Option<(usize, usize, f64)> = None; // (row, col, val)
            while let Some(c) = sing_cols.pop() {
                if search.count(c) != 1 {
                    continue;
                }
                let found = col_rows[c].iter().copied().find_map(|i| {
                    if !row_active[i] {
                        return None;
                    }
                    rows[i]
                        .iter()
                        .find(|&&(cc, _)| cc == c)
                        .map(|&(_, v)| (i, v))
                });
                if let Some((i, v)) = found {
                    if v.abs() >= PIVOT_TOL {
                        pivot = Some((i, c, v));
                        break;
                    }
                }
            }
            if pivot.is_none() {
                while let Some(r) = sing_rows.pop() {
                    if !row_active[r] || rows[r].len() != 1 {
                        continue;
                    }
                    let (c, v) = rows[r][0];
                    // Threshold against the column maximum for stability.
                    let mut colmax = 0.0f64;
                    stamp += 1;
                    for &i in &col_rows[c] {
                        if !row_active[i] || row_mark[i] == stamp {
                            continue;
                        }
                        row_mark[i] = stamp;
                        if let Some(&(_, w)) = rows[i].iter().find(|&&(cc, _)| cc == c) {
                            colmax = colmax.max(w.abs());
                        }
                    }
                    if v.abs() >= PIVOT_TOL && v.abs() >= THRESHOLD * colmax {
                        pivot = Some((r, c, v));
                        break;
                    }
                    // Too small for a stable pivot now; the Markowitz scan below
                    // can still pick this column through a different row.
                }
            }

            // --- Markowitz fallback: score a few smallest-count active columns.
            if pivot.is_none() {
                let mut cand = [usize::MAX; SEARCH_COLS];
                let cand_len = search.candidates(&mut cand);
                if cand_len == 0 {
                    return Err(LpError::Numerical(format!(
                        "singular basis: no active column left at step {step}"
                    )));
                }
                let mut best: Option<(usize, f64, usize, usize, f64)> = None; // (score, |a|, row, col, val)
                for &c in cand.iter().take(cand_len) {
                    // Validate and compact this column's row index while scanning.
                    stamp += 1;
                    valid.clear();
                    let mut colmax = 0.0f64;
                    let mut ids = std::mem::take(&mut col_rows[c]);
                    ids.retain(|&i| {
                        if !row_active[i] || row_mark[i] == stamp {
                            return false;
                        }
                        row_mark[i] = stamp;
                        let Some(&(_, v)) = rows[i].iter().find(|&&(cc, _)| cc == c) else {
                            return false;
                        };
                        colmax = colmax.max(v.abs());
                        valid.push((i, v));
                        true
                    });
                    col_rows[c] = ids;
                    search.set_count(c, valid.len());
                    for &(i, v) in &valid {
                        if v.abs() < PIVOT_TOL || v.abs() < THRESHOLD * colmax {
                            continue;
                        }
                        let score = (rows[i].len() - 1) * (valid.len() - 1);
                        let better = match best {
                            None => true,
                            Some((s, a, ..)) => score < s || (score == s && v.abs() > a),
                        };
                        if better {
                            best = Some((score, v.abs(), i, c, v));
                        }
                    }
                    // A zero-score pivot cannot be beaten; stop searching.
                    if matches!(best, Some((0, ..))) {
                        break;
                    }
                }
                pivot = best.map(|(_, _, i, c, v)| (i, c, v));
            }
            let Some((prow_id, pcol, piv_val)) = pivot else {
                return Err(LpError::Numerical(format!(
                    "singular basis: no acceptable pivot at step {step}"
                )));
            };

            row_perm[step] = prow_id;
            row_pos[prow_id] = step;
            col_perm[step] = pcol;
            col_pos[pcol] = step;
            u_diag[step] = piv_val;
            row_active[prow_id] = false;
            search.deactivate(pcol);

            // Detach the pivot row; its remaining entries form row `step` of U, and
            // each of their columns loses this row from the active submatrix.
            let mut prow = std::mem::take(&mut rows[prow_id]);
            let pidx = prow
                .iter()
                .position(|&(cc, _)| cc == pcol)
                .expect("pivot entry in pivot row");
            prow.swap_remove(pidx);
            for &(c2, _) in &prow {
                if search.decrement(c2) == 1 {
                    sing_cols.push(c2);
                }
            }

            // Eliminate the pivot column from every other active row containing it.
            let targets = std::mem::take(&mut col_rows[pcol]);
            let mut lcol = Vec::with_capacity(targets.len());
            for i in targets {
                if i == prow_id || !row_active[i] {
                    continue;
                }
                let Some(eidx) = rows[i].iter().position(|&(cc, _)| cc == pcol) else {
                    continue; // stale index
                };
                let a_ic = rows[i].swap_remove(eidx).1;
                if rows[i].len() == 1 {
                    sing_rows.push(i);
                }
                let l = a_ic / piv_val;
                if l == 0.0 {
                    continue;
                }
                lcol.push((i, l));
                if prow.is_empty() {
                    continue;
                }
                // rows[i] -= l * prow, via dense scatter/gather; the row is
                // rewritten in place, surviving entries first, then the fill.
                for &(c2, v) in &rows[i] {
                    work[c2] = v;
                    in_row[c2] = true;
                }
                fills.clear();
                for &(c2, v) in &prow {
                    if in_row[c2] {
                        work[c2] -= l * v;
                    } else {
                        in_row[c2] = true;
                        work[c2] = -l * v;
                        fills.push(c2);
                    }
                }
                rows[i].retain_mut(|(c2, v)| {
                    let c2 = *c2;
                    *v = work[c2];
                    in_row[c2] = false;
                    work[c2] = 0.0;
                    if *v == 0.0 && search.decrement(c2) == 1 {
                        sing_cols.push(c2); // exact cancellation
                    }
                    *v != 0.0
                });
                for &c2 in &fills {
                    let v = work[c2];
                    if v != 0.0 {
                        rows[i].push((c2, v));
                        search.increment(c2);
                        col_rows[c2].push(i);
                    }
                    in_row[c2] = false;
                    work[c2] = 0.0;
                }
                if rows[i].len() == 1 {
                    sing_rows.push(i);
                }
            }
            l_cols[step] = lcol;
            u_pivot_rows.push(prow);
        }

        // Remap L row indices from original-row space to pivot-position space.
        for col in &mut l_cols {
            for entry in col.iter_mut() {
                entry.0 = row_pos[entry.0];
                debug_assert_ne!(entry.0, usize::MAX);
            }
            col.sort_unstable_by_key(|&(p, _)| p);
        }

        // Assemble column-major U from the pivot rows (columns map to positions).
        let mut u_cols: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
        for (k, prow) in u_pivot_rows.iter().enumerate() {
            for &(c2, v) in prow {
                let pos = col_pos[c2];
                debug_assert!(pos > k, "U entries lie strictly above the diagonal");
                u_cols[pos].push((k, v));
            }
        }
        for col in &mut u_cols {
            col.sort_unstable_by_key(|&(p, _)| p);
        }

        // Transposed (row-major) copies for the hypersparse BTRAN kernels.
        let mut l_rows: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
        for (k, col) in l_cols.iter().enumerate() {
            for &(pos, v) in col {
                l_rows[pos].push((k, v));
            }
        }
        let mut u_rows: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
        for (k, col) in u_cols.iter().enumerate() {
            for &(pos, v) in col {
                u_rows[pos].push((k, v));
            }
        }

        let base_nnz = l_cols.iter().map(Vec::len).sum::<usize>()
            + u_cols.iter().map(Vec::len).sum::<usize>()
            + n;
        Ok(Self {
            n,
            l_cols,
            u_cols,
            u_diag,
            l_rows,
            u_rows,
            row_perm,
            row_pos,
            col_perm,
            col_pos,
            order: (0..n).collect(),
            order_pos: (0..n).collect(),
            ft_etas: Vec::new(),
            updates: 0,
            base_nnz,
            current_nnz: base_nnz,
        })
    }

    /// Dimension of the factorized matrix.
    #[cfg(test)]
    fn dim(&self) -> usize {
        self.n
    }

    /// Number of stored nonzeros in `L` and `U` (a fill-in indicator).
    pub fn fill_nnz(&self) -> usize {
        self.l_cols.iter().map(Vec::len).sum::<usize>()
            + self.u_cols.iter().map(Vec::len).sum::<usize>()
            + self.n
    }

    /// Solves `B x = b` in place: on return `b` holds `x`.
    pub fn solve(&self, b: &mut [f64], scratch: &mut LuScratch) {
        assert_eq!(b.len(), self.n);
        // y = P b
        let y = &mut scratch.dense;
        y.clear();
        y.extend(self.row_perm.iter().map(|&r| b[r]));
        // Forward solve L y = P b (unit diagonal), column oriented.
        for k in 0..self.n {
            let yk = y[k];
            if yk == 0.0 {
                continue;
            }
            for &(pos, lv) in &self.l_cols[k] {
                y[pos] -= lv * yk;
            }
        }
        // Forrest–Tomlin row transformations, in creation order.
        for eta in &self.ft_etas {
            let mut acc = 0.0;
            for &(j, m) in &eta.entries {
                acc += m * y[j];
            }
            y[eta.pos] -= acc;
        }
        // Back solve U x = y, column oriented, in reverse triangular order. Step k
        // of the factorization holds original column `col_perm[k]`, so the result
        // scatters back through the column permutation.
        for &k in self.order.iter().rev() {
            let xk = y[k] / self.u_diag[k];
            y[k] = xk;
            if xk == 0.0 {
                continue;
            }
            for &(pos, uv) in &self.u_cols[k] {
                y[pos] -= uv * xk;
            }
        }
        for k in 0..self.n {
            b[self.col_perm[k]] = y[k];
        }
    }

    /// Solves `Bᵀ x = b` in place: on return `b` holds `x`.
    #[cfg(test)]
    fn solve_transpose(&self, b: &mut [f64], scratch: &mut LuScratch) {
        assert_eq!(b.len(), self.n);
        // Solve Uᵀ t = b (forward, in triangular order). Input component `b[j]`
        // belongs to factorization step `col_pos[j]`, i.e. step k reads
        // `b[col_perm[k]]`.
        let t = &mut scratch.dense;
        t.clear();
        t.resize(self.n, 0.0);
        for &k in &self.order {
            let mut acc = b[self.col_perm[k]];
            for &(pos, uv) in &self.u_cols[k] {
                acc -= uv * t[pos];
            }
            t[k] = acc / self.u_diag[k];
        }
        // Transposed Forrest–Tomlin row transformations, in reverse creation order.
        for eta in self.ft_etas.iter().rev() {
            let tp = t[eta.pos];
            if tp != 0.0 {
                for &(j, m) in &eta.entries {
                    t[j] -= m * tp;
                }
            }
        }
        // Solve Lᵀ w = t (backward, unit diagonal).
        for k in (0..self.n).rev() {
            let mut acc = t[k];
            for &(pos, lv) in &self.l_cols[k] {
                acc -= lv * t[pos];
            }
            t[k] = acc;
        }
        // x = Pᵀ w : x[row_perm[k]] = w[k].
        for k in 0..self.n {
            b[self.row_perm[k]] = t[k];
        }
    }

    /// Runs one triangular stage of a sparse solve on `b` (step space): picks
    /// the kernel, orders the stage accordingly and makes the numeric pass.
    fn run_stage(
        &self,
        kernel: Kernel,
        stage: Stage,
        b: &mut SparseScratch,
        scratch: &mut LuScratch,
    ) {
        let adj = match stage {
            Stage::FtranLower => &self.l_cols,
            Stage::FtranUpper => &self.u_cols,
            Stage::BtranUpper => &self.u_rows,
            Stage::BtranLower => &self.l_rows,
        };
        let in_order = scratch.begin_stage(kernel, stage, adj, b);
        let (diag, reach) = (self.u_diag.as_slice(), scratch.order.as_slice());
        #[cfg(test)]
        if scratch.reference_reach && !in_order {
            let marked = Some(reach.iter().copied());
            match stage {
                Stage::FtranLower | Stage::BtranLower => {
                    solve_stage::<true>(adj, diag, marked, &[], b)
                }
                Stage::FtranUpper | Stage::BtranUpper => {
                    solve_stage::<false>(adj, diag, marked, &[], b)
                }
            }
            scratch.end_stage(stage, b);
            return;
        }
        // Edges of `U`'s columns point to earlier-ordered positions and those of
        // its rows to later ones, in the triangular order the Forrest–Tomlin
        // updates permute; `L` stays in step order.
        match stage {
            Stage::FtranLower => {
                solve_stage::<true>(adj, diag, in_order.then_some(0..self.n), reach, b)
            }
            Stage::FtranUpper => {
                let full = in_order.then(|| self.order.iter().rev().copied());
                solve_stage::<false>(adj, diag, full, reach, b)
            }
            Stage::BtranUpper => {
                let full = in_order.then(|| self.order.iter().copied());
                solve_stage::<false>(adj, diag, full, reach, b)
            }
            Stage::BtranLower => {
                solve_stage::<true>(adj, diag, in_order.then_some((0..self.n).rev()), reach, b)
            }
        }
        scratch.end_stage(stage, b);
    }

    /// Sparse FTRAN: solves `B x = b` where `b` arrives as a sparse vector in
    /// *original-row* space; on return the scratch holds `x` in column/position
    /// space. `kernel` picks how each triangular stage is ordered (module docs,
    /// "Which kernel runs").
    pub fn ftran_sparse(&self, kernel: Kernel, b: &mut SparseScratch, scratch: &mut LuScratch) {
        let _obs = a2a_obs::span("lp.lu.ftran");
        self.ftran_lower(kernel, b, scratch);
        self.ftran_upper(kernel, b, scratch);
        OBS_FTRAN_NNZ.record(b.nnz() as u64);
    }

    /// [`Self::ftran_sparse`] that additionally snapshots the *partial* result
    /// `w = R·L⁻¹·P·b` (step space, after the lower solve and the row etas, before
    /// the upper solve) into `partial`. That vector is exactly the Forrest–Tomlin
    /// spike [`Self::replace_column`] needs when `b` is the entering column.
    pub fn ftran_sparse_with_partial(
        &self,
        kernel: Kernel,
        b: &mut SparseScratch,
        scratch: &mut LuScratch,
        partial: &mut SparseScratch,
    ) {
        let _obs = a2a_obs::span("lp.lu.ftran");
        self.ftran_lower(kernel, b, scratch);
        partial.resize(self.n);
        partial.clear();
        for (i, v) in b.iter() {
            if v != 0.0 {
                partial.set(i, v);
            }
        }
        self.ftran_upper(kernel, b, scratch);
        OBS_FTRAN_NNZ.record(b.nnz() as u64);
    }

    /// Permutation + lower-triangular + row-eta half of the sparse FTRAN:
    /// leaves `w = R·L⁻¹·P·b` in `b` (step space).
    fn ftran_lower(&self, kernel: Kernel, b: &mut SparseScratch, scratch: &mut LuScratch) {
        debug_assert_eq!(b.dim(), self.n);
        scratch.resize(self.n);
        // y = P b (sparse permutation via the staging buffer).
        b.drain_into(&mut scratch.pairs);
        for i in 0..scratch.pairs.len() {
            let (r, v) = scratch.pairs[i];
            b.set(self.row_pos[r], v);
        }
        // Forward solve L y = P b, column oriented.
        self.run_stage(kernel, Stage::FtranLower, b, scratch);
        // Forrest–Tomlin row transformations, in creation order: each gathers the
        // eta support and updates the single spiked position.
        for eta in &self.ft_etas {
            let mut acc = 0.0;
            for &(j, m) in &eta.entries {
                let yj = b.get(j);
                if yj != 0.0 {
                    acc += m * yj;
                }
            }
            if acc != 0.0 {
                b.add(eta.pos, -acc);
            }
        }
    }

    /// Upper-triangular + column-permutation half of the sparse FTRAN.
    fn ftran_upper(&self, kernel: Kernel, b: &mut SparseScratch, scratch: &mut LuScratch) {
        // Back solve U x = y.
        self.run_stage(kernel, Stage::FtranUpper, b, scratch);
        // Scatter the result back through the column permutation.
        b.drain_into(&mut scratch.pairs);
        for i in 0..scratch.pairs.len() {
            let (k, v) = scratch.pairs[i];
            b.set(self.col_perm[k], v);
        }
    }

    /// Sparse BTRAN: solves `Bᵀ x = b` where `b` arrives as a sparse vector in
    /// *position* space; on return the scratch holds `x` in original-row space.
    pub fn btran_sparse(&self, kernel: Kernel, b: &mut SparseScratch, scratch: &mut LuScratch) {
        let _obs = a2a_obs::span("lp.lu.btran");
        debug_assert_eq!(b.dim(), self.n);
        scratch.resize(self.n);
        // Map the input through the column permutation into step space.
        b.drain_into(&mut scratch.pairs);
        for i in 0..scratch.pairs.len() {
            let (j, v) = scratch.pairs[i];
            b.set(self.col_pos[j], v);
        }
        // Solve Uᵀ t = b in push form: nonzeros propagate along rows of U.
        self.run_stage(kernel, Stage::BtranUpper, b, scratch);
        // Transposed Forrest–Tomlin row transformations, in reverse creation order:
        // each scatters the spiked position's value into the eta support.
        for eta in self.ft_etas.iter().rev() {
            let tp = if b.is_marked(eta.pos) {
                b.get(eta.pos)
            } else {
                0.0
            };
            if tp != 0.0 {
                for &(j, m) in &eta.entries {
                    b.add(j, -m * tp);
                }
            }
        }
        // Solve Lᵀ w = t in push form (unit diagonal): propagate along rows of L.
        self.run_stage(kernel, Stage::BtranLower, b, scratch);
        // x = Pᵀ w: scatter back to original-row space.
        b.drain_into(&mut scratch.pairs);
        for i in 0..scratch.pairs.len() {
            let (k, v) = scratch.pairs[i];
            b.set(self.row_perm[k], v);
        }
        OBS_BTRAN_NNZ.record(b.nnz() as u64);
    }

    /// Forrest–Tomlin update: replaces the basis column at original column index
    /// `col` (the basis *position* the factorization was built from) with the
    /// column whose partial FTRAN result `spike = R·L⁻¹·P·a` was captured by
    /// [`Self::ftran_sparse_with_partial`]. Returns `true` when the update
    /// committed; `false` means the new diagonal was too small for a stable
    /// update — the factorization is then **poisoned** and the caller must
    /// refactorize the new basis from scratch before any further solve.
    pub fn replace_column(
        &mut self,
        col: usize,
        spike: &SparseScratch,
        scratch: &mut LuScratch,
    ) -> bool {
        let _obs = a2a_obs::span("lp.lu.ft_update");
        let p = self.col_pos[col];
        scratch.resize(self.n);

        // 1. Remove the old column p of U from the row lists.
        let mut ucol = std::mem::take(&mut self.u_cols[p]);
        for &(i, _) in &ucol {
            if let Some(k) = self.u_rows[i].iter().position(|&(c, _)| c == p) {
                self.u_rows[i].swap_remove(k);
            }
        }
        let old_col_len = ucol.len();

        // 2. Insert the spike as the new column p (in the old column's buffer);
        //    its entry at row p seeds the new diagonal.
        let mut new_diag = 0.0;
        let mut spike_max = 0.0f64;
        ucol.clear();
        for (i, v) in spike.iter() {
            if v == 0.0 {
                continue;
            }
            spike_max = spike_max.max(v.abs());
            if i == p {
                new_diag = v;
            } else {
                ucol.push((i, v));
                self.u_rows[i].push((p, v));
            }
        }
        self.u_cols[p] = ucol;

        // 3. Move p to the end of the triangular order.
        let t = self.order_pos[p];
        self.order.remove(t);
        self.order.push(p);
        for k in t..self.n {
            self.order_pos[self.order[k]] = k;
        }

        // 4. Eliminate the row spike. Row p (the old U row, plus fill as it
        //    appears) must become empty — p is now last in the order, so every
        //    entry sits below the permuted diagonal. Entries are processed in
        //    triangular order via a min-heap on the order rank; eliminating
        //    against row j subtracts `m·row_j`, which can only create fill at
        //    later-ordered columns (including the spike column p, which feeds the
        //    new diagonal instead of the heap).
        let mut row_p = std::mem::take(&mut self.u_rows[p]);
        let LuScratch {
            row_acc: acc,
            ft_heap: heap,
            ft_entries: entries,
            ..
        } = scratch;
        acc.clear();
        heap.clear();
        entries.clear();
        for &(c, v) in &row_p {
            if let Some(k) = self.u_cols[c].iter().position(|&(i, _)| i == p) {
                self.u_cols[c].swap_remove(k);
            }
            if v != 0.0 {
                acc.set(c, v);
                heap.push(Reverse((self.order_pos[c], c)));
            }
        }
        while let Some(Reverse((_, j))) = heap.pop() {
            let vj = acc.get(j);
            // Zero: already eliminated (duplicate heap entry) or exact cancellation.
            if vj == 0.0 {
                continue;
            }
            let m = vj / self.u_diag[j];
            acc.set(j, 0.0);
            entries.push((j, m));
            for &(c, ujc) in &self.u_rows[j] {
                if c == p {
                    new_diag -= m * ujc;
                } else {
                    let was_zero = acc.get(c) == 0.0;
                    acc.add(c, -m * ujc);
                    if was_zero {
                        heap.push(Reverse((self.order_pos[c], c)));
                    }
                }
            }
        }
        acc.clear();
        // Row p is empty now; it keeps its buffer for the fill later updates
        // put there.
        let old_row_len = row_p.len();
        row_p.clear();
        self.u_rows[p] = row_p;

        // 5. Stability gate: a tiny new diagonal relative to the spike means the
        //    replacement basis is (near-)singular in this update path; demand a
        //    fresh factorization instead of committing garbage.
        if new_diag.abs() < PIVOT_TOL || new_diag.abs() < FT_STABILITY_TOL * spike_max {
            OBS_FT_REJECTS.incr();
            return false;
        }

        // 6. Commit. The running nonzero count gains the spike and the new row
        //    eta and loses the dropped column and the eliminated row.
        self.current_nnz = (self.current_nnz + self.u_cols[p].len() + entries.len())
            .saturating_sub(old_col_len + old_row_len);
        self.u_diag[p] = new_diag;
        if !entries.is_empty() {
            self.ft_etas.push(FtEta {
                pos: p,
                entries: entries.clone(),
            });
        }
        self.updates += 1;
        OBS_FT_UPDATES.incr();
        true
    }

    /// Number of Forrest–Tomlin updates applied since the last factorization.
    pub fn updates(&self) -> usize {
        self.updates
    }

    /// True once update fill has outgrown the base factorization enough that a
    /// refactorization will pay for itself. O(1) — checked on every pivot.
    pub fn fill_exceeded(&self) -> bool {
        self.current_nnz > FT_FILL_GROWTH_LIMIT * self.base_nnz + 16
    }

    /// Original row index occupying pivot position `k`.
    #[cfg(test)]
    fn pivot_row(&self, k: usize) -> usize {
        self.row_perm[k]
    }

    /// Pivot position assigned to original row `r` (inverse of `pivot_row`).
    #[cfg(test)]
    fn row_position(&self, r: usize) -> usize {
        self.row_pos[r]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::SparseVec;

    fn dense_to_columns(a: &[Vec<f64>]) -> (usize, Vec<SparseVec>) {
        let n = a.len();
        let cols = (0..n)
            .map(|j| SparseVec::from_entries((0..n).map(|i| (i, a[i][j]))))
            .collect();
        (n, cols)
    }

    fn dense_matvec(a: &[Vec<f64>], x: &[f64]) -> Vec<f64> {
        a.iter()
            .map(|row| row.iter().zip(x).map(|(r, x)| r * x).sum())
            .collect()
    }

    fn dense_matvec_t(a: &[Vec<f64>], x: &[f64]) -> Vec<f64> {
        let n = a.len();
        (0..n)
            .map(|j| (0..n).map(|i| a[i][j] * x[i]).sum())
            .collect()
    }

    fn assert_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < tol, "{a:?} != {b:?}");
        }
    }

    #[test]
    fn factorize_identity() {
        let a = vec![
            vec![1.0, 0.0, 0.0],
            vec![0.0, 1.0, 0.0],
            vec![0.0, 0.0, 1.0],
        ];
        let (n, cols) = dense_to_columns(&a);
        let lu = LuFactorization::factorize(n, cols.iter().map(SparseVec::iter)).unwrap();
        let mut scratch = LuScratch::new(n);
        let mut b = vec![3.0, -1.0, 2.0];
        lu.solve(&mut b, &mut scratch);
        assert_close(&b, &[3.0, -1.0, 2.0], 1e-12);
        let mut b = vec![3.0, -1.0, 2.0];
        lu.solve_transpose(&mut b, &mut scratch);
        assert_close(&b, &[3.0, -1.0, 2.0], 1e-12);
    }

    #[test]
    fn factorize_requires_pivoting() {
        // Zero on the (0,0) entry forces a row swap.
        let a = vec![
            vec![0.0, 2.0, 1.0],
            vec![1.0, 0.0, 0.0],
            vec![4.0, 1.0, 3.0],
        ];
        let (n, cols) = dense_to_columns(&a);
        let lu = LuFactorization::factorize(n, cols.iter().map(SparseVec::iter)).unwrap();
        let mut scratch = LuScratch::new(n);
        let x_true = vec![1.0, -2.0, 3.0];
        let mut b = dense_matvec(&a, &x_true);
        lu.solve(&mut b, &mut scratch);
        assert_close(&b, &x_true, 1e-10);
        let mut bt = dense_matvec_t(&a, &x_true);
        lu.solve_transpose(&mut bt, &mut scratch);
        assert_close(&bt, &x_true, 1e-10);
    }

    #[test]
    fn singular_matrix_is_detected() {
        let a = vec![
            vec![1.0, 2.0, 3.0],
            vec![2.0, 4.0, 6.0],
            vec![1.0, 0.0, 1.0],
        ];
        let (n, cols) = dense_to_columns(&a);
        assert!(matches!(
            LuFactorization::factorize(n, cols.iter().map(SparseVec::iter)),
            Err(LpError::Numerical(_))
        ));
    }

    #[test]
    fn random_dense_roundtrip() {
        // Deterministic pseudo-random matrix via a simple LCG so the test needs no
        // external RNG.
        let n = 40;
        let mut state = 0x12345678u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 0.5
        };
        let mut a = vec![vec![0.0; n]; n];
        for i in 0..n {
            for j in 0..n {
                // Sparse-ish with a strong diagonal so it is well conditioned.
                let v = next();
                a[i][j] = if (i + 3 * j) % 5 == 0 { v } else { 0.0 };
            }
            a[i][i] += 4.0;
        }
        let (dim, cols) = dense_to_columns(&a);
        let lu = LuFactorization::factorize(dim, cols.iter().map(SparseVec::iter)).unwrap();
        let mut scratch = LuScratch::new(n);
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64) * 0.25 - 3.0).collect();
        let mut b = dense_matvec(&a, &x_true);
        lu.solve(&mut b, &mut scratch);
        assert_close(&b, &x_true, 1e-8);
        let mut bt = dense_matvec_t(&a, &x_true);
        lu.solve_transpose(&mut bt, &mut scratch);
        assert_close(&bt, &x_true, 1e-8);
        assert!(lu.fill_nnz() >= n);
    }

    #[test]
    fn sparse_solves_match_dense_solves() {
        // Random sparse system solved both ways; the hypersparse kernels must agree
        // with the dense reference for sparse and for fully dense right-hand sides.
        let n = 30;
        let mut state = 0xDEADBEEFu64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 0.5
        };
        let mut a = vec![vec![0.0; n]; n];
        for i in 0..n {
            for j in 0..n {
                let v = next();
                a[i][j] = if (i + 2 * j) % 7 == 0 { v } else { 0.0 };
            }
            a[i][i] += 3.0;
        }
        let (dim, cols) = dense_to_columns(&a);
        let lu = LuFactorization::factorize(dim, cols.iter().map(SparseVec::iter)).unwrap();
        let mut scratch = LuScratch::new(n);

        // Hypersparse RHS: two nonzeros.
        let mut b_dense = vec![0.0; n];
        b_dense[3] = 1.5;
        b_dense[17] = -2.0;
        let mut expected = b_dense.clone();
        lu.solve(&mut expected, &mut scratch);
        let mut b = SparseScratch::new(n);
        b.set(3, 1.5);
        b.set(17, -2.0);
        lu.ftran_sparse(Kernel::Reach, &mut b, &mut scratch);
        assert_close(b.values(), &expected, 1e-10);

        let mut expected_t = b_dense.clone();
        lu.solve_transpose(&mut expected_t, &mut scratch);
        let mut bt = SparseScratch::new(n);
        bt.set(3, 1.5);
        bt.set(17, -2.0);
        lu.btran_sparse(Kernel::Reach, &mut bt, &mut scratch);
        assert_close(bt.values(), &expected_t, 1e-10);

        // Fully dense RHS through the sparse kernels (pattern = everything).
        let full: Vec<f64> = (0..n).map(|i| (i as f64) * 0.5 - 4.0).collect();
        let mut expected_full = full.clone();
        lu.solve(&mut expected_full, &mut scratch);
        let mut bf = SparseScratch::new(n);
        for (i, &v) in full.iter().enumerate() {
            bf.set(i, v);
        }
        lu.ftran_sparse(Kernel::Reach, &mut bf, &mut scratch);
        assert_close(bf.values(), &expected_full, 1e-9);

        let mut expected_full_t = full.clone();
        lu.solve_transpose(&mut expected_full_t, &mut scratch);
        let mut bft = SparseScratch::new(n);
        for (i, &v) in full.iter().enumerate() {
            bft.set(i, v);
        }
        lu.btran_sparse(Kernel::Reach, &mut bft, &mut scratch);
        assert_close(bft.values(), &expected_full_t, 1e-9);
    }

    #[test]
    fn reach_and_in_order_kernels_agree() {
        // Seeded sparse, row-dominant bases, fresh and after 1..=50 Forrest–Tomlin
        // updates (every third one hits the previous position again), against
        // right-hand sides from one nonzero to fully dense: the reach kernel, the
        // in-order kernel, the adaptive choice between them and the dense solves
        // must all agree, and every nonzero of a sparse result must be in its
        // pattern.
        let n = 90;
        for seed in [0x5EED_0001u64, 0x5EED_0002, 0x5EED_0003] {
            let mut state = seed;
            let mut next = move || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) as f64 / (1u64 << 31) as f64) - 0.5
            };
            let mut a = vec![vec![0.0; n]; n];
            for i in 0..n {
                for j in 0..n {
                    let v = next();
                    a[i][j] = if next() > 0.45 { v } else { 0.0 };
                }
                a[i][i] = 3.0 + next();
            }
            let (dim, cols) = dense_to_columns(&a);
            let mut lu = LuFactorization::factorize(dim, cols.iter().map(SparseVec::iter)).unwrap();
            let mut scratch = LuScratch::new(n);
            // The adaptive kernel keeps its own scratch so its density averages
            // see one consistent stream of solves.
            let mut adaptive = LuScratch::new(n);
            let mut col = 0;
            for update in 0..=50usize {
                if update > 0 {
                    if update % 3 != 0 {
                        col = (next().abs() * 2.0 * n as f64) as usize % n;
                    }
                    let mut newcol = vec![0.0; n];
                    newcol[col] = 2.5 + next().abs();
                    newcol[(col + 5) % n] = 0.5 * next();
                    newcol[(col + 11) % n] = 0.5 * next();
                    // Alternate the kernel that computes the spike as well.
                    let kernel = [Kernel::Reach, Kernel::InOrder][update % 2];
                    ft_replace(kernel, &mut lu, &mut scratch, col, &newcol);
                }
                for nnz in [1, 2, 5, n / 10, n / 2, n] {
                    let mut rhs = vec![0.0; n];
                    let start = (next().abs() * 2.0 * n as f64) as usize;
                    for t in 0..nnz {
                        // 7 is coprime to n, so the positions are distinct.
                        rhs[(start + 7 * t) % n] = 1.0 + next();
                    }
                    let mut expected = [rhs.clone(), rhs.clone()];
                    lu.solve(&mut expected[0], &mut scratch);
                    lu.solve_transpose(&mut expected[1], &mut scratch);
                    for (transpose, expected) in expected.iter().enumerate() {
                        let scale = expected.iter().fold(1.0f64, |m, v| m.max(v.abs()));
                        for kernel in [Kernel::Reach, Kernel::InOrder, Kernel::Adaptive] {
                            let scratch = if kernel == Kernel::Adaptive {
                                &mut adaptive
                            } else {
                                &mut scratch
                            };
                            let mut b = SparseScratch::new(n);
                            for (i, &v) in rhs.iter().enumerate() {
                                if v != 0.0 {
                                    b.set(i, v);
                                }
                            }
                            if transpose == 0 {
                                lu.ftran_sparse(kernel, &mut b, scratch);
                            } else {
                                lu.btran_sparse(kernel, &mut b, scratch);
                            }
                            for i in 0..n {
                                assert!(
                                    (b.get(i) - expected[i]).abs() <= 1e-10 * scale,
                                    "{kernel:?} transpose={transpose} update={update} nnz={nnz}: \
                                     entry {i} is {} not {}",
                                    b.get(i),
                                    expected[i]
                                );
                                assert!(b.get(i) == 0.0 || b.is_marked(i));
                            }
                        }
                    }
                }
            }
            let (reach_in_order, reach_reach) = scratch.kernel_runs();
            assert!(reach_in_order > 0 && reach_reach > 0);
            let (in_order, reach) = adaptive.kernel_runs();
            assert!(
                in_order > 0 && reach > 0,
                "adaptive ran {in_order} stages in order and {reach} by reach"
            );
        }
    }

    #[test]
    fn sparse_solve_pattern_is_reach_limited() {
        // Lower bidiagonal matrix: a unit RHS at position k reaches only k..n, so the
        // FTRAN pattern must stay well below n for a late seed.
        let n = 50;
        let mut a = vec![vec![0.0; n]; n];
        for i in 0..n {
            a[i][i] = 2.0;
            if i > 0 {
                a[i][i - 1] = 1.0;
            }
        }
        let (dim, cols) = dense_to_columns(&a);
        let lu = LuFactorization::factorize(dim, cols.iter().map(SparseVec::iter)).unwrap();
        let mut scratch = LuScratch::new(n);
        let mut b = SparseScratch::new(n);
        b.set(n - 2, 1.0);
        lu.ftran_sparse(Kernel::Reach, &mut b, &mut scratch);
        assert!(
            b.nnz() <= 4,
            "reach of a near-last unit vector should be tiny, got {}",
            b.nnz()
        );
        // And the values must match the dense solve.
        let mut expected = vec![0.0; n];
        expected[n - 2] = 1.0;
        lu.solve(&mut expected, &mut scratch);
        assert_close(b.values(), &expected, 1e-12);
    }

    /// Runs one Forrest–Tomlin replacement of `col` with `newcol` on `lu`,
    /// asserting the update committed.
    fn ft_replace(
        kernel: Kernel,
        lu: &mut LuFactorization,
        scratch: &mut LuScratch,
        col: usize,
        newcol: &[f64],
    ) {
        let n = newcol.len();
        let mut b = SparseScratch::new(n);
        for (i, &v) in newcol.iter().enumerate() {
            if v != 0.0 {
                b.set(i, v);
            }
        }
        let mut partial = SparseScratch::new(n);
        lu.ftran_sparse_with_partial(kernel, &mut b, scratch, &mut partial);
        assert!(
            lu.replace_column(col, &partial, scratch),
            "stable update should commit"
        );
    }

    #[test]
    fn forrest_tomlin_update_matches_refactorization() {
        // Random sparse diagonally-dominant matrix; replace several columns in
        // sequence via FT updates and compare every solve kernel against a
        // from-scratch factorization of the mutated matrix.
        let n = 25;
        let mut state = 0xC0FFEEu64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 0.5
        };
        let mut a = vec![vec![0.0; n]; n];
        for i in 0..n {
            for j in 0..n {
                let v = next();
                a[i][j] = if (i + 2 * j) % 6 == 0 { v } else { 0.0 };
            }
            a[i][i] += 3.0;
        }
        let (dim, cols) = dense_to_columns(&a);
        let mut lu = LuFactorization::factorize(dim, cols.iter().map(SparseVec::iter)).unwrap();
        let mut scratch = LuScratch::new(n);

        for round in 0..8usize {
            let col = (round * 7 + 3) % n;
            let mut newcol = vec![0.0; n];
            newcol[col] = 2.5 + next().abs();
            newcol[(col + 5) % n] = next();
            newcol[(col + 11) % n] = next();
            ft_replace(Kernel::Reach, &mut lu, &mut scratch, col, &newcol);
            for (i, row) in a.iter_mut().enumerate() {
                row[col] = newcol[i];
            }
            assert_eq!(lu.updates(), round + 1);
            // The O(1) fill counter must track the real factor + eta nonzeros.
            let eta_nnz: usize = lu.ft_etas.iter().map(|e| e.entries.len()).sum();
            assert_eq!(lu.current_nnz, lu.fill_nnz() + eta_nnz);

            let x_true: Vec<f64> = (0..n).map(|i| (i as f64) * 0.3 - 2.0).collect();
            let mut b = dense_matvec(&a, &x_true);
            lu.solve(&mut b, &mut scratch);
            assert_close(&b, &x_true, 1e-7);
            let mut bt = dense_matvec_t(&a, &x_true);
            lu.solve_transpose(&mut bt, &mut scratch);
            assert_close(&bt, &x_true, 1e-7);

            // Hypersparse kernels agree with the dense ones after updates.
            let mut expected = vec![0.0; n];
            expected[(col + 3) % n] = 1.0;
            expected[(col + 9) % n] = -2.5;
            let mut s = SparseScratch::new(n);
            s.set((col + 3) % n, 1.0);
            s.set((col + 9) % n, -2.5);
            lu.ftran_sparse(Kernel::Reach, &mut s, &mut scratch);
            lu.solve(&mut expected, &mut scratch);
            assert_close(s.values(), &expected, 1e-8);

            let mut expected_t = vec![0.0; n];
            expected_t[(col + 3) % n] = 1.0;
            expected_t[(col + 9) % n] = -2.5;
            let mut st = SparseScratch::new(n);
            st.set((col + 3) % n, 1.0);
            st.set((col + 9) % n, -2.5);
            lu.btran_sparse(Kernel::Reach, &mut st, &mut scratch);
            lu.solve_transpose(&mut expected_t, &mut scratch);
            assert_close(st.values(), &expected_t, 1e-8);
        }
    }

    #[test]
    fn forrest_tomlin_rejects_singular_replacement() {
        // Replacing column 1 with a copy of column 0 makes the matrix singular;
        // the update must refuse and demand refactorization.
        let a = vec![
            vec![2.0, 0.0, 1.0],
            vec![1.0, 3.0, 0.0],
            vec![0.0, 1.0, 4.0],
        ];
        let (n, cols) = dense_to_columns(&a);
        let mut lu = LuFactorization::factorize(n, cols.iter().map(SparseVec::iter)).unwrap();
        let mut scratch = LuScratch::new(n);
        let dup: Vec<f64> = (0..n).map(|i| a[i][0]).collect();
        let mut b = SparseScratch::new(n);
        for (i, &v) in dup.iter().enumerate() {
            if v != 0.0 {
                b.set(i, v);
            }
        }
        let mut partial = SparseScratch::new(n);
        lu.ftran_sparse_with_partial(Kernel::Reach, &mut b, &mut scratch, &mut partial);
        assert!(!lu.replace_column(1, &partial, &mut scratch));
    }

    #[test]
    fn forrest_tomlin_repeated_same_position() {
        // Repeatedly updating the same column stresses the order bookkeeping
        // (the position is already last after the first update).
        let n = 12;
        let mut a = vec![vec![0.0; n]; n];
        for i in 0..n {
            a[i][i] = 2.0;
            if i + 1 < n {
                a[i][i + 1] = 1.0;
                a[i + 1][i] = -0.5;
            }
        }
        let (dim, cols) = dense_to_columns(&a);
        let mut lu = LuFactorization::factorize(dim, cols.iter().map(SparseVec::iter)).unwrap();
        let mut scratch = LuScratch::new(n);
        for round in 0..5usize {
            let mut newcol = vec![0.0; n];
            newcol[4] = 1.5 + round as f64 * 0.25;
            newcol[(round + 1) % n] = 0.75;
            ft_replace(Kernel::Reach, &mut lu, &mut scratch, 4, &newcol);
            for (i, row) in a.iter_mut().enumerate() {
                row[4] = newcol[i];
            }
            let x_true: Vec<f64> = (0..n).map(|i| 1.0 - (i as f64) * 0.1).collect();
            let mut b = dense_matvec(&a, &x_true);
            lu.solve(&mut b, &mut scratch);
            assert_close(&b, &x_true, 1e-8);
            let mut bt = dense_matvec_t(&a, &x_true);
            lu.solve_transpose(&mut bt, &mut scratch);
            assert_close(&bt, &x_true, 1e-8);
        }
    }

    /// The candidate scan [`CountBuckets`] replaced, kept as the reference the
    /// differential tests factorize against: compact the active-column list, then
    /// run the insertion scan over all of it.
    struct ActiveScan {
        count: Vec<usize>,
        active: Vec<bool>,
        active_cols: Vec<usize>,
    }

    impl ColumnSearch for ActiveScan {
        fn new(count: Vec<usize>) -> Self {
            Self {
                active: vec![true; count.len()],
                active_cols: (0..count.len()).collect(),
                count,
            }
        }

        fn count(&self, c: usize) -> usize {
            self.count[c]
        }

        fn set_count(&mut self, c: usize, count: usize) {
            self.count[c] = count;
        }

        fn deactivate(&mut self, c: usize) {
            self.active[c] = false;
            self.count[c] = 0;
        }

        fn candidates(&mut self, cand: &mut [usize; SEARCH_COLS]) -> usize {
            self.active_cols.retain(|&c| self.active[c]);
            let mut len = 0;
            for &c in &self.active_cols {
                insert_candidate(&self.count, cand, &mut len, c);
            }
            len
        }
    }

    /// [`symbolic_reach`] as it was when every step of the traversal went through
    /// the explicit stack — the reference the differential tests compare orders
    /// with.
    pub(super) fn symbolic_reach_reference(
        adj: &[Vec<(usize, f64)>],
        b: &mut SparseScratch,
        scratch: &mut LuScratch,
    ) {
        scratch.order.clear();
        for seed_idx in 0..b.pattern().len() {
            let seed = b.pattern()[seed_idx];
            if scratch.visited[seed] {
                continue;
            }
            scratch.visited[seed] = true;
            scratch.stack.push((seed, 0));
            while let Some(&mut (node, ref mut child)) = scratch.stack.last_mut() {
                if let Some(&(next, _)) = adj[node].get(*child) {
                    *child += 1;
                    if !scratch.visited[next] {
                        scratch.visited[next] = true;
                        scratch.stack.push((next, 0));
                    }
                } else {
                    scratch.stack.pop();
                    scratch.order.push(node);
                }
            }
        }
        scratch.order.reverse();
        for &i in &scratch.order {
            scratch.visited[i] = false;
            b.mark(i);
        }
    }

    /// Deterministic generator for the differential tests below.
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 33
        }

        fn below(&mut self, n: usize) -> usize {
            self.next() as usize % n
        }

        /// Uniform in `[0.5, 1.5)`, random sign.
        fn coeff(&mut self) -> f64 {
            let magnitude = 0.5 + self.next() as f64 / (1u64 << 31) as f64;
            if self.next() & 1 == 0 {
                magnitude
            } else {
                -magnitude
            }
        }
    }

    type Column = Vec<(usize, f64)>;

    /// A seeded network-like basis: a strongly coupled bump over at least half
    /// of the rows (every bump row and column holds two entries or more, so the
    /// singleton worklists run dry and the Markowitz search does the work), three
    /// bump columns heavier than [`BUCKET_CAP`] — all of them when `dense`, so
    /// that the search has nothing but the overflow bucket to pick from — and
    /// a triangular rest of slack and path columns hanging off the bump, under
    /// seeded row and column relabellings. `defect` 1 turns one slack entry
    /// into a below-[`PIVOT_TOL`] singleton, 2 duplicates a bump column
    /// (singular).
    fn seeded_basis(seed: u64, dense: bool, defect: u64) -> (usize, Vec<Column>) {
        let mut rng = Lcg(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
        let n = 100 + rng.below(140);
        let m = n / 2 + rng.below(n / 4);
        let mut cols: Vec<Column> = Vec::with_capacity(n);
        for j in 0..m {
            let mut col = vec![(j, rng.coeff()), ((j + 1) % m, rng.coeff())];
            for _ in 0..1 + rng.below(3) {
                let r = rng.below(m);
                if col.iter().all(|&(i, _)| i != r) {
                    col.push((r, rng.coeff()));
                }
            }
            cols.push(col);
        }
        let heavy: Vec<usize> = if dense {
            (0..m).collect()
        } else {
            (0..3).map(|_| rng.below(m)).collect()
        };
        for j in heavy {
            let target = BUCKET_CAP + 2 + rng.below(10);
            while cols[j].len() < target {
                let r = rng.below(m);
                if cols[j].iter().all(|&(i, _)| i != r) {
                    cols[j].push((r, rng.coeff()));
                }
            }
        }
        for r in m..n {
            if rng.next() & 1 == 0 {
                cols.push(vec![(r, -1.0)]);
            } else {
                // A path arc into the next row, loading one bump row.
                let mut col = vec![(r, 1.0), (rng.below(m), 1.0)];
                if r + 1 < n {
                    col.push((r + 1, -1.0));
                }
                cols.push(col);
            }
        }
        match defect {
            1 => {
                let j = m + rng.below(n - m);
                cols[j][0].1 = 1e-12;
            }
            2 => {
                let from = rng.below(m);
                let to = (from + 1 + rng.below(m - 1)) % m;
                cols[to] = cols[from].clone();
            }
            _ => {}
        }
        // Relabel rows and columns (Fisher–Yates), so neither the buckets' index
        // order nor the scan's coincides with the construction order.
        let mut row_label: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            row_label.swap(i, rng.below(i + 1));
            cols.swap(i, rng.below(i + 1));
        }
        for col in &mut cols {
            for entry in col.iter_mut() {
                entry.0 = row_label[entry.0];
            }
        }
        (n, cols)
    }

    fn bits(cols: &[Vec<(usize, f64)>]) -> Vec<Vec<(usize, u64)>> {
        cols.iter()
            .map(|col| col.iter().map(|&(i, v)| (i, v.to_bits())).collect())
            .collect()
    }

    fn factorize_both(n: usize, cols: &[Column]) -> [LpResult<LuFactorization>; 2] {
        let columns = || cols.iter().map(|c| c.iter().copied());
        [
            LuFactorization::factorize_with::<ActiveScan, _>(n, columns()),
            LuFactorization::factorize(n, columns()),
        ]
    }

    #[test]
    fn bucketed_search_factorizes_like_the_active_column_scan() {
        let (mut factorized, mut heavy, mut singular) = (0, 0, 0);
        for seed in 0..240u64 {
            // Every eighth basis has a dense bump, every eighth carries a tiny
            // singleton, every eighth a duplicated column.
            let defect = match seed % 8 {
                6 => 1,
                7 => 2,
                _ => 0,
            };
            let (n, cols) = seeded_basis(seed, seed % 8 == 5, defect);
            heavy += cols.iter().filter(|c| c.len() > BUCKET_CAP).count();
            match factorize_both(n, &cols) {
                [Ok(scan), Ok(buckets)] => {
                    assert_eq!(scan.row_perm, buckets.row_perm, "seed {seed}: row order");
                    assert_eq!(scan.col_perm, buckets.col_perm, "seed {seed}: column order");
                    assert_eq!(bits(&scan.l_cols), bits(&buckets.l_cols), "seed {seed}: L");
                    assert_eq!(bits(&scan.u_cols), bits(&buckets.u_cols), "seed {seed}: U");
                    assert_eq!(
                        scan.u_diag.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        buckets
                            .u_diag
                            .iter()
                            .map(|v| v.to_bits())
                            .collect::<Vec<_>>(),
                        "seed {seed}: diagonal"
                    );
                    // The bump really went through the Markowitz search: it
                    // cannot be eliminated without multipliers.
                    assert!(scan.l_cols.iter().any(|c| !c.is_empty()), "seed {seed}");
                    assert_ne!(defect, 2, "seed {seed}: duplicated column factorized");
                    factorized += 1;
                }
                [Err(scan), Err(buckets)] => {
                    // Same verdict at the same elimination step.
                    assert_eq!(scan, buckets, "seed {seed}");
                    assert_ne!(defect, 0, "seed {seed}: healthy basis failed: {scan}");
                    singular += 1;
                }
                [scan, buckets] => panic!(
                    "seed {seed}: scan {:?} vs buckets {:?}",
                    scan.map(|_| ()),
                    buckets.map(|_| ())
                ),
            }
        }
        assert_eq!((factorized, singular), (180, 60));
        assert!(
            heavy >= 30 * 50,
            "only {heavy} columns beyond the bucket cap"
        );
    }

    /// Seeds `count` distinct positions of a dimension-`n` right-hand side.
    fn seeded_rhs(rng: &mut Lcg, n: usize, count: usize) -> SparseScratch {
        let mut b = SparseScratch::new(n);
        let mut positions: Vec<usize> = (0..n).collect();
        for k in 0..count {
            positions.swap(k, k + rng.below(n - k));
            b.set(positions[k], rng.coeff());
        }
        b
    }

    /// Old and new reach kernel side by side on one factorization: the symbolic
    /// orders of all four triangular stages, then whole FTRANs and BTRANs, for
    /// right-hand sides from one seed to `n`.
    fn assert_reach_kernels_agree(tag: &str, lu: &LuFactorization, rng: &mut Lcg) {
        let n = lu.dim();
        let mut new = LuScratch::new(n);
        let mut old = LuScratch::new(n);
        old.reference_reach = true;
        let mut count = 1;
        while count <= n {
            let rhs = seeded_rhs(rng, n, count);
            for adj in [&lu.l_cols, &lu.u_cols, &lu.u_rows, &lu.l_rows] {
                let (mut b_new, mut b_old) = (rhs.clone(), rhs.clone());
                symbolic_reach(adj, &mut b_new, &mut new);
                symbolic_reach_reference(adj, &mut b_old, &mut old);
                assert_eq!(new.order, old.order, "{tag}: order from {count} seeds");
                assert_eq!(b_new.pattern(), b_old.pattern(), "{tag}: pattern");
                assert!(new.stack.is_empty() && new.visited.iter().all(|&v| !v));
            }
            for transpose in [false, true] {
                let (mut b_new, mut b_old) = (rhs.clone(), rhs.clone());
                if transpose {
                    lu.btran_sparse(Kernel::Reach, &mut b_new, &mut new);
                    lu.btran_sparse(Kernel::Reach, &mut b_old, &mut old);
                } else {
                    lu.ftran_sparse(Kernel::Reach, &mut b_new, &mut new);
                    lu.ftran_sparse(Kernel::Reach, &mut b_old, &mut old);
                }
                assert_eq!(
                    b_new.pattern(),
                    b_old.pattern(),
                    "{tag}: transpose={transpose}, result pattern from {count} seeds"
                );
                for (i, (x, y)) in b_new.values().iter().zip(b_old.values()).enumerate() {
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "{tag}: transpose={transpose}, entry {i} from {count} seeds"
                    );
                }
            }
            count = if count == n {
                n + 1
            } else {
                (count * 2).min(n)
            };
        }
    }

    #[test]
    fn trimmed_reach_kernel_repeats_the_reference_bit_for_bit() {
        let mut rng = Lcg(0xD1FF_5EED);
        let mut updated = 0;
        for seed in (0..240u64).filter(|s| s % 8 < 5).step_by(4) {
            let (n, mut cols) = seeded_basis(seed, false, 0);
            let mut lu = LuFactorization::factorize(n, cols.iter().map(|c| c.iter().copied()))
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert_reach_kernels_agree(&format!("seed {seed}, fresh"), &lu, &mut rng);

            // Fifty Forrest–Tomlin updates: a rescaled copy of a column with one
            // more entry replaces it. An update the stability gate refuses
            // poisons the factors, so it is rolled back and another is drawn.
            let mut scratch = LuScratch::new(n);
            let (mut b, mut spike) = (SparseScratch::new(n), SparseScratch::new(n));
            let mut committed = 0;
            for _ in 0..200 {
                if committed == 50 {
                    break;
                }
                let j = rng.below(n);
                let mut newcol: Column = cols[j].iter().map(|&(i, v)| (i, 1.25 * v)).collect();
                let extra = rng.below(n);
                if newcol.iter().all(|&(i, _)| i != extra) {
                    newcol.push((extra, 0.25));
                }
                b.clear();
                for &(i, v) in &newcol {
                    b.set(i, v);
                }
                let backup = lu.clone();
                lu.ftran_sparse_with_partial(Kernel::Reach, &mut b, &mut scratch, &mut spike);
                if lu.replace_column(j, &spike, &mut scratch) {
                    cols[j] = newcol;
                    committed += 1;
                } else {
                    lu = backup;
                }
            }
            assert_eq!(committed, 50, "seed {seed}: too many refused updates");
            assert_reach_kernels_agree(&format!("seed {seed}, 50 updates"), &lu, &mut rng);
            updated += 1;
        }
        assert!(updated >= 30);
    }

    #[test]
    fn pivot_rows_form_a_permutation() {
        let a = vec![
            vec![0.0, 1.0, 0.0],
            vec![0.0, 0.0, 2.0],
            vec![3.0, 0.0, 0.0],
        ];
        let (n, cols) = dense_to_columns(&a);
        let lu = LuFactorization::factorize(n, cols.iter().map(SparseVec::iter)).unwrap();
        let mut seen = vec![false; n];
        for k in 0..n {
            let r = lu.pivot_row(k);
            assert_eq!(lu.row_position(r), k);
            assert!(!seen[r]);
            seen[r] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
