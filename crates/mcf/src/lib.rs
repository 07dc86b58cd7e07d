//! # a2a-mcf
//!
//! Multi-commodity-flow synthesis of all-to-all collective communication schedules —
//! the primary contribution of "Efficient all-to-all Collective Communication Schedules
//! for Direct-connect Topologies" (HPDC 2024).
//!
//! The crate contains one module per formulation in §3 of the paper plus the analysis
//! helpers used throughout the evaluation:
//!
//! * [`types`] — commodity sets, link-flow solutions, weighted path schedules and
//!   time-stepped flow solutions shared by every algorithm.
//! * [`linkmcf`] — the original link-variable max-concurrent MCF (§3.1.1), one LP with
//!   `O(N³)` variables.
//! * [`decomposed`] — the paper's scalability contribution (§3.1.2): a master
//!   source-grouped LP with `O(N²)` variables followed by `N` independent child LPs
//!   (parallelised with rayon) that recover per-commodity flows.
//! * [`tsmcf`] — what every time-stepped MCF plan (§3.1.3, store-and-forward / ML
//!   accelerator fabrics, including the host-bottleneck variant of Fig. 2) shares:
//!   the result type [`tsmcf::TsMcfSolution`] and its junk-flow pruning pass, and —
//!   written once over `(demands, steps, flows)` — the causality/delivery check and
//!   the step bound ([`tsmcf::minimum_steps`]). Also the dense edge formulation
//!   (one flow variable per (commodity, expanded edge), conservation `out ≤ in`),
//!   kept as one reference function for the equivalence suites:
//!   [`tsmcf::solve_tsmcf_among_dense`].
//! * [`pmcf`] — the path-variable MCF (§3.1.4). One master LP, built directly in
//!   standard form: restricted-master column generation
//!   ([`pmcf::solve_path_mcf_colgen_among`]) grows the path set adaptively by
//!   dual-cost shortest-path pricing and certifies optimality of the unrestricted
//!   path LP on any topology; it folds the master by the fabric's automorphism
//!   group (one demand row per commodity orbit, one capacity row per arc orbit;
//!   GenKautz-40's 1,560 commodities are 156 orbits). An explicit candidate path
//!   set (edge-disjoint, shortest, bounded length —
//!   [`pmcf::solve_path_mcf_among`]) is that same master, unfolded, solved
//!   once.
//! * [`colgen`] — the column-generation engine shared by `pmcf` and the
//!   time-expanded master of `tscolgen`: one crate-private path master (the
//!   arc→row map, dual weights, the per-source Dijkstra pricing sweep, path
//!   columns and their `(owner, path)` record, written once for both, and
//!   folded by orbits of a group of automorphisms where the solver has one) and the
//!   round loop over it, with dual stabilization (Wentges smoothing),
//!   drift-based partial pricing, a serial deterministic pricing sweep, and
//!   column-pool aging. Its public surface is the options and statistics
//!   ([`ColGenOptions`], [`ColGenStats`]); the certificate invariant lives in
//!   its module docs.
//! * [`tscolgen`] — the tsMCF solver
//!   ([`tscolgen::solve_tsmcf_colgen_among_with`]): column generation over
//!   **delivery-exact time-expanded path columns**. Every column is a whole
//!   `(0, at) → (steps, d)` path of the time-expanded graph, so solutions
//!   conserve flow exactly and carry zero undelivered "junk" flow by
//!   construction ([`tsmcf::TsMcfSolution::pruned`] is a structural no-op on
//!   them). The one solver is indexed by [`tscolgen::TsDemand`] ("`amount`
//!   shards of `origin → dest` sit at `at`"); the nominal all-to-all is its
//!   all-at-source instance. One Dijkstra tree per holding node over
//!   per-(edge, step) dual costs prices a demand's whole time horizon in one
//!   run; on the degenerate time-expanded LPs this is 40–400x faster than the
//!   dense formulation at 8–9 endpoints and the only backend that finishes
//!   above them.
//! * [`residual`] — re-planning after a mid-run failure: a snapshot of where
//!   the bytes are becomes a list of [`tscolgen::TsDemand`]s handed to that
//!   same solver on the punctured topology
//!   ([`residual::solve_residual_colgen`]), warm-started from the nominal
//!   solve's incumbent column pool ([`tscolgen::TsColumn`]). The plan is
//!   checked and lowered by the nominal code.
//! * [`extract`] — widest-path extraction (MCF-extP, §3.2.1) that converts link flows
//!   into weighted path schedules for source-routed fabrics.
//! * [`bounds`] — the analytic throughput upper bound and the Theorem-1 lower bound on
//!   all-to-all completion time.
//! * [`analysis`] — schedule-quality metrics (max link load, all-to-all time,
//!   throughput conversion) used by the figures.

pub mod analysis;
pub mod bounds;
pub mod colgen;
pub mod decomposed;
pub mod extract;
pub mod linkmcf;
pub mod pmcf;
pub mod residual;
pub mod tscolgen;
pub mod tsmcf;
pub mod types;

pub use analysis::{max_link_load_of_paths, path_schedule_all_to_all_time, throughput_gbps};
pub use bounds::{lower_bound_all_to_all_time, throughput_upper_bound};
pub use colgen::{ColGenOptions, ColGenRound, ColGenStats, Stabilization, PRICING_TOLERANCE};
pub use decomposed::{
    solve_decomposed_mcf, solve_decomposed_mcf_with, DecomposedMcf, DecomposedOptions,
    DecomposedTimings,
};
pub use extract::extract_widest_paths;
pub use linkmcf::solve_link_mcf;
pub use pmcf::{solve_path_mcf, solve_path_mcf_colgen_among, ColGenPathMcf, PathSetKind};
pub use residual::{
    residual_minimum_steps, solve_residual_colgen, warm_seeds_from_columns, ResidualColGen,
    ResidualSolution,
};
pub use tscolgen::{
    solve_tsmcf_colgen_among_with, solve_tsmcf_colgen_auto, TsColGen, TsColumn, TsDemand,
};
pub use tsmcf::TsMcfSolution;
pub use types::{CommoditySet, LinkFlowSolution, McfError, McfResult, PathSchedule};
