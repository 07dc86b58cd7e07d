//! Time-expanded column generation for the time-stepped MCF (tsMCF).
//!
//! # Formulation
//!
//! The dense edge formulation ([`crate::tsmcf::solve_tsmcf_among_dense`])
//! carries one flow variable per (commodity, expanded edge) —
//! `O(K · |E| · steps)` columns — and its LPs are
//! the solver's hardest instances: huge degenerate plateaus where the simplex
//! spends tens of thousands of iterations shuffling flow between equivalent
//! time-expanded routings. This module reformulates tsMCF as a restricted-master
//! column-generation problem over **delivery-exact time-expanded path columns**:
//!
//! * a column of commodity `k = (s, d)` is a whole path of the time-expanded
//!   graph from `(layer 0, s)` to `(layer steps, d)` — fabric arcs move the
//!   shard, infinite-capacity self arcs buffer it at a node between steps;
//! * the master keeps one **capacity row per (fabric edge, step)**,
//!   `Σ_paths x − cap_e · U_t ≤ 0`, one **convexity row per commodity**,
//!   `Σ_p x_{k,p} = 1`, and the per-step utilization variables `U_t` with
//!   objective `min Σ_t U_t` — exactly the dense objective;
//! * pricing extracts the capacity duals `y_{e,t}` and convexity duals `μ_k`
//!   and runs **one Dijkstra tree per source** over the expanded graph under
//!   arc costs `w_{e,t} = max(0, −y_{e,t})` (self arcs are free): the tree
//!   prices every destination of that source — a commodity's whole time
//!   horizon — in a single heap run
//!   ([`a2a_topology::paths::weighted_shortest_path_tree`]; the time-expanded
//!   graph is itself a [`Topology`]);
//! * a path improves iff its dual cost is below `μ_k −`
//!   [`crate::PRICING_TOLERANCE`]; improving paths are appended through the
//!   incremental LP session
//!   ([`a2a_lp::Solver::add_columns`], basis and factorization carried over)
//!   and the run terminates with the no-improving-column certificate — LP
//!   optimality of the *unrestricted* path formulation, which equals the dense
//!   tsMCF optimum (any exact-conservation time-expanded flow decomposes into
//!   such paths, and junk flow never lowers `Σ_t U_t`).
//!
//! Because every unit of column flow travels a whole source→destination path,
//! solutions conserve flow *exactly* (`out == in` at intermediate vertices) and
//! deliver exactly one shard per commodity: the undelivered "junk" flow that
//! dense simplex vertices carry (conservation there is `out ≤ in`) cannot exist
//! here, so [`TsMcfSolution::pruned`] is a structural no-op on this backend —
//! it finds no junk to strip (at most it re-routes zero-cost ties within the
//! same arc support, never adding flow or raising a utilization) — and lowered
//! schedules (`a2a_schedule::ChunkedSchedule::from_tsmcf_exact`) need no pruning pass.
//! Pricing splices detours out of its columns (a path that leaves a base node
//! and returns is shortened to buffer there instead), so columns waste no
//! capacity on zero-dual-cost wandering either.
//!
//! The capacity rows, the dual weights, the pricing sweep and the path columns
//! are the crate's one path master ([`crate::colgen`]), the one pMCF prices
//! through, over the time-expanded graph. This module supplies the rest: each
//! holding node's layer-0 start and each demand's last-layer terminus, the
//! detour splice, the `U_t` columns and convexity rows, the earliest-arrival
//! seeds, and the extraction of per-step flows from the stored paths.
//!
//! # One solver, indexed by demand
//!
//! There is exactly one time-expanded master in this crate, and it is indexed
//! by [`TsDemand`] — "`amount` shards of the `origin → dest` commodity sit at
//! node `at`" — not by commodity: one convexity row `Σ_p x_{k,p} = amount_k`
//! per demand, one pricing source (Dijkstra tree) per *distinct holding node*.
//! The nominal all-to-all is the instance in which every shard still sits at
//! its source: [`solve_tsmcf_colgen_among_with`] maps the commodity set to
//! unit demands held at their origins ([`crate::tsmcf::at_source_demands`]),
//! seeds each with its earliest-arrival shortest path, and re-wraps the result
//! as a [`TsColGen`].
//! [`crate::residual::solve_residual_colgen`] feeds the same solver the
//! holdings of an interrupted run.
//!
//! This is the tsMCF backend at every size (the dense edge LP is kept only as
//! the equivalence suites' reference): the master has `steps · |E| + K` rows
//! instead of `K · steps · |V|`, columns grow on demand (typically a few per
//! commodity), and dual stabilization ([`crate::colgen::Stabilization`]) keeps
//! pricing convergent on the degenerate plateaus.

use std::collections::HashMap;

use a2a_lp::sparse::SparseVec;
use a2a_lp::{SimplexOptions, Solver, StandardForm, INF};
use a2a_topology::transform::TimeExpanded;
use a2a_topology::{paths, EdgeId, NodeId, Path, Topology};

use crate::colgen::{run_colgen, ColGenOptions, ColGenStats, Fold, PathMaster};
use crate::linkmcf::validate;
use crate::tsmcf::{at_source_demands, holding_step_bound, minimum_steps, TsMcfSolution};
use crate::types::{CommoditySet, McfError, McfResult};

/// Column weight below which a path's flow is dropped from the extracted
/// solution (same threshold the dense extraction uses).
const FLOW_TOL: f64 = 1e-9;

/// One positive-weight column of the incumbent master at termination: the
/// index of the commodity (or residual demand) that owns it, its weight in the
/// optimal basis, and the chain of base nodes it moves through.
///
/// The pool is what warm-started re-solves seed from: after a mid-run failure,
/// [`crate::residual`] cuts each incumbent trajectory at the node holding the
/// stranded shards and re-uses the suffix on the punctured fabric, so the
/// residual master starts from routes the nominal optimum already certified.
/// Node ids, unlike edge ids, survive [`Topology::without_edges`], so a column
/// means the same on the nominal and on every punctured fabric.
#[derive(Debug, Clone)]
pub struct TsColumn {
    /// Commodity index (for [`TsColGen`]) or demand index (for
    /// [`crate::residual::ResidualColGen`]) owning the column.
    pub owner: usize,
    /// Column weight in the final solution (shards travelling this path).
    pub weight: f64,
    /// The base nodes the column's fabric arcs traverse, in order, buffering
    /// steps compressed away: the source of its first arc, then the
    /// destination of every arc (empty when the column never moves). Residual
    /// columns begin at a mid-fabric holding node, not at the commodity origin.
    pub nodes: Vec<NodeId>,
}

/// Result of a column-generation tsMCF solve: the time-stepped solution (same
/// shape as the dense solver's, directly lowerable) plus the colgen statistics
/// and optimality certificate.
#[derive(Debug, Clone)]
pub struct TsColGen {
    /// The time-stepped schedule. Delivery-exact by construction:
    /// [`TsMcfSolution::pruned`] is a structural no-op on it (at most it shaves
    /// the tolerance-level dust a simplex vertex leaves on near-zero column
    /// weights — never whole undelivered branches).
    pub solution: TsMcfSolution,
    /// Per-round statistics and the optimality certificate flag.
    pub stats: ColGenStats,
    /// The incumbent column pool: every path column with positive weight in
    /// the final master, for warm-starting re-solves (see
    /// [`crate::residual::warm_seeds_from_columns`]).
    pub columns: Vec<TsColumn>,
}

/// One demand of the time-expanded master: `amount` shards of the original
/// `origin → dest` commodity currently held at node `at`. The nominal
/// all-to-all is one unit demand per commodity with `at == origin`; after a
/// mid-run failure [`crate::residual`] builds them from where the bytes are.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TsDemand {
    /// Source of the original commodity. Provenance label only — the flow
    /// starts at [`TsDemand::at`], not here.
    pub origin: NodeId,
    /// Final destination the shards must still reach.
    pub dest: NodeId,
    /// Node currently holding the shards: the layer-0 entry of the flow.
    pub at: NodeId,
    /// Shards still to deliver, as a fraction of one shard
    /// (`chunks / chunks_per_shard`). May exceed 1 when a snapshot merges
    /// holdings. Must be positive and finite.
    pub amount: f64,
}

/// The per-step utilization columns `U_0..U_{steps-1}`: coefficient `-cap`
/// on every capacity row of their step (objective 1 each).
fn utilization_columns(master: &PathMaster<'_>, expanded: &TimeExpanded) -> Vec<SparseVec> {
    let xg = &expanded.graph;
    (0..expanded.steps)
        .map(|t| {
            let entries = (0..xg.num_edges()).filter_map(|xe| {
                let r = master.capacity_row(xe)?;
                let e = xg.edge(xe);
                (expanded.layer_of(e.src) == t).then_some((r, -e.capacity))
            });
            SparseVec::from_entries(entries)
        })
        .collect()
}

/// The fabric arcs of an expanded path as `(step, base edge)` pairs, holding
/// arcs skipped.
fn fabric_arcs(topo: &Topology, expanded: &TimeExpanded, p: &Path) -> Vec<(usize, EdgeId)> {
    p.links()
        .filter(|&(u, v)| expanded.base_of(u) != expanded.base_of(v))
        .map(|(u, v)| {
            let base = topo
                .find_edge(expanded.base_of(u), expanded.base_of(v))
                .expect("expanded fabric arcs mirror base edges");
            (expanded.layer_of(u), base)
        })
        .collect()
}

/// Splices detours out of a time-expanded path: whenever the path revisits a
/// base node it already reached, the wandering segment in between is replaced
/// by free buffering at that node. Zero-dual-cost ties let Dijkstra emit such
/// detours (holding arcs count as hops, so the hop tie-break does not prefer
/// buffering); the spliced path costs no more under any non-negative arc
/// weights — improving candidates stay improving — and wastes no capacity
/// when lowered.
fn shortcut_detours(expanded: &TimeExpanded, p: &Path) -> Path {
    let mut out: Vec<usize> = Vec::new();
    let mut pos_of_base: HashMap<usize, usize> = HashMap::new();
    for &x in p.nodes() {
        let b = expanded.base_of(x);
        if let Some(&q) = pos_of_base.get(&b) {
            for k in q + 1..out.len() {
                let bb = expanded.base_of(out[k]);
                if pos_of_base.get(&bb) == Some(&k) {
                    pos_of_base.remove(&bb);
                }
            }
            out.truncate(q + 1);
            let t0 = expanded.layer_of(out[q]);
            for t in t0 + 1..=expanded.layer_of(x) {
                out.push(expanded.node_at(t, b));
            }
        } else {
            pos_of_base.insert(b, out.len());
            out.push(x);
        }
    }
    Path::new(out)
}

/// Expands a base-graph path to its earliest-departure time expansion,
/// buffering at the destination through the remaining steps.
fn expand_earliest(expanded: &TimeExpanded, p: &Path) -> Path {
    let mut nodes = Vec::with_capacity(expanded.steps + 1);
    for (i, &v) in p.nodes().iter().enumerate() {
        nodes.push(expanded.node_at(i, v));
    }
    for t in p.hops() + 1..=expanded.steps {
        nodes.push(expanded.node_at(t, p.dest()));
    }
    Path::new(nodes)
}

/// What the time-expanded solver returns, before an entry point wraps it in
/// its own solution type: `flows[demand][step]` lists the positive
/// `(base edge, amount)` transfers, ascending in edge id.
pub(crate) struct ExpandedSolve {
    pub(crate) flows: Vec<Vec<Vec<(EdgeId, f64)>>>,
    pub(crate) step_utilization: Vec<f64>,
    pub(crate) stats: ColGenStats,
    pub(crate) columns: Vec<TsColumn>,
}

/// The hop-shortest `from → to` base path: the seed every demand can fall
/// back on once its step budget covers its diameter.
pub(crate) fn shortest_seed(topo: &Topology, from: NodeId, to: NodeId) -> McfResult<Path> {
    paths::shortest_path(topo, from, to)
        .ok_or_else(|| McfError::BadTopology(format!("no {from}->{to} path exists for the seed")))
}

/// The time-expanded column-generation solver: `min Σ_t U_t` over `steps`
/// steps such that every demand's `amount` travels from its holding node to
/// its destination.
///
/// `seed_paths[k]` holds the base-graph seed paths of demand `k` (`at → dest`,
/// valid in `topo`, at most `steps` hops, at least one per demand); each is
/// lowered to its earliest-departure expansion. The caller has validated the
/// demands against `topo`; a step budget below their hop distances is
/// rejected here.
pub(crate) fn solve_expanded_colgen(
    topo: &Topology,
    demands: &[TsDemand],
    steps: usize,
    options: &ColGenOptions,
    seed_paths: &[Vec<Path>],
) -> McfResult<ExpandedSolve> {
    options.validate().map_err(McfError::BadArgument)?;
    let required = holding_step_bound(topo, demands)?;
    if steps < required {
        return Err(McfError::BadArgument(format!(
            "{steps} steps is below the demand diameter {required}"
        )));
    }
    let ndem = demands.len();
    debug_assert_eq!(seed_paths.len(), ndem, "one seed list per demand");
    let expanded = TimeExpanded::build(topo, steps);

    // Pricing sources are the *distinct holding nodes*: one Dijkstra tree per
    // holding node (at layer 0) prices every demand held there, each at its
    // destination in the last layer.
    let mut starts: Vec<NodeId> = Vec::new();
    let mut demands_of_start: Vec<Vec<usize>> = Vec::new();
    let mut index_of_start: HashMap<NodeId, usize> = HashMap::new();
    for (k, d) in demands.iter().enumerate() {
        let si = *index_of_start.entry(d.at).or_insert_with(|| {
            starts.push(expanded.node_at(0, d.at));
            demands_of_start.push(Vec::new());
            starts.len() - 1
        });
        demands_of_start[si].push(k);
    }

    // Row layout: the master's capacity row per finite-capacity fabric arc
    // (`Σ_paths x − cap_e · U_t <= 0`; holding arcs buffer for free), then one
    // convexity row (== amount) per demand, so columns carry shard units.
    let (mut master, mut row_lower, mut row_upper) = PathMaster::new(
        &expanded.graph,
        starts,
        demands_of_start,
        demands
            .iter()
            .map(|d| expanded.node_at(steps, d.dest))
            .collect(),
        Fold::trivial(&expanded.graph, ndem),
        |_| 0.0,
    );
    for d in demands {
        row_lower.push(d.amount);
        row_upper.push(d.amount);
    }

    // Columns: U_0..U_{steps-1} first (objective 1 each), then the seeds'
    // earliest-departure expansions in demand order.
    let mut cols: Vec<SparseVec> = utilization_columns(&master, &expanded);
    for (k, set) in seed_paths.iter().enumerate() {
        for p in set {
            cols.extend(master.push_column(k, expand_earliest(&expanded, p)));
        }
    }
    let ncols = cols.len();
    let mut obj = vec![0.0; ncols];
    obj[..steps].fill(1.0);
    let sf = StandardForm {
        nrows: row_lower.len(),
        cols,
        obj,
        lower: vec![0.0; ncols],
        upper: vec![INF; ncols],
        row_lower,
        row_upper,
    };

    let mut solver = Solver::new_owned(sf, SimplexOptions::default())?;

    // The U_t columns occupy structural columns 0..steps; path columns follow.
    let (sol, stats) = run_colgen(
        &mut solver,
        &mut master,
        steps,
        options,
        |obj| obj,
        |p| shortcut_detours(&expanded, &p),
    )?;

    // Extraction: aggregate column weights per (demand, step, base edge) and
    // collect the positive-weight incumbent pool. Convexity equality makes
    // delivery exactly `amount`, and paths conserve flow exactly, so the
    // solution is junk-free by construction.
    let mut columns: Vec<TsColumn> = Vec::new();
    let mut agg: Vec<Vec<HashMap<EdgeId, f64>>> = vec![vec![HashMap::new(); steps]; ndem];
    for (j, (k, path)) in master.into_columns().into_iter().enumerate() {
        let w = sol.x[steps + j];
        if w <= FLOW_TOL {
            continue;
        }
        let arcs = fabric_arcs(topo, &expanded, &path);
        for &(t, base) in &arcs {
            *agg[k][t].entry(base).or_insert(0.0) += w;
        }
        let first = arcs.first().map(|&(_, base)| topo.edge(base).src);
        let rest = arcs.iter().map(|&(_, base)| topo.edge(base).dst);
        columns.push(TsColumn {
            owner: k,
            weight: w,
            nodes: first.into_iter().chain(rest).collect(),
        });
    }
    let flows = agg
        .into_iter()
        .map(|per_step| {
            per_step
                .into_iter()
                .map(|map| {
                    let mut list: Vec<(EdgeId, f64)> =
                        map.into_iter().filter(|&(_, a)| a > FLOW_TOL).collect();
                    list.sort_unstable_by_key(|&(e, _)| e);
                    list
                })
                .collect()
        })
        .collect();
    Ok(ExpandedSolve {
        flows,
        step_utilization: (0..steps).map(|t| sol.x[t].max(0.0)).collect(),
        stats,
        columns,
    })
}

/// Solves tsMCF by column generation for an all-to-all among all nodes, with
/// the minimum feasible number of steps and default options.
pub fn solve_tsmcf_colgen_auto(topo: &Topology) -> McfResult<TsColGen> {
    let commodities = CommoditySet::all_pairs(topo.num_nodes());
    let steps = minimum_steps(topo, &commodities)?;
    solve_tsmcf_colgen_among_with(topo, commodities, steps, &ColGenOptions::default())
}

/// Solves tsMCF by column generation for an explicit commodity set (e.g. host
/// vertices of a host-bottlenecked augmented topology), step count and
/// column-generation options (round cap, partial pricing, dual stabilization,
/// column-pool aging — [`ColGenOptions::stabilized`] is the recommended
/// configuration for the degenerate time-expanded masters). Each commodity is
/// seeded with its earliest-arrival shortest path.
pub fn solve_tsmcf_colgen_among_with(
    topo: &Topology,
    commodities: CommoditySet,
    steps: usize,
    options: &ColGenOptions,
) -> McfResult<TsColGen> {
    validate(topo, &commodities)?;
    let demands = at_source_demands(&commodities);

    let seed_paths: Vec<Vec<Path>> = commodities
        .iter()
        .map(|(_, s, d)| Ok(vec![shortest_seed(topo, s, d)?]))
        .collect::<McfResult<_>>()?;

    let solved = solve_expanded_colgen(topo, &demands, steps, options, &seed_paths)?;
    Ok(TsColGen {
        solution: TsMcfSolution {
            commodities,
            steps,
            step_utilization: solved.step_utilization,
            flows: solved.flows,
        },
        stats: solved.stats,
        columns: solved.columns,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tsmcf::solve_tsmcf_among_dense;
    use a2a_topology::generators;

    /// All-pairs colgen tsMCF at an explicit step budget, default options.
    fn solve_tsmcf_colgen(topo: &Topology, steps: usize) -> McfResult<TsColGen> {
        let commodities = CommoditySet::all_pairs(topo.num_nodes());
        solve_tsmcf_colgen_among_with(topo, commodities, steps, &ColGenOptions::default())
    }

    /// The dense reference for an all-to-all among all nodes, at `steps` or the
    /// minimum step count.
    fn dense(topo: &Topology, steps: Option<usize>) -> TsMcfSolution {
        let commodities = CommoditySet::all_pairs(topo.num_nodes());
        let steps = steps.unwrap_or_else(|| minimum_steps(topo, &commodities).unwrap());
        solve_tsmcf_among_dense(topo, commodities, steps).unwrap()
    }

    /// Aggregated per-(commodity, step, edge) flow of a solution, for
    /// order-insensitive comparisons.
    fn flow_map(sol: &TsMcfSolution) -> HashMap<(usize, usize, EdgeId), f64> {
        let mut map = HashMap::new();
        for (idx, _, _) in sol.commodities.iter() {
            for t in 0..sol.steps {
                for &(e, a) in &sol.flows[idx][t] {
                    *map.entry((idx, t, e)).or_insert(0.0) += a;
                }
            }
        }
        map
    }

    #[test]
    fn complete_graph_finishes_in_one_step() {
        let topo = generators::complete(3);
        let cg = solve_tsmcf_colgen(&topo, 1).unwrap();
        assert!(cg.stats.proved_optimal);
        assert_eq!(cg.solution.steps, 1);
        assert!(cg.solution.check_consistency(&topo, 1e-6).is_empty());
        assert!((cg.solution.total_utilization() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn agrees_with_dense_tsmcf_on_small_graphs() {
        for topo in [
            generators::complete(3),
            generators::ring(3),
            generators::hypercube(2),
            generators::hypercube(3),
            generators::torus(&[3, 3]),
        ] {
            let dense = dense(&topo, None);
            let cg = solve_tsmcf_colgen(&topo, dense.steps).unwrap();
            assert!(cg.stats.proved_optimal, "{}: certificate", topo.name());
            assert_eq!(cg.solution.steps, dense.steps);
            assert!(
                (cg.solution.total_utilization() - dense.total_utilization()).abs()
                    <= 1e-5 * (1.0 + dense.total_utilization()),
                "{}: colgen U = {} vs dense U = {}",
                topo.name(),
                cg.solution.total_utilization(),
                dense.total_utilization()
            );
            assert!(cg.solution.check_consistency(&topo, 1e-6).is_empty());
        }
    }

    /// The junk-flow closure, on the seed-7 random regular graph whose *dense*
    /// vertex carries whole undelivered shard copies: colgen flow conserves
    /// exactly at every intermediate node (zero junk by construction), and
    /// pruning is a structural no-op — it strips nothing, never adds flow, and
    /// never raises a utilization (at most it re-routes zero-cost ties).
    #[test]
    fn pruning_is_a_structural_noop() {
        let topo = generators::random_regular(8, 3, 7);
        let cg = solve_tsmcf_colgen_auto(&topo).unwrap();
        assert!(cg.stats.proved_optimal);
        // Zero junk: per commodity, aggregate in == out exactly at every base
        // node except the endpoints (dense conservation is only `out <= in`, and
        // this instance's dense vertex leaks > 0.5 shards — pinned in
        // `tsmcf::prune_tests`).
        for (idx, s, d) in cg.solution.commodities.iter() {
            let mut net = vec![0.0f64; topo.num_nodes()];
            for t in 0..cg.solution.steps {
                for &(e, a) in &cg.solution.flows[idx][t] {
                    let edge = topo.edge(e);
                    net[edge.dst] += a;
                    net[edge.src] -= a;
                }
            }
            for (v, &flux) in net.iter().enumerate() {
                let expect = if v == s {
                    -1.0
                } else if v == d {
                    1.0
                } else {
                    0.0
                };
                assert!(
                    (flux - expect).abs() < 1e-6,
                    "commodity {s}->{d}: node {v} net {flux}, expected {expect}"
                );
            }
        }
        let pruned = cg.solution.pruned(&topo);
        let before = flow_map(&cg.solution);
        let after = flow_map(&pruned);
        for (key, b) in &after {
            let a = before.get(key).copied().unwrap_or(0.0);
            assert!(b <= &(a + 1e-9), "pruning added flow on {key:?}");
        }
        for (t, (&u_before, &u_after)) in cg
            .solution
            .step_utilization
            .iter()
            .zip(&pruned.step_utilization)
            .enumerate()
        {
            // The LP's U_t can sit marginally above the recomputed busiest-link
            // fraction on degenerate steps; it is never below it.
            assert!(
                u_after <= u_before + 1e-9,
                "step {t}: pruned utilization {u_after} above original {u_before}"
            );
        }
        // Pruning found no junk: the delivered shard survives in full.
        assert!(pruned.check_consistency(&topo, 1e-6).is_empty());
    }

    #[test]
    fn extra_steps_never_hurt() {
        for topo in [generators::hypercube(2), generators::torus(&[3, 3])] {
            let tight = solve_tsmcf_colgen(&topo, 2).unwrap();
            let slack = solve_tsmcf_colgen(&topo, 3).unwrap();
            assert!(tight.stats.proved_optimal && slack.stats.proved_optimal);
            assert!(
                slack.solution.total_utilization() <= tight.solution.total_utilization() + 1e-5
            );
            assert!(slack.solution.check_consistency(&topo, 1e-6).is_empty());
        }
    }

    #[test]
    fn too_few_steps_is_rejected() {
        let topo = generators::ring(4);
        assert!(matches!(
            solve_tsmcf_colgen(&topo, 2).unwrap_err(),
            McfError::BadArgument(_)
        ));
        assert!(matches!(
            solve_tsmcf_colgen(&topo, 0).unwrap_err(),
            McfError::BadArgument(_)
        ));
    }

    #[test]
    fn zero_caps_are_rejected() {
        use crate::colgen::Stabilization;
        let topo = generators::hypercube(2);
        let zero_caps = [
            ColGenOptions {
                max_rounds: 0,
                ..ColGenOptions::default()
            },
            // Out-of-range smoothing weights fail the same way instead of
            // panicking mid-solve.
            ColGenOptions {
                stabilization: Stabilization::Smoothing { alpha: 1.0 },
                ..ColGenOptions::default()
            },
        ];
        for opts in zero_caps
            .into_iter()
            .chain(ColGenOptions::malformed_numeric_cases())
        {
            let err = solve_tsmcf_colgen_among_with(&topo, CommoditySet::all_pairs(4), 2, &opts)
                .unwrap_err();
            assert!(matches!(err, McfError::BadArgument(_)));
        }
    }

    /// Stabilized pricing reaches the same certified optimum (misprice sweeps
    /// re-establish the certificate at raw duals).
    #[test]
    fn stabilization_preserves_the_optimum() {
        let topo = generators::torus(&[3, 3]);
        let plain = solve_tsmcf_colgen_auto(&topo).unwrap();
        let stab = solve_tsmcf_colgen_among_with(
            &topo,
            CommoditySet::all_pairs(topo.num_nodes()),
            plain.solution.steps,
            &ColGenOptions::stabilized(),
        )
        .unwrap();
        assert!(plain.stats.proved_optimal && stab.stats.proved_optimal);
        assert!(
            (plain.solution.total_utilization() - stab.solution.total_utilization()).abs() < 1e-5,
            "plain U = {} vs stabilized U = {}",
            plain.solution.total_utilization(),
            stab.solution.total_utilization()
        );
    }

    /// Commodity subsets (host endpoints of an augmented fabric) route and
    /// deliver exactly like the dense solver.
    #[test]
    fn commodity_subset_between_hosts() {
        use a2a_topology::transform::HostNicAugmented;
        let base = generators::complete(3);
        let aug = HostNicAugmented::build(&base, 2.0);
        let commodities = CommoditySet::among(aug.hosts.clone());
        let steps = minimum_steps(&aug.graph, &commodities).unwrap();
        let dense = solve_tsmcf_among_dense(&aug.graph, commodities.clone(), steps).unwrap();
        let cg = solve_tsmcf_colgen_among_with(
            &aug.graph,
            commodities,
            steps,
            &ColGenOptions::default(),
        )
        .unwrap();
        assert!(cg.stats.proved_optimal);
        assert!(cg.solution.check_consistency(&aug.graph, 1e-6).is_empty());
        assert!(
            (cg.solution.total_utilization() - dense.total_utilization()).abs()
                <= 1e-5 * (1.0 + dense.total_utilization())
        );
    }

    /// A round cap short of convergence returns the restricted optimum without
    /// the certificate.
    #[test]
    fn round_cap_reports_unproven() {
        let topo = generators::torus(&[3, 3]);
        let opts = ColGenOptions {
            max_rounds: 1,
            ..ColGenOptions::default()
        };
        let cg = solve_tsmcf_colgen_among_with(
            &topo,
            CommoditySet::all_pairs(topo.num_nodes()),
            2,
            &opts,
        )
        .unwrap();
        assert!(!cg.stats.proved_optimal);
        assert_eq!(cg.stats.num_rounds(), 1);
        assert_eq!(cg.stats.rounds[0].columns_added, 0);
        // Even the seed-only restricted master delivers every shard.
        assert!(cg.solution.check_consistency(&topo, 1e-6).is_empty());
    }

    /// The dense reference with an explicit step budget and colgen with the
    /// same budget agree above the minimum too.
    #[test]
    fn explicit_step_budgets_agree() {
        let topo = generators::hypercube(2);
        for steps in [2, 3] {
            let dense = dense(&topo, Some(steps));
            let cg = solve_tsmcf_colgen(&topo, steps).unwrap();
            assert!(cg.stats.proved_optimal);
            assert!(
                (cg.solution.total_utilization() - dense.total_utilization()).abs()
                    <= 1e-5 * (1.0 + dense.total_utilization()),
                "steps {steps}: {} vs {}",
                cg.solution.total_utilization(),
                dense.total_utilization()
            );
        }
    }
}
