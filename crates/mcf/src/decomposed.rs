//! The decomposed link-based MCF (§3.1.2) — the paper's scalability contribution.
//!
//! Instead of one LP over `N(N-1)` commodities, the problem is split into:
//!
//! 1. a **master LP** over `N` source-grouped flows (`O(N²)` variables for bounded
//!    degree), which yields the optimal concurrent rate `F` and, per source, an
//!    aggregate flow that delivers `F` to every other endpoint; and
//! 2. `N` independent **child LPs**, one per source, which split that aggregate flow
//!    into per-destination flows on the capacity-restricted subgraph. The children are
//!    embarrassingly parallel and are dispatched with rayon.
//!
//! Both builders emit only what can carry flow: the master has no column for an
//! edge into its own source, and a child gives destination `d` a column only for
//! the master-used edges on some `s → d` path (the restricted subgraph's
//! reachability, one graph search each way), with a capacity row only where some
//! destination keeps the edge.
//!
//! The decomposition preserves the optimal `F` of the original formulation (the master
//! is a relaxation obtained by aggregating commodities per source, and the children
//! prove the aggregate is splittable), while reducing the dominant LP from `O(N³)` to
//! `O(N²)` variables.
//!
//! ## One orbit instead of `N` copies
//!
//! On a torus every source's block of the master is a relabelled copy of every
//! other's. Whenever an automorphism `π_s` of the fabric takes the first endpoint
//! `s0` to each endpoint `s` (arcs to arcs of equal capacity, endpoints to
//! endpoints), [`solve_decomposed_mcf_with`] solves for `s0` alone. Every
//! automorphism maps feasible flows to feasible flows of the same `F`, and the LP is
//! convex, so averaging an optimal solution over the finite group the `π_s`
//! generate gives an optimal solution the group leaves unchanged: one with
//! `f_s = π_s · f_0` for every `s` (Bödi, Herr & Joswig, "Algorithms for highly
//! symmetric linear and integer programs", *Math. Program.* 137, 2013). Restricting
//! the master to such flows therefore loses nothing. The **orbit master** has one
//! source block — `s0`'s columns and conservation rows — and, per edge `e`, the
//! folded capacity row `Σ_s f_0(π_s⁻¹(e)) ≤ c_e`, each distinct row kept once (4
//! rows on torus-8×8). It starts from the same crash as the general master. One
//! child LP splits `f_0` into per-destination flows; every other source's aggregate
//! and per-destination flows are their images under `π_s`.
//!
//! [`a2a_topology::symmetry::transversal`] finds the `π_s` (tori, hypercubes,
//! rings, complete bipartite graphs, the host-bottleneck torus among its hosts, in
//! any node order) or reports that it cannot (meshes, generalized Kautz graphs,
//! punctured or re-weighted tori); then the general master over every source and
//! one child per source run as before. [`solve_master_with`] is always the general
//! master.

use std::collections::HashSet;
use std::time::Instant;

use a2a_lp::{
    triangular_crash, BasisStatus, ConstraintSense, LpProblem, SimplexOptions, VarId, INF,
};
use a2a_topology::{symmetry, EdgeId, NodeId, Topology};
use rayon::prelude::*;

use crate::linkmcf::{columns, no_fixed_columns, validate, FLOW_TOL};
use crate::types::{CommoditySet, LinkFlowSolution, McfError, McfResult};

/// Solver configuration for the decomposed MCF: how the master and the child
/// LPs start.
#[derive(Debug, Clone)]
pub struct DecomposedOptions {
    /// Seed each child LP with a crash basis projected from the master solution
    /// (columns on edges that carry master flow are preferred into the basis)
    /// instead of starting every child from the all-slack basis.
    pub warm_start_children: bool,
    /// Start the master LP from a structural crash basis instead of the
    /// all-slack basis: `F` gets a finite upper bound from the endpoint cut
    /// argument and is crashed nonbasic *at* that bound, while per-source BFS
    /// shortest-path-tree edges are preferred into the basis. All basic columns
    /// have zero cost, so the crash is dual-feasible by construction and the
    /// (generally primal-infeasible) start is handed to the dual simplex,
    /// which avoids the long degenerate primal phase-1 crawl on large tori.
    pub crash_master: bool,
}

impl Default for DecomposedOptions {
    fn default() -> Self {
        Self {
            warm_start_children: true,
            crash_master: true,
        }
    }
}

/// Wall-clock breakdown of a decomposed solve. On a single-core machine the children
/// run sequentially; `max_child_secs` is the per-child critical path, i.e. the child
/// contribution to runtime if the children were spread over `N` cores as in the paper.
///
/// On a fabric solved as one orbit (see the module docs) one child LP runs and every
/// other source's child is *mapped* from it: a mapped child reports the time its
/// mapping took and zero iterations, pivots and refactorizations, so the totals
/// count exactly the LP work done.
#[derive(Debug, Clone)]
pub struct DecomposedTimings {
    /// Time spent in the master (source-grouped) LP, including the symmetry search
    /// that decides which master to build.
    pub master_secs: f64,
    /// Time spent in each child LP (or in mapping it), indexed by source endpoint
    /// position.
    pub child_secs: Vec<f64>,
    /// Simplex iterations of the master LP.
    pub master_iterations: usize,
    /// Master iterations taken by the dual simplex phase (nonzero exactly when
    /// the crash basis engaged the dual method; see
    /// [`DecomposedOptions::crash_master`]).
    pub master_dual_iterations: usize,
    /// Basis changes (pivots) of the master LP.
    pub master_pivots: usize,
    /// Simplex iterations per child LP (0 for a mapped child).
    pub child_iterations: Vec<usize>,
    /// Iterations taken by the dual simplex phase per child LP. A child's
    /// projected crash basis prices dual-feasible (every cost is positive and
    /// every nonbasic column sits at its zero lower bound), so with
    /// [`DecomposedOptions::warm_start_children`] the children solve dually.
    pub child_dual_iterations: Vec<usize>,
    /// Basis changes (pivots) per child LP.
    pub child_pivots: Vec<usize>,
    /// Basis refactorizations of the master LP.
    pub master_refactorizations: usize,
    /// Basis refactorizations per child LP.
    pub child_refactorizations: Vec<usize>,
}

impl DecomposedTimings {
    /// Total child time (sequential execution).
    pub fn total_child_secs(&self) -> f64 {
        self.child_secs.iter().sum()
    }

    /// Longest single child (parallel critical path).
    pub fn max_child_secs(&self) -> f64 {
        self.child_secs.iter().copied().fold(0.0, f64::max)
    }

    /// Estimated runtime with all children run in parallel on `N` cores (what the
    /// paper reports for MCF-decomp). When the fabric is solved as one orbit, the one
    /// solved child is the critical path, and this is the sequential time less the
    /// mapped children's (small) mapping time.
    pub fn parallel_estimate_secs(&self) -> f64 {
        self.master_secs + self.max_child_secs()
    }

    /// Total simplex iterations across the master and every child.
    pub fn total_iterations(&self) -> usize {
        self.master_iterations + self.child_iterations.iter().sum::<usize>()
    }
}

/// Result of the decomposed MCF.
#[derive(Debug, Clone)]
pub struct DecomposedMcf {
    /// Per-commodity flows (same shape as the original formulation's output).
    pub solution: LinkFlowSolution,
    /// Aggregate per-source flows from the master LP, indexed by source endpoint
    /// position within the commodity set.
    pub source_flows: Vec<Vec<(EdgeId, f64)>>,
    /// Timing breakdown.
    pub timings: DecomposedTimings,
}

/// Output of the master LP alone (used by the Fig. 7 runtime study and by callers that
/// only need `F`).
#[derive(Debug, Clone)]
pub struct MasterSolution {
    /// Optimal concurrent flow value.
    pub flow_value: f64,
    /// Aggregate flow per source endpoint: `(edge, flow)` pairs.
    pub source_flows: Vec<Vec<(EdgeId, f64)>>,
    /// Time spent solving the master LP.
    pub elapsed_secs: f64,
    /// Simplex iterations of the master LP.
    pub iterations: usize,
    /// Master iterations taken by the dual simplex phase.
    pub dual_iterations: usize,
    /// Basis changes (pivots) of the master LP.
    pub pivots: usize,
    /// Basis refactorizations of the master LP.
    pub refactorizations: usize,
}

/// Per-child solve output: per-destination flows plus solver statistics.
struct ChildOutcome {
    per_dest: Vec<Vec<(EdgeId, f64)>>,
    stats: ChildStats,
}

/// What one child cost; all zero but the time for a mapped child.
#[derive(Clone, Copy, Default)]
struct ChildStats {
    secs: f64,
    iterations: usize,
    dual_iterations: usize,
    pivots: usize,
    refactorizations: usize,
}

/// An automorphism of the fabric as the solve applies it: the image of every node
/// and of every edge.
struct Relabelling {
    nodes: Vec<NodeId>,
    edges: Vec<EdgeId>,
}

impl Relabelling {
    fn new(topo: &Topology, nodes: Vec<NodeId>) -> Self {
        let image = |e: &a2a_topology::Edge| topo.find_edge(nodes[e.src], nodes[e.dst]);
        let edges = topo.edges().iter().map(image).collect::<Option<_>>();
        Self {
            edges: edges.expect("an automorphism maps arcs to arcs"),
            nodes,
        }
    }
}

/// `flow` carried through `image` (`None`: the identity), in edge order.
fn carry(image: Option<&Relabelling>, flow: &[(EdgeId, f64)]) -> Vec<(EdgeId, f64)> {
    let Some(image) = image else {
        return flow.to_vec();
    };
    let mut carried: Vec<(EdgeId, f64)> = flow.iter().map(|&(e, f)| (image.edges[e], f)).collect();
    carried.sort_unstable_by_key(|&(e, _)| e);
    carried
}

/// The source orbits a master is built over. Orbit `o` gets the columns and
/// conservation rows of its representative, the endpoint at position `reps[o]`.
/// The endpoint at position `i` sends orbit `members[i].0`'s flow carried through
/// `members[i].1` (`None` for a representative, which sends its own).
struct SourceOrbits {
    reps: Vec<usize>,
    members: Vec<(usize, Option<Relabelling>)>,
}

impl SourceOrbits {
    /// Every one of `k` sources its own orbit: the general master.
    fn trivial(k: usize) -> Self {
        Self {
            reps: (0..k).collect(),
            members: (0..k).map(|i| (i, None)).collect(),
        }
    }

    /// One orbit, represented by the first endpoint: `transversal[i]` maps it to
    /// the endpoint at position `i` (`transversal[0]` is the identity).
    fn transitive(topo: &Topology, transversal: Vec<Vec<NodeId>>) -> Self {
        let members = transversal
            .into_iter()
            .enumerate()
            .map(|(i, nodes)| (0, (i > 0).then(|| Relabelling::new(topo, nodes))))
            .collect();
        Self {
            reps: vec![0],
            members,
        }
    }
}

/// Solves the decomposed MCF for an all-to-all among all nodes.
pub fn solve_decomposed_mcf(topo: &Topology) -> McfResult<DecomposedMcf> {
    solve_decomposed_mcf_with(
        topo,
        CommoditySet::all_pairs(topo.num_nodes()),
        &DecomposedOptions::default(),
    )
}

/// Solves the decomposed MCF for an explicit commodity set with explicit solver
/// options (the tests and the benchmark compare cold and warm starts here).
///
/// A fabric on which [`symmetry::transversal`] finds an automorphism from the first
/// endpoint to every other is solved as one orbit (see the module docs): one source's
/// master and one child LP, every other source mapped.
pub fn solve_decomposed_mcf_with(
    topo: &Topology,
    commodities: CommoditySet,
    options: &DecomposedOptions,
) -> McfResult<DecomposedMcf> {
    let _obs = a2a_obs::span("decomposed.solve");
    validate(topo, &commodities)?;
    let endpoints = commodities.endpoints();
    let search = Instant::now();
    let transversal = {
        let _obs = a2a_obs::span("decomposed.symmetry");
        symmetry::transversal(topo, endpoints)
    };
    let orbits = match transversal {
        Some(transversal) => SourceOrbits::transitive(topo, transversal),
        None => SourceOrbits::trivial(endpoints.len()),
    };
    let search_secs = search.elapsed().as_secs_f64();
    let mut master = solve_master_over(topo, &commodities, &orbits, options)?;
    master.elapsed_secs += search_secs;
    let flow_value = master.flow_value;

    // Child LPs, one per orbit representative, dispatched in parallel.
    let solved: Vec<McfResult<ChildOutcome>> = orbits
        .reps
        .par_iter()
        .map(|&rep| {
            solve_child(
                topo,
                &commodities,
                endpoints[rep],
                &master.source_flows[rep],
                flow_value,
                options,
            )
        })
        .collect();
    let solved: Vec<ChildOutcome> = solved.into_iter().collect::<McfResult<_>>()?;

    let mut stats = Vec::with_capacity(endpoints.len());
    let mut flows = vec![Vec::new(); commodities.len()];
    for (s_idx, (orbit, image)) in orbits.members.iter().enumerate() {
        let start = Instant::now();
        let (rep, child) = (orbits.reps[*orbit], &solved[*orbit]);
        for (d_pos, flow) in child.per_dest.iter().enumerate() {
            // d_pos enumerates the representative's destinations in endpoint
            // order, skipping the representative.
            let d = destination_at(endpoints, rep, d_pos);
            let d = image.as_ref().map_or(d, |image| image.nodes[d]);
            let idx = commodities
                .index_of(endpoints[s_idx], d)
                .expect("destination is an endpoint");
            flows[idx] = carry(image.as_ref(), flow);
        }
        stats.push(match image {
            None => child.stats,
            Some(_) => ChildStats {
                secs: start.elapsed().as_secs_f64(),
                ..ChildStats::default()
            },
        });
    }
    let per_child = |field: fn(&ChildStats) -> usize| stats.iter().map(field).collect();

    Ok(DecomposedMcf {
        solution: LinkFlowSolution {
            commodities,
            flow_value,
            flows,
        },
        source_flows: master.source_flows,
        timings: DecomposedTimings {
            master_secs: master.elapsed_secs,
            child_secs: stats.iter().map(|c| c.secs).collect(),
            master_iterations: master.iterations,
            master_dual_iterations: master.dual_iterations,
            master_pivots: master.pivots,
            child_iterations: per_child(|c| c.iterations),
            child_dual_iterations: per_child(|c| c.dual_iterations),
            child_pivots: per_child(|c| c.pivots),
            master_refactorizations: master.refactorizations,
            child_refactorizations: per_child(|c| c.refactorizations),
        },
    })
}

fn destination_at(endpoints: &[NodeId], s_idx: usize, d_pos: usize) -> NodeId {
    let mut pos = d_pos;
    if pos >= s_idx {
        pos += 1;
    }
    endpoints[pos]
}

/// Solves just the master (source-grouped) LP: `maximize F` subject to per-edge
/// capacities and the grouped conservation constraint (8) of the paper. This is
/// always the general master, one source block per endpoint; no symmetry is used.
pub fn solve_master_with(
    topo: &Topology,
    commodities: &CommoditySet,
    options: &DecomposedOptions,
) -> McfResult<MasterSolution> {
    validate(topo, commodities)?;
    let orbits = SourceOrbits::trivial(commodities.num_endpoints());
    solve_master_over(topo, commodities, &orbits, options)
}

/// The master over the source blocks `orbits` names: the general master when every
/// source is its own orbit, the orbit master when one block stands for all. Returns
/// every endpoint's aggregate flow.
fn solve_master_over(
    topo: &Topology,
    commodities: &CommoditySet,
    orbits: &SourceOrbits,
    options: &DecomposedOptions,
) -> McfResult<MasterSolution> {
    let _obs = a2a_obs::span("decomposed.master");
    let start = Instant::now();
    let endpoints = commodities.endpoints();
    let is_endpoint = endpoint_mask(topo, endpoints);
    let reps: Vec<NodeId> = orbits.reps.iter().map(|&i| endpoints[i]).collect();

    let f_upper = master_flow_upper_bound(topo, endpoints);
    let crash = options.crash_master && f_upper.is_finite();
    // Maximize F as minimize −F. Bounding F is what lets the crash park it *at*
    // a bound: with the zero-cost basis below, y = 0, so F (the only costed
    // column) is dual-feasible exactly when it sits at its upper bound.
    let mut lp = LpProblem::new();
    let f_var = lp.add_var(0.0, if crash { f_upper } else { INF }, -1.0);
    // vars[o][e] = aggregate flow of orbit o's representative over edge e. Flow
    // back into the source is useless, so edges into it get no column.
    let vars: Vec<Vec<Option<VarId>>> = reps
        .iter()
        .map(|&s| {
            topo.edges()
                .iter()
                .map(|edge| (edge.dst != s).then(|| lp.add_nonneg_var(0.0)))
                .collect()
        })
        .collect();

    // Capacity: sum over sources <= cap(e). A source's flow over e is its
    // orbit's column at the edge its relabelling carries onto e (a column may
    // recur; the lowering sums it). Rows that fold to the same sum are emitted
    // once.
    let mut sharing: Vec<Vec<VarId>> = vec![Vec::new(); topo.num_edges()];
    for (orbit, image) in &orbits.members {
        for (e, &v) in vars[*orbit].iter().enumerate() {
            if let Some(v) = v {
                sharing[image.as_ref().map_or(e, |image| image.edges[e])].push(v);
            }
        }
    }
    let mut emitted = HashSet::new();
    for (mut row, edge) in sharing.into_iter().zip(topo.edges()) {
        if edge.capacity.is_infinite() {
            continue;
        }
        row.sort_unstable();
        let coeffs: Vec<(VarId, f64)> = row.iter().map(|&v| (v, 1.0)).collect();
        if emitted.insert((row, edge.capacity.to_bits())) {
            lp.add_constraint(coeffs, ConstraintSense::Le, edge.capacity);
        }
    }

    // Grouped conservation / demand. For endpoint u != s the node must sink F; for
    // non-endpoint transit nodes plain conservation holds.
    for (per_edge, &s) in vars.iter().zip(&reps) {
        for u in 0..topo.num_nodes() {
            if u == s || (topo.out_degree(u) == 0 && topo.in_degree(u) == 0) {
                continue;
            }
            let coeffs = columns(per_edge, topo.out_edges(u))
                .map(|v| (v, 1.0))
                .chain(columns(per_edge, topo.in_edges(u)).map(|v| (v, -1.0)));
            if is_endpoint[u] {
                lp.add_constraint(
                    coeffs.chain(std::iter::once((f_var, 1.0))),
                    ConstraintSense::Le,
                    0.0,
                );
            } else {
                lp.add_constraint(coeffs, ConstraintSense::Le, 0.0);
            }
        }
    }

    let sf = lp.to_standard_form()?;
    debug_assert!(no_fixed_columns(&sf), "the master emits a fixed column");
    let mut opts = SimplexOptions::default();
    if crash {
        let mut preference = vec![0.0; sf.cols.len()];
        for (per_edge, &s) in vars.iter().zip(&reps) {
            bfs_tree_edge_counts(topo, s, &is_endpoint, per_edge, &mut preference);
        }
        let mut start = triangular_crash(&sf, &preference);
        start.statuses[f_var.index()] = BasisStatus::AtUpper;
        opts.warm_start = Some(start);
    }
    let sol = a2a_lp::simplex::solve(&sf, &opts)?;
    let flow_value = sol.x[f_var.index()];
    let orbit_flows: Vec<Vec<(EdgeId, f64)>> = vars
        .iter()
        .map(|per_edge| {
            per_edge
                .iter()
                .enumerate()
                .filter_map(|(e, &v)| {
                    let val = sol.x[v?.index()];
                    (val > FLOW_TOL).then_some((e, val))
                })
                .collect()
        })
        .collect();
    let source_flows = orbits
        .members
        .iter()
        .map(|(orbit, image)| carry(image.as_ref(), &orbit_flows[*orbit]))
        .collect();
    Ok(MasterSolution {
        flow_value,
        source_flows,
        elapsed_secs: start.elapsed().as_secs_f64(),
        iterations: sol.iterations,
        dual_iterations: sol.dual_iterations,
        pivots: sol.pivots,
        refactorizations: sol.refactorizations,
    })
}

fn endpoint_mask(topo: &Topology, endpoints: &[NodeId]) -> Vec<bool> {
    let mut mask = vec![false; topo.num_nodes()];
    for &e in endpoints {
        mask[e] = true;
    }
    mask
}

/// A valid upper bound on the concurrent rate `F` from the endpoint cut
/// argument: every endpoint must push `(k-1)·F` total flow out (one `F` to each
/// of the other `k-1` endpoints) and absorb `(k-1)·F` in, so
/// `F <= min(out_cap(u), in_cap(u)) / (k-1)` for every endpoint `u`. Endpoints
/// whose adjacent capacity is infinite contribute no bound; `INF` is returned
/// when no endpoint yields a finite one (the crash is skipped in that case).
fn master_flow_upper_bound(topo: &Topology, endpoints: &[NodeId]) -> f64 {
    if endpoints.len() < 2 {
        return INF;
    }
    let denom = (endpoints.len() - 1) as f64;
    let adjacent_cap = |edges: &[EdgeId]| edges.iter().map(|&e| topo.edge(e).capacity).sum::<f64>();
    endpoints
        .iter()
        .map(|&u| adjacent_cap(topo.out_edges(u)).min(adjacent_cap(topo.in_edges(u))) / denom)
        .filter(|b| b.is_finite())
        .fold(INF, f64::min)
}

/// Accumulates, into `preference`, how many endpoint destinations the BFS
/// shortest-path tree rooted at `s` reaches through each edge. Edges on many
/// tree paths are the structurally likely carriers of source `s`'s aggregate
/// flow, so the crash prefers their columns into the starting basis.
fn bfs_tree_edge_counts(
    topo: &Topology,
    s: NodeId,
    is_endpoint: &[bool],
    per_edge: &[Option<VarId>],
    preference: &mut [f64],
) {
    let mut parent_edge = vec![usize::MAX; topo.num_nodes()];
    let mut visited = vec![false; topo.num_nodes()];
    visited[s] = true;
    let mut queue = std::collections::VecDeque::from([s]);
    while let Some(u) = queue.pop_front() {
        for &e in topo.out_edges(u) {
            let v = topo.edge(e).dst;
            if !visited[v] {
                visited[v] = true;
                parent_edge[v] = e;
                queue.push_back(v);
            }
        }
    }
    for d in 0..topo.num_nodes() {
        if d == s || !is_endpoint[d] || !visited[d] {
            continue;
        }
        let mut u = d;
        while u != s {
            let e = parent_edge[u];
            let v = per_edge[e].expect("tree edges never enter the root");
            preference[v.index()] += 1.0;
            u = topo.edge(e).src;
        }
    }
}

/// Solves one child LP: split the aggregate flow of source `s` into per-destination
/// flows of value `flow_value` each, minimizing total flow (paper constraints
/// (10)–(14)). Returns per-destination `(edge, flow)` lists (destinations in endpoint
/// order, skipping `s`) and the solve statistics.
///
/// The child lives on the subgraph of edges the master routes `s`'s flow over,
/// and destination `d` gets a column only for a used edge on some `s → d` path:
/// its tail is reachable from `s` and its head reaches `d` without passing
/// through `d` or `s` respectively, and no kept edge leaves `d` or enters `s`.
/// Flow on any other edge could only end in a cycle or a dead end, which the
/// minimum-flow objective never pays for, so the restriction loses nothing. A
/// capacity row is emitted only for an edge some destination keeps.
///
/// With [`DecomposedOptions::warm_start_children`] the child does not start from the
/// all-slack basis: the master's solution is *projected* onto the child by building
/// a [`triangular_crash`] basis that prefers columns in proportion to the master
/// flow on their edge, so the simplex begins with the master's active edges already
/// basic on the conservation rows and phase 1 has far less work to do.
fn solve_child(
    topo: &Topology,
    commodities: &CommoditySet,
    s: NodeId,
    source_flow: &[(EdgeId, f64)],
    flow_value: f64,
    options: &DecomposedOptions,
) -> McfResult<ChildOutcome> {
    let _obs = a2a_obs::span("decomposed.child");
    let start = Instant::now();
    let endpoints = commodities.endpoints();
    let dests: Vec<NodeId> = endpoints.iter().copied().filter(|&d| d != s).collect();

    if flow_value <= FLOW_TOL {
        // Degenerate: nothing to route.
        return Ok(ChildOutcome {
            per_dest: vec![Vec::new(); dests.len()],
            stats: ChildStats {
                secs: start.elapsed().as_secs_f64(),
                ..ChildStats::default()
            },
        });
    }

    // Restrict to edges the master actually uses for this source.
    let used_edges: Vec<(EdgeId, f64)> = source_flow
        .iter()
        .copied()
        .filter(|&(_, f)| f > FLOW_TOL)
        .collect();
    if used_edges.is_empty() {
        return Err(McfError::Lp(format!(
            "master LP routed no flow out of source {s}"
        )));
    }
    let n = topo.num_nodes();
    let mut out_used = vec![Vec::new(); n];
    let mut in_used = vec![Vec::new(); n];
    for (local, &(e, _)) in used_edges.iter().enumerate() {
        let edge = topo.edge(e);
        out_used[edge.src].push(local);
        in_used[edge.dst].push(local);
    }
    let tail = |local: usize| topo.edge(used_edges[local].0).src;
    let head = |local: usize| topo.edge(used_edges[local].0).dst;

    let mut lp = LpProblem::new();
    // vars[d_pos] = (local edge index, column) of every edge d keeps.
    let mut vars: Vec<Vec<(usize, VarId)>> = Vec::with_capacity(dests.len());
    for &d in &dests {
        let from_s = reachable(n, s, d, &out_used, head);
        let to_d = reachable(n, d, s, &in_used, tail);
        let kept = (0..used_edges.len())
            .filter(|&l| tail(l) != d && head(l) != s && from_s[tail(l)] && to_d[head(l)]);
        let columns = kept.map(|l| (l, lp.add_nonneg_var(1.0)));
        vars.push(columns.collect());
    }

    // Capacity: per kept edge, sum over destinations <= master flow (with a hair
    // of numerical slack so that tolerance-level noise cannot make the child
    // infeasible).
    let mut sharing = vec![Vec::new(); used_edges.len()];
    for &(l, v) in vars.iter().flatten() {
        sharing[l].push((v, 1.0));
    }
    for (coeffs, &(_, cap)) in sharing.into_iter().zip(&used_edges) {
        if !coeffs.is_empty() {
            lp.add_constraint(coeffs, ConstraintSense::Le, cap + 1e-9);
        }
    }

    // Conservation and demand per destination.
    let demand = flow_value * (1.0 - 1e-7);
    let mut at_node: Vec<Vec<(VarId, f64)>> = vec![Vec::new(); n];
    for (per_dest, &d) in vars.iter().zip(&dests) {
        for &(l, v) in per_dest {
            at_node[tail(l)].push((v, 1.0));
            at_node[head(l)].push((v, -1.0));
        }
        for (u, coeffs) in at_node.iter_mut().enumerate() {
            if u != s && u != d && !coeffs.is_empty() {
                lp.add_constraint(coeffs.drain(..), ConstraintSense::Le, 0.0);
            }
            coeffs.clear();
        }
        let inflow: Vec<(VarId, f64)> = per_dest
            .iter()
            .filter(|&&(l, _)| head(l) == d)
            .map(|&(_, v)| (v, 1.0))
            .collect();
        if inflow.is_empty() {
            return Err(McfError::Lp(format!(
                "master flow of source {s} never reaches destination {d}"
            )));
        }
        lp.add_constraint(inflow, ConstraintSense::Ge, demand);
    }

    let sf = lp.to_standard_form()?;
    debug_assert!(no_fixed_columns(&sf), "a child emits a fixed column");
    let warm_start = if options.warm_start_children {
        // Project the master basis: child columns are preferred into the crash
        // basis in proportion to the master flow their edge carries (with INF
        // upper bounds, positive master flow implies the aggregate variable was
        // basic in the master).
        let mut preference = vec![0.0; sf.cols.len()];
        for &(l, v) in vars.iter().flatten() {
            preference[v.index()] = used_edges[l].1;
        }
        Some(triangular_crash(&sf, &preference))
    } else {
        None
    };
    let opts = SimplexOptions {
        warm_start,
        ..SimplexOptions::default()
    };
    let sol = a2a_lp::simplex::solve(&sf, &opts)?;
    let per_dest = vars
        .iter()
        .map(|per_dest| {
            per_dest
                .iter()
                .filter_map(|&(l, v)| {
                    let val = sol.x[v.index()];
                    (val > FLOW_TOL).then_some((used_edges[l].0, val))
                })
                .collect()
        })
        .collect();
    Ok(ChildOutcome {
        per_dest,
        stats: ChildStats {
            secs: start.elapsed().as_secs_f64(),
            iterations: sol.iterations,
            dual_iterations: sol.dual_iterations,
            pivots: sol.pivots,
            refactorizations: sol.refactorizations,
        },
    })
}

/// The nodes reachable from `from` over the edges `adj` lists per node (`far`
/// maps an edge to the node it leads to), never leaving `stop`.
fn reachable(
    n: usize,
    from: NodeId,
    stop: NodeId,
    adj: &[Vec<usize>],
    far: impl Fn(usize) -> NodeId,
) -> Vec<bool> {
    let mut seen = vec![false; n];
    seen[from] = true;
    let mut stack = vec![from];
    while let Some(u) = stack.pop() {
        if u == stop {
            continue;
        }
        for &l in &adj[u] {
            let v = far(l);
            if !seen[v] {
                seen[v] = true;
                stack.push(v);
            }
        }
    }
    seen
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linkmcf::solve_link_mcf;
    use a2a_topology::generators;

    fn assert_same_f(topo: &Topology) {
        let original = solve_link_mcf(topo).unwrap();
        let decomposed = solve_decomposed_mcf(topo).unwrap();
        assert!(
            (original.flow_value - decomposed.solution.flow_value).abs() < 1e-5,
            "{}: original F = {}, decomposed F = {}",
            topo.name(),
            original.flow_value,
            decomposed.solution.flow_value
        );
        // The decomposed per-commodity flows must be feasible and deliver F.
        assert!(decomposed.solution.check_consistency(topo, 1e-5).is_empty());
        assert!(decomposed.solution.max_link_utilization(topo) <= 1.0 + 1e-5);
    }

    #[test]
    fn matches_original_on_complete_graph() {
        assert_same_f(&generators::complete(4));
    }

    #[test]
    fn matches_original_on_directed_ring() {
        assert_same_f(&generators::ring(5));
    }

    #[test]
    fn matches_original_on_hypercube() {
        assert_same_f(&generators::hypercube(3));
    }

    #[test]
    fn matches_original_on_generalized_kautz() {
        assert_same_f(&generators::generalized_kautz(12, 3));
    }

    #[test]
    fn matches_original_on_bipartite() {
        assert_same_f(&generators::complete_bipartite(3, 3));
    }

    /// Warm-started child LPs must reproduce the cold-start optimal concurrent rate
    /// `F` exactly, with a feasible per-commodity split, across topology families.
    #[test]
    fn warm_started_children_match_cold_start() {
        for topo in [
            generators::torus(&[3, 3]),
            generators::hypercube(3),
            generators::generalized_kautz(12, 3),
        ] {
            let commodities = CommoditySet::all_pairs(topo.num_nodes());
            let cold = solve_decomposed_mcf_with(
                &topo,
                commodities.clone(),
                &DecomposedOptions {
                    warm_start_children: false,
                    ..DecomposedOptions::default()
                },
            )
            .unwrap();
            let warm = solve_decomposed_mcf_with(&topo, commodities, &DecomposedOptions::default())
                .unwrap();
            assert!(
                (cold.solution.flow_value - warm.solution.flow_value).abs() <= 1e-7,
                "{}: cold F = {}, warm F = {}",
                topo.name(),
                cold.solution.flow_value,
                warm.solution.flow_value
            );
            assert!(warm.solution.check_consistency(&topo, 1e-5).is_empty());
            assert!(warm.solution.max_link_utilization(&topo) <= 1.0 + 1e-5);
        }
    }

    #[test]
    fn timings_are_populated() {
        let topo = generators::hypercube(3);
        let decomposed = solve_decomposed_mcf(&topo).unwrap();
        assert_eq!(decomposed.timings.child_secs.len(), 8);
        assert_eq!(decomposed.timings.child_iterations.len(), 8);
        assert_eq!(decomposed.timings.child_pivots.len(), 8);
        assert!(decomposed.timings.master_iterations > 0);
        let t = &decomposed.timings;
        assert!(t.master_iterations >= t.master_pivots);
        assert!(t
            .child_iterations
            .iter()
            .zip(&t.child_pivots)
            .all(|(i, p)| i >= p));
        assert!(decomposed.timings.master_secs >= 0.0);
        assert!(decomposed.timings.total_child_secs() >= decomposed.timings.max_child_secs());
        assert!(
            decomposed.timings.parallel_estimate_secs()
                <= decomposed.timings.master_secs + decomposed.timings.total_child_secs() + 1e-12
        );
        // Source flows exist for every endpoint.
        assert_eq!(decomposed.source_flows.len(), 8);
        assert!(decomposed.source_flows.iter().all(|f| !f.is_empty()));
    }

    /// Regression guard for the master degeneracy fix: on a torus the master
    /// LP is massively degenerate (thousands of zero-cost flow columns per
    /// commodity), and the historical cold trajectory burned
    /// ~9000 iterations on the 4x4 case. The structural crash basis must
    /// price dual-feasible, hand the whole solve to the dual simplex (no
    /// primal cleanup), reproduce the no-crash optimum exactly, and stay an
    /// order of magnitude below the degenerate iteration count.
    #[test]
    fn crash_basis_solves_torus_master_dually() {
        let topo = generators::torus(&[4, 4]);
        let commodities = CommoditySet::all_pairs(16);
        let crashed =
            solve_master_with(&topo, &commodities, &DecomposedOptions::default()).unwrap();
        let cold = solve_master_with(
            &topo,
            &commodities,
            &DecomposedOptions {
                crash_master: false,
                ..DecomposedOptions::default()
            },
        )
        .unwrap();
        assert!(
            crashed.dual_iterations > 0,
            "crash basis no longer engages the dual simplex"
        );
        assert_eq!(
            crashed.iterations, crashed.dual_iterations,
            "dual phase fell back to primal cleanup on the torus master"
        );
        assert!(
            (crashed.flow_value - cold.flow_value).abs() < 1e-7,
            "crash F = {}, cold F = {}",
            crashed.flow_value,
            cold.flow_value
        );
        assert!(
            crashed.iterations < 2500,
            "torus-4x4 master took {} iterations — degeneracy is back",
            crashed.iterations
        );
    }

    #[test]
    fn master_only_reports_flow_value() {
        let topo = generators::torus(&[3, 3]);
        let commodities = CommoditySet::all_pairs(9);
        let master = solve_master_with(&topo, &commodities, &DecomposedOptions::default()).unwrap();
        let original = solve_link_mcf(&topo).unwrap();
        assert!((master.flow_value - original.flow_value).abs() < 1e-5);
    }

    #[test]
    fn host_bottleneck_reduces_flow_value() {
        use a2a_topology::transform::HostNicAugmented;
        // 3x3x3 torus with host bandwidth below node bandwidth: the paper reports
        // F = 2/27 for the bottlenecked case vs 1/9 without the bottleneck.
        let torus = generators::torus(&[3, 3, 3]);
        let aug = HostNicAugmented::build(&torus, 4.0); // 100 Gbps / 25 Gbps = 4 links
        let commodities = CommoditySet::among(aug.hosts.clone());
        let master =
            solve_master_with(&aug.graph, &commodities, &DecomposedOptions::default()).unwrap();
        assert!(
            (master.flow_value - 2.0 / 27.0).abs() < 1e-4,
            "bottlenecked F = {}, expected 2/27 = {}",
            master.flow_value,
            2.0 / 27.0
        );
    }
}
