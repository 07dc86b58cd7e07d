//! Link-load-minimizing single-path ILP baselines (ILP-disjoint / ILP-shortest).
//!
//! Each commodity must pick exactly one path from a candidate set; the objective
//! minimizes the maximum number of commodities crossing any link. The formulation is
//! exact but NP-hard, and the paper uses it precisely to demonstrate that it stops
//! scaling beyond a few dozen nodes (Fig. 7) while MCF keeps going.

use std::time::Instant;

use a2a_lp::ilp::{solve_ilp, IlpOptions};
use a2a_lp::{ConstraintSense, LpProblem, VarId};
use a2a_mcf::pmcf::{build_path_sets, PathSetKind};
use a2a_mcf::{CommoditySet, McfError, McfResult, PathSchedule};
use a2a_topology::{Path, Topology};

/// Candidate path families for the ILP selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathCandidates {
    /// Edge-disjoint candidate paths (ILP-disjoint in the paper).
    EdgeDisjoint,
    /// Shortest candidate paths, capped per pair (ILP-shortest in the paper).
    Shortest {
        /// Maximum number of shortest paths per commodity.
        max_per_pair: usize,
    },
}

/// Options for the ILP path selection.
#[derive(Debug, Clone)]
pub struct IlpPathOptions {
    /// Candidate path family.
    pub candidates: PathCandidates,
    /// Relative optimality gap at which branch and bound stops (the paper evaluates
    /// ILP-disjoint with a 10% tolerance in Fig. 9).
    pub relative_gap: f64,
    /// Branch-and-bound node budget.
    pub max_nodes: usize,
}

impl Default for IlpPathOptions {
    fn default() -> Self {
        Self {
            candidates: PathCandidates::EdgeDisjoint,
            relative_gap: 0.0,
            max_nodes: 20_000,
        }
    }
}

/// Statistics of an ILP path-selection run.
#[derive(Debug, Clone)]
pub struct IlpPathStats {
    /// Branch-and-bound nodes explored.
    pub nodes: usize,
    /// True if the search proved optimality (within the requested gap).
    pub proven_optimal: bool,
    /// Wall-clock time of the whole selection (path enumeration + search).
    pub elapsed_secs: f64,
    /// Optimal (or best-found) maximum link load.
    pub max_link_load: f64,
}

/// Runs the ILP path selection for an all-to-all among all nodes.
pub fn ilp_path_selection(
    topo: &Topology,
    options: &IlpPathOptions,
) -> McfResult<(PathSchedule, IlpPathStats)> {
    let commodities = CommoditySet::all_pairs(topo.num_nodes());
    let start = Instant::now();
    let kind = match options.candidates {
        PathCandidates::EdgeDisjoint => PathSetKind::EdgeDisjoint,
        PathCandidates::Shortest { max_per_pair } => PathSetKind::Shortest { max_per_pair },
    };
    let path_sets = build_path_sets(topo, &commodities, kind)?;

    let mut lp = LpProblem::new();
    let load = lp.add_nonneg_var(1.0);
    let mut binaries: Vec<usize> = Vec::new();
    let mut selection_vars: Vec<Vec<VarId>> = Vec::with_capacity(path_sets.len());
    let mut edge_incidence: Vec<Vec<VarId>> = vec![Vec::new(); topo.num_edges()];
    for set in &path_sets {
        let vars: Vec<VarId> = set
            .iter()
            .map(|path| {
                let v = lp.add_var(0.0, 1.0, 0.0);
                for (u, w) in path.links() {
                    let e = topo.find_edge(u, w).expect("candidate paths are valid");
                    edge_incidence[e].push(v);
                }
                binaries.push(v.index());
                v
            })
            .collect();
        // Exactly one path per commodity.
        lp.add_constraint(vars.iter().map(|&v| (v, 1.0)), ConstraintSense::Eq, 1.0);
        selection_vars.push(vars);
    }
    // Link load definition: commodities crossing e <= max_load (scaled by capacity so
    // that heterogeneous links are handled).
    for (e, edge) in topo.edges().iter().enumerate() {
        if edge_incidence[e].is_empty() || edge.capacity.is_infinite() {
            continue;
        }
        lp.add_constraint(
            edge_incidence[e]
                .iter()
                .map(|&v| (v, 1.0))
                .chain(std::iter::once((load, -edge.capacity))),
            ConstraintSense::Le,
            0.0,
        );
    }

    let ilp_options = IlpOptions {
        max_nodes: options.max_nodes,
        relative_gap: options.relative_gap,
    };
    let result = lp
        .to_standard_form()
        .and_then(|sf| solve_ilp(&sf, &binaries, &ilp_options))
        .map_err(|e| McfError::Lp(e.to_string()))?;

    let mut raw: Vec<Vec<(Path, f64)>> = Vec::with_capacity(commodities.len());
    for (set, vars) in path_sets.into_iter().zip(&selection_vars) {
        let mut best = None;
        let mut best_val = -1.0;
        for (p, &v) in set.into_iter().zip(vars) {
            let val = result.solution.x[v.index()];
            if val > best_val {
                best_val = val;
                best = Some(p);
            }
        }
        raw.push(vec![(best.expect("non-empty candidate set"), 1.0)]);
    }
    let mut schedule = PathSchedule::from_weighted_paths(commodities, 0.0, raw);
    schedule.flow_value = a2a_mcf::analysis::effective_flow_value(topo, &schedule);
    let stats = IlpPathStats {
        nodes: result.nodes,
        proven_optimal: result.proven_optimal,
        elapsed_secs: start.elapsed().as_secs_f64(),
        max_link_load: result.solution.objective,
    };
    Ok((schedule, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use a2a_mcf::analysis::max_link_load_of_paths;
    use a2a_topology::generators;

    #[test]
    fn ilp_disjoint_balances_the_small_ring() {
        let topo = generators::bidirectional_ring(4);
        let (sched, stats) = ilp_path_selection(&topo, &IlpPathOptions::default()).unwrap();
        assert!(sched.check_consistency(&topo, 1e-9).is_empty());
        assert!(stats.proven_optimal);
        // Optimal single-path all-to-all on the 4-ring: max load 2 (each link carries
        // its neighbour shard plus one of the diagonal shards).
        let load = max_link_load_of_paths(&topo, &sched);
        assert!((load - 2.0).abs() < 1e-6, "load {load}");
        assert!((stats.max_link_load - 2.0).abs() < 1e-6);
    }

    #[test]
    fn ilp_shortest_works_on_small_torus() {
        let topo = generators::torus(&[2, 3]);
        let options = IlpPathOptions {
            candidates: PathCandidates::Shortest { max_per_pair: 8 },
            ..IlpPathOptions::default()
        };
        let (sched, stats) = ilp_path_selection(&topo, &options).unwrap();
        assert!(sched.check_consistency(&topo, 1e-9).is_empty());
        assert!(stats.nodes >= 1);
        assert_eq!(sched.max_paths_per_commodity(), 1);
    }

    #[test]
    fn relative_gap_still_returns_feasible_schedules() {
        let topo = generators::complete(4);
        let options = IlpPathOptions {
            relative_gap: 0.1,
            ..IlpPathOptions::default()
        };
        let (sched, _) = ilp_path_selection(&topo, &options).unwrap();
        assert!(sched.check_consistency(&topo, 1e-9).is_empty());
        // Complete graph: a load of 1 (direct links) is optimal; a 10% gap still has to
        // produce a valid single-path selection.
        let load = max_link_load_of_paths(&topo, &sched);
        assert!(load < 2.0 + 1e-9);
    }

    #[test]
    fn node_budget_is_tracked() {
        let topo = generators::hypercube(2);
        let options = IlpPathOptions {
            max_nodes: 50_000,
            ..IlpPathOptions::default()
        };
        let (_, stats) = ilp_path_selection(&topo, &options).unwrap();
        assert!(stats.nodes <= 50_000);
        assert!(stats.elapsed_secs >= 0.0);
    }
}
