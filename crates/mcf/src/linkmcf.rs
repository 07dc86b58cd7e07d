//! The original link-variable max-concurrent MCF formulation (§3.1.1).
//!
//! One LP with a variable `f[(s,d),(u,v)]` for every commodity and every edge plus the
//! concurrent rate `F`; `O(N³)` variables for bounded-degree graphs. This is the exact
//! but unscalable formulation that the decomposition in [`crate::decomposed`] speeds
//! up; it is kept both as the ground truth for tests and as the "MCF-original" series
//! of Fig. 7.
//!
//! Flow entering a commodity's source or leaving its destination can only form
//! useless cycles, so those (commodity, edge) pairs get no variable at all.

use a2a_lp::{ConstraintSense, LpProblem, SimplexOptions, StandardForm, VarId, INF};
use a2a_topology::Topology;

use crate::types::{CommoditySet, LinkFlowSolution, McfError, McfResult};

/// Threshold below which an extracted flow value is treated as zero.
pub const FLOW_TOL: f64 = 1e-9;

/// Solves the link-based max-concurrent MCF for an all-to-all among all nodes.
pub fn solve_link_mcf(topo: &Topology) -> McfResult<LinkFlowSolution> {
    solve_link_mcf_among(topo, CommoditySet::all_pairs(topo.num_nodes()))
}

/// Solves the link-based max-concurrent MCF for an explicit commodity set (used by the
/// host-bottleneck model, where commodities run only between host vertices).
pub fn solve_link_mcf_among(
    topo: &Topology,
    commodities: CommoditySet,
) -> McfResult<LinkFlowSolution> {
    validate(topo, &commodities)?;
    // Maximize F as minimize −F.
    let mut lp = LpProblem::new();
    let f_var = lp.add_var(0.0, INF, -1.0);

    // flow variables: vars[commodity][edge], none into the source or out of
    // the destination
    let mut vars: Vec<Vec<Option<VarId>>> = Vec::with_capacity(commodities.len());
    for (_, s, d) in commodities.iter() {
        let per_edge = topo.edges().iter().map(|edge| {
            let useful = edge.dst != s && edge.src != d;
            useful.then(|| lp.add_nonneg_var(0.0))
        });
        vars.push(per_edge.collect());
    }

    add_capacity_constraints(&mut lp, topo, &vars);
    add_commodity_constraints(&mut lp, topo, &commodities, &vars, f_var);
    let sf = lp.to_standard_form()?;
    debug_assert!(no_fixed_columns(&sf), "link MCF emits a fixed column");

    let sol = a2a_lp::simplex::solve(&sf, &SimplexOptions::default())?;
    let flow_value = sol.x[f_var.index()];
    let flows = extract_flows(topo, &commodities, &vars, |v| sol.x[v.index()]);
    Ok(LinkFlowSolution {
        commodities,
        flow_value,
        flows,
    })
}

pub(crate) fn validate(topo: &Topology, commodities: &CommoditySet) -> McfResult<()> {
    if commodities.num_endpoints() < 2 {
        return Err(McfError::BadArgument(
            "all-to-all needs at least two endpoints".into(),
        ));
    }
    for &e in commodities.endpoints() {
        if e >= topo.num_nodes() {
            return Err(McfError::BadArgument(format!(
                "endpoint {e} is not a node of the topology"
            )));
        }
    }
    // Every endpoint must reach every other endpoint.
    for &s in commodities.endpoints() {
        let dist = topo.bfs_distances(s);
        for &d in commodities.endpoints() {
            if dist[d].is_none() {
                return Err(McfError::BadTopology(format!(
                    "endpoint {d} is unreachable from endpoint {s}"
                )));
            }
        }
    }
    Ok(())
}

/// No column of `sf` is fixed (`lower == upper`): the MCF builders emit only
/// variables that can carry flow.
pub(crate) fn no_fixed_columns(sf: &StandardForm) -> bool {
    sf.lower.iter().zip(&sf.upper).all(|(l, u)| l < u)
}

/// The columns `per_edge` holds for `edges` (edges without one are skipped).
pub(crate) fn columns<'a>(
    per_edge: &'a [Option<VarId>],
    edges: &'a [usize],
) -> impl Iterator<Item = VarId> + 'a {
    edges.iter().filter_map(|&e| per_edge[e])
}

/// Adds per-edge capacity constraints `sum over commodities <= cap` (skipping
/// infinite-capacity edges).
fn add_capacity_constraints(lp: &mut LpProblem, topo: &Topology, vars: &[Vec<Option<VarId>>]) {
    for (e, edge) in topo.edges().iter().enumerate() {
        if edge.capacity.is_infinite() {
            continue;
        }
        lp.add_constraint(
            vars.iter()
                .filter_map(|per_edge| per_edge[e])
                .map(|v| (v, 1.0)),
            ConstraintSense::Le,
            edge.capacity,
        );
    }
}

/// Adds, for every commodity, flow conservation at intermediate nodes and the
/// demand constraint `inflow >= F` at the destination.
fn add_commodity_constraints(
    lp: &mut LpProblem,
    topo: &Topology,
    commodities: &CommoditySet,
    vars: &[Vec<Option<VarId>>],
    f_var: VarId,
) {
    for (idx, s, d) in commodities.iter() {
        let per_edge = &vars[idx];
        // Conservation: outflow - inflow <= 0 at every node except source/destination.
        for u in 0..topo.num_nodes() {
            if u == s || u == d {
                continue;
            }
            if topo.out_degree(u) == 0 && topo.in_degree(u) == 0 {
                continue;
            }
            let coeffs = columns(per_edge, topo.out_edges(u))
                .map(|v| (v, 1.0))
                .chain(columns(per_edge, topo.in_edges(u)).map(|v| (v, -1.0)));
            lp.add_constraint(coeffs, ConstraintSense::Le, 0.0);
        }
        // Demand: inflow at destination >= F.
        let inflow = columns(per_edge, topo.in_edges(d)).map(|v| (v, 1.0));
        lp.add_constraint(
            inflow.chain(std::iter::once((f_var, -1.0))),
            ConstraintSense::Ge,
            0.0,
        );
    }
}

/// Extracts positive per-commodity edge flows from solved variable values.
fn extract_flows<F: Fn(VarId) -> f64>(
    topo: &Topology,
    commodities: &CommoditySet,
    vars: &[Vec<Option<VarId>>],
    value: F,
) -> Vec<Vec<(usize, f64)>> {
    commodities
        .iter()
        .map(|(idx, _, _)| {
            (0..topo.num_edges())
                .filter_map(|e| {
                    let v = value(vars[idx][e]?);
                    (v > FLOW_TOL).then_some((e, v))
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use a2a_topology::generators;

    #[test]
    fn complete_graph_achieves_direct_exchange() {
        // On K_n with unit links, every commodity has its own dedicated link:
        // F = 1 exactly.
        let topo = generators::complete(4);
        let sol = solve_link_mcf(&topo).unwrap();
        assert!(
            (sol.flow_value - 1.0).abs() < 1e-6,
            "F = {}",
            sol.flow_value
        );
        assert!(sol.check_consistency(&topo, 1e-6).is_empty());
    }

    #[test]
    fn directed_ring_flow_value() {
        // Directed ring on n nodes: commodity (s,d) must traverse dist(s,d) hops; the
        // total distance sum is n * n(n-1)/2 and capacity is n, so
        // F = n / (n * n(n-1)/2) = 2/(n(n-1)). For n = 4: F = 1/6.
        let topo = generators::ring(4);
        let sol = solve_link_mcf(&topo).unwrap();
        assert!(
            (sol.flow_value - 1.0 / 6.0).abs() < 1e-6,
            "F = {}",
            sol.flow_value
        );
        assert!(sol.max_link_utilization(&topo) <= 1.0 + 1e-6);
    }

    #[test]
    fn bidirectional_ring_flow_value() {
        // Bidirectional ring on 4 nodes: distances 1,2,1 per source (sum 4 per source,
        // 16 total), capacity 8 links -> F = 8/16 = 1/2.
        let topo = generators::bidirectional_ring(4);
        let sol = solve_link_mcf(&topo).unwrap();
        assert!(
            (sol.flow_value - 0.5).abs() < 1e-6,
            "F = {}",
            sol.flow_value
        );
    }

    #[test]
    fn hypercube_flow_value_matches_known_optimum() {
        // Q3: total pairwise distance = 8 * 12 = 96, capacity 24 links => upper bound
        // F <= 24/96 = 1/4, and the hypercube all-to-all achieves it.
        let topo = generators::hypercube(3);
        let sol = solve_link_mcf(&topo).unwrap();
        assert!(
            (sol.flow_value - 0.25).abs() < 1e-6,
            "F = {}",
            sol.flow_value
        );
        assert!(sol.check_consistency(&topo, 1e-6).is_empty());
        assert!(sol.max_link_utilization(&topo) <= 1.0 + 1e-6);
    }

    #[test]
    fn commodity_subset_on_augmented_graph() {
        use a2a_topology::transform::HostNicAugmented;
        // 4-node bidirectional ring with ample host bandwidth: the hosts see the same
        // F as the NIC-level all-to-all (1/2 for n=4... here commodities are host to
        // host so the bottleneck is the ring itself).
        let base = generators::bidirectional_ring(4);
        let aug = HostNicAugmented::build(&base, 100.0);
        let commodities = CommoditySet::among(aug.hosts.clone());
        let sol = solve_link_mcf_among(&aug.graph, commodities).unwrap();
        assert!(
            (sol.flow_value - 0.5).abs() < 1e-5,
            "F = {}",
            sol.flow_value
        );
    }

    #[test]
    fn disconnected_topology_is_rejected() {
        let mut topo = Topology::new(3, "disconnected");
        topo.add_bidirectional(0, 1, 1.0);
        let err = solve_link_mcf(&topo).unwrap_err();
        assert!(matches!(err, McfError::BadTopology(_)));
    }

    #[test]
    fn invalid_endpoint_is_rejected() {
        let topo = generators::complete(3);
        let err = solve_link_mcf_among(&topo, CommoditySet::among(vec![0, 5])).unwrap_err();
        assert!(matches!(err, McfError::BadArgument(_)));
    }
}
