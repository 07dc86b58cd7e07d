//! The NCCL / OpenMPI native all-to-all stand-in.
//!
//! NCCL and OMPI's default all-to-all issue `N - 1` point-to-point transfers per rank;
//! on a direct-connect fabric each transfer follows a single route computed by the
//! fabric (deadlock-free shortest routes on the Cerio card). The stand-in reproduces
//! that behaviour: one fixed shortest route per commodity, chosen deterministically
//! with no congestion awareness — which is what makes it up to 2.3x slower than
//! MCF-extP in Fig. 4.

use a2a_mcf::{CommoditySet, McfError, McfResult, PathSchedule};
use a2a_topology::{paths, Topology};

/// Computes the naive point-to-point schedule for an all-to-all among all nodes.
pub fn naive_point_to_point(topo: &Topology) -> McfResult<PathSchedule> {
    let commodities = CommoditySet::all_pairs(topo.num_nodes());
    let mut raw = Vec::with_capacity(commodities.len());
    for (_, s, d) in commodities.iter() {
        let path = paths::shortest_path(topo, s, d).ok_or_else(|| {
            McfError::BadTopology(format!("destination {d} unreachable from {s}"))
        })?;
        raw.push(vec![(path, 1.0)]);
    }
    let mut schedule = PathSchedule::from_weighted_paths(commodities, 0.0, raw);
    schedule.flow_value = a2a_mcf::analysis::effective_flow_value(topo, &schedule);
    Ok(schedule)
}

#[cfg(test)]
mod tests {
    use super::*;
    use a2a_mcf::analysis::max_link_load_of_paths;
    use a2a_mcf::solve_link_mcf;
    use a2a_topology::generators;

    #[test]
    fn one_route_per_commodity() {
        let topo = generators::complete_bipartite(4, 4);
        let sched = naive_point_to_point(&topo).unwrap();
        assert_eq!(sched.max_paths_per_commodity(), 1);
        assert_eq!(sched.total_paths(), 56);
        assert!(sched.check_consistency(&topo, 1e-9).is_empty());
    }

    #[test]
    fn naive_underperforms_mcf_on_bipartite() {
        // Fig. 4 (left): NCCL-native trails MCF-extP by a large margin on the complete
        // bipartite topology because same-side commodities pile onto arbitrary relays.
        let topo = generators::complete_bipartite(4, 4);
        let sched = naive_point_to_point(&topo).unwrap();
        let naive_time = max_link_load_of_paths(&topo, &sched);
        let optimal_time = 1.0 / solve_link_mcf(&topo).unwrap().flow_value;
        assert!(
            naive_time > 1.3 * optimal_time,
            "expected a visible gap: naive {naive_time} vs optimal {optimal_time}"
        );
    }

    #[test]
    fn deterministic_output() {
        let topo = generators::torus(&[3, 3]);
        let a = naive_point_to_point(&topo).unwrap();
        let b = naive_point_to_point(&topo).unwrap();
        for (pa, pb) in a.paths.iter().zip(&b.paths) {
            assert_eq!(pa[0].0.nodes(), pb[0].0.nodes());
        }
    }
}
