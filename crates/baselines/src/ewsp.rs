//! Equal-weight Shortest Paths (EwSP).
//!
//! Each commodity is split evenly across *all* of its shortest paths. The paper shows
//! this naive multipath scheme performs well on symmetric topologies (tori, hypercubes,
//! bipartite graphs) but poorly on expanders, which have few shortest paths (Fig. 8).

use a2a_mcf::{CommoditySet, McfError, McfResult, PathSchedule};
use a2a_topology::{paths, Path, Topology};

/// Maximum number of shortest paths enumerated per commodity before giving up on
/// exhaustive splitting (tori have exponentially many shortest paths).
const MAX_PATHS_PER_PAIR: usize = 512;

/// Computes the EwSP schedule for an all-to-all among all nodes.
pub fn equal_weight_shortest_paths(topo: &Topology) -> McfResult<PathSchedule> {
    let commodities = CommoditySet::all_pairs(topo.num_nodes());
    let mut raw = Vec::with_capacity(commodities.len());
    for (_, s, d) in commodities.iter() {
        let set = paths::all_shortest_paths(topo, s, d, MAX_PATHS_PER_PAIR);
        if set.is_empty() {
            return Err(McfError::BadTopology(format!(
                "destination {d} unreachable from {s}"
            )));
        }
        let w = 1.0 / set.len() as f64;
        raw.push(
            set.into_iter()
                .map(|p| (p, w))
                .collect::<Vec<(Path, f64)>>(),
        );
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
    fn ewsp_is_optimal_on_the_hypercube() {
        // The hypercube's shortest-path structure is perfectly symmetric, so EwSP
        // matches the MCF optimum — this is why it looks strong in Fig. 4.
        let topo = generators::hypercube(3);
        let sched = equal_weight_shortest_paths(&topo).unwrap();
        assert!(sched.check_consistency(&topo, 1e-9).is_empty());
        let optimal = solve_link_mcf(&topo).unwrap().flow_value;
        let time = max_link_load_of_paths(&topo, &sched);
        assert!((time - 1.0 / optimal).abs() < 1e-6, "time {time}");
    }

    #[test]
    fn ewsp_uses_many_paths_on_the_torus() {
        let topo = generators::torus(&[3, 3]);
        let sched = equal_weight_shortest_paths(&topo).unwrap();
        assert!(sched.max_paths_per_commodity() > 1);
        assert!(sched.check_consistency(&topo, 1e-9).is_empty());
    }

    #[test]
    fn ewsp_is_suboptimal_on_expanders() {
        // Fig. 8's key observation: expanders have few shortest paths, so equal
        // splitting over them leaves bandwidth on the table relative to MCF.
        let topo = generators::generalized_kautz(12, 3);
        let sched = equal_weight_shortest_paths(&topo).unwrap();
        let time = max_link_load_of_paths(&topo, &sched);
        let optimal_time = 1.0 / solve_link_mcf(&topo).unwrap().flow_value;
        assert!(
            time >= optimal_time - 1e-6,
            "EwSP time {time} cannot beat the optimum {optimal_time}"
        );
    }
}
