//! Schedule-quality metrics used by the evaluation figures.
//!
//! The paper's simulation figures (Figs. 8–10) plot the *all-to-all time*: the time to
//! ship one unit of every commodity, which for a fractional schedule equals the maximum
//! link load (with unit capacities) and `1 / F` for an optimal MCF solution.

use a2a_topology::Topology;

use crate::types::PathSchedule;

/// Per-edge load induced by a weighted path schedule when every commodity ships one
/// unit of data, indexed by edge id.
fn edge_loads_of_paths(topo: &Topology, schedule: &PathSchedule) -> Vec<f64> {
    let mut loads = vec![0.0; topo.num_edges()];
    for (idx, _, _) in schedule.commodities.iter() {
        for (path, weight) in &schedule.paths[idx] {
            for (u, v) in path.links() {
                let e = topo
                    .find_edge(u, v)
                    .expect("schedule paths must use topology edges");
                loads[e] += weight;
            }
        }
    }
    loads
}

/// Maximum link load (relative to capacity) of a weighted path schedule shipping one
/// unit per commodity.
pub fn max_link_load_of_paths(topo: &Topology, schedule: &PathSchedule) -> f64 {
    edge_loads_of_paths(topo, schedule)
        .iter()
        .enumerate()
        .map(|(e, &load)| load / topo.edge(e).capacity)
        .fold(0.0, f64::max)
}

/// All-to-all completion time of a weighted path schedule (in units of
/// `shard_bytes / link_bandwidth`): the bottleneck link has to carry its entire load.
pub fn path_schedule_all_to_all_time(topo: &Topology, schedule: &PathSchedule) -> f64 {
    max_link_load_of_paths(topo, schedule)
}

/// Converts a concurrent flow value into the paper's throughput metric
/// `(N - 1) · F · b`, with `b` given in GB/s.
pub fn throughput_gbps(num_nodes: usize, flow_value: f64, link_bandwidth_gbps: f64) -> f64 {
    crate::bounds::throughput_upper_bound(num_nodes, flow_value, link_bandwidth_gbps)
}

/// The effective concurrent flow value achieved by a path schedule: the rate at which
/// every commodity can ship concurrently without exceeding any link, i.e.
/// `1 / max link load`.
pub fn effective_flow_value(topo: &Topology, schedule: &PathSchedule) -> f64 {
    let load = max_link_load_of_paths(topo, schedule);
    if load <= 0.0 {
        0.0
    } else {
        1.0 / load
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::CommoditySet;
    use a2a_topology::{generators, paths, Path};

    fn single_path_schedule(topo: &Topology) -> PathSchedule {
        let commodities = CommoditySet::all_pairs(topo.num_nodes());
        let raw: Vec<Vec<(Path, f64)>> = commodities
            .iter()
            .map(|(_, s, d)| vec![(paths::shortest_path(topo, s, d).unwrap(), 1.0)])
            .collect();
        PathSchedule::from_weighted_paths(commodities, 0.0, raw)
    }

    #[test]
    fn loads_on_complete_graph_are_one_per_link() {
        let topo = generators::complete(4);
        let sched = single_path_schedule(&topo);
        let loads = edge_loads_of_paths(&topo, &sched);
        assert!(loads.iter().all(|&l| (l - 1.0).abs() < 1e-12));
        assert!((max_link_load_of_paths(&topo, &sched) - 1.0).abs() < 1e-12);
        assert!((effective_flow_value(&topo, &sched) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn directed_ring_single_path_load_matches_mcf_inverse() {
        let topo = generators::ring(4);
        let sched = single_path_schedule(&topo);
        // Every commodity has exactly one path; the bottleneck link carries
        // 1 + 2 + 3 = 6 units? No: each link carries flows whose shortest path crosses
        // it: for the 4-ring each link is crossed by 6 of the 12 commodities' hops in
        // total: sum of distances 24 / 4 links = 6.
        assert!((max_link_load_of_paths(&topo, &sched) - 6.0).abs() < 1e-12);
        assert!((path_schedule_all_to_all_time(&topo, &sched) - 6.0).abs() < 1e-12);
    }

    #[test]
    fn throughput_conversion_matches_bound() {
        assert_eq!(
            throughput_gbps(27, 1.0 / 9.0, 3.125),
            crate::bounds::throughput_upper_bound(27, 1.0 / 9.0, 3.125)
        );
    }

    #[test]
    fn effective_flow_value_of_empty_load_is_zero() {
        let topo = generators::complete(3);
        // A schedule over a 2-endpoint subset leaves most links unused but still has a
        // positive max load.
        let commodities = CommoditySet::among(vec![0, 1]);
        let raw = vec![
            vec![(Path::new(vec![0, 1]), 1.0)],
            vec![(Path::new(vec![1, 0]), 1.0)],
        ];
        let sched = PathSchedule::from_weighted_paths(commodities, 1.0, raw);
        assert!(effective_flow_value(&topo, &sched) > 0.0);
    }
}
