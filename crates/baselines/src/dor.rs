//! Dimension-Ordered Routing (DOR) for tori and meshes.
//!
//! The classic deterministic routing of Dally & Seitz \[17\]: every packet corrects its
//! coordinates one dimension at a time, taking the shorter way around each ring (ties
//! broken towards the positive direction). DOR is bandwidth-optimal for all-to-all on
//! symmetric tori but is undefined for punctured or irregular topologies — exactly the
//! limitation the paper contrasts MCF against (Fig. 4, Fig. 5).

use a2a_mcf::{CommoditySet, McfError, McfResult, PathSchedule};
use a2a_topology::generators::{coords_to_node, node_to_coords};
use a2a_topology::{Path, Topology};

/// Computes the DOR schedule for an all-to-all on a torus with the given dimension
/// sizes. The topology must be the torus produced by
/// [`a2a_topology::generators::torus`] for the same `dims` (node numbering is
/// row-major mixed radix).
pub fn dimension_ordered_routing(topo: &Topology, dims: &[usize]) -> McfResult<PathSchedule> {
    let n: usize = dims.iter().product();
    if n != topo.num_nodes() {
        return Err(McfError::BadArgument(format!(
            "dims {:?} imply {n} nodes but the topology has {}",
            dims,
            topo.num_nodes()
        )));
    }
    let commodities = CommoditySet::all_pairs(n);
    let mut raw = Vec::with_capacity(commodities.len());
    for (_, s, d) in commodities.iter() {
        let path = dor_path(s, d, dims);
        // Verify the route only uses real links; punctured tori make this fail, which
        // is the expected behaviour for DOR.
        if !path.is_valid_in(topo) {
            return Err(McfError::BadTopology(format!(
                "DOR route {:?} uses a missing link (punctured torus?)",
                path.nodes()
            )));
        }
        raw.push(vec![(path, 1.0)]);
    }
    let mut schedule = PathSchedule::from_weighted_paths(commodities, 0.0, raw);
    schedule.flow_value = a2a_mcf::analysis::effective_flow_value(topo, &schedule);
    Ok(schedule)
}

/// The dimension-ordered path from `s` to `d` on a torus with the given dimensions.
fn dor_path(s: usize, d: usize, dims: &[usize]) -> Path {
    assert_ne!(s, d, "source and destination must differ");
    let mut cur = node_to_coords(s, dims);
    let target = node_to_coords(d, dims);
    let mut nodes = vec![s];
    for dim in 0..dims.len() {
        let size = dims[dim] as isize;
        while cur[dim] != target[dim] {
            let forward = (target[dim] as isize - cur[dim] as isize).rem_euclid(size);
            let backward = (cur[dim] as isize - target[dim] as isize).rem_euclid(size);
            let step: isize = if forward <= backward { 1 } else { -1 };
            cur[dim] = ((cur[dim] as isize + step).rem_euclid(size)) as usize;
            nodes.push(coords_to_node(&cur, dims));
        }
    }
    Path::new(nodes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use a2a_mcf::analysis::max_link_load_of_paths;
    use a2a_mcf::solve_link_mcf;
    use a2a_topology::generators;

    #[test]
    fn dor_paths_are_minimal_on_the_torus() {
        let dims = [3usize, 3, 3];
        let topo = generators::torus(&dims);
        for (s, d) in [(0usize, 26usize), (4, 22), (13, 1)] {
            let p = dor_path(s, d, &dims);
            let bfs = topo.bfs_distances(s)[d].unwrap();
            assert_eq!(p.hops(), bfs, "DOR path {s}->{d} must be shortest");
            assert!(p.is_valid_in(&topo));
        }
    }

    #[test]
    fn dor_is_bandwidth_optimal_on_the_3d_torus() {
        // The paper calls DOR a strong, theoretically optimal baseline on the 3D torus.
        // On the 3x3x3 torus the MCF optimum equals the distance/capacity bound
        // (F = 1/9, §5.2), so DOR should hit that bound exactly.
        let dims = [3usize, 3, 3];
        let topo = generators::torus(&dims);
        let sched = dimension_ordered_routing(&topo, &dims).unwrap();
        assert!(sched.check_consistency(&topo, 1e-9).is_empty());
        let time = max_link_load_of_paths(&topo, &sched);
        let bound = a2a_mcf::bounds::distance_capacity_lower_bound(&topo).unwrap();
        assert!(
            (bound - 9.0).abs() < 1e-9,
            "torus bound should be 9, got {bound}"
        );
        assert!(
            (time - bound).abs() / bound < 0.01,
            "DOR time {time} vs optimal {bound}"
        );
    }

    #[test]
    fn dor_matches_link_mcf_on_a_small_torus() {
        let dims = [3usize, 3];
        let topo = generators::torus(&dims);
        let sched = dimension_ordered_routing(&topo, &dims).unwrap();
        let time = max_link_load_of_paths(&topo, &sched);
        let optimal = 1.0 / solve_link_mcf(&topo).unwrap().flow_value;
        assert!(
            (time - optimal).abs() / optimal < 0.01,
            "DOR time {time} vs optimal {optimal}"
        );
    }

    #[test]
    fn dor_fails_on_punctured_torus() {
        use rand::SeedableRng;
        let dims = [3usize, 3, 3];
        let topo = generators::torus(&dims);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
        let punctured = a2a_topology::puncture::remove_random_links(&topo, 3, &mut rng);
        // DOR is not defined on punctured tori: at least one route must hit a missing
        // link (removing any link breaks the deterministic routes that used it).
        assert!(matches!(
            dimension_ordered_routing(&punctured, &dims),
            Err(McfError::BadTopology(_))
        ));
    }

    #[test]
    fn mismatched_dimensions_are_rejected() {
        let topo = generators::torus(&[3, 3]);
        assert!(matches!(
            dimension_ordered_routing(&topo, &[3, 3, 3]),
            Err(McfError::BadArgument(_))
        ));
    }

    #[test]
    fn wraparound_takes_the_short_way() {
        let dims = [5usize];
        let p = dor_path(0, 4, &dims);
        // 0 -> 4 backwards through the wraparound is 1 hop.
        assert_eq!(p.hops(), 1);
        let p = dor_path(0, 2, &dims);
        assert_eq!(p.hops(), 2);
    }
}
