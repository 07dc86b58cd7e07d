//! Analytic bounds: the throughput upper bound used throughout §5 and the Theorem-1
//! lower bound on all-to-all completion time.

use a2a_topology::{metrics, Topology};

/// Throughput upper bound `(N - 1) · F · b` of §5.2: with optimal concurrent flow value
/// `F` (per unit link capacity) and link bandwidth `b`, each node sources `N - 1`
/// commodities at rate `F · b`.
pub fn throughput_upper_bound(num_nodes: usize, flow_value: f64, link_bandwidth: f64) -> f64 {
    (num_nodes.saturating_sub(1)) as f64 * flow_value * link_bandwidth
}

/// Exact per-topology lower bound on all-to-all time (`1 / F`): every unit of commodity
/// `(s, d)` consumes at least `dist(s, d)` link capacity, so
/// `1/F >= Σ_{s,d} dist(s,d) / Σ_e cap_e`.
///
/// Returns `None` if the topology is not strongly connected.
pub fn distance_capacity_lower_bound(topo: &Topology) -> Option<f64> {
    let total_dist = metrics::total_distance_sum(topo)? as f64;
    let total_cap: f64 = topo
        .edges()
        .iter()
        .map(|e| e.capacity)
        .filter(|c| c.is_finite())
        .sum();
    if total_cap <= 0.0 {
        return None;
    }
    Some(total_dist / total_cap)
}

/// The Theorem-1 lower bound on all-to-all time for *any* `d`-regular topology on `n`
/// nodes: no graph can beat a full outgoing `d`-ary arborescence, whose distance sum
/// divided by `d` lower-bounds `1/F`. Evaluates the bound exactly (not just the
/// `Θ(N log_d N)` scaling form).
pub fn lower_bound_all_to_all_time(n: usize, d: usize) -> f64 {
    assert!(d >= 1, "degree must be at least 1");
    if n <= 1 {
        return 0.0;
    }
    // Place nodes greedily on levels of the ideal arborescence: level 0 holds the root,
    // level i holds up to d^i nodes.
    let mut remaining = n - 1;
    let mut level = 1usize;
    let mut level_capacity = d as u64;
    let mut dist_sum = 0f64;
    while remaining > 0 {
        let here = remaining.min(level_capacity.min(usize::MAX as u64) as usize);
        dist_sum += (level * here) as f64;
        remaining -= here;
        level += 1;
        level_capacity = level_capacity.saturating_mul(d as u64);
    }
    dist_sum / d as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use a2a_topology::generators;

    #[test]
    fn throughput_upper_bound_matches_paper_example() {
        // §5.2: bottlenecked 3D torus (N = 27), F = 2/27, b = 3.125 GB/s
        //       => (26)(2/27)(3.125) = 6.01 GB/s.
        let ub = throughput_upper_bound(27, 2.0 / 27.0, 3.125);
        assert!((ub - 6.0185).abs() < 1e-3, "{ub}");
        // Non-bottlenecked: F = 1/9 => 9.03 GB/s.
        let ub = throughput_upper_bound(27, 1.0 / 9.0, 3.125);
        assert!((ub - 9.0278).abs() < 1e-3, "{ub}");
    }

    #[test]
    fn distance_bound_on_known_graphs() {
        // Complete graph: every distance 1, capacity n(n-1) -> bound = 1.
        let k4 = generators::complete(4);
        assert!((distance_capacity_lower_bound(&k4).unwrap() - 1.0).abs() < 1e-12);
        // Directed ring n=4: distances sum 24, capacity 4 -> bound 6 (=1/F of the MCF).
        let ring = generators::ring(4);
        assert!((distance_capacity_lower_bound(&ring).unwrap() - 6.0).abs() < 1e-12);
        // Hypercube Q3: 96 / 24 = 4 = 1/(1/4).
        let q3 = generators::hypercube(3);
        assert!((distance_capacity_lower_bound(&q3).unwrap() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn distance_bound_requires_connectivity() {
        let t = Topology::new(3, "empty");
        assert!(distance_capacity_lower_bound(&t).is_none());
    }

    #[test]
    fn theorem1_bound_is_below_every_regular_topology_bound() {
        // The ideal-arborescence bound can never exceed the per-topology distance bound
        // for a d-regular graph with unit capacities.
        for (topo, d) in [
            (generators::hypercube(3), 3usize),
            (generators::torus(&[3, 3]), 4),
            (generators::generalized_kautz(20, 4), 4),
        ] {
            let per_topo = distance_capacity_lower_bound(&topo).unwrap();
            // For unit capacities the per-topology bound averages Σ_u dist(r,u)/d over
            // roots r, and every root's distance sum is at least the ideal
            // d-ary-arborescence sum, so the universal bound can never exceed it.
            let universal = lower_bound_all_to_all_time(topo.num_nodes(), d);
            assert!(
                universal <= per_topo + 1e-9,
                "{}: universal {universal} > per-topology {per_topo}",
                topo.name()
            );
        }
    }

    #[test]
    fn theorem1_bound_small_cases() {
        // n = 1: nothing to send.
        assert_eq!(lower_bound_all_to_all_time(1, 4), 0.0);
        // n = d + 1: every node at distance 1 -> bound = d/d = 1... with n-1 = d nodes
        // at level 1: sum = d, /d = 1.
        assert!((lower_bound_all_to_all_time(5, 4) - 1.0).abs() < 1e-12);
        // d = 2, n = 7: levels 2 + 4 -> sum = 1*2 + 2*4 = 10, /2 = 5.
        assert!((lower_bound_all_to_all_time(7, 2) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn theorem1_bound_grows_like_n_log_n() {
        let d = 4;
        let exact_100 = lower_bound_all_to_all_time(100, d);
        let exact_1000 = lower_bound_all_to_all_time(1000, d);
        // The `Θ(N log_d N)` form of Theorem 1.
        let scaling = |n: usize| n as f64 * (n as f64).log(d as f64) / d as f64;
        let (scaling_100, scaling_1000) = (scaling(100), scaling(1000));
        // Ratio of exact bounds should track the ratio of the scaling form within a
        // modest constant factor.
        let exact_ratio = exact_1000 / exact_100;
        let scaling_ratio = scaling_1000 / scaling_100;
        assert!(exact_ratio > 0.5 * scaling_ratio && exact_ratio < 2.0 * scaling_ratio);
    }
}
