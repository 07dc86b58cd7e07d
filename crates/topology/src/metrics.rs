//! Structural graph metrics used by the bounds and topology-comparison experiments.

use crate::graph::{NodeId, Topology};

/// Hop diameter of the topology, or `None` if it is not strongly connected.
pub fn diameter(topo: &Topology) -> Option<usize> {
    let mut best = 0usize;
    for src in 0..topo.num_nodes() {
        let ecc = eccentricity(topo, src)?;
        best = best.max(ecc);
    }
    Some(best)
}

/// Eccentricity of `src` (longest shortest path leaving it), or `None` if some node is
/// unreachable.
fn eccentricity(topo: &Topology, src: NodeId) -> Option<usize> {
    let dist = topo.bfs_distances(src);
    let mut ecc = 0usize;
    for d in dist {
        ecc = ecc.max(d?);
    }
    Some(ecc)
}

/// Sum of hop distances from `root` to every other node, or `None` if some node is
/// unreachable. This is the `Σ_u D(r, u)` quantity in the Theorem-1 lower bound.
fn distance_sum_from(topo: &Topology, root: NodeId) -> Option<usize> {
    let dist = topo.bfs_distances(root);
    let mut total = 0usize;
    for d in dist {
        total += d?;
    }
    Some(total)
}

/// Sum of hop distances over all ordered pairs, or `None` if not strongly connected.
pub fn total_distance_sum(topo: &Topology) -> Option<usize> {
    let mut total = 0usize;
    for root in 0..topo.num_nodes() {
        total += distance_sum_from(topo, root)?;
    }
    Some(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn diameter_of_known_graphs() {
        assert_eq!(diameter(&generators::complete(5)), Some(1));
        assert_eq!(diameter(&generators::hypercube(4)), Some(4));
        assert_eq!(diameter(&generators::bidirectional_ring(8)), Some(4));
        assert_eq!(diameter(&generators::ring(8)), Some(7));
    }

    #[test]
    fn diameter_is_none_for_disconnected() {
        let t = crate::Topology::new(3, "disconnected");
        assert_eq!(diameter(&t), None);
        assert_eq!(distance_sum_from(&t, 0), None);
    }

    #[test]
    fn distance_sums_match_by_symmetry() {
        let t = generators::hypercube(3);
        // Vertex-transitive graph: every root has the same distance sum.
        let s0 = distance_sum_from(&t, 0).unwrap();
        for v in 1..8 {
            assert_eq!(distance_sum_from(&t, v).unwrap(), s0);
        }
        // Hypercube Q3: sum of distances = 3*C(3,1)*1? Actually sum over Hamming
        // weights: 3 nodes at distance 1, 3 at 2, 1 at 3 -> 3 + 6 + 3 = 12.
        assert_eq!(s0, 12);
        assert_eq!(total_distance_sum(&t).unwrap(), 12 * 8);
    }

    #[test]
    fn eccentricity_of_ring_nodes() {
        let t = generators::bidirectional_ring(6);
        for v in 0..6 {
            assert_eq!(eccentricity(&t, v), Some(3));
        }
    }
}
