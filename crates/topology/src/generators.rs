//! Generators for every topology family used in the paper's evaluation (§5).
//!
//! All generators produce unit link capacities; callers can rescale with
//! [`Topology::set_capacity`]. Bidirectional families (hypercube, torus,
//! bipartite, expanders) are emitted as pairs of directed edges; the generalized Kautz
//! family is genuinely directed.

use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::graph::{NodeId, Topology};

/// A directed ring on `n` nodes (`i -> i+1 mod n`).
pub fn ring(n: usize) -> Topology {
    assert!(n >= 2, "ring needs at least 2 nodes");
    let mut t = Topology::new(n, format!("ring-{n}"));
    for i in 0..n {
        t.add_edge(i, (i + 1) % n, 1.0);
    }
    t
}

/// A bidirectional ring on `n` nodes.
pub fn bidirectional_ring(n: usize) -> Topology {
    assert!(n >= 3, "bidirectional ring needs at least 3 nodes");
    let mut t = Topology::new(n, format!("biring-{n}"));
    for i in 0..n {
        t.add_bidirectional(i, (i + 1) % n, 1.0);
    }
    t
}

/// The complete (fully connected) bidirectional graph on `n` nodes.
pub fn complete(n: usize) -> Topology {
    let mut t = Topology::new(n, format!("complete-{n}"));
    for i in 0..n {
        for j in (i + 1)..n {
            t.add_bidirectional(i, j, 1.0);
        }
    }
    t
}

/// The complete bipartite graph `K_{a,b}`: nodes `0..a` on one side, `a..a+b` on the
/// other, every cross pair connected by a full-duplex link.
///
/// The paper's 8-node testbed uses `K_{4,4}` (degree 4).
pub fn complete_bipartite(a: usize, b: usize) -> Topology {
    assert!(a >= 1 && b >= 1, "both sides must be non-empty");
    let mut t = Topology::new(a + b, format!("bipartite-{a}x{b}"));
    for i in 0..a {
        for j in 0..b {
            t.add_bidirectional(i, a + j, 1.0);
        }
    }
    t
}

/// The binary hypercube of dimension `dim` (`2^dim` nodes, degree `dim`).
pub fn hypercube(dim: usize) -> Topology {
    assert!(dim >= 1, "hypercube dimension must be at least 1");
    let n = 1usize << dim;
    let mut t = Topology::new(n, format!("hypercube-{dim}d"));
    for u in 0..n {
        for bit in 0..dim {
            let v = u ^ (1 << bit);
            if u < v {
                t.add_bidirectional(u, v, 1.0);
            }
        }
    }
    t
}

/// A twisted hypercube: the binary hypercube with one pair of parallel edges in the
/// highest dimension exchanged, which reduces the diameter by one for small cubes.
///
/// For `dim = 3` this matches the 8-node "3D twisted hypercube" testbed topology of the
/// paper (degree 3).
pub fn twisted_hypercube(dim: usize) -> Topology {
    assert!(dim >= 2, "twisted hypercube needs dimension >= 2");
    let mut t = hypercube(dim);
    t.set_name(format!("twisted-hypercube-{dim}d"));
    let h = 1usize << (dim - 1);
    // Remove the parallel edges 0 <-> h and 1 <-> 1+h, add the crossed pair.
    let remove: Vec<_> = [(0, h), (h, 0), (1, 1 + h), (1 + h, 1)]
        .iter()
        .map(|&(a, b)| t.find_edge(a, b).expect("hypercube edge must exist"))
        .collect();
    let mut twisted = t.without_edges(&remove);
    twisted.set_name(format!("twisted-hypercube-{dim}d"));
    twisted.add_bidirectional(0, 1 + h, 1.0);
    twisted.add_bidirectional(1, h, 1.0);
    twisted
}

/// Converts a node id into mixed-radix coordinates for the given dimension sizes
/// (row-major: the last dimension varies fastest).
pub fn node_to_coords(node: NodeId, dims: &[usize]) -> Vec<usize> {
    let mut coords = vec![0; dims.len()];
    let mut rem = node;
    for (i, &d) in dims.iter().enumerate().rev() {
        coords[i] = rem % d;
        rem /= d;
    }
    coords
}

/// Converts mixed-radix coordinates back into a node id (inverse of
/// [`node_to_coords`]).
pub fn coords_to_node(coords: &[usize], dims: &[usize]) -> NodeId {
    let mut node = 0;
    for (c, d) in coords.iter().zip(dims) {
        debug_assert!(c < d);
        node = node * d + c;
    }
    node
}

/// A d-dimensional torus with the given per-dimension sizes (wraparound links).
///
/// Dimensions of size 2 contribute a single full-duplex link instead of a doubled one,
/// and dimensions of size 1 contribute nothing.
pub fn torus(dims: &[usize]) -> Topology {
    grid(dims, true)
}

/// A d-dimensional mesh (no wraparound links).
pub fn mesh(dims: &[usize]) -> Topology {
    grid(dims, false)
}

fn grid(dims: &[usize], wrap: bool) -> Topology {
    assert!(!dims.is_empty(), "at least one dimension required");
    assert!(dims.iter().all(|&d| d >= 1), "dimension sizes must be >= 1");
    let n: usize = dims.iter().product();
    let kind = if wrap { "torus" } else { "mesh" };
    let label = dims
        .iter()
        .map(usize::to_string)
        .collect::<Vec<_>>()
        .join("x");
    let mut t = Topology::new(n, format!("{kind}-{label}"));
    for node in 0..n {
        // Row-major ids: a step along a dimension adds the product of the later sizes.
        let mut stride = n;
        for &size in dims {
            stride /= size;
            let coord = node / stride % size;
            let v = if coord + 1 < size {
                node + stride
            } else if wrap && size > 2 {
                node - coord * stride
            } else {
                // No wraparound in meshes; in tori a size-2 dimension would duplicate
                // the +1 link (and a size-1 dimension has no link at all).
                continue;
            };
            if !t.has_edge(node, v) {
                t.add_bidirectional(node, v, 1.0);
            }
        }
    }
    t
}

/// The generalized Kautz digraph GK(d, n) of Imase and Itoh: node `u` has arcs to
/// `(-d*u - j) mod n` for `j = 1..=d`.
///
/// The construction exists for every `n` and `d` (the coverage property §5.4 relies
/// on); self-loops and coincident arcs produced by the formula are skipped, which can
/// lower the degree of a few nodes for unfavourable `(n, d)` combinations.
pub fn generalized_kautz(n: usize, d: usize) -> Topology {
    assert!(n >= 2, "GenKautz needs at least 2 nodes");
    assert!(d >= 1, "GenKautz needs degree >= 1");
    let mut t = Topology::new(n, format!("genkautz-{n}-d{d}"));
    for u in 0..n {
        for j in 1..=d {
            // v = (-d*u - j) mod n computed with unsigned arithmetic.
            let raw = (d * u + j) % n;
            let v = (n - raw) % n;
            if v != u && !t.has_edge(u, v) {
                t.add_edge(u, v, 1.0);
            }
        }
    }
    t
}

/// An Xpander-style expander: `d + 1` groups of `k` nodes; every pair of groups is
/// connected by a random perfect matching, giving a `d`-regular bidirectional graph on
/// `(d + 1) * k` nodes.
pub fn xpander(d: usize, k: usize, seed: u64) -> Topology {
    assert!(d >= 2, "xpander needs degree >= 2");
    assert!(k >= 1, "xpander needs group size >= 1");
    let groups = d + 1;
    let n = groups * k;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut t = Topology::new(n, format!("xpander-{n}-d{d}"));
    for g1 in 0..groups {
        for g2 in (g1 + 1)..groups {
            let mut perm: Vec<usize> = (0..k).collect();
            perm.shuffle(&mut rng);
            for (i, &j) in perm.iter().enumerate() {
                t.add_bidirectional(g1 * k + i, g2 * k + j, 1.0);
            }
        }
    }
    t
}

/// A uniformly random simple `d`-regular bidirectional graph on `n` nodes (the
/// Jellyfish construction), built with the configuration model plus rejection.
///
/// # Panics
/// Panics if `n * d` is odd, `d >= n`, or no simple pairing is found after many
/// attempts (practically impossible for sensible parameters).
pub fn random_regular(n: usize, d: usize, seed: u64) -> Topology {
    assert!(d >= 1 && d < n, "degree must satisfy 1 <= d < n");
    assert!(
        (n * d).is_multiple_of(2),
        "n*d must be even for a d-regular graph"
    );
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    'attempt: for _ in 0..500 {
        let mut stubs: Vec<usize> = (0..n * d).map(|s| s / d).collect();
        stubs.shuffle(&mut rng);
        let mut t = Topology::new(n, format!("random-regular-{n}-d{d}"));
        for pair in stubs.chunks(2) {
            let (a, b) = (pair[0], pair[1]);
            if a == b || t.has_edge(a, b) {
                continue 'attempt;
            }
            t.add_bidirectional(a, b, 1.0);
        }
        if t.is_strongly_connected() {
            return t;
        }
    }
    panic!("failed to generate a connected simple {d}-regular graph on {n} nodes");
}

/// Picks a `rows x cols` factorization of `n` that is as square as possible and builds
/// the corresponding 2D torus. Used for topology sweeps where only `n` is given.
pub fn torus_2d_near_square(n: usize) -> Topology {
    let mut best = (1, n);
    let mut r = 1;
    while r * r <= n {
        if n.is_multiple_of(r) {
            best = (r, n / r);
        }
        r += 1;
    }
    torus(&[best.0, best.1])
}

/// A folded-Clos / fat-tree fabric with two switching tiers: `leaves` leaf switches
/// each attaching `hosts_per_leaf` hosts, fully meshed to `spines` spine switches.
///
/// Node numbering: hosts first (`0 .. leaves*hosts_per_leaf`, host `h` under leaf
/// `h / hosts_per_leaf`), then leaf switches, then spine switches. Host links have
/// unit capacity; each leaf–spine link carries `hosts_per_leaf / spines` so the
/// fabric is exactly full-bisection (rescale with
/// [`Topology::set_capacity`] for over/under-subscription studies).
///
/// All-to-all traffic runs between the *hosts*; the switches are transit-only, so
/// MCF solvers should be given the host set as commodities (for example
/// [`FatTree::hosts`] via `CommoditySet::among`).
pub struct FatTree {
    /// The generated graph (hosts + switches).
    pub graph: Topology,
    /// The host vertices, in id order.
    pub hosts: Vec<NodeId>,
}

/// Builds a two-tier fat tree (see [`FatTree`]).
pub fn fat_tree_two_level(leaves: usize, spines: usize, hosts_per_leaf: usize) -> FatTree {
    assert!(leaves >= 1 && spines >= 1 && hosts_per_leaf >= 1);
    let nhosts = leaves * hosts_per_leaf;
    let n = nhosts + leaves + spines;
    let mut t = Topology::new(n, format!("fattree-{leaves}l{spines}s{hosts_per_leaf}h"));
    let leaf_id = |l: usize| nhosts + l;
    let spine_id = |s: usize| nhosts + leaves + s;
    for l in 0..leaves {
        for h in 0..hosts_per_leaf {
            t.add_bidirectional(l * hosts_per_leaf + h, leaf_id(l), 1.0);
        }
        let uplink = hosts_per_leaf as f64 / spines as f64;
        for s in 0..spines {
            t.add_bidirectional(leaf_id(l), spine_id(s), uplink);
        }
    }
    FatTree {
        graph: t,
        hosts: (0..nhosts).collect(),
    }
}

/// A random `d`-out-regular digraph: each node picks `d` distinct out-neighbours
/// uniformly at random. Useful as a stress-test topology for the schedulers.
pub fn random_directed(n: usize, d: usize, seed: u64) -> Topology {
    assert!(d >= 1 && d < n, "degree must satisfy 1 <= d < n");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    loop {
        let mut t = Topology::new(n, format!("random-directed-{n}-d{d}"));
        for u in 0..n {
            let mut targets = std::collections::HashSet::new();
            while targets.len() < d {
                let v = rng.random_range(0..n);
                if v != u {
                    targets.insert(v);
                }
            }
            for v in targets {
                t.add_edge(u, v, 1.0);
            }
        }
        if t.is_strongly_connected() {
            return t;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;

    #[test]
    fn two_level_fat_tree_shape() {
        let ft = fat_tree_two_level(4, 2, 4);
        assert_eq!(ft.hosts.len(), 16);
        assert_eq!(ft.graph.num_nodes(), 16 + 4 + 2);
        assert!(ft.graph.is_strongly_connected());
        // Host links are unit; leaf-spine links split the host bandwidth evenly.
        let host_edge = ft.graph.out_edges(0)[0];
        assert_eq!(ft.graph.edge(host_edge).capacity, 1.0);
        let leaf = 16; // first leaf switch id
        let uplink = ft
            .graph
            .out_edges(leaf)
            .iter()
            .map(|&e| ft.graph.edge(e))
            .find(|edge| edge.dst >= 16 + 4)
            .expect("leaf has a spine uplink");
        assert_eq!(uplink.capacity, 2.0);
    }

    #[test]
    fn ring_structure() {
        let t = ring(5);
        assert_eq!(t.num_nodes(), 5);
        assert_eq!(t.num_edges(), 5);
        assert_eq!(t.regular_degree(), Some(1));
        assert!(t.is_strongly_connected());
    }

    #[test]
    fn complete_graph_has_all_pairs() {
        let t = complete(6);
        assert_eq!(t.num_edges(), 6 * 5);
        assert_eq!(t.regular_degree(), Some(5));
        assert_eq!(metrics::diameter(&t), Some(1));
    }

    #[test]
    fn complete_bipartite_matches_testbed_shape() {
        // The paper's 8-node bipartite testbed: degree 4.
        let t = complete_bipartite(4, 4);
        assert_eq!(t.num_nodes(), 8);
        assert_eq!(t.regular_degree(), Some(4));
        assert_eq!(metrics::diameter(&t), Some(2));
        // No edges inside a side.
        assert!(!t.has_edge(0, 1));
        assert!(t.has_edge(0, 4));
    }

    #[test]
    fn hypercube_degree_and_diameter() {
        let t = hypercube(3);
        assert_eq!(t.num_nodes(), 8);
        assert_eq!(t.regular_degree(), Some(3));
        assert_eq!(metrics::diameter(&t), Some(3));
    }

    #[test]
    fn twisted_hypercube_keeps_degree_and_shrinks_diameter() {
        let t = twisted_hypercube(3);
        assert_eq!(t.num_nodes(), 8);
        assert_eq!(t.regular_degree(), Some(3));
        assert!(t.is_strongly_connected());
        // The twist reduces the diameter of the 3-cube from 3 to 2.
        assert_eq!(metrics::diameter(&t), Some(2));
    }

    #[test]
    fn torus_3x3x3_matches_tacc_cluster() {
        let t = torus(&[3, 3, 3]);
        assert_eq!(t.num_nodes(), 27);
        assert_eq!(t.regular_degree(), Some(6));
        assert!(t.is_strongly_connected());
        assert_eq!(metrics::diameter(&t), Some(3));
    }

    #[test]
    fn torus_size_two_dimensions_do_not_duplicate_links() {
        let t = torus(&[2, 2]);
        assert_eq!(t.num_nodes(), 4);
        // 4-cycle: each node has degree 2.
        assert_eq!(t.regular_degree(), Some(2));
    }

    #[test]
    fn mesh_has_no_wraparound() {
        let m = mesh(&[3, 3]);
        assert_eq!(m.num_nodes(), 9);
        // Corner node 0 has degree 2, centre node 4 has degree 4.
        assert_eq!(m.out_degree(0), 2);
        assert_eq!(m.out_degree(4), 4);
        assert!(m.is_strongly_connected());
    }

    /// The per-node coordinate walk `grid` used through PR 18, kept as the
    /// reference for its replacement: edge ids and order fix the column order
    /// of every LP built on a torus or a mesh.
    fn grid_by_coordinates(dims: &[usize], wrap: bool) -> Topology {
        assert!(!dims.is_empty(), "at least one dimension required");
        assert!(dims.iter().all(|&d| d >= 1), "dimension sizes must be >= 1");
        let n: usize = dims.iter().product();
        let kind = if wrap { "torus" } else { "mesh" };
        let label = dims
            .iter()
            .map(usize::to_string)
            .collect::<Vec<_>>()
            .join("x");
        let mut t = Topology::new(n, format!("{kind}-{label}"));
        for node in 0..n {
            let coords = node_to_coords(node, dims);
            for (dim, &size) in dims.iter().enumerate() {
                if size < 2 {
                    continue;
                }
                let mut next = coords.clone();
                next[dim] = (coords[dim] + 1) % size;
                let is_wrap = next[dim] == 0 && coords[dim] == size - 1;
                if is_wrap && (!wrap || size == 2) {
                    // No wraparound in meshes; in tori a size-2 dimension would duplicate
                    // the +1 link.
                    continue;
                }
                let v = coords_to_node(&next, dims);
                if !t.has_edge(node, v) {
                    t.add_bidirectional(node, v, 1.0);
                }
            }
        }
        t
    }

    #[test]
    fn grid_repeats_the_coordinate_walk_edge_for_edge() {
        let shapes: [&[usize]; 10] = [
            &[8, 8],
            &[3, 3, 3],
            &[4, 4, 2],
            &[3, 3, 2],
            &[2, 3, 1, 4],
            &[6, 1, 2],
            &[2, 2],
            &[5],
            &[2],
            &[1],
        ];
        for dims in shapes {
            for wrap in [true, false] {
                let got = if wrap { torus(dims) } else { mesh(dims) };
                let want = grid_by_coordinates(dims, wrap);
                assert_eq!(got.name(), want.name());
                assert_eq!(got.num_nodes(), want.num_nodes(), "{}", want.name());
                assert_eq!(got.edges(), want.edges(), "{}", want.name());
            }
        }
    }

    #[test]
    fn coordinates_roundtrip() {
        let dims = [3, 4, 5];
        for node in 0..60 {
            let coords = node_to_coords(node, &dims);
            assert_eq!(coords_to_node(&coords, &dims), node);
            for (c, d) in coords.iter().zip(&dims) {
                assert!(c < d);
            }
        }
    }

    #[test]
    fn generalized_kautz_is_connected_with_low_diameter() {
        for &(n, d) in &[(12usize, 3usize), (27, 4), (50, 4), (81, 8)] {
            let t = generalized_kautz(n, d);
            assert_eq!(t.num_nodes(), n);
            assert!(t.is_strongly_connected(), "GK({n},{d}) must be connected");
            let diam = metrics::diameter(&t).unwrap();
            // Imase–Itoh guarantee: diameter <= ceil(log_d n).
            let bound = (n as f64).log(d as f64).ceil() as usize;
            assert!(
                diam <= bound + 1,
                "GK({n},{d}) diameter {diam} exceeds bound {bound}+1"
            );
        }
    }

    #[test]
    fn generalized_kautz_degree_is_at_most_d() {
        let t = generalized_kautz(36, 4);
        for v in 0..t.num_nodes() {
            assert!(t.out_degree(v) <= 4);
            assert!(t.out_degree(v) >= 3, "degree collapsed at node {v}");
        }
    }

    #[test]
    fn xpander_is_regular_and_connected() {
        let t = xpander(4, 8, 7);
        assert_eq!(t.num_nodes(), 40);
        assert_eq!(t.regular_degree(), Some(4));
        assert!(t.is_strongly_connected());
    }

    #[test]
    fn random_regular_is_regular_connected_and_deterministic() {
        let a = random_regular(24, 4, 42);
        let b = random_regular(24, 4, 42);
        assert_eq!(a.regular_degree(), Some(4));
        assert!(a.is_strongly_connected());
        assert_eq!(a.num_edges(), b.num_edges());
        for (ea, eb) in a.edges().iter().zip(b.edges()) {
            assert_eq!((ea.src, ea.dst), (eb.src, eb.dst));
        }
    }

    #[test]
    fn random_directed_is_out_regular() {
        let t = random_directed(15, 3, 3);
        for v in 0..15 {
            assert_eq!(t.out_degree(v), 3);
        }
        assert!(t.is_strongly_connected());
    }

    #[test]
    fn near_square_torus_factors_n() {
        let t = torus_2d_near_square(36);
        assert_eq!(t.num_nodes(), 36);
        assert_eq!(t.regular_degree(), Some(4));
        let t = torus_2d_near_square(30);
        assert_eq!(t.num_nodes(), 30);
    }
}
