//! Deadlock-free virtual-channel (layer) assignment for source-routed fabrics.
//!
//! Wormhole/flit routing deadlocks when the channel dependency graph (CDG) of the
//! routes sharing a virtual channel contains a cycle \[17\]. LASH \[49\] removes the
//! risk by partitioning routes into layers (virtual channels) whose per-layer CDG is
//! acyclic. §5.5 reports that a sequential variant ("LASH-sequential") needed at most
//! four layers across every algorithm and topology evaluated.
//!
//! [`assign_virtual_channels`] is first-fit: each route goes to the first layer
//! that stays acyclic with it. A route over links `e_0 … e_{k-1}` adds the chain
//! `e_0 → … → e_{k-1}` to a layer's acyclic CDG, and that closes a cycle iff some
//! later link `e_j` already reaches an earlier one `e_i` (`i < j`) in the layer.
//! The test is exact: chain arcs only step forward along the route, so a new
//! cycle must step back at least once, through the layer's old arcs; and any such
//! path, closed by the chain from `e_i` to `e_j`, is a cycle. The search starts
//! at `e_{k-1}` and works down, so each link is visited at most once per layer
//! tried, and a layer's arcs live in a dense per-link adjacency that no trial
//! copies.
//!
//! # Panics
//! [`assign_virtual_channels`], and so [`crate::routes::lower_path_schedule`],
//! panics on a route that uses a link the fabric lacks. Routes come from solves
//! on the same fabric; a typed error would change the lowering's return type.

use a2a_topology::{EdgeId, Path, Topology};

/// Which LASH flavour to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LashVariant {
    /// Routes are processed in the order supplied.
    Basic,
    /// Routes are processed longest-first (the paper's best-performing
    /// "LASH-sequential" variant), which tends to pack long, dependency-heavy routes
    /// into the early layers.
    Sequential,
}

/// The result of a virtual-channel assignment.
#[derive(Debug, Clone)]
pub struct VcAssignment {
    layers: Vec<usize>,
    num_layers: usize,
}

impl VcAssignment {
    /// Layer (virtual channel) assigned to the `i`-th route passed to
    /// [`assign_virtual_channels`].
    pub fn layer_of(&self, route_index: usize) -> usize {
        self.layers[route_index]
    }

    /// Total number of layers used.
    pub fn num_layers(&self) -> usize {
        self.num_layers
    }

    /// Per-route layers in input order.
    pub fn layers(&self) -> &[usize] {
        &self.layers
    }
}

/// Scratch of one [`assign_virtual_channels`] call, reused for every route and
/// every layer tried.
struct ChainSearch {
    /// Index of each link on the current route; `usize::MAX` off the route.
    pos: Vec<usize>,
    /// `seen[e] == stamp` marks the links the current layer test has visited.
    seen: Vec<usize>,
    stamp: usize,
    stack: Vec<EdgeId>,
}

impl ChainSearch {
    fn new(num_edges: usize) -> Self {
        Self {
            pos: vec![usize::MAX; num_edges],
            seen: vec![0; num_edges],
            stamp: 0,
            stack: Vec::new(),
        }
    }

    /// True if adding the chain `route[0] → … → route[k-1]` to the acyclic
    /// layer `adj` closes a cycle, i.e. some `route[j]` reaches an earlier
    /// `route[i]` in `adj`. `pos` must hold the route's link indices.
    fn closes_cycle(&mut self, adj: &[Vec<EdgeId>], route: &[EdgeId]) -> bool {
        self.stamp += 1;
        // Latest link first: whatever the search from `route[j']` visited cannot
        // reach a link before `j'`, so nor one before `j < j'`, and stays marked.
        for j in (1..route.len()).rev() {
            if self.seen[route[j]] == self.stamp {
                continue;
            }
            self.seen[route[j]] = self.stamp;
            self.stack.push(route[j]);
            while let Some(link) = self.stack.pop() {
                for &next in &adj[link] {
                    if self.pos[next] < j {
                        self.stack.clear();
                        return true;
                    }
                    if self.seen[next] != self.stamp {
                        self.seen[next] = self.stamp;
                        self.stack.push(next);
                    }
                }
            }
        }
        false
    }
}

/// Assigns each route a virtual-channel layer such that every layer's channel
/// dependency graph is acyclic. Returns per-route layers in the order the routes were
/// supplied.
///
/// # Panics
/// Panics if a route uses a link `topo` does not have.
pub fn assign_virtual_channels(
    topo: &Topology,
    routes: &[&Path],
    variant: LashVariant,
) -> VcAssignment {
    let mut order: Vec<usize> = (0..routes.len()).collect();
    if variant == LashVariant::Sequential {
        order.sort_by(|&a, &b| routes[b].hops().cmp(&routes[a].hops()).then(a.cmp(&b)));
    }
    // Per layer, the dependency arcs out of each link (deduplicated).
    let mut layer_arcs: Vec<Vec<Vec<EdgeId>>> = Vec::new();
    let mut layers = vec![0usize; routes.len()];
    let mut search = ChainSearch::new(topo.num_edges());
    let mut route: Vec<EdgeId> = Vec::new();
    for &idx in &order {
        route.clear();
        route.extend(
            routes[idx]
                .links()
                .map(|(u, v)| topo.find_edge(u, v).expect("routes use topology links")),
        );
        for (i, &link) in route.iter().enumerate() {
            search.pos[link] = i;
        }
        let layer = match layer_arcs
            .iter()
            .position(|adj| !search.closes_cycle(adj, &route))
        {
            Some(layer) => layer,
            None => {
                layer_arcs.push(vec![Vec::new(); topo.num_edges()]);
                layer_arcs.len() - 1
            }
        };
        for w in route.windows(2) {
            let out = &mut layer_arcs[layer][w[0]];
            if !out.contains(&w[1]) {
                out.push(w[1]);
            }
        }
        for &link in &route {
            search.pos[link] = usize::MAX;
        }
        layers[idx] = layer;
    }
    VcAssignment {
        layers,
        num_layers: layer_arcs.len().max(1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use a2a_topology::{generators, paths, puncture};
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use std::collections::HashMap;

    /// The assignment's former layer state, kept as the reference it must
    /// match: a hashed dependency graph that each trial clones, extends and
    /// searches whole.
    #[derive(Debug, Default, Clone)]
    struct Cdg {
        /// Dependency from link `a` to link `b` (a route traverses `a` then `b`).
        edges: HashMap<EdgeId, Vec<EdgeId>>,
    }

    impl Cdg {
        fn dependencies_of(path: &Path, topo: &Topology) -> Vec<(EdgeId, EdgeId)> {
            let ids = path.edge_ids(topo).expect("routes use topology links");
            ids.windows(2).map(|w| (w[0], w[1])).collect()
        }

        fn accepts(&self, deps: &[(EdgeId, EdgeId)]) -> bool {
            if deps.is_empty() {
                return true;
            }
            let mut trial = self.clone();
            trial.insert(deps);
            trial.is_acyclic()
        }

        fn insert(&mut self, deps: &[(EdgeId, EdgeId)]) {
            for &(a, b) in deps {
                let list = self.edges.entry(a).or_default();
                if !list.contains(&b) {
                    list.push(b);
                }
            }
        }

        /// Iterative three-colour DFS over every dependency node.
        fn is_acyclic(&self) -> bool {
            #[derive(Clone, Copy, PartialEq)]
            enum Colour {
                White,
                Grey,
                Black,
            }
            let mut colour: HashMap<EdgeId, Colour> = HashMap::new();
            let nodes: Vec<EdgeId> = self
                .edges
                .iter()
                .flat_map(|(&a, bs)| std::iter::once(a).chain(bs.iter().copied()))
                .collect();
            for &start in &nodes {
                if *colour.get(&start).unwrap_or(&Colour::White) != Colour::White {
                    continue;
                }
                let mut stack = vec![(start, 0usize)];
                colour.insert(start, Colour::Grey);
                while let Some(&(node, child)) = stack.last() {
                    let children = self.edges.get(&node).map(Vec::as_slice).unwrap_or(&[]);
                    if child < children.len() {
                        stack.last_mut().expect("stack is non-empty").1 += 1;
                        let next = children[child];
                        match *colour.get(&next).unwrap_or(&Colour::White) {
                            Colour::White => {
                                colour.insert(next, Colour::Grey);
                                stack.push((next, 0));
                            }
                            Colour::Grey => return false,
                            Colour::Black => {}
                        }
                    } else {
                        colour.insert(node, Colour::Black);
                        stack.pop();
                    }
                }
            }
            true
        }
    }

    /// First-fit LASH over [`Cdg`]: the per-route layers the replaced
    /// implementation returned.
    fn reference_layers(topo: &Topology, routes: &[&Path], variant: LashVariant) -> Vec<usize> {
        let mut order: Vec<usize> = (0..routes.len()).collect();
        if variant == LashVariant::Sequential {
            order.sort_by(|&a, &b| routes[b].hops().cmp(&routes[a].hops()).then(a.cmp(&b)));
        }
        let mut cdgs: Vec<Cdg> = Vec::new();
        let mut layers = vec![0usize; routes.len()];
        for &idx in &order {
            let deps = Cdg::dependencies_of(routes[idx], topo);
            let layer = match cdgs.iter().position(|cdg| cdg.accepts(&deps)) {
                Some(layer) => layer,
                None => {
                    cdgs.push(Cdg::default());
                    cdgs.len() - 1
                }
            };
            cdgs[layer].insert(&deps);
            layers[idx] = layer;
        }
        layers
    }

    fn all_pairs_shortest_routes(topo: &Topology) -> Vec<Path> {
        let mut routes = Vec::new();
        for s in 0..topo.num_nodes() {
            for d in 0..topo.num_nodes() {
                if s != d {
                    routes.push(paths::shortest_path(topo, s, d).unwrap());
                }
            }
        }
        routes
    }

    fn layer_cdgs_are_acyclic(topo: &Topology, routes: &[Path], vc: &VcAssignment) {
        let mut cdgs = vec![Cdg::default(); vc.num_layers()];
        for (i, r) in routes.iter().enumerate() {
            cdgs[vc.layer_of(i)].insert(&Cdg::dependencies_of(r, topo));
        }
        for (l, cdg) in cdgs.iter().enumerate() {
            assert!(cdg.is_acyclic(), "layer {l} has a cyclic dependency graph");
        }
    }

    /// A small fabric of the kind `seed` picks: ring, torus, punctured torus,
    /// random regular, random directed or generalized Kautz.
    fn random_fabric(seed: u64, rng: &mut ChaCha8Rng) -> Topology {
        match seed % 6 {
            0 => generators::bidirectional_ring(rng.random_range(3..11)),
            1 => generators::torus(&[rng.random_range(3..6), rng.random_range(3..6)]),
            2 => {
                let torus = generators::torus(&[rng.random_range(3..6), rng.random_range(3..6)]);
                puncture::remove_random_links(&torus, rng.random_range(1..4), rng)
            }
            3 => {
                let n = 2 * rng.random_range(4..9);
                generators::random_regular(n, rng.random_range(2..5), seed)
            }
            4 => generators::random_directed(rng.random_range(6..16), 2, seed),
            _ => generators::generalized_kautz(rng.random_range(8..25), rng.random_range(2..5)),
        }
    }

    /// Shortest paths under random positive link weights between random
    /// pairs, interleaved with random sub-paths of them.
    fn random_routes(topo: &Topology, rng: &mut ChaCha8Rng) -> Vec<Path> {
        let n = topo.num_nodes();
        let weights: Vec<f64> = (0..topo.num_edges())
            .map(|_| 0.1 + rng.random_f64())
            .collect();
        let mut routes = Vec::new();
        for _ in 0..rng.random_range(n..4 * n) {
            let (s, d) = (rng.random_range(0..n), rng.random_range(0..n));
            let Some(path) = paths::weighted_shortest_path(topo, s, d, &weights) else {
                continue;
            };
            if path.hops() >= 2 && rng.random_bool(0.3) {
                let nodes = path.nodes();
                let a = rng.random_range(0..nodes.len() - 1);
                let b = rng.random_range(a + 1..nodes.len());
                routes.push(Path::new(nodes[a..=b].to_vec()));
            }
            routes.push(path);
        }
        routes.shuffle(rng);
        routes
    }

    #[test]
    fn reachability_test_matches_the_cloned_graph_search() {
        for seed in 0..120u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let topo = random_fabric(seed, &mut rng);
            let routes = random_routes(&topo, &mut rng);
            let refs: Vec<&Path> = routes.iter().collect();
            for variant in [LashVariant::Basic, LashVariant::Sequential] {
                let vc = assign_virtual_channels(&topo, &refs, variant);
                assert_eq!(
                    vc.layers(),
                    reference_layers(&topo, &refs, variant),
                    "seed {seed}, {}, {variant:?}",
                    topo.name()
                );
                layer_cdgs_are_acyclic(&topo, &routes, &vc);
            }
        }
    }

    /// The differential loop at benchmark scale: all 4,032 ordered pairs of
    /// torus-8×8 under random link weights (release builds only).
    #[cfg(not(debug_assertions))]
    #[test]
    fn reachability_test_matches_the_cloned_graph_search_on_torus_8x8() {
        let topo = generators::torus(&[8, 8]);
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let weights: Vec<f64> = (0..topo.num_edges())
            .map(|_| 0.1 + rng.random_f64())
            .collect();
        let routes: Vec<Path> = (0..64)
            .flat_map(|s| (0..64).filter(move |&d| d != s).map(move |d| (s, d)))
            .map(|(s, d)| paths::weighted_shortest_path(&topo, s, d, &weights).unwrap())
            .collect();
        let refs: Vec<&Path> = routes.iter().collect();
        for variant in [LashVariant::Basic, LashVariant::Sequential] {
            let vc = assign_virtual_channels(&topo, &refs, variant);
            assert_eq!(vc.layers(), reference_layers(&topo, &refs, variant));
            layer_cdgs_are_acyclic(&topo, &routes, &vc);
        }
    }

    #[test]
    fn single_hop_routes_need_one_layer() {
        let topo = generators::complete(4);
        let routes = all_pairs_shortest_routes(&topo);
        let refs: Vec<&Path> = routes.iter().collect();
        let vc = assign_virtual_channels(&topo, &refs, LashVariant::Basic);
        assert_eq!(vc.num_layers(), 1);
        assert!(vc.layers().iter().all(|&l| l == 0));
    }

    #[test]
    fn ring_routes_are_made_deadlock_free() {
        // All-to-all shortest routes on a ring produce the classic cyclic dependency;
        // LASH must split them across at least two layers and keep each acyclic.
        let topo = generators::bidirectional_ring(6);
        let routes = all_pairs_shortest_routes(&topo);
        let refs: Vec<&Path> = routes.iter().collect();
        let vc = assign_virtual_channels(&topo, &refs, LashVariant::Basic);
        assert!(vc.num_layers() >= 2);
        layer_cdgs_are_acyclic(&topo, &routes, &vc);
    }

    #[test]
    fn sequential_variant_never_needs_more_layers_than_four_on_eval_topologies() {
        for topo in [
            generators::hypercube(3),
            generators::complete_bipartite(4, 4),
            generators::torus(&[3, 3, 3]),
            generators::generalized_kautz(16, 4),
        ] {
            let routes = all_pairs_shortest_routes(&topo);
            let refs: Vec<&Path> = routes.iter().collect();
            let vc = assign_virtual_channels(&topo, &refs, LashVariant::Sequential);
            layer_cdgs_are_acyclic(&topo, &routes, &vc);
            assert!(
                vc.num_layers() <= 4,
                "{}: LASH-sequential used {} layers",
                topo.name(),
                vc.num_layers()
            );
        }
    }

    #[test]
    fn sequential_is_no_worse_than_basic_on_the_torus() {
        let topo = generators::torus(&[3, 3]);
        let routes = all_pairs_shortest_routes(&topo);
        let refs: Vec<&Path> = routes.iter().collect();
        let basic = assign_virtual_channels(&topo, &refs, LashVariant::Basic);
        let sequential = assign_virtual_channels(&topo, &refs, LashVariant::Sequential);
        layer_cdgs_are_acyclic(&topo, &routes, &basic);
        layer_cdgs_are_acyclic(&topo, &routes, &sequential);
        assert!(sequential.num_layers() <= basic.num_layers() + 1);
    }

    #[test]
    fn empty_route_set_uses_one_layer() {
        let topo = generators::complete(3);
        let vc = assign_virtual_channels(&topo, &[], LashVariant::Basic);
        assert_eq!(vc.num_layers(), 1);
        assert!(vc.layers().is_empty());
    }
}
