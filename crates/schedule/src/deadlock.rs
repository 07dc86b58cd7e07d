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
//! path, closed by the chain from `e_i` to `e_j`, is a cycle.
//!
//! *Ordered search.* Every layer keeps a topological order `ord` of all links
//! under its arcs, maintained as arcs arrive by the dynamic topological sort of
//! Pearce and Kelly ("A dynamic topological sort algorithm for directed acyclic
//! graphs", *ACM J. Exp. Algorithmics* 11, 2006): an arc `x → y` that the order
//! already respects costs nothing; otherwise the links reachable from `y` below
//! `ord(x)` and the links reaching `x` above `ord(y)` swap their slots, the first
//! group after the second, each in its old relative order. Since every path
//! climbs in `ord`, `e_j` can reach an earlier link only through links ordered
//! below `b_j = max_{i<j} ord(e_i)`. The search from `e_j` therefore expands only
//! such links, and skips `e_j` outright when `ord(e_j) > b_j`. It runs from
//! `e_{k-1}` down: what the search from `e_j` visited cannot reach a link before
//! `j`, so it stays marked for every later start, and each link is visited at
//! most once per layer tried.
//!
//! *Cost.* A layer test visits only links ordered between a route link and the
//! highest-ordered link before it, instead of everything a route link reaches;
//! an insertion reorders only the region between its arc's endpoints. On the
//! 4,032 extracted torus-8×8 routes (LASH-sequential) the layer tests visit
//! 47,895 links and the 884 reordering insertions 18,059. A layer holds its
//! out- and in-arcs in dense per-link lists (deduplicated) and its order in
//! one array; no trial copies anything, and one `Lash` scratch serves the
//! whole call.
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

/// One layer's channel dependency graph and a topological order of its links.
struct Layer {
    /// Dependency arcs out of each link (deduplicated).
    out: Vec<Vec<EdgeId>>,
    /// The same arcs, listed at their heads.
    inc: Vec<Vec<EdgeId>>,
    /// Each link's slot in a topological order: a permutation of the links
    /// with `ord[a] < ord[b]` for every arc `a → b`.
    ord: Vec<usize>,
}

impl Layer {
    fn new(num_edges: usize) -> Self {
        Self {
            out: vec![Vec::new(); num_edges],
            inc: vec![Vec::new(); num_edges],
            ord: (0..num_edges).collect(),
        }
    }
}

/// First-fit layering state of one [`assign_virtual_channels`] call: the
/// layers and the scratch reused for every route and every layer tried.
struct Lash {
    layers: Vec<Layer>,
    /// Index of each link on the current route; `usize::MAX` off the route.
    pos: Vec<usize>,
    /// `seen[e] == stamp` marks the links the current search has visited.
    seen: Vec<usize>,
    stamp: usize,
    stack: Vec<EdgeId>,
    /// `bounds[j]`: the highest slot among the current route's links before `j`.
    bounds: Vec<usize>,
    /// The two regions a reordering insertion moves, and their pooled slots.
    forward: Vec<EdgeId>,
    backward: Vec<EdgeId>,
    slots: Vec<usize>,
}

impl Lash {
    fn new(num_edges: usize) -> Self {
        Self {
            layers: Vec::new(),
            pos: vec![usize::MAX; num_edges],
            seen: vec![0; num_edges],
            stamp: 0,
            stack: Vec::new(),
            bounds: Vec::new(),
            forward: Vec::new(),
            backward: Vec::new(),
            slots: Vec::new(),
        }
    }

    /// Puts the route over links `route` into the first layer that stays
    /// acyclic with it, opening a new layer if none does, and returns the layer.
    fn place(&mut self, route: &[EdgeId]) -> usize {
        for (i, &link) in route.iter().enumerate() {
            self.pos[link] = i;
        }
        let fits = (0..self.layers.len()).find(|&l| !self.closes_cycle(l, route));
        let layer = fits.unwrap_or_else(|| {
            self.layers.push(Layer::new(self.pos.len()));
            self.layers.len() - 1
        });
        for w in route.windows(2) {
            self.insert_arc(layer, w[0], w[1]);
        }
        for &link in route {
            self.pos[link] = usize::MAX;
        }
        layer
    }

    /// True if adding the chain `route[0] → … → route[k-1]` to layer `l`
    /// closes a cycle, i.e. some `route[j]` reaches an earlier `route[i]`.
    /// `pos` must hold the route's link indices.
    fn closes_cycle(&mut self, l: usize, route: &[EdgeId]) -> bool {
        let layer = &self.layers[l];
        self.stamp += 1;
        self.bounds.clear();
        let mut highest = 0;
        for &link in route {
            self.bounds.push(highest);
            highest = highest.max(layer.ord[link]);
        }
        // Latest link first: whatever the search from `route[j']` visited cannot
        // reach a link before `j'`, so nor one before `j < j'`, and stays marked.
        for j in (1..route.len()).rev() {
            let (start, bound) = (route[j], self.bounds[j]);
            if layer.ord[start] > bound || self.seen[start] == self.stamp {
                continue;
            }
            self.seen[start] = self.stamp;
            self.stack.push(start);
            while let Some(link) = self.stack.pop() {
                for &next in &layer.out[link] {
                    if self.pos[next] < j {
                        self.stack.clear();
                        return true;
                    }
                    // A link at `bound` is a route link before `j`, caught above.
                    if layer.ord[next] < bound && self.seen[next] != self.stamp {
                        self.seen[next] = self.stamp;
                        self.stack.push(next);
                    }
                }
            }
        }
        false
    }

    /// Adds the arc `x → y` to layer `l`, which must stay acyclic with it, and
    /// repairs the layer's order (Pearce–Kelly).
    fn insert_arc(&mut self, l: usize, x: EdgeId, y: EdgeId) {
        let layer = &mut self.layers[l];
        if layer.out[x].contains(&y) {
            return;
        }
        layer.out[x].push(y);
        layer.inc[y].push(x);
        let (lower, upper) = (layer.ord[y], layer.ord[x]);
        if upper < lower {
            return;
        }
        // Links reachable from `y` and links reaching `x`, each between the
        // two slots (a path climbs, so only that window can be out of order):
        // disjoint, or the arc would close a cycle.
        self.stamp += 1;
        for (from, arcs, region) in [
            (y, &layer.out, &mut self.forward),
            (x, &layer.inc, &mut self.backward),
        ] {
            region.clear();
            region.push(from);
            self.seen[from] = self.stamp;
            self.stack.push(from);
            while let Some(link) = self.stack.pop() {
                for &next in &arcs[link] {
                    let slot = layer.ord[next];
                    if lower < slot && slot < upper && self.seen[next] != self.stamp {
                        self.seen[next] = self.stamp;
                        region.push(next);
                        self.stack.push(next);
                    }
                }
            }
            region.sort_unstable_by_key(|&link| layer.ord[link]);
        }
        // The regions' slots, pooled in order: first those reaching `x`, then
        // those reachable from `y`.
        self.slots.clear();
        self.slots.extend(
            self.backward
                .iter()
                .chain(&self.forward)
                .map(|&e| layer.ord[e]),
        );
        self.slots.sort_unstable();
        for (&link, &slot) in self.backward.iter().chain(&self.forward).zip(&self.slots) {
            layer.ord[link] = slot;
        }
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
    let mut lash = Lash::new(topo.num_edges());
    let mut layers = vec![0usize; routes.len()];
    let mut route: Vec<EdgeId> = Vec::new();
    for &idx in &order {
        route.clear();
        route.extend(
            routes[idx]
                .links()
                .map(|(u, v)| topo.find_edge(u, v).expect("routes use topology links")),
        );
        layers[idx] = lash.place(&route);
    }
    VcAssignment {
        layers,
        num_layers: lash.layers.len().max(1),
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

    /// Asserts that `layer.ord` is a permutation of the links that every arc
    /// of the layer climbs.
    fn assert_topological(layer: &Layer, context: &str) {
        let mut slots = layer.ord.clone();
        slots.sort_unstable();
        assert!(
            slots.iter().enumerate().all(|(i, &slot)| i == slot),
            "{context}: order is not a permutation"
        );
        for (a, outs) in layer.out.iter().enumerate() {
            for &b in outs {
                assert!(
                    layer.ord[a] < layer.ord[b],
                    "{context}: arc {a} -> {b} descends ({} -> {})",
                    layer.ord[a],
                    layer.ord[b]
                );
                assert!(
                    layer.inc[b].contains(&a),
                    "{context}: arc {a} -> {b} not listed at its head"
                );
            }
        }
    }

    #[test]
    fn every_insertion_keeps_each_layer_topologically_ordered() {
        for seed in 0..60u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(1000 + seed);
            let topo = random_fabric(seed, &mut rng);
            let routes = random_routes(&topo, &mut rng);
            let refs: Vec<&Path> = routes.iter().collect();
            for variant in [LashVariant::Basic, LashVariant::Sequential] {
                let mut order: Vec<usize> = (0..routes.len()).collect();
                if variant == LashVariant::Sequential {
                    order.sort_by(|&a, &b| routes[b].hops().cmp(&routes[a].hops()).then(a.cmp(&b)));
                }
                let mut lash = Lash::new(topo.num_edges());
                let mut layers = vec![0usize; routes.len()];
                for &idx in &order {
                    let route = routes[idx]
                        .edge_ids(&topo)
                        .expect("routes use topology links");
                    layers[idx] = lash.place(&route);
                    for (l, layer) in lash.layers.iter().enumerate() {
                        assert_topological(
                            layer,
                            &format!("seed {seed}, {variant:?}, route {idx}, layer {l}"),
                        );
                    }
                }
                assert_eq!(
                    layers,
                    reference_layers(&topo, &refs, variant),
                    "seed {seed}, {}, {variant:?}",
                    topo.name()
                );
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
