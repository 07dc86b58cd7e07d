//! Automorphisms that take one endpoint to every other.
//!
//! An automorphism of a [`Topology`] here is a node permutation `π` that maps
//! every arc `u → v` to an arc `π(u) → π(v)` of the same capacity and every
//! endpoint to an endpoint. When some automorphism takes `endpoints[0]` to each
//! endpoint, every endpoint's view of the fabric is the same, and a formulation
//! that is symmetric in its endpoints needs to be solved for one of them only
//! (the decomposed MCF uses this; see `a2a_mcf::decomposed`).
//!
//! [`transversal`] finds one such automorphism per endpoint without being told
//! the group: generator families (tori, hypercubes) would know their
//! translations, but any relabelling rebuilds the graph edge by edge and loses
//! whatever the generator knew. The search is individualization–refinement:
//!
//! * *Colour refinement* of two copies of the graph at once, under shared
//!   colour names. A node's next colour is its colour together with the sorted
//!   (neighbour colour, capacity) lists of its out-arcs and in-arcs; the two
//!   copies refine until the partition is stable, and differing class sizes
//!   prove that no automorphism maps one colouring to the other.
//! * *Individualization.* To map `a` to `b`, give `a` in the first copy and `b`
//!   in the second the same fresh colour and refine. While some class holds more
//!   than one node, individualize its first node against each candidate of the
//!   class in turn, backtracking on failure. A discrete partition is the
//!   permutation. Each search has a fixed budget of refinements; spending it
//!   means "no answer", never a wrong one.
//! * *Orbit closure.* Compositions of the automorphisms found so far reach
//!   more endpoints than the searches did (one search per dimension on a
//!   torus), so a search runs only for an endpoint they cannot reach.
//!
//! Every automorphism the search returns is checked arc by arc before it is
//! used; compositions of automorphisms are automorphisms, and debug builds
//! check those too.

use crate::graph::{NodeId, Topology};

/// Refinements one search may spend before it gives up.
const SEARCH_BUDGET: usize = 64;

/// One automorphism per endpoint: `result[i]` is a node permutation (`π(u) =
/// result[i][u]`) that maps `endpoints[0]` to `endpoints[i]`, maps arcs to arcs
/// of equal capacity and endpoints to endpoints; `result[0]` is the identity.
///
/// `None` when no such automorphism exists for some endpoint, when the search
/// budget runs out first, or when `endpoints` is empty, repeats a node or
/// names one outside the graph.
pub fn transversal(topo: &Topology, endpoints: &[NodeId]) -> Option<Vec<Vec<NodeId>>> {
    let n = topo.num_nodes();
    let mut is_endpoint = vec![false; n];
    for &s in endpoints {
        if s >= n || std::mem::replace(&mut is_endpoint[s], true) {
            return None;
        }
    }
    let &s0 = endpoints.first()?;
    let refiner = Refiner::new(topo);
    let mut base: Vec<u32> = is_endpoint.iter().map(|&e| u32::from(e)).collect();
    let mut twin = base.clone();
    refiner.refine(&mut base, &mut twin);

    // reach[t]: a composition of the generators found so far that maps s0 to
    // t, for every t in the orbit they generate (listed in `orbit`).
    let mut reach: Vec<Option<Vec<NodeId>>> = vec![None; n];
    reach[s0] = Some((0..n).collect());
    let mut orbit = vec![s0];
    let mut generators: Vec<Vec<NodeId>> = Vec::new();
    for &t in endpoints {
        if reach[t].is_some() {
            continue;
        }
        if base[t] != base[s0] {
            return None;
        }
        let found = search(&refiner, &base, s0, t)?;
        if found[s0] != t || !is_automorphism(topo, &is_endpoint, &found) {
            return None;
        }
        generators.push(found);
        let mut next = 0;
        while let Some(&u) = orbit.get(next) {
            for g in &generators {
                let v = g[u];
                if reach[v].is_none() {
                    let sigma = reach[u].as_ref().expect("orbit nodes are reached");
                    let composed: Vec<NodeId> = sigma.iter().map(|&x| g[x]).collect();
                    debug_assert!(is_automorphism(topo, &is_endpoint, &composed));
                    reach[v] = Some(composed);
                    orbit.push(v);
                }
            }
            next += 1;
        }
    }
    endpoints.iter().map(|&s| reach[s].take()).collect()
}

/// True if `perm` is a permutation of the nodes that maps every arc to an arc
/// of equal capacity and every endpoint to an endpoint.
fn is_automorphism(topo: &Topology, is_endpoint: &[bool], perm: &[NodeId]) -> bool {
    let n = topo.num_nodes();
    let mut hit = vec![false; n];
    let bijective = perm.len() == n
        && perm
            .iter()
            .all(|&v| v < n && !std::mem::replace(&mut hit[v], true));
    bijective
        && (0..n).all(|u| is_endpoint[perm[u]] == is_endpoint[u])
        && topo.edges().iter().all(|e| {
            topo.find_edge(perm[e.src], perm[e.dst])
                .is_some_and(|image| topo.edge(image).capacity == e.capacity)
        })
}

/// Maps `a` to `b` by individualization–refinement from the stable colouring
/// `base`, within [`SEARCH_BUDGET`] refinements.
fn search(refiner: &Refiner, base: &[u32], a: NodeId, b: NodeId) -> Option<Vec<NodeId>> {
    let (mut first, mut second) = (base.to_vec(), base.to_vec());
    individualize(&mut first, a, &mut second, b);
    let mut budget = SEARCH_BUDGET;
    descend(refiner, first, second, &mut budget)
}

/// Gives `x` in `first` and `y` in `second` one colour no node has yet.
fn individualize(first: &mut [u32], x: NodeId, second: &mut [u32], y: NodeId) {
    let fresh = first
        .iter()
        .chain(second.iter())
        .max()
        .map_or(0, |&c| c + 1);
    first[x] = fresh;
    second[y] = fresh;
}

fn descend(
    refiner: &Refiner,
    mut first: Vec<u32>,
    mut second: Vec<u32>,
    budget: &mut usize,
) -> Option<Vec<NodeId>> {
    if *budget == 0 {
        return None;
    }
    *budget -= 1;
    if !refiner.refine(&mut first, &mut second) {
        return None;
    }
    // After a successful refinement the colours are 0..k with k ≤ n.
    let n = first.len();
    let mut size = vec![0usize; n];
    for &c in &first {
        size[c as usize] += 1;
    }
    let Some(cell) = (0..n).find(|&c| size[c] > 1) else {
        // Discrete: u goes to the node of the second copy coloured like u.
        let mut node_of = vec![0; n];
        for (v, &c) in second.iter().enumerate() {
            node_of[c as usize] = v;
        }
        return Some(first.iter().map(|&c| node_of[c as usize]).collect());
    };
    let x = first.iter().position(|&c| c as usize == cell)?;
    for y in (0..n).filter(|&y| second[y] as usize == cell) {
        let (mut left, mut right) = (first.clone(), second.clone());
        individualize(&mut left, x, &mut right, y);
        if let Some(found) = descend(refiner, left, right, budget) {
            return Some(found);
        }
        if *budget == 0 {
            return None;
        }
    }
    None
}

/// Colour refinement of two colourings of one graph under shared colour names.
struct Refiner<'a> {
    topo: &'a Topology,
    /// Rank of each edge's capacity among the distinct capacities.
    capacity_class: Vec<u64>,
    /// Node `u`'s signature occupies `offsets[u]..offsets[u + 1]` of a flat
    /// buffer: colour, out-degree, sorted out-arc keys, sorted in-arc keys.
    offsets: Vec<usize>,
}

impl<'a> Refiner<'a> {
    fn new(topo: &'a Topology) -> Self {
        let bits = |c: f64| c.to_bits();
        let mut capacities: Vec<u64> = topo.edges().iter().map(|e| bits(e.capacity)).collect();
        capacities.sort_unstable();
        capacities.dedup();
        let capacity_class = topo
            .edges()
            .iter()
            .map(|e| capacities.binary_search(&bits(e.capacity)).expect("listed") as u64)
            .collect();
        let mut offsets = Vec::with_capacity(topo.num_nodes() + 1);
        offsets.push(0);
        for u in 0..topo.num_nodes() {
            let len = 2 + topo.out_degree(u) + topo.in_degree(u);
            offsets.push(offsets[u] + len);
        }
        Self {
            topo,
            capacity_class,
            offsets,
        }
    }

    /// Refines `first` and `second` together until the partition is stable,
    /// renaming colours to `0..k` in the order of their signatures. Returns
    /// false when some colour has different class sizes in the two copies:
    /// then no automorphism maps `first` onto `second`.
    fn refine(&self, first: &mut [u32], second: &mut [u32]) -> bool {
        let n = first.len();
        let mut colours = distinct(first, second);
        let mut sigs = [Vec::new(), Vec::new()];
        let mut order: Vec<usize> = (0..2 * n).collect();
        let mut count = vec![[0usize; 2]; 2 * n];
        loop {
            self.signatures(first, &mut sigs[0]);
            self.signatures(second, &mut sigs[1]);
            let sig = |i: usize| &sigs[i / n][self.offsets[i % n]..self.offsets[i % n + 1]];
            order.sort_unstable_by(|&i, &j| sig(i).cmp(sig(j)));
            let mut next = 0u32;
            for (rank, &i) in order.iter().enumerate() {
                if rank > 0 && sig(i) != sig(order[rank - 1]) {
                    next += 1;
                }
                let copy = if i < n { &mut *first } else { &mut *second };
                copy[i % n] = next;
            }
            let refined = next as usize + 1;
            count[..refined].fill([0, 0]);
            for i in 0..2 * n {
                let colour = if i < n { first[i] } else { second[i - n] };
                count[colour as usize][i / n] += 1;
            }
            if count[..refined].iter().any(|[a, b]| a != b) {
                return false;
            }
            if refined == colours {
                return true;
            }
            colours = refined;
        }
    }

    /// Writes every node's signature under `colour` into `out`.
    fn signatures(&self, colour: &[u32], out: &mut Vec<u64>) {
        let topo = self.topo;
        out.clear();
        for u in 0..topo.num_nodes() {
            out.push(u64::from(colour[u]));
            out.push(topo.out_degree(u) as u64);
            let key = |e: usize, v: NodeId| (u64::from(colour[v]) << 32) | self.capacity_class[e];
            let start = out.len();
            out.extend(topo.out_edges(u).iter().map(|&e| key(e, topo.edge(e).dst)));
            out[start..].sort_unstable();
            let start = out.len();
            out.extend(topo.in_edges(u).iter().map(|&e| key(e, topo.edge(e).src)));
            out[start..].sort_unstable();
        }
    }
}

/// The number of distinct colours over both colourings.
fn distinct(first: &[u32], second: &[u32]) -> usize {
    let mut all: Vec<u32> = first.iter().chain(second).copied().collect();
    all.sort_unstable();
    all.dedup();
    all.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::transform::HostNicAugmented;
    use std::collections::{HashMap, HashSet};

    /// Checks `perms` against the contract of [`transversal`] arc by arc,
    /// through an arc table of its own rather than the module's checker.
    fn assert_transversal(topo: &Topology, endpoints: &[NodeId], perms: &[Vec<NodeId>]) {
        let name = topo.name();
        let arcs: HashMap<(NodeId, NodeId), u64> = topo
            .edges()
            .iter()
            .map(|e| ((e.src, e.dst), e.capacity.to_bits()))
            .collect();
        let targets: HashSet<NodeId> = endpoints.iter().copied().collect();
        assert_eq!(perms.len(), endpoints.len(), "{name}: one map per endpoint");
        assert!(perms[0].iter().copied().eq(0..topo.num_nodes()), "{name}");
        for (perm, &s) in perms.iter().zip(endpoints) {
            assert_eq!(perm[endpoints[0]], s, "{name}: wrong image of the first");
            let mut sorted = perm.clone();
            sorted.sort_unstable();
            assert!(
                sorted.into_iter().eq(0..topo.num_nodes()),
                "{name}: not a bijection"
            );
            for (&(u, v), &capacity) in &arcs {
                assert_eq!(
                    arcs.get(&(perm[u], perm[v])),
                    Some(&capacity),
                    "{name}: arc {u}->{v} has no image of its capacity"
                );
            }
            for &t in endpoints {
                assert!(targets.contains(&perm[t]), "{name}: endpoint {t} leaves");
            }
        }
    }

    fn all_nodes(topo: &Topology) -> Vec<NodeId> {
        (0..topo.num_nodes()).collect()
    }

    fn assert_found(topo: &Topology, endpoints: &[NodeId]) {
        let perms = transversal(topo, endpoints)
            .unwrap_or_else(|| panic!("{}: no transversal found", topo.name()));
        assert_transversal(topo, endpoints, &perms);
    }

    /// `topo` with node `u` renamed `(7u + 3) mod n` (`n` must be coprime to 7).
    fn shuffled(topo: &Topology) -> Topology {
        let n = topo.num_nodes();
        let mut out = Topology::new(n, format!("{}-shuffled", topo.name()));
        for e in topo.edges() {
            out.add_edge((7 * e.src + 3) % n, (7 * e.dst + 3) % n, e.capacity);
        }
        out
    }

    #[test]
    fn vertex_transitive_fabrics_have_a_transversal() {
        for topo in [
            generators::torus(&[4, 4]),
            generators::torus(&[8, 8]),
            generators::torus(&[3, 3, 3]),
            generators::torus(&[4, 4, 2]),
            generators::hypercube(4),
            generators::bidirectional_ring(7),
            generators::ring(5),
            generators::complete_bipartite(3, 3),
            shuffled(&generators::torus(&[6, 6])),
        ] {
            assert_found(&topo, &all_nodes(&topo));
        }
    }

    #[test]
    fn endpoints_may_be_a_subset() {
        let aug = HostNicAugmented::build(&generators::torus(&[3, 3]), 4.0);
        assert_found(&aug.graph, &aug.hosts);
        // Endpoint order is the caller's: the first one listed is the source.
        let mut hosts = aug.hosts.clone();
        hosts.reverse();
        assert_found(&aug.graph, &hosts);
    }

    #[test]
    fn asymmetric_fabrics_have_none() {
        let aug = HostNicAugmented::build(&generators::torus(&[3, 3]), 4.0);
        for topo in [
            generators::mesh(&[3, 3]),
            generators::generalized_kautz(16, 4),
            generators::generalized_kautz(32, 4),
            generators::twisted_hypercube(6),
            aug.graph,
        ] {
            assert!(
                transversal(&topo, &all_nodes(&topo)).is_none(),
                "{}: found a transversal",
                topo.name()
            );
        }
    }

    /// One changed capacity or one missing arc breaks the symmetry, and the
    /// search must see it.
    #[test]
    fn a_mutated_torus_has_none() {
        let torus = generators::torus(&[4, 4]);
        let mut slower = torus.clone();
        slower.set_capacity(5, 0.5);
        let punctured = torus.without_edges(&[5]);
        for topo in [slower, punctured] {
            assert!(transversal(&topo, &all_nodes(&topo)).is_none());
        }
    }

    #[test]
    fn malformed_endpoint_lists_have_none() {
        let torus = generators::torus(&[3, 3]);
        assert!(transversal(&torus, &[]).is_none());
        assert!(transversal(&torus, &[0, 1, 0]).is_none());
        assert!(transversal(&torus, &[0, 9]).is_none());
    }

    #[test]
    fn the_checker_rejects_non_automorphisms() {
        let torus = generators::torus(&[3, 3]);
        let endpoints = vec![true; 9];
        let identity: Vec<NodeId> = (0..9).collect();
        assert!(is_automorphism(&torus, &endpoints, &identity));
        let mut swapped = identity.clone();
        swapped.swap(0, 1);
        assert!(!is_automorphism(&torus, &endpoints, &swapped));
        assert!(!is_automorphism(&torus, &endpoints, &[0; 9]));
    }
}
