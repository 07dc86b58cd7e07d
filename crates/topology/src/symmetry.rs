//! Automorphisms of a fabric: one per endpoint taking the first endpoint to it
//! ([`transversal`]), or the group the search finds, with its orbits
//! ([`automorphisms`]).
//!
//! An automorphism of a [`Topology`] here is a node permutation `π` that maps
//! every arc `u → v` to an arc `π(u) → π(v)` of the same capacity and every
//! endpoint to an endpoint. When some automorphism takes `endpoints[0]` to each
//! endpoint, every endpoint's view of the fabric is the same, and a formulation
//! that is symmetric in its endpoints needs to be solved for one of them only
//! (the decomposed MCF uses this; see `a2a_mcf::decomposed`). A fabric that is
//! not vertex-transitive can still have a group `H` of automorphisms: then a
//! formulation needs one commodity per orbit of ordered endpoint pairs and one
//! capacity row per orbit of arcs (path-MCF folds its master so; see
//! `a2a_mcf::pmcf`).
//!
//! Both are found without being told the group: generator families (tori,
//! hypercubes) would know their translations, but any relabelling rebuilds the
//! graph edge by edge and loses whatever the generator knew. The search is
//! individualization–refinement:
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
//! * *Orbit closure* ([`transversal`]). Compositions of the automorphisms
//!   found so far reach more endpoints than the searches did (one search per
//!   dimension on a torus), so a search runs only for an endpoint they cannot
//!   reach.
//!
//! # Groups
//!
//! [`automorphisms`] walks a stabilizer chain. Level 0 is the whole group. Its
//! base is the first node of a colour class with more than one node, and the
//! level searches base → `b` for each `b` of the base's class, skipping a `b`
//! whose orbit under the level's generators already holds the base, or holds
//! a node the base failed to reach (a search from orbit `A` that failed to
//! reach orbit `B` is not repeated for another pair of the two). The next
//! level individualizes the base in both copies, so its searches find only
//! automorphisms that fix every earlier base, and the chain ends when the
//! colouring is discrete. A search backtracks past a leaf that is no
//! automorphism. Each level's generators complete its base's orbit, so they
//! generate the whole group the searches can see (Schreier–Sims): an
//! automorphism is one that moves the base like it does times one that fixes
//! it. One base per level, rather than a search between every two node
//! orbits, is what keeps a fabric without symmetry cheap: a 64-node random
//! 4-regular graph costs 2.9 ms this way and 87 ms the other.
//!
//! The generators are closed into explicit elements, in the order found, while
//! `|H| · n` stays under a constant cap; a generator whose closure would pass
//! it is dropped. Any subgroup folds a formulation exactly, so the cap costs
//! compression, never correctness. Node, ordered-endpoint-pair and arc orbits
//! are union–find over the generators kept, numbered by first member.
//!
//! Search cost (search, verification and closure), release build, a shared
//! 2-core x86-64 box, best of five per run and the range over two or three
//! runs, among all nodes (hosts for the fat tree). "Relabelled" renames the
//! nodes by a seeded permutation: the group and the orbit counts found stay
//! the same, only the cost moves.
//!
//! | fabric | group | pairs → orbits | arcs → orbits | search | relabelled |
//! |---|---|---|---|---|---|
//! | GenKautz-16, d 4 | 24 | 240 → 13 | 60 → 4 | 0.22 ms | 0.17 ms |
//! | GenKautz-32, d 4 | 32 | 992 → 81 | 124 → 13 | 0.6–0.7 ms | 0.55 ms |
//! | GenKautz-40, d 4 | 10 | 1,560 → 156 | 160 → 16 | 0.5 ms | 0.5 ms |
//! | GenKautz-48, d 4 | 16 | 2,256 → 437 | 188 → 45 | 0.8 ms | 1.0 ms |
//! | GenKautz-200, d 4 | 10 | 39,800 → 3,980 | 800 → 80 | 4.5–4.8 ms | |
//! | torus-4×4 (the 4-cube) | 384 | 240 → 4 | 64 → 1 | 1.1–1.3 ms | |
//! | torus-8×8 | 512 | 4,032 → 14 | 256 → 1 | 2.8–4.3 ms | |
//! | torus-3×3×3 | 1,296 | 702 → 3 | 162 → 1 | 3.2–4.6 ms | |
//! | torus-3×3, one arc removed | 2 | 72 → 39 | 35 → 20 | 0.02 ms | |
//! | torus-3×3×3, one arc removed | 8 | 702 → 126 | 161 → 35 | 0.2–0.4 ms | |
//! | fat tree, 4 leaves × 4 hosts, 2 spines | 2,304 (capped) | 240 → 59 | 48 → 28 | 11–13 ms | |
//! | random 4-regular, 16 nodes | 1 | 240 → 240 | 64 → 64 | 0.3 ms | |
//! | random 4-regular, 64 nodes | 1 | 4,032 → 4,032 | 256 → 256 | 3.0 ms | |
//!
//! The fat tree's group (~1.6 · 10⁷ elements) is far past the cap: its time is
//! closure attempts, and the subgroup kept depends on the order the
//! generators were found in.
//!
//! Every automorphism the search returns is checked arc by arc before it is
//! used; compositions of automorphisms are automorphisms, and debug builds
//! check those [`transversal`] composes too.

use std::collections::HashSet;

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
        let found = search(&refiner, &base, s0, t, &|_| true)?;
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

/// Node ids the explicit elements of a group may hold: a generator whose
/// closure would pass `|H| · n` of this is dropped, so every solve that folds by
/// the group touches at most this many ids per element pass.
const GROUP_CAP: usize = 1 << 16;

/// A group `H` of automorphisms of a fabric and its orbits, as found by
/// [`automorphisms`]. Every orbit list numbers its orbits `0, 1, …` in the
/// order of their first member, so orbit `i`'s first member is its
/// representative.
#[derive(Debug, Clone)]
pub struct Automorphisms {
    /// Generators of `H`, each checked arc by arc.
    pub generators: Vec<Vec<NodeId>>,
    /// Every element of `H` as a node permutation (`π(u) = element[u]`), the
    /// identity first.
    pub elements: Vec<Vec<NodeId>>,
    /// The `H`-orbit of each node.
    pub node_orbit: Vec<usize>,
    /// The `H`-orbit of each ordered endpoint pair `(endpoints[i],
    /// endpoints[j])`, `i ≠ j`, listed row-major (pair `i · (m − 1) + j'` for
    /// `m` endpoints, `j'` being `j` less one when `j > i`).
    pub pair_orbit: Vec<usize>,
    /// The `H`-orbit of each arc, by edge id.
    pub arc_orbit: Vec<usize>,
}

/// The automorphisms of `topo` that map endpoints to endpoints, as far as the
/// search finds them and a constant cap on `|H| · n` lets them close (module
/// docs). A fabric without symmetry, or an endpoint list that repeats a node
/// or names one outside the graph, gets the trivial group: the identity
/// alone, every orbit a singleton.
pub fn automorphisms(topo: &Topology, endpoints: &[NodeId]) -> Automorphisms {
    let n = topo.num_nodes();
    let mut is_endpoint = vec![false; n];
    let valid = endpoints
        .iter()
        .all(|&s| s < n && !std::mem::replace(&mut is_endpoint[s], true));
    let found = if valid {
        stabilizer_chain(topo, &is_endpoint)
    } else {
        Vec::new()
    };
    let (generators, elements) = close(found, n);

    // Generators exist only for a valid endpoint list, so `position` is read
    // only where it is filled.
    let mut position = vec![usize::MAX; n];
    if valid {
        for (i, &s) in endpoints.iter().enumerate() {
            position[s] = i;
        }
    }
    let m = endpoints.len();
    let pair = |i: usize, j: usize| i * (m - 1) + j - usize::from(j > i);
    let mut nodes = UnionFind::new(n);
    let mut pairs = UnionFind::new(m * m.saturating_sub(1));
    let mut arcs = UnionFind::new(topo.num_edges());
    for g in &generators {
        for u in 0..n {
            nodes.union(u, g[u]);
        }
        for (i, &s) in endpoints.iter().enumerate() {
            for (j, &d) in endpoints.iter().enumerate().filter(|&(j, _)| j != i) {
                pairs.union(pair(i, j), pair(position[g[s]], position[g[d]]));
            }
        }
        for (e, edge) in topo.edges().iter().enumerate() {
            let image = topo.find_edge(g[edge.src], g[edge.dst]);
            arcs.union(e, image.expect("automorphisms map arcs to arcs"));
        }
    }
    Automorphisms {
        generators,
        elements,
        node_orbit: nodes.orbits(),
        pair_orbit: pairs.orbits(),
        arc_orbit: arcs.orbits(),
    }
}

/// Generators of the automorphism group of `topo` (endpoints to endpoints),
/// level by level down a stabilizer chain (module docs, *Groups*): each level
/// completes the orbit of its base node under the automorphisms that fix the
/// earlier bases, then individualizes the base in both copies.
fn stabilizer_chain(topo: &Topology, is_endpoint: &[bool]) -> Vec<Vec<NodeId>> {
    let n = topo.num_nodes();
    let refiner = Refiner::new(topo);
    let accept = |perm: &[NodeId]| is_automorphism(topo, is_endpoint, perm);
    let mut level: Vec<u32> = is_endpoint.iter().map(|&e| u32::from(e)).collect();
    let mut twin = level.clone();
    refiner.refine(&mut level, &mut twin);
    let mut generators = Vec::new();
    loop {
        let mut size = vec![0usize; n];
        for &c in &level {
            size[c as usize] += 1;
        }
        let Some(base) = (0..n).find(|&u| size[level[u] as usize] > 1) else {
            return generators;
        };
        // Orbits under this level's generators; `failed[r]` marks an orbit,
        // by its root when the search failed, that `base` cannot reach.
        let mut orbits = UnionFind::new(n);
        let mut failed = vec![false; n];
        for b in (base + 1..n).filter(|&b| level[b] == level[base]) {
            let root = orbits.find(b);
            if root == orbits.find(base) || failed[root] {
                continue;
            }
            match search(&refiner, &level, base, b, &accept) {
                Some(g) => {
                    for u in 0..n {
                        orbits.union(u, g[u]);
                    }
                    generators.push(g);
                }
                None => failed[root] = true,
            }
        }
        let mut twin = level.clone();
        individualize(&mut level, base, &mut twin, base);
        refiner.refine(&mut level, &mut twin);
    }
}

/// Closes `found` into explicit elements, generator by generator, dropping a
/// generator that is already an element or whose closure would hold more than
/// [`GROUP_CAP`] node ids. Returns the generators kept and the elements, the
/// identity first.
fn close(found: Vec<Vec<NodeId>>, n: usize) -> (Vec<Vec<NodeId>>, Vec<Vec<NodeId>>) {
    let identity: Vec<NodeId> = (0..n).collect();
    let mut elements = vec![identity.clone()];
    let mut members: HashSet<Vec<NodeId>> = HashSet::from([identity]);
    let mut kept: Vec<Vec<NodeId>> = Vec::new();
    for g in found {
        // `<H, g>` is a union of at least two cosets of `H` when `g ∉ H`.
        if members.contains(&g) || 2 * elements.len() * n > GROUP_CAP {
            continue;
        }
        kept.push(g);
        // Products of old elements by old generators are old elements, so an
        // old element is multiplied by `g` only.
        let old = elements.len();
        let mut next = 0;
        let mut fits = true;
        while fits && next < elements.len() {
            let by = if next < old { kept.len() - 1 } else { 0 };
            for t in &kept[by..] {
                let product: Vec<NodeId> = elements[next].iter().map(|&x| t[x]).collect();
                if !members.contains(&product) {
                    members.insert(product.clone());
                    elements.push(product);
                    if elements.len() * n > GROUP_CAP {
                        fits = false;
                        break;
                    }
                }
            }
            next += 1;
        }
        if !fits {
            kept.pop();
            for dropped in elements.drain(old..) {
                members.remove(&dropped);
            }
        }
    }
    (kept, elements)
}

/// Union–find over `0..len` whose root is always the smallest member.
struct UnionFind(Vec<usize>);

impl UnionFind {
    fn new(len: usize) -> Self {
        Self((0..len).collect())
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.0[x] != x {
            self.0[x] = self.0[self.0[x]];
            x = self.0[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (a, b) = (self.find(a), self.find(b));
        self.0[a.max(b)] = a.min(b);
    }

    /// Orbit index of every member, orbits numbered by their smallest member.
    fn orbits(mut self) -> Vec<usize> {
        let mut index = vec![usize::MAX; self.0.len()];
        let mut next = 0;
        (0..self.0.len())
            .map(|x| {
                let root = self.find(x);
                if index[root] == usize::MAX {
                    index[root] = next;
                    next += 1;
                }
                index[root]
            })
            .collect()
    }
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
/// `base`, within [`SEARCH_BUDGET`] refinements. The first discrete leaf that
/// `accept` takes is the answer; a rejected leaf backtracks like a failed
/// refinement.
fn search(
    refiner: &Refiner,
    base: &[u32],
    a: NodeId,
    b: NodeId,
    accept: &dyn Fn(&[NodeId]) -> bool,
) -> Option<Vec<NodeId>> {
    let (mut first, mut second) = (base.to_vec(), base.to_vec());
    individualize(&mut first, a, &mut second, b);
    let mut budget = SEARCH_BUDGET;
    descend(refiner, first, second, &mut budget, accept)
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
    accept: &dyn Fn(&[NodeId]) -> bool,
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
        let perm: Vec<NodeId> = first.iter().map(|&c| node_of[c as usize]).collect();
        return accept(&perm).then_some(perm);
    };
    let x = first.iter().position(|&c| c as usize == cell)?;
    for y in (0..n).filter(|&y| second[y] as usize == cell) {
        let (mut left, mut right) = (first.clone(), second.clone());
        individualize(&mut left, x, &mut right, y);
        if let Some(found) = descend(refiner, left, right, budget, accept) {
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

    /// Checks every generator of `group` arc by arc against an arc table of
    /// this test's own, and its elements and orbit lists for their shapes.
    fn assert_group(topo: &Topology, endpoints: &[NodeId], group: &Automorphisms) {
        let name = topo.name();
        let arcs: HashMap<(NodeId, NodeId), u64> = topo
            .edges()
            .iter()
            .map(|e| ((e.src, e.dst), e.capacity.to_bits()))
            .collect();
        let targets: HashSet<NodeId> = endpoints.iter().copied().collect();
        for g in &group.generators {
            let mut sorted = g.clone();
            sorted.sort_unstable();
            assert!(sorted.into_iter().eq(0..topo.num_nodes()), "{name}");
            for (&(u, v), &capacity) in &arcs {
                assert_eq!(
                    arcs.get(&(g[u], g[v])),
                    Some(&capacity),
                    "{name}: arc {u}->{v} has no image of its capacity"
                );
            }
            for &t in endpoints {
                assert!(targets.contains(&g[t]), "{name}: endpoint {t} leaves");
            }
        }
        assert!(group.elements[0].iter().copied().eq(0..topo.num_nodes()));
        let distinct: HashSet<&Vec<NodeId>> = group.elements.iter().collect();
        assert_eq!(
            distinct.len(),
            group.elements.len(),
            "{name}: repeated element"
        );
        let m = endpoints.len();
        assert_eq!(group.node_orbit.len(), topo.num_nodes());
        assert_eq!(group.pair_orbit.len(), m * (m - 1));
        assert_eq!(group.arc_orbit.len(), topo.num_edges());
    }

    fn orbit_count(orbit: &[usize]) -> usize {
        orbit.iter().max().map_or(0, |&o| o + 1)
    }

    /// `(elements, ordered-pair orbits, arc orbits)` of the group found among
    /// all nodes.
    fn group_shape(topo: &Topology) -> (usize, usize, usize) {
        let endpoints = all_nodes(topo);
        let group = automorphisms(topo, &endpoints);
        assert_group(topo, &endpoints, &group);
        (
            group.elements.len(),
            orbit_count(&group.pair_orbit),
            orbit_count(&group.arc_orbit),
        )
    }

    /// The generalized Kautz graphs are not vertex-transitive, yet have
    /// groups of order 32 / 10 / 16, relabelled or not.
    #[test]
    fn generalized_kautz_groups_and_orbits_are_pinned() {
        for (n, shape) in [(32, (32, 81, 13)), (40, (10, 156, 16)), (48, (16, 437, 45))] {
            let topo = generators::generalized_kautz(n, 4);
            assert_eq!(group_shape(&topo), shape, "{}", topo.name());
            assert_eq!(
                group_shape(&shuffled(&topo)),
                shape,
                "{} shuffled",
                topo.name()
            );
        }
    }

    /// Torus-4x4 is the 4-cube: 384 automorphisms, one orbit per distance.
    #[test]
    fn torus_orbits_are_pinned() {
        let torus = generators::torus(&[4, 4]);
        assert_eq!(group_shape(&torus), (384, 4, 1));
        assert_eq!(group_shape(&generators::torus(&[3, 3])), (72, 2, 1));
    }

    /// A group too large to close keeps a subgroup, and its orbits are that
    /// subgroup's; the hosts of a fat tree only reach hosts.
    #[test]
    fn a_capped_group_keeps_a_subgroup() {
        let ft = generators::fat_tree_two_level(4, 2, 4);
        let group = automorphisms(&ft.graph, &ft.hosts);
        assert_group(&ft.graph, &ft.hosts, &group);
        let n = ft.graph.num_nodes();
        assert!(group.elements.len() * n <= GROUP_CAP);
        assert!(group.elements.len() > 1);
        for h in &group.elements {
            for &s in &ft.hosts {
                assert!(ft.hosts.contains(&h[s]));
            }
        }
    }

    #[test]
    fn asymmetric_or_malformed_inputs_get_the_trivial_group() {
        for (topo, endpoints) in [
            (generators::random_regular(16, 4, 1), (0..16).collect()),
            (generators::random_regular(16, 4, 3), (0..16).collect()),
            (generators::torus(&[3, 3]), vec![0, 1, 0]),
            (generators::torus(&[3, 3]), vec![0, 9]),
        ] {
            let group = automorphisms(&topo, &endpoints);
            assert_eq!(group.elements.len(), 1, "{}", topo.name());
            assert!(group.generators.is_empty());
            assert_eq!(orbit_count(&group.arc_orbit), topo.num_edges());
        }
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
