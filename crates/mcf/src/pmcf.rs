//! Path-variable MCF (pMCF, §3.1.4).
//!
//! For fabrics with NIC-based forwarding, the schedule is a set of weighted paths per
//! commodity. pMCF optimizes the weights directly over an explicit candidate path set:
//! edge-disjoint paths (the paper's recommended polynomial-size set), all shortest
//! paths, or all paths up to a length bound. With an unrestricted path set pMCF is the
//! dual of the link MCF and therefore exact; with restricted sets it trades optimality
//! for tractability exactly as studied in Fig. 8.
//!
//! # Column generation
//!
//! Fixed path sets trade optimality per topology family (the edge-disjoint set
//! collapses to one path per commodity on single-uplink fat trees).
//! [`solve_path_mcf_colgen_among`] removes the trade-off: it solves the *full* path
//! LP to proven optimality by restricted-master column generation — seed a small
//! path set, solve the restricted master, price every commodity by a cheapest path
//! under the master's dual edge costs, append the improving paths as new LP columns
//! ([`a2a_lp::Solver::add_columns`]) and continue from the previous basis, until no
//! path prices below its commodity's convexity dual. The certificate at termination
//! is exactly LP optimality of the unrestricted path formulation, so colgen agrees
//! with link-MCF and decomposed-MCF on `F` on *any* topology.
//!
//! The path LP is written once: a fixed path set is that same master over the
//! given paths, solved once ([`solve_path_mcf_among`] — no pricing, so a
//! one-shot solve instead of an incremental session), and both entry points share
//! the weight extraction. Its capacity rows, dual weights, pricing sweep and
//! path columns are the crate's one path master ([`crate::colgen`]) over the
//! fabric, each commodity's source tree priced at its destination; this module
//! adds the demand rows, the `F` column, the objective sign and the extraction.
//!
//! # The orbit fold
//!
//! Column generation restricts its master to flows invariant under the group
//! `H` of automorphisms [`symmetry::automorphisms`] finds on the fabric (it
//! maps arcs to arcs of equal capacity and endpoints to endpoints). Averaging
//! any optimal flow over `H` gives a feasible, optimal, invariant flow, by
//! convexity, so the restriction loses nothing (Bödi, Herr & Joswig, *Math.
//! Program.* 137, 2013; Margot, *50 Years of Integer Programming*, 2010). An
//! invariant flow is fixed by one commodity per orbit `K` of ordered endpoint
//! pairs: the master has one demand row per commodity orbit, owned by its first
//! member `k`, and one capacity row per arc orbit `A`. A path `p` of `K` enters
//! as `|K| · c_A(p) / |A|` on row `A` (`c_A(p)` counts `p`'s arcs in `A`): the
//! load of `K`'s whole orbit on `A`, spread evenly over `A`'s arcs. Pricing runs
//! one tree per owner source, a node-orbit representative, at arc weights
//! `max(0, −y_A) / |A|`, and `K` improves when `μ_K − |K| · dist(t_K)` passes
//! [`crate::PRICING_TOLERANCE`].
//!
//! The certificate is still that of the *unrestricted* path LP. A dual
//! solution `(y_A, μ_K)` of the folded master spreads to the unfolded LP as
//! `y_a = y_A / |A|` on each arc of `A` and `μ_c = μ_K / |K|` on each member of
//! `K`, with the same objective. Those arc weights are invariant under `H`, so
//! every member of `K` has a cheapest path of the same cost as `k`'s, and the
//! spread dual is feasible exactly when no owner prices below its `μ_K`: a
//! sweep that finds nothing proves the unrestricted optimum (at a tolerance
//! `|K|` times tighter per member).
//!
//! Extraction maps each member `g(k)` of an orbit through one element `g` of
//! `H`: each column of `k`, weight `z`, is averaged over `Stab(k)` — `z /
//! |Stab(k)|` on each `g(h(p))`, `h ∈ Stab(k)`, duplicate paths merged — since
//! one image alone would load the arcs of an orbit unevenly wherever the
//! stabilizer is not trivial (GenKautz-32, the tori). A fabric whose group is
//! trivial folds nothing: `|K| = |A| = 1`, every scale factor is an exact
//! `1.0`, and the master is the unfolded one bit for bit. Fixed path sets
//! ([`solve_path_mcf_among`]) need not be invariant, so they are not folded.

use std::collections::HashMap;

use a2a_lp::sparse::SparseVec;
use a2a_lp::{SimplexOptions, Solver, StandardForm, INF};
use a2a_topology::{paths, symmetry, NodeId, Path, Topology};

use crate::colgen::{run_colgen, ColGenOptions, ColGenStats, Fold, PathMaster};
use crate::linkmcf::validate;
use crate::tscolgen::shortest_seed;
use crate::types::{CommoditySet, McfError, McfResult, PathSchedule};

/// Candidate path-set family for pMCF.
///
/// Every variant fixes the candidate set *before* the LP solve, so optimality is
/// only relative to the family (Fig. 8 studies the gaps). The column-generation
/// entry points ([`solve_path_mcf_colgen_among`]) instead grow the set adaptively
/// and certify optimality of the unrestricted path LP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathSetKind {
    /// A maximal set of edge-disjoint paths per commodity (at most `d` paths on a
    /// `d`-regular graph). The paper's recommended default.
    EdgeDisjoint,
    /// All shortest paths per commodity, capped at `max_per_pair`.
    Shortest {
        /// Maximum number of shortest paths kept per commodity.
        max_per_pair: usize,
    },
    /// All simple paths of at most `max_hops` hops, capped at `max_per_pair`.
    BoundedLength {
        /// Hop bound (`l_max` in the paper).
        max_hops: usize,
        /// Maximum number of paths kept per commodity.
        max_per_pair: usize,
    },
}

/// Threshold below which a path weight is dropped from the schedule.
const WEIGHT_TOL: f64 = 1e-9;

/// Solves pMCF for an all-to-all among all nodes of the topology.
pub fn solve_path_mcf(topo: &Topology, kind: PathSetKind) -> McfResult<PathSchedule> {
    solve_path_mcf_among(topo, CommoditySet::all_pairs(topo.num_nodes()), kind)
}

/// Solves pMCF for an explicit commodity set.
pub fn solve_path_mcf_among(
    topo: &Topology,
    commodities: CommoditySet,
    kind: PathSetKind,
) -> McfResult<PathSchedule> {
    let path_sets = build_path_sets(topo, &commodities, kind)?;
    solve_path_mcf_with_paths(topo, commodities, path_sets)
}

/// Builds the candidate path sets for every commodity.
pub fn build_path_sets(
    topo: &Topology,
    commodities: &CommoditySet,
    kind: PathSetKind,
) -> McfResult<Vec<Vec<Path>>> {
    validate(topo, commodities)?;
    let mut sets = Vec::with_capacity(commodities.len());
    for (_, s, d) in commodities.iter() {
        let set = match kind {
            PathSetKind::EdgeDisjoint => paths::edge_disjoint_paths(topo, s, d),
            PathSetKind::Shortest { max_per_pair } => {
                paths::all_shortest_paths(topo, s, d, max_per_pair)
            }
            PathSetKind::BoundedLength {
                max_hops,
                max_per_pair,
            } => paths::paths_within_length(topo, s, d, max_hops, max_per_pair),
        };
        if set.is_empty() {
            return Err(McfError::BadArgument(format!(
                "no candidate paths for commodity {s}->{d} under {kind:?}"
            )));
        }
        sets.push(set);
    }
    Ok(sets)
}

/// Solves pMCF over explicitly provided candidate path sets (one list per commodity,
/// ordered as in the commodity set): the column-generation master over exactly
/// these paths, solved once.
fn solve_path_mcf_with_paths(
    topo: &Topology,
    commodities: CommoditySet,
    path_sets: Vec<Vec<Path>>,
) -> McfResult<PathSchedule> {
    if path_sets.len() != commodities.len() {
        return Err(McfError::BadArgument(format!(
            "expected {} path sets, got {}",
            commodities.len(),
            path_sets.len()
        )));
    }
    for ((_, s, d), set) in commodities.iter().zip(&path_sets) {
        if set.is_empty() {
            return Err(McfError::BadArgument(format!(
                "empty path set for commodity {s}->{d}"
            )));
        }
        for p in set {
            if p.source() != s || p.dest() != d || !p.is_valid_in(topo) {
                return Err(McfError::BadArgument(format!(
                    "candidate path {:?} is not a valid {s}->{d} path",
                    p.nodes()
                )));
            }
        }
    }

    // The caller's path sets need not be invariant under any automorphism,
    // so this master is not folded.
    let orbits = CommodityOrbits::trivial(topo, &commodities);
    let (sf, master) = path_master(topo, &commodities, &orbits, path_sets);
    let sol = a2a_lp::simplex::solve(&sf, &SimplexOptions::default())?;
    let flow_value = -sol.objective;
    let weighted = orbits.weighted_paths(
        topo,
        &commodities,
        master.into_columns(),
        &sol.x,
        flow_value,
    )?;
    Ok(PathSchedule::from_weighted_paths(
        commodities,
        flow_value,
        weighted,
    ))
}

/// Result of a column-generation path-MCF solve.
#[derive(Debug, Clone)]
pub struct ColGenPathMcf {
    /// The weighted path schedule (same shape as every other pMCF result).
    pub schedule: PathSchedule,
    /// Per-round statistics and the optimality certificate flag.
    pub stats: ColGenStats,
}

/// The commodities of a path master grouped into orbits of a group `H` of
/// automorphisms of the fabric (module docs, *The orbit fold*). The master
/// has one owner per orbit: its first member in commodity order, whose source
/// is the first endpoint of its node orbit.
struct CommodityOrbits {
    /// The elements of `H` as node permutations, the identity first.
    elements: Vec<Vec<NodeId>>,
    /// The `H`-orbit of each arc.
    arc_orbit: Vec<usize>,
    /// The owner (commodity index) of each orbit.
    owner: Vec<usize>,
    /// `|K|`: the commodities of each orbit.
    size: Vec<usize>,
    /// `(orbit, element)` of each commodity: the element maps the orbit's
    /// owner onto the commodity.
    image: Vec<(usize, usize)>,
    /// The elements that fix each orbit's owner, `Stab(k)`.
    stabilizer: Vec<Vec<usize>>,
}

impl CommodityOrbits {
    /// Every commodity its own orbit: the unfolded master.
    fn trivial(topo: &Topology, commodities: &CommoditySet) -> Self {
        Self::new(
            commodities,
            vec![(0..topo.num_nodes()).collect()],
            (0..commodities.len()).collect(),
            (0..topo.num_edges()).collect(),
        )
    }

    /// The orbits under the group [`symmetry::automorphisms`] finds.
    fn of_fabric(topo: &Topology, commodities: &CommoditySet) -> Self {
        let group = {
            let _obs = a2a_obs::span("pmcf.symmetry");
            symmetry::automorphisms(topo, commodities.endpoints())
        };
        Self::new(
            commodities,
            group.elements,
            group.pair_orbit,
            group.arc_orbit,
        )
    }

    /// `pair_orbit` lists the orbit of each commodity, numbered by first
    /// member; `elements` must be a group with exactly these orbits.
    fn new(
        commodities: &CommoditySet,
        elements: Vec<Vec<NodeId>>,
        pair_orbit: Vec<usize>,
        arc_orbit: Vec<usize>,
    ) -> Self {
        let mut owner = Vec::new();
        let mut size = Vec::new();
        for (c, &orbit) in pair_orbit.iter().enumerate() {
            if orbit == owner.len() {
                owner.push(c);
                size.push(0);
            }
            size[orbit] += 1;
        }
        let mut image = vec![None; pair_orbit.len()];
        let mut stabilizer = vec![Vec::new(); owner.len()];
        for (orbit, &k) in owner.iter().enumerate() {
            let (s, d) = commodities.pair(k);
            for (h, element) in elements.iter().enumerate() {
                let c = commodities
                    .index_of(element[s], element[d])
                    .expect("automorphisms map endpoint pairs to endpoint pairs");
                if c == k {
                    stabilizer[orbit].push(h);
                }
                image[c].get_or_insert((orbit, h));
            }
        }
        Self {
            elements,
            arc_orbit,
            owner,
            size,
            image: image
                .into_iter()
                .map(|i| i.expect("the group reaches every member of an orbit"))
                .collect(),
            stabilizer,
        }
    }

    /// The path weights of every commodity from a master solution `x` (path
    /// column `j` is LP column `j + 1`), dropping weights below
    /// [`WEIGHT_TOL`]: an owner's column of weight `z` is averaged over
    /// `Stab(k)` (`z / |Stab(k)|` on each image, duplicates merged), and each
    /// member of the orbit takes that list's image under its element. A
    /// commodity left without paths falls back to its shortest path at full
    /// weight.
    fn weighted_paths(
        &self,
        topo: &Topology,
        commodities: &CommoditySet,
        columns: Vec<(usize, Path)>,
        x: &[f64],
        flow_value: f64,
    ) -> McfResult<Vec<Vec<(Path, f64)>>> {
        if flow_value <= WEIGHT_TOL {
            return Err(McfError::Lp(
                "path MCF produced a zero concurrent flow".into(),
            ));
        }
        let map = |h: usize, path: &Path| {
            Path::new(path.nodes().iter().map(|&u| self.elements[h][u]).collect())
        };
        let mut averaged: Vec<Vec<(Path, f64)>> = vec![Vec::new(); self.owner.len()];
        let mut listed: Vec<HashMap<Path, usize>> = vec![HashMap::new(); self.owner.len()];
        for (j, (orbit, path)) in columns.into_iter().enumerate() {
            let w = x[j + 1];
            if w <= WEIGHT_TOL {
                continue;
            }
            let share = w / self.stabilizer[orbit].len() as f64;
            for &h in &self.stabilizer[orbit] {
                let image = map(h, &path);
                match listed[orbit].get(&image) {
                    Some(&i) => averaged[orbit][i].1 += share,
                    None => {
                        listed[orbit].insert(image.clone(), averaged[orbit].len());
                        averaged[orbit].push((image, share));
                    }
                }
            }
        }
        let mut weighted: Vec<Vec<(Path, f64)>> = self
            .image
            .iter()
            .map(|&(orbit, g)| {
                averaged[orbit]
                    .iter()
                    .map(|(p, w)| (map(g, p), *w))
                    .collect()
            })
            .collect();
        for ((_, s, d), list) in commodities.iter().zip(&mut weighted) {
            if list.is_empty() {
                let fallback = paths::shortest_path(topo, s, d).ok_or_else(|| {
                    McfError::BadTopology(format!("no {s}->{d} path exists for fallback"))
                })?;
                list.push((fallback, 1.0));
            }
        }
        Ok(weighted)
    }
}

/// Builds the path master over `path_sets` (one list per orbit owner,
/// deduplicated) directly in standard form, so row indices stay stable while
/// columns are appended: the master's capacity row per orbit of
/// finite-capacity edges (`<= cap`) — even if no path crosses it yet, a
/// priced-in column may — then one demand row per commodity orbit (its
/// owner's path weights minus `F` is `>= 0`). Column 0 is `F` (minimize
/// `-F`); path columns follow in owner-major order. Pricing runs one tree per
/// owner source, each owner priced at its destination.
fn path_master<'a>(
    topo: &'a Topology,
    commodities: &CommoditySet,
    orbits: &CommodityOrbits,
    path_sets: Vec<Vec<Path>>,
) -> (StandardForm, PathMaster<'a>) {
    let nowners = orbits.owner.len();
    let mut starts: Vec<NodeId> = Vec::new();
    let mut owners_of_source: Vec<Vec<usize>> = Vec::new();
    let mut terminus = Vec::with_capacity(nowners);
    for (orbit, &k) in orbits.owner.iter().enumerate() {
        let (s, d) = commodities.pair(k);
        if starts.last() != Some(&s) {
            starts.push(s);
            owners_of_source.push(Vec::new());
        }
        owners_of_source
            .last_mut()
            .expect("a source was just pushed")
            .push(orbit);
        terminus.push(d);
    }
    let fold = Fold {
        arc_orbit: orbits.arc_orbit.clone(),
        owner_size: orbits.size.iter().map(|&k| k as f64).collect(),
    };
    let (mut master, mut row_lower, mut row_upper) =
        PathMaster::new(topo, starts, owners_of_source, terminus, fold, |capacity| {
            capacity
        });
    row_lower.extend(std::iter::repeat_n(0.0, nowners));
    row_upper.extend(std::iter::repeat_n(INF, nowners));

    let mut cols = vec![SparseVec::from_entries(
        (0..nowners).map(|k| (master.convexity_row(k), -1.0)),
    )];
    for (k, set) in path_sets.into_iter().enumerate() {
        for p in set {
            cols.extend(master.push_column(k, p));
        }
    }
    let ncols = cols.len();
    let mut obj = vec![0.0; ncols];
    obj[0] = -1.0;
    let sf = StandardForm {
        nrows: row_lower.len(),
        cols,
        obj,
        lower: vec![0.0; ncols],
        upper: vec![INF; ncols],
        row_lower,
        row_upper,
    };
    (sf, master)
}

/// Solves path-MCF to proven optimality by restricted-master column generation.
///
/// The restricted master is the path LP over the current candidate sets,
/// maximized over the concurrent flow `F` and folded by the fabric's
/// automorphism group (module docs, *The orbit fold*; on a fabric without
/// symmetry it is the plain path LP). It is built directly in standard form:
/// one capacity row per orbit of finite-capacity edges — present from the
/// start so later columns can always price against every edge — and one
/// convexity/demand row per commodity orbit. Each round re-solves the master
/// *in place* through the incremental [`Solver`] session — appended columns
/// enter nonbasic, the factorized basis carries over, so every re-solve is a
/// warm phase-2 continuation — then prices every orbit at once with one
/// Dijkstra tree per representative source under the dual edge costs. Every
/// improving path (scaled dual-weighted length below the orbit's convexity
/// dual minus [`crate::PRICING_TOLERANCE`]) is appended, best violations
/// first. The master is seeded with one hop-shortest path per orbit.
///
/// Terminates with [`ColGenStats::proved_optimal`] when no improving path
/// exists — the LP optimality certificate of the *unrestricted* path
/// formulation, folded or not (module docs) — or returns the best restricted
/// solution when [`ColGenOptions::max_rounds`] is exhausted. The schedule
/// lists every commodity's paths, each orbit's averaged over its stabilizer.
pub fn solve_path_mcf_colgen_among(
    topo: &Topology,
    commodities: CommoditySet,
    options: &ColGenOptions,
) -> McfResult<ColGenPathMcf> {
    solve_colgen(topo, commodities, options, CommodityOrbits::of_fabric)
}

/// [`solve_path_mcf_colgen_among`] over the fold `orbits` builds (the unit
/// tests pass [`CommodityOrbits::trivial`] to drive the unfolded master on a
/// symmetric fabric).
fn solve_colgen(
    topo: &Topology,
    commodities: CommoditySet,
    options: &ColGenOptions,
    orbits: fn(&Topology, &CommoditySet) -> CommodityOrbits,
) -> McfResult<ColGenPathMcf> {
    validate(topo, &commodities)?;
    options.validate().map_err(McfError::BadArgument)?;
    let orbits = orbits(topo, &commodities);
    let path_sets: Vec<Vec<Path>> = orbits
        .owner
        .iter()
        .map(|&k| {
            let (s, d) = commodities.pair(k);
            Ok(vec![shortest_seed(topo, s, d)?])
        })
        .collect::<McfResult<_>>()?;
    let (sf, mut master) = path_master(topo, &commodities, &orbits, path_sets);
    let mut solver = Solver::new_owned(sf, SimplexOptions::default())?;

    // Column 0 is F, so the path columns start at structural column 1; the
    // master minimizes -F.
    let (sol, stats) = run_colgen(&mut solver, &mut master, 1, options, |obj| -obj, |p| p)?;
    let flow_value = -sol.objective;
    let weighted = orbits.weighted_paths(
        topo,
        &commodities,
        master.into_columns(),
        &sol.x,
        flow_value,
    )?;
    Ok(ColGenPathMcf {
        schedule: PathSchedule::from_weighted_paths(commodities, flow_value, weighted),
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::max_link_load_of_paths;
    use crate::colgen::Stabilization;
    use crate::linkmcf::solve_link_mcf;
    use a2a_topology::generators;

    /// Column generation for an all-to-all among all nodes.
    fn solve_path_mcf_colgen(topo: &Topology, options: &ColGenOptions) -> McfResult<ColGenPathMcf> {
        solve_path_mcf_colgen_among(topo, CommoditySet::all_pairs(topo.num_nodes()), options)
    }

    /// Column generation over the unfolded master. Folded by the fat tree's
    /// group, the starved shortest-path seed is averaged over spines and the
    /// master needs a few rounds only, so the tests of the round machinery on
    /// it below drive the master every fabric without symmetry runs.
    fn solve_unfolded(
        topo: &Topology,
        commodities: CommoditySet,
        options: &ColGenOptions,
    ) -> McfResult<ColGenPathMcf> {
        solve_colgen(topo, commodities, options, CommodityOrbits::trivial)
    }

    #[test]
    fn disjoint_pmcf_matches_link_mcf_on_hypercube() {
        // The paper observes that pMCF restricted to link-disjoint paths almost matches
        // the optimal link MCF; on Q3 it is exactly optimal.
        let topo = generators::hypercube(3);
        let link = solve_link_mcf(&topo).unwrap();
        let pmcf = solve_path_mcf(&topo, PathSetKind::EdgeDisjoint).unwrap();
        assert!(
            pmcf.flow_value >= 0.99 * link.flow_value,
            "pMCF {} vs link MCF {}",
            pmcf.flow_value,
            link.flow_value
        );
        assert!(pmcf.check_consistency(&topo, 1e-6).is_empty());
    }

    #[test]
    fn shortest_only_pmcf_is_weaker_on_expanders() {
        // Fig. 8: pMCF over shortest paths is suboptimal on expanders because they have
        // few shortest paths.
        let topo = generators::generalized_kautz(16, 3);
        let disjoint = solve_path_mcf(&topo, PathSetKind::EdgeDisjoint).unwrap();
        let shortest = solve_path_mcf(&topo, PathSetKind::Shortest { max_per_pair: 64 }).unwrap();
        assert!(
            shortest.flow_value <= disjoint.flow_value + 1e-6,
            "shortest {} should not beat disjoint {}",
            shortest.flow_value,
            disjoint.flow_value
        );
    }

    #[test]
    fn bounded_length_pmcf_recovers_optimum_with_enough_slack() {
        let topo = generators::complete_bipartite(2, 2);
        let link = solve_link_mcf(&topo).unwrap();
        let pmcf = solve_path_mcf(
            &topo,
            PathSetKind::BoundedLength {
                max_hops: 3,
                max_per_pair: 50,
            },
        )
        .unwrap();
        assert!(pmcf.flow_value >= 0.99 * link.flow_value);
    }

    #[test]
    fn flow_value_is_consistent_with_link_loads() {
        let topo = generators::hypercube(3);
        let pmcf = solve_path_mcf(&topo, PathSetKind::EdgeDisjoint).unwrap();
        // Shipping one unit per commodity loads the bottleneck link with at most 1/F.
        let load = max_link_load_of_paths(&topo, &pmcf);
        assert!(load <= 1.0 / pmcf.flow_value + 1e-6);
    }

    /// Colgen must be exact on graphs where the fixed sets already are, and its
    /// certificate must hold at termination.
    #[test]
    fn colgen_matches_link_mcf_on_hypercube() {
        let topo = generators::hypercube(3);
        let link = solve_link_mcf(&topo).unwrap();
        let cg = solve_path_mcf_colgen(&topo, &ColGenOptions::default()).unwrap();
        assert!(cg.stats.proved_optimal, "certificate must hold");
        assert!(
            (cg.schedule.flow_value - link.flow_value).abs() <= 1e-6 * (1.0 + link.flow_value),
            "colgen F = {} vs link F = {}",
            cg.schedule.flow_value,
            link.flow_value
        );
        assert!(cg.schedule.check_consistency(&topo, 1e-6).is_empty());
        assert!(cg.stats.num_rounds() >= 1);
        assert_eq!(
            cg.stats.rounds.last().unwrap().columns_added,
            0,
            "final round proves optimality without adding columns"
        );
        assert!(cg.stats.total_columns >= cg.stats.seed_columns);
    }

    /// The fattree-16h gap, closed adaptively: every host hangs off a single
    /// uplink, so the edge-disjoint set is one max-flow path per commodity
    /// that funnels all inter-leaf traffic through one spine (F = 1/24).
    /// Seeded with nothing but one shortest path per commodity — the same
    /// starved starting point — column generation must price the parallel
    /// spines back in and reach the optimum F = 1/(N-1) = 1/15 with its
    /// certificate intact, folded by the fat tree's group or not.
    #[test]
    fn colgen_closes_the_fat_tree_gap_from_a_shortest_path_seed() {
        let ft = generators::fat_tree_two_level(4, 2, 4);
        let commodities = CommoditySet::among(ft.hosts.clone());
        let n = ft.hosts.len() as f64;
        let optimum = 1.0 / (n - 1.0); // 1/15

        let disjoint =
            solve_path_mcf_among(&ft.graph, commodities.clone(), PathSetKind::EdgeDisjoint)
                .unwrap();
        assert!(
            (disjoint.flow_value - 1.0 / 24.0).abs() < 1e-6,
            "edge-disjoint F = {} (the single-uplink concentration)",
            disjoint.flow_value
        );
        let folded =
            solve_path_mcf_colgen_among(&ft.graph, commodities.clone(), &ColGenOptions::default())
                .unwrap();
        assert!(folded.stats.proved_optimal, "certificate must hold");
        assert!((folded.schedule.flow_value - optimum).abs() < 1e-6);
        assert!(folded
            .schedule
            .check_consistency(&ft.graph, 1e-6)
            .is_empty());

        let cg = solve_unfolded(&ft.graph, commodities, &ColGenOptions::default()).unwrap();
        assert!(cg.stats.proved_optimal, "certificate must hold");
        assert!(
            (cg.schedule.flow_value - optimum).abs() < 1e-6,
            "colgen F = {} vs optimum {optimum}",
            cg.schedule.flow_value
        );
        // The seed alone is strictly worse (one spine per commodity), so the
        // pricing rounds must have done real work, and the per-round
        // accounting reconciles with the final column count.
        assert!(cg.stats.rounds[0].flow_value < optimum - 1e-6);
        let appended: usize = cg.stats.rounds.iter().map(|r| r.columns_added).sum();
        assert!(appended > 0);
        assert_eq!(cg.stats.seed_columns + appended, cg.stats.total_columns);
        assert!(cg.schedule.check_consistency(&ft.graph, 1e-6).is_empty());
    }

    /// A round cap short of convergence returns the restricted optimum without
    /// the certificate, and the terminating round appends nothing (its
    /// candidates are discarded, not silently counted).
    #[test]
    fn colgen_round_cap_reports_unproven() {
        let ft = generators::fat_tree_two_level(4, 2, 4);
        let commodities = CommoditySet::among(ft.hosts.clone());
        let opts = ColGenOptions {
            max_rounds: 1,
            ..ColGenOptions::default()
        };
        let cg = solve_unfolded(&ft.graph, commodities, &opts).unwrap();
        assert!(!cg.stats.proved_optimal);
        assert_eq!(cg.stats.num_rounds(), 1);
        // The shortest-path seed on the fat tree is the 1/24 concentration.
        assert!(cg.schedule.flow_value < 1.0 / 15.0 - 1e-6);
        assert_eq!(cg.stats.rounds[0].columns_added, 0);
        assert_eq!(cg.stats.total_columns, cg.stats.seed_columns);
    }

    /// Partial pricing must change nothing but the work done: same F, same
    /// certificate, and the skipped-source accounting is recorded per round.
    /// The fattree-16h master skips sources under the production settings.
    #[test]
    fn partial_pricing_preserves_f_and_certificate() {
        let ft = generators::fat_tree_two_level(4, 2, 4);
        let commodities = CommoditySet::among(ft.hosts.clone());
        let full = ColGenOptions {
            partial_pricing: None,
            ..ColGenOptions::default()
        };
        let a = solve_unfolded(&ft.graph, commodities.clone(), &full).unwrap();
        let b = solve_unfolded(&ft.graph, commodities, &ColGenOptions::default()).unwrap();
        assert!(a.stats.proved_optimal && b.stats.proved_optimal);
        assert!(
            (a.schedule.flow_value - b.schedule.flow_value).abs() < 1e-9,
            "full F = {} vs partial F = {}",
            a.schedule.flow_value,
            b.schedule.flow_value
        );
        assert_eq!(a.stats.total_sources_skipped(), 0);
        assert!(
            b.stats.total_sources_skipped() > 0,
            "production colgen should skip stale sources"
        );
        // The terminating round's certificate always rests on a full sweep.
        assert_eq!(b.stats.rounds.last().unwrap().sources_skipped, 0);
        // Skipping defers work but the certificate tolerance is unchanged, so the
        // final optimum is bit-comparable.
        assert!((a.schedule.flow_value - 1.0 / 15.0).abs() < 1e-6);
    }

    /// The ROADMAP claim, pinned: dual stabilization is what makes the
    /// drift-based source skip fire. At the production drift tolerance,
    /// Wentges smoothing damps the per-round dual oscillation, so more sources
    /// sit under the drift threshold per round — while F and the optimality
    /// certificate are unchanged (misprice sweeps re-price everything at raw
    /// duals before terminating).
    #[test]
    fn stabilization_makes_partial_pricing_fire_more() {
        let ft = generators::fat_tree_two_level(4, 2, 4);
        let commodities = CommoditySet::among(ft.hosts.clone());
        let base = ColGenOptions {
            stabilization: Stabilization::None,
            ..ColGenOptions::default()
        };
        let plain = solve_unfolded(&ft.graph, commodities.clone(), &base).unwrap();
        let stab = solve_unfolded(&ft.graph, commodities, &ColGenOptions::default()).unwrap();
        assert!(plain.stats.proved_optimal && stab.stats.proved_optimal);
        assert!(
            (plain.schedule.flow_value - stab.schedule.flow_value).abs() < 1e-9,
            "plain F = {} vs stabilized F = {}",
            plain.schedule.flow_value,
            stab.schedule.flow_value
        );
        assert!((stab.schedule.flow_value - 1.0 / 15.0).abs() < 1e-6);
        // The point of the exercise: smoothing shrinks per-round dual drift, so
        // the skip fires more often per pricing round.
        let skip_rate = |s: &ColGenStats| s.total_sources_skipped() as f64 / s.num_rounds() as f64;
        assert!(
            skip_rate(&stab.stats) > skip_rate(&plain.stats),
            "stabilized skip rate {:.3} should beat unstabilized {:.3}",
            skip_rate(&stab.stats),
            skip_rate(&plain.stats)
        );
        // The certificate still rests on an unsmoothed full sweep.
        assert_eq!(stab.stats.rounds.last().unwrap().sources_skipped, 0);
        assert!(stab.stats.misprices >= 1, "smoothing must have mispriced");
    }

    /// Partial pricing on the default configuration also agrees with
    /// link-MCF across topology families.
    #[test]
    fn partial_pricing_agrees_with_link_mcf() {
        for topo in [generators::hypercube(3), generators::torus(&[3, 3])] {
            let link = solve_link_mcf(&topo).unwrap();
            let cg = solve_path_mcf_colgen(&topo, &ColGenOptions::default()).unwrap();
            assert!(cg.stats.proved_optimal);
            assert!(
                (cg.schedule.flow_value - link.flow_value).abs() <= 1e-6 * (1.0 + link.flow_value),
                "{}: colgen F = {} vs link F = {}",
                topo.name(),
                cg.schedule.flow_value,
                link.flow_value
            );
        }
    }

    /// Degenerate option values are rejected instead of spinning forever.
    #[test]
    fn colgen_rejects_zero_caps() {
        let topo = generators::hypercube(2);
        let zero_rounds = ColGenOptions {
            max_rounds: 0,
            ..ColGenOptions::default()
        };
        for opts in std::iter::once(zero_rounds).chain(ColGenOptions::malformed_numeric_cases()) {
            let err = solve_path_mcf_colgen(&topo, &opts).unwrap_err();
            assert!(matches!(err, McfError::BadArgument(_)));
        }
    }

    #[test]
    fn invalid_path_sets_are_rejected() {
        let topo = generators::complete(3);
        let commodities = CommoditySet::all_pairs(3);
        // Wrong number of path sets.
        let err =
            solve_path_mcf_with_paths(&topo, commodities.clone(), vec![Vec::new()]).unwrap_err();
        assert!(matches!(err, McfError::BadArgument(_)));
        // A path with the wrong endpoints.
        let mut sets: Vec<Vec<Path>> = commodities
            .iter()
            .map(|(_, s, d)| vec![a2a_topology::paths::shortest_path(&topo, s, d).unwrap()])
            .collect();
        sets[0] = vec![Path::new(vec![1, 2])];
        let err = solve_path_mcf_with_paths(&topo, commodities, sets).unwrap_err();
        assert!(matches!(err, McfError::BadArgument(_)));
    }
}
