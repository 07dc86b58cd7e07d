//! The decomposed solve on fabrics whose every endpoint looks the same.
//!
//! Tori, hypercubes, directed rings, complete bipartite graphs and the paper's
//! host-bottleneck fabric (among its hosts) all have an automorphism taking any
//! endpoint to any other. Whatever path `solve_decomposed_mcf_with` takes on
//! them, its answer must be the general master's: per fabric,
//!
//! * `F` within 1e-12 relative of [`solve_master_with`] (the source-grouped
//!   master over every source, no symmetry used);
//! * per-commodity flows that conserve, deliver `F` (`check_consistency` at
//!   1e-6) and fit the capacities (`max_link_utilization` ≤ 1 + 1e-6);
//! * the same `F` after three SplitMix64 relabellings of the nodes (endpoints
//!   relabelled with them).
//!
//! The torus-8×8 case runs in release builds only: its general master alone
//! takes ~10,000 dual iterations.
//!
//! Path-MCF column generation is held to the same master on fabrics with and
//! without a transitive group — the generalized Kautz graphs (in their own and
//! a relabelled node order), torus-4×4, the fat tree among its hosts and a
//! torus-3×3 with one arc removed: `F` within 1e-9 relative and the
//! certificate, every path a valid `s → d` path, each commodity's weights
//! summing to 1, and the bottleneck link's load at most `1/F`. The Kautz
//! graphs from 32 nodes run in release builds only.

use a2a_mcf::decomposed::{solve_decomposed_mcf_with, solve_master_with, DecomposedOptions};
use a2a_mcf::pmcf::solve_path_mcf_colgen_among;
use a2a_mcf::{max_link_load_of_paths, ColGenOptions, CommoditySet, Stabilization};
use a2a_topology::transform::HostNicAugmented;
use a2a_topology::{generators, NodeId, Topology};

mod common;
use common::{permutation, relabelled};

const F_REL_TOL: f64 = 1e-12;
const FLOW_TOL: f64 = 1e-6;

fn assert_same_f(tag: &str, what: &str, expected: f64, got: f64) {
    assert!(
        (got - expected).abs() <= F_REL_TOL * expected,
        "{tag}: {what} F = {got}, expected {expected}"
    );
}

/// Solves `topo` among `endpoints` with the decomposed solve and returns `F`
/// after checking the flows it returned.
fn decomposed_f(tag: &str, topo: &Topology, endpoints: &[NodeId]) -> f64 {
    let solved = solve_decomposed_mcf_with(
        topo,
        CommoditySet::among(endpoints.to_vec()),
        &DecomposedOptions::default(),
    )
    .unwrap_or_else(|e| panic!("{tag}: decomposed solve failed: {e}"));
    let issues = solved.solution.check_consistency(topo, FLOW_TOL);
    assert!(issues.is_empty(), "{tag}: inconsistent flows: {issues:?}");
    let utilization = solved.solution.max_link_utilization(topo);
    assert!(
        utilization <= 1.0 + FLOW_TOL,
        "{tag}: a link runs at {utilization} of its capacity"
    );
    solved.solution.flow_value
}

/// Runs every check on one fabric and returns its `F`.
fn check(tag: &str, topo: &Topology, endpoints: &[NodeId]) -> f64 {
    let commodities = CommoditySet::among(endpoints.to_vec());
    let general = solve_master_with(topo, &commodities, &DecomposedOptions::default())
        .unwrap_or_else(|e| panic!("{tag}: master solve failed: {e}"))
        .flow_value;
    let f = decomposed_f(tag, topo, endpoints);
    assert_same_f(tag, "decomposed", general, f);
    for seed in 1..=3 {
        let perm = permutation(topo.num_nodes(), seed);
        let moved: Vec<NodeId> = endpoints.iter().map(|&u| perm[u]).collect();
        let tag = format!("{tag} relabelled by seed {seed}");
        let relabelled_f = decomposed_f(&tag, &relabelled(topo, seed), &moved);
        assert_same_f(&tag, "decomposed", f, relabelled_f);
    }
    f
}

fn check_all_pairs(topo: &Topology) {
    let endpoints: Vec<NodeId> = (0..topo.num_nodes()).collect();
    check(topo.name(), topo, &endpoints);
}

#[test]
fn two_dimensional_tori_match_the_general_master() {
    check_all_pairs(&generators::torus(&[4, 4]));
    check_all_pairs(&generators::torus(&[5, 5]));
    check_all_pairs(&relabelled(&generators::torus(&[6, 6]), 1));
}

#[test]
fn three_dimensional_tori_match_the_general_master() {
    check_all_pairs(&generators::torus(&[3, 3, 3]));
    check_all_pairs(&generators::torus(&[4, 4, 2]));
}

#[test]
fn hypercube_ring_and_bipartite_match_the_general_master() {
    check_all_pairs(&generators::hypercube(4));
    check_all_pairs(&generators::ring(7));
    check_all_pairs(&generators::complete_bipartite(3, 3));
}

/// The paper's host-bottleneck fabric: only the hosts are endpoints, and
/// every automorphism must map hosts to hosts.
#[test]
fn host_bottleneck_torus_matches_the_general_master() {
    let aug = HostNicAugmented::build(&generators::torus(&[3, 3, 3]), 4.0);
    let f = check("host-augmented torus-3x3x3", &aug.graph, &aug.hosts);
    assert!((f - 2.0 / 27.0).abs() <= 1e-9, "F = {f}, expected 2/27");
}

#[cfg(not(debug_assertions))]
#[test]
fn torus_8x8_matches_the_general_master() {
    check_all_pairs(&generators::torus(&[8, 8]));
}

const PMCF_REL_TOL: f64 = 1e-9;

/// Path-MCF colgen under the benchmark's pMCF configuration, held to the
/// general master (module docs).
fn check_pmcf(tag: &str, topo: &Topology, endpoints: &[NodeId]) {
    let commodities = CommoditySet::among(endpoints.to_vec());
    let general = solve_master_with(topo, &commodities, &DecomposedOptions::default())
        .unwrap_or_else(|e| panic!("{tag}: master solve failed: {e}"))
        .flow_value;
    let options = ColGenOptions {
        partial_pricing: Some(1e-1),
        stabilization: Stabilization::Smoothing { alpha: 0.1 },
        ..ColGenOptions::default()
    };
    let cg = solve_path_mcf_colgen_among(topo, commodities.clone(), &options)
        .unwrap_or_else(|e| panic!("{tag}: colgen failed: {e}"));
    assert!(cg.stats.proved_optimal, "{tag}: certificate missing");
    let f = cg.schedule.flow_value;
    assert!(
        (f - general).abs() <= PMCF_REL_TOL * general,
        "{tag}: colgen F = {f}, general master F = {general}"
    );
    for (k, s, d) in commodities.iter() {
        let mut total = 0.0;
        for (p, w) in &cg.schedule.paths[k] {
            assert!(
                p.source() == s && p.dest() == d && p.is_valid_in(topo),
                "{tag}: {:?} is not a {s}->{d} path",
                p.nodes()
            );
            total += w;
        }
        assert!(
            (total - 1.0).abs() <= PMCF_REL_TOL,
            "{tag}: {s}->{d} weights sum to {total}"
        );
    }
    let load = max_link_load_of_paths(topo, &cg.schedule);
    assert!(
        load * f <= 1.0 + PMCF_REL_TOL,
        "{tag}: bottleneck load {load} exceeds 1/F = {}",
        1.0 / f
    );
}

fn check_pmcf_all_pairs(topo: &Topology) {
    let endpoints: Vec<NodeId> = (0..topo.num_nodes()).collect();
    check_pmcf(topo.name(), topo, &endpoints);
}

#[test]
fn pmcf_on_small_fabrics_matches_the_general_master() {
    check_pmcf_all_pairs(&generators::generalized_kautz(16, 4));
    check_pmcf_all_pairs(&generators::torus(&[4, 4]));
    let ft = generators::fat_tree_two_level(4, 2, 4);
    check_pmcf("fattree-16h", &ft.graph, &ft.hosts);
    let torus = generators::torus(&[3, 3]);
    let punctured = torus.without_edges(&[torus.find_edge(0, 1).expect("torus arc")]);
    check_pmcf_all_pairs(&punctured);
}

#[cfg(not(debug_assertions))]
#[test]
fn pmcf_on_generalized_kautz_matches_the_general_master() {
    for n in [32, 40, 48] {
        check_pmcf_all_pairs(&generators::generalized_kautz(n, 4));
    }
    let relabelled_40 = relabelled(&generators::generalized_kautz(40, 4), 1);
    let endpoints: Vec<NodeId> = (0..40).collect();
    check_pmcf("relabelled genkautz-40", &relabelled_40, &endpoints);
}
