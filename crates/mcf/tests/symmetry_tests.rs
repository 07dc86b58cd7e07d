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

use a2a_mcf::decomposed::{solve_decomposed_mcf_with, solve_master_with, DecomposedOptions};
use a2a_mcf::CommoditySet;
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
