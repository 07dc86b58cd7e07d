//! `reference.json` must not come from the code paths the workloads time: the
//! tori are checked against the distance–capacity cut bound (no LP at all), the
//! generalized Kautz graphs against the decomposed link-MCF (the path workloads
//! solve them by column generation over paths).

use a2a_benchmark::json;
use a2a_mcf::bounds::distance_capacity_lower_bound;
use a2a_mcf::{solve_decomposed_mcf_with, CommoditySet, DecomposedOptions};
use a2a_topology::{generators, Topology};

fn assert_reference(topo: &Topology, independent: f64) {
    let doc = json::parse(include_str!("../reference.json")).expect("reference.json parses");
    let checked_in = doc
        .get("flow_value")
        .and_then(|flows| flows.get(topo.name()))
        .and_then(json::Value::as_f64)
        .unwrap_or_else(|| panic!("no reference for {}", topo.name()));
    assert!(
        (checked_in - independent).abs() <= 1e-9 * independent,
        "{}: reference.json says {checked_in}, recomputed {independent}",
        topo.name()
    );
}

#[test]
fn torus_references_are_the_cut_bound() {
    for dims in [&[8, 8][..], &[4, 4], &[3, 3, 3], &[3, 3]] {
        let topo = generators::torus(dims);
        let time_bound = distance_capacity_lower_bound(&topo).expect("tori are connected");
        assert_reference(&topo, 1.0 / time_bound);
    }
}

#[test]
fn genkautz_references_are_the_decomposed_optimum() {
    for n in [12, 14, 16, 32, 40, 48] {
        let topo = generators::generalized_kautz(n, 4);
        let solved = solve_decomposed_mcf_with(
            &topo,
            CommoditySet::all_pairs(n),
            &DecomposedOptions::default(),
        )
        .expect("decomposed MCF solves");
        assert_reference(&topo, solved.solution.flow_value);
    }
}
