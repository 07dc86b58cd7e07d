//! Golden pins for the LASH virtual-channel assignment on route sets from real
//! solves.
//!
//! Each case lowers the routes a solver produces and pins, per
//! [`LashVariant`], the number of layers and an FNV-1a fingerprint of the
//! per-route layers ([`VcAssignment::layers`]). A faster assignment must land
//! every route on the same first-fit layer, so these pins hold bit for bit.
//!
//! * torus-4×4, torus-8×8 and hypercube-4d: the decomposed link MCF, then
//!   widest-path extraction (the benchmark's `extp` pipeline);
//! * GenKautz-32, -40 and -48 (the `pmcf-genkautz` sweep): path-MCF column
//!   generation with the benchmark's pMCF options.
//!
//! The torus-8×8 and GenKautz cases run in release builds only.

use a2a_mcf::{
    extract_widest_paths, solve_decomposed_mcf_with, CommoditySet, DecomposedOptions, PathSchedule,
};
use a2a_schedule::{assign_virtual_channels, LashVariant, VcAssignment};
use a2a_topology::{generators, Path, Topology};

/// FNV-1a over the little-endian `u64` bytes of each route's layer.
fn fingerprint(vc: &VcAssignment) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &layer in vc.layers() {
        for byte in (layer as u64).to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

/// The route set `lower_path_schedule` hands to LASH: every path of every
/// commodity, in commodity order.
fn routes_of(schedule: &PathSchedule) -> Vec<&Path> {
    schedule
        .paths
        .iter()
        .flat_map(|list| list.iter().map(|(p, _)| p))
        .collect()
}

fn extracted_paths(topo: &Topology) -> PathSchedule {
    let commodities = CommoditySet::all_pairs(topo.num_nodes());
    let solved = solve_decomposed_mcf_with(topo, commodities, &DecomposedOptions::default())
        .expect("decomposed solve");
    extract_widest_paths(topo, &solved.solution).expect("widest-path extraction")
}

/// `(routes, sequential (layers, fingerprint), basic (layers, fingerprint))`.
type Pin = (usize, (usize, u64), (usize, u64));

fn check(topo: &Topology, schedule: &PathSchedule, pin: Pin) {
    let routes = routes_of(schedule);
    let seq = assign_virtual_channels(topo, &routes, LashVariant::Sequential);
    let basic = assign_virtual_channels(topo, &routes, LashVariant::Basic);
    let got: Pin = (
        routes.len(),
        (seq.num_layers(), fingerprint(&seq)),
        (basic.num_layers(), fingerprint(&basic)),
    );
    assert_eq!(got, pin, "{}: (routes, sequential, basic)", topo.name());
}

#[test]
fn torus_4x4_extracted_paths() {
    let topo = generators::torus(&[4, 4]);
    check(
        &topo,
        &extracted_paths(&topo),
        (384, (3, 12790254520715949190), (3, 15557658444584707975)),
    );
}

#[test]
fn hypercube_4d_extracted_paths() {
    let topo = generators::hypercube(4);
    check(
        &topo,
        &extracted_paths(&topo),
        (512, (3, 9103893813850673158), (3, 10082859371941026470)),
    );
}

#[cfg(not(debug_assertions))]
#[test]
fn torus_8x8_extracted_paths() {
    let topo = generators::torus(&[8, 8]);
    check(
        &topo,
        &extracted_paths(&topo),
        (4032, (5, 4206573953735285095), (6, 6749551621107894403)),
    );
}

#[cfg(not(debug_assertions))]
#[test]
fn genkautz_32_colgen_paths() {
    use a2a_mcf::{solve_path_mcf_colgen_among, ColGenOptions, Stabilization};
    let topo = generators::generalized_kautz(32, 4);
    let options = ColGenOptions {
        partial_pricing: Some(1e-1),
        stabilization: Stabilization::Smoothing { alpha: 0.1 },
        ..ColGenOptions::default()
    };
    let commodities = CommoditySet::all_pairs(topo.num_nodes());
    let solved = solve_path_mcf_colgen_among(&topo, commodities, &options).expect("pMCF colgen");
    check(
        &topo,
        &solved.schedule,
        (1408, (4, 11829698551550713670), (6, 18439447461959846499)),
    );
}

/// Path-MCF column generation under the benchmark's pMCF options (the
/// GenKautz-32 case spells them out).
#[cfg(not(debug_assertions))]
fn colgen_paths(topo: &Topology) -> PathSchedule {
    use a2a_mcf::{solve_path_mcf_colgen_among, ColGenOptions, Stabilization};
    let options = ColGenOptions {
        partial_pricing: Some(1e-1),
        stabilization: Stabilization::Smoothing { alpha: 0.1 },
        ..ColGenOptions::default()
    };
    let commodities = CommoditySet::all_pairs(topo.num_nodes());
    solve_path_mcf_colgen_among(topo, commodities, &options)
        .expect("pMCF colgen")
        .schedule
}

#[cfg(not(debug_assertions))]
#[test]
fn genkautz_40_colgen_paths() {
    let topo = generators::generalized_kautz(40, 4);
    check(
        &topo,
        &colgen_paths(&topo),
        (1680, (4, 15881064501833691364), (3, 12443231991351802087)),
    );
}

#[cfg(not(debug_assertions))]
#[test]
fn genkautz_48_colgen_paths() {
    let topo = generators::generalized_kautz(48, 4);
    check(
        &topo,
        &colgen_paths(&topo),
        (2818, (4, 17315124427403066436), (5, 10360644777780196673)),
    );
}
