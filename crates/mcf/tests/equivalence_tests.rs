//! Cross-solver equivalence property suite.
//!
//! Three exact formulations of the max-concurrent all-to-all MCF live in this
//! crate — link-MCF, decomposed-MCF, and path-MCF solved by column generation —
//! and they must agree on the concurrent flow value `F` on *every* topology.
//! The fattree-16h regression of PR 1's measurements (a fixed path set silently
//! capping `F` at 1/24 instead of 1/15) is exactly the class of bug this suite
//! pins down: 200+ seeded-ChaCha8 random connected topologies across four
//! families (tori, fat trees, punctured graphs, random regular/directed
//! graphs), each solved by all formulations.
//!
//! Per case the suite asserts:
//! * link-MCF, decomposed-MCF and path-MCF(colgen) agree on `F` within
//!   tolerance;
//! * colgen terminates with its optimality certificate (no path prices below
//!   its commodity's convexity dual) and a consistent schedule;
//! * path-MCF over the fixed edge-disjoint set never *exceeds* the optimum
//!   (it is a restriction). Fixed sets may be genuinely suboptimal (Fig. 8;
//!   the fat-tree family's single uplinks collapse the edge-disjoint set to
//!   one path per commodity), so only the restriction inequality is checked —
//!   which is precisely why colgen, not a hand-tuned path family, is the
//!   principled fix.

use a2a_mcf::decomposed::{solve_decomposed_mcf_with, DecomposedOptions};
use a2a_mcf::linkmcf::solve_link_mcf_among;
use a2a_mcf::pmcf::{solve_path_mcf_among, solve_path_mcf_colgen_among, PathSetKind};
use a2a_mcf::{ColGenOptions, CommoditySet, PRICING_TOLERANCE};
use a2a_topology::{generators, puncture, NodeId, Topology};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Relative tolerance for `F` agreement between exact solvers.
const REL_TOL: f64 = 1e-5;

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= REL_TOL * (1.0 + a.abs().max(b.abs()))
}

/// Picks `k` distinct endpoint nodes from `0..n`.
fn sample_endpoints(rng: &mut ChaCha8Rng, n: usize, k: usize) -> Vec<NodeId> {
    let mut nodes: Vec<NodeId> = (0..n).collect();
    for i in 0..k {
        let pick = rng.random_range(0..nodes.len() - i);
        nodes.swap(i, i + pick);
    }
    nodes.truncate(k);
    nodes
}

/// Runs all four solvers on one case and cross-checks them.
fn check_case(tag: &str, topo: &Topology, endpoints: Vec<NodeId>) {
    let commodities = CommoditySet::among(endpoints);

    let link = solve_link_mcf_among(topo, commodities.clone())
        .unwrap_or_else(|e| panic!("{tag}: link-MCF failed: {e}"));
    let dec = solve_decomposed_mcf_with(topo, commodities.clone(), &DecomposedOptions::default())
        .unwrap_or_else(|e| panic!("{tag}: decomposed-MCF failed: {e}"));
    // The equivalence suite pins the *unstabilized* trajectory — raw-dual
    // pricing with effectively no source skipping (see ColGenOptions::plain).
    let cg = solve_path_mcf_colgen_among(topo, commodities.clone(), &ColGenOptions::plain())
        .unwrap_or_else(|e| panic!("{tag}: colgen path-MCF failed: {e}"));
    let disjoint = solve_path_mcf_among(topo, commodities.clone(), PathSetKind::EdgeDisjoint)
        .unwrap_or_else(|e| panic!("{tag}: edge-disjoint path-MCF failed: {e}"));

    let f = link.flow_value;
    assert!(f > 0.0, "{tag}: zero concurrent flow");
    assert!(
        close(f, dec.solution.flow_value),
        "{tag}: link F = {f} vs decomposed F = {}",
        dec.solution.flow_value
    );
    assert!(
        close(f, cg.schedule.flow_value),
        "{tag}: link F = {f} vs colgen F = {}",
        cg.schedule.flow_value
    );
    // The certificate: colgen terminated because no commodity has a path
    // pricing below its convexity dual minus the tolerance.
    assert!(cg.stats.proved_optimal, "{tag}: colgen certificate missing");
    let last = cg.stats.rounds.last().expect("at least one round");
    assert_eq!(last.columns_added, 0, "{tag}: final round added columns");
    assert!(
        last.max_violation <= PRICING_TOLERANCE,
        "{tag}: final round reports violation {}",
        last.max_violation
    );
    assert!(
        cg.schedule.check_consistency(topo, 1e-6).is_empty(),
        "{tag}: colgen schedule inconsistent"
    );

    // A fixed set is a restriction of the path LP: it can never beat the
    // optimum.
    assert!(
        disjoint.flow_value <= f * (1.0 + REL_TOL) + REL_TOL,
        "{tag}: edge-disjoint F = {} exceeds optimum {f}",
        disjoint.flow_value
    );
}

/// Tori of assorted shapes with random endpoint subsets: 60 cases.
#[test]
fn equivalence_on_tori() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x70_0501);
    let shapes: [&[usize]; 4] = [&[3, 3], &[3, 4], &[4, 4], &[3, 3, 2]];
    for case in 0..60 {
        let dims = shapes[rng.random_range(0..shapes.len())];
        let topo = generators::torus(dims);
        let k = rng.random_range(4..6);
        let endpoints = sample_endpoints(&mut rng, topo.num_nodes(), k);
        check_case(
            &format!("torus case {case} dims {dims:?} k={k}"),
            &topo,
            endpoints,
        );
    }
}

/// Two-level fat trees (host endpoints): 50 cases. This family is where the
/// edge-disjoint set collapses to one path per commodity; colgen must close
/// the gap.
#[test]
fn equivalence_on_fat_trees() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xFA7_7EE);
    for case in 0..50 {
        let leaves = rng.random_range(2..4);
        let spines = rng.random_range(1..4);
        let hosts_per_leaf = rng.random_range(1..3);
        let ft = generators::fat_tree_two_level(leaves, spines, hosts_per_leaf);
        if ft.hosts.len() < 2 {
            // Degenerate draw; still counts as a case via the fallback shape.
            let ft = generators::fat_tree_two_level(2, 1, 2);
            check_case(
                &format!("fat-tree case {case} (fallback)"),
                &ft.graph,
                ft.hosts.clone(),
            );
            continue;
        }
        check_case(
            &format!("fat-tree case {case} ({leaves}l/{spines}s/{hosts_per_leaf}h)"),
            &ft.graph,
            ft.hosts.clone(),
        );
    }
}

/// Punctured tori/hypercubes (random full-duplex link removals that keep the
/// graph strongly connected): 50 cases.
#[test]
fn equivalence_on_punctured_graphs() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xC07_C07);
    for case in 0..50 {
        let base = match rng.random_range(0..3) {
            0 => generators::hypercube(3),
            1 => generators::torus(&[3, 3]),
            _ => generators::torus(&[3, 4]),
        };
        let removals = rng.random_range(1..3);
        let punctured = puncture::remove_random_links(&base, removals, &mut rng);
        let topo = if punctured.is_strongly_connected() {
            punctured
        } else {
            base
        };
        let k = rng.random_range(4..6);
        let endpoints = sample_endpoints(&mut rng, topo.num_nodes(), k);
        check_case(
            &format!("punctured case {case} ({})", topo.name()),
            &topo,
            endpoints,
        );
    }
}

/// Random regular and random directed graphs: 50 cases. Expander-like, few
/// shortest paths — the family where fixed path sets are most likely to fall
/// short and adaptive pricing has to earn its keep.
#[test]
fn equivalence_on_random_graphs() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x002A_4D06);
    for case in 0..50 {
        let n = rng.random_range(6..10);
        let mut d = rng.random_range(2..4).min(n - 1);
        let seed = rng.random_range(0..1_000_000) as u64;
        let candidate = if rng.random_bool(0.5) {
            if (n * d) % 2 != 0 {
                d = 2; // a d-regular graph needs n*d even
            }
            generators::random_regular(n, d, seed)
        } else {
            generators::random_directed(n, d, seed)
        };
        let topo = if candidate.is_strongly_connected() {
            candidate
        } else {
            // Deterministic fallback keeps the case count at 50.
            generators::generalized_kautz(8, 2)
        };
        let k = rng.random_range(4..6).min(topo.num_nodes());
        let endpoints = sample_endpoints(&mut rng, topo.num_nodes(), k);
        check_case(
            &format!("random case {case} ({})", topo.name()),
            &topo,
            endpoints,
        );
    }
}

/// Fixed-set path-MCF, pinned: `F` of [`solve_path_mcf_among`] over the
/// edge-disjoint and all-shortest sets on five fabrics, to 1e-12
/// relative. Recorded before the fixed-set LP was rebuilt as the colgen
/// master solved once; a change of formulation, solve path or extraction
/// that moves `F` in the twelfth digit shows here.
#[test]
fn fixed_set_flow_values_are_pinned() {
    let ft = generators::fat_tree_two_level(4, 2, 4);
    let fabrics: [(Topology, Vec<NodeId>); 5] = [
        (generators::torus(&[4, 4]), (0..16).collect()),
        (generators::hypercube(4), (0..16).collect()),
        (generators::generalized_kautz(16, 3), (0..16).collect()),
        (generators::generalized_kautz(32, 4), (0..32).collect()),
        (ft.graph, ft.hosts),
    ];
    let kinds = [
        PathSetKind::EdgeDisjoint,
        PathSetKind::Shortest { max_per_pair: 16 },
    ];
    // recorded[fabric][kind]
    let recorded: [[f64; 2]; 5] = [
        [0.12500000000000008, 0.12499999999999986],
        [0.125, 0.1250000000000001],
        [0.08, 0.08000000000000002],
        [0.047058823529411875, 0.04166666666666703],
        [0.041666666666666664, 0.06666666666666668],
    ];
    for ((topo, endpoints), row) in fabrics.iter().zip(recorded) {
        for (kind, want) in kinds.into_iter().zip(row) {
            let got = solve_path_mcf_among(topo, CommoditySet::among(endpoints.clone()), kind)
                .unwrap_or_else(|e| panic!("{} {kind:?}: {e}", topo.name()))
                .flow_value;
            assert!(
                (got - want).abs() <= 1e-12 * want,
                "{} {kind:?}: F = {got:?}, recorded {want:?}",
                topo.name()
            );
        }
    }
}
