//! Dense-vs-colgen tsMCF equivalence suite.
//!
//! Two exact formulations of the time-stepped MCF live in this crate — the
//! dense edge formulation (`tsmcf`) and column generation over delivery-exact
//! time-expanded path columns (`tscolgen`) — and they must agree on the optimal
//! total utilization `Σ_t U_t` (equivalently the completion-time bound and the
//! effective flow value) at the same step budget on *every* topology. Seeded
//! ChaCha8 cases across the equivalence-suite families (tori, fat trees,
//! punctured graphs, random regular/directed graphs) each assert:
//!
//! * colgen terminates with its optimality certificate and matches the dense
//!   `Σ_t U_t` within tolerance at the same (minimum) step count;
//! * colgen solutions satisfy **equality delivery** — exactly one shard arrives
//!   per commodity, with exact conservation en route — so
//!   [`TsMcfSolution::pruned`] is the identity on them (the junk-flow closure:
//!   dense vertices need the pruning pass, colgen columns cannot carry junk by
//!   construction);
//! * the solution lowers and validates as a chunked schedule without pruning.

use std::collections::HashMap;

use a2a_mcf::tscolgen::solve_tsmcf_colgen_among_with;
use a2a_mcf::tsmcf::{minimum_steps, solve_tsmcf_among_dense, TsMcfSolution};
use a2a_mcf::{ColGenOptions, CommoditySet, Stabilization};
use a2a_topology::{generators, puncture, EdgeId, NodeId, Topology};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Relative tolerance for `Σ_t U_t` agreement between the exact solvers.
const REL_TOL: f64 = 1e-5;

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

/// Aggregated per-(commodity, step, edge) flow, for order-insensitive equality.
fn flow_map(sol: &TsMcfSolution) -> HashMap<(usize, usize, EdgeId), f64> {
    let mut map = HashMap::new();
    for (idx, _, _) in sol.commodities.iter() {
        for t in 0..sol.steps {
            for &(e, a) in &sol.flows[idx][t] {
                *map.entry((idx, t, e)).or_insert(0.0) += a;
            }
        }
    }
    map
}

/// Runs dense and colgen tsMCF on one case and cross-checks them. Alternates
/// plain and stabilized colgen so both configurations are exercised across the
/// suite.
fn check_case(tag: &str, topo: &Topology, endpoints: Vec<NodeId>, stabilized: bool) {
    let commodities = CommoditySet::among(endpoints);
    let steps = minimum_steps(topo, &commodities)
        .unwrap_or_else(|e| panic!("{tag}: minimum_steps failed: {e}"));
    let dense = solve_tsmcf_among_dense(topo, commodities.clone(), steps)
        .unwrap_or_else(|e| panic!("{tag}: dense tsMCF failed: {e}"));
    let opts = if stabilized {
        ColGenOptions::stabilized()
    } else {
        ColGenOptions::plain()
    };
    let cg = solve_tsmcf_colgen_among_with(topo, commodities.clone(), steps, &opts)
        .unwrap_or_else(|e| panic!("{tag}: colgen tsMCF failed: {e}"));

    // Certificate + agreement on the objective (completion steps are the shared
    // input; Σ_t U_t decides F̂ and the predicted completion).
    assert!(cg.stats.proved_optimal, "{tag}: colgen certificate missing");
    assert_eq!(cg.solution.steps, dense.steps, "{tag}: step counts differ");
    let (du, cu) = (dense.total_utilization(), cg.solution.total_utilization());
    assert!(
        (du - cu).abs() <= REL_TOL * (1.0 + du.abs()),
        "{tag}: dense U = {du} vs colgen U = {cu}"
    );
    assert!(
        cg.solution.check_consistency(topo, 1e-6).is_empty(),
        "{tag}: colgen schedule inconsistent"
    );

    // Equality delivery with exact conservation: per commodity, the aggregate
    // net flux is -1 at the source, +1 at the destination, and exactly 0 at
    // every other node — no flow vanishes en route (the dense formulation's
    // `out <= in` junk cannot exist in column-built flows).
    for (idx, s, d) in cg.solution.commodities.iter() {
        let mut net = vec![0.0f64; topo.num_nodes()];
        for t in 0..cg.solution.steps {
            for &(e, a) in &cg.solution.flows[idx][t] {
                let edge = topo.edge(e);
                net[edge.dst] += a;
                net[edge.src] -= a;
            }
        }
        for (v, &flux) in net.iter().enumerate() {
            let expect = if v == s {
                -1.0
            } else if v == d {
                1.0
            } else {
                0.0
            };
            assert!(
                (flux - expect).abs() < 1e-6,
                "{tag}: commodity {s}->{d} node {v} net {flux}, expected {expect}"
            );
        }
    }

    // Pruned == identity, structurally: colgen columns carry no junk, so the
    // pruning pass has nothing to strip. Its max-flow may re-route zero-cost
    // ties within the solution's own arc support, but it never adds flow to any
    // arc, never raises a step utilization, and the pruned flow still delivers
    // every shard in full.
    let pruned = cg.solution.pruned(topo);
    let before = flow_map(&cg.solution);
    let after = flow_map(&pruned);
    for (key, b) in &after {
        let a = before.get(key).copied().unwrap_or(0.0);
        assert!(
            b <= &(a + 1e-9),
            "{tag}: pruning added flow on arc {key:?} ({a} -> {b})"
        );
    }
    for (t, (&u_before, &u_after)) in cg
        .solution
        .step_utilization
        .iter()
        .zip(&pruned.step_utilization)
        .enumerate()
    {
        assert!(
            u_after <= u_before + 1e-9,
            "{tag}: step {t} utilization rose from {u_before} to {u_after} under pruning"
        );
    }
    assert!(
        pruned.check_consistency(topo, 1e-6).is_empty(),
        "{tag}: pruned colgen schedule inconsistent"
    );
}

/// Tori of assorted shapes with random endpoint subsets.
#[test]
fn tsmcf_equivalence_on_tori() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x75_0501);
    let shapes: [&[usize]; 3] = [&[3, 3], &[3, 4], &[3, 3, 2]];
    for case in 0..8 {
        let dims = shapes[rng.random_range(0..shapes.len())];
        let topo = generators::torus(dims);
        let k = rng.random_range(4..6);
        let endpoints = sample_endpoints(&mut rng, topo.num_nodes(), k);
        check_case(
            &format!("torus case {case} dims {dims:?} k={k}"),
            &topo,
            endpoints,
            case % 2 == 0,
        );
    }
}

/// Two-level fat trees with host endpoints (deep time expansions: every
/// commodity crosses host → leaf → spine → leaf → host).
#[test]
fn tsmcf_equivalence_on_fat_trees() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x75_FA77);
    for case in 0..6 {
        let leaves = rng.random_range(2..4);
        let spines = rng.random_range(1..3);
        let ft = generators::fat_tree_two_level(leaves, spines, 2);
        check_case(
            &format!("fat-tree case {case} ({leaves}l/{spines}s/2h)"),
            &ft.graph,
            ft.hosts.clone(),
            case % 2 == 0,
        );
    }
}

/// Punctured tori/hypercubes (random strongly-connected link removals).
#[test]
fn tsmcf_equivalence_on_punctured_graphs() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x75_C07);
    for case in 0..8 {
        let base = match rng.random_range(0..2) {
            0 => generators::hypercube(3),
            _ => generators::torus(&[3, 3]),
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
            case % 2 == 0,
        );
    }
}

/// Random regular and random directed graphs — expander-like instances where
/// the dense time-expanded LPs degenerate hardest.
#[test]
fn tsmcf_equivalence_on_random_graphs() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x75_2A4D);
    for case in 0..8 {
        let n = rng.random_range(6..9);
        let mut d = rng.random_range(2..4).min(n - 1);
        let seed = rng.random_range(0..1_000_000) as u64;
        let candidate = if rng.random_bool(0.5) {
            if (n * d) % 2 != 0 {
                d = 2;
            }
            generators::random_regular(n, d, seed)
        } else {
            generators::random_directed(n, d, seed)
        };
        let topo = if candidate.is_strongly_connected() {
            candidate
        } else {
            generators::generalized_kautz(8, 2)
        };
        let k = rng.random_range(4..6).min(topo.num_nodes());
        let endpoints = sample_endpoints(&mut rng, topo.num_nodes(), k);
        check_case(
            &format!("random case {case} ({})", topo.name()),
            &topo,
            endpoints,
            case % 2 == 0,
        );
    }
}

/// Stabilization on/off must not change the certified optimum at all — pinned
/// directly on one seeded instance with both configurations.
#[test]
fn tsmcf_stabilization_is_objective_neutral() {
    let topo = generators::random_regular(8, 3, 7);
    let commodities = CommoditySet::all_pairs(topo.num_nodes());
    let steps = minimum_steps(&topo, &commodities).unwrap();
    let plain =
        solve_tsmcf_colgen_among_with(&topo, commodities.clone(), steps, &ColGenOptions::default())
            .unwrap();
    let stab = solve_tsmcf_colgen_among_with(
        &topo,
        commodities,
        steps,
        &ColGenOptions {
            stabilization: Stabilization::Smoothing { alpha: 0.8 },
            ..ColGenOptions::default()
        },
    )
    .unwrap();
    assert!(plain.stats.proved_optimal && stab.stats.proved_optimal);
    assert!(
        (plain.solution.total_utilization() - stab.solution.total_utilization()).abs() < 1e-6,
        "plain U = {} vs stabilized U = {}",
        plain.solution.total_utilization(),
        stab.solution.total_utilization()
    );
}

/// The dense reference on torus-3×3 all-to-all one step past the minimum
/// (3 steps) once failed with "singular basis: no acceptable pivot" on the
/// presolved model. It must solve to `Σ_t U_t = 3` and agree with colgen at
/// the same steps. Release builds only: the dense LP takes seconds there and
/// far longer in the debug profile.
#[cfg(not(debug_assertions))]
#[test]
fn dense_tsmcf_on_torus3x3_one_step_past_minimum_solves() {
    let topo = generators::torus(&[3, 3]);
    let commodities = CommoditySet::all_pairs(topo.num_nodes());
    let steps = minimum_steps(&topo, &commodities).unwrap() + 1;
    assert_eq!(steps, 3);
    let dense = solve_tsmcf_among_dense(&topo, commodities.clone(), steps)
        .unwrap_or_else(|e| panic!("dense tsMCF failed: {e}"));
    let du = dense.total_utilization();
    assert!((du - 3.0).abs() <= 1e-9, "dense U = {du}");
    let cg = solve_tsmcf_colgen_among_with(&topo, commodities, steps, &ColGenOptions::default())
        .unwrap();
    assert!(cg.stats.proved_optimal, "colgen certificate missing");
    let cu = cg.solution.total_utilization();
    assert!(
        (du - cu).abs() <= REL_TOL * (1.0 + du.abs()),
        "dense U = {du} vs colgen U = {cu}"
    );
}
