//! Serial == parallel determinism suite for the shared colgen driver.
//!
//! The driver prices sources into per-source buffers and merges them in
//! source-index order before the deterministic `(violation, owner)` sort, so
//! a 1-thread and an N-thread sweep must produce **byte-identical rounds**:
//! same columns added in the same order, bit-equal objective trajectory,
//! bit-equal max violations, same partial-pricing skips, same certificate.
//! This suite pins that across all four topology families of the equivalence
//! suite, for both the path-MCF master and the time-expanded tsMCF master,
//! under the production configuration (Wentges smoothing + partial pricing)
//! so the misprice-resweep and skip paths are exercised too.
//!
//! It also pins the column-pool aging satellite: an aggressive purge
//! schedule still terminates with the optimality certificate and the same
//! flow value — a purged-then-repriced column re-enters as a fresh column
//! without corrupting the master or the certificate.

use a2a_mcf::pmcf::solve_path_mcf_colgen_among;
use a2a_mcf::tscolgen::solve_tsmcf_colgen_among_with;
use a2a_mcf::{ColGenOptions, CommoditySet, Stabilization};
use a2a_topology::{generators, NodeId, Topology};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

mod common;
use common::assert_identical_rounds;

/// Relative tolerance for cross-configuration `F` agreement (purge tests;
/// determinism tests compare bit patterns, not tolerances).
const REL_TOL: f64 = 1e-6;

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

/// The production configuration: light smoothing plus drift-based partial
/// pricing, so determinism is asserted on the paths that actually run in the
/// harness (including misprice resweeps and skip bookkeeping).
fn production_options(threads: Option<usize>) -> ColGenOptions {
    ColGenOptions {
        stabilization: Stabilization::Smoothing { alpha: 0.1 },
        partial_pricing: Some(1e-1),
        pricing_threads: threads,
        ..ColGenOptions::default()
    }
}

/// The four topology families of the equivalence suite, small enough for a
/// per-family serial + parallel double solve.
fn families() -> Vec<(String, Topology, Vec<NodeId>)> {
    let mut rng = ChaCha8Rng::seed_from_u64(0xDE7E_2313);
    let mut cases = Vec::new();

    let torus = generators::torus(&[3, 3]);
    let k = torus.num_nodes();
    cases.push((
        "torus-3x3".to_string(),
        torus,
        (0..k).collect::<Vec<NodeId>>(),
    ));

    let cube = generators::hypercube(3);
    let endpoints = sample_endpoints(&mut rng, cube.num_nodes(), 5);
    cases.push(("hypercube-3".to_string(), cube, endpoints));

    let ft = generators::fat_tree_two_level(2, 2, 2);
    cases.push(("fat-tree-2l2s2h".to_string(), ft.graph, ft.hosts));

    let candidate = generators::random_regular(8, 3, 0xB0B);
    let random = if candidate.is_strongly_connected() {
        candidate
    } else {
        generators::generalized_kautz(8, 2)
    };
    let endpoints = sample_endpoints(&mut rng, random.num_nodes(), 5);
    cases.push(("random-regular-8x3".to_string(), random, endpoints));

    cases
}

/// Path-MCF: a 1-thread and a 4-thread pricing sweep must be byte-identical
/// round for round, on every family.
#[test]
fn pmcf_parallel_pricing_is_deterministic() {
    for (tag, topo, endpoints) in families() {
        let commodities = CommoditySet::among(endpoints);
        let serial =
            solve_path_mcf_colgen_among(&topo, commodities.clone(), &production_options(Some(1)))
                .unwrap_or_else(|e| panic!("{tag}: serial colgen failed: {e}"));
        let parallel =
            solve_path_mcf_colgen_among(&topo, commodities, &production_options(Some(4)))
                .unwrap_or_else(|e| panic!("{tag}: parallel colgen failed: {e}"));
        assert!(
            serial.stats.proved_optimal,
            "{tag}: serial run should certify"
        );
        assert_identical_rounds(&format!("pmcf {tag}"), &serial.stats, &parallel.stats);
        assert!(
            serial.stats.rounds.iter().all(|r| r.pricing_threads == 1),
            "{tag}: serial rounds must record 1 pricing thread"
        );
        assert!(
            parallel.stats.rounds.iter().all(|r| r.pricing_threads >= 1),
            "{tag}: parallel rounds must record the sweep width"
        );
    }
}

/// Time-expanded tsMCF: same byte-identical-rounds contract as path-MCF.
#[test]
fn tsmcf_parallel_pricing_is_deterministic() {
    for (tag, topo, endpoints) in families() {
        let commodities = CommoditySet::among(endpoints);
        let steps = a2a_mcf::tsmcf::minimum_steps(&topo, &commodities)
            .unwrap_or_else(|e| panic!("{tag}: minimum_steps failed: {e}"));
        let serial = solve_tsmcf_colgen_among_with(
            &topo,
            commodities.clone(),
            steps,
            &production_options(Some(1)),
        )
        .unwrap_or_else(|e| panic!("{tag}: serial ts colgen failed: {e}"));
        let parallel =
            solve_tsmcf_colgen_among_with(&topo, commodities, steps, &production_options(Some(4)))
                .unwrap_or_else(|e| panic!("{tag}: parallel ts colgen failed: {e}"));
        assert!(
            serial.stats.proved_optimal,
            "{tag}: serial ts run should certify"
        );
        assert_identical_rounds(&format!("tsmcf {tag}"), &serial.stats, &parallel.stats);
    }
}

/// `pricing_threads: None` (all cores) must agree with an explicit
/// single-thread run too — the default is not a special case.
#[test]
fn default_thread_count_matches_serial() {
    let topo = generators::torus(&[3, 3]);
    let commodities = CommoditySet::all_pairs(topo.num_nodes());
    let serial =
        solve_path_mcf_colgen_among(&topo, commodities.clone(), &production_options(Some(1)))
            .expect("serial solve");
    let auto = solve_path_mcf_colgen_among(&topo, commodities, &production_options(None))
        .expect("auto-threaded solve");
    assert_identical_rounds("pmcf torus-3x3 auto", &serial.stats, &auto.stats);
}

/// Column-pool aging: an aggressive purge schedule (drop after one idle
/// round, tight per-round column cap so the pool churns) still terminates
/// with the optimality certificate and the same flow value as the default
/// configuration — purged-then-repriced columns re-enter cleanly.
#[test]
fn purged_columns_reenter_cleanly() {
    let topo = generators::torus(&[3, 3]);
    let commodities = CommoditySet::all_pairs(topo.num_nodes());

    let reference =
        solve_path_mcf_colgen_among(&topo, commodities.clone(), &ColGenOptions::default())
            .expect("reference solve");
    assert!(reference.stats.proved_optimal);

    let purge_opts = ColGenOptions {
        max_columns_per_round: 4,
        purge_nonbasic_after: Some(1),
        max_rounds: 400,
        ..ColGenOptions::default()
    };
    let purged = solve_path_mcf_colgen_among(&topo, commodities, &purge_opts)
        .expect("purge-configured solve");

    assert!(
        purged.stats.proved_optimal,
        "aggressive purging must not break the certificate"
    );
    assert!(
        purged.stats.total_columns_purged() > 0,
        "the aggressive schedule should actually purge something"
    );
    assert!(
        close(reference.schedule.flow_value, purged.schedule.flow_value),
        "purging changed the optimum: {} vs {}",
        reference.schedule.flow_value,
        purged.schedule.flow_value
    );
}

/// Purging composes with parallel pricing without breaking determinism: the
/// purge pass reads the master solution (thread-independent), so serial and
/// parallel runs purge the same columns in the same rounds.
#[test]
fn purging_is_thread_count_independent() {
    let topo = generators::torus(&[3, 3]);
    let commodities = CommoditySet::all_pairs(topo.num_nodes());
    let opts = |threads: Option<usize>| ColGenOptions {
        max_columns_per_round: 4,
        purge_nonbasic_after: Some(1),
        max_rounds: 400,
        pricing_threads: threads,
        ..ColGenOptions::default()
    };
    let serial =
        solve_path_mcf_colgen_among(&topo, commodities.clone(), &opts(Some(1))).expect("serial");
    let parallel = solve_path_mcf_colgen_among(&topo, commodities, &opts(Some(3))).expect("wide");
    assert!(serial.stats.total_columns_purged() > 0);
    assert_identical_rounds("pmcf torus-3x3 purge", &serial.stats, &parallel.stats);
}
