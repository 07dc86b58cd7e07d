//! Column-pool aging suite for the shared colgen driver.
//!
//! An aggressive purge schedule still terminates with the optimality
//! certificate and the same flow value — a purged-then-repriced column
//! re-enters as a fresh column without corrupting the master or the
//! certificate — and the purge schedule is a pure function of the instance:
//! two runs purge the same columns in the same rounds.

use a2a_mcf::pmcf::solve_path_mcf_colgen_among;
use a2a_mcf::{ColGenOptions, CommoditySet};
use a2a_topology::generators;

mod common;
use common::assert_identical_rounds;

/// Relative tolerance for cross-configuration `F` agreement.
const REL_TOL: f64 = 1e-6;

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= REL_TOL * (1.0 + a.abs().max(b.abs()))
}

/// Drop after one idle round, so the pool churns.
fn aggressive_purge_options() -> ColGenOptions {
    ColGenOptions {
        purge_nonbasic_after: Some(1),
        max_rounds: 400,
        ..ColGenOptions::default()
    }
}

/// Column-pool aging: an aggressive purge schedule still terminates with the
/// optimality certificate and the same flow value as the default
/// configuration — purged-then-repriced columns re-enter cleanly.
#[test]
fn purged_columns_reenter_cleanly() {
    let topo = generators::torus(&[3, 3]);
    let commodities = CommoditySet::all_pairs(topo.num_nodes());

    let reference =
        solve_path_mcf_colgen_among(&topo, commodities.clone(), &ColGenOptions::default())
            .expect("reference solve");
    assert!(reference.stats.proved_optimal);

    let purged = solve_path_mcf_colgen_among(&topo, commodities, &aggressive_purge_options())
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

/// The purge pass reads only the master solution, so the purge schedule is
/// deterministic: two runs purge the same columns in the same rounds.
#[test]
fn purge_schedule_is_deterministic() {
    let topo = generators::torus(&[3, 3]);
    let commodities = CommoditySet::all_pairs(topo.num_nodes());
    let opts = aggressive_purge_options();
    let first = solve_path_mcf_colgen_among(&topo, commodities.clone(), &opts).expect("first");
    let second = solve_path_mcf_colgen_among(&topo, commodities, &opts).expect("second");
    assert!(first.stats.total_columns_purged() > 0);
    assert_identical_rounds("pmcf torus-3x3 purge", &first.stats, &second.stats);
}
