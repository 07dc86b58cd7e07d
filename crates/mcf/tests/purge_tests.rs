//! Column-pool aging suite for the shared colgen driver, on a folded master
//! (torus-3x3) and an unfolded one (a random regular graph, which has no
//! symmetry and is the one that must purge).
//!
//! An aggressive purge schedule still terminates with the optimality
//! certificate and the same flow value — a purged-then-repriced column
//! re-enters as a fresh column without corrupting the master or the
//! certificate — and the purge schedule is a pure function of the instance:
//! two runs purge the same columns in the same rounds.

use a2a_mcf::pmcf::solve_path_mcf_colgen_among;
use a2a_mcf::{ColGenOptions, CommoditySet};
use a2a_topology::{generators, Topology};

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

/// Torus-3x3 folds to two commodity orbits, whose few columns never idle
/// long enough to purge; the random regular graph has no symmetry, so its
/// unfolded master churns. Each fabric with whether it must purge.
fn fabrics() -> [(Topology, bool); 2] {
    [
        (generators::torus(&[3, 3]), false),
        (generators::random_regular(16, 4, 1), true),
    ]
}

/// Column-pool aging: an aggressive purge schedule still terminates with the
/// optimality certificate and the same flow value as the default
/// configuration — purged-then-repriced columns re-enter cleanly.
#[test]
fn purged_columns_reenter_cleanly() {
    for (topo, purges) in fabrics() {
        let name = topo.name();
        let commodities = CommoditySet::all_pairs(topo.num_nodes());

        let reference =
            solve_path_mcf_colgen_among(&topo, commodities.clone(), &ColGenOptions::default())
                .expect("reference solve");
        assert!(reference.stats.proved_optimal, "{name}");

        let purged = solve_path_mcf_colgen_among(&topo, commodities, &aggressive_purge_options())
            .expect("purge-configured solve");

        assert!(
            purged.stats.proved_optimal,
            "{name}: aggressive purging must not break the certificate"
        );
        assert!(
            !purges || purged.stats.total_columns_purged() > 0,
            "{name}: the aggressive schedule should actually purge something"
        );
        assert!(
            close(reference.schedule.flow_value, purged.schedule.flow_value),
            "{name}: purging changed the optimum: {} vs {}",
            reference.schedule.flow_value,
            purged.schedule.flow_value
        );
    }
}

/// The purge pass reads only the master solution, so the purge schedule is
/// deterministic: two runs purge the same columns in the same rounds.
#[test]
fn purge_schedule_is_deterministic() {
    for (topo, purges) in fabrics() {
        let name = topo.name();
        let commodities = CommoditySet::all_pairs(topo.num_nodes());
        let opts = aggressive_purge_options();
        let first = solve_path_mcf_colgen_among(&topo, commodities.clone(), &opts).expect("first");
        let second = solve_path_mcf_colgen_among(&topo, commodities, &opts).expect("second");
        assert!(!purges || first.stats.total_columns_purged() > 0, "{name}");
        assert_identical_rounds(&format!("pmcf {name} purge"), &first.stats, &second.stats);
    }
}
