//! The `schedule.lash` span: route lowering traces its LASH layering as one
//! span per call, never one per route, so a traced rep splits the lowering
//! into layering and chunk apportionment.
//!
//! Obs state is process-global, so this file is its own test binary with one
//! test.

use a2a_mcf::pmcf::{solve_path_mcf, PathSetKind};
use a2a_obs::summary::summarize;
use a2a_schedule::{lower_path_schedule, LashVariant};
use a2a_topology::generators;

#[test]
fn lowering_opens_one_lash_span_per_call() {
    let topo = generators::hypercube(3);
    let paths = solve_path_mcf(&topo, PathSetKind::EdgeDisjoint).expect("path MCF");
    a2a_obs::reset();
    a2a_obs::enable();
    let tables = [LashVariant::Sequential, LashVariant::Basic]
        .map(|variant| lower_path_schedule(&topo, &paths, 16, variant));
    a2a_obs::disable();
    let summary = summarize(&a2a_obs::flush());
    assert!(summary.is_balanced(), "{}", summary.render());
    assert!(tables.iter().all(|t| t.total_routes() > 1));
    assert_eq!(summary.count("schedule.lash"), 2, "{}", summary.render());
}
