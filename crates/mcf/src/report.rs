//! Adapters from MCF solver statistics to [`a2a_obs::SolveReport`].
//!
//! `a2a_obs` owns the report format but cannot depend on this crate, so the
//! glue that maps [`ColGenStats`] trajectories and [`DecomposedTimings`] onto
//! the schema lives here. Both builders fill only the solver-side sections
//! (convergence, simplex progress, watchdog trips); callers that traced the
//! solve should follow up with [`a2a_obs::SolveReport::attach_summary`] to add
//! counters, stage breakdowns, and histograms.

use crate::colgen::ColGenStats;
use crate::decomposed::DecomposedTimings;
use a2a_obs::{ConvergenceRound, SolveReport};

/// Builds a [`SolveReport`] from a column-generation run.
///
/// `wall_secs` and `objective` come from the caller because [`ColGenStats`]
/// records per-round walls, not the end-to-end solve wall. The convergence
/// trajectory maps one [`crate::colgen::ColGenRound`] per entry.
pub fn colgen_solve_report(
    workload: &str,
    topology: &str,
    config: &str,
    wall_secs: f64,
    objective: f64,
    stats: &ColGenStats,
) -> SolveReport {
    SolveReport {
        solver: "colgen".to_string(),
        workload: workload.to_string(),
        topology: topology.to_string(),
        config: config.to_string(),
        wall_secs,
        objective,
        proved_optimal: Some(stats.proved_optimal),
        watchdog_trips: stats.watchdog_trips,
        convergence: stats
            .rounds
            .iter()
            .enumerate()
            .map(|(i, r)| ConvergenceRound {
                round: i + 1,
                objective: r.flow_value,
                dual_violation: r.max_violation,
                columns_added: r.columns_added,
                columns_purged: r.columns_purged,
                misprice: r.misprice,
                pricing_wall_secs: r.pricing_wall_secs,
                master_wall_secs: r.master_wall_secs,
                master_iterations: r.master_iterations,
            })
            .collect(),
        ..SolveReport::default()
    }
}

/// Builds a [`SolveReport`] from a decomposed (master + per-source children)
/// solve. The master's per-refactorization samples become the report's
/// `simplex_progress`; there is no colgen loop, so `convergence` stays empty.
pub fn decomposed_solve_report(
    workload: &str,
    topology: &str,
    config: &str,
    wall_secs: f64,
    objective: f64,
    timings: &DecomposedTimings,
) -> SolveReport {
    SolveReport {
        solver: "decomposed".to_string(),
        workload: workload.to_string(),
        topology: topology.to_string(),
        config: config.to_string(),
        wall_secs,
        objective,
        proved_optimal: Some(true),
        watchdog_trips: timings.watchdog_trips,
        simplex_progress: timings.master_progress.clone(),
        ..SolveReport::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::colgen::ColGenRound;

    #[test]
    fn colgen_report_maps_rounds() {
        let mut stats = ColGenStats::new(10);
        stats.proved_optimal = true;
        stats.watchdog_trips = 2;
        stats.rounds.push(ColGenRound {
            columns_in_master: 10,
            columns_added: 4,
            master_wall_secs: 0.5,
            pricing_wall_secs: 0.25,
            master_iterations: 100,
            master_pivots: 90,
            flow_value: 12.5,
            max_violation: 1e-3,
            sources_skipped: 0,
            columns_purged: 1,
            misprice: true,
        });
        let report = colgen_solve_report("all_to_all", "fat_tree", "pr10", 1.5, 12.5, &stats);
        assert_eq!(report.solver, "colgen");
        assert_eq!(report.proved_optimal, Some(true));
        assert_eq!(report.watchdog_trips, 2);
        assert_eq!(report.convergence.len(), 1);
        let r = &report.convergence[0];
        assert_eq!(r.round, 1);
        assert_eq!(r.objective, 12.5);
        assert_eq!(r.columns_added, 4);
        assert_eq!(r.columns_purged, 1);
        assert!(r.misprice);
        assert_eq!(r.master_iterations, 100);
        assert!(report.simplex_progress.is_empty());
        // The serialized form must carry the trajectory.
        let json = report.to_json();
        assert!(json.contains("\"convergence\""));
        assert!(json.contains("\"misprice\": true"));
    }
}
