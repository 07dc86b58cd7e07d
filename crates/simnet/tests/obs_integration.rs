//! Observability integration on the simulator side: both event engines and
//! the closed replan loop, traced end to end.
//!
//! `crates/mcf/tests/obs_integration.rs` holds the balance and determinism
//! contracts for the solvers; this file holds them for what runs after the
//! solve — `simnet.*` spans around the two run loops, and `replan.*` spans
//! around detect → snapshot → residual re-solve → splice, one of which
//! (`replan.snapshot`) is closed by hand and two of which (`replan.splice`)
//! sit on different exits of one function.
//!
//! Obs state is process-global, so everything obs-touching lives in this one
//! test function; this file is its own test binary and never races the other
//! simnet suites.

use std::collections::BTreeMap;

use a2a_mcf::solve_tsmcf_colgen_auto;
use a2a_obs::summary::{summarize, Summary};
use a2a_schedule::ChunkedSchedule;
use a2a_simnet::{
    replan_run, simulate_chunked_event, EventSimOptions, ExecutionModel, IncumbentPool,
    ReplanOptions, Scenario, ScenarioTimeline, SimParams,
};
use a2a_topology::generators;

const SHARD_BYTES: f64 = 64.0 * 1024.0 * 1024.0;

/// Runs `work` traced and returns (its simulated completion, the summary).
fn traced(work: impl FnOnce() -> f64) -> (f64, Summary) {
    a2a_obs::reset();
    a2a_obs::enable();
    let completion = work();
    a2a_obs::disable();
    (completion, summarize(&a2a_obs::flush()))
}

fn span_counts(s: &Summary) -> BTreeMap<String, u64> {
    s.totals_by_name()
        .into_iter()
        .map(|(name, (count, _secs))| (name, count))
        .collect()
}

#[test]
fn traced_simulation_and_replan_balance_and_repeat() {
    let topo = generators::torus(&[3, 3]);
    let params = SimParams::default();
    let cg = solve_tsmcf_colgen_auto(&topo).expect("nominal solve");
    let schedule =
        ChunkedSchedule::from_tsmcf_exact(&topo, &cg.solution, 8).expect("schedule quantizes");
    let pool = IncumbentPool {
        columns: cg.columns,
        commodities: cg.solution.commodities.clone(),
        steps: cg.solution.steps,
    };

    let simulate = |model| {
        let options = EventSimOptions {
            model,
            ..EventSimOptions::default()
        };
        traced(|| {
            simulate_chunked_event(&topo, &schedule, SHARD_BYTES, &params, &options)
                .expect("nominal simulation")
                .report
                .completion_seconds
        })
    };
    let sync = [
        simulate(ExecutionModel::Synchronized),
        simulate(ExecutionModel::Synchronized),
    ];
    let dep = [
        simulate(ExecutionModel::DependencyDriven),
        simulate(ExecutionModel::DependencyDriven),
    ];

    // Kill the first schedule-carrying link at 0.7 of the nominal makespan
    // (the pinned contract of `replan.rs`): the LP repair path, not the
    // greedy fallback.
    let tr = &schedule.steps[0].transfers[0];
    let edge = topo.find_edge(tr.from, tr.to).expect("a link");
    let timeline =
        ScenarioTimeline::new(Scenario::nominal()).with_link_failure_at(0.7 * sync[0].0, edge);
    let replan = || {
        traced(|| {
            let run = replan_run(
                &topo,
                &schedule,
                SHARD_BYTES,
                &params,
                &timeline,
                Some(&pool),
                &ReplanOptions::default(),
            )
            .expect("replan completes");
            assert!(!run.attempts[0].used_fallback, "LP repair expected");
            run.completion_seconds()
        })
    };
    let replanned = [replan(), replan()];

    for (tag, runs) in [("sync", &sync), ("dep", &dep), ("replan", &replanned)] {
        for (_, s) in runs {
            assert!(s.is_balanced(), "{tag} trace unbalanced:\n{}", s.render());
            assert_eq!(s.dropped_events, 0, "{tag} trace dropped events");
        }
        // Identical work run to run: same simulated time, same span counts
        // per name (wall-clock may differ), same counter values.
        let [(t_a, a), (t_b, b)] = runs;
        assert_eq!(t_a.to_bits(), t_b.to_bits(), "{tag}: completion diverges");
        assert_eq!(span_counts(a), span_counts(b), "{tag}: span counts diverge");
        assert_eq!(a.counters, b.counters, "{tag}: counter values diverge");
    }

    let (_, s) = &sync[0];
    assert_eq!(s.count("simnet.run"), 1);
    assert_eq!(s.count("simnet.step"), schedule.num_steps() as u64);
    let (_, s) = &dep[0];
    assert_eq!(s.count("simnet.dependency_run"), 1);

    // One failure: two detect passes (the interrupted run and the resumed
    // one), one repair with its snapshot, residual solve and splice.
    let (_, s) = &replanned[0];
    assert_eq!(s.count("replan.detect"), 2);
    for name in [
        "replan.repair",
        "replan.snapshot",
        "replan.resolve",
        "replan.splice",
    ] {
        assert_eq!(s.count(name), 1, "{name}");
    }
    assert!(s.count("colgen.round") >= 1, "the residual solve is colgen");

    // The simulator-side names `benchmark/src/lib.rs::traced_metrics` looks up
    // (a missing one reads as 0.0 there); `replan.splice` is counted above.
    for (tag, (_, s)) in [
        ("sync", &sync[0]),
        ("dep", &dep[0]),
        ("replan", &replanned[0]),
    ] {
        let recomputes = s
            .counters
            .iter()
            .find(|(n, _)| n == "simnet.fair_share_recomputes");
        assert!(
            recomputes.is_some_and(|(_, v)| *v > 0),
            "{tag}: counter simnet.fair_share_recomputes"
        );
    }
}
