//! Cross-backend and solver→schedule→simulator integration suite.
//!
//! Pins the three contracts the event-driven engine ships with:
//!
//! 1. **Backend equality** — on nominal fabrics without injection/QP limits, the
//!    event engine in synchronized mode agrees with the closed-form analytic model to
//!    round-off, on every topology family we evaluate (including seeded random
//!    regular graphs).
//! 2. **LP-bound agreement** — on contention-free (nominal) fabrics the simulated
//!    completion matches the tsMCF-predicted bound
//!    `Σ_t U_t · m / b + steps · α` within the chunk-quantization tolerance.
//! 3. **Degradation end-to-end** — link slowdowns stretch completion by the expected
//!    factor, and a failed link first breaks the stale schedule, then a schedule
//!    re-solved on the punctured topology runs to completion under the same failure
//!    scenario.

use a2a_mcf::tscolgen::solve_tsmcf_colgen_auto;
use a2a_schedule::ChunkedSchedule;
use a2a_simnet::{
    simulate_chunked_event, simulate_chunked_schedule_with, EventSimOptions, ExecutionModel,
    Scenario, SimError, SimParams,
};
use a2a_topology::{generators, Topology};

/// Chunk cap used throughout: fine enough that quantization error stays small.
const CHUNK_CAP: usize = 128;

fn families() -> Vec<Topology> {
    let mut topos = vec![
        generators::complete(4),
        generators::bidirectional_ring(5),
        generators::hypercube(3),
        generators::torus(&[3, 3]),
    ];
    // Seeded family: random regular graphs (skip seeds that happen to be disconnected
    // — the generator does not guarantee strong connectivity for every seed).
    for seed in [1u64, 7, 42] {
        let t = generators::random_regular(8, 3, seed);
        if t.is_strongly_connected() {
            topos.push(t);
        }
    }
    assert!(topos.len() >= 5, "expected at least five test topologies");
    topos
}

fn schedule_for(topo: &Topology) -> ChunkedSchedule {
    let sol = solve_tsmcf_colgen_auto(topo)
        .expect("tsMCF solves on connected topologies")
        .solution;
    ChunkedSchedule::from_tsmcf(topo, &sol, CHUNK_CAP).expect("chunking succeeds")
}

#[test]
fn analytic_and_event_backends_agree_on_contention_free_schedules() {
    let params = SimParams::default(); // no injection cap, no QP contention
    let sync = EventSimOptions::default();
    for topo in families() {
        let sched = schedule_for(&topo);
        for shard in [2048.0, 1024.0 * 1024.0, 32.0 * 1024.0 * 1024.0] {
            let a =
                simulate_chunked_schedule_with(&topo, &sched, shard, &params, &Scenario::nominal())
                    .unwrap();
            let b = simulate_chunked_event(&topo, &sched, shard, &params, &sync)
                .unwrap()
                .report;
            let rel = (a.completion_seconds - b.completion_seconds).abs() / a.completion_seconds;
            assert!(
                rel < 1e-9,
                "{} @ {shard}B: analytic {} vs event {}",
                topo.name(),
                a.completion_seconds,
                b.completion_seconds
            );
            assert!((a.throughput_gbps - b.throughput_gbps).abs() < 1e-6 * a.throughput_gbps);
        }
    }
}

#[test]
fn event_sim_matches_the_lp_predicted_bound() {
    let params = SimParams::default();
    let shard = 64.0 * 1024.0 * 1024.0;
    for topo in families() {
        let sol = solve_tsmcf_colgen_auto(&topo).unwrap().solution;
        // Lowering and prediction both derive from the same pruned solution — the
        // flow the schedule actually executes. Quantize at a fixed fine granularity:
        // the coarsest-valid granularity that `from_tsmcf` picks is executable but
        // can inflate link loads by a whole chunk per transfer, which is fidelity
        // noise this comparison must exclude.
        let pruned = sol.pruned(&topo);
        let sched = ChunkedSchedule::from_tsmcf_exact(&topo, &pruned, CHUNK_CAP).unwrap();
        // Pruning can only strip undelivered junk, so the executed prediction never
        // exceeds the raw LP bound (asserted): matching it is matching the LP.
        let lp_bound = sol.predicted_completion_seconds(
            shard,
            params.link_bandwidth_gbps,
            params.step_sync_latency_s,
        );
        let predicted = pruned.predicted_completion_seconds(
            shard,
            params.link_bandwidth_gbps,
            params.step_sync_latency_s,
        );
        assert!(
            predicted <= lp_bound + 1e-9,
            "{}: pruned prediction {predicted} exceeds the LP bound {lp_bound}",
            topo.name()
        );
        let simulated =
            simulate_chunked_event(&topo, &sched, shard, &params, &EventSimOptions::default())
                .unwrap();
        let ratio = simulated.report.completion_seconds / predicted;
        // Chunk quantization rounds each transfer to the nearest 1/128 shard, so the
        // simulated completion tracks the fractional LP bound to that margin on both
        // sides (measured: within 1% across all families once undelivered junk flow
        // is pruned from the tsMCF vertex). Same window as the repo benchmark's
        // `tsmcf-` workload check.
        let (lo, hi) = a2a_simnet::SIM_VS_LP_AGREEMENT_WINDOW;
        assert!(
            ratio >= lo,
            "{}: simulated {} far below the LP bound {predicted}",
            topo.name(),
            simulated.report.completion_seconds
        );
        assert!(
            ratio <= hi,
            "{}: simulated {} vs LP bound {predicted} (ratio {ratio:.4})",
            topo.name(),
            simulated.report.completion_seconds
        );
    }
}

#[test]
fn link_slowdown_scenario_end_to_end() {
    // Solver → chunked schedule → simulation, nominal vs a degraded link.
    let topo = generators::torus(&[3, 3]);
    let sched = schedule_for(&topo);
    let params = SimParams::default();
    let shard = 8.0 * 1024.0 * 1024.0;
    let nominal =
        simulate_chunked_event(&topo, &sched, shard, &params, &EventSimOptions::default()).unwrap();
    // Degrade the busiest link by 4x.
    let busiest = nominal
        .per_link
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.bytes.partial_cmp(&b.1.bytes).unwrap())
        .map(|(e, _)| e)
        .unwrap();
    for model in [
        ExecutionModel::Synchronized,
        ExecutionModel::DependencyDriven,
    ] {
        let degraded = simulate_chunked_event(
            &topo,
            &sched,
            shard,
            &params,
            &EventSimOptions {
                model,
                scenario: Scenario::nominal().with_link_slowdown(busiest, 0.25),
            },
        )
        .unwrap();
        let baseline = simulate_chunked_event(
            &topo,
            &sched,
            shard,
            &params,
            &EventSimOptions {
                model,
                scenario: Scenario::nominal(),
            },
        )
        .unwrap();
        assert!(
            degraded.report.completion_seconds > baseline.report.completion_seconds,
            "{model:?}: degraded {} vs baseline {}",
            degraded.report.completion_seconds,
            baseline.report.completion_seconds
        );
        // The slowdown cannot stretch the run by more than the slowdown factor.
        assert!(
            degraded.report.completion_seconds <= baseline.report.completion_seconds * 4.0 + 1e-9,
            "{model:?}: degraded {} vs baseline {}",
            degraded.report.completion_seconds,
            baseline.report.completion_seconds
        );
    }
}

#[test]
fn link_failure_with_rerouted_schedule_end_to_end() {
    let topo = generators::torus(&[3, 3]);
    let stale = schedule_for(&topo);
    let params = SimParams::default();
    let shard = 4.0 * 1024.0 * 1024.0;
    let nominal =
        simulate_chunked_event(&topo, &stale, shard, &params, &EventSimOptions::default()).unwrap();
    // Fail a link the stale schedule uses.
    let used = nominal
        .per_link
        .iter()
        .position(|l| l.bytes > 0.0)
        .expect("schedule uses some link");
    let scenario = Scenario::nominal().with_failed_link(used);

    // The stale schedule cannot execute — both backends agree on the refusal.
    let err = simulate_chunked_event(
        &topo,
        &stale,
        shard,
        &params,
        &EventSimOptions {
            scenario: scenario.clone(),
            ..EventSimOptions::default()
        },
    )
    .unwrap_err();
    assert!(matches!(err, SimError::FailedLink { .. }), "{err}");
    assert!(matches!(
        simulate_chunked_schedule_with(&topo, &stale, shard, &params, &scenario).unwrap_err(),
        SimError::FailedLink { .. }
    ));

    // Re-solve on the punctured topology and execute the rerouted schedule under the
    // same failure scenario (ranks and the surviving links are unchanged).
    let punctured = topo.without_edges(&[used]);
    assert!(punctured.is_strongly_connected());
    let rerouted_sol = solve_tsmcf_colgen_auto(&punctured).unwrap().solution;
    let rerouted = ChunkedSchedule::from_tsmcf(&punctured, &rerouted_sol, CHUNK_CAP).unwrap();
    for model in [
        ExecutionModel::Synchronized,
        ExecutionModel::DependencyDriven,
    ] {
        let report = simulate_chunked_event(
            &topo,
            &rerouted,
            shard,
            &params,
            &EventSimOptions {
                model,
                scenario: scenario.clone(),
            },
        )
        .unwrap();
        assert!(report.report.completion_seconds > 0.0);
        assert_eq!(
            report.per_link[used].bytes, 0.0,
            "reroute avoids the failure"
        );
        // Nine nodes still exchange (N-1) shards each; the degraded fabric cannot be
        // faster than the nominal one under the synchronized model.
        if model == ExecutionModel::Synchronized {
            assert!(
                report.report.completion_seconds >= nominal.report.completion_seconds * 0.999,
                "{model:?}: rerouted {} vs nominal {}",
                report.report.completion_seconds,
                nominal.report.completion_seconds
            );
        }
    }
}

#[test]
fn seeded_degradations_run_end_to_end() {
    // Seeded slowdown scenarios execute and only ever stretch completion.
    let topo = generators::hypercube(3);
    let sched = schedule_for(&topo);
    let params = SimParams::default();
    let shard = 1024.0 * 1024.0;
    let nominal =
        simulate_chunked_event(&topo, &sched, shard, &params, &EventSimOptions::default()).unwrap();
    for seed in 0..4u64 {
        let scenario = Scenario::seeded_slowdowns(&topo, seed, 4, 0.25, 0.9);
        let degraded = simulate_chunked_event(
            &topo,
            &sched,
            shard,
            &params,
            &EventSimOptions {
                scenario,
                ..EventSimOptions::default()
            },
        )
        .unwrap();
        assert!(
            degraded.report.completion_seconds >= nominal.report.completion_seconds - 1e-12,
            "seed {seed}: degraded {} vs nominal {}",
            degraded.report.completion_seconds,
            nominal.report.completion_seconds
        );
    }
}

/// Per-message α jitter, end to end: the jittered run is reproducible, bounded
/// by the jitter range applied to the α terms, and the analytic model stays
/// equal to the synchronized event engine under the *same* jittered scenario
/// (both charge each step its slowest message's launch factor, keyed by the
/// step-major message id).
#[test]
fn alpha_jitter_is_seeded_and_backends_stay_equal() {
    let params = SimParams::default();
    // Latency-bound shard size so the α terms dominate and the jitter is visible.
    let shard = 2048.0;
    for topo in [generators::hypercube(3), generators::torus(&[3, 3])] {
        let sched = schedule_for(&topo);
        let jitter = Scenario::nominal().with_alpha_jitter(7, 1.5, 3.0);
        let sync_opts = |scenario: Scenario| EventSimOptions {
            model: ExecutionModel::Synchronized,
            scenario,
        };

        let nominal = simulate_chunked_event(
            &topo,
            &sched,
            shard,
            &params,
            &sync_opts(Scenario::nominal()),
        )
        .unwrap();
        let jittered =
            simulate_chunked_event(&topo, &sched, shard, &params, &sync_opts(jitter.clone()))
                .unwrap();
        let again =
            simulate_chunked_event(&topo, &sched, shard, &params, &sync_opts(jitter.clone()))
                .unwrap();
        assert_eq!(
            jittered.report.completion_seconds,
            again.report.completion_seconds,
            "{}: same seed must reproduce exactly",
            topo.name()
        );
        // Factors in [1.5, 3.0] stretch every step's α by at least 1.5x and at
        // most 3x; the bandwidth term is untouched.
        let steps = sched.num_steps() as f64;
        let extra = jittered.report.completion_seconds - nominal.report.completion_seconds;
        assert!(
            extra >= 0.5 * steps * params.step_sync_latency_s - 1e-12
                && extra <= 2.0 * steps * params.step_sync_latency_s + 1e-12,
            "{}: jitter added {extra}s over {steps} steps",
            topo.name()
        );

        // Backend equality must survive the jittered scenario.
        let a = simulate_chunked_schedule_with(&topo, &sched, shard, &params, &jitter).unwrap();
        let rel = (a.completion_seconds - jittered.report.completion_seconds).abs()
            / a.completion_seconds;
        assert!(
            rel < 1e-9,
            "{}: analytic {} vs event {} under jitter",
            topo.name(),
            a.completion_seconds,
            jittered.report.completion_seconds
        );

        // The dependency-driven model charges α per message: jitter must slow
        // it too, and a different seed draws a different execution.
        let dep_opts = |scenario: Scenario| EventSimOptions {
            model: ExecutionModel::DependencyDriven,
            scenario,
        };
        let dep_nominal = simulate_chunked_event(
            &topo,
            &sched,
            shard,
            &params,
            &dep_opts(Scenario::nominal()),
        )
        .unwrap();
        let dep_jittered =
            simulate_chunked_event(&topo, &sched, shard, &params, &dep_opts(jitter.clone()))
                .unwrap();
        assert!(
            dep_jittered.report.completion_seconds > dep_nominal.report.completion_seconds,
            "{}: dependency-driven jitter {} must exceed nominal {}",
            topo.name(),
            dep_jittered.report.completion_seconds,
            dep_nominal.report.completion_seconds
        );
        let other_seed = Scenario::nominal().with_alpha_jitter(8, 1.5, 3.0);
        let dep_other =
            simulate_chunked_event(&topo, &sched, shard, &params, &dep_opts(other_seed)).unwrap();
        assert_ne!(
            dep_jittered.report.completion_seconds,
            dep_other.report.completion_seconds,
            "{}: different jitter seeds should differ",
            topo.name()
        );
    }
}

/// tsMCF column generation feeds the same lowering and simulation pipeline as
/// the dense solver: colgen solutions are delivery-exact (no pruning pass), so
/// `from_tsmcf_exact` lowers them directly, the synchronized engine lands
/// within quantization tolerance of the LP-predicted bound, and both backends
/// agree on the result.
#[test]
fn tsmcf_colgen_schedules_execute_and_validate_like_dense() {
    use a2a_mcf::tscolgen::solve_tsmcf_colgen_auto;
    let params = SimParams::default();
    let shard = 64.0 * 1024.0 * 1024.0;
    for topo in families() {
        let cg = solve_tsmcf_colgen_auto(&topo).expect("colgen tsMCF solves");
        assert!(
            cg.stats.proved_optimal,
            "{}: colgen certificate missing",
            topo.name()
        );
        // Delivery-exact: no pruning pass before lowering.
        let sched = ChunkedSchedule::from_tsmcf_exact(&topo, &cg.solution, CHUNK_CAP)
            .expect("colgen solutions lower without pruning");
        assert!(sched.validate(&topo).is_empty());
        let predicted = cg.solution.predicted_completion_seconds(
            shard,
            params.link_bandwidth_gbps,
            params.step_sync_latency_s,
        );
        let simulated =
            simulate_chunked_event(&topo, &sched, shard, &params, &EventSimOptions::default())
                .unwrap();
        let ratio = simulated.report.completion_seconds / predicted;
        let (lo, hi) = a2a_simnet::SIM_VS_LP_AGREEMENT_WINDOW;
        assert!(
            (lo..=hi).contains(&ratio),
            "{}: simulated {} vs LP bound {predicted} (ratio {ratio:.4})",
            topo.name(),
            simulated.report.completion_seconds
        );
        // Cross-backend equality holds for colgen-lowered schedules too.
        let a = simulate_chunked_schedule_with(&topo, &sched, shard, &params, &Scenario::nominal())
            .unwrap();
        let rel = (a.completion_seconds - simulated.report.completion_seconds).abs()
            / a.completion_seconds;
        assert!(rel < 1e-9, "{}: analytic vs event mismatch", topo.name());
    }
}
