//! Closed-loop digital twin walkthrough: a link dies mid-run and the planner
//! repairs the schedule online.
//!
//! ```text
//! cargo run --release --example mid_run_failure
//! ```
//!
//! The static story (see `degraded_fabric.rs`) ends with "a failed link rejects
//! the schedule — re-solve on the punctured topology". This example closes the
//! loop in-flight instead:
//!
//! 1. solve the nominal all-to-all and start executing it;
//! 2. a timed event kills a schedule-carrying link mid-run
//!    ([`ScenarioTimeline`]) — the event engine interrupts with an
//!    [`InFlightSnapshot`]: where every chunk is, byte-exact;
//! 3. the replan driver turns the snapshot into residual demands on the
//!    punctured fabric, re-solves them by column generation *warm-started from
//!    the nominal solve's incumbent columns*, splices the repaired suffix onto
//!    the executed prefix, and resumes;
//! 4. the result is compared against the clairvoyant planner (one that knew
//!    the failure before the run started) and the never-failed nominal run.

use a2a_mcf::solve_tsmcf_colgen_auto;
use a2a_schedule::ChunkedSchedule;
use a2a_simnet::{
    replan_run, simulate_chunked_timeline, ExecutionModel, IncumbentPool, ReplanOptions, Scenario,
    ScenarioTimeline, SimParams, TimelineRun,
};
use a2a_topology::generators;

fn main() {
    let topo = generators::torus(&[3, 3]);
    let params = SimParams::gpu_testbed();
    let shard = 64.0 * 1024.0 * 1024.0; // 64 MiB per commodity

    // 1. Nominal plan: time-stepped MCF by column generation, quantized to
    // 8 chunks per shard. Keep the incumbent columns — they warm-start repairs.
    let cg = solve_tsmcf_colgen_auto(&topo).expect("nominal solve");
    let schedule = ChunkedSchedule::from_tsmcf_exact(&topo, &cg.solution, 8).expect("quantization");
    let pool = IncumbentPool {
        columns: cg.columns,
        commodities: cg.solution.commodities.clone(),
        steps: cg.solution.steps,
    };
    let nominal = match simulate_chunked_timeline(
        &topo,
        &schedule,
        shard,
        &params,
        &ScenarioTimeline::nominal(),
        ExecutionModel::Synchronized,
    )
    .expect("nominal run")
    {
        TimelineRun::Completed(r) => r.report.completion_seconds,
        TimelineRun::Interrupted(_) => unreachable!("no events"),
    };
    println!(
        "nominal: {} steps, completes in {:.3} ms",
        schedule.num_steps(),
        nominal * 1e3
    );

    // 2. The failure: the first link the schedule sends on dies at 70% of the
    // nominal makespan, stranding whatever was in flight on it.
    let tr = &schedule.steps[0].transfers[0];
    let edge = topo
        .find_edge(tr.from, tr.to)
        .expect("schedule-carrying link");
    let t_fail = 0.7 * nominal;
    let timeline = ScenarioTimeline::new(Scenario::nominal()).with_link_failure_at(t_fail, edge);
    println!(
        "failure: link {} -> {} dies at {:.3} ms (70% of the nominal makespan)",
        tr.from,
        tr.to,
        t_fail * 1e3
    );

    // 3. Close the loop: detect -> snapshot -> residual re-solve -> splice ->
    // resume. `replan_run` drives the whole cycle (and would keep going under
    // cascading failures, up to four repair attempts).
    let run = replan_run(
        &topo,
        &schedule,
        shard,
        &params,
        &timeline,
        Some(&pool),
        &ReplanOptions::default(),
    )
    .expect("replan completes");
    for (i, a) in run.attempts.iter().enumerate() {
        println!(
            "repair {}: {} residual demands at t = {:.3} ms, {} warm seeds from the \
             incumbent pool, residual LP solved in {:.1} ms ({} master iterations, \
             optimal: {}), spliced a {}-step suffix",
            i + 1,
            a.num_demands,
            a.failure_time * 1e3,
            a.warm_seeds,
            a.solve_wall_secs * 1e3,
            a.master_iterations,
            a.proved_optimal,
            a.suffix_steps
        );
    }
    let replanned = run.completion_seconds();

    // 4. The two reference points. Clairvoyant: re-solve the full all-to-all
    // on the punctured topology as if the failure had been known up front.
    let punctured = topo.without_edges(&run.attempts[0].failed_links);
    let clair = solve_tsmcf_colgen_auto(&punctured).expect("clairvoyant solve");
    let clair_schedule =
        ChunkedSchedule::from_tsmcf_exact(&punctured, &clair.solution, 8).expect("quantization");
    let clairvoyant = match simulate_chunked_timeline(
        &punctured,
        &clair_schedule,
        shard,
        &params,
        &ScenarioTimeline::nominal(),
        ExecutionModel::Synchronized,
    )
    .expect("clairvoyant run")
    {
        TimelineRun::Completed(r) => r.report.completion_seconds,
        TimelineRun::Interrupted(_) => unreachable!("no events"),
    };
    println!(
        "replanned: {:.3} ms | clairvoyant punctured re-solve: {:.3} ms | nominal: {:.3} ms",
        replanned * 1e3,
        clairvoyant * 1e3,
        nominal * 1e3
    );
    println!(
        "makespan loss: {:.1}% vs clairvoyant, {:.1}% vs the never-failed nominal — and \
         the warm residual solve cost {} master iterations where the clairvoyant's cold \
         solve cost {}",
        (replanned / clairvoyant - 1.0) * 100.0,
        (replanned / nominal - 1.0) * 100.0,
        run.attempts[0].master_iterations,
        clair.stats.total_master_iterations()
    );
}
