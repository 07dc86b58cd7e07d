//! Degraded-fabric walkthrough: solve, lower, and *execute* an all-to-all schedule
//! under contention, heterogeneous links, slowdowns and failures.
//!
//! ```text
//! cargo run --release --example degraded_fabric
//! ```
//!
//! The discrete-event engine makes the LP story falsifiable end-to-end: the tsMCF
//! solution predicts a completion time, the simulator executes the chunked schedule
//! and reports what congestion and degradations actually do to it, and a failed link
//! shows why re-solving on the punctured topology matters.

use a2a_mcf::tscolgen::solve_tsmcf_colgen_auto;
use a2a_schedule::ChunkedSchedule;
use a2a_simnet::{simulate_chunked_event, EventSimOptions, ExecutionModel, Scenario, SimParams};
use a2a_topology::generators;

fn main() {
    let topo = generators::torus(&[3, 3]);
    let params = SimParams::gpu_testbed();
    let shard = 8.0 * 1024.0 * 1024.0; // 8 MiB per commodity
    println!(
        "fabric: {} ({} nodes, {} links, {} GB/s each)",
        topo.name(),
        topo.num_nodes(),
        topo.num_edges(),
        params.link_bandwidth_gbps
    );

    // 1. Solve and lower.
    // Lowering and prediction both derive from the pruned solution — the flow the
    // lowered schedule actually executes.
    let solution = solve_tsmcf_colgen_auto(&topo)
        .expect("tsMCF solve")
        .solution
        .pruned(&topo);
    let schedule =
        ChunkedSchedule::from_tsmcf_exact(&topo, &solution, 128).expect("chunk lowering");
    let predicted = solution.predicted_completion_seconds(
        shard,
        params.link_bandwidth_gbps,
        params.step_sync_latency_s,
    );
    println!(
        "schedule: {} steps, {} transfers, {} chunks/shard",
        schedule.num_steps(),
        schedule.total_transfers(),
        schedule.chunks_per_shard
    );
    println!("LP-predicted completion: {:.3} ms", predicted * 1e3);

    // 2. Execute under the nominal fabric, both execution models.
    let run = |label: &str, options: &EventSimOptions| match simulate_chunked_event(
        &topo, &schedule, shard, &params, options,
    ) {
        Ok(r) => println!(
            "  {label:<28} {:8.3} ms  ({:.2} GB/s, peak link util {:.0}%)",
            r.report.completion_seconds * 1e3,
            r.report.throughput_gbps,
            r.peak_link_utilization() * 100.0
        ),
        Err(e) => println!("  {label:<28} FAILS: {e}"),
    };
    println!("nominal fabric:");
    run("synchronized (barrier)", &EventSimOptions::default());
    run(
        "dependency-driven (async)",
        &EventSimOptions {
            model: ExecutionModel::DependencyDriven,
            ..EventSimOptions::default()
        },
    );

    // 3. Degradations: a heterogeneous slow link, then a straggler node.
    let slow_link = 0; // first directed link of the torus
    println!("one link at quarter speed:");
    run(
        "synchronized (barrier)",
        &EventSimOptions {
            scenario: Scenario::nominal().with_link_slowdown(slow_link, 0.25),
            ..EventSimOptions::default()
        },
    );
    println!("node 4 straggling at 30%:");
    run(
        "synchronized (barrier)",
        &EventSimOptions {
            scenario: Scenario::nominal().with_straggler(4, 0.3),
            ..EventSimOptions::default()
        },
    );

    // 4. A failed link breaks the stale schedule...
    let failed = Scenario::nominal().with_failed_link(slow_link);
    println!("failed link, stale schedule:");
    run(
        "synchronized (barrier)",
        &EventSimOptions {
            scenario: failed.clone(),
            ..EventSimOptions::default()
        },
    );

    // ...so re-solve on the punctured topology and execute the rerouted schedule
    // under the same failure.
    let punctured = topo.without_edges(&[slow_link]);
    let rerouted_sol = solve_tsmcf_colgen_auto(&punctured)
        .expect("re-solve on punctured fabric")
        .solution
        .pruned(&punctured);
    let rerouted =
        ChunkedSchedule::from_tsmcf_exact(&punctured, &rerouted_sol, 128).expect("relowering");
    println!("failed link, rerouted schedule:");
    match simulate_chunked_event(
        &topo,
        &rerouted,
        shard,
        &params,
        &EventSimOptions {
            scenario: failed,
            ..EventSimOptions::default()
        },
    ) {
        Ok(r) => println!(
            "  {:<28} {:8.3} ms  ({:.2} GB/s)",
            "synchronized (barrier)",
            r.report.completion_seconds * 1e3,
            r.report.throughput_gbps
        ),
        Err(e) => println!("  rerouted schedule FAILS: {e}"),
    }
}
