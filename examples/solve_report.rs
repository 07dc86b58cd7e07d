//! Produce a structured SolveReport from a column-generation solve.
//!
//! ```text
//! cargo run --release --example solve_report
//! ```
//!
//! Runs the torus-4x4 all-to-all through path-MCF column generation with span
//! tracing enabled and the stall watchdog armed, then builds the
//! machine-readable [`a2a_obs::SolveReport`] — per-round convergence
//! trajectory (objective, dual violation, columns added/purged, misprices,
//! master/pricing walls), nonzero counters, per-stage wall breakdown, and
//! latency histogram summaries — and writes it to `solve_report.json` (the
//! `a2a.solve_report.v1` schema documented in `a2a_obs::report`). A few
//! derived views are printed: the convergence table, the top stages, and the
//! iteration-time percentiles, so the walkthrough doubles as a guide to
//! reading the JSON.

use a2a_mcf::pmcf::{solve_path_mcf_colgen_among, ColGenOptions};
use a2a_mcf::{CommoditySet, Stabilization};
use a2a_topology::generators;
use std::time::Instant;

fn main() {
    // Instrumentation is opt-in: tracing fills the stage breakdown and
    // histograms, the watchdog fills `watchdog_trips` (0 on a healthy solve).
    a2a_obs::enable();
    a2a_obs::watchdog::configure(Some(a2a_obs::WatchdogConfig::default()));

    let topo = generators::torus(&[4, 4]);
    let commodities = CommoditySet::all_pairs(topo.num_nodes());
    let opts = ColGenOptions {
        partial_pricing: Some(1e-1),
        stabilization: Stabilization::Smoothing { alpha: 0.1 },
        ..ColGenOptions::default()
    };
    let start = Instant::now();
    let solved = solve_path_mcf_colgen_among(&topo, commodities, &opts).expect("colgen solve");
    let wall = start.elapsed().as_secs_f64();

    a2a_obs::disable();
    a2a_obs::watchdog::configure(None);
    let summary = a2a_obs::summary::summarize(&a2a_obs::flush());

    // The adapter maps ColGenStats onto the report schema; attach_summary
    // adds the trace-derived sections.
    let mut report = a2a_mcf::report::colgen_solve_report(
        "path-mcf",
        "torus-4x4",
        "colgen",
        wall,
        solved.schedule.flow_value,
        &solved.stats,
    );
    report.attach_summary(&summary);

    std::fs::write("solve_report.json", report.to_json()).expect("write solve_report.json");
    println!(
        "solved torus-4x4 all-to-all: F = {:.6} in {wall:.3}s, optimal = {:?}, \
         watchdog trips = {}",
        report.objective, report.proved_optimal, report.watchdog_trips
    );

    println!("\nconvergence ({} rounds):", report.convergence.len());
    println!("  round    objective  viol       +cols  misprice  master_iters");
    for r in &report.convergence {
        println!(
            "  {:>5}  {:>11.6}  {:<9.3e} {:>5}  {:<8}  {:>12}",
            r.round,
            r.objective,
            r.dual_violation,
            r.columns_added,
            r.misprice,
            r.master_iterations
        );
    }

    println!("\ntop stages by wall:");
    let mut stages = report.stage_breakdown.clone();
    stages.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite walls"));
    for (name, secs) in stages.iter().take(5) {
        println!("  {name:<24} {secs:.6}s");
    }

    println!("\nlatency histograms:");
    for h in &report.histograms {
        println!(
            "  {:<24} n={:<6} p50={} p90={} p99={} max={}",
            h.name, h.count, h.p50, h.p90, h.p99, h.max
        );
    }
    println!("\nwrote solve_report.json (schema a2a.solve_report.v1)");
}
