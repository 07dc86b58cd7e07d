//! Trace a decomposed MCF solve and export a Chrome trace.
//!
//! ```text
//! cargo run --release --example trace_solve
//! ```
//!
//! Enables the `a2a_obs` span tracer, runs the torus-4x4 all-to-all through
//! the decomposed-MCF pipeline (structural crash basis + dual simplex master,
//! warm-started children — the production configuration), and writes
//! `trace.json`: a Chrome trace-event file you can open in `chrome://tracing`
//! or <https://ui.perfetto.dev>. The torus is one orbit under its
//! automorphisms, so the trace shows one `decomposed.symmetry` search, the
//! one-source master and a single `decomposed.child` (the other fifteen
//! sources' flows are mapped from it, with no LP), with the LU factorizations
//! and Forrest–Tomlin updates nested inside; the simplex iteration counters
//! ride along as counter tracks.
//! The in-process summary tree — span totals, counters and histogram
//! percentiles, the aggregation the repo benchmark reads its per-layer metrics
//! from — is printed to stdout.

use a2a_mcf::decomposed::{solve_decomposed_mcf_with, DecomposedOptions};
use a2a_mcf::CommoditySet;
use a2a_topology::generators;

fn main() {
    // Tracing is off by default everywhere (a disabled span costs one branch
    // on a relaxed atomic load); opt in for the region worth watching.
    a2a_obs::enable();

    let topo = generators::torus(&[4, 4]);
    let commodities = CommoditySet::all_pairs(topo.num_nodes());
    let solved = solve_decomposed_mcf_with(&topo, commodities, &DecomposedOptions::default())
        .expect("decomposed solve");

    a2a_obs::disable();
    let data = a2a_obs::flush();

    let path = "trace.json";
    let trace = a2a_obs::chrome::chrome_trace_string(&data);
    std::fs::write(path, &trace).expect("write trace.json");
    let check = a2a_obs::chrome::validate_chrome_trace(&trace).expect("trace validates");

    println!(
        "solved torus-4x4 all-to-all: F = {:.6}, {} simplex iterations",
        solved.solution.flow_value,
        solved.timings.total_iterations()
    );
    println!(
        "wrote {path}: {} events, {} complete spans, max depth {} — open it in \
         chrome://tracing or https://ui.perfetto.dev",
        check.total_events, check.complete_spans, check.max_depth
    );

    let summary = a2a_obs::summary::summarize(&data);
    assert!(summary.is_balanced(), "all spans must close");
    println!("\n{}", summary.render());
}
