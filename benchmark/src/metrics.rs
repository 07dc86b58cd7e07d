//! The names the benchmark reports, with their units. `BENCHMARK.json` lists the
//! same sets; `tests/smoke.rs` holds the two equal.

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 5] = [
    "extp-torus8x8",
    "pmcf-genkautz",
    "tsmcf-torus3x3x3",
    "replan-torus3x3x3",
    "simsweep-torus3x3x3",
];

/// End-to-end metrics `(name, unit)`, printed by an untraced run. The issue's
/// fifth, `fail_share`, is the `failed / attempted` pair of the result line: it
/// is 0 on a healthy run, and `BENCHMARK.json` may only list metrics that are
/// never 0.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("pipeline_wall_s", "s"),
    ("sim_efficiency", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics `(name, unit)`, printed by a traced run. A metric whose
/// layer call a workload never makes reads 0 there.
pub const PER_LAYER: [(&str, &str); 61] = [
    // topology
    ("topology.build_s", "s"),
    ("topology.nodes", "count"),
    ("topology.edges", "count"),
    // lp: all read in the traced rep from the spans, counters and histogram
    // a2a_lp already records.
    ("lp.iterations", "count"),
    ("lp.dual_iterations", "count"),
    ("lp.refactorizations", "count"),
    ("lp.degenerate_pivot_share", "ratio"),
    ("lp.ft_update_reject_share", "ratio"),
    ("lp.primal_s", "s"),
    ("lp.dual_s", "s"),
    ("lp.lu_factor_s", "s"),
    ("lp.lu_ftran_s", "s"),
    ("lp.lu_btran_s", "s"),
    ("lp.lu_ft_update_s", "s"),
    ("lp.unattributed_s", "s"),
    ("lp.iter_p50_us", "us"),
    ("lp.iter_p99_us", "us"),
    // mcf
    ("mcf.decomposed_s", "s"),
    ("mcf.decomposed_master_s", "s"),
    ("mcf.decomposed_children_s", "s"),
    ("mcf.extract_s", "s"),
    ("mcf.pmcf_n32_s", "s"),
    ("mcf.pmcf_n40_s", "s"),
    ("mcf.pmcf_n48_s", "s"),
    ("mcf.tscolgen_s", "s"),
    ("mcf.prune_s", "s"),
    ("mcf.residual_s", "s"),
    ("mcf.clairvoyant_s", "s"),
    ("mcf.residual_vs_cold_iters", "ratio"),
    ("mcf.colgen_master_s", "s"),
    ("mcf.colgen_pricing_s", "s"),
    ("mcf.colgen_rounds", "count"),
    ("mcf.colgen_columns", "count"),
    ("mcf.colgen_columns_purged", "count"),
    ("mcf.colgen_sources_skipped", "count"),
    ("mcf.colgen_misprice_share", "ratio"),
    // schedule
    ("schedule.route_lower_s", "s"),
    ("schedule.route_validate_s", "s"),
    ("schedule.routes", "count"),
    ("schedule.vc_layers", "count"),
    ("schedule.chunk_lower_s", "s"),
    ("schedule.chunk_validate_s", "s"),
    ("schedule.xml_s", "s"),
    ("schedule.xml_bytes", "bytes"),
    ("schedule.dag_s", "s"),
    ("schedule.transfers", "count"),
    ("schedule.splice_s", "s"),
    // simnet
    ("simnet.pathsim_s", "s"),
    ("simnet.event_sync_s", "s"),
    ("simnet.event_dep_s", "s"),
    ("simnet.timeline_s", "s"),
    ("simnet.replan_loop_s", "s"),
    ("simnet.sim_vs_lp_sync", "ratio"),
    ("simnet.sim_vs_lp_dep", "ratio"),
    ("simnet.replan_vs_clairvoyant", "ratio"),
    ("simnet.fair_share_recomputes", "count"),
    // obs and the benchmark's own bookkeeping
    ("obs.overhead_ratio", "ratio"),
    ("obs.events", "count"),
    ("obs.dropped_events", "count"),
    ("bench.unattributed_s", "s"),
    ("proc.cpu_s", "s"),
];
