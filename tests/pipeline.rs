//! End-to-end integration tests spanning the whole workspace: topology generation →
//! MCF schedule synthesis → lowering → simulation, with cross-crate consistency checks
//! (simulated throughput never beats the analytic bound, schedules validate, the
//! decomposition preserves optimality, baselines never beat the optimum).

use std::time::Duration;

use a2a_baselines::{
    equal_weight_shortest_paths, naive_point_to_point, sssp_schedule, taccl_like_heuristic,
};
use a2a_core::{FabricSpec, GeneratedSchedule, LoweredArtifact, Toolchain};
use a2a_mcf::analysis::max_link_load_of_paths;
use a2a_mcf::tscolgen::solve_tsmcf_colgen_auto;
use a2a_mcf::{extract_widest_paths, solve_decomposed_mcf, solve_link_mcf, throughput_upper_bound};
use a2a_schedule::{lower_path_schedule, to_msccl_xml, ChunkedSchedule, LashVariant};
use a2a_simnet::{simulate_link_schedule, simulate_path_schedule, SimParams};
use a2a_topology::generators;

const LINK_GBPS: f64 = 3.125;

#[test]
fn ml_pipeline_end_to_end_on_the_gpu_testbed_topologies() {
    for topo in [
        generators::hypercube(2),
        generators::complete_bipartite(2, 2),
        generators::ring(4),
    ] {
        let fabric = FabricSpec::ml_accelerator(LINK_GBPS);
        let generated = Toolchain::generate(&topo, &fabric).unwrap();
        let lowered = Toolchain::lower(&topo, &generated).unwrap();
        match (&generated, &lowered) {
            (
                GeneratedSchedule::TimeStepped {
                    solution, topology, ..
                },
                LoweredArtifact::LinkPrograms {
                    chunked,
                    msccl_xml,
                    oneccl_xml,
                },
            ) => {
                assert!(solution.check_consistency(topology, 1e-6).is_empty());
                assert!(chunked.validate(topology).is_empty());
                assert!(msccl_xml.contains("<algo"));
                assert!(oneccl_xml.contains("<schedule"));
                // Simulated throughput can never exceed the analytic bound.
                let report = Toolchain::simulate(&topo, &generated, 1 << 26, &fabric);
                let bound = throughput_upper_bound(
                    topo.num_nodes(),
                    solution.effective_flow_value(),
                    LINK_GBPS,
                );
                assert!(
                    report.throughput_gbps <= bound * 1.001,
                    "{}: simulated {} exceeds bound {}",
                    topo.name(),
                    report.throughput_gbps,
                    bound
                );
            }
            _ => panic!("ML fabric must produce time-stepped link programs"),
        }
    }
}

#[test]
fn hpc_pipeline_end_to_end_on_expander_and_torus() {
    for topo in [
        generators::generalized_kautz(10, 3),
        generators::torus(&[3, 3]),
    ] {
        let fabric = FabricSpec::hpc_nic_forwarding(LINK_GBPS).with_host_injection(12.5);
        let generated = Toolchain::generate(&topo, &fabric).unwrap();
        let GeneratedSchedule::Routed { schedule, .. } = &generated else {
            panic!("HPC fabric must produce routed schedules");
        };
        assert!(schedule.check_consistency(&topo, 1e-6).is_empty());
        let lowered = Toolchain::lower(&topo, &generated).unwrap();
        let LoweredArtifact::Routes { table } = &lowered else {
            panic!("expected route tables");
        };
        assert!(table.validate().is_empty());
        assert!(
            table.num_layers <= 4,
            "LASH-sequential stays within 4 layers"
        );
        let report = Toolchain::simulate(&topo, &generated, 1 << 26, &fabric);
        assert!(report.throughput_gbps > 0.0);
    }
}

#[test]
fn decomposition_preserves_optimality_and_extraction_stays_close() {
    for topo in [
        generators::hypercube(3),
        generators::complete_bipartite(3, 3),
        generators::generalized_kautz(12, 3),
    ] {
        let original = solve_link_mcf(&topo).unwrap();
        let decomposed = solve_decomposed_mcf(&topo).unwrap();
        assert!(
            (original.flow_value - decomposed.solution.flow_value).abs() < 1e-5,
            "{}: decomposition changed F",
            topo.name()
        );
        let extracted = extract_widest_paths(&topo, &decomposed.solution).unwrap();
        assert!(
            extracted.flow_value >= 0.9 * original.flow_value,
            "{}: extraction lost too much ({} vs {})",
            topo.name(),
            extracted.flow_value,
            original.flow_value
        );
    }
}

#[test]
fn baselines_never_beat_the_mcf_optimum() {
    let topo = generators::generalized_kautz(12, 3);
    let optimal_time = 1.0 / solve_link_mcf(&topo).unwrap().flow_value;
    for (name, schedule) in [
        ("SSSP", sssp_schedule(&topo).unwrap()),
        ("EwSP", equal_weight_shortest_paths(&topo).unwrap()),
        ("naive", naive_point_to_point(&topo).unwrap()),
    ] {
        let time = max_link_load_of_paths(&topo, &schedule);
        assert!(
            time >= optimal_time - 1e-6,
            "{name} reported {time}, below the optimum {optimal_time}"
        );
    }
}

#[test]
fn link_and_path_simulations_agree_with_paper_ordering_at_small_buffers() {
    // Path-based schedules avoid per-step synchronization, so they must win at small
    // buffers (the Fig. 4 vs Fig. 3 comparison).
    let topo = generators::hypercube(3);
    let params = SimParams::default();
    let stepped = solve_tsmcf_colgen_auto(&topo).unwrap().solution;
    let routed =
        extract_widest_paths(&topo, &solve_decomposed_mcf(&topo).unwrap().solution).unwrap();
    let shard = 1024.0;
    let link = simulate_link_schedule(&topo, &stepped, shard, &params);
    let path = simulate_path_schedule(&topo, &routed, shard, &params);
    assert!(path.throughput_gbps > link.throughput_gbps);
}

#[test]
fn synthesized_schedules_lower_and_simulate_like_tsmcf_schedules() {
    let topo = generators::hypercube(2);
    let taccl = taccl_like_heuristic(&topo, Duration::from_secs(2))
        .unwrap()
        .schedule()
        .cloned()
        .unwrap();
    let chunked = ChunkedSchedule::from_tsmcf(&topo, &taccl, 64).unwrap();
    assert!(chunked.validate(&topo).is_empty());
    let xml = to_msccl_xml(&chunked, "taccl-like");
    assert!(xml.contains("<gpu id=\"3\""));
    let report = simulate_link_schedule(&topo, &taccl, (1u64 << 20) as f64, &SimParams::default());
    assert!(report.throughput_gbps > 0.0);
}

#[test]
fn route_lowering_is_deadlock_free_for_every_scheme() {
    let topo = generators::torus(&[3, 3]);
    let schedules = [
        sssp_schedule(&topo).unwrap(),
        equal_weight_shortest_paths(&topo).unwrap(),
        extract_widest_paths(&topo, &solve_decomposed_mcf(&topo).unwrap().solution).unwrap(),
    ];
    for schedule in &schedules {
        let table = lower_path_schedule(&topo, schedule, 8, LashVariant::Sequential);
        assert!(table.validate().is_empty());
        assert!(table.num_layers <= 4);
    }
}
