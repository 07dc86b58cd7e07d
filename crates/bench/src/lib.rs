//! Shared support code for the figure-regeneration binaries (`fig3` … `fig10`) and the
//! Criterion micro-benchmarks.
//!
//! Every binary prints a CSV table with the columns
//! `figure,topology,series,x,y` so the paper's plots can be regenerated directly from
//! the output. Binaries accept `--large` to extend the sweep towards the paper's full
//! scale (the defaults are sized for a single-core CI run).
//!
//! This crate measures nothing a claim can rest on: performance numbers come from the
//! repo benchmark (`BENCHMARK.json`, `benchmark/`), the benches under `benches/` time
//! single layers, and `HISTORY.md` keeps the PR 1–9 trail of the harness that used to
//! live here.

use a2a_mcf::tsmcf::TsMcfSolution;
use a2a_mcf::PathSchedule;
use a2a_simnet::{simulate_link_schedule, simulate_path_schedule, SimParams};
use a2a_topology::Topology;

/// Link bandwidth of the paper's testbeds: 25 Gbps = 3.125 GB/s.
pub const LINK_BANDWIDTH_GBPS: f64 = 3.125;

/// Prints the CSV header shared by all figure binaries.
pub fn print_header() {
    println!("figure,topology,series,x,y");
}

/// Prints one CSV data row.
pub fn emit(figure: &str, topology: &str, series: &str, x: f64, y: f64) {
    println!("{figure},{topology},{series},{x},{y}");
}

/// True if `--large` was passed on the command line.
pub fn large_mode() -> bool {
    std::env::args().any(|a| a == "--large")
}

/// The buffer-size sweep (total per-node buffer in bytes) used by Figs. 3–5.
pub fn buffer_sweep(large: bool) -> Vec<f64> {
    let exponents: &[u32] = if large {
        &[13, 15, 17, 19, 21, 23, 25, 27, 28]
    } else {
        &[13, 16, 19, 22, 25, 28]
    };
    exponents.iter().map(|&e| (1u64 << e) as f64).collect()
}

/// Default simulator parameters for the GPU-style testbed.
pub fn gpu_params() -> SimParams {
    SimParams {
        link_bandwidth_gbps: LINK_BANDWIDTH_GBPS,
        ..SimParams::gpu_testbed()
    }
}

/// Default simulator parameters for the TACC-style CPU cluster.
pub fn tacc_params() -> SimParams {
    SimParams {
        link_bandwidth_gbps: LINK_BANDWIDTH_GBPS,
        ..SimParams::tacc_cluster()
    }
}

/// Sweeps a link-based (time-stepped) schedule over buffer sizes, emitting throughput
/// rows in GB/s.
pub fn sweep_link_schedule(
    figure: &str,
    topo: &Topology,
    series: &str,
    schedule: &TsMcfSolution,
    params: &SimParams,
    large: bool,
) {
    for buffer in buffer_sweep(large) {
        let shard =
            a2a_simnet::shard_bytes_for_buffer(buffer, schedule.commodities.num_endpoints());
        let report = simulate_link_schedule(topo, schedule, shard, params);
        emit(figure, topo.name(), series, buffer, report.throughput_gbps);
    }
}

/// Sweeps a path-based schedule over buffer sizes, emitting throughput rows in GB/s.
pub fn sweep_path_schedule(
    figure: &str,
    topo: &Topology,
    series: &str,
    schedule: &PathSchedule,
    params: &SimParams,
    large: bool,
) {
    for buffer in buffer_sweep(large) {
        let shard =
            a2a_simnet::shard_bytes_for_buffer(buffer, schedule.commodities.num_endpoints());
        let report = simulate_path_schedule(topo, schedule, shard, params);
        emit(figure, topo.name(), series, buffer, report.throughput_gbps);
    }
}

/// Emits the analytic throughput upper bound `(N-1)·F·b` as a constant series over the
/// buffer sweep.
pub fn sweep_upper_bound(
    figure: &str,
    topo: &Topology,
    num_endpoints: usize,
    flow_value: f64,
    large: bool,
) {
    let bound = a2a_mcf::throughput_upper_bound(num_endpoints, flow_value, LINK_BANDWIDTH_GBPS);
    for buffer in buffer_sweep(large) {
        emit(figure, topo.name(), "upper-bound", buffer, bound);
    }
}

/// The three 8-node testbed topologies of Figs. 3–4 (left/middle panels).
pub fn small_testbed_topologies() -> Vec<Topology> {
    vec![
        a2a_topology::generators::complete_bipartite(4, 4),
        a2a_topology::generators::hypercube(3),
        a2a_topology::generators::twisted_hypercube(3),
    ]
}

/// The torus used for the right-hand panels: the paper's 3x3x3 at `--large`, a 2x2x3
/// torus otherwise (same family, single-core-friendly size).
pub fn torus_testbed(large: bool) -> (Topology, Vec<usize>) {
    if large {
        (a2a_topology::generators::torus(&[3, 3, 3]), vec![3, 3, 3])
    } else {
        (a2a_topology::generators::torus(&[2, 2, 3]), vec![2, 2, 3])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffer_sweep_is_monotone() {
        for large in [false, true] {
            let sweep = buffer_sweep(large);
            assert!(sweep.windows(2).all(|w| w[0] < w[1]));
            assert!(sweep[0] >= 8192.0);
        }
    }

    #[test]
    fn testbed_topologies_match_paper_shapes() {
        let topos = small_testbed_topologies();
        assert_eq!(topos.len(), 3);
        assert!(topos.iter().all(|t| t.num_nodes() == 8));
        let (torus, dims) = torus_testbed(true);
        assert_eq!(torus.num_nodes(), 27);
        assert_eq!(dims, vec![3, 3, 3]);
        let (torus, _) = torus_testbed(false);
        assert_eq!(torus.num_nodes(), 12);
    }

    #[test]
    fn params_use_cerio_link_bandwidth() {
        assert_eq!(gpu_params().link_bandwidth_gbps, 3.125);
        assert_eq!(tacc_params().link_bandwidth_gbps, 3.125);
        assert!(tacc_params().host_injection_gbps.is_some());
    }
}
