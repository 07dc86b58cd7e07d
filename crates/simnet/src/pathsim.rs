//! Flow-level cut-through execution of weighted path (route-based) schedules.
//!
//! All flows start simultaneously (as the OMPI/UCX interpreter posts all sends up
//! front); links are shared fairly, so the collective completes when the busiest link
//! has drained its total assigned bytes. Optional host-injection limits and queue-pair
//! contention reproduce the practical effects discussed in §5.2 and §5.5.

use a2a_mcf::PathSchedule;
use a2a_topology::Topology;

use crate::{SimParams, SimReport};

/// Simulates a weighted path schedule shipping one shard per commodity.
pub fn simulate_path_schedule(
    topo: &Topology,
    schedule: &PathSchedule,
    shard_bytes: f64,
    params: &SimParams,
) -> SimReport {
    let n = schedule.commodities.num_endpoints();
    let mut per_link_bytes = vec![0.0f64; topo.num_edges()];
    let mut per_link_flows = vec![0usize; topo.num_edges()];
    let mut max_hops = 0usize;
    for (idx, _, _) in schedule.commodities.iter() {
        for (path, weight) in &schedule.paths[idx] {
            max_hops = max_hops.max(path.hops());
            for (u, v) in path.links() {
                let e = topo
                    .find_edge(u, v)
                    .expect("schedule paths use fabric links");
                per_link_bytes[e] += weight * shard_bytes;
                per_link_flows[e] += 1;
            }
        }
    }

    // Busiest-link drain time, with optional QP contention shrinking effective
    // bandwidth on links carrying many concurrent flows.
    let mut link_time = 0.0f64;
    for (e, &bytes) in per_link_bytes.iter().enumerate() {
        if bytes <= 0.0 {
            continue;
        }
        let mut bandwidth = params.link_bandwidth_gbps * 1e9 * topo.edge(e).capacity;
        if let Some(qp) = params.qp_contention {
            bandwidth *= qp.bandwidth_factor(per_link_flows[e]);
        }
        link_time = link_time.max(bytes / bandwidth);
    }

    // Host injection / ejection: every endpoint sources and sinks (N - 1) shards.
    let injection_time = params
        .host_injection_gbps
        .map(|bw| (n.saturating_sub(1)) as f64 * shard_bytes / (bw * 1e9))
        .unwrap_or(0.0);

    let completion = link_time.max(injection_time) + max_hops as f64 * params.per_hop_latency_s;
    SimReport::new(n, shard_bytes, completion)
}

#[cfg(test)]
mod tests {
    use super::*;
    use a2a_baselines::{naive_point_to_point, sssp_schedule};
    use a2a_mcf::pmcf::{solve_path_mcf, PathSetKind};
    use a2a_mcf::{extract_widest_paths, solve_decomposed_mcf, throughput_upper_bound};
    use a2a_topology::generators;

    #[test]
    fn pmcf_hits_the_throughput_upper_bound_at_large_buffers() {
        let topo = generators::hypercube(3);
        let sched = solve_path_mcf(&topo, PathSetKind::EdgeDisjoint).unwrap();
        let params = SimParams::default();
        let report = simulate_path_schedule(&topo, &sched, 256.0 * 1024.0 * 1024.0, &params);
        let bound = throughput_upper_bound(8, 0.25, params.link_bandwidth_gbps);
        assert!(report.throughput_gbps <= bound * 1.001);
        assert!(report.throughput_gbps > 0.95 * bound);
    }

    #[test]
    fn cut_through_beats_store_and_forward_at_small_buffers() {
        // Fig. 4 observation: path-based schedules win at small buffers because they
        // avoid the per-step synchronization of tsMCF.
        let topo = generators::hypercube(3);
        let routed = solve_path_mcf(&topo, PathSetKind::EdgeDisjoint).unwrap();
        let stepped = a2a_mcf::tscolgen::solve_tsmcf_colgen_auto(&topo)
            .unwrap()
            .solution;
        let params = SimParams::default();
        let shard = 2048.0;
        let fast = simulate_path_schedule(&topo, &routed, shard, &params);
        let slow = crate::linksim::simulate_link_schedule(&topo, &stepped, shard, &params);
        assert!(fast.throughput_gbps > slow.throughput_gbps);
    }

    #[test]
    fn mcf_extract_beats_naive_on_bipartite() {
        // Fig. 4 (left): MCF-extP outperforms the NCCL/OMPI native baseline by a wide
        // margin on the complete bipartite topology.
        let topo = generators::complete_bipartite(4, 4);
        let mcf =
            extract_widest_paths(&topo, &solve_decomposed_mcf(&topo).unwrap().solution).unwrap();
        let naive = naive_point_to_point(&topo).unwrap();
        let params = SimParams::default();
        let shard = 64.0 * 1024.0 * 1024.0;
        let a = simulate_path_schedule(&topo, &mcf, shard, &params);
        let b = simulate_path_schedule(&topo, &naive, shard, &params);
        assert!(
            a.throughput_gbps > 1.3 * b.throughput_gbps,
            "MCF-extP {} vs naive {}",
            a.throughput_gbps,
            b.throughput_gbps
        );
    }

    #[test]
    fn host_injection_caps_throughput() {
        let topo = generators::torus(&[3, 3]);
        let sched = sssp_schedule(&topo).unwrap();
        let shard = 32.0 * 1024.0 * 1024.0;
        let unlimited = simulate_path_schedule(&topo, &sched, shard, &SimParams::default());
        let capped_params = SimParams {
            host_injection_gbps: Some(0.5),
            ..SimParams::default()
        };
        let capped = simulate_path_schedule(&topo, &sched, shard, &capped_params);
        assert!(capped.throughput_gbps < unlimited.throughput_gbps);
        // With a 0.5 GB/s injection cap the throughput cannot exceed (N-1)m / ((N-1)m/0.5) = 0.5.
        assert!(capped.throughput_gbps <= 0.5 + 1e-9);
    }

    #[test]
    fn qp_contention_slows_chunk_heavy_schedules() {
        let topo = generators::torus(&[3, 3]);
        let sched =
            extract_widest_paths(&topo, &solve_decomposed_mcf(&topo).unwrap().solution).unwrap();
        let shard = 32.0 * 1024.0 * 1024.0;
        let clean = simulate_path_schedule(&topo, &sched, shard, &SimParams::default());
        let contended_params = SimParams {
            qp_contention: Some(crate::QpContention {
                free_flows_per_link: 1,
                penalty_per_flow: 0.2,
            }),
            ..SimParams::default()
        };
        let contended = simulate_path_schedule(&topo, &sched, shard, &contended_params);
        assert!(contended.throughput_gbps < clean.throughput_gbps);
    }
}
