//! Figure 3: throughput of link-based all-to-all schedules vs buffer size.
//!
//! Series per topology: analytic upper bound, tsMCF, the TACCL-like stand-in and the
//! SCCL-like stand-in (omitted when it times out, which is the expected behaviour
//! beyond tiny scales). Default topologies are the three 8-node testbeds; `--large`
//! adds the host-bottlenecked 3x3x3 torus panel (expensive: it solves tsMCF on the
//! 81-vertex augmented graph).

use std::time::Duration;

use a2a_baselines::{sccl_like_search, taccl_like_heuristic};
use a2a_bench::*;
use a2a_mcf::tscolgen::{solve_tsmcf_colgen_among_with, solve_tsmcf_colgen_auto};
use a2a_mcf::tsmcf::minimum_steps;
use a2a_mcf::{ColGenOptions, CommoditySet};
use a2a_topology::transform::HostNicAugmented;

fn main() {
    let large = large_mode();
    print_header();
    let params = gpu_params();

    for topo in small_testbed_topologies() {
        let tsmcf = solve_tsmcf_colgen_auto(&topo)
            .expect("tsMCF on the testbed topologies")
            .solution;
        sweep_upper_bound(
            "fig3",
            &topo,
            topo.num_nodes(),
            tsmcf.effective_flow_value(),
            large,
        );
        sweep_link_schedule("fig3", &topo, "tsMCF/G", &tsmcf, &params, large);

        let taccl = taccl_like_heuristic(&topo, Duration::from_secs(5))
            .expect("TACCL-like always completes")
            .schedule()
            .cloned()
            .expect("TACCL-like always completes");
        sweep_link_schedule("fig3", &topo, "TACCL/G", &taccl, &params, large);

        match sccl_like_search(&topo, Duration::from_secs(if large { 60 } else { 10 })) {
            Ok(outcome) => match outcome.schedule() {
                Some(schedule) => {
                    sweep_link_schedule("fig3", &topo, "SCCL/G", schedule, &params, large)
                }
                None => eprintln!(
                    "# SCCL-like timed out on {} after {:?} (expected beyond tiny scales)",
                    topo.name(),
                    outcome.elapsed()
                ),
            },
            Err(e) => eprintln!("# SCCL-like failed on {}: {e}", topo.name()),
        }
    }

    if large {
        // Right panel: 27-node torus with the host-to-NIC bottleneck model (Fig. 2).
        let (torus, _) = torus_testbed(true);
        let host_links = 4.0; // 100 Gbps host / 25 Gbps links
        let aug = HostNicAugmented::build(&torus, host_links);
        let commodities = CommoditySet::among(aug.hosts.clone());
        let steps = minimum_steps(&aug.graph, &commodities).expect("augmented torus is connected");
        let tsmcf = solve_tsmcf_colgen_among_with(
            &aug.graph,
            commodities,
            steps,
            &ColGenOptions::stabilized(),
        )
        .expect("bottlenecked tsMCF on the torus")
        .solution;
        sweep_upper_bound(
            "fig3",
            &torus,
            torus.num_nodes(),
            tsmcf.effective_flow_value(),
            large,
        );
        sweep_link_schedule("fig3", &aug.graph, "tsMCF/C", &tsmcf, &params, large);
        let taccl = taccl_like_heuristic(&torus, Duration::from_secs(30))
            .expect("TACCL-like always completes")
            .schedule()
            .cloned()
            .expect("TACCL-like always completes");
        sweep_link_schedule("fig3", &torus, "TACCL/C", &taccl, &params, large);
    } else {
        eprintln!("# fig3: pass --large for the host-bottlenecked 3x3x3 torus panel");
    }
}
