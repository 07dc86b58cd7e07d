//! DLRM-style embedding exchange on an 8-GPU direct-connect cluster.
//!
//! Deep-learning recommendation models shard their embedding tables across
//! accelerators and run an all-to-all every iteration to exchange embedding vectors —
//! one of the motivating workloads of the paper. This example compares the tsMCF
//! schedule against the TACCL-like synthesis stand-in on the 8-node twisted hypercube
//! testbed and shows where the 1.2–1.6x gap of Fig. 3 comes from.
//!
//! ```text
//! cargo run --release --example dlrm_embedding_exchange
//! ```

use std::time::Duration;

use a2a_baselines::taccl_like_heuristic;
use a2a_mcf::tscolgen::solve_tsmcf_colgen_auto;
use a2a_simnet::{shard_bytes_for_buffer, simulate_link_schedule, SimParams};
use a2a_topology::generators;

fn main() {
    let topo = generators::twisted_hypercube(3);
    let params = SimParams::gpu_testbed();
    println!(
        "embedding exchange on {} ({} GPUs, degree {})",
        topo.name(),
        topo.num_nodes(),
        topo.regular_degree().unwrap_or(0)
    );

    println!("generating tsMCF schedule...");
    let tsmcf = solve_tsmcf_colgen_auto(&topo).expect("tsMCF").solution;
    println!(
        "  {} steps, bottleneck utilization {:.3}",
        tsmcf.steps,
        tsmcf.total_utilization()
    );
    println!("generating TACCL-like schedule...");
    let taccl = taccl_like_heuristic(&topo, Duration::from_secs(5))
        .expect("TACCL-like")
        .schedule()
        .cloned()
        .expect("TACCL-like always completes");
    println!(
        "  {} steps, bottleneck utilization {:.3}",
        taccl.steps,
        taccl.total_utilization()
    );

    // A DLRM iteration exchanges per-GPU embedding batches from a few MB to hundreds
    // of MB depending on batch size and embedding dimension.
    println!(
        "\n{:>14} {:>14} {:>14} {:>9}",
        "buffer/GPU", "tsMCF GB/s", "TACCL GB/s", "speedup"
    );
    for shift in [20u32, 22, 24, 26, 28] {
        let buffer = (1u64 << shift) as f64;
        let shard = shard_bytes_for_buffer(buffer, topo.num_nodes());
        let a = simulate_link_schedule(&topo, &tsmcf, shard, &params);
        let b = simulate_link_schedule(&topo, &taccl, shard, &params);
        println!(
            "{:>12} MB {:>14.3} {:>14.3} {:>8.2}x",
            (buffer / (1 << 20) as f64).round(),
            a.throughput_gbps,
            b.throughput_gbps,
            a.throughput_gbps / b.throughput_gbps
        );
    }
}
