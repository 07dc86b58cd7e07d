//! # a2a-simnet
//!
//! Network simulator standing in for the paper's two testbeds (§5.1): the 8-node
//! A100/Telescent patch-panel cluster (MSCCL runtime, store-and-forward) and the
//! 27-node TACC torus on the Cerio fabric (OMPI/UCX runtime, cut-through source
//! routing). Schedules execute under an α–β cost model. The backends are plain
//! functions over `(topology, schedule, shard size, SimParams)` plus their own
//! options — [`simulate_chunked_event`], [`simulate_chunked_schedule_with`],
//! [`simulate_path_schedule`] — in three modules:
//!
//! * [`event`] — the **discrete-event flow-level engine**: chunk transfers drain as
//!   fluid flows under per-link max-min fair sharing (folding in the optional
//!   [`QpContention`] factor and host-injection caps), either step-synchronized or
//!   data-dependency-driven (a chunk departs only after its inbound copy lands, per
//!   the [`a2a_schedule::TransferDag`]). Supports degradation [`Scenario`]s — per-link
//!   slowdowns (seeded or explicit), failures, straggler nodes, α jitter — and
//!   reports per-link utilization and per-step completion times next to the headline
//!   [`SimReport`].
//! * [`linksim`] — the closed-form **analytic model** of synchronized
//!   store-and-forward execution: each step lasts as long as its busiest link plus a
//!   synchronization α. The event engine in synchronized mode reproduces it exactly
//!   on nominal fabrics, which is the cross-check pinning both backends to the
//!   LP-predicted bound ([`a2a_mcf::tsmcf::TsMcfSolution::predicted_completion_seconds`]).
//! * [`pathsim`] — flow-level cut-through execution of weighted path schedules: the
//!   collective finishes when the busiest link has drained, subject to optional
//!   host-injection limits and the queue-pair contention penalty (§5.5).
//!
//! The simulator doubles as a **closed-loop digital twin**: [`scenario::ScenarioTimeline`]
//! injects timed mid-run failures/degradations, [`event::simulate_chunked_timeline`]
//! returns an [`InFlightSnapshot`] instead of an error when a failure strands
//! in-flight work, and [`replan`] closes the loop — residual re-solve on the
//! punctured fabric (warm-started from the incumbent column pool), splice onto
//! the executed prefix, resume; greedy shortest-path fallback under a solve-time
//! deadline.
//!
//! All backends report the paper's throughput metric `(N - 1) · m / T` so the figure
//! harnesses can sweep buffer sizes exactly like Figs. 3–5. Units everywhere: bytes,
//! seconds, GB/s (1 GB/s = 1e9 bytes/s).

pub mod event;
mod fair_share;
pub mod linksim;
pub mod pathsim;
pub mod replan;
pub mod scenario;

pub use event::{
    simulate_chunked_event, simulate_chunked_timeline, ChunkHolding, EventReport, EventSimOptions,
    ExecutionModel, InFlightSnapshot, LinkUsage, SimError, SimResult, TimelineRun,
};
pub use linksim::{
    simulate_chunked_schedule, simulate_chunked_schedule_with, simulate_link_schedule,
};
pub use pathsim::simulate_path_schedule;
pub use replan::{replan_run, IncumbentPool, ReplanAttempt, ReplanError, ReplanOptions, ReplanRun};
pub use scenario::{Scenario, ScenarioTimeline};

/// Cost-model parameters of the simulated fabric.
///
/// Two presets mirror the paper's testbeds: [`SimParams::gpu_testbed`] and
/// [`SimParams::tacc_cluster`].
#[derive(Debug, Clone)]
pub struct SimParams {
    /// Per-link bandwidth in GB/s for a capacity-1.0 link (the paper's Cerio links are
    /// 25 Gbps = 3.125 GB/s). A link of capacity `c` runs at `c` times this rate.
    pub link_bandwidth_gbps: f64,
    /// Synchronization latency added to every communication step of a store-and-forward
    /// schedule, in seconds — the α of the synchronized execution model.
    pub step_sync_latency_s: f64,
    /// Per-hop latency of cut-through / asynchronous forwarding, in seconds — the α of
    /// the dependency-driven execution model (charged per transfer).
    pub per_hop_latency_s: f64,
    /// Host injection/ejection bandwidth in GB/s, if it is a potential bottleneck
    /// (100 Gbps = 12.5 GB/s on the paper's hosts). `None` disables the cap.
    pub host_injection_gbps: Option<f64>,
    /// Optional queue-pair contention model: links carrying many concurrent flows lose
    /// effective bandwidth (§5.5). `None` disables the penalty.
    pub qp_contention: Option<QpContention>,
}

impl Default for SimParams {
    fn default() -> Self {
        Self {
            link_bandwidth_gbps: 3.125,
            step_sync_latency_s: 30e-6,
            per_hop_latency_s: 2e-6,
            host_injection_gbps: None,
            qp_contention: None,
        }
    }
}

impl SimParams {
    /// Parameters resembling the paper's GPU testbed: 8 A100 nodes behind a Telescent
    /// patch panel running MSCCL. 25 Gbps (3.125 GB/s) links, a 30 µs per-step
    /// synchronization latency, 2 µs per hop, and *no* host-injection or queue-pair
    /// limits — the GPUs drive their NICs directly, so the links are the only
    /// bottleneck. (Currently identical to [`SimParams::default`].)
    pub fn gpu_testbed() -> Self {
        Self::default()
    }

    /// Parameters resembling the 27-node TACC torus on the Cerio fabric: the same
    /// 25 Gbps links, plus the two practical effects §5.2/§5.5 measured on that
    /// cluster — a 100 Gbps (12.5 GB/s) host injection/ejection cap, and a mild
    /// queue-pair contention penalty (per-flow bandwidth degrades once a link carries
    /// more than 8 concurrent flows, 1% per extra flow).
    pub fn tacc_cluster() -> Self {
        Self {
            host_injection_gbps: Some(12.5),
            qp_contention: Some(QpContention {
                free_flows_per_link: 8,
                penalty_per_flow: 0.01,
            }),
            ..Self::default()
        }
    }
}

/// Queue-pair contention: every flow beyond `free_flows_per_link` sharing a link costs
/// a `penalty_per_flow` fraction of that link's effective bandwidth (reproducing the
/// reduction in per-flow bandwidth the paper measured as QP counts grow).
#[derive(Debug, Clone, Copy)]
pub struct QpContention {
    /// Number of concurrent flows a link sustains at full rate.
    pub free_flows_per_link: usize,
    /// Fractional bandwidth loss per additional flow.
    pub penalty_per_flow: f64,
}

impl QpContention {
    /// Effective bandwidth multiplier for a link carrying `flows` concurrent flows.
    pub fn bandwidth_factor(&self, flows: usize) -> f64 {
        let excess = flows.saturating_sub(self.free_flows_per_link) as f64;
        1.0 / (1.0 + self.penalty_per_flow * excess)
    }
}

/// Result of simulating one all-to-all execution.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Number of participating endpoints.
    pub num_nodes: usize,
    /// Shard size in bytes (each endpoint sends one shard to every other endpoint).
    pub shard_bytes: f64,
    /// Completion time of the collective in seconds.
    pub completion_seconds: f64,
    /// Algorithm bandwidth `(N - 1) · m / T` in GB/s — the paper's throughput metric.
    pub throughput_gbps: f64,
}

impl SimReport {
    /// Builds a report from its raw ingredients.
    pub fn new(num_nodes: usize, shard_bytes: f64, completion_seconds: f64) -> Self {
        let bytes = (num_nodes.saturating_sub(1)) as f64 * shard_bytes;
        let throughput_gbps = if completion_seconds > 0.0 {
            bytes / completion_seconds / 1e9
        } else {
            0.0
        };
        Self {
            num_nodes,
            shard_bytes,
            completion_seconds,
            throughput_gbps,
        }
    }
}

/// Converts a per-node all-to-all buffer size (the x-axis of Figs. 3–5: `N` shards of
/// `m` bytes each) into the shard size `m`.
pub fn shard_bytes_for_buffer(buffer_bytes: f64, num_nodes: usize) -> f64 {
    buffer_bytes / num_nodes.max(1) as f64
}

/// Agreement window `(lower, upper)` asserted between the synchronized event
/// engine's completion time and the tsMCF LP-predicted bound
/// ([`a2a_mcf::tsmcf::TsMcfSolution::predicted_completion_seconds`] of the *pruned*
/// solution) when schedules are quantized at 128 chunks per shard. The budget covers
/// nearest-1/128-shard rounding (measured: within 1% across all evaluated topology
/// families). Shared by the cross-backend test suite and the repo benchmark's
/// `tsmcf-` workload check so the two contracts cannot drift apart.
pub const SIM_VS_LP_AGREEMENT_WINDOW: (f64, f64) = (0.98, 1.05);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_computes_paper_throughput_metric() {
        // 27 nodes, 1 MiB shards, 4.5 ms completion.
        let r = SimReport::new(27, 1_048_576.0, 4.5e-3);
        assert!((r.throughput_gbps - 26.0 * 1_048_576.0 / 4.5e-3 / 1e9).abs() < 1e-9);
        assert_eq!(r.num_nodes, 27);
    }

    #[test]
    fn zero_time_yields_zero_throughput() {
        let r = SimReport::new(8, 100.0, 0.0);
        assert_eq!(r.throughput_gbps, 0.0);
    }

    #[test]
    fn buffer_to_shard_conversion() {
        assert_eq!(shard_bytes_for_buffer(2.0_f64.powi(20), 8), 131072.0);
        assert_eq!(shard_bytes_for_buffer(100.0, 0), 100.0);
    }

    #[test]
    fn qp_contention_factor_decreases_with_flows() {
        let qp = QpContention {
            free_flows_per_link: 4,
            penalty_per_flow: 0.1,
        };
        assert_eq!(qp.bandwidth_factor(2), 1.0);
        assert_eq!(qp.bandwidth_factor(4), 1.0);
        assert!(qp.bandwidth_factor(8) < 1.0);
        assert!(qp.bandwidth_factor(16) < qp.bandwidth_factor(8));
    }

    #[test]
    fn presets_reflect_testbeds() {
        let gpu = SimParams::gpu_testbed();
        assert!(gpu.host_injection_gbps.is_none());
        let tacc = SimParams::tacc_cluster();
        assert_eq!(tacc.host_injection_gbps, Some(12.5));
        assert!(tacc.qp_contention.is_some());
    }
}
