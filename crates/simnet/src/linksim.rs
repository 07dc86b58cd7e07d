//! Store-and-forward execution of time-stepped (link-based) schedules.
//!
//! Every communication step is globally synchronized: its duration is the transfer
//! time of the busiest link plus a synchronization latency. This mirrors how the
//! MSCCL / oneCCL interpreters execute the lowered XML programs (§4), and it is why
//! link-based schedules pay a latency penalty at small buffer sizes in Fig. 4.

use a2a_mcf::tsmcf::TsMcfSolution;
use a2a_schedule::ChunkedSchedule;
use a2a_topology::Topology;

use crate::{Scenario, SimError, SimParams, SimReport, SimResult};

/// Simulates a fractional time-stepped schedule directly (amounts are fractions of a
/// shard per commodity).
pub fn simulate_link_schedule(
    topo: &Topology,
    schedule: &TsMcfSolution,
    shard_bytes: f64,
    params: &SimParams,
) -> SimReport {
    let mut completion = 0.0f64;
    for step in 0..schedule.steps {
        let mut per_link_bytes = vec![0.0f64; topo.num_edges()];
        for (_, e, amount) in schedule.transfers_at_step(step) {
            per_link_bytes[e] += amount * shard_bytes;
        }
        let busiest = per_link_bytes
            .iter()
            .enumerate()
            .map(|(e, &bytes)| bytes / (params.link_bandwidth_gbps * 1e9 * topo.edge(e).capacity))
            .fold(0.0, f64::max);
        completion += busiest + params.step_sync_latency_s;
    }
    SimReport::new(
        schedule.commodities.num_endpoints(),
        shard_bytes,
        completion,
    )
}

/// Simulates a chunked schedule (whole-chunk transfers, as lowered to MSCCL / oneCCL)
/// on the nominal fabric.
///
/// # Panics
/// Panics if a transfer uses a link missing from `topo` or the granularity is
/// zero — run [`ChunkedSchedule::validate`] first — or if a numeric input is
/// outside the cost model's range (the [`SimError::InvalidInput`] cases of
/// [`simulate_chunked_schedule_with`], which returns them all as a `Result`).
pub fn simulate_chunked_schedule(
    topo: &Topology,
    schedule: &ChunkedSchedule,
    shard_bytes: f64,
    params: &SimParams,
) -> SimReport {
    simulate_chunked_schedule_with(topo, schedule, shard_bytes, params, &Scenario::nominal())
        .expect("nominal scenario on a validated schedule with valid inputs cannot fail")
}

/// Scenario-aware variant of [`simulate_chunked_schedule`]: link slowdowns and
/// straggler factors reshape each step's busiest-link time; a transfer
/// over a failed (or missing) link is an error, so is a zero granularity
/// ([`SimError::InvalidSchedule`], as in the event engine), and so is a numeric
/// input the event engine rejects ([`SimError::InvalidInput`]: a non-finite or
/// negative shard size, a bandwidth that is not finite and positive, a latency or
/// contention penalty that is not finite and non-negative).
pub fn simulate_chunked_schedule_with(
    topo: &Topology,
    schedule: &ChunkedSchedule,
    shard_bytes: f64,
    params: &SimParams,
    scenario: &Scenario,
) -> SimResult<SimReport> {
    crate::event::check_inputs(shard_bytes, params, scenario)?;
    if schedule.chunks_per_shard == 0 {
        return Err(SimError::InvalidSchedule(
            "granularity must be positive".into(),
        ));
    }
    let chunk_bytes = shard_bytes / schedule.chunks_per_shard as f64;
    let mut completion = 0.0f64;
    // Message ids are step-major transfer order — the same identity the event
    // engine keys per-message α jitter on, which keeps the two backends equal
    // under jittered scenarios.
    let mut message_id = 0usize;
    for (si, step) in schedule.steps.iter().enumerate() {
        let mut per_link_chunks: std::collections::HashMap<usize, usize> =
            std::collections::HashMap::new();
        // A synchronized step's α is stretched by its slowest message's jitter.
        let mut step_alpha_factor = 1.0f64;
        for t in &step.transfers {
            let e = topo.find_edge(t.from, t.to).ok_or(SimError::MissingLink {
                step: si,
                from: t.from,
                to: t.to,
            })?;
            if scenario.is_failed(e) {
                return Err(SimError::FailedLink {
                    step: si,
                    from: t.from,
                    to: t.to,
                });
            }
            step_alpha_factor = step_alpha_factor.max(scenario.alpha_factor(message_id));
            message_id += 1;
            *per_link_chunks.entry(e).or_insert(0) += t.chunks;
        }
        let busiest = per_link_chunks
            .iter()
            .map(|(&e, &chunks)| {
                let bw = scenario
                    .effective_bandwidth(topo, e, params)
                    .expect("failed links rejected above");
                chunks as f64 * chunk_bytes / bw
            })
            .fold(0.0, f64::max);
        completion += busiest + params.step_sync_latency_s * step_alpha_factor;
    }
    Ok(SimReport::new(
        schedule.commodities.num_endpoints(),
        shard_bytes,
        completion,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use a2a_mcf::throughput_upper_bound;
    use a2a_mcf::tscolgen::solve_tsmcf_colgen_auto;
    use a2a_topology::generators;

    #[test]
    fn throughput_approaches_upper_bound_at_large_buffers() {
        let topo = generators::complete(4);
        let sol = solve_tsmcf_colgen_auto(&topo).unwrap().solution;
        let params = SimParams::default();
        let report = simulate_link_schedule(&topo, &sol, 256.0 * 1024.0 * 1024.0, &params);
        let bound = throughput_upper_bound(4, 1.0, params.link_bandwidth_gbps);
        assert!(report.throughput_gbps <= bound + 1e-6);
        assert!(report.throughput_gbps > 0.95 * bound);
    }

    #[test]
    fn small_buffers_are_latency_bound() {
        let topo = generators::hypercube(3);
        let sol = solve_tsmcf_colgen_auto(&topo).unwrap().solution;
        let params = SimParams::default();
        let small = simulate_link_schedule(&topo, &sol, 512.0, &params);
        let large = simulate_link_schedule(&topo, &sol, 64.0 * 1024.0 * 1024.0, &params);
        assert!(small.throughput_gbps < 0.2 * large.throughput_gbps);
        // Latency floor: at least one sync per step.
        assert!(small.completion_seconds >= sol.steps as f64 * params.step_sync_latency_s);
    }

    #[test]
    fn chunked_and_fractional_simulations_agree_at_large_buffers() {
        let topo = generators::ring(3);
        let sol = solve_tsmcf_colgen_auto(&topo).unwrap().solution;
        let chunked = a2a_schedule::ChunkedSchedule::from_tsmcf(&topo, &sol, 64).unwrap();
        let params = SimParams::default();
        let shard = 128.0 * 1024.0 * 1024.0;
        let a = simulate_link_schedule(&topo, &sol, shard, &params);
        let b = simulate_chunked_schedule(&topo, &chunked, shard, &params);
        let rel = (a.completion_seconds - b.completion_seconds).abs() / a.completion_seconds;
        assert!(
            rel < 0.2,
            "fractional {} vs chunked {}",
            a.completion_seconds,
            b.completion_seconds
        );
    }

    #[test]
    fn better_schedules_simulate_faster() {
        // tsMCF on the hypercube must beat the TACCL-like stand-in at large buffers.
        let topo = generators::hypercube(3);
        let tsmcf = solve_tsmcf_colgen_auto(&topo).unwrap().solution;
        let taccl = a2a_baselines::taccl_like_heuristic(&topo, std::time::Duration::from_secs(2))
            .unwrap()
            .schedule()
            .cloned()
            .unwrap();
        let params = SimParams::default();
        let shard = 32.0 * 1024.0 * 1024.0;
        let fast = simulate_link_schedule(&topo, &tsmcf, shard, &params);
        let slow = simulate_link_schedule(&topo, &taccl, shard, &params);
        assert!(
            fast.throughput_gbps >= slow.throughput_gbps * 0.999,
            "tsMCF {} vs TACCL-like {}",
            fast.throughput_gbps,
            slow.throughput_gbps
        );
    }
}
