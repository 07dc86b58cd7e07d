//! End-to-end closed-loop re-planning suite.
//!
//! Pins the full digital-twin loop on real topologies: a schedule-carrying
//! link dies mid-run, the driver snapshots, re-solves the residual on the
//! punctured fabric (warm-started from the nominal incumbent columns), splices
//! and resumes. The suite checks the three contracts of the loop:
//!
//! * **Quality** — the replanned makespan stays within 1.10x of the
//!   *clairvoyant* schedule (a full re-solve on the punctured topology, as if
//!   the failure had been known before the run started), and the warm-started
//!   residual solve spends fewer master simplex iterations than the cold
//!   clairvoyant solve.
//! * **Splice invariants** — across seeded failure sweeps, every repaired
//!   schedule passes full [`ChunkedSchedule::validate`], its realized route
//!   table passes [`RouteTable::validate`] (every commodity delivers exactly
//!   one shard across the prefix/suffix boundary), and every in-flight
//!   snapshot conserves chunks and bytes exactly.
//! * **Graceful infeasibility** — a failure that disconnects a destination is
//!   a typed [`ReplanError::UnreachableDestination`], never a panic and never
//!   silent byte loss.

use a2a_mcf::solve_tsmcf_colgen_auto;
use a2a_schedule::{realized_route_table, ChunkedSchedule, ScheduleStep};
use a2a_simnet::{
    replan_run, simulate_chunked_timeline, ExecutionModel, IncumbentPool, ReplanError,
    ReplanOptions, ReplanRun, Scenario, ScenarioTimeline, SimParams, TimelineRun,
};
use a2a_topology::{generators, Topology};

const SHARD_BYTES: f64 = 64.0 * 1024.0 * 1024.0;
const CHUNKS_PER_SHARD: usize = 8;

struct Nominal {
    schedule: ChunkedSchedule,
    pool: IncumbentPool,
    completion_seconds: f64,
}

/// Solves the nominal all-to-all, quantizes it, and measures its failure-free
/// completion time under the event engine.
fn nominal_plan(topo: &Topology, params: &SimParams) -> Nominal {
    let cg = solve_tsmcf_colgen_auto(topo).expect("nominal solve");
    let schedule = ChunkedSchedule::from_tsmcf_exact(topo, &cg.solution, CHUNKS_PER_SHARD)
        .expect("nominal schedule quantizes");
    let pool = IncumbentPool {
        columns: cg.columns,
        commodities: cg.solution.commodities.clone(),
        steps: cg.solution.steps,
    };
    let run = simulate_chunked_timeline(
        topo,
        &schedule,
        SHARD_BYTES,
        params,
        &ScenarioTimeline::nominal(),
        ExecutionModel::Synchronized,
    )
    .expect("nominal run");
    let completion_seconds = match run {
        TimelineRun::Completed(r) => r.report.completion_seconds,
        TimelineRun::Interrupted(_) => unreachable!("no events on the nominal timeline"),
    };
    Nominal {
        schedule,
        pool,
        completion_seconds,
    }
}

/// The clairvoyant benchmark: a cold full re-solve on the punctured topology
/// (the failure known before the run), simulated failure-free. Returns the
/// makespan and the cold solve's master iteration count.
fn clairvoyant(punctured: &Topology, params: &SimParams) -> (f64, usize) {
    let cg = solve_tsmcf_colgen_auto(punctured).expect("clairvoyant solve");
    let iterations = cg.stats.total_master_iterations();
    let schedule = ChunkedSchedule::from_tsmcf_exact(punctured, &cg.solution, CHUNKS_PER_SHARD)
        .expect("clairvoyant schedule quantizes");
    let run = simulate_chunked_timeline(
        punctured,
        &schedule,
        SHARD_BYTES,
        params,
        &ScenarioTimeline::nominal(),
        ExecutionModel::Synchronized,
    )
    .expect("clairvoyant run");
    match run {
        TimelineRun::Completed(r) => (r.report.completion_seconds, iterations),
        TimelineRun::Interrupted(_) => unreachable!("no events on the clairvoyant timeline"),
    }
}

/// Runs the pinned mid-run-failure contract on one topology: kill a
/// schedule-carrying link at `when` times the nominal makespan, replan, and
/// check completion, quality vs the clairvoyant, and warm-vs-cold solve cost.
/// Returns the repaired run.
fn pinned_failure_contract(topo: &Topology, when: f64) -> ReplanRun {
    let params = SimParams::gpu_testbed();
    let nominal = nominal_plan(topo, &params);
    // The first transfer of the first step is on the critical path by
    // construction: killing it strands in-flight chunks.
    let tr = &nominal.schedule.steps[0].transfers[0];
    let edge = topo
        .find_edge(tr.from, tr.to)
        .expect("transfer uses a link");
    let timeline = ScenarioTimeline::new(Scenario::nominal())
        .with_link_failure_at(when * nominal.completion_seconds, edge);

    let run = replan_run(
        topo,
        &nominal.schedule,
        SHARD_BYTES,
        &params,
        &timeline,
        Some(&nominal.pool),
        &ReplanOptions::default(),
    )
    .expect("replan completes");
    assert_eq!(run.attempts.len(), 1, "single failure, single repair");
    let attempt = &run.attempts[0];
    assert!(!attempt.used_fallback, "LP repair expected on this fabric");
    assert!(
        attempt.proved_optimal,
        "residual solve certifies optimality"
    );
    assert!(attempt.warm_seeds > 0, "incumbent suffixes survive the cut");
    assert!(run.schedule.validate(topo).is_empty());

    let punctured = topo.without_edges(&[edge]);
    let (t_clair, cold_iterations) = clairvoyant(&punctured, &params);
    let t_replanned = run.completion_seconds();
    assert!(
        t_replanned <= 1.10 * t_clair,
        "replanned makespan {t_replanned:.6}s exceeds 1.10x clairvoyant {t_clair:.6}s"
    );
    assert!(
        attempt.master_iterations < cold_iterations,
        "warm residual ({} iterations) should beat the cold clairvoyant ({})",
        attempt.master_iterations,
        cold_iterations,
    );
    run
}

/// Order-sensitive FNV-1a over every `(from, to, origin, final_dest, chunks)`,
/// with a separator after each step (the hash of
/// `schedule/tests/validate_tests.rs`'s lowering golden).
fn transfer_hash(steps: &[ScheduleStep]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |v: usize| {
        for byte in (v as u64).to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for step in steps {
        for t in &step.transfers {
            for v in [t.from, t.to, t.origin, t.final_dest, t.chunks] {
                mix(v);
            }
        }
        mix(usize::MAX);
    }
    h
}

// The failure instant, as a fraction of the nominal makespan. Late enough that
// the executed prefix has delivered real work (so the residual problem is
// strictly smaller than the clairvoyant's full all-to-all — the regime where
// online re-planning beats re-solving from scratch), early enough that plenty
// of chunks are still in flight when the link dies.
const FAILURE_FRACTION: f64 = 0.7;

#[test]
fn torus_mid_run_failure_stays_within_clairvoyant_budget() {
    let run = pinned_failure_contract(&generators::torus(&[3, 3]), FAILURE_FRACTION);
    // The spliced residual suffix, pinned transfer for transfer (recorded
    // before the nominal and residual quantizers were merged).
    let suffix_steps = run.attempts[0].suffix_steps;
    let suffix = &run.schedule.steps[run.schedule.num_steps() - suffix_steps..];
    let transfers: usize = suffix.iter().map(|s| s.transfers.len()).sum();
    assert_eq!(
        (run.schedule.num_steps(), suffix_steps, transfers),
        (3, 2, 37)
    );
    assert_eq!(transfer_hash(suffix), 0xc466_ed71_4c6f_1d9a);
    assert_eq!(transfer_hash(&run.schedule.steps), 0x6828_d193_9945_f3e2);
}

#[test]
fn random_regular_mid_run_failure_stays_within_clairvoyant_budget() {
    pinned_failure_contract(&generators::random_regular(10, 3, 7), FAILURE_FRACTION);
}

/// Seeded sweep of failure instants and links: every repaired schedule passes
/// the full schedule validator and its realized route table passes the route
/// validator — i.e. every commodity delivers exactly one shard across the
/// prefix/suffix boundary, on surviving links only.
#[test]
fn splice_invariants_hold_across_seeded_failure_sweep() {
    let topo = generators::torus(&[3, 3]);
    let params = SimParams::gpu_testbed();
    let nominal = nominal_plan(&topo, &params);
    let transfers: Vec<_> = nominal
        .schedule
        .steps
        .iter()
        .flat_map(|s| s.transfers.iter().cloned())
        .collect();
    for seed in 0..6u64 {
        // Seeded but deterministic pick of a schedule-carrying link and a
        // failure instant in (0.15, 0.9) of the nominal makespan.
        let tr = &transfers[(seed as usize * 31) % transfers.len()];
        let edge = topo.find_edge(tr.from, tr.to).unwrap();
        let frac = 0.15 + 0.125 * seed as f64;
        let timeline = ScenarioTimeline::new(Scenario::nominal())
            .with_link_failure_at(frac * nominal.completion_seconds, edge);
        let run = replan_run(
            &topo,
            &nominal.schedule,
            SHARD_BYTES,
            &params,
            &timeline,
            Some(&nominal.pool),
            &ReplanOptions::default(),
        )
        .unwrap_or_else(|e| panic!("seed {seed}: replan failed: {e}"));
        let issues = run.schedule.validate(&topo);
        assert!(issues.is_empty(), "seed {seed}: {issues:?}");
        // The realized per-chunk route table proves every commodity delivered
        // exactly one shard end-to-end across the splice boundary.
        let routes = realized_route_table(&run.schedule)
            .unwrap_or_else(|e| panic!("seed {seed}: route extraction failed: {e}"));
        let route_issues = routes.validate();
        assert!(route_issues.is_empty(), "seed {seed}: {route_issues:?}");
        // And no repaired suffix step uses the dead link.
        let suffix_steps = run.attempts.last().unwrap().suffix_steps;
        for step in &run.schedule.steps[run.schedule.num_steps() - suffix_steps..] {
            for t in &step.transfers {
                assert!(
                    (t.from, t.to) != (tr.from, tr.to),
                    "seed {seed}: suffix rides the dead link"
                );
            }
        }
    }
}

/// Byte and chunk conservation of the in-flight snapshot, at failure instants
/// spanning the whole run: delivered + buffered + stranded chunks account for
/// every chunk, and delivered + buffered + stranded + in-flight bytes account
/// for every byte. Nothing is silently lost at any event time.
#[test]
fn snapshots_conserve_chunks_and_bytes_at_every_event_time() {
    let topo = generators::torus(&[3, 3]);
    let params = SimParams::gpu_testbed();
    let nominal = nominal_plan(&topo, &params);
    let tr = &nominal.schedule.steps[0].transfers[0];
    let edge = topo.find_edge(tr.from, tr.to).unwrap();
    let mut interruptions = 0;
    for i in 1..10 {
        let frac = i as f64 / 10.0;
        let timeline = ScenarioTimeline::new(Scenario::nominal())
            .with_link_failure_at(frac * nominal.completion_seconds, edge);
        let run = simulate_chunked_timeline(
            &topo,
            &nominal.schedule,
            SHARD_BYTES,
            &params,
            &timeline,
            ExecutionModel::Synchronized,
        )
        .expect("timeline run");
        let snap = match run {
            TimelineRun::Interrupted(snap) => snap,
            TimelineRun::Completed(_) => continue,
        };
        interruptions += 1;
        assert_eq!(
            snap.delivered_chunks + snap.buffered_chunks + snap.stranded_chunks,
            snap.total_chunks(),
            "chunk conservation at t = {frac} of the nominal makespan"
        );
        let accounted =
            snap.delivered_bytes + snap.buffered_bytes + snap.stranded_bytes + snap.in_flight_bytes;
        let total = snap.total_bytes();
        assert!(
            (accounted - total).abs() <= 1e-6 * total,
            "byte conservation at t = {frac}: accounted {accounted} of {total}"
        );
        // Holdings agree with the aggregate counters: every chunk (stranded
        // ones included — they sit whole at their sender) has a holding.
        let held: usize = snap.holdings.iter().map(|h| h.chunks).sum();
        assert_eq!(held, snap.total_chunks());
        let stranded: usize = snap.holdings.iter().map(|h| h.stranded_chunks).sum();
        assert_eq!(stranded, snap.stranded_chunks);
    }
    assert!(
        interruptions >= 5,
        "the sweep should interrupt the run at several instants, got {interruptions}"
    );
}

/// A failure that disconnects a destination is reported as the typed
/// [`ReplanError::UnreachableDestination`] — with the stuck chunks counted,
/// not silently dropped — and never panics.
#[test]
fn disconnecting_failure_is_a_typed_error_with_no_silent_loss() {
    let topo = generators::ring(4);
    let params = SimParams::gpu_testbed();
    let nominal = nominal_plan(&topo, &params);
    // The directed ring has exactly one path between any pair: killing any
    // schedule-carrying link mid-run disconnects every destination behind it.
    let tr = &nominal.schedule.steps[0].transfers[0];
    let edge = topo.find_edge(tr.from, tr.to).unwrap();
    let timeline = ScenarioTimeline::new(Scenario::nominal())
        .with_link_failure_at(0.3 * nominal.completion_seconds, edge);
    let err = replan_run(
        &topo,
        &nominal.schedule,
        SHARD_BYTES,
        &params,
        &timeline,
        Some(&nominal.pool),
        &ReplanOptions::default(),
    )
    .expect_err("a disconnected destination cannot be repaired");
    match err {
        ReplanError::UnreachableDestination { chunks, .. } => {
            assert!(chunks > 0, "the stuck chunks are accounted for");
        }
        other => panic!("expected UnreachableDestination, got {other}"),
    }
}
