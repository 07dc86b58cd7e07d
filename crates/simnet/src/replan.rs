//! The closed-loop re-planning driver: detect → snapshot → re-solve → splice →
//! resume.
//!
//! [`replan_run`] executes a chunked schedule under a [`ScenarioTimeline`] and,
//! whenever a mid-run link failure interrupts it
//! ([`TimelineRun::Interrupted`]), repairs the schedule online:
//!
//! 1. **Snapshot** — the engine's [`InFlightSnapshot`] says where every chunk
//!    is (delivered / buffered / stranded, with exact partial-transfer byte
//!    accounting) and which links are dead.
//! 2. **Residual solve** — the undelivered holdings become [`TsDemand`]s on
//!    the punctured topology, solved by the delivery-exact column generation
//!    ([`a2a_mcf::residual`], [`ColGenOptions::stabilized`]), warm-started
//!    from the incumbent column pool of the nominal solve when the caller
//!    provides one ([`IncumbentPool`]) — measurably fewer simplex iterations
//!    than a cold clairvoyant re-solve.
//! 3. **Graceful degradation** — if the residual LP errors, or its wall time
//!    exceeds [`ReplanOptions::solve_time_budget_secs`], the driver falls back
//!    to the greedy shortest-path reroute
//!    ([`a2a_schedule::greedy_reroute_suffix`]): bandwidth-oblivious but
//!    failure-free whenever the destinations are reachable at all. A
//!    destination disconnected by the puncture is the *typed* terminal error
//!    [`ReplanError::UnreachableDestination`] — never a panic, never silent
//!    byte loss.
//! 4. **Splice & resume** — the repaired suffix is spliced onto the executed
//!    prefix ([`a2a_schedule::splice_schedule`], re-validated end-to-end,
//!    suffix checked against the dead links) and the spliced schedule is
//!    re-simulated under the *same* timeline: the prefix replays
//!    deterministically before the failure instant and the suffix runs on the
//!    surviving capacities. A later timeline event may interrupt again —
//!    cascading failures re-enter the loop up to four times, each attempt
//!    warm-started from the previous solve's column pool.
//!
//! The benchmark compares the replanned makespan against a *clairvoyant*
//! re-solve (full all-to-all on the punctured topology, as if the failure had
//! been known before the run) and against the nominal no-failure run; the
//! per-attempt [`ReplanAttempt`] records expose the solve cost side of that
//! trade.

use std::time::Instant;

use a2a_mcf::residual::{
    residual_minimum_steps, solve_residual_colgen, warm_seeds_from_columns, TsDemand,
};
use a2a_mcf::tscolgen::TsColumn;
use a2a_mcf::{ColGenOptions, CommoditySet, McfError};
use a2a_schedule::{greedy_reroute_suffix, lower_residual_suffix, splice_schedule};
use a2a_schedule::{ChunkedSchedule, ScheduleStep};
use a2a_topology::{EdgeId, NodeId, Topology};

use crate::event::{
    simulate_chunked_timeline, EventReport, ExecutionModel, InFlightSnapshot, SimError, TimelineRun,
};
use crate::scenario::ScenarioTimeline;
use crate::SimParams;

/// The incumbent column pool of the nominal solve, used to warm-start residual
/// re-solves. `columns` and `steps` come from the
/// [`a2a_mcf::TsColGen`] that produced the running schedule; `commodities`
/// must match the schedule's.
#[derive(Debug, Clone)]
pub struct IncumbentPool {
    /// Positive-weight columns of the nominal master at termination.
    pub columns: Vec<TsColumn>,
    /// Commodities the columns index into.
    pub commodities: CommoditySet,
    /// Step count of the nominal solution (the columns' time horizon).
    pub steps: usize,
}

/// Repair attempts before the loop gives up; each cascading failure takes one.
const MAX_ATTEMPTS: usize = 4;

/// Options of the re-planning loop.
#[derive(Debug, Clone)]
pub struct ReplanOptions {
    /// Wall-clock budget for one residual LP solve. The solver is not
    /// preemptible, so the budget is enforced after the fact: an over-budget
    /// solve is discarded and the attempt degrades to the greedy reroute —
    /// modelling a control plane that must answer within a deadline.
    pub solve_time_budget_secs: f64,
}

impl Default for ReplanOptions {
    fn default() -> Self {
        Self {
            solve_time_budget_secs: f64::INFINITY,
        }
    }
}

/// Why the re-planning loop gave up. Every variant is a clean typed signal —
/// the loop never panics on a repairable or unrepairable fabric.
#[derive(Debug, Clone)]
pub enum ReplanError {
    /// The underlying simulation rejected the schedule outright (e.g. a
    /// failure already active at `t = 0`, which the static engine also
    /// rejects).
    Sim(SimError),
    /// A failure disconnected a destination: `chunks` chunks of commodity
    /// `origin → dest` are stuck at `at` with no surviving route. Terminal —
    /// no schedule can deliver them.
    UnreachableDestination {
        /// Commodity source.
        origin: NodeId,
        /// The unreachable destination.
        dest: NodeId,
        /// Rank holding the undeliverable chunks.
        at: NodeId,
        /// Number of chunks stuck there.
        chunks: usize,
    },
    /// The residual solve failed and the greedy fallback could not produce a
    /// splice either.
    Unrepairable(String),
    /// A repaired schedule kept getting interrupted; attempts ran out.
    AttemptsExhausted {
        /// Attempts performed (4, the loop's cap).
        attempts: usize,
    },
}

impl std::fmt::Display for ReplanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplanError::Sim(e) => write!(f, "simulation failed: {e}"),
            ReplanError::UnreachableDestination {
                origin,
                dest,
                at,
                chunks,
            } => write!(
                f,
                "destination {dest} unreachable: {chunks} chunks of {origin}->{dest} \
                 stuck at rank {at}"
            ),
            ReplanError::Unrepairable(msg) => write!(f, "no repair found: {msg}"),
            ReplanError::AttemptsExhausted { attempts } => {
                write!(f, "gave up after {attempts} replan attempts")
            }
        }
    }
}

impl std::error::Error for ReplanError {}

/// What one repair attempt did and what it cost.
#[derive(Debug, Clone)]
pub struct ReplanAttempt {
    /// Simulated time of the interrupting failure.
    pub failure_time: f64,
    /// Links dead at the failure instant (original topology edge ids).
    pub failed_links: Vec<EdgeId>,
    /// Residual demands re-planned (distinct (commodity, holding rank) pairs).
    pub num_demands: usize,
    /// Warm-start seeds harvested from the incumbent pool for this attempt.
    pub warm_seeds: usize,
    /// Wall-clock seconds of the residual LP solve (0 when the solve was
    /// skipped because no incumbent/budget allowed none).
    pub solve_wall_secs: f64,
    /// Master simplex iterations of the residual solve (the warm-vs-cold
    /// comparison metric).
    pub master_iterations: usize,
    /// Whether the residual LP certified optimality.
    pub proved_optimal: bool,
    /// Whether the attempt used the greedy fallback instead of the LP suffix.
    pub used_fallback: bool,
    /// Steps of the spliced repaired suffix.
    pub suffix_steps: usize,
}

/// Result of a completed re-planning run.
#[derive(Debug, Clone)]
pub struct ReplanRun {
    /// The report of the final (completed) simulation of the repaired
    /// schedule under the full timeline.
    pub report: EventReport,
    /// The schedule that completed: nominal if no failure fired, otherwise
    /// the last spliced repair.
    pub schedule: ChunkedSchedule,
    /// One record per repair attempt, in order. Empty when the nominal
    /// schedule survived the whole timeline.
    pub attempts: Vec<ReplanAttempt>,
}

impl ReplanRun {
    /// Completion time of the (possibly repaired) run, in seconds.
    pub fn completion_seconds(&self) -> f64 {
        self.report.report.completion_seconds
    }
}

/// Runs `schedule` under `timeline`, repairing it online after every mid-run
/// link failure. See the module docs for the loop; `incumbent` enables
/// warm-started residual solves and is updated internally across cascading
/// failures (each repair's column pool warms the next).
pub fn replan_run(
    topo: &Topology,
    schedule: &ChunkedSchedule,
    shard_bytes: f64,
    params: &SimParams,
    timeline: &ScenarioTimeline,
    incumbent: Option<&IncumbentPool>,
    options: &ReplanOptions,
) -> Result<ReplanRun, ReplanError> {
    let mut current = schedule.clone();
    let mut pool: Option<IncumbentPool> = incumbent.cloned();
    let mut attempts: Vec<ReplanAttempt> = Vec::new();
    loop {
        let run = {
            let _obs = a2a_obs::span("replan.detect");
            simulate_chunked_timeline(
                topo,
                &current,
                shard_bytes,
                params,
                timeline,
                ExecutionModel::Synchronized,
            )
            .map_err(ReplanError::Sim)?
        };
        let snapshot = match run {
            TimelineRun::Completed(report) => {
                return Ok(ReplanRun {
                    report,
                    schedule: current,
                    attempts,
                });
            }
            TimelineRun::Interrupted(snapshot) => snapshot,
        };
        if attempts.len() >= MAX_ATTEMPTS {
            return Err(ReplanError::AttemptsExhausted {
                attempts: attempts.len(),
            });
        }
        let (repaired, attempt, new_pool) =
            repair(topo, &current, &snapshot, pool.as_ref(), options)?;
        attempts.push(attempt);
        current = repaired;
        pool = new_pool;
    }
}

/// One repair: snapshot → demands → (warm) residual solve or fallback →
/// splice. Returns the spliced schedule, the attempt record, and the column
/// pool to warm the next cascade level with.
fn repair(
    topo: &Topology,
    current: &ChunkedSchedule,
    snapshot: &InFlightSnapshot,
    pool: Option<&IncumbentPool>,
    options: &ReplanOptions,
) -> Result<(ChunkedSchedule, ReplanAttempt, Option<IncumbentPool>), ReplanError> {
    let _obs = a2a_obs::span("replan.repair");
    let obs_snapshot = a2a_obs::span("replan.snapshot");
    let cps = snapshot.chunks_per_shard as f64;
    let punctured = topo.without_edges(&snapshot.failed_links);
    let forbidden: Vec<(NodeId, NodeId)> = snapshot
        .failed_links
        .iter()
        .map(|&e| {
            let edge = topo.edge(e);
            (edge.src, edge.dst)
        })
        .collect();

    // Reachability pre-check: a disconnected destination is terminal, typed.
    let mut demands: Vec<TsDemand> = Vec::new();
    for h in snapshot.undelivered() {
        let dist = punctured.bfs_distances(h.at);
        if dist[h.final_dest].is_none() {
            return Err(ReplanError::UnreachableDestination {
                origin: h.origin,
                dest: h.final_dest,
                at: h.at,
                chunks: h.chunks,
            });
        }
        demands.push(TsDemand {
            origin: h.origin,
            dest: h.final_dest,
            at: h.at,
            amount: h.chunks as f64 / cps,
        });
    }

    drop(obs_snapshot);
    let mut attempt = ReplanAttempt {
        failure_time: snapshot.time,
        failed_links: snapshot.failed_links.clone(),
        num_demands: demands.len(),
        warm_seeds: 0,
        solve_wall_secs: 0.0,
        master_iterations: 0,
        proved_optimal: false,
        used_fallback: false,
        suffix_steps: 0,
    };

    // Everything already delivered (the failure only touched junk-free slack):
    // the executed prefix alone is the repair.
    if demands.is_empty() {
        let _obs = a2a_obs::span("replan.splice");
        let spliced = splice_schedule(topo, current, &snapshot.executed_prefix, &[], &forbidden)
            .map_err(ReplanError::Unrepairable)?;
        return Ok((spliced.schedule, attempt, None));
    }

    // Residual solve (warm-started when a pool is available), then splice; any
    // failure on this path degrades to the greedy reroute instead of erroring.
    let lp_suffix: Option<(Vec<ScheduleStep>, Vec<TsColumn>, usize)> = (|| {
        let _obs = a2a_obs::span("replan.resolve");
        let steps = residual_minimum_steps(&punctured, &demands).ok()?;
        let warm = match pool {
            Some(p) => warm_seeds_from_columns(&p.columns, &p.commodities, &punctured, &demands),
            None => Vec::new(),
        };
        attempt.warm_seeds = warm.len();
        let colgen = ColGenOptions::stabilized();
        let t0 = Instant::now();
        let solved = solve_residual_colgen(&punctured, &demands, steps, &colgen, &warm);
        attempt.solve_wall_secs = t0.elapsed().as_secs_f64();
        let res = match solved {
            Ok(res) => res,
            Err(McfError::BadArgument(_) | McfError::BadTopology(_) | McfError::Lp(_)) => {
                return None;
            }
        };
        attempt.master_iterations = res.stats.total_master_iterations();
        attempt.proved_optimal = res.stats.proved_optimal;
        if attempt.solve_wall_secs > options.solve_time_budget_secs {
            return None;
        }
        let suffix =
            lower_residual_suffix(&punctured, &res.solution, snapshot.chunks_per_shard).ok()?;
        Some((suffix, res.columns, steps))
    })();

    let (suffix, next_pool) = match lp_suffix {
        Some((suffix, columns, steps)) => {
            // Residual columns are per-demand, not directly reusable as a
            // commodity-indexed pool, so re-key them by commodity for the next
            // cascade level. Demands of the same commodity merge their columns
            // (trajectories stay distinct; node ids survive the puncture).
            let commodities = snapshot.commodities.clone();
            let rekeyed: Vec<TsColumn> = columns
                .into_iter()
                .filter_map(|c| {
                    let d = &demands[c.owner];
                    let owner = commodities.index_of(d.origin, d.dest)?;
                    Some(TsColumn { owner, ..c })
                })
                .collect();
            (
                suffix,
                Some(IncumbentPool {
                    columns: rekeyed,
                    commodities,
                    steps,
                }),
            )
        }
        None => {
            attempt.used_fallback = true;
            let suffix = greedy_reroute_suffix(&punctured, &demands, snapshot.chunks_per_shard)
                .map_err(ReplanError::Unrepairable)?;
            (suffix, None)
        }
    };
    attempt.suffix_steps = suffix.len();
    let _obs_splice = a2a_obs::span("replan.splice");
    let spliced = splice_schedule(
        topo,
        current,
        &snapshot.executed_prefix,
        &suffix,
        &forbidden,
    )
    .map_err(ReplanError::Unrepairable)?;
    Ok((spliced.schedule, attempt, next_pool))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use a2a_mcf::solve_tsmcf_colgen_auto;
    use a2a_topology::generators;

    fn nominal_setup(topo: &Topology) -> (ChunkedSchedule, IncumbentPool, f64, SimParams) {
        let cg = solve_tsmcf_colgen_auto(topo).unwrap();
        let schedule = ChunkedSchedule::from_tsmcf_exact(topo, &cg.solution, 8).unwrap();
        let pool = IncumbentPool {
            columns: cg.columns,
            commodities: cg.solution.commodities.clone(),
            steps: cg.solution.steps,
        };
        (schedule, pool, 64.0 * 1024.0 * 1024.0, SimParams::default())
    }

    /// No events: the driver is a transparent wrapper over the timeline run.
    #[test]
    fn event_free_timeline_needs_no_repair() {
        let topo = generators::torus(&[3, 3]);
        let (schedule, pool, shard, params) = nominal_setup(&topo);
        let timeline = ScenarioTimeline::nominal();
        let run = replan_run(
            &topo,
            &schedule,
            shard,
            &params,
            &timeline,
            Some(&pool),
            &ReplanOptions::default(),
        )
        .unwrap();
        assert!(run.attempts.is_empty());
        assert_eq!(run.schedule.num_steps(), schedule.num_steps());
    }

    /// A mid-run failure on a schedule-carrying link: one repair attempt, the
    /// spliced schedule completes, and delivery is provable end-to-end.
    #[test]
    fn mid_run_failure_is_repaired_and_completes() {
        let topo = generators::torus(&[3, 3]);
        let (schedule, pool, shard, params) = nominal_setup(&topo);
        // Nominal completion, to place the failure mid-run and sanity-check the
        // repaired makespan.
        let nominal = replan_run(
            &topo,
            &schedule,
            shard,
            &params,
            &ScenarioTimeline::nominal(),
            None,
            &ReplanOptions::default(),
        )
        .unwrap();
        let t_nominal = nominal.completion_seconds();
        // Kill a first-step link mid-first-step.
        let tr = &schedule.steps[0].transfers[0];
        let timeline = ScenarioTimeline::new(Scenario::nominal())
            .with_link_failure_at(0.4 * t_nominal, topo.find_edge(tr.from, tr.to).unwrap());
        let run = replan_run(
            &topo,
            &schedule,
            shard,
            &params,
            &timeline,
            Some(&pool),
            &ReplanOptions::default(),
        )
        .unwrap();
        assert_eq!(run.attempts.len(), 1);
        let attempt = &run.attempts[0];
        assert!(!attempt.used_fallback, "LP repair expected");
        assert!(attempt.proved_optimal);
        assert!(attempt.warm_seeds > 0, "incumbent suffixes survive");
        assert!(attempt.num_demands > 0);
        assert!(run.completion_seconds() >= t_nominal - 1e-9);
        assert!(run.schedule.validate(&topo).is_empty());
        // The repaired suffix avoids the dead link.
        for step in &run.schedule.steps[run.schedule.num_steps() - attempt.suffix_steps..] {
            for t in &step.transfers {
                assert!((t.from, t.to) != (tr.from, tr.to));
            }
        }
    }

    /// A zero solve-time budget forces the greedy fallback; the run still
    /// completes with a valid schedule.
    #[test]
    fn exhausted_budget_degrades_to_greedy_reroute() {
        let topo = generators::torus(&[3, 3]);
        let (schedule, _, shard, params) = nominal_setup(&topo);
        let tr = &schedule.steps[0].transfers[0];
        let timeline = ScenarioTimeline::new(Scenario::nominal())
            .with_link_failure_at(1e-4, topo.find_edge(tr.from, tr.to).unwrap());
        let options = ReplanOptions {
            solve_time_budget_secs: 0.0,
            ..ReplanOptions::default()
        };
        let run = replan_run(&topo, &schedule, shard, &params, &timeline, None, &options).unwrap();
        assert_eq!(run.attempts.len(), 1);
        assert!(run.attempts[0].used_fallback);
        assert!(run.schedule.validate(&topo).is_empty());
    }

    /// Disconnecting a destination is the typed terminal error.
    #[test]
    fn disconnected_destination_is_typed_not_a_panic() {
        let topo = generators::ring(3);
        let (schedule, pool, shard, params) = nominal_setup(&topo);
        // The directed 3-ring has exactly one outgoing link per node; killing
        // 1 -> 2 mid-run leaves chunks bound for 2 unreachable.
        let timeline = ScenarioTimeline::new(Scenario::nominal())
            .with_link_failure_at(1e-4, topo.find_edge(1, 2).unwrap());
        let err = replan_run(
            &topo,
            &schedule,
            shard,
            &params,
            &timeline,
            Some(&pool),
            &ReplanOptions::default(),
        )
        .unwrap_err();
        match err {
            ReplanError::UnreachableDestination { dest, chunks, .. } => {
                assert_eq!(dest, 2);
                assert!(chunks > 0);
            }
            other => panic!("expected UnreachableDestination, got {other}"),
        }
    }

    /// Cascading failures: a second link dies while the first repair's suffix
    /// is running; the loop repairs again and completes within its budget.
    #[test]
    fn cascading_failures_replan_repeatedly() {
        let topo = generators::torus(&[3, 3]);
        let (schedule, pool, shard, params) = nominal_setup(&topo);
        let nominal = replan_run(
            &topo,
            &schedule,
            shard,
            &params,
            &ScenarioTimeline::nominal(),
            None,
            &ReplanOptions::default(),
        )
        .unwrap();
        let t_nominal = nominal.completion_seconds();
        let tr = &schedule.steps[0].transfers[0];
        let first = topo.find_edge(tr.from, tr.to).unwrap();
        // Second failure well after the first: some link of the torus other
        // than the first one (the repair may or may not use it; either way the
        // loop must terminate cleanly).
        let second = topo.find_edge(4, 5).unwrap_or(0);
        let timeline = ScenarioTimeline::new(Scenario::nominal())
            .with_link_failure_at(0.3 * t_nominal, first)
            .with_link_failure_at(0.9 * t_nominal, second);
        let run = replan_run(
            &topo,
            &schedule,
            shard,
            &params,
            &timeline,
            Some(&pool),
            &ReplanOptions::default(),
        )
        .unwrap();
        assert!(!run.attempts.is_empty() && run.attempts.len() <= 4);
        assert!(run.schedule.validate(&topo).is_empty());
    }
}
