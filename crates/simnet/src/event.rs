//! Discrete-event flow-level execution of chunked schedules.
//!
//! # Event model
//!
//! Every [`a2a_schedule::ChunkTransfer`] becomes a fluid *flow job* of
//! `chunks · chunk_bytes` bytes on its directed link. The engine advances a
//! continuous clock between two kinds of events — a job becoming ready and a flow
//! draining — and between events every active flow progresses at a constant rate
//! determined by **max-min fair sharing** over three resource families:
//!
//! * each finite-bandwidth link (its effective bandwidth under the
//!   [`Scenario`], shrunk by the
//!   [`QpContention`](crate::QpContention) factor for the number of concurrent flows
//!   it carries),
//! * each sender's host-injection bandwidth ([`SimParams::host_injection_gbps`]),
//! * each receiver's host-ejection bandwidth (same cap).
//!
//! Rates are recomputed at every event, so a link speeds its survivors up the
//! moment one of its flows drains — a link with pending bytes is never idle, which
//! is what makes the synchronized mode agree exactly with the closed-form model of
//! [`crate::linksim`].
//!
//! # Which path runs
//!
//! Each event makes one recompute of the rates, and the data picks the kernel:
//!
//! * **No host cap** (every `BENCHMARK.json` workload, [`SimParams::default`]):
//!   a flow's only finite resource is its link, so nothing couples two links and
//!   max-min fair sharing is each link's even split `link_bw · qp(n) / n` over
//!   its `n` flows — exactly the level progressive filling freezes such a link
//!   at, since no other freeze charges it. Only the links whose flows or
//!   bandwidth changed get a new level.
//! * **A host cap** ([`SimParams::tacc_cluster`], the figure binaries):
//!   injection and ejection sides couple flows of different links, and every
//!   recompute is progressive filling over all three resource families.
//!
//! Either kernel only produces rates. One byte ledger behind both owns every
//! active flow's bytes, the next drain, retirement, busy time and the bytes of
//! a cut job. A flow's bytes are re-marked only when its rate's bit pattern
//! changes, and a min-tournament over links gives the next drain, so an
//! uncapped event touches only the links whose flows changed. The run loop
//! starts jobs at the clock `t`, asks for the next drain time, and settles the
//! ledger at the time it moves the clock to. Besides that it only asks how
//! many flows are active, whether one runs on a failed link, and how many
//! bytes a cut job has left.
//!
//! Both kernels give every rate, drain time, completion and busy time bit for
//! bit alike (a seeded differential test forces progressive filling onto
//! uncapped runs), and debug builds certify every recompute of either as
//! max-min fair. The ledger, the kernels, the bottleneck tie rule and the cost
//! of an event are documented in `fair_share.rs`.
//!
//! # Execution models (the α–β split)
//!
//! One run loop serves both models; the model only decides when a job is ready.
//!
//! * [`ExecutionModel::Synchronized`] — the MSCCL/oneCCL interpreter semantics: a
//!   global barrier between steps. A step's jobs are ready together,
//!   `α = `[`SimParams::step_sync_latency_s`] after the previous step's last flow
//!   retired (an empty step completes as it starts). On nominal fabrics with no
//!   injection/QP limits this reproduces the analytic
//!   [`crate::simulate_chunked_schedule`] to round-off (both models charge each
//!   step its busiest link's drain time plus the sync).
//! * [`ExecutionModel::DependencyDriven`] — asynchronous execution: a transfer is
//!   ready `α = `[`SimParams::per_hop_latency_s`] after the last inbound copy it
//!   forwards has landed (the [`TransferDag`] extracted from the IR).
//!   Steps overlap wherever the data dependencies allow — a clear win in the
//!   latency-bound regime (no barriers), while at large buffers the overlap can
//!   make later-step flows *contend* with the current bottleneck link, so the
//!   asynchronous completion is bracketed by the busiest-link drain bound from
//!   below and a modest constant times the synchronized completion from above
//!   (fair sharing is work-conserving, not makespan-monotone).
//!
//! β is implicit in the byte volumes and effective bandwidths. Units: bytes,
//! seconds, and GB/s (1 GB/s = 1e9 bytes/s) throughout.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use a2a_mcf::CommoditySet;
use a2a_schedule::{holdings_after, ChunkTransfer, ChunkedSchedule, ScheduleStep, TransferDag};
use a2a_topology::{EdgeId, NodeId, Topology};

use crate::fair_share::{Ledger, LinkShare, Progressive};
use crate::scenario::ScenarioTimeline;
use crate::{Scenario, SimParams, SimReport};

/// How the engine orders transfers in time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutionModel {
    /// Global barrier between steps (store-and-forward interpreters); the per-step
    /// synchronization latency is charged once per step.
    #[default]
    Synchronized,
    /// Data-dependency-driven asynchronous execution; the per-hop latency is charged
    /// per transfer, and steps overlap wherever dependencies allow.
    DependencyDriven,
}

/// Options of an event-driven simulation run.
#[derive(Debug, Clone, Default)]
pub struct EventSimOptions {
    /// Execution model (synchronized barrier vs dependency-driven).
    pub model: ExecutionModel,
    /// Fabric perturbations applied during the run.
    pub scenario: Scenario,
}

/// Why a simulation could not complete.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// A transfer is routed over a link the scenario failed.
    FailedLink {
        /// Step of the offending transfer.
        step: usize,
        /// Sending rank.
        from: NodeId,
        /// Receiving rank.
        to: NodeId,
    },
    /// A transfer uses a link that does not exist in the topology.
    MissingLink {
        /// Step of the offending transfer.
        step: usize,
        /// Sending rank.
        from: NodeId,
        /// Receiving rank.
        to: NodeId,
    },
    /// The schedule is not executable (validation failure during dependency
    /// extraction).
    InvalidSchedule(String),
    /// The event loop could not make progress (should be unreachable for schedules
    /// that pass validation; kept as a hard backstop instead of an infinite loop).
    Stalled {
        /// Jobs that completed before the stall.
        completed: usize,
        /// Total jobs in the schedule.
        total: usize,
    },
    /// The requested run mode is not implemented for this engine configuration.
    Unsupported(String),
    /// A numeric input is outside the range the cost model is defined on (a
    /// non-finite or negative shard size, a bandwidth that is not finite and
    /// positive, a latency or contention penalty that is not finite and
    /// non-negative, or a [`Scenario`] factor, range or event time outside its
    /// domain).
    InvalidInput(String),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::FailedLink { step, from, to } => {
                write!(f, "step {step}: transfer {from}->{to} uses a failed link")
            }
            SimError::MissingLink { step, from, to } => {
                write!(f, "step {step}: transfer {from}->{to} uses a missing link")
            }
            SimError::InvalidSchedule(msg) => write!(f, "invalid schedule: {msg}"),
            SimError::Stalled { completed, total } => {
                write!(f, "simulation stalled after {completed}/{total} jobs")
            }
            SimError::Unsupported(msg) => write!(f, "unsupported run mode: {msg}"),
            SimError::InvalidInput(msg) => write!(f, "invalid input: {msg}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Result alias for simulations that can fail.
pub type SimResult<T> = Result<T, SimError>;

/// Per-link usage accumulated over a run.
#[derive(Debug, Clone, Copy, Default)]
pub struct LinkUsage {
    /// Total bytes shipped over the link.
    pub bytes: f64,
    /// Wall time during which at least one flow was active on the link.
    pub busy_secs: f64,
    /// `bytes / (effective bandwidth · makespan)` — the link's share of the run it
    /// spent moving data at full rate (0 for unused or infinite-bandwidth links).
    pub utilization: f64,
}

/// Detailed result of an event-driven simulation.
#[derive(Debug, Clone)]
pub struct EventReport {
    /// The headline completion/throughput report (same shape as the analytic model's).
    pub report: SimReport,
    /// Per-link usage, indexed by [`EdgeId`].
    pub per_link: Vec<LinkUsage>,
    /// Wall time at which the last transfer of each schedule step finished (pre-sync
    /// in synchronized mode; steps overlap in dependency-driven mode). An empty
    /// step has no transfer: synchronized, it completes as it starts;
    /// dependency-driven, when every earlier step has (their latest completion,
    /// `0.0` for a leading empty step).
    pub step_completion_secs: Vec<f64>,
    /// Number of transfer jobs executed.
    pub num_jobs: usize,
    /// Peak number of concurrently active flows.
    pub max_concurrent_flows: usize,
}

impl EventReport {
    /// The busiest link's utilization.
    pub fn peak_link_utilization(&self) -> f64 {
        self.per_link
            .iter()
            .map(|l| l.utilization)
            .fold(0.0, f64::max)
    }
}

/// One fluid job: a whole-transfer byte volume on a directed link. Dependency
/// structure stays in the [`TransferDag`] it was extracted from (same indexing).
pub(crate) struct SimJob {
    pub(crate) link: EdgeId,
    pub(crate) src: NodeId,
    pub(crate) dst: NodeId,
    pub(crate) bytes: f64,
    pub(crate) step: usize,
}

impl SimJob {
    /// The remaining bytes at or below which a flow of this job counts as
    /// drained (a relative byte tolerance for round-off).
    pub(crate) fn drain_threshold(&self) -> f64 {
        DRAIN_EPS * self.bytes.max(1.0)
    }
}

/// f64 wrapper with total order, for the ready-event heap (times are finite and
/// non-negative).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct OrdF64(pub(crate) f64);

impl Eq for OrdF64 {}
impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Relative byte tolerance below which a flow counts as drained.
const DRAIN_EPS: f64 = 1e-12;

// Observability taps (free while tracing is off; totals accumulate until
// `a2a_obs::reset`). Boundary re-reads count capacity snapshots re-read from
// the scenario timeline; the fair-share taps sit with the kernel.
static OBS_BOUNDARY_REREADS: a2a_obs::Counter = a2a_obs::Counter::new("simnet.boundary_rereads");

/// Simulates a chunked schedule with the event-driven engine.
///
/// The schedule must be executable on `topo`. The dependency extraction re-checks
/// sender buffering and commodity membership (not delivery completeness — run
/// [`ChunkedSchedule::validate`] for the full contract; a schedule that
/// under-delivers still simulates, and its reported throughput assumes the full
/// all-to-all volume). The scenario may slow, re-rate or fail links — a failed
/// link that the schedule still uses is an error, which is exactly the signal that a
/// degraded fabric needs a rerouted schedule (solve on the punctured topology, lower
/// again, and re-simulate under the same scenario).
pub fn simulate_chunked_event(
    topo: &Topology,
    schedule: &ChunkedSchedule,
    shard_bytes: f64,
    params: &SimParams,
    options: &EventSimOptions,
) -> SimResult<EventReport> {
    // The static scenario is the event-free timeline.
    let timeline = ScenarioTimeline::new(options.scenario.clone());
    let run = run_chunked(
        topo,
        schedule,
        shard_bytes,
        params,
        &timeline,
        options.model,
    )?;
    match run {
        TimelineRun::Completed(report) => Ok(report),
        TimelineRun::Interrupted(_) => unreachable!("only an event boundary can interrupt a run"),
    }
}

/// Rejects numeric inputs the cost model is not defined on, before they turn
/// into infinite, negative or NaN completion times (shared with the analytic
/// model of [`crate::linksim`]): the scenario's first invalid builder argument,
/// then the shard size and the parameters.
pub(crate) fn check_inputs(
    shard_bytes: f64,
    params: &SimParams,
    scenario: &Scenario,
) -> SimResult<()> {
    if let Some(msg) = scenario.invalid_input() {
        return Err(SimError::InvalidInput(msg.to_owned()));
    }
    // `(name, value if set, must be strictly positive)`: bandwidths divide byte
    // counts, everything else may be zero; all must be finite.
    let qp_penalty = params.qp_contention.map(|qp| qp.penalty_per_flow);
    let inputs = [
        ("shard_bytes", Some(shard_bytes), false),
        (
            "link_bandwidth_gbps",
            Some(params.link_bandwidth_gbps),
            true,
        ),
        ("host_injection_gbps", params.host_injection_gbps, true),
        (
            "step_sync_latency_s",
            Some(params.step_sync_latency_s),
            false,
        ),
        ("per_hop_latency_s", Some(params.per_hop_latency_s), false),
        ("qp_contention.penalty_per_flow", qp_penalty, false),
    ];
    for (name, value, positive) in inputs {
        let Some(v) = value else { continue };
        if !(v.is_finite() && v >= 0.0 && (v > 0.0 || !positive)) {
            return Err(SimError::InvalidInput(format!("{name} = {v}")));
        }
    }
    Ok(())
}

/// Resolves every transfer of the schedule onto a live link up front, under the
/// given (static) scenario. Returns the fluid jobs plus the per-edge effective
/// bandwidths of the used links (unused links stay at `+inf`).
fn resolve_jobs(
    topo: &Topology,
    schedule: &ChunkedSchedule,
    shard_bytes: f64,
    params: &SimParams,
    scenario: &Scenario,
    dag: &TransferDag,
) -> SimResult<(Vec<SimJob>, Vec<f64>)> {
    let chunk_bytes = shard_bytes / schedule.chunks_per_shard as f64;
    let mut jobs = Vec::with_capacity(dag.jobs.len());
    let mut link_bw = vec![f64::INFINITY; topo.num_edges()];
    for j in &dag.jobs {
        let link = topo.find_edge(j.from, j.to).ok_or(SimError::MissingLink {
            step: j.step,
            from: j.from,
            to: j.to,
        })?;
        let bw = scenario
            .effective_bandwidth(topo, link, params)
            .ok_or(SimError::FailedLink {
                step: j.step,
                from: j.from,
                to: j.to,
            })?;
        link_bw[link] = bw;
        jobs.push(SimJob {
            link,
            src: j.from,
            dst: j.to,
            bytes: j.chunks as f64 * chunk_bytes,
            step: j.step,
        });
    }
    Ok((jobs, link_bw))
}

/// Assembles the [`EventReport`] from a finished engine run. Utilization uses the
/// links' bandwidths at the start of the run (for timeline runs, the t=0 values).
fn build_report(
    schedule: &ChunkedSchedule,
    shard_bytes: f64,
    jobs: &[SimJob],
    link_bw: &[f64],
    outcome: Outcome,
) -> EventReport {
    let makespan = outcome.completion;
    let mut per_link = vec![LinkUsage::default(); link_bw.len()];
    for job in jobs {
        per_link[job.link].bytes += job.bytes;
    }
    for (e, busy) in outcome.link_busy.iter().enumerate() {
        per_link[e].busy_secs = *busy;
        if makespan > 0.0 && link_bw[e].is_finite() && link_bw[e] > 0.0 {
            per_link[e].utilization = per_link[e].bytes / (link_bw[e] * makespan);
        }
    }
    EventReport {
        report: SimReport::new(schedule.commodities.num_endpoints(), shard_bytes, makespan),
        per_link,
        step_completion_secs: outcome.step_completion,
        num_jobs: jobs.len(),
        max_concurrent_flows: outcome.max_concurrent,
    }
}

/// Where the chunks of one commodity sit at snapshot time: `chunks` whole chunks
/// of commodity `(origin → final_dest)` held at rank `at` (equal to `final_dest`
/// for delivered chunks). `stranded_chunks` of them were committed to a transfer
/// whose link failed mid-flight — they are retained whole at the sender and
/// re-enter the residual problem from there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkHolding {
    /// Commodity source rank.
    pub origin: NodeId,
    /// Commodity destination rank.
    pub final_dest: NodeId,
    /// Rank currently holding the chunks.
    pub at: NodeId,
    /// Whole chunks held (delivered if `at == final_dest`).
    pub chunks: usize,
    /// Chunks of `chunks` that were cut off a failed link (`<= chunks`).
    pub stranded_chunks: usize,
}

/// The in-flight state of a run interrupted by a mid-run link failure: where
/// every chunk is, what was executed, and the exact byte ledger of the cut.
///
/// **Partial-transfer accounting.** Every transfer active at the failure instant
/// is cut: the receiver keeps the whole chunks that fully drained; the rest stay
/// whole at the sender (a partially-drained chunk is retransmitted — its drained
/// bytes are reported in [`InFlightSnapshot::in_flight_bytes`], not silently
/// lost). Sender-retained chunks of a transfer whose *own link failed* are
/// marked stranded; retained chunks of live-link transfers are ordinary buffered
/// chunks. Chunk conservation is exact:
/// `delivered_chunks + buffered_chunks + stranded_chunks == total_chunks`, and in
/// bytes `delivered_bytes + buffered_bytes + stranded_bytes + in_flight_bytes ==
/// total_bytes` (the partially-drained fraction of each cut chunk is carried by
/// `in_flight_bytes`; its undrained fraction by the stranded/buffered class of
/// its sender-retained chunk).
#[derive(Debug, Clone)]
pub struct InFlightSnapshot {
    /// Simulated time of the interrupting failure event.
    pub time: f64,
    /// All edges failed at `time` (cumulative over the timeline), in the
    /// *original* topology's edge ids — the set to puncture before re-solving.
    pub failed_links: Vec<EdgeId>,
    /// Number of ranks of the interrupted schedule.
    pub num_ranks: usize,
    /// Chunk granularity of the interrupted schedule.
    pub chunks_per_shard: usize,
    /// Shard size in bytes the run was shipping per commodity.
    pub shard_bytes: f64,
    /// The interrupted schedule's commodities.
    pub commodities: CommoditySet,
    /// Location of every chunk (delivered, buffered or stranded), aggregated per
    /// `(commodity, holding rank)`: the nonzero counts of
    /// [`a2a_schedule::holdings_after`] `executed_prefix`.
    pub holdings: Vec<ChunkHolding>,
    /// The executed prefix: every step that completed before the cut, plus the
    /// cut step truncated to the chunks that fully drained per transfer (omitted
    /// when nothing of the cut step completed). `holdings` is replayed from it,
    /// so a repaired suffix spliced onto it starts from exactly those holdings.
    pub executed_prefix: Vec<ScheduleStep>,
    /// Whole chunks sitting at their final destination.
    pub delivered_chunks: usize,
    /// Whole chunks buffered at intermediate ranks (not stranded).
    pub buffered_chunks: usize,
    /// Whole chunks retained at senders because their link died mid-transfer.
    pub stranded_chunks: usize,
    /// Bytes of `delivered_chunks`.
    pub delivered_bytes: f64,
    /// Bytes of `buffered_chunks`, minus the drained fraction of partially-drained
    /// live-link chunks (that fraction is in `in_flight_bytes`).
    pub buffered_bytes: f64,
    /// Undrained bytes of transfers cut off failed links.
    pub stranded_bytes: f64,
    /// Drained bytes of partially-transferred chunks (work that must be redone:
    /// the chunk is retransmitted whole from its sender).
    pub in_flight_bytes: f64,
}

impl InFlightSnapshot {
    /// Total chunks across all commodities.
    pub fn total_chunks(&self) -> usize {
        self.commodities.len() * self.chunks_per_shard
    }

    /// Total bytes across all commodities.
    pub fn total_bytes(&self) -> f64 {
        self.commodities.len() as f64 * self.shard_bytes
    }

    /// Holdings still awaiting delivery (`at != final_dest`) — the residual
    /// demand of the re-planning problem.
    pub fn undelivered(&self) -> impl Iterator<Item = &ChunkHolding> + '_ {
        self.holdings.iter().filter(|h| h.at != h.final_dest)
    }
}

/// Result of a timeline run: either the schedule completed (possibly under
/// degraded capacities), or a failure stranded in-flight work and the run was
/// interrupted with a snapshot to re-plan from.
#[derive(Debug, Clone)]
pub enum TimelineRun {
    /// The run completed; the report's utilization figures use the t=0 bandwidths.
    Completed(EventReport),
    /// A link failure interrupted the run mid-flight.
    Interrupted(InFlightSnapshot),
}

/// Simulates a chunked schedule under a [`ScenarioTimeline`] (synchronized
/// execution only).
///
/// Events at `t <= 0` fold into the base scenario, so a failure at `t = 0`
/// rejects the schedule up front with [`SimError::FailedLink`], exactly like the
/// static engine; an event-free timeline reproduces [`simulate_chunked_event`]
/// bit-for-bit. Dynamic events re-rate links at their event boundary (drains in
/// progress are cut and rates recomputed). A dynamic link failure
/// ([`ScenarioTimeline::with_link_failure_at`]) checks whether any *remaining*
/// transfer (active or in a future step) uses the dead link: if none does, the
/// run continues; otherwise the run stops and returns an [`InFlightSnapshot`]
/// with partial-transfer accounting.
pub fn simulate_chunked_timeline(
    topo: &Topology,
    schedule: &ChunkedSchedule,
    shard_bytes: f64,
    params: &SimParams,
    timeline: &ScenarioTimeline,
    model: ExecutionModel,
) -> SimResult<TimelineRun> {
    if model != ExecutionModel::Synchronized {
        return Err(SimError::Unsupported(
            "timeline simulation is only implemented for synchronized execution".into(),
        ));
    }
    run_chunked(topo, schedule, shard_bytes, params, timeline, model)
}

/// The one event-engine run behind both entry points: jobs resolved under the
/// scenario at `t = 0` (a failure there rejects the schedule), the engine run
/// across the timeline's dynamic boundaries, then the report or the snapshot.
fn run_chunked(
    topo: &Topology,
    schedule: &ChunkedSchedule,
    shard_bytes: f64,
    params: &SimParams,
    timeline: &ScenarioTimeline,
    model: ExecutionModel,
) -> SimResult<TimelineRun> {
    let _obs = a2a_obs::span("simnet.run");
    // The scenario at t = 0 carries the timeline's invalid input, if any.
    let start = timeline.scenario_at(0.0);
    check_inputs(shard_bytes, params, &start)?;
    let dag = {
        let _obs = a2a_obs::span("simnet.dag");
        TransferDag::from_schedule(schedule).map_err(SimError::InvalidSchedule)?
    };
    let (jobs, link_bw) = resolve_jobs(topo, schedule, shard_bytes, params, &start, &dag)?;
    // Per-message α multipliers (1.0 without jitter). Job ids are the
    // schedule's step-major transfer order, the message identity the scenario
    // keys its draw on.
    let alpha_factor: Vec<f64> = (0..jobs.len()).map(|id| start.alpha_factor(id)).collect();

    let mut engine = Engine::new(topo, &jobs, &dag, link_bw.clone(), params, &alpha_factor);
    let boundaries = resolve_boundaries(topo, params, timeline, &link_bw);
    Ok(match engine.run(model, &boundaries)? {
        Ok(o) => TimelineRun::Completed(build_report(schedule, shard_bytes, &jobs, &link_bw, o)),
        Err(cut) => {
            let at = &boundaries[cut.boundary];
            TimelineRun::Interrupted(build_snapshot(schedule, shard_bytes, &jobs, &dag, at, &cut))
        }
    })
}

/// Resolves each dynamic event of `timeline` into the full capacity table in
/// effect from its time on; `link_bw` is the run's starting table.
fn resolve_boundaries(
    topo: &Topology,
    params: &SimParams,
    timeline: &ScenarioTimeline,
    link_bw: &[f64],
) -> Vec<Boundary> {
    timeline
        .dynamic_event_times()
        .into_iter()
        .map(|time| {
            let sc = timeline.scenario_at(time);
            let bw: Vec<Option<f64>> = (0..link_bw.len())
                .map(|e| sc.effective_bandwidth(topo, e, params))
                .collect();
            // A failed link has no bandwidth; only used links need a finite
            // entry (matching the static resolution), unused ones stay +inf.
            let entry = |(b, used): (&Option<f64>, &f64)| match b {
                None => 0.0,
                Some(b) if used.is_finite() => *b,
                Some(_) => f64::INFINITY,
            };
            Boundary {
                time,
                link_bw: bw.iter().zip(link_bw).map(entry).collect(),
                failed: bw.iter().map(Option::is_none).collect(),
                failed_links: (0..bw.len()).filter(|&e| bw[e].is_none()).collect(),
            }
        })
        .collect()
}

/// A resolved timeline event boundary: the full capacity table in effect from
/// `time` on.
struct Boundary {
    time: f64,
    link_bw: Vec<f64>,
    /// Per-edge failure flag at this time (cumulative).
    failed: Vec<bool>,
    /// Failed edge ids at this time, ascending.
    failed_links: Vec<EdgeId>,
}

/// Raw interruption record from the timeline engine.
struct Interrupt {
    /// Failure event time.
    time: f64,
    /// Step that was draining (or about to start) when the run was cut.
    cut_step: usize,
    /// `(job id, remaining bytes)` for every job of the cut step; jobs that fully
    /// drained before the cut carry `0.0`.
    remaining: Vec<(usize, f64)>,
    /// Index of the triggering boundary.
    boundary: usize,
}

/// Builds the [`InFlightSnapshot`] of an interrupted run: partial-transfer
/// accounting truncates the cut step to its fully drained chunks and keeps the
/// stranded and in-flight ledger, and the holdings are [`holdings_after`] the
/// executed prefix.
fn build_snapshot(
    schedule: &ChunkedSchedule,
    shard_bytes: f64,
    jobs: &[SimJob],
    dag: &TransferDag,
    boundary: &Boundary,
    cut: &Interrupt,
) -> InFlightSnapshot {
    let ncomm = schedule.commodities.len();
    let cps = schedule.chunks_per_shard;
    let chunk_bytes = shard_bytes / cps as f64;
    let n = schedule.num_ranks;

    // Cut the in-flight step: each transfer keeps its fully-drained chunks at
    // the receiver; the rest stay whole at the sender. Track the stranded ones
    // (failed link) and the byte ledger of partially-drained chunks.
    let mut stranded_at = vec![vec![0usize; n]; ncomm];
    let mut stranded_chunks = 0usize;
    let mut stranded_bytes = 0.0f64;
    let mut in_flight_bytes = 0.0f64;
    let mut partial_live_bytes = 0.0f64;
    let mut truncated = Vec::new();
    for &(job_id, remaining) in &cut.remaining {
        let job = &jobs[job_id];
        let tj = &dag.jobs[job_id];
        let tr = &schedule.steps[tj.step].transfers[tj.index_in_step];
        debug_assert_eq!((tr.from, tr.to), (job.src, job.dst));
        let drained = (job.bytes - remaining).max(0.0);
        let completed = ((drained / chunk_bytes + 1e-9).floor() as usize).min(tr.chunks);
        let retained = tr.chunks - completed;
        let partial = (drained - completed as f64 * chunk_bytes).max(0.0);
        if boundary.failed[job.link] {
            let idx = schedule
                .commodities
                .index_of(tr.origin, tr.final_dest)
                .expect("schedule transfer names a known commodity");
            stranded_at[idx][tr.from] += retained;
            stranded_chunks += retained;
            stranded_bytes += remaining;
            in_flight_bytes += partial;
        } else {
            partial_live_bytes += partial;
            in_flight_bytes += partial;
        }
        if completed > 0 {
            truncated.push(ChunkTransfer {
                from: tr.from,
                to: tr.to,
                origin: tr.origin,
                final_dest: tr.final_dest,
                chunks: completed,
            });
        }
    }

    let mut executed_prefix: Vec<ScheduleStep> =
        schedule.steps.iter().take(cut.cut_step).cloned().collect();
    if !truncated.is_empty() {
        executed_prefix.push(ScheduleStep {
            transfers: truncated,
        });
    }
    let buffered = holdings_after(schedule, &executed_prefix)
        .expect("the dependency extraction accepted the schedule, so its prefix replays");

    let mut holdings = Vec::new();
    let mut delivered_chunks = 0usize;
    for (idx, _, d) in schedule.commodities.iter() {
        for at in 0..n {
            let chunks = buffered[idx][at];
            if chunks == 0 {
                continue;
            }
            if at == d {
                delivered_chunks += chunks;
            }
            let (origin, final_dest) = schedule.commodities.pair(idx);
            holdings.push(ChunkHolding {
                origin,
                final_dest,
                at,
                chunks,
                stranded_chunks: stranded_at[idx][at].min(chunks),
            });
        }
    }
    let total_chunks = ncomm * cps;
    let buffered_chunks = total_chunks - delivered_chunks - stranded_chunks;
    InFlightSnapshot {
        time: cut.time,
        failed_links: boundary.failed_links.clone(),
        num_ranks: n,
        chunks_per_shard: cps,
        shard_bytes,
        commodities: schedule.commodities.clone(),
        holdings,
        executed_prefix,
        delivered_chunks,
        buffered_chunks,
        stranded_chunks,
        delivered_bytes: delivered_chunks as f64 * chunk_bytes,
        buffered_bytes: buffered_chunks as f64 * chunk_bytes - partial_live_bytes,
        stranded_bytes,
        in_flight_bytes,
    }
}

/// Raw timing outcome of one engine run.
struct Outcome {
    completion: f64,
    step_completion: Vec<f64>,
    link_busy: Vec<f64>,
    max_concurrent: usize,
}

struct Engine<'a> {
    jobs: &'a [SimJob],
    dag: &'a TransferDag,
    /// Current effective bandwidth per edge. Owned because timeline runs rewrite
    /// it at event boundaries; static runs never touch it after construction.
    link_bw: Vec<f64>,
    params: &'a SimParams,
    /// Per-job α multiplier from the scenario's per-message jitter (all 1.0
    /// when jitter is off).
    alpha_factor: &'a [f64],
    /// Every active flow's bytes, the drain search, retirement and busy time.
    ledger: Ledger,
    sharing: Sharing,
    /// Recomputes so far (one per event), for the differential tests.
    #[cfg(test)]
    recomputes: usize,
}

/// How the engine computes the active flows' rates — chosen by the data, not
/// by an option (module docs, "Which path runs").
enum Sharing {
    /// No host cap: every flow's only finite resource is its link.
    PerLink(LinkShare),
    /// A host cap couples the flows of different links.
    Progressive(Progressive),
}

impl<'a> Engine<'a> {
    fn new(
        topo: &Topology,
        jobs: &'a [SimJob],
        dag: &'a TransferDag,
        link_bw: Vec<f64>,
        params: &'a SimParams,
        alpha_factor: &'a [f64],
    ) -> Self {
        Self {
            jobs,
            dag,
            link_bw,
            params,
            alpha_factor,
            ledger: Ledger::new(topo.num_edges(), jobs),
            sharing: if params.host_injection_gbps.is_none() {
                Sharing::PerLink(LinkShare)
            } else {
                Sharing::Progressive(Progressive::new(topo.num_edges(), topo.num_nodes()))
            },
            #[cfg(test)]
            recomputes: 0,
        }
    }

    /// One recompute of the active flows' max-min fair rates at time `t`;
    /// returns the time at which the first of them drains.
    fn next_drain(&mut self, t: f64) -> f64 {
        #[cfg(test)]
        {
            self.recomputes += 1;
        }
        let (jobs, link_bw, params) = (self.jobs, &self.link_bw, self.params);
        match &mut self.sharing {
            Sharing::PerLink(links) => links.rates(&mut self.ledger, jobs, link_bw, params, t),
            Sharing::Progressive(fill) => fill.rates(&mut self.ledger, jobs, link_bw, params, t),
        }
        self.ledger.next_drain()
    }

    /// Installs the capacity table of a timeline boundary.
    fn rerate(&mut self, link_bw: &[f64]) {
        for (e, (old, new)) in self.link_bw.iter().zip(link_bw).enumerate() {
            if old.to_bits() != new.to_bits() {
                self.ledger.touch(e);
            }
        }
        self.link_bw.copy_from_slice(link_bw);
        OBS_BOUNDARY_REREADS.incr();
    }

    /// Runs the jobs to completion, or to the first timeline boundary whose
    /// failure strands remaining work. Each pass is one event: the clock moves
    /// to the next drain, readiness or boundary (an idle fabric waits for the
    /// next readiness), the ledger settles there, a boundary re-rates the
    /// links, and every job ready by then starts.
    fn run(
        &mut self,
        model: ExecutionModel,
        boundaries: &[Boundary],
    ) -> SimResult<Result<Outcome, Interrupt>> {
        let (jobs, dag, alpha_factor, total) =
            (self.jobs, self.dag, self.alpha_factor, self.jobs.len());
        let first_job = |step| jobs.partition_point(|j: &SimJob| j.step < step);
        let mut ready = Readiness::new(model, dag, self.params, alpha_factor);
        let mut step_completion = vec![0.0f64; dag.num_steps];
        let (mut t, mut completed, mut max_concurrent, mut bi) = (0.0f64, 0, 0, 0);
        // A pass retires, starts, crosses a boundary or ends: the guard turns a
        // bookkeeping bug into an error, not a hang.
        let mut guard = 4 * total + 2 * (step_completion.len() + boundaries.len()) + 16;
        loop {
            guard -= 1;
            let stalled = SimError::Stalled { completed, total };
            let idle = self.ledger.flows() == 0;
            let next = match ready.next(idle, &step_completion) {
                _ if guard == 0 => return Err(stalled),
                rt if !idle => {
                    let drain = self.next_drain(t);
                    rt.map_or(drain, |rt| drain.min(rt))
                }
                Some(rt) => rt,
                None if completed == total => break,
                None => return Err(stalled),
            };
            let boundary = boundaries.get(bi).filter(|b| b.time <= next);
            t = match boundary {
                Some(b) => t.max(b.time),
                None if idle => t.max(next),
                None => next,
            };
            if !idle {
                self.ledger.settle(t, |job| {
                    completed += 1;
                    let step = jobs[job].step;
                    step_completion[step] = step_completion[step].max(t);
                    if let Readiness::Dependencies(d) = &mut ready {
                        for &s in dag.successors(job) {
                            d.indeg[s] -= 1;
                            if d.indeg[s] == 0 {
                                let rt = t + d.per_hop * alpha_factor[s];
                                d.heap.push(Reverse((OrdF64(rt), s)));
                            }
                        }
                    }
                });
            }
            if let Some(b) = boundary {
                bi += 1;
                self.rerate(&b.link_bw);
                let Readiness::Barrier(barrier) = &ready else {
                    unreachable!("only synchronized runs take a timeline")
                };
                // Mid-drain the cut falls in the running step; in a sync
                // window, on the boundary of the next one.
                let cut_step = barrier.step - usize::from(!idle);
                let started = first_job(cut_step)..first_job(barrier.step);
                let unstarted = &jobs[started.end..];
                if self.ledger.uses_any(&b.failed) || unstarted.iter().any(|j| b.failed[j.link]) {
                    let remaining = started.map(|j| (j, self.ledger.remaining_of(j, t)));
                    return Ok(Err(Interrupt {
                        time: t,
                        cut_step,
                        remaining: remaining.collect(),
                        boundary: bi - 1,
                    }));
                }
            }
            // Start every job ready by `t`: under the barrier whole steps in
            // job order, cascading through empty steps whose sync ends by `t`.
            while ready
                .next(self.ledger.flows() == 0, &step_completion)
                .is_some_and(|rt| rt <= t)
            {
                match &mut ready {
                    Readiness::Barrier(b) => {
                        // Spans nest: close the last step's before the next opens.
                        b._span = None;
                        if let Some(done) = step_completion.get_mut(b.step) {
                            b._span = Some(a2a_obs::span("simnet.step"));
                            let step = first_job(b.step)..first_job(b.step + 1);
                            b.alpha = step.clone().fold(1.0, |a, job| a.max(alpha_factor[job]));
                            if step.is_empty() {
                                *done = t;
                            }
                            step.for_each(|job| self.ledger.arrive(job, t));
                        }
                        b.step += 1;
                    }
                    Readiness::Dependencies(d) => {
                        let Reverse((_, id)) = d.heap.pop().expect("a ready job");
                        self.ledger.arrive(id, t);
                    }
                }
            }
            max_concurrent = max_concurrent.max(self.ledger.flows());
        }
        if model == ExecutionModel::DependencyDriven {
            complete_empty_steps(jobs, &mut step_completion);
        }
        Ok(Ok(Outcome {
            completion: t,
            step_completion,
            link_busy: self.ledger.take_busy(),
            max_concurrent,
        }))
    }
}

/// No job retires in an empty step, so under dependency-driven execution it
/// completes when every earlier step has: at their latest completion, `0.0`
/// for a leading one. `jobs` are in step-major order.
fn complete_empty_steps(jobs: &[SimJob], step_completion: &mut [f64]) {
    let (mut done, mut first) = (0.0f64, 0);
    for (step, at) in step_completion.iter_mut().enumerate() {
        let end = first + jobs[first..].partition_point(|j| j.step == step);
        if end == first {
            *at = done;
        }
        (done, first) = (done.max(*at), end);
    }
}

/// When jobs become ready: the one part of a run the execution model decides
/// (module docs, "Execution models").
enum Readiness {
    Barrier(Barrier),
    Dependencies(Dependencies),
}

/// The next step to start (past the last once the run has ended), the largest
/// jitter factor of the step before it, and a span from one step's start to
/// the next's.
struct Barrier {
    sync: f64,
    step: usize,
    alpha: f64,
    _span: Option<a2a_obs::Span>,
}

/// Each job's unretired dependencies (its dependents are
/// [`TransferDag::successors`]), and the ready jobs not started yet, earliest
/// first.
struct Dependencies {
    per_hop: f64,
    indeg: Vec<usize>,
    heap: BinaryHeap<Reverse<(OrdF64, usize)>>,
    _span: a2a_obs::Span,
}

impl Readiness {
    fn new(model: ExecutionModel, dag: &TransferDag, params: &SimParams, alpha: &[f64]) -> Self {
        if model == ExecutionModel::Synchronized {
            return Self::Barrier(Barrier {
                sync: params.step_sync_latency_s,
                step: 0,
                alpha: 1.0,
                _span: None,
            });
        }
        let _span = a2a_obs::span("simnet.dependency_run");
        let per_hop = params.per_hop_latency_s;
        let indeg: Vec<usize> = (0..dag.jobs.len()).map(|id| dag.deps(id).len()).collect();
        let heap = (0..indeg.len())
            .filter(|&id| indeg[id] == 0)
            .map(|id| Reverse((OrdF64(per_hop * alpha[id]), id)))
            .collect();
        Self::Dependencies(Dependencies {
            per_hop,
            indeg,
            heap,
            _span,
        })
    }

    /// When the next job (under the barrier: the next step, or the end of
    /// the run) is ready; `None` if nothing is pending.
    fn next(&self, idle: bool, step_completion: &[f64]) -> Option<f64> {
        match self {
            Self::Barrier(b) if idle && b.step <= step_completion.len() => {
                let last = b.step.checked_sub(1);
                Some(last.map_or(0.0, |s| step_completion[s] + b.sync * b.alpha))
            }
            Self::Barrier(_) => None,
            Self::Dependencies(d) => d.heap.peek().map(|&Reverse((OrdF64(rt), _))| rt),
        }
    }
}

#[cfg(test)]
mod eager;

/// The eager reference's result (test builds only); the engine's
/// `Result<Outcome, Interrupt>` converts into it.
#[cfg(test)]
enum TimelineOutcome {
    Completed(Outcome),
    Interrupted(Interrupt),
}

#[cfg(test)]
impl From<Result<Outcome, Interrupt>> for TimelineOutcome {
    fn from(run: Result<Outcome, Interrupt>) -> Self {
        match run {
            Ok(outcome) => Self::Completed(outcome),
            Err(cut) => Self::Interrupted(cut),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fair_share::Progressive;
    use a2a_mcf::tscolgen::solve_tsmcf_colgen_auto;
    use a2a_mcf::tsmcf::{minimum_steps, solve_tsmcf_among_dense};
    use a2a_mcf::CommoditySet;
    use a2a_topology::generators;

    /// The lowered *dense-reference* tsMCF schedule at `steps` (default: the
    /// minimum). Pinned to the dense vertex on purpose: the recorded bit
    /// patterns of `empty_timeline_reproduces_the_static_engine_exactly` and the
    /// 1.25x bracket of `dependency_driven_is_bracketed_by_drain_bound_and_sync_overhead`
    /// are properties of that vertex's schedule.
    fn chunked(topo: &Topology, steps: Option<usize>) -> ChunkedSchedule {
        let commodities = CommoditySet::all_pairs(topo.num_nodes());
        let steps = steps.unwrap_or_else(|| minimum_steps(topo, &commodities).unwrap());
        let sol = solve_tsmcf_among_dense(topo, commodities, steps).unwrap();
        ChunkedSchedule::from_tsmcf(topo, &sol, 128).unwrap()
    }

    #[test]
    fn synchronized_engine_matches_the_analytic_model() {
        for topo in [
            generators::complete(4),
            generators::ring(4),
            generators::hypercube(3),
        ] {
            let sched = chunked(&topo, None);
            let params = SimParams::default();
            let shard = 8.0 * 1024.0 * 1024.0;
            let analytic = crate::simulate_chunked_schedule(&topo, &sched, shard, &params);
            let event =
                simulate_chunked_event(&topo, &sched, shard, &params, &EventSimOptions::default())
                    .unwrap();
            let rel = (analytic.completion_seconds - event.report.completion_seconds).abs()
                / analytic.completion_seconds;
            assert!(
                rel < 1e-9,
                "{}: analytic {} vs event {}",
                topo.name(),
                analytic.completion_seconds,
                event.report.completion_seconds
            );
        }
    }

    /// Asynchronous execution is bracketed, not dominated: overlapping steps can
    /// contend on the bottleneck link (fair sharing is work-conserving but not
    /// makespan-monotone), so dependency-driven completion may exceed the barrier
    /// model by a small factor at large buffers — but it can never beat the
    /// busiest-link drain bound, and at small buffers it must win by skipping the
    /// per-step synchronizations (the Fig. 4 cut-through observation).
    #[test]
    fn dependency_driven_is_bracketed_by_drain_bound_and_sync_overhead() {
        for topo in [
            generators::ring(4),
            generators::hypercube(3),
            generators::torus(&[3, 3]),
        ] {
            let sched = chunked(&topo, None);
            let params = SimParams::default();
            let dep_opts = EventSimOptions {
                model: ExecutionModel::DependencyDriven,
                ..EventSimOptions::default()
            };

            let shard = 4.0 * 1024.0 * 1024.0;
            let sync =
                simulate_chunked_event(&topo, &sched, shard, &params, &EventSimOptions::default())
                    .unwrap();
            let dep = simulate_chunked_event(&topo, &sched, shard, &params, &dep_opts).unwrap();
            assert_eq!(dep.num_jobs, sync.num_jobs);
            // Lower bound: no execution drains the busiest link faster than the link.
            let bw = params.link_bandwidth_gbps * 1e9;
            let busiest_bytes = dep.per_link.iter().map(|l| l.bytes).fold(0.0, f64::max);
            assert!(
                dep.report.completion_seconds >= busiest_bytes / bw - 1e-12,
                "{}: dep {} beats the busiest-link bound {}",
                topo.name(),
                dep.report.completion_seconds,
                busiest_bytes / bw
            );
            // Upper bound: overlap-induced contention stays a modest constant factor.
            assert!(
                dep.report.completion_seconds <= sync.report.completion_seconds * 1.25,
                "{}: dep {} vs sync {}",
                topo.name(),
                dep.report.completion_seconds,
                sync.report.completion_seconds
            );

            // Latency-bound regime: skipping the barrier must win outright.
            let tiny = 512.0;
            let sync_tiny =
                simulate_chunked_event(&topo, &sched, tiny, &params, &EventSimOptions::default())
                    .unwrap();
            let dep_tiny = simulate_chunked_event(&topo, &sched, tiny, &params, &dep_opts).unwrap();
            assert!(
                dep_tiny.report.completion_seconds < sync_tiny.report.completion_seconds,
                "{}: dep {} should beat sync {} at tiny buffers",
                topo.name(),
                dep_tiny.report.completion_seconds,
                sync_tiny.report.completion_seconds
            );
        }
    }

    #[test]
    fn per_link_stats_account_for_every_byte() {
        let topo = generators::hypercube(3);
        let sched = chunked(&topo, None);
        let shard = 1024.0 * 1024.0;
        let chunk = shard / sched.chunks_per_shard as f64;
        let expected: f64 = sched
            .steps
            .iter()
            .flat_map(|s| s.transfers.iter())
            .map(|t| t.chunks as f64 * chunk)
            .sum();
        let rep = simulate_chunked_event(
            &topo,
            &sched,
            shard,
            &SimParams::default(),
            &EventSimOptions::default(),
        )
        .unwrap();
        let total: f64 = rep.per_link.iter().map(|l| l.bytes).sum();
        assert!((total - expected).abs() < 1e-6 * expected);
        assert!(rep.peak_link_utilization() <= 1.0 + 1e-9);
        assert!(rep.peak_link_utilization() > 0.0);
        assert!(rep.max_concurrent_flows >= 1);
        // Step completions are monotone in synchronized mode.
        assert!(rep
            .step_completion_secs
            .windows(2)
            .all(|w| w[0] <= w[1] + 1e-12));
    }

    #[test]
    fn link_slowdown_stretches_completion() {
        let topo = generators::torus(&[3, 3]);
        let sched = chunked(&topo, None);
        let params = SimParams::default();
        let shard = 4.0 * 1024.0 * 1024.0;
        let nominal =
            simulate_chunked_event(&topo, &sched, shard, &params, &EventSimOptions::default())
                .unwrap();
        // Slow a link the schedule actually uses.
        let used = nominal
            .per_link
            .iter()
            .position(|l| l.bytes > 0.0)
            .expect("some link carries traffic");
        let slow = simulate_chunked_event(
            &topo,
            &sched,
            shard,
            &params,
            &EventSimOptions {
                scenario: Scenario::nominal().with_link_slowdown(used, 0.25),
                ..EventSimOptions::default()
            },
        )
        .unwrap();
        assert!(
            slow.report.completion_seconds > nominal.report.completion_seconds,
            "slowdown {} must exceed nominal {}",
            slow.report.completion_seconds,
            nominal.report.completion_seconds
        );
    }

    #[test]
    fn straggler_nodes_slow_their_sends() {
        let topo = generators::hypercube(3);
        let sched = chunked(&topo, None);
        let params = SimParams::default();
        let shard = 4.0 * 1024.0 * 1024.0;
        let nominal =
            simulate_chunked_event(&topo, &sched, shard, &params, &EventSimOptions::default())
                .unwrap();
        let straggle = simulate_chunked_event(
            &topo,
            &sched,
            shard,
            &params,
            &EventSimOptions {
                scenario: Scenario::nominal().with_straggler(0, 0.1),
                ..EventSimOptions::default()
            },
        )
        .unwrap();
        assert!(
            straggle.report.completion_seconds > nominal.report.completion_seconds * 1.5,
            "straggler {} vs nominal {}",
            straggle.report.completion_seconds,
            nominal.report.completion_seconds
        );
    }

    #[test]
    fn failed_link_reports_the_offending_transfer() {
        let topo = generators::ring(3);
        let sched = chunked(&topo, None);
        // Every link of a directed 3-ring is used by the all-to-all.
        let err = simulate_chunked_event(
            &topo,
            &sched,
            1024.0,
            &SimParams::default(),
            &EventSimOptions {
                scenario: Scenario::nominal().with_failed_link(0),
                ..EventSimOptions::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, SimError::FailedLink { .. }), "{err}");
    }

    /// A transfer from a rank the schedule does not have is a typed error of
    /// the dependency extraction, not an index panic.
    #[test]
    fn out_of_range_rank_is_an_invalid_schedule() {
        let topo = generators::ring(3);
        let mut sched = chunked(&topo, None);
        sched.steps[0].transfers.push(a2a_schedule::ChunkTransfer {
            from: 7,
            to: 0,
            origin: 0,
            final_dest: 1,
            chunks: 1,
        });
        let err = simulate_chunked_event(
            &topo,
            &sched,
            1024.0,
            &SimParams::default(),
            &EventSimOptions::default(),
        )
        .unwrap_err();
        assert!(
            matches!(&err, SimError::InvalidSchedule(msg) if msg.contains("rank 7")),
            "{err}"
        );
    }

    /// Zero chunks per shard with zero-chunk transfers moves nothing: both
    /// event models, the timeline engine and the analytic model reject it
    /// instead of reporting a completion (or a throughput) for it.
    #[test]
    fn zero_granularity_is_an_invalid_schedule() {
        let topo = generators::ring(3);
        let mut sched = chunked(&topo, None);
        sched.chunks_per_shard = 0;
        for tr in sched.steps.iter_mut().flat_map(|s| &mut s.transfers) {
            tr.chunks = 0;
        }
        let params = SimParams::default();
        let invalid = |err: SimError| {
            assert!(
                matches!(&err, SimError::InvalidSchedule(msg) if msg.contains("granularity")),
                "{err}"
            );
        };
        for model in [
            ExecutionModel::Synchronized,
            ExecutionModel::DependencyDriven,
        ] {
            let options = EventSimOptions {
                model,
                ..EventSimOptions::default()
            };
            invalid(simulate_chunked_event(&topo, &sched, 1024.0, &params, &options).unwrap_err());
        }
        let timeline = ScenarioTimeline::new(Scenario::nominal());
        let run = simulate_chunked_timeline(
            &topo,
            &sched,
            1024.0,
            &params,
            &timeline,
            ExecutionModel::Synchronized,
        );
        invalid(run.unwrap_err());
        let analytic = crate::simulate_chunked_schedule_with(
            &topo,
            &sched,
            1024.0,
            &params,
            &Scenario::nominal(),
        );
        invalid(analytic.unwrap_err());
    }

    #[test]
    fn host_injection_caps_the_event_engine() {
        let topo = generators::complete(4);
        let sched = chunked(&topo, Some(1));
        let shard = 16.0 * 1024.0 * 1024.0;
        let free = simulate_chunked_event(
            &topo,
            &sched,
            shard,
            &SimParams::default(),
            &EventSimOptions::default(),
        )
        .unwrap();
        let capped_params = SimParams {
            host_injection_gbps: Some(1.0),
            ..SimParams::default()
        };
        let capped = simulate_chunked_event(
            &topo,
            &sched,
            shard,
            &capped_params,
            &EventSimOptions::default(),
        )
        .unwrap();
        assert!(capped.report.completion_seconds > free.report.completion_seconds);
        // 3 shards of 16 MiB per node at 1 GB/s injection is at least 48 ms.
        assert!(capped.report.completion_seconds >= 3.0 * shard / 1e9 - 1e-9);
    }

    /// The static entry point and an event-free timeline agree bit for bit, and
    /// both sit on the completion times recorded when the static engine still
    /// had a run loop of its own (PR 11) — the shared loop did not move them.
    #[test]
    fn empty_timeline_reproduces_the_static_engine_exactly() {
        // (topology, completion bits, per-step completion bits) at 4 MiB
        // shards, 128 chunks, α jitter seed 9 in [1, 2].
        let recorded: [(Topology, u64, &[u64]); 3] = [
            (
                generators::hypercube(3),
                0x3f83_9a9a_f5db_557b,
                &[
                    0x3f70_7e1f_e91b_0b70,
                    0x3f7b_ba9d_4f9e_95ca,
                    0x3f83_7b59_7457_b45e,
                ],
            ),
            (
                generators::torus(&[3, 3]),
                0x3f80_bc40_2582_1895,
                &[0x3f70_7e1f_e91b_0b70, 0x3f80_9cfe_a3fe_7778],
            ),
            (
                generators::ring(4),
                0x3f80_da86_0628_9c72,
                &[
                    0x3f70_7e1f_e91b_0b70,
                    0x3f7b_ba77_cd88_79f0,
                    0x3f80_bba7_4b45_306b,
                ],
            ),
        ];
        for (topo, completion_bits, step_bits) in recorded {
            let sched = chunked(&topo, None);
            let params = SimParams::default();
            let shard = 4.0 * 1024.0 * 1024.0;
            let scenario = Scenario::nominal().with_alpha_jitter(9, 1.0, 2.0);
            let static_rep = simulate_chunked_event(
                &topo,
                &sched,
                shard,
                &params,
                &EventSimOptions {
                    scenario: scenario.clone(),
                    ..EventSimOptions::default()
                },
            )
            .unwrap();
            let analytic =
                crate::simulate_chunked_schedule_with(&topo, &sched, shard, &params, &scenario)
                    .unwrap();
            let tl = ScenarioTimeline::new(scenario);
            let TimelineRun::Completed(tl_rep) = simulate_chunked_timeline(
                &topo,
                &sched,
                shard,
                &params,
                &tl,
                ExecutionModel::Synchronized,
            )
            .unwrap() else {
                panic!("empty timeline must complete");
            };
            // Bit-for-bit against the static entry point...
            assert_eq!(
                tl_rep.report.completion_seconds,
                static_rep.report.completion_seconds
            );
            assert_eq!(tl_rep.step_completion_secs, static_rep.step_completion_secs);
            // ...and against the recorded static-loop values.
            assert_eq!(
                tl_rep.report.completion_seconds.to_bits(),
                completion_bits,
                "{}: completion moved to {}",
                topo.name(),
                tl_rep.report.completion_seconds
            );
            let steps: Vec<u64> = tl_rep
                .step_completion_secs
                .iter()
                .map(|s| s.to_bits())
                .collect();
            assert_eq!(steps, step_bits, "{}: step completions moved", topo.name());
            // And the analytic == event-sync 1e-9 contract survives.
            let rel = (analytic.completion_seconds - tl_rep.report.completion_seconds).abs()
                / analytic.completion_seconds;
            assert!(rel < 1e-9, "{}: rel {rel}", topo.name());
        }
    }

    #[test]
    fn t_zero_failure_rejects_like_the_static_scenario() {
        let topo = generators::ring(3);
        let sched = chunked(&topo, None);
        let static_err = simulate_chunked_event(
            &topo,
            &sched,
            1024.0,
            &SimParams::default(),
            &EventSimOptions {
                scenario: Scenario::nominal().with_failed_link(0),
                ..EventSimOptions::default()
            },
        )
        .unwrap_err();
        let tl = ScenarioTimeline::nominal().with_link_failure_at(0.0, 0);
        let tl_err = simulate_chunked_timeline(
            &topo,
            &sched,
            1024.0,
            &SimParams::default(),
            &tl,
            ExecutionModel::Synchronized,
        )
        .unwrap_err();
        assert!(matches!(tl_err, SimError::FailedLink { .. }));
        assert_eq!(
            tl_err, static_err,
            "t=0 failure must match the static rejection"
        );
    }

    #[test]
    fn nonfatal_timeline_events_rerate_without_interrupting() {
        let topo = generators::torus(&[3, 3]);
        let sched = chunked(&topo, None);
        let params = SimParams::default();
        let shard = 4.0 * 1024.0 * 1024.0;
        let nominal =
            simulate_chunked_event(&topo, &sched, shard, &params, &EventSimOptions::default())
                .unwrap();
        let used = nominal
            .per_link
            .iter()
            .position(|l| l.bytes > 0.0)
            .expect("some link carries traffic");
        let mid = nominal.report.completion_seconds * 0.3;
        // Degrade mid-run: completes, slower than nominal, faster than degraded-from-t0.
        let tl = ScenarioTimeline::nominal().with_link_degrade_at(mid, used, 0.1);
        let TimelineRun::Completed(mid_deg) = simulate_chunked_timeline(
            &topo,
            &sched,
            shard,
            &params,
            &tl,
            ExecutionModel::Synchronized,
        )
        .unwrap() else {
            panic!("degrade must not interrupt");
        };
        let from_start = simulate_chunked_event(
            &topo,
            &sched,
            shard,
            &params,
            &EventSimOptions {
                scenario: Scenario::nominal().with_link_slowdown(used, 0.1),
                ..EventSimOptions::default()
            },
        )
        .unwrap();
        assert!(
            mid_deg.report.completion_seconds > nominal.report.completion_seconds,
            "mid-run degrade {} must exceed nominal {}",
            mid_deg.report.completion_seconds,
            nominal.report.completion_seconds
        );
        assert!(
            mid_deg.report.completion_seconds < from_start.report.completion_seconds,
            "mid-run degrade {} must beat degraded-from-start {}",
            mid_deg.report.completion_seconds,
            from_start.report.completion_seconds
        );
        // A failure with no remaining work on the link never interrupts.
        let tl = ScenarioTimeline::nominal()
            .with_link_failure_at(nominal.report.completion_seconds * 1.5, used);
        let run = simulate_chunked_timeline(
            &topo,
            &sched,
            shard,
            &params,
            &tl,
            ExecutionModel::Synchronized,
        )
        .unwrap();
        let TimelineRun::Completed(rep) = run else {
            panic!("failing an unused link must not interrupt");
        };
        assert_eq!(
            rep.report.completion_seconds,
            nominal.report.completion_seconds
        );
    }

    #[test]
    fn mid_run_failure_snapshot_conserves_every_byte() {
        let topo = generators::torus(&[3, 3]);
        let sched = chunked(&topo, None);
        let params = SimParams::default();
        let shard = 4.0 * 1024.0 * 1024.0;
        let nominal =
            simulate_chunked_event(&topo, &sched, shard, &params, &EventSimOptions::default())
                .unwrap();
        let used = nominal
            .per_link
            .iter()
            .position(|l| l.bytes > 0.0)
            .expect("some link carries traffic");
        // Sweep several cut times; each snapshot must balance its ledger exactly.
        let mut interrupted = 0;
        for frac in [0.15, 0.35, 0.55, 0.75, 0.95] {
            let t_fail = nominal.report.completion_seconds * frac;
            let tl = ScenarioTimeline::nominal().with_link_failure_at(t_fail, used);
            let run = simulate_chunked_timeline(
                &topo,
                &sched,
                shard,
                &params,
                &tl,
                ExecutionModel::Synchronized,
            )
            .unwrap();
            let TimelineRun::Interrupted(snap) = run else {
                continue;
            };
            interrupted += 1;
            assert_eq!(snap.failed_links, vec![used]);
            assert!((snap.time - t_fail).abs() < 1e-12);
            // Chunk ledger: exact integers.
            assert_eq!(
                snap.delivered_chunks + snap.buffered_chunks + snap.stranded_chunks,
                snap.total_chunks()
            );
            let held: usize = snap.holdings.iter().map(|h| h.chunks).sum();
            assert_eq!(held, snap.total_chunks());
            // Byte ledger: delivered + buffered + stranded + in-flight == total.
            let total = snap.delivered_bytes
                + snap.buffered_bytes
                + snap.stranded_bytes
                + snap.in_flight_bytes;
            assert!(
                (total - snap.total_bytes()).abs() < 1e-6 * snap.total_bytes(),
                "byte ledger {total} vs {}",
                snap.total_bytes()
            );
            // Each cut transfer contributes at most one partially-drained chunk.
            let chunk = shard / snap.chunks_per_shard as f64;
            let widest_step = sched.steps.iter().map(|s| s.transfers.len()).max().unwrap();
            assert!(snap.in_flight_bytes <= widest_step as f64 * chunk + 1e-9);
            // Prefix transfers never exceed the original schedule's.
            assert!(snap.executed_prefix.len() <= sched.steps.len());
        }
        assert!(
            interrupted >= 2,
            "expected several cut times to interrupt, got {interrupted}"
        );
    }

    #[test]
    fn qp_contention_slows_flow_heavy_links() {
        let topo = generators::torus(&[3, 3]);
        let sched = chunked(&topo, None);
        let shard = 4.0 * 1024.0 * 1024.0;
        let clean = simulate_chunked_event(
            &topo,
            &sched,
            shard,
            &SimParams::default(),
            &EventSimOptions::default(),
        )
        .unwrap();
        let contended_params = SimParams {
            qp_contention: Some(crate::QpContention {
                free_flows_per_link: 1,
                penalty_per_flow: 0.5,
            }),
            ..SimParams::default()
        };
        let contended = simulate_chunked_event(
            &topo,
            &sched,
            shard,
            &contended_params,
            &EventSimOptions::default(),
        )
        .unwrap();
        assert!(
            contended.report.completion_seconds >= clean.report.completion_seconds,
            "contended {} vs clean {}",
            contended.report.completion_seconds,
            clean.report.completion_seconds
        );
    }

    /// One run's result as bit patterns — completion, peak concurrency,
    /// per-step completions and per-link busy time when it finishes, the cut
    /// when a failure interrupts it — and its number of recomputes.
    type RunBits = (Vec<u64>, usize);

    /// Runs the engine twice on the same inputs: once as [`Engine::new`] sets
    /// it up, and once forced onto the per-event code host-capped runs take
    /// (progressive filling, per-flow drain search, advance, retire).
    fn run_both_paths(
        topo: &Topology,
        sched: &ChunkedSchedule,
        shard: f64,
        params: &SimParams,
        timeline: &ScenarioTimeline,
        model: ExecutionModel,
    ) -> [RunBits; 2] {
        let dag = TransferDag::from_schedule(sched).unwrap();
        let start = timeline.scenario_at(0.0);
        let (jobs, link_bw) = resolve_jobs(topo, sched, shard, params, &start, &dag).unwrap();
        let alpha_factor: Vec<f64> = (0..jobs.len()).map(|id| start.alpha_factor(id)).collect();
        let boundaries = resolve_boundaries(topo, params, timeline, &link_bw);
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        [false, true].map(|progressive| {
            let mut engine = Engine::new(topo, &jobs, &dag, link_bw.clone(), params, &alpha_factor);
            assert!(matches!(engine.sharing, Sharing::PerLink(_)));
            if progressive {
                engine.sharing =
                    Sharing::Progressive(Progressive::new(topo.num_edges(), topo.num_nodes()));
            }
            let outcome = engine.run(model, &boundaries).unwrap().into();
            let run = match outcome {
                TimelineOutcome::Completed(o) => [
                    vec![o.completion.to_bits(), o.max_concurrent as u64],
                    bits(&o.step_completion),
                    bits(&o.link_busy),
                ]
                .concat(),
                TimelineOutcome::Interrupted(cut) => {
                    let mut run = vec![u64::MAX, cut.time.to_bits()];
                    run.extend([cut.cut_step, cut.boundary].map(|x| x as u64));
                    for (job, left) in cut.remaining {
                        run.extend([job as u64, left.to_bits()]);
                    }
                    run
                }
            };
            (run, engine.recomputes)
        })
    }

    /// The per-link path against progressive filling on seeded cases: lowered
    /// tsMCF schedules on tori, rings and random regular graphs at several
    /// granularities, both execution models, static slowdowns, α jitter,
    /// timelines with a mid-run degrade and a mid-run failure, empty shards
    /// and empty transfers, infinitely fast links, with and without QP
    /// contention, with and without latencies. Every completion, step
    /// completion, busy time, cut and recompute count must be equal bit for
    /// bit.
    #[test]
    fn per_link_path_matches_progressive_filling_bit_for_bit() {
        use rand::{Rng, SeedableRng};
        let fabrics = [
            generators::torus(&[3, 3]),
            generators::ring(5),
            generators::bidirectional_ring(6),
            generators::random_regular(8, 3, 11),
            generators::random_regular(10, 4, 12),
        ];
        let schedules: Vec<(usize, ChunkedSchedule)> = fabrics
            .iter()
            .enumerate()
            .flat_map(|(fi, topo)| {
                let sol = solve_tsmcf_colgen_auto(topo).unwrap().solution;
                [1, 6, 32].map(|chunks| (fi, ChunkedSchedule::from_tsmcf_exact(topo, &sol, chunks)))
            })
            .filter_map(|(fi, sched)| Some((fi, sched.ok()?)))
            .collect();
        assert!(schedules.len() >= fabrics.len() * 2);

        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(33);
        let mut seen = [0usize; 7];
        for case in 0..240 {
            let (fi, base) = &schedules[rng.random_range(0..schedules.len())];
            let mut topo = fabrics[*fi].clone();
            let mut sched = base.clone();
            let edges = topo.num_edges();
            if rng.random_range(0..4) == 0 {
                for _ in 0..1 + rng.random_range(0..3) {
                    topo.set_capacity(rng.random_range(0..edges), f64::INFINITY);
                }
                seen[0] += 1;
            }
            if rng.random_range(0..5) == 0 {
                // An empty transfer from a commodity's origin to a neighbour.
                let (origin, final_dest) = sched
                    .commodities
                    .pair(rng.random_range(0..sched.commodities.len()));
                let to = topo.edge(topo.out_edges(origin)[0]).dst;
                let step = rng.random_range(0..sched.steps.len());
                sched.steps[step].transfers.push(ChunkTransfer {
                    from: origin,
                    to,
                    origin,
                    final_dest,
                    chunks: 0,
                });
                seen[1] += 1;
            }
            let shard = if rng.random_range(0..6) == 0 {
                seen[2] += 1;
                0.0
            } else {
                2f64.powf(8.0 + 16.0 * rng.random_f64())
            };
            let mut params = SimParams {
                qp_contention: rng.random_bool(0.5).then(|| crate::QpContention {
                    free_flows_per_link: rng.random_range(0..4),
                    penalty_per_flow: 0.5 * rng.random_f64(),
                }),
                ..SimParams::default()
            };
            seen[3] += usize::from(params.qp_contention.is_some());
            if rng.random_range(0..4) == 0 {
                // No latency: a drain readies its successors at once, so a
                // dependency-driven run starts many of a link's jobs together.
                params.per_hop_latency_s = 0.0;
                params.step_sync_latency_s = 0.0;
                seen[6] += 1;
            }
            let mut scenario = Scenario::nominal();
            for _ in 0..rng.random_range(0..3) {
                let factor = 0.1 + 0.9 * rng.random_f64();
                scenario = scenario.with_link_slowdown(rng.random_range(0..edges), factor);
            }
            if rng.random_range(0..3) == 0 {
                scenario = scenario.with_alpha_jitter(case, 1.0, 2.0);
            }
            let model = if rng.random_bool(0.5) {
                seen[4] += 1;
                ExecutionModel::DependencyDriven
            } else {
                ExecutionModel::Synchronized
            };
            let mut timeline = ScenarioTimeline::new(scenario.clone());
            if model == ExecutionModel::Synchronized && rng.random_bool(0.6) {
                let makespan =
                    crate::simulate_chunked_schedule_with(&topo, &sched, shard, &params, &scenario)
                        .unwrap()
                        .completion_seconds;
                // A run that takes no time (no bytes, no latency) has no mid-run
                // to fail in: its events would fold into the start.
                let makespan = if makespan > 0.0 { makespan } else { 1e-3 };
                let at = |u: f64| makespan * (0.05 + 0.9 * u);
                let (time, factor) = (at(rng.random_f64()), 0.1 + 0.9 * rng.random_f64());
                timeline = timeline.with_link_degrade_at(time, rng.random_range(0..edges), factor);
                if rng.random_bool(0.5) {
                    // Fail a link the schedule uses.
                    let step = &sched.steps[rng.random_range(0..sched.steps.len())];
                    if let Some(tr) = step.transfers.first() {
                        let link = topo.find_edge(tr.from, tr.to).unwrap();
                        timeline = timeline.with_link_failure_at(at(rng.random_f64()), link);
                    }
                }
            }
            let [per_link, progressive] =
                run_both_paths(&topo, &sched, shard, &params, &timeline, model);
            seen[5] += usize::from(per_link.0.first() == Some(&u64::MAX));
            assert_eq!(
                per_link,
                progressive,
                "case {case} on {}: {model:?}, shard {shard}, {params:?}",
                topo.name()
            );
        }
        // Every kind of case above was drawn: infinite links, empty
        // transfers, empty shards, QP contention, dependency-driven runs,
        // interrupted timelines and zero latencies.
        assert!(seen.iter().all(|&n| n > 0), "{seen:?}");
    }

    /// Runs the engine and the eager reference ([`eager`]) on the same inputs;
    /// returns each one's outcome and number of recomputes.
    fn run_engine_and_reference(
        topo: &Topology,
        sched: &ChunkedSchedule,
        shard: f64,
        params: &SimParams,
        timeline: &ScenarioTimeline,
        model: ExecutionModel,
    ) -> (Vec<SimJob>, [(TimelineOutcome, usize); 2]) {
        let dag = TransferDag::from_schedule(sched).unwrap();
        let start = timeline.scenario_at(0.0);
        let (jobs, link_bw) = resolve_jobs(topo, sched, shard, params, &start, &dag).unwrap();
        let alpha_factor: Vec<f64> = (0..jobs.len()).map(|id| start.alpha_factor(id)).collect();
        let boundaries = resolve_boundaries(topo, params, timeline, &link_bw);
        let runs = {
            let mut engine = Engine::new(topo, &jobs, &dag, link_bw.clone(), params, &alpha_factor);
            let mut reference =
                eager::Engine::new(topo, &jobs, &dag, link_bw.clone(), params, &alpha_factor);
            let [a, b] = match model {
                ExecutionModel::Synchronized => [
                    engine.run(model, &boundaries).unwrap().into(),
                    reference.run_synchronized_timeline(&boundaries),
                ],
                ExecutionModel::DependencyDriven => [
                    engine.run(model, &boundaries).unwrap().into(),
                    TimelineOutcome::Completed(reference.run_dependency_driven().unwrap()),
                ],
            };
            [(a, engine.recomputes), (b, reference.recomputes)]
        };
        (jobs, runs)
    }

    /// The engine against the eager reference on the generator of
    /// `per_link_path_matches_progressive_filling_bit_for_bit`, with a host cap
    /// on a quarter of the cases so that progressive filling is held too.
    /// Completions, step completions and busy times agree within 1e-12 of the
    /// run's completion, cut remaining bytes within 1e-12 of the job's bytes,
    /// peak concurrency and the cut's step, boundary and jobs exactly, and the
    /// recompute counts within 0.5 % over all cases.
    #[test]
    fn engine_matches_the_eager_reference() {
        use rand::{Rng, SeedableRng};
        let fabrics = [
            generators::torus(&[3, 3]),
            generators::ring(5),
            generators::bidirectional_ring(6),
            generators::random_regular(8, 3, 11),
            generators::random_regular(10, 4, 12),
        ];
        let schedules: Vec<(usize, ChunkedSchedule)> = fabrics
            .iter()
            .enumerate()
            .flat_map(|(fi, topo)| {
                let sol = solve_tsmcf_colgen_auto(topo).unwrap().solution;
                [1, 6, 32].map(|chunks| (fi, ChunkedSchedule::from_tsmcf_exact(topo, &sol, chunks)))
            })
            .filter_map(|(fi, sched)| Some((fi, sched.ok()?)))
            .collect();

        let close = |a: f64, b: f64, scale: f64| (a - b).abs() <= 1e-12 * scale;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(34);
        let mut seen = [0usize; 4];
        let mut recomputes = [0usize; 2];
        for case in 0..240 {
            let (fi, base) = &schedules[rng.random_range(0..schedules.len())];
            let mut topo = fabrics[*fi].clone();
            let mut sched = base.clone();
            let edges = topo.num_edges();
            if rng.random_range(0..4) == 0 {
                for _ in 0..1 + rng.random_range(0..3) {
                    topo.set_capacity(rng.random_range(0..edges), f64::INFINITY);
                }
            }
            if rng.random_range(0..5) == 0 {
                let (origin, final_dest) = sched
                    .commodities
                    .pair(rng.random_range(0..sched.commodities.len()));
                let to = topo.edge(topo.out_edges(origin)[0]).dst;
                let step = rng.random_range(0..sched.steps.len());
                sched.steps[step].transfers.push(ChunkTransfer {
                    from: origin,
                    to,
                    origin,
                    final_dest,
                    chunks: 0,
                });
            }
            let shard = if rng.random_range(0..6) == 0 {
                0.0
            } else {
                2f64.powf(8.0 + 16.0 * rng.random_f64())
            };
            let mut params = SimParams {
                qp_contention: rng.random_bool(0.5).then(|| crate::QpContention {
                    free_flows_per_link: rng.random_range(0..4),
                    penalty_per_flow: 0.5 * rng.random_f64(),
                }),
                host_injection_gbps: rng.random_bool(0.25).then(|| 1.0 + 8.0 * rng.random_f64()),
                ..SimParams::default()
            };
            seen[0] += usize::from(params.host_injection_gbps.is_some());
            if rng.random_range(0..4) == 0 {
                params.per_hop_latency_s = 0.0;
                params.step_sync_latency_s = 0.0;
            }
            let mut scenario = Scenario::nominal();
            for _ in 0..rng.random_range(0..3) {
                let factor = 0.1 + 0.9 * rng.random_f64();
                scenario = scenario.with_link_slowdown(rng.random_range(0..edges), factor);
            }
            if rng.random_range(0..3) == 0 {
                scenario = scenario.with_alpha_jitter(case, 1.0, 2.0);
            }
            let model = if rng.random_bool(0.5) {
                seen[1] += 1;
                ExecutionModel::DependencyDriven
            } else {
                ExecutionModel::Synchronized
            };
            let mut timeline = ScenarioTimeline::new(scenario.clone());
            if model == ExecutionModel::Synchronized && rng.random_bool(0.6) {
                let makespan =
                    crate::simulate_chunked_schedule_with(&topo, &sched, shard, &params, &scenario)
                        .unwrap()
                        .completion_seconds;
                let makespan = if makespan > 0.0 { makespan } else { 1e-3 };
                let at = |u: f64| makespan * (0.05 + 0.9 * u);
                let (time, factor) = (at(rng.random_f64()), 0.1 + 0.9 * rng.random_f64());
                timeline = timeline.with_link_degrade_at(time, rng.random_range(0..edges), factor);
                if rng.random_bool(0.5) {
                    let step = &sched.steps[rng.random_range(0..sched.steps.len())];
                    if let Some(tr) = step.transfers.first() {
                        let link = topo.find_edge(tr.from, tr.to).unwrap();
                        timeline = timeline.with_link_failure_at(at(rng.random_f64()), link);
                    }
                }
            }
            let (jobs, [(engine, engine_recomputes), (reference, reference_recomputes)]) =
                run_engine_and_reference(&topo, &sched, shard, &params, &timeline, model);
            recomputes[0] += engine_recomputes;
            recomputes[1] += reference_recomputes;
            let what = format!(
                "case {case} on {}: {model:?}, shard {shard}, {params:?}",
                topo.name()
            );
            match (engine, reference) {
                (TimelineOutcome::Completed(a), TimelineOutcome::Completed(b)) => {
                    seen[2] += 1;
                    let scale = b.completion;
                    assert!(
                        close(a.completion, b.completion, scale),
                        "{what}: completion"
                    );
                    assert_eq!(a.max_concurrent, b.max_concurrent, "{what}");
                    for (x, y) in a.step_completion.iter().zip(&b.step_completion) {
                        assert!(close(*x, *y, scale), "{what}: step completion {x} vs {y}");
                    }
                    for (e, (x, y)) in a.link_busy.iter().zip(&b.link_busy).enumerate() {
                        assert!(close(*x, *y, scale), "{what}: link {e} busy {x} vs {y}");
                    }
                }
                (TimelineOutcome::Interrupted(a), TimelineOutcome::Interrupted(b)) => {
                    seen[3] += 1;
                    assert_eq!(a.time.to_bits(), b.time.to_bits(), "{what}");
                    assert_eq!((a.cut_step, a.boundary), (b.cut_step, b.boundary), "{what}");
                    assert_eq!(a.remaining.len(), b.remaining.len(), "{what}");
                    for (&(ja, x), &(jb, y)) in a.remaining.iter().zip(&b.remaining) {
                        assert_eq!(ja, jb, "{what}");
                        let scale = jobs[ja].bytes.max(1.0);
                        assert!(
                            close(x, y, scale),
                            "{what}: job {ja} cut at {x} vs {y} bytes"
                        );
                    }
                }
                _ => panic!("{what}: one run completed, the other was interrupted"),
            }
        }
        assert!(seen.iter().all(|&n| n > 0), "{seen:?}");
        let [engine, reference] = recomputes.map(|n| n as f64);
        assert!(
            (engine - reference).abs() <= 0.005 * reference,
            "{engine} recomputes against the reference's {reference}"
        );
    }

    /// The debug certificate is not vacuous: it rejects an allocation that
    /// leaves a bottleneck's capacity on the table, and one that overbooks it.
    #[cfg(debug_assertions)]
    mod certificate {
        use super::*;
        use crate::fair_share::{certify_max_min, one_job_per_link, FairShare};

        fn certify_scaled(scale: f64) {
            let topo = generators::ring(4);
            let jobs = one_job_per_link(&topo);
            let link_bw = vec![3.125e9; topo.num_edges()];
            let params = SimParams::default();
            let active = [0, 0, 1];
            let mut rates = Vec::new();
            FairShare::new(topo.num_edges(), topo.num_nodes())
                .assign_rates(&jobs, &link_bw, &params, &active, &mut rates);
            assert_eq!(rates, [1.5625e9, 1.5625e9, 3.125e9]);
            for r in &mut rates {
                *r *= scale;
            }
            certify_max_min(&jobs, &link_bw, topo.num_nodes(), &params, &active, &rates);
        }

        #[test]
        #[should_panic(expected = "has no bottleneck resource")]
        fn rejects_an_underfilled_allocation() {
            certify_scaled(0.9);
        }

        #[test]
        #[should_panic(expected = "over its capacity")]
        fn rejects_an_overbooked_allocation() {
            certify_scaled(1.1);
        }
    }

    #[test]
    fn hostile_numeric_input_is_a_typed_error() {
        let topo = generators::ring(4);
        let sched = chunked(&topo, None);
        let ok = SimParams::default();
        let qp = |penalty_per_flow| {
            Some(crate::QpContention {
                free_flows_per_link: 1,
                penalty_per_flow,
            })
        };
        let link = |link_bandwidth_gbps| SimParams {
            link_bandwidth_gbps,
            ..SimParams::default()
        };
        let host = |gbps| SimParams {
            host_injection_gbps: Some(gbps),
            ..SimParams::default()
        };
        let cases = [
            ("shard_bytes", f64::NAN, ok.clone()),
            ("shard_bytes", f64::INFINITY, ok.clone()),
            ("shard_bytes", -1.0, ok.clone()),
            ("link_bandwidth_gbps", 1024.0, link(0.0)),
            ("link_bandwidth_gbps", 1024.0, link(f64::NAN)),
            ("link_bandwidth_gbps", 1024.0, link(-1.0)),
            ("link_bandwidth_gbps", 1024.0, link(f64::INFINITY)),
            ("host_injection_gbps", 1024.0, host(0.0)),
            ("host_injection_gbps", 1024.0, host(f64::NAN)),
            (
                "step_sync_latency_s",
                1024.0,
                SimParams {
                    step_sync_latency_s: -1e-6,
                    ..ok.clone()
                },
            ),
            (
                "per_hop_latency_s",
                1024.0,
                SimParams {
                    per_hop_latency_s: f64::INFINITY,
                    ..ok.clone()
                },
            ),
            (
                "qp_contention.penalty_per_flow",
                1024.0,
                SimParams {
                    qp_contention: qp(f64::NAN),
                    ..ok.clone()
                },
            ),
            (
                "qp_contention.penalty_per_flow",
                1024.0,
                SimParams {
                    qp_contention: qp(-0.1),
                    ..ok.clone()
                },
            ),
        ];
        for (name, shard, params) in cases {
            for model in [
                ExecutionModel::Synchronized,
                ExecutionModel::DependencyDriven,
            ] {
                let options = EventSimOptions {
                    model,
                    ..EventSimOptions::default()
                };
                let err = simulate_chunked_event(&topo, &sched, shard, &params, &options)
                    .expect_err(name);
                assert!(
                    matches!(&err, SimError::InvalidInput(msg) if msg.starts_with(name)),
                    "{name} under {model:?}: {err}"
                );
            }
            let err = simulate_chunked_timeline(
                &topo,
                &sched,
                shard,
                &params,
                &ScenarioTimeline::nominal(),
                ExecutionModel::Synchronized,
            )
            .expect_err(name);
            assert!(matches!(err, SimError::InvalidInput(_)), "{name}: {err}");
            // The analytic oracle of the synchronized engine checks the same.
            let err = crate::simulate_chunked_schedule_with(
                &topo,
                &sched,
                shard,
                &params,
                &Scenario::nominal(),
            )
            .expect_err(name);
            assert!(
                matches!(&err, SimError::InvalidInput(msg) if msg.starts_with(name)),
                "{name} under the analytic model: {err}"
            );
        }
        // An empty shard is a valid (latency-only) run.
        for model in [
            ExecutionModel::Synchronized,
            ExecutionModel::DependencyDriven,
        ] {
            let options = EventSimOptions {
                model,
                ..EventSimOptions::default()
            };
            let rep = simulate_chunked_event(&topo, &sched, 0.0, &ok, &options).unwrap();
            assert!(rep.report.completion_seconds > 0.0);
            assert_eq!(rep.report.throughput_gbps, 0.0);
        }
        let analytic = crate::simulate_chunked_schedule(&topo, &sched, 0.0, &ok);
        assert!(analytic.completion_seconds > 0.0);
    }

    /// Every scenario check, fed NaN, ±∞, 0 and a negative value at seeded
    /// edges, nodes and seeds: each entry point returns the check's
    /// `InvalidInput` (none panics), and an in-domain value of the same
    /// builder runs. Event times of 0 and below are in the domain (they fold
    /// into the base); a non-finite time is not, and is never applied.
    #[test]
    fn hostile_scenario_input_is_a_typed_error() {
        use rand::{Rng, RngCore, SeedableRng};
        let topo = generators::ring(4);
        let sched = chunked(&topo, None);
        let params = SimParams::default();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(41);
        let outcome = |tl: &ScenarioTimeline, fixed: Option<&Scenario>| -> Vec<SimResult<()>> {
            let mut runs = Vec::new();
            if let Some(s) = fixed {
                for model in [
                    ExecutionModel::Synchronized,
                    ExecutionModel::DependencyDriven,
                ] {
                    let options = EventSimOptions {
                        model,
                        scenario: s.clone(),
                        ..EventSimOptions::default()
                    };
                    runs.push(
                        simulate_chunked_event(&topo, &sched, 1024.0, &params, &options).map(drop),
                    );
                }
                runs.push(
                    crate::simulate_chunked_schedule_with(&topo, &sched, 1024.0, &params, s)
                        .map(drop),
                );
            }
            runs.push(
                simulate_chunked_timeline(
                    &topo,
                    &sched,
                    1024.0,
                    &params,
                    tl,
                    ExecutionModel::Synchronized,
                )
                .map(drop),
            );
            let options = crate::ReplanOptions::default();
            runs.push(
                match crate::replan_run(&topo, &sched, 1024.0, &params, tl, None, &options) {
                    Ok(_) => Ok(()),
                    Err(crate::ReplanError::Sim(err)) => Err(err),
                    Err(err) => panic!("replan: {err}"),
                },
            );
            runs
        };
        let hostile = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.5];
        for value in hostile.into_iter().chain([0.5]) {
            let edge = rng.random_range(0..topo.num_edges());
            let node = rng.random_range(0..topo.num_nodes());
            let seed = rng.next_u64();
            let at = 1e-7 * rng.random_f64();
            let statics = [
                (
                    "slowdown factor",
                    Scenario::nominal().with_link_slowdown(edge, value),
                ),
                (
                    "straggler factor",
                    Scenario::nominal().with_straggler(node, value),
                ),
                (
                    "seeded slowdown factors",
                    Scenario::seeded_slowdowns(&topo, seed, 2, value, 1.0),
                ),
                (
                    "seeded slowdown factors",
                    Scenario::seeded_slowdowns(&topo, seed, 2, 0.25, value),
                ),
                (
                    "alpha jitter factors",
                    Scenario::nominal().with_alpha_jitter(seed, value, 2.0),
                ),
                (
                    "alpha jitter factors",
                    Scenario::nominal().with_alpha_jitter(seed, 0.25, value),
                ),
            ];
            let timelines = [
                (
                    "degrade factor",
                    ScenarioTimeline::nominal().with_link_degrade_at(at, edge, value),
                ),
                (
                    "event time",
                    ScenarioTimeline::nominal().with_link_degrade_at(value, edge, 0.5),
                ),
            ];
            let runs = statics
                .iter()
                .map(|(name, s)| (*name, outcome(&ScenarioTimeline::new(s.clone()), Some(s))))
                .chain(
                    timelines
                        .iter()
                        .map(|(name, tl)| (*name, outcome(tl, None))),
                );
            for (name, results) in runs {
                let in_domain = value == 0.5 || (name == "event time" && value.is_finite());
                for result in results {
                    match result {
                        Ok(()) => assert!(in_domain, "{name} = {value} was accepted"),
                        Err(SimError::InvalidInput(msg)) => {
                            assert!(
                                !in_domain && msg.starts_with(name),
                                "{name} = {value}: {msg}"
                            )
                        }
                        Err(err) => panic!("{name} = {value}: {err}"),
                    }
                }
            }
        }
    }
}
