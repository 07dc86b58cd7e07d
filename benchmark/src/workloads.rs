//! The five workloads. Each is a set-up (inputs only) plus a rep: one full
//! pipeline over the library's public functions, every call timed from here and
//! every output checked.
//!
//! Solver options are the production configurations `perf_harness` documents,
//! written once below and never varied.

use std::collections::BTreeMap;
use std::time::Instant;

use a2a_mcf::tsmcf::minimum_steps;
use a2a_mcf::{
    extract_widest_paths, solve_decomposed_mcf_with, solve_path_mcf_colgen_among,
    solve_tsmcf_colgen_among_with, throughput_upper_bound, ColGenOptions, ColGenStats,
    CommoditySet, DecomposedOptions, PathSchedule, Stabilization, TsColGen, TsMcfSolution,
};
use a2a_schedule::{
    lower_path_schedule, to_msccl_xml, to_oneccl_xml, ChunkedSchedule, LashVariant, TransferDag,
};
use a2a_simnet::{
    replan_run, simulate_chunked_event, simulate_chunked_timeline, simulate_path_schedule,
    EventSimOptions, ExecutionModel, IncumbentPool, ReplanOptions, Scenario, ScenarioTimeline,
    SimParams, TimelineRun, SIM_VS_LP_AGREEMENT_WINDOW,
};
use a2a_topology::{generators, EdgeId, Topology};

use crate::json;

pub type Res<T> = Result<T, Box<dyn std::error::Error>>;

/// Problem sizes: the measured ones, or seconds-scale stand-ins for the self-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

/// Relative tolerance of the `F` checks against `reference.json`.
const FLOW_REL_TOL: f64 = 1e-6;
/// Tolerance of `TsMcfSolution::check_consistency`.
const CONSISTENCY_TOL: f64 = 1e-6;
/// Shard size of the efficiency measurements: large enough that bandwidth, not
/// per-step latency, sets the completion time.
const SHARD_16_MIB: f64 = 16.0 * 1024.0 * 1024.0;
/// Chunks per shard of the route tables (path workloads).
const ROUTE_CHUNKS: usize = 16;
/// Chunks per shard of the simulated link schedules: sim-vs-LP agreement
/// budgets only for 1/128-shard rounding.
const FINE_CHUNKS: usize = 128;
/// Replan workload: coarse chunks keep the residual LP small; large shards keep
/// several steps in flight when the link dies (same pins as `perf_harness`).
const REPLAN_CHUNKS: usize = 8;
const REPLAN_SHARD_BYTES: f64 = 64.0 * 1024.0 * 1024.0;
const REPLAN_FAILURE_FRACTION: f64 = 0.7;
const REPLAN_VS_CLAIRVOYANT_MAX: f64 = 1.10;
/// Links the simsweep scenario slows, and the range their factors are drawn from.
const SLOWED_LINKS: usize = 8;
const SLOWDOWN_RANGE: (f64, f64) = (0.25, 0.75);

fn pmcf_options() -> ColGenOptions {
    ColGenOptions {
        partial_pricing: Some(1e-1),
        stabilization: Stabilization::Smoothing { alpha: 0.1 },
        ..ColGenOptions::default()
    }
}

/// The drift tolerance is looser than pMCF's because the time-expanded master
/// accumulates dual drift over `|E| · steps` arcs (sized in `perf_harness`).
fn tsmcf_options() -> ColGenOptions {
    ColGenOptions {
        partial_pricing: Some(7.0),
        ..pmcf_options()
    }
}

/// What one rep measured.
#[derive(Debug, Default)]
pub struct Rep {
    /// Seconds inside the benchmark-side timer around each library call, keyed
    /// by per-layer metric. The timers never nest, so they sum to the rep's wall
    /// less the benchmark's own bookkeeping.
    pub stage_secs: BTreeMap<&'static str, f64>,
    /// What the calls returned: inner timings, counts and ratios, keyed by
    /// per-layer metric (other keys land in the result file's `detail`).
    /// `returned_lp_iterations` sums every simplex iteration count a call
    /// returned; the traced rep holds the `lp.iterations` counter against it.
    pub values: BTreeMap<&'static str, f64>,
    pub sim_efficiency: f64,
    pub checks: u32,
    pub failures: Vec<String>,
}

/// Times `$body` as stage `$name`: per-layer metric `<name>_s`, span `bench.<name>`.
macro_rules! stage {
    ($rep:expr, $name:literal, $body:expr) => {
        $rep.stage(concat!($name, "_s"), concat!("bench.", $name), || $body)
    };
}

impl Rep {
    /// Runs `f` under the benchmark-side timer `metric`, and under `span` when
    /// tracing is on (a relaxed load otherwise).
    fn stage<T>(&mut self, metric: &'static str, span: &'static str, f: impl FnOnce() -> T) -> T {
        let _span = a2a_obs::span(span);
        let start = Instant::now();
        let out = f();
        *self.stage_secs.entry(metric).or_default() += start.elapsed().as_secs_f64();
        out
    }

    fn add(&mut self, name: &'static str, value: f64) {
        *self.values.entry(name).or_default() += value;
    }

    fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    fn check(&mut self, what: impl FnOnce() -> String, ok: bool) {
        self.checks += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    fn check_flow(&mut self, topo: &Topology, flow: f64, reference: f64) {
        self.check(
            || {
                format!(
                    "{}: F = {flow} but the reference is {reference}",
                    topo.name()
                )
            },
            (flow - reference).abs() <= FLOW_REL_TOL * reference,
        );
    }

    fn check_empty(&mut self, what: &str, issues: &[String]) {
        self.check(
            || format!("{what}: {}", issues.join("; ")),
            issues.is_empty(),
        );
    }

    fn colgen_stats(&mut self, stats: &ColGenStats) {
        self.add("mcf.colgen_master_s", stats.total_master_wall_secs());
        self.add("mcf.colgen_pricing_s", stats.total_pricing_wall_secs());
        self.add("mcf.colgen_rounds", stats.num_rounds() as f64);
        self.add("mcf.colgen_columns", stats.total_columns as f64);
        self.add(
            "mcf.colgen_columns_purged",
            stats.total_columns_purged() as f64,
        );
        self.add(
            "mcf.colgen_sources_skipped",
            stats.total_sources_skipped() as f64,
        );
        self.add("colgen_misprices", stats.misprices as f64);
        self.add(
            "returned_lp_iterations",
            stats.total_master_iterations() as f64,
        );
        let share = self.values["colgen_misprices"] / self.values["mcf.colgen_rounds"];
        self.set("mcf.colgen_misprice_share", share);
    }
}

/// What a set-up reports about the workload's fabric(s).
#[derive(Debug, Clone, Copy, Default)]
pub struct Fabric {
    /// Seconds in the topology crate: generators and relabelling.
    pub build_secs: f64,
    pub nodes: usize,
    pub edges: usize,
}

pub trait Workload {
    /// Checks one rep makes; a rep that errors or panics counts them all failed.
    fn checks_per_rep(&self) -> u32;
    /// One full pipeline.
    fn rep(&self, rep: &mut Rep) -> Res<()>;
}

/// Builds the inputs of workload `name`. `instance` 0 is the canonical
/// instance; any other relabels the nodes (and on `replan-…` moves the failure),
/// which leaves every checked output unchanged but not the pivot sequence.
pub fn setup(name: &str, size: Size, instance: u64, seed: u64) -> Res<(Fabric, Box<dyn Workload>)> {
    let (torus2, torus3): (&[usize], &[usize]) = match size {
        Size::Full => (&[8, 8], &[3, 3, 3]),
        Size::Smoke => (&[4, 4], &[3, 3]),
    };
    let mut fabric = Fabric::default();
    let workload: Box<dyn Workload> = match name {
        "extp-torus8x8" => Box::new(ExtP(TorusCase::setup(torus2, instance, &mut fabric)?)),
        "pmcf-genkautz" => Box::new(PMcf::setup(size, instance, &mut fabric)?),
        "tsmcf-torus3x3x3" => Box::new(TsMcf(TorusCase::setup(torus3, instance, &mut fabric)?)),
        "replan-torus3x3x3" => Box::new(Replan::setup(torus3, instance, &mut fabric)?),
        "simsweep-torus3x3x3" => Box::new(SimSweep::setup(torus3, instance, seed, &mut fabric)?),
        _ => return Err(format!("unknown workload `{name}`").into()),
    };
    Ok((fabric, workload))
}

// ---- inputs ---------------------------------------------------------------

/// SplitMix64: the benchmark's only source of randomness.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The node permutation of `instance`: the identity for 0, otherwise a seeded
/// Fisher–Yates shuffle.
pub fn permutation(n: usize, instance: u64) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..n).collect();
    if instance != 0 {
        let mut rng = SplitMix(instance);
        for i in (1..n).rev() {
            perm.swap(i, rng.below(i + 1));
        }
    }
    perm
}

/// `topo` with node `u` renamed `perm[u]` (edges keep their order and ids).
pub fn relabel(topo: &Topology, perm: &[usize]) -> Topology {
    let mut out = Topology::new(topo.num_nodes(), topo.name());
    for e in topo.edges() {
        out.add_edge(perm[e.src], perm[e.dst], e.capacity);
    }
    out
}

fn build_fabric(
    generate: impl FnOnce() -> Topology,
    instance: u64,
    fabric: &mut Fabric,
) -> Topology {
    let start = Instant::now();
    let base = generate();
    let topo = relabel(&base, &permutation(base.num_nodes(), instance));
    fabric.build_secs += start.elapsed().as_secs_f64();
    fabric.nodes += topo.num_nodes();
    fabric.edges += topo.num_edges();
    topo
}

/// The checked-in optimum of `topo`, which never comes from the code path
/// under test: the distance–capacity cut bound for the tori (tight there),
/// the decomposed link-MCF for the GenKautz graphs (`tests/references.rs`
/// recomputes both).
fn reference_flow(topo: &Topology) -> Res<f64> {
    let doc = json::parse(include_str!("../reference.json"))?;
    doc.get("flow_value")
        .and_then(|flows| flows.get(topo.name()))
        .and_then(json::Value::as_f64)
        .ok_or_else(|| format!("reference.json has no flow_value for {}", topo.name()).into())
}

/// A torus and its reference `F`: all a solve-from-scratch workload sets up.
struct TorusCase {
    topo: Topology,
    reference: f64,
}

impl TorusCase {
    fn setup(dims: &[usize], instance: u64, fabric: &mut Fabric) -> Res<Self> {
        let topo = build_fabric(|| generators::torus(dims), instance, fabric);
        let reference = reference_flow(&topo)?;
        Ok(Self { topo, reference })
    }
}

// ---- path workloads -------------------------------------------------------

/// Lowers, validates and simulates a path schedule; returns the simulated
/// throughput over the bound `(N − 1) · F_ref · b`.
fn run_path_schedule(rep: &mut Rep, topo: &Topology, paths: &PathSchedule, reference: f64) -> f64 {
    let params = SimParams::default();
    let table = stage!(
        rep,
        "schedule.route_lower",
        lower_path_schedule(topo, paths, ROUTE_CHUNKS, LashVariant::Sequential)
    );
    let issues = stage!(rep, "schedule.route_validate", table.validate());
    rep.check_empty("route table", &issues);
    rep.add("schedule.routes", table.total_routes() as f64);
    let layers = rep.values.get("schedule.vc_layers").copied().unwrap_or(0.0);
    rep.set("schedule.vc_layers", layers.max(table.num_layers as f64));
    let report = stage!(
        rep,
        "simnet.pathsim",
        simulate_path_schedule(topo, paths, SHARD_16_MIB, &params)
    );
    let bound = throughput_upper_bound(topo.num_nodes(), reference, params.link_bandwidth_gbps);
    report.throughput_gbps / bound
}

/// NIC-forwarding fabric, high path diversity: decomposed MCF → widest-path
/// extraction → route lowering → validate → path simulation.
struct ExtP(TorusCase);

impl Workload for ExtP {
    fn checks_per_rep(&self) -> u32 {
        2
    }

    fn rep(&self, rep: &mut Rep) -> Res<()> {
        let TorusCase { topo, reference } = &self.0;
        let commodities = CommoditySet::all_pairs(topo.num_nodes());
        let solved = stage!(
            rep,
            "mcf.decomposed",
            solve_decomposed_mcf_with(topo, commodities, &DecomposedOptions::default())
        )?;
        rep.check_flow(topo, solved.solution.flow_value, *reference);
        let timings = &solved.timings;
        rep.set("mcf.decomposed_master_s", timings.master_secs);
        rep.set("mcf.decomposed_children_s", timings.total_child_secs());
        rep.set("master_iterations", timings.master_iterations as f64);
        rep.set(
            "master_dual_iterations",
            timings.master_dual_iterations as f64,
        );
        rep.set("returned_lp_iterations", timings.total_iterations() as f64);
        let paths = stage!(
            rep,
            "mcf.extract",
            extract_widest_paths(topo, &solved.solution)
        )?;
        rep.sim_efficiency = run_path_schedule(rep, topo, &paths, *reference);
        Ok(())
    }
}

/// NIC-forwarding fabric, low path diversity: path-MCF column generation on three
/// generalized Kautz graphs in sequence, each lowered, validated and simulated.
struct PMcf {
    /// `(stage metric, span, topology, reference F)` per size.
    cases: Vec<(&'static str, &'static str, Topology, f64)>,
}

impl PMcf {
    fn setup(size: Size, instance: u64, fabric: &mut Fabric) -> Res<Self> {
        const DEGREE: usize = 4;
        let sizes = match size {
            Size::Full => [32, 40, 48],
            Size::Smoke => [12, 14, 16],
        };
        let slots = [
            ("mcf.pmcf_n32_s", "bench.mcf.pmcf_n32"),
            ("mcf.pmcf_n40_s", "bench.mcf.pmcf_n40"),
            ("mcf.pmcf_n48_s", "bench.mcf.pmcf_n48"),
        ];
        let mut cases = Vec::new();
        for (n, (metric, span)) in sizes.into_iter().zip(slots) {
            let topo = build_fabric(
                || generators::generalized_kautz(n, DEGREE),
                instance,
                fabric,
            );
            let reference = reference_flow(&topo)?;
            cases.push((metric, span, topo, reference));
        }
        Ok(Self { cases })
    }
}

impl Workload for PMcf {
    fn checks_per_rep(&self) -> u32 {
        3 * self.cases.len() as u32
    }

    fn rep(&self, rep: &mut Rep) -> Res<()> {
        let mut efficiency = 0.0;
        for (metric, span, topo, reference) in &self.cases {
            let commodities = CommoditySet::all_pairs(topo.num_nodes());
            let solved = rep.stage(metric, span, || {
                solve_path_mcf_colgen_among(topo, commodities, &pmcf_options())
            })?;
            rep.check_flow(topo, solved.schedule.flow_value, *reference);
            rep.check(
                || format!("{}: colgen stopped without its certificate", topo.name()),
                solved.stats.proved_optimal,
            );
            rep.colgen_stats(&solved.stats);
            efficiency += run_path_schedule(rep, topo, &solved.schedule, *reference);
        }
        rep.sim_efficiency = efficiency / self.cases.len() as f64;
        Ok(())
    }
}

// ---- link-schedule workloads ----------------------------------------------

fn solve_tsmcf(topo: &Topology) -> Res<TsColGen> {
    let commodities = CommoditySet::all_pairs(topo.num_nodes());
    let steps = minimum_steps(topo, &commodities)?;
    Ok(solve_tsmcf_colgen_among_with(
        topo,
        commodities,
        steps,
        &tsmcf_options(),
    )?)
}

fn lp_predicted_seconds(solution: &TsMcfSolution, shard_bytes: f64) -> f64 {
    let params = SimParams::default();
    solution.predicted_completion_seconds(
        shard_bytes,
        params.link_bandwidth_gbps,
        params.step_sync_latency_s,
    )
}

/// Chunk lowering at exactly `chunks` per shard, then the full validation.
fn lower_chunked(
    rep: &mut Rep,
    topo: &Topology,
    solution: &TsMcfSolution,
    chunks: usize,
) -> Res<ChunkedSchedule> {
    let schedule = stage!(
        rep,
        "schedule.chunk_lower",
        ChunkedSchedule::from_tsmcf_exact(topo, solution, chunks)
    )?;
    let issues = stage!(rep, "schedule.chunk_validate", schedule.validate(topo));
    rep.check_empty("chunked schedule", &issues);
    rep.add("schedule.transfers", schedule.total_transfers() as f64);
    Ok(schedule)
}

fn emit_xml(rep: &mut Rep, schedule: &ChunkedSchedule) {
    let (msccl, oneccl) = stage!(
        rep,
        "schedule.xml",
        (
            to_msccl_xml(schedule, "a2a-benchmark"),
            to_oneccl_xml(schedule, "a2a-benchmark")
        )
    );
    rep.check(
        || "an XML program is empty".to_string(),
        !msccl.is_empty() && !oneccl.is_empty(),
    );
    rep.add("schedule.xml_bytes", (msccl.len() + oneccl.len()) as f64);
}

/// Simulated completion seconds of `schedule` under `model` and `scenario`,
/// timed as `simnet.event_sync_s` or `simnet.event_dep_s`.
fn simulate_event(
    rep: &mut Rep,
    topo: &Topology,
    schedule: &ChunkedSchedule,
    shard_bytes: f64,
    model: ExecutionModel,
    scenario: &Scenario,
) -> Res<f64> {
    let options = EventSimOptions {
        model,
        scenario: scenario.clone(),
    };
    let params = SimParams::default();
    let run = || simulate_chunked_event(topo, schedule, shard_bytes, &params, &options);
    let report = match model {
        ExecutionModel::Synchronized => stage!(rep, "simnet.event_sync", run()),
        ExecutionModel::DependencyDriven => stage!(rep, "simnet.event_dep", run()),
    }?;
    Ok(report.report.completion_seconds)
}

/// Both engines on the nominal fabric at 16 MiB shards: records the sim-vs-LP
/// ratios, checks the synchronized one and sets `sim_efficiency`.
fn simulate_against_lp(
    rep: &mut Rep,
    topo: &Topology,
    schedule: &ChunkedSchedule,
    predicted: f64,
) -> Res<()> {
    let nominal = Scenario::nominal();
    let sync = simulate_event(
        rep,
        topo,
        schedule,
        SHARD_16_MIB,
        ExecutionModel::Synchronized,
        &nominal,
    )?;
    let dep = simulate_event(
        rep,
        topo,
        schedule,
        SHARD_16_MIB,
        ExecutionModel::DependencyDriven,
        &nominal,
    )?;
    let (lo, hi) = SIM_VS_LP_AGREEMENT_WINDOW;
    rep.check(
        || format!("synchronized completion {sync} s against the LP's {predicted} s"),
        (lo..=hi).contains(&(sync / predicted)),
    );
    rep.set("simnet.sim_vs_lp_sync", sync / predicted);
    rep.set("simnet.sim_vs_lp_dep", dep / predicted);
    rep.sim_efficiency = predicted / sync;
    Ok(())
}

/// ML-accelerator fabric: time-expanded colgen → prune → chunk lowering →
/// validate → both XMLs → both event engines.
struct TsMcf(TorusCase);

impl Workload for TsMcf {
    fn checks_per_rep(&self) -> u32 {
        6
    }

    fn rep(&self, rep: &mut Rep) -> Res<()> {
        let TorusCase { topo, reference } = &self.0;
        let solved = stage!(rep, "mcf.tscolgen", solve_tsmcf(topo))?;
        rep.check_flow(topo, solved.solution.effective_flow_value(), *reference);
        rep.check(
            || "tsMCF colgen stopped without its certificate".to_string(),
            solved.stats.proved_optimal,
        );
        rep.colgen_stats(&solved.stats);
        let (pruned, issues) = stage!(rep, "mcf.prune", {
            let pruned = solved.solution.pruned(topo);
            let issues = pruned.check_consistency(topo, CONSISTENCY_TOL);
            (pruned, issues)
        });
        rep.check_empty("pruned tsMCF solution", &issues);
        let schedule = lower_chunked(rep, topo, &pruned, FINE_CHUNKS)?;
        emit_xml(rep, &schedule);
        let predicted = lp_predicted_seconds(&pruned, SHARD_16_MIB);
        simulate_against_lp(rep, topo, &schedule, predicted)
    }
}

fn completed(run: TimelineRun) -> Res<f64> {
    match run {
        TimelineRun::Completed(report) => Ok(report.report.completion_seconds),
        TimelineRun::Interrupted(_) => Err("an event-free timeline was interrupted".into()),
    }
}

fn simulate_nominal_timeline(
    topo: &Topology,
    schedule: &ChunkedSchedule,
    shard_bytes: f64,
) -> Res<f64> {
    completed(simulate_chunked_timeline(
        topo,
        schedule,
        shard_bytes,
        &SimParams::default(),
        &ScenarioTimeline::nominal(),
        ExecutionModel::Synchronized,
    )?)
}

/// The closed-loop digital twin: a mid-run link failure repaired by a
/// warm-started residual solve and a splice, against the cold clairvoyant
/// re-solve on the punctured torus. Set-up solves and lowers the nominal schedule.
struct Replan {
    topo: Topology,
    schedule: ChunkedSchedule,
    pool: IncumbentPool,
    timeline: ScenarioTimeline,
}

impl Replan {
    fn setup(dims: &[usize], instance: u64, fabric: &mut Fabric) -> Res<Self> {
        let topo = build_fabric(|| generators::torus(dims), instance, fabric);
        let nominal = solve_tsmcf(&topo)?;
        let schedule = ChunkedSchedule::from_tsmcf_exact(&topo, &nominal.solution, REPLAN_CHUNKS)?;
        let makespan = simulate_nominal_timeline(&topo, &schedule, REPLAN_SHARD_BYTES)?;
        let (link, fraction) = failure(&topo, &schedule, instance)?;
        let timeline = ScenarioTimeline::new(Scenario::nominal())
            .with_link_failure_at(fraction * makespan, link);
        let pool = IncumbentPool {
            columns: nominal.columns,
            commodities: nominal.solution.commodities.clone(),
            steps: nominal.solution.steps,
        };
        Ok(Self {
            topo,
            schedule,
            pool,
            timeline,
        })
    }
}

/// The failing link and the failure instant as a fraction of the nominal
/// makespan: the first step-0 transfer's link at 0.7 on the canonical instance
/// (`perf_harness`'s pins), otherwise a seeded step-0 link in `[0.5, 0.8]`.
fn failure(topo: &Topology, schedule: &ChunkedSchedule, instance: u64) -> Res<(EdgeId, f64)> {
    let mut links = Vec::new();
    for transfer in &schedule.steps[0].transfers {
        let link = topo
            .find_edge(transfer.from, transfer.to)
            .ok_or("a step-0 transfer uses no fabric link")?;
        if !links.contains(&link) {
            links.push(link);
        }
    }
    if links.is_empty() {
        return Err("step 0 of the nominal schedule is empty".into());
    }
    if instance == 0 {
        return Ok((links[0], REPLAN_FAILURE_FRACTION));
    }
    let mut rng = SplitMix(instance);
    Ok((links[rng.below(links.len())], 0.5 + 0.3 * rng.unit()))
}

impl Workload for Replan {
    fn checks_per_rep(&self) -> u32 {
        5
    }

    fn rep(&self, rep: &mut Rep) -> Res<()> {
        let params = SimParams::default();
        let run = stage!(
            rep,
            "simnet.replan_loop",
            replan_run(
                &self.topo,
                &self.schedule,
                REPLAN_SHARD_BYTES,
                &params,
                &self.timeline,
                Some(&self.pool),
                &ReplanOptions::default(),
            )
        )?;
        let attempt = run
            .attempts
            .first()
            .ok_or("the failure did not interrupt the run")?;
        // The residual solve is `mcf`'s share of the loop.
        *rep.stage_secs.entry("simnet.replan_loop_s").or_default() -= attempt.solve_wall_secs;
        rep.stage_secs
            .insert("mcf.residual_s", attempt.solve_wall_secs);
        rep.check(
            || "the repair fell back from the LP path".to_string(),
            !attempt.used_fallback,
        );
        rep.check(
            || "the residual colgen stopped without its certificate".to_string(),
            attempt.proved_optimal,
        );

        let punctured = rep.stage("topology.build_s", "bench.topology.puncture", || {
            self.topo.without_edges(&attempt.failed_links)
        });
        let clairvoyant = stage!(rep, "mcf.clairvoyant", solve_tsmcf(&punctured))?;
        rep.check(
            || "the clairvoyant colgen stopped without its certificate".to_string(),
            clairvoyant.stats.proved_optimal,
        );
        rep.colgen_stats(&clairvoyant.stats);
        let cold_iterations = clairvoyant.stats.total_master_iterations() as f64;
        rep.set("clairvoyant_master_iterations", cold_iterations);
        rep.add("returned_lp_iterations", attempt.master_iterations as f64);
        rep.set(
            "mcf.residual_vs_cold_iters",
            attempt.master_iterations as f64 / cold_iterations,
        );
        let schedule = lower_chunked(rep, &punctured, &clairvoyant.solution, REPLAN_CHUNKS)?;
        let clairvoyant_secs = stage!(
            rep,
            "simnet.timeline",
            simulate_nominal_timeline(&punctured, &schedule, REPLAN_SHARD_BYTES)
        )?;
        let ratio = run.completion_seconds() / clairvoyant_secs;
        rep.check(
            || format!("replanned makespan is {ratio:.4}x the clairvoyant's"),
            ratio <= REPLAN_VS_CLAIRVOYANT_MAX,
        );
        rep.set("simnet.replan_vs_clairvoyant", ratio);
        rep.sim_efficiency = 1.0 / ratio;
        Ok(())
    }
}

/// Solve once, evaluate many: set-up solves tsMCF; each rep lowers at three
/// granularities and simulates the finest at three shard sizes on both engines,
/// then once more under a seeded slowdown scenario. No LP in the timed region.
struct SimSweep {
    topo: Topology,
    pruned: TsMcfSolution,
    degraded: Scenario,
}

impl SimSweep {
    fn setup(dims: &[usize], instance: u64, seed: u64, fabric: &mut Fabric) -> Res<Self> {
        let topo = build_fabric(|| generators::torus(dims), instance, fabric);
        let pruned = solve_tsmcf(&topo)?.solution.pruned(&topo);
        let issues = pruned.check_consistency(&topo, CONSISTENCY_TOL);
        if !issues.is_empty() {
            return Err(format!("nominal tsMCF solution: {}", issues.join("; ")).into());
        }
        let (lo, hi) = SLOWDOWN_RANGE;
        let degraded = Scenario::seeded_slowdowns(&topo, seed, SLOWED_LINKS, lo, hi);
        Ok(Self {
            topo,
            pruned,
            degraded,
        })
    }
}

impl Workload for SimSweep {
    fn checks_per_rep(&self) -> u32 {
        7
    }

    fn rep(&self, rep: &mut Rep) -> Res<()> {
        const KIB: f64 = 1024.0;
        let topo = &self.topo;
        let mut finest = None;
        for chunks in [8, 32, FINE_CHUNKS] {
            let schedule = lower_chunked(rep, topo, &self.pruned, chunks)?;
            emit_xml(rep, &schedule);
            stage!(rep, "schedule.dag", TransferDag::from_schedule(&schedule))?;
            finest = Some(schedule);
        }
        let schedule = finest.expect("the loop ran");
        let nominal = Scenario::nominal();
        for shard_bytes in [64.0 * KIB, KIB * KIB] {
            for model in [
                ExecutionModel::Synchronized,
                ExecutionModel::DependencyDriven,
            ] {
                simulate_event(rep, topo, &schedule, shard_bytes, model, &nominal)?;
            }
        }
        let predicted = lp_predicted_seconds(&self.pruned, SHARD_16_MIB);
        simulate_against_lp(rep, topo, &schedule, predicted)?;
        for model in [
            ExecutionModel::Synchronized,
            ExecutionModel::DependencyDriven,
        ] {
            let slowed = simulate_event(rep, topo, &schedule, SHARD_16_MIB, model, &self.degraded)?;
            rep.set(
                match model {
                    ExecutionModel::Synchronized => "degraded_vs_lp_sync",
                    ExecutionModel::DependencyDriven => "degraded_vs_lp_dep",
                },
                slowed / predicted,
            );
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_is_a_bijection() {
        for instance in 0..20 {
            let mut perm = permutation(27, instance);
            if instance == 0 {
                assert!(perm.iter().copied().eq(0..27));
            }
            perm.sort_unstable();
            assert!(perm.iter().copied().eq(0..27), "instance {instance}");
        }
        assert_ne!(permutation(27, 1), permutation(27, 2));
    }

    #[test]
    fn relabelling_keeps_the_flow_value() {
        let base = generators::torus(&[3, 3]);
        let solve = |topo: &Topology| {
            solve_decomposed_mcf_with(
                topo,
                CommoditySet::all_pairs(9),
                &DecomposedOptions::default(),
            )
            .expect("torus-3x3 solves")
            .solution
            .flow_value
        };
        let expected = solve(&base);
        for instance in 1..4 {
            let perm = permutation(9, instance);
            let topo = relabel(&base, &perm);
            assert_eq!(topo.num_edges(), base.num_edges());
            for e in base.edges() {
                assert!(topo.find_edge(perm[e.src], perm[e.dst]).is_some());
            }
            assert!((solve(&topo) - expected).abs() <= FLOW_REL_TOL * expected);
        }
    }
}
