//! Bit-pinned outcomes of the synchronized barrier that `event_golden.rs`
//! leaves open: timeline runs that a link failure interrupts, and schedules
//! with empty steps.
//!
//! An interrupt is pinned twice per fabric: once while the last step drains
//! (a cut mid-drain, with partially drained transfers) and once inside the
//! first barrier window (after step 0's last drain, before its sync ends, so
//! the cut falls on the step boundary). The snapshot's time, its executed
//! prefix and holdings (each as an ordered hash) and its in-flight, stranded
//! and buffered bytes are compared as bit patterns. The empty-step schedules
//! pin completion, every step completion and the busy hash under both
//! execution models, so a barrier that skips, merges or double-charges an
//! empty step fails here.

use a2a_mcf::tsmcf::{minimum_steps, solve_tsmcf_among_dense};
use a2a_mcf::CommoditySet;
use a2a_schedule::{ChunkedSchedule, ScheduleStep};
use a2a_simnet::{
    simulate_chunked_event, simulate_chunked_timeline, EventReport, EventSimOptions,
    ExecutionModel, InFlightSnapshot, Scenario, ScenarioTimeline, SimError, SimParams, TimelineRun,
};
use a2a_topology::{generators, Topology};

const SHARD: f64 = 4.0 * 1024.0 * 1024.0;

/// The dense-reference tsMCF schedule at the minimum step count, 128 chunks.
fn chunked(topo: &Topology) -> ChunkedSchedule {
    let commodities = CommoditySet::all_pairs(topo.num_nodes());
    let steps = minimum_steps(topo, &commodities).unwrap();
    let sol = solve_tsmcf_among_dense(topo, commodities, steps).unwrap();
    ChunkedSchedule::from_tsmcf(topo, &sol, 128).unwrap()
}

/// Three slowed links and α jitter, so that the barrier windows differ in
/// length from step to step.
fn scenario(topo: &Topology) -> Scenario {
    Scenario::seeded_slowdowns(topo, 5, 3, 0.25, 0.75).with_alpha_jitter(9, 1.0, 2.0)
}

/// FNV-1a over a sequence of words.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for word in words {
        for byte in word.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Time bits, executed-prefix hash, holdings hash, and the bits of the
/// in-flight, stranded and buffered bytes.
type SnapshotBits = (u64, u64, u64, u64, u64, u64);

fn snapshot_bits(snap: &InFlightSnapshot) -> SnapshotBits {
    let prefix = fnv(snap.executed_prefix.iter().flat_map(|step| {
        std::iter::once(step.transfers.len() as u64).chain(
            step.transfers
                .iter()
                .flat_map(|t| [t.from, t.to, t.origin, t.final_dest, t.chunks].map(|x| x as u64)),
        )
    }));
    let holdings = fnv(snap.holdings.iter().flat_map(|h| {
        [h.origin, h.final_dest, h.at, h.chunks, h.stranded_chunks].map(|x| x as u64)
    }));
    (
        snap.time.to_bits(),
        prefix,
        holdings,
        snap.in_flight_bytes.to_bits(),
        snap.stranded_bytes.to_bits(),
        snap.buffered_bytes.to_bits(),
    )
}

/// `(mid-drain cut, barrier-window cut)` per fabric.
type RecordedCuts = [SnapshotBits; 2];

fn interrupted(
    topo: &Topology,
    sched: &ChunkedSchedule,
    timeline: &ScenarioTimeline,
) -> InFlightSnapshot {
    let run = simulate_chunked_timeline(
        topo,
        sched,
        SHARD,
        &SimParams::default(),
        timeline,
        ExecutionModel::Synchronized,
    )
    .unwrap();
    match run {
        TimelineRun::Interrupted(snap) => snap,
        TimelineRun::Completed(_) => panic!("{}: the failure must interrupt", topo.name()),
    }
}

fn check_cuts(topo: &Topology, recorded: &RecordedCuts) {
    let sched = chunked(topo);
    let last = sched.steps.len() - 1;
    assert!(last >= 1, "{}: needs two steps", topo.name());
    let params = SimParams::default();
    // A mid-run degrade before either cut, so the cuts also follow a rerate.
    let degraded = ScenarioTimeline::new(scenario(topo)).with_link_degrade_at(2e-4, 0, 0.5);
    let TimelineRun::Completed(base) = simulate_chunked_timeline(
        topo,
        &sched,
        SHARD,
        &params,
        &degraded,
        ExecutionModel::Synchronized,
    )
    .unwrap() else {
        panic!("{}: a degrade must not interrupt", topo.name());
    };
    let steps = &base.step_completion_secs;
    // Every other transfer of the step loses its link at `time`: some flows
    // are cut off a failed link, others keep running on a live one.
    let fail_step = |time: f64, step: &ScheduleStep| {
        step.transfers
            .iter()
            .step_by(2)
            .fold(degraded.clone(), |tl, tr| {
                tl.with_link_failure_at(time, topo.find_edge(tr.from, tr.to).unwrap())
            })
    };

    // A quarter of the last step's span before its last drain.
    let mid_drain = steps[last] - 0.25 * (steps[last] - steps[last - 1]);
    let drain_cut = interrupted(topo, &sched, &fail_step(mid_drain, &sched.steps[last]));
    assert_eq!(drain_cut.executed_prefix.len(), last + 1, "{}", topo.name());
    assert!(drain_cut.in_flight_bytes > 0.0, "{}", topo.name());

    // Half the shortest possible sync (α ≥ 1) after step 0's last drain.
    let in_window = steps[0] + 0.5 * params.step_sync_latency_s;
    let window_cut = interrupted(topo, &sched, &fail_step(in_window, &sched.steps[1]));
    assert_eq!(window_cut.executed_prefix.len(), 1, "{}", topo.name());
    assert_eq!(
        window_cut.executed_prefix[0].transfers,
        sched.steps[0].transfers,
        "{}",
        topo.name()
    );
    assert_eq!(window_cut.in_flight_bytes, 0.0, "{}", topo.name());

    let got = [snapshot_bits(&drain_cut), snapshot_bits(&window_cut)];
    let actual: Vec<String> = got
        .iter()
        .map(|b| {
            format!(
                "    ({:#018x}, {:#018x}, {:#018x}, {:#018x}, {:#018x}, {:#018x}),",
                b.0, b.1, b.2, b.3, b.4, b.5
            )
        })
        .collect();
    assert_eq!(
        &got,
        recorded,
        "{}: the snapshots moved; the engine now produces\n{}",
        topo.name(),
        actual.join("\n")
    );
}

#[test]
fn torus_3x3_interrupted_timelines_are_bit_stable() {
    check_cuts(&generators::torus(&[3, 3]), &TORUS_3X3_CUTS);
}

#[test]
fn hypercube_3d_interrupted_timelines_are_bit_stable() {
    check_cuts(&generators::hypercube(3), &HYPERCUBE_3D_CUTS);
}

#[test]
fn ring_4_interrupted_timelines_are_bit_stable() {
    check_cuts(&generators::ring(4), &RING_4_CUTS);
}

/// Completion bits, per-step completion bits and the busy hash, per model
/// (synchronized, dependency-driven).
type RecordedEmpty = [(u64, &'static [u64], u64); 2];

fn fingerprint(rep: &EventReport) -> (u64, Vec<u64>, u64) {
    (
        rep.report.completion_seconds.to_bits(),
        rep.step_completion_secs
            .iter()
            .map(|s| s.to_bits())
            .collect(),
        fnv(rep.per_link.iter().map(|l| l.busy_secs.to_bits())),
    )
}

/// The fabric's schedule with an empty step before its first and another
/// after its first.
fn check_empty_steps(topo: &Topology, recorded: &RecordedEmpty) {
    let mut sched = chunked(topo);
    let empty = ScheduleStep {
        transfers: Vec::new(),
    };
    sched.steps.insert(1, empty.clone());
    sched.steps.insert(0, empty);
    assert_eq!(sched.validate(topo), Vec::<String>::new());
    let mut actual = String::new();
    let mut moved = Vec::new();
    for (model, (completion, steps, hash)) in [
        ExecutionModel::Synchronized,
        ExecutionModel::DependencyDriven,
    ]
    .into_iter()
    .zip(recorded)
    {
        let options = EventSimOptions {
            model,
            scenario: scenario(topo),
        };
        let rep =
            simulate_chunked_event(topo, &sched, SHARD, &SimParams::default(), &options).unwrap();
        let got = fingerprint(&rep);
        let step_list: Vec<String> = got.1.iter().map(|b| format!("{b:#018x}")).collect();
        actual.push_str(&format!(
            "    // {model:?}\n    ({:#018x}, &[{}], {:#018x}),\n",
            got.0,
            step_list.join(", "),
            got.2
        ));
        if got != (*completion, steps.to_vec(), *hash) {
            moved.push(model);
        }
    }
    assert!(
        moved.is_empty(),
        "{}: {moved:?} moved; the engine now produces\n{actual}",
        topo.name()
    );
}

#[test]
fn torus_3x3_empty_steps_are_bit_stable() {
    check_empty_steps(&generators::torus(&[3, 3]), &TORUS_3X3_EMPTY);
}

#[test]
fn ring_4_empty_steps_are_bit_stable() {
    check_empty_steps(&generators::ring(4), &RING_4_EMPTY);
}

/// A timeline snapshot needs a barrier to cut at, so a dependency-driven
/// timeline run is refused, with or without events.
#[test]
fn dependency_driven_timelines_are_unsupported() {
    let topo = generators::ring(4);
    let sched = chunked(&topo);
    for timeline in [
        ScenarioTimeline::nominal(),
        ScenarioTimeline::nominal().with_link_failure_at(1e-4, 0),
    ] {
        let err = simulate_chunked_timeline(
            &topo,
            &sched,
            SHARD,
            &SimParams::default(),
            &timeline,
            ExecutionModel::DependencyDriven,
        )
        .unwrap_err();
        assert!(matches!(err, SimError::Unsupported(_)), "{err}");
    }
}

const TORUS_3X3_CUTS: RecordedCuts = [
    (
        0x3f8f4277399a8ff5,
        0xf5262b21c46a97d6,
        0x604423ec92044165,
        0x4170bfd2d6f64272,
        0x4133bb83784d58e0,
        0x414023a78c274004,
    ),
    (
        0x3f84cf680d08a9e7,
        0x64a50171db7a3f58,
        0x2b4e76d1a8caae03,
        0x0000000000000000,
        0x0000000000000000,
        0x41a7000000000000,
    ),
];
const HYPERCUBE_3D_CUTS: RecordedCuts = [
    (
        0x3f936966e12c6535,
        0xb8d96f9be776ef62,
        0xc6b4ea049db81985,
        0x4157ee4a32eae8c6,
        0x4140236b9a2a2e74,
        0x0000000000000000,
    ),
    (
        0x3f814246d731cad1,
        0xef47417416ca7c0b,
        0x0cdcb702ea0afa45,
        0x0000000000000000,
        0x0000000000000000,
        0x41a5000000000000,
    ),
];
const RING_4_CUTS: RecordedCuts = [
    (
        0x3fa075e46c178132,
        0x80fdf641ff9fe301,
        0x850724a3e5a9cd65,
        0x4147ea98164bdb4d,
        0x41302acfd3684966,
        0x0000000000000000,
    ),
    (
        0x3f9109ea6f51e7a7,
        0xa538cf272699ad89,
        0x38abe1338f98f7a5,
        0x0000000000000000,
        0x0000000000000000,
        0x4180000000000000,
    ),
];
const TORUS_3X3_EMPTY: RecordedEmpty = [
    // Synchronized
    (
        0x3f917fbe4dd14cfc,
        &[
            0x0000000000000000,
            0x3f84d745511bff2f,
            0x3f84f6240bff6b36,
            0x3f91701d8d0f7c6d,
        ],
        0x9dab05be6ccfeb34,
    ),
    // DependencyDriven
    (
        0x3f9151962a0b3e7f,
        &[
            0x0000000000000000,
            0x3f8d22ccb9143426,
            0x3f8d22ccb9143426,
            0x3f9151962a0b3e7f,
        ],
        0xcfba42644571d051,
    ),
];
const RING_4_EMPTY: RecordedEmpty = [
    // Synchronized
    (
        0x3f9505785fa2c7b0,
        &[
            0x0000000000000000,
            0x3f84d745511bff2f,
            0x3f84f6114af45d4a,
            0x3f9170142c89f577,
            0x3f94f609023111ac,
        ],
        0xd8cbab78ae5b15f8,
    ),
    // DependencyDriven
    (
        0x3f971b66f0577246,
        &[
            0x0000000000000000,
            0x3f8ab76c953091c2,
            0x3f8ab76c953091c2,
            0x3f943b755cf9c784,
            0x3f971b66f0577246,
        ],
        0xe0a329963e9eff3f,
    ),
];
