//! Bit-pinned event-engine outcomes where the fair-share freeze order matters.
//!
//! `event::tests::empty_timeline_reproduces_the_static_engine_exactly` pins the
//! synchronized engine on link-only capacities. This file pins what it leaves
//! open: the dependency-driven engine, and both engines once a flow touches more
//! than one finite resource (host injection / ejection caps) or a capacity that
//! depends on the member count (queue-pair contention). Completion time,
//! per-step completion times and an ordered hash of every link's busy time are
//! compared as `f64` bit patterns, so a fair-share kernel that freezes a
//! different bottleneck on a tie, or charges `residual` in a different order,
//! fails here.

use a2a_mcf::tsmcf::{minimum_steps, solve_tsmcf_among_dense};
use a2a_mcf::CommoditySet;
use a2a_schedule::ChunkedSchedule;
use a2a_simnet::{
    simulate_chunked_event, EventReport, EventSimOptions, ExecutionModel, QpContention, Scenario,
    SimParams,
};
use a2a_topology::{generators, Topology};

/// The dense-reference tsMCF schedule at the minimum step count, 128 chunks —
/// the schedule the in-crate bit pins are recorded on.
fn chunked(topo: &Topology) -> ChunkedSchedule {
    let commodities = CommoditySet::all_pairs(topo.num_nodes());
    let steps = minimum_steps(topo, &commodities).unwrap();
    let sol = solve_tsmcf_among_dense(topo, commodities, steps).unwrap();
    ChunkedSchedule::from_tsmcf(topo, &sol, 128).unwrap()
}

/// FNV-1a over the links' busy-time bit patterns, in edge order.
fn busy_hash(rep: &EventReport) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for link in &rep.per_link {
        for byte in link.busy_secs.to_bits().to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Completion bits, per-step completion bits, busy hash.
fn fingerprint(rep: &EventReport) -> (u64, Vec<u64>, u64) {
    (
        rep.report.completion_seconds.to_bits(),
        rep.step_completion_secs
            .iter()
            .map(|s| s.to_bits())
            .collect(),
        busy_hash(rep),
    )
}

const HOST_CAP: Option<f64> = Some(2.0);
const QP: Option<QpContention> = Some(QpContention {
    free_flows_per_link: 1,
    penalty_per_flow: 0.5,
});
/// A looser cap (this share of a node's aggregate link bandwidth) and a milder
/// penalty for the combined cases, so that links, injection and ejection all
/// bottleneck some flow of the same recompute.
const HOST_SHARE_MILD: f64 = 0.6;
const QP_MILD: Option<QpContention> = Some(QpContention {
    free_flows_per_link: 1,
    penalty_per_flow: 0.1,
});

/// `(name, model, host cap, QP contention)` of every pinned case on a fabric
/// whose nodes each drive `degree` links.
fn cases(
    degree: f64,
) -> [(
    &'static str,
    ExecutionModel,
    Option<f64>,
    Option<QpContention>,
); 7] {
    let host_cap_mild = Some(HOST_SHARE_MILD * degree * SimParams::default().link_bandwidth_gbps);
    [
        ("dep", ExecutionModel::DependencyDriven, None, None),
        ("sync+host", ExecutionModel::Synchronized, HOST_CAP, None),
        ("dep+host", ExecutionModel::DependencyDriven, HOST_CAP, None),
        ("sync+qp", ExecutionModel::Synchronized, None, QP),
        ("dep+qp", ExecutionModel::DependencyDriven, None, QP),
        (
            "sync+host+qp",
            ExecutionModel::Synchronized,
            host_cap_mild,
            QP_MILD,
        ),
        (
            "dep+host+qp",
            ExecutionModel::DependencyDriven,
            host_cap_mild,
            QP_MILD,
        ),
    ]
}

/// `(completion bits, per-step completion bits, busy hash)` per case, in
/// [`cases`] order.
type Recorded = [(u64, &'static [u64], u64); 7];

fn check(topo: &Topology, recorded: &Recorded) {
    let sched = chunked(topo);
    let shard = 4.0 * 1024.0 * 1024.0;
    let degree = (topo.num_edges() / topo.num_nodes()) as f64;
    // Three slowed links make the fair levels heterogeneous; α jitter staggers
    // the dependency-driven departures.
    let scenario =
        Scenario::seeded_slowdowns(topo, 5, 3, 0.25, 0.75).with_alpha_jitter(9, 1.0, 2.0);
    let run = |model, host_injection_gbps, qp_contention| {
        let params = SimParams {
            host_injection_gbps,
            qp_contention,
            ..SimParams::default()
        };
        let options = EventSimOptions {
            model,
            scenario: scenario.clone(),
        };
        simulate_chunked_event(topo, &sched, shard, &params, &options).unwrap()
    };
    let mut actual = String::new();
    let mut moved = Vec::new();
    for ((name, model, host, qp), (completion, steps, hash)) in cases(degree).iter().zip(recorded) {
        let got = fingerprint(&run(*model, *host, *qp));
        // Each knob must bind (dropping it changes the outcome), or the case
        // pins nothing the link-only cases do not.
        for (knob, without) in [
            (host.is_some(), run(*model, None, *qp)),
            (qp.is_some(), run(*model, *host, None)),
        ] {
            assert!(
                !knob || fingerprint(&without) != got,
                "{} {name}: a resource family does not bind",
                topo.name()
            );
        }
        let step_list: Vec<String> = got.1.iter().map(|b| format!("{b:#018x}")).collect();
        actual.push_str(&format!(
            "    // {name}\n    ({:#018x}, &[{}], {:#018x}),\n",
            got.0,
            step_list.join(", "),
            got.2
        ));
        if got != (*completion, steps.to_vec(), *hash) {
            moved.push(*name);
        }
    }
    assert!(
        moved.is_empty(),
        "{}: cases {moved:?} moved; the engine now produces\n{actual}",
        topo.name()
    );
}

#[test]
fn hypercube_3d_event_outcomes_are_bit_stable() {
    check(&generators::hypercube(3), &HYPERCUBE_3D);
}

#[test]
fn torus_3x3_event_outcomes_are_bit_stable() {
    check(&generators::torus(&[3, 3]), &TORUS_3X3);
}

#[test]
fn ring_4_event_outcomes_are_bit_stable() {
    check(&generators::ring(4), &RING_4);
}

const HYPERCUBE_3D: Recorded = [
    // dep
    (
        0x3f9231b7b3083cb9,
        &[0x3f8687004c6ecd9b, 0x3f8a3247a8afe140, 0x3f9231b7b3083cb9],
        0x3bf6e277a11e614b,
    ),
    // sync+host
    (
        0x3fa2581f6acd8b5b,
        &[0x3f8e1094d643f784, 0x3f99d48139abf7e2, 0x3fa2504f0a6ca314],
        0x51c6e6e6423d0e05,
    ),
    // dep+host
    (
        0x3fa16f93d9be197c,
        &[0x3f9194e1295f509a, 0x3f9e5bd874b9f1c6, 0x3fa16f93d9be197c],
        0x858094174ffa995d,
    ),
    // sync+qp
    (
        0x3f9fec1c7a287173,
        &[0x3f913a69931e758a, 0x3f956960ead6ee6a, 0x3f9fdc7bb966a0e4],
        0xb59700e617066dfa,
    ),
    // dep+qp
    (
        0x3fa2ffeeacaad3df,
        &[0x3f9daaae66cf5b8a, 0x3f9fbab56119e164, 0x3fa2ffeeacaad3df],
        0x636b59783e54fecc,
    ),
    // sync+host+qp
    (
        0x3f95f47c8b5704af,
        &[0x3f84ac7eb08af373, 0x3f8c6e0d60d4f7bc, 0x3f95e4dbca953420],
        0xe845b74b2c4a83fa,
    ),
    // dep+host+qp
    (
        0x3f95f1d60e1f1fda,
        &[0x3f8d9dbb3e047ca9, 0x3f913e1793860075, 0x3f95f1d60e1f1fda],
        0xab39d1f8357208e7,
    ),
];
const TORUS_3X3: Recorded = [
    // dep
    (
        0x3f9151962a0b3e7f,
        &[0x3f8d22ccb9143426, 0x3f9151962a0b3e7f],
        0xcfba42644571d051,
    ),
    // sync+host
    (
        0x3fa4763632c7e21a,
        &[0x3f95798ee2308c3a, 0x3fa46e65d266f9d3],
        0x2329cc0b00ba1f06,
    ),
    // dep+host
    (
        0x3fa386265e6d95de,
        &[0x3f9803e35724ac96, 0x3fa386265e6d95de],
        0x6190b0693b858ca4,
    ),
    // sync+qp
    (
        0x3fa0393842420a55,
        &[0x3f94c78ac8f554a0, 0x3fa03167e1e1220e],
        0x76c3df8cbb57b746,
    ),
    // dep+qp
    (
        0x3fa5d9cb6f080690,
        &[0x3fa3c9fff130d866, 0x3fa5d9cb6f080690],
        0x99b35c0329e433b7,
    ),
    // sync+host+qp
    (
        0x3f9435497a0f9ca5,
        &[0x3f88ef73578ccbf3, 0x3f9425a8b94dcc16],
        0x22f96aa366f07f96,
    ),
    // dep+host+qp
    (
        0x3f9616769af19a40,
        &[0x3f9222376de82471, 0x3f9616769af19a40],
        0xf82520f135cfac86,
    ),
];
const RING_4: Recorded = [
    // dep
    (
        0x3f971b66f0577246,
        &[0x3f8ab76c953091c2, 0x3f943b755cf9c784, 0x3f971b66f0577246],
        0xe0a329963e9eff3f,
    ),
    // sync+host
    (
        0x3f94f5bdd77c1d21,
        &[0x3f84c78ac8f554a0, 0x3f916059a4634ae8, 0x3f94e64e7a0a671d],
        0xe698e1746a3e77ac,
    ),
    // dep+host
    (
        0x3f96cc5349e6572a,
        &[0x3f8af56703a566e0, 0x3f93ec61b688ac68, 0x3f96cc5349e6572a],
        0xbc7e6e37c80396e8,
    ),
    // sync+qp
    (
        0x3fa1680d2eba801c,
        &[0x3f94c78ac8f554a0, 0x3f9f3ab62a5c2dfe, 0x3fa160558001a51a],
        0xaa061b57d1b9da54,
    ),
    // dep+qp
    (
        0x3fa899c498c1f828,
        &[0x3f9dd39c1ea695ff, 0x3fa729cbcf1322c7, 0x3fa899c498c1f828],
        0x7f3d70ddfd5efec8,
    ),
    // sync+host+qp
    (
        0x3f97bb038be11759,
        &[0x3f88ef73578ccbf3, 0x3f94259f58c84520, 0x3f97ab942e6f6155],
        0xa718c795a4ca5729,
    ),
    // dep+host+qp
    (
        0x3f9d41a846f6ae5f,
        &[0x3f93669260c2da66, 0x3f9a61b6b399039d, 0x3f9d41a846f6ae5f],
        0x670f344f5c71709d,
    ),
];
