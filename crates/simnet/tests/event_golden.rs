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
        0x3f8e76e07c93a851,
        &[0x3f813b7d1847c689, 0x3f8bb5f6f306ea0a, 0x3f8e76e07c93a851],
        0x15eaac4286edaaa0,
    ),
    // sync+host
    (
        0x3fa47dfefde42d25,
        &[0x3f9353cd652bb168, 0x3fa135c396dfb197, 0x3fa4762e9d8344de],
        0x916513abbd21f4c7,
    ),
    // dep+host
    (
        0x3fa3a1e61e2aeca0,
        &[0x3f9533cd434cf0bc, 0x3fa1b649777e1d47, 0x3fa3a1e61e2aeca0],
        0x6e4e295b535021a8,
    ),
    // sync+qp
    (
        0x3f9d2ca8aa1cd2cb,
        &[0x3f913a69931e7589, 0x3f9bad9e550ad5de, 0x3f9d1d07e95b023c],
        0xfa56b75dcc143409,
    ),
    // dep+qp
    (
        0x3f9ac13fd9497192,
        &[0x3f933dfc8f170478, 0x3f9960607253720a, 0x3f9ac13fd9497192],
        0x9e2a4ece7db87fbe,
    ),
    // sync+host+qp
    (
        0x3f946dc8b99940f3,
        &[0x3f84ac7eb08af373, 0x3f92042e65ccdfd5, 0x3f945e27f8d77064],
        0x805940458637faef,
    ),
    // dep+host+qp
    (
        0x3f90a0efd6560258,
        &[0x3f84ad51b418c2ae, 0x3f8e80f6231f466a, 0x3f90a0efd6560258],
        0x1f4551ebaa45bdf2,
    ),
];
const TORUS_3X3: Recorded = [
    // dep
    (
        0x3f878a1a8bf3ac3e,
        &[0x3f84c896d9b59426, 0x3f878a1a8bf3ac3e],
        0x2e20a59d94494c34,
    ),
    // sync+host
    (
        0x3fa13d93f74099dd,
        &[0x3f912e0be826d695, 0x3fa135c396dfb196],
        0x269276004243f9e0,
    ),
    // dep+host
    (
        0x3fa1ce2d0b2cf767,
        &[0x3f96b973bdd7ecc8, 0x3fa1ce2d0b2cf767],
        0x177f9d7f5845ee18,
    ),
    // sync+qp
    (
        0x3f92c1e5773bb69b,
        &[0x3f84c78ac8f554a1, 0x3f92b244b679e60c],
        0x438cdfaea0aa30de,
    ),
    // dep+qp
    (
        0x3f9628b11074c0e0,
        &[0x3f94c7ef3755b4d5, 0x3f9628b11074c0e0],
        0x5357b84288bed8db,
    ),
    // sync+host+qp
    (
        0x3f896065f53c40fd,
        &[0x3f7e79fec056c063, 0x3f89412473b89fe0],
        0x8ae8ea2b73926c23,
    ),
    // dep+host+qp
    (
        0x3f8bb1f14300e918,
        &[0x3f88f06d90c2d100, 0x3f8bb1f14300e918],
        0xc4cd2f402a90b256,
    ),
];
const RING_4: Recorded = [
    // dep
    (
        0x3f971b2383c596ce,
        &[0x3f8ab6db6f518fa0, 0x3f943b4b5e472ded, 0x3f971b2383c596ce],
        0xb67f0d5a994ac73c,
    ),
    // sync+host
    (
        0x3f94f5bdd77c1d23,
        &[0x3f7bb4b90bf1c62c, 0x3f8bd38505ca2448, 0x3f94e64e7a0a671f],
        0xcbebb5014b7bc16a,
    ),
    // dep+host
    (
        0x3f96cbf7cea86393,
        &[0x3f8af4060ac24573, 0x3f93ec1fa929fab2, 0x3f96cbf7cea86393],
        0xc6e15c4b7040e0ec,
    ),
    // sync+qp
    (
        0x3f9f59833bf6c772,
        &[0x3f84c78ac8f554a1, 0x3f94d6f0c5e183ae, 0x3f9f4a13de85116e],
        0x5de3d71edcdbc88c,
    ),
    // dep+qp
    (
        0x3fa89b66c4492403,
        &[0x3f9dd908a3326176, 0x3fa72b7ab189ef93, 0x3fa89b66c4492403],
        0xfbae5e8dfde7ce11,
    ),
    // sync+host+qp
    (
        0x3f9709b21ec7d8cd,
        &[0x3f7e79fec056c064, 0x3f8e98caba2f1e80, 0x3f96fa42c15622c9],
        0x2907a58120337dd0,
    ),
    // dep+host+qp
    (
        0x3f9d419b5a17a1f2,
        &[0x3f9366a6a95cb9b6, 0x3f9a61c334993911, 0x3f9d419b5a17a1f2],
        0x58d8207b2c0c13fa,
    ),
];
