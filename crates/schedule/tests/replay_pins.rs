//! The buffer replay's verdicts on malformed schedules, pinned string for string.
//!
//! [`ChunkedSchedule::validate`] returns every violation, and
//! [`TransferDag::from_schedule`] and [`holdings_after`] stop at the first; all
//! three walk the one replay of `a2a_schedule::exec`. A seeded corpus corrupts a
//! hand-built schedule (no LP, so no solver change moves it) in each of the
//! ways the replay and the validator check: zero granularity, ranks outside
//! the schedule, an unknown commodity, an over-send, a missing link and a
//! short delivery. Each mutant pins the count and hash of `validate`'s full
//! issue list, its first issue, and the first-violation strings of the other
//! two, so a replay that reorders, merges or rewords a verdict fails here.

use a2a_mcf::CommoditySet;
use a2a_schedule::{holdings_after, ChunkTransfer, ChunkedSchedule, ScheduleStep, TransferDag};
use a2a_topology::paths::shortest_path;
use a2a_topology::{generators, Topology};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// An executable all-to-all on `topo` at `cps` chunks per shard: every
/// commodity walks its shortest path one hop per step, each hop split into a
/// one-chunk transfer and one for the rest (so buffers hold several runs).
fn hand_built(topo: &Topology, cps: usize) -> ChunkedSchedule {
    let n = topo.num_nodes();
    let commodities = CommoditySet::all_pairs(n);
    let paths: Vec<Vec<usize>> = commodities
        .iter()
        .map(|(_, s, d)| shortest_path(topo, s, d).unwrap().nodes().to_vec())
        .collect();
    let hops = paths.iter().map(|p| p.len() - 1).max().unwrap_or(0);
    let steps = (0..hops)
        .map(|t| {
            let mut transfers = Vec::new();
            for ((_, s, d), path) in commodities.iter().zip(&paths) {
                let Some(link) = path.get(t..t + 2) else {
                    continue;
                };
                for chunks in [1, cps - 1] {
                    if chunks > 0 {
                        transfers.push(ChunkTransfer {
                            from: link[0],
                            to: link[1],
                            origin: s,
                            final_dest: d,
                            chunks,
                        });
                    }
                }
            }
            ScheduleStep { transfers }
        })
        .collect();
    let sched = ChunkedSchedule {
        num_ranks: n,
        commodities,
        chunks_per_shard: cps,
        steps,
    };
    assert_eq!(sched.validate(topo), Vec::<String>::new());
    sched
}

/// One seeded corruption of class `class` (0–5, in the module docs' order).
fn corrupt(topo: &Topology, sched: &mut ChunkedSchedule, class: usize, rng: &mut ChaCha8Rng) {
    let n = sched.num_ranks;
    let t = rng.random_range(0..sched.steps.len());
    let transfers = &mut sched.steps[t].transfers;
    let i = rng.random_range(0..transfers.len());
    let tr = &mut transfers[i];
    match class {
        0 => sched.chunks_per_shard = 0,
        1 => match rng.random_range(0..3) {
            0 => tr.from = n + rng.random_range(0..3),
            1 => tr.to = n + rng.random_range(0..3),
            _ => {
                let mut endpoints: Vec<usize> = (0..n).collect();
                endpoints[rng.random_range(0..n)] = n + 4;
                sched.commodities = CommoditySet::among(endpoints);
            }
        },
        2 => {
            if rng.random_bool(0.5) {
                tr.final_dest = tr.origin;
            } else {
                tr.origin = n + 5;
            }
        }
        3 => tr.chunks += rng.random_range(1..4),
        4 => {
            let from = tr.from;
            let off: Vec<usize> = (0..n)
                .filter(|&v| v != from && !topo.has_edge(from, v))
                .collect();
            tr.to = off[rng.random_range(0..off.len())];
        }
        _ => {
            transfers.remove(i);
        }
    }
}

/// FNV-1a over the issues, each followed by a separator.
fn fnv(issues: &[String]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for byte in issues.iter().flat_map(|m| m.bytes().chain([0xff])) {
        h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// `(issue count, issue hash, first issue, from_schedule's error,
/// holdings_after's error over every step)`; `""` where there is none.
type Verdict = (usize, u64, &'static str, &'static str, &'static str);

fn check(topo: &Topology, cps: usize, recorded: &[Verdict]) {
    let clean = hand_built(topo, cps);
    let mut actual = String::new();
    let mut moved = Vec::new();
    for (seed, want) in recorded.iter().enumerate() {
        let mut rng = ChaCha8Rng::seed_from_u64(seed as u64);
        let mut sched = clean.clone();
        corrupt(topo, &mut sched, seed % 6, &mut rng);
        if seed >= 6 {
            // Two corruptions: the verdicts of one must not hide the other's.
            let class = rng.random_range(1..6);
            corrupt(topo, &mut sched, class, &mut rng);
        }
        let issues = sched.validate(topo);
        let dag = TransferDag::from_schedule(&sched).err().unwrap_or_default();
        let held = holdings_after(&sched, &sched.steps)
            .err()
            .unwrap_or_default();
        let first = issues.first().cloned().unwrap_or_default();
        let got = (issues.len(), fnv(&issues), first, dag, held);
        actual.push_str(&format!(
            "    ({}, {:#018x}, {:?}, {:?}, {:?}),\n",
            got.0, got.1, got.2, got.3, got.4
        ));
        if (got.0, got.1, got.2.as_str(), got.3.as_str(), got.4.as_str())
            != (want.0, want.1, want.2, want.3, want.4)
        {
            moved.push(seed);
        }
    }
    assert!(
        moved.is_empty(),
        "{} @ {cps}: seeds {:?} moved; the replay now gives\n{actual}",
        topo.name(),
        moved
    );
}

#[test]
fn torus_3x3_malformed_corpus_is_pinned() {
    check(&generators::torus(&[3, 3]), 3, &TORUS_3X3);
}

#[test]
fn ring_4_malformed_corpus_is_pinned() {
    check(&generators::ring(4), 2, &RING_4);
}

const TORUS_3X3: [Verdict; 12] = [
    (
        217,
        0x4a44f913685f2811,
        "granularity must be positive",
        "granularity must be positive",
        "granularity must be positive",
    ),
    (
        72,
        0xf6f5da7a85cd1b0d,
        "commodity 0->13 names rank 13, outside 0..9",
        "commodity 0->13 names rank 13, outside 0..9",
        "commodity 0->13 names rank 13, outside 0..9",
    ),
    (
        3,
        0x7d28f65f94cf9a14,
        "step 0: unknown commodity 14->4",
        "step 0: unknown commodity 14->4",
        "step 0: unknown commodity 14->4",
    ),
    (
        2,
        0x07353007bb44f0dc,
        "step 1: rank 1 sends 5 chunks of 4->2 but holds 2",
        "step 1: rank 1 sends 5 chunks of 4->2 but holds 2",
        "step 1: rank 1 sends 5 chunks of 4->2 but holds 2",
    ),
    (
        2,
        0x798ce96665928127,
        "step 0: transfer 5->1 uses a missing link",
        "",
        "",
    ),
    (
        1,
        0xe4c26463ab0dc6a7,
        "commodity 1->5: destination holds 2/3 chunks at the end",
        "",
        "",
    ),
    (
        217,
        0x7e10e4191023941a,
        "granularity must be positive",
        "granularity must be positive",
        "granularity must be positive",
    ),
    (
        4,
        0xbe41fd676549dd08,
        "step 0: rank 3 sends 2 chunks of 3->6 but holds 1",
        "step 0: rank 3 sends 2 chunks of 3->6 but holds 1",
        "step 0: rank 3 sends 2 chunks of 3->6 but holds 1",
    ),
    (
        5,
        0x4f49ccb866636329,
        "step 0: unknown commodity 14->1",
        "step 0: unknown commodity 14->1",
        "step 0: unknown commodity 14->1",
    ),
    (
        2,
        0x506c4321d5f502a1,
        "step 0: rank 3 sends 2 chunks of 3->4 but holds 0",
        "step 0: rank 3 sends 2 chunks of 3->4 but holds 0",
        "step 0: rank 3 sends 2 chunks of 3->4 but holds 0",
    ),
    (
        4,
        0x0cf12f09e4318e44,
        "step 1: rank 0 sends 4 chunks of 6->1 but holds 2",
        "step 1: rank 0 sends 4 chunks of 6->1 but holds 2",
        "step 1: rank 0 sends 4 chunks of 6->1 but holds 2",
    ),
    (
        3,
        0x8eb41f1600c54c2f,
        "step 1: rank 0 sends 5 chunks of 3->2 but holds 2",
        "step 1: rank 0 sends 5 chunks of 3->2 but holds 2",
        "step 1: rank 0 sends 5 chunks of 3->2 but holds 2",
    ),
];
const RING_4: [Verdict; 12] = [
    (
        49,
        0x58365bb84d666a71,
        "granularity must be positive",
        "granularity must be positive",
        "granularity must be positive",
    ),
    (
        33,
        0x03606634243fe97a,
        "commodity 8->1 names rank 8, outside 0..4",
        "commodity 8->1 names rank 8, outside 0..4",
        "commodity 8->1 names rank 8, outside 0..4",
    ),
    (
        2,
        0x2cf9405fa8152cd1,
        "step 1: unknown commodity 9->3",
        "step 1: unknown commodity 9->3",
        "step 1: unknown commodity 9->3",
    ),
    (
        2,
        0x4ff112b80a1c2618,
        "step 2: rank 3 sends 4 chunks of 1->0 but holds 1",
        "step 2: rank 3 sends 4 chunks of 1->0 but holds 1",
        "step 2: rank 3 sends 4 chunks of 1->0 but holds 1",
    ),
    (
        3,
        0x0981ea289f69e882,
        "step 2: rank 1 sends 1 chunks of 3->2 but holds 0",
        "step 2: rank 1 sends 1 chunks of 3->2 but holds 0",
        "step 2: rank 1 sends 1 chunks of 3->2 but holds 0",
    ),
    (
        2,
        0x2d8755d45d23825a,
        "step 1: rank 2 sends 1 chunks of 1->3 but holds 0",
        "step 1: rank 2 sends 1 chunks of 1->3 but holds 0",
        "step 1: rank 2 sends 1 chunks of 1->3 but holds 0",
    ),
    (
        49,
        0x77f96f7908d01261,
        "granularity must be positive",
        "granularity must be positive",
        "granularity must be positive",
    ),
    (
        3,
        0xe2b04c7b61ed8dcd,
        "step 0: transfer 4->1 names rank 4, outside 0..4",
        "step 0: transfer 4->1 names rank 4, outside 0..4",
        "step 0: transfer 4->1 names rank 4, outside 0..4",
    ),
    (
        3,
        0x144a8e6645c09ec7,
        "step 2: unknown commodity 9->0",
        "step 2: unknown commodity 9->0",
        "step 2: unknown commodity 9->0",
    ),
    (
        4,
        0xcc6926e0deb6522c,
        "step 2: rank 2 sends 3 chunks of 0->3 but holds 2",
        "step 2: rank 2 sends 3 chunks of 0->3 but holds 2",
        "step 2: rank 2 sends 3 chunks of 0->3 but holds 2",
    ),
    (
        4,
        0x878fe38156787402,
        "step 0: rank 0 sends 3 chunks of 0->1 but holds 1",
        "step 0: rank 0 sends 3 chunks of 0->1 but holds 1",
        "step 0: rank 0 sends 3 chunks of 0->1 but holds 1",
    ),
    (
        4,
        0x6109031d3bda9533,
        "step 1: rank 1 sends 4 chunks of 0->3 but holds 1",
        "step 1: rank 1 sends 4 chunks of 0->3 but holds 1",
        "step 1: rank 1 sends 4 chunks of 0->3 but holds 1",
    ),
];

/// A transfer of a commodity whose endpoint lies outside the ranks is a known
/// commodity that the sender does not hold, not an unknown one.
#[test]
fn commodity_endpoints_outside_the_ranks_keep_their_index() {
    let topo = generators::ring(4);
    let mut sched = hand_built(&topo, 2);
    sched.commodities = CommoditySet::among(vec![0, 1, 2, 9]);
    sched.steps[0].transfers.push(ChunkTransfer {
        from: 0,
        to: 1,
        origin: 9,
        final_dest: 1,
        chunks: 1,
    });
    let issues = sched.validate(&topo);
    let first_two: Vec<&str> = issues.iter().take(2).map(String::as_str).collect();
    assert_eq!(
        first_two,
        [
            "commodity 0->9 names rank 9, outside 0..4",
            "commodity 1->9 names rank 9, outside 0..4"
        ]
    );
    let stray = "step 0: rank 0 sends 1 chunks of 9->1 but holds 0";
    assert!(issues.iter().any(|m| m == stray), "{issues:?}");
    assert!(
        !issues.iter().any(|m| m.contains("unknown commodity 9->")),
        "{issues:?}"
    );
}
