//! Failure-path coverage for the two schedule validators.
//!
//! [`ChunkedSchedule::validate`] and [`RouteTable::validate`] return human-readable
//! `Vec<String>` violation lists; the happy paths are exercised throughout the
//! workspace but the individual failure branches were not pinned anywhere. Each test
//! here corrupts a known-good artifact in exactly one way and asserts both that the
//! validator objects and that it names the right violation.

use a2a_mcf::pmcf::{solve_path_mcf, PathSetKind};
use a2a_mcf::tscolgen::solve_tsmcf_colgen_auto;
use a2a_mcf::CommoditySet;
use a2a_schedule::routes::{CommodityRoutes, Route};
use a2a_schedule::{
    assign_virtual_channels, lower_path_schedule, realized_route_table, ChunkTransfer,
    ChunkedSchedule, LashVariant, RouteTable, ScheduleStep, TransferDag,
};
use a2a_topology::paths::shortest_path;
use a2a_topology::{generators, Path, Topology};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn chunked_on(topo: &Topology) -> ChunkedSchedule {
    let sol = solve_tsmcf_colgen_auto(topo).unwrap().solution;
    let sched = ChunkedSchedule::from_tsmcf(topo, &sol, 64).unwrap();
    assert!(sched.validate(topo).is_empty(), "baseline must be clean");
    sched
}

fn route_table_on(topo: &Topology) -> RouteTable {
    let sched = solve_path_mcf(topo, PathSetKind::EdgeDisjoint).unwrap();
    let table = lower_path_schedule(topo, &sched, 8, LashVariant::Sequential);
    assert!(table.validate().is_empty(), "baseline must be clean");
    table
}

// ---------------------------------------------------------------------------
// ChunkedSchedule::validate
// ---------------------------------------------------------------------------

#[test]
fn chunked_validate_flags_missing_links() {
    let topo = generators::ring(4); // directed: 2->0 does not exist
    let mut sched = chunked_on(&topo);
    sched.steps[0].transfers.push(ChunkTransfer {
        from: 2,
        to: 0,
        origin: 2,
        final_dest: 0,
        chunks: 1,
    });
    let issues = sched.validate(&topo);
    assert!(
        issues.iter().any(|m| m.contains("missing link")),
        "{issues:?}"
    );
}

#[test]
fn chunked_validate_flags_unknown_commodities() {
    let topo = generators::complete(3);
    let mut sched = chunked_on(&topo);
    // origin == final_dest is not a commodity of any all-to-all.
    sched.steps[0].transfers.push(ChunkTransfer {
        from: 0,
        to: 1,
        origin: 1,
        final_dest: 1,
        chunks: 1,
    });
    let issues = sched.validate(&topo);
    assert!(
        issues.iter().any(|m| m.contains("unknown commodity")),
        "{issues:?}"
    );
}

#[test]
fn chunked_validate_flags_oversends() {
    // Chunk conservation at the sender: a rank cannot send chunks it does not hold
    // (here: more chunks of its own shard than the granularity provides).
    let topo = generators::complete(3);
    let mut sched = chunked_on(&topo);
    sched.steps[0].transfers.push(ChunkTransfer {
        from: 0,
        to: 1,
        origin: 0,
        final_dest: 1,
        chunks: sched.chunks_per_shard * 10,
    });
    let issues = sched.validate(&topo);
    assert!(issues.iter().any(|m| m.contains("but holds")), "{issues:?}");
}

#[test]
fn chunked_validate_flags_relay_of_undelivered_chunks() {
    // A relay hop whose inbound copy never arrives is a buffer violation at the
    // intermediate rank, not just a shortfall at the destination.
    let topo = generators::ring(3);
    let mut sched = chunked_on(&topo);
    // Commodity 0->2 relays 0->1->2 on the directed ring: drop the first hop and
    // keep the relay.
    let first_hop = sched.steps[0]
        .transfers
        .iter()
        .position(|t| t.origin == 0 && t.final_dest == 2 && t.from == 0)
        .expect("0->2 must leave its origin in step 0");
    sched.steps[0].transfers.remove(first_hop);
    let issues = sched.validate(&topo);
    assert!(issues.iter().any(|m| m.contains("but holds")), "{issues:?}");
}

#[test]
fn chunked_validate_flags_destination_shortfall() {
    let topo = generators::complete(3);
    let mut sched = chunked_on(&topo);
    // Remove every transfer of one commodity: its destination ends short.
    for step in &mut sched.steps {
        step.transfers
            .retain(|t| !(t.origin == 0 && t.final_dest == 1));
    }
    let issues = sched.validate(&topo);
    assert!(
        issues
            .iter()
            .any(|m| m.contains("destination holds") && m.contains("0->1")),
        "{issues:?}"
    );
}

#[test]
fn chunked_validate_flags_out_of_range_ranks() {
    // A transfer end or commodity endpoint outside 0..num_ranks is reported,
    // by the validator and by the realized-route replay, instead of panicking
    // on the per-rank buffers.
    let topo = generators::ring(3);
    let sched = chunked_on(&topo);
    let mut stray_sender = sched.clone();
    stray_sender.steps[0].transfers.push(ChunkTransfer {
        from: 7,
        to: 0,
        origin: 0,
        final_dest: 1,
        chunks: 1,
    });
    let mut stray_commodity = sched;
    stray_commodity.commodities = CommoditySet::among(vec![0, 1, 7]);
    for bad in [stray_sender, stray_commodity] {
        let issues = bad.validate(&topo);
        assert!(issues.iter().any(|m| m.contains("rank 7")), "{issues:?}");
        let err = realized_route_table(&bad).unwrap_err();
        assert!(err.contains("rank 7"), "{err}");
    }
}

#[test]
fn chunked_validate_flags_zero_granularity() {
    // Zero chunks per shard and zero-chunk transfers move nothing, yet every
    // destination "holds" all 0 of its chunks: only the granularity check
    // stands between this schedule and a simulated completion of nothing.
    let topo = generators::ring(3);
    let mut sched = chunked_on(&topo);
    sched.chunks_per_shard = 0;
    for tr in sched.steps.iter_mut().flat_map(|s| &mut s.transfers) {
        tr.chunks = 0;
    }
    let issues = sched.validate(&topo);
    assert_eq!(issues, ["granularity must be positive"]);
    let err = realized_route_table(&sched).unwrap_err();
    assert!(err.contains("granularity"), "{err}");
}

#[test]
fn chunked_validate_reports_every_violation_not_just_the_first() {
    let topo = generators::complete(3);
    let mut sched = chunked_on(&topo);
    sched.steps[0].transfers.push(ChunkTransfer {
        from: 1,
        to: 2,
        origin: 1,
        final_dest: 1,
        chunks: 1,
    });
    for step in &mut sched.steps {
        step.transfers
            .retain(|t| !(t.origin == 2 && t.final_dest == 0));
    }
    let issues = sched.validate(&topo);
    assert!(issues.len() >= 2, "{issues:?}");
}

/// True for the violations of the buffer replay itself — zero granularity, a
/// rank outside the schedule, an unknown commodity, a send of chunks the sender
/// does not hold — as opposed to a missing link or a delivery shortfall.
fn is_replay_violation(issue: &str) -> bool {
    [
        "granularity",
        "outside 0..",
        "unknown commodity",
        "but holds",
    ]
    .iter()
    .any(|tag| issue.contains(tag))
}

/// One seeded corruption of a schedule: drop a transfer, inflate its chunk
/// count, point one of its ends at a stray rank, relabel it with an unknown
/// commodity, or redirect it over a link the fabric does not have.
fn mutate(topo: &Topology, sched: &mut ChunkedSchedule, rng: &mut ChaCha8Rng) {
    let (n, cps) = (sched.num_ranks, sched.chunks_per_shard);
    let t = rng.random_range(0..sched.steps.len());
    let transfers = &mut sched.steps[t].transfers;
    if transfers.is_empty() {
        return;
    }
    let i = rng.random_range(0..transfers.len());
    match rng.random_range(0..5) {
        0 => {
            transfers.remove(i);
        }
        1 => transfers[i].chunks += rng.random_range(1..cps + 1),
        2 => {
            let stray = n + rng.random_range(0..3);
            if rng.random_bool(0.5) {
                transfers[i].from = stray;
            } else {
                transfers[i].to = stray;
            }
        }
        3 => transfers[i].final_dest = transfers[i].origin,
        _ => {
            let from = transfers[i].from;
            let off: Vec<usize> = (0..n)
                .filter(|&v| v != from && !topo.has_edge(from, v))
                .collect();
            if !off.is_empty() {
                transfers[i].to = off[rng.random_range(0..off.len())];
            }
        }
    }
}

/// The validator, the dependency extraction and the realized-route replay
/// walk the same buffers, so they must agree on every corrupted schedule: the
/// DAG is rejected exactly when the validator reports a rank, commodity or
/// holding violation, and on schedules that stay on fabric links the realized
/// route table exists exactly when the validator finds nothing at all.
#[test]
fn seeded_mutations_agree_across_the_schedule_replays() {
    let mut rejected = 0;
    let mut off_fabric = 0;
    for topo in [
        generators::torus(&[3, 3]),
        generators::hypercube(3),
        generators::generalized_kautz(8, 2),
    ] {
        let sol = solve_tsmcf_colgen_auto(&topo).unwrap().solution;
        for chunks in [1, 8] {
            let clean = ChunkedSchedule::from_tsmcf_exact(&topo, &sol, chunks).unwrap();
            for seed in 0..40u64 {
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                let mut sched = clean.clone();
                for _ in 0..rng.random_range(1..3) {
                    mutate(&topo, &mut sched, &mut rng);
                }
                let tag = format!("{} @ {chunks}, seed {seed}", topo.name());
                let issues = sched.validate(&topo);
                let replay_violation = issues.iter().any(|m| is_replay_violation(m));
                let dag_err = TransferDag::from_schedule(&sched).err();
                assert_eq!(
                    dag_err.is_some(),
                    replay_violation,
                    "{tag}: {issues:?} / {dag_err:?}"
                );
                rejected += usize::from(replay_violation);
                if issues.iter().any(|m| m.contains("missing link")) {
                    off_fabric += 1;
                    continue;
                }
                let routes = realized_route_table(&sched);
                assert_eq!(routes.is_ok(), issues.is_empty(), "{tag}: {issues:?}");
            }
        }
    }
    // The corpus exercises both sides of each equivalence.
    assert!(rejected > 0 && rejected < 240, "{rejected} of 240 rejected");
    assert!(off_fabric > 0, "no mutant left the fabric");
}

// ---------------------------------------------------------------------------
// Lowering golden
// ---------------------------------------------------------------------------

/// Order-sensitive FNV-1a over every `(from, to, origin, final_dest, chunks)`,
/// with a separator after each step.
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

/// The chunk lowering of colgen tsMCF solutions (default options), pinned
/// transfer for transfer: step count, transfer count and the ordered hash of
/// every transfer at 1, 8 and 128 chunks per shard. Recorded before the
/// nominal and residual quantizers were merged; any change to rounding, the
/// holdings cap, the flush or the emission order moves a hash.
#[test]
fn tsmcf_colgen_lowering_is_pinned() {
    let recorded: [(Topology, usize, usize, [u64; 3]); 3] = [
        (
            generators::torus(&[3, 3]),
            2,
            108,
            [
                0x6d95_e42a_29a4_5d55,
                0x954a_9c43_61dd_2e95,
                0x15c1_6827_b5dd_e695,
            ],
        ),
        (
            generators::hypercube(3),
            3,
            96,
            [
                0x5621_adc9_e543_b50d,
                0xf679_7236_ad63_904d,
                0x3c36_a4fc_67f8_784d,
            ],
        ),
        (
            generators::generalized_kautz(8, 2),
            3,
            122,
            [
                0x6247_fe1d_44a7_924b,
                0xfcf0_3618_6131_c26b,
                0xcecb_eac3_1d59_cb6b,
            ],
        ),
    ];
    for (topo, steps, transfers, hashes) in recorded {
        let cg = solve_tsmcf_colgen_auto(&topo).unwrap();
        for (chunks, hash) in [1, 8, 128].into_iter().zip(hashes) {
            let sched = ChunkedSchedule::from_tsmcf_exact(&topo, &cg.solution, chunks).unwrap();
            let tag = format!("{} @ {chunks} chunks", topo.name());
            assert_eq!(sched.num_steps(), steps, "{tag}: steps");
            assert_eq!(sched.total_transfers(), transfers, "{tag}: transfers");
            assert_eq!(
                transfer_hash(&sched.steps),
                hash,
                "{tag}: hash {:#018x}",
                transfer_hash(&sched.steps)
            );
        }
    }
}

// ---------------------------------------------------------------------------
// RouteTable::validate
// ---------------------------------------------------------------------------

#[test]
fn route_table_validate_flags_chunk_undercoverage() {
    let topo = generators::hypercube(3);
    let mut table = route_table_on(&topo);
    // Steal a chunk from the first commodity's first route: the shard is no longer
    // covered exactly.
    table.commodities[0].routes[0].chunks -= 1;
    let issues = table.validate();
    assert!(
        issues.iter().any(|m| m.contains("chunks assigned")),
        "{issues:?}"
    );
}

#[test]
fn route_table_validate_flags_chunk_overcoverage() {
    let topo = generators::hypercube(3);
    let mut table = route_table_on(&topo);
    table.commodities[0].routes[0].chunks += 3;
    let issues = table.validate();
    assert!(
        issues.iter().any(|m| m.contains("chunks assigned")),
        "{issues:?}"
    );
}

#[test]
fn route_table_validate_flags_dangling_routes() {
    let topo = generators::hypercube(3);
    let mut table = route_table_on(&topo);
    // A route whose endpoints do not match its commodity is dangling: it steers
    // chunks somewhere the commodity never asked for.
    let c = &mut table.commodities[0];
    let (src, dst) = (c.src, c.dst);
    let stray = Path::new(vec![dst, dst ^ 1]);
    assert_ne!(stray.source(), src);
    c.routes[0].path = stray;
    let issues = table.validate();
    assert!(
        issues.iter().any(|m| m.contains("endpoints mismatch")),
        "{issues:?}"
    );
}

#[test]
fn route_table_validate_flags_layer_overflow() {
    let topo = generators::hypercube(3);
    let mut table = route_table_on(&topo);
    table.commodities[0].routes[0].layer = table.num_layers + 5;
    let issues = table.validate();
    assert!(
        issues
            .iter()
            .any(|m| m.contains("layer") && m.contains("out of range")),
        "{issues:?}"
    );
}

#[test]
fn route_table_validate_accumulates_violations_across_commodities() {
    let topo = generators::hypercube(3);
    let mut table = route_table_on(&topo);
    table.commodities[0].routes[0].chunks += 1;
    table.commodities[1].routes[0].layer = table.num_layers;
    let issues = table.validate();
    assert!(issues.len() >= 2, "{issues:?}");
}

#[test]
fn route_table_validate_flags_cyclic_layers() {
    // All-pairs shortest routes on a bidirectional ring close a dependency
    // cycle in each direction; put them in one layer (of two) and it deadlocks.
    let topo = generators::bidirectional_ring(6);
    let commodities: Vec<CommodityRoutes> = (0..6)
        .flat_map(|s| (0..6).filter(move |&d| d != s).map(move |d| (s, d)))
        .map(|(src, dst)| CommodityRoutes {
            src,
            dst,
            routes: vec![Route {
                path: shortest_path(&topo, src, dst).unwrap(),
                weight: 1.0,
                chunks: 1,
                layer: 1,
            }],
        })
        .collect();
    let mut table = RouteTable {
        commodities,
        chunks_per_shard: 1,
        num_layers: 2,
    };
    let issues = table.validate();
    assert_eq!(issues.len(), 1, "{issues:?}");
    assert!(
        issues[0].contains("layer 1") && issues[0].contains("cycle"),
        "{issues:?}"
    );
    // LASH's own layers for the same routes pass.
    let refs: Vec<&Path> = table
        .commodities
        .iter()
        .map(|c| &c.routes[0].path)
        .collect();
    let vc = assign_virtual_channels(&topo, &refs, LashVariant::Sequential);
    for (c, &layer) in table.commodities.iter_mut().zip(vc.layers()) {
        c.routes[0].layer = layer;
    }
    table.num_layers = vc.num_layers();
    assert!(table.validate().is_empty(), "{:?}", table.validate());
}
