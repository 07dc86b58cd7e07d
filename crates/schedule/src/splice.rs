//! Splicing a repaired suffix onto the executed prefix of an interrupted run.
//!
//! When the event simulator interrupts a schedule mid-run, the chunks are
//! scattered: the executed prefix (including the truncated step in flight at
//! the failure) left every chunk either delivered or buffered at some rank.
//! The re-planning loop solves a residual instance
//! ([`a2a_mcf::residual`]) for the undelivered chunks on the punctured fabric
//! and this module turns that plan back into executable schedule steps:
//!
//! * [`lower_residual_suffix`] quantizes the residual flows into whole-chunk
//!   transfers, starting from the holding nodes instead of the origins — the
//!   quantizer [`ChunkedSchedule::from_tsmcf_exact`] runs, fed the holdings;
//! * [`greedy_reroute_suffix`] is the graceful-degradation fallback when the
//!   residual LP is unavailable (infeasible puncture pre-check, solve-time
//!   budget exceeded): the same quantizer over an empty plan, whose flush
//!   walks every demand along a shortest path, one hop per step — correct and
//!   failure-free whenever the destinations are reachable at all, just not
//!   bandwidth-optimal;
//! * [`splice_schedule`] concatenates prefix and suffix into one
//!   [`SplicedSchedule`], re-validates the whole thing against the original
//!   topology (the prefix legally used links that have since died; the suffix
//!   must not — pass them as `forbidden`), and so certifies that every
//!   commodity still delivers exactly one shard end-to-end across the
//!   prefix/suffix boundary;
//! * [`realized_route_table`] replays a chunked schedule into the per-chunk
//!   route table it actually realizes (the one buffer replay of
//!   [`crate::exec`], each run of chunks labelled with its trajectory), so
//!   spliced schedules can be checked with [`RouteTable::validate`] like any
//!   source-routed artifact.
//!
//! The buffers a suffix starts from are [`crate::exec::holdings_after`] the
//! executed prefix — the same replay, so the holdings a failure snapshot
//! reports and the ones [`splice_schedule`] re-validates cannot disagree.

use a2a_mcf::residual::{ResidualSolution, TsDemand};
use a2a_topology::{NodeId, Path, Topology};

use crate::deadlock::{assign_virtual_channels, LashVariant};
use crate::exec::{replay, Labelled};
use crate::ir::{quantize_flows, ChunkTransfer, ChunkedSchedule, ScheduleStep};
use crate::routes::{CommodityRoutes, Route, RouteTable};

/// A schedule stitched from the executed prefix of an interrupted run and a
/// re-planned suffix, validated end-to-end.
#[derive(Debug, Clone)]
pub struct SplicedSchedule {
    /// The full schedule: prefix steps followed by suffix steps. Passes
    /// [`ChunkedSchedule::validate`] against the original topology.
    pub schedule: ChunkedSchedule,
    /// Number of leading steps that replay the executed prefix (the last of
    /// them may be the truncated in-flight step of the failure instant).
    pub prefix_steps: usize,
    /// Number of trailing steps contributed by the re-planned suffix.
    pub suffix_steps: usize,
}

/// Quantizes a residual plan into executable schedule steps on the punctured
/// topology: the holdings of the interrupted run through the one quantizer
/// (`quantize_flows` in [`crate::ir`]), so the flush can never route through a
/// dead link. Fails with a description when a flush target is unreachable,
/// rounding cannot settle or the plan does not fit `punctured` — never panics.
pub fn lower_residual_suffix(
    punctured: &Topology,
    residual: &ResidualSolution,
    chunks_per_shard: usize,
) -> Result<Vec<ScheduleStep>, String> {
    quantize_flows(
        punctured,
        &residual.demands,
        residual.steps,
        &residual.flows,
        chunks_per_shard,
    )
}

/// Graceful-degradation fallback: route every demand along a shortest path of
/// the punctured topology, one hop per step, all demands concurrently.
///
/// This is the quantizer over an empty plan (0 steps, no flows): every holding
/// is stranded, so its flush moves each demand's whole holding one hop per
/// step along [`paths::shortest_path`](a2a_topology::paths::shortest_path), in
/// demand order. It ignores bandwidth entirely — links shared by many demands
/// serialize inside a step and the simulated makespan shows it — but it always
/// terminates (each demand strictly approaches its destination) and fails
/// *typed*, not by panicking, when a destination is unreachable.
pub fn greedy_reroute_suffix(
    punctured: &Topology,
    demands: &[TsDemand],
    chunks_per_shard: usize,
) -> Result<Vec<ScheduleStep>, String> {
    let no_flows = vec![Vec::new(); demands.len()];
    quantize_flows(punctured, demands, 0, &no_flows, chunks_per_shard)
}

/// Concatenates the executed prefix and a re-planned suffix into one schedule
/// and re-validates it end-to-end.
///
/// `reference` supplies the rank count, commodity set and chunk granularity of
/// the interrupted schedule. `topo` must be the *original* (pre-failure)
/// topology: the prefix legally used links that died later. `forbidden` lists
/// the dead links as `(src, dst)` pairs; any suffix transfer over one of them
/// is rejected — the re-planned tail must survive on the punctured fabric.
///
/// On success every commodity provably delivers exactly one shard across the
/// prefix/suffix boundary: that is what [`ChunkedSchedule::validate`] checks
/// from the nominal initial buffers.
pub fn splice_schedule(
    topo: &Topology,
    reference: &ChunkedSchedule,
    executed_prefix: &[ScheduleStep],
    suffix: &[ScheduleStep],
    forbidden: &[(NodeId, NodeId)],
) -> Result<SplicedSchedule, String> {
    for (t, step) in suffix.iter().enumerate() {
        for tr in &step.transfers {
            if forbidden.contains(&(tr.from, tr.to)) {
                return Err(format!(
                    "suffix step {t}: transfer {}->{} uses a failed link",
                    tr.from, tr.to
                ));
            }
        }
    }
    let schedule = ChunkedSchedule {
        num_ranks: reference.num_ranks,
        commodities: reference.commodities.clone(),
        chunks_per_shard: reference.chunks_per_shard,
        steps: executed_prefix
            .iter()
            .chain(suffix.iter())
            .cloned()
            .collect(),
    };
    let issues = schedule.validate(topo);
    if !issues.is_empty() {
        return Err(format!(
            "spliced schedule is invalid: {}",
            issues.join("; ")
        ));
    }
    Ok(SplicedSchedule {
        schedule,
        prefix_steps: executed_prefix.len(),
        suffix_steps: suffix.len(),
    })
}

/// Replays a chunked schedule into the per-chunk route table it realizes.
///
/// Chunk identity follows the FIFO buffering discipline of the replay in
/// [`crate::exec`]: a transfer forwards the oldest buffered chunks of its
/// commodity at the sender, so every chunk's node trajectory is deterministic
/// (the replay labels each run of chunks with its trajectory). Identical
/// trajectories aggregate into one [`Route`] whose chunk count and weight
/// reflect how many chunks actually travelled it. The routes get
/// LASH-sequential layers over the links the schedule uses, so the table is
/// deadlock-free like any other. Fails with the first replay violation (zero
/// granularity, a rank outside the schedule, an unknown commodity, a send of
/// chunks the sender does not hold), or when some commodity does not deliver
/// exactly its chunks — for a validated [`SplicedSchedule`] none can happen.
pub fn realized_route_table(schedule: &ChunkedSchedule) -> Result<RouteTable, String> {
    let cps = schedule.chunks_per_shard;
    let mut trajectories = Labelled::new(
        schedule,
        |s| vec![s],
        |tr: &ChunkTransfer, runs: &mut [(Vec<NodeId>, usize)]| {
            for (trajectory, _) in runs {
                trajectory.push(tr.to);
            }
        },
    );
    let held = replay(schedule, &schedule.steps, &mut trajectories, Err)?;
    let mut table = Vec::with_capacity(schedule.commodities.len());
    for (idx, s, d) in schedule.commodities.iter() {
        let delivered = idx * schedule.num_ranks + d;
        if held[delivered] != cps {
            return Err(format!(
                "commodity {s}->{d}: {} of {cps} chunks delivered",
                held[delivered]
            ));
        }
        // Aggregate identical trajectories into weighted routes.
        let mut routes: Vec<(&[NodeId], usize)> = Vec::new();
        for (trajectory, chunks) in trajectories.runs(delivered) {
            match routes.iter_mut().find(|(nodes, _)| nodes == trajectory) {
                Some((_, count)) => *count += chunks,
                None => routes.push((trajectory, chunks)),
            }
        }
        table.push(CommodityRoutes {
            src: s,
            dst: d,
            routes: routes
                .into_iter()
                .map(|(nodes, count)| Route {
                    path: Path::new(nodes.to_vec()),
                    weight: count as f64 / cps as f64,
                    chunks: count,
                    layer: 0,
                })
                .collect(),
        });
    }
    Ok(with_lash_layers(schedule, table))
}

/// The route table of `commodities` with LASH-sequential layers over the links
/// `schedule` uses — layers whose channel dependencies are acyclic, as
/// [`RouteTable::validate`] requires.
fn with_lash_layers(
    schedule: &ChunkedSchedule,
    mut commodities: Vec<CommodityRoutes>,
) -> RouteTable {
    let mut fabric = Topology::new(schedule.num_ranks, "realized");
    for tr in schedule.steps.iter().flat_map(|step| &step.transfers) {
        if !fabric.has_edge(tr.from, tr.to) {
            fabric.add_edge(tr.from, tr.to, 1.0);
        }
    }
    let routes: Vec<&Path> = commodities
        .iter()
        .flat_map(|c| c.routes.iter().map(|r| &r.path))
        .collect();
    let vc = assign_virtual_channels(&fabric, &routes, LashVariant::Sequential);
    for (route, &layer) in commodities
        .iter_mut()
        .flat_map(|c| &mut c.routes)
        .zip(vc.layers())
    {
        route.layer = layer;
    }
    RouteTable {
        commodities,
        chunks_per_shard: schedule.chunks_per_shard,
        num_layers: vc.num_layers(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::holdings_after;
    use crate::ir::demand_chunks;
    use a2a_mcf::residual::{residual_minimum_steps, solve_residual_colgen};
    use a2a_mcf::{solve_tsmcf_colgen_auto, ColGenOptions, CommoditySet};
    use a2a_topology::generators;
    use a2a_topology::paths;
    use std::collections::VecDeque;

    fn demands_from_holdings(schedule: &ChunkedSchedule, buffered: &[Vec<usize>]) -> Vec<TsDemand> {
        let cps = schedule.chunks_per_shard as f64;
        let mut demands = Vec::new();
        for (idx, s, d) in schedule.commodities.iter() {
            for (rank, &chunks) in buffered[idx].iter().enumerate() {
                if chunks > 0 && rank != d {
                    demands.push(TsDemand {
                        origin: s,
                        dest: d,
                        at: rank,
                        amount: chunks as f64 / cps,
                    });
                }
            }
        }
        demands
    }

    /// The full splice pipeline on a mid-schedule cut: prefix replayed, the
    /// residual solved on the punctured torus, suffix lowered and spliced —
    /// and the result passes both schedule validation and the realized route
    /// table validation.
    #[test]
    fn residual_suffix_splices_onto_an_executed_prefix() {
        let topo = generators::torus(&[3, 3]);
        let cg = solve_tsmcf_colgen_auto(&topo).unwrap();
        let nominal = ChunkedSchedule::from_tsmcf_exact(&topo, &cg.solution, 8).unwrap();
        assert!(nominal.num_steps() >= 2);

        // Cut after the first step; kill a link the rest of the plan uses.
        let prefix = &nominal.steps[..1];
        let buffered = holdings_after(&nominal, prefix).unwrap();
        let dead = (0usize, 1usize);
        let punctured = topo.without_edges(&[topo.find_edge(dead.0, dead.1).unwrap()]);
        let demands = demands_from_holdings(&nominal, &buffered);
        assert!(!demands.is_empty());

        let steps = residual_minimum_steps(&punctured, &demands).unwrap();
        let res =
            solve_residual_colgen(&punctured, &demands, steps, &ColGenOptions::default(), &[])
                .unwrap();
        assert!(res.stats.proved_optimal);
        let suffix =
            lower_residual_suffix(&punctured, &res.solution, nominal.chunks_per_shard).unwrap();
        let spliced = splice_schedule(&topo, &nominal, prefix, &suffix, &[dead]).unwrap();
        assert_eq!(spliced.prefix_steps, 1);
        assert_eq!(spliced.suffix_steps, suffix.len());
        assert!(spliced.schedule.validate(&topo).is_empty());

        let table = realized_route_table(&spliced.schedule).unwrap();
        assert!(table.validate().is_empty());
        // No chunk of the suffix crossed the dead link after the cut: every
        // realized trajectory's post-prefix hops avoid it. (The prefix itself
        // ran before the failure, so hops there may legally use it.)
        for c in &table.commodities {
            let total: usize = c.routes.iter().map(|r| r.chunks).sum();
            assert_eq!(total, spliced.schedule.chunks_per_shard);
        }
    }

    /// The greedy fallback survives punctures the LP never sees and the splice
    /// still validates end-to-end.
    #[test]
    fn greedy_fallback_splices_and_validates() {
        let topo = generators::torus(&[3, 3]);
        let cg = solve_tsmcf_colgen_auto(&topo).unwrap();
        let nominal = ChunkedSchedule::from_tsmcf_exact(&topo, &cg.solution, 8).unwrap();
        let prefix = &nominal.steps[..1];
        let buffered = holdings_after(&nominal, prefix).unwrap();
        let dead = (3usize, 4usize);
        let punctured = topo.without_edges(&[topo.find_edge(dead.0, dead.1).unwrap()]);
        let demands = demands_from_holdings(&nominal, &buffered);
        let suffix = greedy_reroute_suffix(&punctured, &demands, nominal.chunks_per_shard).unwrap();
        let spliced = splice_schedule(&topo, &nominal, prefix, &suffix, &[dead]).unwrap();
        assert!(spliced.schedule.validate(&topo).is_empty());
        assert!(realized_route_table(&spliced.schedule)
            .unwrap()
            .validate()
            .is_empty());
    }

    /// A suffix that touches a forbidden (dead) link is rejected before any
    /// validation replay.
    #[test]
    fn suffix_over_a_dead_link_is_rejected() {
        let topo = generators::torus(&[3, 3]);
        let cg = solve_tsmcf_colgen_auto(&topo).unwrap();
        let nominal = ChunkedSchedule::from_tsmcf_exact(&topo, &cg.solution, 8).unwrap();
        let mut bad = ScheduleStep::default();
        bad.transfers.push(ChunkTransfer {
            from: 0,
            to: 1,
            origin: 0,
            final_dest: 1,
            chunks: 1,
        });
        let err = splice_schedule(&topo, &nominal, &nominal.steps, &[bad], &[(0, 1)]).unwrap_err();
        assert!(err.contains("failed link"), "{err}");
    }

    /// Unreachable destinations surface as typed errors from the fallback.
    #[test]
    fn greedy_fallback_reports_unreachable_destinations() {
        let ring = generators::ring(3);
        let broken = ring.without_edges(&[ring.find_edge(1, 2).unwrap()]);
        let demands = vec![TsDemand {
            origin: 0,
            dest: 2,
            at: 1,
            amount: 1.0,
        }];
        let err = greedy_reroute_suffix(&broken, &demands, 4).unwrap_err();
        assert!(err.contains("unreachable"), "{err}");
    }

    /// The greedy fallback as a walk of its own — every demand one hop per
    /// step along a shortest path of the punctured fabric, in demand order,
    /// moving its whole holding — the implementation the quantizer's flush
    /// replaced, kept as its reference.
    fn greedy_walk_reference(
        punctured: &Topology,
        demands: &[TsDemand],
        chunks_per_shard: usize,
    ) -> Result<Vec<ScheduleStep>, String> {
        let mut position: Vec<NodeId> = demands.iter().map(|d| d.at).collect();
        let chunks: Vec<usize> = demands
            .iter()
            .map(|d| demand_chunks(d, chunks_per_shard))
            .collect();
        let mut steps = Vec::new();
        loop {
            let mut step = ScheduleStep::default();
            for (k, dem) in demands.iter().enumerate() {
                if position[k] == dem.dest || chunks[k] == 0 {
                    continue;
                }
                let path = paths::shortest_path(punctured, position[k], dem.dest)
                    .ok_or_else(|| format!("demand {k}: destination {} unreachable", dem.dest))?;
                let next = path.nodes()[1];
                step.transfers.push(ChunkTransfer {
                    from: position[k],
                    to: next,
                    origin: dem.origin,
                    final_dest: dem.dest,
                    chunks: chunks[k],
                });
                position[k] = next;
            }
            if step.transfers.is_empty() {
                return Ok(steps);
            }
            steps.push(step);
            assert!(steps.len() <= punctured.num_nodes(), "shortest paths cycle");
        }
    }

    /// Seeded demands — partial and merged amounts, several per commodity,
    /// some already at their destination — on punctured fabrics: the greedy
    /// fallback emits the reference walk's steps exactly, and both fail
    /// together when a destination is cut off.
    #[test]
    fn greedy_fallback_matches_the_reference_walk() {
        use rand::{Rng, SeedableRng};
        use rand_chacha::ChaCha8Rng;
        let mut compared = 0;
        for topo in [
            generators::torus(&[3, 3]),
            generators::hypercube(3),
            generators::generalized_kautz(8, 2),
        ] {
            let n = topo.num_nodes();
            for seed in 0..20u64 {
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                let cut = rng.random_range(0..topo.num_edges());
                let punctured = topo.without_edges(&[cut]);
                for chunks_per_shard in [1, 8] {
                    let demands: Vec<TsDemand> = (0..rng.random_range(1..13))
                        .map(|_| {
                            let origin = rng.random_range(0..n);
                            let dest = (origin + rng.random_range(1..n)) % n;
                            let chunks = rng.random_range(1..2 * chunks_per_shard + 1);
                            TsDemand {
                                origin,
                                dest,
                                at: rng.random_range(0..n),
                                amount: chunks as f64 / chunks_per_shard as f64,
                            }
                        })
                        .collect();
                    let tag = format!("{} seed {seed} @ {chunks_per_shard}", topo.name());
                    let got = greedy_reroute_suffix(&punctured, &demands, chunks_per_shard);
                    match greedy_walk_reference(&punctured, &demands, chunks_per_shard) {
                        Ok(want) => {
                            let transfers = |steps: &[ScheduleStep]| -> Vec<Vec<ChunkTransfer>> {
                                steps.iter().map(|s| s.transfers.clone()).collect()
                            };
                            let got = got.unwrap_or_else(|e| panic!("{tag}: {e}"));
                            assert_eq!(transfers(&got), transfers(&want), "{tag}");
                            compared += 1;
                        }
                        Err(_) => {
                            assert!(got.is_err(), "{tag}: reference failed, fallback did not")
                        }
                    }
                }
            }
        }
        assert!(compared >= 100, "only {compared} instances were reachable");
    }

    /// Realized-route replay with one trajectory `Vec` per *chunk* — the
    /// implementation the run-length replay replaced, kept as its reference
    /// (it shares only the LASH layering).
    fn per_chunk_route_table(schedule: &ChunkedSchedule) -> RouteTable {
        let commodities = &schedule.commodities;
        let mut buffers: Vec<Vec<VecDeque<Vec<NodeId>>>> =
            vec![vec![VecDeque::new(); schedule.num_ranks]; commodities.len()];
        for (idx, s, _) in commodities.iter() {
            buffers[idx][s].extend(std::iter::repeat_n(vec![s], schedule.chunks_per_shard));
        }
        for step in &schedule.steps {
            let mut arrivals = Vec::new();
            for tr in &step.transfers {
                let idx = commodities.index_of(tr.origin, tr.final_dest).unwrap();
                let mut moved: Vec<Vec<NodeId>> =
                    buffers[idx][tr.from].drain(..tr.chunks).collect();
                for trajectory in &mut moved {
                    trajectory.push(tr.to);
                }
                arrivals.push((idx, tr.to, moved));
            }
            for (idx, node, moved) in arrivals {
                buffers[idx][node].extend(moved);
            }
        }
        let mut table = Vec::new();
        for (idx, s, d) in commodities.iter() {
            let mut routes: Vec<(Vec<NodeId>, usize)> = Vec::new();
            for trajectory in &buffers[idx][d] {
                match routes.iter_mut().find(|(nodes, _)| nodes == trajectory) {
                    Some((_, count)) => *count += 1,
                    None => routes.push((trajectory.clone(), 1)),
                }
            }
            table.push(CommodityRoutes {
                src: s,
                dst: d,
                routes: routes
                    .into_iter()
                    .map(|(nodes, count)| Route {
                        path: Path::new(nodes),
                        weight: count as f64 / schedule.chunks_per_shard as f64,
                        chunks: count,
                        layer: 0,
                    })
                    .collect(),
            });
        }
        with_lash_layers(schedule, table)
    }

    fn assert_same_table(got: &RouteTable, want: &RouteTable, tag: &str) {
        assert_eq!(got.num_layers, want.num_layers, "{tag}: layers");
        assert_eq!(got.chunks_per_shard, want.chunks_per_shard, "{tag}");
        assert_eq!(got.commodities.len(), want.commodities.len(), "{tag}");
        for (g, w) in got.commodities.iter().zip(&want.commodities) {
            assert_eq!((g.src, g.dst), (w.src, w.dst), "{tag}");
            let routes = |c: &CommodityRoutes| -> Vec<(Vec<NodeId>, usize, u64, usize)> {
                c.routes
                    .iter()
                    .map(|r| {
                        (
                            r.path.nodes().to_vec(),
                            r.chunks,
                            r.weight.to_bits(),
                            r.layer,
                        )
                    })
                    .collect()
            };
            assert_eq!(routes(g), routes(w), "{tag}: {}->{}", g.src, g.dst);
        }
    }

    #[test]
    fn run_length_trajectories_reproduce_the_per_chunk_routes() {
        for topo in [
            generators::torus(&[3, 3]),
            generators::hypercube(3),
            generators::generalized_kautz(8, 2),
        ] {
            let cg = solve_tsmcf_colgen_auto(&topo).unwrap();
            for chunks in [1, 8, 128] {
                let sched = ChunkedSchedule::from_tsmcf_exact(&topo, &cg.solution, chunks).unwrap();
                let tag = format!("{} @ {chunks}", topo.name());
                let table = realized_route_table(&sched).unwrap();
                assert_same_table(&table, &per_chunk_route_table(&sched), &tag);
            }
        }
        // Commodity 0->3 reaches rank 2 over two trajectories, and later
        // transfers forward part of one run, then the rest of it together with
        // part of the next.
        let hop = |from, to, origin, final_dest, chunks| ChunkTransfer {
            from,
            to,
            origin,
            final_dest,
            chunks,
        };
        let sched = ChunkedSchedule {
            num_ranks: 4,
            commodities: CommoditySet::among(vec![0, 3]),
            chunks_per_shard: 4,
            steps: [
                vec![hop(0, 1, 0, 3, 2), hop(0, 2, 0, 3, 2), hop(3, 0, 3, 0, 4)],
                vec![hop(1, 2, 0, 3, 2), hop(2, 3, 0, 3, 1)],
                vec![hop(2, 3, 0, 3, 2)],
                vec![hop(2, 3, 0, 3, 1)],
            ]
            .map(|transfers| ScheduleStep { transfers })
            .to_vec(),
        };
        let table = realized_route_table(&sched).unwrap();
        assert_same_table(&table, &per_chunk_route_table(&sched), "split runs");
        let routes: Vec<(&[NodeId], usize)> = table.commodities[0]
            .routes
            .iter()
            .map(|r| (r.path.nodes(), r.chunks))
            .collect();
        assert_eq!(routes, [(&[0, 2, 3][..], 2), (&[0, 1, 2, 3][..], 2)]);
    }

    /// The realized route table of a nominal (unspliced) schedule: one shard
    /// per commodity, trajectories from origin to destination.
    #[test]
    fn realized_routes_cover_every_shard() {
        let topo = generators::hypercube(3);
        let cg = solve_tsmcf_colgen_auto(&topo).unwrap();
        let sched = ChunkedSchedule::from_tsmcf_exact(&topo, &cg.solution, 8).unwrap();
        let table = realized_route_table(&sched).unwrap();
        assert!(table.validate().is_empty());
        assert_eq!(table.commodities.len(), sched.commodities.len());
        for c in &table.commodities {
            for r in &c.routes {
                assert_eq!(r.path.source(), c.src);
                assert_eq!(r.path.dest(), c.dst);
                assert!(r.path.is_valid_in(&topo));
            }
        }
    }
}
