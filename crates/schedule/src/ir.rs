//! Chunked, time-stepped schedule IR.
//!
//! The tsMCF solution gives *fractional* per-step rates. Real runtimes move discrete
//! chunks, so the lowering (§4) picks a chunk granularity fine enough to represent the
//! smallest rate in the solution, rounds every transfer to whole chunks, and emits a
//! per-step list of `(source rank, destination rank, commodity, #chunks)` transfers.
//!
//! There is one quantizer, `quantize_flows`, over the `(demands, steps, flows)`
//! shape every time-stepped plan has. [`ChunkedSchedule::from_tsmcf_exact`] feeds it
//! the nominal all-to-all (every shard at its source),
//! [`crate::splice::lower_residual_suffix`] the holdings of an interrupted run,
//! and [`crate::splice::greedy_reroute_suffix`] those holdings with an empty
//! plan, which its stranded-chunk flush walks to their destinations.
//! [`ChunkedSchedule::validate`] checks any schedule by the one buffer replay of
//! [`crate::exec`], plus its own link and delivery checks.

use std::convert::Infallible;

use a2a_mcf::tscolgen::TsDemand;
use a2a_mcf::tsmcf::{at_source_demands, check_flow_shape, TsMcfSolution};
use a2a_mcf::CommoditySet;
use a2a_topology::{paths, EdgeId, NodeId, Topology};

use crate::exec::replay;

/// One chunked transfer: `chunks` chunks of commodity `(origin, final_dest)` move from
/// `from` to `to` during the enclosing step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkTransfer {
    /// Sending rank.
    pub from: NodeId,
    /// Receiving rank.
    pub to: NodeId,
    /// Rank that originally held the shard.
    pub origin: NodeId,
    /// Rank the shard is ultimately destined for.
    pub final_dest: NodeId,
    /// Number of chunks moved.
    pub chunks: usize,
}

/// All transfers of one communication step.
#[derive(Debug, Clone, Default)]
pub struct ScheduleStep {
    /// Transfers performed concurrently in this step.
    pub transfers: Vec<ChunkTransfer>,
}

/// Converts a demand's shard amount to its whole-chunk count. A nominal demand
/// is one shard, and the re-planning snapshot counts whole chunks and builds
/// amounts as `chunks / cps`, so the round-trip is exact.
pub(crate) fn demand_chunks(demand: &TsDemand, chunks_per_shard: usize) -> usize {
    (demand.amount * chunks_per_shard as f64).round() as usize
}

/// Quantizes fractional per-step flows into whole-chunk transfers at a fixed
/// granularity.
///
/// Each demand's chunks ([`demand_chunks`]) start buffered at its holding
/// node (demands of one commodity held at different nodes stay separate; the
/// emitted transfers carry only the commodity labels). Every `(edge, amount)`
/// is rounded to the nearest chunk count — at least one for a positive amount
/// — and capped by what the sender still holds; arrivals land after the whole
/// step. Chunks stranded by rounding (rare: rounding down starved a later hop)
/// are flushed one hop per extra step along shortest paths of `topo`. Fails
/// with a description — never panics — on a zero granularity, a plan that does
/// not fit `topo` ([`check_flow_shape`]), an unreachable flush target, or
/// rounding that cannot settle.
pub(crate) fn quantize_flows(
    topo: &Topology,
    demands: &[TsDemand],
    steps: usize,
    flows: &[Vec<Vec<(EdgeId, f64)>>],
    chunks_per_shard: usize,
) -> Result<Vec<ScheduleStep>, String> {
    if chunks_per_shard == 0 {
        return Err("granularity must be positive".into());
    }
    check_flow_shape(topo, demands, steps, flows)?;
    let num_ranks = topo.num_nodes();
    let cps = chunks_per_shard as f64;
    // Remaining chunks of each demand buffered at each rank, at
    // `demand * num_ranks + rank`.
    let mut buffered = vec![0; demands.len() * num_ranks];
    for (k, dem) in demands.iter().enumerate() {
        buffered[k * num_ranks + dem.at] = demand_chunks(dem, chunks_per_shard);
    }
    let mut out = Vec::with_capacity(steps);
    for t in 0..steps {
        let sends = flows.iter().enumerate().flat_map(|(k, per_step)| {
            per_step[t].iter().map(move |&(e, amount)| {
                let edge = topo.edge(e);
                let want = (amount * cps).round() as usize;
                (k, edge.src, edge.dst, want.max(usize::from(amount > 1e-9)))
            })
        });
        out.push(send_step(demands, num_ranks, &mut buffered, sends));
    }
    for _ in 0..=num_ranks {
        let mut stranded = Vec::new();
        for (k, dem) in demands.iter().enumerate() {
            for rank in 0..num_ranks {
                let held = buffered[k * num_ranks + rank];
                if rank == dem.dest || held == 0 {
                    continue;
                }
                let path = paths::shortest_path(topo, rank, dem.dest).ok_or_else(|| {
                    format!(
                        "demand {k}: destination {} unreachable from {rank} while flushing",
                        dem.dest
                    )
                })?;
                stranded.push((k, rank, path.nodes()[1], held));
            }
        }
        if stranded.is_empty() {
            return Ok(out);
        }
        out.push(send_step(
            demands,
            num_ranks,
            &mut buffered,
            stranded.into_iter(),
        ));
    }
    Err("rounding residue failed to settle within the flush budget".into())
}

/// One step of [`quantize_flows`]: performs each `(demand, from, to, wanted
/// chunks)` send in order, capped by what `from` still holds. Arrivals land only
/// after the whole step, so a chunk moves at most one hop per step.
fn send_step(
    demands: &[TsDemand],
    num_ranks: usize,
    buffered: &mut [usize],
    sends: impl Iterator<Item = (usize, NodeId, NodeId, usize)>,
) -> ScheduleStep {
    let mut step = ScheduleStep::default();
    let mut arrivals: Vec<(usize, usize)> = Vec::new();
    for (k, from, to, want) in sends {
        let chunks = want.min(buffered[k * num_ranks + from]);
        if chunks == 0 {
            continue;
        }
        buffered[k * num_ranks + from] -= chunks;
        arrivals.push((k * num_ranks + to, chunks));
        step.transfers.push(ChunkTransfer {
            from,
            to,
            origin: demands[k].origin,
            final_dest: demands[k].dest,
            chunks,
        });
    }
    for (buffer, chunks) in arrivals {
        buffered[buffer] += chunks;
    }
    step
}

/// A chunked, executable link-based all-to-all schedule.
#[derive(Debug, Clone)]
pub struct ChunkedSchedule {
    /// Number of ranks participating in the collective.
    pub num_ranks: usize,
    /// Commodities covered (endpoint ranks).
    pub commodities: CommoditySet,
    /// Number of chunks each shard is divided into.
    pub chunks_per_shard: usize,
    /// The communication steps in order.
    pub steps: Vec<ScheduleStep>,
}

impl ChunkedSchedule {
    /// Builds a chunked schedule from a tsMCF solution.
    ///
    /// `max_chunks_per_shard` caps the granularity: the lowering uses the smallest
    /// power-of-two chunk count (up to the cap) for which rounding the fractional
    /// transfers to whole chunks still delivers every shard completely.
    ///
    /// The solution is pruned first ([`TsMcfSolution::pruned`]): *dense* tsMCF
    /// vertices may carry flow that never reaches its destination, and lowering
    /// those dead branches both wastes bandwidth and starves the real ones at
    /// the sender. Solutions from the column-generation backend
    /// (`a2a_mcf::tscolgen`) are delivery-exact, so the prune is a cheap no-op
    /// on them — they lower identically through here or
    /// [`ChunkedSchedule::from_tsmcf_exact`].
    pub fn from_tsmcf(
        topo: &Topology,
        solution: &TsMcfSolution,
        max_chunks_per_shard: usize,
    ) -> Result<Self, String> {
        let solution = solution.pruned(topo);
        let mut granularity = 1usize;
        loop {
            if let Ok(candidate) = Self::from_tsmcf_exact(topo, &solution, granularity) {
                return Ok(candidate);
            }
            if granularity >= max_chunks_per_shard {
                return Err(format!(
                    "could not chunk the schedule within {max_chunks_per_shard} chunks per shard"
                ));
            }
            granularity *= 2;
        }
    }

    /// Builds a chunked schedule at *exactly* the given granularity, quantizing the
    /// solution **as given** (no internal pruning).
    ///
    /// [`ChunkedSchedule::from_tsmcf`] returns the coarsest valid granularity, which
    /// executes correctly but can inflate per-link loads by up to a whole chunk per
    /// transfer (a 0.5-shard transfer becomes a full shard at granularity 1). When
    /// fidelity to the fractional solution matters — e.g. comparing simulated
    /// completion against the LP-predicted bound — quantize finer: the rounding error
    /// scales as `1 / chunks_per_shard`. Fails if rounding at this granularity leaves
    /// the schedule inexecutable.
    ///
    /// Callers on this fidelity-sensitive path should pass
    /// [`TsMcfSolution::pruned`] and derive any completion prediction from that same
    /// pruned solution — a raw *dense* simplex vertex may carry undelivered junk
    /// flow, and quantizing it both wastes bandwidth and makes the LP bound
    /// describe a different schedule than the lowered one. Column-generation
    /// solutions (`a2a_mcf::tscolgen`) are delivery-exact and need no pruning
    /// before this call.
    pub fn from_tsmcf_exact(
        topo: &Topology,
        solution: &TsMcfSolution,
        chunks_per_shard: usize,
    ) -> Result<Self, String> {
        let steps = quantize_flows(
            topo,
            &at_source_demands(&solution.commodities),
            solution.steps,
            &solution.flows,
            chunks_per_shard,
        )?;
        let candidate = Self {
            num_ranks: topo.num_nodes(),
            commodities: solution.commodities.clone(),
            chunks_per_shard,
            steps,
        };
        let issues = candidate.validate(topo);
        if issues.is_empty() {
            Ok(candidate)
        } else {
            Err(format!(
                "granularity {chunks_per_shard} is not executable: {}",
                issues.join("; ")
            ))
        }
    }

    /// Number of communication steps.
    pub fn num_steps(&self) -> usize {
        self.steps.len()
    }

    /// Total number of chunk transfers across all steps.
    pub fn total_transfers(&self) -> usize {
        self.steps.iter().map(|s| s.transfers.len()).sum()
    }

    /// Validates executability: the buffer replay of [`crate::exec`] finds no
    /// violation (positive granularity, ranks in `0..num_ranks`, known
    /// commodities, senders that hold what they send), transfers only use
    /// fabric links, and every destination ends up with every shard in full.
    /// Returns every violation, human-readable.
    pub fn validate(&self, topo: &Topology) -> Vec<String> {
        let mut issues = Vec::new();
        let Ok(held) = replay(self, &self.steps, &mut (), |issue| {
            issues.push(issue);
            Ok::<(), Infallible>(())
        });
        for (t, step) in self.steps.iter().enumerate() {
            for tr in &step.transfers {
                // A transfer end outside the ranks was reported by the replay.
                if tr.from.max(tr.to) < self.num_ranks && !topo.has_edge(tr.from, tr.to) {
                    issues.push(format!(
                        "step {t}: transfer {}->{} uses a missing link",
                        tr.from, tr.to
                    ));
                }
            }
        }
        for (idx, s, d) in self.commodities.iter() {
            // An endpoint outside the ranks was reported by the replay.
            match (d < self.num_ranks).then(|| held[idx * self.num_ranks + d]) {
                Some(held) if held != self.chunks_per_shard => issues.push(format!(
                    "commodity {s}->{d}: destination holds {held}/{} chunks at the end",
                    self.chunks_per_shard
                )),
                _ => {}
            }
        }
        issues
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use a2a_mcf::residual::ResidualSolution;
    use a2a_mcf::tscolgen::solve_tsmcf_colgen_auto;
    use a2a_topology::generators;

    #[test]
    fn complete_graph_chunks_to_single_step() {
        let topo = generators::complete(3);
        let sol = solve_tsmcf_colgen_auto(&topo).unwrap().solution;
        let sched = ChunkedSchedule::from_tsmcf(&topo, &sol, 64).unwrap();
        assert!(sched.validate(&topo).is_empty());
        assert_eq!(sched.num_steps(), 1);
        assert_eq!(sched.chunks_per_shard, 1);
        assert_eq!(sched.total_transfers(), 6);
    }

    #[test]
    fn ring_schedule_relays_chunks() {
        let topo = generators::ring(3);
        let sol = solve_tsmcf_colgen_auto(&topo).unwrap().solution;
        let sched = ChunkedSchedule::from_tsmcf(&topo, &sol, 64).unwrap();
        assert!(sched.validate(&topo).is_empty());
        assert!(sched.num_steps() >= 2);
        // Every rank both sends and receives something in the first step.
        let first = &sched.steps[0].transfers;
        for rank in 0..3 {
            assert!(first.iter().any(|t| t.from == rank && t.chunks > 0));
            assert!(first.iter().any(|t| t.to == rank && t.chunks > 0));
        }
    }

    #[test]
    fn hypercube_schedule_is_executable_and_balanced() {
        let topo = generators::hypercube(2);
        let sol = solve_tsmcf_colgen_auto(&topo).unwrap().solution;
        let sched = ChunkedSchedule::from_tsmcf(&topo, &sol, 128).unwrap();
        assert!(sched.validate(&topo).is_empty());
        // The simplex returns a vertex solution, so the chunking may or may not need to
        // split shards; either way the granularity is a power of two within the cap.
        assert!(sched.chunks_per_shard.is_power_of_two());
        assert!(sched.chunks_per_shard <= 128);
    }

    #[test]
    fn validation_catches_bad_transfers() {
        let topo = generators::complete(3);
        let sol = solve_tsmcf_colgen_auto(&topo).unwrap().solution;
        let mut sched = ChunkedSchedule::from_tsmcf(&topo, &sol, 8).unwrap();
        // Inject a transfer of a commodity the sender does not hold.
        sched.steps[0].transfers.push(ChunkTransfer {
            from: 1,
            to: 2,
            origin: 0,
            final_dest: 2,
            chunks: 5,
        });
        let issues = sched.validate(&topo);
        assert!(!issues.is_empty());

        // Malformed solutions — an edge id outside the topology, flows whose
        // outer/inner lengths disagree with the commodity count / step count —
        // are an `Err` from the lowering and an issue from the checker, not an
        // index panic.
        let mut bad_edge = sol.clone();
        bad_edge.flows[0][0].push((topo.num_edges(), 0.5));
        let mut short_steps = sol.clone();
        short_steps.flows[1].clear();
        let mut short_commodities = sol.clone();
        short_commodities.flows.pop();
        for bad in [bad_edge, short_steps, short_commodities] {
            assert!(ChunkedSchedule::from_tsmcf_exact(&topo, &bad, 8).is_err());
            assert!(ChunkedSchedule::from_tsmcf(&topo, &bad, 8).is_err());
            assert_eq!(bad.check_consistency(&topo, 1e-6).len(), 1);
            let residual = ResidualSolution {
                demands: at_source_demands(&bad.commodities),
                steps: bad.steps,
                step_utilization: bad.step_utilization.clone(),
                flows: bad.flows.clone(),
            };
            assert!(crate::splice::lower_residual_suffix(&topo, &residual, 8).is_err());
        }
        assert!(sol.transfers_at_step(sol.steps).is_empty());
    }

    #[test]
    fn granularity_cap_is_enforced() {
        // A solution whose fractions cannot be represented with a single chunk must
        // either refine or fail when the cap is 1.
        let topo = generators::hypercube(2);
        let sol = solve_tsmcf_colgen_auto(&topo).unwrap().solution;
        let result = ChunkedSchedule::from_tsmcf(&topo, &sol, 1);
        // Either it fails (cannot represent 0.5 with one chunk) or it succeeds with a
        // valid schedule; both are acceptable, but an invalid schedule is not.
        if let Ok(sched) = result {
            assert!(sched.validate(&topo).is_empty());
        }
    }
}
