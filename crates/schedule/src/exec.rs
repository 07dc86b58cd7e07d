//! Execution semantics of the chunked IR: the one buffer replay, and the transfer
//! dependency DAG built on it.
//!
//! A lowered program (MSCCL / oneCCL, §4) obeys three store-and-forward rules: every
//! shard starts as `chunks_per_shard` chunks at its origin; a rank forwards only
//! chunks of a commodity that it holds, oldest first; a step's arrivals land only
//! after the whole step. `replay` owns these rules and every check on them, over
//! one FIFO per `(commodity, rank)` buffer that stores runs of equally labelled
//! chunks (one entry per arrival, not per chunk). The label is the caller's: unit
//! labels for [`crate::ChunkedSchedule::validate`] (which collects every violation)
//! and [`holdings_after`], the delivering job for [`TransferDag::from_schedule`], the
//! trajectory for [`crate::splice::realized_route_table`].
//!
//! Real runtimes do not execute a global barrier between steps — a rank posts a
//! send as soon as the chunks it forwards have landed. The DAG is that *data*
//! dependency structure: each transfer becomes a [`TransferJob`] that depends on
//! exactly the earlier jobs that delivered the chunks it sends onward. Arrivals
//! land after the whole step, so every dependency points to a job of a *strictly
//! earlier* step: the DAG is acyclic with job ids already in topological order.

use a2a_topology::NodeId;

use crate::ir::{ChunkTransfer, ChunkedSchedule, ScheduleStep};

/// One executable transfer: a [`crate::ChunkTransfer`] plus its position in the
/// schedule and the jobs whose arrivals it consumes.
#[derive(Debug, Clone)]
pub struct TransferJob {
    /// Step of the enclosing [`crate::ScheduleStep`].
    pub step: usize,
    /// Index of the transfer within its step.
    pub index_in_step: usize,
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
    /// Ids of jobs (indices into [`TransferDag::jobs`]) that must complete before this
    /// transfer can depart, sorted ascending and deduplicated. Empty for transfers that
    /// only forward chunks resident at the commodity origin.
    pub deps: Vec<usize>,
}

/// The data-dependency DAG of a chunked schedule.
///
/// Job ids follow the schedule's step-major transfer order, and every dependency id is
/// strictly smaller than the dependent job's id (steps only consume chunks delivered by
/// earlier steps), so `0..jobs.len()` is a valid topological order.
#[derive(Debug, Clone)]
pub struct TransferDag {
    /// All transfers of the schedule in step-major order.
    pub jobs: Vec<TransferJob>,
    /// Number of ranks in the schedule.
    pub num_ranks: usize,
    /// Chunk granularity of the schedule.
    pub chunks_per_shard: usize,
    /// Number of steps in the source schedule.
    pub num_steps: usize,
}

/// The chunks one rank buffers of one commodity, oldest first, as runs of
/// `(label, chunk count)`. Every stored run is non-empty, and adjacent chunks
/// with equal labels share one. A buffer holds few runs, so the front is
/// removed by shifting.
#[derive(Debug, Clone, Default)]
pub(crate) struct RunFifo<L> {
    runs: Vec<(L, usize)>,
}

impl<L: Clone + PartialEq> RunFifo<L> {
    /// Total chunks held.
    pub(crate) fn chunks(&self) -> usize {
        self.runs.iter().map(|&(_, chunks)| chunks).sum()
    }

    /// The runs, oldest first.
    pub(crate) fn runs(&self) -> &[(L, usize)] {
        &self.runs
    }

    fn push(&mut self, label: L, chunks: usize) {
        if chunks == 0 {
            return;
        }
        match self.runs.last_mut() {
            Some((last, held)) if *last == label => *held += chunks,
            _ => self.runs.push((label, chunks)),
        }
    }

    /// Moves the oldest `chunks` chunks (the caller has checked that many are
    /// held) to the back of `out`, splitting the last run touched.
    fn drain_into(&mut self, chunks: usize, out: &mut Vec<(L, usize)>) {
        let mut wanted = chunks;
        let mut whole = 0;
        while wanted > 0 && self.runs[whole].1 <= wanted {
            wanted -= self.runs[whole].1;
            whole += 1;
        }
        out.extend(self.runs.drain(..whole));
        if wanted > 0 {
            let front = &mut self.runs[0];
            front.1 -= wanted;
            out.push((front.0.clone(), wanted));
        }
    }
}

/// One [`RunFifo`] per `(commodity, rank)` buffer, at `commodity * num_ranks + rank`.
pub(crate) type Buffers<L> = Vec<RunFifo<L>>;

/// Replays `steps` under the store-and-forward rules (module docs) from the
/// initial buffers of `schedule`: each commodity's `chunks_per_shard` chunks,
/// labelled `origin(s)`, at its origin `s`. Returns the buffers after the last
/// step.
///
/// A transfer drains the oldest chunks of its commodity at its sender;
/// `relabel` sees the drained runs, oldest first, and may rewrite their labels
/// before they land at the receiver after the whole step. Each violation — zero
/// granularity, a commodity endpoint or transfer end outside `0..num_ranks`, an
/// unknown commodity, a send of chunks the sender does not hold — goes to
/// `sink`, and the commodity or transfer at fault moves no chunks. An `Err`
/// from `sink` stops the replay and is returned, so passing `Err` as the sink
/// stops at the first violation.
pub(crate) fn replay<L: Clone + Default + PartialEq, E>(
    schedule: &ChunkedSchedule,
    steps: &[ScheduleStep],
    origin: impl Fn(NodeId) -> L,
    mut relabel: impl FnMut(&ChunkTransfer, &mut [(L, usize)]),
    mut sink: impl FnMut(String) -> Result<(), E>,
) -> Result<Buffers<L>, E> {
    let n = schedule.num_ranks;
    let cps = schedule.chunks_per_shard;
    if cps == 0 {
        sink("granularity must be positive".into())?;
    }
    let outside = |ranks: [NodeId; 2]| ranks.into_iter().find(|&r| r >= n);
    let mut buffers = Buffers::new();
    buffers.resize_with(schedule.commodities.len() * n, RunFifo::default);
    for (idx, s, d) in schedule.commodities.iter() {
        match outside([s, d]) {
            None => buffers[idx * n + s].push(origin(s), cps),
            Some(r) => sink(format!("commodity {s}->{d} names rank {r}, outside 0..{n}"))?,
        }
    }
    let mut moved = Vec::new();
    let mut arrivals: Vec<(usize, NodeId, L, usize)> = Vec::new();
    for (t, step) in steps.iter().enumerate() {
        for tr in &step.transfers {
            if let Some(r) = outside([tr.from, tr.to]) {
                sink(format!(
                    "step {t}: transfer {}->{} names rank {r}, outside 0..{n}",
                    tr.from, tr.to
                ))?;
                continue;
            }
            let Some(idx) = schedule.commodities.index_of(tr.origin, tr.final_dest) else {
                sink(format!(
                    "step {t}: unknown commodity {}->{}",
                    tr.origin, tr.final_dest
                ))?;
                continue;
            };
            let fifo = &mut buffers[idx * n + tr.from];
            let held = fifo.chunks();
            if held < tr.chunks {
                sink(format!(
                    "step {t}: rank {} sends {} chunks of {}->{} but holds {held}",
                    tr.from, tr.chunks, tr.origin, tr.final_dest
                ))?;
                continue;
            }
            fifo.drain_into(tr.chunks, &mut moved);
            relabel(tr, &mut moved);
            arrivals.extend(
                moved
                    .drain(..)
                    .map(|(label, chunks)| (idx, tr.to, label, chunks)),
            );
        }
        for (idx, rank, label, chunks) in arrivals.drain(..) {
            buffers[idx * n + rank].push(label, chunks);
        }
    }
    Ok(buffers)
}

/// The chunks each rank holds of each commodity, indexed `[commodity][rank]`,
/// after replaying `prefix` — the executed steps of an interrupted run, say —
/// from the initial buffers of `schedule`. A suffix spliced onto `prefix`
/// starts from exactly these buffers. Fails with the first violation of the
/// replay rules (module docs).
pub fn holdings_after(
    schedule: &ChunkedSchedule,
    prefix: &[ScheduleStep],
) -> Result<Vec<Vec<usize>>, String> {
    let buffers = replay(schedule, prefix, |_| (), |_, _| {}, Err)?;
    let n = schedule.num_ranks;
    Ok((0..schedule.commodities.len())
        .map(|idx| {
            buffers[idx * n..][..n]
                .iter()
                .map(RunFifo::chunks)
                .collect()
        })
        .collect())
}

impl TransferDag {
    /// Extracts the dependency DAG from a chunked schedule.
    ///
    /// Fails with a description of the first violation if the schedule is not
    /// executable (zero granularity, a commodity endpoint or transfer end that
    /// is not one of the schedule's ranks, an unknown commodity, or a rank
    /// sending chunks it does not hold) — the replay conditions
    /// [`ChunkedSchedule::validate`] also reports.
    pub fn from_schedule(schedule: &ChunkedSchedule) -> Result<Self, String> {
        // Chunks are labelled with the job that delivered them, `None` at the
        // origin; a job depends on the labels of the chunks it forwards.
        let mut deps: Vec<Vec<usize>> = Vec::new();
        let relabel = |_: &ChunkTransfer, runs: &mut [(Option<usize>, usize)]| {
            let job = deps.len();
            let mut from: Vec<usize> = runs.iter().filter_map(|&(label, _)| label).collect();
            from.sort_unstable();
            from.dedup();
            debug_assert!(from.iter().all(|&d| d < job));
            deps.push(from);
            for run in runs {
                run.0 = Some(job);
            }
        };
        replay(schedule, &schedule.steps, |_| None, relabel, Err)?;
        debug_assert_eq!(deps.len(), schedule.total_transfers());
        let jobs = schedule
            .steps
            .iter()
            .enumerate()
            .flat_map(|(t, step)| {
                step.transfers
                    .iter()
                    .enumerate()
                    .map(move |(i, tr)| (t, i, tr))
            })
            .zip(deps)
            .map(|((step, index_in_step, tr), deps)| TransferJob {
                step,
                index_in_step,
                from: tr.from,
                to: tr.to,
                origin: tr.origin,
                final_dest: tr.final_dest,
                chunks: tr.chunks,
                deps,
            })
            .collect();
        Ok(Self {
            jobs,
            num_ranks: schedule.num_ranks,
            chunks_per_shard: schedule.chunks_per_shard,
            num_steps: schedule.steps.len(),
        })
    }

    /// Reverse adjacency: for each job, the ids of jobs that depend on it.
    pub fn successors(&self) -> Vec<Vec<usize>> {
        let mut succ = vec![Vec::new(); self.jobs.len()];
        for (id, job) in self.jobs.iter().enumerate() {
            for &d in &job.deps {
                succ[d].push(id);
            }
        }
        succ
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use a2a_mcf::tscolgen::solve_tsmcf_colgen_auto;
    use a2a_topology::generators;
    use std::collections::VecDeque;

    #[test]
    fn complete_graph_jobs_are_independent() {
        let topo = generators::complete(3);
        let sol = solve_tsmcf_colgen_auto(&topo).unwrap().solution;
        let sched = ChunkedSchedule::from_tsmcf(&topo, &sol, 8).unwrap();
        let dag = TransferDag::from_schedule(&sched).unwrap();
        assert_eq!(dag.jobs.len(), sched.total_transfers());
        assert!(dag.jobs.iter().all(|j| j.deps.is_empty()));
    }

    #[test]
    fn relayed_chunks_depend_on_their_inbound_copy() {
        let topo = generators::ring(3);
        let sol = solve_tsmcf_colgen_auto(&topo).unwrap().solution;
        let sched = ChunkedSchedule::from_tsmcf(&topo, &sol, 64).unwrap();
        let dag = TransferDag::from_schedule(&sched).unwrap();
        // The directed 3-ring must relay: some second-hop transfer depends on the
        // first hop of the same commodity.
        let chained = dag.jobs.iter().any(|j| !j.deps.is_empty());
        assert!(chained, "ring schedules relay chunks");
        for (id, job) in dag.jobs.iter().enumerate() {
            for &d in &job.deps {
                assert!(d < id, "dependency ids precede the job");
                assert!(dag.jobs[d].step < job.step, "deps come from earlier steps");
                // The dependency delivered chunks of the same commodity to the sender.
                assert_eq!(dag.jobs[d].to, job.from);
                assert_eq!(
                    (dag.jobs[d].origin, dag.jobs[d].final_dest),
                    (job.origin, job.final_dest)
                );
            }
        }
    }

    #[test]
    fn successors_mirror_dependencies() {
        let topo = generators::hypercube(2);
        let sol = solve_tsmcf_colgen_auto(&topo).unwrap().solution;
        let sched = ChunkedSchedule::from_tsmcf(&topo, &sol, 64).unwrap();
        let dag = TransferDag::from_schedule(&sched).unwrap();
        let succ = dag.successors();
        let forward: usize = dag.jobs.iter().map(|j| j.deps.len()).sum();
        let backward: usize = succ.iter().map(Vec::len).sum();
        assert_eq!(forward, backward);
        for (id, list) in succ.iter().enumerate() {
            for &s in list {
                assert!(dag.jobs[s].deps.contains(&id));
            }
        }
    }

    #[test]
    fn inexecutable_schedules_are_rejected() {
        let topo = generators::complete(3);
        let sol = solve_tsmcf_colgen_auto(&topo).unwrap().solution;
        let clean = ChunkedSchedule::from_tsmcf(&topo, &sol, 4).unwrap();
        let mut sched = clean.clone();
        sched.steps[0].transfers.push(crate::ChunkTransfer {
            from: 1,
            to: 2,
            origin: 0,
            final_dest: 2,
            chunks: 99,
        });
        let err = TransferDag::from_schedule(&sched).unwrap_err();
        assert!(err.contains("holds"), "{err}");

        // A transfer end or a commodity endpoint outside the ranks is an
        // error, not an index panic.
        let mut stray_sender = clean.clone();
        stray_sender.steps[0].transfers.push(crate::ChunkTransfer {
            from: 7,
            to: 0,
            origin: 0,
            final_dest: 1,
            chunks: 1,
        });
        let mut stray_commodity = clean;
        stray_commodity.commodities = a2a_mcf::CommoditySet::among(vec![0, 1, 7]);
        for bad in [stray_sender, stray_commodity] {
            let err = TransferDag::from_schedule(&bad).unwrap_err();
            assert!(err.contains("rank 7"), "{err}");
        }

        // Zero granularity with zero-chunk transfers moves nothing and
        // "delivers" everything; it is rejected, not simulated.
        let ring = generators::ring(3);
        let sol = solve_tsmcf_colgen_auto(&ring).unwrap().solution;
        let mut zero = ChunkedSchedule::from_tsmcf(&ring, &sol, 4).unwrap();
        zero.chunks_per_shard = 0;
        for tr in zero.steps.iter_mut().flat_map(|s| &mut s.transfers) {
            tr.chunks = 0;
        }
        let err = TransferDag::from_schedule(&zero).unwrap_err();
        assert!(err.contains("granularity"), "{err}");
    }

    /// Dependency extraction with one FIFO entry per *chunk* — the
    /// implementation the run-length [`RunFifo`] replaced, kept as its
    /// reference. Returns every job's `deps` (the schedule must be executable).
    fn per_chunk_deps(schedule: &ChunkedSchedule) -> Vec<Vec<usize>> {
        let ncomm = schedule.commodities.len();
        let mut buffers: Vec<Vec<VecDeque<Option<usize>>>> =
            vec![vec![VecDeque::new(); schedule.num_ranks]; ncomm];
        for (idx, s, _) in schedule.commodities.iter() {
            buffers[idx][s].extend(std::iter::repeat_n(None, schedule.chunks_per_shard));
        }
        let mut all_deps: Vec<Vec<usize>> = Vec::new();
        for step in &schedule.steps {
            let mut arrivals: Vec<(usize, NodeId, usize, usize)> = Vec::new();
            for tr in &step.transfers {
                let idx = schedule
                    .commodities
                    .index_of(tr.origin, tr.final_dest)
                    .unwrap();
                let fifo = &mut buffers[idx][tr.from];
                let job_id = all_deps.len();
                let mut deps: Vec<usize> = fifo.drain(..tr.chunks).flatten().collect();
                deps.sort_unstable();
                deps.dedup();
                arrivals.push((idx, tr.to, tr.chunks, job_id));
                all_deps.push(deps);
            }
            for (idx, node, chunks, job_id) in arrivals {
                buffers[idx][node].extend(std::iter::repeat_n(Some(job_id), chunks));
            }
        }
        all_deps
    }

    #[test]
    fn run_length_fifos_reproduce_the_per_chunk_dependencies() {
        for topo in [
            generators::torus(&[3, 3]),
            generators::hypercube(3),
            generators::generalized_kautz(8, 2),
        ] {
            let sol = solve_tsmcf_colgen_auto(&topo).unwrap().solution;
            for chunks in [1, 8, 128] {
                let sched = ChunkedSchedule::from_tsmcf(&topo, &sol, chunks).unwrap();
                let dag = TransferDag::from_schedule(&sched).unwrap();
                let expected = per_chunk_deps(&sched);
                assert_eq!(dag.jobs.len(), expected.len());
                for (id, (job, deps)) in dag.jobs.iter().zip(&expected).enumerate() {
                    assert_eq!(&job.deps, deps, "{} @ {chunks}: job {id}", topo.name());
                }
            }
        }
        // The lowered schedules never forward chunks of two arrivals in one
        // transfer; this one does, and splits the second arrival's run.
        let relay = |from, to, chunks| crate::ChunkTransfer {
            from,
            to,
            origin: 0,
            final_dest: 2,
            chunks,
        };
        let sched = ChunkedSchedule {
            num_ranks: 3,
            commodities: a2a_mcf::CommoditySet::all_pairs(3),
            chunks_per_shard: 4,
            steps: [
                vec![relay(0, 1, 2), relay(0, 1, 2)],
                vec![relay(1, 2, 3)],
                vec![relay(1, 2, 1)],
            ]
            .map(|transfers| crate::ScheduleStep { transfers })
            .to_vec(),
        };
        let dag = TransferDag::from_schedule(&sched).unwrap();
        let deps: Vec<&[usize]> = dag.jobs.iter().map(|j| j.deps.as_slice()).collect();
        assert_eq!(deps, [&[][..], &[], &[0, 1], &[1]]);
        assert_eq!(per_chunk_deps(&sched), deps);
    }
}
