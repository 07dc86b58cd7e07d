//! Execution semantics of the chunked IR: the one buffer replay, and the transfer
//! dependency DAG built on it.
//!
//! A lowered program (MSCCL / oneCCL, §4) obeys three store-and-forward rules: every
//! shard starts as `chunks_per_shard` chunks at its origin; a rank forwards only
//! chunks of a commodity that it holds, oldest first; a step's arrivals land only
//! after the whole step. `replay` owns these rules and every check on them.
//!
//! # Buffer layout
//!
//! The `(commodity, rank)` buffers live flat, at `commodity * num_ranks + rank`:
//! the replay keeps one chunk count per buffer and finds a transfer's commodity
//! through a rank-to-endpoint table built once per call, so
//! [`crate::ChunkedSchedule::validate`] and [`holdings_after`] allocate a few
//! vectors whatever the schedule's size. A replay that needs to know *which*
//! chunks a buffer holds passes a `Track`: `Labelled` keeps every buffer's
//! chunks as a FIFO of runs of equally labelled chunks (one run per arrival,
//! not per chunk), linked through one shared arena, so it allocates per
//! transfer, not per buffer. The label is the caller's: the delivering job for
//! [`TransferDag::from_schedule`], the trajectory for
//! [`crate::splice::realized_route_table`].
//!
//! Real runtimes do not execute a global barrier between steps — a rank posts a
//! send as soon as the chunks it forwards have landed. The DAG is that *data*
//! dependency structure: each transfer becomes a [`TransferJob`] that depends on
//! exactly the earlier jobs that delivered the chunks it sends onward. Arrivals
//! land after the whole step, so every dependency points to a job of a *strictly
//! earlier* step: the DAG is acyclic with job ids already in topological order.
//! The DAG keeps its dependencies and their reverse, the successor lists, as
//! two compressed rows (one id array plus per-job offsets).

use a2a_topology::NodeId;

use crate::ir::{ChunkTransfer, ChunkedSchedule, ScheduleStep};

/// One executable transfer: a [`crate::ChunkTransfer`] plus its position in the
/// schedule. Its dependencies are [`TransferDag::deps`].
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
    deps: Csr,
    succ: Csr,
}

/// Compressed rows: row `i` is `ids[offsets[i]..offsets[i + 1]]`.
#[derive(Debug, Clone)]
struct Csr {
    offsets: Vec<usize>,
    ids: Vec<usize>,
}

impl Csr {
    fn row(&self, i: usize) -> &[usize] {
        &self.ids[self.offsets[i]..self.offsets[i + 1]]
    }

    /// The reverse rows over `0..rows`: row `j` lists every `i` whose row
    /// holds `j`, ascending.
    fn transpose(&self, rows: usize) -> Self {
        let mut offsets = vec![0; rows + 1];
        for &j in &self.ids {
            offsets[j + 1] += 1;
        }
        for j in 0..rows {
            offsets[j + 1] += offsets[j];
        }
        let mut next = offsets[..rows].to_vec();
        let mut ids = vec![0; self.ids.len()];
        for i in 0..self.offsets.len() - 1 {
            for &j in self.row(i) {
                ids[next[j]] = i;
                next[j] += 1;
            }
        }
        Self { offsets, ids }
    }
}

/// What a replay keeps of its buffers beyond their chunk counts. Buffers are
/// numbered `commodity * num_ranks + rank`.
pub(crate) trait Track {
    /// The commodity's `chunks` chunks start at their origin `rank`, in
    /// `buffer`.
    fn start(&mut self, buffer: usize, rank: NodeId, chunks: usize);
    /// `tr` moves the oldest `tr.chunks` chunks of buffer `from` (which holds
    /// at least that many) toward buffer `to`.
    fn send(&mut self, tr: &ChunkTransfer, from: usize, to: usize);
    /// The step's sends land.
    fn land(&mut self);
}

/// Chunk counts only.
impl Track for () {
    fn start(&mut self, _: usize, _: NodeId, _: usize) {}
    fn send(&mut self, _: &ChunkTransfer, _: usize, _: usize) {}
    fn land(&mut self) {}
}

/// End of a run list.
const NIL: u32 = u32::MAX;

/// One run of a buffer: `chunks` chunks labelled `label`, then arena slot
/// `next`.
struct Run<L> {
    label: L,
    chunks: usize,
    next: u32,
}

/// Labelled chunks: every buffer a FIFO of `(label, chunk count)` runs,
/// oldest first, linked through one arena. Every stored run is non-empty, and
/// adjacent chunks with equal labels share one. A drained run's slot is not
/// reused: the arena grows by at most one slot per run that lands.
pub(crate) struct Labelled<L, O, R> {
    /// `(first, last)` arena slot of each buffer's runs, [`NIL`] when empty.
    ends: Vec<(u32, u32)>,
    arena: Vec<Run<L>>,
    /// The label of the chunks at a commodity's origin.
    origin: O,
    /// Sees each transfer's drained runs, oldest first, and may rewrite their
    /// labels before they land.
    relabel: R,
    moved: Vec<(L, usize)>,
    arrivals: Vec<(usize, L, usize)>,
}

impl<L, O, R> Labelled<L, O, R>
where
    L: Default + PartialEq,
    O: Fn(NodeId) -> L,
    R: FnMut(&ChunkTransfer, &mut [(L, usize)]),
{
    /// Empty buffers for `schedule`.
    pub(crate) fn new(schedule: &ChunkedSchedule, origin: O, relabel: R) -> Self {
        Self {
            ends: vec![(NIL, NIL); schedule.commodities.len() * schedule.num_ranks],
            arena: Vec::with_capacity(schedule.commodities.len() + schedule.total_transfers()),
            origin,
            relabel,
            moved: Vec::new(),
            arrivals: Vec::new(),
        }
    }

    /// The runs of `buffer`, oldest first.
    pub(crate) fn runs(&self, buffer: usize) -> impl Iterator<Item = (&L, usize)> + '_ {
        let mut at = self.ends[buffer].0;
        std::iter::from_fn(move || {
            let run = self.arena.get(at as usize)?;
            at = run.next;
            Some((&run.label, run.chunks))
        })
    }

    fn push(&mut self, buffer: usize, label: L, chunks: usize) {
        if chunks == 0 {
            return;
        }
        let (first, last) = &mut self.ends[buffer];
        if let Some(run) = self.arena.get_mut(*last as usize) {
            if run.label == label {
                run.chunks += chunks;
                return;
            }
        }
        let slot = u32::try_from(self.arena.len()).expect("fewer than 2^32 - 1 runs");
        match self.arena.get_mut(*last as usize) {
            Some(run) => run.next = slot,
            None => *first = slot,
        }
        *last = slot;
        self.arena.push(Run {
            label,
            chunks,
            next: NIL,
        });
    }
}

impl<L, O, R> Track for Labelled<L, O, R>
where
    L: Clone + Default + PartialEq,
    O: Fn(NodeId) -> L,
    R: FnMut(&ChunkTransfer, &mut [(L, usize)]),
{
    fn start(&mut self, buffer: usize, rank: NodeId, chunks: usize) {
        let label = (self.origin)(rank);
        self.push(buffer, label, chunks);
    }

    /// Drains whole runs from the front and splits the last run touched.
    fn send(&mut self, tr: &ChunkTransfer, from: usize, to: usize) {
        let mut wanted = tr.chunks;
        let (first, last) = &mut self.ends[from];
        while wanted > 0 {
            let run = &mut self.arena[*first as usize];
            if run.chunks <= wanted {
                wanted -= run.chunks;
                self.moved
                    .push((std::mem::take(&mut run.label), run.chunks));
                *first = run.next;
            } else {
                run.chunks -= wanted;
                self.moved.push((run.label.clone(), wanted));
                wanted = 0;
            }
        }
        if *first == NIL {
            *last = NIL;
        }
        (self.relabel)(tr, &mut self.moved);
        self.arrivals.extend(
            self.moved
                .drain(..)
                .map(|(label, chunks)| (to, label, chunks)),
        );
    }

    fn land(&mut self) {
        let mut arrivals = std::mem::take(&mut self.arrivals);
        for (buffer, label, chunks) in arrivals.drain(..) {
            self.push(buffer, label, chunks);
        }
        self.arrivals = arrivals;
    }
}

/// Replays `steps` under the store-and-forward rules (module docs) from the
/// initial buffers of `schedule`: each commodity's `chunks_per_shard` chunks
/// at its origin. Returns every buffer's chunk count after the last step; a
/// `track` follows the chunks themselves.
///
/// Each violation — zero granularity, a commodity endpoint or transfer end
/// outside `0..num_ranks`, an unknown commodity, a send of chunks the sender
/// does not hold — goes to `sink`, and the commodity or transfer at fault
/// moves no chunks. An `Err` from `sink` stops the replay and is returned, so
/// passing `Err` as the sink stops at the first violation.
pub(crate) fn replay<E>(
    schedule: &ChunkedSchedule,
    steps: &[ScheduleStep],
    track: &mut impl Track,
    mut sink: impl FnMut(String) -> Result<(), E>,
) -> Result<Vec<usize>, E> {
    let n = schedule.num_ranks;
    let cps = schedule.chunks_per_shard;
    if cps == 0 {
        sink("granularity must be positive".into())?;
    }
    let outside = |ranks: [NodeId; 2]| ranks.into_iter().find(|&r| r >= n);
    let mut held = vec![0; schedule.commodities.len() * n];
    for (idx, s, d) in schedule.commodities.iter() {
        match outside([s, d]) {
            None => {
                held[idx * n + s] = cps;
                track.start(idx * n + s, s, cps);
            }
            Some(r) => sink(format!("commodity {s}->{d} names rank {r}, outside 0..{n}"))?,
        }
    }
    // A commodity's index from its endpoints, as `CommoditySet::index_of`
    // gives it, by one table lookup per endpoint in `0..n`.
    let endpoints = schedule.commodities.endpoints();
    let mut position = vec![None; n];
    for (p, &e) in endpoints.iter().enumerate() {
        if let Some(slot) = position.get_mut(e) {
            *slot = Some(p);
        }
    }
    let position = |rank: NodeId| match position.get(rank) {
        Some(&p) => p,
        None => endpoints.iter().position(|&e| e == rank),
    };
    let index_of = |src: NodeId, dst: NodeId| {
        let (s, d) = (position(src)?, position(dst)?);
        let k = endpoints.len();
        (s != d).then(|| s * (k - 1) + d - usize::from(d > s))
    };
    let mut arrivals: Vec<(usize, usize)> = Vec::new();
    for (t, step) in steps.iter().enumerate() {
        for tr in &step.transfers {
            if let Some(r) = outside([tr.from, tr.to]) {
                sink(format!(
                    "step {t}: transfer {}->{} names rank {r}, outside 0..{n}",
                    tr.from, tr.to
                ))?;
                continue;
            }
            let Some(idx) = index_of(tr.origin, tr.final_dest) else {
                sink(format!(
                    "step {t}: unknown commodity {}->{}",
                    tr.origin, tr.final_dest
                ))?;
                continue;
            };
            let (from, to) = (idx * n + tr.from, idx * n + tr.to);
            if held[from] < tr.chunks {
                sink(format!(
                    "step {t}: rank {} sends {} chunks of {}->{} but holds {}",
                    tr.from, tr.chunks, tr.origin, tr.final_dest, held[from]
                ))?;
                continue;
            }
            held[from] -= tr.chunks;
            arrivals.push((to, tr.chunks));
            track.send(tr, from, to);
        }
        for (to, chunks) in arrivals.drain(..) {
            held[to] += chunks;
        }
        track.land();
    }
    Ok(held)
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
    let held = replay(schedule, prefix, &mut (), Err)?;
    let n = schedule.num_ranks;
    Ok((0..schedule.commodities.len())
        .map(|idx| held[idx * n..][..n].to_vec())
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
        let total = schedule.total_transfers();
        let mut offsets = Vec::with_capacity(total + 1);
        offsets.push(0);
        let mut ids = Vec::with_capacity(total);
        let mut row = Vec::new();
        let relabel = |_: &ChunkTransfer, runs: &mut [(Option<usize>, usize)]| {
            let job = offsets.len() - 1;
            row.clear();
            row.extend(runs.iter().filter_map(|&(label, _)| label));
            row.sort_unstable();
            row.dedup();
            debug_assert!(row.iter().all(|&d| d < job));
            ids.extend_from_slice(&row);
            offsets.push(ids.len());
            for run in runs {
                run.0 = Some(job);
            }
        };
        let mut labelled = Labelled::new(schedule, |_| None, relabel);
        replay(schedule, &schedule.steps, &mut labelled, Err)?;
        drop(labelled);
        debug_assert_eq!(offsets.len(), total + 1);
        let jobs = schedule
            .steps
            .iter()
            .enumerate()
            .flat_map(|(t, step)| {
                step.transfers
                    .iter()
                    .enumerate()
                    .map(move |(i, tr)| TransferJob {
                        step: t,
                        index_in_step: i,
                        from: tr.from,
                        to: tr.to,
                        origin: tr.origin,
                        final_dest: tr.final_dest,
                        chunks: tr.chunks,
                    })
            })
            .collect();
        let deps = Csr { offsets, ids };
        let succ = deps.transpose(total);
        Ok(Self {
            jobs,
            num_ranks: schedule.num_ranks,
            chunks_per_shard: schedule.chunks_per_shard,
            num_steps: schedule.steps.len(),
            deps,
            succ,
        })
    }

    /// Ids of the jobs that must complete before job `job` can depart (indices
    /// into [`TransferDag::jobs`]), sorted ascending and deduplicated. Empty
    /// for a transfer that only forwards chunks resident at the commodity
    /// origin.
    pub fn deps(&self, job: usize) -> &[usize] {
        self.deps.row(job)
    }

    /// Ids of the jobs that depend on job `job`, ascending: the reverse of
    /// [`TransferDag::deps`].
    pub fn successors(&self, job: usize) -> &[usize] {
        self.succ.row(job)
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
        assert!((0..dag.jobs.len()).all(|id| dag.deps(id).is_empty()));
    }

    #[test]
    fn relayed_chunks_depend_on_their_inbound_copy() {
        let topo = generators::ring(3);
        let sol = solve_tsmcf_colgen_auto(&topo).unwrap().solution;
        let sched = ChunkedSchedule::from_tsmcf(&topo, &sol, 64).unwrap();
        let dag = TransferDag::from_schedule(&sched).unwrap();
        // The directed 3-ring must relay: some second-hop transfer depends on the
        // first hop of the same commodity.
        let chained = (0..dag.jobs.len()).any(|id| !dag.deps(id).is_empty());
        assert!(chained, "ring schedules relay chunks");
        for (id, job) in dag.jobs.iter().enumerate() {
            for &d in dag.deps(id) {
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
        let ids = 0..dag.jobs.len();
        let forward: usize = ids.clone().map(|id| dag.deps(id).len()).sum();
        let backward: usize = ids.clone().map(|id| dag.successors(id).len()).sum();
        assert_eq!(forward, backward);
        for id in ids {
            let list = dag.successors(id);
            assert!(list.windows(2).all(|w| w[0] < w[1]), "ascending");
            for &s in list {
                assert!(dag.deps(s).contains(&id));
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
    /// implementation the run-length [`Labelled`] buffers replaced, kept as
    /// their reference. Returns every job's dependencies (the schedule must be
    /// executable).
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
                for (id, deps) in expected.iter().enumerate() {
                    assert_eq!(dag.deps(id), deps, "{} @ {chunks}: job {id}", topo.name());
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
        let deps: Vec<&[usize]> = (0..dag.jobs.len()).map(|id| dag.deps(id)).collect();
        assert_eq!(deps, [&[][..], &[], &[0, 1], &[1]]);
        assert_eq!(per_chunk_deps(&sched), deps);
    }
}
