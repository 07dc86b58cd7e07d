//! Execution semantics of the chunked IR: the transfer dependency DAG.
//!
//! A [`crate::ChunkedSchedule`] lists its transfers step by step, but real runtimes do
//! not execute a global barrier between steps — a rank posts a send as soon as the
//! chunks it forwards have landed. This module extracts that *data* dependency
//! structure from the IR: each transfer becomes a [`TransferJob`], and a job depends on
//! exactly the earlier jobs that delivered the chunks it sends onward.
//!
//! Dependencies are resolved by provenance replay: the extraction walks the steps in
//! order, keeping a FIFO of chunk provenances per `(commodity, rank)` buffer (which job
//! delivered each buffered chunk, or none for chunks resident at the origin), stored as
//! runs of equal provenance — one entry per arrival, not per chunk. A
//! transfer consumes from the front of its sender's FIFO, so the dependency assignment
//! is deterministic and matches the buffering discipline that
//! [`crate::ChunkedSchedule::validate`] checks. Because arrivals of a step are only
//! applied after the whole step (store-and-forward), every dependency points to a job
//! of a *strictly earlier* step, which makes the DAG acyclic with job ids already in
//! topological order.

use std::collections::VecDeque;

use a2a_topology::NodeId;

use crate::ir::ChunkedSchedule;

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
/// `(delivering job, chunk count)` — `None` for chunks resident at the origin.
/// Every stored run is non-empty.
#[derive(Debug, Clone, Default)]
struct ProvenanceFifo {
    runs: VecDeque<(Option<usize>, usize)>,
    /// Total chunks over all runs.
    chunks: usize,
}

impl ProvenanceFifo {
    fn push(&mut self, job: Option<usize>, chunks: usize) {
        if chunks > 0 {
            self.runs.push_back((job, chunks));
            self.chunks += chunks;
        }
    }

    /// Removes the oldest `chunks` chunks (the caller has checked that many are
    /// held), splitting the last run touched, and returns the jobs that
    /// delivered them — one entry per run, so unsorted and possibly repeated.
    fn drain(&mut self, chunks: usize) -> Vec<usize> {
        self.chunks -= chunks;
        let mut jobs = Vec::new();
        let mut wanted = chunks;
        while wanted > 0 {
            let (job, held) = self
                .runs
                .front_mut()
                .expect("caller checked the chunk count");
            jobs.extend(*job);
            if *held > wanted {
                *held -= wanted;
                break;
            }
            wanted -= *held;
            self.runs.pop_front();
        }
        jobs
    }
}

impl TransferDag {
    /// Extracts the dependency DAG from a chunked schedule.
    ///
    /// Fails with a description of the first violation if the schedule is not
    /// executable (a commodity endpoint or transfer end is not one of the
    /// schedule's ranks, a rank sends chunks it does not hold, or a transfer
    /// names an unknown commodity) — the same conditions
    /// [`ChunkedSchedule::validate`] reports.
    pub fn from_schedule(schedule: &ChunkedSchedule) -> Result<Self, String> {
        // Provenance FIFO per (commodity, rank), run-length encoded: chunks that
        // arrived with one job (or sat at the origin) are one run.
        let mut buffers =
            vec![vec![ProvenanceFifo::default(); schedule.num_ranks]; schedule.commodities.len()];
        for (idx, s, d) in schedule.commodities.iter() {
            schedule.check_ranks([s, d], || format!("commodity {s}->{d}"))?;
            buffers[idx][s].push(None, schedule.chunks_per_shard);
        }

        let mut jobs: Vec<TransferJob> = Vec::new();
        for (t, step) in schedule.steps.iter().enumerate() {
            // Consume sender buffers first; arrivals land after the whole step.
            let mut arrivals: Vec<(usize, NodeId, usize, usize)> = Vec::new();
            for (i, tr) in step.transfers.iter().enumerate() {
                let idx = schedule
                    .commodities
                    .index_of(tr.origin, tr.final_dest)
                    .ok_or_else(|| {
                        format!(
                            "step {t}: transfer {i} names unknown commodity {}->{}",
                            tr.origin, tr.final_dest
                        )
                    })?;
                schedule.check_ranks([tr.from, tr.to], || format!("step {t}: transfer {i}"))?;
                let fifo = &mut buffers[idx][tr.from];
                if fifo.chunks < tr.chunks {
                    return Err(format!(
                        "step {t}: rank {} sends {} chunks of {}->{} but holds {}",
                        tr.from, tr.chunks, tr.origin, tr.final_dest, fifo.chunks
                    ));
                }
                let job_id = jobs.len();
                let mut deps = fifo.drain(tr.chunks);
                deps.sort_unstable();
                deps.dedup();
                debug_assert!(deps.iter().all(|&d| d < job_id));
                arrivals.push((idx, tr.to, tr.chunks, job_id));
                jobs.push(TransferJob {
                    step: t,
                    index_in_step: i,
                    from: tr.from,
                    to: tr.to,
                    origin: tr.origin,
                    final_dest: tr.final_dest,
                    chunks: tr.chunks,
                    deps,
                });
            }
            for (idx, node, chunks, job_id) in arrivals {
                buffers[idx][node].push(Some(job_id), chunks);
            }
        }
        Ok(Self {
            jobs,
            num_ranks: schedule.num_ranks,
            chunks_per_shard: schedule.chunks_per_shard,
            num_steps: schedule.steps.len(),
        })
    }

    /// Number of jobs (= total transfers of the schedule).
    pub fn num_jobs(&self) -> usize {
        self.jobs.len()
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

    /// Length (in jobs) of the longest dependency chain — the critical path of the
    /// schedule if every transfer took unit time.
    pub fn critical_path_len(&self) -> usize {
        let mut depth = vec![1usize; self.jobs.len()];
        let mut max = 0;
        for id in 0..self.jobs.len() {
            let d = 1 + self.jobs[id]
                .deps
                .iter()
                .map(|&p| depth[p])
                .max()
                .unwrap_or(0);
            depth[id] = d;
            max = max.max(d);
        }
        max
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use a2a_mcf::tscolgen::solve_tsmcf_colgen_auto;
    use a2a_topology::generators;

    #[test]
    fn complete_graph_jobs_are_independent() {
        let topo = generators::complete(3);
        let sol = solve_tsmcf_colgen_auto(&topo).unwrap().solution;
        let sched = ChunkedSchedule::from_tsmcf(&topo, &sol, 8).unwrap();
        let dag = TransferDag::from_schedule(&sched).unwrap();
        assert_eq!(dag.num_jobs(), sched.total_transfers());
        assert!(dag.jobs.iter().all(|j| j.deps.is_empty()));
        assert_eq!(dag.critical_path_len(), 1);
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
        assert!(dag.critical_path_len() >= 2);
        assert!(dag.critical_path_len() <= sched.num_steps());
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
    }

    /// Dependency extraction with one FIFO entry per *chunk* — the
    /// implementation the run-length [`ProvenanceFifo`] replaced, kept as its
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
                assert_eq!(dag.num_jobs(), expected.len());
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
