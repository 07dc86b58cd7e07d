//! The event engine as it ran with eager byte accounting: every event
//! advanced every active flow's remaining bytes by `rate · dt`, charged `dt` of
//! busy time to every link with a flow, and searched every live link (per-link
//! path) or every flow (progressive filling) for the next drain. Kept verbatim,
//! but for the observability taps, the job-id list progressive filling takes
//! and the [`Retire`] order (the engine's own list is gone), as the reference
//! the engine is held to (`engine_matches_the_eager_reference`).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;

use a2a_schedule::TransferDag;
use a2a_topology::{EdgeId, Topology};

use super::{Boundary, Interrupt, OrdF64, Outcome, SimError, SimJob, SimResult, TimelineOutcome};
use crate::fair_share::FairShare;
use crate::SimParams;

impl SimJob {
    /// Whether a flow of this job with `remaining` bytes left has not drained
    /// yet.
    fn still_draining(&self, remaining: f64) -> bool {
        remaining > self.drain_threshold()
    }
}

/// The order in which a run loop retires drained flows, which progressive
/// filling's resource numbering sees in the survivors.
#[derive(Clone, Copy)]
enum Retire {
    /// Survivors keep their order (synchronized runs).
    InOrder,
    /// A drained flow's place goes to the last flow (dependency-driven runs).
    SwapRemove,
}

/// A flow currently draining.
#[derive(Clone, Copy)]
struct ActiveFlow {
    job: usize,
    remaining: f64,
}

/// Progressive filling into per-flow rates, the drain search over every flow,
/// then an advance pass and a retirement pass.
struct Progressive {
    fair: FairShare,
    active: Vec<ActiveFlow>,
    rates: Vec<f64>,
    link_seen: Vec<u64>,
    seen_epoch: u64,
}

impl Progressive {
    fn new(num_edges: usize, num_nodes: usize) -> Self {
        Self {
            fair: FairShare::new(num_edges, num_nodes),
            active: Vec::new(),
            rates: Vec::new(),
            link_seen: vec![0; num_edges],
            seen_epoch: 0,
        }
    }

    fn arrive(&mut self, job: usize, bytes: f64) {
        self.active.push(ActiveFlow {
            job,
            remaining: bytes,
        });
    }

    fn flows(&self) -> usize {
        self.active.len()
    }

    fn uses_any(&self, jobs: &[SimJob], failed: &[bool]) -> bool {
        self.active.iter().any(|flow| failed[jobs[flow.job].link])
    }

    fn remaining_of(&self, job: usize) -> f64 {
        self.active
            .iter()
            .find(|flow| flow.job == job)
            .map_or(0.0, |flow| flow.remaining)
    }

    fn drain_time(&mut self, jobs: &[SimJob], link_bw: &[f64], params: &SimParams) -> f64 {
        let active = &self.active;
        let active_jobs: Vec<usize> = active.iter().map(|flow| flow.job).collect();
        self.fair
            .assign_rates(jobs, link_bw, params, &active_jobs, &mut self.rates);
        let mut dt = f64::INFINITY;
        for (flow, &r) in active.iter().zip(&self.rates) {
            dt = dt.min(if r.is_infinite() {
                0.0
            } else {
                flow.remaining / r
            });
        }
        dt
    }

    fn advance(
        &mut self,
        jobs: &[SimJob],
        dt: f64,
        link_busy: &mut [f64],
        retire: Retire,
        mut done: impl FnMut(usize),
    ) {
        let active = &mut self.active;
        if dt > 0.0 {
            self.seen_epoch += 1;
            for flow in active.iter() {
                let e = jobs[flow.job].link;
                if self.link_seen[e] != self.seen_epoch {
                    self.link_seen[e] = self.seen_epoch;
                    link_busy[e] += dt;
                }
            }
        }
        for (flow, &r) in active.iter_mut().zip(&self.rates) {
            flow.remaining = if r.is_infinite() {
                0.0
            } else {
                (flow.remaining - r * dt).max(0.0)
            };
        }
        match retire {
            Retire::InOrder => active.retain(|flow| {
                let draining = jobs[flow.job].still_draining(flow.remaining);
                if !draining {
                    done(flow.job);
                }
                draining
            }),
            Retire::SwapRemove => {
                let mut i = 0;
                while i < active.len() {
                    if jobs[active[i].job].still_draining(active[i].remaining) {
                        i += 1;
                    } else {
                        done(active.swap_remove(i).job);
                    }
                }
            }
        }
    }
}

/// Each link splits its capacity evenly among its flows; the flows live in one
/// fixed window of flat arrays per link.
struct LinkShare {
    start: Vec<usize>,
    len: Vec<usize>,
    remaining: Vec<f64>,
    threshold: Vec<f64>,
    job: Vec<usize>,
    flows: usize,
    live: Vec<EdgeId>,
    level: Vec<f64>,
    least: Vec<f64>,
    stale: Vec<EdgeId>,
    is_stale: Vec<bool>,
}

impl LinkShare {
    fn new(num_edges: usize, jobs: &[SimJob]) -> Self {
        let mut start = vec![0; num_edges + 1];
        for job in jobs {
            start[job.link + 1] += 1;
        }
        for e in 0..num_edges {
            start[e + 1] += start[e];
        }
        Self {
            start,
            len: vec![0; num_edges],
            remaining: vec![0.0; jobs.len()],
            threshold: vec![0.0; jobs.len()],
            job: vec![0; jobs.len()],
            flows: 0,
            live: Vec::new(),
            level: vec![0.0; num_edges],
            least: vec![0.0; num_edges],
            stale: Vec::new(),
            is_stale: vec![false; num_edges],
        }
    }

    fn mark_stale(&mut self, e: EdgeId) {
        if !self.is_stale[e] {
            self.is_stale[e] = true;
            self.stale.push(e);
        }
    }

    fn arrive(&mut self, id: usize, job: &SimJob) {
        let e = job.link;
        let slot = self.start[e] + self.len[e];
        self.remaining[slot] = job.bytes;
        self.threshold[slot] = job.drain_threshold();
        self.job[slot] = id;
        if self.len[e] == 0 {
            self.live.push(e);
            self.least[e] = job.bytes;
        } else {
            self.least[e] = self.least[e].min(job.bytes);
        }
        self.len[e] += 1;
        self.flows += 1;
        self.mark_stale(e);
    }

    fn flows(&self) -> usize {
        self.flows
    }

    fn uses_any(&self, failed: &[bool]) -> bool {
        self.live.iter().any(|&e| failed[e])
    }

    fn window(&self, e: EdgeId) -> Range<usize> {
        self.start[e]..self.start[e] + self.len[e]
    }

    fn remaining_of(&self, job: usize, e: EdgeId) -> f64 {
        self.window(e)
            .find(|&i| self.job[i] == job)
            .map_or(0.0, |i| self.remaining[i])
    }

    fn rerate(&mut self, old: &[f64], new: &[f64]) {
        for (e, (a, b)) in old.iter().zip(new).enumerate() {
            if a.to_bits() != b.to_bits() && self.len[e] > 0 {
                self.mark_stale(e);
            }
        }
    }

    fn drain_time(&mut self, link_bw: &[f64], params: &SimParams) -> f64 {
        for e in self.stale.drain(..) {
            self.is_stale[e] = false;
            let n = self.len[e];
            if n > 0 {
                self.level[e] = link_level(link_bw[e], params, n);
            }
        }
        let mut dt = f64::INFINITY;
        for &e in &self.live {
            let level = self.level[e];
            dt = dt.min(if level.is_infinite() {
                0.0
            } else {
                self.least[e] / level
            });
        }
        dt
    }

    fn advance(&mut self, dt: f64, link_busy: &mut [f64], mut done: impl FnMut(usize)) {
        let mut kept_links = 0;
        for li in 0..self.live.len() {
            let e = self.live[li];
            if dt > 0.0 {
                link_busy[e] += dt;
            }
            let window = self.window(e);
            let level = self.level[e];
            let mut least = f64::INFINITY;
            let mut drained = level.is_infinite();
            if !drained {
                let step = level * dt;
                let remaining = &mut self.remaining[window.clone()];
                for (r, &threshold) in remaining.iter_mut().zip(&self.threshold[window.clone()]) {
                    *r = (*r - step).max(0.0);
                    if *r > threshold {
                        least = least.min(*r);
                    } else {
                        drained = true;
                    }
                }
            }
            if drained {
                let mut kept = window.start;
                for i in window.clone() {
                    if level.is_finite() && self.remaining[i] > self.threshold[i] {
                        self.remaining[kept] = self.remaining[i];
                        self.threshold[kept] = self.threshold[i];
                        self.job[kept] = self.job[i];
                        kept += 1;
                    } else {
                        done(self.job[i]);
                    }
                }
                self.flows -= window.end - kept;
                self.len[e] = kept - window.start;
                self.mark_stale(e);
            }
            self.least[e] = least;
            if self.len[e] > 0 {
                self.live[kept_links] = e;
                kept_links += 1;
            }
        }
        self.live.truncate(kept_links);
    }
}

fn link_level(bw: f64, params: &SimParams, n: usize) -> f64 {
    if bw.is_infinite() {
        return f64::INFINITY;
    }
    let capacity = match params.qp_contention {
        Some(qp) => bw * qp.bandwidth_factor(n),
        None => bw,
    };
    capacity / n as f64
}

enum Sharing {
    PerLink(LinkShare),
    Progressive(Progressive),
}

/// The eager engine's run loops over the inputs `Engine::new` takes.
pub(super) struct Engine<'a> {
    jobs: &'a [SimJob],
    dag: &'a TransferDag,
    link_bw: Vec<f64>,
    params: &'a SimParams,
    alpha_factor: &'a [f64],
    num_steps: usize,
    sharing: Sharing,
    /// Recomputes so far (one per event).
    pub(super) recomputes: usize,
}

impl<'a> Engine<'a> {
    pub(super) fn new(
        topo: &Topology,
        jobs: &'a [SimJob],
        dag: &'a TransferDag,
        link_bw: Vec<f64>,
        params: &'a SimParams,
        alpha_factor: &'a [f64],
    ) -> Self {
        Self {
            jobs,
            dag,
            link_bw,
            params,
            alpha_factor,
            num_steps: dag.num_steps,
            sharing: if params.host_injection_gbps.is_none() {
                Sharing::PerLink(LinkShare::new(topo.num_edges(), jobs))
            } else {
                Sharing::Progressive(Progressive::new(topo.num_edges(), topo.num_nodes()))
            },
            recomputes: 0,
        }
    }

    fn activate(&mut self, job: usize) {
        match &mut self.sharing {
            Sharing::PerLink(links) => links.arrive(job, &self.jobs[job]),
            Sharing::Progressive(fill) => fill.arrive(job, self.jobs[job].bytes),
        }
    }

    fn flows(&self) -> usize {
        match &self.sharing {
            Sharing::PerLink(links) => links.flows(),
            Sharing::Progressive(fill) => fill.flows(),
        }
    }

    fn remaining_of(&self, job: usize) -> f64 {
        match &self.sharing {
            Sharing::PerLink(links) => links.remaining_of(job, self.jobs[job].link),
            Sharing::Progressive(fill) => fill.remaining_of(job),
        }
    }

    fn drain_time(&mut self) -> f64 {
        self.recomputes += 1;
        let (jobs, link_bw, params) = (self.jobs, &self.link_bw, self.params);
        match &mut self.sharing {
            Sharing::PerLink(links) => links.drain_time(link_bw, params),
            Sharing::Progressive(fill) => fill.drain_time(jobs, link_bw, params),
        }
    }

    fn advance(&mut self, dt: f64, link_busy: &mut [f64], retire: Retire, done: impl FnMut(usize)) {
        match &mut self.sharing {
            Sharing::PerLink(links) => links.advance(dt, link_busy, done),
            Sharing::Progressive(fill) => fill.advance(self.jobs, dt, link_busy, retire, done),
        }
    }

    fn rerate(&mut self, link_bw: &[f64]) {
        if let Sharing::PerLink(links) = &mut self.sharing {
            links.rerate(&self.link_bw, link_bw);
        }
        self.link_bw.copy_from_slice(link_bw);
    }

    fn remaining_work_uses_failed(&self, next_job: usize, failed: &[bool]) -> bool {
        let live = match &self.sharing {
            Sharing::PerLink(links) => links.uses_any(failed),
            Sharing::Progressive(fill) => fill.uses_any(self.jobs, failed),
        };
        live || self.jobs[next_job..].iter().any(|j| failed[j.link])
    }

    pub(super) fn run_synchronized_timeline(&mut self, boundaries: &[Boundary]) -> TimelineOutcome {
        let mut t = 0.0f64;
        let mut link_busy = vec![0.0f64; self.link_bw.len()];
        let mut step_completion = vec![0.0f64; self.num_steps];
        let mut max_concurrent = 0usize;
        let mut next_job = 0usize;
        let mut bi = 0usize;
        for step in 0..self.num_steps {
            let step_first_job = next_job;
            let mut step_alpha_factor = 1.0f64;
            while next_job < self.jobs.len() && self.jobs[next_job].step == step {
                step_alpha_factor = step_alpha_factor.max(self.alpha_factor[next_job]);
                self.activate(next_job);
                next_job += 1;
            }
            max_concurrent = max_concurrent.max(self.flows());
            while self.flows() > 0 {
                let dt = self.drain_time();
                if bi < boundaries.len() && boundaries[bi].time - t <= dt {
                    let dt_to_event = (boundaries[bi].time - t).max(0.0);
                    t += dt_to_event;
                    self.advance(dt_to_event, &mut link_busy, Retire::InOrder, |_| {});
                    let b = &boundaries[bi];
                    self.rerate(&b.link_bw);
                    bi += 1;
                    if !b.failed_links.is_empty()
                        && self.remaining_work_uses_failed(next_job, &b.failed)
                    {
                        let remaining = (step_first_job..next_job)
                            .map(|j| (j, self.remaining_of(j)))
                            .collect();
                        return TimelineOutcome::Interrupted(Interrupt {
                            time: b.time,
                            cut_step: step,
                            remaining,
                            boundary: bi - 1,
                        });
                    }
                    continue;
                }
                t += dt;
                self.advance(dt, &mut link_busy, Retire::InOrder, |_| {});
            }
            step_completion[step] = t;
            let sync_end = t + self.params.step_sync_latency_s * step_alpha_factor;
            while bi < boundaries.len() && boundaries[bi].time <= sync_end {
                let b = &boundaries[bi];
                self.rerate(&b.link_bw);
                bi += 1;
                if !b.failed_links.is_empty()
                    && self.remaining_work_uses_failed(next_job, &b.failed)
                {
                    return TimelineOutcome::Interrupted(Interrupt {
                        time: b.time.max(t),
                        cut_step: step + 1,
                        remaining: Vec::new(),
                        boundary: bi - 1,
                    });
                }
            }
            t = sync_end;
        }
        TimelineOutcome::Completed(Outcome {
            completion: t,
            step_completion,
            link_busy,
            max_concurrent,
        })
    }

    pub(super) fn run_dependency_driven(&mut self) -> SimResult<Outcome> {
        let n = self.jobs.len();
        let alpha = self.params.per_hop_latency_s;
        let dag = self.dag;
        let mut indeg: Vec<usize> = (0..n).map(|id| dag.deps(id).len()).collect();
        let mut ready: BinaryHeap<Reverse<(OrdF64, usize)>> = BinaryHeap::new();
        for (id, &deg) in indeg.iter().enumerate() {
            if deg == 0 {
                ready.push(Reverse((OrdF64(alpha * self.alpha_factor[id]), id)));
            }
        }

        let mut t = 0.0f64;
        let mut link_busy = vec![0.0f64; self.link_bw.len()];
        let mut step_completion = vec![0.0f64; self.num_steps];
        let mut completed = 0usize;
        let mut max_concurrent = 0usize;
        let mut guard = 4 * n + 16;
        while completed < n {
            guard -= 1;
            if guard == 0 {
                return Err(SimError::Stalled {
                    completed,
                    total: n,
                });
            }
            if self.flows() == 0 {
                let Some(&Reverse((OrdF64(rt), _))) = ready.peek() else {
                    return Err(SimError::Stalled {
                        completed,
                        total: n,
                    });
                };
                t = t.max(rt);
            }
            while let Some(&Reverse((OrdF64(rt), id))) = ready.peek() {
                if rt > t {
                    break;
                }
                ready.pop();
                self.activate(id);
            }
            max_concurrent = max_concurrent.max(self.flows());

            let mut dt = self.drain_time();
            if let Some(&Reverse((OrdF64(rt), _))) = ready.peek() {
                dt = dt.min(rt - t);
            }
            t += dt;
            let (jobs, alpha_factor) = (self.jobs, self.alpha_factor);
            self.advance(dt, &mut link_busy, Retire::SwapRemove, |job| {
                completed += 1;
                let step = jobs[job].step;
                step_completion[step] = step_completion[step].max(t);
                for &s in dag.successors(job) {
                    indeg[s] -= 1;
                    if indeg[s] == 0 {
                        ready.push(Reverse((OrdF64(t + alpha * alpha_factor[s]), s)));
                    }
                }
            });
        }
        super::complete_empty_steps(self.jobs, &mut step_completion);
        Ok(Outcome {
            completion: t,
            step_completion,
            link_busy,
            max_concurrent,
        })
    }
}
