//! The event engine's max-min fair-share kernels.
//!
//! Between two events every active flow of [`crate::event`] drains at a
//! constant rate: the max-min fair share over the finite resources it touches
//! (its link, and under a host cap its sender's injection and its receiver's
//! ejection side). Each event makes one recompute of these rates, on one of
//! two paths the data picks.
//!
//! # Per link, with no host cap ([`LinkShare`])
//!
//! A flow's only finite resource is then its link, so the max-min share is
//! each link's even split `link_bw · qp(n) / n` over its `n` flows (`qp` the
//! [`QpContention`](crate::QpContention) factor, 1 without it; `+inf` on an
//! infinite link). It is the level progressive filling would freeze the link
//! at, bit for bit: the first pass computes `capacity / n` for every link, and
//! since no flow of another link touches this one, no freeze charges it before
//! its own. Member counts are kept across events (an arrival adds one, a
//! retirement takes one away), and only the links whose count or bandwidth
//! changed get their level recomputed.
//!
//! The next drain is the least, over links with flows, of the least remaining
//! bytes on the link divided by its level. That equals the least of the
//! per-flow quotients the progressive-filling path takes, because correctly
//! rounded division by a positive number is monotone in the numerator (an
//! infinite level contributes 0, as an infinite rate does).
//!
//! Each link keeps its flows in a window of flat arrays (remaining bytes,
//! drain threshold, job), sized when the engine is built from how many of the
//! run's jobs use the link; every job arrives once, so no window overflows.
//! An advance walks the links with flows, charges each its busy time,
//! computes `level · dt` once and updates the link's window in one tight pass
//! that also gathers its least remaining bytes for the next drain search; a
//! second pass compacts the window only where a flow drained. Flows therefore
//! retire link by link rather than in the order they arrived, and no result
//! sees it: rates depend only on per-link counts, busy time and step
//! completions are per-link sums and maxima, and the dependency-driven ready
//! queue is keyed by unique `(time, job)` pairs, so the order in which a
//! retirement readies successors does not decide the order they start in.
//!
//! # Progressive filling, under a host cap ([`Progressive`], [`FairShare`])
//!
//! Injection and ejection sides couple flows of different links. Every
//! resource with unfrozen flows has a *level* `residual capacity / unfrozen
//! flows`; the resource with the lowest level is the bottleneck, its unfrozen
//! flows are frozen at that level, the level is charged to the (at most two)
//! other resources of each frozen flow, and the search repeats until every
//! flow is frozen. Flows that touch no finite resource run at an infinite rate
//! (they drain within the event).
//!
//! **Tie rule.** Among equal levels the bottleneck is the resource with the lowest
//! index, and resources are indexed per recompute in a fixed order: finite links by
//! first appearance walking the active flows in order, then — under a host cap —
//! each flow's injection resource followed by its ejection resource, again by
//! first appearance in flow order. The order of freezes decides in which order
//! `residual` is charged, hence the last bits of every later level; the recorded
//! `f64` bit patterns of the test suites (and the equality with the
//! table-rebuilding, linear-scan kernel kept as the tests' reference) rest on
//! this rule. The order of the active flows is therefore part of the result
//! here (each run loop retires in its own [`Retire`] order), and not on the
//! per-link path.
//!
//! With `F` active flows on `R` resources (`R ≤ edges + 2·nodes`), one
//! recompute is `O(F + R log R)` and allocates nothing once the engine's scratch
//! tables have grown to the widest active set: resources are numbered through
//! epoch-stamped per-edge and per-node slots, a flow's resources are a fixed
//! triple, member lists are one CSR array, and candidate bottlenecks sit in a
//! min-heap keyed `(level, resource index)` with lazy invalidation — a freeze
//! pushes a fresh entry only for the other resources it charged.
//!
//! # Checks and cost
//!
//! Debug builds certify every recompute of either path as max-min fair
//! ([`certify_max_min`], without the kernels' tables) and hold every arrival
//! inside its link's window, and a seeded test in `event.rs` forces
//! progressive filling onto uncapped runs and compares every completion, busy
//! time and recompute count bit for bit.
//!
//! On the 27-node torus at 128 chunks (162 links, up to ~1.1k active flows)
//! an uncapped run costs about 7 µs per event synchronized and 5 µs
//! dependency-driven, the fixed per-run work (dependency extraction, job
//! resolution) included; the level refresh is ~0.1 µs of it. Under host caps
//! plus QP contention an event is 60–80 µs, most of it progressive filling
//! (`cargo bench -p a2a_bench --bench fair_share`, 2-core Xeon box).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;

use a2a_topology::EdgeId;

use crate::event::{ActiveFlow, OrdF64, Retire, SimJob};
use crate::SimParams;

// Observability taps (free while tracing is off; totals accumulate until
// `a2a_obs::reset`). Fair-share recomputes count rate recomputes, one per
// event on either path, and the histogram times each one.
static OBS_FAIR_SHARE_RECOMPUTES: a2a_obs::Counter =
    a2a_obs::Counter::new("simnet.fair_share_recomputes");
static OBS_FAIR_SHARE_NANOS: a2a_obs::Histogram =
    a2a_obs::Histogram::new("simnet.fair_share_nanos");

/// Marks an unused entry of a flow's resource triple.
const NO_RESOURCE: usize = usize::MAX;

/// Map from a dense key space to the resource index a key received in the
/// current fair-share pass. Starting a pass forgets every entry without
/// touching the tables (entries carry the number of the pass that wrote them).
struct SlotMap {
    pass: u64,
    written_in: Vec<u64>,
    slot: Vec<usize>,
}

impl SlotMap {
    fn new(keys: usize) -> Self {
        Self {
            pass: 0,
            written_in: vec![0; keys],
            slot: vec![0; keys],
        }
    }

    fn start_pass(&mut self) {
        self.pass += 1;
    }

    /// The resource index of `key` in this pass; a key seen for the first time
    /// takes `next` and reports `true`.
    fn get_or_insert(&mut self, key: usize, next: usize) -> (usize, bool) {
        let fresh = self.written_in[key] != self.pass;
        if fresh {
            self.written_in[key] = self.pass;
            self.slot[key] = next;
        }
        (self.slot[key], fresh)
    }
}

/// The fair-share kernel and its tables, owned by the event engine and reused
/// across events so that a recompute allocates nothing once the tables have
/// grown to the widest active set.
///
/// Resources are numbered exactly once per pass, in this order: finite links by
/// first appearance in the active list, then — under a host cap — each flow's
/// sender injection and receiver ejection resource, again by first appearance
/// walking the flows in order. The bottleneck rule (module docs) breaks level
/// ties by this index, so the numbering is part of the result.
pub(crate) struct FairShare {
    num_edges: usize,
    num_nodes: usize,
    /// Resource slots keyed `e` for link `e`, `num_edges + v` for injection at
    /// node `v` and `num_edges + num_nodes + v` for ejection at `v`.
    slots: SlotMap,
    /// Per resource: capacity not yet handed to a frozen flow.
    residual: Vec<f64>,
    /// Per resource: member flows not yet frozen.
    users: Vec<usize>,
    /// Per link resource (a prefix of the resource indices): its edge.
    link_edge: Vec<EdgeId>,
    /// CSR member lists: resource `r` owns `members[start[r]..start[r + 1]]`,
    /// flow indices ascending.
    start: Vec<usize>,
    members: Vec<usize>,
    /// Per flow: its link, injection and ejection resource ([`NO_RESOURCE`] for
    /// an infinite link or an absent host cap).
    flow_res: Vec<[usize; 3]>,
    /// Candidate bottlenecks, lowest `(level, resource index)` first. An entry
    /// is current iff its level still equals `residual / users` of its resource;
    /// a freeze pushes a fresh entry for every other resource it charged and
    /// leaves the outdated one behind to be skipped when it surfaces.
    heap: BinaryHeap<Reverse<(OrdF64, usize)>>,
    /// Resources charged by the freeze in progress, each once (`touched_in`
    /// holds the freeze number that last listed the resource).
    touched: Vec<usize>,
    touched_in: Vec<u64>,
    freezes: u64,
}

impl FairShare {
    pub(crate) fn new(num_edges: usize, num_nodes: usize) -> Self {
        Self {
            num_edges,
            num_nodes,
            slots: SlotMap::new(num_edges + 2 * num_nodes),
            residual: Vec::new(),
            users: Vec::new(),
            link_edge: Vec::new(),
            start: Vec::new(),
            members: Vec::new(),
            flow_res: Vec::new(),
            heap: BinaryHeap::new(),
            touched: Vec::new(),
            touched_in: Vec::new(),
            freezes: 0,
        }
    }

    /// Numbers the resources of this pass and fills `residual` (capacities),
    /// `users` (member counts), `flow_res` and the CSR member lists.
    fn build_tables(
        &mut self,
        jobs: &[SimJob],
        link_bw: &[f64],
        params: &SimParams,
        active: &[ActiveFlow],
    ) {
        self.slots.start_pass();
        self.residual.clear();
        self.users.clear();
        self.link_edge.clear();
        self.flow_res.clear();
        // Links (finite bandwidth only).
        for flow in active {
            let e = jobs[flow.job].link;
            let mut res = [NO_RESOURCE; 3];
            if !link_bw[e].is_infinite() {
                let (ri, fresh) = self.slots.get_or_insert(e, self.residual.len());
                if fresh {
                    self.residual.push(link_bw[e]);
                    self.users.push(0);
                    self.link_edge.push(e);
                }
                self.users[ri] += 1;
                res[0] = ri;
            }
            self.flow_res.push(res);
        }
        // QP contention shrinks a link's capacity by its concurrent-flow count.
        if let Some(qp) = params.qp_contention {
            for (ri, &e) in self.link_edge.iter().enumerate() {
                self.residual[ri] = link_bw[e] * qp.bandwidth_factor(self.users[ri]);
            }
        }
        // Host injection / ejection caps, one resource per involved node side.
        if let Some(gbps) = params.host_injection_gbps {
            let cap = gbps * 1e9;
            for (flow, res) in active.iter().zip(&mut self.flow_res) {
                let job = &jobs[flow.job];
                let sides = [
                    self.num_edges + job.src,
                    self.num_edges + self.num_nodes + job.dst,
                ];
                for (k, key) in sides.into_iter().enumerate() {
                    let (ri, fresh) = self.slots.get_or_insert(key, self.residual.len());
                    if fresh {
                        self.residual.push(cap);
                        self.users.push(0);
                    }
                    self.users[ri] += 1;
                    res[1 + k] = ri;
                }
            }
        }
        // Member lists: offsets from the counts, then one fill in flow order.
        // `users` doubles as the per-resource fill cursor and ends the fill
        // back at the member counts.
        let nr = self.residual.len();
        self.start.clear();
        self.start.push(0);
        for ri in 0..nr {
            self.start.push(self.start[ri] + self.users[ri]);
            self.users[ri] = 0;
        }
        self.members.clear();
        self.members.resize(self.start[nr], 0);
        for (fi, res) in self.flow_res.iter().enumerate() {
            for &ri in res.iter().filter(|&&ri| ri != NO_RESOURCE) {
                self.members[self.start[ri] + self.users[ri]] = fi;
                self.users[ri] += 1;
            }
        }
    }

    /// Max-min fair rates (bytes/s) for the active flows under link, injection
    /// and ejection capacities, written to `rates` (progressive filling; see the
    /// module docs for the bottleneck rule).
    pub(crate) fn assign_rates(
        &mut self,
        jobs: &[SimJob],
        link_bw: &[f64],
        params: &SimParams,
        active: &[ActiveFlow],
        rates: &mut Vec<f64>,
    ) {
        OBS_FAIR_SHARE_RECOMPUTES.incr();
        let recompute_timer = OBS_FAIR_SHARE_NANOS.start();
        self.build_tables(jobs, link_bw, params, active);
        let nr = self.residual.len();
        // A flow's rate is infinite until it is frozen at a (finite) level; a
        // flow that no finite resource constrains never is.
        rates.clear();
        rates.resize(active.len(), f64::INFINITY);
        // Freeze numbers only grow, so stamps of earlier passes never match.
        if self.touched_in.len() < nr {
            self.touched_in.resize(nr, 0);
        }
        self.heap.clear();
        for ri in 0..nr {
            let level = self.residual[ri] / self.users[ri] as f64;
            self.heap.push(Reverse((OrdF64(level), ri)));
        }
        let mut unfrozen = active.len();
        while unfrozen > 0 {
            let Some(Reverse((OrdF64(level), ri))) = self.heap.pop() else {
                break;
            };
            if self.users[ri] == 0
                || (self.residual[ri] / self.users[ri] as f64).to_bits() != level.to_bits()
            {
                continue;
            }
            // Freeze the bottleneck resource's flows at the fair level and charge
            // their share to every resource they touch.
            debug_assert!(level.is_finite(), "capacities are finite");
            self.freezes += 1;
            for &fi in &self.members[self.start[ri]..self.start[ri + 1]] {
                if rates[fi].is_finite() {
                    continue;
                }
                unfrozen -= 1;
                rates[fi] = level;
                for &rj in self.flow_res[fi].iter().filter(|&&rj| rj != NO_RESOURCE) {
                    self.residual[rj] = (self.residual[rj] - level).max(0.0);
                    self.users[rj] -= 1;
                    if rj != ri && self.touched_in[rj] != self.freezes {
                        self.touched_in[rj] = self.freezes;
                        self.touched.push(rj);
                    }
                }
            }
            for rj in self.touched.drain(..) {
                if self.users[rj] > 0 {
                    let level = self.residual[rj] / self.users[rj] as f64;
                    self.heap.push(Reverse((OrdF64(level), rj)));
                }
            }
        }
        drop(recompute_timer);
        #[cfg(debug_assertions)]
        certify_max_min(jobs, link_bw, self.num_nodes, params, active, rates);
    }
}

/// The max-min certificate of one recompute, checked without any of the
/// kernel's tables (debug builds only): no resource carries more than its
/// capacity, and every flow either touches no finite resource (infinite rate)
/// or sits on a saturated resource none of whose members runs faster — the
/// bottleneck condition that characterises the max-min fair allocation.
#[cfg(debug_assertions)]
pub(crate) fn certify_max_min(
    jobs: &[SimJob],
    link_bw: &[f64],
    num_nodes: usize,
    params: &SimParams,
    active: &[ActiveFlow],
    rates: &[f64],
) {
    #[derive(Clone, Copy, Default)]
    struct Load {
        capacity: f64,
        members: usize,
        sum: f64,
        max: f64,
    }
    // Links, then injection sides, then ejection sides.
    let num_edges = link_bw.len();
    let resources_of = |flow: &ActiveFlow| {
        let job = &jobs[flow.job];
        let link = (!link_bw[job.link].is_infinite()).then_some(job.link);
        let host = params.host_injection_gbps.is_some();
        let send = host.then_some(num_edges + job.src);
        let recv = host.then_some(num_edges + num_nodes + job.dst);
        [link, send, recv].into_iter().flatten()
    };
    let mut loads = vec![Load::default(); num_edges + 2 * num_nodes];
    for (flow, &rate) in active.iter().zip(rates) {
        for r in resources_of(flow) {
            loads[r].members += 1;
            loads[r].sum += rate;
            loads[r].max = loads[r].max.max(rate);
        }
    }
    let host_capacity = params
        .host_injection_gbps
        .map_or(f64::INFINITY, |gbps| gbps * 1e9);
    for (r, load) in loads.iter_mut().enumerate() {
        load.capacity = if r < num_edges {
            let qp = params.qp_contention;
            link_bw[r] * qp.map_or(1.0, |qp| qp.bandwidth_factor(load.members))
        } else {
            host_capacity
        };
        assert!(
            load.members == 0 || load.sum <= load.capacity * (1.0 + 1e-12),
            "resource {r} carries {} B/s over its capacity {}",
            load.sum,
            load.capacity
        );
    }
    for (fi, (flow, &rate)) in active.iter().zip(rates).enumerate() {
        let mut constrained = false;
        let mut bottlenecked = false;
        for load in resources_of(flow).map(|r| &loads[r]) {
            constrained = true;
            bottlenecked |=
                load.sum >= load.capacity * (1.0 - 1e-9) && rate >= load.max * (1.0 - 1e-9);
        }
        assert!(
            if constrained {
                rate.is_finite() && bottlenecked
            } else {
                rate == f64::INFINITY
            },
            "flow {fi} (job {}) at {rate} B/s has no bottleneck resource",
            flow.job
        );
    }
}

/// The per-event path under a host cap, where one flow's rate can depend on
/// flows of other links: progressive filling into per-flow rates, the drain
/// search over every flow, then an advance pass and a retirement pass.
pub(crate) struct Progressive {
    fair: FairShare,
    /// The active flows, in the order the resource numbering walks them.
    active: Vec<ActiveFlow>,
    rates: Vec<f64>,
    /// Per edge: the advance that last charged the link busy time, so that a
    /// link is charged once per event however many flows it carries.
    link_seen: Vec<u64>,
    seen_epoch: u64,
}

impl Progressive {
    pub(crate) fn new(num_edges: usize, num_nodes: usize) -> Self {
        Self {
            fair: FairShare::new(num_edges, num_nodes),
            active: Vec::new(),
            rates: Vec::new(),
            link_seen: vec![0; num_edges],
            seen_epoch: 0,
        }
    }

    /// `job` starts a flow of its whole byte volume, last in the active order.
    pub(crate) fn arrive(&mut self, job: usize, bytes: f64) {
        self.active.push(ActiveFlow {
            job,
            remaining: bytes,
        });
    }

    /// The number of active flows.
    pub(crate) fn flows(&self) -> usize {
        self.active.len()
    }

    /// Whether an active flow runs on a link flagged in `failed`.
    pub(crate) fn uses_any(&self, jobs: &[SimJob], failed: &[bool]) -> bool {
        self.active.iter().any(|flow| failed[jobs[flow.job].link])
    }

    /// The remaining bytes of `job`'s flow, 0 once it drained.
    pub(crate) fn remaining_of(&self, job: usize) -> f64 {
        self.active
            .iter()
            .find(|flow| flow.job == job)
            .map_or(0.0, |flow| flow.remaining)
    }

    /// One recompute: the active flows' max-min rates, and the time until the
    /// first of them drains.
    pub(crate) fn drain_time(
        &mut self,
        jobs: &[SimJob],
        link_bw: &[f64],
        params: &SimParams,
    ) -> f64 {
        let active = &self.active;
        self.fair
            .assign_rates(jobs, link_bw, params, active, &mut self.rates);
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

    /// Advances every active flow by `dt` seconds at its rate, charges `dt` of
    /// busy time to every link that carries one, then retires the drained
    /// flows in `retire` order (the order of the survivors is the next
    /// recompute's resource numbering), handing each job to `done`.
    pub(crate) fn advance(
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

/// The per-event path with no host cap, where a flow's only finite resource
/// is its link: each link splits its capacity evenly among its flows (module
/// docs, "Per link", for why this, its drain search and its retirement order
/// are exact).
///
/// The active flows live in flat arrays, one fixed window per link: link `e`
/// owns the slots `start[e]..start[e + 1]`, one per job of the run on the
/// link, and its flows fill the first `len[e]` of them. Every job arrives
/// once, so no window overflows.
pub(crate) struct LinkShare {
    start: Vec<usize>,
    len: Vec<usize>,
    /// Per slot: the flow's remaining bytes, its drain threshold and its job.
    remaining: Vec<f64>,
    threshold: Vec<f64>,
    job: Vec<usize>,
    /// Active flows over all links.
    flows: usize,
    /// The links with flows, in no particular order.
    live: Vec<EdgeId>,
    /// Per edge: the rate of each of its flows, `link_bw · qp(n) / n` for `n`
    /// flows (`+inf` on an infinite link). Current for every live link once
    /// `stale` has been refreshed.
    level: Vec<f64>,
    /// Per edge: the least remaining bytes among its flows (live links only),
    /// kept by arrivals and rebuilt by every advance for the next drain search.
    least: Vec<f64>,
    /// Links whose flow count or bandwidth changed since the last recompute,
    /// each listed once (`is_stale`).
    stale: Vec<EdgeId>,
    is_stale: Vec<bool>,
}

impl LinkShare {
    /// Sizes each link's window from the run's jobs.
    pub(crate) fn new(num_edges: usize, jobs: &[SimJob]) -> Self {
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

    /// `job` (with id `id`) starts a flow of its whole byte volume.
    pub(crate) fn arrive(&mut self, id: usize, job: &SimJob) {
        let e = job.link;
        let slot = self.start[e] + self.len[e];
        debug_assert!(
            slot < self.start[e + 1],
            "link {e} holds more flows than its window has jobs"
        );
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

    /// The number of active flows.
    pub(crate) fn flows(&self) -> usize {
        self.flows
    }

    /// Whether an active flow runs on a link flagged in `failed`.
    pub(crate) fn uses_any(&self, failed: &[bool]) -> bool {
        self.live.iter().any(|&e| failed[e])
    }

    /// The slots of link `e`'s active flows.
    fn window(&self, e: EdgeId) -> Range<usize> {
        self.start[e]..self.start[e] + self.len[e]
    }

    /// The remaining bytes of `job`'s flow on link `e`, 0 once it drained.
    pub(crate) fn remaining_of(&self, job: usize, e: EdgeId) -> f64 {
        self.window(e)
            .find(|&i| self.job[i] == job)
            .map_or(0.0, |i| self.remaining[i])
    }

    /// The link bandwidths change from `old` to `new`.
    pub(crate) fn rerate(&mut self, old: &[f64], new: &[f64]) {
        for (e, (a, b)) in old.iter().zip(new).enumerate() {
            if a.to_bits() != b.to_bits() && self.len[e] > 0 {
                self.mark_stale(e);
            }
        }
    }

    /// One recompute: refreshes the stale levels and returns the time until
    /// the first active flow drains, one division per link with flows.
    /// (`jobs` is read only by the debug certificate.)
    #[cfg_attr(not(debug_assertions), allow(unused_variables))]
    pub(crate) fn drain_time(
        &mut self,
        jobs: &[SimJob],
        link_bw: &[f64],
        params: &SimParams,
    ) -> f64 {
        debug_assert!(params.host_injection_gbps.is_none());
        OBS_FAIR_SHARE_RECOMPUTES.incr();
        let recompute_timer = OBS_FAIR_SHARE_NANOS.start();
        for e in self.stale.drain(..) {
            self.is_stale[e] = false;
            let n = self.len[e];
            if n > 0 {
                self.level[e] = link_level(link_bw[e], params, n);
            }
        }
        drop(recompute_timer);
        #[cfg(debug_assertions)]
        {
            let (mut active, mut rates) = (Vec::new(), Vec::new());
            for &e in &self.live {
                for i in self.window(e) {
                    active.push(ActiveFlow {
                        job: self.job[i],
                        remaining: self.remaining[i],
                    });
                    rates.push(self.level[e]);
                }
            }
            // No host cap, so no node-side resource to size.
            certify_max_min(jobs, link_bw, 0, params, &active, &rates);
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

    /// Advances every active flow by `dt` seconds at its link's level, charges
    /// `dt` of busy time to every link that carries one, and retires the
    /// drained flows, handing each job to `done`: one pass per live link over
    /// its window, and a second, compacting one only where a flow drained.
    pub(crate) fn advance(&mut self, dt: f64, link_busy: &mut [f64], mut done: impl FnMut(usize)) {
        let mut kept_links = 0;
        for li in 0..self.live.len() {
            let e = self.live[li];
            if dt > 0.0 {
                link_busy[e] += dt;
            }
            let window = self.window(e);
            let level = self.level[e];
            let mut least = f64::INFINITY;
            // An infinite rate drains every flow within the event.
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

/// The rate of each of `n` flows on a link of bandwidth `bw` when the link is
/// their only resource, computed as progressive filling computes it.
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

/// One job per directed link of `topo`, so that an active set is a list of
/// link ids (repeats allowed).
#[cfg(test)]
pub(crate) fn one_job_per_link(topo: &a2a_topology::Topology) -> Vec<SimJob> {
    (0..topo.num_edges())
        .map(|e| SimJob {
            link: e,
            src: topo.edge(e).src,
            dst: topo.edge(e).dst,
            bytes: 1.0,
            step: 0,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use a2a_topology::generators;

    /// Progressive filling written the obvious way — tables rebuilt from
    /// scratch, the bottleneck found by a linear scan with a strict `<` — as the
    /// engine ran it before [`FairShare`], verbatim but for taking its inputs as
    /// arguments: the reference [`FairShare::assign_rates`] must match bit for bit.
    fn assign_rates_reference(
        jobs: &[SimJob],
        link_bw: &[f64],
        params: &SimParams,
        num_nodes: usize,
        active: &[ActiveFlow],
    ) -> Vec<f64> {
        let nf = active.len();
        // Resource table: capacity, the flows using each resource, and (for the O(1)
        // freeze update) each flow's own resource list — a flow touches at most
        // three resources: its link, its sender's injection cap, its receiver's
        // ejection cap.
        let mut caps: Vec<f64> = Vec::new();
        let mut members: Vec<Vec<usize>> = Vec::new();
        let mut flow_res: Vec<Vec<usize>> = vec![Vec::with_capacity(3); nf];
        {
            // Links (finite bandwidth only; QP contention shrinks the capacity by the
            // concurrent-flow count).
            let mut link_res: std::collections::HashMap<EdgeId, usize> =
                std::collections::HashMap::new();
            for (fi, flow) in active.iter().enumerate() {
                let e = jobs[flow.job].link;
                if link_bw[e].is_infinite() {
                    continue;
                }
                let ri = *link_res.entry(e).or_insert_with(|| {
                    caps.push(link_bw[e]);
                    members.push(Vec::new());
                    caps.len() - 1
                });
                members[ri].push(fi);
                flow_res[fi].push(ri);
            }
            if let Some(qp) = params.qp_contention {
                for (&e, &ri) in &link_res {
                    caps[ri] = link_bw[e] * qp.bandwidth_factor(members[ri].len());
                }
            }
            // Host injection / ejection caps, one resource per involved node side.
            if let Some(gbps) = params.host_injection_gbps {
                let cap = gbps * 1e9;
                let mut send_res = vec![usize::MAX; num_nodes];
                let mut recv_res = vec![usize::MAX; num_nodes];
                for (fi, flow) in active.iter().enumerate() {
                    let job = &jobs[flow.job];
                    for (node, table) in [(job.src, &mut send_res), (job.dst, &mut recv_res)] {
                        if table[node] == usize::MAX {
                            table[node] = caps.len();
                            caps.push(cap);
                            members.push(Vec::new());
                        }
                        members[table[node]].push(fi);
                        flow_res[fi].push(table[node]);
                    }
                }
            }
        }

        let mut rate = vec![0.0f64; nf];
        let mut frozen = vec![false; nf];
        let mut residual = caps;
        let mut users: Vec<usize> = members.iter().map(Vec::len).collect();
        let mut unfrozen = nf;
        while unfrozen > 0 {
            let mut best: Option<(f64, usize)> = None;
            for (ri, &u) in users.iter().enumerate() {
                if u == 0 {
                    continue;
                }
                let level = residual[ri] / u as f64;
                if best.is_none_or(|(b, _)| level < b) {
                    best = Some((level, ri));
                }
            }
            let Some((level, ri)) = best else {
                // No finite resource constrains the survivors.
                for (fi, r) in rate.iter_mut().enumerate() {
                    if !frozen[fi] {
                        *r = f64::INFINITY;
                    }
                }
                break;
            };
            // Freeze the bottleneck resource's flows at the fair level and charge
            // their share to every resource they touch.
            for fi in members[ri].clone() {
                if frozen[fi] {
                    continue;
                }
                frozen[fi] = true;
                unfrozen -= 1;
                rate[fi] = level;
                for &rj in &flow_res[fi] {
                    residual[rj] = (residual[rj] - level).max(0.0);
                    users[rj] -= 1;
                }
            }
        }
        rate
    }

    #[test]
    fn fair_share_kernel_matches_the_reference_bit_for_bit() {
        use rand::{Rng, SeedableRng};
        let topo = generators::torus(&[3, 3, 3]);
        let jobs = one_job_per_link(&topo);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(15);
        // One scratch across all passes: stale slots and heap entries of an
        // earlier, wider pass must never leak into a later one.
        let mut fair = FairShare::new(topo.num_edges(), topo.num_nodes());
        let mut rates = Vec::new();
        let mut unconstrained = 0usize;
        for round in 0..300 {
            // A few distinct bandwidths, so that levels tie across resources;
            // one link in ten is infinitely fast.
            let link_bw: Vec<f64> = (0..topo.num_edges())
                .map(|_| match rng.random_range(0..10) {
                    0 => f64::INFINITY,
                    1..=4 => 3.125e9,
                    5..=6 => 1.5625e9,
                    _ => 1e9 * (0.5 + 3.0 * rng.random_f64()),
                })
                .collect();
            let flows = if round % 5 == 0 {
                rng.random_range(1..9)
            } else {
                rng.random_range(1..801)
            };
            // Narrow sets draw from a few links only, so links repeat at every width.
            let span = rng.random_range(1..topo.num_edges() + 1);
            let active: Vec<ActiveFlow> = (0..flows)
                .map(|_| ActiveFlow {
                    job: rng.random_range(0..span),
                    remaining: 1.0,
                })
                .collect();
            let host = Some(0.5 + 12.0 * rng.random_f64());
            let qp = Some(crate::QpContention {
                free_flows_per_link: rng.random_range(0..9),
                penalty_per_flow: 0.5 * rng.random_f64(),
            });
            for (host_injection_gbps, qp_contention) in
                [(None, None), (host, None), (None, qp), (host, qp)]
            {
                let params = SimParams {
                    host_injection_gbps,
                    qp_contention,
                    ..SimParams::default()
                };
                let expected =
                    assign_rates_reference(&jobs, &link_bw, &params, topo.num_nodes(), &active);
                fair.assign_rates(&jobs, &link_bw, &params, &active, &mut rates);
                let bits = |r: &[f64]| r.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
                assert_eq!(
                    bits(&rates),
                    bits(&expected),
                    "round {round}, {flows} flows, host {host_injection_gbps:?}, qp {qp_contention:?}"
                );
                unconstrained += rates.iter().filter(|r| r.is_infinite()).count();
            }
        }
        assert!(
            unconstrained > 0,
            "no flow ran on an infinite link uncapped"
        );
    }
}
