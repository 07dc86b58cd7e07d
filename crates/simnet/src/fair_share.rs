//! The event engine's max-min fair-share kernels and its byte ledger.
//!
//! Between two events every active flow of [`crate::event`] drains at a
//! constant rate: the max-min fair share over the finite resources it touches
//! (its link, and under a host cap its sender's injection and its receiver's
//! ejection side). Each event makes one recompute of these rates, by one of
//! two kernels the data picks. The kernels only produce rates. Everything else
//! an event does (bytes, the next drain, retirement, busy time, the bytes of a
//! cut job) is one [`Ledger`]'s.
//!
//! # The ledger
//!
//! A flow's bytes are stored as `b` at a mark time `t_m`, and at time `t` it
//! has `b − r·(t − t_m)` left at its rate `r`. They are re-marked
//! (`b ← b − r·(t − t_m)` clamped at 0, `t_m ← t`) only when the bit pattern
//! of the rate changes: after an arrival or retirement on the flow's link, a
//! timeline rerate, or a progressive recompute that moves it. A flow whose
//! rate did not change costs an event nothing. This is the per-link virtual
//! time of generalized processor sharing (Parekh & Gallager, *IEEE/ACM ToN*
//! 1(3), 1993).
//!
//! Each link keeps its flows in a window of one flat array, sized when the
//! engine is built from how many of the run's jobs use the link; every job
//! arrives once, so no window overflows. Two keys per link are refreshed only
//! for links whose flows changed:
//!
//! * *drain*: when the first of the link's flows empties, the least
//!   `t_m + b / r` over them. The least over links is the next drain event.
//! * *ready*: when the first of them reaches its drain threshold (a relative
//!   byte tolerance for round-off). These are the links a retirement check
//!   visits.
//!
//! Each key lives in a min-tournament over links ([`LinkKeys`]): the least key
//! is its root, a changed link walks one leaf-to-root path and stops at the
//! first node it leaves unchanged, and the links due by `t` come out of one
//! descent. While a link's flows share one mark and rate, as they always do on
//! the per-link path, its keys take one division each: `t_m + min(b) / r` is
//! the least `t_m + b / r` bit for bit, because rounded division and addition
//! are monotone.
//!
//! At an event at time `t` a flow retires when it reaches its drain threshold
//! by `t`: `t_m + (b − threshold) / r ≤ t`, the predicate "bytes left at or
//! below the threshold" solved for the time. It is the *ready* key's own
//! expression, so the links the keys name hold every flow it retires, and
//! drains that coincide up to round-off on different links retire at one
//! event. A flow reaches its threshold no later than it empties (the
//! expression is monotone in the bytes), so the first drain's link is visited
//! and its first flow retires: every drain event retires at least one flow,
//! and the dependency-driven loop keeps its `2n + 1` event bound. The clock is
//! the run loop's absolute `t`, not a sum of event lengths. Busy time is
//! charged per link when its last flow retires: `t` minus the time its first
//! flow arrived.
//!
//! A link's window holds its flows in arrival order, except that a retired
//! flow's slot goes to the link's last flow. Progressive filling walks the
//! windows link by link in that order, which is the only list of active flows;
//! the per-link levels depend on member counts only. Busy time and step
//! completions are per-link sums and maxima. The dependency-driven ready queue
//! is keyed by unique `(time, job)` pairs, so the order in which a retirement
//! readies successors does not decide the order they start in.
//!
//! **Why the kernels stay bit-equal.** On an uncapped run both kernels give
//! every flow the same rate bits (below). So a rate's bit pattern changes
//! under one kernel exactly when it does under the other. The ledger then
//! re-marks the same flows at the same clock, and everything it computes from
//! there is shared code.
//!
//! # Per link, with no host cap ([`LinkShare`])
//!
//! A flow's only finite resource is then its link, so the max-min share is
//! each link's even split `link_bw · qp(n) / n` over its `n` flows (`qp` the
//! [`QpContention`](crate::QpContention) factor, 1 without it; `+inf` on an
//! infinite link). It is the level progressive filling would freeze the link
//! at, bit for bit: the first pass computes `capacity / n` for every link, and
//! since no flow of another link touches this one, no freeze charges it before
//! its own. The kernel keeps no state: it recomputes the level of the links
//! the ledger lists as changed (a flow arrived or retired, or the bandwidth
//! changed) from their member counts, and hands it to each flow of the link.
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
//! here, and it is the ledger's: ascending link, each link's window in order
//! (above). On the per-link path it is not.
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
//! Debug builds certify every recompute of either kernel as max-min fair
//! ([`certify_max_min`], without the kernels' tables), hold every arrival
//! inside its link's window and check that every drain event retires a flow.
//! Seeded tests in `event.rs` force progressive filling onto uncapped runs and
//! compare every completion, busy time, cut and recompute count bit for bit.
//! They also hold the engine to the eager engine it replaced, kept in the
//! tests (`event/eager.rs`): times within 1e-12 of the run's completion, cut
//! bytes within 1e-12 of the job's bytes, recompute counts within 0.5 %.
//!
//! On the 27-node torus at 128 chunks (162 links, up to ~1.1k active flows)
//! an uncapped run costs about 1.8 µs per event synchronized and 0.7 µs
//! dependency-driven, the fixed per-run work (dependency extraction, job
//! resolution) included; the level refresh is ~0.1 µs of it. Under host caps
//! plus QP contention an event is 60–80 µs, most of it progressive filling,
//! which moves most rates at every event, so there the ledger re-marks most
//! flows (`cargo bench -p a2a_bench --bench fair_share`, 2-core box).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;

use a2a_topology::EdgeId;

use crate::event::{OrdF64, SimJob};
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
        active: &[usize],
    ) {
        self.slots.start_pass();
        self.residual.clear();
        self.users.clear();
        self.link_edge.clear();
        self.flow_res.clear();
        // Links (finite bandwidth only).
        for &job in active {
            let e = jobs[job].link;
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
            for (&job, res) in active.iter().zip(&mut self.flow_res) {
                let job = &jobs[job];
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

    /// Max-min fair rates (bytes/s) for the flows of the `active` jobs under
    /// link, injection and ejection capacities, written to `rates` (progressive
    /// filling; see the module docs for the bottleneck rule).
    pub(crate) fn assign_rates(
        &mut self,
        jobs: &[SimJob],
        link_bw: &[f64],
        params: &SimParams,
        active: &[usize],
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
    active: &[usize],
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
    let resources_of = |job: usize| {
        let job = &jobs[job];
        let link = (!link_bw[job.link].is_infinite()).then_some(job.link);
        let host = params.host_injection_gbps.is_some();
        let send = host.then_some(num_edges + job.src);
        let recv = host.then_some(num_edges + num_nodes + job.dst);
        [link, send, recv].into_iter().flatten()
    };
    let mut loads = vec![Load::default(); num_edges + 2 * num_nodes];
    for (&job, &rate) in active.iter().zip(rates) {
        for r in resources_of(job) {
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
    for (fi, (&job, &rate)) in active.iter().zip(rates).enumerate() {
        let mut constrained = false;
        let mut bottlenecked = false;
        for load in resources_of(job).map(|r| &loads[r]) {
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
            "flow {fi} (job {job}) at {rate} B/s has no bottleneck resource"
        );
    }
}

/// The rates under a host cap, where one flow's rate can depend on flows of
/// other links: progressive filling over the active flows, in the order the
/// ledger's windows list them.
pub(crate) struct Progressive {
    /// Boxed: the tables are large beside the per-link kernel, which has none.
    fair: Box<FairShare>,
    /// Scratch, refilled at each recompute: the active jobs, then their rates.
    jobs: Vec<usize>,
    rates: Vec<f64>,
}

impl Progressive {
    pub(crate) fn new(num_edges: usize, num_nodes: usize) -> Self {
        Self {
            fair: Box::new(FairShare::new(num_edges, num_nodes)),
            jobs: Vec::new(),
            rates: Vec::new(),
        }
    }

    /// One recompute at time `t`: every active flow's max-min rate, handed to
    /// the ledger.
    pub(crate) fn rates(
        &mut self,
        ledger: &mut Ledger,
        jobs: &[SimJob],
        link_bw: &[f64],
        params: &SimParams,
        t: f64,
    ) {
        ledger.active_jobs(&mut self.jobs);
        self.fair
            .assign_rates(jobs, link_bw, params, &self.jobs, &mut self.rates);
        for (&job, &rate) in self.jobs.iter().zip(&self.rates) {
            ledger.set_rate(job, rate, t);
        }
    }
}

/// The rates with no host cap, where a flow's only finite resource is its
/// link: each link splits its capacity evenly among its flows (module docs,
/// "Per link"). It keeps no state: the ledger says which links changed and
/// how many flows each carries.
pub(crate) struct LinkShare;

impl LinkShare {
    /// One recompute at time `t`: the level of every link whose flows or
    /// bandwidth changed since the last one, handed to the ledger. (`jobs` is
    /// read only by the debug certificate.)
    #[cfg_attr(not(debug_assertions), allow(unused_variables))]
    pub(crate) fn rates(
        &self,
        ledger: &mut Ledger,
        jobs: &[SimJob],
        link_bw: &[f64],
        params: &SimParams,
        t: f64,
    ) {
        debug_assert!(params.host_injection_gbps.is_none());
        OBS_FAIR_SHARE_RECOMPUTES.incr();
        let recompute_timer = OBS_FAIR_SHARE_NANOS.start();
        // Handing a link its level marks it changed, which it already is, so
        // the list does not grow under the loop.
        for i in 0..ledger.changed.len() {
            let e = ledger.changed[i];
            let n = ledger.len[e];
            if n > 0 {
                ledger.rate_link(e, link_level(link_bw[e], params, n), t);
            }
        }
        drop(recompute_timer);
        #[cfg(debug_assertions)]
        {
            let mut active = Vec::new();
            ledger.active_jobs(&mut active);
            let rates: Vec<f64> = active.iter().map(|&job| ledger.rate[job]).collect();
            // No host cap, so no node-side resource to size.
            certify_max_min(jobs, link_bw, 0, params, &active, &rates);
        }
    }
}

/// The bytes of every active flow, for both rate kernels (module docs, "The
/// ledger"). A flow's bytes are stored as `bytes` at its mark time and drain
/// at `rate` from there; they are re-marked only when the rate's bit pattern
/// changes. The ledger answers the drain search, retires flows, charges busy
/// time and answers for the bytes of a cut job.
///
/// Each link keeps its flows in a fixed window of `members`: link `e` owns the
/// slots `start[e]..start[e + 1]`, one per job of the run on the link, and its
/// flows fill the first `len[e]` of them. Every job arrives once, so no window
/// overflows.
pub(crate) struct Ledger {
    /// Per job: bytes left at the mark, the mark's time, the rate since the
    /// mark (NaN until the first recompute after arrival), the drain
    /// threshold, the link, and whether the job has a flow.
    bytes: Vec<f64>,
    mark: Vec<f64>,
    rate: Vec<f64>,
    threshold: Vec<f64>,
    link: Vec<EdgeId>,
    active: Vec<bool>,
    start: Vec<usize>,
    len: Vec<usize>,
    members: Vec<usize>,
    /// Active flows over all links.
    flows: usize,
    /// Per link: when the first of its flows empties.
    drains: LinkKeys,
    /// Per link: when the first of its flows reaches its drain threshold; the
    /// links a retirement check must visit.
    ready: LinkKeys,
    /// Links whose flows arrived, retired or were re-marked, or whose
    /// bandwidth changed, since the keys were last refreshed (each once).
    changed: Vec<EdgeId>,
    is_changed: Vec<bool>,
    /// Per link: when its current busy period began, and its busy time so far.
    busy_since: Vec<f64>,
    busy: Vec<f64>,
    /// The earliest drain at the last refresh.
    next_drain: f64,
    /// Scratch: the links a retirement check visits.
    visit: Vec<EdgeId>,
}

impl Ledger {
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
            bytes: jobs.iter().map(|job| job.bytes).collect(),
            mark: vec![0.0; jobs.len()],
            rate: vec![f64::NAN; jobs.len()],
            threshold: jobs.iter().map(SimJob::drain_threshold).collect(),
            link: jobs.iter().map(|job| job.link).collect(),
            active: vec![false; jobs.len()],
            start,
            len: vec![0; num_edges],
            members: vec![0; jobs.len()],
            flows: 0,
            drains: LinkKeys::new(num_edges),
            ready: LinkKeys::new(num_edges),
            changed: Vec::new(),
            is_changed: vec![false; num_edges],
            busy_since: vec![0.0; num_edges],
            busy: vec![0.0; num_edges],
            next_drain: f64::INFINITY,
            visit: Vec::new(),
        }
    }

    /// Link `e`'s flows or bandwidth changed: its keys are refreshed, and the
    /// per-link kernel recomputes its level, before the next drain search.
    pub(crate) fn touch(&mut self, e: EdgeId) {
        if !self.is_changed[e] {
            self.is_changed[e] = true;
            self.changed.push(e);
        }
    }

    /// `job` starts a flow of its whole byte volume at time `t`.
    pub(crate) fn arrive(&mut self, job: usize, t: f64) {
        let e = self.link[job];
        let slot = self.start[e] + self.len[e];
        debug_assert!(
            slot < self.start[e + 1],
            "link {e} holds more flows than its window has jobs"
        );
        if self.len[e] == 0 {
            self.busy_since[e] = t;
        }
        self.members[slot] = job;
        self.active[job] = true;
        self.mark[job] = t;
        self.len[e] += 1;
        self.flows += 1;
        self.touch(e);
    }

    /// The number of active flows.
    pub(crate) fn flows(&self) -> usize {
        self.flows
    }

    /// Replaces `out` with the active jobs, link by link in window order.
    fn active_jobs(&self, out: &mut Vec<usize>) {
        out.clear();
        for e in 0..self.len.len() {
            out.extend_from_slice(&self.members[self.window(e)]);
        }
    }

    /// Whether an active flow runs on a link flagged in `failed`.
    pub(crate) fn uses_any(&self, failed: &[bool]) -> bool {
        failed.iter().zip(&self.len).any(|(&f, &n)| f && n > 0)
    }

    /// The slots of link `e`'s flows.
    fn window(&self, e: EdgeId) -> Range<usize> {
        self.start[e]..self.start[e] + self.len[e]
    }

    /// The bytes `job`'s flow has left at time `t`, evaluated from its mark.
    fn left(&self, job: usize, t: f64) -> f64 {
        let rate = self.rate[job];
        if rate.is_nan() {
            self.bytes[job]
        } else if rate.is_infinite() {
            0.0
        } else {
            (self.bytes[job] - rate * (t - self.mark[job])).max(0.0)
        }
    }

    /// The remaining bytes of `job`'s flow at time `t`, 0 once it drained.
    pub(crate) fn remaining_of(&self, job: usize, t: f64) -> f64 {
        if self.active[job] {
            self.left(job, t)
        } else {
            0.0
        }
    }

    /// `job`'s flow runs at `rate` from time `t` on; its bytes are re-marked
    /// at `t` if the rate's bit pattern changed.
    pub(crate) fn set_rate(&mut self, job: usize, rate: f64, t: f64) {
        if rate.to_bits() != self.rate[job].to_bits() {
            self.bytes[job] = self.left(job, t);
            self.mark[job] = t;
            self.rate[job] = rate;
            self.touch(self.link[job]);
        }
    }

    /// Every flow of link `e` runs at `rate` from time `t` on.
    fn rate_link(&mut self, e: EdgeId, rate: f64, t: f64) {
        for i in self.window(e) {
            self.set_rate(self.members[i], rate, t);
        }
    }

    /// When `job`'s flow empties, at its current rate.
    fn due(&self, job: usize) -> f64 {
        after(self.mark[job], self.rate[job], self.bytes[job])
    }

    /// When `job`'s flow reaches its drain threshold, at its current rate: the
    /// retirement predicate, and the expression of the *ready* keys.
    fn ready(&self, job: usize) -> f64 {
        after(
            self.mark[job],
            self.rate[job],
            self.bytes[job] - self.threshold[job],
        )
    }

    /// Refreshes link `e`'s *drain* and *ready* keys (`+inf` with no flow).
    fn refresh(&mut self, e: EdgeId) {
        let window = &self.members[self.window(e)];
        let (drain, ready) = match window.first() {
            None => (f64::INFINITY, f64::INFINITY),
            Some(&first) => self.keys(window, first),
        };
        self.drains.set(e, drain);
        self.ready.set(e, ready);
    }

    /// The *drain* and *ready* keys of the flows in `window`, `first` among
    /// them: one division each while they share a mark and rate (module docs).
    fn keys(&self, window: &[usize], first: usize) -> (f64, f64) {
        let (mark, rate) = (self.mark[first], self.rate[first]);
        let (mut least, mut least_slack, mut shared) = (f64::INFINITY, f64::INFINITY, true);
        for &job in window {
            shared &= self.mark[job].to_bits() == mark.to_bits()
                && self.rate[job].to_bits() == rate.to_bits();
            least = least.min(self.bytes[job]);
            least_slack = least_slack.min(self.bytes[job] - self.threshold[job]);
        }
        if shared {
            (after(mark, rate, least), after(mark, rate, least_slack))
        } else {
            window
                .iter()
                .fold((f64::INFINITY, f64::INFINITY), |(d, r), &job| {
                    (d.min(self.due(job)), r.min(self.ready(job)))
                })
        }
    }

    /// Refreshes the keys of the changed links and returns the time at which
    /// the first active flow empties (`+inf` with no flow).
    pub(crate) fn next_drain(&mut self) -> f64 {
        for i in 0..self.changed.len() {
            let e = self.changed[i];
            self.is_changed[e] = false;
            self.refresh(e);
        }
        self.changed.clear();
        self.next_drain = self.drains.min();
        self.next_drain
    }

    /// Moves the clock to `t` (no earlier than the last recompute): retires
    /// every flow that reaches its drain threshold by `t`, visiting only the
    /// links the `ready` keys name, closes the busy period of every link left
    /// idle, and hands each retired job to `done`.
    pub(crate) fn settle(&mut self, t: f64, mut done: impl FnMut(usize)) {
        let mut retired = 0;
        self.ready.collect_at_most(t, 1, &mut self.visit);
        for vi in 0..self.visit.len() {
            let e = self.visit[vi];
            let (mut i, mut end) = (self.start[e], self.start[e] + self.len[e]);
            while i < end {
                let job = self.members[i];
                if self.ready(job) <= t {
                    end -= 1;
                    self.members[i] = self.members[end];
                    self.active[job] = false;
                    retired += 1;
                    done(job);
                } else {
                    i += 1;
                }
            }
            let kept = end - self.start[e];
            if kept == 0 && self.len[e] > 0 {
                self.busy[e] += t - self.busy_since[e];
            }
            self.flows -= self.len[e] - kept;
            self.len[e] = kept;
            self.touch(e);
        }
        self.visit.clear();
        // The first drain's link has its `ready` key at or before its drain,
        // and its first flow reaches its threshold by then.
        debug_assert!(
            t < self.next_drain || retired > 0,
            "a drain event at {t} retired no flow"
        );
        self.next_drain = f64::INFINITY;
    }

    /// Every link's busy time, once the last flow has retired.
    pub(crate) fn take_busy(&mut self) -> Vec<f64> {
        debug_assert_eq!(self.flows, 0);
        std::mem::take(&mut self.busy)
    }
}

/// When a flow marked at `mark` with `bytes` over a threshold (or left)
/// reaches it at `rate`: `mark` itself once there is nothing over it.
fn after(mark: f64, rate: f64, bytes: f64) -> f64 {
    if bytes > 0.0 {
        mark + bytes / rate
    } else {
        mark
    }
}

/// Per-link keys in a min-tournament: leaf `size + e` holds link `e`'s key
/// (`+inf` for none) and every inner node the lesser of its two children, so
/// the least key is the root and a change walks one leaf-to-root path.
struct LinkKeys {
    /// Leaves: the least power of two at or above the link count.
    size: usize,
    tree: Vec<f64>,
}

impl LinkKeys {
    fn new(num_edges: usize) -> Self {
        let size = num_edges.next_power_of_two();
        Self {
            size,
            tree: vec![f64::INFINITY; 2 * size],
        }
    }

    /// The least key (`+inf` with none).
    fn min(&self) -> f64 {
        self.tree[1]
    }

    /// Link `e`'s key becomes `key` (`+inf` removes it).
    fn set(&mut self, e: EdgeId, key: f64) {
        let mut i = self.size + e;
        self.tree[i] = key;
        while i > 1 {
            i /= 2;
            let least = self.tree[2 * i].min(self.tree[2 * i + 1]);
            if least.to_bits() == self.tree[i].to_bits() {
                break;
            }
            self.tree[i] = least;
        }
    }

    /// Appends to `out` every link under node `i` whose key is at most `t`.
    fn collect_at_most(&self, t: f64, i: usize, out: &mut Vec<EdgeId>) {
        if self.tree[i] > t {
            return;
        }
        if i >= self.size {
            out.push(i - self.size);
            return;
        }
        self.collect_at_most(t, 2 * i, out);
        self.collect_at_most(t, 2 * i + 1, out);
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
        active: &[usize],
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
            for (fi, &job) in active.iter().enumerate() {
                let e = jobs[job].link;
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
                for (fi, &job) in active.iter().enumerate() {
                    let job = &jobs[job];
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
            let active: Vec<usize> = (0..flows).map(|_| rng.random_range(0..span)).collect();
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
