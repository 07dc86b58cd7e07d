//! Degradation scenarios: per-link slowdowns, failures and straggler nodes.
//!
//! A [`Scenario`] perturbs the nominal fabric the simulator executes on, without
//! touching the [`a2a_topology::Topology`] the schedule was solved for — exactly the
//! situation of a schedule running on degraded hardware. Knobs:
//!
//! * **Slowdowns** — multiply a link's nominal bandwidth by a factor in `(0, 1]`
//!   (congested or degraded links).
//! * **Failures** — the link is down for the whole run; any transfer routed over it
//!   makes the simulation fail with [`crate::SimError::FailedLink`]. Re-solving on the
//!   punctured topology and simulating the rerouted schedule under the same scenario
//!   models recovery.
//! * **Stragglers** — a per-node factor multiplying the bandwidth of every link the
//!   node *sends* on (slow host CPU / NIC).
//! * **Per-message α jitter** — every message's launch latency (the per-step
//!   sync α in synchronized execution, the per-hop α in dependency-driven
//!   execution) is multiplied by a factor drawn reproducibly per message id
//!   ([`Scenario::with_alpha_jitter`]): software-stack noise on the control
//!   path, as opposed to the bandwidth knobs above which perturb the data path.
//!
//! Seeded constructors ([`Scenario::seeded_slowdowns`], [`Scenario::with_alpha_jitter`])
//! draw their perturbations reproducibly from ChaCha8 streams so degradation sweeps are
//! repeatable.
//!
//! The builders do not panic. A factor, range or event time outside its domain is
//! kept as the scenario's first invalid input, and every simulation under the
//! scenario returns it as [`crate::SimError::InvalidInput`].

use std::collections::{HashMap, HashSet};

use a2a_topology::{EdgeId, NodeId, Topology};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::SimParams;

/// Seeded per-message latency jitter: message `id` draws its α multiplier from
/// a ChaCha8 stream keyed by `(seed, id)`, so the factor is a pure function of
/// the message identity — independent of simulation order or backend.
#[derive(Debug, Clone, Copy)]
struct AlphaJitter {
    seed: u64,
    min_factor: f64,
    max_factor: f64,
}

/// A set of fabric perturbations applied during simulation.
#[derive(Debug, Clone, Default)]
pub struct Scenario {
    /// Multiplicative slowdown per directed edge, in `(0, 1]`.
    slowdowns: HashMap<EdgeId, f64>,
    /// Directed edges that are down for the whole run.
    failed: HashSet<EdgeId>,
    /// Send-side bandwidth multiplier per straggler node, in `(0, 1]`.
    stragglers: HashMap<NodeId, f64>,
    /// Per-message latency jitter, if enabled.
    alpha_jitter: Option<AlphaJitter>,
    /// The first builder argument outside its domain (`name = value`), which
    /// the engine's input check reports.
    invalid: Option<String>,
}

impl Scenario {
    /// The nominal scenario: no perturbations.
    pub fn nominal() -> Self {
        Self::default()
    }

    /// Keeps `name = value` as the first invalid input unless `valid`.
    fn require(&mut self, valid: bool, name: &str, value: impl std::fmt::Debug) {
        if !valid && self.invalid.is_none() {
            self.invalid = Some(format!("{name} = {value:?}"));
        }
    }

    /// Keeps `name = factor` as the first invalid input unless `factor` is in `(0, 1]`.
    fn require_unit_factor(&mut self, name: &str, factor: f64) {
        self.require(factor > 0.0 && factor <= 1.0, name, factor);
    }

    /// The first builder argument outside its domain, if any.
    pub(crate) fn invalid_input(&self) -> Option<&str> {
        self.invalid.as_deref()
    }

    /// Multiplies a directed edge's bandwidth by `factor` in `(0, 1]`.
    pub fn with_link_slowdown(mut self, edge: EdgeId, factor: f64) -> Self {
        self.require_unit_factor("slowdown factor", factor);
        self.slowdowns.insert(edge, factor);
        self
    }

    /// Marks a directed edge as failed for the whole run.
    pub fn with_failed_link(mut self, edge: EdgeId) -> Self {
        self.failed.insert(edge);
        self
    }

    /// Marks `node` as a straggler: every link it sends on runs at `factor` in
    /// `(0, 1]` of its (possibly already perturbed) bandwidth.
    pub fn with_straggler(mut self, node: NodeId, factor: f64) -> Self {
        self.require_unit_factor("straggler factor", factor);
        self.stragglers.insert(node, factor);
        self
    }

    /// Enables seeded per-message α jitter: message `id` multiplies its launch
    /// latency (per-step sync α in synchronized execution, per-hop α in
    /// dependency-driven execution) by a factor drawn uniformly from
    /// `[min_factor, max_factor]`, keyed by `(seed, id)`. Message ids follow the
    /// schedule's step-major transfer order, so the same message draws the same
    /// factor in every backend. The range must satisfy
    /// `0 < min_factor <= max_factor < inf`.
    pub fn with_alpha_jitter(mut self, seed: u64, min_factor: f64, max_factor: f64) -> Self {
        self.require(
            0.0 < min_factor && min_factor <= max_factor && max_factor.is_finite(),
            "alpha jitter factors",
            [min_factor, max_factor],
        );
        self.alpha_jitter = Some(AlphaJitter {
            seed,
            min_factor,
            max_factor,
        });
        self
    }

    /// The α multiplier of message `id` under this scenario (1.0 without jitter).
    pub fn alpha_factor(&self, message_id: usize) -> f64 {
        let Some(j) = self.alpha_jitter else {
            return 1.0;
        };
        // SplitMix-style bijective scramble of the id keeps per-message streams
        // decorrelated even for consecutive ids under the same seed.
        let mut z = (message_id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        let mut rng = ChaCha8Rng::seed_from_u64(j.seed ^ (z ^ (z >> 31)));
        j.min_factor + (j.max_factor - j.min_factor) * rng.random_f64()
    }

    /// Draws `count` distinct directed edges (seeded) and slows each by a factor drawn
    /// uniformly from `[min_factor, max_factor]`, which must satisfy
    /// `0 < min_factor <= max_factor <= 1`.
    pub fn seeded_slowdowns(
        topo: &Topology,
        seed: u64,
        count: usize,
        min_factor: f64,
        max_factor: f64,
    ) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut scenario = Self::nominal();
        scenario.require(
            0.0 < min_factor && min_factor <= max_factor && max_factor <= 1.0,
            "seeded slowdown factors",
            [min_factor, max_factor],
        );
        for e in pick_edges(topo, &mut rng, count) {
            let f = min_factor + (max_factor - min_factor) * rng.random_f64();
            scenario.slowdowns.insert(e, f);
        }
        scenario
    }

    /// True if the directed edge is failed under this scenario.
    pub fn is_failed(&self, edge: EdgeId) -> bool {
        self.failed.contains(&edge)
    }

    /// Effective bandwidth of a directed edge in bytes/second under this scenario, or
    /// `None` if the edge is failed. Infinite-capacity edges stay infinite (they are
    /// never a bottleneck).
    pub fn effective_bandwidth(
        &self,
        topo: &Topology,
        edge: EdgeId,
        params: &SimParams,
    ) -> Option<f64> {
        if self.is_failed(edge) {
            return None;
        }
        let e = topo.edge(edge);
        let base_gbps = params.link_bandwidth_gbps * e.capacity;
        let slow = self.slowdowns.get(&edge).copied().unwrap_or(1.0);
        let straggle = self.stragglers.get(&e.src).copied().unwrap_or(1.0);
        Some(base_gbps * 1e9 * slow * straggle)
    }
}

/// A fabric event occurring at a point in simulated time (see [`ScenarioTimeline`]).
///
/// Events change *capacities*: they never move data. The event engine applies them
/// at event boundaries — a drain in progress is cut at the event time, rates are
/// recomputed, and the run continues (or, for a failure that strands in-flight
/// work, is interrupted with an [`crate::InFlightSnapshot`]).
#[derive(Debug, Clone, Copy, PartialEq)]
enum TimedEvent {
    /// The directed edge goes down for the rest of the run.
    LinkFail { edge: EdgeId },
    /// The directed edge's bandwidth is multiplied by `factor` in `(0, 1]`,
    /// compounding with any slowdown already in effect.
    LinkDegrade { edge: EdgeId, factor: f64 },
}

/// A [`Scenario`] plus a timed sequence of fabric events: the input of the
/// closed-loop replanning pipeline (see the `replan` module).
///
/// The timeline starts from `base` (any static scenario — slowdowns, static
/// failures, stragglers, jitter) and applies each event at its timestamp. Events
/// at `t <= 0` are folded into the base before the run starts, so a link failure
/// at `t = 0` behaves exactly like a static [`Scenario::with_failed_link`]: the
/// pre-run link resolution rejects the schedule with
/// [`crate::SimError::FailedLink`]. An empty timeline reproduces the static
/// engine bit-for-bit.
#[derive(Debug, Clone, Default)]
pub struct ScenarioTimeline {
    base: Scenario,
    /// Events sorted by time (stable: same-time events apply in insertion order).
    events: Vec<(f64, TimedEvent)>,
}

impl ScenarioTimeline {
    /// A timeline over the given static base scenario, with no events yet.
    pub fn new(base: Scenario) -> Self {
        Self {
            base,
            events: Vec::new(),
        }
    }

    /// A timeline over the nominal scenario with no events.
    pub fn nominal() -> Self {
        Self::default()
    }

    /// Inserts `event` at `time`; a non-finite time is kept as the invalid
    /// input (on the base, which every run reads) instead of an event.
    fn push(mut self, time: f64, event: TimedEvent) -> Self {
        self.base.require(time.is_finite(), "event time", time);
        if time.is_finite() {
            // Stable insertion keeps same-time events in insertion order.
            let at = self.events.partition_point(|&(t, _)| t <= time);
            self.events.insert(at, (time, event));
        }
        self
    }

    /// Fails `edge` at `time`.
    pub fn with_link_failure_at(self, time: f64, edge: EdgeId) -> Self {
        self.push(time, TimedEvent::LinkFail { edge })
    }

    /// Multiplies `edge`'s bandwidth by `factor` in `(0, 1]` from `time` on.
    pub fn with_link_degrade_at(mut self, time: f64, edge: EdgeId, factor: f64) -> Self {
        self.base.require_unit_factor("degrade factor", factor);
        self.push(time, TimedEvent::LinkDegrade { edge, factor })
    }

    /// The scenario in effect at time `t`: the base with every event at time
    /// `<= t` applied, in order.
    pub fn scenario_at(&self, t: f64) -> Scenario {
        let mut s = self.base.clone();
        for &(et, event) in &self.events {
            if et > t {
                break;
            }
            match event {
                TimedEvent::LinkFail { edge } => {
                    s.failed.insert(edge);
                }
                TimedEvent::LinkDegrade { edge, factor } => {
                    *s.slowdowns.entry(edge).or_insert(1.0) *= factor;
                }
            }
        }
        s
    }

    /// Distinct event times strictly after `t = 0`, ascending — the boundaries at
    /// which the event engine re-reads capacities.
    pub fn dynamic_event_times(&self) -> Vec<f64> {
        let mut times: Vec<f64> = Vec::new();
        for &(t, _) in &self.events {
            if t > 0.0 && times.last() != Some(&t) {
                times.push(t);
            }
        }
        times
    }
}

/// Picks up to `count` distinct edge ids uniformly without replacement.
fn pick_edges(topo: &Topology, rng: &mut ChaCha8Rng, count: usize) -> Vec<EdgeId> {
    let mut ids: Vec<EdgeId> = (0..topo.num_edges()).collect();
    let count = count.min(ids.len());
    // Partial Fisher–Yates: the first `count` positions end up uniform.
    for i in 0..count {
        let j = i + rng.random_range(0..ids.len() - i);
        ids.swap(i, j);
    }
    ids.truncate(count);
    ids
}

#[cfg(test)]
mod tests {
    use super::*;
    use a2a_topology::generators;

    #[test]
    fn nominal_scenario_reproduces_link_bandwidth() {
        let topo = generators::hypercube(3);
        let params = SimParams::default();
        let s = Scenario::nominal();
        for e in 0..topo.num_edges() {
            let bw = s.effective_bandwidth(&topo, e, &params).unwrap();
            assert!((bw - params.link_bandwidth_gbps * 1e9).abs() < 1e-6);
        }
    }

    #[test]
    fn knobs_compose_multiplicatively() {
        let mut topo = a2a_topology::Topology::new(2, "pair");
        let e = topo.add_edge(0, 1, 2.0);
        let params = SimParams {
            link_bandwidth_gbps: 10.0,
            ..SimParams::default()
        };
        // Nominal: 10 GB/s * capacity 2 = 20 GB/s.
        let s = Scenario::nominal()
            .with_link_slowdown(e, 0.5)
            .with_straggler(0, 0.5);
        let bw = s.effective_bandwidth(&topo, e, &params).unwrap();
        assert!((bw - 20.0e9 * 0.25).abs() < 1.0);
    }

    #[test]
    fn failed_links_have_no_bandwidth() {
        let topo = generators::ring(4);
        let s = Scenario::nominal().with_failed_link(2);
        assert!(s.is_failed(2));
        assert!(!s.is_failed(1));
        assert!(s
            .effective_bandwidth(&topo, 2, &SimParams::default())
            .is_none());
    }

    #[test]
    fn seeded_scenarios_are_reproducible_and_distinct() {
        let topo = generators::torus(&[3, 3]);
        let slowed = |seed| {
            let mut v: Vec<(EdgeId, u64)> = Scenario::seeded_slowdowns(&topo, seed, 4, 0.25, 0.75)
                .slowdowns
                .into_iter()
                .map(|(e, f)| (e, f.to_bits()))
                .collect();
            v.sort_unstable();
            v
        };
        let (a, b, c) = (slowed(11), slowed(11), slowed(12));
        assert_eq!(a, b, "same seed, same slowdowns");
        assert_eq!(a.len(), 4);
        for &(_, f) in &a {
            assert!((0.25..=0.75).contains(&f64::from_bits(f)));
        }
        // Different seeds should (for this topology/seed pair) draw differently.
        assert_ne!(a, c);
    }

    #[test]
    fn alpha_jitter_is_deterministic_per_message_and_bounded() {
        let s = Scenario::nominal().with_alpha_jitter(42, 1.0, 3.0);
        let mut distinct = std::collections::HashSet::new();
        for id in 0..64 {
            let f = s.alpha_factor(id);
            assert!((1.0..=3.0).contains(&f), "factor {f} out of range");
            assert_eq!(f, s.alpha_factor(id), "same id must redraw identically");
            distinct.insert(f.to_bits());
        }
        assert!(distinct.len() > 32, "factors should vary across messages");
        // A different seed reshuffles the draws.
        let other = Scenario::nominal().with_alpha_jitter(43, 1.0, 3.0);
        assert!((0..64).any(|id| s.alpha_factor(id) != other.alpha_factor(id)));
        // Without jitter the factor is exactly 1.
        assert_eq!(Scenario::nominal().alpha_factor(7), 1.0);
    }

    #[test]
    fn alpha_jitter_rejects_bad_range() {
        let s = Scenario::nominal().with_alpha_jitter(1, 2.0, 1.0);
        assert_eq!(s.invalid_input(), Some("alpha jitter factors = [2.0, 1.0]"));
        // The first invalid argument is the one reported.
        let s = s.with_link_slowdown(0, 2.0);
        assert!(s.invalid_input().unwrap().starts_with("alpha jitter"));
    }

    #[test]
    fn count_is_clamped_to_edge_count() {
        let topo = generators::ring(3);
        let s = Scenario::seeded_slowdowns(&topo, 1, 100, 0.5, 0.5);
        assert_eq!(s.slowdowns.len(), topo.num_edges());
    }

    #[test]
    fn timeline_events_stay_sorted_and_compose() {
        let topo = generators::ring(4);
        let params = SimParams::default();
        let tl = ScenarioTimeline::nominal()
            .with_link_degrade_at(2.0, 0, 0.5)
            .with_link_failure_at(1.0, 1)
            .with_link_failure_at(3.0, 2)
            .with_link_failure_at(2.0, 3);
        assert_eq!(tl.dynamic_event_times(), vec![1.0, 2.0, 3.0]);

        // Before any event: every link at nominal bandwidth.
        let early = tl.scenario_at(0.5);
        assert!((0..4).all(|e| !early.is_failed(e)));
        assert!(early.slowdowns.is_empty());
        // After the failure, edge 1 is down.
        assert!(tl.scenario_at(1.5).is_failed(1));
        // After the degrade, edge 0 runs at half rate, and the same-time failure
        // of edge 3 applies too.
        let mid = tl.scenario_at(2.5);
        let bw = mid.effective_bandwidth(&topo, 0, &params);
        assert!((bw.unwrap() - 0.5 * params.link_bandwidth_gbps * 1e9).abs() < 1.0);
        assert!(mid.is_failed(3) && !mid.is_failed(2));
        // Failures stay down.
        let late = tl.scenario_at(10.0);
        assert!((1..4).all(|e| late.is_failed(e)));
    }

    #[test]
    fn timeline_degrades_compound_over_the_base() {
        let topo = generators::ring(3);
        let params = SimParams::default();
        let base = Scenario::nominal().with_link_slowdown(0, 0.5);
        let tl = ScenarioTimeline::new(base)
            .with_link_degrade_at(1.0, 0, 0.5)
            .with_link_degrade_at(2.0, 0, 0.5);
        let nominal_bw = params.link_bandwidth_gbps * 1e9;
        let bw = |t: f64| {
            tl.scenario_at(t)
                .effective_bandwidth(&topo, 0, &params)
                .unwrap()
        };
        assert!((bw(0.0) - 0.5 * nominal_bw).abs() < 1.0);
        assert!((bw(1.5) - 0.25 * nominal_bw).abs() < 1.0);
        assert!((bw(2.5) - 0.125 * nominal_bw).abs() < 1.0);
    }

    #[test]
    fn t_zero_events_fold_into_the_base() {
        let tl = ScenarioTimeline::nominal().with_link_failure_at(0.0, 2);
        assert!(tl.scenario_at(0.0).is_failed(2));
        assert!(tl.dynamic_event_times().is_empty());
    }
}
