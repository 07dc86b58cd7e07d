//! Stand-ins for the SCCL and TACCL collective-synthesis baselines.
//!
//! The paper compares against two synthesis systems it cannot beat on generality but
//! easily beats on scalability and (for TACCL) schedule quality:
//!
//! * **SCCL** \[14\] synthesizes provably optimal schedules with an SMT solver — exact
//!   but exponential. [`sccl_like_search`] reproduces that behaviour with an
//!   iterative-deepening exhaustive search over integral chunk routings: it finds
//!   step-optimal schedules on tiny topologies and blows through any time budget on
//!   larger ones (Fig. 7).
//! * **TACCL** \[46\] uses communication sketches plus a MILP — more scalable but its
//!   all-to-all schedules lose up to 1.6x throughput vs tsMCF (Fig. 3).
//!   [`taccl_like_heuristic`] reproduces the quality gap with a sketch-style greedy
//!   (single shortest route per chunk, hops pinned to consecutive steps) followed by a
//!   budgeted local-search repair; it always terminates but leaves per-step load
//!   imbalance on the table.
//!
//! Both produce ordinary [`TsMcfSolution`] values so they can be lowered, validated and
//! simulated exactly like tsMCF schedules. (The original systems are closed tools built
//! on SMT/MILP engines; see DESIGN.md §3 for the substitution rationale.)

use std::time::{Duration, Instant};

use a2a_mcf::tsmcf::TsMcfSolution;
use a2a_mcf::{CommoditySet, McfResult};
use a2a_topology::{paths, EdgeId, Topology};

/// Outcome of a synthesis attempt.
#[derive(Debug, Clone)]
pub enum SynthOutcome {
    /// A schedule was produced within the budget.
    Completed {
        /// The synthesized time-stepped schedule.
        schedule: TsMcfSolution,
        /// Wall-clock time spent.
        elapsed: Duration,
    },
    /// The search exhausted its time budget without producing a schedule.
    TimedOut {
        /// Wall-clock time spent before giving up.
        elapsed: Duration,
    },
}

impl SynthOutcome {
    /// Returns the schedule if synthesis completed.
    pub fn schedule(&self) -> Option<&TsMcfSolution> {
        match self {
            SynthOutcome::Completed { schedule, .. } => Some(schedule),
            SynthOutcome::TimedOut { .. } => None,
        }
    }

    /// Wall-clock time spent.
    pub fn elapsed(&self) -> Duration {
        match self {
            SynthOutcome::Completed { elapsed, .. } | SynthOutcome::TimedOut { elapsed } => {
                *elapsed
            }
        }
    }
}

// ---------------------------------------------------------------------------------
// SCCL-like exhaustive search
// ---------------------------------------------------------------------------------

/// Exhaustive, SCCL-style synthesis: every shard is one indivisible chunk, every link
/// can carry at most one chunk per step, and the search looks for the smallest number
/// of steps admitting a conflict-free routing. Exponential by construction.
pub fn sccl_like_search(topo: &Topology, budget: Duration) -> McfResult<SynthOutcome> {
    let start = Instant::now();
    let commodities = CommoditySet::all_pairs(topo.num_nodes());
    // Candidate paths per commodity: all shortest paths (SCCL also explores detours,
    // but shortest paths keep the stand-in's search space honest without changing its
    // exponential nature).
    let mut candidates: Vec<Vec<Vec<EdgeId>>> = Vec::with_capacity(commodities.len());
    let mut min_steps = 1usize;
    for (_, s, d) in commodities.iter() {
        let set = paths::all_shortest_paths(topo, s, d, 64);
        if set.is_empty() {
            return Err(a2a_mcf::McfError::BadTopology(format!(
                "destination {d} unreachable from {s}"
            )));
        }
        min_steps = min_steps.max(set[0].hops());
        candidates.push(
            set.iter()
                .map(|p| p.edge_ids(topo).expect("shortest paths are valid"))
                .collect(),
        );
    }

    // Iterative deepening on the number of steps.
    let mut steps = min_steps;
    loop {
        if start.elapsed() > budget {
            return Ok(SynthOutcome::TimedOut {
                elapsed: start.elapsed(),
            });
        }
        let mut occupancy = vec![vec![false; topo.num_edges()]; steps];
        let mut assignment: Vec<Option<(usize, Vec<usize>)>> = vec![None; commodities.len()];
        let deadline = start + budget;
        match assign_commodity(
            0,
            steps,
            &candidates,
            &mut occupancy,
            &mut assignment,
            deadline,
        ) {
            SearchResult::Found => {
                let schedule = build_schedule(topo, &commodities, steps, &candidates, &assignment);
                return Ok(SynthOutcome::Completed {
                    schedule,
                    elapsed: start.elapsed(),
                });
            }
            SearchResult::Exhausted => {
                steps += 1;
                // A trivially safe upper bound on steps; reaching it means the model
                // itself (one chunk per link per step) cannot express the collective.
                if steps > topo.num_nodes() * topo.num_nodes() {
                    return Ok(SynthOutcome::TimedOut {
                        elapsed: start.elapsed(),
                    });
                }
            }
            SearchResult::TimedOut => {
                return Ok(SynthOutcome::TimedOut {
                    elapsed: start.elapsed(),
                });
            }
        }
    }
}

enum SearchResult {
    Found,
    Exhausted,
    TimedOut,
}

/// Depth-first assignment of commodity `idx`: pick a candidate path and a strictly
/// increasing step per hop such that no link carries two chunks in the same step.
fn assign_commodity(
    idx: usize,
    steps: usize,
    candidates: &[Vec<Vec<EdgeId>>],
    occupancy: &mut Vec<Vec<bool>>,
    assignment: &mut Vec<Option<(usize, Vec<usize>)>>,
    deadline: Instant,
) -> SearchResult {
    if idx == candidates.len() {
        return SearchResult::Found;
    }
    if Instant::now() > deadline {
        return SearchResult::TimedOut;
    }
    for (pi, path) in candidates[idx].iter().enumerate() {
        let hops = path.len();
        if hops > steps {
            continue;
        }
        // Enumerate strictly increasing step assignments for the hops.
        let mut slots: Vec<usize> = (0..hops).collect();
        loop {
            // Check availability of (edge, step) pairs.
            let ok = path.iter().zip(&slots).all(|(&e, &t)| !occupancy[t][e]);
            if ok {
                for (&e, &t) in path.iter().zip(&slots) {
                    occupancy[t][e] = true;
                }
                assignment[idx] = Some((pi, slots.clone()));
                match assign_commodity(idx + 1, steps, candidates, occupancy, assignment, deadline)
                {
                    SearchResult::Found => return SearchResult::Found,
                    SearchResult::TimedOut => return SearchResult::TimedOut,
                    SearchResult::Exhausted => {}
                }
                for (&e, &t) in path.iter().zip(&slots) {
                    occupancy[t][e] = false;
                }
                assignment[idx] = None;
            }
            if !next_increasing_combination(&mut slots, steps) {
                break;
            }
        }
    }
    SearchResult::Exhausted
}

/// Advances `slots` to the next strictly increasing combination drawn from `0..steps`.
fn next_increasing_combination(slots: &mut [usize], steps: usize) -> bool {
    let k = slots.len();
    let mut i = k;
    while i > 0 {
        i -= 1;
        if slots[i] < steps - (k - i) {
            slots[i] += 1;
            for j in (i + 1)..k {
                slots[j] = slots[j - 1] + 1;
            }
            return true;
        }
    }
    false
}

fn build_schedule(
    topo: &Topology,
    commodities: &CommoditySet,
    steps: usize,
    candidates: &[Vec<Vec<EdgeId>>],
    assignment: &[Option<(usize, Vec<usize>)>],
) -> TsMcfSolution {
    let mut flows = vec![vec![Vec::new(); steps]; commodities.len()];
    let mut per_step_load = vec![vec![0.0f64; topo.num_edges()]; steps];
    for (idx, slot) in assignment.iter().enumerate() {
        let (pi, slots) = slot.as_ref().expect("complete assignment");
        for (&e, &t) in candidates[idx][*pi].iter().zip(slots) {
            flows[idx][t].push((e, 1.0));
            per_step_load[t][e] += 1.0;
        }
    }
    let step_utilization: Vec<f64> = per_step_load
        .iter()
        .map(|loads| {
            loads
                .iter()
                .enumerate()
                .map(|(e, &l)| l / topo.edge(e).capacity)
                .fold(0.0, f64::max)
        })
        .collect();
    TsMcfSolution {
        commodities: commodities.clone(),
        steps,
        step_utilization,
        flows,
    }
}

// ---------------------------------------------------------------------------------
// TACCL-like heuristic
// ---------------------------------------------------------------------------------

/// Sketch-plus-repair heuristic in the spirit of TACCL: one congestion-aware shortest
/// route per commodity, hop `i` pinned to step `i`, followed by a budgeted local search
/// that moves individual transfers to later steps when that lowers the per-step maximum
/// link load. Always terminates; the residual per-step imbalance is what costs it up to
/// ~1.6x vs tsMCF on the evaluated topologies.
pub fn taccl_like_heuristic(topo: &Topology, budget: Duration) -> McfResult<SynthOutcome> {
    let start = Instant::now();
    let commodities = CommoditySet::all_pairs(topo.num_nodes());
    let sketch = crate::sssp::sssp_schedule_among(topo, commodities.clone())?;

    // Initial step assignment: hop i of every route happens in step i.
    let mut steps = 0usize;
    let mut placements: Vec<Vec<(EdgeId, usize)>> = Vec::with_capacity(commodities.len());
    for (idx, _, _) in commodities.iter() {
        let (path, _) = &sketch.paths[idx][0];
        let mut hops = Vec::with_capacity(path.hops());
        for (h, (u, v)) in path.links().enumerate() {
            let e = topo.find_edge(u, v).expect("sketch paths are valid");
            hops.push((e, h));
            steps = steps.max(h + 1);
        }
        placements.push(hops);
    }
    // Allow a little slack for the repair phase to spread load out.
    steps += 2;

    let load = |placements: &[Vec<(EdgeId, usize)>], steps: usize| -> Vec<Vec<f64>> {
        let mut per_step = vec![vec![0.0f64; topo.num_edges()]; steps];
        for hops in placements {
            for &(e, t) in hops {
                per_step[t][e] += 1.0;
            }
        }
        per_step
    };
    let objective = |per_step: &[Vec<f64>]| -> f64 {
        per_step
            .iter()
            .map(|l| l.iter().cloned().fold(0.0, f64::max))
            .sum()
    };

    // Local search: try delaying individual hops (keeping per-commodity hop order) to
    // reduce the summed per-step maximum load.
    let mut per_step = load(&placements, steps);
    let mut best = objective(&per_step);
    let mut improved = true;
    while improved && start.elapsed() < budget {
        improved = false;
        for k in 0..placements.len() {
            for h in 0..placements[k].len() {
                let (e, t) = placements[k][h];
                let upper = placements[k].get(h + 1).map(|&(_, nt)| nt).unwrap_or(steps);
                for cand in (t + 1)..upper {
                    placements[k][h] = (e, cand);
                    let trial = load(&placements, steps);
                    let obj = objective(&trial);
                    if obj + 1e-12 < best {
                        best = obj;
                        per_step = trial;
                        improved = true;
                        break;
                    }
                    placements[k][h] = (e, t);
                }
                if start.elapsed() >= budget {
                    break;
                }
            }
        }
    }

    let mut flows = vec![vec![Vec::new(); steps]; commodities.len()];
    for (idx, hops) in placements.iter().enumerate() {
        for &(e, t) in hops {
            flows[idx][t].push((e, 1.0));
        }
    }
    let step_utilization: Vec<f64> = per_step
        .iter()
        .map(|l| {
            l.iter()
                .enumerate()
                .map(|(e, &x)| x / topo.edge(e).capacity)
                .fold(0.0, f64::max)
        })
        .collect();
    let schedule = TsMcfSolution {
        commodities,
        steps,
        step_utilization,
        flows,
    };
    Ok(SynthOutcome::Completed {
        schedule,
        elapsed: start.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use a2a_topology::generators;

    #[test]
    fn sccl_like_finds_optimal_steps_on_tiny_graphs() {
        let topo = generators::complete(3);
        let outcome = sccl_like_search(&topo, Duration::from_secs(5)).unwrap();
        let schedule = outcome.schedule().expect("tiny instance must complete");
        assert_eq!(schedule.steps, 1, "direct exchange needs a single step");
        assert!(schedule.check_consistency(&topo, 1e-9).is_empty());
    }

    #[test]
    fn sccl_like_handles_relay_topologies() {
        let topo = generators::ring(3);
        let outcome = sccl_like_search(&topo, Duration::from_secs(10)).unwrap();
        let schedule = outcome.schedule().expect("3-ring must complete");
        assert!(schedule.steps >= 2);
        assert!(schedule.check_consistency(&topo, 1e-9).is_empty());
    }

    #[test]
    fn sccl_like_times_out_on_larger_instances() {
        // The whole point of the stand-in: give it a tight budget on a non-trivial
        // instance and it cannot finish, just like SCCL at 16+ nodes in the paper.
        let topo = generators::hypercube(3);
        let outcome = sccl_like_search(&topo, Duration::from_millis(50)).unwrap();
        assert!(outcome.schedule().is_none());
        assert!(outcome.elapsed() >= Duration::from_millis(50));
    }

    #[test]
    fn taccl_like_always_completes_and_is_valid() {
        let topo = generators::hypercube(3);
        let outcome = taccl_like_heuristic(&topo, Duration::from_secs(2)).unwrap();
        let schedule = outcome.schedule().expect("heuristic always completes");
        assert!(schedule.check_consistency(&topo, 1e-9).is_empty());
        assert!(schedule.total_utilization() > 0.0);
    }

    #[test]
    fn taccl_like_never_beats_tsmcf() {
        // Fig. 3: TACCL trails tsMCF at large buffers. The stand-in is an integral,
        // single-route-per-commodity heuristic, so at best it ties the fractional
        // optimum and in practice leaves a measurable gap (quantified by the fig3
        // bench harness); here we assert the sound direction of the comparison.
        let topo = generators::hypercube(3);
        let taccl = taccl_like_heuristic(&topo, Duration::from_secs(2))
            .unwrap()
            .schedule()
            .cloned()
            .unwrap();
        let tsmcf = a2a_mcf::tscolgen::solve_tsmcf_colgen_auto(&topo)
            .unwrap()
            .solution;
        assert!(
            taccl.total_utilization() >= tsmcf.total_utilization() - 1e-6,
            "TACCL-like {} cannot beat tsMCF {}",
            taccl.total_utilization(),
            tsmcf.total_utilization()
        );
    }

    #[test]
    fn next_combination_enumerates_lexicographically() {
        let mut slots = vec![0usize, 1];
        let mut seen = vec![slots.clone()];
        while next_increasing_combination(&mut slots, 4) {
            seen.push(slots.clone());
        }
        assert_eq!(seen.len(), 6, "C(4,2) = 6 combinations");
        assert_eq!(seen.last().unwrap(), &vec![2, 3]);
    }
}
