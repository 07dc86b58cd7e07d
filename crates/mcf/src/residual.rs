//! Residual tsMCF: re-planning an interrupted collective from where its bytes are.
//!
//! When a link dies mid-collective, the shards of the all-to-all are no longer
//! at their sources: some are delivered, some sit buffered at intermediate
//! nodes, and the transfer that died on the failed link left a stranded
//! remainder at its sender. The re-planning problem is therefore *not* an
//! all-to-all — it is a list of [`TsDemand`]s, each saying "`amount` shards of
//! the `origin → dest` commodity currently sit at node `at` and must still
//! reach `dest`", solved on the punctured topology.
//!
//! The time-expanded column-generation solver of [`crate::tscolgen`] is
//! indexed by demand, and the nominal solve is the all-at-source instance of
//! it; this module is the other caller. Its rows, pricing and columns are the
//! crate's one path master ([`crate::colgen`]), the one pMCF prices through
//! too, so a residual solve prices and lowers exactly as the nominal one does
//! (`trajectory_golden.rs` pins a warm-started residual trajectory). The
//! consistency check and the step bound are the nominal ones too (written
//! once in [`crate::tsmcf`] over `(demands, steps, flows)`). What this module
//! adds is the residual problem statement, not a second solver:
//!
//! * **demands from holdings**: each demand's convexity row has right-hand
//!   side `amount`, so its path columns together carry exactly the stranded
//!   amount — partial chunks re-enter the plan at their holding node without
//!   rounding — and pricing runs one Dijkstra tree per *distinct holding
//!   node*: after a failure many demands share the few nodes that were
//!   buffering, so residual pricing is cheaper than nominal pricing even
//!   before warm starts;
//! * **warm seeds**: the caller may seed the restricted master from the
//!   incumbent column pool of the nominal solve
//!   ([`warm_seeds_from_columns`] cuts each incumbent trajectory at the
//!   holding node and keeps suffixes that survive the puncture), so the first
//!   master already contains the certified-good routes and the solve typically
//!   needs fewer simplex iterations than a cold clairvoyant re-solve.
//!
//! Infeasibility is typed, never a panic: a destination unreachable on the
//! punctured fabric surfaces as [`McfError::BadTopology`] from
//! [`residual_minimum_steps`], which the re-planning driver turns into its
//! graceful-degradation fallback.

use std::collections::{HashMap, HashSet};

use a2a_topology::{EdgeId, NodeId, Path, Topology};

use crate::colgen::{ColGenOptions, ColGenStats};
pub use crate::tscolgen::TsDemand;
use crate::tscolgen::{shortest_seed, solve_expanded_colgen, TsColumn};
use crate::tsmcf::{check_flow_consistency, holding_step_bound};
use crate::types::{CommoditySet, McfError, McfResult};

/// A solved residual plan: per-demand time-stepped flows on the punctured
/// topology, in the same `(edge, amount)`-per-step shape the chunk lowering
/// consumes.
#[derive(Debug, Clone)]
pub struct ResidualSolution {
    /// The demands, in instance order (flow index == demand index).
    pub demands: Vec<TsDemand>,
    /// Number of communication steps of the residual plan.
    pub steps: usize,
    /// Optimal per-step utilization `U_t`.
    pub step_utilization: Vec<f64>,
    /// `flows[demand][step]` = positive transfers `(edge, amount)` of that
    /// demand in that step, in shard units (a demand of amount `a` moves `a`
    /// across its cut).
    pub flows: Vec<Vec<Vec<(EdgeId, f64)>>>,
}

impl ResidualSolution {
    /// Sum of per-step utilizations — proportional to the completion time of
    /// the lowered suffix at large buffer sizes.
    pub fn total_utilization(&self) -> f64 {
        self.step_utilization.iter().sum()
    }

    /// Validates causality (a node never forwards shards it does not hold),
    /// delivery (every demand's `amount` reaches `dest`) and non-negativity.
    /// Returns human-readable violations; empty means executable.
    pub fn check_consistency(&self, topo: &Topology, tol: f64) -> Vec<String> {
        check_flow_consistency(topo, &self.demands, self.steps, &self.flows, tol)
    }
}

/// Result of a residual column-generation solve: the plan, the colgen
/// statistics (the warm-vs-cold iteration comparison reads
/// [`ColGenStats::total_master_iterations`]), and the incumbent pool for
/// warm-starting a *further* replan after a cascading failure.
#[derive(Debug, Clone)]
pub struct ResidualColGen {
    /// The residual plan.
    pub solution: ResidualSolution,
    /// Per-round statistics and the optimality certificate flag.
    pub stats: ColGenStats,
    /// Positive-weight columns of the final master ([`TsColumn::owner`] is the
    /// demand index).
    pub columns: Vec<TsColumn>,
}

fn validate_demands(topo: &Topology, demands: &[TsDemand]) -> McfResult<()> {
    if demands.is_empty() {
        return Err(McfError::BadArgument(
            "residual instance has no demands (nothing left to deliver)".into(),
        ));
    }
    let n = topo.num_nodes();
    for (idx, d) in demands.iter().enumerate() {
        if d.origin >= n || d.dest >= n || d.at >= n {
            return Err(McfError::BadArgument(format!(
                "demand {idx} references a node outside the topology ({} nodes)",
                n
            )));
        }
        if !(d.amount.is_finite() && d.amount > 0.0) {
            return Err(McfError::BadArgument(format!(
                "demand {idx} has non-positive amount {}",
                d.amount
            )));
        }
        if d.at == d.dest {
            return Err(McfError::BadArgument(format!(
                "demand {idx} is already delivered (held at its destination {})",
                d.dest
            )));
        }
    }
    Ok(())
}

/// Minimum number of steps a residual instance needs: the longest shortest
/// path from any holding node to its demand's destination. A destination that
/// is unreachable on the (punctured) topology is the *typed* infeasibility
/// signal of the re-planning loop — [`McfError::BadTopology`], never a panic.
pub fn residual_minimum_steps(topo: &Topology, demands: &[TsDemand]) -> McfResult<usize> {
    validate_demands(topo, demands)?;
    holding_step_bound(topo, demands)
}

/// Cuts the incumbent column pool of a nominal solve into warm seeds for a
/// residual instance.
///
/// For each demand, the columns of its original commodity are scanned: where a
/// column's node chain ([`TsColumn::nodes`]) visits the demand's holding node,
/// the suffix from there to the destination becomes a seed path — provided
/// every hop survived the puncture. Columns from an earlier *residual* repair —
/// which start at a mid-fabric holding node, not at the commodity origin —
/// seed a cascading repair just as well as nominal columns do. Paths are
/// returned as `(demand index, base-graph path)` pairs; node ids are preserved
/// by [`Topology::without_edges`], so they hold on `punctured` as on the
/// fabric the columns were solved on.
pub fn warm_seeds_from_columns(
    columns: &[TsColumn],
    commodities: &CommoditySet,
    punctured: &Topology,
    demands: &[TsDemand],
) -> Vec<(usize, Path)> {
    let mut by_owner: HashMap<usize, Vec<&TsColumn>> = HashMap::new();
    for col in columns {
        by_owner.entry(col.owner).or_default().push(col);
    }
    let mut seeds = Vec::new();
    for (idx, dem) in demands.iter().enumerate() {
        let Some(k) = commodities.index_of(dem.origin, dem.dest) else {
            continue;
        };
        let mut dedup: HashSet<Vec<NodeId>> = HashSet::new();
        for col in by_owner.get(&k).into_iter().flatten() {
            let Some(cut) = col.nodes.iter().position(|&v| v == dem.at) else {
                continue;
            };
            let nodes = col.nodes[cut..].to_vec();
            if nodes.len() < 2 || *nodes.last().expect("non-empty") != dem.dest {
                continue;
            }
            let survives = nodes
                .windows(2)
                .all(|w| punctured.find_edge(w[0], w[1]).is_some());
            if survives && dedup.insert(nodes.clone()) {
                seeds.push((idx, Path::new(nodes)));
            }
        }
    }
    seeds
}

/// Solves a residual instance by column generation, optionally warm-started.
///
/// `warm` holds `(demand index, base-graph path)` seeds — typically from
/// [`warm_seeds_from_columns`] — each a path from the demand's holding node to
/// its destination on `topo`. Seeds that are out of range, mismatch their
/// demand's endpoints, use a missing edge, or exceed the step budget are
/// silently dropped (they are hints, not constraints); every demand always
/// gets its earliest-arrival shortest path so the master starts feasible.
pub fn solve_residual_colgen(
    topo: &Topology,
    demands: &[TsDemand],
    steps: usize,
    options: &ColGenOptions,
    warm: &[(usize, Path)],
) -> McfResult<ResidualColGen> {
    validate_demands(topo, demands)?;
    // Seeds: the shortest path per demand, plus whatever warm suffixes
    // validate.
    let mut seed_paths: Vec<Vec<Path>> = demands
        .iter()
        .map(|d| Ok(vec![shortest_seed(topo, d.at, d.dest)?]))
        .collect::<McfResult<_>>()?;
    for (idx, p) in warm {
        let usable = *idx < demands.len()
            && p.source() == demands[*idx].at
            && p.dest() == demands[*idx].dest
            && p.hops() <= steps
            && p.is_valid_in(topo);
        if usable {
            seed_paths[*idx].push(p.clone());
        }
    }

    let solved = solve_expanded_colgen(topo, demands, steps, options, &seed_paths)?;
    Ok(ResidualColGen {
        solution: ResidualSolution {
            demands: demands.to_vec(),
            steps,
            step_utilization: solved.step_utilization,
            flows: solved.flows,
        },
        stats: solved.stats,
        columns: solved.columns,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tscolgen::{solve_tsmcf_colgen_among_with, solve_tsmcf_colgen_auto};
    use crate::tsmcf::minimum_steps;
    use a2a_topology::generators;

    /// A residual instance with every shard still at its origin *is* the
    /// all-to-all — the nominal entry point is that instance of this solver —
    /// so the two public entry points must agree round for round and flow for
    /// flow, to the bit.
    #[test]
    fn full_all_to_all_residual_matches_the_nominal_solve() {
        for topo in [generators::hypercube(2), generators::torus(&[3, 3])] {
            let commodities = CommoditySet::all_pairs(topo.num_nodes());
            let nominal = solve_tsmcf_colgen_auto(&topo).unwrap();
            let demands: Vec<TsDemand> = commodities
                .iter()
                .map(|(_, s, d)| TsDemand {
                    origin: s,
                    dest: d,
                    at: s,
                    amount: 1.0,
                })
                .collect();
            assert_eq!(
                residual_minimum_steps(&topo, &demands).unwrap(),
                nominal.solution.steps
            );
            let res = solve_residual_colgen(
                &topo,
                &demands,
                nominal.solution.steps,
                &ColGenOptions::default(),
                &[],
            )
            .unwrap();
            assert!(res.stats.proved_optimal, "{}: certificate", topo.name());
            assert!(res.solution.check_consistency(&topo, 1e-6).is_empty());
            let trajectory = |stats: &ColGenStats| -> Vec<_> {
                stats
                    .rounds
                    .iter()
                    .map(|r| {
                        (
                            r.columns_added,
                            r.master_iterations,
                            r.master_pivots,
                            r.flow_value.to_bits(),
                            r.max_violation.to_bits(),
                            r.sources_skipped,
                            r.misprice,
                        )
                    })
                    .collect()
            };
            assert_eq!(
                trajectory(&res.stats),
                trajectory(&nominal.stats),
                "{}: round trajectories diverge",
                topo.name()
            );
            let bits = |flows: &[Vec<Vec<(EdgeId, f64)>>]| -> Vec<Vec<Vec<(EdgeId, u64)>>> {
                flows
                    .iter()
                    .map(|steps| {
                        steps
                            .iter()
                            .map(|list| list.iter().map(|&(e, a)| (e, a.to_bits())).collect())
                            .collect()
                    })
                    .collect()
            };
            assert_eq!(
                bits(&res.solution.flows),
                bits(&nominal.solution.flows),
                "{}: extracted flows diverge",
                topo.name()
            );
        }
    }

    /// Partial amounts (the fractional remainders of interrupted transfers)
    /// deliver exactly and cost no more than whole shards.
    #[test]
    fn partial_amounts_deliver_exactly() {
        let topo = generators::torus(&[3, 3]);
        let demands = vec![
            TsDemand {
                origin: 0,
                dest: 4,
                at: 1,
                amount: 0.25,
            },
            TsDemand {
                origin: 0,
                dest: 8,
                at: 0,
                amount: 1.0,
            },
            // Same (at, dest) pair twice: independent convexity rows.
            TsDemand {
                origin: 3,
                dest: 4,
                at: 1,
                amount: 0.5,
            },
        ];
        let steps = residual_minimum_steps(&topo, &demands).unwrap();
        let res =
            solve_residual_colgen(&topo, &demands, steps, &ColGenOptions::default(), &[]).unwrap();
        assert!(res.stats.proved_optimal);
        assert!(res.solution.check_consistency(&topo, 1e-6).is_empty());
        // Exact delivery per demand (convexity RHS == amount).
        for (idx, dem) in res.solution.demands.iter().enumerate() {
            let mut delivered = 0.0;
            for t in 0..res.solution.steps {
                for &(e, a) in &res.solution.flows[idx][t] {
                    let edge = topo.edge(e);
                    if edge.dst == dem.dest {
                        delivered += a;
                    } else if edge.src == dem.dest {
                        delivered -= a;
                    }
                }
            }
            assert!(
                (delivered - dem.amount).abs() < 1e-6,
                "demand {idx}: delivered {delivered}, wanted {}",
                dem.amount
            );
        }
    }

    /// Replanning on a punctured fabric routes around the hole; the typed
    /// BadTopology error fires when the destination is genuinely unreachable.
    #[test]
    fn punctured_fabric_reroutes_or_reports_unreachable() {
        let topo = generators::torus(&[3, 3]);
        let cut = topo.find_edge(0, 1).unwrap();
        let punctured = topo.without_edges(&[cut]);
        let demands = vec![TsDemand {
            origin: 0,
            dest: 1,
            at: 0,
            amount: 1.0,
        }];
        let steps = residual_minimum_steps(&punctured, &demands).unwrap();
        assert!(steps >= 2, "the direct link is gone");
        let res =
            solve_residual_colgen(&punctured, &demands, steps, &ColGenOptions::default(), &[])
                .unwrap();
        assert!(res.stats.proved_optimal);
        assert!(res.solution.check_consistency(&punctured, 1e-6).is_empty());

        // Directed ring: cutting 1 -> 2 disconnects 2 from 1 entirely.
        let ring = generators::ring(3);
        let cut = ring.find_edge(1, 2).unwrap();
        let broken = ring.without_edges(&[cut]);
        let stranded = vec![TsDemand {
            origin: 0,
            dest: 2,
            at: 1,
            amount: 0.5,
        }];
        let err = residual_minimum_steps(&broken, &stranded).unwrap_err();
        assert!(matches!(err, McfError::BadTopology(_)));
        assert!(err.to_string().contains("unreachable"));
    }

    /// Warm seeds harvested from the nominal incumbent pool survive the
    /// puncture as valid suffixes, enter the master as seed columns, and leave
    /// the certified optimum unchanged.
    #[test]
    fn warm_seeds_enter_the_master_and_preserve_the_optimum() {
        let topo = generators::torus(&[3, 3]);
        let commodities = CommoditySet::all_pairs(topo.num_nodes());
        let steps = minimum_steps(&topo, &commodities).unwrap();
        let nominal = solve_tsmcf_colgen_among_with(
            &topo,
            commodities.clone(),
            steps,
            &ColGenOptions::default(),
        )
        .unwrap();
        assert!(!nominal.columns.is_empty());

        // Kill one edge the nominal plan uses, strand the affected shards one
        // hop downstream of their origins.
        let cut = topo.find_edge(0, 1).unwrap();
        let punctured = topo.without_edges(&[cut]);
        let demands: Vec<TsDemand> = commodities
            .iter()
            .filter(|&(_, s, d)| s != 4 && d != 4)
            .map(|(_, s, d)| TsDemand {
                origin: s,
                dest: d,
                at: s,
                amount: 1.0,
            })
            .collect();
        let warm = warm_seeds_from_columns(&nominal.columns, &commodities, &punctured, &demands);
        assert!(
            !warm.is_empty(),
            "origin holdings reuse whole incumbent paths"
        );
        for &(idx, ref p) in &warm {
            assert_eq!(p.source(), demands[idx].at);
            assert_eq!(p.dest(), demands[idx].dest);
            assert!(p.is_valid_in(&punctured));
        }
        let rsteps = residual_minimum_steps(&punctured, &demands).unwrap();
        let cold =
            solve_residual_colgen(&punctured, &demands, rsteps, &ColGenOptions::default(), &[])
                .unwrap();
        let warm_run = solve_residual_colgen(
            &punctured,
            &demands,
            rsteps,
            &ColGenOptions::default(),
            &warm,
        )
        .unwrap();
        assert!(cold.stats.proved_optimal && warm_run.stats.proved_optimal);
        assert!(
            warm_run.stats.seed_columns > cold.stats.seed_columns,
            "warm master starts with extra columns ({} vs {})",
            warm_run.stats.seed_columns,
            cold.stats.seed_columns
        );
        assert!(
            (warm_run.solution.total_utilization() - cold.solution.total_utilization()).abs()
                <= 1e-5 * (1.0 + cold.solution.total_utilization())
        );
    }

    /// Malformed demands fail with typed errors, never panics.
    #[test]
    fn malformed_demands_are_rejected() {
        let topo = generators::hypercube(2);
        let base = TsDemand {
            origin: 0,
            dest: 1,
            at: 0,
            amount: 1.0,
        };
        for bad in [
            vec![],
            vec![TsDemand {
                amount: 0.0,
                ..base
            }],
            vec![TsDemand {
                amount: f64::NAN,
                ..base
            }],
            vec![TsDemand { at: 1, ..base }],
            vec![TsDemand { dest: 9, ..base }],
        ] {
            assert!(matches!(
                residual_minimum_steps(&topo, &bad).unwrap_err(),
                McfError::BadArgument(_)
            ));
        }
        // Step budget below the residual diameter.
        assert!(matches!(
            solve_residual_colgen(&topo, &[base], 0, &ColGenOptions::default(), &[]).unwrap_err(),
            McfError::BadArgument(_)
        ));
        // Malformed options on a well-formed instance.
        for opts in ColGenOptions::malformed_numeric_cases() {
            assert!(matches!(
                solve_residual_colgen(&topo, &[base], 1, &opts, &[]).unwrap_err(),
                McfError::BadArgument(_)
            ));
        }
        // A malformed *plan* — an edge id or demand node outside the topology,
        // flows that are not `[demand][step]` — is one issue from the checker,
        // not an index panic.
        let plan = |demands: Vec<TsDemand>, flows| ResidualSolution {
            demands,
            steps: 1,
            step_utilization: vec![1.0],
            flows,
        };
        for bad in [
            plan(vec![base], vec![vec![vec![(topo.num_edges(), 1.0)]]]),
            plan(vec![base], vec![vec![]]),
            plan(vec![base], vec![]),
            plan(vec![TsDemand { dest: 9, ..base }], vec![vec![vec![]]]),
        ] {
            assert_eq!(bad.check_consistency(&topo, 1e-6).len(), 1);
        }
    }
}
