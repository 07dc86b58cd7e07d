//! Fully polynomial-time approximation scheme (FPTAS) for the max-concurrent MCF.
//!
//! A Garg–Könemann / Fleischer style multiplicative-weights algorithm \[20, 26\]: link
//! lengths start tiny and are inflated multiplicatively every time flow is pushed over
//! a link; each phase routes one unit of every commodity along shortest paths under the
//! current lengths. At termination the accumulated flow, scaled down by the worst link
//! overload, is primal feasible and within `(1 - ε)` of the optimum. The paper uses
//! this as the scalable-but-approximate comparison point in Fig. 7: polynomial like the
//! decomposed MCF, but sequential and much slower in practice for small ε.

use std::time::Instant;

use a2a_mcf::{CommoditySet, LinkFlowSolution, McfError, McfResult};
use a2a_topology::{paths, Topology};

/// Options for the FPTAS.
#[derive(Debug, Clone)]
pub struct FptasOptions {
    /// Approximation parameter ε (the paper evaluates ε = 0.05).
    pub epsilon: f64,
    /// Safety cap on the number of phases (the theoretical bound is
    /// `O(log(m) / ε²)` phases; the cap only guards against pathological inputs).
    pub max_phases: usize,
}

impl Default for FptasOptions {
    fn default() -> Self {
        Self {
            epsilon: 0.05,
            max_phases: 100_000,
        }
    }
}

/// Result of an FPTAS run.
#[derive(Debug, Clone)]
pub struct FptasSolution {
    /// The (feasible, approximately optimal) concurrent flow and its per-commodity
    /// link flows.
    pub solution: LinkFlowSolution,
    /// Phases executed.
    pub phases: usize,
    /// Wall-clock runtime.
    pub elapsed_secs: f64,
}

/// Runs the FPTAS for an all-to-all among all nodes.
pub fn fptas_max_concurrent_flow(
    topo: &Topology,
    options: &FptasOptions,
) -> McfResult<FptasSolution> {
    let commodities = CommoditySet::all_pairs(topo.num_nodes());
    if !(0.0..1.0).contains(&options.epsilon) || options.epsilon <= 0.0 {
        return Err(McfError::BadArgument(format!(
            "epsilon must be in (0, 1), got {}",
            options.epsilon
        )));
    }
    let start = Instant::now();
    let eps = options.epsilon;
    let m = topo.num_edges() as f64;
    // Fleischer's δ: lengths start at δ / cap so that the dual value starts at m·δ.
    let delta = (m / (1.0 - eps)).powf(-1.0 / eps) * (1.0 - eps);

    let caps: Vec<f64> = topo.edges().iter().map(|e| e.capacity).collect();
    let mut lengths: Vec<f64> = caps.iter().map(|&c| delta / c).collect();
    let mut flows: Vec<std::collections::HashMap<usize, f64>> =
        vec![std::collections::HashMap::new(); commodities.len()];

    let dual =
        |lengths: &[f64]| -> f64 { lengths.iter().zip(&caps).map(|(&l, &c)| l * c).sum::<f64>() };

    let mut phases = 0usize;
    while dual(&lengths) < 1.0 && phases < options.max_phases {
        phases += 1;
        for (idx, s, d) in commodities.iter() {
            // Route one unit of commodity (s, d), possibly over several paths.
            let mut remaining = 1.0f64;
            while remaining > 1e-12 && dual(&lengths) < 1.0 {
                let path =
                    paths::weighted_shortest_path(topo, s, d, &lengths).ok_or_else(|| {
                        McfError::BadTopology(format!("destination {d} unreachable from {s}"))
                    })?;
                // Bottleneck capacity along the path limits one push.
                let mut bottleneck = f64::INFINITY;
                let mut edge_ids = Vec::with_capacity(path.hops());
                for (u, v) in path.links() {
                    let e = topo.find_edge(u, v).expect("path edges exist");
                    edge_ids.push(e);
                    bottleneck = bottleneck.min(caps[e]);
                }
                let pushed = remaining.min(bottleneck);
                for &e in &edge_ids {
                    *flows[idx].entry(e).or_insert(0.0) += pushed;
                    lengths[e] *= 1.0 + eps * pushed / caps[e];
                }
                remaining -= pushed;
            }
        }
    }
    if phases == 0 {
        return Err(McfError::BadArgument(
            "FPTAS performed no phases; epsilon is too large for this graph".into(),
        ));
    }

    // Primal extraction: the accumulated flow violates capacities by at most the
    // worst-loaded link's overload factor; scaling everything down by that factor is
    // feasible, and each commodity then carries `phases / overload` units — the
    // concurrent rate is the minimum over commodities.
    let mut edge_load = vec![0.0f64; topo.num_edges()];
    for per_commodity in &flows {
        for (&e, &f) in per_commodity {
            edge_load[e] += f;
        }
    }
    let overload = edge_load
        .iter()
        .zip(&caps)
        .map(|(&l, &c)| l / c)
        .fold(0.0f64, f64::max)
        .max(1e-30);
    let mut min_delivered = f64::INFINITY;
    let scaled: Vec<Vec<(usize, f64)>> = flows
        .iter()
        .enumerate()
        .map(|(idx, per_commodity)| {
            let (_, _, d) = {
                let (s, d) = commodities.pair(idx);
                (idx, s, d)
            };
            let mut delivered = 0.0;
            let list: Vec<(usize, f64)> = per_commodity
                .iter()
                .map(|(&e, &f)| {
                    let scaled = f / overload;
                    if topo.edge(e).dst == d {
                        delivered += scaled;
                    }
                    (e, scaled)
                })
                .collect();
            min_delivered = min_delivered.min(delivered);
            list
        })
        .collect();

    Ok(FptasSolution {
        solution: LinkFlowSolution {
            commodities,
            flow_value: min_delivered,
            flows: scaled,
        },
        phases,
        elapsed_secs: start.elapsed().as_secs_f64(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use a2a_mcf::solve_link_mcf;
    use a2a_topology::generators;

    fn check_near_optimal(topo: &Topology, eps: f64, slack: f64) {
        let exact = solve_link_mcf(topo).unwrap().flow_value;
        let approx = fptas_max_concurrent_flow(
            topo,
            &FptasOptions {
                epsilon: eps,
                ..FptasOptions::default()
            },
        )
        .unwrap();
        let f = approx.solution.flow_value;
        assert!(
            f >= (1.0 - slack) * exact,
            "{}: FPTAS {} vs exact {}",
            topo.name(),
            f,
            exact
        );
        // Feasibility: scaled loads never exceed capacity.
        assert!(approx.solution.max_link_utilization(topo) <= 1.0 + 1e-9);
        assert!(approx.phases > 0);
    }

    #[test]
    fn near_optimal_on_complete_graph() {
        check_near_optimal(&generators::complete(4), 0.05, 0.15);
    }

    #[test]
    fn near_optimal_on_hypercube() {
        check_near_optimal(&generators::hypercube(3), 0.1, 0.25);
    }

    #[test]
    fn near_optimal_on_directed_ring() {
        check_near_optimal(&generators::ring(4), 0.05, 0.15);
    }

    #[test]
    fn smaller_epsilon_takes_more_phases() {
        let topo = generators::hypercube(2);
        let coarse = fptas_max_concurrent_flow(
            &topo,
            &FptasOptions {
                epsilon: 0.3,
                ..FptasOptions::default()
            },
        )
        .unwrap();
        let fine = fptas_max_concurrent_flow(
            &topo,
            &FptasOptions {
                epsilon: 0.05,
                ..FptasOptions::default()
            },
        )
        .unwrap();
        assert!(fine.phases > coarse.phases);
    }

    #[test]
    fn invalid_epsilon_is_rejected() {
        let topo = generators::complete(3);
        for eps in [0.0, 1.0, -0.5, 2.0] {
            let err = fptas_max_concurrent_flow(
                &topo,
                &FptasOptions {
                    epsilon: eps,
                    ..FptasOptions::default()
                },
            )
            .unwrap_err();
            assert!(matches!(err, McfError::BadArgument(_)));
        }
    }
}
