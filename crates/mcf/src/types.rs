//! Shared types: commodity sets, flow solutions and weighted path schedules.

use a2a_topology::{EdgeId, NodeId, Path, Topology};

/// Errors produced by the MCF algorithms.
#[derive(Debug, Clone, PartialEq)]
pub enum McfError {
    /// The underlying LP failed (infeasible, unbounded or numerically).
    Lp(String),
    /// The topology cannot support the requested all-to-all (e.g. not strongly
    /// connected, or a commodity endpoint is missing).
    BadTopology(String),
    /// An invalid argument was supplied (e.g. zero steps, empty path set).
    BadArgument(String),
}

impl std::fmt::Display for McfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            McfError::Lp(msg) => write!(f, "LP failure: {msg}"),
            McfError::BadTopology(msg) => write!(f, "bad topology: {msg}"),
            McfError::BadArgument(msg) => write!(f, "bad argument: {msg}"),
        }
    }
}

impl std::error::Error for McfError {}

impl From<a2a_lp::LpError> for McfError {
    fn from(e: a2a_lp::LpError) -> Self {
        McfError::Lp(e.to_string())
    }
}

/// Result alias for MCF computations.
pub type McfResult<T> = Result<T, McfError>;

/// The set of commodities of an all-to-all collective: every ordered pair of distinct
/// *endpoint* nodes. Endpoints are usually all nodes of the topology, but can be a
/// subset (e.g. only the host vertices of a [`a2a_topology::transform::HostNicAugmented`]
/// graph).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommoditySet {
    endpoints: Vec<NodeId>,
}

impl CommoditySet {
    /// All-to-all among nodes `0..n`.
    pub fn all_pairs(n: usize) -> Self {
        Self {
            endpoints: (0..n).collect(),
        }
    }

    /// All-to-all among an explicit list of endpoint nodes.
    ///
    /// # Panics
    /// Panics if the list contains duplicates or fewer than two nodes.
    pub fn among(endpoints: Vec<NodeId>) -> Self {
        assert!(endpoints.len() >= 2, "need at least two endpoints");
        let unique: std::collections::HashSet<_> = endpoints.iter().collect();
        assert_eq!(unique.len(), endpoints.len(), "duplicate endpoints");
        Self { endpoints }
    }

    /// The endpoint nodes.
    pub fn endpoints(&self) -> &[NodeId] {
        &self.endpoints
    }

    /// Number of endpoints.
    pub fn num_endpoints(&self) -> usize {
        self.endpoints.len()
    }

    /// Number of commodities (`k * (k - 1)`).
    pub fn len(&self) -> usize {
        let k = self.endpoints.len();
        k * (k - 1)
    }

    /// True if there are no commodities (single endpoint).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `(source, destination)` pair of commodity `idx`.
    pub fn pair(&self, idx: usize) -> (NodeId, NodeId) {
        let k = self.endpoints.len();
        let s = idx / (k - 1);
        let mut d = idx % (k - 1);
        if d >= s {
            d += 1;
        }
        (self.endpoints[s], self.endpoints[d])
    }

    /// Index of the commodity with the given endpoints, if both are endpoints and
    /// distinct.
    pub fn index_of(&self, src: NodeId, dst: NodeId) -> Option<usize> {
        if src == dst {
            return None;
        }
        let k = self.endpoints.len();
        let s = self.endpoints.iter().position(|&e| e == src)?;
        let d = self.endpoints.iter().position(|&e| e == dst)?;
        let d_adj = if d > s { d - 1 } else { d };
        Some(s * (k - 1) + d_adj)
    }

    /// Iterates `(commodity index, source, destination)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, NodeId, NodeId)> + '_ {
        (0..self.len()).map(move |i| {
            let (s, d) = self.pair(i);
            (i, s, d)
        })
    }
}

/// Per-commodity, per-edge fractional flows plus the concurrent flow value `F`.
///
/// Flow units are "shards per unit time at unit link capacity": a commodity flowing at
/// rate `F` over links of capacity 1 completes one shard every `1/F` time units.
#[derive(Debug, Clone)]
pub struct LinkFlowSolution {
    /// Commodities the flows refer to.
    pub commodities: CommoditySet,
    /// Optimal concurrent flow value `F`.
    pub flow_value: f64,
    /// For each commodity (indexed as in [`CommoditySet`]), the list of `(edge, flow)`
    /// pairs with strictly positive flow.
    pub flows: Vec<Vec<(EdgeId, f64)>>,
}

impl LinkFlowSolution {
    /// Aggregate load per edge (sum over commodities), indexed by [`EdgeId`].
    fn edge_loads(&self, topo: &Topology) -> Vec<f64> {
        let mut loads = vec![0.0; topo.num_edges()];
        for per_commodity in &self.flows {
            for &(e, f) in per_commodity {
                loads[e] += f;
            }
        }
        loads
    }

    /// Maximum ratio of edge load to edge capacity.
    pub fn max_link_utilization(&self, topo: &Topology) -> f64 {
        self.edge_loads(topo)
            .iter()
            .enumerate()
            .map(|(e, &load)| load / topo.edge(e).capacity)
            .fold(0.0, f64::max)
    }

    /// Checks approximate flow conservation and demand satisfaction; returns a list of
    /// human-readable violations (empty when the solution is consistent).
    pub fn check_consistency(&self, topo: &Topology, tol: f64) -> Vec<String> {
        let mut issues = Vec::new();
        for (idx, s, d) in self.commodities.iter() {
            let mut balance = vec![0.0f64; topo.num_nodes()];
            for &(e, f) in &self.flows[idx] {
                let edge = topo.edge(e);
                balance[edge.src] -= f;
                balance[edge.dst] += f;
                if f < -tol {
                    issues.push(format!("commodity {s}->{d}: negative flow on edge {e}"));
                }
            }
            if balance[d] + tol < self.flow_value {
                issues.push(format!(
                    "commodity {s}->{d}: delivered {} < F = {}",
                    balance[d], self.flow_value
                ));
            }
            for (u, &b) in balance.iter().enumerate() {
                if u != s && u != d && b < -tol {
                    issues.push(format!(
                        "commodity {s}->{d}: node {u} forwards more than it receives ({b})"
                    ));
                }
            }
        }
        issues
    }
}

/// A weighted multi-path schedule: for each commodity, a set of paths with the fraction
/// of the shard that should travel along each path.
#[derive(Debug, Clone)]
pub struct PathSchedule {
    /// Commodities the schedule covers.
    pub commodities: CommoditySet,
    /// Concurrent flow value `F` achieved by the schedule (in the same units as
    /// [`LinkFlowSolution::flow_value`]); equals `1 / max link load` when weights are
    /// normalised per commodity.
    pub flow_value: f64,
    /// For each commodity, `(path, weight)` pairs. Weights are fractions of the shard
    /// and sum to 1 per commodity (within floating-point tolerance).
    pub paths: Vec<Vec<(Path, f64)>>,
}

impl PathSchedule {
    /// Builds a schedule from raw (possibly unnormalised) path weights, normalising
    /// each commodity's weights to sum to 1.
    ///
    /// # Panics
    /// Panics if some commodity has no paths or non-positive total weight.
    pub fn from_weighted_paths(
        commodities: CommoditySet,
        flow_value: f64,
        raw: Vec<Vec<(Path, f64)>>,
    ) -> Self {
        assert_eq!(raw.len(), commodities.len(), "one path list per commodity");
        let paths = raw
            .into_iter()
            .enumerate()
            .map(|(idx, list)| {
                let total: f64 = list.iter().map(|(_, w)| w).sum();
                let (s, d) = commodities.pair(idx);
                assert!(
                    !list.is_empty() && total > 0.0,
                    "commodity {s}->{d} has no usable paths"
                );
                list.into_iter().map(|(p, w)| (p, w / total)).collect()
            })
            .collect();
        Self {
            commodities,
            flow_value,
            paths,
        }
    }

    /// Number of paths across all commodities.
    pub fn total_paths(&self) -> usize {
        self.paths.iter().map(Vec::len).sum()
    }

    /// Largest number of paths used by any single commodity.
    pub fn max_paths_per_commodity(&self) -> usize {
        self.paths.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Checks that every path connects its commodity endpoints, lies in `topo`, and
    /// that weights are normalised. Returns human-readable violations.
    pub fn check_consistency(&self, topo: &Topology, tol: f64) -> Vec<String> {
        let mut issues = Vec::new();
        for (idx, s, d) in self.commodities.iter() {
            let mut total = 0.0;
            for (p, w) in &self.paths[idx] {
                total += w;
                if p.source() != s || p.dest() != d {
                    issues.push(format!(
                        "commodity {s}->{d}: path endpoints {}->{} mismatch",
                        p.source(),
                        p.dest()
                    ));
                }
                if !p.is_valid_in(topo) {
                    issues.push(format!("commodity {s}->{d}: path uses a missing edge"));
                }
                if *w <= 0.0 {
                    issues.push(format!("commodity {s}->{d}: non-positive weight {w}"));
                }
            }
            if (total - 1.0).abs() > tol {
                issues.push(format!(
                    "commodity {s}->{d}: weights sum to {total}, expected 1"
                ));
            }
        }
        issues
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use a2a_topology::generators;

    #[test]
    fn commodity_indexing_roundtrips() {
        let c = CommoditySet::all_pairs(5);
        assert_eq!(c.len(), 20);
        for idx in 0..c.len() {
            let (s, d) = c.pair(idx);
            assert_ne!(s, d);
            assert_eq!(c.index_of(s, d), Some(idx));
        }
        assert_eq!(c.index_of(1, 1), None);
        assert_eq!(c.index_of(0, 9), None);
    }

    #[test]
    fn commodity_subset_uses_listed_endpoints() {
        let c = CommoditySet::among(vec![4, 7, 9]);
        assert_eq!(c.len(), 6);
        assert_eq!(c.num_endpoints(), 3);
        let pairs: Vec<_> = c.iter().map(|(_, s, d)| (s, d)).collect();
        assert!(pairs.contains(&(4, 7)));
        assert!(pairs.contains(&(9, 4)));
        assert!(!pairs.contains(&(4, 4)));
        assert!(!c.is_empty());
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_endpoints_rejected() {
        CommoditySet::among(vec![1, 2, 1]);
    }

    #[test]
    fn link_flow_edge_loads_and_utilization() {
        let topo = generators::bidirectional_ring(3);
        let commodities = CommoditySet::all_pairs(3);
        let mut flows = vec![Vec::new(); commodities.len()];
        // Commodity 0->1 sends 0.5 along edge (0,1).
        let e01 = topo.find_edge(0, 1).unwrap();
        flows[commodities.index_of(0, 1).unwrap()] = vec![(e01, 0.5)];
        let sol = LinkFlowSolution {
            commodities,
            flow_value: 0.5,
            flows,
        };
        let loads = sol.edge_loads(&topo);
        assert_eq!(loads[e01], 0.5);
        assert_eq!(sol.max_link_utilization(&topo), 0.5);
    }

    #[test]
    fn link_flow_consistency_flags_underdelivery() {
        let topo = generators::bidirectional_ring(3);
        let commodities = CommoditySet::all_pairs(3);
        let flows = vec![Vec::new(); commodities.len()];
        let sol = LinkFlowSolution {
            commodities,
            flow_value: 0.25,
            flows,
        };
        let issues = sol.check_consistency(&topo, 1e-9);
        assert!(!issues.is_empty());
        assert!(issues[0].contains("delivered"));
    }

    #[test]
    fn path_schedule_normalises_weights() {
        let topo = generators::bidirectional_ring(3);
        let commodities = CommoditySet::all_pairs(3);
        let raw: Vec<Vec<(Path, f64)>> = commodities
            .iter()
            .map(|(_, s, d)| {
                let p = a2a_topology::paths::shortest_path(&topo, s, d).unwrap();
                vec![(p, 2.0)]
            })
            .collect();
        let sched = PathSchedule::from_weighted_paths(commodities, 0.5, raw);
        assert!(sched.check_consistency(&topo, 1e-9).is_empty());
        assert_eq!(sched.total_paths(), 6);
        assert_eq!(sched.max_paths_per_commodity(), 1);
        for list in &sched.paths {
            let total: f64 = list.iter().map(|(_, w)| w).sum();
            assert!((total - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn path_schedule_consistency_detects_bad_paths() {
        let topo = generators::bidirectional_ring(4);
        let commodities = CommoditySet::all_pairs(3);
        let raw: Vec<Vec<(Path, f64)>> = commodities
            .iter()
            .map(|(_, s, d)| {
                // Deliberately wrong: always the 0->1 path.
                let p = Path::new(vec![0, 1]);
                let _ = (s, d);
                vec![(p, 1.0)]
            })
            .collect();
        let sched = PathSchedule::from_weighted_paths(commodities, 1.0, raw);
        let issues = sched.check_consistency(&topo, 1e-9);
        assert!(issues.iter().any(|m| m.contains("mismatch")));
    }

    #[test]
    fn mcf_error_display() {
        let e = McfError::BadTopology("not connected".into());
        assert!(e.to_string().contains("not connected"));
        let lp_err: McfError = a2a_lp::LpError::Infeasible.into();
        assert!(lp_err.to_string().contains("infeasible"));
    }
}
