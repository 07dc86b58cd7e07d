//! Widest-path extraction (MCF-extP, §3.2.1).
//!
//! For source-routed fabrics on topologies with high path diversity (tori), the paper
//! first solves the decomposed link MCF and then greedily extracts, per commodity, a
//! small set of high-rate paths from the per-link flows: repeatedly find the `s -> d`
//! path with the maximum bottleneck flow (a widest-path / max-min Dijkstra), subtract
//! its rate, and repeat until the flow is exhausted.
//!
//! One serial pass extracts every commodity through one `Widest` scratch sized
//! by the fabric: a dense residual per edge (0 marks an absent edge, since a live
//! entry always exceeds `EXTRACT_TOL`) with a count of its live entries, and the
//! Dijkstra's node arrays, heap and path buffer. No commodity allocates beyond
//! its own paths. Per-commodity work is a few microseconds, far below the cost
//! of fanning it out to threads.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use a2a_topology::{EdgeId, NodeId, Path, Topology};

use crate::analysis::effective_flow_value;
use crate::types::{LinkFlowSolution, McfError, McfResult, PathSchedule};

/// Flow below which residual capacity is treated as exhausted.
const EXTRACT_TOL: f64 = 1e-7;

/// Extracts a weighted path schedule from per-commodity link flows.
///
/// Every commodity must have a positive flow reaching its destination, on
/// edges of `topo`; the resulting schedule's `flow_value` is the *effective*
/// concurrent rate `1 / max link load` achieved when every commodity ships one
/// shard split across its extracted paths.
pub fn extract_widest_paths(
    topo: &Topology,
    solution: &LinkFlowSolution,
) -> McfResult<PathSchedule> {
    let mut widest = Widest::new(topo);
    let mut raw = Vec::with_capacity(solution.commodities.len());
    for (idx, s, d) in solution.commodities.iter() {
        raw.push(widest.extract_commodity(topo, s, d, &solution.flows[idx])?);
    }
    let mut schedule =
        PathSchedule::from_weighted_paths(solution.commodities.clone(), solution.flow_value, raw);
    schedule.flow_value = effective_flow_value(topo, &schedule);
    Ok(schedule)
}

/// Heap entry of the widest-path search: a node and the bottleneck width it was
/// reached with.
#[derive(PartialEq)]
struct Item {
    width: f64,
    node: NodeId,
}

impl Eq for Item {}

impl PartialOrd for Item {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Item {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap by width.
        self.width
            .partial_cmp(&other.width)
            .unwrap_or(Ordering::Equal)
    }
}

/// Scratch of one [`extract_widest_paths`] call, reused by every commodity.
struct Widest {
    /// Residual flow per edge; 0 where the commodity has none left.
    residual: Vec<f64>,
    /// Number of nonzero `residual` entries.
    live: usize,
    best_width: Vec<f64>,
    /// Edge into each node on its widest path; read only for nodes the current
    /// search reached.
    prev_edge: Vec<EdgeId>,
    heap: BinaryHeap<Item>,
    /// Edges of the last widest path, source first.
    path: Vec<EdgeId>,
}

impl Widest {
    fn new(topo: &Topology) -> Self {
        Self {
            residual: vec![0.0; topo.num_edges()],
            live: 0,
            best_width: vec![0.0; topo.num_nodes()],
            prev_edge: vec![0; topo.num_nodes()],
            heap: BinaryHeap::new(),
            path: Vec::new(),
        }
    }

    /// Extracts the weighted paths of a single commodity from its link flows.
    /// Entries at or below `EXTRACT_TOL` are ignored; a repeated edge keeps its
    /// last value.
    fn extract_commodity(
        &mut self,
        topo: &Topology,
        s: NodeId,
        d: NodeId,
        flows: &[(EdgeId, f64)],
    ) -> McfResult<Vec<(Path, f64)>> {
        for &(e, f) in flows {
            if e >= self.residual.len() {
                return Err(McfError::BadArgument(format!(
                    "commodity {s}->{d} has flow on edge {e}, which the fabric lacks"
                )));
            }
            if f > EXTRACT_TOL {
                if self.residual[e] == 0.0 {
                    self.live += 1;
                }
                self.residual[e] = f;
            }
        }
        if self.live == 0 {
            return Err(McfError::BadArgument(format!(
                "commodity {s}->{d} has no positive flow to extract"
            )));
        }
        let mut result: Vec<(Path, f64)> = Vec::new();
        while let Some(width) = self.widest_path(topo, s, d) {
            if width <= EXTRACT_TOL {
                break;
            }
            let mut nodes = Vec::with_capacity(self.path.len() + 1);
            nodes.push(s);
            for &e in &self.path {
                nodes.push(topo.edge(e).dst);
                let remaining = &mut self.residual[e];
                *remaining -= width;
                if *remaining <= EXTRACT_TOL {
                    *remaining = 0.0;
                    self.live -= 1;
                }
            }
            result.push((Path::new(nodes), width));
            if self.live == 0 {
                break;
            }
        }
        for &(e, _) in flows {
            self.residual[e] = 0.0;
        }
        self.live = 0;
        if result.is_empty() {
            return Err(McfError::BadArgument(format!(
                "no {s}->{d} path could be extracted from the flow"
            )));
        }
        Ok(result)
    }

    /// Widest (maximum-bottleneck) path from `s` to `d` over the residual flow
    /// graph. Leaves its edges in `self.path` and returns its bottleneck width.
    fn widest_path(&mut self, topo: &Topology, s: NodeId, d: NodeId) -> Option<f64> {
        let best_width = &mut self.best_width;
        best_width.fill(0.0);
        best_width[s] = f64::INFINITY;
        self.heap.clear();
        self.heap.push(Item {
            width: f64::INFINITY,
            node: s,
        });
        while let Some(Item { width, node }) = self.heap.pop() {
            if width < best_width[node] {
                continue;
            }
            if node == d {
                break;
            }
            for &e in topo.out_edges(node) {
                let avail = self.residual[e];
                if avail == 0.0 {
                    continue;
                }
                let through = width.min(avail);
                let dst = topo.edge(e).dst;
                if through > best_width[dst] {
                    best_width[dst] = through;
                    self.prev_edge[dst] = e;
                    self.heap.push(Item {
                        width: through,
                        node: dst,
                    });
                }
            }
        }
        if best_width[d] <= 0.0 {
            return None;
        }
        self.path.clear();
        let mut cur = d;
        while cur != s {
            let e = self.prev_edge[cur];
            self.path.push(e);
            cur = topo.edge(e).src;
        }
        self.path.reverse();
        Some(best_width[d])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomposed::solve_decomposed_mcf;
    use crate::linkmcf::solve_link_mcf;
    use crate::types::CommoditySet;
    use a2a_topology::generators;

    #[test]
    fn extraction_on_complete_graph_uses_direct_links() {
        let topo = generators::complete(4);
        let sol = solve_link_mcf(&topo).unwrap();
        let sched = extract_widest_paths(&topo, &sol).unwrap();
        assert!(sched.check_consistency(&topo, 1e-6).is_empty());
        // Direct exchange: flow value 1 and every commodity uses (mostly) its own link.
        assert!(
            (sched.flow_value - 1.0).abs() < 1e-5,
            "{}",
            sched.flow_value
        );
    }

    #[test]
    fn extraction_preserves_near_optimal_rate_on_hypercube() {
        let topo = generators::hypercube(3);
        let sol = solve_decomposed_mcf(&topo).unwrap().solution;
        let sched = extract_widest_paths(&topo, &sol).unwrap();
        assert!(sched.check_consistency(&topo, 1e-6).is_empty());
        // MCF-extP should recover (close to) the optimal 1/4 on Q3.
        assert!(
            sched.flow_value >= 0.95 * sol.flow_value,
            "extracted rate {} vs optimal {}",
            sched.flow_value,
            sol.flow_value
        );
    }

    #[test]
    fn extraction_fails_cleanly_on_empty_flow() {
        let topo = generators::complete(3);
        let commodities = CommoditySet::all_pairs(3);
        let empty = LinkFlowSolution {
            flows: vec![Vec::new(); commodities.len()],
            commodities,
            flow_value: 0.5,
        };
        assert!(matches!(
            extract_widest_paths(&topo, &empty),
            Err(McfError::BadArgument(_))
        ));
    }

    #[test]
    fn widest_path_prefers_fat_routes() {
        // Two routes 0->1->3 (width 2) and 0->2->3 (width 5): the widest path must take
        // the second one.
        let mut topo = Topology::new(4, "diamond");
        let a = topo.add_edge(0, 1, 1.0);
        let b = topo.add_edge(1, 3, 1.0);
        let c = topo.add_edge(0, 2, 1.0);
        let e = topo.add_edge(2, 3, 1.0);
        let mut widest = Widest::new(&topo);
        for (edge, flow) in [(a, 2.0), (b, 2.0), (c, 5.0), (e, 5.0)] {
            widest.residual[edge] = flow;
        }
        let width = widest.widest_path(&topo, 0, 3).unwrap();
        assert_eq!(widest.path, vec![c, e]);
        assert!((width - 5.0).abs() < 1e-12);
    }

    #[test]
    fn extraction_splits_flow_across_parallel_routes() {
        // Source 0 -> dest 3 through two disjoint 2-hop routes, each carrying 0.5.
        let mut topo = Topology::new(4, "diamond");
        topo.add_edge(0, 1, 1.0);
        topo.add_edge(1, 3, 1.0);
        topo.add_edge(0, 2, 1.0);
        topo.add_edge(2, 3, 1.0);
        let flows = vec![
            (topo.find_edge(0, 1).unwrap(), 0.5),
            (topo.find_edge(1, 3).unwrap(), 0.5),
            (topo.find_edge(0, 2).unwrap(), 0.5),
            (topo.find_edge(2, 3).unwrap(), 0.5),
        ];
        let mut widest = Widest::new(&topo);
        let paths = widest.extract_commodity(&topo, 0, 3, &flows).unwrap();
        assert_eq!(paths.len(), 2);
        let total: f64 = paths.iter().map(|(_, w)| w).sum();
        assert!((total - 1.0).abs() < 1e-9);
        // The scratch is clean for the next commodity.
        assert_eq!(widest.live, 0);
        assert!(widest.residual.iter().all(|&f| f == 0.0));
    }

    #[test]
    fn a_flow_off_the_fabric_names_its_commodity_and_edge() {
        // A usable 0 -> 1 -> 3 route beside a flow on edge 7 of a 4-edge fabric.
        let mut topo = Topology::new(4, "diamond");
        topo.add_edge(0, 1, 1.0);
        topo.add_edge(1, 3, 1.0);
        topo.add_edge(0, 2, 1.0);
        topo.add_edge(2, 3, 1.0);
        let flows = [(0, 0.5), (1, 0.5), (7, 0.5)];
        match Widest::new(&topo).extract_commodity(&topo, 0, 3, &flows) {
            Err(McfError::BadArgument(message)) => {
                assert!(
                    message.contains("0->3") && message.contains("edge 7"),
                    "{message}"
                );
            }
            other => panic!("expected BadArgument, got {other:?}"),
        }
    }
}
