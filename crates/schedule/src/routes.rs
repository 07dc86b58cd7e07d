//! Lowering of weighted path schedules to per-commodity route tables.
//!
//! For HPC fabrics with NIC-based source routing (the Cerio card of §4/§5.1), the
//! lowering produces, per commodity: the list of routes (egress hop sequences), the
//! virtual-channel layer of each route (see [`crate::deadlock`]), and the number of
//! equal-sized chunks steered onto each route. The chunk counts approximate the MCF
//! weights with the highest-common-factor rule described in §4.

use a2a_mcf::PathSchedule;
use a2a_topology::{NodeId, Path, Topology};

use crate::deadlock::{assign_virtual_channels, LashVariant};

/// A single lowered route.
#[derive(Debug, Clone)]
pub struct Route {
    /// The node sequence of the route.
    pub path: Path,
    /// Fraction of the commodity's shard carried by this route (MCF weight).
    pub weight: f64,
    /// Number of chunks steered onto this route.
    pub chunks: usize,
    /// Virtual-channel layer assigned for deadlock freedom.
    pub layer: usize,
}

/// Route table of one commodity.
#[derive(Debug, Clone)]
pub struct CommodityRoutes {
    /// Source rank.
    pub src: NodeId,
    /// Destination rank.
    pub dst: NodeId,
    /// Routes with their chunk assignment.
    pub routes: Vec<Route>,
}

/// The lowered artefact for a path-based schedule: per-commodity route tables plus the
/// chunking parameters.
#[derive(Debug, Clone)]
pub struct RouteTable {
    /// Route tables, one per commodity in commodity-set order.
    pub commodities: Vec<CommodityRoutes>,
    /// Number of equal-sized chunks each shard is divided into.
    pub chunks_per_shard: usize,
    /// Number of virtual-channel layers used (the Cerio card supports up to 8 routes
    /// per destination and a small number of layers; §5.5 reports ≤ 4 in practice).
    pub num_layers: usize,
}

impl RouteTable {
    /// Total number of routes across all commodities.
    pub fn total_routes(&self) -> usize {
        self.commodities.iter().map(|c| c.routes.len()).sum()
    }

    /// Validates that chunk assignments cover each shard exactly, that routes
    /// join their commodity's endpoints, and that every layer is deadlock-free
    /// (its channel dependency graph has no cycle).
    pub fn validate(&self) -> Vec<String> {
        let mut issues = Vec::new();
        for c in &self.commodities {
            let total: usize = c.routes.iter().map(|r| r.chunks).sum();
            if total != self.chunks_per_shard {
                issues.push(format!(
                    "commodity {}->{}: {total} chunks assigned, expected {}",
                    c.src, c.dst, self.chunks_per_shard
                ));
            }
            for r in &c.routes {
                if r.path.source() != c.src || r.path.dest() != c.dst {
                    issues.push(format!(
                        "commodity {}->{}: route endpoints mismatch",
                        c.src, c.dst
                    ));
                }
                if r.layer >= self.num_layers {
                    issues.push(format!(
                        "commodity {}->{}: route layer {} out of range",
                        c.src, c.dst, r.layer
                    ));
                }
            }
        }
        for layer in self.cyclic_layers() {
            issues.push(format!(
                "layer {layer}: channel dependency graph has a cycle (deadlock)"
            ));
        }
        issues
    }

    /// Layers whose channel dependency graph (an arc from each link of a route
    /// to the next) has a cycle, by Kahn's algorithm over locally interned links,
    /// one layer at a time.
    fn cyclic_layers(&self) -> Vec<usize> {
        let routes = || self.commodities.iter().flat_map(|c| &c.routes);
        let layers_used = routes()
            .map(|r| r.layer)
            .filter(|&layer| layer < self.num_layers)
            .max()
            .map_or(0, |layer| layer + 1);
        // `link_ids[u]` holds `(v, id)` for each link `u → v` seen so far.
        let mut link_ids: Vec<Vec<(NodeId, usize)>> = Vec::new();
        // The layer's deduplicated dependency arcs out of each link id.
        let mut out: Vec<Vec<usize>> = Vec::new();
        let mut in_degree: Vec<usize> = Vec::new();
        let mut ready = Vec::new();
        let mut cyclic = Vec::new();
        for layer in 0..layers_used {
            out.iter_mut().for_each(Vec::clear);
            for r in routes().filter(|r| r.layer == layer) {
                let mut prev: Option<usize> = None;
                for (u, v) in r.path.links() {
                    if link_ids.len() <= u {
                        link_ids.resize_with(u + 1, Vec::new);
                    }
                    let id = match link_ids[u].iter().find(|&&(w, _)| w == v) {
                        Some(&(_, id)) => id,
                        None => {
                            link_ids[u].push((v, out.len()));
                            out.push(Vec::new());
                            out.len() - 1
                        }
                    };
                    if let Some(from) = prev {
                        if !out[from].contains(&id) {
                            out[from].push(id);
                        }
                    }
                    prev = Some(id);
                }
            }
            // Peel links of in-degree zero; any left over lie on a cycle.
            in_degree.clear();
            in_degree.resize(out.len(), 0);
            for &to in out.iter().flatten() {
                in_degree[to] += 1;
            }
            ready.extend((0..out.len()).filter(|&link| in_degree[link] == 0));
            let mut peeled = 0;
            while let Some(link) = ready.pop() {
                peeled += 1;
                for &to in &out[link] {
                    in_degree[to] -= 1;
                    if in_degree[to] == 0 {
                        ready.push(to);
                    }
                }
            }
            if peeled < out.len() {
                cyclic.push(layer);
            }
        }
        cyclic
    }
}

/// Lowers a weighted path schedule to a route table.
///
/// `chunk_resolution` bounds the number of chunks per shard: weights are approximated
/// by `round(weight * resolution)` chunks (with at least one chunk per kept route),
/// then rescaled so each shard is covered exactly. Deadlock-free layers are assigned
/// with the requested LASH variant.
pub fn lower_path_schedule(
    topo: &Topology,
    schedule: &PathSchedule,
    chunk_resolution: usize,
    lash: LashVariant,
) -> RouteTable {
    assert!(chunk_resolution >= 1, "chunk resolution must be positive");
    // The apportionment below orders routes by weight deficit; a NaN weight
    // would make that order meaningless (and used to silently tie under
    // `partial_cmp`), so reject it at the producer boundary.
    debug_assert!(
        schedule.paths.iter().flatten().all(|(_, w)| w.is_finite()),
        "path schedule weights must be finite"
    );
    // Assign virtual channels over the union of all paths.
    let all_paths: Vec<&Path> = schedule
        .paths
        .iter()
        .flat_map(|list| list.iter().map(|(p, _)| p))
        .collect();
    let vc = {
        let _obs = a2a_obs::span("schedule.lash");
        assign_virtual_channels(topo, &all_paths, lash)
    };

    let mut commodities = Vec::with_capacity(schedule.commodities.len());
    let mut flat_index = 0usize;
    for (idx, s, d) in schedule.commodities.iter() {
        let list = &schedule.paths[idx];
        // Apportion `chunk_resolution` whole chunks to the routes so that the chunk
        // shares track the MCF weights (largest-deficit rounding); routes that end up
        // with zero chunks are dropped from the table.
        let mut chunks = vec![0usize; list.len()];
        for _ in 0..chunk_resolution {
            let (best, _) = list
                .iter()
                .enumerate()
                .map(|(i, (_, w))| (i, w - chunks[i] as f64 / chunk_resolution as f64))
                .max_by(|a, b| a.1.total_cmp(&b.1))
                .expect("non-empty route list");
            chunks[best] += 1;
        }
        let mut routes = Vec::with_capacity(list.len());
        for ((p, w), &c) in list.iter().zip(&chunks) {
            let layer = vc.layer_of(flat_index);
            flat_index += 1;
            if c == 0 {
                continue;
            }
            routes.push(Route {
                path: p.clone(),
                weight: *w,
                chunks: c,
                layer,
            });
        }
        commodities.push(CommodityRoutes {
            src: s,
            dst: d,
            routes,
        });
    }
    RouteTable {
        commodities,
        chunks_per_shard: chunk_resolution,
        num_layers: vc.num_layers(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use a2a_mcf::pmcf::{solve_path_mcf, PathSetKind};
    use a2a_mcf::{extract_widest_paths, solve_link_mcf};
    use a2a_topology::generators;

    #[test]
    fn lowering_pmcf_covers_every_shard() {
        let topo = generators::hypercube(3);
        let sched = solve_path_mcf(&topo, PathSetKind::EdgeDisjoint).unwrap();
        let table = lower_path_schedule(&topo, &sched, 12, LashVariant::Sequential);
        assert!(table.validate().is_empty());
        assert_eq!(table.commodities.len(), 56);
        assert_eq!(table.chunks_per_shard, 12);
        assert!(
            table.commodities.iter().all(|c| c.routes.len() <= 8),
            "Cerio supports 8 routes/dst"
        );
    }

    #[test]
    fn lowering_extracted_mcf_routes() {
        let topo = generators::complete_bipartite(3, 3);
        let link = solve_link_mcf(&topo).unwrap();
        let sched = extract_widest_paths(&topo, &link).unwrap();
        let table = lower_path_schedule(&topo, &sched, 16, LashVariant::Basic);
        assert!(table.validate().is_empty());
        assert!(table.total_routes() >= table.commodities.len());
    }

    #[test]
    fn chunk_rounding_respects_resolution_exactly() {
        let topo = generators::torus(&[3, 3]);
        let link = solve_link_mcf(&topo).unwrap();
        let sched = extract_widest_paths(&topo, &link).unwrap();
        for resolution in [1usize, 3, 7, 32] {
            let table = lower_path_schedule(&topo, &sched, resolution, LashVariant::Sequential);
            for c in &table.commodities {
                let total: usize = c.routes.iter().map(|r| r.chunks).sum();
                assert_eq!(total, resolution);
            }
        }
    }

    #[test]
    fn layers_stay_small_on_evaluated_topologies() {
        // §5.5: LASH-sequential needed at most 4 layers across all algorithms and
        // topologies evaluated.
        for topo in [
            generators::hypercube(3),
            generators::complete_bipartite(4, 4),
            generators::torus(&[3, 3]),
        ] {
            let sched = solve_path_mcf(&topo, PathSetKind::EdgeDisjoint).unwrap();
            let table = lower_path_schedule(&topo, &sched, 8, LashVariant::Sequential);
            assert!(
                table.num_layers <= 4,
                "{}: {} layers needed",
                topo.name(),
                table.num_layers
            );
        }
    }
}
