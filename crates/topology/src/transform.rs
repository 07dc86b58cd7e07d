//! Graph transforms used by specific MCF formulations.
//!
//! * [`TimeExpanded`] — the layered, time-indexed copy of the topology over which the
//!   time-stepped MCF (§3.1.3) is solved.
//! * [`HostNicAugmented`] — the Fig. 2 augmentation that models a host-to-NIC
//!   bottleneck (`B_host < d·b`) by forcing traffic through per-node host vertices.

use crate::graph::{NodeId, Topology};

/// A time-expanded copy of a topology with `steps + 1` layers.
///
/// Layer `t` node `v` is a distinct vertex; fabric edges connect layer `t` to layer
/// `t + 1`, and infinite-capacity "self" edges model buffering at a node across a step.
#[derive(Debug, Clone)]
pub struct TimeExpanded {
    /// The expanded graph with `(steps + 1) * base_nodes` vertices.
    pub graph: Topology,
    /// Number of communication steps (`l_max` in the paper).
    pub steps: usize,
    /// Number of nodes of the base topology.
    pub base_nodes: usize,
}

impl TimeExpanded {
    /// Builds the time expansion of `topo` over `steps` communication steps.
    ///
    /// # Panics
    /// Panics if `steps == 0`.
    pub fn build(topo: &Topology, steps: usize) -> Self {
        assert!(steps >= 1, "at least one communication step is required");
        let n = topo.num_nodes();
        let mut graph = Topology::new(n * (steps + 1), format!("{}-timex{}", topo.name(), steps));
        for t in 0..steps {
            for e in topo.edges() {
                graph.add_edge(t * n + e.src, (t + 1) * n + e.dst, e.capacity);
            }
            for v in 0..n {
                // Buffering at v between steps: infinite capacity self edge.
                graph.add_edge(t * n + v, (t + 1) * n + v, f64::INFINITY);
            }
        }
        Self {
            graph,
            steps,
            base_nodes: n,
        }
    }

    /// Vertex representing base node `v` at time layer `t` (`0 <= t <= steps`).
    pub fn node_at(&self, t: usize, v: NodeId) -> NodeId {
        assert!(t <= self.steps && v < self.base_nodes);
        t * self.base_nodes + v
    }

    /// Time layer of an expanded vertex.
    pub fn layer_of(&self, node: NodeId) -> usize {
        node / self.base_nodes
    }

    /// Base node of an expanded vertex.
    pub fn base_of(&self, node: NodeId) -> NodeId {
        node % self.base_nodes
    }

    /// True if the expanded edge is a buffering ("self") edge.
    pub fn is_self_edge(&self, edge: usize) -> bool {
        let e = self.graph.edge(edge);
        self.base_of(e.src) == self.base_of(e.dst)
    }
}

/// The Fig. 2 host-bottleneck augmentation of a NIC-level topology.
///
/// Every original node `i` becomes three vertices: `nic_in[i]`, `nic_out[i]` and
/// `host[i]`. NIC-to-NIC fabric links connect `nic_out[u] -> nic_in[v]`; traffic can
/// only cross a node through its host (`nic_in -> host -> nic_out`), each direction
/// capped at the host injection bandwidth. All-to-all commodities run between host
/// vertices.
#[derive(Debug, Clone)]
pub struct HostNicAugmented {
    /// The augmented graph with `3 * n` vertices.
    pub graph: Topology,
    /// Host vertex of each original node.
    pub hosts: Vec<NodeId>,
    /// NIC ingress vertex of each original node.
    pub nic_in: Vec<NodeId>,
    /// NIC egress vertex of each original node.
    pub nic_out: Vec<NodeId>,
}

impl HostNicAugmented {
    /// Builds the augmentation. `host_bandwidth` is expressed in the same unit as the
    /// link capacities of `topo` (e.g. link capacity 1.0 and `host_bandwidth = 4.0`
    /// models a host that can inject four link-widths of traffic).
    pub fn build(topo: &Topology, host_bandwidth: f64) -> Self {
        assert!(host_bandwidth > 0.0, "host bandwidth must be positive");
        let n = topo.num_nodes();
        let mut graph = Topology::new(3 * n, format!("{}-hostnic", topo.name()));
        let nic_in: Vec<NodeId> = (0..n).collect();
        let nic_out: Vec<NodeId> = (n..2 * n).collect();
        let hosts: Vec<NodeId> = (2 * n..3 * n).collect();
        for i in 0..n {
            graph.add_edge(nic_in[i], hosts[i], host_bandwidth);
            graph.add_edge(hosts[i], nic_out[i], host_bandwidth);
        }
        for e in topo.edges() {
            graph.add_edge(nic_out[e.src], nic_in[e.dst], e.capacity);
        }
        Self {
            graph,
            hosts,
            nic_in,
            nic_out,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn time_expansion_sizes() {
        let base = generators::bidirectional_ring(4);
        let tx = TimeExpanded::build(&base, 3);
        assert_eq!(tx.graph.num_nodes(), 4 * 4);
        // Each step: |E| fabric edges + |V| self edges.
        assert_eq!(tx.graph.num_edges(), 3 * (base.num_edges() + 4));
        assert_eq!(tx.node_at(2, 1), 9);
        assert_eq!(tx.layer_of(9), 2);
        assert_eq!(tx.base_of(9), 1);
    }

    #[test]
    fn time_expansion_is_a_dag_across_layers() {
        let base = generators::hypercube(2);
        let tx = TimeExpanded::build(&base, 2);
        for e in tx.graph.edges() {
            assert_eq!(tx.layer_of(e.dst), tx.layer_of(e.src) + 1);
        }
    }

    #[test]
    fn self_edges_have_infinite_capacity() {
        let base = generators::bidirectional_ring(3);
        let tx = TimeExpanded::build(&base, 2);
        let mut self_edges = 0;
        for id in 0..tx.graph.num_edges() {
            if tx.is_self_edge(id) {
                self_edges += 1;
                assert_eq!(tx.graph.edge(id).capacity, f64::INFINITY);
            } else {
                assert_eq!(tx.graph.edge(id).capacity, 1.0);
            }
        }
        assert_eq!(self_edges, 3 * 2);
    }

    #[test]
    #[should_panic(expected = "at least one communication step")]
    fn zero_steps_is_rejected() {
        TimeExpanded::build(&generators::bidirectional_ring(3), 0);
    }

    #[test]
    fn host_nic_augmentation_matches_fig2_shape() {
        // Fig. 2 example: a 4-node ring of NICs.
        let base = generators::bidirectional_ring(4);
        let aug = HostNicAugmented::build(&base, 2.0);
        assert_eq!(aug.graph.num_nodes(), 12);
        assert_eq!(aug.hosts.len(), 4);
        // Edges: 2 per node (in->host, host->out) + original fabric edges.
        assert_eq!(aug.graph.num_edges(), 2 * 4 + base.num_edges());
        // Traffic cannot bypass the host: no nic_in -> nic_out edge.
        for i in 0..4 {
            assert!(!aug.graph.has_edge(aug.nic_in[i], aug.nic_out[i]));
            assert!(aug.graph.has_edge(aug.nic_in[i], aug.hosts[i]));
            assert!(aug.graph.has_edge(aug.hosts[i], aug.nic_out[i]));
            assert_eq!(
                aug.graph
                    .find_edge(aug.nic_in[i], aug.hosts[i])
                    .map(|e| aug.graph.edge(e).capacity),
                Some(2.0)
            );
        }
        // Fabric edges connect nic_out -> nic_in of neighbours.
        assert!(aug.graph.has_edge(aug.nic_out[0], aug.nic_in[1]));
        // Hosts can reach every other host.
        let dist = aug.graph.bfs_distances(aug.hosts[0]);
        for &h in &aug.hosts {
            assert!(dist[h].is_some());
        }
    }
}
