//! The [`Topology`] container: a directed graph with per-edge capacities.
//!
//! Nodes are dense indices `0..num_nodes`. Edges are directed; a bidirectional
//! (full-duplex) link is represented by two directed edges. Capacities are expressed in
//! the same (arbitrary) bandwidth unit throughout the toolchain — the MCF formulations
//! work with capacity 1.0 per link unless stated otherwise.

/// Index of a node in a [`Topology`].
pub type NodeId = usize;

/// Index of a directed edge in a [`Topology`].
pub type EdgeId = usize;

/// A directed, capacitated edge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Capacity (bandwidth) of the edge, in link-bandwidth units.
    pub capacity: f64,
}

/// A directed graph with capacitated edges modelling a direct-connect fabric.
#[derive(Debug, Clone)]
pub struct Topology {
    name: String,
    num_nodes: usize,
    edges: Vec<Edge>,
    out_adj: Vec<Vec<EdgeId>>,
    in_adj: Vec<Vec<EdgeId>>,
}

impl Topology {
    /// Creates a topology with `num_nodes` nodes and no edges.
    pub fn new(num_nodes: usize, name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            num_nodes,
            edges: Vec::new(),
            out_adj: vec![Vec::new(); num_nodes],
            in_adj: vec![Vec::new(); num_nodes],
        }
    }

    /// Human-readable name of the topology (e.g. `"3d-torus-3x3x3"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the topology.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// All edges, indexable by [`EdgeId`].
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// A single edge.
    pub fn edge(&self, e: EdgeId) -> &Edge {
        &self.edges[e]
    }

    /// Adds a directed edge and returns its id.
    ///
    /// # Panics
    /// Panics on out-of-range endpoints, self loops, non-positive capacity, or if the
    /// directed edge already exists (parallel links should be modelled by capacity).
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId, capacity: f64) -> EdgeId {
        assert!(src < self.num_nodes, "source {src} out of range");
        assert!(dst < self.num_nodes, "destination {dst} out of range");
        assert_ne!(src, dst, "self loops are not allowed (node {src})");
        assert!(
            capacity > 0.0 && capacity.is_finite() || capacity == f64::INFINITY,
            "capacity must be positive, got {capacity}"
        );
        assert!(
            self.find_edge(src, dst).is_none(),
            "edge {src}->{dst} already exists; model parallel links via capacity"
        );
        let id = self.edges.len();
        self.edges.push(Edge { src, dst, capacity });
        self.out_adj[src].push(id);
        self.in_adj[dst].push(id);
        id
    }

    /// Adds a full-duplex link: two directed edges `a->b` and `b->a`, each of the given
    /// capacity. Returns the pair of edge ids.
    pub fn add_bidirectional(&mut self, a: NodeId, b: NodeId, capacity: f64) -> (EdgeId, EdgeId) {
        (self.add_edge(a, b, capacity), self.add_edge(b, a, capacity))
    }

    /// Looks up the directed edge `src -> dst`.
    pub fn find_edge(&self, src: NodeId, dst: NodeId) -> Option<EdgeId> {
        self.out_adj
            .get(src)?
            .iter()
            .copied()
            .find(|&e| self.edges[e].dst == dst)
    }

    /// True if the directed edge `src -> dst` exists.
    pub fn has_edge(&self, src: NodeId, dst: NodeId) -> bool {
        self.find_edge(src, dst).is_some()
    }

    /// Ids of edges leaving `node`.
    pub fn out_edges(&self, node: NodeId) -> &[EdgeId] {
        &self.out_adj[node]
    }

    /// Ids of edges entering `node`.
    pub fn in_edges(&self, node: NodeId) -> &[EdgeId] {
        &self.in_adj[node]
    }

    /// Out-neighbours of `node`.
    pub fn out_neighbors(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.out_adj[node].iter().map(move |&e| self.edges[e].dst)
    }

    /// In-neighbours of `node`.
    pub fn in_neighbors(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.in_adj[node].iter().map(move |&e| self.edges[e].src)
    }

    /// Out-degree of `node`.
    pub fn out_degree(&self, node: NodeId) -> usize {
        self.out_adj[node].len()
    }

    /// In-degree of `node`.
    pub fn in_degree(&self, node: NodeId) -> usize {
        self.in_adj[node].len()
    }

    /// If every node has identical out-degree and in-degree `d`, returns `Some(d)`.
    pub fn regular_degree(&self) -> Option<usize> {
        if self.num_nodes == 0 {
            return None;
        }
        let d = self.out_degree(0);
        for v in 0..self.num_nodes {
            if self.out_degree(v) != d || self.in_degree(v) != d {
                return None;
            }
        }
        Some(d)
    }

    /// Maximum out-degree over all nodes (0 for an empty graph).
    pub fn max_out_degree(&self) -> usize {
        (0..self.num_nodes)
            .map(|v| self.out_degree(v))
            .max()
            .unwrap_or(0)
    }

    /// Overwrites the capacity of an edge.
    pub fn set_capacity(&mut self, e: EdgeId, capacity: f64) {
        assert!(capacity > 0.0, "capacity must be positive");
        self.edges[e].capacity = capacity;
    }

    /// BFS hop distances from `src` to every node (`None` if unreachable).
    pub fn bfs_distances(&self, src: NodeId) -> Vec<Option<usize>> {
        let mut dist = vec![None; self.num_nodes];
        let mut queue = std::collections::VecDeque::new();
        dist[src] = Some(0);
        queue.push_back(src);
        while let Some(u) = queue.pop_front() {
            let du = dist[u].expect("queued nodes have distances");
            for v in self.out_neighbors(u) {
                if dist[v].is_none() {
                    dist[v] = Some(du + 1);
                    queue.push_back(v);
                }
            }
        }
        dist
    }

    /// True if every node can reach every other node.
    pub fn is_strongly_connected(&self) -> bool {
        if self.num_nodes == 0 {
            return true;
        }
        // Reachability from node 0 in G and in the reverse graph.
        let forward = self.bfs_distances(0);
        if forward.iter().any(Option::is_none) {
            return false;
        }
        let mut dist = vec![false; self.num_nodes];
        let mut queue = std::collections::VecDeque::new();
        dist[0] = true;
        queue.push_back(0);
        while let Some(u) = queue.pop_front() {
            for v in self.in_neighbors(u) {
                if !dist[v] {
                    dist[v] = true;
                    queue.push_back(v);
                }
            }
        }
        dist.into_iter().all(|d| d)
    }

    /// Builds a new topology with the given directed edges removed.
    pub fn without_edges(&self, removed: &[EdgeId]) -> Topology {
        let removed: std::collections::HashSet<EdgeId> = removed.iter().copied().collect();
        let mut out = Topology::new(self.num_nodes, format!("{}-punctured", self.name));
        for (id, e) in self.edges.iter().enumerate() {
            if !removed.contains(&id) {
                out.add_edge(e.src, e.dst, e.capacity);
            }
        }
        out
    }

    /// Builds the subgraph induced by `keep` (order defines the new node ids).
    ///
    /// Returns the subgraph and the mapping `new id -> old id`.
    pub fn induced_subgraph(&self, keep: &[NodeId]) -> (Topology, Vec<NodeId>) {
        let mut old_to_new = vec![usize::MAX; self.num_nodes];
        for (new, &old) in keep.iter().enumerate() {
            assert!(old < self.num_nodes, "node {old} out of range");
            assert_eq!(old_to_new[old], usize::MAX, "node {old} listed twice");
            old_to_new[old] = new;
        }
        let mut sub = Topology::new(keep.len(), format!("{}-sub{}", self.name, keep.len()));
        for e in &self.edges {
            let (ns, nd) = (old_to_new[e.src], old_to_new[e.dst]);
            if ns != usize::MAX && nd != usize::MAX {
                sub.add_edge(ns, nd, e.capacity);
            }
        }
        (sub, keep.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Topology {
        let mut t = Topology::new(3, "triangle");
        t.add_bidirectional(0, 1, 1.0);
        t.add_bidirectional(1, 2, 1.0);
        t.add_bidirectional(2, 0, 1.0);
        t
    }

    #[test]
    fn basic_construction_and_queries() {
        let t = triangle();
        assert_eq!(t.num_nodes(), 3);
        assert_eq!(t.num_edges(), 6);
        assert!(t.has_edge(0, 1));
        assert!(t.has_edge(1, 0));
        assert_eq!(t.out_degree(0), 2);
        assert_eq!(t.in_degree(0), 2);
        assert_eq!(t.regular_degree(), Some(2));
        assert_eq!(t.max_out_degree(), 2);
        assert_eq!(t.name(), "triangle");
        let neighbors: Vec<_> = t.out_neighbors(0).collect();
        assert_eq!(neighbors.len(), 2);
        assert!(neighbors.contains(&1) && neighbors.contains(&2));
    }

    #[test]
    #[should_panic(expected = "self loops")]
    fn self_loops_are_rejected() {
        let mut t = Topology::new(2, "t");
        t.add_edge(0, 0, 1.0);
    }

    #[test]
    #[should_panic(expected = "already exists")]
    fn duplicate_edges_are_rejected() {
        let mut t = Topology::new(2, "t");
        t.add_edge(0, 1, 1.0);
        t.add_edge(0, 1, 2.0);
    }

    #[test]
    fn capacities_can_be_updated() {
        let mut t = triangle();
        let e = t.find_edge(0, 1).unwrap();
        t.set_capacity(e, 4.0);
        assert_eq!(t.edge(e).capacity, 4.0);
    }

    #[test]
    fn bfs_and_connectivity() {
        let t = triangle();
        let d = t.bfs_distances(0);
        assert_eq!(d, vec![Some(0), Some(1), Some(1)]);
        assert!(t.is_strongly_connected());

        // A directed path 0 -> 1 -> 2 is not strongly connected.
        let mut p = Topology::new(3, "path");
        p.add_edge(0, 1, 1.0);
        p.add_edge(1, 2, 1.0);
        assert!(!p.is_strongly_connected());
        assert_eq!(p.bfs_distances(2), vec![None, None, Some(0)]);
    }

    #[test]
    fn edge_removal_builds_consistent_subgraph() {
        let t = triangle();
        let e01 = t.find_edge(0, 1).unwrap();
        let cut = t.without_edges(&[e01]);
        assert_eq!(cut.num_edges(), 5);
        assert!(!cut.has_edge(0, 1));
        assert!(cut.has_edge(1, 0));
        assert!(cut.is_strongly_connected());
    }

    #[test]
    fn induced_subgraph_relabels_nodes() {
        let t = triangle();
        let (sub, mapping) = t.induced_subgraph(&[2, 0]);
        assert_eq!(sub.num_nodes(), 2);
        assert_eq!(mapping, vec![2, 0]);
        // Edge 2<->0 survives as 0<->1 in the subgraph.
        assert!(sub.has_edge(0, 1));
        assert!(sub.has_edge(1, 0));
        assert_eq!(sub.num_edges(), 2);
    }

    #[test]
    fn infinite_capacity_is_allowed() {
        let mut t = Topology::new(2, "t");
        t.add_edge(0, 1, f64::INFINITY);
        assert_eq!(t.edge(0).capacity, f64::INFINITY);
    }
}
