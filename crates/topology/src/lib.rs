//! # a2a-topology
//!
//! Directed-graph model and direct-connect topology toolkit for the all-to-all
//! scheduling toolchain ("Efficient all-to-all Collective Communication Schedules for
//! Direct-connect Topologies", HPDC 2024).
//!
//! The paper models the fabric as a directed graph `G = (V, E)` with per-link
//! capacities (§2.2). This crate provides:
//!
//! * [`graph`] — the [`Topology`] container: nodes, directed capacitated edges,
//!   adjacency queries and structural edits.
//! * [`generators`] — every topology family used in the evaluation: complete
//!   bipartite, hypercube, twisted hypercube, d-dimensional torus/mesh, generalized
//!   Kautz (Imase–Itoh), Xpander-style lifted expanders, random regular (Jellyfish),
//!   rings and fully connected graphs.
//! * [`metrics`] — BFS distances, diameter, distance sums (used by the Theorem-1
//!   lower bound), degree statistics and connectivity checks.
//! * [`paths`] — path containers and path-set builders: all shortest paths, bounded
//!   length enumeration, and edge-disjoint path extraction via unit-capacity max-flow.
//! * [`transform`] — the time-expanded graph used by the time-stepped MCF (§3.1.3) and
//!   the host↔NIC bottleneck augmentation of Fig. 2 (§3.2.2).
//! * [`puncture`] — random edge/node removal used for the punctured-torus and
//!   disabled-links experiments (Fig. 5, Fig. 9).
//! * [`symmetry`] — automorphisms found by colour refinement and
//!   individualization, each checked arc by arc: one per endpoint taking the
//!   first endpoint to it (the decomposed MCF solves one source's LPs and maps
//!   the rest through them), or the group a fabric has with its node, endpoint
//!   pair and arc orbits (path-MCF folds its master by it).

pub mod generators;
pub mod graph;
pub mod metrics;
pub mod paths;
pub mod puncture;
pub mod symmetry;
pub mod transform;

pub use graph::{Edge, EdgeId, NodeId, Topology};
pub use paths::{Path, ShortestPathTree};
