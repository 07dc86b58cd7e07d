//! Helpers shared by the mcf test suites (`mod common;` in each). Every suite
//! compiles the whole module and uses only some of it.
#![allow(dead_code)]

use a2a_mcf::ColGenStats;
use a2a_topology::{NodeId, Topology};

/// Asserts two runs produced byte-identical round trajectories. Wall-clock
/// fields are the only fields allowed to differ.
pub fn assert_identical_rounds(tag: &str, a: &ColGenStats, b: &ColGenStats) {
    assert_eq!(
        a.rounds.len(),
        b.rounds.len(),
        "{tag}: round counts diverge"
    );
    for (i, (a, b)) in a.rounds.iter().zip(&b.rounds).enumerate() {
        assert_eq!(
            a.columns_added, b.columns_added,
            "{tag}: round {i} columns_added diverges"
        );
        assert_eq!(
            a.columns_in_master, b.columns_in_master,
            "{tag}: round {i} columns_in_master diverges"
        );
        assert_eq!(
            a.flow_value.to_bits(),
            b.flow_value.to_bits(),
            "{tag}: round {i} flow_value diverges ({} vs {})",
            a.flow_value,
            b.flow_value
        );
        assert_eq!(
            a.max_violation.to_bits(),
            b.max_violation.to_bits(),
            "{tag}: round {i} max_violation diverges ({} vs {})",
            a.max_violation,
            b.max_violation
        );
        assert_eq!(
            a.sources_skipped, b.sources_skipped,
            "{tag}: round {i} sources_skipped diverges"
        );
        assert_eq!(
            a.columns_purged, b.columns_purged,
            "{tag}: round {i} columns_purged diverges"
        );
        assert_eq!(
            a.master_iterations, b.master_iterations,
            "{tag}: round {i} master_iterations diverges"
        );
        assert_eq!(
            a.master_pivots, b.master_pivots,
            "{tag}: round {i} master_pivots diverges"
        );
        assert_eq!(a.misprice, b.misprice, "{tag}: round {i} misprice diverges");
    }
    assert_eq!(
        a.proved_optimal, b.proved_optimal,
        "{tag}: certificates diverge"
    );
    assert_eq!(
        a.total_columns, b.total_columns,
        "{tag}: total_columns diverges"
    );
    assert_eq!(a.misprices, b.misprices, "{tag}: misprices diverge");
}

/// A SplitMix64-seeded Fisher–Yates permutation of `0..n` (the benchmark's
/// `--instance` relabelling).
pub fn permutation(n: usize, seed: u64) -> Vec<NodeId> {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut perm: Vec<NodeId> = (0..n).collect();
    for i in (1..perm.len()).rev() {
        perm.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    perm
}

/// `topo` with node `u` renamed `permutation(n, seed)[u]`: edges keep their
/// order and ids, only the node names move.
pub fn relabelled(topo: &Topology, seed: u64) -> Topology {
    let perm = permutation(topo.num_nodes(), seed);
    let mut out = Topology::new(topo.num_nodes(), topo.name());
    for e in topo.edges() {
        out.add_edge(perm[e.src], perm[e.dst], e.capacity);
    }
    out
}
