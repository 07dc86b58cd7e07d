//! Bit pins of the ILP path-selection baseline ([`ilp_path_selection`]).
//!
//! Branch and bound solves one LP relaxation per node, so the node count, the
//! proof flag, the best load and the chosen paths move with any change to
//! those relaxations or to the order the nodes see them in. The rows use the
//! options the figure binaries pass (a 10 % gap and a node budget).

use a2a_baselines::{ilp_path_selection, IlpPathOptions};
use a2a_mcf::PathSchedule;
use a2a_topology::{generators, Topology};

/// FNV-1a over the little-endian bytes of each commodity's path count and of
/// every path's length and nodes, in commodity order.
fn fingerprint(schedule: &PathSchedule) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let words = schedule.paths.iter().flat_map(|per| {
        let paths = per.iter().flat_map(|(p, _)| {
            let nodes = p.nodes();
            std::iter::once(nodes.len() as u64).chain(nodes.iter().map(|&u| u as u64))
        });
        std::iter::once(per.len() as u64).chain(paths)
    });
    for word in words {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

fn pin(topo: &Topology, max_nodes: usize) -> (usize, bool, u64, u64) {
    let options = IlpPathOptions {
        relative_gap: 0.1,
        max_nodes,
        ..IlpPathOptions::default()
    };
    let (schedule, stats) = ilp_path_selection(topo, &options).unwrap();
    (
        stats.nodes,
        stats.proven_optimal,
        stats.max_link_load.to_bits(),
        fingerprint(&schedule),
    )
}

#[test]
fn ilp_path_selection_is_pinned() {
    // fig5's torus at its node budget, and a small GenKautz graph at fig9's.
    let rows = [
        ("torus-2x2x3", pin(&generators::torus(&[2, 2, 3]), 300)),
        (
            "genkautz-6",
            pin(&generators::generalized_kautz(6, 2), 1_000),
        ),
    ];
    assert_eq!(
        rows,
        [
            (
                "torus-2x2x3",
                (3, true, 0x4017_ffff_ffff_ffff, 0x415a_a371_b4dc_8a63)
            ),
            (
                "genkautz-6",
                (43, true, 0x4014_0000_0000_0000, 0x6d43_52d4_e652_74c4)
            ),
        ],
        "(nodes, proven_optimal, max load bits, path fingerprint) moved"
    );
}
