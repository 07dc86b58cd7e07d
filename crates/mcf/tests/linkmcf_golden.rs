//! Bit pins of the link-variable MCF reference ([`solve_link_mcf`]).
//!
//! The equivalence suites hold link MCF to the other formulations only up to a
//! tolerance, so a change to how its LP is built or lowered could move the
//! vertex it lands on unnoticed. These rows pin `F.to_bits()` and an FNV-1a
//! fingerprint of every extracted `(edge, flow)` pair: a change that means to
//! keep every pivot must leave them untouched.

use a2a_mcf::linkmcf::solve_link_mcf;
use a2a_topology::{generators, Topology};

/// FNV-1a over the little-endian bytes of each commodity's flow count and of
/// every `(edge, flow bits)` pair, in commodity order.
fn fingerprint(flows: &[Vec<(usize, f64)>]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let words = flows.iter().flat_map(|per| {
        let pairs = per.iter().flat_map(|&(e, v)| [e as u64, v.to_bits()]);
        std::iter::once(per.len() as u64).chain(pairs)
    });
    for word in words {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

fn pin(topo: &Topology) -> (u64, u64) {
    let sol = solve_link_mcf(topo).unwrap();
    (sol.flow_value.to_bits(), fingerprint(&sol.flows))
}

#[test]
fn link_mcf_is_pinned() {
    let rows = [
        ("torus-3x3", generators::torus(&[3, 3])),
        ("genkautz-8", generators::generalized_kautz(8, 2)),
    ];
    let got: Vec<_> = rows.iter().map(|(name, t)| (*name, pin(t))).collect();
    assert_eq!(
        got,
        [
            ("torus-3x3", (0x3fd5_5555_5555_5559, 0x4849_79bf_c85c_c339)),
            ("genkautz-8", (0x3fbc_71c7_1c71_c71d, 0x6ed6_0164_2879_fcce)),
        ],
        "(F bits, flow fingerprint) moved"
    );
}
