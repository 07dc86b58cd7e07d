//! Golden pins for widest-path extraction (MCF-extP, §3.2.1).
//!
//! Each case extracts a [`PathSchedule`] from link flows and pins its path
//! count, an FNV-1a fingerprint of every `(commodity, path nodes, weight
//! bits)` and the bits of its effective `flow_value`. A faster extraction must
//! pop the same widest path at every turn, ties included, so these pins hold
//! bit for bit.
//!
//! * torus-4×4, hypercube-4d and (release only) torus-8×8: the decomposed link
//!   MCF, the benchmark's `extp` pipeline;
//! * the link MCF on a fabric where some commodity splits over several paths;
//! * a seeded corpus of hand-built flows on random fabrics: each commodity's
//!   flow sums a few random simple paths at random weights (some of them
//!   equal, so widths tie), plus entries at or below the extraction tolerance
//!   and one edge id repeated with a new value.

use a2a_mcf::{
    extract_widest_paths, solve_decomposed_mcf_with, solve_link_mcf, CommoditySet,
    DecomposedOptions, LinkFlowSolution, PathSchedule,
};
use a2a_topology::{generators, paths, puncture, Topology};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// The extraction's tolerance: residual flow at or below it counts as absent.
const EXTRACT_TOL: f64 = 1e-7;

/// FNV-1a over little-endian `u64` words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Every `(commodity, node count, nodes…, weight bits)` in schedule order.
    fn schedule(&mut self, schedule: &PathSchedule) {
        for (idx, list) in schedule.paths.iter().enumerate() {
            for (path, weight) in list {
                self.word(idx as u64);
                self.word(path.nodes().len() as u64);
                for &node in path.nodes() {
                    self.word(node as u64);
                }
                self.word(weight.to_bits());
            }
        }
    }
}

/// `(paths, fingerprint, flow_value bits)`.
type Pin = (usize, u64, u64);

fn pin_of(schedule: &PathSchedule) -> Pin {
    let mut fnv = Fnv::new();
    fnv.schedule(schedule);
    (schedule.total_paths(), fnv.0, schedule.flow_value.to_bits())
}

fn decomposed_pin(topo: &Topology) -> Pin {
    let commodities = CommoditySet::all_pairs(topo.num_nodes());
    let solved = solve_decomposed_mcf_with(topo, commodities, &DecomposedOptions::default())
        .expect("decomposed solve");
    let schedule = extract_widest_paths(topo, &solved.solution).expect("widest-path extraction");
    assert!(schedule.check_consistency(topo, 1e-6).is_empty());
    pin_of(&schedule)
}

#[test]
fn torus_4x4_decomposed_flows() {
    let topo = generators::torus(&[4, 4]);
    assert_eq!(
        decomposed_pin(&topo),
        (384, 3369659536729948272, 4593671619488562670)
    );
}

#[test]
fn hypercube_4d_decomposed_flows() {
    let topo = generators::hypercube(4);
    assert_eq!(
        decomposed_pin(&topo),
        (512, 15979340317494460453, 4593671619039704596)
    );
}

#[cfg(not(debug_assertions))]
#[test]
fn torus_8x8_decomposed_flows() {
    let topo = generators::torus(&[8, 8]);
    assert_eq!(
        decomposed_pin(&topo),
        (4032, 15813161374204950581, 4580160821035794432)
    );
}

#[test]
fn link_mcf_flows_split_over_several_paths() {
    let topo = generators::complete_bipartite(3, 3);
    let solved = solve_link_mcf(&topo).expect("link MCF");
    let schedule = extract_widest_paths(&topo, &solved).expect("widest-path extraction");
    assert!(
        schedule.max_paths_per_commodity() >= 2,
        "no commodity splits, so ties between paths go unpinned"
    );
    assert!(schedule.check_consistency(&topo, 1e-6).is_empty());
    assert_eq!(
        pin_of(&schedule),
        (41, 6681273723260241288, 4601392076421969618)
    );
}

/// A small strongly connected fabric of the kind `seed` picks.
fn random_fabric(seed: u64, rng: &mut ChaCha8Rng) -> Topology {
    match seed % 5 {
        0 => generators::bidirectional_ring(rng.random_range(3..9)),
        1 => generators::torus(&[rng.random_range(3..5), rng.random_range(3..5)]),
        2 => {
            let torus = generators::torus(&[rng.random_range(3..5), rng.random_range(3..5)]);
            puncture::remove_random_links(&torus, rng.random_range(1..3), rng)
        }
        3 => generators::hypercube(rng.random_range(2..4)),
        _ => generators::generalized_kautz(rng.random_range(6..14), rng.random_range(2..4)),
    }
}

/// All-pairs link flows: per commodity, a few weighted shortest paths under
/// random link weights, summed per edge, shuffled, then at-tolerance entries
/// and one repeated edge id.
fn random_flows(topo: &Topology, rng: &mut ChaCha8Rng) -> LinkFlowSolution {
    let commodities = CommoditySet::all_pairs(topo.num_nodes());
    let m = topo.num_edges();
    let mut flows = Vec::with_capacity(commodities.len());
    let mut sum = vec![0.0f64; m];
    for (_, s, d) in commodities.iter() {
        sum.iter_mut().for_each(|f| *f = 0.0);
        for _ in 0..rng.random_range(1..5) {
            let lengths: Vec<f64> = (0..m).map(|_| 0.1 + rng.random_f64()).collect();
            let Some(path) = paths::weighted_shortest_path(topo, s, d, &lengths) else {
                continue;
            };
            // Equal weights make equal widths, so the heap's tie order counts.
            let weight = if rng.random_bool(0.5) {
                [0.25, 0.5, 1.0][rng.random_range(0..3)]
            } else {
                0.01 + rng.random_f64()
            };
            for e in path.edge_ids(topo).expect("paths use fabric links") {
                sum[e] += weight;
            }
        }
        let mut entries: Vec<(usize, f64)> = (0..m)
            .filter(|&e| sum[e] > 0.0)
            .map(|e| (e, sum[e]))
            .collect();
        entries.shuffle(rng);
        for _ in 0..rng.random_range(0..3) {
            let tiny = EXTRACT_TOL * [1.0, 0.5, 1e-3][rng.random_range(0..3)];
            entries.push((rng.random_range(0..m), tiny));
        }
        if let Some(&(e, f)) = entries.first() {
            if f > EXTRACT_TOL {
                entries.push((e, f * (0.5 + rng.random_f64())));
            }
        }
        flows.push(entries);
    }
    LinkFlowSolution {
        commodities,
        flow_value: 0.5,
        flows,
    }
}

#[test]
fn seeded_flows_on_random_fabrics() {
    let mut fnv = Fnv::new();
    let mut extracted = 0;
    for seed in 0..60u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let topo = random_fabric(seed, &mut rng);
        let flows = random_flows(&topo, &mut rng);
        match extract_widest_paths(&topo, &flows) {
            Ok(schedule) => {
                extracted += 1;
                fnv.word(seed);
                fnv.schedule(&schedule);
                fnv.word(schedule.flow_value.to_bits());
            }
            Err(_) => fnv.word(u64::MAX - seed),
        }
    }
    assert_eq!((extracted, fnv.0), (60, 3225790740098051067));
}

#[test]
fn a_flow_off_the_fabric_is_an_error() {
    let topo = generators::torus(&[3, 3]);
    let mut flows = random_flows(&topo, &mut ChaCha8Rng::seed_from_u64(7));
    flows.flows[4] = vec![(topo.num_edges() + 3, 0.5)];
    assert!(extract_widest_paths(&topo, &flows).is_err());
}
