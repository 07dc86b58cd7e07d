//! Golden colgen trajectories: the time-expanded (tsMCF) master and the
//! path-MCF master under the production configuration.
//!
//! Pins, per instance and configuration, the per-round
//! `(columns_added, master_iterations, sources_skipped)` sequence and the bit
//! pattern of the final `flow_value` (`Σ_t U_t` for tsMCF, `F` for path-MCF).
//! Any refactor of a colgen path — master construction, pricing-source order,
//! candidate order, partial-pricing skip rule, extraction — that is supposed
//! to be behaviour-preserving must leave every number here untouched; a change
//! that *means* to move the trajectory re-records them and says so. The
//! decomposed rows at the end do the same for the dual-simplex master and the
//! warm-started child LPs, which no colgen row reaches. The residual row pins
//! the third caller of the time-expanded master: a warm-started re-plan on a
//! punctured fabric, its demands held mid-fabric in partial amounts. The
//! path-MCF rows on torus-4×4 and the fat tree pin the master folded by the
//! fabric's automorphism group; the random regular graph has none, so its row
//! pins the unfolded master, bit for bit what it was before the fold.
//!
//! These counts repeat exactly from run to run and machine to machine, which
//! makes this file the regression gate on the colgen engines' work: a solve
//! that starts needing more rounds, columns or master iterations, or that
//! stops skipping sources, fails here whatever the wall clock of the box.

use a2a_mcf::decomposed::{solve_decomposed_mcf_with, solve_master_with, DecomposedOptions};
use a2a_mcf::pmcf::solve_path_mcf_colgen_among;
use a2a_mcf::residual::{residual_minimum_steps, solve_residual_colgen, warm_seeds_from_columns};
use a2a_mcf::tscolgen::{solve_tsmcf_colgen_among_with, TsDemand};
use a2a_mcf::tsmcf::minimum_steps;
use a2a_mcf::{ColGenOptions, ColGenStats, CommoditySet, Stabilization};
use a2a_topology::transform::HostNicAugmented;
use a2a_topology::{generators, NodeId, Topology};

mod common;
use common::relabelled;

/// The `tsmcf-torus3x3x3` / `replan-` / `simsweep-` benchmark configuration.
/// The drift tolerance is looser than path-MCF's because drift accumulates
/// over the time-expanded arc space (`|E| · steps` dimensions): at `1e-1` no
/// source is ever skipped on these masters.
fn benchmark_options() -> ColGenOptions {
    ColGenOptions {
        partial_pricing: Some(7.0),
        stabilization: Stabilization::Smoothing { alpha: 0.1 },
        ..ColGenOptions::default()
    }
}

/// The path-MCF production configuration, spelled out so the rows do not move
/// with the library default: light Wentges smoothing (at `α = 0.5` the lagging
/// duals triple the round count on torus-8x8) and the drift tolerance at which
/// the partial-pricing skip fires without costing the certificate.
fn production_options() -> ColGenOptions {
    ColGenOptions {
        partial_pricing: Some(1e-1),
        stabilization: Stabilization::Smoothing { alpha: 0.1 },
        ..ColGenOptions::default()
    }
}

/// One recorded run: per-round
/// `(columns_added, master_iterations, sources_skipped)`, the columns in the
/// master at termination, and `flow_value.to_bits()` of the last round.
struct Golden {
    config: &'static str,
    options: ColGenOptions,
    /// Set on the configurations chosen to make partial pricing — the
    /// production speed-up mechanism — fire: a re-recording that quietly lets
    /// it stop must fail rather than pin the zeros.
    skips_sources: bool,
    rounds: &'static [(usize, usize, usize)],
    total_columns: usize,
    flow_bits: u64,
}

impl Golden {
    fn check(&self, tag: &str, stats: &ColGenStats) {
        assert!(stats.proved_optimal, "{tag}: certificate missing");
        let rounds: Vec<(usize, usize, usize)> = stats
            .rounds
            .iter()
            .map(|r| (r.columns_added, r.master_iterations, r.sources_skipped))
            .collect();
        assert_eq!(rounds, self.rounds, "{tag}: round trajectory moved");
        assert_eq!(
            stats.total_columns, self.total_columns,
            "{tag}: column count moved"
        );
        let last = stats.rounds.last().expect("at least one round");
        assert_eq!(
            last.flow_value.to_bits(),
            self.flow_bits,
            "{tag}: final flow value moved (now {})",
            last.flow_value
        );
        assert!(
            !self.skips_sources || stats.total_sources_skipped() > 0,
            "{tag}: stabilized partial pricing skipped no source"
        );
    }
}

fn check(name: &str, topo: &Topology, goldens: &[Golden]) {
    for g in goldens {
        let tag = format!("{name} / {}", g.config);
        let commodities = CommoditySet::all_pairs(topo.num_nodes());
        let steps = minimum_steps(topo, &commodities).unwrap();
        let cg = solve_tsmcf_colgen_among_with(topo, commodities, steps, &g.options)
            .unwrap_or_else(|e| panic!("{tag}: solve failed: {e}"));
        g.check(&tag, &cg.stats);
    }
}

#[test]
fn tsmcf_colgen_trajectories_are_pinned() {
    check(
        "torus-3x3",
        &generators::torus(&[3, 3]),
        &[
            // 18 rounds / 230 master iterations / 153 columns.
            Golden {
                config: "benchmark",
                options: benchmark_options(),
                skips_sources: true,
                rounds: &[
                    (4, 103, 0),
                    (5, 2, 0),
                    (5, 6, 6),
                    (5, 4, 1),
                    (3, 5, 5),
                    (4, 3, 7),
                    (4, 10, 4),
                    (5, 7, 3),
                    (3, 23, 4),
                    (1, 9, 7),
                    (8, 5, 4),
                    (3, 1, 0),
                    (4, 15, 8),
                    (12, 10, 0),
                    (5, 12, 2),
                    (1, 8, 7),
                    (9, 3, 0),
                    (0, 4, 0),
                ],
                total_columns: 153,
                flow_bits: 0x4008_0000_0000_0000,
            },
            // 12 / 186 / 134.
            Golden {
                config: "default",
                options: ColGenOptions::default(),
                skips_sources: false,
                rounds: &[
                    (4, 103, 0),
                    (5, 2, 0),
                    (6, 6, 0),
                    (5, 3, 0),
                    (5, 6, 0),
                    (6, 7, 0),
                    (4, 10, 0),
                    (6, 16, 0),
                    (8, 12, 0),
                    (6, 8, 0),
                    (7, 8, 0),
                    (0, 5, 0),
                ],
                total_columns: 134,
                flow_bits: 0x4008_0000_0000_0000,
            },
            // 13 / 199 / 142.
            Golden {
                config: "stabilized",
                options: ColGenOptions::stabilized(),
                skips_sources: false,
                rounds: &[
                    (4, 103, 0),
                    (5, 2, 0),
                    (6, 6, 0),
                    (5, 3, 0),
                    (5, 6, 0),
                    (6, 7, 0),
                    (4, 10, 0),
                    (6, 16, 0),
                    (7, 12, 0),
                    (8, 7, 0),
                    (6, 6, 0),
                    (8, 17, 0),
                    (0, 4, 0),
                ],
                total_columns: 142,
                flow_bits: 0x4008_0000_0000_0000,
            },
        ],
    );
    check(
        "hypercube-3d",
        &generators::hypercube(3),
        &[
            // 10 / 299 / 183. The benchmark configuration lands one vertex
            // over: 4 − 2 ulp, not 4.
            Golden {
                config: "benchmark",
                options: benchmark_options(),
                skips_sources: true,
                rounds: &[
                    (8, 94, 0),
                    (3, 9, 5),
                    (11, 2, 2),
                    (11, 13, 1),
                    (8, 19, 3),
                    (21, 20, 2),
                    (33, 50, 0),
                    (31, 75, 0),
                    (1, 17, 0),
                    (0, 0, 0),
                ],
                total_columns: 183,
                flow_bits: 0x400f_ffff_ffff_fffe,
            },
            // 9 / 299 / 169.
            Golden {
                config: "default",
                options: ColGenOptions::default(),
                skips_sources: false,
                rounds: &[
                    (8, 94, 0),
                    (11, 9, 0),
                    (9, 10, 0),
                    (10, 11, 0),
                    (16, 20, 0),
                    (22, 24, 0),
                    (32, 83, 0),
                    (5, 48, 0),
                    (0, 0, 0),
                ],
                total_columns: 169,
                flow_bits: 0x4010_0000_0000_0000,
            },
            // 9 / 307 / 166.
            Golden {
                config: "stabilized",
                options: ColGenOptions::stabilized(),
                skips_sources: false,
                rounds: &[
                    (8, 94, 0),
                    (11, 9, 0),
                    (9, 10, 0),
                    (10, 11, 0),
                    (16, 20, 0),
                    (21, 24, 0),
                    (34, 84, 0),
                    (1, 55, 0),
                    (0, 0, 0),
                ],
                total_columns: 166,
                flow_bits: 0x4010_0000_0000_0000,
            },
        ],
    );
}

#[test]
fn path_mcf_production_colgen_trajectories_are_pinned() {
    let fat_tree = generators::fat_tree_two_level(4, 2, 4);
    let torus = generators::torus(&[4, 4]);
    let random = generators::random_regular(16, 4, 3);
    let cases: [(&str, &Topology, Vec<NodeId>, Golden); 3] = [
        (
            "torus-4x4",
            &torus,
            (0..torus.num_nodes()).collect(),
            // Folded by the 4-cube's 384 automorphisms to 4 commodity
            // orbits and 1 arc orbit: the seed is optimal.
            Golden {
                config: "production",
                options: production_options(),
                skips_sources: false,
                rounds: &[(0, 5, 0)],
                total_columns: 4,
                flow_bits: 0x3fc0_0000_0000_0000,
            },
        ),
        (
            "fattree-16h",
            &fat_tree.graph,
            fat_tree.hosts.clone(),
            // Folded by a subgroup of 2,304 automorphisms (the whole group
            // passes the closure cap) to 59 commodity orbits.
            Golden {
                config: "production",
                options: production_options(),
                skips_sources: false,
                rounds: &[(15, 60, 0), (15, 1, 0), (9, 21, 0), (0, 3, 0)],
                total_columns: 98,
                // 1/15 + 3 ulp.
                flow_bits: 0x3fb1_1111_1111_1114,
            },
        ),
        // A fabric without symmetry: its master is the unfolded one.
        (
            "random-regular-16",
            &random,
            (0..random.num_nodes()).collect(),
            Golden {
                config: "production",
                options: production_options(),
                skips_sources: true,
                rounds: &[
                    (14, 241, 0),
                    (14, 2, 0),
                    (12, 3, 0),
                    (13, 1, 0),
                    (14, 4, 0),
                    (14, 3, 0),
                    (12, 1, 0),
                    (36, 11, 0),
                    (16, 2, 0),
                    (61, 41, 0),
                    (7, 15, 2),
                    (1, 0, 14),
                    (0, 0, 0),
                ],
                total_columns: 454,
                flow_bits: 0x3fbb_ed61_bed6_1be4,
            },
        ),
    ];
    for (name, topo, hosts, golden) in &cases {
        let tag = format!("{name} / path-mcf {}", golden.config);
        let cg =
            solve_path_mcf_colgen_among(topo, CommoditySet::among(hosts.clone()), &golden.options)
                .unwrap_or_else(|e| panic!("{tag}: solve failed: {e}"));
        golden.check(&tag, &cg.stats);
        assert_eq!(
            cg.schedule.flow_value.to_bits(),
            golden.flow_bits,
            "{tag}: the extracted schedule's F is not the master's"
        );
        // The pinned bits are the optimum, not just a number: the exact
        // decomposed formulation reaches the same F.
        let exact = solve_decomposed_mcf_with(
            topo,
            CommoditySet::among(hosts.clone()),
            &DecomposedOptions::default(),
        )
        .unwrap_or_else(|e| panic!("{tag}: decomposed solve failed: {e}"))
        .solution
        .flow_value;
        assert!(
            (cg.schedule.flow_value - exact).abs() <= 1e-6 * (1.0 + exact),
            "{tag}: colgen F = {} vs decomposed F = {exact}",
            cg.schedule.flow_value
        );
    }
}

/// The residual master, warm-started: torus-3x3 solved nominally under the
/// benchmark configuration, then the `0 -> 1` arc removed. Every commodity
/// keeps half a shard at its origin; the other half sits one hop down its
/// first incumbent column (at the origin when that hop is the destination).
/// The re-plan is seeded with the suffixes [`warm_seeds_from_columns`] cuts
/// from the nominal pool and solved under `config`. Pins the warm-seed count,
/// the per-round `(columns_added, master_iterations, sources_skipped)` and
/// `Σ_t U_t` bits.
#[test]
fn residual_colgen_trajectory_is_pinned() {
    let topo = generators::torus(&[3, 3]);
    let commodities = CommoditySet::all_pairs(topo.num_nodes());
    let steps = minimum_steps(&topo, &commodities).unwrap();
    let nominal =
        solve_tsmcf_colgen_among_with(&topo, commodities.clone(), steps, &benchmark_options())
            .unwrap();
    let punctured = topo.without_edges(&[topo.find_edge(0, 1).unwrap()]);
    let mut demands = Vec::new();
    for (k, s, d) in commodities.iter() {
        let hop = nominal
            .columns
            .iter()
            .find(|c| c.owner == k)
            .map(|c| c.nodes[1])
            .filter(|&v| v != d)
            .unwrap_or(s);
        for at in [s, hop] {
            demands.push(TsDemand {
                origin: s,
                dest: d,
                at,
                amount: 0.5,
            });
        }
    }
    let warm = warm_seeds_from_columns(&nominal.columns, &commodities, &punctured, &demands);
    assert_eq!(warm.len(), 139, "warm-seed count moved");
    let rsteps = residual_minimum_steps(&punctured, &demands).unwrap();
    let goldens = [
        // 26 rounds / 352 master iterations / 320 columns.
        Golden {
            config: "benchmark",
            options: benchmark_options(),
            skips_sources: true,
            rounds: &[
                (4, 232, 0),
                (4, 7, 7),
                (7, 2, 0),
                (7, 2, 0),
                (12, 2, 8),
                (7, 4, 0),
                (12, 2, 8),
                (7, 1, 0),
                (12, 2, 8),
                (4, 4, 0),
                (4, 1, 0),
                (10, 2, 8),
                (4, 4, 0),
                (10, 2, 8),
                (7, 1, 8),
                (1, 3, 0),
                (4, 1, 8),
                (9, 2, 8),
                (4, 2, 0),
                (4, 4, 0),
                (4, 2, 0),
                (9, 14, 8),
                (9, 1, 0),
                (7, 9, 0),
                (3, 45, 0),
                (0, 1, 0),
            ],
            total_columns: 320,
            flow_bits: 0x4008_0000_0000_0000,
        },
        // 25 / 322 / 318.
        Golden {
            config: "stabilized",
            options: ColGenOptions::stabilized(),
            skips_sources: false,
            rounds: &[
                (4, 232, 0),
                (4, 7, 0),
                (7, 2, 0),
                (7, 2, 0),
                (12, 2, 0),
                (7, 4, 0),
                (12, 2, 0),
                (7, 1, 0),
                (12, 2, 0),
                (4, 4, 0),
                (4, 1, 0),
                (10, 2, 0),
                (4, 4, 0),
                (4, 1, 0),
                (4, 1, 0),
                (1, 2, 0),
                (4, 1, 0),
                (9, 2, 0),
                (7, 3, 0),
                (7, 2, 0),
                (7, 3, 0),
                (9, 7, 0),
                (10, 18, 0),
                (7, 6, 0),
                (0, 11, 0),
            ],
            total_columns: 318,
            flow_bits: 0x4008_0000_0000_0000,
        },
    ];
    for g in &goldens {
        let tag = format!("residual torus-3x3 / {}", g.config);
        let res = solve_residual_colgen(&punctured, &demands, rsteps, &g.options, &warm)
            .unwrap_or_else(|e| panic!("{tag}: solve failed: {e}"));
        assert_eq!(res.stats.seed_columns, 155, "{tag}: seed columns moved");
        g.check(&tag, &res.stats);
        assert_eq!(
            res.solution.total_utilization().to_bits(),
            g.flow_bits,
            "{tag}: the extracted plan's utilization is not the master's"
        );
    }
}

/// One recorded decomposed solve under [`DecomposedOptions::default`]: the
/// dual-simplex master's `(iterations, dual_iterations, pivots,
/// refactorizations)`, the per-child iteration and refactorization vectors
/// (children run the dual simplex from a projected crash basis) and
/// `F.to_bits()`.
struct DecomposedGolden {
    name: &'static str,
    master: (usize, usize, usize, usize),
    child_iterations: &'static [usize],
    child_refactorizations: &'static [usize],
    flow_bits: u64,
}

/// The dual loop's count pin (the colgen rows above only reach the primal
/// loop): a change to the LP core that is supposed to leave every pivot where
/// it is must repeat these numbers, whichever phase the pivot belongs to.
#[test]
fn decomposed_trajectories_are_pinned() {
    let cases: [(Topology, DecomposedGolden); 3] = [
        (
            generators::torus(&[4, 4]),
            DecomposedGolden {
                name: "torus-4x4",
                master: (43, 43, 43, 1),
                child_iterations: &[94, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
                child_refactorizations: &[1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
                flow_bits: 0x3fc0_0000_0000_0000,
            },
        ),
        (
            generators::torus(&[5, 5]),
            DecomposedGolden {
                name: "torus-5x5",
                master: (46, 46, 46, 1),
                child_iterations: &[
                    60, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                ],
                child_refactorizations: &[0; 25],
                flow_bits: 0x3fb1_1111_1111_1111,
            },
        ),
        (
            generators::generalized_kautz(16, 4),
            DecomposedGolden {
                name: "genkautz-16",
                master: (553, 553, 553, 5),
                child_iterations: &[
                    44, 34, 32, 32, 28, 34, 30, 40, 33, 28, 47, 34, 28, 54, 39, 43,
                ],
                child_refactorizations: &[0; 16],
                flow_bits: 0x3fc0_e7d9_5bc6_09aa,
            },
        ),
    ];
    for (topo, golden) in &cases {
        let name = golden.name;
        let solved = solve_decomposed_mcf_with(
            topo,
            CommoditySet::all_pairs(topo.num_nodes()),
            &DecomposedOptions::default(),
        )
        .unwrap_or_else(|e| panic!("{name}: decomposed solve failed: {e}"));
        let t = &solved.timings;
        assert_eq!(
            (
                t.master_iterations,
                t.master_dual_iterations,
                t.master_pivots,
                t.master_refactorizations
            ),
            golden.master,
            "{name}: master (iterations, dual iterations, pivots, refactorizations) moved"
        );
        assert_eq!(
            t.child_iterations, golden.child_iterations,
            "{name}: child iterations moved"
        );
        assert_eq!(
            t.child_refactorizations, golden.child_refactorizations,
            "{name}: child refactorizations moved"
        );
        assert_eq!(
            solved.solution.flow_value.to_bits(),
            golden.flow_bits,
            "{name}: F moved (now {})",
            solved.solution.flow_value
        );
    }
}

/// The decomposed master alone, on fabrics the rows above do not reach: the
/// paper's host-bottleneck fabric (hosts behind capacity-4 links, transit
/// nodes that only forward; `F = 2/27`), a larger Kautz graph, and a torus
/// whose node order is not the generator's. Pins `(iterations,
/// dual_iterations, pivots, refactorizations)` and `F.to_bits()`.
#[test]
fn decomposed_master_trajectories_are_pinned() {
    let torus = generators::torus(&[3, 3, 3]);
    let aug = HostNicAugmented::build(&torus, 4.0);
    let kautz = generators::generalized_kautz(32, 4);
    let shuffled = relabelled(&generators::torus(&[6, 6]), 1);
    let cases = [
        (
            "host-augmented torus-3x3x3",
            &aug.graph,
            CommoditySet::among(aug.hosts.clone()),
            (6469, 6469, 6469, 64),
            0x3fb2_f684_bda1_2f68_u64,
        ),
        (
            "genkautz-32",
            &kautz,
            CommoditySet::all_pairs(kautz.num_nodes()),
            (3771, 3771, 3771, 37),
            0x3fa8_1818_1818_1818,
        ),
        (
            "relabelled torus-6x6",
            &shuffled,
            CommoditySet::all_pairs(shuffled.num_nodes()),
            (3981, 3981, 3981, 39),
            // 1/27 + 1 ulp.
            0x3fa2_f684_bda1_2f69,
        ),
    ];
    for (name, topo, commodities, counts, flow_bits) in &cases {
        let master = solve_master_with(topo, commodities, &DecomposedOptions::default())
            .unwrap_or_else(|e| panic!("{name}: master solve failed: {e}"));
        assert_eq!(
            (
                master.iterations,
                master.dual_iterations,
                master.pivots,
                master.refactorizations
            ),
            *counts,
            "{name}: master (iterations, dual iterations, pivots, refactorizations) moved"
        );
        assert_eq!(
            master.flow_value.to_bits(),
            *flow_bits,
            "{name}: F moved (now {} = {:#x})",
            master.flow_value,
            master.flow_value.to_bits()
        );
    }
}
