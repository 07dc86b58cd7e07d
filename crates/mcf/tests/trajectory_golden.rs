//! Golden colgen trajectories of the time-expanded (tsMCF) master.
//!
//! Pins, per instance and configuration, the per-round
//! `(columns_added, master_iterations)` sequence and the bit pattern of the
//! final `flow_value` (`Σ_t U_t`). Any refactor of the tsMCF colgen path —
//! master construction, pricing-source order, candidate order, extraction —
//! that is supposed to be behaviour-preserving must leave every number here
//! untouched; a change that *means* to move the trajectory re-records them and
//! says so.

use a2a_mcf::tscolgen::solve_tsmcf_colgen_among_with;
use a2a_mcf::tsmcf::minimum_steps;
use a2a_mcf::{ColGenOptions, CommoditySet, Stabilization};
use a2a_topology::{generators, Topology};

/// The `tsmcf-torus3x3x3` / `replan-` / `simsweep-` benchmark configuration.
fn benchmark_options() -> ColGenOptions {
    ColGenOptions {
        partial_pricing: Some(7.0),
        stabilization: Stabilization::Smoothing { alpha: 0.1 },
        ..ColGenOptions::default()
    }
}

/// One recorded run: per-round `(columns_added, master_iterations)`, the
/// columns in the master at termination, and `flow_value.to_bits()` of the
/// last round.
struct Golden {
    config: &'static str,
    options: ColGenOptions,
    rounds: &'static [(usize, usize)],
    total_columns: usize,
    flow_bits: u64,
}

fn check(name: &str, topo: &Topology, goldens: &[Golden]) {
    for g in goldens {
        let tag = format!("{name} / {}", g.config);
        let commodities = CommoditySet::all_pairs(topo.num_nodes());
        let steps = minimum_steps(topo, &commodities).unwrap();
        let cg = solve_tsmcf_colgen_among_with(topo, commodities, steps, &g.options)
            .unwrap_or_else(|e| panic!("{tag}: solve failed: {e}"));
        assert!(cg.stats.proved_optimal, "{tag}: certificate missing");
        let rounds: Vec<(usize, usize)> = cg
            .stats
            .rounds
            .iter()
            .map(|r| (r.columns_added, r.master_iterations))
            .collect();
        assert_eq!(rounds, g.rounds, "{tag}: round trajectory moved");
        assert_eq!(
            cg.stats.total_columns, g.total_columns,
            "{tag}: column count moved"
        );
        let last = cg.stats.rounds.last().expect("at least one round");
        assert_eq!(
            last.flow_value.to_bits(),
            g.flow_bits,
            "{tag}: final flow value moved (now {})",
            last.flow_value
        );
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
                rounds: &[
                    (4, 103),
                    (5, 2),
                    (5, 6),
                    (5, 4),
                    (3, 5),
                    (4, 3),
                    (4, 10),
                    (5, 7),
                    (3, 23),
                    (1, 9),
                    (8, 5),
                    (3, 1),
                    (4, 15),
                    (12, 10),
                    (5, 12),
                    (1, 8),
                    (9, 3),
                    (0, 4),
                ],
                total_columns: 153,
                flow_bits: 0x4008_0000_0000_0000,
            },
            // 12 / 186 / 134.
            Golden {
                config: "default",
                options: ColGenOptions::default(),
                rounds: &[
                    (4, 103),
                    (5, 2),
                    (6, 6),
                    (5, 3),
                    (5, 6),
                    (6, 7),
                    (4, 10),
                    (6, 16),
                    (8, 12),
                    (6, 8),
                    (7, 8),
                    (0, 5),
                ],
                total_columns: 134,
                flow_bits: 0x4008_0000_0000_0000,
            },
            // 13 / 199 / 142.
            Golden {
                config: "stabilized",
                options: ColGenOptions::stabilized(),
                rounds: &[
                    (4, 103),
                    (5, 2),
                    (6, 6),
                    (5, 3),
                    (5, 6),
                    (6, 7),
                    (4, 10),
                    (6, 16),
                    (7, 12),
                    (8, 7),
                    (6, 6),
                    (8, 17),
                    (0, 4),
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
                rounds: &[
                    (8, 94),
                    (3, 9),
                    (11, 2),
                    (11, 13),
                    (8, 19),
                    (21, 20),
                    (33, 50),
                    (31, 75),
                    (1, 17),
                    (0, 0),
                ],
                total_columns: 183,
                flow_bits: 0x400f_ffff_ffff_fffe,
            },
            // 9 / 299 / 169.
            Golden {
                config: "default",
                options: ColGenOptions::default(),
                rounds: &[
                    (8, 94),
                    (11, 9),
                    (9, 10),
                    (10, 11),
                    (16, 20),
                    (22, 24),
                    (32, 83),
                    (5, 48),
                    (0, 0),
                ],
                total_columns: 169,
                flow_bits: 0x4010_0000_0000_0000,
            },
            // 9 / 307 / 166.
            Golden {
                config: "stabilized",
                options: ColGenOptions::stabilized(),
                rounds: &[
                    (8, 94),
                    (11, 9),
                    (9, 10),
                    (10, 11),
                    (16, 20),
                    (21, 24),
                    (34, 84),
                    (1, 55),
                    (0, 0),
                ],
                total_columns: 166,
                flow_bits: 0x4010_0000_0000_0000,
            },
        ],
    );
}
