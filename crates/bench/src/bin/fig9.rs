//! Figure 9: all-to-all time (normalized by the link MCF) on a generalized Kautz graph
//! as random directed links are disabled.
//!
//! The paper evaluates N = 81, degree 8 with up to 60 disabled links; the default
//! sweep uses a smaller instance of the same family (N = 18, degree 4), and
//! `--large` switches to the paper's scale. The default sweep takes about
//! 6 min 20 s in a release build (one core of a 2-core x86-64 box), most of it
//! in the ILP baseline; where that finds no integer solution within its node
//! budget (0 and 4 disabled links) the row is missing and the error goes to
//! stderr.

use a2a_baselines::{ilp_path_selection, sssp_schedule, IlpPathOptions};
use a2a_bench::*;
use a2a_mcf::analysis::max_link_load_of_paths;
use a2a_mcf::pmcf::{solve_path_mcf, PathSetKind};
use a2a_mcf::solve_decomposed_mcf;
use a2a_topology::{generators, puncture};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() {
    let large = large_mode();
    print_header();
    let (n, degree, disabled_counts): (usize, usize, Vec<usize>) = if large {
        (81, 8, vec![0, 10, 20, 30, 40, 50, 60])
    } else {
        (18, 4, vec![0, 4, 8, 12])
    };
    let base = generators::generalized_kautz(n, degree);
    let name = format!("genkautz-{n}-d{degree}");
    let mut rng = ChaCha8Rng::seed_from_u64(42);

    for &disabled in &disabled_counts {
        let topo = if disabled == 0 {
            base.clone()
        } else {
            puncture::remove_random_directed_edges(&base, disabled, &mut rng)
        };
        let optimal = solve_decomposed_mcf(&topo).expect("decomposed MCF");
        let optimal_time = 1.0 / optimal.solution.flow_value;
        emit("fig9", &name, "Link-based MCF", disabled as f64, 1.0);

        if let Ok(p) = solve_path_mcf(&topo, PathSetKind::EdgeDisjoint) {
            emit(
                "fig9",
                &name,
                "pMCF-disjoint",
                disabled as f64,
                max_link_load_of_paths(&topo, &p) / optimal_time,
            );
        }
        let sssp = sssp_schedule(&topo).expect("SSSP");
        emit(
            "fig9",
            &name,
            "SSSP",
            disabled as f64,
            max_link_load_of_paths(&topo, &sssp) / optimal_time,
        );
        if !large {
            match ilp_path_selection(
                &topo,
                &IlpPathOptions {
                    relative_gap: 0.1,
                    max_nodes: 1_000,
                    ..IlpPathOptions::default()
                },
            ) {
                Ok((ilp, _)) => emit(
                    "fig9",
                    &name,
                    "ILP-disjoint (10% tolerance)",
                    disabled as f64,
                    max_link_load_of_paths(&topo, &ilp) / optimal_time,
                ),
                Err(e) => eprintln!("fig9: ILP-disjoint at {disabled} disabled links: {e}"),
            }
        }
    }
}
