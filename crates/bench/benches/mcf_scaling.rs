//! Criterion micro-benchmarks behind Fig. 7: schedule-generation cost of the original
//! link MCF vs the decomposed master/child formulation on generalized Kautz graphs.
//! (The full runtime-scaling sweep is the `fig7` binary; these benches track the two
//! formulations' cost on fixed small instances so regressions are visible in CI.)

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use a2a_mcf::decomposed::{solve_master_with, DecomposedOptions};
use a2a_mcf::{solve_decomposed_mcf, solve_link_mcf, CommoditySet};
use a2a_topology::generators;

fn bench_link_mcf_formulations(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig7_mcf_scaling");
    group.sample_size(10);
    for &n in &[8usize, 12] {
        let topo = generators::generalized_kautz(n, 3);
        group.bench_with_input(BenchmarkId::new("mcf_original", n), &topo, |b, topo| {
            b.iter(|| black_box(solve_link_mcf(topo).unwrap().flow_value))
        });
        group.bench_with_input(BenchmarkId::new("mcf_decomposed", n), &topo, |b, topo| {
            b.iter(|| black_box(solve_decomposed_mcf(topo).unwrap().solution.flow_value))
        });
        group.bench_with_input(BenchmarkId::new("master_lp_only", n), &topo, |b, topo| {
            let commodities = CommoditySet::all_pairs(topo.num_nodes());
            b.iter(|| {
                black_box(
                    solve_master_with(topo, &commodities, &DecomposedOptions::default())
                        .unwrap()
                        .flow_value,
                )
            })
        });
    }
    group.finish();
}

fn bench_tsmcf(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig3_tsmcf_generation");
    group.sample_size(10);
    for (name, topo) in [
        ("hypercube2", generators::hypercube(2)),
        ("ring4", generators::ring(4)),
    ] {
        group.bench_function(BenchmarkId::new("tsmcf_auto", name), |b| {
            b.iter(|| {
                black_box(
                    a2a_mcf::tscolgen::solve_tsmcf_colgen_auto(&topo)
                        .unwrap()
                        .solution
                        .total_utilization(),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_link_mcf_formulations, bench_tsmcf);
criterion_main!(benches);
