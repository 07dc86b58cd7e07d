//! Criterion micro-benchmarks for schedule compilation (§4): chunking, XML emission,
//! route-table lowering and LASH virtual-channel assignment.
//!
//! `route_lowering_torus8x8_extp` and `route_validate_torus8x8_extp` time the
//! benchmark's `extp-torus8x8` lowering on its own input: the 4,032 widest
//! paths extracted from the decomposed torus-8×8 solve, 16 chunks per shard,
//! LASH-sequential (five layers). `extract_torus8x8_extp` times that
//! extraction from the solve's link flows.
//!
//! `lash_genkautz48_pmcf` times LASH-sequential alone on the largest route set
//! the benchmark's `pmcf-genkautz` sweep lowers: the 2,818 routes of the
//! GenKautz-48 column-generation solve under the benchmark's pMCF options.
//!
//! `transfer_dag`, `chunk_validate`, `msccl_xml` and `oneccl_xml` time the
//! per-lowering layers of the benchmark's `simsweep-torus3x3x3` rep on its
//! finest input: the pruned torus-3×3×3 tsMCF solve under the benchmark's
//! colgen options, lowered at exactly 128 chunks per shard.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use a2a_mcf::pmcf::{solve_path_mcf, PathSetKind};
use a2a_mcf::tscolgen::{solve_tsmcf_colgen_among_with, solve_tsmcf_colgen_auto};
use a2a_mcf::tsmcf::minimum_steps;
use a2a_mcf::{
    extract_widest_paths, solve_decomposed_mcf_with, solve_path_mcf_colgen_among, ColGenOptions,
    CommoditySet, DecomposedOptions, Stabilization,
};
use a2a_schedule::{
    assign_virtual_channels, lower_path_schedule, to_msccl_xml, to_oneccl_xml, ChunkedSchedule,
    LashVariant, TransferDag,
};
use a2a_topology::{generators, Path};

fn bench_lowering(c: &mut Criterion) {
    let topo = generators::hypercube(3);
    let tsmcf = solve_tsmcf_colgen_auto(&topo).unwrap().solution;
    let chunked = ChunkedSchedule::from_tsmcf(&topo, &tsmcf, 256).unwrap();
    let pmcf = solve_path_mcf(&topo, PathSetKind::EdgeDisjoint).unwrap();

    let mut group = c.benchmark_group("schedule_compilation");
    group.sample_size(20);
    group.bench_function("chunking_from_tsmcf", |b| {
        b.iter(|| {
            black_box(
                ChunkedSchedule::from_tsmcf(&topo, &tsmcf, 256)
                    .unwrap()
                    .num_steps(),
            )
        })
    });
    group.bench_function("msccl_xml_emit", |b| {
        b.iter(|| black_box(to_msccl_xml(&chunked, "hypercube3").len()))
    });
    group.bench_function("oneccl_xml_emit", |b| {
        b.iter(|| black_box(to_oneccl_xml(&chunked, "hypercube3").len()))
    });
    group.bench_function("route_lowering_with_lash_sequential", |b| {
        b.iter(|| {
            black_box(lower_path_schedule(&topo, &pmcf, 16, LashVariant::Sequential).total_routes())
        })
    });
    group.bench_function("route_lowering_with_lash_basic", |b| {
        b.iter(|| {
            black_box(lower_path_schedule(&topo, &pmcf, 16, LashVariant::Basic).total_routes())
        })
    });
    group.finish();
}

fn bench_lowering_torus8x8_extp(c: &mut Criterion) {
    let topo = generators::torus(&[8, 8]);
    let commodities = CommoditySet::all_pairs(topo.num_nodes());
    let solved =
        solve_decomposed_mcf_with(&topo, commodities, &DecomposedOptions::default()).unwrap();
    let paths = extract_widest_paths(&topo, &solved.solution).unwrap();
    let table = lower_path_schedule(&topo, &paths, 16, LashVariant::Sequential);
    assert_eq!(table.total_routes(), 4032);

    let mut group = c.benchmark_group("schedule_compilation");
    group.sample_size(20);
    group.bench_function("extract_torus8x8_extp", |b| {
        b.iter(|| {
            black_box(
                extract_widest_paths(&topo, &solved.solution)
                    .unwrap()
                    .total_paths(),
            )
        })
    });
    group.bench_function("route_lowering_torus8x8_extp", |b| {
        b.iter(|| {
            black_box(lower_path_schedule(&topo, &paths, 16, LashVariant::Sequential).num_layers)
        })
    });
    group.bench_function("route_validate_torus8x8_extp", |b| {
        b.iter(|| black_box(table.validate().len()))
    });
    group.finish();
}

fn bench_lash_genkautz48(c: &mut Criterion) {
    let topo = generators::generalized_kautz(48, 4);
    // The benchmark's pMCF options.
    let options = ColGenOptions {
        partial_pricing: Some(1e-1),
        stabilization: Stabilization::Smoothing { alpha: 0.1 },
        ..ColGenOptions::default()
    };
    let commodities = CommoditySet::all_pairs(topo.num_nodes());
    let solved = solve_path_mcf_colgen_among(&topo, commodities, &options).unwrap();
    let routes: Vec<&Path> = solved
        .schedule
        .paths
        .iter()
        .flat_map(|list| list.iter().map(|(p, _)| p))
        .collect();
    assert_eq!(routes.len(), 2818);

    let mut group = c.benchmark_group("schedule_compilation");
    group.sample_size(20);
    group.bench_function("lash_genkautz48_pmcf", |b| {
        b.iter(|| {
            black_box(assign_virtual_channels(&topo, &routes, LashVariant::Sequential).num_layers())
        })
    });
    group.finish();
}

fn bench_lowering_simsweep(c: &mut Criterion) {
    let topo = generators::torus(&[3, 3, 3]);
    let commodities = CommoditySet::all_pairs(topo.num_nodes());
    let steps = minimum_steps(&topo, &commodities).unwrap();
    // The benchmark's tsMCF colgen options.
    let options = ColGenOptions {
        partial_pricing: Some(7.0),
        stabilization: Stabilization::Smoothing { alpha: 0.1 },
        ..ColGenOptions::default()
    };
    let solved = solve_tsmcf_colgen_among_with(&topo, commodities, steps, &options).unwrap();
    let pruned = solved.solution.pruned(&topo);
    let sched = ChunkedSchedule::from_tsmcf_exact(&topo, &pruned, 128).unwrap();

    let mut group = c.benchmark_group("simsweep_torus3x3x3_128");
    group.sample_size(50);
    group.bench_function("transfer_dag", |b| {
        b.iter(|| black_box(TransferDag::from_schedule(&sched).unwrap().jobs.len()))
    });
    group.bench_function("chunk_validate", |b| {
        b.iter(|| black_box(sched.validate(&topo).len()))
    });
    group.bench_function("msccl_xml", |b| {
        b.iter(|| black_box(to_msccl_xml(&sched, "a2a-benchmark").len()))
    });
    group.bench_function("oneccl_xml", |b| {
        b.iter(|| black_box(to_oneccl_xml(&sched, "a2a-benchmark").len()))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_lowering,
    bench_lowering_torus8x8_extp,
    bench_lash_genkautz48,
    bench_lowering_simsweep
);
criterion_main!(benches);
