//! Criterion micro-benchmarks for schedule compilation (§4): chunking, XML emission,
//! route-table lowering and LASH virtual-channel assignment.
//!
//! `route_lowering_torus8x8_extp` and `route_validate_torus8x8_extp` time the
//! benchmark's `extp-torus8x8` lowering on its own input: the 4,032 widest
//! paths extracted from the decomposed torus-8×8 solve, 16 chunks per shard,
//! LASH-sequential (five layers).
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
    extract_widest_paths, solve_decomposed_mcf_with, ColGenOptions, CommoditySet,
    DecomposedOptions, Stabilization,
};
use a2a_schedule::{
    lower_path_schedule, to_msccl_xml, to_oneccl_xml, ChunkedSchedule, LashVariant, TransferDag,
};
use a2a_topology::generators;

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
    bench_lowering_simsweep
);
criterion_main!(benches);
