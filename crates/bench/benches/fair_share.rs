//! Cost of the event engine's max-min fair-share recompute (the module docs of
//! `crates/simnet/src/fair_share.rs`) on the paper's 27-node torus: whole
//! `simulate_chunked_event` runs of the 128-chunk tsMCF schedule at 16 MiB
//! shards, per execution model, on each of the engine's two paths: links as the
//! only resource (default parameters, the per-link path) and host caps plus QP
//! contention coupling three resources per flow (`SimParams::tacc_cluster`,
//! progressive filling).
//!
//! The kernels are private to the engine, so their per-call cost is read where
//! the engine already measures it: one traced run per case, reporting the
//! `simnet.fair_share_nanos` histogram (one sample per recompute, over the active
//! sets the run really produces — some 0.8k recomputes of a shrinking step-wide
//! set when synchronized, 3.2k of up to ~1.1k overlapping flows when
//! dependency-driven, 2.1k and 3.5k under host caps) next to the run's wall time
//! per recompute, i.e. the cost of one whole event.
//!
//! Measured on a 2-core box: the median of three alternated invocations per
//! side, each the median of 20 runs; per event is that over the run's
//! recomputes. Eager accounting advanced every active flow and searched every
//! live link at each event; the ledger re-marks only flows whose rate changed
//! and keeps the next drain in a min-tournament over links (module docs of
//! `crates/simnet/src/fair_share.rs`).
//!
//! | case | eager, per run | per event | ledger, per run | per event |
//! |---|---|---|---|---|
//! | `sync/links` | 3.87 ms | 4.9 µs | 1.40 ms | 1.8 µs |
//! | `dep/links` | 12.8 ms | 4.0 µs | 2.09 ms | 0.66 µs |
//! | `sync/links+host+qp` | 129.5 ms | 61 µs | 131.1 ms | 62 µs |
//! | `dep/links+host+qp` | 261.8 ms | 76 µs | 273.3 ms | 79 µs |
//!
//! The recompute itself is ~0.1 µs on the per-link path either way. Under
//! host caps progressive filling moves most rates at every event, so the
//! ledger re-marks most flows and re-keys most links; the capped rows moved
//! within this box's run-to-run spread (another round read 123.5 → 124.1 and
//! 267.0 → 237.8 ms). Progressive filling reading the active flows from the
//! ledger's link windows, and the tournaments dropping their bulk rebuild,
//! moved no row beyond that spread either (per run, before → after:
//! 1.41 → 1.53, 2.07 → 2.17, 121.0 → 117.8 and 251.8 → 249.6 ms; a second
//! round of the per-link rows read 1.49 → 1.48 and 2.28 → 2.05 ms).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Instant;

use a2a_mcf::tscolgen::solve_tsmcf_colgen_auto;
use a2a_schedule::ChunkedSchedule;
use a2a_simnet::{simulate_chunked_event, EventSimOptions, ExecutionModel, SimParams};
use a2a_topology::generators;

fn bench_fair_share(c: &mut Criterion) {
    let topo = generators::torus(&[3, 3, 3]);
    let sol = solve_tsmcf_colgen_auto(&topo).unwrap().solution;
    // Exactly 128 chunks per shard (`from_tsmcf` would settle for the coarsest
    // executable granularity, whose few distinct drain times make few events).
    let sched = ChunkedSchedule::from_tsmcf_exact(&topo, &sol.pruned(&topo), 128).unwrap();
    let shard = 16.0 * 1024.0 * 1024.0;
    let cases: Vec<(String, SimParams, EventSimOptions)> = [
        ("links", SimParams::default()),
        ("links+host+qp", SimParams::tacc_cluster()),
    ]
    .into_iter()
    .flat_map(|(resources, params)| {
        [
            ("sync", ExecutionModel::Synchronized),
            ("dep", ExecutionModel::DependencyDriven),
        ]
        .map(|(name, model)| {
            let options = EventSimOptions {
                model,
                ..EventSimOptions::default()
            };
            (format!("{name}/{resources}"), params.clone(), options)
        })
    })
    .collect();

    let mut group = c.benchmark_group("event_sim_torus3x3x3");
    group.sample_size(20);
    for (name, params, options) in &cases {
        group.bench_function(BenchmarkId::new("simulate_chunked_event", name), |b| {
            b.iter(|| {
                let rep = simulate_chunked_event(&topo, &sched, shard, params, options).unwrap();
                black_box(rep.report.completion_seconds)
            })
        });
    }
    group.finish();

    a2a_obs::enable();
    for (name, params, options) in &cases {
        a2a_obs::reset();
        let start = Instant::now();
        let rep = simulate_chunked_event(&topo, &sched, shard, params, options).unwrap();
        let wall = start.elapsed();
        let trace = a2a_obs::flush();
        let kernel = trace
            .histograms
            .iter()
            .find(|h| h.name == "simnet.fair_share_nanos")
            .expect("the engine times every recompute while tracing is on");
        println!(
            "kernel {name}: {} recomputes, widest set {} flows; recompute mean {:.0} ns, \
             p50 {} ns, p99 {} ns; whole event {:.0} ns (traced)",
            kernel.count,
            rep.max_concurrent_flows,
            kernel.mean(),
            kernel.quantile(0.5),
            kernel.quantile(0.99),
            wall.as_nanos() as f64 / kernel.count as f64,
        );
    }
    a2a_obs::disable();
}

criterion_group!(benches, bench_fair_share);
criterion_main!(benches);
