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
//! Measured on a 2-core Xeon box (medians of 20 runs, the median of three
//! alternated invocations per side): with each link's flows in a window of
//! flat arrays the per-link path runs synchronized in 5.4 ms and
//! dependency-driven in 15.7 ms, against 8.8 and 32.7 ms with one ordered flow
//! list advanced through per-flow job lookups, i.e. ~7 and ~5 µs per event
//! instead of ~11 and ~10 µs, of which the recompute is ~0.1 µs. Under host
//! caps an event stays at 60–80 µs, most of it progressive filling (126 and
//! 269 ms; 131 and 238 ms before, within the 109–285 ms spread of that side's
//! invocations).

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
