//! Observability integration: real solves, traced end to end.
//!
//! Pins the two contracts the `a2a_obs` unit suite can only check on
//! synthetic workloads:
//!
//! 1. **Balance** — every span opened during a production solve is closed, on
//!    every thread. The colgen driver (path-MCF and time-expanded masters
//!    alike) runs on the calling thread; the decomposed solve on a mesh (no
//!    symmetry to use) fans its nine child LPs out to rayon-shim worker
//!    threads, so it is the one that exercises cross-thread recording.
//! 2. **Run-to-run determinism** — the solvers are deterministic, so the
//!    name-keyed span counts and counter values of two traced runs of the
//!    same solve must be identical. The comparison uses `totals_by_name`, not
//!    tree paths: a worker thread records `decomposed.child` at its own top
//!    level, an inline run (one core) nests it under `decomposed.solve`.
//!
//! Obs state is process-global, so everything obs-touching lives in this one
//! test function; this file is its own test binary (own process) and never
//! races the other mcf suites.

use std::collections::BTreeMap;

use a2a_mcf::pmcf::solve_path_mcf_colgen_among;
use a2a_mcf::tscolgen::solve_tsmcf_colgen_among_with;
use a2a_mcf::tsmcf::minimum_steps;
use a2a_mcf::{solve_decomposed_mcf, ColGenOptions, CommoditySet, Stabilization};
use a2a_obs::summary::{summarize, Summary};
use a2a_topology::{generators, Topology};

/// Runs `solve` traced and returns (its flow value, the trace summary).
fn traced(solve: impl FnOnce() -> f64) -> (f64, Summary) {
    a2a_obs::reset();
    a2a_obs::enable();
    let flow = solve();
    a2a_obs::disable();
    (flow, summarize(&a2a_obs::flush()))
}

/// Production-shaped colgen options (smoothing + partial pricing) so the skip
/// and misprice resweeps — and the `colgen.price_source` spans in them — run.
fn traced_colgen() -> (f64, Summary) {
    let topo = generators::torus(&[3, 3]);
    let commodities = CommoditySet::all_pairs(topo.num_nodes());
    let options = ColGenOptions {
        stabilization: Stabilization::Smoothing { alpha: 0.1 },
        partial_pricing: Some(1e-1),
        ..ColGenOptions::default()
    };
    traced(|| {
        solve_path_mcf_colgen_among(&topo, commodities, &options)
            .expect("torus-3x3 colgen solves")
            .schedule
            .flow_value
    })
}

/// The time-expanded master under the benchmark configuration (the drift
/// tolerance at which its partial-pricing skip fires).
fn traced_tscolgen() -> (f64, Summary) {
    let topo = generators::torus(&[3, 3]);
    let commodities = CommoditySet::all_pairs(topo.num_nodes());
    let steps = minimum_steps(&topo, &commodities).expect("step bound");
    let options = ColGenOptions {
        stabilization: Stabilization::Smoothing { alpha: 0.1 },
        partial_pricing: Some(7.0),
        ..ColGenOptions::default()
    };
    traced(|| {
        solve_tsmcf_colgen_among_with(&topo, commodities, steps, &options)
            .expect("torus-3x3 tsMCF colgen solves")
            .solution
            .total_utilization()
    })
}

fn traced_decomposed(topo: &Topology) -> (f64, Summary) {
    traced(|| {
        solve_decomposed_mcf(topo)
            .unwrap_or_else(|e| panic!("{}: decomposed solve failed: {e}", topo.name()))
            .solution
            .flow_value
    })
}

fn span_counts(s: &Summary) -> BTreeMap<String, u64> {
    s.totals_by_name()
        .into_iter()
        .map(|(name, (count, _secs))| (name, count))
        .collect()
}

/// The value of a counter, `None` when the summary does not list it.
fn counter(s: &Summary, name: &str) -> Option<u64> {
    s.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
}

/// Traces every solver twice: each trace balances, and the two runs repeat.
#[test]
fn traced_colgen_solve_balances_and_repeats() {
    let colgen = [traced_colgen(), traced_colgen()];
    let tscolgen = [traced_tscolgen(), traced_tscolgen()];
    let torus = generators::torus(&[3, 3]);
    let decomposed = [traced_decomposed(&torus), traced_decomposed(&torus)];
    let mesh = generators::mesh(&[3, 3]);
    let decomposed_mesh = [traced_decomposed(&mesh), traced_decomposed(&mesh)];

    for (tag, runs) in [
        ("colgen", &colgen),
        ("tscolgen", &tscolgen),
        ("decomposed", &decomposed),
        ("decomposed mesh", &decomposed_mesh),
    ] {
        for (_, s) in runs {
            assert!(s.is_balanced(), "{tag} trace unbalanced:\n{}", s.render());
            assert_eq!(s.dropped_events, 0, "{tag} trace dropped events");
            assert!(
                s.count("lp.lu.factor") >= 1,
                "{tag}: the LP must factorize at least once"
            );
        }
        // Identical work run to run: same flow value, same span counts per
        // name (wall-clock may differ), same counter values.
        let [(flow_a, a), (flow_b, b)] = runs;
        assert_eq!(
            flow_a.to_bits(),
            flow_b.to_bits(),
            "{tag}: flow value diverges"
        );
        assert_eq!(span_counts(a), span_counts(b), "{tag}: span counts diverge");
        assert_eq!(a.counters, b.counters, "{tag}: counter values diverge");
    }

    for (_, s) in [&colgen[0], &tscolgen[0]] {
        assert!(s.count("colgen.round") >= 1, "no colgen rounds traced");
        assert_eq!(
            s.count("colgen.master"),
            s.count("colgen.round"),
            "one master reoptimize per round"
        );
        assert!(
            s.count("colgen.price_source") >= s.count("colgen.round"),
            "pricing sweep must touch at least one source per round"
        );
        assert!(s.count("colgen.pricing") >= 1, "no pricing sweep traced");
    }

    // pMCF colgen searches the fabric's group once per solve, around its
    // master build; the time-expanded master is not folded.
    assert_eq!(colgen[0].1.count("pmcf.symmetry"), 1);
    assert_eq!(tscolgen[0].1.count("pmcf.symmetry"), 0);

    // One symmetry search per solve. The torus is one orbit: one child LP
    // runs and the other sources' children are mapped from it. The mesh has
    // no automorphism between its corners and its centre, so it solves one
    // child LP per source endpoint, recorded on whichever thread ran it.
    for ((_, s), children) in [(&decomposed[0], 1), (&decomposed_mesh[0], 9)] {
        assert_eq!(s.count("decomposed.solve"), 1);
        assert_eq!(s.count("decomposed.symmetry"), 1);
        assert_eq!(s.count("decomposed.master"), 1);
        assert_eq!(s.count("decomposed.child"), children);
    }

    // The repo benchmark's traced rep (`benchmark/src/lib.rs::traced_metrics`)
    // looks its signals up by name and reads a missing one as 0.0, so a renamed
    // or deleted signal would zero a per-layer metric without failing anything
    // else. Every name it reads from a solve is held here; the simulator's are
    // in `crates/simnet/tests/obs_integration.rs`. (`lp.ft_update_rejects`
    // cannot be: a counter registers at its first increment, and no solve here
    // or in the benchmark rejects a Forrest–Tomlin update.)
    let (_, s) = &colgen[0];
    for name in ["lp.refactorizations", "lp.degenerate_pivots"] {
        assert!(counter(s, name).is_some(), "colgen: no counter {name}");
    }
    for name in ["lp.iterations", "lp.ft_updates"] {
        assert!(counter(s, name) > Some(0), "colgen: counter {name}");
    }
    let iteration_nanos = s.histograms.iter().find(|h| h.name == "lp.iteration_nanos");
    assert!(
        iteration_nanos.is_some_and(|h| h.count > 0),
        "colgen: histogram lp.iteration_nanos"
    );
    for name in [
        "lp.phase2",
        "lp.lu.factor",
        "lp.lu.ftran",
        "lp.lu.btran",
        "lp.lu.ft_update",
    ] {
        assert!(s.count(name) > 0, "colgen: span {name}");
    }
    let (_, s) = &decomposed[0];
    assert!(counter(s, "lp.dual_iterations") > Some(0), "decomposed");
    assert!(s.count("lp.dual") > 0, "decomposed: span lp.dual");
}
