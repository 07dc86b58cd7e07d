//! The settable solver and simulator options, pinned field by field.
//!
//! Each option struct is built with an exhaustive struct literal — no
//! `..Default::default()` — at its default values, so a new field fails to
//! compile here and a changed default fails the comparison. Adding a knob
//! therefore means editing this test, and the knob count kept in
//! `CHANGES.md`, on purpose. The count: `SimplexOptions` 2, `ColGenOptions` 4,
//! `ReplanOptions` 1 (7 solver knobs), plus `DecomposedOptions` 2 and
//! `EventSimOptions` 2.

use std::fmt::Debug;

use a2a_lp::SimplexOptions;
use a2a_mcf::{ColGenOptions, DecomposedOptions, Stabilization};
use a2a_simnet::{EventSimOptions, ExecutionModel, ReplanOptions, Scenario};

/// The option structs derive `Debug` but not `PartialEq` (a warm start holds a
/// basis), so equality is checked on the debug rendering.
fn assert_default<T: Debug + Default>(literal: T) {
    assert_eq!(format!("{literal:?}"), format!("{:?}", T::default()));
}

#[test]
fn option_structs_have_exactly_the_pinned_fields() {
    assert_default(SimplexOptions {
        max_iterations: 1_000_000,
        warm_start: None,
    });
    assert_default(ColGenOptions {
        max_rounds: 200,
        partial_pricing: Some(1e-1),
        stabilization: Stabilization::Smoothing { alpha: 0.1 },
        purge_nonbasic_after: None,
    });
    assert_default(ReplanOptions {
        solve_time_budget_secs: f64::INFINITY,
    });
    assert_default(DecomposedOptions {
        warm_start_children: true,
        crash_master: true,
    });
    assert_default(EventSimOptions {
        model: ExecutionModel::Synchronized,
        scenario: Scenario::nominal(),
    });
}
