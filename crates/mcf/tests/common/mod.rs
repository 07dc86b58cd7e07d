//! Helpers shared by the colgen trajectory suites (`mod common;` in each).

use a2a_mcf::ColGenStats;

/// Asserts two runs produced byte-identical round trajectories. Wall-clock
/// fields are the only fields allowed to differ.
pub fn assert_identical_rounds(tag: &str, a: &ColGenStats, b: &ColGenStats) {
    assert_eq!(
        a.rounds.len(),
        b.rounds.len(),
        "{tag}: round counts diverge"
    );
    for (i, (a, b)) in a.rounds.iter().zip(&b.rounds).enumerate() {
        assert_eq!(
            a.columns_added, b.columns_added,
            "{tag}: round {i} columns_added diverges"
        );
        assert_eq!(
            a.columns_in_master, b.columns_in_master,
            "{tag}: round {i} columns_in_master diverges"
        );
        assert_eq!(
            a.flow_value.to_bits(),
            b.flow_value.to_bits(),
            "{tag}: round {i} flow_value diverges ({} vs {})",
            a.flow_value,
            b.flow_value
        );
        assert_eq!(
            a.max_violation.to_bits(),
            b.max_violation.to_bits(),
            "{tag}: round {i} max_violation diverges ({} vs {})",
            a.max_violation,
            b.max_violation
        );
        assert_eq!(
            a.sources_skipped, b.sources_skipped,
            "{tag}: round {i} sources_skipped diverges"
        );
        assert_eq!(
            a.columns_purged, b.columns_purged,
            "{tag}: round {i} columns_purged diverges"
        );
        assert_eq!(
            a.master_iterations, b.master_iterations,
            "{tag}: round {i} master_iterations diverges"
        );
        assert_eq!(
            a.master_pivots, b.master_pivots,
            "{tag}: round {i} master_pivots diverges"
        );
        assert_eq!(a.misprice, b.misprice, "{tag}: round {i} misprice diverges");
    }
    assert_eq!(
        a.proved_optimal, b.proved_optimal,
        "{tag}: certificates diverge"
    );
    assert_eq!(
        a.total_columns, b.total_columns,
        "{tag}: total_columns diverges"
    );
    assert_eq!(a.misprices, b.misprices, "{tag}: misprices diverge");
}
