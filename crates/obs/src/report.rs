//! Structured per-solve diagnostics: convergence trajectories, simplex
//! progress samples, counter/stage snapshots — serialized as one JSON
//! document per solve. This is the machine-readable artifact the
//! `solve_report` example writes and the response-metadata format a
//! planner-as-a-service layer would attach to answers.
//!
//! The structs here are solver-agnostic (this crate cannot depend on the
//! solvers); `a2a_mcf::report` adapts `ColGenStats`/`DecomposedTimings`/
//! `LpSolution` into them.
//!
//! # SolveReport JSON schema (`a2a.solve_report.v1`)
//!
//! ```json
//! {
//!   "schema": "a2a.solve_report.v1",
//!   "solver": "pmcf-colgen",            // which solver produced this
//!   "workload": "pmcf",                 // caller's workload id (or "")
//!   "topology": "torus-8x8",
//!   "config": "stabilized",
//!   "wall_secs": 1.234,
//!   "objective": 456.75,
//!   "proved_optimal": true,             // null when not applicable
//!   "watchdog_trips": 0,
//!   "convergence": [                    // one row per colgen round
//!     {"round": 1, "objective": 1.0, "dual_violation": 0.5,
//!      "columns_added": 12, "columns_purged": 0, "misprice": false,
//!      "pricing_wall_secs": 0.01, "master_wall_secs": 0.02,
//!      "master_iterations": 40}
//!   ],
//!   "simplex_progress": [               // one row per refactorization
//!     {"iterations": 100, "wall_secs": 0.05, "objective": 7.5}
//!   ],
//!   "counters": {"lp.iterations": 1234},          // nonzero only
//!   "stage_breakdown": {"colgen.master": 0.8},    // span total seconds
//!   "histograms": [
//!     {"name": "lp.iteration_nanos", "count": 1000, "mean": 820.0,
//!      "p50": 768, "p90": 1536, "p99": 2048, "max": 9216}
//!   ]
//! }
//! ```
//!
//! Non-finite floats serialize as `null`. Arrays are empty (never absent)
//! when a section does not apply, so consumers can index unconditionally.

use crate::chrome::escape;
use crate::summary::Summary;
use std::io::{self, Write};

/// One colgen round in a convergence trajectory.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ConvergenceRound {
    /// 1-based round number.
    pub round: usize,
    /// Master objective (F) after the round.
    pub objective: f64,
    /// Maximum dual violation (most negative reduced cost) seen in pricing.
    pub dual_violation: f64,
    pub columns_added: usize,
    pub columns_purged: usize,
    /// True if this round's pricing mispriced (stabilized duals had to be
    /// collapsed toward the true duals).
    pub misprice: bool,
    pub pricing_wall_secs: f64,
    pub master_wall_secs: f64,
    pub master_iterations: usize,
}

/// One per-refactorization simplex progress sample: cumulative iterations
/// and wall seconds since the solve started, plus the current objective.
/// Iterations/sec between consecutive samples is the watchdog's rate
/// signal.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SimplexProgress {
    pub iterations: u64,
    pub wall_secs: f64,
    pub objective: f64,
}

/// Summary row for one histogram embedded in a report.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HistogramReport {
    pub name: String,
    pub count: u64,
    pub mean: f64,
    pub p50: u64,
    pub p90: u64,
    pub p99: u64,
    pub max: u64,
}

/// Machine-readable record of one solve. See the module docs for the JSON
/// schema.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SolveReport {
    pub solver: String,
    pub workload: String,
    pub topology: String,
    pub config: String,
    pub wall_secs: f64,
    pub objective: f64,
    /// `Some(true)` when the solver proved optimality, `Some(false)` when
    /// it stopped early, `None` when the notion does not apply.
    pub proved_optimal: Option<bool>,
    pub watchdog_trips: u64,
    pub convergence: Vec<ConvergenceRound>,
    pub simplex_progress: Vec<SimplexProgress>,
    /// Nonzero counters, name-sorted.
    pub counters: Vec<(String, u64)>,
    /// Span-name → total wall seconds, name-sorted.
    pub stage_breakdown: Vec<(String, f64)>,
    pub histograms: Vec<HistogramReport>,
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

impl SolveReport {
    /// Copies the nonzero counters, stage breakdown (span totals by name),
    /// and histogram summaries out of an enabled-run [`Summary`].
    pub fn attach_summary(&mut self, s: &Summary) {
        self.counters = s.counters.iter().filter(|(_, v)| *v > 0).cloned().collect();
        self.stage_breakdown = s
            .totals_by_name()
            .into_iter()
            .map(|(name, (_count, secs))| (name, secs))
            .collect();
        self.histograms = s
            .histograms
            .iter()
            .filter(|h| h.count > 0)
            .map(|h| HistogramReport {
                name: h.name.to_string(),
                count: h.count,
                mean: h.mean(),
                p50: h.quantile(0.50),
                p90: h.quantile(0.90),
                p99: h.quantile(0.99),
                max: h.max,
            })
            .collect();
    }

    /// Serializes as one pretty-printed JSON document (schema in the
    /// module docs).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"schema\": \"a2a.solve_report.v1\",\n");
        out.push_str(&format!("  \"solver\": \"{}\",\n", escape(&self.solver)));
        out.push_str(&format!(
            "  \"workload\": \"{}\",\n",
            escape(&self.workload)
        ));
        out.push_str(&format!(
            "  \"topology\": \"{}\",\n",
            escape(&self.topology)
        ));
        out.push_str(&format!("  \"config\": \"{}\",\n", escape(&self.config)));
        out.push_str(&format!("  \"wall_secs\": {},\n", num(self.wall_secs)));
        out.push_str(&format!("  \"objective\": {},\n", num(self.objective)));
        out.push_str(&format!(
            "  \"proved_optimal\": {},\n",
            match self.proved_optimal {
                Some(b) => b.to_string(),
                None => "null".to_string(),
            }
        ));
        out.push_str(&format!("  \"watchdog_trips\": {},\n", self.watchdog_trips));
        let rounds: Vec<String> = self
            .convergence
            .iter()
            .map(|r| {
                format!(
                    "    {{\"round\": {}, \"objective\": {}, \"dual_violation\": {}, \
                     \"columns_added\": {}, \"columns_purged\": {}, \"misprice\": {}, \
                     \"pricing_wall_secs\": {}, \"master_wall_secs\": {}, \
                     \"master_iterations\": {}}}",
                    r.round,
                    num(r.objective),
                    num(r.dual_violation),
                    r.columns_added,
                    r.columns_purged,
                    r.misprice,
                    num(r.pricing_wall_secs),
                    num(r.master_wall_secs),
                    r.master_iterations,
                )
            })
            .collect();
        out.push_str(&format!(
            "  \"convergence\": [\n{}\n  ],\n",
            rounds.join(",\n")
        ));
        if rounds.is_empty() {
            out = out.replace("\"convergence\": [\n\n  ]", "\"convergence\": []");
        }
        let progress: Vec<String> = self
            .simplex_progress
            .iter()
            .map(|p| {
                format!(
                    "    {{\"iterations\": {}, \"wall_secs\": {}, \"objective\": {}}}",
                    p.iterations,
                    num(p.wall_secs),
                    num(p.objective),
                )
            })
            .collect();
        out.push_str(&format!(
            "  \"simplex_progress\": [\n{}\n  ],\n",
            progress.join(",\n")
        ));
        if progress.is_empty() {
            out = out.replace("\"simplex_progress\": [\n\n  ]", "\"simplex_progress\": []");
        }
        let counters: Vec<String> = self
            .counters
            .iter()
            .map(|(name, v)| format!("    \"{}\": {}", escape(name), v))
            .collect();
        out.push_str(&format!(
            "  \"counters\": {{\n{}\n  }},\n",
            counters.join(",\n")
        ));
        if counters.is_empty() {
            out = out.replace("\"counters\": {\n\n  }", "\"counters\": {}");
        }
        let stages: Vec<String> = self
            .stage_breakdown
            .iter()
            .map(|(name, secs)| format!("    \"{}\": {}", escape(name), num(*secs)))
            .collect();
        out.push_str(&format!(
            "  \"stage_breakdown\": {{\n{}\n  }},\n",
            stages.join(",\n")
        ));
        if stages.is_empty() {
            out = out.replace("\"stage_breakdown\": {\n\n  }", "\"stage_breakdown\": {}");
        }
        let hists: Vec<String> = self
            .histograms
            .iter()
            .map(|h| {
                format!(
                    "    {{\"name\": \"{}\", \"count\": {}, \"mean\": {}, \"p50\": {}, \
                     \"p90\": {}, \"p99\": {}, \"max\": {}}}",
                    escape(&h.name),
                    h.count,
                    num(h.mean),
                    h.p50,
                    h.p90,
                    h.p99,
                    h.max,
                )
            })
            .collect();
        out.push_str(&format!(
            "  \"histograms\": [\n{}\n  ]\n",
            hists.join(",\n")
        ));
        if hists.is_empty() {
            out = out.replace("\"histograms\": [\n\n  ]", "\"histograms\": []");
        }
        out.push_str("}\n");
        out
    }

    /// Writes [`SolveReport::to_json`] to a writer.
    pub fn write_json(&self, w: &mut dyn Write) -> io::Result<()> {
        w.write_all(self.to_json().as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sections_serialize_as_empty_collections() {
        let r = SolveReport {
            solver: "test".to_string(),
            ..SolveReport::default()
        };
        let json = r.to_json();
        assert!(json.contains("\"convergence\": []"), "{json}");
        assert!(json.contains("\"simplex_progress\": []"), "{json}");
        assert!(json.contains("\"counters\": {}"), "{json}");
        assert!(json.contains("\"stage_breakdown\": {}"), "{json}");
        assert!(json.contains("\"histograms\": []"), "{json}");
        assert!(json.contains("\"proved_optimal\": null"), "{json}");
    }

    #[test]
    fn populated_report_round_trips_key_fields() {
        let r = SolveReport {
            solver: "pmcf-colgen".to_string(),
            workload: "pmcf".to_string(),
            topology: "torus-4x4".to_string(),
            config: "stabilized".to_string(),
            wall_secs: 0.5,
            objective: 12.25,
            proved_optimal: Some(true),
            watchdog_trips: 1,
            convergence: vec![ConvergenceRound {
                round: 1,
                objective: 12.25,
                dual_violation: 0.125,
                columns_added: 3,
                columns_purged: 0,
                misprice: false,
                pricing_wall_secs: 0.01,
                master_wall_secs: 0.02,
                master_iterations: 7,
            }],
            simplex_progress: vec![SimplexProgress {
                iterations: 64,
                wall_secs: 0.25,
                objective: 12.25,
            }],
            counters: vec![("lp.iterations".to_string(), 64)],
            stage_breakdown: vec![("colgen.master".to_string(), 0.25)],
            histograms: vec![],
        };
        let json = r.to_json();
        for needle in [
            "\"schema\": \"a2a.solve_report.v1\"",
            "\"proved_optimal\": true",
            "\"round\": 1",
            "\"misprice\": false",
            "\"lp.iterations\": 64",
            "\"colgen.master\": 0.25",
            "\"iterations\": 64",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
        assert!(!json.contains("NaN"));
    }
}
