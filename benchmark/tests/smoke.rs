//! Drives the built binary the way the driver does, at the seconds-scale
//! `--smoke` sizes (torus-4x4, GenKautz-12/14/16, torus-3x3), and holds its
//! output against `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::process::Command;

use a2a_benchmark::json::{self, Value};
use a2a_benchmark::metrics::{END_TO_END, PER_LAYER, WORKLOADS};

fn contract() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
        .expect("BENCHMARK.json parses")
}

fn names_and_units(contract: &Value, section: &str) -> Vec<(String, String)> {
    let field = |entry: &Value, key: &str| entry.get(key).and_then(Value::as_str).map(String::from);
    contract
        .get(section)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"))
        .iter()
        .map(|entry| {
            (
                field(entry, "name").expect("a name"),
                field(entry, "unit").unwrap_or_default(),
            )
        })
        .collect()
}

/// Runs one smoke workload; returns the result object of stdout's last line.
fn run(workload: &str, trace: &str) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_a2a_benchmark"))
        .args(["--workload", workload, "--smoke", "--seconds", "0"])
        .args(["--seed", "1", "--trace", trace])
        .output()
        .expect("the benchmark binary runs");
    assert!(
        out.status.success(),
        "{workload} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    let last = stdout.lines().last().expect("a result line");
    let result = json::parse(last).expect("the last line is one JSON object");
    let keys: Vec<&str> = result
        .as_object()
        .expect("an object")
        .keys()
        .map(String::as_str)
        .collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "{last}");
    assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
    assert!(result.get("attempted").and_then(Value::as_f64) >= Some(1.0));
    result
}

/// The printed metrics as `name → (value, unit)`.
fn metrics(result: &Value) -> BTreeMap<String, (f64, String)> {
    result
        .get("metrics")
        .and_then(Value::as_object)
        .expect("a metrics object")
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Value::as_f64).expect("a value");
            let unit = m.get("unit").and_then(Value::as_str).expect("a unit");
            (name.clone(), (value, unit.to_string()))
        })
        .collect()
}

fn assert_same_names(printed: &BTreeMap<String, (f64, String)>, listed: &[(String, String)]) {
    let printed: Vec<(String, String)> = printed
        .iter()
        .map(|(name, (_, unit))| (name.clone(), unit.clone()))
        .collect();
    let mut listed = listed.to_vec();
    listed.sort();
    assert_eq!(printed, listed);
}

#[test]
fn tables_match_the_contract() {
    let contract = contract();
    let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
        table
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(names_and_units(&contract, "end_to_end"), own(&END_TO_END));
    assert_eq!(names_and_units(&contract, "per_layer"), own(&PER_LAYER));
    let workloads: Vec<String> = names_and_units(&contract, "workloads")
        .into_iter()
        .map(|(name, _)| name)
        .collect();
    assert_eq!(workloads, WORKLOADS);
}

#[test]
fn every_workload_prints_the_contracted_metrics_and_repeats_its_counts() {
    let contract = contract();
    let end_to_end = names_and_units(&contract, "end_to_end");
    let per_layer = names_and_units(&contract, "per_layer");
    for workload in WORKLOADS {
        let untraced = metrics(&run(workload, "0"));
        assert_same_names(&untraced, &end_to_end);
        for (name, (value, _)) in &untraced {
            assert!(*value > 0.0, "{workload}: {name} = {value}");
        }

        let first = metrics(&run(workload, "1"));
        let second = metrics(&run(workload, "1"));
        assert_same_names(&first, &per_layer);
        // Counts, and the ratios made of counts or of simulated times, repeat
        // exactly; timings and the tracing overhead do not.
        for (name, (value, unit)) in &first {
            let timed = unit == "s" || unit == "us" || name == "obs.overhead_ratio";
            if !timed {
                assert_eq!(
                    *value, second[name].0,
                    "{workload}: {name} differs between runs"
                );
            }
        }

        // The traced run's record holds both metric sets.
        let record = format!(
            "{}/out/result-{workload}-smoke.json",
            env!("CARGO_MANIFEST_DIR")
        );
        let record = json::parse(&std::fs::read_to_string(record).expect("a record file"))
            .expect("the record parses");
        let value = |section: &str, name: &str| {
            record
                .get(section)
                .and_then(|s| s.get(name))
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64)
                .unwrap_or_else(|| panic!("{workload}: no {section}.{name}"))
        };
        let wall = value("end_to_end", "pipeline_wall_s");
        let unattributed = value("per_layer", "bench.unattributed_s");
        assert!(
            unattributed.abs() < 0.02 * wall,
            "{workload}: {unattributed} s of a {wall} s rep is outside every layer timer"
        );
    }
}
