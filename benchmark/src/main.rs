//! `a2a_benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                [--smoke] [--instance <r>]`
//!
//! Prints the report on stderr and, as the last line of stdout, the result
//! object; writes the full record (and a traced run's Chrome trace) under
//! `benchmark/out/`.

use std::process::ExitCode;

use a2a_benchmark::workloads::Size;
use a2a_benchmark::{metrics::WORKLOADS, run, Args};

const USAGE: &str = "usage: a2a_benchmark --workload <name> [--seed <n>] [--seconds <s>] \
                     [--trace <0|1>] [--smoke] [--instance <r>]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 15.0,
        trace: false,
        size: Size::Full,
        instance: 0,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        if flag == "--smoke" {
            args.size = Size::Smoke;
            continue;
        }
        let value = argv
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = |what: &str| format!("{flag}: `{value}` is not {what}\n{USAGE}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--instance" => args.instance = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| (0.0..=3600.0).contains(s))
                    .ok_or_else(|| bad("a number of seconds"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`\n{USAGE}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of: {}\n{USAGE}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&args) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("{}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    eprint!("{}", outcome.report);

    let out_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let suffix = match args.size {
        Size::Full => "",
        Size::Smoke => "-smoke",
    };
    let written = std::fs::create_dir_all(out_dir).and_then(|()| {
        let record = format!("{out_dir}/result-{}{suffix}.json", args.workload);
        std::fs::write(record, &outcome.record)?;
        match &outcome.chrome_trace {
            Some(trace) => std::fs::write(
                format!("{out_dir}/trace-{}{suffix}.json", args.workload),
                trace,
            ),
            None => Ok(()),
        }
    });
    if let Err(e) = written {
        eprintln!("cannot write under {out_dir}: {e}");
        return ExitCode::FAILURE;
    }
    println!("{}", outcome.result_line);
    ExitCode::SUCCESS
}
