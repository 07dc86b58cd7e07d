//! The repo benchmark: five pipeline workloads over the library crates' public
//! functions, each layer timed from out here. See `README.md` for the metric,
//! workload and interaction tables; `BENCHMARK.json` for the contract.
//!
//! Load shape: closed loop, one client. A run sets its workload up a few times
//! (median → `setup_s`), repeats the full pipeline until `--seconds` have
//! passed (medians → every other timing), and with `--trace 1` runs it once
//! more under `a2a_obs` for the numbers only the library's own spans carry.
//! There is no warm-up rep: the tool is one-shot, so its users pay the cold
//! solve every time.

pub mod json;
pub mod metrics;
pub mod stats;
pub mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use a2a_obs::summary::{Summary, SummaryNode};

use metrics::{END_TO_END, PER_LAYER};
use stats::{median, spread};
use workloads::{Rep, Res, Size, Workload};

/// A run sets up at least this often …
const SETUP_REPS_MIN: usize = 3;
/// … and keeps going until it has spent this long or set up this often, so that
/// a microsecond-scale set-up still gets a steady median.
const SETUP_BUDGET_SECS: f64 = 0.5;
const SETUP_REPS_MAX: usize = 101;
/// Timed reps per run, however short `--seconds` is.
const REPS_MIN: usize = 2;

/// One invocation's inputs.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    /// Feeds the inputs whose cost does not hang on them: the slowdown scenario
    /// of `simsweep-…`. The LP instances stay fixed (README, "Seeds").
    pub seed: u64,
    /// How long the timed reps go on.
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
    /// 0 measures the canonical instance; any other a held-out relabelling.
    pub instance: u64,
}

/// A finished run: the driver's result line and the full record.
pub struct Outcome {
    /// `{"correct", "attempted", "failed", "metrics"}` — end-to-end metrics for
    /// an untraced run, per-layer metrics for a traced one.
    pub result_line: String,
    /// Provenance, per-rep samples, min/median/max of every timing, both metric
    /// sets and the workload's deterministic detail counts.
    pub record: String,
    /// The traced rep's Chrome trace.
    pub chrome_trace: Option<String>,
    /// Every printed metric by name with its unit, for a human reader.
    pub report: String,
}

struct TimedRep {
    rep: Rep,
    wall: f64,
    cpu: f64,
}

/// Checks attempted and failed over a run, with what failed.
#[derive(Default)]
struct Tally {
    attempted: u32,
    failed: u32,
    failures: Vec<String>,
}

impl Tally {
    fn check(&mut self, what: impl FnOnce() -> String, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }
}

/// Runs `workload` once and counts its checks. Returns the rep only if every
/// check passed: its time is accepted on no other terms. A rep that errors or
/// panics counts all its checks failed.
fn run_rep(workload: &dyn Workload, tally: &mut Tally) -> Option<TimedRep> {
    let mut rep = Rep::default();
    let cpu = cpu_seconds();
    let start = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| workload.rep(&mut rep)));
    let wall = start.elapsed().as_secs_f64();
    let cpu = cpu_seconds() - cpu;
    let error = match result {
        Ok(Ok(())) => {
            tally.attempted += rep.checks;
            tally.failed += rep.failures.len() as u32;
            tally.failures.extend(rep.failures.iter().cloned());
            return Some(TimedRep { rep, wall, cpu }).filter(|t| t.rep.failures.is_empty());
        }
        Ok(Err(e)) => format!("rep failed: {e}"),
        Err(_) => "rep panicked".to_string(),
    };
    tally.attempted += workload.checks_per_rep();
    tally.failed += workload.checks_per_rep();
    tally.failures.push(error);
    None
}

/// User + system CPU seconds of this process so far (all threads), in the
/// kernel's 10 ms ticks.
fn cpu_seconds() -> f64 {
    const TICKS_PER_SEC: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the line, 12 and 13 after it.
    let mut fields = stat
        .rsplit_once(')')
        .map_or("", |(_, rest)| rest)
        .split_whitespace()
        .skip(11);
    let mut ticks = || {
        fields
            .next()
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks() + ticks()) / TICKS_PER_SEC
}

/// Peak resident set of this process so far, in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The per-layer numbers only the traced rep can give, from the spans, counters
/// and histograms the library crates already record.
fn traced_metrics(summary: &Summary, values: &mut BTreeMap<&'static str, f64>) {
    let counter = |name: &str| {
        summary
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v as f64)
    };
    let share = |part: f64, whole: f64| if whole > 0.0 { part / whole } else { 0.0 };
    let iterations = counter("lp.iterations");
    values.insert("lp.iterations", iterations);
    values.insert("lp.dual_iterations", counter("lp.dual_iterations"));
    values.insert("lp.refactorizations", counter("lp.refactorizations"));
    values.insert(
        "lp.degenerate_pivot_share",
        share(counter("lp.degenerate_pivots"), iterations),
    );
    let rejects = counter("lp.ft_update_rejects");
    values.insert(
        "lp.ft_update_reject_share",
        share(rejects, rejects + counter("lp.ft_updates")),
    );
    values.insert(
        "simnet.fair_share_recomputes",
        counter("simnet.fair_share_recomputes"),
    );

    let primal = summary.total_secs("lp.phase1") + summary.total_secs("lp.phase2");
    values.insert("lp.primal_s", primal);
    values.insert("lp.dual_s", summary.total_secs("lp.dual"));
    values.insert("lp.lu_factor_s", summary.total_secs("lp.lu.factor"));
    values.insert("lp.lu_ftran_s", summary.total_secs("lp.lu.ftran"));
    values.insert("lp.lu_btran_s", summary.total_secs("lp.lu.btran"));
    values.insert("lp.lu_ft_update_s", summary.total_secs("lp.lu.ft_update"));
    values.insert("schedule.splice_s", summary.total_secs("replan.splice"));

    // Simplex time no LU span covers: pricing scans, ratio tests, the row-wise
    // update, weight maintenance.
    fn simplex_self_secs(node: &SummaryNode) -> f64 {
        let own = match node.name.as_str() {
            "lp.phase1" | "lp.phase2" | "lp.dual" => node.self_secs,
            _ => 0.0,
        };
        own + node.children.iter().map(simplex_self_secs).sum::<f64>()
    }
    values.insert("lp.unattributed_s", simplex_self_secs(&summary.root));

    let (p50, p99) = summary
        .histograms
        .iter()
        .find(|h| h.name == "lp.iteration_nanos" && h.count > 0)
        .map_or((0.0, 0.0), |h| {
            (h.quantile(0.5) as f64 / 1e3, h.quantile(0.99) as f64 / 1e3)
        });
    values.insert("lp.iter_p50_us", p50);
    values.insert("lp.iter_p99_us", p99);
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

fn json_numbers(xs: &[f64]) -> String {
    let items: Vec<String> = xs.iter().copied().map(json_number).collect();
    format!("[{}]", items.join(", "))
}

/// `{"name": {"value": v, "unit": "u"}, …}` for `table`, in table order.
fn json_metrics(table: &[(&str, &str)], values: &BTreeMap<&'static str, f64>) -> String {
    let items: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let value = values.get(name).copied().unwrap_or(0.0);
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::quote(name),
                json_number(value),
                json::quote(unit)
            )
        })
        .collect();
    format!("{{{}}}", items.join(", "))
}

/// What a run measured, before rendering.
struct Measured {
    reps: usize,
    /// Every sample of every timing and count, by metric (or detail) name.
    samples: BTreeMap<&'static str, Vec<f64>>,
    /// One number per name: medians of `samples`, plus what has one sample.
    values: BTreeMap<&'static str, f64>,
    tally: Tally,
}

/// Runs one workload as the driver asks for it.
pub fn run(args: &Args) -> Res<Outcome> {
    // Set-up, several times: the last one's inputs are the ones measured.
    let mut setup_secs = Vec::new();
    let mut build_secs = Vec::new();
    let (fabric, workload) = loop {
        let start = Instant::now();
        let (fabric, workload) =
            workloads::setup(&args.workload, args.size, args.instance, args.seed)?;
        setup_secs.push(start.elapsed().as_secs_f64());
        build_secs.push(fabric.build_secs);
        let spent: f64 = setup_secs.iter().sum();
        if setup_secs.len() >= SETUP_REPS_MIN
            && (spent >= SETUP_BUDGET_SECS || setup_secs.len() >= SETUP_REPS_MAX)
        {
            break (fabric, workload);
        }
    };

    // Timed reps, tracing off.
    let mut tally = Tally::default();
    let mut reps: Vec<TimedRep> = Vec::new();
    let start = Instant::now();
    let mut started = 0;
    while started < REPS_MIN || start.elapsed().as_secs_f64() < args.seconds {
        started += 1;
        reps.extend(run_rep(workload.as_ref(), &mut tally));
    }
    let peak_rss = peak_rss_mib();
    if reps.is_empty() {
        return Err(format!("no rep passed its checks: {}", tally.failures.join("; ")).into());
    }

    // Medians over the untraced reps.
    let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for timed in &reps {
        let stages = timed.rep.stage_secs.iter();
        for (name, value) in stages.chain(&timed.rep.values) {
            samples.entry(name).or_default().push(*value);
        }
        let attributed: f64 = timed.rep.stage_secs.values().sum();
        let own = [
            ("pipeline_wall_s", timed.wall),
            ("proc.cpu_s", timed.cpu),
            ("bench.unattributed_s", timed.wall - attributed),
        ];
        for (name, value) in own {
            samples.entry(name).or_default().push(value);
        }
    }
    let topology_secs = match samples.get("topology.build_s") {
        // In-rep topology calls (the puncture) on top of the set-up's.
        Some(in_rep) => in_rep.iter().map(|s| s + median(&build_secs)).collect(),
        None => build_secs,
    };
    samples.insert("topology.build_s", topology_secs);
    samples.insert("setup_s", setup_secs);
    let mut values: BTreeMap<&'static str, f64> = samples
        .iter()
        .map(|(name, xs)| (*name, median(xs)))
        .collect();
    values.insert("topology.nodes", fabric.nodes as f64);
    values.insert("topology.edges", fabric.edges as f64);
    // Simulated, so the same in every rep.
    values.insert("sim_efficiency", reps[0].rep.sim_efficiency);
    values.insert("peak_rss_mb", peak_rss);

    // One more rep under a2a_obs for what only the library's spans carry.
    let mut chrome_trace = None;
    if args.trace {
        a2a_obs::reset();
        a2a_obs::enable();
        let timed = {
            let _span = a2a_obs::span("bench.rep");
            run_rep(workload.as_ref(), &mut tally)
        };
        a2a_obs::disable();
        let data = a2a_obs::flush();
        let summary = a2a_obs::summary::summarize(&data);
        let events: usize = data.threads.iter().map(|t| t.events.len()).sum();
        values.insert("obs.events", events as f64);
        values.insert("obs.dropped_events", summary.dropped_events as f64);
        traced_metrics(&summary, &mut values);
        if let Some(timed) = timed {
            values.insert("obs.overhead_ratio", timed.wall / values["pipeline_wall_s"]);
            // The instrument checks itself: the library's iteration counter
            // against the counts its calls returned, and balanced spans.
            let counted = values["lp.iterations"];
            let returned = timed.rep.values.get("returned_lp_iterations");
            let returned = returned.copied().unwrap_or(0.0);
            tally.check(
                || format!("lp.iterations counted {counted}, the calls returned {returned}"),
                counted == returned,
            );
        }
        tally.check(
            || "the traced rep's spans are unbalanced".to_string(),
            summary.is_balanced(),
        );
        chrome_trace = Some(a2a_obs::chrome::chrome_trace_string(&data));
    }

    let measured = Measured {
        reps: reps.len(),
        samples,
        values,
        tally,
    };
    Ok(Outcome {
        result_line: measured.result_line(args.trace),
        record: measured.record(args),
        report: measured.report(args),
        chrome_trace,
    })
}

fn printed_metrics(traced: bool) -> &'static [(&'static str, &'static str)] {
    if traced {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

impl Measured {
    fn result_line(&self, traced: bool) -> String {
        let Tally {
            attempted, failed, ..
        } = self.tally;
        format!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \
             \"metrics\": {}}}",
            failed == 0,
            json_metrics(printed_metrics(traced), &self.values)
        )
    }

    /// Min / median / max of `name`'s samples, when it is a timing: a run has
    /// too few samples for a tail percentile.
    fn timing_spread(&self, name: &str) -> Option<stats::Spread> {
        let samples = self.samples.get(name).filter(|_| name.ends_with("_s"))?;
        Some(spread(samples))
    }

    fn record(&self, args: &Args) -> String {
        let Tally {
            attempted,
            failed,
            ref failures,
        } = self.tally;
        let size = match args.size {
            Size::Full => "full",
            Size::Smoke => "smoke",
        };
        let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"workload\": {},", json::quote(&args.workload));
        let _ = writeln!(
            out,
            "  \"size\": \"{size}\", \"instance\": {}, \"seed\": {}, \"seconds\": {}, \
             \"traced\": {},",
            args.instance, args.seed, args.seconds, args.trace
        );
        let _ = writeln!(
            out,
            "  \"provenance\": {{\"commit\": {}, \"rustc\": {}, \"nproc\": {nproc}, \
             \"threads\": \"library default: one worker per available core\"}},",
            json::quote(&command_line("git", &["rev-parse", "HEAD"])),
            json::quote(&command_line("rustc", &["-V"])),
        );
        let _ = writeln!(
            out,
            "  \"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \
             \"fail_share\": {},",
            failed == 0,
            json_number(f64::from(failed) / f64::from(attempted.max(1)))
        );
        let quoted: Vec<String> = failures.iter().map(|f| json::quote(f)).collect();
        let _ = writeln!(out, "  \"failures\": [{}],", quoted.join(", "));
        let _ = writeln!(out, "  \"reps\": {},", self.reps);
        for (key, name) in [
            ("rep_wall_s", "pipeline_wall_s"),
            ("rep_cpu_s", "proc.cpu_s"),
            ("setup_samples_s", "setup_s"),
        ] {
            let _ = writeln!(out, "  \"{key}\": {},", json_numbers(&self.samples[name]));
        }
        let end_to_end = json_metrics(&END_TO_END, &self.values);
        let _ = writeln!(out, "  \"end_to_end\": {end_to_end},");
        if args.trace {
            let per_layer = json_metrics(&PER_LAYER, &self.values);
            let _ = writeln!(out, "  \"per_layer\": {per_layer},");
        }
        let spreads: Vec<String> = self
            .samples
            .keys()
            .filter_map(|name| {
                let s = self.timing_spread(name)?;
                Some(format!(
                    "    {}: {{\"min\": {}, \"median\": {}, \"max\": {}, \"count\": {}}}",
                    json::quote(name),
                    json_number(s.min),
                    json_number(s.median),
                    json_number(s.max),
                    s.count
                ))
            })
            .collect();
        let _ = writeln!(out, "  \"spread\": {{\n{}\n  }},", spreads.join(",\n"));
        // The workload's deterministic counts that are no listed metric.
        let listed = |name: &str| END_TO_END.iter().chain(&PER_LAYER).any(|(l, _)| *l == name);
        let detail: Vec<String> = self
            .values
            .iter()
            .filter(|(name, _)| !listed(name))
            .map(|(name, value)| format!("{}: {}", json::quote(name), json_number(*value)))
            .collect();
        let _ = writeln!(out, "  \"detail\": {{{}}}", detail.join(", "));
        out.push_str("}\n");
        out
    }

    fn report(&self, args: &Args) -> String {
        let mut out = format!(
            "{}: {} reps, {} set-ups, {} of {} checks failed\n",
            args.workload,
            self.reps,
            self.samples["setup_s"].len(),
            self.tally.failed,
            self.tally.attempted
        );
        for failure in &self.tally.failures {
            let _ = writeln!(out, "  FAILED {failure}");
        }
        for (name, unit) in printed_metrics(args.trace) {
            let value = self.values.get(name).copied().unwrap_or(0.0);
            let _ = write!(out, "  {name:<30} {value:>14.6} {unit}");
            if let Some(s) = self.timing_spread(name) {
                let _ = write!(
                    out,
                    "  (min {:.6}, max {:.6}, n = {})",
                    s.min, s.max, s.count
                );
            }
            out.push('\n');
        }
        out
    }
}
