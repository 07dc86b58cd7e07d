//! In-process summary tree: aggregates a [`TraceData`] flush into per-span
//! total/self wall time and call counts, merged across threads by span
//! path. Because the solvers are deterministic at any thread count, the
//! tree's structure and counts are thread-count-independent — only the wall
//! times vary (see the deterministic-merge rule in the crate docs).

use crate::{EventKind, HistogramSnapshot, TraceData};
use std::collections::BTreeMap;

/// One aggregated span (all invocations of one span path, on any thread).
#[derive(Clone, Debug)]
pub struct SummaryNode {
    pub name: String,
    /// Completed invocations (instants count as calls with zero duration).
    pub count: u64,
    /// Total wall seconds inside this span (children included).
    pub total_secs: f64,
    /// `total_secs` minus the total of the direct children (floored at 0).
    pub self_secs: f64,
    /// Sorted by name.
    pub children: Vec<SummaryNode>,
}

/// Aggregated view of a flush: span tree + counter/histogram snapshots +
/// well-formedness accounting.
#[derive(Clone, Debug)]
pub struct Summary {
    /// Synthetic root (empty name); its children are the top-level spans.
    pub root: SummaryNode,
    pub counters: Vec<(String, u64)>,
    /// Name-sorted histogram snapshots (quantiles computed on demand).
    pub histograms: Vec<HistogramSnapshot>,
    /// Exit events that did not match the innermost open span on their
    /// thread (they are dropped from the tree, never mis-attributed).
    pub malformed_exits: u64,
    /// Spans still open when their thread's buffer ended; they are credited
    /// up to the thread's last timestamp and counted here.
    pub unclosed_spans: u64,
    /// Copied from [`TraceData::dropped_events`].
    pub dropped_events: u64,
}

/// Renders a histogram value: names ending in `_nanos` are durations and
/// get a human-readable unit; everything else prints the raw integer.
fn fmt_hist_value(name: &str, v: u64) -> String {
    if !name.ends_with("_nanos") {
        return v.to_string();
    }
    let secs = v as f64 / 1e9;
    if secs >= 1.0 {
        format!("{secs:.2}s")
    } else if secs >= 1e-3 {
        format!("{:.2}ms", secs * 1e3)
    } else if secs >= 1e-6 {
        format!("{:.2}us", secs * 1e6)
    } else {
        format!("{v}ns")
    }
}

#[derive(Default)]
struct Agg {
    count: u64,
    total_ns: u64,
    children: BTreeMap<&'static str, Agg>,
}

fn node_at<'a>(root: &'a mut Agg, path: &[&'static str]) -> &'a mut Agg {
    let mut cur = root;
    for name in path {
        cur = cur.children.entry(name).or_default();
    }
    cur
}

fn to_node(name: &str, agg: &Agg) -> SummaryNode {
    let children: Vec<SummaryNode> = agg.children.iter().map(|(n, a)| to_node(n, a)).collect();
    let total_secs = agg.total_ns as f64 / 1e9;
    let child_total: f64 = children.iter().map(|c| c.total_secs).sum();
    SummaryNode {
        name: name.to_string(),
        count: agg.count,
        total_secs,
        self_secs: (total_secs - child_total).max(0.0),
        children,
    }
}

/// Builds the merged summary tree from a flush.
pub fn summarize(data: &TraceData) -> Summary {
    let mut root = Agg::default();
    let mut malformed_exits = 0u64;
    let mut unclosed_spans = 0u64;
    for t in &data.threads {
        let mut stack: Vec<&'static str> = Vec::new();
        let mut enter_ts: Vec<u64> = Vec::new();
        let mut last_ts = 0u64;
        for e in &t.events {
            last_ts = e.ts_nanos;
            match e.kind {
                EventKind::Enter => {
                    stack.push(e.name);
                    enter_ts.push(e.ts_nanos);
                }
                EventKind::Exit => {
                    if stack.last() == Some(&e.name) {
                        let t0 = enter_ts.pop().unwrap_or(e.ts_nanos);
                        let node = node_at(&mut root, &stack);
                        node.count += 1;
                        node.total_ns += e.ts_nanos.saturating_sub(t0);
                        stack.pop();
                    } else {
                        malformed_exits += 1;
                    }
                }
                EventKind::Instant => {
                    stack.push(e.name);
                    let node = node_at(&mut root, &stack);
                    node.count += 1;
                    stack.pop();
                }
            }
        }
        // Spans still open at the end of the buffer (flush during a live
        // region): credit them up to the thread's last timestamp rather than
        // dropping the time silently.
        while let Some(t0) = enter_ts.pop() {
            unclosed_spans += 1;
            let node = node_at(&mut root, &stack);
            node.count += 1;
            node.total_ns += last_ts.saturating_sub(t0);
            stack.pop();
        }
    }
    Summary {
        root: to_node("", &root),
        counters: data
            .counters
            .iter()
            .map(|c| (c.name.to_string(), c.value))
            .collect(),
        histograms: data.histograms.clone(),
        malformed_exits,
        unclosed_spans,
        dropped_events: data.dropped_events,
    }
}

impl Summary {
    /// True iff every exit matched its enter and no span was left open.
    pub fn is_balanced(&self) -> bool {
        self.malformed_exits == 0 && self.unclosed_spans == 0
    }

    /// Total wall seconds and call count per span *name*, summed over every
    /// path the name appears under. (Spans in this workspace do not recurse,
    /// so a name is never nested under itself and sums are not
    /// double-counted.)
    pub fn totals_by_name(&self) -> BTreeMap<String, (u64, f64)> {
        let mut out: BTreeMap<String, (u64, f64)> = BTreeMap::new();
        fn walk(node: &SummaryNode, out: &mut BTreeMap<String, (u64, f64)>) {
            if !node.name.is_empty() {
                let e = out.entry(node.name.clone()).or_insert((0, 0.0));
                e.0 += node.count;
                e.1 += node.total_secs;
            }
            for c in &node.children {
                walk(c, out);
            }
        }
        walk(&self.root, &mut out);
        out
    }

    /// Total wall seconds for a span name (0.0 if never seen).
    pub fn total_secs(&self, name: &str) -> f64 {
        self.totals_by_name().get(name).map_or(0.0, |e| e.1)
    }

    /// Call count for a span name (0 if never seen).
    pub fn count(&self, name: &str) -> u64 {
        self.totals_by_name().get(name).map_or(0, |e| e.0)
    }

    /// Renders the tree (indented, name-sorted) plus nonzero counters and
    /// non-empty histograms — the human-readable breakdown `trace_solve`
    /// prints and the trace tests attach to their failures.
    pub fn render(&self) -> String {
        let mut out = String::new();
        fn walk(node: &SummaryNode, depth: usize, out: &mut String) {
            if !node.name.is_empty() {
                out.push_str(&format!(
                    "{:indent$}{:<width$} calls={:<8} total={:>10.4}s self={:>10.4}s\n",
                    "",
                    node.name,
                    node.count,
                    node.total_secs,
                    node.self_secs,
                    indent = depth * 2,
                    width = 34usize.saturating_sub(depth * 2),
                ));
            }
            for c in &node.children {
                walk(c, depth + 1, out);
            }
        }
        for c in &self.root.children {
            walk(c, 0, &mut out);
        }
        let counters: Vec<&(String, u64)> = self.counters.iter().filter(|(_, v)| *v > 0).collect();
        if !counters.is_empty() {
            out.push_str("counters:\n");
            for (name, value) in counters {
                out.push_str(&format!("  {name:<32} {value}\n"));
            }
        }
        let hists: Vec<&HistogramSnapshot> =
            self.histograms.iter().filter(|h| h.count > 0).collect();
        if !hists.is_empty() {
            out.push_str("histograms:\n");
            for h in hists {
                out.push_str(&format!(
                    "  {:<32} count={:<8} p50={} p90={} p99={} max={}\n",
                    h.name,
                    h.count,
                    fmt_hist_value(h.name, h.quantile(0.50)),
                    fmt_hist_value(h.name, h.quantile(0.90)),
                    fmt_hist_value(h.name, h.quantile(0.99)),
                    fmt_hist_value(h.name, h.max),
                ));
            }
        }
        if self.dropped_events > 0 {
            out.push_str(&format!(
                "WARNING: {} events dropped (per-thread buffer cap) — trace incomplete\n",
                self.dropped_events
            ));
        }
        if !self.is_balanced() {
            out.push_str(&format!(
                "WARNING: unbalanced trace: {} malformed exits, {} unclosed spans\n",
                self.malformed_exits, self.unclosed_spans
            ));
        }
        out
    }
}
