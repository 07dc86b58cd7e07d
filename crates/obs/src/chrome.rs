//! Chrome trace-event sink: writes a [`crate::TraceData`] flush as a JSON
//! array with **one event object per line** (JSONL-style but still a single
//! valid JSON document), loadable in `chrome://tracing` and Perfetto, and a
//! matching zero-dependency parser/validator used by the tests and the
//! `trace_solve` example's self-check.
//!
//! Span enters/exits map to `"B"`/`"E"` duration events, instants to `"i"`,
//! and counter snapshots to one `"C"` sample each at the trace's last
//! timestamp. `tid` is the obs thread ordinal; `ts` is microseconds since
//! the obs epoch with nanosecond resolution.

use crate::{EventKind, TraceData};

/// JSON string-body escaping.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn micros(ts_nanos: u64) -> f64 {
    ts_nanos as f64 / 1000.0
}

/// Serializes a flush as a Chrome trace-event JSON array (one event per
/// line).
pub fn chrome_trace_string(data: &TraceData) -> String {
    let mut lines: Vec<String> = Vec::new();
    lines.push(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\"a2a\"}}"
            .to_string(),
    );
    let mut last_ts = 0u64;
    for t in &data.threads {
        for e in &t.events {
            last_ts = last_ts.max(e.ts_nanos);
            let ph = match e.kind {
                EventKind::Enter => "B",
                EventKind::Exit => "E",
                EventKind::Instant => "i",
            };
            let scope = if e.kind == EventKind::Instant {
                ",\"s\":\"t\""
            } else {
                ""
            };
            lines.push(format!(
                "{{\"name\":\"{}\",\"cat\":\"a2a\",\"ph\":\"{}\",\"ts\":{:.3},\"pid\":1,\"tid\":{}{}}}",
                escape(e.name),
                ph,
                micros(e.ts_nanos),
                t.ordinal,
                scope,
            ));
        }
    }
    for c in &data.counters {
        lines.push(format!(
            "{{\"name\":\"{}\",\"ph\":\"C\",\"ts\":{:.3},\"pid\":1,\"args\":{{\"value\":{}}}}}",
            escape(c.name),
            micros(last_ts),
            c.value,
        ));
    }
    let mut out = String::from("[\n");
    out.push_str(&lines.join(",\n"));
    out.push_str("\n]\n");
    out
}

/// One event parsed back out of a Chrome trace produced by this module.
#[derive(Clone, Debug, PartialEq)]
pub struct ChromeEvent {
    pub name: String,
    /// `'B'`, `'E'`, `'i'`, `'C'`, or `'M'`.
    pub ph: char,
    /// Microseconds since the obs epoch (0.0 for metadata events).
    pub ts_micros: f64,
    /// Obs thread ordinal (0 for events without a `tid`).
    pub tid: u64,
}

fn field_str(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":\"");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let mut out = String::new();
    let mut chars = rest.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                'n' => out.push('\n'),
                'u' => {
                    let hex: String = (0..4).filter_map(|_| chars.next()).collect();
                    let v = u32::from_str_radix(&hex, 16).ok()?;
                    out.push(char::from_u32(v)?);
                }
                c => out.push(c),
            },
            c => out.push(c),
        }
    }
    None
}

fn field_num(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == '+' || c == 'e'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Parses a trace produced by [`chrome_trace_string`] (one event object per
/// line inside a JSON array). Returns an error on any structurally invalid
/// line.
pub fn parse_chrome_trace(s: &str) -> Result<Vec<ChromeEvent>, String> {
    let mut out = Vec::new();
    let mut saw_open = false;
    let mut saw_close = false;
    for (i, raw) in s.lines().enumerate() {
        let line = raw.trim().trim_end_matches(',');
        if line.is_empty() {
            continue;
        }
        if line == "[" {
            saw_open = true;
            continue;
        }
        if line == "]" {
            saw_close = true;
            continue;
        }
        if !line.starts_with('{') || !line.ends_with('}') {
            return Err(format!("line {}: not a JSON object: {line:?}", i + 1));
        }
        let name =
            field_str(line, "name").ok_or_else(|| format!("line {}: missing name", i + 1))?;
        let ph = field_str(line, "ph").ok_or_else(|| format!("line {}: missing ph", i + 1))?;
        let ph = ph
            .chars()
            .next()
            .ok_or_else(|| format!("line {}: empty ph", i + 1))?;
        out.push(ChromeEvent {
            name,
            ph,
            ts_micros: field_num(line, "ts").unwrap_or(0.0),
            tid: field_num(line, "tid").unwrap_or(0.0) as u64,
        });
    }
    if !saw_open || !saw_close {
        return Err("missing JSON array brackets".to_string());
    }
    Ok(out)
}

/// Structural statistics returned by a successful [`validate_chrome_trace`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceCheck {
    pub total_events: usize,
    /// Matched B/E pairs.
    pub complete_spans: usize,
    /// Deepest B-nesting seen on any one thread.
    pub max_depth: usize,
    pub instants: usize,
    pub counter_samples: usize,
}

/// Parses and validates a trace: every `E` must close the innermost open
/// `B` with the same name on its `tid`, timestamps must be non-decreasing
/// per `tid`, and every span must be closed by the end.
pub fn validate_chrome_trace(s: &str) -> Result<TraceCheck, String> {
    let events = parse_chrome_trace(s)?;
    let mut check = TraceCheck {
        total_events: events.len(),
        ..TraceCheck::default()
    };
    let mut stacks: std::collections::BTreeMap<u64, Vec<String>> =
        std::collections::BTreeMap::new();
    let mut last_ts: std::collections::BTreeMap<u64, f64> = std::collections::BTreeMap::new();
    for e in &events {
        match e.ph {
            'M' | 'C' => {
                if e.ph == 'C' {
                    check.counter_samples += 1;
                }
                continue;
            }
            _ => {}
        }
        let prev = last_ts.entry(e.tid).or_insert(0.0);
        if e.ts_micros < *prev {
            return Err(format!(
                "tid {}: timestamp went backwards ({} -> {})",
                e.tid, prev, e.ts_micros
            ));
        }
        *prev = e.ts_micros;
        let stack = stacks.entry(e.tid).or_default();
        match e.ph {
            'B' => {
                stack.push(e.name.clone());
                check.max_depth = check.max_depth.max(stack.len());
            }
            'E' => match stack.pop() {
                Some(open) if open == e.name => check.complete_spans += 1,
                Some(open) => {
                    return Err(format!(
                        "tid {}: exit {:?} does not match open span {:?}",
                        e.tid, e.name, open
                    ))
                }
                None => {
                    return Err(format!(
                        "tid {}: exit {:?} with no open span",
                        e.tid, e.name
                    ))
                }
            },
            'i' => check.instants += 1,
            other => return Err(format!("unknown event phase {other:?}")),
        }
    }
    for (tid, stack) in &stacks {
        if !stack.is_empty() {
            return Err(format!(
                "tid {tid}: {} spans left open: {stack:?}",
                stack.len()
            ));
        }
    }
    Ok(check)
}
