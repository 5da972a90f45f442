//! Structural validation of trace exports.
//!
//! `reproduce --trace-out` and the server's `/tracez` promise a file
//! Perfetto will load: a JSON object with a `traceEvents` array where,
//! within every lane (`tid`), timestamps never go backwards and every
//! complete (`X`) event has a `dur` and nests inside the `X` event open
//! around it. This module is that promise as a checkable predicate —
//! `reproduce check-trace` runs it in CI over the trace artifacts, and
//! the integration tests run it over freshly produced files.
//!
//! It also validates the *other* trace shape the server emits:
//! `/tracez/export`'s `trace_export` record of per-request span trees.
//! [`check_trace_export`] asserts each kept tree is well-formed — spans
//! close after they open (matched B/E by construction), parent links
//! are acyclic, and every span is reachable from the request root — the
//! properties `trace-report` attribution silently relies on.
//! `reproduce check-trace` sniffs which shape a file holds and applies
//! the matching predicate.

use cable_obs::json::Value;
use std::collections::BTreeMap;

/// What a valid trace contained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSummary {
    /// Non-metadata events in the file.
    pub events: usize,
    /// Distinct lanes (`tid`s) carrying at least one event.
    pub lanes: usize,
}

/// Validates Chrome trace-event JSON text. Returns a summary, or every
/// structural problem found.
pub fn check_chrome_trace(text: &str) -> Result<TraceSummary, Vec<String>> {
    let parsed = match Value::parse(text.trim()) {
        Ok(v) => v,
        Err(e) => return Err(vec![format!("not valid JSON: {e}")]),
    };
    let Some(events) = parsed.get("traceEvents").and_then(Value::as_array) else {
        return Err(vec!["no traceEvents array".to_owned()]);
    };

    // Whole nanoseconds, the recorder's resolution, so that the sums of
    // microsecond `ts` and `dur` values compare exactly.
    let ns = |us: f64| (us * 1e3).round() as i64;
    let mut problems = Vec::new();
    // Per lane: events seen, last ts, and the ends of the X events open
    // around the current one (innermost last). Metadata names a lane.
    let mut lanes: BTreeMap<u64, (usize, f64, Vec<i64>)> = BTreeMap::new();
    let mut total = 0usize;
    for (i, event) in events.iter().enumerate() {
        let Some(ph) = event.get("ph").and_then(Value::as_str) else {
            problems.push(format!("event {i} has no ph"));
            continue;
        };
        let Some(tid) = event.get("tid").and_then(Value::as_u64) else {
            problems.push(format!("event {i} has no tid"));
            continue;
        };
        let lane = lanes.entry(tid).or_insert((0, f64::MIN, Vec::new()));
        if ph == "M" {
            continue; // metadata carries no ts
        }
        let Some(ts) = event.get("ts").and_then(Value::as_f64) else {
            problems.push(format!("event {i} has no ts"));
            continue;
        };
        total += 1;
        lane.0 += 1;
        if ts < lane.1 {
            problems.push(format!(
                "lane {tid}: ts goes backwards at event {i} ({ts} after {})",
                lane.1
            ));
        }
        lane.1 = ts;
        match ph {
            "X" => {
                let Some(dur) = event
                    .get("dur")
                    .and_then(Value::as_f64)
                    .filter(|d| *d >= 0.0)
                else {
                    problems.push(format!("lane {tid}: X event {i} lacks a dur >= 0"));
                    continue;
                };
                let (start, around) = (ns(ts), &mut lane.2);
                while around.pop_if(|end| *end <= start).is_some() {}
                let end = start + ns(dur);
                if around.last().is_some_and(|&outer| end > outer) {
                    problems.push(format!(
                        "lane {tid}: X event {i} overlaps the span around it without nesting inside it"
                    ));
                }
                around.push(end);
            }
            "i" => {}
            other => problems.push(format!("event {i} has unknown ph {other:?}")),
        }
    }
    if total == 0 {
        problems.push("trace holds no events".to_owned());
    }
    for (tid, (n, _, _)) in &lanes {
        if *n == 0 {
            problems.push(format!("lane {tid} is empty"));
        }
    }
    if problems.is_empty() {
        Ok(TraceSummary {
            events: total,
            lanes: lanes.len(),
        })
    } else {
        Err(problems)
    }
}

/// What a valid `trace_export` record contained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExportSummary {
    /// Kept span trees in the export.
    pub traces: usize,
    /// Spans across all kept trees.
    pub spans: usize,
}

fn hex_field(v: &Value, key: &str, problems: &mut Vec<String>, at: &str) -> Option<u64> {
    let Some(s) = v.get(key).and_then(Value::as_str) else {
        problems.push(format!("{at}: missing hex field {key:?}"));
        return None;
    };
    match u64::from_str_radix(s, 16) {
        Ok(n) => Some(n),
        Err(_) => {
            problems.push(format!("{at}: {key:?} is not hex ({s:?})"));
            None
        }
    }
}

/// Validates a `/tracez/export` dump: every kept span tree must have
/// closed spans (`end_ns >= start_ns`), unique span ids, acyclic parent
/// links, and every span reachable from the tree's request root.
/// Returns a summary, or every structural problem found.
pub fn check_trace_export(text: &str) -> Result<ExportSummary, Vec<String>> {
    let parsed = match Value::parse(text.trim()) {
        Ok(v) => v,
        Err(e) => return Err(vec![format!("not valid JSON: {e}")]),
    };
    if parsed.get("record").and_then(Value::as_str) != Some("trace_export") {
        return Err(vec!["not a trace_export record".to_owned()]);
    }
    let Some(traces) = parsed.get("traces").and_then(Value::as_array) else {
        return Err(vec!["no traces array".to_owned()]);
    };

    let mut problems = Vec::new();
    let mut spans_total = 0usize;
    for (t, trace) in traces.iter().enumerate() {
        let id = trace
            .get("trace")
            .and_then(Value::as_str)
            .unwrap_or("<unnamed>");
        let at = format!("trace {t} ({id})");
        let Some(root) = hex_field(trace, "root", &mut problems, &at) else {
            continue;
        };
        let Some(rows) = trace.get("spans_tree").and_then(Value::as_array) else {
            problems.push(format!("{at}: no spans_tree array"));
            continue;
        };
        if rows.is_empty() {
            problems.push(format!("{at}: spans_tree is empty"));
            continue;
        }
        // First pass: ids, parents, timestamps.
        let mut parents: BTreeMap<u64, u64> = BTreeMap::new();
        for (i, row) in rows.iter().enumerate() {
            let here = format!("{at} span {i}");
            let Some(span) = hex_field(row, "span", &mut problems, &here) else {
                continue;
            };
            let parent = hex_field(row, "parent", &mut problems, &here).unwrap_or(0);
            if span == 0 {
                problems.push(format!("{here}: span id is zero"));
                continue;
            }
            if parents.insert(span, parent).is_some() {
                problems.push(format!("{here}: span id {span:016x} repeats"));
            }
            let start = row.get("start_ns").and_then(Value::as_u64);
            let end = row.get("end_ns").and_then(Value::as_u64);
            match (start, end) {
                (Some(s), Some(e)) if e < s => {
                    problems.push(format!("{here}: ends before it starts ({e} < {s})"));
                }
                (Some(_), Some(_)) => {}
                _ => problems.push(format!("{here}: missing start_ns/end_ns")),
            }
        }
        if !parents.contains_key(&root) {
            problems.push(format!("{at}: root span {root:016x} is not in the tree"));
            continue;
        }
        // Second pass: every span's parent chain must reach the root
        // without revisiting a span (acyclic) or leaving the tree.
        for &span in parents.keys() {
            let mut cursor = span;
            let mut hops = 0usize;
            loop {
                if cursor == root {
                    break;
                }
                if hops > parents.len() {
                    problems.push(format!("{at}: span {span:016x} sits on a parent cycle"));
                    break;
                }
                let Some(&up) = parents.get(&cursor) else {
                    problems.push(format!(
                        "{at}: span {span:016x} is orphaned (parent {cursor:016x} missing)"
                    ));
                    break;
                };
                cursor = up;
                hops += 1;
            }
        }
        spans_total += parents.len();
    }
    if problems.is_empty() {
        Ok(ExportSummary {
            traces: traces.len(),
            spans: spans_total,
        })
    } else {
        Err(problems)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_recorded_trace_validates() {
        use cable_obs::context::SpanRec;
        use cable_obs::recorder::{self, Record};
        let lanes = vec![recorder::LaneSnapshot {
            id: 3,
            label: "w".into(),
            records: vec![
                Record::Span(SpanRec::plain("b", 100, 100)),
                Record::Instant(SpanRec::plain("i", 500, 500)),
                Record::Span(SpanRec::plain("a", 100, 900)),
            ],
            dropped: 0,
        }];
        let text = cable_obs::chrome::chrome_trace(&lanes).to_string();
        let summary = check_chrome_trace(&text).expect("valid");
        assert_eq!(
            summary,
            TraceSummary {
                events: 3,
                lanes: 1
            }
        );
    }

    fn problems(events: &str) -> Vec<String> {
        check_chrome_trace(&format!(r#"{{"traceEvents": [{events}]}}"#)).unwrap_err()
    }

    fn assert_problem(events: &str, needle: &str) {
        let problems = problems(events);
        assert!(
            problems.iter().any(|p| p.contains(needle)),
            "{needle}: {problems:?}"
        );
    }

    #[test]
    fn structural_problems_are_reported() {
        assert!(check_chrome_trace("not json").is_err());
        assert!(check_chrome_trace("{}").is_err());
        // Empty traceEvents: no events at all.
        assert_problem("", "no events");
        // An X event without a dur, or with a negative one.
        assert_problem(
            r#"{"ph": "X", "tid": 1, "ts": 1.0, "name": "x"}"#,
            "lacks a dur",
        );
        assert_problem(
            r#"{"ph": "X", "tid": 1, "ts": 1.0, "dur": -0.5, "name": "x"}"#,
            "lacks a dur",
        );
        // An X event that starts inside another and ends after it.
        assert_problem(
            r#"{"ph": "X", "tid": 1, "ts": 1.0, "dur": 2.0, "name": "a"},
               {"ph": "X", "tid": 1, "ts": 2.0, "dur": 2.0, "name": "b"}"#,
            "without nesting",
        );
        // Backwards timestamps.
        assert_problem(
            r#"{"ph": "i", "tid": 1, "ts": 5.0, "name": "x"},
               {"ph": "i", "tid": 1, "ts": 2.0, "name": "y"}"#,
            "backwards",
        );
        // A named lane without events.
        assert_problem(
            r#"{"ph": "M", "tid": 2, "name": "thread_name", "args": {"name": "idle"}},
               {"ph": "i", "tid": 1, "ts": 5.0, "name": "x"}"#,
            "lane 2 is empty",
        );
        // Begin/end pairs are not this exporter's shape.
        assert_problem(
            r#"{"ph": "B", "tid": 1, "ts": 1.0, "name": "x"}"#,
            "unknown ph",
        );
    }

    #[test]
    fn nesting_is_checked_at_nanosecond_resolution() {
        // A child that ends where its parent ends, and a sibling that
        // starts where the previous one ended, both nest; one
        // nanosecond past the parent's end does not.
        let ok = r#"{"traceEvents": [
            {"ph": "X", "tid": 1, "ts": 1000.001, "dur": 2.002, "name": "p"},
            {"ph": "X", "tid": 1, "ts": 1001.7, "dur": 0.303, "name": "c"},
            {"ph": "X", "tid": 1, "ts": 1002.003, "dur": 0, "name": "s"}
        ]}"#;
        assert!(
            check_chrome_trace(ok).is_ok(),
            "{:?}",
            check_chrome_trace(ok)
        );
        assert_problem(
            r#"{"ph": "X", "tid": 1, "ts": 1000.001, "dur": 2.002, "name": "p"},
               {"ph": "X", "tid": 1, "ts": 1001.7, "dur": 0.304, "name": "c"}"#,
            "without nesting",
        );
    }

    fn export_with(spans: &str) -> String {
        format!(
            r#"{{"record":"trace_export","traces":[{{"trace":"t1",
                "root":"0000000000000001","spans_tree":[{spans}]}}]}}"#
        )
    }

    fn span(name: &str, span: &str, parent: &str, start: u64, end: u64) -> String {
        format!(
            r#"{{"name":"{name}","span":"{span}","parent":"{parent}",
                "start_ns":{start},"end_ns":{end}}}"#
        )
    }

    #[test]
    fn well_formed_exports_validate() {
        let text = export_with(
            &[
                span(
                    "http.request",
                    "0000000000000001",
                    "0000000000000000",
                    0,
                    100,
                ),
                span("wait.fsync", "0000000000000002", "0000000000000001", 10, 40),
            ]
            .join(","),
        );
        let summary = check_trace_export(&text).expect("valid");
        assert_eq!(
            summary,
            ExportSummary {
                traces: 1,
                spans: 2
            }
        );
    }

    #[test]
    fn export_problems_are_reported() {
        assert!(check_trace_export("{}").is_err());
        // Orphan: parent never recorded.
        let orphan = export_with(
            &[
                span(
                    "http.request",
                    "0000000000000001",
                    "0000000000000000",
                    0,
                    100,
                ),
                span("lost", "0000000000000002", "00000000000000ff", 10, 40),
            ]
            .join(","),
        );
        let problems = check_trace_export(&orphan).unwrap_err();
        assert!(
            problems.iter().any(|p| p.contains("orphaned")),
            "{problems:?}"
        );
        // Parent cycle between two spans.
        let cycle = export_with(
            &[
                span(
                    "http.request",
                    "0000000000000001",
                    "0000000000000000",
                    0,
                    100,
                ),
                span("a", "0000000000000002", "0000000000000003", 10, 40),
                span("b", "0000000000000003", "0000000000000002", 10, 40),
            ]
            .join(","),
        );
        let problems = check_trace_export(&cycle).unwrap_err();
        assert!(problems.iter().any(|p| p.contains("cycle")), "{problems:?}");
        // A span that ends before it starts.
        let backwards = export_with(&span(
            "http.request",
            "0000000000000001",
            "0000000000000000",
            100,
            10,
        ));
        let problems = check_trace_export(&backwards).unwrap_err();
        assert!(
            problems.iter().any(|p| p.contains("ends before")),
            "{problems:?}"
        );
        // Missing root.
        let rootless = export_with(&span("x", "0000000000000007", "0000000000000000", 0, 10));
        let problems = check_trace_export(&rootless).unwrap_err();
        assert!(
            problems.iter().any(|p| p.contains("not in the tree")),
            "{problems:?}"
        );
    }
}
