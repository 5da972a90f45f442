//! Consumers of the flight recorder: Chrome trace-event JSON export and
//! the self-time profile.
//!
//! The export follows the Trace Event Format that Perfetto and
//! `chrome://tracing` load: a `traceEvents` array of duration events
//! (`ph: "B"`/`"E"`), instants (`ph: "i"`), counters (`ph: "C"`), and
//! `thread_name` metadata, with microsecond `ts` values. One lane — one
//! `tid` — per recorded thread, so every `cable-par` worker gets its own
//! swimlane.
//!
//! A partially-overwritten ring (see [`crate::recorder`]) can expose
//! orphan `End` events (their `Begin` was overwritten) and trailing open
//! `Begin`s (the snapshot was taken mid-span). The export repairs both:
//! orphan ends are dropped, and open begins are closed with a synthetic
//! end at the lane's last timestamp — so the emitted `B`/`E` events are
//! always matched per `tid`, and `ts` is non-decreasing per lane.
//!
//! **Self time** (the profile): a span's *inclusive* time is its whole
//! begin→end duration; its *exclusive* (self) time is the inclusive time
//! minus the inclusive time of the spans nested directly inside it.
//! Exclusive sums over a tree partition its root's wall time, which is
//! what makes the profile table answer "where does time actually go".
//! [`self_times`] is the one fold that computes it over closed spans:
//! [`self_time`] feeds it a lane's begin/end pairs (nesting by lane
//! order), `reproduce trace-report` a request's span tree (nesting by
//! parent id).

use crate::json::Value;
use crate::recorder::{Event, EventKind, LaneSnapshot};
use std::collections::BTreeMap;

/// Renders lane snapshots as a Chrome trace-event JSON value:
/// `{"traceEvents": [...], "displayTimeUnit": "ms"}`.
pub fn chrome_trace(lanes: &[LaneSnapshot]) -> Value {
    let mut events = Vec::new();
    for lane in lanes {
        // Lane metadata first: Perfetto names the track from it.
        events.push(Value::object([
            ("ph", Value::from("M")),
            ("name", Value::from("thread_name")),
            ("pid", Value::from(1u64)),
            ("tid", Value::from(lane.id)),
            (
                "args",
                Value::object([("name", Value::from(lane.label.as_str()))]),
            ),
        ]));
        for repaired in balance(&lane.events) {
            events.push(emit(&repaired, lane.id));
        }
    }
    Value::object([
        ("traceEvents", Value::Array(events)),
        ("displayTimeUnit", Value::from("ms")),
    ])
}

/// Repairs one lane's event sequence: drops `End`s whose `Begin` was
/// overwritten, and appends synthetic `End`s (at the last timestamp) for
/// spans still open when the snapshot was taken. The result has matched
/// `Begin`/`End` pairs and non-decreasing timestamps.
fn balance(events: &[Event]) -> Vec<Event> {
    let mut out = Vec::with_capacity(events.len());
    let mut open: Vec<Event> = Vec::new();
    let mut last_ts = 0u64;
    for &event in events {
        last_ts = last_ts.max(event.ts_ns);
        match event.kind {
            EventKind::Begin => {
                open.push(event);
                out.push(event);
            }
            EventKind::End => {
                // An end can only close the innermost open span; with
                // the begin overwritten there is nothing to close.
                if open.last().map(|b| b.name) == Some(event.name) {
                    open.pop();
                    out.push(event);
                }
            }
            EventKind::Instant | EventKind::Counter(_) => out.push(event),
        }
    }
    // Synthetic ends inherit the begin's causal ids, so a mid-span
    // snapshot still exports a fully id-stamped pair.
    while let Some(begin) = open.pop() {
        out.push(Event {
            kind: EventKind::End,
            ts_ns: last_ts,
            ..begin
        });
    }
    out
}

fn emit(event: &Event, tid: u64) -> Value {
    let ts_us = event.ts_ns as f64 / 1e3;
    let mut pairs = vec![
        ("name", Value::from(event.name)),
        ("pid", Value::from(1u64)),
        ("tid", Value::from(tid)),
        ("ts", Value::from(ts_us)),
    ];
    match event.kind {
        EventKind::Begin => pairs.push(("ph", Value::from("B"))),
        EventKind::End => pairs.push(("ph", Value::from("E"))),
        EventKind::Instant => {
            pairs.push(("ph", Value::from("i")));
            pairs.push(("s", Value::from("t")));
        }
        EventKind::Counter(v) => {
            pairs.push(("ph", Value::from("C")));
            pairs.push(("args", Value::object([("value", Value::from(v))])));
        }
    }
    // Causal ids ride along as args so Perfetto queries can group a
    // request's spans across worker lanes. Counter args already carry
    // the value; id-less events stay as small as before.
    if event.span != 0 && !matches!(event.kind, EventKind::Counter(_)) {
        pairs.push((
            "args",
            Value::object([
                (
                    "trace",
                    Value::from(format!("{:016x}{:016x}", event.trace_hi, event.trace_lo)),
                ),
                ("span", Value::from(format!("{:016x}", event.span))),
                ("parent", Value::from(format!("{:016x}", event.parent))),
            ]),
        ));
    }
    Value::object(pairs)
}

/// One row of the self-time profile: a span name aggregated over every
/// lane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileRow {
    /// Span name.
    pub name: &'static str,
    /// Completed (or synthetically closed) occurrences.
    pub count: u64,
    /// Total begin→end time.
    pub inclusive_ns: u64,
    /// Inclusive time minus directly nested spans' inclusive time.
    pub exclusive_ns: u64,
}

/// The self-time fold over closed spans given as `(parent index,
/// duration ns)`: each span's duration minus the durations of its
/// direct children (the spans whose parent index points at it),
/// saturating at zero. Grandchildren are already inside their parent's
/// duration, so they are not subtracted twice.
pub fn self_times(spans: &[(Option<usize>, u64)]) -> Vec<u64> {
    let mut self_ns: Vec<u64> = spans.iter().map(|&(_, dur_ns)| dur_ns).collect();
    for &(parent, dur_ns) in spans {
        if let Some(p) = parent {
            self_ns[p] = self_ns[p].saturating_sub(dur_ns);
        }
    }
    self_ns
}

/// Folds lane snapshots into a self-time profile, sorted by exclusive
/// time descending (ties by name, so the table is deterministic).
pub fn self_time(lanes: &[LaneSnapshot]) -> Vec<ProfileRow> {
    // Each lane's balanced begin/end pairs as closed spans, parented to
    // the span open around them on the lane.
    let (mut names, mut spans) = (Vec::new(), Vec::new());
    for lane in lanes {
        // (index into `spans`, begin timestamp) of each open span.
        let mut open: Vec<(usize, u64)> = Vec::new();
        for event in balance(&lane.events) {
            match event.kind {
                EventKind::Begin => {
                    names.push(event.name);
                    spans.push((open.last().map(|&(i, _)| i), 0));
                    open.push((spans.len() - 1, event.ts_ns));
                }
                EventKind::End => {
                    let (i, begin_ts) = open.pop().expect("balance() matches every end");
                    spans[i].1 = event.ts_ns.saturating_sub(begin_ts);
                }
                EventKind::Instant | EventKind::Counter(_) => {}
            }
        }
    }
    let mut rows: BTreeMap<&'static str, ProfileRow> = BTreeMap::new();
    for ((name, &(_, dur_ns)), self_ns) in names.into_iter().zip(&spans).zip(self_times(&spans)) {
        let row = rows.entry(name).or_insert(ProfileRow {
            name,
            count: 0,
            inclusive_ns: 0,
            exclusive_ns: 0,
        });
        row.count += 1;
        row.inclusive_ns += dur_ns;
        row.exclusive_ns += self_ns;
    }
    let mut out: Vec<ProfileRow> = rows.into_values().collect();
    out.sort_by(|a, b| {
        b.exclusive_ns
            .cmp(&a.exclusive_ns)
            .then_with(|| a.name.cmp(b.name))
    });
    out
}

/// The profile as a JSON array (the `profile` field of the perf
/// records; excluded from the determinism gate like every timing field).
pub fn profile_json(rows: &[ProfileRow]) -> Value {
    Value::Array(
        rows.iter()
            .map(|r| {
                Value::object([
                    ("name", Value::from(r.name)),
                    ("count", Value::from(r.count)),
                    ("inclusive_ns", Value::from(r.inclusive_ns)),
                    ("exclusive_ns", Value::from(r.exclusive_ns)),
                ])
            })
            .collect(),
    )
}

/// Renders the profile as an aligned text table (the `--stats` section).
pub fn render_profile(rows: &[ProfileRow]) -> String {
    use std::fmt::Write as _;
    if rows.is_empty() {
        return String::new();
    }
    let mut out = String::from("── self-time profile (exclusive / inclusive) ──\n");
    let width = rows.iter().map(|r| r.name.len()).max().unwrap_or(0);
    for r in rows {
        let _ = writeln!(
            out,
            "{:width$}  n={:<8} self={:>10} total={:>10}",
            r.name,
            r.count,
            fmt_ns(r.exclusive_ns),
            fmt_ns(r.inclusive_ns),
        );
    }
    out
}

/// A nanosecond figure in the largest unit that keeps it readable.
pub(crate) fn fmt_ns(v: u64) -> String {
    match v {
        0..=9_999 => format!("{v}ns"),
        10_000..=9_999_999 => format!("{:.1}µs", v as f64 / 1e3),
        10_000_000..=999_999_999 => format!("{:.1}ms", v as f64 / 1e6),
        _ => format!("{:.2}s", v as f64 / 1e9),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &'static str, kind: EventKind, ts_ns: u64) -> Event {
        Event::plain(name, kind, ts_ns)
    }

    fn lane(events: Vec<Event>) -> LaneSnapshot {
        LaneSnapshot {
            id: 7,
            label: "test-lane".into(),
            events,
            dropped: 0,
        }
    }

    #[test]
    fn balance_drops_orphan_ends_and_closes_open_begins() {
        // Suffix of a well-nested sequence: E(a) is orphaned, b stays
        // open.
        let events = vec![
            ev("a", EventKind::End, 10),
            ev("b", EventKind::Begin, 20),
            ev("c", EventKind::Begin, 30),
            ev("c", EventKind::End, 40),
        ];
        let repaired = balance(&events);
        let shape: Vec<(&str, EventKind)> = repaired.iter().map(|e| (e.name, e.kind)).collect();
        assert_eq!(
            shape,
            vec![
                ("b", EventKind::Begin),
                ("c", EventKind::Begin),
                ("c", EventKind::End),
                ("b", EventKind::End),
            ]
        );
        assert_eq!(repaired.last().unwrap().ts_ns, 40, "closed at the last ts");
    }

    #[test]
    fn causal_ids_survive_synthetic_ends_and_export_as_args() {
        let mut begin = ev("req", EventKind::Begin, 10);
        begin.trace_hi = 0xaa;
        begin.trace_lo = 0xbb;
        begin.span = 0x3;
        let repaired = balance(&[begin]);
        assert_eq!(repaired.len(), 2, "open begin gets a synthetic end");
        assert_eq!(repaired[1].kind, EventKind::End);
        assert_eq!(repaired[1].span, 0x3, "synthetic end inherits the ids");
        let json = emit(&repaired[1], 1);
        let args = json.get("args").expect("id-stamped events carry args");
        assert_eq!(
            args.get("span").and_then(Value::as_str),
            Some("0000000000000003")
        );
        assert_eq!(
            args.get("trace").and_then(Value::as_str),
            Some("00000000000000aa00000000000000bb")
        );
        // Id-less events stay arg-free (Counter keeps its value args).
        assert!(emit(&ev("x", EventKind::Begin, 0), 1).get("args").is_none());
    }

    #[test]
    fn chrome_trace_has_metadata_and_matched_pairs() {
        let l = lane(vec![
            ev("work", EventKind::Begin, 1_000),
            ev("steal", EventKind::Instant, 1_500),
            ev("queue", EventKind::Counter(3), 1_600),
            ev("work", EventKind::End, 2_000),
        ]);
        let trace = chrome_trace(&[l]);
        let events = trace
            .get("traceEvents")
            .and_then(Value::as_array)
            .expect("traceEvents array");
        assert_eq!(events.len(), 5, "metadata + 4 events");
        let phases: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("ph").and_then(Value::as_str))
            .collect();
        assert_eq!(phases, vec!["M", "B", "i", "C", "E"]);
        // Microsecond timestamps.
        let b = &events[1];
        assert_eq!(b.get("ts").and_then(Value::as_f64), Some(1.0));
        assert_eq!(b.get("tid").and_then(Value::as_u64), Some(7));
        // Round-trips through the hand-rolled JSON.
        let text = trace.to_string();
        assert_eq!(Value::parse(&text).unwrap(), trace);
    }

    #[test]
    fn self_time_splits_exclusive_from_inclusive() {
        // outer [0, 100] wraps inner [20, 60]: outer self = 60.
        let l = lane(vec![
            ev("outer", EventKind::Begin, 0),
            ev("inner", EventKind::Begin, 20),
            ev("inner", EventKind::End, 60),
            ev("outer", EventKind::End, 100),
        ]);
        let rows = self_time(&[l]);
        assert_eq!(rows.len(), 2);
        let outer = rows.iter().find(|r| r.name == "outer").unwrap();
        assert_eq!(outer.count, 1);
        assert_eq!(outer.inclusive_ns, 100);
        assert_eq!(outer.exclusive_ns, 60);
        let inner = rows.iter().find(|r| r.name == "inner").unwrap();
        assert_eq!(inner.inclusive_ns, 40);
        assert_eq!(inner.exclusive_ns, 40);
        // Sorted by exclusive descending.
        assert_eq!(rows[0].name, "outer");
    }

    #[test]
    fn self_time_only_counts_direct_children_once() {
        // a wraps b wraps c: a's self excludes b (which already contains
        // c), not b and c both.
        let l = lane(vec![
            ev("a", EventKind::Begin, 0),
            ev("b", EventKind::Begin, 10),
            ev("c", EventKind::Begin, 20),
            ev("c", EventKind::End, 30),
            ev("b", EventKind::End, 40),
            ev("a", EventKind::End, 50),
        ]);
        let rows = self_time(&[l]);
        let a = rows.iter().find(|r| r.name == "a").unwrap();
        assert_eq!(a.inclusive_ns, 50);
        assert_eq!(a.exclusive_ns, 20, "50 - b's 30");
        let b = rows.iter().find(|r| r.name == "b").unwrap();
        assert_eq!(b.exclusive_ns, 20, "30 - c's 10");
    }

    #[test]
    fn self_times_subtract_direct_children_only() {
        // root ⊃ child ⊃ grandchild ⊃ an overlong great-grandchild.
        let spans = [(None, 100), (Some(0), 60), (Some(1), 50), (Some(2), 70)];
        assert_eq!(self_times(&spans), vec![40, 10, 0, 70]);
    }

    #[test]
    fn profile_render_and_json_cover_all_rows() {
        let rows = vec![
            ProfileRow {
                name: "x.build",
                count: 2,
                inclusive_ns: 3_000_000,
                exclusive_ns: 2_000_000,
            },
            ProfileRow {
                name: "x.merge",
                count: 1,
                inclusive_ns: 1_000_000,
                exclusive_ns: 1_000_000,
            },
        ];
        let text = render_profile(&rows);
        assert!(text.contains("x.build"), "{text}");
        assert!(text.contains("self-time profile"), "{text}");
        let json = profile_json(&rows);
        assert_eq!(json.as_array().unwrap().len(), 2);
        assert_eq!(render_profile(&[]), "");
    }
}
