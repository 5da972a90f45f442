//! Consumers of the flight recorder: Chrome trace-event JSON export and
//! the self-time profile, both read through one nesting pass per lane,
//! [`nest`].
//!
//! A lane holds closed spans and instants in the order they were taken;
//! `nest` puts them in start order and parents each to the span that
//! encloses it on the lane. Containment is exact because a span closes
//! on the thread that opened it, so two spans on one lane are disjoint
//! or nested. The one tie times cannot settle, a span opening at the
//! very nanosecond a zero-length record was taken, is read as nesting,
//! which changes no self time and no nesting in the export.
//!
//! The export is the Trace Event Format that Perfetto and
//! `chrome://tracing` load. Its `traceEvents` hold, per lane (one `tid`
//! per recorded thread, so every `cable-par` worker gets a swimlane), a
//! `thread_name` record carrying the lane's `dropped` count, then the
//! lane's complete (`ph: "X"`, with a `dur`) and instant (`ph: "i"`)
//! events in start order, with microsecond `ts` values.
//!
//! **Self time** (the profile): a span's *inclusive* time is its whole
//! begin→end duration; its *exclusive* (self) time is the inclusive time
//! minus the inclusive time of the spans nested directly inside it.
//! Exclusive sums over a tree partition its root's wall time, which is
//! what makes the profile table answer "where does time actually go".
//! [`self_times`] is the one fold that computes it over closed spans:
//! [`self_time`] feeds it each lane's spans as [`nest`] parents them,
//! `reproduce trace-report` a request's span tree (nesting by parent
//! id).

use crate::json::Value;
use crate::recorder::{LaneSnapshot, Record};
use std::cmp::Reverse;
use std::collections::BTreeMap;

/// Nests one lane's records: returns each record's index in start
/// order, paired with the index of the span that encloses it on the
/// lane (`None` at the top level).
///
/// `records` must be in the order the lane took them (a span when it
/// closed). That order settles ties of equal times: a span encloses
/// only records taken before it.
pub fn nest(records: &[Record]) -> Vec<(usize, Option<usize>)> {
    // A closing span adopts every record still without a parent that
    // started no earlier than it did: its direct children, which have
    // already adopted theirs.
    let mut parents = vec![None; records.len()];
    let mut orphans: Vec<usize> = Vec::new();
    for (i, record) in records.iter().enumerate() {
        if let Record::Span(span) = record {
            while let Some(child) =
                orphans.pop_if(|child| records[*child].rec().start_ns >= span.start_ns)
            {
                parents[child] = Some(i);
            }
        }
        orphans.push(i);
    }
    // On equal starts the longer span, then the later-closed one, is the
    // outer one, so every span precedes the records nested in it.
    let mut order: Vec<usize> = (0..records.len()).collect();
    order.sort_by_key(|&i| {
        let rec = records[i].rec();
        (rec.start_ns, Reverse(rec.end_ns), Reverse(i))
    });
    order.into_iter().map(|i| (i, parents[i])).collect()
}

/// Renders lane snapshots as a Chrome trace-event JSON value:
/// `{"traceEvents": [...], "displayTimeUnit": "ms"}`. Lanes without
/// records are left out.
pub fn chrome_trace(lanes: &[LaneSnapshot]) -> Value {
    let mut events = Vec::new();
    for lane in lanes.iter().filter(|lane| !lane.records.is_empty()) {
        // Lane metadata first: Perfetto names the track from it.
        events.push(Value::object([
            ("ph", Value::from("M")),
            ("name", Value::from("thread_name")),
            ("pid", Value::from(1u64)),
            ("tid", Value::from(lane.id)),
            (
                "args",
                Value::object([
                    ("name", Value::from(lane.label.as_str())),
                    ("dropped", Value::from(lane.dropped)),
                ]),
            ),
        ]));
        for (i, _) in nest(&lane.records) {
            events.push(emit(&lane.records[i], lane.id));
        }
    }
    Value::object([
        ("traceEvents", Value::Array(events)),
        ("displayTimeUnit", Value::from("ms")),
    ])
}

fn emit(record: &Record, tid: u64) -> Value {
    let rec = record.rec();
    let mut pairs = vec![
        ("name", Value::from(rec.name)),
        ("pid", Value::from(1u64)),
        ("tid", Value::from(tid)),
        ("ts", Value::from(rec.start_ns as f64 / 1e3)),
    ];
    match record {
        Record::Span(_) => {
            pairs.push(("ph", Value::from("X")));
            pairs.push(("dur", Value::from(rec.duration_ns() as f64 / 1e3)));
        }
        Record::Instant(_) => {
            pairs.push(("ph", Value::from("i")));
            pairs.push(("s", Value::from("t")));
        }
    }
    // Causal ids ride along as args so Perfetto queries can group a
    // request's spans across worker lanes; id-less records stay small.
    if rec.span != 0 {
        pairs.push((
            "args",
            Value::object([
                (
                    "trace",
                    Value::from(format!("{:016x}{:016x}", rec.trace_hi, rec.trace_lo)),
                ),
                ("span", Value::from(format!("{:016x}", rec.span))),
                ("parent", Value::from(format!("{:016x}", rec.parent))),
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
    /// Closed occurrences.
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
    // Every lane's spans, parented as `nest` nests them. A parent comes
    // before its children, so its index in `spans` is known by then.
    let (mut names, mut spans) = (Vec::new(), Vec::new());
    for lane in lanes {
        let mut at = vec![0; lane.records.len()];
        for (i, parent) in nest(&lane.records) {
            if let Record::Span(rec) = &lane.records[i] {
                at[i] = spans.len();
                names.push(rec.name);
                spans.push((parent.map(|p| at[p]), rec.duration_ns()));
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
    use crate::context::{mix, SpanRec};

    fn span(name: &'static str, start_ns: u64, end_ns: u64) -> Record {
        Record::Span(SpanRec::plain(name, start_ns, end_ns))
    }

    fn instant(name: &'static str, ts_ns: u64) -> Record {
        Record::Instant(SpanRec::plain(name, ts_ns, ts_ns))
    }

    fn lane(records: Vec<Record>) -> LaneSnapshot {
        LaneSnapshot {
            id: 7,
            label: "test-lane".into(),
            records,
            dropped: 0,
        }
    }

    #[test]
    fn nest_orders_by_start_and_parents_by_containment() {
        // In close order: c inside b inside a, a sibling d of a that
        // opens at a's end, and an instant inside d.
        let records = [
            span("c", 20, 30),
            span("b", 10, 40),
            span("a", 0, 50),
            instant("mark", 55),
            span("d", 50, 60),
        ];
        assert_eq!(
            nest(&records),
            vec![
                (2, None),
                (1, Some(2)),
                (0, Some(1)),
                (4, None),
                (3, Some(4))
            ]
        );
    }

    /// A random properly nested forest on one lane: its records in close
    /// order, and each record's generated parent as an index into them.
    /// The clock may stand still between any two steps except that a
    /// span opens strictly after the lane's last record, the one tie
    /// [`nest`] cannot settle; so zero-length spans, a parent and child
    /// that share an interval, and instants at a span's edges all occur.
    fn forest(seed: u64) -> (Vec<Record>, Vec<Option<usize>>) {
        let mut draws = 0u64;
        let mut draw = |k: u64| {
            draws += 1;
            mix(seed, draws) % k
        };
        // (id, start) of each open span, innermost last; every record's
        // (id, parent id) in close order.
        let (mut t, mut last_taken) = (0u64, None::<u64>);
        let mut open: Vec<(usize, u64)> = Vec::new();
        let (mut records, mut ids) = (Vec::new(), Vec::new());
        let mut next_id = 0usize;
        let steps = 1 + draw(40);
        for step in 0.. {
            let finishing = step >= steps;
            if finishing && open.is_empty() {
                break;
            }
            t += draw(3);
            match (finishing, draw(3)) {
                (false, 0) => {
                    if last_taken == Some(t) {
                        t += 1;
                    }
                    open.push((next_id, t));
                    next_id += 1;
                }
                (false, 1) => {
                    records.push(instant("i", t));
                    ids.push((next_id, open.last().map(|&(id, _)| id)));
                    next_id += 1;
                    last_taken = Some(t);
                }
                _ => {
                    if let Some((id, start)) = open.pop() {
                        records.push(span("s", start, t));
                        ids.push((id, open.last().map(|&(id, _)| id)));
                        last_taken = Some(t);
                    }
                }
            }
        }
        let index = |id: usize| ids.iter().position(|&(i, _)| i == id);
        let parents = ids.iter().map(|&(_, p)| p.and_then(index)).collect();
        (records, parents)
    }

    #[test]
    fn nest_recovers_every_generated_parent() {
        for seed in 0..500u64 {
            let (records, parents) = forest(seed);
            let nested = nest(&records);
            let mut seen = vec![false; records.len()];
            let mut last_start = 0;
            for &(i, parent) in &nested {
                assert!(!seen[i], "seed {seed}: record {i} twice");
                seen[i] = true;
                let start = records[i].rec().start_ns;
                assert!(start >= last_start, "seed {seed}: out of start order");
                last_start = start;
                assert_eq!(
                    parent, parents[i],
                    "seed {seed}: parent of {i} in {records:?}"
                );
                assert!(
                    parent.is_none_or(|p| seen[p]),
                    "seed {seed}: {i} before its parent"
                );
            }
            assert!(seen.iter().all(|&s| s), "seed {seed}: a record is missing");
        }
    }

    #[test]
    fn nest_settles_shared_intervals_by_close_order() {
        // A child that shares its parent's interval closes first; two
        // zero-length spans nest the same way; a zero-length span at a
        // sibling's end stays its sibling.
        let records = [span("child", 5, 9), span("parent", 5, 9)];
        assert_eq!(nest(&records), vec![(1, None), (0, Some(1))]);
        let records = [span("inner", 5, 5), span("outer", 5, 5)];
        assert_eq!(nest(&records), vec![(1, None), (0, Some(1))]);
        let records = [span("first", 1, 5), span("next", 5, 5)];
        assert_eq!(nest(&records), vec![(0, None), (1, None)]);
    }

    #[test]
    fn causal_ids_export_as_args() {
        let rec = SpanRec {
            trace_hi: 0xaa,
            trace_lo: 0xbb,
            span: 0x3,
            ..SpanRec::plain("req", 10, 20)
        };
        let json = emit(&Record::Span(rec), 1);
        let args = json.get("args").expect("id-stamped records carry args");
        assert_eq!(
            args.get("span").and_then(Value::as_str),
            Some("0000000000000003")
        );
        assert_eq!(
            args.get("trace").and_then(Value::as_str),
            Some("00000000000000aa00000000000000bb")
        );
        // Id-less records stay arg-free.
        assert!(emit(&span("x", 0, 1), 1).get("args").is_none());
    }

    #[test]
    fn chrome_trace_has_metadata_and_complete_events() {
        let mut l = lane(vec![instant("park", 1_500), span("work", 1_000, 2_000)]);
        l.dropped = 3;
        let empty = LaneSnapshot {
            id: 8,
            ..lane(Vec::new())
        };
        let trace = chrome_trace(&[l, empty]);
        let events = trace
            .get("traceEvents")
            .and_then(Value::as_array)
            .expect("traceEvents array");
        assert_eq!(events.len(), 3, "metadata + 2 records; no empty lane");
        let phases: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("ph").and_then(Value::as_str))
            .collect();
        assert_eq!(phases, vec!["M", "X", "i"], "start order");
        let meta = events[0].get("args").unwrap();
        assert_eq!(meta.get("dropped").and_then(Value::as_u64), Some(3));
        // Microsecond timestamps and durations.
        let x = &events[1];
        assert_eq!(x.get("ts").and_then(Value::as_f64), Some(1.0));
        assert_eq!(x.get("dur").and_then(Value::as_f64), Some(1.0));
        assert_eq!(x.get("tid").and_then(Value::as_u64), Some(7));
        // Round-trips through the hand-rolled JSON.
        let text = trace.to_string();
        assert_eq!(Value::parse(&text).unwrap(), trace);
    }

    #[test]
    fn self_time_splits_exclusive_from_inclusive() {
        // outer [0, 100] wraps inner [20, 60]: outer self = 60.
        let l = lane(vec![span("inner", 20, 60), span("outer", 0, 100)]);
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
        // c), not b and c both. Instants take no time.
        let l = lane(vec![
            span("c", 20, 30),
            instant("mark", 35),
            span("b", 10, 40),
            span("a", 0, 50),
        ]);
        let rows = self_time(&[l]);
        assert_eq!(rows.len(), 3, "instants are not profile rows");
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
