//! Critical-path and stage attribution over `trace_export` records.
//!
//! The server's tail store (`cable_core::server`) keeps complete span
//! trees for slow and errored requests; `/tracez/export` dumps them as
//! one `trace_export` JSON record. This module turns that dump into the
//! answer ROADMAP item 1 actually needs: *where does a slow request's
//! wall time go?* Split into named stages —
//!
//! | stage | spans |
//! |---|---|
//! | `queue` | `wait.queue` (bounded accept queue) |
//! | `lock-wait` | `wait.slots`, `wait.state` (manager mutexes) |
//! | `fsync` | `wait.fsync` (journal durability) |
//! | `serialization` | `parse.*`, `serialize.*` |
//! | `lattice` | `lattice.*`, `core.session.build` (Godin work) |
//! | `handler` | everything else: routing, manager bookkeeping, |
//! |  | uncategorised span self-time |
//!
//! Attribution is **self-time with nearest-categorised-ancestor**:
//! each span's self time (duration minus its children's durations, the
//! same fold `cable_obs::chrome` runs for the `--stats` profile) is
//! charged to the innermost enclosing span that names a stage, so a
//! `lattice.insert` that internally waits on `wait.fsync` charges the
//! fsync time to `fsync`, not `lattice`. Summed over the tree this
//! splits the request root's wall time exhaustively; the *coverage*
//! (attributed time over root wall time) dips below 100% only when
//! spans were dropped at the per-request cap or the tree is damaged —
//! which is exactly what the `--min-coverage` gate is for.
//!
//! The **critical path** is the greedy longest-child chain from the
//! request root: at each span, descend into the child that took
//! longest. For a request that spent its life under one lock or one
//! fsync, that chain names the culprit directly.

use cable_obs::json::Value;
use std::collections::BTreeMap;

/// Stage names in report order. `handler` is the categorised residue:
/// genuine request-handler work that no finer stage claims.
pub const STAGES: [&str; 6] = [
    "queue",
    "lock-wait",
    "fsync",
    "serialization",
    "lattice",
    "handler",
];

/// The stage a span's self time is charged to, or `None` to defer to
/// the nearest categorised ancestor (ultimately `handler`).
fn stage_of(name: &str) -> Option<&'static str> {
    match name {
        "wait.slots" | "wait.state" => Some("lock-wait"),
        "wait.fsync" => Some("fsync"),
        "wait.queue" => Some("queue"),
        _ if name.starts_with("parse.") || name.starts_with("serialize.") => Some("serialization"),
        _ if name.starts_with("lattice.") || name == "core.session.build" => Some("lattice"),
        _ => None,
    }
}

/// One span as read back from a `trace_export` record.
struct Span {
    name: String,
    parent: u64,
    dur_ns: u64,
}

/// One request's attribution: stage split, coverage, critical path.
#[derive(Debug, Clone)]
pub struct StageSplit {
    /// 32-hex-digit trace id.
    pub trace: String,
    /// Route label the request was served under.
    pub route: String,
    /// HTTP status answered.
    pub status: u64,
    /// Root span wall time, microseconds (includes queue wait).
    pub wall_us: u64,
    /// Microseconds charged to each stage, in [`STAGES`] order.
    pub stages: Vec<(&'static str, u64)>,
    /// Attributed time over wall time, percent.
    pub coverage_pct: f64,
    /// Greedy longest-child chain from the root: `(name, µs)`.
    pub critical_path: Vec<(String, u64)>,
}

/// The whole report: every kept tree analysed, the p99 one singled out.
#[derive(Debug, Clone)]
pub struct TraceReport {
    /// Requests the tail store had seen in total.
    pub seen: u64,
    /// Kept span trees analysed.
    pub analyzed: usize,
    /// Per-stage totals over *all* analysed trees, µs.
    pub aggregate: Vec<(&'static str, u64)>,
    /// The p99-by-wall-time request's split (nearest rank over the
    /// analysed trees).
    pub p99: StageSplit,
}

fn field_u64(v: &Value, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("span tree entry lacks numeric {key:?}"))
}

fn field_hex(v: &Value, key: &str) -> Result<u64, String> {
    let s = v
        .get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("span tree entry lacks hex {key:?}"))?;
    u64::from_str_radix(s, 16).map_err(|_| format!("{key:?} is not hex: {s:?}"))
}

/// Splits one kept tree (`traces[i]` of the export) into stages.
fn split_trace(trace: &Value) -> Result<StageSplit, String> {
    let id = trace
        .get("trace")
        .and_then(Value::as_str)
        .ok_or("trace entry lacks a trace id")?
        .to_owned();
    let root_id = field_hex(trace, "root")?;
    let rows = trace
        .get("spans_tree")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("trace {id} has no spans_tree"))?;
    let mut spans = Vec::with_capacity(rows.len());
    let mut index: BTreeMap<u64, usize> = BTreeMap::new();
    for row in rows {
        let name = row
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("trace {id}: span without a name"))?
            .to_owned();
        let span = field_hex(row, "span")?;
        let parent = field_hex(row, "parent")?;
        let start = field_u64(row, "start_ns")?;
        let end = field_u64(row, "end_ns")?;
        if index.insert(span, spans.len()).is_some() {
            return Err(format!("trace {id}: span id {span:016x} repeats"));
        }
        spans.push(Span {
            name,
            parent,
            dur_ns: end.saturating_sub(start),
        });
    }
    let Some(&root) = index.get(&root_id) else {
        return Err(format!("trace {id}: root span {root_id:016x} missing"));
    };

    // Children lists and (parent index, duration) links for the shared
    // self-time fold, then the set reachable from the root — spans
    // orphaned by the per-request cap are excluded so their time is
    // not double-counted against the root's self time.
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    let mut links = Vec::with_capacity(spans.len());
    for (i, s) in spans.iter().enumerate() {
        let parent = index.get(&s.parent).copied().filter(|_| i != root);
        if let Some(p) = parent {
            children[p].push(i);
        }
        links.push((parent, s.dur_ns));
    }
    let mut reachable = vec![false; spans.len()];
    let mut stack = vec![root];
    while let Some(i) = stack.pop() {
        if std::mem::replace(&mut reachable[i], true) {
            continue;
        }
        stack.extend(children[i].iter().copied());
    }

    // Self time, charged to the nearest categorised ancestor.
    let mut totals: BTreeMap<&'static str, u64> = BTreeMap::new();
    let self_times = cable_obs::chrome::self_times(&links);
    for (i, s) in spans.iter().enumerate() {
        if !reachable[i] {
            continue;
        }
        let self_ns = self_times[i];
        let mut stage = stage_of(&s.name);
        let mut cursor = i;
        while stage.is_none() && cursor != root {
            let Some(&p) = index.get(&spans[cursor].parent) else {
                break;
            };
            cursor = p;
            stage = stage_of(&spans[cursor].name);
        }
        *totals.entry(stage.unwrap_or("handler")).or_insert(0) += self_ns / 1_000;
    }
    let stages: Vec<(&'static str, u64)> = STAGES
        .iter()
        .map(|&s| (s, totals.get(s).copied().unwrap_or(0)))
        .collect();

    let wall_us = trace
        .get("wall_us")
        .and_then(Value::as_u64)
        .unwrap_or(spans[root].dur_ns / 1_000);
    let attributed: u64 = stages.iter().map(|(_, us)| us).sum();
    let coverage_pct = if wall_us == 0 {
        100.0
    } else {
        (attributed as f64 / wall_us as f64) * 100.0
    };

    // Greedy longest-child chain.
    let mut critical_path = Vec::new();
    let mut cursor = root;
    loop {
        critical_path.push((spans[cursor].name.clone(), spans[cursor].dur_ns / 1_000));
        let next = children[cursor]
            .iter()
            .copied()
            .filter(|&c| reachable[c])
            .max_by_key(|&c| spans[c].dur_ns);
        match next {
            Some(c) if critical_path.len() < 64 => cursor = c,
            _ => break,
        }
    }

    Ok(StageSplit {
        trace: id,
        route: trace
            .get("route")
            .and_then(Value::as_str)
            .unwrap_or("-")
            .to_owned(),
        status: trace.get("status").and_then(Value::as_u64).unwrap_or(0),
        wall_us,
        stages,
        coverage_pct,
        critical_path,
    })
}

/// Analyses a `trace_export` record.
///
/// # Errors
///
/// Returns a message when the export is not a `trace_export` record,
/// holds no kept trees, or a tree is structurally damaged (repeated
/// span ids, missing root).
pub fn analyze(export: &Value) -> Result<TraceReport, String> {
    if export.get("record").and_then(Value::as_str) != Some("trace_export") {
        return Err("not a trace_export record".to_owned());
    }
    let traces = export
        .get("traces")
        .and_then(Value::as_array)
        .ok_or("trace_export has no traces array")?;
    if traces.is_empty() {
        return Err("trace_export holds no kept span trees (was tracing on?)".to_owned());
    }
    let mut splits = traces
        .iter()
        .map(split_trace)
        .collect::<Result<Vec<_>, _>>()?;
    let mut aggregate: BTreeMap<&'static str, u64> = BTreeMap::new();
    for split in &splits {
        for (stage, us) in &split.stages {
            *aggregate.entry(stage).or_insert(0) += us;
        }
    }
    splits.sort_by(|a, b| a.wall_us.cmp(&b.wall_us).then(a.trace.cmp(&b.trace)));
    let rank = ((splits.len() - 1) as f64 * 0.99).round() as usize;
    let p99 = splits[rank.min(splits.len() - 1)].clone();
    Ok(TraceReport {
        seen: export.get("seen").and_then(Value::as_u64).unwrap_or(0),
        analyzed: splits.len(),
        aggregate: STAGES
            .iter()
            .map(|&s| (s, aggregate.get(s).copied().unwrap_or(0)))
            .collect(),
        p99,
    })
}

impl TraceReport {
    /// Whether the p99 request's attribution meets the coverage gate.
    pub fn passes(&self, min_coverage_pct: f64) -> bool {
        self.p99.coverage_pct >= min_coverage_pct
    }

    /// The `trace_attribution` JSONL record.
    pub fn to_json(&self) -> Value {
        let stage_obj = |pairs: &[(&'static str, u64)]| {
            Value::object(
                pairs
                    .iter()
                    .map(|&(s, us)| (s, Value::from(us)))
                    .collect::<Vec<_>>(),
            )
        };
        Value::object([
            ("record", Value::from("trace_attribution")),
            ("seen", Value::from(self.seen)),
            ("analyzed", Value::from(self.analyzed as u64)),
            ("aggregate_us", stage_obj(&self.aggregate)),
            ("p99_trace", Value::from(self.p99.trace.as_str())),
            ("p99_route", Value::from(self.p99.route.as_str())),
            ("p99_status", Value::from(self.p99.status)),
            ("p99_wall_us", Value::from(self.p99.wall_us)),
            ("p99_stages_us", stage_obj(&self.p99.stages)),
            ("p99_coverage_pct", Value::from(self.p99.coverage_pct)),
            (
                "p99_critical_path",
                Value::Array(
                    self.p99
                        .critical_path
                        .iter()
                        .map(|(name, us)| {
                            Value::object([
                                ("name", Value::from(name.as_str())),
                                ("us", Value::from(*us)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// A one-screen human summary for the drill log.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "trace-report: {} trees analysed ({} requests seen)",
            self.analyzed, self.seen
        );
        let _ = writeln!(
            out,
            "trace-report: p99 request {} ({}, status {}): {}us wall, {:.1}% attributed",
            self.p99.trace,
            self.p99.route,
            self.p99.status,
            self.p99.wall_us,
            self.p99.coverage_pct
        );
        for (stage, us) in &self.p99.stages {
            let pct = if self.p99.wall_us > 0 {
                *us as f64 / self.p99.wall_us as f64 * 100.0
            } else {
                0.0
            };
            let _ = writeln!(out, "trace-report:   {stage:<14} {us:>10} us  {pct:5.1}%");
        }
        let path: Vec<String> = self
            .p99
            .critical_path
            .iter()
            .map(|(name, us)| format!("{name} ({us}us)"))
            .collect();
        let _ = writeln!(out, "trace-report: critical path: {}", path.join(" -> "));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, span: u64, parent: u64, start: u64, end: u64) -> Value {
        Value::object([
            ("name", Value::from(name)),
            ("span", Value::from(format!("{span:016x}"))),
            ("parent", Value::from(format!("{parent:016x}"))),
            ("start_ns", Value::from(start)),
            ("end_ns", Value::from(end)),
        ])
    }

    fn export(traces: Vec<Value>) -> Value {
        Value::object([
            ("record", Value::from("trace_export")),
            ("seen", Value::from(traces.len() as u64)),
            ("traces", Value::Array(traces)),
        ])
    }

    fn tree(id: &str, root: u64, wall_us: u64, spans: Vec<Value>) -> Value {
        Value::object([
            ("trace", Value::from(id)),
            ("root", Value::from(format!("{root:016x}"))),
            ("route", Value::from("/api/sessions/:id/ingest")),
            ("status", Value::from(200u64)),
            ("wall_us", Value::from(wall_us)),
            ("spans_tree", Value::Array(spans)),
        ])
    }

    #[test]
    fn self_time_lands_on_the_nearest_categorised_ancestor() {
        // root[0..100us]: lattice.insert[10..60us] containing
        // wait.fsync[20..40us]; wait.queue[0..10us].
        let t = tree(
            "t1",
            1,
            100,
            vec![
                span("http.request", 1, 0, 0, 100_000),
                span("wait.queue", 2, 1, 0, 10_000),
                span("lattice.insert", 3, 1, 10_000, 60_000),
                span("wait.fsync", 4, 3, 20_000, 40_000),
            ],
        );
        let report = analyze(&export(vec![t])).unwrap();
        let stages: BTreeMap<_, _> = report.p99.stages.iter().copied().collect();
        assert_eq!(stages["queue"], 10);
        assert_eq!(stages["lattice"], 30, "fsync time is not lattice time");
        assert_eq!(stages["fsync"], 20);
        assert_eq!(stages["handler"], 40, "root self time");
        assert!((report.p99.coverage_pct - 100.0).abs() < 0.5);
        assert!(report.passes(95.0));
        // Critical path descends into the longest child chain.
        let names: Vec<&str> = report
            .p99
            .critical_path
            .iter()
            .map(|(n, _)| n.as_str())
            .collect();
        assert_eq!(names, ["http.request", "lattice.insert", "wait.fsync"]);
    }

    #[test]
    fn dropped_subtrees_lower_coverage_and_fail_the_gate() {
        // A child hangs off a parent that never made it into the tree:
        // unreachable, so its time is unattributed and the root's self
        // time does not cover the gap either (wall is queue-widened).
        let t = tree(
            "t2",
            1,
            200, // wall includes 100us the tree cannot explain
            vec![
                span("http.request", 1, 0, 0, 100_000),
                span("wait.fsync", 9, 77, 0, 50_000),
            ],
        );
        let report = analyze(&export(vec![t])).unwrap();
        assert!(report.p99.coverage_pct < 95.0);
        assert!(!report.passes(95.0));
    }

    #[test]
    fn damaged_exports_error() {
        assert!(analyze(&Value::object([("record", Value::from("other"))])).is_err());
        assert!(analyze(&export(vec![])).is_err());
        // Repeated span id.
        let t = tree(
            "t3",
            1,
            10,
            vec![
                span("http.request", 1, 0, 0, 10_000),
                span("a", 2, 1, 0, 1_000),
                span("b", 2, 1, 1_000, 2_000),
            ],
        );
        assert!(analyze(&export(vec![t])).is_err());
        // Missing root.
        let t = tree("t4", 99, 10, vec![span("x", 1, 0, 0, 10_000)]);
        assert!(analyze(&export(vec![t])).is_err());
    }

    #[test]
    fn p99_picks_the_slow_tail_and_record_round_trips() {
        let mut traces = Vec::new();
        for i in 0..100u64 {
            let wall = 1_000 + i * 10; // trace 99 is slowest
            traces.push(tree(
                &format!("t{i:02}"),
                1,
                wall,
                vec![span("http.request", 1, 0, 0, wall * 1_000)],
            ));
        }
        let report = analyze(&export(traces)).unwrap();
        assert_eq!(report.analyzed, 100);
        assert_eq!(report.p99.trace, "t98");
        let json = report.to_json();
        assert_eq!(
            json.get("record").and_then(Value::as_str),
            Some("trace_attribution")
        );
        let reparsed = Value::parse(&json.to_string()).unwrap();
        assert_eq!(
            reparsed.get("p99_trace").and_then(Value::as_str),
            Some("t98")
        );
        assert!(report.render().contains("critical path"));
    }
}
