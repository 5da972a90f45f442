//! Continuous profiling and profile diffing.
//!
//! The flight recorder already yields a self-time profile
//! ([`crate::chrome::self_time`]); this module makes that profile a
//! *time series* and a *comparison tool*:
//!
//! * [`ContinuousProfiler`] — a background thread that periodically
//!   snapshots the recorder, folds it into a self-time profile, and
//!   appends one `profile_snapshot` JSONL record per tick into the
//!   store directory (`profiles/profile-<pid>.jsonl`). Low overhead by
//!   construction: each tick copies the lanes' rings briefly (the same
//!   cost `/tracez` pays) and the recorder keeps running;
//! * [`diff`] / `cable profile diff A B` — loads the latest profile
//!   from each of two JSONL files (a `profile_snapshot` record or the
//!   `profile` field of a `reproduce` run's `pipeline_snapshot`) and
//!   prints per-function self-time regressions, sorted by the absolute
//!   self-time delta (ties by name, so the report is stable) — the tool
//!   the ROADMAP's lattice hot-path attack will be driven by.

use crate::chrome;
use crate::json::Value;
use crate::recorder;
use crate::sink::{parse_jsonl, JsonlSink};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A profile row with an owned name (rows parsed back from JSON, where
/// `&'static str` is unavailable).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OwnedProfileRow {
    /// Span name.
    pub name: String,
    /// Completed occurrences.
    pub count: u64,
    /// Total begin→end time.
    pub inclusive_ns: u64,
    /// Self time (inclusive minus direct children).
    pub exclusive_ns: u64,
}

/// Builds a `profile_snapshot` record from the recorder's current state.
pub fn snapshot_record(seq: u64) -> Value {
    let lanes = recorder::snapshot();
    Value::object([
        ("record", Value::from("profile_snapshot")),
        ("seq", Value::from(seq)),
        ("uptime_ns", Value::from(recorder::now_ns())),
        ("profile", chrome::profile_json(&chrome::self_time(&lanes))),
    ])
}

/// Parses a JSON `profile` array (the shape [`crate::chrome::profile_json`]
/// emits) into owned rows. Malformed entries are skipped.
pub fn rows_from_json(profile: &Value) -> Vec<OwnedProfileRow> {
    profile
        .as_array()
        .unwrap_or(&[])
        .iter()
        .filter_map(|row| {
            Some(OwnedProfileRow {
                name: row.get("name")?.as_str()?.to_owned(),
                count: row.get("count")?.as_u64()?,
                inclusive_ns: row.get("inclusive_ns")?.as_u64()?,
                exclusive_ns: row.get("exclusive_ns")?.as_u64()?,
            })
        })
        .collect()
}

/// Loads the most recent profile from a JSONL file: the last record
/// carrying a `profile` array — a [`ContinuousProfiler`]
/// `profile_snapshot` or a `reproduce --json-out` `pipeline_snapshot`.
///
/// # Errors
///
/// I/O or parse failures, or a file with no profile-carrying record.
pub fn load_rows(path: &Path) -> Result<Vec<OwnedProfileRow>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let records =
        parse_jsonl(&text).map_err(|e| format!("cannot parse {}: {e}", path.display()))?;
    records
        .iter()
        .rev()
        .find_map(|r| r.get("profile"))
        .map(rows_from_json)
        .ok_or_else(|| format!("{} holds no record with a profile field", path.display()))
}

/// One function's before/after self-time comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiffRow {
    /// Span name.
    pub name: String,
    /// Self time in the baseline, in nanoseconds (0 if absent).
    pub before_ns: u64,
    /// Self time in the comparison, in nanoseconds (0 if absent).
    pub after_ns: u64,
    /// Occurrences in the baseline.
    pub before_count: u64,
    /// Occurrences in the comparison.
    pub after_count: u64,
}

impl DiffRow {
    /// `after − before` self time (positive = regression).
    pub fn delta_ns(&self) -> i128 {
        self.after_ns as i128 - self.before_ns as i128
    }
}

/// Joins two profiles by span name into comparison rows, sorted by
/// absolute self-time delta descending (ties by name — a stable order
/// for any input order).
pub fn diff(before: &[OwnedProfileRow], after: &[OwnedProfileRow]) -> Vec<DiffRow> {
    let mut names: Vec<&str> = before
        .iter()
        .chain(after)
        .map(|r| r.name.as_str())
        .collect();
    names.sort_unstable();
    names.dedup();
    let find = |rows: &[OwnedProfileRow], name: &str| -> (u64, u64) {
        rows.iter()
            .find(|r| r.name == name)
            .map_or((0, 0), |r| (r.exclusive_ns, r.count))
    };
    let mut out: Vec<DiffRow> = names
        .into_iter()
        .map(|name| {
            let (before_ns, before_count) = find(before, name);
            let (after_ns, after_count) = find(after, name);
            DiffRow {
                name: name.to_owned(),
                before_ns,
                after_ns,
                before_count,
                after_count,
            }
        })
        .collect();
    out.sort_by(|a, b| {
        b.delta_ns()
            .abs()
            .cmp(&a.delta_ns().abs())
            .then_with(|| a.name.cmp(&b.name))
    });
    out
}

/// Renders the diff as an aligned table: self-time before, after, the
/// signed delta, and the occurrence counts.
pub fn render_diff(rows: &[DiffRow]) -> String {
    use std::fmt::Write as _;
    if rows.is_empty() {
        return "profile diff: no spans in either profile\n".to_owned();
    }
    let width = rows.iter().map(|r| r.name.len()).max().unwrap_or(4).max(4);
    let mut out = format!(
        "{:width$}  {:>12}  {:>12}  {:>13}  {:>11}\n",
        "span", "self before", "self after", "delta", "count"
    );
    for r in rows {
        let delta = r.delta_ns();
        let _ = writeln!(
            out,
            "{:width$}  {:>12}  {:>12}  {:>+12.1}µs  {:>5}→{:<5}",
            r.name,
            chrome::fmt_ns(r.before_ns),
            chrome::fmt_ns(r.after_ns),
            delta as f64 / 1e3,
            r.before_count,
            r.after_count,
        );
    }
    out
}

/// The background continuous profiler: one `profile_snapshot` record
/// per tick, appended (and flushed) through a [`JsonlSink`]. Stops and
/// joins on drop, writing one final snapshot so short-lived processes
/// still leave a profile behind.
#[derive(Debug)]
pub struct ContinuousProfiler {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl ContinuousProfiler {
    /// Starts profiling into `path` (appending), one snapshot every
    /// `interval`.
    ///
    /// # Errors
    ///
    /// Fails if the sink file cannot be opened.
    pub fn spawn(path: &Path, interval: Duration) -> std::io::Result<ContinuousProfiler> {
        let sink = JsonlSink::append(path)?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("cable-obs-profiler".into())
            .spawn(move || {
                let mut seq = 0u64;
                // Poll the stop flag between short sleeps so drop never
                // waits a whole interval to join.
                let slice = Duration::from_millis(25).min(interval);
                let mut elapsed = Duration::ZERO;
                loop {
                    if thread_stop.load(Ordering::Acquire) {
                        break;
                    }
                    std::thread::sleep(slice);
                    elapsed += slice;
                    if elapsed < interval {
                        continue;
                    }
                    elapsed = Duration::ZERO;
                    seq += 1;
                    let _ = sink.write(&snapshot_record(seq));
                    let _ = sink.flush();
                }
                // A final snapshot on the way out: short-lived sessions
                // get at least one record.
                seq += 1;
                let _ = sink.write(&snapshot_record(seq));
                let _ = sink.flush();
            })?;
        Ok(ContinuousProfiler {
            stop,
            handle: Some(handle),
        })
    }
}

impl Drop for ContinuousProfiler {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(name: &str, exclusive_ns: u64, count: u64) -> OwnedProfileRow {
        OwnedProfileRow {
            name: name.to_owned(),
            count,
            inclusive_ns: exclusive_ns,
            exclusive_ns,
        }
    }

    #[test]
    fn diff_joins_by_name_and_sorts_by_absolute_delta() {
        let before = vec![row("a", 1000, 2), row("b", 5000, 1), row("gone", 100, 1)];
        let after = vec![row("a", 9000, 2), row("b", 4000, 1), row("new", 300, 1)];
        let rows = diff(&before, &after);
        let names: Vec<&str> = rows.iter().map(|r| r.name.as_str()).collect();
        // |+8000| > |−1000| > |+300| > |−100|.
        assert_eq!(names, vec!["a", "b", "new", "gone"]);
        assert_eq!(rows[0].delta_ns(), 8000);
        assert_eq!(rows[1].delta_ns(), -1000);
        // Absent spans read as zero on their missing side.
        assert_eq!(rows[2].before_ns, 0);
        assert_eq!(rows[3].after_ns, 0);
        // The order is stable under input permutation.
        let mut before_shuffled = before.clone();
        before_shuffled.reverse();
        let mut after_shuffled = after.clone();
        after_shuffled.reverse();
        assert_eq!(rows, diff(&before_shuffled, &after_shuffled));
    }

    #[test]
    fn diff_ties_break_by_name() {
        let before = vec![row("zeta", 100, 1), row("alpha", 100, 1)];
        let after = vec![row("zeta", 200, 1), row("alpha", 200, 1)];
        let rows = diff(&before, &after);
        assert_eq!(rows[0].name, "alpha");
        assert_eq!(rows[1].name, "zeta");
    }

    #[test]
    fn render_diff_is_nonempty_and_signed() {
        let rows = diff(&[row("x", 1000, 1)], &[row("x", 3000, 1)]);
        let text = render_diff(&rows);
        assert!(text.contains('x'), "{text}");
        assert!(text.contains('+'), "positive delta is signed: {text}");
        assert!(render_diff(&[]).contains("no spans"));
    }

    #[test]
    fn rows_round_trip_through_profile_json() {
        let json = Value::Array(vec![Value::object([
            ("name", Value::from("fca.godin")),
            ("count", Value::from(3u64)),
            ("inclusive_ns", Value::from(900u64)),
            ("exclusive_ns", Value::from(600u64)),
        ])]);
        let rows = rows_from_json(&json);
        assert_eq!(
            rows,
            vec![OwnedProfileRow {
                name: "fca.godin".to_owned(),
                count: 3,
                inclusive_ns: 900,
                exclusive_ns: 600,
            }]
        );
        // Malformed entries are skipped, not fatal.
        let mixed = Value::Array(vec![Value::from("junk")]);
        assert!(rows_from_json(&mixed).is_empty());
    }

    #[test]
    fn load_rows_finds_the_last_profile_record() {
        let path = std::env::temp_dir().join(format!(
            "cable-obs-profdiff-load-{}.jsonl",
            std::process::id()
        ));
        let sink = JsonlSink::create(&path).unwrap();
        sink.write(&Value::object([("record", Value::from("other"))]))
            .unwrap();
        sink.write(&Value::object([
            ("record", Value::from("profile_snapshot")),
            ("seq", Value::from(1u64)),
            (
                "profile",
                Value::Array(vec![Value::object([
                    ("name", Value::from("old")),
                    ("count", Value::from(1u64)),
                    ("inclusive_ns", Value::from(10u64)),
                    ("exclusive_ns", Value::from(10u64)),
                ])]),
            ),
        ]))
        .unwrap();
        sink.write(&Value::object([
            ("record", Value::from("profile_snapshot")),
            ("seq", Value::from(2u64)),
            (
                "profile",
                Value::Array(vec![Value::object([
                    ("name", Value::from("new")),
                    ("count", Value::from(1u64)),
                    ("inclusive_ns", Value::from(20u64)),
                    ("exclusive_ns", Value::from(20u64)),
                ])]),
            ),
        ]))
        .unwrap();
        drop(sink);
        let rows = load_rows(&path).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].name, "new", "latest record wins");
        let _ = std::fs::remove_file(&path);
        assert!(load_rows(Path::new("/nonexistent/p.jsonl")).is_err());
    }

    #[test]
    fn continuous_profiler_writes_parseable_snapshots() {
        let path = std::env::temp_dir().join(format!(
            "cable-obs-profdiff-cont-{}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        {
            let _profiler = ContinuousProfiler::spawn(&path, Duration::from_millis(10)).unwrap();
            std::thread::sleep(Duration::from_millis(60));
        } // drop stops, joins, and writes the final snapshot
        let text = std::fs::read_to_string(&path).unwrap();
        let records = parse_jsonl(&text).unwrap();
        assert!(!records.is_empty());
        for r in &records {
            assert_eq!(
                r.get("record").and_then(Value::as_str),
                Some("profile_snapshot")
            );
            assert!(r.get("profile").and_then(Value::as_array).is_some());
        }
        let _ = std::fs::remove_file(&path);
    }
}
