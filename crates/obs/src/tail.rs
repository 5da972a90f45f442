//! Tail-based retention of finished request traces.
//!
//! Keeping every span of every request would turn the recorder into an
//! audit log; keeping none would make p99 investigations impossible.
//! Tail sampling decides *after* the request finishes, when the
//! interesting facts — wall time, status — are known:
//!
//! * every request leaves a bounded **summary** (ring of
//!   [`SUMMARY_CAP`]): trace id, route, status, wall time, span count;
//! * the **complete span tree** is kept only for requests that are slow
//!   (wall time ≥ the configurable [`slow_threshold_us`]), failed
//!   (status ≥ 500), or landed on the 1-in-N sample
//!   ([`set_sample_every`]) — in a ring of [`TREE_CAP`] trees.
//!
//! `/tracez?slowest=N` indexes the summaries; `/tracez?trace=ID`
//! renders a kept tree as a waterfall; `/tracez/export` dumps the whole
//! store as a `trace_export` JSON record for `reproduce trace-report`.

use crate::context::{FinishedTrace, SpanRec};
use crate::json::Value;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Per-request summaries retained (newest wins).
pub const SUMMARY_CAP: usize = 512;
/// Complete span trees retained (newest wins).
pub const TREE_CAP: usize = 128;
/// Default slow-request threshold, microseconds.
pub const DEFAULT_SLOW_US: u64 = 10_000;
/// Default sampling period for fast, successful requests.
pub const DEFAULT_SAMPLE_EVERY: u64 = 16;

static SLOW_US: AtomicU64 = AtomicU64::new(DEFAULT_SLOW_US);
static SAMPLE_EVERY: AtomicU64 = AtomicU64::new(DEFAULT_SAMPLE_EVERY);

/// Sets the wall-time threshold above which a request's complete span
/// tree is always kept (`--trace-slow-us` / `CABLE_TRACE_SLOW_US`).
pub fn set_slow_threshold_us(us: u64) {
    SLOW_US.store(us, Ordering::Relaxed);
}

/// The current slow-request threshold, microseconds.
pub fn slow_threshold_us() -> u64 {
    SLOW_US.load(Ordering::Relaxed)
}

/// Keeps the full tree of every `n`-th fast, successful request
/// (`0` disables sampling; slow/error trees are always kept).
pub fn set_sample_every(n: u64) {
    SAMPLE_EVERY.store(n, Ordering::Relaxed);
}

/// One retained request summary.
#[derive(Debug, Clone)]
pub struct TraceSummary {
    /// 32-hex-digit trace id.
    pub trace: String,
    /// Root span id.
    pub root: u64,
    /// Normalised route (`/api/label`, `/metrics`, ...).
    pub route: String,
    /// HTTP status the request finished with.
    pub status: u16,
    /// Root-span wall time (includes accept-queue wait), microseconds.
    pub wall_us: u64,
    /// Spans collected for the request.
    pub spans: usize,
    /// Spans lost to the per-request cap.
    pub dropped: u64,
    /// Why the full tree was kept: `slow`, `error`, `sampled`, or the
    /// empty string when only this summary survives.
    pub kept: &'static str,
}

#[derive(Debug)]
struct StoredTree {
    summary: TraceSummary,
    spans: Vec<SpanRec>,
}

#[derive(Debug, Default)]
struct TailStore {
    summaries: VecDeque<TraceSummary>,
    trees: VecDeque<StoredTree>,
    /// Requests ever offered (drives the 1-in-N sample).
    seen: u64,
}

fn store() -> &'static Mutex<TailStore> {
    static STORE: OnceLock<Mutex<TailStore>> = OnceLock::new();
    STORE.get_or_init(|| Mutex::new(TailStore::default()))
}

/// Serialises in-crate tests that reset or seed the process-wide tail
/// store (the store is global; concurrent test clears would race).
#[cfg(test)]
pub(crate) static TEST_STORE_LOCK: Mutex<()> = Mutex::new(());

/// Offers a finished request to the tail store. Returns the retention
/// decision (`slow`/`error`/`sampled`, or `""` for summary-only).
pub fn record(route: &str, status: u16, finished: &FinishedTrace) -> &'static str {
    let wall_us = finished.wall_us();
    let mut tail = store().lock().expect("tail store poisoned");
    tail.seen += 1;
    let sample = SAMPLE_EVERY.load(Ordering::Relaxed);
    let kept = if status >= 500 {
        "error"
    } else if wall_us >= SLOW_US.load(Ordering::Relaxed) {
        "slow"
    } else if sample > 0 && tail.seen.is_multiple_of(sample) {
        "sampled"
    } else {
        ""
    };
    let summary = TraceSummary {
        trace: finished.ctx.trace_hex(),
        root: finished.ctx.span_id,
        route: route.to_owned(),
        status,
        wall_us,
        spans: finished.spans.len(),
        dropped: finished.dropped,
        kept,
    };
    if !kept.is_empty() && !finished.spans.is_empty() {
        if tail.trees.len() >= TREE_CAP {
            tail.trees.pop_front();
        }
        tail.trees.push_back(StoredTree {
            summary: summary.clone(),
            spans: finished.spans.clone(),
        });
    }
    if tail.summaries.len() >= SUMMARY_CAP {
        tail.summaries.pop_front();
    }
    tail.summaries.push_back(summary);
    kept
}

/// The `n` slowest retained summaries, slowest first (ties broken by
/// trace id so the index is stable).
pub fn slowest(n: usize) -> Vec<TraceSummary> {
    let tail = store().lock().expect("tail store poisoned");
    let mut out: Vec<TraceSummary> = tail.summaries.iter().cloned().collect();
    out.sort_by(|a, b| {
        b.wall_us
            .cmp(&a.wall_us)
            .then_with(|| a.trace.cmp(&b.trace))
    });
    out.truncate(n);
    out
}

/// Looks up a kept span tree by its 32-hex-digit trace id.
pub fn tree(trace_hex: &str) -> Option<(TraceSummary, Vec<SpanRec>)> {
    let tail = store().lock().expect("tail store poisoned");
    tail.trees
        .iter()
        .rev()
        .find(|t| t.summary.trace == trace_hex)
        .map(|t| (t.summary.clone(), t.spans.clone()))
}

/// Empties the store (tests and capture-window scoping).
pub fn clear() {
    let mut tail = store().lock().expect("tail store poisoned");
    *tail = TailStore::default();
}

fn hex16(v: u64) -> String {
    format!("{v:016x}")
}

fn summary_json(s: &TraceSummary) -> Value {
    Value::object([
        ("trace", Value::from(s.trace.as_str())),
        ("root", Value::from(hex16(s.root))),
        ("route", Value::from(s.route.as_str())),
        ("status", Value::from(s.status as u64)),
        ("wall_us", Value::from(s.wall_us)),
        ("spans", Value::from(s.spans as u64)),
        ("dropped", Value::from(s.dropped)),
        ("kept", Value::from(s.kept)),
    ])
}

fn span_json(s: &SpanRec) -> Value {
    Value::object([
        ("name", Value::from(s.name)),
        ("span", Value::from(hex16(s.span))),
        ("parent", Value::from(hex16(s.parent))),
        ("start_ns", Value::from(s.start_ns)),
        ("end_ns", Value::from(s.end_ns)),
    ])
}

/// The `/tracez?slowest=N` body: the N slowest retained summaries.
pub fn slowest_json(n: usize) -> Value {
    Value::object([
        ("record", Value::from("trace_slowest")),
        ("slow_threshold_us", Value::from(slow_threshold_us())),
        (
            "slowest",
            Value::Array(slowest(n).iter().map(summary_json).collect()),
        ),
    ])
}

/// The whole store as a `trace_export` JSON record: every summary plus
/// every kept span tree. `reproduce trace-report` and `check-trace`
/// consume this.
pub fn export() -> Value {
    let tail = store().lock().expect("tail store poisoned");
    let summaries: Vec<Value> = tail.summaries.iter().map(summary_json).collect();
    let traces: Vec<Value> = tail
        .trees
        .iter()
        .map(|t| {
            let s = &t.summary;
            Value::object([
                ("trace", Value::from(s.trace.as_str())),
                ("root", Value::from(hex16(s.root))),
                ("route", Value::from(s.route.as_str())),
                ("status", Value::from(s.status as u64)),
                ("wall_us", Value::from(s.wall_us)),
                ("dropped", Value::from(s.dropped)),
                ("kept", Value::from(s.kept)),
                (
                    "spans_tree",
                    Value::Array(t.spans.iter().map(span_json).collect()),
                ),
            ])
        })
        .collect();
    Value::object([
        ("record", Value::from("trace_export")),
        ("slow_threshold_us", Value::from(slow_threshold_us())),
        (
            "sample_every",
            Value::from(SAMPLE_EVERY.load(Ordering::Relaxed)),
        ),
        ("seen", Value::from(tail.seen)),
        ("summaries", Value::Array(summaries)),
        ("traces", Value::Array(traces)),
    ])
}

/// Renders a kept tree as a plain-text waterfall: one line per span,
/// indented by tree depth, with offset/duration and a proportional bar.
pub fn render_waterfall(summary: &TraceSummary, spans: &[SpanRec]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "trace {}  route {}  status {}  wall {}us  spans {}{}",
        summary.trace,
        summary.route,
        summary.status,
        summary.wall_us,
        summary.spans,
        if summary.dropped > 0 {
            format!("  dropped {}", summary.dropped)
        } else {
            String::new()
        },
    );
    let t0 = spans.iter().map(|s| s.start_ns).min().unwrap_or(0);
    let t1 = spans.iter().map(|s| s.end_ns).max().unwrap_or(t0);
    let total = (t1 - t0).max(1);
    // Children under their parent, siblings by start time.
    fn visit<'a>(
        parent: u64,
        depth: usize,
        spans: &'a [SpanRec],
        out: &mut Vec<(&'a SpanRec, usize)>,
    ) {
        let mut kids: Vec<&SpanRec> = spans.iter().filter(|s| s.parent == parent).collect();
        kids.sort_by_key(|s| (s.start_ns, s.span));
        for kid in kids {
            out.push((kid, depth));
            if depth < 64 {
                visit(kid.span, depth + 1, spans, out);
            }
        }
    }
    let mut rows: Vec<(&SpanRec, usize)> = Vec::with_capacity(spans.len());
    visit(0, 0, spans, &mut rows);
    // Orphans (parent not kept, e.g. collector overflow) still print.
    for s in spans {
        if !rows.iter().any(|(r, _)| r.span == s.span) {
            rows.push((s, 0));
        }
    }
    const BAR: usize = 40;
    for (span, depth) in rows {
        let offset = span.start_ns - t0;
        let dur = span.duration_ns();
        let lead = ((offset as u128 * BAR as u128) / total as u128) as usize;
        let fill = ((dur as u128 * BAR as u128).div_ceil(total as u128)) as usize;
        let fill = fill.clamp(1, BAR.saturating_sub(lead).max(1));
        let _ = writeln!(
            out,
            "  [{}{}{}] {:>9.1}us @{:>9.1}us  {}{} ({:016x})",
            " ".repeat(lead.min(BAR)),
            "█".repeat(fill),
            " ".repeat(BAR.saturating_sub(lead.min(BAR) + fill)),
            dur as f64 / 1e3,
            offset as f64 / 1e3,
            "· ".repeat(depth),
            span.name,
            span.span,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::TraceCtx;

    use super::TEST_STORE_LOCK as STORE_LOCK;

    fn finished(seq: u64, wall_us: u64, n_spans: usize) -> FinishedTrace {
        let ctx = TraceCtx::mint(99, seq);
        let mut spans = vec![SpanRec {
            name: "http.request",
            span: ctx.span_id,
            parent: 0,
            start_ns: 1_000,
            end_ns: 1_000 + wall_us * 1_000,
        }];
        for i in 0..n_spans.saturating_sub(1) as u64 {
            spans.push(SpanRec {
                name: "step",
                span: crate::context::mix(ctx.span_id, i + 1),
                parent: ctx.span_id,
                start_ns: 1_100 + i,
                end_ns: 1_200 + i,
            });
        }
        FinishedTrace {
            ctx,
            spans,
            dropped: 0,
        }
    }

    #[test]
    fn retention_keeps_slow_error_and_sampled_trees() {
        let _guard = STORE_LOCK.lock().unwrap();
        clear();
        set_slow_threshold_us(5_000);
        set_sample_every(0);
        assert_eq!(record("/api/label", 200, &finished(1, 100, 3)), "");
        assert_eq!(record("/api/label", 200, &finished(2, 9_000, 3)), "slow");
        assert_eq!(record("/api/label", 500, &finished(3, 100, 3)), "error");
        set_sample_every(1);
        assert_eq!(record("/api/label", 200, &finished(4, 100, 3)), "sampled");
        set_sample_every(DEFAULT_SAMPLE_EVERY);
        set_slow_threshold_us(DEFAULT_SLOW_US);

        let idx = slowest(10);
        assert_eq!(idx.len(), 4);
        assert_eq!(idx[0].wall_us, 9_000, "slowest first");
        // Fast unsampled request: summary only, no tree.
        let fast = finished(1, 100, 3).ctx.trace_hex();
        assert!(tree(&fast).is_none());
        let slow = finished(2, 9_000, 3).ctx.trace_hex();
        let (summary, spans) = tree(&slow).expect("slow tree kept");
        assert_eq!(summary.kept, "slow");
        assert_eq!(spans.len(), 3);
        let text = render_waterfall(&summary, &spans);
        assert!(text.contains("http.request"), "{text}");
        assert!(text.contains("step"), "{text}");
        clear();
    }

    #[test]
    fn export_round_trips_and_is_bounded() {
        let _guard = STORE_LOCK.lock().unwrap();
        clear();
        set_slow_threshold_us(0); // keep everything
        for seq in 0..(SUMMARY_CAP + 10) as u64 {
            record("/api/ingest", 200, &finished(seq, 50, 2));
        }
        set_slow_threshold_us(DEFAULT_SLOW_US);
        let value = export();
        assert_eq!(
            value.get("record").and_then(Value::as_str),
            Some("trace_export")
        );
        let summaries = value.get("summaries").and_then(Value::as_array).unwrap();
        assert_eq!(summaries.len(), SUMMARY_CAP, "summary ring is bounded");
        let trees = value.get("traces").and_then(Value::as_array).unwrap();
        assert_eq!(trees.len(), TREE_CAP, "tree ring is bounded");
        let spans = trees[0]
            .get("spans_tree")
            .and_then(Value::as_array)
            .unwrap();
        assert_eq!(spans.len(), 2);
        assert!(spans[0].get("span").and_then(Value::as_str).is_some());
        // Round-trips through the hand-rolled JSON.
        let text = value.to_string();
        assert_eq!(Value::parse(&text).unwrap(), value);
        clear();
    }
}
