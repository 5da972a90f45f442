//! One span, one record: the closed-span record a [`Span`] builds on
//! drop is the only measurement its three consumers see.
//!
//! Inside a request, one span's histogram sum delta, its lane's
//! Begin→End gap and its `SpanRec` duration are the same nanosecond
//! value (truncated to microseconds for a `*.us` histogram). With the
//! switch off, none of the three moves. The tests flip the process-wide
//! flag, so they live in their own integration-test process and
//! serialise on a local mutex.

use cable_obs::context::{self, FinishedTrace, SpanRec, TraceCtx};
use cable_obs::recorder::{self, Event, EventKind};
use cable_obs::{HistogramHandle, HistogramSnapshot, Span};
use std::sync::Mutex;
use std::time::Duration;

static WORK_NS: HistogramHandle = HistogramHandle::new("test.record.work_ns");
static WAIT_US: HistogramHandle = HistogramHandle::new("wait.record.us");

static FLAG_LOCK: Mutex<()> = Mutex::new(());

/// What one span inside one request left behind, observed on a thread
/// named `thread` (so its recorder lane is identifiable).
struct Observed {
    before: HistogramSnapshot,
    after: HistogramSnapshot,
    lane: Vec<Event>,
    trace: FinishedTrace,
}

fn one_span_in_a_request(
    thread: &str,
    name: &'static str,
    histogram: &'static HistogramHandle,
) -> Observed {
    let before = histogram.get().snapshot();
    let trace = std::thread::Builder::new()
        .name(thread.to_owned())
        .spawn(move || {
            let request = context::begin_request(TraceCtx::mint(99, 1), "http.request", 0);
            {
                let _span = Span::enter(name, histogram);
                // Long enough that microsecond truncation is visible.
                std::thread::sleep(Duration::from_millis(2));
            }
            request.finish()
        })
        .expect("spawn")
        .join()
        .expect("request thread");
    let lane = recorder::snapshot()
        .into_iter()
        .filter(|l| l.label == thread)
        .flat_map(|l| l.events)
        .filter(|e| e.name == name)
        .collect();
    Observed {
        before,
        after: histogram.get().snapshot(),
        lane,
        trace,
    }
}

fn the_span(trace: &FinishedTrace, name: &str) -> SpanRec {
    let mut recs = trace.spans.iter().filter(|s| s.name == name);
    let rec = *recs.next().expect("the span is in the request's tree");
    assert!(recs.next().is_none(), "the span is in the tree once");
    rec
}

#[test]
fn histogram_lane_and_tree_share_one_measurement() {
    let _lock = FLAG_LOCK.lock().unwrap();
    cable_obs::set_enabled(true);
    let ns = one_span_in_a_request("record-ns", "test.record.work", &WORK_NS);
    let us = one_span_in_a_request("record-us", "wait.record", &WAIT_US);
    cable_obs::set_enabled(false);

    for (observed, name, ns_per_unit) in [(&ns, "test.record.work", 1), (&us, "wait.record", 1_000)]
    {
        let rec = the_span(&observed.trace, name);
        // The lane holds exactly the span's Begin and End, stamped with
        // the record's times and ids.
        let kinds: Vec<EventKind> = observed.lane.iter().map(|e| e.kind).collect();
        assert_eq!(kinds, vec![EventKind::Begin, EventKind::End]);
        let (begin, end) = (observed.lane[0], observed.lane[1]);
        assert_eq!((begin.ts_ns, end.ts_ns), (rec.start_ns, rec.end_ns));
        assert_eq!((begin.span, end.span), (rec.span, rec.span));
        assert_eq!(
            rec.parent, observed.trace.ctx.span_id,
            "parented to the root"
        );
        let gap = end.ts_ns - begin.ts_ns;
        assert!(gap >= 2_000_000, "the span covered the sleep: {gap} ns");
        assert_eq!(rec.duration_ns(), gap);
        // The histogram took that same duration once, in its unit.
        assert_eq!(observed.after.count - observed.before.count, 1);
        assert_eq!(observed.after.sum - observed.before.sum, gap / ns_per_unit);
    }
}

#[test]
fn with_the_switch_off_nothing_moves() {
    let _lock = FLAG_LOCK.lock().unwrap();
    cable_obs::set_enabled(false);
    for (thread, name, histogram) in [
        ("record-off-ns", "test.record.work", &WORK_NS),
        ("record-off-us", "wait.record", &WAIT_US),
    ] {
        let observed = one_span_in_a_request(thread, name, histogram);
        assert_eq!(observed.after, observed.before, "{name}: histogram moved");
        assert!(observed.lane.is_empty(), "{name}: lane moved");
        assert!(observed.trace.spans.is_empty(), "{name}: tree moved");
    }
}
