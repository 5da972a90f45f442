//! Regression test: spans stay per-thread under concurrency.
//!
//! A span is `!Send` and closes on the frame stack it opened on, so
//! spans recorded concurrently from two threads can never garble one
//! another. This test pins the observable contract with two threads
//! recording overlapping spans: each thread's spans land as matched,
//! nested Begin/End pairs on that thread's own recorder lane, and
//! exactly once in their histograms.

use cable_obs as obs;
use obs::recorder::{self, EventKind, LaneSnapshot};
use std::sync::{Arc, Barrier};

static SPAN_A: obs::HistogramHandle = obs::HistogramHandle::new("test.concurrent.a_ns");
static SPAN_B: obs::HistogramHandle = obs::HistogramHandle::new("test.concurrent.b_ns");
static SPAN_W: obs::HistogramHandle = obs::HistogramHandle::new("test.concurrent.w_ns");

/// Serialises the tests: both toggle the process-wide enabled flag.
static FLAG_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn lane(label: &str) -> LaneSnapshot {
    let mut lanes: Vec<_> = recorder::snapshot()
        .into_iter()
        .filter(|l| l.label == label)
        .collect();
    assert_eq!(lanes.len(), 1, "one lane labelled {label}");
    lanes.remove(0)
}

/// Checks that a lane holds only `name` spans, as matched, properly
/// nested Begin/End pairs with non-decreasing timestamps, and returns
/// (spans closed, sum of Begin→End gaps).
fn matched_pairs(lane: &LaneSnapshot, name: &str) -> (u64, u64) {
    let mut open: Vec<u64> = Vec::new();
    let (mut closed, mut gap_ns) = (0u64, 0u64);
    let mut last_ts = 0u64;
    for event in &lane.events {
        assert_eq!(event.name, name, "lane {} saw a foreign span", lane.label);
        assert!(event.ts_ns >= last_ts, "lane {} ts ordered", lane.label);
        last_ts = event.ts_ns;
        match event.kind {
            EventKind::Begin => open.push(event.ts_ns),
            EventKind::End => {
                let begin = open.pop().expect("End without a matching Begin");
                closed += 1;
                gap_ns += event.ts_ns - begin;
            }
            other => panic!("unexpected event kind {other:?}"),
        }
    }
    assert!(open.is_empty(), "lane {} left spans open", lane.label);
    (closed, gap_ns)
}

#[test]
fn overlapping_spans_on_two_threads_keep_their_own_stacks() {
    let _lock = FLAG_LOCK.lock().unwrap();
    obs::set_enabled(true);
    let before_a = SPAN_A.get().snapshot();
    let before_b = SPAN_B.get().snapshot();
    // Both threads hold their outer span open across the same barrier
    // point, so the spans of thread A provably overlap the spans of
    // thread B in wall-clock time.
    let barrier = Arc::new(Barrier::new(2));
    let rounds = 100u64;
    let spawn = |label: &str,
                 name: &'static str,
                 histogram: &'static obs::HistogramHandle,
                 barrier: Arc<Barrier>| {
        std::thread::Builder::new()
            .name(label.to_owned())
            .spawn(move || {
                for _ in 0..rounds {
                    let _outer = obs::Span::enter(name, histogram);
                    barrier.wait(); // both threads are now inside their outer span
                    {
                        let _inner = obs::Span::enter(name, histogram);
                    }
                    barrier.wait(); // release the peer's round
                }
            })
            .expect("spawn")
    };
    let a = spawn(
        "concurrent-a",
        "test.concurrent.a",
        &SPAN_A,
        barrier.clone(),
    );
    let b = spawn("concurrent-b", "test.concurrent.b", &SPAN_B, barrier);
    a.join().expect("thread a");
    b.join().expect("thread b");
    obs::set_enabled(false);

    for (label, name, histogram, before) in [
        ("concurrent-a", "test.concurrent.a", &SPAN_A, before_a),
        ("concurrent-b", "test.concurrent.b", &SPAN_B, before_b),
    ] {
        let (closed, gap_ns) = matched_pairs(&lane(label), name);
        assert_eq!(closed, 2 * rounds, "{label}: every span closed on its lane");
        // Every span recorded exactly once into its own histogram, with
        // the duration its lane shows.
        let after = histogram.get().snapshot();
        assert_eq!(after.count - before.count, 2 * rounds, "{label}");
        assert_eq!(after.sum - before.sum, gap_ns, "{label}");
    }
}

#[test]
fn a_worker_thread_records_on_its_own_named_lane() {
    let _lock = FLAG_LOCK.lock().unwrap();
    obs::set_enabled(true);
    std::thread::Builder::new()
        .name("concurrent-worker".to_owned())
        .spawn(|| {
            let _span = obs::Span::enter("test.concurrent.w", &SPAN_W);
        })
        .expect("spawn")
        .join()
        .expect("worker");
    obs::set_enabled(false);
    let (closed, _) = matched_pairs(&lane("concurrent-worker"), "test.concurrent.w");
    assert_eq!(closed, 1);
    // No other lane — this thread's included — saw the worker's span.
    let elsewhere = recorder::snapshot()
        .iter()
        .filter(|l| l.label != "concurrent-worker")
        .flat_map(|l| &l.events)
        .filter(|e| e.name == "test.concurrent.w")
        .count();
    assert_eq!(elsewhere, 0);
}
