//! Overflow semantics of the flight recorder under concurrency: tiny
//! rings filled from many threads keep the newest records per lane,
//! account for every drop exactly, and still export well-formed Chrome
//! trace JSON.

use cable_obs::json::Value;
use cable_obs::recorder;
use cable_obs::{chrome, registry, Span};
use std::sync::{mpsc, Mutex};
use std::thread;

/// Serialises the tests: observation and ring capacity are
/// process-global.
static RECORDER_LOCK: Mutex<()> = Mutex::new(());

const RING: usize = 4;

fn overflow_lanes(prefix: &str) -> Vec<recorder::LaneSnapshot> {
    let mut lanes: Vec<_> = recorder::snapshot()
        .into_iter()
        .filter(|l| l.label.starts_with(prefix))
        .collect();
    lanes.sort_by(|a, b| a.label.cmp(&b.label));
    lanes
}

#[test]
fn eight_threads_overflow_tiny_rings_with_exact_accounting() {
    let _guard = RECORDER_LOCK.lock().unwrap();
    recorder::set_capacity(RING);
    cable_obs::set_enabled(true);

    const THREADS: usize = 8;
    const EVENTS: u64 = 20;
    // One instant name per step, so the survivors name their steps.
    let marks: Vec<&'static str> = (0..EVENTS)
        .map(|j| &*Box::leak(format!("overflow.mark.{j}").into_boxed_str()))
        .collect();
    let dropped_before = registry()
        .snapshot()
        .counter("obs.recorder.dropped")
        .unwrap_or(0);

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let marks = marks.clone();
            // Lanes take their thread's name.
            thread::Builder::new()
                .name(format!("overflow-acct-{t}"))
                .spawn(move || {
                    for mark in marks {
                        recorder::instant(mark);
                    }
                })
                .unwrap()
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    cable_obs::set_enabled(false);

    let lanes = overflow_lanes("overflow-acct-");
    assert_eq!(lanes.len(), THREADS, "one lane per thread");
    for lane in &lanes {
        // Newest wins: exactly the last RING marks survive, in order.
        let names: Vec<&str> = lane.records.iter().map(|r| r.rec().name).collect();
        assert_eq!(
            names,
            marks[EVENTS as usize - RING..],
            "lane {}",
            lane.label
        );
        assert_eq!(
            lane.dropped,
            EVENTS - RING as u64,
            "lane {} drop accounting",
            lane.label
        );
        // Single-writer lanes stamp non-decreasing timestamps.
        assert!(
            lane.records
                .windows(2)
                .all(|w| w[0].rec().end_ns <= w[1].rec().end_ns),
            "lane {} timestamps ordered",
            lane.label
        );
    }
    // The global counter saw every per-lane drop (other tests in this
    // process may add more, never less).
    let dropped_after = registry()
        .snapshot()
        .counter("obs.recorder.dropped")
        .unwrap_or(0);
    let per_lane_total: u64 = lanes.iter().map(|l| l.dropped).sum();
    assert_eq!(per_lane_total, THREADS as u64 * (EVENTS - RING as u64));
    assert!(
        dropped_after - dropped_before >= per_lane_total,
        "global obs.recorder.dropped covers the per-lane drops: \
         {dropped_before} -> {dropped_after}, lanes lost {per_lane_total}"
    );
}

#[test]
fn chrome_export_of_partially_overwritten_ring_is_well_formed() {
    let _guard = RECORDER_LOCK.lock().unwrap();
    recorder::set_capacity(RING);
    cable_obs::set_enabled(true);

    let (opened_tx, opened_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let worker = thread::Builder::new()
        .name("overflow-chrome".to_owned())
        .spawn(move || {
            // Nested spans pushed past capacity: the oldest records
            // are overwritten, and every survivor is a whole span.
            for _ in 0..3 {
                let _outer = Span::open("outer");
                let _inner = Span::open("inner");
            }
            let _tail = Span::open("tail"); // left open at snapshot time
            opened_tx.send(()).unwrap();
            release_rx.recv().unwrap();
        })
        .unwrap();
    opened_rx.recv().unwrap();
    let lanes = overflow_lanes("overflow-chrome");
    release_tx.send(()).unwrap();
    worker.join().unwrap();
    cable_obs::set_enabled(false);

    assert_eq!(lanes.len(), 1);
    assert!(lanes[0].dropped > 0, "the ring did overflow");

    let trace = chrome::chrome_trace(&lanes);
    let text = trace.to_string();
    let parsed = Value::parse(&text).expect("export parses as JSON");
    let events = parsed
        .get("traceEvents")
        .and_then(Value::as_array)
        .expect("traceEvents array");

    // Complete X events only, in non-decreasing ts order, each nested
    // in the X event open around it; the open span is not among them.
    let mut spans = 0;
    let mut around: Vec<f64> = Vec::new();
    let mut last_ts = f64::MIN;
    for e in events {
        let ph = e.get("ph").and_then(Value::as_str).unwrap();
        if ph == "M" {
            continue;
        }
        assert_eq!(ph, "X", "only closed spans: {e}");
        assert_ne!(e.get("name").and_then(Value::as_str), Some("tail"));
        let ts = e.get("ts").and_then(Value::as_f64).unwrap();
        let dur = e.get("dur").and_then(Value::as_f64).unwrap();
        assert!(dur >= 0.0, "dur is non-negative");
        assert!(ts >= last_ts, "ts non-decreasing within the lane");
        last_ts = ts;
        while around.last().is_some_and(|&end| end <= ts) {
            around.pop();
        }
        if let Some(&end) = around.last() {
            assert!(ts + dur <= end, "an X event overlaps the one around it");
        }
        around.push(ts + dur);
        spans += 1;
    }
    assert_eq!(spans, RING, "every surviving record exports");
}
