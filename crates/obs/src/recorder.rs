//! The flight recorder: fixed-capacity, per-thread ring buffers of
//! timeline records.
//!
//! Counters and histograms (the rest of this crate) aggregate — they
//! answer *how much*. The recorder answers *when*: every closed span and
//! every instant (a park, a journal append) is stamped with
//! monotonic-clock times and appended to the recording thread's own
//! ring as one [`Record`]. A [`crate::Span`] appends its closed
//! [`SpanRec`] once, when it closes — the same value its histogram and
//! its request's span tree receive — so a lane never holds half a span.
//! Two consumers read the rings back through [`crate::chrome`], which
//! nests each lane's records by containment: the Chrome trace-event
//! export (`--trace-out`, and the HTTP server's `/tracez`) and the
//! self-time profile.
//!
//! # Memory model
//!
//! Each thread that records while observation is [`crate::enabled`]
//! gets one **lane**, labelled with the thread's name: a fixed-capacity
//! ring (see [`set_capacity`]) whose handle sits in the thread's frame
//! stack and which is registered in a process-wide table. Only the
//! owning thread writes its ring; snapshots from other threads take the
//! lane's mutex briefly. Records sit in the order they were taken: a
//! span when it closed, an instant when it happened, so **end times are
//! non-decreasing within a lane**. No ordering is implied *across* lanes
//! beyond the shared epoch.
//!
//! A full ring overwrites its oldest record (newest wins) and counts the
//! loss — per lane in [`LaneSnapshot::dropped`] and globally under the
//! `obs.recorder.dropped` counter. Drops are acceptable by design: the
//! recorder is a *flight recorder*, not an audit log — the interesting
//! window is the most recent one, and bounding memory beats completeness
//! for a long-running session process. Every surviving record is whole,
//! so a wrapped ring needs no repair.
//!
//! While observation is off, [`instant`] is one relaxed atomic load.

use crate::context::SpanRec;
use crate::metrics::Counter;
use crate::registry::registry;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Default per-lane ring capacity (records).
pub const DEFAULT_CAPACITY: usize = 8192;

static CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_CAPACITY);
static NEXT_LANE: AtomicU64 = AtomicU64::new(1);

/// Sets the ring capacity for lanes created *after* this call (existing
/// lanes keep their rings). Clamped to at least 2.
pub fn set_capacity(records: usize) {
    CAPACITY.store(records.max(2), Ordering::Relaxed);
}

/// The process-wide monotonic epoch every recorder timestamp counts from.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the recorder epoch, from the monotonic clock.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos().min(u64::MAX as u128) as u64
}

/// One lane entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Record {
    /// A span, appended when it closed.
    Span(SpanRec),
    /// A point in time (a park, a journal append): `start_ns == end_ns`,
    /// stamped with the ids of the request span open around it.
    Instant(SpanRec),
}

impl Record {
    /// The record's name, times and causal ids.
    pub fn rec(&self) -> &SpanRec {
        match self {
            Record::Span(rec) | Record::Instant(rec) => rec,
        }
    }
}

/// A lane's fixed-capacity ring.
#[derive(Debug)]
struct Ring {
    buf: Vec<Record>,
    capacity: usize,
    /// Index the next record is written at (wraps).
    next: usize,
    /// Total records ever pushed to this lane.
    total: u64,
}

impl Ring {
    fn new(capacity: usize) -> Ring {
        Ring {
            buf: Vec::with_capacity(capacity.min(1024)),
            capacity,
            next: 0,
            total: 0,
        }
    }

    fn push(&mut self, record: Record) -> bool {
        self.total += 1;
        if self.buf.len() < self.capacity {
            self.buf.push(record);
            self.next = self.buf.len() % self.capacity;
            false
        } else {
            // Full: overwrite the oldest (newest wins).
            self.buf[self.next] = record;
            self.next = (self.next + 1) % self.capacity;
            true
        }
    }

    fn dropped(&self) -> u64 {
        self.total.saturating_sub(self.buf.len() as u64)
    }

    /// The surviving records, oldest first.
    fn ordered(&self) -> Vec<Record> {
        if self.buf.len() < self.capacity {
            self.buf.clone()
        } else {
            let mut out = Vec::with_capacity(self.buf.len());
            out.extend_from_slice(&self.buf[self.next..]);
            out.extend_from_slice(&self.buf[..self.next]);
            out
        }
    }
}

/// One thread's registered lane.
#[derive(Debug)]
pub(crate) struct Lane {
    id: u64,
    label: String,
    ring: Mutex<Ring>,
}

/// The process-wide lane table.
fn lanes() -> &'static Mutex<Vec<Arc<Lane>>> {
    static LANES: OnceLock<Mutex<Vec<Arc<Lane>>>> = OnceLock::new();
    LANES.get_or_init(|| Mutex::new(Vec::new()))
}

fn dropped_counter() -> &'static Counter {
    static DROPPED: OnceLock<Arc<Counter>> = OnceLock::new();
    DROPPED.get_or_init(|| registry().counter("obs.recorder.dropped"))
}

/// Appends `record` to the calling thread's lane, registering the lane
/// (labelled with the thread's name) on first use. `lane` is the slot
/// in the thread's frame stack.
pub(crate) fn append(lane: &mut Option<Arc<Lane>>, record: Record) {
    let lane = lane.get_or_insert_with(|| {
        let id = NEXT_LANE.fetch_add(1, Ordering::Relaxed);
        let label = std::thread::current()
            .name()
            .map_or_else(|| format!("thread-{id}"), str::to_owned);
        let lane = Arc::new(Lane {
            id,
            label,
            ring: Mutex::new(Ring::new(CAPACITY.load(Ordering::Relaxed))),
        });
        lanes()
            .lock()
            .expect("recorder lanes poisoned")
            .push(Arc::clone(&lane));
        lane
    });
    let overwrote = lane
        .ring
        .lock()
        .expect("recorder lane poisoned")
        .push(record);
    if overwrote {
        dropped_counter().incr();
    }
}

/// Records an instant on the current thread's lane, stamped with the
/// innermost open request span's ids. A no-op (one relaxed load) while
/// observation is off.
#[inline]
pub fn instant(name: &'static str) {
    if !crate::enabled() {
        return;
    }
    let now = now_ns();
    let mut rec = SpanRec::plain(name, now, now);
    crate::span::with_stack(|s| {
        if let Some(trace) = &s.trace {
            trace.stamp(&mut rec);
        }
        append(&mut s.lane, Record::Instant(rec));
    });
}

/// A point-in-time copy of one lane.
#[derive(Debug, Clone)]
pub struct LaneSnapshot {
    /// Stable lane id (the Chrome-trace `tid`).
    pub id: u64,
    /// The recording thread's name (`cable-par-N` for pool workers), or
    /// `thread-<id>` for an unnamed thread.
    pub label: String,
    /// Surviving records, oldest first: in the order spans closed and
    /// instants happened.
    pub records: Vec<Record>,
    /// Records lost to ring overflow on this lane.
    pub dropped: u64,
}

/// Snapshots every lane, sorted by lane id. Taking a snapshot does not
/// disturb recording (each lane's mutex is held only for the copy).
pub fn snapshot() -> Vec<LaneSnapshot> {
    let table: Vec<Arc<Lane>> = lanes().lock().expect("recorder lanes poisoned").clone();
    let mut out: Vec<LaneSnapshot> = table
        .iter()
        .map(|lane| {
            let ring = lane.ring.lock().expect("recorder lane poisoned");
            LaneSnapshot {
                id: lane.id,
                label: lane.label.clone(),
                records: ring.ordered(),
                dropped: ring.dropped(),
            }
        })
        .collect();
    out.sort_by_key(|l| l.id);
    out
}

/// Empties every lane's ring (the lanes themselves stay registered, so
/// threads keep their ids and labels). Benchmarks and tests use this to
/// scope a capture window.
pub fn clear() {
    for lane in lanes().lock().expect("recorder lanes poisoned").iter() {
        let mut ring = lane.ring.lock().expect("recorder lane poisoned");
        let capacity = ring.capacity;
        *ring = Ring::new(capacity);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(ts: u64) -> Record {
        Record::Instant(SpanRec::plain("t", ts, ts))
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let mut ring = Ring::new(3);
        for ts in 0..5u64 {
            ring.push(at(ts));
        }
        assert_eq!(ring.dropped(), 2);
        let ts: Vec<u64> = ring.ordered().iter().map(|r| r.rec().end_ns).collect();
        assert_eq!(ts, vec![2, 3, 4], "newest wins, oldest first");
    }

    #[test]
    fn ring_below_capacity_keeps_everything() {
        let mut ring = Ring::new(8);
        for ts in 0..5u64 {
            ring.push(Record::Span(SpanRec::plain("t", ts, ts + 1)));
        }
        assert_eq!(ring.dropped(), 0);
        assert_eq!(ring.ordered().len(), 5);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let _flag = crate::TEST_FLAG_LOCK.lock().unwrap();
        crate::set_enabled(false);
        let before: u64 = snapshot().iter().map(|l| l.records.len() as u64).sum();
        instant("test.disabled");
        let after: u64 = snapshot().iter().map(|l| l.records.len() as u64).sum();
        assert_eq!(before, after);
    }

    #[test]
    fn timestamps_are_monotonic() {
        assert!(now_ns() <= now_ns());
    }
}
