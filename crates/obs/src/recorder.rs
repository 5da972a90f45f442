//! The flight recorder: fixed-capacity, per-thread ring buffers of
//! timeline events.
//!
//! Counters and histograms (the rest of this crate) aggregate — they
//! answer *how much*. The recorder answers *when*: every span begin and
//! end, every instant event (a steal, a park, a journal append), and
//! every counter mark is stamped with a monotonic-clock timestamp and
//! appended to the recording thread's own ring. Two consumers read the
//! rings back:
//!
//! * [`crate::chrome`] renders them as Chrome trace-event JSON (one lane
//!   per thread, loadable in Perfetto / `chrome://tracing`) and folds
//!   them into a self-time profile;
//! * the HTTP server (`cable-core`'s `server` module) serves the most
//!   recent spans per lane as `/tracez`.
//!
//! Span begin/end pairs come only from [`crate::Span`]; this module's
//! own entry points are the point events ([`instant`], [`counter_mark`]).
//!
//! # Memory model
//!
//! Each thread that records while observation is [`crate::enabled`]
//! gets one **lane**, labelled with the thread's name: a fixed-capacity
//! ring (see [`set_capacity`]) whose handle sits in the thread's frame
//! stack and which is registered in a process-wide table. Only the
//! owning thread writes its ring; snapshots from other threads take the
//! lane's mutex briefly, so the single-writer ordering guarantee holds:
//! **events within a lane are in non-decreasing timestamp order**,
//! because one thread stamps them from one monotonic clock. No ordering
//! is implied *across* lanes beyond the shared epoch.
//!
//! A full ring overwrites its oldest event (newest wins) and counts the
//! loss — per lane in [`LaneSnapshot::dropped`] and globally under the
//! `obs.recorder.dropped` counter. Drops are acceptable by design: the
//! recorder is a *flight recorder*, not an audit log — the interesting
//! window is the most recent one, and bounding memory beats completeness
//! for a long-running session process.
//!
//! While observation is off, [`instant`] and [`counter_mark`] are one
//! relaxed atomic load.

use crate::metrics::Counter;
use crate::registry::registry;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Default per-lane ring capacity (events).
pub const DEFAULT_CAPACITY: usize = 8192;

static CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_CAPACITY);
static NEXT_LANE: AtomicU64 = AtomicU64::new(1);

/// Sets the ring capacity for lanes created *after* this call (existing
/// lanes keep their rings). Clamped to at least 2.
pub fn set_capacity(events: usize) {
    CAPACITY.store(events.max(2), Ordering::Relaxed);
}

/// The process-wide monotonic epoch every event timestamp counts from.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the recorder epoch, from the monotonic clock.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos().min(u64::MAX as u128) as u64
}

/// What an [`Event`] marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened (matched by a later [`EventKind::End`] on the same
    /// lane).
    Begin,
    /// A span closed.
    End,
    /// A point in time (a steal, a park, a journal append).
    Instant,
    /// A counter observation carrying the counter's current value.
    Counter(u64),
}

/// One recorded timeline event.
///
/// The trace/span id fields are zero outside a request context; while a
/// [`crate::context`] is active on the recording thread they carry the
/// originating 128-bit trace id, the event's own span id, and its
/// parent span id (see [`crate::context`] for how ids are minted).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The span / marker name (static, so recording never allocates).
    pub name: &'static str,
    /// What the event marks.
    pub kind: EventKind,
    /// Nanoseconds since the recorder epoch.
    pub ts_ns: u64,
    /// High half of the originating trace id (0 outside a request).
    pub trace_hi: u64,
    /// Low half of the originating trace id (0 outside a request).
    pub trace_lo: u64,
    /// This event's span id (0 outside a request).
    pub span: u64,
    /// Parent span id (0 at the request root or outside a request).
    pub parent: u64,
}

impl Event {
    /// An event with zeroed causal ids (outside any request context).
    pub fn plain(name: &'static str, kind: EventKind, ts_ns: u64) -> Event {
        Event {
            name,
            kind,
            ts_ns,
            trace_hi: 0,
            trace_lo: 0,
            span: 0,
            parent: 0,
        }
    }
}

/// A lane's fixed-capacity ring.
#[derive(Debug)]
struct Ring {
    buf: Vec<Event>,
    capacity: usize,
    /// Index the next event is written at (wraps).
    next: usize,
    /// Total events ever pushed to this lane.
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

    fn push(&mut self, event: Event) -> bool {
        self.total += 1;
        if self.buf.len() < self.capacity {
            self.buf.push(event);
            self.next = self.buf.len() % self.capacity;
            false
        } else {
            // Full: overwrite the oldest (newest wins).
            self.buf[self.next] = event;
            self.next = (self.next + 1) % self.capacity;
            true
        }
    }

    fn dropped(&self) -> u64 {
        self.total.saturating_sub(self.buf.len() as u64)
    }

    /// The surviving events, oldest first.
    fn ordered(&self) -> Vec<Event> {
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

/// Appends `event` to the calling thread's lane, registering the lane
/// (labelled with the thread's name) on first use. `lane` is the slot
/// in the thread's frame stack.
pub(crate) fn append(lane: &mut Option<Arc<Lane>>, event: Event) {
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
        .push(event);
    if overwrote {
        dropped_counter().incr();
    }
}

/// Records a point event on the current thread's lane, stamped with the
/// innermost open span's causal ids. A no-op (one relaxed load) while
/// observation is off.
#[inline]
fn mark(name: &'static str, kind: EventKind) {
    if !crate::enabled() {
        return;
    }
    let mut event = Event::plain(name, kind, now_ns());
    crate::span::with_stack(|s| {
        if let Some(trace) = &s.trace {
            trace.stamp(&mut event);
        }
        append(&mut s.lane, event);
    });
}

/// Records an instant event.
#[inline]
pub fn instant(name: &'static str) {
    mark(name, EventKind::Instant);
}

/// Records a counter mark carrying `value`.
#[inline]
pub fn counter_mark(name: &'static str, value: u64) {
    mark(name, EventKind::Counter(value));
}

/// A point-in-time copy of one lane.
#[derive(Debug, Clone)]
pub struct LaneSnapshot {
    /// Stable lane id (the Chrome-trace `tid`).
    pub id: u64,
    /// The recording thread's name (`cable-par-N` for pool workers), or
    /// `thread-<id>` for an unnamed thread.
    pub label: String,
    /// Surviving events, oldest first, timestamps non-decreasing.
    pub events: Vec<Event>,
    /// Events lost to ring overflow on this lane.
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
                events: ring.ordered(),
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

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let mut ring = Ring::new(3);
        let ev = |ts| Event::plain("t", EventKind::Instant, ts);
        for ts in 0..5u64 {
            ring.push(ev(ts));
        }
        assert_eq!(ring.dropped(), 2);
        let ts: Vec<u64> = ring.ordered().iter().map(|e| e.ts_ns).collect();
        assert_eq!(ts, vec![2, 3, 4], "newest wins, oldest first");
    }

    #[test]
    fn ring_below_capacity_keeps_everything() {
        let mut ring = Ring::new(8);
        for ts in 0..5u64 {
            ring.push(Event::plain("t", EventKind::Begin, ts));
        }
        assert_eq!(ring.dropped(), 0);
        assert_eq!(ring.ordered().len(), 5);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let _flag = crate::TEST_FLAG_LOCK.lock().unwrap();
        crate::set_enabled(false);
        let before: u64 = snapshot().iter().map(|l| l.events.len() as u64).sum();
        instant("test.disabled");
        let after: u64 = snapshot().iter().map(|l| l.events.len() as u64).sum();
        assert_eq!(before, after);
    }

    #[test]
    fn timestamps_are_monotonic() {
        assert!(now_ns() <= now_ns());
    }
}
