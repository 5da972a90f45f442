//! Request-scoped trace context: causal ids for recorder events.
//!
//! The flight recorder ([`crate::recorder`]) stamps *when* things
//! happened, one lane per thread. This module stamps *why*: every event
//! recorded while a request is active carries the originating 128-bit
//! trace id, its own span id, and its parent span id — so a request's
//! spans can be reassembled into one causal tree even when the work
//! crossed `cable-par` workers via work stealing.
//!
//! # Model
//!
//! * A [`TraceCtx`] is minted per HTTP request (`cable_core::server`),
//!   seeded from the drill seed and a request sequence number so ids
//!   are reproducible run to run.
//! * [`begin_request`] installs the context on the handling thread's
//!   frame stack (the one thread-local behind [`crate::Span`]) and
//!   opens the **root span**; every span on that thread then opens a
//!   frame here, minting a deterministic child span id, and at close
//!   appends its [`SpanRec`] to the request's collector.
//! * Crossing threads is explicit: [`capture`] snapshots the current
//!   context into a cloneable [`TraceHandle`]; the receiving worker
//!   calls [`TraceHandle::adopt`] with a deterministic task tag (e.g.
//!   the chunk index), which swaps the worker's *entire* frame stack in
//!   and restores it on drop — a stolen task can never leak spans into
//!   whatever request the worker was touching before.
//!
//! # Deterministic span ids
//!
//! Child ids are minted structurally, not from a clock or a global
//! counter: `child = mix(parent_span_id, k)` where `k` is the parent's
//! per-frame child sequence number for in-thread children, or the
//! caller-supplied adopt tag for cross-thread tasks (chunk index, spawn
//! index). Chunk boundaries depend only on input length, so the same
//! request produces the same span ids under `CABLE_PAR=1` and
//! `CABLE_PAR=8` — which is what lets the determinism gate cover
//! attribution.

use crate::recorder::Event;
use crate::span::{with_stack, Span};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Spans kept per request before the collector starts counting drops.
pub const MAX_SPANS_PER_TRACE: usize = 4096;

/// Tag space for `par_map` chunk tasks (`CHUNK_TAG | chunk_index`).
pub const CHUNK_TAG: u64 = 0x8000_0000_0000_0000;
/// Tag space for `scope().spawn` tasks (`SPAWN_TAG | spawn_index`).
pub const SPAWN_TAG: u64 = 0x4000_0000_0000_0000;
/// Tag for the synthetic accept-queue wait span under the request root.
pub const QUEUE_TAG: u64 = 0x2000_0000_0000_0001;

/// SplitMix64 finaliser over `a ⊕ rotated b`: the deterministic child
/// span id mint. Mirrors `cable_util::rng::derive_seed` (this crate is
/// dependency-free, so the mixing is restated here).
#[inline]
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.rotate_left(17) ^ 0x9e37_79b9_7f4a_7c15;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A causal context: 128-bit trace id plus the current span id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCtx {
    /// High half of the 128-bit trace id.
    pub trace_hi: u64,
    /// Low half of the 128-bit trace id.
    pub trace_lo: u64,
    /// The span this context denotes (the request root at mint time).
    pub span_id: u64,
}

impl TraceCtx {
    /// Mints the context for request number `seq` under `seed`. Pure:
    /// the same (seed, seq) pair always yields the same ids, so drill
    /// traces are addressable run to run.
    pub fn mint(seed: u64, seq: u64) -> TraceCtx {
        let hi = mix(seed, seq);
        let lo = mix(hi, !seq);
        TraceCtx {
            trace_hi: hi,
            trace_lo: lo,
            span_id: mix(lo, seq),
        }
    }

    /// The 128-bit trace id as 32 lowercase hex digits.
    pub fn trace_hex(&self) -> String {
        format!("{:016x}{:016x}", self.trace_hi, self.trace_lo)
    }
}

/// Parses a 32-hex-digit trace id back into its halves.
pub fn parse_trace_hex(s: &str) -> Option<(u64, u64)> {
    if s.len() != 32 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    let hi = u64::from_str_radix(&s[..16], 16).ok()?;
    let lo = u64::from_str_radix(&s[16..], 16).ok()?;
    Some((hi, lo))
}

/// One closed span, as collected into a request's span tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRec {
    /// Span name (the recorder event name).
    pub name: &'static str,
    /// This span's id.
    pub span: u64,
    /// Parent span id (`0` only for the request root).
    pub parent: u64,
    /// Start, nanoseconds since the recorder epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder epoch.
    pub end_ns: u64,
}

impl SpanRec {
    /// Begin→end time, nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The per-request span sink, shared across every thread that worked on
/// the request.
#[derive(Debug)]
struct Collector {
    spans: Mutex<Vec<SpanRec>>,
    dropped: AtomicU64,
}

impl Collector {
    fn new() -> Arc<Collector> {
        Arc::new(Collector {
            spans: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
        })
    }

    fn push(&self, rec: SpanRec) {
        let mut spans = self.spans.lock().expect("trace collector poisoned");
        if spans.len() < MAX_SPANS_PER_TRACE {
            spans.push(rec);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// One open span on the active context's frame stack.
#[derive(Debug)]
struct Frame {
    span: u64,
    parent: u64,
    /// Children minted so far under this frame.
    child_seq: u64,
}

/// A request context on one thread's frame stack: the trace ids, the
/// request's open frames, and its collector. Adopting swaps the whole
/// value.
#[derive(Debug)]
pub(crate) struct TraceState {
    trace_hi: u64,
    trace_lo: u64,
    /// Parent id for top-level spans (0 at the request root).
    base_parent: u64,
    /// Id of the first top-level span; later ones derive from it.
    base_key: u64,
    /// Top-level spans opened so far.
    base_seq: u64,
    frames: Vec<Frame>,
    collector: Arc<Collector>,
}

impl TraceState {
    fn new(
        trace_hi: u64,
        trace_lo: u64,
        base_parent: u64,
        base_key: u64,
        collector: Arc<Collector>,
    ) -> TraceState {
        TraceState {
            trace_hi,
            trace_lo,
            base_parent,
            base_key,
            base_seq: 0,
            frames: Vec::new(),
            collector,
        }
    }

    /// Opens a frame for the span whose `Begin` is `begin`: mints its
    /// child span id under the innermost open frame (or the context's
    /// base) and stamps the event with its ids.
    pub(crate) fn open(&mut self, begin: &mut Event) {
        let (span, parent) = match self.frames.last_mut() {
            Some(top) => {
                top.child_seq += 1;
                (mix(top.span, top.child_seq), top.span)
            }
            None => {
                let span = if self.base_seq == 0 {
                    self.base_key
                } else {
                    mix(self.base_key, self.base_seq)
                };
                self.base_seq += 1;
                (span, self.base_parent)
            }
        };
        self.frames.push(Frame {
            span,
            parent,
            child_seq: 0,
        });
        self.stamp_as(begin, span, parent);
    }

    /// Closes the innermost frame if `rec` is its span, collecting the
    /// record into the request's tree. A span opened under another
    /// context (or none) leaves this stack alone.
    pub(crate) fn close(&mut self, rec: SpanRec) {
        if rec.span != 0 && self.frames.last().map(|f| f.span) == Some(rec.span) {
            self.frames.pop();
            self.collector.push(rec);
        }
    }

    /// Stamps a point event with the innermost open span's ids.
    pub(crate) fn stamp(&self, event: &mut Event) {
        let (span, parent) = match self.frames.last() {
            Some(top) => (top.span, top.parent),
            None => (0, self.base_parent),
        };
        self.stamp_as(event, span, parent);
    }

    fn stamp_as(&self, event: &mut Event, span: u64, parent: u64) {
        event.trace_hi = self.trace_hi;
        event.trace_lo = self.trace_lo;
        event.span = span;
        event.parent = parent;
    }
}

/// The trace id active on this thread, if a request context is
/// installed (wide events use this to tag their records).
pub fn active() -> Option<TraceCtx> {
    with_stack(|s| {
        s.trace.as_ref().map(|state| TraceCtx {
            trace_hi: state.trace_hi,
            trace_lo: state.trace_lo,
            span_id: state.frames.last().map_or(0, |f| f.span),
        })
    })
}

/// Everything collected for one finished request.
#[derive(Debug, Clone)]
pub struct FinishedTrace {
    /// The request's minted context (root span id included).
    pub ctx: TraceCtx,
    /// Every closed span, in close order, root last.
    pub spans: Vec<SpanRec>,
    /// Spans lost to the per-request cap.
    pub dropped: u64,
}

impl FinishedTrace {
    /// Wall time of the request root span (including the synthetic
    /// accept-queue wait), microseconds. Zero when nothing was
    /// collected.
    pub fn wall_us(&self) -> u64 {
        self.spans
            .iter()
            .find(|s| s.span == self.ctx.span_id)
            .map_or(0, |s| s.duration_ns() / 1_000)
    }
}

/// Installs `ctx` on this thread and opens the request root span; the
/// returned guard's [`RequestGuard::finish`] closes the root and yields
/// the collected tree. `queue_wait_ns` (time the connection sat in the
/// bounded accept queue) widens the root span backwards and lands as a
/// synthetic `wait.queue` child, so queueing is part of request wall
/// time without the recorder having to pair events across lanes.
///
/// While observation is off this is a no-op guard.
pub fn begin_request(ctx: TraceCtx, name: &'static str, queue_wait_ns: u64) -> RequestGuard {
    let root = crate::enabled().then(|| {
        with_stack(|s| {
            s.trace = Some(TraceState::new(
                ctx.trace_hi,
                ctx.trace_lo,
                0,
                ctx.span_id,
                Collector::new(),
            ));
        });
        Span::open(name)
    });
    RequestGuard {
        ctx,
        queue_wait_ns,
        root,
    }
}

/// Closes the request root span on drop; [`RequestGuard::finish`]
/// additionally returns the collected span tree. `!Send` (it holds the
/// root [`Span`]): the guard owns this thread's context slot.
pub struct RequestGuard {
    ctx: TraceCtx,
    queue_wait_ns: u64,
    root: Option<Span>,
}

impl RequestGuard {
    /// Closes the root span, uninstalls the context, and returns the
    /// request's span tree (empty when observation was off).
    pub fn finish(mut self) -> FinishedTrace {
        self.close()
    }

    fn close(&mut self) -> FinishedTrace {
        let Some(root) = self.root.take() else {
            return FinishedTrace {
                ctx: self.ctx,
                spans: Vec::new(),
                dropped: 0,
            };
        };
        drop(root);
        let state = with_stack(|s| s.trace.take());
        let Some(state) = state else {
            return FinishedTrace {
                ctx: self.ctx,
                spans: Vec::new(),
                dropped: 0,
            };
        };
        let mut spans = state
            .collector
            .spans
            .lock()
            .map(|s| s.clone())
            .unwrap_or_default();
        let dropped = state.collector.dropped.load(Ordering::Relaxed);
        if self.queue_wait_ns > 0 {
            if let Some(root) = spans.iter_mut().find(|s| s.span == self.ctx.span_id) {
                let handled_start = root.start_ns;
                root.start_ns = handled_start.saturating_sub(self.queue_wait_ns);
                let start = root.start_ns;
                spans.push(SpanRec {
                    name: "wait.queue",
                    span: mix(self.ctx.span_id, QUEUE_TAG),
                    parent: self.ctx.span_id,
                    start_ns: start,
                    end_ns: handled_start,
                });
            }
        }
        FinishedTrace {
            ctx: self.ctx,
            spans,
            dropped,
        }
    }
}

impl Drop for RequestGuard {
    fn drop(&mut self) {
        if self.root.is_some() {
            let _ = self.close();
        }
    }
}

/// A cloneable snapshot of the current context, for handing work to
/// another thread. Captures the innermost open span as the parent the
/// adopted task's spans will attach to.
#[derive(Debug, Clone)]
pub struct TraceHandle {
    trace_hi: u64,
    trace_lo: u64,
    parent_span: u64,
    collector: Arc<Collector>,
}

/// Snapshots the context active on this thread, or `None` outside a
/// request. Call on the *submitting* thread, before moving the task.
pub fn capture() -> Option<TraceHandle> {
    with_stack(|s| {
        s.trace.as_ref().map(|state| TraceHandle {
            trace_hi: state.trace_hi,
            trace_lo: state.trace_lo,
            parent_span: state.frames.last().map_or(state.base_key, |f| f.span),
            collector: Arc::clone(&state.collector),
        })
    })
}

impl TraceHandle {
    /// Installs this context on the current thread for the guard's
    /// lifetime, swapping out (and on drop restoring) whatever context
    /// the thread had — a worker mid-steal can never interleave two
    /// requests' frames. `tag` must be deterministic for the task
    /// (chunk index, spawn index): the task's top-level spans get ids
    /// derived from `mix(parent_span, tag)` regardless of which worker
    /// runs it.
    pub fn adopt(&self, tag: u64) -> AdoptGuard {
        let saved = with_stack(|s| {
            s.trace.replace(TraceState::new(
                self.trace_hi,
                self.trace_lo,
                self.parent_span,
                mix(self.parent_span, tag),
                Arc::clone(&self.collector),
            ))
        });
        AdoptGuard {
            saved,
            _not_send: PhantomData,
        }
    }
}

/// Restores the thread's previous context on drop.
pub struct AdoptGuard {
    saved: Option<TraceState>,
    _not_send: PhantomData<*const ()>,
}

impl Drop for AdoptGuard {
    fn drop(&mut self) {
        let saved = self.saved.take();
        with_stack(|s| s.trace = saved);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::EventKind;

    /// Drives the frame stack directly (no [`Span`], no clock), so these
    /// tests cannot race other tests over the global enabled flag.
    fn install(ctx: TraceCtx) -> Arc<Collector> {
        let collector = Collector::new();
        with_stack(|s| {
            s.trace = Some(TraceState::new(
                ctx.trace_hi,
                ctx.trace_lo,
                0,
                ctx.span_id,
                Arc::clone(&collector),
            ));
        });
        collector
    }

    fn uninstall() {
        with_stack(|s| s.trace = None);
    }

    /// Opens a frame as a span's entry would; returns the stamped Begin.
    fn open() -> Event {
        let mut begin = Event::plain("span", EventKind::Begin, 0);
        with_stack(|s| {
            if let Some(trace) = s.trace.as_mut() {
                trace.open(&mut begin);
            }
        });
        begin
    }

    fn close(name: &'static str, ids: Event, start_ns: u64, end_ns: u64) {
        with_stack(|s| {
            if let Some(trace) = s.trace.as_mut() {
                trace.close(SpanRec {
                    name,
                    span: ids.span,
                    parent: ids.parent,
                    start_ns,
                    end_ns,
                });
            }
        });
    }

    fn current() -> Event {
        let mut mark = Event::plain("mark", EventKind::Instant, 0);
        with_stack(|s| {
            if let Some(trace) = &s.trace {
                trace.stamp(&mut mark);
            }
        });
        mark
    }

    #[test]
    fn mint_is_deterministic_and_distinct() {
        let a = TraceCtx::mint(42, 7);
        let b = TraceCtx::mint(42, 7);
        let c = TraceCtx::mint(42, 8);
        assert_eq!(a, b);
        assert_ne!(a.trace_hex(), c.trace_hex());
        assert_eq!(a.trace_hex().len(), 32);
        assert_eq!(
            parse_trace_hex(&a.trace_hex()),
            Some((a.trace_hi, a.trace_lo))
        );
        assert_eq!(parse_trace_hex("xyz"), None);
    }

    #[test]
    fn frames_chain_parent_ids_and_collect_on_close() {
        let ctx = TraceCtx::mint(1, 1);
        let collector = install(ctx);
        let root = open();
        assert_eq!(root.span, ctx.span_id);
        assert_eq!(root.parent, 0);
        let child = open();
        assert_eq!(child.parent, ctx.span_id);
        assert_eq!(child.span, mix(ctx.span_id, 1));
        let grand = open();
        assert_eq!(grand.parent, child.span);
        close("inner", grand, 30, 40);
        close("work", child, 20, 50);
        close("req", root, 10, 60);
        uninstall();
        let spans = collector.spans.lock().unwrap();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].name, "inner");
        assert_eq!(spans[2].name, "req");
        assert_eq!(spans[2].parent, 0);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    fn sibling_spans_get_distinct_ids() {
        let ctx = TraceCtx::mint(2, 2);
        let _collector = install(ctx);
        open();
        let a = open();
        close("step", a, 1, 2);
        let b = open();
        close("step", b, 3, 4);
        uninstall();
        assert_ne!(a.span, b.span, "siblings share a name, not an id");
        assert_eq!(a.parent, b.parent);
    }

    #[test]
    fn a_span_that_is_not_the_innermost_frame_leaves_the_stack_alone() {
        let ctx = TraceCtx::mint(3, 3);
        let collector = install(ctx);
        let root = open();
        // Opened under no context (id 0), or under another one.
        close("orphan", Event::plain("orphan", EventKind::Begin, 0), 0, 5);
        close("stranger", Event { span: 7, ..root }, 0, 5);
        assert_eq!(collector.spans.lock().unwrap().len(), 0);
        assert_eq!(current().span, ctx.span_id, "the root is still open");
        uninstall();
    }

    #[test]
    fn adopt_swaps_and_restores_the_whole_stack() {
        let ctx = TraceCtx::mint(4, 4);
        let _collector = install(ctx);
        open();
        let handle = capture().expect("context active");
        {
            let _adopted = handle.adopt(CHUNK_TAG);
            // The adopted state starts empty: a span here is a top-level
            // span parented to the captured span.
            let ids = open();
            assert_eq!(ids.parent, ctx.span_id);
            assert_eq!(ids.span, mix(ctx.span_id, CHUNK_TAG));
            close("chunk", ids, 10, 20);
        }
        // Restored: the original frame is back on top.
        assert_eq!(current().span, ctx.span_id);
        uninstall();
    }

    #[test]
    fn adopt_tags_make_task_ids_independent_of_execution_order() {
        let ctx = TraceCtx::mint(5, 5);
        let _collector = install(ctx);
        open();
        let handle = capture().unwrap();
        uninstall();

        let run = |tags: &[u64]| -> Vec<u64> {
            tags.iter()
                .map(|&t| {
                    let _g = handle.adopt(CHUNK_TAG | t);
                    let ids = open();
                    close("chunk", ids, 0, 1);
                    ids.span
                })
                .collect()
        };
        let forward = run(&[0, 1, 2]);
        let mut reversed = run(&[2, 1, 0]);
        reversed.reverse();
        assert_eq!(forward, reversed, "ids depend on the tag, not the order");
    }

    #[test]
    fn capture_without_context_is_none() {
        uninstall();
        assert!(capture().is_none());
        assert!(active().is_none());
        let ids = open();
        assert_eq!((ids.trace_lo, ids.span, ids.parent), (0, 0, 0), "no ids");
    }

    #[test]
    fn collector_caps_and_counts_drops() {
        let ctx = TraceCtx::mint(6, 6);
        let collector = install(ctx);
        open();
        for _ in 0..MAX_SPANS_PER_TRACE + 10 {
            let ids = open();
            close("s", ids, 1, 2);
        }
        uninstall();
        assert_eq!(collector.spans.lock().unwrap().len(), MAX_SPANS_PER_TRACE);
        assert_eq!(collector.dropped.load(Ordering::Relaxed), 10);
    }
}
