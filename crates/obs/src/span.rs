//! The span pipeline: one per-thread frame stack and one RAII [`Span`].
//!
//! Everything a span touches per thread lives in one thread-local
//! [`FrameStack`]: the thread's recorder lane (registered on its first
//! event) and, while a request context is installed or adopted (see
//! [`crate::context`]), that request's open frames. A [`Span`] reads the
//! clock once on entry and once on drop, and the closed-span record it
//! builds on drop feeds three consumers from that one measurement:
//!
//! * the span's histogram, in the unit its metric name states (names
//!   ending in `.us` record microseconds, all others nanoseconds);
//! * the thread's recorder lane, as a `Begin`/`End` pair whose gap is
//!   exactly the recorded duration;
//! * the request's span tree, when a context is active.
//!
//! All of it sits behind the one [`crate::enabled`] switch: while it is
//! off, entering a span costs one relaxed load and dropping it nothing
//! more. `Span` is `!Send`: a span closes on the stack it opened on.

use crate::context::{SpanRec, TraceState};
use crate::metrics::HistogramHandle;
use crate::recorder::{self, Event, EventKind, Lane};
use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::Arc;

/// This thread's span state: its recorder lane and the request context
/// (with the request's open frames) installed or adopted on it.
pub(crate) struct FrameStack {
    /// The thread's recorder lane, registered on its first event.
    pub(crate) lane: Option<Arc<Lane>>,
    /// The active request context; [`crate::context`] installs, adopts
    /// and restores it.
    pub(crate) trace: Option<TraceState>,
}

thread_local! {
    static STACK: RefCell<FrameStack> = const {
        RefCell::new(FrameStack {
            lane: None,
            trace: None,
        })
    };
}

/// Runs `f` on this thread's frame stack.
pub(crate) fn with_stack<R>(f: impl FnOnce(&mut FrameStack) -> R) -> R {
    STACK.with(|s| f(&mut s.borrow_mut()))
}

/// Nanoseconds per recorded unit for a span histogram's metric name.
fn ns_per_unit(metric: &str) -> u64 {
    if metric.ends_with(".us") {
        1_000
    } else {
        1
    }
}

/// An RAII span. While observation is [`crate::enabled`], entering
/// reads the clock, opens a frame (minting the span's ids under an
/// active request) and records `Begin` on the thread's lane; dropping
/// reads the clock again and feeds the one closed-span record to the
/// histogram, the lane (`End`) and the request's span tree.
///
/// Spans close in reverse entry order by scoping, even on `?` and panic
/// paths:
///
/// ```
/// use cable_obs as obs;
/// static H: obs::HistogramHandle = obs::HistogramHandle::new("doc.span_ns");
///
/// obs::set_enabled(true);
/// {
///     let _outer = obs::Span::enter("doc.span", &H);
///     let _inner = obs::Span::enter("doc.span", &H);
/// }
/// assert_eq!(H.get().snapshot().count, 2);
/// ```
#[must_use = "a span measures the scope it is bound to; binding to _ drops it immediately"]
pub struct Span {
    open: Option<Open>,
    /// A span belongs to the thread whose stack it opened on.
    _not_send: PhantomData<*const ()>,
}

/// An entered span's state, present only while observation was on.
struct Open {
    /// The `Begin` event recorded on entry, carrying the span's ids.
    begin: Event,
    /// The histogram the span's duration lands in, if any.
    histogram: Option<&'static HistogramHandle>,
}

impl Span {
    /// Enters a span that records into `histogram` when dropped, in the
    /// unit the histogram's name states.
    #[inline]
    pub fn enter(name: &'static str, histogram: &'static HistogramHandle) -> Span {
        Span::start(name, Some(histogram))
    }

    /// Enters a span with no histogram: it lands only on the recorder
    /// lane and the request's span tree.
    #[inline]
    pub fn open(name: &'static str) -> Span {
        Span::start(name, None)
    }

    #[inline]
    fn start(name: &'static str, histogram: Option<&'static HistogramHandle>) -> Span {
        if !crate::enabled() {
            return Span {
                open: None,
                _not_send: PhantomData,
            };
        }
        let mut begin = Event::plain(name, EventKind::Begin, recorder::now_ns());
        with_stack(|s| {
            if let Some(trace) = s.trace.as_mut() {
                trace.open(&mut begin);
            }
            recorder::append(&mut s.lane, begin);
        });
        Span {
            open: Some(Open { begin, histogram }),
            _not_send: PhantomData,
        }
    }
}

impl Drop for Span {
    #[inline]
    fn drop(&mut self) {
        if let Some(open) = self.open.take() {
            open.close();
        }
    }
}

impl Open {
    fn close(self) {
        let end = Event {
            kind: EventKind::End,
            ts_ns: recorder::now_ns(),
            ..self.begin
        };
        let rec = SpanRec {
            name: end.name,
            span: end.span,
            parent: end.parent,
            start_ns: self.begin.ts_ns,
            end_ns: end.ts_ns,
        };
        if let Some(histogram) = self.histogram {
            histogram
                .get()
                .record(rec.duration_ns() / ns_per_unit(histogram.name()));
        }
        with_stack(|s| {
            recorder::append(&mut s.lane, end);
            if let Some(trace) = s.trace.as_mut() {
                trace.close(rec);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    static TEST_SPAN: HistogramHandle = HistogramHandle::new("test.span.inner_ns");

    #[test]
    fn disabled_spans_record_nothing() {
        let _guard = crate::TEST_FLAG_LOCK.lock().unwrap();
        crate::set_enabled(false);
        let before = TEST_SPAN.get().snapshot().count;
        {
            let s = Span::enter("test.span", &TEST_SPAN);
            assert!(s.open.is_none(), "disabled spans keep no state");
        }
        assert_eq!(TEST_SPAN.get().snapshot().count, before);
    }

    #[test]
    fn enabled_spans_record_once_each() {
        let _guard = crate::TEST_FLAG_LOCK.lock().unwrap();
        crate::set_enabled(true);
        let before = TEST_SPAN.get().snapshot().count;
        {
            let _outer = Span::enter("test.span", &TEST_SPAN);
            let _inner = Span::enter("test.span", &TEST_SPAN);
        }
        assert_eq!(TEST_SPAN.get().snapshot().count, before + 2);
        crate::set_enabled(false);
    }

    #[test]
    fn metric_names_choose_the_histogram_unit() {
        assert_eq!(ns_per_unit("wait.fsync.us"), 1_000);
        assert_eq!(ns_per_unit("fca.lattice.build_ns"), 1);
        assert_eq!(ns_per_unit("par.stage.x.busy_ns"), 1);
    }
}
