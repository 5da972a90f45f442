//! The traced run's span recorder.
//!
//! Spans are recorded from the benchmark's own code around each call
//! into a layer: a name, start and end (nanoseconds since the tracer's
//! epoch), the index of the enclosing span, and the run id. They stay
//! in memory and are written out as JSON Lines when the run ends. A
//! disabled tracer records nothing, so the untraced code path pays one
//! branch per span.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The layer call, e.g. `learn.mine`.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in [`Tracer::spans`].
    pub parent: Option<usize>,
    /// The run this span belongs to.
    pub run_id: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Per-name totals from [`Tracer::self_times`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    /// Spans of this name.
    pub calls: usize,
    /// Summed span durations, ms.
    pub total_ms: f64,
    /// Summed durations minus the time their direct children cover, ms.
    pub self_ms: f64,
}

/// An in-memory span recorder for one thread of the benchmark.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    run_id: u64,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<(usize, Instant)>,
}

impl Tracer {
    /// A tracer that records when `enabled`, stamping spans with `run_id`.
    pub fn new(enabled: bool, run_id: u64) -> Tracer {
        Tracer::with_epoch(enabled, run_id, Instant::now())
    }

    /// A tracer sharing `epoch` with others (one per client thread), so
    /// their spans merge onto one time axis.
    pub fn with_epoch(enabled: bool, run_id: u64, epoch: Instant) -> Tracer {
        Tracer {
            enabled,
            run_id,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let started = Instant::now();
        self.spans.push(Span {
            name,
            start_ns: self.ns(started),
            end_ns: 0,
            parent: self.open.last().map(|&(i, _)| i),
            run_id: self.run_id,
        });
        self.open.push((index, started));
        let out = f(self);
        let (closed, _) = self.open.pop().expect("span stack balanced");
        debug_assert_eq!(closed, index);
        self.spans[index].end_ns = self.ns(Instant::now());
        out
    }

    /// Records an already-measured interval as a span under the
    /// innermost open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: self.open.last().map(|&(i, _)| i),
            run_id: self.run_id,
        });
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Appends another tracer's closed spans, re-indexing their parents.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// Every recorded span, in start order per thread.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in ms of the spans named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Calls, total and self time per span name. Self time is a span's
    /// duration minus the durations of its direct children.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            let own = s.end_ns - s.start_ns;
            e.calls += 1;
            e.total_ms += own as f64 / 1e6;
            e.self_ms += own.saturating_sub(children) as f64 / 1e6;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors creating or writing `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"run_id\":{}}}",
                s.name, s.start_ns, s.end_ns, s.run_id
            )?;
        }
        out.flush()
    }
}
