//! `cable-obs`: the observability substrate of the Cable workspace.
//!
//! The paper's claims are *cost* claims — Table 2 times Godin's lattice
//! construction, Table 3 counts user decisions, §5.2 claims near-linear
//! scaling — so the reproduction needs to see where time and work go.
//! This crate provides that visibility with **no dependencies beyond
//! `std`** (the workspace builds offline, and the repo policy is
//! hand-rolled serialisation rather than serde):
//!
//! * [`Counter`] — monotonic counters on cheap atomics, safe to leave in
//!   hot paths unconditionally;
//! * [`Histogram`] — log2-bucketed duration/size histograms, also
//!   atomics;
//! * [`Span`] — the one RAII span: while observation is [`enabled`] it
//!   reads the clock on entry and on drop, and its closed-span record
//!   feeds its histogram, the thread's recorder lane, and the active
//!   request's span tree; while it is off, release paths pay one
//!   relaxed load;
//! * [`Registry`] — the process-wide metric table, with a [`Snapshot`]
//!   API, a human-readable [report printer](Snapshot::render), and a
//!   [JSONL sink](JsonlSink) for machine-readable perf records;
//! * [`json`] — a minimal JSON value model with a hand-rolled writer and
//!   parser, used for the perf records and their round-trip tests;
//! * [`recorder`] — the flight recorder: fixed-capacity per-thread ring
//!   buffers of timestamped events (span begin/end, instants, counter
//!   marks), overflow tracked under `obs.recorder.dropped`;
//! * [`chrome`] — Chrome trace-event JSON export of the recorder (one
//!   lane per thread, loadable in Perfetto) and the self-time profile;
//! * [`prom`] — Prometheus text exposition of the registry (the
//!   `/metrics` body);
//! * [`ApiHandler`] / [`ApiRequest`] / [`ApiResponse`] — the seam between
//!   an HTTP server and the session service it hosts. The server itself
//!   (`--obs-listen`: `/metrics`, `/healthz`, `/tracez`, `/eventz`,
//!   `/sloz`, `/api/`) lives in `cable-core`, next to the service;
//! * [`scope`] — per-session/per-tenant [`Scope`]s whose writes roll up
//!   into the global registry and export as labelled series;
//! * [`events`] — the wide-event log: one self-describing JSONL record
//!   per unit of work, ring-buffered for `/eventz` and persisted via
//!   `--events-out`;
//! * [`slo`] — rolling latency/error windows over the event stream with
//!   burn-rate computation (`/sloz`);
//! * [`profdiff`] — continuous self-time profiling into the store dir
//!   and the `cable profile diff` regression report.
//!
//! # Usage
//!
//! Instrumented code declares static handles; registration happens on
//! first use and every later hit is an atomic op:
//!
//! ```
//! use cable_obs as obs;
//!
//! static INSERTS: obs::CounterHandle = obs::CounterHandle::new("demo.inserts");
//! static BUILD: obs::HistogramHandle = obs::HistogramHandle::new("demo.build_ns");
//!
//! obs::set_enabled(true);
//! {
//!     let _span = obs::Span::enter("demo.build", &BUILD);
//!     INSERTS.get().incr();
//! }
//! let snap = obs::registry().snapshot();
//! assert_eq!(snap.counter("demo.inserts"), Some(1));
//! assert!(snap.histogram("demo.build_ns").is_some());
//! ```
//!
//! Counters count even while disabled (they are the workload accounting
//! the tables rely on); spans, recorder events and request traces exist
//! only while enabled, so the `--stats` flags and `CABLE_OBS=1` gate
//! their clock reads.

mod api;
pub mod chrome;
pub mod context;
pub mod events;
pub mod json;
mod metrics;
pub mod profdiff;
pub mod prom;
pub mod recorder;
mod registry;
mod report;
pub mod scope;
mod sink;
pub mod slo;
mod span;

pub use api::{ApiHandler, ApiRequest, ApiResponse, RETRY_AFTER_SECONDS};
pub use context::{
    begin_request, AdoptGuard, FinishedTrace, RequestGuard, SpanRec, TraceCtx, TraceHandle,
};
pub use events::WideEvent;
pub use metrics::{Counter, CounterHandle, Histogram, HistogramHandle, HistogramSnapshot, BUCKETS};
pub use registry::{registry, Registry, Snapshot};
pub use scope::{render_scopes, scoped, Scope, ScopeSnapshot, ScopedRegistry};
pub use sink::{parse_jsonl, JsonlSink};
pub use span::Span;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Serialises the unit tests that toggle the process-wide flag.
#[cfg(test)]
pub(crate) static TEST_FLAG_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Whether observation is on: span timing, the flight recorder and
/// request traces. Counters are unconditional.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns observation on or off. Recorder lanes and their contents
/// survive toggling; only *new* spans and events are gated.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Enables observation — and the wide-event log — if the `CABLE_OBS`
/// environment variable is set to anything other than `0` or the empty
/// string. Returns the resulting state.
pub fn init_from_env() -> bool {
    let _ = process_start(); // pin the uptime epoch as early as possible
    if let Ok(v) = std::env::var("CABLE_OBS") {
        if !v.is_empty() && v != "0" {
            set_enabled(true);
            events::set_enabled(true);
        }
    }
    enabled()
}

fn process_start() -> Instant {
    static START: OnceLock<Instant> = OnceLock::new();
    *START.get_or_init(Instant::now)
}

/// Whole seconds since the process's uptime epoch (pinned by the first
/// call to this or [`init_from_env`]). Exposed as the
/// `uptime_seconds` gauge on `/metrics` and in `/healthz`.
pub fn uptime_seconds() -> u64 {
    process_start().elapsed().as_secs()
}

/// Build identity baked in at compile time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BuildInfo {
    /// The crate version (`CARGO_PKG_VERSION`).
    pub version: &'static str,
    /// The git commit, when the build environment exported
    /// `CABLE_GIT_HASH`; `"unknown"` otherwise.
    pub git_hash: &'static str,
    /// The rustc version, when the build environment exported
    /// `CABLE_RUSTC_VERSION`; `"unknown"` otherwise.
    pub rustc: &'static str,
}

/// The build identity exposed as the `cable_build_info` gauge and in
/// `/healthz`. The git hash and rustc version come from `option_env!`
/// so plain `cargo build` (no exported env) still compiles and reports
/// `"unknown"`.
pub fn build_info() -> BuildInfo {
    BuildInfo {
        version: env!("CARGO_PKG_VERSION"),
        git_hash: option_env!("CABLE_GIT_HASH").unwrap_or("unknown"),
        rustc: option_env!("CABLE_RUSTC_VERSION").unwrap_or("unknown"),
    }
}
