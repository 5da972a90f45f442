//! The concurrent load run: N labeler threads, one tenant each.
//!
//! Every labeler opens its own session, then issues its seeded op mix
//! against the service, honouring `429 Too Many Requests` with capped
//! exponential backoff under seeded jitter and retrying — backpressure
//! is an expected, *successful* interaction with the service, counted
//! separately from errors. Per-request latencies are collected exactly
//! (for the reported p50/p95/p99) and recorded into the process
//! registry as `load.request_ns` (for `reproduce slo-check`).
//!
//! With [`LoadOptions::chaos`] set, a *declared* degraded `503` (body
//! says `"degraded": true` — the read-only store refusing a write, see
//! DESIGN.md §17) is treated the same way: retried under backoff and
//! counted as `degraded_503`, not as a server error. Undeclared 5xx
//! answers stay hard errors either way — the chaos drill's gate is
//! precisely "every 5xx under fault injection is a declared one".
//! A logical request that exhausts its retry budget is counted as
//! `gave_up`, separately from transport failures.
//!
//! Each labeler also logs the mutations the server acknowledged, in
//! order, and the server's final digest of its session
//! ([`LabelerLog`]), so a sequential replay can check that the session
//! state depends only on those decisions.

use crate::client::{request, Response};
use crate::plan::{Labeler, Op};
use cable_obs::json::Value;
use cable_util::rng::{self, Rng, SmallRng};
use std::time::{Duration, Instant};

/// How many retryable answers (429, or declared 503 under `--chaos`)
/// one logical request absorbs before the driver counts it as
/// `gave_up`. With the backoff capped by the server's `Retry-After`
/// hint this bounds a logical request's patience to about a minute —
/// far beyond anything a healthy queue produces.
const MAX_RETRIES: usize = 60;

/// First backoff step. Doubles per retry up to the server's
/// `Retry-After` hint.
const BACKOFF_BASE_MS: u64 = 25;

/// A load run's shape.
#[derive(Debug, Clone)]
pub struct LoadOptions {
    /// The server address (`host:port`).
    pub addr: String,
    /// How many concurrent labelers to simulate.
    pub labelers: usize,
    /// Ops per labeler after the opening create.
    pub requests: usize,
    /// The workload seed; labeler `i` uses stream `(seed, i)` and
    /// tenant `load{i:03}`.
    pub seed: u64,
    /// Chaos-drill assertion mode: declared degraded 503s are retried
    /// and counted (`degraded_503`) instead of failing the run;
    /// undeclared 5xx remain hard errors.
    pub chaos: bool,
}

impl LoadOptions {
    /// Defaults: 8 labelers, 32 ops each, seed 42.
    pub fn new(addr: impl Into<String>) -> LoadOptions {
        LoadOptions {
            addr: addr.into(),
            labelers: 8,
            requests: 32,
            seed: 42,
            chaos: false,
        }
    }
}

/// One mutation the server acknowledged, in the order it did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step {
    /// The session was created from this trace text.
    Open(String),
    /// This trace text was ingested.
    Ingest(String),
    /// This labeling-script line ([`Op::script_line`]) was applied.
    Label(String),
}

/// One labeler's acknowledged mutations and the server's final word on
/// its session.
#[derive(Debug, Clone, Default)]
pub struct LabelerLog {
    /// Every acknowledged mutation, in order.
    pub steps: Vec<Step>,
    /// The server's `session_state` record after the last op, when the
    /// final digest request succeeded.
    pub digest: Option<Value>,
}

/// What one run observed.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Labelers simulated.
    pub labelers: usize,
    /// Logical requests issued (retries of one request count once).
    pub requests: u64,
    /// Requests answered 2xx.
    pub ok: u64,
    /// Requests answered 4xx (client errors; zero in a healthy run).
    pub errors_4xx: u64,
    /// Requests answered 5xx (the drill's hard gate).
    pub errors_5xx: u64,
    /// 429 answers absorbed by retrying (not errors).
    pub retries_429: u64,
    /// Declared degraded 503 answers absorbed by retrying under
    /// `--chaos` (not errors).
    pub degraded_503: u64,
    /// Logical requests abandoned after exhausting the retry budget.
    pub gave_up: u64,
    /// Transport-level failures (connect/read/write/timeout).
    pub io_errors: u64,
    /// The first 5xx answer (status, method, path and body), so a failed
    /// run says why.
    pub first_5xx: Option<String>,
    /// Labeler `i`'s acknowledged mutations and final digest at index `i`.
    pub logs: Vec<LabelerLog>,
    /// Wall-clock time for the whole run.
    pub wall: Duration,
    /// Total time labelers slept honouring `Retry-After` — backpressure
    /// wait, counted apart from service latency so the latency
    /// quantiles measure the server, not the client's politeness.
    pub retry_wait: Duration,
    /// Every attempt's latency in nanoseconds, sorted ascending.
    latencies: Vec<u64>,
}

impl LoadReport {
    /// The exact `q`-quantile attempt latency in milliseconds
    /// (nearest-rank), or 0 for an empty run.
    pub fn quantile_ms(&self, q: f64) -> f64 {
        if self.latencies.is_empty() {
            return 0.0;
        }
        let rank = ((self.latencies.len() - 1) as f64 * q).round() as usize;
        self.latencies[rank.min(self.latencies.len() - 1)] as f64 / 1e6
    }

    /// Completed logical requests per wall-clock second.
    pub fn throughput_rps(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.requests as f64 / secs
    }

    /// The `load_summary` JSONL record.
    pub fn to_json(&self) -> Value {
        Value::object([
            ("record", Value::from("load_summary")),
            ("labelers", Value::from(self.labelers as u64)),
            ("requests", Value::from(self.requests)),
            ("ok", Value::from(self.ok)),
            ("errors_4xx", Value::from(self.errors_4xx)),
            ("errors_5xx", Value::from(self.errors_5xx)),
            ("retries_429", Value::from(self.retries_429)),
            ("degraded_503", Value::from(self.degraded_503)),
            ("gave_up", Value::from(self.gave_up)),
            ("io_errors", Value::from(self.io_errors)),
            ("wall_ms", Value::from(self.wall.as_millis() as u64)),
            (
                "retry_wait_ms",
                Value::from(self.retry_wait.as_millis() as u64),
            ),
            ("throughput_rps", Value::from(self.throughput_rps())),
            ("p50_ms", Value::from(self.quantile_ms(0.50))),
            ("p95_ms", Value::from(self.quantile_ms(0.95))),
            ("p99_ms", Value::from(self.quantile_ms(0.99))),
        ])
    }

    /// A one-screen human summary.
    pub fn render(&self) -> String {
        let mut text = format!(
            "load: {} labelers, {} requests in {:.2}s ({:.1} req/s)\n\
             load: {} ok, {} 4xx, {} 5xx, {} io errors, {} gave up\n\
             load: {} retried 429s, {} degraded 503s ({:.2}s retry wait)\n\
             load: latency p50 {:.2} ms, p95 {:.2} ms, p99 {:.2} ms\n",
            self.labelers,
            self.requests,
            self.wall.as_secs_f64(),
            self.throughput_rps(),
            self.ok,
            self.errors_4xx,
            self.errors_5xx,
            self.io_errors,
            self.gave_up,
            self.retries_429,
            self.degraded_503,
            self.retry_wait.as_secs_f64(),
            self.quantile_ms(0.50),
            self.quantile_ms(0.95),
            self.quantile_ms(0.99),
        );
        if let Some(answer) = &self.first_5xx {
            text.push_str(&format!("load: first 5xx: {answer}\n"));
        }
        text
    }
}

/// One labeler thread's tally, merged into the [`LoadReport`].
#[derive(Debug, Default)]
struct Tally {
    requests: u64,
    ok: u64,
    errors_4xx: u64,
    errors_5xx: u64,
    retries_429: u64,
    degraded_503: u64,
    gave_up: u64,
    io_errors: u64,
    first_5xx: Option<String>,
    retry_wait: Duration,
    latencies: Vec<u64>,
    log: LabelerLog,
}

/// One labeler's request context: where to send, whether declared
/// degraded 503s are retryable, the backoff jitter stream, and the
/// running tally.
struct Cx<'a> {
    addr: &'a str,
    chaos: bool,
    rng: SmallRng,
    tally: Tally,
}

impl Cx<'_> {
    fn new(opts: &LoadOptions, index: usize) -> Cx<'_> {
        Cx {
            addr: &opts.addr,
            chaos: opts.chaos,
            // A stream disjoint from the labeler's op stream, so backoff
            // draws never perturb the op mix (same seed → same ops, with
            // or without retries).
            rng: rng::stream(opts.seed ^ 0x0062_6163_6b6f_6666, index as u64),
            tally: Tally::default(),
        }
    }
}

/// The retry sleep for attempt `attempt` (0-based): exponential from
/// [`BACKOFF_BASE_MS`], capped by the server's `Retry-After` hint, with
/// full jitter in `[cap/2, cap]` drawn from the labeler's seeded stream
/// so the fleet's retries decorrelate reproducibly.
fn backoff(rng: &mut SmallRng, attempt: usize, retry_after: Option<u64>) -> Duration {
    let cap_ms = retry_after.unwrap_or(1).clamp(1, 5) * 1000;
    let step_ms = BACKOFF_BASE_MS
        .saturating_mul(1 << attempt.min(16))
        .min(cap_ms);
    Duration::from_millis(step_ms / 2 + rng.gen_range(0..=step_ms.div_ceil(2)))
}

/// Whether a response is a *declared* degraded refusal: the read-only
/// store answering a write with `503` plus a body that admits
/// `"degraded": true` (see DESIGN.md §17).
fn declares_degraded(r: &Response) -> bool {
    r.status == 503
        && body_json(r)
            .and_then(|v| v.get("degraded").cloned())
            .is_some_and(|d| d == Value::Bool(true))
}

/// Issues one logical request, absorbing retryable answers (429, and
/// declared degraded 503s under `--chaos`) with capped exponential
/// backoff, and records every attempt's latency.
fn issue(cx: &mut Cx<'_>, method: &str, path: &str, body: Option<&str>) -> Option<Response> {
    let hist = cable_obs::registry().histogram("load.request_ns");
    cx.tally.requests += 1;
    cable_obs::registry().counter("load.requests").incr();
    for attempt in 0..=MAX_RETRIES {
        let start = Instant::now();
        let outcome = request(cx.addr, method, path, body);
        let ns = start.elapsed().as_nanos() as u64;
        cx.tally.latencies.push(ns);
        hist.record(ns);
        let retryable = match &outcome {
            Ok(r) if r.status == 429 => {
                cx.tally.retries_429 += 1;
                cable_obs::registry().counter("load.http_429").incr();
                true
            }
            Ok(r) if cx.chaos && declares_degraded(r) => {
                cx.tally.degraded_503 += 1;
                cable_obs::registry().counter("load.degraded_503").incr();
                true
            }
            _ => false,
        };
        if retryable {
            let wait = backoff(&mut cx.rng, attempt, outcome.as_ref().unwrap().retry_after);
            cx.tally.retry_wait += wait;
            cable_obs::registry()
                .histogram("load.retry_wait_ns")
                .record(wait.as_nanos() as u64);
            std::thread::sleep(wait);
            continue;
        }
        match outcome {
            Ok(r) => {
                match r.status {
                    200..=299 => cx.tally.ok += 1,
                    500..=599 => {
                        cx.tally.errors_5xx += 1;
                        cable_obs::registry().counter("load.http_5xx").incr();
                        cx.tally.first_5xx.get_or_insert_with(|| {
                            format!("{} {method} {path}: {}", r.status, r.body.trim())
                        });
                    }
                    _ => {
                        cx.tally.errors_4xx += 1;
                        cable_obs::registry().counter("load.http_4xx").incr();
                    }
                }
                return Some(r);
            }
            Err(_) => {
                cx.tally.io_errors += 1;
                cable_obs::registry().counter("load.io_errors").incr();
                return None;
            }
        }
    }
    // Out of patience: the queue (or the degraded store) never let us
    // through. Counted apart from transport errors so the drill can
    // gate on each.
    cx.tally.gave_up += 1;
    cable_obs::registry().counter("load.gave_up").incr();
    None
}

/// Parses a response body as JSON, tolerating non-JSON bodies.
fn body_json(r: &Response) -> Option<Value> {
    Value::parse(r.body.trim()).ok()
}

/// Runs one labeler's whole life: create, op mix, final digest.
fn run_labeler(opts: &LoadOptions, index: usize) -> Tally {
    let mut cx = Cx::new(opts, index);
    let mut labeler = Labeler::new(opts.seed, index as u64);
    let tenant = format!("load{index:03}");
    let session = "s";
    let base = format!("/api/sessions/{session}");
    let query = format!("?tenant={tenant}");

    // Open the session.
    let seed_traces = labeler.seed_traces();
    let create = Value::object([
        ("tenant", Value::from(tenant.as_str())),
        ("session", Value::from(session)),
        ("traces", Value::from(seed_traces.as_str())),
    ]);
    let r = issue(&mut cx, "POST", "/api/sessions", Some(&create.to_string()));
    let mut concepts = match r.as_ref().filter(|r| r.status == 201).and_then(body_json) {
        Some(v) => {
            cx.tally.log.steps.push(Step::Open(seed_traces));
            v.get("concepts").and_then(Value::as_u64).unwrap_or(1) as usize
        }
        // Without a session every follow-up would 404; report what we
        // saw and stop this labeler.
        None => return cx.tally,
    };

    // Learn the lattice top once — focus ops target it (its extent is
    // never empty).
    let mut top = "c0".to_string();
    if let Some(v) = issue(&mut cx, "GET", &format!("{base}/lattice{query}"), None)
        .as_ref()
        .and_then(body_json)
    {
        if let Some(t) = v.get("top").and_then(Value::as_str) {
            top = t.to_string();
        }
    }

    for _ in 0..opts.requests {
        let op = labeler.next_op(concepts);
        match &op {
            Op::Ingest { traces } => {
                let body = Value::object([
                    ("tenant", Value::from(tenant.as_str())),
                    ("traces", Value::from(traces.as_str())),
                ]);
                let r = issue(
                    &mut cx,
                    "POST",
                    &format!("{base}/ingest"),
                    Some(&body.to_string()),
                );
                if let Some(v) = r.as_ref().filter(|r| r.status == 200).and_then(body_json) {
                    cx.tally.log.steps.push(Step::Ingest(traces.clone()));
                    if let Some(n) = v.get("concepts").and_then(Value::as_u64) {
                        concepts = n as usize;
                    }
                }
            }
            Op::Label {
                concept,
                selector,
                label,
            } => {
                let body = Value::object([
                    ("tenant", Value::from(tenant.as_str())),
                    ("concept", Value::from(format!("c{concept}"))),
                    ("selector", Value::from(*selector)),
                    ("label", Value::from(*label)),
                ]);
                let r = issue(
                    &mut cx,
                    "POST",
                    &format!("{base}/label"),
                    Some(&body.to_string()),
                );
                if r.as_ref().is_some_and(|r| r.status == 200) {
                    let line = op.script_line().expect("a label op has a script line");
                    cx.tally.log.steps.push(Step::Label(line));
                }
            }
            Op::Lattice => {
                issue(&mut cx, "GET", &format!("{base}/lattice{query}"), None);
            }
            Op::Concepts => {
                issue(&mut cx, "GET", &format!("{base}/concepts{query}"), None);
            }
            Op::Focus => {
                issue(
                    &mut cx,
                    "GET",
                    &format!("{base}/focus{query}&concept={top}"),
                    None,
                );
            }
            Op::Digest => {
                issue(&mut cx, "GET", &format!("{base}/digest{query}"), None);
            }
        }
    }

    // The server's final word on this session, for the replay diff.
    cx.tally.log.digest = issue(&mut cx, "GET", &format!("{base}/digest{query}"), None)
        .as_ref()
        .filter(|r| r.status == 200)
        .and_then(body_json);
    cx.tally
}

/// Runs the whole fleet and merges the tallies. HTTP-level failures
/// are *counted*, not raised, so a sick server still yields a report to
/// gate on.
pub fn run(opts: &LoadOptions) -> LoadReport {
    let start = Instant::now();
    let tallies: Vec<Tally> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..opts.labelers)
            .map(|i| scope.spawn(move || run_labeler(opts, i)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let wall = start.elapsed();

    let mut report = LoadReport {
        labelers: opts.labelers,
        requests: 0,
        ok: 0,
        errors_4xx: 0,
        errors_5xx: 0,
        retries_429: 0,
        degraded_503: 0,
        gave_up: 0,
        io_errors: 0,
        first_5xx: None,
        logs: Vec::with_capacity(tallies.len()),
        wall,
        retry_wait: Duration::ZERO,
        latencies: Vec::new(),
    };
    for t in tallies {
        report.requests += t.requests;
        report.ok += t.ok;
        report.errors_4xx += t.errors_4xx;
        report.errors_5xx += t.errors_5xx;
        report.retries_429 += t.retries_429;
        report.degraded_503 += t.degraded_503;
        report.gave_up += t.gave_up;
        report.io_errors += t.io_errors;
        report.first_5xx = report.first_5xx.or(t.first_5xx);
        report.retry_wait += t.retry_wait;
        report.latencies.extend(t.latencies);
        report.logs.push(t.log);
    }
    report.latencies.sort_unstable();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(latencies: Vec<u64>) -> LoadReport {
        LoadReport {
            labelers: 2,
            requests: latencies.len() as u64,
            ok: latencies.len() as u64,
            errors_4xx: 0,
            errors_5xx: 0,
            retries_429: 0,
            degraded_503: 0,
            gave_up: 0,
            io_errors: 0,
            first_5xx: None,
            logs: Vec::new(),
            wall: Duration::from_secs(2),
            retry_wait: Duration::ZERO,
            latencies,
        }
    }

    #[test]
    fn quantiles_are_exact_nearest_rank() {
        let r = report((1..=100).map(|i| i * 1_000_000).collect());
        assert!((r.quantile_ms(0.50) - 50.0).abs() < 1.5);
        assert!((r.quantile_ms(0.99) - 99.0).abs() < 1.5);
        assert_eq!(report(Vec::new()).quantile_ms(0.5), 0.0);
    }

    #[test]
    fn summary_record_carries_the_gate_fields() {
        let r = report(vec![2_000_000; 10]);
        let v = r.to_json();
        assert_eq!(
            v.get("record").and_then(Value::as_str),
            Some("load_summary")
        );
        assert_eq!(v.get("errors_5xx").and_then(Value::as_u64), Some(0));
        assert_eq!(v.get("gave_up").and_then(Value::as_u64), Some(0));
        assert_eq!(v.get("degraded_503").and_then(Value::as_u64), Some(0));
        assert_eq!(v.get("requests").and_then(Value::as_u64), Some(10));
        assert_eq!(v.get("retry_wait_ms").and_then(Value::as_u64), Some(0));
        assert!(v.get("p99_ms").and_then(Value::as_f64).unwrap() > 1.9);
        assert!((r.throughput_rps() - 5.0).abs() < 1e-9);
        assert!(!r.render().contains("first 5xx"));
        let failed = LoadReport {
            first_5xx: Some("500 POST /api/sessions: boom".into()),
            ..r
        };
        assert!(failed
            .render()
            .contains("load: first 5xx: 500 POST /api/sessions: boom\n"));
    }

    #[test]
    fn backoff_grows_exponentially_to_the_hint_and_stays_jittered() {
        let mut rng = rng::stream(7, 0);
        for attempt in 0..24 {
            let cap = Duration::from_millis(2000);
            let step = Duration::from_millis((BACKOFF_BASE_MS << attempt.min(16)).min(2000));
            let d = backoff(&mut rng, attempt, Some(2));
            // Full jitter keeps every delay within [step/2, step] —
            // never zero, never past the server's hint.
            assert!(d >= step / 2, "attempt {attempt}: {d:?} < {:?}", step / 2);
            assert!(d <= step + Duration::from_millis(1), "attempt {attempt}");
            assert!(d <= cap + Duration::from_millis(1), "attempt {attempt}");
        }
        // Unhinted answers back off toward one second, the service's
        // standard Retry-After.
        assert!(backoff(&mut rng, 16, None) <= Duration::from_secs(1));
    }

    #[test]
    fn backoff_is_reproducible_per_stream() {
        let mut a = rng::stream(42, 3);
        let mut b = rng::stream(42, 3);
        let delays_a: Vec<_> = (0..8).map(|i| backoff(&mut a, i, Some(1))).collect();
        let delays_b: Vec<_> = (0..8).map(|i| backoff(&mut b, i, Some(1))).collect();
        assert_eq!(delays_a, delays_b);
        let mut c = rng::stream(42, 4);
        let delays_c: Vec<_> = (0..8).map(|i| backoff(&mut c, i, Some(1))).collect();
        assert_ne!(delays_a, delays_c, "streams decorrelate the fleet");
    }

    #[test]
    fn only_a_declared_degraded_503_counts_as_degraded() {
        let declared = Response {
            status: 503,
            retry_after: Some(1),
            body: r#"{"error": "read-only", "status": 503, "degraded": true, "cause": "fsync"}"#
                .into(),
        };
        assert!(declares_degraded(&declared));
        let naked = Response {
            status: 503,
            retry_after: None,
            body: "service exploded".into(),
        };
        assert!(!declares_degraded(&naked));
        let wrong_status = Response {
            status: 500,
            retry_after: None,
            body: r#"{"degraded": true}"#.into(),
        };
        assert!(!declares_degraded(&wrong_status));
    }
}
