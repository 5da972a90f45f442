//! Std-only HTTP/1.1 server: the exposition endpoints (`/metrics`,
//! `/healthz`, `/tracez`, `/tracez/export`, `/eventz`, `/sloz`) plus the
//! session API under `/api/` (an [`ApiHandler`] — [`crate::CableApi`] —
//! given at [`ObsServer::bind_with`]).
//!
//! Every parsed request is minted a [`TraceCtx`] (seeded by
//! [`ServerConfig::trace_seed`], sequence-numbered per request by the
//! server) and handled under a request root span. The server owns what
//! it files each finished request under: its per-route latency
//! histograms (the `http_request_us` family) and its tail store. Both,
//! and the request's wide event, are keyed by a bounded route label —
//! an exposition path, a [`Route`] pattern, or `other` — never by the
//! raw path a client sent.
//!
//! # Tail-based retention
//!
//! Tail sampling decides *after* a request finishes, when its wall time
//! and status are known: every request leaves a summary (ring of
//! [`SUMMARY_CAP`]); the complete span tree is kept only for requests
//! that are slow (wall time ≥ [`ServerConfig::trace_slow_us`]), failed
//! (status ≥ 500), or land on the 1-in-[`SAMPLE_EVERY`] sample, in a
//! ring of [`TREE_CAP`]. `/tracez?slowest=N` indexes the summaries,
//! `/tracez?trace=ID` renders a kept tree as a waterfall, and
//! `/tracez/export` dumps the store as a `trace_export` record for
//! `reproduce trace-report`.
//!
//! # Connections
//!
//! Per DESIGN.md §8 this is hand-rolled over [`std::net::TcpListener`].
//! A fixed pool of [`ServerConfig::max_connections`] workers is fed from
//! a bounded accept queue: when every worker is busy, up to
//! [`ServerConfig::queue_depth`] connections wait their turn, and only
//! past *that* does the accept loop shed load — with `429 Too Many
//! Requests` plus a `Retry-After` header (DESIGN.md §14). A connection
//! may send at most [`MAX_HEADER_BYTES`] of request line plus headers
//! (`431` past that) and [`MAX_BODY_BYTES`] of body (`413`), must make
//! read progress within [`IO_TIMEOUT`] and deliver its whole request
//! within [`CONNECTION_DEADLINE`] (`408`), and is always closed after
//! the response.
//!
//! Security posture (DESIGN.md §11): addresses given as a bare port bind
//! `127.0.0.1`; exposing the endpoints beyond localhost requires an
//! explicit interface in `--obs-listen`.

use crate::api::Route;
use cable_obs::context::{self, FinishedTrace, SpanRec, TraceCtx};
use cable_obs::events::{self, WideEvent};
use cable_obs::json::Value;
use cable_obs::{chrome, prom, recorder, registry, slo};
use cable_obs::{
    ApiHandler, ApiRequest, ApiResponse, CounterHandle, Histogram, HistogramHandle,
    RETRY_AFTER_SECONDS,
};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read as _, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

static REQUESTS: CounterHandle = CounterHandle::new("obs.http.requests");
/// Connections turned away with `429` when the accept queue is full.
static REJECTED: CounterHandle = CounterHandle::new("obs.http.rejected");
/// Requests refused with `431` for oversized request line + headers.
static OVERSIZED: CounterHandle = CounterHandle::new("obs.http.oversized");
/// Responses whose write failed mid-flight (EPIPE, connection reset):
/// the client hung up first. Counted, never panicking.
static CLIENT_ABORTS: CounterHandle = CounterHandle::new("http.client_abort");
/// Connections cut with `408` because they failed to deliver a whole
/// request within the per-connection deadline (the slowloris guard).
static SLOW_CLIENT_ABORTS: CounterHandle = CounterHandle::new("obs.http.slow_client_aborts");
/// Connections that waited in the accept queue before being served.
static QUEUED: CounterHandle = CounterHandle::new("obs.http.queued");
/// Time served connections spent in the bounded accept queue before a
/// worker picked them up, microseconds — the queue half of the
/// `/metrics` contention families.
static WAIT_QUEUE: HistogramHandle = HistogramHandle::new("wait.queue.us");
/// Request wall time, microseconds, over every route of every server in
/// the process; each server also keeps one histogram per route label.
static REQUEST_US: HistogramHandle = HistogramHandle::new("http.request.us");

/// Ceiling on request line + header bytes a connection may send.
pub const MAX_HEADER_BYTES: usize = 8 * 1024;
/// Ceiling on request body bytes (`413` past it) — bounds what one
/// `POST /api/sessions/:id/ingest` can make the server buffer.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;
/// Default ceiling on concurrently served connections (the worker-pool
/// size; `--max-connections`).
pub const MAX_CONNECTIONS: usize = 8;
/// Default depth of the accept queue behind the worker pool; past
/// workers + queue the server answers `429` with `Retry-After`.
pub const QUEUE_DEPTH: usize = 32;
/// Per-read/per-write socket timeout on a served connection.
pub const IO_TIMEOUT: Duration = Duration::from_secs(2);
/// Overall deadline for one connection to deliver its whole request
/// (line, headers, and body). The per-read timeout alone resets on
/// every byte, so a client trickling one byte per interval could hold a
/// worker forever; the deadline bounds the total and answers `408` —
/// the slowloris guard.
pub const CONNECTION_DEADLINE: Duration = Duration::from_secs(10);

/// Most recent records per lane served by `/tracez` (override per
/// request with `?limit=N`).
pub const TRACEZ_SPAN_LIMIT: usize = 64;
/// Most recent events served by `/eventz` (override with `?limit=N`).
pub const EVENTZ_EVENT_LIMIT: usize = 64;
/// Ceiling on a `?limit=N` override — keeps one request from asking for
/// a multi-MB response.
pub const MAX_QUERY_LIMIT: usize = 100_000;

/// Per-request summaries the tail store retains (newest wins).
pub const SUMMARY_CAP: usize = 512;
/// Complete span trees the tail store retains (newest wins).
pub const TREE_CAP: usize = 128;
/// Default slow-request threshold, microseconds.
pub const DEFAULT_SLOW_US: u64 = 10_000;
/// The tail store keeps the full tree of every `SAMPLE_EVERY`-th
/// request, fast or not.
pub const SAMPLE_EVERY: u64 = 16;

/// The exposition endpoints: each path with the handler that answers a
/// `GET` on it, given the query string (`Err` is a `400` message). The
/// paths are also the route labels of those requests.
const EXPOSITION: [(&str, Exposition); 6] = [
    ("/metrics", Plane::metrics),
    ("/healthz", Plane::healthz),
    ("/tracez", Plane::tracez),
    ("/tracez/export", Plane::tracez_export),
    ("/eventz", Plane::eventz),
    ("/sloz", Plane::sloz),
];

type Exposition = fn(&Plane, Option<&str>) -> Result<ApiResponse, String>;

/// Sizing of one server — how many connections are served concurrently
/// and how many may wait behind them before load-shedding starts — and
/// its request-tracing settings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// Worker threads — concurrently served connections.
    pub max_connections: usize,
    /// Accepted connections allowed to wait for a worker; past
    /// `max_connections + queue_depth` in flight, new connections get
    /// `429` + `Retry-After`.
    pub queue_depth: usize,
    /// Seed minted trace ids derive from (`--trace-seed`); the server's
    /// request sequence number advances once per parsed request. With a
    /// pinned seed and the same request order, a drill mints the same
    /// trace ids run to run.
    pub trace_seed: u64,
    /// Wall time, microseconds, at or above which a request's complete
    /// span tree is always kept (`--trace-slow-us`).
    pub trace_slow_us: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_connections: MAX_CONNECTIONS,
            queue_depth: QUEUE_DEPTH,
            trace_seed: 0,
            trace_slow_us: DEFAULT_SLOW_US,
        }
    }
}

/// What `/healthz` reports about an open store, given to the server at
/// bind by whoever holds one ([`crate::StoredSession::health`]).
/// Without one the endpoint reports `"store": "none"` but stays healthy
/// — a serving process without a store is not broken.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthInfo {
    /// Snapshot generation of the open store.
    pub generation: u64,
    /// Journal bytes past the header — work lost to a crash, recovered
    /// on resume.
    pub journal_lag_bytes: u64,
    /// Journal records not yet folded into the snapshot.
    pub journal_lag_records: u64,
    /// The degradation cause when the store is read-only after a
    /// write-path failure (fail-stop durability), `None` while
    /// writable.
    pub degraded: Option<String>,
}

/// Parses an `--obs-listen` value: either a full socket address
/// (`127.0.0.1:9090`, `0.0.0.0:9090`) or a bare port, which binds
/// localhost.
pub fn parse_listen_addr(s: &str) -> Result<SocketAddr, String> {
    if let Ok(port) = s.parse::<u16>() {
        return Ok(SocketAddr::from(([127, 0, 0, 1], port)));
    }
    s.parse::<SocketAddr>()
        .map_err(|e| format!("invalid listen address {s:?}: {e}"))
}

/// The HTTP server. [`ObsServer::bind`], then either
/// [`ObsServer::serve`] (block forever, for `cable serve`) or
/// [`ObsServer::spawn`] (background thread with a stop guard, for
/// `--obs-listen` alongside other work).
pub struct ObsServer {
    listener: TcpListener,
    addr: SocketAddr,
    plane: Plane,
}

/// What one server answers with and files its requests under, fixed at
/// bind and shared by its workers.
struct Plane {
    config: ServerConfig,
    /// The `/api/` handler; without one, API routes answer `404` with a
    /// hint to start `cable serve --api`.
    api: Option<Arc<dyn ApiHandler>>,
    /// The open store's health for `/healthz`, if the process holds one.
    health: Option<HealthInfo>,
    /// Requests parsed so far: the per-request trace mint sequence.
    request_seq: AtomicU64,
    /// The slow-client guards, always [`IO_TIMEOUT`] and
    /// [`CONNECTION_DEADLINE`]; fields only so this module's tests can
    /// tighten them.
    io_timeout: Duration,
    connection_deadline: Duration,
    /// Finished request traces, retained by the tail rule.
    tail: TailStore,
    /// One latency histogram per route label, fixed at bind: the
    /// `http_request_us_summary{route=…}` series of this server alone.
    routes: Vec<(&'static str, Histogram)>,
}

impl ObsServer {
    /// Binds the listener with the default [`ServerConfig`] and neither
    /// an API plane nor a store. `addr` accepts the
    /// [`parse_listen_addr`] forms; port 0 picks an ephemeral port (see
    /// [`ObsServer::addr`]).
    pub fn bind(addr: &str) -> Result<ObsServer, String> {
        Self::bind_with(addr, ServerConfig::default(), None, None)
    }

    /// [`ObsServer::bind`] with explicit sizing and tracing settings,
    /// the `/api/` handler, and the store health `/healthz` reports.
    ///
    /// # Errors
    ///
    /// Fails on an unparsable address, a bind error, or a zero
    /// `max_connections`.
    pub fn bind_with(
        addr: &str,
        config: ServerConfig,
        api: Option<Arc<dyn ApiHandler>>,
        health: Option<HealthInfo>,
    ) -> Result<ObsServer, String> {
        if config.max_connections == 0 {
            return Err("max connections must be at least 1".to_owned());
        }
        let addr = parse_listen_addr(addr)?;
        let listener = TcpListener::bind(addr)
            .map_err(|e| format!("cannot bind obs server on {addr}: {e}"))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("obs server has no local address: {e}"))?;
        Ok(ObsServer {
            listener,
            addr,
            plane: Plane {
                config,
                api,
                health,
                request_seq: AtomicU64::new(0),
                io_timeout: IO_TIMEOUT,
                connection_deadline: CONNECTION_DEADLINE,
                tail: TailStore::new(config.trace_slow_us),
                routes: EXPOSITION
                    .iter()
                    .map(|(path, _)| *path)
                    .chain(Route::ALL.map(Route::pattern))
                    .chain(["other"])
                    .map(|label| (label, Histogram::new()))
                    .collect(),
            },
        })
    }

    /// The bound address (resolves port 0 to the real ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Serves requests on the calling thread until the process exits.
    pub fn serve(self) -> ! {
        let pool = WorkerPool::start(self.plane);
        loop {
            if let Ok((stream, _)) = self.listener.accept() {
                pool.submit(stream);
            }
        }
    }

    /// Serves requests from a background thread; the returned guard
    /// stops the server when dropped.
    pub fn spawn(self) -> ServerGuard {
        let stop = Arc::new(AtomicBool::new(false));
        let addr = self.addr;
        let pool = WorkerPool::start(self.plane);
        let accept_pool = pool.clone();
        let thread_stop = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("cable-obs-http".into())
            .spawn(move || loop {
                let Ok((stream, _)) = self.listener.accept() else {
                    continue;
                };
                if thread_stop.load(Ordering::Acquire) {
                    return;
                }
                accept_pool.submit(stream);
            })
            .expect("spawn obs http thread");
        ServerGuard {
            addr,
            stop,
            handle: Some(handle),
            pool: Some(pool),
        }
    }
}

/// The fixed pool of connection-handler threads plus the bounded queue
/// feeding them. Submitting past `workers + queue_depth` in flight
/// answers `429` on the accept thread (cheap: one small write, no
/// reads) so the loop is back to accepting without waiting on anyone's
/// timeout.
#[derive(Clone)]
struct WorkerPool {
    shared: Arc<PoolShared>,
}

struct PoolShared {
    state: Mutex<PoolState>,
    ready: Condvar,
    plane: Plane,
}

struct PoolState {
    /// Waiting connections, each with its enqueue instant so the
    /// dequeuing worker can account the queue wait (a cross-thread
    /// wait can't be a recorder span — lanes are single-writer).
    queue: VecDeque<(TcpStream, Instant)>,
    stop: bool,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    fn start(plane: Plane) -> WorkerPool {
        let max_connections = plane.config.max_connections;
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                stop: false,
                workers: Vec::new(),
            }),
            ready: Condvar::new(),
            plane,
        });
        let mut workers = Vec::with_capacity(max_connections);
        for i in 0..max_connections {
            let worker_shared = Arc::clone(&shared);
            let handle = std::thread::Builder::new()
                .name(format!("cable-obs-conn-{i}"))
                .spawn(move || worker_loop(&worker_shared))
                .expect("spawn obs worker thread");
            workers.push(handle);
        }
        shared.state.lock().expect("obs pool poisoned").workers = workers;
        WorkerPool { shared }
    }

    /// Queues a connection for a worker, or sheds it with `429` when
    /// the queue is at depth.
    fn submit(&self, stream: TcpStream) {
        {
            let mut state = self.shared.state.lock().expect("obs pool poisoned");
            if state.queue.len() < self.shared.plane.config.queue_depth {
                if !state.queue.is_empty() {
                    QUEUED.get().incr();
                }
                state.queue.push_back((stream, Instant::now()));
                drop(state);
                self.shared.ready.notify_one();
                return;
            }
        }
        REJECTED.get().incr();
        let mut stream = stream;
        let _ = stream.set_write_timeout(Some(self.shared.plane.io_timeout));
        let body = "server over capacity, retry\n";
        let _ = write!(
            stream,
            "HTTP/1.1 429 Too Many Requests\r\nContent-Type: text/plain; charset=utf-8\r\nRetry-After: {RETRY_AFTER_SECONDS}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        );
        // Closing with unread request bytes still buffered makes the
        // kernel send RST, which can discard the 429 we just wrote
        // before the client reads it. Shut down our write side (the
        // client's read completes) and drain the request — bounded in
        // both bytes and time, so a slow sender cannot pin the accept
        // thread.
        let _ = stream.shutdown(std::net::Shutdown::Write);
        let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
        let mut scratch = [0u8; 4096];
        for _ in 0..8 {
            match stream.read(&mut scratch) {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
        }
    }

    /// Stops the workers and joins them. Safe to call once, from the
    /// owning [`ServerGuard`].
    fn shutdown(&self) {
        let workers = {
            let mut state = self.shared.state.lock().expect("obs pool poisoned");
            state.stop = true;
            std::mem::take(&mut state.workers)
        };
        self.shared.ready.notify_all();
        for handle in workers {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let (stream, enqueued) = {
            let mut state = shared.state.lock().expect("obs pool poisoned");
            loop {
                if let Some(job) = state.queue.pop_front() {
                    break job;
                }
                if state.stop {
                    return;
                }
                state = shared.ready.wait(state).expect("obs pool condvar poisoned");
            }
        };
        shared.plane.handle_connection(stream, enqueued.elapsed());
    }
}

/// Stops the background server (from [`ObsServer::spawn`]) on drop.
pub struct ServerGuard {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
    pool: Option<WorkerPool>,
}

impl ServerGuard {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for ServerGuard {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        // Unblock accept() so the thread observes the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
        if let Some(pool) = self.pool.take() {
            pool.shutdown();
        }
    }
}

/// A plain-text response.
fn text(status: u16, body: impl Into<String>) -> ApiResponse {
    ApiResponse {
        status,
        content_type: "text/plain; charset=utf-8",
        body: body.into(),
        retry_after: None,
    }
}

/// A JSON exposition response. Unlike [`ApiResponse::json`] it opens no
/// `serialize.response` span: that span is API work, and an exposition
/// request's tree is its bare root.
fn json(status: u16, value: &Value) -> ApiResponse {
    ApiResponse {
        status,
        content_type: "application/json; charset=utf-8",
        body: format!("{value}\n"),
        retry_after: None,
    }
}

/// The reason phrase for the status codes this server emits.
fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Content Too Large",
        422 => "Unprocessable Content",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Response",
    }
}

/// A [`TcpStream`] whose reads share one absolute deadline: before
/// every read the socket timeout is clamped to the time remaining, so
/// no sequence of trickled bytes can stretch the total read time past
/// the deadline (each byte received resets a plain socket timeout —
/// that reset is exactly what a slowloris client exploits).
struct DeadlineStream {
    stream: TcpStream,
    deadline: Instant,
    io_timeout: Duration,
}

impl std::io::Read for DeadlineStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let remaining = self.deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                "connection deadline exceeded",
            ));
        }
        let _ = self
            .stream
            .set_read_timeout(Some(self.io_timeout.min(remaining)));
        self.stream.read(buf)
    }
}

/// Answers `408` (best-effort — the peer may be gone) and counts the
/// slow client when a request read failed because time ran out rather
/// than because the connection dropped.
fn abort_unfinished_read(reader: BufReader<DeadlineStream>, deadline: Instant) {
    if Instant::now() < deadline {
        // The read failed before the deadline: a reset or early close,
        // not a slow client. Nothing useful to write back.
        return;
    }
    SLOW_CLIENT_ABORTS.get().incr();
    let mut stream = reader.into_inner().stream;
    let body = "request not received within the connection deadline\n";
    if write!(
        stream,
        "HTTP/1.1 408 Request Timeout\r\nContent-Type: text/plain; charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .is_err()
    {
        CLIENT_ABORTS.get().incr();
    }
}

/// The bounded label a request is filed under — its latency histogram,
/// tail summary and SLO window: an exposition path, an `/api/` route
/// pattern with the session id collapsed to `:id`, or `other`.
fn route_label(path: &str) -> &'static str {
    EXPOSITION
        .iter()
        .map(|(exposed, _)| *exposed)
        .find(|exposed| *exposed == path)
        .or_else(|| Route::parse(path).map(|(route, _)| route.pattern()))
        .unwrap_or("other")
}

impl Plane {
    fn handle_connection(&self, stream: TcpStream, queue_wait: Duration) {
        let deadline = Instant::now() + self.connection_deadline;
        let _ = stream.set_read_timeout(Some(self.io_timeout));
        let _ = stream.set_write_timeout(Some(self.io_timeout));
        let mut reader = BufReader::new(DeadlineStream {
            stream,
            deadline,
            io_timeout: self.io_timeout,
        });
        // The `take` caps how many request-line + header bytes one
        // connection may feed us: past it `read_line` sees EOF, and we
        // answer 431 instead of buffering without bound. The body is
        // read separately below, under its own cap.
        let mut head = (&mut reader).take(MAX_HEADER_BYTES as u64);
        let mut request_line = String::new();
        if head.read_line(&mut request_line).is_err() {
            return abort_unfinished_read(reader, deadline);
        }
        // Drain headers (keeping Content-Length) so well-behaved clients
        // see a clean close.
        let mut saw_end = false;
        let mut content_length: usize = 0;
        let mut line = String::new();
        loop {
            line.clear();
            match head.read_line(&mut line) {
                Ok(0) => break,
                Ok(_) if line == "\r\n" || line == "\n" => {
                    saw_end = true;
                    break;
                }
                Ok(_) => {
                    if let Some((name, value)) = line.split_once(':') {
                        if name.trim().eq_ignore_ascii_case("content-length") {
                            content_length = value.trim().parse().unwrap_or(0);
                        }
                    }
                }
                Err(_) => return abort_unfinished_read(reader, deadline),
            }
        }
        REQUESTS.get().incr();
        let started = Instant::now();
        // Mint the request's causal context: every recorder span opened
        // while handling — on this thread or adopted by pool workers —
        // is stamped with this trace id. The accept-queue wait becomes
        // part of the request's wall time via a synthetic `wait.queue`
        // child span.
        let queue_wait_us = queue_wait.as_micros().min(u64::MAX as u128) as u64;
        WAIT_QUEUE.get().record(queue_wait_us);
        let seq = self.request_seq.fetch_add(1, Ordering::Relaxed);
        let ctx = TraceCtx::mint(self.config.trace_seed, seq);
        let queue_wait_ns = queue_wait.as_nanos().min(u64::MAX as u128) as u64;
        let trace = context::begin_request(ctx, "http.request", queue_wait_ns);
        let oversized = !saw_end && head.limit() == 0;
        let mut route = String::new();
        let response = if oversized {
            OVERSIZED.get().incr();
            text(
                431,
                format!("request line + headers exceed {MAX_HEADER_BYTES} bytes\n"),
            )
        } else if content_length > MAX_BODY_BYTES {
            text(
                413,
                format!("request body exceeds {MAX_BODY_BYTES} bytes\n"),
            )
        } else {
            let mut body = vec![0u8; content_length];
            if content_length > 0 && reader.read_exact(&mut body).is_err() {
                return abort_unfinished_read(reader, deadline);
            }
            let body = String::from_utf8_lossy(&body).into_owned();
            let mut parts = request_line.split_whitespace();
            let method = parts.next().unwrap_or("");
            let path = parts.next().unwrap_or("");
            route = path.split('?').next().unwrap_or("").to_owned();
            self.respond(method, path, body)
        };
        // Close the root span and offer the finished tree to the tail
        // store (summary always; full tree for slow/error/sampled).
        let finished = trace.finish();
        let label = route_label(&route);
        self.record_route_latency(
            label,
            started.elapsed().as_micros().min(u64::MAX as u128) as u64,
        );
        if cable_obs::enabled() {
            self.tail.record(label, response.status, &finished);
        }
        // One wide event per request: the server observes itself through
        // the same stream it serves (outcome = the status code). The SLO
        // window is keyed by the bounded label; the raw path rides along.
        events::emit(
            WideEvent::new("http_request", "http")
                .stage(label)
                .outcome(response.status.to_string())
                .duration(started.elapsed())
                .field("path", route)
                .field("bytes", response.body.len() as u64)
                .field("trace", finished.ctx.trace_hex()),
        );
        // Keep the persistent event log current through each request:
        // the chaos drill kills the server and then replays the fault
        // timeline from this file, so it must not trail by a buffer's
        // worth.
        events::flush_sink();
        let mut stream = reader.into_inner().stream;
        let retry_after = response
            .retry_after
            .map(|seconds| format!("Retry-After: {seconds}\r\n"))
            .unwrap_or_default();
        // A peer that hangs up mid-response (EPIPE / reset) is routine
        // under load-test churn: count it and move on — the request was
        // already served and accounted above.
        let wrote = write!(
            stream,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\n{}Content-Length: {}\r\nConnection: close\r\n\r\n",
            response.status,
            status_text(response.status),
            response.content_type,
            retry_after,
            response.body.len()
        )
        .and_then(|()| stream.write_all(response.body.as_bytes()))
        .and_then(|()| stream.flush());
        if wrote.is_err() {
            CLIENT_ABORTS.get().incr();
        }
    }

    fn respond(&self, method: &str, path: &str, body: String) -> ApiResponse {
        let (route, query) = match path.split_once('?') {
            Some((route, query)) => (route, Some(query)),
            None => (path, None),
        };
        // The API plane first: it owns its own methods and status codes.
        if route == "/api" || route.starts_with("/api/") {
            return match &self.api {
                Some(handler) => handler.handle(&ApiRequest {
                    method: method.to_owned(),
                    route: route.to_owned(),
                    query: query.map(str::to_owned),
                    body,
                }),
                None => text(
                    404,
                    "no session API is enabled (start `cable serve --api`)\n",
                ),
            };
        }
        if method != "GET" {
            return text(405, "only GET is served outside /api/\n");
        }
        match EXPOSITION.iter().find(|(exposed, _)| *exposed == route) {
            Some((_, answer)) => answer(self, query).unwrap_or_else(|e| text(400, e)),
            None => text(
                404,
                "try /metrics, /healthz, /tracez, /tracez/export, /eventz, /sloz, or /api/sessions\n",
            ),
        }
    }

    /// Records one request into the HTTP latency family: the global
    /// `http.request.us` and this server's series for its route label
    /// (`http_request_us_summary{route="..."}` on `/metrics`).
    fn record_route_latency(&self, label: &str, us: u64) {
        REQUEST_US.get().record(us);
        if let Some((_, hist)) = self.routes.iter().find(|(route, _)| *route == label) {
            hist.record(us);
        }
    }

    fn metrics(&self, query: Option<&str>) -> Result<ApiResponse, String> {
        parse_limit(query, 0)?;
        let routes: Vec<prom::Labelled> = self
            .routes
            .iter()
            .map(|(route, hist)| prom::Labelled {
                name: REQUEST_US.name(),
                label: ("route", route),
                hist: hist.snapshot(),
            })
            .filter(|series| series.hist.count > 0)
            .collect();
        Ok(ApiResponse {
            status: 200,
            content_type: "text/plain; version=0.0.4; charset=utf-8",
            body: prom::encode_full(&registry().snapshot(), &routes),
            retry_after: None,
        })
    }

    fn healthz(&self, query: Option<&str>) -> Result<ApiResponse, String> {
        parse_limit(query, 0)?;
        Ok(json(200, &healthz_json(self.health.as_ref())))
    }

    fn tracez(&self, query: Option<&str>) -> Result<ApiResponse, String> {
        Ok(match parse_tracez_query(query)? {
            TracezView::Lanes(limit) => json(200, &tracez_json(limit)),
            TracezView::Trace(id) => match self.tail.tree(&id) {
                Some((summary, spans)) => text(200, render_waterfall(&summary, &spans)),
                None => text(
                    404,
                    format!(
                        "no kept span tree for trace {id} (trees are kept for \
                         slow/error/sampled requests; see /tracez?slowest=N)\n"
                    ),
                ),
            },
            TracezView::Slowest(n) => json(200, &self.tail.slowest_json(n)),
        })
    }

    fn tracez_export(&self, query: Option<&str>) -> Result<ApiResponse, String> {
        parse_limit(query, 0)?;
        Ok(json(200, &self.tail.export()))
    }

    fn eventz(&self, query: Option<&str>) -> Result<ApiResponse, String> {
        let limit = parse_limit(query, EVENTZ_EVENT_LIMIT)?;
        Ok(json(200, &events::eventz_json(limit)))
    }

    fn sloz(&self, query: Option<&str>) -> Result<ApiResponse, String> {
        parse_limit(query, 0)?;
        Ok(json(200, &slo::sloz_json()))
    }
}

/// Parses an optional `?limit=N` query. `N` must be an integer in
/// `1..=`[`MAX_QUERY_LIMIT`]; any other query (unknown keys, garbage
/// values, out-of-range) is a client error.
fn parse_limit(query: Option<&str>, default: usize) -> Result<usize, String> {
    let Some(query) = query else {
        return Ok(default);
    };
    let mut limit = default;
    for pair in query.split('&').filter(|p| !p.is_empty()) {
        let (key, value) = pair.split_once('=').unwrap_or((pair, ""));
        if key != "limit" {
            return Err(format!("unknown query parameter {key:?}\n"));
        }
        match value.parse::<usize>() {
            Ok(n) if (1..=MAX_QUERY_LIMIT).contains(&n) => limit = n,
            _ => {
                return Err(format!(
                    "limit must be an integer in 1..={MAX_QUERY_LIMIT}, got {value:?}\n"
                ))
            }
        }
    }
    Ok(limit)
}

/// What one `/tracez` request asks for.
#[derive(Debug, Clone, PartialEq, Eq)]
enum TracezView {
    /// The recorder's Chrome export, at most this many records per lane.
    Lanes(usize),
    /// One kept request's waterfall, by 32-hex-digit trace id.
    Trace(String),
    /// The N slowest retained request summaries.
    Slowest(usize),
}

/// Parses the `/tracez` query: `limit=N` (lanes view), `trace=ID`, or
/// `slowest=N`; anything else is a client error. When several are
/// given, the last one wins.
fn parse_tracez_query(query: Option<&str>) -> Result<TracezView, String> {
    let Some(query) = query else {
        return Ok(TracezView::Lanes(TRACEZ_SPAN_LIMIT));
    };
    let mut view = TracezView::Lanes(TRACEZ_SPAN_LIMIT);
    for pair in query.split('&').filter(|p| !p.is_empty()) {
        let (key, value) = pair.split_once('=').unwrap_or((pair, ""));
        match key {
            "limit" => match value.parse::<usize>() {
                Ok(n) if (1..=MAX_QUERY_LIMIT).contains(&n) => view = TracezView::Lanes(n),
                _ => {
                    return Err(format!(
                        "limit must be an integer in 1..={MAX_QUERY_LIMIT}, got {value:?}\n"
                    ))
                }
            },
            "trace" => match context::parse_trace_hex(value) {
                Some(_) => view = TracezView::Trace(value.to_owned()),
                None => return Err(format!("trace must be 32 hex digits, got {value:?}\n")),
            },
            "slowest" => match value.parse::<usize>() {
                Ok(n) if (1..=MAX_QUERY_LIMIT).contains(&n) => view = TracezView::Slowest(n),
                _ => {
                    return Err(format!(
                        "slowest must be an integer in 1..={MAX_QUERY_LIMIT}, got {value:?}\n"
                    ))
                }
            },
            _ => return Err(format!("unknown query parameter {key:?}\n")),
        }
    }
    Ok(view)
}

fn healthz_json(health: Option<&HealthInfo>) -> Value {
    let build = cable_obs::build_info();
    let degraded_cause = health.and_then(|h| h.degraded.clone());
    let mut pairs = vec![
        (
            "status",
            Value::from(if degraded_cause.is_some() {
                "degraded"
            } else {
                "ok"
            }),
        ),
        ("version", Value::from(build.version)),
        ("git_hash", Value::from(build.git_hash)),
        ("uptime_seconds", Value::from(cable_obs::uptime_seconds())),
    ];
    match health {
        Some(h) => {
            pairs.push(("store", Value::from("open")));
            pairs.push(("generation", Value::from(h.generation)));
            pairs.push(("journal_lag_bytes", Value::from(h.journal_lag_bytes)));
            pairs.push(("journal_lag_records", Value::from(h.journal_lag_records)));
        }
        None => pairs.push(("store", Value::from("none"))),
    }
    match degraded_cause {
        Some(cause) => pairs.push(("degraded", Value::from(cause))),
        None => pairs.push(("degraded", Value::from(false))),
    }
    pairs.push(("durability", durability_json()));
    pairs.push(("guard", guard_json()));
    Value::object(pairs)
}

/// Degraded-mode counters for `/healthz`, read from the registry by
/// name: `degraded_now` is derived as enters minus exits, so it reads
/// `1` while the store is read-only even though the server's
/// [`HealthInfo`] is a snapshot taken at bind.
fn durability_json() -> Value {
    let snapshot = registry().snapshot();
    let read = |name: &str| snapshot.counter(name).unwrap_or(0);
    let enter = read("store.degraded.enter");
    let exit = read("store.degraded.exit");
    Value::object([
        ("degraded_now", Value::from(enter.saturating_sub(exit))),
        ("degraded_enters", Value::from(enter)),
        ("degraded_exits", Value::from(exit)),
        (
            "refused_writes",
            Value::from(read("store.degraded.refusals")),
        ),
        ("recoveries", Value::from(read("core.session.recoveries"))),
        ("client_aborts", Value::from(read("http.client_abort"))),
        (
            "slow_client_aborts",
            Value::from(read("obs.http.slow_client_aborts")),
        ),
    ])
}

/// Guard/robustness counters for `/healthz`, read from the registry by
/// name like [`durability_json`].
fn guard_json() -> Value {
    let snapshot = registry().snapshot();
    let read = |name: &str| Value::from(snapshot.counter(name).unwrap_or(0));
    Value::object([
        ("checkpoints", read("guard.checkpoints")),
        ("budget_exceeded", read("guard.budget_exceeded")),
        ("task_panics", read("par.task_panics")),
    ])
}

/// The `/tracez` body: the recorder's Chrome trace-event export of the
/// newest `limit` records per lane (each lane's `dropped` count rides
/// in its `thread_name` metadata), plus whether observation is on and
/// the self-time profile of the whole rings.
fn tracez_json(limit: usize) -> Value {
    let mut lanes = recorder::snapshot();
    let profile = chrome::profile_json(&chrome::self_time(&lanes));
    for lane in &mut lanes {
        lane.records
            .drain(..lane.records.len().saturating_sub(limit));
    }
    let mut body = chrome::chrome_trace(&lanes);
    if let Value::Object(fields) = &mut body {
        fields.insert("recording".into(), Value::from(cable_obs::enabled()));
        fields.insert("profile".into(), profile);
    }
    body
}

/// One retained request summary.
#[derive(Debug, Clone)]
struct TraceSummary {
    /// 32-hex-digit trace id.
    trace: String,
    /// Root span id.
    root: u64,
    /// The route label.
    route: String,
    /// HTTP status the request finished with.
    status: u16,
    /// Root-span wall time (includes accept-queue wait), microseconds.
    wall_us: u64,
    /// Spans collected for the request.
    spans: usize,
    /// Spans lost to the per-request cap.
    dropped: u64,
    /// Why the full tree was kept: `slow`, `error`, `sampled`, or the
    /// empty string when only this summary survives.
    kept: &'static str,
}

/// The server's tail store: bounded rings of request summaries and kept
/// span trees (see the module docs).
struct TailStore {
    slow_us: u64,
    rings: Mutex<TailRings>,
}

#[derive(Default)]
struct TailRings {
    summaries: VecDeque<TraceSummary>,
    trees: VecDeque<(TraceSummary, Vec<SpanRec>)>,
    /// Requests ever offered (drives the 1-in-N sample).
    seen: u64,
}

impl TailStore {
    fn new(slow_us: u64) -> TailStore {
        TailStore {
            slow_us,
            rings: Mutex::new(TailRings::default()),
        }
    }

    fn rings(&self) -> std::sync::MutexGuard<'_, TailRings> {
        self.rings.lock().expect("tail store poisoned")
    }

    /// Offers a finished request. Returns the retention decision
    /// (`slow`/`error`/`sampled`, or `""` for summary-only).
    fn record(&self, route: &str, status: u16, finished: &FinishedTrace) -> &'static str {
        let wall_us = finished.wall_us();
        let mut tail = self.rings();
        tail.seen += 1;
        let kept = if status >= 500 {
            "error"
        } else if wall_us >= self.slow_us {
            "slow"
        } else if tail.seen.is_multiple_of(SAMPLE_EVERY) {
            "sampled"
        } else {
            ""
        };
        let summary = TraceSummary {
            trace: finished.ctx.trace_hex(),
            root: finished.ctx.span_id,
            route: route.to_owned(),
            status,
            wall_us,
            spans: finished.spans.len(),
            dropped: finished.dropped,
            kept,
        };
        if !kept.is_empty() && !finished.spans.is_empty() {
            if tail.trees.len() >= TREE_CAP {
                tail.trees.pop_front();
            }
            tail.trees
                .push_back((summary.clone(), finished.spans.clone()));
        }
        if tail.summaries.len() >= SUMMARY_CAP {
            tail.summaries.pop_front();
        }
        tail.summaries.push_back(summary);
        kept
    }

    /// The `n` slowest retained summaries, slowest first (ties broken by
    /// trace id so the index is stable).
    fn slowest(&self, n: usize) -> Vec<TraceSummary> {
        let mut out: Vec<TraceSummary> = self.rings().summaries.iter().cloned().collect();
        out.sort_by(|a, b| {
            b.wall_us
                .cmp(&a.wall_us)
                .then_with(|| a.trace.cmp(&b.trace))
        });
        out.truncate(n);
        out
    }

    /// Looks up a kept span tree by its 32-hex-digit trace id.
    fn tree(&self, trace_hex: &str) -> Option<(TraceSummary, Vec<SpanRec>)> {
        self.rings()
            .trees
            .iter()
            .rev()
            .find(|(summary, _)| summary.trace == trace_hex)
            .cloned()
    }

    /// The `/tracez?slowest=N` body: the N slowest retained summaries.
    fn slowest_json(&self, n: usize) -> Value {
        Value::object([
            ("record", Value::from("trace_slowest")),
            ("slow_threshold_us", Value::from(self.slow_us)),
            (
                "slowest",
                Value::Array(self.slowest(n).iter().map(summary_json).collect()),
            ),
        ])
    }

    /// The whole store as a `trace_export` JSON record: every summary
    /// plus every kept span tree. `reproduce trace-report` and
    /// `check-trace` consume this.
    fn export(&self) -> Value {
        let tail = self.rings();
        let summaries: Vec<Value> = tail.summaries.iter().map(summary_json).collect();
        let traces: Vec<Value> = tail
            .trees
            .iter()
            .map(|(s, spans)| {
                Value::object([
                    ("trace", Value::from(s.trace.as_str())),
                    ("root", Value::from(hex16(s.root))),
                    ("route", Value::from(s.route.as_str())),
                    ("status", Value::from(s.status as u64)),
                    ("wall_us", Value::from(s.wall_us)),
                    ("dropped", Value::from(s.dropped)),
                    ("kept", Value::from(s.kept)),
                    (
                        "spans_tree",
                        Value::Array(spans.iter().map(span_json).collect()),
                    ),
                ])
            })
            .collect();
        Value::object([
            ("record", Value::from("trace_export")),
            ("slow_threshold_us", Value::from(self.slow_us)),
            ("sample_every", Value::from(SAMPLE_EVERY)),
            ("seen", Value::from(tail.seen)),
            ("summaries", Value::Array(summaries)),
            ("traces", Value::Array(traces)),
        ])
    }
}

fn hex16(v: u64) -> String {
    format!("{v:016x}")
}

fn summary_json(s: &TraceSummary) -> Value {
    Value::object([
        ("trace", Value::from(s.trace.as_str())),
        ("root", Value::from(hex16(s.root))),
        ("route", Value::from(s.route.as_str())),
        ("status", Value::from(s.status as u64)),
        ("wall_us", Value::from(s.wall_us)),
        ("spans", Value::from(s.spans as u64)),
        ("dropped", Value::from(s.dropped)),
        ("kept", Value::from(s.kept)),
    ])
}

fn span_json(s: &SpanRec) -> Value {
    Value::object([
        ("name", Value::from(s.name)),
        ("span", Value::from(hex16(s.span))),
        ("parent", Value::from(hex16(s.parent))),
        ("start_ns", Value::from(s.start_ns)),
        ("end_ns", Value::from(s.end_ns)),
    ])
}

/// Renders a kept tree as a plain-text waterfall: one line per span,
/// indented by tree depth, with offset/duration and a proportional bar.
fn render_waterfall(summary: &TraceSummary, spans: &[SpanRec]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "trace {}  route {}  status {}  wall {}us  spans {}{}",
        summary.trace,
        summary.route,
        summary.status,
        summary.wall_us,
        summary.spans,
        if summary.dropped > 0 {
            format!("  dropped {}", summary.dropped)
        } else {
            String::new()
        },
    );
    let t0 = spans.iter().map(|s| s.start_ns).min().unwrap_or(0);
    let t1 = spans.iter().map(|s| s.end_ns).max().unwrap_or(t0);
    let total = (t1 - t0).max(1);
    // Children under their parent, siblings by start time.
    fn visit<'a>(
        parent: u64,
        depth: usize,
        spans: &'a [SpanRec],
        out: &mut Vec<(&'a SpanRec, usize)>,
    ) {
        let mut kids: Vec<&SpanRec> = spans.iter().filter(|s| s.parent == parent).collect();
        kids.sort_by_key(|s| (s.start_ns, s.span));
        for kid in kids {
            out.push((kid, depth));
            if depth < 64 {
                visit(kid.span, depth + 1, spans, out);
            }
        }
    }
    let mut rows: Vec<(&SpanRec, usize)> = Vec::with_capacity(spans.len());
    visit(0, 0, spans, &mut rows);
    // Orphans (parent not kept, e.g. collector overflow) still print.
    for s in spans {
        if !rows.iter().any(|(r, _)| r.span == s.span) {
            rows.push((s, 0));
        }
    }
    const BAR: usize = 40;
    for (span, depth) in rows {
        let offset = span.start_ns - t0;
        let dur = span.duration_ns();
        let lead = ((offset as u128 * BAR as u128) / total as u128) as usize;
        let fill = ((dur as u128 * BAR as u128).div_ceil(total as u128)) as usize;
        let fill = fill.clamp(1, BAR.saturating_sub(lead).max(1));
        let _ = writeln!(
            out,
            "  [{}{}{}] {:>9.1}us @{:>9.1}us  {}{} ({:016x})",
            " ".repeat(lead.min(BAR)),
            "█".repeat(fill),
            " ".repeat(BAR.saturating_sub(lead.min(BAR) + fill)),
            dur as f64 / 1e3,
            offset as f64 / 1e3,
            "· ".repeat(depth),
            span.name,
            span.span,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::ErrorKind;

    /// Reads until EOF or a hard error. A read a signal interrupted is
    /// retried: a blocking socket read under a timeout returns `EINTR`
    /// rather than restarting (signal(7)), which is no end of stream.
    fn read_all(stream: &mut TcpStream) -> String {
        let mut bytes = Vec::new();
        let mut buf = [0u8; 1024];
        loop {
            match stream.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => bytes.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
        String::from_utf8_lossy(&bytes).into_owned()
    }

    fn get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read response");
        let (head, body) = response
            .split_once("\r\n\r\n")
            .expect("response has a header/body split");
        (head.to_owned(), body.to_owned())
    }

    fn post(addr: SocketAddr, path: &str, body: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(
            stream,
            "POST {path} HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read response");
        let (head, body) = response
            .split_once("\r\n\r\n")
            .expect("response has a header/body split");
        (head.to_owned(), body.to_owned())
    }

    #[test]
    fn parse_listen_addr_accepts_bare_ports_and_full_addrs() {
        assert_eq!(
            parse_listen_addr("0").unwrap(),
            SocketAddr::from(([127, 0, 0, 1], 0))
        );
        assert_eq!(
            parse_listen_addr("9090").unwrap(),
            SocketAddr::from(([127, 0, 0, 1], 9090))
        );
        assert_eq!(
            parse_listen_addr("0.0.0.0:7777").unwrap(),
            SocketAddr::from(([0, 0, 0, 0], 7777))
        );
        assert!(parse_listen_addr("not-an-addr").is_err());
    }

    #[test]
    fn server_answers_metrics_healthz_tracez_and_404() {
        registry().counter("obs.test.http_unit").add(3);
        let guard = ObsServer::bind("0").expect("bind ephemeral").spawn();
        let addr = guard.addr();

        let (head, body) = get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert!(body.contains("obs_test_http_unit 3"), "{body}");

        let (head, body) = get(addr, "/healthz");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        let health = Value::parse(body.trim()).expect("healthz is JSON");
        assert_eq!(health.get("status").and_then(Value::as_str), Some("ok"));
        let counters = health.get("guard").expect("healthz reports guard counters");
        assert!(counters
            .get("checkpoints")
            .and_then(Value::as_u64)
            .is_some());
        assert!(counters
            .get("task_panics")
            .and_then(Value::as_u64)
            .is_some());

        let (head, body) = get(addr, "/tracez");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        let tracez = Value::parse(body.trim()).expect("tracez is JSON");
        assert!(tracez
            .get("traceEvents")
            .and_then(Value::as_array)
            .is_some());
        assert!(tracez.get("recording").and_then(Value::as_bool).is_some());

        let (head, _) = get(addr, "/nope");
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");

        drop(guard); // must join cleanly
    }

    /// Binds a server holding `health`, fetches `/healthz`, and stops it.
    fn healthz_with(health: Option<HealthInfo>) -> Value {
        let guard = ObsServer::bind_with("0", ServerConfig::default(), None, health)
            .expect("bind ephemeral")
            .spawn();
        let (head, body) = get(guard.addr(), "/healthz");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        Value::parse(body.trim()).expect("healthz is JSON")
    }

    #[test]
    fn healthz_reports_the_store_health_the_server_was_built_with() {
        let health = healthz_with(None);
        assert_eq!(health.get("store").and_then(Value::as_str), Some("none"));

        let health = healthz_with(Some(HealthInfo {
            generation: 4,
            journal_lag_bytes: 128,
            journal_lag_records: 2,
            degraded: None,
        }));
        assert_eq!(health.get("store").and_then(Value::as_str), Some("open"));
        assert_eq!(health.get("generation").and_then(Value::as_u64), Some(4));
        assert_eq!(
            health.get("journal_lag_bytes").and_then(Value::as_u64),
            Some(128)
        );
        assert_eq!(health.get("status").and_then(Value::as_str), Some("ok"));
        assert_eq!(health.get("degraded").and_then(Value::as_bool), Some(false));
        assert!(health
            .get("durability")
            .and_then(|d| d.get("degraded_now"))
            .and_then(Value::as_u64)
            .is_some());

        let health = healthz_with(Some(HealthInfo {
            generation: 4,
            journal_lag_bytes: 128,
            journal_lag_records: 2,
            degraded: Some("fsync".to_owned()),
        }));
        assert_eq!(
            health.get("status").and_then(Value::as_str),
            Some("degraded")
        );
        assert_eq!(
            health.get("degraded").and_then(Value::as_str),
            Some("fsync")
        );
    }

    #[test]
    fn healthz_reports_build_identity_and_uptime() {
        let guard = ObsServer::bind("0").expect("bind ephemeral").spawn();
        let (_, body) = get(guard.addr(), "/healthz");
        let health = Value::parse(body.trim()).expect("healthz is JSON");
        assert_eq!(
            health.get("version").and_then(Value::as_str),
            Some(env!("CARGO_PKG_VERSION"))
        );
        assert!(health.get("git_hash").and_then(Value::as_str).is_some());
        assert!(health
            .get("uptime_seconds")
            .and_then(Value::as_u64)
            .is_some());
        drop(guard);
    }

    #[test]
    fn eventz_and_sloz_serve_json() {
        let guard = ObsServer::bind("0").expect("bind ephemeral").spawn();
        let addr = guard.addr();

        let (head, body) = get(addr, "/eventz");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        let eventz = Value::parse(body.trim()).expect("eventz is JSON");
        assert!(eventz.get("events").and_then(Value::as_array).is_some());
        assert!(eventz.get("total").and_then(Value::as_u64).is_some());

        let (head, body) = get(addr, "/sloz");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        let sloz = Value::parse(body.trim()).expect("sloz is JSON");
        assert!(sloz.get("windows").and_then(Value::as_array).is_some());
        assert!(sloz.get("error_budget").and_then(Value::as_f64).is_some());

        drop(guard);
    }

    #[test]
    fn limit_query_is_validated() {
        assert_eq!(parse_limit(None, 7), Ok(7));
        assert_eq!(parse_limit(Some("limit=3"), 7), Ok(3));
        assert_eq!(parse_limit(Some(""), 7), Ok(7));
        assert!(parse_limit(Some("limit=0"), 7).is_err());
        assert!(parse_limit(Some("limit=-1"), 7).is_err());
        assert!(parse_limit(Some("limit=abc"), 7).is_err());
        assert!(parse_limit(Some("limit="), 7).is_err());
        assert!(parse_limit(Some("limit=999999999"), 7).is_err());
        assert!(parse_limit(Some("frobnicate=1"), 7).is_err());

        let guard = ObsServer::bind("0").expect("bind ephemeral").spawn();
        let addr = guard.addr();
        let (head, _) = get(addr, "/tracez?limit=5");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        let (head, body) = get(addr, "/tracez?limit=garbage");
        assert!(head.starts_with("HTTP/1.1 400"), "{head}");
        assert!(body.contains("limit must be an integer"), "{body}");
        let (head, _) = get(addr, "/eventz?limit=0");
        assert!(head.starts_with("HTTP/1.1 400"), "{head}");
        let (head, _) = get(addr, "/metrics?unknown=1");
        assert!(head.starts_with("HTTP/1.1 400"), "{head}");
        drop(guard);
    }

    #[test]
    fn tracez_query_views_parse_and_reject_garbage() {
        let hex = "0123456789abcdef0123456789abcdef";
        assert_eq!(
            parse_tracez_query(None),
            Ok(TracezView::Lanes(TRACEZ_SPAN_LIMIT))
        );
        assert_eq!(
            parse_tracez_query(Some("limit=9")),
            Ok(TracezView::Lanes(9))
        );
        assert_eq!(
            parse_tracez_query(Some(&format!("trace={hex}"))),
            Ok(TracezView::Trace(hex.to_owned()))
        );
        assert_eq!(
            parse_tracez_query(Some("slowest=5")),
            Ok(TracezView::Slowest(5))
        );
        assert!(parse_tracez_query(Some("trace=short")).is_err());
        assert!(parse_tracez_query(Some("trace=zz23456789abcdef0123456789abcdef")).is_err());
        assert!(parse_tracez_query(Some("slowest=0")).is_err());
        assert!(parse_tracez_query(Some("slowest=abc")).is_err());
        assert!(parse_tracez_query(Some("frob=1")).is_err());
    }

    #[test]
    fn route_labels_are_bounded() {
        assert_eq!(route_label("/metrics"), "/metrics");
        assert_eq!(route_label("/tracez/export"), "/tracez/export");
        assert_eq!(
            route_label("/api/sessions/s-42/ingest"),
            "/api/sessions/:id/ingest"
        );
        assert_eq!(route_label("/api/sessions"), "/api/sessions");
        assert_eq!(route_label("/api/sessions/"), "/api/sessions");
        assert_eq!(
            route_label("/api/sessions/x/digest"),
            "/api/sessions/:id/digest"
        );
        assert_eq!(route_label("/api/sessions/x/frobnicate"), "other");
        assert_eq!(route_label("/api/unknown/thing"), "other");
        assert_eq!(route_label("/api"), "other");
        assert_eq!(route_label("/favicon.ico"), "other");
        assert_eq!(route_label(""), "other");
    }

    /// A finished request whose root spans `wall_us`, with `n_spans - 1`
    /// children.
    fn finished(seq: u64, wall_us: u64, n_spans: usize) -> FinishedTrace {
        let ctx = TraceCtx::mint(99, seq);
        let mut spans = vec![SpanRec {
            span: ctx.span_id,
            ..SpanRec::plain("http.request", 1_000, 1_000 + wall_us * 1_000)
        }];
        for i in 0..n_spans.saturating_sub(1) as u64 {
            spans.push(SpanRec {
                span: context::mix(ctx.span_id, i + 1),
                parent: ctx.span_id,
                ..SpanRec::plain("step", 1_100 + i, 1_200 + i)
            });
        }
        FinishedTrace {
            ctx,
            spans,
            dropped: 0,
        }
    }

    #[test]
    fn retention_keeps_slow_error_and_sampled_trees() {
        let tail = TailStore::new(5_000);
        assert_eq!(tail.record("/api/label", 200, &finished(1, 100, 3)), "");
        assert_eq!(
            tail.record("/api/label", 200, &finished(2, 9_000, 3)),
            "slow"
        );
        assert_eq!(
            tail.record("/api/label", 500, &finished(3, 100, 3)),
            "error"
        );
        // Fast, successful requests keep their tree one in SAMPLE_EVERY.
        for seq in 4..SAMPLE_EVERY {
            assert_eq!(tail.record("/api/label", 200, &finished(seq, 100, 3)), "");
        }
        let sampled = finished(SAMPLE_EVERY, 100, 3);
        assert_eq!(tail.record("/api/label", 200, &sampled), "sampled");

        let idx = tail.slowest(10);
        assert_eq!(idx.len(), 10);
        assert_eq!(idx[0].wall_us, 9_000, "slowest first");
        // Fast unsampled request: summary only, no tree.
        assert!(tail.tree(&finished(1, 100, 3).ctx.trace_hex()).is_none());
        assert!(tail.tree(&sampled.ctx.trace_hex()).is_some());
        let slow = finished(2, 9_000, 3).ctx.trace_hex();
        let (summary, spans) = tail.tree(&slow).expect("slow tree kept");
        assert_eq!(summary.kept, "slow");
        assert_eq!(spans.len(), 3);
        let text = render_waterfall(&summary, &spans);
        assert!(text.contains("http.request"), "{text}");
        assert!(text.contains("step"), "{text}");
    }

    #[test]
    fn export_round_trips_and_is_bounded() {
        let tail = TailStore::new(0); // keep everything
        for seq in 0..(SUMMARY_CAP + 10) as u64 {
            tail.record("/api/ingest", 200, &finished(seq, 50, 2));
        }
        let value = tail.export();
        assert_eq!(
            value.get("record").and_then(Value::as_str),
            Some("trace_export")
        );
        let summaries = value.get("summaries").and_then(Value::as_array).unwrap();
        assert_eq!(summaries.len(), SUMMARY_CAP, "summary ring is bounded");
        let trees = value.get("traces").and_then(Value::as_array).unwrap();
        assert_eq!(trees.len(), TREE_CAP, "tree ring is bounded");
        let spans = trees[0]
            .get("spans_tree")
            .and_then(Value::as_array)
            .unwrap();
        assert_eq!(spans.len(), 2);
        assert!(spans[0].get("span").and_then(Value::as_str).is_some());
        // Round-trips through the hand-rolled JSON.
        let text = value.to_string();
        assert_eq!(Value::parse(&text).unwrap(), value);
    }

    #[test]
    fn tracez_serves_waterfalls_slowest_index_and_export() {
        // Seed one slow request's tree directly into the server's tail
        // store (the end-to-end mint → collect path needs the global
        // observation switch, which the span_record integration test
        // owns in its own process).
        let ctx = TraceCtx::mint(7, 1);
        let finished = FinishedTrace {
            ctx,
            spans: vec![
                SpanRec {
                    span: context::mix(ctx.span_id, 1),
                    parent: ctx.span_id,
                    ..SpanRec::plain("wait.fsync", 2_000, 80_000_000)
                },
                SpanRec {
                    span: ctx.span_id,
                    ..SpanRec::plain("http.request", 1_000, 100_001_000)
                },
            ],
            dropped: 0,
        };
        let server = ObsServer::bind("0").expect("bind ephemeral");
        assert_eq!(
            server
                .plane
                .tail
                .record("/api/sessions/:id/ingest", 200, &finished),
            "slow"
        );
        let guard = server.spawn();
        let addr = guard.addr();

        let slow_id = ctx.trace_hex();
        let (head, body) = get(addr, &format!("/tracez?trace={slow_id}"));
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert!(body.contains("http.request"), "{body}");
        assert!(body.contains("wait.fsync"), "{body}");

        let (head, _) = get(addr, "/tracez?trace=ffffffffffffffffffffffffffffffff");
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");

        let (head, body) = get(addr, "/tracez?slowest=3");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        let index = Value::parse(body.trim()).expect("slowest is JSON");
        let rows = index.get("slowest").and_then(Value::as_array).unwrap();
        assert!(
            rows.iter()
                .any(|r| r.get("trace").and_then(Value::as_str) == Some(slow_id.as_str())),
            "{body}"
        );

        let (head, body) = get(addr, "/tracez/export");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        let export = Value::parse(body.trim()).expect("export is JSON");
        assert_eq!(
            export.get("record").and_then(Value::as_str),
            Some("trace_export")
        );
        assert!(export
            .get("traces")
            .and_then(Value::as_array)
            .is_some_and(|t| !t.is_empty()));
        drop(guard);
    }

    #[test]
    fn trace_slow_us_is_the_servers_own_threshold() {
        let server = ObsServer::bind_with(
            "0",
            ServerConfig {
                trace_slow_us: 123,
                ..ServerConfig::default()
            },
            None,
            None,
        )
        .expect("bind ephemeral");
        assert_eq!(
            server
                .plane
                .tail
                .record("/metrics", 200, &finished(1, 200, 1)),
            "slow"
        );
        let guard = server.spawn();
        let (_, body) = get(guard.addr(), "/tracez?slowest=1");
        let index = Value::parse(body.trim()).expect("slowest is JSON");
        assert_eq!(
            index.get("slow_threshold_us").and_then(Value::as_u64),
            Some(123)
        );
        drop(guard);
    }

    #[test]
    fn metrics_exports_per_route_latency_and_queue_wait_families() {
        let guard = ObsServer::bind("0").expect("bind ephemeral").spawn();
        let addr = guard.addr();
        // One request to /healthz populates its route histogram; the
        // next /metrics scrape must show the labelled family and the
        // queue wait histogram.
        let _ = get(addr, "/healthz");
        let (_, body) = get(addr, "/metrics");
        assert!(
            body.contains("http_request_us_summary{route=\"/healthz\""),
            "per-route family missing: {body}"
        );
        assert!(body.contains("wait_queue_us_bucket"), "{body}");
        drop(guard);
    }

    #[test]
    fn each_server_exports_only_its_own_route_series() {
        let guards = [
            ObsServer::bind("0").expect("bind ephemeral").spawn(),
            ObsServer::bind("0").expect("bind ephemeral").spawn(),
        ];
        for guard in &guards {
            let (status, _) = get(guard.addr(), "/healthz");
            assert!(status.starts_with("HTTP/1.1 200"), "{status}");
        }
        for guard in &guards {
            let (_, body) = get(guard.addr(), "/metrics");
            let own = body
                .lines()
                .filter(|line| *line == "http_request_us_summary_count{route=\"/healthz\"} 1")
                .count();
            assert_eq!(own, 1, "{body}");
        }
    }

    #[test]
    fn oversized_headers_get_431_not_an_unbounded_buffer() {
        let guard = ObsServer::bind("0").expect("bind ephemeral").spawn();
        let mut stream = TcpStream::connect(guard.addr()).expect("connect");
        write!(stream, "GET /metrics HTTP/1.1\r\n").unwrap();
        // One absurd header, comfortably past the cap.
        let filler = "x".repeat(2 * MAX_HEADER_BYTES);
        let _ = write!(stream, "X-Filler: {filler}\r\n\r\n");
        // The server stops reading at the cap and closes; unread bytes
        // on its side can turn the close into a reset, so read whatever
        // arrives instead of insisting on a clean EOF.
        let response = read_all(&mut stream);
        assert!(
            response.starts_with("HTTP/1.1 431"),
            "expected 431, got: {}",
            response.lines().next().unwrap_or("")
        );
        assert!(OVERSIZED.get().get() >= 1);
        drop(guard);
    }

    #[test]
    fn requests_under_the_cap_are_unaffected_by_the_limit() {
        let guard = ObsServer::bind("0").expect("bind ephemeral").spawn();
        let mut stream = TcpStream::connect(guard.addr()).expect("connect");
        // Several headers, well under MAX_HEADER_BYTES in total.
        write!(stream, "GET /healthz HTTP/1.1\r\nHost: x\r\n").unwrap();
        for i in 0..8 {
            write!(stream, "X-H{i}: {}\r\n", "v".repeat(64)).unwrap();
        }
        write!(stream, "\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read response");
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
        drop(guard);
    }

    #[test]
    fn oversized_bodies_get_413() {
        let guard = ObsServer::bind("0").expect("bind ephemeral").spawn();
        let mut stream = TcpStream::connect(guard.addr()).expect("connect");
        write!(
            stream,
            "POST /api/sessions HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        )
        .unwrap();
        let response = read_all(&mut stream);
        assert!(
            response.starts_with("HTTP/1.1 413"),
            "expected 413, got: {}",
            response.lines().next().unwrap_or("")
        );
        drop(guard);
    }

    #[test]
    fn api_routes_404_without_a_handler_and_dispatch_with_one() {
        struct Echo;
        impl ApiHandler for Echo {
            fn handle(&self, request: &ApiRequest) -> ApiResponse {
                ApiResponse::json(
                    200,
                    &Value::object([
                        ("method", Value::from(request.method.as_str())),
                        ("route", Value::from(request.route.as_str())),
                        (
                            "query",
                            request
                                .query
                                .as_deref()
                                .map(Value::from)
                                .unwrap_or(Value::Null),
                        ),
                        ("body", Value::from(request.body.as_str())),
                    ]),
                )
            }
        }
        let bare = ObsServer::bind("0").expect("bind ephemeral").spawn();
        let (head, body) = get(bare.addr(), "/api/sessions");
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");
        assert!(body.contains("--api"), "{body}");
        drop(bare);

        let guard = ObsServer::bind_with("0", ServerConfig::default(), Some(Arc::new(Echo)), None)
            .expect("bind ephemeral")
            .spawn();
        let (head, body) = post(
            guard.addr(),
            "/api/sessions/s1/ingest?tenant=t",
            "{\"x\":1}",
        );
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        let echoed = Value::parse(body.trim()).expect("echo is JSON");
        assert_eq!(echoed.get("method").and_then(Value::as_str), Some("POST"));
        assert_eq!(
            echoed.get("route").and_then(Value::as_str),
            Some("/api/sessions/s1/ingest")
        );
        assert_eq!(
            echoed.get("query").and_then(Value::as_str),
            Some("tenant=t")
        );
        assert_eq!(
            echoed.get("body").and_then(Value::as_str),
            Some("{\"x\":1}")
        );
        drop(guard);
    }

    #[test]
    fn non_get_outside_the_api_is_405() {
        let guard = ObsServer::bind("0").expect("bind ephemeral").spawn();
        let (head, _) = post(guard.addr(), "/metrics", "");
        assert!(head.starts_with("HTTP/1.1 405"), "{head}");
        drop(guard);
    }

    #[test]
    fn queue_full_sheds_with_429_and_retry_after() {
        // One worker, zero queue: a second concurrent connection must be
        // shed with 429 + Retry-After while the first is being served.
        let guard = ObsServer::bind_with(
            "0",
            ServerConfig {
                max_connections: 1,
                queue_depth: 0,
                ..ServerConfig::default()
            },
            None,
            None,
        )
        .expect("bind ephemeral")
        .spawn();
        let addr = guard.addr();
        // Occupy the only worker with an idle connection (it waits up to
        // the 2 s read timeout for a request line).
        let first = TcpStream::connect(addr).expect("occupy worker");
        // Give the worker a moment to pick the first connection up.
        std::thread::sleep(Duration::from_millis(100));
        let mut second = TcpStream::connect(addr).expect("connect past capacity");
        second
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut response = String::new();
        second.read_to_string(&mut response).expect("read 429");
        assert!(
            response.starts_with("HTTP/1.1 429"),
            "expected 429, got: {}",
            response.lines().next().unwrap_or("")
        );
        assert!(
            response.contains(&format!("Retry-After: {RETRY_AFTER_SECONDS}")),
            "{response}"
        );
        assert!(REJECTED.get().get() >= 1);
        drop(first);
        drop(guard);
    }

    #[test]
    fn queued_connections_are_served_when_a_worker_frees_up() {
        let guard = ObsServer::bind_with(
            "0",
            ServerConfig {
                max_connections: 1,
                queue_depth: 8,
                ..ServerConfig::default()
            },
            None,
            None,
        )
        .expect("bind ephemeral")
        .spawn();
        let addr = guard.addr();
        // Hold the worker briefly with an idle connection, then issue a
        // real request: it queues, and once the idle connection times
        // out (2 s), the worker serves it.
        let idle = TcpStream::connect(addr).expect("idle");
        std::thread::sleep(Duration::from_millis(50));
        let mut stream = TcpStream::connect(addr).expect("queued connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        write!(stream, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read response");
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
        drop(idle);
        drop(guard);
    }

    #[test]
    fn bind_rejects_zero_workers() {
        assert!(ObsServer::bind_with(
            "0",
            ServerConfig {
                max_connections: 0,
                queue_depth: 4,
                ..ServerConfig::default()
            },
            None,
            None,
        )
        .is_err());
    }

    #[test]
    fn slow_client_gets_408_past_the_connection_deadline() {
        // Tight deadline: a client that trickles its request line slower
        // than the connection deadline must be cut off with 408 and
        // counted, not held for the full io_timeout per byte.
        let mut server = ObsServer::bind("0").expect("bind ephemeral");
        server.plane.io_timeout = Duration::from_millis(400);
        server.plane.connection_deadline = Duration::from_millis(300);
        let guard = server.spawn();
        let before = SLOW_CLIENT_ABORTS.get().get();
        let mut stream = TcpStream::connect(guard.addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        // Trickle one byte at a time: each write arrives within the
        // io_timeout, so only the absolute deadline can stop us.
        let started = Instant::now();
        let mut response = String::new();
        for byte in b"GET /healthz HTTP/1.1\r\n" {
            if stream.write_all(&[*byte]).is_err() {
                break; // server already hung up on us — expected
            }
            std::thread::sleep(Duration::from_millis(50));
            if started.elapsed() > Duration::from_secs(3) {
                break;
            }
        }
        let _ = stream.read_to_string(&mut response);
        assert!(
            response.starts_with("HTTP/1.1 408") || response.is_empty(),
            "expected a 408 or a cut connection, got: {}",
            response.lines().next().unwrap_or("")
        );
        assert!(
            SLOW_CLIENT_ABORTS.get().get() > before,
            "slow client must be counted"
        );
        drop(guard);
    }

    #[test]
    fn client_abort_during_response_write_is_counted_not_fatal() {
        let guard = ObsServer::bind("0").expect("bind ephemeral").spawn();
        let addr = guard.addr();
        // Send a full request, then slam the connection shut without
        // reading the response: whether the server's write lands in the
        // doomed socket buffer or errors (EPIPE/reset → counted in
        // `http.client_abort`), the worker must shrug it off and keep
        // serving.
        {
            let mut stream = TcpStream::connect(addr).expect("connect");
            write!(stream, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
            let _ = stream.shutdown(std::net::Shutdown::Both);
            drop(stream);
        }
        // The next request must still be served normally.
        std::thread::sleep(Duration::from_millis(100));
        let (head, _) = get(addr, "/healthz");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        drop(guard);
    }
}
