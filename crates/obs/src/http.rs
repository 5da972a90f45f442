//! Std-only HTTP/1.1 server: the exposition endpoints (`/metrics`,
//! `/healthz`, `/tracez`, `/tracez/export`, `/eventz`, `/sloz`) plus a
//! pluggable JSON API plane under `/api/` (an [`ApiHandler`] given at
//! [`ObsServer::bind_with`]).
//!
//! Every parsed request is minted a [`TraceCtx`] (seeded by
//! [`ServerConfig::trace_seed`], sequence-numbered per request by the
//! server) and handled under a request root span; the finished span
//! tree feeds the tail store (see [`crate::tail`]), `/tracez?trace=ID`
//! renders kept trees as waterfalls, `/tracez?slowest=N` indexes the
//! slowest requests, and per-route latency lands in the
//! `http_request_us` scoped family.
//!
//! Per DESIGN.md §8 this is hand-rolled over [`std::net::TcpListener`] —
//! no external HTTP stack. Connections are served by a fixed pool of
//! worker threads (default [`MAX_CONNECTIONS`], tunable via
//! [`ServerConfig`] / `--max-connections` / `CABLE_MAX_CONNS`) fed from
//! a bounded accept queue: when every worker is busy, up to
//! [`ServerConfig::queue_depth`] connections wait their turn, and only
//! past *that* does the accept loop shed load — with `429 Too Many
//! Requests` plus a `Retry-After` header, so well-behaved clients back
//! off and retry instead of treating the flat refusal as an outage
//! (DESIGN.md §14's backpressure protocol; previously this was an
//! immediate `503` at the worker cap). A connection may send at most
//! [`MAX_HEADER_BYTES`] of request line plus headers (`431` past that)
//! and at most [`MAX_BODY_BYTES`] of body (`413` past that), must make
//! read progress within the 2 s timeout, and is always closed after the
//! response — slowloris-style trickles cost one worker for at most one
//! timeout, and queued victims behind them are served as workers free
//! up.
//!
//! Security posture (DESIGN.md §11): addresses given as a bare port bind
//! `127.0.0.1`; exposing the endpoints beyond localhost requires an
//! explicit interface in `--obs-listen`.

use crate::chrome;
use crate::context::{self, TraceCtx};
use crate::events::{self, WideEvent};
use crate::json::Value;
use crate::metrics::{CounterHandle, HistogramHandle};
use crate::prom;
use crate::recorder;
use crate::registry::registry;
use crate::slo;
use crate::span::Span;
use crate::tail;
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Read as _, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
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

/// Ceiling on request line + header bytes a connection may send.
pub const MAX_HEADER_BYTES: usize = 8 * 1024;
/// Ceiling on request body bytes (`413` past it) — bounds what one
/// `POST /api/sessions/:id/ingest` can make the server buffer.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;
/// Default ceiling on concurrently served connections (the worker-pool
/// size). Tunable per server via [`ServerConfig`].
pub const MAX_CONNECTIONS: usize = 8;
/// Default depth of the accept queue behind the worker pool; past
/// workers + queue the server answers `429` with `Retry-After`.
pub const QUEUE_DEPTH: usize = 32;
/// The `Retry-After` value (seconds) sent with `429` responses.
pub const RETRY_AFTER_SECONDS: u64 = 1;
/// Default per-read/per-write socket timeout on a served connection.
pub const IO_TIMEOUT: Duration = Duration::from_secs(2);
/// Default overall deadline for one connection to deliver its whole
/// request (line, headers, and body). The per-read timeout alone resets
/// on every byte, so a client trickling one byte per interval could
/// hold a worker forever; the deadline bounds the total and answers
/// `408` — the slowloris guard.
pub const CONNECTION_DEADLINE: Duration = Duration::from_secs(10);

/// Most recent spans per lane served by `/tracez` (override per request
/// with `?limit=N`).
pub const TRACEZ_SPAN_LIMIT: usize = 64;

/// Most recent events served by `/eventz` (override with `?limit=N`).
pub const EVENTZ_EVENT_LIMIT: usize = 64;

/// Ceiling on a `?limit=N` override — keeps one request from asking for
/// a multi-MB response.
pub const MAX_QUERY_LIMIT: usize = 100_000;

/// Sizing of one server — how many connections are served concurrently
/// and how many may wait behind them before load-shedding starts — and
/// the seed its request trace ids are minted from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// Worker threads — concurrently served connections.
    pub max_connections: usize,
    /// Accepted connections allowed to wait for a worker; past
    /// `max_connections + queue_depth` in flight, new connections get
    /// `429` + `Retry-After`.
    pub queue_depth: usize,
    /// Per-read/per-write socket timeout on a served connection.
    pub io_timeout: Duration,
    /// Overall deadline for one connection to deliver its whole request
    /// (the slowloris guard; `408` + `obs.http.slow_client_aborts` past
    /// it).
    pub connection_deadline: Duration,
    /// Seed minted trace ids derive from (`cable serve --trace-seed`);
    /// the server's request sequence number advances once per parsed
    /// request. With a pinned seed and the same request order, a drill
    /// mints the same trace ids run to run.
    pub trace_seed: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_connections: MAX_CONNECTIONS,
            queue_depth: QUEUE_DEPTH,
            io_timeout: IO_TIMEOUT,
            connection_deadline: CONNECTION_DEADLINE,
            trace_seed: 0,
        }
    }
}

/// What `/healthz` reports about an open store, given to the server at
/// bind by whoever holds one (the `cable` binary). Without one the
/// endpoint reports `"store": "none"` but stays healthy — a serving
/// process without a store is not broken.
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

/// A request routed to the API plane: anything under `/api/`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApiRequest {
    /// The HTTP method (`GET`, `POST`, …), uppercased as received.
    pub method: String,
    /// The path without the query string, e.g. `/api/sessions/s1/label`.
    pub route: String,
    /// The raw query string after `?`, if any.
    pub query: Option<String>,
    /// The request body (bounded by [`MAX_BODY_BYTES`]).
    pub body: String,
}

/// An API plane's answer. The server adds framing (status text,
/// `Content-Length`, `Connection: close`) around it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApiResponse {
    /// HTTP status code (200, 201, 400, 404, …).
    pub status: u16,
    /// The `Content-Type` header value.
    pub content_type: &'static str,
    /// The response body.
    pub body: String,
    /// When set, the server adds a `Retry-After: <seconds>` header —
    /// how degraded-store `503`s tell clients the condition is
    /// retryable.
    pub retry_after: Option<u64>,
}

impl ApiResponse {
    /// A JSON response. Rendering is a `serialize.response` span: on
    /// large lattice views the body formatting is real work, and the
    /// trace-report serialization stage accounts for it.
    pub fn json(status: u16, value: &Value) -> ApiResponse {
        let body = {
            let _span = Span::open("serialize.response");
            format!("{value}\n")
        };
        ApiResponse {
            status,
            content_type: "application/json; charset=utf-8",
            body,
            retry_after: None,
        }
    }

    /// An error response with the standard `{"error": …, "status": …}`
    /// body.
    pub fn error(status: u16, message: &str) -> ApiResponse {
        ApiResponse::json(
            status,
            &Value::object([
                ("error", Value::from(message)),
                ("status", Value::from(u64::from(status))),
            ]),
        )
    }

    /// Attaches a `Retry-After` header value (seconds).
    pub fn with_retry_after(mut self, seconds: u64) -> ApiResponse {
        self.retry_after = Some(seconds);
        self
    }
}

/// The API plane behind `/api/` routes. `cable-obs` deliberately knows
/// nothing about sessions — the dependency runs the other way — so the
/// session service (`cable-core`'s `CableApi`) is handed to the server
/// at [`ObsServer::bind_with`], like the store's [`HealthInfo`].
pub trait ApiHandler: Send + Sync {
    /// Handles one API request. Infallible by construction: errors are
    /// [`ApiResponse`]s with 4xx/5xx statuses.
    fn handle(&self, request: &ApiRequest) -> ApiResponse;
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

/// What one server answers with, fixed at bind and shared by its
/// workers.
struct Plane {
    config: ServerConfig,
    /// The `/api/` handler; without one, API routes answer `404` with a
    /// hint to start `cable serve --api`.
    api: Option<Arc<dyn ApiHandler>>,
    /// The open store's health for `/healthz`, if the process holds one.
    health: Option<HealthInfo>,
    /// Requests parsed so far: the per-request trace mint sequence.
    request_seq: AtomicU64,
}

impl ObsServer {
    /// Binds the listener with the default [`ServerConfig`] and neither
    /// an API plane nor a store. `addr` accepts the
    /// [`parse_listen_addr`] forms; port 0 picks an ephemeral port (see
    /// [`ObsServer::addr`]).
    pub fn bind(addr: &str) -> Result<ObsServer, String> {
        Self::bind_with(addr, ServerConfig::default(), None, None)
    }

    /// [`ObsServer::bind`] with explicit sizing and trace seed, the
    /// `/api/` handler, and the store health `/healthz` reports.
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
        let _ = stream.set_write_timeout(Some(self.shared.plane.config.io_timeout));
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
        handle_connection(&shared.plane, stream, enqueued.elapsed());
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

/// A response ready for framing.
struct HttpResponse {
    status: u16,
    content_type: &'static str,
    body: String,
    retry_after: Option<u64>,
}

impl HttpResponse {
    fn text(status: u16, body: impl Into<String>) -> HttpResponse {
        HttpResponse {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into(),
            retry_after: None,
        }
    }

    fn json(status: u16, value: &Value) -> HttpResponse {
        HttpResponse {
            status,
            content_type: "application/json; charset=utf-8",
            body: format!("{value}\n"),
            retry_after: None,
        }
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

fn handle_connection(plane: &Plane, stream: TcpStream, queue_wait: Duration) {
    let config = plane.config;
    let deadline = Instant::now() + config.connection_deadline;
    let _ = stream.set_read_timeout(Some(config.io_timeout));
    let _ = stream.set_write_timeout(Some(config.io_timeout));
    let mut reader = BufReader::new(DeadlineStream {
        stream,
        deadline,
        io_timeout: config.io_timeout,
    });
    // The `take` caps how many request-line + header bytes one
    // connection may feed us: past it `read_line` sees EOF, and we
    // answer 431 instead of buffering without bound. The body is read
    // separately below, under its own cap.
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
    // while handling — on this thread or adopted by pool workers — is
    // stamped with this trace id. The accept-queue wait becomes part of
    // the request's wall time via a synthetic `wait.queue` child span.
    let queue_wait_us = queue_wait.as_micros().min(u64::MAX as u128) as u64;
    WAIT_QUEUE.get().record(queue_wait_us);
    let seq = plane.request_seq.fetch_add(1, Ordering::Relaxed);
    let ctx = TraceCtx::mint(config.trace_seed, seq);
    let queue_wait_ns = queue_wait.as_nanos().min(u64::MAX as u128) as u64;
    let trace = context::begin_request(ctx, "http.request", queue_wait_ns);
    if queue_wait_us > 0 {
        recorder::counter_mark("wait.queue.us", queue_wait_us);
    }
    let oversized = !saw_end && head.limit() == 0;
    let mut route = String::new();
    let response = if oversized {
        OVERSIZED.get().incr();
        HttpResponse::text(
            431,
            format!("request line + headers exceed {MAX_HEADER_BYTES} bytes\n"),
        )
    } else if content_length > MAX_BODY_BYTES {
        HttpResponse::text(
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
        respond(plane, method, path, body)
    };
    // Close the root span and offer the finished tree to the tail
    // store (summary always; full tree for slow/error/sampled).
    let finished = trace.finish();
    let label = route_label(&route);
    record_route_latency(
        label,
        started.elapsed().as_micros().min(u64::MAX as u128) as u64,
    );
    if crate::enabled() {
        tail::record(label, response.status, &finished);
    }
    // One wide event per request: the server observes itself through
    // the same stream it serves (outcome = the status code).
    events::emit(
        WideEvent::new("http_request", "http")
            .stage(route)
            .outcome(response.status.to_string())
            .duration(started.elapsed())
            .field("bytes", response.body.len() as u64)
            .field("trace", finished.ctx.trace_hex()),
    );
    // Keep the persistent event log current through each request: the
    // chaos drill kills the server and then replays the fault timeline
    // from this file, so it must not trail by a buffer's worth.
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

/// Normalises a request path to one of a bounded set of route labels
/// for the per-route latency family: an unbounded label set would grow
/// `/metrics` without limit, so session ids are collapsed to `:id` and
/// unknown paths to `other`.
fn route_label(route: &str) -> &'static str {
    match route {
        "/metrics" => "/metrics",
        "/healthz" => "/healthz",
        "/tracez" => "/tracez",
        "/tracez/export" => "/tracez/export",
        "/eventz" => "/eventz",
        "/sloz" => "/sloz",
        _ => {
            let segments: Vec<&str> = route
                .strip_prefix("/api/")
                .unwrap_or("")
                .split('/')
                .filter(|s| !s.is_empty())
                .collect();
            match segments.as_slice() {
                ["sessions"] => "/api/sessions",
                ["sessions", _, "ingest"] => "/api/sessions/:id/ingest",
                ["sessions", _, "label"] => "/api/sessions/:id/label",
                ["sessions", _, "recover"] => "/api/sessions/:id/recover",
                ["sessions", _, "lattice"] => "/api/sessions/:id/lattice",
                ["sessions", _, "concepts"] => "/api/sessions/:id/concepts",
                ["sessions", _, "focus"] => "/api/sessions/:id/focus",
                ["sessions", _, "digest"] => "/api/sessions/:id/digest",
                _ => "other",
            }
        }
    }
}

/// Records one request into the per-route HTTP latency family
/// (`http_request_us_summary{route="..."}` on `/metrics`). Scopes are
/// opened on first hit and held for the life of the process: per-request
/// open/drop would churn the bounded retired-scope ring and lose the
/// live series between scrapes.
fn record_route_latency(route: &'static str, us: u64) {
    static SCOPES: OnceLock<Mutex<HashMap<&'static str, crate::Scope>>> = OnceLock::new();
    let scopes = SCOPES.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = scopes.lock().expect("obs route scopes poisoned");
    map.entry(route)
        .or_insert_with(|| crate::scoped().open(&[("route", route)]))
        .record("http.request.us", us);
}

/// What one `/tracez` request asks for.
#[derive(Debug, Clone, PartialEq, Eq)]
enum TracezView {
    /// The per-lane recorder view, at most this many events per lane.
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

fn respond(plane: &Plane, method: &str, path: &str, body: String) -> HttpResponse {
    let (route, query) = match path.split_once('?') {
        Some((route, query)) => (route, Some(query)),
        None => (path, None),
    };
    // The API plane first: it owns its own methods and status codes.
    if route == "/api" || route.starts_with("/api/") {
        return match &plane.api {
            Some(handler) => {
                let request = ApiRequest {
                    method: method.to_owned(),
                    route: route.to_owned(),
                    query: query.map(str::to_owned),
                    body,
                };
                let answer = handler.handle(&request);
                HttpResponse {
                    status: answer.status,
                    content_type: answer.content_type,
                    body: answer.body,
                    retry_after: answer.retry_after,
                }
            }
            None => HttpResponse::text(
                404,
                "no session API is enabled (start `cable serve --api`)\n",
            ),
        };
    }
    if method != "GET" {
        return HttpResponse::text(405, "only GET is served outside /api/\n");
    }
    let bad_request = |message: String| HttpResponse::text(400, message);
    match route {
        "/metrics" => match parse_limit(query, 0) {
            Err(e) => bad_request(e),
            Ok(_) => HttpResponse {
                status: 200,
                content_type: "text/plain; version=0.0.4; charset=utf-8",
                body: prom::encode_full(&registry().snapshot(), &crate::scoped().snapshot()),
                retry_after: None,
            },
        },
        "/healthz" => match parse_limit(query, 0) {
            Err(e) => bad_request(e),
            Ok(_) => HttpResponse::json(200, &healthz_json(plane.health.as_ref())),
        },
        "/tracez" => match parse_tracez_query(query) {
            Err(e) => bad_request(e),
            Ok(TracezView::Lanes(limit)) => HttpResponse::json(200, &tracez_json(limit)),
            Ok(TracezView::Trace(id)) => match tail::tree(&id) {
                Some((summary, spans)) => {
                    HttpResponse::text(200, tail::render_waterfall(&summary, &spans))
                }
                None => HttpResponse::text(
                    404,
                    format!(
                        "no kept span tree for trace {id} (trees are kept for \
                         slow/error/sampled requests; see /tracez?slowest=N)\n"
                    ),
                ),
            },
            Ok(TracezView::Slowest(n)) => HttpResponse::json(200, &tail::slowest_json(n)),
        },
        "/tracez/export" => match parse_limit(query, 0) {
            Err(e) => bad_request(e),
            Ok(_) => HttpResponse::json(200, &tail::export()),
        },
        "/eventz" => match parse_limit(query, EVENTZ_EVENT_LIMIT) {
            Err(e) => bad_request(e),
            Ok(limit) => HttpResponse::json(200, &events::eventz_json(limit)),
        },
        "/sloz" => match parse_limit(query, 0) {
            Err(e) => bad_request(e),
            Ok(_) => HttpResponse::json(200, &slo::sloz_json()),
        },
        _ => HttpResponse::text(
            404,
            "try /metrics, /healthz, /tracez, /tracez/export, /eventz, /sloz, or /api/sessions\n",
        ),
    }
}

fn healthz_json(health: Option<&HealthInfo>) -> Value {
    let build = crate::build_info();
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
        ("uptime_seconds", Value::from(crate::uptime_seconds())),
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
/// name (same contract as [`guard_json`]): `degraded_now` is derived as
/// enters minus exits, so it reads `1` while the store is read-only
/// even though the server's [`HealthInfo`] is a snapshot taken at bind.
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
/// name: cable-obs deliberately does not depend on cable-guard (the
/// dependency runs the other way), so names are the contract here.
fn guard_json() -> Value {
    let snapshot = registry().snapshot();
    let read = |name: &str| Value::from(snapshot.counter(name).unwrap_or(0));
    Value::object([
        ("checkpoints", read("guard.checkpoints")),
        ("cancelled", read("guard.cancelled")),
        ("budget_exceeded", read("guard.budget_exceeded")),
        ("task_panics", read("par.task_panics")),
    ])
}

/// The `/tracez` body: the most recent `limit` events per lane, plus
/// per-lane drop accounting.
fn tracez_json(limit: usize) -> Value {
    let lanes = recorder::snapshot();
    let lanes_json: Vec<Value> = lanes
        .iter()
        .map(|lane| {
            let start = lane.events.len().saturating_sub(limit);
            let events: Vec<Value> = lane.events[start..]
                .iter()
                .map(|e| {
                    let kind = match e.kind {
                        recorder::EventKind::Begin => "begin",
                        recorder::EventKind::End => "end",
                        recorder::EventKind::Instant => "instant",
                        recorder::EventKind::Counter(_) => "counter",
                    };
                    let mut pairs = vec![
                        ("name", Value::from(e.name)),
                        ("kind", Value::from(kind)),
                        ("ts_ns", Value::from(e.ts_ns)),
                    ];
                    if let recorder::EventKind::Counter(v) = e.kind {
                        pairs.push(("value", Value::from(v)));
                    }
                    if e.span != 0 {
                        pairs.push((
                            "trace",
                            Value::from(format!("{:016x}{:016x}", e.trace_hi, e.trace_lo)),
                        ));
                        pairs.push(("span", Value::from(format!("{:016x}", e.span))));
                        pairs.push(("parent", Value::from(format!("{:016x}", e.parent))));
                    }
                    Value::object(pairs)
                })
                .collect();
            Value::object([
                ("id", Value::from(lane.id)),
                ("label", Value::from(lane.label.as_str())),
                ("dropped", Value::from(lane.dropped)),
                ("events", Value::Array(events)),
            ])
        })
        .collect();
    Value::object([
        ("recording", Value::from(crate::enabled())),
        ("lanes", Value::Array(lanes_json)),
        ("profile", chrome::profile_json(&chrome::self_time(&lanes))),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!(tracez.get("lanes").and_then(Value::as_array).is_some());

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
        assert_eq!(
            route_label("/api/sessions/s-42/ingest"),
            "/api/sessions/:id/ingest"
        );
        assert_eq!(route_label("/api/sessions"), "/api/sessions");
        assert_eq!(
            route_label("/api/sessions/x/digest"),
            "/api/sessions/:id/digest"
        );
        assert_eq!(route_label("/api/unknown/thing"), "other");
        assert_eq!(route_label("/favicon.ico"), "other");
        assert_eq!(route_label(""), "other");
    }

    #[test]
    fn tracez_serves_waterfalls_slowest_index_and_export() {
        use crate::context::{FinishedTrace, SpanRec};
        let _store = tail::TEST_STORE_LOCK.lock().unwrap();
        tail::clear();
        // Seed one slow request's tree directly (the end-to-end mint →
        // collect path is covered by the span_record integration test,
        // which owns the global enabled flag in its own process).
        let ctx = TraceCtx::mint(7, 1);
        let finished = FinishedTrace {
            ctx,
            spans: vec![
                SpanRec {
                    name: "wait.fsync",
                    span: context::mix(ctx.span_id, 1),
                    parent: ctx.span_id,
                    start_ns: 2_000,
                    end_ns: 80_000_000,
                },
                SpanRec {
                    name: "http.request",
                    span: ctx.span_id,
                    parent: 0,
                    start_ns: 1_000,
                    end_ns: 100_001_000,
                },
            ],
            dropped: 0,
        };
        assert_eq!(
            tail::record("/api/sessions/:id/ingest", 200, &finished),
            "slow"
        );

        let guard = ObsServer::bind("0").expect("bind ephemeral").spawn();
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

        tail::clear();
        drop(guard);
    }

    #[test]
    fn metrics_exports_per_route_latency_and_queue_wait_families() {
        let guard = ObsServer::bind("0").expect("bind ephemeral").spawn();
        let addr = guard.addr();
        // One request to /healthz populates its route scope; the next
        // /metrics scrape must show the labelled family and the queue
        // wait histogram.
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
        let mut bytes = Vec::new();
        let mut buf = [0u8; 1024];
        loop {
            match stream.read(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(n) => bytes.extend_from_slice(&buf[..n]),
            }
        }
        let response = String::from_utf8_lossy(&bytes);
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
        let mut bytes = Vec::new();
        let mut buf = [0u8; 1024];
        loop {
            match stream.read(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(n) => bytes.extend_from_slice(&buf[..n]),
            }
        }
        let response = String::from_utf8_lossy(&bytes);
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
        let guard = ObsServer::bind_with(
            "0",
            ServerConfig {
                io_timeout: Duration::from_millis(400),
                connection_deadline: Duration::from_millis(300),
                ..ServerConfig::default()
            },
            None,
            None,
        )
        .expect("bind ephemeral")
        .spawn();
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
