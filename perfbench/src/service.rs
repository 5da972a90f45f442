//! `svc-ingest` and `svc-evict`: `cable serve --api` as a child process
//! driven by one client process over HTTP.
//!
//! The client runs [`THREADS`] closed-loop threads (a labeler waits for
//! each answer before the next click), each holding at most one
//! connection. Flush policy is the server default: one journal fsync
//! per ingest or label batch, no `--fsync-per-trace`.
//!
//! * `svc-ingest` (`--max-open-sessions 16`): each thread works through
//!   a seeded sequence of short-lived tenants — create (3–5 traces),
//!   [`OPS_PER_TENANT`] `cable_load::Labeler` drill-mix ops (40% ingest,
//!   20% label, 40% reads), a final digest. Two tenants are active at a
//!   time, so nothing reopens; bounded tenant life keeps it stationary.
//! * `svc-evict` (`--max-open-sessions 8`): set-up creates
//!   [`EVICT_TENANTS`] tenants with a corpus and journaled writes; the
//!   timed phase sends ≈85% reads and ≈15% label/ingest to tenants drawn
//!   uniformly, so about 7/8 of requests reopen a session.
//!
//! After timing stops, every verified tenant's `/digest` must equal an
//! in-process sequential replay of its acknowledged writes through
//! `SessionManager`, and a `kill -9` plus restart on the same store root
//! must reproduce every digest.

use crate::client::{Client, Response};
use crate::report::Report;
use crate::spans::Tracer;
use crate::stats::{self, Tally};
use crate::{machine, median_setup, Outcome, RunConfig, Workload};
use cable_core::{CableApi, CableSession, SessionManager};
use cable_load::{Labeler, Op};
use cable_obs::json::Value;
use cable_obs::{ApiHandler, ApiRequest};
use cable_util::rng::{self, Rng};
use std::collections::{BTreeMap, BTreeSet};
use std::io::{self, BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Client threads (= `nproc` on the reference 2-vCPU host).
pub const THREADS: usize = 2;

/// Drill-mix ops per `svc-ingest` tenant between create and digest.
pub const OPS_PER_TENANT: usize = 40;

/// `svc-ingest` tenants created during set-up to fill the cache.
pub const WARM_TENANTS: usize = 16;

/// `svc-evict` tenants: 8× the session cache.
pub const EVICT_TENANTS: usize = 64;

/// Journaled writes per `svc-evict` tenant during set-up.
pub const SETUP_WRITES: usize = 6;

/// Share of `svc-evict` requests that are reads.
pub const READ_SHARE: f64 = 0.85;

/// `svc-evict` requests per timed block (the unit of `wall_s`; for
/// `svc-ingest` it is one tenant's life).
pub const BLOCK: usize = 100;

/// Tenants whose digests a run verifies: every one up to this many,
/// else an evenly spaced sample of about this many.
const VERIFY_MAX: usize = 128;

/// Tenants whose session a traced run reopens in-process.
const REOPEN_SAMPLE: usize = 64;

/// The session name every tenant uses.
const SESSION: &str = "s";

/// Stream tags keeping the workloads' random draws apart.
const WARM_STREAM: u64 = 0x7761_726d;
const MIX_STREAM: u64 = 0x006d_6978;

/// The API routes the workloads send.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Route {
    /// `POST /api/sessions`.
    Create,
    /// `POST …/ingest`.
    Ingest,
    /// `POST …/label`.
    Label,
    /// `GET …/lattice`.
    Lattice,
    /// `GET …/concepts`.
    Concepts,
    /// `GET …/focus`.
    Focus,
    /// `GET …/digest`.
    Digest,
}

impl Route {
    /// Every route.
    pub const ALL: [Route; 7] = [
        Route::Create,
        Route::Ingest,
        Route::Label,
        Route::Lattice,
        Route::Concepts,
        Route::Focus,
        Route::Digest,
    ];

    /// The read routes `svc-evict` draws from.
    pub const READS: [Route; 4] = [Route::Lattice, Route::Concepts, Route::Focus, Route::Digest];

    /// The route's short name.
    pub fn name(self) -> &'static str {
        match self {
            Route::Create => "create",
            Route::Ingest => "ingest",
            Route::Label => "label",
            Route::Lattice => "lattice",
            Route::Concepts => "concepts",
            Route::Focus => "focus",
            Route::Digest => "digest",
        }
    }

    /// Whether the route changes session state (and pays an fsync).
    pub fn is_write(self) -> bool {
        matches!(self, Route::Create | Route::Ingest | Route::Label)
    }

    fn http_span(self) -> &'static str {
        match self {
            Route::Create => "http.create",
            Route::Ingest => "http.ingest",
            Route::Label => "http.label",
            Route::Lattice => "http.lattice",
            Route::Concepts => "http.concepts",
            Route::Focus => "http.focus",
            Route::Digest => "http.digest",
        }
    }

    fn api_span(self) -> &'static str {
        match self {
            Route::Create => "api.create",
            Route::Ingest => "api.ingest",
            Route::Label => "api.label",
            Route::Lattice => "api.lattice",
            Route::Concepts => "api.concepts",
            Route::Focus => "api.focus",
            Route::Digest => "api.digest",
        }
    }
}

/// One API request, as the client sends it and the replay re-issues it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The tenant it addresses.
    pub tenant: String,
    /// Which route.
    pub route: Route,
    /// The path without the query.
    pub path: String,
    /// The query string, if any.
    pub query: Option<String>,
    /// The JSON body of a POST.
    pub body: Option<String>,
}

impl Request {
    /// Opens the tenant's session with `traces`.
    pub fn create(tenant: &str, traces: &str) -> Request {
        let body = Value::object([
            ("tenant", Value::from(tenant)),
            ("session", Value::from(SESSION)),
            ("traces", Value::from(traces)),
        ]);
        Request {
            tenant: tenant.to_owned(),
            route: Route::Create,
            path: "/api/sessions".into(),
            query: None,
            body: Some(body.to_string()),
        }
    }

    /// A read of `route` (focus targets the lattice top, `c0`).
    pub fn read(tenant: &str, route: Route) -> Request {
        let mut query = format!("tenant={tenant}");
        if route == Route::Focus {
            query.push_str("&concept=c0");
        }
        Request {
            tenant: tenant.to_owned(),
            route,
            path: format!("/api/sessions/{SESSION}/{}", route.name()),
            query: Some(query),
            body: None,
        }
    }

    /// The request for a resolved `cable_load` op.
    pub fn from_op(tenant: &str, op: &Op) -> Request {
        let post = |route: Route, body: Value| Request {
            tenant: tenant.to_owned(),
            route,
            path: format!("/api/sessions/{SESSION}/{}", route.name()),
            query: None,
            body: Some(body.to_string()),
        };
        match op {
            Op::Ingest { traces } => post(
                Route::Ingest,
                Value::object([
                    ("tenant", Value::from(tenant)),
                    ("traces", Value::from(traces.as_str())),
                ]),
            ),
            Op::Label {
                concept,
                selector,
                label,
            } => post(
                Route::Label,
                Value::object([
                    ("tenant", Value::from(tenant)),
                    ("concept", Value::from(format!("c{concept}"))),
                    ("selector", Value::from(*selector)),
                    ("label", Value::from(*label)),
                ]),
            ),
            Op::Lattice => Request::read(tenant, Route::Lattice),
            Op::Concepts => Request::read(tenant, Route::Concepts),
            Op::Focus => Request::read(tenant, Route::Focus),
            Op::Digest => Request::read(tenant, Route::Digest),
        }
    }

    /// The HTTP method.
    pub fn method(&self) -> &'static str {
        if self.body.is_some() {
            "POST"
        } else {
            "GET"
        }
    }

    /// Path plus query, as sent on the request line.
    pub fn target(&self) -> String {
        match &self.query {
            Some(q) => format!("{}?{q}", self.path),
            None => self.path.clone(),
        }
    }

    /// The same request for an in-process `ApiHandler`.
    pub fn api_request(&self) -> ApiRequest {
        ApiRequest {
            method: self.method().to_owned(),
            route: self.path.clone(),
            query: self.query.clone(),
            body: self.body.clone().unwrap_or_default(),
        }
    }
}

/// One tenant's seeded request stream: a `cable_load::Labeler` plus the
/// concept count the server last reported, which label ops resolve
/// against.
#[derive(Debug, Clone)]
pub struct TenantScript {
    /// The tenant name.
    pub tenant: String,
    labeler: Labeler,
    concepts: usize,
}

impl TenantScript {
    /// Tenant `name` on stream `(seed, index)`.
    pub fn new(name: String, seed: u64, index: u64) -> TenantScript {
        TenantScript {
            tenant: name,
            labeler: Labeler::new(seed, index),
            concepts: 1,
        }
    }

    /// The opening create.
    pub fn create(&mut self) -> Request {
        Request::create(&self.tenant, &self.labeler.seed_traces())
    }

    /// The next drill-mix op.
    pub fn next_op(&mut self) -> Request {
        Request::from_op(&self.tenant, &self.labeler.next_op(self.concepts))
    }

    /// The next write (ingest or label) of the drill mix.
    pub fn next_write(&mut self) -> Request {
        loop {
            let op = self.labeler.next_op(self.concepts);
            if op.mutates() {
                return Request::from_op(&self.tenant, &op);
            }
        }
    }

    /// Folds a create or ingest answer's concept count in.
    pub fn observe(&mut self, route: Route, body: &str) {
        if matches!(route, Route::Create | Route::Ingest) {
            if let Some(n) = Value::parse(body.trim())
                .ok()
                .and_then(|v| v.get("concepts").and_then(Value::as_u64))
            {
                self.concepts = n as usize;
            }
        }
    }
}

/// `svc-evict`'s seeded draw for one client thread: which of its
/// tenants to address next, and a read route or `None` for a write.
#[derive(Debug, Clone)]
pub struct EvictMix {
    rng: rng::SmallRng,
    tenants: usize,
}

impl EvictMix {
    /// The draw for `thread` over `tenants` tenants.
    pub fn new(seed: u64, thread: usize, tenants: usize) -> EvictMix {
        EvictMix {
            rng: rng::stream(seed ^ MIX_STREAM, thread as u64),
            tenants,
        }
    }

    /// The next (tenant position, read route or write).
    pub fn draw(&mut self) -> (usize, Option<Route>) {
        let tenant = self.rng.gen_range(0..self.tenants);
        let read = self.rng.gen_bool(READ_SHARE);
        let route = read.then(|| Route::READS[self.rng.gen_range(0..Route::READS.len())]);
        (tenant, route)
    }
}

/// A `cable serve --api` child process.
#[derive(Debug)]
pub struct Server {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    /// The announced `host:port`.
    pub addr: String,
}

impl Server {
    /// Starts the server on an ephemeral port over `root` and waits
    /// until it announces its address. `traced` turns on `CABLE_OBS`.
    ///
    /// # Errors
    ///
    /// Fails if the process cannot start or exits without announcing.
    pub fn start(bin: &Path, root: &Path, max_open: usize, traced: bool) -> io::Result<Server> {
        let mut child = Command::new(bin)
            .args(["serve", "--obs-listen", "0", "--api", "--store-root"])
            .arg(root)
            .args(["--max-open-sessions", &max_open.to_string()])
            .env("CABLE_OBS", if traced { "1" } else { "0" })
            .env_remove("CABLE_FAULTS")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        stdout.read_line(&mut line)?;
        let addr = line
            .split("http://")
            .nth(1)
            .and_then(|rest| rest.split('/').next())
            .map(str::to_owned);
        match addr {
            Some(addr) => Ok(Server {
                child,
                _stdout: stdout,
                addr,
            }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(io::Error::other(format!(
                    "server did not announce an address: {line:?}"
                )))
            }
        }
    }
}

impl Drop for Server {
    /// `kill -9` and reap: every exit path stops the child.
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A request as sent, with its outcome.
#[derive(Debug, Clone)]
pub struct Sent {
    /// Global issue order across client threads.
    pub seq: u64,
    /// The request.
    pub request: Request,
    /// The status, or 0 for a transport error.
    pub status: u16,
    /// Latency in ms.
    pub ms: f64,
}

impl Sent {
    fn ok(&self) -> bool {
        (200..300).contains(&self.status)
    }
}

/// One client thread: its connection, log, spans and tally.
struct Worker<'a> {
    client: Client,
    seq: &'a AtomicU64,
    sent: Vec<Sent>,
    tracer: Tracer,
    tally: Tally,
    walls: Vec<f64>,
}

impl Worker<'_> {
    fn new<'a>(addr: &str, seq: &'a AtomicU64, tracer: Tracer) -> Worker<'a> {
        Worker {
            client: Client::new(addr),
            seq,
            sent: Vec::new(),
            tracer,
            tally: Tally::default(),
            walls: Vec::new(),
        }
    }

    /// Sends `req`, logs it, and returns the 2xx answer's body.
    fn send(&mut self, req: Request) -> Option<String> {
        let seq = self.seq.fetch_add(1, Ordering::SeqCst);
        let start = Instant::now();
        let res = self
            .client
            .request(req.method(), &req.target(), req.body.as_deref());
        let end = Instant::now();
        self.tracer.record(req.route.http_span(), start, end);
        let (status, body) = match res {
            Ok(Response { status, body, .. }) => (status, Some(body)),
            Err(e) => {
                let what = format!("{} {}: {e}", req.method(), req.target());
                self.tally.record(false, || what);
                (0, None)
            }
        };
        let sent = Sent {
            seq,
            request: req,
            status,
            ms: (end - start).as_secs_f64() * 1e3,
        };
        if status != 0 {
            self.tally.record(sent.ok(), || {
                format!(
                    "{} {} -> {status}",
                    sent.request.method(),
                    sent.request.target()
                )
            });
        }
        let ok = sent.ok();
        self.sent.push(sent);
        body.filter(|_| ok)
    }

    /// Sends a script's request and folds the answer into the script.
    fn step(&mut self, script: &mut TenantScript, req: Request) {
        let route = req.route;
        if let Some(body) = self.send(req) {
            script.observe(route, &body);
        }
    }
}

/// Shape of one service workload.
#[derive(Debug, Clone, Copy)]
struct Shape {
    workload: Workload,
    max_open: usize,
    /// Set-up repetitions whose median is `setup_s`.
    setup_reps: usize,
}

impl Shape {
    fn of(workload: Workload) -> Shape {
        match workload {
            Workload::SvcEvict => Shape {
                workload,
                max_open: 8,
                setup_reps: 7,
            },
            _ => Shape {
                workload,
                max_open: 16,
                setup_reps: 15,
            },
        }
    }

    fn flags(&self) -> String {
        format!(
            "serve --api --max-open-sessions {} (default connections; one fsync per ingest or label batch, no --fsync-per-trace)",
            self.max_open
        )
    }
}

/// A started, populated server plus the tenant scripts set-up left.
struct Prepared {
    server: Server,
    root: PathBuf,
    scripts: Vec<TenantScript>,
    sent: Vec<Sent>,
    tally: Tally,
}

/// Set-up: a fresh store root, the server started until it announces
/// its address, and the tenants the workload starts from.
fn prepare(cfg: &RunConfig, shape: Shape, root: PathBuf, traced: bool) -> io::Result<Prepared> {
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root)?;
    let server = Server::start(&cfg.cable_bin, &root, shape.max_open, traced)?;
    let seq = AtomicU64::new(0);
    let mut w = Worker::new(&server.addr, &seq, Tracer::new(false, cfg.seed));
    let mut scripts = Vec::new();
    match shape.workload {
        Workload::SvcEvict => {
            for i in 0..EVICT_TENANTS {
                let mut s = TenantScript::new(format!("e{i:03}"), cfg.seed, i as u64);
                let req = s.create();
                w.step(&mut s, req);
                for _ in 0..SETUP_WRITES {
                    let req = s.next_write();
                    w.step(&mut s, req);
                }
                scripts.push(s);
            }
        }
        _ => {
            for i in 0..WARM_TENANTS {
                let mut s = TenantScript::new(format!("w{i:03}"), cfg.seed ^ WARM_STREAM, i as u64);
                let req = s.create();
                w.step(&mut s, req);
                scripts.push(s);
            }
        }
    }
    Ok(Prepared {
        server,
        root,
        scripts,
        sent: w.sent,
        tally: w.tally,
    })
}

/// What a timed phase produced.
struct Timed {
    sent: Vec<Sent>,
    walls: Vec<f64>,
    wall_s: f64,
    connects: u64,
    connect_errors: u64,
    tally: Tally,
    tracer: Tracer,
}

/// The timed phase: [`THREADS`] closed-loop clients for `budget`.
fn timed(cfg: &RunConfig, shape: Shape, p: &mut Prepared, budget: Duration, traced: bool) -> Timed {
    let seq = AtomicU64::new(p.sent.len() as u64);
    let epoch = Instant::now();
    let addr = p.server.addr.clone();
    let mut per_thread: Vec<Vec<TenantScript>> = vec![Vec::new(); THREADS];
    if shape.workload == Workload::SvcEvict {
        for (i, s) in p.scripts.iter().enumerate() {
            per_thread[i % THREADS].push(s.clone());
        }
    }
    let workers: Vec<(Worker<'_>, Vec<TenantScript>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = per_thread
            .into_iter()
            .enumerate()
            .map(|(t, mut own)| {
                let seq = &seq;
                let addr = addr.as_str();
                scope.spawn(move || {
                    let tracer = Tracer::with_epoch(traced, cfg.seed, epoch);
                    let mut w = Worker::new(addr, seq, tracer);
                    match shape.workload {
                        Workload::SvcEvict => {
                            evict_thread(&mut w, &mut own, cfg.seed, t, epoch, budget)
                        }
                        _ => ingest_thread(&mut w, cfg.seed, t, epoch, budget),
                    }
                    (w, own)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = epoch.elapsed().as_secs_f64();
    let mut out = Timed {
        sent: Vec::new(),
        walls: Vec::new(),
        wall_s,
        connects: 0,
        connect_errors: 0,
        tally: Tally::default(),
        tracer: Tracer::with_epoch(traced, cfg.seed, epoch),
    };
    let mut scripts = Vec::new();
    for (w, own) in workers {
        out.sent.extend(w.sent);
        out.walls.extend(w.walls);
        out.connects += w.client.connects;
        out.connect_errors += w.client.connect_errors;
        out.tally.merge(w.tally);
        out.tracer.absorb(w.tracer);
        scripts.extend(own);
    }
    if shape.workload == Workload::SvcEvict {
        scripts.sort_by(|a, b| a.tenant.cmp(&b.tenant));
        p.scripts = scripts;
    }
    out
}

/// One `svc-ingest` client: short-lived tenants until the budget is
/// spent. Thread `t` owns tenant indices `t, t + THREADS, …`.
fn ingest_thread(w: &mut Worker<'_>, seed: u64, t: usize, epoch: Instant, budget: Duration) {
    let mut n = 0;
    while epoch.elapsed() < budget {
        let index = t + THREADS * n;
        let mut s = TenantScript::new(format!("i{index:06}"), seed, index as u64);
        let start = Instant::now();
        let req = s.create();
        w.step(&mut s, req);
        for _ in 0..OPS_PER_TENANT {
            let req = s.next_op();
            w.step(&mut s, req);
        }
        w.send(Request::read(&s.tenant, Route::Digest));
        w.walls.push(start.elapsed().as_secs_f64());
        n += 1;
    }
}

/// One `svc-evict` client: blocks of [`BLOCK`] requests over the
/// thread's own tenants until the budget is spent.
fn evict_thread(
    w: &mut Worker<'_>,
    own: &mut [TenantScript],
    seed: u64,
    t: usize,
    epoch: Instant,
    budget: Duration,
) {
    let mut mix = EvictMix::new(seed, t, own.len());
    while epoch.elapsed() < budget {
        let start = Instant::now();
        for _ in 0..BLOCK {
            let (i, read) = mix.draw();
            let s = &mut own[i];
            let req = match read {
                Some(route) => Request::read(&s.tenant, route),
                None => s.next_write(),
            };
            w.step(s, req);
        }
        w.walls.push(start.elapsed().as_secs_f64());
    }
}

/// GETs every tenant's digest from a fresh client.
fn digests(addr: &str, tenants: &BTreeSet<String>, tally: &mut Tally) -> BTreeMap<String, String> {
    let mut client = Client::new(addr);
    let mut out = BTreeMap::new();
    for tenant in tenants {
        let req = Request::read(tenant, Route::Digest);
        match client.request("GET", &req.target(), None) {
            Ok(r) if r.status == 200 => {
                out.insert(tenant.clone(), r.body);
            }
            Ok(r) => tally.record(false, || format!("digest {tenant}: status {}", r.status)),
            Err(e) => tally.record(false, || format!("digest {tenant}: {e}")),
        }
    }
    out
}

/// Replays `log` in issue order through an in-process `CableApi` over
/// a fresh root: every acknowledged write, plus the reads when
/// `with_reads` (the traced run times every route). Each call must get
/// the status the server gave. Returns each tenant's final digest.
fn replay(
    root: &Path,
    max_open: usize,
    log: &[Sent],
    with_reads: bool,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> BTreeMap<String, String> {
    let _ = std::fs::remove_dir_all(root);
    let api = CableApi::new(Arc::new(SessionManager::new(root, max_open)), None);
    let mut order: Vec<&Sent> = log
        .iter()
        .filter(|s| s.ok() && (with_reads || s.request.route.is_write()))
        .collect();
    order.sort_by_key(|s| s.seq);
    let mut tenants = BTreeSet::new();
    for sent in order {
        let start = Instant::now();
        let answer = api.handle(&sent.request.api_request());
        tracer.record(sent.request.route.api_span(), start, Instant::now());
        if answer.status != sent.status {
            tally.record(false, || {
                format!(
                    "replay {} {}: {} vs server {}",
                    sent.request.method(),
                    sent.request.target(),
                    answer.status,
                    sent.status
                )
            });
        }
        tenants.insert(sent.request.tenant.clone());
    }
    tenants
        .into_iter()
        .map(|t| {
            let body = api
                .handle(&Request::read(&t, Route::Digest).api_request())
                .body;
            (t, body)
        })
        .collect()
}

/// The correctness checks after timing: server digests against an
/// in-process replay, and against a restarted server after `kill -9`,
/// for every tenant or an evenly spaced sample of [`VERIFY_MAX`].
/// Consumes (kills) the server and returns the verified digests.
fn verify(
    cfg: &RunConfig,
    shape: Shape,
    p: Prepared,
    log: &[Sent],
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> io::Result<BTreeMap<String, String>> {
    let created: BTreeSet<&str> = log
        .iter()
        .filter(|s| s.request.route == Route::Create && s.ok())
        .map(|s| s.request.tenant.as_str())
        .collect();
    let stride = created.len().div_ceil(VERIFY_MAX).max(1);
    let tenants: BTreeSet<String> = created
        .iter()
        .step_by(stride)
        .map(|t| t.to_string())
        .collect();
    let log: Vec<Sent> = log
        .iter()
        .filter(|s| tenants.contains(&s.request.tenant))
        .cloned()
        .collect();
    let before = digests(&p.server.addr, &tenants, tally);
    drop(p.server);
    let restarted = Server::start(&cfg.cable_bin, &p.root, shape.max_open, false)?;
    let after = digests(&restarted.addr, &tenants, tally);
    drop(restarted);
    for (tenant, digest) in &before {
        tally.check_eq(
            &format!("{tenant} digest after kill -9 and restart"),
            Some(digest),
            after.get(tenant),
        );
    }
    let replayed = replay(
        &cfg.work_dir.join("replay"),
        shape.max_open,
        &log,
        tracer.enabled(),
        tracer,
        tally,
    );
    for (tenant, digest) in &before {
        tally.check_eq(
            &format!("{tenant} digest vs in-process replay"),
            Some(digest),
            replayed.get(tenant),
        );
    }
    Ok(before)
}

/// Parses a Prometheus text body into series → value.
pub fn parse_metrics(text: &str) -> BTreeMap<String, f64> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (series, value) = l.rsplit_once(' ')?;
            Some((series.to_owned(), value.parse().ok()?))
        })
        .collect()
}

fn scrape(addr: &str) -> BTreeMap<String, f64> {
    Client::new(addr)
        .request("GET", "/metrics", None)
        .map(|r| parse_metrics(&r.body))
        .unwrap_or_default()
}

/// The end-to-end figures of a timed phase.
fn end_to_end(report: &mut Report, t: &Timed) {
    let ms: Vec<f64> = t.sent.iter().map(|s| s.ms).collect();
    let sorted = stats::sorted(&ms);
    report.set(
        "wall_s",
        t.walls.iter().sum::<f64>() / t.walls.len().max(1) as f64,
        t.walls.len(),
    );
    report.note(format!("round walls (s): {}", stats::summary(&t.walls)));
    report.set(
        "p50_ms",
        stats::nearest_rank(&sorted, 50.0).unwrap_or(0.0),
        ms.len(),
    );
    report.set("ops_per_s", ms.len() as f64 / t.wall_s, ms.len());
    report.set("throughput_rps", ms.len() as f64 / t.wall_s, ms.len());
    if stats::reportable(ms.len(), 99.0) {
        report.set(
            "p99_ms",
            stats::nearest_rank(&sorted, 99.0).unwrap_or(0.0),
            ms.len(),
        );
    }
    if let Some(p) = stats::highest_reportable(ms.len(), &[99.9]) {
        let v = stats::nearest_rank(&sorted, p).unwrap_or(0.0);
        report.note(format!("latency p{p} = {v:.4} ms (n={})", ms.len()));
    }
    for (name, write) in [("write_p50_ms", true), ("read_p50_ms", false)] {
        let part: Vec<f64> = t
            .sent
            .iter()
            .filter(|s| s.request.route.is_write() == write)
            .map(|s| s.ms)
            .collect();
        report.set(name, stats::median(&part), part.len());
    }
    report.note(format!(
        "requests {}, connects {}, connect errors {}, {:.2} s timed",
        ms.len(),
        t.connects,
        t.connect_errors,
        t.wall_s
    ));
}

/// Runs a service workload.
///
/// # Errors
///
/// Fails when the server cannot be started or restarted.
pub fn run(cfg: &RunConfig, workload: Workload) -> io::Result<Outcome> {
    let shape = Shape::of(workload);
    let mut report = Report::default();
    let mut tally = Tally::default();
    let mut tracer = Tracer::new(cfg.trace, cfg.seed);
    report.note(format!("server: {}", shape.flags()));
    report.note(format!(
        "store filesystem: {}",
        machine::fs_type(&cfg.work_dir)
    ));

    let budget = if cfg.trace {
        cfg.budget() / 2
    } else {
        cfg.budget()
    };
    let reps = if cfg.trace { 1 } else { shape.setup_reps };
    let (setup_s, prepared) = median_setup(reps, |i| {
        prepare(cfg, shape, cfg.work_dir.join(format!("root-{i}")), false)
    });
    let mut p = prepared?;
    report.set("setup_s", setup_s, reps);
    report.note(format!(
        "{} set-up tenants, {} store bytes after set-up",
        p.scripts.len(),
        machine::dir_bytes(&p.root)
    ));
    let untraced = timed(cfg, shape, &mut p, budget, false);
    end_to_end(&mut report, &untraced);

    if !cfg.trace {
        tally.merge(std::mem::take(&mut p.tally));
        tally.merge(untraced.tally);
        let mut log = std::mem::take(&mut p.sent);
        log.extend(untraced.sent);
        verify(cfg, shape, p, &log, &mut tracer, &mut tally)?;
        return Ok(Outcome {
            report,
            tally,
            tracer,
        });
    }

    // The traced run: the same set-up and phase against a CABLE_OBS=1
    // server, /metrics scraped around the timed phase, then the replay
    // timing every route in-process.
    tally.merge(untraced.tally);
    drop(p);
    let mut p = prepare(cfg, shape, cfg.work_dir.join("root-traced"), true)?;
    let m0 = scrape(&p.server.addr);
    let mut traced = timed(cfg, shape, &mut p, budget, true);
    let m1 = scrape(&p.server.addr);
    let overhead =
        untraced.sent.len() as f64 / untraced.wall_s / (traced.sent.len() as f64 / traced.wall_s)
            - 1.0;
    report.set("trace.overhead_pct", overhead * 100.0, traced.sent.len());
    tally.merge(std::mem::take(&mut p.tally));
    tally.merge(std::mem::take(&mut traced.tally));
    let root = p.root.clone();
    let mut log = std::mem::take(&mut p.sent);
    log.extend(traced.sent.iter().cloned());
    let mut api_tracer = Tracer::new(true, cfg.seed);
    let tenants = verify(cfg, shape, p, &log, &mut api_tracer, &mut tally)?;
    service_layers(&mut report, &traced, &api_tracer, &m0, &m1);
    reopen_layer(&mut report, &root, &tenants);
    tracer.absorb(std::mem::replace(&mut traced.tracer, Tracer::new(false, 0)));
    tracer.absorb(api_tracer);
    Ok(Outcome {
        report,
        tally,
        tracer,
    })
}

/// Per-layer metrics from the traced phase, its `/metrics` deltas and
/// the in-process replay.
fn service_layers(
    report: &mut Report,
    t: &Timed,
    api: &Tracer,
    m0: &BTreeMap<String, f64>,
    m1: &BTreeMap<String, f64>,
) {
    let delta =
        |name: &str| m1.get(name).copied().unwrap_or(0.0) - m0.get(name).copied().unwrap_or(0.0);
    let gauge = |name: &str| m1.get(name).copied().unwrap_or(0.0);
    let requests = t.sent.len().max(1) as f64;
    let writes = t.sent.iter().filter(|s| s.request.route.is_write()).count();
    let mut api_all = Vec::new();
    for route in Route::ALL {
        let d = api.durations_ms(route.api_span());
        report.set(
            &format!("core.api_ms.{}", route.name()),
            stats::median(&d),
            d.len(),
        );
        api_all.extend(d);
    }
    let http: Vec<f64> = t.sent.iter().map(|s| s.ms).collect();
    report.set(
        "http.overhead_ms",
        stats::median(&http) - stats::median(&api_all),
        http.len(),
    );
    report.set(
        "http.connects_per_request",
        t.connects as f64 / requests,
        t.sent.len(),
    );
    report.set(
        "obs.queue_wait_us.p50",
        gauge("wait_queue_us_summary{quantile=\"0.5\"}"),
        gauge("wait_queue_us_count") as usize,
    );
    report.set(
        "obs.queue_wait_us.p99",
        gauge("wait_queue_us_summary{quantile=\"0.99\"}"),
        gauge("wait_queue_us_count") as usize,
    );
    report.set(
        "store.fsync_us",
        gauge("wait_fsync_us_summary{quantile=\"0.5\"}"),
        gauge("wait_fsync_us_count") as usize,
    );
    report.set(
        "store.fsyncs_per_write",
        delta("store_fsyncs") / writes.max(1) as f64,
        writes,
    );
    report.set(
        "store.bytes_written_per_request",
        delta("store_bytes_written") / requests,
        t.sent.len(),
    );
    let reopens = delta("core_manager_reopens");
    let hits = delta("core_manager_cache_hits");
    report.set(
        "store.replayed_per_reopen",
        if reopens > 0.0 {
            delta("store_journal_replayed") / reopens
        } else {
            0.0
        },
        reopens as usize,
    );
    report.set(
        "core.manager_hit_ratio",
        hits / (hits + reopens).max(1.0),
        (hits + reopens) as usize,
    );
}

/// `core.reopen_ms`: `CableSession::open` on a sample of the traced
/// run's tenant stores, after the server is gone.
fn reopen_layer(report: &mut Report, root: &Path, tenants: &BTreeMap<String, String>) {
    let mut ms = Vec::new();
    for tenant in tenants.keys().take(REOPEN_SAMPLE) {
        let dir = root.join(tenant).join(SESSION);
        let start = Instant::now();
        if CableSession::open(&dir).is_ok() {
            ms.push(start.elapsed().as_secs_f64() * 1e3);
        }
    }
    report.set("core.reopen_ms", stats::median(&ms), ms.len());
}
