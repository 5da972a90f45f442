//! The `cable` command-line tool: a scriptable version of the paper's
//! Dotty-based UI.
//!
//! ```text
//! cable cluster --traces FILE [--fa FILE | --template unordered|seed:<op>] [--dot OUT] [--store DIR]
//! cable label   --traces FILE --script FILE [--fa FILE | --template ...]
//! cable label   --store DIR --script FILE
//! cable mine    --traces FILE --seeds op1,op2[,…]
//! cable show-fa --traces FILE
//! cable check   --traces FILE --fa FILE
//! cable session open    --traces FILE [--fa FILE | --template ...] --store DIR
//! cable session ingest  --store DIR --traces FILE [--fsync-per-trace] [--keep-going]
//! cable session resume  --store DIR [--json-out PATH] [--obs-listen ADDR]
//! cable session compact --store DIR
//! cable serve   --obs-listen ADDR [--store DIR] [--profile-interval-ms N]
//!               [--trace-seed N] [--trace-slow-us N]
//! cable profile diff BEFORE.jsonl AFTER.jsonl
//! cable diff-spec A.fa B.fa
//! cable specs
//! ```
//!
//! * `cluster` reads scenario traces (one per line, trace text format),
//!   builds the concept lattice under the chosen reference FA, and prints
//!   a concept summary (optionally a DOT rendering of the lattice).
//! * `label` replays a labeling script against the lattice (the
//!   scriptable `Label traces` command) and prints each trace with its
//!   final label. Script lines are
//!   `label <concept> <all|unlabeled|with:NAME> <label>`; `;` comments
//!   and blank lines are skipped. Concept ids are those `cluster`
//!   prints (construction is deterministic for the same input).
//! * `mine` treats the input as raw *program* traces (object ids like
//!   `#42` in the events), extracts per-object scenarios from the given
//!   seed operations, and prints the mined specification FA followed by
//!   the distinct scenarios.
//! * `show-fa` learns an sk-strings FA from the traces and prints it.
//! * `check` runs the traces against a specification FA and reports the
//!   rejected ones (a tiny verifier).
//! * `session` manages crash-safe persistent sessions (`cable-store`):
//!   `open` saves a freshly clustered session to a store directory,
//!   `ingest` appends new traces to a saved session through the
//!   incremental lattice-insert path (with `--fsync-per-trace` every
//!   trace is durable the moment it is applied — the crash drill's
//!   mode), `resume` reopens a session, reporting journal recovery on
//!   stderr (and with `--json-out` writes a deterministic
//!   `session_state` JSONL record that `reproduce diff` can compare),
//!   and `compact` folds the journal into a fresh snapshot.
//!   `cluster --store DIR` also saves the session it builds, and
//!   `label --store DIR` runs a labeling script against a saved session,
//!   journaling every decision.
//! * `serve` exposes the HTTP endpoints (`GET /metrics` in
//!   Prometheus text format, `GET /healthz`, `GET /tracez`, plus the
//!   wide-event tail at `GET /eventz` and the SLO burn-rate windows at
//!   `GET /sloz`) on the given address until killed. With `--store DIR`
//!   it opens the session first so `/healthz` reports the store
//!   generation and journal lag, and starts the continuous profiler:
//!   periodic self-time snapshots into `DIR/profiles/` (default every
//!   5 s; `--profile-interval-ms N` tunes it, `0` disables). A bare
//!   port binds `127.0.0.1`; the bound address is printed to stdout so
//!   scripts can use port `0`.
//! * `profile diff` compares two continuous-profile (or `--events-out`
//!   style profile-snapshot) JSONL files and prints per-function
//!   self-time regressions, largest change first.
//! * `diff-spec` compares two specification FAs as languages and prints
//!   a *minimal* trace accepted by exactly one of them (the completed
//!   automaton algebra's distinguishing witness) — the quickest answer
//!   to "what exactly did my edit to this spec change?". Exit codes
//!   follow diff(1): 0 equivalent, 1 differ, 2 trouble (including
//!   specs over disjoint alphabets, which differ trivially).
//! * `specs` lists the built-in evaluation specifications.
//!
//! `--events-out PATH` (any command) writes the wide-event log — one
//! self-describing JSONL record per unit of work (ingest batch, label
//! op, compaction, guard trip, HTTP request) — through the buffered
//! sink.
//!
//! Every command also accepts `--stats`, which enables the flight
//! recorder and prints the cable-obs stage-cost report (counters, span
//! timings, and the self-time profile) to stderr when the command
//! finishes; setting `CABLE_OBS=1` in the environment does the same
//! without the flag. `--threads N` sizes the cable-par worker pool
//! (equivalent to `CABLE_PAR=N`; the output is identical either way —
//! only wall-clock time changes). `session resume --obs-listen ADDR`
//! keeps serving the HTTP endpoints after resuming, like `serve`.
//!
//! # Robustness flags
//!
//! `--deadline-ms N` and `--max-concepts N` install a resource budget
//! (cable-guard) on the thread that runs the command, for the whole
//! command. Exceeding it does not panic or hang: commands report the
//! trip on stderr, still print whatever valid partial result the
//! pipeline produced (a prefix-exact lattice over the leading trace
//! classes), and exit with code **4**. The partial output is
//! deterministic — independent of `--threads`/`CABLE_PAR`. Every command
//! but `serve` takes them: `serve` handles requests on its own worker
//! threads, which a command budget would not bound, so it answers a
//! usage error and bounds each API request with
//! `--request-deadline-ms N` instead.
//!
//! `--faults <seed>:<kind>@<site>[#K|=P][,…]` (or the `CABLE_FAULTS`
//! environment variable) installs the deterministic fault-injection
//! plane: `panic` fires injected panics at cable-par task boundaries,
//! `io` injects I/O errors at cable-store read/write/fsync sites, and
//! `budget` forces artificial budget trips at checkpoints. Used by the
//! CI fault drill; every injected failure must surface as a typed error.
//! A panic contained at the binary's no-panic boundary (injected or
//! genuine) is reported as a structured error and exits with code **5**;
//! injected I/O errors surface through the normal store error paths.
//!
//! `session ingest --keep-going` turns malformed trace lines from a
//! fatal error into per-line reports: each bad line is skipped with its
//! 1-based line number on stderr, every good line is still ingested and
//! journaled, and the command exits 1 with a summary.

use cable::fa::templates;
use cable::prelude::*;
use cable::session::server::{HealthInfo, ObsServer, ServerConfig};
use cable::session::{parse_script, StoredSession, TraceSelector};
use cable::trace::Vocab;
use std::fs;
use std::path::Path;
use std::process::exit;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        usage("missing command");
    };
    // `profile diff` takes positional paths, not options.
    if command == "profile" {
        run_profile(&args[1..]);
    }
    // `diff-spec` takes two positional spec paths, not options.
    if command == "diff-spec" {
        run_diff_spec(&args[1..]);
    }
    // `session` takes a subcommand before the options.
    let (sub, rest) = if command == "session" {
        match args.get(1) {
            Some(sub) => (Some(sub.clone()), &args[2..]),
            None => usage("session needs a subcommand: open, ingest, resume or compact"),
        }
    } else {
        (None, &args[1..])
    };
    let opts = parse_opts(rest);
    let stats = cable::obs::init_from_env() || opts.stats;
    if stats || opts.obs_listen.is_some() {
        cable::obs::set_enabled(true);
    }
    if let Some(path) = &opts.events_out {
        let sink = cable::obs::JsonlSink::create(path)
            .unwrap_or_else(|e| die(&format!("creating {path}: {e}")));
        cable::obs::events::install_sink(sink);
    }
    if let Some(spec) = &opts.faults {
        cable::guard::faults::install(spec).unwrap_or_else(|e| usage(&format!("--faults: {e}")));
    } else if let Err(e) = cable::guard::init_from_env() {
        die(&format!("CABLE_FAULTS: {e}"));
    }
    let budget = cable::guard::Budget {
        deadline: opts.deadline_ms.map(std::time::Duration::from_millis),
        max_concepts: opts.max_concepts,
    };
    // Inert when no limit was given; held for the whole command, which
    // runs on this thread.
    let _budget_guard = budget.install();
    // `contain` is the binary's no-panic boundary: a genuine panic in
    // any pipeline stage or cable-par worker (including injected
    // `--faults` panics) surfaces as a structured error and a distinct
    // exit code instead of an unwind.
    let contained = cable::guard::contain(|| match command.as_str() {
        "cluster" => cluster(&opts),
        "label" => label(&opts),
        "mine" => {
            mine(&opts);
            0
        }
        "show-fa" => {
            show_fa(&opts);
            0
        }
        "check" => check(&opts),
        "session" => session_cmd(sub.as_deref().unwrap_or_default(), &opts),
        "serve" => serve(&opts),
        "specs" => {
            specs();
            0
        }
        other => usage(&format!("unknown command {other:?}")),
    });
    let code = match contained {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            match e {
                cable::guard::GuardError::BudgetExceeded { .. } => 4,
                _ => 5,
            }
        }
    };
    // Flush the wide-event log before exiting (drop flushes the sink).
    if opts.events_out.is_some() {
        drop(cable::obs::events::take_sink());
    }
    // Stats print before the exit so failing commands still report.
    if stats {
        eprintln!("{}", cable::obs::registry().snapshot().render());
        let profile = cable::obs::chrome::self_time(&cable::obs::recorder::snapshot());
        if !profile.is_empty() {
            eprintln!("{}", cable::obs::chrome::render_profile(&profile));
        }
    }
    exit(code);
}

struct Opts {
    traces: Option<String>,
    fa: Option<String>,
    template: Option<String>,
    dot: Option<String>,
    script: Option<String>,
    seeds: Option<String>,
    store: Option<String>,
    json_out: Option<String>,
    obs_listen: Option<String>,
    events_out: Option<String>,
    profile_interval_ms: Option<u64>,
    fsync_per_trace: bool,
    stats: bool,
    deadline_ms: Option<u64>,
    max_concepts: Option<u64>,
    faults: Option<String>,
    keep_going: bool,
    api: bool,
    store_root: Option<String>,
    max_open_sessions: Option<usize>,
    max_connections: Option<usize>,
    request_deadline_ms: Option<u64>,
    trace_seed: Option<u64>,
    trace_slow_us: Option<u64>,
}

fn parse_opts(args: &[String]) -> Opts {
    let mut opts = Opts {
        traces: None,
        fa: None,
        template: None,
        dot: None,
        script: None,
        seeds: None,
        store: None,
        json_out: None,
        obs_listen: None,
        events_out: None,
        profile_interval_ms: None,
        fsync_per_trace: false,
        stats: false,
        deadline_ms: None,
        max_concepts: None,
        faults: None,
        keep_going: false,
        api: false,
        store_root: None,
        max_open_sessions: None,
        max_connections: None,
        request_deadline_ms: None,
        trace_seed: None,
        trace_slow_us: None,
    };
    let mut i = 0;
    while i < args.len() {
        let value = || {
            args.get(i + 1)
                .cloned()
                .unwrap_or_else(|| usage(&format!("{} needs a value", args[i])))
        };
        match args[i].as_str() {
            "--stats" => {
                opts.stats = true;
                i += 1;
                continue;
            }
            "--fsync-per-trace" => {
                opts.fsync_per_trace = true;
                i += 1;
                continue;
            }
            "--keep-going" => {
                opts.keep_going = true;
                i += 1;
                continue;
            }
            "--api" => {
                opts.api = true;
                i += 1;
                continue;
            }
            "--threads" => {
                let n: usize = value()
                    .parse()
                    .unwrap_or_else(|_| usage("--threads needs an integer"));
                cable::par::configure(n);
            }
            "--traces" => opts.traces = Some(value()),
            "--fa" => opts.fa = Some(value()),
            "--template" => opts.template = Some(value()),
            "--dot" => opts.dot = Some(value()),
            "--script" => opts.script = Some(value()),
            "--seeds" => opts.seeds = Some(value()),
            "--store" => opts.store = Some(value()),
            "--json-out" => opts.json_out = Some(value()),
            "--obs-listen" => opts.obs_listen = Some(value()),
            "--events-out" => opts.events_out = Some(value()),
            "--profile-interval-ms" => {
                opts.profile_interval_ms = Some(
                    value()
                        .parse()
                        .unwrap_or_else(|_| usage("--profile-interval-ms needs an integer")),
                );
            }
            "--deadline-ms" => {
                opts.deadline_ms = Some(
                    value()
                        .parse()
                        .unwrap_or_else(|_| usage("--deadline-ms needs an integer")),
                );
            }
            "--max-concepts" => {
                opts.max_concepts = Some(
                    value()
                        .parse()
                        .unwrap_or_else(|_| usage("--max-concepts needs an integer")),
                );
            }
            "--faults" => opts.faults = Some(value()),
            "--store-root" => opts.store_root = Some(value()),
            "--max-open-sessions" => {
                opts.max_open_sessions = Some(
                    value()
                        .parse()
                        .ok()
                        .filter(|&n: &usize| n > 0)
                        .unwrap_or_else(|| usage("--max-open-sessions needs a positive integer")),
                );
            }
            "--max-connections" => {
                opts.max_connections = Some(
                    value()
                        .parse()
                        .ok()
                        .filter(|&n: &usize| n > 0)
                        .unwrap_or_else(|| usage("--max-connections needs a positive integer")),
                );
            }
            "--request-deadline-ms" => {
                opts.request_deadline_ms = Some(
                    value()
                        .parse()
                        .unwrap_or_else(|_| usage("--request-deadline-ms needs an integer")),
                );
            }
            "--trace-seed" => {
                opts.trace_seed = Some(
                    value()
                        .parse()
                        .unwrap_or_else(|_| usage("--trace-seed needs an integer")),
                );
            }
            "--trace-slow-us" => {
                opts.trace_slow_us = Some(
                    value()
                        .parse()
                        .unwrap_or_else(|_| usage("--trace-slow-us needs an integer")),
                );
            }
            other => usage(&format!("unknown option {other:?}")),
        }
        i += 2;
    }
    opts
}

fn load_traces(opts: &Opts, vocab: &mut Vocab) -> TraceSet {
    let path = opts
        .traces
        .as_ref()
        .unwrap_or_else(|| usage("--traces FILE is required"));
    let text = fs::read_to_string(path).unwrap_or_else(|e| die(&format!("reading {path}: {e}")));
    TraceSet::parse(&text, vocab).unwrap_or_else(|e| die(&format!("parsing {path}: {e}")))
}

fn reference_fa(opts: &Opts, traces: &TraceSet, vocab: &mut Vocab) -> Fa {
    if let Some(path) = &opts.fa {
        let text =
            fs::read_to_string(path).unwrap_or_else(|e| die(&format!("reading {path}: {e}")));
        return Fa::parse(&text, vocab).unwrap_or_else(|e| die(&format!("parsing {path}: {e}")));
    }
    let list: Vec<Trace> = traces.iter().map(|(_, t)| t.clone()).collect();
    match opts.template.as_deref() {
        None | Some("unordered") => templates::unordered_of_trace_events(&list),
        Some(spec) => {
            let Some(op) = spec.strip_prefix("seed:") else {
                usage("--template is `unordered` or `seed:<op>`");
            };
            let pats = templates::distinct_event_pats(&list);
            let sym = vocab
                .find_op(op)
                .unwrap_or_else(|| die(&format!("operation {op:?} does not occur in the traces")));
            let seed = cable::fa::EventPat::on_var(sym, cable::trace::Var(0));
            templates::seed_order(&pats, &seed)
        }
    }
}

/// Builds the session under whatever budget `main` installed. A budget
/// trip is not fatal: the stop carries a valid partial session (a
/// prefix-exact lattice over the leading trace classes), which callers
/// print like any other before exiting with code 4.
fn build_session(traces: TraceSet, fa: Fa) -> (CableSession, i32) {
    match CableSession::try_new(traces, fa) {
        Ok(session) => (session, 0),
        Err(stop) => {
            eprintln!(
                "budget exceeded: {}; continuing with the partial session \
                 ({} of the trace classes clustered)",
                stop.error, stop.classes_clustered
            );
            (stop.partial, 4)
        }
    }
}

fn cluster(opts: &Opts) -> i32 {
    let mut vocab = Vocab::new();
    let traces = load_traces(opts, &mut vocab);
    let fa = reference_fa(opts, &traces, &mut vocab);
    let (session, code) = build_session(traces, fa);
    println!(
        "{} traces in {} identical classes; reference FA: {} transitions; {} concepts",
        session.traces().len(),
        session.classes().len(),
        session.reference_fa().transition_count(),
        session.lattice().len()
    );
    for id in session.lattice().bfs_top_down() {
        let concept = session.lattice().concept(id);
        let n_traces: usize = concept
            .extent
            .iter()
            .map(|c| session.classes()[c].count())
            .sum();
        println!(
            "\n{id}: {} classes / {n_traces} traces, {} shared transitions",
            concept.extent.len(),
            concept.intent.len()
        );
        for t in session.show_traces(id, &TraceSelector::All).iter().take(3) {
            println!("    {}", t.display(&vocab));
        }
        if concept.extent.len() > 3 {
            println!("    …");
        }
    }
    if let Some(out) = &opts.dot {
        fs::write(out, session.to_dot("cable"))
            .unwrap_or_else(|e| die(&format!("writing {out}: {e}")));
        println!("\nwrote {out}");
    }
    if let Some(dir) = &opts.store {
        let stored = session
            .save(vocab, Path::new(dir))
            .unwrap_or_else(|e| die(&format!("saving session to {dir}: {e}")));
        println!(
            "\nsaved session to {dir} ({} snapshot bytes)",
            stored.store().snapshot_bytes().unwrap_or(0)
        );
    }
    code
}

/// Prints every trace with its final label and the per-label tallies;
/// returns the exit code (3 when traces remain unlabeled).
fn report_labels(session: &CableSession, vocab: &Vocab) -> i32 {
    for (id, trace) in session.traces().iter() {
        let label = session
            .label_of_trace(id)
            .map(|l| session.labels().name(l).to_owned())
            .unwrap_or_else(|| "(unlabeled)".to_owned());
        println!("{label}\t{}", trace.display(vocab));
    }
    let progress = session.progress();
    for count in &progress.per_label {
        eprintln!(
            "{}: {} classes / {} traces",
            count.name, count.classes, count.traces
        );
    }
    if !progress.is_complete() {
        eprintln!("warning: some traces are unlabeled");
        return 3;
    }
    0
}

fn label(opts: &Opts) -> i32 {
    let path = opts
        .script
        .as_ref()
        .unwrap_or_else(|| usage("--script FILE is required"));
    let script = fs::read_to_string(path).unwrap_or_else(|e| die(&format!("reading {path}: {e}")));
    if let Some(dir) = &opts.store {
        // Label a saved session: every decision is journaled before it
        // is applied, so the labels survive a crash.
        let (mut stored, report) = open_store(dir);
        report_recovery(&report);
        let commands =
            parse_script(&script, stored.session().lattice().len()).unwrap_or_else(|e| die(&e));
        for (id, selector, name) in commands {
            let n = stored
                .label_traces(id, &selector, &name)
                .unwrap_or_else(|e| die(&format!("journaling labels to {dir}: {e}")));
            eprintln!("labeled {n} classes in {id} as {name:?}");
        }
        return report_labels(stored.session(), stored.vocab());
    }
    let mut vocab = Vocab::new();
    let traces = load_traces(opts, &mut vocab);
    let fa = reference_fa(opts, &traces, &mut vocab);
    let (mut session, code) = build_session(traces, fa);
    let commands = parse_script(&script, session.lattice().len()).unwrap_or_else(|e| die(&e));
    for (id, selector, name) in commands {
        let n = session.label_traces(id, &selector, &name);
        eprintln!("labeled {n} classes in {id} as {name:?}");
    }
    let label_code = report_labels(&session, &vocab);
    if code != 0 {
        code
    } else {
        label_code
    }
}

fn open_store(dir: &str) -> (StoredSession, cable::store::RecoveryReport) {
    match CableSession::open(Path::new(dir)) {
        Ok(opened) => opened,
        Err(cable::store::StoreError::Guard(e)) => {
            eprintln!("error: budget exceeded opening store {dir}: {e}");
            exit(4);
        }
        Err(e) => die(&format!("opening store {dir}: {e}")),
    }
}

fn report_recovery(report: &cable::store::RecoveryReport) {
    eprintln!(
        "journal recovery: {} records replayed, {} bytes discarded ({:?} tail{})",
        report.replayed,
        report.discarded_bytes,
        report.tail,
        if report.stale_journal {
            ", stale journal dropped"
        } else {
            ""
        }
    );
}

// The deterministic `session_state` record `session resume --json-out`
// writes now lives in `cable_core::digest` (the `GET
// /api/sessions/:id/digest` endpoint emits the identical record).
use cable::session::session_state_record;

fn session_cmd(sub: &str, opts: &Opts) -> i32 {
    let store_dir = || {
        opts.store
            .as_ref()
            .unwrap_or_else(|| usage("--store DIR is required"))
    };
    match sub {
        "open" => {
            let mut vocab = Vocab::new();
            let traces = load_traces(opts, &mut vocab);
            let fa = reference_fa(opts, &traces, &mut vocab);
            let (session, code) = build_session(traces, fa);
            let dir = store_dir();
            let stored = session
                .save(vocab, Path::new(dir))
                .unwrap_or_else(|e| die(&format!("saving session to {dir}: {e}")));
            println!(
                "saved {} traces in {} classes ({} concepts) to {dir}",
                stored.session().traces().len(),
                stored.session().classes().len(),
                stored.session().lattice().len()
            );
            code
        }
        "ingest" => {
            let dir = store_dir();
            let (mut stored, report) = open_store(dir);
            report_recovery(&report);
            let path = opts
                .traces
                .as_ref()
                .unwrap_or_else(|| usage("--traces FILE is required"));
            let text =
                fs::read_to_string(path).unwrap_or_else(|e| die(&format!("reading {path}: {e}")));
            let (results, code) = if opts.keep_going {
                let report = match stored.ingest_text_keep_going(&text, opts.fsync_per_trace) {
                    Ok(report) => report,
                    Err(cable::store::StoreError::Guard(e)) => {
                        eprintln!("budget exceeded while ingesting {path}: {e}");
                        return 4;
                    }
                    Err(e) => die(&format!("ingesting {path}: {e}")),
                };
                for (lineno, error) in &report.errors {
                    eprintln!("{path}:{lineno}: skipped: {error}");
                }
                let code = if report.is_clean() {
                    0
                } else {
                    eprintln!(
                        "skipped {} malformed of {} trace lines",
                        report.errors.len(),
                        report.errors.len() + report.results.len()
                    );
                    1
                };
                (report.results, code)
            } else {
                match stored.ingest_text(&text, opts.fsync_per_trace) {
                    Ok(results) => (results, 0),
                    Err(cable::store::StoreError::Guard(e)) => {
                        eprintln!("budget exceeded while ingesting {path}: {e}");
                        return 4;
                    }
                    Err(e) => die(&format!("ingesting {path}: {e}")),
                }
            };
            let fresh = results.iter().filter(|(_, new)| *new).count();
            println!(
                "ingested {} traces ({fresh} new classes); session now {} traces in {} classes, {} concepts",
                results.len(),
                stored.session().traces().len(),
                stored.session().classes().len(),
                stored.session().lattice().len()
            );
            code
        }
        "resume" => {
            let dir = store_dir();
            let (stored, report) = open_store(dir);
            report_recovery(&report);
            println!(
                "{} traces in {} classes; {} concepts; {} of {} classes labeled; generation {}",
                stored.session().traces().len(),
                stored.session().classes().len(),
                stored.session().lattice().len(),
                (0..stored.session().classes().len())
                    .filter(|&c| stored.session().labels().is_labeled(c))
                    .count(),
                stored.session().classes().len(),
                stored.store().generation()
            );
            if let Some(path) = &opts.json_out {
                let sink = cable::obs::JsonlSink::create(path)
                    .unwrap_or_else(|e| die(&format!("creating {path}: {e}")));
                sink.write(&session_state_record(&stored))
                    .unwrap_or_else(|e| die(&format!("writing {path}: {e}")));
                eprintln!("wrote {path}");
            }
            if let Some(addr) = &opts.obs_listen {
                let health = store_health(&stored);
                let _profiler = spawn_profiler(Path::new(dir), opts);
                serve_blocking(addr, server_config(opts), None, health);
            }
            0
        }
        "compact" => {
            let dir = store_dir();
            let (mut stored, report) = open_store(dir);
            report_recovery(&report);
            let journal_before = stored.store().journal_bytes().unwrap_or(0);
            stored
                .compact()
                .unwrap_or_else(|e| die(&format!("compacting {dir}: {e}")));
            println!(
                "compacted to generation {}: snapshot {} bytes, journal {} -> {} bytes",
                stored.store().generation(),
                stored.store().snapshot_bytes().unwrap_or(0),
                journal_before,
                stored.store().journal_bytes().unwrap_or(0)
            );
            0
        }
        other => usage(&format!(
            "unknown session subcommand {other:?} (open, ingest, resume, compact)"
        )),
    }
}

/// The stored session's generation and journal lag, for the server's
/// `/healthz` endpoint.
fn store_health(stored: &StoredSession) -> Option<HealthInfo> {
    stored
        .health()
        .map_err(|e| eprintln!("warning: could not read store health: {e}"))
        .ok()
}

/// The server settings the flags give: `--max-connections` sizes the
/// worker pool, `--trace-seed` pins the seed request trace ids are
/// minted from, and `--trace-slow-us` sets the tail store's slow-request
/// threshold. Everything else is the compiled-in default.
fn server_config(opts: &Opts) -> ServerConfig {
    let defaults = ServerConfig::default();
    ServerConfig {
        max_connections: opts.max_connections.unwrap_or(defaults.max_connections),
        trace_seed: opts.trace_seed.unwrap_or(defaults.trace_seed),
        trace_slow_us: opts.trace_slow_us.unwrap_or(defaults.trace_slow_us),
        ..defaults
    }
}

/// Binds the HTTP server with its API plane and store health,
/// announces the bound address on stdout (so scripts can pass port 0
/// and discover the port), and serves until the process is killed.
fn serve_blocking(
    addr: &str,
    config: ServerConfig,
    api: Option<std::sync::Arc<dyn cable::obs::ApiHandler>>,
    health: Option<HealthInfo>,
) -> ! {
    let server = ObsServer::bind_with(addr, config, api, health)
        .unwrap_or_else(|e| die(&format!("binding {addr}: {e}")));
    println!(
        "serving http://{}/metrics /healthz /tracez /eventz /sloz",
        server.addr()
    );
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    server.serve();
}

/// Starts the continuous profiler into `DIR/profiles/` (one JSONL file
/// per process). Default interval 5 s; `--profile-interval-ms 0`
/// disables it.
fn spawn_profiler(dir: &Path, opts: &Opts) -> Option<cable::obs::profdiff::ContinuousProfiler> {
    let interval_ms = opts.profile_interval_ms.unwrap_or(5000);
    if interval_ms == 0 {
        return None;
    }
    let profiles = dir.join("profiles");
    if let Err(e) = fs::create_dir_all(&profiles) {
        eprintln!("warning: cannot create {}: {e}", profiles.display());
        return None;
    }
    let path = profiles.join(format!("profile-{}.jsonl", std::process::id()));
    match cable::obs::profdiff::ContinuousProfiler::spawn(
        &path,
        std::time::Duration::from_millis(interval_ms),
    ) {
        Ok(profiler) => {
            eprintln!(
                "obs: continuous profiler writing {} every {interval_ms} ms",
                path.display()
            );
            Some(profiler)
        }
        Err(e) => {
            eprintln!("warning: continuous profiler failed to start: {e}");
            None
        }
    }
}

/// `cable serve --obs-listen ADDR [--store DIR] [--api --store-root DIR]`:
/// the exposition server, optionally with the multi-tenant session API
/// plane enabled (see DESIGN.md §14).
fn serve(opts: &Opts) -> i32 {
    if opts.deadline_ms.is_some() || opts.max_concepts.is_some() {
        usage(
            "serve takes no --deadline-ms or --max-concepts; \
             --request-deadline-ms N bounds each API request",
        );
    }
    let addr = opts
        .obs_listen
        .as_ref()
        .unwrap_or_else(|| usage("--obs-listen ADDR is required"));
    let mut _profiler = None;
    let mut health = None;
    if let Some(dir) = &opts.store {
        let (stored, report) = open_store(dir);
        report_recovery(&report);
        health = store_health(&stored);
        _profiler = spawn_profiler(Path::new(dir), opts);
    }
    let api: Option<std::sync::Arc<dyn cable::obs::ApiHandler>> = if opts.api {
        let root = opts
            .store_root
            .as_ref()
            .unwrap_or_else(|| usage("--api needs --store-root DIR"));
        let manager = std::sync::Arc::new(cable::session::SessionManager::new(
            root,
            opts.max_open_sessions.unwrap_or(8),
        ));
        Some(std::sync::Arc::new(cable::session::CableApi::new(
            manager,
            opts.request_deadline_ms
                .filter(|&ms| ms > 0)
                .map(std::time::Duration::from_millis),
        )))
    } else if opts.store_root.is_some() {
        usage("--store-root only applies with --api");
    } else {
        None
    };
    serve_blocking(addr, server_config(opts), api, health);
}

/// `cable profile diff BEFORE AFTER`: the self-time regression report
/// between two profile-snapshot JSONL files (continuous-profiler output
/// or any file whose records carry a `profile` array).
fn run_profile(args: &[String]) -> ! {
    match args {
        [sub, before, after] if sub == "diff" => {
            let a = cable::obs::profdiff::load_rows(Path::new(before))
                .unwrap_or_else(|e| die(&format!("{before}: {e}")));
            let b = cable::obs::profdiff::load_rows(Path::new(after))
                .unwrap_or_else(|e| die(&format!("{after}: {e}")));
            let rows = cable::obs::profdiff::diff(&a, &b);
            print!("{}", cable::obs::profdiff::render_diff(&rows));
            exit(0);
        }
        _ => usage("profile needs: profile diff BEFORE.jsonl AFTER.jsonl"),
    }
}

/// The `diff-spec` subcommand: prints a shortest trace accepted by
/// exactly one of two specification FAs. Exit codes follow diff(1):
/// `0` — the specs are language-equivalent, `1` — they differ (the
/// minimal distinguishing trace is printed), `2` — usage, IO, or parse
/// errors, and alphabet-incompatible specs (two specs over disjoint
/// operation sets differ trivially on every string; a witness would be
/// noise, so the comparison is refused instead).
fn run_diff_spec(args: &[String]) -> ! {
    if let Some(flag) = args.iter().find(|a| a.starts_with('-')) {
        usage(&format!("diff-spec takes no options (got {flag:?})"));
    }
    let [path_a, path_b] = args else {
        usage("diff-spec needs exactly two spec FA paths");
    };
    let mut vocab = Vocab::new();
    let mut load = |path: &str| -> Fa {
        let text = fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("error: reading {path}: {e}");
            exit(2);
        });
        Fa::parse(&text, &mut vocab).unwrap_or_else(|e| {
            eprintln!("error: parsing {path}: {e}");
            exit(2);
        })
    };
    let fa_a = load(path_a);
    let fa_b = load(path_b);
    if !fa_a.alphabet_compatible(&fa_b) {
        eprintln!(
            "error: {path_a} and {path_b} share no operations — their languages are \
             trivially disjoint; diff-spec compares specifications over a common alphabet"
        );
        exit(2);
    }
    match fa_a.distinguishing_trace(&fa_b, &mut vocab) {
        None => {
            println!("specs are language-equivalent");
            exit(0);
        }
        Some(trace) => {
            let (owner, other) = if fa_a.accepts(&trace) {
                (path_a, path_b)
            } else {
                (path_b, path_a)
            };
            println!(
                "specs differ; minimal distinguishing trace ({} event{}):",
                trace.len(),
                if trace.len() == 1 { "" } else { "s" }
            );
            if trace.is_empty() {
                println!("  (the empty trace)");
            } else {
                println!("  {}", trace.display(&vocab));
            }
            println!("accepted by {owner}, rejected by {other}");
            exit(1);
        }
    }
}

fn mine(opts: &Opts) {
    let mut vocab = Vocab::new();
    let traces = load_traces(opts, &mut vocab);
    let seeds: Vec<String> = opts
        .seeds
        .as_ref()
        .unwrap_or_else(|| usage("--seeds op1[,op2,…] is required"))
        .split(',')
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .collect();
    if seeds.is_empty() {
        usage("--seeds needs at least one operation");
    }
    let programs: Vec<Trace> = traces.iter().map(|(_, t)| t.clone()).collect();
    let miner = cable::strauss::Miner::new(&seeds);
    let mined = miner.mine(&programs, &vocab);
    eprintln!(
        "extracted {} scenarios ({} distinct) from {} program traces",
        mined.scenarios.len(),
        mined.scenarios.identical_classes().len(),
        programs.len()
    );
    print!("{}", mined.fa.to_text(&vocab));
    println!(";");
    println!("; distinct scenarios:");
    for class in mined.scenarios.identical_classes() {
        println!(
            "; ×{:<4} {}",
            class.count(),
            mined.scenarios.trace(class.representative).display(&vocab)
        );
    }
}

fn show_fa(opts: &Opts) {
    let mut vocab = Vocab::new();
    let traces = load_traces(opts, &mut vocab);
    let list: Vec<Trace> = traces.iter().map(|(_, t)| t.clone()).collect();
    let fa = cable::learn::SkStrings::default().learn(&list);
    print!("{}", fa.to_text(&vocab));
}

fn check(opts: &Opts) -> i32 {
    let mut vocab = Vocab::new();
    let traces = load_traces(opts, &mut vocab);
    let path = opts
        .fa
        .as_ref()
        .unwrap_or_else(|| usage("--fa FILE is required"));
    let text = fs::read_to_string(path).unwrap_or_else(|e| die(&format!("reading {path}: {e}")));
    let fa = Fa::parse(&text, &mut vocab).unwrap_or_else(|e| die(&format!("parsing {path}: {e}")));
    let mut rejected = 0;
    for (_, t) in traces.iter() {
        if !fa.accepts(t) {
            println!("violation: {}", t.display(&vocab));
            rejected += 1;
        }
    }
    println!("{rejected} of {} traces rejected", traces.len());
    if rejected > 0 {
        return 1;
    }
    0
}

fn specs() {
    let registry = cable::specs::registry();
    for spec in registry.iter() {
        println!("{:14} {}", spec.name(), spec.description());
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: cable <cluster|label|mine|show-fa|check|specs> [--traces FILE] [--fa FILE] \
         [--template unordered|seed:<op>] [--dot OUT] [--script FILE] [--seeds ops] \
         [--store DIR] [--threads N] [--stats]\n\
         \x20      cable session <open|ingest|resume|compact> --store DIR [--traces FILE] \
         [--fsync-per-trace] [--keep-going] [--json-out PATH] [--obs-listen ADDR]\n\
         \x20      cable serve --obs-listen ADDR [--store DIR] [--profile-interval-ms N] \
         [--api --store-root DIR] [--max-open-sessions N] [--max-connections N] \
         [--request-deadline-ms N] [--trace-seed N] [--trace-slow-us N]\n\
         \x20      cable profile diff BEFORE.jsonl AFTER.jsonl\n\
         \x20      cable diff-spec A.fa B.fa   (exit 0 equivalent, 1 differ + witness, 2 error)\n\
         \x20      any command: [--faults SEED:SPEC] [--events-out PATH]\n\
         \x20      any command but serve: [--deadline-ms N] [--max-concepts N]"
    );
    exit(2);
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    exit(1);
}
