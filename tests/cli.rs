//! Integration tests for the `cable` binary: option handling, the
//! persistent-session subcommands, and the `serve` exposition server,
//! driven through real processes.

use std::fs;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::Duration;

fn cable(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cable"))
        .args(args)
        .output()
        .expect("cable runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A fresh directory under `$TMPDIR`. Dropping it removes the directory
/// and everything in it, so a failed assertion cannot leave a store
/// behind after the test binary exits.
struct TmpDir(PathBuf);

impl std::ops::Deref for TmpDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn tmp_dir(name: &str) -> TmpDir {
    let dir = std::env::temp_dir().join(format!("cable-cli-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    TmpDir(dir)
}

#[test]
fn unknown_options_are_rejected_with_a_usage_error() {
    let out = cable(&[
        "cluster",
        "--traces",
        "testdata/stdio_violations.traces",
        "--frobnicate",
    ]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unknown option \"--frobnicate\""));
    assert!(stderr(&out).contains("usage:"));
}

#[test]
fn unknown_commands_and_subcommands_are_rejected() {
    let out = cable(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unknown command"));

    let out = cable(&["session", "frobnicate", "--store", "/nonexistent"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unknown session subcommand"));

    let out = cable(&["session"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("session needs a subcommand"));
}

#[test]
fn trace_parse_errors_name_the_failing_line() {
    let dir = tmp_dir("badline");
    let bad = dir.join("bad.traces");
    fs::write(&bad, "fopen(X) fclose(X)\nfopen(X)\nfopen(X) wat wat((\n").unwrap();
    let out = cable(&["cluster", "--traces", bad.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        stderr(&out).contains("line 3"),
        "stderr was: {}",
        stderr(&out)
    );
}

#[test]
fn diff_spec_prints_a_minimal_witness_accepted_by_exactly_one_spec() {
    let out = cable(&[
        "diff-spec",
        "testdata/figure1_buggy.fa",
        "testdata/figure6_fixed.fa",
    ]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("specs differ"), "stdout was: {text}");
    assert!(text.contains("accepted by"), "stdout was: {text}");

    // Replay the printed witness through both specifications: it must
    // be accepted by exactly one, and no one-event trace separates the
    // stdio specs (they agree on every single operation).
    let witness_line = text
        .lines()
        .find(|l| l.starts_with("  "))
        .expect("witness line")
        .trim();
    let mut vocab = cable::trace::Vocab::new();
    let witness = cable::trace::Trace::parse(witness_line, &mut vocab).expect("witness parses");
    assert_eq!(witness.len(), 2, "minimal stdio witness has two events");
    let mut load =
        |path: &str| cable::fa::Fa::parse(&fs::read_to_string(path).unwrap(), &mut vocab).unwrap();
    let buggy = load("testdata/figure1_buggy.fa");
    let fixed = load("testdata/figure6_fixed.fa");
    assert_ne!(
        buggy.accepts(&witness),
        fixed.accepts(&witness),
        "witness {witness_line:?} must separate the specs"
    );
}

#[test]
fn diff_spec_reports_equivalent_specs_with_exit_zero() {
    let out = cable(&[
        "diff-spec",
        "testdata/figure1_buggy.fa",
        "testdata/figure1_buggy.fa",
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(stdout(&out).contains("language-equivalent"));
}

#[test]
fn diff_spec_rejects_incompatible_alphabets_and_bad_usage() {
    let dir = tmp_dir("diffspec");
    let locks = dir.join("locks.fa");
    fs::write(
        &locks,
        "start s0\naccept s0\ns0 -> s1 : lock(X)\ns1 -> s0 : unlock(X)\n",
    )
    .unwrap();
    let out = cable(&[
        "diff-spec",
        locks.to_str().unwrap(),
        "testdata/figure1_buggy.fa",
    ]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr(&out).contains("common alphabet"),
        "stderr was: {}",
        stderr(&out)
    );

    let out = cable(&["diff-spec", "--frobnicate", "a.fa", "b.fa"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("usage:"));

    let out = cable(&["diff-spec", "testdata/figure1_buggy.fa"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("exactly two"));

    let out = cable(&[
        "diff-spec",
        dir.join("missing.fa").to_str().unwrap(),
        "testdata/figure1_buggy.fa",
    ]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn session_lifecycle_open_ingest_label_resume_compact() {
    let dir = tmp_dir("lifecycle");
    let store = dir.join("store");
    let store = store.to_str().unwrap();

    // Open: cluster the violation corpus and save it.
    let out = cable(&[
        "session",
        "open",
        "--traces",
        "testdata/stdio_violations.traces",
        "--store",
        store,
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("saved"));

    // Opening again must refuse to clobber.
    let out = cable(&[
        "session",
        "open",
        "--traces",
        "testdata/stdio_violations.traces",
        "--store",
        store,
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("already holds a store"));

    // Ingest two traces, one of them a duplicate of an existing class.
    let extra = dir.join("extra.traces");
    fs::write(&extra, "popen(X) pclose(X)\nfopen(Y) fread(Y) fclose(Y)\n").unwrap();
    let out = cable(&[
        "session",
        "ingest",
        "--store",
        store,
        "--traces",
        extra.to_str().unwrap(),
        "--fsync-per-trace",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(
        stdout(&out).contains("ingested 2 traces (1 new classes)"),
        "stdout was: {}",
        stdout(&out)
    );

    // Label the saved session through a script; decisions are journaled.
    let script = dir.join("label.script");
    fs::write(&script, "label c0 all seen\n").unwrap();
    let out = cable(&[
        "label",
        "--store",
        store,
        "--script",
        script.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(!stdout(&out).contains("(unlabeled)"));

    // Resume: the journaled traces and labels are all there.
    let json = dir.join("state.jsonl");
    let out = cable(&[
        "session",
        "resume",
        "--store",
        store,
        "--json-out",
        json.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stderr(&out).contains("journal recovery:"));
    let state = fs::read_to_string(&json).unwrap();
    assert!(state.contains("\"record\":\"session_state\""), "{state}");
    assert!(state.contains("\"traces\":10"), "{state}");
    assert!(state.contains("\"generation\":0"), "{state}");

    // Compact, then resume again: nothing to replay, same state.
    let out = cable(&["session", "compact", "--store", store]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("compacted to generation 1"));
    let json2 = dir.join("state2.jsonl");
    let out = cable(&[
        "session",
        "resume",
        "--store",
        store,
        "--json-out",
        json2.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stderr(&out).contains("0 records replayed"));
    let state2 = fs::read_to_string(&json2).unwrap();
    // The digests must survive compaction bit-identically; only the
    // generation moves.
    assert_eq!(
        state.replace("\"generation\":0", "\"generation\":1"),
        state2
    );
}

/// One HTTP/1.1 GET against the serve endpoint; returns (status line,
/// body).
fn http_get(addr: &str, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to serve");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("response has a header/body split");
    let status = head.lines().next().unwrap_or_default().to_owned();
    (status, body.to_owned())
}

#[test]
fn serve_exposes_metrics_and_health_over_http() {
    let dir = tmp_dir("serve");
    let store = dir.join("store");
    let out = cable(&[
        "session",
        "open",
        "--traces",
        "testdata/stdio_violations.traces",
        "--store",
        store.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));

    // Bare port 0: binds an ephemeral port on 127.0.0.1 and announces
    // the bound address on stdout.
    let server = spawn_serving(&[
        "serve",
        "--obs-listen",
        "0",
        "--store",
        store.to_str().unwrap(),
    ]);
    let addr = &server.addr;
    assert!(
        addr.starts_with("127.0.0.1:"),
        "bare port binds localhost: {addr}"
    );

    let (status, body) = http_get(addr, "/healthz");
    assert!(status.contains("200"), "{status}");
    assert!(body.contains("\"generation\":0"), "{body}");
    assert!(body.contains("\"journal_lag_bytes\""), "{body}");
    assert!(body.contains("\"journal_lag_records\""), "{body}");
    assert!(body.contains("\"version\""), "{body}");
    assert!(body.contains("\"uptime_seconds\""), "{body}");

    let (status, metrics) = http_get(addr, "/metrics");
    assert!(status.contains("200"), "{status}");
    // The /healthz hit above was counted, so the request counter is
    // registered and nonzero, and every histogram family carries the
    // summary quantiles.
    assert!(
        metrics.contains("# TYPE obs_http_requests counter"),
        "{metrics}"
    );
    assert!(metrics.contains("quantile=\"0.99\""), "{metrics}");
    // Each series (name plus label set) is exposed once.
    let mut series = std::collections::BTreeSet::new();
    for line in metrics.lines().filter(|l| !l.starts_with('#')) {
        let (name, _) = line.rsplit_once(' ').expect("series and value");
        assert!(series.insert(name), "{name} exposed twice:\n{metrics}");
    }

    let (status, tracez) = http_get(addr, "/tracez");
    assert!(status.contains("200"), "{status}");
    assert!(tracez.contains("\"recording\":true"), "{tracez}");
    // `/tracez` is the Chrome export `--trace-out` writes: it passes the
    // trace gate, and a connection worker's lane holds a request served
    // before it as one complete event.
    cable_bench::check_chrome_trace(&tracez)
        .unwrap_or_else(|problems| panic!("{problems:?}\n{tracez}"));
    let tracez = cable_obs::json::Value::parse(tracez.trim()).unwrap();
    let events = tracez
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .unwrap();
    let conn_lanes: Vec<u64> = events
        .iter()
        .filter(|e| {
            let name = e.get("args").and_then(|a| a.get("name"));
            e.get("ph").and_then(|p| p.as_str()) == Some("M")
                && name
                    .and_then(|n| n.as_str())
                    .is_some_and(|n| n.starts_with("cable-obs-conn-"))
        })
        .filter_map(|e| e.get("tid").and_then(|t| t.as_u64()))
        .collect();
    assert!(
        events.iter().any(|e| {
            e.get("ph").and_then(|p| p.as_str()) == Some("X")
                && e.get("name").and_then(|n| n.as_str()) == Some("http.request")
                && e.get("tid")
                    .and_then(|t| t.as_u64())
                    .is_some_and(|tid| conn_lanes.contains(&tid))
        }),
        "no http.request X event on a cable-obs-conn-N lane: {tracez}"
    );

    let (status, _) = http_get(addr, "/nope");
    assert!(status.contains("404"), "{status}");

    drop(server);
}

#[test]
fn budget_exceeded_cluster_exits_4_with_a_deterministic_partial() {
    // The same budget trip must produce bit-identical partial output
    // whatever the worker count: under a budget the lattice build takes
    // the sequential guarded path.
    let run = |threads: &str| {
        cable(&[
            "cluster",
            "--traces",
            "testdata/stdio_violations.traces",
            "--max-concepts",
            "3",
            "--threads",
            threads,
        ])
    };
    let one = run("1");
    let eight = run("8");
    assert_eq!(one.status.code(), Some(4), "{}", stderr(&one));
    assert_eq!(eight.status.code(), Some(4), "{}", stderr(&eight));
    assert!(
        stderr(&one).contains("budget exceeded"),
        "stderr was: {}",
        stderr(&one)
    );
    assert!(!stdout(&one).is_empty(), "partial summary still prints");
    assert_eq!(
        stdout(&one),
        stdout(&eight),
        "partial result must not depend on the worker count"
    );
}

#[test]
fn keep_going_ingest_skips_bad_lines_and_reports_them() {
    let dir = tmp_dir("keepgoing");
    let store = dir.join("store");
    let out = cable(&[
        "session",
        "open",
        "--traces",
        "testdata/stdio_violations.traces",
        "--store",
        store.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));

    let mixed = dir.join("mixed.traces");
    fs::write(
        &mixed,
        "popen(X) pclose(X)\nthis is ( garbage\nfopen(Y) fclose(Y)\n\nwat((\n",
    )
    .unwrap();
    let out = cable(&[
        "session",
        "ingest",
        "--store",
        store.to_str().unwrap(),
        "--traces",
        mixed.to_str().unwrap(),
        "--keep-going",
    ]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains(":2: skipped:"), "stderr was: {err}");
    assert!(err.contains(":5: skipped:"), "stderr was: {err}");
    assert!(
        err.contains("skipped 2 malformed of 4 trace lines"),
        "stderr was: {err}"
    );
    assert!(
        stdout(&out).contains("ingested 2 traces"),
        "stdout was: {}",
        stdout(&out)
    );

    // Without --keep-going the same file is a hard error.
    let out = cable(&[
        "session",
        "ingest",
        "--store",
        store.to_str().unwrap(),
        "--traces",
        mixed.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("line 2"), "{}", stderr(&out));
}

#[test]
fn injected_io_fault_is_a_typed_error_and_the_rerun_succeeds() {
    let dir = tmp_dir("iofault");
    let store = dir.join("store");
    let open = |faults: Option<&str>| {
        let mut args = vec![
            "session",
            "open",
            "--traces",
            "testdata/stdio_violations.traces",
            "--store",
            store.to_str().unwrap(),
        ];
        if let Some(spec) = faults {
            args.push("--faults");
            args.push(spec);
        }
        cable(&args)
    };
    let out = open(Some("7:io@store.publish#1"));
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("injected fault: io@store.publish"), "{err}");
    assert!(!err.contains("panicked"), "typed error, not a panic: {err}");

    // The failed publish left no committed store behind; a clean rerun
    // of the same command succeeds.
    let out = open(None);
    assert!(out.status.success(), "{}", stderr(&out));
}

#[test]
fn injected_worker_panic_is_contained_and_the_rerun_succeeds() {
    let run = |faults: Option<&str>| {
        let mut args = vec![
            "cluster",
            "--traces",
            "testdata/stdio_violations.traces",
            "--threads",
            "4",
        ];
        if let Some(spec) = faults {
            args.push("--faults");
            args.push(spec);
        }
        cable(&args)
    };
    let out = run(Some("1:panic@par.task#1"));
    assert_eq!(out.status.code(), Some(5), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("error: task panicked: injected fault: panic@par.task"),
        "stderr was: {}",
        stderr(&out)
    );
    let out = run(None);
    assert!(out.status.success(), "{}", stderr(&out));
}

/// Reads until the first CRLF (TCP may deliver the status line in
/// several fragments) and returns everything received so far.
fn read_status_line(stream: &mut TcpStream) -> String {
    let mut bytes = Vec::new();
    let mut buf = [0u8; 256];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                bytes.extend_from_slice(&buf[..n]);
                if bytes.windows(2).any(|w| w == b"\r\n") {
                    break;
                }
            }
            // A blocking read under a socket timeout is not restarted
            // after a signal (signal(7)): EINTR is no end of stream.
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Satellite hardening of the obs HTTP endpoint, exercised over raw TCP
/// against a real `cable serve` process: oversized request heads get a
/// 431, and a herd of idle (slowloris-style) connections cannot wedge
/// the server — it keeps answering, at worst with an immediate 503.
#[test]
fn serve_survives_oversized_heads_and_idle_connection_herds() {
    let server = spawn_serving(&["serve", "--obs-listen", "0"]);
    let addr = &server.addr;

    // Oversized request line + headers: the server answers 431 instead
    // of buffering without bound.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    write!(stream, "GET /metrics HTTP/1.1\r\n").unwrap();
    let _ = write!(stream, "X-Filler: {}\r\n\r\n", "x".repeat(64 * 1024));
    let status = read_status_line(&mut stream);
    assert!(status.starts_with("HTTP/1.1 431"), "{status}");
    drop(stream);

    // Slowloris herd: open idle connections up to the concurrency cap.
    // The server must still answer promptly — a 503 at the cap is the
    // survival behaviour; anything but a stall is acceptable.
    let idle: Vec<TcpStream> = (0..cable::session::server::MAX_CONNECTIONS)
        .map(|_| TcpStream::connect(addr).expect("idle connect"))
        .collect();
    let mut stream = TcpStream::connect(addr).expect("connect past the cap");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    write!(stream, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
    let status = read_status_line(&mut stream);
    assert!(status.starts_with("HTTP/1.1"), "{status}");
    drop(stream);
    drop(idle);

    // Once the herd is gone (handlers time out within 2 s), normal
    // service resumes.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let (status, body) = http_get(addr, "/healthz");
        if status.contains("200") {
            assert!(body.contains("\"guard\""), "healthz reports guard: {body}");
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "server did not recover from the idle herd: {status}"
        );
        std::thread::sleep(Duration::from_millis(200));
    }
}

/// A `cable` child serving HTTP, and the address it announced. Dropping
/// it kills and reaps the child, so a failed assertion cannot leave the
/// server running after the test binary exits.
struct Serving {
    child: std::process::Child,
    addr: String,
}

impl Drop for Serving {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Spawns `cable` with the given args and waits for the `serving
/// http://` announcement on stdout (skipping any earlier output lines).
fn spawn_serving(args: &[&str]) -> Serving {
    let mut child = Command::new(env!("CARGO_BIN_EXE_cable"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("cable starts");
    let mut reader = BufReader::new(child.stdout.take().unwrap());
    // The guard exists before the address does, so the panic below
    // kills the child too.
    let mut server = Serving {
        child,
        addr: String::new(),
    };
    for _ in 0..32 {
        let mut line = String::new();
        if reader.read_line(&mut line).unwrap_or(0) == 0 {
            break;
        }
        if let Some(addr) = line
            .trim()
            .strip_prefix("serving http://")
            .and_then(|rest| rest.split('/').next())
        {
            server.addr = addr.to_owned();
            return server;
        }
    }
    panic!("cable never announced a serving address");
}

/// Satellite `?limit=N` hardening plus the new exposition endpoints,
/// exercised over raw TCP: a well-formed limit is honoured with a 200,
/// anything else (garbage, zero, unknown keys) is a 400 — never a
/// silently-clamped success.
#[test]
fn serve_validates_limit_queries_and_exposes_eventz_and_sloz() {
    let server = spawn_serving(&["serve", "--obs-listen", "0"]);
    let addr = &server.addr;

    let (status, body) = http_get(addr, "/eventz");
    assert!(status.contains("200"), "{status}");
    assert!(body.contains("\"events\""), "{body}");
    assert!(body.contains("\"total\""), "{body}");

    let (status, body) = http_get(addr, "/sloz");
    assert!(status.contains("200"), "{status}");
    assert!(body.contains("\"windows\""), "{body}");
    assert!(body.contains("\"error_budget\""), "{body}");

    for path in ["/tracez?limit=5", "/eventz?limit=1", "/tracez?limit=100000"] {
        let (status, _) = http_get(addr, path);
        assert!(status.contains("200"), "{path}: {status}");
    }
    for path in [
        "/tracez?limit=garbage",
        "/tracez?limit=0",
        "/tracez?limit=-1",
        "/eventz?limit=999999999",
        "/eventz?limit=",
        "/metrics?frobnicate=1",
    ] {
        let (status, body) = http_get(addr, path);
        assert!(status.contains("400"), "{path}: {status} {body}");
    }
}

/// `cable profile diff` over two real resumed sessions: each `session
/// resume --obs-listen` run leaves a continuous-profile JSONL behind in
/// `store/profiles/`, and diffing the two produces a non-empty report
/// whose ordering is stable across invocations.
#[test]
fn profile_diff_of_two_resume_runs_is_nonempty_and_stable() {
    let dir = tmp_dir("profdiff");
    let store = dir.join("store");
    let out = cable(&[
        "session",
        "open",
        "--traces",
        "testdata/stdio_violations.traces",
        "--store",
        store.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));

    // One serve run = one profile-<pid>.jsonl; the final snapshot is
    // written on shutdown, but kill(2) skips destructors, so wait for a
    // flushed periodic tick before killing.
    let profile_run = || {
        let server = spawn_serving(&[
            "session",
            "resume",
            "--store",
            store.to_str().unwrap(),
            "--obs-listen",
            "0",
            "--profile-interval-ms",
            "25",
        ]);
        let path = store
            .join("profiles")
            .join(format!("profile-{}.jsonl", server.child.id()));
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while fs::metadata(&path).map(|m| m.len()).unwrap_or(0) == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "no profile snapshot appeared at {}",
                path.display()
            );
            std::thread::sleep(Duration::from_millis(50));
        }
        drop(server);
        path
    };
    let before = profile_run();
    let after = profile_run();
    assert_ne!(before, after, "distinct pids, distinct profile files");

    let diff = |a: &PathBuf, b: &PathBuf| {
        let out = cable(&["profile", "diff", a.to_str().unwrap(), b.to_str().unwrap()]);
        assert!(out.status.success(), "{}", stderr(&out));
        stdout(&out)
    };
    let report = diff(&before, &after);
    assert!(!report.contains("no spans"), "{report}");
    assert!(
        report.lines().count() >= 2 && report.contains("delta"),
        "a header plus at least one span row: {report}"
    );
    assert!(
        report.contains("fca.") || report.contains("core."),
        "resume replays the pipeline, so its spans show up: {report}"
    );
    assert_eq!(
        report,
        diff(&before, &after),
        "the report order is stable across invocations"
    );
}

#[test]
fn incremental_ingest_matches_clustering_the_whole_corpus_at_once() {
    let dir = tmp_dir("equivalence");
    let base = dir.join("base.traces");
    let extra = dir.join("extra.traces");
    let whole = dir.join("whole.traces");
    let base_text = "\
fopen(X) fread(X) fclose(X)
fopen(X) fwrite(X) fclose(X)
popen(Y) fread(Y) pclose(Y)
";
    let extra_text = "\
popen(Y) fwrite(Y) pclose(Y)
fopen(X) fread(X) fclose(X)
fopen(Z) fclose(Z)
";
    fs::write(&base, base_text).unwrap();
    fs::write(&extra, extra_text).unwrap();
    fs::write(&whole, format!("{base_text}{extra_text}")).unwrap();

    // Incremental ingest needs the reference FA fixed up front (the
    // unordered template depends on the corpus), so use the Figure 6
    // specification for both runs.
    let store_inc = dir.join("incremental");
    let out = cable(&[
        "session",
        "open",
        "--traces",
        base.to_str().unwrap(),
        "--fa",
        "testdata/figure6_fixed.fa",
        "--store",
        store_inc.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let out = cable(&[
        "session",
        "ingest",
        "--store",
        store_inc.to_str().unwrap(),
        "--traces",
        extra.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));

    let store_whole = dir.join("whole");
    let out = cable(&[
        "session",
        "open",
        "--traces",
        whole.to_str().unwrap(),
        "--fa",
        "testdata/figure6_fixed.fa",
        "--store",
        store_whole.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));

    let mut states = Vec::new();
    for store in [&store_inc, &store_whole] {
        let json = store.with_extension("jsonl");
        let out = cable(&[
            "session",
            "resume",
            "--store",
            store.to_str().unwrap(),
            "--json-out",
            json.to_str().unwrap(),
        ]);
        assert!(out.status.success(), "{}", stderr(&out));
        states.push(fs::read_to_string(&json).unwrap());
    }
    assert_eq!(
        states[0], states[1],
        "incremental ingest must converge on the batch-built state"
    );
}

/// One HTTP/1.1 POST with a JSON body; returns (status line, body).
fn http_post(addr: &str, path: &str, body: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to serve");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    write!(
        stream,
        "POST {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("response has a header/body split");
    let status = head.lines().next().unwrap_or_default().to_owned();
    (status, body.to_owned())
}

/// `--max-connections` sizes the worker pool, and every unknown or
/// non-positive value is a usage error (exit 2), never a silent
/// fallback to the default.
#[test]
fn max_connections_rejects_bad_values_and_accepts_good_ones() {
    for bad in ["0", "-1", "eight", ""] {
        let out = cable(&["serve", "--obs-listen", "0", "--max-connections", bad]);
        assert_eq!(out.status.code(), Some(2), "--max-connections {bad:?}");
        assert!(stderr(&out).contains("usage:"), "{}", stderr(&out));
    }
    // `--api` and `--store-root` only make sense together.
    let out = cable(&["serve", "--obs-listen", "0", "--api"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--store-root"), "{}", stderr(&out));
    let out = cable(&["serve", "--obs-listen", "0", "--store-root", "/tmp/x"]);
    assert_eq!(out.status.code(), Some(2));

    // A valid flag value serves normally.
    let server = spawn_serving(&["serve", "--obs-listen", "0", "--max-connections", "2"]);
    let addr = &server.addr;
    let (status, _) = http_get(addr, "/healthz");
    assert!(status.contains("200"), "{status}");
}

/// A command budget would bound only `serve`'s main thread, not the
/// worker threads that handle requests, so `--deadline-ms` and
/// `--max-concepts` are usage errors there (exit 2) that name the
/// per-request bound. A `serve` that accepted them would keep serving;
/// the test kills it after 10 s rather than hang.
#[test]
fn serve_rejects_command_budget_flags() {
    for flag in ["--deadline-ms", "--max-concepts"] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_cable"))
            .args(["serve", "--obs-listen", "0", flag, "300"])
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("cable starts");
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while child.try_wait().unwrap().is_none() {
            if std::time::Instant::now() >= deadline {
                child.kill().unwrap();
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        let out = child.wait_with_output().unwrap();
        assert_eq!(out.status.code(), Some(2), "serve {flag} 300");
        let err = stderr(&out);
        assert!(err.contains("--request-deadline-ms"), "{err}");
        assert!(err.contains("usage:"), "{err}");
    }
}

/// The tentpole labeling API end to end through the real binary:
/// open → ingest → label → lattice → concepts → focus → digest, plus
/// the client-error paths (malformed JSON is a 400, an unknown session
/// a 404, a plain `serve` without `--api` keeps answering 404 with a
/// hint, and non-GET methods outside `/api` stay 405).
#[test]
fn serve_api_labels_sessions_end_to_end() {
    let dir = tmp_dir("serve-api");
    let root = dir.join("tenants");
    let server = spawn_serving(&[
        "serve",
        "--obs-listen",
        "0",
        "--api",
        "--store-root",
        root.to_str().unwrap(),
    ]);
    let addr = &server.addr;

    // Open a session for tenant t1.
    let (status, body) = http_post(
        addr,
        "/api/sessions",
        "{\"tenant\": \"t1\", \"session\": \"s\", \
         \"traces\": \"fopen(#1) fread(#1) fclose(#1)\\nfopen(#2)\\n\"}",
    );
    assert!(status.contains("201"), "{status} {body}");
    assert!(body.contains("\"concepts\""), "{body}");

    // Ingest more traces into it.
    let (status, body) = http_post(
        addr,
        "/api/sessions/s/ingest",
        "{\"tenant\": \"t1\", \"traces\": \"fopen(#3) fwrite(#3) fclose(#3)\\n\"}",
    );
    assert!(status.contains("200"), "{status} {body}");
    assert!(body.contains("\"ingested\":1"), "{body}");

    // Label the top concept's unlabeled traces.
    let (status, body) = http_post(
        addr,
        "/api/sessions/s/label",
        "{\"tenant\": \"t1\", \"concept\": \"c0\", \"selector\": \"unlabeled\", \
         \"label\": \"good\"}",
    );
    assert!(status.contains("200"), "{status} {body}");
    assert!(body.contains("\"classes_labeled\""), "{body}");

    // The read endpoints.
    let (status, lattice) = http_get(addr, "/api/sessions/s/lattice?tenant=t1");
    assert!(status.contains("200"), "{status}");
    assert!(lattice.contains("\"top\""), "{lattice}");
    let top = lattice
        .split("\"top\":\"")
        .nth(1)
        .and_then(|rest| rest.split('"').next())
        .expect("top concept id")
        .to_owned();
    let (status, concepts) = http_get(addr, "/api/sessions/s/concepts?tenant=t1");
    assert!(status.contains("200"), "{status}");
    assert!(concepts.contains("\"fully_labeled\""), "{concepts}");
    let (status, focus) = http_get(
        addr,
        &format!("/api/sessions/s/focus?tenant=t1&concept={top}"),
    );
    assert!(status.contains("200"), "{status} {focus}");
    assert!(focus.contains("\"concepts\""), "{focus}");
    let (status, digest) = http_get(addr, "/api/sessions/s/digest?tenant=t1");
    assert!(status.contains("200"), "{status}");
    assert!(digest.contains("\"corpus_digest\""), "{digest}");

    // The create and the ingest ran Godin insertions and Hasse assembly
    // in the server, so their work counts are on /metrics.
    let (status, metrics) = http_get(addr, "/metrics");
    assert!(status.contains("200"), "{status}");
    for counter in ["fca_godin_intersections", "fca_hasse_intersections"] {
        let value: u64 = metrics
            .lines()
            .find_map(|l| l.strip_prefix(counter)?.strip_prefix(' ')?.parse().ok())
            .unwrap_or_else(|| panic!("{counter} missing:\n{metrics}"));
        assert!(value > 0, "{counter} = {value}");
    }

    // Tenant isolation: the same session name under another tenant is
    // a different (nonexistent) session.
    let (status, _) = http_get(addr, "/api/sessions/s/digest?tenant=t2");
    assert!(status.contains("404"), "{status}");

    // Client-error paths: malformed JSON, unknown session, bad method.
    let (status, body) = http_post(addr, "/api/sessions", "{not json");
    assert!(status.contains("400"), "{status}");
    assert!(body.contains("malformed"), "{body}");
    let (status, _) = http_post(
        addr,
        "/api/sessions/ghost/ingest",
        "{\"tenant\": \"t1\", \"traces\": \"fopen(#9)\\n\"}",
    );
    assert!(status.contains("404"), "{status}");
    let (status, _) = http_post(addr, "/metrics", "{}");
    assert!(status.contains("405"), "{status}");

    // The per-tenant store layout is on disk: root/tenant/session.
    assert!(root.join("t1").join("s").is_dir());
    drop(server);

    // Without `--api`, the API routes answer 404 with a pointer at the
    // flag — the observability endpoints still work.
    let server = spawn_serving(&["serve", "--obs-listen", "0"]);
    let addr = &server.addr;
    let (status, body) = http_get(addr, "/api/sessions");
    assert!(status.contains("404"), "{status}");
    assert!(body.contains("--api"), "{body}");
    drop(server);
}
