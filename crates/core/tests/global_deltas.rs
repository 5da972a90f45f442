//! Tests that assert exact deltas of process-global state — obs counters
//! and SLO windows — in a binary of their own.
//!
//! The crate's unit tests build lattices on parallel test threads, and
//! every Godin insertion moves the process-wide `fca.godin.*` counters,
//! so a zero-delta assertion there fails whenever a sibling inserts
//! while it measures. Here each test holds [`serial`] for its whole
//! body: nothing else in this process inserts, or serves a request,
//! while one of them measures.

use cable_core::server::ObsServer;
use cable_core::CableSession;
use cable_fa::{templates, Fa};
use cable_trace::{Trace, TraceSet, Vocab};
use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

const FA: &str = "\
start s0
accept s0
s0 -> s1 : fopen(X)
s1 -> s0 : fclose(X)
s1 -> s1 : fread(X)
s1 -> s1 : fwrite(X)
s0 -> s2 : popen(X)
s2 -> s0 : pclose(X)
";

const CORPUS: &str = "\
fopen(X) fread(X) fclose(X)
fopen(X) fread(X) fclose(X)
fopen(X) fwrite(X) fclose(X)
popen(Y) fread(Y) pclose(Y)
fopen(X) fread(X)
";

fn build(corpus: &str) -> (CableSession, Vocab) {
    let mut vocab = Vocab::new();
    let fa = Fa::parse(FA, &mut vocab).unwrap();
    let traces = TraceSet::parse(corpus, &mut vocab).unwrap();
    (CableSession::new(traces, fa), vocab)
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cable-core-deltas-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn assert_sessions_equal(a: &CableSession, b: &CableSession) {
    assert_eq!(a.traces().len(), b.traces().len());
    assert_eq!(a.classes().len(), b.classes().len());
    assert_eq!(a.context().pair_count(), b.context().pair_count());
    assert_eq!(a.lattice().len(), b.lattice().len());
    for (_, c) in a.lattice().iter() {
        let other = b
            .lattice()
            .find_by_extent(&c.extent)
            .expect("extent present in both lattices");
        assert_eq!(b.lattice().concept(other).intent, c.intent);
    }
    for c in 0..a.classes().len() {
        let name_a = a.labels().get(c).map(|l| a.labels().name(l));
        let name_b = b.labels().get(c).map(|l| b.labels().name(l));
        assert_eq!(name_a, name_b, "label of class {c}");
    }
}

/// The running example: violation traces from verifying the Figure 1
/// specification, clustered with the unordered template.
fn stdio_session(v: &mut Vocab) -> CableSession {
    let texts = [
        "popen(X) fread(X) pclose(X)",
        "popen(X) fread(X) pclose(X)",
        "popen(X) fread(X)",
        "fopen(X) fwrite(X)",
        "fopen(X) fwrite(X) pclose(X)",
    ];
    let mut traces = TraceSet::new();
    for t in texts {
        traces.push(Trace::parse(t, v).unwrap());
    }
    let all: Vec<Trace> = traces.iter().map(|(_, t)| t.clone()).collect();
    let fa = templates::unordered_of_trace_events(&all);
    CableSession::new(traces, fa)
}

#[test]
fn save_open_round_trips_without_a_godin_pass() {
    let _serial = serial();
    let dir = tmp_dir("roundtrip");
    let (session, vocab) = build(CORPUS);
    let stored = session.save(vocab, &dir).unwrap();
    let (original, _) = stored.into_session();

    let before = cable_obs::registry().snapshot();
    let (stored, report) = CableSession::open(&dir).unwrap();
    let delta = cable_obs::registry().snapshot().delta_since(&before);

    assert_eq!(report.replayed, 0);
    assert!(!report.stale_journal);
    assert_sessions_equal(&original, stored.session());
    // Resume used the persisted rows and concepts: no Godin work.
    assert_eq!(delta.counter("fca.godin.objects_inserted").unwrap_or(0), 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn ingest_journals_then_extends_incrementally() {
    let _serial = serial();
    let dir = tmp_dir("ingest");
    let (session, vocab) = build(CORPUS);
    let mut stored = session.save(vocab, &dir).unwrap();

    let before = cable_obs::registry().snapshot();
    let fresh = "popen(Y) fwrite(Y) pclose(Y)\nfopen(X) fread(X) fclose(X)\n";
    let results = stored.ingest_text(fresh, false).unwrap();
    let delta = cable_obs::registry().snapshot().delta_since(&before);

    assert_eq!(results.len(), 2);
    assert!(results[0].1, "new shape founds a class");
    assert!(!results[1].1, "duplicate joins its class");
    // The insert went through live Inserter buckets, not rebuilds.
    assert_eq!(delta.counter("fca.godin.bucket_rebuilds").unwrap_or(0), 0);
    assert!(delta.counter("fca.godin.objects_inserted").unwrap_or(0) >= 1);

    // The journaled state survives a reopen and equals a session
    // built from the whole corpus at once.
    drop(stored);
    let (reopened, report) = CableSession::open(&dir).unwrap();
    assert_eq!(report.replayed, 2);
    let (full, _) = build(&format!("{CORPUS}{fresh}"));
    assert_sessions_equal(&full, reopened.session());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn push_traces_batch_matches_per_trace_pushes() {
    let _serial = serial();
    let mut v = Vocab::new();
    let mut batch = stdio_session(&mut v);
    let mut single = batch.clone();
    let fresh = [
        "popen(X) fwrite(X)",
        "popen(X) fwrite(X)", // duplicate within the batch
        "fopen(X) fread(X) pclose(X)",
    ];
    let parsed: Vec<Trace> = fresh
        .iter()
        .map(|t| Trace::parse(t, &mut v).unwrap())
        .collect();
    let before = cable_obs::registry().snapshot();
    let results = batch.push_traces(parsed.clone());
    let delta = cable_obs::registry().snapshot().delta_since(&before);
    assert_eq!(
        results.iter().map(|&(_, fresh)| fresh).collect::<Vec<_>>(),
        vec![true, false, true]
    );
    for t in parsed {
        single.push_trace(t);
    }
    assert_eq!(batch.classes().len(), single.classes().len());
    assert_eq!(batch.lattice().len(), single.lattice().len());
    for (_, c) in single.lattice().iter() {
        assert!(batch.lattice().find_by_extent(&c.extent).is_some());
    }
    // The batch went through live buckets, not per-trace rebuilds.
    assert!(delta.counter("fca.godin.bucket_reuses").unwrap_or(0) >= 2);
    assert_eq!(delta.counter("fca.godin.bucket_rebuilds").unwrap_or(0), 0);
}

/// Every request's wide event feeds the `/sloz` window keyed by its
/// stage, so the stage must come from a bounded set: a client sending
/// many distinct paths must not open a window per path.
#[test]
fn distinct_junk_paths_open_at_most_one_slo_window() {
    let _serial = serial();
    cable_obs::events::set_enabled(true);
    let http_windows = || {
        cable_obs::slo::reports(0.01)
            .iter()
            .filter(|report| report.key.starts_with("http_request:"))
            .count()
    };
    let guard = ObsServer::bind("0").expect("bind ephemeral").spawn();
    let before = http_windows();
    for i in 0..64 {
        let mut stream = TcpStream::connect(guard.addr()).expect("connect");
        write!(stream, "GET /junk-{i} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read response");
        assert!(response.starts_with("HTTP/1.1 404"), "{response}");
    }
    let added = http_windows() - before;
    drop(guard);
    cable_obs::events::set_enabled(false);
    assert!(
        added <= 1,
        "64 junk paths opened {added} http_request windows"
    );
}
