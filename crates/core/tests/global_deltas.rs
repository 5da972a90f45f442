//! Tests that assert exact deltas of process-global state — obs counters
//! and SLO windows — or arm the process-global fault plane, in a binary
//! of their own.
//!
//! The crate's unit tests build lattices on parallel test threads, and
//! every Godin insertion moves the process-wide `fca.godin.*` counters,
//! so a zero-delta assertion there fails whenever a sibling inserts
//! while it measures. Here each test holds [`serial`] for its whole
//! body: nothing else in this process inserts, writes a store, or
//! serves a request, while one of them measures.

use cable_core::server::ObsServer;
use cable_core::{CableSession, TraceSelector};
use cable_fa::{templates, Fa};
use cable_fca::{ConceptLattice, Context};
use cable_store::StoreError;
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
    // Only the new class went through Godin insertion.
    assert_eq!(delta.counter("fca.godin.objects_inserted"), Some(1));

    // The journaled state survives a reopen and equals a session
    // built from the whole corpus at once.
    drop(stored);
    let (reopened, report) = CableSession::open(&dir).unwrap();
    assert_eq!(report.replayed, 2);
    let (full, _) = build(&format!("{CORPUS}{fresh}"));
    assert_sessions_equal(&full, reopened.session());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A stored label op counts like an in-memory one — one op, one count
/// per class applied — and a reopen, which restores labels from the
/// journal, counts nothing.
#[test]
fn stored_label_ops_count_once_and_restores_not_at_all() {
    let _serial = serial();
    let dir = tmp_dir("label-count");
    let (session, vocab) = build(CORPUS);
    let mut stored = session.save(vocab, &dir).unwrap();
    let top = stored.session().lattice().top();

    let before = cable_obs::registry().snapshot();
    let labeled = stored
        .label_traces(top, &TraceSelector::All, "seen")
        .unwrap();
    let delta = cable_obs::registry().snapshot().delta_since(&before);
    assert_eq!(labeled, 4);
    assert_eq!(delta.counter("core.session.label_ops"), Some(1));
    assert_eq!(delta.counter("core.session.classes_labeled"), Some(4));

    drop(stored);
    let before = cable_obs::registry().snapshot();
    let (reopened, report) = CableSession::open(&dir).unwrap();
    let delta = cable_obs::registry().snapshot().delta_since(&before);
    assert_eq!(report.replayed, 4);
    assert!(reopened.session().all_labeled());
    assert_eq!(delta.counter("core.session.label_ops").unwrap_or(0), 0);
    assert_eq!(
        delta.counter("core.session.classes_labeled").unwrap_or(0),
        0
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A stored label op over N classes journals N records in one write:
/// `store.journal.appends` still counts records, but the batch makes one
/// `store.journal.append` fault-plane hit. So under a fault on the
/// site's second hit the label op succeeds, and the next write op takes
/// the fault, is refused, and is rolled back off the journal.
#[test]
fn a_label_op_over_many_classes_is_one_journal_write() {
    let _serial = serial();
    let dir = tmp_dir("one-write");
    let (session, vocab) = build(CORPUS);
    let mut stored = session.save(vocab, &dir).unwrap();
    let top = stored.session().lattice().top();

    cable_guard::faults::install("5:io@store.journal.append#2").unwrap();
    let before = cable_obs::registry().snapshot();
    let labeled = stored.label_traces(top, &TraceSelector::All, "seen");
    let delta = cable_obs::registry().snapshot().delta_since(&before);
    let refused = stored.ingest_text("popen(Y) fwrite(Y) pclose(Y)\n", false);
    cable_guard::faults::uninstall();

    assert_eq!(labeled.expect("the label op is the site's first hit"), 4);
    assert_eq!(delta.counter("store.journal.appends"), Some(4));
    assert!(matches!(refused, Err(StoreError::Io(_))), "{refused:?}");
    assert!(stored.store().is_degraded());
    assert_eq!(stored.session().classes().len(), 4, "nothing applied");

    // The refused ingest was truncated off the journal: a reopen
    // replays the label op's four records and nothing else.
    drop(stored);
    let (reopened, report) = CableSession::open(&dir).unwrap();
    assert_eq!(report.replayed, 4);
    assert_eq!(reopened.session().classes().len(), 4);
    assert!(reopened.session().all_labeled());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn push_traces_matches_a_session_built_over_the_same_traces() {
    let _serial = serial();
    let mut v = Vocab::new();
    let mut grown = stdio_session(&mut v);
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
    let results = grown.push_traces(parsed);
    let delta = cable_obs::registry().snapshot().delta_since(&before);
    assert_eq!(
        results.iter().map(|&(_, fresh)| fresh).collect::<Vec<_>>(),
        vec![true, false, true]
    );
    // Three traces pushed, two of them new classes, and only those two
    // went through Godin insertion.
    assert_eq!(delta.counter("core.session.traces_pushed"), Some(3));
    assert_eq!(delta.counter("core.session.classes_pushed"), Some(2));
    assert_eq!(delta.counter("fca.godin.objects_inserted"), Some(2));

    let built = CableSession::new(grown.traces().clone(), grown.reference_fa().clone());
    assert_sessions_equal(&built, &grown);
    for id in built.lattice().ids() {
        assert_eq!(grown.lattice().concept(id), built.lattice().concept(id));
        assert_eq!(grown.lattice().children(id), built.lattice().children(id));
    }
}

/// `push_traces` builds one lattice per batch that founds a class — the
/// one `insert_objects` returns — and none for a batch of duplicates:
/// the lattice it holds while `insert_objects` consumes the old one is
/// not a build.
#[test]
fn a_batch_builds_one_lattice_if_it_founds_a_class_and_none_otherwise() {
    let _serial = serial();
    let mut v = Vocab::new();
    let mut session = stdio_session(&mut v);
    let mut parse = |texts: &[&str]| -> Vec<Trace> {
        texts
            .iter()
            .map(|t| Trace::parse(t, &mut v).unwrap())
            .collect()
    };
    let founding = parse(&["popen(X) fwrite(X)", "popen(X) fread(X)"]);
    let duplicates = parse(&["popen(X) fread(X)", "fopen(X) fwrite(X)"]);

    let before = cable_obs::registry().snapshot();
    session.push_traces(founding);
    let delta = cable_obs::registry().snapshot().delta_since(&before);
    assert_eq!(delta.counter("core.session.classes_pushed"), Some(1));
    assert_eq!(delta.counter("fca.lattice.built"), Some(1));

    let before = cable_obs::registry().snapshot();
    session.push_traces(duplicates);
    let delta = cable_obs::registry().snapshot().delta_since(&before);
    assert_eq!(delta.counter("core.session.traces_pushed"), Some(2));
    assert_eq!(delta.counter("core.session.classes_pushed").unwrap_or(0), 0);
    assert_eq!(delta.counter("fca.lattice.built").unwrap_or(0), 0);
}

/// The default lattice `push_traces` holds meanwhile is the lattice of
/// the empty context, concept for concept and cover for cover, and
/// making it counts no build.
#[test]
fn the_default_lattice_is_the_lattice_of_the_empty_context() {
    let _serial = serial();
    let before = cable_obs::registry().snapshot();
    let stand_in = ConceptLattice::default();
    let delta = cable_obs::registry().snapshot().delta_since(&before);
    assert_eq!(delta.counter("fca.lattice.built").unwrap_or(0), 0);

    let built = ConceptLattice::build(&Context::new(0, 0));
    assert_eq!(stand_in.len(), built.len());
    assert_eq!(stand_in.top(), built.top());
    assert_eq!(stand_in.bottom(), built.bottom());
    for id in built.ids() {
        let concept = built.concept(id);
        assert_eq!(stand_in.concept(id), concept);
        assert_eq!(stand_in.children(id), built.children(id));
        assert_eq!(stand_in.parents(id), built.parents(id));
        assert_eq!(stand_in.find_by_extent(&concept.extent), Some(id));
    }
}

/// Every request's wide event feeds the `/sloz` window keyed by its
/// stage, so the stage must come from a bounded set: a client sending
/// many distinct paths must not open a window per path.
#[test]
fn distinct_junk_paths_open_at_most_one_slo_window() {
    let _serial = serial();
    cable_obs::set_enabled(true);
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
    cable_obs::set_enabled(false);
    assert!(
        added <= 1,
        "64 junk paths opened {added} http_request windows"
    );
}

/// A request the server answered is a success in its `/sloz` window
/// unless the answer was a 5xx: three `/healthz` hits add three samples
/// and no error, and a 5xx outcome in the same window adds one error.
#[test]
fn answered_requests_are_slo_successes_unless_5xx() {
    let _serial = serial();
    cable_obs::set_enabled(true);
    let healthz_window = || {
        cable_obs::slo::reports(0.01)
            .into_iter()
            .find(|report| report.key == "http_request:/healthz")
            .map_or((0, 0), |report| (report.count, report.errors))
    };
    let (count, errors) = healthz_window();
    let guard = ObsServer::bind("0").expect("bind ephemeral").spawn();
    for _ in 0..3 {
        let mut stream = TcpStream::connect(guard.addr()).expect("connect");
        write!(stream, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read response");
        assert!(response.starts_with("HTTP/1.1 200"), "{response}");
    }
    drop(guard);
    assert_eq!(healthz_window(), (count + 3, errors), "200s are not errors");
    cable_obs::events::emit(
        cable_obs::WideEvent::new("http_request", "http")
            .stage("/healthz")
            .outcome("503"),
    );
    cable_obs::set_enabled(false);
    assert_eq!(
        healthz_window(),
        (count + 4, errors + 1),
        "a 5xx is an error"
    );
}
