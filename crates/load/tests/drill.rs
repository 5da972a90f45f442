//! The in-process service drill: the load driver against a real
//! server + API handler, then a sequential replay of every labeler's
//! verify log, asserting the drill's two gates — zero server errors,
//! and bit-identical session digests between the concurrent run and
//! the sequential replay.
//!
//! This is the same property `scripts/service_drill.sh` checks through
//! the CLI in CI; here it runs in-process so `cargo test` covers it on
//! every change.

use cable_core::digest::session_state_record;
use cable_core::manager::{SessionKey, SessionManager};
use cable_core::server::{ObsServer, ServerConfig};
use cable_core::session::{CableSession, TraceSelector};
use cable_core::CableApi;
use cable_fa::templates;
use cable_fca::ConceptId;
use cable_load::{run, LoadOptions};
use cable_obs::json::Value;
use cable_trace::{Trace, TraceSet, Vocab};
use std::path::Path;
use std::sync::Arc;

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("cable-load-drill-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Replays one labeler's verify log sequentially into a fresh store
/// and returns the final digest record.
fn replay(steps_dir: &Path, store_root: &Path, tenant: &str) -> Value {
    let manager = SessionManager::new(store_root, 4);
    let key = SessionKey::new(tenant, "s").unwrap();
    let mut steps: Vec<_> = std::fs::read_dir(steps_dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("step-"))
        })
        .collect();
    steps.sort();
    assert!(!steps.is_empty(), "no steps logged for {tenant}");
    for step in &steps {
        let name = step.file_name().unwrap().to_str().unwrap();
        let content = std::fs::read_to_string(step).unwrap();
        if name.ends_with("open.traces") {
            let mut vocab = Vocab::new();
            let traces = TraceSet::parse(&content, &mut vocab).unwrap();
            let list: Vec<Trace> = traces.iter().map(|(_, t)| t.clone()).collect();
            let fa = templates::unordered_of_trace_events(&list);
            manager
                .create(&key, CableSession::new(traces, fa), vocab)
                .unwrap();
        } else if name.ends_with("ingest.traces") {
            manager
                .with_session(&key, |stored| {
                    stored
                        .ingest_text(&content, false)
                        .map_err(cable_core::manager::ManagerError::Store)?;
                    Ok(())
                })
                .unwrap();
        } else if name.ends_with("label.script") {
            // `label cN <all|unlabeled> <name>` — the syntax
            // `cable label --script` parses.
            let parts: Vec<&str> = content.split_whitespace().collect();
            let [_, concept, selector, label] = parts.as_slice() else {
                panic!("bad script line {content:?}");
            };
            let id = ConceptId(concept.strip_prefix('c').unwrap().parse().unwrap());
            let selector = match *selector {
                "all" => TraceSelector::All,
                "unlabeled" => TraceSelector::Unlabeled,
                other => panic!("unexpected selector {other:?}"),
            };
            manager
                .with_session(&key, |stored| {
                    stored
                        .label_traces(id, &selector, label)
                        .map_err(cable_core::manager::ManagerError::Store)?;
                    Ok(())
                })
                .unwrap();
        } else {
            panic!("unexpected step file {name:?}");
        }
    }
    manager
        .with_session(&key, |stored| Ok(session_state_record(stored)))
        .unwrap()
}

#[test]
fn concurrent_run_replays_sequentially_to_identical_digests() {
    let root = tmp_dir("stores");
    let verify = tmp_dir("verify");

    // A deliberately tight manager (4 slots for 6 labelers) so the
    // drill exercises eviction under concurrency, and a small worker
    // pool + queue so at least some requests see real queueing.
    let manager = Arc::new(SessionManager::new(root.join("server"), 4));
    let api = CableApi::new(Arc::clone(&manager), None);
    let server = ObsServer::bind_with(
        "127.0.0.1:0",
        ServerConfig {
            max_connections: 4,
            queue_depth: 64,
            ..ServerConfig::default()
        },
        Some(Arc::new(api)),
        None,
    )
    .unwrap();
    let addr = server.addr().to_string();
    let guard = server.spawn();

    let mut opts = LoadOptions::new(&addr);
    opts.labelers = 6;
    opts.requests = 12;
    opts.seed = 1234;
    opts.verify_dir = Some(verify.clone());
    let report = run(&opts).unwrap();

    // Gate 1: nothing 5xx'd, nothing broke at the transport level,
    // and the run actually did work.
    assert_eq!(report.errors_5xx, 0, "server errors:\n{}", report.render());
    assert_eq!(
        report.io_errors,
        0,
        "transport errors:\n{}",
        report.render()
    );
    assert_eq!(report.errors_4xx, 0, "client bugs:\n{}", report.render());
    assert_eq!(report.requests, 6 * (12 + 3) as u64, "{}", report.render());
    assert_eq!(report.ok, report.requests);

    // Gate 2: every labeler's server-side digest equals a sequential
    // replay of its logged ops into a fresh store.
    for i in 0..opts.labelers {
        let labeler_dir = verify.join(format!("labeler-{i:03}"));
        let digest_text = std::fs::read_to_string(labeler_dir.join("digest.jsonl")).unwrap();
        let server_digest = Value::parse(digest_text.trim()).unwrap();
        let tenant = format!("load{i:03}");
        let replayed = replay(&labeler_dir, &root.join(format!("replay-{i}")), &tenant);
        assert_eq!(
            server_digest, replayed,
            "labeler {i}: concurrent service run diverged from sequential replay"
        );
    }

    drop(guard);
    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_dir_all(&verify);
}
