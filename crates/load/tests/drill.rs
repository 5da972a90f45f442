//! The in-process service drill: the load driver against a real
//! server + API handler, then a sequential replay of every labeler's
//! acknowledged steps, asserting the drill's two gates — zero server
//! errors, and bit-identical session digests between the concurrent run
//! and the sequential replay.
//!
//! This is the property `cable-load drill service` checks against a
//! `cable serve` process; here it runs on one in-process server so
//! `cargo test` covers it on every change.

use cable_core::digest::session_state_record;
use cable_core::manager::{ManagerError, SessionKey, SessionManager};
use cable_core::server::{ObsServer, ServerConfig};
use cable_core::session::{parse_script, CableSession};
use cable_core::CableApi;
use cable_fa::templates;
use cable_load::{run, LoadOptions, Step};
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

/// Replays one labeler's steps sequentially into a fresh store and
/// returns the final digest record.
fn replay(steps: &[Step], store_root: &Path, tenant: &str) -> Value {
    let manager = SessionManager::new(store_root, 4);
    let key = SessionKey::new(tenant, "s").unwrap();
    assert!(!steps.is_empty(), "no steps logged for {tenant}");
    for step in steps {
        match step {
            Step::Open(text) => {
                let mut vocab = Vocab::new();
                let traces = TraceSet::parse(text, &mut vocab).unwrap();
                let list: Vec<Trace> = traces.iter().map(|(_, t)| t.clone()).collect();
                let fa = templates::unordered_of_trace_events(&list);
                manager
                    .create(&key, CableSession::new(traces, fa), vocab)
                    .unwrap();
            }
            Step::Ingest(text) => manager
                .with_session(&key, |stored| {
                    stored
                        .ingest_text(text, false)
                        .map_err(ManagerError::Store)?;
                    Ok(())
                })
                .unwrap(),
            Step::Label(line) => manager
                .with_session(&key, |stored| {
                    let commands = parse_script(line, stored.session().lattice().len())
                        .unwrap_or_else(|e| panic!("bad script line {line:?}: {e}"));
                    for (id, selector, label) in commands {
                        stored
                            .label_traces(id, &selector, &label)
                            .map_err(ManagerError::Store)?;
                    }
                    Ok(())
                })
                .unwrap(),
        }
    }
    manager
        .with_session(&key, |stored| Ok(session_state_record(stored)))
        .unwrap()
}

#[test]
fn concurrent_run_replays_sequentially_to_identical_digests() {
    let root = tmp_dir("stores");

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
    let report = run(&opts);

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
    // replay of its acknowledged steps into a fresh store.
    assert_eq!(report.logs.len(), opts.labelers);
    for (i, log) in report.logs.iter().enumerate() {
        let server_digest = log.digest.as_ref().expect("the server answered the digest");
        let tenant = format!("load{i:03}");
        let replayed = replay(&log.steps, &root.join(format!("replay-{i}")), &tenant);
        assert_eq!(
            *server_digest, replayed,
            "labeler {i}: concurrent service run diverged from sequential replay"
        );
    }

    drop(guard);
    let _ = std::fs::remove_dir_all(&root);
}
