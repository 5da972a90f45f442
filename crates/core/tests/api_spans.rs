//! Spans close on error paths: a request the API rejects half-way
//! through still leaves a well-formed span tree, and each of its spans
//! on the recorder lane once, because every span is a scope guard rather
//! than a hand-paired begin/end.
//!
//! Observation is process-wide, so these tests run in their own
//! integration binary; they only ever turn it on.

use cable_core::{CableApi, SessionManager};
use cable_obs::context::{self, FinishedTrace, TraceCtx};
use cable_obs::recorder::{self, Record};
use cable_obs::{ApiHandler, ApiRequest, ApiResponse, Span};
use std::collections::BTreeMap;
use std::sync::Arc;

const THREAD: &str = "api-spans";

fn api() -> (CableApi, std::path::PathBuf) {
    let root = std::env::temp_dir().join(format!("cable-core-api-spans-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let manager = Arc::new(SessionManager::new(&root, 4));
    (CableApi::new(manager, None), root)
}

/// One POST through the API under request context number `seq`.
fn traced_post(api: &CableApi, seq: u64, route: &str, body: &str) -> (ApiResponse, FinishedTrace) {
    let request = context::begin_request(TraceCtx::mint(5, seq), "http.request", 0);
    let response = api.handle(&ApiRequest {
        method: "POST".into(),
        route: route.into(),
        query: None,
        body: body.into(),
    });
    (response, request.finish())
}

/// Every span is closed, ids are unique, and every span chains to the
/// request root.
fn assert_well_formed(trace: &FinishedTrace) {
    let root = trace.ctx.span_id;
    let parents: BTreeMap<u64, u64> = trace.spans.iter().map(|s| (s.span, s.parent)).collect();
    assert_eq!(parents.len(), trace.spans.len(), "span ids repeat");
    assert_eq!(parents.get(&root), Some(&0), "the root is collected");
    for s in &trace.spans {
        assert!(s.end_ns >= s.start_ns, "{} closed before it opened", s.name);
        let mut cursor = s.span;
        for _ in 0..=parents.len() {
            if cursor == root {
                break;
            }
            cursor = *parents
                .get(&cursor)
                .unwrap_or_else(|| panic!("{} is orphaned", s.name));
        }
        assert_eq!(cursor, root, "{} does not chain to the root", s.name);
    }
}

/// The named span closed exactly once, inside the root's tree.
fn assert_closed_under_root(trace: &FinishedTrace, name: &str) {
    let spans: Vec<_> = trace.spans.iter().filter(|s| s.name == name).collect();
    assert_eq!(spans.len(), 1, "{name} closed once: {:?}", trace.spans);
    assert_ne!(spans[0].parent, 0, "{name} is under the root");
}

/// This thread's lane holds each span of the request's tree exactly
/// once, as the very record the tree holds.
fn assert_on_lane_once(trace: &FinishedTrace) {
    let lane = recorder::snapshot()
        .into_iter()
        .find(|l| l.label == THREAD)
        .expect("the request thread has a lane");
    assert_eq!(lane.dropped, 0, "the lane overflowed");
    for rec in &trace.spans {
        let copies = lane
            .records
            .iter()
            .filter(|r| **r == Record::Span(*rec))
            .count();
        assert_eq!(copies, 1, "{} is on the lane {copies} times", rec.name);
    }
}

/// The next request on this thread starts from an empty frame stack:
/// nothing is installed between requests, and a span opened in the new
/// request hangs directly off its root.
fn assert_next_request_starts_clean(seq: u64) {
    assert!(
        context::active().is_none(),
        "a context outlived its request"
    );
    let ctx = TraceCtx::mint(5, seq);
    let request = context::begin_request(ctx, "http.request", 0);
    assert_eq!(
        context::active().map(|c| c.span_id),
        Some(ctx.span_id),
        "only the new root is open"
    );
    drop(Span::open("probe"));
    let trace = request.finish();
    let probe = trace.spans.iter().find(|s| s.name == "probe").unwrap();
    assert_eq!(probe.parent, ctx.span_id);
    assert_on_lane_once(&trace);
}

#[test]
fn failing_requests_close_their_spans() {
    cable_obs::set_enabled(true);
    std::thread::Builder::new()
        .name(THREAD.to_owned())
        .spawn(|| {
            let (api, root) = api();

            // Unparsable `traces` on create: 422.
            let (response, trace) = traced_post(
                &api,
                1,
                "/api/sessions",
                r#"{"tenant":"t1","session":"bad","traces":"fopen(#1"}"#,
            );
            assert_eq!(response.status, 422, "{}", response.body);
            assert_well_formed(&trace);
            assert_closed_under_root(&trace, "parse.traces");
            assert_on_lane_once(&trace);
            assert_next_request_starts_clean(2);

            // Malformed traces on ingest into a live session: 422.
            let (response, _) = traced_post(
                &api,
                3,
                "/api/sessions",
                r#"{"tenant":"t1","session":"s","traces":"fopen(#1) fclose(#1)\n"}"#,
            );
            assert_eq!(response.status, 201, "{}", response.body);
            let (response, trace) = traced_post(
                &api,
                4,
                "/api/sessions/s/ingest",
                r#"{"tenant":"t1","traces":"fclose(#2"}"#,
            );
            assert_eq!(response.status, 422, "{}", response.body);
            assert_well_formed(&trace);
            assert_closed_under_root(&trace, "parse.traces");
            assert_on_lane_once(&trace);
            assert_next_request_starts_clean(5);

            let _ = std::fs::remove_dir_all(root);
        })
        .expect("spawn")
        .join()
        .expect("request thread");
}
