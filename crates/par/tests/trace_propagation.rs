//! Trace-context propagation across the work-stealing pool.
//!
//! The contract under test (DESIGN.md §16): a request's `TraceCtx`
//! follows its work onto whichever worker steals it, span ids are
//! minted from deterministic path tags (`CHUNK_TAG`/`SPAWN_TAG` plus
//! in-frame sequence numbers) rather than thread identity, and each
//! request collects into its own tree. Concretely:
//!
//! * the same request shape yields the *bit-identical* span id set on
//!   1, 2, and 8 logical threads (sequential vs stolen execution);
//! * every collected span chains to the request root through parent
//!   links — no orphans — and every recorder event minted under the
//!   request carries its trace id;
//! * two requests running concurrently on one shared pool never bleed
//!   spans into each other's trees.
//!
//! These tests flip the process-wide observation flag, so they live in
//! their own integration-test process and serialize on a local mutex.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Barrier, Mutex};

use cable_obs::context::{self, FinishedTrace, TraceCtx};
use cable_obs::recorder::{self, EventKind};
use cable_obs::Span;
use cable_par::Pool;

/// Observation is process-wide state; run one test at a time.
static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

/// One request of fixed shape: a 32-item `par_map` whose every item
/// opens a span, then a scope with three spawned units that each open
/// a span and run a nested 8-item `par_map` — the nested-steal case.
fn run_request(pool: &Pool, seed: u64, seq: u64) -> FinishedTrace {
    let ctx = TraceCtx::mint(seed, seq);
    let guard = context::begin_request(ctx, "http.request", 500);
    let items: Vec<u64> = (0..32).collect();
    let doubled = pool.par_map("tp.outer", &items, |&x| {
        let _item = Span::open("tp.item");
        x * 2
    });
    assert_eq!(doubled[31], 62);
    let small: Vec<u64> = (0..8).collect();
    pool.scope(|s| {
        for _ in 0..3 {
            s.spawn(|| {
                let _spawned = Span::open("tp.spawned");
                let sums = pool.par_map("tp.inner", &small, |&x| x + 1);
                assert_eq!(sums.iter().sum::<u64>(), 36);
            });
        }
    });
    guard.finish()
}

/// `(name, span, parent)` triples, sorted — the timing-free identity of
/// a span tree.
fn shape(trace: &FinishedTrace) -> Vec<(&'static str, u64, u64)> {
    let mut out: Vec<_> = trace
        .spans
        .iter()
        .map(|s| (s.name, s.span, s.parent))
        .collect();
    out.sort_unstable();
    out
}

fn count(trace: &FinishedTrace, name: &str) -> usize {
    trace.spans.iter().filter(|s| s.name == name).count()
}

#[test]
fn span_ids_are_bit_identical_across_worker_counts() {
    let _guard = lock();
    cable_obs::set_enabled(true);
    let mut shapes = Vec::new();
    for threads in [1usize, 2, 8] {
        let pool = Pool::new(threads);
        let trace = run_request(&pool, 7, 1);
        assert_eq!(trace.dropped, 0, "{threads} threads: spans were dropped");
        // The shape is non-trivial: every unit of work left a span.
        assert_eq!(count(&trace, "tp.item"), 32, "{threads} threads");
        assert_eq!(count(&trace, "tp.spawned"), 3, "{threads} threads");
        assert_eq!(count(&trace, "http.request"), 1, "{threads} threads");
        assert_eq!(count(&trace, "wait.queue"), 1, "{threads} threads");
        assert!(count(&trace, "tp.outer") >= 1, "{threads} threads");
        assert_eq!(count(&trace, "tp.inner") % 3, 0, "{threads} threads");
        shapes.push((threads, shape(&trace)));
    }
    let (_, reference) = &shapes[0];
    for (threads, s) in &shapes[1..] {
        assert_eq!(
            s, reference,
            "span ids on {threads} threads differ from the sequential run"
        );
    }
}

#[test]
fn every_span_chains_to_the_request_root() {
    let _guard = lock();
    cable_obs::set_enabled(true);
    let pool = Pool::new(8);
    let trace = run_request(&pool, 11, 2);
    let root = trace.ctx.span_id;
    let parents: BTreeMap<u64, u64> = trace.spans.iter().map(|s| (s.span, s.parent)).collect();
    assert_eq!(parents.len(), trace.spans.len(), "span ids repeat");
    assert_eq!(
        parents.get(&root),
        Some(&0),
        "root span must have no parent"
    );
    for s in &trace.spans {
        let mut cursor = s.span;
        let mut hops = 0;
        while cursor != root {
            cursor = *parents.get(&cursor).unwrap_or_else(|| {
                panic!("span {:x} ({}) is orphaned at {:x}", s.span, s.name, cursor)
            });
            hops += 1;
            assert!(hops <= parents.len(), "parent cycle at {:x}", s.span);
        }
    }
    // The flight recorder saw the same work: every event minted under
    // this trace id carries a span id from the collected tree.
    let ids: BTreeSet<u64> = parents.keys().copied().collect();
    let mut seen = 0usize;
    for lane in recorder::snapshot() {
        for event in &lane.events {
            if (event.trace_hi, event.trace_lo) != (trace.ctx.trace_hi, trace.ctx.trace_lo) {
                continue;
            }
            seen += 1;
            assert_ne!(event.span, 0, "traced event {} has no span id", event.name);
            if event.kind == EventKind::Begin {
                assert!(
                    ids.contains(&event.span),
                    "event {} span {:x} is not in the collected tree",
                    event.name,
                    event.span
                );
            }
        }
    }
    assert!(seen > 0, "no recorder events carried the trace id");
}

#[test]
fn concurrent_requests_do_not_bleed_into_each_other() {
    let _guard = lock();
    cable_obs::set_enabled(true);
    let pool = Pool::new(8);
    let barrier = Barrier::new(2);
    let (a, b) = std::thread::scope(|s| {
        let run = |seq: u64| {
            let pool = &pool;
            let barrier = &barrier;
            s.spawn(move || {
                barrier.wait();
                run_request(pool, 13, seq)
            })
        };
        let a = run(1);
        let b = run(2);
        (a.join().expect("request a"), b.join().expect("request b"))
    });
    assert_ne!(
        (a.ctx.trace_hi, a.ctx.trace_lo),
        (b.ctx.trace_hi, b.ctx.trace_lo)
    );
    // Same shape of work, fully disjoint span ids: nothing leaked from
    // one request's workers into the other's collector.
    let names = |t: &FinishedTrace| {
        let mut v: Vec<&str> = t.spans.iter().map(|s| s.name).collect();
        v.sort_unstable();
        v
    };
    assert_eq!(names(&a), names(&b));
    let ids_a: BTreeSet<u64> = a.spans.iter().map(|s| s.span).collect();
    let ids_b: BTreeSet<u64> = b.spans.iter().map(|s| s.span).collect();
    assert!(
        ids_a.is_disjoint(&ids_b),
        "span ids shared between concurrent requests"
    );
}
