//! Guarded session builds: a budget trip during clustering returns a
//! valid partial session over the leading trace classes, equal to the
//! session built from those classes' traces alone.
//!
//! Budgets belong to the thread that installs them, so these tests run
//! side by side without a lock.

use cable_core::CableSession;
use cable_fa::templates;
use cable_guard::{Budget, GuardError, Limit};
use cable_trace::{Trace, TraceSet, Vocab};
use std::time::Duration;

/// A corpus with many distinct trace shapes, so the lattice is big
/// enough for a concept ceiling to land mid-build.
fn corpus(v: &mut Vocab) -> (TraceSet, cable_fa::Fa) {
    let ops = ["open", "read", "write", "seek", "close", "flush"];
    let mut traces = TraceSet::new();
    let mut all = Vec::new();
    for i in 0..40usize {
        // Vary the subset of operations per trace deterministically.
        let text: Vec<String> = ops
            .iter()
            .enumerate()
            .filter(|(j, _)| (i >> j) & 1 == 1 || i % (j + 2) == 0)
            .map(|(_, op)| format!("{op}(X)"))
            .collect();
        let t = Trace::parse(&text.join(" "), v).unwrap();
        all.push(t.clone());
        traces.push(t);
    }
    let fa = templates::unordered_of_trace_events(&all);
    (traces, fa)
}

#[test]
fn try_new_without_a_guard_equals_new() {
    let mut v = Vocab::new();
    let (traces, fa) = corpus(&mut v);
    let guarded = CableSession::try_new(traces.clone(), fa.clone()).expect("no budget installed");
    let plain = CableSession::new(traces, fa);
    assert_eq!(guarded.classes().len(), plain.classes().len());
    assert_eq!(guarded.lattice().len(), plain.lattice().len());
}

#[test]
fn concept_ceiling_returns_a_valid_partial_session() {
    let mut v = Vocab::new();
    let (traces, fa) = corpus(&mut v);
    let full = CableSession::new(traces.clone(), fa.clone());
    let ceiling = full.lattice().len() as u64 / 2;

    let guard = Budget {
        max_concepts: Some(ceiling),
        ..Budget::default()
    }
    .install();
    let stop = CableSession::try_new(traces, fa.clone()).expect_err("ceiling must trip");
    drop(guard);

    assert!(matches!(
        stop.error,
        GuardError::BudgetExceeded {
            limit: Limit::Concepts { .. },
            ..
        }
    ));
    let partial = &stop.partial;
    assert_eq!(partial.classes().len(), stop.classes_clustered);
    assert!(stop.classes_clustered < full.classes().len());

    // The partial session equals the session built from just the
    // covered classes' traces.
    let mut sub = TraceSet::new();
    for (id, t) in partial.traces().iter() {
        let _ = id;
        sub.push(t.clone());
    }
    let rebuilt = CableSession::new(sub, fa);
    assert_eq!(partial.classes().len(), rebuilt.classes().len());
    assert_eq!(partial.lattice().len(), rebuilt.lattice().len());
    for (_, c) in rebuilt.lattice().iter() {
        assert!(partial.lattice().find_by_extent(&c.extent).is_some());
    }
}

#[test]
fn expired_deadline_stops_the_sweep_with_an_empty_partial() {
    let mut v = Vocab::new();
    let (traces, fa) = corpus(&mut v);
    let guard = Budget {
        deadline: Some(Duration::ZERO),
        ..Budget::default()
    }
    .install();
    let stop = CableSession::try_new(traces, fa).expect_err("expired deadline must trip");
    drop(guard);
    assert!(matches!(
        stop.error,
        GuardError::BudgetExceeded {
            limit: Limit::Deadline { .. },
            ..
        }
    ));
    assert_eq!(stop.classes_clustered, 0);
    assert_eq!(stop.partial.traces().len(), 0);
    // Even the empty partial is a well-formed session object.
    assert_eq!(stop.partial.lattice().len(), 1);
}

/// The partial session is fully usable: it can be labeled and saved
/// like any complete session.
#[test]
fn partial_sessions_are_labelable_and_persistable() {
    let mut v = Vocab::new();
    let (traces, fa) = corpus(&mut v);
    let full = CableSession::new(traces.clone(), fa.clone());
    let guard = Budget {
        max_concepts: Some(full.lattice().len() as u64 / 2),
        ..Budget::default()
    }
    .install();
    let stop = CableSession::try_new(traces, fa).expect_err("ceiling must trip");
    drop(guard);

    let mut partial = stop.partial;
    let top = partial.lattice().top();
    partial.label_traces(top, &cable_core::TraceSelector::All, "seen");
    assert!(partial.all_labeled());

    let dir = std::env::temp_dir().join(format!(
        "cable-guarded-session-{}-persist",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let stored = partial.save(v.clone(), &dir).expect("partial saves");
    drop(stored);
    let (reopened, _) = CableSession::open(&dir).expect("partial reopens");
    assert!(reopened.session().all_labeled());
    std::fs::remove_dir_all(&dir).unwrap();
}
