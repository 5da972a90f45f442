//! Focused sub-sessions (§4.1): when a concept looks too complicated,
//! re-cluster its traces under a template FA, label there, and merge the
//! labels back.
//!
//! The demonstration uses the `XtFree` traces: under the *unordered*
//! template, a double free (`XtMalloc XtFree XtFree`) and a correct use
//! (`XtMalloc XtFree`) land in related concepts but the leak/correct
//! distinction is easy; the before/after structure needs the
//! *seed-order* template, applied inside a focus session.
//!
//! Run with `cargo run --example focus_sessions`.

use cable::fa::templates;
use cable::prelude::*;
use cable::session::TraceSelector;
use cable::trace::{Var, Vocab};

fn main() {
    let mut vocab = Vocab::new();
    let texts = [
        // Correct: malloc … free (exactly one free).
        "XtMalloc(X) XtFree(X)",
        "XtMalloc(X) XtRealloc(X) XtFree(X)",
        "XtMalloc(X) XtRealloc(X) XtRealloc(X) XtFree(X)",
        // Leaks: no free at all.
        "XtMalloc(X)",
        "XtMalloc(X) XtRealloc(X)",
        // Double free: same event *set* as a correct trace!
        "XtMalloc(X) XtFree(X) XtFree(X)",
        "XtMalloc(X) XtRealloc(X) XtFree(X) XtFree(X)",
    ];
    let mut traces = TraceSet::new();
    for t in texts {
        traces.push(Trace::parse(t, &mut vocab).expect("well-formed trace"));
    }
    let all: Vec<Trace> = traces.iter().map(|(_, t)| t.clone()).collect();

    // Cluster with the unordered template.
    let unordered = templates::unordered_of_trace_events(&all);
    let mut session = CableSession::new(traces, unordered);
    println!(
        "unordered session: {} classes, {} concepts",
        session.classes().len(),
        session.lattice().len()
    );

    // The leaks are separable here: they are exactly the traces that do
    // not execute the XtFree self-loop. Find that concept and label its
    // complement... top-down:
    let xtfree = vocab.find_op("XtFree").expect("interned");
    // The largest concept whose shared transitions include XtFree: the
    // cluster of all traces that free.
    let free_concept = session
        .lattice()
        .ids()
        .find(|&id| {
            session.show_transitions(id).iter().any(|&tid| {
                session
                    .reference_fa()
                    .transition(tid)
                    .label
                    .as_pat()
                    .is_some_and(|p| p.op == xtfree)
            })
        })
        .expect("a concept whose intent contains the XtFree transition");
    // Everything *outside* it (at the top) that is unlabeled after
    // labeling it would be the leaks. But the free concept itself is
    // mixed: it contains correct traces AND double frees.
    let members = session.select(free_concept, &TraceSelector::All);
    println!(
        "the XtFree concept holds {} classes — correct uses and double frees mixed",
        members.len()
    );

    // §4.3: the unordered lattice is NOT well-formed for the real
    // labeling, because a double free has the same event set as a
    // correct trace.
    let truth = Fa::parse(
        "start s0\naccept s2\ns0 -> s1 : XtMalloc(X)\ns1 -> s1 : XtRealloc(X)\ns1 -> s2 : XtFree(X)\n",
        &mut vocab,
    )
    .expect("well-formed FA text");
    let oracle = move |t: &Trace| truth.accepts(t);
    assert!(
        !session.is_well_formed_for(&oracle),
        "unordered template cannot express the double-free split"
    );
    // The reason is a pair of classes with the same row but different
    // labels: no concept can tell them apart.
    let (a, b) = session
        .first_clash_for(&oracle)
        .expect("an ill-formed lattice has a clashing pair");
    let rep = |class: usize| {
        session
            .traces()
            .trace(session.classes()[class].representative)
    };
    let frees = |t: &Trace| t.iter().filter(|e| e.op == xtfree).count();
    assert_eq!(
        (frees(rep(a)), frees(rep(b))),
        (1, 2),
        "a correct use and a double free"
    );
    println!("the unordered lattice is not well-formed for the true labeling (§4.3):");
    println!(
        "  `{}` (good) and `{}` (bad) execute the same transitions\n",
        rep(a).display(&vocab),
        rep(b).display(&vocab)
    );

    // Focus: re-cluster the mixed concept's traces with the seed-order
    // template around XtFree.
    let pats = templates::distinct_event_pats(&all);
    let seed = cable::fa::EventPat::on_var(xtfree, Var(0));
    let seed_order = templates::seed_order(&pats, &seed);
    let mut focus = session.focus(free_concept, seed_order);
    println!(
        "focus session (seed-order around XtFree): {} concepts",
        focus.session().lattice().len()
    );

    // In the focus lattice, traces with a second XtFree *after* the seed
    // are rejected by the template (two seeds) and cluster separately
    // (empty attribute row); correct traces are accepted.
    // Repeated top-down passes, labeling each cluster whose unlabeled
    // traces agree (one decision per cluster).
    while !focus.session().all_labeled() {
        let mut progress = false;
        for id in focus.session().lattice().bfs_top_down() {
            let unlabeled = focus.session().unlabeled_in(id);
            if unlabeled.is_empty() {
                continue;
            }
            let reps: Vec<bool> = unlabeled
                .iter()
                .map(|&c| {
                    let rep = focus.session().classes()[c].representative;
                    focus
                        .session()
                        .traces()
                        .trace(rep)
                        .iter()
                        .filter(|e| e.op == xtfree)
                        .count()
                        == 1
                })
                .collect();
            if reps.iter().all(|&ok| ok == reps[0]) {
                let label = if reps[0] { "good" } else { "bad" };
                focus
                    .session_mut()
                    .label_traces(id, &TraceSelector::Unlabeled, label);
                progress = true;
            }
        }
        assert!(progress, "focus lattice is well-formed for this labeling");
    }

    // Merge back and finish the outer session.
    session.merge_focus(focus);
    session.label_traces(session.lattice().top(), &TraceSelector::Unlabeled, "bad");
    assert!(session.all_labeled());

    println!("after merge-back, the outer session is fully labeled:");
    for (i, class) in session.classes().iter().enumerate() {
        let rep = session.traces().trace(class.representative);
        let label = session
            .labels()
            .get(i)
            .map(|l| session.labels().name(l))
            .unwrap_or("?");
        println!("  {:5}  {}", label, rep.display(&vocab));
    }
    // Double frees are bad, single frees good, leaks bad.
    for (i, class) in session.classes().iter().enumerate() {
        let rep = session.traces().trace(class.representative);
        let frees = rep.iter().filter(|e| e.op == xtfree).count();
        let label = session
            .labels()
            .name(session.labels().get(i).expect("labeled"));
        assert_eq!(label == "good", frees == 1, "{}", rep.display(&vocab));
    }
    println!("\nthe double frees were separated with order-sensitive focus clustering ✓");
}
