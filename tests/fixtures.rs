//! Tests over the shipped `testdata/` fixtures: the text formats must
//! parse the files the documentation and CLI examples reference, and
//! the fixtures must mean what they claim.

use cable::prelude::*;
use cable::trace::Vocab;
use std::fs;
use std::path::Path;

fn read(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("testdata")
        .join(name);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

#[test]
fn violation_fixture_parses_and_matches_the_figures() {
    let mut vocab = Vocab::new();
    let traces = TraceSet::parse(&read("stdio_violations.traces"), &mut vocab).expect("parses");
    assert_eq!(traces.len(), 8);
    let buggy = Fa::parse(&read("figure1_buggy.fa"), &mut vocab).expect("parses");
    let fixed = Fa::parse(&read("figure6_fixed.fa"), &mut vocab).expect("parses");
    // Every fixture trace violates the buggy specification (that is what
    // makes them violation traces).
    for (_, t) in traces.iter() {
        assert!(!buggy.accepts(t), "{}", t.display(&vocab));
    }
    // The popen…pclose traces are accepted by the corrected
    // specification; the rest remain violations (real bugs).
    let pclose = vocab.find_op("pclose").expect("interned");
    let popen = vocab.find_op("popen").expect("interned");
    for (_, t) in traces.iter() {
        let correct = t.events().first().is_some_and(|e| e.op == popen)
            && t.events().last().is_some_and(|e| e.op == pclose);
        assert_eq!(fixed.accepts(t), correct, "{}", t.display(&vocab));
    }
}

#[test]
fn program_fixture_mines_cleanly() {
    let mut vocab = Vocab::new();
    let programs = TraceSet::parse(&read("stdio_programs.traces"), &mut vocab).expect("parses");
    let list: Vec<Trace> = programs.iter().map(|(_, t)| t.clone()).collect();
    let miner = cable::strauss::Miner::new(&["fopen", "popen"]);
    let mined = miner.mine(&list, &vocab);
    assert_eq!(mined.scenarios.len(), 6, "six seeded objects");
    // The fixture deliberately leaks #6.
    let leak = Trace::parse("fopen(X)", &mut vocab).expect("parses");
    assert!(mined.fa.accepts(&leak), "the mined spec learned the leak");
}

#[test]
fn labeling_script_fixture_completes_the_session() {
    let mut vocab = Vocab::new();
    let traces = TraceSet::parse(&read("stdio_violations.traces"), &mut vocab).expect("parses");
    let list: Vec<Trace> = traces.iter().map(|(_, t)| t.clone()).collect();
    let fa = cable::fa::templates::unordered_of_trace_events(&list);
    let mut session = CableSession::new(traces, fa);
    // Replay the script through the parser `cable label --script` uses
    // (this pins the fixture's concept ids).
    let script = read("labeling.script");
    let commands = cable::session::parse_script(&script, session.lattice().len()).unwrap();
    for (id, selector, name) in commands {
        session.label_traces(id, &selector, &name);
    }
    assert!(session.all_labeled(), "the script covers every trace");
    // And the labeling is the correct one.
    let pclose = vocab.find_op("pclose").expect("interned");
    let popen = vocab.find_op("popen").expect("interned");
    for (id, t) in session.traces().iter() {
        let correct = t.events().first().is_some_and(|e| e.op == popen)
            && t.events().last().is_some_and(|e| e.op == pclose);
        let label = session.label_of_trace(id).expect("labeled");
        assert_eq!(
            session.labels().name(label),
            if correct { "good" } else { "bad" },
            "{}",
            t.display(&vocab)
        );
    }
}
