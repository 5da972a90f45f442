//! The incremental sk-strings learner against the rebuild-every-round
//! reference learner, on the paper's corpora: the same merges in the
//! same order, so an equal `CountedFa` (transition order and counts
//! included, since transition indices become the lattice's attributes).
//! Also bounds, on deterministic work counts, how much a merge
//! recomputes.

use cable_bench::extract_scenarios;
use cable_learn::{reference, Pta, SkStrings};
use cable_specs::SpecDef;
use cable_trace::{Trace, Vocab};

const SEED: u64 = 2003;

/// The scenario corpus `prepare` mines for a specification.
fn corpus(spec: &SpecDef) -> Vec<Trace> {
    let mut vocab = Vocab::new();
    let workload = spec.generate(SEED, &mut vocab);
    extract_scenarios(spec, &workload, &vocab)
        .iter()
        .map(|(_, t)| t.clone())
        .collect()
}

/// The 17 registry corpora and the 3 protocol-family corpora.
fn corpora() -> Vec<(String, Vec<Trace>)> {
    let mut specs: Vec<SpecDef> = cable_specs::registry().iter().cloned().collect();
    specs.extend(cable_specs::families::family_specs());
    assert_eq!(specs.len(), 20);
    specs
        .iter()
        .map(|spec| (spec.name().to_owned(), corpus(spec)))
        .collect()
}

fn assert_matches_reference(name: &str, sk: SkStrings, traces: &[Trace]) {
    let fast = sk.learn_counted(traces);
    let slow = reference::learn_counted(&sk, traces);
    assert!(
        fast == slow,
        "{name} at k={} s={}: {} states / {} transitions, reference {} / {}",
        sk.k,
        sk.s_percent,
        fast.state_count(),
        fast.transition_count(),
        slow.state_count(),
        slow.transition_count()
    );
}

#[test]
fn default_setting_matches_the_reference_on_every_corpus() {
    for (name, traces) in corpora() {
        assert_matches_reference(&name, SkStrings::default(), &traces);
    }
}

#[test]
fn other_settings_match_the_reference_on_the_smaller_corpora() {
    // The reference alone takes seconds per setting on the two largest
    // prefix trees (RegionsBig, XtFree) in a debug build.
    let mut checked = 0;
    for (name, traces) in corpora() {
        if Pta::build(&traces).node_count() > 200 {
            continue;
        }
        for (k, s_percent) in [(1, 50.0), (3, 50.0), (2, 100.0), (3, 80.0), (4, 100.0)] {
            assert_matches_reference(&name, SkStrings { k, s_percent }, &traces);
        }
        checked += 1;
    }
    assert_eq!(checked, 18, "every corpus but RegionsBig and XtFree");
}

#[test]
fn merges_recompute_a_fraction_of_what_a_full_recompute_does() {
    let registry = cable_specs::registry();
    // (spec, merges, subset scans)
    for (name, merges, scans) in [("RegionsBig", 397, 19), ("XtFree", 456, 18)] {
        let traces = corpus(registry.spec(name).expect("known spec"));
        let states = Pta::build(&traces).node_count() as u64;
        let (fa, work) = SkStrings::default().learn_counted_with_work(&traces);
        assert_eq!(fa.state_count() as u64, states - work.merges, "{name}");
        assert_eq!(work.merges, merges, "{name}: merges");
        assert_eq!(work.subset_scans, scans, "{name}: subset scans");
        // Recomputing every live state's distribution in every merge
        // round is what the rebuild-every-round learner does.
        let full: u64 = (0..work.merges).map(|round| states - round).sum();
        assert!(
            4 * work.recomputed_states <= full,
            "{name}: {} recomputed of {full}",
            work.recomputed_states
        );
    }
}
