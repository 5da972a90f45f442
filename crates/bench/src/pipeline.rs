//! The shared per-specification experiment pipeline.
//!
//! For each specification: generate the workload, extract scenario traces
//! with Strauss's front end, mine a (buggy) specification, and build a
//! Cable session whose reference FA is — as §2.2 prescribes — the mined
//! FA itself. When the resulting lattice is not well-formed for the
//! oracle labeling (§4.3), we do what the paper's user would do with the
//! Focus command: try the §4.1 templates (unordered, then seed-order
//! around each operation of the alphabet), and as a last resort the
//! exact prefix-tree FA (which recognises each trace class along its own
//! path and is therefore always well-formed).
//!
//! Well-formedness is decided on each candidate's context rows
//! ([`cable_core::wellformed`]); only the chosen one becomes a session.
//!
//! One fidelity tweak: the paper wants a *small* reference FA (§2.1 step
//! 1a, and §5.2's `k` is "typically less than ten"). When the mined FA
//! is much larger than the scenario alphabet, the unordered template is
//! tried first.

use cable_core::wellformed::first_clash;
use cable_core::CableSession;
use cable_fa::{templates, Fa};
use cable_learn::Pta;
use cable_specs::SpecDef;
use cable_strauss::{FrontEnd, Miner};
use cable_trace::{Trace, TraceSet, Vocab};
use cable_workload::Oracle;

/// Which reference FA the pipeline ended up clustering with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReferenceFaChoice {
    /// The mined specification FA (§2.2's default).
    Mined,
    /// The unordered template of §4.1.
    Unordered,
    /// The seed-order template of §4.1 around the named operation.
    SeedOrder(String),
    /// The exact prefix-tree acceptor (always well-formed).
    Exact,
}

impl ReferenceFaChoice {
    /// A short display name.
    pub fn name(&self) -> String {
        match self {
            ReferenceFaChoice::Mined => "mined".into(),
            ReferenceFaChoice::Unordered => "unordered".into(),
            ReferenceFaChoice::SeedOrder(op) => format!("seed-order({op})"),
            ReferenceFaChoice::Exact => "exact".into(),
        }
    }
}

/// Everything the table generators need about one prepared
/// specification.
#[derive(Debug)]
pub struct PreparedSpec {
    /// The specification name.
    pub name: String,
    /// The vocabulary shared by traces and automata.
    pub vocab: Vocab,
    /// The raw program traces.
    pub workload: Vec<Trace>,
    /// The extracted scenario traces.
    pub scenarios: TraceSet,
    /// The mined (pre-debugging) specification.
    pub mined_fa: Fa,
    /// The Cable session (already built: context + lattice).
    pub session: CableSession,
    /// Which reference FA the session uses.
    pub reference: ReferenceFaChoice,
    /// The reference-labeling oracle.
    pub oracle: Oracle,
    /// The miner (for re-mining labelled traces).
    pub miner: Miner,
}

impl PreparedSpec {
    /// The oracle as a label function for the strategy API.
    pub fn oracle_fn(&self) -> impl Fn(&Trace) -> String + '_ {
        move |t| self.oracle.label(t).to_owned()
    }
}

/// Extracts the interesting scenario traces from a generated workload.
///
/// §5.1: "we removed some traces before debugging three specifications …
/// The removed traces had an uninteresting selection value."
pub fn extract_scenarios(spec: &SpecDef, workload: &[Trace], vocab: &Vocab) -> TraceSet {
    FrontEnd::new(spec.seeds())
        .extract_all(workload, vocab)
        .iter()
        .map(|(_, t)| t.clone())
        .filter(|t| spec.is_interesting(t, vocab))
        .collect()
}

/// Runs the pipeline for one specification.
pub fn prepare(spec: &SpecDef, seed: u64) -> PreparedSpec {
    let mut vocab = Vocab::new();
    let workload = spec.generate(seed, &mut vocab);
    let miner = Miner::new(spec.seeds());
    let scenarios = extract_scenarios(spec, &workload, &vocab);
    let mined_fa = miner.back.mine_set(&scenarios);
    let oracle = spec.oracle(&mut vocab);

    // The classes a session over the scenarios would cluster, and their
    // oracle labels: each candidate is judged on its rows over them.
    let classes = scenarios.identical_classes();
    let representatives: Vec<&Trace> = classes
        .iter()
        .map(|class| scenarios.trace(class.representative))
        .collect();
    let labels: Vec<&str> = representatives.iter().map(|t| oracle.label(t)).collect();
    let (reference, fa) = candidates(&scenarios, &mined_fa, &vocab)
        .into_iter()
        .find(|(_, fa)| well_formed_on_rows(fa, &representatives, &labels))
        .expect("the exact PTA reference is always well-formed");
    let session = CableSession::new(scenarios.clone(), fa);
    PreparedSpec {
        name: spec.name().to_owned(),
        vocab,
        workload,
        scenarios,
        mined_fa,
        session,
        reference,
        oracle,
        miner,
    }
}

/// Whether the lattice `fa` gives the classes is well-formed for their
/// labels, decided on the classes' executed-transition rows.
fn well_formed_on_rows(fa: &Fa, representatives: &[&Trace], labels: &[&str]) -> bool {
    let rows = fa.executed_transitions_batch(representatives);
    first_clash(&rows, |class| labels[class]).is_none()
}

/// The candidate reference FAs, in the order `prepare` tries them.
fn candidates(scenarios: &TraceSet, mined_fa: &Fa, vocab: &Vocab) -> Vec<(ReferenceFaChoice, Fa)> {
    let scenario_list: Vec<Trace> = scenarios.iter().map(|(_, t)| t.clone()).collect();
    let alphabet = templates::distinct_event_pats(&scenario_list);

    let mut candidates: Vec<(ReferenceFaChoice, Fa)> = Vec::new();
    let mined_is_small = mined_fa.transition_count() <= 3 * alphabet.len().max(1);
    let unordered = (
        ReferenceFaChoice::Unordered,
        templates::unordered(&alphabet),
    );
    let mined = (ReferenceFaChoice::Mined, mined_fa.clone());
    let seed_orders = alphabet.iter().map(|pat| {
        (
            ReferenceFaChoice::SeedOrder(vocab.op_name(pat.op).to_owned()),
            templates::seed_order(&alphabet, pat),
        )
    });
    if mined_is_small {
        // §2.2: "the inferred FA is usually a good starting point".
        candidates.push(mined);
        candidates.push(unordered);
        candidates.extend(seed_orders);
    } else {
        // The mined FA "makes unnecessarily fine distinctions": prefer
        // the small templates, keeping the mined FA as a late fallback.
        candidates.push(unordered);
        candidates.extend(seed_orders);
        candidates.push(mined);
    }
    candidates.push((ReferenceFaChoice::Exact, Pta::build(&scenario_list).to_fa()));
    candidates
}

#[cfg(test)]
mod tests {
    use super::*;
    use cable_core::wellformed::ill_formed_concepts;

    #[test]
    fn every_spec_prepares_to_a_well_formed_session() {
        for spec in cable_specs::registry().iter() {
            let p = prepare(spec, 11);
            assert!(!p.scenarios.is_empty(), "{}", p.name);
            assert!(
                p.session.is_well_formed_for(|t| p.oracle.label(t)),
                "{}",
                p.name
            );
            // The session clusters exactly the scenario classes.
            assert_eq!(
                p.session.classes().len(),
                p.scenarios.identical_classes().len()
            );
            // Growing a session equals building it: one over the first
            // 80% of the scenarios, grown by `push_traces` with the rest,
            // has the same classes, context rows and lattice (concepts
            // and cover lists, in order).
            let split = (p.scenarios.len() * 4) / 5;
            let mut base = TraceSet::new();
            let mut rest = Vec::new();
            for (i, (_, t)) in p.scenarios.iter().enumerate() {
                if i < split {
                    base.push(t.clone());
                } else {
                    rest.push(t.clone());
                }
            }
            let mut grown = CableSession::new(base, p.session.reference_fa().clone());
            grown.push_traces(rest);
            assert_eq!(grown.classes(), p.session.classes(), "{}", p.name);
            assert_eq!(grown.context(), p.session.context(), "{}", p.name);
            let (a, b) = (grown.lattice(), p.session.lattice());
            assert_eq!(a.len(), b.len(), "{}", p.name);
            for id in b.ids() {
                assert_eq!(a.concept(id), b.concept(id), "{} {id}", p.name);
                assert_eq!(a.children(id), b.children(id), "{} {id}", p.name);
                assert_eq!(a.parents(id), b.parents(id), "{} {id}", p.name);
            }
        }
    }

    #[test]
    fn every_candidate_gets_the_verdict_of_its_lattice() {
        // The row check `prepare` chooses with, against the lattice walk
        // over the session each candidate would build: same verdict for
        // every candidate, so the same choice and the same lattice. Each
        // of those lattices also has the covers the all-pairs assembly
        // finds, list for list.
        for seed in [2003, 11] {
            for spec in cable_specs::registry().iter() {
                let p = prepare(spec, seed);
                let classes = p.scenarios.identical_classes();
                let representatives: Vec<&Trace> = classes
                    .iter()
                    .map(|class| p.scenarios.trace(class.representative))
                    .collect();
                let labels: Vec<&str> = representatives.iter().map(|t| p.oracle.label(t)).collect();
                let mut chosen = None;
                for (choice, fa) in candidates(&p.scenarios, &p.mined_fa, &p.vocab) {
                    let on_rows = well_formed_on_rows(&fa, &representatives, &labels);
                    let session = CableSession::new(p.scenarios.clone(), fa);
                    cable_fca::reference::check_covers(session.lattice(), session.context())
                        .unwrap_or_else(|e| panic!("{}@{seed} {}: {e}", p.name, choice.name()));
                    let on_lattice =
                        ill_formed_concepts(session.lattice(), |class| labels[class]).is_empty();
                    assert_eq!(on_rows, on_lattice, "{}@{seed} {}", p.name, choice.name());
                    if on_lattice && chosen.is_none() {
                        chosen = Some((choice, session.lattice().len()));
                    }
                }
                let prepared = (p.reference.clone(), p.session.lattice().len());
                assert_eq!(chosen, Some(prepared), "{}@{seed}", p.name);
            }
        }
    }

    #[test]
    fn mined_fa_accepts_every_scenario() {
        let reg = cable_specs::registry();
        let spec = reg.spec("FilePair").unwrap();
        let p = prepare(spec, 5);
        for (_, t) in p.scenarios.iter() {
            assert!(p.mined_fa.accepts(t), "{}", t.display(&p.vocab));
        }
    }

    #[test]
    fn workloads_contain_errors() {
        // The training runs "often contain errors": the oracle must see
        // both labels on most specs.
        let reg = cable_specs::registry();
        let spec = reg.spec("XtFree").unwrap();
        let p = prepare(spec, 5);
        let mut good = 0;
        let mut bad = 0;
        for (_, t) in p.scenarios.iter() {
            if p.oracle.is_good(t) {
                good += 1;
            } else {
                bad += 1;
            }
        }
        assert!(good > 0 && bad > 0, "good {good} bad {bad}");
    }

    #[test]
    fn uninteresting_selection_scenarios_are_removed() {
        // §5.1's note applies to the three selection specifications.
        let reg = cable_specs::registry();
        for name in ["XGetSelOwner", "XSetSelOwner", "XtOwnSel"] {
            let spec = reg.spec(name).expect("known spec");
            assert!(!spec.uninteresting_atoms.is_empty(), "{name}");
            let p = prepare(spec, 11);
            for (_, t) in p.scenarios.iter() {
                assert!(
                    spec.is_interesting(t, &p.vocab),
                    "{name}: kept {}",
                    t.display(&p.vocab)
                );
            }
            // But the raw extraction does contain them (they were really
            // removed, not never generated).
            let raw = cable_strauss::FrontEnd::new(spec.seeds()).extract_all(&p.workload, &p.vocab);
            assert!(
                raw.iter().any(|(_, t)| !spec.is_interesting(t, &p.vocab)),
                "{name}: nothing to remove"
            );
        }
    }

    #[test]
    fn reference_fas_stay_small() {
        // The paper's §5.2: the `k` bound (attributes per object) is
        // typically small. Allow slack for the specs that need the mined
        // or exact FA, but the template-clustered ones must be tight.
        for spec in cable_specs::registry().iter() {
            let p = prepare(spec, 11);
            let k = p.session.context().max_row_size();
            match p.reference {
                ReferenceFaChoice::Unordered | ReferenceFaChoice::SeedOrder(_) => {
                    assert!(k <= 2 * 12, "{}: k = {k}", p.name);
                }
                _ => {}
            }
        }
    }
}
