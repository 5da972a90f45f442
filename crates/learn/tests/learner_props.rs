//! Randomized tests for the automaton learners: whatever the training
//! set, a learner must at least accept it, and merging must only ever
//! grow the language.
//!
//! Each test runs a fixed number of seeded cases, so failures reproduce
//! exactly (`seeded(case)` pins the generator).

use cable_learn::{reference, Pta, SkStrings};
use cable_trace::{Arg, Event, Trace, Var, Vocab};
use cable_util::rng::{seeded, Rng, SmallRng};

fn traces_of(raw: &[Vec<usize>], vocab: &mut Vocab) -> Vec<Trace> {
    raw.iter()
        .map(|ops| {
            Trace::new(
                ops.iter()
                    .map(|&i| Event::on_var(vocab.op(&format!("op{i}")), Var(0)))
                    .collect(),
            )
        })
        .collect()
}

fn gen_ops(rng: &mut SmallRng) -> Vec<usize> {
    let len = rng.gen_range(0usize..6);
    (0..len).map(|_| rng.gen_range(0usize..4)).collect()
}

fn gen_training_set(rng: &mut SmallRng) -> Vec<Vec<usize>> {
    let n = rng.gen_range(1usize..10);
    (0..n).map(|_| gen_ops(rng)).collect()
}

#[test]
fn pta_accepts_exactly_the_training_set() {
    for case in 0..128u64 {
        let mut rng = seeded(case);
        let raw = gen_training_set(&mut rng);
        let probe = gen_ops(&mut rng);
        let mut vocab = Vocab::new();
        let traces = traces_of(&raw, &mut vocab);
        let fa = Pta::build(&traces).to_fa();
        for t in &traces {
            assert!(fa.accepts(t), "case {case}");
        }
        let probe_trace = traces_of(std::slice::from_ref(&probe), &mut vocab).remove(0);
        assert_eq!(
            fa.accepts(&probe_trace),
            raw.contains(&probe),
            "case {case}"
        );
    }
}

#[test]
fn sk_strings_accepts_training_set() {
    for case in 0..128u64 {
        let mut rng = seeded(case);
        let raw = gen_training_set(&mut rng);
        let mut vocab = Vocab::new();
        let traces = traces_of(&raw, &mut vocab);
        for (k, s) in [(1, 50.0), (2, 50.0), (2, 100.0), (3, 100.0)] {
            let fa = SkStrings { k, s_percent: s }.learn(&traces);
            for t in &traces {
                assert!(fa.accepts(t), "case {case}: k={k} s={s} rejects {raw:?}");
            }
        }
    }
}

#[test]
fn learners_never_grow_beyond_the_pta() {
    for case in 0..128u64 {
        let mut rng = seeded(case);
        let raw = gen_training_set(&mut rng);
        // Merging only shrinks the state count.
        let mut vocab = Vocab::new();
        let traces = traces_of(&raw, &mut vocab);
        let pta_states = Pta::build(&traces).node_count();
        assert!(
            SkStrings::default().learn(&traces).state_count() <= pta_states,
            "case {case}"
        );
    }
}

#[test]
fn merge_preserves_training_acceptance() {
    for case in 0..128u64 {
        let mut rng = seeded(case);
        let raw = gen_training_set(&mut rng);
        // Any single merge of PTA states keeps the training set accepted
        // (merging only adds paths).
        let mut vocab = Vocab::new();
        let traces = traces_of(&raw, &mut vocab);
        let counted = Pta::build(&traces).to_counted();
        let n = counted.state_count();
        if n < 2 {
            continue;
        }
        let (a, b) = (rng.gen_range(0usize..20) % n, rng.gen_range(0usize..20) % n);
        if a == b {
            continue;
        }
        let merged = counted.merge(a, b).to_fa();
        for t in &traces {
            assert!(merged.accepts(t), "case {case}");
        }
    }
}

#[test]
fn counted_totals_are_consistent() {
    for case in 0..128u64 {
        let mut rng = seeded(case);
        let raw = gen_training_set(&mut rng);
        let mut vocab = Vocab::new();
        let traces = traces_of(&raw, &mut vocab);
        let counted = Pta::build(&traces).to_counted();
        // Root outflow equals the number of training traces.
        assert_eq!(counted.total_out(0) as usize, traces.len(), "case {case}");
        // Accept counts across states sum to the number of traces.
        let accepted: u64 = (0..counted.state_count())
            .map(|s| counted.accept_count(s))
            .sum();
        assert_eq!(accepted as usize, traces.len(), "case {case}");
    }
}

/// A training set over a small random alphabet of multi-argument events
/// (variables and atoms), with empty and repeated traces.
fn gen_rich_training_set(rng: &mut SmallRng, vocab: &mut Vocab) -> Vec<Trace> {
    let alphabet: Vec<Event> = (0..rng.gen_range(1usize..6))
        .map(|_| {
            let op = vocab.op(&format!("op{}", rng.gen_range(0usize..4)));
            let args = (0..rng.gen_range(0usize..3))
                .map(|_| {
                    if rng.gen_range(0usize..3) == 0 {
                        Arg::Atom(vocab.atom(&format!("a{}", rng.gen_range(0usize..2))))
                    } else {
                        Arg::Var(Var(rng.gen_range(0..2)))
                    }
                })
                .collect();
            Event::new(op, args)
        })
        .collect();
    let mut traces: Vec<Trace> = Vec::new();
    for _ in 0..rng.gen_range(1usize..14) {
        if !traces.is_empty() && rng.gen_range(0usize..4) == 0 {
            let again = traces[rng.gen_range(0..traces.len())].clone();
            traces.push(again);
        } else {
            let len = rng.gen_range(0usize..8);
            let events = (0..len)
                .map(|_| alphabet[rng.gen_range(0..alphabet.len())].clone())
                .collect();
            traces.push(Trace::new(events));
        }
    }
    traces
}

#[test]
fn sk_strings_matches_the_reference_learner_on_random_sets() {
    const S_PERCENTS: [f64; 6] = [1.0, 10.0, 33.0, 50.0, 80.0, 100.0];
    for case in 0..1200u64 {
        let mut rng = seeded(case);
        let mut vocab = Vocab::new();
        let traces = gen_rich_training_set(&mut rng, &mut vocab);
        let sk = SkStrings {
            k: rng.gen_range(0usize..5),
            s_percent: S_PERCENTS[rng.gen_range(0..S_PERCENTS.len())],
        };
        assert!(
            sk.learn_counted(&traces) == reference::learn_counted(&sk, &traces),
            "case {case}: k={} s={} on {} traces",
            sk.k,
            sk.s_percent,
            traces.len()
        );
    }
}

/// Shrunk from a seeded random set. Recomputing after a merge only the
/// level-`j` distributions within `j - 1` steps of the kept state learns
/// a different automaton here: a state exactly `j` steps away still sees
/// the merge, in the last bits of a summed probability, and that changes
/// a top set.
#[test]
fn sk_strings_recomputes_every_state_within_k_steps_of_a_merge() {
    let mut vocab = Vocab::new();
    let traces: Vec<Trace> = [
        "open() read() read() read()",
        "open() read() read() open(X) read()",
        "open(X) read()",
        "open(X) read()",
        "open() read()",
        "open() read()",
        "open() read() read() read()",
    ]
    .iter()
    .map(|t| Trace::parse(t, &mut vocab).unwrap())
    .collect();
    let sk = SkStrings {
        k: 2,
        s_percent: 50.0,
    };
    assert!(sk.learn_counted(&traces) == reference::learn_counted(&sk, &traces));
}
