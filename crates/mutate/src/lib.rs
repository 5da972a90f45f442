//! Deterministic, seeded mutation of temporal specifications.
//!
//! The paper evaluates Cable on *buggy* specifications: Table 2 measures
//! how much labeling work concept analysis saves while debugging a spec
//! against a trace corpus. This crate turns one correct reference FA
//! into a population of genuine buggy variants:
//!
//! * five mutation operators — [drop-transition](MutationKind::DropTransition),
//!   [retarget-transition](MutationKind::RetargetTransition),
//!   [add-transition](MutationKind::AddTransition),
//!   [flip-accept](MutationKind::FlipAccept), and
//!   [weaken-guard](MutationKind::WeakenGuard) — applied at seeded-random
//!   sites,
//! * an **equivalence filter**: every candidate is checked against the
//!   parent with [`Fa::equivalent`]; language-preserving mutants (e.g. a
//!   duplicated transition, or flipping acceptance of a dead state) are
//!   discarded and counted under `mutate.mutants_filtered`, so *no no-op
//!   mutant survives*,
//! * a **witness tag**: each survivor carries the shortest letter string
//!   accepted by exactly one of parent and mutant
//!   ([`Fa::distinguishing_witness`]), realised as a replayable trace.
//!
//! Determinism: candidate `i` draws from `rng::stream(seed, i)`, so the
//! survivor list for `count = n` is a prefix of the list for any larger
//! count, and results are identical across worker counts and platforms.

use cable_fa::ops::WitnessLetter;
use cable_fa::{ArgPat, EventPat, Fa, FaBuilder, StateId, TransLabel, Transition};
use cable_obs::CounterHandle;
use cable_trace::{Trace, Vocab};
use cable_util::rng::{stream, Rng, SmallRng};

/// Mutation candidates generated (applicable or not).
static CANDIDATES: CounterHandle = CounterHandle::new("mutate.candidates");
/// Candidates discarded because they were language-equivalent to the parent.
static FILTERED: CounterHandle = CounterHandle::new("mutate.mutants_filtered");
/// Candidates that survived the equivalence filter.
static SURVIVORS: CounterHandle = CounterHandle::new("mutate.survivors");

/// The five mutation operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MutationKind {
    /// Remove one transition.
    DropTransition,
    /// Redirect one transition to a different destination state.
    RetargetTransition,
    /// Add a transition between random states with an existing label.
    AddTransition,
    /// Toggle one state's acceptance.
    FlipAccept,
    /// Generalise one transition label: concretise an argument position
    /// to `_`, drop the argument list, or widen to the wildcard.
    WeakenGuard,
}

/// Every operator, in the order the engine samples them.
pub const KINDS: [MutationKind; 5] = [
    MutationKind::DropTransition,
    MutationKind::RetargetTransition,
    MutationKind::AddTransition,
    MutationKind::FlipAccept,
    MutationKind::WeakenGuard,
];

impl MutationKind {
    /// Stable kebab-case name (used in reports and JSONL records).
    pub fn name(self) -> &'static str {
        match self {
            MutationKind::DropTransition => "drop-transition",
            MutationKind::RetargetTransition => "retarget-transition",
            MutationKind::AddTransition => "add-transition",
            MutationKind::FlipAccept => "flip-accept",
            MutationKind::WeakenGuard => "weaken-guard",
        }
    }
}

/// A surviving mutant: a buggy variant of the parent spec, proven
/// non-equivalent, tagged with its distinguishing witness.
#[derive(Debug, Clone)]
pub struct Mutant {
    /// The mutated automaton.
    pub fa: Fa,
    /// Which operator produced it.
    pub kind: MutationKind,
    /// Human-readable description of the edit (rendered labels).
    pub description: String,
    /// The candidate index that produced it (`rng::stream(seed, candidate)`).
    pub candidate: u64,
    /// Shortest letter string accepted by exactly one of parent/mutant.
    pub witness: Vec<WitnessLetter>,
    /// The witness realised as a concrete, replayable trace.
    pub witness_trace: Trace,
    /// Whether the *parent* accepts the witness trace (the mutant then
    /// rejects it, and vice versa).
    pub parent_accepts_witness: bool,
}

/// Engine counters for one [`mutants_with_stats`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Candidates generated.
    pub candidates: u64,
    /// Candidates whose operator had no applicable site.
    pub inapplicable: u64,
    /// Candidates filtered as language-equivalent to the parent.
    pub filtered: u64,
}

/// Generates up to `count` surviving mutants of `parent`.
///
/// Stops early (returning fewer) only if the candidate budget —
/// `count * 64 + 256` candidates — runs out first, which happens only
/// for degenerate parents with almost no mutable structure.
pub fn mutants(parent: &Fa, vocab: &mut Vocab, seed: u64, count: usize) -> Vec<Mutant> {
    mutants_with_stats(parent, vocab, seed, count).0
}

/// [`mutants`], also returning the engine's filter statistics.
pub fn mutants_with_stats(
    parent: &Fa,
    vocab: &mut Vocab,
    seed: u64,
    count: usize,
) -> (Vec<Mutant>, EngineStats) {
    let limit = count as u64 * 64 + 256;
    let mut out = Vec::with_capacity(count);
    let mut stats = EngineStats::default();
    for candidate in 0..limit {
        if out.len() >= count {
            break;
        }
        let mut rng = stream(seed, candidate);
        stats.candidates += 1;
        CANDIDATES.get().incr();
        let kind = KINDS[rng.gen_range(0..KINDS.len())];
        let Some((fa, description)) = apply(kind, parent, &mut rng, vocab) else {
            stats.inapplicable += 1;
            continue;
        };
        // No witness means the mutant is equivalent to its parent.
        let Some(witness) = parent.distinguishing_witness(&fa) else {
            stats.filtered += 1;
            FILTERED.get().incr();
            continue;
        };
        let witness_trace = parent.realize_witness(&fa, &witness, vocab);
        let parent_accepts_witness = parent.accepts(&witness_trace);
        SURVIVORS.get().incr();
        out.push(Mutant {
            fa,
            kind,
            description,
            candidate,
            witness,
            witness_trace,
            parent_accepts_witness,
        });
    }
    (out, stats)
}

/// Rebuilds a parent-shaped automaton with the given transitions and
/// accept set (starts are copied from the parent, which never mutates).
fn rebuild(parent: &Fa, transitions: Vec<Transition>, accepts: Vec<usize>) -> Fa {
    let mut b = FaBuilder::new();
    let states = b.states(parent.state_count());
    for s in parent.start_states().iter() {
        b.start(states[s]);
    }
    for s in accepts {
        b.accept(states[s]);
    }
    for t in transitions {
        b.transition(t.src, t.label, t.dst);
    }
    b.build()
}

fn parent_accepts(parent: &Fa) -> Vec<usize> {
    parent.accept_states().iter().collect()
}

fn show(label: &TransLabel, vocab: &Vocab) -> String {
    format!("{}", label.display(vocab))
}

/// Applies one operator at a seeded-random site, or `None` when the
/// parent has no applicable site for it.
fn apply(
    kind: MutationKind,
    parent: &Fa,
    rng: &mut SmallRng,
    vocab: &Vocab,
) -> Option<(Fa, String)> {
    let n = parent.state_count();
    match kind {
        MutationKind::DropTransition => {
            let tc = parent.transition_count();
            if tc == 0 {
                return None;
            }
            let mut ts = parent.transitions().to_vec();
            let t = ts.remove(rng.gen_range(0..tc));
            let desc = format!(
                "drop s{} -{}-> s{}",
                t.src.0,
                show(&t.label, vocab),
                t.dst.0
            );
            Some((rebuild(parent, ts, parent_accepts(parent)), desc))
        }
        MutationKind::RetargetTransition => {
            let tc = parent.transition_count();
            if tc == 0 || n < 2 {
                return None;
            }
            let mut ts = parent.transitions().to_vec();
            let i = rng.gen_range(0..tc);
            let old = ts[i].dst;
            // Uniform over the other n-1 states.
            let mut new = rng.gen_range(0..n - 1) as u32;
            if new >= old.0 {
                new += 1;
            }
            ts[i].dst = StateId(new);
            let desc = format!(
                "retarget s{} -{}-> s{} to s{new}",
                ts[i].src.0,
                show(&ts[i].label, vocab),
                old.0
            );
            Some((rebuild(parent, ts, parent_accepts(parent)), desc))
        }
        MutationKind::AddTransition => {
            let labels: Vec<&TransLabel> = parent.concrete_labels();
            if labels.is_empty() || n == 0 {
                return None;
            }
            let label = labels[rng.gen_range(0..labels.len())].clone();
            let src = StateId(rng.gen_range(0..n) as u32);
            let dst = StateId(rng.gen_range(0..n) as u32);
            let mut ts = parent.transitions().to_vec();
            let desc = format!("add s{} -{}-> s{}", src.0, show(&label, vocab), dst.0);
            ts.push(Transition { src, dst, label });
            Some((rebuild(parent, ts, parent_accepts(parent)), desc))
        }
        MutationKind::FlipAccept => {
            if n == 0 {
                return None;
            }
            let s = rng.gen_range(0..n);
            let was = parent.accept_states().contains(s);
            let accepts = if was {
                parent_accepts(parent)
                    .into_iter()
                    .filter(|&a| a != s)
                    .collect()
            } else {
                let mut a = parent_accepts(parent);
                a.push(s);
                a
            };
            let desc = if was {
                format!("flip s{s} to non-accepting")
            } else {
                format!("flip s{s} to accepting")
            };
            Some((
                rebuild(parent, parent.transitions().to_vec(), accepts),
                desc,
            ))
        }
        MutationKind::WeakenGuard => {
            let sites: Vec<usize> = parent
                .transitions()
                .iter()
                .enumerate()
                .filter(|(_, t)| !t.label.is_wildcard())
                .map(|(i, _)| i)
                .collect();
            if sites.is_empty() {
                return None;
            }
            let i = sites[rng.gen_range(0..sites.len())];
            let mut ts = parent.transitions().to_vec();
            let TransLabel::Pat(p) = ts[i].label.clone() else {
                unreachable!("wildcards were filtered out")
            };
            let new_label = match &p.args {
                Some(args) if args.iter().any(|a| !matches!(a, ArgPat::Any)) => {
                    // Generalise one concrete argument position to `_`.
                    let concrete: Vec<usize> = args
                        .iter()
                        .enumerate()
                        .filter(|(_, a)| !matches!(a, ArgPat::Any))
                        .map(|(j, _)| j)
                        .collect();
                    let j = concrete[rng.gen_range(0..concrete.len())];
                    let mut args = args.clone();
                    args[j] = ArgPat::Any;
                    TransLabel::Pat(EventPat {
                        op: p.op,
                        args: Some(args),
                    })
                }
                // All positions already `_`: drop the argument list (any arity).
                Some(_) => TransLabel::Pat(EventPat {
                    op: p.op,
                    args: None,
                }),
                // Already op-only: widen to the wildcard.
                None => TransLabel::Wildcard,
            };
            let desc = format!(
                "weaken s{} -{}-> s{} to {}",
                ts[i].src.0,
                show(&ts[i].label, vocab),
                ts[i].dst.0,
                show(&new_label, vocab)
            );
            ts[i].label = new_label;
            Some((rebuild(parent, ts, parent_accepts(parent)), desc))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The stdio FilePair-style parent used throughout: fopen, then
    /// reads/writes, then fclose.
    fn parent(vocab: &mut Vocab) -> Fa {
        Fa::parse(
            "start s0\n\
             accept s2\n\
             s0 -> s1 : fopen(X)\n\
             s1 -> s1 : fread(X)\n\
             s1 -> s1 : fwrite(X)\n\
             s1 -> s2 : fclose(X)\n",
            vocab,
        )
        .unwrap()
    }

    #[test]
    fn same_seed_same_mutants() {
        let mut v1 = Vocab::new();
        let p1 = parent(&mut v1);
        let a = mutants(&p1, &mut v1, 7, 12);
        let mut v2 = Vocab::new();
        let p2 = parent(&mut v2);
        let b = mutants(&p2, &mut v2, 7, 12);
        assert_eq!(a.len(), 12);
        let key = |ms: &[Mutant]| -> Vec<(String, String, u64, usize)> {
            ms.iter()
                .map(|m| {
                    (
                        m.kind.name().to_owned(),
                        m.description.clone(),
                        m.candidate,
                        m.witness.len(),
                    )
                })
                .collect()
        };
        assert_eq!(key(&a), key(&b));
    }

    #[test]
    fn survivors_are_a_prefix_across_counts() {
        let mut v = Vocab::new();
        let p = parent(&mut v);
        let small = mutants(&p, &mut v, 42, 4);
        let mut v2 = Vocab::new();
        let p2 = parent(&mut v2);
        let big = mutants(&p2, &mut v2, 42, 10);
        assert_eq!(small.len(), 4);
        assert_eq!(big.len(), 10);
        for (s, b) in small.iter().zip(&big) {
            assert_eq!(s.candidate, b.candidate);
            assert_eq!(s.description, b.description);
        }
    }

    #[test]
    fn no_equivalent_mutant_survives() {
        let mut v = Vocab::new();
        let p = parent(&mut v);
        for m in mutants(&p, &mut v, 0xC0FFEE, 25) {
            assert!(
                !p.equivalent(&m.fa),
                "no-op mutant survived: {}",
                m.description
            );
        }
    }

    #[test]
    fn witness_is_accepted_by_exactly_one() {
        let mut v = Vocab::new();
        let p = parent(&mut v);
        for m in mutants(&p, &mut v, 99, 25) {
            let by_parent = p.accepts(&m.witness_trace);
            let by_mutant = m.fa.accepts(&m.witness_trace);
            assert!(
                by_parent != by_mutant,
                "witness of {:?} does not distinguish: {}",
                m.kind,
                m.description
            );
            assert_eq!(by_parent, m.parent_accepts_witness);
            assert_eq!(m.witness.len(), m.witness_trace.len());
        }
    }

    #[test]
    fn every_operator_produces_survivors() {
        let mut v = Vocab::new();
        let p = parent(&mut v);
        let kinds: std::collections::HashSet<&str> = mutants(&p, &mut v, 5, 40)
            .iter()
            .map(|m| m.kind.name())
            .collect();
        for k in KINDS {
            assert!(kinds.contains(k.name()), "no survivor from {}", k.name());
        }
    }

    #[test]
    fn equivalence_filter_catches_duplicate_additions() {
        // A one-state self-loop: the only addable transition duplicates
        // the existing one, so every add-transition candidate must be
        // filtered as equivalent, never surviving.
        let mut v = Vocab::new();
        let p = Fa::parse("start s0\naccept s0\ns0 -> s0 : f(X)\n", &mut v).unwrap();
        let (ms, stats) = mutants_with_stats(&p, &mut v, 11, 30);
        assert!(stats.filtered > 0, "expected filtered candidates");
        assert!(stats.candidates >= ms.len() as u64 + stats.filtered);
        for m in &ms {
            assert_ne!(m.kind, MutationKind::AddTransition);
            assert!(!p.equivalent(&m.fa));
        }
    }
}
