//! Automaton algebra: trimming, determinisation, minimisation, product,
//! and language equivalence.
//!
//! These operations are not needed by Cable's clustering itself, but the
//! reproduction uses them to *validate* results: e.g. checking that a
//! re-mined specification is language-equivalent to the ground-truth
//! specification after debugging.
//!
//! # Letters
//!
//! Determinisation works over a finite alphabet of *letters*: the
//! meet-closure of the concrete transition labels ([`meet_closure`]),
//! plus a synthetic `Other` letter standing for every event that matches
//! none of them (only wildcard transitions fire on `Other`). The closure
//! refines overlapping labels — e.g. the op-only `f` against the specific
//! `f(X)` — so that every event has a unique minimal matching letter and
//! the letters partition the event space.

use crate::fa::{Fa, StateId};
use crate::label::{ArgPat, EventPat, TransLabel};
use cable_obs::CounterHandle;
use cable_trace::{Arg, Event, Trace, Var, Vocab};
use cable_util::{BitSet, Symbol};
use std::collections::{HashMap, HashSet, VecDeque};

/// Subset constructions performed.
static DETERMINIZE_CALLS: CounterHandle = CounterHandle::new("fa.determinize.calls");
/// DFA states produced by subset constructions.
static DETERMINIZE_STATES: CounterHandle = CounterHandle::new("fa.determinize.dfa_states");
/// DFA minimisations performed.
static MINIMIZE_CALLS: CounterHandle = CounterHandle::new("fa.minimize.calls");
/// States removed by minimisation (input minus output states).
static MINIMIZE_STATES_REMOVED: CounterHandle = CounterHandle::new("fa.minimize.states_removed");
/// Product-DFA states created by the algebra's synchronous products
/// (intersection, union, difference, symmetric difference).
static PRODUCT_STATES: CounterHandle = CounterHandle::new("fa.algebra.product_states");

/// Tests whether two argument patterns can match a common argument.
fn arg_pats_overlap(a: &ArgPat, b: &ArgPat) -> bool {
    match (a, b) {
        (ArgPat::Any, _) | (_, ArgPat::Any) => true,
        (ArgPat::Var(x), ArgPat::Var(y)) => x == y,
        (ArgPat::Atom(x), ArgPat::Atom(y)) => x == y,
        _ => false,
    }
}

/// Tests whether two event patterns can match a common event.
pub fn event_pats_overlap(a: &EventPat, b: &EventPat) -> bool {
    if a.op != b.op {
        return false;
    }
    match (&a.args, &b.args) {
        (None, _) | (_, None) => true,
        (Some(xs), Some(ys)) => {
            xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| arg_pats_overlap(x, y))
        }
    }
}

/// The meet (most general common refinement) of two argument patterns,
/// or `None` when they are disjoint.
fn arg_pat_meet(a: &ArgPat, b: &ArgPat) -> Option<ArgPat> {
    match (a, b) {
        (ArgPat::Any, x) | (x, ArgPat::Any) => Some(*x),
        (ArgPat::Var(x), ArgPat::Var(y)) if x == y => Some(ArgPat::Var(*x)),
        (ArgPat::Atom(x), ArgPat::Atom(y)) if x == y => Some(ArgPat::Atom(*x)),
        _ => None,
    }
}

/// The meet of two transition labels: a label matching exactly the
/// events both match, or `None` when no event matches both. Used by the
/// intersection product.
pub fn label_meet(a: &TransLabel, b: &TransLabel) -> Option<TransLabel> {
    match (a, b) {
        (TransLabel::Wildcard, x) | (x, TransLabel::Wildcard) => Some(x.clone()),
        (TransLabel::Pat(p), TransLabel::Pat(q)) => {
            if p.op != q.op {
                return None;
            }
            let args = match (&p.args, &q.args) {
                (None, x) | (x, None) => x.clone(),
                (Some(xs), Some(ys)) => {
                    if xs.len() != ys.len() {
                        return None;
                    }
                    Some(
                        xs.iter()
                            .zip(ys)
                            .map(|(x, y)| arg_pat_meet(x, y))
                            .collect::<Option<Vec<_>>>()?,
                    )
                }
            };
            Some(TransLabel::Pat(EventPat { op: p.op, args }))
        }
    }
}

/// Tests whether `a` matches every event `b` matches.
pub fn label_subsumes(a: &TransLabel, b: &TransLabel) -> bool {
    match (a, b) {
        (TransLabel::Wildcard, _) => true,
        (_, TransLabel::Wildcard) => false,
        (TransLabel::Pat(p), TransLabel::Pat(q)) => {
            if p.op != q.op {
                return false;
            }
            match (&p.args, &q.args) {
                (None, _) => true,
                (Some(_), None) => false,
                (Some(xs), Some(ys)) => {
                    xs.len() == ys.len()
                        && xs.iter().zip(ys).all(|(x, y)| match (x, y) {
                            (ArgPat::Any, _) => true,
                            (x, y) => x == y,
                        })
                }
            }
        }
    }
}

/// The meet-closure of a label set: the input labels plus all pairwise
/// meets, iterated to a fixpoint. Every event matching any subset of the
/// input labels has a unique minimal matching label in the closure, so
/// the closure's members serve as refined, non-ambiguous letters for
/// determinisation.
pub fn meet_closure(labels: &[TransLabel]) -> Vec<TransLabel> {
    let mut closed: Vec<TransLabel> = Vec::new();
    for l in labels {
        if !closed.contains(l) {
            closed.push(l.clone());
        }
    }
    let mut changed = true;
    while changed {
        changed = false;
        let snapshot = closed.clone();
        for (i, a) in snapshot.iter().enumerate() {
            for b in &snapshot[i + 1..] {
                if let Some(m) = label_meet(a, b) {
                    if !closed.contains(&m) {
                        closed.push(m);
                        changed = true;
                    }
                }
            }
        }
    }
    closed
}

/// A deterministic finite automaton over a letter alphabet.
///
/// Letter `i < labels.len()` is the concrete label `labels[i]` from the
/// meet-closed refinement of the requested alphabet (see
/// [`Fa::determinize_with_alphabet`]); letter `labels.len()` is `Other`.
/// Missing transitions mean rejection.
#[derive(Debug, Clone)]
pub struct Dfa {
    labels: Vec<TransLabel>,
    /// `delta[state][letter]`; the extra final column is `Other`.
    delta: Vec<Vec<Option<u32>>>,
    start: u32,
    accepts: BitSet,
}

impl Dfa {
    /// The concrete alphabet (excluding `Other`).
    pub fn labels(&self) -> &[TransLabel] {
        &self.labels
    }

    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.delta.len()
    }

    /// The start state index.
    pub fn start(&self) -> u32 {
        self.start
    }

    /// Tests whether a state is accepting.
    pub fn is_accept(&self, s: u32) -> bool {
        self.accepts.contains(s as usize)
    }

    /// The successor of `s` on letter `l` (where `l == labels.len()` means
    /// `Other`), if any.
    pub fn step(&self, s: u32, l: usize) -> Option<u32> {
        self.delta[s as usize][l]
    }

    /// Number of letters including `Other`.
    pub fn letter_count(&self) -> usize {
        self.labels.len() + 1
    }

    /// Runs a letter string.
    pub fn accepts_letters(&self, letters: &[usize]) -> bool {
        let mut s = self.start;
        for &l in letters {
            match self.step(s, l) {
                Some(n) => s = n,
                None => return false,
            }
        }
        self.is_accept(s)
    }

    /// Completes the DFA by adding a rejecting sink so that every state
    /// has a successor on every letter. Idempotent in effect.
    pub fn complete(&self) -> Dfa {
        let mut d = self.clone();
        let needs_sink = d.delta.iter().any(|row| row.iter().any(Option::is_none));
        if !needs_sink {
            return d;
        }
        let sink = d.delta.len() as u32;
        let letters = d.letter_count();
        d.delta.push(vec![Some(sink); letters]);
        for row in &mut d.delta {
            for cell in row.iter_mut() {
                if cell.is_none() {
                    *cell = Some(sink);
                }
            }
        }
        d
    }

    /// Hopcroft-style (here: Moore) DFA minimisation. The result is
    /// complete and has the minimal number of states for the language
    /// *over this letter alphabet*.
    pub fn minimize(&self) -> Dfa {
        let d = self.complete();
        let n = d.delta.len();
        let letters = d.letter_count();
        // Initial partition: accepting vs non-accepting.
        let mut class: Vec<u32> = (0..n).map(|s| u32::from(d.is_accept(s as u32))).collect();
        let mut n_classes = 2;
        loop {
            // Signature of a state: (class, classes of successors).
            let mut sig_map: HashMap<Vec<u32>, u32> = HashMap::new();
            let mut new_class = vec![0u32; n];
            for s in 0..n {
                let mut sig = Vec::with_capacity(letters + 1);
                sig.push(class[s]);
                for l in 0..letters {
                    sig.push(class[d.delta[s][l].expect("complete") as usize]);
                }
                let next = sig_map.len() as u32;
                new_class[s] = *sig_map.entry(sig).or_insert(next);
            }
            let count = sig_map.len();
            class = new_class;
            if count == n_classes {
                break;
            }
            n_classes = count;
        }
        MINIMIZE_CALLS.get().incr();
        MINIMIZE_STATES_REMOVED
            .get()
            .add((n.saturating_sub(n_classes)) as u64);
        // Rebuild.
        let mut delta = vec![vec![None; letters]; n_classes];
        let mut accepts = BitSet::with_capacity(n_classes);
        for s in 0..n {
            let c = class[s] as usize;
            for l in 0..letters {
                delta[c][l] = Some(class[d.delta[s][l].expect("complete") as usize]);
            }
            if d.is_accept(s as u32) {
                accepts.insert(c);
            }
        }
        let min = Dfa {
            labels: d.labels.clone(),
            delta,
            start: class[d.start as usize],
            accepts,
        };
        min.trim_reachable()
    }

    /// Drops states unreachable from the start (keeps completeness only if
    /// the reachable part is complete).
    fn trim_reachable(&self) -> Dfa {
        let n = self.delta.len();
        let mut seen = vec![false; n];
        let mut order = Vec::new();
        let mut queue = VecDeque::from([self.start]);
        seen[self.start as usize] = true;
        while let Some(s) = queue.pop_front() {
            order.push(s);
            for d in self.delta[s as usize].iter().flatten() {
                if !seen[*d as usize] {
                    seen[*d as usize] = true;
                    queue.push_back(*d);
                }
            }
        }
        let mut remap = vec![u32::MAX; n];
        for (new, &old) in order.iter().enumerate() {
            remap[old as usize] = new as u32;
        }
        let mut delta = Vec::with_capacity(order.len());
        let mut accepts = BitSet::with_capacity(order.len());
        for (new, &old) in order.iter().enumerate() {
            delta.push(
                self.delta[old as usize]
                    .iter()
                    .map(|c| c.map(|d| remap[d as usize]))
                    .collect(),
            );
            if self.is_accept(old) {
                accepts.insert(new);
            }
        }
        Dfa {
            labels: self.labels.clone(),
            delta,
            start: 0,
            accepts,
        }
    }

    /// Number of states in the minimal equivalent DFA (a canonical size
    /// measure for Table 1).
    pub fn minimal_state_count(&self) -> usize {
        self.minimize().state_count()
    }

    /// The complement over the same letter alphabet.
    ///
    /// Completes first, then flips every state's acceptance — including
    /// the rejecting sink the completion may introduce, which becomes
    /// accepting. The order matters: flipping before completing (or not
    /// completing at all) silently drops exactly the strings on which
    /// the original automaton dies, and those are complement members.
    /// Wildcard-heavy automata are the other edge: their completed DFA
    /// may already be total (every letter, including `Other`, steps
    /// somewhere), so no sink exists and the flip alone is the whole
    /// complement. Both edges have regression tests.
    pub fn complement(&self) -> Dfa {
        let d = self.complete();
        let n = d.state_count();
        let mut accepts = BitSet::with_capacity(n);
        for s in 0..n {
            if !d.is_accept(s as u32) {
                accepts.insert(s);
            }
        }
        Dfa { accepts, ..d }
    }

    /// The synchronous product with an arbitrary acceptance combiner.
    /// Both operands are completed first, so the product is total and
    /// covers the full letter space (including `Other`).
    fn product_with<F: Fn(bool, bool) -> bool>(&self, other: &Dfa, accept: F) -> Dfa {
        assert_eq!(
            self.labels, other.labels,
            "product requires the same letter alphabet"
        );
        let a = self.complete();
        let b = other.complete();
        let letters = a.letter_count();
        let mut states: HashMap<(u32, u32), u32> = HashMap::new();
        let mut order = vec![(a.start, b.start)];
        states.insert((a.start, b.start), 0);
        let mut delta: Vec<Vec<Option<u32>>> = Vec::new();
        let mut accepts = BitSet::new();
        let mut i = 0;
        while i < order.len() {
            let (x, y) = order[i];
            if accept(a.is_accept(x), b.is_accept(y)) {
                accepts.insert(i);
            }
            let mut row = Vec::with_capacity(letters);
            for l in 0..letters {
                let pair = (
                    a.step(x, l).expect("complete"),
                    b.step(y, l).expect("complete"),
                );
                let id = *states.entry(pair).or_insert_with(|| {
                    order.push(pair);
                    (order.len() - 1) as u32
                });
                row.push(Some(id));
            }
            delta.push(row);
            i += 1;
        }
        PRODUCT_STATES.get().add(order.len() as u64);
        Dfa {
            labels: a.labels.clone(),
            delta,
            start: 0,
            accepts,
        }
    }

    /// Product accepting iff both operands accept.
    pub fn intersect(&self, other: &Dfa) -> Dfa {
        self.product_with(other, |x, y| x && y)
    }

    /// Product accepting iff either operand accepts.
    pub fn union(&self, other: &Dfa) -> Dfa {
        self.product_with(other, |x, y| x || y)
    }

    /// Product accepting iff `self` accepts and `other` does not
    /// (`self ∩ ¬other`).
    pub fn minus(&self, other: &Dfa) -> Dfa {
        self.product_with(other, |x, y| x && !y)
    }

    /// Product accepting iff exactly one operand accepts: the union of
    /// `self ∩ ¬other` and `other ∩ ¬self` over one shared state space.
    pub fn symmetric_difference(&self, other: &Dfa) -> Dfa {
        self.product_with(other, |x, y| x != y)
    }

    /// Tests whether the two DFAs (over the same letter alphabet) accept
    /// the same letter language.
    pub fn same_language(&self, other: &Dfa) -> bool {
        self.symmetric_difference(other).is_empty_language()
    }

    /// Tests whether no letter string is accepted.
    pub fn is_empty_language(&self) -> bool {
        self.shortest_accepted().is_none()
    }

    /// A shortest accepted letter string (BFS from the start), or `None`
    /// for the empty language. Ties are broken deterministically by
    /// letter order.
    pub fn shortest_accepted(&self) -> Option<Vec<usize>> {
        let n = self.state_count();
        let mut prev: Vec<Option<(u32, usize)>> = vec![None; n];
        let mut seen = vec![false; n];
        let mut queue = VecDeque::from([self.start]);
        seen[self.start as usize] = true;
        while let Some(s) = queue.pop_front() {
            if self.is_accept(s) {
                let mut letters = Vec::new();
                let mut cur = s;
                while let Some((p, l)) = prev[cur as usize] {
                    letters.push(l);
                    cur = p;
                }
                letters.reverse();
                return Some(letters);
            }
            for l in 0..self.letter_count() {
                if let Some(next) = self.step(s, l) {
                    if !seen[next as usize] {
                        seen[next as usize] = true;
                        prev[next as usize] = Some((s, l));
                        queue.push_back(next);
                    }
                }
            }
        }
        None
    }
}

/// One letter of a distinguishing witness between two specifications.
///
/// Letters are drawn from the meet-closed union alphabet of the two
/// automata (see [`Fa::determinize_with_alphabet`]); `Other` stands for
/// any event matching none of those labels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WitnessLetter {
    /// A concrete letter: a label from the meet-closed union alphabet.
    Label(TransLabel),
    /// The synthetic letter for events outside the shared alphabet
    /// (only wildcard transitions fire on it).
    Other,
}

impl Fa {
    /// The union of the two automata's concrete alphabets, deduplicated
    /// in first-appearance order (self's labels first).
    pub fn union_alphabet(&self, other: &Fa) -> Vec<TransLabel> {
        let mut alphabet: Vec<TransLabel> = self.concrete_labels().into_iter().cloned().collect();
        for l in other.concrete_labels() {
            if !alphabet.contains(l) {
                alphabet.push(l.clone());
            }
        }
        alphabet
    }

    /// Tests whether diffing this spec against `other` is meaningful:
    /// they share at least one operation, or either side has a wildcard
    /// (and thus speaks about every operation), or either side has no
    /// concrete labels at all. Two specs over disjoint operation sets
    /// trivially differ on any single event, so a "minimal
    /// distinguishing trace" between them carries no information;
    /// `cable diff-spec` refuses such pairs (exit 2).
    pub fn alphabet_compatible(&self, other: &Fa) -> bool {
        if self.has_wildcard() || other.has_wildcard() {
            return true;
        }
        let ops = |fa: &Fa| -> HashSet<Symbol> {
            fa.concrete_labels()
                .into_iter()
                .filter_map(|l| l.as_pat().map(|p| p.op))
                .collect()
        };
        let mine = ops(self);
        let theirs = ops(other);
        if mine.is_empty() || theirs.is_empty() {
            return true;
        }
        !mine.is_disjoint(&theirs)
    }

    /// The complement DFA over an explicit alphabet.
    ///
    /// Wildcard-aware: wildcard entries in the requested alphabet are
    /// ignored (a wildcard is not a letter — it already fires on every
    /// letter including `Other`), and this automaton's own concrete
    /// labels are always included, so the call never panics on a label
    /// missing from the alphabet.
    pub fn complement_over(&self, alphabet: &[TransLabel]) -> Dfa {
        let mut full: Vec<TransLabel> = self.concrete_labels().into_iter().cloned().collect();
        for l in alphabet {
            if !l.is_wildcard() && !full.contains(l) {
                full.push(l.clone());
            }
        }
        self.determinize_with_alphabet(&full).complement()
    }

    /// The difference `self \ other` as a DFA over the meet-closed union
    /// alphabet: accepts exactly the letter strings `self` accepts and
    /// `other` rejects.
    pub fn difference(&self, other: &Fa) -> Dfa {
        let alphabet = self.union_alphabet(other);
        let a = self.determinize_with_alphabet(&alphabet);
        let b = other.determinize_with_alphabet(&alphabet);
        a.minus(&b)
    }

    /// A shortest letter string accepted by exactly one of the two
    /// automata, or `None` when they are language-equivalent.
    ///
    /// Implemented as a BFS over the completed synchronous product with
    /// XOR acceptance — the union of the `self ∩ ¬other` and
    /// `other ∩ ¬self` products over one shared state space, so a single
    /// search finds the minimum over both directions.
    pub fn distinguishing_witness(&self, other: &Fa) -> Option<Vec<WitnessLetter>> {
        let alphabet = self.union_alphabet(other);
        let a = self.determinize_with_alphabet(&alphabet);
        let b = other.determinize_with_alphabet(&alphabet);
        let sym = a.symmetric_difference(&b);
        let letters = sym.shortest_accepted()?;
        let concrete = sym.labels().len();
        Some(
            letters
                .into_iter()
                .map(|l| {
                    if l < concrete {
                        WitnessLetter::Label(sym.labels()[l].clone())
                    } else {
                        WitnessLetter::Other
                    }
                })
                .collect(),
        )
    }

    /// A minimal distinguishing trace: the witness of
    /// [`Fa::distinguishing_witness`] realised as concrete events (see
    /// [`Fa::realize_witness`]), or `None` when the automata are
    /// language-equivalent. Replayed through both automata with
    /// [`Fa::accepts`], the trace is accepted by exactly one.
    pub fn distinguishing_trace(&self, other: &Fa, vocab: &mut Vocab) -> Option<Trace> {
        let witness = self.distinguishing_witness(other)?;
        Some(self.realize_witness(other, &witness, vocab))
    }

    /// Realises a letter-level witness as a concrete event trace whose
    /// NFA replay follows exactly the witness letters, on both automata.
    ///
    /// Each letter label is instantiated so the resulting event matches
    /// precisely the alphabet labels that subsume that letter (plus
    /// wildcards): `Var`/`Atom` argument patterns are kept verbatim,
    /// `_` (any) positions get a fresh variable no label mentions,
    /// op-only letters get an arity exceeding every argument-carrying
    /// label of the same operation, and `Other` becomes an event on a
    /// fresh operation (`__other`) neither automaton names.
    ///
    /// # Panics
    ///
    /// Panics if realisation would exhaust the `u8` variable space —
    /// unreachable for this workspace's specs, whose labels mention at
    /// most a handful of variables.
    pub fn realize_witness(
        &self,
        other: &Fa,
        witness: &[WitnessLetter],
        vocab: &mut Vocab,
    ) -> Trace {
        let closure = meet_closure(&self.union_alphabet(other));
        // A variable index strictly above everything any label mentions:
        // events built from it match no Var pattern.
        let mut max_var: i32 = -1;
        for l in &closure {
            if let Some(p) = l.as_pat() {
                if let Some(args) = &p.args {
                    for a in args {
                        if let ArgPat::Var(v) = a {
                            max_var = max_var.max(i32::from(v.0));
                        }
                    }
                }
            }
        }
        let fresh_base = u8::try_from(max_var + 1).expect("variable space exhausted");
        let fresh_var = |i: usize| {
            let idx = usize::from(fresh_base) + i;
            Arg::Var(Var(u8::try_from(idx).expect("variable space exhausted")))
        };
        let used_ops: HashSet<Symbol> = closure
            .iter()
            .filter_map(|l| l.as_pat().map(|p| p.op))
            .collect();
        let events = witness
            .iter()
            .map(|letter| match letter {
                WitnessLetter::Other => {
                    // An operation no label names: matches only wildcards.
                    let mut k = 0usize;
                    loop {
                        let name = if k == 0 {
                            "__other".to_owned()
                        } else {
                            format!("__other{k}")
                        };
                        let op = vocab.op(&name);
                        if !used_ops.contains(&op) {
                            return Event::new(op, vec![fresh_var(0)]);
                        }
                        k += 1;
                    }
                }
                WitnessLetter::Label(TransLabel::Wildcard) => {
                    unreachable!("witness letters are concrete")
                }
                WitnessLetter::Label(TransLabel::Pat(p)) => match &p.args {
                    Some(args) => Event::new(
                        p.op,
                        args.iter()
                            .enumerate()
                            .map(|(i, a)| match a {
                                ArgPat::Var(v) => Arg::Var(*v),
                                ArgPat::Atom(s) => Arg::Atom(*s),
                                ArgPat::Any => fresh_var(i),
                            })
                            .collect(),
                    ),
                    None => {
                        // Op-only letter: pick an arity no argument-carrying
                        // label of this op has, so only op-only labels (and
                        // wildcards) match.
                        let max_arity = closure
                            .iter()
                            .filter_map(|l| l.as_pat())
                            .filter(|q| q.op == p.op)
                            .filter_map(|q| q.args.as_ref().map(Vec::len))
                            .max();
                        let arity = max_arity.map_or(1, |m| m + 1);
                        Event::new(p.op, (0..arity).map(fresh_var).collect())
                    }
                },
            })
            .collect();
        Trace::new(events)
    }
}

impl Fa {
    /// Removes states that are unreachable from a start state or from
    /// which no accepting state is reachable, renumbering the rest.
    ///
    /// If nothing useful remains, the result is a single non-accepting
    /// start state with no transitions (the empty language).
    pub fn trim(&self) -> Fa {
        let n = self.state_count();
        // Forward reachability.
        let mut fwd = self.start_states().clone();
        let mut changed = true;
        while changed {
            changed = false;
            for t in self.transitions() {
                if fwd.contains(t.src.index()) && fwd.insert(t.dst.index()) {
                    changed = true;
                }
            }
        }
        // Backward reachability.
        let mut bwd = self.accept_states().clone();
        changed = true;
        while changed {
            changed = false;
            for t in self.transitions() {
                if bwd.contains(t.dst.index()) && bwd.insert(t.src.index()) {
                    changed = true;
                }
            }
        }
        let keep = fwd.intersection(&bwd);
        if keep.is_empty() {
            let mut b = crate::builder::FaBuilder::new();
            let s = b.state();
            b.start(s);
            return b.build();
        }
        let mut remap = vec![u32::MAX; n];
        for (new, old) in keep.iter().enumerate() {
            remap[old] = new as u32;
        }
        let transitions = self
            .transitions()
            .iter()
            .filter(|t| keep.contains(t.src.index()) && keep.contains(t.dst.index()))
            .map(|t| crate::fa::Transition {
                src: StateId(remap[t.src.index()]),
                dst: StateId(remap[t.dst.index()]),
                label: t.label.clone(),
            })
            .collect();
        let starts = self
            .start_states()
            .iter()
            .filter(|s| keep.contains(*s))
            .map(|s| remap[s] as usize)
            .collect();
        let accepts = self
            .accept_states()
            .iter()
            .filter(|s| keep.contains(*s))
            .map(|s| remap[s] as usize)
            .collect();
        Fa::from_parts(keep.len() as u32, transitions, starts, accepts)
    }

    /// The union automaton: accepts a trace iff either operand does
    /// (disjoint NFA union). The §2.1 fix step often *adds* behaviour to
    /// a specification; union composes the addition.
    ///
    /// # Examples
    ///
    /// ```
    /// use cable_fa::Fa;
    /// use cable_trace::{Trace, Vocab};
    ///
    /// let mut v = Vocab::new();
    /// let a = Fa::parse("start s0\naccept s1\ns0 -> s1 : f(X)\n", &mut v)?;
    /// let b = Fa::parse("start s0\naccept s1\ns0 -> s1 : g(X)\n", &mut v)?;
    /// let u = a.union(&b);
    /// assert!(u.accepts(&Trace::parse("f(X)", &mut v).unwrap()));
    /// assert!(u.accepts(&Trace::parse("g(X)", &mut v).unwrap()));
    /// # Ok::<(), cable_fa::ParseFaError>(())
    /// ```
    pub fn union(&self, other: &Fa) -> Fa {
        let offset = self.state_count() as u32;
        let mut transitions: Vec<crate::fa::Transition> = self.transitions().to_vec();
        transitions.extend(other.transitions().iter().map(|t| crate::fa::Transition {
            src: StateId(t.src.0 + offset),
            dst: StateId(t.dst.0 + offset),
            label: t.label.clone(),
        }));
        let mut starts = self.start_states().clone();
        starts.extend(other.start_states().iter().map(|s| s + offset as usize));
        let mut accepts = self.accept_states().clone();
        accepts.extend(other.accept_states().iter().map(|s| s + offset as usize));
        Fa::from_parts(
            offset + other.state_count() as u32,
            transitions,
            starts,
            accepts,
        )
    }

    /// The intersection automaton: accepts a trace iff both operands do
    /// (synchronous product; paired transitions carry the
    /// [`label_meet`] of the operand labels).
    pub fn intersection(&self, other: &Fa) -> Fa {
        let n2 = other.state_count() as u32;
        let pair = |a: StateId, b: StateId| StateId(a.0 * n2 + b.0);
        let mut b = crate::builder::FaBuilder::new();
        let _states = b.states(self.state_count() * other.state_count());
        for s1 in self.start_states().iter() {
            for s2 in other.start_states().iter() {
                b.start(pair(StateId(s1 as u32), StateId(s2 as u32)));
            }
        }
        for a1 in self.accept_states().iter() {
            for a2 in other.accept_states().iter() {
                b.accept(pair(StateId(a1 as u32), StateId(a2 as u32)));
            }
        }
        for t1 in self.transitions() {
            for t2 in other.transitions() {
                if let Some(label) = label_meet(&t1.label, &t2.label) {
                    b.transition(pair(t1.src, t2.src), label, pair(t1.dst, t2.dst));
                }
            }
        }
        b.build().trim()
    }

    /// Determinises over the given alphabet (which must contain every
    /// concrete label of this automaton).
    ///
    /// Overlapping labels (e.g. the op-only `XGetSelectionOwner` and the
    /// specific `XGetSelectionOwner(X,'PRIMARY)`) are handled by *label
    /// refinement*: the letter set is the meet-closure of the alphabet,
    /// and a transition fires on every letter its label subsumes. Every
    /// event has a unique minimal matching meet, so the letters partition
    /// the event space exactly (assuming each meet is realisable by some
    /// event — true for this workspace's pattern language, where variable
    /// and atom spaces are never exhausted).
    ///
    /// # Panics
    ///
    /// Panics if the automaton has a concrete label missing from
    /// `alphabet`, or the alphabet contains a wildcard.
    pub fn determinize_with_alphabet(&self, alphabet: &[TransLabel]) -> Dfa {
        for a in alphabet {
            assert!(!a.is_wildcard(), "alphabet letters must be concrete");
        }
        for l in self.concrete_labels() {
            assert!(
                alphabet.contains(l),
                "automaton label missing from alphabet"
            );
        }
        let letter_labels = meet_closure(alphabet);
        let letters = letter_labels.len() + 1; // + Other
        let mut states: HashMap<BitSet, u32> = HashMap::new();
        let mut order: Vec<BitSet> = Vec::new();
        let mut delta: Vec<Vec<Option<u32>>> = Vec::new();
        let start_set = self.start_states().clone();
        states.insert(start_set.clone(), 0);
        order.push(start_set);
        let mut i = 0;
        while i < order.len() {
            let current = order[i].clone();
            let mut row = vec![None; letters];
            for (l, row_cell) in row.iter_mut().enumerate() {
                let mut next = BitSet::new();
                for s in current.iter() {
                    for &tid in self.outgoing(StateId(s as u32)) {
                        let t = self.transition(tid);
                        let fires = if l < letter_labels.len() {
                            t.label.is_wildcard() || label_subsumes(&t.label, &letter_labels[l])
                        } else {
                            // Other: only wildcards fire.
                            t.label.is_wildcard()
                        };
                        if fires {
                            next.insert(t.dst.index());
                        }
                    }
                }
                if !next.is_empty() {
                    let id = *states.entry(next.clone()).or_insert_with(|| {
                        order.push(next.clone());
                        (order.len() - 1) as u32
                    });
                    *row_cell = Some(id);
                }
            }
            delta.push(row);
            i += 1;
        }
        let mut accepts = BitSet::with_capacity(order.len());
        for (id, set) in order.iter().enumerate() {
            if !set.is_disjoint(self.accept_states()) {
                accepts.insert(id);
            }
        }
        DETERMINIZE_CALLS.get().incr();
        DETERMINIZE_STATES.get().add(order.len() as u64);
        Dfa {
            labels: letter_labels,
            delta,
            start: 0,
            accepts,
        }
    }

    /// Determinises over this automaton's own concrete labels.
    ///
    /// # Panics
    ///
    /// See [`Fa::determinize_with_alphabet`].
    pub fn determinize(&self) -> Dfa {
        let alphabet: Vec<TransLabel> = self.concrete_labels().into_iter().cloned().collect();
        self.determinize_with_alphabet(&alphabet)
    }

    /// Tests language containment: every trace this automaton accepts is
    /// accepted by `other`, i.e. [`Fa::difference`] accepts nothing.
    ///
    /// Useful for validating debugging outcomes, e.g. that a re-mined
    /// specification does not accept behaviour outside the ground truth.
    ///
    /// # Panics
    ///
    /// See [`Fa::determinize_with_alphabet`].
    ///
    /// # Examples
    ///
    /// ```
    /// use cable_fa::Fa;
    /// use cable_trace::Vocab;
    ///
    /// let mut v = Vocab::new();
    /// let small = Fa::parse("start s0\naccept s1\ns0 -> s1 : f(X)\n", &mut v)?;
    /// let big = Fa::parse("start s0\naccept s1\ns0 -> s1 : f(X)\ns1 -> s1 : f(X)\n", &mut v)?;
    /// assert!(small.language_subset_of(&big));
    /// assert!(!big.language_subset_of(&small));
    /// # Ok::<(), cable_fa::ParseFaError>(())
    /// ```
    pub fn language_subset_of(&self, other: &Fa) -> bool {
        self.difference(other).is_empty_language()
    }

    /// Tests language equivalence with another automaton: true when no
    /// [`Fa::distinguishing_witness`] exists.
    ///
    /// # Panics
    ///
    /// See [`Fa::determinize_with_alphabet`].
    pub fn equivalent(&self, other: &Fa) -> bool {
        self.distinguishing_witness(other).is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FaBuilder;
    use cable_trace::{Trace, Vocab};

    fn linear_fa(ops: &[&str], v: &mut Vocab) -> Fa {
        let mut b = FaBuilder::new();
        let mut prev = b.state();
        b.start(prev);
        for op in ops {
            let next = b.state();
            b.event_var(prev, op, next, v);
            prev = next;
        }
        b.accept(prev);
        b.build()
    }

    #[test]
    fn trim_removes_dead_states() {
        let mut v = Vocab::new();
        let mut b = FaBuilder::new();
        let s0 = b.state();
        let dead = b.state();
        let acc = b.state();
        let unreachable = b.state();
        b.start(s0).accept(acc);
        b.event_var(s0, "f", acc, &mut v);
        b.event_var(s0, "g", dead, &mut v);
        b.event_var(unreachable, "h", acc, &mut v);
        let fa = b.build().trim();
        assert_eq!(fa.state_count(), 2);
        assert_eq!(fa.transition_count(), 1);
        let t = Trace::parse("f(X)", &mut v).unwrap();
        assert!(fa.accepts(&t));
    }

    #[test]
    fn trim_empty_language() {
        let mut b = FaBuilder::new();
        let s = b.state();
        b.start(s); // no accepting state
        let fa = b.build().trim();
        assert_eq!(fa.state_count(), 1);
        assert_eq!(fa.transition_count(), 0);
        assert!(!fa.accepts(&Trace::empty()));
    }

    #[test]
    fn determinize_merges_nondeterminism() {
        let mut v = Vocab::new();
        let mut b = FaBuilder::new();
        let s0 = b.state();
        let a1 = b.state();
        let a2 = b.state();
        b.start(s0).accept(a1).accept(a2);
        b.event_var(s0, "f", a1, &mut v);
        b.event_var(s0, "f", a2, &mut v);
        let dfa = b.build().determinize();
        assert_eq!(dfa.state_count(), 2);
        assert!(dfa.accepts_letters(&[0]));
        assert!(!dfa.accepts_letters(&[0, 0]));
    }

    #[test]
    fn minimize_collapses_equivalent_states() {
        let mut v = Vocab::new();
        // Two redundant paths of the same length: f g | f g (duplicated states).
        let mut b = FaBuilder::new();
        let s0 = b.state();
        let p1 = b.state();
        let p2 = b.state();
        let a1 = b.state();
        let a2 = b.state();
        b.start(s0).accept(a1).accept(a2);
        b.event_var(s0, "f", p1, &mut v);
        b.event_var(s0, "f", p2, &mut v);
        b.event_var(p1, "g", a1, &mut v);
        b.event_var(p2, "g", a2, &mut v);
        let dfa = b.build().determinize();
        let min = dfa.minimize();
        // f g over alphabet {f,g}: states {start, after-f, accept, sink} = 4.
        assert_eq!(min.state_count(), 4);
        assert!(min.accepts_letters(&[0, 1]));
        assert!(!min.accepts_letters(&[0]));
    }

    #[test]
    fn equivalence_positive_and_negative() {
        let mut v = Vocab::new();
        let a = linear_fa(&["f", "g"], &mut v);
        let b = linear_fa(&["f", "g"], &mut v);
        let c = linear_fa(&["f", "h"], &mut v);
        assert!(a.equivalent(&b));
        assert!(!a.equivalent(&c));
    }

    #[test]
    fn equivalence_distinguishes_wildcard() {
        let mut v = Vocab::new();
        let mut b1 = FaBuilder::new();
        let s = b1.state();
        b1.start(s).accept(s);
        b1.wildcard(s, s);
        let anything = b1.build();
        let mut b2 = FaBuilder::new();
        let s = b2.state();
        b2.start(s).accept(s);
        b2.event_var(s, "f", s, &mut v);
        let only_f = b2.build();
        assert!(!anything.equivalent(&only_f));
        assert!(anything.equivalent(&anything.clone()));
    }

    #[test]
    fn overlap_detection() {
        let mut v = Vocab::new();
        let f = v.op("f");
        let a = EventPat::op_only(f);
        let b = EventPat::on_var(f, cable_trace::Var(0));
        assert!(event_pats_overlap(&a, &b));
        let c = EventPat::on_var(f, cable_trace::Var(1));
        assert!(!event_pats_overlap(&b, &c));
        let g = EventPat::op_only(v.op("g"));
        assert!(!event_pats_overlap(&a, &g));
    }

    #[test]
    fn determinize_refines_overlapping_labels() {
        // `f` (any args) overlaps `f(X)`; refinement keeps them apart:
        // an automaton accepting any-f once is NOT equivalent to one
        // accepting exactly f(X) once, but IS equivalent to its own
        // two-transition restatement.
        let mut v = Vocab::new();
        let mut b = FaBuilder::new();
        let s0 = b.state();
        let s1 = b.state();
        b.start(s0).accept(s1);
        b.event_op(s0, "f", s1, &mut v);
        let any_f = b.build();

        let mut b = FaBuilder::new();
        let s0 = b.state();
        let s1 = b.state();
        b.start(s0).accept(s1);
        b.event_var(s0, "f", s1, &mut v);
        let only_fx = b.build();

        let mut b = FaBuilder::new();
        let s0 = b.state();
        let s1 = b.state();
        b.start(s0).accept(s1);
        b.event_var(s0, "f", s1, &mut v);
        b.event_op(s0, "f", s1, &mut v);
        let both = b.build();

        assert!(!any_f.equivalent(&only_fx), "f(Y) separates them");
        assert!(any_f.equivalent(&both));
        // Direct acceptance agrees.
        let fy = Trace::parse("f(Y)", &mut v).unwrap();
        let fx = Trace::parse("f(X)", &mut v).unwrap();
        assert!(any_f.accepts(&fy) && !only_fx.accepts(&fy));
        assert!(any_f.accepts(&fx) && only_fx.accepts(&fx));
    }

    #[test]
    fn meet_closure_adds_refinements() {
        let mut v = Vocab::new();
        let f = v.op("f");
        let any = TransLabel::Pat(EventPat::op_only(f));
        let fx = TransLabel::Pat(EventPat::on_var(f, cable_trace::Var(0)));
        let closure = meet_closure(&[any.clone(), fx.clone()]);
        assert_eq!(closure.len(), 2, "f ⊓ f(X) = f(X), already present");
        assert!(label_subsumes(&any, &fx));
        assert!(!label_subsumes(&fx, &any));
        // Incomparable overlapping labels generate their meet.
        let f_x_any = TransLabel::Pat(EventPat {
            op: f,
            args: Some(vec![ArgPat::Var(cable_trace::Var(0)), ArgPat::Any]),
        });
        let f_any_y = TransLabel::Pat(EventPat {
            op: f,
            args: Some(vec![ArgPat::Any, ArgPat::Var(cable_trace::Var(1))]),
        });
        let closure = meet_closure(&[f_x_any, f_any_y]);
        assert_eq!(closure.len(), 3);
    }

    #[test]
    fn union_accepts_either_language() {
        let mut v = Vocab::new();
        let a = linear_fa(&["f"], &mut v);
        let b = linear_fa(&["g", "h"], &mut v);
        let u = a.union(&b);
        for text in ["f(X)", "g(X) h(X)"] {
            assert!(u.accepts(&Trace::parse(text, &mut v).unwrap()), "{text}");
        }
        assert!(!u.accepts(&Trace::parse("f(X) g(X)", &mut v).unwrap()));
        assert!(!u.accepts(&Trace::parse("g(X)", &mut v).unwrap()));
    }

    #[test]
    fn intersection_requires_both() {
        let mut v = Vocab::new();
        // a: f then anything*; b: anything* then g.
        let mut b1 = FaBuilder::new();
        let s0 = b1.state();
        let s1 = b1.state();
        b1.start(s0).accept(s1);
        b1.event_var(s0, "f", s1, &mut v);
        b1.wildcard(s1, s1);
        let a = b1.build();
        let mut b2 = FaBuilder::new();
        let t0 = b2.state();
        let t1 = b2.state();
        b2.start(t0).accept(t1);
        b2.wildcard(t0, t0);
        b2.event_var(t0, "g", t1, &mut v);
        let b = b2.build();
        let i = a.intersection(&b);
        assert!(i.accepts(&Trace::parse("f(X) g(X)", &mut v).unwrap()));
        assert!(i.accepts(&Trace::parse("f(X) h(X) g(X)", &mut v).unwrap()));
        assert!(!i.accepts(&Trace::parse("f(X)", &mut v).unwrap()));
        assert!(!i.accepts(&Trace::parse("g(X)", &mut v).unwrap()));
    }

    #[test]
    fn intersection_of_disjoint_languages_is_empty() {
        let mut v = Vocab::new();
        let a = linear_fa(&["f"], &mut v);
        let b = linear_fa(&["g"], &mut v);
        let i = a.intersection(&b);
        assert!(!i.accepts(&Trace::parse("f(X)", &mut v).unwrap()));
        assert!(!i.accepts(&Trace::parse("g(X)", &mut v).unwrap()));
        assert_eq!(i.transition_count(), 0, "trimmed to nothing");
    }

    #[test]
    fn label_meet_cases() {
        use cable_trace::Var;
        let mut v = Vocab::new();
        let f = v.op("f");
        let g = v.op("g");
        let fx = TransLabel::Pat(EventPat::on_var(f, Var(0)));
        let f_any = TransLabel::Pat(EventPat::op_only(f));
        let gx = TransLabel::Pat(EventPat::on_var(g, Var(0)));
        // Wildcard is the identity.
        assert_eq!(label_meet(&TransLabel::Wildcard, &fx), Some(fx.clone()));
        assert_eq!(label_meet(&fx, &TransLabel::Wildcard), Some(fx.clone()));
        // Same op: the more specific side wins.
        assert_eq!(label_meet(&f_any, &fx), Some(fx.clone()));
        // Different ops are disjoint.
        assert_eq!(label_meet(&fx, &gx), None);
        // Positionwise meet of argument patterns.
        let f_x_any = TransLabel::Pat(EventPat {
            op: f,
            args: Some(vec![ArgPat::Var(Var(0)), ArgPat::Any]),
        });
        let f_any_y = TransLabel::Pat(EventPat {
            op: f,
            args: Some(vec![ArgPat::Any, ArgPat::Var(Var(1))]),
        });
        let met = label_meet(&f_x_any, &f_any_y).expect("overlap");
        let expect = TransLabel::Pat(EventPat {
            op: f,
            args: Some(vec![ArgPat::Var(Var(0)), ArgPat::Var(Var(1))]),
        });
        assert_eq!(met, expect);
        // Mismatched arity is disjoint.
        assert_eq!(label_meet(&fx, &f_x_any), None);
    }

    #[test]
    fn minimal_state_count_of_loop() {
        let mut v = Vocab::new();
        let mut b = FaBuilder::new();
        let s = b.state();
        b.start(s).accept(s);
        b.event_var(s, "f", s, &mut v);
        let dfa = b.build().determinize();
        // f*: minimal complete DFA over {f}: one accept state + sink... but
        // on alphabet {f, Other}: accept state loops on f, Other -> sink.
        assert_eq!(dfa.minimal_state_count(), 2);
    }

    /// An automaton accepting everything (wildcard self-loop).
    fn universal_fa() -> Fa {
        let mut b = FaBuilder::new();
        let s = b.state();
        b.start(s).accept(s);
        b.wildcard(s, s);
        b.build()
    }

    #[test]
    fn complement_completes_before_flipping() {
        // Language {f}: the incomplete DFA has no explicit dead state, so
        // a flip-without-complete would lose the sink — exactly the
        // strings ff, fff, … and every Other-containing string that the
        // complement must accept.
        let mut v = Vocab::new();
        let dfa = linear_fa(&["f"], &mut v).determinize();
        let comp = dfa.complement();
        assert!(comp.accepts_letters(&[]), "ε is not in {{f}}");
        assert!(!comp.accepts_letters(&[0]));
        assert!(comp.accepts_letters(&[0, 0]), "sink must be accepting");
        assert!(comp.accepts_letters(&[1]), "Other leads to the sink");
        // The complement is itself complete: complementing again restores
        // the original language.
        assert!(comp.complement().same_language(&dfa.complete()));
    }

    #[test]
    fn complement_of_universal_wildcard_is_empty() {
        // A wildcard-total automaton determinises to a DFA that is
        // already complete (every letter, including Other, steps) — no
        // sink is added, and the flipped DFA accepts nothing.
        let mut v = Vocab::new();
        let fx = TransLabel::Pat(EventPat::on_var(v.op("f"), cable_trace::Var(0)));
        let universal = universal_fa();
        let d = universal.determinize_with_alphabet(std::slice::from_ref(&fx));
        assert_eq!(
            d.complete().state_count(),
            d.state_count(),
            "wildcard-total DFA needs no sink"
        );
        assert!(universal.complement_over(&[fx]).is_empty_language());
    }

    #[test]
    fn complement_keeps_sink_with_wildcard_suffix() {
        // f then anything*: the wildcard keeps the post-f states total,
        // but the start state still dies on Other — the completion's sink
        // must survive into the complement as an accepting state.
        let mut v = Vocab::new();
        let mut b = FaBuilder::new();
        let s0 = b.state();
        let s1 = b.state();
        b.start(s0).accept(s1);
        b.event_var(s0, "f", s1, &mut v);
        b.wildcard(s1, s1);
        let fa = b.build();
        let comp = fa.determinize().complement();
        assert!(comp.accepts_letters(&[]));
        assert!(
            comp.accepts_letters(&[1]),
            "Other from start reaches the sink"
        );
        assert!(comp.accepts_letters(&[1, 0]), "the sink absorbs");
        assert!(!comp.accepts_letters(&[0]));
        assert!(
            !comp.accepts_letters(&[0, 1]),
            "wildcard keeps f-prefixed strings"
        );
    }

    #[test]
    fn complement_over_ignores_wildcard_letters() {
        // A wildcard in the requested alphabet is not a letter; it must
        // be filtered rather than panicking determinisation.
        let mut v = Vocab::new();
        let fx = TransLabel::Pat(EventPat::on_var(v.op("f"), cable_trace::Var(0)));
        let comp = universal_fa().complement_over(&[TransLabel::Wildcard, fx]);
        assert!(comp.is_empty_language());
    }

    #[test]
    fn dfa_products_follow_boolean_algebra() {
        let mut v = Vocab::new();
        let a = linear_fa(&["f"], &mut v);
        let b = linear_fa(&["f", "f"], &mut v);
        let alphabet = a.union_alphabet(&b);
        let da = a.determinize_with_alphabet(&alphabet);
        let db = b.determinize_with_alphabet(&alphabet);
        assert!(da.intersect(&db).is_empty_language());
        let u = da.union(&db);
        assert!(u.accepts_letters(&[0]));
        assert!(u.accepts_letters(&[0, 0]));
        assert!(!u.accepts_letters(&[]));
        assert_eq!(da.minus(&db).shortest_accepted(), Some(vec![0]));
        assert_eq!(db.minus(&da).shortest_accepted(), Some(vec![0, 0]));
        assert!(da.same_language(&da.complement().complement()));
    }

    #[test]
    fn difference_of_self_is_empty() {
        let mut v = Vocab::new();
        let a = linear_fa(&["f", "g"], &mut v);
        assert!(a.difference(&a).is_empty_language());
    }

    #[test]
    fn distinguishing_witness_is_shortest() {
        let mut v = Vocab::new();
        let a = linear_fa(&["f"], &mut v);
        let b = linear_fa(&["f", "f"], &mut v);
        let w = a.distinguishing_witness(&b).expect("languages differ");
        // Both reject ε, so the one-letter string f is minimal.
        assert_eq!(w.len(), 1);
        let t = a
            .distinguishing_trace(&b, &mut v)
            .expect("languages differ");
        assert_eq!(t.len(), 1);
        assert!(a.accepts(&t) != b.accepts(&t), "accepted by exactly one");
    }

    #[test]
    fn distinguishing_witness_none_for_equivalent() {
        let mut v = Vocab::new();
        let a = linear_fa(&["f", "g"], &mut v);
        let b = linear_fa(&["f", "g"], &mut v);
        assert!(a.distinguishing_witness(&b).is_none());
        assert!(a.distinguishing_trace(&b, &mut v).is_none());
    }

    #[test]
    fn witness_realizes_other_letter() {
        // Universal vs f*: every language difference involves a non-f
        // event, so the witness is the Other letter and must be realised
        // as an operation neither spec names.
        let mut v = Vocab::new();
        let universal = universal_fa();
        let mut b = FaBuilder::new();
        let s = b.state();
        b.start(s).accept(s);
        b.event_var(s, "f", s, &mut v);
        let only_f = b.build();
        let w = universal.distinguishing_witness(&only_f).expect("differ");
        assert_eq!(w, vec![WitnessLetter::Other]);
        let t = universal
            .distinguishing_trace(&only_f, &mut v)
            .expect("differ");
        assert!(universal.accepts(&t) && !only_f.accepts(&t));
        let shown = format!("{}", t.display(&v));
        assert!(shown.starts_with("__other("), "fresh op, got {shown}");
    }

    #[test]
    fn witness_realizes_refined_op_only_letter() {
        // Op-only f vs f(X): the distinguishing events match f but not
        // f(X); realisation picks an arity f(X) cannot match.
        let mut v = Vocab::new();
        let mut b = FaBuilder::new();
        let s0 = b.state();
        let s1 = b.state();
        b.start(s0).accept(s1);
        b.event_op(s0, "f", s1, &mut v);
        let any_f = b.build();
        let mut b = FaBuilder::new();
        let s0 = b.state();
        let s1 = b.state();
        b.start(s0).accept(s1);
        b.event_var(s0, "f", s1, &mut v);
        let only_fx = b.build();
        let t = any_f
            .distinguishing_trace(&only_fx, &mut v)
            .expect("differ");
        assert!(any_f.accepts(&t) && !only_fx.accepts(&t));
        // The realised trace survives a display/parse round trip.
        let shown = format!("{}", t.display(&v));
        let reparsed = Trace::parse(&shown, &mut v).unwrap();
        assert!(any_f.accepts(&reparsed) && !only_fx.accepts(&reparsed));
    }

    #[test]
    fn alphabet_compatibility() {
        let mut v = Vocab::new();
        let locks = linear_fa(&["lock", "unlock"], &mut v);
        let files = linear_fa(&["fopen", "fclose"], &mut v);
        let lock_only = linear_fa(&["lock"], &mut v);
        assert!(!locks.alphabet_compatible(&files), "disjoint op sets");
        assert!(locks.alphabet_compatible(&lock_only), "shared op");
        assert!(locks.alphabet_compatible(&universal_fa()), "wildcard side");
        assert!(universal_fa().alphabet_compatible(&files));
        let mut b = FaBuilder::new();
        let s = b.state();
        b.start(s).accept(s);
        let empty = b.build();
        assert!(empty.alphabet_compatible(&files), "no labels to clash");
    }
}
