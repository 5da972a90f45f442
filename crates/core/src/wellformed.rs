//! Well-formedness of a lattice for a desired labeling (§4.3).
//!
//! Because Cable only labels the traces of a concept *en masse*, a bad
//! lattice can make a labeling unreachable. A concept `c` is well-formed
//! for a labeling iff
//!
//! 1. every trace in `c` has the same label, or
//! 2. every child of `c` is well-formed, and every trace of `c` that is
//!    in no child has the same label.
//!
//! The lattice is well-formed iff every concept is. When it is not, the
//! §4.3 remedies apply: change the reference FA (Focus) or label the
//! offending concepts `mixed` and handle their traces separately.
//!
//! # The row rule
//!
//! A lattice is well-formed for a labeling iff no two objects with
//! equal context rows carry different labels. Proof sketch:
//!
//! 1. The objects of a concept `c = (X, Y)` in no child of `c` (its
//!    *residue*) are exactly those whose row equals `Y`: an object of `X`
//!    lies in a child iff its row is a strict superset of `Y`. Every row
//!    is an intent, so objects with equal rows share a residue.
//! 2. If some residue mixes labels, so does `c`'s extent, and `c` fails
//!    both clauses.
//! 3. If no residue mixes labels, every concept is well-formed, by
//!    induction from the bottom.
//!
//! So [`first_clash`] decides well-formedness on the rows, without a
//! lattice, and the pair it returns is §4.3's explanation: the reference
//! FA executes the same transitions on both traces (the parity example
//! in general form). [`ill_formed_concepts`], the lattice walk, is kept
//! as its test oracle.

use crate::session::CableSession;
use cable_fca::{ConceptLattice, Context};
use cable_util::BitSet;
use std::collections::HashMap;

/// The row check: the first class `b` whose row equals an earlier
/// class's but whose label differs, paired with the first class `a` of
/// that row. `None` iff the lattice of these rows is well-formed for
/// `label_of` (a function from class index to an arbitrary label).
pub fn first_clash<'a, R, L, F>(rows: R, label_of: F) -> Option<(usize, usize)>
where
    R: IntoIterator<Item = &'a BitSet>,
    L: PartialEq,
    F: Fn(usize) -> L,
{
    // The first class of each row and its label, which every later
    // class with that row shares until a clash.
    let mut first: HashMap<&BitSet, (usize, L)> = HashMap::new();
    for (b, row) in rows.into_iter().enumerate() {
        let label = label_of(b);
        match first.get(row) {
            Some((a, seen)) if *seen != label => return Some((*a, b)),
            Some(_) => {}
            None => {
                first.insert(row, (b, label));
            }
        }
    }
    None
}

/// Tests whether the lattice of `context` is well-formed for
/// `label_of`: [`first_clash`] over the context's rows.
pub fn is_well_formed<L, F>(context: &Context, label_of: F) -> bool
where
    L: PartialEq,
    F: Fn(usize) -> L,
{
    first_clash(rows(context), label_of).is_none()
}

fn rows(context: &Context) -> impl Iterator<Item = &BitSet> {
    (0..context.object_count()).map(|o| context.row(o))
}

/// The set of concepts that are *not* well-formed for the labeling, as a
/// bit set over concept indices. Empty iff the lattice is well-formed.
/// This lattice walk is kept as the oracle of [`first_clash`].
pub fn ill_formed_concepts<L, F>(lattice: &ConceptLattice, label_of: F) -> BitSet
where
    L: PartialEq,
    F: Fn(usize) -> L,
{
    let n = lattice.len();
    let mut well = vec![false; n];
    // Process bottom-up: ids are sorted by decreasing extent size, so
    // reverse id order is a valid children-first order.
    for id in lattice.ids().collect::<Vec<_>>().into_iter().rev() {
        let concept = lattice.concept(id);
        // Case 1: uniform labels over the whole extent.
        if uniform(concept.extent.iter(), &label_of) {
            well[id.index()] = true;
            continue;
        }
        // Case 2: all children well-formed and the residue is uniform.
        let children = lattice.children(id);
        if children.iter().all(|c| well[c.index()]) {
            let mut residue = concept.extent.clone();
            for c in children {
                residue.difference_with(&lattice.concept(*c).extent);
            }
            if uniform(residue.iter(), &label_of) {
                well[id.index()] = true;
            }
        }
    }
    (0..n).filter(|&i| !well[i]).collect()
}

fn uniform<L, F, I>(objects: I, label_of: &F) -> bool
where
    L: PartialEq,
    F: Fn(usize) -> L,
    I: IntoIterator<Item = usize>,
{
    let mut first: Option<L> = None;
    for o in objects {
        let l = label_of(o);
        match &first {
            None => first = Some(l),
            Some(f) => {
                if *f != l {
                    return false;
                }
            }
        }
    }
    true
}

impl CableSession {
    /// [`first_clash`] over this session's rows for a labeling over
    /// *traces* (applied to class representatives): the pair of classes
    /// no concept separates, the reason the lattice is not well-formed.
    pub fn first_clash_for<L, F>(&self, label_of_trace: F) -> Option<(usize, usize)>
    where
        L: PartialEq,
        F: Fn(&cable_trace::Trace) -> L,
    {
        first_clash(rows(self.context()), |class| {
            label_of_trace(self.traces().trace(self.classes()[class].representative))
        })
    }

    /// Tests whether this session's lattice is well-formed for the given
    /// reference labeling over *traces* (applied to class
    /// representatives).
    pub fn is_well_formed_for<L, F>(&self, label_of_trace: F) -> bool
    where
        L: PartialEq,
        F: Fn(&cable_trace::Trace) -> L,
    {
        self.first_clash_for(label_of_trace).is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn context_of(rows: &[&[usize]], m: usize) -> Context {
        let mut ctx = Context::new(rows.len(), m);
        for (o, row) in rows.iter().enumerate() {
            for &a in *row {
                ctx.add(o, a);
            }
        }
        ctx
    }

    /// Both verdicts on one context: the row check's clash, after
    /// asserting that it agrees with the lattice walk.
    fn clash<L: PartialEq>(ctx: &Context, label_of: impl Fn(usize) -> L) -> Option<(usize, usize)> {
        let clash = first_clash(rows(ctx), &label_of);
        let ill = ill_formed_concepts(&ConceptLattice::build(ctx), &label_of);
        assert_eq!(clash.is_none(), ill.is_empty(), "{clash:?} vs {ill:?}");
        assert_eq!(is_well_formed(ctx, &label_of), clash.is_none());
        clash
    }

    #[test]
    fn uniform_labeling_is_always_well_formed() {
        let ctx = context_of(&[&[0], &[1], &[0, 1]], 2);
        assert_eq!(clash(&ctx, |_| "same"), None);
    }

    #[test]
    fn separable_labeling_is_well_formed() {
        // Objects 0,1 share attribute 0; object 2 has attribute 1.
        // Labeling {0,1}=good, {2}=bad is achievable: label the
        // attribute-0 concept, then the rest.
        let ctx = context_of(&[&[0], &[0], &[1]], 2);
        assert_eq!(clash(&ctx, |o| if o < 2 { "good" } else { "bad" }), None);
    }

    #[test]
    fn parity_example_is_not_well_formed() {
        // §4.3's example: all traces exercise the sole transition, so all
        // end up in one concept; an even/odd labeling is unreachable.
        // Model: 4 objects all with the same single attribute.
        let ctx = context_of(&[&[0], &[0], &[0], &[0]], 1);
        assert_eq!(clash(&ctx, |o| o % 2 == 0), Some((0, 1)));
        let ill = ill_formed_concepts(&ConceptLattice::build(&ctx), |o| o % 2 == 0);
        assert!(!ill.is_empty());
    }

    #[test]
    fn residue_rule_applies() {
        // Objects: 0 {a}, 1 {a,b}, 2 {a,c}. Concept {a} = {0,1,2} with
        // children {a,b}={1} and {a,c}={2}; residue {0}.
        // Labeling 1=x, 2=y, 0=z is well-formed via case 2.
        let ctx = context_of(&[&[0], &[0, 1], &[0, 2]], 3);
        let labels = ["z", "x", "y"];
        assert_eq!(clash(&ctx, |o| labels[o]), None);
    }

    #[test]
    fn mixed_residue_is_ill_formed() {
        // Objects 0 and 1 have identical attributes but different labels,
        // and 2 is separable.
        let ctx = context_of(&[&[0], &[0], &[1]], 2);
        let labels = ["x", "y", "z"];
        assert_eq!(clash(&ctx, |o| labels[o]), Some((0, 1)));
        let lattice = ConceptLattice::build(&ctx);
        let ill = ill_formed_concepts(&lattice, |o| labels[o]);
        let shared = lattice
            .find_by_intent(ctx.row(0))
            .expect("a row is an intent");
        assert!(ill.contains(shared.index()), "{ill:?}");
    }

    #[test]
    fn session_level_check() {
        use cable_fa::templates;
        use cable_trace::{Trace, TraceSet, Vocab};
        let mut v = Vocab::new();
        let mut traces = TraceSet::new();
        traces.push(Trace::parse("a(X) c(X)", &mut v).unwrap());
        traces.push(Trace::parse("a(X)", &mut v).unwrap());
        traces.push(Trace::parse("a(X) a(X)", &mut v).unwrap());
        let all: Vec<Trace> = traces.iter().map(|(_, t)| t.clone()).collect();
        let fa = templates::unordered_of_trace_events(&all);
        let s = CableSession::new(traces, fa);
        let label_of_class = |label: &dyn Fn(&Trace) -> bool, class: usize| {
            label(s.traces().trace(s.classes()[class].representative))
        };
        // Label by whether the trace contains `c`: separable.
        let c = v.find_op("c").unwrap();
        let has_c = |t: &Trace| t.iter().any(|e| e.op == c);
        assert!(s.is_well_formed_for(has_c));
        assert_eq!(s.first_clash_for(has_c), None);
        assert!(ill_formed_concepts(s.lattice(), |k| label_of_class(&has_c, k)).is_empty());
        // Label by length: `a(X)` and `a(X) a(X)` execute the same
        // transition, so the unordered lattice cannot separate them.
        let short = |t: &Trace| t.len() < 2;
        assert!(!s.is_well_formed_for(short));
        assert_eq!(s.first_clash_for(short), Some((1, 2)));
        assert!(!ill_formed_concepts(s.lattice(), |k| label_of_class(&short, k)).is_empty());
    }
}
