//! Godin's incremental lattice-construction algorithm.
//!
//! This is Algorithm 1 of Godin, Missaoui & Alaoui, *Incremental concept
//! formation algorithms based on Galois (concept) lattices* (1995) — the
//! algorithm the paper uses and times in Table 2. Objects are inserted one
//! at a time; existing concepts are either **modified** (their intent is a
//! subset of the new object's attribute set, so the new object joins their
//! extent) or act as **generators** of new concepts (the intersection of
//! their intent with the new attribute set, if that intent is not already
//! present).
//!
//! Its running time is `O(2^{2k} · |O|)` where `k` bounds the number of
//! attributes per object; the paper observes `k < 10` in practice.
//!
//! Concepts must be scanned in increasing intent-cardinality order —
//! Godin's *cardinality buckets*. [`Inserter`] keeps those buckets alive
//! across insertions: a modified concept keeps its intent (and bucket),
//! and a created concept is appended to the bucket of its new intent, so
//! no insertion re-sorts the concept set. It is the one insertion loop:
//! building a lattice from scratch ([`concepts`], [`try_concepts`]) and
//! growing an existing one
//! ([`crate::lattice::ConceptLattice::insert_objects`]) both run it.
//!
//! The concept *set* is maintained incrementally; the Hasse diagram is
//! computed once at the end by [`crate::lattice::ConceptLattice::from_concepts`].

use crate::context::Context;
use crate::lattice::Concept;
use cable_obs::CounterHandle;
use cable_util::BitSet;
use std::collections::HashSet;

/// Objects inserted through Godin's algorithm (batch or incremental).
static OBJECTS_INSERTED: CounterHandle = CounterHandle::new("fca.godin.objects_inserted");
/// Concepts whose extent absorbed the new object.
static CONCEPTS_MODIFIED: CounterHandle = CounterHandle::new("fca.godin.concepts_modified");
/// Concepts created from a generator.
static CONCEPTS_CREATED: CounterHandle = CounterHandle::new("fca.godin.concepts_created");
/// Generator candidates skipped because their intent was already seen.
static CANDIDATES_SKIPPED: CounterHandle = CounterHandle::new("fca.godin.candidates_skipped");

/// Computes all concepts of the context by incremental object insertion.
///
/// The result always contains the concept with the full attribute set as
/// intent (the lattice bottom) and, once at least one object exists, the
/// concept whose extent is all objects (the top) — possibly the same
/// concept.
pub fn concepts(ctx: &Context) -> Vec<Concept> {
    let mut concepts: Vec<Concept> = vec![Concept {
        extent: BitSet::new(),
        intent: BitSet::full(ctx.attribute_count()),
    }];
    let mut inserter = Inserter::new(&concepts, ctx.attribute_count());
    for o in 0..ctx.object_count() {
        inserter.insert(&mut concepts, o, ctx.row(o));
    }
    concepts
}

/// A budget-stopped [`try_concepts`] run: the typed error plus the
/// *valid partial result* — the exact concept set of the context
/// restricted to the first [`BudgetStop::objects_inserted`] objects
/// (Godin's prefix-exactness invariant: after inserting objects `0..k`,
/// the concept set equals that of the sub-context).
#[derive(Debug)]
pub struct BudgetStop {
    /// Why the build stopped.
    pub error: cable_guard::GuardError,
    /// The prefix-exact concept set over the inserted objects.
    pub partial: Vec<Concept>,
    /// How many leading objects are fully inserted.
    pub objects_inserted: usize,
}

/// [`concepts`] under the calling thread's `cable-guard` budget: one
/// checkpoint before each object insertion (deadline, injected
/// exhaustion) and one concept-count check after it. With nothing
/// installed each check is a thread-local read (plus the fault-plane
/// flag's relaxed load) and the result is identical to [`concepts`].
///
/// # Errors
///
/// A [`BudgetStop`] carrying the prefix-exact partial concept set. The
/// stop point of a concept-count ceiling depends only on the object
/// order — never on `CABLE_PAR` or wall clock — so those partial
/// results are bit-deterministic across worker counts.
pub fn try_concepts(ctx: &Context) -> Result<Vec<Concept>, Box<BudgetStop>> {
    let n_attrs = ctx.attribute_count();
    let mut concepts: Vec<Concept> = vec![Concept {
        extent: BitSet::new(),
        intent: BitSet::full(n_attrs),
    }];
    let mut inserter = Inserter::new(&concepts, n_attrs);
    for o in 0..ctx.object_count() {
        if let Err(error) = cable_guard::checkpoint("fca.godin.insert") {
            return Err(Box::new(BudgetStop {
                error,
                partial: concepts,
                objects_inserted: o,
            }));
        }
        inserter.insert(&mut concepts, o, ctx.row(o));
        if let Err(error) = cable_guard::check_concepts(concepts.len()) {
            // The set is already exact for objects 0..=o; the ceiling
            // just means it grew past what the caller will pay for.
            return Err(Box::new(BudgetStop {
                error,
                partial: concepts,
                objects_inserted: o + 1,
            }));
        }
    }
    Ok(concepts)
}

/// The name `perfbench`'s lattice workload times: the same sequential
/// build as [`concepts`].
pub use self::concepts as concepts_auto;

/// Godin's intent-cardinality buckets, kept alive across insertions.
///
/// `buckets[k]` holds the indices of all concepts whose intent has `k`
/// attributes. Scanning buckets in increasing `k` yields the processing
/// order the algorithm's generator argument depends on, without sorting:
/// modified concepts keep their intent size, and each created concept is
/// appended to the bucket of its (new) intent size after the scan.
#[derive(Debug)]
pub struct Inserter {
    buckets: Vec<Vec<usize>>,
}

impl Inserter {
    /// Builds the buckets for an existing concept set over `n_attrs`
    /// attributes.
    pub fn new(concepts: &[Concept], n_attrs: usize) -> Inserter {
        let mut buckets = vec![Vec::new(); n_attrs + 1];
        for (i, c) in concepts.iter().enumerate() {
            buckets[c.intent.len()].push(i);
        }
        Inserter { buckets }
    }

    /// Inserts one object with the given attribute row into `concepts`,
    /// which must be the concept set these buckets index: that of the
    /// objects inserted so far, plus the `(∅, A)` seed.
    pub fn insert(&mut self, concepts: &mut Vec<Concept>, object: usize, attrs: &BitSet) {
        OBJECTS_INSERTED.get().incr();
        // Intents that are already accounted for in the new lattice: those
        // of modified concepts and of concepts created during this
        // insertion.
        let mut seen: HashSet<BitSet> = HashSet::new();
        let mut created: Vec<Concept> = Vec::new();
        let mut modified = 0u64;
        let mut skipped = 0u64;
        for bucket in &self.buckets {
            for &idx in bucket {
                let intent = concepts[idx].intent.clone();
                if intent.is_subset(attrs) {
                    // Modified concept: the new object has all its
                    // attributes. Its intent — and so its bucket — stays.
                    concepts[idx].extent.insert(object);
                    modified += 1;
                    seen.insert(intent);
                } else {
                    let candidate = intent.intersection(attrs);
                    if seen.contains(&candidate) {
                        skipped += 1;
                        continue;
                    }
                    // `concepts[idx]` is the generator: because concepts
                    // are processed by increasing intent size, the first
                    // generator of `candidate` is the closure concept of
                    // `candidate` in the old context, so its extent is
                    // exactly τ_old(candidate).
                    let mut extent = concepts[idx].extent.clone();
                    extent.insert(object);
                    seen.insert(candidate.clone());
                    created.push(Concept {
                        extent,
                        intent: candidate,
                    });
                }
            }
        }
        CONCEPTS_MODIFIED.get().add(modified);
        CONCEPTS_CREATED.get().add(created.len() as u64);
        CANDIDATES_SKIPPED.get().add(skipped);
        for c in created {
            self.buckets[c.intent.len()].push(concepts.len());
            concepts.push(c);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx_of(rows: &[&[usize]], n_attrs: usize) -> Context {
        let mut ctx = Context::new(rows.len(), n_attrs);
        for (o, row) in rows.iter().enumerate() {
            for &a in *row {
                ctx.add(o, a);
            }
        }
        ctx
    }

    fn find<'a>(cs: &'a [Concept], intent: &[usize]) -> Option<&'a Concept> {
        let i: BitSet = intent.iter().copied().collect();
        cs.iter().find(|c| c.intent == i)
    }

    #[test]
    fn empty_context() {
        let ctx = Context::new(0, 3);
        let cs = concepts(&ctx);
        assert_eq!(cs.len(), 1);
        assert_eq!(cs[0].intent, BitSet::full(3));
        assert!(cs[0].extent.is_empty());
    }

    #[test]
    fn single_object() {
        let ctx = ctx_of(&[&[0, 1]], 3);
        let cs = concepts(&ctx);
        assert_eq!(cs.len(), 2);
        let top = find(&cs, &[0, 1]).expect("object concept");
        assert_eq!(top.extent.to_vec(), vec![0]);
        let bottom = find(&cs, &[0, 1, 2]).expect("bottom");
        assert!(bottom.extent.is_empty());
    }

    #[test]
    fn object_with_all_attributes_modifies_bottom() {
        let ctx = ctx_of(&[&[0, 1, 2]], 3);
        let cs = concepts(&ctx);
        assert_eq!(cs.len(), 1);
        assert_eq!(cs[0].extent.to_vec(), vec![0]);
        assert_eq!(cs[0].intent, BitSet::full(3));
    }

    #[test]
    fn shared_attribute_creates_meet() {
        // o0 {a,b}, o1 {b,c}: concepts with intents {a,b},{b,c},{b},{a,b,c}.
        let ctx = ctx_of(&[&[0, 1], &[1, 2]], 3);
        let cs = concepts(&ctx);
        assert_eq!(cs.len(), 4);
        let meet = find(&cs, &[1]).expect("shared-attribute concept");
        assert_eq!(meet.extent.to_vec(), vec![0, 1]);
    }

    #[test]
    fn duplicate_objects_share_concepts() {
        let ctx = ctx_of(&[&[0, 1], &[0, 1], &[0, 1]], 2);
        let cs = concepts(&ctx);
        // ({0,1,2},{0,1}) only (intent == full attribute set).
        assert_eq!(cs.len(), 1);
        assert_eq!(cs[0].extent.len(), 3);
    }

    #[test]
    fn concepts_are_closed_pairs() {
        let ctx = ctx_of(&[&[0, 1], &[1, 2, 4], &[2, 3], &[2, 4], &[2, 3]], 5);
        for c in concepts(&ctx) {
            assert_eq!(ctx.sigma(&c.extent), c.intent, "intent = σ(extent)");
            assert_eq!(ctx.tau(&c.intent), c.extent, "extent = τ(intent)");
        }
    }

    #[test]
    fn animals_count_matches_figure_10() {
        let ctx = ctx_of(&[&[0, 1], &[1, 2, 4], &[2, 3], &[2, 4], &[2, 3]], 5);
        assert_eq!(concepts(&ctx).len(), 8);
    }
}
