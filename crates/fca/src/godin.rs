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
//! Beside its buckets the inserter keeps every intent as a row of
//! `⌈|M| / 64⌉` words in one flat array, so the scan's subset test and
//! candidate intersection are word operations that allocate nothing; only
//! a created concept gets a [`BitSet`] intent. One-word rows (up to 64
//! attributes, which covers every registry session and the `lattice-scale`
//! grid) are scanned by code compiled for that width; wider rows take a
//! loop over a width known only at run time. Godin's "already seen" test
//! looks the candidate up among the rows by content, through a map keyed
//! with [`cable_util::hash::WordState`]:
//! the rows come from ingested traces, so the hasher is seeded once per
//! process, and nothing iterates the map, so no output depends on the seed.
//!
//! The concept *set* is maintained incrementally; the Hasse diagram is
//! computed once at the end by [`crate::lattice::ConceptLattice::from_concepts`].

use crate::context::Context;
use crate::lattice::Concept;
use cable_obs::CounterHandle;
use cable_util::hash::WordState;
use cable_util::BitSet;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};

/// Objects inserted through Godin's algorithm (batch or incremental).
static OBJECTS_INSERTED: CounterHandle = CounterHandle::new("fca.godin.objects_inserted");
/// Concepts whose extent absorbed the new object.
static CONCEPTS_MODIFIED: CounterHandle = CounterHandle::new("fca.godin.concepts_modified");
/// Concepts created from a generator.
static CONCEPTS_CREATED: CounterHandle = CounterHandle::new("fca.godin.concepts_created");
/// Generator candidates skipped because their intent was already seen.
static CANDIDATES_SKIPPED: CounterHandle = CounterHandle::new("fca.godin.candidates_skipped");
/// Candidate intents `intent ∩ attrs` formed: one per concept an
/// insertion does not modify.
static INTERSECTIONS: CounterHandle = CounterHandle::new("fca.godin.intersections");

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

/// Godin's intent-cardinality buckets and intent rows, kept alive across
/// insertions.
///
/// `buckets[k]` holds the indices of all concepts whose intent has `k`
/// attributes. Scanning buckets in increasing `k` yields the processing
/// order the algorithm's generator argument depends on, without sorting:
/// modified concepts keep their intent size, and each created concept is
/// appended to the bucket of its (new) intent size after the scan.
#[derive(Debug)]
pub struct Inserter {
    buckets: Vec<Vec<usize>>,
    /// Every concept's intent, as a word row.
    rows: Rows,
    /// The inserted object's attributes as a row (scratch).
    attrs: Vec<u64>,
    /// A candidate intent `intent ∩ attrs` (scratch).
    candidate: Vec<u64>,
}

impl Inserter {
    /// Builds the buckets and rows for an existing concept set over
    /// `n_attrs` attributes.
    pub fn new(concepts: &[Concept], n_attrs: usize) -> Inserter {
        let mut buckets = vec![Vec::new(); n_attrs + 1];
        for (i, c) in concepts.iter().enumerate() {
            buckets[c.intent.len()].push(i);
        }
        let width = concepts
            .iter()
            .map(|c| c.intent.canonical_blocks().len())
            .fold(n_attrs.div_ceil(64), usize::max);
        let mut rows = Rows::new(width);
        let mut row = Vec::with_capacity(width);
        for c in concepts {
            fill_row(&mut row, &c.intent, width);
            rows.push(&row);
        }
        Inserter {
            buckets,
            rows,
            attrs: row,
            candidate: vec![0; width],
        }
    }

    /// Inserts one object with the given attribute row into `concepts`,
    /// which must be the concept set these buckets index: that of the
    /// objects inserted so far, plus the `(∅, A)` seed.
    pub fn insert(&mut self, concepts: &mut Vec<Concept>, object: usize, attrs: &BitSet) {
        OBJECTS_INSERTED.get().incr();
        // Attributes past the widest intent meet no intent, so the row
        // drops them.
        fill_row(&mut self.attrs, attrs, self.rows.width);
        let created = match self.rows.width {
            1 => self.scan::<1>(concepts, object),
            _ => self.scan::<0>(concepts, object),
        };
        for c in created {
            self.buckets[c.intent.len()].push(concepts.len());
            concepts.push(c);
        }
    }

    /// One pass of Godin's scan for `object`, over rows of `W` words
    /// (`W = 0`: of `rows.width` words), returning the concepts it
    /// creates in creation order. Their rows are already pushed.
    fn scan<const W: usize>(&mut self, concepts: &mut [Concept], object: usize) -> Vec<Concept> {
        let Inserter {
            buckets,
            rows,
            attrs,
            candidate,
        } = self;
        let width = rows.width::<W>();
        let (attrs, candidate) = (&attrs[..width], &mut candidate[..width]);
        let mut created: Vec<Concept> = Vec::new();
        let mut modified = 0u64;
        let mut skipped = 0u64;
        for bucket in buckets.iter() {
            for &idx in bucket {
                let row = rows.row::<W>(idx);
                if row.iter().zip(attrs).all(|(&i, &a)| i & !a == 0) {
                    // Modified concept: the new object has all its
                    // attributes. Its intent — and so its bucket — stays.
                    concepts[idx].extent.insert(object);
                    modified += 1;
                    continue;
                }
                for (c, (&i, &a)) in candidate.iter_mut().zip(row.iter().zip(attrs)) {
                    *c = i & a;
                }
                // Godin's test is whether a modified or created concept
                // already has the candidate as its intent. Any concept
                // with that intent is one: its intent lies inside the
                // new row, and it is smaller than this one's, so it was
                // scanned (and modified) earlier in this pass.
                if rows.contains::<W>(candidate) {
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
                rows.push(candidate);
                created.push(Concept {
                    extent,
                    intent: BitSet::from_blocks(candidate.to_vec()),
                });
            }
        }
        CONCEPTS_MODIFIED.get().add(modified);
        CONCEPTS_CREATED.get().add(created.len() as u64);
        CANDIDATES_SKIPPED.get().add(skipped);
        INTERSECTIONS.get().add(skipped + created.len() as u64);
        created
    }
}

/// Sets `row` to `set`'s first `width` blocks, zero-padded.
fn fill_row(row: &mut Vec<u64>, set: &BitSet, width: usize) {
    let blocks = set.canonical_blocks();
    row.clear();
    row.extend_from_slice(&blocks[..blocks.len().min(width)]);
    row.resize(width, 0);
}

/// Concept intents as rows of `width` words, concept after concept in
/// one flat array, indexed by content.
///
/// The index maps each row's hash to the last concept with a row of that
/// hash, and `same_hash` chains back to the earlier ones, so a lookup
/// compares the candidate with rows in the flat array, word by word,
/// rather than with keys the map would own one allocation each. The
/// methods taking `W` read rows of `W` words (`W = 0`: of `width`).
#[derive(Debug)]
struct Rows {
    width: usize,
    words: Vec<u64>,
    by_hash: HashMap<u64, u32, WordState>,
    same_hash: Vec<u32>,
}

/// The end of a `same_hash` chain.
const NO_CONCEPT: u32 = u32::MAX;

impl Rows {
    fn new(width: usize) -> Rows {
        Rows {
            width,
            words: Vec::new(),
            by_hash: HashMap::default(),
            same_hash: Vec::new(),
        }
    }

    /// The row width the scan for `W` reads.
    fn width<const W: usize>(&self) -> usize {
        if W == 0 {
            self.width
        } else {
            W
        }
    }

    /// Concept `i`'s row.
    fn row<const W: usize>(&self, i: usize) -> &[u64] {
        let width = self.width::<W>();
        &self.words[i * width..][..width]
    }

    /// The hash a row is indexed under.
    fn hash(&self, row: &[u64]) -> u64 {
        let mut hasher = self.by_hash.hasher().build_hasher();
        for &word in row {
            hasher.write_u64(word);
        }
        hasher.finish()
    }

    /// Appends the next concept's row.
    fn push(&mut self, row: &[u64]) {
        let hash = self.hash(row);
        let i = self.same_hash.len() as u32;
        self.words.extend_from_slice(row);
        let earlier = self.by_hash.insert(hash, i).unwrap_or(NO_CONCEPT);
        self.same_hash.push(earlier);
    }

    /// Whether some concept's row is `row`.
    fn contains<const W: usize>(&self, row: &[u64]) -> bool {
        let row = &row[..self.width::<W>()];
        let mut i = self
            .by_hash
            .get(&self.hash(row))
            .copied()
            .unwrap_or(NO_CONCEPT);
        while i != NO_CONCEPT {
            if self
                .row::<W>(i as usize)
                .iter()
                .zip(row)
                .all(|(a, b)| a == b)
            {
                return true;
            }
            i = self.same_hash[i as usize];
        }
        false
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
