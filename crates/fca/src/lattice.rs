//! The concept lattice: concepts, order, and the Hasse diagram.
//!
//! [`ConceptLattice::try_from_concepts`] is the one assembly path: every
//! build (Godin or NextClosure), every [`ConceptLattice::insert_objects`]
//! batch and every snapshot reopen sorts its concept set (top first) and
//! finds the covers with Lindig's neighbour rule (Lindig, *Fast Concept
//! Analysis*, 2000). The lower covers of a concept `(X, Y)` are among the
//! extents `X ∩ τ(m)` for attributes `m ∉ Y`, and such an `X'` with
//! intent `Y'` is a cover exactly when `|Y' \ Y|` attributes generate it:
//! every attribute of a cover's `Y' \ Y` generates it, while a
//! non-cover lacks the attributes of some concept strictly between. Each
//! candidate is looked up in the extent index the lattice keeps; `τ(m)`
//! is the extent of the first concept, in sorted order, whose intent
//! holds `m`. That is `n · |M|` probes where comparing every pair of
//! concepts took `n²` subset tests and then a minimality test over all
//! pairs of supersets; [`crate::reference`] keeps that all-pairs assembly
//! as the oracle the neighbour rule is tested against, list for list.
//!
//! The extent index is keyed with [`cable_util::hash::WordState`], a word
//! hasher seeded once per process: extents come from untrusted snapshots
//! too, and nothing iterates the index, so no output depends on the seed.

use crate::context::Context;
use cable_obs::{CounterHandle, HistogramHandle, Span};
use cable_util::hash::WordState;
use cable_util::BitSet;
use std::collections::HashMap;
use std::fmt;

/// Wall-clock cost of full lattice builds (Godin or NextClosure).
static BUILD_NS: HistogramHandle = HistogramHandle::new("fca.lattice.build_ns");
/// Wall-clock cost of Hasse-diagram assembly inside `from_concepts`.
static HASSE_NS: HistogramHandle = HistogramHandle::new("fca.lattice.hasse_ns");
/// Cover edges produced by Hasse-diagram assembly.
static HASSE_EDGES: CounterHandle = CounterHandle::new("fca.lattice.hasse_edges");
/// Neighbour-rule probes `X ∩ τ(m)` made by Hasse-diagram assembly.
static HASSE_INTERSECTIONS: CounterHandle = CounterHandle::new("fca.hasse.intersections");
/// Lattices assembled via `from_concepts`.
static LATTICES_BUILT: CounterHandle = CounterHandle::new("fca.lattice.built");

/// The extent index a lattice keeps: each extent's concept.
pub(crate) type ExtentIndex = HashMap<BitSet, ConceptId, WordState>;

/// Every concept's children and parents, and the probes that found them.
type Covers = (Vec<Vec<ConceptId>>, Vec<Vec<ConceptId>>, u64);

/// A formal concept: a pair `(extent, intent)` with `σ(extent) = intent`
/// and `τ(intent) = extent`.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct Concept {
    /// The objects of the concept.
    pub extent: BitSet,
    /// The attributes shared by all objects of the concept.
    pub intent: BitSet,
}

impl Concept {
    /// The paper's similarity of this concept's trace set:
    /// `sim(X) = |σ(X)| = |intent|`.
    pub fn similarity(&self) -> usize {
        self.intent.len()
    }
}

/// Index of a concept within a [`ConceptLattice`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConceptId(pub u32);

impl ConceptId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ConceptId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// A structurally invalid lattice operation, reachable from untrusted
/// input (a corrupted snapshot, a replayed journal, a caller-supplied
/// concept set) — as opposed to the internal lattice-closure invariants
/// that [`ConceptLattice::meet`]/[`ConceptLattice::join`] rely on, which
/// can only break through a bug in construction and stay as panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LatticeError {
    /// A concept set was empty; every lattice has at least `(τ(A), A)`.
    EmptyConceptSet,
    /// Two concepts shared an extent — the set is not a concept set.
    DuplicateExtent,
    /// An inserted object's attribute row mentioned attributes outside
    /// the lattice's universe (the bottom intent).
    UnknownAttributes {
        /// The offending object.
        object: usize,
    },
    /// An object was inserted twice (objects are inserted once).
    DuplicateObject {
        /// The offending object.
        object: usize,
    },
    /// The set is not the concept set of any context: a cover probe
    /// `X ∩ τ(m)` named an extent no concept has, or found a concept
    /// whose intent does not strictly contain `X`'s.
    NotClosed,
}

impl fmt::Display for LatticeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LatticeError::EmptyConceptSet => write!(f, "a concept lattice is never empty"),
            LatticeError::DuplicateExtent => write!(f, "duplicate extent in concept set"),
            LatticeError::UnknownAttributes { object } => write!(
                f,
                "object {object}: attributes outside the lattice's universe"
            ),
            LatticeError::DuplicateObject { object } => {
                write!(f, "object {object} already inserted")
            }
            LatticeError::NotClosed => write!(
                f,
                "concept set is not closed: an extent intersection is missing or its intent does not grow"
            ),
        }
    }
}

impl std::error::Error for LatticeError {}

/// A budget-stopped [`ConceptLattice::try_build`]: the typed error plus
/// a *valid* lattice over the first [`PartialBuild::objects_inserted`]
/// objects of the context (prefix-exact, see
/// [`crate::godin::BudgetStop`]).
#[derive(Debug)]
pub struct PartialBuild {
    /// Why the build stopped.
    pub error: cable_guard::GuardError,
    /// The lattice of the context restricted to the inserted prefix.
    pub lattice: ConceptLattice,
    /// How many leading objects of the context the lattice covers.
    pub objects_inserted: usize,
}

/// The complete lattice of concepts of a context, with its Hasse diagram.
///
/// The order is the paper's: `(X₀,Y₀) ≤ (X₁,Y₁)` iff `X₀ ⊆ X₁` iff
/// `Y₀ ⊇ Y₁`. *Children* of a concept are the concepts it covers
/// (immediately smaller extents); *parents* are the covering concepts.
/// The top concept has all objects in its extent; the bottom has the
/// largest intent.
#[derive(Debug, Clone)]
pub struct ConceptLattice {
    concepts: Vec<Concept>,
    children: Vec<Vec<ConceptId>>,
    parents: Vec<Vec<ConceptId>>,
    top: ConceptId,
    bottom: ConceptId,
    extent_index: ExtentIndex,
}

impl ConceptLattice {
    /// Builds the lattice of a context with Godin's incremental algorithm
    /// (the paper's choice), inserting the objects in order on the
    /// calling thread at every pool size.
    pub fn build(ctx: &Context) -> Self {
        let _span = Span::enter("fca.lattice.build", &BUILD_NS);
        Self::from_concepts(crate::godin::concepts(ctx))
    }

    /// Builds the lattice with Ganter's NextClosure (batch) algorithm.
    pub fn build_next_closure(ctx: &Context) -> Self {
        let _span = Span::enter("fca.lattice.build", &BUILD_NS);
        Self::from_concepts(crate::next_closure::concepts(ctx))
    }

    /// [`ConceptLattice::build`] under the calling thread's
    /// `cable-guard` budget: the Godin insertion loop checkpoints before
    /// every object and checks the concept-count ceiling after it.
    ///
    /// The build runs on the calling thread, so a budget-exceeded stop
    /// lands at the same object whatever `CABLE_PAR` is — the partial
    /// lattice is bit-identical across worker counts. With nothing
    /// installed this is [`build`] plus two thread-local reads and one
    /// relaxed atomic load per object.
    ///
    /// [`build`]: ConceptLattice::build
    ///
    /// # Errors
    ///
    /// A [`PartialBuild`] carrying the typed [`cable_guard::GuardError`]
    /// and a valid lattice over the inserted prefix of the context —
    /// never a panic, never a hang.
    pub fn try_build(ctx: &Context) -> Result<Self, Box<PartialBuild>> {
        let _span = Span::enter("fca.lattice.build", &BUILD_NS);
        match crate::godin::try_concepts(ctx) {
            Ok(concepts) => Ok(Self::from_concepts(concepts)),
            Err(stop) => Err(Box::new(PartialBuild {
                error: stop.error,
                lattice: Self::from_concepts(stop.partial),
                objects_inserted: stop.objects_inserted,
            })),
        }
    }

    /// Assembles a lattice (Hasse diagram, top, bottom) from a complete
    /// set of concepts.
    ///
    /// # Panics
    ///
    /// Panics if `concepts` is empty or contains duplicate extents. Use
    /// [`ConceptLattice::try_from_concepts`] when the concept set comes
    /// from untrusted input (a decoded snapshot, say) rather than a
    /// construction algorithm.
    pub fn from_concepts(concepts: Vec<Concept>) -> Self {
        match Self::try_from_concepts(concepts) {
            Ok(lattice) => lattice,
            Err(e) => panic!("{e}"),
        }
    }

    /// Assembles a lattice from a complete set of concepts, reporting
    /// structural problems as typed errors instead of panicking.
    ///
    /// # Errors
    ///
    /// [`LatticeError::EmptyConceptSet`], [`LatticeError::DuplicateExtent`],
    /// or [`LatticeError::NotClosed`] when the neighbour rule meets an
    /// extent intersection that is not in the set (or whose intent does
    /// not grow) — a set no context has as its concepts.
    pub fn try_from_concepts(concepts: Vec<Concept>) -> Result<Self, LatticeError> {
        let (concepts, extent_index) = sort_and_index(concepts)?;
        let hasse_span = Span::enter("fca.lattice.hasse", &HASSE_NS);
        let covers = neighbour_covers(&concepts, &extent_index);
        drop(hasse_span);
        let (children, parents, probes) = covers?;
        HASSE_INTERSECTIONS.get().add(probes);
        HASSE_EDGES
            .get()
            .add(children.iter().map(|c| c.len() as u64).sum());
        LATTICES_BUILT.get().incr();
        Ok(Self::assemble(concepts, children, parents, extent_index))
    }

    /// The lattice of concepts sorted by [`sort_and_index`], with these
    /// cover lists.
    pub(crate) fn assemble(
        concepts: Vec<Concept>,
        children: Vec<Vec<ConceptId>>,
        parents: Vec<Vec<ConceptId>>,
        extent_index: ExtentIndex,
    ) -> Self {
        let bottom = (0..concepts.len())
            .max_by_key(|&i| concepts[i].intent.len())
            .expect("nonempty");
        ConceptLattice {
            concepts,
            children,
            parents,
            top: ConceptId(0),
            bottom: ConceptId(bottom as u32),
            extent_index,
        }
    }

    /// Number of concepts.
    pub fn len(&self) -> usize {
        self.concepts.len()
    }

    /// A lattice always has at least one concept; this is always `false`
    /// and exists for API completeness.
    pub fn is_empty(&self) -> bool {
        self.concepts.is_empty()
    }

    /// Looks up a concept.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn concept(&self, id: ConceptId) -> &Concept {
        &self.concepts[id.index()]
    }

    /// All concept ids, top first (sorted by decreasing extent size).
    pub fn ids(&self) -> impl Iterator<Item = ConceptId> {
        (0..self.concepts.len() as u32).map(ConceptId)
    }

    /// Iterates over `(id, concept)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ConceptId, &Concept)> {
        self.concepts
            .iter()
            .enumerate()
            .map(|(i, c)| (ConceptId(i as u32), c))
    }

    /// The top concept (extent = all objects).
    pub fn top(&self) -> ConceptId {
        self.top
    }

    /// The bottom concept (maximal intent).
    pub fn bottom(&self) -> ConceptId {
        self.bottom
    }

    /// The concepts covered by `id` (immediately below).
    pub fn children(&self, id: ConceptId) -> &[ConceptId] {
        &self.children[id.index()]
    }

    /// The concepts covering `id` (immediately above).
    pub fn parents(&self, id: ConceptId) -> &[ConceptId] {
        &self.parents[id.index()]
    }

    /// Tests the lattice order: `a ≤ b` iff `extent(a) ⊆ extent(b)`.
    pub fn le(&self, a: ConceptId, b: ConceptId) -> bool {
        self.concept(a).extent.is_subset(&self.concept(b).extent)
    }

    /// Finds the concept with exactly this extent.
    pub fn find_by_extent(&self, extent: &BitSet) -> Option<ConceptId> {
        self.extent_index.get(extent).copied()
    }

    /// Finds the concept with exactly this intent.
    pub fn find_by_intent(&self, intent: &BitSet) -> Option<ConceptId> {
        self.iter()
            .find(|(_, c)| &c.intent == intent)
            .map(|(id, _)| id)
    }

    /// The meet (greatest lower bound) of two concepts: the concept whose
    /// extent is the closure of the intersection of their extents — which
    /// for concepts is the intersection itself.
    pub fn meet(&self, a: ConceptId, b: ConceptId) -> ConceptId {
        let extent = self.concept(a).extent.intersection(&self.concept(b).extent);
        // Invariant, not input validation: concept lattices are closed
        // under extent intersection, so a miss here means the lattice was
        // built from a non-closed concept set — a construction bug, not a
        // condition a caller can provoke with bad input.
        self.find_by_extent(&extent)
            .expect("extent intersection is always an extent")
    }

    /// The join (least upper bound) of two concepts: the least concept
    /// whose extent contains both extents.
    pub fn join(&self, a: ConceptId, b: ConceptId) -> ConceptId {
        let union = self.concept(a).extent.union(&self.concept(b).extent);
        // Walk candidates top-down: ids are sorted by decreasing extent
        // size, so the last superset in id order is the least one.
        // Invariant: the top concept's extent contains every object, so
        // the filter can never be empty for in-range ids.
        self.ids()
            .filter(|&c| union.is_subset(&self.concept(c).extent))
            .last()
            .expect("top is always an upper bound")
    }

    /// Concepts in breadth-first top-down order (each concept appears
    /// once, when first reached).
    pub fn bfs_top_down(&self) -> Vec<ConceptId> {
        let mut seen = vec![false; self.len()];
        let mut order = Vec::with_capacity(self.len());
        let mut queue = std::collections::VecDeque::from([self.top]);
        seen[self.top.index()] = true;
        while let Some(c) = queue.pop_front() {
            order.push(c);
            for &child in self.children(c) {
                if !seen[child.index()] {
                    seen[child.index()] = true;
                    queue.push_back(child);
                }
            }
        }
        order
    }

    /// Incrementally inserts a batch of new objects (Godin's algorithm),
    /// returning the updated lattice.
    ///
    /// This is the §6 "interactive algorithms" extension and the one way
    /// to grow a lattice: a live session absorbs freshly reported traces
    /// without rebuilding the whole lattice from its context. One
    /// [`crate::godin::Inserter`] keeps Godin's cardinality buckets alive
    /// across the batch, and the Hasse diagram is recomputed once at the
    /// end. A single object is a one-element batch.
    ///
    /// # Panics
    ///
    /// Panics if any object already occurs in an extent, or any attribute
    /// row mentions attributes outside the lattice's universe (the
    /// bottom intent). Use [`ConceptLattice::try_insert_objects`] when
    /// the rows come from untrusted input.
    pub fn insert_objects<'a, I>(self, objects: I) -> ConceptLattice
    where
        I: IntoIterator<Item = (usize, &'a cable_util::BitSet)>,
    {
        match self.try_insert_objects(objects) {
            Ok(lattice) => lattice,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`ConceptLattice::insert_objects`] with typed errors.
    ///
    /// Each object is validated before its insertion; on error the
    /// partially grown concept set is discarded with the lattice.
    ///
    /// # Errors
    ///
    /// [`LatticeError::UnknownAttributes`] for a row with attributes
    /// outside the lattice's universe, or
    /// [`LatticeError::DuplicateObject`] for an object that is already
    /// inserted (earlier in the batch or before it) — whichever the
    /// first offending object hits.
    pub fn try_insert_objects<'a, I>(self, objects: I) -> Result<ConceptLattice, LatticeError>
    where
        I: IntoIterator<Item = (usize, &'a cable_util::BitSet)>,
    {
        let bottom_intent = self.concepts[self.bottom.index()].intent.clone();
        // The top extent is the set of all previously inserted objects;
        // track it directly since the top concept itself may be replaced
        // mid-batch.
        let mut inserted = self.concepts[self.top.index()].extent.clone();
        let mut concepts = self.concepts;
        let mut inserter = crate::godin::Inserter::new(&concepts, bottom_intent.len());
        for (object, attrs) in objects {
            if !attrs.is_subset(&bottom_intent) {
                return Err(LatticeError::UnknownAttributes { object });
            }
            if inserted.contains(object) {
                return Err(LatticeError::DuplicateObject { object });
            }
            inserted.insert(object);
            inserter.insert(&mut concepts, object, attrs);
        }
        Ok(ConceptLattice::from_concepts(concepts))
    }

    /// The height of the lattice: the number of concepts on a longest
    /// chain from top to bottom.
    pub fn height(&self) -> usize {
        // Longest path in the DAG of cover edges, top-down.
        let mut depth = vec![0usize; self.len()];
        // ids sorted by decreasing extent size is a topological order.
        for id in self.ids() {
            for &child in self.children(id) {
                depth[child.index()] = depth[child.index()].max(depth[id.index()] + 1);
            }
        }
        depth.iter().max().copied().unwrap_or(0) + 1
    }
}

/// Sorts a concept set by decreasing extent size (index 0 is the top),
/// then increasing intent size, then extent, and indexes the extents.
///
/// # Errors
///
/// [`LatticeError::EmptyConceptSet`] or [`LatticeError::DuplicateExtent`].
pub(crate) fn sort_and_index(
    mut concepts: Vec<Concept>,
) -> Result<(Vec<Concept>, ExtentIndex), LatticeError> {
    if concepts.is_empty() {
        return Err(LatticeError::EmptyConceptSet);
    }
    concepts.sort_by(|a, b| {
        b.extent
            .len()
            .cmp(&a.extent.len())
            .then_with(|| a.intent.len().cmp(&b.intent.len()))
            .then_with(|| a.extent.cmp(&b.extent))
    });
    let mut extent_index = ExtentIndex::with_capacity_and_hasher(concepts.len(), WordState::new());
    for (i, c) in concepts.iter().enumerate() {
        if extent_index
            .insert(c.extent.clone(), ConceptId(i as u32))
            .is_some()
        {
            return Err(LatticeError::DuplicateExtent);
        }
    }
    Ok((concepts, extent_index))
}

/// Children and parents of every concept of a sorted, indexed concept
/// set by Lindig's neighbour rule (see the module docs), plus the number
/// of `X ∩ τ(m)` probes made. Each concept's generated ids are visited
/// in ascending order, so `children[c]` is ascending and `parents[d]`
/// gets its ids in ascending order too.
///
/// # Errors
///
/// [`LatticeError::NotClosed`] when a probe names an extent the index
/// lacks, or a generated intent does not strictly contain the probing
/// concept's.
fn neighbour_covers(
    concepts: &[Concept],
    extent_index: &ExtentIndex,
) -> Result<Covers, LatticeError> {
    let n = concepts.len();
    // (m, τ(m)) for every attribute some intent holds: the concept with
    // the largest extent holding m comes first in sorted order.
    let mut held = BitSet::new();
    let mut attributes: Vec<(usize, &BitSet)> = Vec::new();
    for c in concepts {
        for m in c.intent.iter() {
            if held.insert(m) {
                attributes.push((m, &c.extent));
            }
        }
    }
    let mut children: Vec<Vec<ConceptId>> = vec![Vec::new(); n];
    let mut parents: Vec<Vec<ConceptId>> = vec![Vec::new(); n];
    // generators[d]: how many attributes generated concept d from the
    // concept being visited; `generated` lists the d with a nonzero count.
    let mut generators = vec![0u32; n];
    let mut generated: Vec<u32> = Vec::new();
    let mut probe = BitSet::new();
    let mut probes = 0u64;
    for (c, concept) in concepts.iter().enumerate() {
        for &(m, tau) in &attributes {
            if concept.intent.contains(m) {
                continue;
            }
            probes += 1;
            probe.clone_from(&concept.extent);
            probe.intersect_with(tau);
            let d = extent_index.get(&probe).ok_or(LatticeError::NotClosed)?.0;
            if generators[d as usize] == 0 {
                generated.push(d);
            }
            generators[d as usize] += 1;
        }
        generated.sort_unstable();
        let size = concept.intent.len();
        for &d in &generated {
            let lower = &concepts[d as usize].intent;
            if !concept.intent.is_proper_subset(lower) {
                return Err(LatticeError::NotClosed);
            }
            if generators[d as usize] as usize == lower.len() - size {
                children[c].push(ConceptId(d));
                parents[d as usize].push(ConceptId(c as u32));
            }
            generators[d as usize] = 0;
        }
        generated.clear();
    }
    Ok((children, parents, probes))
}

impl Default for ConceptLattice {
    /// The lattice of the empty context, `(∅, ∅)` alone, assembled
    /// without the Hasse pass or a count in `fca.lattice.built`: a free
    /// stand-in while [`ConceptLattice::insert_objects`] consumes one.
    fn default() -> Self {
        ConceptLattice {
            concepts: vec![Concept::default()],
            children: vec![Vec::new()],
            parents: vec![Vec::new()],
            top: ConceptId(0),
            bottom: ConceptId(0),
            extent_index: ExtentIndex::from_iter([(BitSet::new(), ConceptId(0))]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn animals() -> (Context, ConceptLattice) {
        let mut ctx = Context::new(5, 5);
        for (o, attrs) in [
            (0usize, vec![0usize, 1]),
            (1, vec![1, 2, 4]),
            (2, vec![2, 3]),
            (3, vec![2, 4]),
            (4, vec![2, 3]),
        ] {
            for a in attrs {
                ctx.add(o, a);
            }
        }
        let lattice = ConceptLattice::build(&ctx);
        (ctx, lattice)
    }

    #[test]
    fn top_and_bottom() {
        let (_, l) = animals();
        assert_eq!(l.len(), 8);
        assert_eq!(l.concept(l.top()).extent.len(), 5);
        assert!(l.concept(l.top()).intent.is_empty());
        assert!(l.concept(l.bottom()).extent.is_empty());
        assert_eq!(l.concept(l.bottom()).intent.len(), 5);
    }

    #[test]
    fn hasse_edges_are_covers() {
        let (_, l) = animals();
        for id in l.ids() {
            for &child in l.children(id) {
                assert!(l.le(child, id));
                assert_ne!(child, id);
                // No concept strictly between.
                for mid in l.ids() {
                    if mid != id && mid != child {
                        assert!(
                            !(l.le(child, mid) && l.le(mid, id)),
                            "{mid} between {child} and {id}"
                        );
                    }
                }
                // parents is the inverse relation.
                assert!(l.parents(child).contains(&id));
            }
        }
    }

    #[test]
    fn similarity_increases_downward() {
        let (_, l) = animals();
        for id in l.ids() {
            for &child in l.children(id) {
                assert!(l.concept(child).similarity() >= l.concept(id).similarity());
            }
        }
    }

    #[test]
    fn meet_and_join() {
        let (_, l) = animals();
        // Concepts for {hair-covered} (cats+gibbons) and {intelligent}.
        let hair = l
            .find_by_intent(&BitSet::singleton(1))
            .expect("hair concept");
        let intel = l
            .find_by_intent(&BitSet::singleton(2))
            .expect("intelligent concept");
        let meet = l.meet(hair, intel);
        // gibbons only: {hair-covered, intelligent, thumbed}.
        assert_eq!(l.concept(meet).extent.to_vec(), vec![1]);
        let join = l.join(hair, intel);
        assert_eq!(join, l.top());
        // meet/join with self are identity.
        assert_eq!(l.meet(hair, hair), hair);
        assert_eq!(l.join(hair, hair), hair);
        // Order relations.
        assert!(l.le(meet, hair));
        assert!(l.le(meet, intel));
    }

    #[test]
    fn bfs_starts_at_top_and_respects_order() {
        let (_, l) = animals();
        let order = l.bfs_top_down();
        assert_eq!(order.len(), l.len());
        assert_eq!(order[0], l.top());
        let position: Vec<usize> = {
            let mut pos = vec![0; l.len()];
            for (i, id) in order.iter().enumerate() {
                pos[id.index()] = i;
            }
            pos
        };
        for id in l.ids() {
            for &child in l.children(id) {
                assert!(position[child.index()] > position[id.index()]);
            }
        }
    }

    #[test]
    fn find_by_extent_and_intent_agree() {
        let (_, l) = animals();
        for (id, c) in l.iter() {
            assert_eq!(l.find_by_extent(&c.extent), Some(id));
            assert_eq!(l.find_by_intent(&c.intent), Some(id));
        }
        assert_eq!(l.find_by_extent(&BitSet::singleton(999)), None);
    }

    #[test]
    fn height_of_animals() {
        let (_, l) = animals();
        // top > {intelligent} > {intelligent,thumbed} >
        // {hair,intelligent,thumbed} > bottom: 5 concepts on the chain.
        assert_eq!(l.height(), 5);
    }

    #[test]
    fn single_concept_lattice() {
        let ctx = Context::new(2, 0);
        let l = ConceptLattice::build(&ctx);
        assert_eq!(l.len(), 1);
        assert_eq!(l.top(), l.bottom());
        assert!(l.children(l.top()).is_empty());
        assert_eq!(l.height(), 1);
        assert!(!l.is_empty());
    }

    /// The same concepts in the same order, with the same cover lists.
    fn assert_same_lattice(a: &ConceptLattice, b: &ConceptLattice) {
        assert_eq!(a.len(), b.len());
        for id in a.ids() {
            assert_eq!(a.concept(id), b.concept(id), "{id}");
            assert_eq!(a.children(id), b.children(id), "{id}");
            assert_eq!(a.parents(id), b.parents(id), "{id}");
        }
    }

    fn seed(n_attrs: usize) -> ConceptLattice {
        ConceptLattice::from_concepts(vec![Concept {
            extent: BitSet::new(),
            intent: BitSet::full(n_attrs),
        }])
    }

    #[test]
    fn one_object_batches_match_batch_build() {
        // Grow the animals lattice from the seed, one object per batch.
        let (ctx, batch) = animals();
        let mut grown = seed(5);
        for o in 0..ctx.object_count() {
            grown = grown.insert_objects([(o, ctx.row(o))]);
        }
        assert_same_lattice(&grown, &batch);
    }

    #[test]
    fn insert_objects_matches_batch_build() {
        // Split the animals context: build over the first two objects,
        // then batch-insert the remaining three.
        let (ctx, batch) = animals();
        let base = Context::from_rows((0..2).map(|o| ctx.row(o).clone()).collect(), 5);
        let grown = ConceptLattice::build(&base).insert_objects((2..5).map(|o| (o, ctx.row(o))));
        assert_same_lattice(&grown, &batch);
    }

    #[test]
    fn insert_objects_of_nothing_is_identity() {
        let (_, l) = animals();
        let n = l.len();
        let l = l.insert_objects(std::iter::empty());
        assert_eq!(l.len(), n);
    }

    #[test]
    #[should_panic(expected = "already inserted")]
    fn insert_objects_rejects_duplicates_within_the_batch() {
        let row = BitSet::singleton(0);
        let _ = seed(2).insert_objects([(0, &row), (0, &row)]);
    }

    #[test]
    #[should_panic(expected = "already inserted")]
    fn insert_objects_rejects_an_object_an_earlier_batch_inserted() {
        let row = BitSet::singleton(0);
        let lattice = seed(2).insert_objects([(0, &row)]);
        let _ = lattice.insert_objects([(0, &row)]);
    }

    #[test]
    #[should_panic(expected = "outside the lattice's universe")]
    fn insert_objects_rejects_unknown_attributes() {
        let _ = seed(2).insert_objects([(0, &BitSet::singleton(7))]);
    }

    #[test]
    fn godin_and_next_closure_agree_on_animals() {
        let (ctx, _) = animals();
        let a = ConceptLattice::build(&ctx);
        let b = ConceptLattice::build_next_closure(&ctx);
        assert_eq!(a.len(), b.len());
        for (id, c) in a.iter() {
            let id2 = b.find_by_extent(&c.extent).expect("same extents");
            assert_eq!(b.concept(id2).intent, c.intent);
            let _ = id;
        }
    }
}
