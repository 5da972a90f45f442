//! Guarded lattice builds: budget-exceeded stops return *valid partial
//! lattices* (prefix-exact — equal to the lattice of the truncated
//! context), and an absent guard changes nothing.
//!
//! Budgets belong to the thread that installs them, so these tests run
//! side by side without a lock.

use cable_fca::{ConceptLattice, Context, LatticeError};
use cable_guard::{Budget, GuardError, Limit};
use cable_util::BitSet;
use std::time::Duration;

/// A deterministic random context (same generator as the godin tests).
fn random_ctx(seed: u64, n_objects: usize, n_attrs: usize, density: f64) -> Context {
    use cable_util::rng::Rng;
    let mut rng = cable_util::rng::seeded(seed);
    let mut ctx = Context::new(n_objects, n_attrs);
    for o in 0..n_objects {
        for a in 0..n_attrs {
            if rng.gen_bool(density) {
                ctx.add(o, a);
            }
        }
    }
    ctx
}

/// The context restricted to its first `k` objects.
fn prefix(ctx: &Context, k: usize) -> Context {
    let mut sub = Context::new(k, ctx.attribute_count());
    for o in 0..k {
        for a in ctx.row(o).iter() {
            sub.add(o, a);
        }
    }
    sub
}

fn concept_set(l: &ConceptLattice) -> std::collections::BTreeSet<(BitSet, BitSet)> {
    l.iter()
        .map(|(_, c)| (c.extent.clone(), c.intent.clone()))
        .collect()
}

#[test]
fn try_build_without_a_guard_equals_build() {
    let ctx = random_ctx(3, 90, 8, 0.3);
    let guarded = ConceptLattice::try_build(&ctx).expect("no budget installed");
    let plain = ConceptLattice::build(&ctx);
    assert_eq!(concept_set(&guarded), concept_set(&plain));
}

/// The budget-determinism acceptance criterion, in-process: a
/// concept-ceiling stop yields the exact lattice of the truncated
/// context — a valid result a caller can label, diff, and persist.
#[test]
fn concept_ceiling_stop_is_prefix_exact() {
    let ctx = random_ctx(5, 120, 9, 0.3);
    let full = ConceptLattice::build(&ctx);
    let ceiling = full.len() as u64 / 2;
    let guard = Budget {
        max_concepts: Some(ceiling),
        ..Budget::default()
    }
    .install();
    let stop = ConceptLattice::try_build(&ctx).expect_err("ceiling must trip");
    drop(guard);

    match &stop.error {
        GuardError::BudgetExceeded {
            limit: Limit::Concepts { limit, reached },
            ..
        } => {
            assert_eq!(*limit, ceiling);
            assert!(*reached > ceiling);
        }
        other => panic!("expected a concept-ceiling trip, got {other:?}"),
    }
    assert!(stop.objects_inserted < ctx.object_count());
    let expected = ConceptLattice::build(&prefix(&ctx, stop.objects_inserted));
    assert_eq!(
        concept_set(&stop.lattice),
        concept_set(&expected),
        "partial lattice must equal the truncated context's lattice"
    );
}

#[test]
fn expired_deadline_stops_before_the_first_object() {
    let ctx = random_ctx(1, 40, 6, 0.3);
    let guard = Budget {
        deadline: Some(Duration::ZERO),
        ..Budget::default()
    }
    .install();
    let stop = ConceptLattice::try_build(&ctx).expect_err("expired deadline must trip");
    drop(guard);
    assert!(matches!(
        stop.error,
        GuardError::BudgetExceeded {
            limit: Limit::Deadline { .. },
            ..
        }
    ));
    assert_eq!(stop.objects_inserted, 0);
    // The empty prefix still has a lattice: the (∅, A) seed concept.
    assert_eq!(stop.lattice.len(), 1);
}

#[test]
fn try_from_concepts_reports_structural_errors() {
    assert_eq!(
        ConceptLattice::try_from_concepts(Vec::new()).err(),
        Some(LatticeError::EmptyConceptSet)
    );
    let dup = cable_fca::Concept {
        extent: BitSet::singleton(0),
        intent: BitSet::singleton(1),
    };
    assert_eq!(
        ConceptLattice::try_from_concepts(vec![dup.clone(), dup]).err(),
        Some(LatticeError::DuplicateExtent)
    );
}

/// Concept sets no context has: typed errors, never a panic.
#[test]
fn try_from_concepts_rejects_sets_that_are_not_closed() {
    let concept = |extent: &[usize], intent: &[usize]| cable_fca::Concept {
        extent: extent.iter().copied().collect(),
        intent: intent.iter().copied().collect(),
    };
    // Objects 0 and 1 hold attributes 0 and 1 respectively, but the
    // set lacks their meet (∅, {0, 1}): the probe {0} ∩ τ(1) = ∅ finds
    // no concept.
    let no_meet = vec![
        concept(&[0, 1], &[]),
        concept(&[0], &[0]),
        concept(&[1], &[1]),
    ];
    assert_eq!(
        ConceptLattice::try_from_concepts(no_meet).err(),
        Some(LatticeError::NotClosed)
    );
    // ({0}, ∅) sits below a top whose intent is {0}: the probe
    // {0} ∩ τ(0) = {0} finds the concept itself, whose intent does not
    // grow.
    let shrinking = vec![concept(&[0, 1], &[0]), concept(&[0], &[])];
    assert_eq!(
        ConceptLattice::try_from_concepts(shrinking).err(),
        Some(LatticeError::NotClosed)
    );
    // A closed set still assembles.
    let closed = vec![
        concept(&[0, 1], &[]),
        concept(&[0], &[0]),
        concept(&[1], &[1]),
        concept(&[], &[0, 1]),
    ];
    let lattice = ConceptLattice::try_from_concepts(closed).expect("closed set");
    assert_eq!(lattice.children(lattice.top()).len(), 2);
}

#[test]
fn try_insert_objects_reports_the_offending_object() {
    let lattice = ConceptLattice::from_concepts(vec![cable_fca::Concept {
        extent: BitSet::new(),
        intent: BitSet::full(2),
    }]);
    let rows: Vec<BitSet> = vec![BitSet::singleton(0), BitSet::singleton(5)];
    let err = lattice
        .clone()
        .try_insert_objects(rows.iter().enumerate())
        .expect_err("second row is out of universe");
    assert_eq!(err, LatticeError::UnknownAttributes { object: 1 });

    // One-element batches: a single object is rejected the same way,
    // and an object an earlier batch inserted is a duplicate.
    let err = lattice
        .clone()
        .try_insert_objects([(0, &rows[1])])
        .expect_err("attribute 5 is outside the universe");
    assert_eq!(err, LatticeError::UnknownAttributes { object: 0 });
    let lattice = lattice
        .try_insert_objects([(0, &rows[0])])
        .expect("valid insert");
    let err = lattice
        .try_insert_objects([(0, &rows[0])])
        .expect_err("object 0 is already inserted");
    assert_eq!(err, LatticeError::DuplicateObject { object: 0 });
}
