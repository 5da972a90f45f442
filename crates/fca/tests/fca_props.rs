//! Randomized tests for the FCA implementation.
//!
//! The key oracle: Godin's incremental algorithm and Ganter's NextClosure
//! must produce exactly the same concept set on random contexts, and the
//! resulting lattice must satisfy the laws §3.1 of the paper relies on.
//!
//! Each test runs a fixed number of seeded cases, so failures reproduce
//! exactly (`seeded(case)` pins the generator).

mod common;

use cable_fca::{reference, ConceptLattice, Context};
use cable_util::rng::{seeded, Rng, SmallRng};
use cable_util::BitSet;
use std::collections::HashSet;

/// A random context: up to 12 objects over up to 8 attributes, each row
/// drawn as an 8-bit attribute mask.
fn gen_context(rng: &mut SmallRng) -> Context {
    let n_attrs = rng.gen_range(1usize..=8);
    let n_rows = rng.gen_range(0usize..12);
    let bit_rows: Vec<BitSet> = (0..n_rows)
        .map(|_| {
            let bits = rng.gen_range(0u16..256);
            (0..n_attrs).filter(|&a| bits & (1 << a) != 0).collect()
        })
        .collect();
    Context::from_rows(bit_rows, n_attrs)
}

#[test]
fn godin_equals_next_closure() {
    for case in 0..128u64 {
        let ctx = gen_context(&mut seeded(case));
        let a: HashSet<_> = cable_fca::godin::concepts(&ctx)
            .into_iter()
            .map(|c| (c.extent, c.intent))
            .collect();
        let b: HashSet<_> = cable_fca::next_closure::concepts(&ctx)
            .into_iter()
            .map(|c| (c.extent, c.intent))
            .collect();
        assert_eq!(a, b, "case {case}");
    }
}

#[test]
fn concepts_are_closed_pairs() {
    for case in 0..128u64 {
        let ctx = gen_context(&mut seeded(case));
        for c in cable_fca::godin::concepts(&ctx) {
            assert_eq!(ctx.sigma(&c.extent), c.intent, "case {case}");
            assert_eq!(ctx.tau(&c.intent), c.extent, "case {case}");
        }
    }
}

#[test]
fn lattice_order_is_consistent() {
    for case in 0..128u64 {
        let ctx = gen_context(&mut seeded(case));
        let l = ConceptLattice::build(&ctx);
        // Every concept ≤ top, bottom ≤ every concept.
        for id in l.ids() {
            assert!(l.le(id, l.top()), "case {case}");
            assert!(l.le(l.bottom(), id), "case {case}");
        }
        // Subset lattice on extents == superset lattice on intents.
        for a in l.ids() {
            for b in l.ids() {
                let ext = l.concept(a).extent.is_subset(&l.concept(b).extent);
                let int = l.concept(b).intent.is_subset(&l.concept(a).intent);
                assert_eq!(ext, int, "case {case}");
            }
        }
    }
}

#[test]
fn similarity_is_antitone_on_lattice() {
    for case in 0..128u64 {
        let ctx = gen_context(&mut seeded(case));
        let l = ConceptLattice::build(&ctx);
        for id in l.ids() {
            for &child in l.children(id) {
                assert!(
                    l.concept(child).similarity() >= l.concept(id).similarity(),
                    "case {case}"
                );
            }
        }
    }
}

#[test]
fn meet_join_are_bounds() {
    for case in 0..128u64 {
        let ctx = gen_context(&mut seeded(case));
        let l = ConceptLattice::build(&ctx);
        let ids: Vec<_> = l.ids().collect();
        for &a in ids.iter().take(6) {
            for &b in ids.iter().take(6) {
                let m = l.meet(a, b);
                assert!(l.le(m, a) && l.le(m, b), "case {case}");
                let j = l.join(a, b);
                assert!(l.le(a, j) && l.le(b, j), "case {case}");
                // Meet is the greatest lower bound, join the least upper.
                for &c in &ids {
                    if l.le(c, a) && l.le(c, b) {
                        assert!(l.le(c, m), "case {case}");
                    }
                    if l.le(a, c) && l.le(b, c) {
                        assert!(l.le(j, c), "case {case}");
                    }
                }
            }
        }
    }
}

#[test]
fn bfs_reaches_every_concept() {
    for case in 0..128u64 {
        let ctx = gen_context(&mut seeded(case));
        let l = ConceptLattice::build(&ctx);
        let order = l.bfs_top_down();
        assert_eq!(order.len(), l.len(), "case {case}");
        let set: HashSet<_> = order.into_iter().collect();
        assert_eq!(set.len(), l.len(), "case {case}");
    }
}

/// Growing a lattice equals building it: each context is cut at seeded
/// points, its prefix built from scratch and the rest added in
/// `insert_objects` batches. The result must have the same concepts in
/// the same canonical order, with the same cover lists.
#[test]
fn incremental_insertion_matches_batch() {
    for case in 0..128u64 {
        let mut rng = seeded(case);
        let ctx = gen_context(&mut rng);
        let batch = ConceptLattice::build(&ctx);
        let n = ctx.object_count();
        let mut cuts: Vec<usize> = (0..3).map(|_| rng.gen_range(0..=n)).collect();
        cuts.sort_unstable();
        let prefix = Context::from_rows(
            (0..cuts[0]).map(|o| ctx.row(o).clone()).collect(),
            ctx.attribute_count(),
        );
        let mut grown = ConceptLattice::build(&prefix);
        for (i, &lo) in cuts.iter().enumerate() {
            let hi = cuts.get(i + 1).copied().unwrap_or(n);
            grown = grown.insert_objects((lo..hi).map(|o| (o, ctx.row(o))));
        }
        assert_eq!(grown.len(), batch.len(), "case {case} cuts {cuts:?}");
        for id in batch.ids() {
            assert_eq!(grown.concept(id), batch.concept(id), "case {case} {id}");
            assert_eq!(grown.children(id), batch.children(id), "case {case} {id}");
            assert_eq!(grown.parents(id), batch.parents(id), "case {case} {id}");
        }
    }
}

#[test]
fn extent_intersection_is_an_extent() {
    for case in 0..128u64 {
        let ctx = gen_context(&mut seeded(case));
        // The property `meet` relies on.
        let l = ConceptLattice::build(&ctx);
        let ids: Vec<_> = l.ids().collect();
        for &a in ids.iter().take(8) {
            for &b in ids.iter().take(8) {
                let inter = l.concept(a).extent.intersection(&l.concept(b).extent);
                assert!(l.find_by_extent(&inter).is_some(), "case {case}");
            }
        }
    }
}

/// A random context of 0–14 objects over 0–9 attributes, each cell set
/// with a probability drawn from 0.1–0.9.
fn gen_dense_context(rng: &mut SmallRng) -> Context {
    let n_objects = rng.gen_range(0usize..=14);
    let n_attrs = rng.gen_range(0usize..=9);
    let density = rng.gen_range(0.1..0.9);
    let rows: Vec<BitSet> = (0..n_objects)
        .map(|_| (0..n_attrs).filter(|_| rng.gen_bool(density)).collect())
        .collect();
    Context::from_rows(rows, n_attrs)
}

/// The neighbour rule finds the covers the all-pairs assembly finds,
/// list for list, on lattices built by Godin and by NextClosure.
#[test]
fn neighbour_covers_equal_the_all_pairs_assembly() {
    for case in 0..2_000u64 {
        let ctx = gen_dense_context(&mut seeded(case));
        for lattice in [
            ConceptLattice::build(&ctx),
            ConceptLattice::build_next_closure(&ctx),
        ] {
            reference::check_covers(&lattice, &ctx).unwrap_or_else(|e| panic!("case {case}: {e}"));
        }
    }
}

/// The same on session-shaped contexts of the sizes the lattice
/// benchmark builds; 100 attributes makes every intent row two words, so
/// Godin's run-time-width scan is checked as well as its one-word scan.
#[test]
fn neighbour_covers_equal_the_all_pairs_assembly_on_session_shapes() {
    for attributes in [32, 64, 100] {
        for objects in [100, 250, 400] {
            let ctx = common::session_shaped(52, objects, attributes);
            let lattice = ConceptLattice::build(&ctx);
            reference::check_covers(&lattice, &ctx)
                .unwrap_or_else(|e| panic!("{objects} x {attributes}: {e}"));
        }
    }
}
