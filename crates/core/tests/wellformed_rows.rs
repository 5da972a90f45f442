//! The §4.3 row check against the lattice walk it replaced: on random
//! contexts, `first_clash` finds no clash exactly when
//! `ill_formed_concepts` is empty, and any clash it finds is a pair of
//! objects with equal rows and different labels whose shared concept
//! (the one whose intent is that row) the walk marks ill-formed.
//!
//! 20,000 seeded contexts of 1–12 objects, 1–6 attributes and 1–3
//! labels; `seeded(case)` pins each one, so a failure reproduces
//! exactly.

use cable_core::wellformed::{first_clash, ill_formed_concepts, is_well_formed};
use cable_fca::{ConceptLattice, Context};
use cable_util::rng::{seeded, Rng};

#[test]
fn the_row_check_agrees_with_the_lattice_walk() {
    let mut ill_formed = 0;
    for case in 0..20_000u64 {
        let mut rng = seeded(case);
        let objects = rng.gen_range(1usize..=12);
        let attributes = rng.gen_range(1usize..=6);
        let kinds = rng.gen_range(1usize..=3);
        // Sparse and dense contexts alike: dense rows collide often.
        let density = rng.gen_range(0.1..0.9);
        let mut ctx = Context::new(objects, attributes);
        for o in 0..objects {
            for a in 0..attributes {
                if rng.gen_bool(density) {
                    ctx.add(o, a);
                }
            }
        }
        let labels: Vec<usize> = (0..objects).map(|_| rng.gen_range(0..kinds)).collect();
        let rows: Vec<_> = (0..objects).map(|o| ctx.row(o).clone()).collect();
        let why = || format!("case {case}: rows {rows:?}, labels {labels:?}");

        let lattice = ConceptLattice::build(&ctx);
        let ill = ill_formed_concepts(&lattice, |o| labels[o]);
        let clash = first_clash(&rows, |o| labels[o]);
        assert_eq!(clash.is_none(), ill.is_empty(), "{}", why());
        assert_eq!(
            is_well_formed(&ctx, |o| labels[o]),
            ill.is_empty(),
            "{}",
            why()
        );
        if let Some((a, b)) = clash {
            ill_formed += 1;
            assert!(a < b, "{}: pair ({a}, {b})", why());
            assert_eq!(rows[a], rows[b], "{}: pair ({a}, {b})", why());
            assert_ne!(labels[a], labels[b], "{}: pair ({a}, {b})", why());
            let shared = lattice
                .find_by_intent(&rows[a])
                .unwrap_or_else(|| panic!("{}: row {a} is no intent", why()));
            assert!(
                ill.contains(shared.index()),
                "{}: pair ({a}, {b}) shares {shared}, not in {ill:?}",
                why()
            );
        }
    }
    // Both verdicts are exercised, not only the easy one.
    assert!(
        (2_000..18_000).contains(&ill_formed),
        "{ill_formed} ill-formed"
    );
}
