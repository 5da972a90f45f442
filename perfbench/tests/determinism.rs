//! The same seed gives the same inputs: op streams, item orders and
//! contexts.

use cable_fca::ConceptLattice;
use perfbench::service::{EvictMix, Request, TenantScript};
use perfbench::{lattice, pipeline};

/// The first `n` requests of a tenant script: its create, then drill
/// ops (as if the server kept answering with one concept).
fn stream(seed: u64, index: u64, n: usize) -> Vec<Request> {
    let mut s = TenantScript::new(format!("t{index}"), seed, index);
    let mut out = vec![s.create()];
    out.extend((0..n).map(|_| s.next_op()));
    out
}

#[test]
fn tenant_op_streams_repeat_for_a_seed() {
    assert_eq!(stream(7, 3, 50), stream(7, 3, 50));
    assert_ne!(stream(7, 3, 50), stream(8, 3, 50));
    assert_ne!(stream(7, 3, 50), stream(7, 4, 50));
}

#[test]
fn evict_draws_repeat_for_a_seed() {
    let draws = |seed| {
        let mut mix = EvictMix::new(seed, 1, 32);
        (0..200).map(|_| mix.draw()).collect::<Vec<_>>()
    };
    assert_eq!(draws(5), draws(5));
    assert_ne!(draws(5), draws(6));
    let reads = draws(5).iter().filter(|(_, r)| r.is_some()).count();
    assert!((150..=190).contains(&reads), "≈85% reads, got {reads}/200");
}

#[test]
fn pipeline_items_and_held_out_draws_repeat_for_a_seed() {
    assert_eq!(pipeline::items(1, 17), pipeline::items(1, 17));
    assert_ne!(pipeline::items(1, 17), pipeline::items(2, 17));
    let sorted = |seed| {
        let mut v = pipeline::items(seed, 17);
        v.sort_unstable();
        v
    };
    assert_eq!(sorted(1), sorted(2), "same items, another order");

    let h = pipeline::held_out(3, 9, 40);
    assert_eq!(h, pipeline::held_out(3, 9, 40));
    assert_eq!(h.iter().filter(|&&x| x).count(), 8, "20% of 40 held out");
    assert_eq!(
        pipeline::held_out(3, 9, 1),
        vec![false],
        "a lone scenario stays in"
    );
}

#[test]
fn relabelled_contexts_repeat_and_keep_the_lattice_shape() {
    let base = lattice::context(52, 60, 16);
    let a = lattice::relabel(&base, 11);
    assert_eq!(a, lattice::relabel(&base, 11));
    let b = lattice::relabel(&base, 12);
    assert_ne!(a, b);
    let shape = |c| {
        let l = ConceptLattice::build(c);
        let edges: usize = l.ids().map(|id| l.children(id).len()).sum();
        (l.len(), edges)
    };
    assert_eq!(shape(&base), shape(&a));
    assert_eq!(shape(&a), shape(&b));
}
