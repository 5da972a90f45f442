//! Span ids stay unique inside a request that builds a lattice on a
//! multi-thread pool. This binary sizes the global pool and turns
//! observation on, so it holds this one test and runs in its own
//! process.

use cable_fca::{ConceptLattice, Context};
use cable_obs::context::{self, TraceCtx};
use cable_util::rng::Rng;
use std::collections::BTreeSet;

#[test]
fn lattice_build_on_a_two_thread_pool_mints_unique_span_ids() {
    assert!(cable_par::configure(2), "the global pool already exists");
    cable_obs::set_enabled(true);
    let mut rng = cable_util::rng::seeded(5);
    let mut ctx = Context::new(100, 9);
    for o in 0..100 {
        for a in 0..9 {
            if rng.gen_bool(0.3) {
                ctx.add(o, a);
            }
        }
    }
    let guard = context::begin_request(TraceCtx::mint(5, 1), "test.request", 0);
    let lattice = ConceptLattice::build(&ctx);
    let trace = guard.finish();
    assert!(lattice.len() > 1);
    let ids: BTreeSet<u64> = trace.spans.iter().map(|s| s.span).collect();
    assert_eq!(
        ids.len(),
        trace.spans.len(),
        "duplicate span ids among {} spans",
        trace.spans.len()
    );
}
