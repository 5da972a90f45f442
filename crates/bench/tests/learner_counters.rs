//! The learner's span and work counters, asserted as exact deltas of
//! process-global obs state in a binary of their own, so no sibling test
//! mines while this one measures.

use cable_obs::Snapshot;

#[test]
fn prepare_records_one_learner_span_and_its_work_counts() {
    cable_obs::set_enabled(true);
    let registry = cable_specs::registry();
    let spec = registry.spec("RegionsBig").expect("known spec");
    let before = cable_obs::registry().snapshot();
    cable_bench::prepare(spec, 2003);
    let after = cable_obs::registry().snapshot();

    // `prepare` mines through the back end directly, not through
    // `Miner::mine`, so the back end's own span is the one that sees it.
    let samples = |s: &Snapshot| s.histogram("strauss.back.mine_ns").map_or(0, |h| h.count);
    assert_eq!(samples(&after) - samples(&before), 1);
    let delta = after.delta_since(&before);
    assert_eq!(delta.counter("learn.sk.merges"), Some(397));
    assert_eq!(delta.counter("learn.sk.subset_scans"), Some(19));
    assert_eq!(delta.counter("learn.sk.recomputed_states"), Some(13_591));
}
