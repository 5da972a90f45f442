//! The pipeline's span and work counters, asserted as exact deltas of
//! process-global obs state in a binary of their own, so no sibling
//! test mines or builds a session while one of these measures. Each
//! test holds [`serial`] for its whole body.

use cable_obs::Snapshot;
use std::sync::{Mutex, MutexGuard};

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn prepare_records_one_learner_span_and_its_work_counts() {
    let _serial = serial();
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

/// `prepare` judges each candidate reference FA on its context rows and
/// builds a session only for the one it keeps. RegionsBig tries seven
/// candidates at seed 2003.
#[test]
fn prepare_builds_one_session() {
    let _serial = serial();
    cable_obs::set_enabled(true);
    let registry = cable_specs::registry();
    let spec = registry.spec("RegionsBig").expect("known spec");
    let before = cable_obs::registry().snapshot();
    let p = cable_bench::prepare(spec, 2003);
    let delta = cable_obs::registry().snapshot().delta_since(&before);
    assert_eq!(delta.counter("core.session.built"), Some(1));
    assert_eq!(p.reference.name(), "seed-order(XDestroyRegion)");
}
