//! Benchmarks for Table 2 and the §5.2 scaling claim: concept-lattice
//! construction cost (Godin's incremental algorithm vs NextClosure).
//!
//! The `animals/godin` case doubles as the observability overhead check:
//! it is run once with spans disabled and once with `CABLE_OBS`-style
//! timing enabled, and the two medians are printed side by side.

use cable_bench::harness::Group;
use cable_bench::prepare;
use cable_fca::{ConceptLattice, Context};
use cable_util::rng::Rng;
use std::hint::black_box;

/// The Figure 9 animals context.
fn animals() -> Context {
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
    ctx
}

/// A synthetic context shaped like the real scenario data: `n_attrs`
/// attributes, 150 objects, at most 8 attributes per object.
fn synthetic(n_attrs: usize) -> Context {
    let mut rng = cable_util::rng::seeded(n_attrs as u64);
    let mut ctx = Context::new(150, n_attrs);
    for o in 0..150 {
        let k = rng.gen_range(2..=8usize.min(n_attrs));
        let base = rng.gen_range(0..n_attrs);
        for i in 0..k {
            ctx.add(o, (base + i * i + rng.gen_range(0..3usize)) % n_attrs);
        }
    }
    ctx
}

fn bench_algorithms() {
    let mut group = Group::new("lattice/animals");
    let ctx = animals();
    group.bench("godin", || {
        black_box(ConceptLattice::build(black_box(&ctx)));
    });
    group.bench("next_closure", || {
        black_box(ConceptLattice::build_next_closure(black_box(&ctx)));
    });
    group.finish();
}

fn bench_scaling() {
    let mut group = Group::new("lattice/scaling");
    for n_attrs in [8usize, 16, 24, 32] {
        let ctx = synthetic(n_attrs);
        group.bench(&format!("godin/{n_attrs}"), || {
            black_box(ConceptLattice::build(black_box(&ctx)));
        });
    }
    group.finish();
}

fn bench_spec_contexts() {
    let mut group = Group::new("lattice/table2");
    let registry = cable_specs::registry();
    for name in ["FilePair", "XtFree", "RegionsBig"] {
        let spec = registry.spec(name).expect("known spec");
        let prepared = prepare(spec, 2003);
        let ctx = prepared.session.context().clone();
        group.bench(&format!("godin/{name}"), || {
            black_box(ConceptLattice::build(black_box(&ctx)));
        });
    }
    group.finish();
}

/// The observability overhead check: lattice construction with
/// observation on (span timing, the flight recorder, request traces and
/// wide events all sit behind the one switch) must stay within a few
/// percent of the disabled cost — counters are always on, so this
/// isolates the span cost. The `obs-events` case adds the per-build
/// accounting a stored session does through static handles, and must
/// also stay within noise of obs-off.
fn bench_obs_overhead() {
    static BUILDS: cable_obs::CounterHandle = cable_obs::CounterHandle::new("bench.lattice.builds");
    static BUILD_NS: cable_obs::HistogramHandle =
        cable_obs::HistogramHandle::new("bench.lattice.build_ns");
    let mut group = Group::new("lattice/obs-overhead");
    let ctx = synthetic(24);
    cable_obs::set_enabled(false);
    let off = group.bench("godin/obs-off", || {
        black_box(ConceptLattice::build(black_box(&ctx)));
    });
    cable_obs::set_enabled(true);
    let on = group.bench("godin/obs-on", || {
        black_box(ConceptLattice::build(black_box(&ctx)));
    });
    let events = group.bench("godin/obs-events", || {
        let started = std::time::Instant::now();
        black_box(ConceptLattice::build(black_box(&ctx)));
        BUILDS.get().incr();
        BUILD_NS.get().record_duration(started.elapsed());
    });
    cable_obs::set_enabled(false);
    cable_obs::recorder::clear();
    println!(
        "  overhead: spans {:+.2}%, spans+events {:+.2}% (medians vs obs-off)",
        (on.median_ns / off.median_ns - 1.0) * 100.0,
        (events.median_ns / off.median_ns - 1.0) * 100.0
    );
    group.finish();
}

/// The guard acceptance check: the budget-aware build (`try_build`,
/// which threads a checkpoint through every Godin insertion) with **no
/// budget installed** must stay within 5% of the plain build — the
/// uninstalled fast path is one thread-local read plus one relaxed
/// atomic load per checkpoint, and one thread-local read per concept
/// check. For scale, the same build is also timed under an ample budget
/// installed on the bench thread that never trips (the full slow-path
/// evaluation cost).
fn bench_guard_overhead() {
    let mut group = Group::new("lattice/guard-overhead");
    let ctx = synthetic(24);
    // Compare the two Godin entry points head-to-head so the
    // measurement is exactly "Godin with checkpoints" vs "Godin without".
    let plain = group.bench("godin/guard-off", || {
        black_box(cable_fca::godin::concepts(black_box(&ctx)));
    });
    let checkpointed = group.bench("godin/guard-checkpoints", || {
        black_box(cable_fca::godin::try_concepts(black_box(&ctx)).expect("no budget installed"));
    });
    let ample = cable_guard::Budget {
        max_concepts: Some(u64::MAX),
        ..Default::default()
    }
    .install();
    let budgeted = group.bench("godin/guard-budgeted", || {
        black_box(
            cable_fca::godin::try_concepts(black_box(&ctx)).expect("ample budget never trips"),
        );
    });
    drop(ample);
    println!(
        "  overhead: checkpoints {:+.2}%, active budget {:+.2}% (medians vs guard-off)",
        (checkpointed.median_ns / plain.median_ns - 1.0) * 100.0,
        (budgeted.median_ns / plain.median_ns - 1.0) * 100.0
    );
    group.finish();
}

fn main() {
    bench_algorithms();
    bench_scaling();
    bench_spec_contexts();
    bench_obs_overhead();
    bench_guard_overhead();
}
