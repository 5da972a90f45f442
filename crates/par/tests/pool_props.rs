//! Loom-style stress tests without loom: seeded loops with randomized
//! sleep jitter perturb the schedule across pool sizes, and the
//! determinism invariants must hold on every iteration.

use cable_par::Pool;
use cable_util::rng::{seeded, Rng};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// Sleeps 0–200µs, drawn from the given RNG stream — enough jitter to
/// shuffle unit completion order on every pool size.
fn jitter<R: Rng>(rng: &mut R) {
    let us = rng.gen_range(0u64..200);
    if us > 0 {
        std::thread::sleep(Duration::from_micros(us));
    }
}

#[test]
fn par_map_is_index_ordered_under_jitter() {
    let pools = [Pool::new(1), Pool::new(2), Pool::new(8)];
    let mut seed_rng = seeded(0xC0FFEE);
    for iteration in 0u64..12 {
        let n = 1 + (iteration as usize * 37) % 300;
        let items: Vec<u64> = (0..n as u64).collect();
        let expected: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        for pool in &pools {
            let jitter_seed = seed_rng.gen::<u64>();
            let out = pool.par_map("stress.map", &items, |&x| {
                // Per-unit jitter stream: deterministic seed, but the
                // resulting schedule varies with the worker count.
                let mut rng = seeded(jitter_seed ^ x);
                jitter(&mut rng);
                x * x + 1
            });
            assert_eq!(
                out,
                expected,
                "iteration {iteration}, {} threads, n = {n}",
                pool.threads()
            );
        }
    }
}

#[test]
fn every_item_runs_once_despite_jitter() {
    let pool = Pool::new(8);
    let mut rng = seeded(7);
    for _ in 0..6 {
        let counter = AtomicUsize::new(0);
        let units = rng.gen_range(1usize..128);
        let jitter_seed = rng.gen::<u64>();
        let items: Vec<u64> = (0..units as u64).collect();
        pool.par_map("stress.count", &items, |&u| {
            let mut rng = seeded(jitter_seed ^ u);
            jitter(&mut rng);
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), units);
    }
}

#[test]
fn nested_par_map_inside_par_map_stays_ordered() {
    // The table2 shape: an outer fan-out whose chunks run inner parallel
    // stages on the same pool. A chunk that opens a nested map is that
    // job's caller, which keeps this both deadlock-free and
    // deterministic.
    let pool = Pool::new(4);
    let outer: Vec<u64> = (0..20).collect();
    let result = pool.par_map("stress.outer", &outer, |&o| {
        let inner: Vec<u64> = (0..30).map(|i| o * 100 + i).collect();
        pool.par_map("stress.inner", &inner, |&x| x * 2)
            .into_iter()
            .sum::<u64>()
    });
    let expected: Vec<u64> = outer
        .iter()
        .map(|&o| (0..30).map(|i| (o * 100 + i) * 2).sum())
        .collect();
    assert_eq!(result, expected);
}

#[test]
fn global_pool_tracks_task_counters() {
    let before = cable_obs::registry().snapshot();
    let items: Vec<u64> = (0..200).collect();
    let _ = cable_par::par_map("stress.counted", &items, |&x| x + 1);
    let delta = cable_obs::registry().snapshot().delta_since(&before);
    // With a single-thread global pool the sequential path publishes no
    // job; otherwise each chunk is one task. Either way the counter is
    // consistent with the pool size.
    let tasks = delta.counter("par.tasks").unwrap_or(0);
    if cable_par::threads() > 1 {
        assert!(tasks >= 1, "chunks should be published as tasks");
    } else {
        assert_eq!(tasks, 0, "sequential path publishes nothing");
    }
}
