//! Panic isolation at `cable-par` task boundaries: a panicking chunk —
//! genuine or injected — poisons its job, stops its siblings, and
//! surfaces as a structured error at the `cable_guard::contain`
//! boundary, with the pool (and process) fully serviceable afterwards.
//!
//! These tests install process-global fault planes and read the global
//! `par.task_panics` counter, so they live in their own integration
//! binary and serialise on a local mutex: any `par_map` running in the
//! same process while a `panic@par.task` rule is armed could draw the
//! firing hit.

use cable_guard::{faults, GuardError, Limit};
use cable_par::Pool;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// The tentpole acceptance criterion: an injected panic in any worker
/// surfaces as a structured error on the caller, and the same process
/// then runs a clean pipeline successfully.
#[test]
fn injected_panic_surfaces_as_structured_error_and_process_keeps_serving() {
    let _l = lock();
    let pool = Pool::new(4);
    let items: Vec<u64> = (0..512).collect();

    faults::install("7:panic@par.task#2").unwrap();
    let result = cable_guard::contain(|| pool.par_map("test.faulty", &items, |&x| x * 2));
    faults::uninstall();

    match result {
        Err(GuardError::TaskPanic { message }) => {
            assert!(message.contains("injected fault"), "{message}");
            assert!(message.contains("panic@par.task"), "{message}");
        }
        other => panic!("expected a contained task panic, got {other:?}"),
    }

    // The pool survives: a subsequent clean pipeline on the very same
    // pool returns complete, correct results.
    let clean = pool.par_map("test.clean", &items, |&x| x * 2);
    assert_eq!(clean, items.iter().map(|&x| x * 2).collect::<Vec<u64>>());
}

/// A genuine chunk panic is counted under `par.task_panics`; tunnelled
/// guard payloads (budget trips) are not.
#[test]
fn task_panic_counter_counts_genuine_panics_only() {
    let _l = lock();
    let pool = Pool::new(2);
    let before = cable_obs::registry().snapshot();

    // Two items, two chunks: the job path, where the task boundary is.
    let result = cable_guard::contain(|| {
        pool.par_map("test.genuine", &[0u64, 1], |&x| {
            if x == 0 {
                panic!("genuine failure");
            }
        })
    });
    assert_eq!(
        result,
        Err(GuardError::TaskPanic {
            message: "genuine failure".to_owned()
        })
    );

    let tripped = GuardError::BudgetExceeded {
        limit: Limit::Injected,
        site: "test.bail".to_owned(),
    };
    let result = cable_guard::contain(|| {
        pool.par_map("test.tunnelled", &[0u64, 1], |&x| {
            if x == 0 {
                cable_guard::bail(tripped.clone());
            }
        })
    });
    assert_eq!(result, Err(tripped));

    let delta = cable_obs::registry().snapshot().delta_since(&before);
    assert_eq!(delta.counter("par.task_panics"), Some(1));
}

/// A panicking chunk poisons its job: queued siblings are skipped and
/// running ones stop before their next item, so the job winds down
/// promptly instead of finishing a doomed fan-out.
#[test]
fn poisoned_job_skips_queued_chunks() {
    let _l = lock();
    // Two logical threads: the caller and one worker. 65 items make 33
    // chunks of two, so item 1 shares the failing chunk and the other
    // 63 items sit in 32 sibling chunks.
    let pool = Pool::new(2);
    let ran = AtomicUsize::new(0);
    let items: Vec<usize> = (0..65).collect();
    let panics = cable_obs::registry().counter("par.task_panics");
    let before = panics.get();
    let result = cable_guard::contain(|| {
        pool.par_map("test.poisoned", &items, |&i| {
            if i == 0 {
                panic!("first item fails");
            }
            ran.fetch_add(1, Ordering::Relaxed);
            // Hold every sibling until the failing chunk has poisoned
            // the job (the pool counts the panic right after). So at
            // most the one sibling chunk the other thread claimed before
            // the poison runs, whatever the timing. The deadline turns a
            // pool that never counts the panic into a failure rather
            // than a hang.
            let deadline = Instant::now() + Duration::from_secs(10);
            while panics.get() == before && Instant::now() < deadline {
                std::thread::yield_now();
            }
        })
    });
    assert!(matches!(result, Err(GuardError::TaskPanic { .. })));
    let ran = ran.load(Ordering::Relaxed);
    assert!(ran <= 2, "poisoned job ran {ran} queued items");
}
