//! A chunk panic stops its own job and nothing else: while one thread's
//! poisoned job is still open, a checkpoint on another thread passes.
//!
//! The test waits on the global `par.task_panics` counter, so it lives
//! in its own integration binary.

use cable_guard::GuardError;
use cable_par::Pool;
use std::sync::mpsc;
use std::sync::Mutex;
use std::time::{Duration, Instant};

#[test]
fn a_poisoned_job_does_not_trip_checkpoints_on_other_threads() {
    let pool = Pool::new(2);
    let panics = cable_obs::registry().counter("par.task_panics");
    let before = panics.get();
    let (signal_tx, signal_rx) = mpsc::channel::<()>();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    // Both items share one closure, and receivers are not `Sync`.
    let (signal_rx, release_rx) = (Mutex::new(signal_rx), Mutex::new(release_rx));
    let bystander_errors = std::thread::scope(|s| {
        let job = s.spawn(|| {
            cable_guard::contain(|| {
                pool.par_map("test.cancel_scope", &[0u64, 1], |&item| {
                    if item == 1 {
                        // Tell item 0 to fail, then keep the job open.
                        signal_tx.send(()).unwrap();
                        release_rx.lock().unwrap().recv().unwrap();
                    } else {
                        signal_rx.lock().unwrap().recv().unwrap();
                        panic!("item 0 fails");
                    }
                })
            })
        });
        let deadline = Instant::now() + Duration::from_secs(10);
        while panics.get() == before {
            assert!(Instant::now() < deadline, "item 0 never panicked");
            std::thread::yield_now();
        }
        // The job is poisoned and still open: item 1 is blocked.
        let mut errors = Vec::new();
        let until = Instant::now() + Duration::from_millis(200);
        while Instant::now() < until {
            if let Err(e) = cable_guard::checkpoint("test.bystander") {
                errors.push(e);
            }
        }
        release_tx.send(()).unwrap();
        let result = job.join().unwrap();
        assert_eq!(
            result,
            Err(GuardError::TaskPanic {
                message: "item 0 fails".to_owned()
            })
        );
        errors
    });
    assert!(
        bystander_errors.is_empty(),
        "{} of the bystander's checkpoints failed, first: {:?}",
        bystander_errors.len(),
        bystander_errors.first()
    );
}
