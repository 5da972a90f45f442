//! Caller isolation: a thread waiting on its own `par_map` runs only its
//! own job's chunks, never a chunk another caller published.
//!
//! The setup leaves a foreign chunk queued beside a waiting caller
//! without relying on timing. A foreign thread maps three items (three
//! chunks) on a two-thread pool, and its first two items to start block:
//! one on the foreign caller, one on the pool's only worker. So the
//! third is still unclaimed while the test thread maps its own items.

use cable_par::Pool;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::thread::{self, ThreadId};

#[test]
fn a_waiting_caller_runs_no_foreign_chunk() {
    let pool = Pool::new(2);
    let me = thread::current().id();
    for iteration in 0..20 {
        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel();
        let release_rx = Mutex::new(release_rx);
        let starts = AtomicUsize::new(0);
        let foreign_ran_on: Mutex<Vec<ThreadId>> = Mutex::new(Vec::new());
        thread::scope(|s| {
            s.spawn(|| {
                pool.par_map("isolation.foreign", &[0u8, 1, 2], |_| {
                    foreign_ran_on.lock().unwrap().push(thread::current().id());
                    if starts.fetch_add(1, Ordering::SeqCst) < 2 {
                        started_tx.send(()).unwrap();
                        release_rx.lock().unwrap().recv().unwrap();
                    }
                });
            });
            // The foreign caller and the worker are both blocked inside
            // foreign items, and the third foreign chunk is queued.
            started_rx.recv().unwrap();
            started_rx.recv().unwrap();
            assert_eq!(
                pool.par_map("isolation.own", &[10u8, 20], |&x| x + 1),
                vec![11, 21]
            );
            release_tx.send(()).unwrap();
            release_tx.send(()).unwrap();
        });
        let ran_on = foreign_ran_on.into_inner().unwrap();
        assert_eq!(ran_on.len(), 3, "iteration {iteration}");
        assert!(
            !ran_on.contains(&me),
            "iteration {iteration}: the waiting caller ran a foreign chunk"
        );
    }
}
