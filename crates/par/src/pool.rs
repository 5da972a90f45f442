//! The pool: worker threads, one list of open jobs, and the deterministic
//! `par_map` combinators.
//!
//! A multi-chunk `par_map` publishes one **job**. Its chunks are claimed
//! from an atomic cursor, so each chunk runs on exactly one thread. The
//! calling thread claims and runs its own job's chunks until none is left
//! unclaimed, then waits for the chunks other threads claimed. Idle
//! workers take chunks from the oldest open job that has any left. The
//! pipeline's chunks are coarse (a whole trace sweep, a whole
//! specification), so one mutex over the job list is noise, and
//! `std`-only is a workspace policy.
//!
//! **Isolation.** A waiting caller never runs another job's chunk: it
//! claims only from its own cursor, and once that is exhausted it blocks.
//! So a stage's span and histogram time that stage's work and nothing
//! else, and a caller returns as soon as its own job is done.
//!
//! **Deadlock freedom.** A caller waits only for chunks that other
//! threads have already claimed, and a claimed chunk runs to completion
//! on the thread that claimed it. If that chunk opens a nested `par_map`,
//! its thread becomes the nested job's caller, which again runs every
//! unclaimed chunk itself and waits only on claimed ones. By induction on
//! nesting depth (a chunk with no nested `par_map` ends when its closure
//! returns), every wait ends, however many workers are idle — none
//! included.

use cable_obs::{context, CounterHandle, HistogramHandle, Span};
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

/// Chunks published as pool jobs (the sequential path publishes none).
static TASKS: CounterHandle = CounterHandle::new("par.tasks");
/// Genuine chunk panics contained at the task boundary (guard unwinds —
/// budget trips tunnelled out of closures — are not panics and are not
/// counted here).
static TASK_PANICS: CounterHandle = CounterHandle::new("par.task_panics");
/// Time idle workers spend parked on the condvar, microseconds. The
/// contention families on `/metrics` read this against `wait.slots.us`
/// and friends: high park time with low queue wait means the pool is
/// starved for work, not stuck on locks.
static WAIT_PARK: HistogramHandle = HistogramHandle::new("wait.park.us");

/// One multi-chunk `par_map` in flight.
///
/// The atomics are `Relaxed` because they publish no data: a claim is
/// one atomic read-modify-write, the job's inputs reach workers through
/// the `Shared::state` mutex, and chunk results and panics reach the
/// caller through mutexes (`finished`, `panic`, the result slots). A
/// chunk that reads `poisoned` late only runs items whose results are
/// discarded.
struct Job {
    /// The next unclaimed chunk index.
    cursor: AtomicUsize,
    chunks: usize,
    /// Claimed chunks that are done (run, skipped or panicked).
    finished: Mutex<usize>,
    /// Signalled when `finished` reaches `chunks`.
    done: Condvar,
    /// Set when a chunk panics (or bails on a guard error): the job's
    /// outcome is decided, so chunks claimed after that are skipped and
    /// running ones stop before their next item.
    poisoned: AtomicBool,
    /// The first chunk panic, re-raised on the caller.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Runs one chunk by index, given the job's poison flag. Borrows the
    /// caller's stack frame; see the SAFETY note in [`Pool::run_job`].
    run: &'static (dyn Fn(usize, &AtomicBool) + Sync),
}

impl Job {
    fn has_unclaimed(&self) -> bool {
        self.cursor.load(Ordering::Relaxed) < self.chunks
    }

    /// Claims the next chunk and runs it behind a `catch_unwind` boundary
    /// and the `panic@par.task` fault point. Returns `false`, touching
    /// nothing, once every chunk is claimed.
    fn run_next(&self) -> bool {
        let claim = self
            .cursor
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |c| {
                (c < self.chunks).then_some(c + 1)
            });
        let Ok(index) = claim else {
            return false;
        };
        if !self.poisoned.load(Ordering::Relaxed) {
            let result = catch_unwind(AssertUnwindSafe(|| {
                cable_guard::faults::maybe_panic("par.task");
                (self.run)(index, &self.poisoned)
            }));
            if let Err(p) = result {
                self.poisoned.store(true, Ordering::Relaxed);
                if !cable_guard::is_guard_payload(&*p) {
                    TASK_PANICS.get().incr();
                    cable_obs::recorder::instant("par.task_panic");
                }
                self.panic
                    .lock()
                    .expect("par job poisoned")
                    .get_or_insert(p);
            }
        }
        let mut finished = self.finished.lock().expect("par job poisoned");
        *finished += 1;
        if *finished == self.chunks {
            self.done.notify_all();
        }
        true
    }
}

struct Shared {
    state: Mutex<State>,
    /// Signalled when a job is published or the pool shuts down.
    work: Condvar,
    threads: usize,
}

#[derive(Default)]
struct State {
    /// Open jobs, oldest first. A caller retires its job once every
    /// chunk is claimed.
    jobs: Vec<Arc<Job>>,
    shutdown: bool,
}

impl Shared {
    fn state(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("par state poisoned")
    }
}

fn worker_loop(shared: &Shared) {
    // Give this worker a recorder lane up front (labelled by the thread
    // name, `cable-par-{index}`), so traces show every worker even if it
    // never wins a chunk.
    cable_obs::recorder::instant("par.worker.start");
    // Park instants mark the busy→idle edge only.
    let mut was_busy = false;
    let mut state = shared.state();
    loop {
        if state.shutdown {
            return;
        }
        if let Some(job) = state.jobs.iter().find(|j| j.has_unclaimed()).cloned() {
            drop(state);
            while job.run_next() {}
            was_busy = true;
            state = shared.state();
            continue;
        }
        if std::mem::take(&mut was_busy) {
            cable_obs::recorder::instant("par.park");
        }
        let park_start = cable_obs::enabled().then(Instant::now);
        state = shared.work.wait(state).expect("par state poisoned");
        if let Some(start) = park_start {
            WAIT_PARK.get().record(start.elapsed().as_micros() as u64);
        }
    }
}

/// A thread pool whose callers run their own jobs. The workspace normally
/// uses the global pool through the crate-level free functions; tests
/// construct local pools of fixed sizes.
pub struct Pool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Pool {
    /// Creates a pool that runs chunks on `threads` logical threads:
    /// `threads - 1` workers plus the calling thread, which runs its own
    /// job's chunks. `threads <= 1` spawns no workers at all and every
    /// map takes its sequential path.
    pub fn new(threads: usize) -> Pool {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::default(),
            work: Condvar::new(),
            threads,
        });
        let workers = (0..threads - 1)
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("cable-par-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawning pool worker")
            })
            .collect();
        Pool { shared, workers }
    }

    /// The logical thread count (workers plus the calling thread).
    pub fn threads(&self) -> usize {
        self.shared.threads
    }

    /// Maps `f` over `items`, returning results in input index order for
    /// any worker count or schedule. With one thread (or one chunk) this
    /// is a plain sequential map producing bit-identical values.
    ///
    /// **Panic isolation.** On the parallel path a panicking chunk
    /// *poisons* its job: chunks that have not started yet are skipped,
    /// and running ones stop before their next item. The poison is the
    /// job's own; other jobs and other threads never see it. The first
    /// payload is re-raised here on the calling thread once every chunk
    /// has wound down — callers that need a structured error instead of
    /// an unwind wrap the pipeline in [`cable_guard::contain`], which
    /// maps genuine panics to `GuardError::TaskPanic` and tunnelled
    /// guard payloads back to their typed errors. The pool itself always
    /// survives.
    pub fn par_map<T, U, F>(&self, label: &'static str, items: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(&T) -> U + Sync,
    {
        self.par_map_indexed(label, items, |_, item| f(item))
    }

    /// Like [`Pool::par_map`], passing each item's index too.
    ///
    /// Splits `items` into at most 64 chunks whose boundaries depend only
    /// on `items.len()`, runs them — in order on one thread, as one job
    /// otherwise — and records per-stage busy/wall histograms while
    /// observation is enabled.
    pub fn par_map_indexed<T, U, F>(&self, label: &'static str, items: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(usize, &T) -> U + Sync,
    {
        let n = items.len();
        if n == 0 {
            return Vec::new();
        }
        let observe = cable_obs::enabled();
        let wall_start = observe.then(Instant::now);
        let busy = observe.then(|| busy_handle(label));
        let chunk = crate::chunk_size(n);
        let chunks = n.div_ceil(chunk);
        // Capture the caller's trace context once; every chunk adopts it
        // with `CHUNK_TAG | chunk_index`. Chunk boundaries depend only on
        // the item count, so every schedule mints *identical* span ids —
        // the determinism gate compares them.
        let trace = context::capture();
        let slots: Vec<Mutex<Vec<U>>> = (0..chunks).map(|_| Mutex::default()).collect();
        let run = |index: usize, poisoned: &AtomicBool| {
            let start = index * chunk;
            let slice = &items[start..(start + chunk).min(n)];
            let _adopt = trace
                .as_ref()
                .map(|t| t.adopt(context::CHUNK_TAG | index as u64));
            let values = {
                let _span = busy.map(|busy| Span::enter(label, busy));
                let mut values = Vec::with_capacity(slice.len());
                for (k, item) in slice.iter().enumerate() {
                    // A poisoned job re-raises its first panic, so the
                    // rest of this chunk would never be read.
                    if poisoned.load(Ordering::Relaxed) {
                        break;
                    }
                    values.push(f(start + k, item));
                }
                values
            };
            *slots[index].lock().expect("par results poisoned") = values;
        };
        if self.threads() <= 1 || chunks == 1 {
            // No job: a panic unwinds straight out, nothing is poisoned.
            let unpoisoned = AtomicBool::new(false);
            (0..chunks).for_each(|index| run(index, &unpoisoned));
        } else {
            self.run_job(chunks, &run);
        }
        // One wall-time sample and one wide event per stage execution
        // while observation is on; the off path never builds the event.
        if let Some(start) = wall_start {
            let wall = start.elapsed();
            cable_obs::registry()
                .histogram(&format!("par.stage.{label}.wall_ns"))
                .record_duration(wall);
            cable_obs::events::emit(
                cable_obs::WideEvent::new("par_stage", "par")
                    .stage(label)
                    .field("items", n as u64)
                    .field("chunks", chunks as u64)
                    .field("threads", self.threads() as u64)
                    .duration(wall),
            );
        }
        let mut out = Vec::with_capacity(n);
        for slot in slots {
            out.extend(slot.into_inner().expect("par results poisoned"));
        }
        out
    }

    /// Runs chunks `0..chunks` of `run` as one job: publishes it, runs
    /// its unclaimed chunks on this thread, then waits for the chunks
    /// other threads claimed. The first chunk panic is re-raised here
    /// once every chunk is done.
    fn run_job(&self, chunks: usize, run: &(dyn Fn(usize, &AtomicBool) + Sync)) {
        // SAFETY: the job outlives this frame (workers hold `Arc`s), so
        // it needs a `'static` closure. `Job::run` is called only on a
        // claimed chunk index, and this function returns only after
        // `finished == chunks`, i.e. after every claim has run: chunk
        // panics are caught inside `run_next`, and nothing else between
        // a claim and its `finished` count unwinds. Once every chunk is
        // claimed, `run_next` on a stale `Arc<Job>` returns without
        // touching `run`, so no borrow in `run` outlives its use.
        let run: &'static (dyn Fn(usize, &AtomicBool) + Sync) = unsafe { std::mem::transmute(run) };
        let job = Arc::new(Job {
            cursor: AtomicUsize::new(0),
            chunks,
            finished: Mutex::new(0),
            done: Condvar::new(),
            poisoned: AtomicBool::new(false),
            panic: Mutex::new(None),
            run,
        });
        TASKS.get().add(chunks as u64);
        self.shared.state().jobs.push(job.clone());
        self.shared.work.notify_all();
        while job.run_next() {}
        // Every chunk is claimed: retire the job, then wait only for the
        // chunks other threads are still running.
        self.shared.state().jobs.retain(|j| !Arc::ptr_eq(j, &job));
        let mut finished = job.finished.lock().expect("par job poisoned");
        while *finished < chunks {
            finished = job.done.wait(finished).expect("par job poisoned");
        }
        drop(finished);
        let panic = job.panic.lock().expect("par job poisoned").take();
        if let Some(p) = panic {
            resume_unwind(p);
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        // No panic in drop: every update to `State` leaves it valid, so a
        // poisoned lock's guard is still sound to use.
        self.shared
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .shutdown = true;
        self.shared.work.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The `par.stage.<label>.busy_ns` handle chunk spans record into.
/// Stage labels are `&'static str`s from a fixed set of call sites, so
/// each label's handle is made (and leaked) once.
fn busy_handle(label: &'static str) -> &'static HistogramHandle {
    static HANDLES: Mutex<Vec<(&'static str, &'static HistogramHandle)>> = Mutex::new(Vec::new());
    let mut handles = HANDLES.lock().expect("par busy handles poisoned");
    if let Some(&(_, handle)) = handles.iter().find(|(l, _)| *l == label) {
        return handle;
    }
    let name = format!("par.stage.{label}.busy_ns").leak();
    let handle: &'static HistogramHandle = Box::leak(Box::new(HistogramHandle::new(name)));
    handles.push((label, handle));
    handle
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_pool_runs_inline() {
        let pool = Pool::new(1);
        assert_eq!(pool.threads(), 1);
        let items: Vec<u64> = (0..100).collect();
        assert_eq!(
            pool.par_map("test.seq", &items, |&x| x + 1),
            (1..=100).collect::<Vec<u64>>()
        );
    }

    #[test]
    fn par_map_runs_every_item() {
        let pool = Pool::new(4);
        let counter = AtomicUsize::new(0);
        let items: Vec<usize> = (0..64).collect();
        pool.par_map("test.count", &items, |_| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn chunk_panics_propagate() {
        let pool = Pool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.par_map("test.panic", &[0u64, 1], |&x| {
                if x == 0 {
                    panic!("chunk failure");
                }
            });
        }));
        assert!(result.is_err());
        // The pool survives the panic.
        assert_eq!(pool.par_map("test.alive", &[1u64, 2], |&x| x), vec![1, 2]);
    }

    #[test]
    fn nested_par_maps_do_not_deadlock() {
        let pool = Pool::new(2);
        let total = AtomicUsize::new(0);
        let outer: Vec<usize> = (0..8).collect();
        let inner: Vec<usize> = (0..8).collect();
        pool.par_map("test.outer", &outer, |_| {
            pool.par_map("test.inner", &inner, |_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 64);
    }
}
