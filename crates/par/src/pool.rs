//! The work-stealing pool: per-worker deques, a global injector, scoped
//! spawns, and the deterministic `par_map` / `par_reduce` combinators.
//!
//! The design is the crossbeam shape hand-rolled on `std::sync`: each
//! worker owns a deque it pushes and pops at the back (LIFO, for cache
//! locality of nested spawns) while thieves take from the front (FIFO,
//! oldest — largest — units first); external spawns land in a shared
//! injector queue. Every queue is a `Mutex<VecDeque>` rather than a
//! lock-free chase-lev deque — the pipeline's units are coarse (a whole
//! trace sweep, a whole shard build), so queue contention is noise, and
//! `std`-only is a workspace policy.
//!
//! Deadlock freedom under nesting comes from a *helping* wait: any thread
//! blocked on a [`Scope`] runs pending pool units while it waits, so a
//! worker whose unit opens a nested scope (the table2 fan-out builds
//! sessions whose lattice builds shard) never wedges the pool.

use cable_obs::{context, CounterHandle, HistogramHandle, Span};
use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Units spawned into the pool (scoped or chunked).
static TASKS: CounterHandle = CounterHandle::new("par.tasks");
/// Units taken from another worker's deque.
static STEALS: CounterHandle = CounterHandle::new("par.steals");
/// High-water mark of queued units across all queues.
static QUEUE_MAX: CounterHandle = CounterHandle::new("par.queue_max");
/// Genuine unit panics contained at the task boundary (guard unwinds —
/// budget trips and cancellations tunnelled out of closures — are not
/// panics and are not counted here).
static TASK_PANICS: CounterHandle = CounterHandle::new("par.task_panics");
/// Time idle workers spend parked on the condvar, microseconds. The
/// contention families on `/metrics` read this against `wait.slots.us`
/// and friends: high park time with low queue wait means the pool is
/// starved for work, not stuck on locks.
static WAIT_PARK: HistogramHandle = HistogramHandle::new("wait.park.us");

type Task = Box<dyn FnOnce() + Send + 'static>;

/// How long an idle worker or a waiting scope sleeps before re-checking
/// the queues. Bounds the cost of a missed wakeup without busy-waiting.
const IDLE_POLL: Duration = Duration::from_millis(1);

thread_local! {
    /// `(pool identity, worker index)` when the current thread is a pool
    /// worker — lets spawns land in the worker's own deque.
    static WORKER: Cell<Option<(usize, usize)>> = const { Cell::new(None) };
}

struct Shared {
    injector: Mutex<VecDeque<Task>>,
    deques: Vec<Mutex<VecDeque<Task>>>,
    /// Signalled after a push; sleepers also time out (see [`IDLE_POLL`]).
    idle: Condvar,
    shutdown: AtomicBool,
    /// Currently queued (not yet running) units, for `par.queue_max`.
    queued: AtomicU64,
    threads: usize,
}

impl Shared {
    fn identity(self: &Arc<Self>) -> usize {
        Arc::as_ptr(self) as usize
    }

    /// The current thread's worker index in this pool, if any.
    fn worker_index(self: &Arc<Self>) -> Option<usize> {
        WORKER.with(|w| match w.get() {
            Some((id, index)) if id == self.identity() => Some(index),
            _ => None,
        })
    }

    fn push(self: &Arc<Self>, task: Task) {
        TASKS.get().incr();
        // Count the unit before publishing it: a worker may pop it (and
        // decrement) as soon as it lands in a queue.
        let queued = self.queued.fetch_add(1, Ordering::Relaxed) + 1;
        QUEUE_MAX.get().record_max(queued);
        match self.worker_index() {
            Some(w) => self.deques[w]
                .lock()
                .expect("par deque poisoned")
                .push_back(task),
            None => self
                .injector
                .lock()
                .expect("par injector poisoned")
                .push_back(task),
        }
        self.idle.notify_one();
    }

    /// Takes one unit: own deque back, then injector front, then steal
    /// from the other deques front.
    fn find_task(self: &Arc<Self>) -> Option<Task> {
        let me = self.worker_index();
        if let Some(w) = me {
            if let Some(t) = self.deques[w]
                .lock()
                .expect("par deque poisoned")
                .pop_back()
            {
                self.queued.fetch_sub(1, Ordering::Relaxed);
                return Some(t);
            }
        }
        if let Some(t) = self
            .injector
            .lock()
            .expect("par injector poisoned")
            .pop_front()
        {
            self.queued.fetch_sub(1, Ordering::Relaxed);
            return Some(t);
        }
        let n = self.deques.len();
        let start = me.map_or(0, |w| w + 1);
        for i in 0..n {
            let victim = (start + i) % n;
            if Some(victim) == me {
                continue;
            }
            if let Some(t) = self.deques[victim]
                .lock()
                .expect("par deque poisoned")
                .pop_front()
            {
                self.queued.fetch_sub(1, Ordering::Relaxed);
                STEALS.get().incr();
                cable_obs::recorder::instant("par.steal");
                return Some(t);
            }
        }
        None
    }
}

fn run_task(task: Task) {
    // Unit panics are contained here and reported through the owning
    // scope (the spawn wrapper); a stray panic must not kill a worker.
    let _ = catch_unwind(AssertUnwindSafe(task));
}

fn worker_loop(shared: Arc<Shared>, index: usize) {
    WORKER.with(|w| w.set(Some((shared.identity(), index))));
    // Give this worker a recorder lane up front (labelled by the thread
    // name, `cable-par-{index}`), so traces show every worker even if it
    // never wins a unit.
    cable_obs::recorder::instant("par.worker.start");
    // Park instants mark the busy→idle edge only; re-checking an empty
    // queue every IDLE_POLL is not news.
    let mut was_busy = false;
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        if let Some(task) = shared.find_task() {
            was_busy = true;
            run_task(task);
            continue;
        }
        if was_busy {
            was_busy = false;
            cable_obs::recorder::instant("par.park");
        }
        let guard = shared.injector.lock().expect("par injector poisoned");
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        // Timed wait: a push between `find_task` and here is recovered on
        // the next iteration at worst.
        let park_start = cable_obs::enabled().then(Instant::now);
        let _ = shared.idle.wait_timeout(guard, IDLE_POLL);
        if let Some(start) = park_start {
            WAIT_PARK.get().record(start.elapsed().as_micros() as u64);
        }
    }
}

/// A work-stealing thread pool. The workspace normally uses the global
/// pool through the crate-level free functions; tests construct local
/// pools of fixed sizes.
pub struct Pool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Pool {
    /// Creates a pool that runs units on `threads` logical threads:
    /// `threads - 1` workers plus the calling thread, which helps while
    /// it waits on a scope. `threads <= 1` spawns no workers at all and
    /// every combinator takes its sequential path.
    pub fn new(threads: usize) -> Pool {
        let threads = threads.max(1);
        let n_workers = threads - 1;
        let shared = Arc::new(Shared {
            injector: Mutex::new(VecDeque::new()),
            deques: (0..n_workers)
                .map(|_| Mutex::new(VecDeque::new()))
                .collect(),
            idle: Condvar::new(),
            shutdown: AtomicBool::new(false),
            queued: AtomicU64::new(0),
            threads,
        });
        let workers = (0..n_workers)
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("cable-par-{i}"))
                    .spawn(move || worker_loop(shared, i))
                    .expect("spawning pool worker")
            })
            .collect();
        Pool { shared, workers }
    }

    /// The logical thread count (workers plus the helping caller).
    pub fn threads(&self) -> usize {
        self.shared.threads
    }

    /// Runs `f` with a [`Scope`] that can spawn borrowing units onto the
    /// pool. All spawned units complete before `scope` returns — this is
    /// what makes the `'env` borrows sound — and the first unit panic (or
    /// the closure's own) is propagated after the wait.
    ///
    /// **Panic isolation.** A panicking unit *poisons* the scope: units
    /// of the poisoned scope that have not started yet are skipped, and
    /// in-flight siblings are cancelled cooperatively through the
    /// `cable-guard` token (they bail at their next
    /// [`cable_guard::cancel_point`]). The first payload is re-raised
    /// here on the submitting thread once every unit has wound down —
    /// callers that need a structured error instead of an unwind wrap
    /// the pipeline in [`cable_guard::contain`], which maps genuine
    /// panics to `GuardError::TaskPanic` and tunnelled guard payloads
    /// back to their typed errors. The pool itself always survives.
    pub fn scope<'env, R>(&self, f: impl FnOnce(&Scope<'env>) -> R) -> R {
        let scope = Scope {
            shared: self.shared.clone(),
            state: Arc::new(ScopeState::default()),
            _env: PhantomData,
        };
        let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        // Wait unconditionally: spawned units may still borrow the
        // caller's stack even when `f` itself panicked.
        scope.wait();
        let unit_panic = scope.state.panic.lock().expect("par scope poisoned").take();
        if unit_panic.is_some() {
            // The failing unit's wrapper cancelled its siblings; the
            // cancellation window closes with the scope.
            cable_guard::clear_cancel();
        }
        match result {
            Err(p) => resume_unwind(p),
            Ok(r) => {
                if let Some(p) = unit_panic {
                    resume_unwind(p);
                }
                r
            }
        }
    }

    /// Maps `f` over `items`, returning results in input index order for
    /// any worker count or schedule. With one thread (or one item) this
    /// is a plain sequential map producing bit-identical values.
    pub fn par_map<T, U, F>(&self, label: &'static str, items: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(&T) -> U + Sync,
    {
        self.par_map_indexed(label, items, |_, item| f(item))
    }

    /// Like [`Pool::par_map`], passing each item's index too.
    pub fn par_map_indexed<T, U, F>(&self, label: &'static str, items: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(usize, &T) -> U + Sync,
    {
        let mut chunks = self.chunked_map(label, items, |start, slice| {
            slice
                .iter()
                .enumerate()
                .map(|(k, item)| f(start + k, item))
                .collect::<Vec<U>>()
        });
        chunks.sort_unstable_by_key(|&(start, _)| start);
        let mut out = Vec::with_capacity(items.len());
        for (_, vals) in chunks {
            out.extend(vals);
        }
        out
    }

    /// Folds `items` into chunks whose boundaries depend only on the item
    /// count — never the worker count — then combines the chunk results
    /// in chunk order. Deterministic for any associative `combine` (and
    /// even for non-associative ones, since the grouping is fixed).
    pub fn par_reduce<T, U, I, F, G>(
        &self,
        label: &'static str,
        items: &[T],
        identity: I,
        fold: F,
        combine: G,
    ) -> U
    where
        T: Sync,
        U: Send,
        I: Fn() -> U + Sync,
        F: Fn(U, &T) -> U + Sync,
        G: Fn(U, U) -> U,
    {
        let mut chunks = self.chunked_map(label, items, |_, slice| {
            slice.iter().fold(identity(), &fold)
        });
        chunks.sort_unstable_by_key(|&(start, _)| start);
        chunks.into_iter().map(|(_, v)| v).fold(identity(), combine)
    }

    /// The shared chunked executor: splits `items` at fixed boundaries
    /// (see [`crate::chunk_size`]), runs `f` per chunk — sequentially on
    /// one thread, as scoped units otherwise — and returns the unsorted
    /// `(chunk start, result)` pairs, recording per-stage busy/wall
    /// histograms while observation is enabled.
    fn chunked_map<T, U, F>(&self, label: &'static str, items: &[T], f: F) -> Vec<(usize, U)>
    where
        T: Sync,
        U: Send,
        F: Fn(usize, &[T]) -> U + Sync,
    {
        let n = items.len();
        if n == 0 {
            return Vec::new();
        }
        let observe = cable_obs::enabled();
        let wall_start = observe.then(Instant::now);
        let chunk = crate::chunk_size(n);
        let n_chunks = n.div_ceil(chunk);
        let stage = Stage::new(label, observe);
        // Capture the caller's trace context once; every chunk adopts it
        // with `CHUNK_TAG | chunk_index`. Chunk boundaries depend only on
        // the item count, so the sequential and parallel paths mint
        // *identical* span ids — the determinism gate compares them.
        let trace = context::capture();
        let results = if self.threads() <= 1 || n_chunks == 1 {
            let mut results = Vec::with_capacity(n_chunks);
            for (index, start) in (0..n).step_by(chunk).enumerate() {
                let end = (start + chunk).min(n);
                let _adopt = trace
                    .as_ref()
                    .map(|t| t.adopt(context::CHUNK_TAG | index as u64));
                let _span = stage.busy.map(|busy| Span::enter(label, busy));
                results.push((start, f(start, &items[start..end])));
            }
            results
        } else {
            let results = Mutex::new(Vec::with_capacity(n_chunks));
            self.scope(|s| {
                for (index, start) in (0..n).step_by(chunk).enumerate() {
                    let end = (start + chunk).min(n);
                    let slice = &items[start..end];
                    let (f, results, stage) = (&f, &results, &stage);
                    let trace = trace.clone();
                    s.spawn(move || {
                        // Restore the request context on whichever worker
                        // stole this chunk, under the chunk's own tag.
                        let _adopt = trace
                            .as_ref()
                            .map(|t| t.adopt(context::CHUNK_TAG | index as u64));
                        let value = {
                            let _span = stage.busy.map(|busy| Span::enter(label, busy));
                            f(start, slice)
                        };
                        results
                            .lock()
                            .expect("par results poisoned")
                            .push((start, value));
                    });
                }
            });
            results.into_inner().expect("par results poisoned")
        };
        stage.record_wall(wall_start);
        // One wide event per stage execution. Guarded on enabled() so
        // the off path never pays the event's String building.
        if cable_obs::events::enabled() {
            let mut event = cable_obs::WideEvent::new("par_stage", "par")
                .stage(label)
                .field("items", n as u64)
                .field("chunks", n_chunks as u64)
                .field("threads", self.threads() as u64);
            if let Some(start) = wall_start {
                event = event.duration(start.elapsed());
            }
            cable_obs::events::emit(event);
        }
        results
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.idle.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Per-stage busy/wall histograms, absent while observation is off.
/// Each chunk's span records into `busy`; the whole stage's wall time
/// lands in `wall`.
struct Stage {
    busy: Option<&'static HistogramHandle>,
    wall: Option<Arc<cable_obs::Histogram>>,
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

impl Stage {
    fn new(label: &'static str, observe: bool) -> Stage {
        if !observe {
            return Stage {
                busy: None,
                wall: None,
            };
        }
        Stage {
            busy: Some(busy_handle(label)),
            wall: Some(cable_obs::registry().histogram(&format!("par.stage.{label}.wall_ns"))),
        }
    }

    fn record_wall(&self, start: Option<Instant>) {
        if let (Some(h), Some(start)) = (&self.wall, start) {
            h.record_duration(start.elapsed());
        }
    }
}

#[derive(Default)]
struct ScopeState {
    remaining: Mutex<usize>,
    done: Condvar,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Units spawned so far; each unit adopts the submitter's trace
    /// context under `SPAWN_TAG | its own index`, so span ids don't
    /// depend on which worker wins the unit.
    spawn_seq: AtomicU64,
    /// Set when any unit of the scope panics (or bails on a guard
    /// error): queued-but-unstarted siblings are skipped, the scope's
    /// outcome is already decided.
    poisoned: AtomicBool,
}

/// A spawn scope: units may borrow anything that outlives `'env`,
/// because [`Pool::scope`] waits for all of them before returning.
pub struct Scope<'env> {
    shared: Arc<Shared>,
    state: Arc<ScopeState>,
    /// Invariant in `'env`, the crossbeam trick: stops the borrow checker
    /// from shrinking the environment lifetime under the spawned units.
    _env: PhantomData<fn(&'env ()) -> &'env ()>,
}

impl<'env> Scope<'env> {
    /// Spawns a unit onto the pool. It may borrow from the enclosing
    /// environment (`'env`); the scope waits for it before returning, and
    /// its panic — if any — is propagated by [`Pool::scope`].
    ///
    /// Each unit runs behind a `catch_unwind` boundary and a
    /// fault-injection point (`panic@par.task`); a unit of an already
    /// poisoned scope is skipped without running.
    pub fn spawn(&self, f: impl FnOnce() + Send + 'env) {
        *self.state.remaining.lock().expect("par scope poisoned") += 1;
        let state = self.state.clone();
        // Snapshot the submitter's trace context *here*, before the unit
        // moves: the worker that eventually runs it may be mid-steal on a
        // different request (or on none at all).
        let trace = context::capture();
        let spawn_seq = self.state.spawn_seq.fetch_add(1, Ordering::Relaxed);
        let wrapper = move || {
            if !state.poisoned.load(Ordering::Relaxed) {
                let _adopt = trace
                    .as_ref()
                    .map(|t| t.adopt(context::SPAWN_TAG | spawn_seq));
                let result = catch_unwind(AssertUnwindSafe(|| {
                    cable_guard::faults::maybe_panic("par.task");
                    f()
                }));
                if let Err(p) = result {
                    state.poisoned.store(true, Ordering::Relaxed);
                    if !cable_guard::is_guard_payload(&*p) {
                        TASK_PANICS.get().incr();
                        cable_obs::recorder::instant("par.task_panic");
                    }
                    // Ask in-flight siblings to bail at their next
                    // cancel point; `Pool::scope` clears the flag once
                    // the scope has wound down.
                    cable_guard::cancel();
                    state
                        .panic
                        .lock()
                        .expect("par scope poisoned")
                        .get_or_insert(p);
                }
            }
            let mut remaining = state.remaining.lock().expect("par scope poisoned");
            *remaining -= 1;
            if *remaining == 0 {
                state.done.notify_all();
            }
        };
        let task: Box<dyn FnOnce() + Send + 'env> = Box::new(wrapper);
        // SAFETY: the pool requires 'static tasks because workers outlive
        // any one scope, but `Pool::scope` never returns before every
        // unit of this scope has completed (the wait runs even when the
        // scope closure panics), so no borrow in `task` outlives its use.
        let task: Task = unsafe { std::mem::transmute(task) };
        self.shared.push(task);
    }

    /// Blocks until every spawned unit is done, *helping*: pending pool
    /// units (of any scope) are run while waiting, so nested scopes on a
    /// saturated pool cannot deadlock.
    fn wait(&self) {
        loop {
            if *self.state.remaining.lock().expect("par scope poisoned") == 0 {
                return;
            }
            if let Some(task) = self.shared.find_task() {
                run_task(task);
                continue;
            }
            let remaining = self.state.remaining.lock().expect("par scope poisoned");
            if *remaining > 0 {
                // Timed: a unit queued after `find_task` is picked up on
                // the next iteration.
                let _ = self.state.done.wait_timeout(remaining, IDLE_POLL);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

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
    fn scope_waits_for_all_units() {
        let pool = Pool::new(4);
        let counter = AtomicUsize::new(0);
        pool.scope(|s| {
            for _ in 0..64 {
                s.spawn(|| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn unit_panics_propagate() {
        let pool = Pool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                s.spawn(|| panic!("unit failure"));
            });
        }));
        assert!(result.is_err());
        // The pool survives the panic.
        assert_eq!(pool.par_map("test.alive", &[1u64, 2], |&x| x), vec![1, 2]);
    }

    #[test]
    fn nested_scopes_do_not_deadlock() {
        let pool = Pool::new(2);
        let total = AtomicUsize::new(0);
        pool.scope(|outer| {
            for _ in 0..8 {
                let total = &total;
                let pool_ref = &pool;
                outer.spawn(move || {
                    pool_ref.scope(|inner| {
                        for _ in 0..8 {
                            inner.spawn(|| {
                                total.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    });
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn par_reduce_groups_by_length_not_threads() {
        // String concatenation is associative but *not* commutative: the
        // result is order-sensitive, so equality across pool sizes proves
        // the grouping and combine order are schedule-independent.
        let items: Vec<String> = (0..200).map(|i| format!("{i},")).collect();
        let reduce = |pool: &Pool| {
            pool.par_reduce(
                "test.concat",
                &items,
                String::new,
                |acc, s| acc + s,
                |a, b| a + &b,
            )
        };
        let seq = reduce(&Pool::new(1));
        assert_eq!(seq, items.concat());
        assert_eq!(reduce(&Pool::new(3)), seq);
    }
}
