//! `cable-guard`: resource budgets, cooperative cancellation, panic
//! containment, and deterministic fault injection.
//!
//! FCA lattice size is worst-case exponential in objects × attributes,
//! so a production Cable service must bound its analyses rather than
//! trust the input: a single adversarial spec or oversized ingest must
//! never hang, OOM, or abort the process. This crate is the guard plane
//! the rest of the workspace checks in with:
//!
//! * [`Budget`] — a wall-clock deadline, a concept-count ceiling, and a
//!   memory-estimate ceiling, installed process-wide for the duration of
//!   a guarded operation ([`Budget::install`] returns an RAII
//!   [`InstalledGuard`]), or per-thread for one service request
//!   ([`Budget::install_local`] returns an RAII [`LocalGuard`]);
//! * [`CancelToken`] — cooperative cancellation. Like the flight
//!   recorder's disabled path, the hot-path cost of an uninstalled guard
//!   is **one relaxed atomic load** ([`checkpoint`], [`cancel_point`]);
//! * [`GuardError`] — the typed error every guarded loop returns instead
//!   of panicking or hanging. Budget-stopped lattice builds carry a
//!   *valid partial result* at the `cable-fca` layer;
//! * [`contain`] — the panic boundary: runs a closure under
//!   `catch_unwind` and converts panic payloads (including the guard's
//!   own tunnelled [`GuardUnwind`] payloads from `cable-par` closures)
//!   into structured [`GuardError`]s, so a worker panic never takes the
//!   process down;
//! * [`faults`] — the deterministic fault-injection plane behind
//!   `CABLE_FAULTS=<seed>:<spec>` / `--faults`: injected panics at
//!   `cable-par` task boundaries, injected I/O errors in the
//!   `cable-store` read/write shims, and artificial budget exhaustion at
//!   any checkpoint site.
//!
//! # Global-install model
//!
//! Exactly like `cable-obs`, the guard is process-global: the pipeline
//! runs one guarded operation at a time (the CLI installs a budget
//! around one command), and globals keep the hot path to a single
//! relaxed load with zero plumbing through the pipeline's many layers.
//! Installing a second budget while one is active replaces it; the RAII
//! guard uninstalls on drop.
//!
//! # Counters
//!
//! `guard.checkpoints` (slow-path checkpoint evaluations),
//! `guard.cancelled` (checkpoints that observed a cancellation), and
//! `guard.budget_exceeded` (budget trips) register in the `cable-obs`
//! registry and therefore appear in `--stats`, `/metrics`, and
//! `/healthz`.

pub mod faults;

use cable_obs::CounterHandle;
use std::any::Any;
use std::cell::Cell;
use std::error::Error;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Slow-path checkpoint evaluations (the fast path — nothing installed —
/// is not counted: counting would cost more than the check).
static CHECKPOINTS: CounterHandle = CounterHandle::new("guard.checkpoints");
/// Checkpoints that observed a cancellation and returned
/// [`GuardError::Cancelled`].
static CANCELLED_TRIPS: CounterHandle = CounterHandle::new("guard.cancelled");
/// Budget ceilings tripped (deadline, concepts, memory, or injected).
static BUDGET_TRIPS: CounterHandle = CounterHandle::new("guard.budget_exceeded");

/// Bit in [`STATE`]: a [`Budget`] is installed.
const BUDGET_BIT: u8 = 1;
/// Bit in [`STATE`]: a fault plane is installed ([`faults::install`]).
const FAULTS_BIT: u8 = 2;
/// Bit in [`STATE`]: cancellation has been requested.
const CANCEL_BIT: u8 = 4;
/// Bit in [`STATE`]: at least one thread holds a thread-local request
/// budget ([`Budget::install_local`]). The bit is global so the
/// uninstalled fast path stays one relaxed load; which budget (if any)
/// applies is resolved per-thread on the slow path.
const LOCAL_BIT: u8 = 8;

/// The one word every hot-path check loads. Zero means "nothing
/// installed, nothing cancelled" and every guard entry point returns
/// immediately.
static STATE: AtomicU8 = AtomicU8::new(0);

/// Deadline as nanoseconds since [`epoch`]; `u64::MAX` means none.
static DEADLINE_NS: AtomicU64 = AtomicU64::new(u64::MAX);
/// The deadline the user asked for, for error messages.
static DEADLINE_MS: AtomicU64 = AtomicU64::new(0);
/// Concept-count ceiling; `u64::MAX` means none.
static MAX_CONCEPTS: AtomicU64 = AtomicU64::new(u64::MAX);
/// Memory-estimate ceiling in bytes; `u64::MAX` means none.
static MAX_MEM_BYTES: AtomicU64 = AtomicU64::new(u64::MAX);
/// Bytes charged so far against [`MAX_MEM_BYTES`] ([`charge_mem`]).
static MEM_CHARGED: AtomicU64 = AtomicU64::new(0);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Which budget ceiling tripped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Limit {
    /// The wall-clock deadline passed.
    Deadline {
        /// The configured deadline in milliseconds.
        limit_ms: u64,
    },
    /// The concept count passed its ceiling.
    Concepts {
        /// The configured ceiling.
        limit: u64,
        /// The count that tripped it.
        reached: u64,
    },
    /// The memory estimate passed its ceiling.
    Memory {
        /// The configured ceiling in bytes.
        limit_bytes: u64,
        /// The estimate that tripped it.
        estimate: u64,
    },
    /// Artificial exhaustion injected by the fault plane.
    Injected,
}

impl fmt::Display for Limit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Limit::Deadline { limit_ms } => write!(f, "deadline of {limit_ms} ms passed"),
            Limit::Concepts { limit, reached } => {
                write!(f, "concept count {reached} passed the ceiling of {limit}")
            }
            Limit::Memory {
                limit_bytes,
                estimate,
            } => write!(
                f,
                "memory estimate {estimate} B passed the ceiling of {limit_bytes} B"
            ),
            Limit::Injected => write!(f, "injected budget exhaustion"),
        }
    }
}

/// The typed error guarded operations return instead of panicking or
/// hanging.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GuardError {
    /// A [`Budget`] ceiling tripped. Operations that can, carry a valid
    /// partial result alongside (see `cable_fca::PartialBuild`).
    BudgetExceeded {
        /// Which ceiling tripped.
        limit: Limit,
        /// The checkpoint site that observed the trip.
        site: String,
    },
    /// Cancellation was requested (a [`CancelToken`], or a sibling task
    /// panic poisoning the scope).
    Cancelled,
    /// A task panicked; the payload was contained and stringified.
    TaskPanic {
        /// The panic message (or a placeholder for non-string payloads).
        message: String,
    },
}

impl fmt::Display for GuardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GuardError::BudgetExceeded { limit, site } => {
                write!(f, "budget exceeded at {site}: {limit}")
            }
            GuardError::Cancelled => write!(f, "operation cancelled"),
            GuardError::TaskPanic { message } => write!(f, "task panicked: {message}"),
        }
    }
}

impl Error for GuardError {}

/// Resource ceilings for one guarded operation. Every field is optional;
/// an all-`None` budget installs nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Budget {
    /// Wall-clock deadline, measured from [`Budget::install`].
    pub deadline: Option<Duration>,
    /// Ceiling on the concept count reported via [`check_concepts`].
    pub max_concepts: Option<u64>,
    /// Ceiling on the bytes accumulated via [`charge_mem`].
    pub max_mem_bytes: Option<u64>,
}

impl Budget {
    /// Whether no ceiling is set.
    pub fn is_empty(&self) -> bool {
        self.deadline.is_none() && self.max_concepts.is_none() && self.max_mem_bytes.is_none()
    }

    /// Installs the budget on the **calling thread only**, returning the
    /// RAII handle that uninstalls it on drop. This is the per-request
    /// form used by the session service: each HTTP worker wraps one
    /// request in a local budget, so concurrent requests get independent
    /// deadlines without fighting over the process-wide slot.
    ///
    /// Only the deadline and concept ceilings apply locally; the
    /// memory-estimate ceiling is process-wide by nature ([`charge_mem`]
    /// accumulates across threads) and is ignored here. Budgets nest:
    /// installing over an existing local budget shadows it until drop. A
    /// thread-local budget does not bound work the thread hands to the
    /// `cable-par` pool — per-request work in the service runs on the
    /// worker thread itself.
    pub fn install_local(self) -> LocalGuard {
        if self.deadline.is_none() && self.max_concepts.is_none() {
            return LocalGuard {
                installed: false,
                previous: None,
                _thread_bound: std::marker::PhantomData,
            };
        }
        let budget = LocalBudget {
            deadline_ns: self
                .deadline
                .map_or(u64::MAX, |d| now_ns().saturating_add(d.as_nanos() as u64)),
            deadline_ms: self.deadline.map_or(0, |d| d.as_millis() as u64),
            max_concepts: self.max_concepts.unwrap_or(u64::MAX),
        };
        let previous = LOCAL.with(|slot| slot.replace(Some(budget)));
        if previous.is_none() {
            let mut count = local_count().lock().expect("guard local count poisoned");
            *count += 1;
            if *count == 1 {
                STATE.fetch_or(LOCAL_BIT, Ordering::Relaxed);
            }
        }
        LocalGuard {
            installed: true,
            previous,
            _thread_bound: std::marker::PhantomData,
        }
    }

    /// Installs the budget process-wide, returning the RAII handle that
    /// uninstalls it (and clears any pending cancellation) on drop. An
    /// empty budget installs nothing and the returned guard is inert.
    pub fn install(self) -> InstalledGuard {
        if self.is_empty() {
            return InstalledGuard { installed: false };
        }
        DEADLINE_MS.store(
            self.deadline.map_or(0, |d| d.as_millis() as u64),
            Ordering::Relaxed,
        );
        DEADLINE_NS.store(
            self.deadline
                .map_or(u64::MAX, |d| now_ns().saturating_add(d.as_nanos() as u64)),
            Ordering::Relaxed,
        );
        MAX_CONCEPTS.store(self.max_concepts.unwrap_or(u64::MAX), Ordering::Relaxed);
        MAX_MEM_BYTES.store(self.max_mem_bytes.unwrap_or(u64::MAX), Ordering::Relaxed);
        MEM_CHARGED.store(0, Ordering::Relaxed);
        STATE.fetch_or(BUDGET_BIT, Ordering::Relaxed);
        InstalledGuard { installed: true }
    }
}

/// RAII handle for an installed [`Budget`]; uninstalls on drop.
#[derive(Debug)]
pub struct InstalledGuard {
    installed: bool,
}

impl InstalledGuard {
    /// The cancel token associated with the guarded operation. (Tokens
    /// are handles to the process-wide cancellation flag; see
    /// [`CancelToken`].)
    pub fn token(&self) -> CancelToken {
        CancelToken
    }
}

impl Drop for InstalledGuard {
    fn drop(&mut self) {
        if self.installed {
            STATE.fetch_and(!(BUDGET_BIT | CANCEL_BIT), Ordering::Relaxed);
            DEADLINE_NS.store(u64::MAX, Ordering::Relaxed);
            MAX_CONCEPTS.store(u64::MAX, Ordering::Relaxed);
            MAX_MEM_BYTES.store(u64::MAX, Ordering::Relaxed);
            MEM_CHARGED.store(0, Ordering::Relaxed);
        }
    }
}

/// One thread's request budget, resolved on the checkpoint slow path.
#[derive(Debug, Clone, Copy)]
struct LocalBudget {
    /// Deadline as nanoseconds since [`epoch`]; `u64::MAX` means none.
    deadline_ns: u64,
    /// The configured deadline in milliseconds, for error messages.
    deadline_ms: u64,
    /// Concept-count ceiling; `u64::MAX` means none.
    max_concepts: u64,
}

thread_local! {
    /// The calling thread's request budget, if any.
    static LOCAL: Cell<Option<LocalBudget>> = const { Cell::new(None) };
}

/// Threads currently holding a local budget. Install/uninstall
/// transitions of [`LOCAL_BIT`] run under this lock so a thread
/// dropping its budget cannot clear the bit out from under a thread
/// that just installed one.
fn local_count() -> &'static Mutex<u64> {
    static COUNT: OnceLock<Mutex<u64>> = OnceLock::new();
    COUNT.get_or_init(|| Mutex::new(0))
}

/// RAII handle for a thread-local [`Budget::install_local`]; restores
/// the thread's previous budget (usually none) on drop.
///
/// Not `Send`: the budget lives in the installing thread's storage, so
/// dropping it elsewhere would uninstall nothing.
#[derive(Debug)]
pub struct LocalGuard {
    installed: bool,
    previous: Option<LocalBudget>,
    // The budget lives in the installing thread's storage; a raw-pointer
    // marker keeps the guard on that thread (auto-!Send).
    _thread_bound: std::marker::PhantomData<*const ()>,
}

impl Drop for LocalGuard {
    fn drop(&mut self) {
        if !self.installed {
            return;
        }
        let previous = self.previous.take();
        let restores_outer = previous.is_some();
        LOCAL.with(|slot| slot.set(previous));
        if !restores_outer {
            let mut count = local_count().lock().expect("guard local count poisoned");
            *count = count.saturating_sub(1);
            if *count == 0 {
                STATE.fetch_and(!LOCAL_BIT, Ordering::Relaxed);
            }
        }
    }
}

/// A handle to the process-wide cancellation flag. `Copy`, `Send`, and
/// free to clone into any thread; cancelling trips every subsequent
/// [`checkpoint`] and [`cancel_point`] until [`clear_cancel`] runs
/// (which the owning scope — an [`InstalledGuard`] drop or the
/// `cable-par` panic recovery — does when the operation ends).
#[derive(Debug, Clone, Copy, Default)]
pub struct CancelToken;

impl CancelToken {
    /// The process-wide token.
    pub fn global() -> CancelToken {
        CancelToken
    }

    /// Requests cancellation.
    pub fn cancel(&self) {
        cancel();
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        cancel_requested()
    }
}

/// Requests cooperative cancellation of the current guarded operation.
pub fn cancel() {
    STATE.fetch_or(CANCEL_BIT, Ordering::Relaxed);
}

/// Whether cancellation has been requested.
#[inline]
pub fn cancel_requested() -> bool {
    STATE.load(Ordering::Relaxed) & CANCEL_BIT != 0
}

/// Clears a pending cancellation. Called by the scope that requested it
/// (or recovered from the panic that did) once the operation has wound
/// down.
pub fn clear_cancel() {
    STATE.fetch_and(!CANCEL_BIT, Ordering::Relaxed);
}

/// Whether any guard facility (budget, faults, cancellation) is active.
#[inline]
pub fn active() -> bool {
    STATE.load(Ordering::Relaxed) != 0
}

/// Whether a [`Budget`] is currently installed. Lattice builds use this
/// to pick the guarded sequential path, whose budget-stopped prefix is
/// deterministic for every worker count (see DESIGN.md §12).
#[inline]
pub fn budget_active() -> bool {
    let state = STATE.load(Ordering::Relaxed);
    if state & BUDGET_BIT != 0 {
        return true;
    }
    state & LOCAL_BIT != 0 && LOCAL.with(|slot| slot.get().is_some())
}

pub(crate) fn faults_installed() -> bool {
    STATE.load(Ordering::Relaxed) & FAULTS_BIT != 0
}

pub(crate) fn set_faults_installed(on: bool) {
    if on {
        STATE.fetch_or(FAULTS_BIT, Ordering::Relaxed);
    } else {
        STATE.fetch_and(!FAULTS_BIT, Ordering::Relaxed);
    }
}

/// The cooperative checkpoint guarded loops call once per unit of work
/// (one object insertion, one trace sweep, one journal record). With
/// nothing installed this is a single relaxed atomic load; otherwise it
/// evaluates cancellation, the deadline, the memory estimate, and the
/// fault plane's `budget@site` rules.
///
/// # Errors
///
/// [`GuardError::Cancelled`] on a pending cancellation,
/// [`GuardError::BudgetExceeded`] on a tripped ceiling or injected
/// exhaustion.
#[inline]
pub fn checkpoint(site: &str) -> Result<(), GuardError> {
    let state = STATE.load(Ordering::Relaxed);
    if state == 0 {
        return Ok(());
    }
    checkpoint_slow(site, state)
}

#[cold]
fn checkpoint_slow(site: &str, state: u8) -> Result<(), GuardError> {
    let result = checkpoint_checks(site, state);
    if let Err(e) = &result {
        emit_trip_event(site, e);
    }
    result
}

/// One wide event per guard trip, so `/eventz` and the SLO windows see
/// budget exhaustion and cancellation alongside the work they cut short.
fn emit_trip_event(site: &str, error: &GuardError) {
    let kind = match error {
        GuardError::BudgetExceeded { .. } => "budget_trip",
        GuardError::Cancelled => "cancel_trip",
        GuardError::TaskPanic { .. } => "contained_panic",
    };
    // A recorder instant too: it carries the active trace context, so a
    // request's waterfall shows *where in the tree* the budget tripped.
    cable_obs::recorder::instant(match error {
        GuardError::BudgetExceeded { .. } => "guard.budget_trip",
        GuardError::Cancelled => "guard.cancel_trip",
        GuardError::TaskPanic { .. } => "guard.contained_panic",
    });
    cable_obs::events::emit(
        cable_obs::WideEvent::new(kind, "guard")
            .stage(site)
            .outcome("error")
            .field("error", error.to_string()),
    );
}

fn checkpoint_checks(site: &str, state: u8) -> Result<(), GuardError> {
    CHECKPOINTS.get().incr();
    if state & CANCEL_BIT != 0 {
        CANCELLED_TRIPS.get().incr();
        return Err(GuardError::Cancelled);
    }
    if state & LOCAL_BIT != 0 {
        if let Some(local) = LOCAL.with(Cell::get) {
            if now_ns() >= local.deadline_ns {
                BUDGET_TRIPS.get().incr();
                return Err(GuardError::BudgetExceeded {
                    limit: Limit::Deadline {
                        limit_ms: local.deadline_ms,
                    },
                    site: site.to_owned(),
                });
            }
        }
    }
    if state & BUDGET_BIT != 0 {
        if now_ns() >= DEADLINE_NS.load(Ordering::Relaxed) {
            BUDGET_TRIPS.get().incr();
            return Err(GuardError::BudgetExceeded {
                limit: Limit::Deadline {
                    limit_ms: DEADLINE_MS.load(Ordering::Relaxed),
                },
                site: site.to_owned(),
            });
        }
        let estimate = MEM_CHARGED.load(Ordering::Relaxed);
        let limit_bytes = MAX_MEM_BYTES.load(Ordering::Relaxed);
        if estimate > limit_bytes {
            BUDGET_TRIPS.get().incr();
            return Err(GuardError::BudgetExceeded {
                limit: Limit::Memory {
                    limit_bytes,
                    estimate,
                },
                site: site.to_owned(),
            });
        }
    }
    if state & FAULTS_BIT != 0 && faults::budget_fault_fires(site) {
        BUDGET_TRIPS.get().incr();
        return Err(GuardError::BudgetExceeded {
            limit: Limit::Injected,
            site: site.to_owned(),
        });
    }
    Ok(())
}

/// Checks a concept count against the installed ceiling. Callers report
/// the count *after* each insertion, so a trip at count `c` means the
/// concept set already holds `c` concepts — still a valid prefix-exact
/// set (Godin's invariant).
///
/// # Errors
///
/// [`GuardError::BudgetExceeded`] with [`Limit::Concepts`] once the
/// count passes the ceiling.
#[inline]
pub fn check_concepts(count: usize) -> Result<(), GuardError> {
    let state = STATE.load(Ordering::Relaxed);
    if state & (BUDGET_BIT | LOCAL_BIT) == 0 {
        return Ok(());
    }
    let mut limit = u64::MAX;
    if state & BUDGET_BIT != 0 {
        limit = MAX_CONCEPTS.load(Ordering::Relaxed);
    }
    if state & LOCAL_BIT != 0 {
        if let Some(local) = LOCAL.with(Cell::get) {
            limit = limit.min(local.max_concepts);
        }
    }
    if count as u64 > limit {
        BUDGET_TRIPS.get().incr();
        let error = GuardError::BudgetExceeded {
            limit: Limit::Concepts {
                limit,
                reached: count as u64,
            },
            site: "fca.godin.concepts".to_owned(),
        };
        emit_trip_event("fca.godin.concepts", &error);
        return Err(error);
    }
    Ok(())
}

/// Accumulates `bytes` against the installed memory-estimate ceiling
/// (checked at the next [`checkpoint`]). A no-op without a budget.
#[inline]
pub fn charge_mem(bytes: u64) {
    if STATE.load(Ordering::Relaxed) & BUDGET_BIT != 0 {
        MEM_CHARGED.fetch_add(bytes, Ordering::Relaxed);
    }
}

/// The panic payload [`bail`] tunnels a [`GuardError`] through
/// `cable-par` closures with (the closures return plain values, so a
/// budget trip or cancellation inside one unwinds instead).
/// [`contain`] and the pool's panic recovery recognise it and convert it
/// back into the typed error rather than counting it as a task panic.
#[derive(Debug)]
pub struct GuardUnwind(pub GuardError);

/// Unwinds with a [`GuardUnwind`] payload. Only reachable from code
/// running under a [`contain`] (or `cable-par` chunk) boundary.
pub fn bail(error: GuardError) -> ! {
    std::panic::panic_any(GuardUnwind(error))
}

/// The cancellation checkpoint for closures that cannot return `Err`
/// (the `cable-par` chunk closures): a single relaxed load
/// when nothing is cancelled, an unwinding [`bail`] otherwise.
#[inline]
pub fn cancel_point(site: &str) {
    if STATE.load(Ordering::Relaxed) & CANCEL_BIT != 0 {
        CANCELLED_TRIPS.get().incr();
        emit_trip_event(site, &GuardError::Cancelled);
        bail(GuardError::Cancelled)
    }
}

/// Whether a caught panic payload is one of the guard's own tunnelled
/// payloads (a [`GuardUnwind`]) rather than a genuine task panic.
pub fn is_guard_payload(payload: &(dyn Any + Send)) -> bool {
    payload.is::<GuardUnwind>()
}

/// Converts a caught panic payload into a [`GuardError`]: tunnelled
/// [`GuardUnwind`] payloads yield their inner error; anything else is a
/// [`GuardError::TaskPanic`] with the stringified message.
pub fn error_from_payload(payload: &(dyn Any + Send)) -> GuardError {
    if let Some(guard) = payload.downcast_ref::<GuardUnwind>() {
        return guard.0.clone();
    }
    let message = if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    };
    GuardError::TaskPanic { message }
}

/// The pipeline's panic boundary: runs `f` under `catch_unwind` and
/// converts any unwind — a worker panic resurfaced by `cable-par`, an
/// injected fault, or a tunnelled [`GuardUnwind`] — into a structured
/// [`GuardError`]. The process keeps serving.
///
/// # Errors
///
/// Whatever [`error_from_payload`] derives from the caught payload.
pub fn contain<T>(f: impl FnOnce() -> T) -> Result<T, GuardError> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(value) => Ok(value),
        Err(payload) => {
            let error = error_from_payload(&*payload);
            // Tunnelled GuardUnwind payloads already emitted their trip
            // event at the checkpoint; only genuine panics are new news.
            if matches!(error, GuardError::TaskPanic { .. }) {
                emit_trip_event("guard.contain", &error);
            }
            Err(error)
        }
    }
}

/// Installs the fault plane from `CABLE_FAULTS` if set. Returns whether
/// a plane is now installed.
///
/// # Errors
///
/// Returns the parse error for a malformed spec.
pub fn init_from_env() -> Result<bool, String> {
    match std::env::var("CABLE_FAULTS") {
        Ok(spec) if !spec.is_empty() => {
            faults::install(&spec)?;
            Ok(true)
        }
        _ => Ok(faults_installed()),
    }
}

/// The guard state is process-global; tests that install budgets,
/// planes, or cancellations must not interleave (shared with the
/// [`faults`] test module).
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_lock as lock;

    #[test]
    fn uninstalled_checkpoint_is_ok() {
        let _l = lock();
        assert_eq!(checkpoint("test.site"), Ok(()));
        assert_eq!(check_concepts(1_000_000), Ok(()));
        cancel_point("test.site"); // must not unwind
    }

    #[test]
    fn deadline_trips_and_uninstalls_on_drop() {
        let _l = lock();
        let guard = Budget {
            deadline: Some(Duration::from_millis(0)),
            ..Budget::default()
        }
        .install();
        std::thread::sleep(Duration::from_millis(2));
        let err = checkpoint("test.deadline").unwrap_err();
        assert!(matches!(
            err,
            GuardError::BudgetExceeded {
                limit: Limit::Deadline { .. },
                ..
            }
        ));
        drop(guard);
        assert_eq!(checkpoint("test.deadline"), Ok(()));
    }

    #[test]
    fn concept_ceiling_trips_past_the_limit() {
        let _l = lock();
        let _guard = Budget {
            max_concepts: Some(10),
            ..Budget::default()
        }
        .install();
        assert_eq!(check_concepts(10), Ok(()));
        let err = check_concepts(11).unwrap_err();
        assert_eq!(
            err,
            GuardError::BudgetExceeded {
                limit: Limit::Concepts {
                    limit: 10,
                    reached: 11
                },
                site: "fca.godin.concepts".to_owned(),
            }
        );
    }

    #[test]
    fn memory_ceiling_trips_at_the_next_checkpoint() {
        let _l = lock();
        let _guard = Budget {
            max_mem_bytes: Some(100),
            ..Budget::default()
        }
        .install();
        charge_mem(50);
        assert_eq!(checkpoint("test.mem"), Ok(()));
        charge_mem(51);
        let err = checkpoint("test.mem").unwrap_err();
        assert!(matches!(
            err,
            GuardError::BudgetExceeded {
                limit: Limit::Memory { .. },
                ..
            }
        ));
    }

    #[test]
    fn cancellation_trips_checkpoints_until_cleared() {
        let _l = lock();
        let token = CancelToken::global();
        assert!(!token.is_cancelled());
        token.cancel();
        assert!(token.is_cancelled());
        assert_eq!(checkpoint("test.cancel"), Err(GuardError::Cancelled));
        clear_cancel();
        assert_eq!(checkpoint("test.cancel"), Ok(()));
    }

    #[test]
    fn cancel_point_unwinds_with_a_guard_payload() {
        let _l = lock();
        cancel();
        let result = contain(|| cancel_point("test.point"));
        clear_cancel();
        assert_eq!(result, Err(GuardError::Cancelled));
    }

    #[test]
    fn contain_converts_panics_and_guard_unwinds() {
        let _l = lock();
        assert_eq!(contain(|| 7), Ok(7));
        assert_eq!(
            contain(|| panic!("boom")),
            Err::<(), _>(GuardError::TaskPanic {
                message: "boom".to_owned()
            })
        );
        let err = GuardError::BudgetExceeded {
            limit: Limit::Injected,
            site: "x".to_owned(),
        };
        let inner = err.clone();
        assert_eq!(contain(move || bail(inner)), Err::<(), _>(err));
    }

    #[test]
    fn empty_budget_installs_nothing() {
        let _l = lock();
        let _guard = Budget::default().install();
        assert!(!budget_active());
    }

    #[test]
    fn local_deadline_trips_only_on_the_installing_thread() {
        let _l = lock();
        let guard = Budget {
            deadline: Some(Duration::from_millis(0)),
            ..Budget::default()
        }
        .install_local();
        assert!(budget_active());
        std::thread::sleep(Duration::from_millis(2));
        let err = checkpoint("test.local_deadline").unwrap_err();
        assert!(matches!(
            err,
            GuardError::BudgetExceeded {
                limit: Limit::Deadline { .. },
                ..
            }
        ));
        // Another thread shares the process but not the budget.
        std::thread::scope(|s| {
            let handle = s.spawn(|| checkpoint("test.other_thread"));
            assert_eq!(handle.join().unwrap(), Ok(()));
        });
        drop(guard);
        assert_eq!(checkpoint("test.local_deadline"), Ok(()));
        assert!(!budget_active());
    }

    #[test]
    fn local_concept_ceiling_trips_past_the_limit() {
        let _l = lock();
        let _guard = Budget {
            max_concepts: Some(5),
            ..Budget::default()
        }
        .install_local();
        assert_eq!(check_concepts(5), Ok(()));
        let err = check_concepts(6).unwrap_err();
        assert!(matches!(
            err,
            GuardError::BudgetExceeded {
                limit: Limit::Concepts {
                    limit: 5,
                    reached: 6
                },
                ..
            }
        ));
    }

    #[test]
    fn local_budgets_nest_and_restore_on_drop() {
        let _l = lock();
        let outer = Budget {
            max_concepts: Some(100),
            ..Budget::default()
        }
        .install_local();
        {
            let _inner = Budget {
                max_concepts: Some(5),
                ..Budget::default()
            }
            .install_local();
            assert!(check_concepts(6).is_err());
        }
        // Inner dropped: the outer ceiling applies again.
        assert_eq!(check_concepts(6), Ok(()));
        assert!(check_concepts(101).is_err());
        drop(outer);
        assert_eq!(check_concepts(101), Ok(()));
    }

    #[test]
    fn empty_local_budget_installs_nothing() {
        let _l = lock();
        let _guard = Budget::default().install_local();
        assert!(!budget_active());
        assert_eq!(checkpoint("test.empty_local"), Ok(()));
    }

    #[test]
    fn local_and_global_budgets_compose() {
        let _l = lock();
        let _global = Budget {
            max_concepts: Some(50),
            ..Budget::default()
        }
        .install();
        let _local = Budget {
            max_concepts: Some(5),
            ..Budget::default()
        }
        .install_local();
        // The tighter of the two ceilings wins.
        assert!(check_concepts(6).is_err());
        assert!(check_concepts(5).is_ok());
    }
}
