//! `cable-guard`: resource budgets, panic containment, and
//! deterministic fault injection.
//!
//! FCA lattice size is worst-case exponential in objects × attributes,
//! so a production Cable service must bound its analyses rather than
//! trust the input: a single adversarial spec or oversized ingest must
//! never hang or abort the process. This crate is the guard plane the
//! rest of the workspace checks in with:
//!
//! * [`Budget`] — a wall-clock deadline and a concept-count ceiling for
//!   one guarded operation, installed on the calling thread
//!   ([`Budget::install`] returns an RAII [`InstalledGuard`]). The CLIs
//!   install one around a command, the session service one around each
//!   request;
//! * [`checkpoint`] and [`check_concepts`] — what guarded loops call once
//!   per unit of work. With nothing installed, [`checkpoint`] costs one
//!   thread-local read plus one relaxed atomic load (the fault-plane
//!   flag);
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
//! # Thread-scoped budgets
//!
//! A budget belongs to the thread that installs it: a checkpoint on any
//! other thread — a `cable-par` worker, the HTTP worker serving another
//! request — does not see it. So every guarded path runs on the
//! installing thread: under a budget, the executed-transition sweep and
//! the Godin build take their sequential paths, which also makes a stop
//! land at the same unit of work whatever the pool size. The fault plane
//! is the one process-wide switch; a drill arms it for the whole run.
//!
//! There is no cancellation flag here. A panicking `cable-par` chunk
//! poisons its own job, whose other chunks stop before their next item;
//! nothing outside that job notices.
//!
//! # Counters
//!
//! `guard.checkpoints` (slow-path checkpoint evaluations) and
//! `guard.budget_exceeded` (budget trips) register in the `cable-obs`
//! registry and therefore appear in `--stats`, `/metrics`, and
//! `/healthz`.

pub mod faults;

use cable_obs::CounterHandle;
use std::any::Any;
use std::cell::Cell;
use std::error::Error;
use std::fmt;
use std::marker::PhantomData;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Slow-path checkpoint evaluations (the fast path — nothing installed —
/// is not counted: counting would cost more than the check).
static CHECKPOINTS: CounterHandle = CounterHandle::new("guard.checkpoints");
/// Budget ceilings tripped (deadline, concepts, or injected).
static BUDGET_TRIPS: CounterHandle = CounterHandle::new("guard.budget_exceeded");

/// Whether a fault plane is installed ([`faults::install`]). `Relaxed`
/// is enough: the flag only lets the fast path skip the plane, which
/// sits behind its own lock.
static FAULTS: AtomicBool = AtomicBool::new(false);

thread_local! {
    /// The calling thread's budget and the instant it was installed.
    static INSTALLED: Cell<Option<(Budget, Instant)>> = const { Cell::new(None) };
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
            GuardError::TaskPanic { message } => write!(f, "task panicked: {message}"),
        }
    }
}

impl Error for GuardError {}

/// Resource ceilings for one guarded operation. Both fields are
/// optional; an all-`None` budget installs nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Budget {
    /// Wall-clock deadline, measured from [`Budget::install`].
    pub deadline: Option<Duration>,
    /// Ceiling on the concept count reported via [`check_concepts`].
    pub max_concepts: Option<u64>,
}

impl Budget {
    /// Whether no ceiling is set.
    pub fn is_empty(&self) -> bool {
        self.deadline.is_none() && self.max_concepts.is_none()
    }

    /// Installs the budget on the **calling thread**, returning the RAII
    /// handle that restores the thread's previous budget (usually none)
    /// on drop. Budgets nest: an inner install shadows the outer budget
    /// until its guard drops. An empty budget installs nothing and the
    /// returned guard is inert.
    ///
    /// Work the thread hands to the `cable-par` pool runs on other
    /// threads and is not bounded by this budget (see the crate docs).
    pub fn install(self) -> InstalledGuard {
        let previous = (!self.is_empty())
            .then(|| INSTALLED.with(|slot| slot.replace(Some((self, Instant::now())))));
        InstalledGuard {
            previous,
            _thread_bound: PhantomData,
        }
    }
}

/// RAII handle for an installed [`Budget`]; restores the thread's
/// previous budget on drop.
///
/// Not `Send`: the budget lives in the installing thread's storage, so
/// dropping it elsewhere would uninstall nothing.
#[derive(Debug)]
pub struct InstalledGuard {
    /// The budget this install shadowed, or `None` for an inert guard.
    previous: Option<Option<(Budget, Instant)>>,
    // A raw-pointer marker keeps the guard on its thread (auto-!Send).
    _thread_bound: PhantomData<*const ()>,
}

impl Drop for InstalledGuard {
    fn drop(&mut self) {
        if let Some(previous) = self.previous.take() {
            INSTALLED.with(|slot| slot.set(previous));
        }
    }
}

/// Whether the calling thread has a [`Budget`] installed. Guarded
/// callers use this to pick their sequential path, whose budget-stopped
/// prefix is deterministic for every worker count (see DESIGN.md §12).
#[inline]
pub fn budget_active() -> bool {
    INSTALLED.with(|slot| slot.get().is_some())
}

pub(crate) fn faults_installed() -> bool {
    FAULTS.load(Ordering::Relaxed)
}

pub(crate) fn set_faults_installed(on: bool) {
    FAULTS.store(on, Ordering::Relaxed);
}

/// The cooperative checkpoint guarded loops call once per unit of work
/// (one object insertion, one trace sweep, one journal record). With
/// nothing installed this is one thread-local read plus one relaxed
/// atomic load; otherwise it evaluates the calling thread's deadline and
/// the fault plane's `budget@site` rules.
///
/// # Errors
///
/// [`GuardError::BudgetExceeded`] on a passed deadline or injected
/// exhaustion.
#[inline]
pub fn checkpoint(site: &str) -> Result<(), GuardError> {
    let installed = INSTALLED.with(Cell::get);
    if installed.is_none() && !faults_installed() {
        return Ok(());
    }
    checkpoint_slow(site, installed)
}

#[cold]
fn checkpoint_slow(site: &str, installed: Option<(Budget, Instant)>) -> Result<(), GuardError> {
    CHECKPOINTS.get().incr();
    let passed = installed.and_then(|(budget, since)| {
        budget
            .deadline
            .filter(|&deadline| since.elapsed() >= deadline)
    });
    let limit = if let Some(deadline) = passed {
        Limit::Deadline {
            limit_ms: deadline.as_millis() as u64,
        }
    } else if faults_installed() && faults::budget_fault_fires(site) {
        Limit::Injected
    } else {
        return Ok(());
    };
    Err(trip(limit, site))
}

/// Checks a concept count against the calling thread's ceiling. Callers
/// report the count *after* each insertion, so a trip at count `c` means
/// the concept set already holds `c` concepts — still a valid
/// prefix-exact set (Godin's invariant).
///
/// # Errors
///
/// [`GuardError::BudgetExceeded`] with [`Limit::Concepts`] once the
/// count passes the ceiling.
#[inline]
pub fn check_concepts(count: usize) -> Result<(), GuardError> {
    let ceiling = INSTALLED
        .with(Cell::get)
        .and_then(|(budget, _)| budget.max_concepts);
    match ceiling {
        Some(limit) if count as u64 > limit => {
            let reached = count as u64;
            Err(trip(
                Limit::Concepts { limit, reached },
                "fca.godin.concepts",
            ))
        }
        _ => Ok(()),
    }
}

/// Counts a budget trip, reports it, and returns the typed error.
fn trip(limit: Limit, site: &str) -> GuardError {
    BUDGET_TRIPS.get().incr();
    let error = GuardError::BudgetExceeded {
        limit,
        site: site.to_owned(),
    };
    emit_trip_event(site, &error);
    error
}

/// One wide event per guard trip, so `/eventz` and the SLO windows see
/// budget exhaustion and contained panics alongside the work they cut
/// short.
fn emit_trip_event(site: &str, error: &GuardError) {
    let (kind, instant) = match error {
        GuardError::BudgetExceeded { .. } => ("budget_trip", "guard.budget_trip"),
        GuardError::TaskPanic { .. } => ("contained_panic", "guard.contained_panic"),
    };
    // A recorder instant too: it carries the active trace context, so a
    // request's waterfall shows *where in the tree* the budget tripped.
    cable_obs::recorder::instant(instant);
    cable_obs::events::emit(
        cable_obs::WideEvent::new(kind, "guard")
            .stage(site)
            .outcome("error")
            .field("error", error.to_string()),
    );
}

/// The panic payload [`bail`] tunnels a [`GuardError`] through
/// `cable-par` closures with (the closures return plain values, so a
/// budget trip inside one unwinds instead). [`contain`] and the pool's
/// panic recovery recognise it and convert it back into the typed error
/// rather than counting it as a task panic.
#[derive(Debug)]
pub struct GuardUnwind(pub GuardError);

/// Unwinds with a [`GuardUnwind`] payload. Only reachable from code
/// running under a [`contain`] (or `cable-par` chunk) boundary.
pub fn bail(error: GuardError) -> ! {
    std::panic::panic_any(GuardUnwind(error))
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uninstalled_checkpoint_is_ok() {
        assert_eq!(checkpoint("test.site"), Ok(()));
        assert_eq!(check_concepts(1_000_000), Ok(()));
        assert!(!budget_active());
    }

    #[test]
    fn deadline_trips_only_on_the_installing_thread() {
        let guard = Budget {
            deadline: Some(Duration::from_millis(0)),
            ..Budget::default()
        }
        .install();
        assert!(budget_active());
        std::thread::sleep(Duration::from_millis(2));
        let err = checkpoint("test.deadline").unwrap_err();
        assert!(matches!(
            err,
            GuardError::BudgetExceeded {
                limit: Limit::Deadline { .. },
                ..
            }
        ));
        // Another thread shares the process but not the budget.
        std::thread::scope(|s| {
            let handle = s.spawn(|| (checkpoint("test.other_thread"), budget_active()));
            assert_eq!(handle.join().unwrap(), (Ok(()), false));
        });
        drop(guard);
        assert_eq!(checkpoint("test.deadline"), Ok(()));
        assert!(!budget_active());
    }

    #[test]
    fn concept_ceiling_trips_past_the_limit() {
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
    fn budgets_nest_and_restore_on_drop() {
        let outer = Budget {
            max_concepts: Some(100),
            ..Budget::default()
        }
        .install();
        {
            let _inner = Budget {
                max_concepts: Some(5),
                ..Budget::default()
            }
            .install();
            assert!(check_concepts(6).is_err());
        }
        // Inner dropped: the outer ceiling applies again.
        assert_eq!(check_concepts(6), Ok(()));
        assert!(check_concepts(101).is_err());
        drop(outer);
        assert_eq!(check_concepts(101), Ok(()));
    }

    #[test]
    fn empty_budget_installs_nothing() {
        let _guard = Budget::default().install();
        assert!(!budget_active());
        assert_eq!(checkpoint("test.empty"), Ok(()));
    }

    #[test]
    fn contain_converts_panics_and_guard_unwinds() {
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
}
