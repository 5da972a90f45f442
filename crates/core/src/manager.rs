//! The session-manager layer behind the labeling service: a bounded
//! in-memory cache of open [`StoredSession`]s over per-tenant store
//! directories, with LRU eviction back to disk.
//!
//! # Layout and isolation
//!
//! Stores live at `<root>/<tenant>/<session>`, which is exactly the
//! shape [`crate::persist`]'s `session_scope` labels metrics and wide
//! events with — every request a tenant makes is attributed to
//! `tenant=<tenant>, session=<session>` in `/metrics` for free. Tenant
//! and session names are validated against `[A-Za-z0-9_-]{1,64}` before
//! they ever touch a path, so a request cannot traverse outside its
//! tenant directory. Isolation is *directory-level*, not cryptographic:
//! any client of the service can name any tenant (see DESIGN.md §14 for
//! the posture and its boundary).
//!
//! # Eviction = drop
//!
//! Every mutation journals before it applies (`cable-store`'s
//! write-ahead discipline), so an open session's disk state is always
//! complete: evicting is literally dropping the in-memory
//! [`StoredSession`], and reopening replays the journal back to the
//! identical state. The eviction test suite pins this down by digest
//! ([`crate::digest::session_state_record`]), including sessions evicted
//! between ingest batches.
//!
//! Eviction only takes slots it can `try_lock` — a session in the middle
//! of a request holds its slot lock, so in-flight work is never torn
//! down, and the manager never blocks on a busy session while holding
//! another lock (no lock-order deadlocks by construction).

use crate::persist::StoredSession;
use crate::CableSession;
use cable_obs::{CounterHandle, HistogramHandle, Span, WideEvent};
use cable_store::StoreError;
use cable_trace::Vocab;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Sessions created through the manager ([`SessionManager::create`]).
static CREATES: CounterHandle = CounterHandle::new("core.manager.creates");
/// Closed sessions reopened from disk on access (cache misses).
static REOPENS: CounterHandle = CounterHandle::new("core.manager.reopens");
/// Accesses that found the session already open (cache hits).
static HITS: CounterHandle = CounterHandle::new("core.manager.cache_hits");
/// Open sessions evicted back to disk by the LRU sweep.
static EVICTIONS: CounterHandle = CounterHandle::new("core.manager.evictions");
/// Time spent waiting for the process-wide slot-map mutex, µs. This is
/// the contention signal ROADMAP item 1 (sharded slot map) hinges on:
/// the `trace-report` lock-wait stage and the `/metrics` family both
/// read from here.
static WAIT_SLOTS: HistogramHandle = HistogramHandle::new("wait.slots.us");
/// Time spent waiting for a single session's state mutex, µs — high
/// values mean requests are serialising on one hot session, which
/// sharding the slot map would *not* fix.
static WAIT_STATE: HistogramHandle = HistogramHandle::new("wait.state.us");

/// Ceiling on tenant and session name length.
pub const MAX_NAME_LEN: usize = 64;

/// What the caller did wrong (or what the disk did wrong underneath).
#[derive(Debug)]
pub enum ManagerError {
    /// A tenant or session name failed validation.
    BadName {
        /// Which name (`"tenant"` or `"session"`).
        field: &'static str,
        /// The offending value.
        name: String,
    },
    /// [`SessionManager::create`] hit an existing store.
    AlreadyExists(SessionKey),
    /// An access named a session with no store on disk.
    NotFound(SessionKey),
    /// The store layer failed (I/O, corruption, or a guard trip).
    Store(StoreError),
}

impl fmt::Display for ManagerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ManagerError::BadName { field, name } => write!(
                f,
                "invalid {field} name {name:?}: use 1-{MAX_NAME_LEN} characters from [A-Za-z0-9_-]"
            ),
            ManagerError::AlreadyExists(key) => {
                write!(f, "session {key} already exists")
            }
            ManagerError::NotFound(key) => write!(f, "session {key} does not exist"),
            ManagerError::Store(e) => write!(f, "store error: {e}"),
        }
    }
}

impl Error for ManagerError {}

impl From<StoreError> for ManagerError {
    fn from(e: StoreError) -> Self {
        ManagerError::Store(e)
    }
}

/// A tenant-qualified session name — the cache key and the relative
/// store path (`<tenant>/<session>`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SessionKey {
    /// The tenant directory name.
    pub tenant: String,
    /// The session directory name.
    pub session: String,
}

impl SessionKey {
    /// Builds a validated key.
    ///
    /// # Errors
    ///
    /// [`ManagerError::BadName`] if either name is empty, longer than
    /// [`MAX_NAME_LEN`], or holds anything outside `[A-Za-z0-9_-]`.
    pub fn new(tenant: &str, session: &str) -> Result<SessionKey, ManagerError> {
        validate_name("tenant", tenant)?;
        validate_name("session", session)?;
        Ok(SessionKey {
            tenant: tenant.to_owned(),
            session: session.to_owned(),
        })
    }
}

impl fmt::Display for SessionKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.tenant, self.session)
    }
}

fn validate_name(field: &'static str, name: &str) -> Result<(), ManagerError> {
    let ok = !name.is_empty()
        && name.len() <= MAX_NAME_LEN
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-');
    if ok {
        Ok(())
    } else {
        Err(ManagerError::BadName {
            field,
            name: name.to_owned(),
        })
    }
}

/// One session's cache slot. The slot mutex serializes all access to
/// the session — per-session operations are strictly ordered, which is
/// what makes a tenant's digest reproducible by sequential CLI replay.
struct Slot {
    key: SessionKey,
    /// Logical LRU clock value of the last access (manager-wide ticks,
    /// not wall time — deterministic under test).
    last_used: AtomicU64,
    state: Mutex<SlotState>,
}

enum SlotState {
    /// On disk only; the next access reopens it.
    Closed,
    /// Resident. Boxed: a `StoredSession` is large and slots outlive it.
    Open(Box<StoredSession>),
}

/// The bounded cache of open sessions (see module docs).
pub struct SessionManager {
    root: PathBuf,
    max_open: usize,
    clock: AtomicU64,
    open: AtomicUsize,
    slots: Mutex<HashMap<SessionKey, Arc<Slot>>>,
}

impl SessionManager {
    /// A manager rooted at `root` (created lazily) keeping at most
    /// `max_open` sessions resident; 0 is treated as 1.
    pub fn new(root: impl Into<PathBuf>, max_open: usize) -> SessionManager {
        SessionManager {
            root: root.into(),
            max_open: max_open.max(1),
            clock: AtomicU64::new(0),
            open: AtomicUsize::new(0),
            slots: Mutex::new(HashMap::new()),
        }
    }

    /// The store root.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The resident-session ceiling.
    pub fn max_open(&self) -> usize {
        self.max_open
    }

    /// Sessions currently resident.
    pub fn open_count(&self) -> usize {
        self.open.load(Ordering::Relaxed)
    }

    /// The store directory for a key.
    pub fn dir(&self, key: &SessionKey) -> PathBuf {
        self.root.join(&key.tenant).join(&key.session)
    }

    /// Whether a store for the key exists on disk.
    pub fn exists(&self, key: &SessionKey) -> bool {
        self.dir(key).is_dir()
    }

    /// Keys of the currently resident sessions, unordered.
    pub fn list_open(&self) -> Vec<SessionKey> {
        let slots = self.lock_slots();
        slots
            .values()
            .filter(|slot| {
                self.try_lock_state(slot)
                    .map(|state| matches!(*state, SlotState::Open(_)))
                    // A locked slot is mid-request, hence open.
                    .unwrap_or(true)
            })
            .map(|slot| slot.key.clone())
            .collect()
    }

    /// Creates a new stored session under the key and caches it open.
    ///
    /// # Errors
    ///
    /// [`ManagerError::AlreadyExists`] if the store directory exists,
    /// [`ManagerError::Store`] on I/O errors.
    pub fn create(
        &self,
        key: &SessionKey,
        session: CableSession,
        vocab: Vocab,
    ) -> Result<(), ManagerError> {
        let dir = self.dir(key);
        if dir.exists() {
            return Err(ManagerError::AlreadyExists(key.clone()));
        }
        if let Some(parent) = dir.parent() {
            std::fs::create_dir_all(parent).map_err(|e| ManagerError::Store(e.into()))?;
        }
        let stored = match session.save(vocab, &dir) {
            Ok(stored) => stored,
            Err(e) => {
                // A torn create must not wedge the name: the directory
                // did not exist before this call, so drop whatever the
                // failed save left behind and let a retry start clean.
                let _ = std::fs::remove_dir_all(&dir);
                return Err(e.into());
            }
        };
        let slot = self.slot(key);
        {
            let mut state = self.lock_state(&slot);
            // A concurrent create of the same key lost the Store::create
            // race above, so this slot can only be Closed here.
            if matches!(*state, SlotState::Closed) {
                *state = SlotState::Open(Box::new(stored));
                self.open.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.touch(&slot);
        CREATES.get().incr();
        self.evict_excess();
        Ok(())
    }

    /// Runs `f` over the key's session, reopening it from disk if it is
    /// not resident. The slot lock is held for the duration of `f`: a
    /// session's operations are strictly serialized, and eviction cannot
    /// touch a session mid-operation.
    ///
    /// # Errors
    ///
    /// [`ManagerError::NotFound`] for a key with no store on disk,
    /// [`ManagerError::Store`] if reopening fails, plus whatever `f`
    /// returns.
    pub fn with_session<T>(
        &self,
        key: &SessionKey,
        f: impl FnOnce(&mut StoredSession) -> Result<T, ManagerError>,
    ) -> Result<T, ManagerError> {
        let slot = self.slot(key);
        let result = {
            let mut state = self.lock_state(&slot);
            if matches!(*state, SlotState::Closed) {
                let dir = self.dir(key);
                if !dir.is_dir() {
                    return Err(ManagerError::NotFound(key.clone()));
                }
                let (stored, _report) = CableSession::open(&dir)?;
                *state = SlotState::Open(Box::new(stored));
                self.open.fetch_add(1, Ordering::Relaxed);
                REOPENS.get().incr();
            } else {
                HITS.get().incr();
            }
            let SlotState::Open(stored) = &mut *state else {
                unreachable!("slot was just opened");
            };
            f(stored)
        };
        self.touch(&slot);
        self.evict_excess();
        result
    }

    /// Evicts least-recently-used resident sessions until at most
    /// `max_open` remain. Busy slots (lock held by an in-flight
    /// operation) are skipped — they are by definition recently used.
    fn evict_excess(&self) {
        while self.open.load(Ordering::Relaxed) > self.max_open {
            let candidates: Vec<(u64, Arc<Slot>)> = {
                let slots = self.lock_slots();
                // Snapshot each slot's LRU tick *before* sorting: the
                // tick moves under concurrent touches, and a comparator
                // over a moving key is not a total order — std's sort
                // panics on that, here while the slots lock is held.
                let mut v: Vec<(u64, Arc<Slot>)> = slots
                    .values()
                    .map(|slot| (slot.last_used.load(Ordering::Relaxed), Arc::clone(slot)))
                    .collect();
                v.sort_by_key(|&(tick, _)| tick);
                v
            };
            let mut evicted = false;
            for (_, slot) in candidates {
                if self.open.load(Ordering::Relaxed) <= self.max_open {
                    return;
                }
                let Some(mut state) = self.try_lock_state(&slot) else {
                    continue;
                };
                if let SlotState::Open(stored) = &*state {
                    // A degraded store is pinned until it recovers: it
                    // must exit read-only through recovery's front door
                    // (republish + `store_recovered`), not evaporate
                    // through an eviction-and-reopen. This also covers
                    // the rare failed journal rollback, where the file
                    // still holds unacknowledged frames that a reopen
                    // would wrongly replay. The pin clears on the
                    // tenant's next write (auto-recovery) or the
                    // operator's `/recover`.
                    if stored.store().is_degraded() {
                        continue;
                    }
                    cable_obs::events::emit(
                        WideEvent::new("session_evict", slot.key.session.as_str())
                            .stage("evict")
                            .tenant(slot.key.tenant.as_str())
                            .field("generation", stored.store().generation()),
                    );
                    *state = SlotState::Closed;
                    self.open.fetch_sub(1, Ordering::Relaxed);
                    EVICTIONS.get().incr();
                    evicted = true;
                }
            }
            if !evicted {
                // Everything over the ceiling is busy; they will evict
                // themselves on their next quiet sweep.
                return;
            }
        }
    }

    /// Locks the slot map, shrugging off poison. Nothing under this
    /// lock mutates the map except `entry().or_insert_with`, so a panic
    /// mid-critical-section cannot leave the map torn — recovering the
    /// guard is always sound, and refusing would turn one contained
    /// panic into a permanent all-requests-500 outage.
    fn lock_slots(&self) -> std::sync::MutexGuard<'_, HashMap<SessionKey, Arc<Slot>>> {
        let _span = Span::enter("wait.slots", &WAIT_SLOTS);
        match self.slots.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                self.slots.clear_poison();
                poisoned.into_inner()
            }
        }
    }

    /// Locks a slot's state, recovering from poison by dropping the
    /// resident session. A panic inside an operation may have torn the
    /// in-memory `StoredSession`, but the disk is always complete
    /// (journal-before-apply), so `Closed` + reopen reconstructs the
    /// exact pre-recovery state. One panicked request costs one reopen;
    /// it never wedges the session.
    fn lock_state<'a>(&self, slot: &'a Slot) -> std::sync::MutexGuard<'a, SlotState> {
        let _span = Span::enter("wait.state", &WAIT_STATE);
        match slot.state.lock() {
            Ok(guard) => guard,
            Err(poisoned) => self.recover_state(slot, poisoned.into_inner()),
        }
    }

    /// Non-blocking [`Self::lock_state`]: `None` means busy, poison is
    /// recovered the same way.
    fn try_lock_state<'a>(&self, slot: &'a Slot) -> Option<std::sync::MutexGuard<'a, SlotState>> {
        match slot.state.try_lock() {
            Ok(guard) => Some(guard),
            Err(std::sync::TryLockError::WouldBlock) => None,
            Err(std::sync::TryLockError::Poisoned(poisoned)) => {
                Some(self.recover_state(slot, poisoned.into_inner()))
            }
        }
    }

    fn recover_state<'a>(
        &self,
        slot: &'a Slot,
        mut guard: std::sync::MutexGuard<'a, SlotState>,
    ) -> std::sync::MutexGuard<'a, SlotState> {
        if matches!(*guard, SlotState::Open(_)) {
            *guard = SlotState::Closed;
            self.open.fetch_sub(1, Ordering::Relaxed);
            EVICTIONS.get().incr();
        }
        slot.state.clear_poison();
        cable_obs::events::emit(
            WideEvent::new("session_poison_recovered", slot.key.session.as_str())
                .stage("recover")
                .tenant(slot.key.tenant.as_str()),
        );
        guard
    }

    fn slot(&self, key: &SessionKey) -> Arc<Slot> {
        let mut slots = self.lock_slots();
        Arc::clone(slots.entry(key.clone()).or_insert_with(|| {
            Arc::new(Slot {
                key: key.clone(),
                last_used: AtomicU64::new(0),
                state: Mutex::new(SlotState::Closed),
            })
        }))
    }

    fn touch(&self, slot: &Slot) {
        let tick = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        slot.last_used.store(tick, Ordering::Relaxed);
    }
}

impl fmt::Debug for SessionManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SessionManager")
            .field("root", &self.root)
            .field("max_open", &self.max_open)
            .field("open", &self.open_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cable_fa::templates;
    use cable_trace::{Trace, TraceSet};
    use std::path::PathBuf;

    fn tmp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "cable-core-manager-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_session() -> (CableSession, Vocab) {
        let mut vocab = Vocab::new();
        let mut traces = TraceSet::new();
        traces.push(Trace::parse("fopen(X) fclose(X)", &mut vocab).unwrap());
        let all: Vec<Trace> = traces.iter().map(|(_, t)| t.clone()).collect();
        let fa = templates::unordered_of_trace_events(&all);
        (CableSession::new(traces, fa), vocab)
    }

    #[test]
    fn names_are_validated_before_touching_paths() {
        assert!(SessionKey::new("t1", "s1").is_ok());
        assert!(SessionKey::new("t-1_A", "s-2_B").is_ok());
        for bad in ["", "a/b", "..", "a b", "a\nb", &"x".repeat(65)] {
            assert!(SessionKey::new(bad, "s").is_err(), "tenant {bad:?}");
            assert!(SessionKey::new("t", bad).is_err(), "session {bad:?}");
        }
    }

    #[test]
    fn create_open_evict_reopen_round_trip() {
        let root = tmp_root("roundtrip");
        let manager = SessionManager::new(&root, 1);
        let a = SessionKey::new("t1", "a").unwrap();
        let b = SessionKey::new("t1", "b").unwrap();
        let (session, vocab) = sample_session();
        manager.create(&a, session, vocab).unwrap();
        assert_eq!(manager.open_count(), 1);
        assert!(manager.exists(&a));
        assert!(root.join("t1").join("a").is_dir());

        // Creating a second session under a 1-session ceiling evicts the
        // first back to disk.
        let (session, vocab) = sample_session();
        manager.create(&b, session, vocab).unwrap();
        assert_eq!(manager.open_count(), 1);
        let open = manager.list_open();
        assert_eq!(open, vec![b.clone()]);

        // Accessing the evicted session reopens it transparently.
        let traces = manager
            .with_session(&a, |stored| Ok(stored.session().traces().len()))
            .unwrap();
        assert_eq!(traces, 1);
        assert_eq!(manager.open_count(), 1, "reopening a evicted b");

        // Double create is a conflict, not an overwrite.
        let (session, vocab) = sample_session();
        assert!(matches!(
            manager.create(&a, session, vocab),
            Err(ManagerError::AlreadyExists(_))
        ));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn panic_mid_operation_does_not_wedge_the_session() {
        let root = tmp_root("poison");
        let manager = SessionManager::new(&root, 4);
        let key = SessionKey::new("t1", "s").unwrap();
        let (session, vocab) = sample_session();
        manager.create(&key, session, vocab).unwrap();

        // A panic inside an operation poisons the slot mutex with the
        // session resident. The manager must absorb it: drop the torn
        // in-memory state and reopen from the (always-complete) journal
        // on the next access, instead of cascading poison panics into a
        // permanent 500 for this session.
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = manager.with_session(&key, |_| -> Result<(), ManagerError> {
                panic!("injected mid-operation panic");
            });
        }));
        assert!(unwound.is_err(), "the injected panic must unwind");

        let traces = manager
            .with_session(&key, |stored| Ok(stored.session().traces().len()))
            .expect("session recovers after a poisoned operation");
        assert_eq!(traces, 1);
        assert_eq!(manager.open_count(), 1);
        assert_eq!(manager.list_open(), vec![key]);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn missing_sessions_are_not_found() {
        let root = tmp_root("missing");
        let manager = SessionManager::new(&root, 4);
        let key = SessionKey::new("t1", "nope").unwrap();
        assert!(matches!(
            manager.with_session(&key, |_| Ok(())),
            Err(ManagerError::NotFound(_))
        ));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn tenants_do_not_share_session_names() {
        let root = tmp_root("tenants");
        let manager = SessionManager::new(&root, 4);
        let t1 = SessionKey::new("t1", "s").unwrap();
        let t2 = SessionKey::new("t2", "s").unwrap();
        let (session, vocab) = sample_session();
        manager.create(&t1, session, vocab).unwrap();
        assert!(!manager.exists(&t2), "t2/s is a different store");
        let (session, vocab) = sample_session();
        manager.create(&t2, session, vocab).unwrap();
        assert!(root.join("t1").join("s").is_dir());
        assert!(root.join("t2").join("s").is_dir());
        std::fs::remove_dir_all(&root).unwrap();
    }
}
