//! Crash-safe persistence for Cable sessions.
//!
//! The paper's tool is interactive: a user labels concepts over many
//! sittings, and Godin's algorithm is chosen precisely because it is
//! *incremental*. This crate supplies the durable half of that story —
//! a store directory holding the session corpus, labels, and lattice,
//! that survives crashes and lets `cable-core` resume a session and
//! extend it without rebuilding from scratch.
//!
//! A store is a directory with two files:
//!
//! * **`snapshot.cable`** — the complete session state (vocabulary,
//!   automaton, traces, labels, context rows, lattice concepts) as
//!   length-prefixed, CRC-32-checksummed frames ([`corpus`]). Published
//!   atomically: temp file, fsync, rename, directory fsync.
//! * **`journal.cable`** — a write-ahead journal of appends since the
//!   snapshot (new traces, label decisions), one checksummed frame per
//!   record ([`journal`]). Appended in place; after a crash the valid
//!   record prefix is replayed and any torn or corrupt tail truncated.
//!
//! [`store::Store`] ties the two together with compaction (fold the
//! journal into a fresh snapshot) made crash-safe by generation
//! numbers. [`store::Store::compact`] and the module docs spell out the
//! protocol; the fault-injection tests in `tests/` verify the recovery
//! invariant byte by byte.
//!
//! The crate depends only on `cable-trace` (the binary trace codec),
//! `cable-util`, and `cable-obs` — the session semantics live in
//! `cable-core`, which converts [`corpus::SnapshotData`] to and from a
//! live session.
//!
//! Observability: `store.bytes_written`, `store.fsyncs`,
//! `store.journal.appends`, `store.journal.replayed`,
//! `store.journal.discarded_bytes`, `store.compactions`, and the
//! degraded-mode gauges `store.degraded.enter` / `store.degraded.exit`
//! / `store.degraded.refusals`, plus the `store_degraded` /
//! `store_recovered` wide events, which carry the cause.

pub mod corpus;
pub mod crc;
pub mod frame;
pub mod journal;
pub mod shim;
pub mod store;

pub use corpus::SnapshotData;
pub use journal::{JournalRecord, TailState};
pub use store::{Durability, RecoveryReport, Store};

use std::error::Error;
use std::fmt;

/// Error reading or writing a store.
#[derive(Debug)]
pub enum StoreError {
    /// An operating-system I/O failure.
    Io(std::io::Error),
    /// The bytes on disk do not form a valid store file.
    Format(String),
    /// The calling thread's `cable-guard` budget (or an injected
    /// `budget@` fault) tripped mid-operation: ingest and replay
    /// checkpoint between records.
    Guard(cable_guard::GuardError),
    /// The store is read-only after a write-path failure (fail-stop
    /// durability, DESIGN.md §17): writes are refused until
    /// [`store::Store::recover`] republishes known-good state onto
    /// fresh handles. `cause` is the degradation reason
    /// (`"fsync"`, `"journal-append"`, `"publish"`, …).
    Degraded {
        /// Which write-path step failed first.
        cause: String,
    },
}

impl StoreError {
    /// Builds a format error.
    pub fn format(message: impl Into<String>) -> StoreError {
        StoreError::Format(message.into())
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store i/o error: {e}"),
            StoreError::Format(m) => write!(f, "store format error: {m}"),
            StoreError::Guard(e) => write!(f, "store operation stopped: {e}"),
            StoreError::Degraded { cause } => {
                write!(f, "store is read-only (degraded: {cause})")
            }
        }
    }
}

impl Error for StoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Format(_) => None,
            StoreError::Guard(e) => Some(e),
            StoreError::Degraded { .. } => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<cable_guard::GuardError> for StoreError {
    fn from(e: cable_guard::GuardError) -> Self {
        StoreError::Guard(e)
    }
}

impl From<cable_trace::binary::DecodeError> for StoreError {
    fn from(e: cable_trace::binary::DecodeError) -> Self {
        StoreError::Format(e.to_string())
    }
}
