//! The on-disk store: a directory holding one snapshot and one journal.
//!
//! ```text
//! <dir>/snapshot.cable   full session state, published atomically
//! <dir>/journal.cable    appends since that snapshot
//! ```
//!
//! **Write protocol.** The snapshot is never modified in place: a new
//! image is written to `snapshot.cable.tmp`, fsynced, renamed over
//! `snapshot.cable`, and the directory fsynced — so a reader always
//! finds either the old or the new snapshot, whole. The journal *is*
//! appended in place (that is what makes appends cheap), and each
//! record frame carries its own checksum so a torn append damages only
//! the tail.
//!
//! **Generations.** Snapshot and journal each carry a generation
//! number. [`Store::compact`] first publishes a new snapshot at
//! generation `g+1`, then resets the journal to `g+1`. A crash between
//! the two steps leaves a generation-`g` journal beside the `g+1`
//! snapshot; [`Store::open`] detects the stale journal by the mismatch
//! and discards it instead of replaying its (already folded-in) records
//! twice.
//!
//! **Recovery.** Opening a store replays the journal's valid prefix
//! ([`crate::journal::replay`]) and truncates the file back to that
//! prefix before any further append, so damaged tail bytes are never
//! appended after.
//!
//! **Fail-stop durability (DESIGN.md §17).** Any write-path failure —
//! a journal append, a journal fsync, a snapshot or journal publish —
//! flips the store to [`Durability::ReadOnly`]: every later write is
//! refused with [`StoreError::Degraded`] until [`Store::recover`]
//! republishes known-good state. The fsync rule in particular is
//! absolute: after a failed `sync_all` the kernel may already have
//! dropped the dirty pages, so retrying the fsync on the same handle
//! can report success over lost data (the "fsyncgate" failure mode).
//! Recovery therefore never touches the poisoned handles — it publishes
//! the caller's in-memory state (which, by the journal-before-apply
//! discipline, holds exactly the acknowledged operations) as a fresh
//! generation through brand-new file handles, exactly like a
//! compaction. Reads never degrade the store.

use crate::corpus::{decode_snapshot, encode_snapshot, SnapshotData};
use crate::journal::{self, JournalRecord, TailState};
use crate::{shim, StoreError};
use cable_obs::{CounterHandle, HistogramHandle};
use std::fs::{self, File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Bytes written to store files (snapshot images, journal appends).
static BYTES_WRITTEN: CounterHandle = CounterHandle::new("store.bytes_written");
/// `fsync` calls issued (files and directories).
static FSYNCS: CounterHandle = CounterHandle::new("store.fsyncs");
/// Journal records replayed on open.
static JOURNAL_REPLAYED: CounterHandle = CounterHandle::new("store.journal.replayed");
/// Journal records appended.
static JOURNAL_APPENDS: CounterHandle = CounterHandle::new("store.journal.appends");
/// Damaged or stale journal bytes discarded on open.
static JOURNAL_DISCARDED_BYTES: CounterHandle = CounterHandle::new("store.journal.discarded_bytes");
/// Compactions performed.
static COMPACTIONS: CounterHandle = CounterHandle::new("store.compactions");
/// Transitions into the read-only degraded state (monotonic; a store is
/// degraded right now iff `enter - exit > 0`).
static DEGRADED_ENTER: CounterHandle = CounterHandle::new("store.degraded.enter");
/// Successful recoveries out of the degraded state (monotonic).
static DEGRADED_EXIT: CounterHandle = CounterHandle::new("store.degraded.exit");
/// Writes refused because the store was read-only.
static DEGRADED_REFUSALS: CounterHandle = CounterHandle::new("store.degraded.refusals");
/// Failed batches whose unacknowledged journal frames were truncated
/// away so they cannot replay on a later open.
static BATCH_ROLLBACKS: CounterHandle = CounterHandle::new("store.journal.rollbacks");
/// Time spent inside file `fsync` calls, µs — the durability cost of
/// the journal-before-apply discipline, surfaced as the `fsync` stage
/// in `reproduce trace-report`.
static WAIT_FSYNC: HistogramHandle = HistogramHandle::new("wait.fsync.us");

/// File name of the snapshot inside a store directory.
pub const SNAPSHOT_FILE: &str = "snapshot.cable";
/// File name of the journal inside a store directory.
pub const JOURNAL_FILE: &str = "journal.cable";
const SNAPSHOT_TMP: &str = "snapshot.cable.tmp";
const JOURNAL_TMP: &str = "journal.cable.tmp";

/// What [`Store::open`] found and did, for observability and tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Journal records replayed onto the snapshot state.
    pub replayed: usize,
    /// Damaged tail bytes truncated away from the journal.
    pub discarded_bytes: usize,
    /// How the journal tail ended.
    pub tail: TailState,
    /// The journal predated the snapshot (crash between the two
    /// compaction steps) and was discarded wholesale.
    pub stale_journal: bool,
}

/// Whether a store accepts writes — the fail-stop durability state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Durability {
    /// Healthy: appends, syncs, and compactions are accepted.
    Writable,
    /// A write-path failure poisoned the handles: every write is
    /// refused with [`StoreError::Degraded`] until [`Store::recover`]
    /// succeeds. Reads keep serving from memory throughout.
    ReadOnly {
        /// Which write-path step failed first (`"fsync"`,
        /// `"journal-append"`, `"publish"`, `"journal-reset"`, …).
        cause: String,
    },
}

/// An open store directory with its journal ready for appends.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    journal: shim::FaultFile,
    generation: u64,
    /// Records in the journal that are not yet folded into the
    /// snapshot: replayed records at open, plus appends since, reset by
    /// compaction. This is the record-grained journal lag `/healthz`
    /// reports.
    journal_records: u64,
    durability: Durability,
}

/// Instruments one fsync call (a `wait.fsync` span into the wait
/// histogram, plus the counter) without caring which handle issues it.
fn timed_sync(sync: impl FnOnce() -> std::io::Result<()>) -> Result<(), StoreError> {
    let result = {
        let _span = cable_obs::Span::enter("wait.fsync", &WAIT_FSYNC);
        sync()
    };
    result?;
    FSYNCS.get().incr();
    Ok(())
}

fn fsync(file: &File) -> Result<(), StoreError> {
    shim::check("store.fsync")?;
    timed_sync(|| file.sync_all())
}

/// Fsyncs a directory so a rename inside it is durable. Directories
/// cannot be opened for syncing on some platforms (notably Windows), so
/// failure to *open* the handle is tolerated — but once open, a failed
/// `sync_all` is a real durability loss and propagates like any other
/// write-path error.
fn fsync_dir(dir: &Path) -> Result<(), StoreError> {
    if let Ok(handle) = File::open(dir) {
        handle.sync_all()?;
        FSYNCS.get().incr();
    }
    Ok(())
}

/// Writes `bytes` to `dir/name` via a temp file, fsync, atomic rename,
/// and directory fsync.
fn publish(dir: &Path, tmp_name: &str, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
    let tmp = dir.join(tmp_name);
    let mut file = shim::FaultWriter::new("store.publish", File::create(&tmp)?);
    file.write_all(bytes)?;
    BYTES_WRITTEN.get().add(bytes.len() as u64);
    let file = file.into_inner();
    fsync(&file)?;
    drop(file);
    fs::rename(&tmp, dir.join(name))?;
    fsync_dir(dir)?;
    Ok(())
}

fn open_journal_for_append(path: &Path, len: u64) -> Result<File, StoreError> {
    let mut file = OpenOptions::new().read(true).write(true).open(path)?;
    file.set_len(len)?;
    file.seek(SeekFrom::End(0))?;
    Ok(file)
}

/// Opens a fresh journal append handle behind the fault shim (writes
/// run under `store.journal.append`, fsyncs under `store.fsync`).
fn journal_handle(path: &Path, len: u64) -> Result<shim::FaultFile, StoreError> {
    Ok(shim::FaultFile::new(
        "store.journal.append",
        "store.fsync",
        open_journal_for_append(path, len)?,
    ))
}

impl Store {
    /// Creates a store directory (which must not already hold one) and
    /// publishes `data` as its first snapshot, with an empty journal.
    ///
    /// # Errors
    ///
    /// Fails if a snapshot already exists at `dir`, or on I/O errors.
    pub fn create(dir: &Path, data: &SnapshotData) -> Result<Store, StoreError> {
        fs::create_dir_all(dir)?;
        if dir.join(SNAPSHOT_FILE).exists() {
            return Err(StoreError::format(format!(
                "{} already holds a store",
                dir.display()
            )));
        }
        publish(dir, SNAPSHOT_TMP, SNAPSHOT_FILE, &encode_snapshot(data))?;
        let header = journal::header(data.generation);
        publish(dir, JOURNAL_TMP, JOURNAL_FILE, &header)?;
        let journal = journal_handle(&dir.join(JOURNAL_FILE), header.len() as u64)?;
        cable_obs::recorder::instant("store.create");
        Ok(Store {
            dir: dir.to_owned(),
            journal,
            generation: data.generation,
            journal_records: 0,
            durability: Durability::Writable,
        })
    }

    /// Opens an existing store: reads the snapshot, replays the
    /// journal's valid prefix, and truncates any damaged or stale tail
    /// so subsequent appends extend valid state.
    ///
    /// Returns the snapshot, the journal records to apply on top of it,
    /// and a [`RecoveryReport`].
    ///
    /// # Errors
    ///
    /// Fails on I/O errors, a damaged snapshot (snapshots are published
    /// atomically, so damage is not crash fallout), or a journal whose
    /// magic identifies it as some other kind of file.
    pub fn open(
        dir: &Path,
    ) -> Result<(Store, SnapshotData, Vec<JournalRecord>, RecoveryReport), StoreError> {
        let snapshot_bytes = shim::read("store.snapshot.read", &dir.join(SNAPSHOT_FILE))?;
        let data = decode_snapshot(&snapshot_bytes)?;

        let journal_path = dir.join(JOURNAL_FILE);
        let journal_bytes = match shim::read("store.journal.read", &journal_path) {
            Ok(bytes) => bytes,
            // A missing journal (crash before it was first published)
            // is an empty one.
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e.into()),
        };
        let replay = journal::replay(&journal_bytes)?;
        let stale = replay.generation != data.generation;
        let (records, valid_len, tail) = if stale {
            (Vec::new(), 0, replay.tail)
        } else {
            (replay.records, replay.valid_len, replay.tail)
        };
        let discarded = journal_bytes.len().saturating_sub(valid_len);

        // Repair the file before appending: a stale or headerless
        // journal is reset whole; a dirty tail is truncated away.
        let header = journal::header(data.generation);
        let journal = if stale || valid_len < journal::HEADER_LEN {
            publish(dir, JOURNAL_TMP, JOURNAL_FILE, &header)?;
            journal_handle(&journal_path, header.len() as u64)?
        } else {
            let file = journal_handle(&journal_path, valid_len as u64)?;
            if discarded > 0 {
                timed_sync(|| file.sync_all())?;
            }
            file
        };

        JOURNAL_REPLAYED.get().add(records.len() as u64);
        JOURNAL_DISCARDED_BYTES.get().add(discarded as u64);
        let report = RecoveryReport {
            replayed: records.len(),
            discarded_bytes: discarded,
            tail,
            stale_journal: stale,
        };
        cable_obs::recorder::instant("store.open");
        if cable_obs::enabled() {
            // Recovery is the store's interesting unit of work: the wide
            // event says what a reopen found, not just that it happened.
            cable_obs::events::emit(
                cable_obs::WideEvent::new("store_open", "store")
                    .stage("store.open")
                    .outcome(if stale || discarded > 0 {
                        "recovered"
                    } else {
                        "ok"
                    })
                    .field("replayed", records.len() as u64)
                    .field("discarded_bytes", discarded as u64)
                    .field("stale_journal", stale)
                    .field("generation", data.generation),
            );
        }
        Ok((
            Store {
                dir: dir.to_owned(),
                journal,
                generation: data.generation,
                journal_records: records.len() as u64,
                durability: Durability::Writable,
            },
            data,
            records,
            report,
        ))
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The current snapshot generation.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The fail-stop durability state.
    pub fn durability(&self) -> &Durability {
        &self.durability
    }

    /// The degradation cause, if the store is read-only.
    pub fn degraded_cause(&self) -> Option<&str> {
        match &self.durability {
            Durability::Writable => None,
            Durability::ReadOnly { cause } => Some(cause),
        }
    }

    /// Whether the store is refusing writes.
    pub fn is_degraded(&self) -> bool {
        matches!(self.durability, Durability::ReadOnly { .. })
    }

    /// Refuses the write if the store is read-only.
    fn ensure_writable(&self) -> Result<(), StoreError> {
        match &self.durability {
            Durability::Writable => Ok(()),
            Durability::ReadOnly { cause } => {
                DEGRADED_REFUSALS.get().incr();
                Err(StoreError::Degraded {
                    cause: cause.clone(),
                })
            }
        }
    }

    /// Flips the store to read-only after a write-path failure. The
    /// transition is counted once (`store.degraded.enter`), and every
    /// failure is announced with a `store_degraded` wide event carrying
    /// its cause; a failure while already degraded (e.g. inside a
    /// failed recovery) only updates the cause.
    fn degrade(&mut self, cause: &str, error: &StoreError) {
        if !self.is_degraded() {
            DEGRADED_ENTER.get().incr();
        }
        if cable_obs::enabled() {
            cable_obs::events::emit(
                cable_obs::WideEvent::new("store_degraded", "store")
                    .stage("store.write")
                    .outcome("read_only")
                    .field("cause", cause.to_owned())
                    .field("error", error.to_string())
                    .field("generation", self.generation),
            );
        }
        cable_obs::recorder::instant("store.degraded");
        self.durability = Durability::ReadOnly {
            cause: cause.to_owned(),
        };
    }

    /// Runs one write-path step; any failure flips the store to
    /// read-only under `cause` before the error propagates.
    fn write_step<T>(
        &mut self,
        cause: &str,
        step: impl FnOnce(&mut Store) -> Result<T, StoreError>,
    ) -> Result<T, StoreError> {
        match step(self) {
            Ok(value) => Ok(value),
            Err(e) => {
                // Guard trips (budget, injected exhaustion) stop the operation
                // but do not indict the disk; only real I/O failures
                // poison durability.
                if !matches!(e, StoreError::Guard(_)) {
                    self.degrade(cause, &e);
                }
                Err(e)
            }
        }
    }

    /// Appends one record to the journal without syncing; call
    /// [`Store::sync`] to make a batch durable, or use
    /// [`Store::append_all`].
    pub fn append(&mut self, record: &JournalRecord) -> Result<(), StoreError> {
        self.ensure_writable()?;
        self.write_frames(&journal::encode_record(record), 1)
    }

    /// Writes `records` encoded frames with one `write_all`: one
    /// `store.journal.append` fault-plane hit, however many records.
    fn write_frames(&mut self, bytes: &[u8], records: u64) -> Result<(), StoreError> {
        self.write_step("journal-append", |store| {
            store.journal.write_all(bytes).map_err(StoreError::from)
        })?;
        BYTES_WRITTEN.get().add(bytes.len() as u64);
        JOURNAL_APPENDS.get().add(records);
        self.journal_records += records;
        cable_obs::recorder::instant("store.journal.append");
        Ok(())
    }

    /// Fsyncs the journal. A failure is fail-stop: the handle is never
    /// fsync-retried (the kernel may have dropped the dirty pages and a
    /// retry can report success over lost data), the store goes
    /// read-only, and [`Store::recover`] must republish state onto
    /// fresh handles.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        self.ensure_writable()?;
        self.write_step("fsync", |store| timed_sync(|| store.journal.sync_all()))
    }

    /// Appends a batch of records. With `sync_each` every record is
    /// written and fsynced on its own (durable the moment it returns, at
    /// one write and one fsync per record — what prefix-exact crash
    /// recovery needs); otherwise the whole batch is encoded into one
    /// buffer, written once and fsynced once.
    ///
    /// The batch is all-or-nothing *in the journal file*: if any write
    /// or fsync fails partway, the frames this batch already wrote are
    /// truncated back off (see `Store::rollback_batch`) before the
    /// error propagates, so a later [`Store::open`] replays exactly the
    /// acknowledged prefix — a batch the caller was never acked cannot
    /// resurrect piecemeal.
    pub fn append_all<'a, I>(&mut self, records: I, sync_each: bool) -> Result<(), StoreError>
    where
        I: IntoIterator<Item = &'a JournalRecord>,
    {
        self.ensure_writable()?;
        let acked_len = self.journal_bytes()?;
        let acked_records = self.journal_records;
        let run = |store: &mut Store| -> Result<(), StoreError> {
            if sync_each {
                for record in records {
                    store.append(record)?;
                    store.sync()?;
                }
                return Ok(());
            }
            let mut bytes = Vec::new();
            let mut count = 0;
            for record in records {
                bytes.extend_from_slice(&journal::encode_record(record));
                count += 1;
            }
            if count > 0 {
                store.write_frames(&bytes, count)?;
            }
            store.sync()
        };
        run(self).inspect_err(|_| self.rollback_batch(acked_len, acked_records))
    }

    /// Discards a failed batch's journaled-but-unacknowledged frames by
    /// truncating the journal back to the length the last acknowledged
    /// write left it at — on a *fresh* handle, never the possibly
    /// poisoned one. Without this, a batch that failed on its third
    /// record would leave two complete frames behind that a later open
    /// happily replays, resurrecting operations the client was told
    /// failed (and will therefore retry, duplicating them).
    ///
    /// Best-effort by design: if even the truncate fails the store is
    /// degraded (if it was not already), and [`Store::recover`] resets
    /// the journal wholesale anyway. Only a crash in the window between
    /// a failed rollback and recovery can still replay unacked frames —
    /// the standard write-ahead caveat documented on [`Store::recover`].
    fn rollback_batch(&mut self, acked_len: u64, acked_records: u64) {
        self.journal_records = acked_records;
        match journal_handle(&self.dir.join(JOURNAL_FILE), acked_len) {
            Ok(handle) => {
                self.journal = handle;
                BATCH_ROLLBACKS.get().incr();
                cable_obs::recorder::instant("store.journal.rollback");
            }
            Err(e) => {
                if !self.is_degraded() {
                    self.degrade("journal-rollback", &e);
                }
            }
        }
    }

    /// Publishes `data` (whose generation must be one past the store's)
    /// as a fresh snapshot and resets the journal — the shared body of
    /// [`Store::compact`] and [`Store::recover`]. Every file handle
    /// involved is newly opened, never a reused (possibly poisoned) one.
    fn republish(&mut self, data: &SnapshotData) -> Result<(), StoreError> {
        if data.generation != self.generation + 1 {
            return Err(StoreError::format(format!(
                "compaction generation {} does not follow {}",
                data.generation, self.generation
            )));
        }
        let snapshot = encode_snapshot(data);
        self.write_step("publish", |store| {
            publish(&store.dir, SNAPSHOT_TMP, SNAPSHOT_FILE, &snapshot)
        })?;
        let header = journal::header(data.generation);
        self.write_step("journal-reset", |store| {
            publish(&store.dir, JOURNAL_TMP, JOURNAL_FILE, &header)?;
            store.journal = journal_handle(&store.dir.join(JOURNAL_FILE), header.len() as u64)?;
            Ok(())
        })?;
        self.generation = data.generation;
        self.journal_records = 0;
        Ok(())
    }

    /// Folds the journal into a fresh snapshot: publishes `data` (whose
    /// generation must be one past the store's) atomically, then resets
    /// the journal. Crash-safe at every step — see the module docs.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors or a generation mismatch.
    pub fn compact(&mut self, data: &SnapshotData) -> Result<(), StoreError> {
        self.ensure_writable()?;
        self.republish(data)?;
        COMPACTIONS.get().incr();
        cable_obs::recorder::instant("store.compact");
        Ok(())
    }

    /// Restores write service after a degradation by publishing the
    /// caller's in-memory state (exactly the acknowledged operations —
    /// the journal-before-apply discipline guarantees nothing
    /// unacknowledged ever reaches memory) as generation
    /// `self.generation + 1` through fresh file handles, then marking
    /// the store writable again. A no-op on a writable store.
    ///
    /// The poisoned journal handle is never fsync-retried; the old
    /// journal file is reset wholesale, so an unacknowledged tail from
    /// the failed write cannot replay later. A crash between the
    /// degradation and a successful recover leaves the old journal in
    /// place, where the next [`Store::open`] replays its valid prefix —
    /// standard write-ahead semantics (see DESIGN.md §17).
    ///
    /// # Errors
    ///
    /// Fails on I/O errors (the store then stays read-only, with the
    /// cause updated to the failing recovery step) or a generation
    /// mismatch.
    pub fn recover(&mut self, data: &SnapshotData) -> Result<(), StoreError> {
        let Durability::ReadOnly { cause } = &self.durability else {
            return Ok(());
        };
        let cause = cause.clone();
        self.republish(data)?;
        self.durability = Durability::Writable;
        DEGRADED_EXIT.get().incr();
        if cable_obs::enabled() {
            cable_obs::events::emit(
                cable_obs::WideEvent::new("store_recovered", "store")
                    .stage("store.recover")
                    .outcome("ok")
                    .field("cause", cause)
                    .field("generation", self.generation),
            );
        }
        cable_obs::recorder::instant("store.recover");
        Ok(())
    }

    /// Size in bytes of the current snapshot file.
    pub fn snapshot_bytes(&self) -> Result<u64, StoreError> {
        Ok(fs::metadata(self.dir.join(SNAPSHOT_FILE))?.len())
    }

    /// Size in bytes of the current journal file.
    pub fn journal_bytes(&self) -> Result<u64, StoreError> {
        Ok(fs::metadata(self.dir.join(JOURNAL_FILE))?.len())
    }

    /// Journal bytes past the header: the byte-grained lag between the
    /// published snapshot and the live state, i.e. what a crash now
    /// would have to replay on the next open.
    pub fn journal_lag_bytes(&self) -> Result<u64, StoreError> {
        Ok(self
            .journal_bytes()?
            .saturating_sub(journal::HEADER_LEN as u64))
    }

    /// Journal records not yet folded into the snapshot (replayed at
    /// open plus appended since; zero right after a compaction).
    pub fn journal_lag_records(&self) -> u64 {
        self.journal_records
    }
}

impl Drop for Store {
    fn drop(&mut self) {
        // A handle discarded while still read-only (e.g. a degraded
        // session LRU-evicted before anyone called recover) exits its
        // degradation here: the next open replays the journal's valid
        // prefix onto fresh handles and is writable. Keeping the exit
        // counter in step makes `degraded.enter - degraded.exit` the
        // count of *live* degraded handles, which is what `/healthz`
        // reports as `degraded_now`.
        if self.is_degraded() {
            DEGRADED_EXIT.get().incr();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cable_trace::{Trace, TraceSet, Vocab};
    use cable_util::BitSet;

    fn sample_data(generation: u64) -> SnapshotData {
        let mut vocab = Vocab::new();
        let mut traces = TraceSet::new();
        traces.push(Trace::parse("a(X) b(X)", &mut vocab).unwrap());
        SnapshotData {
            generation,
            n_attributes: 2,
            vocab,
            fa_text: String::new(),
            traces,
            labels: Vec::new(),
            rows: vec![BitSet::singleton(0)],
            concepts: vec![
                (BitSet::singleton(0), BitSet::new()),
                (BitSet::new(), BitSet::full(2)),
            ],
        }
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("cable-store-test-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn create_append_reopen_replays() {
        let dir = tmp_dir("reopen");
        let mut store = Store::create(&dir, &sample_data(0)).unwrap();
        let records = vec![
            JournalRecord::Trace("c(Y)".to_owned()),
            JournalRecord::Label {
                class: 0,
                name: "fine".to_owned(),
            },
        ];
        store.append_all(&records, false).unwrap();
        drop(store);

        let (_store, data, replayed, report) = Store::open(&dir).unwrap();
        assert_eq!(data.generation, 0);
        assert_eq!(replayed, records);
        assert_eq!(report.replayed, 2);
        assert_eq!(report.discarded_bytes, 0);
        assert_eq!(report.tail, TailState::Clean);
        assert!(!report.stale_journal);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_once_and_for_all() {
        let dir = tmp_dir("torn");
        let mut store = Store::create(&dir, &sample_data(0)).unwrap();
        store
            .append_all([&JournalRecord::Trace("c(Y)".to_owned())], true)
            .unwrap();
        drop(store);

        // Tear the file mid-record.
        let path = dir.join(JOURNAL_FILE);
        let whole = fs::read(&path).unwrap();
        let torn_len = whole.len() + 3;
        let mut torn = whole.clone();
        torn.extend_from_slice(
            &journal::encode_record(&JournalRecord::Trace("d(Z)".to_owned()))[..3],
        );
        assert_eq!(torn.len(), torn_len);
        fs::write(&path, &torn).unwrap();

        let (mut store, _, replayed, report) = Store::open(&dir).unwrap();
        assert_eq!(replayed.len(), 1);
        assert_eq!(report.tail, TailState::Torn);
        assert_eq!(report.discarded_bytes, 3);
        // The truncation is durable: appends extend the valid prefix.
        store
            .append_all([&JournalRecord::Trace("e(X)".to_owned())], false)
            .unwrap();
        drop(store);
        let (_, _, replayed, report) = Store::open(&dir).unwrap();
        assert_eq!(replayed.len(), 2);
        assert_eq!(report.tail, TailState::Clean);
        assert_eq!(report.discarded_bytes, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_resets_the_journal_and_bumps_the_generation() {
        let dir = tmp_dir("compact");
        let mut store = Store::create(&dir, &sample_data(0)).unwrap();
        store
            .append_all([&JournalRecord::Trace("c(Y)".to_owned())], false)
            .unwrap();
        let journal_before = store.journal_bytes().unwrap();
        store.compact(&sample_data(1)).unwrap();
        assert!(store.journal_bytes().unwrap() < journal_before);
        assert_eq!(store.generation(), 1);
        drop(store);

        let (_, data, replayed, report) = Store::open(&dir).unwrap();
        assert_eq!(data.generation, 1);
        assert!(replayed.is_empty());
        assert!(!report.stale_journal);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_journal_after_interrupted_compaction_is_discarded() {
        let dir = tmp_dir("stale");
        let mut store = Store::create(&dir, &sample_data(0)).unwrap();
        store
            .append_all([&JournalRecord::Trace("c(Y)".to_owned())], false)
            .unwrap();
        drop(store);
        // Simulate a crash between the two compaction steps: new
        // snapshot published, journal still at the old generation.
        publish(
            &dir,
            SNAPSHOT_TMP,
            SNAPSHOT_FILE,
            &encode_snapshot(&sample_data(1)),
        )
        .unwrap();

        let (_, data, replayed, report) = Store::open(&dir).unwrap();
        assert_eq!(data.generation, 1);
        assert!(replayed.is_empty(), "stale records must not replay");
        assert!(report.stale_journal);
        assert!(report.discarded_bytes > 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn create_refuses_to_clobber() {
        let dir = tmp_dir("clobber");
        let _ = Store::create(&dir, &sample_data(0)).unwrap();
        assert!(Store::create(&dir, &sample_data(0)).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compact_checks_the_generation() {
        let dir = tmp_dir("gen");
        let mut store = Store::create(&dir, &sample_data(0)).unwrap();
        assert!(store.compact(&sample_data(5)).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn journal_lag_tracks_appends_replays_and_compaction() {
        let dir = tmp_dir("lag");
        let mut store = Store::create(&dir, &sample_data(0)).unwrap();
        assert_eq!(store.journal_lag_records(), 0);
        assert_eq!(store.journal_lag_bytes().unwrap(), 0);
        store
            .append_all([&JournalRecord::Trace("c(Y)".to_owned())], false)
            .unwrap();
        assert_eq!(store.journal_lag_records(), 1);
        assert!(store.journal_lag_bytes().unwrap() > 0);
        drop(store);

        // Reopening carries the replayed records as lag.
        let (mut store, _, _, _) = Store::open(&dir).unwrap();
        assert_eq!(store.journal_lag_records(), 1);

        store.compact(&sample_data(1)).unwrap();
        assert_eq!(store.journal_lag_records(), 0);
        assert_eq!(store.journal_lag_bytes().unwrap(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn counters_account_for_the_traffic() {
        let before = cable_obs::registry().snapshot();
        let dir = tmp_dir("counters");
        let mut store = Store::create(&dir, &sample_data(0)).unwrap();
        store
            .append_all([&JournalRecord::Trace("c(Y)".to_owned())], true)
            .unwrap();
        store.compact(&sample_data(1)).unwrap();
        drop(store);
        let _ = Store::open(&dir).unwrap();
        let delta = cable_obs::registry().snapshot().delta_since(&before);
        assert!(delta.counter("store.bytes_written").unwrap_or(0) > 0);
        assert!(delta.counter("store.fsyncs").unwrap_or(0) >= 3);
        assert!(delta.counter("store.journal.appends").unwrap_or(0) >= 1);
        // Counters are process-wide and other tests compact too: bound
        // from below.
        assert!(delta.counter("store.compactions").unwrap_or(0) >= 1);
        fs::remove_dir_all(&dir).unwrap();
    }
}
