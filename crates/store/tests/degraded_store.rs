//! Fail-stop durability at the store layer (DESIGN.md §17): an injected
//! write-path failure flips the store read-only, further writes are
//! refused with [`StoreError::Degraded`], and [`Store::recover`]
//! republishes known-good state onto fresh handles — never retrying an
//! fsync on a handle that already failed one.
//!
//! The fault plane is process-global, so these tests run in their own
//! integration binary and serialise on a local mutex.

use cable_store::corpus::SnapshotData;
use cable_store::{JournalRecord, Store, StoreError, TailState};
use cable_trace::{Trace, TraceSet, Vocab};
use cable_util::BitSet;
use std::fs;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "cable-store-degraded-{}-{name}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn snapshot(generation: u64) -> SnapshotData {
    let mut vocab = Vocab::new();
    let mut traces = TraceSet::new();
    traces.push(Trace::parse("fopen(X) fclose(X)", &mut vocab).unwrap());
    SnapshotData {
        generation,
        n_attributes: 2,
        vocab,
        fa_text: "start s0\naccept s0\n".to_owned(),
        traces,
        labels: vec![],
        rows: vec![[0usize, 1].into_iter().collect()],
        concepts: vec![
            ([0usize].into_iter().collect(), BitSet::new()),
            (BitSet::new(), BitSet::full(2)),
        ],
    }
}

fn records() -> Vec<JournalRecord> {
    vec![
        JournalRecord::Trace("fopen(Y) fclose(Y)".to_owned()),
        JournalRecord::Label {
            class: 0,
            name: "good".to_owned(),
        },
        JournalRecord::Trace("fopen(Z) fread(Z)".to_owned()),
        JournalRecord::Trace("popen(X) pclose(X)".to_owned()),
    ]
}

fn counter(name: &str) -> u64 {
    cable_obs::registry().snapshot().counter(name).unwrap_or(0)
}

#[test]
fn fsync_failure_degrades_refuses_writes_and_recovery_restores_them() {
    let _l = lock();
    let dir = tmp_dir("fsync");
    let mut store = Store::create(&dir, &snapshot(0)).unwrap();
    store.append_all(&records()[..2], true).unwrap();
    let enters = counter("store.degraded.enter");
    let exits = counter("store.degraded.exit");
    let refusals = counter("store.degraded.refusals");

    // The append lands; the fsync fails. Fail-stop: the store degrades
    // in that same operation and the un-synced record is never
    // acknowledged.
    cable_guard::faults::install("5:io@store.fsync").unwrap();
    store.append(&records()[2]).unwrap();
    let err = store.sync().expect_err("injected fsync failure");
    cable_guard::faults::uninstall();
    assert!(matches!(err, StoreError::Io(_)), "{err}");
    assert!(store.is_degraded());
    assert_eq!(store.degraded_cause(), Some("fsync"));
    assert_eq!(counter("store.degraded.enter"), enters + 1);

    // Writes are refused with the declared error while degraded.
    let refused = store.append(&records()[3]).expect_err("read-only");
    assert!(
        matches!(&refused, StoreError::Degraded { cause } if cause == "fsync"),
        "{refused}"
    );
    assert_eq!(counter("store.degraded.refusals"), refusals + 1);

    // Recovery republishes the acknowledged state at the next
    // generation, onto fresh handles (the failed-fsync handle is never
    // fsync-retried), and restores writability.
    store.recover(&snapshot(1)).unwrap();
    assert!(!store.is_degraded());
    assert_eq!(store.generation(), 1);
    assert_eq!(counter("store.degraded.exit"), exits + 1);

    // The store is fully usable: post-recovery appends are durable and
    // a reopen replays exactly them — the un-acknowledged record from
    // the failed operation is gone with the journal reset.
    store.append_all(&records()[2..], true).unwrap();
    drop(store);
    let (_, data, replayed, report) = Store::open(&dir).unwrap();
    assert_eq!(data.generation, 1);
    assert_eq!(replayed, records()[2..]);
    assert_eq!(report.tail, TailState::Clean);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn short_write_leaves_a_torn_record_that_reopen_truncates() {
    let _l = lock();
    let dir = tmp_dir("short");
    let mut store = Store::create(&dir, &snapshot(0)).unwrap();
    store.append_all(&records()[..2], true).unwrap();

    // A short write commits half the record's bytes, then fails: the
    // torn frame a real partial write leaves.
    cable_guard::faults::install("5:io:short@store.journal.append").unwrap();
    let err = store.append(&records()[2]).expect_err("short write fires");
    cable_guard::faults::uninstall();
    assert!(matches!(err, StoreError::Io(_)), "{err}");
    assert_eq!(store.degraded_cause(), Some("journal-append"));

    // Discarding a still-degraded handle (the eviction path) exits the
    // degradation: enter - exit counts live degraded handles only.
    let exits = counter("store.degraded.exit");
    drop(store);
    assert_eq!(counter("store.degraded.exit"), exits + 1);

    // Crash while degraded, before any recovery: standard WAL recovery
    // truncates the torn tail and replays exactly the acknowledged
    // prefix.
    let (_, _, replayed, report) = Store::open(&dir).unwrap();
    assert_eq!(replayed, records()[..2]);
    assert_eq!(report.tail, TailState::Torn);
    assert!(report.discarded_bytes > 0);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_failed_batch_rolls_back_its_unacknowledged_frames() {
    let _l = lock();
    let dir = tmp_dir("rollback");
    let mut store = Store::create(&dir, &snapshot(0)).unwrap();
    store.append_all(&records()[..2], true).unwrap();

    // The batch's one write is torn: half its bytes land, so its first
    // record is already a complete frame in the journal, but the caller
    // is answered with an error — nothing in this batch was ever
    // acknowledged.
    cable_guard::faults::install("5:io:short@store.journal.append").unwrap();
    let err = store
        .append_all(&records()[2..], false)
        .expect_err("the batch's write is torn");
    cable_guard::faults::uninstall();
    assert!(matches!(err, StoreError::Io(_)), "{err}");
    assert_eq!(store.degraded_cause(), Some("journal-append"));

    // Rollback truncated the batch's frames away: an eviction-style
    // drop-and-reopen replays exactly the acknowledged prefix — the
    // unacked first record of the failed batch must not resurrect (the
    // client was told the batch failed and will retry all of it).
    drop(store);
    let (_, _, replayed, report) = Store::open(&dir).unwrap();
    assert_eq!(replayed, records()[..2]);
    assert_eq!(report.tail, TailState::Clean);
    assert_eq!(report.discarded_bytes, 0);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn enospc_flavour_surfaces_storage_full_and_degrades() {
    let _l = lock();
    let dir = tmp_dir("enospc");
    let mut store = Store::create(&dir, &snapshot(0)).unwrap();

    cable_guard::faults::install("5:io:enospc@store.journal.append").unwrap();
    let err = store.append(&records()[0]).expect_err("disk full fires");
    cable_guard::faults::uninstall();
    match &err {
        StoreError::Io(e) => assert_eq!(e.kind(), std::io::ErrorKind::StorageFull, "{e}"),
        other => panic!("expected an I/O error, got {other}"),
    }
    assert_eq!(store.degraded_cause(), Some("journal-append"));

    // Space freed: recovery restores writability in place.
    store.recover(&snapshot(1)).unwrap();
    store.append_all(&records()[..1], true).unwrap();
    drop(store);
    let (_, _, replayed, _) = Store::open(&dir).unwrap();
    assert_eq!(replayed, records()[..1]);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn recover_on_a_writable_store_is_rejected_cleanly() {
    let _l = lock();
    let dir = tmp_dir("noop");
    let mut store = Store::create(&dir, &snapshot(0)).unwrap();
    // Writable stores use compact() for generation bumps; recover() is
    // a no-op that leaves the store untouched.
    store.recover(&snapshot(1)).unwrap();
    assert_eq!(store.generation(), 0);
    assert!(!store.is_degraded());
    fs::remove_dir_all(&dir).unwrap();
}
