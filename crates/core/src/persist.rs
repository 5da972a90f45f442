//! Saving and resuming sessions through `cable-store`.
//!
//! The paper's workflow is a long labeling conversation: the user
//! clusters a corpus once, then spends many sittings walking the
//! lattice and naming concepts. This module makes that conversation
//! durable. [`CableSession::save`] publishes the whole session —
//! vocabulary, automaton, traces, labels, context rows, lattice — as a
//! store snapshot; [`CableSession::open`] reads it back and replays the
//! write-ahead journal of decisions made since.
//!
//! The payoff is *incremental resume*: the snapshot carries the context
//! rows and lattice concepts verbatim, so opening a store rebuilds the
//! session with `Context::from_rows` and `ConceptLattice::from_concepts`
//! — no Godin pass over the corpus — and traces ingested afterwards go
//! through [`CableSession::push_traces`], which extends the persisted
//! lattice with `fca::godin::Inserter` instead of rebuilding it. The
//! `fca.godin.*` and `store.journal.*` counters make both savings
//! visible.
//!
//! [`StoredSession`] pairs the live session with its open store and
//! keeps the two in step under a write-ahead discipline: every mutation
//! is journaled (and fsynced) *before* it is applied in memory, so the
//! store never claims less than the session knows.

use crate::server::HealthInfo;
use crate::session::CableSession;
use cable_fa::Fa;
use cable_fca::{Concept, ConceptLattice, Context};
use cable_obs::{scoped, CounterHandle, Scope, Span, WideEvent};
use cable_store::{JournalRecord, RecoveryReport, SnapshotData, Store, StoreError};
use cable_trace::{Trace, TraceId, TraceSet, Vocab};
use std::path::Path;
use std::time::Instant;

/// Sessions saved to a store.
static SAVES: CounterHandle = CounterHandle::new("core.session.saves");
/// Sessions resumed from a store.
static RESUMES: CounterHandle = CounterHandle::new("core.session.resumes");
/// Successful degraded-store recoveries through
/// [`StoredSession::recover`].
static RECOVERIES: CounterHandle = CounterHandle::new("core.session.recoveries");

/// Opens the attribution scope for a stored session: `session` is the
/// store directory's basename, `tenant` its parent directory's. Every
/// metric the session writes through this scope rolls up into the
/// global registry and exports as a labelled series on `/metrics`.
fn session_scope(dir: &Path) -> Scope {
    let name = |p: Option<&Path>| -> String {
        p.and_then(Path::file_name)
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| "-".to_owned())
    };
    scoped().open(&[
        ("session", &name(Some(dir))),
        ("tenant", &name(dir.parent())),
    ])
}

impl CableSession {
    /// Captures the session as a snapshot at `generation`.
    ///
    /// `vocab` must be the vocabulary the session's traces and
    /// automaton are interned against.
    pub fn to_snapshot(&self, vocab: &Vocab, generation: u64) -> SnapshotData {
        let labels = (0..self.classes().len())
            .filter_map(|c| {
                self.labels()
                    .get(c)
                    .map(|l| (c as u32, self.labels().name(l).to_owned()))
            })
            .collect();
        let context = self.context();
        SnapshotData {
            generation,
            n_attributes: context.attribute_count(),
            vocab: vocab.clone(),
            fa_text: self.reference_fa().to_text(vocab),
            traces: self.traces().clone(),
            labels,
            rows: (0..context.object_count())
                .map(|c| context.row(c).clone())
                .collect(),
            concepts: self
                .lattice()
                .iter()
                .map(|(_, c)| (c.extent.clone(), c.intent.clone()))
                .collect(),
        }
    }

    /// Rebuilds a session from a snapshot without re-clustering: the
    /// persisted rows and concepts become the context and lattice
    /// directly (no Godin pass — `fca.godin.objects_inserted` stays
    /// flat across this call).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Format`] when the snapshot's parts are
    /// internally inconsistent — wrong counts, unparsable automaton,
    /// duplicate concept extents.
    pub fn from_snapshot(data: SnapshotData) -> Result<(CableSession, Vocab), StoreError> {
        let SnapshotData {
            generation: _,
            n_attributes,
            mut vocab,
            fa_text,
            traces,
            labels,
            rows,
            concepts,
        } = data;
        let fa = Fa::parse(&fa_text, &mut vocab)
            .map_err(|e| StoreError::format(format!("snapshot automaton: {e}")))?;
        if fa.transition_count() != n_attributes {
            return Err(StoreError::format(format!(
                "snapshot automaton has {} transitions, context expects {}",
                fa.transition_count(),
                n_attributes
            )));
        }
        if concepts.is_empty() {
            return Err(StoreError::format("snapshot holds no concepts"));
        }
        // `from_concepts` panics on duplicate extents; turn that shape
        // of damage into an error first.
        let mut extents: Vec<&cable_util::BitSet> = concepts.iter().map(|(e, _)| e).collect();
        extents.sort();
        if extents.windows(2).any(|w| w[0] == w[1]) {
            return Err(StoreError::format("snapshot concepts repeat an extent"));
        }
        let context = Context::from_rows(rows, n_attributes);
        let lattice = ConceptLattice::from_concepts(
            concepts
                .into_iter()
                .map(|(extent, intent)| Concept { extent, intent })
                .collect(),
        );
        let mut session =
            CableSession::from_parts(traces, fa, context, lattice).map_err(StoreError::Format)?;
        let n_classes = session.classes().len();
        for (class, name) in labels {
            let class = class as usize;
            if class >= n_classes {
                return Err(StoreError::format(format!(
                    "snapshot labels class {class} of {n_classes}"
                )));
            }
            session.set_class_label(class, &name);
        }
        Ok((session, vocab))
    }

    /// Saves the session as a new store at `dir` and returns it open.
    ///
    /// # Errors
    ///
    /// Fails if `dir` already holds a store, or on I/O errors.
    pub fn save(self, vocab: Vocab, dir: &Path) -> Result<StoredSession, StoreError> {
        let store = Store::create(dir, &self.to_snapshot(&vocab, 0))?;
        SAVES.get().incr();
        cable_obs::recorder::instant("core.session.save");
        let scope = session_scope(dir);
        scope.incr("core.session.saves_scoped");
        cable_obs::events::emit(
            WideEvent::new("session_save", scope.label("session").unwrap_or("-"))
                .stage("save")
                .tenant(scope.label("tenant").unwrap_or("-"))
                .field("traces", self.traces().len() as u64),
        );
        Ok(StoredSession {
            session: self,
            vocab,
            store,
            scope,
        })
    }

    /// Opens a saved session: decodes the snapshot, rebuilds the
    /// session from its persisted rows and lattice, and replays the
    /// journal's surviving records in append order.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors, a damaged snapshot, or journal records that
    /// contradict the snapshot (unparsable trace text, out-of-range
    /// label classes).
    pub fn open(dir: &Path) -> Result<(StoredSession, RecoveryReport), StoreError> {
        let started = Instant::now();
        let (store, data, records, report) = Store::open(dir)?;
        let (session, vocab) = CableSession::from_snapshot(data)?;
        let mut stored = StoredSession {
            session,
            vocab,
            store,
            scope: session_scope(dir),
        };
        stored.apply(&records)?;
        RESUMES.get().incr();
        cable_obs::recorder::instant("core.session.resume");
        stored.scope.incr("core.session.resumes_scoped");
        stored
            .scope
            .record_duration("core.session.resume_ns", started.elapsed());
        cable_obs::events::emit(
            stored
                .event("session_resume", "resume")
                .duration(started.elapsed())
                .field("replayed", report.replayed as u64),
        );
        Ok((stored, report))
    }
}

/// Outcome of a continue-on-error ingestion
/// ([`StoredSession::ingest_text_keep_going`]).
#[derive(Debug)]
pub struct IngestReport {
    /// Per ingested trace in order: its id and whether it founded a new
    /// identical class.
    pub results: Vec<(cable_trace::TraceId, bool)>,
    /// Lines that failed to parse: 1-based line number and message.
    pub errors: Vec<(usize, String)>,
}

impl IngestReport {
    /// Whether every line made it in.
    pub fn is_clean(&self) -> bool {
        self.errors.is_empty()
    }
}

/// A live session paired with its open store.
///
/// Mutations go through [`StoredSession::ingest_text`] and
/// [`StoredSession::label_traces`], which journal first and apply
/// second — the write-ahead ordering the crash-recovery drill relies
/// on.
#[derive(Debug)]
pub struct StoredSession {
    session: CableSession,
    vocab: Vocab,
    store: Store,
    scope: Scope,
}

impl StoredSession {
    /// The live session.
    pub fn session(&self) -> &CableSession {
        &self.session
    }

    /// The session's attribution scope (see [`cable_obs::scope`]).
    pub fn scope(&self) -> &Scope {
        &self.scope
    }

    /// Starts a wide event carrying this session's scope identity.
    fn event(&self, kind: &'static str, stage: &'static str) -> WideEvent {
        WideEvent::new(kind, self.scope.label("session").unwrap_or("-"))
            .stage(stage)
            .tenant(self.scope.label("tenant").unwrap_or("-"))
    }

    /// The vocabulary the session is interned against.
    pub fn vocab(&self) -> &Vocab {
        &self.vocab
    }

    /// The open store.
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// The store's health as `/healthz` reports it: snapshot generation
    /// plus the journal lag in bytes and records, as given to the server
    /// at [`crate::server::ObsServer::bind_with`].
    ///
    /// # Errors
    ///
    /// Fails on I/O errors sizing the journal file.
    pub fn health(&self) -> Result<HealthInfo, StoreError> {
        Ok(HealthInfo {
            generation: self.store.generation(),
            journal_lag_bytes: self.store.journal_lag_bytes()?,
            journal_lag_records: self.store.journal_lag_records(),
            degraded: self.store.degraded_cause().map(str::to_owned),
        })
    }

    /// Attempts to restore write service after a fail-stop degradation
    /// (see DESIGN.md §17): the in-memory session — which holds exactly
    /// the acknowledged operations — is republished as the next
    /// generation through fresh file handles, and the store turns
    /// writable again. Returns whether a recovery was actually
    /// performed (`false` when the store was already writable).
    ///
    /// # Errors
    ///
    /// Fails on I/O errors during the republish; the store then stays
    /// read-only and the call can be retried.
    pub fn recover(&mut self) -> Result<bool, StoreError> {
        let Some(cause) = self.store.degraded_cause().map(str::to_owned) else {
            return Ok(false);
        };
        let started = Instant::now();
        let data = self
            .session
            .to_snapshot(&self.vocab, self.store.generation() + 1);
        let result = self.store.recover(&data);
        if result.is_ok() {
            RECOVERIES.get().incr();
            self.scope.incr("core.session.recoveries_scoped");
        }
        cable_obs::events::emit(
            self.event("session_recover", "recover")
                .outcome(if result.is_ok() { "ok" } else { "error" })
                .duration(started.elapsed())
                .field("cause", cause)
                .field("generation", self.store.generation()),
        );
        result.map(|_| true)
    }

    /// Replays journal records onto the session, batching runs of
    /// consecutive traces into single [`CableSession::push_traces`]
    /// calls so the lattice extends once per run.
    fn apply(&mut self, records: &[JournalRecord]) -> Result<(), StoreError> {
        let mut pending: Vec<Trace> = Vec::new();
        for record in records {
            cable_guard::checkpoint("core.persist.replay")?;
            match record {
                JournalRecord::Trace(line) => {
                    let trace = Trace::parse(line, &mut self.vocab)
                        .map_err(|e| StoreError::format(format!("journal trace: {e}")))?;
                    pending.push(trace);
                }
                JournalRecord::Label { class, name } => {
                    if !pending.is_empty() {
                        self.session.push_traces(std::mem::take(&mut pending));
                    }
                    let class = *class as usize;
                    if class >= self.session.classes().len() {
                        return Err(StoreError::format(format!(
                            "journal labels class {class} of {}",
                            self.session.classes().len()
                        )));
                    }
                    self.session.set_class_label(class, name);
                }
            }
        }
        if !pending.is_empty() {
            self.session.push_traces(std::mem::take(&mut pending));
        }
        Ok(())
    }

    /// Parses `text` as a trace set and ingests every trace: journals
    /// each one (as its canonical display line), fsyncs, then absorbs
    /// the batch through the incremental insert path. With `sync_each`
    /// every trace is fsynced and applied individually, so a crash
    /// loses at most the trace being written.
    ///
    /// Returns, per trace, its id and whether it founded a new
    /// identical class.
    ///
    /// # Errors
    ///
    /// Fails on a parse error (with the 1-based line number) or I/O
    /// errors. On an I/O failure partway through `sync_each` ingestion,
    /// the journal and session stay in step: every record journaled so
    /// far has been applied.
    pub fn ingest_text(
        &mut self,
        text: &str,
        sync_each: bool,
    ) -> Result<Vec<(TraceId, bool)>, StoreError> {
        let started = Instant::now();
        let before = self.scope.snapshot().metrics;
        let result = self.ingest_text_inner(text, sync_each);
        let ingested = result.as_ref().map(Vec::len).unwrap_or(0);
        self.ingest_event(started, &before, ingested, 0, result.is_ok());
        result
    }

    fn ingest_text_inner(
        &mut self,
        text: &str,
        sync_each: bool,
    ) -> Result<Vec<(TraceId, bool)>, StoreError> {
        let batch = {
            let _span = Span::open("parse.traces");
            TraceSet::parse(text, &mut self.vocab)
        }
        .map_err(|e| StoreError::format(e.to_string()))?;
        let traces: Vec<Trace> = batch.iter().map(|(_, t)| t.clone()).collect();
        let records: Vec<JournalRecord> = traces
            .iter()
            .map(|t| JournalRecord::Trace(t.display(&self.vocab).to_string()))
            .collect();
        // Journal the whole batch before applying any of it: a mid-batch
        // failure (guard trip or degraded disk) must leave the in-memory
        // session exactly at the acknowledged state — recovery
        // republishes memory as truth, and the client will retry the
        // entire batch it was never acked. `append_all` rolls the
        // journal file back too, so the failed batch cannot resurrect
        // through a later reopen either.
        cable_guard::checkpoint("core.persist.ingest")?;
        self.store.append_all(&records, sync_each)?;
        Ok(self.session.push_traces(traces))
    }

    /// [`StoredSession::ingest_text`] in continue-on-error mode: each
    /// line is parsed independently, malformed lines are collected (with
    /// their 1-based line numbers) instead of aborting the batch, and
    /// every well-formed trace is journaled and ingested exactly as the
    /// strict path would.
    ///
    /// # Errors
    ///
    /// Parse failures are *not* errors here — they come back inside the
    /// [`IngestReport`]. Only I/O failures (and guard trips) abort.
    pub fn ingest_text_keep_going(
        &mut self,
        text: &str,
        sync_each: bool,
    ) -> Result<IngestReport, StoreError> {
        let started = Instant::now();
        let before = self.scope.snapshot().metrics;
        let result = self.ingest_keep_going_inner(text, sync_each);
        let (ingested, parse_errors) = result
            .as_ref()
            .map(|r| (r.results.len(), r.errors.len()))
            .unwrap_or((0, 0));
        self.ingest_event(started, &before, ingested, parse_errors, result.is_ok());
        result
    }

    fn ingest_keep_going_inner(
        &mut self,
        text: &str,
        sync_each: bool,
    ) -> Result<IngestReport, StoreError> {
        let mut traces: Vec<Trace> = Vec::new();
        let mut errors: Vec<(usize, String)> = Vec::new();
        let parse_span = Span::open("parse.traces");
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with(';') {
                continue;
            }
            match Trace::parse(line, &mut self.vocab) {
                Ok(trace) => traces.push(trace),
                Err(e) => errors.push((lineno + 1, e.to_string())),
            }
        }
        drop(parse_span);
        let records: Vec<JournalRecord> = traces
            .iter()
            .map(|t| JournalRecord::Trace(t.display(&self.vocab).to_string()))
            .collect();
        // Same batch-atomicity discipline as the strict path: journal
        // everything, then apply everything, so a failure applies
        // nothing.
        cable_guard::checkpoint("core.persist.ingest")?;
        self.store.append_all(&records, sync_each)?;
        let results = self.session.push_traces(traces);
        Ok(IngestReport { results, errors })
    }

    /// Scope accounting plus the `ingest_batch` wide event shared by
    /// both ingestion paths. The event carries this scope's counter
    /// deltas over the batch, so one record tells the whole story.
    fn ingest_event(
        &self,
        started: Instant,
        before: &cable_obs::Snapshot,
        ingested: usize,
        parse_errors: usize,
        ok: bool,
    ) {
        self.scope
            .add("core.session.traces_ingested", ingested as u64);
        self.scope
            .record_duration("core.session.ingest_ns", started.elapsed());
        let delta = self.scope.snapshot().metrics.delta_since(before);
        cable_obs::events::emit(
            self.event("ingest_batch", "ingest")
                .outcome(if ok { "ok" } else { "error" })
                .duration(started.elapsed())
                .field("traces", ingested as u64)
                .field("parse_errors", parse_errors as u64)
                .deltas(&delta),
        );
    }

    /// Labels the selected traces of a concept, journaling each class's
    /// decision before applying it. Returns the number of classes
    /// affected.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors; the journal is synced before the session
    /// changes.
    pub fn label_traces(
        &mut self,
        concept: cable_fca::ConceptId,
        selector: &crate::session::TraceSelector,
        label: &str,
    ) -> Result<usize, StoreError> {
        let started = Instant::now();
        let selected = self.session.select(concept, selector);
        let records: Vec<JournalRecord> = selected
            .iter()
            .map(|&c| JournalRecord::Label {
                class: c as u32,
                name: label.to_owned(),
            })
            .collect();
        let appended = self.store.append_all(&records, false);
        if appended.is_ok() {
            for &c in &selected {
                self.session.set_class_label(c, label);
            }
        }
        self.scope.incr("core.session.label_ops");
        self.scope
            .add("core.session.classes_labeled", selected.len() as u64);
        cable_obs::events::emit(
            self.event("label_op", "label")
                .outcome(if appended.is_ok() { "ok" } else { "error" })
                .duration(started.elapsed())
                .field("classes", selected.len() as u64)
                .field("label", label),
        );
        appended?;
        Ok(selected.len())
    }

    /// Folds the journal into a fresh snapshot of the current session
    /// state and resets the journal.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors; crash-safe at every step (see
    /// `cable-store`'s module docs).
    pub fn compact(&mut self) -> Result<(), StoreError> {
        let started = Instant::now();
        let data = self
            .session
            .to_snapshot(&self.vocab, self.store.generation() + 1);
        let result = self.store.compact(&data);
        self.scope.incr("core.session.compactions");
        cable_obs::events::emit(
            self.event("compact", "compact")
                .outcome(if result.is_ok() { "ok" } else { "error" })
                .duration(started.elapsed())
                .field("generation", self.store.generation()),
        );
        result
    }

    /// Tears the pairing down, returning the live session and its
    /// vocabulary. The store's files remain on disk.
    pub fn into_session(self) -> (CableSession, Vocab) {
        (self.session, self.vocab)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::TraceSelector;
    use std::path::PathBuf;

    const FA: &str = "\
start s0
accept s0
s0 -> s1 : fopen(X)
s1 -> s0 : fclose(X)
s1 -> s1 : fread(X)
s1 -> s1 : fwrite(X)
s0 -> s2 : popen(X)
s2 -> s0 : pclose(X)
";

    const CORPUS: &str = "\
fopen(X) fread(X) fclose(X)
fopen(X) fread(X) fclose(X)
fopen(X) fwrite(X) fclose(X)
popen(Y) fread(Y) pclose(Y)
fopen(X) fread(X)
";

    fn build(corpus: &str) -> (CableSession, Vocab) {
        let mut vocab = Vocab::new();
        let fa = Fa::parse(FA, &mut vocab).unwrap();
        let traces = TraceSet::parse(corpus, &mut vocab).unwrap();
        (CableSession::new(traces, fa), vocab)
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("cable-core-persist-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn assert_sessions_equal(a: &CableSession, b: &CableSession) {
        assert_eq!(a.traces().len(), b.traces().len());
        assert_eq!(a.classes().len(), b.classes().len());
        assert_eq!(a.context().pair_count(), b.context().pair_count());
        assert_eq!(a.lattice().len(), b.lattice().len());
        for (_, c) in a.lattice().iter() {
            let other = b
                .lattice()
                .find_by_extent(&c.extent)
                .expect("extent present in both lattices");
            assert_eq!(b.lattice().concept(other).intent, c.intent);
        }
        for c in 0..a.classes().len() {
            let name_a = a.labels().get(c).map(|l| a.labels().name(l));
            let name_b = b.labels().get(c).map(|l| b.labels().name(l));
            assert_eq!(name_a, name_b, "label of class {c}");
        }
    }

    #[test]
    fn snapshot_round_trip_preserves_the_session() {
        let (mut session, vocab) = build(CORPUS);
        let top = session.lattice().top();
        session.label_traces(top, &TraceSelector::All, "seen");
        let data = session.to_snapshot(&vocab, 0);
        let (rebuilt, vocab2) = CableSession::from_snapshot(data).unwrap();
        assert_sessions_equal(&session, &rebuilt);
        assert_eq!(vocab.op_count(), vocab2.op_count());
        assert_eq!(vocab.atom_count(), vocab2.atom_count());
    }

    #[test]
    fn labels_journal_and_replay() {
        let dir = tmp_dir("labels");
        let (session, vocab) = build(CORPUS);
        let mut stored = session.save(vocab, &dir).unwrap();
        let top = stored.session().lattice().top();
        let n = stored
            .label_traces(top, &TraceSelector::All, "checked")
            .unwrap();
        assert_eq!(n, stored.session().classes().len());
        // Interleave: a trace after the labels.
        stored.ingest_text("fopen(Y) fclose(Y)\n", true).unwrap();
        let (live, _) = stored.into_session();

        let (reopened, report) = CableSession::open(&dir).unwrap();
        assert_eq!(report.replayed, n + 1);
        assert_sessions_equal(&live, reopened.session());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_folds_the_journal_and_reopens_clean() {
        let dir = tmp_dir("compact");
        let (session, vocab) = build(CORPUS);
        let mut stored = session.save(vocab, &dir).unwrap();
        stored.ingest_text("popen(Z) pclose(Z)\n", false).unwrap();
        let top = stored.session().lattice().top();
        stored
            .label_traces(top, &TraceSelector::Unlabeled, "ok")
            .unwrap();
        let journal_before = stored.store().journal_bytes().unwrap();
        stored.compact().unwrap();
        assert!(stored.store().journal_bytes().unwrap() < journal_before);
        assert_eq!(stored.store().generation(), 1);
        let (live, _) = stored.into_session();

        let (reopened, report) = CableSession::open(&dir).unwrap();
        assert_eq!(report.replayed, 0, "compaction folded the journal in");
        assert_sessions_equal(&live, reopened.session());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn health_reports_generation_and_journal_lag() {
        let dir = tmp_dir("health");
        let (session, vocab) = build(CORPUS);
        let mut stored = session.save(vocab, &dir).unwrap();
        let h = stored.health().unwrap();
        assert_eq!(h.generation, 0);
        assert_eq!(h.journal_lag_records, 0);
        assert_eq!(h.journal_lag_bytes, 0);

        stored.ingest_text("popen(Z) pclose(Z)\n", false).unwrap();
        let h = stored.health().unwrap();
        assert_eq!(h.journal_lag_records, 1);
        assert!(h.journal_lag_bytes > 0);

        stored.compact().unwrap();
        let h = stored.health().unwrap();
        assert_eq!(h.generation, 1);
        assert_eq!(h.journal_lag_records, 0);
        assert_eq!(h.journal_lag_bytes, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn keep_going_ingest_skips_bad_lines_and_reports_them() {
        let dir = tmp_dir("keepgoing");
        let (session, vocab) = build(CORPUS);
        let mut stored = session.save(vocab, &dir).unwrap();
        let traces_before = stored.session().traces().len();

        let mixed = "\
popen(Y) fwrite(Y) pclose(Y)
this is ((( not a trace
fopen(X) fread(X) fclose(X)

bad_line_two(((
";
        let report = stored.ingest_text_keep_going(mixed, false).unwrap();
        assert!(!report.is_clean());
        assert_eq!(report.results.len(), 2, "both good lines ingested");
        assert_eq!(report.errors.len(), 2);
        assert_eq!(report.errors[0].0, 2, "1-based line number");
        assert_eq!(report.errors[1].0, 5);
        assert_eq!(stored.session().traces().len(), traces_before + 2);

        // The good traces are durable: a reopen replays exactly them.
        drop(stored);
        let (reopened, report) = CableSession::open(&dir).unwrap();
        assert_eq!(report.replayed, 2);
        assert_eq!(reopened.session().traces().len(), traces_before + 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_snapshot_parts_error_instead_of_panicking() {
        let (session, vocab) = build(CORPUS);
        let good = session.to_snapshot(&vocab, 0);

        let mut bad = good.clone();
        bad.fa_text = "fa broken {".to_owned();
        assert!(CableSession::from_snapshot(bad).is_err());

        let mut bad = good.clone();
        bad.concepts.clear();
        assert!(CableSession::from_snapshot(bad).is_err());

        let mut bad = good.clone();
        let first = bad.concepts[0].clone();
        bad.concepts.push(first);
        assert!(CableSession::from_snapshot(bad).is_err());

        let mut bad = good.clone();
        bad.labels.push((u32::MAX, "out of range".to_owned()));
        assert!(CableSession::from_snapshot(bad).is_err());

        let mut bad = good;
        bad.rows.pop();
        assert!(CableSession::from_snapshot(bad).is_err());
    }
}
