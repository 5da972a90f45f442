//! The wide-event log: one self-describing JSON record per unit of
//! work.
//!
//! Counters say *how much*, the recorder says *when*; wide events say
//! *what happened*: one record per ingest batch, parallel stage, label
//! op, HTTP request, budget trip, or contained panic, carrying the
//! scope id, the stage, the outcome, the duration, and whatever counts
//! the emitter attributes to that unit. This is the canonical
//! log-line pattern — instead of ten interleaved log lines per request,
//! one record that can be filtered and aggregated after the fact.
//!
//! # Schema
//!
//! Every event is a JSON object with at least (see DESIGN.md §13 for
//! the full field table):
//!
//! * `record`: always `"wide_event"`;
//! * `seq`: process-wide emission sequence number;
//! * `kind`: the unit of work (`"ingest_batch"`, `"http_request"`, …);
//! * `scope`: the attribution scope id (a session label, `"http"`,
//!   `"par"` — never empty);
//! * `outcome`: `"ok"` or a failure class (never empty);
//! * `ts_ms` / `uptime_ns`: wall-clock and monotonic stamps — *timing*
//!   fields, stripped by `reproduce diff` like every other timing field.
//!
//! Optional common fields: `stage`, `tenant` and `duration_ns`. Any
//! further key/value pairs ride along (the "wide" part).
//! [`check_schema`] is the contract test — CI runs it over every event a
//! quick `reproduce` run emits.
//!
//! # Transport
//!
//! [`emit`] sits behind the crate's one switch, [`crate::enabled`]: it
//! is a no-op (one relaxed load) while observation is off. While it is
//! on, each event lands in a bounded in-memory ring (tail-served at
//! `/eventz`) and, when a sink is installed ([`install_sink`] — the
//! `--events-out` flag, which turns observation on), is appended
//! through the buffered [`JsonlSink`]. Emission also feeds the SLO
//! windows ([`crate::slo::observe`]), where an outcome other than
//! `"ok"` or an HTTP status below 500 counts as an error, so `/sloz` is
//! computed from the same stream the operator reads.

use crate::json::Value;
use crate::sink::JsonlSink;
use crate::slo;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

/// Events retained in memory for `/eventz` (oldest evicted first).
pub const EVENT_RING_CAPACITY: usize = 512;

static SEQ: AtomicU64 = AtomicU64::new(0);

fn ring() -> &'static Mutex<VecDeque<Value>> {
    static RING: OnceLock<Mutex<VecDeque<Value>>> = OnceLock::new();
    RING.get_or_init(|| Mutex::new(VecDeque::new()))
}

fn sink_slot() -> &'static Mutex<Option<JsonlSink>> {
    static SLOT: OnceLock<Mutex<Option<JsonlSink>>> = OnceLock::new();
    SLOT.get_or_init(|| Mutex::new(None))
}

/// Installs (replacing) the persistent event sink; also turns
/// observation on. The previous sink, if any, is flushed by its drop.
pub fn install_sink(sink: JsonlSink) {
    *sink_slot().lock().expect("event sink poisoned") = Some(sink);
    crate::set_enabled(true);
}

/// Removes and returns the installed sink (buffered lines flush when the
/// caller drops it). Observation stays in whatever state it was.
pub fn take_sink() -> Option<JsonlSink> {
    sink_slot().lock().expect("event sink poisoned").take()
}

/// Flushes the installed sink's buffered lines to disk, if one is
/// installed.
pub fn flush_sink() {
    if let Some(sink) = sink_slot().lock().expect("event sink poisoned").as_ref() {
        let _ = sink.flush();
    }
}

/// One wide event under construction. Build with [`WideEvent::new`] and
/// the chained setters, then [`emit`] it.
#[derive(Debug, Clone)]
pub struct WideEvent {
    kind: &'static str,
    scope: String,
    stage: String,
    tenant: String,
    outcome: String,
    duration_ns: Option<u64>,
    fields: Vec<(&'static str, Value)>,
}

impl WideEvent {
    /// Starts an event for one unit of work of `kind`, attributed to
    /// `scope` (a session label, `"http"`, `"par"`, …). The outcome
    /// defaults to `"ok"`.
    pub fn new(kind: &'static str, scope: impl Into<String>) -> WideEvent {
        WideEvent {
            kind,
            scope: scope.into(),
            stage: String::new(),
            tenant: String::new(),
            outcome: "ok".to_owned(),
            duration_ns: None,
            fields: Vec::new(),
        }
    }

    /// Sets the pipeline stage the unit ran under.
    pub fn stage(mut self, stage: impl Into<String>) -> WideEvent {
        self.stage = stage.into();
        self
    }

    /// Sets the tenant directory dimension.
    pub fn tenant(mut self, tenant: impl Into<String>) -> WideEvent {
        self.tenant = tenant.into();
        self
    }

    /// Sets the outcome (`"ok"`, `"error"`, `"budget_exceeded"`,
    /// `"panic"`, an HTTP status, …).
    pub fn outcome(mut self, outcome: impl Into<String>) -> WideEvent {
        self.outcome = outcome.into();
        self
    }

    /// Sets the unit's duration from a [`Duration`].
    pub fn duration(mut self, d: Duration) -> WideEvent {
        self.duration_ns = Some(d.as_nanos().min(u64::MAX as u128) as u64);
        self
    }

    /// Sets the unit's duration in nanoseconds.
    pub fn duration_ns(mut self, ns: u64) -> WideEvent {
        self.duration_ns = Some(ns);
        self
    }

    /// Attaches an extra field (the "wide" part: counts, sizes, paths).
    pub fn field(mut self, key: &'static str, value: impl Into<Value>) -> WideEvent {
        self.fields.push((key, value.into()));
        self
    }

    fn into_json(self, seq: u64) -> Value {
        let ts_ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_millis().min(u64::MAX as u128) as u64)
            .unwrap_or(0);
        let mut pairs = vec![
            ("record", Value::from("wide_event")),
            ("seq", Value::from(seq)),
            ("ts_ms", Value::from(ts_ms)),
            ("uptime_ns", Value::from(crate::recorder::now_ns())),
            ("kind", Value::from(self.kind)),
            ("scope", Value::from(self.scope)),
            ("outcome", Value::from(self.outcome)),
        ];
        if !self.stage.is_empty() {
            pairs.push(("stage", Value::from(self.stage)));
        }
        if !self.tenant.is_empty() {
            pairs.push(("tenant", Value::from(self.tenant)));
        }
        if let Some(ns) = self.duration_ns {
            pairs.push(("duration_ns", Value::from(ns)));
        }
        pairs.extend(self.fields);
        Value::object(pairs)
    }
}

/// Emits one event: sequence-stamps it, feeds the SLO windows, appends
/// it to the in-memory ring, and writes it through the installed sink
/// (if any). A no-op (one relaxed load) while observation is off.
pub fn emit(event: WideEvent) {
    if !crate::enabled() {
        return;
    }
    let ok = succeeded(&event.outcome);
    let window_key = if event.stage.is_empty() {
        event.kind.to_owned()
    } else {
        format!("{}:{}", event.kind, event.stage)
    };
    slo::observe(&window_key, event.duration_ns.unwrap_or(0), ok);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed) + 1;
    let json = event.into_json(seq);
    if let Some(sink) = sink_slot().lock().expect("event sink poisoned").as_ref() {
        let _ = sink.write(&json);
    }
    let mut ring = ring().lock().expect("event ring poisoned");
    if ring.len() >= EVENT_RING_CAPACITY {
        ring.pop_front();
    }
    ring.push_back(json);
}

/// Whether an outcome counts as a success in the SLO windows: `"ok"`,
/// or an HTTP status below 500 (a client's 4xx is not the service
/// failing; every 5xx, the declared degraded 503s included, is).
fn succeeded(outcome: &str) -> bool {
    outcome == "ok" || outcome.parse::<u16>().is_ok_and(|status| status < 500)
}

/// Total events emitted since process start (including ones the ring has
/// since evicted).
pub fn total_emitted() -> u64 {
    SEQ.load(Ordering::Relaxed)
}

/// The most recent `limit` events, oldest first.
pub fn recent(limit: usize) -> Vec<Value> {
    let ring = ring().lock().expect("event ring poisoned");
    let start = ring.len().saturating_sub(limit);
    ring.iter().skip(start).cloned().collect()
}

/// The `/eventz` body: whether observation is on, totals, and the ring
/// tail.
pub fn eventz_json(limit: usize) -> Value {
    Value::object([
        ("enabled", Value::from(crate::enabled())),
        ("total", Value::from(total_emitted())),
        ("capacity", Value::from(EVENT_RING_CAPACITY)),
        ("events", Value::Array(recent(limit))),
    ])
}

/// Validates one record against the wide-event schema contract: it must
/// be an object with `record == "wide_event"`, a `seq`, a non-empty
/// `kind`, a non-empty `scope`, a non-empty `outcome`, and — when
/// present — a numeric `duration_ns`. CI's event-schema gate maps this
/// over every event a quick `reproduce` run writes.
///
/// # Errors
///
/// A human-readable description of the first violated constraint.
pub fn check_schema(event: &Value) -> Result<(), String> {
    if event.get("record").and_then(Value::as_str) != Some("wide_event") {
        return Err("record field is not \"wide_event\"".to_owned());
    }
    if event.get("seq").and_then(Value::as_u64).is_none() {
        return Err("seq field missing or not a u64".to_owned());
    }
    for key in ["kind", "scope", "outcome"] {
        match event.get(key).and_then(Value::as_str) {
            Some(s) if !s.is_empty() => {}
            Some(_) => return Err(format!("{key} field is empty")),
            None => return Err(format!("{key} field missing or not a string")),
        }
    }
    if let Some(d) = event.get("duration_ns") {
        if d.as_u64().is_none() {
            return Err("duration_ns field is not a u64".to_owned());
        }
    }
    // Kind-specific contracts the chaos drill replays from the log:
    // a fault without its site (or a degradation without its cause)
    // cannot be matched against the injected schedule.
    match event.get("kind").and_then(Value::as_str) {
        Some("fault_injected") => {
            match event.get("site").and_then(Value::as_str) {
                Some(s) if !s.is_empty() => {}
                _ => return Err("fault_injected event without a site".to_owned()),
            }
            if event.get("hit").and_then(Value::as_u64).is_none() {
                return Err("fault_injected event without a u64 hit ordinal".to_owned());
            }
        }
        Some("store_degraded") | Some("store_recovered") => {
            match event.get("cause").and_then(Value::as_str) {
                Some(c) if !c.is_empty() => {}
                _ => return Err("store durability event without a cause".to_owned()),
            }
        }
        _ => {}
    }
    Ok(())
}

/// Empties the in-memory ring (tests and benchmark sections). The
/// sequence counter and any installed sink are untouched.
pub fn clear_ring() {
    ring().lock().expect("event ring poisoned").clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Observation is process-global; tests that toggle it must not
    /// interleave.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        crate::TEST_FLAG_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_emit_records_nothing() {
        let _l = lock();
        crate::set_enabled(false);
        let before = total_emitted();
        emit(WideEvent::new("unit_test", "nobody"));
        assert_eq!(total_emitted(), before);
    }

    #[test]
    fn emitted_events_carry_the_schema_and_ride_the_ring() {
        let _l = lock();
        crate::set_enabled(true);
        clear_ring();
        emit(
            WideEvent::new("unit_test", "session-a")
                .stage("ingest")
                .tenant("acme")
                .outcome("ok")
                .duration(Duration::from_micros(5))
                .field("traces", 80u64),
        );
        crate::set_enabled(false);
        let events = recent(16);
        let event = events.last().expect("event in ring");
        check_schema(event).expect("schema holds");
        assert_eq!(event.get("kind").and_then(Value::as_str), Some("unit_test"));
        assert_eq!(
            event.get("scope").and_then(Value::as_str),
            Some("session-a")
        );
        assert_eq!(event.get("stage").and_then(Value::as_str), Some("ingest"));
        assert_eq!(event.get("tenant").and_then(Value::as_str), Some("acme"));
        assert_eq!(event.get("traces").and_then(Value::as_u64), Some(80));
        assert_eq!(event.get("duration_ns").and_then(Value::as_u64), Some(5000));
        clear_ring();
    }

    #[test]
    fn ring_is_bounded_and_keeps_the_newest() {
        let _l = lock();
        crate::set_enabled(true);
        clear_ring();
        for i in 0..(EVENT_RING_CAPACITY + 8) {
            emit(WideEvent::new("ring_fill", "t").field("i", i as u64));
        }
        crate::set_enabled(false);
        let events = recent(usize::MAX);
        assert_eq!(events.len(), EVENT_RING_CAPACITY);
        let last = events.last().unwrap();
        assert_eq!(
            last.get("i").and_then(Value::as_u64),
            Some((EVENT_RING_CAPACITY + 7) as u64)
        );
        // `recent` limits from the tail.
        assert_eq!(recent(3).len(), 3);
        clear_ring();
    }

    #[test]
    fn outcomes_below_500_succeed() {
        for outcome in ["ok", "200", "201", "404", "429"] {
            assert!(succeeded(outcome), "{outcome}");
        }
        for outcome in ["500", "503", "error", "panic", "budget_exceeded", ""] {
            assert!(!succeeded(outcome), "{outcome}");
        }
    }

    #[test]
    fn check_schema_rejects_malformed_events() {
        let ok = Value::object([
            ("record", Value::from("wide_event")),
            ("seq", Value::from(1u64)),
            ("kind", Value::from("k")),
            ("scope", Value::from("s")),
            ("outcome", Value::from("ok")),
        ]);
        assert!(check_schema(&ok).is_ok());

        let not_event = Value::object([("record", Value::from("other"))]);
        assert!(check_schema(&not_event).is_err());

        let empty_scope = Value::object([
            ("record", Value::from("wide_event")),
            ("seq", Value::from(1u64)),
            ("kind", Value::from("k")),
            ("scope", Value::from("")),
            ("outcome", Value::from("ok")),
        ]);
        assert!(check_schema(&empty_scope).is_err());

        let bad_duration = Value::object([
            ("record", Value::from("wide_event")),
            ("seq", Value::from(1u64)),
            ("kind", Value::from("k")),
            ("scope", Value::from("s")),
            ("outcome", Value::from("ok")),
            ("duration_ns", Value::from("fast")),
        ]);
        assert!(check_schema(&bad_duration).is_err());
    }

    #[test]
    fn check_schema_enforces_the_chaos_event_contracts() {
        fn base(kind: &'static str, extra: Vec<(&'static str, Value)>) -> Value {
            let mut fields = vec![
                ("record", Value::from("wide_event")),
                ("seq", Value::from(1u64)),
                ("kind", Value::from(kind)),
                ("scope", Value::from("faults")),
                ("outcome", Value::from("injected")),
            ];
            fields.extend(extra);
            Value::object(fields)
        }

        let fired = base(
            "fault_injected",
            vec![
                ("site", Value::from("store.fsync")),
                ("hit", Value::from(3u64)),
            ],
        );
        assert!(check_schema(&fired).is_ok());
        assert!(check_schema(&base("fault_injected", vec![("hit", Value::from(3u64))])).is_err());
        assert!(check_schema(&base(
            "fault_injected",
            vec![
                ("site", Value::from("store.fsync")),
                ("hit", Value::from("three")),
            ],
        ))
        .is_err());

        let degraded = base("store_degraded", vec![("cause", Value::from("fsync"))]);
        assert!(check_schema(&degraded).is_ok());
        assert!(check_schema(&base("store_degraded", vec![])).is_err());
        assert!(check_schema(&base("store_recovered", vec![("cause", Value::from(""))])).is_err());
    }

    #[test]
    fn sink_receives_events_and_flushes() {
        let _l = lock();
        let path = std::env::temp_dir().join(format!(
            "cable-obs-events-sink-{}.jsonl",
            std::process::id()
        ));
        install_sink(JsonlSink::create(&path).unwrap());
        emit(WideEvent::new("sinked", "t").outcome("ok"));
        let sink = take_sink().expect("sink installed");
        drop(sink); // flush-on-drop
        crate::set_enabled(false);
        let text = std::fs::read_to_string(&path).unwrap();
        let records = crate::sink::parse_jsonl(&text).unwrap();
        assert!(records
            .iter()
            .any(|r| r.get("kind").and_then(Value::as_str) == Some("sinked")));
        for r in &records {
            check_schema(r).expect("sinked events keep the schema");
        }
        let _ = std::fs::remove_file(&path);
        clear_ring();
    }
}
