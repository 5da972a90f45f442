//! The JSON session API (`/api/…`): the paper's labeling workflow as a
//! multi-tenant service.
//!
//! [`CableApi`] implements `cable-obs`'s [`ApiHandler`] and is installed
//! into the HTTP server ([`crate::server`]) by `cable serve --api`.
//! Every request resolves a tenant-qualified session through the
//! [`SessionManager`] ([`crate::manager`]) and runs under an optional
//! per-request `cable-guard` budget, installed on the worker thread
//! serving the request ([`cable_guard::Budget::install`]), so one
//! runaway lattice build times out its own request instead of the
//! process.
//!
//! # Endpoints
//!
//! | Method & path | Body / query | Meaning |
//! |---|---|---|
//! | `GET  /api/sessions` | — | list resident sessions |
//! | `POST /api/sessions` | `{tenant?, session, traces, template?}` | open (§4: start a labeling session) — `201` |
//! | `POST /api/sessions/:id/ingest` | `{tenant?, traces, fsync?}` | add traces to the corpus |
//! | `POST /api/sessions/:id/label` | `{tenant?, concept, selector?, label}` | the Label-traces command |
//! | `GET  /api/sessions/:id/lattice` | `?tenant=` | concept-lattice structure |
//! | `GET  /api/sessions/:id/concepts` | `?tenant=` | per-concept labeling states + progress |
//! | `GET  /api/sessions/:id/focus` | `?tenant=&concept=` | Focus sub-session summary |
//! | `GET  /api/sessions/:id/digest` | `?tenant=` | the deterministic `session_state` record |
//!
//! A session route takes the tenant from the body's `tenant`, else from
//! a `?tenant=` query (the create reads only its body); it defaults to
//! `"default"`. `concept` is `"cN"` or `N` (the `ConceptId` index);
//! `selector` is `"all"`, `"unlabeled"`, or `"with:<label>"`
//! ([`TraceSelector`]), defaulting to `"all"`. Errors
//! are `{"error": …, "status": …}` with the matching HTTP status:
//! malformed JSON is `400`, an unknown session `404`, a create over an
//! existing store `409`, and a tripped request budget `503`.

use crate::digest::session_state_record;
use crate::manager::{ManagerError, SessionKey, SessionManager};
use crate::session::{CableSession, ConceptState, TraceSelector};
use cable_fa::templates;
use cable_fca::ConceptId;
use cable_guard::{Budget, GuardError};
use cable_obs::json::Value;
use cable_obs::{ApiHandler, ApiRequest, ApiResponse, Span};
use cable_store::StoreError;
use cable_trace::{Trace, TraceSet, Vocab};
use std::sync::Arc;
use std::time::Duration;

/// The tenant used when a request names none.
pub const DEFAULT_TENANT: &str = "default";

/// One `/api/` endpoint. [`Route::parse`] is the route table
/// [`CableApi`] dispatches on, and the server files each request's
/// latency, tail summary and SLO window under [`Route::pattern`] — so
/// the label set is bounded by this enum, whatever paths clients send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// `/api/sessions`: list (GET) and open (POST).
    Sessions,
    /// `/api/sessions/:id/ingest`.
    Ingest,
    /// `/api/sessions/:id/label`.
    Label,
    /// `/api/sessions/:id/recover`.
    Recover,
    /// `/api/sessions/:id/lattice`.
    Lattice,
    /// `/api/sessions/:id/concepts`.
    Concepts,
    /// `/api/sessions/:id/focus`.
    Focus,
    /// `/api/sessions/:id/digest`.
    Digest,
}

impl Route {
    /// Every route: [`Route::Sessions`], then the per-session routes.
    pub(crate) const ALL: [Route; 8] = [
        Route::Sessions,
        Route::Ingest,
        Route::Label,
        Route::Recover,
        Route::Lattice,
        Route::Concepts,
        Route::Focus,
        Route::Digest,
    ];

    /// The path pattern, with `:id` standing for the session segment.
    pub fn pattern(self) -> &'static str {
        match self {
            Route::Sessions => "/api/sessions",
            Route::Ingest => "/api/sessions/:id/ingest",
            Route::Label => "/api/sessions/:id/label",
            Route::Recover => "/api/sessions/:id/recover",
            Route::Lattice => "/api/sessions/:id/lattice",
            Route::Concepts => "/api/sessions/:id/concepts",
            Route::Focus => "/api/sessions/:id/focus",
            Route::Digest => "/api/sessions/:id/digest",
        }
    }

    /// Matches a request path (no query string) against the table: the
    /// route and the session id it names (empty for
    /// [`Route::Sessions`]). Empty segments are skipped.
    pub fn parse(path: &str) -> Option<(Route, &str)> {
        let segments: Vec<&str> = path
            .strip_prefix("/api/")?
            .split('/')
            .filter(|s| !s.is_empty())
            .collect();
        match segments.as_slice() {
            ["sessions"] => Some((Route::Sessions, "")),
            ["sessions", id, verb] => Route::ALL[1..]
                .iter()
                .copied()
                .find(|route| route.pattern().rsplit('/').next() == Some(verb))
                .map(|route| (route, *id)),
            _ => None,
        }
    }
}

/// The `/api/` handler: a [`SessionManager`] plus the per-request
/// budget policy.
pub struct CableApi {
    manager: Arc<SessionManager>,
    request_deadline: Option<Duration>,
}

/// An API failure: the HTTP status to answer with and the message.
struct ApiError {
    status: u16,
    message: String,
    /// The degradation cause when the failure is the store's fail-stop
    /// read-only mode (or the write-path I/O error that triggered it).
    /// A `Some` here makes the response a *declared* degraded `503`:
    /// `{"degraded": true, "cause": …}` + `Retry-After` — how load
    /// clients distinguish "retry, the store is recovering" from a
    /// genuine server bug.
    degraded: Option<String>,
}

impl ApiError {
    fn new(status: u16, message: impl Into<String>) -> ApiError {
        ApiError {
            status,
            message: message.into(),
            degraded: None,
        }
    }
}

impl From<ManagerError> for ApiError {
    fn from(e: ManagerError) -> Self {
        let (status, degraded) = match &e {
            ManagerError::BadName { .. } => (400, None),
            ManagerError::AlreadyExists(_) => (409, None),
            ManagerError::NotFound(_) => (404, None),
            ManagerError::Store(StoreError::Guard(_)) => (503, None),
            // Fail-stop durability (DESIGN.md §17): a degraded store —
            // and the write-path I/O failure that just degraded it —
            // answer a declared, retryable 503, never a naked 500.
            ManagerError::Store(StoreError::Degraded { cause }) => (503, Some(cause.clone())),
            ManagerError::Store(StoreError::Io(_)) => (503, Some("io".to_owned())),
            ManagerError::Store(_) => (500, None),
        };
        ApiError {
            status,
            message: e.to_string(),
            degraded,
        }
    }
}

impl From<StoreError> for ApiError {
    fn from(e: StoreError) -> Self {
        ApiError::from(ManagerError::from(e))
    }
}

type ApiResult = Result<ApiResponse, ApiError>;

impl CableApi {
    /// Builds the handler. `request_deadline` bounds each request's
    /// wall-clock via a guard budget on the request's thread; `None`
    /// leaves requests unbounded (the service drill's configuration — a
    /// budget trip answers `503`, and the drill gates zero 5xx).
    pub fn new(manager: Arc<SessionManager>, request_deadline: Option<Duration>) -> CableApi {
        CableApi {
            manager,
            request_deadline,
        }
    }

    /// The manager, for callers that also serve `/healthz` or tests.
    pub fn manager(&self) -> &Arc<SessionManager> {
        &self.manager
    }

    fn route(&self, request: &ApiRequest) -> ApiResult {
        let query = request.query.as_deref();
        match (request.method.as_str(), Route::parse(&request.route)) {
            ("GET", Some((Route::Sessions, _))) => self.list(),
            ("POST", Some((Route::Sessions, _))) => self.create(&parse_body(&request.body)?),
            ("POST", Some((Route::Ingest, id))) => {
                let body = parse_body(&request.body)?;
                self.ingest(&self.key(&body, query, id)?, &body)
            }
            ("POST", Some((Route::Label, id))) => {
                let body = parse_body(&request.body)?;
                self.label(&self.key(&body, query, id)?, &body)
            }
            ("POST", Some((Route::Recover, id))) => {
                let body = if request.body.trim().is_empty() {
                    Value::Null
                } else {
                    parse_body(&request.body)?
                };
                self.recover(&self.key(&body, query, id)?)
            }
            ("GET", Some((Route::Lattice, id))) => {
                self.lattice(&self.key(&Value::Null, query, id)?)
            }
            ("GET", Some((Route::Concepts, id))) => {
                self.concepts(&self.key(&Value::Null, query, id)?)
            }
            ("GET", Some((Route::Focus, id))) => {
                self.focus(&self.key(&Value::Null, query, id)?, query)
            }
            ("GET", Some((Route::Digest, id))) => {
                self.digest(&self.key(&Value::Null, query, id)?)
            }
            ("GET" | "POST", _) => Err(ApiError::new(
                404,
                format!("no such API route: {} {}", request.method, request.route),
            )),
            _ => Err(ApiError::new(
                405,
                format!("method {} is not served under /api/", request.method),
            )),
        }
    }

    /// Resolves the tenant (body field, else `tenant=` query, else the
    /// default) and validates the key.
    fn key(
        &self,
        body: &Value,
        query: Option<&str>,
        session: &str,
    ) -> Result<SessionKey, ApiError> {
        let from_query = query.and_then(|q| {
            q.split('&').find_map(|pair| {
                pair.split_once('=')
                    .filter(|(k, _)| *k == "tenant")
                    .map(|(_, v)| v)
            })
        });
        let tenant = body
            .get("tenant")
            .and_then(Value::as_str)
            .or(from_query)
            .unwrap_or(DEFAULT_TENANT);
        Ok(SessionKey::new(tenant, session)?)
    }

    fn list(&self) -> ApiResult {
        let mut open: Vec<Value> = self
            .manager
            .list_open()
            .into_iter()
            .map(|key| {
                Value::object([
                    ("tenant", Value::from(key.tenant)),
                    ("session", Value::from(key.session)),
                ])
            })
            .collect();
        open.sort_by(|a, b| format!("{a}").cmp(&format!("{b}")));
        Ok(ApiResponse::json(
            200,
            &Value::object([
                ("open", Value::Array(open)),
                ("open_count", Value::from(self.manager.open_count() as u64)),
                ("max_open", Value::from(self.manager.max_open() as u64)),
            ]),
        ))
    }

    fn create(&self, body: &Value) -> ApiResult {
        let session_name = require_str(body, "session")?;
        let tenant = body
            .get("tenant")
            .and_then(Value::as_str)
            .unwrap_or(DEFAULT_TENANT);
        let key = SessionKey::new(tenant, session_name)?;
        let text = require_str(body, "traces")?;
        let mut vocab = Vocab::new();
        let traces = {
            let _span = Span::open("parse.traces");
            TraceSet::parse(text, &mut vocab)
        }
        .map_err(|e| ApiError::new(422, format!("traces: {e}")))?;
        let list: Vec<Trace> = traces.iter().map(|(_, t)| t.clone()).collect();
        let fa = match body.get("template").and_then(Value::as_str) {
            None | Some("unordered") => templates::unordered_of_trace_events(&list),
            Some(other) => {
                return Err(ApiError::new(
                    422,
                    format!("unknown template {other:?} (only \"unordered\" is served)"),
                ))
            }
        };
        let session = CableSession::try_new(traces, fa)
            .map_err(|stop| ApiError::new(503, format!("budget exceeded: {}", stop.error)))?;
        self.manager.create(&key, session, vocab)?;
        let summary = self.summary(&key)?;
        Ok(ApiResponse::json(201, &summary))
    }

    /// Attempts automatic recovery before a write lands on a degraded
    /// store. Best-effort by design: when the disk is still refusing
    /// writes the recovery fails, the store stays read-only, and the
    /// write below answers the declared degraded `503` — the client
    /// retries, and whichever retry lands after the disk heals recovers
    /// and proceeds in one request.
    fn try_recover(stored: &mut crate::persist::StoredSession) {
        if stored.store().is_degraded() {
            let _ = stored.recover();
        }
    }

    fn recover(&self, key: &SessionKey) -> ApiResult {
        let value = self.manager.with_session(key, |stored| {
            let recovered = stored.recover().map_err(ManagerError::Store)?;
            Ok(Value::object([
                ("tenant", Value::from(key.tenant.as_str())),
                ("session", Value::from(key.session.as_str())),
                ("recovered", Value::from(recovered)),
                ("generation", Value::from(stored.store().generation())),
                (
                    "degraded",
                    match stored.store().degraded_cause() {
                        Some(cause) => Value::from(cause),
                        None => Value::from(false),
                    },
                ),
            ]))
        })?;
        Ok(ApiResponse::json(200, &value))
    }

    fn ingest(&self, key: &SessionKey, body: &Value) -> ApiResult {
        let text = require_str(body, "traces")?;
        let fsync = body.get("fsync").and_then(Value::as_bool).unwrap_or(false);
        let outcome = self.manager.with_session(key, |stored| {
            Self::try_recover(stored);
            let results = stored
                .ingest_text(text, fsync)
                .map_err(ManagerError::Store)?;
            let new_classes = results.iter().filter(|(_, founded)| *founded).count();
            Ok(Value::object([
                ("tenant", Value::from(key.tenant.as_str())),
                ("session", Value::from(key.session.as_str())),
                ("ingested", Value::from(results.len() as u64)),
                ("new_classes", Value::from(new_classes as u64)),
                (
                    "classes",
                    Value::from(stored.session().classes().len() as u64),
                ),
                (
                    "concepts",
                    Value::from(stored.session().lattice().len() as u64),
                ),
            ]))
        });
        match outcome {
            Ok(v) => Ok(ApiResponse::json(200, &v)),
            // A parse error inside ingest_text is the client's malformed
            // trace text, not a server fault.
            Err(ManagerError::Store(StoreError::Format(m))) => Err(ApiError::new(422, m)),
            Err(e) => Err(e.into()),
        }
    }

    fn label(&self, key: &SessionKey, body: &Value) -> ApiResult {
        let concept_field = body
            .get("concept")
            .ok_or_else(|| ApiError::new(400, "body needs a \"concept\" field"))?;
        let label = require_str(body, "label")?;
        if label.is_empty() {
            return Err(ApiError::new(422, "\"label\" must be non-empty"));
        }
        let selector = match body.get("selector").and_then(Value::as_str) {
            None => TraceSelector::All,
            Some(s) => s.parse().map_err(|e: String| ApiError::new(422, e))?,
        };
        let label = label.to_owned();
        let value = self.manager.with_session(key, |stored| {
            Self::try_recover(stored);
            let concept = parse_concept(concept_field, stored.session().lattice().len())
                .map_err(|e| ManagerError::Store(StoreError::format(e.message)))?;
            let classes = stored
                .label_traces(concept, &selector, &label)
                .map_err(ManagerError::Store)?;
            let progress = stored.session().progress();
            Ok(Value::object([
                ("tenant", Value::from(key.tenant.as_str())),
                ("session", Value::from(key.session.as_str())),
                ("concept", Value::from(format!("c{}", concept.index()))),
                ("classes_labeled", Value::from(classes as u64)),
                (
                    "classes_unlabeled",
                    Value::from((progress.classes - progress.labeled_classes) as u64),
                ),
                ("complete", Value::from(progress.is_complete())),
            ]))
        });
        match value {
            Ok(v) => Ok(ApiResponse::json(200, &v)),
            // parse_concept tunnels its message through StoreError::Format.
            Err(ManagerError::Store(StoreError::Format(m))) => Err(ApiError::new(422, m)),
            Err(e) => Err(e.into()),
        }
    }

    fn lattice(&self, key: &SessionKey) -> ApiResult {
        let value = self.manager.with_session(key, |stored| {
            let session = stored.session();
            let lattice = session.lattice();
            let concepts: Vec<Value> = lattice
                .iter()
                .map(|(id, concept)| {
                    let children: Vec<Value> = lattice
                        .children(id)
                        .iter()
                        .map(|c| Value::from(format!("c{}", c.index())))
                        .collect();
                    Value::object([
                        ("id", Value::from(format!("c{}", id.index()))),
                        (
                            "classes",
                            Value::Array(
                                concept
                                    .extent
                                    .iter()
                                    .map(|v| Value::from(v as u64))
                                    .collect(),
                            ),
                        ),
                        ("transitions", Value::from(concept.intent.len() as u64)),
                        ("state", Value::from(state_name(session.concept_state(id)))),
                        ("children", Value::Array(children)),
                    ])
                })
                .collect();
            Ok(Value::object([
                ("tenant", Value::from(key.tenant.as_str())),
                ("session", Value::from(key.session.as_str())),
                ("top", Value::from(format!("c{}", lattice.top().index()))),
                (
                    "bottom",
                    Value::from(format!("c{}", lattice.bottom().index())),
                ),
                ("concepts", Value::Array(concepts)),
            ]))
        })?;
        Ok(ApiResponse::json(200, &value))
    }

    fn concepts(&self, key: &SessionKey) -> ApiResult {
        let value = self.manager.with_session(key, |stored| {
            let session = stored.session();
            let mut unlabeled = 0u64;
            let mut partly = 0u64;
            let mut fully = 0u64;
            let states: Vec<Value> = session
                .lattice()
                .iter()
                .map(|(id, _)| {
                    let state = session.concept_state(id);
                    match state {
                        ConceptState::Unlabeled => unlabeled += 1,
                        ConceptState::PartlyLabeled => partly += 1,
                        ConceptState::FullyLabeled => fully += 1,
                    }
                    Value::object([
                        ("id", Value::from(format!("c{}", id.index()))),
                        ("state", Value::from(state_name(state))),
                    ])
                })
                .collect();
            let progress = session.progress();
            Ok(Value::object([
                ("tenant", Value::from(key.tenant.as_str())),
                ("session", Value::from(key.session.as_str())),
                ("unlabeled", Value::from(unlabeled)),
                ("partly_labeled", Value::from(partly)),
                ("fully_labeled", Value::from(fully)),
                (
                    "classes_unlabeled",
                    Value::from((progress.classes - progress.labeled_classes) as u64),
                ),
                ("complete", Value::from(progress.is_complete())),
                ("concepts", Value::Array(states)),
            ]))
        })?;
        Ok(ApiResponse::json(200, &value))
    }

    fn focus(&self, key: &SessionKey, query: Option<&str>) -> ApiResult {
        let concept_text = query.and_then(|q| {
            q.split('&').find_map(|pair| {
                pair.split_once('=')
                    .filter(|(k, _)| *k == "concept")
                    .map(|(_, v)| v)
            })
        });
        let Some(concept_text) = concept_text else {
            return Err(ApiError::new(400, "focus needs a ?concept=cN query"));
        };
        let concept_value = Value::from(concept_text);
        let value = self.manager.with_session(key, |stored| {
            let session = stored.session();
            let concept = parse_concept(&concept_value, session.lattice().len())
                .map_err(|e| ManagerError::Store(StoreError::format(e.message)))?;
            // The §4 Focus command: re-cluster the concept's traces
            // under a fresh reference FA (the unordered template over
            // exactly those traces).
            let traces: Vec<Trace> = session
                .show_traces(concept, &TraceSelector::All)
                .into_iter()
                .cloned()
                .collect();
            let fa = templates::unordered_of_trace_events(&traces);
            let focus = session.focus(concept, fa);
            let sub = focus.session();
            Ok(Value::object([
                ("tenant", Value::from(key.tenant.as_str())),
                ("session", Value::from(key.session.as_str())),
                ("concept", Value::from(format!("c{}", concept.index()))),
                ("traces", Value::from(sub.traces().len() as u64)),
                ("classes", Value::from(sub.classes().len() as u64)),
                ("concepts", Value::from(sub.lattice().len() as u64)),
            ]))
        });
        match value {
            Ok(v) => Ok(ApiResponse::json(200, &v)),
            Err(ManagerError::Store(StoreError::Format(m))) => Err(ApiError::new(422, m)),
            Err(e) => Err(e.into()),
        }
    }

    fn digest(&self, key: &SessionKey) -> ApiResult {
        let value = self
            .manager
            .with_session(key, |stored| Ok(session_state_record(stored)))?;
        Ok(ApiResponse::json(200, &value))
    }

    /// The create response: the shape `GET lattice` summarises, minus
    /// the per-concept detail.
    fn summary(&self, key: &SessionKey) -> Result<Value, ApiError> {
        Ok(self.manager.with_session(key, |stored| {
            let session = stored.session();
            Ok(Value::object([
                ("tenant", Value::from(key.tenant.as_str())),
                ("session", Value::from(key.session.as_str())),
                ("traces", Value::from(session.traces().len() as u64)),
                ("classes", Value::from(session.classes().len() as u64)),
                ("concepts", Value::from(session.lattice().len() as u64)),
            ]))
        })?)
    }
}

impl ApiHandler for CableApi {
    fn handle(&self, request: &ApiRequest) -> ApiResponse {
        let _budget = Budget {
            deadline: self.request_deadline,
            ..Budget::default()
        }
        .install();
        // The panic boundary: a bug in one request answers 500 and the
        // worker keeps serving; a tripped request budget answers 503.
        let result = cable_guard::contain(|| self.route(request));
        match result {
            Ok(Ok(response)) => response,
            Ok(Err(e)) => match e.degraded {
                // The declared degraded answer: body says so, and
                // Retry-After tells clients the condition is retryable
                // (the chaos drill gates that every 5xx carries this).
                Some(cause) => ApiResponse::json(
                    e.status,
                    &Value::object([
                        ("error", Value::from(e.message.as_str())),
                        ("status", Value::from(u64::from(e.status))),
                        ("degraded", Value::from(true)),
                        ("cause", Value::from(cause)),
                    ]),
                )
                .with_retry_after(cable_obs::RETRY_AFTER_SECONDS),
                None => ApiResponse::error(e.status, &e.message),
            },
            Err(GuardError::BudgetExceeded { limit, site }) => {
                ApiResponse::error(503, &format!("request budget exceeded at {site}: {limit}"))
            }
            Err(GuardError::TaskPanic { message }) => {
                ApiResponse::error(500, &format!("internal error: {message}"))
            }
        }
    }
}

fn parse_body(body: &str) -> Result<Value, ApiError> {
    if body.trim().is_empty() {
        return Err(ApiError::new(400, "request body must be a JSON object"));
    }
    let value = {
        let _span = Span::open("parse.body");
        Value::parse(body.trim())
    };
    let value = value.map_err(|e| ApiError::new(400, format!("malformed JSON body: {e}")))?;
    if !matches!(value, Value::Object(_)) {
        return Err(ApiError::new(400, "request body must be a JSON object"));
    }
    Ok(value)
}

fn require_str<'a>(body: &'a Value, field: &str) -> Result<&'a str, ApiError> {
    body.get(field)
        .and_then(Value::as_str)
        .ok_or_else(|| ApiError::new(400, format!("body needs a string {field:?} field")))
}

/// Parses `"cN"` or a bare integer into a concept id, bounds-checked
/// against the lattice.
fn parse_concept(value: &Value, concepts: usize) -> Result<ConceptId, ApiError> {
    let index = match value {
        Value::String(s) => s
            .strip_prefix('c')
            .unwrap_or(s)
            .parse::<u32>()
            .map_err(|_| ApiError::new(422, format!("concept {s:?} is not \"cN\" or N")))?,
        v => v
            .as_u64()
            .and_then(|n| u32::try_from(n).ok())
            .ok_or_else(|| ApiError::new(422, "concept must be \"cN\" or a non-negative N"))?,
    };
    if (index as usize) >= concepts {
        return Err(ApiError::new(
            422,
            format!("concept c{index} is out of range (lattice has {concepts} concepts)"),
        ));
    }
    Ok(ConceptId(index))
}

fn state_name(state: ConceptState) -> &'static str {
    match state {
        ConceptState::Unlabeled => "unlabeled",
        ConceptState::PartlyLabeled => "partly_labeled",
        ConceptState::FullyLabeled => "fully_labeled",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn api(tag: &str, max_open: usize) -> (CableApi, std::path::PathBuf) {
        let root = std::env::temp_dir().join(format!(
            "cable-core-api-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        let manager = Arc::new(SessionManager::new(&root, max_open));
        (CableApi::new(manager, None), root)
    }

    fn post(api: &CableApi, route: &str, body: &str) -> ApiResponse {
        api.handle(&ApiRequest {
            method: "POST".into(),
            route: route.into(),
            query: None,
            body: body.into(),
        })
    }

    fn get(api: &CableApi, route: &str, query: Option<&str>) -> ApiResponse {
        api.handle(&ApiRequest {
            method: "GET".into(),
            route: route.into(),
            query: query.map(str::to_owned),
            body: String::new(),
        })
    }

    fn body_json(response: &ApiResponse) -> Value {
        Value::parse(response.body.trim()).expect("response body is JSON")
    }

    #[test]
    fn full_lifecycle_open_ingest_label_query() {
        let (api, root) = api("lifecycle", 4);

        let created = post(
            &api,
            "/api/sessions",
            r#"{"tenant": "t1", "session": "s1", "traces": "fopen(X) fclose(X)\nfopen(Y)"}"#,
        );
        assert_eq!(created.status, 201, "{}", created.body);
        let summary = body_json(&created);
        assert_eq!(summary.get("traces").and_then(Value::as_u64), Some(2));

        let ingested = post(
            &api,
            "/api/sessions/s1/ingest",
            r#"{"tenant": "t1", "traces": "fopen(Z) fclose(Z)"}"#,
        );
        assert_eq!(ingested.status, 200, "{}", ingested.body);
        let report = body_json(&ingested);
        assert_eq!(report.get("ingested").and_then(Value::as_u64), Some(1));

        let lattice = get(&api, "/api/sessions/s1/lattice", Some("tenant=t1"));
        assert_eq!(lattice.status, 200, "{}", lattice.body);
        let lattice = body_json(&lattice);
        let top = lattice.get("top").and_then(Value::as_str).unwrap();
        assert!(lattice
            .get("concepts")
            .and_then(Value::as_array)
            .is_some_and(|c| !c.is_empty()));

        let labeled = post(
            &api,
            "/api/sessions/s1/label",
            &format!(
                r#"{{"tenant": "t1", "concept": "{top}", "selector": "unlabeled", "label": "good"}}"#
            ),
        );
        assert_eq!(labeled.status, 200, "{}", labeled.body);
        let labeled = body_json(&labeled);
        assert_eq!(labeled.get("complete"), Some(&Value::Bool(true)));

        let concepts = get(&api, "/api/sessions/s1/concepts", Some("tenant=t1"));
        assert_eq!(concepts.status, 200);
        let concepts = body_json(&concepts);
        assert_eq!(concepts.get("unlabeled").and_then(Value::as_u64), Some(0));

        let focus = get(
            &api,
            "/api/sessions/s1/focus",
            Some(&format!("tenant=t1&concept={top}")),
        );
        assert_eq!(focus.status, 200, "{}", focus.body);

        let digest = get(&api, "/api/sessions/s1/digest", Some("tenant=t1"));
        assert_eq!(digest.status, 200);
        let digest = body_json(&digest);
        assert_eq!(
            digest.get("record").and_then(Value::as_str),
            Some("session_state")
        );
        assert!(digest
            .get("corpus_digest")
            .and_then(Value::as_str)
            .is_some());

        let listing = get(&api, "/api/sessions", None);
        assert_eq!(listing.status, 200);
        let listing = body_json(&listing);
        assert_eq!(listing.get("open_count").and_then(Value::as_u64), Some(1));

        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn client_errors_get_4xx_not_5xx() {
        let (api, root) = api("errors", 4);

        // Malformed JSON → 400.
        let r = post(&api, "/api/sessions", "{not json");
        assert_eq!(r.status, 400, "{}", r.body);
        assert!(body_json(&r).get("error").is_some());
        // Non-object JSON → 400.
        assert_eq!(post(&api, "/api/sessions", "[1,2]").status, 400);
        // Empty body → 400.
        assert_eq!(post(&api, "/api/sessions", "").status, 400);
        // Missing fields → 400.
        assert_eq!(
            post(&api, "/api/sessions", r#"{"session": "x"}"#).status,
            400
        );
        // Bad names → 400.
        let r = post(
            &api,
            "/api/sessions",
            r#"{"tenant": "../evil", "session": "s", "traces": "fopen(X)"}"#,
        );
        assert_eq!(r.status, 400, "{}", r.body);
        // Unknown session → 404.
        assert_eq!(
            post(
                &api,
                "/api/sessions/ghost/ingest",
                r#"{"traces": "fopen(X)"}"#
            )
            .status,
            404
        );
        // Unknown route → 404.
        assert_eq!(get(&api, "/api/frobnicate", None).status, 404);
        // Unparsable trace text → 422.
        let r = post(
            &api,
            "/api/sessions",
            r#"{"session": "s", "traces": "this is ( not a trace"}"#,
        );
        assert_eq!(r.status, 422, "{}", r.body);

        // A good create, then conflict and concept-range errors.
        let r = post(
            &api,
            "/api/sessions",
            r#"{"session": "s", "traces": "fopen(X) fclose(X)"}"#,
        );
        assert_eq!(r.status, 201, "{}", r.body);
        let r = post(
            &api,
            "/api/sessions",
            r#"{"session": "s", "traces": "fopen(X)"}"#,
        );
        assert_eq!(r.status, 409, "{}", r.body);
        let r = post(
            &api,
            "/api/sessions/s/label",
            r#"{"concept": "c999", "label": "good"}"#,
        );
        assert_eq!(r.status, 422, "{}", r.body);
        let r = post(
            &api,
            "/api/sessions/s/label",
            r#"{"concept": "c0", "selector": "sometimes", "label": "good"}"#,
        );
        assert_eq!(r.status, 422, "{}", r.body);
        let r = get(&api, "/api/sessions/s/focus", None);
        assert_eq!(r.status, 400, "{}", r.body);

        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn tenants_are_isolated_by_directory() {
        let (api, root) = api("isolation", 4);
        let r = post(
            &api,
            "/api/sessions",
            r#"{"tenant": "alice", "session": "s", "traces": "fopen(X) fclose(X)"}"#,
        );
        assert_eq!(r.status, 201);
        // The same session name under another tenant is a different
        // (absent) store.
        let r = get(&api, "/api/sessions/s/digest", Some("tenant=bob"));
        assert_eq!(r.status, 404, "{}", r.body);
        // And creating it works, giving bob his own store directory.
        let r = post(
            &api,
            "/api/sessions",
            r#"{"tenant": "bob", "session": "s", "traces": "fopen(Y)"}"#,
        );
        assert_eq!(r.status, 201);
        assert!(root.join("alice").join("s").is_dir());
        assert!(root.join("bob").join("s").is_dir());
        // An ingest and a label that name the tenant only by query reach
        // alice's session, and only hers.
        let digest = |tenant: &str| {
            let r = get(&api, "/api/sessions/s/digest", Some(tenant));
            assert_eq!(r.status, 200, "{}", r.body);
            r.body
        };
        let post_as_alice = |route: &str, body: String| {
            api.handle(&ApiRequest {
                method: "POST".into(),
                route: route.into(),
                query: Some("tenant=alice".into()),
                body,
            })
        };
        let (alice, bob) = (digest("tenant=alice"), digest("tenant=bob"));
        let r = post_as_alice(
            "/api/sessions/s/ingest",
            r#"{"traces": "fopen(Z) fread(Z) fclose(Z)"}"#.into(),
        );
        assert_eq!(r.status, 200, "{}", r.body);
        let ingested = digest("tenant=alice");
        assert_ne!(ingested, alice, "the ingest reached alice");
        let lattice = body_json(&get(&api, "/api/sessions/s/lattice", Some("tenant=alice")));
        let top = lattice.get("top").and_then(Value::as_str).unwrap();
        let r = post_as_alice(
            "/api/sessions/s/label",
            format!(r#"{{"concept": "{top}", "label": "good"}}"#),
        );
        assert_eq!(r.status, 200, "{}", r.body);
        assert_ne!(digest("tenant=alice"), ingested, "the label reached alice");
        assert_eq!(digest("tenant=bob"), bob, "bob's session is untouched");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn request_deadline_answers_503_not_a_hang() {
        let (api, root) = {
            let root = std::env::temp_dir().join(format!(
                "cable-core-api-deadline-{}-{:?}",
                std::process::id(),
                std::thread::current().id()
            ));
            let _ = std::fs::remove_dir_all(&root);
            let manager = Arc::new(SessionManager::new(&root, 4));
            (CableApi::new(manager, Some(Duration::from_millis(0))), root)
        };
        std::thread::sleep(Duration::from_millis(2));
        let r = post(&api, "/api/sessions/s1/ingest", r#"{"traces": "fopen(X)"}"#);
        // The zero deadline trips at the first checkpoint: 503 (or 404
        // if the lookup wins the race to fail first — either way, not a
        // hang and not a 200).
        assert!(
            r.status == 503 || r.status == 404,
            "expected 503/404, got {}: {}",
            r.status,
            r.body
        );
        let _ = std::fs::remove_dir_all(&root);
    }
}
