//! The API seam: what an HTTP server hands to the session service under
//! `/api/`, and what the service answers with.
//!
//! `cable-obs` knows nothing about sessions — the dependency runs the
//! other way — so the server (`cable-core`'s `server` module) calls an
//! [`ApiHandler`] it is bound with and frames the [`ApiResponse`] it
//! gets back. Keeping the seam here lets in-process replays drive the
//! session service without a socket.

use crate::json::Value;
use crate::span::Span;

/// The `Retry-After` value (seconds) sent with `429` responses and
/// declared degraded `503`s.
pub const RETRY_AFTER_SECONDS: u64 = 1;

/// A request routed to the API plane: anything under `/api/`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApiRequest {
    /// The HTTP method (`GET`, `POST`, …), uppercased as received.
    pub method: String,
    /// The path without the query string, e.g. `/api/sessions/s1/label`.
    pub route: String,
    /// The raw query string after `?`, if any.
    pub query: Option<String>,
    /// The request body (bounded by the server's body cap).
    pub body: String,
}

/// An HTTP answer. The server adds framing (status text,
/// `Content-Length`, `Connection: close`) around it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApiResponse {
    /// HTTP status code (200, 201, 400, 404, …).
    pub status: u16,
    /// The `Content-Type` header value.
    pub content_type: &'static str,
    /// The response body.
    pub body: String,
    /// When set, the server adds a `Retry-After: <seconds>` header —
    /// how degraded-store `503`s tell clients the condition is
    /// retryable.
    pub retry_after: Option<u64>,
}

impl ApiResponse {
    /// A JSON response. Rendering is a `serialize.response` span: on
    /// large lattice views the body formatting is real work, and the
    /// trace-report serialization stage accounts for it.
    pub fn json(status: u16, value: &Value) -> ApiResponse {
        let body = {
            let _span = Span::open("serialize.response");
            format!("{value}\n")
        };
        ApiResponse {
            status,
            content_type: "application/json; charset=utf-8",
            body,
            retry_after: None,
        }
    }

    /// An error response with the standard `{"error": …, "status": …}`
    /// body.
    pub fn error(status: u16, message: &str) -> ApiResponse {
        ApiResponse::json(
            status,
            &Value::object([
                ("error", Value::from(message)),
                ("status", Value::from(u64::from(status))),
            ]),
        )
    }

    /// Attaches a `Retry-After` header value (seconds).
    pub fn with_retry_after(mut self, seconds: u64) -> ApiResponse {
        self.retry_after = Some(seconds);
        self
    }
}

/// The API plane behind `/api/` routes: `cable-core`'s `CableApi`,
/// handed to the server when it is bound.
pub trait ApiHandler: Send + Sync {
    /// Handles one API request. Infallible by construction: errors are
    /// [`ApiResponse`]s with 4xx/5xx statuses.
    fn handle(&self, request: &ApiRequest) -> ApiResponse;
}
