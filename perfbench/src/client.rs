//! The benchmark's own HTTP/1.1 client.
//!
//! It keeps one connection and reuses it for the next request unless
//! the response says `Connection: close` (or carries no
//! `Content-Length`, so the body ends at EOF). A server that learns
//! keep-alive is therefore measured with reuse, and one that closes
//! every connection with a connect per request, without a change here.
//! Connects and connect errors are counted: a connect error is a
//! failed request, which is how ephemeral-port exhaustion across
//! back-to-back runs shows up.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Per-read and per-write patience: long enough for a slow reopen,
/// short enough to catch a hung server.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// Ceiling on a response head or body the client will buffer.
const MAX_BYTES: usize = 64 << 20;

/// One parsed response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// The status code.
    pub status: u16,
    /// The body.
    pub body: String,
    /// Whether the server ended the connection after this response.
    pub closed: bool,
}

/// A client bound to one server address.
#[derive(Debug)]
pub struct Client {
    addr: String,
    conn: Option<BufReader<TcpStream>>,
    /// TCP connections opened.
    pub connects: u64,
    /// Connection attempts that failed.
    pub connect_errors: u64,
}

impl Client {
    /// A client for `addr` (`host:port`); connects lazily.
    pub fn new(addr: impl Into<String>) -> Client {
        Client {
            addr: addr.into(),
            conn: None,
            connects: 0,
            connect_errors: 0,
        }
    }

    /// Sends one request and reads its response. A request on a reused
    /// connection that fails before any response byte arrives (the
    /// server closed the idle connection) is retried once on a fresh
    /// connection; nothing else is retried.
    ///
    /// # Errors
    ///
    /// Connect, read or write errors, timeouts, and malformed responses.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> io::Result<Response> {
        let reused = self.conn.is_some();
        match self.attempt(method, path, body) {
            Err(Failure::BeforeResponse(_)) if reused => {
                self.conn = None;
                self.attempt(method, path, body).map_err(Failure::into_io)
            }
            other => other.map_err(Failure::into_io),
        }
    }

    fn attempt(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<Response, Failure> {
        if self.conn.is_none() {
            let stream = TcpStream::connect(&self.addr).map_err(|e| {
                self.connect_errors += 1;
                Failure::Other(e)
            })?;
            self.connects += 1;
            let setup = stream
                .set_read_timeout(Some(IO_TIMEOUT))
                .and_then(|()| stream.set_write_timeout(Some(IO_TIMEOUT)))
                .and_then(|()| stream.set_nodelay(true));
            setup.map_err(Failure::Other)?;
            self.conn = Some(BufReader::new(stream));
        }
        let conn = self.conn.as_mut().expect("connected above");
        let payload = body.unwrap_or("");
        let mut head = format!("{method} {path} HTTP/1.1\r\nHost: {}\r\n", self.addr);
        if body.is_some() {
            head.push_str("Content-Type: application/json\r\n");
        }
        head.push_str(&format!("Content-Length: {}\r\n\r\n", payload.len()));
        head.push_str(payload);
        let result = conn
            .get_mut()
            .write_all(head.as_bytes())
            .map_err(Failure::BeforeResponse)
            .and_then(|()| read_response(conn));
        match &result {
            Ok(r) if !r.closed => {}
            _ => self.conn = None,
        }
        result
    }
}

/// Why an attempt failed: before any response byte (safe to retry on a
/// fresh connection) or later.
enum Failure {
    BeforeResponse(io::Error),
    Other(io::Error),
}

impl Failure {
    fn into_io(self) -> io::Error {
        match self {
            Failure::BeforeResponse(e) | Failure::Other(e) => e,
        }
    }
}

fn bad(msg: impl Into<String>) -> Failure {
    Failure::Other(io::Error::new(io::ErrorKind::InvalidData, msg.into()))
}

/// Reads one response: status line, headers, then a `Content-Length`
/// body, or the rest of the stream when there is none.
fn read_response<R: BufRead>(r: &mut R) -> Result<Response, Failure> {
    let mut line = String::new();
    match r.read_line(&mut line) {
        Ok(0) => {
            return Err(Failure::BeforeResponse(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed before the response",
            )))
        }
        Ok(_) => {}
        Err(e) => return Err(Failure::BeforeResponse(e)),
    }
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .filter(|_| line.starts_with("HTTP/1."))
        .ok_or_else(|| bad(format!("bad status line {:?}", line.trim_end())))?;
    let mut length: Option<usize> = None;
    let mut closed = line.starts_with("HTTP/1.0");
    let mut head_bytes = line.len();
    loop {
        line.clear();
        let n = r.read_line(&mut line).map_err(Failure::Other)?;
        head_bytes += n;
        if n == 0 {
            return Err(bad("connection closed inside the response head"));
        }
        if head_bytes > MAX_BYTES {
            return Err(bad("response head too large"));
        }
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                let n = value
                    .parse::<usize>()
                    .map_err(|_| bad(format!("bad Content-Length {value:?}")))?;
                if n > MAX_BYTES {
                    return Err(bad("response body too large"));
                }
                length = Some(n);
            } else if name.eq_ignore_ascii_case("connection") {
                closed = value.eq_ignore_ascii_case("close");
            }
        }
    }
    let mut raw = Vec::new();
    match length {
        Some(n) => {
            raw.resize(n, 0);
            r.read_exact(&mut raw).map_err(Failure::Other)?;
        }
        None => {
            closed = true;
            r.take(MAX_BYTES as u64)
                .read_to_end(&mut raw)
                .map_err(Failure::Other)?;
        }
    }
    let body = String::from_utf8(raw).map_err(|_| bad("response body is not UTF-8"))?;
    Ok(Response {
        status,
        body,
        closed,
    })
}
