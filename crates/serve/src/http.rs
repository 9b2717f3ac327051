//! Minimal HTTP/1.1 over `std::net`: capped request parsing and response
//! writing.
//!
//! Deliberately tiny — the daemon speaks exactly the subset its JSON API
//! needs (`Content-Length`-framed bodies, `Connection: close` on every
//! response), with hard caps on header and body size so a malformed or
//! hostile request costs bounded memory and yields a clean `400`/`413`
//! instead of a panic or an OOM.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Upper bound on the request line plus all headers.
pub(crate) const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Most bytes of an oversized body the server drains before answering
/// `413`. Draining lets the client's in-flight writes complete so it
/// reads the response instead of a connection reset; the cap keeps a
/// hostile multi-gigabyte declaration from tying a worker up.
pub(crate) const MAX_DRAIN_BYTES: usize = 1024 * 1024;

/// Why a request could not be read.
#[derive(Debug)]
pub(crate) enum HttpError {
    /// Malformed request line, header, or body framing — maps to `400`.
    Bad(String),
    /// Declared body exceeds the configured cap — maps to `413`.
    TooLarge {
        /// The configured body cap (bytes).
        limit: usize,
        /// The `Content-Length` the client declared.
        declared: usize,
    },
    /// The client fed bytes slower than the socket timeout / request
    /// deadline allows — maps to `408`.
    Deadline {
        /// Which phase timed out (`"head"`, `"body"`, `"handling"`).
        phase: &'static str,
    },
    /// Socket-level failure before a full request arrived; no response
    /// can usefully be written.
    Io(std::io::Error),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Bad(m) => write!(f, "bad request: {m}"),
            HttpError::TooLarge { limit, declared } => {
                write!(f, "payload of {declared} bytes exceeds {limit}-byte limit")
            }
            HttpError::Deadline { phase } => write!(f, "deadline exceeded while reading {phase}"),
            HttpError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

/// A parsed request: method, path, negotiation headers, and the
/// (possibly empty) body.
#[derive(Debug)]
pub struct Request {
    /// Uppercase method token (`GET`, `POST`, …).
    pub method: String,
    /// Request path, query string included verbatim.
    pub path: String,
    /// Lowercased `Content-Type` value, when the client sent one.
    pub content_type: Option<String>,
    /// Lowercased `Accept` value, when the client sent one.
    pub accept: Option<String>,
    /// The `Content-Length`-framed body.
    pub body: Vec<u8>,
}

impl Request {
    /// A request with no negotiation headers (test helper shape).
    pub fn new(method: impl Into<String>, path: impl Into<String>, body: Vec<u8>) -> Self {
        Self { method: method.into(), path: path.into(), content_type: None, accept: None, body }
    }

    /// True when the request body declares the given media type (matched
    /// against the `Content-Type` value up to any `;` parameter).
    pub(crate) fn body_is(&self, media_type: &str) -> bool {
        self.content_type
            .as_deref()
            .map(|v| v.split(';').next().unwrap_or(v).trim() == media_type)
            .unwrap_or(false)
    }

    /// True when the client's `Accept` header asks for the given media
    /// type (simple containment — the daemon only negotiates between
    /// JSON and one binary type, so q-values are not needed).
    pub(crate) fn accepts(&self, media_type: &str) -> bool {
        self.accept.as_deref().map(|v| v.contains(media_type)).unwrap_or(false)
    }
}

/// A [`TcpStream`] wrapper that re-arms the socket read timeout before
/// *every* read syscall to `min(per-read timeout, time left until the
/// whole-request deadline)`. This is what makes the request deadline
/// interrupt a trickling client mid-read: with only a per-read socket
/// timeout, a client feeding one byte per interval resets the clock on
/// every read and can hold a worker for hours.
struct DeadlineStream<'a> {
    stream: &'a TcpStream,
    /// The per-read socket timeout configured on the connection.
    per_read: Option<Duration>,
    /// Absolute whole-request deadline, when one is enforced.
    deadline: Option<Instant>,
}

impl Read for DeadlineStream<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if let Some(deadline) = self.deadline {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    "request deadline exhausted",
                ));
            }
            let timeout = match self.per_read {
                Some(per_read) => per_read.min(remaining),
                None => remaining,
            };
            // `set_read_timeout` rejects a zero duration; clamping up to
            // 1ms turns "almost out of budget" into one last short read.
            self.stream.set_read_timeout(Some(timeout.max(Duration::from_millis(1))))?;
        }
        (&mut self.stream).read(buf)
    }
}

/// Reads one line (up to CRLF) with a byte budget shared across the whole
/// head. Returns the line without its terminator.
fn read_line_capped<R: Read>(
    reader: &mut BufReader<R>,
    budget: &mut usize,
) -> Result<String, HttpError> {
    let mut line = Vec::new();
    let mut limited = reader.by_ref().take(*budget as u64 + 1);
    limited
        .read_until(b'\n', &mut line)
        .map_err(|e| match e.kind() {
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
                HttpError::Deadline { phase: "head" }
            }
            _ => HttpError::Io(e),
        })
        .and_then(|_| {
            if line.len() > *budget {
                return Err(HttpError::Bad(format!("request head exceeds {MAX_HEAD_BYTES} bytes")));
            }
            *budget -= line.len();
            if !line.ends_with(b"\n") {
                return Err(HttpError::Bad("request head truncated".into()));
            }
            while line.last() == Some(&b'\n') || line.last() == Some(&b'\r') {
                line.pop();
            }
            String::from_utf8(line).map_err(|_| HttpError::Bad("non-UTF-8 request head".into()))
        })
}

/// Reads and parses one request from the stream, enforcing `max_body` on
/// the declared `Content-Length`. Every framing violation — a malformed
/// request line, a non-numeric or negative length, a body shorter than
/// declared — comes back as [`HttpError::Bad`]. When `deadline` is set,
/// every read syscall is clamped to the time remaining, so even a client
/// trickling one byte per socket-timeout interval gets its `408` at the
/// deadline instead of holding the worker indefinitely.
pub(crate) fn read_request(
    stream: &TcpStream,
    max_body: usize,
    deadline: Option<Instant>,
) -> Result<Request, HttpError> {
    let per_read = stream.read_timeout().ok().flatten();
    let mut reader = BufReader::new(DeadlineStream { stream, per_read, deadline });
    let mut budget = MAX_HEAD_BYTES;

    let request_line = read_line_capped(&mut reader, &mut budget)?;
    let mut parts = request_line.split(' ');
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) if !m.is_empty() && p.starts_with('/') => (m, p, v),
        _ => return Err(HttpError::Bad(format!("malformed request line {request_line:?}"))),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Bad(format!("unsupported protocol {version:?}")));
    }

    let mut content_length: usize = 0;
    let mut content_type: Option<String> = None;
    let mut accept: Option<String> = None;
    loop {
        let line = read_line_capped(&mut reader, &mut budget)?;
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::Bad(format!("malformed header {line:?}")));
        };
        let name = name.trim();
        if name.eq_ignore_ascii_case("content-length") {
            let value = value.trim();
            content_length = value
                .parse::<usize>()
                .map_err(|_| HttpError::Bad(format!("bad Content-Length {value:?}")))?;
        } else if name.eq_ignore_ascii_case("content-type") {
            content_type = Some(value.trim().to_ascii_lowercase());
        } else if name.eq_ignore_ascii_case("accept") {
            accept = Some(value.trim().to_ascii_lowercase());
        }
    }

    if content_length > max_body {
        // Drain (bounded) what the client is still sending: with unread
        // bytes in the receive buffer, closing the socket sends RST and
        // most clients never see the 413. Draining up to the cap lets a
        // well-behaved client finish writing and read the response.
        let drain = content_length.min(MAX_DRAIN_BYTES) as u64;
        let _ = std::io::copy(&mut reader.by_ref().take(drain), &mut std::io::sink());
        return Err(HttpError::TooLarge { limit: max_body, declared: content_length });
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).map_err(|e| match e.kind() {
        std::io::ErrorKind::UnexpectedEof => HttpError::Bad(format!(
            "body truncated: Content-Length {content_length} but the connection closed early"
        )),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
            HttpError::Deadline { phase: "body" }
        }
        _ => HttpError::Io(e),
    })?;
    Ok(Request { method: method.to_string(), path: path.to_string(), content_type, accept, body })
}

/// An outgoing response. Every response closes the connection.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Extra headers (e.g. `Retry-After`).
    pub extra_headers: Vec<(&'static str, String)>,
    /// Response body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Self {
        Self {
            status,
            content_type: "application/json",
            extra_headers: Vec::new(),
            body: body.into_bytes(),
        }
    }

    /// A binary response with the given media type.
    pub fn binary(status: u16, content_type: &'static str, body: Vec<u8>) -> Self {
        Self { status, content_type, extra_headers: Vec::new(), body }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: String) -> Self {
        Self {
            status,
            content_type: "text/plain; charset=utf-8",
            extra_headers: Vec::new(),
            body: body.into_bytes(),
        }
    }

    /// The typed JSON error body every failure path returns:
    /// `{"error":{"kind":…,"message":…}}`.
    pub fn error(status: u16, kind: &str, message: &str) -> Self {
        let kind_json = serde_json::to_string(&kind.to_string()).unwrap_or_default();
        let msg_json = serde_json::to_string(&message.to_string()).unwrap_or_default();
        Self::json(status, format!("{{\"error\":{{\"kind\":{kind_json},\"message\":{msg_json}}}}}"))
    }

    /// Adds a header. Builder-style.
    pub(crate) fn with_header(mut self, name: &'static str, value: String) -> Self {
        self.extra_headers.push((name, value));
        self
    }

    /// Serializes the response to the stream (status line, headers, body)
    /// and flushes it.
    pub(crate) fn write_to(&self, stream: &mut TcpStream) -> std::io::Result<()> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: close\r\n",
            self.status,
            reason(self.status),
            self.content_type,
            self.body.len()
        );
        for (name, value) in &self.extra_headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        stream.write_all(head.as_bytes())?;
        stream.write_all(&self.body)?;
        stream.flush()
    }
}

/// Converts a read failure into the response to send (when one can be
/// sent at all).
pub(crate) fn error_response(err: &HttpError) -> Option<Response> {
    match err {
        HttpError::Bad(m) => Some(Response::error(400, "bad_request", m)),
        HttpError::TooLarge { limit, declared } => Some(
            Response::error(
                413,
                "payload_too_large",
                &format!("request body of {declared} bytes exceeds the {limit}-byte limit"),
            )
            .with_header("retry-after", "1".to_string()),
        ),
        HttpError::Deadline { phase } => Some(Response::error(
            408,
            "request_timeout",
            &format!("deadline exceeded while reading request {phase}"),
        )),
        HttpError::Io(_) => None,
    }
}

/// Canonical reason phrase for the status codes the daemon emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    /// Writes `raw` into a socket pair and parses it server-side.
    fn parse(raw: &[u8], max_body: usize) -> Result<Request, HttpError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        client.write_all(raw).unwrap();
        client.shutdown(std::net::Shutdown::Write).unwrap();
        let (server, _) = listener.accept().unwrap();
        read_request(&server, max_body, None)
    }

    #[test]
    fn parses_a_simple_post() {
        let req = parse(b"POST /plan HTTP/1.1\r\ncontent-length: 4\r\n\r\nabcd", 1024).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/plan");
        assert_eq!(req.body, b"abcd");
    }

    #[test]
    fn negotiation_headers_are_captured_lowercased() {
        let req = parse(
            b"POST /telemetry/batch HTTP/1.1\r\nContent-Type: Application/X-Perpetuum; v=1\r\nAccept: application/JSON, application/x-perpetuum\r\ncontent-length: 0\r\n\r\n",
            1024,
        )
        .unwrap();
        assert_eq!(req.content_type.as_deref(), Some("application/x-perpetuum; v=1"));
        assert!(req.body_is("application/x-perpetuum"), "parameters are ignored");
        assert!(!req.body_is("application/json"));
        assert!(req.accepts("application/x-perpetuum"));
        assert!(req.accepts("application/json"));
        assert!(!req.accepts("text/html"));
        // Absent headers: JSON default (no body type, accepts nothing).
        let plain = parse(b"GET /healthz HTTP/1.1\r\nhost: x\r\n\r\n", 1024).unwrap();
        assert_eq!(plain.content_type, None);
        assert!(!plain.accepts("application/x-perpetuum"));
    }

    #[test]
    fn get_without_length_has_empty_body() {
        let req = parse(b"GET /healthz HTTP/1.1\r\nhost: x\r\n\r\n", 1024).unwrap();
        assert_eq!(req.method, "GET");
        assert!(req.body.is_empty());
    }

    #[test]
    fn bad_content_length_is_rejected() {
        for cl in ["abc", "-5", "1e3", ""] {
            let raw = format!("POST /plan HTTP/1.1\r\ncontent-length: {cl}\r\n\r\n");
            match parse(raw.as_bytes(), 1024) {
                Err(HttpError::Bad(m)) => assert!(m.contains("Content-Length"), "{m}"),
                other => panic!("expected Bad for {cl:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn truncated_body_is_rejected() {
        match parse(b"POST /plan HTTP/1.1\r\ncontent-length: 100\r\n\r\nshort", 1024) {
            Err(HttpError::Bad(m)) => assert!(m.contains("truncated"), "{m}"),
            other => panic!("expected Bad, got {other:?}"),
        }
    }

    #[test]
    fn oversized_body_is_too_large() {
        match parse(b"POST /plan HTTP/1.1\r\ncontent-length: 999999\r\n\r\n", 1024) {
            Err(HttpError::TooLarge { limit: 1024, declared: 999_999 }) => {}
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn oversized_body_is_drained_so_the_client_can_finish_writing() {
        // The full declared body is on the wire; the parser must consume
        // it (bounded) rather than leave it unread — unread bytes at close
        // turn the 413 into a connection reset client-side.
        // Small enough to fit loopback socket buffers (the test client
        // writes before the server reads), big enough to prove draining.
        let declared = 32 * 1024;
        let mut raw =
            format!("POST /plan HTTP/1.1\r\ncontent-length: {declared}\r\n\r\n").into_bytes();
        raw.extend(vec![b'x'; declared]);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        client.write_all(&raw).unwrap();
        let (server, _) = listener.accept().unwrap();
        match read_request(&server, 1024, None) {
            Err(HttpError::TooLarge { limit: 1024, declared: d }) => assert_eq!(d, declared),
            other => panic!("expected TooLarge, got {other:?}"),
        }
        // Every body byte was pulled off the socket: nothing pending.
        server.set_nonblocking(true).unwrap();
        let mut probe = [0u8; 1];
        use std::io::Read as _;
        match (&server).read(&mut probe) {
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
            other => panic!("expected a fully drained socket, got {other:?}"),
        }
    }

    #[test]
    fn slow_clients_hit_the_deadline_not_a_parse_error() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        // Half a request, then silence.
        client.write_all(b"POST /plan HTTP/1.1\r\ncontent-le").unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_read_timeout(Some(std::time::Duration::from_millis(30))).unwrap();
        match read_request(&server, 1024, None) {
            Err(HttpError::Deadline { phase: "head" }) => {}
            other => panic!("expected Deadline, got {other:?}"),
        }
        // Same for a stalled body.
        let mut client2 = TcpStream::connect(addr).unwrap();
        client2.write_all(b"POST /plan HTTP/1.1\r\ncontent-length: 10\r\n\r\nabc").unwrap();
        let (server2, _) = listener.accept().unwrap();
        server2.set_read_timeout(Some(std::time::Duration::from_millis(30))).unwrap();
        match read_request(&server2, 1024, None) {
            Err(HttpError::Deadline { phase: "body" }) => {}
            other => panic!("expected body Deadline, got {other:?}"),
        }
        let resp = error_response(&HttpError::Deadline { phase: "body" }).unwrap();
        assert_eq!(resp.status, 408);
        drop((client, client2));
    }

    /// The slow-loris case the per-read socket timeout cannot catch: a
    /// client trickling one byte per interval resets the socket timeout
    /// on every read. Only the whole-request deadline, enforced inside
    /// every read, can cut it off.
    #[test]
    fn trickling_client_cannot_outlive_the_deadline() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        // Per-read timeout generously above the trickle interval: every
        // individual read succeeds, so without the deadline this request
        // would be read to completion (or hang for `head bytes × 200ms`).
        server.set_read_timeout(Some(std::time::Duration::from_millis(200))).unwrap();
        let deadline = Instant::now() + Duration::from_millis(150);
        let writer = std::thread::spawn(move || {
            for &b in b"GET /healthz HTTP/1.1\r\nx-padding: aaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n\r\n" {
                if client.write_all(&[b]).is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        });
        let started = Instant::now();
        match read_request(&server, 1024, Some(deadline)) {
            Err(HttpError::Deadline { phase: "head" }) => {}
            other => panic!("expected head Deadline, got {other:?}"),
        }
        let elapsed = started.elapsed();
        assert!(
            elapsed < Duration::from_secs(2),
            "deadline must interrupt the trickle promptly, took {elapsed:?}"
        );
        drop(server);
        writer.join().unwrap();
    }

    #[test]
    fn malformed_request_line_is_rejected() {
        for raw in [
            &b"NONSENSE\r\n\r\n"[..],
            b"GET\r\n\r\n",
            b"GET /x HTTP/1.1 extra\r\n\r\n",
            b"GET x HTTP/1.1\r\n\r\n",
        ] {
            assert!(matches!(parse(raw, 1024), Err(HttpError::Bad(_))), "{raw:?}");
        }
    }

    #[test]
    fn oversized_head_is_rejected() {
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        raw.extend(vec![b'a'; MAX_HEAD_BYTES + 10]);
        assert!(matches!(parse(&raw, 1024), Err(HttpError::Bad(_))));
    }

    #[test]
    fn error_bodies_are_typed_json() {
        let r = error_response(&HttpError::Bad("no \"quotes\"".into())).unwrap();
        assert_eq!(r.status, 400);
        let body = String::from_utf8(r.body).unwrap();
        let v = serde_json::parse_value(&body).unwrap();
        assert!(v.get("error").and_then(|e| e.get("kind")).is_some());
        let r = error_response(&HttpError::TooLarge { limit: 7, declared: 99 }).unwrap();
        assert_eq!(r.status, 413);
        assert!(r.extra_headers.iter().any(|(n, _)| *n == "retry-after"));
        assert!(error_response(&HttpError::Io(std::io::Error::other("x"))).is_none());
    }
}
