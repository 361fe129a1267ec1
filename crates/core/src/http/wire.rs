//! HTTP/1.1 wire format: request reading, response writing, chunked
//! transfer encoding — hand-rolled over `std::io`, no crates.io.
//!
//! The parser is deliberately a *subset* of RFC 9112, chosen so that
//! every behavior is enforceable and tested (DESIGN.md §13):
//!
//! - Requests: a single request line (`METHOD SP TARGET SP HTTP/1.x`),
//!   up to [`MAX_HEADERS`] header lines, an optional `Content-Length`
//!   body up to [`MAX_BODY`] bytes. `Transfer-Encoding` on *requests* is
//!   rejected with 501 — clients submit small JSON job objects, never
//!   streams.
//! - Every limit violation or malformed input maps to a well-formed 4xx
//!   (or 501/505) via [`WireError`]; the reader never panics and never
//!   reads unboundedly, so a hostile peer cannot balloon memory or hang
//!   a handler.
//! - Pipelining falls out of the design: [`read_request`] consumes
//!   exactly one request from the buffered stream, so back-to-back
//!   requests in one TCP segment are served in order.
//!
//! Responses stream through [`write_response`] (fixed `Content-Length`)
//! or [`ChunkedWriter`] (chunked transfer encoding, used by `POST /jobs`
//! to stream paths as the job's sink fills). Both hand the socket every
//! frame — a whole response, a response head, a chunk with its size line
//! and terminator — in **one** write: the sockets run with `TCP_NODELAY`,
//! so each write is a segment, and a frame dribbled out in pieces would
//! cost a syscall and a packet per piece. [`read_response`] is the
//! matching client-side decoder and [`audit_stream`] the check of what it
//! decoded — the CLI `client` subcommand and the integration tests audit
//! exactly-once emission through the two.

use std::io::{BufRead, Read, Write};

use crate::json::{self, Value};

/// Longest accepted request line, bytes (method + target + version).
pub const MAX_REQUEST_LINE: usize = 8 * 1024;
/// Longest accepted header line, bytes.
pub const MAX_HEADER_LINE: usize = 8 * 1024;
/// Most header lines per request.
pub const MAX_HEADERS: usize = 64;
/// Largest accepted request body, bytes (a job object is tiny; 1 MiB
/// leaves room for large explicit query lists without letting a peer
/// balloon memory).
pub const MAX_BODY: usize = 1 << 20;

/// One parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The method token, as sent (e.g. `GET`, `POST`).
    pub method: String,
    /// The request target, as sent (e.g. `/jobs`).
    pub target: String,
    /// The body (empty without a `Content-Length`).
    pub body: Vec<u8>,
    /// Whether the connection should stay open after the response
    /// (HTTP/1.1 default yes, HTTP/1.0 default no, `Connection` header
    /// overrides).
    pub keep_alive: bool,
}

/// Outcome of trying to read one request.
#[derive(Debug)]
pub enum ReadOutcome {
    /// A complete request.
    Request(Request),
    /// Clean EOF before any byte of a request: the peer closed an idle
    /// connection. Not an error.
    Closed,
    /// The read timed out before any byte of a request (idle keep-alive
    /// connection with a socket read timeout). The caller typically
    /// checks its shutdown flag and retries.
    TimedOut,
}

/// A request rejection: maps to one well-formed HTTP error response.
/// Every parser failure path produces one of these — never a panic,
/// never a hang.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// HTTP status code (4xx/5xx).
    pub status: u16,
    /// Canonical reason phrase for the status line.
    pub reason: &'static str,
    /// Human-readable detail, rendered into the JSON error body.
    pub message: String,
}

impl WireError {
    fn new(status: u16, reason: &'static str, message: impl Into<String>) -> Self {
        Self {
            status,
            reason,
            message: message.into(),
        }
    }

    /// The JSON error body every rejection carries.
    pub fn body(&self) -> String {
        json::error_body(&self.message)
    }
}

/// Read one line (up to `\n`) with a hard byte cap. `Ok(None)` on clean
/// EOF with nothing read; `Err(true)` when the cap was hit, `Err(false)`
/// on timeout with nothing read (retryable by the caller).
fn read_line_limited(r: &mut impl BufRead, cap: usize) -> Result<Option<Vec<u8>>, LineError> {
    let mut buf = Vec::new();
    match r.by_ref().take(cap as u64 + 1).read_until(b'\n', &mut buf) {
        Ok(0) => Ok(None),
        Ok(_) => {
            if buf.last() != Some(&b'\n') {
                // The cap cut the line short (or EOF mid-line — also a
                // malformed request).
                if buf.len() > cap {
                    Err(LineError::TooLong)
                } else {
                    Err(LineError::Truncated)
                }
            } else {
                buf.pop();
                if buf.last() == Some(&b'\r') {
                    buf.pop();
                }
                Ok(Some(buf))
            }
        }
        Err(e)
            if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) =>
        {
            if buf.is_empty() {
                Err(LineError::IdleTimeout)
            } else {
                Err(LineError::MidRequestTimeout)
            }
        }
        Err(_) => Err(LineError::Io),
    }
}

enum LineError {
    TooLong,
    Truncated,
    IdleTimeout,
    MidRequestTimeout,
    Io,
}

/// Read exactly one request from a buffered stream. See [`ReadOutcome`]
/// for the non-error outcomes; every malformed input maps to a
/// [`WireError`] whose status the caller writes back before closing the
/// connection (framing is unrecoverable after a parse error).
pub fn read_request(r: &mut impl BufRead) -> Result<ReadOutcome, WireError> {
    let line = match read_line_limited(r, MAX_REQUEST_LINE) {
        Ok(None) => return Ok(ReadOutcome::Closed),
        Ok(Some(line)) => line,
        Err(LineError::TooLong) => {
            return Err(WireError::new(
                414,
                "URI Too Long",
                format!("request line exceeds {MAX_REQUEST_LINE} bytes"),
            ))
        }
        Err(LineError::IdleTimeout) => return Ok(ReadOutcome::TimedOut),
        Err(LineError::MidRequestTimeout) => {
            return Err(WireError::new(
                408,
                "Request Timeout",
                "timed out mid-request-line",
            ))
        }
        Err(_) => return Err(WireError::new(400, "Bad Request", "truncated request line")),
    };
    let line = String::from_utf8(line)
        .map_err(|_| WireError::new(400, "Bad Request", "request line is not UTF-8"))?;
    let mut parts = line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => {
            return Err(WireError::new(
                400,
                "Bad Request",
                format!("malformed request line {line:?}"),
            ))
        }
    };
    if !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(WireError::new(
            400,
            "Bad Request",
            format!("malformed method token {method:?}"),
        ));
    }
    let keep_alive_default = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        _ => {
            return Err(WireError::new(
                505,
                "HTTP Version Not Supported",
                format!("unsupported version {version:?} (HTTP/1.0 or HTTP/1.1)"),
            ))
        }
    };

    let mut keep_alive = keep_alive_default;
    let mut content_length: Option<usize> = None;
    let mut header_count = 0usize;
    loop {
        let line = match read_line_limited(r, MAX_HEADER_LINE) {
            Ok(Some(line)) => line,
            Ok(None) => {
                return Err(WireError::new(
                    400,
                    "Bad Request",
                    "connection closed inside the header block",
                ))
            }
            Err(LineError::TooLong) => {
                return Err(WireError::new(
                    431,
                    "Request Header Fields Too Large",
                    format!("header line exceeds {MAX_HEADER_LINE} bytes"),
                ))
            }
            Err(LineError::IdleTimeout) | Err(LineError::MidRequestTimeout) => {
                return Err(WireError::new(
                    408,
                    "Request Timeout",
                    "timed out inside the header block",
                ))
            }
            Err(_) => return Err(WireError::new(400, "Bad Request", "truncated header block")),
        };
        if line.is_empty() {
            break;
        }
        header_count += 1;
        if header_count > MAX_HEADERS {
            return Err(WireError::new(
                431,
                "Request Header Fields Too Large",
                format!("more than {MAX_HEADERS} header lines"),
            ));
        }
        let line = String::from_utf8(line)
            .map_err(|_| WireError::new(400, "Bad Request", "header line is not UTF-8"))?;
        let Some((name, value)) = line.split_once(':') else {
            return Err(WireError::new(
                400,
                "Bad Request",
                format!("header line without a colon: {line:?}"),
            ));
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        match name.as_str() {
            "content-length" => {
                let n: usize = value.parse().map_err(|_| {
                    WireError::new(400, "Bad Request", format!("bad Content-Length {value:?}"))
                })?;
                if content_length.is_some_and(|prev| prev != n) {
                    return Err(WireError::new(
                        400,
                        "Bad Request",
                        "conflicting Content-Length headers",
                    ));
                }
                if n > MAX_BODY {
                    return Err(WireError::new(
                        413,
                        "Content Too Large",
                        format!("body of {n} bytes exceeds the {MAX_BODY}-byte limit"),
                    ));
                }
                content_length = Some(n);
            }
            "transfer-encoding" => {
                // Job submissions are small JSON objects; a streaming
                // request body is out of scope, and silently ignoring
                // the header would desynchronize framing.
                return Err(WireError::new(
                    501,
                    "Not Implemented",
                    "Transfer-Encoding request bodies are not supported; \
                     send Content-Length",
                ));
            }
            "connection" => {
                let v = value.to_ascii_lowercase();
                if v == "close" {
                    keep_alive = false;
                } else if v == "keep-alive" {
                    keep_alive = true;
                }
            }
            _ => {}
        }
    }

    let mut body = vec![0u8; content_length.unwrap_or(0)];
    if !body.is_empty() {
        r.read_exact(&mut body).map_err(|e| {
            let timeout = matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            );
            if timeout {
                WireError::new(408, "Request Timeout", "timed out reading the body")
            } else {
                WireError::new(400, "Bad Request", "body shorter than its Content-Length")
            }
        })?;
    }
    Ok(ReadOutcome::Request(Request {
        method: method.to_string(),
        target: target.to_string(),
        body,
        keep_alive,
    }))
}

/// `Connection:` header value for a response.
fn connection(keep_alive: bool) -> &'static str {
    if keep_alive {
        "keep-alive"
    } else {
        "close"
    }
}

/// Write a complete response with a fixed `Content-Length`, as one write.
/// `extra` headers (e.g. `Retry-After`) come before the body.
pub fn write_response(
    w: &mut impl Write,
    status: u16,
    reason: &str,
    extra: &[(&str, String)],
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
) -> std::io::Result<()> {
    let mut frame = Vec::with_capacity(160 + body.len());
    write!(frame, "HTTP/1.1 {status} {reason}\r\n")?;
    for (name, value) in extra {
        write!(frame, "{name}: {value}\r\n")?;
    }
    write!(frame, "Content-Type: {content_type}\r\n")?;
    write!(frame, "Content-Length: {}\r\n", body.len())?;
    write!(frame, "Connection: {}\r\n\r\n", connection(keep_alive))?;
    frame.extend_from_slice(body);
    w.write_all(&frame)?;
    w.flush()
}

/// Room for a chunk's size line — the hex digits of a `usize`, then CRLF
/// — kept free at the front of [`ChunkedWriter`]'s frame buffer.
const SIZE_SLOT: usize = 2 * std::mem::size_of::<usize>() + 2;

/// Incremental chunked-transfer response: head first, then any number
/// of chunks, then [`ChunkedWriter::finish`]. A chunk is either handed
/// over whole ([`ChunkedWriter::chunk`]) or built in place with
/// [`ChunkedWriter::push`] and sent with [`ChunkedWriter::send`]; either
/// way the head, every chunk and the terminator are one write each,
/// flushed immediately — the point is that the client sees paths as the
/// job's sink fills, not after the job ends.
pub struct ChunkedWriter<'w, W: Write> {
    w: &'w mut W,
    /// The chunk being built: [`SIZE_SLOT`] bytes for its size line, then
    /// its payload so far. The size line is written right-aligned into
    /// the slot once the length is known, so a frame goes out as one
    /// slice of this buffer, uncopied; the buffer is kept from chunk to
    /// chunk.
    frame: Vec<u8>,
}

impl<'w, W: Write> ChunkedWriter<'w, W> {
    /// Write the response head and switch the stream to chunked framing.
    pub fn start(
        w: &'w mut W,
        status: u16,
        reason: &str,
        content_type: &str,
        keep_alive: bool,
    ) -> std::io::Result<Self> {
        let mut frame = Vec::new();
        write!(frame, "HTTP/1.1 {status} {reason}\r\n")?;
        write!(frame, "Content-Type: {content_type}\r\n")?;
        write!(frame, "Transfer-Encoding: chunked\r\n")?;
        write!(frame, "Connection: {}\r\n\r\n", connection(keep_alive))?;
        w.write_all(&frame)?;
        w.flush()?;
        frame.clear();
        frame.resize(SIZE_SLOT, 0);
        Ok(Self { w, frame })
    }

    /// Append `bytes` to the payload of the chunk being built.
    pub fn push(&mut self, bytes: &[u8]) {
        self.frame.extend_from_slice(bytes);
    }

    /// Payload bytes pushed since the last chunk went out.
    pub fn pending(&self) -> usize {
        self.frame.len() - SIZE_SLOT
    }

    /// Frame the pending payload — size line in front, CRLF behind — and
    /// return where the frame starts in the buffer. `None` when nothing
    /// is pending: a zero-length chunk would terminate the stream.
    fn frame_pending(&mut self) -> Option<usize> {
        let len = self.pending();
        if len == 0 {
            return None;
        }
        let mut at = SIZE_SLOT - 2;
        self.frame[at..SIZE_SLOT].copy_from_slice(b"\r\n");
        let mut rest = len;
        while rest > 0 {
            at -= 1;
            self.frame[at] = b"0123456789abcdef"[rest % 16];
            rest /= 16;
        }
        self.frame.extend_from_slice(b"\r\n");
        Some(at)
    }

    /// Write the pending payload as one chunk (nothing, when none is
    /// pending).
    pub fn send(&mut self) -> std::io::Result<()> {
        let Some(start) = self.frame_pending() else {
            return Ok(());
        };
        let written = self.w.write_all(&self.frame[start..]);
        self.frame.truncate(SIZE_SLOT);
        written?;
        self.w.flush()
    }

    /// Write `data`, behind anything already pushed, as one chunk (empty
    /// input with nothing pushed is skipped).
    pub fn chunk(&mut self, data: &[u8]) -> std::io::Result<()> {
        self.push(data);
        self.send()
    }

    /// Write the terminating zero-length chunk — behind the last chunk
    /// and in the same write, if one is still pending.
    pub fn finish(mut self) -> std::io::Result<()> {
        let start = self.frame_pending().unwrap_or(self.frame.len());
        self.frame.extend_from_slice(b"0\r\n\r\n");
        self.w.write_all(&self.frame[start..])?;
        self.w.flush()
    }
}

/// A decoded response (client side).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Header `(name, value)` pairs, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The body, chunked framing already decoded.
    pub body: Vec<u8>,
}

impl Response {
    /// First value of a (lowercase) header name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Read one response from a buffered stream: status line, headers, then
/// a `Content-Length` or chunked body. This is the *client* half of the
/// wire — the CLI `client` subcommand and the tests drive the server
/// through it.
pub fn read_response(r: &mut impl BufRead) -> Result<Response, String> {
    let line = match read_line_limited(r, MAX_REQUEST_LINE) {
        Ok(Some(line)) => line,
        Ok(None) => return Err("connection closed before a status line".into()),
        Err(_) => return Err("failed to read the status line".into()),
    };
    let line = String::from_utf8(line).map_err(|_| "status line is not UTF-8".to_string())?;
    let mut parts = line.splitn(3, ' ');
    let (version, status) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    if !version.starts_with("HTTP/1.") {
        return Err(format!("unexpected status line {line:?}"));
    }
    let status: u16 = status
        .parse()
        .map_err(|_| format!("unexpected status {status:?}"))?;

    let mut headers = Vec::new();
    loop {
        let line = match read_line_limited(r, MAX_HEADER_LINE) {
            Ok(Some(line)) => line,
            _ => return Err("truncated response header block".into()),
        };
        if line.is_empty() {
            break;
        }
        let line = String::from_utf8(line).map_err(|_| "header is not UTF-8".to_string())?;
        let Some((name, value)) = line.split_once(':') else {
            return Err(format!("header line without a colon: {line:?}"));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let chunked = headers
        .iter()
        .any(|(n, v)| n == "transfer-encoding" && v.eq_ignore_ascii_case("chunked"));
    let body = if chunked {
        let mut body = Vec::new();
        loop {
            let size_line = match read_line_limited(r, MAX_HEADER_LINE) {
                Ok(Some(line)) => line,
                _ => return Err("truncated chunk size line".into()),
            };
            let size_str = std::str::from_utf8(&size_line)
                .map_err(|_| "chunk size is not UTF-8".to_string())?;
            let size = usize::from_str_radix(size_str.trim(), 16)
                .map_err(|_| format!("bad chunk size {size_str:?}"))?;
            if size == 0 {
                // Trailer section: we send none, so expect the blank.
                let _ = read_line_limited(r, MAX_HEADER_LINE);
                break;
            }
            let at = body.len();
            body.resize(at + size, 0);
            r.read_exact(&mut body[at..])
                .map_err(|_| "truncated chunk body".to_string())?;
            let mut crlf = [0u8; 2];
            r.read_exact(&mut crlf)
                .map_err(|_| "missing chunk terminator".to_string())?;
        }
        body
    } else {
        let len: usize = headers
            .iter()
            .find(|(n, _)| n == "content-length")
            .map(|(_, v)| v.parse().map_err(|_| format!("bad Content-Length {v:?}")))
            .transpose()?
            .unwrap_or(0);
        let mut body = vec![0u8; len];
        r.read_exact(&mut body)
            .map_err(|_| "body shorter than its Content-Length".to_string())?;
        body
    };
    Ok(Response {
        status,
        headers,
        body,
    })
}

/// Audit the NDJSON body of a `200` answer to `POST /jobs` — the
/// session contract as it must arrive on the wire: every line is a JSON
/// object, the `path` events carry query ids 0, 1, 2, … with none after
/// the `done` event, and `done` counts exactly the paths streamed.
/// Returns `done`'s `(status, paths)`, or the violation.
pub fn audit_stream(body: &[u8]) -> Result<(String, usize), String> {
    let text = std::str::from_utf8(body).map_err(|_| "stream is not UTF-8".to_string())?;
    let uint = |event: &Value, key: &str| event.get(key)?.as_uint(u32::MAX as u64).ok();
    let mut next_query = 0u64;
    let mut done = None;
    for line in text.lines() {
        let event = json::parse(line, "the event")
            .map_err(|e| format!("malformed event line {line:?}: {e}"))?;
        match event.get("event").and_then(Value::as_str) {
            Some("path") if done.is_some() => {
                return Err("path event after the done summary".into())
            }
            Some("path") if uint(&event, "query") != Some(next_query) => {
                return Err(format!(
                    "out-of-order or duplicated path (expected query {next_query}): {line}"
                ))
            }
            Some("path") => next_query += 1,
            Some("done") => {
                let status = event.get("status").and_then(Value::as_str);
                let status =
                    status.ok_or_else(|| format!("done event without a status: {line}"))?;
                let paths = uint(&event, "paths")
                    .ok_or_else(|| format!("done event without a path count: {line}"))?;
                done = Some((status.to_string(), paths));
            }
            _ => {}
        }
    }
    let (status, paths) = done.ok_or("stream ended without a done summary")?;
    if paths != next_query {
        return Err(format!(
            "done summary claims {paths} paths but {next_query} were streamed"
        ));
    }
    Ok((status, paths as usize))
}

/// A writer that counts the `write` calls it sees: one per frame is
/// the whole point of the response path (the socket has
/// `TCP_NODELAY`, so every call is a syscall and a segment).
#[cfg(test)]
#[derive(Default)]
pub(crate) struct CountingWriter {
    pub(crate) writes: usize,
    pub(crate) bytes: Vec<u8>,
}

#[cfg(test)]
impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.writes += 1;
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parse one request from an in-memory byte stream.
    fn parse(bytes: &[u8]) -> Result<ReadOutcome, WireError> {
        read_request(&mut &bytes[..])
    }

    fn expect_request(bytes: &[u8]) -> Request {
        match parse(bytes) {
            Ok(ReadOutcome::Request(req)) => req,
            other => panic!("expected a request, got {other:?}"),
        }
    }

    fn expect_status(bytes: &[u8], status: u16) -> WireError {
        match parse(bytes) {
            Err(err) => {
                assert_eq!(err.status, status, "wrong status for {err:?}");
                assert!(!err.reason.is_empty());
                // The rejection body must itself be well-formed JSON
                // (at least: balanced quotes via the escaper).
                assert!(err.body().starts_with("{\"error\": \""));
                assert!(err.body().ends_with("\"}\n"));
                err
            }
            other => panic!("expected status {status}, got {other:?}"),
        }
    }

    #[test]
    fn parses_a_minimal_get() {
        let req = expect_request(b"GET /stats HTTP/1.1\r\n\r\n");
        assert_eq!(req.method, "GET");
        assert_eq!(req.target, "/stats");
        assert!(req.body.is_empty());
        assert!(req.keep_alive, "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn parses_a_post_with_body_and_connection_close() {
        let req = expect_request(
            b"POST /jobs HTTP/1.1\r\nContent-Length: 4\r\nConnection: close\r\n\r\n{\"a\"",
        );
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, b"{\"a\"");
        assert!(!req.keep_alive);
    }

    #[test]
    fn http10_defaults_to_close_and_header_overrides() {
        assert!(!expect_request(b"GET / HTTP/1.0\r\n\r\n").keep_alive);
        assert!(expect_request(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").keep_alive);
        assert!(!expect_request(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n").keep_alive);
    }

    #[test]
    fn clean_eof_is_closed_not_an_error() {
        assert!(matches!(parse(b""), Ok(ReadOutcome::Closed)));
    }

    #[test]
    fn malformed_request_lines_are_400s() {
        // Too few / too many tokens, empty tokens, lowercase method,
        // non-UTF-8: each one a 400, never a panic.
        expect_status(b"GET\r\n\r\n", 400);
        expect_status(b"GET /\r\n\r\n", 400);
        expect_status(b"GET / HTTP/1.1 extra\r\n\r\n", 400);
        expect_status(b" / HTTP/1.1\r\n\r\n", 400);
        expect_status(b"get / HTTP/1.1\r\n\r\n", 400);
        expect_status(b"G\xffT / HTTP/1.1\r\n\r\n", 400);
        // EOF mid-request-line (no terminating newline).
        expect_status(b"GET / HTT", 400);
    }

    #[test]
    fn unsupported_versions_are_505() {
        expect_status(b"GET / HTTP/2\r\n\r\n", 505);
        expect_status(b"GET / SPDY/3\r\n\r\n", 505);
    }

    #[test]
    fn oversized_request_line_is_414() {
        let mut bytes = b"GET /".to_vec();
        bytes.extend(std::iter::repeat_n(b'a', MAX_REQUEST_LINE));
        bytes.extend_from_slice(b" HTTP/1.1\r\n\r\n");
        expect_status(&bytes, 414);
    }

    #[test]
    fn oversized_header_line_is_431() {
        let mut bytes = b"GET / HTTP/1.1\r\nX-Big: ".to_vec();
        bytes.extend(std::iter::repeat_n(b'a', MAX_HEADER_LINE));
        bytes.extend_from_slice(b"\r\n\r\n");
        expect_status(&bytes, 431);
    }

    #[test]
    fn too_many_headers_is_431() {
        let mut bytes = b"GET / HTTP/1.1\r\n".to_vec();
        for i in 0..=MAX_HEADERS {
            bytes.extend_from_slice(format!("X-H-{i}: v\r\n").as_bytes());
        }
        bytes.extend_from_slice(b"\r\n");
        expect_status(&bytes, 431);
    }

    #[test]
    fn bad_content_length_values_are_400s() {
        expect_status(b"POST /jobs HTTP/1.1\r\nContent-Length: ten\r\n\r\n", 400);
        expect_status(b"POST /jobs HTTP/1.1\r\nContent-Length: -1\r\n\r\n", 400);
        expect_status(b"POST /jobs HTTP/1.1\r\nContent-Length: 1.5\r\n\r\n", 400);
        expect_status(
            b"POST /jobs HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 4\r\n\r\nabcd",
            400,
        );
    }

    #[test]
    fn duplicate_matching_content_length_is_accepted() {
        let req = expect_request(
            b"POST /jobs HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nhi",
        );
        assert_eq!(req.body, b"hi");
    }

    #[test]
    fn oversized_body_is_413_without_allocating_it() {
        let line = format!(
            "POST /jobs HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        // No body bytes follow — the parser must reject on the header
        // alone rather than trying to read (or allocate) the claimed size.
        expect_status(line.as_bytes(), 413);
    }

    #[test]
    fn truncated_body_is_400() {
        expect_status(
            b"POST /jobs HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort",
            400,
        );
        expect_status(b"POST /jobs HTTP/1.1\r\nContent-Length: 1\r\n\r\n", 400);
    }

    #[test]
    fn missing_header_terminator_is_400() {
        expect_status(b"GET / HTTP/1.1\r\nHost: x\r\n", 400);
    }

    #[test]
    fn header_without_colon_is_400() {
        expect_status(b"GET / HTTP/1.1\r\nno colon here\r\n\r\n", 400);
    }

    #[test]
    fn transfer_encoding_requests_are_501() {
        expect_status(
            b"POST /jobs HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
            501,
        );
    }

    #[test]
    fn bare_lf_line_endings_are_accepted() {
        let req = expect_request(b"POST /jobs HTTP/1.1\nContent-Length: 2\n\nok");
        assert_eq!(req.body, b"ok");
    }

    #[test]
    fn pipelined_requests_parse_in_order() {
        let bytes: &[u8] = b"POST /jobs HTTP/1.1\r\nContent-Length: 3\r\n\r\none\
                             GET /stats HTTP/1.1\r\n\r\n\
                             POST /jobs HTTP/1.1\r\nConnection: close\r\nContent-Length: 5\r\n\r\nthree";
        let mut r = bytes;
        let a = match read_request(&mut r) {
            Ok(ReadOutcome::Request(req)) => req,
            other => panic!("{other:?}"),
        };
        assert_eq!(
            (a.method.as_str(), a.body.as_slice()),
            ("POST", &b"one"[..])
        );
        let b = match read_request(&mut r) {
            Ok(ReadOutcome::Request(req)) => req,
            other => panic!("{other:?}"),
        };
        assert_eq!((b.method.as_str(), b.target.as_str()), ("GET", "/stats"));
        let c = match read_request(&mut r) {
            Ok(ReadOutcome::Request(req)) => req,
            other => panic!("{other:?}"),
        };
        assert_eq!(c.body, b"three");
        assert!(!c.keep_alive);
        assert!(matches!(read_request(&mut r), Ok(ReadOutcome::Closed)));
    }

    #[test]
    fn response_roundtrip_fixed_length() {
        let mut buf = Vec::new();
        write_response(
            &mut buf,
            429,
            "Too Many Requests",
            &[("Retry-After", "2".to_string())],
            "application/json",
            b"{\"error\": \"shed\"}\n",
            true,
        )
        .unwrap();
        let resp = read_response(&mut &buf[..]).unwrap();
        assert_eq!(resp.status, 429);
        assert_eq!(resp.header("retry-after"), Some("2"));
        assert_eq!(resp.body, b"{\"error\": \"shed\"}\n");
    }

    #[test]
    fn response_roundtrip_chunked() {
        let mut buf = Vec::new();
        {
            let mut w =
                ChunkedWriter::start(&mut buf, 200, "OK", "application/x-ndjson", false).unwrap();
            w.chunk(b"line one\n").unwrap();
            w.chunk(b"").unwrap(); // skipped, must not terminate the stream
            w.chunk(b"line two\n").unwrap();
            w.finish().unwrap();
        }
        let resp = read_response(&mut &buf[..]).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, b"line one\nline two\n");
    }

    /// The chunked framing as the response path wrote it before frames
    /// were assembled: the reference the single-write path must match
    /// byte for byte.
    fn reference_chunked(payloads: &[Vec<u8>]) -> Vec<u8> {
        let mut out = b"HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n\
                        Transfer-Encoding: chunked\r\nConnection: keep-alive\r\n\r\n"
            .to_vec();
        for p in payloads.iter().filter(|p| !p.is_empty()) {
            out.extend_from_slice(format!("{:x}\r\n", p.len()).as_bytes());
            out.extend_from_slice(p);
            out.extend_from_slice(b"\r\n");
        }
        out.extend_from_slice(b"0\r\n\r\n");
        out
    }

    #[test]
    fn every_response_frame_is_exactly_one_write() {
        let mut w = CountingWriter::default();
        {
            let mut cw =
                ChunkedWriter::start(&mut w, 200, "OK", "application/x-ndjson", true).unwrap();
            assert_eq!(cw.w.writes, 1, "head");
            cw.chunk(b"{\"event\": \"admitted\", \"job\": 0}\n")
                .unwrap();
            assert_eq!(cw.w.writes, 2, "first chunk");
            cw.chunk(b"").unwrap();
            assert_eq!(cw.w.writes, 2, "an empty chunk is skipped, not written");
            cw.chunk(&[b'x'; 70_000]).unwrap();
            assert_eq!(cw.w.writes, 3, "a large chunk is still one write");
            // Built in place, piece by piece: still one write when sent.
            for piece in [&b"{\"event\": "[..], b"\"path\"", b"}\n"] {
                cw.push(piece);
            }
            assert_eq!((cw.pending(), cw.w.writes), (18, 3));
            cw.send().unwrap();
            assert_eq!((cw.pending(), cw.w.writes), (0, 4));
            cw.finish().unwrap();
        }
        assert_eq!(w.writes, 5, "terminator");
        let resp = read_response(&mut &w.bytes[..]).unwrap();
        assert_eq!(resp.body.len(), 32 + 70_000 + 18);

        // A chunk still pending at `finish` shares the terminator's write.
        let mut w = CountingWriter::default();
        let mut cw = ChunkedWriter::start(&mut w, 200, "OK", "text/plain", false).unwrap();
        cw.push(b"last words\n");
        cw.finish().unwrap();
        assert_eq!(w.writes, 2);
        assert!(w.bytes.ends_with(b"\r\n\r\nb\r\nlast words\n\r\n0\r\n\r\n"));

        for (status, reason, extra, body) in [
            (200, "OK", vec![], "{\"ticks\": 3}\n".to_string()),
            (
                429,
                "Too Many Requests",
                vec![("Retry-After", "2".to_string())],
                "{\"error\": \"shed\", \"reason\": \"tenant_rate\"}\n".to_string(),
            ),
            (
                400,
                "Bad Request",
                vec![],
                WireError::new(400, "Bad Request", "bad \"thing\"").body(),
            ),
        ] {
            let mut w = CountingWriter::default();
            let json = "application/json";
            write_response(&mut w, status, reason, &extra, json, body.as_bytes(), true).unwrap();
            assert_eq!(w.writes, 1, "{status} response");
            let resp = read_response(&mut &w.bytes[..]).unwrap();
            assert_eq!(
                (resp.status, resp.body.as_slice()),
                (status, body.as_bytes())
            );
        }
    }

    #[test]
    fn wire_bytes_are_what_they_were_before_frames_were_assembled() {
        let mut buf = Vec::new();
        let mut cw =
            ChunkedWriter::start(&mut buf, 200, "OK", "application/x-ndjson", true).unwrap();
        cw.chunk(b"{\"event\": \"admitted\", \"job\": 7}\n")
            .unwrap();
        cw.chunk(b"").unwrap();
        cw.chunk(b"{\"event\": \"path\", \"query\": 0, \"path\": [3,1,2]}\n")
            .unwrap();
        cw.finish().unwrap();
        let expect = "HTTP/1.1 200 OK\r\n\
                      Content-Type: application/x-ndjson\r\n\
                      Transfer-Encoding: chunked\r\n\
                      Connection: keep-alive\r\n\r\n\
                      20\r\n{\"event\": \"admitted\", \"job\": 7}\n\r\n\
                      2f\r\n{\"event\": \"path\", \"query\": 0, \"path\": [3,1,2]}\n\r\n\
                      0\r\n\r\n";
        assert_eq!(String::from_utf8(buf).unwrap(), expect);

        let mut buf = Vec::new();
        write_response(
            &mut buf,
            503,
            "Service Unavailable",
            &[("Retry-After", "1".to_string())],
            "application/json",
            b"{\"error\": \"draining\"}\n",
            false,
        )
        .unwrap();
        let expect = "HTTP/1.1 503 Service Unavailable\r\nRetry-After: 1\r\n\
                      Content-Type: application/json\r\nContent-Length: 22\r\n\
                      Connection: close\r\n\r\n{\"error\": \"draining\"}\n";
        assert_eq!(String::from_utf8(buf).unwrap(), expect);
    }

    #[test]
    fn audit_stream_names_each_violation() {
        let p = |q: u32| format!("{{\"event\": \"path\", \"query\": {q}, \"path\": [1,2]}}\n");
        let d = |n: u32| {
            format!("{{\"event\": \"done\", \"status\": \"cancelled\", \"paths\": {n}}}\n")
        };
        let admitted = "{\"event\": \"admitted\", \"job\": 3}\n".to_string();
        let audit = |lines: &[String]| audit_stream(lines.concat().as_bytes());
        let ok = Ok(("cancelled".to_string(), 2));
        assert_eq!(audit(&[admitted.clone(), p(0), p(1), d(2)]), ok);
        for (bad, needle) in [
            (vec![p(0), p(0), d(2)], "expected query 1"),
            (vec![p(1), d(1)], "expected query 0"),
            (vec![p(0), d(2)], "claims 2 paths but 1 were"),
            (vec![p(0), d(1), p(1)], "after the done summary"),
            (vec![admitted, p(0)], "without a done summary"),
            (
                vec![p(0), d(1).replace("paths", "steps")],
                "without a path count",
            ),
            (
                vec![p(0), d(1).replace("status", "state")],
                "without a status",
            ),
            (
                vec![p(0), p(1).replace(']', ""), d(2)],
                "malformed event line",
            ),
        ] {
            let err = audit(&bad).unwrap_err();
            assert!(err.contains(needle), "{bad:?}: {err}");
        }
        assert!(audit_stream(b"\xff").unwrap_err().contains("UTF-8"));
    }

    // --- property tests: the parser never panics and every rejection is
    // a well-formed 4xx/5xx, no matter what bytes arrive.

    fn check_total(bytes: &[u8]) {
        match read_request(&mut &bytes[..]) {
            Ok(_) => {}
            Err(err) => {
                assert!(
                    (400..=599).contains(&err.status),
                    "non-error status {} for input {bytes:?}",
                    err.status
                );
                let body = err.body();
                assert!(body.starts_with("{\"error\": \"") && body.ends_with("\"}\n"));
                // The escaper must leave no raw quotes/controls inside.
                let inner = &body[11..body.len() - 3];
                assert!(!inner.bytes().any(|b| b == b'\n' || b < 0x20));
                // And the one reader gives the message back.
                let doc = json::parse(&body, "the error body").unwrap();
                let read = doc.get("error").and_then(Value::as_str);
                assert_eq!(read, Some(err.message.as_str()));
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(64))]

        #[test]
        fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(0u8..=255, 0..256)) {
            check_total(&bytes);
        }

        #[test]
        fn mangled_requests_reject_cleanly(
            cut in 0usize..64,
            flip in 0usize..64,
            val in 0u8..=255,
        ) {
            // Start from a valid request and damage it: truncate at
            // `cut`, then overwrite the byte at `flip`.
            let mut bytes =
                b"POST /jobs HTTP/1.1\r\nContent-Length: 9\r\n\r\n{\"bad\": 1}".to_vec();
            bytes.truncate(cut.min(bytes.len()));
            if flip < bytes.len() {
                bytes[flip] = val;
            }
            check_total(&bytes);
        }

        #[test]
        fn chunked_framing_matches_the_reference_for_any_payloads(
            lens in proptest::collection::vec(0usize..600, 0..12),
            big in 0usize..70_000,
            fill in 0u8..=255,
        ) {
            // Arbitrary payload sequences, empty ones and one large one
            // included: the bytes are the reference framing's, and the
            // existing decoder gives the payloads back, concatenated.
            let mut payloads: Vec<Vec<u8>> = lens
                .iter()
                .enumerate()
                .map(|(i, &n)| (0..n).map(|j| fill.wrapping_add((i * 31 + j) as u8)).collect())
                .collect();
            payloads.insert(payloads.len() / 2, vec![fill; big]);
            let mut buf = Vec::new();
            let mut cw =
                ChunkedWriter::start(&mut buf, 200, "OK", "application/x-ndjson", true).unwrap();
            for p in &payloads {
                cw.chunk(p).unwrap();
            }
            cw.finish().unwrap();
            proptest::prop_assert_eq!(&buf, &reference_chunked(&payloads));
            let resp = read_response(&mut &buf[..]).unwrap();
            proptest::prop_assert_eq!(resp.body, payloads.concat());
        }

        #[test]
        fn valid_requests_roundtrip(
            n_body in 0usize..512,
            keep in proptest::strategy::Just(true),
            target_len in 1usize..32,
        ) {
            let target: String =
                std::iter::repeat_n('x', target_len).collect();
            let body: Vec<u8> = (0..n_body).map(|i| (i % 251) as u8).collect();
            let mut bytes = format!(
                "POST /{target} HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                body.len()
            )
            .into_bytes();
            bytes.extend_from_slice(&body);
            let req = match read_request(&mut &bytes[..]) {
                Ok(ReadOutcome::Request(req)) => req,
                other => panic!("expected a request, got {other:?}"),
            };
            proptest::prop_assert_eq!(req.method.as_str(), "POST");
            proptest::prop_assert_eq!(req.target.len(), target_len + 1);
            proptest::prop_assert_eq!(req.body, body);
            proptest::prop_assert_eq!(req.keep_alive, keep);
        }
    }
}
