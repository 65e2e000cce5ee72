//! A deliberately small HTTP/1.1 layer over `std::net` — just enough
//! protocol for a JSON API on loopback or a trusted LAN: request-line +
//! headers + `Content-Length` bodies, keep-alive, and nothing else (no
//! TLS, no chunked bodies, no multipart).
//!
//! Both sides live here: the server-side reader/writer used by the
//! daemon, and a tiny one-shot client used by the integration tests.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use rvp_json::Json;

/// Whether an I/O error is a socket read timeout (either kind the
/// platform may report for `SO_RCVTIMEO`).
fn is_timeout(e: &io::Error) -> bool {
    matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
}

/// Upper bound on the request line plus all headers, in bytes.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Upper bound on a request body, in bytes. Sweep requests are a few
/// hundred bytes; anything near this limit is hostile or broken.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

/// Why a request could not be parsed off the wire.
#[derive(Debug)]
pub enum HttpError {
    /// Protocol violation; the connection gets a 400 and is closed.
    Malformed(&'static str),
    /// Head or body over the fixed limits; 431/413 and close.
    TooLarge(&'static str),
    /// The peer stalled *mid-request* past the socket read timeout
    /// (slowloris): the connection gets a structured 408 and is closed.
    /// An idle keep-alive connection that times out *between* requests
    /// is reaped silently instead (reported as [`HttpError::Io`]).
    Timeout(&'static str),
    /// The socket itself failed mid-request.
    Io(io::Error),
}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> HttpError {
        HttpError::Io(e)
    }
}

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// `GET`, `POST`, ... (uppercased by the sender, not normalized).
    pub method: String,
    /// Path component only; any `?query` is split off into `query`.
    pub path: String,
    /// Raw query string after the `?` (empty when none was sent).
    pub query: String,
    /// Raw body bytes (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
    /// Whether the client asked to keep the connection open.
    pub keep_alive: bool,
}

/// Reads one request off a connection. `Ok(None)` means the peer
/// closed cleanly between requests (normal end of a keep-alive
/// conversation).
///
/// Generic over any [`BufRead`] so the property tests can drive the
/// parser from in-memory byte vectors; the daemon passes a
/// `BufReader<TcpStream>`, whose read timeout turns a stalled client
/// into [`HttpError::Timeout`] (mid-request) or a silent idle reap
/// (between requests).
pub fn read_request<R: BufRead>(reader: &mut R) -> Result<Option<Request>, HttpError> {
    let mut head_bytes = 0usize;
    let mut line = String::new();
    let first = match read_head_line(reader, &mut line, &mut head_bytes) {
        Ok(n) => n,
        // Timed out with nothing read: an idle keep-alive connection,
        // reaped without a response. Partial bytes then a stall is a
        // slowloris request head — that one gets the structured 408.
        Err(HttpError::Io(e)) if is_timeout(&e) => {
            return if line.is_empty() {
                Err(HttpError::Io(e))
            } else {
                Err(HttpError::Timeout("timed out reading request line"))
            };
        }
        Err(e) => return Err(e),
    };
    if first == 0 {
        return Ok(None);
    }
    let mut parts = line.split_whitespace();
    let method = parts.next().ok_or(HttpError::Malformed("empty request line"))?.to_owned();
    let target = parts.next().ok_or(HttpError::Malformed("request line missing target"))?;
    let version = parts.next().ok_or(HttpError::Malformed("request line missing version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed("unsupported HTTP version"));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_owned(), q.to_owned()),
        None => (target.to_owned(), String::new()),
    };

    let mut content_length = 0usize;
    let mut keep_alive = true;
    loop {
        line.clear();
        let n = match read_head_line(reader, &mut line, &mut head_bytes) {
            Ok(n) => n,
            Err(HttpError::Io(e)) if is_timeout(&e) => {
                return Err(HttpError::Timeout("timed out reading headers"));
            }
            Err(e) => return Err(e),
        };
        if n == 0 {
            return Err(HttpError::Malformed("connection closed inside headers"));
        }
        let trimmed = line.trim_end();
        if trimmed.is_empty() {
            break;
        }
        let Some((name, value)) = trimmed.split_once(':') else {
            return Err(HttpError::Malformed("header line without a colon"));
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .parse::<usize>()
                .map_err(|_| HttpError::Malformed("unparseable content-length"))?;
            if content_length > MAX_BODY_BYTES {
                return Err(HttpError::TooLarge("body over limit"));
            }
        } else if name.eq_ignore_ascii_case("connection") {
            keep_alive = !value.eq_ignore_ascii_case("close");
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            return Err(HttpError::Malformed("transfer-encoding not supported"));
        }
    }

    let mut body = vec![0u8; content_length];
    match reader.read_exact(&mut body) {
        Ok(()) => {}
        Err(e) if is_timeout(&e) => return Err(HttpError::Timeout("timed out reading body")),
        Err(e) => return Err(HttpError::Io(e)),
    }
    Ok(Some(Request { method, path, query, body, keep_alive }))
}

impl Request {
    /// Value of a `key=value` pair in the query string, if present.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query
            .split('&')
            .filter_map(|pair| pair.split_once('='))
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v)
    }
}

/// Reads one CRLF-terminated head line, charging it against the shared
/// head budget. Returns the number of bytes read (0 at EOF).
fn read_head_line<R: BufRead>(
    reader: &mut R,
    line: &mut String,
    head_bytes: &mut usize,
) -> Result<usize, HttpError> {
    let n = reader.read_line(line)?;
    *head_bytes += n;
    if *head_bytes > MAX_HEAD_BYTES {
        return Err(HttpError::TooLarge("request head over limit"));
    }
    Ok(n)
}

/// Writes a JSON response: head and body assembled in one buffer and
/// handed to `stream` in a single `write_all`. A response that left in
/// two writes would have its short tail held by Nagle until the client
/// acknowledged the first segment — a ~40 ms delayed-ACK stall on a
/// keep-alive connection.
pub fn write_json_response<W: Write>(
    stream: &mut W,
    status: u16,
    extra_headers: &[(&str, String)],
    body: &Json,
) -> io::Result<()> {
    let mut payload = Vec::with_capacity(256);
    body.to_writer(&mut payload)?;
    payload.push(b'\n');
    write_response(stream, status, "application/json", extra_headers, &payload)
}

/// Writes a plain-text response (Prometheus exposition, folded stacks)
/// in one `write_all`, like [`write_json_response`].
pub fn write_text_response<W: Write>(
    stream: &mut W,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, String)],
    body: &str,
) -> io::Result<()> {
    write_response(stream, status, content_type, extra_headers, body.as_bytes())
}

fn write_response<W: Write>(
    stream: &mut W,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, String)],
    body: &[u8],
) -> io::Result<()> {
    let mut out = Vec::with_capacity(128 + body.len());
    write!(
        out,
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n",
        reason(status),
        body.len(),
    )?;
    for (name, value) in extra_headers {
        write!(out, "{name}: {value}\r\n")?;
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(body);
    stream.write_all(&out)?;
    stream.flush()
}

/// Canonical reason phrase for the handful of statuses the daemon uses.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

// ---------------------------------------------------------------------
// One-shot client (tests).

/// A parsed client-side response.
#[derive(Debug)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// Header lines, lowercased names.
    pub headers: Vec<(String, String)>,
    /// Raw body bytes.
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// First header with the given (lowercase) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    /// Parses the body as JSON.
    pub fn json(&self) -> Option<Json> {
        Json::parse(std::str::from_utf8(&self.body).ok()?).ok()
    }
}

/// Issues one request over a fresh connection (`Connection: close`) and
/// reads the full response. `timeout` bounds connect and each socket
/// read/write.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&Json>,
    timeout: Duration,
) -> io::Result<ClientResponse> {
    let stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let mut payload = Vec::new();
    if let Some(json) = body {
        json.to_writer(&mut payload)?;
    }
    {
        let mut out = io::BufWriter::new(&stream);
        write!(
            out,
            "{method} {path} HTTP/1.1\r\nHost: rvp-serve\r\nConnection: close\r\nContent-Length: {}\r\n",
            payload.len(),
        )?;
        if !payload.is_empty() {
            out.write_all(b"Content-Type: application/json\r\n")?;
        }
        out.write_all(b"\r\n")?;
        out.write_all(&payload)?;
        out.flush()?;
    }

    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| io::Error::other(format!("bad status line: {line:?}")))?;
    let mut headers = Vec::new();
    let mut content_length: Option<usize> = None;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(io::Error::other("connection closed inside response headers"));
        }
        let trimmed = line.trim_end();
        if trimmed.is_empty() {
            break;
        }
        if let Some((name, value)) = trimmed.split_once(':') {
            let name = name.to_ascii_lowercase();
            let value = value.trim().to_owned();
            if name == "content-length" {
                content_length = value.parse().ok();
            }
            headers.push((name, value));
        }
    }
    let body = match content_length {
        Some(n) => {
            let mut body = vec![0u8; n];
            reader.read_exact(&mut body)?;
            body
        }
        None => {
            let mut body = Vec::new();
            reader.read_to_end(&mut body)?;
            body
        }
    };
    Ok(ClientResponse { status, headers, body })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A writer that accepts every buffer whole and counts the calls.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn large_responses_leave_in_one_write() {
        // About 20 KB: a whole column of cells, well past 8 KB.
        let cells = (0..500u64)
            .map(|i| Json::obj([("cell", i.into()), ("label", "li-drvp_all_dead_lv".into())]));
        let body = Json::obj([("cells", Json::Arr(cells.collect()))]);
        let mut out = CountingWriter::default();
        write_json_response(&mut out, 200, &[("Retry-After", "1".to_owned())], &body).unwrap();
        assert!(out.bytes.len() > 16 * 1024, "{} bytes", out.bytes.len());
        assert_eq!(out.writes, 1, "head and body must go out in one write");
        let text = String::from_utf8(out.bytes).unwrap();
        let (head, payload) = text.split_once("\r\n\r\n").unwrap();
        assert!(head.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(head.contains("\r\nRetry-After: 1"));
        assert!(head.contains(&format!("Content-Length: {}", payload.len())));

        let text_body = "x".repeat(20 * 1024);
        let mut out = CountingWriter::default();
        write_text_response(&mut out, 200, "text/plain", &[], &text_body).unwrap();
        assert_eq!(out.writes, 1);
        assert!(out.bytes.ends_with(text_body.as_bytes()));
    }
}
