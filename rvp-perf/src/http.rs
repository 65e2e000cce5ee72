//! A keep-alive HTTP/1.1 client: one connection, many requests, the way
//! a caller that waits for each sweep would talk to the daemon.
//!
//! Each request goes out as a single `write_all` of head and body on a
//! `TCP_NODELAY` socket, so client-side Nagle never delays a request;
//! whatever latency remains is the server's and the wire's. The client
//! deliberately does not set `TCP_QUICKACK`: delayed ACKs are what real
//! clients send, and what the server's write pattern must cope with.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Largest response body accepted (a full `GET /trace` is a few MB).
const MAX_BODY_BYTES: usize = 512 << 20;

/// One response: status and raw body.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// The body, exactly `Content-Length` bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// The body as JSON, or `None` when it is not UTF-8 JSON.
    pub fn json(&self) -> Option<rvp_core::Json> {
        rvp_core::Json::parse(std::str::from_utf8(&self.body).ok()?).ok()
    }
}

/// A persistent connection.
pub struct Connection {
    reader: BufReader<TcpStream>,
}

impl Connection {
    /// Connects with `timeout` bounding the connect and every read and
    /// write after it.
    ///
    /// # Errors
    ///
    /// Returns the socket error.
    pub fn open(addr: SocketAddr, timeout: Duration) -> io::Result<Connection> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        Ok(Connection { reader: BufReader::new(stream) })
    }

    /// Sends one request and reads its response off the same
    /// connection, leaving it open for the next.
    ///
    /// # Errors
    ///
    /// Returns socket errors and malformed or oversized responses.
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<Response> {
        let mut message = format!(
            "{method} {path} HTTP/1.1\r\nHost: rvp-serve\r\nContent-Length: {}\r\n",
            body.len()
        )
        .into_bytes();
        if !body.is_empty() {
            message.extend_from_slice(b"Content-Type: application/json\r\n");
        }
        message.extend_from_slice(b"\r\n");
        message.extend_from_slice(body);
        self.reader.get_mut().write_all(&message)?;
        read_response(&mut self.reader)
    }
}

fn malformed(what: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what)
}

/// Reads one `Content-Length`-framed response.
fn read_response<R: BufRead>(reader: &mut R) -> io::Result<Response> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed"));
    }
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| malformed(format!("bad status line {line:?}")))?;
    let mut length: Option<usize> = None;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(malformed("connection closed inside response headers".to_owned()));
        }
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                length = Some(
                    value
                        .trim()
                        .parse()
                        .map_err(|_| malformed(format!("bad Content-Length {value:?}")))?,
                );
            }
        }
    }
    let length = length.ok_or_else(|| malformed("response without Content-Length".to_owned()))?;
    if length > MAX_BODY_BYTES {
        return Err(malformed(format!("response body of {length} bytes")));
    }
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body)?;
    Ok(Response { status, body })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// Serves two requests on one connection; the first response body
    /// (over 8 KB) arrives in two writes with a pause between them.
    fn stub_server(listener: TcpListener, big: Vec<u8>) -> std::thread::JoinHandle<Vec<String>> {
        std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            let mut seen = Vec::new();
            for round in 0..2 {
                let request = rvp_serve::http::read_request(&mut reader).unwrap().unwrap();
                seen.push(format!("{} {} {}", request.method, request.path, request.body.len()));
                let body: &[u8] = if round == 0 { &big } else { b"{\"ok\":true}" };
                let head = format!("HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n", body.len());
                let (first, rest) = body.split_at(body.len() / 2);
                writer.write_all(head.as_bytes()).unwrap();
                writer.write_all(first).unwrap();
                writer.flush().unwrap();
                std::thread::sleep(Duration::from_millis(30));
                writer.write_all(rest).unwrap();
            }
            seen
        })
    }

    #[test]
    fn keep_alive_reads_a_split_large_body_then_reuses_the_connection() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let big: Vec<u8> = (0..20_000u32).map(|i| b'a' + (i % 26) as u8).collect();
        let server = stub_server(listener, big.clone());

        let mut conn = Connection::open(addr, Duration::from_secs(5)).unwrap();
        let first = conn.request("POST", "/sweep", b"{\"wait\":true}").unwrap();
        assert_eq!(first.status, 200);
        assert_eq!(first.body, big);
        let second = conn.request("GET", "/metrics", b"").unwrap();
        assert_eq!(second.status, 200);
        assert_eq!(second.json().and_then(|j| j.get("ok").and_then(|v| v.as_bool())), Some(true));

        assert_eq!(server.join().unwrap(), ["POST /sweep 13", "GET /metrics 0"]);
    }

    #[test]
    fn malformed_responses_are_errors() {
        for bad in [
            &b"garbage\r\n\r\n"[..],
            b"HTTP/1.1 200 OK\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nContent-Length: x\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nshort",
            b"",
        ] {
            assert!(read_response(&mut &bad[..]).is_err(), "{:?}", String::from_utf8_lossy(bad));
        }
        let ok = read_response(&mut &b"HTTP/1.1 404 Not Found\r\ncontent-length: 2\r\n\r\n{}"[..]);
        assert_eq!(ok.unwrap().status, 404);
    }
}
