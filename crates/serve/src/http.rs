//! Minimal hand-rolled HTTP/1.1 — just enough protocol for a local job
//! daemon and its clients (`curl`, the load generator, the tests).
//!
//! Consistent with the repo's vendored-shims policy, this is not a web
//! framework: one request per connection (`Connection: close`), request
//! line + headers + optional `Content-Length` body, and a response writer
//! that always announces its length. Limits are enforced while reading
//! (8 KiB of headers, 8 MiB of body) so a misbehaving client cannot make
//! the daemon buffer unbounded input.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// Maximum accepted request-line + header bytes.
const MAX_HEAD_BYTES: usize = 8 * 1024;
/// Maximum accepted request body bytes.
const MAX_BODY_BYTES: usize = 8 * 1024 * 1024;

/// One parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// Uppercased method (`GET`, `POST`, ...).
    pub method: String,
    /// Request path without query string.
    pub path: String,
    /// Raw query string (text after `?`), empty if none.
    pub query: String,
    /// Request body (empty unless `Content-Length` was sent).
    pub body: Vec<u8>,
}

/// Why a request could not be parsed; maps onto a 4xx response.
#[derive(Debug)]
pub enum ParseError {
    /// Malformed request line or headers.
    Bad(&'static str),
    /// Head or body over the hard limits.
    TooLarge(&'static str),
    /// Socket error mid-request.
    Io(io::Error),
}

impl From<io::Error> for ParseError {
    fn from(e: io::Error) -> Self {
        ParseError::Io(e)
    }
}

/// Read one request from `stream` (the server passes its `TcpStream`). Any
/// input gives a [`Request`] or a [`ParseError`], and at most the head and
/// body limits are buffered: an endless stream is cut off, not read whole.
pub fn read_request<R: Read>(stream: R) -> Result<Request, ParseError> {
    let mut reader = BufReader::new(stream);
    let mut head_bytes = 0usize;

    // Each line is read through a `take` of the remaining head budget plus
    // one byte, so a client that never sends a newline is cut off there
    // instead of being buffered whole.
    let mut read_line = |reader: &mut BufReader<R>| -> Result<String, ParseError> {
        let mut line = Vec::new();
        let budget = (MAX_HEAD_BYTES - head_bytes) as u64 + 1;
        let n = reader.take(budget).read_until(b'\n', &mut line)?;
        if n == 0 {
            return Err(ParseError::Bad("connection closed mid-request"));
        }
        head_bytes += n;
        if head_bytes > MAX_HEAD_BYTES {
            return Err(ParseError::TooLarge("request head over 8 KiB"));
        }
        String::from_utf8(line).map_err(|_| ParseError::Bad("request head is not UTF-8"))
    };

    let line = read_line(&mut reader)?;
    let mut parts = line.trim_end().splitn(3, ' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or(ParseError::Bad("empty request line"))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or(ParseError::Bad("missing request path"))?;
    let version = parts
        .next()
        .ok_or(ParseError::Bad("missing HTTP version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(ParseError::Bad("unsupported HTTP version"));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };

    // Headers: we only interpret Content-Length; everything else is
    // skipped (but still counted against the head limit).
    let mut content_length = 0usize;
    loop {
        let line = read_line(&mut reader)?;
        let trimmed = line.trim_end();
        if trimmed.is_empty() {
            break;
        }
        if let Some((name, value)) = trimmed.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| ParseError::Bad("bad Content-Length"))?;
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(ParseError::TooLarge("request body over 8 MiB"));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok(Request {
        method,
        path,
        query,
        body,
    })
}

/// The reason phrase for the status codes this server emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Write one complete response and flush. Always `Connection: close`.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &[u8],
) -> io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        reason(status),
        body.len(),
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

/// A tiny blocking client for the same protocol (the load generator and
/// the tests). Returns `(status, body)`.
pub fn request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&[u8]>,
) -> io::Result<(u16, Vec<u8>)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true).ok();
    let body = body.unwrap_or(&[]);
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len(),
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()?;

    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
    let mut content_length: Option<usize> = None;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "closed mid-headers",
            ));
        }
        let trimmed = line.trim_end();
        if trimmed.is_empty() {
            break;
        }
        if let Some((name, value)) = trimmed.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().ok();
            }
        }
    }
    let mut out = Vec::new();
    match content_length {
        Some(n) => {
            out.resize(n, 0);
            reader.read_exact(&mut out)?;
        }
        None => {
            reader.read_to_end(&mut out)?;
        }
    }
    Ok((status, out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// Round-trip a raw request through a real socket pair and return what
    /// the server-side parser saw plus the client-visible response.
    fn roundtrip(raw: &[u8]) -> (Result<Request, ParseError>, Vec<u8>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_vec();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&raw).unwrap();
            s.flush().unwrap();
            let mut buf = Vec::new();
            s.read_to_end(&mut buf).unwrap();
            buf
        });
        let (mut conn, _) = listener.accept().unwrap();
        let parsed = read_request(&mut conn);
        let status = if parsed.is_ok() { 200 } else { 400 };
        write_response(&mut conn, status, "text/plain", b"done").unwrap();
        drop(conn);
        (parsed, client.join().unwrap())
    }

    #[test]
    fn parses_post_with_body_and_query() {
        let (parsed, reply) = roundtrip(
            b"POST /v1/jobs?wait=1 HTTP/1.1\r\nHost: x\r\nContent-Length: 7\r\n\r\n{\"a\":1}",
        );
        let req = parsed.expect("parses");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/jobs");
        assert_eq!(req.query, "wait=1");
        assert_eq!(req.body, b"{\"a\":1}");
        let reply = String::from_utf8(reply).unwrap();
        assert!(reply.starts_with("HTTP/1.1 200 OK\r\n"), "{reply}");
        assert!(reply.ends_with("\r\n\r\ndone"), "{reply}");
    }

    #[test]
    fn rejects_malformed_request_line() {
        let (parsed, reply) = roundtrip(b"NOT-HTTP\r\n\r\n");
        assert!(matches!(parsed, Err(ParseError::Bad(_))), "{parsed:?}");
        assert!(String::from_utf8(reply)
            .unwrap()
            .starts_with("HTTP/1.1 400"));
    }

    #[test]
    fn rejects_oversized_head() {
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        raw.extend_from_slice(format!("X-Pad: {}\r\n", "y".repeat(10_000)).as_bytes());
        raw.extend_from_slice(b"\r\n");
        let (parsed, _) = roundtrip(&raw);
        assert!(matches!(parsed, Err(ParseError::TooLarge(_))), "{parsed:?}");
    }

    #[test]
    fn rejects_a_head_line_that_never_ends() {
        // 64 KiB without a newline, then the client holds the connection
        // open: the parser must stop at the head limit, not wait for a
        // newline until the read timeout.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            // The server may reset the connection with most of this unread.
            let _ = s.write_all(&vec![b'y'; 64 * 1024]);
            let _ = s.read_to_end(&mut Vec::new());
        });
        let (mut conn, _) = listener.accept().unwrap();
        conn.set_read_timeout(Some(std::time::Duration::from_secs(5)))
            .unwrap();
        let parsed = read_request(&mut conn);
        drop(conn);
        client.join().unwrap();
        assert!(matches!(parsed, Err(ParseError::TooLarge(_))), "{parsed:?}");
    }

    #[test]
    fn client_helper_round_trips() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let req = read_request(&mut conn).unwrap();
            assert_eq!(req.method, "GET");
            assert_eq!(req.path, "/healthz");
            write_response(&mut conn, 200, "application/json", b"{\"status\":\"ok\"}").unwrap();
        });
        let (status, body) = request(&addr, "GET", "/healthz", None).unwrap();
        server.join().unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, b"{\"status\":\"ok\"}");
    }
}
