//! A minimal HTTP/1.1 layer over `std::net::TcpStream`.
//!
//! The build is offline and vendored-only, so the daemon hand-rolls
//! exactly the protocol subset it needs: one request per connection
//! (`Connection: close`), a request line, headers, an optional
//! `Content-Length` body, and a fixed-length response. A request is read
//! under one deadline for its head and body together and two size caps
//! (header block and body): before each read the socket's read timeout
//! is set to the time left, so a slow or hostile client — one that
//! drips a byte at a time, say — costs one handler thread for at most
//! the deadline, never unbounded memory.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Instant;

/// Cap on the request line + headers, bytes.
pub const MAX_HEADER_BYTES: usize = 8 * 1024;

/// One parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Uppercase method ("GET", "POST", ...).
    pub method: String,
    /// Request path, query string included verbatim.
    pub path: String,
    /// Header `(name, value)` pairs, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The body, exactly `Content-Length` bytes.
    pub body: Vec<u8>,
}

impl Request {
    /// First value of a header, by lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum RecvError {
    /// The peer closed before a full request arrived.
    Closed,
    /// The request's deadline passed before it was read in full.
    Timeout,
    /// The declared body exceeds the server's cap (HTTP 413).
    BodyTooLarge {
        /// The declared `Content-Length`.
        declared: usize,
        /// The server's cap.
        limit: usize,
    },
    /// The bytes are not a well-formed HTTP/1.1 request (HTTP 400).
    Malformed(String),
    /// Any other socket error.
    Io(std::io::Error),
}

impl std::fmt::Display for RecvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecvError::Closed => write!(f, "connection closed mid-request"),
            RecvError::Timeout => write!(f, "read timed out"),
            RecvError::BodyTooLarge { declared, limit } => {
                write!(f, "declared body of {declared} bytes exceeds the {limit}-byte limit")
            }
            RecvError::Malformed(msg) => write!(f, "malformed request: {msg}"),
            RecvError::Io(e) => write!(f, "socket error: {e}"),
        }
    }
}

fn classify_io(e: std::io::Error) -> RecvError {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => RecvError::Timeout,
        std::io::ErrorKind::UnexpectedEof => RecvError::Closed,
        _ => RecvError::Io(e),
    }
}

/// One `read` into `buf` that returns by `deadline`: the socket's read
/// timeout is set to the time left first. `Ok(0)` means the peer closed.
///
/// # Errors
///
/// [`RecvError::Timeout`] once the deadline has passed, and the socket
/// error (classified) otherwise.
pub(crate) fn read_by(
    stream: &mut TcpStream,
    buf: &mut [u8],
    deadline: Instant,
) -> Result<usize, RecvError> {
    let left = deadline.saturating_duration_since(Instant::now());
    if left.is_zero() {
        return Err(RecvError::Timeout);
    }
    stream.set_read_timeout(Some(left)).map_err(RecvError::Io)?;
    stream.read(buf).map_err(classify_io)
}

/// Reads one request from the stream by `deadline`, under the header
/// and the given body cap.
///
/// # Errors
///
/// See [`RecvError`]; the caller maps each variant to a response (or a
/// silent close for `Closed`/`Timeout`).
pub fn read_request(
    stream: &mut TcpStream,
    max_body: usize,
    deadline: Instant,
) -> Result<Request, RecvError> {
    // Read in chunks until the blank line; whatever follows it is the
    // start of the body.
    let mut head = Vec::with_capacity(1024);
    let mut chunk = [0u8; 1024];
    let head_len = loop {
        if let Some(end) = head.windows(4).position(|w| w == b"\r\n\r\n") {
            break end + 4;
        }
        if head.len() >= MAX_HEADER_BYTES {
            return Err(RecvError::Malformed(format!(
                "header block exceeds {MAX_HEADER_BYTES} bytes"
            )));
        }
        let room = chunk.len().min(MAX_HEADER_BYTES - head.len());
        match read_by(stream, &mut chunk[..room], deadline)? {
            0 => {
                return if head.is_empty() {
                    Err(RecvError::Closed)
                } else {
                    Err(RecvError::Malformed("connection closed inside the header block".into()))
                };
            }
            n => head.extend_from_slice(&chunk[..n]),
        }
    };
    let mut body = head.split_off(head_len);
    let text = std::str::from_utf8(&head)
        .map_err(|_| RecvError::Malformed("header block is not UTF-8".into()))?;
    let mut lines = text.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) if !m.is_empty() && p.starts_with('/') => (m, p, v),
        _ => {
            return Err(RecvError::Malformed(format!("bad request line {request_line:?}")));
        }
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(RecvError::Malformed(format!("unsupported version {version:?}")));
    }
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| RecvError::Malformed(format!("bad header line {line:?}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    let request = Request {
        method: method.to_ascii_uppercase(),
        path: path.to_string(),
        headers,
        body: Vec::new(),
    };
    let declared = match request.header("content-length") {
        None => 0,
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| RecvError::Malformed(format!("bad Content-Length {v:?}")))?,
    };
    if declared > max_body {
        return Err(RecvError::BodyTooLarge { declared, limit: max_body });
    }
    // One request per connection: bytes past the declared body are
    // not read, and any that arrived with the head are dropped.
    let mut filled = body.len().min(declared);
    body.resize(declared, 0);
    while filled < declared {
        match read_by(stream, &mut body[filled..], deadline)? {
            0 => return Err(RecvError::Closed),
            n => filled += n,
        }
    }
    Ok(Request { body, ..request })
}

/// Writes a fixed-length `Connection: close` response.
///
/// # Errors
///
/// Returns the socket error, which the caller logs and drops (the
/// connection is closing either way).
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &[u8],
) -> std::io::Result<()> {
    write_response_with_headers(stream, status, content_type, &[], body)
}

/// [`write_response`] with extra response headers (name, value). Names
/// and values must already be valid header text — no escaping happens.
///
/// # Errors
///
/// Returns the socket error, which the caller logs and drops.
pub fn write_response_with_headers(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    extra: &[(&str, &str)],
    body: &[u8],
) -> std::io::Result<()> {
    let reason = reason_phrase(status);
    let mut head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n",
        body.len()
    );
    for (name, value) in extra {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

/// The phrase printed after the status code.
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}
