//! A hand-rolled HTTP/1.1 subset over [`std::net`].
//!
//! The server speaks exactly the slice of HTTP/1.1 its endpoints need —
//! request line + headers + `Content-Length` body in, status + JSON body
//! out, one request per connection (`Connection: close`) — so the whole
//! exchange stays std-only. Limits are enforced while reading: a 16 KiB
//! header section and an 8 MiB body, so a hostile peer cannot balloon
//! memory. The body is read once, straight into a buffer of exactly its
//! declared length, and a response leaves in a single write.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Maximum bytes of request line + headers.
const MAX_HEAD: usize = 16 * 1024;
/// Maximum request body size.
pub const MAX_BODY: usize = 8 * 1024 * 1024;

/// Arms read/write timeouts on an accepted connection so a client that
/// opens a socket and stalls mid-request cannot pin a handler thread
/// forever. `Duration::ZERO` disables the timeouts (useful in tests that
/// deliberately pause).
///
/// # Errors
///
/// Propagates `setsockopt` failures.
pub fn apply_io_timeouts(stream: &TcpStream, timeout: Duration) -> io::Result<()> {
    if timeout == Duration::ZERO {
        return Ok(());
    }
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    Ok(())
}

/// Whether an I/O error is a socket timeout (the platform reports either
/// `WouldBlock` or `TimedOut` depending on the socket API used).
#[must_use]
pub fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// A parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// The request method (`GET`, `POST`, …), uppercase as sent.
    pub method: String,
    /// The request target, query string included.
    pub path: String,
    /// The request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// The socket failed; no response is possible.
    Io(io::Error),
    /// The peer sent something that is not acceptable HTTP; the message is
    /// suitable for a 400 response body.
    Malformed(String),
    /// The declared body exceeds [`MAX_BODY`]; respond 413.
    TooLarge,
}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> Self {
        HttpError::Io(e)
    }
}

/// Reads one HTTP request from the stream.
///
/// # Errors
///
/// [`HttpError::Io`] on socket failure, [`HttpError::Malformed`] on
/// unparseable input, [`HttpError::TooLarge`] when the declared body
/// exceeds the limit.
pub fn read_request<R: Read>(stream: &mut R) -> Result<Request, HttpError> {
    let mut head = Vec::new();
    let mut buf = [0u8; 1024];
    // Everything before `scanned` is known to hold no terminator start,
    // so each read searches only its own bytes plus the 3 before them.
    let mut scanned = 0;
    let split = loop {
        if let Some(i) = find_head_end(&head[scanned..]) {
            break scanned + i;
        }
        scanned = head.len().saturating_sub(3);
        if head.len() > MAX_HEAD {
            return Err(HttpError::Malformed("header section too large".into()));
        }
        let n = stream.read(&mut buf)?;
        if n == 0 {
            return Err(HttpError::Malformed("connection closed mid-request".into()));
        }
        head.extend_from_slice(&buf[..n]);
    };
    // `split` points past the blank line; bytes after it are body prefix.
    let (head_bytes, rest) = head.split_at(split);
    let head_text = std::str::from_utf8(head_bytes)
        .map_err(|_| HttpError::Malformed("non-UTF-8 header section".into()))?;

    let mut lines = head_text.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("empty request line".into()))?
        .to_string();
    let path = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("request line missing target".into()))?
        .to_string();
    if !parts.next().is_some_and(|v| v.starts_with("HTTP/1.")) {
        return Err(HttpError::Malformed("not an HTTP/1.x request".into()));
    }

    let mut content_length = 0usize;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::Malformed(format!("malformed header: {line:?}")));
        };
        if name.trim().eq_ignore_ascii_case("content-length") {
            content_length = value
                .trim()
                .parse()
                .map_err(|_| HttpError::Malformed("bad Content-Length".into()))?;
        }
    }
    if content_length > MAX_BODY {
        return Err(HttpError::TooLarge);
    }

    // One buffer of exactly `content_length` bytes: the prefix that came
    // with the head, then the rest straight from the stream. Bytes past
    // the declared length are never read into it.
    let mut body = Vec::with_capacity(content_length);
    body.extend_from_slice(&rest[..rest.len().min(content_length)]);
    let missing = content_length - body.len();
    stream.take(missing as u64).read_to_end(&mut body)?;
    if body.len() < content_length {
        return Err(HttpError::Malformed("connection closed mid-body".into()));
    }
    Ok(Request { method, path, body })
}

/// Index just past the `\r\n\r\n` terminating the header section.
fn find_head_end(bytes: &[u8]) -> Option<usize> {
    bytes
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|i| i + 4)
}

/// Writes a complete JSON response — status line, headers and body in
/// one `write_all` — and flushes it. The connection is marked
/// `Connection: close`; the caller drops the stream afterwards.
///
/// # Errors
///
/// Propagates socket write failures.
pub fn write_response<W: Write>(stream: &mut W, status: u16, body: &str) -> io::Result<()> {
    let response = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
        status,
        status_text(status),
        body.len(),
        body,
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

/// Starts a `Transfer-Encoding: chunked` response: status line + headers,
/// no body yet. Follow with [`write_chunk`] per line and close the stream
/// with [`write_chunked_end`]. Used by the progressive `POST /sweep`
/// endpoint, where results exist before the response is complete.
///
/// # Errors
///
/// Propagates socket write failures.
pub fn write_chunked_head<W: Write>(stream: &mut W, status: u16) -> io::Result<()> {
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: application/x-ndjson\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n",
        status,
        status_text(status),
    );
    stream.write_all(head.as_bytes())?;
    stream.flush()
}

/// Writes one line as a single HTTP chunk (the payload is `line` plus a
/// trailing newline, so each chunk is exactly one NDJSON record) and
/// flushes it so the client observes progress immediately.
///
/// # Errors
///
/// Propagates socket write failures.
pub fn write_chunk<W: Write>(stream: &mut W, line: &str) -> io::Result<()> {
    let payload_len = line.len() + 1;
    stream.write_all(format!("{payload_len:x}\r\n").as_bytes())?;
    stream.write_all(line.as_bytes())?;
    stream.write_all(b"\n\r\n")?;
    stream.flush()
}

/// Terminates a chunked response (the zero-length chunk).
///
/// # Errors
///
/// Propagates socket write failures.
pub fn write_chunked_end<W: Write>(stream: &mut W) -> io::Result<()> {
    stream.write_all(b"0\r\n\r\n")?;
    stream.flush()
}

/// The reason phrase for the status codes this server emits.
#[must_use]
pub fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    fn roundtrip(raw: &[u8]) -> Result<Request, HttpError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_vec();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&raw).unwrap();
        });
        let (mut conn, _) = listener.accept().unwrap();
        let result = read_request(&mut conn);
        writer.join().unwrap();
        result
    }

    /// A peer whose bytes arrive at most `step` at a time.
    struct Trickle<'a> {
        data: &'a [u8],
        step: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.step.min(buf.len()).min(self.data.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    fn trickle(raw: &[u8], step: usize) -> Result<Request, HttpError> {
        read_request(&mut Trickle { data: raw, step })
    }

    #[test]
    fn parses_post_with_body() {
        let req = roundtrip(b"POST /analyze HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nbody")
            .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/analyze");
        assert_eq!(req.body, b"body");
    }

    #[test]
    fn parses_get_without_body() {
        let req = roundtrip(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert!(req.body.is_empty());
    }

    /// Head and body split at every possible point: one byte per read,
    /// odd step sizes that cut the `\r\n\r\n` terminator apart, and the
    /// whole request in one read. The body itself contains a blank line.
    #[test]
    fn body_arrives_intact_however_the_bytes_are_split() {
        let pattern = b"{\"config_xml\":\"<a/>\r\n\r\n\"}";
        let body: Vec<u8> = (0..3000).map(|i| pattern[i % pattern.len()]).collect();
        let mut raw = format!(
            "POST /analyze HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        raw.extend_from_slice(&body);
        for step in [1, 2, 3, 5, 7, 1024, usize::MAX] {
            let req = trickle(&raw, step).unwrap();
            assert_eq!(req.path, "/analyze", "step {step}");
            assert_eq!(req.body, body, "step {step}");
        }
    }

    #[test]
    fn head_and_body_in_one_read() {
        let raw = b"POST /sweep HTTP/1.1\r\nContent-Length: 11\r\n\r\n{\"axis\":1}\n";
        let req = trickle(raw, usize::MAX).unwrap();
        assert_eq!(req.path, "/sweep");
        assert_eq!(req.body, b"{\"axis\":1}\n");
    }

    #[test]
    fn bytes_beyond_content_length_are_dropped() {
        let raw = b"POST / HTTP/1.1\r\nContent-Length: 4\r\n\r\nbodyEXTRA";
        for step in [1, usize::MAX] {
            assert_eq!(trickle(raw, step).unwrap().body, b"body", "step {step}");
        }
    }

    #[test]
    fn zero_content_length_reads_no_body() {
        let raw = b"POST /analyze HTTP/1.1\r\nContent-Length: 0\r\n\r\nignored";
        for step in [1, usize::MAX] {
            assert!(trickle(raw, step).unwrap().body.is_empty(), "step {step}");
        }
    }

    #[test]
    fn short_body_is_malformed() {
        let raw = b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc";
        for step in [1, usize::MAX] {
            assert!(
                matches!(trickle(raw, step), Err(HttpError::Malformed(m)) if m == "connection closed mid-body"),
                "step {step}"
            );
        }
    }

    #[test]
    fn rejects_malformed_requests() {
        assert!(matches!(
            roundtrip(b"\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            roundtrip(b"GET\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            roundtrip(b"GET / SPDY/9\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            roundtrip(b"POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
    }

    #[test]
    fn rejects_oversized_bodies() {
        let raw = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        assert!(matches!(
            roundtrip(raw.as_bytes()),
            Err(HttpError::TooLarge)
        ));
    }

    /// Counts the `write` calls a response takes.
    #[derive(Default)]
    struct CountingWriter {
        out: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.out.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn response_leaves_in_one_write() {
        let mut w = CountingWriter::default();
        write_response(&mut w, 422, "{\"a\":1}").unwrap();
        assert_eq!(w.writes, 1);
        assert_eq!(
            w.out,
            b"HTTP/1.1 422 Unprocessable Entity\r\nContent-Type: application/json\r\n\
              Content-Length: 7\r\nConnection: close\r\n\r\n{\"a\":1}"
        );
    }

    #[test]
    fn chunked_writers_frame_each_line() {
        let mut out = Vec::new();
        write_chunked_head(&mut out, 200).unwrap();
        write_chunk(&mut out, "{\"a\":1}").unwrap();
        write_chunk(&mut out, "{\"b\":22}").unwrap();
        write_chunked_end(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Transfer-Encoding: chunked\r\n"));
        // 8 = len("{\"a\":1}") + newline; 9 for the second line.
        assert!(
            text.contains("\r\n\r\n8\r\n{\"a\":1}\n\r\n9\r\n{\"b\":22}\n\r\n0\r\n\r\n"),
            "unexpected framing: {text:?}"
        );
    }

    #[test]
    fn status_lines_cover_the_emitted_codes() {
        for code in [200, 400, 404, 405, 408, 413, 422, 429, 500, 502, 503, 504] {
            assert_ne!(status_text(code), "Unknown");
        }
    }

    #[test]
    fn stalling_client_times_out_instead_of_pinning_the_reader() {
        use std::time::Instant;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            // Half a request line, then silence — without a read timeout
            // read_request would block in read() forever.
            s.write_all(b"POST /ana").unwrap();
            std::thread::sleep(Duration::from_millis(500));
        });
        let (mut conn, _) = listener.accept().unwrap();
        apply_io_timeouts(&conn, Duration::from_millis(50)).unwrap();
        let started = Instant::now();
        let result = read_request(&mut conn);
        assert!(
            started.elapsed() < Duration::from_millis(400),
            "read_request must give up at the socket timeout"
        );
        match result {
            Err(HttpError::Io(e)) => assert!(is_timeout(&e), "unexpected error: {e}"),
            other => panic!("expected a timeout Io error, got {other:?}"),
        }
        writer.join().unwrap();
    }
}
