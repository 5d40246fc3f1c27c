//! A tiny blocking HTTP client for the analysis server.
//!
//! Used by the `swa request` subcommand, the CI smoke gate, and the
//! end-to-end tests — the same hand-rolled HTTP/1.1 subset the server
//! speaks (one request per connection, `Content-Length` framing).

use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Socket-level timeout applied to client connections so a wedged server
/// cannot hang the CLI forever.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// A response from the server.
#[derive(Debug, Clone)]
pub struct HttpResponse {
    /// HTTP status code.
    pub status: u16,
    /// Response body (always JSON for this server).
    pub body: String,
}

/// Sends a `GET` request.
///
/// # Errors
///
/// Propagates connection and protocol failures.
pub fn get<A: ToSocketAddrs>(addr: A, path: &str) -> io::Result<HttpResponse> {
    parse_response(send(addr, "GET", path, b"")?)
}

/// Sends a `POST` request with a JSON body. The body is sent as the
/// bytes given, so a router can forward a body it has not decoded.
///
/// # Errors
///
/// Propagates connection and protocol failures.
pub fn post<A: ToSocketAddrs>(
    addr: A,
    path: &str,
    body: &(impl AsRef<[u8]> + ?Sized),
) -> io::Result<HttpResponse> {
    parse_response(send(addr, "POST", path, body.as_ref())?)
}

/// Sends one request — head and body in a single write — and returns
/// the raw response, read until the server closes the connection.
fn send<A: ToSocketAddrs>(addr: A, method: &str, path: &str, body: &[u8]) -> io::Result<Vec<u8>> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let mut request = format!(
        "{method} {path} HTTP/1.1\r\nHost: swa-serve\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len(),
    )
    .into_bytes();
    request.extend_from_slice(body);
    stream.write_all(&request)?;
    stream.flush()?;

    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    Ok(raw)
}

/// A streamed (chunked) response, decoded into its constituent lines.
#[derive(Debug, Clone)]
pub struct StreamedResponse {
    /// HTTP status code.
    pub status: u16,
    /// The decoded NDJSON lines, in arrival order. For non-chunked error
    /// responses this is the whole body as a single line.
    pub lines: Vec<String>,
}

/// Sends a `POST` and decodes a `Transfer-Encoding: chunked` NDJSON
/// stream (the `/sweep` endpoint). Non-chunked responses (parse errors,
/// 429, …) come back as one line holding the whole body.
///
/// # Errors
///
/// Propagates connection and protocol failures, including malformed
/// chunked framing.
pub fn post_lines<A: ToSocketAddrs>(
    addr: A,
    path: &str,
    body: &str,
) -> io::Result<StreamedResponse> {
    parse_streamed(&send(addr, "POST", path, body.as_bytes())?)
}

fn parse_streamed(raw: &[u8]) -> io::Result<StreamedResponse> {
    let bad = |m: &str| io::Error::new(io::ErrorKind::InvalidData, m.to_string());
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| bad("response missing header terminator"))?;
    let head = std::str::from_utf8(&raw[..split]).map_err(|_| bad("non-UTF-8 response head"))?;
    let status = head
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let chunked = head.lines().any(|l| {
        l.split_once(':').is_some_and(|(name, value)| {
            name.trim().eq_ignore_ascii_case("transfer-encoding")
                && value.trim().eq_ignore_ascii_case("chunked")
        })
    });
    let body_bytes = &raw[split + 4..];
    let payload = if chunked {
        dechunk(body_bytes).map_err(|m| bad(&m))?
    } else {
        body_bytes.to_vec()
    };
    let text = String::from_utf8(payload).map_err(|_| bad("non-UTF-8 response body"))?;
    let lines = text
        .lines()
        .filter(|l| !l.is_empty())
        .map(str::to_string)
        .collect();
    Ok(StreamedResponse { status, lines })
}

/// Decodes `Transfer-Encoding: chunked` framing into the raw payload.
fn dechunk(mut bytes: &[u8]) -> Result<Vec<u8>, String> {
    let mut payload = Vec::new();
    loop {
        let line_end = bytes
            .windows(2)
            .position(|w| w == b"\r\n")
            .ok_or("chunk size line missing CRLF")?;
        let size_text = std::str::from_utf8(&bytes[..line_end])
            .map_err(|_| "non-UTF-8 chunk size".to_string())?;
        // Chunk extensions (";…") are permitted by HTTP; ignore them.
        let size_text = size_text.split(';').next().unwrap_or("").trim();
        let size = usize::from_str_radix(size_text, 16)
            .map_err(|_| format!("bad chunk size {size_text:?}"))?;
        bytes = &bytes[line_end + 2..];
        if size == 0 {
            return Ok(payload);
        }
        if bytes.len() < size + 2 {
            return Err("truncated chunk".to_string());
        }
        payload.extend_from_slice(&bytes[..size]);
        if &bytes[size..size + 2] != b"\r\n" {
            return Err("chunk data missing trailing CRLF".to_string());
        }
        bytes = &bytes[size + 2..];
    }
}

fn parse_response(mut raw: Vec<u8>) -> io::Result<HttpResponse> {
    let bad = |m: &str| io::Error::new(io::ErrorKind::InvalidData, m.to_string());
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| bad("response missing header terminator"))?;
    let head = std::str::from_utf8(&raw[..split]).map_err(|_| bad("non-UTF-8 response head"))?;
    let status_line = head.lines().next().ok_or_else(|| bad("empty response"))?;
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    // `Connection: close` framing: everything after the blank line is the
    // body (Content-Length is advisory here; read_to_end saw EOF).
    raw.drain(..split + 4);
    let body = String::from_utf8(raw).map_err(|_| bad("non-UTF-8 response body"))?;
    Ok(HttpResponse { status, body })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_response() {
        let raw = b"HTTP/1.1 429 Too Many Requests\r\nContent-Length: 2\r\n\r\n{}";
        let resp = parse_response(raw.to_vec()).unwrap();
        assert_eq!(resp.status, 429);
        assert_eq!(resp.body, "{}");
    }

    #[test]
    fn dechunks_a_streamed_response() {
        let raw = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n\
                    8\r\n{\"a\":1}\n\r\n9\r\n{\"b\":22}\n\r\n0\r\n\r\n";
        let resp = parse_streamed(raw).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.lines, vec!["{\"a\":1}", "{\"b\":22}"]);
    }

    #[test]
    fn streamed_parser_accepts_plain_bodies() {
        let raw = b"HTTP/1.1 429 Too Many Requests\r\nContent-Length: 2\r\n\r\n{}";
        let resp = parse_streamed(raw).unwrap();
        assert_eq!(resp.status, 429);
        assert_eq!(resp.lines, vec!["{}"]);
    }

    #[test]
    fn dechunk_rejects_bad_framing() {
        assert!(dechunk(b"nope").is_err());
        assert!(dechunk(b"zz\r\n").is_err());
        assert!(dechunk(b"5\r\nab").is_err());
        assert!(dechunk(b"2\r\nabXX0\r\n\r\n").is_err());
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_response(b"not http".to_vec()).is_err());
        assert!(parse_response(b"HTTP/1.1 ???\r\n\r\n".to_vec()).is_err());
    }
}
