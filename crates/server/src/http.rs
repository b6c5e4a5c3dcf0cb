//! A deliberately small HTTP/1.1 codec over `std::io` — just enough for
//! the JSON campaign API: request line + headers + `Content-Length`
//! bodies in, status + JSON bodies out, with keep-alive. No chunked
//! transfer, no TLS, no percent-decoding beyond `%XX` in query values.

use std::io::{self, Write};

/// Upper bounds keeping a misbehaving client from ballooning memory.
const MAX_HEADER_BYTES: usize = 16 * 1024;
const MAX_BODY_BYTES: usize = 8 * 1024 * 1024;

/// A parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    pub method: String,
    /// Path with the query string stripped (e.g. `/campaigns/3/price`).
    pub path: String,
    /// Decoded `key=value` pairs from the query string, in order.
    pub query: Vec<(String, String)>,
    pub body: String,
    /// Whether the client asked to keep the connection open.
    pub keep_alive: bool,
    /// Trace id from an `x-ft-trace` header, if the client sent one
    /// (propagated through the handler and echoed on the response).
    pub trace: Option<u64>,
}

impl Request {
    /// First query value under `key`.
    pub fn query(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// An outgoing response: status code + body + content type.
#[derive(Debug, Clone)]
pub struct Response {
    pub status: u16,
    pub body: String,
    pub content_type: &'static str,
    /// Trace id echoed back as an `x-ft-trace` response header.
    pub trace: Option<u64>,
}

impl Response {
    pub fn json(status: u16, body: String) -> Self {
        Self {
            status,
            body,
            content_type: "application/json",
            trace: None,
        }
    }

    /// The JSON error body every tier answers with:
    /// `{"error": kind, "message": message}`.
    pub fn error(status: u16, kind: &str, message: &str) -> Self {
        let body = serde::Value::Map(vec![
            ("error".into(), serde::Value::Str(kind.into())),
            ("message".into(), serde::Value::Str(message.into())),
        ]);
        Self::json(
            status,
            serde_json::to_string(&body).expect("serialize error"),
        )
    }

    /// Plain-text response (the Prometheus exposition format).
    pub fn text(status: u16, body: String) -> Self {
        Self {
            status,
            body,
            content_type: "text/plain; version=0.0.4",
            trace: None,
        }
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Incremental request parse over a byte buffer — the one request
/// parser, fed by the reactor's nonblocking reads. Returns:
///
/// - `Ok(Some((request, consumed)))` — one complete request parsed
///   from `buf[..consumed]`; the caller drains that prefix and calls
///   again (pipelined requests parse back-to-back).
/// - `Ok(None)` — the buffer holds only a prefix of a request; read
///   more bytes and retry.
/// - `Err(_)` — the bytes can never become a valid request (bad
///   request line / content-length, a head past `MAX_HEADER_BYTES`
///   across all its lines, or a body declared past `MAX_BODY_BYTES`).
pub fn parse_request(buf: &[u8]) -> io::Result<Option<(Request, usize)>> {
    // Find the first empty line: headers end there, body starts after.
    let mut line_start = 0usize;
    let mut body_start = None;
    for (i, &b) in buf.iter().enumerate() {
        if b != b'\n' {
            continue;
        }
        let mut line = &buf[line_start..i];
        if line.last() == Some(&b'\r') {
            line = &line[..line.len() - 1];
        }
        if line.is_empty() {
            body_start = Some(i + 1);
            break;
        }
        line_start = i + 1;
    }
    let Some(body_start) = body_start else {
        // Still inside the head: give up once it can no longer fit the
        // header budget, otherwise wait for more bytes.
        if buf.len() > MAX_HEADER_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "headers too large",
            ));
        }
        return Ok(None);
    };
    if body_start > MAX_HEADER_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "headers too large",
        ));
    }

    let head = std::str::from_utf8(&buf[..body_start])
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "headers not UTF-8"))?;
    let mut lines = head.split('\n').map(|l| l.trim_end_matches('\r'));
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) => (m.to_string(), t.to_string(), v.to_string()),
        _ => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "bad request line",
            ))
        }
    };
    // Headers: we only act on Content-Length, Connection and
    // x-ft-trace. HTTP/1.1 defaults to keep-alive, HTTP/1.0 to close.
    let mut content_length = 0usize;
    let mut keep_alive = version != "HTTP/1.0";
    let mut trace = None;
    for header in lines {
        if header.is_empty() {
            break;
        }
        let Some((name, value)) = header.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .parse()
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad content-length"))?;
        } else if name.eq_ignore_ascii_case("connection") {
            keep_alive = !value.eq_ignore_ascii_case("close");
        } else if name.eq_ignore_ascii_case("x-ft-trace") {
            // A malformed id is ignored, not a 400: tracing is
            // best-effort and must never fail a request.
            trace = ft_trace::parse_trace_id(value);
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "body too large"));
    }
    let Some(body_bytes) = buf.get(body_start..body_start + content_length) else {
        return Ok(None); // body not fully buffered yet
    };
    let body = String::from_utf8(body_bytes.to_vec())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "body not UTF-8"))?;
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), parse_query(q)),
        None => (target, Vec::new()),
    };
    Ok(Some((
        Request {
            method,
            path,
            query,
            body,
            keep_alive,
            trace,
        },
        body_start + content_length,
    )))
}

fn parse_query(q: &str) -> Vec<(String, String)> {
    q.split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(kv), String::new()),
        })
        .collect()
}

/// Decode `%XX` escapes and `+` (space); invalid escapes pass through.
fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => {
                match bytes
                    .get(i + 1..i + 3)
                    .and_then(|h| std::str::from_utf8(h).ok())
                    .and_then(|h| u8::from_str_radix(h, 16).ok())
                {
                    Some(b) => {
                        out.push(b);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Write a response; `keep_alive` controls the `Connection` header.
pub fn write_response<W: Write>(
    writer: &mut W,
    response: &Response,
    keep_alive: bool,
) -> io::Result<()> {
    write!(
        writer,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        response.status,
        reason(response.status),
        response.content_type,
        response.body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    )?;
    if let Some(trace) = response.trace {
        write!(writer, "x-ft-trace: {trace:016x}\r\n")?;
    }
    write!(writer, "\r\n{}", response.body)?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parse a buffer holding exactly one complete request.
    fn parse(raw: &str) -> Request {
        let (request, consumed) = parse_request(raw.as_bytes()).unwrap().unwrap();
        assert_eq!(consumed, raw.len());
        request
    }

    #[test]
    fn parses_request_line_query_and_body() {
        let req = parse(
            "POST /campaigns/3/observations?note=a%20b&x=1 HTTP/1.1\r\n\
             Host: localhost\r\nContent-Length: 9\r\n\r\n{\"a\": 1}\n",
        );
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/campaigns/3/observations");
        assert_eq!(req.query("note"), Some("a b"));
        assert_eq!(req.query("x"), Some("1"));
        assert_eq!(req.body, "{\"a\": 1}\n");
        assert!(req.keep_alive);
    }

    #[test]
    fn connection_close_and_http10() {
        let req = parse("GET / HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(!req.keep_alive);
        let req = parse("GET / HTTP/1.0\r\n\r\n");
        assert!(!req.keep_alive);
    }

    #[test]
    fn response_wire_format() {
        let mut out = Vec::new();
        write_response(&mut out, &Response::json(200, "{}".into()), true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }

    #[test]
    fn incremental_parse_waits_for_complete_requests() {
        let raw = b"POST /campaigns/quotes HTTP/1.1\r\nContent-Length: 4\r\n\r\nbody";
        // Every strict prefix is incomplete, never an error.
        for cut in 0..raw.len() {
            assert!(
                parse_request(&raw[..cut]).expect("prefix parses").is_none(),
                "prefix of {cut} bytes should be incomplete"
            );
        }
        let (request, consumed) = parse_request(raw).unwrap().unwrap();
        assert_eq!(consumed, raw.len());
        assert_eq!(request.method, "POST");
        assert_eq!(request.path, "/campaigns/quotes");
        assert_eq!(request.body, "body");
        assert!(request.keep_alive);
    }

    #[test]
    fn incremental_parse_walks_pipelined_requests() {
        let raw =
            b"GET /healthz HTTP/1.1\r\n\r\nGET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n";
        let (first, consumed) = parse_request(raw).unwrap().unwrap();
        assert_eq!(first.path, "/healthz");
        assert!(first.keep_alive);
        let (second, rest) = parse_request(&raw[consumed..]).unwrap().unwrap();
        assert_eq!(second.path, "/metrics");
        assert!(!second.keep_alive);
        assert_eq!(consumed + rest, raw.len());
    }

    #[test]
    fn incremental_parse_enforces_budgets() {
        // Headroom exhausted with no terminator in sight: error, so the
        // reactor can 400 a slowloris instead of buffering forever.
        let endless = vec![b'a'; MAX_HEADER_BYTES + 1];
        assert!(parse_request(&endless).is_err());
        // Oversized declared body: error up front.
        let huge = format!("POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", usize::MAX);
        assert!(parse_request(huge.as_bytes()).is_err());
        // Garbage request line: error once the head terminator arrives.
        assert!(parse_request(b"nope\r\n\r\n").is_err());
    }

    #[test]
    fn header_budget_spans_all_header_lines() {
        // Many small header lines must exhaust the same budget.
        let mut raw = String::from("GET / HTTP/1.1\r\n");
        for i in 0..2000 {
            raw.push_str(&format!("X-Filler-{i}: {}\r\n", "v".repeat(64)));
        }
        raw.push_str("\r\n");
        assert!(parse_request(raw.as_bytes()).is_err());
    }
}
