//! A minimal blocking HTTP/1.1 client — just enough to drive the
//! campaign API from tests, examples, benchmarks and smoke scripts
//! without pulling in a real HTTP stack.
//!
//! Two flavours:
//!
//! - [`request`]: one-shot, `Connection: close` — a fresh TCP connect
//!   per call. Simple and stateless; right for probes and floods.
//! - [`Client`]: keep-alive — one persistent connection reused across
//!   requests, reconnecting transparently when the server closed it
//!   (idle timeout, shutdown, or a close-after response). This is what
//!   `ft-load`'s socket backend drives, so socket benchmarks measure
//!   the serving tier, not a TCP handshake per op.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

/// Send one request and read the response: `(status, body)`.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    let _ = stream.set_nodelay(true);
    let body = body.unwrap_or("");
    // One buffer, one write: `write!` straight at a TcpStream issues a
    // syscall per format fragment, and that write-write-read pattern
    // collides with Nagle + delayed ACK (~40ms stalls on warm
    // connections).
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: ft-client\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let written = stream.write_all(request.as_bytes());
    // A server may answer-and-close before reading the whole request
    // (e.g. an over-capacity 503 from the reactor): the write fails
    // with EPIPE but a complete response is still waiting to be read.
    if let Err(e) = written {
        if !matches!(
            e.kind(),
            std::io::ErrorKind::BrokenPipe | std::io::ErrorKind::ConnectionReset
        ) {
            return Err(e);
        }
    }
    let mut reader = BufReader::new(stream);
    read_response(&mut reader).map(|(status, body, _, _)| (status, body))
}

/// Read one HTTP response off `reader`: `(status, body, keep_alive,
/// trace)`. `keep_alive` reports whether the server intends to keep
/// the connection open (`Connection: close` absent); `trace` is the
/// echoed `x-ft-trace` id, when the request was traced.
#[allow(clippy::type_complexity)]
fn read_response<R: BufRead>(reader: &mut R) -> std::io::Result<(u16, String, bool, Option<u64>)> {
    let mut status_line = String::new();
    reader.read_line(&mut status_line)?;
    if status_line.is_empty() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "eof before status line",
        ));
    }
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("bad status line: {status_line:?}"),
            )
        })?;
    let mut content_length = 0usize;
    let mut keep_alive = true;
    let mut trace = None;
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "eof in response headers",
            ));
        }
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().map_err(|_| {
                    std::io::Error::new(std::io::ErrorKind::InvalidData, "bad content-length")
                })?;
            }
            if name.eq_ignore_ascii_case("connection") && value.trim().eq_ignore_ascii_case("close")
            {
                keep_alive = false;
            }
            if name.eq_ignore_ascii_case("x-ft-trace") {
                trace = ft_trace::parse_trace_id(value.trim());
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    String::from_utf8(body)
        .map(|body| (status, body, keep_alive, trace))
        .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidData, "body not UTF-8"))
}

/// A keep-alive HTTP/1.1 client: one persistent connection, lazily
/// (re)connected. Not thread-safe — use one per driving thread (or a
/// small checkout pool, like `ft-load`'s socket backend does).
pub struct Client {
    addr: SocketAddr,
    stream: Option<BufReader<TcpStream>>,
}

impl Client {
    /// No connection is opened until the first [`Client::request`].
    pub fn new(addr: SocketAddr) -> Self {
        Self { addr, stream: None }
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Send one request on the persistent connection and read the
    /// response: `(status, body)`.
    ///
    /// If the server closed the connection since the last request
    /// (keep-alive idle timeout, shutdown), the send fails mid-flight;
    /// that one case retries once on a fresh connection — safe because
    /// a request the server never finished reading was never routed.
    /// Errors on a freshly opened connection are returned as-is.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> std::io::Result<(u16, String)> {
        self.request_traced(method, path, body, None)
            .map(|(status, body, _)| (status, body))
    }

    /// Like [`Client::request`], but tags the request with an
    /// `x-ft-trace` id so the server samples it into the tracing
    /// plane; returns the echoed id alongside status and body.
    pub fn request_traced(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
        trace: Option<u64>,
    ) -> std::io::Result<(u16, String, Option<u64>)> {
        let reused = self.stream.is_some();
        match self.try_request(method, path, body, trace) {
            Err(e) if reused && retryable(&e) => {
                self.stream = None;
                self.try_request(method, path, body, trace)
            }
            result => result,
        }
    }

    fn try_request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
        trace: Option<u64>,
    ) -> std::io::Result<(u16, String, Option<u64>)> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            let _ = stream.set_nodelay(true);
            self.stream = Some(BufReader::new(stream));
        }
        let reader = self.stream.as_mut().expect("connected above");
        let body = body.unwrap_or("");
        let trace_header = match trace {
            Some(id) => format!("x-ft-trace: {id:016x}\r\n"),
            None => String::new(),
        };
        // No `Connection: close`: HTTP/1.1 defaults to keep-alive. One
        // buffer, one write — see [`request`] on Nagle stalls.
        let request = format!(
            "{method} {path} HTTP/1.1\r\nHost: ft-client\r\nContent-Length: {}\r\n{trace_header}\r\n{body}",
            body.len()
        );
        let written = reader.get_mut().write_all(request.as_bytes());
        // Same tolerance as the one-shot path: the server may have
        // answered-and-closed (503) before reading the whole request;
        // the response is still there to read.
        if let Err(e) = written {
            if !matches!(
                e.kind(),
                std::io::ErrorKind::BrokenPipe | std::io::ErrorKind::ConnectionReset
            ) {
                self.stream = None;
                return Err(e);
            }
        }
        match read_response(reader) {
            Ok((status, body, keep_alive, echoed)) => {
                if !keep_alive {
                    self.stream = None;
                }
                Ok((status, body, echoed))
            }
            Err(e) => {
                self.stream = None;
                Err(e)
            }
        }
    }
}

/// Failures that mean "the server dropped the old connection", not
/// "this request was rejected": safe to retry once on a reconnect.
fn retryable(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::UnexpectedEof
            | std::io::ErrorKind::BrokenPipe
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
    )
}
