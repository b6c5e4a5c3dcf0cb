//! Timed requests over one keep-alive connection, and the per-kind
//! attempted/failed tally every run reports.

use serde::{map_get, Value};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The request kinds the benchmark distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    Create,
    Solve,
    Delete,
    Price,
    BulkQuote,
    Observe,
    TraceFetch,
    Metrics,
}

impl Kind {
    pub fn label(self) -> &'static str {
        match self {
            Kind::Create => "create",
            Kind::Solve => "solve",
            Kind::Delete => "delete",
            Kind::Price => "price",
            Kind::BulkQuote => "bulk_quote",
            Kind::Observe => "observe",
            Kind::TraceFetch => "trace_fetch",
            Kind::Metrics => "metrics",
        }
    }
}

/// Attempted and failed requests per kind. A request fails on a
/// transport error, a 5xx, or any other status its caller did not
/// expect; callers that can only judge a status after the run (a 422
/// the reference must confirm) report the failure then.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    counts: BTreeMap<Kind, (u64, u64)>,
}

impl Tally {
    pub fn attempt(&mut self, kind: Kind) {
        self.counts.entry(kind).or_default().0 += 1;
    }

    pub fn fail(&mut self, kind: Kind) {
        self.counts.entry(kind).or_default().1 += 1;
    }

    pub fn merge(&mut self, other: &Tally) {
        for (kind, (a, f)) in &other.counts {
            let entry = self.counts.entry(*kind).or_default();
            entry.0 += a;
            entry.1 += f;
        }
    }

    pub fn attempted(&self) -> u64 {
        self.counts.values().map(|c| c.0).sum()
    }

    pub fn failed(&self) -> u64 {
        self.counts.values().map(|c| c.1).sum()
    }

    pub fn by_kind(&self) -> impl Iterator<Item = (&'static str, u64, u64)> + '_ {
        self.counts.iter().map(|(k, (a, f))| (k.label(), *a, *f))
    }
}

/// One answered request.
pub struct Reply {
    pub status: u16,
    pub body: String,
    /// Round trip as the caller saw it: from handing the request to the
    /// client until the whole response was read.
    pub micros: f64,
    /// Client-side start, in ns since the benchmark's epoch.
    pub start_ns: u64,
}

impl Reply {
    pub fn json(&self) -> Result<Value, String> {
        serde_json::from_str(&self.body).map_err(|e| format!("bad JSON reply: {e}"))
    }
}

/// The process-wide clock origin for span timestamps.
pub fn epoch() -> Instant {
    static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

pub fn now_ns() -> u64 {
    u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Where connections go, and whether they tag a seeded sample of
/// requests with `x-ft-trace`.
#[derive(Debug, Clone, Copy)]
pub struct Target {
    pub addr: SocketAddr,
    /// `(seed, every)`: tag about one request in `every`.
    pub trace: Option<(u64, u64)>,
}

/// Trace ids are unique across the whole run, so a fetch can never
/// return an earlier request's trace.
static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);

impl Target {
    pub fn untraced(addr: SocketAddr) -> Self {
        Self { addr, trace: None }
    }

    /// Connection number `index`, which seeds its own trace sample.
    pub fn connect(&self, index: u64) -> Conn {
        Conn {
            client: ft_server::Client::new(self.addr),
            tally: Tally::default(),
            sampler: self.trace.map(|(seed, every)| Sampler {
                seed,
                every,
                index,
                calls: 0,
            }),
            traced: Vec::new(),
        }
    }
}

struct Sampler {
    seed: u64,
    every: u64,
    index: u64,
    calls: u64,
}

impl Sampler {
    /// A fresh trace id if this call is in the seeded sample.
    fn next(&mut self) -> Option<u64> {
        self.calls += 1;
        let pick = crate::workload::mix(self.seed, 100 + self.index, self.calls)
            .is_multiple_of(self.every);
        // ORDERING: Relaxed — the counter only hands out distinct ids.
        pick.then(|| NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed))
    }
}

/// A request sent with `x-ft-trace`, and the server's trace of it.
pub struct TracedCall {
    pub kind: Kind,
    /// The connection that sent it.
    pub conn: u64,
    pub trace_id: u64,
    pub start_ns: u64,
    pub micros: f64,
    /// The `GET /trace/{id}` body, fetched right after the request (the
    /// server keeps only its most recent traces).
    pub trace_json: Option<String>,
}

/// One keep-alive connection that counts what it sends.
pub struct Conn {
    client: ft_server::Client,
    pub tally: Tally,
    sampler: Option<Sampler>,
    pub traced: Vec<TracedCall>,
}

impl Conn {
    /// Send one request. Transport errors and 5xx answers are counted
    /// as failed here. On a traced connection, a sampled request carries
    /// a trace id and its trace is fetched before this returns.
    pub fn call(
        &mut self,
        kind: Kind,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<Reply, String> {
        let trace = self.sampler.as_mut().and_then(Sampler::next);
        let reply = self.send(kind, method, path, body, trace)?;
        if let Some(trace_id) = trace {
            let fetched = self.send(
                Kind::TraceFetch,
                "GET",
                &format!("/trace/{}", ft_trace::format_trace_id(trace_id)),
                None,
                None,
            );
            let conn = self.sampler.as_ref().map_or(0, |s| s.index);
            self.traced.push(TracedCall {
                kind,
                conn,
                trace_id,
                start_ns: reply.start_ns,
                micros: reply.micros,
                trace_json: fetched.ok().filter(|r| r.status == 200).map(|r| r.body),
            });
        }
        Ok(reply)
    }

    fn send(
        &mut self,
        kind: Kind,
        method: &str,
        path: &str,
        body: Option<&str>,
        trace: Option<u64>,
    ) -> Result<Reply, String> {
        self.tally.attempt(kind);
        let start_ns = now_ns();
        let started = Instant::now();
        let result = self.client.request_traced(method, path, body, trace);
        let micros = started.elapsed().as_secs_f64() * 1e6;
        match result {
            Ok((status, body, _)) => {
                if status >= 500 {
                    self.tally.fail(kind);
                }
                Ok(Reply {
                    status,
                    body,
                    micros,
                    start_ns,
                })
            }
            Err(e) => {
                self.tally.fail(kind);
                Err(format!("{method} {path}: {e}"))
            }
        }
    }

    /// [`Conn::call`] that also counts any status other than `expect`
    /// as failed, and returns `None` for it.
    pub fn expect(
        &mut self,
        kind: Kind,
        method: &str,
        path: &str,
        body: Option<&str>,
        expect: u16,
    ) -> Option<Reply> {
        match self.call(kind, method, path, body) {
            Ok(reply) if reply.status == expect => Some(reply),
            Ok(reply) => {
                if reply.status < 500 {
                    self.tally.fail(kind);
                }
                eprintln!(
                    "ftbench: {method} {path}: HTTP {} {}",
                    reply.status, reply.body
                );
                None
            }
            Err(e) => {
                eprintln!("ftbench: {e}");
                None
            }
        }
    }
}

/// The bytes `ft_server::Client` writes for one request (one buffer, no
/// `Connection: close`), for timing the server's parser on the
/// workload's own requests.
pub fn request_bytes(method: &str, path: &str, body: &str) -> Vec<u8> {
    format!(
        "{method} {path} HTTP/1.1\r\nHost: ft-client\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

pub fn field<'v>(value: &'v Value, key: &str) -> Option<&'v Value> {
    map_get(value.as_map()?, key).ok()
}

pub fn num(value: &Value, key: &str) -> Option<f64> {
    field(value, key)?.as_num()
}
