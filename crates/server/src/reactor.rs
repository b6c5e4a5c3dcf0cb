//! The epoll-driven serving tier: one event-loop thread multiplexing
//! every connection and answering the cheap, non-blocking requests
//! itself, a bounded ready-queue of **parsed requests**, and the fixed
//! worker pool executing every other handler off the loop.
//!
//! ```text
//!        epoll (edge-triggered conns, level-triggered listener)
//!          │ readiness
//!          ▼
//!   reactor thread ── accept / read / parse / classify ──► JobQueue (bounded)
//!     │    ▲                                                   │ pop
//!     │    │ wake pipe + completions                           ▼
//!     │    └────────────────────────────────────────── worker threads
//!     │                                                (Service::handle)
//!     └─ a loop-safe request, first in its read pass, within the
//!        wake's budget: Service::handle on the loop itself, no hand-off
//! ```
//!
//! The loop serves any [`Service`]: the node's [`AppState`] (handler
//! `router::dispatch`) and `ft-router`'s fleet (handler
//! `proxy::handle`) share it, and with it one request parser, one
//! overload contract and one request envelope. The loop classifies
//! each parsed request once ([`Service::route`]); the `Job` carries
//! the route and its endpoint slot to whichever thread answers it. One
//! function, `answer`, is the only place a request is recorded, on a
//! worker or on the loop: it opens the root span filed under the
//! endpoint's label, times the handler call alone, bumps the
//! endpoint's counter and latency histogram (offering a traced
//! request as the histogram's exemplar), counts the status class, and
//! echoes the trace id. A service only answers.
//!
//! A route the service marks [`Service::loop_safe`] is answered on
//! the loop itself, skipping the ready-queue's condvar wake and the
//! wake pipe back, when it is the first request parsed from its
//! connection in this read pass, nothing earlier on that connection is
//! still unanswered, its body is at most `LOOP_BODY_BYTES`, and the
//! loop's handler calls of this wake have run for less than
//! `LOOP_WAKE_BUDGET`. So a connection holds the loop for at most one
//! such handler call per wake, and one wake spends at most the budget
//! plus one handler call at the body bound in handlers, however many
//! connections are ready: past the budget the wake's remaining
//! requests go to the workers, which answer them in parallel.
//! Pipelined requests, larger bodies and floods go to the workers too
//! and keep the queue's overload contract. A panicking handler answers
//! `500`, on the loop and on a worker alike, and the thread serves on.
//! The node marks its single and bulk price quotes loop-safe (they
//! read a published generation and never solve); the router marks
//! nothing.
//!
//! Per connection the reactor keeps a small state machine: an input
//! buffer fed to [`crate::http::parse_request`], a sequence counter
//! for pipelined requests, the set of finished-but-unwritten
//! responses, and one in-progress write buffer. Responses are
//! serialized strictly in request order, so a keep-alive client may
//! pipeline any number of requests and still read its answers in
//! order.
//!
//! Overload and failure semantics are the same for every service: a
//! parsed request that finds the ready-queue full is answered `503
//! server_busy` (in order!) and the connection closes after the flush;
//! malformed bytes get a `400` and a close; a connection idle past its
//! deadline (generous before the first request, short between
//! keep-alive requests) is dropped without an answer; shutdown stops
//! accepting, answers everything already parsed, closes idle
//! keep-alive connections immediately, and force-drops stragglers
//! after a short grace.

use crate::http::{parse_request, write_response, Request, Response};
use crate::router;
use crate::server::ServerConfig;
use crate::state::{AppState, Endpoint};
use crate::sys::{Epoll, EpollEvent, EPOLLERR, EPOLLET, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use ft_metrics::{Counter, Gauge, Histogram};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// What the reactor serves: a classifier, the routes the event loop
/// may answer itself, and a handler, plus the instruments the reactor
/// records for every request.
pub trait Service: Sync {
    /// Per-thread handler state, built once on each worker thread and,
    /// at its first loop-safe request, on the event loop, and rebuilt
    /// after a handler panics (the router keeps its backend
    /// connections here).
    type Worker;
    /// A classified request: what [`Service::handle`] dispatches on.
    type Route: Copy + Send;
    /// Name of the root span each traced request opens, backdated to
    /// when the event loop woke to read the request.
    const ROOT_SPAN: &'static str;
    fn worker(&self) -> Self::Worker;
    /// Classify one request, once, on the event loop: its route, and
    /// the route's slot in [`TierTelemetry::endpoints`].
    fn route(&self, request: &Request) -> (Self::Route, usize);
    /// Whether the event loop may answer `route` itself instead of
    /// queueing it for a worker. While such a handler runs no other
    /// connection is served, so only a route that never blocks and
    /// does work bounded by its request's size qualifies. No route
    /// does by default.
    fn loop_safe(&self, _route: Self::Route) -> bool {
        false
    }
    /// Answer one classified request: on a worker thread, or on the
    /// event loop for a [`loop_safe`](Service::loop_safe) route.
    fn handle(&self, worker: &mut Self::Worker, route: Self::Route, request: &Request) -> Response;
    fn tier(&self) -> &TierTelemetry;
}

/// The instruments the reactor records for its service, registered
/// under the service's own metric names.
pub struct TierTelemetry {
    /// One per route slot.
    pub endpoints: Vec<EndpointTelemetry>,
    pub responses_2xx: Arc<Counter>,
    /// Every status outside 2xx and 5xx.
    pub responses_4xx: Arc<Counter>,
    pub responses_5xx: Arc<Counter>,
    pub connections_accepted: Arc<Counter>,
    /// Connections refused over `max_connections`, plus requests
    /// answered `503` because the ready-queue was full.
    pub connections_rejected: Arc<Counter>,
    pub connections_active: Arc<Gauge>,
    /// Hand-off latency: time from the event loop waking to read a
    /// request to its handler starting. A queued request waits here
    /// for a worker; one the loop answers itself waits only while the
    /// loop reads and parses after that wake. Separates tier wait from
    /// handler latency in `/metrics`.
    pub queue_wait: Arc<Histogram>,
}

/// One route's instruments.
pub struct EndpointTelemetry {
    /// The `endpoint` label value; also the op its traces are filed
    /// under.
    pub label: &'static str,
    pub requests: Arc<Counter>,
    /// The handler call alone; queue wait is in
    /// [`TierTelemetry::queue_wait`].
    pub latency: Arc<Histogram>,
}

impl Service for AppState {
    type Worker = ();
    type Route = Endpoint;
    const ROOT_SPAN: &'static str = "server.request.serve";

    fn worker(&self) {}

    fn route(&self, request: &Request) -> (Endpoint, usize) {
        let endpoint = Endpoint::classify(request);
        (endpoint, endpoint as usize)
    }

    /// Single and bulk price quotes only read a published generation
    /// under the campaign's `RwLock` and never solve. Everything else
    /// waits for a worker: `/healthz` walks every shard map, any
    /// observation may re-solve, and solves are the heavy work itself.
    fn loop_safe(&self, endpoint: Endpoint) -> bool {
        matches!(
            endpoint,
            Endpoint::CampaignPrice | Endpoint::CampaignsQuotes
        )
    }

    fn handle(&self, _: &mut (), endpoint: Endpoint, request: &Request) -> Response {
        router::dispatch(self, endpoint, request)
    }

    fn tier(&self) -> &TierTelemetry {
        &self.telemetry
    }
}

const LISTENER_TOKEN: u64 = 0;
const WAKE_TOKEN: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

/// How many epoll events one wait may deliver.
const EVENT_BATCH: usize = 256;

/// Per-read scratch size; reads loop until `WouldBlock` regardless.
const READ_CHUNK: usize = 16 * 1024;

/// After shutdown, connections that still cannot flush (a peer that
/// stopped reading, a handler still running) are force-dropped past
/// this grace so `serve()` returns promptly.
const DRAIN_GRACE: Duration = Duration::from_secs(5);

/// Largest body a loop-safe request may carry and still be answered on
/// the event loop; a larger one waits for a worker. This bounds how
/// long one request stalls every other connection: 8 KiB holds 208
/// bulk quote items, 3× ftbench's 2.5 KB 64-item body, and the node's
/// handler took 0.29 ms at p50 (0.33 ms at p99) on such a body against
/// 64 solved §5.2 campaigns (2-vCPU KVM guest). The request limit,
/// `MAX_BODY_BYTES`, is 1024× larger.
const LOOP_BODY_BYTES: usize = 8 * 1024;

/// How long the loop's own handler calls may run in one wake; once they
/// have, every further request of that wake goes to the workers. With
/// [`LOOP_BODY_BYTES`] this bounds the handler time of one wake at the
/// budget plus one call at the body bound (≈0.6 ms on the guest above),
/// not ready connections × handler time, and hands a busy wake's
/// remaining requests to the workers to answer in parallel. The first
/// loop-safe request of a wake always fits, and two 64-item bulk
/// quotes (≈0.1 ms each) fit together.
const LOOP_WAKE_BUDGET: Duration = Duration::from_micros(250);

/// One parsed, classified request on its way to its handler.
struct Job<R> {
    token: u64,
    seq: u64,
    route: R,
    /// The route's slot in [`TierTelemetry::endpoints`].
    slot: usize,
    request: Request,
    /// When the event loop woke to read the request.
    queued_at: Instant,
}

/// One finished response on its way back to the reactor.
struct Completion {
    token: u64,
    seq: u64,
    outbound: Outbound,
}

/// The bounded ready-queue between the reactor and the worker pool —
/// the same Mutex+Condvar shape the old connection queue had, but
/// holding parsed requests instead of raw sockets.
struct JobQueue<R> {
    inner: Mutex<JobsInner<R>>,
    not_empty: Condvar,
    capacity: usize,
}

struct JobsInner<R> {
    queue: std::collections::VecDeque<Job<R>>,
    closed: bool,
}

impl<R> JobQueue<R> {
    fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(JobsInner {
                queue: std::collections::VecDeque::with_capacity(capacity),
                closed: false,
            }),
            not_empty: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Enqueue unless full or closed; hands the job back on rejection
    /// so the reactor can answer 503 at the job's sequence slot.
    #[allow(clippy::result_large_err)] // rejection must return the whole job
    fn try_push(&self, job: Job<R>) -> Result<(), Job<R>> {
        // Poisoning policy (see ft-audit L5): a worker that panicked
        // while holding the queue lock must not cascade panics through
        // the serving tier — the queue is a VecDeque plus a flag, valid
        // after any partial update, so recover the guard and keep
        // serving.
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if inner.closed || inner.queue.len() >= self.capacity {
            return Err(job);
        }
        inner.queue.push_back(job);
        drop(inner);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Blocking pop; `None` only after `close()` *and* the queue has
    /// drained — already-parsed requests are answered, not dropped.
    fn pop(&self) -> Option<Job<R>> {
        // Poisoning policy: recover, as in `try_push`.
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(job) = inner.queue.pop_front() {
                return Some(job);
            }
            if inner.closed {
                return None;
            }
            inner = self
                .not_empty
                .wait(inner)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    fn close(&self) {
        // Poisoning policy: recover, as in `try_push`.
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).closed = true;
        self.not_empty.notify_all();
    }
}

/// A response waiting its turn in the connection's write order.
struct Outbound {
    response: Response,
    keep_alive: bool,
}

/// Per-connection state machine.
struct Conn {
    stream: TcpStream,
    /// Unparsed input bytes (already-consumed prefixes are drained).
    buf: Vec<u8>,
    /// Next sequence number to assign to a parsed request.
    next_seq: u64,
    /// Next sequence number to serialize into the write buffer.
    write_seq: u64,
    /// Finished responses waiting for their turn (sparse, tiny).
    pending: Vec<(u64, Outbound)>,
    write_buf: Vec<u8>,
    write_pos: usize,
    /// Idle deadline; `None` while requests are in flight.
    deadline: Option<Instant>,
    /// At least one response fully flushed (switches the idle deadline
    /// from the generous first-request timeout to the short keep-alive
    /// one).
    served_any: bool,
    /// No further requests will be parsed (Connection: close seen, an
    /// overflow/malformed answer queued, or shutdown).
    closing: bool,
    /// Close as soon as the write buffer drains.
    close_after_flush: bool,
    /// Peer sent EOF / RDHUP; drop once nothing is left to write.
    read_closed: bool,
}

impl Conn {
    fn new(stream: TcpStream, deadline: Instant) -> Self {
        Self {
            stream,
            buf: Vec::new(),
            next_seq: 0,
            write_seq: 0,
            pending: Vec::new(),
            write_buf: Vec::new(),
            write_pos: 0,
            deadline: Some(deadline),
            served_any: false,
            closing: false,
            close_after_flush: false,
            read_closed: false,
        }
    }

    /// No request awaiting a handler or a write.
    fn idle(&self) -> bool {
        self.next_seq == self.write_seq && self.write_pos >= self.write_buf.len()
    }
}

fn busy_response() -> Response {
    Response::error(503, "server_busy", "request queue full, retry")
}

fn malformed_response() -> Response {
    Response::error(400, "bad_request", "malformed HTTP request")
}

/// Answer an over-capacity connection with a quick 503 and close it.
/// The accepted socket is still blocking here; bound the write so a
/// client that won't read can't stall the event loop.
fn reject_busy(stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(100)));
    let mut writer = std::io::BufWriter::new(stream);
    let _ = write_response(&mut writer, &busy_response(), false);
}

/// What to do with a connection after an I/O step.
#[derive(PartialEq)]
enum Verdict {
    Keep,
    Drop,
}

/// Serve `service` on `listener` until `shutdown` is set (then poke
/// the listener with one connect so a parked wait notices). The
/// calling thread becomes the reactor; `config.workers` handler
/// threads are spawned scoped inside, each building its
/// [`Service::Worker`] once (total thread count: `1 + workers`).
pub fn serve<S: Service>(
    listener: TcpListener,
    service: &S,
    config: ServerConfig,
    shutdown: &AtomicBool,
) {
    let epoll = Epoll::new().expect("epoll_create1");
    listener
        .set_nonblocking(true)
        .expect("nonblocking listener");
    epoll
        .add(listener.as_raw_fd(), LISTENER_TOKEN, EPOLLIN)
        .expect("register listener");

    let (wake_rx, wake_tx) = UnixStream::pair().expect("wake pipe");
    wake_rx.set_nonblocking(true).expect("nonblocking wake");
    wake_tx.set_nonblocking(true).expect("nonblocking wake");
    epoll
        .add(wake_rx.as_raw_fd(), WAKE_TOKEN, EPOLLIN)
        .expect("register wake pipe");
    let wake_tx = Arc::new(wake_tx);

    let jobs = JobQueue::new(config.queue_depth);
    let completions: Arc<Mutex<Vec<Completion>>> = Arc::new(Mutex::new(Vec::new()));
    let workers = config.workers.max(1);

    std::thread::scope(|s| {
        for _ in 0..workers {
            let jobs = &jobs;
            let completions = Arc::clone(&completions);
            let wake = Arc::clone(&wake_tx);
            s.spawn(move || {
                let mut worker = Some(service.worker());
                while let Some(job) = jobs.pop() {
                    let outbound = answer(service, &mut worker, &job, shutdown);
                    completions
                        .lock()
                        // Poisoning policy (ft-audit L5): a panicking
                        // peer worker must not take the tier down; the
                        // Vec is valid after any partial push.
                        .unwrap_or_else(|e| e.into_inner())
                        .push(Completion {
                            token: job.token,
                            seq: job.seq,
                            outbound,
                        });
                    // Nonblocking one-byte poke; a full pipe already
                    // guarantees a pending wakeup.
                    let _ = (&*wake).write(&[1]);
                }
            });
        }

        let mut reactor = Reactor {
            service,
            epoll: &epoll,
            listener: &listener,
            config: &config,
            jobs: &jobs,
            shutdown,
            worker: None,
            loop_spent: Duration::ZERO,
            conns: HashMap::new(),
            next_token: FIRST_CONN_TOKEN,
            draining: false,
        };
        let mut events = [EpollEvent::zeroed(); EVENT_BATCH];

        loop {
            let timeout = reactor.wait_timeout();
            let n = epoll.wait(&mut events, timeout).unwrap_or_default();
            let now = Instant::now();
            reactor.loop_spent = Duration::ZERO;

            for event in &events[..n] {
                let (readiness, token) = event.readiness();
                match token {
                    LISTENER_TOKEN => reactor.accept_ready(now),
                    WAKE_TOKEN => {
                        let mut sink = [0u8; 64];
                        while matches!((&wake_rx).read(&mut sink), Ok(n) if n > 0) {}
                    }
                    token => reactor.conn_ready(token, readiness, now),
                }
            }

            // Poisoning policy: recover, as at the worker-side push.
            let finished =
                std::mem::take(&mut *completions.lock().unwrap_or_else(|e| e.into_inner()));
            for completion in finished {
                reactor.complete(completion, now);
            }

            // Checked after the events, not before them: a client that
            // read an answer the loop wrote while still accepting can set
            // the flag and connect its shutdown poke before the accept
            // loop ends, and that loop then takes the poke, which no
            // later wait would report.
            // ORDERING: Acquire pairs with the Release store of whoever
            // sets `shutdown` (same pairing as the load in `answer`).
            if shutdown.load(Ordering::Acquire) && !reactor.draining {
                reactor.begin_drain(now);
                jobs.close();
            }

            reactor.expire(now);

            if reactor.draining && reactor.conns.is_empty() {
                break;
            }
        }
    });
}

/// The request envelope, the one place a request is recorded, on a
/// worker and on the event loop alike: record the hand-off wait, open
/// the root span, time the handler call alone, bump the endpoint's
/// counter and latency histogram, count the status class, and echo the
/// trace id. A panicking handler answers `500`, and the caller's
/// `worker` state, which the panic may have left half-updated, is
/// rebuilt for its next request; the thread serves on.
fn answer<S: Service>(
    service: &S,
    worker: &mut Option<S::Worker>,
    job: &Job<S::Route>,
    shutdown: &AtomicBool,
) -> Outbound {
    let tier = service.tier();
    let queue_wait = job.queued_at.elapsed();
    tier.queue_wait.record_duration(queue_wait);
    let endpoint = &tier.endpoints[job.slot];
    // Trace when the client asked for it (x-ft-trace) or on the organic
    // 1-in-1024 sample. The root span is backdated to when the loop woke
    // to read the request, so the tier hand-off shows up as a
    // `queue_wait` child instead of vanishing between spans, and its
    // trace is filed under the endpoint's label.
    let trace_id = job
        .request
        .trace
        .or_else(|| ft_trace::sample(1024).then(ft_trace::next_trace_id));
    let dequeued_ns = ft_trace::now_ns();
    let queued_ns =
        dequeued_ns.saturating_sub(u64::try_from(queue_wait.as_nanos()).unwrap_or(u64::MAX));
    let root = ft_trace::begin_at(
        trace_id.unwrap_or(0),
        S::ROOT_SPAN,
        endpoint.label,
        queued_ns,
    );
    ft_trace::record("server.reactor.queue_wait", queued_ns, dequeued_ns);
    let state = worker.get_or_insert_with(|| service.worker());
    let started = Instant::now();
    let mut response = panic::catch_unwind(AssertUnwindSafe(|| {
        service.handle(state, job.route, &job.request)
    }))
    .unwrap_or_else(|_| {
        *worker = None;
        Response::error(500, "internal_error", "request handler panicked")
    });
    let elapsed = started.elapsed();
    drop(root);
    endpoint.requests.inc();
    endpoint.latency.record_duration(elapsed);
    if let Some(trace_id) = trace_id {
        // The traced tail becomes the histogram's exemplar, so
        // `/metrics` points at an openable trace.
        let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        endpoint.latency.offer_exemplar(ns, trace_id);
    }
    match response.status {
        200..=299 => tier.responses_2xx.inc(),
        500..=599 => tier.responses_5xx.inc(),
        _ => tier.responses_4xx.inc(),
    }
    // Echo the client's trace id, or the sampled one, so the caller can
    // fetch the span tree (propagation is a wire contract).
    response.trace = trace_id;
    // During shutdown, answer the request in hand but decline the
    // keep-alive so the connection closes.
    // ORDERING: Acquire pairs with the Release store in
    // `ServerHandle::shutdown` — seeing the flag also sees any state the
    // shutdown caller settled first.
    let keep_alive = job.request.keep_alive && !shutdown.load(Ordering::Acquire);
    Outbound {
        response,
        keep_alive,
    }
}

struct Reactor<'a, S: Service> {
    service: &'a S,
    epoll: &'a Epoll,
    listener: &'a TcpListener,
    config: &'a ServerConfig,
    jobs: &'a JobQueue<S::Route>,
    shutdown: &'a AtomicBool,
    /// The loop's own handler state, built at its first loop-safe
    /// request.
    worker: Option<S::Worker>,
    /// Time spent answering on the loop in this wake.
    loop_spent: Duration,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    draining: bool,
}

impl<S: Service> Reactor<'_, S> {
    /// Sleep until the nearest idle deadline (the shutdown poke and the
    /// worker wake pipe interrupt an indefinite wait).
    fn wait_timeout(&self) -> Option<Duration> {
        let nearest = self.conns.values().filter_map(|c| c.deadline).min()?;
        Some(nearest.saturating_duration_since(Instant::now()))
    }

    /// Shutdown observed: stop accepting, close idle connections now,
    /// and give the rest a short grace to flush in-flight responses.
    fn begin_drain(&mut self, now: Instant) {
        self.draining = true;
        let _ = self.epoll.delete(self.listener.as_raw_fd());
        let grace = now + DRAIN_GRACE;
        let mut gone = Vec::new();
        for (&token, conn) in self.conns.iter_mut() {
            conn.closing = true;
            if conn.idle() {
                gone.push(token);
            } else {
                conn.deadline = Some(grace);
            }
        }
        for token in gone {
            self.drop_conn(token);
        }
    }

    fn accept_ready(&mut self, now: Instant) {
        if self.draining {
            return;
        }
        loop {
            let stream = match self.listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(_) => {
                    // Transient accept errors (EMFILE under floods,
                    // ECONNABORTED) must not busy-spin the loop.
                    std::thread::sleep(Duration::from_millis(20));
                    break;
                }
            };
            self.service.tier().connections_accepted.inc();
            if self.conns.len() >= self.config.max_connections {
                self.service.tier().connections_rejected.inc();
                reject_busy(stream);
                continue;
            }
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            // Small request/response exchanges on warm keep-alive
            // connections stall ~40ms under Nagle + delayed ACK;
            // latency matters more than segment coalescing here.
            let _ = stream.set_nodelay(true);
            let token = self.next_token;
            self.next_token += 1;
            if self
                .epoll
                .add(
                    stream.as_raw_fd(),
                    token,
                    EPOLLIN | EPOLLOUT | EPOLLET | EPOLLRDHUP,
                )
                .is_err()
            {
                continue;
            }
            self.service.tier().connections_active.inc();
            self.conns.insert(
                token,
                Conn::new(stream, now + self.config.first_request_timeout),
            );
            // Edge-triggered: bytes that raced the registration may
            // never re-edge; drain once immediately.
            self.conn_ready(token, EPOLLIN, now);
        }
    }

    fn conn_ready(&mut self, token: u64, readiness: u32, now: Instant) {
        if !self.conns.contains_key(&token) {
            return;
        }
        if readiness & (EPOLLERR | EPOLLHUP) != 0 {
            self.drop_conn(token);
            return;
        }
        if readiness & (EPOLLIN | EPOLLRDHUP) != 0
            && self.read_and_parse(token, now) == Verdict::Drop
        {
            self.drop_conn(token);
            return;
        }
        // Write what is ready (the rest of a buffer on EPOLLOUT, or an
        // answer the loop just made) and apply the connection's
        // post-write fate, so a loop-written answer re-arms the
        // keep-alive deadline too.
        self.after_write(token, now);
    }

    /// Drain the socket, feed the parser, and answer or queue each
    /// parsed request.
    fn read_and_parse(&mut self, token: u64, now: Instant) -> Verdict {
        let conn = self.conns.get_mut(&token).expect("conn present");
        if !conn.closing {
            let mut scratch = [0u8; READ_CHUNK];
            loop {
                match (&conn.stream).read(&mut scratch) {
                    Ok(0) => {
                        conn.read_closed = true;
                        break;
                    }
                    Ok(n) => conn.buf.extend_from_slice(&scratch[..n]),
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => return Verdict::Drop,
                }
            }
            let first_seq = conn.next_seq;
            while !conn.closing {
                match parse_request(&conn.buf) {
                    Ok(Some((request, consumed))) => {
                        conn.buf.drain(..consumed);
                        // Earlier requests on this connection still
                        // waiting for a handler (answered ones sit in
                        // `pending` or have been written).
                        let unanswered = conn.next_seq - conn.write_seq - conn.pending.len() as u64;
                        let seq = conn.next_seq;
                        conn.next_seq += 1;
                        if !request.keep_alive {
                            conn.closing = true;
                        }
                        let (route, slot) = self.service.route(&request);
                        let job = Job {
                            token,
                            seq,
                            route,
                            slot,
                            request,
                            queued_at: now,
                        };
                        // The loop answers at most one request per
                        // connection per pass, in order, and small, and
                        // only while its wake's handler budget lasts:
                        // its stall on every other connection stays
                        // bounded.
                        if seq == first_seq
                            && unanswered == 0
                            && job.request.body.len() <= LOOP_BODY_BYTES
                            && self.service.loop_safe(route)
                            && self.loop_spent < LOOP_WAKE_BUDGET
                        {
                            let started = Instant::now();
                            let outbound =
                                answer(self.service, &mut self.worker, &job, self.shutdown);
                            self.loop_spent += started.elapsed();
                            conn.pending.push((seq, outbound));
                        } else if let Err(job) = self.jobs.try_push(job) {
                            // Ready-queue full: the bounded-in-flight
                            // contract answers 503 at this request's
                            // slot and closes the connection after the
                            // in-order flush.
                            self.service.tier().connections_rejected.inc();
                            conn.pending.push((
                                job.seq,
                                Outbound {
                                    response: busy_response(),
                                    keep_alive: false,
                                },
                            ));
                            conn.closing = true;
                        }
                    }
                    Ok(None) => break,
                    Err(_) => {
                        let seq = conn.next_seq;
                        conn.next_seq += 1;
                        conn.pending.push((
                            seq,
                            Outbound {
                                response: malformed_response(),
                                keep_alive: false,
                            },
                        ));
                        conn.closing = true;
                    }
                }
            }
        }
        // Peer half-closed with nothing left to answer: done.
        if conn.read_closed && conn.idle() && conn.pending.is_empty() {
            return Verdict::Drop;
        }
        // Deadline bookkeeping: suspended while requests are in
        // flight, refreshed whenever bytes arrive on an idle
        // connection (a slow sender gets a full window per burst, the
        // same allowance the blocking tier's per-read timeout gave).
        if conn.idle() && conn.pending.is_empty() {
            conn.deadline = Some(
                now + if conn.served_any {
                    self.config.keep_alive_timeout
                } else {
                    self.config.first_request_timeout
                },
            );
        } else {
            conn.deadline = None;
        }
        Verdict::Keep
    }

    /// A worker finished `completion`: slot it into its connection's
    /// write order and flush whatever became contiguous.
    fn complete(&mut self, completion: Completion, now: Instant) {
        let Some(conn) = self.conns.get_mut(&completion.token) else {
            return; // connection already dropped (timeout, error, drain)
        };
        conn.pending.push((completion.seq, completion.outbound));
        self.after_write(completion.token, now);
    }

    /// Serialize + write as much as the socket takes, then apply the
    /// connection's post-write fate (close, or re-arm the idle
    /// deadline).
    fn after_write(&mut self, token: u64, now: Instant) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if Self::flush(conn) == Verdict::Drop {
            self.drop_conn(token);
            return;
        }
        let conn = self.conns.get_mut(&token).expect("conn still present");
        if conn.write_pos >= conn.write_buf.len() {
            if conn.close_after_flush || (conn.idle() && (conn.closing || conn.read_closed)) {
                self.drop_conn(token);
                return;
            }
            // Only a connection that actually had a response flushed
            // graduates to the keep-alive deadline: fresh sockets get a
            // spurious EPOLLOUT (writable on arrival) that lands here
            // with nothing ever served, and those must keep their
            // first-request deadline.
            if conn.idle() && conn.write_seq > 0 {
                conn.served_any = true;
                conn.deadline = Some(now + self.config.keep_alive_timeout);
            }
        }
    }

    /// The write pump: alternate between pushing the current buffer
    /// into the socket and serializing the next in-order response.
    fn flush(conn: &mut Conn) -> Verdict {
        loop {
            if conn.write_pos < conn.write_buf.len() {
                match (&conn.stream).write(&conn.write_buf[conn.write_pos..]) {
                    Ok(0) => return Verdict::Drop,
                    Ok(n) => conn.write_pos += n,
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Verdict::Keep,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => return Verdict::Drop,
                }
            } else {
                conn.write_buf.clear();
                conn.write_pos = 0;
                if conn.close_after_flush {
                    return Verdict::Keep; // after_write drops it
                }
                let Some(i) = conn
                    .pending
                    .iter()
                    .position(|(seq, _)| *seq == conn.write_seq)
                else {
                    return Verdict::Keep;
                };
                let (_, outbound) = conn.pending.swap_remove(i);
                write_response(&mut conn.write_buf, &outbound.response, outbound.keep_alive)
                    .expect("serialize into Vec");
                conn.write_seq += 1;
                if !outbound.keep_alive {
                    conn.closing = true;
                    conn.close_after_flush = true;
                }
                // A flushed response whose generation marked the
                // connection as served switches future idle windows to
                // the short keep-alive deadline (handled in
                // after_write once the bytes are out).
            }
        }
    }

    /// Drop connections idle past their deadline (and, while draining,
    /// stragglers past the grace) without an answer.
    fn expire(&mut self, now: Instant) {
        let expired: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, conn)| conn.deadline.is_some_and(|d| d <= now))
            .map(|(&token, _)| token)
            .collect();
        for token in expired {
            self.drop_conn(token);
        }
    }

    fn drop_conn(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            let _ = self.epoll.delete(conn.stream.as_raw_fd());
            self.service.tier().connections_active.dec();
        }
    }
}
