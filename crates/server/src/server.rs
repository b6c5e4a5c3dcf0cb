//! The TCP front: a single **epoll reactor** thread multiplexing every
//! connection, answering loop-safe requests (the node's price quotes)
//! itself and feeding every other one to a fixed pool of handler
//! threads through a bounded ready-queue of parsed requests (std only
//! — no async runtime is available offline; see `reactor.rs` for the
//! event loop and `sys.rs` for the raw epoll bindings).
//!
//! Two designs preceded this one. Thread-per-connection meant a
//! connection flood grew the thread count without bound. The blocking
//! acceptor pool that replaced it fixed the thread count at
//! `1 + workers` but couldn't multiplex idle sockets: an idle
//! keep-alive client pinned a worker between requests, so keep-alive
//! idle windows had to stay short and every parked worker was capacity
//! lost. The reactor keeps the same thread count — one event-loop
//! thread plus `workers` handlers — while idle connections cost a
//! registered fd, not a thread, and a keep-alive client may pipeline
//! requests (responses come back in order). `ft-router` serves on this
//! same reactor, as a [`crate::Service`] bound with
//! [`Server::bind_service`], and starts through the same
//! [`Server::start`]: that one thread per tier, the reactor, is the
//! only thread either tier spawns outside the reactor's scoped workers.
//!
//! The overload contract is unchanged: requests waiting for or held by
//! a worker are bounded by `workers + queue_depth`, and a request that
//! finds the ready-queue full is answered `503 server_busy`. A request
//! the loop answers itself never enters the queue: the loop finishes
//! it before reading further, so at most one such request is in flight
//! at a time, on top of that bound. `ft-load`'s flood phase and
//! `tests/flood.rs` exercise exactly this. Connection accounting flows
//! into the shared metrics plane
//! (`ft_server_connections_{accepted,rejected}_total`,
//! `ft_server_connections_active`), and the hand-off latency from the
//! loop's wake to the handler's start is measured as
//! `ft_server_queue_wait_ns`; for a request the loop answers it covers
//! only the loop's own reading and parsing.

use crate::reactor::{self, Service};
use crate::state::AppState;
use ft_core::registry::CampaignRegistry;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Sizing and timeouts for the serving tier.
///
/// Handler threads are I/O-facing: the compute inside a request (a
/// campaign solve) dispatches onto the shared persistent `ft-exec`
/// pool rather than spawning its own threads, so `workers` HTTP
/// handlers never multiply into `workers × cores` solver threads. The
/// default sizing reads `ft_exec::available_threads()` — the same
/// `FT_EXEC_THREADS`-governed budget the pool uses — so one knob
/// bounds both sides and the handlers don't fight the pool for it.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Handler threads for every request the event loop does not answer
    /// itself (it answers only loop-safe routes: the node's price
    /// quotes). The server's total thread count is `workers + 1` (the
    /// reactor) plus the shared `ft-exec` pool, regardless of how many
    /// clients connect.
    pub workers: usize,
    /// Parsed requests allowed to wait for a free worker before
    /// further requests are answered `503`. Together with `workers`
    /// this bounds the requests in flight.
    pub queue_depth: usize,
    /// Open connections the reactor will hold at once; connections
    /// accepted beyond this are answered `503` immediately (an fd
    /// budget, far above `queue_depth` by default — requests, not
    /// connections, are the contended resource now).
    pub max_connections: usize,
    /// How long the *first* request on a connection may take to arrive
    /// (slow-client allowance). The window restarts whenever bytes
    /// arrive, so a trickling sender is bounded per burst, not
    /// end-to-end.
    pub first_request_timeout: Duration,
    /// How long an established keep-alive connection may sit silent
    /// between requests. An idle connection costs only an fd under the
    /// reactor, but idle-forever sockets still leak fds — this bounds
    /// them.
    pub keep_alive_timeout: Duration,
    /// Freshness bound for histogram quantiles in `GET /metrics`
    /// exports: within this window, repeated scrapes reuse each
    /// histogram's merged snapshot instead of re-walking every shard
    /// bucket (counters and gauges always read live). Zero disables
    /// the cache; the default (250 ms) bounds the cost of several
    /// concurrent collectors without visible staleness at human or
    /// scraper timescales.
    pub metrics_export_cache: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: ft_exec::available_threads().clamp(2, 16),
            queue_depth: 128,
            max_connections: 4096,
            first_request_timeout: Duration::from_secs(30),
            keep_alive_timeout: Duration::from_secs(5),
            metrics_export_cache: Duration::from_millis(250),
        }
    }
}

/// A [`Service`] bound to a socket, not yet serving: a node (the
/// default, serving [`AppState`]) or, with any other service, another
/// tier on the same reactor (`ft-router` binds its fleet this way).
pub struct Server<S = AppState> {
    listener: TcpListener,
    service: Arc<S>,
    config: ServerConfig,
    shutdown: Arc<AtomicBool>,
}

/// Remote control for a running server: its bound address and a
/// shutdown trigger.
#[derive(Clone)]
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
}

impl ServerHandle {
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Ask the reactor to exit; idempotent. Returns once the flag is
    /// set (the loop notices on its next wakeup).
    pub fn shutdown(&self) {
        // ORDERING: Release pairs with the Acquire loads in
        // `reactor::serve` and its workers — whatever the caller
        // settled before asking for shutdown is visible to the drain
        // path.
        self.shutdown.store(true, Ordering::Release);
        // Poke the listener so a parked epoll_wait wakes up.
        let _ = TcpStream::connect(self.addr);
    }
}

impl Server {
    /// Bind a node to `addr` (use port 0 for an ephemeral port).
    pub fn bind_with<A: ToSocketAddrs>(
        addr: A,
        registry: Arc<CampaignRegistry>,
        config: ServerConfig,
    ) -> io::Result<Self> {
        registry
            .metrics()
            .set_export_cache_ttl(config.metrics_export_cache);
        Self::bind_service(addr, Arc::new(AppState::new(registry)), config)
    }

    /// Bind a node and [`start`](Server::start) it.
    pub fn spawn<A: ToSocketAddrs>(
        addr: A,
        registry: Arc<CampaignRegistry>,
    ) -> io::Result<(ServerHandle, JoinHandle<()>)> {
        Self::spawn_with(addr, registry, ServerConfig::default())
    }

    /// [`Server::spawn`] with explicit sizing.
    pub fn spawn_with<A: ToSocketAddrs>(
        addr: A,
        registry: Arc<CampaignRegistry>,
        config: ServerConfig,
    ) -> io::Result<(ServerHandle, JoinHandle<()>)> {
        Ok(Self::bind_with(addr, registry, config)?.start())
    }
}

impl<S: Service> Server<S> {
    /// Bind `service` to `addr` with explicit sizing.
    pub fn bind_service<A: ToSocketAddrs>(
        addr: A,
        service: Arc<S>,
        config: ServerConfig,
    ) -> io::Result<Self> {
        Ok(Self {
            listener: TcpListener::bind(addr)?,
            service,
            config,
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr().expect("listener has an address")
    }

    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            addr: self.local_addr(),
            shutdown: Arc::clone(&self.shutdown),
        }
    }

    /// Serve until [`ServerHandle::shutdown`] is called. The calling
    /// thread becomes the event loop; `config.workers` handler threads
    /// are spawned scoped inside. Returns after every already-parsed
    /// request has been answered — promptly: on shutdown the reactor
    /// stops accepting, drops idle keep-alive connections immediately,
    /// flushes in-flight responses, and force-drops stragglers after a
    /// short grace.
    pub fn serve(self) {
        reactor::serve(self.listener, &*self.service, self.config, &self.shutdown);
    }

    /// [`serve`](Server::serve) on a background thread; returns the
    /// handle and the serving thread (join it after `shutdown()` for a
    /// clean exit). Every tier that serves in the background starts
    /// here.
    pub fn start(self) -> (ServerHandle, JoinHandle<()>)
    where
        S: Send + 'static,
    {
        let handle = self.handle();
        let join = std::thread::spawn(move || self.serve());
        (handle, join)
    }
}
