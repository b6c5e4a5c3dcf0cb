//! The router's serving loop: `ft-server`'s epoll reactor, serving the
//! [`Fleet`].
//!
//! One reactor thread multiplexes every client connection and hands
//! parsed requests to `workers` handler threads, exactly as on a node:
//! the same parser, deadlines and overload contract (`503 server_busy`
//! past `workers + queue_depth` requests in flight). Each worker owns
//! one keep-alive [`Connections`] set to the backends, so backend
//! connection state is per-thread and needs no locking. Shutdown is the
//! node's idiom: flip an `AtomicBool`, then connect once to wake the
//! reactor.

use crate::fleet::Fleet;
use crate::proxy::{self, Connections};
use ft_server::http::{Request, Response};
use ft_server::{ServerConfig, Service, TierTelemetry};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Handler threads. Each holds one keep-alive connection per
    /// backend, so the fleet sees at most `workers × nodes` proxy
    /// connections.
    pub workers: usize,
    /// Virtual points per node on the placement ring.
    pub replicas: usize,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            workers: 16,
            replicas: crate::ring::DEFAULT_REPLICAS,
        }
    }
}

impl Service for Fleet {
    type Worker = Connections;
    const ROOT_SPAN: &'static str = "router.request.serve";

    fn worker(&self) -> Connections {
        Connections::new(self.backends())
    }

    fn handle(&self, conns: &mut Connections, request: &Request) -> Response {
        proxy::handle(self, conns, request)
    }

    fn tier(&self) -> &TierTelemetry {
        &self.telemetry.tier
    }
}

pub struct Router {
    listener: TcpListener,
    addr: SocketAddr,
    fleet: Arc<Fleet>,
    config: RouterConfig,
}

/// Handle returned by [`Router::spawn`]; dropping it does **not** stop
/// the router — call [`RouterHandle::shutdown`].
pub struct RouterHandle {
    addr: SocketAddr,
    fleet: Arc<Fleet>,
    stop: Arc<AtomicBool>,
}

impl RouterHandle {
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn fleet(&self) -> &Arc<Fleet> {
        &self.fleet
    }

    /// Stop accepting and wake the reactor. Idempotent.
    pub fn shutdown(&self) {
        // ORDERING: Release pairs with the Acquire loads in
        // `ft_server::serve` — the reactor and its workers observe
        // everything settled before shutdown was requested.
        self.stop.store(true, Ordering::Release);
        let _ = TcpStream::connect(self.addr);
    }
}

impl Router {
    pub fn bind(addr: &str, backends: Vec<SocketAddr>, config: RouterConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let fleet = Arc::new(Fleet::new(backends, config.replicas));
        Ok(Self {
            listener,
            addr,
            fleet,
            config,
        })
    }

    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn fleet(&self) -> &Arc<Fleet> {
        &self.fleet
    }

    /// Serve until [`RouterHandle::shutdown`]; returns the handle and
    /// a join handle that resolves once the reactor has drained.
    pub fn spawn(self) -> io::Result<(RouterHandle, std::thread::JoinHandle<()>)> {
        let stop = Arc::new(AtomicBool::new(false));
        let handle = RouterHandle {
            addr: self.addr,
            fleet: Arc::clone(&self.fleet),
            stop: Arc::clone(&stop),
        };
        let config = ServerConfig {
            workers: self.config.workers,
            ..ServerConfig::default()
        };
        let join = std::thread::Builder::new()
            .name("ft-router".into())
            .spawn(move || ft_server::serve(self.listener, &*self.fleet, config, &stop))?;
        Ok((handle, join))
    }

    /// Serve until the process exits, blocking the calling thread (the
    /// binary's entry point).
    pub fn serve(self) -> io::Result<()> {
        let (_, join) = self.spawn()?;
        join.join()
            .map_err(|_| io::Error::other("router reactor panicked"))
    }
}
