//! The router's serving loop: `ft-server`'s epoll reactor, serving the
//! [`Fleet`].
//!
//! [`bind`] returns an ft-server [`Server`] whose service is the fleet,
//! so the router serves and starts exactly as a node does:
//! [`Server::serve`] on the calling thread, or [`Server::start`] on a
//! background thread with a [`ft_server::ServerHandle`] to stop it. One
//! reactor thread multiplexes every client connection and hands parsed
//! requests to `workers` handler threads: the same parser, deadlines
//! and overload contract (`503 server_busy` past `workers +
//! queue_depth` requests in flight), and the same per-request
//! recording, under the router's `ft_router_*` names. Each worker owns
//! one keep-alive [`Connections`] set to the backends, so backend
//! connection state is per-thread and needs no locking. The fleet marks
//! no route [`Service::loop_safe`]: every handler blocks on a backend
//! socket, so every request waits for a worker.

use crate::fleet::Fleet;
use crate::proxy::{self, Connections, Route};
use ft_server::http::{Request, Response};
use ft_server::{Server, ServerConfig, Service, TierTelemetry};
use std::io;
use std::net::SocketAddr;
use std::sync::Arc;

#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Handler threads. Each holds one keep-alive connection per
    /// backend, so the fleet sees at most `workers × nodes` proxy
    /// connections.
    pub workers: usize,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self { workers: 16 }
    }
}

impl Service for Fleet {
    type Worker = Connections;
    type Route = Route;
    const ROOT_SPAN: &'static str = "router.request.serve";

    fn worker(&self) -> Connections {
        Connections::new(self.backends())
    }

    fn route(&self, request: &Request) -> (Route, usize) {
        let route = Route::classify(request);
        (route, route.slot())
    }

    fn handle(&self, conns: &mut Connections, route: Route, request: &Request) -> Response {
        proxy::handle(self, conns, route, request)
    }

    fn tier(&self) -> &TierTelemetry {
        &self.telemetry.tier
    }
}

/// Bind a router over `backends` to `addr` (port 0 for an ephemeral
/// port), not yet serving.
pub fn bind(
    addr: &str,
    backends: Vec<SocketAddr>,
    config: RouterConfig,
) -> io::Result<Server<Fleet>> {
    let config = ServerConfig {
        workers: config.workers,
        ..ServerConfig::default()
    };
    Server::bind_service(addr, Arc::new(Fleet::new(backends)), config)
}
