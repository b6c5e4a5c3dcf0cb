//! # ft-server
//!
//! A std-only HTTP/1.1 JSON front-end for the campaign lifecycle
//! registry ([`ft_core::registry::CampaignRegistry`]) — the network
//! serving layer the ROADMAP's production north-star asks for. No
//! third-party networking stack: a nonblocking `TcpListener` on a
//! hand-rolled epoll event loop, an incremental
//! request/response codec ([`http`]), and a
//! router ([`router`]) that maps the REST surface onto the registry:
//!
//! ```text
//! POST   /campaigns                    register a draft (JSON spec)
//! GET    /campaigns?limit=..           fleet index (id, kind, status, generation)
//! POST   /campaigns/quotes             bulk: N price quotes, one round trip
//! POST   /campaigns/observations       bulk: N observations, one round trip
//! POST   /campaigns/{id}/solve         solve → publish generation 1
//! GET    /campaigns/{id}/price?...     quote from the live generation
//! POST   /campaigns/{id}/observations  report completions → recalibrate
//! GET    /campaigns/{id}               status + diagnostics
//! DELETE /campaigns/{id}               evict (tombstone)
//! GET    /healthz                      uptime, version, fleet by status
//! GET    /metrics                      observability plane (JSON / Prometheus)
//! ```
//!
//! Serving runs on an **epoll reactor** (`reactor.rs`, over the raw
//! bindings in `sys.rs`): one event-loop thread multiplexes every
//! connection with nonblocking I/O, parses requests incrementally
//! ([`http::parse_request`], the only request parser) and classifies
//! each once. The loop answers a route its service marks
//! [`Service::loop_safe`] itself, one small request per connection per
//! read pass and only within a per-wake time budget; the node marks
//! its single and bulk price quotes, which read a published generation
//! and never solve. Every other request
//! goes through a bounded ready-queue to `ServerConfig::workers`
//! handler threads — so solves, observations and anything that may
//! block stay off the event loop, idle keep-alive connections cost an
//! fd instead of a thread, and a client may pipeline requests
//! (responses return in order). When the ready-queue is full further
//! requests are answered `503 server_busy` instead of growing the
//! thread count. The reactor serves any [`Service`] through [`serve`]:
//! the node's [`AppState`], and `ft-router`'s fleet, so both tiers
//! share one event loop, one parser, one overload contract and one
//! request envelope. One function records every request of either
//! tier, on a worker or on the loop, into the service's
//! [`TierTelemetry`] (per-endpoint counts and handler latency, status
//! classes, connection accounting, hand-off wait), opens its root span
//! and echoes its trace id; a node's instruments live in the
//! registry's metrics plane, which `GET /metrics` exports alongside
//! the registry's own. Both tiers start through [`Server::start`],
//! which returns a [`ServerHandle`].
//!
//! Structured [`ft_core::PricingError`]s map onto HTTP statuses
//! ([`router::status_for`]): unknown campaign → 404, draft/evicted →
//! 409, infeasible state → 422, malformed specs → 400.
//!
//! The server shares its registry behind an `Arc`, so an embedder can
//! snapshot (`registry.save(..)`) or restore
//! (`CampaignRegistry::load(..)`) around restarts; live campaigns come
//! back at the same policy generation without re-solving. See
//! `examples/http_server.rs` for the end-to-end walkthrough and
//! `tests/lifecycle.rs` for the full lifecycle driven over a real
//! socket.

pub mod client;
pub mod http;
mod reactor;
pub mod router;
pub mod server;
pub mod state;
mod sys;

pub use client::Client;
pub use reactor::{serve, EndpointTelemetry, Service, TierTelemetry};
pub use router::{handle, status_for, MAX_BULK_ITEMS};
pub use server::{Server, ServerConfig, ServerHandle};
pub use state::{AppState, Endpoint};
