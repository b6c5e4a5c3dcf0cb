//! # ft-router — consistent-hash scale-out over N `ft-server` nodes
//!
//! A std-only HTTP front tier that makes a fleet of [`ft_server`]
//! backends answer like one node:
//!
//! - **Placement** ([`ring`]): campaigns live on exactly one backend,
//!   chosen by a consistent-hash ring with virtual nodes (the
//!   registry's multiplicative hash). Membership changes move only the
//!   dead node's share of the keyspace.
//! - **Membership + migration** ([`fleet`]): a planned drain freezes a
//!   node's mutations, snapshots every campaign **at its exact
//!   generation** (the v2 persistence format), restores each onto its
//!   new owner, and flips the ring — no torn generation, no lost
//!   campaign. An unplanned failover flips first and restores from the
//!   router's checkpoint cache.
//! - **Proxying + merging** ([`proxy`]): by-id routes proxy to the
//!   owner with failover retry; `GET /campaigns` and `GET /metrics`
//!   fan out to all nodes and merge (counters summed, histograms
//!   merged bucket-exact); bulk quote/observation bodies split by
//!   owner and reassemble in input order; `x-ft-trace` ids propagate
//!   end to end and `GET /trace/{id}` stitches the per-process span
//!   trees into one tree.
//! - **Serving** ([`server`]): [`bind`] returns an ft-server
//!   [`ft_server::Server`] with the [`Fleet`] as its service, started
//!   and stopped exactly as a node is. The node's reactor parses,
//!   queues and records every request: the same parser, idle
//!   deadlines, `503 server_busy` overload contract and per-endpoint
//!   instruments (here `ft_router_*`, status classes included) as a
//!   node, and one backend connection set per worker thread.
//!
//! The router adds two routes of its own: `GET /fleet` (membership
//! rows) and `POST /fleet/drain?node=N` (planned migration). Node
//! admin routes (`/admin/drain`, `/campaigns/restore`) are refused at
//! the router — the fleet owns that choreography.

pub mod fleet;
pub mod proxy;
pub mod ring;
pub mod server;
pub mod telemetry;

pub use fleet::Fleet;
pub use proxy::Route;
pub use ring::{Ring, REPLICAS};
pub use server::{bind, RouterConfig};
