//! The router's own metrics plane — same instruments and naming
//! grammar as the serving tier (`ft_router_*`), kept in a dedicated
//! [`MetricsRegistry`] so the merged fleet export can overlay it onto
//! the summed per-node planes without name collisions.

use crate::proxy::Route;
use ft_metrics::{Counter, Gauge, MetricsRegistry};
use ft_server::{EndpointTelemetry, TierTelemetry};
use std::sync::Arc;

/// Pre-resolved instruments: the reactor's, one endpoint slot per
/// [`Route`], plus the fleet's own counters.
pub struct RouterTelemetry {
    metrics: Arc<MetricsRegistry>,
    /// Proxy sends retried after a failover re-route.
    pub retries: Arc<Counter>,
    /// Unplanned node failovers (connection failure → ring flip).
    pub failovers: Arc<Counter>,
    /// Campaign snapshots restored onto a new owner (failover or
    /// planned drain).
    pub restores: Arc<Counter>,
    /// Requests refused with a retryable 503 (drain window, no
    /// backends alive).
    pub rejects: Arc<Counter>,
    /// Backends currently routable.
    pub nodes_alive: Arc<Gauge>,
    /// Per-endpoint requests and latency, status classes, connection
    /// accounting and ready-queue wait, recorded by the reactor the
    /// router serves on.
    pub tier: TierTelemetry,
}

impl RouterTelemetry {
    pub fn new() -> Self {
        let metrics = Arc::new(MetricsRegistry::new());
        let endpoints = Route::all()
            .map(|route| EndpointTelemetry {
                label: route.label(),
                requests: metrics.counter(&format!(
                    "ft_router_requests_total{{endpoint=\"{}\"}}",
                    route.label()
                )),
                latency: metrics.histogram(&format!(
                    "ft_router_request_ns{{endpoint=\"{}\"}}",
                    route.label()
                )),
            })
            .collect();
        Self {
            retries: metrics.counter("ft_router_retries_total"),
            failovers: metrics.counter("ft_router_failovers_total"),
            restores: metrics.counter("ft_router_restores_total"),
            rejects: metrics.counter("ft_router_rejects_total"),
            nodes_alive: metrics.gauge("ft_router_nodes_alive"),
            tier: TierTelemetry {
                endpoints,
                responses_2xx: metrics.counter("ft_router_responses_total{class=\"2xx\"}"),
                responses_4xx: metrics.counter("ft_router_responses_total{class=\"4xx\"}"),
                responses_5xx: metrics.counter("ft_router_responses_total{class=\"5xx\"}"),
                connections_accepted: metrics.counter("ft_router_connections_accepted_total"),
                connections_rejected: metrics.counter("ft_router_connections_rejected_total"),
                connections_active: metrics.gauge("ft_router_connections_active"),
                queue_wait: metrics.histogram("ft_router_queue_wait_ns"),
            },
            metrics,
        }
    }

    pub fn registry(&self) -> &MetricsRegistry {
        &self.metrics
    }
}

impl Default for RouterTelemetry {
    fn default() -> Self {
        Self::new()
    }
}
