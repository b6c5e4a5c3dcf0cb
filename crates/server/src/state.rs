//! Shared per-server state: the registry handle, start time, and the
//! HTTP layer's pre-resolved instruments in the same metrics plane the
//! registry reports into (so one `GET /metrics` covers both).

use crate::http::Request;
use crate::reactor::{EndpointTelemetry, TierTelemetry};
use ft_core::registry::CampaignRegistry;
use ft_metrics::MetricsRegistry;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The routes the server distinguishes in its metrics. `Other` absorbs
/// unknown paths so a URL-scanning client can't mint unbounded metric
/// names. A variant's discriminant is its index in [`Endpoint::ALL`]
/// and its slot in the node's [`TierTelemetry::endpoints`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    Healthz,
    Metrics,
    CampaignsIndex,
    CampaignCreate,
    CampaignSolve,
    CampaignPrice,
    CampaignObserve,
    CampaignReport,
    CampaignDelete,
    /// `POST /campaigns/quotes` — N price quotes in one round trip.
    CampaignsQuotes,
    /// `POST /campaigns/observations` — N observations in one round trip.
    CampaignsObserve,
    /// `GET /trace/recent` — recently completed traces + exemplar index.
    TraceRecent,
    /// `GET /trace/{id}` — one completed trace as a span tree.
    TraceGet,
    /// `GET /trace/export` — Chrome trace-event / Perfetto JSON dump.
    TraceExport,
    /// `GET /campaigns/{id}/snapshot` — one campaign as a migratable
    /// snapshot document.
    CampaignSnapshot,
    /// `POST /campaigns/restore` — restore a snapshot document into the
    /// live registry (the receiving side of a migration).
    CampaignsRestore,
    /// `POST /admin/drain` — stop accepting mutations ahead of a
    /// migration off this node.
    AdminDrain,
    /// `POST /admin/resume` — lift a drain.
    AdminResume,
    Other,
}

impl Endpoint {
    pub const ALL: [Endpoint; 19] = [
        Endpoint::Healthz,
        Endpoint::Metrics,
        Endpoint::CampaignsIndex,
        Endpoint::CampaignCreate,
        Endpoint::CampaignSolve,
        Endpoint::CampaignPrice,
        Endpoint::CampaignObserve,
        Endpoint::CampaignReport,
        Endpoint::CampaignDelete,
        Endpoint::CampaignsQuotes,
        Endpoint::CampaignsObserve,
        Endpoint::TraceRecent,
        Endpoint::TraceGet,
        Endpoint::TraceExport,
        Endpoint::CampaignSnapshot,
        Endpoint::CampaignsRestore,
        Endpoint::AdminDrain,
        Endpoint::AdminResume,
        Endpoint::Other,
    ];

    /// The `endpoint` label value in metric names.
    pub fn label(self) -> &'static str {
        match self {
            Endpoint::Healthz => "healthz",
            Endpoint::Metrics => "metrics",
            Endpoint::CampaignsIndex => "campaigns_index",
            Endpoint::CampaignCreate => "campaign_create",
            Endpoint::CampaignSolve => "campaign_solve",
            Endpoint::CampaignPrice => "campaign_price",
            Endpoint::CampaignObserve => "campaign_observe",
            Endpoint::CampaignReport => "campaign_report",
            Endpoint::CampaignDelete => "campaign_delete",
            Endpoint::CampaignsQuotes => "campaigns_quotes",
            Endpoint::CampaignsObserve => "campaigns_observations",
            Endpoint::TraceRecent => "trace_recent",
            Endpoint::TraceGet => "trace_get",
            Endpoint::TraceExport => "trace_export",
            Endpoint::CampaignSnapshot => "campaign_snapshot",
            Endpoint::CampaignsRestore => "campaigns_restore",
            Endpoint::AdminDrain => "admin_drain",
            Endpoint::AdminResume => "admin_resume",
            Endpoint::Other => "other",
        }
    }

    /// Classify a request by method + path shape (the same shapes the
    /// router dispatches on).
    pub fn classify(request: &Request) -> Endpoint {
        let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
        match (request.method.as_str(), segments.as_slice()) {
            ("GET", ["healthz"]) => Endpoint::Healthz,
            ("GET", ["metrics"]) => Endpoint::Metrics,
            ("GET", ["campaigns"]) => Endpoint::CampaignsIndex,
            ("POST", ["campaigns"]) => Endpoint::CampaignCreate,
            // Bulk routes shadow the `{id}` shapes: "quotes",
            // "observations" and "restore" are not valid campaign ids,
            // so nothing is lost.
            ("POST", ["campaigns", "quotes"]) => Endpoint::CampaignsQuotes,
            ("POST", ["campaigns", "observations"]) => Endpoint::CampaignsObserve,
            ("POST", ["campaigns", "restore"]) => Endpoint::CampaignsRestore,
            ("POST", ["admin", "drain"]) => Endpoint::AdminDrain,
            ("POST", ["admin", "resume"]) => Endpoint::AdminResume,
            // The named trace routes shadow the `{id}` shape, like the
            // bulk campaign routes above.
            ("GET", ["trace", "recent"]) => Endpoint::TraceRecent,
            ("GET", ["trace", "export"]) => Endpoint::TraceExport,
            ("GET", ["trace", _]) => Endpoint::TraceGet,
            ("GET", ["campaigns", _]) => Endpoint::CampaignReport,
            ("DELETE", ["campaigns", _]) => Endpoint::CampaignDelete,
            ("GET", ["campaigns", _, "snapshot"]) => Endpoint::CampaignSnapshot,
            ("POST", ["campaigns", _, "solve"]) => Endpoint::CampaignSolve,
            ("GET", ["campaigns", _, "price"]) => Endpoint::CampaignPrice,
            ("POST", ["campaigns", _, "observations"]) => Endpoint::CampaignObserve,
            _ => Endpoint::Other,
        }
    }
}

/// The node's instruments, registered under its `ft_server_*` names
/// in the registry's metrics plane; the reactor records into them.
fn telemetry(metrics: &MetricsRegistry) -> TierTelemetry {
    TierTelemetry {
        endpoints: Endpoint::ALL
            .iter()
            .map(|e| EndpointTelemetry {
                label: e.label(),
                requests: metrics.counter(&format!(
                    "ft_server_requests_total{{endpoint=\"{}\"}}",
                    e.label()
                )),
                latency: metrics.histogram(&format!(
                    "ft_server_request_ns{{endpoint=\"{}\"}}",
                    e.label()
                )),
            })
            .collect(),
        responses_2xx: metrics.counter("ft_server_responses_total{class=\"2xx\"}"),
        responses_4xx: metrics.counter("ft_server_responses_total{class=\"4xx\"}"),
        responses_5xx: metrics.counter("ft_server_responses_total{class=\"5xx\"}"),
        connections_accepted: metrics.counter("ft_server_connections_accepted_total"),
        connections_rejected: metrics.counter("ft_server_connections_rejected_total"),
        connections_active: metrics.gauge("ft_server_connections_active"),
        queue_wait: metrics.histogram("ft_server_queue_wait_ns"),
    }
}

/// Everything a handler needs, on a worker or on the event loop: built
/// once per server.
pub struct AppState {
    pub registry: Arc<CampaignRegistry>,
    pub telemetry: TierTelemetry,
    pub started: Instant,
    /// Set by `POST /admin/drain`: mutations are refused with 503 so a
    /// migrating router can snapshot every campaign at a generation
    /// that will not move underneath it. Reads and quotes keep serving.
    draining: AtomicBool,
}

impl AppState {
    pub fn new(registry: Arc<CampaignRegistry>) -> Self {
        let telemetry = telemetry(registry.metrics());
        // Mirror the executor's internal counters (steals, deque
        // overflows) onto the same metrics plane the registry reports
        // into, so one `GET /metrics` covers HTTP, solver, and pool.
        // Latest-wins inside ft-exec, so a test server taking over the
        // export is fine.
        ft_exec::register_metrics(registry.metrics());
        Self {
            registry,
            telemetry,
            started: Instant::now(),
            draining: AtomicBool::new(false),
        }
    }

    pub fn draining(&self) -> bool {
        // ORDERING: Acquire pairs with the Release in `set_draining` —
        // a handler that observes the flag also observes everything the
        // drainer settled before raising it.
        self.draining.load(Ordering::Acquire)
    }

    pub fn set_draining(&self, draining: bool) {
        // ORDERING: Release pairs with the Acquire in `draining` —
        // handlers that observe the flag observe the drainer's writes.
        self.draining.store(draining, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::Endpoint;

    #[test]
    fn discriminants_index_all() {
        for (slot, endpoint) in Endpoint::ALL.iter().enumerate() {
            assert_eq!(*endpoint as usize, slot, "{endpoint:?}");
        }
    }
}
