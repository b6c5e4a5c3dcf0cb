//! Routes one HTTP request across the fleet.
//!
//! Three request shapes:
//!
//! - **Placed** (`/campaigns/{id}/...`, `POST /campaigns`): the
//!   consistent-hash ring names the owning node; the request proxies
//!   there verbatim (create requests get a router-allocated `id`
//!   injected so the id space stays fleet-wide). A transport failure
//!   triggers [`Fleet::fail_node`] and the request re-routes; a 404
//!   for a campaign the router has checkpointed triggers a
//!   restore-and-retry instead of leaking the miss.
//! - **Fanned** (`GET /campaigns`, `GET /metrics`, `GET /trace/{id}`):
//!   every live node answers and the router merges — campaign indexes
//!   by id, metrics by summing counters and merging histogram bucket
//!   layers exactly ([`ft_metrics::HistogramSnapshot::merge`]), traces
//!   by stitching per-process span trees
//!   ([`ft_trace::merge_documents`]).
//! - **Split** (`POST /campaigns/quotes`, `/campaigns/observations`):
//!   the bulk body is split by owner, one sub-request per node, and
//!   the per-item results are reassembled **in input order**, inline
//!   errors intact, so a client cannot tell the fleet from one node.

use crate::fleet::Fleet;
use ft_metrics::{histogram_snapshot_value, HistogramSnapshot};
use ft_server::http::{Request, Response};
use ft_server::{parse_bulk_observations, parse_bulk_quotes, Client, Endpoint};
use serde::{map_get, Value};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Re-route attempts for a placed request before giving up. Two
/// failovers mid-request is already a catastrophic fleet; the bound
/// exists so a dead fleet answers 503 instead of spinning.
const MAX_ROUTE_ATTEMPTS: usize = 3;

/// One keep-alive connection per backend, owned by a single worker
/// thread (the [`Client`] reconnects transparently after idle
/// timeouts and node restarts).
pub struct Connections {
    clients: Vec<Client>,
}

impl Connections {
    pub fn new(backends: &[std::net::SocketAddr]) -> Self {
        Self {
            clients: backends.iter().map(|&addr| Client::new(addr)).collect(),
        }
    }

    fn request(
        &mut self,
        node: usize,
        method: &str,
        path: &str,
        body: Option<&str>,
        trace: Option<u64>,
    ) -> std::io::Result<(u16, String)> {
        let _span = ft_trace::span("router.backend.proxy");
        self.clients[node]
            .request_traced(method, path, body, trace)
            .map(|(status, body, _)| (status, body))
    }
}

fn map(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn json(status: u16, body: Value) -> Response {
    Response::json(
        status,
        serde_json::to_string(&body).expect("serialize response"),
    )
}

fn bad_request(message: &str) -> Response {
    Response::error(400, "bad_request", message)
}

/// The retryable 503 a client sees while a drain window or a dead
/// fleet is in the way.
fn unavailable(fleet: &Fleet, message: &str) -> Response {
    fleet.telemetry.rejects.inc();
    Response::error(503, "fleet_unavailable", message)
}

/// Rebuild the backend-facing request target from the parsed path and
/// query (the codec percent-decodes on parse; re-encode on proxy).
fn path_with_query(request: &Request) -> String {
    let mut target = request.path.clone();
    for (i, (k, v)) in request.query.iter().enumerate() {
        target.push(if i == 0 { '?' } else { '&' });
        percent_encode(&mut target, k);
        if !v.is_empty() {
            target.push('=');
            percent_encode(&mut target, v);
        }
    }
    target
}

fn percent_encode(out: &mut String, s: &str) {
    for b in s.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            _ => {
                let _ = write!(out, "%{b:02X}");
            }
        }
    }
}

/// What the router tells apart: a node endpoint (proxied, fanned out,
/// split or answered here), or one of the router's own fleet routes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    Node(Endpoint),
    /// `GET /fleet`.
    FleetStatus,
    /// `POST /fleet/drain?node=N`.
    FleetDrain,
}

impl Route {
    /// Classify a request (the node's table, plus the fleet routes).
    pub(crate) fn classify(request: &Request) -> Route {
        let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
        match (request.method.as_str(), segments.as_slice()) {
            ("GET", ["fleet"]) => Route::FleetStatus,
            ("POST", ["fleet", "drain"]) => Route::FleetDrain,
            _ => Route::Node(Endpoint::classify(request)),
        }
    }

    /// Every route, in slot order.
    pub fn all() -> impl Iterator<Item = Route> {
        Endpoint::ALL
            .into_iter()
            .map(Route::Node)
            .chain([Route::FleetStatus, Route::FleetDrain])
    }

    /// Index of this route's instruments in the router's
    /// [`ft_server::TierTelemetry::endpoints`].
    pub(crate) fn slot(self) -> usize {
        match self {
            Route::Node(endpoint) => endpoint as usize,
            Route::FleetStatus => Endpoint::ALL.len(),
            Route::FleetDrain => Endpoint::ALL.len() + 1,
        }
    }

    /// The `endpoint` label value in metric names.
    pub fn label(self) -> &'static str {
        match self {
            Route::Node(endpoint) => endpoint.label(),
            Route::FleetStatus => "fleet_status",
            Route::FleetDrain => "fleet_drain",
        }
    }
}

/// Answer one classified request. The reactor has already opened its
/// root span (`router.request.serve`), and records it once this
/// returns.
pub fn handle(fleet: &Fleet, conns: &mut Connections, route: Route, request: &Request) -> Response {
    match route {
        Route::FleetStatus => fleet_status(fleet),
        Route::FleetDrain => fleet_drain(fleet, request),
        Route::Node(endpoint) => dispatch(fleet, conns, endpoint, request),
    }
}

fn dispatch(
    fleet: &Fleet,
    conns: &mut Connections,
    endpoint: Endpoint,
    request: &Request,
) -> Response {
    match endpoint {
        Endpoint::Healthz => healthz(fleet),
        Endpoint::Metrics => merged_metrics(fleet, conns, request),
        Endpoint::CampaignsIndex => merged_campaigns(fleet, conns, request),
        Endpoint::CampaignCreate => create_campaign(fleet, conns, request),
        Endpoint::CampaignReport | Endpoint::CampaignPrice | Endpoint::CampaignSnapshot => {
            placed(fleet, conns, request, false)
        }
        Endpoint::CampaignSolve | Endpoint::CampaignObserve | Endpoint::CampaignDelete => {
            placed(fleet, conns, request, true)
        }
        Endpoint::CampaignsQuotes => bulk(fleet, conns, request, "quotes", false, |body| {
            Ok(parse_bulk_quotes(body)?
                .into_iter()
                .map(|(id, _)| id)
                .collect())
        }),
        Endpoint::CampaignsObserve => bulk(fleet, conns, request, "observations", true, |body| {
            Ok(parse_bulk_observations(body)?
                .into_iter()
                .map(|(id, _)| id)
                .collect())
        }),
        Endpoint::TraceRecent => {
            let limit = match request.query("limit") {
                None => Ok(32),
                Some(raw) => raw.parse::<usize>().map_err(|_| ()),
            };
            match limit {
                Ok(limit) => Response::json(200, ft_trace::recent_json(limit)),
                Err(()) => bad_request("`limit` must be a non-negative integer"),
            }
        }
        Endpoint::TraceGet => merged_trace(fleet, conns, request),
        Endpoint::TraceExport => Response::json(200, ft_trace::export_chrome_json()),
        Endpoint::CampaignsRestore => {
            bad_request("restore is a node-level operation; POST it to a backend, not the router")
        }
        Endpoint::AdminDrain | Endpoint::AdminResume => {
            bad_request("node drain is fleet-managed here; use POST /fleet/drain?node=N")
        }
        Endpoint::Other => Response::error(404, "not_found", "unknown route"),
    }
}

/// `GET /healthz` — fleet liveness: how many nodes are routable.
fn healthz(fleet: &Fleet) -> Response {
    let status = fleet.status();
    let alive = status.iter().filter(|(_, _, a, _)| *a).count();
    json(
        200,
        map(vec![
            (
                "status",
                Value::Str(
                    if alive == status.len() {
                        "ok"
                    } else {
                        "degraded"
                    }
                    .into(),
                ),
            ),
            ("version", Value::Str(env!("CARGO_PKG_VERSION").into())),
            ("nodes_total", Value::Num(status.len() as f64)),
            ("nodes_alive", Value::Num(alive as f64)),
        ]),
    )
}

/// `GET /fleet` — per-node membership rows.
fn fleet_status(fleet: &Fleet) -> Response {
    let nodes: Vec<Value> = fleet
        .status()
        .into_iter()
        .map(|(node, addr, alive, draining)| {
            map(vec![
                ("node", Value::Num(node as f64)),
                ("addr", Value::Str(addr.to_string())),
                ("alive", Value::Bool(alive)),
                ("draining", Value::Bool(draining)),
            ])
        })
        .collect();
    json(200, map(vec![("nodes", Value::Seq(nodes))]))
}

/// `POST /fleet/drain?node=N` — planned migration off one node.
fn fleet_drain(fleet: &Fleet, request: &Request) -> Response {
    let Some(node) = request.query("node").and_then(|v| v.parse::<usize>().ok()) else {
        return bad_request("`node` must be a fleet node index");
    };
    match fleet.drain_node(node) {
        Ok(moved) => json(
            200,
            map(vec![
                ("node", Value::Num(node as f64)),
                ("moved", Value::Num(moved.len() as f64)),
                (
                    "ids",
                    Value::Seq(moved.into_iter().map(|id| Value::Num(id as f64)).collect()),
                ),
            ]),
        ),
        Err((status, message)) => Response::error(status, "drain_failed", &message),
    }
}

/// Proxy a `/campaigns/{id}...` request to its owner, failing over and
/// restore-retrying as needed. `mutating` requests are refused with a
/// retryable 503 while the owner is draining (the migration is
/// freezing its generation).
fn placed(fleet: &Fleet, conns: &mut Connections, request: &Request, mutating: bool) -> Response {
    let raw = request
        .path
        .split('/')
        .filter(|s| !s.is_empty())
        .nth(1)
        .unwrap_or("");
    let Ok(id) = raw.parse::<u64>() else {
        return bad_request("campaign id must be an integer");
    };
    let target = path_with_query(request);
    let body = (!request.body.is_empty()).then_some(request.body.as_str());
    let response = placed_by_id(
        fleet,
        conns,
        id,
        &request.method,
        &target,
        body,
        request,
        mutating,
    );
    if let Some(response) = &response {
        maintain_cache(fleet, conns, id, request, mutating, response);
    }
    response.unwrap_or_else(|| unavailable(fleet, "no backend could serve the request"))
}

/// The failover loop shared by every placed request. `None` means the
/// fleet is exhausted.
#[allow(clippy::too_many_arguments)]
fn placed_by_id(
    fleet: &Fleet,
    conns: &mut Connections,
    id: u64,
    method: &str,
    target: &str,
    body: Option<&str>,
    request: &Request,
    mutating: bool,
) -> Option<Response> {
    let mut restored = false;
    for attempt in 0..MAX_ROUTE_ATTEMPTS {
        let (node, draining) = fleet.owner_with_drain(id)?;
        if mutating && draining {
            fleet.telemetry.rejects.inc();
            return Some(Response::error(
                503,
                "draining",
                "campaign is migrating; retry shortly",
            ));
        }
        match conns.request(node, method, target, body, request.trace) {
            // A 404 for a campaign the router has checkpointed is a
            // migration gap, not a missing campaign: put the
            // checkpoint back and retry once.
            Ok((404, _)) if !restored && fleet.cached(id).is_some() => {
                restored = true;
                if !fleet.restore_to_owner(id) {
                    continue;
                }
                fleet.telemetry.retries.inc();
            }
            Ok((status, body)) => return Some(Response::json(status, body)),
            Err(_) => {
                fleet.fail_node(node);
                if attempt + 1 < MAX_ROUTE_ATTEMPTS {
                    fleet.telemetry.retries.inc();
                }
            }
        }
    }
    None
}

/// Keep the failover checkpoint fresh after successful mutations:
/// create and solve always re-checkpoint, observations only when they
/// recalibrated (a new generation was published), deletes drop the
/// checkpoint.
fn maintain_cache(
    fleet: &Fleet,
    conns: &mut Connections,
    id: u64,
    request: &Request,
    mutating: bool,
    response: &Response,
) {
    if !mutating || !(200..300).contains(&response.status) {
        return;
    }
    let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
    match (request.method.as_str(), segments.as_slice()) {
        ("DELETE", _) => fleet.drop_snapshot(id),
        ("POST", [_, _, "solve"]) => refresh_snapshot(fleet, conns, id),
        ("POST", [_, _, "observations"]) if response.body.contains("\"recalibrated\":true") => {
            refresh_snapshot(fleet, conns, id);
        }
        _ => {}
    }
}

/// Pull a fresh checkpoint for `id` from its current owner. Best
/// effort: a failed refresh leaves the previous checkpoint in place.
fn refresh_snapshot(fleet: &Fleet, conns: &mut Connections, id: u64) {
    let Some(node) = fleet.owner(id) else {
        return;
    };
    if let Ok((200, doc)) = conns.request(
        node,
        "GET",
        &format!("/campaigns/{id}/snapshot"),
        None,
        None,
    ) {
        fleet.cache_snapshot(id, doc);
    }
}

/// `POST /campaigns` — allocate a fleet-wide id, inject it into the
/// spec, place by ring, checkpoint the newborn draft.
fn create_campaign(fleet: &Fleet, conns: &mut Connections, request: &Request) -> Response {
    let Ok(parsed) = serde_json::from_str::<Value>(&request.body) else {
        return bad_request("invalid JSON body");
    };
    let Value::Map(mut entries) = parsed else {
        return bad_request("campaign spec must be a JSON object");
    };
    if entries.iter().any(|(k, _)| k == "id") {
        return bad_request("the router assigns campaign ids; omit `id`");
    }
    let id = fleet.allocate_id();
    entries.push(("id".to_string(), Value::Num(id as f64)));
    let body = serde_json::to_string(&Value::Map(entries)).expect("serialize spec");
    let response = placed_by_id(
        fleet,
        conns,
        id,
        "POST",
        "/campaigns",
        Some(&body),
        request,
        true,
    );
    let Some(response) = response else {
        return unavailable(fleet, "no backend could accept the campaign");
    };
    if response.status == 201 {
        refresh_snapshot(fleet, conns, id);
    }
    response
}

/// `GET /campaigns` fan-out: every live node's index, deduped by id,
/// sorted ascending, then paginated at the router so the fleet answers
/// exactly like one node.
fn merged_campaigns(fleet: &Fleet, conns: &mut Connections, request: &Request) -> Response {
    let limit = match request.query("limit") {
        None => None,
        Some(raw) => match raw.parse::<usize>() {
            Ok(limit) => Some(limit),
            Err(_) => return bad_request("`limit` must be a non-negative integer"),
        },
    };
    let offset = match request.query("offset") {
        None => 0,
        Some(raw) => match raw.parse::<usize>() {
            Ok(offset) => offset,
            Err(_) => return bad_request("`offset` must be a non-negative integer"),
        },
    };
    let _span = ft_trace::span("router.fleet.merge");
    // One failover restart: a node dying mid-sweep flips the ring and
    // the sweep re-reads the survivors (which now hold its campaigns).
    'sweep: for _ in 0..2 {
        let mut by_id: HashMap<u64, Value> = HashMap::new();
        for (node, _) in fleet.alive_nodes() {
            let body = match conns.request(node, "GET", "/campaigns", None, request.trace) {
                Ok((200, body)) => body,
                Ok((status, _)) => {
                    return Response::error(
                        502,
                        "bad_gateway",
                        &format!("node {node} campaign index answered {status}"),
                    )
                }
                Err(_) => {
                    fleet.fail_node(node);
                    continue 'sweep;
                }
            };
            let Ok(value) = serde_json::from_str::<Value>(&body) else {
                return Response::error(502, "bad_gateway", "unparseable campaign index");
            };
            let Some(fields) = value.as_map() else {
                return Response::error(502, "bad_gateway", "campaign index: not an object");
            };
            let Some(campaigns) = map_get(fields, "campaigns").ok().and_then(|v| v.as_seq()) else {
                return Response::error(502, "bad_gateway", "campaign index: no campaigns");
            };
            for entry in campaigns {
                let id = entry
                    .as_map()
                    .and_then(|f| map_get(f, "id").ok())
                    .and_then(|v| v.as_num());
                if let Some(id) = id {
                    by_id.insert(id as u64, entry.clone());
                }
            }
        }
        let mut ids: Vec<u64> = by_id.keys().copied().collect();
        ids.sort_unstable();
        let total = ids.len();
        let page: Vec<Value> = ids
            .iter()
            .skip(offset)
            .take(limit.unwrap_or(total))
            .map(|id| by_id[id].clone())
            .collect();
        return json(
            200,
            map(vec![
                ("total", Value::Num(total as f64)),
                ("offset", Value::Num(offset as f64)),
                ("returned", Value::Num(page.len() as f64)),
                ("campaigns", Value::Seq(page)),
            ]),
        );
    }
    unavailable(fleet, "fleet sweep kept losing nodes")
}

/// `GET /metrics` fan-out: counters and gauges sum, histograms merge
/// **bucket-exact** through the sparse bucket layer every node exports
/// (`?buckets=1` on the fan-out, opt-in on the merged output), and the
/// router's own `ft_router_*` plane is overlaid (names are disjoint by
/// the metric grammar). Prometheus text is a node-level format — the
/// router says so instead of mangling it.
fn merged_metrics(fleet: &Fleet, conns: &mut Connections, request: &Request) -> Response {
    match request.query("format") {
        None | Some("json") => {}
        Some(other) => {
            return bad_request(&format!(
                "merged fleet metrics are JSON-only (got format `{other}`); \
                 scrape nodes directly for prometheus text"
            ))
        }
    }
    let want_buckets = matches!(request.query("buckets"), Some("1") | Some("true"));
    let _span = ft_trace::span("router.fleet.merge");
    'sweep: for _ in 0..2 {
        let mut merged: Vec<(String, Merged)> = Vec::new();
        for (node, _) in fleet.alive_nodes() {
            let body = match conns.request(node, "GET", "/metrics?buckets=1", None, request.trace) {
                Ok((200, body)) => body,
                Ok((status, _)) => {
                    return Response::error(
                        502,
                        "bad_gateway",
                        &format!("node {node} metrics answered {status}"),
                    )
                }
                Err(_) => {
                    fleet.fail_node(node);
                    continue 'sweep;
                }
            };
            let Ok(Value::Map(entries)) = serde_json::from_str::<Value>(&body) else {
                return Response::error(502, "bad_gateway", "unparseable node metrics");
            };
            for (name, value) in entries {
                match merge_metric(&mut merged, &name, &value) {
                    Ok(()) => {}
                    Err(e) => {
                        return Response::error(
                            502,
                            "bad_gateway",
                            &format!("node {node} metric `{name}`: {e}"),
                        )
                    }
                }
            }
        }
        let mut out: Vec<(String, Value)> = merged
            .into_iter()
            .map(|(name, m)| {
                let value = match m {
                    Merged::Num(n) => Value::Num(n),
                    Merged::Hist(s) => histogram_snapshot_value(&s, want_buckets),
                };
                (name, value)
            })
            .collect();
        // The router's own plane rides along under its own names.
        if let Value::Map(own) = fleet
            .telemetry
            .registry()
            .to_value_with_buckets(want_buckets)
        {
            out.extend(own);
        }
        out.sort_by(|(a, _), (b, _)| a.cmp(b));
        return json(200, Value::Map(out));
    }
    unavailable(fleet, "fleet sweep kept losing nodes")
}

/// One metric mid-merge: scalars (counters, gauges) sum; histograms
/// accumulate bucket-exact through [`HistogramSnapshot::merge`].
enum Merged {
    Num(f64),
    Hist(HistogramSnapshot),
}

/// Fold one node's exported metric into the merge accumulator. The
/// accumulator stays a `Vec` (not a map) so first-seen order survives
/// until the final sort — and N stays small (hundreds of names).
fn merge_metric(
    merged: &mut Vec<(String, Merged)>,
    name: &str,
    value: &Value,
) -> Result<(), String> {
    let incoming = match value {
        Value::Num(n) => Merged::Num(*n),
        Value::Map(fields) => Merged::Hist(parse_histogram(fields)?),
        _ => return Err("neither a number nor a histogram object".into()),
    };
    match merged.iter_mut().find(|(n, _)| n == name) {
        None => merged.push((name.to_string(), incoming)),
        Some((_, existing)) => match (existing, incoming) {
            (Merged::Num(a), Merged::Num(b)) => *a += b,
            (Merged::Hist(a), Merged::Hist(b)) => a.merge(&b),
            _ => return Err("instrument type disagrees across nodes".into()),
        },
    }
    Ok(())
}

/// Reconstruct a [`HistogramSnapshot`] from the node export shape
/// (requires the sparse `buckets` layer — the fan-out always asks for
/// it with `?buckets=1`).
fn parse_histogram(fields: &[(String, Value)]) -> Result<HistogramSnapshot, String> {
    let num = |key: &str| -> Result<u64, String> {
        map_get(fields, key)
            .ok()
            .and_then(Value::as_num)
            .filter(|n| *n >= 0.0)
            .map(|n| n as u64)
            .ok_or_else(|| format!("missing numeric `{key}`"))
    };
    let sum = num("sum")?;
    let clamped = num("clamped")?;
    let exemplar = match map_get(fields, "exemplar_trace_id") {
        Ok(Value::Str(s)) => {
            u64::from_str_radix(s, 16).map_err(|_| "bad exemplar trace id".to_string())?
        }
        _ => 0,
    };
    let raw = map_get(fields, "buckets")
        .ok()
        .and_then(|v| v.as_seq())
        .ok_or("histogram export without its `buckets` layer")?;
    let mut buckets = Vec::with_capacity(raw.len());
    for pair in raw {
        let pair = pair
            .as_seq()
            .filter(|p| p.len() == 2)
            .ok_or("bucket entry not a pair")?;
        let index = pair[0]
            .as_num()
            .filter(|n| *n >= 0.0)
            .ok_or("bad bucket index")?;
        let count = pair[1]
            .as_num()
            .filter(|n| *n >= 0.0)
            .ok_or("bad bucket count")?;
        buckets.push((index as usize, count as u64));
    }
    HistogramSnapshot::from_sparse(&buckets, sum, clamped, exemplar)
}

/// `GET /trace/{id}` fan-out: the router's own segment (root) plus
/// every node's, stitched into one tree.
fn merged_trace(fleet: &Fleet, conns: &mut Connections, request: &Request) -> Response {
    let raw = request
        .path
        .split('/')
        .filter(|s| !s.is_empty())
        .nth(1)
        .unwrap_or("");
    let Some(id) = ft_trace::parse_trace_id(raw) else {
        return bad_request("trace id must be 1-16 hex digits");
    };
    let _span = ft_trace::span("router.fleet.merge");
    let local = ft_trace::find_json(id);
    let mut remotes = Vec::new();
    for (node, _) in fleet.alive_nodes() {
        if let Ok((200, body)) = conns.request(node, "GET", &format!("/trace/{raw}"), None, None) {
            remotes.push(body);
        }
    }
    let (base, rest) = match (local, remotes.is_empty()) {
        (Some(local), _) => (local, remotes),
        (None, false) => {
            let mut it = remotes.into_iter();
            (it.next().expect("non-empty"), it.collect())
        }
        (None, true) => {
            return Response::error(
                404,
                "not_found",
                "trace not stored on any fleet node (evicted or never sampled)",
            )
        }
    };
    match ft_trace::merge_documents(&base, &rest) {
        Ok(doc) => Response::json(200, doc),
        Err(e) => Response::error(502, "bad_gateway", &format!("trace merge failed: {e}")),
    }
}

/// Split a bulk body by owning node, proxy each slice, reassemble the
/// per-item results in input order. `parse` is the node's own parser
/// for the body, returning each item's id; it checks every item before
/// anything is placed, so a structural 400 (the node's, unchanged)
/// applies nothing on any node. `refresh` re-checkpoints items whose
/// observation recalibrated.
fn bulk(
    fleet: &Fleet,
    conns: &mut Connections,
    request: &Request,
    key: &str,
    refresh: bool,
    parse: fn(&Value) -> Result<Vec<u64>, Response>,
) -> Response {
    let Ok(parsed) = serde_json::from_str::<Value>(&request.body) else {
        return bad_request("invalid JSON body");
    };
    let ids = match parse(&parsed) {
        Ok(ids) => ids,
        Err(refused) => return refused,
    };
    let items = parsed
        .as_map()
        .and_then(|fields| map_get(fields, key).ok())
        .and_then(Value::as_seq)
        .expect("the bulk parser accepted the item array");
    let mut slots: Vec<Option<Value>> = vec![None; items.len()];
    // Two placement passes: unresolved items (owner died mid-flight)
    // regroup onto the post-failover ring once.
    for _pass in 0..2 {
        let mut groups: HashMap<usize, Vec<usize>> = HashMap::new();
        for (index, id) in ids.iter().enumerate() {
            if slots[index].is_some() {
                continue;
            }
            let Some(node) = fleet.owner(*id) else {
                return unavailable(fleet, "no backends alive");
            };
            groups.entry(node).or_default().push(index);
        }
        if groups.is_empty() {
            break;
        }
        let mut group_order: Vec<usize> = groups.keys().copied().collect();
        group_order.sort_unstable();
        for node in group_order {
            let indices = &groups[&node];
            let slice: Vec<Value> = indices.iter().map(|&i| items[i].clone()).collect();
            let body =
                serde_json::to_string(&Value::Map(vec![(key.to_string(), Value::Seq(slice))]))
                    .expect("serialize bulk slice");
            match conns.request(
                node,
                "POST",
                &format!("/campaigns/{key}"),
                Some(&body),
                request.trace,
            ) {
                Ok((200, body)) => {
                    let results = serde_json::from_str::<Value>(&body).ok().and_then(|v| {
                        v.as_map().and_then(|f| {
                            map_get(f, "results")
                                .ok()
                                .and_then(|r| r.as_seq().map(|s| s.to_vec()))
                        })
                    });
                    let Some(results) = results else {
                        return Response::error(502, "bad_gateway", "unparseable bulk reply");
                    };
                    if results.len() != indices.len() {
                        return Response::error(502, "bad_gateway", "bulk reply wrong length");
                    }
                    for (&index, result) in indices.iter().zip(results) {
                        slots[index] = Some(result);
                    }
                }
                Ok((status, body)) => return Response::json(status, body),
                Err(_) => {
                    // Owner died: flip and let the next pass regroup
                    // this slice onto the survivors.
                    fleet.fail_node(node);
                    fleet.telemetry.retries.inc();
                }
            }
        }
    }
    // Anything still unplaced after the retry pass answers inline, so
    // sibling items' results survive a mid-batch failover.
    let results: Vec<Value> = slots
        .into_iter()
        .zip(&ids)
        .map(|(slot, &id)| {
            slot.unwrap_or_else(|| {
                map(vec![
                    ("id", Value::Num(id as f64)),
                    ("error", Value::Str("node_unavailable".into())),
                    (
                        "message",
                        Value::Str("owning node failed mid-batch; retry".into()),
                    ),
                    ("status", Value::Num(503.0)),
                ])
            })
        })
        .collect();
    if refresh {
        let recalibrated: Vec<u64> = results
            .iter()
            .filter_map(|r| {
                let fields = r.as_map()?;
                let recal = matches!(map_get(fields, "recalibrated"), Ok(Value::Bool(true)));
                recal
                    .then(|| map_get(fields, "id").ok().and_then(|v| v.as_num()))
                    .flatten()
            })
            .map(|id| id as u64)
            .collect();
        for id in recalibrated {
            refresh_snapshot(fleet, conns, id);
        }
    }
    json(
        200,
        map(vec![
            ("count", Value::Num(results.len() as f64)),
            ("results", Value::Seq(results)),
        ]),
    )
}

#[cfg(test)]
mod tests {
    use super::Route;

    #[test]
    fn slots_index_all_routes() {
        for (slot, route) in Route::all().enumerate() {
            assert_eq!(route.slot(), slot, "{route:?}");
        }
    }
}
