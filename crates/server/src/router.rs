//! Routes HTTP requests onto the [`CampaignRegistry`].
//!
//! | method & path | action |
//! |---|---|
//! | `GET /healthz` | uptime, version, campaign counts by status |
//! | `GET /metrics` | observability plane (JSON; `?format=prometheus` for text) |
//! | `GET /campaigns?limit=..&offset=..` | fleet index (id, kind, status, generation), paginated |
//! | `POST /campaigns` | register a draft campaign (JSON spec body) |
//! | `POST /campaigns/quotes` | bulk: quote N observed states in one round trip |
//! | `POST /campaigns/observations` | bulk: report N observations in one round trip |
//! | `POST /campaigns/{id}/solve` | solve the draft, publish generation 1 |
//! | `GET /campaigns/{id}/price?remaining=..&interval=..` | quote a deadline campaign |
//! | `GET /campaigns/{id}/price?remaining=..&budget_cents=..` | quote a budget campaign |
//! | `POST /campaigns/{id}/observations` | report an interval / progress |
//! | `GET /campaigns/{id}` | status + diagnostics |
//! | `GET /campaigns/{id}/snapshot` | one campaign as a migratable snapshot document |
//! | `POST /campaigns/restore` | restore a snapshot document (receiving side of migration) |
//! | `DELETE /campaigns/{id}` | evict (tombstone) |
//! | `POST /admin/drain` | refuse mutations (503) ahead of a migration |
//! | `POST /admin/resume` | lift a drain |
//! | `GET /trace/recent?limit=..` | recently completed traces + slow exemplars |
//! | `GET /trace/{id}` | one completed trace as a span tree (JSON) |
//! | `GET /trace/export` | Chrome trace-event / Perfetto JSON dump |
//!
//! Request/response bodies are JSON. Campaign specs are flattened:
//! `{"kind": "deadline", "problem": {...}, "eps": 1e-9}` or
//! `{"kind": "budget", "problem": {...}}`, where `problem` is the
//! serde encoding of [`ft_core::DeadlineProblem`] /
//! [`ft_core::BudgetProblem`]. Structured [`PricingError`]s map to HTTP
//! statuses in [`status_for`].
//!
//! Recording is the reactor's: it counts, times and traces every
//! request around the handler call (see `reactor.rs`).

use crate::http::{Request, Response};
use crate::state::{AppState, Endpoint};
use ft_core::registry::{
    CampaignObservation, CampaignRegistry, CampaignSpec, CampaignStatus, ObservedState,
};
use ft_core::{BudgetProblem, CampaignId, DeadlineProblem, PricingError};
use serde::{map_get, Deserialize, Serialize, Value};

/// Map a structured pricing error onto an HTTP status code.
pub fn status_for(error: &PricingError) -> u16 {
    match error {
        PricingError::UnknownCampaign(_) => 404,
        PricingError::StateKindMismatch { .. } => 400,
        PricingError::InvalidProblem(_) => 400,
        PricingError::NotServable { .. } => 409,
        PricingError::Infeasible(_) => 422,
        PricingError::SearchFailed(_) => 500,
    }
}

fn ok(body: Value) -> Response {
    Response::json(
        200,
        serde_json::to_string(&body).expect("serialize response"),
    )
}

fn created(body: Value) -> Response {
    Response::json(
        201,
        serde_json::to_string(&body).expect("serialize response"),
    )
}

fn error_kind(error: &PricingError) -> &'static str {
    match error {
        PricingError::Infeasible(_) => "infeasible",
        PricingError::SearchFailed(_) => "search_failed",
        PricingError::InvalidProblem(_) => "invalid_problem",
        PricingError::UnknownCampaign(_) => "unknown_campaign",
        PricingError::StateKindMismatch { .. } => "state_kind_mismatch",
        PricingError::NotServable { .. } => "not_servable",
    }
}

fn pricing_error(error: &PricingError) -> Response {
    Response::error(status_for(error), error_kind(error), &error.to_string())
}

fn bad_request(message: &str) -> Response {
    Response::error(400, "bad_request", message)
}

fn map(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Route one request: classify it ([`Endpoint::classify`] is the
/// single routing table) and dispatch onto the registry. In-process
/// callers use this; the reactor classifies through
/// [`crate::Service::route`] and calls `dispatch` itself, so it can
/// record the request around the handler call.
pub fn handle(state: &AppState, request: &Request) -> Response {
    dispatch(state, Endpoint::classify(request), request)
}

/// Answer one classified request.
pub(crate) fn dispatch(state: &AppState, endpoint: Endpoint, request: &Request) -> Response {
    let registry = state.registry.as_ref();
    // A draining node refuses every mutation with a retryable 503: a
    // migrating router needs each campaign's generation and engine
    // state frozen while it snapshots. Reads and quotes keep serving
    // (quoting never advances a generation), so in-flight traffic
    // completes during the hand-off window.
    if state.draining() && mutates(endpoint) {
        return Response::error(
            503,
            "draining",
            "node is draining for migration; retry against the fleet",
        );
    }
    match endpoint {
        Endpoint::Healthz => healthz(state),
        Endpoint::Metrics => metrics(state, request),
        Endpoint::CampaignsIndex => campaigns_index(registry, request),
        Endpoint::CampaignCreate => create_campaign(registry, request),
        Endpoint::CampaignReport => with_id(request, |id| report(registry, id)),
        Endpoint::CampaignDelete => with_id(request, |id| delete(registry, id)),
        Endpoint::CampaignSolve => with_id(request, |id| solve(registry, id)),
        Endpoint::CampaignPrice => with_id(request, |id| price(registry, id, request)),
        Endpoint::CampaignObserve => with_id(request, |id| observe(registry, id, request)),
        Endpoint::CampaignsQuotes => campaigns_quotes(registry, request),
        Endpoint::CampaignsObserve => campaigns_observe(registry, request),
        Endpoint::TraceRecent => trace_recent(request),
        Endpoint::TraceGet => trace_get(request),
        Endpoint::TraceExport => Response::json(200, ft_trace::export_chrome_json()),
        Endpoint::CampaignSnapshot => with_id(request, |id| snapshot(registry, id)),
        Endpoint::CampaignsRestore => restore(registry, request),
        Endpoint::AdminDrain => set_drain(state, true),
        Endpoint::AdminResume => set_drain(state, false),
        Endpoint::Other => fallback(request),
    }
}

/// Endpoints a draining node refuses (everything that can move a
/// campaign's state — including restores: a node being emptied must
/// not accept new residents).
fn mutates(endpoint: Endpoint) -> bool {
    matches!(
        endpoint,
        Endpoint::CampaignCreate
            | Endpoint::CampaignSolve
            | Endpoint::CampaignObserve
            | Endpoint::CampaignDelete
            | Endpoint::CampaignsObserve
            | Endpoint::CampaignsRestore
    )
}

/// Parse the `{id}` path segment (the classifier only checked the
/// shape) and run the handler, or answer 400.
fn with_id(request: &Request, handler: impl FnOnce(CampaignId) -> Response) -> Response {
    let id = request
        .path
        .split('/')
        .filter(|s| !s.is_empty())
        .nth(1)
        .unwrap_or("");
    match id.parse() {
        Ok(id) => handler(id),
        Err(_) => bad_request("campaign id must be an integer"),
    }
}

/// Requests no endpoint claims: distinguish a known path with the
/// wrong method from a path that doesn't exist at all.
fn fallback(request: &Request) -> Response {
    let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
    match segments.as_slice() {
        ["campaigns", _] => Response::error(405, "method_not_allowed", "use GET or DELETE"),
        ["campaigns", _, _] => Response::error(404, "not_found", "unknown campaign action"),
        _ => Response::error(404, "not_found", "unknown route"),
    }
}

/// `GET /healthz` — liveness plus enough context to triage a page:
/// uptime, build version, and the fleet broken down by lifecycle
/// status.
fn healthz(state: &AppState) -> Response {
    let counts = state.registry.status_counts();
    // All three fleet counts come from this one walk, so they agree:
    // `campaigns_total` counts every record (tombstones included, like
    // `GET /campaigns`' `total` and the sum of the by-status map);
    // `campaigns_serving` excludes evicted ones.
    let total: usize = counts.iter().map(|(_, n)| n).sum();
    let serving = total - counts[CampaignStatus::Evicted as usize].1;
    let by_status: Vec<(String, Value)> = counts
        .iter()
        .map(|(status, count)| (status.as_str().to_string(), Value::Num(*count as f64)))
        .collect();
    ok(map(vec![
        (
            "status",
            Value::Str(if state.draining() { "draining" } else { "ok" }.into()),
        ),
        ("draining", Value::Bool(state.draining())),
        ("version", Value::Str(env!("CARGO_PKG_VERSION").into())),
        (
            "uptime_seconds",
            Value::Num(state.started.elapsed().as_secs_f64()),
        ),
        ("campaigns", Value::Map(by_status)),
        ("campaigns_total", Value::Num(total as f64)),
        ("campaigns_serving", Value::Num(serving as f64)),
    ]))
}

/// `GET /campaigns/{id}/snapshot` — one campaign as a complete,
/// versioned snapshot document (the unit of migration: feed it to
/// `POST /campaigns/restore` on another node).
fn snapshot(registry: &CampaignRegistry, id: CampaignId) -> Response {
    match registry.campaign_to_json(id) {
        Ok(doc) => Response::json(200, doc),
        Err(e) => pricing_error(&e),
    }
}

/// `POST /campaigns/restore` — body is a snapshot document (any format
/// version ever written; single- or multi-campaign). Restored
/// campaigns resume at their exact persisted generation, replacing any
/// record already at the same id.
fn restore(registry: &CampaignRegistry, request: &Request) -> Response {
    match registry.restore_json(&request.body) {
        Ok(ids) => ok(map(vec![
            ("restored", Value::Num(ids.len() as f64)),
            (
                "ids",
                Value::Seq(ids.into_iter().map(|id| Value::Num(id as f64)).collect()),
            ),
        ])),
        Err(e) => pricing_error(&e),
    }
}

/// `POST /admin/drain` / `POST /admin/resume` — raise or lift the
/// migration drain. Idempotent; the response reports the new state.
fn set_drain(state: &AppState, draining: bool) -> Response {
    state.set_draining(draining);
    ok(map(vec![("draining", Value::Bool(draining))]))
}

/// `GET /metrics` — the whole observability plane (registry + HTTP
/// layer). JSON by default; `?format=prometheus` (or `format=text`)
/// switches to the text exposition format scrapers expect.
fn metrics(state: &AppState, request: &Request) -> Response {
    // `?buckets=1` adds each histogram's sparse bucket layer so an
    // aggregating front tier can merge distributions exactly instead of
    // averaging quantiles.
    let buckets = matches!(request.query("buckets"), Some("1") | Some("true"));
    match request.query("format") {
        Some("prometheus") | Some("text") => {
            Response::text(200, state.registry.metrics().to_prometheus())
        }
        None | Some("json") => ok(state.registry.metrics().to_value_with_buckets(buckets)),
        Some(other) => bad_request(&format!(
            "unknown format `{other}` (use json, prometheus or text)"
        )),
    }
}

/// `GET /trace/recent?limit=..` — the most recently completed traces
/// (newest first) plus the per-endpoint slow-trace exemplar index.
fn trace_recent(request: &Request) -> Response {
    let limit = match request.query("limit") {
        None => 32,
        Some(raw) => match raw.parse::<usize>() {
            Ok(limit) => limit,
            Err(_) => return bad_request("`limit` must be a non-negative integer"),
        },
    };
    Response::json(200, ft_trace::recent_json(limit))
}

/// `GET /trace/{id}` — fetch one completed trace by its 16-hex-digit
/// id (the value echoed in `x-ft-trace`). 404s cover both eviction
/// from the bounded store and ids that were never sampled.
fn trace_get(request: &Request) -> Response {
    let raw = request
        .path
        .split('/')
        .filter(|s| !s.is_empty())
        .nth(1)
        .unwrap_or("");
    let Some(id) = ft_trace::parse_trace_id(raw) else {
        return bad_request("trace id must be 1-16 hex digits");
    };
    match ft_trace::find_json(id) {
        Some(body) => Response::json(200, body),
        None => Response::error(
            404,
            "not_found",
            "trace not stored (evicted or never sampled)",
        ),
    }
}

/// `GET /campaigns?limit=..&offset=..` — enumerate the fleet
/// (ascending id) without N point lookups. `offset` skips that many
/// records before `limit` applies, so a client can page through a
/// large fleet; `total` is the full record count and `offset` is
/// echoed back, so every page is self-describing. An offset past the
/// end is an empty page, not an error; malformed values are 400s.
fn campaigns_index(registry: &CampaignRegistry, request: &Request) -> Response {
    let ids = registry.ids();
    let limit = match request.query("limit") {
        None => ids.len(),
        Some(raw) => match raw.parse::<usize>() {
            Ok(limit) => limit,
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
    let campaigns: Vec<Value> = ids
        .iter()
        .skip(offset)
        .take(limit)
        .filter_map(|&id| registry.report(id).ok())
        .map(|report| {
            map(vec![
                ("id", Value::Num(report.id as f64)),
                ("kind", Value::Str(report.kind.clone())),
                ("status", Value::Str(report.status.as_str().into())),
                ("generation", Value::Num(report.generation as f64)),
            ])
        })
        .collect();
    ok(map(vec![
        ("total", Value::Num(ids.len() as f64)),
        ("offset", Value::Num(offset as f64)),
        ("returned", Value::Num(campaigns.len() as f64)),
        ("campaigns", Value::Seq(campaigns)),
    ]))
}

fn parse_body(request: &Request) -> Result<Value, Response> {
    serde_json::from_str::<Value>(&request.body)
        .map_err(|e| bad_request(&format!("invalid JSON body: {e}")))
}

/// `POST /campaigns` — body `{"kind": "deadline"|"budget", "problem":
/// {...}, "eps": ...?, "id": ...?}`. The optional `id` registers (or
/// replaces) the campaign under a caller-chosen id — how a placing
/// front tier keeps one id space across N nodes.
fn create_campaign(registry: &CampaignRegistry, request: &Request) -> Response {
    let body = match parse_body(request) {
        Ok(v) => v,
        Err(r) => return r,
    };
    let Some(fields) = body.as_map() else {
        return bad_request("campaign spec must be a JSON object");
    };
    let Ok(kind) = map_get(fields, "kind") else {
        return bad_request("missing `kind` (\"deadline\" or \"budget\")");
    };
    let Ok(problem) = map_get(fields, "problem") else {
        return bad_request("missing `problem`");
    };
    let spec = match kind.as_str() {
        Some("deadline") => {
            let problem = match DeadlineProblem::from_value(problem) {
                Ok(p) => p,
                Err(e) => return bad_request(&format!("bad deadline problem: {e}")),
            };
            // Non-finite or out-of-range eps falls through to
            // spec.validate() below and answers 400 — silently solving
            // at the default would mislead the client.
            let eps = match map_get(fields, "eps") {
                Ok(v) => match Option::<f64>::from_value(v) {
                    Ok(eps) => eps,
                    Err(e) => return bad_request(&format!("bad eps: {e}")),
                },
                Err(_) => None,
            };
            CampaignSpec::Deadline { problem, eps }
        }
        Some("budget") => {
            let problem = match BudgetProblem::from_value(problem) {
                Ok(p) => p,
                Err(e) => return bad_request(&format!("bad budget problem: {e}")),
            };
            CampaignSpec::Budget { problem }
        }
        _ => return bad_request("`kind` must be \"deadline\" or \"budget\""),
    };
    // Deserialization bypasses the constructors' invariants; reject bad
    // specs here with a 400 instead of letting solve() hit them.
    if let Err(e) = spec.validate() {
        return pricing_error(&e);
    }
    let id = match map_get(fields, "id") {
        Ok(v) => match CampaignId::from_value(v) {
            Ok(id) => {
                registry.register_at(id, spec);
                id
            }
            Err(e) => return bad_request(&format!("bad id: {e}")),
        },
        Err(_) => registry.register(spec),
    };
    created(map(vec![
        ("id", Value::Num(id as f64)),
        ("status", Value::Str("draft".into())),
    ]))
}

/// `POST /campaigns/{id}/solve` — solve the draft and publish
/// generation 1.
///
/// Wave semantics: the solve is admitted into the registry's
/// [`SolveScheduler`](ft_core::SolveScheduler) wave, so concurrent
/// solve requests (a fleet bootstrap, a recalibration storm) share one
/// pmf-row cache per 32-admission wave instead of each rebuilding its
/// own rows. This changes latency (cache-warm solves are cheaper),
/// never bits: the response is identical whether the wave was cold or
/// warm. The endpoint still blocks until *this* campaign's solve
/// completes — admission never waits for other wave members.
fn solve(registry: &CampaignRegistry, id: CampaignId) -> Response {
    match registry.solve(id) {
        Ok(generation) => ok(map(vec![
            ("id", Value::Num(id as f64)),
            ("status", Value::Str("live".into())),
            ("generation", Value::Num(generation.generation as f64)),
        ])),
        Err(e) => pricing_error(&e),
    }
}

/// `GET /campaigns/{id}/price?remaining=..&(interval|budget_cents)=..`
fn price(registry: &CampaignRegistry, id: CampaignId, request: &Request) -> Response {
    let Some(remaining) = request.query("remaining").and_then(|v| v.parse().ok()) else {
        return bad_request("missing or invalid `remaining`");
    };
    let state = match (request.query("interval"), request.query("budget_cents")) {
        (Some(interval), None) => match interval.parse() {
            Ok(interval) => ObservedState::Deadline {
                remaining,
                interval,
            },
            Err(_) => return bad_request("invalid `interval`"),
        },
        (None, Some(cents)) => match cents.parse() {
            Ok(budget_cents) => ObservedState::Budget {
                remaining,
                budget_cents,
            },
            Err(_) => return bad_request("invalid `budget_cents`"),
        },
        _ => {
            return bad_request(
                "pass exactly one of `interval` (deadline) or `budget_cents` (budget)",
            )
        }
    };
    match registry.quote(id, state) {
        Ok(quote) => ok(map(vec![
            ("id", Value::Num(id as f64)),
            ("price", Value::Num(quote.price)),
            ("generation", Value::Num(quote.generation as f64)),
        ])),
        Err(e) => pricing_error(&e),
    }
}

/// `POST /campaigns/{id}/observations` — body
/// `{"interval": t, "completions": k, "posted_cents": c?}` (deadline) or
/// `{"completions": k, "spent_cents": s, "posted_cents": c?,
/// "offers": o?}` (budget; `posted_cents` + `offers` carry the exposure
/// that feeds acceptance-drift recalibration).
fn observe(registry: &CampaignRegistry, id: CampaignId, request: &Request) -> Response {
    let body = match parse_body(request) {
        Ok(v) => v,
        Err(r) => return r,
    };
    let Some(fields) = body.as_map() else {
        return bad_request("observation must be a JSON object");
    };
    match parse_observation(fields) {
        Ok(observation) => match registry.observe(id, observation) {
            Ok(outcome) => ok(outcome_value(id, &outcome)),
            Err(e) => pricing_error(&e),
        },
        Err(r) => r(""),
    }
}

/// The wire form of an [`ft_core::registry::ObserveOutcome`].
fn outcome_value(id: CampaignId, outcome: &ft_core::registry::ObserveOutcome) -> Value {
    map(vec![
        ("id", Value::Num(id as f64)),
        ("status", Value::Str(outcome.status.as_str().into())),
        ("generation", Value::Num(outcome.generation as f64)),
        ("correction", Value::Num(outcome.correction)),
        ("recalibrated", Value::Bool(outcome.recalibrated)),
        ("remaining", Value::Num(f64::from(outcome.remaining))),
    ])
}

/// Parse one observation object (the single-campaign body, minus the
/// path id). Shared by `POST /campaigns/{id}/observations` and the
/// bulk `POST /campaigns/observations`; the error arm is a deferred
/// 400 builder so bulk callers can prefix the failing item's index.
#[allow(clippy::type_complexity)]
fn parse_observation(
    fields: &[(String, Value)],
) -> Result<CampaignObservation, Box<dyn Fn(&str) -> Response>> {
    fn fail(message: String) -> Box<dyn Fn(&str) -> Response> {
        Box::new(move |at| bad_request(&format!("{at}{message}")))
    }
    let Ok(completions) = map_get(fields, "completions").and_then(u64::from_value) else {
        return Err(fail("missing or invalid `completions`".into()));
    };
    match (map_get(fields, "interval"), map_get(fields, "spent_cents")) {
        (Ok(interval), Err(_)) => {
            let Ok(interval) = usize::from_value(interval) else {
                return Err(fail("invalid `interval`".into()));
            };
            let posted = match map_get(fields, "posted_cents") {
                Ok(v) => match Option::<f64>::from_value(v) {
                    Ok(p) => p,
                    Err(e) => return Err(fail(format!("bad posted_cents: {e}"))),
                },
                Err(_) => None,
            };
            Ok(CampaignObservation::Deadline {
                interval,
                completions,
                posted,
            })
        }
        (Err(_), Ok(spent)) => {
            let Ok(spent_cents) = usize::from_value(spent) else {
                return Err(fail("invalid `spent_cents`".into()));
            };
            // Optional exposure fields feeding the acceptance-drift
            // recalibrator: how many workers saw the posted price.
            let posted = match map_get(fields, "posted_cents") {
                Ok(v) => match Option::<f64>::from_value(v) {
                    Ok(p) => p,
                    Err(e) => return Err(fail(format!("bad posted_cents: {e}"))),
                },
                Err(_) => None,
            };
            let offers = match map_get(fields, "offers") {
                Ok(v) => match Option::<u64>::from_value(v) {
                    Ok(o) => o,
                    Err(e) => return Err(fail(format!("bad offers: {e}"))),
                },
                Err(_) => None,
            };
            Ok(CampaignObservation::Budget {
                completions,
                spent_cents,
                posted,
                offers,
            })
        }
        _ => Err(fail(
            "pass exactly one of `interval` (deadline) or `spent_cents` (budget)".into(),
        )),
    }
}

/// How many items one bulk request may carry. Far above any sane
/// batch, low enough that a single request can't monopolise a worker
/// for seconds or balloon the response buffer. `ft-router` enforces
/// the same cap before it splits a batch.
pub const MAX_BULK_ITEMS: usize = 1024;

/// Pull the `items` array out of a bulk body, enforcing shape + cap.
fn bulk_items<'v>(body: &'v Value, key: &str) -> Result<&'v [Value], Response> {
    let Some(fields) = body.as_map() else {
        return Err(bad_request("bulk request must be a JSON object"));
    };
    let Ok(items) = map_get(fields, key) else {
        return Err(bad_request(&format!("missing `{key}` array")));
    };
    let Some(items) = items.as_seq() else {
        return Err(bad_request(&format!("`{key}` must be an array")));
    };
    if items.len() > MAX_BULK_ITEMS {
        return Err(bad_request(&format!(
            "`{key}` has {} items (max {MAX_BULK_ITEMS})",
            items.len()
        )));
    }
    Ok(items)
}

/// The `id` field every bulk item carries.
fn bulk_item_id(fields: &[(String, Value)], index: usize) -> Result<CampaignId, Response> {
    match map_get(fields, "id").and_then(CampaignId::from_value) {
        Ok(id) => Ok(id),
        Err(_) => Err(bad_request(&format!(
            "item {index}: missing or invalid `id`"
        ))),
    }
}

/// A per-item pricing failure, reported inline in a bulk response so
/// one bad item doesn't fail its siblings.
fn bulk_error_value(id: CampaignId, error: &PricingError) -> Value {
    let kind = error_kind(error);
    map(vec![
        ("id", Value::Num(id as f64)),
        ("error", Value::Str(kind.into())),
        ("message", Value::Str(error.to_string())),
        ("status", Value::Num(f64::from(status_for(error)))),
    ])
}

/// `POST /campaigns/quotes` — body `{"quotes": [{"id": .., "remaining":
/// .., "interval": ..|"budget_cents": ..}, ...]}`: N price quotes in
/// one round trip, answered by [`CampaignRegistry::quote_many`] (one
/// handle resolution per unique id). Malformed item *structure* fails
/// the whole request with a 400 naming the item; per-item *pricing*
/// errors come back inline so one exhausted campaign doesn't fail the
/// batch.
fn campaigns_quotes(registry: &CampaignRegistry, request: &Request) -> Response {
    let body = match parse_body(request) {
        Ok(v) => v,
        Err(r) => return r,
    };
    let items = match bulk_items(&body, "quotes") {
        Ok(items) => items,
        Err(r) => return r,
    };
    let mut batch: Vec<(CampaignId, ObservedState)> = Vec::with_capacity(items.len());
    for (index, item) in items.iter().enumerate() {
        let Some(fields) = item.as_map() else {
            return bad_request(&format!("item {index}: must be a JSON object"));
        };
        let id = match bulk_item_id(fields, index) {
            Ok(id) => id,
            Err(r) => return r,
        };
        let Ok(remaining) = map_get(fields, "remaining").and_then(u32::from_value) else {
            return bad_request(&format!("item {index}: missing or invalid `remaining`"));
        };
        let state = match (map_get(fields, "interval"), map_get(fields, "budget_cents")) {
            (Ok(interval), Err(_)) => match usize::from_value(interval) {
                Ok(interval) => ObservedState::Deadline {
                    remaining,
                    interval,
                },
                Err(_) => return bad_request(&format!("item {index}: invalid `interval`")),
            },
            (Err(_), Ok(cents)) => match usize::from_value(cents) {
                Ok(budget_cents) => ObservedState::Budget {
                    remaining,
                    budget_cents,
                },
                Err(_) => return bad_request(&format!("item {index}: invalid `budget_cents`")),
            },
            _ => {
                return bad_request(&format!(
                    "item {index}: pass exactly one of `interval` (deadline) or \
                     `budget_cents` (budget)"
                ))
            }
        };
        batch.push((id, state));
    }
    let results: Vec<Value> = registry
        .quote_many(&batch)
        .into_iter()
        .zip(&batch)
        .map(|(result, &(id, _))| match result {
            Ok(quote) => map(vec![
                ("id", Value::Num(id as f64)),
                ("price", Value::Num(quote.price)),
                ("generation", Value::Num(quote.generation as f64)),
            ]),
            Err(e) => bulk_error_value(id, &e),
        })
        .collect();
    ok(map(vec![
        ("count", Value::Num(results.len() as f64)),
        ("results", Value::Seq(results)),
    ]))
}

/// `POST /campaigns/observations` — body `{"observations": [{"id": ..,
/// ...single-observation fields...}, ...]}`: N observation reports in
/// one round trip via [`CampaignRegistry::observe_many`]. Same error
/// split as the bulk quote endpoint: structural problems are a
/// request-level 400 naming the item, pricing errors answer inline.
fn campaigns_observe(registry: &CampaignRegistry, request: &Request) -> Response {
    let body = match parse_body(request) {
        Ok(v) => v,
        Err(r) => return r,
    };
    let items = match bulk_items(&body, "observations") {
        Ok(items) => items,
        Err(r) => return r,
    };
    let mut batch: Vec<(CampaignId, CampaignObservation)> = Vec::with_capacity(items.len());
    for (index, item) in items.iter().enumerate() {
        let Some(fields) = item.as_map() else {
            return bad_request(&format!("item {index}: must be a JSON object"));
        };
        let id = match bulk_item_id(fields, index) {
            Ok(id) => id,
            Err(r) => return r,
        };
        match parse_observation(fields) {
            Ok(observation) => batch.push((id, observation)),
            Err(r) => return r(&format!("item {index}: ")),
        }
    }
    let ids: Vec<CampaignId> = batch.iter().map(|&(id, _)| id).collect();
    let results: Vec<Value> = registry
        .observe_many(batch)
        .into_iter()
        .zip(ids)
        .map(|(result, id)| match result {
            Ok(outcome) => outcome_value(id, &outcome),
            Err(e) => bulk_error_value(id, &e),
        })
        .collect();
    ok(map(vec![
        ("count", Value::Num(results.len() as f64)),
        ("results", Value::Seq(results)),
    ]))
}

fn report(registry: &CampaignRegistry, id: CampaignId) -> Response {
    match registry.report(id) {
        Ok(report) => {
            // CampaignReport derives Serialize; rewrite the status enum
            // tag to its lower-case wire form.
            let mut value = report.to_value();
            if let Value::Map(entries) = &mut value {
                for (key, v) in entries.iter_mut() {
                    if key == "status" {
                        *v = Value::Str(report.status.as_str().into());
                    }
                }
            }
            ok(value)
        }
        Err(e) => pricing_error(&e),
    }
}

fn delete(registry: &CampaignRegistry, id: CampaignId) -> Response {
    // Idempotent: deleting a tombstone is fine, an unknown id is 404.
    match registry.report(id) {
        Err(e) => pricing_error(&e),
        Ok(_) => {
            registry.evict(id);
            ok(map(vec![
                ("id", Value::Num(id as f64)),
                ("status", Value::Str("evicted".into())),
            ]))
        }
    }
}
