//! Request-scoped tracing over a real socket: `x-ft-trace` ids are
//! echoed on unit and bulk endpoints, `GET /trace/{id}` returns the
//! span tree for a tagged request, children nest strictly inside
//! their parents, and a recalibrating observation's trace covers the
//! whole stack — server → registry → engine → kernel → exec — with
//! the reactor hand-off attributed as a `queue_wait` span.

use ft_core::adaptive::AdaptiveOptions;
use ft_core::registry::CampaignRegistry;
use ft_core::{DeadlineProblem, KernelConfig, PenaltyModel};
use ft_market::{ConstantRate, LogitAcceptance, PriceGrid};
use ft_server::client::Client;
use ft_server::Server;
use serde::{map_get, Serialize, Value};
use std::net::SocketAddr;
use std::sync::Arc;

fn request(addr: SocketAddr, method: &str, path: &str, body: Option<&str>) -> (u16, Value) {
    let (status, body) = ft_server::client::request(addr, method, path, body).expect("request");
    (status, serde_json::from_str::<Value>(&body).expect("json"))
}

fn num(value: &Value, key: &str) -> f64 {
    map_get(value.as_map().expect("object"), key)
        .unwrap_or_else(|_| panic!("missing {key} in {value:?}"))
        .as_num()
        .unwrap_or_else(|| panic!("{key} not a number in {value:?}"))
}

fn text<'v>(value: &'v Value, key: &str) -> &'v str {
    map_get(value.as_map().expect("object"), key)
        .unwrap_or_else(|_| panic!("missing {key} in {value:?}"))
        .as_str()
        .unwrap_or_else(|| panic!("{key} not a string in {value:?}"))
}

fn problem() -> DeadlineProblem {
    DeadlineProblem::from_market(
        20,
        4.0,
        12,
        &ConstantRate::new(150.0),
        PriceGrid::new(0, 20),
        &LogitAcceptance::new(4.0, 0.0, 30.0),
        PenaltyModel::Linear { per_task: 500.0 },
    )
}

/// Spawn a server with one solved deadline campaign on an aggressive
/// recalibration cadence; returns `(addr, campaign_id, ...)`.
fn serve_one() -> (
    SocketAddr,
    u64,
    ft_server::ServerHandle,
    std::thread::JoinHandle<()>,
) {
    let registry = Arc::new(CampaignRegistry::with_config(
        KernelConfig::default(),
        AdaptiveOptions {
            resolve_every: 3,
            ..AdaptiveOptions::default()
        },
    ));
    let (handle, join) = Server::spawn("127.0.0.1:0", registry).expect("bind");
    let addr = handle.addr();
    let problem_json = serde_json::to_string(&problem().to_value()).expect("problem json");
    let spec = format!("{{\"kind\":\"deadline\",\"problem\":{problem_json},\"eps\":1e-9}}");
    let (status, body) = request(addr, "POST", "/campaigns", Some(&spec));
    assert_eq!(status, 201, "create failed: {body:?}");
    let id = num(&body, "id") as u64;
    let (status, _) = request(addr, "POST", &format!("/campaigns/{id}/solve"), None);
    assert_eq!(status, 200);
    (addr, id, handle, join)
}

/// One parsed span from a `GET /trace/{id}` body.
#[derive(Debug)]
struct Span {
    span_id: u64,
    parent_id: u64,
    name: String,
    start_ns: u64,
    end_ns: u64,
}

fn spans_of(trace: &Value) -> Vec<Span> {
    map_get(trace.as_map().expect("trace object"), "spans")
        .expect("spans")
        .as_seq()
        .expect("spans array")
        .iter()
        .map(|span| Span {
            span_id: num(span, "span_id") as u64,
            parent_id: num(span, "parent_id") as u64,
            name: text(span, "name").to_string(),
            start_ns: num(span, "start_ns") as u64,
            end_ns: num(span, "end_ns") as u64,
        })
        .collect()
}

/// Well-formedness shared by every trace: exactly one root named
/// `server.request.serve`, every parent link resolves, and each
/// child's `[start, end]` window nests strictly inside its parent's.
fn assert_well_formed(spans: &[Span]) {
    assert!(!spans.is_empty(), "trace has no spans");
    let roots: Vec<&Span> = spans.iter().filter(|s| s.parent_id == 0).collect();
    assert_eq!(roots.len(), 1, "expected one root span: {roots:?}");
    assert_eq!(roots[0].name, "server.request.serve");
    for span in spans {
        assert!(
            span.end_ns >= span.start_ns,
            "span ends before start: {span:?}"
        );
        if span.parent_id == 0 {
            continue;
        }
        let parent = spans
            .iter()
            .find(|p| p.span_id == span.parent_id)
            .unwrap_or_else(|| panic!("dangling parent link: {span:?}"));
        assert!(
            span.start_ns >= parent.start_ns && span.end_ns <= parent.end_ns,
            "child not nested in parent:\n  child  {span:?}\n  parent {parent:?}"
        );
    }
}

#[test]
fn x_ft_trace_echoed_on_unit_and_bulk_endpoints() {
    let (addr, id, handle, join) = serve_one();
    let mut client = Client::new(addr);

    // Unit endpoint: the id we tag the price lookup with comes back
    // on the response, and GET /trace/{id} resolves it afterwards.
    let unit_id = ft_trace::next_trace_id();
    let (status, _, echoed) = client
        .request_traced(
            "GET",
            &format!("/campaigns/{id}/price?remaining=20&interval=0"),
            None,
            Some(unit_id),
        )
        .expect("traced price");
    assert_eq!(status, 200);
    assert_eq!(echoed, Some(unit_id), "unit endpoint must echo x-ft-trace");

    // Bulk endpoint: same contract on the batched quote plane.
    let bulk_id = ft_trace::next_trace_id();
    let body = format!(
        "{{\"quotes\":[\
         {{\"id\":{id},\"remaining\":20,\"interval\":0}},\
         {{\"id\":{id},\"remaining\":10,\"interval\":3}}\
         ]}}"
    );
    let (status, _, echoed) = client
        .request_traced("POST", "/campaigns/quotes", Some(&body), Some(bulk_id))
        .expect("traced bulk quote");
    assert_eq!(status, 200);
    assert_eq!(echoed, Some(bulk_id), "bulk endpoint must echo x-ft-trace");

    // Both tagged requests are retrievable as well-formed span trees.
    for trace_id in [unit_id, bulk_id] {
        let (status, trace) = request(addr, "GET", &format!("/trace/{trace_id:016x}"), None);
        assert_eq!(status, 200, "trace not stored: {trace:?}");
        assert_eq!(text(&trace, "trace_id"), format!("{trace_id:016x}"));
        assert_well_formed(&spans_of(&trace));
    }

    // Untagged ids are a 404, not a 500; garbage is a 400.
    let (status, _) = request(addr, "GET", "/trace/ffffffffffffffff", None);
    assert_eq!(status, 404);
    let (status, _) = request(addr, "GET", "/trace/not-hex", None);
    assert_eq!(status, 400);

    handle.shutdown();
    join.join().expect("server thread");
}

#[test]
fn recalibrating_trace_spans_server_registry_engine_kernel_exec() {
    let (addr, id, handle, join) = serve_one();
    let mut client = Client::new(addr);

    // Observe heavy drift with a tagged id on every report; remember
    // the id of the observation whose reply shows the generation bump
    // — that request carried the recalibration inline.
    let mut recalibrating_id = None;
    let mut generation = 1.0;
    for interval in 0..6 {
        let trace_id = ft_trace::next_trace_id();
        let obs = format!("{{\"interval\":{interval},\"completions\":1}}");
        let (status, body, echoed) = client
            .request_traced(
                "POST",
                &format!("/campaigns/{id}/observations"),
                Some(&obs),
                Some(trace_id),
            )
            .expect("traced observe");
        assert_eq!(status, 200, "observe failed: {body}");
        assert_eq!(echoed, Some(trace_id));
        let body = serde_json::from_str::<Value>(&body).expect("json");
        let next_generation = num(&body, "generation");
        if next_generation > generation && recalibrating_id.is_none() {
            recalibrating_id = Some(trace_id);
        }
        generation = next_generation;
    }
    let trace_id = recalibrating_id.expect("no recalibration after 6 drifted intervals");

    // The acceptance bar: the recalibrating request's trace shows the
    // full stack, with the reactor hand-off attributed as queue-wait.
    let (status, trace) = request(addr, "GET", &format!("/trace/{trace_id:016x}"), None);
    assert_eq!(status, 200, "recalibrating trace not stored: {trace:?}");
    let spans = spans_of(&trace);
    assert_well_formed(&spans);
    for expected in [
        "server.request.serve",      // server: root request span
        "server.reactor.queue_wait", // server: accept→worker hand-off
        "core.registry.observe",     // registry: report ingestion
        "core.engine.observe",       // engine: kind-polymorphic update
        "core.registry.recalibrate", // registry: drift-triggered resolve
        "core.kernel.build_rows",    // kernel: pmf row construction
        "core.kernel.induct_layer",  // kernel: DP layer induction
        "core.kernel.sweep",         // kernel: monotone sweep
        "exec.pool.dispatch",        // exec: fork-join region
        "core.registry.publish",     // registry: generation swap
    ] {
        assert!(
            spans.iter().any(|s| s.name == expected),
            "missing {expected} in recalibrating trace; got: {:?}",
            spans.iter().map(|s| s.name.as_str()).collect::<Vec<_>>()
        );
    }

    // The same id is surfaced as the slow-trace exemplar for the
    // observe endpoint once it is the slowest thing that op has seen.
    let (status, metrics) = request(addr, "GET", "/metrics", None);
    assert_eq!(status, 200);
    let rendered = serde_json::to_string(&metrics).expect("metrics json");
    assert!(
        rendered.contains("exemplar_trace_id"),
        "/metrics carries no exemplar_trace_id field"
    );

    handle.shutdown();
    join.join().expect("server thread");
}
