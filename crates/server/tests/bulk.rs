//! The batched quote / observation API over a real socket:
//! `POST /campaigns/quotes` answers N price lookups in one round trip
//! (mixed campaign kinds, inline per-item errors), and
//! `POST /campaigns/observations` batches telemetry reports the same
//! way. Structural errors name the offending item and fail the whole
//! request; pricing errors ride inline so one bad item can't sink its
//! siblings.

use ft_core::registry::CampaignRegistry;
use ft_core::{ActionSet, BudgetProblem, DeadlineProblem, PenaltyModel};
use ft_market::{ConstantRate, LogitAcceptance, PriceGrid};
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

fn results(body: &Value) -> &[Value] {
    map_get(body.as_map().expect("object"), "results")
        .expect("results")
        .as_seq()
        .expect("results array")
}

/// Spin up a server with one solved deadline campaign and one solved
/// budget campaign; returns `(addr, deadline_id, budget_id, ...)`.
fn serve_two_kinds() -> (
    SocketAddr,
    u64,
    u64,
    ft_server::ServerHandle,
    std::thread::JoinHandle<()>,
) {
    let registry = Arc::new(CampaignRegistry::new());
    let (handle, join) = Server::spawn("127.0.0.1:0", Arc::clone(&registry)).expect("bind");
    let addr = handle.addr();

    let deadline = DeadlineProblem::from_market(
        20,
        4.0,
        12,
        &ConstantRate::new(150.0),
        PriceGrid::new(0, 20),
        &LogitAcceptance::new(4.0, 0.0, 30.0),
        PenaltyModel::Linear { per_task: 500.0 },
    );
    let spec = format!(
        "{{\"kind\":\"deadline\",\"problem\":{}}}",
        serde_json::to_string(&deadline.to_value()).expect("json")
    );
    let (status, body) = request(addr, "POST", "/campaigns", Some(&spec));
    assert_eq!(status, 201);
    let deadline_id = num(&body, "id") as u64;

    let acc = LogitAcceptance::new(4.0, 0.0, 20.0);
    let budget = BudgetProblem::new(
        10,
        60.0,
        ActionSet::from_grid(PriceGrid::new(1, 12), &acc),
        100.0,
    );
    let spec = format!(
        "{{\"kind\":\"budget\",\"problem\":{}}}",
        serde_json::to_string(&budget.to_value()).expect("json")
    );
    let (status, body) = request(addr, "POST", "/campaigns", Some(&spec));
    assert_eq!(status, 201);
    let budget_id = num(&body, "id") as u64;

    for id in [deadline_id, budget_id] {
        let (status, _) = request(addr, "POST", &format!("/campaigns/{id}/solve"), None);
        assert_eq!(status, 200);
    }
    (addr, deadline_id, budget_id, handle, join)
}

#[test]
fn bulk_quotes_mix_kinds_and_report_errors_inline() {
    let (addr, deadline_id, budget_id, handle, join) = serve_two_kinds();

    // The batch mixes kinds, repeats a campaign, and includes an
    // unknown id — which must fail inline, not fail the request.
    let body = format!(
        "{{\"quotes\":[\
         {{\"id\":{deadline_id},\"remaining\":20,\"interval\":0}},\
         {{\"id\":{budget_id},\"remaining\":10,\"budget_cents\":60}},\
         {{\"id\":{deadline_id},\"remaining\":10,\"interval\":3}},\
         {{\"id\":999,\"remaining\":1,\"interval\":0}}\
         ]}}"
    );
    let (status, reply) = request(addr, "POST", "/campaigns/quotes", Some(&body));
    assert_eq!(status, 200, "bulk quote failed: {reply:?}");
    assert_eq!(num(&reply, "count"), 4.0);
    let items = results(&reply);

    // Successful items match the single-quote endpoint exactly.
    let (_, single) = request(
        addr,
        "GET",
        &format!("/campaigns/{deadline_id}/price?remaining=20&interval=0"),
        None,
    );
    assert_eq!(num(&items[0], "price"), num(&single, "price"));
    assert_eq!(num(&items[0], "generation"), num(&single, "generation"));
    assert!(num(&items[1], "price") >= 1.0);
    assert_eq!(num(&items[2], "id"), deadline_id as f64);

    // The unknown id answers inline with its would-be status.
    assert_eq!(num(&items[3], "id"), 999.0);
    assert_eq!(text(&items[3], "error"), "unknown_campaign");
    assert_eq!(num(&items[3], "status"), 404.0);

    // The registry counted every quote attempt (4 bulk + 1 single).
    let (_, metrics) = request(addr, "GET", "/metrics", None);
    assert_eq!(num(&metrics, "ft_core_quotes_total"), 5.0);
    assert_eq!(num(&metrics, "ft_core_quote_errors_total"), 1.0);

    handle.shutdown();
    join.join().expect("server thread");
}

#[test]
fn bulk_quote_structural_errors_name_the_item() {
    let (addr, deadline_id, _, handle, join) = serve_two_kinds();

    // Missing `remaining` on item 1 → request-level 400 naming it.
    let body = format!(
        "{{\"quotes\":[\
         {{\"id\":{deadline_id},\"remaining\":5,\"interval\":0}},\
         {{\"id\":{deadline_id},\"interval\":0}}\
         ]}}"
    );
    let (status, reply) = request(addr, "POST", "/campaigns/quotes", Some(&body));
    assert_eq!(status, 400);
    assert!(
        text(&reply, "message").contains("item 1"),
        "400 does not name the item: {reply:?}"
    );

    // Both-kinds item → 400 naming the exactly-one-of rule.
    let body = format!(
        "{{\"quotes\":[{{\"id\":{deadline_id},\"remaining\":5,\"interval\":0,\"budget_cents\":9}}]}}"
    );
    let (status, reply) = request(addr, "POST", "/campaigns/quotes", Some(&body));
    assert_eq!(status, 400);
    assert!(text(&reply, "message").contains("exactly one of"));

    // Not an array → 400; over the item cap → 400.
    let (status, _) = request(addr, "POST", "/campaigns/quotes", Some("{\"quotes\":7}"));
    assert_eq!(status, 400);
    let oversized = format!(
        "{{\"quotes\":[{}]}}",
        vec![format!("{{\"id\":{deadline_id},\"remaining\":1,\"interval\":0}}"); 1025].join(",")
    );
    let (status, reply) = request(addr, "POST", "/campaigns/quotes", Some(&oversized));
    assert_eq!(status, 400);
    assert!(text(&reply, "message").contains("max 1024"));

    handle.shutdown();
    join.join().expect("server thread");
}

#[test]
fn bulk_observations_batch_telemetry_reports() {
    let (addr, deadline_id, budget_id, handle, join) = serve_two_kinds();

    let body = format!(
        "{{\"observations\":[\
         {{\"id\":{deadline_id},\"interval\":0,\"completions\":2}},\
         {{\"id\":{budget_id},\"completions\":1,\"spent_cents\":6}},\
         {{\"id\":424242,\"interval\":0,\"completions\":1}}\
         ]}}"
    );
    let (status, reply) = request(addr, "POST", "/campaigns/observations", Some(&body));
    assert_eq!(status, 200, "bulk observe failed: {reply:?}");
    assert_eq!(num(&reply, "count"), 3.0);
    let items = results(&reply);
    assert_eq!(text(&items[0], "status"), "live");
    assert_eq!(num(&items[0], "remaining"), 18.0);
    assert_eq!(text(&items[1], "status"), "live");
    assert_eq!(num(&items[1], "remaining"), 9.0);
    assert_eq!(text(&items[2], "error"), "unknown_campaign");

    // Structural failure names its item (bad mixed kind on item 0).
    let body = format!("{{\"observations\":[{{\"id\":{deadline_id},\"completions\":1}}]}}");
    let (status, reply) = request(addr, "POST", "/campaigns/observations", Some(&body));
    assert_eq!(status, 400);
    assert!(
        text(&reply, "message").contains("item 0"),
        "400 does not name the item: {reply:?}"
    );

    // The single-campaign endpoint still agrees with the bulk plane.
    let (status, single) = request(
        addr,
        "POST",
        &format!("/campaigns/{deadline_id}/observations"),
        Some("{\"interval\":1,\"completions\":3}"),
    );
    assert_eq!(status, 200);
    assert_eq!(num(&single, "remaining"), 15.0);

    handle.shutdown();
    join.join().expect("server thread");
}

#[test]
fn negative_counts_are_400s_not_saturated_to_zero() {
    let (addr, deadline_id, _, handle, join) = serve_two_kinds();

    let body = format!("{{\"quotes\":[{{\"id\":{deadline_id},\"remaining\":-3,\"interval\":0}}]}}");
    let (status, reply) = request(addr, "POST", "/campaigns/quotes", Some(&body));
    assert_eq!(status, 400, "{reply:?}");
    assert!(
        text(&reply, "message").contains("item 0"),
        "400 does not name the item: {reply:?}"
    );

    let (status, reply) = request(
        addr,
        "POST",
        &format!("/campaigns/{deadline_id}/observations"),
        Some("{\"interval\":0,\"completions\":-5}"),
    );
    assert_eq!(status, 400, "{reply:?}");
    assert!(text(&reply, "message").contains("completions"), "{reply:?}");

    handle.shutdown();
    join.join().expect("server thread");
}
