//! The acceptance-bar integration test: drive the full campaign
//! lifecycle over a real TCP socket — create → solve → price → observe
//! drift → recalibrated price changes generation → snapshot save/load →
//! price survives restart — using only std + the vendored shims.

use ft_core::adaptive::AdaptiveOptions;
use ft_core::registry::CampaignRegistry;
use ft_core::{DeadlineProblem, KernelConfig, PenaltyModel};
use ft_market::{ConstantRate, LogitAcceptance, PriceGrid};
use ft_server::Server;
use serde::{map_get, Serialize, Value};
use std::net::SocketAddr;
use std::sync::Arc;

/// One request over a fresh connection, JSON-decoded.
fn request(addr: SocketAddr, method: &str, path: &str, body: Option<&str>) -> (u16, Value) {
    let (status, body) = ft_server::client::request(addr, method, path, body).expect("request");
    let value = serde_json::from_str::<Value>(&body).expect("JSON body");
    (status, value)
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

fn registry() -> Arc<CampaignRegistry> {
    // Aggressive recalibration so drift shows up within a short test.
    Arc::new(CampaignRegistry::with_config(
        KernelConfig::default(),
        AdaptiveOptions {
            resolve_every: 3,
            ..AdaptiveOptions::default()
        },
    ))
}

#[test]
fn full_lifecycle_over_a_real_socket() {
    let registry_a = registry();
    let (handle, join) =
        Server::spawn("127.0.0.1:0", Arc::clone(&registry_a)).expect("bind server");
    let addr = handle.addr();

    // Liveness first: uptime, build version and an empty fleet.
    let (status, body) = request(addr, "GET", "/healthz", None);
    assert_eq!(status, 200);
    assert_eq!(text(&body, "status"), "ok");
    assert_eq!(text(&body, "version"), env!("CARGO_PKG_VERSION"));
    assert!(num(&body, "uptime_seconds") >= 0.0);
    assert_eq!(num(&body, "campaigns_total"), 0.0);
    assert_eq!(num(&body, "campaigns_serving"), 0.0);
    let by_status = map_get(body.as_map().unwrap(), "campaigns")
        .expect("campaigns map")
        .as_map()
        .expect("status counts object");
    for status_name in [
        "draft",
        "solving",
        "live",
        "recalibrating",
        "exhausted",
        "evicted",
    ] {
        assert_eq!(
            map_get(by_status, status_name).unwrap(),
            &Value::Num(0.0),
            "fresh server has no {status_name} campaigns"
        );
    }

    // Create: POST the spec (problem JSON straight from the serde
    // encoding of DeadlineProblem).
    let problem_json = serde_json::to_string(&problem().to_value()).expect("problem json");
    let spec = format!("{{\"kind\":\"deadline\",\"problem\":{problem_json},\"eps\":1e-9}}");
    let (status, body) = request(addr, "POST", "/campaigns", Some(&spec));
    assert_eq!(status, 201, "create failed: {body:?}");
    assert_eq!(text(&body, "status"), "draft");
    let id = num(&body, "id") as u64;

    // Status shows the draft; price is a structured 409 before solving.
    let (status, body) = request(addr, "GET", &format!("/campaigns/{id}"), None);
    assert_eq!(status, 200);
    assert_eq!(text(&body, "status"), "draft");
    let (status, body) = request(
        addr,
        "GET",
        &format!("/campaigns/{id}/price?remaining=20&interval=0"),
        None,
    );
    assert_eq!(status, 409);
    assert_eq!(text(&body, "error"), "not_servable");

    // Solve → live at generation 1.
    let (status, body) = request(addr, "POST", &format!("/campaigns/{id}/solve"), None);
    assert_eq!(status, 200, "solve failed: {body:?}");
    assert_eq!(text(&body, "status"), "live");
    assert_eq!(num(&body, "generation"), 1.0);
    // Double-solve is a conflict.
    let (status, _) = request(addr, "POST", &format!("/campaigns/{id}/solve"), None);
    assert_eq!(status, 409);

    // Price from generation 1.
    let (status, body) = request(
        addr,
        "GET",
        &format!("/campaigns/{id}/price?remaining=20&interval=0"),
        None,
    );
    assert_eq!(status, 200);
    assert_eq!(num(&body, "generation"), 1.0);
    let initial_price = num(&body, "price");
    assert!(initial_price >= 0.0);

    // Observe heavy drift (almost no completions vs the trained model)
    // until a recalibration bumps the generation.
    let mut generation = 1.0;
    let mut correction = 1.0;
    for interval in 0..6 {
        let obs = format!("{{\"interval\":{interval},\"completions\":1}}");
        let (status, body) = request(
            addr,
            "POST",
            &format!("/campaigns/{id}/observations"),
            Some(&obs),
        );
        assert_eq!(status, 200, "observe failed: {body:?}");
        generation = num(&body, "generation");
        correction = num(&body, "correction");
    }
    assert!(generation >= 2.0, "no recalibration after 6 intervals");
    assert!(correction < 1.0, "drift did not lower ρ̂: {correction}");

    // The recalibrated price is served under the new generation.
    let (status, body) = request(
        addr,
        "GET",
        &format!("/campaigns/{id}/price?remaining=14&interval=6"),
        None,
    );
    assert_eq!(status, 200);
    assert_eq!(num(&body, "generation"), generation);
    let recalibrated_price = num(&body, "price");

    // Diagnostics reflect the recalibration.
    let (status, body) = request(addr, "GET", &format!("/campaigns/{id}"), None);
    assert_eq!(status, 200);
    assert_eq!(text(&body, "status"), "live");
    assert_eq!(num(&body, "generation"), generation);
    assert_eq!(num(&body, "observations"), 6.0);
    assert!(num(&body, "policy_start") > 0.0);

    // Error surface: unknown campaign → 404, kind mismatch → 400.
    let (status, body) = request(
        addr,
        "GET",
        "/campaigns/999999/price?remaining=1&interval=0",
        None,
    );
    assert_eq!(status, 404);
    assert_eq!(text(&body, "error"), "unknown_campaign");
    let (status, body) = request(
        addr,
        "GET",
        &format!("/campaigns/{id}/price?remaining=1&budget_cents=50"),
        None,
    );
    assert_eq!(status, 400);
    assert_eq!(text(&body, "error"), "state_kind_mismatch");

    // Snapshot, shut the server down, restore into a fresh registry and
    // serve again: the recalibrated price and generation must survive.
    let snapshot_path = std::env::temp_dir().join(format!("ft-server-lifecycle-{id}.json"));
    registry_a.save(&snapshot_path).expect("snapshot save");
    handle.shutdown();
    join.join().expect("server thread");

    let restored = Arc::new(
        CampaignRegistry::load(
            &snapshot_path,
            KernelConfig::default(),
            AdaptiveOptions::default(),
        )
        .expect("snapshot load"),
    );
    std::fs::remove_file(&snapshot_path).ok();
    let (handle, join) = Server::spawn("127.0.0.1:0", Arc::clone(&restored)).expect("rebind");
    let addr = handle.addr();

    let (status, body) = request(
        addr,
        "GET",
        &format!("/campaigns/{id}/price?remaining=14&interval=6"),
        None,
    );
    assert_eq!(status, 200, "price after restart failed: {body:?}");
    assert_eq!(
        num(&body, "generation"),
        generation,
        "generation lost in restart"
    );
    assert_eq!(
        num(&body, "price"),
        recalibrated_price,
        "price lost in restart"
    );
    // Observations keep flowing after the restart.
    let (status, body) = request(
        addr,
        "POST",
        &format!("/campaigns/{id}/observations"),
        Some("{\"interval\":6,\"completions\":1}"),
    );
    assert_eq!(status, 200, "observe after restart failed: {body:?}");

    // Delete: tombstone + structured 409 afterwards, healthz still fine.
    let (status, body) = request(addr, "DELETE", &format!("/campaigns/{id}"), None);
    assert_eq!(status, 200);
    assert_eq!(text(&body, "status"), "evicted");
    let (status, body) = request(
        addr,
        "GET",
        &format!("/campaigns/{id}/price?remaining=14&interval=6"),
        None,
    );
    assert_eq!(status, 409);
    assert_eq!(text(&body, "error"), "not_servable");
    let (status, body) = request(addr, "GET", "/healthz", None);
    assert_eq!(status, 200);
    // The tombstone still counts as a record; nothing is serving.
    assert_eq!(num(&body, "campaigns_total"), 1.0);
    assert_eq!(num(&body, "campaigns_serving"), 0.0);
    let by_status = map_get(body.as_map().unwrap(), "campaigns")
        .expect("campaigns map")
        .as_map()
        .expect("status counts object");
    assert_eq!(map_get(by_status, "evicted").unwrap(), &Value::Num(1.0));
    assert_eq!(map_get(by_status, "live").unwrap(), &Value::Num(0.0));

    handle.shutdown();
    join.join().expect("server thread");
}

#[test]
fn budget_campaign_over_the_wire() {
    let registry = registry();
    let (handle, join) = Server::spawn("127.0.0.1:0", Arc::clone(&registry)).expect("bind");
    let addr = handle.addr();

    let acc = LogitAcceptance::new(4.0, 0.0, 20.0);
    let problem = ft_core::BudgetProblem::new(
        10,
        60.0,
        ft_core::ActionSet::from_grid(PriceGrid::new(1, 12), &acc),
        100.0,
    );
    let problem_json = serde_json::to_string(&problem.to_value()).expect("problem json");
    let spec = format!("{{\"kind\":\"budget\",\"problem\":{problem_json}}}");
    let (status, body) = request(addr, "POST", "/campaigns", Some(&spec));
    assert_eq!(status, 201, "create failed: {body:?}");
    let id = num(&body, "id") as u64;
    let (status, _) = request(addr, "POST", &format!("/campaigns/{id}/solve"), None);
    assert_eq!(status, 200);

    // Quote on and off plan.
    let (status, body) = request(
        addr,
        "GET",
        &format!("/campaigns/{id}/price?remaining=10&budget_cents=60"),
        None,
    );
    assert_eq!(status, 200);
    assert!(num(&body, "price") >= 1.0);
    // Infeasible state → 422.
    let (status, body) = request(
        addr,
        "GET",
        &format!("/campaigns/{id}/price?remaining=10&budget_cents=5"),
        None,
    );
    assert_eq!(status, 422);
    assert_eq!(text(&body, "error"), "infeasible");

    // Progress reports run the campaign down to exhaustion.
    let (status, body) = request(
        addr,
        "POST",
        &format!("/campaigns/{id}/observations"),
        Some("{\"completions\":10,\"spent_cents\":55}"),
    );
    assert_eq!(status, 200);
    assert_eq!(text(&body, "status"), "exhausted");
    let (status, body) = request(addr, "GET", &format!("/campaigns/{id}"), None);
    assert_eq!(status, 200);
    assert_eq!(num(&body, "spent_cents"), 55.0);
    assert_eq!(num(&body, "remaining"), 0.0);

    handle.shutdown();
    join.join().expect("server thread");
}

/// Satellite: real pagination on the fleet index, asserted against the
/// sharded store (ids must come back ascending and complete across
/// pages regardless of which shard holds them).
#[test]
fn campaigns_index_paginates_across_shards() {
    let registry = registry();
    let (handle, join) = Server::spawn("127.0.0.1:0", Arc::clone(&registry)).expect("bind");
    let addr = handle.addr();

    let problem_json = serde_json::to_string(&problem().to_value()).expect("problem json");
    let spec = format!("{{\"kind\":\"deadline\",\"problem\":{problem_json}}}");
    let mut created = Vec::new();
    for _ in 0..5 {
        let (status, body) = request(addr, "POST", "/campaigns", Some(&spec));
        assert_eq!(status, 201);
        created.push(num(&body, "id") as u64);
    }

    let page = |query: &str| -> (u16, Value) { request(addr, "GET", query, None) };
    let ids_of = |body: &Value| -> Vec<u64> {
        map_get(body.as_map().unwrap(), "campaigns")
            .unwrap()
            .as_seq()
            .unwrap()
            .iter()
            .map(|c| num(c, "id") as u64)
            .collect()
    };

    // Two pages of two plus a final page of one cover the fleet in
    // ascending id order with no duplicates or gaps.
    let mut paged = Vec::new();
    for offset in [0usize, 2, 4] {
        let (status, body) = page(&format!("/campaigns?limit=2&offset={offset}"));
        assert_eq!(status, 200);
        assert_eq!(num(&body, "total"), 5.0);
        assert_eq!(num(&body, "offset"), offset as f64);
        let ids = ids_of(&body);
        assert_eq!(num(&body, "returned"), ids.len() as f64);
        paged.extend(ids);
    }
    assert_eq!(paged, created, "pages must tile the fleet in id order");

    // Offset past the end: empty page, still self-describing.
    let (status, body) = page("/campaigns?offset=99");
    assert_eq!(status, 200);
    assert_eq!(num(&body, "returned"), 0.0);
    assert_eq!(num(&body, "total"), 5.0);

    // Bad values are 400s, not panics or silent defaults.
    for bad in [
        "/campaigns?offset=-1",
        "/campaigns?offset=abc",
        "/campaigns?limit=-3",
        "/campaigns?limit=x&offset=1",
    ] {
        let (status, body) = page(bad);
        assert_eq!(status, 400, "{bad} answered {body:?}");
        assert_eq!(text(&body, "error"), "bad_request");
    }

    // `campaigns_total` in /healthz agrees with the index's `total`
    // (both derive from the sharded store).
    let (_, health) = request(addr, "GET", "/healthz", None);
    assert_eq!(num(&health, "campaigns_total"), 5.0);

    handle.shutdown();
    join.join().expect("server thread");
}

/// Tentpole acceptance: budget campaigns recalibrate under acceptance
/// drift over the wire, and the kind-split recalibration counter shows
/// up in `GET /metrics`.
#[test]
fn budget_acceptance_drift_recalibrates_over_the_wire() {
    let registry = registry();
    let (handle, join) = Server::spawn("127.0.0.1:0", Arc::clone(&registry)).expect("bind");
    let addr = handle.addr();

    let acc = LogitAcceptance::new(4.0, 0.0, 20.0);
    let problem = ft_core::BudgetProblem::new(
        40,
        600.0,
        ft_core::ActionSet::from_grid(PriceGrid::new(1, 20), &acc),
        100.0,
    );
    let problem_json = serde_json::to_string(&problem.to_value()).expect("problem json");
    let spec = format!("{{\"kind\":\"budget\",\"problem\":{problem_json}}}");
    let (status, body) = request(addr, "POST", "/campaigns", Some(&spec));
    assert_eq!(status, 201, "create failed: {body:?}");
    let id = num(&body, "id") as u64;
    let (status, _) = request(addr, "POST", &format!("/campaigns/{id}/solve"), None);
    assert_eq!(status, 200);

    let (status, body) = request(
        addr,
        "GET",
        &format!("/campaigns/{id}/price?remaining=40&budget_cents=600"),
        None,
    );
    assert_eq!(status, 200);
    let posted = num(&body, "price");
    assert_eq!(num(&body, "generation"), 1.0);

    // Exposure-carrying reports with collapsed acceptance: 60 workers
    // saw the price each round, almost nobody took it. The default
    // cadence re-solves on the second drifted report.
    let mut recalibrated = false;
    let mut generation = 1.0;
    for _ in 0..3 {
        let obs = format!(
            "{{\"completions\":2,\"spent_cents\":{},\"posted_cents\":{posted},\"offers\":60}}",
            2 * posted as u64
        );
        let (status, body) = request(
            addr,
            "POST",
            &format!("/campaigns/{id}/observations"),
            Some(&obs),
        );
        assert_eq!(status, 200, "observe failed: {body:?}");
        assert!(num(&body, "correction") < 1.0);
        recalibrated |= matches!(
            map_get(body.as_map().unwrap(), "recalibrated"),
            Ok(Value::Bool(true))
        );
        generation = num(&body, "generation");
    }
    assert!(recalibrated, "no budget recalibration over the wire");
    assert!(generation >= 2.0);

    // The recalibrated generation serves quotes…
    let (status, body) = request(
        addr,
        "GET",
        &format!("/campaigns/{id}/price?remaining=34&budget_cents=400"),
        None,
    );
    assert_eq!(status, 200);
    assert_eq!(num(&body, "generation"), generation);

    // …the diagnostics expose the drift state…
    let (status, body) = request(addr, "GET", &format!("/campaigns/{id}"), None);
    assert_eq!(status, 200);
    assert!(num(&body, "acceptance_shift") < 0.0);

    // …and the kind-split counter is visible in both metric formats.
    let (status, body) = request(addr, "GET", "/metrics", None);
    assert_eq!(status, 200);
    let budget_recals = num(
        &body,
        "ft_core_recalibrations_by_kind_total{kind=\"budget\"}",
    );
    assert!(budget_recals >= 1.0, "budget recalibration not in /metrics");
    let (status, text_body) =
        ft_server::client::request(addr, "GET", "/metrics?format=prometheus", None)
            .expect("prometheus export");
    assert_eq!(status, 200);
    assert!(text_body.contains("ft_core_recalibrations_by_kind_total{kind=\"budget\"}"));
    // The server registers the executor's counters at startup, so the
    // pool's steal/overflow instruments ride the same export plane even
    // while still at zero.
    assert!(
        text_body.contains("ft_exec_steals_total"),
        "executor steal counter not on the export plane"
    );
    assert!(text_body.contains("ft_exec_deque_overflow_total"));

    handle.shutdown();
    join.join().expect("server thread");
}

#[test]
fn malformed_requests_are_structured_400s() {
    let registry = registry();
    let (handle, join) = Server::spawn("127.0.0.1:0", Arc::clone(&registry)).expect("bind");
    let addr = handle.addr();

    // Bad JSON body.
    let (status, body) = request(addr, "POST", "/campaigns", Some("{not json"));
    assert_eq!(status, 400);
    assert_eq!(text(&body, "error"), "bad_request");
    // Missing kind.
    let (status, _) = request(addr, "POST", "/campaigns", Some("{\"problem\":{}}"));
    assert_eq!(status, 400);
    // An absurd arrival mass, rejected before any solve computes its
    // truncation points (at λ = 10³⁰⁰ that search never returns, and
    // the solve would wedge a worker).
    let mut huge = problem();
    huge.interval_arrivals[0] = 1e300;
    let huge_json = serde_json::to_string(&huge.to_value()).unwrap();
    let spec = format!("{{\"kind\":\"deadline\",\"problem\":{huge_json}}}");
    let (status, body) = request(addr, "POST", "/campaigns", Some(&spec));
    assert_eq!(status, 400, "{body:?}");
    assert_eq!(text(&body, "error"), "invalid_problem");
    // Unknown route / bad id.
    let (status, _) = request(addr, "GET", "/nope", None);
    assert_eq!(status, 404);
    let (status, _) = request(addr, "GET", "/campaigns/abc", None);
    assert_eq!(status, 400);
    // Price without discriminating params.
    let problem_json = serde_json::to_string(&problem().to_value()).unwrap();
    let spec = format!("{{\"kind\":\"deadline\",\"problem\":{problem_json}}}");
    let (_, body) = request(addr, "POST", "/campaigns", Some(&spec));
    let id = num(&body, "id") as u64;
    let (status, _) = request(addr, "POST", &format!("/campaigns/{id}/solve"), None);
    assert_eq!(status, 200);
    let (status, _) = request(
        addr,
        "GET",
        &format!("/campaigns/{id}/price?remaining=5"),
        None,
    );
    assert_eq!(status, 400);
    let (status, _) = request(addr, "GET", "/healthz", None);
    assert_eq!(status, 200);

    handle.shutdown();
    join.join().expect("server thread");
}

/// Post `spec` to `/campaigns` on a fresh node: it must be refused as
/// an `invalid_problem` 400, and the node must answer `/healthz` after.
fn assert_create_refused(spec: &str) {
    let registry = registry();
    let (handle, join) = Server::spawn("127.0.0.1:0", Arc::clone(&registry)).expect("bind");
    let addr = handle.addr();
    let (status, body) = request(addr, "POST", "/campaigns", Some(spec));
    assert_eq!(status, 400, "{body:?}");
    assert_eq!(text(&body, "error"), "invalid_problem");
    let (status, _) = request(addr, "GET", "/healthz", None);
    assert_eq!(status, 200);

    handle.shutdown();
    join.join().expect("server thread");
}

/// A sub-1 KB deadline spec for 4·10⁹ tasks over 3 intervals and 16
/// actions. Its pmf rows alone would take ≈4.6 TB; it used to be
/// created, and its solve's failed allocation aborted the node.
#[test]
fn billions_of_tasks_are_a_400_not_an_abort() {
    let problem = DeadlineProblem::from_market(
        4_000_000_000,
        1.0,
        3,
        &ConstantRate::new(150.0),
        PriceGrid::new(0, 15),
        &LogitAcceptance::new(4.0, 0.0, 30.0),
        PenaltyModel::Linear { per_task: 500.0 },
    );
    let problem_json = serde_json::to_string(&problem.to_value()).unwrap();
    let spec = format!("{{\"kind\":\"deadline\",\"problem\":{problem_json}}}");
    assert!(spec.len() < 1024, "{} bytes", spec.len());
    assert_create_refused(&spec);
}

/// The paper's budget campaign with a 10¹⁵-cent budget: a
/// 201 × (10¹⁵ + 1)-cell table, which used to abort the node the same
/// way.
#[test]
fn a_quadrillion_cent_budget_is_a_400_not_an_abort() {
    let mut problem = ft_core::testkit::paper_budget_problem();
    problem.budget = 1e15;
    let problem_json = serde_json::to_string(&problem.to_value()).unwrap();
    assert_create_refused(&format!(
        "{{\"kind\":\"budget\",\"problem\":{problem_json}}}"
    ));
}

/// A snapshot document is checked like a spec: a solved campaign's
/// snapshot with its arrivals rewritten to 10³⁰⁰ is a 400. It used to
/// restore, and its first re-solving observe wedged a worker.
#[test]
fn restoring_a_poisoned_snapshot_is_a_400() {
    let registry = registry();
    let (handle, join) = Server::spawn("127.0.0.1:0", Arc::clone(&registry)).expect("bind");
    let addr = handle.addr();
    let problem_json = serde_json::to_string(&problem().to_value()).unwrap();
    let spec = format!("{{\"kind\":\"deadline\",\"problem\":{problem_json}}}");
    let (_, body) = request(addr, "POST", "/campaigns", Some(&spec));
    let id = num(&body, "id") as u64;
    let (status, _) = request(addr, "POST", &format!("/campaigns/{id}/solve"), None);
    assert_eq!(status, 200);
    let snapshot_path = format!("/campaigns/{id}/snapshot");
    let (status, snapshot) =
        ft_server::client::request(addr, "GET", &snapshot_path, None).expect("snapshot");
    assert_eq!(status, 200);
    let arrivals = &problem().interval_arrivals;
    let poisoned = snapshot.replace(
        &serde_json::to_string(arrivals).unwrap(),
        &serde_json::to_string(&vec![1e300; arrivals.len()]).unwrap(),
    );
    assert_ne!(poisoned, snapshot);
    let (status, body) = request(addr, "POST", "/campaigns/restore", Some(&poisoned));
    assert_eq!(status, 400, "{body:?}");
    assert_eq!(text(&body, "error"), "invalid_problem");
    let (status, _) = request(addr, "GET", "/healthz", None);
    assert_eq!(status, 200);

    handle.shutdown();
    join.join().expect("server thread");
}

/// A body nested past the JSON parser's depth cap is a 400, not a stack
/// overflow that aborts the node: a megabyte of `[` to a single and a
/// bulk endpoint, then the server must still answer `/healthz`.
#[test]
fn deeply_nested_bodies_are_400s_not_crashes() {
    let registry = registry();
    let (handle, join) = Server::spawn("127.0.0.1:0", Arc::clone(&registry)).expect("bind");
    let addr = handle.addr();

    let body = "[".repeat(1 << 20);
    for path in ["/campaigns", "/campaigns/quotes"] {
        let (status, reply) = request(addr, "POST", path, Some(&body));
        assert_eq!(status, 400, "{path}: {reply:?}");
        assert_eq!(text(&reply, "error"), "bad_request");
        assert!(
            text(&reply, "message").contains("nesting"),
            "{path}: {reply:?}"
        );
    }
    let (status, _) = request(addr, "GET", "/healthz", None);
    assert_eq!(status, 200);

    handle.shutdown();
    join.join().expect("server thread");
}
