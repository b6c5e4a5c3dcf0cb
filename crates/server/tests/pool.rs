//! Serving-tier behaviour over real sockets: a request flood against a
//! saturated worker pool is survived with a **bounded thread count**
//! (excess requests get a clean `503 server_busy`, and the tier
//! recovers once the held work drains), shutdown is prompt, the fleet
//! index pages, and `/metrics` reflects what the server actually did,
//! in both formats.

use ft_core::registry::CampaignRegistry;
use ft_core::{DeadlineProblem, PenaltyModel};
use ft_market::{ConstantRate, LogitAcceptance, PriceGrid};
use ft_metrics::MetricsRegistry;
use ft_server::http::{Request, Response};
use ft_server::{Server, ServerConfig, Service, TierTelemetry};
use serde::{map_get, Serialize, Value};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Duration;

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

fn problem_json() -> String {
    let problem = DeadlineProblem::from_market(
        10,
        2.0,
        6,
        &ConstantRate::new(80.0),
        PriceGrid::new(0, 12),
        &LogitAcceptance::new(4.0, 0.0, 30.0),
        PenaltyModel::Linear { per_task: 300.0 },
    );
    serde_json::to_string(&problem.to_value()).expect("problem json")
}

/// Current thread count of this process (Linux; the CI and dev
/// containers are Linux — elsewhere the bound check is skipped).
use ft_exec::process_threads as thread_count;

/// Send one keep-alive request and read the response, returning the
/// still-open stream (its handler thread stays parked in `read`).
fn hold_keep_alive(addr: SocketAddr) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "GET /healthz HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n"
    )
    .expect("write");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("status line");
    assert!(line.contains("200"), "keep-alive probe failed: {line}");
    let mut content_length = 0usize;
    loop {
        let mut header = String::new();
        reader.read_line(&mut header).expect("header");
        if header.trim_end().is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().expect("length");
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).expect("body");
    stream
}

/// A service whose `GET /hold` keeps its worker until the test opens
/// the gate, announcing on `holding` that it has started; every other
/// request is answered `200` at once. The flood test saturates the
/// reactor with it, independent of how fast any real handler runs.
struct Gated {
    open: Mutex<bool>,
    opened: Condvar,
    holding: mpsc::Sender<()>,
    tier: TierTelemetry,
}

impl Gated {
    fn release(&self) {
        *self.open.lock().expect("gate") = true;
        self.opened.notify_all();
    }
}

impl Service for Gated {
    type Worker = ();
    const ROOT_SPAN: &'static str = "test.gate.serve";

    fn worker(&self) {}

    fn handle(&self, _: &mut (), request: &Request) -> Response {
        if request.path == "/hold" {
            let _ = self.holding.send(());
            let mut open = self.open.lock().expect("gate");
            while !*open {
                open = self.opened.wait(open).expect("gate");
            }
        }
        Response::json(200, "{}".to_string())
    }

    fn tier(&self) -> &TierTelemetry {
        &self.tier
    }
}

/// Fire a request without reading the response: the connection stays
/// open with the request in flight, occupying a worker (or a ready-
/// queue slot) until the handler finishes — no client thread needed.
fn send_unread(addr: SocketAddr, method: &str, path: &str) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n"
    )
    .expect("write");
    stream
}

#[test]
fn request_flood_is_survived_with_bounded_threads() {
    let metrics = MetricsRegistry::new();
    let (holding_tx, holding) = mpsc::channel();
    let service = Arc::new(Gated {
        open: Mutex::new(false),
        opened: Condvar::new(),
        holding: holding_tx,
        tier: TierTelemetry {
            connections_accepted: metrics.counter("ft_test_connections_accepted_total"),
            connections_rejected: metrics.counter("ft_test_connections_rejected_total"),
            connections_active: metrics.gauge("ft_test_connections_active"),
            queue_wait: metrics.histogram("ft_test_queue_wait_ns"),
        },
    });
    let config = ServerConfig {
        workers: 1,
        queue_depth: 1,
        ..ServerConfig::default()
    };
    // The shared ft-exec pool spawns lazily on the first parallel
    // dispatch anywhere in the process (e.g. a solve in a concurrently
    // running test); force it up *before* the baseline so the delta
    // below measures only connection handling.
    let _ = ft_exec::Pool::global();
    let baseline = thread_count();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let shutdown = Arc::new(AtomicBool::new(false));
    let server = {
        let service = Arc::clone(&service);
        let shutdown = Arc::clone(&shutdown);
        std::thread::spawn(move || ft_server::serve(listener, &*service, config, &shutdown))
    };

    // Two held requests: the first occupies the only worker, the
    // second fills the one-slot ready-queue. The second is sent only
    // once the worker holds the first, so it cannot race the pop.
    let hold_a = send_unread(addr, "GET", "/hold");
    holding
        .recv_timeout(Duration::from_secs(10))
        .expect("the worker never picked up the first hold");
    let hold_b = send_unread(addr, "GET", "/hold");
    std::thread::sleep(Duration::from_millis(100)); // let the reactor parse + enqueue it

    // Flood. Every further request must be answered with a clean 503,
    // not a new thread — and *in order* on its own connection.
    let mut rejected = 0;
    for _ in 0..8 {
        let (status, body) = request(addr, "GET", "/healthz", None);
        assert_eq!(status, 503, "expected server_busy, got {status}: {body:?}");
        rejected += 1;
    }
    assert_eq!(rejected, 8);

    // Thread bound: reactor + workers, never a thread per connection.
    // (10 connections are open or rejected at this point; the old
    // thread-per-connection design would sit at baseline + 10.)
    if let (Some(before), Some(during)) = (baseline, thread_count()) {
        assert!(
            during <= before + 1 + config.workers,
            "thread count grew past the pool bound: {before} -> {during}"
        );
    }

    // Once the held requests drain, the tier must answer normally.
    service.release();
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let (status, _) = request(addr, "GET", "/healthz", None);
        if status == 200 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "server did not recover from the flood"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    drop(hold_a);
    drop(hold_b);

    // The reactor's accounting: 2 holds + 8 floods + the probe were
    // accepted, the floods rejected, and both holds passed the queue.
    let tier = service.tier();
    assert!(
        tier.connections_rejected.get() >= 8,
        "rejections not counted"
    );
    assert!(tier.connections_accepted.get() >= 11);
    assert!(tier.queue_wait.snapshot().count >= 2);

    shutdown.store(true, Ordering::Release);
    let _ = TcpStream::connect(addr);
    server.join().expect("server thread");
}

#[test]
fn shutdown_does_not_wait_for_idle_keepalive_connections() {
    // A parked keep-alive reader must be unparked on shutdown (its
    // read half is shut down), not waited out for the 30 s idle
    // timeout.
    let registry = Arc::new(CampaignRegistry::new());
    let (handle, join) = Server::spawn("127.0.0.1:0", Arc::clone(&registry)).expect("bind");
    let held = hold_keep_alive(handle.addr());
    let started = std::time::Instant::now();
    handle.shutdown();
    join.join().expect("server thread");
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "shutdown blocked on an idle keep-alive connection for {:?}",
        started.elapsed()
    );
    drop(held);
}

#[test]
fn fleet_index_pages_and_validates() {
    let registry = Arc::new(CampaignRegistry::new());
    let (handle, join) = Server::spawn("127.0.0.1:0", Arc::clone(&registry)).expect("bind");
    let addr = handle.addr();

    let spec = format!("{{\"kind\":\"deadline\",\"problem\":{}}}", problem_json());
    let mut ids = Vec::new();
    for _ in 0..3 {
        let (status, body) = request(addr, "POST", "/campaigns", Some(&spec));
        assert_eq!(status, 201);
        ids.push(num(&body, "id") as u64);
    }
    let (status, _) = request(addr, "POST", &format!("/campaigns/{}/solve", ids[0]), None);
    assert_eq!(status, 200);

    let (status, body) = request(addr, "GET", "/campaigns", None);
    assert_eq!(status, 200);
    assert_eq!(num(&body, "total"), 3.0);
    assert_eq!(num(&body, "returned"), 3.0);
    let campaigns = map_get(body.as_map().unwrap(), "campaigns")
        .unwrap()
        .as_seq()
        .expect("campaigns array");
    assert_eq!(num(&campaigns[0], "id"), ids[0] as f64);
    assert_eq!(num(&campaigns[0], "generation"), 1.0);
    let status_str = map_get(campaigns[0].as_map().unwrap(), "status")
        .unwrap()
        .as_str()
        .unwrap();
    assert_eq!(status_str, "live");
    let kind = map_get(campaigns[1].as_map().unwrap(), "kind")
        .unwrap()
        .as_str()
        .unwrap();
    assert_eq!(kind, "deadline");

    // Paging.
    let (status, body) = request(addr, "GET", "/campaigns?limit=2", None);
    assert_eq!(status, 200);
    assert_eq!(num(&body, "total"), 3.0);
    assert_eq!(num(&body, "returned"), 2.0);
    // Validation.
    let (status, _) = request(addr, "GET", "/campaigns?limit=nope", None);
    assert_eq!(status, 400);

    handle.shutdown();
    join.join().expect("server thread");
}

#[test]
fn metrics_reflect_requests_in_both_formats() {
    let registry = Arc::new(CampaignRegistry::new());
    let (handle, join) = Server::spawn("127.0.0.1:0", Arc::clone(&registry)).expect("bind");
    let addr = handle.addr();

    let spec = format!("{{\"kind\":\"deadline\",\"problem\":{}}}", problem_json());
    let (_, body) = request(addr, "POST", "/campaigns", Some(&spec));
    let id = num(&body, "id") as u64;
    let (status, _) = request(addr, "POST", &format!("/campaigns/{id}/solve"), None);
    assert_eq!(status, 200);
    for _ in 0..5 {
        let (status, _) = request(
            addr,
            "GET",
            &format!("/campaigns/{id}/price?remaining=10&interval=0"),
            None,
        );
        assert_eq!(status, 200);
    }
    // One structured error: unknown campaign.
    let (status, _) = request(
        addr,
        "GET",
        "/campaigns/999/price?remaining=1&interval=0",
        None,
    );
    assert_eq!(status, 404);

    let (status, metrics) = request(addr, "GET", "/metrics", None);
    assert_eq!(status, 200);
    assert_eq!(
        num(
            &metrics,
            "ft_server_requests_total{endpoint=\"campaign_price\"}"
        ),
        6.0
    );
    assert_eq!(
        num(
            &metrics,
            "ft_server_requests_total{endpoint=\"campaign_solve\"}"
        ),
        1.0
    );
    // The registry's own counters ride in the same plane.
    assert_eq!(num(&metrics, "ft_core_quotes_total"), 6.0);
    assert_eq!(num(&metrics, "ft_core_quote_errors_total"), 1.0);
    assert_eq!(num(&metrics, "ft_core_solves_total"), 1.0);
    // Latency histograms carry samples and quantiles.
    let price_hist = map_get(
        metrics.as_map().unwrap(),
        "ft_server_request_ns{endpoint=\"campaign_price\"}",
    )
    .expect("price latency histogram")
    .as_map()
    .expect("histogram object");
    assert_eq!(map_get(price_hist, "count").unwrap(), &Value::Num(6.0));
    assert!(num(&Value::Map(price_hist.to_vec()), "p99") > 0.0);

    // Prometheus text exposition.
    let (status, text) =
        ft_server::client::request(addr, "GET", "/metrics?format=prometheus", None).expect("req");
    assert_eq!(status, 200);
    assert!(text.contains("# TYPE ft_server_requests_total counter"));
    assert!(text.contains("ft_server_requests_total{endpoint=\"campaign_price\"} 6"));
    assert!(text.contains("ft_core_quotes_total 6"));
    assert!(text.contains("ft_server_request_ns{endpoint=\"campaign_price\",quantile=\"0.99\"}"));
    // Unknown format is a structured 400.
    let (status, _) = request(addr, "GET", "/metrics?format=xml", None);
    assert_eq!(status, 400);

    handle.shutdown();
    join.join().expect("server thread");
}
