//! Serving-tier behaviour over real sockets: loop-safe requests are
//! answered on the event loop only within its bounds, a panicking
//! handler costs one `500` on the loop and on a worker alike, shutdown
//! is prompt, the fleet index pages, and `/metrics` reflects what the
//! server actually did, in both formats. (The flood test, which counts
//! the process's threads, has its own binary: `tests/flood.rs`.)

use ft_core::registry::CampaignRegistry;
use ft_core::{DeadlineProblem, PenaltyModel};
use ft_market::{ConstantRate, LogitAcceptance, PriceGrid};
use ft_metrics::MetricsRegistry;
use ft_server::http::{Request, Response};
use ft_server::{EndpointTelemetry, Server, ServerConfig, Service, TierTelemetry};
use serde::{map_get, Serialize, Value};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

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

/// Read one response off a keep-alive stream: its status and body.
fn read_response(reader: &mut BufReader<TcpStream>) -> (u16, String) {
    let mut line = String::new();
    reader.read_line(&mut line).expect("status line");
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line: {line:?}"));
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
    (status, String::from_utf8(body).expect("utf-8 body"))
}

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
    let (status, body) = read_response(&mut reader);
    assert_eq!(status, 200, "keep-alive probe failed: {body}");
    stream
}

/// Name of the thread [`GatedServer::start`] runs the event loop on.
/// Its scoped workers have no name of their own (Linux shows them
/// under the loop's), so a handler on one reports `worker`.
const LOOP_THREAD: &str = "gated-loop";

/// A service whose `GET /hold` keeps its worker until the test opens
/// the gate, announcing on `holding` that it has started. Paths under
/// `/loop/` are loop-safe: `/loop/hold` holds the event loop itself the
/// same way, and `/loop/nap` announces itself and sleeps 50 ms.
/// `/panic` and `/loop/panic` panic. Every other answer is `200` with
/// the path and the name of the thread that served it, so a test sees
/// whether the loop or a worker answered, independent of how fast any
/// real handler runs.
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
    /// Whether the path is loop-safe.
    type Route = bool;
    const ROOT_SPAN: &'static str = "test.gate.serve";

    fn worker(&self) {}

    fn route(&self, request: &Request) -> (bool, usize) {
        (request.path.starts_with("/loop/"), 0)
    }

    fn loop_safe(&self, on_loop: bool) -> bool {
        on_loop
    }

    fn handle(&self, _: &mut (), _: bool, request: &Request) -> Response {
        match request.path.as_str() {
            "/hold" | "/loop/hold" => {
                let _ = self.holding.send(());
                let mut open = self.open.lock().expect("gate");
                while !*open {
                    open = self.opened.wait(open).expect("gate");
                }
            }
            "/loop/nap" => {
                let _ = self.holding.send(());
                std::thread::sleep(Duration::from_millis(50));
            }
            "/panic" | "/loop/panic" => panic!("a handler failed"),
            _ => {}
        }
        let thread = std::thread::current();
        Response::json(
            200,
            format!(
                "{{\"path\":\"{}\",\"thread\":\"{}\"}}",
                request.path,
                thread.name().unwrap_or("worker")
            ),
        )
    }

    fn tier(&self) -> &TierTelemetry {
        &self.tier
    }
}

/// A [`Gated`] service served on [`LOOP_THREAD`].
struct GatedServer {
    service: Arc<Gated>,
    addr: SocketAddr,
    holding: mpsc::Receiver<()>,
    shutdown: Arc<AtomicBool>,
    join: std::thread::JoinHandle<()>,
}

impl GatedServer {
    fn start(config: ServerConfig) -> Self {
        let metrics = MetricsRegistry::new();
        let (holding_tx, holding) = mpsc::channel();
        let service = Arc::new(Gated {
            open: Mutex::new(false),
            opened: Condvar::new(),
            holding: holding_tx,
            tier: TierTelemetry {
                endpoints: vec![EndpointTelemetry {
                    label: "any",
                    requests: metrics.counter("ft_test_requests_total"),
                    latency: metrics.histogram("ft_test_request_ns"),
                }],
                responses_2xx: metrics.counter("ft_test_responses_total{class=\"2xx\"}"),
                responses_4xx: metrics.counter("ft_test_responses_total{class=\"4xx\"}"),
                responses_5xx: metrics.counter("ft_test_responses_total{class=\"5xx\"}"),
                connections_accepted: metrics.counter("ft_test_connections_accepted_total"),
                connections_rejected: metrics.counter("ft_test_connections_rejected_total"),
                connections_active: metrics.gauge("ft_test_connections_active"),
                queue_wait: metrics.histogram("ft_test_queue_wait_ns"),
            },
        });
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let shutdown = Arc::new(AtomicBool::new(false));
        let join = {
            let service = Arc::clone(&service);
            let shutdown = Arc::clone(&shutdown);
            std::thread::Builder::new()
                .name(LOOP_THREAD.into())
                .spawn(move || ft_server::serve(listener, &*service, config, &shutdown))
                .expect("spawn the event loop")
        };
        Self {
            service,
            addr,
            holding,
            shutdown,
            join,
        }
    }

    /// Wait until `n` held (or napping) requests have started.
    fn await_holding(&self, n: usize) {
        for _ in 0..n {
            self.holding
                .recv_timeout(Duration::from_secs(10))
                .expect("no thread picked up the held request");
        }
    }

    fn stop(self) {
        self.service.release();
        self.shutdown.store(true, Ordering::Release);
        let _ = TcpStream::connect(self.addr);
        self.join.join().expect("server thread");
    }
}

/// A string field of a [`Gated`] answer.
fn field(status: u16, body: &str, key: &str) -> String {
    assert_eq!(status, 200, "{body}");
    let body: Value = serde_json::from_str(body).expect("json");
    map_get(body.as_map().expect("object"), key)
        .unwrap_or_else(|_| panic!("missing {key}"))
        .as_str()
        .unwrap_or_else(|| panic!("{key} not a string"))
        .to_string()
}

/// The thread that answered a [`Gated`] request.
fn served_by(status: u16, body: &str) -> String {
    field(status, body, "thread")
}

/// One request on a fresh connection: the thread that answered it.
fn thread_of(addr: SocketAddr, method: &str, path: &str, body: Option<&str>) -> String {
    let (status, body) = ft_server::client::request(addr, method, path, body).expect("request");
    served_by(status, &body)
}

/// Fire a request without reading the response: the connection stays
/// open with the request in flight, occupying a worker (or a ready-
/// queue slot) until the handler finishes — no client thread needed.
fn send_unread(addr: SocketAddr, path: &str) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connect");
    send(&mut stream, path);
    stream
}

/// Write one bodiless `GET` on an open connection.
fn send(stream: &mut TcpStream, path: &str) {
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n"
    )
    .expect("write");
}

/// The next answer on `stream`, failing the test past 10 s instead of
/// hanging it.
fn answer_on(stream: &TcpStream) -> (u16, String) {
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    read_response(&mut BufReader::new(stream.try_clone().expect("clone")))
}

#[test]
fn loop_safe_route_answers_while_every_worker_is_held() {
    let server = GatedServer::start(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });
    let addr = server.addr;
    let holds: Vec<TcpStream> = (0..2).map(|_| send_unread(addr, "/hold")).collect();
    server.await_holding(2);

    // No worker is free, yet the loop answers the loop-safe route.
    assert_eq!(thread_of(addr, "GET", "/loop/quick", None), LOOP_THREAD);

    server.service.release();
    for hold in holds {
        let mut reader = BufReader::new(hold);
        let (status, body) = read_response(&mut reader);
        assert_ne!(served_by(status, &body), LOOP_THREAD);
    }
    server.stop();
}

#[test]
fn pipelined_loop_safe_requests_behind_a_held_one_answer_in_order() {
    let server = GatedServer::start(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let mut stream = TcpStream::connect(server.addr).expect("connect");
    let request =
        |path: &str| format!("GET {path} HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n");
    let burst = [request("/loop/first"), request("/hold")].concat();
    stream.write_all(burst.as_bytes()).expect("write burst");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));

    // The first is the loop's to answer and is written at once; the
    // held one occupies the only worker.
    let (status, body) = read_response(&mut reader);
    assert_eq!(field(status, &body, "path"), "/loop/first");
    assert_eq!(served_by(status, &body), LOOP_THREAD);
    server.await_holding(1);

    // The third is the first request of its read pass, but an earlier
    // one is unanswered: a worker answers it, after the held one.
    stream
        .write_all(request("/loop/third").as_bytes())
        .expect("write third");
    std::thread::sleep(Duration::from_millis(50)); // let the reactor parse + enqueue it
    server.service.release();
    for path in ["/hold", "/loop/third"] {
        let (status, body) = read_response(&mut reader);
        assert_eq!(field(status, &body, "path"), path);
        assert_ne!(served_by(status, &body), LOOP_THREAD);
    }
    server.stop();
}

#[test]
fn pipelined_slow_loop_safe_requests_do_not_stall_other_connections() {
    let server = GatedServer::start(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });
    let addr = server.addr;
    // Twenty 50 ms naps pipelined on one open connection: on the loop
    // they would hold it for a second.
    let mut stream = hold_keep_alive(addr);
    let nap = "GET /loop/nap HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n";
    stream
        .write_all(nap.repeat(20).as_bytes())
        .expect("write burst");
    server.await_holding(1); // the first nap has started

    let started = Instant::now();
    let (status, body) =
        ft_server::client::request(addr, "GET", "/loop/quick", None).expect("request");
    assert_eq!(status, 200, "{body}");
    let waited = started.elapsed();
    assert!(
        waited < Duration::from_millis(500),
        "another connection waited {waited:?} behind the pipelined naps"
    );

    // Every nap is answered, in order, the first by the loop. Which
    // thread answers each later one depends on how many read passes
    // the burst arrived in; the next test pins the one-pass case.
    let mut reader = BufReader::new(stream);
    for i in 0..20 {
        let (status, body) = read_response(&mut reader);
        assert_eq!(field(status, &body, "path"), "/loop/nap");
        if i == 0 {
            assert_eq!(served_by(status, &body), LOOP_THREAD);
        }
    }
    server.stop();
}

#[test]
fn the_loop_answers_one_request_per_connection_per_read_pass() {
    let server = GatedServer::start(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let (mut holder, mut piped) = (hold_keep_alive(server.addr), hold_keep_alive(server.addr));
    // Hold the loop itself while two loop-safe requests reach the other
    // connection: its next read pass finds both, however the kernel
    // delivered them.
    send(&mut holder, "/loop/hold");
    server.await_holding(1);
    send(&mut piped, "/loop/first");
    send(&mut piped, "/loop/second");
    std::thread::sleep(Duration::from_millis(50)); // let both arrive
    server.service.release();

    let mut reader = BufReader::new(piped);
    let (status, body) = read_response(&mut reader);
    assert_eq!(field(status, &body, "path"), "/loop/first");
    assert_eq!(served_by(status, &body), LOOP_THREAD);
    let (status, body) = read_response(&mut reader);
    assert_eq!(field(status, &body, "path"), "/loop/second");
    assert_ne!(served_by(status, &body), LOOP_THREAD);
    server.stop();
}

#[test]
fn past_its_wake_budget_the_loop_leaves_ready_requests_to_workers() {
    let server = GatedServer::start(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });
    let addr = server.addr;
    // Hold the loop while three connections each send a loop-safe nap,
    // so that its next wake finds all three ready.
    let mut holder = hold_keep_alive(addr);
    send(&mut holder, "/loop/hold");
    server.await_holding(1);
    let naps: Vec<TcpStream> = (0..3).map(|_| send_unread(addr, "/loop/nap")).collect();
    std::thread::sleep(Duration::from_millis(50)); // let all three arrive
    server.service.release();

    // The loop answers one nap, whose 50 ms spend the wake's budget;
    // the workers answer the other two.
    let threads: Vec<String> = naps
        .iter()
        .map(|stream| {
            let (status, body) = answer_on(stream);
            served_by(status, &body)
        })
        .collect();
    let on_loop = threads.iter().filter(|t| *t == LOOP_THREAD).count();
    assert_eq!(on_loop, 1, "{threads:?}");
    server.stop();
}

#[test]
fn a_body_over_the_loop_bound_is_answered_by_a_worker() {
    let server = GatedServer::start(ServerConfig::default());
    let at_bound = "x".repeat(8 * 1024);
    let over = "x".repeat(8 * 1024 + 1);
    assert_eq!(
        thread_of(server.addr, "POST", "/loop/quick", Some(&at_bound)),
        LOOP_THREAD
    );
    assert_ne!(
        thread_of(server.addr, "POST", "/loop/quick", Some(&over)),
        LOOP_THREAD
    );
    server.stop();
}

#[test]
fn a_panicking_handler_answers_500_and_its_thread_serves_on() {
    // One worker: had its panic killed it, nothing would answer a
    // worker route afterwards.
    let server = GatedServer::start(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    // Open before the panics, so that no panic's wake can accept it.
    let mut other = hold_keep_alive(server.addr);
    for (panics, next, thread) in [
        ("/loop/panic", "/loop/quick", LOOP_THREAD),
        ("/panic", "/quick", "worker"),
    ] {
        let (status, body) = answer_on(&send_unread(server.addr, panics));
        assert_eq!(status, 500, "{panics}: {body}");
        assert_eq!(
            body,
            r#"{"error":"internal_error","message":"request handler panicked"}"#
        );
        // The same thread answers another connection.
        send(&mut other, next);
        let (status, body) = answer_on(&other);
        assert_eq!(served_by(status, &body), thread);
    }
    assert_eq!(server.service.tier().responses_5xx.get(), 2);
    server.stop();
}

#[test]
fn a_connection_answered_on_the_loop_expires_after_keep_alive() {
    let server = GatedServer::start(ServerConfig {
        keep_alive_timeout: Duration::from_millis(200),
        ..ServerConfig::default()
    });
    let mut stream = TcpStream::connect(server.addr).expect("connect");
    stream
        .write_all(b"GET /loop/quick HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n")
        .expect("write");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let (status, body) = read_response(&mut reader);
    assert_eq!(served_by(status, &body), LOOP_THREAD);

    // Idle after a loop-written answer: dropped at the keep-alive
    // deadline, not the 30 s first-request one, and never left open.
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    let started = Instant::now();
    let mut rest = Vec::new();
    reader
        .read_to_end(&mut rest)
        .expect("the connection was not closed within 5 s");
    assert!(rest.is_empty(), "unexpected bytes: {rest:?}");
    assert!(started.elapsed() < Duration::from_secs(5));
    server.stop();
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
