//! A request flood against a saturated worker pool is survived with a
//! **bounded thread count**: excess requests get a clean `503
//! server_busy`, and the tier recovers once the held work drains.
//!
//! This is the only test in its binary, so every other thread of the
//! process stays put while it counts them.

use ft_metrics::MetricsRegistry;
use ft_server::http::{Request, Response};
use ft_server::{EndpointTelemetry, ServerConfig, Service, TierTelemetry};
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Current thread count of this process (Linux; the CI and dev
/// containers are Linux — elsewhere the bound checks are skipped).
use ft_exec::process_threads as thread_count;

/// Threads of this process named `name` (Linux, as above). A server's
/// scoped workers inherit its event-loop thread's name, so this counts
/// one server's threads alone.
fn threads_named(name: &str) -> Option<usize> {
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    Some(
        tasks
            .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
            .filter(|comm| comm.trim_end() == name)
            .count(),
    )
}

/// A service whose `GET /hold` keeps its worker until the test opens
/// the gate, announcing on `holding` that it has started; every other
/// request is answered `200` at once. The test saturates the reactor
/// with it, independent of how fast any real handler runs.
struct Gated {
    open: Mutex<bool>,
    opened: Condvar,
    holding: mpsc::Sender<()>,
    tier: TierTelemetry,
}

impl Service for Gated {
    type Worker = ();
    type Route = ();
    const ROOT_SPAN: &'static str = "test.gate.serve";

    fn worker(&self) {}

    fn route(&self, _: &Request) -> ((), usize) {
        ((), 0)
    }

    fn handle(&self, _: &mut (), _: (), request: &Request) -> Response {
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
fn send_unread(addr: std::net::SocketAddr, path: &str) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n"
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
    let config = ServerConfig {
        workers: 1,
        queue_depth: 1,
        ..ServerConfig::default()
    };
    let baseline = thread_count();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let shutdown = Arc::new(AtomicBool::new(false));
    let loop_thread = "gated-flood";
    let server = {
        let service = Arc::clone(&service);
        let shutdown = Arc::clone(&shutdown);
        std::thread::Builder::new()
            .name(loop_thread.into())
            .spawn(move || ft_server::serve(listener, &*service, config, &shutdown))
            .expect("spawn the event loop")
    };

    // Two held requests: the first occupies the only worker, the
    // second fills the one-slot ready-queue. The second is sent only
    // once the worker holds the first, so it cannot race the pop.
    let hold_a = send_unread(addr, "/hold");
    holding
        .recv_timeout(Duration::from_secs(10))
        .expect("the worker never picked up the first hold");
    let hold_b = send_unread(addr, "/hold");
    std::thread::sleep(Duration::from_millis(100)); // let the reactor parse + enqueue it

    // Flood. Every further request must be answered with a clean 503,
    // not a new thread — and *in order* on its own connection.
    for _ in 0..8 {
        let (status, body) =
            ft_server::client::request(addr, "GET", "/healthz", None).expect("request");
        assert_eq!(status, 503, "expected server_busy, got {status}: {body}");
        assert_eq!(
            body,
            r#"{"error":"server_busy","message":"request queue full, retry"}"#
        );
    }

    // Thread bound: reactor + workers, never a thread per connection,
    // in the whole process and on the server's own threads. (10
    // connections are open or rejected at this point; the old
    // thread-per-connection design would run 10 more.)
    if let (Some(before), Some(during)) = (baseline, thread_count()) {
        assert!(
            during <= before + 1 + config.workers,
            "thread count grew past the pool bound: {before} -> {during}"
        );
    }
    if let Some(threads) = threads_named(loop_thread) {
        assert!(
            (1..=1 + config.workers).contains(&threads),
            "the server runs {threads} threads, not reactor + workers"
        );
    }

    // Once the held requests drain, the tier must answer normally.
    *service.open.lock().expect("gate") = true;
    service.opened.notify_all();
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (status, _) =
            ft_server::client::request(addr, "GET", "/healthz", None).expect("request");
        if status == 200 {
            break;
        }
        assert!(
            Instant::now() < deadline,
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
