//! A `/metrics` histogram's exemplar trace id always resolves through
//! `GET /trace/{id}`, even after the recent-trace store has moved on.
//!
//! The exemplar store keeps the slowest traces per op ranked by root
//! duration, queue wait included, so a request queued behind a slow one
//! can outrank it there although its handler ran for 1 ms. This is the
//! only test in its binary: it floods the process-wide trace store,
//! which would race any other test's traces.

use ft_metrics::MetricsRegistry;
use ft_server::http::{Request, Response};
use ft_server::{Client, EndpointTelemetry, ServerConfig, Service, TierTelemetry};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Duration;

/// `GET /hold` keeps the only worker until the test opens the gate,
/// announcing on `holding` that it has started; `GET /nap` sleeps
/// 10 ms. Both are filed under one endpoint, so they share one latency
/// histogram and one exemplar-store op.
struct Held {
    open: Mutex<bool>,
    opened: Condvar,
    holding: mpsc::Sender<()>,
    tier: TierTelemetry,
}

impl Service for Held {
    type Worker = ();
    type Route = ();
    const ROOT_SPAN: &'static str = "test.held.serve";

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
        } else {
            std::thread::sleep(Duration::from_millis(10));
        }
        Response::json(200, "{}".to_string())
    }

    fn tier(&self) -> &TierTelemetry {
        &self.tier
    }
}

#[test]
fn histogram_exemplar_survives_a_flushed_recent_store() {
    let metrics = MetricsRegistry::new();
    let (holding_tx, holding) = mpsc::channel();
    let service = Arc::new(Held {
        open: Mutex::new(false),
        opened: Condvar::new(),
        holding: holding_tx,
        tier: TierTelemetry {
            endpoints: vec![EndpointTelemetry {
                label: "held",
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
    let config = ServerConfig {
        workers: 1,
        queue_depth: 16,
        ..ServerConfig::default()
    };
    let server = {
        let service = Arc::clone(&service);
        let shutdown = Arc::clone(&shutdown);
        std::thread::spawn(move || ft_server::serve(listener, &*service, config, &shutdown))
    };
    let traced = |path: &'static str| {
        std::thread::spawn(move || {
            let id = ft_trace::next_trace_id();
            let (status, _, echoed) = Client::new(addr)
                .request_traced("GET", path, None, Some(id))
                .expect("request");
            assert_eq!((status, echoed), (200, Some(id)));
            id
        })
    };

    // One traced request holds the only worker for about 80 ms; four
    // traced 10 ms naps queue behind it. Each nap's root span covers its
    // wait for the held one, so all four outrank it in the exemplar
    // store, while the held request has by far the longest handler call.
    let held = traced("/hold");
    holding
        .recv_timeout(Duration::from_secs(10))
        .expect("the held request never started");
    let naps: Vec<_> = (0..4).map(|_| traced("/nap")).collect();
    std::thread::sleep(Duration::from_millis(80));
    *service.open.lock().expect("gate") = true;
    service.opened.notify_all();
    let mut ids = vec![held.join().expect("held request")];
    ids.extend(naps.into_iter().map(|nap| nap.join().expect("nap")));

    let exemplar = service.tier.endpoints[0]
        .latency
        .snapshot()
        .exemplar_trace_id;
    assert!(
        ids.contains(&exemplar),
        "exemplar {exemplar:#x} is none of the traced requests {ids:x?}"
    );
    // Push every request out of the recent store (256 traces).
    for _ in 0..300 {
        drop(ft_trace::begin("test.flush.serve"));
    }
    assert!(
        ft_trace::find(exemplar).is_some(),
        "the histogram's exemplar {exemplar:#x} no longer resolves \
         (held request {:#x})",
        ids[0]
    );

    shutdown.store(true, Ordering::Release);
    let _ = std::net::TcpStream::connect(addr);
    server.join().expect("server thread");
}
