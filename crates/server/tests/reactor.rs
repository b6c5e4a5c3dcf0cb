//! Event-loop edge cases over real sockets: slow-header connections
//! (slowloris) are reaped by the idle deadline without a response,
//! pipelined requests on one connection are answered strictly in
//! order, the keep-alive [`ft_server::Client`] really does reuse
//! one TCP connection (and transparently reconnects after the server
//! reaps it), and a node's `/metrics` carries the reactor's own
//! instruments.

use ft_core::registry::CampaignRegistry;
use ft_server::{Client, Server, ServerConfig};
use serde::{map_get, Value};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn metric(addr: std::net::SocketAddr, key: &str) -> f64 {
    let (status, body) =
        ft_server::client::request(addr, "GET", "/metrics", None).expect("metrics");
    assert_eq!(status, 200);
    let metrics: Value = serde_json::from_str(&body).expect("json");
    map_get(metrics.as_map().expect("object"), key)
        .unwrap_or_else(|_| panic!("missing {key}"))
        .as_num()
        .unwrap_or_else(|| panic!("{key} not a number"))
}

#[test]
fn slowloris_partial_headers_hit_the_idle_deadline() {
    // A connection that dribbles half a request line and then stalls
    // must be dropped by the first-request deadline — without a
    // response, without occupying a worker, and without wedging the
    // reactor for well-behaved peers.
    let registry = Arc::new(CampaignRegistry::new());
    let config = ServerConfig {
        first_request_timeout: Duration::from_millis(200),
        ..ServerConfig::default()
    };
    let (handle, join) =
        Server::spawn_with("127.0.0.1:0", Arc::clone(&registry), config).expect("bind");
    let addr = handle.addr();

    let mut slow = TcpStream::connect(addr).expect("connect");
    slow.write_all(b"GET /healthz HT").expect("partial write");

    // A well-behaved request on another connection is served while the
    // slow one idles.
    let (status, _) = ft_server::client::request(addr, "GET", "/healthz", None).expect("healthz");
    assert_eq!(status, 200);

    // The slow connection is closed without any response bytes.
    slow.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    let started = Instant::now();
    let mut buf = [0u8; 64];
    let n = slow.read(&mut buf).expect("read after deadline");
    assert_eq!(
        n,
        0,
        "expected a silent close, got response bytes: {:?}",
        String::from_utf8_lossy(&buf[..n])
    );
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "slowloris connection survived past the deadline"
    );
    // Never handed to a worker: accepted but zero requests routed on it
    // beyond the healthz probe above.
    assert!(metric(addr, "ft_server_connections_accepted_total") >= 2.0);

    handle.shutdown();
    join.join().expect("server thread");
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    // HTTP/1.1 pipelining: a burst of requests written back-to-back on
    // one connection comes back as one ordered stream of responses.
    // Alternating known/unknown routes makes reordering observable as
    // a status-sequence mismatch.
    let registry = Arc::new(CampaignRegistry::new());
    let (handle, join) = Server::spawn("127.0.0.1:0", Arc::clone(&registry)).expect("bind");
    let addr = handle.addr();

    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut burst = String::new();
    let paths = [
        "/healthz",
        "/no/such/route",
        "/healthz",
        "/nope",
        "/healthz",
    ];
    for path in paths {
        burst.push_str(&format!(
            "GET {path} HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n"
        ));
    }
    stream.write_all(burst.as_bytes()).expect("write burst");
    // Half-close the write side: the server must still answer all five
    // parsed requests before closing.
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("shutdown write");

    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read responses");
    let text = String::from_utf8_lossy(&raw);
    // Status lines are NOT newline-separated from the previous body
    // (responses are written back-to-back), so scan by marker instead
    // of by line.
    let statuses: Vec<&str> = text
        .match_indices("HTTP/1.1 ")
        .map(|(i, _)| &text[i + 9..i + 12])
        .collect();
    assert_eq!(
        statuses,
        ["200", "404", "200", "404", "200"],
        "pipelined responses out of order or missing:\n{text}"
    );

    handle.shutdown();
    join.join().expect("server thread");
}

#[test]
fn keep_alive_client_reuses_one_connection_and_reconnects() {
    let registry = Arc::new(CampaignRegistry::new());
    let config = ServerConfig {
        keep_alive_timeout: Duration::from_millis(200),
        ..ServerConfig::default()
    };
    let (handle, join) =
        Server::spawn_with("127.0.0.1:0", Arc::clone(&registry), config).expect("bind");
    let addr = handle.addr();

    let mut client = Client::new(addr);
    for _ in 0..5 {
        let (status, _) = client.request("GET", "/healthz", None).expect("healthz");
        assert_eq!(status, 200);
    }
    // Five requests, one TCP connection. The metrics probe opens its
    // own one-shot connection (and its accept is counted before the
    // response is rendered), so the fleet total is client + probe = 2.
    assert_eq!(metric(addr, "ft_server_connections_accepted_total"), 2.0);

    // Let the server reap the idle connection, then request again: the
    // client must reconnect transparently and succeed.
    std::thread::sleep(Duration::from_millis(600));
    let (status, _) = client.request("GET", "/healthz", None).expect("reconnect");
    assert_eq!(status, 200);
    // One fresh accept for the reconnect (+1 for the probe below).
    assert_eq!(metric(addr, "ft_server_connections_accepted_total"), 4.0);

    handle.shutdown();
    join.join().expect("server thread");
}

#[test]
fn node_metrics_carry_the_reactor_instruments() {
    let registry = Arc::new(CampaignRegistry::new());
    let (handle, join) = Server::spawn("127.0.0.1:0", Arc::clone(&registry)).expect("bind");
    let addr = handle.addr();

    let (status, _) = ft_server::client::request(addr, "GET", "/healthz", None).expect("healthz");
    assert_eq!(status, 200);
    assert_eq!(metric(addr, "ft_server_connections_rejected_total"), 0.0);
    let (status, body) =
        ft_server::client::request(addr, "GET", "/metrics", None).expect("metrics");
    assert_eq!(status, 200);
    let metrics: Value = serde_json::from_str(&body).expect("json");
    let queue_wait = map_get(metrics.as_map().expect("object"), "ft_server_queue_wait_ns")
        .expect("queue wait histogram")
        .as_map()
        .expect("histogram object");
    let count = map_get(queue_wait, "count")
        .expect("count")
        .as_num()
        .expect("numeric count");
    assert!(count >= 1.0, "no request passed the ready-queue: {count}");

    handle.shutdown();
    join.join().expect("server thread");
}
