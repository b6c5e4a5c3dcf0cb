//! End-to-end fleet behaviour over real sockets: a router fronting
//! three `ft-server` nodes must answer like one node — through planned
//! migration (exact generation preserved), mid-flip reads (quotes
//! never 404), cross-backend bulk reassembly (input order, inline
//! errors), and clients that trickle bytes.

use ft_core::adaptive::AdaptiveOptions;
use ft_core::registry::CampaignRegistry;
use ft_core::{DeadlineProblem, KernelConfig, PenaltyModel};
use ft_market::{ConstantRate, LogitAcceptance, PriceGrid};
use ft_router::{Router, RouterConfig, RouterHandle};
use ft_server::{Server, ServerHandle};
use serde::{map_get, Serialize, Value};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
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

fn text<'v>(value: &'v Value, key: &str) -> &'v str {
    map_get(value.as_map().expect("object"), key)
        .unwrap_or_else(|_| panic!("missing {key} in {value:?}"))
        .as_str()
        .unwrap_or_else(|| panic!("{key} not a string in {value:?}"))
}

struct Fleet {
    backends: Vec<SocketAddr>,
    node_handles: Vec<ServerHandle>,
    node_joins: Vec<std::thread::JoinHandle<()>>,
    router: RouterHandle,
    router_join: std::thread::JoinHandle<()>,
}

impl Fleet {
    fn spawn(nodes: usize) -> Self {
        let mut backends = Vec::new();
        let mut node_handles = Vec::new();
        let mut node_joins = Vec::new();
        for _ in 0..nodes {
            // Aggressive recalibration so drift recalibrates within a
            // short test.
            let registry = Arc::new(CampaignRegistry::with_config(
                KernelConfig::default(),
                AdaptiveOptions {
                    resolve_every: 3,
                    ..AdaptiveOptions::default()
                },
            ));
            let (handle, join) = Server::spawn("127.0.0.1:0", registry).expect("bind node");
            backends.push(handle.addr());
            node_handles.push(handle);
            node_joins.push(join);
        }
        let router = Router::bind(
            "127.0.0.1:0",
            backends.clone(),
            RouterConfig {
                workers: 4,
                ..RouterConfig::default()
            },
        )
        .expect("bind router");
        let (router, router_join) = router.spawn().expect("spawn router");
        Self {
            backends,
            node_handles,
            node_joins,
            router,
            router_join,
        }
    }

    fn addr(&self) -> SocketAddr {
        self.router.addr()
    }

    /// Every backend actually hosting `id` (asked node-by-node, not
    /// via the ring — the tests check reality, not the router's
    /// intent). A drained node keeps its out-of-ring copies, so this
    /// can legitimately return more than one node post-migration.
    fn hosts_of(&self, id: u64) -> Vec<usize> {
        self.backends
            .iter()
            .enumerate()
            .filter(|&(_, &addr)| {
                let (status, _) = request(addr, "GET", &format!("/campaigns/{id}"), None);
                status == 200
            })
            .map(|(node, _)| node)
            .collect()
    }

    /// The unique live host of `id` (pre-migration).
    fn host_of(&self, id: u64) -> Option<usize> {
        self.hosts_of(id).into_iter().next()
    }

    fn teardown(self) {
        self.router.shutdown();
        self.router_join.join().expect("router thread");
        for handle in &self.node_handles {
            handle.shutdown();
        }
        for join in self.node_joins {
            join.join().expect("node thread");
        }
    }
}

fn deadline_spec() -> String {
    let problem = DeadlineProblem::from_market(
        20,
        4.0,
        12,
        &ConstantRate::new(150.0),
        PriceGrid::new(0, 20),
        &LogitAcceptance::new(4.0, 0.0, 30.0),
        PenaltyModel::Linear { per_task: 500.0 },
    );
    format!(
        "{{\"kind\":\"deadline\",\"problem\":{},\"eps\":1e-9}}",
        serde_json::to_string(&problem.to_value()).expect("problem json")
    )
}

/// Create and solve `count` campaigns through the router; returns ids.
fn seed_campaigns(addr: SocketAddr, count: usize) -> Vec<u64> {
    let spec = deadline_spec();
    (0..count)
        .map(|_| {
            let (status, body) = request(addr, "POST", "/campaigns", Some(&spec));
            assert_eq!(status, 201, "create failed: {body:?}");
            let id = num(&body, "id") as u64;
            let (status, body) = request(addr, "POST", &format!("/campaigns/{id}/solve"), None);
            assert_eq!(status, 200, "solve failed: {body:?}");
            id
        })
        .collect()
}

#[test]
fn planned_drain_migrates_at_the_exact_generation() {
    let fleet = Fleet::spawn(3);
    let addr = fleet.addr();
    let ids = seed_campaigns(addr, 6);

    // Recalibrate one campaign so it carries non-trivial engine state
    // (generation ≥ 2, correction ≠ 1) into the migration.
    let id = ids[0];
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
    assert!(correction < 1.0, "drift did not lower the correction");
    let (status, body) = request(
        addr,
        "GET",
        &format!("/campaigns/{id}/price?remaining=14&interval=6"),
        None,
    );
    assert_eq!(status, 200);
    let price = num(&body, "price");
    assert_eq!(num(&body, "generation"), generation);

    // Drain the node hosting the recalibrated campaign.
    let node = fleet.host_of(id).expect("campaign hosted somewhere");
    let (status, body) = request(addr, "POST", &format!("/fleet/drain?node={node}"), None);
    assert_eq!(status, 200, "drain failed: {body:?}");
    assert!(num(&body, "moved") >= 1.0, "drain moved nothing: {body:?}");

    // The campaign survived on a different node at the exact same
    // generation, correction, and price (the drained node keeps its
    // out-of-ring copy; what matters is that a survivor now hosts it).
    let hosts = fleet.hosts_of(id);
    assert!(
        hosts.iter().any(|&h| h != node),
        "campaign only on the drained node: {hosts:?}"
    );
    let (status, body) = request(addr, "GET", &format!("/campaigns/{id}"), None);
    assert_eq!(status, 200, "post-drain report failed: {body:?}");
    assert_eq!(num(&body, "generation"), generation, "generation torn");
    assert_eq!(text(&body, "status"), "live");
    let (status, body) = request(
        addr,
        "GET",
        &format!("/campaigns/{id}/price?remaining=14&interval=6"),
        None,
    );
    assert_eq!(status, 200);
    assert_eq!(num(&body, "generation"), generation);
    assert_eq!(num(&body, "price"), price, "recalibrated price changed");

    // Zero lost: the fleet index still sees every campaign exactly once.
    let (status, body) = request(addr, "GET", "/campaigns", None);
    assert_eq!(status, 200);
    assert_eq!(num(&body, "total"), ids.len() as f64);

    // The drained node is out of the membership.
    let (_, body) = request(addr, "GET", "/fleet", None);
    let nodes = map_get(body.as_map().unwrap(), "nodes")
        .unwrap()
        .as_seq()
        .unwrap();
    assert_eq!(
        nodes
            .iter()
            .filter(|n| matches!(map_get(n.as_map().unwrap(), "alive"), Ok(Value::Bool(true))))
            .count(),
        2
    );

    fleet.teardown();
}

#[test]
fn quotes_never_404_while_the_ring_flips() {
    let fleet = Fleet::spawn(3);
    let addr = fleet.addr();
    let ids = Arc::new(seed_campaigns(addr, 9));

    // Hammer quotes from three threads while the main thread drains a
    // node. Every quote must answer 200 — a 404 means a client saw the
    // flip mid-migration.
    let stop = Arc::new(AtomicBool::new(false));
    let hammers: Vec<_> = (0..3)
        .map(|lane| {
            let ids = Arc::clone(&ids);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut served = 0u64;
                while !stop.load(Ordering::Acquire) {
                    let id = ids[(lane * 3 + served as usize) % ids.len()];
                    let (status, body) = request(
                        addr,
                        "GET",
                        &format!("/campaigns/{id}/price?remaining=10&interval=0"),
                        None,
                    );
                    assert_eq!(status, 200, "quote for {id} failed mid-flip: {body:?}");
                    served += 1;
                }
                served
            })
        })
        .collect();

    // Let the hammers get going, then drain whichever node hosts the
    // first campaign (guaranteed to move at least one).
    std::thread::sleep(std::time::Duration::from_millis(50));
    let node = fleet.host_of(ids[0]).expect("hosted");
    let (status, body) = request(addr, "POST", &format!("/fleet/drain?node={node}"), None);
    assert_eq!(status, 200, "drain failed: {body:?}");
    std::thread::sleep(std::time::Duration::from_millis(50));
    stop.store(true, Ordering::Release);
    let served: u64 = hammers.into_iter().map(|h| h.join().expect("hammer")).sum();
    assert!(served > 0, "hammers never got a quote through");

    // And the flip actually happened while they were running.
    let (_, body) = request(addr, "GET", "/healthz", None);
    assert_eq!(num(&body, "nodes_alive"), 2.0);

    fleet.teardown();
}

#[test]
fn bulk_quotes_reassemble_across_backends_in_input_order() {
    let fleet = Fleet::spawn(3);
    let addr = fleet.addr();
    let ids = seed_campaigns(addr, 9);

    // Find two campaigns hosted on different nodes so the batch
    // genuinely splits (with 9 campaigns on a 3-node ring this always
    // exists).
    let first = ids[0];
    let other = *ids[1..]
        .iter()
        .find(|&&id| fleet.host_of(id) != fleet.host_of(first))
        .expect("two campaigns on different nodes");

    // Interleave the two owners and an unknown id; the reply must be
    // in input order with the unknown answered inline.
    let body = format!(
        "{{\"quotes\":[\
         {{\"id\":{other},\"remaining\":20,\"interval\":0}},\
         {{\"id\":{first},\"remaining\":20,\"interval\":0}},\
         {{\"id\":424242,\"remaining\":1,\"interval\":0}},\
         {{\"id\":{other},\"remaining\":10,\"interval\":3}},\
         {{\"id\":{first},\"remaining\":10,\"interval\":3}}\
         ]}}"
    );
    let (status, reply) = request(addr, "POST", "/campaigns/quotes", Some(&body));
    assert_eq!(status, 200, "bulk quote failed: {reply:?}");
    assert_eq!(num(&reply, "count"), 5.0);
    let items = map_get(reply.as_map().unwrap(), "results")
        .unwrap()
        .as_seq()
        .unwrap();
    for (index, want) in [other, first, 424242, other, first].iter().enumerate() {
        assert_eq!(
            num(&items[index], "id") as u64,
            *want,
            "item {index} out of order: {items:?}"
        );
    }
    assert_eq!(text(&items[2], "error"), "unknown_campaign");
    assert_eq!(num(&items[2], "status"), 404.0);

    // Fleet answers match the single-quote endpoint exactly.
    let (_, single) = request(
        addr,
        "GET",
        &format!("/campaigns/{first}/price?remaining=20&interval=0"),
        None,
    );
    assert_eq!(num(&items[1], "price"), num(&single, "price"));
    assert_eq!(num(&items[1], "generation"), num(&single, "generation"));

    // A structural error names the item by its ORIGINAL index even
    // when the offender sits mid-slice on one backend.
    let body = format!(
        "{{\"quotes\":[\
         {{\"id\":{first},\"remaining\":5,\"interval\":0}},\
         {{\"id\":{other},\"remaining\":5,\"interval\":0}},\
         {{\"id\":{first},\"interval\":0}}\
         ]}}"
    );
    let (status, reply) = request(addr, "POST", "/campaigns/quotes", Some(&body));
    assert_eq!(status, 400);
    assert!(
        text(&reply, "message").contains("item 2"),
        "400 does not name the original item: {reply:?}"
    );

    fleet.teardown();
}

/// The router parses `POST /campaigns` and bulk bodies itself, with the
/// depth-capped parser: 1 MB of `[` is a 400 there, and the router
/// stays up to create and solve the next campaign.
#[test]
fn deeply_nested_bodies_are_400s_at_the_router() {
    let fleet = Fleet::spawn(1);
    let addr = fleet.addr();

    let body = "[".repeat(1 << 20);
    for path in ["/campaigns", "/campaigns/quotes"] {
        let (status, reply) = request(addr, "POST", path, Some(&body));
        assert_eq!(status, 400, "{path}: {reply:?}");
        assert_eq!(text(&reply, "error"), "bad_request");
    }
    let (status, _) = request(addr, "GET", "/healthz", None);
    assert_eq!(status, 200);
    let ids = seed_campaigns(addr, 1);
    let (status, reply) = request(
        addr,
        "GET",
        &format!("/campaigns/{}/price?remaining=10&interval=0", ids[0]),
        None,
    );
    assert_eq!(status, 200, "{reply:?}");

    fleet.teardown();
}

#[test]
fn killed_node_fails_over_from_checkpoints() {
    let fleet = Fleet::spawn(3);
    let addr = fleet.addr();
    let ids = seed_campaigns(addr, 6);

    // Hard-stop one node (no drain — simulates a crash). The router
    // discovers it on the next proxy attempt, flips the ring, and
    // restores that node's campaigns from its solve-time checkpoints.
    let id = ids[0];
    let node = fleet.host_of(id).expect("hosted");
    fleet.node_handles[node].shutdown();

    // Every campaign must still answer — the dead node's from restored
    // checkpoints (same generation the router checkpointed at solve).
    for &id in &ids {
        let (status, body) = request(
            addr,
            "GET",
            &format!("/campaigns/{id}/price?remaining=10&interval=0"),
            None,
        );
        assert_eq!(status, 200, "campaign {id} lost in failover: {body:?}");
        assert!(num(&body, "generation") >= 1.0);
    }
    let (_, body) = request(addr, "GET", "/healthz", None);
    assert_eq!(num(&body, "nodes_alive"), 2.0);

    fleet.teardown();
}

/// Write `raw` on a fresh connection and read until the server closes
/// it; returns the status and the whole response text. Panics if no
/// answer arrives within 3 s.
fn exchange(addr: SocketAddr, raw: &[u8]) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(3)))
        .expect("read timeout");
    stream.write_all(raw).expect("write");
    let mut text = String::new();
    stream
        .read_to_string(&mut text)
        .unwrap_or_else(|e| panic!("no answer to {:?}: {e}", String::from_utf8_lossy(raw)));
    let status = text
        .get(9..12)
        .and_then(|code| code.parse().ok())
        .unwrap_or_else(|| panic!("not an HTTP response: {text:?}"));
    (status, text)
}

/// A client that trickles a request holds a file descriptor at the
/// router, not a worker: with as many tricklers as workers, `/healthz`
/// is still answered at once, and a malformed request gets the node's
/// JSON 400.
#[test]
fn trickling_clients_do_not_wedge_the_router() {
    let fleet = Fleet::spawn(1); // the router runs 4 workers
    let addr = fleet.addr();
    let stop = Arc::new(AtomicBool::new(false));
    let tricklers: Vec<_> = (0..4)
        .map(|_| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).expect("connect trickler");
                // A request line, then a header that never ends.
                let bytes = b"GET /healthz HTTP/1.1\r\nX-Slow: "
                    .iter()
                    .chain(std::iter::repeat(&b'a'));
                for &byte in bytes {
                    if stop.load(Ordering::Acquire) || stream.write_all(&[byte]).is_err() {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(200));
                }
            })
        })
        .collect();
    // Every trickler is connected and has sent a few bytes.
    std::thread::sleep(Duration::from_millis(600));

    for probe in 0..3 {
        let started = Instant::now();
        let (status, text) = exchange(addr, b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert_eq!(status, 200, "probe {probe}: {text}");
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "probe {probe} took {:?} behind the tricklers",
            started.elapsed()
        );
    }
    let (status, text) = exchange(addr, b"nope\r\n\r\n");
    assert_eq!(status, 400, "{text}");
    assert!(text.contains("\"error\":\"bad_request\""), "{text}");

    stop.store(true, Ordering::Release);
    for trickler in tricklers {
        trickler.join().expect("trickler");
    }
    fleet.teardown();
}
