//! End-to-end fleet behaviour over real sockets: a router fronting
//! three `ft-server` nodes must answer like one node — through planned
//! migration (exact generation preserved), mid-flip reads (quotes
//! never 404), cross-backend bulk reassembly (input order, inline
//! errors), clients that trickle bytes, and one merged span tree per
//! traced request.

use ft_core::adaptive::AdaptiveOptions;
use ft_core::registry::CampaignRegistry;
use ft_core::{DeadlineProblem, KernelConfig, PenaltyModel};
use ft_market::{ConstantRate, LogitAcceptance, PriceGrid};
use ft_router::RouterConfig;
use ft_server::{Server, ServerHandle};
use serde::{map_get, Serialize, Value};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, ChildStdout, Command, Stdio};
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
    router: ServerHandle,
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
        let (router, router_join) =
            ft_router::bind("127.0.0.1:0", backends.clone(), RouterConfig { workers: 4 })
                .expect("bind router")
                .start();
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

/// A bulk body a node would refuse whole, the fleet refuses whole too.
/// Item 0 is owned by node 0 and item 1, which lacks `completions`, by
/// node 1: the router answers the node's 400 and has applied item 0
/// nowhere, so a client that fixes item 1 and retries does not see
/// item 0 applied twice.
#[test]
fn refused_bulk_observations_apply_nothing() {
    let fleet = Fleet::spawn(2);
    let addr = fleet.addr();
    let ids = seed_campaigns(addr, 8);
    let owned_by = |node: usize| {
        ids.iter()
            .copied()
            .find(|&id| fleet.host_of(id) == Some(node))
            .unwrap_or_else(|| panic!("no campaign on node {node}"))
    };
    let (a, b) = (owned_by(0), owned_by(1));

    let body = format!(
        "{{\"observations\":[\
         {{\"id\":{a},\"interval\":0,\"completions\":1}},\
         {{\"id\":{b},\"interval\":0}}\
         ]}}"
    );
    let (status, reply) = request(addr, "POST", "/campaigns/observations", Some(&body));
    assert_eq!(status, 400, "{reply:?}");
    assert_eq!(
        text(&reply, "message"),
        "item 1: missing or invalid `completions`"
    );
    let (status, report) = request(addr, "GET", &format!("/campaigns/{a}"), None);
    assert_eq!(status, 200, "{report:?}");
    assert_eq!(
        num(&report, "observations"),
        0.0,
        "item 0 was applied by a refused batch: {report:?}"
    );
    assert_eq!(num(&report, "remaining"), 20.0, "{report:?}");

    fleet.teardown();
}

/// The router's own accounting, recorded by the reactor it serves on:
/// between two `GET /metrics` scrapes, each endpoint's
/// `ft_router_requests_total` and `ft_router_request_ns` count move by
/// exactly the requests it answered (the first scrape included),
/// `ft_router_responses_total` by their status classes, and a traced
/// `GET /fleet` gets its `x-ft-trace` echoed, is the endpoint's
/// exemplar, and is filed under `fleet_status`.
#[test]
fn router_records_each_request_once() {
    let fleet = Fleet::spawn(3);
    let addr = fleet.addr();
    let ids = seed_campaigns(addr, 6);
    let first = ids[0];
    let other = *ids[1..]
        .iter()
        .find(|&&id| fleet.host_of(id) != fleet.host_of(first))
        .expect("two campaigns on different nodes");

    let before = request(addr, "GET", "/metrics", None).1;
    let (status, body) = request(
        addr,
        "GET",
        &format!("/campaigns/{first}/price?remaining=10&interval=0"),
        None,
    );
    assert_eq!(status, 200, "{body:?}");
    let bulk = format!(
        "{{\"quotes\":[{{\"id\":{first},\"remaining\":10,\"interval\":0}},\
         {{\"id\":{other},\"remaining\":10,\"interval\":0}}]}}"
    );
    let (status, body) = request(addr, "POST", "/campaigns/quotes", Some(&bulk));
    assert_eq!(status, 200, "{body:?}");
    let trace_id = ft_trace::next_trace_id();
    let (status, _, echoed) = ft_server::Client::new(addr)
        .request_traced("GET", "/fleet", None, Some(trace_id))
        .expect("fleet status");
    assert_eq!((status, echoed), (200, Some(trace_id)));
    let (status, body) = request(addr, "GET", "/no/such/route", None);
    assert_eq!(status, 404, "{body:?}");
    let after = request(addr, "GET", "/metrics", None).1;

    let counter = |metrics: &Value, name: &str| num(metrics, name);
    let count = |metrics: &Value, name: &str| {
        num(map_get(metrics.as_map().unwrap(), name).unwrap(), "count")
    };
    let served = [
        "metrics",
        "campaign_price",
        "campaigns_quotes",
        "fleet_status",
        "other",
    ];
    for route in ft_router::Route::all() {
        let label = route.label();
        let want = if served.contains(&label) { 1.0 } else { 0.0 };
        let requests = format!("ft_router_requests_total{{endpoint=\"{label}\"}}");
        let latency = format!("ft_router_request_ns{{endpoint=\"{label}\"}}");
        assert_eq!(
            counter(&after, &requests) - counter(&before, &requests),
            want,
            "{requests}"
        );
        assert_eq!(
            count(&after, &latency) - count(&before, &latency),
            want,
            "{latency}"
        );
    }
    for (class, want) in [("2xx", 4.0), ("4xx", 1.0), ("5xx", 0.0)] {
        let name = format!("ft_router_responses_total{{class=\"{class}\"}}");
        assert_eq!(
            counter(&after, &name) - counter(&before, &name),
            want,
            "{name}"
        );
    }
    let fleet_latency = map_get(
        after.as_map().unwrap(),
        "ft_router_request_ns{endpoint=\"fleet_status\"}",
    )
    .unwrap();
    assert_eq!(
        text(fleet_latency, "exemplar_trace_id"),
        format!("{trace_id:016x}")
    );
    let trace = ft_trace::find(trace_id).expect("the traced GET /fleet is stored");
    assert_eq!(trace.op, "fleet_status");

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

/// Set in a node process's environment (see [`fleet_node_process`]).
const NODE_PROCESS_ENV: &str = "FT_FLEET_TEST_NODE";

/// Not a test: run with `FT_FLEET_TEST_NODE` set, this test binary
/// serves one `ft-server` node, prints its address and runs until it is
/// killed. Nodes in processes of their own have trace stores of their
/// own, as deployed ones do; an in-process node would answer
/// `/trace/{id}` from the router's store.
#[test]
#[ignore = "a fleet node process for traced_request_merges_into_one_tree_across_processes"]
fn fleet_node_process() {
    if std::env::var_os(NODE_PROCESS_ENV).is_none() {
        return;
    }
    let (handle, _join) =
        Server::spawn("127.0.0.1:0", Arc::new(CampaignRegistry::new())).expect("bind node");
    println!("node listening on {}", handle.addr());
    loop {
        std::thread::park();
    }
}

/// One [`fleet_node_process`], killed on drop.
struct NodeProcess {
    child: Child,
    addr: SocketAddr,
    /// Held open so the node never writes to a closed pipe.
    _stdout: BufReader<ChildStdout>,
}

impl NodeProcess {
    fn spawn() -> Self {
        let mut child = Command::new(std::env::current_exe().expect("test binary path"))
            .args(["fleet_node_process", "--exact", "--ignored", "--nocapture"])
            .env(NODE_PROCESS_ENV, "1")
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn node process");
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            let read = stdout.read_line(&mut line).expect("node stdout");
            assert!(read > 0, "node process exited before printing its address");
            if let Some(addr) = line.trim().strip_prefix("node listening on ") {
                break addr.parse().expect("node address");
            }
        };
        NodeProcess {
            child,
            addr,
            _stdout: stdout,
        }
    }
}

impl Drop for NodeProcess {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A price request tagged with `x-ft-trace`, sent through a router
/// over two node processes: `GET /trace/{id}` at the router stitches
/// the router's segment and the owning node's into one tree.
#[test]
fn traced_request_merges_into_one_tree_across_processes() {
    let nodes = [NodeProcess::spawn(), NodeProcess::spawn()];
    let backends = nodes.iter().map(|node| node.addr).collect();
    let (router, router_join) = ft_router::bind("127.0.0.1:0", backends, RouterConfig::default())
        .expect("bind")
        .start();
    let addr = router.addr();
    let id = seed_campaigns(addr, 1)[0];

    let trace_id = ft_trace::next_trace_id();
    let path = format!("/campaigns/{id}/price?remaining=10&interval=0");
    let (status, _, echoed) = ft_server::Client::new(addr)
        .request_traced("GET", &path, None, Some(trace_id))
        .expect("traced price request");
    assert_eq!((status, echoed), (200, Some(trace_id)));
    let (status, trace) = request(addr, "GET", &format!("/trace/{trace_id:016x}"), None);
    assert_eq!(status, 200, "{trace:?}");
    let spans: Vec<(u64, u64, &str)> = map_get(trace.as_map().expect("object"), "spans")
        .expect("spans")
        .as_seq()
        .expect("spans array")
        .iter()
        .map(|s| {
            (
                num(s, "span_id") as u64,
                num(s, "parent_id") as u64,
                text(s, "name"),
            )
        })
        .collect();

    let roots: Vec<_> = spans.iter().filter(|s| s.1 == 0).collect();
    assert_eq!(roots.len(), 1, "{spans:?}");
    let (root_id, _, root_name) = *roots[0];
    assert_eq!(root_name, "router.request.serve");
    assert!(
        spans
            .iter()
            .any(|&(_, parent, name)| name == "server.request.serve" && parent == root_id),
        "no node segment under the router's root: {spans:?}"
    );
    let mut ids: Vec<u64> = spans.iter().map(|s| s.0).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), spans.len(), "a span id appears twice: {spans:?}");
    for span in &spans {
        assert!(
            span.1 == 0 || ids.binary_search(&span.1).is_ok(),
            "dangling parent: {span:?}"
        );
    }

    router.shutdown();
    router_join.join().expect("router thread");
}
