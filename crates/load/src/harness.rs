//! Mode orchestration: run a scenario against an in-process registry,
//! or spin up a real `ft-server`, drive it over sockets, flood it, and
//! cross-check the server's `/metrics` against the client's own
//! counts.

use crate::backend::{InProcessBackend, SocketBackend};
use crate::driver::{self, Op, RunInstruments, RunOutcome};
use crate::scenario::Scenario;
use ft_core::adaptive::AdaptiveOptions;
use ft_core::registry::{BudgetDriftOptions, CampaignRegistry, RegistryConfig};
use ft_server::{Server, ServerConfig};
use serde::{map_get, Value};
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Socket-mode extras: the connection-flood phase and (when the
/// harness spawned the server itself) the server-vs-client metrics
/// reconciliation.
pub struct SocketExtras {
    pub flood: FloodOutcome,
    /// `None` when driving an external `--target` server: its metrics
    /// plane may carry traffic from other clients or earlier runs, so
    /// exact reconciliation against this client's counts is undefined.
    pub crosscheck: Option<CrosscheckOutcome>,
    /// Trace resolution check: every id this client tagged (within the
    /// retained window) must come back from `GET /trace/{id}` as a
    /// well-formed span tree. `None` for an external target (its
    /// bounded trace store is shared with other clients, so this
    /// client's ids may already be evicted).
    pub trace: Option<TraceCheckOutcome>,
    /// The server's Chrome trace-event dump (`GET /trace/export`),
    /// captured before shutdown so `--trace-out` can write it. `None`
    /// for an external target.
    pub trace_export: Option<String>,
    /// Pool sizing of the spawned server; `None` for an external
    /// target (its configuration is not ours to know).
    pub server_pool: Option<ServerPool>,
    /// Fleet-mode checks (`--fleet-nodes` driving an `ft-router`):
    /// zero-lost census, per-campaign report sweep, membership, and
    /// the merged-`/metrics`-vs-per-node-truth crosscheck. `None` for
    /// every other mode.
    pub fleet: Option<FleetCheckOutcome>,
}

/// What the fleet-mode epilogue established about the run: nothing was
/// lost across the ring flip, and the router's merged telemetry is the
/// sum of per-node truth.
pub struct FleetCheckOutcome {
    /// Fleet size per the router's `GET /fleet` rows.
    pub nodes_total: usize,
    pub nodes_alive: usize,
    /// A `--kill-pid` was armed for this run.
    pub kill_requested: bool,
    /// ... and the SIGKILL actually fired mid-drive.
    pub killed: bool,
    /// Campaigns the scenario registered vs the router's merged census
    /// (the census sweep itself fails a dead node over, so this is
    /// post-flip truth).
    pub campaigns_expected: usize,
    pub campaigns_listed: usize,
    /// Per-campaign `GET /campaigns/{id}` sweep: every id must answer.
    pub reports_attempted: usize,
    pub reports_ok: usize,
    /// Router-merged `/metrics` vs the sum of direct per-node scrapes,
    /// campaign-plane names only (the scrape traffic itself moves the
    /// serving-plane counters, which would never reconcile).
    pub metrics: Vec<FleetMetricEntry>,
    pub metrics_matched: bool,
}

/// One reconciled fleet metric: the router's merged value vs the sum
/// over direct per-node scrapes.
pub struct FleetMetricEntry {
    pub name: String,
    pub merged: u64,
    pub node_sum: u64,
}

/// Did the ids this client traced resolve into well-formed span trees?
pub struct TraceCheckOutcome {
    /// Ids checked (the backend's retained window).
    pub checked: usize,
    /// Ids that resolved with a well-formed tree.
    pub resolved: usize,
    /// Human-readable description per failed id.
    pub failures: Vec<String>,
}

/// Acceptor-pool sizing of the harness-spawned server.
#[derive(Debug, Clone, Copy)]
pub struct ServerPool {
    pub workers: usize,
    pub queue_depth: usize,
}

/// What happened when `connections` clients hit the server at once.
pub struct FloodOutcome {
    pub connections: usize,
    /// Served normally (200).
    pub ok: usize,
    /// Cleanly rejected at capacity (503).
    pub busy: usize,
    /// Anything else — a hung or dropped connection. Must be 0.
    pub failed: usize,
}

/// One reconciled counter: what the client did vs what the server saw.
pub struct CrosscheckEntry {
    pub name: String,
    pub client: u64,
    pub server: u64,
}

pub struct CrosscheckOutcome {
    pub entries: Vec<CrosscheckEntry>,
    pub matched: bool,
}

fn registry_for(scenario: &Scenario) -> Arc<CampaignRegistry> {
    Arc::new(CampaignRegistry::with_registry_config(RegistryConfig {
        adaptive: AdaptiveOptions {
            resolve_every: scenario.resolve_every,
            ..AdaptiveOptions::default()
        },
        budget_drift: BudgetDriftOptions {
            resolve_every: scenario.resolve_every,
            ..BudgetDriftOptions::default()
        },
        ..RegistryConfig::default()
    }))
}

/// Drive the registry directly, no sockets.
pub fn run_in_process(scenario: &Scenario) -> RunOutcome {
    let backend = InProcessBackend {
        registry: registry_for(scenario),
    };
    let instruments = RunInstruments::new();
    let mut outcome = driver::run(scenario, &backend, &instruments);
    // The in-process harness holds the registry, so the report can
    // carry its pmf-row cache's accounting (batched solves, row
    // lookups and hits) — the storm profile's perf gate reads it.
    let registry = &backend.registry;
    outcome.pmf_cache = Some((
        Arc::clone(registry.pmf_cache()),
        registry.telemetry().batched_solves.get(),
    ));
    outcome
}

/// Spin up `ft-server` on an ephemeral port, drive it over real
/// sockets, flood it, reconcile `/metrics`, and shut it down.
pub fn run_socket(scenario: &Scenario) -> Result<(RunOutcome, SocketExtras), String> {
    let config = ServerConfig {
        workers: scenario.server_workers.max(1),
        queue_depth: scenario.server_queue_depth.max(1),
        ..ServerConfig::default()
    };
    let (handle, join) = Server::spawn_with("127.0.0.1:0", registry_for(scenario), config)
        .map_err(|e| format!("bind server: {e}"))?;
    let addr = handle.addr();

    let backend = SocketBackend::new(addr);
    let instruments = RunInstruments::new();
    let outcome = driver::run(scenario, &backend, &instruments);
    let flood = flood(addr, scenario.flood_connections);
    let crosscheck = crosscheck(addr, &instruments);
    let trace = trace_check(addr, &backend.traced_ids());
    let trace_export = fetch_trace_export(addr);

    // Shut the server down before propagating a crosscheck failure —
    // an early `?` above this point would leak the serving threads and
    // their listener for the rest of the process.
    handle.shutdown();
    join.join()
        .map_err(|_| "server thread panicked".to_string())?;
    Ok((
        outcome,
        SocketExtras {
            flood,
            crosscheck: Some(crosscheck?),
            trace: Some(trace?),
            trace_export: Some(trace_export?),
            server_pool: Some(ServerPool {
                workers: config.workers,
                queue_depth: config.queue_depth,
            }),
            fleet: None,
        },
    ))
}

/// Drive an **external** server at `target` (`host:port`) over real
/// sockets — the same workload and flood phase as [`run_socket`], but
/// nothing is spawned in-process and the `/metrics` reconciliation is
/// skipped (an external server's counters may include traffic this
/// client never sent).
pub fn run_socket_target(
    scenario: &Scenario,
    target: &str,
) -> Result<(RunOutcome, SocketExtras), String> {
    let addr = probe_target(target)?;
    let backend = SocketBackend::new(addr);
    let instruments = RunInstruments::new();
    let outcome = driver::run(scenario, &backend, &instruments);
    let flood = flood(addr, scenario.flood_connections);
    Ok((
        outcome,
        SocketExtras {
            flood,
            crosscheck: None,
            trace: None,
            trace_export: None,
            server_pool: None,
            fleet: None,
        },
    ))
}

/// Drive an external **`ft-router`** fronting `nodes` backend
/// `ft-server` processes: the same closed-loop workload as
/// [`run_socket_target`], plus the fleet epilogue — a zero-lost
/// census, a per-campaign report sweep, and a reconciliation of the
/// router's merged `/metrics` against the sum of direct per-node
/// scrapes. With `kill_pid`, a watcher thread SIGKILLs that process
/// once the run is mid-drive (every campaign created, solved and
/// quoted at least once), so the epilogue exercises unplanned failover
/// from the router's checkpoints.
pub fn run_socket_fleet(
    scenario: &Scenario,
    target: &str,
    nodes: &[String],
    kill_pid: Option<u32>,
) -> Result<(RunOutcome, SocketExtras), String> {
    let router = probe_target(target)?;
    let node_addrs: Vec<SocketAddr> = nodes
        .iter()
        .map(|node| {
            node.to_socket_addrs()
                .map_err(|e| format!("cannot resolve fleet node {node}: {e}"))?
                .next()
                .ok_or_else(|| format!("fleet node {node} resolved to no address"))
        })
        .collect::<Result<_, _>>()?;

    let backend = SocketBackend::new(router);
    let instruments = RunInstruments::new();
    let done = AtomicBool::new(false);
    let killed = AtomicBool::new(false);
    let mut outcome = std::thread::scope(|s| {
        if let Some(pid) = kill_pid {
            let (instruments, done, killed) = (&instruments, &done, &killed);
            s.spawn(move || kill_watcher(pid, scenario, instruments, done, killed));
        }
        let outcome = driver::run(scenario, &backend, &instruments);
        done.store(true, Ordering::Release);
        outcome
    });
    // The report's leg label: this run went through the front tier,
    // not straight at one server.
    outcome.backend = "fleet";

    let flood = flood(router, scenario.flood_connections);
    let fleet = fleet_check(
        router,
        &node_addrs,
        scenario.campaign_count(),
        kill_pid.is_some(),
        killed.load(Ordering::Acquire),
    )?;
    Ok((
        outcome,
        SocketExtras {
            flood,
            crosscheck: None,
            trace: None,
            trace_export: None,
            server_pool: None,
            fleet: Some(fleet),
        },
    ))
}

/// SIGKILL `pid` once the run is provably mid-drive: every campaign
/// created **and solved** (so the router holds a failover checkpoint
/// for each) and every campaign quoted at least once. If the driver
/// finishes first the watcher exits without firing and the fleet gate
/// fails loudly on `killed == false` — a profile too small to be
/// killable must not pass silently.
fn kill_watcher(
    pid: u32,
    scenario: &Scenario,
    instruments: &RunInstruments,
    done: &AtomicBool,
    killed: &AtomicBool,
) {
    let total = scenario.campaign_count() as u64;
    loop {
        let solved = instruments.op_count(Op::Solve) >= total;
        let quoted = instruments.op_count(Op::Price) + instruments.bulk_quote_items.get() >= total;
        if solved && quoted {
            // No libc in the tree: shell out for the signal. `-KILL`
            // specifically — the backend must die without a goodbye so
            // the router's unplanned-failover path (checkpoint
            // restores) is what the gates exercise.
            let status = std::process::Command::new("kill")
                .args(["-KILL", &pid.to_string()])
                .status();
            if matches!(status, Ok(s) if s.success()) {
                // ORDERING: Release pairs with the harness's Acquire
                // load after the scope joins this thread.
                killed.store(true, Ordering::Release);
            }
            return;
        }
        if done.load(Ordering::Acquire) {
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
}

/// The fleet epilogue. Order matters: the census and report sweep go
/// first (their traffic triggers failover of a killed node and bumps
/// campaign-plane counters), then the router's merged `/metrics` is
/// captured, then the per-node scrapes — by then the campaign plane is
/// quiescent, so merged-vs-sum must reconcile exactly.
fn fleet_check(
    router: SocketAddr,
    nodes: &[SocketAddr],
    campaigns_expected: usize,
    kill_requested: bool,
    killed: bool,
) -> Result<FleetCheckOutcome, String> {
    let get = |addr: SocketAddr, path: &str| -> Result<Value, String> {
        let (status, body) = ft_server::client::request(addr, "GET", path, None)
            .map_err(|e| format!("GET {path}: {e}"))?;
        if status != 200 {
            return Err(format!("GET {path}: HTTP {status}"));
        }
        serde_json::from_str(&body).map_err(|e| format!("GET {path}: bad JSON: {e}"))
    };

    // Zero-lost census through the router (merged across live nodes;
    // the sweep fails dead nodes over before counting).
    let census = get(router, "/campaigns")?;
    let census_fields = census.as_map().ok_or("census: not an object")?;
    let campaigns_listed = map_get(census_fields, "total")
        .ok()
        .and_then(Value::as_num)
        .ok_or("census: missing `total`")? as usize;
    let ids: Vec<u64> = map_get(census_fields, "campaigns")
        .ok()
        .and_then(Value::as_seq)
        .ok_or("census: missing `campaigns`")?
        .iter()
        .filter_map(|c| map_get(c.as_map()?, "id").ok()?.as_num())
        .map(|id| id as u64)
        .collect();

    // Every listed campaign must still answer its report — across the
    // flip, off a survivor.
    let mut reports_ok = 0;
    for &id in &ids {
        if get(router, &format!("/campaigns/{id}")).is_ok() {
            reports_ok += 1;
        }
    }

    // Membership per the router, pinned against the launcher's own
    // node list (per-node truth must not depend on asking the router
    // where its nodes are).
    let membership = get(router, "/fleet")?;
    let rows = membership
        .as_map()
        .and_then(|m| map_get(m, "nodes").ok())
        .and_then(Value::as_seq)
        .ok_or("GET /fleet: missing `nodes`")?;
    if rows.len() != nodes.len() {
        return Err(format!(
            "GET /fleet reports {} nodes; --fleet-nodes listed {}",
            rows.len(),
            nodes.len()
        ));
    }
    let mut alive = Vec::with_capacity(rows.len());
    for (i, row) in rows.iter().enumerate() {
        let fields = row.as_map().ok_or("GET /fleet: row not an object")?;
        let is_alive = matches!(map_get(fields, "alive"), Ok(Value::Bool(true)));
        let addr = map_get(fields, "addr")
            .ok()
            .and_then(Value::as_str)
            .ok_or("GET /fleet: row without addr")?;
        if addr != nodes[i].to_string() {
            return Err(format!(
                "GET /fleet node {i} is {addr}; --fleet-nodes said {}",
                nodes[i]
            ));
        }
        alive.push(is_alive);
    }
    let nodes_alive = alive.iter().filter(|&&a| a).count();

    // Merged first, node scrapes second (see ordering note above).
    let merged = get(router, "/metrics?buckets=1")?;
    let merged_entries = merged.as_map().ok_or("merged /metrics: not an object")?;
    let mut sums: Vec<(String, u64)> = Vec::new();
    for (&addr, &is_alive) in nodes.iter().zip(&alive) {
        if !is_alive {
            continue;
        }
        let scrape = get(addr, "/metrics?buckets=1")?;
        for (name, value) in scrape.as_map().ok_or("node /metrics: not an object")? {
            if !campaign_plane_metric(name) {
                continue;
            }
            let Some(v) = metric_count(value) else {
                continue;
            };
            match sums.iter_mut().find(|(n, _)| n == name) {
                Some((_, total)) => *total += v,
                None => sums.push((name.clone(), v)),
            }
        }
    }
    let mut metrics: Vec<FleetMetricEntry> = Vec::new();
    for (name, value) in merged_entries {
        if !campaign_plane_metric(name) {
            continue;
        }
        let Some(merged_value) = metric_count(value) else {
            continue;
        };
        let node_sum = sums
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, total)| *total);
        metrics.push(FleetMetricEntry {
            name: name.clone(),
            merged: merged_value,
            node_sum,
        });
    }
    // Symmetric: a campaign-plane name the nodes carry but the merge
    // dropped must fail the match too.
    for (name, total) in &sums {
        if !metrics.iter().any(|e| &e.name == name) {
            metrics.push(FleetMetricEntry {
                name: name.clone(),
                merged: 0,
                node_sum: *total,
            });
        }
    }
    let metrics_matched = !metrics.is_empty() && metrics.iter().all(|e| e.merged == e.node_sum);

    Ok(FleetCheckOutcome {
        nodes_total: nodes.len(),
        nodes_alive,
        kill_requested,
        killed,
        campaigns_expected,
        campaigns_listed,
        reports_attempted: ids.len(),
        reports_ok,
        metrics,
        metrics_matched,
    })
}

/// Names whose merged value must equal the per-node sum at
/// quiescence: the campaign plane only. Serving-plane counters
/// (`endpoint="metrics"`, `healthz`, connection gauges) move with the
/// crosscheck's own scrape traffic and can never reconcile.
fn campaign_plane_metric(name: &str) -> bool {
    name.starts_with("ft_core_")
        || name.starts_with("ft_server_requests_total{endpoint=\"campaign")
        || name.starts_with("ft_server_request_ns{endpoint=\"campaign")
}

/// A metric's comparable magnitude: the value itself for scalars, the
/// sample count for histograms.
fn metric_count(value: &Value) -> Option<u64> {
    match value {
        Value::Num(n) if n.is_finite() => Some(*n as u64),
        Value::Map(fields) => map_get(fields, "count")
            .ok()
            .and_then(Value::as_num)
            .map(|n| n as u64),
        _ => None,
    }
}

/// Resolve `host:port` and probe `/healthz` on each resolved address
/// in turn (a dual-stack hostname can resolve `::1` first while the
/// server listens on `127.0.0.1` only), returning the first address
/// that answers 200 — or a readable error naming every failure.
fn probe_target(target: &str) -> Result<SocketAddr, String> {
    let addrs: Vec<SocketAddr> = target
        .to_socket_addrs()
        .map_err(|e| format!("cannot resolve --target {target}: {e}"))?
        .collect();
    if addrs.is_empty() {
        return Err(format!("--target {target} resolved to no address"));
    }
    let mut failures = Vec::new();
    for addr in addrs {
        match ft_server::client::request(addr, "GET", "/healthz", None) {
            Ok((200, _)) => return Ok(addr),
            Ok((status, _)) => failures.push(format!("{addr}: /healthz answered HTTP {status}")),
            Err(e) => failures.push(format!("{addr}: {e}")),
        }
    }
    Err(format!(
        "target {target}: no resolved address answered /healthz ({})",
        failures.join("; ")
    ))
}

/// Open `connections` concurrent connections, each making one request.
/// The server must answer every one — 200 when a worker is free, 503
/// when the bounded queue is full — and never hang or drop one.
fn flood(addr: SocketAddr, connections: usize) -> FloodOutcome {
    let mut statuses = Vec::with_capacity(connections);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..connections)
            .map(|_| {
                s.spawn(
                    move || match ft_server::client::request(addr, "GET", "/healthz", None) {
                        Ok((status, _)) => status,
                        Err(_) => 0,
                    },
                )
            })
            .collect();
        for handle in handles {
            statuses.push(handle.join().unwrap_or(0));
        }
    });
    FloodOutcome {
        connections,
        ok: statuses.iter().filter(|&&s| s == 200).count(),
        busy: statuses.iter().filter(|&&s| s == 503).count(),
        failed: statuses.iter().filter(|&&s| s != 200 && s != 503).count(),
    }
}

/// Fetch `/metrics` and reconcile the server's request accounting
/// against what this client actually sent.
fn crosscheck(addr: SocketAddr, instruments: &RunInstruments) -> Result<CrosscheckOutcome, String> {
    let (status, body) = ft_server::client::request(addr, "GET", "/metrics", None)
        .map_err(|e| format!("GET /metrics: {e}"))?;
    if status != 200 {
        return Err(format!("GET /metrics: HTTP {status}"));
    }
    let metrics: Value =
        serde_json::from_str(&body).map_err(|e| format!("GET /metrics: bad JSON: {e}"))?;
    let map = metrics
        .as_map()
        .ok_or_else(|| "GET /metrics: not an object".to_string())?;
    let server_num = |name: &str| -> u64 {
        map_get(map, name)
            .ok()
            .and_then(Value::as_num)
            .map_or(0, |v| v as u64)
    };

    let pairs = [
        (Op::Create, "campaign_create"),
        (Op::Solve, "campaign_solve"),
        (Op::Price, "campaign_price"),
        (Op::Observe, "campaign_observe"),
        (Op::PriceBulk, "campaigns_quotes"),
        (Op::ObserveBulk, "campaigns_observations"),
    ];
    let mut entries: Vec<CrosscheckEntry> = pairs
        .iter()
        .map(|&(op, endpoint)| CrosscheckEntry {
            name: format!("requests[{}]", op.label()),
            client: instruments.op_count(op),
            server: server_num(&format!(
                "ft_server_requests_total{{endpoint=\"{endpoint}\"}}"
            )),
        })
        .collect();
    // The registry's own plane rides on the same export: quotes must
    // match price requests (single ops plus the items carried inside
    // bulk round trips), and the recalibrations the client saw in
    // observation responses must match the registry's counter.
    entries.push(CrosscheckEntry {
        name: "quotes".into(),
        client: instruments.op_count(Op::Price) + instruments.bulk_quote_items.get(),
        server: server_num("ft_core_quotes_total"),
    });
    entries.push(CrosscheckEntry {
        name: "recalibrations".into(),
        client: instruments.recalibrations.get(),
        server: server_num("ft_core_recalibrations_total"),
    });
    let matched = entries.iter().all(|e| e.client == e.server);
    Ok(CrosscheckOutcome { entries, matched })
}

/// Resolve every id this client tagged with `x-ft-trace` via
/// `GET /trace/{id}` and validate the span tree — the tracing plane's
/// equivalent of the `/metrics` crosscheck: a trace the server echoed
/// must actually be openable.
fn trace_check(addr: SocketAddr, ids: &[u64]) -> Result<TraceCheckOutcome, String> {
    let mut resolved = 0;
    let mut failures = Vec::new();
    for &id in ids {
        let path = format!("/trace/{id:016x}");
        match ft_server::client::request(addr, "GET", &path, None) {
            Ok((200, body)) => match validate_trace_body(id, &body) {
                Ok(()) => resolved += 1,
                Err(e) => failures.push(format!("{id:016x}: {e}")),
            },
            Ok((status, _)) => failures.push(format!("{id:016x}: HTTP {status}")),
            Err(e) => return Err(format!("GET {path}: {e}")),
        }
    }
    Ok(TraceCheckOutcome {
        checked: ids.len(),
        resolved,
        failures,
    })
}

/// A stored trace must be a well-formed tree: a non-empty span list
/// with exactly one root (`parent_id == 0`) and every other parent
/// resolving to a span in the same trace, all within the root's
/// interval.
fn validate_trace_body(id: u64, body: &str) -> Result<(), String> {
    let value: Value = serde_json::from_str(body).map_err(|e| format!("bad JSON: {e}"))?;
    let map = value.as_map().ok_or("not an object")?;
    let wire_id = map_get(map, "trace_id")
        .ok()
        .and_then(Value::as_str)
        .ok_or("missing trace_id")?;
    if wire_id != format!("{id:016x}") {
        return Err(format!("trace_id {wire_id} is not the id requested"));
    }
    let spans = map_get(map, "spans")
        .ok()
        .and_then(Value::as_seq)
        .ok_or("missing spans array")?;
    if spans.is_empty() {
        return Err("empty span list".into());
    }
    let field = |span: &Value, key: &str| -> Result<f64, String> {
        map_get(span.as_map().unwrap_or(&[]), key)
            .ok()
            .and_then(Value::as_num)
            .ok_or_else(|| format!("span missing numeric `{key}`"))
    };
    let mut span_ids = Vec::with_capacity(spans.len());
    for span in spans {
        span_ids.push(field(span, "span_id")?);
    }
    let mut roots = 0;
    for span in spans {
        let parent = field(span, "parent_id")?;
        if parent == 0.0 {
            roots += 1;
        } else if !span_ids.contains(&parent) {
            return Err(format!("parent {parent} not in trace"));
        }
        if field(span, "end_ns")? < field(span, "start_ns")? {
            return Err("span interval inverted".into());
        }
    }
    if roots != 1 {
        return Err(format!("{roots} roots (expected 1)"));
    }
    Ok(())
}

/// Capture the server's Chrome trace-event dump (must happen before
/// shutdown; `--trace-out` writes it to disk afterwards).
fn fetch_trace_export(addr: SocketAddr) -> Result<String, String> {
    let (status, body) = ft_server::client::request(addr, "GET", "/trace/export", None)
        .map_err(|e| format!("GET /trace/export: {e}"))?;
    if status != 200 {
        return Err(format!("GET /trace/export: HTTP {status}"));
    }
    Ok(body)
}
