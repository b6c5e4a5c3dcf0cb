//! The `ft-load` binary: run a scenario, print a summary, write
//! `BENCH_load.json`, exit non-zero if any acceptance gate fails.

use ft_load::harness::SocketExtras;
use ft_load::{report, RunOutcome, Scenario};
use ft_metrics::QUANTILES;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    InProcess,
    Socket,
    Both,
}

struct Args {
    scenario: Scenario,
    mode: Mode,
    out: String,
    /// External server (`host:port`) for socket mode; `None` spawns an
    /// in-process `ft-server`.
    target: Option<String>,
    /// Write the socket run's Chrome trace-event dump here.
    trace_out: Option<String>,
    /// Fleet mode: the backend `ft-server` addresses behind the
    /// `--target` router, for the merged-vs-per-node crosscheck.
    fleet_nodes: Option<Vec<String>>,
    /// Fleet mode: SIGKILL this backend process mid-drive.
    kill_pid: Option<u32>,
}

const USAGE: &str = "\
ft-load — closed-loop workload generator for the campaign serving stack

USAGE:
    ft-load [--fast] [--profile NAME] [--scenario FILE]
            [--mode in-process|socket|both] [--target HOST:PORT] [--out FILE]

OPTIONS:
    --fast             seconds-scale variant of the selected profile
                       (default profile: standard)
    --profile NAME     built-in profile: standard | fast | bulk-fast |
                       budget-drift | storm | fleet (budget-drift +
                       --fast = budget-drift-fast; bulk-fast drives the
                       batched quote/observe plane; storm floods the
                       registry with identical deadline campaigns so
                       their solves and recalibrations share pmf rows
                       — the in-process report carries the cache hit
                       rate the perf gate floors; fleet drives an
                       ft-router front tier — see --fleet-nodes)
    --scenario FILE    JSON scenario spec (overrides --fast/--profile)
    --mode MODE        which backend(s) to drive   [default: both]
    --target HOST:PORT drive an external ft-server instead of spawning
                       one (implies --mode socket; the /metrics
                       crosscheck gate is skipped — an external server
                       may carry traffic this client never sent)
    --out FILE         report path                 [default: BENCH_load.json]
    --trace-out FILE   write the spawned server's GET /trace/export
                       dump (Chrome trace-event JSON, loadable in
                       Perfetto) after the socket run
    --fleet-nodes LIST comma-separated HOST:PORT backends behind the
                       --target router (requires --target); enables the
                       fleet epilogue: zero-lost census, per-campaign
                       report sweep, and the router's merged /metrics
                       reconciled against direct per-node scrapes
    --kill-pid PID     SIGKILL this backend process once the run is
                       mid-drive (requires --fleet-nodes) — the gates
                       then demand zero lost campaigns and 100% quote
                       success across the unplanned ring flip
";

fn parse_args() -> Result<Args, String> {
    let mut fast = false;
    let mut profile: Option<String> = None;
    let mut scenario_path: Option<String> = None;
    let mut mode: Option<Mode> = None;
    let mut target: Option<String> = None;
    let mut out = "BENCH_load.json".to_string();
    let mut trace_out: Option<String> = None;
    let mut fleet_nodes: Option<Vec<String>> = None;
    let mut kill_pid: Option<u32> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--fast" => fast = true,
            "--profile" => profile = Some(args.next().ok_or("--profile needs a name")?),
            "--scenario" => {
                scenario_path = Some(args.next().ok_or("--scenario needs a file path")?)
            }
            "--mode" => {
                mode = Some(match args.next().as_deref() {
                    Some("in-process") => Mode::InProcess,
                    Some("socket") => Mode::Socket,
                    Some("both") => Mode::Both,
                    other => return Err(format!("bad --mode {other:?} (in-process|socket|both)")),
                })
            }
            "--target" => target = Some(args.next().ok_or("--target needs HOST:PORT")?),
            "--out" => out = args.next().ok_or("--out needs a file path")?,
            "--trace-out" => trace_out = Some(args.next().ok_or("--trace-out needs a file path")?),
            "--fleet-nodes" => {
                let list = args.next().ok_or("--fleet-nodes needs HOST:PORT[,...]")?;
                let nodes: Vec<String> = list
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .collect();
                if nodes.is_empty() {
                    return Err("--fleet-nodes needs at least one HOST:PORT".into());
                }
                fleet_nodes = Some(nodes);
            }
            "--kill-pid" => {
                let raw = args.next().ok_or("--kill-pid needs a process id")?;
                kill_pid = Some(
                    raw.parse()
                        .map_err(|_| format!("--kill-pid: `{raw}` is not a pid"))?,
                );
            }
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`\n\n{USAGE}")),
        }
    }
    let mode = match (&target, mode) {
        // An external target only makes sense for the socket surface.
        (Some(_), None) => Mode::Socket,
        (Some(_), Some(Mode::Socket)) => Mode::Socket,
        (Some(_), Some(_)) => {
            return Err("--target drives an external server; it requires --mode socket".into())
        }
        (None, mode) => mode.unwrap_or(Mode::Both),
    };
    let scenario = match (scenario_path, profile.as_deref()) {
        (Some(path), _) => {
            let json = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
            Scenario::from_json(&json)?
        }
        (None, Some("budget-drift")) => Scenario::budget_drift(fast),
        (None, Some("fast")) => Scenario::fast(),
        (None, Some("bulk-fast")) => Scenario::bulk_fast(),
        (None, Some("storm")) => Scenario::storm(fast),
        (None, Some("fleet")) => Scenario::fleet(fast),
        (None, Some("standard")) => {
            if fast {
                Scenario::fast()
            } else {
                Scenario::standard()
            }
        }
        (None, Some(other)) => {
            return Err(format!(
                "unknown --profile `{other}` (standard | fast | bulk-fast | \
                 budget-drift | storm | fleet)"
            ))
        }
        (None, None) if fast => Scenario::fast(),
        (None, None) => Scenario::standard(),
    };
    if trace_out.is_some() && target.is_some() {
        return Err(
            "--trace-out needs a spawned server (it cannot be combined with --target, \
                    whose trace store also holds other clients' traces)"
                .into(),
        );
    }
    if fleet_nodes.is_some() && target.is_none() {
        return Err(
            "--fleet-nodes describes the backends behind a router; it requires \
                    --target ROUTER_HOST:PORT"
                .into(),
        );
    }
    if kill_pid.is_some() && fleet_nodes.is_none() {
        return Err(
            "--kill-pid only makes sense with --fleet-nodes (the fleet gates \
                    are what assert the failover survived)"
                .into(),
        );
    }
    scenario.validate()?;
    Ok(Args {
        scenario,
        mode,
        out,
        target,
        trace_out,
        fleet_nodes,
        kill_pid,
    })
}

fn print_summary(outcome: &RunOutcome, extras: Option<&SocketExtras>) {
    println!(
        "[{}] {} campaigns, {} requests in {:.2}s → {:.0} req/s; \
         {} completions, {} recalibrations ({} budget), {} errors",
        outcome.backend,
        outcome.campaigns,
        outcome.requests,
        outcome.duration_seconds,
        outcome.throughput_rps(),
        outcome.completions,
        outcome.recalibrations,
        outcome.budget_recalibrations,
        outcome.errors,
    );
    for (op, snapshot) in &outcome.latency {
        if snapshot.count == 0 {
            continue;
        }
        let quantiles: Vec<String> = QUANTILES
            .iter()
            .map(|&(label, q)| {
                format!(
                    "{label}={:.1}µs",
                    snapshot.quantile(q).unwrap_or(0) as f64 / 1000.0
                )
            })
            .collect();
        println!(
            "  {op:<8} n={:<6} mean={:.1}µs {}",
            snapshot.count,
            snapshot.mean() / 1000.0,
            quantiles.join(" ")
        );
    }
    // The registry's pmf-row cache (in-process runs): how many solves
    // read through it and how hard it worked — the storm profile's
    // reason to exist.
    if let Some((cache, batched_solves)) = &outcome.pmf_cache {
        println!(
            "  pmf cache: {batched_solves} solves, hit rate {:.3} ({}/{} row lookups)",
            cache.hit_rate(),
            cache.hits(),
            cache.lookups(),
        );
    }
    // Clamped samples fell outside the histogram range, so the tail
    // quantiles above silently understate them — say so out loud (the
    // gate also fails the run).
    let clamped: u64 = outcome.latency.iter().map(|(_, s)| s.clamped).sum();
    if clamped > 0 {
        println!(
            "  WARNING: {clamped} latency sample(s) clamped to the histogram range — \
             tail quantiles above are underestimates"
        );
    }
    if let Some(extras) = extras {
        let pool = match &extras.server_pool {
            Some(pool) => format!(
                " (pool: {} workers, queue {})",
                pool.workers, pool.queue_depth
            ),
            None => " (external target)".to_string(),
        };
        println!(
            "  flood: {} connections → {} ok, {} busy-rejected, {} failed{pool}",
            extras.flood.connections, extras.flood.ok, extras.flood.busy, extras.flood.failed,
        );
        match &extras.crosscheck {
            None => println!("  /metrics crosscheck: skipped (external target)"),
            Some(crosscheck) if crosscheck.matched => println!("  /metrics crosscheck: matched"),
            Some(crosscheck) => println!(
                "  /metrics crosscheck: MISMATCH ({})",
                crosscheck
                    .entries
                    .iter()
                    .filter(|e| e.client != e.server)
                    .map(|e| format!("{} {}≠{}", e.name, e.client, e.server))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        }
        if let Some(fleet) = &extras.fleet {
            println!(
                "  fleet: {}/{} nodes alive{}; census {}/{} campaigns, reports {}/{}; \
                 merged /metrics vs node truth: {}",
                fleet.nodes_alive,
                fleet.nodes_total,
                match (fleet.kill_requested, fleet.killed) {
                    (true, true) => " (one SIGKILLed mid-drive)",
                    (true, false) => " (kill armed but NEVER FIRED)",
                    (false, _) => "",
                },
                fleet.campaigns_listed,
                fleet.campaigns_expected,
                fleet.reports_ok,
                fleet.reports_attempted,
                if fleet.metrics_matched {
                    "matched".to_string()
                } else {
                    format!(
                        "MISMATCH ({})",
                        fleet
                            .metrics
                            .iter()
                            .filter(|e| e.merged != e.node_sum)
                            .map(|e| format!("{} {}≠{}", e.name, e.merged, e.node_sum))
                            .collect::<Vec<_>>()
                            .join(", ")
                    )
                },
            );
        }
        match &extras.trace {
            None => println!("  trace crosscheck: skipped (external target)"),
            Some(trace) if trace.failures.is_empty() && trace.resolved == trace.checked => {
                println!(
                    "  trace crosscheck: {}/{} tagged ids resolved with well-formed span trees",
                    trace.resolved, trace.checked
                )
            }
            Some(trace) => println!(
                "  trace crosscheck: FAILED {}/{} resolved ({})",
                trace.resolved,
                trace.checked,
                trace.failures.join(", ")
            ),
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ft-load: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "scenario `{}`: {} campaigns, {} workers, {} intervals, drift {}",
        args.scenario.name,
        args.scenario.campaign_count(),
        args.scenario.concurrency,
        args.scenario.intervals,
        args.scenario.drift,
    );

    let mut runs: Vec<(RunOutcome, Option<SocketExtras>)> = Vec::new();
    let mut failures = Vec::new();

    if matches!(args.mode, Mode::InProcess | Mode::Both) {
        let outcome = ft_load::run_in_process(&args.scenario);
        print_summary(&outcome, None);
        failures.extend(report::evaluate_gates(&args.scenario, &outcome, None));
        runs.push((outcome, None));
    }
    if matches!(args.mode, Mode::Socket | Mode::Both) {
        let socket_run = match (&args.target, &args.fleet_nodes) {
            (Some(target), Some(nodes)) => {
                ft_load::run_socket_fleet(&args.scenario, target, nodes, args.kill_pid)
            }
            (Some(target), None) => ft_load::run_socket_target(&args.scenario, target),
            (None, _) => ft_load::run_socket(&args.scenario),
        };
        match socket_run {
            Ok((outcome, extras)) => {
                print_summary(&outcome, Some(&extras));
                failures.extend(report::evaluate_gates(
                    &args.scenario,
                    &outcome,
                    Some(&extras),
                ));
                runs.push((outcome, Some(extras)));
            }
            Err(e) => failures.push(format!("[socket] harness: {e}")),
        }
    }

    let document = report::render(&args.scenario, &runs);
    let json = serde_json::to_string(&document).expect("render report");
    if let Err(e) = std::fs::write(&args.out, &json) {
        failures.push(format!("write {}: {e}", args.out));
    } else {
        println!("report written to {}", args.out);
    }

    if let Some(path) = &args.trace_out {
        let export = runs
            .iter()
            .find_map(|(_, extras)| extras.as_ref().and_then(|e| e.trace_export.clone()));
        match export {
            Some(export) => {
                if let Err(e) = std::fs::write(path, &export) {
                    failures.push(format!("write {path}: {e}"));
                } else {
                    println!("trace export written to {path}");
                }
            }
            None => failures.push(format!(
                "--trace-out {path}: no trace export captured (socket run missing or failed)"
            )),
        }
    }

    if !failures.is_empty() {
        eprintln!("\nFAILED gates:");
        for failure in &failures {
            eprintln!("  - {failure}");
        }
        std::process::exit(1);
    }
    println!("all gates passed.");
}
