//! `BENCH_load.json` rendering and the acceptance gates a run must
//! clear before the binary exits 0.

use crate::driver::RunOutcome;
use crate::harness::SocketExtras;
use crate::scenario::Scenario;
use ft_metrics::{HistogramSnapshot, QUANTILES};
use serde::Value;

fn map(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn num(x: f64) -> Value {
    Value::Num(x)
}

fn latency_value(snapshot: &HistogramSnapshot) -> Value {
    let mut fields = vec![
        ("count", num(snapshot.count as f64)),
        ("mean_ns", num(snapshot.mean())),
        ("clamped", num(snapshot.clamped as f64)),
    ];
    for (label, q) in QUANTILES {
        fields.push((
            label,
            match snapshot.quantile(q) {
                Some(v) => num(v as f64),
                None => Value::Null,
            },
        ));
    }
    map(fields)
}

fn run_value(outcome: &RunOutcome, extras: Option<&SocketExtras>) -> Value {
    let mut fields = vec![
        ("backend", Value::Str(outcome.backend.into())),
        ("duration_seconds", num(outcome.duration_seconds)),
        ("campaigns", num(outcome.campaigns as f64)),
        ("requests_total", num(outcome.requests as f64)),
        ("throughput_rps", num(outcome.throughput_rps())),
        ("errors_total", num(outcome.errors as f64)),
        ("recalibrations", num(outcome.recalibrations as f64)),
        (
            "budget_recalibrations",
            num(outcome.budget_recalibrations as f64),
        ),
        ("completions_total", num(outcome.completions as f64)),
        ("budget_exhaustions", num(outcome.budget_exhaustions as f64)),
        ("bulk_quote_items", num(outcome.bulk_quote_items as f64)),
        ("bulk_observe_items", num(outcome.bulk_observe_items as f64)),
        ("dropped_samples", num(outcome.dropped_samples as f64)),
        ("torn_mismatches", num(outcome.torn_mismatches as f64)),
        (
            "requests_by_op",
            Value::Map(
                outcome
                    .op_counts
                    .iter()
                    .map(|(op, n)| (op.to_string(), num(*n as f64)))
                    .collect(),
            ),
        ),
        (
            "latency_ns_by_op",
            Value::Map(
                outcome
                    .latency
                    .iter()
                    .map(|(op, snapshot)| (op.to_string(), latency_value(snapshot)))
                    .collect(),
            ),
        ),
    ];
    if let Some((cache, batched_solves)) = &outcome.pmf_cache {
        fields.push((
            "pmf_cache",
            map(vec![
                ("batched_solves", num(*batched_solves as f64)),
                ("row_lookups", num(cache.lookups() as f64)),
                ("row_hits", num(cache.hits() as f64)),
                ("hit_rate", num(cache.hit_rate())),
                (
                    "note",
                    Value::Str(
                        "hit_rate = row hits ÷ lookups of the registry's one pmf-row \
                         cache over the whole run (every solve and recalibration reads \
                         through it)"
                            .into(),
                    ),
                ),
            ]),
        ));
    }
    if !outcome.error_samples.is_empty() {
        fields.push((
            "error_samples",
            Value::Seq(
                outcome
                    .error_samples
                    .iter()
                    .map(|e| Value::Str(e.clone()))
                    .collect(),
            ),
        ));
    }
    if let Some(extras) = extras {
        if let Some(pool) = &extras.server_pool {
            fields.push((
                "server_pool",
                map(vec![
                    ("workers", num(pool.workers as f64)),
                    ("queue_depth", num(pool.queue_depth as f64)),
                ]),
            ));
        }
        fields.push((
            "flood",
            map(vec![
                ("connections", num(extras.flood.connections as f64)),
                ("ok", num(extras.flood.ok as f64)),
                ("busy_rejected", num(extras.flood.busy as f64)),
                ("failed", num(extras.flood.failed as f64)),
            ]),
        ));
        if let Some(crosscheck) = &extras.crosscheck {
            fields.push((
                "metrics_crosscheck",
                map(vec![
                    ("matched", Value::Bool(crosscheck.matched)),
                    (
                        "entries",
                        Value::Seq(
                            crosscheck
                                .entries
                                .iter()
                                .map(|e| {
                                    map(vec![
                                        ("name", Value::Str(e.name.clone())),
                                        ("client", num(e.client as f64)),
                                        ("server", num(e.server as f64)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ]),
            ));
        }
        if let Some(fleet) = &extras.fleet {
            fields.push((
                "fleet",
                map(vec![
                    ("nodes_total", num(fleet.nodes_total as f64)),
                    ("nodes_alive", num(fleet.nodes_alive as f64)),
                    ("kill_requested", Value::Bool(fleet.kill_requested)),
                    ("killed", Value::Bool(fleet.killed)),
                    ("campaigns_expected", num(fleet.campaigns_expected as f64)),
                    ("campaigns_listed", num(fleet.campaigns_listed as f64)),
                    ("reports_attempted", num(fleet.reports_attempted as f64)),
                    ("reports_ok", num(fleet.reports_ok as f64)),
                    ("metrics_merge_matched", Value::Bool(fleet.metrics_matched)),
                    (
                        "metrics_merge",
                        Value::Seq(
                            fleet
                                .metrics
                                .iter()
                                .map(|e| {
                                    map(vec![
                                        ("name", Value::Str(e.name.clone())),
                                        ("merged", num(e.merged as f64)),
                                        ("node_sum", num(e.node_sum as f64)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ]),
            ));
        }
        if let Some(trace) = &extras.trace {
            fields.push((
                "trace_crosscheck",
                map(vec![
                    ("checked", num(trace.checked as f64)),
                    ("resolved", num(trace.resolved as f64)),
                    (
                        "failures",
                        Value::Seq(
                            trace
                                .failures
                                .iter()
                                .map(|f| Value::Str(f.clone()))
                                .collect(),
                        ),
                    ),
                ]),
            ));
        }
    }
    map(fields)
}

/// The full report document.
pub fn render(scenario: &Scenario, runs: &[(RunOutcome, Option<SocketExtras>)]) -> Value {
    let generated = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0.0, |d| d.as_secs_f64());
    let mut fields = vec![
        ("scenario", Value::Str(scenario.name.clone())),
        ("generated_unix", num(generated)),
        ("seed", num(scenario.seed as f64)),
        ("concurrency", num(scenario.concurrency as f64)),
        ("intervals", num(scenario.intervals as f64)),
        ("drift", num(scenario.drift)),
        ("bulk", num(scenario.bulk as f64)),
        ("campaigns", num(scenario.campaign_count() as f64)),
    ];
    // When the same document carries both backends, summarize the
    // socket tax directly: socket throughput as a fraction of the
    // in-process run's (1.0 = free sockets; the serving tier's target
    // is ≥ 0.5, i.e. within 2× of in-process).
    let find = |label: &str| {
        runs.iter()
            .find(|(outcome, _)| outcome.backend == label)
            .map(|(outcome, _)| outcome.throughput_rps())
    };
    if let (Some(socket), Some(in_process)) = (find("socket"), find("in_process")) {
        if in_process > 0.0 {
            fields.push(("socket_throughput_ratio", num(socket / in_process)));
            fields.push((
                "socket_throughput_ratio_note",
                Value::Str(
                    "socket ÷ in_process throughput from this invocation; it depends on \
                     the host's core count, since the reactor, its workers and the client \
                     share the cores"
                        .into(),
                ),
            ));
        }
    }
    fields.push((
        "runs",
        Value::Seq(
            runs.iter()
                .map(|(outcome, extras)| run_value(outcome, extras.as_ref()))
                .collect(),
        ),
    ));
    map(fields)
}

/// The hard gates: a CI smoke run (and the acceptance bar) fails on
/// any of these. Returns human-readable failure descriptions. The
/// recalibration gate applies only when the scenario can trigger one
/// ([`Scenario::expects_recalibration`]) — a flawless budget-only or
/// no-drift run passes.
pub fn evaluate_gates(
    scenario: &Scenario,
    outcome: &RunOutcome,
    extras: Option<&SocketExtras>,
) -> Vec<String> {
    let mode = outcome.backend;
    let mut failures = Vec::new();
    if outcome.requests == 0 || outcome.throughput_rps() <= 0.0 {
        failures.push(format!("[{mode}] zero throughput"));
    }
    if outcome.errors > 0 {
        failures.push(format!(
            "[{mode}] {} request errors (first: {})",
            outcome.errors,
            outcome.error_samples.first().map_or("?", |s| s.as_str())
        ));
    }
    if outcome.dropped_samples > 0 {
        failures.push(format!(
            "[{mode}] {} dropped (clamped) metric samples",
            outcome.dropped_samples
        ));
    }
    if outcome.torn_mismatches > 0 {
        failures.push(format!(
            "[{mode}] {} torn-merge mismatches between op counters and histograms",
            outcome.torn_mismatches
        ));
    }
    if scenario.expects_recalibration() && outcome.recalibrations == 0 {
        failures.push(format!("[{mode}] no recalibration observed under drift"));
    }
    if scenario.expects_budget_recalibration() && outcome.budget_recalibrations == 0 {
        failures.push(format!(
            "[{mode}] no budget recalibration observed under acceptance drift"
        ));
    }
    for (op, snapshot) in &outcome.latency {
        if snapshot.count > 0 && snapshot.quantile(0.999).is_none() {
            failures.push(format!("[{mode}] no p999 for op {op}"));
        }
    }
    // When the run carries the registry's cache (in-process backend),
    // every solve must have been handed it — a zero here means the
    // registry stopped routing solves through the cache and the storm
    // leg's hit-rate floor would be gating a dead code path.
    if let Some((cache, batched_solves)) = &outcome.pmf_cache {
        if *batched_solves == 0 {
            failures.push(format!(
                "[{mode}] no solve was handed the registry's pmf-row cache"
            ));
        }
        // Budget MDP solves never consult the pmf cache, so the lookup
        // gate only applies when the fleet has deadline campaigns.
        let has_deadline = scenario
            .fleet
            .iter()
            .any(|g| g.kind == crate::scenario::CampaignKind::Deadline && g.count > 0);
        if has_deadline && cache.lookups() == 0 {
            failures.push(format!(
                "[{mode}] deadline solves recorded no shared pmf-cache lookups"
            ));
        }
    }
    if let Some(extras) = extras {
        if extras.flood.failed > 0 {
            failures.push(format!(
                "[{mode}] {} flood connections neither served nor cleanly rejected",
                extras.flood.failed
            ));
        }
        if extras.flood.ok + extras.flood.busy != extras.flood.connections {
            failures.push(format!("[{mode}] flood accounting does not add up"));
        }
        // The crosscheck gate applies only when the harness spawned the
        // server itself (an external --target's counters are not ours).
        if let Some(crosscheck) = &extras.crosscheck {
            if !crosscheck.matched {
                let detail: Vec<String> = crosscheck
                    .entries
                    .iter()
                    .filter(|e| e.client != e.server)
                    .map(|e| format!("{}: client {} vs server {}", e.name, e.client, e.server))
                    .collect();
                failures.push(format!(
                    "[{mode}] /metrics does not reconcile: {}",
                    detail.join("; ")
                ));
            }
        }
        // The fleet gates: nothing lost across the ring flip, the
        // SIGKILL actually happened (a run too short to be killable
        // must not pass vacuously), membership reflects it, and the
        // router's merged /metrics is the sum of per-node truth.
        if let Some(fleet) = &extras.fleet {
            if fleet.campaigns_listed != fleet.campaigns_expected {
                failures.push(format!(
                    "[{mode}] lost campaigns: fleet census lists {} of {} registered",
                    fleet.campaigns_listed, fleet.campaigns_expected
                ));
            }
            if fleet.reports_ok != fleet.reports_attempted {
                failures.push(format!(
                    "[{mode}] {}/{} campaigns answered their report after the flip",
                    fleet.reports_ok, fleet.reports_attempted
                ));
            }
            if fleet.kill_requested && !fleet.killed {
                failures.push(format!(
                    "[{mode}] --kill-pid was armed but the run finished before the \
                     SIGKILL could fire mid-drive (profile too small?)"
                ));
            }
            let expected_alive = fleet.nodes_total - usize::from(fleet.killed);
            if fleet.nodes_alive != expected_alive {
                failures.push(format!(
                    "[{mode}] {} of {} nodes alive (expected {expected_alive})",
                    fleet.nodes_alive, fleet.nodes_total
                ));
            }
            if !fleet.metrics_matched {
                let detail: Vec<String> = fleet
                    .metrics
                    .iter()
                    .filter(|e| e.merged != e.node_sum)
                    .map(|e| format!("{}: merged {} vs node sum {}", e.name, e.merged, e.node_sum))
                    .collect();
                failures.push(format!(
                    "[{mode}] merged /metrics does not reconcile with per-node truth: {}",
                    if detail.is_empty() {
                        "no campaign-plane metrics to compare".to_string()
                    } else {
                        detail.join("; ")
                    }
                ));
            }
        }
        // Same spirit for the tracing plane: every id this client
        // tagged must come back from GET /trace/{id} well-formed.
        if let Some(trace) = &extras.trace {
            if trace.checked == 0 {
                failures.push(format!("[{mode}] no traced requests to cross-check"));
            }
            if trace.resolved != trace.checked || !trace.failures.is_empty() {
                failures.push(format!(
                    "[{mode}] {}/{} traced ids resolved; failures: {}",
                    trace.resolved,
                    trace.checked,
                    trace.failures.join("; ")
                ));
            }
        }
    }
    failures
}
