//! The `--trace 1` run: per-layer metrics, never end-to-end ones.
//!
//! 1. An untraced pass with `/metrics` read before and after every main
//!    slice; server-side numbers are bucket and counter deltas summed over
//!    the main slices (or over the side slices, for an operation the main
//!    activity does not issue).
//! 2. A traced pass: a seeded sample of requests carries `x-ft-trace`,
//!    each trace is fetched right after its request, and self time is
//!    computed per span name. Its main metric against the untraced
//!    pass's is the tracing overhead.
//! 3. In-process calls into each layer's public functions.
//!
//! Every span, the benchmark's own and the server's, goes to one Chrome
//! trace-event file under `ftbench/out/`.

use crate::layers::{self, Layers};
use crate::pass::{run_pass, Activity, PassConfig, PassResult, ROUNDS};
use crate::report::{describe, host_facts, pick, verdict, Metric, Output};
use crate::server::MetricsDump;
use crate::stats::{self, estimate, Samples, SpanTime};
use crate::wire::{field, Kind, TracedCall};
use crate::workload::{PlanInput, Timings};
use crate::Workload;
use serde::Value;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// About one request in this many is traced in the main activity, and
/// one in [`SIDE_TRACE_EVERY`] in the smaller side activities, so that every span
/// kind gathers samples on every workload.
const TRACE_EVERY: u64 = 16;
const SIDE_TRACE_EVERY: u64 = 2;
/// Traced requests whose spans go into the Chrome file.
const CHROME_TRACES: usize = 2000;
const OUT_DIR: &str = "ftbench/out";

/// The server spans whose self time is reported.
pub const SPANS: [&str; 13] = [
    "server.request.serve",
    "server.reactor.queue_wait",
    "core.registry.quote",
    "core.registry.observe",
    "core.engine.observe",
    "core.registry.recalibrate",
    "core.registry.publish",
    "core.service.batch_wait",
    "core.kernel.sweep",
    "core.kernel.induct_layer",
    "core.kernel.build_rows",
    "exec.pool.dispatch",
    "exec.pool.join",
];

/// Endpoints whose server-side request time is reported.
const ENDPOINTS: [&str; 4] = [
    "campaign_price",
    "campaigns_quotes",
    "campaign_observe",
    "campaign_solve",
];

/// The metric each workload's tracing overhead is judged on, and the
/// request kind whose unattributed time is reported.
fn main_metric(workload: Workload) -> (&'static str, f64, fn(&Timings) -> &Samples, Kind) {
    match workload {
        Workload::Plan => (
            "deadline_plan_ms_p90",
            0.9,
            |t| &t.deadline_plan_ms,
            Kind::Solve,
        ),
        Workload::Quote => ("quote_us_p50", 0.5, |t| &t.quote_us, Kind::Price),
        Workload::Drift => ("observe_us_p50", 0.5, |t| &t.observe_us, Kind::Observe),
    }
}

/// One server span out of a `GET /trace/{id}` body.
struct ServerSpan {
    name: String,
    time: SpanTime,
    tid: u64,
}

fn parse_trace(body: &str) -> Option<Vec<ServerSpan>> {
    let value: Value = serde_json::from_str(body).ok()?;
    field(&value, "spans")?
        .as_seq()?
        .iter()
        .map(|s| {
            let n = |k| field(s, k).and_then(Value::as_num).map(|v| v as u64);
            Some(ServerSpan {
                name: field(s, "name")?.as_str()?.to_string(),
                time: SpanTime {
                    id: n("span_id")?,
                    parent: n("parent_id")?,
                    start_ns: n("start_ns")?,
                    end_ns: n("end_ns")?,
                },
                tid: n("tid")?,
            })
        })
        .collect()
}

/// What the traced requests of one phase show.
#[derive(Default)]
struct TraceStats {
    self_us: BTreeMap<String, Samples>,
    /// Client round trip minus the server's root span, by request kind.
    unattributed_us: BTreeMap<Kind, Samples>,
    fetched: u64,
    missing: u64,
}

fn trace_stats<'a>(calls: impl Iterator<Item = &'a TracedCall>) -> TraceStats {
    let mut out = TraceStats::default();
    for call in calls {
        let Some(spans) = call.trace_json.as_deref().and_then(parse_trace) else {
            out.missing += 1;
            continue;
        };
        out.fetched += 1;
        let times: Vec<SpanTime> = spans.iter().map(|s| s.time).collect();
        for (span, own) in spans.iter().zip(stats::self_times(&times)) {
            out.self_us
                .entry(span.name.clone())
                .or_default()
                .push(own as f64 / 1e3);
        }
        if let Some(root) = spans.iter().find(|s| s.time.parent == 0) {
            let root_us = (root.time.end_ns - root.time.start_ns) as f64 / 1e3;
            out.unattributed_us
                .entry(call.kind)
                .or_default()
                .push(call.micros - root_us);
        }
    }
    out
}

/// The export indices bounding each round's main slices (`main`) or its
/// side slices: `/metrics` is read before and after every main slice and
/// once at the end.
fn slices(main: bool) -> impl Iterator<Item = (usize, usize)> {
    (0..ROUNDS).map(move |r| {
        if main {
            (2 * r, 2 * r + 1)
        } else {
            (2 * r + 1, 2 * r + 2)
        }
    })
}

/// A server counter's increase over the main slices, or over the side
/// slices.
fn counter_delta(snaps: &[MetricsDump], name: &str, main: bool) -> Result<f64, String> {
    slices(main)
        .map(|(a, b)| Ok(snaps[b].counter(name)? - snaps[a].counter(name)?))
        .sum()
}

/// A per-layer value the run could not measure fails the run; it never
/// reads as 0, which a lower-is-better metric would take as perfect.
fn need<T>(name: &str, value: Option<T>) -> Result<T, String> {
    value.ok_or_else(|| format!("{name}: too few samples to measure"))
}

/// A server histogram's bucket deltas summed over the main slices, or
/// over the side slices.
fn histogram_delta(
    snaps: &[MetricsDump],
    name: &str,
    main: bool,
) -> Result<Vec<(usize, u64)>, String> {
    let mut total: BTreeMap<usize, u64> = BTreeMap::new();
    for (a, b) in slices(main) {
        for (bucket, count) in
            stats::bucket_delta(snaps[a].histogram(name), snaps[b].histogram(name))?
        {
            *total.entry(bucket).or_default() += count;
        }
    }
    Ok(total.into_iter().collect())
}

/// A server histogram's quantile over the main slices, or over the side
/// slices when the main activity recorded nothing; `(phase, count,
/// quantile in ns)`.
fn server_quantile(
    snaps: &[MetricsDump],
    name: &str,
    q: f64,
) -> Result<(&'static str, u64, Option<f64>), String> {
    let (count, value) = stats::delta_quantile(&histogram_delta(snaps, name, true)?, q)?;
    if count > 0 {
        return Ok(("main", count, value));
    }
    let (count, value) = stats::delta_quantile(&histogram_delta(snaps, name, false)?, q)?;
    Ok(("side", count, value))
}

fn chrome_file(
    workload: Workload,
    seed: u64,
    traced: &PassResult,
    layers: &Layers,
) -> Result<String, String> {
    let mut events = Vec::new();
    let mut event = |name: &str, pid: u32, tid: u64, start_ns: f64, dur_ns: f64, args: String| {
        let mut e = String::new();
        let _ = write!(
            e,
            "{{\"name\":{},\"cat\":\"ftbench\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":{pid},\"tid\":{tid},\"args\":{{{args}}}}}",
            serde_json::to_string(&Value::Str(name.to_string())).expect("string serializes"),
            start_ns / 1e3,
            dur_ns / 1e3,
        );
        events.push(e);
    };
    for (phase, call) in traced
        .phases()
        .flat_map(|p| p.traced().map(move |c| (p.name, c)))
        .take(CHROME_TRACES)
    {
        let conn = call.conn;
        let args = format!(
            "\"trace_id\":\"{}\",\"phase\":\"{phase}\"",
            ft_trace::format_trace_id(call.trace_id)
        );
        let dur_ns = call.micros * 1e3;
        event(
            &format!("ftbench.client.{}", call.kind.label()),
            2,
            conn,
            call.start_ns as f64,
            dur_ns,
            args.clone(),
        );
        let Some(spans) = call.trace_json.as_deref().and_then(parse_trace) else {
            continue;
        };
        let Some(root) = spans.iter().find(|s| s.time.parent == 0) else {
            continue;
        };
        // The server clock is its own; centre its root span inside the
        // client's round trip (an alignment, not a measurement).
        let root_ns = (root.time.end_ns - root.time.start_ns) as f64;
        let offset = call.start_ns as f64 + (dur_ns - root_ns) / 2.0 - root.time.start_ns as f64;
        for span in &spans {
            event(
                &span.name,
                1,
                span.tid,
                span.time.start_ns as f64 + offset,
                (span.time.end_ns - span.time.start_ns) as f64,
                args.clone(),
            );
        }
    }
    for span in &layers.spans {
        event(
            span.name,
            2,
            1000,
            span.start_ns as f64,
            (span.end_ns - span.start_ns) as f64,
            String::new(),
        );
    }
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
    let path = format!(
        "{OUT_DIR}/trace-{}-seed{seed}.json",
        format!("{workload:?}").to_lowercase()
    );
    let doc = format!(
        "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[{}]}}",
        events.join(",")
    );
    std::fs::write(&path, doc).map_err(|e| format!("write {path}: {e}"))?;
    Ok(path)
}

pub fn per_layer(
    workload: Workload,
    seed: u64,
    server_bin: &Path,
    main: &Activity,
    sides: &[Activity],
    warmup: &PlanInput,
) -> Result<Output, String> {
    let untraced = run_pass(
        &PassConfig {
            server_bin,
            setups: 1,
            snapshots: true,
            trace: None,
        },
        main,
        sides,
        warmup,
    )?;
    let traced = run_pass(
        &PassConfig {
            server_bin,
            setups: 1,
            snapshots: false,
            trace: Some((seed, TRACE_EVERY, SIDE_TRACE_EVERY)),
        },
        main,
        sides,
        warmup,
    )?;
    let layers = layers::measure(seed, main)?;

    let mut metrics: Vec<Metric> = Vec::new();
    let mut diag: Vec<(String, Value)> = Vec::new();
    let mut put =
        |name: String, unit: &'static str, value: f64| metrics.push(Metric { name, unit, value });

    for (name, unit, value) in &layers.metrics {
        put(name.clone(), unit, *value);
    }

    // Server-side deltas of the untraced pass.
    let snaps = &untraced.snapshots;
    let delta = |name: &str| counter_delta(snaps, name, true);
    put(
        "exec.steals".into(),
        "count",
        delta("ft_exec_steals_total")?,
    );
    put(
        "exec.deque_overflows".into(),
        "count",
        delta("ft_exec_deque_overflow_total")?,
    );
    // The scheduler counters, and so the hits-per-solve ratio with its
    // base, come from the side slices when the main activity solves
    // nothing (quote).
    let scheduler_main = delta("ft_core_batched_solves_total")? > 0.0;
    let batched = counter_delta(snaps, "ft_core_batched_solves_total", scheduler_main)?;
    let hits = counter_delta(snaps, "ft_core_pmf_cache_hits_total", scheduler_main)?;
    put("scheduler.batched_solves".into(), "count", batched);
    put("scheduler.pmf_hits".into(), "count", hits);
    put(
        "scheduler.pmf_hits_per_solve".into(),
        "ratio",
        need(
            "scheduler.pmf_hits_per_solve",
            (batched > 0.0).then(|| hits / batched),
        )?,
    );
    let mut server_diag = vec![(
        "scheduler".to_string(),
        Value::Map(vec![
            (
                "phase".into(),
                Value::Str(if scheduler_main { "main" } else { "side" }.into()),
            ),
            ("count".into(), Value::Num(batched)),
        ]),
    )];
    let mut server_metric = |metric: String,
                             hist: &str,
                             q: f64,
                             scale: f64,
                             unit: &'static str|
     -> Result<(), String> {
        let (phase, count, value) = server_quantile(snaps, hist, q)?;
        server_diag.push((
            metric.clone(),
            Value::Map(vec![
                ("phase".into(), Value::Str(phase.into())),
                ("count".into(), Value::Num(count as f64)),
            ]),
        ));
        let value = need(&metric, value)?;
        put(metric, unit, value / scale);
        Ok(())
    };
    server_metric(
        "registry.solve_ms_p90".into(),
        "ft_core_solve_ns",
        0.9,
        1e6,
        "ms",
    )?;
    for ep in ENDPOINTS {
        server_metric(
            format!("server.request_us_p50.{ep}"),
            &format!("ft_server_request_ns{{endpoint=\"{ep}\"}}"),
            0.5,
            1e3,
            "us",
        )?;
    }
    server_metric(
        "server.queue_wait_us_p50".into(),
        "ft_server_queue_wait_ns",
        0.5,
        1e3,
        "us",
    )?;
    diag.push(("server_sources".into(), Value::Map(server_diag)));

    // The drift replay's in-process registry timings.
    let replay = untraced
        .phases()
        .find_map(|p| p.replay.as_ref())
        .ok_or("no drift replay in the pass")?;
    let mut replay_t = replay.timings.clone();
    put(
        "registry.observe_us_p50".into(),
        "us",
        need("registry.observe_us_p50", replay_t.observe_us.quantile(0.5))?,
    );
    put(
        "registry.recalibrate_ms_p90".into(),
        "ms",
        need(
            "registry.recalibrate_ms_p90",
            replay_t.deadline_recal_ms.quantile(0.9),
        )?,
    );
    put(
        "registry.recalibrations".into(),
        "count",
        (replay_t.deadline_recal_ms.len() + replay_t.budget_recal_ms.len()) as f64,
    );

    // The traced pass.
    let (main_name, q, field_of, main_kind) = main_metric(workload);
    let measure = |result: &PassResult| {
        pick(result, field_of).and_then(|(_, rounds)| estimate(&rounds, q).map(|(v, _)| v))
    };
    let base = measure(&untraced).ok_or("untraced main metric missing")?;
    let with_tracing = measure(&traced).ok_or("traced main metric missing")?;
    put(
        "trace.overhead_pct".into(),
        "%",
        (with_tracing - base) / base * 100.0,
    );
    diag.push((
        "trace_overhead_base".into(),
        Value::Map(vec![
            ("metric".into(), Value::Str(main_name.into())),
            ("untraced".into(), Value::Num(base)),
            ("traced".into(), Value::Num(with_tracing)),
        ]),
    ));
    let per_phase: Vec<(&str, TraceStats)> = traced
        .phases()
        .map(|p| (p.name, trace_stats(p.traced())))
        .collect();
    let fetched: u64 = per_phase.iter().map(|(_, s)| s.fetched).sum();
    let missing: u64 = per_phase.iter().map(|(_, s)| s.missing).sum();
    put("trace.traces".into(), "count", fetched as f64);
    put("trace.missing".into(), "count", missing as f64);
    let mut unattributed = per_phase[0]
        .1
        .unattributed_us
        .get(&main_kind)
        .cloned()
        .unwrap_or_default();
    put(
        "server.unattributed_us_p50".into(),
        "us",
        need("server.unattributed_us_p50", unattributed.quantile(0.5))?,
    );
    let mut span_diag = Vec::new();
    for span in SPANS {
        let name = format!("trace.self_us_p50.{span}");
        let found = per_phase.iter().find_map(|(phase, s)| {
            let mut samples = s.self_us.get(span)?.clone();
            let p50 = samples.quantile(0.5)?;
            Some((*phase, samples, p50))
        });
        let (phase, mut samples, p50) = need(&name, found)?;
        span_diag.push((span.to_string(), describe(&mut samples, phase)));
        put(name, "us", p50);
    }
    let mut unattributed_diag = Vec::new();
    for (phase, s) in &per_phase {
        for (kind, samples) in &s.unattributed_us {
            let mut samples = samples.clone();
            unattributed_diag.push((
                format!("{phase}.{}", kind.label()),
                describe(&mut samples, phase),
            ));
        }
    }
    diag.push(("self_us".into(), Value::Map(span_diag)));
    diag.push(("unattributed_us".into(), Value::Map(unattributed_diag)));

    put(
        "client.cpu_us_per_op".into(),
        "us",
        untraced.client_cpu_s * 1e6 / untraced.main_requests.max(1) as f64,
    );

    let path = chrome_file(workload, seed, &traced, &layers)?;
    diag.push(("chrome_trace".into(), Value::Str(path)));
    diag.insert(0, ("host".into(), host_facts()));

    let (ok_a, attempted_a, failed_a) = verdict(&untraced);
    let (ok_b, attempted_b, failed_b) = verdict(&traced);
    Ok(Output {
        correct: ok_a && ok_b,
        attempted: attempted_a + attempted_b,
        failed: failed_a + failed_b,
        metrics,
        diagnostics: diag,
    })
}
