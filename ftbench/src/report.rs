//! Turning a pass into the printed result: metrics by name and unit,
//! plus a diagnostics line with every distribution's count and tail.

use crate::pass::{PassResult, Phase};
use crate::server::{EXEC_THREADS, WORKERS};
use crate::stats::{estimate, median, Samples};
use crate::workload::Timings;
use crate::Workload;
use serde::Value;

pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// What a run prints: diagnostics lines, then the result object.
pub struct Output {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub diagnostics: Vec<(String, Value)>,
}

fn num(x: f64) -> Value {
    // JSON has no infinity; a failed request recorded as +∞ prints as
    // the largest finite number, which misses any limit.
    Value::Num(if x.is_finite() { x } else { f64::MAX })
}

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

impl Output {
    pub fn print(&self) {
        for (name, value) in &self.diagnostics {
            let line = obj(vec![(name.as_str(), value.clone())]);
            println!(
                "{}",
                serde_json::to_string(&line).expect("diagnostics serialize")
            );
        }
        let metrics = Value::Map(
            self.metrics
                .iter()
                .map(|m| {
                    (
                        m.name.clone(),
                        obj(vec![
                            ("value", num(m.value)),
                            ("unit", Value::Str(m.unit.into())),
                        ]),
                    )
                })
                .collect(),
        );
        let result = obj(vec![
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("metrics", metrics),
        ]);
        println!(
            "{}",
            serde_json::to_string(&result).expect("result serialize")
        );
    }
}

/// The per-round samples an end-to-end metric reads, and the phase they
/// came from: the main activity when it issues that operation, else the
/// side activity that does.
pub fn pick(
    result: &PassResult,
    field: impl Fn(&Timings) -> &Samples,
) -> Option<(&Phase, Vec<Samples>)> {
    result
        .phases()
        .find(|p| p.rounds.iter().any(|t| !field(t).is_empty()))
        .map(|p| (p, p.rounds.iter().map(|t| field(t).clone()).collect()))
}

/// All rounds' samples together.
pub fn pooled(rounds: &[Samples]) -> Samples {
    let mut all = Samples::default();
    for r in rounds {
        all.extend(r);
    }
    all
}

/// `count`, `p50`, `p90`, `p99`, `max` of one distribution (a
/// percentile without ten samples beyond it prints as null).
pub fn describe(samples: &mut Samples, phase: &str) -> Value {
    let q = |s: &mut Samples, q: f64| s.quantile(q).map_or(Value::Null, num);
    obj(vec![
        ("phase", Value::Str(phase.into())),
        ("count", Value::Num(samples.len() as f64)),
        ("p50", q(samples, 0.5)),
        ("p90", q(samples, 0.9)),
        ("p99", q(samples, 0.99)),
        ("max", samples.max().map_or(Value::Null, num)),
    ])
}

pub fn host_facts() -> Value {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let first = |key: &str| {
        cpuinfo
            .lines()
            .find(|l| l.split(':').next().is_some_and(|k| k.trim() == key))
            .and_then(|l| l.split_once(':'))
            .map_or(String::new(), |(_, v)| v.trim().to_string())
    };
    obj(vec![
        (
            "nproc",
            Value::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("cpu_model_name", Value::Str(first("model name"))),
        ("cpu_model", Value::Str(first("model"))),
        ("ft_exec_threads", Value::Num(EXEC_THREADS as f64)),
        ("server_workers", Value::Num(WORKERS as f64)),
    ])
}

/// Attempted and failed requests per kind and per phase, plus the
/// phases' deterministic counts.
pub fn accounting(result: &PassResult) -> Value {
    let phase = |p: &Phase| {
        let tally = p.tally();
        let kinds = tally
            .by_kind()
            .map(|(k, a, f)| {
                (
                    k.to_string(),
                    obj(vec![
                        ("attempted", Value::Num(a as f64)),
                        ("failed", Value::Num(f as f64)),
                    ]),
                )
            })
            .collect();
        let counts = p
            .counts
            .iter()
            .map(|(k, v)| (k.to_string(), Value::Num(*v as f64)))
            .collect();
        obj(vec![
            ("requests", Value::Map(kinds)),
            ("counts", Value::Map(counts)),
            ("mismatches", Value::Num(p.mismatches.len() as f64)),
            ("wall_s", num(p.wall_s)),
            ("check_s", num(p.check_s)),
        ])
    };
    let mut phases = vec![(format!("main:{}", result.main.name), phase(&result.main))];
    for side in &result.sides {
        phases.push((format!("side:{}", side.name), phase(side)));
    }
    phases.push((
        "setup_and_reads".into(),
        obj(vec![
            ("attempted", Value::Num(result.other.attempted() as f64)),
            ("failed", Value::Num(result.other.failed() as f64)),
        ]),
    ));
    Value::Map(phases)
}

/// Whether every check passed, requests attempted, and requests failed
/// (transport and status failures plus rejected answers); the first ten
/// mismatches go to stderr.
pub fn verdict(result: &PassResult) -> (bool, u64, u64) {
    let tally = result.tally();
    let mut mismatches = 0;
    for (kind, what) in result.mismatches() {
        mismatches += 1;
        if mismatches <= 10 {
            eprintln!("ftbench: check failed ({}): {what}", kind.label());
        }
    }
    (
        mismatches == 0,
        tally.attempted(),
        tally.failed() + mismatches,
    )
}

/// The `--trace 0` output.
pub fn end_to_end(workload: Workload, result: &PassResult) -> Result<Output, String> {
    let (correct, attempted, failed) = verdict(result);
    let mut metrics = Vec::new();
    let mut timings = Vec::new();
    metrics.push(Metric {
        name: "setup_s".into(),
        unit: "s",
        value: median(&result.setup_s).unwrap_or(f64::NAN),
    });
    metrics.push(Metric {
        name: "peak_rss_mb".into(),
        unit: "MB",
        value: result.peak_rss_mb,
    });
    metrics.push(Metric {
        name: "server_cpu_us_per_op".into(),
        unit: "us",
        value: result.server_cpu_s * 1e6 / result.main_requests.max(1) as f64,
    });
    type Field = fn(&Timings) -> &Samples;
    // `bounded: false` marks a timing printed with the diagnostics only:
    // its run-to-run spread exceeded the largest bound a metric may have
    // (see README.md).
    let timed: [(&str, &'static str, f64, bool, Field); 7] = [
        ("deadline_plan_ms_p90", "ms", 0.9, true, |t| {
            &t.deadline_plan_ms
        }),
        ("budget_plan_ms_p90", "ms", 0.9, false, |t| {
            &t.budget_plan_ms
        }),
        ("quote_us_p50", "us", 0.5, true, |t| &t.quote_us),
        ("quote_us_p90", "us", 0.9, false, |t| &t.quote_us),
        ("bulk_quote_us_p50", "us", 0.5, true, |t| &t.bulk_quote_us),
        ("observe_us_p50", "us", 0.5, true, |t| &t.observe_us),
        ("deadline_recal_ms_p90", "ms", 0.9, true, |t| {
            &t.deadline_recal_ms
        }),
    ];
    for (name, unit, q, bounded, field) in timed {
        // Only the plan workload issues budget plans.
        let Some((phase, rounds)) = pick(result, field) else {
            if bounded {
                return Err(format!("no samples for {name}"));
            }
            continue;
        };
        let estimated = estimate(&rounds, q);
        if bounded {
            let (value, _) = estimated.ok_or_else(|| {
                format!(
                    "{name}: {} samples cannot support the percentile",
                    pooled(&rounds).len()
                )
            })?;
            metrics.push(Metric {
                name: name.into(),
                unit,
                value,
            });
        }
        let mut about = describe(&mut pooled(&rounds), phase.name);
        if let Value::Map(fields) = &mut about {
            let (value, blocks) = estimated.map_or((Value::Null, 0.0), |(v, b)| (num(v), b as f64));
            fields.push(("value".into(), value));
            fields.push((
                "steal".into(),
                Value::Seq(phase.steal.iter().map(|&s| num(s)).collect()),
            ));
            fields.push(("blocks".into(), Value::Num(blocks)));
            let per_round = rounds
                .iter()
                .map(|r| r.clone().quantile(q).map_or(Value::Null, num));
            fields.push(("per_round".into(), Value::Seq(per_round.collect())));
        }
        timings.push((name.to_string(), about));
    }
    let diagnostics = vec![
        ("host".to_string(), host_facts()),
        (
            "run".to_string(),
            obj(vec![
                (
                    "workload",
                    Value::Str(format!("{workload:?}").to_lowercase()),
                ),
                (
                    "setup_s",
                    Value::Seq(result.setup_s.iter().map(|&s| num(s)).collect()),
                ),
                ("main_wall_s", num(result.main.wall_s)),
                ("main_requests", Value::Num(result.main_requests as f64)),
                (
                    "client_cpu_us_per_op",
                    num(result.client_cpu_s * 1e6 / result.main_requests.max(1) as f64),
                ),
            ]),
        ),
        ("timings".to_string(), Value::Map(timings)),
        ("accounting".to_string(), accounting(result)),
    ];
    Ok(Output {
        correct,
        attempted,
        failed,
        metrics,
        diagnostics,
    })
}
