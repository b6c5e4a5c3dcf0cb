//! Per-layer timings taken in-process: the benchmark calls each layer's
//! public functions directly. Calls near the timer's resolution are
//! timed in batches, and each batch is recorded as a span for the
//! traced run's Chrome trace file.

use crate::pass::Activity;
use crate::quote::{bulk_body, reference_registry, QuoteInput, BULK_ITEMS};
use crate::stats::Samples;
use crate::wire::{now_ns, request_bytes};
use crate::workload::{deadline_spec, mix, price_path, random_state, rng, stream};
use crate::QUOTE_FLEET;
use ft_core::budget::solve_budget_mdp_with;
use ft_core::kernel::deadline::solve_deadline;
use ft_core::kernel::{KernelConfig, Sweep, TruncationTable};
use ft_core::registry::{CampaignSpec, DEFAULT_EPS};
use ft_core::testkit::paper_budget_problem;
use ft_core::DeadlineProblem;
use ft_server::http::parse_request;
use ft_server::AppState;
use serde::Value;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Kernel solves timed at two threads, for the p90s.
const KERNEL_SOLVES: usize = 100;
/// Of those, solves also timed serially (paired, alternating order) for
/// the speed-up ratios.
const PAIRED_SOLVES: usize = 20;
/// Batches per sub-microsecond measurement; the value is their median.
const BATCHES: usize = 31;
const QUOTES_PER_BATCH: usize = 1000;
const HANDLES_PER_BATCH: usize = 200;
const BULK_HANDLES_PER_BATCH: usize = 20;
const CODEC_PER_BATCH: usize = 50;
/// Random streams of the in-process measurements.
const LAYER_STREAMS: u64 = 3000;

/// A client-side span: one timed in-process batch.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Default)]
pub struct Layers {
    pub metrics: Vec<(String, &'static str, f64)>,
    pub spans: Vec<Span>,
}

impl Layers {
    fn put(&mut self, name: &str, unit: &'static str, value: f64) {
        self.metrics.push((name.to_string(), unit, value));
    }

    /// Run `f` once as a recorded span; its wall time in seconds.
    fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let start_ns = now_ns();
        let started = Instant::now();
        let out = f();
        let secs = started.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: now_ns(),
        });
        (out, secs)
    }

    /// Median over [`BATCHES`] batches of `per_batch` calls of the time
    /// per call, in `scale` units per second.
    fn batched(
        &mut self,
        name: &'static str,
        per_batch: usize,
        scale: f64,
        mut call: impl FnMut(usize),
    ) -> f64 {
        let mut per_call = Samples::default();
        for _ in 0..BATCHES {
            let ((), secs) = self.span(name, || {
                for i in 0..per_batch {
                    call(i);
                }
            });
            per_call.push(secs * scale / per_batch as f64);
        }
        per_call.quantile(0.5).expect("enough batches for a median")
    }
}

fn p(samples: &mut Samples, q: f64) -> f64 {
    samples
        .quantile(q)
        .expect("sample sized for this percentile")
}

/// The deadline problems `plan` solves, and the budget one.
fn kernel(layers: &mut Layers, seed: u64) {
    let problems: Vec<DeadlineProblem> = (0..KERNEL_SOLVES as u64)
        .map(
            |i| match deadline_spec(mix(seed, LAYER_STREAMS + stream::TRACE, i)) {
                CampaignSpec::Deadline { problem, .. } => problem,
                CampaignSpec::Budget { .. } => unreachable!("deadline spec"),
            },
        )
        .collect();
    let serial = KernelConfig::serial();
    let two = KernelConfig::with_threads(2);
    let mut deadline = [Samples::default(), Samples::default()];
    let mut deadline_pair = [Samples::default(), Samples::default()];
    for (i, problem) in problems.iter().enumerate() {
        let trunc = TruncationTable::with_eps(problem, DEFAULT_EPS);
        let solve = |layers: &mut Layers, cfg: &KernelConfig, name| {
            let (policy, secs) = layers.span(name, || {
                solve_deadline(problem, &trunc, Sweep::MonotoneDivide, cfg)
                    .expect("§5.2 problem solves")
            });
            black_box(policy);
            secs * 1e3
        };
        // Alternate which configuration runs first, so slow host phases
        // fall on both sides of the ratio.
        let order = if i % 2 == 0 { [0, 1] } else { [1, 0] };
        for which in order {
            if which == 1 {
                let ms = solve(layers, &two, "ftbench.inproc.kernel_deadline_2t");
                deadline[1].push(ms);
                if i < PAIRED_SOLVES {
                    deadline_pair[1].push(ms);
                }
            } else if i < PAIRED_SOLVES {
                deadline_pair[0].push(solve(
                    layers,
                    &serial,
                    "ftbench.inproc.kernel_deadline_serial",
                ));
            }
        }
    }
    let budget_problem = paper_budget_problem();
    let mut budget = Samples::default();
    let mut budget_pair = [Samples::default(), Samples::default()];
    for i in 0..KERNEL_SOLVES {
        let order = if i % 2 == 0 { [0, 1] } else { [1, 0] };
        for which in order {
            let (cfg, name) = if which == 1 {
                (&two, "ftbench.inproc.kernel_budget_2t")
            } else if i < PAIRED_SOLVES {
                (&serial, "ftbench.inproc.kernel_budget_serial")
            } else {
                continue;
            };
            let (policy, secs) = layers.span(name, || {
                solve_budget_mdp_with(&budget_problem, cfg).expect("paper budget problem solves")
            });
            black_box(policy);
            let ms = secs * 1e3;
            if which == 1 {
                budget.push(ms);
            }
            if i < PAIRED_SOLVES {
                budget_pair[which].push(ms);
            }
        }
    }
    let d90 = p(&mut deadline[1], 0.9);
    layers.put("kernel.deadline_solve_ms_p90", "ms", d90);
    layers.put("kernel.budget_solve_ms_p90", "ms", p(&mut budget, 0.9));
    let first = &problems[0];
    let states = (f64::from(first.n_tasks) + 1.0) * first.n_intervals() as f64;
    layers.put("kernel.deadline_ns_per_state", "ns", d90 * 1e6 / states);
    for (kind, pair) in [
        ("deadline", &mut deadline_pair),
        ("budget", &mut budget_pair),
    ] {
        let serial_ms = p(&mut pair[0], 0.5);
        let two_ms = p(&mut pair[1], 0.5);
        layers.put(&format!("exec.{kind}_serial_ms_p50"), "ms", serial_ms);
        layers.put(&format!("exec.{kind}_2t_ms_p50"), "ms", two_ms);
        layers.put(
            &format!("exec.{kind}_speedup_2t"),
            "ratio",
            serial_ms / two_ms,
        );
    }
}

/// The workload's own request bytes, for the parser.
fn own_requests(main: &Activity) -> Vec<Vec<u8>> {
    match main {
        Activity::Plan(input) => input
            .ops
            .iter()
            .take(16)
            .flat_map(|op| {
                [
                    request_bytes("POST", "/campaigns", &op.wire),
                    request_bytes("POST", "/campaigns/1/solve", ""),
                    request_bytes("DELETE", "/campaigns/1", ""),
                ]
            })
            .collect(),
        Activity::Quote(input) => {
            let ids: Vec<u64> = (1..=input.fleet.len() as u64).collect();
            (0..64)
                .map(|i| match input.op(0, i) {
                    crate::quote::QuoteOp::Single(c, state) => {
                        request_bytes("GET", &price_path(ids[c], state), "")
                    }
                    crate::quote::QuoteOp::Bulk(items) => {
                        request_bytes("POST", "/campaigns/quotes", &bulk_body(&ids, &items))
                    }
                })
                .collect()
        }
        Activity::Drift(input) => (0..input.campaigns().min(32) as u64)
            .flat_map(|id| {
                let state = ft_core::ObservedState::Deadline {
                    remaining: 200,
                    interval: 0,
                };
                [
                    request_bytes("GET", &price_path(id + 1, state), ""),
                    request_bytes(
                        "POST",
                        &format!("/campaigns/{}/observations", id + 1),
                        "{\"interval\":0,\"completions\":3,\"posted_cents\":12}",
                    ),
                ]
            })
            .collect(),
    }
}

fn server_layers(layers: &mut Layers, seed: u64, main: &Activity) -> Result<(), String> {
    // The quote workload's fleet, solved in-process: the registry and
    // handler under test.
    let quote = QuoteInput::generate(seed, 0, QUOTE_FLEET.0, QUOTE_FLEET.1, 0);
    let (registry, ids) = reference_registry(&quote.fleet)?;
    let registry = Arc::new(registry);
    let mut r = rng(seed, LAYER_STREAMS + stream::QUOTE, 0);
    let picks: Vec<(usize, ft_core::ObservedState)> = (0..QUOTES_PER_BATCH)
        .map(|_| {
            let c = crate::workload::below(&mut r, quote.fleet.len());
            (c, random_state(&quote.fleet[c], &mut r))
        })
        .collect();

    let quote_ns = layers.batched(
        "ftbench.inproc.registry_quote",
        QUOTES_PER_BATCH,
        1e9,
        |i| {
            let (c, state) = picks[i];
            black_box(registry.quote(ids[c], state).ok());
        },
    );
    layers.put("registry.quote_ns", "ns", quote_ns);

    let parse = |bytes: &[u8]| {
        parse_request(bytes)
            .ok()
            .flatten()
            .map(|(request, _)| request)
            .ok_or_else(|| "the benchmark's own request did not parse".to_string())
    };
    let requests = own_requests(main);
    for bytes in &requests {
        parse(bytes)?;
    }
    let n = requests.len();
    let parse_ns = layers.batched("ftbench.inproc.http_parse", n, 1e9, |i| {
        black_box(parse_request(&requests[i]).ok());
    });
    layers.put("server.http_parse_ns", "ns", parse_ns);

    let state = AppState::new(Arc::clone(&registry));
    let price: Vec<_> = picks
        .iter()
        .take(HANDLES_PER_BATCH)
        .map(|&(c, s)| parse(&request_bytes("GET", &price_path(ids[c], s), "")))
        .collect::<Result<_, _>>()?;
    let us = layers.batched("ftbench.inproc.handle_price", HANDLES_PER_BATCH, 1e6, |i| {
        black_box(ft_server::handle(&state, &price[i]));
    });
    layers.put("server.handle_us_p50.campaign_price", "us", us);

    let bodies: Vec<String> = picks
        .chunks(BULK_ITEMS)
        .take(BULK_HANDLES_PER_BATCH)
        .map(|items| bulk_body(&ids, items))
        .collect();
    let bulk: Vec<_> = bodies
        .iter()
        .map(|b| parse(&request_bytes("POST", "/campaigns/quotes", b)))
        .collect::<Result<_, _>>()?;
    let m = bulk.len();
    let us = layers.batched("ftbench.inproc.handle_bulk", m, 1e6, |i| {
        black_box(ft_server::handle(&state, &bulk[i]));
    });
    layers.put("server.handle_us_p50.campaigns_quotes", "us", us);

    // A budget report without exposure accounts progress but carries no
    // drift signal, so repeating it never recalibrates.
    let budget_id = ids[quote.fleet.len() - 1];
    let observe = parse(&request_bytes(
        "POST",
        &format!("/campaigns/{budget_id}/observations"),
        "{\"completions\":0,\"spent_cents\":0}",
    ))?;
    let us = layers.batched(
        "ftbench.inproc.handle_observe",
        HANDLES_PER_BATCH,
        1e6,
        |_| {
            black_box(ft_server::handle(&state, &observe));
        },
    );
    layers.put("server.handle_us_p50.campaign_observe", "us", us);

    let response = ft_server::handle(&state, &bulk[0]);
    if response.status != 200 {
        return Err(format!(
            "in-process bulk quote answered {}",
            response.status
        ));
    }
    let answer: Value = serde_json::from_str(&response.body).map_err(|e| e.to_string())?;
    let us = layers.batched("ftbench.inproc.json_decode", CODEC_PER_BATCH, 1e6, |i| {
        black_box(serde_json::from_str::<Value>(&bodies[i % m]).ok());
    });
    layers.put("server.json_decode_us.campaigns_quotes", "us", us);
    let us = layers.batched("ftbench.inproc.json_encode", CODEC_PER_BATCH, 1e6, |_| {
        black_box(serde_json::to_string(&answer).ok());
    });
    layers.put("server.json_encode_us.campaigns_quotes", "us", us);
    Ok(())
}

/// Every in-process layer measurement.
pub fn measure(seed: u64, main: &Activity) -> Result<Layers, String> {
    let mut layers = Layers::default();
    kernel(&mut layers, seed);
    server_layers(&mut layers, seed, main)?;
    Ok(layers)
}
