//! The campaign registry's hot paths: the quote latency of one solved
//! paper-scale campaign, the amortized cost of campaign churn, and a
//! shard-count ablation running the same quote/observe/churn mix
//! against a 1-shard store (the historical single global map) and the
//! default sharded store. The checked-in `BENCH_registry.json` at the
//! workspace root is a snapshot of this bench (regenerate with
//! `CRITERION_JSON=$PWD/BENCH_registry.json cargo bench -p ft-bench
//! --bench registry_shard`).
//!
//! NOTE (small hosts): on one or two cores the contended figures
//! measure lock hand-off latency, not parallel throughput — the shard
//! split's point is that on a multicore host quote readers on
//! different campaigns stop serializing behind one map lock at all.
//! Re-capture on a ≥4-core host.

use criterion::{criterion_group, criterion_main, Criterion};
use ft_core::registry::{
    CampaignObservation, CampaignRegistry, CampaignSpec, ObservedState, RegistryConfig,
};
use ft_core::{ActionSet, BudgetProblem, DeadlineProblem, PenaltyModel};
use ft_market::{ConstantRate, LogitAcceptance, PriceGrid};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const FLEET: u64 = 64;

fn budget_spec() -> CampaignSpec {
    CampaignSpec::Budget {
        problem: BudgetProblem::new(
            10,
            60.0,
            ActionSet::from_grid(PriceGrid::new(1, 12), &LogitAcceptance::new(4.0, 0.0, 20.0)),
            100.0,
        ),
    }
}

/// The paper's §5 deadline campaign: 200 tasks over 72 twenty-minute
/// intervals.
fn paper_deadline_spec() -> CampaignSpec {
    CampaignSpec::Deadline {
        problem: DeadlineProblem::from_market(
            200,
            24.0,
            72,
            &ConstantRate::new(5100.0),
            PriceGrid::new(0, 40),
            &LogitAcceptance::paper_eq13(),
            PenaltyModel::Linear { per_task: 1000.0 },
        ),
        eps: None,
    }
}

/// `CampaignRegistry::quote` against one solved paper-scale deadline
/// campaign — the hot path behind `GET /campaigns/{id}/price`.
fn registry_quote(c: &mut Criterion) {
    let registry = CampaignRegistry::new();
    let id = registry.register(paper_deadline_spec());
    registry.solve(id).unwrap();
    let mut group = c.benchmark_group("registry_shard");
    group.bench_function("registry_quote", |b| {
        let mut i = 0u32;
        b.iter(|| {
            i = i.wrapping_add(1);
            let state = ObservedState::Deadline {
                remaining: 1 + i % 200,
                interval: (i % 72) as usize,
            };
            black_box(registry.quote(id, state).unwrap())
        })
    });
    group.finish();
}

/// One full campaign lifecycle turn — register + solve + evict — the
/// amortized cost of campaign churn around the hot path.
fn register_solve_evict(c: &mut Criterion) {
    let registry = CampaignRegistry::new();
    let mut group = c.benchmark_group("registry_shard");
    group.sample_size(10);
    group.bench_function("register_solve_evict", |b| {
        b.iter(|| {
            let id = registry.register(paper_deadline_spec());
            black_box(registry.solve(id).unwrap());
            registry.evict(id);
            registry.purge(id);
        })
    });
    group.finish();
}

/// A solved fleet of small budget campaigns on ids `1..=FLEET`.
fn fleet(shards: usize) -> Arc<CampaignRegistry> {
    let registry = Arc::new(CampaignRegistry::with_registry_config(RegistryConfig {
        shards,
        ..RegistryConfig::default()
    }));
    for _ in 0..FLEET {
        let id = registry.register(budget_spec());
        registry.solve(id).unwrap();
    }
    registry
}

fn probe(i: u64) -> (u64, ObservedState) {
    (
        1 + i % FLEET,
        ObservedState::Budget {
            remaining: 1 + (i % 9) as u32,
            budget_cents: 20 + (i % 40) as usize,
        },
    )
}

/// Uncontended quotes rotating across the fleet: the shard routing
/// itself must not cost anything measurable vs the single map.
fn quote_rotation(c: &mut Criterion) {
    let mut group = c.benchmark_group("registry_shard");
    for shards in [1usize, 16] {
        let registry = fleet(shards);
        group.bench_function(format!("quote/shards{shards}"), |b| {
            let mut i = 0u64;
            b.iter(|| {
                i = i.wrapping_add(1);
                let (id, state) = probe(i);
                black_box(registry.quote(id, state).unwrap())
            })
        });
    }
    group.finish();
}

/// Quotes racing register/evict/purge churn and observe writers: the
/// mix every shard of a live fleet serves. With one shard every quote
/// lookup serializes behind the churners' map write lock; with 16 the
/// collisions are ~1/16th.
fn quote_under_churn(c: &mut Criterion) {
    let mut group = c.benchmark_group("registry_shard");
    group.sample_size(10);
    for shards in [1usize, 16] {
        let registry = fleet(shards);
        let stop = Arc::new(AtomicBool::new(false));
        let mut churners = Vec::new();
        for worker in 0..2u64 {
            let registry = Arc::clone(&registry);
            let stop = Arc::clone(&stop);
            churners.push(std::thread::spawn(move || {
                let mut round = 0u64;
                while !stop.load(Ordering::Acquire) {
                    // Map-write churn on ids disjoint from the fleet…
                    let id = 10_000 + worker * 1_000 + (round % 500);
                    registry.register_at(id, budget_spec());
                    registry.purge(id);
                    // …plus writer-lock traffic on a fleet campaign.
                    let _ = registry.observe(
                        1 + (round % FLEET),
                        CampaignObservation::Budget {
                            completions: 0,
                            spent_cents: 0,
                            posted: None,
                            offers: None,
                        },
                    );
                    round += 1;
                }
            }));
        }
        group.bench_function(format!("quote_contended/shards{shards}"), |b| {
            let mut i = 0u64;
            b.iter(|| {
                i = i.wrapping_add(1);
                let (id, state) = probe(i);
                black_box(registry.quote(id, state).unwrap())
            })
        });
        stop.store(true, Ordering::Release);
        for churner in churners {
            churner.join().unwrap();
        }
    }
    group.finish();
}

/// Fleet aggregates: `status_counts` walks every shard map under its
/// read lock, tallying the 64 solved campaigns' statuses (what
/// `/healthz` pays per hit), at 1 and 16 shards.
fn status_counts(c: &mut Criterion) {
    let mut group = c.benchmark_group("registry_shard");
    for shards in [1usize, 16] {
        let registry = fleet(shards);
        group.bench_function(format!("status_counts/shards{shards}"), |b| {
            b.iter(|| black_box(registry.status_counts()))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    registry_quote,
    register_solve_evict,
    quote_rotation,
    quote_under_churn,
    status_counts
);
criterion_main!(benches);
