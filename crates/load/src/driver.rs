//! The closed-loop driver: registers and solves the fleet through a
//! [`Backend`], then runs the feedback loop the paper's serving story
//! needs — **quote a price, simulate the worker population's response
//! to that price, report the outcome back** — so recalibration fires
//! under load exactly as it would in production. Worker arrivals come
//! from `ft-market`'s thinned-NHPP sampler and acceptance from each
//! group's logit model; the loop is *closed* because the next request
//! for a campaign only goes out after the previous answer is in.
//!
//! Client-side latencies and counts flow through `ft-metrics`
//! instruments (the generator dogfoods the observability plane it
//! exists to exercise), and the run's self-checks — no dropped
//! samples, no torn merges, every op accounted — come from comparing
//! independent counters against histogram totals.

use crate::backend::{Backend, ObserveAnswer, OpError, OpResult};
use crate::scenario::{CampaignKind, FleetGroup, Scenario};
use ft_core::kernel::SharedPmfCache;
use ft_core::registry::{CampaignObservation, ObservedState};
use ft_market::nhpp::sample_thinned_count;
use ft_metrics::{Counter, Histogram, HistogramSnapshot, MetricsRegistry};
use ft_stats::seeded_rng;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// How many error messages the report keeps verbatim.
const ERROR_SAMPLE_CAP: usize = 10;

/// The operations the driver distinguishes. The `*Bulk` ops count
/// **round trips** (one batched request each); the items they carried
/// ride in [`RunInstruments::bulk_quote_items`] /
/// [`RunInstruments::bulk_observe_items`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Create,
    Solve,
    Price,
    Observe,
    PriceBulk,
    ObserveBulk,
}

impl Op {
    pub const ALL: [Op; 6] = [
        Op::Create,
        Op::Solve,
        Op::Price,
        Op::Observe,
        Op::PriceBulk,
        Op::ObserveBulk,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Op::Create => "create",
            Op::Solve => "solve",
            Op::Price => "price",
            Op::Observe => "observe",
            Op::PriceBulk => "price_bulk",
            Op::ObserveBulk => "observe_bulk",
        }
    }
}

/// Client-side instruments for one run.
pub struct RunInstruments {
    plane: Arc<MetricsRegistry>,
    ops: Vec<Arc<Counter>>,
    latency: Vec<Arc<Histogram>>,
    pub errors: Arc<Counter>,
    pub recalibrations: Arc<Counter>,
    /// The subset of recalibrations that fired on budget campaigns
    /// (the acceptance-drift extension's gate).
    pub budget_recalibrations: Arc<Counter>,
    pub completions: Arc<Counter>,
    pub budget_exhaustions: Arc<Counter>,
    /// Quote items carried inside `price_bulk` round trips — the
    /// socket-mode `/metrics` crosscheck reconciles
    /// `ft_core_quotes_total == price + bulk_quote_items`.
    pub bulk_quote_items: Arc<Counter>,
    /// Observation items carried inside `observe_bulk` round trips.
    pub bulk_observe_items: Arc<Counter>,
    error_samples: Mutex<Vec<String>>,
}

impl Default for RunInstruments {
    fn default() -> Self {
        Self::new()
    }
}

impl RunInstruments {
    pub fn new() -> Self {
        let plane = Arc::new(MetricsRegistry::new());
        let ops = Op::ALL
            .iter()
            .map(|op| plane.counter(&format!("ft_load_requests_total{{op=\"{}\"}}", op.label())))
            .collect();
        let latency = Op::ALL
            .iter()
            .map(|op| plane.histogram(&format!("ft_load_request_ns{{op=\"{}\"}}", op.label())))
            .collect();
        Self {
            ops,
            latency,
            errors: plane.counter("ft_load_errors_total"),
            recalibrations: plane.counter("ft_load_recalibrations_total"),
            budget_recalibrations: plane.counter("ft_load_budget_recalibrations_total"),
            completions: plane.counter("ft_load_completions_total"),
            budget_exhaustions: plane.counter("ft_load_budget_exhaustions_total"),
            bulk_quote_items: plane.counter("ft_load_bulk_quote_items_total"),
            bulk_observe_items: plane.counter("ft_load_bulk_observe_items_total"),
            error_samples: Mutex::new(Vec::new()),
            plane,
        }
    }

    fn index(op: Op) -> usize {
        Op::ALL.iter().position(|o| *o == op).expect("op in ALL")
    }

    /// Count one real failure and keep a sample for the report.
    fn note_error(&self, message: &str) {
        self.errors.inc();
        let mut samples = self.error_samples.lock().expect("error samples poisoned");
        if samples.len() < ERROR_SAMPLE_CAP {
            samples.push(message.to_string());
        }
    }

    /// Run `f` as one timed `op`: latency into the histogram, the op
    /// counted, real failures sampled for the report.
    fn timed<T>(&self, op: Op, f: impl FnOnce() -> OpResult<T>) -> OpResult<T> {
        let started = Instant::now();
        let result = f();
        let i = Self::index(op);
        self.latency[i].record_duration(started.elapsed());
        self.ops[i].inc();
        if let Err(OpError::Failed(message)) = &result {
            self.note_error(message);
        }
        result
    }

    /// Run `f` as one timed bulk `op` (one latency sample, one op count
    /// for the whole round trip); per-item failures are counted and
    /// sampled here so the error gate sees them like per-op failures.
    fn timed_bulk<T>(&self, op: Op, f: impl FnOnce() -> Vec<OpResult<T>>) -> Vec<OpResult<T>> {
        let started = Instant::now();
        let results = f();
        let i = Self::index(op);
        self.latency[i].record_duration(started.elapsed());
        self.ops[i].inc();
        for result in &results {
            if let Err(OpError::Failed(message)) = result {
                self.note_error(message);
            }
        }
        results
    }

    pub fn op_count(&self, op: Op) -> u64 {
        self.ops[Self::index(op)].get()
    }

    pub fn latency_snapshot(&self, op: Op) -> HistogramSnapshot {
        self.latency[Self::index(op)].snapshot()
    }

    pub fn plane(&self) -> &Arc<MetricsRegistry> {
        &self.plane
    }
}

/// One campaign's driver-side state.
struct Flight {
    id: u64,
    group: usize,
    remaining: u32,
    /// Budget cents still unspent (budget campaigns).
    budget_left: usize,
    /// Next full-horizon interval to report (deadline campaigns).
    next_interval: usize,
    done: bool,
}

/// Everything the report needs about one completed run.
pub struct RunOutcome {
    pub backend: &'static str,
    pub duration_seconds: f64,
    pub campaigns: usize,
    pub requests: u64,
    pub errors: u64,
    pub error_samples: Vec<String>,
    pub recalibrations: u64,
    /// Recalibrations that fired on budget campaigns specifically.
    pub budget_recalibrations: u64,
    pub completions: u64,
    pub budget_exhaustions: u64,
    /// Quote items carried inside `price_bulk` round trips.
    pub bulk_quote_items: u64,
    /// Observation items carried inside `observe_bulk` round trips.
    pub bulk_observe_items: u64,
    /// Histogram samples clamped at the range cap (must be 0).
    pub dropped_samples: u64,
    /// Ops whose counter disagrees with the merged histogram count
    /// (must be 0 — a torn merge or lost increment would show here).
    pub torn_mismatches: u64,
    pub op_counts: Vec<(&'static str, u64)>,
    pub latency: Vec<(&'static str, HistogramSnapshot)>,
    /// The registry's pmf-row cache (row lookups, hits, hit rate) and
    /// its `ft_core_batched_solves_total` reading, taken after the
    /// drive. Only the in-process harness can see the registry; socket
    /// runs leave this `None`.
    pub pmf_cache: Option<(Arc<SharedPmfCache>, u64)>,
}

impl RunOutcome {
    pub fn throughput_rps(&self) -> f64 {
        if self.duration_seconds > 0.0 {
            self.requests as f64 / self.duration_seconds
        } else {
            0.0
        }
    }
}

/// Register + solve + drive the whole scenario against `backend`.
pub fn run(scenario: &Scenario, backend: &dyn Backend, instruments: &RunInstruments) -> RunOutcome {
    let started = Instant::now();

    // ---- setup: register and solve the fleet -------------------------
    let mut flights = Vec::with_capacity(scenario.campaign_count());
    for (group_index, group) in scenario.fleet.iter().enumerate() {
        for _ in 0..group.count {
            let spec = group.spec();
            let created = instruments.timed(Op::Create, || backend.create(&spec));
            let Ok(id) = created else { continue };
            if instruments.timed(Op::Solve, || backend.solve(id)).is_err() {
                continue;
            }
            flights.push(Flight {
                id,
                group: group_index,
                remaining: group.n_tasks,
                budget_left: group.budget_cents,
                next_interval: 0,
                done: false,
            });
        }
    }

    // ---- drive: closed loop, fleet partitioned across workers -------
    let workers = scenario.concurrency.min(flights.len().max(1));
    let mut partitions: Vec<Vec<Flight>> = (0..workers).map(|_| Vec::new()).collect();
    for (i, flight) in flights.into_iter().enumerate() {
        partitions[i % workers].push(flight);
    }
    std::thread::scope(|s| {
        for (worker, mut partition) in partitions.into_iter().enumerate() {
            let seed = scenario.seed + worker as u64;
            s.spawn(move || {
                let mut rng = seeded_rng(seed);
                for _round in 0..scenario.intervals {
                    if scenario.bulk > 1 {
                        // Batched closed loop: each chunk's quotes go
                        // out as ONE `price_many` round trip, then its
                        // observations as one `observe_many`.
                        for chunk in partition.chunks_mut(scenario.bulk) {
                            drive_chunk(backend, instruments, scenario, chunk, &mut rng);
                        }
                    } else {
                        for flight in partition.iter_mut() {
                            if !flight.done {
                                drive_round(backend, instruments, scenario, flight, &mut rng);
                            }
                        }
                    }
                }
            });
        }
    });

    // ---- self-checks -------------------------------------------------
    let mut dropped = 0;
    let mut torn = 0;
    let mut op_counts = Vec::new();
    let mut latency = Vec::new();
    let mut requests = 0;
    for op in Op::ALL {
        let counted = instruments.op_count(op);
        let snapshot = instruments.latency_snapshot(op);
        dropped += snapshot.clamped;
        torn += counted.abs_diff(snapshot.count);
        requests += counted;
        op_counts.push((op.label(), counted));
        latency.push((op.label(), snapshot));
    }
    RunOutcome {
        backend: backend.label(),
        duration_seconds: started.elapsed().as_secs_f64(),
        campaigns: scenario.campaign_count(),
        requests,
        errors: instruments.errors.get(),
        error_samples: instruments
            .error_samples
            .lock()
            .expect("error samples poisoned")
            .clone(),
        recalibrations: instruments.recalibrations.get(),
        budget_recalibrations: instruments.budget_recalibrations.get(),
        completions: instruments.completions.get(),
        budget_exhaustions: instruments.budget_exhaustions.get(),
        bulk_quote_items: instruments.bulk_quote_items.get(),
        bulk_observe_items: instruments.bulk_observe_items.get(),
        dropped_samples: dropped,
        torn_mismatches: torn,
        op_counts,
        latency,
        pmf_cache: None,
    }
}

/// The observed state this flight's next quote should price — `None`
/// when a deadline campaign has run out of horizon (the flight is
/// done).
fn plan_state(group: &FleetGroup, flight: &Flight) -> Option<ObservedState> {
    match group.kind {
        CampaignKind::Deadline => {
            (flight.next_interval < group.n_intervals).then_some(ObservedState::Deadline {
                remaining: flight.remaining,
                interval: flight.next_interval,
            })
        }
        CampaignKind::Budget => Some(ObservedState::Budget {
            remaining: flight.remaining,
            budget_cents: flight.budget_left,
        }),
    }
}

/// Simulate the worker population's response to a posted price:
/// arrivals drifted off the trained model, thinned by the (possibly
/// drifted) acceptance. Returns `(completions, spent_cents, report)`
/// — `spent_cents` is 0 for deadline campaigns.
fn market_response(
    scenario: &Scenario,
    group: &FleetGroup,
    flight: &Flight,
    price: f64,
    rng: &mut rand::rngs::StdRng,
) -> (u64, usize, CampaignObservation) {
    let accept = (group.acceptance().p_f64(price) * scenario.acceptance_drift).clamp(0.0, 1.0);
    match group.kind {
        CampaignKind::Deadline => {
            let lambda_true = group.interval_arrivals() * scenario.drift;
            let completions =
                sample_thinned_count(lambda_true, accept, rng).min(u64::from(flight.remaining));
            let obs = CampaignObservation::Deadline {
                interval: flight.next_interval,
                completions,
                posted: Some(price),
            };
            (completions, 0, obs)
        }
        CampaignKind::Budget => {
            let tick_hours = group.horizon_hours / group.n_intervals as f64;
            let lambda_true = group.arrivals_per_hour * tick_hours * scenario.drift;
            let raw = sample_thinned_count(lambda_true, accept, rng);
            let completions = raw.min(u64::from(flight.remaining));
            // Thinned-Poisson decomposition: accepting and rejecting
            // arrivals are independent Poissons, so total exposure is
            // their sum. When the batch ran out mid-tick the exposure
            // behind the truncated count is unknowable — report the
            // progress without it (censored, like the deadline path).
            let rejected = sample_thinned_count(lambda_true, 1.0 - accept, rng);
            let offers = (raw == completions).then_some(raw + rejected);
            let spent = ((completions as f64 * price).round() as usize).min(flight.budget_left);
            let obs = CampaignObservation::Budget {
                completions,
                spent_cents: spent,
                posted: offers.is_some().then_some(price),
                offers,
            };
            (completions, spent, obs)
        }
    }
}

/// Fold an accepted observation back into the flight's bookkeeping.
fn apply_answer(
    instruments: &RunInstruments,
    group: &FleetGroup,
    flight: &mut Flight,
    completions: u64,
    spent: usize,
    answer: &ObserveAnswer,
) {
    instruments.completions.add(completions);
    if answer.recalibrated {
        instruments.recalibrations.inc();
        if group.kind == CampaignKind::Budget {
            instruments.budget_recalibrations.inc();
        }
    }
    flight.remaining = answer.remaining;
    match group.kind {
        CampaignKind::Deadline => {
            flight.next_interval += 1;
            flight.done = answer.exhausted;
        }
        CampaignKind::Budget => {
            flight.budget_left -= spent;
            flight.done = answer.exhausted || flight.budget_left == 0;
        }
    }
}

/// Mark a flight's fate after a failed quote.
fn quote_failed(
    instruments: &RunInstruments,
    group: &FleetGroup,
    flight: &mut Flight,
    e: &OpError,
) {
    if matches!(e, OpError::BudgetExhausted) && group.kind == CampaignKind::Budget {
        instruments.budget_exhaustions.inc();
    }
    flight.done = true;
}

/// One closed-loop round for one campaign: price → simulated market
/// response → observation fed back.
fn drive_round(
    backend: &dyn Backend,
    instruments: &RunInstruments,
    scenario: &Scenario,
    flight: &mut Flight,
    rng: &mut rand::rngs::StdRng,
) {
    let group = &scenario.fleet[flight.group];
    let Some(state) = plan_state(group, flight) else {
        flight.done = true;
        return;
    };
    let quote = match instruments.timed(Op::Price, || backend.price(flight.id, state)) {
        Ok(quote) => quote,
        Err(e) => {
            quote_failed(instruments, group, flight, &e);
            return;
        }
    };
    let (completions, spent, obs) = market_response(scenario, group, flight, quote.price, rng);
    match instruments.timed(Op::Observe, || backend.observe(flight.id, obs)) {
        Ok(answer) => apply_answer(instruments, group, flight, completions, spent, &answer),
        Err(_) => flight.done = true,
    }
}

/// One closed-loop round for a **chunk** of campaigns: every active
/// flight's quote goes out as a single `price_many` round trip, the
/// simulated market responds to each posted price, and the
/// observations return as one `observe_many`. The loop stays closed —
/// a campaign's next round only starts after this round's answer — the
/// batching is across campaigns, never across a campaign's own rounds.
fn drive_chunk(
    backend: &dyn Backend,
    instruments: &RunInstruments,
    scenario: &Scenario,
    chunk: &mut [Flight],
    rng: &mut rand::rngs::StdRng,
) {
    let mut quoted = Vec::with_capacity(chunk.len());
    let mut batch = Vec::with_capacity(chunk.len());
    for (i, flight) in chunk.iter_mut().enumerate() {
        if flight.done {
            continue;
        }
        match plan_state(&scenario.fleet[flight.group], flight) {
            Some(state) => {
                quoted.push(i);
                batch.push((flight.id, state));
            }
            None => flight.done = true,
        }
    }
    if batch.is_empty() {
        return;
    }
    let quotes = instruments.timed_bulk(Op::PriceBulk, || backend.price_many(&batch));
    instruments.bulk_quote_items.add(batch.len() as u64);

    let mut observed = Vec::with_capacity(quotes.len());
    let mut obs_batch = Vec::with_capacity(quotes.len());
    let mut outcomes = Vec::with_capacity(quotes.len());
    for (slot, result) in quotes.into_iter().enumerate() {
        let flight = &mut chunk[quoted[slot]];
        let group = &scenario.fleet[flight.group];
        match result {
            Ok(quote) => {
                let (completions, spent, obs) =
                    market_response(scenario, group, flight, quote.price, rng);
                observed.push(quoted[slot]);
                obs_batch.push((flight.id, obs));
                outcomes.push((completions, spent));
            }
            Err(e) => quote_failed(instruments, group, flight, &e),
        }
    }
    if obs_batch.is_empty() {
        return;
    }
    let answers = instruments.timed_bulk(Op::ObserveBulk, || backend.observe_many(&obs_batch));
    instruments.bulk_observe_items.add(obs_batch.len() as u64);
    for (slot, result) in answers.into_iter().enumerate() {
        let flight = &mut chunk[observed[slot]];
        let group = &scenario.fleet[flight.group];
        let (completions, spent) = outcomes[slot];
        match result {
            Ok(answer) => apply_answer(instruments, group, flight, completions, spent, &answer),
            Err(_) => flight.done = true,
        }
    }
}
