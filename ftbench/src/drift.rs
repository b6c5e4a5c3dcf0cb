//! The `drift` activity: a fleet stepped through its whole horizon
//! while the market drifts off the trained model, so observations,
//! recalibrations and quotes race on the server's two workers.
//!
//! The drift shapes are ft-load's: deadline campaigns see true arrivals
//! at the `storm` profile's factor (0.2, below the adaptive pricer's
//! 0.25 correction clamp, so every re-solve derives the same corrected
//! rows and waves share them), and budget campaigns are the
//! `budget-drift` profile's group, whose workers accept at 0.45× the
//! trained rate.

use crate::wire::{num, Conn, Kind};
use crate::workload::{deadline_spec, mix, price_path, rng, stream, Answer, Mismatch, Timings};
use ft_core::registry::{
    CampaignObservation, CampaignRegistry, CampaignSpec, ObservedState, RegistryConfig,
};
use ft_core::KernelConfig;
use ft_load::backend::spec_to_wire_json;
use ft_load::{FleetGroup, Scenario};
use ft_market::nhpp::sample_thinned_count;
use rand::rngs::StdRng;
use serde::Value;
use std::time::Instant;

/// Untimed quotes each connection sends before the timed rounds.
const WARMUP_QUOTES: usize = 50;
pub const CONNECTIONS: usize = 2;

pub struct DriftInput {
    seed: u64,
    stream_base: u64,
    deadline: CampaignSpec,
    deadline_wire: String,
    pub n_deadline: usize,
    budget_group: FleetGroup,
    budget: CampaignSpec,
    budget_wire: String,
    pub n_budget: usize,
    arrival_drift: f64,
    acceptance_drift: f64,
}

impl DriftInput {
    pub fn generate(seed: u64, stream_base: u64, n_deadline: usize, n_budget: usize) -> Self {
        // One trace for the whole fleet: identical campaigns, as in `storm`.
        let deadline = deadline_spec(mix(seed, stream_base + stream::TRACE, 0));
        let budget_drift = Scenario::budget_drift(false);
        let budget_group = budget_drift.fleet[0].clone();
        let budget = budget_group.spec();
        Self {
            seed,
            stream_base,
            deadline_wire: spec_to_wire_json(&deadline),
            deadline,
            n_deadline,
            budget_wire: spec_to_wire_json(&budget),
            budget,
            budget_group,
            n_budget,
            arrival_drift: Scenario::storm(false).drift,
            acceptance_drift: budget_drift.acceptance_drift,
        }
    }

    pub fn campaigns(&self) -> usize {
        self.n_deadline + self.n_budget
    }

    fn is_budget(&self, idx: usize) -> bool {
        idx >= self.n_deadline
    }

    pub fn spec(&self, idx: usize) -> &CampaignSpec {
        if self.is_budget(idx) {
            &self.budget
        } else {
            &self.deadline
        }
    }

    /// Every campaign's wire spec, in campaign order.
    pub fn wires(&self) -> impl Iterator<Item = &str> {
        (0..self.campaigns()).map(|idx| self.wire(idx))
    }

    fn wire(&self, idx: usize) -> &str {
        if self.is_budget(idx) {
            &self.budget_wire
        } else {
            &self.deadline_wire
        }
    }

    /// A fresh flight for campaign `idx` with its own market stream.
    fn flight(&self, idx: usize, id: u64) -> Flight {
        let budget = self.is_budget(idx);
        Flight {
            idx,
            id,
            budget,
            remaining: if budget {
                self.budget_group.n_tasks
            } else {
                match &self.deadline {
                    CampaignSpec::Deadline { problem, .. } => problem.n_tasks,
                    CampaignSpec::Budget { .. } => unreachable!("deadline spec"),
                }
            },
            budget_left: self.budget_group.budget_cents,
            step: 0,
            done: false,
            rng: rng(self.seed, self.stream_base + stream::MARKET, idx as u64),
        }
    }

    fn horizon(&self, flight: &Flight) -> usize {
        match (flight.budget, &self.deadline) {
            (true, _) => self.budget_group.n_intervals,
            (false, CampaignSpec::Deadline { problem, .. }) => problem.n_intervals(),
            (false, CampaignSpec::Budget { .. }) => unreachable!("deadline spec"),
        }
    }

    fn state(&self, flight: &Flight) -> ObservedState {
        if flight.budget {
            ObservedState::Budget {
                remaining: flight.remaining,
                budget_cents: flight.budget_left,
            }
        } else {
            ObservedState::Deadline {
                remaining: flight.remaining,
                interval: flight.step,
            }
        }
    }

    /// The drifted market's answer to a posted price: what the campaign
    /// observed this interval, and the cents it spent.
    fn respond(&self, flight: &mut Flight, price: f64) -> (CampaignObservation, usize) {
        if flight.budget {
            let g = &self.budget_group;
            let lambda = g.arrivals_per_hour * g.horizon_hours / g.n_intervals as f64;
            let accept = (g.acceptance().p_f64(price) * self.acceptance_drift).clamp(0.0, 1.0);
            let raw = sample_thinned_count(lambda, accept, &mut flight.rng);
            let completions = raw.min(u64::from(flight.remaining));
            // Accepting and rejecting arrivals are independent Poissons;
            // exposure behind a count cut short by the batch is unknown.
            let rejected = sample_thinned_count(lambda, 1.0 - accept, &mut flight.rng);
            let offers = (raw == completions).then_some(raw + rejected);
            let spent = ((completions as f64 * price).round() as usize).min(flight.budget_left);
            let obs = CampaignObservation::Budget {
                completions,
                spent_cents: spent,
                posted: offers.is_some().then_some(price),
                offers,
            };
            (obs, spent)
        } else {
            let CampaignSpec::Deadline { problem, .. } = &self.deadline else {
                unreachable!("deadline spec")
            };
            let lambda = problem.interval_arrivals[flight.step] * self.arrival_drift;
            let accept = problem
                .actions
                .index_of_reward(price)
                .map_or(0.0, |a| problem.actions.get(a).accept);
            let completions = sample_thinned_count(lambda, accept, &mut flight.rng)
                .min(u64::from(flight.remaining));
            let obs = CampaignObservation::Deadline {
                interval: flight.step,
                completions,
                posted: Some(price),
            };
            (obs, 0)
        }
    }
}

struct Flight {
    idx: usize,
    id: u64,
    budget: bool,
    remaining: u32,
    budget_left: usize,
    step: usize,
    done: bool,
    rng: StdRng,
}

/// What one step of one campaign saw. The socket run and the in-process
/// replay must record identical steps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Step {
    pub quote_status: u16,
    pub price_bits: u64,
    pub observed: Option<Observed>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Observed {
    pub recalibrated: bool,
    pub generation: u64,
    pub remaining: u32,
    pub exhausted: bool,
}

/// The two surfaces a drift step can run against.
trait Api {
    /// `(status, price, µs)`.
    fn quote(&mut self, id: u64, state: ObservedState) -> (u16, f64, f64);
    /// `(outcome, µs)`; `None` when the observation failed.
    fn observe(&mut self, id: u64, obs: &CampaignObservation) -> (Option<Observed>, f64);
}

impl Api for Conn {
    fn quote(&mut self, id: u64, state: ObservedState) -> (u16, f64, f64) {
        match self.call(Kind::Price, "GET", &price_path(id, state), None) {
            Ok(reply) => {
                let answer = Answer::from_reply(&reply);
                (answer.status, answer.price, reply.micros)
            }
            Err(_) => (0, f64::NAN, f64::INFINITY),
        }
    }

    fn observe(&mut self, id: u64, obs: &CampaignObservation) -> (Option<Observed>, f64) {
        let path = format!("/campaigns/{id}/observations");
        let body = observation_body(obs);
        let Some(reply) = self.expect(Kind::Observe, "POST", &path, Some(&body), 200) else {
            return (None, f64::INFINITY);
        };
        let observed = reply.json().ok().and_then(|v| {
            Some(Observed {
                recalibrated: matches!(crate::wire::field(&v, "recalibrated")?, Value::Bool(true)),
                generation: num(&v, "generation")? as u64,
                remaining: num(&v, "remaining")? as u32,
                exhausted: crate::wire::field(&v, "status")?.as_str()? == "exhausted",
            })
        });
        if observed.is_none() {
            self.tally.fail(Kind::Observe);
        }
        (observed, reply.micros)
    }
}

/// The replay's surface: the registry API, timed in-process.
struct InProcess<'a>(&'a CampaignRegistry);

impl Api for InProcess<'_> {
    fn quote(&mut self, id: u64, state: ObservedState) -> (u16, f64, f64) {
        let started = Instant::now();
        let quote = self.0.quote(id, state);
        let micros = started.elapsed().as_secs_f64() * 1e6;
        match quote {
            Ok(q) => (200, q.price, micros),
            Err(e) => (ft_server::status_for(&e), f64::NAN, micros),
        }
    }

    fn observe(&mut self, id: u64, obs: &CampaignObservation) -> (Option<Observed>, f64) {
        let started = Instant::now();
        let outcome = self.0.observe(id, *obs);
        let micros = started.elapsed().as_secs_f64() * 1e6;
        let observed = outcome.ok().map(|o| Observed {
            recalibrated: o.recalibrated,
            generation: o.generation,
            remaining: o.remaining,
            exhausted: o.status == ft_core::CampaignStatus::Exhausted,
        });
        (observed, micros)
    }
}

/// The JSON body ft-load's socket backend sends for an observation.
fn observation_body(obs: &CampaignObservation) -> String {
    match *obs {
        CampaignObservation::Deadline {
            interval,
            completions,
            posted,
        } => match posted {
            Some(p) => format!(
                "{{\"interval\":{interval},\"completions\":{completions},\"posted_cents\":{p}}}"
            ),
            None => format!("{{\"interval\":{interval},\"completions\":{completions}}}"),
        },
        CampaignObservation::Budget {
            completions,
            spent_cents,
            posted,
            offers,
        } => {
            let mut body = format!("{{\"completions\":{completions},\"spent_cents\":{spent_cents}");
            if let Some(p) = posted {
                body.push_str(&format!(",\"posted_cents\":{p}"));
            }
            if let Some(o) = offers {
                body.push_str(&format!(",\"offers\":{o}"));
            }
            body.push('}');
            body
        }
    }
}

/// One closed-loop step: quote, let the market respond, report back.
fn step(
    api: &mut impl Api,
    input: &DriftInput,
    flight: &mut Flight,
    timings: &mut Timings,
) -> Step {
    let (status, price, quote_us) = api.quote(flight.id, input.state(flight));
    timings.quote_us.push(quote_us);
    if status != 200 {
        // A budget campaign whose remaining budget cannot pay for its
        // remaining tasks is done; the replay must agree on the 422.
        flight.done = true;
        return Step {
            quote_status: status,
            price_bits: price.to_bits(),
            observed: None,
        };
    }
    let (obs, spent) = input.respond(flight, price);
    let (observed, micros) = api.observe(flight.id, &obs);
    match observed {
        Some(o) if o.recalibrated && flight.budget => timings.budget_recal_ms.push(micros / 1e3),
        Some(o) if o.recalibrated => timings.deadline_recal_ms.push(micros / 1e3),
        Some(_) => timings.observe_us.push(micros),
        None => timings.observe_us.push_failed(),
    }
    match observed {
        Some(o) => {
            flight.remaining = o.remaining;
            flight.budget_left -= spent;
            flight.step += 1;
            flight.done = o.exhausted
                || flight.step >= input.horizon(flight)
                || (flight.budget && flight.budget_left == 0);
        }
        None => flight.done = true,
    }
    Step {
        quote_status: status,
        price_bits: price.to_bits(),
        observed,
    }
}

/// Step every flight round-robin until all are done; steps recorded
/// per campaign index.
fn drive(
    api: &mut impl Api,
    input: &DriftInput,
    flights: &mut [Flight],
    timings: &mut Timings,
) -> Vec<(usize, Vec<Step>)> {
    let mut steps: Vec<(usize, Vec<Step>)> = flights.iter().map(|f| (f.idx, Vec::new())).collect();
    while flights.iter().any(|f| !f.done) {
        for (flight, (_, record)) in flights.iter_mut().zip(steps.iter_mut()) {
            if !flight.done {
                record.push(step(api, input, flight, timings));
            }
        }
    }
    steps
}

/// Untimed quotes of the fleet's starting states.
pub fn warm_up(conn: &mut Conn, input: &DriftInput, ids: &[u64]) {
    for i in 0..WARMUP_QUOTES {
        let idx = i % ids.len();
        let flight = input.flight(idx, ids[idx]);
        let _ = conn.call(
            Kind::Price,
            "GET",
            &price_path(flight.id, input.state(&flight)),
            None,
        );
    }
}

/// Every campaign's steps, by campaign index.
#[derive(Default)]
pub struct DriftRecord {
    pub steps: Vec<Vec<Step>>,
}

/// Step the campaigns in `cohort` through their whole horizon, the
/// connections each owning every other one, on their own threads.
pub fn run_drift(
    input: &DriftInput,
    ids: &[u64],
    conns: &mut [Conn],
    cohort: &[usize],
    record: &mut DriftRecord,
) -> Timings {
    record.steps.resize_with(input.campaigns(), Vec::new);
    let n = conns.len();
    let results: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                s.spawn(move || {
                    let mut flights: Vec<Flight> = cohort
                        .iter()
                        .skip(c)
                        .step_by(n)
                        .map(|&idx| input.flight(idx, ids[idx]))
                        .collect();
                    let mut timings = Timings::default();
                    let steps = drive(conn, input, &mut flights, &mut timings);
                    (timings, steps)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("drift connection thread panicked"))
            .collect()
    });
    let mut timings = Timings::default();
    for (t, steps) in results {
        timings.extend(&t);
        for (idx, record_steps) in steps {
            record.steps[idx] = record_steps;
        }
    }
    timings
}

/// The same fleet and seeds stepped through an in-process registry.
pub struct Replay {
    /// In-process call times: `observe_us` and `*_recal_ms` are
    /// `CampaignRegistry::observe` alone.
    pub timings: Timings,
    pub steps: Vec<Vec<Step>>,
}

/// Replay the fleet on [`CONNECTIONS`] threads, each owning every other
/// campaign as the connections do. Campaigns share no state that a
/// result depends on, so the split changes no answer.
pub fn replay(input: &DriftInput) -> Result<Replay, String> {
    // Serial kernels: a solve's result is bitwise the same at any thread
    // count, and a serial deadline solve is the faster one on two vCPUs.
    let registry = CampaignRegistry::with_registry_config(RegistryConfig {
        kernel: KernelConfig::serial(),
        ..RegistryConfig::default()
    });
    let mut groups: Vec<Vec<Flight>> = (0..CONNECTIONS).map(|_| Vec::new()).collect();
    for idx in 0..input.campaigns() {
        let id = registry.register(input.spec(idx).clone());
        registry
            .solve(id)
            .map_err(|e| format!("replay solve: {e}"))?;
        groups[idx % CONNECTIONS].push(input.flight(idx, id));
    }
    let registry = &registry;
    let results: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = groups
            .into_iter()
            .map(|mut flights| {
                s.spawn(move || {
                    let mut timings = Timings::default();
                    let steps = drive(&mut InProcess(registry), input, &mut flights, &mut timings);
                    (timings, steps)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay thread panicked"))
            .collect()
    });
    let mut timings = Timings::default();
    let mut steps = vec![Vec::new(); input.campaigns()];
    for (t, group) in results {
        timings.extend(&t);
        for (idx, record) in group {
            steps[idx] = record;
        }
    }
    Ok(Replay { timings, steps })
}

/// Recalibrations and the final generation of each campaign.
pub fn summary(steps: &[Vec<Step>]) -> (u64, Vec<u64>) {
    let mut recalibrations = 0;
    let mut finals = Vec::with_capacity(steps.len());
    for record in steps {
        let observed = record.iter().filter_map(|s| s.observed);
        recalibrations += observed.filter(|o| o.recalibrated).count() as u64;
        finals.push(
            record
                .iter()
                .rev()
                .find_map(|s| s.observed)
                .map_or(1, |o| o.generation),
        );
    }
    (recalibrations, finals)
}

/// The socket run must match the replay step for step; in particular
/// every campaign's final generation and the total recalibrations.
pub fn check_drift(record: &DriftRecord, replay: &Replay) -> Vec<Mismatch> {
    let mut mismatches = Vec::new();
    let (server_recal, server_final) = summary(&record.steps);
    let (replay_recal, replay_final) = summary(&replay.steps);
    if server_recal != replay_recal {
        mismatches.push((
            Kind::Observe,
            format!("recalibrations: server {server_recal}, replay {replay_recal}"),
        ));
    }
    for (idx, (server, reference)) in record.steps.iter().zip(&replay.steps).enumerate() {
        if server_final[idx] != replay_final[idx] {
            mismatches.push((
                Kind::Observe,
                format!(
                    "campaign {idx}: final generation server {}, replay {}",
                    server_final[idx], replay_final[idx]
                ),
            ));
        }
        if let Some(i) =
            (0..server.len().max(reference.len())).find(|&i| server.get(i) != reference.get(i))
        {
            let kind = match (server.get(i), reference.get(i)) {
                (Some(a), Some(b))
                    if a.quote_status == b.quote_status && a.price_bits == b.price_bits =>
                {
                    Kind::Observe
                }
                _ => Kind::Price,
            };
            mismatches.push((
                kind,
                format!(
                    "campaign {idx} step {i}: server {:?}, replay {:?}",
                    server.get(i),
                    reference.get(i)
                ),
            ));
        }
    }
    mismatches
}
