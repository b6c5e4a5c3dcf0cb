//! What the benchmark sends: seeded inputs, the three activities
//! (`plan`, `quote`, `drift`) and the in-process reference each one's
//! answers are checked against.
//!
//! Every count here — campaigns, operations, checked states — is a
//! function of the workload, the seed and `--seconds`, never of how
//! fast a run went, so two runs with one seed report identical counts
//! and the server holds the same data at the end of both.

use crate::stats::Samples;
use crate::wire::{num, Conn, Kind, Reply};
use ft_core::registry::{CampaignRegistry, CampaignSpec, ObservedState};
use ft_core::testkit::paper_budget_problem;
use ft_load::backend::spec_to_wire_json;
use ft_sim::PaperScenario;
use rand::rngs::StdRng;
use rand::Rng;
use std::ops::Range;

/// Terminal penalty per unfinished task for §5.2 deadline campaigns
/// (the value the paper-figure experiments use).
pub const PENALTY_PER_TASK: f64 = 100.0;

/// SplitMix64 over `(seed, stream, index)`: independent, reproducible
/// sub-seeds for every campaign and every random choice.
pub fn mix(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03);
    for _ in 0..2 {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
    }
    z
}

pub fn rng(seed: u64, stream: u64, index: u64) -> StdRng {
    ft_stats::seeded_rng(mix(seed, stream, index))
}

/// A uniform draw from `0..n` (the modulo bias is below 2⁻⁵⁰ for the
/// ranges used here).
pub fn below(r: &mut StdRng, n: usize) -> usize {
    (r.gen::<u64>() % n as u64) as usize
}

/// Random streams, one per independent choice.
pub mod stream {
    pub const TRACE: u64 = 1;
    pub const CHECK: u64 = 2;
    pub const QUOTE: u64 = 3;
    pub const MARKET: u64 = 4;
    pub const SAMPLE: u64 = 5;
}

/// The §5.2 default deadline problem on the tracker trace `trace_seed`
/// generates: N = 200, 72 twenty-minute intervals, Eq. 13 acceptance,
/// a 0–40¢ grid.
pub fn deadline_spec(trace_seed: u64) -> CampaignSpec {
    CampaignSpec::Deadline {
        problem: PaperScenario::new(trace_seed).deadline_problem(PENALTY_PER_TASK),
        eps: None,
    }
}

/// The paper's budget problem: N = 200, B = 2500¢.
pub fn budget_spec() -> CampaignSpec {
    CampaignSpec::Budget {
        problem: paper_budget_problem(),
    }
}

/// A random state to quote for a campaign of this spec. Deadline states
/// are always feasible; about one budget state in twenty-five has less
/// budget than tasks and is infeasible (a 422 the reference predicts).
pub fn random_state(spec: &CampaignSpec, rng: &mut StdRng) -> ObservedState {
    match spec {
        CampaignSpec::Deadline { problem, .. } => ObservedState::Deadline {
            remaining: 1 + below(rng, problem.n_tasks as usize) as u32,
            interval: below(rng, problem.n_intervals()),
        },
        CampaignSpec::Budget { problem } => ObservedState::Budget {
            remaining: 1 + below(rng, problem.n_tasks as usize) as u32,
            budget_cents: below(rng, problem.budget as usize + 1),
        },
    }
}

pub fn price_path(id: u64, state: ObservedState) -> String {
    match state {
        ObservedState::Deadline {
            remaining,
            interval,
        } => format!("/campaigns/{id}/price?remaining={remaining}&interval={interval}"),
        ObservedState::Budget {
            remaining,
            budget_cents,
        } => format!("/campaigns/{id}/price?remaining={remaining}&budget_cents={budget_cents}"),
    }
}

/// One quote answer as the wire gave it: status and, on 200, the price.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Answer {
    pub status: u16,
    pub price: f64,
}

impl Answer {
    /// A request that got no answer at all.
    pub const FAILED: Answer = Answer {
        status: 0,
        price: f64::NAN,
    };

    /// The answer to one `GET …/price`: its status and, on 200, the
    /// `price` field of the JSON body.
    pub fn from_reply(reply: &Reply) -> Self {
        let price = match reply.status {
            200 => reply
                .json()
                .ok()
                .and_then(|v| num(&v, "price"))
                .unwrap_or(f64::NAN),
            _ => f64::NAN,
        };
        Self {
            status: reply.status,
            price,
        }
    }

    /// Whether the reference registry's answer for the same state is
    /// this one, bit for bit (or the same error status).
    pub fn matches(&self, reference: &ft_core::Result<ft_core::PriceQuote>) -> bool {
        match reference {
            Ok(q) => self.status == 200 && self.price.to_bits() == q.price.to_bits(),
            Err(e) => self.status == ft_server::status_for(e),
        }
    }
}

/// Create and solve one campaign; `Some((id, create→solve µs))`.
pub fn create_and_solve(conn: &mut Conn, wire: &str) -> Option<(u64, f64)> {
    let created = conn.expect(Kind::Create, "POST", "/campaigns", Some(wire), 201)?;
    let id = created.json().ok().and_then(|v| num(&v, "id"))? as u64;
    let solved = conn.expect(
        Kind::Solve,
        "POST",
        &format!("/campaigns/{id}/solve"),
        None,
        200,
    )?;
    Some((id, created.micros + solved.micros))
}

/// The latency distributions a run reports, by operation kind. Each
/// kind keeps its own distribution: a percentile taken over a mix of
/// kinds would flip with small changes in the mix.
#[derive(Debug, Clone, Default)]
pub struct Timings {
    pub deadline_plan_ms: Samples,
    pub budget_plan_ms: Samples,
    pub quote_us: Samples,
    pub bulk_quote_us: Samples,
    pub observe_us: Samples,
    pub deadline_recal_ms: Samples,
    pub budget_recal_ms: Samples,
}

impl Timings {
    /// Append another slice's samples, kind by kind.
    pub fn extend(&mut self, other: &Timings) {
        self.deadline_plan_ms.extend(&other.deadline_plan_ms);
        self.budget_plan_ms.extend(&other.budget_plan_ms);
        self.quote_us.extend(&other.quote_us);
        self.bulk_quote_us.extend(&other.bulk_quote_us);
        self.observe_us.extend(&other.observe_us);
        self.deadline_recal_ms.extend(&other.deadline_recal_ms);
        self.budget_recal_ms.extend(&other.budget_recal_ms);
    }
}

/// Register and solve a fleet over one connection, untimed; the server
/// ids in fleet order.
pub fn setup_fleet<'a>(
    conn: &mut Conn,
    wires: impl IntoIterator<Item = &'a str>,
) -> Option<Vec<u64>> {
    wires
        .into_iter()
        .map(|wire| create_and_solve(conn, wire).map(|(id, _)| id))
        .collect()
}

/// One check that failed: the request kind it blames and what differed.
pub type Mismatch = (Kind, String);

// ---- plan ------------------------------------------------------------

/// One in this many planned campaigns is read back and checked.
const PLAN_CHECK_EVERY: u64 = 8;
/// States read back per checked campaign.
const PLAN_CHECK_STATES: usize = 8;

/// One requester's plan: register a campaign, solve it, (for a seeded
/// sample) read prices back, then delete it so the server's memory
/// stays flat across the run.
pub struct PlanOp {
    pub budget: bool,
    pub wire: String,
    /// The spec and states to read back, for checked campaigns.
    pub check: Option<(CampaignSpec, Vec<ObservedState>)>,
}

pub struct PlanInput {
    pub ops: Vec<PlanOp>,
}

impl PlanInput {
    /// `deadline` §5.2 campaigns, each on its own tracker-trace seed so
    /// no two share a Poisson row, and `budget` paper budget campaigns,
    /// spread evenly through the sequence.
    pub fn generate(seed: u64, stream_base: u64, deadline: usize, budget: usize) -> Self {
        let budget_spec = budget_spec();
        let budget_wire = spec_to_wire_json(&budget_spec);
        let total = deadline + budget;
        let mut b = 0;
        let mut ops = Vec::with_capacity(total);
        for i in 0..total as u64 {
            let take_budget = (b + 1) * total <= (i as usize + 1) * budget;
            let checked =
                mix(seed, stream_base + stream::CHECK, i).is_multiple_of(PLAN_CHECK_EVERY);
            let (spec, wire) = if take_budget {
                b += 1;
                (None, budget_wire.clone())
            } else {
                let spec = deadline_spec(mix(seed, stream_base + stream::TRACE, i));
                let wire = spec_to_wire_json(&spec);
                (Some(spec), wire)
            };
            let check = checked.then(|| {
                let spec = spec.unwrap_or_else(|| budget_spec.clone());
                let mut r = rng(seed, stream_base + stream::CHECK, i);
                let states = (0..PLAN_CHECK_STATES)
                    .map(|_| random_state(&spec, &mut r))
                    .collect();
                (spec, states)
            });
            ops.push(PlanOp {
                budget: take_budget,
                wire,
                check,
            });
        }
        Self { ops }
    }
}

/// What the plan activity's checks need: the answers read back, by op.
#[derive(Default)]
pub struct PlanRecord {
    /// Per checked op: its index and the answers read back.
    pub answers: Vec<(usize, Vec<Answer>)>,
    pub planned: usize,
}

/// Run the plan ops in `ops` on one connection, closed loop.
pub fn run_plan(
    conn: &mut Conn,
    input: &PlanInput,
    ops: Range<usize>,
    record: &mut PlanRecord,
) -> Timings {
    let mut timings = Timings::default();
    for i in ops {
        let op = &input.ops[i];
        let samples = if op.budget {
            &mut timings.budget_plan_ms
        } else {
            &mut timings.deadline_plan_ms
        };
        let Some((id, micros)) = create_and_solve(conn, &op.wire) else {
            samples.push_failed();
            continue;
        };
        samples.push(micros / 1e3);
        record.planned += 1;
        if let Some((_, states)) = &op.check {
            let answers = states
                .iter()
                .map(
                    |&state| match conn.call(Kind::Price, "GET", &price_path(id, state), None) {
                        Ok(reply) => Answer::from_reply(&reply),
                        Err(_) => Answer::FAILED,
                    },
                )
                .collect();
            record.answers.push((i, answers));
        }
        conn.expect(
            Kind::Delete,
            "DELETE",
            &format!("/campaigns/{id}"),
            None,
            200,
        );
    }
    timings
}

/// Solve every checked campaign in-process and compare its prices,
/// bit for bit, with what the server answered.
pub fn check_plan(input: &PlanInput, record: &PlanRecord) -> Vec<Mismatch> {
    let registry = CampaignRegistry::new();
    let mut mismatches = Vec::new();
    for (i, answers) in &record.answers {
        let Some((spec, states)) = &input.ops[*i].check else {
            continue;
        };
        let id = registry.register(spec.clone());
        if let Err(e) = registry.solve(id) {
            mismatches.push((Kind::Solve, format!("plan op {i}: reference solve: {e}")));
            continue;
        }
        for (state, answer) in states.iter().zip(answers) {
            let reference = registry.quote(id, *state);
            if !answer.matches(&reference) {
                mismatches.push((
                    Kind::Price,
                    format!("plan op {i} {state:?}: server {answer:?}, reference {reference:?}"),
                ));
            }
        }
        registry.evict(id);
    }
    mismatches
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn price_replies_are_read_bit_for_bit() {
        let reply = |status, body: &str| Reply {
            status,
            body: body.to_string(),
            micros: 1.0,
            start_ns: 0,
        };
        let price = 12.345678901234567_f64;
        let body = format!("{{\"id\":3,\"price\":{price},\"generation\":1}}");
        let answer = Answer::from_reply(&reply(200, &body));
        assert_eq!(answer.price.to_bits(), price.to_bits());
        assert_eq!(
            Answer::from_reply(&reply(200, "{\"id\":3,\"price\":7}")).price,
            7.0
        );
        let infeasible = Answer::from_reply(&reply(422, "{\"error\":\"infeasible\"}"));
        assert_eq!(infeasible.status, 422);
        assert!(infeasible.price.is_nan());
    }

    #[test]
    fn plan_inputs_interleave_four_deadline_to_one_budget() {
        let input = PlanInput::generate(1, 0, 8, 2);
        let budget: Vec<bool> = input.ops.iter().map(|op| op.budget).collect();
        assert_eq!(
            budget,
            [false, false, false, false, true, false, false, false, false, true]
        );
        // The same seed gives the same inputs.
        let again = PlanInput::generate(1, 0, 8, 2);
        assert!(input
            .ops
            .iter()
            .zip(&again.ops)
            .all(|(a, b)| a.wire == b.wire));
    }
}
