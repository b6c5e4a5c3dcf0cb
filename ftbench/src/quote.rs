//! The `quote` activity: a fixed fleet, solved once, then quoted from
//! two connections. No observation is sent, so no solve runs while the
//! quotes are timed: the HTTP parser, JSON, the reactor hand-off and
//! the registry lookup do all the work.

use crate::wire::{field, Conn, Kind};
use crate::workload::{
    below, budget_spec, deadline_spec, mix, price_path, random_state, rng, stream, Answer,
    Mismatch, Timings,
};
use ft_core::registry::{CampaignRegistry, CampaignSpec, ObservedState};
use ft_load::backend::spec_to_wire_json;
use rand::rngs::StdRng;
use serde::Value;
use std::ops::Range;

/// Every this-many-th request is a bulk quote instead of a single one.
const BULK_EVERY: usize = 8;
/// Items per bulk quote.
pub const BULK_ITEMS: usize = 64;
/// Untimed single quotes each connection sends before the timed rounds.
const WARMUP_QUOTES: usize = 200;
pub const CONNECTIONS: usize = 2;

pub struct QuoteInput {
    seed: u64,
    stream_base: u64,
    pub fleet: Vec<CampaignSpec>,
    pub wires: Vec<String>,
    pub ops_per_conn: usize,
}

pub enum QuoteOp {
    Single(usize, ObservedState),
    Bulk(Vec<(usize, ObservedState)>),
}

impl QuoteInput {
    /// A fleet of `deadline` §5.2 campaigns (each on its own trace) and
    /// `budget` paper budget campaigns, quoted `ops_per_conn` times on
    /// each connection.
    pub fn generate(
        seed: u64,
        stream_base: u64,
        deadline: usize,
        budget: usize,
        ops_per_conn: usize,
    ) -> Self {
        let mut fleet: Vec<CampaignSpec> = (0..deadline as u64)
            .map(|i| deadline_spec(mix(seed, stream_base + stream::TRACE, i)))
            .collect();
        fleet.extend((0..budget).map(|_| budget_spec()));
        let wires = fleet.iter().map(spec_to_wire_json).collect();
        Self {
            seed,
            stream_base,
            fleet,
            wires,
            ops_per_conn,
        }
    }

    fn pick(&self, r: &mut StdRng) -> (usize, ObservedState) {
        let campaign = below(r, self.fleet.len());
        (campaign, random_state(&self.fleet[campaign], r))
    }

    /// Operation `i` of connection `conn`: a pure function of the seed,
    /// so any slice of a connection's operations can be regenerated.
    pub fn op(&self, conn: usize, i: usize) -> QuoteOp {
        let mut r = rng(
            self.seed,
            self.stream_base + stream::QUOTE,
            ((conn as u64) << 32) | i as u64,
        );
        if i % BULK_EVERY == BULK_EVERY - 1 {
            QuoteOp::Bulk((0..BULK_ITEMS).map(|_| self.pick(&mut r)).collect())
        } else {
            let (campaign, state) = self.pick(&mut r);
            QuoteOp::Single(campaign, state)
        }
    }
}

/// Untimed quotes that bring connections and caches to steady state.
pub fn warm_up(conn: &mut Conn, input: &QuoteInput, ids: &[u64], conn_index: usize) {
    let mut r = rng(
        input.seed,
        input.stream_base + stream::SAMPLE,
        conn_index as u64,
    );
    for _ in 0..WARMUP_QUOTES {
        let (campaign, state) = input.pick(&mut r);
        let _ = conn.call(Kind::Price, "GET", &price_path(ids[campaign], state), None);
    }
}

pub fn bulk_body(ids: &[u64], items: &[(usize, ObservedState)]) -> String {
    let items: Vec<String> = items
        .iter()
        .map(|&(campaign, state)| {
            let id = ids[campaign];
            match state {
                ObservedState::Deadline {
                    remaining,
                    interval,
                } => format!("{{\"id\":{id},\"remaining\":{remaining},\"interval\":{interval}}}"),
                ObservedState::Budget {
                    remaining,
                    budget_cents,
                } => format!(
                    "{{\"id\":{id},\"remaining\":{remaining},\"budget_cents\":{budget_cents}}}"
                ),
            }
        })
        .collect();
    format!("{{\"quotes\":[{}]}}", items.join(","))
}

/// Per connection, every quote answer in send order (a bulk quote
/// contributes one answer per item).
#[derive(Default)]
pub struct QuoteRecord {
    pub answers: Vec<Vec<Answer>>,
}

/// Send operations `ops` of every connection, each connection closed
/// loop on its own thread.
pub fn run_quote(
    input: &QuoteInput,
    ids: &[u64],
    conns: &mut [Conn],
    ops: Range<usize>,
    record: &mut QuoteRecord,
) -> Timings {
    record.answers.resize_with(conns.len(), Vec::new);
    let results: Vec<Timings> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(record.answers.iter_mut())
            .enumerate()
            .map(|(c, (conn, answers))| {
                let ops = ops.clone();
                s.spawn(move || drive(input, ids, c, conn, ops, answers))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("quote connection thread panicked"))
            .collect()
    });
    let mut timings = Timings::default();
    for t in &results {
        timings.extend(t);
    }
    timings
}

fn drive(
    input: &QuoteInput,
    ids: &[u64],
    c: usize,
    conn: &mut Conn,
    ops: Range<usize>,
    answers: &mut Vec<Answer>,
) -> Timings {
    let mut timings = Timings::default();
    for i in ops {
        match input.op(c, i) {
            QuoteOp::Single(campaign, state) => {
                let path = price_path(ids[campaign], state);
                match conn.call(Kind::Price, "GET", &path, None) {
                    Ok(reply) => {
                        timings.quote_us.push(reply.micros);
                        answers.push(Answer::from_reply(&reply));
                    }
                    Err(_) => {
                        timings.quote_us.push_failed();
                        answers.push(Answer::FAILED);
                    }
                }
            }
            QuoteOp::Bulk(items) => {
                let body = bulk_body(ids, &items);
                let reply = conn.call(Kind::BulkQuote, "POST", "/campaigns/quotes", Some(&body));
                let parsed = reply.as_ref().ok().and_then(|r| {
                    let results = bulk_answers(&r.json().ok()?)?;
                    (r.status == 200 && results.len() == items.len()).then_some(results)
                });
                match (reply, parsed) {
                    (Ok(reply), Some(results)) => {
                        timings.bulk_quote_us.push(reply.micros);
                        answers.extend(results);
                    }
                    (reply, _) => {
                        if matches!(reply, Ok(ref r) if r.status < 500) {
                            conn.tally.fail(Kind::BulkQuote);
                        }
                        timings.bulk_quote_us.push_failed();
                        answers.extend(items.iter().map(|_| Answer::FAILED));
                    }
                }
            }
        }
    }
    timings
}

/// The per-item answers of a bulk quote reply: inline errors carry the
/// status a single quote would have answered with.
fn bulk_answers(value: &Value) -> Option<Vec<Answer>> {
    let results = field(value, "results")?.as_seq()?;
    Some(
        results
            .iter()
            .map(|item| match field(item, "status").and_then(Value::as_num) {
                Some(status) if field(item, "error").is_some() => Answer {
                    status: status as u16,
                    price: f64::NAN,
                },
                _ => Answer {
                    status: 200,
                    price: field(item, "price")
                        .and_then(Value::as_num)
                        .unwrap_or(f64::NAN),
                },
            })
            .collect(),
    )
}

/// An in-process registry holding the same fleet, solved: the reference
/// every quote is checked against. Ids in fleet order.
pub fn reference_registry(fleet: &[CampaignSpec]) -> Result<(CampaignRegistry, Vec<u64>), String> {
    let registry = CampaignRegistry::new();
    let mut ids = Vec::with_capacity(fleet.len());
    for spec in fleet {
        let id = registry.register(spec.clone());
        registry
            .solve(id)
            .map_err(|e| format!("reference solve: {e}"))?;
        ids.push(id);
    }
    Ok((registry, ids))
}

/// Regenerate every connection's operations and compare each answer
/// with the reference registry's.
pub fn check_quote(
    input: &QuoteInput,
    record: &QuoteRecord,
    registry: &CampaignRegistry,
    ref_ids: &[u64],
) -> Vec<Mismatch> {
    let mut mismatches = Vec::new();
    for (c, answers) in record.answers.iter().enumerate() {
        let mut next = answers.iter();
        for i in 0..input.ops_per_conn {
            let (kind, items) = match input.op(c, i) {
                QuoteOp::Single(campaign, state) => (Kind::Price, vec![(campaign, state)]),
                QuoteOp::Bulk(items) => (Kind::BulkQuote, items),
            };
            for (campaign, state) in items {
                let reference = registry.quote(ref_ids[campaign], state);
                match next.next() {
                    Some(answer) if answer.matches(&reference) => {}
                    answer => mismatches.push((
                        kind,
                        format!(
                            "conn {c} op {i} {state:?}: server {answer:?}, reference {reference:?}"
                        ),
                    )),
                }
            }
        }
    }
    mismatches
}
