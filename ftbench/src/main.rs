//! `ftbench` — the repository's end-to-end benchmark.
//!
//! ```text
//! bash ftbench/run.sh --workload plan|quote|drift --seed N --seconds S --trace 0|1
//! ```
//!
//! Spawns one `ft-server` (pinned to `FT_EXEC_THREADS=2 --workers 2`),
//! drives one workload at it closed loop over keep-alive connections,
//! checks every answer against an in-process reference, and prints the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics of a
//! separate traced run (`--trace 1`). The last stdout line is the
//! result JSON; the lines before it are diagnostics. See README.md.

mod drift;
mod layers;
mod pass;
mod quote;
mod report;
mod server;
mod stats;
mod traced;
mod wire;
mod workload;

use pass::{Activity, PassConfig};
use std::path::PathBuf;
use workload::PlanInput;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Plan,
    Quote,
    Drift,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "plan" => Some(Workload::Plan),
            "quote" => Some(Workload::Quote),
            "drift" => Some(Workload::Drift),
            _ => None,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    server_bin: PathBuf,
}

fn usage() -> ! {
    eprintln!(
        "usage: ftbench --server-bin PATH --workload plan|quote|drift --seed N --seconds S --trace 0|1"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut server_bin = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Workload::parse(&value),
            "--seed" => seed = value.parse().ok(),
            "--seconds" => seconds = value.parse().ok().filter(|&s: &u64| s > 0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            "--server-bin" => server_bin = Some(PathBuf::from(value)),
            _ => usage(),
        }
    }
    match (workload, seed, seconds, trace, server_bin) {
        (Some(workload), Some(seed), Some(seconds), Some(trace), Some(server_bin)) => Args {
            workload,
            seed,
            seconds,
            trace,
            server_bin,
        },
        _ => usage(),
    }
}

// Main-activity sizes per second of `--seconds`, set so the main
// activity's slices add up to about that long on a 2-vCPU host. Counts never depend on how
// fast a run goes; only these constants and the arguments set them.
/// Deadline plans per second (plus one budget plan per four).
const PLAN_DEADLINE_PER_S: f64 = 70.0;
/// Quote requests per connection per second.
const QUOTE_OPS_PER_S: f64 = 6500.0;
/// Drift deadline campaigns per second (each is stepped 72 intervals).
const DRIFT_DEADLINE_PER_S: f64 = 6.0;

/// The quote workload's fleet: §5.2 deadline and paper budget campaigns.
pub const QUOTE_FLEET: (usize, usize) = (64, 16);

/// Set-ups per timed run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Side activities, interleaved with the main one round by round, give
/// every workload samples of every end-to-end metric; their sizes are
/// fixed. Each is large enough for its p90s to reach five blocks of two
/// rounds (`stats::estimate`), so slow spells are trimmed there as in
/// the main activity: 50 deadline plans a round, and three deadline
/// drift campaigns a round (≈23 recalibrations each). Side plans are
/// deadline plans only, since only `deadline_plan_ms_p90` is read from
/// them.
const SIDE_PLAN: (usize, usize) = (500, 0);
const SIDE_QUOTE_FLEET: (usize, usize) = (8, 2);
const SIDE_QUOTE_OPS: usize = 12000;
const SIDE_DRIFT: (usize, usize) = (30, 4);

/// Offsets that keep each activity's random streams apart.
const MAIN_STREAMS: u64 = 0;
const SIDE_STREAMS: u64 = 1000;
const WARMUP_STREAMS: u64 = 2000;

fn round_even(x: f64) -> usize {
    ((x / 2.0).round() as usize).max(1) * 2
}

pub fn main_activity(workload: Workload, seed: u64, seconds: u64) -> Activity {
    let s = seconds as f64;
    match workload {
        Workload::Plan => {
            let deadline = (s * PLAN_DEADLINE_PER_S).round() as usize;
            Activity::Plan(PlanInput::generate(
                seed,
                MAIN_STREAMS,
                deadline,
                deadline / 4,
            ))
        }
        Workload::Quote => Activity::Quote(quote::QuoteInput::generate(
            seed,
            MAIN_STREAMS,
            QUOTE_FLEET.0,
            QUOTE_FLEET.1,
            (s * QUOTE_OPS_PER_S).round() as usize,
        )),
        Workload::Drift => {
            let deadline = round_even(s * DRIFT_DEADLINE_PER_S);
            let budget = round_even(deadline as f64 / 8.0);
            Activity::Drift(Box::new(drift::DriftInput::generate(
                seed,
                MAIN_STREAMS,
                deadline,
                budget,
            )))
        }
    }
}

pub fn side_activities(workload: Workload, seed: u64) -> Vec<Activity> {
    let mut sides = Vec::new();
    if workload != Workload::Plan {
        sides.push(Activity::Plan(PlanInput::generate(
            seed,
            SIDE_STREAMS,
            SIDE_PLAN.0,
            SIDE_PLAN.1,
        )));
    }
    if workload != Workload::Quote {
        sides.push(Activity::Quote(quote::QuoteInput::generate(
            seed,
            SIDE_STREAMS,
            SIDE_QUOTE_FLEET.0,
            SIDE_QUOTE_FLEET.1,
            SIDE_QUOTE_OPS,
        )));
    }
    if workload != Workload::Drift {
        sides.push(Activity::Drift(Box::new(drift::DriftInput::generate(
            seed,
            SIDE_STREAMS,
            SIDE_DRIFT.0,
            SIDE_DRIFT.1,
        ))));
    }
    sides
}

fn run(args: &Args) -> Result<report::Output, String> {
    let main = main_activity(args.workload, args.seed, args.seconds);
    let sides = side_activities(args.workload, args.seed);
    let warmup = PlanInput::generate(args.seed, WARMUP_STREAMS, 1, 1);
    if !args.trace {
        let config = PassConfig {
            server_bin: &args.server_bin,
            setups: SETUPS,
            snapshots: false,
            trace: None,
        };
        let result = pass::run_pass(&config, &main, &sides, &warmup)?;
        return report::end_to_end(args.workload, &result);
    }
    traced::per_layer(
        args.workload,
        args.seed,
        &args.server_bin,
        &main,
        &sides,
        &warmup,
    )
}

fn main() {
    let args = parse_args();
    wire::epoch();
    match run(&args) {
        Ok(output) => output.print(),
        Err(e) => {
            eprintln!("ftbench: {e}");
            std::process::exit(1);
        }
    }
}
