//! One pass of a workload against freshly spawned `ft-server`s.
//!
//! A pass sets up several times (for a median set-up time) and keeps
//! the last server. The timed part then runs in [`ROUNDS`] rounds: each
//! round runs one slice of the main activity, timed, followed by one
//! slice of each side activity. Interleaving spreads every metric's
//! samples over the whole run, so a slow spell of the host lands on all
//! of them alike instead of wiping out one short phase. Last, every
//! answer is checked against the in-process reference.

use crate::drift::{self, DriftInput, DriftRecord, Replay};
use crate::quote::{self, QuoteInput, QuoteRecord};
use crate::server::{host_steal_ticks, own_cpu_seconds, steal_share, MetricsDump, ServerProc};
use crate::wire::{Conn, Kind, Tally, Target, TracedCall};
use crate::workload::{
    check_plan, run_plan, setup_fleet, Mismatch, PlanInput, PlanRecord, Timings,
};
use std::ops::Range;
use std::path::Path;
use std::time::{Duration, Instant};

/// Rounds per timed run.
pub const ROUNDS: usize = 10;

/// One of the three traffic shapes, with its inputs.
pub enum Activity {
    Plan(PlanInput),
    Quote(QuoteInput),
    Drift(Box<DriftInput>),
}

/// Slice `round` of `0..n`.
fn slice(n: usize, round: usize) -> Range<usize> {
    n * round / ROUNDS..n * (round + 1) / ROUNDS
}

/// What an activity's checks need, accumulated over the rounds.
pub enum Record {
    Plan(PlanRecord),
    Quote(QuoteRecord),
    Drift(DriftRecord),
}

impl Activity {
    pub fn name(&self) -> &'static str {
        match self {
            Activity::Plan(_) => "plan",
            Activity::Quote(_) => "quote",
            Activity::Drift(_) => "drift",
        }
    }

    fn connections(&self) -> usize {
        match self {
            Activity::Plan(_) => 1,
            Activity::Quote(_) => quote::CONNECTIONS,
            Activity::Drift(_) => drift::CONNECTIONS,
        }
    }

    /// Register and solve the activity's fleet and warm it up; its
    /// server ids.
    fn prepare(&self, conns: &mut [Conn], plan_warmup: &PlanInput) -> Result<Vec<u64>, String> {
        let ids = match self {
            Activity::Plan(_) => {
                let all = 0..plan_warmup.ops.len();
                run_plan(&mut conns[0], plan_warmup, all, &mut PlanRecord::default());
                Some(Vec::new())
            }
            Activity::Quote(input) => {
                let ids = setup_fleet(&mut conns[0], input.wires.iter().map(String::as_str));
                if let Some(ids) = &ids {
                    for (c, conn) in conns.iter_mut().enumerate() {
                        quote::warm_up(conn, input, ids, c);
                    }
                }
                ids
            }
            Activity::Drift(input) => {
                let ids = setup_fleet(&mut conns[0], input.wires());
                if let Some(ids) = &ids {
                    for conn in conns.iter_mut() {
                        drift::warm_up(conn, input, ids);
                    }
                }
                ids
            }
        };
        ids.ok_or_else(|| format!("{}: fleet set-up failed", self.name()))
    }

    fn record(&self) -> Record {
        match self {
            Activity::Plan(_) => Record::Plan(PlanRecord::default()),
            Activity::Quote(_) => Record::Quote(QuoteRecord::default()),
            Activity::Drift(_) => Record::Drift(DriftRecord::default()),
        }
    }

    /// Run slice `round` of the activity.
    fn run_round(
        &self,
        conns: &mut [Conn],
        ids: &[u64],
        round: usize,
        record: &mut Record,
    ) -> Timings {
        match (self, record) {
            (Activity::Plan(input), Record::Plan(record)) => {
                run_plan(&mut conns[0], input, slice(input.ops.len(), round), record)
            }
            (Activity::Quote(input), Record::Quote(record)) => {
                quote::run_quote(input, ids, conns, slice(input.ops_per_conn, round), record)
            }
            (Activity::Drift(input), Record::Drift(record)) => {
                let cohort: Vec<usize> = (0..input.campaigns())
                    .filter(|i| i % ROUNDS == round)
                    .collect();
                drift::run_drift(input, ids, conns, &cohort, record)
            }
            _ => unreachable!("a record always matches its activity"),
        }
    }
}

/// One activity's timed rounds and what its checks found.
pub struct Phase {
    pub name: &'static str,
    /// Timings per round.
    pub rounds: Vec<Timings>,
    /// Share of the host's CPU time the hypervisor stole during each
    /// round's slice of this activity.
    pub steal: Vec<f64>,
    /// Seconds the activity's slices took, and its checks.
    pub wall_s: f64,
    pub check_s: f64,
    pub conns: Vec<Conn>,
    pub mismatches: Vec<Mismatch>,
    /// Deterministic counts, printed so two runs of one seed can be compared.
    pub counts: Vec<(&'static str, u64)>,
    /// The drift activity's in-process replay.
    pub replay: Option<Replay>,
}

impl Phase {
    pub fn tally(&self) -> Tally {
        let mut tally = Tally::default();
        for conn in &self.conns {
            tally.merge(&conn.tally);
        }
        tally
    }

    pub fn traced(&self) -> impl Iterator<Item = &TracedCall> {
        self.conns.iter().flat_map(|c| c.traced.iter())
    }
}

type Checked = (Vec<Mismatch>, Vec<(&'static str, u64)>, Option<Replay>);

/// Check an activity's answers against the in-process reference.
fn check(activity: &Activity, record: &Record) -> Result<Checked, String> {
    let mut counts = Vec::new();
    let mut replay = None;
    let mismatches = match (activity, record) {
        (Activity::Plan(input), Record::Plan(record)) => {
            counts.push(("plans", record.planned as u64));
            counts.push(("checked_campaigns", record.answers.len() as u64));
            check_plan(input, record)
        }
        (Activity::Quote(input), Record::Quote(record)) => {
            let (registry, ids) = quote::reference_registry(&input.fleet)?;
            counts.push(("campaigns", input.fleet.len() as u64));
            counts.push((
                "quotes_checked",
                record.answers.iter().map(|a| a.len() as u64).sum(),
            ));
            quote::check_quote(input, record, &registry, &ids)
        }
        (Activity::Drift(input), Record::Drift(record)) => {
            let reference = drift::replay(input)?;
            let (recalibrations, _) = drift::summary(&record.steps);
            counts.push(("campaigns", input.campaigns() as u64));
            counts.push(("recalibrations", recalibrations));
            counts.push(("steps", record.steps.iter().map(|s| s.len() as u64).sum()));
            let found = drift::check_drift(record, &reference);
            replay = Some(reference);
            found
        }
        _ => unreachable!("a record always matches its activity"),
    };
    Ok((mismatches, counts, replay))
}

/// Everything one pass measured.
pub struct PassResult {
    /// Seconds from spawning `ft-server` to the first timed request,
    /// once per set-up.
    pub setup_s: Vec<f64>,
    pub main: Phase,
    pub sides: Vec<Phase>,
    pub main_requests: u64,
    pub server_cpu_s: f64,
    pub client_cpu_s: f64,
    pub peak_rss_mb: f64,
    /// Requests outside the timed rounds: set-up, warm-up and `/metrics`.
    pub other: Tally,
    /// `/metrics` before and after each round's main slice, then once at
    /// the end: `2 × ROUNDS + 1` exports.
    pub snapshots: Vec<MetricsDump>,
}

impl PassResult {
    pub fn phases(&self) -> impl Iterator<Item = &Phase> {
        std::iter::once(&self.main).chain(&self.sides)
    }

    pub fn tally(&self) -> Tally {
        let mut tally = self.other.clone();
        for phase in self.phases() {
            tally.merge(&phase.tally());
        }
        tally
    }

    pub fn mismatches(&self) -> impl Iterator<Item = &Mismatch> {
        self.phases().flat_map(|p| p.mismatches.iter())
    }
}

/// A connection that reads `/metrics?buckets=1`. The server exports each
/// histogram from a snapshot it caches for
/// `ServerConfig::metrics_export_cache` (counters are live), so a read
/// within that time of the previous one could return the old buckets;
/// each read first waits out the cache, outside every timed slice.
struct MetricsProbe {
    conn: Conn,
    ttl: Duration,
    last: Option<Instant>,
}

impl MetricsProbe {
    fn new(conn: Conn) -> Self {
        Self {
            conn,
            // A margin over the server's default, which ft-server runs with.
            ttl: ft_server::ServerConfig::default().metrics_export_cache
                + Duration::from_millis(10),
            last: None,
        }
    }

    fn read(&mut self) -> Result<MetricsDump, String> {
        if let Some(last) = self.last {
            std::thread::sleep(self.ttl.saturating_sub(last.elapsed()));
        }
        let reply = self
            .conn
            .expect(Kind::Metrics, "GET", "/metrics?buckets=1", None, 200)
            .ok_or("GET /metrics failed")?;
        // The server cached its snapshot before this reply arrived.
        self.last = Some(Instant::now());
        MetricsDump::parse(&reply.body)
    }
}

pub struct PassConfig<'a> {
    pub server_bin: &'a Path,
    pub setups: usize,
    pub snapshots: bool,
    /// `(seed, every, side_every)`: trace about one request in `every`
    /// of the main activity and one in `side_every` of the others.
    pub trace: Option<(u64, u64, u64)>,
}

/// Set up `config.setups` times, keeping the last server, then run the
/// timed rounds of `main` interleaved with the `sides`, then check.
pub fn run_pass(
    config: &PassConfig,
    main: &Activity,
    sides: &[Activity],
    plan_warmup: &PlanInput,
) -> Result<PassResult, String> {
    let activities: Vec<&Activity> = std::iter::once(main).chain(sides).collect();
    let mut setup_s = Vec::with_capacity(config.setups);
    let mut other = Tally::default();
    let mut kept = None;
    for k in 0..config.setups.max(1) {
        let started = Instant::now();
        let server = ServerProc::spawn(config.server_bin)?;
        let mut prepared = Vec::with_capacity(activities.len());
        for (a, activity) in activities.iter().enumerate() {
            let target = Target {
                addr: server.addr,
                trace: config
                    .trace
                    .map(|(seed, every, side)| (seed, if a == 0 { every } else { side })),
            };
            let mut conns: Vec<Conn> = (0..activity.connections())
                .map(|c| target.connect((10 * a + c) as u64))
                .collect();
            let ids = activity.prepare(&mut conns, plan_warmup)?;
            prepared.push((conns, ids));
        }
        setup_s.push(started.elapsed().as_secs_f64());
        // Set-up traffic is accounted apart from the timed rounds.
        for (conns, _) in prepared.iter_mut() {
            for conn in conns.iter_mut() {
                other.merge(&std::mem::take(&mut conn.tally));
                conn.traced.clear();
            }
        }
        if k + 1 == config.setups.max(1) {
            kept = Some((server, prepared));
        }
    }
    let (server, mut prepared) = kept.expect("at least one set-up");
    let mut probe = MetricsProbe::new(Target::untraced(server.addr).connect(99));
    let mut records: Vec<Record> = activities.iter().map(|a| a.record()).collect();
    let mut rounds: Vec<Vec<Timings>> = activities.iter().map(|_| Vec::new()).collect();
    let mut steal: Vec<Vec<f64>> = activities.iter().map(|_| Vec::new()).collect();
    let mut wall_s = vec![0.0; activities.len()];
    let mut snapshots = Vec::new();
    let (mut server_cpu_s, mut client_cpu_s) = (0.0, 0.0);

    for round in 0..ROUNDS {
        if config.snapshots {
            snapshots.push(probe.read()?);
        }
        let cpu = server.cpu_seconds()?;
        let client = own_cpu_seconds()?;
        let stolen = host_steal_ticks()?;
        let started = Instant::now();
        let (conns, ids) = &mut prepared[0];
        rounds[0].push(main.run_round(conns, ids, round, &mut records[0]));
        wall_s[0] += started.elapsed().as_secs_f64();
        steal[0].push(steal_share(stolen, host_steal_ticks()?));
        server_cpu_s += server.cpu_seconds()? - cpu;
        client_cpu_s += own_cpu_seconds()? - client;
        if config.snapshots {
            snapshots.push(probe.read()?);
        }
        for (s, side) in sides.iter().enumerate() {
            let (conns, ids) = &mut prepared[s + 1];
            let stolen = host_steal_ticks()?;
            let started = Instant::now();
            rounds[s + 1].push(side.run_round(conns, ids, round, &mut records[s + 1]));
            wall_s[s + 1] += started.elapsed().as_secs_f64();
            steal[s + 1].push(steal_share(stolen, host_steal_ticks()?));
        }
    }
    if config.snapshots {
        snapshots.push(probe.read()?);
    }
    let peak_rss_mb = server.peak_rss_mb()?;
    other.merge(&probe.conn.tally);
    drop(server);

    let mut phases = Vec::with_capacity(activities.len());
    for (((((activity, (conns, _)), record), rounds), steal), wall_s) in activities
        .iter()
        .zip(prepared)
        .zip(&records)
        .zip(rounds)
        .zip(steal)
        .zip(wall_s)
    {
        let started = Instant::now();
        let (mismatches, mut counts, replay) = check(activity, record)?;
        let mut phase = Phase {
            name: activity.name(),
            rounds,
            steal,
            wall_s,
            check_s: started.elapsed().as_secs_f64(),
            conns,
            mismatches,
            counts: Vec::new(),
            replay,
        };
        counts.push(("requests", phase.tally().attempted()));
        phase.counts = counts;
        phases.push(phase);
    }
    let main = phases.remove(0);
    let main_requests = main.tally().attempted();
    Ok(PassResult {
        setup_s,
        main,
        sides: phases,
        main_requests,
        server_cpu_s,
        client_cpu_s,
        peak_rss_mb,
        other,
        snapshots,
    })
}
