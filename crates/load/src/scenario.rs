//! The scenario spec: what fleet to run, how hard, and for how long.
//!
//! A scenario is a JSON document (or one of the built-in profiles)
//! describing a **campaign fleet mix** — groups of deadline and budget
//! campaigns with their marketplace models — plus the closed-loop
//! driver's shape: concurrency, simulated intervals, the drift factor
//! between the trained arrival model and the "real" worker population,
//! and the recalibration cadence. `ft-load` turns each group into
//! campaign specs, registers and solves them through the backend, then
//! drives them with arrivals sampled from `ft-market`'s NHPP machinery
//! and acceptances from the group's logit model.

use ft_core::registry::CampaignSpec;
use ft_core::{ActionSet, BudgetProblem, DeadlineProblem, PenaltyModel};
use ft_market::{ConstantRate, LogitAcceptance, PriceGrid};
use serde::{Deserialize, Serialize};

/// Which campaign family a fleet group runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CampaignKind {
    Deadline,
    Budget,
}

/// A homogeneous slice of the fleet.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetGroup {
    pub kind: CampaignKind,
    /// Campaigns in this group.
    pub count: usize,
    /// Batch size per campaign.
    pub n_tasks: u32,
    /// Horizon the trained model covers (deadline) / tick sizing
    /// (budget): one driven round simulates `horizon_hours /
    /// n_intervals` hours.
    pub horizon_hours: f64,
    pub n_intervals: usize,
    /// Trained worker arrival rate (per hour).
    pub arrivals_per_hour: f64,
    /// Price grid in cents.
    pub grid_min: u32,
    pub grid_max: u32,
    /// Logit acceptance parameters (Eq. 3).
    pub logit_s: f64,
    pub logit_b: f64,
    pub logit_m: f64,
    /// Deadline: terminal penalty per unfinished task.
    pub penalty_per_task: f64,
    /// Budget: total budget in cents.
    pub budget_cents: usize,
}

impl FleetGroup {
    pub fn acceptance(&self) -> LogitAcceptance {
        LogitAcceptance::new(self.logit_s, self.logit_b, self.logit_m)
    }

    /// Trained per-interval arrival mass `λ_t`.
    pub fn interval_arrivals(&self) -> f64 {
        self.arrivals_per_hour * self.horizon_hours / self.n_intervals as f64
    }

    /// The campaign spec this group registers for each of its members.
    pub fn spec(&self) -> CampaignSpec {
        let grid = PriceGrid::new(self.grid_min, self.grid_max);
        let acceptance = self.acceptance();
        match self.kind {
            CampaignKind::Deadline => CampaignSpec::Deadline {
                problem: DeadlineProblem::from_market(
                    self.n_tasks,
                    self.horizon_hours,
                    self.n_intervals,
                    &ConstantRate::new(self.arrivals_per_hour),
                    grid,
                    &acceptance,
                    PenaltyModel::Linear {
                        per_task: self.penalty_per_task,
                    },
                ),
                eps: None,
            },
            CampaignKind::Budget => CampaignSpec::Budget {
                problem: BudgetProblem::new(
                    self.n_tasks,
                    self.budget_cents as f64,
                    ActionSet::from_grid(grid, &acceptance),
                    self.arrivals_per_hour,
                ),
            },
        }
    }
}

/// A full workload description.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Scenario {
    pub name: String,
    /// Base RNG seed; worker `w` derives `seed + w`.
    pub seed: u64,
    /// Closed-loop driver threads (each owns a fleet partition).
    pub concurrency: usize,
    /// Rounds driven per campaign (clamped to a deadline group's
    /// `n_intervals`).
    pub intervals: usize,
    /// True arrivals = trained × `drift` — below 1.0 the fleet under-
    /// delivers and deadline campaigns recalibrate under load.
    pub drift: f64,
    /// True acceptance = trained × `acceptance_drift` (clamped to 1) —
    /// away from 1.0 workers accept posted prices more/less often than
    /// the trained logit model says, which is the signal the budget
    /// acceptance-drift recalibrator detects from exposure-carrying
    /// observation reports.
    pub acceptance_drift: f64,
    /// Registry recalibration cadence (`AdaptiveOptions::resolve_every`
    /// for deadline campaigns, `BudgetDriftOptions::resolve_every` for
    /// budget ones).
    pub resolve_every: usize,
    /// Socket mode: server pool sizing.
    pub server_workers: usize,
    pub server_queue_depth: usize,
    /// Socket mode: concurrent connections in the flood phase.
    pub flood_connections: usize,
    /// Closed-loop batching width: `> 1` sends each worker partition's
    /// quotes as `price_many` batches of this size (one
    /// `POST /campaigns/quotes` round trip per chunk in socket mode)
    /// and the matching observations as `observe_many` batches. `0` or
    /// `1` keeps the one-request-per-campaign loop.
    pub bulk: usize,
    pub fleet: Vec<FleetGroup>,
}

impl Scenario {
    /// Seconds-not-minutes CI profile: a small mixed fleet, drifting
    /// hard enough that recalibration is guaranteed within the run.
    pub fn fast() -> Self {
        Self {
            name: "fast".into(),
            seed: 7,
            concurrency: 4,
            intervals: 8,
            drift: 0.35,
            acceptance_drift: 1.0,
            resolve_every: 2,
            server_workers: 4,
            server_queue_depth: 16,
            flood_connections: 32,
            bulk: 1,
            fleet: vec![
                FleetGroup {
                    kind: CampaignKind::Deadline,
                    count: 3,
                    n_tasks: 30,
                    horizon_hours: 4.0,
                    n_intervals: 8,
                    arrivals_per_hour: 400.0,
                    grid_min: 0,
                    grid_max: 20,
                    logit_s: 4.0,
                    logit_b: 0.0,
                    logit_m: 30.0,
                    penalty_per_task: 500.0,
                    budget_cents: 0,
                },
                FleetGroup {
                    kind: CampaignKind::Budget,
                    count: 2,
                    n_tasks: 15,
                    horizon_hours: 4.0,
                    n_intervals: 8,
                    arrivals_per_hour: 300.0,
                    grid_min: 1,
                    grid_max: 12,
                    logit_s: 4.0,
                    logit_b: 0.0,
                    logit_m: 20.0,
                    penalty_per_task: 0.0,
                    budget_cents: 120,
                },
            ],
        }
    }

    /// The default standing profile: a paper-scale fleet driven for a
    /// full horizon.
    pub fn standard() -> Self {
        Self {
            name: "standard".into(),
            seed: 42,
            concurrency: 8,
            intervals: 24,
            drift: 0.5,
            acceptance_drift: 1.0,
            resolve_every: 3,
            server_workers: 8,
            server_queue_depth: 64,
            flood_connections: 64,
            bulk: 1,
            fleet: vec![
                FleetGroup {
                    kind: CampaignKind::Deadline,
                    count: 8,
                    n_tasks: 200,
                    horizon_hours: 8.0,
                    n_intervals: 24,
                    arrivals_per_hour: 2000.0,
                    grid_min: 0,
                    grid_max: 40,
                    logit_s: 15.0,
                    logit_b: -0.39,
                    logit_m: 2000.0,
                    penalty_per_task: 1000.0,
                    budget_cents: 0,
                },
                FleetGroup {
                    kind: CampaignKind::Budget,
                    count: 4,
                    n_tasks: 60,
                    horizon_hours: 8.0,
                    n_intervals: 24,
                    arrivals_per_hour: 800.0,
                    grid_min: 1,
                    grid_max: 25,
                    logit_s: 6.0,
                    logit_b: 0.0,
                    logit_m: 50.0,
                    penalty_per_task: 0.0,
                    budget_cents: 900,
                },
            ],
        }
    }

    /// The batched-serving CI profile: the `fast` fleet driven through
    /// the bulk quote/observe plane — each worker's partition goes out
    /// as `price_many`/`observe_many` batches of 8, which in socket
    /// mode is one `POST /campaigns/quotes` round trip per chunk
    /// instead of one HTTP exchange per campaign. More campaigns per
    /// group (and one worker) so chunks actually fill.
    pub fn bulk_fast() -> Self {
        let mut scenario = Self::fast();
        scenario.name = "bulk-fast".into();
        scenario.concurrency = 1;
        scenario.bulk = 8;
        for group in &mut scenario.fleet {
            group.count *= 4;
        }
        scenario
    }

    /// The fleet/failover profile: the `fast` mix scaled up and driven
    /// through an `ft-router` front tier (`--target ROUTER
    /// --fleet-nodes ...`), sized so the harness can SIGKILL one
    /// backend mid-drive and still assert zero lost campaigns and 100%
    /// quote success after the ring flips. `resolve_every` is 3 to
    /// match the standalone `ft-server` binary's default registry
    /// cadence — the nodes are external processes, not
    /// harness-configured registries. Unbatched (`bulk: 1`) on
    /// purpose: the perf floor compares this leg's round-trip
    /// throughput against the direct-socket `fast` leg at ≥ 0.4×, and
    /// that ratio is only meaningful when both legs carry one quote
    /// per round trip (cross-backend bulk reassembly has its own
    /// coverage in `crates/router`'s tests).
    pub fn fleet(fast: bool) -> Self {
        let mut scenario = Self::fast();
        scenario.name = if fast { "fleet-fast" } else { "fleet" }.into();
        scenario.seed = 23;
        scenario.resolve_every = 3;
        for group in &mut scenario.fleet {
            group.count *= if fast { 4 } else { 12 };
        }
        scenario
    }

    /// The recalibration-storm profile: a large fleet of **identical**
    /// deadline campaigns under heavy negative drift, built to flood
    /// the registry with re-solves that share Poisson pmf rows through
    /// its one [`SharedPmfCache`].
    ///
    /// Two properties make the storm cache-friendly on purpose:
    ///
    /// - every campaign is the same spec, so the initial solve storm
    ///   re-derives one row universe `{(λ, accept(a))}`;
    /// - `drift` sits **below** the adaptive pricer's correction clamp
    ///   (`AdaptiveOptions::min_correction` = 0.25), so every
    ///   campaign's windowed ratio estimate clamps to exactly 0.25 and
    ///   the recalibration storm re-derives one *shared* corrected row
    ///   universe `{(0.25·λ, accept(a))}` instead of per-campaign
    ///   stochastic rates.
    ///
    /// The perf gate holds this leg's reported `pmf_cache.hit_rate` at
    /// ≥ 0.5 (`scripts/perf_floors.json`), which is the shared cache's
    /// banked win.
    ///
    /// [`SharedPmfCache`]: ft_core::kernel::SharedPmfCache
    pub fn storm(fast: bool) -> Self {
        let mut scenario = Self::fast();
        scenario.name = if fast { "storm-fast" } else { "storm" }.into();
        scenario.seed = 29;
        scenario.drift = 0.2;
        scenario.resolve_every = 2;
        // Deadline-only: the budget MDP does not consume pmf rows.
        scenario.fleet.retain(|g| g.kind == CampaignKind::Deadline);
        for group in &mut scenario.fleet {
            group.count = if fast { 40 } else { 120 };
        }
        scenario
    }

    /// The budget-drift profile: a budget-only fleet whose workers
    /// accept posted prices far less often than the trained logit model
    /// says, with arrivals on-model — so *only* the acceptance-drift
    /// recalibrator can fire, and the gate asserts it does. `fast` is
    /// the seconds-scale CI variant.
    pub fn budget_drift(fast: bool) -> Self {
        // Arrivals are sized so one tick picks up only a few tasks:
        // exhausting a batch mid-tick censors that report's exposure
        // (offers are unknowable for a truncated count), and the drift
        // estimator needs several uncensored reports to act.
        let (name, count, n_tasks, budget_cents, intervals, arrivals_per_hour) = if fast {
            ("budget-drift-fast", 3, 40, 700, 10, 25.0)
        } else {
            ("budget-drift", 6, 120, 2400, 24, 70.0)
        };
        Self {
            name: name.into(),
            seed: 11,
            concurrency: 4,
            intervals,
            drift: 1.0,
            acceptance_drift: 0.45,
            resolve_every: 2,
            server_workers: 4,
            server_queue_depth: 16,
            flood_connections: 32,
            bulk: 1,
            fleet: vec![FleetGroup {
                kind: CampaignKind::Budget,
                count,
                n_tasks,
                horizon_hours: 4.0,
                n_intervals: intervals,
                arrivals_per_hour,
                grid_min: 1,
                grid_max: 20,
                logit_s: 4.0,
                logit_b: 0.0,
                logit_m: 20.0,
                penalty_per_task: 0.0,
                budget_cents,
            }],
        }
    }

    /// Parse a scenario from JSON (the serde encoding of this struct).
    pub fn from_json(json: &str) -> Result<Self, String> {
        serde_json::from_str(json).map_err(|e| format!("scenario parse: {e}"))
    }

    /// Structural sanity checks with readable errors.
    pub fn validate(&self) -> Result<(), String> {
        if self.fleet.is_empty() {
            return Err("scenario needs at least one fleet group".into());
        }
        if self.concurrency == 0 {
            return Err("concurrency must be ≥ 1".into());
        }
        if self.intervals == 0 {
            return Err("intervals must be ≥ 1".into());
        }
        if self.bulk > 1024 {
            return Err(format!(
                "bulk must be ≤ 1024 (the server's batch item cap), got {}",
                self.bulk
            ));
        }
        if !(self.drift > 0.0 && self.drift.is_finite()) {
            return Err(format!("drift must be positive, got {}", self.drift));
        }
        if !(self.acceptance_drift > 0.0 && self.acceptance_drift.is_finite()) {
            return Err(format!(
                "acceptance_drift must be positive, got {}",
                self.acceptance_drift
            ));
        }
        for (i, group) in self.fleet.iter().enumerate() {
            if group.count == 0 {
                return Err(format!("fleet group {i} has zero campaigns"));
            }
            if group.n_intervals == 0 || group.horizon_hours <= 0.0 {
                return Err(format!("fleet group {i} has an empty horizon"));
            }
            if group.kind == CampaignKind::Budget && group.budget_cents == 0 {
                return Err(format!("budget group {i} has zero budget"));
            }
            if group.grid_min > group.grid_max {
                return Err(format!(
                    "fleet group {i}: price grid [{}, {}] is inverted",
                    group.grid_min, group.grid_max
                ));
            }
            if !(group.logit_s > 0.0 && group.logit_m > 0.0) {
                return Err(format!("fleet group {i}: logit s and M must be positive"));
            }
            // Surface spec-level problems (bad grids, bad logit
            // parameters) as validation errors instead of panics.
            group
                .spec()
                .validate()
                .map_err(|e| format!("fleet group {i}: {e}"))?;
        }
        Ok(())
    }

    /// Total campaigns across the fleet.
    pub fn campaign_count(&self) -> usize {
        self.fleet.iter().map(|g| g.count).sum()
    }

    /// Whether this scenario can trigger recalibration at all: only
    /// deadline campaigns re-solve (budget MDP tables answer every
    /// state), and only when the observed arrivals drift off the
    /// trained model and enough intervals elapse to cross the resolve
    /// schedule. The recalibration gate is waived when this is false —
    /// a flawless budget-only or no-drift run must not fail.
    pub fn expects_recalibration(&self) -> bool {
        self.fleet
            .iter()
            .any(|g| g.kind == CampaignKind::Deadline && g.count > 0)
            && (self.drift - 1.0).abs() > 1e-9
            && self.intervals > self.resolve_every
    }

    /// Whether this scenario can trigger *budget* recalibration: a
    /// budget fleet whose acceptance drifts off the trained model hard
    /// enough to cross the registry's default threshold, with enough
    /// rounds to cross the resolve cadence. The budget-recalibration
    /// gate applies only when this is true.
    pub fn expects_budget_recalibration(&self) -> bool {
        self.fleet
            .iter()
            .any(|g| g.kind == CampaignKind::Budget && g.count > 0)
            && (self.acceptance_drift - 1.0).abs() > 0.25
            && self.intervals > self.resolve_every
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn built_in_profiles_validate() {
        Scenario::fast().validate().unwrap();
        Scenario::standard().validate().unwrap();
        Scenario::budget_drift(true).validate().unwrap();
        let bulk = Scenario::bulk_fast();
        bulk.validate().unwrap();
        assert!(bulk.bulk > 1, "bulk profile must actually batch");
        for storm in [Scenario::storm(true), Scenario::storm(false)] {
            storm.validate().unwrap();
            // Deadline-only: budget solves never consult the pmf cache,
            // so they would only dilute the storm's hit-rate signal.
            assert!(storm.fleet.iter().all(|g| g.kind == CampaignKind::Deadline));
            // Enough identical campaigns to share rows in bulk, and drift
            // below the adaptive clamp so recalibration rows are shared
            // too.
            assert!(storm.campaign_count() >= 32);
            assert!(storm.drift < 0.25);
            assert!(storm.expects_recalibration());
        }
        for fleet in [Scenario::fleet(true), Scenario::fleet(false)] {
            fleet.validate().unwrap();
            // One quote per round trip: the fleet perf floor is
            // relative to the unbatched direct-socket leg.
            assert_eq!(fleet.bulk, 1);
            // The kill watcher needs one full quote round to have fired
            // before the SIGKILL; a fleet this small would end first.
            assert!(fleet.campaign_count() >= 20);
            assert!(fleet.expects_recalibration());
        }
    }

    #[test]
    fn scenario_round_trips_through_json() {
        let scenario = Scenario::fast();
        let json = serde_json::to_string(&scenario.to_value()).unwrap();
        let back = Scenario::from_json(&json).unwrap();
        assert_eq!(back.name, scenario.name);
        assert_eq!(back.fleet.len(), scenario.fleet.len());
        assert_eq!(back.fleet[0].kind, CampaignKind::Deadline);
        assert_eq!(back.fleet[1].budget_cents, scenario.fleet[1].budget_cents);
        back.validate().unwrap();
    }

    #[test]
    fn recalibration_expectation_tracks_fleet_shape() {
        assert!(Scenario::fast().expects_recalibration());
        // Budget-only fleets never recalibrate; the gate must waive.
        let mut s = Scenario::fast();
        s.fleet.retain(|g| g.kind == CampaignKind::Budget);
        assert!(!s.expects_recalibration());
        // No drift → trained model holds → no re-solve expected.
        let mut s = Scenario::fast();
        s.drift = 1.0;
        assert!(!s.expects_recalibration());
        // Too few intervals to cross the resolve schedule.
        let mut s = Scenario::fast();
        s.intervals = s.resolve_every;
        assert!(!s.expects_recalibration());
    }

    #[test]
    fn validation_catches_broken_groups() {
        let mut s = Scenario::fast();
        s.fleet[0].grid_min = 30; // > grid_max
        assert!(s.validate().is_err());

        let mut s = Scenario::fast();
        s.drift = 0.0;
        assert!(s.validate().is_err());

        let mut s = Scenario::fast();
        s.fleet.clear();
        assert!(s.validate().is_err());
    }
}
