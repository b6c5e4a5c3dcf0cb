//! The campaign registry: versioned campaign lifecycle records behind the
//! serving API.
//!
//! Each campaign is a versioned record:
//!
//! - a [`CampaignSpec`] (what to optimise),
//! - a lifecycle [`CampaignStatus`] (`Draft → Solving → Live →
//!   Recalibrating → Exhausted`, or `Evicted`),
//! - a monotonically increasing **policy generation**: every (re)solve
//!   publishes a fresh immutable [`PolicyGeneration`] behind an `Arc`
//!   swap, so `reprice` readers keep answering from the old generation
//!   while a solve runs and *never block on a solve*,
//! - a kind-polymorphic engine (`engine::CampaignEngine`) holding the
//!   per-kind drift machinery: the Section 5.2.5 arrival-corrected
//!   [`crate::adaptive::AdaptivePricer`] for deadline campaigns, and the
//!   acceptance-drift recalibrator for budget campaigns.
//!
//! The module splits along the three concerns a fleet-scale registry
//! has to keep apart:
//!
//! | module | owns |
//! |---|---|
//! | `store` | the `ShardedStore`: N independently locked shards (id-hash routed) |
//! | `engine` | the `CampaignEngine` trait and its deadline/budget implementations |
//! | `snapshot` | versioned JSON persistence (old formats keep loading) |
//!
//! Locking discipline (hot path first):
//!
//! | data | guard | held for |
//! |---|---|---|
//! | id → record map | one **shard** `RwLock` read | a map lookup |
//! | current [`PolicyGeneration`] | `RwLock` read / write | an `Arc` clone / pointer swap |
//! | status | `AtomicU8` | lock-free |
//! | spec + engine | `Mutex` | writer ops (solve/observe/evict) |
//!
//! Solves and recalibrations run while holding only the writer `Mutex`
//! of their own campaign — never a shard map lock or the generation
//! lock. Map membership changes lock in the order *campaign mutex →
//! shard map write* (see the `store` module source); that is the only
//! lock order.
//!
//! Every solve and recalibration resolves the Eq. 5 Poisson pmf rows
//! through one [`SharedPmfCache`] the registry owns for its lifetime, so
//! campaigns pricing the same arrival regime build each row once. Rows
//! are pure, prefix-stable functions of their key, so the cache changes
//! no answer by a single bit. Handing out the cache takes no lock.

mod engine;
mod snapshot;
mod store;

pub use engine::BudgetDriftOptions;
pub use snapshot::SNAPSHOT_VERSION;

use crate::adaptive::{AdaptiveOptions, AdaptivePricer};
use crate::budget::{solve_budget_mdp_with, BudgetMdpPolicy, BudgetProblem};
use crate::error::{CampaignId, PricingError, Result};
use crate::kernel::deadline::solve_deadline_with_cache;
use crate::kernel::{KernelConfig, SharedPmfCache, Sweep, TruncationTable};
use crate::policy::{DeadlinePolicy, PriceController};
use crate::problem::DeadlineProblem;
use crate::telemetry::RegistryTelemetry;
use engine::{BudgetEngine, CampaignEngine, DeadlineEngine};
use ft_metrics::MetricsRegistry;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use store::{lock_state, Campaign, ShardedStore};

/// Truncation mass used when a deadline campaign doesn't specify one.
pub const DEFAULT_EPS: f64 = 1e-9;

/// Largest expected worker arrivals per interval (`λ_t`) a deadline
/// spec may ask for: about 6·10⁵× the paper's 1700 per interval. Every
/// solve derives truncation points `s₀ ≈ λ_t` from these masses, and a
/// recalibration scales them by up to `max_correction` (4 by default).
/// Past 2⁵³ ≈ 9·10¹⁵ an f64 cannot hold `s₀` exactly, and past 2⁶² the
/// truncation search refuses the mean, so even 4× the bound stays over
/// six orders of magnitude inside both. A restored campaign's
/// `max_correction` may not carry its masses past 2⁵³ either.
pub const MAX_INTERVAL_ARRIVALS: f64 = 1e9;

/// Largest solve a spec may ask for, in bytes by
/// `CampaignSpec::solve_bytes`: 1 GiB. The largest campaign any
/// registry caller in this repository registers is the 1000-task,
/// 144-interval deadline campaign of `examples/pricing_service.rs`, at
/// ≈143 MB by that bound, so the limit leaves a 7× margin over it
/// (ftbench's §5.2 deadline campaign needs ≈14 MB, the paper budget
/// campaign ≈6 MB). A failed allocation aborts the process, so a spec
/// past the limit is refused before any table is allocated.
pub const MAX_SOLVE_BYTES: f64 = 1_073_741_824.0;

/// Default shard count for the sharded store. Enough that a handful of
/// writer threads rarely collide, small enough that walking every shard
/// (status counts, snapshots) stays cheap.
pub const DEFAULT_SHARDS: usize = 16;

/// Registry-wide configuration: shard layout, solver budget, and the
/// per-kind drift policies.
#[derive(Debug, Clone, Copy)]
pub struct RegistryConfig {
    /// Independent store shards (clamped to ≥ 1). One shard reproduces
    /// the historical single-map behavior.
    pub shards: usize,
    /// Kernel budget for solves and recalibrations.
    pub kernel: KernelConfig,
    /// Deadline drift policy (arrival correction ρ̂).
    pub adaptive: AdaptiveOptions,
    /// Budget drift policy (acceptance correction).
    pub budget_drift: BudgetDriftOptions,
}

impl Default for RegistryConfig {
    fn default() -> Self {
        Self {
            shards: DEFAULT_SHARDS,
            kernel: KernelConfig::default(),
            adaptive: AdaptiveOptions::default(),
            budget_drift: BudgetDriftOptions::default(),
        }
    }
}

/// What a campaign asks the service to optimise.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum CampaignSpec {
    /// Fixed deadline (Section 3): minimise expected cost.
    Deadline {
        problem: DeadlineProblem,
        /// Poisson-tail truncation mass; `None` = [`DEFAULT_EPS`].
        eps: Option<f64>,
    },
    /// Fixed budget (Section 4): minimise expected latency.
    Budget { problem: BudgetProblem },
}

impl CampaignSpec {
    /// `"deadline"` / `"budget"`.
    pub fn kind(&self) -> &'static str {
        match self {
            CampaignSpec::Deadline { .. } => "deadline",
            CampaignSpec::Budget { .. } => "budget",
        }
    }

    /// An upper bound on the bytes a solve (or re-solve) of this spec
    /// allocates, from its sizes alone. A deadline solve holds
    /// `(n_tasks + 1) × (intervals + 1)` table cells, one truncation
    /// point per `(interval, action)`, and one pmf row per
    /// `(interval, action)` of at most `n_tasks` entries (standing in
    /// for `s₀`, so no truncation point is computed here). A budget
    /// solve holds `(n_tasks + 1) × (⌊budget⌋ + 1)` cells.
    pub(crate) fn solve_bytes(&self) -> f64 {
        use std::mem::size_of;
        // A value and a decision per table cell.
        let cell = (size_of::<f64>() + size_of::<u32>()) as f64;
        match self {
            CampaignSpec::Deadline { problem, .. } => {
                let tasks = f64::from(problem.n_tasks);
                let intervals = problem.n_intervals() as f64;
                let rows = intervals * problem.actions.len() as f64;
                // A pmf row is three f64 segments (`kernel::PmfRow`).
                let row_entry = (3 * size_of::<f64>()) as f64;
                (tasks + 1.0) * (intervals + 1.0) * cell
                    + rows * size_of::<usize>() as f64
                    + rows * tasks * row_entry
            }
            CampaignSpec::Budget { problem } => {
                (f64::from(problem.n_tasks) + 1.0) * (problem.budget.floor() + 1.0) * cell
            }
        }
    }

    /// Structural validation with *structured errors*. Constructors like
    /// [`DeadlineProblem::new`] assert these invariants, but specs that
    /// arrive over the wire are deserialized field-by-field and bypass
    /// them — without this check a bad spec would panic (and wedge) the
    /// solve path instead of answering 400.
    pub fn validate(&self) -> Result<()> {
        fn bad(msg: String) -> Result<()> {
            Err(PricingError::InvalidProblem(msg))
        }
        let actions = match self {
            CampaignSpec::Deadline { problem, eps } => {
                if let Some(eps) = eps {
                    if !(*eps > 0.0 && *eps < 1.0) {
                        return bad(format!("eps must be in (0, 1), got {eps}"));
                    }
                }
                if problem.n_tasks == 0 {
                    return bad("zero tasks".into());
                }
                if problem.interval_arrivals.is_empty() {
                    return bad("zero intervals".into());
                }
                for &lam in &problem.interval_arrivals {
                    if !(0.0..=MAX_INTERVAL_ARRIVALS).contains(&lam) {
                        return bad(format!(
                            "interval arrival {lam:?} must be in [0, {MAX_INTERVAL_ARRIVALS:e}]"
                        ));
                    }
                }
                if !(problem.penalty.per_task().is_finite() && problem.penalty.per_task() >= 0.0) {
                    return bad("penalty must be finite and ≥ 0".into());
                }
                &problem.actions
            }
            CampaignSpec::Budget { problem } => {
                if problem.n_tasks == 0 {
                    return bad("zero tasks".into());
                }
                if !(problem.budget >= 0.0 && problem.budget.is_finite()) {
                    return bad(format!("budget {} must be finite and ≥ 0", problem.budget));
                }
                if !(problem.mean_rate > 0.0 && problem.mean_rate.is_finite()) {
                    return bad(format!(
                        "mean rate {} must be finite and > 0",
                        problem.mean_rate
                    ));
                }
                &problem.actions
            }
        };
        if actions.is_empty() {
            return bad("empty action set".into());
        }
        let mut prev: Option<(f64, f64)> = None;
        for i in 0..actions.len() {
            let a = actions.get(i);
            if !(a.reward >= 0.0 && a.reward.is_finite()) {
                return bad(format!("reward {} must be finite and ≥ 0", a.reward));
            }
            if !(0.0..=1.0).contains(&a.accept) {
                return bad(format!("acceptance {} must be in [0, 1]", a.accept));
            }
            if let Some((reward, accept)) = prev {
                if a.reward <= reward {
                    return bad(format!(
                        "rewards must be strictly increasing at {}",
                        a.reward
                    ));
                }
                if a.accept < accept - 1e-12 {
                    return bad(format!(
                        "acceptance must be non-decreasing in reward at {}",
                        a.reward
                    ));
                }
            }
            prev = Some((a.reward, a.accept));
        }
        let bytes = self.solve_bytes();
        if bytes > MAX_SOLVE_BYTES {
            return bad(format!(
                "a solve needs up to {bytes:.3e} bytes, past the {MAX_SOLVE_BYTES:.3e}-byte limit"
            ));
        }
        Ok(())
    }
}

/// A solved campaign policy (one generation's table).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum CampaignPolicy {
    Deadline(DeadlinePolicy),
    Budget(BudgetMdpPolicy),
}

impl CampaignPolicy {
    fn kind(&self) -> &'static str {
        match self {
            CampaignPolicy::Deadline(_) => "deadline",
            CampaignPolicy::Budget(_) => "budget",
        }
    }
}

/// The live state a campaign reports when asking for a fresh price.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ObservedState {
    /// Deadline campaign: tasks remaining at the given interval index.
    Deadline { remaining: u32, interval: usize },
    /// Budget campaign: tasks remaining with the given cents unspent.
    Budget { remaining: u32, budget_cents: usize },
}

impl ObservedState {
    fn kind(&self) -> &'static str {
        match self {
            ObservedState::Deadline { .. } => "deadline",
            ObservedState::Budget { .. } => "budget",
        }
    }
}

/// Campaign lifecycle status.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[repr(u8)]
pub enum CampaignStatus {
    /// Registered, not yet solved.
    Draft,
    /// First solve in flight; no policy to serve yet.
    Solving,
    /// Serving prices from the current policy generation.
    Live,
    /// A re-solve is in flight; readers stay on the previous generation.
    Recalibrating,
    /// Batch finished (or horizon passed); the last generation still
    /// answers price queries.
    Exhausted,
    /// Deleted; record kept as a tombstone, policy dropped.
    Evicted,
}

impl CampaignStatus {
    /// Lower-case status name (the wire/status-endpoint encoding).
    pub fn as_str(&self) -> &'static str {
        match self {
            CampaignStatus::Draft => "draft",
            CampaignStatus::Solving => "solving",
            CampaignStatus::Live => "live",
            CampaignStatus::Recalibrating => "recalibrating",
            CampaignStatus::Exhausted => "exhausted",
            CampaignStatus::Evicted => "evicted",
        }
    }

    pub(crate) fn from_u8(v: u8) -> Self {
        match v {
            0 => CampaignStatus::Draft,
            1 => CampaignStatus::Solving,
            2 => CampaignStatus::Live,
            3 => CampaignStatus::Recalibrating,
            4 => CampaignStatus::Exhausted,
            _ => CampaignStatus::Evicted,
        }
    }
}

/// One immutable solved-policy version. `reprice` answers from exactly
/// one of these; recalibration publishes the next one with a single
/// pointer swap.
#[derive(Debug, Clone)]
pub struct PolicyGeneration {
    /// 1 for the first solve, +1 per recalibration.
    pub generation: u64,
    /// First full-horizon interval a deadline policy covers (its tables
    /// are indexed by `interval - start`). Always 0 for budget policies.
    pub start: usize,
    pub policy: Arc<CampaignPolicy>,
}

/// A price answer tagged with the generation that produced it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PriceQuote {
    pub price: f64,
    pub generation: u64,
}

/// One reported interval/batch outcome, as accepted by
/// [`CampaignRegistry::observe`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CampaignObservation {
    /// Deadline campaign: completions seen in full-horizon interval
    /// `interval` at reward `posted` (`None` = whatever the live policy
    /// quoted for the campaign's tracked remaining count).
    Deadline {
        interval: usize,
        completions: u64,
        posted: Option<f64>,
    },
    /// Budget campaign: completions picked up and cents spent since the
    /// last report. `posted` + `offers` optionally carry the exposure
    /// behind those completions — the posted reward and how many worker
    /// arrivals saw it — which is what feeds the acceptance-drift
    /// recalibrator. Reports without exposure still account progress
    /// (the pre-drift wire format keeps working) but add no drift
    /// signal.
    Budget {
        completions: u64,
        spent_cents: usize,
        posted: Option<f64>,
        offers: Option<u64>,
    },
}

impl CampaignObservation {
    /// `"deadline"` / `"budget"`.
    pub fn kind(&self) -> &'static str {
        match self {
            CampaignObservation::Deadline { .. } => "deadline",
            CampaignObservation::Budget { .. } => "budget",
        }
    }
}

/// What [`CampaignRegistry::observe`] did with a report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObserveOutcome {
    pub status: CampaignStatus,
    /// Generation serving *after* this observation.
    pub generation: u64,
    /// Drift-correction ratio: arrival-level ρ̂ for deadline campaigns,
    /// acceptance-level for budget campaigns (1.0 before any signal).
    pub correction: f64,
    /// Whether this observation triggered a re-solve and generation bump.
    pub recalibrated: bool,
    /// Registry-tracked remaining tasks after the observation.
    pub remaining: u32,
}

/// Status + diagnostics snapshot for one campaign (the `GET
/// /campaigns/{id}` payload).
#[derive(Debug, Clone, Serialize)]
pub struct CampaignReport {
    pub id: CampaignId,
    pub kind: String,
    pub status: CampaignStatus,
    pub generation: u64,
    pub n_tasks: u32,
    /// Registry-tracked remaining tasks (`None` before the first solve).
    pub remaining: Option<u32>,
    /// Observed intervals so far (deadline) or observation reports
    /// (budget).
    pub observations: usize,
    /// Drift correction: arrival ρ̂ (deadline) or windowed acceptance
    /// ratio vs the current model (budget).
    pub correction: Option<f64>,
    /// First interval the live policy covers (deadline only).
    pub policy_start: Option<usize>,
    /// Cents spent so far (budget only).
    pub spent_cents: Option<usize>,
    /// Cumulative acceptance scale baked into the serving policy
    /// (budget only; 1.0 until the first recalibration).
    pub acceptance_shift: Option<f64>,
}

/// The concurrent campaign store: every in-process embedder, `ft-server`
/// and `ft-load` price campaigns through it.
pub struct CampaignRegistry {
    config: RegistryConfig,
    next_id: AtomicU64,
    store: ShardedStore,
    telemetry: RegistryTelemetry,
    /// The pmf-row store every solve and recalibration reads through,
    /// for the registry's whole lifetime (bounded; see
    /// [`SharedPmfCache`]).
    pmf_cache: Arc<SharedPmfCache>,
}

impl Default for CampaignRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl CampaignRegistry {
    pub fn new() -> Self {
        Self::with_registry_config(RegistryConfig::default())
    }

    /// Explicit kernel + deadline-recalibration configuration (e.g.
    /// [`KernelConfig::serial`] in latency-sensitive embedders, or a
    /// shorter `resolve_every` for aggressive recalibration). Other
    /// knobs (shards, budget drift) take their defaults; use
    /// [`CampaignRegistry::with_registry_config`] for full control.
    pub fn with_config(cfg: KernelConfig, adaptive: AdaptiveOptions) -> Self {
        Self::with_registry_config(RegistryConfig {
            kernel: cfg,
            adaptive,
            ..RegistryConfig::default()
        })
    }

    /// Full registry configuration (shards, kernel, drift policies).
    pub fn with_registry_config(config: RegistryConfig) -> Self {
        let telemetry = RegistryTelemetry::new(Arc::new(MetricsRegistry::new()));
        let pmf_cache = Arc::new(SharedPmfCache::with_hit_counter(Arc::clone(
            &telemetry.pmf_cache_hits,
        )));
        Self {
            store: ShardedStore::new(config.shards),
            config,
            next_id: AtomicU64::new(1),
            telemetry,
            pmf_cache,
        }
    }

    /// The shared observability plane this registry reports into.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        self.telemetry.metrics()
    }

    /// The registry's pre-resolved instruments.
    pub fn telemetry(&self) -> &RegistryTelemetry {
        &self.telemetry
    }

    /// The pmf-row cache this registry's solves share (its lookups and
    /// hits back the load harness's storm report).
    pub fn pmf_cache(&self) -> &Arc<SharedPmfCache> {
        &self.pmf_cache
    }

    /// Hand one solve or recalibration the registry's pmf-row cache.
    /// Takes no lock. The `core.service.batch_wait` span and the
    /// `ft_core_batched_solves_total` bump stay only because ftbench's
    /// per-layer list reads them; ROADMAP 2(a) drops both.
    fn admit(&self) -> &Arc<SharedPmfCache> {
        let _span = ft_trace::span("core.service.batch_wait");
        self.telemetry.batched_solves.inc();
        &self.pmf_cache
    }

    /// The registry's configuration (shards, kernel, drift policies).
    pub fn config(&self) -> &RegistryConfig {
        &self.config
    }

    /// Number of store shards (diagnostics).
    pub fn shards(&self) -> usize {
        self.store.n_shards()
    }

    pub(self) fn store(&self) -> &ShardedStore {
        &self.store
    }

    pub(self) fn next_id_value(&self) -> u64 {
        // ORDERING: Relaxed — `next_id` is only an id dispenser; ids
        // carry no payload, and record visibility is published through
        // the shard-map lock, not through this counter.
        self.next_id.load(Ordering::Relaxed)
    }

    pub(self) fn bump_next_id(&self, at_least: u64) {
        // ORDERING: Relaxed — see `next_id_value`; fetch_max keeps the
        // dispenser monotone under races, which is the only invariant.
        self.next_id.fetch_max(at_least, Ordering::Relaxed);
    }

    fn get(&self, id: CampaignId) -> Result<Arc<Campaign>> {
        self.store.get(id).ok_or(PricingError::UnknownCampaign(id))
    }

    /// Register a campaign as a draft; returns its fresh id.
    pub fn register(&self, spec: CampaignSpec) -> CampaignId {
        // ORDERING: Relaxed — uniqueness comes from the atomic RMW
        // itself; nothing is published through the counter (see
        // `next_id_value`).
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.insert_draft(id, spec);
        id
    }

    /// Register (or replace) a campaign under a caller-chosen id.
    pub fn register_at(&self, id: CampaignId, spec: CampaignSpec) {
        // Reserve the id *before* inserting, so a concurrent
        // auto-assigning `register` can't be handed the same id and
        // silently overwrite this record.
        self.bump_next_id(id + 1);
        self.insert_draft(id, spec);
    }

    fn insert_draft(&self, id: CampaignId, spec: CampaignSpec) {
        self.store.insert(id, Arc::new(Campaign::new(spec)));
    }

    /// Solve a draft campaign with the registry's full worker budget and
    /// publish generation 1. `Draft → Solving → Live`.
    pub fn solve(&self, id: CampaignId) -> Result<Arc<PolicyGeneration>> {
        let campaign = self.get(id)?;
        // Check-and-claim under the writer lock so concurrent solves
        // cannot both start.
        let spec = {
            let state = lock_state(&campaign);
            let status = campaign.status();
            if status != CampaignStatus::Draft {
                return Err(PricingError::NotServable {
                    id,
                    status: status.as_str(),
                });
            }
            campaign.transition(&state, CampaignStatus::Solving);
            state.spec.clone()
        };
        // The expensive part runs with no lock held at all.
        let started = Instant::now();
        let solved = self.solve_spec(&spec, self.admit());
        self.telemetry.solve_ns.record_duration(started.elapsed());
        let mut state = lock_state(&campaign);
        if campaign.status() != CampaignStatus::Solving {
            // Evicted while we were solving; drop the result.
            self.telemetry.solve_errors.inc();
            return Err(PricingError::NotServable {
                id,
                status: campaign.status().as_str(),
            });
        }
        match solved {
            Ok((engine, policy, start)) => {
                let _span = ft_trace::span("core.registry.publish");
                state.engine = Some(engine);
                campaign.publish(1, start, Arc::new(policy));
                campaign.transition(&state, CampaignStatus::Live);
                self.telemetry.solves.inc();
                self.telemetry.generation_swaps.inc();
                Ok(campaign.generation().expect("just published"))
            }
            Err(e) => {
                campaign.transition(&state, CampaignStatus::Draft);
                self.telemetry.solve_errors.inc();
                Err(e)
            }
        }
    }

    /// Solve a spec into its engine + first policy generation. Validates
    /// first and converts any residual solver panic into a structured
    /// error, so a bad spec can never wedge a campaign in `Solving`.
    fn solve_spec(
        &self,
        spec: &CampaignSpec,
        cache: &Arc<SharedPmfCache>,
    ) -> Result<(Box<dyn CampaignEngine>, CampaignPolicy, usize)> {
        spec.validate()?;
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.solve_spec_inner(spec, cache)
        }))
        .unwrap_or_else(|panic| {
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "solver panicked".into());
            Err(PricingError::SearchFailed(format!(
                "solver panicked: {msg}"
            )))
        })
    }

    fn solve_spec_inner(
        &self,
        spec: &CampaignSpec,
        cache: &Arc<SharedPmfCache>,
    ) -> Result<(Box<dyn CampaignEngine>, CampaignPolicy, usize)> {
        match spec {
            CampaignSpec::Deadline { problem, eps } => {
                let eps = eps.unwrap_or(DEFAULT_EPS);
                let trunc = TruncationTable::with_eps(problem, eps);
                let policy = solve_deadline_with_cache(
                    problem,
                    &trunc,
                    Sweep::MonotoneDivide,
                    &self.config.kernel,
                    Some(Arc::clone(cache)),
                )?;
                let pricer = AdaptivePricer::from_parts(
                    problem.clone(),
                    AdaptiveOptions {
                        truncation_eps: eps,
                        ..self.config.adaptive
                    },
                    Vec::new(),
                    1.0,
                    policy.clone(),
                    0,
                )?;
                let remaining = problem.n_tasks;
                Ok((
                    Box::new(DeadlineEngine {
                        pricer: Box::new(pricer),
                        remaining,
                    }),
                    CampaignPolicy::Deadline(policy),
                    0,
                ))
            }
            CampaignSpec::Budget { problem } => {
                let policy = solve_budget_mdp_with(problem, &self.config.kernel)?;
                let mut engine = BudgetEngine::new(problem.clone(), self.config.budget_drift);
                engine.remaining = problem.n_tasks;
                Ok((Box::new(engine), CampaignPolicy::Budget(policy), 0))
            }
        }
    }

    /// The reprice hot path: answer from the campaign's current policy
    /// generation. Never blocks on a solve — a concurrent recalibration
    /// keeps this answering from the previous generation until its one
    /// pointer swap.
    pub fn quote(&self, id: CampaignId, state: ObservedState) -> Result<PriceQuote> {
        let _span = ft_trace::span("core.registry.quote");
        self.telemetry.quotes.inc();
        let result = self.quote_inner(id, state);
        if result.is_err() {
            self.telemetry.quote_errors.inc();
        }
        result
    }

    /// [`CampaignRegistry::quote`] over a batch, resolving each unique
    /// campaign's handle + live generation **once** and pricing every
    /// state against the cached resolution — a batch quoting one
    /// campaign N times pays one store lookup, not N. Per-item results
    /// come back in input order; failures don't fail the batch, and
    /// telemetry counts each item exactly as `quote` would.
    pub fn quote_many(&self, batch: &[(CampaignId, ObservedState)]) -> Vec<Result<PriceQuote>> {
        let mut resolved: std::collections::HashMap<CampaignId, Result<Arc<PolicyGeneration>>> =
            std::collections::HashMap::new();
        batch
            .iter()
            .map(|&(id, state)| {
                let _span = ft_trace::span("core.registry.quote");
                self.telemetry.quotes.inc();
                let result = match resolved.entry(id).or_insert_with(|| self.resolve(id)) {
                    Ok(current) => Self::price_from(id, current, state),
                    Err(e) => Err(e.clone()),
                };
                if result.is_err() {
                    self.telemetry.quote_errors.inc();
                }
                result
            })
            .collect()
    }

    fn quote_inner(&self, id: CampaignId, state: ObservedState) -> Result<PriceQuote> {
        let current = self.resolve(id)?;
        Self::price_from(id, &current, state)
    }

    /// The servable policy generation for `id`.
    fn resolve(&self, id: CampaignId) -> Result<Arc<PolicyGeneration>> {
        let mut campaign = self.get(id)?;
        match campaign.generation() {
            Some(current) => Ok(current),
            None => {
                // A replacement (`restore_json`) retires the old record
                // under the shard write lock before swapping the new
                // one in; a reader that fetched the old handle just
                // before the swap re-fetches once and lands on the
                // replacement. A genuinely evicted/unsolved campaign
                // re-fetches the same record and errors.
                let fresh = self.get(id)?;
                let replaced = !Arc::ptr_eq(&fresh, &campaign);
                campaign = fresh;
                match campaign.generation() {
                    Some(current) if replaced => Ok(current),
                    _ => Err(PricingError::NotServable {
                        id,
                        status: campaign.status().as_str(),
                    }),
                }
            }
        }
    }

    /// Price one observed state against an already-resolved generation.
    fn price_from(
        id: CampaignId,
        current: &PolicyGeneration,
        state: ObservedState,
    ) -> Result<PriceQuote> {
        match (current.policy.as_ref(), state) {
            (
                CampaignPolicy::Deadline(p),
                ObservedState::Deadline {
                    remaining,
                    interval,
                },
            ) => {
                // The generation's tables cover intervals `start..`;
                // clamp onto them (PriceController clamps n and t).
                let rel = interval.saturating_sub(current.start);
                Ok(PriceQuote {
                    price: p.price(remaining, rel),
                    generation: current.generation,
                })
            }
            (
                CampaignPolicy::Budget(p),
                ObservedState::Budget {
                    remaining,
                    budget_cents,
                },
            ) => p
                // Off-table states answer from the nearest table edge.
                .price(
                    remaining.min(p.n_tasks()),
                    budget_cents.min(p.budget_cents()),
                )
                .map(|c| PriceQuote {
                    price: f64::from(c),
                    generation: current.generation,
                })
                .ok_or_else(|| {
                    PricingError::Infeasible(format!(
                        "campaign {id}: no feasible price with {remaining} tasks and \
                         {budget_cents} cents"
                    ))
                }),
            (policy, state) => Err(PricingError::StateKindMismatch {
                id,
                expected: policy.kind(),
                got: state.kind(),
            }),
        }
    }

    /// Report a completed interval (deadline) or batch progress (budget).
    ///
    /// The report is routed to the campaign's kind engine:
    /// deadline reports feed the [`AdaptivePricer`]'s arrival correction
    /// ρ̂ and re-solve the remaining horizon on the recalibration
    /// schedule; budget reports account progress and — when they carry
    /// exposure (`posted` + `offers`) — feed the acceptance-drift
    /// statistic, re-solving the remaining budget MDP when it crosses
    /// the configured threshold. Either way the new policy publishes as
    /// the next generation with one pointer swap; readers never block.
    pub fn observe(&self, id: CampaignId, obs: CampaignObservation) -> Result<ObserveOutcome> {
        let kind = obs.kind();
        let result = self.observe_inner(id, obs);
        self.count_observe(kind, &result);
        result
    }

    /// [`CampaignRegistry::observe`] over a batch, looking each unique
    /// campaign's record up **once** and applying every observation to
    /// the cached handle (in input order — a deadline campaign's
    /// interval reports stay ordered). Per-item failures don't fail
    /// the batch; telemetry counts each item exactly as `observe`
    /// would.
    pub fn observe_many(
        &self,
        batch: Vec<(CampaignId, CampaignObservation)>,
    ) -> Vec<Result<ObserveOutcome>> {
        let mut handles: std::collections::HashMap<CampaignId, Result<Arc<Campaign>>> =
            std::collections::HashMap::new();
        batch
            .into_iter()
            .map(|(id, obs)| {
                let kind = obs.kind();
                let result = match handles.entry(id).or_insert_with(|| self.get(id)) {
                    Ok(campaign) => self.observe_on(id, campaign, obs),
                    Err(e) => Err(e.clone()),
                };
                self.count_observe(kind, &result);
                result
            })
            .collect()
    }

    /// The per-item telemetry `observe` commits (shared with the bulk
    /// path so counters agree item-for-item).
    fn count_observe(&self, kind: &'static str, result: &Result<ObserveOutcome>) {
        match result {
            Ok(outcome) => {
                self.telemetry.observes.inc();
                if outcome.recalibrated {
                    self.telemetry.recalibrations.inc();
                    if kind == "budget" {
                        self.telemetry.recalibrations_budget.inc();
                    } else {
                        self.telemetry.recalibrations_deadline.inc();
                    }
                    self.telemetry.generation_swaps.inc();
                }
            }
            Err(_) => self.telemetry.observe_errors.inc(),
        }
    }

    fn observe_inner(&self, id: CampaignId, obs: CampaignObservation) -> Result<ObserveOutcome> {
        let campaign = self.get(id)?;
        self.observe_on(id, &campaign, obs)
    }

    /// Apply one observation to an already-resolved campaign record.
    fn observe_on(
        &self,
        id: CampaignId,
        campaign: &Arc<Campaign>,
        obs: CampaignObservation,
    ) -> Result<ObserveOutcome> {
        let _span = ft_trace::span("core.registry.observe");
        let mut state = lock_state(campaign);
        let status = campaign.status();
        if !matches!(
            status,
            CampaignStatus::Live | CampaignStatus::Recalibrating | CampaignStatus::Exhausted
        ) {
            return Err(PricingError::NotServable {
                id,
                status: status.as_str(),
            });
        }
        let expected = state.kind();
        if expected != obs.kind() {
            return Err(PricingError::StateKindMismatch {
                id,
                expected,
                got: obs.kind(),
            });
        }
        let effect = {
            let _span = ft_trace::span("core.engine.observe");
            state
                .engine
                .as_mut()
                .expect("kind-checked engines exist")
                .observe(id, &obs)?
        };

        // Recalibrate when the engine asks: solve start to finish under
        // this campaign's writer lock (and no other), then swap the
        // generation.
        let mut recalibrated = false;
        if effect.recalibrate {
            campaign.transition(&state, CampaignStatus::Recalibrating);
            let cache = self.admit();
            let solved = {
                let _span = ft_trace::span("core.registry.recalibrate");
                state
                    .engine
                    .as_mut()
                    .expect("kind-checked engines exist")
                    .solve(&self.config.kernel, cache)
            };
            match solved {
                Ok(Some((policy, start))) => {
                    let _span = ft_trace::span("core.registry.publish");
                    let prev = campaign
                        .generation()
                        .expect("live campaign has a generation");
                    campaign.publish(prev.generation + 1, start, Arc::new(policy));
                    recalibrated = true;
                }
                Ok(None) => {}
                Err(_) => {
                    // Failed re-solve (e.g. infeasible remainder): the
                    // previous generation keeps serving.
                    self.telemetry.solve_errors.inc();
                }
            }
        }
        campaign.transition(
            &state,
            if effect.exhausted {
                CampaignStatus::Exhausted
            } else {
                CampaignStatus::Live
            },
        );
        let generation = campaign
            .generation()
            .expect("live campaign has a generation")
            .generation;
        Ok(ObserveOutcome {
            status: campaign.status(),
            generation,
            correction: effect.correction,
            recalibrated,
            remaining: effect.remaining,
        })
    }

    /// Status + diagnostics for one campaign.
    pub fn report(&self, id: CampaignId) -> Result<CampaignReport> {
        let campaign = self.get(id)?;
        let state = lock_state(&campaign);
        let generation = campaign.generation().map_or(0, |g| g.generation);
        let (n_tasks, kind) = match &state.spec {
            CampaignSpec::Deadline { problem, .. } => (problem.n_tasks, "deadline"),
            CampaignSpec::Budget { problem } => (problem.n_tasks, "budget"),
        };
        let mut report = CampaignReport {
            id,
            kind: kind.to_string(),
            status: campaign.status(),
            generation,
            n_tasks,
            remaining: None,
            observations: 0,
            correction: None,
            policy_start: None,
            spent_cents: None,
            acceptance_shift: None,
        };
        if let Some(engine) = state.engine.as_deref() {
            engine.report(&mut report);
        }
        Ok(report)
    }

    /// The campaign's current policy generation, if solved.
    pub fn generation(&self, id: CampaignId) -> Option<Arc<PolicyGeneration>> {
        self.get(id).ok().and_then(|c| c.generation())
    }

    /// Evict a campaign: drop its policy and machinery, keep a tombstone
    /// record (its spec stays readable through [`CampaignRegistry::report`]
    /// and snapshots). Returns whether a non-evicted campaign existed.
    ///
    /// Tombstones accumulate; long-running embedders with heavy
    /// register/evict churn should follow up with
    /// [`CampaignRegistry::purge`] once the id no longer needs to
    /// answer status queries.
    pub fn evict(&self, id: CampaignId) -> bool {
        let Ok(campaign) = self.get(id) else {
            return false;
        };
        let mut state = lock_state(&campaign);
        if campaign.status() == CampaignStatus::Evicted {
            return false;
        }
        state.engine = None;
        *campaign
            .live
            .write()
            .expect("campaign generation lock poisoned") = None;
        campaign.transition(&state, CampaignStatus::Evicted);
        true
    }

    /// Remove a campaign record entirely — no tombstone, its id stops
    /// answering status queries (404 over HTTP) and disappears from
    /// snapshots. Returns whether a record existed.
    pub fn purge(&self, id: CampaignId) -> bool {
        self.store.remove(id)
    }

    /// All registered campaign ids (ascending; includes tombstones).
    pub fn ids(&self) -> Vec<CampaignId> {
        let mut ids = self.store.ids();
        ids.sort_unstable();
        ids
    }

    /// Number of non-evicted campaigns (one walk over the shard maps).
    pub fn len(&self) -> usize {
        self.store.len_serving()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Campaign counts bucketed by lifecycle status, in enum order —
    /// the `/healthz` fleet summary. Tallied over each shard's records
    /// under that shard's read lock, one shard at a time.
    pub fn status_counts(&self) -> [(CampaignStatus, usize); 6] {
        self.store.status_counts()
    }

    /// Total records, tombstones included — always consistent with the
    /// sum of [`CampaignRegistry::status_counts`] and, at quiescence,
    /// with `ids().len()`.
    pub fn total_records(&self) -> usize {
        self.store.total_records()
    }
}

#[cfg(test)]
mod tests;
