//! # ft-core
//!
//! The primary contribution of *"Finish Them!: Pricing Algorithms for Human
//! Computation"* (Gao & Parameswaran, VLDB 2014): algorithms that set and
//! vary crowd-task prices to meet a deadline at minimum cost, or a budget
//! at minimum latency.
//!
//! ## Fixed deadline (Section 3)
//!
//! Build a [`problem::DeadlineProblem`] (tasks, per-interval arrival
//! masses, price actions, terminal penalty) and solve it:
//!
//! - [`dp::solve_simple`] — Algorithm 1, exact.
//! - [`dp::solve_truncated`] — + Poisson tail truncation (Theorem 1).
//! - [`dp::solve_efficient`] — Algorithm 2 divide-and-conquer
//!   (Conjecture 1 monotonicity).
//! - [`calibrate::calibrate_penalty`] — Theorem 2: turn an
//!   expected-remaining bound into the equivalent penalty.
//!
//! The result is a [`policy::DeadlinePolicy`]: a price for every
//! `(remaining tasks, interval)` state, exact evaluation via forward
//! distribution propagation (also under mis-specified dynamics), and a
//! [`policy::PriceController`] implementation for simulation.
//!
//! ## Fixed budget (Section 4)
//!
//! Build a [`budget::BudgetProblem`] and solve with
//! [`budget::solve_budget_hull`] (Algorithm 3, near-optimal via the lower
//! convex hull of `(c, 1/p(c))`) or [`budget::solve_budget_exact`]
//! (Theorem 6 pseudo-polynomial DP).
//!
//! ## Baseline & extensions
//!
//! [`baseline`] implements Faridani et al.'s binary-search fixed pricing;
//! [`extensions`] covers Section 6 (multiple task types, cost/latency
//! tradeoff, majority-vote quality control).

//! ## Kernel & registry (post-paper layers)
//!
//! All five solvers above run on one shared engine, [`kernel`]: a flat
//! value-table arena, a Poisson transition cache, and a backward-
//! induction driver parallelized across each layer's state axis on the
//! workspace `ft-exec` pool. [`registry::CampaignRegistry`] sits on top:
//! campaigns are versioned lifecycle records (`Draft → Solving → Live →
//! Recalibrating → Exhausted/Evicted`) whose policy generations are
//! swapped atomically on live recalibration ([`adaptive`]) and persisted
//! as JSON snapshots. Its `quote(campaign, observed_state)` is the
//! constant-time reprice hot path, `solve_many` solves a batch of
//! drafts concurrently, and the `ft-server` crate serves the registry
//! over HTTP. See `ARCHITECTURE.md` at the workspace root.

pub mod actions;
pub mod adaptive;
pub mod baseline;
pub mod budget;
pub mod calibrate;
pub mod dp;
pub mod error;
pub mod extensions;
pub mod kernel;
pub mod lockcheck;
pub mod penalty;
pub mod policy;
pub mod problem;
pub mod registry;
pub mod scheduler;
pub mod telemetry;
pub mod testkit;

pub use actions::{ActionSet, PriceAction};
pub use adaptive::{AdaptiveOptions, AdaptivePricer};
pub use baseline::{solve_fixed_price, FixedPriceSolution};
pub use budget::{
    solve_budget_exact, solve_budget_hull, solve_budget_mdp, BudgetProblem, StaticStrategy,
};
pub use calibrate::{calibrate_penalty, CalibrateOptions, CalibratedPolicy};
pub use dp::{solve_efficient, solve_simple, solve_truncated};
pub use error::{CampaignId, PricingError, Result};
pub use kernel::{KernelConfig, Sweep};
pub use penalty::PenaltyModel;
pub use policy::{DeadlinePolicy, ExactOutcome, FixedPrice, PriceController};
pub use problem::DeadlineProblem;
pub use registry::{
    BudgetDriftOptions, CampaignObservation, CampaignPolicy, CampaignRegistry, CampaignReport,
    CampaignSpec, CampaignStatus, ObserveOutcome, ObservedState, PolicyGeneration, PriceQuote,
    RegistryConfig,
};
pub use scheduler::{SchedulerStats, SolveContext, SolveScheduler, WaveStats, WaveTicket};
