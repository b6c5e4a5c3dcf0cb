//! Kind-polymorphic campaign engines.
//!
//! The registry used to hard-code deadline/budget behavior as match
//! arms over an `Engine` enum scattered through a 2,000-line file. A
//! campaign's per-kind machinery is now a [`CampaignEngine`] object the
//! registry drives through a small writer-side protocol:
//!
//! - [`CampaignEngine::observe`] applies one validated progress report
//!   and updates the engine's drift statistics;
//! - [`CampaignEngine::should_recalibrate`] says whether those
//!   statistics (plus the kind's cadence rules) warrant a re-solve now;
//! - [`CampaignEngine::solve`] runs that re-solve and hands back the
//!   policy for the next generation (the registry publishes it with the
//!   usual single pointer swap);
//! - [`CampaignEngine::snapshot`] persists the engine for the versioned
//!   registry snapshot.
//!
//! Two implementations ship:
//!
//! - [`DeadlineEngine`] wraps the Section 5.2.5 [`AdaptivePricer`]:
//!   arrival-rate correction ρ̂ and remaining-horizon re-solves
//!   (unchanged behavior, now behind the trait).
//! - [`BudgetEngine`] implements the ROADMAP's open item: budget
//!   campaigns historically never recalibrated because their MDP table
//!   answers every `(remaining, budget)` state — but that table is only
//!   optimal for the *trained* acceptance curve `p(c)`. The engine
//!   tracks a windowed acceptance correction from observation reports
//!   that carry exposure (`offers` + `posted`): observed completions
//!   over `offers × p̂(posted)`. When the correction drifts past a
//!   threshold it re-solves the MDP on the remaining tasks and unspent
//!   budget with the acceptance curve *shifted in logit space* (see
//!   [`BudgetDriftOptions`] for why a shift and not a scale), and the
//!   registry publishes the result as a new generation exactly like a
//!   deadline recalibration.

use super::snapshot::PersistedEngine;
use super::{CampaignObservation, CampaignPolicy, CampaignReport};
use crate::actions::ActionSet;
use crate::adaptive::AdaptivePricer;
use crate::budget::{solve_budget_mdp_with, BudgetProblem};
use crate::error::{CampaignId, PricingError, Result};
use crate::kernel::{KernelConfig, SharedPmfCache};
use crate::policy::PriceController;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// What an observation did, engine-side. The registry turns this into
/// status transitions and (maybe) a recalibration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) struct ObserveEffect {
    /// Drift-correction ratio after this report (arrival-level ρ̂ for
    /// deadline campaigns, acceptance-level for budget campaigns).
    pub correction: f64,
    /// Registry-tracked remaining tasks after the report.
    pub remaining: u32,
    /// The campaign is done (no tasks left / horizon passed).
    pub exhausted: bool,
    /// The engine wants [`CampaignEngine::solve`] run now.
    pub recalibrate: bool,
}

/// Per-kind live machinery behind a campaign's writer lock.
pub(super) trait CampaignEngine: Send {
    /// `"deadline"` / `"budget"` — must match the observation kinds.
    fn kind(&self) -> &'static str;

    /// Apply one progress report. Validates before mutating anything
    /// (a rejected report must leave the engine untouched).
    fn observe(&mut self, id: CampaignId, obs: &CampaignObservation) -> Result<ObserveEffect>;

    /// Whether the drift statistics plus the kind's cadence warrant a
    /// re-solve now.
    fn should_recalibrate(&self) -> bool;

    /// Run the recalibration re-solve. `Ok(Some((policy, start)))`
    /// hands the registry the next generation's policy; `Ok(None)`
    /// means nothing to do; `Err` keeps the previous generation
    /// serving. `kernel` is the registry's kernel config and `cache` its
    /// pmf-row cache (sharing rows is bitwise-invisible to the result).
    fn solve(
        &mut self,
        kernel: &KernelConfig,
        cache: &Arc<SharedPmfCache>,
    ) -> Result<Option<(CampaignPolicy, usize)>>;

    /// Fill per-kind diagnostics into a status report.
    fn report(&self, report: &mut CampaignReport);

    /// Persist for the registry snapshot. `current` is the campaign's
    /// live generation (budget engines store their policy there).
    fn snapshot(&self, id: CampaignId, current: Option<&CampaignPolicy>)
        -> Result<PersistedEngine>;
}

// ---- deadline --------------------------------------------------------

/// Deadline campaigns: the [`AdaptivePricer`] behind the trait.
pub(super) struct DeadlineEngine {
    /// Boxed: the pricer (problem + history + policy tables) dwarfs the
    /// registry's other per-campaign state.
    pub pricer: Box<AdaptivePricer>,
    pub remaining: u32,
}

impl CampaignEngine for DeadlineEngine {
    fn kind(&self) -> &'static str {
        "deadline"
    }

    fn observe(&mut self, id: CampaignId, obs: &CampaignObservation) -> Result<ObserveEffect> {
        let CampaignObservation::Deadline {
            interval,
            completions,
            posted,
        } = *obs
        else {
            unreachable!("registry checked the observation kind");
        };
        let pricer = &mut self.pricer;
        if interval < pricer.observations() {
            return Err(PricingError::InvalidProblem(format!(
                "campaign {id}: interval {interval} already observed (next is {})",
                pricer.observations()
            )));
        }
        if interval >= pricer.problem().n_intervals() {
            return Err(PricingError::InvalidProblem(format!(
                "campaign {id}: interval {interval} past the {}-interval horizon",
                pricer.problem().n_intervals()
            )));
        }
        let posted = posted.unwrap_or_else(|| {
            let rel = interval.saturating_sub(pricer.policy_start());
            pricer.policy().price(self.remaining, rel)
        });
        // Validate the report *before* mutating history: a rejected
        // observation must leave the campaign exactly as it was (no
        // phantom censored intervals).
        pricer.validate_posted(posted)?;
        // Unreported intervals carry no signal.
        while pricer.observations() < interval {
            pricer.observe_censored();
        }
        pricer.try_observe(posted, completions)?;
        self.remaining = self
            .remaining
            .saturating_sub(completions.min(u64::from(u32::MAX)) as u32);
        let exhausted =
            self.remaining == 0 || pricer.observations() >= pricer.problem().n_intervals();
        Ok(ObserveEffect {
            correction: pricer.correction(),
            remaining: self.remaining,
            exhausted,
            recalibrate: !exhausted && self.should_recalibrate(),
        })
    }

    fn should_recalibrate(&self) -> bool {
        // The AdaptivePricer's own schedule: the next interval to price
        // is `resolve_every` or more past the active policy's start.
        let t = self.pricer.observations();
        t < self.pricer.problem().n_intervals()
            && t >= self.pricer.policy_start()
            && t - self.pricer.policy_start() >= self.pricer.options().resolve_every
    }

    fn solve(
        &mut self,
        kernel: &KernelConfig,
        cache: &Arc<SharedPmfCache>,
    ) -> Result<Option<(CampaignPolicy, usize)>> {
        // The pricer re-solves the remaining horizon with corrected
        // arrivals on the registry's kernel budget; `false` means the
        // inner solve failed (or there was nothing to do) and the
        // previous policy stays. Pmf rows are resolved through the
        // registry's cache.
        if self.pricer.maybe_resolve_with(kernel, Some(cache)) {
            Ok(Some((
                CampaignPolicy::Deadline(self.pricer.policy().clone()),
                self.pricer.policy_start(),
            )))
        } else {
            Ok(None)
        }
    }

    fn report(&self, report: &mut CampaignReport) {
        report.remaining = Some(self.remaining);
        report.observations = self.pricer.observations();
        report.correction = Some(self.pricer.correction());
        report.policy_start = Some(self.pricer.policy_start());
    }

    fn snapshot(
        &self,
        _id: CampaignId,
        _current: Option<&CampaignPolicy>,
    ) -> Result<PersistedEngine> {
        Ok(PersistedEngine::Deadline {
            opts: *self.pricer.options(),
            history: self.pricer.history().to_vec(),
            correction: self.pricer.correction(),
            policy: self.pricer.policy().clone(),
            policy_start: self.pricer.policy_start(),
            remaining: self.remaining,
        })
    }
}

// ---- budget ----------------------------------------------------------

/// Drift policy for budget campaigns (the budget twin of
/// [`crate::adaptive::AdaptiveOptions`]).
///
/// Why a *logit shift* and not a scale factor: uniformly scaling every
/// acceptance `p(c) → s·p(c)` scales the MDP value function by `1/s`
/// but leaves every argmin — every price — unchanged (the Theorems 3–5
/// structure: the objective is `Σ 1/p(cᵢ)`), so a scale-based re-solve
/// would be a no-op policy-wise. A shift `δ` in logit space,
/// `p'(c) = σ(σ⁻¹(p(c)) + δ)`, is the one-parameter drift of the
/// paper's own Eq. 3 acceptance model (a horizontal shift of the
/// worker valuation distribution): it is exactly identifiable from
/// observed acceptance at a single posted price, preserves
/// monotonicity in the reward, and *changes the curve's shape* — so
/// the re-solved prices genuinely move.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct BudgetDriftOptions {
    /// Sliding window length in observation reports (only reports
    /// carrying exposure count).
    pub window: usize,
    /// Minimum signal-carrying reports between re-solve attempts.
    pub resolve_every: usize,
    /// `|ρ̂ − 1|` (windowed observed/expected completions vs the
    /// current model) beyond which the engine asks for a re-solve.
    pub threshold: f64,
    /// Clamp on the cumulative logit shift (guards early-window noise
    /// and degenerate 0-completion windows).
    pub max_shift: f64,
    /// Minimum expected-completions mass in the window before ρ̂ is
    /// trusted (near-zero acceptance carries no signal).
    pub min_expected: f64,
}

impl Default for BudgetDriftOptions {
    fn default() -> Self {
        Self {
            window: 8,
            resolve_every: 2,
            threshold: 0.2,
            max_shift: 3.0,
            min_expected: 1.0,
        }
    }
}

impl BudgetDriftOptions {
    /// Structural validation (deserialized options bypass any
    /// constructor; a corrupted snapshot must error, not panic in
    /// `clamp`).
    pub fn validate(&self) -> Result<()> {
        if self.window < 1 || self.resolve_every < 1 {
            return Err(PricingError::InvalidProblem(
                "budget drift window and resolve period must be at least 1".into(),
            ));
        }
        if !(self.max_shift > 0.0 && self.max_shift.is_finite()) {
            return Err(PricingError::InvalidProblem(format!(
                "budget drift max_shift {} must be positive",
                self.max_shift
            )));
        }
        if !(self.threshold > 0.0 && self.threshold.is_finite()) {
            return Err(PricingError::InvalidProblem(format!(
                "budget drift threshold {} must be positive",
                self.threshold
            )));
        }
        if !(self.min_expected >= 0.0 && self.min_expected.is_finite()) {
            return Err(PricingError::InvalidProblem(format!(
                "budget drift min_expected {} must be finite and ≥ 0",
                self.min_expected
            )));
        }
        Ok(())
    }
}

/// Probabilities clamp into `[ε, 1−ε]` before the logit transform so
/// degenerate acceptances (0, 1) stay finite.
const LOGIT_EPS: f64 = 1e-4;

fn logit(p: f64) -> f64 {
    let p = p.clamp(LOGIT_EPS, 1.0 - LOGIT_EPS);
    (p / (1.0 - p)).ln()
}

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

/// `p` shifted by `delta` in logit space.
fn shift_accept(p: f64, delta: f64) -> f64 {
    sigmoid(logit(p) + delta)
}

/// Budget campaigns: progress accounting plus the acceptance-drift
/// recalibrator.
pub(super) struct BudgetEngine {
    /// The trained problem (original batch, budget and acceptance
    /// curve) — the fixed reference everything else is relative to.
    problem: BudgetProblem,
    opts: BudgetDriftOptions,
    pub remaining: u32,
    pub spent_cents: usize,
    pub observations: usize,
    /// Cumulative logit shift already baked into the serving policy
    /// (0.0 until the first recalibration).
    shift: f64,
    /// `(model_accept, offers, completions)` per exposure-carrying
    /// report, newest last, capped at `opts.window`. `model_accept` is
    /// the acceptance the *current* model (trained + shift) predicted
    /// at the posted price.
    history: Vec<(f64, u64, u64)>,
    /// Windowed observed/expected completions vs the current model.
    correction: f64,
    /// Signal-carrying reports since the last re-solve attempt.
    reports_since_resolve: usize,
}

impl BudgetEngine {
    pub fn new(problem: BudgetProblem, opts: BudgetDriftOptions) -> Self {
        Self {
            problem,
            opts,
            remaining: 0,
            spent_cents: 0,
            observations: 0,
            shift: 0.0,
            history: Vec::new(),
            correction: 1.0,
            reports_since_resolve: 0,
        }
    }

    /// Rebuild from persisted state (the snapshot-restore path).
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts(
        problem: BudgetProblem,
        opts: BudgetDriftOptions,
        remaining: u32,
        spent_cents: usize,
        observations: usize,
        shift: f64,
        history: Vec<(f64, u64, u64)>,
        correction: f64,
        reports_since_resolve: usize,
    ) -> Result<Self> {
        opts.validate()?;
        if !shift.is_finite() {
            return Err(PricingError::InvalidProblem(format!(
                "acceptance shift {shift} is not finite"
            )));
        }
        if !correction.is_finite() {
            return Err(PricingError::InvalidProblem(format!(
                "acceptance correction {correction} is not finite"
            )));
        }
        let mut engine = Self {
            problem,
            opts,
            remaining,
            spent_cents,
            observations,
            shift: shift.clamp(-opts.max_shift, opts.max_shift),
            history,
            correction: 1.0,
            reports_since_resolve,
        };
        // History is newest-last (the live path evicts from the front),
        // so a narrower restore window must keep the newest entries.
        let excess = engine.history.len().saturating_sub(engine.opts.window);
        engine.history.drain(..excess);
        engine.correction = engine.windowed_correction().unwrap_or(correction);
        Ok(engine)
    }

    /// The current acceptance model at one trained action: `p(c)`
    /// shifted by the cumulative logit shift.
    fn model_accept(&self, action_index: usize) -> f64 {
        shift_accept(self.problem.actions.get(action_index).accept, self.shift)
    }

    /// Unspent cents against the trained budget.
    fn budget_left(&self) -> usize {
        (self.problem.budget.floor() as usize).saturating_sub(self.spent_cents)
    }

    /// Windowed observed/expected; `None` while the window lacks mass.
    fn windowed_correction(&self) -> Option<f64> {
        let mut expected = 0.0;
        let mut observed = 0.0;
        for &(p, offers, completions) in &self.history {
            expected += p * offers as f64;
            observed += completions as f64;
        }
        (expected >= self.opts.min_expected).then(|| observed / expected)
    }

    /// The additional logit shift the window estimates: the
    /// offers-weighted mean of per-report `σ⁻¹(observed acceptance) −
    /// σ⁻¹(model acceptance)` — zero without signal.
    fn windowed_shift(&self) -> f64 {
        let mut weighted = 0.0;
        let mut weight = 0.0;
        for &(p, offers, completions) in &self.history {
            if offers == 0 {
                continue;
            }
            let observed = completions as f64 / offers as f64;
            weighted += offers as f64 * (logit(observed) - logit(p));
            weight += offers as f64;
        }
        if weight > 0.0 {
            weighted / weight
        } else {
            0.0
        }
    }

    /// The cumulative shift the next re-solve would bake in.
    fn next_shift(&self) -> f64 {
        (self.shift + self.windowed_shift()).clamp(-self.opts.max_shift, self.opts.max_shift)
    }

    /// Whether the windowed correction has drifted past the threshold
    /// on a campaign that still has work left.
    fn drifted(&self) -> bool {
        self.remaining > 0 && (self.correction - 1.0).abs() > self.opts.threshold
    }

    /// The trained action set with every acceptance shifted by `delta`
    /// in logit space (a monotone transform — the non-decreasing-in-
    /// reward invariant survives).
    fn shifted_actions(&self, delta: f64) -> ActionSet {
        let mut actions = self.problem.actions.clone();
        actions.map_accept(|p| shift_accept(p, delta));
        actions
    }
}

impl CampaignEngine for BudgetEngine {
    fn kind(&self) -> &'static str {
        "budget"
    }

    fn observe(&mut self, id: CampaignId, obs: &CampaignObservation) -> Result<ObserveEffect> {
        let CampaignObservation::Budget {
            completions,
            spent_cents: spent,
            posted,
            offers,
        } = *obs
        else {
            unreachable!("registry checked the observation kind");
        };
        // Validate the exposure fields *before* mutating anything. A
        // posted price is validated whenever present — a report with a
        // bad price must be a structured 400 even when it carries no
        // offers (and thus no drift signal).
        let posted_idx = match posted {
            None => None,
            Some(posted) => {
                if !posted.is_finite() {
                    return Err(PricingError::InvalidProblem(format!(
                        "campaign {id}: posted reward {posted} is not finite"
                    )));
                }
                Some(
                    self.problem
                        .actions
                        .index_of_reward(posted)
                        .ok_or_else(|| {
                            PricingError::InvalidProblem(format!(
                                "campaign {id}: posted reward {posted} not in the action set"
                            ))
                        })?,
                )
            }
        };
        let signal = match (offers, posted_idx) {
            (None, _) => None,
            (Some(_), None) => {
                return Err(PricingError::InvalidProblem(format!(
                    "campaign {id}: `offers` reported without `posted_cents` — exposure is \
                     meaningless without the price it was exposed to"
                )))
            }
            (Some(offers), Some(idx)) => {
                if completions > offers {
                    return Err(PricingError::InvalidProblem(format!(
                        "campaign {id}: {completions} completions out of {offers} offers"
                    )));
                }
                Some((offers, idx))
            }
        };
        self.remaining = self
            .remaining
            .saturating_sub(completions.min(u64::from(u32::MAX)) as u32);
        // Untrusted input: saturate, and cap the accumulator at the
        // f64-exact integer range so snapshots/report JSON stay
        // lossless.
        const MAX_SPENT: usize = (1 << 53) - 1;
        self.spent_cents = self.spent_cents.saturating_add(spent).min(MAX_SPENT);
        self.observations += 1;
        if let Some((offers, idx)) = signal {
            if offers > 0 {
                self.history
                    .push((self.model_accept(idx), offers, completions));
                if self.history.len() > self.opts.window {
                    self.history.remove(0);
                }
                if let Some(ratio) = self.windowed_correction() {
                    self.correction = ratio;
                }
                self.reports_since_resolve += 1;
            }
        }
        let exhausted = self.remaining == 0;
        Ok(ObserveEffect {
            correction: self.correction,
            remaining: self.remaining,
            exhausted,
            recalibrate: !exhausted && self.should_recalibrate(),
        })
    }

    fn should_recalibrate(&self) -> bool {
        self.drifted() && self.reports_since_resolve >= self.opts.resolve_every
    }

    fn solve(
        &mut self,
        kernel: &KernelConfig,
        _cache: &Arc<SharedPmfCache>,
    ) -> Result<Option<(CampaignPolicy, usize)>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        // One attempt per cadence window, success or not — an
        // infeasible remainder must not re-run the check on every
        // subsequent report.
        self.reports_since_resolve = 0;
        let shift = self.next_shift();
        let sub = BudgetProblem::new(
            self.remaining,
            self.budget_left() as f64,
            self.shifted_actions(shift),
            self.problem.mean_rate,
        );
        let policy = solve_budget_mdp_with(&sub, kernel)?;
        // Adopt the shifted curve as the new reference model: ρ̂ is
        // always measured against what the serving policy assumes.
        self.shift = shift;
        self.history.clear();
        self.correction = 1.0;
        Ok(Some((CampaignPolicy::Budget(policy), 0)))
    }

    fn report(&self, report: &mut CampaignReport) {
        report.remaining = Some(self.remaining);
        report.observations = self.observations;
        report.spent_cents = Some(self.spent_cents);
        report.correction = Some(self.correction);
        report.acceptance_shift = Some(self.shift);
    }

    fn snapshot(
        &self,
        id: CampaignId,
        current: Option<&CampaignPolicy>,
    ) -> Result<PersistedEngine> {
        let Some(CampaignPolicy::Budget(policy)) = current else {
            return Err(PricingError::InvalidProblem(format!(
                "campaign {id}: budget engine without a budget policy generation"
            )));
        };
        Ok(PersistedEngine::Budget {
            policy: policy.clone(),
            remaining: self.remaining,
            spent_cents: self.spent_cents,
            observations: self.observations,
            shift: self.shift,
            history: self.history.clone(),
            correction: self.correction,
            reports_since_resolve: self.reports_since_resolve,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::tiny_budget_problem;

    /// Restoring under a narrower window must keep the NEWEST reports —
    /// history is newest-last and the live path evicts from the front
    /// (regression: `Vec::truncate` kept the oldest instead).
    #[test]
    fn from_parts_narrow_window_keeps_newest_history() {
        let opts = BudgetDriftOptions {
            window: 2,
            ..BudgetDriftOptions::default()
        };
        // Oldest two reports show collapse (20/0.9·20 ≈ 0 observed),
        // newest two are on-model — a keep-newest restore must read
        // correction ≈ 1, a keep-oldest one would read ≈ 0.
        let history = vec![(0.9, 20, 0), (0.9, 20, 0), (0.9, 20, 18), (0.9, 20, 18)];
        let engine =
            BudgetEngine::from_parts(tiny_budget_problem(), opts, 10, 0, 4, 0.0, history, 0.5, 0)
                .unwrap();
        assert_eq!(engine.history.len(), 2);
        assert!(
            (engine.correction - 1.0).abs() <= 1e-12,
            "restore kept the wrong window end: correction {}",
            engine.correction
        );
    }
}
