//! Adaptive arrival-rate correction — the future work the paper sketches
//! in Section 5.2.5: *"adaptive prediction techniques such as predicting
//! the arrival-rate in next few hours based on arrival rate in last few
//! hours could be useful"* for days (like their Jan 1) whose traffic
//! deviates consistently from the trained profile.
//!
//! [`AdaptivePricer`] wraps a [`DeadlineProblem`]: after each interval it
//! compares the *observed* completions against the trained model's
//! expectation at the posted price, maintains a windowed correction ratio
//! ρ̂, and periodically re-solves the remaining-horizon MDP with the
//! trained arrival masses scaled by ρ̂. Every solve — the initial one and
//! each re-solve — runs the paper's fast solver: Algorithm 2
//! ([`Sweep::MonotoneDivide`]) over Poisson-truncated transitions
//! (Section 3.2). Because completions are a thinned
//! view of arrivals, the ratio estimates the arrival-level deviation as
//! long as `p(c)` itself is trusted (mis-specified `p` is the Fig. 9
//! axis, handled by the base policy's own feedback).

use crate::error::{PricingError, Result};
use crate::kernel::deadline::solve_deadline_with_cache;
use crate::kernel::{KernelConfig, SharedPmfCache, Sweep, TruncationTable};
use crate::policy::{DeadlinePolicy, PriceController};
use crate::problem::DeadlineProblem;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Largest corrected interval mass a re-solve may use: 2⁵³, the last
/// point at which every integer truncation point is an exact f64.
const MAX_CORRECTED_ARRIVALS: f64 = 9_007_199_254_740_992.0;

/// Options for the adaptive pricer.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct AdaptiveOptions {
    /// Sliding window length in intervals.
    pub window: usize,
    /// Re-solve the remaining-horizon MDP every this many intervals.
    pub resolve_every: usize,
    /// Clamp for the correction ratio (guards early-window noise).
    pub min_correction: f64,
    pub max_correction: f64,
    /// Poisson truncation ε for the inner solves.
    pub truncation_eps: f64,
}

impl Default for AdaptiveOptions {
    fn default() -> Self {
        Self {
            window: 9, // three hours of 20-minute intervals
            resolve_every: 3,
            min_correction: 0.25,
            max_correction: 4.0,
            truncation_eps: 1e-8,
        }
    }
}

/// A stateful controller: price queries plus completion observations.
#[derive(Debug, Clone)]
pub struct AdaptivePricer {
    problem: DeadlineProblem,
    opts: AdaptiveOptions,
    /// `(expected_completion_mean, observed_completions)` per past interval.
    history: Vec<(f64, u64)>,
    /// Policy for the suffix starting at `policy_start`.
    policy: DeadlinePolicy,
    policy_start: usize,
    correction: f64,
}

impl AdaptivePricer {
    pub fn new(problem: DeadlineProblem, opts: AdaptiveOptions) -> Result<Self> {
        assert!(opts.window >= 1, "window must be at least 1");
        assert!(opts.resolve_every >= 1, "resolve period must be at least 1");
        assert!(
            opts.min_correction > 0.0 && opts.max_correction >= opts.min_correction,
            "invalid correction clamp"
        );
        let policy = solve_policy(
            &problem,
            opts.truncation_eps,
            &KernelConfig::default(),
            None,
        )?;
        Ok(Self {
            problem,
            opts,
            history: Vec::new(),
            policy,
            policy_start: 0,
            correction: 1.0,
        })
    }

    /// Rebuild a pricer from persisted state without re-solving — the
    /// snapshot-restore path of the campaign registry. The `policy` must
    /// cover intervals `policy_start..` of `problem` (i.e. be a solve of
    /// the remaining-horizon sub-problem).
    pub fn from_parts(
        problem: DeadlineProblem,
        opts: AdaptiveOptions,
        history: Vec<(f64, u64)>,
        correction: f64,
        policy: DeadlinePolicy,
        policy_start: usize,
    ) -> Result<Self> {
        // Deserialized options bypass `new`'s asserts; a corrupted
        // snapshot must surface as a structured error, not a panic
        // (f64::clamp below panics outright when min > max).
        if opts.window < 1 || opts.resolve_every < 1 {
            return Err(PricingError::InvalidProblem(
                "window and resolve period must be at least 1".into(),
            ));
        }
        if !(opts.min_correction > 0.0
            && opts.min_correction.is_finite()
            && opts.max_correction >= opts.min_correction
            && opts.max_correction.is_finite())
        {
            return Err(PricingError::InvalidProblem(format!(
                "invalid correction clamp [{}, {}]",
                opts.min_correction, opts.max_correction
            )));
        }
        // A re-solve scales each interval's mass by up to
        // `max_correction`; past 2⁵³ no f64 holds its truncation point
        // exactly, and far past it the truncation search refuses it.
        let peak = problem
            .interval_arrivals
            .iter()
            .fold(0.0, |m: f64, &l| m.max(l));
        if peak * opts.max_correction > MAX_CORRECTED_ARRIVALS {
            return Err(PricingError::InvalidProblem(format!(
                "max correction {} takes interval arrivals {peak} past 2⁵³",
                opts.max_correction
            )));
        }
        if !(opts.truncation_eps > 0.0 && opts.truncation_eps < 1.0) {
            return Err(PricingError::InvalidProblem(format!(
                "truncation eps must be in (0, 1), got {}",
                opts.truncation_eps
            )));
        }
        if !correction.is_finite() {
            return Err(PricingError::InvalidProblem(format!(
                "correction ratio {correction} is not finite"
            )));
        }
        if policy_start >= problem.n_intervals() {
            return Err(PricingError::InvalidProblem(format!(
                "policy start {policy_start} beyond horizon {}",
                problem.n_intervals()
            )));
        }
        if policy.n_intervals() != problem.n_intervals() - policy_start {
            return Err(PricingError::InvalidProblem(format!(
                "policy covers {} intervals, remaining horizon has {}",
                policy.n_intervals(),
                problem.n_intervals() - policy_start
            )));
        }
        if history.len() > problem.n_intervals() {
            return Err(PricingError::InvalidProblem(
                "history longer than the horizon".into(),
            ));
        }
        Ok(Self {
            problem,
            opts,
            history,
            policy,
            policy_start,
            correction: correction.clamp(opts.min_correction, opts.max_correction),
        })
    }

    /// The current arrival correction ratio ρ̂.
    pub fn correction(&self) -> f64 {
        self.correction
    }

    /// The problem the pricer was built over (full horizon).
    pub fn problem(&self) -> &DeadlineProblem {
        &self.problem
    }

    /// The pricer's options.
    pub fn options(&self) -> &AdaptiveOptions {
        &self.opts
    }

    /// The active remaining-horizon policy (covers intervals
    /// `policy_start()..`; index it with `t - policy_start()`).
    pub fn policy(&self) -> &DeadlinePolicy {
        &self.policy
    }

    /// First full-horizon interval the active policy covers.
    pub fn policy_start(&self) -> usize {
        self.policy_start
    }

    /// Number of intervals observed so far (the next interval to observe).
    pub fn observations(&self) -> usize {
        self.history.len()
    }

    /// The `(expected_completions, observed_completions)` history, one
    /// entry per observed interval (censored intervals are `(0.0, 0)`).
    pub fn history(&self) -> &[(f64, u64)] {
        &self.history
    }

    /// Price to post for interval `t` with `n_remaining` tasks left.
    pub fn price(&mut self, n_remaining: u32, t: usize) -> f64 {
        assert!(t < self.problem.n_intervals(), "interval out of range");
        assert!(t >= self.policy_start, "time went backwards");
        // Re-solve on schedule.
        if t - self.policy_start >= self.opts.resolve_every {
            self.resolve(t, &KernelConfig::default(), None);
        }
        let n = n_remaining.min(self.problem.n_tasks);
        if n == 0 {
            return self.problem.actions.min_reward();
        }
        self.policy.price(n, t - self.policy_start)
    }

    /// Record the outcome of interval `t`: the reward that was posted and
    /// the number of completions observed.
    ///
    /// When the batch ran out of tasks mid-interval the count is
    /// right-censored (workers would have completed more had tasks
    /// remained) — use [`AdaptivePricer::observe_censored`] for those
    /// intervals so the correction ratio is not biased downward.
    pub fn observe(&mut self, posted_reward: f64, completions: u64) {
        self.try_observe(posted_reward, completions)
            .expect("posted reward not in the action set / observed past the horizon");
    }

    /// Non-panicking [`AdaptivePricer::observe`]: the serving layer's
    /// entry point, where the posted reward comes off the wire.
    pub fn try_observe(&mut self, posted_reward: f64, completions: u64) -> Result<()> {
        let t = self.history.len();
        if t >= self.problem.n_intervals() {
            return Err(PricingError::InvalidProblem(format!(
                "observed interval {t} past the {}-interval horizon",
                self.problem.n_intervals()
            )));
        }
        let idx = self.validate_posted(posted_reward)?;
        let p = self.problem.actions.get(idx).accept;
        let expected = self.problem.interval_arrivals[t] * p;
        self.history.push((expected, completions));
        self.update_correction();
        Ok(())
    }

    /// Check a posted reward against the action set without recording
    /// anything — lets the serving layer reject a bad observation
    /// *before* it mutates history (e.g. before censoring skipped
    /// intervals). Returns the action index.
    pub fn validate_posted(&self, posted_reward: f64) -> Result<usize> {
        if !posted_reward.is_finite() {
            // index_of_reward binary-searches with partial_cmp().unwrap();
            // reject NaN/∞ here instead of panicking mid-serve.
            return Err(PricingError::InvalidProblem(format!(
                "posted reward {posted_reward} is not finite"
            )));
        }
        self.problem
            .actions
            .index_of_reward(posted_reward)
            .ok_or_else(|| {
                PricingError::InvalidProblem(format!(
                    "posted reward {posted_reward} not in the action set"
                ))
            })
    }

    /// Record a right-censored interval (the batch was exhausted before
    /// the interval ended): advances time without contributing to the
    /// correction estimate.
    pub fn observe_censored(&mut self) {
        let t = self.history.len();
        assert!(t < self.problem.n_intervals(), "observed past the horizon");
        self.history.push((0.0, 0));
    }

    fn update_correction(&mut self) {
        let start = self.history.len().saturating_sub(self.opts.window);
        let mut expected = 0.0;
        let mut observed = 0.0;
        for &(e, o) in &self.history[start..] {
            expected += e;
            observed += o as f64;
        }
        // Intervals priced at near-zero acceptance carry no signal; keep
        // the previous estimate until the window has mass.
        if expected < 1.0 {
            return;
        }
        self.correction =
            (observed / expected).clamp(self.opts.min_correction, self.opts.max_correction);
    }

    /// Re-solve on the registry's schedule: if the next interval to price
    /// (`observations()`) is `resolve_every` or more intervals past the
    /// active policy's start, re-solve the remaining horizon with the
    /// current correction on the caller's kernel budget, resolving pmf
    /// rows through an optional wave-wide [`SharedPmfCache`] (concurrent
    /// campaigns re-derive identical Poisson rows). Neither the thread
    /// count nor the cache changes a bit of the result. Returns whether
    /// a new policy was installed — the caller's cue to bump its policy
    /// generation.
    pub fn maybe_resolve_with(
        &mut self,
        kernel: &KernelConfig,
        cache: Option<&Arc<SharedPmfCache>>,
    ) -> bool {
        let t = self.history.len();
        if t >= self.problem.n_intervals() || t < self.policy_start {
            return false;
        }
        if t - self.policy_start >= self.opts.resolve_every {
            return self.resolve(t, kernel, cache);
        }
        false
    }

    /// Re-solve the MDP over intervals `t..` with corrected arrivals.
    /// Returns whether the policy was swapped.
    fn resolve(
        &mut self,
        t: usize,
        kernel: &KernelConfig,
        cache: Option<&Arc<SharedPmfCache>>,
    ) -> bool {
        let corrected: Vec<f64> = self.problem.interval_arrivals[t..]
            .iter()
            .map(|l| l * self.correction)
            .collect();
        if corrected.is_empty() {
            return false;
        }
        let sub = DeadlineProblem::new(
            self.problem.n_tasks,
            corrected,
            self.problem.actions.clone(),
            self.problem.penalty,
        );
        let solved = solve_policy(&sub, self.opts.truncation_eps, kernel, cache.cloned());
        if let Ok(policy) = solved {
            self.policy = policy;
            self.policy_start = t;
            return true;
        }
        false
    }
}

/// The pricer's one solve: Algorithm 2 over transitions truncated at
/// `eps`. Under Conjecture 1 it equals the dense Algorithm 1 sweep bit
/// for bit (`resolves_match_dense_sweep` in `tests/deadline.rs`).
fn solve_policy(
    problem: &DeadlineProblem,
    eps: f64,
    kernel: &KernelConfig,
    cache: Option<Arc<SharedPmfCache>>,
) -> Result<DeadlinePolicy> {
    let trunc = TruncationTable::with_eps(problem, eps);
    solve_deadline_with_cache(problem, &trunc, Sweep::MonotoneDivide, kernel, cache)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actions::ActionSet;
    use crate::dp::solve_truncated;
    use crate::penalty::PenaltyModel;
    use ft_market::{AcceptanceFn, LogitAcceptance, PriceGrid};
    use ft_stats::{seeded_rng, Poisson};
    use rand::rngs::StdRng;

    fn problem() -> DeadlineProblem {
        let acc = LogitAcceptance::new(4.0, 0.0, 30.0);
        DeadlineProblem::new(
            20,
            vec![50.0; 12],
            ActionSet::from_grid(PriceGrid::new(0, 20), &acc),
            PenaltyModel::Linear { per_task: 500.0 },
        )
    }

    /// Simulate a campaign where true arrivals are `ratio` × trained.
    fn run_campaign(pricer: &mut AdaptivePricer, ratio: f64, rng: &mut StdRng) -> (u32, f64) {
        let acc = LogitAcceptance::new(4.0, 0.0, 30.0);
        let p = problem();
        let mut remaining = p.n_tasks;
        let mut paid = 0.0;
        for t in 0..p.n_intervals() {
            let price = pricer.price(remaining, t);
            let idx = p.actions.index_of_reward(price).unwrap();
            let _ = idx;
            let true_mean = p.interval_arrivals[t] * ratio * acc.p(price as u32);
            let raw = Poisson::new(true_mean).sample(rng);
            let done = raw.min(remaining as u64) as u32;
            paid += done as f64 * price;
            remaining -= done;
            if raw > done as u64 || remaining == 0 {
                pricer.observe_censored();
            } else {
                pricer.observe(price, done as u64);
            }
            if remaining == 0 {
                break;
            }
        }
        (remaining, paid)
    }

    #[test]
    fn correction_converges_to_true_ratio() {
        for &ratio in &[0.5, 1.0, 1.8] {
            let mut pricer = AdaptivePricer::new(problem(), AdaptiveOptions::default()).unwrap();
            let mut rng = seeded_rng(17);
            let _ = run_campaign(&mut pricer, ratio, &mut rng);
            let est = pricer.correction();
            assert!((est - ratio).abs() < 0.45, "ratio {ratio}: estimated {est}");
        }
    }

    #[test]
    fn adaptive_beats_static_on_quiet_days() {
        // True arrivals at 50% of trained (the Jan-1 situation): the
        // adaptive pricer should strand fewer tasks than the static-trained
        // policy across many trials.
        let p = problem();
        let static_policy = solve_truncated(&p, 1e-9).unwrap();
        let acc = LogitAcceptance::new(4.0, 0.0, 30.0);
        let mut rng = seeded_rng(23);
        let trials = 60;
        let mut adaptive_rem = 0u32;
        let mut static_rem = 0u32;
        for _ in 0..trials {
            let mut pricer = AdaptivePricer::new(p.clone(), AdaptiveOptions::default()).unwrap();
            let (rem, _) = run_campaign(&mut pricer, 0.5, &mut rng);
            adaptive_rem += rem;
            // Static policy on the same kind of day.
            let mut remaining = p.n_tasks;
            for t in 0..p.n_intervals() {
                use crate::policy::PriceController;
                let price = static_policy.price(remaining, t);
                let mean = p.interval_arrivals[t] * 0.5 * acc.p(price as u32);
                let done = Poisson::new(mean).sample(&mut rng).min(remaining as u64) as u32;
                remaining -= done;
                if remaining == 0 {
                    break;
                }
            }
            static_rem += remaining;
        }
        assert!(
            adaptive_rem <= static_rem,
            "adaptive stranded {adaptive_rem} vs static {static_rem}"
        );
    }

    #[test]
    fn no_observations_means_unit_correction() {
        let pricer = AdaptivePricer::new(problem(), AdaptiveOptions::default()).unwrap();
        assert_eq!(pricer.correction(), 1.0);
    }

    #[test]
    fn correction_is_clamped() {
        let mut pricer = AdaptivePricer::new(problem(), AdaptiveOptions::default()).unwrap();
        // Observe absurdly many completions at a real price.
        let price = pricer.price(20, 0);
        pricer.observe(price, 1_000_000);
        assert!(pricer.correction() <= AdaptiveOptions::default().max_correction);
        // And absurdly few for many intervals.
        for _ in 1..10 {
            pricer.observe(price, 0);
        }
        assert!(pricer.correction() >= AdaptiveOptions::default().min_correction);
    }

    #[test]
    fn matched_model_performs_like_static() {
        // With ratio = 1 the adaptive pricer should cost about the same as
        // the static-trained policy (no signal to act on).
        let mut rng = seeded_rng(31);
        let mut adaptive_paid = 0.0;
        let trials = 40;
        for _ in 0..trials {
            let mut pricer = AdaptivePricer::new(problem(), AdaptiveOptions::default()).unwrap();
            let (_, paid) = run_campaign(&mut pricer, 1.0, &mut rng);
            adaptive_paid += paid;
        }
        let p = problem();
        let static_policy = solve_truncated(&p, 1e-9).unwrap();
        let exact = static_policy.evaluate(&p);
        let mean_adaptive = adaptive_paid / trials as f64;
        assert!(
            (mean_adaptive - exact.expected_paid).abs() / exact.expected_paid < 0.2,
            "adaptive {mean_adaptive} vs static expectation {}",
            exact.expected_paid
        );
    }
}
