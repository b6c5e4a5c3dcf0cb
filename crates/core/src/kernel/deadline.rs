//! The deadline MDP (Section 3) as a [`LayerModel`], plus the kernel
//! entry point the three deadline solvers share.

use super::driver::{run, Direction, KernelConfig, LayerModel, Sweep};
use super::transitions::{best_action, PmfCache, SharedPmfCache, TruncationTable};
use crate::dp::validate;
use crate::error::Result;
use crate::policy::DeadlinePolicy;
use crate::problem::DeadlineProblem;
use std::sync::Arc;

/// Layers = intervals (backward), states = remaining tasks, decisions =
/// action indices into `problem.actions`.
pub struct DeadlineDpModel<'a> {
    problem: &'a DeadlineProblem,
    trunc: &'a TruncationTable,
    /// Cross-solve pmf row cache (None = private rows).
    shared: Option<Arc<SharedPmfCache>>,
}

impl<'a> DeadlineDpModel<'a> {
    pub fn new(problem: &'a DeadlineProblem, trunc: &'a TruncationTable) -> Self {
        Self {
            problem,
            trunc,
            shared: None,
        }
    }

    /// Resolve per-worker pmf misses through `shared` — every worker's
    /// scratch cache consults (and feeds) the cross-solve row store.
    pub fn with_shared_cache(mut self, shared: Option<Arc<SharedPmfCache>>) -> Self {
        self.shared = shared;
        self
    }
}

impl LayerModel for DeadlineDpModel<'_> {
    /// Per-worker Poisson pmf rows, one per `(layer, action)` — shared by
    /// every state the worker sweeps instead of recomputed per
    /// `(state, action)`.
    type Scratch = PmfCache;

    fn width(&self) -> usize {
        self.problem.n_tasks as usize + 1
    }

    fn n_steps(&self) -> usize {
        self.problem.n_intervals()
    }

    fn n_actions(&self) -> usize {
        self.problem.actions.len()
    }

    fn make_scratch(&self) -> PmfCache {
        PmfCache::with_shared(self.problem.actions.len(), self.shared.clone())
    }

    fn terminal(&self, out: &mut [f64]) {
        for (m, v) in out.iter_mut().enumerate() {
            *v = self.problem.penalty.terminal_cost(m as u32);
        }
    }

    fn default_grain(&self) -> usize {
        // A deadline backup costs O(C · min(n, s₀)) pmf terms — expensive
        // enough that small chunks already amortise a spawn.
        8
    }

    fn solve_state(
        &self,
        t: usize,
        m: usize,
        a_lo: usize,
        a_hi: usize,
        prev: &[f64],
        cache: &mut PmfCache,
    ) -> (f64, u32) {
        if m == 0 {
            // Nothing left to price: cost 0, decision unused.
            return (0.0, 0);
        }
        let (best, best_q) = best_action(self.problem, self.trunc, t, m, a_lo, a_hi, prev, cache);
        (best_q, best as u32)
    }
}

/// Solve the deadline MDP on the kernel with an explicit truncation
/// table, sweep strategy and parallelism config — the single engine
/// behind [`crate::dp::solve_simple`], [`crate::dp::solve_truncated`] and
/// [`crate::dp::solve_efficient`].
pub fn solve_deadline(
    problem: &DeadlineProblem,
    trunc: &TruncationTable,
    sweep: Sweep,
    cfg: &KernelConfig,
) -> Result<DeadlinePolicy> {
    solve_deadline_with_cache(problem, trunc, sweep, cfg, None)
}

/// [`solve_deadline`] resolving pmf rows through an optional
/// [`SharedPmfCache`]: rows a concurrent (or earlier) solve through
/// the same cache already built are reused instead of recomputed. Sharing
/// is bitwise-invisible — rows are pure functions of their key and
/// prefix-stable across lengths — so the policy is identical to the
/// uncached solve (see `shared_cache_solve_is_bitwise_identical`).
pub fn solve_deadline_with_cache(
    problem: &DeadlineProblem,
    trunc: &TruncationTable,
    sweep: Sweep,
    cfg: &KernelConfig,
    shared: Option<Arc<SharedPmfCache>>,
) -> Result<DeadlinePolicy> {
    validate(problem)?;
    let model = DeadlineDpModel::new(problem, trunc).with_shared_cache(shared);
    let (values, policy) = run(&model, sweep, Direction::Backward, cfg);
    Ok(DeadlinePolicy::new(
        problem.n_tasks,
        problem.n_intervals(),
        policy.into_vec(),
        values.into_vec(),
        problem.actions.clone(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp::test_support::varied_problems;

    /// Solving through a shared pmf cache — including a warm cache fed
    /// by a previous solve — must be bitwise identical to the private
    /// solve, across sweep strategies and thread counts.
    #[test]
    fn shared_cache_solve_is_bitwise_identical() {
        for p in varied_problems() {
            let trunc = TruncationTable::with_eps(&p, 1e-9);
            let reference =
                solve_deadline(&p, &trunc, Sweep::Dense, &KernelConfig::serial()).unwrap();
            let shared = Arc::new(SharedPmfCache::new());
            for sweep in [Sweep::Dense, Sweep::MonotoneDivide] {
                for threads in [1, 2, 0] {
                    let cfg = KernelConfig { threads, grain: 2 };
                    let got = solve_deadline_with_cache(
                        &p,
                        &trunc,
                        sweep,
                        &cfg,
                        Some(Arc::clone(&shared)),
                    )
                    .unwrap();
                    for t in 0..p.n_intervals() {
                        for m in 1..=p.n_tasks {
                            assert_eq!(
                                reference.cost_to_go(m, t).to_bits(),
                                got.cost_to_go(m, t).to_bits(),
                                "shared-cache cost differs at (n={m}, t={t}), \
                                 sweep {sweep:?}, {threads} threads"
                            );
                            assert_eq!(
                                reference.action_index(m, t),
                                got.action_index(m, t),
                                "shared-cache action differs at (n={m}, t={t})"
                            );
                        }
                    }
                }
            }
            assert!(
                shared.hits() > 0,
                "repeated solves of one problem must hit the shared cache"
            );
        }
    }

    /// The kernel must be bitwise identical across sweep strategies and
    /// thread counts on the whole `varied_problems` family.
    #[test]
    fn kernel_invariant_to_threads_and_sweep() {
        for p in varied_problems() {
            let trunc = TruncationTable::with_eps(&p, 1e-9);
            let reference =
                solve_deadline(&p, &trunc, Sweep::Dense, &KernelConfig::serial()).unwrap();
            for sweep in [Sweep::Dense, Sweep::MonotoneDivide] {
                for threads in [1, 2, 4, 0] {
                    let cfg = KernelConfig { threads, grain: 2 };
                    let got = solve_deadline(&p, &trunc, sweep, &cfg).unwrap();
                    for t in 0..p.n_intervals() {
                        for m in 1..=p.n_tasks {
                            assert_eq!(
                                reference.action_index(m, t),
                                got.action_index(m, t),
                                "action mismatch at (n={m}, t={t}), sweep {sweep:?}, {threads} threads"
                            );
                            assert_eq!(
                                reference.cost_to_go(m, t).to_bits(),
                                got.cost_to_go(m, t).to_bits(),
                                "cost not bitwise equal at (n={m}, t={t}), sweep {sweep:?}, {threads} threads"
                            );
                        }
                    }
                }
            }
        }
    }
}
