//! Algorithm 2: divide-and-conquer DP exploiting price monotonicity —
//! the kernel's [`Sweep::MonotoneDivide`] strategy.
//!
//! Under Conjecture 1 (`Price(n, t)` non-decreasing in `n` for fixed `t`),
//! once `Price(a, t)` and `Price(b, t)` are known for `a < m < b`, the
//! optimal action for `m` lies between them. Recursing on the midpoint
//! gives `O(log N)` levels whose action-search ranges telescope to `C` per
//! level, so each interval costs `O(N · s₀ + C log N · s₀)` backups instead
//! of `O(N · C)` — and the two halves of every split are independent, so
//! the kernel runs them as fork-join tasks.

use super::validate;
use crate::error::Result;
use crate::kernel::deadline::solve_deadline;
use crate::kernel::{KernelConfig, Sweep, TruncationTable};
use crate::policy::DeadlinePolicy;
use crate::problem::DeadlineProblem;

/// Solve with Algorithm 2 + Poisson truncation at `eps`.
///
/// Produces exactly the same policy as [`super::solve_truncated`] whenever
/// Conjecture 1 holds (which we have never observed violated, matching the
/// paper's experience). `resolves_match_dense_sweep` in `tests/deadline.rs`
/// holds the two equal bit for bit on the §5.2 drift re-solves the
/// registry runs; `efficient_matches_truncated_exactly` below covers the
/// varied test problems.
pub fn solve_efficient(problem: &DeadlineProblem, eps: f64) -> Result<DeadlinePolicy> {
    let trunc = TruncationTable::with_eps(problem, eps);
    solve_efficient_with(problem, &trunc)
}

/// Solve with Algorithm 2 and explicit truncation table (use
/// [`TruncationTable::none`] for exact backups).
pub fn solve_efficient_with(
    problem: &DeadlineProblem,
    trunc: &TruncationTable,
) -> Result<DeadlinePolicy> {
    validate(problem)?;
    solve_deadline(
        problem,
        trunc,
        Sweep::MonotoneDivide,
        &KernelConfig::default(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp::simple::{solve_simple, solve_truncated};
    use crate::dp::test_support::{small_problem, varied_problems};
    use crate::dp::TruncationTable;

    #[test]
    fn efficient_matches_truncated_exactly() {
        for p in varied_problems() {
            for eps in [1e-6, 1e-9] {
                let a = solve_truncated(&p, eps).unwrap();
                let b = solve_efficient(&p, eps).unwrap();
                for t in 0..p.n_intervals() {
                    for m in 1..=p.n_tasks {
                        assert_eq!(
                            a.action_index(m, t),
                            b.action_index(m, t),
                            "price mismatch at (n={m}, t={t}), eps={eps}"
                        );
                    }
                }
                let d = (a.expected_total_cost() - b.expected_total_cost()).abs();
                assert!(d < 1e-9, "cost mismatch {d}");
            }
        }
    }

    #[test]
    fn efficient_without_truncation_matches_simple() {
        for p in varied_problems() {
            let a = solve_simple(&p).unwrap();
            let trunc = TruncationTable::none(&p);
            let b = solve_efficient_with(&p, &trunc).unwrap();
            for t in 0..p.n_intervals() {
                for m in 1..=p.n_tasks {
                    assert_eq!(
                        a.action_index(m, t),
                        b.action_index(m, t),
                        "price mismatch at (n={m}, t={t})"
                    );
                }
            }
        }
    }

    #[test]
    fn efficient_policy_costs_match_forward_eval() {
        let p = small_problem(14, 6);
        let policy = solve_efficient(&p, 1e-9).unwrap();
        let out = policy.evaluate(&p);
        // Truncated estimate is a slight lower bound on the true cost.
        assert!(policy.expected_total_cost() <= out.expected_total_cost() + 1e-9);
        assert!(out.expected_total_cost() - policy.expected_total_cost() < 1.0);
    }
}
