//! Algorithm 1: the simple backward-induction DP, with and without Poisson
//! tail truncation — a dense sweep on the solver kernel.

use super::validate;
use crate::error::Result;
use crate::kernel::deadline::solve_deadline;
use crate::kernel::{KernelConfig, Sweep, TruncationTable};
use crate::policy::DeadlinePolicy;
use crate::problem::DeadlineProblem;

/// Solve by full enumeration (Algorithm 1): exact transition sums, every
/// action considered at every state. `O(N² · N_T · C)` work, swept in
/// parallel across the task-count axis.
pub fn solve_simple(problem: &DeadlineProblem) -> Result<DeadlinePolicy> {
    let trunc = TruncationTable::none(problem);
    solve_with_truncation(problem, &trunc)
}

/// Solve with Poisson tail truncation at mass `eps` (Section 3.2): the DP
/// ignores transition terms whose total probability is below `eps`,
/// trading a bounded cost error (Theorem 1) for a `s₀`-bounded inner loop.
pub fn solve_truncated(problem: &DeadlineProblem, eps: f64) -> Result<DeadlinePolicy> {
    let trunc = TruncationTable::with_eps(problem, eps);
    solve_with_truncation(problem, &trunc)
}

pub(crate) fn solve_with_truncation(
    problem: &DeadlineProblem,
    trunc: &TruncationTable,
) -> Result<DeadlinePolicy> {
    validate(problem)?;
    solve_deadline(problem, trunc, Sweep::Dense, &KernelConfig::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp::test_support::{small_problem, varied_problems};
    use crate::dp::truncation_error_bound;
    use crate::penalty::PenaltyModel;

    #[test]
    fn optimal_cost_matches_evaluation() {
        // Opt(N, 0) from the DP must equal the exact forward evaluation of
        // the induced policy under the same dynamics.
        let p = small_problem(10, 5);
        let policy = solve_simple(&p).unwrap();
        let out = policy.evaluate(&p);
        let diff = (policy.expected_total_cost() - out.expected_total_cost()).abs();
        assert!(diff < 1e-8, "DP cost vs forward eval differ by {diff}");
    }

    #[test]
    fn cost_to_go_monotone_in_n() {
        // More remaining tasks cannot be cheaper.
        let p = small_problem(12, 4);
        let policy = solve_simple(&p).unwrap();
        for t in 0..=4 {
            for m in 1..=12u32 {
                assert!(
                    policy.cost_to_go(m, t) >= policy.cost_to_go(m - 1, t) - 1e-9,
                    "Opt({m},{t}) < Opt({},{t})",
                    m - 1
                );
            }
        }
    }

    #[test]
    fn price_monotone_in_n_conjecture1() {
        // Conjecture 1: Price(n, t) non-decreasing in n for fixed t.
        for p in varied_problems() {
            let policy = solve_simple(&p).unwrap();
            for t in 0..p.n_intervals() {
                for m in 2..=p.n_tasks {
                    assert!(
                        policy.action_index(m, t) >= policy.action_index(m - 1, t),
                        "price not monotone at (n={m}, t={t})"
                    );
                }
            }
        }
    }

    #[test]
    fn price_monotone_in_t() {
        // Section 3.2's remark: for fixed n, price rises as the deadline
        // approaches.
        for p in varied_problems() {
            let policy = solve_simple(&p).unwrap();
            for m in 1..=p.n_tasks {
                for t in 1..p.n_intervals() {
                    assert!(
                        policy.action_index(m, t) >= policy.action_index(m, t - 1),
                        "price not monotone in t at (n={m}, t={t})"
                    );
                }
            }
        }
    }

    #[test]
    fn higher_penalty_prices_higher() {
        let base = small_problem(10, 4);
        let low =
            solve_simple(&base.with_penalty(PenaltyModel::Linear { per_task: 20.0 })).unwrap();
        let high =
            solve_simple(&base.with_penalty(PenaltyModel::Linear { per_task: 2000.0 })).unwrap();
        // At the initial state, the higher penalty must not price lower.
        assert!(high.action_index(10, 0) >= low.action_index(10, 0));
        // And it must leave fewer tasks unfinished in expectation.
        let out_low = low.evaluate(&base.with_penalty(PenaltyModel::Linear { per_task: 20.0 }));
        let out_high = high.evaluate(&base.with_penalty(PenaltyModel::Linear { per_task: 2000.0 }));
        assert!(out_high.expected_remaining <= out_low.expected_remaining + 1e-9);
    }

    #[test]
    fn truncated_matches_simple_within_theorem1_bound() {
        for p in varied_problems() {
            let exact = solve_simple(&p).unwrap();
            for eps in [1e-6, 1e-9] {
                let trunc = solve_truncated(&p, eps).unwrap();
                // Est_trunc ≤ Opt (dropping non-negative terms).
                assert!(
                    trunc.expected_total_cost() <= exact.expected_total_cost() + 1e-9,
                    "truncated estimate above exact optimum"
                );
                // True cost of the truncated policy ≥ Opt, within bound.
                let true_cost = trunc.evaluate(&p).expected_total_cost();
                let bound = truncation_error_bound(&p, p.n_tasks, 0, eps);
                assert!(
                    true_cost <= exact.expected_total_cost() + bound + 1e-9,
                    "Theorem 1 violated: {true_cost} > {} + {bound}",
                    exact.expected_total_cost()
                );
                assert!(true_cost >= exact.expected_total_cost() - 1e-9);
            }
        }
    }

    #[test]
    fn tight_truncation_equals_exact_prices() {
        // At ε = 1e-12 the truncated and exact policies should agree on
        // nearly every state; costs must agree very closely.
        let p = small_problem(15, 5);
        let exact = solve_simple(&p).unwrap();
        let trunc = solve_truncated(&p, 1e-12).unwrap();
        let d = (exact.expected_total_cost() - trunc.expected_total_cost()).abs();
        assert!(d < 1e-6, "cost gap {d}");
    }

    #[test]
    fn zero_arrivals_only_penalty() {
        // No workers → nothing completes → cost is exactly the penalty.
        let p = DeadlineProblem::new(
            4,
            vec![0.0, 0.0],
            crate::actions::ActionSet::from_grid(
                ft_market::PriceGrid::new(0, 5),
                &ft_market::LogitAcceptance::new(5.0, 0.0, 10.0),
            ),
            PenaltyModel::Linear { per_task: 77.0 },
        );
        use crate::problem::DeadlineProblem;
        let policy = solve_simple(&p).unwrap();
        assert!((policy.expected_total_cost() - 4.0 * 77.0).abs() < 1e-9);
    }
}
