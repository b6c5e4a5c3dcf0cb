//! The Theorem 4 worker-arrival MDP: the *dynamic* fixed-budget problem,
//! solved explicitly.
//!
//! States are `(n, b)` — remaining tasks and remaining (integer-cent)
//! budget; each transition is one worker arrival; posting price `c` moves
//! to `(n−1, b−c)` with probability `p(c)` and stays otherwise; every
//! transition costs one arrival. The optimal value function is the
//! fixed point
//!
//! `V(n, b) = min_{c ≤ b−(n−1)·c_min} [ 1 + p(c)·V(n−1, b−c) + (1−p(c))·V(n, b) ]`
//! `        = min_c [ 1/p(c) + V(n−1, b−c) ]`
//!
//! (the algebraic elimination of the self-loop is exactly the paper's
//! Theorem 4/5 argument). Solving it yields the *optimal dynamic*
//! strategy; Theorems 3–5 predict its value equals the optimal *static*
//! strategy's `Σ 1/p(c_i)` — which the test-suite verifies against the
//! Theorem 6 exact DP, confirming the paper's optimality chain
//! computationally.

use super::BudgetProblem;
use crate::error::{PricingError, Result};
use crate::kernel::budget::{BudgetMdpModel, IntegerActions};
use crate::kernel::{run, Direction, KernelConfig, Sweep};
use serde::{Deserialize, Serialize};

/// Solved worker-arrival MDP.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BudgetMdpPolicy {
    n_tasks: u32,
    budget: usize,
    /// `V(n, b)`: expected remaining worker arrivals, row-major `[n][b]`.
    value: Vec<f64>,
    /// Optimal price (cents) at `(n, b)`; `u32::MAX` marks infeasible.
    price: Vec<u32>,
}

impl BudgetMdpPolicy {
    fn idx(&self, n: u32, b: usize) -> usize {
        debug_assert!(n <= self.n_tasks && b <= self.budget);
        n as usize * (self.budget + 1) + b
    }

    /// The (floored) budget the policy was solved for, in cents — the
    /// largest `b` its tables can answer.
    pub fn budget_cents(&self) -> usize {
        self.budget
    }

    /// The batch size the policy was solved for — the largest `n` its
    /// tables can answer.
    pub fn n_tasks(&self) -> u32 {
        self.n_tasks
    }

    /// Expected total worker arrivals from the full batch and budget.
    pub fn expected_arrivals(&self) -> f64 {
        self.value[self.idx(self.n_tasks, self.budget)]
    }

    /// `V(n, b)`.
    pub fn value(&self, n: u32, b: usize) -> f64 {
        self.value[self.idx(n, b)]
    }

    /// Optimal posted price with `n` tasks and `b` cents remaining;
    /// `None` when the state is infeasible.
    pub fn price(&self, n: u32, b: usize) -> Option<u32> {
        if n == 0 {
            return None;
        }
        let p = self.price[self.idx(n, b)];
        (p != u32::MAX).then_some(p)
    }

    /// The realized price sequence when every pickup happens at the
    /// planned price: follow the greedy trajectory from `(N, B)`.
    pub fn planned_sequence(&self) -> Vec<u32> {
        let mut seq = Vec::with_capacity(self.n_tasks as usize);
        let mut n = self.n_tasks;
        let mut b = self.budget;
        while n > 0 {
            let c = self
                .price(n, b)
                .expect("trajectory left the feasible region");
            seq.push(c);
            b -= c as usize;
            n -= 1;
        }
        seq
    }
}

/// Solve the worker-arrival MDP exactly. `O(N · B · C)` like Theorem 6 —
/// the point is not speed but that the *dynamic* optimum is computed with
/// no structural assumptions, so Theorems 3–5 can be checked against it.
pub fn solve_budget_mdp(problem: &BudgetProblem) -> Result<BudgetMdpPolicy> {
    solve_budget_mdp_with(problem, &KernelConfig::default())
}

/// [`solve_budget_mdp`] with an explicit kernel configuration (the
/// campaign registry passes its per-campaign thread budget here).
pub fn solve_budget_mdp_with(
    problem: &BudgetProblem,
    cfg: &KernelConfig,
) -> Result<BudgetMdpPolicy> {
    let n = problem.n_tasks;
    let b_max = problem.budget.floor();
    if b_max < 0.0 {
        return Err(PricingError::InvalidProblem("negative budget".into()));
    }
    let b_max = b_max as usize;

    let acts = IntegerActions::from_action_set(&problem.actions, "budget MDP")?;
    acts.check_feasible(n, b_max)?;

    // Kernel forward induction over task layers; the policy table has no
    // row for the terminal layer (n = 0 posts no price), so prepend one
    // of `u32::MAX` to keep the historical `(n+1) × (b_max+1)` layout.
    let model = BudgetMdpModel::new(&acts, n, b_max);
    let (values, prices) = run(&model, Sweep::Dense, Direction::Forward, cfg);
    let width = b_max + 1;
    let mut price = vec![u32::MAX; width];
    price.extend(prices.into_vec());

    Ok(BudgetMdpPolicy {
        n_tasks: n,
        budget: b_max,
        value: values.into_vec(),
        price,
    })
}

#[cfg(test)]
mod tests {
    use super::super::exact::solve_budget_exact;
    use super::super::test_support::tiny_budget_problem;
    use super::*;
    use ft_market::AcceptanceFn;

    #[test]
    fn dynamic_equals_static_optimum_theorems_3_to_5() {
        // The optimal dynamic strategy's E[W] must equal the optimal static
        // strategy's Σ 1/p(c_i): the computational confirmation of the
        // paper's central Section 4 claim.
        for budget in [30.0, 45.0, 60.0, 100.0] {
            let mut p = tiny_budget_problem();
            p.budget = budget;
            let dynamic = solve_budget_mdp(&p).unwrap();
            let static_opt = solve_budget_exact(&p).unwrap();
            let acc = |c: u32| {
                let i = p.actions.index_of_reward(c as f64).unwrap();
                p.actions.get(i).accept
            };
            let static_w = static_opt.expected_arrivals(acc);
            assert!(
                (dynamic.expected_arrivals() - static_w).abs() < 1e-9,
                "B={budget}: dynamic {} vs static {static_w}",
                dynamic.expected_arrivals()
            );
        }
    }

    #[test]
    fn planned_sequence_is_a_valid_static_strategy() {
        let p = tiny_budget_problem();
        let mdp = solve_budget_mdp(&p).unwrap();
        let seq = mdp.planned_sequence();
        assert_eq!(seq.len(), p.n_tasks as usize);
        let total: u32 = seq.iter().sum();
        assert!(total as f64 <= p.budget + 1e-9);
        // Its Theorem 5 value matches the MDP's own value.
        let acc = ft_market::LogitAcceptance::new(4.0, 0.0, 20.0);
        let w: f64 = seq.iter().map(|&c| 1.0 / acc.p(c)).sum();
        assert!((w - mdp.expected_arrivals()).abs() < 1e-9);
    }

    #[test]
    fn value_monotone_in_budget_and_tasks() {
        let p = tiny_budget_problem();
        let mdp = solve_budget_mdp(&p).unwrap();
        let b_max = p.budget as usize;
        for n in 1..=p.n_tasks {
            for b in (n as usize)..b_max {
                // More budget can only help.
                assert!(
                    mdp.value(n, b + 1) <= mdp.value(n, b) + 1e-12,
                    "V({n}, {}) > V({n}, {b})",
                    b + 1
                );
            }
        }
        for n in 1..p.n_tasks {
            // More tasks with the same budget can only hurt (when feasible).
            let v_small = mdp.value(n, b_max);
            let v_large = mdp.value(n + 1, b_max);
            assert!(v_large >= v_small - 1e-12);
        }
    }

    #[test]
    fn infeasible_states_are_marked() {
        let p = tiny_budget_problem(); // 10 tasks, min price 1
        let mdp = solve_budget_mdp(&p).unwrap();
        // 10 tasks with 5 cents: impossible.
        assert!(mdp.price(10, 5).is_none());
        assert!(mdp.value(10, 5).is_infinite());
        // 10 tasks with 10 cents: all at 1 cent.
        assert_eq!(mdp.price(10, 10), Some(1));
    }

    #[test]
    fn richer_states_price_higher() {
        // With spare budget the MDP buys speed; with a tight budget it
        // must price low.
        let p = tiny_budget_problem();
        let mdp = solve_budget_mdp(&p).unwrap();
        let tight = mdp.price(10, 12).unwrap();
        let rich = mdp.price(10, p.budget as usize).unwrap();
        assert!(rich >= tight);
    }

    #[test]
    fn infeasible_problem_rejected() {
        let mut p = tiny_budget_problem();
        p.budget = 4.0;
        assert!(matches!(
            solve_budget_mdp(&p),
            Err(PricingError::Infeasible(_))
        ));
    }
}
