//! Dynamic-programming solvers for the fixed-deadline MDP (Section 3).
//!
//! Three solvers share one Bellman backup, now hosted by the solver
//! kernel ([`crate::kernel`]) and executed by its parallel
//! backward-induction driver:
//!
//! - [`solve_simple`]: Algorithm 1, full enumeration — `O(N² · N_T · C)`.
//! - [`solve_truncated`]: Algorithm 1 + Poisson tail truncation
//!   (Section 3.2, Table 1, Theorem 1).
//! - [`solve_efficient`]: Algorithm 2, divide-and-conquer over the task
//!   count exploiting the monotonicity of `Price(n, t)` in `n`
//!   (Conjecture 1) — `O(N_T · N · (s₀ + C log N))`.
//!
//! All three are thin strategy selections over
//! [`crate::kernel::deadline::solve_deadline`]; results are identical to
//! the historical serial implementations for any thread count.

mod efficient;
mod simple;

pub use crate::kernel::{q_value, TruncationTable};
pub use efficient::{solve_efficient, solve_efficient_with};
pub use simple::{solve_simple, solve_truncated};

use crate::error::{PricingError, Result};
use crate::problem::DeadlineProblem;

/// Theorem 1's worst-case gap between the truncated-DP estimate and the
/// true cost of the truncated-DP policy from state `(n, t)`:
/// `n · (N_T − t) · C · ε` (each of the `N_T − t` remaining backups drops
/// at most `ε` probability mass, each worth at most `n · C`).
pub fn truncation_error_bound(problem: &DeadlineProblem, n: u32, t: usize, eps: f64) -> f64 {
    let nt = problem.n_intervals();
    assert!(t <= nt, "interval out of range");
    let c_max = problem.actions.max_reward().max(problem.penalty.per_task());
    n as f64 * (nt - t) as f64 * c_max * eps
}

/// Validate a problem before solving; shared across solvers.
pub(crate) fn validate(problem: &DeadlineProblem) -> Result<()> {
    if problem.n_tasks == 0 {
        return Err(PricingError::InvalidProblem("zero tasks".into()));
    }
    if problem.interval_arrivals.is_empty() {
        return Err(PricingError::InvalidProblem("zero intervals".into()));
    }
    Ok(())
}

#[cfg(test)]
pub(crate) mod test_support {
    pub use crate::testkit::{small_problem, varied_problems};
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::small_problem;

    /// Pins the Theorem 1 formula: the bound is *linear* in `n`
    /// (`n · (N_T − t) · C · ε`), not quadratic — a regression test for a
    /// historical bug that multiplied by `n` twice.
    #[test]
    fn truncation_error_bound_is_linear_in_n() {
        let p = small_problem(10, 4);
        let c_max = p.actions.max_reward().max(p.penalty.per_task());
        let eps = 1e-6;
        for n in [1u32, 3, 10] {
            for t in [0usize, 2, 4] {
                let expect = n as f64 * (p.n_intervals() - t) as f64 * c_max * eps;
                let got = truncation_error_bound(&p, n, t, eps);
                assert!(
                    (got - expect).abs() < 1e-18,
                    "bound at (n={n}, t={t}): got {got}, want {expect}"
                );
            }
        }
        // Doubling n doubles the bound exactly.
        let b1 = truncation_error_bound(&p, 5, 0, eps);
        let b2 = truncation_error_bound(&p, 10, 0, eps);
        assert!(
            (b2 - 2.0 * b1).abs() < 1e-18,
            "bound not linear: {b1} vs {b2}"
        );
        // At the deadline no backups remain, so the bound vanishes.
        assert_eq!(truncation_error_bound(&p, 10, p.n_intervals(), eps), 0.0);
    }
}
