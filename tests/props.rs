//! Property-based tests (proptest) on the core invariants:
//! distribution laws, convex-hull geometry, DP monotonicity
//! (Conjecture 1), solver agreement, and Theorem 5/7 structure.

use finish_them::core::budget::SemiStaticStrategy;
use finish_them::core::dp::{solve_efficient_with, TruncationTable};
use finish_them::core::testkit::{varied_budget_problems, varied_problems};
use finish_them::core::{solve_budget_mdp, KernelConfig};
use finish_them::prelude::*;
use finish_them::stats::convex::{above_or_on_hull, lower_hull, Point};
use proptest::prelude::*;

/// Cross-solver agreement on the `varied_problems()` family, all routed
/// through the shared kernel: the three deadline solvers must produce
/// identical policies state by state (simple vs truncated at tight ε vs
/// efficient), and the kernel must be invariant to its thread count.
#[test]
fn deadline_solvers_agree_on_varied_problems() {
    for (pi, p) in varied_problems().iter().enumerate() {
        let simple = solve_simple(p).unwrap();
        let trunc = solve_truncated(p, 1e-12).unwrap();
        let efficient_exact = {
            let table = TruncationTable::none(p);
            solve_efficient_with(p, &table).unwrap()
        };
        let efficient = solve_efficient(p, 1e-12).unwrap();
        for t in 0..p.n_intervals() {
            for n in 1..=p.n_tasks {
                let a = simple.action_index(n, t);
                assert_eq!(
                    a,
                    efficient_exact.action_index(n, t),
                    "problem {pi}: simple vs efficient(no-trunc) at (n={n}, t={t})"
                );
                assert_eq!(
                    trunc.action_index(n, t),
                    efficient.action_index(n, t),
                    "problem {pi}: truncated vs efficient at (n={n}, t={t}), eps=1e-12"
                );
            }
        }
        // Tight truncation also agrees with the exact solver on cost.
        let gap = (simple.expected_total_cost() - trunc.expected_total_cost()).abs();
        assert!(
            gap < 1e-6,
            "problem {pi}: exact vs 1e-12-truncated cost gap {gap}"
        );
    }
}

/// The kernel's parallel sweep must be *bitwise* identical to a serial
/// sweep on every varied problem — chunking is a scheduling decision,
/// never a numerical one.
#[test]
fn kernel_thread_count_is_invisible() {
    use finish_them::core::kernel::deadline::solve_deadline;
    use finish_them::core::kernel::Sweep;
    for p in varied_problems() {
        let table = TruncationTable::with_eps(&p, 1e-9);
        let serial = solve_deadline(&p, &table, Sweep::Dense, &KernelConfig::serial()).unwrap();
        let parallel = solve_deadline(
            &p,
            &table,
            Sweep::Dense,
            &KernelConfig {
                threads: 0,
                grain: 1,
            },
        )
        .unwrap();
        for t in 0..=p.n_intervals() {
            for n in 0..=p.n_tasks {
                assert_eq!(
                    serial.cost_to_go(n, t).to_bits(),
                    parallel.cost_to_go(n, t).to_bits(),
                    "cost differs at (n={n}, t={t})"
                );
            }
        }
    }
}

/// Budget solvers checked against each other on the varied budget
/// family: the Theorem 6 exact DP, the Theorem 4 worker-arrival MDP and
/// the Algorithm 3 hull solution must line up exactly as the paper's
/// optimality chain predicts.
#[test]
fn budget_solvers_agree_on_varied_problems() {
    for (pi, p) in varied_budget_problems().iter().enumerate() {
        let exact = solve_budget_exact(p).unwrap();
        let hull = solve_budget_hull(p).unwrap();
        let mdp = solve_budget_mdp(p).unwrap();
        let acc = |c: u32| {
            let i = p.actions.index_of_reward(c as f64).unwrap();
            p.actions.get(i).accept
        };
        let e = exact.expected_arrivals(acc);
        let h = hull.expected_arrivals;
        // Theorems 3–5: dynamic optimum = static optimum.
        assert!(
            (mdp.expected_arrivals() - e).abs() < 1e-9,
            "problem {pi}: MDP {} vs exact {e}",
            mdp.expected_arrivals()
        );
        // Exact ≤ hull ≤ exact + Theorem 8 gap.
        assert!(e <= h + 1e-9, "problem {pi}: exact {e} worse than hull {h}");
        assert!(
            h <= e + hull.rounding_gap_bound + 1e-9,
            "problem {pi}: hull {h} exceeds exact {e} + gap {}",
            hull.rounding_gap_bound
        );
        // Both strategies honour the constraints.
        assert_eq!(exact.n_tasks(), p.n_tasks);
        assert!(exact.within_budget(p.budget));
        assert!(hull.strategy.within_budget(p.budget));
    }
}

/// The campaign registry must serve exactly the prices the standalone
/// solvers would compute, for a heterogeneous batch.
#[test]
fn service_matches_standalone_solvers() {
    use finish_them::core::{CampaignRegistry, CampaignSpec, ObservedState};
    let registry = CampaignRegistry::new();
    let mut ids = Vec::new();
    for (i, problem) in varied_problems().into_iter().enumerate() {
        let spec = CampaignSpec::Deadline {
            problem,
            eps: Some(1e-9),
        };
        registry.register_at(i as u64, spec);
        ids.push(i as u64);
    }
    for (j, problem) in varied_budget_problems().into_iter().enumerate() {
        registry.register_at(1000 + j as u64, CampaignSpec::Budget { problem });
        ids.push(1000 + j as u64);
    }
    for id in ids {
        registry
            .solve(id)
            .unwrap_or_else(|e| panic!("campaign {id} failed: {e}"));
    }
    let price = |id: u64, state: ObservedState| registry.quote(id, state).unwrap().price;
    for (i, problem) in varied_problems().into_iter().enumerate() {
        let direct = solve_efficient(&problem, 1e-9).unwrap();
        for t in 0..problem.n_intervals() {
            for n in 1..=problem.n_tasks {
                let got = price(
                    i as u64,
                    ObservedState::Deadline {
                        remaining: n,
                        interval: t,
                    },
                );
                assert_eq!(got, direct.price(n, t), "campaign {i} at (n={n}, t={t})");
            }
        }
    }
    for (j, problem) in varied_budget_problems().into_iter().enumerate() {
        let direct = solve_budget_mdp(&problem).unwrap();
        let b = problem.budget.floor() as usize;
        let got = price(
            1000 + j as u64,
            ObservedState::Budget {
                remaining: problem.n_tasks,
                budget_cents: b,
            },
        );
        assert_eq!(got, f64::from(direct.price(problem.n_tasks, b).unwrap()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn poisson_cdf_sf_complement(lambda in 0.01f64..500.0, k in 0u64..200) {
        let d = Poisson::new(lambda);
        let total = d.cdf(k) + d.sf(k + 1);
        prop_assert!((total - 1.0).abs() < 1e-8, "cdf+sf = {total}");
    }

    // The range runs past λ ≈ 708, where `exp(−λ)` stops being a normal
    // float (and past 745, where it underflows to 0): there the bracketed
    // fallback decides instead of the pmf pass.
    #[test]
    fn poisson_truncation_point_is_valid(lambda in 0.01f64..2000.0, exp in 2u32..10) {
        let eps = 10f64.powi(-(exp as i32));
        let d = Poisson::new(lambda);
        let s0 = d.truncation_point(eps);
        prop_assert!(d.sf(s0) <= eps);
        prop_assert!(s0 == 0 || d.sf(s0 - 1) > eps);
    }

    #[test]
    fn hull_points_lie_below_input(xs in proptest::collection::vec((0.0f64..100.0, 0.1f64..50.0), 3..40)) {
        let pts: Vec<Point> = xs.iter().map(|&(x, y)| Point::new(x, y)).collect();
        let hull = lower_hull(&pts);
        prop_assert!(!hull.is_empty());
        for &p in &pts {
            prop_assert!(above_or_on_hull(&hull, p), "point below hull: {p:?}");
        }
        // Hull x-coordinates strictly increase.
        for w in hull.windows(2) {
            prop_assert!(w[1].x > w[0].x);
        }
    }

    #[test]
    fn theorem5_order_invariance(prices in proptest::collection::vec(1u32..50, 1..20)) {
        let acc = LogitAcceptance::paper_eq13();
        let a = SemiStaticStrategy::new(prices.clone());
        let mut sorted = prices;
        sorted.sort_unstable_by(|x, y| y.cmp(x));
        let b = SemiStaticStrategy::new(sorted);
        let wa = a.expected_arrivals(|c| acc.p(c));
        let wb = b.expected_arrivals(|c| acc.p(c));
        prop_assert!((wa - wb).abs() < 1e-9 * wa.max(1.0));
    }

    #[test]
    fn logit_acceptance_monotone(
        s in 2.0f64..40.0,
        b in -2.0f64..2.0,
        m in 10.0f64..5000.0,
        c in 0u32..100,
    ) {
        let acc = LogitAcceptance::new(s, b, m);
        let p0 = acc.p(c);
        let p1 = acc.p(c + 1);
        prop_assert!(p1 >= p0);
        prop_assert!((0.0..=1.0).contains(&p0));
    }

    #[test]
    fn piecewise_rate_integral_additive(
        rates in proptest::collection::vec(0.0f64..100.0, 1..24),
        split in 0.0f64..1.0,
        periodic in proptest::bool::ANY,
    ) {
        let r = PiecewiseConstantRate::new(0.5, rates, periodic);
        let end = if periodic { 3.0 * r.period_hours() } else { r.period_hours() };
        let mid = split * end;
        let whole = r.integral(0.0, end);
        let parts = r.integral(0.0, mid) + r.integral(mid, end);
        prop_assert!((whole - parts).abs() < 1e-7 * whole.max(1.0));
    }

    #[test]
    fn deadline_policy_monotone_and_solvers_agree(
        n_tasks in 2u32..12,
        nt in 1usize..5,
        lam in 1.0f64..60.0,
        penalty in 10.0f64..2000.0,
        max_price in 4u32..20,
    ) {
        let acc = LogitAcceptance::new(4.0, 0.0, 30.0);
        let problem = DeadlineProblem::from_market(
            n_tasks, nt as f64, nt,
            &ConstantRate::new(lam),
            PriceGrid::new(0, max_price),
            &acc,
            PenaltyModel::Linear { per_task: penalty },
        );
        let simple = solve_simple(&problem).unwrap();
        let efficient = solve_efficient(&problem, 1e-11).unwrap();
        for t in 0..nt {
            // Conjecture 1: monotone prices in n.
            for n in 2..=n_tasks {
                prop_assert!(
                    simple.action_index(n, t) >= simple.action_index(n - 1, t)
                );
            }
            // Solver agreement at tight eps.
            for n in 1..=n_tasks {
                prop_assert_eq!(
                    simple.action_index(n, t),
                    efficient.action_index(n, t),
                    "mismatch at (n={}, t={})", n, t
                );
            }
        }
        // Cost-to-go monotone in n, and evaluation consistent.
        for n in 1..=n_tasks {
            prop_assert!(simple.cost_to_go(n, 0) >= simple.cost_to_go(n - 1, 0) - 1e-9);
        }
        let out = simple.evaluate(&problem);
        prop_assert!((out.expected_total_cost() - simple.expected_total_cost()).abs() < 1e-6);
        let mass: f64 = out.final_distribution.iter().sum();
        prop_assert!((mass - 1.0).abs() < 1e-9);
    }

    #[test]
    fn budget_hull_two_prices_and_feasible(
        n_tasks in 2u32..40,
        budget_per in 2.0f64..30.0,
    ) {
        let acc = LogitAcceptance::new(6.0, -0.5, 100.0);
        let problem = BudgetProblem::new(
            n_tasks,
            budget_per * n_tasks as f64,
            ActionSet::from_grid(PriceGrid::new(1, 35), &acc),
            100.0,
        );
        match solve_budget_hull(&problem) {
            Ok(sol) => {
                prop_assert!(sol.strategy.counts().len() <= 2);
                prop_assert!(sol.strategy.within_budget(problem.budget));
                prop_assert_eq!(sol.strategy.n_tasks(), n_tasks);
                prop_assert!(sol.expected_arrivals >= sol.lp_lower_bound - 1e-9);
                prop_assert!(
                    sol.expected_arrivals
                        <= sol.lp_lower_bound + sol.rounding_gap_bound + 1e-9
                );
            }
            Err(PricingError::Infeasible(_)) => {
                // Only possible when the budget can't cover the min price.
                prop_assert!(budget_per < 1.0 + 1e-9);
            }
            Err(e) => prop_assert!(false, "unexpected error: {e}"),
        }
    }

    #[test]
    fn fixed_price_binary_search_minimal(
        n_tasks in 1u32..50,
        arrivals in 100.0f64..20000.0,
    ) {
        let acc = LogitAcceptance::new(6.0, -0.5, 100.0);
        let actions = ActionSet::from_grid(PriceGrid::new(0, 35), &acc);
        match solve_fixed_price(&actions, arrivals, n_tasks, 0.99) {
            Ok(sol) => {
                // Minimality: one cent less fails the confidence.
                if let Some(idx) = actions.index_of_reward(sol.reward) {
                    if idx > 0 {
                        let below = actions.get(idx - 1);
                        let conf = Poisson::new(arrivals * below.accept).sf(n_tasks as u64);
                        prop_assert!(conf < 0.99);
                    }
                }
                prop_assert!(sol.prob_all_done >= 0.99);
            }
            Err(PricingError::Infeasible(_)) => {
                let best = actions.get(actions.len() - 1);
                let conf = Poisson::new(arrivals * best.accept).sf(n_tasks as u64);
                prop_assert!(conf < 0.99);
            }
            Err(e) => prop_assert!(false, "unexpected error: {e}"),
        }
    }
}
