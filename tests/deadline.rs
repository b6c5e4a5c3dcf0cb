//! Cross-crate integration tests for the fixed-deadline pipeline:
//! tracker trace → trained arrival model → MDP solvers → policy
//! execution, plus serialization round-trips.

use finish_them::core::calibrate_penalty;
use finish_them::market::tracker::weekly_average_rate;
use finish_them::prelude::*;
use finish_them::sim::{run_mc, Aggregate, McConfig, TrueModel};

fn trained_problem(n_tasks: u32, hours: f64, max_price: u32) -> DeadlineProblem {
    let mut rng = seeded_rng(42);
    let trace = TrackerTrace::generate(TrackerConfig::default(), &mut rng);
    let rate = weekly_average_rate(&trace).scaled(0.3);
    let n_intervals = (hours * 3.0) as usize;
    DeadlineProblem::from_market(
        n_tasks,
        hours,
        n_intervals,
        &rate,
        PriceGrid::new(0, max_price),
        &LogitAcceptance::paper_eq13(),
        PenaltyModel::Linear { per_task: 200.0 },
    )
}

#[test]
fn all_three_solvers_agree_end_to_end() {
    let problem = trained_problem(25, 4.0, 30);
    let simple = solve_simple(&problem).unwrap();
    let truncated = solve_truncated(&problem, 1e-10).unwrap();
    let efficient = solve_efficient(&problem, 1e-10).unwrap();
    for t in 0..problem.n_intervals() {
        for n in 1..=25u32 {
            assert_eq!(truncated.action_index(n, t), efficient.action_index(n, t));
        }
    }
    let c_simple = simple.expected_total_cost();
    let c_trunc = truncated.expected_total_cost();
    assert!((c_simple - c_trunc).abs() < 1e-6, "{c_simple} vs {c_trunc}");
}

#[test]
fn dp_cost_equals_forward_evaluation_end_to_end() {
    let problem = trained_problem(20, 4.0, 30);
    let policy = solve_simple(&problem).unwrap();
    let out = policy.evaluate(&problem);
    assert!((policy.expected_total_cost() - out.expected_total_cost()).abs() < 1e-7);
}

#[test]
fn monte_carlo_confirms_exact_evaluation() {
    let problem = trained_problem(20, 4.0, 30);
    let cal = calibrate_penalty(&problem, 1.0, CalibrateOptions::default()).unwrap();
    let acceptance = LogitAcceptance::paper_eq13();
    let model = TrueModel {
        interval_arrivals: &problem.interval_arrivals,
        accept: |c: f64| acceptance.p_f64(c),
        horizon_hours: 4.0,
    };
    let trials = run_mc(
        &cal.policy,
        &model,
        20,
        McConfig {
            trials: 3000,
            seed: 5,
            threads: 0,
        },
    );
    let agg = Aggregate::from_trials(&trials);
    // Monte-Carlo means must match the exact forward pass within CI.
    assert!(
        (agg.mean_paid - cal.outcome.expected_paid).abs() < 4.0 * agg.paid_ci95.max(1.0),
        "MC paid {} vs exact {}",
        agg.mean_paid,
        cal.outcome.expected_paid
    );
    assert!(
        (agg.mean_remaining - cal.outcome.expected_remaining).abs() < 0.25,
        "MC remaining {} vs exact {}",
        agg.mean_remaining,
        cal.outcome.expected_remaining
    );
}

#[test]
fn policy_serde_roundtrip() {
    let problem = trained_problem(10, 2.0, 20);
    let policy = solve_truncated(&problem, 1e-9).unwrap();
    let json = serde_json::to_string(&policy).unwrap();
    let back: DeadlinePolicy = serde_json::from_str(&json).unwrap();
    assert_eq!(policy, back);
    assert_eq!(back.price(10, 0), policy.price(10, 0));
}

#[test]
fn problem_serde_roundtrip() {
    let problem = trained_problem(10, 2.0, 20);
    let json = serde_json::to_string(&problem).unwrap();
    let back: DeadlineProblem = serde_json::from_str(&json).unwrap();
    assert_eq!(problem, back);
}

#[test]
fn dynamic_cheaper_than_fixed_at_same_confidence() {
    // The end-to-end headline: dynamic ≤ fixed cost at matched confidence.
    let problem = trained_problem(25, 6.0, 40);
    let cal = calibrate_penalty(&problem, 0.001, CalibrateOptions::default()).unwrap();
    let fixed = solve_fixed_price(&problem.actions, problem.total_arrivals(), 25, 0.999).unwrap();
    assert!(
        cal.outcome.expected_paid <= fixed.total_cost + 1e-9,
        "dynamic {} should not exceed fixed {}",
        cal.outcome.expected_paid,
        fixed.total_cost
    );
}

#[test]
fn price_controller_is_object_safe_and_clamps() {
    let problem = trained_problem(10, 2.0, 20);
    let policy = solve_truncated(&problem, 1e-9).unwrap();
    let controllers: Vec<Box<dyn PriceController>> =
        vec![Box::new(policy.clone()), Box::new(FixedPrice(9.0))];
    for c in &controllers {
        // Out-of-range states must clamp, not panic.
        let p = c.price(10_000, 10_000);
        assert!((0.0..=40.0).contains(&p));
    }
}

/// Drift re-solves run Algorithm 2 ([`Sweep::MonotoneDivide`]), which
/// rests on Conjecture 1. Gate it on the traffic a server sees: the §5.2
/// deadline problem re-solved from several start intervals, with the
/// trained arrivals scaled by both ends of the correction clamp and by 1,
/// at the registry's and the adaptive pricer's default truncations.
/// Every cell must match the dense Algorithm 1 sweep bit for bit.
#[test]
fn resolves_match_dense_sweep() {
    use finish_them::core::kernel::deadline::solve_deadline;
    use finish_them::core::kernel::{KernelConfig, Sweep, TruncationTable};
    use finish_them::sim::PaperScenario;

    let scenario = PaperScenario::new(42);
    let full = scenario.deadline_problem(500.0);
    let nt = full.n_intervals();
    let serial = KernelConfig::serial();
    for start in [0, nt / 2, nt - 12, nt - 3] {
        for correction in [0.25, 1.0, 4.0] {
            let sub = DeadlineProblem::new(
                full.n_tasks,
                full.interval_arrivals[start..]
                    .iter()
                    .map(|l| l * correction)
                    .collect(),
                full.actions.clone(),
                full.penalty,
            );
            for eps in [1e-8, 1e-9] {
                let trunc = TruncationTable::with_eps(&sub, eps);
                let dense = solve_deadline(&sub, &trunc, Sweep::Dense, &serial).unwrap();
                let divide = solve_deadline(&sub, &trunc, Sweep::MonotoneDivide, &serial).unwrap();
                for t in 0..sub.n_intervals() {
                    for n in 1..=sub.n_tasks {
                        assert_eq!(
                            dense.action_index(n, t),
                            divide.action_index(n, t),
                            "start {start}, correction {correction}, eps {eps}, (n={n}, t={t})"
                        );
                        assert_eq!(
                            dense.cost_to_go(n, t).to_bits(),
                            divide.cost_to_go(n, t).to_bits(),
                            "start {start}, correction {correction}, eps {eps}, (n={n}, t={t})"
                        );
                    }
                }
            }
        }
    }
}
