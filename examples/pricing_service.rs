//! The multi-campaign pricing service: register a heterogeneous batch
//! of campaigns, solve each one, then serve reprice queries from their
//! live policy generations.
//!
//! ```text
//! cargo run --release --example pricing_service
//! ```

use finish_them::core::{CampaignRegistry, CampaignSpec, ObservedState};
use finish_them::prelude::*;

fn main() {
    let registry = CampaignRegistry::new();

    // Three deadline campaigns of different sizes/horizons plus one
    // fixed-budget campaign.
    let acc = LogitAcceptance::paper_eq13();
    for (id, (n_tasks, hours)) in [(200u32, 24.0f64), (500, 12.0), (1000, 48.0)]
        .into_iter()
        .enumerate()
    {
        let problem = DeadlineProblem::from_market(
            n_tasks,
            hours,
            (hours * 3.0) as usize,
            &ConstantRate::new(5100.0),
            PriceGrid::new(0, 40),
            &acc,
            PenaltyModel::Linear { per_task: 1000.0 },
        );
        registry.register_at(id as u64, CampaignSpec::Deadline { problem, eps: None });
    }
    registry.register_at(
        99,
        CampaignSpec::Budget {
            problem: BudgetProblem::new(
                200,
                2500.0,
                ActionSet::from_grid(PriceGrid::new(1, 40), &acc),
                5100.0,
            ),
        },
    );

    let t0 = std::time::Instant::now();
    let ids = [0, 1, 2, 99];
    for id in ids {
        registry.solve(id).unwrap();
    }
    println!(
        "solved {} campaigns in {:.1} ms ({} cached)\n",
        ids.len(),
        t0.elapsed().as_secs_f64() * 1e3,
        registry.len()
    );

    // Reprice some live states: on plan, behind plan, and a budget
    // campaign that has overspent its plan.
    println!("campaign 0 (200 tasks / 24 h): deadline repricing");
    for (remaining, interval) in [(200u32, 0usize), (150, 24), (150, 60), (10, 70)] {
        let price = registry
            .quote(
                0,
                ObservedState::Deadline {
                    remaining,
                    interval,
                },
            )
            .unwrap()
            .price;
        println!("  {remaining:>4} tasks left at interval {interval:>2} → post {price:>2} cents");
    }

    println!("campaign 99 (200 tasks / 2500 cents): budget repricing");
    for (remaining, cents) in [(200u32, 2500usize), (100, 1100), (40, 420), (10, 500)] {
        let price = registry
            .quote(
                99,
                ObservedState::Budget {
                    remaining,
                    budget_cents: cents,
                },
            )
            .unwrap()
            .price;
        println!("  {remaining:>4} tasks left, {cents:>4}¢ unspent → post {price:>2} cents");
    }

    // The hot path is a table lookup; time it.
    let t0 = std::time::Instant::now();
    let queries = 1_000_000u32;
    let mut acc_price = 0.0;
    for i in 0..queries {
        acc_price += registry
            .quote(
                0,
                ObservedState::Deadline {
                    remaining: 1 + i % 200,
                    interval: (i % 72) as usize,
                },
            )
            .unwrap()
            .price;
    }
    let dt = t0.elapsed().as_secs_f64();
    println!(
        "\nreprice hot path: {queries} queries in {:.0} ms ({:.0} ns/query, checksum {acc_price:.0})",
        dt * 1e3,
        dt / queries as f64 * 1e9
    );
}
