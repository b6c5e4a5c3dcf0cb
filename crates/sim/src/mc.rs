//! Monte-Carlo execution of pricing controllers against a ground-truth
//! marketplace model — the counterpart to `ft-core`'s exact forward
//! evaluation, and the only way to get full outcome *distributions*
//! (completion-time histograms, remaining-task tails).
//!
//! The true model may differ from what the controller was trained on
//! (Sections 5.2.4/5.2.5).

use ft_core::policy::PriceController;
use ft_stats::{rng::stream_rng, Poisson};
use serde::{Deserialize, Serialize};

/// Ground-truth marketplace dynamics for simulation.
pub struct TrueModel<'a, F: Fn(f64) -> f64 + Sync> {
    /// Expected worker arrivals per interval.
    pub interval_arrivals: &'a [f64],
    /// True acceptance probability at a posted reward.
    pub accept: F,
    /// Wall-clock hours covered by the intervals (for finish times).
    pub horizon_hours: f64,
}

/// One simulated campaign.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrialResult {
    /// Total rewards paid.
    pub paid: f64,
    /// Tasks completed by the deadline.
    pub completed: u32,
    /// Tasks remaining at the deadline.
    pub remaining: u32,
    /// Hour at which the batch finished (end of the finishing interval),
    /// if it finished.
    pub finish_hours: Option<f64>,
}

/// Monte-Carlo configuration.
#[derive(Debug, Clone, Copy)]
pub struct McConfig {
    pub trials: usize,
    pub seed: u64,
    /// Worker threads (0 = available parallelism).
    pub threads: usize,
}

impl Default for McConfig {
    fn default() -> Self {
        Self {
            trials: 1000,
            seed: 0xF15E,
            threads: 0,
        }
    }
}

/// Simulate one campaign: per interval, draw completions
/// `X ~ Pois(λ_t · p(price))`, capped by the remaining count.
pub fn simulate_once<C, F, R>(
    controller: &C,
    model: &TrueModel<'_, F>,
    n_tasks: u32,
    rng: &mut R,
) -> TrialResult
where
    C: PriceController + ?Sized,
    F: Fn(f64) -> f64 + Sync,
    R: rand::Rng + ?Sized,
{
    let nt = model.interval_arrivals.len();
    let dt = model.horizon_hours / nt as f64;
    let mut remaining = n_tasks;
    let mut paid = 0.0f64;
    let mut finish = None;
    for (t, &lam) in model.interval_arrivals.iter().enumerate() {
        if remaining == 0 {
            break;
        }
        let price = controller.price(remaining, t);
        let p = (model.accept)(price).clamp(0.0, 1.0);
        let x = Poisson::new(lam * p).sample(rng) as u32;
        let done = x.min(remaining);
        paid += done as f64 * price;
        remaining -= done;
        if remaining == 0 {
            finish = Some((t + 1) as f64 * dt);
        }
    }
    TrialResult {
        paid,
        completed: n_tasks - remaining,
        remaining,
        finish_hours: finish,
    }
}

/// Run many trials, parallelized over threads with decorrelated per-trial
/// RNG streams; results are deterministic for a given seed and independent
/// of the thread count.
pub fn run_mc<C, F>(
    controller: &C,
    model: &TrueModel<'_, F>,
    n_tasks: u32,
    cfg: McConfig,
) -> Vec<TrialResult>
where
    C: PriceController + Sync + ?Sized,
    F: Fn(f64) -> f64 + Sync,
{
    assert!(cfg.trials > 0, "need at least one trial");
    let mut results = vec![
        TrialResult {
            paid: 0.0,
            completed: 0,
            remaining: 0,
            finish_hours: None
        };
        cfg.trials
    ];
    // Per-trial RNG streams are derived from (seed, trial index), so the
    // chunk decomposition ft-exec picks cannot affect the results — the
    // same persistent worker pool also drives the solver kernel and
    // the campaign registry, so repeated MC sweeps reuse parked workers
    // instead of spawning a fresh set per call.
    ft_exec::par_chunks_mut(&mut results, 16, cfg.threads, |start, slot| {
        for (j, out) in slot.iter_mut().enumerate() {
            let mut rng = stream_rng(cfg.seed, (start + j) as u64);
            *out = simulate_once(controller, model, n_tasks, &mut rng);
        }
    });
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_core::policy::FixedPrice;

    fn model(arrivals: &[f64]) -> TrueModel<'_, impl Fn(f64) -> f64 + Sync> {
        TrueModel {
            interval_arrivals: arrivals,
            accept: |c: f64| (c / 100.0).min(1.0),
            horizon_hours: arrivals.len() as f64,
        }
    }

    #[test]
    fn conservation_and_bounds() {
        let arrivals = vec![50.0; 8];
        let m = model(&arrivals);
        let out = run_mc(
            &FixedPrice(10.0),
            &m,
            40,
            McConfig {
                trials: 200,
                seed: 1,
                threads: 2,
            },
        );
        assert_eq!(out.len(), 200);
        for r in &out {
            assert_eq!(r.completed + r.remaining, 40);
            assert!((r.paid - r.completed as f64 * 10.0).abs() < 1e-9);
            if let Some(f) = r.finish_hours {
                assert!(f > 0.0 && f <= 8.0);
            } else {
                assert!(r.remaining > 0);
            }
        }
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let arrivals = vec![30.0; 6];
        let m = model(&arrivals);
        let a = run_mc(
            &FixedPrice(20.0),
            &m,
            25,
            McConfig {
                trials: 64,
                seed: 7,
                threads: 1,
            },
        );
        let b = run_mc(
            &FixedPrice(20.0),
            &m,
            25,
            McConfig {
                trials: 64,
                seed: 7,
                threads: 4,
            },
        );
        assert_eq!(a, b);
    }

    #[test]
    fn mc_matches_exact_expectation() {
        // Expected completions per interval: λp = 50·0.1 = 5; 8 intervals,
        // 100 tasks → E[completed] ≈ 40 (never hits the cap).
        let arrivals = vec![50.0; 8];
        let m = model(&arrivals);
        let out = run_mc(
            &FixedPrice(10.0),
            &m,
            100,
            McConfig {
                trials: 4000,
                seed: 3,
                threads: 0,
            },
        );
        let mean = out.iter().map(|r| r.completed as f64).sum::<f64>() / out.len() as f64;
        assert!((mean - 40.0).abs() < 0.6, "mean completed {mean}");
    }

    #[test]
    fn higher_price_finishes_more() {
        let arrivals = vec![40.0; 5];
        let m = model(&arrivals);
        let cheap = run_mc(
            &FixedPrice(5.0),
            &m,
            60,
            McConfig {
                trials: 500,
                seed: 4,
                threads: 0,
            },
        );
        let rich = run_mc(
            &FixedPrice(50.0),
            &m,
            60,
            McConfig {
                trials: 500,
                seed: 4,
                threads: 0,
            },
        );
        let mean =
            |v: &[TrialResult]| v.iter().map(|r| r.completed as f64).sum::<f64>() / v.len() as f64;
        assert!(mean(&rich) > mean(&cheap) + 10.0);
    }
}
