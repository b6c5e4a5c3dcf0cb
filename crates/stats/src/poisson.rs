//! Poisson distribution: the completion-count law of the thinned NHPP model
//! (Eq. 1 of the paper), plus the tail-truncation machinery of Section 3.2.

use crate::special::{gamma_p, gamma_q, ln_factorial};
use rand::Rng;

/// Largest mean (exclusive) [`Poisson::truncation_point`] accepts: 2⁶².
const MAX_TRUNCATION_MEAN: f64 = 4_611_686_018_427_387_904.0;

/// Most pmf terms [`Poisson::tail_crossing_from_above`] sums: its walk
/// spans ≈ 3σ, so this reaches the crossing for λ up to ≈ 10¹¹.
const MAX_TAIL_WALK: u64 = 1 << 20;

/// Poisson distribution with mean `lambda ≥ 0`.
///
/// `lambda == 0` is allowed and denotes the degenerate distribution at 0;
/// it arises naturally when a price of 0 yields acceptance probability 0 or
/// when an interval has no worker arrivals.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Poisson {
    lambda: f64,
}

impl Poisson {
    /// Create a Poisson distribution. Panics if `lambda` is negative or NaN.
    pub fn new(lambda: f64) -> Self {
        assert!(
            lambda >= 0.0 && lambda.is_finite(),
            "Poisson mean must be finite and non-negative, got {lambda}"
        );
        Self { lambda }
    }

    /// The mean (and variance) of the distribution.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Natural log of `Pr[X = k]`.
    pub fn ln_pmf(&self, k: u64) -> f64 {
        if self.lambda == 0.0 {
            return if k == 0 { 0.0 } else { f64::NEG_INFINITY };
        }
        k as f64 * self.lambda.ln() - self.lambda - ln_factorial(k)
    }

    /// `Pr[X = k]`.
    pub fn pmf(&self, k: u64) -> f64 {
        self.ln_pmf(k).exp()
    }

    /// `Pr[X ≤ k]`, via the regularized upper incomplete gamma identity
    /// `Pr[Pois(λ) ≤ k] = Q(k + 1, λ)`.
    pub fn cdf(&self, k: u64) -> f64 {
        if self.lambda == 0.0 {
            return 1.0;
        }
        gamma_q(k as f64 + 1.0, self.lambda)
    }

    /// Survival `Pr[X ≥ k]` (note: inclusive, matching the paper's
    /// `Pr(Pois(·|λ) ≥ s)` notation).
    pub fn sf(&self, k: u64) -> f64 {
        if k == 0 {
            return 1.0;
        }
        if self.lambda == 0.0 {
            return 0.0;
        }
        gamma_p(k as f64, self.lambda)
    }

    /// Smallest `k` with `Pr[X ≤ k] ≥ q`, for `q ∈ [0, 1)`.
    pub fn quantile(&self, q: f64) -> u64 {
        assert!(
            (0.0..1.0).contains(&q),
            "quantile needs q in [0,1), got {q}"
        );
        if self.lambda == 0.0 {
            return 0;
        }
        // Bracket with a normal-approximation guess, then walk.
        let sigma = self.lambda.sqrt();
        let mut k = (self.lambda + 4.0 * sigma * (q - 0.5)).max(0.0) as u64;
        while self.cdf(k) < q {
            k += 1;
        }
        while k > 0 && self.cdf(k - 1) >= q {
            k -= 1;
        }
        k
    }

    /// The truncation point `s0` of Section 3.2: the smallest `s` such that
    /// `Pr[X ≥ s] ≤ eps`. All DP transition terms with `s ≥ s0` may be
    /// dropped with total probability mass at most `eps` (Theorem 1).
    ///
    /// One pass of the pmf recurrence proposes `s0`; the exact predicate
    /// `sf(s) ≤ eps` then confirms it at `s0` and `s0 − 1`, searching
    /// outward while either check fails — two `gamma_p` calls in the
    /// common case. Below λ ≈ 708 the pass sums the head upward from 0;
    /// above it (`exp(−λ)` underflows), or when rounding holds the running
    /// tail above `eps`, it sums the tail downward from a point past the
    /// crossing.
    ///
    /// Panics unless `eps ∈ (0, 1)` and `λ < 2⁶²`, so that every point the
    /// pass and the search visit fits a `u64`. The answer is exact only
    /// while `s0` is an exact f64, i.e. below 2⁵³, and while the
    /// incomplete-gamma loops converge within their term cap, i.e. for
    /// λ up to ≈ 10¹⁰; past that the tail reads short and `s0`
    /// undershoots.
    pub fn truncation_point(&self, eps: f64) -> u64 {
        assert!(eps > 0.0 && eps < 1.0, "eps must be in (0,1), got {eps}");
        assert!(
            self.lambda < MAX_TRUNCATION_MEAN,
            "truncation point needs λ below 2⁶², got {}",
            self.lambda
        );
        if self.lambda == 0.0 {
            return 1;
        }
        let guess = self
            .tail_crossing_guess(eps)
            .unwrap_or_else(|| self.tail_crossing_from_above(eps));
        self.settle_truncation_point(guess, eps)
    }

    /// Candidate `s0` from one pass of the pmf recurrence: the first `s`
    /// whose tail `1 − Σ_{k<s} pmf(k)` is at most `eps`. `None` when
    /// `exp(−λ)` is not a normal float, or when the pmf terms past the
    /// mode have fallen far below `eps` while rounding in the running
    /// head keeps the tail above it.
    fn tail_crossing_guess(&self, eps: f64) -> Option<u64> {
        let lambda = self.lambda;
        let mut p = (-lambda).exp();
        if p < f64::MIN_POSITIVE {
            return None;
        }
        let mut head = p;
        let mut k = 0u64;
        while 1.0 - head > eps {
            k += 1;
            p *= lambda / k as f64;
            head += p;
            if k as f64 > lambda && (p < eps * 1e-3 || p == 0.0) {
                return None;
            }
        }
        Some(k + 1)
    }

    /// Candidate `s0` from the far side: start where Bernstein's
    /// inequality, `Pr[X ≥ λ + t] ≤ exp(−t² / (2(λ + t/3)))`, puts the tail
    /// below `eps · 2⁻³⁰`, and sum pmf terms downward, the first one seeded
    /// in log space, until the tail passes `eps`. Terms are carried as
    /// multiples of `eps`, so no `eps` underflows them. Unlike `1 − head`
    /// the sum has only relative error, however far the crossing lies
    /// from the mode. The walk spans ≈ 3σ and stops after
    /// [`MAX_TAIL_WALK`] terms (λ past ≈ 10¹¹), leaving the rest to the
    /// settling search.
    fn tail_crossing_from_above(&self, eps: f64) -> u64 {
        let lambda = self.lambda;
        let bound = -eps.ln() + 30.0 * std::f64::consts::LN_2;
        let t = bound / 3.0 + (bound * bound / 9.0 + 2.0 * bound * lambda).sqrt();
        let mut k = (lambda + t).ceil() as u64;
        let mut term = (self.ln_pmf(k) - eps.ln()).exp();
        // Pr[X ≥ k] / eps, short of the neglected part past the start.
        let mut tail = term;
        for _ in 0..MAX_TAIL_WALK {
            if tail > 1.0 || k <= 1 {
                break;
            }
            term *= k as f64 / lambda;
            k -= 1;
            tail += term;
        }
        k + 1
    }

    /// Move `guess` to the point where the exact survival function
    /// crosses `eps`, `sf(s) ≤ eps < sf(s − 1)`: steps outward from the
    /// guess, doubling, bracket the crossing, and bisection closes the
    /// bracket. A guess that is exact, or one too low, costs two `sf`
    /// calls; one `d` off costs about `2·log₂ d`, so even a guess the
    /// predicate disagrees with (past the term cap) settles promptly.
    fn settle_truncation_point(&self, guess: u64, eps: f64) -> u64 {
        // sf(lo) > eps ≥ sf(hi) once bracketed; sf(0) = 1 > eps.
        let start = guess.max(1);
        let (mut lo, mut hi);
        let mut step = 1u64;
        if self.sf(start) > eps {
            lo = start;
            loop {
                hi = lo.saturating_add(step);
                if self.sf(hi) <= eps {
                    break;
                }
                lo = hi;
                step = step.saturating_mul(2);
            }
        } else {
            hi = start;
            loop {
                lo = hi.saturating_sub(step);
                if lo == 0 || self.sf(lo) > eps {
                    break;
                }
                hi = lo;
                step = step.saturating_mul(2);
            }
        }
        while lo + 1 < hi {
            let mid = lo + (hi - lo) / 2;
            if self.sf(mid) <= eps {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        hi
    }

    /// [`Poisson::truncation_point`] by exponential bracketing above the
    /// mean and bisection on the survival function: the reference the
    /// guesses and the settling search are tested against.
    #[cfg(test)]
    fn truncation_point_bracketed(&self, eps: f64) -> u64 {
        let mut lo = self.lambda.floor() as u64; // sf(lo) ~ 0.5 > eps for eps << 1
        if self.sf(lo) <= eps {
            lo = 0;
        }
        let mut hi = (self.lambda.ceil() as u64 + 2).max(4);
        while self.sf(hi) > eps {
            hi *= 2;
        }
        while lo + 1 < hi {
            let mid = lo + (hi - lo) / 2;
            if self.sf(mid) <= eps {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        hi
    }

    /// Draw one sample.
    ///
    /// Small means use Knuth's product-of-uniforms method; large means use a
    /// two-sided sequential search from the mode driven by a single uniform,
    /// which is exact and `O(√λ)` expected per draw.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        if self.lambda == 0.0 {
            return 0;
        }
        if self.lambda < 30.0 {
            self.sample_knuth(rng)
        } else {
            self.sample_inversion_from_mode(rng)
        }
    }

    fn sample_knuth<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let l = (-self.lambda).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= rng.gen::<f64>();
            if p <= l {
                return k;
            }
            k += 1;
        }
    }

    fn sample_inversion_from_mode<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let u: f64 = rng.gen();
        let mode = self.lambda.floor() as u64;
        let p_mode = self.pmf(mode);
        // CDF up to and including the mode; then walk outward.
        let f_mode = self.cdf(mode);
        if u <= f_mode {
            // Walk downward from the mode.
            if u > f_mode - p_mode {
                return mode;
            }
            let mut k = mode;
            let mut f = f_mode - p_mode;
            let mut p = p_mode;
            while k > 0 {
                p *= k as f64 / self.lambda;
                k -= 1;
                if u > f - p {
                    return k;
                }
                f -= p;
            }
            0
        } else {
            // Walk upward from the mode.
            let mut k = mode;
            let mut f = f_mode;
            let mut p = p_mode;
            loop {
                k += 1;
                p *= self.lambda / k as f64;
                f += p;
                if u <= f || p < 1e-300 {
                    return k;
                }
            }
        }
    }

    /// Fill `out[s] = Pr[X = s]` for `s = 0..out.len()`, using the stable
    /// multiplicative recurrence. Returns the total mass written.
    ///
    /// This is the inner-loop primitive of the DP solvers: one pass per
    /// `(interval, price)` pair.
    pub fn pmf_prefix(&self, out: &mut [f64]) -> f64 {
        if out.is_empty() {
            return 0.0;
        }
        if self.lambda == 0.0 {
            out[0] = 1.0;
            for v in &mut out[1..] {
                *v = 0.0;
            }
            return 1.0;
        }
        let mut total = 0.0;
        // Start from ln pmf(0) to stay stable for large λ where pmf(0)
        // underflows: switch to log-space seeding at the first index.
        let mut p = (-self.lambda).exp();
        if p == 0.0 {
            // λ is huge; seed each value from log-space instead.
            for (s, v) in out.iter_mut().enumerate() {
                *v = self.pmf(s as u64);
                total += *v;
            }
            return total;
        }
        for (s, v) in out.iter_mut().enumerate() {
            if s > 0 {
                p *= self.lambda / s as f64;
            }
            *v = p;
            total += p;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded_rng;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "expected {b}, got {a} (tol {tol})");
    }

    #[test]
    fn pmf_sums_to_one() {
        for &lambda in &[0.1, 1.0, 5.0, 20.0, 100.0] {
            let d = Poisson::new(lambda);
            let sum: f64 = (0..(lambda as u64 * 3 + 50)).map(|k| d.pmf(k)).sum();
            assert_close(sum, 1.0, 1e-10);
        }
    }

    #[test]
    fn degenerate_zero_lambda() {
        let d = Poisson::new(0.0);
        assert_eq!(d.pmf(0), 1.0);
        assert_eq!(d.pmf(3), 0.0);
        assert_eq!(d.cdf(0), 1.0);
        assert_eq!(d.sf(1), 0.0);
        assert_eq!(d.quantile(0.999), 0);
        let mut rng = seeded_rng(1);
        assert_eq!(d.sample(&mut rng), 0);
    }

    #[test]
    fn cdf_matches_direct_sum() {
        let d = Poisson::new(7.3);
        let mut acc = 0.0;
        for k in 0..30 {
            acc += d.pmf(k);
            assert_close(d.cdf(k), acc, 1e-10);
        }
    }

    #[test]
    fn sf_complements_cdf() {
        let d = Poisson::new(12.5);
        for k in 1..40u64 {
            assert_close(d.sf(k), 1.0 - d.cdf(k - 1), 1e-10);
        }
        assert_eq!(d.sf(0), 1.0);
    }

    #[test]
    fn paper_table1_truncation_points() {
        // Table 1 of the paper: eps = 1e-9 gives s0 = 35, 53, 99 for
        // λ = 10, 20, 50.
        let eps = 1e-9;
        assert_eq!(Poisson::new(10.0).truncation_point(eps), 35);
        assert_eq!(Poisson::new(20.0).truncation_point(eps), 53);
        assert_eq!(Poisson::new(50.0).truncation_point(eps), 99);
    }

    #[test]
    fn truncation_point_is_tight() {
        for &lambda in &[0.5, 3.0, 17.0, 250.0] {
            for &eps in &[1e-3, 1e-6, 1e-9] {
                let d = Poisson::new(lambda);
                let s0 = d.truncation_point(eps);
                assert!(d.sf(s0) <= eps, "sf({s0}) > eps for λ={lambda}");
                assert!(
                    s0 == 0 || d.sf(s0 - 1) > eps,
                    "s0 not minimal for λ={lambda}, eps={eps}"
                );
            }
        }
    }

    /// The pmf-pass truncation point must equal the bracketed search on
    /// a dense (λ, ε) grid: λ ∈ [1e-6, 3000] in ≈1.4% geometric steps
    /// (coarser under Miri), plus means whose `exp(−λ)` underflows.
    #[test]
    fn truncation_point_matches_bracketed_search() {
        let step = if cfg!(miri) { 1.5 } else { 1.014 };
        let mut lambdas = Vec::new();
        let mut lambda = 1e-6;
        while lambda <= 3000.0 {
            lambdas.push(lambda);
            lambda *= step;
        }
        lambdas.extend([746.0, 900.0, 5000.0]);
        for &lambda in &lambdas {
            let d = Poisson::new(lambda);
            for eps in [1e-3, 1e-6, 1e-8, 1e-9, 1e-12, 1e-15] {
                let s0 = d.truncation_point(eps);
                assert_eq!(s0, d.truncation_point_bracketed(eps), "λ={lambda}, ε={eps}");
                assert!(d.sf(s0) <= eps && d.sf(s0 - 1) > eps, "λ={lambda}, ε={eps}");
            }
        }
    }

    /// `Pr[X ≥ s]` summed from an independent pmf: Stirling's series
    /// for `ln s!`, written around the mean with `ln_1p` so the large
    /// terms cancel exactly, then the recurrence `pmf(k+1) = pmf(k)·λ/(k+1)`
    /// until the terms stop counting. Shares no code with
    /// `special.rs`.
    fn independent_tail(lambda: f64, s: u64) -> f64 {
        let k = s as f64;
        let d = k - lambda;
        let ln_pmf = d
            - k * (d / lambda).ln_1p()
            - 0.5 * (2.0 * std::f64::consts::PI * k).ln()
            - 1.0 / (12.0 * k)
            + 1.0 / (360.0 * k * k * k);
        let mut term = ln_pmf.exp();
        let mut tail = 0.0;
        let mut k = s;
        while term > tail * 1e-20 {
            tail += term;
            k += 1;
            term *= lambda / k as f64;
        }
        tail
    }

    /// Means far above the paper's need many more incomplete-gamma terms
    /// than its own (≈ 7·√λ near the mean); with too few, the tail read
    /// short and `s₀` undershot (at λ = 10⁹ by ≈ 13 000, leaving 11× ε
    /// behind). An independently summed tail must put `s₀` exactly at
    /// the crossing.
    #[test]
    #[cfg_attr(
        miri,
        ignore = "millions of loop iterations; a numeric check, not a UB one"
    )]
    fn large_means_truncate_at_the_exact_crossing() {
        let eps = 1e-9;
        for lambda in [1e6, 1e8, 1e9] {
            let s0 = Poisson::new(lambda).truncation_point(eps);
            let (at, below) = (
                independent_tail(lambda, s0),
                independent_tail(lambda, s0 - 1),
            );
            assert!(
                at <= eps && below > eps,
                "λ={lambda}: s₀ = λ + {}, tail(s₀) = {at:e}, tail(s₀ − 1) = {below:e}",
                s0 as f64 - lambda
            );
        }
    }

    /// Past λ ≈ 708 the guess comes from the downward tail walk, not the
    /// head; s₀ must still be the bracketed search's at every mean the
    /// registry can ask for (up to 4·10⁹, the arrival bound times the
    /// default `max_correction`), at the paper's ε and either side of it.
    #[test]
    #[cfg_attr(
        miri,
        ignore = "millions of loop iterations; a numeric check, not a UB one"
    )]
    fn large_mean_truncation_points_match_bracketed_search() {
        for lambda in [709.0, 1e3, 1e4, 1e6, 1e8, 1e9, 4e9] {
            let d = Poisson::new(lambda);
            for eps in [1e-6, 1e-9, 1e-12] {
                assert_eq!(
                    d.truncation_point(eps),
                    d.truncation_point_bracketed(eps),
                    "λ={lambda}, ε={eps}"
                );
            }
        }
    }

    /// A guess far off the crossing settles in logarithmically many
    /// steps, from either side, onto the bracketed search's answer.
    #[test]
    fn settling_search_corrects_a_distant_guess() {
        let d = Poisson::new(50.0);
        let s0 = d.truncation_point_bracketed(1e-9);
        for guess in [0, 1, s0 - 40, s0 - 1, s0, s0 + 1, s0 + 1000, 1 << 40] {
            assert_eq!(d.settle_truncation_point(guess, 1e-9), s0, "guess {guess}");
        }
    }

    /// Past 2⁶² the points the search visits leave `u64`: the call
    /// panics at once instead of overflowing (debug) or spinning forever
    /// (release). Just inside the bound it still returns.
    #[test]
    #[should_panic(expected = "truncation point needs λ below 2⁶², got 100000000000000000000")]
    fn truncation_point_refuses_means_past_its_bound() {
        Poisson::new(MAX_TRUNCATION_MEAN / 2.0).truncation_point(1e-9);
        Poisson::new(1e20).truncation_point(1e-9);
    }

    #[test]
    fn quantile_inverts_cdf() {
        let d = Poisson::new(9.0);
        for &q in &[0.01, 0.25, 0.5, 0.75, 0.99, 0.9999] {
            let k = d.quantile(q);
            assert!(d.cdf(k) >= q);
            assert!(k == 0 || d.cdf(k - 1) < q);
        }
    }

    #[test]
    fn sample_mean_and_variance_small_lambda() {
        let d = Poisson::new(4.2);
        let mut rng = seeded_rng(42);
        let n = 200_000;
        let samples: Vec<u64> = (0..n).map(|_| d.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<u64>() as f64 / n as f64;
        let var = samples
            .iter()
            .map(|&x| (x as f64 - mean).powi(2))
            .sum::<f64>()
            / n as f64;
        assert_close(mean, 4.2, 0.05);
        assert_close(var, 4.2, 0.15);
    }

    #[test]
    fn sample_mean_large_lambda() {
        let d = Poisson::new(1700.0);
        let mut rng = seeded_rng(7);
        let n = 20_000;
        let mean = (0..n).map(|_| d.sample(&mut rng)).sum::<u64>() as f64 / n as f64;
        assert_close(mean, 1700.0, 2.0);
    }

    #[test]
    fn pmf_prefix_matches_pmf() {
        for &lambda in &[0.0, 2.5, 60.0, 900.0] {
            let d = Poisson::new(lambda);
            let mut buf = vec![0.0; 64];
            let total = d.pmf_prefix(&mut buf);
            for (s, &v) in buf.iter().enumerate() {
                assert_close(v, d.pmf(s as u64), 1e-12);
            }
            assert_close(total, d.cdf(63), 1e-9);
        }
    }
}
