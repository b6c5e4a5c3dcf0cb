//! Special functions: log-gamma, log-factorial, error function, and the
//! regularized incomplete gamma functions needed for Poisson tails.

/// Lanczos coefficients for `g = 7`, `n = 9` (Boost/Numerical Recipes variant).
const LANCZOS_G: f64 = 7.0;
#[allow(clippy::excessive_precision)] // published table values, kept verbatim
const LANCZOS: [f64; 9] = [
    0.999_999_999_999_809_93,
    676.520_368_121_885_1,
    -1_259.139_216_722_402_8,
    771.323_428_777_653_13,
    -176.615_029_162_140_6,
    12.507_343_278_686_905,
    -0.138_571_095_265_720_12,
    9.984_369_578_019_571_6e-6,
    1.505_632_735_149_311_6e-7,
];

/// Natural log of the gamma function for `x > 0`.
///
/// Accurate to ~14 significant digits over the domain used by this crate.
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma requires x > 0, got {x}");
    if x < 0.5 {
        // Reflection formula: Γ(x)Γ(1−x) = π / sin(πx).
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = LANCZOS[0];
    for (i, &c) in LANCZOS.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + LANCZOS_G + 0.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// Cached `ln(k!)` for small `k`; falls back to `ln_gamma` above the table.
const LN_FACT_TABLE_LEN: usize = 256;

fn ln_fact_table() -> &'static [f64; LN_FACT_TABLE_LEN] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[f64; LN_FACT_TABLE_LEN]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = [0.0; LN_FACT_TABLE_LEN];
        for k in 2..LN_FACT_TABLE_LEN {
            t[k] = t[k - 1] + (k as f64).ln();
        }
        t
    })
}

/// Natural log of `k!`.
pub fn ln_factorial(k: u64) -> f64 {
    if (k as usize) < LN_FACT_TABLE_LEN {
        ln_fact_table()[k as usize]
    } else {
        ln_gamma(k as f64 + 1.0)
    }
}

/// Error function, evaluated through the regularized incomplete gamma
/// identity `erf(x) = sign(x) · P(1/2, x²)` (accurate to ~1e-14).
pub fn erf(x: f64) -> f64 {
    if x == 0.0 {
        return 0.0;
    }
    let p = gamma_p(0.5, x * x);
    if x > 0.0 {
        p
    } else {
        -p
    }
}

/// Complementary error function `erfc(x) = 1 − erf(x)`, evaluated through
/// `Q(1/2, x²)` for positive `x` so the tail keeps full relative accuracy.
pub fn erfc(x: f64) -> f64 {
    if x == 0.0 {
        return 1.0;
    }
    if x > 0.0 {
        gamma_q(0.5, x * x)
    } else {
        2.0 - gamma_q(0.5, x * x)
    }
}

/// Regularized lower incomplete gamma function `P(a, x)`.
///
/// Uses the series expansion for `x < a + 1` and the continued fraction for
/// the complement otherwise (Numerical Recipes `gammp`).
pub fn gamma_p(a: f64, x: f64) -> f64 {
    assert!(a > 0.0 && x >= 0.0, "gamma_p domain error: a={a}, x={x}");
    if x == 0.0 {
        return 0.0;
    }
    if x < a + 1.0 {
        gamma_p_series(a, x)
    } else {
        1.0 - gamma_q_cf(a, x)
    }
}

/// Regularized upper incomplete gamma function `Q(a, x) = 1 − P(a, x)`.
pub fn gamma_q(a: f64, x: f64) -> f64 {
    assert!(a > 0.0 && x >= 0.0, "gamma_q domain error: a={a}, x={x}");
    if x == 0.0 {
        return 1.0;
    }
    if x < a + 1.0 {
        1.0 - gamma_p_series(a, x)
    } else {
        gamma_q_cf(a, x)
    }
}

/// Most terms either incomplete-gamma loop may take: with
/// [`max_terms`]' √a rule, enough up to a ≈ 1.1·10¹⁰, 2.7× the largest
/// Poisson mean a registry re-solve asks for at the default
/// `max_correction` (4 × 10⁹).
const MAX_GAMMA_TERMS: f64 = 1_048_576.0;

/// Term bound for the series and the continued fraction at shape `a`.
/// Near `x ≈ a` the series took up to 8.1·√a terms to converge, and the
/// continued fraction up to 2·√a, for `a` from 10⁴ to 10⁸, so the bound
/// grows with √a; past [`MAX_GAMMA_TERMS`] the loops stop unconverged,
/// which truncates the tail at huge means instead of running for
/// minutes.
fn max_terms(a: f64) -> usize {
    (500.0 + 10.0 * a.sqrt()).min(MAX_GAMMA_TERMS) as usize
}

fn gamma_p_series(a: f64, x: f64) -> f64 {
    let ln_pre = a * x.ln() - x - ln_gamma(a);
    let mut term = 1.0 / a;
    let mut sum = term;
    let mut ap = a;
    for _ in 0..max_terms(a) {
        ap += 1.0;
        term *= x / ap;
        sum += term;
        if term.abs() < sum.abs() * 1e-16 {
            break;
        }
    }
    (ln_pre.exp() * sum).clamp(0.0, 1.0)
}

fn gamma_q_cf(a: f64, x: f64) -> f64 {
    // Lentz's algorithm for the continued fraction representation of Q(a, x).
    let ln_pre = a * x.ln() - x - ln_gamma(a);
    let tiny = 1e-300;
    // From 2⁵³ up, `x + 1.0` drops the 1 and at x = a the fraction would
    // start from 1/0; there, subtract first. Below, the original order
    // keeps every result's bits.
    let mut b = if a + 1.0 == a {
        x - a + 1.0
    } else {
        x + 1.0 - a
    };
    let mut c = 1.0 / tiny;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..max_terms(a) {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < tiny {
            d = tiny;
        }
        c = b + an / c;
        if c.abs() < tiny {
            c = tiny;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < 1e-16 {
            break;
        }
    }
    (ln_pre.exp() * h).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "expected {b}, got {a} (tol {tol})");
    }

    #[test]
    fn ln_gamma_matches_known_values() {
        assert_close(ln_gamma(1.0), 0.0, 1e-12);
        assert_close(ln_gamma(2.0), 0.0, 1e-12);
        assert_close(ln_gamma(5.0), (24.0f64).ln(), 1e-11);
        assert_close(ln_gamma(0.5), std::f64::consts::PI.sqrt().ln(), 1e-10);
        // Γ(11) = 10! = 3628800
        assert_close(ln_gamma(11.0), (3_628_800.0f64).ln(), 1e-10);
    }

    #[test]
    fn ln_gamma_large_argument() {
        // Stirling check at x = 1000.
        let x: f64 = 1000.0;
        let stirling =
            (x - 0.5) * x.ln() - x + 0.5 * (2.0 * std::f64::consts::PI).ln() + 1.0 / (12.0 * x);
        assert_close(ln_gamma(x), stirling, 1e-6);
    }

    #[test]
    #[should_panic(expected = "ln_gamma requires x > 0")]
    fn ln_gamma_rejects_nonpositive() {
        ln_gamma(0.0);
    }

    #[test]
    fn ln_factorial_consistency() {
        assert_close(ln_factorial(0), 0.0, 1e-15);
        assert_close(ln_factorial(1), 0.0, 1e-15);
        assert_close(ln_factorial(5), (120.0f64).ln(), 1e-12);
        // Table edge and beyond must agree with ln_gamma.
        for &k in &[254u64, 255, 256, 257, 1000] {
            assert_close(ln_factorial(k), ln_gamma(k as f64 + 1.0), 1e-9);
        }
    }

    #[test]
    fn erf_known_values() {
        assert_close(erf(0.0), 0.0, 1e-12);
        assert_close(erf(1.0), 0.842_700_79, 2e-7);
        assert_close(erf(-1.0), -0.842_700_79, 2e-7);
        assert_close(erf(2.0), 0.995_322_27, 2e-7);
        assert!(erf(6.0) > 0.999_999_9);
    }

    #[test]
    fn erfc_symmetry() {
        for &x in &[0.0, 0.3, 1.0, 2.5] {
            assert_close(erfc(x) + erfc(-x), 2.0, 1e-9);
        }
    }

    #[test]
    fn gamma_p_q_complement() {
        for &(a, x) in &[
            (1.0, 0.5),
            (3.0, 2.0),
            (10.0, 12.0),
            (50.0, 40.0),
            (200.0, 210.0),
        ] {
            assert_close(gamma_p(a, x) + gamma_q(a, x), 1.0, 1e-12);
        }
    }

    #[test]
    fn gamma_p_exponential_special_case() {
        // P(1, x) = 1 − e^{−x}.
        for &x in &[0.1, 1.0, 3.0, 10.0] {
            assert_close(gamma_p(1.0, x), 1.0 - (-x).exp(), 1e-12);
        }
    }

    /// From 2⁵³ up, `a + 1.0 == a`: at x = a the continued fraction used
    /// to start from 1/0 and both functions read NaN.
    #[test]
    fn incomplete_gamma_is_a_probability_past_2_53() {
        let a = 2f64.powi(53);
        for value in [
            gamma_p(a, a),
            gamma_q(a, a),
            crate::Poisson::new(a).sf(1 << 53),
        ] {
            assert!((0.0..=1.0).contains(&value), "{value}");
        }
    }

    #[test]
    fn gamma_q_poisson_identity() {
        // Q(k+1, λ) = P(Pois(λ) ≤ k); check against direct sum for λ = 4.
        let lambda = 4.0f64;
        let mut cdf = 0.0;
        let mut term = (-lambda).exp();
        for k in 0u64..8 {
            cdf += term;
            let q = gamma_q(k as f64 + 1.0, lambda);
            assert_close(q, cdf, 1e-10);
            term *= lambda / (k as f64 + 1.0);
        }
    }
}
