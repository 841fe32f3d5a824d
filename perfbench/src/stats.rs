//! Sample statistics: quantile estimates and tail selection.

/// Samples that must lie beyond a percentile before it may be reported.
pub const MIN_BEYOND: usize = 10;

/// Candidate tail percentiles, highest first.
const TAILS: [f64; 4] = [0.999, 0.99, 0.95, 0.90];

/// Nearest-rank index of quantile `q` in a sorted sample of `n`.
fn rank(n: usize, q: f64) -> usize {
    (q.clamp(0.0, 1.0) * (n - 1) as f64).round() as usize
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median by nearest rank; NaN for an empty sample, so a missing
/// measurement can never pass for a real one.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let v = sorted(samples);
    v[rank(v.len(), 0.5)]
}

/// Harrell–Davis estimate of quantile `q` in `(0, 1)`: an average of all
/// order statistics weighted by the Beta((n+1)q, (n+1)(1-q)) density.
/// Unlike a single order statistic it moves smoothly when a few samples
/// cross a gap in the distribution (GO latencies cluster into hits and
/// misses). NaN for an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    let v = sorted(samples);
    let n = v.len();
    if n <= 1 {
        return v.first().copied().unwrap_or(f64::NAN);
    }
    let (a, b) = (q * (n + 1) as f64, (1.0 - q) * (n + 1) as f64);
    let mut prev = 0.0;
    let mut acc = 0.0;
    for (i, x) in v.iter().enumerate() {
        let cdf = beta_cdf(a, b, (i + 1) as f64 / n as f64);
        acc += (cdf - prev) * x;
        prev = cdf;
    }
    acc
}

/// `ln Γ(x)` for `x > 0` (Lanczos, g = 7).
fn ln_gamma(x: f64) -> f64 {
    const G: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    let x = x - 1.0;
    let t = x + 7.5;
    let sum = G[0] + (1..9).map(|i| G[i] / (x + i as f64)).sum::<f64>();
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + sum.ln()
}

/// Regularized incomplete beta function `I_x(a, b)`.
fn beta_cdf(a: f64, b: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let front =
        (ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln()).exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_fraction(a, b, x) / a
    } else {
        1.0 - front * beta_fraction(b, a, 1.0 - x) / b
    }
}

/// Continued fraction of the incomplete beta function (modified Lentz).
fn beta_fraction(a: f64, b: f64, x: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let mut c = 1.0;
    let mut d = 1.0 - (a + b) * x / (a + 1.0);
    d = 1.0 / if d.abs() < TINY { TINY } else { d };
    let mut h = d;
    for m in 1..10_000 {
        let m = m as f64;
        for num in [
            m * (b - m) * x / ((a + 2.0 * m - 1.0) * (a + 2.0 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2.0 * m) * (a + 2.0 * m + 1.0)),
        ] {
            d = 1.0 + num * d;
            d = 1.0 / if d.abs() < TINY { TINY } else { d };
            c = 1.0 + num / c;
            if c.abs() < TINY {
                c = TINY;
            }
            h *= d * c;
        }
        if (d * c - 1.0).abs() < 1e-15 {
            break;
        }
    }
    h
}

/// Samples strictly above the nearest-rank position of `q` among `n`.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - 1 - rank(n, q)
    }
}

/// The highest candidate percentile with at least [`MIN_BEYOND`]
/// samples beyond it, or `None` when even p90 is unsupported.
pub fn supported_tail(n: usize) -> Option<f64> {
    TAILS.into_iter().find(|&q| beyond(n, q) >= MIN_BEYOND)
}

/// Fail unless a sample of `n` supports reporting percentile `q`.
pub fn require_tail(what: &str, n: usize, q: f64) -> Result<(), String> {
    match supported_tail(n) {
        Some(t) if t >= q => Ok(()),
        _ => Err(format!(
            "{what}: {n} samples leave {} beyond p{}, need {MIN_BEYOND}",
            beyond(n, q),
            q * 100.0
        )),
    }
}

/// `num / base`, or 0 when the base is empty.
pub fn ratio(num: f64, base: f64) -> f64 {
    if base > 0.0 {
        num / base
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harrell_davis_quantiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!((quantile(&s, 0.5) - 50.5).abs() < 1e-9, "{}", quantile(&s, 0.5));
        let p95 = quantile(&s, 0.95);
        assert!((94.0..97.0).contains(&p95), "{p95}");
        assert_eq!(quantile(&[2.5; 7], 0.9), 2.5);
        assert_eq!(quantile(&[4.0], 0.5), 4.0);
        assert!(quantile(&[], 0.5).is_nan());
        // A few samples crossing a gap move the estimate part way only.
        let mut gap: Vec<f64> = (0..100).map(|i| if i < 49 { 0.1 } else { 1.0 }).collect();
        let before = quantile(&gap, 0.5);
        gap[49] = 0.1;
        gap[50] = 0.1;
        let after = quantile(&gap, 0.5);
        assert!(after < before && before - after < 0.6, "{before} -> {after}");
    }

    #[test]
    fn incomplete_beta_matches_closed_forms() {
        assert!((beta_cdf(1.0, 1.0, 0.3) - 0.3).abs() < 1e-12);
        assert!((beta_cdf(2.0, 1.0, 0.5) - 0.25).abs() < 1e-12);
        assert!((beta_cdf(50.5, 50.5, 0.5) - 0.5).abs() < 1e-9);
        assert!((ln_gamma(5.0) - 24f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn nearest_rank_median() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_is_highest_percentile_with_ten_beyond() {
        assert_eq!(beyond(192, 0.95), 10);
        assert_eq!(supported_tail(192), Some(0.95));
        assert_eq!(supported_tail(191), Some(0.90));
        assert_eq!(supported_tail(952), Some(0.99));
        assert_eq!(supported_tail(951), Some(0.95));
        assert_eq!(supported_tail(10_000), Some(0.999));
        assert_eq!(supported_tail(97), Some(0.90));
        assert_eq!(supported_tail(96), None);
        assert_eq!(supported_tail(0), None);
        assert!(require_tail("go", 240, 0.95).is_ok());
        assert!(require_tail("edit", 900, 0.99).is_err());
        assert!(require_tail("edit", 1200, 0.99).is_ok());
    }

    #[test]
    fn ratio_with_empty_base_is_zero() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
