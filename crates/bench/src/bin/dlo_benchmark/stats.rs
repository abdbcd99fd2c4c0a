//! Order statistics over a run's samples: the median, the quartile
//! spread the A/A acceptance check uses, and the tail-percentile rule.

/// Sorts ascending; samples are wall-clock readings, never NaN.
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

/// The median (mean of the two middle values on even counts); `0.0`
/// for no samples, which is how a span that never ran reads.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(xs, n=4)` (the exclusive method) gives them,
/// because that is the rule the acceptance check applies.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let v = sorted(xs);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let at = |k: usize| {
        // Python: j = k*(n+1)//4 clamped to 1..n-1, delta = k*(n+1) - 4*j.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 - 4.0 * j as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Interquartile distance as a share of the median.
pub fn iqr_rel(xs: &[f64]) -> f64 {
    let m = median(xs);
    if m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(xs);
    (q3 - q1) / m.abs()
}

/// The percentiles a tail may be reported at, in per mille so that
/// ranks are exact integers.
const LADDER: [usize; 6] = [500, 750, 900, 950, 990, 999];

/// The tail rule: the highest percentile of the ladder that still has
/// at least ten samples beyond it, with its value (nearest rank). Under
/// twenty samples no percentile qualifies and the median is returned
/// as `p50`; callers print the sample count beside it.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let v = sorted(xs);
    let n = v.len();
    if n == 0 {
        return (50.0, 0.0);
    }
    let mut ladder = LADDER.iter().rev().copied();
    let per_mille = ladder.find(|&p| n - rank(n, p) >= 10).unwrap_or(500);
    (per_mille as f64 / 10.0, v[rank(n, per_mille) - 1])
}

/// Nearest-rank position (1-based) of a per-mille point among `n`
/// samples.
fn rank(n: usize, per_mille: usize) -> usize {
    (per_mille * n).div_ceil(1000).clamp(1, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
        assert!((iqr_rel(&xs) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let xs = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // 19 samples: not even p50 leaves ten beyond it.
        assert_eq!(tail(&xs(19)), (50.0, 10.0));
        // 20 samples: p50 leaves exactly ten.
        assert_eq!(tail(&xs(20)), (50.0, 10.0));
        // 40 samples: p75 leaves ten, p90 leaves four.
        assert_eq!(tail(&xs(40)), (75.0, 30.0));
        // 100 samples: p90 leaves ten, p95 five.
        assert_eq!(tail(&xs(100)), (90.0, 90.0));
        // 1000 samples: p99 leaves ten, p99.9 one.
        assert_eq!(tail(&xs(1000)), (99.0, 990.0));
        assert_eq!(tail(&xs(10_000)), (99.9, 9990.0));
    }
}
