//! Order statistics for the harness: medians of rounds, nearest-rank
//! percentiles, and the rule that a percentile is only reported when at
//! least ten samples lie beyond it.

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank first and third quartile; `(0, 0)` for an empty slice.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    (v[(v.len() - 1) / 4], v[3 * (v.len() - 1) / 4])
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// `(max − min) ÷ median`: how far the rounds of one run disagree.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if values.is_empty() || m == 0.0 {
        return 0.0;
    }
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    (max - min) / m
}

/// Geometric mean; 0 if any value is not positive.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0) {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// element with at least `q·n` elements at or below it.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Samples strictly beyond the nearest-rank `q` percentile of `n` samples.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// The highest quantile not above `q` that still has at least ten samples
/// beyond it; the median when the sample is too small for any tail.
pub fn supported_quantile(n: usize, q: f64) -> f64 {
    const MIN_BEYOND: usize = 10;
    if samples_beyond(n, q) >= MIN_BEYOND {
        return q;
    }
    if n < 2 * MIN_BEYOND {
        return 0.5;
    }
    ((n - MIN_BEYOND) as f64 / n as f64).min(q).max(0.5)
}

/// Tail latency: the `q` percentile, or the highest supported one below it.
pub fn tail(sorted: &[u64], q: f64) -> u64 {
    percentile(sorted, supported_quantile(sorted.len(), q))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 0.50), 50);
        assert_eq!(percentile(&s, 0.99), 99);
        assert_eq!(percentile(&s, 1.0), 100);
        assert_eq!(percentile(&s, 0.0), 1);
        assert_eq!(percentile(&[7], 0.99), 7);
        assert_eq!(percentile(&[], 0.5), 0);
        // 5 samples: p50 is the 3rd, p90 the 5th.
        assert_eq!(percentile(&[10, 20, 30, 40, 50], 0.5), 30);
        assert_eq!(percentile(&[10, 20, 30, 40, 50], 0.9), 50);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(999, 0.99), 9);
        assert_eq!(samples_beyond(1800, 0.99), 18);
        assert_eq!(supported_quantile(1000, 0.99), 0.99);
        // 999 samples cannot support p99: fall back to the rank with ten beyond.
        let q = supported_quantile(999, 0.99);
        assert!(q < 0.99 && samples_beyond(999, q) >= 10, "{q}");
        // Too small for any tail: the median.
        assert_eq!(supported_quantile(15, 0.99), 0.5);
        let s: Vec<u64> = (1..=500).collect();
        assert_eq!(tail(&s, 0.99), 490);
    }

    #[test]
    fn median_spread_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert!((spread(&[90.0, 100.0, 110.0]) - 0.2).abs() < 1e-12);
        assert_eq!(quartiles(&[6.0, 1.0, 3.0, 2.0, 5.0, 4.0]), (2.0, 4.0));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
        assert_eq!(quartiles(&[]), (0.0, 0.0));
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[1.0, 0.0]), 0.0);
    }
}
