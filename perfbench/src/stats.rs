//! Order statistics for latency samples.

/// Nearest-rank percentile of an ascending slice (`0 < q <= 1`).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples ranked above the nearest-rank `q` percentile of `n` samples.
pub fn beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Minimum number of samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The `q` percentile of `samples`, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it (a tail estimated from fewer
/// points does not repeat between runs). The median of a non-empty sample
/// always has enough support for `n >= 20`.
pub fn reported_percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() || beyond(samples.len(), q) < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(percentile(&sorted, q))
}

/// Median of a non-empty sample (nearest rank).
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 0.5)
}

/// Quartiles `(q1, median, q3)` of a non-empty sample (nearest rank).
pub fn quartiles(samples: &[f64]) -> (f64, f64, f64) {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    (percentile(&sorted, 0.25), percentile(&sorted, 0.5), percentile(&sorted, 0.75))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
        assert_eq!(percentile(&[3.0], 0.9), 3.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 99 samples: p90 is rank 90, only 9 lie beyond it.
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(beyond(99, 0.9), 9);
        assert_eq!(reported_percentile(&v, 0.9), None);
        // 100 samples: exactly ten beyond rank 90.
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(beyond(100, 0.9), 10);
        assert_eq!(reported_percentile(&v, 0.9), Some(90.0));
        // The median of 19 samples has 9 beyond it; of 20, ten.
        assert_eq!(reported_percentile(&[1.0; 19], 0.5), None);
        assert_eq!(reported_percentile(&[1.0; 20], 0.5), Some(1.0));
        assert_eq!(reported_percentile(&[], 0.5), None);
    }

    #[test]
    fn quartiles_of_a_sample() {
        let v: Vec<f64> = (1..=8).rev().map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.0, 4.0, 6.0));
        assert_eq!(median(&v), 4.0);
    }
}
