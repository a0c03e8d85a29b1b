//! Summary statistics for timing samples.

/// Median of `samples` (the mean of the two middle values for an even
/// count); `0.0` for no samples.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// 1-based nearest rank of percentile `pct` among `n` samples. The tiny
/// offset keeps products such as `99.9 × 10 000 / 100` from rounding up a
/// whole rank.
fn rank(n: usize, pct: f64) -> usize {
    ((pct * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of ascending `sorted` samples: the smallest
/// sample with at least `pct`% of all samples at or below it.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), pct) - 1]
}

/// Samples strictly beyond the nearest-rank percentile `pct` of `n`.
fn beyond(n: usize, pct: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, pct)
    }
}

/// Samples per window for windowed latency percentiles: the fewest that put
/// ten samples beyond a p99.
pub const TAIL_WINDOW: usize = 1000;

/// Percentile `pct` of each consecutive window of `window` samples (a short
/// final window joins the one before it), and the median of those: a tail
/// that a disturbed stretch of a run moves less than a whole-run tail.
/// `samples` are in the order they were taken.
pub fn windowed_percentile(samples: &[f64], window: usize, pct: f64) -> f64 {
    let windows = (samples.len() / window.max(1)).max(1);
    let per_window: Vec<f64> = (0..windows)
        .map(|w| {
            let end = if w + 1 == windows {
                samples.len()
            } else {
                (w + 1) * window
            };
            let mut sorted = samples[w * window..end].to_vec();
            sorted.sort_by(f64::total_cmp);
            percentile(&sorted, pct)
        })
        .collect();
    median(&per_window)
}

/// The percentiles a latency may be reported at, ascending.
pub const LADDER: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

/// The highest [`LADDER`] percentile with at least ten samples beyond it
/// among `n` samples — the tail a latency may honestly be reported at.
pub fn tail_percentile(n: usize) -> Option<f64> {
    LADDER.iter().rev().copied().find(|&p| beyond(n, p) >= 10)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 50.0), 50.0);
        assert_eq!(percentile(&sorted, 99.0), 99.0);
        assert_eq!(percentile(&sorted, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn windowed_percentile_is_the_median_window() {
        // Three windows of 100; the middle one is disturbed.
        let mut samples: Vec<f64> = (1..=100).map(f64::from).collect();
        samples.extend((1..=100).map(|x| f64::from(x) * 10.0));
        samples.extend((1..=100).map(|x| f64::from(x) + 0.5));
        assert_eq!(windowed_percentile(&samples, 100, 99.0), 99.5);
        // A short tail window joins the previous one.
        assert_eq!(windowed_percentile(&samples[..250], 100, 50.0), 150.0);
        assert_eq!(windowed_percentile(&samples[..50], 100, 50.0), 25.0);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        // p50 needs 20 samples (10 beyond rank 10).
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        // p90 needs 100, p99 needs 1000, p99.9 needs 10 000.
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(TAIL_WINDOW), Some(99.0));
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }
}
