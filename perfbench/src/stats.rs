//! Order statistics for the benchmark's samples.

/// Percentile levels a tail figure may be reported at, highest first.
const TAIL_LEVELS: [f64; 4] = [99.9, 99.0, 95.0, 90.0];

/// Samples that must lie strictly beyond a reported tail percentile.
const MIN_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// The fastest of repeated timings of identical work; 0 for an empty
/// slice.
///
/// Other tenants of a small shared host slow repetitions by up to half
/// for seconds at a time, and the slowed share changes from minute to
/// minute, so the median, and even the 10th percentile, of a run moves
/// by more than a regression bound. The fastest repetition reflects the
/// program's own cost and repeats best from run to run.
pub fn low(xs: &[f64]) -> f64 {
    xs.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// 1-based nearest rank of the `p`-th percentile among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // The tolerance keeps 99.9% of 10 000 at rank 9990 despite rounding.
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank `p`-th percentile of an ascending slice; 0 when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// The highest of the supported tail levels that still leaves at least
/// [`MIN_BEYOND`] of `n` samples beyond it, or `None` when even the
/// lowest level does not.
pub fn tail_level(n: usize) -> Option<f64> {
    TAIL_LEVELS
        .into_iter()
        .find(|&p| n > 0 && n - rank(n, p) >= MIN_BEYOND)
}

/// A latency sample set summarised by its median and p99.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub count: usize,
    /// Median.
    pub p50: f64,
    /// The 99th percentile when the sample supports it (see
    /// [`tail_level`]), else 0.
    pub p99: f64,
}

impl Summary {
    /// Summarise unsorted samples.
    pub fn of(samples: &[f64]) -> Summary {
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        // Lower levels leave more samples beyond, so p99 is supported
        // whenever the highest supported level is at least 99.
        let p99 = if tail_level(v.len()).is_some_and(|p| p >= 99.0) {
            percentile(&v, 99.0)
        } else {
            0.0
        };
        Summary {
            count: v.len(),
            p50: percentile(&v, 50.0),
            p99,
        }
    }
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
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
    }

    #[test]
    fn tail_level_keeps_ten_samples_beyond() {
        // p99 of 1000 samples is rank 990: exactly 10 lie beyond it.
        assert_eq!(tail_level(1000), Some(99.0));
        assert_eq!(tail_level(999), Some(95.0));
        // p99.9 needs 10 000 samples.
        assert_eq!(tail_level(10_000), Some(99.9));
        assert_eq!(tail_level(9_999), Some(99.0));
        assert_eq!(tail_level(200), Some(95.0));
        assert_eq!(tail_level(100), Some(90.0));
        assert_eq!(tail_level(99), None);
        assert_eq!(tail_level(0), None);
    }

    #[test]
    fn summary_reports_p99_only_with_enough_samples() {
        let many: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = Summary::of(&many);
        assert_eq!((s.count, s.p50, s.p99), (1000, 500.0, 990.0));
        let few: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(Summary::of(&few).p99, 0.0);
        let none = Summary::of(&[]);
        assert_eq!((none.count, none.p50, none.p99), (0, 0.0, 0.0));
    }

    #[test]
    fn low_is_the_fastest() {
        let v: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(low(&v), 1.0);
        assert_eq!(low(&[3.0, 1.0, 2.0]), 1.0);
        assert_eq!(low(&[]), 0.0);
    }
}
