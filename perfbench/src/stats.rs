//! Order statistics for the reported timings.
//!
//! A timing is reported as its median and as the highest percentile of
//! [`LADDER`] that has at least [`MIN_BEYOND`] samples beyond it, with
//! the sample count, so a tail figure never rests on one or two outliers.

/// Candidate tail percentiles, highest first.
pub const LADDER: [f64; 7] = [99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0];

/// Samples a tail percentile needs strictly above its rank.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest-rank position of percentile `p` (in percent) among
/// `n` sorted samples: the smallest rank whose share of samples at or
/// below it reaches `p`.
fn nearest_rank(p: f64, n: usize) -> usize {
    // Integer arithmetic in per-mille avoids 0.99 * 1000 = 989.999...
    let per_mille = (p * 10.0).round() as usize;
    (per_mille * n).div_ceil(1000).max(1)
}

/// The highest percentile of [`LADDER`] with at least [`MIN_BEYOND`]
/// samples beyond it among `n` samples, or `None` when even the median
/// has fewer (n < 20).
pub fn tail_percentile(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .copied()
        .find(|&p| n >= nearest_rank(p, n) + MIN_BEYOND)
}

/// Nearest-rank percentile `p` (in percent) of `samples`; `NaN` when
/// empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[nearest_rank(p, sorted.len()) - 1]
}

/// The median (mean of the two middle samples for an even count); `NaN`
/// when empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
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

/// A latency sample set reduced to its median and its tail.
#[derive(Debug, Clone, Copy)]
pub struct Latency {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The tail percentile value; the median when that percentile is
    /// the 50th or `n < 20`.
    pub tail: f64,
    /// Which percentile `tail` is (50 when the median stands in).
    pub tail_pct: f64,
}

impl Latency {
    /// Reduces `samples`.
    pub fn of(samples: &[f64]) -> Latency {
        let p50 = median(samples);
        let tail_pct = tail_percentile(samples.len()).unwrap_or(50.0);
        // At the 50th percentile the tail is the median itself, so it
        // never reads below `p50` for an even sample count.
        let tail = if tail_pct > 50.0 {
            percentile(samples, tail_pct)
        } else {
            p50
        };
        Latency {
            n: samples.len(),
            p50,
            tail,
            tail_pct,
        }
    }
}

/// Sample mean and standard error of the mean (`sd / sqrt(n)`, with the
/// `n - 1` variance).
pub fn mean_and_se(xs: &[f64]) -> (f64, f64) {
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    if xs.len() < 2 {
        return (mean, 0.0);
    }
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0);
    (mean, (var / n).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_rung_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(1000), Some(99.0));
        // 999 samples: rank ceil(989.01) = 990 leaves 9 beyond p99.
        assert_eq!(tail_percentile(999), Some(98.0));
        assert_eq!(tail_percentile(500), Some(98.0));
        assert_eq!(tail_percentile(499), Some(95.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(39), Some(50.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn chosen_tail_really_has_ten_samples_beyond() {
        for n in 1..3000 {
            if let Some(p) = tail_percentile(n) {
                let samples: Vec<f64> = (1..=n).map(|i| i as f64).collect();
                let value = percentile(&samples, p);
                let beyond = samples.iter().filter(|&&x| x > value).count();
                assert!(beyond >= MIN_BEYOND, "n={n} p={p} beyond={beyond}");
            }
        }
    }

    #[test]
    fn percentile_and_median_use_nearest_rank() {
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.9), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn small_sets_fall_back_to_the_median() {
        let l = Latency::of(&[5.0, 1.0, 3.0]);
        assert_eq!((l.n, l.p50, l.tail, l.tail_pct), (3, 3.0, 3.0, 50.0));
        let xs: Vec<f64> = (1..=30).map(f64::from).collect();
        let l = Latency::of(&xs);
        assert_eq!((l.p50, l.tail, l.tail_pct), (15.5, 15.5, 50.0));
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let l = Latency::of(&xs);
        assert_eq!((l.tail, l.tail_pct), (990.0, 99.0));
    }
}
