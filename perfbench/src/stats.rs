//! Order statistics over raw samples.
//!
//! Percentiles are nearest-rank over the exact samples the benchmark
//! recorded on its own clock — never over bucketed histograms — and each
//! carries the sample count and how many samples lie beyond it, so a
//! reader can apply the reporting rule: a percentile is only reportable
//! when at least [`MIN_BEYOND`] samples lie beyond it.

/// Samples that must lie strictly beyond a percentile for it to be
/// reportable.
pub const MIN_BEYOND: usize = 10;

/// One percentile of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    /// The nearest-rank value (`NaN` for an empty sample set).
    pub value: f64,
    /// Samples in the set.
    pub n: usize,
    /// Samples ranked after the percentile's rank.
    pub beyond: usize,
}

impl Pct {
    /// Whether the reporting rule holds (at least [`MIN_BEYOND`] samples
    /// lie beyond the percentile).
    pub fn reportable(&self) -> bool {
        self.beyond >= MIN_BEYOND
    }
}

/// The nearest-rank `q`-quantile (`0 < q <= 1`) of `samples`.
pub fn percentile(samples: &[f64], q: f64) -> Pct {
    let n = samples.len();
    if n == 0 {
        return Pct { value: f64::NAN, n, beyond: 0 };
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Pct { value: sorted[rank - 1], n, beyond: n - rank }
}

/// The median (mean of the two middle values for an even count).
pub fn median(samples: &[f64]) -> f64 {
    let n = samples.len();
    if n == 0 {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_and_beyond_count() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        let p50 = percentile(&s, 0.5);
        assert_eq!((p50.value, p50.n, p50.beyond), (50.0, 100, 50));
        let p90 = percentile(&s, 0.9);
        assert_eq!((p90.value, p90.beyond), (90.0, 10));
        assert!(p90.reportable());
        let p99 = percentile(&s, 0.99);
        assert_eq!((p99.value, p99.beyond), (99.0, 1));
        assert!(!p99.reportable());
    }

    #[test]
    fn rule_needs_ten_beyond() {
        // 19 samples: the median has 9 beyond it — not reportable; 20 has 10.
        let s19: Vec<f64> = (0..19).map(f64::from).collect();
        assert!(!percentile(&s19, 0.5).reportable());
        let s20: Vec<f64> = (0..20).map(f64::from).collect();
        assert!(percentile(&s20, 0.5).reportable());
        assert!(!percentile(&[], 0.5).reportable());
        assert!(percentile(&[], 0.5).value.is_nan());
    }

    #[test]
    fn median_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
