//! Order statistics for the benchmark's reports.
//!
//! Percentiles use the nearest-rank definition, so a reported percentile
//! is always one of the measured samples. A tail percentile is only
//! reported when at least [`MIN_BEYOND`] samples lie beyond it; below
//! that the figure is one or two outliers, not a tail.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `pct` (0–100) among `n` samples:
/// `ceil(pct · n / 100)`, at least 1. Integer arithmetic, so `p99` of
/// 1000 samples is exactly rank 990.
pub fn nearest_rank(n: usize, pct: u32) -> usize {
    assert!(pct <= 100, "percentile {pct} out of range");
    (((pct as usize) * n).div_ceil(100)).max(1)
}

/// Samples ranked beyond percentile `pct` of `n` samples.
pub fn samples_beyond(n: usize, pct: u32) -> usize {
    n.saturating_sub(nearest_rank(n, pct))
}

/// Nearest-rank percentile of `samples` (any order; NaN-free). `None` for
/// an empty slice.
pub fn percentile(samples: &[f64], pct: u32) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[nearest_rank(sorted.len(), pct) - 1])
}

/// Nearest-rank percentile `pct` of `samples`, refused (`Err` with the
/// reason) when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn tail_percentile(samples: &[f64], pct: u32) -> Result<f64, String> {
    let beyond = samples_beyond(samples.len(), pct);
    if beyond < MIN_BEYOND {
        return Err(format!(
            "p{pct} of {} samples has {beyond} beyond it (need {MIN_BEYOND})",
            samples.len()
        ));
    }
    Ok(percentile(samples, pct).expect("non-empty: samples lie beyond the rank"))
}

/// Median (mean of the two middle samples for an even count). `None` for
/// an empty slice.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let m = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[m]
    } else {
        0.5 * (sorted[m - 1] + sorted[m])
    })
}

/// Arithmetic mean. `None` for an empty slice.
pub fn mean(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    Some(samples.iter().sum::<f64>() / samples.len() as f64)
}

/// `(max − min) / median` — the spread of a count that depends on thread
/// interleaving. 0 for fewer than two samples or a zero median.
pub fn relative_range(samples: &[f64]) -> f64 {
    let Some(med) = median(samples) else {
        return 0.0;
    };
    if samples.len() < 2 || med == 0.0 {
        return 0.0;
    }
    let max = samples.iter().copied().fold(f64::MIN, f64::max);
    let min = samples.iter().copied().fold(f64::MAX, f64::min);
    (max - min) / med
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_is_exact_at_round_counts() {
        assert_eq!(nearest_rank(1000, 99), 990);
        assert_eq!(nearest_rank(1000, 50), 500);
        assert_eq!(nearest_rank(1, 99), 1);
        assert_eq!(nearest_rank(0, 50), 1);
        assert_eq!(nearest_rank(7, 100), 7);
    }

    #[test]
    fn percentile_picks_a_sample() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 50), Some(50.0));
        assert_eq!(percentile(&v, 99), Some(99.0));
        assert_eq!(percentile(&v, 100), Some(100.0));
        assert_eq!(percentile(&[], 50), None);
    }

    #[test]
    fn p99_needs_ten_samples_beyond() {
        assert_eq!(samples_beyond(1000, 99), 10);
        assert_eq!(samples_beyond(999, 99), 9);
        let enough: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&enough, 99), Ok(989.0));
        // The ten samples beyond the reported p99 really are larger.
        let p = tail_percentile(&enough, 99).unwrap();
        assert_eq!(enough.iter().filter(|&&x| x > p).count(), MIN_BEYOND);
        let short: Vec<f64> = (0..999).map(f64::from).collect();
        assert!(tail_percentile(&short, 99).is_err());
        // p50 of a small sample is fine.
        assert_eq!(tail_percentile(&short[..20], 50), Ok(9.0));
    }

    #[test]
    fn median_and_range() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(mean(&[]), None);
        assert_eq!(relative_range(&[90.0, 100.0, 110.0]), 0.2);
        assert_eq!(relative_range(&[5.0]), 0.0);
        assert_eq!(relative_range(&[0.0, 0.0]), 0.0);
    }
}
