//! Order statistics over timing samples.

/// A tail figure is reported only when at least this many samples lie
/// beyond it; with fewer, a "percentile" is one or two outliers.
pub const MIN_BEYOND: usize = 10;

/// Percentile `p` (in `0..1`) of ascending `sorted`: the sample at
/// 0-based index `⌊p·n⌋`, so the p50 of an even count is the upper of
/// the middle pair. `None` when fewer than [`MIN_BEYOND`] samples lie
/// above it.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    let n = sorted.len();
    let idx = ((p * n as f64).floor() as usize).min(n.checked_sub(1)?);
    (n - 1 - idx >= MIN_BEYOND).then(|| sorted[idx])
}

/// Median of `values` (mean of the middle pair for even counts), or 0
/// for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let s: Vec<u64> = (1..=20).collect();
        assert_eq!(percentile(&s, 0.5), None, "p50 of 20 has 9 beyond");
        let s: Vec<u64> = (1..=21).collect();
        assert_eq!(percentile(&s, 0.5), Some(11));
        let s: Vec<u64> = (1..=22).collect();
        assert_eq!(
            percentile(&s, 0.5),
            Some(12),
            "upper middle of an even count"
        );
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 0.9), None);
        let s: Vec<u64> = (1..=101).collect();
        assert_eq!(percentile(&s, 0.9), Some(91));
        let s: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&s, 0.99), None);
        let s: Vec<u64> = (1..=1001).collect();
        assert_eq!(percentile(&s, 0.99), Some(991));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
