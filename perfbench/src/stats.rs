//! Small statistics helpers: means and medians of per-call samples, and
//! quantiles read off the cluster's log-linear latency histograms.

use ssmfp_cluster::LogHistogram;

/// Mean of `v`; 0 for an empty slice.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.iter().sum::<f64>() / v.len() as f64
}

/// Mean of the middle half of `v`: the lowest and the highest quarter
/// (rounded down) are dropped. 0 for an empty slice.
pub fn interquartile_mean(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let cut = s.len() / 4;
    mean(&s[cut..s.len() - cut])
}

/// Median of `v` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// Representative value of bucket `idx`, read through the histogram's
/// public API so that its bucket layout is stated in one place only.
fn bucket_value(idx: usize) -> f64 {
    LogHistogram::from_parts(&[(idx, 2)], u64::MAX, 0).quantile(0.5) as f64
}

/// Quantile `q` of `h`, interpolated linearly across the bucket the rank
/// falls in, whose edges are taken halfway to the neighbouring buckets'
/// representative values. `LogHistogram::quantile` returns bucket
/// midpoints, which move in 6% steps: a latency that is steady to 1%
/// (`caterpillar-open` p50) would read the very same value on every run
/// and hide a change smaller than a step.
pub fn quantile(h: &LogHistogram, q: f64) -> f64 {
    if h.count() == 0 {
        return 0.0;
    }
    let rank = q * h.count() as f64;
    let mut seen = 0u64;
    for (idx, c) in h.nonzero_buckets() {
        if (seen + c) as f64 >= rank {
            let mid = bucket_value(idx);
            let lo = match idx {
                0 => mid,
                _ => (bucket_value(idx - 1) + mid) / 2.0,
            };
            let hi = ((mid + bucket_value(idx + 1)) / 2.0).max(mid);
            let frac = ((rank - seen as f64) / c as f64).clamp(0.0, 1.0);
            return (lo + frac * (hi - lo)).min(h.max() as f64);
        }
        seen += c;
    }
    h.max() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn means_and_median() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[4.0, 1.0, 1.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(interquartile_mean(&[100.0, 2.0, 3.0, 0.0]), 2.5);
        assert_eq!(interquartile_mean(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(interquartile_mean(&[]), 0.0);
    }

    #[test]
    fn interpolated_quantile_tracks_the_bucketed_one() {
        let mut h = LogHistogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        for q in [0.1, 0.37, 0.5, 0.9, 0.99] {
            let exact = q * 10_000.0;
            let got = quantile(&h, q);
            // Within 1% where midpoints are up to 3% off; the 0.99 rank
            // falls in the last bucket, which the values fill only in part.
            let tolerance = if q < 0.99 { 100.0 } else { 16.0 };
            assert!(
                (got - exact).abs() <= exact / tolerance,
                "q={q}: {got} vs {exact}"
            );
            let coarse = h.quantile(q) as f64;
            assert!((got - coarse).abs() <= coarse / 16.0 + 1.0);
        }
        assert_eq!(quantile(&LogHistogram::new(), 0.5), 0.0);
    }
}
