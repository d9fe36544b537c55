//! Order statistics the benchmark reports: nearest-rank percentiles over
//! raw samples, the "at least ten samples beyond" reporting rule, and the
//! median over fixed-size windows that every throughput metric uses.

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` (in `(0, 1]`) among `n`
/// samples: the smallest rank whose sample covers a share `p`.
pub fn nearest_rank(n: usize, p: f64) -> usize {
    assert!(n > 0, "nearest rank of an empty sample");
    assert!(p > 0.0 && p <= 1.0, "percentile {p} outside (0, 1]");
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// The nearest-rank percentile `p` of `sorted` (ascending), or `None`
/// when fewer than [`MIN_BEYOND`] samples lie above it — too few for
/// the percentile to say anything about the tail it names.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "samples must be sorted");
    let rank = nearest_rank(sorted.len(), p);
    (sorted.len() - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// The median of `values`: the middle value, or the mean of the two
/// middle values for an even count. `None` for an empty input.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 { v[mid] } else { (v[mid - 1] + v[mid]) / 2.0 })
}

/// Rate per second of each fixed-size window: `work[i]` units done in
/// `nanos[i]` nanoseconds.
pub fn window_rates(work: &[f64], nanos: &[u64]) -> Vec<f64> {
    work.iter().zip(nanos).filter(|(_, &ns)| ns > 0).map(|(w, &ns)| w * 1e9 / ns as f64).collect()
}

/// The median over windows of the per-window rate (units per second).
pub fn window_median_rate(work: &[f64], nanos: &[u64]) -> Option<f64> {
    median(&window_rates(work, nanos))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        assert_eq!(nearest_rank(100, 0.5), 50);
        assert_eq!(nearest_rank(100, 0.99), 99);
        assert_eq!(nearest_rank(101, 0.5), 51);
        assert_eq!(nearest_rank(1, 0.99), 1);
        assert_eq!(nearest_rank(10, 1.0), 10);
    }

    #[test]
    fn percentile_is_an_observed_sample() {
        let sorted: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&sorted, 0.5), Some(500));
        assert_eq!(percentile(&sorted, 0.99), Some(990));
        // Bucket bounds would read 2^k - 1; raw samples never do.
        let odd: Vec<u64> = (0..200).map(|i| 1000 + 3 * i).collect();
        assert_eq!(percentile(&odd, 0.5), Some(1000 + 3 * 99));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // p99 of 1000 samples: rank 990, ten beyond — reportable.
        let sorted: Vec<u64> = (0..1000).collect();
        assert!(percentile(&sorted, 0.99).is_some());
        // p99 of 999 samples: rank 990, nine beyond — withheld.
        assert_eq!(percentile(&sorted[..999], 0.99), None);
        // p50 of 20 samples: rank 10, ten beyond — reportable.
        assert_eq!(percentile(&sorted[..20], 0.5), Some(9));
        assert_eq!(percentile(&sorted[..19], 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_handles_odd_even_and_unsorted_input() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn window_median_ignores_one_slow_window() {
        // Four windows of 1000 units: three at 1 µs/unit, one stalled 10×.
        let work = [1000.0; 4];
        let nanos = [1_000_000, 1_000_000, 10_000_000, 1_000_000];
        let rate = window_median_rate(&work, &nanos).unwrap();
        assert!((rate - 1e6).abs() < 1e-6, "{rate}");
        // The whole-run mean is dragged down by the stall; the median is not.
        let mean = 4000.0 * 1e9 / nanos.iter().sum::<u64>() as f64;
        assert!(mean < 0.35e6, "{mean}");
        // Empty windows are skipped rather than read as infinite rates.
        assert_eq!(window_rates(&[5.0], &[0]), Vec::<f64>::new());
    }
}
