//! Sample statistics: nearest-rank percentiles over latency samples, and the
//! run-to-run spread statistic the acceptance rule is stated in.

/// Nearest-rank percentile (`p` in `(0, 1]`) of `samples`, which are sorted in
/// place. Returns 0 for an empty slice so an absent layer reads as zero.
pub fn percentile(samples: &mut [u64], p: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = (p * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// The half (rounded up) of `keyed` with the smallest keys, in key order:
/// the "quieter half" every median of a measurement is taken over.
pub fn faster_half<T>(mut keyed: Vec<(u64, T)>) -> Vec<T> {
    keyed.sort_unstable_by_key(|&(key, _)| key);
    keyed.truncate(keyed.len().div_ceil(2));
    keyed.into_iter().map(|(_, item)| item).collect()
}

/// Median of `values` (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// (the default "exclusive" method) gives them. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median — the spread a metric's
/// bound is compared with.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut v, 0.5), 50);
        assert_eq!(percentile(&mut v, 0.95), 95);
        assert_eq!(percentile(&mut v, 1.0), 100);
        assert_eq!(percentile(&mut [7], 0.95), 7);
        assert_eq!(percentile(&mut [], 0.5), 0);
        // 3 samples: p50 is the 2nd, p95 the 3rd
        assert_eq!(percentile(&mut [30, 10, 20], 0.5), 20);
        assert_eq!(percentile(&mut [30, 10, 20], 0.95), 30);
    }

    #[test]
    fn faster_half_rounds_up_and_orders_by_key() {
        let keyed = vec![(30, 'c'), (10, 'a'), (50, 'e'), (20, 'b'), (40, 'd')];
        assert_eq!(faster_half(keyed), ['a', 'b', 'c']);
        assert_eq!(faster_half(vec![(7, ())]), [()]);
        assert!(faster_half::<u8>(Vec::new()).is_empty());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        assert!((quartile_spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
    }
}
