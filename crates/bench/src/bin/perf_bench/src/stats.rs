//! Order statistics the benchmark reports: percentiles of one window,
//! the median over windows, and the quartiles `--repeat` prints.

/// Sorts `values` ascending. Every value the benchmark records is a
/// finite duration or rate, so a NaN here is a bug in the caller.
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
}

/// Nearest-rank percentile of an ascending slice (`q` in `[0, 1]`);
/// 0 for an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values` (mean of the two middle samples for an even
/// count); 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sort(&mut sorted);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// `(max - min) / median` of `values`, in percent; 0 when there are
/// fewer than two values or the median is 0.
pub fn spread_pct(values: &[f64]) -> f64 {
    let mid = median(values);
    if values.len() < 2 || mid == 0.0 {
        return 0.0;
    }
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    (max - min) / mid * 100.0
}

/// First quartile, median and third quartile by the exclusive method
/// Python's `statistics.quantiles(values, n=4)` uses, so `--repeat`
/// prints the spread the acceptance rule is stated in. Needs at least
/// two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    if values.len() < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sort(&mut sorted);
    let n = sorted.len();
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn median_of_windows_ignores_one_outlier_window() {
        // Four steady windows and one that a host stall doubled.
        assert_eq!(median(&[1.0, 1.1, 0.9, 1.0, 2.4]), 1.0);
        assert_eq!(median(&[4.0, 2.0]), 3.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn spread_is_range_over_median() {
        assert_eq!(spread_pct(&[90.0, 100.0, 110.0]), 20.0);
        assert_eq!(spread_pct(&[5.0]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(
            quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]),
            Some([1.5, 4.0, 12.0])
        );
        // statistics.quantiles([3, 9], n=4) == [1.5, 6.0, 10.5]
        assert_eq!(quartiles(&[3.0, 9.0]), Some([1.5, 6.0, 10.5]));
        assert_eq!(quartiles(&[3.0]), None);
    }
}
