//! Order statistics for latency samples and the run-to-run spread rule.

/// Samples that must lie beyond a reported percentile for it to mean
/// anything (choosing-metrics §1).
pub const TAIL_SUPPORT: usize = 10;

/// Nearest-rank percentile of an ascending sample, capped at the highest
/// rank that still has [`TAIL_SUPPORT`] samples beyond it: asking for p99
/// of 300 samples answers with the 290th, not with the third-largest
/// outlier. Returns `(value, rank)`, the rank 1-based; `None` when empty.
pub fn percentile(sorted: &[u64], p: f64) -> Option<(u64, usize)> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let wanted = ((p * n as f64).ceil() as usize).clamp(1, n);
    let supported = n.saturating_sub(TAIL_SUPPORT).max(1);
    // The median needs no tail support; only ranks above it are capped.
    let rank = if wanted > n.div_ceil(2) {
        wanted.min(supported.max(n.div_ceil(2)))
    } else {
        wanted
    };
    Some((sorted[rank - 1], rank))
}

/// Percentile in microseconds of a nanosecond sample (0 when empty).
pub fn percentile_us(sorted_ns: &[u64], p: f64) -> f64 {
    percentile(sorted_ns, p).map_or(0.0, |(v, _)| v as f64 / 1e3)
}

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method), so `--verify` applies the acceptance rule with
/// the same arithmetic the harness that gates this benchmark uses.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Run-to-run spread as a share of the median: the interquartile distance,
/// which is what the harness takes over its ten runs. Fewer than four
/// values have no quartiles inside their own range (the formula
/// extrapolates past the extremes), so there it is the whole range.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    let distance = if values.len() < 4 {
        let (min, max) = values
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                (lo.min(v), hi.max(v))
            });
        max - min
    } else {
        q3 - q1
    };
    (q2 != 0.0).then(|| distance.abs() / q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_keeps_ten_samples_beyond_the_tail() {
        let sorted: Vec<u64> = (1..=300).collect();
        // p99 of 300 would be rank 297 with 3 samples beyond it; the cap
        // moves it down to rank 290, the highest with 10 beyond.
        assert_eq!(percentile(&sorted, 0.99), Some((290, 290)));
        // With 2 000 samples rank 1 980 already has 20 beyond it.
        let big: Vec<u64> = (1..=2000).collect();
        assert_eq!(percentile(&big, 0.99), Some((1980, 1980)));
        // The median is never capped, even on tiny samples.
        assert_eq!(percentile(&[5, 7, 9], 0.5), Some((7, 2)));
        assert_eq!(percentile(&[5, 7, 9], 0.99), Some((7, 2)));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10, 12], n=4) == [9.5, 11.0, 12.5]
        assert_eq!(quartiles(&[12.0, 10.0]), Some([9.5, 11.0, 12.5]));
        assert!((spread(&v).unwrap() - 1.0).abs() < 1e-12);
        // Two run sets: their difference over their mean.
        assert!((spread(&[10.0, 12.0]).unwrap() - 2.0 / 11.0).abs() < 1e-12);
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(median(&[]), 0.0);
    }
}
