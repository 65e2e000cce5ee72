//! Order statistics: medians, refused-when-thin tail percentiles, and
//! the quartiles behind every spread and A/B verdict.

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the middle pair for an even count); `None` when
/// `xs` is empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The nearest-rank `q`-quantile of `xs`, refused (`None`) unless at
/// least ten samples lie beyond it — so a p99 needs 1000 samples and a
/// p90 needs 100. A tail read off fewer samples is one outlier's value.
pub fn tail_percentile(xs: &[f64], q: f64) -> Option<f64> {
    let n = xs.len();
    let beyond = n as f64 * (1.0 - q);
    // The epsilon absorbs `1.0 - 0.99` not being exactly 0.01.
    if n == 0 || !(0.0..1.0).contains(&q) || beyond + 1e-9 < 10.0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some(sorted(xs)[rank - 1])
}

/// First quartile, median and third quartile by the method of Python's
/// `statistics.quantiles(xs, n=4)` (the default `exclusive` method),
/// so spreads computed here and by a script over the same values agree.
/// `None` for fewer than two values.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(xs);
    let n = v.len() as i64;
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1i64..) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m - j * 4) as f64;
        let (lo, hi) = (v[(j - 1) as usize], v[j as usize]);
        *slot = (lo * (4.0 - delta) + hi * delta) / 4.0;
    }
    Some(out)
}

/// `median M ms (range A-B ms)` of durations in seconds, for notes.
pub fn range_ms(seconds: &[f64]) -> String {
    let ms = |x: f64| x * 1e3;
    let lo = seconds.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = seconds.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    format!(
        "median {:.3} ms (range {:.3}-{:.3} ms)",
        ms(median(seconds).unwrap_or(f64::NAN)),
        ms(lo),
        ms(hi)
    )
}

/// Interquartile range as a share of the median: the run-to-run spread
/// a metric's bound has to cover.
pub fn relative_spread(xs: &[f64]) -> Option<f64> {
    let [q1, mid, q3] = quartiles(xs)?;
    (mid != 0.0).then(|| (q3 - q1) / mid.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn p99_is_refused_below_a_thousand_samples() {
        let xs: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs, 0.99), None);
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs, 0.99), Some(990.0));
        assert_eq!(tail_percentile(&xs[..99], 0.90), None);
        assert_eq!(tail_percentile(&xs[..100], 0.90), Some(90.0));
        assert_eq!(tail_percentile(&xs, 1.0), None);
        assert_eq!(tail_percentile(&[], 0.5), None);
    }

    #[test]
    fn tail_percentile_ignores_input_order() {
        let mut xs: Vec<f64> = (0..2000).map(|i| f64::from((i * 7919) % 2000)).collect();
        let want = tail_percentile(&xs, 0.99);
        xs.reverse();
        assert_eq!(tail_percentile(&xs, 0.99), want);
        assert_eq!(want, Some(1979.0));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // Reference values from `statistics.quantiles(xs, n=4)`.
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0]), Some([1.25, 2.5, 3.75]));
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), Some([1.5, 3.0, 4.5]));
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        assert_eq!(quartiles(&[7.0]), None);
    }

    #[test]
    fn relative_spread_is_iqr_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let spread = relative_spread(&ten).unwrap();
        assert!((spread - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(relative_spread(&[0.0, 0.0, 0.0]), None);
    }
}
