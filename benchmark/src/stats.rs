//! Order statistics the benchmark reports and `compare` judges with.

/// Samples that must lie beyond a percentile before it is reported: fewer,
/// and the "percentile" is one or two outliers.
pub const MIN_SAMPLES_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count); `None` when
/// empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Median of right-censored samples: `None` marks a sample that never
/// reached its target and sorts as +∞. The result is `None` when a middle
/// sample is censored, i.e. when at least half never arrived.
pub fn censored_median(values: &[Option<f64>]) -> Option<f64> {
    let v: Vec<f64> = values.iter().map(|x| x.unwrap_or(f64::INFINITY)).collect();
    median(&v).filter(|mid| mid.is_finite())
}

/// How many of `n` samples lie strictly beyond the nearest-rank `q`
/// quantile (`q` in 0..1).
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n.saturating_sub(nearest_rank(n, q))
}

fn nearest_rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank `q` quantile; `None` when empty.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    let v = sorted(values);
    (!v.is_empty()).then(|| v[nearest_rank(v.len(), q) - 1])
}

/// The `q` quantile of a timing measured in several rounds: the quantile of
/// each round, then the median over rounds, so that one disturbed round
/// cannot carry the tail. Reported only when the rounds together hold at
/// least [`MIN_SAMPLES_BEYOND`] samples beyond it.
///
/// # Errors
///
/// Says how many samples there were and how many the rule needs.
pub fn percentile(rounds: &[&[f64]], q: f64) -> Result<f64, String> {
    let n: usize = rounds.iter().map(|r| r.len()).sum();
    let beyond = samples_beyond(n, q);
    if beyond < MIN_SAMPLES_BEYOND {
        return Err(format!(
            "p{:.0} of {n} samples has {beyond} beyond it; the rule needs {MIN_SAMPLES_BEYOND}",
            q * 100.0
        ));
    }
    let per_round: Vec<f64> = rounds.iter().filter_map(|r| quantile(r, q)).collect();
    median(&per_round).ok_or_else(|| "no samples".to_string())
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), so `compare` and the driver judge
/// spread by the same rule. `None` below two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let m = v.len();
    if m < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Inter-quartile distance as a share of the median; `None` below two
/// samples or when the median is 0.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values)?;
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

/// Geometric mean of positive values; `None` when empty or any value is not
/// a positive finite number.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| !(v.is_finite() && *v > 0.0)) {
        return None;
    }
    Some((values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp())
}

/// Spearman rank correlation of two equal-length samples (ties get the mean
/// of their ranks); `None` when shorter than two or constant.
pub fn spearman(a: &[f64], b: &[f64]) -> Option<f64> {
    if a.len() != b.len() || a.len() < 2 {
        return None;
    }
    let (ra, rb) = (ranks(a), ranks(b));
    let n = a.len() as f64;
    let mean = (n + 1.0) / 2.0;
    let (mut cov, mut va, mut vb) = (0.0, 0.0, 0.0);
    for (x, y) in ra.iter().zip(&rb) {
        cov += (x - mean) * (y - mean);
        va += (x - mean) * (x - mean);
        vb += (y - mean) * (y - mean);
    }
    (va > 0.0 && vb > 0.0).then(|| cov / (va * vb).sqrt())
}

fn ranks(values: &[f64]) -> Vec<f64> {
    let mut order: Vec<usize> = (0..values.len()).collect();
    order.sort_by(|&i, &j| values[i].total_cmp(&values[j]));
    let mut out = vec![0.0; values.len()];
    let mut i = 0;
    while i < order.len() {
        let mut j = i;
        while j + 1 < order.len() && values[order[j + 1]] == values[order[i]] {
            j += 1;
        }
        let rank = (i + j) as f64 / 2.0 + 1.0;
        for &k in &order[i..=j] {
            out[k] = rank;
        }
        i = j + 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert_eq!(percentile(&[&v], 0.9), Ok(90.0));
        // 99 samples leave only 9 beyond p90; p99 of 100 leaves one.
        assert!(percentile(&[&v[..99]], 0.9).is_err());
        assert!(percentile(&[&v], 0.99).is_err());
        assert!(percentile(&[], 0.5).is_err());
        // The median of 20 samples has 10 beyond it and is the lowest count
        // that does.
        assert_eq!(percentile(&[&v[..20]], 0.5), Ok(10.0));
        assert!(percentile(&[&v[..19]], 0.5).is_err());
        // The rule counts the rounds together: five rounds of 20.
        let rounds: Vec<&[f64]> = v.chunks(20).collect();
        assert_eq!(
            percentile(&rounds, 0.9),
            Ok(58.0),
            "median of 18, 38, 58, 78, 98"
        );
        assert!(percentile(&rounds[..4], 0.9).is_err());
    }

    #[test]
    fn one_disturbed_round_does_not_carry_the_tail() {
        let calm = [1.0; 20];
        let disturbed = [5.0; 20];
        let rounds: [&[f64]; 6] = [&calm, &calm, &disturbed, &calm, &calm, &calm];
        assert_eq!(percentile(&rounds, 0.9), Ok(1.0));
        // Pooled, a sixth of the samples would have been the whole tail.
        let pooled: Vec<f64> = rounds.concat();
        assert_eq!(quantile(&pooled, 0.9), Some(5.0));
        assert_eq!(quantile(&[], 0.9), None);
    }

    #[test]
    fn censored_median_is_infinite_once_half_never_arrive() {
        let s = Some;
        assert_eq!(censored_median(&[s(1.0), s(2.0), None]), Some(2.0));
        assert_eq!(censored_median(&[s(1.0), None, None]), None);
        // Even count: both middles must have arrived.
        assert_eq!(censored_median(&[s(1.0), s(3.0), None, None]), None);
        assert_eq!(censored_median(&[s(1.0), s(3.0), s(5.0), None]), Some(4.0));
        assert_eq!(censored_median(&[]), None);
        // A censored sample never pulls the median below the arrived ones.
        assert_eq!(
            censored_median(&[None, s(2.0), s(1.0), s(9.0), None]),
            Some(9.0)
        );
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        assert_eq!(spread(&v), Some(5.5 / 5.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), Some((1.0, 4.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn geomean_refuses_non_positive_values() {
        assert_eq!(geomean(&[2.0, 8.0]), Some(4.0));
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[1.0, f64::INFINITY]), None);
        assert_eq!(geomean(&[]), None);
    }

    #[test]
    fn spearman_sees_monotone_relations_and_ties() {
        let a = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(spearman(&a, &[10.0, 20.0, 25.0, 90.0]), Some(1.0));
        assert_eq!(spearman(&a, &[4.0, 3.0, 2.0, 1.0]), Some(-1.0));
        assert_eq!(spearman(&a, &[1.0, 1.0, 1.0, 1.0]), None);
        let tied = spearman(&[1.0, 2.0, 2.0, 3.0], &[1.0, 2.0, 2.0, 3.0]).unwrap();
        assert!((tied - 1.0).abs() < 1e-12);
    }
}
