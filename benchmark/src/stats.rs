//! Order statistics: nearest-rank percentiles, the tail-percentile rule,
//! and the quartiles `compare` uses for run-to-run spread.

/// Samples sorted ascending (NaN-free input assumed: every sample here is
/// a measured duration or count).
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile `p` (0 < p <= 100) of ascending `sorted`: the
/// smallest sample with at least `p` % of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() || !(p > 0.0 && p <= 100.0) {
        return None;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median as the mean of the two middle samples (Python's
/// `statistics.median`), so spreads match the same computation in Python.
pub fn median(xs: &[f64]) -> Option<f64> {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// Mean of the middle half of the samples (the interquartile mean). Unlike
/// the median it moves continuously with the samples, so it stays steady
/// when the samples cluster with a gap at the middle rank.
pub fn interquartile_mean(xs: &[f64]) -> Option<f64> {
    let s = sorted(xs);
    let cut = s.len() / 4;
    let mid = &s[cut..s.len() - cut];
    (!mid.is_empty()).then(|| mid.iter().sum::<f64>() / mid.len() as f64)
}

/// The highest whole percentile in 50..=99 whose nearest-rank sample has
/// at least ten samples above it, with that sample. Fewer than 20 samples
/// have no such percentile; the median stands in (percentile 50).
pub fn tail(sorted: &[f64]) -> Option<(u32, f64)> {
    let n = sorted.len();
    let beyond = |p: u32| n.saturating_sub((p as usize * n).div_ceil(100));
    let pct = (50..=99).rev().find(|&p| beyond(p) >= 10).unwrap_or(50);
    percentile(sorted, pct as f64).map(|v| (pct, v))
}

/// First and third quartiles by Python's `statistics.quantiles(xs, n=4)`
/// (the default "exclusive" method). Needs at least two samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(xs);
    let n = s.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), Some(5.0));
        assert_eq!(percentile(&s, 90.0), Some(9.0));
        assert_eq!(percentile(&s, 91.0), Some(10.0));
        assert_eq!(percentile(&s, 100.0), Some(10.0));
        assert_eq!(percentile(&s, 1.0), Some(1.0));
        assert_eq!(percentile(&s, 0.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 300 samples: p96 is rank 288 (12 beyond), p97 is rank 291 (9).
        let s: Vec<f64> = (1..=300).map(f64::from).collect();
        assert_eq!(tail(&s), Some((96, 288.0)));
        // 71 samples (the figure grid): p85 is rank 61 (10 beyond).
        let s: Vec<f64> = (1..=71).map(f64::from).collect();
        assert_eq!(tail(&s), Some((85, 61.0)));
        // 20 samples: only the median has ten above it.
        let s: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&s), Some((50, 10.0)));
        // Too few samples for any tail: the median stands in.
        assert_eq!(tail(&sorted(&[3.0, 1.0, 2.0])), Some((50, 2.0)));
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn median_and_quartiles_match_python() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert_eq!(median(&xs), Some(5.5));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([4, 1, 3], n=4) == [1.0, 3.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 3.0]), Some((1.0, 4.0)));
        // Middle half of 1..=10 is 3..=8.
        assert_eq!(interquartile_mean(&xs), Some(5.5));
        assert_eq!(
            interquartile_mean(&[9.0, 1.0, 100.0, 2.0, 3.0]),
            Some(14.0 / 3.0)
        );
        assert_eq!(interquartile_mean(&[7.0]), Some(7.0));
        assert_eq!(interquartile_mean(&[]), None);
        assert_eq!(quartiles(&[1.0]), None);
    }
}
