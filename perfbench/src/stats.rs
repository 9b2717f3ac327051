//! Order statistics for the reported figures: linear-interpolated
//! percentiles, the tail percentile with at least ten samples beyond it,
//! and the quartile spread the repeatability check uses.

/// Samples a reported tail percentile must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// Candidate tail percentiles, highest first.
const TAIL_CANDIDATES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Arithmetic mean; `None` for no samples.
pub fn mean(xs: &[f64]) -> Option<f64> {
    (!xs.is_empty()).then(|| xs.iter().sum::<f64>() / xs.len() as f64)
}

/// Median (the 50th percentile); `None` for no samples.
pub fn median(xs: &[f64]) -> Option<f64> {
    percentile(xs, 50.0)
}

/// The `p`-th percentile (0..=100), interpolating linearly between the
/// closest ranks as `numpy.percentile` does by default. An infinite sample
/// (a failed request) sorts last.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 100.0) / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi || v[lo] == v[hi] {
        return Some(v[lo]);
    }
    Some(v[lo] + (v[hi] - v[lo]) * (rank - lo as f64))
}

/// The tail percentile the sample count alone guarantees: the highest
/// candidate whose ideal share beyond it, `(1 − p/100)·n`, is at least
/// ten samples. It depends on the count alone, never on ties in the data,
/// so a workload that keeps its sample count in one band always reports
/// the same percentile.
pub fn tail_percentile_for(n: usize) -> Option<f64> {
    TAIL_CANDIDATES.iter().copied().find(|&p| beyond_count(n, p) >= TAIL_BEYOND)
}

/// Samples an ideal `n`-sample distribution leaves beyond its `p`-th
/// percentile, `⌊(1 − p/100)·n⌋`, robust to the rounding of `p/100`.
pub fn beyond_count(n: usize, p: f64) -> usize {
    ((100.0 - p) * n as f64 / 100.0 + 1e-9).floor() as usize
}

/// First and third quartile as Python's `statistics.quantiles(xs, n=4)`
/// computes them (the default "exclusive" method). Needs two samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    if xs.len() < 2 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len() as f64;
    let at = |i: f64| -> f64 {
        // Position i/4 of (n + 1), 1-based, clamped to the data range.
        let m = i * (n + 1.0) / 4.0;
        let j = (m.floor() as usize).clamp(1, v.len() - 1);
        let delta = m - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1.0), at(3.0)))
}

/// Quartile spread as a share of the median: `(Q3 − Q1) / median`.
pub fn relative_spread(xs: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(xs)?;
    let m = median(xs)?;
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn percentile_interpolates_like_numpy() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), Some(2.5));
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&xs, 100.0), Some(4.0));
        // numpy.percentile([1, 2, 3, 4], 90) == 3.7
        assert!(close(percentile(&xs, 90.0).unwrap(), 3.7));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(mean(&xs), Some(2.5));
    }

    #[test]
    fn failures_sort_last() {
        let xs = [1.0, f64::INFINITY, 2.0];
        assert_eq!(median(&xs), Some(2.0));
        assert_eq!(percentile(&xs, 100.0), Some(f64::INFINITY));
    }

    #[test]
    fn ten_samples_lie_beyond_the_chosen_tail() {
        // 1..=100: p90 = 90.1 leaves exactly 10 samples above it.
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let p = tail_percentile_for(xs.len()).unwrap();
        let v = percentile(&xs, p).unwrap();
        assert_eq!(p, 90.0);
        assert!(close(v, 90.1));
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), 10);
        assert_eq!(beyond_count(100, 90.0), 10, "0.1 * 100 must not round down to 9");
        assert_eq!(beyond_count(1000, 99.0), 10);
        assert_eq!(beyond_count(999, 99.0), 9);
    }

    #[test]
    fn tail_percentile_follows_the_sample_count() {
        assert_eq!(tail_percentile_for(19), None);
        assert_eq!(tail_percentile_for(20), Some(50.0));
        assert_eq!(tail_percentile_for(40), Some(75.0));
        assert_eq!(tail_percentile_for(100), Some(90.0));
        assert_eq!(tail_percentile_for(199), Some(90.0));
        assert_eq!(tail_percentile_for(200), Some(95.0));
        assert_eq!(tail_percentile_for(1000), Some(99.0));
        assert_eq!(tail_percentile_for(10_000), Some(99.9));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&xs).unwrap();
        assert!(close(q1, 2.75) && close(q3, 8.25), "{q1} {q3}");
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let (q1, q3) = quartiles(&[3.0, 1.0, 2.0]).unwrap();
        assert!(close(q1, 1.0) && close(q3, 3.0), "{q1} {q3}");
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]).unwrap();
        assert!(close(q1, 0.75) && close(q3, 2.25), "{q1} {q3}");
        assert_eq!(quartiles(&[1.0]), None);
        let spread = relative_spread(&xs).unwrap();
        assert!(close(spread, (8.25 - 2.75) / 5.5));
    }
}
