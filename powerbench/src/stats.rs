//! Order statistics over timing samples.

/// Percentiles a tail may be reported at, highest first.
const TAIL_LADDER: [u32; 4] = [99, 95, 90, 75];

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `xs` (the mean of the two middle values for an even count),
/// or NaN for no samples.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Arithmetic mean of `xs`, or NaN for no samples.
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// The three quartile cut points exactly as Python's
/// `statistics.quantiles(xs, n=4)` computes them (its default exclusive
/// method), or `None` with fewer than two samples.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(xs);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let (n, m) = (4usize, ld + 1);
    let mut out = [0.0; 3];
    for (i, q) in (1..n).zip(out.iter_mut()) {
        let j = (i * m / n).clamp(1, ld - 1);
        // Signed: the clamp can push `j * n` past `i * m`, in which case
        // Python extrapolates from the end pair.
        let delta = (i * m) as f64 - (j * n) as f64;
        *q = (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64;
    }
    Some(out)
}

/// The highest tail percentile with at least ten of `n` samples beyond
/// it, capped at p99 (so p99 needs 1 000 samples), or `None` below forty.
pub fn tail_percentile(n: usize) -> Option<u32> {
    TAIL_LADDER
        .into_iter()
        .find(|&p| n * (100 - p as usize) >= 1000)
}

/// Nearest-rank percentile `p` of `xs` (at least one sample).
pub fn percentile(xs: &[f64], p: u32) -> f64 {
    let v = sorted(xs);
    let rank = (v.len() * p as usize).div_ceil(100).max(1);
    v[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn mean_of_samples() {
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert!(mean(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(1000), Some(99));
        assert_eq!(tail_percentile(999), Some(95));
        assert_eq!(tail_percentile(200), Some(95));
        assert_eq!(tail_percentile(199), Some(90));
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(99), Some(75));
        assert_eq!(tail_percentile(40), Some(75));
        assert_eq!(tail_percentile(39), None);
        for n in [40, 99, 100, 250, 999, 1000, 1001, 5000] {
            let p = tail_percentile(n).unwrap();
            let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let cut = percentile(&xs, p);
            let beyond = xs.iter().filter(|&&x| x > cut).count();
            assert!(beyond >= 10, "n={n} p{p}: only {beyond} beyond");
        }
    }

    #[test]
    fn nearest_rank_percentile() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 99), 99.0);
        assert_eq!(percentile(&xs, 50), 50.0);
        assert_eq!(percentile(&[7.0], 99), 7.0);
    }
}
