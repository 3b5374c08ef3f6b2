//! Order statistics shared by every report.

/// Percentiles the tail metric may report, highest first. The tail is the
/// highest of these that still has at least [`TAIL_MIN_BEYOND`] samples
/// above it, so its value rests on more than a handful of outliers. It
/// stops at p90: on a shared 2-vCPU guest the served p99 spread by a
/// quarter of its median over ten seeds, wider than any bound the
/// benchmark may set.
pub const TAIL_CANDIDATES: [f64; 2] = [0.90, 0.50];

/// Samples a reported percentile must have beyond it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `q · n` samples at or below it. `None` when empty.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = rank_of(sorted.len(), q);
    Some(sorted[rank - 1])
}

/// 1-based nearest rank of percentile `q` among `n` samples.
fn rank_of(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// The tail percentile to report for `n` samples: the highest candidate
/// with at least ten samples beyond its rank, or `None` when even the
/// median has fewer (then the maximum is reported instead).
pub fn tail_quantile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .iter()
        .copied()
        .find(|&q| n >= 1 && n - rank_of(n, q) >= TAIL_MIN_BEYOND)
}

/// `(percentile, value)` of the tail of an ascending slice, by the rule of
/// [`tail_quantile`]; the percentile reads `1.0` when the maximum stands in.
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    let last = *sorted.last()?;
    Some(match tail_quantile(sorted.len()) {
        Some(q) => (q, percentile(sorted, q).expect("non-empty")),
        None => (1.0, last),
    })
}

/// Median of unsorted values (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Arithmetic mean; `0` when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or `0` when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // Many samples: the cap, p90.
        assert_eq!(tail_quantile(100_000), Some(0.90));
        assert_eq!(tail(&ramp(1000)), Some((0.90, 900.0)));
        // 100 samples: p90 leaves exactly 10.
        assert_eq!(tail_quantile(100), Some(0.90));
        // 99 samples: p90 rank 90 leaves 9; the median leaves 49.
        assert_eq!(tail_quantile(99), Some(0.50));
        // 20 samples: the median leaves exactly 10.
        assert_eq!(tail_quantile(20), Some(0.50));
        // Fewer than that: the maximum stands in.
        assert_eq!(tail_quantile(19), None);
        assert_eq!(tail(&ramp(6)), Some((1.0, 6.0)));
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = ramp(10);
        assert_eq!(percentile(&v, 0.5), Some(5.0));
        assert_eq!(percentile(&v, 0.99), Some(10.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }
}
