//! Exact order statistics over raw samples.
//!
//! Every percentile is read from the sorted samples themselves, never
//! from a bucketed histogram, so a reported value is always a value
//! that was measured (or, for an even-sized median, the mean of two).

/// Minimum samples beyond the tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Sorted copy of `xs`; NaNs are not expected (every sample is a
/// measured duration or byte count).
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `xs`; `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Mean of `xs`; `None` when empty.
pub fn mean(xs: &[f64]) -> Option<f64> {
    (!xs.is_empty()).then(|| xs.iter().sum::<f64>() / xs.len() as f64)
}

/// The highest percentile with at least [`TAIL_BEYOND`] samples above
/// it: `(value, percentile)`, where the percentile is the nearest-rank
/// one (the share of samples at or below the value, in percent).
/// `None` with fewer than `TAIL_BEYOND + 1` samples.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(xs);
    let n = v.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let i = n - 1 - TAIL_BEYOND;
    Some((v[i], 100.0 * (i + 1) as f64 / n as f64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let (v, p) = tail(&xs).unwrap();
        assert_eq!(v, 90.0);
        assert_eq!(p, 90.0);
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), TAIL_BEYOND);
        assert!(tail(&xs[..10]).is_none());
        assert_eq!(tail(&xs[..11]).unwrap().0, 1.0);
    }

    #[test]
    fn values_are_samples_not_bucket_edges() {
        let xs = [262_000.0, 262_500.0, 300_001.0];
        assert_eq!(median(&xs), Some(262_500.0));
    }
}
