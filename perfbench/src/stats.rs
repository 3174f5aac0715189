//! Order statistics over timing samples.

/// The highest percentile [`tail`] reports. With hundreds of samples the
/// percentile that leaves only ten beyond it is the worst one or two per
/// cent, which on a shared host is set by how often the host stalled
/// rather than by the program. From 100 samples on, p90 still has ten
/// beyond it.
pub const TAIL_CAP: f64 = 0.9;

/// The median (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// The arithmetic mean.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of no samples");
    values.iter().sum::<f64>() / values.len() as f64
}

/// The tail percentile no higher than [`TAIL_CAP`] that still has at least
/// ten samples beyond it: `(value, percentile, sample count)`. With ten or
/// fewer samples no such percentile exists and the maximum is returned as
/// percentile 100.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn tail(values: &[f64]) -> (f64, f64, usize) {
    assert!(!values.is_empty(), "tail of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n <= 10 {
        return (sorted[n - 1], 100.0, n);
    }
    // Nearest-rank: the value at rank r (1-based) is percentile 100·r/n,
    // and has n − r samples above it.
    let rank = (n - 10).min((TAIL_CAP * n as f64).ceil() as usize);
    (sorted[rank - 1], 100.0 * rank as f64 / n as f64, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let values: Vec<f64> = (1..=40).map(f64::from).collect();
        let (value, pct, n) = tail(&values);
        assert_eq!((value, pct, n), (30.0, 75.0, 40));
        assert_eq!(tail(&[5.0, 9.0]), (9.0, 100.0, 2));
    }

    #[test]
    fn tail_stops_at_the_cap() {
        let values: Vec<f64> = (1..=600).map(f64::from).collect();
        assert_eq!(tail(&values), (540.0, 90.0, 600));
    }

    #[test]
    fn mean_of_samples() {
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
