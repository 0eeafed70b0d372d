//! Order statistics over per-iteration samples.

/// Samples a tail statistic must leave above it.
pub const TAIL_BEYOND: usize = 10;

/// Median (mean of the middle two for an even count); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest order statistic with at least [`TAIL_BEYOND`] samples
/// above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample value.
    pub value: f64,
    /// Its percentile rank: the share of samples at or below it, %.
    pub percentile: f64,
    /// Samples strictly beyond it in sorted order.
    pub beyond: usize,
}

/// The tail of `xs`. When leaving [`TAIL_BEYOND`] samples above it
/// would put it at or below the median (20 samples or fewer), falls
/// back to the maximum (`beyond` is then 0).
pub fn tail(xs: &[f64]) -> Tail {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return Tail {
            value: 0.0,
            percentile: 0.0,
            beyond: 0,
        };
    }
    let beyond = if n > 2 * TAIL_BEYOND { TAIL_BEYOND } else { 0 };
    let rank = n - beyond;
    Tail {
        value: v[rank - 1],
        percentile: 100.0 * rank as f64 / n as f64,
        beyond,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!(t.value, 30.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.percentile, 75.0);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), 10);
    }

    #[test]
    fn tail_of_a_small_sample_is_its_maximum() {
        let t = tail(&[5.0, 1.0, 3.0]);
        assert_eq!(t.value, 5.0);
        assert_eq!(t.beyond, 0);
        assert_eq!(t.percentile, 100.0);
        // Ten beyond would sit below the median of 14 samples.
        let xs: Vec<f64> = (1..=14).map(f64::from).collect();
        assert_eq!(tail(&xs).value, 14.0);
        let xs: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(tail(&xs).value, 11.0);
    }
}
