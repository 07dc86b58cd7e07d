//! Order statistics over the handful of samples a run collects.

/// Minimum, median and maximum of a sample set, with its size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    pub min: f64,
    pub median: f64,
    pub max: f64,
    pub count: usize,
}

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice or a NaN sample.
pub fn median(xs: &[f64]) -> f64 {
    spread(xs).median
}

/// Min / median / max of `xs`.
///
/// # Panics
/// Panics on an empty slice or a NaN sample.
pub fn spread(xs: &[f64]) -> Spread {
    assert!(!xs.is_empty(), "no samples");
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
    let n = sorted.len();
    let median = if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    };
    Spread {
        min: sorted[0],
        median,
        max: sorted[n - 1],
        count: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn odd_and_even_counts() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let s = spread(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!((s.min, s.max, s.count), (1.0, 4.0, 4));
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn empty_panics() {
        median(&[]);
    }
}
