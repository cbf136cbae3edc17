//! Order statistics over latency samples.

/// The median of `samples` (mean of the two middle values for an even
/// count); `None` when there are no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    let sorted = sorted(samples);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Samples that must lie beyond the reported tail, so the tail never rests
/// on a handful of observations.
pub const TAIL_BEYOND: usize = 10;

/// The fewest samples whose tail sits at or above their median.
pub const MIN_TAIL_SAMPLES: usize = 2 * TAIL_BEYOND + 1;

/// The highest percentile with at least [`TAIL_BEYOND`] samples beyond it:
/// the 11th-largest sample, reported with the percentile it sits at
/// (`100 · (n − 10) / n`). `None` when that percentile would fall below the
/// median, i.e. with fewer than [`MIN_TAIL_SAMPLES`] samples.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let sorted = sorted(samples);
    let n = sorted.len();
    if n < MIN_TAIL_SAMPLES {
        return None;
    }
    Some(Tail {
        value: sorted[n - 1 - TAIL_BEYOND],
        percentile: 100.0 * (n - TAIL_BEYOND) as f64 / n as f64,
        samples: n,
    })
}

/// A tail latency and where it sits in its sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The sample value.
    pub value: f64,
    /// The share of samples at or below `value`, in percent.
    pub percentile: f64,
    /// Size of the sample.
    pub samples: usize,
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
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
    fn tail_keeps_ten_samples_beyond_and_never_undercuts_the_median() {
        assert_eq!(tail(&(0..20).map(f64::from).collect::<Vec<_>>()), None);
        let s: Vec<f64> = (0..100).map(f64::from).collect();
        let t = tail(&s).unwrap();
        assert_eq!(t.value, 89.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(s.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);
        for n in 21..60 {
            let s: Vec<f64> = (0..n).map(f64::from).collect();
            assert!(tail(&s).unwrap().value >= median(&s).unwrap());
        }
    }
}
