//! Order statistics over samples.

/// Sample count plus median and one tail percentile.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Summary {
    /// Samples summarised.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The `q`-quantile.
    pub tail: f64,
    /// Which quantile `tail` is.
    pub q: f64,
}

/// The `q`-quantile of `sorted` by linear interpolation between closest
/// ranks (0 for an empty slice).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Sort `samples` ascending (NaN-free input).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// Median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(&sorted(samples.to_vec()), 0.5)
}

/// Median and `q`-quantile of `samples`.
pub fn summarize(samples: &[f64], q: f64) -> Summary {
    let s = sorted(samples.to_vec());
    Summary {
        n: s.len(),
        p50: quantile(&s, 0.5),
        tail: quantile(&s, q),
        q,
    }
}

/// Interquartile range of `samples`.
pub fn iqr(samples: &[f64]) -> f64 {
    let s = sorted(samples.to_vec());
    quantile(&s, 0.75) - quantile(&s, 0.25)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&s, 0.5), 3.0);
        assert_eq!(quantile(&s, 0.25), 2.0);
        assert_eq!(quantile(&s, 0.9), 4.6);
        assert_eq!(median(&[4.0, 1.0]), 2.5);
        assert_eq!(iqr(&s), 2.0);
    }
}
