//! Order statistics over measured samples.
//!
//! Percentiles interpolate linearly between the two nearest order
//! statistics (the "R-7" rule, as numpy and `statistics.quantiles(...,
//! method="inclusive")` compute it), so a percentile moves smoothly as
//! samples change instead of jumping between neighbours.

/// The `q`-quantile (`0.0..=1.0`) of `sorted`, which must be sorted
/// ascending. `None` for an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    let last = sorted.len().checked_sub(1)?;
    let q = q.clamp(0.0, 1.0);
    let pos = q * f64::from(u32::try_from(last).ok()?);
    let frac = pos - pos.floor();
    // `pos` lies in `0..=last`, so the floor is a valid index.
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let lo = (pos.floor() as usize).min(last);
    let hi = (lo + 1).min(last);
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// Sort a copy of `values` ascending (NaN-free input assumed; NaNs sort
/// last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values` (any order). `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(&sorted(values), 0.5)
}

/// Nanoseconds as microseconds.
pub fn us(ns: u64) -> f64 {
    aon_trace::num::exact_f64(ns) / 1e3
}

/// A latency summary: the gated percentiles plus the p99 reference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// 90th percentile; `None` below 40 samples, where it would be no tail.
    pub p90: Option<f64>,
    /// 99th percentile (reference only).
    pub p99: f64,
    /// Samples strictly above the p99.
    pub beyond_p99: usize,
}

/// Summarize `values` (any order). `None` when empty.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    let s = sorted(values);
    let p99 = quantile(&s, 0.99)?;
    Some(Summary {
        n: s.len(),
        p50: quantile(&s, 0.5)?,
        p90: if s.len() >= 40 { quantile(&s, 0.9) } else { None },
        p99,
        beyond_p99: s.iter().filter(|&&v| v > p99).count(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_order_statistics() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&s, 0.0), Some(1.0));
        assert_eq!(quantile(&s, 1.0), Some(4.0));
        assert_eq!(quantile(&s, 0.5), Some(2.5));
        // pos = 0.25 * 3 = 0.75 -> 1 + 0.75
        assert_eq!(quantile(&s, 0.25), Some(1.75));
        assert_eq!(quantile(&[7.0], 0.9), Some(7.0));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn median_ignores_input_order() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn summary_reports_p90_only_with_forty_samples() {
        let few: Vec<f64> = (1..=39).map(f64::from).collect();
        assert_eq!(summarize(&few).expect("non-empty").p90, None);
        let many: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = summarize(&many).expect("non-empty");
        assert_eq!(s.n, 100);
        assert!((s.p90.expect("100 samples") - 90.1).abs() < 1e-9);
        assert!((s.p50 - 50.5).abs() < 1e-9);
        assert_eq!(s.beyond_p99, 1);
    }
}
