//! Interval-sampling estimators: point estimate and confidence interval
//! from per-interval CPI observations.
//!
//! Sampled replay (`vpsim-uarch`'s sampling layer) measures K intervals of
//! the trace in detail and treats their CPIs as observations of the
//! workload's steady-state CPI. Every interval commits the same number of
//! µops, so the mean CPI is exactly the aggregate CPI and the aggregate
//! IPC is its reciprocal; the mean of per-interval IPCs is not (it
//! overweights fast intervals). This is the SMARTS estimator (Wunderlich
//! et al., ISCA 2003). With systematic sampling the sample mean is an
//! unbiased point estimate, and the usual small-sample (Student's t)
//! half-width quantifies how far the truth plausibly lies from it; an IPC
//! interval is the reciprocal of the CPI interval's edges.

use crate::mean;

/// A sample-based estimate: mean, 95 % half-width, and sample size.
///
/// The interval is `mean ± half_width`. [`SampleEstimate::relative_error`]
/// gives the half-width as a fraction of the mean, the number the ≤1 %
/// acceptance bound in CI is stated in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleEstimate {
    /// Arithmetic mean of the observations (the point estimate).
    pub mean: f64,
    /// 95 % confidence half-width (`t · s / √n`); `0.0` when `n < 2`.
    pub half_width: f64,
    /// Number of observations the estimate is built from.
    pub n: usize,
}

impl SampleEstimate {
    /// Lower edge of the 95 % confidence interval.
    pub fn lower(&self) -> f64 {
        self.mean - self.half_width
    }

    /// Upper edge of the 95 % confidence interval.
    pub fn upper(&self) -> f64 {
        self.mean + self.half_width
    }

    /// Half-width as a fraction of the mean; `0.0` for a zero mean.
    pub fn relative_error(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            self.half_width / self.mean.abs()
        }
    }
}

/// Two-sided 95 % Student's t critical values for `df = 1..=30`. Beyond 30
/// degrees of freedom the normal approximation (1.96) is used, standard
/// practice for sampled-simulation error reporting.
const T_95: [f64; 30] = [
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
    2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
    2.052, 2.048, 2.045, 2.042,
];

/// The two-sided 95 % t critical value for `df` degrees of freedom.
fn t_critical(df: usize) -> f64 {
    if df == 0 {
        f64::INFINITY
    } else if df <= T_95.len() {
        T_95[df - 1]
    } else {
        1.96
    }
}

/// Estimate the population mean from per-interval observations: sample
/// mean ± `t₀.₉₅ · s / √n` (sample standard deviation `s`, Student's t
/// with `n − 1` degrees of freedom).
///
/// Returns `None` for an empty slice. A single observation yields a
/// zero-width interval (there is no spread information; callers that need
/// a bound should sample ≥ 2 intervals).
///
/// # Examples
///
/// ```
/// let ipcs = [1.98, 2.02, 2.00, 1.99, 2.01];
/// let est = vpsim_stats::sample::confidence_interval(&ipcs).unwrap();
/// assert!((est.mean - 2.0).abs() < 1e-12);
/// assert!(est.lower() < 2.0 && 2.0 < est.upper());
/// assert!(est.relative_error() < 0.01, "tight sample: sub-1% error");
/// ```
pub fn confidence_interval(values: &[f64]) -> Option<SampleEstimate> {
    let m = mean::arithmetic(values)?;
    let n = values.len();
    if n < 2 {
        return Some(SampleEstimate { mean: m, half_width: 0.0, n });
    }
    let var = values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / (n - 1) as f64;
    let half_width = t_critical(n - 1) * var.sqrt() / (n as f64).sqrt();
    Some(SampleEstimate { mean: m, half_width, n })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input_yields_none() {
        assert_eq!(confidence_interval(&[]), None);
    }

    #[test]
    fn single_observation_has_zero_width() {
        let est = confidence_interval(&[1.5]).unwrap();
        assert_eq!(est.mean, 1.5);
        assert_eq!(est.half_width, 0.0);
        assert_eq!(est.n, 1);
    }

    #[test]
    fn constant_observations_have_zero_width() {
        let est = confidence_interval(&[2.0; 10]).unwrap();
        assert_eq!(est.mean, 2.0);
        assert_eq!(est.half_width, 0.0);
    }

    #[test]
    fn hand_computed_two_point_interval() {
        // mean 2, s = √2, t(df=1) = 12.706 → half-width = 12.706·√2/√2.
        let est = confidence_interval(&[1.0, 3.0]).unwrap();
        assert_eq!(est.mean, 2.0);
        assert!((est.half_width - 12.706).abs() < 1e-9);
        assert!((est.lower() - (2.0 - 12.706)).abs() < 1e-9);
        assert!((est.upper() - (2.0 + 12.706)).abs() < 1e-9);
    }

    #[test]
    fn wider_spread_gives_wider_interval() {
        let tight = confidence_interval(&[1.9, 2.0, 2.1, 2.0, 1.95, 2.05]).unwrap();
        let loose = confidence_interval(&[1.0, 3.0, 1.5, 2.5, 1.2, 2.8]).unwrap();
        assert!(loose.half_width > tight.half_width);
    }

    #[test]
    fn more_samples_shrink_the_interval() {
        // Same alternating spread, more observations.
        let few: Vec<f64> = (0..4).map(|i| if i % 2 == 0 { 1.9 } else { 2.1 }).collect();
        let many: Vec<f64> = (0..24).map(|i| if i % 2 == 0 { 1.9 } else { 2.1 }).collect();
        let a = confidence_interval(&few).unwrap();
        let b = confidence_interval(&many).unwrap();
        assert!(b.half_width < a.half_width);
    }

    #[test]
    fn t_critical_matches_the_table_and_tail() {
        assert_eq!(t_critical(1), 12.706);
        assert_eq!(t_critical(30), 2.042);
        assert_eq!(t_critical(31), 1.96);
        assert_eq!(t_critical(0), f64::INFINITY);
    }

    #[test]
    fn relative_error_is_halfwidth_over_mean() {
        let est = SampleEstimate { mean: 2.0, half_width: 0.01, n: 20 };
        assert!((est.relative_error() - 0.005).abs() < 1e-15);
        let zero = SampleEstimate { mean: 0.0, half_width: 0.01, n: 20 };
        assert_eq!(zero.relative_error(), 0.0);
    }
}
