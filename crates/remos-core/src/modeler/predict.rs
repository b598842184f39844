//! Predictors for `Timeframe::Future` queries (§4.4).
//!
//! "Remos supports queries about historical performance, as well as
//! prediction of expected future performance. Initial implementations may
//! only support historical performance, or use a simplistic model to
//! predict future performance from current and historical data." These
//! are those simplistic models; the ablation bench compares them against
//! the oracle.

use remos_net::{SimDuration, SimTime};

/// Which prediction model to use.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PredictorKind {
    /// The last observed value persists.
    LastValue,
    /// Mean of the history window.
    WindowMean,
    /// Exponentially weighted moving average with the given alpha
    /// (weight of the newest sample).
    Ewma(f64),
    /// Least-squares linear trend extrapolated to the horizon midpoint,
    /// clamped to be non-negative.
    LinearTrend,
}

/// Predict the value `horizon` ahead of the last sample.
///
/// `series` is (time, value), oldest first; returns 0.0 for an empty
/// series (no observed traffic — the optimistic default a collector
/// reports for dark links).
pub fn predict(kind: PredictorKind, series: &[(SimTime, f64)], horizon: SimDuration) -> f64 {
    let Some(&(last_t, last_v)) = series.last() else { return 0.0 };
    match kind {
        PredictorKind::LastValue => last_v,
        PredictorKind::WindowMean => {
            series.iter().map(|&(_, v)| v).sum::<f64>() / series.len() as f64
        }
        PredictorKind::Ewma(alpha) => {
            let alpha = alpha.clamp(0.0, 1.0);
            let mut acc = series[0].1;
            for &(_, v) in &series[1..] {
                acc = alpha * v + (1.0 - alpha) * acc;
            }
            acc
        }
        PredictorKind::LinearTrend => {
            if series.len() < 2 {
                return last_v;
            }
            // Least squares on (t, v) with t relative to the first sample.
            let t0 = series[0].0;
            let n = series.len() as f64;
            let xys = || series.iter().map(|&(t, v)| (t.saturating_since(t0).as_secs_f64(), v));
            let sx: f64 = xys().map(|(x, _)| x).sum();
            let sy: f64 = xys().map(|(_, y)| y).sum();
            let sxx: f64 = xys().map(|(x, _)| x * x).sum();
            let sxy: f64 = xys().map(|(x, y)| x * y).sum();
            let denom = n * sxx - sx * sx;
            if denom.abs() < 1e-12 {
                return last_v;
            }
            let slope = (n * sxy - sx * sy) / denom;
            let intercept = (sy - slope * sx) / n;
            let target = last_t.saturating_since(t0).as_secs_f64()
                + horizon.as_secs_f64() / 2.0;
            (intercept + slope * target).max(0.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(vals: &[f64]) -> Vec<(SimTime, f64)> {
        vals.iter().enumerate().map(|(i, &v)| (SimTime::from_secs(i as u64), v)).collect()
    }

    const H: SimDuration = SimDuration::from_secs(2);

    #[test]
    fn empty_series_predicts_zero() {
        for k in [
            PredictorKind::LastValue,
            PredictorKind::WindowMean,
            PredictorKind::Ewma(0.5),
            PredictorKind::LinearTrend,
        ] {
            assert_eq!(predict(k, &[], H), 0.0);
        }
    }

    #[test]
    fn last_value() {
        let s = series(&[1.0, 2.0, 9.0]);
        assert_eq!(predict(PredictorKind::LastValue, &s, H), 9.0);
    }

    #[test]
    fn window_mean() {
        let s = series(&[1.0, 2.0, 3.0]);
        assert!((predict(PredictorKind::WindowMean, &s, H) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn ewma_weights_recent() {
        let s = series(&[0.0, 0.0, 10.0]);
        let light = predict(PredictorKind::Ewma(0.1), &s, H);
        let heavy = predict(PredictorKind::Ewma(0.9), &s, H);
        assert!(heavy > light);
        assert!(heavy <= 10.0 && light >= 0.0);
        // alpha=1 degenerates to last value.
        assert_eq!(predict(PredictorKind::Ewma(1.0), &s, H), 10.0);
    }

    #[test]
    fn linear_trend_extrapolates() {
        // Perfect ramp 0,1,2,3,... rate 1/s: prediction at last + 1s
        // (horizon midpoint of 2s) is last + 1.
        let s = series(&[0.0, 1.0, 2.0, 3.0]);
        let p = predict(PredictorKind::LinearTrend, &s, H);
        assert!((p - 4.0).abs() < 1e-9, "{p}");
    }

    #[test]
    fn linear_trend_clamps_negative() {
        let s = series(&[9.0, 6.0, 3.0, 0.0]);
        let p = predict(PredictorKind::LinearTrend, &s, SimDuration::from_secs(10));
        assert_eq!(p, 0.0);
    }

    #[test]
    fn trend_on_constant_series_is_flat() {
        let s = series(&[5.0, 5.0, 5.0]);
        assert!((predict(PredictorKind::LinearTrend, &s, H) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn single_sample_trend_degenerates() {
        let s = series(&[7.0]);
        assert_eq!(predict(PredictorKind::LinearTrend, &s, H), 7.0);
    }
}
