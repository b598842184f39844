//! Statistical measures.
//!
//! "Remos reports all quantities as a set of probabilistic quartile
//! measures along with a measure of estimation accuracy" (§4). Variance is
//! deliberately avoided: it "is only meaningful when applied to a normally
//! distributed random variable", and available-bandwidth measurements
//! under bursty cross-traffic are typically bimodal or otherwise
//! asymmetric. Quartiles are "the best choice for an unknown data
//! distribution" [Jain 91].

use std::fmt;

/// A five-number quartile summary with mean, sample count and an
/// estimation-accuracy measure.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quartiles {
    /// Minimum observed value.
    pub min: f64,
    /// First quartile (25th percentile).
    pub q1: f64,
    /// Median (50th percentile).
    pub median: f64,
    /// Third quartile (75th percentile).
    pub q3: f64,
    /// Maximum observed value.
    pub max: f64,
    /// Arithmetic mean (supplementary; quartiles are primary).
    pub mean: f64,
    /// Number of samples summarized.
    pub samples: usize,
    /// Estimation accuracy in [0, 1]: how trustworthy the summary is.
    /// Derived from sample count and relative dispersion — a single
    /// measurement, or a wildly spread one, scores low.
    pub accuracy: f64,
}

/// The pair of order-statistic ranks bracketing the R-7
/// (linear-interpolation, spreadsheet-convention) percentile `p` of `n`
/// samples, plus the fractional rank `h` used for interpolation.
fn percentile_ranks(n: usize, p: f64) -> (usize, usize, f64) {
    debug_assert!(n >= 1);
    debug_assert!((0.0..=1.0).contains(&p));
    let h = p * (n - 1) as f64;
    (h.floor() as usize, h.ceil() as usize, h)
}

impl Quartiles {
    /// Summarize a set of samples. Returns `None` for an empty set.
    pub fn from_samples(samples: &[f64]) -> Option<Quartiles> {
        Self::from_samples_in(samples, &mut Vec::new())
    }

    /// Summarize a set of samples, using `scratch` as the filter/select
    /// workspace instead of allocating one internally. Steady-state
    /// callers (the modeler's per-link annotation loop) reuse one buffer
    /// across calls, so the hot path allocates nothing. The result is
    /// bit-identical to [`Quartiles::from_samples`] on every input: both
    /// run the same finite-filter, order-statistic selection, and R-7
    /// interpolation sequence over the same values.
    ///
    /// The five-number summary needs at most eight order statistics
    /// (min, max, and the two R-7 bracketing ranks per quartile), so
    /// they are obtained by `select_nth_unstable_by` under `total_cmp`
    /// — O(n) expected per statistic instead of an O(n log n) full sort.
    /// Selection yields exactly the value a `total_cmp` sort would place
    /// at that rank, so every percentile is bit-identical to the sorted
    /// implementation it replaces. The mean is summed in input order
    /// (the sorted order no longer exists to sum in); its
    /// last-few-ulps may differ from the old sorted-order sum, which no
    /// consumer or digest depends on.
    pub fn from_samples_in(samples: &[f64], scratch: &mut Vec<f64>) -> Option<Quartiles> {
        if samples.is_empty() {
            return None;
        }
        scratch.clear();
        scratch.extend(samples.iter().copied().filter(|v| v.is_finite()));
        if scratch.is_empty() {
            return None;
        }
        let n = scratch.len();
        let mean = scratch.iter().sum::<f64>() / n as f64;
        if n == 1 {
            let v = scratch[0];
            return Some(Quartiles {
                min: v,
                q1: v,
                median: v,
                q3: v,
                max: v,
                mean,
                samples: 1,
                // One dynamic measurement: low confidence by construction.
                accuracy: 0.25,
            });
        }
        let (q1l, q1h, h1) = percentile_ranks(n, 0.25);
        let (q2l, q2h, h2) = percentile_ranks(n, 0.50);
        let (q3l, q3h, h3) = percentile_ranks(n, 0.75);
        // Ranks in ascending order; duplicates are shared below.
        let mut ranks = [0, q1l, q1h, q2l, q2h, q3l, q3h, n - 1];
        ranks.sort_unstable();
        // Select from the highest rank down. After selecting rank `k`,
        // the k smallest values all sit (unordered) left of position k,
        // so every lower rank can be selected within that prefix — the
        // working slice only shrinks.
        let mut vals = [0.0f64; 8];
        let mut upper = n;
        for j in (0..ranks.len()).rev() {
            let k = ranks[j];
            if j + 1 < ranks.len() && ranks[j + 1] == k {
                vals[j] = vals[j + 1];
                continue;
            }
            let (_, v, _) = scratch[..upper].select_nth_unstable_by(k, f64::total_cmp);
            vals[j] = *v;
            upper = k.max(1);
        }
        let value_at = |k: usize| match ranks.iter().position(|&r| r == k) {
            Some(j) => vals[j],
            // Unreachable: every rank queried below is a member of `ranks`.
            None => vals[0],
        };
        // R-7 interpolation, arithmetic unchanged from the sorted-slice
        // implementation.
        let interp = |h: f64, lo: usize, hi: usize| {
            let vlo = value_at(lo);
            if lo == hi {
                vlo
            } else {
                vlo + (h - lo as f64) * (value_at(hi) - vlo)
            }
        };
        let q1 = interp(h1, q1l, q1h);
        let median = interp(h2, q2l, q2h);
        let q3 = interp(h3, q3l, q3h);
        Some(Quartiles {
            min: value_at(0),
            q1,
            median,
            q3,
            max: value_at(n - 1),
            mean,
            samples: n,
            accuracy: Self::accuracy_for(n, q3 - q1, mean),
        })
    }

    /// Summary of a single known value (degenerate distribution, e.g. a
    /// static link capacity or a `Current` timeframe reading).
    pub fn exact(v: f64) -> Quartiles {
        Quartiles {
            min: v,
            q1: v,
            median: v,
            q3: v,
            max: v,
            mean: v,
            samples: 1,
            accuracy: 1.0,
        }
    }

    fn accuracy_for(n: usize, iqr: f64, mean: f64) -> f64 {
        debug_assert!(n >= 2, "n == 1 is summarized inline");
        let scale = mean.abs().max(f64::MIN_POSITIVE);
        let dispersion = (iqr / scale).min(1.0);
        // More samples raise confidence; relative dispersion lowers it.
        let count_term = 1.0 - 1.0 / (n as f64).sqrt();
        (count_term * (1.0 - 0.5 * dispersion)).clamp(0.0, 1.0)
    }

    /// Interquartile range.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }

    /// Map every quantile through a monotone non-decreasing function
    /// (e.g. convert utilization to available bandwidth, clamp at zero).
    pub fn map_monotone(&self, f: impl Fn(f64) -> f64) -> Quartiles {
        Quartiles {
            min: f(self.min),
            q1: f(self.q1),
            median: f(self.median),
            q3: f(self.q3),
            max: f(self.max),
            mean: f(self.mean),
            samples: self.samples,
            accuracy: self.accuracy,
        }
    }

    /// Widen the summary about its median by `factor` (≥ 1), clamping at
    /// zero, and reduce the accuracy correspondingly. Used when an estimate
    /// is derived from stale data: the quantities were right *once*, so the
    /// center is kept but the plausible spread grows with the data's age.
    pub fn widen(&self, factor: f64) -> Quartiles {
        debug_assert!(factor >= 1.0);
        let c = self.median;
        if self.max - self.min <= 0.0 {
            // Degenerate summary (e.g. a single Current reading): there is
            // no spread to scale, so fabricate one proportional to the
            // value itself — a stale 10 Mbps reading means "somewhere
            // around 10 Mbps by now".
            let pad = c.abs() * (factor - 1.0) * 0.5;
            return Quartiles {
                min: (c - pad).max(0.0),
                q1: (c - pad * 0.5).max(0.0),
                median: c.max(0.0),
                q3: c + pad * 0.5,
                max: c + pad,
                mean: self.mean.max(0.0),
                samples: self.samples,
                accuracy: (self.accuracy / factor).clamp(0.0, 1.0),
            };
        }
        let w = |v: f64| (c + (v - c) * factor).max(0.0);
        Quartiles {
            min: w(self.min),
            q1: w(self.q1),
            median: c.max(0.0),
            q3: w(self.q3),
            max: w(self.max),
            mean: w(self.mean),
            samples: self.samples,
            accuracy: (self.accuracy / factor).clamp(0.0, 1.0),
        }
    }

    /// Map through a monotone *decreasing* function, flipping the order of
    /// the quantiles so min stays min.
    pub fn map_antitone(&self, f: impl Fn(f64) -> f64) -> Quartiles {
        Quartiles {
            min: f(self.max),
            q1: f(self.q3),
            median: f(self.median),
            q3: f(self.q1),
            max: f(self.min),
            mean: f(self.mean),
            samples: self.samples,
            accuracy: self.accuracy,
        }
    }
}

impl fmt::Display for Quartiles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:.3e} | {:.3e} | {:.3e} | {:.3e} | {:.3e}] (n={}, acc={:.2})",
            self.min, self.q1, self.median, self.q3, self.max, self.samples, self.accuracy
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_quartiles() {
        let q = Quartiles::from_samples(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(q.min, 1.0);
        assert_eq!(q.q1, 2.0);
        assert_eq!(q.median, 3.0);
        assert_eq!(q.q3, 4.0);
        assert_eq!(q.max, 5.0);
        assert_eq!(q.mean, 3.0);
        assert_eq!(q.samples, 5);
    }

    #[test]
    fn unordered_input() {
        let q = Quartiles::from_samples(&[5.0, 1.0, 3.0, 2.0, 4.0]).unwrap();
        assert_eq!(q.median, 3.0);
    }

    #[test]
    fn empty_and_nonfinite() {
        assert!(Quartiles::from_samples(&[]).is_none());
        assert!(Quartiles::from_samples(&[f64::NAN, f64::INFINITY]).is_none());
        let q = Quartiles::from_samples(&[f64::NAN, 2.0]).unwrap();
        assert_eq!(q.samples, 1);
        assert_eq!(q.median, 2.0);
    }

    #[test]
    fn single_sample_has_low_accuracy() {
        let q = Quartiles::from_samples(&[7.0]).unwrap();
        assert_eq!(q.min, 7.0);
        assert_eq!(q.max, 7.0);
        assert!(q.accuracy < 0.5);
        assert_eq!(Quartiles::exact(7.0).accuracy, 1.0);
    }

    #[test]
    fn accuracy_grows_with_samples_and_shrinks_with_spread() {
        let tight: Vec<f64> = (0..50).map(|i| 100.0 + (i % 3) as f64).collect();
        let loose: Vec<f64> = (0..50).map(|i| ((i * 37) % 100) as f64 * 2.0).collect();
        let qa = Quartiles::from_samples(&tight).unwrap();
        let qb = Quartiles::from_samples(&loose).unwrap();
        assert!(qa.accuracy > qb.accuracy, "{} vs {}", qa.accuracy, qb.accuracy);
        let few = Quartiles::from_samples(&tight[..4]).unwrap();
        assert!(qa.accuracy > few.accuracy);
    }

    #[test]
    fn bimodal_distribution_is_captured() {
        // 50/50 bursty link: 0 or 100 Mbps. Mean says 50; quartiles show
        // the truth — this is the paper's §4.4 motivating example.
        let samples: Vec<f64> =
            (0..100).map(|i| if i % 2 == 0 { 0.0 } else { 100e6 }).collect();
        let q = Quartiles::from_samples(&samples).unwrap();
        assert_eq!(q.min, 0.0);
        assert_eq!(q.max, 100e6);
        assert_eq!(q.q1, 0.0);
        assert_eq!(q.q3, 100e6);
        assert!((q.mean - 50e6).abs() < 1e3);
    }

    #[test]
    fn monotone_maps() {
        let q = Quartiles::from_samples(&[10.0, 20.0, 30.0]).unwrap();
        let doubled = q.map_monotone(|v| v * 2.0);
        assert_eq!(doubled.min, 20.0);
        assert_eq!(doubled.max, 60.0);
        // available = capacity - utilization is antitone in utilization.
        let avail = q.map_antitone(|u| 100.0 - u);
        assert_eq!(avail.min, 70.0);
        assert_eq!(avail.max, 90.0);
        assert!(avail.min <= avail.q1 && avail.q1 <= avail.median);
        assert!(avail.median <= avail.q3 && avail.q3 <= avail.max);
    }

    #[test]
    fn iqr() {
        let q = Quartiles::from_samples(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(q.iqr(), 2.0);
    }

    #[test]
    fn widen_scales_spread_and_cuts_accuracy() {
        let q = Quartiles::from_samples(&[10.0, 20.0, 30.0, 40.0, 50.0]).unwrap();
        let w = q.widen(2.0);
        assert_eq!(w.median, q.median);
        assert_eq!(w.iqr(), 2.0 * q.iqr());
        assert!(w.min <= w.q1 && w.q1 <= w.median && w.median <= w.q3 && w.q3 <= w.max);
        assert!(w.accuracy < q.accuracy);
        assert_eq!(q.widen(1.0), q);
        // Large factors clamp at zero rather than going negative.
        assert_eq!(q.widen(100.0).min, 0.0);
        // Degenerate summaries gain a spread proportional to the value.
        let e = Quartiles::exact(10.0).widen(2.0);
        assert_eq!(e.median, 10.0);
        assert!(e.max > e.min, "{e}");
        assert!(e.min >= 0.0 && e.accuracy < 1.0);
    }

    mod properties {
        use super::*;
        use remos_prop::prelude::*;

        proptest! {
            #[test]
            fn quantiles_are_ordered(samples in prop::collection::vec(-1e9..1e9f64, 1..200)) {
                let q = Quartiles::from_samples(&samples).unwrap();
                prop_assert!(q.min <= q.q1);
                prop_assert!(q.q1 <= q.median);
                prop_assert!(q.median <= q.q3);
                prop_assert!(q.q3 <= q.max);
                prop_assert!(q.min <= q.mean && q.mean <= q.max + 1e-9);
                prop_assert!((0.0..=1.0).contains(&q.accuracy));
            }

            #[test]
            fn permutation_invariant(mut samples in prop::collection::vec(-1e6..1e6f64, 2..50)) {
                // The five quantiles are exact order statistics, so they
                // are bit-identical under any permutation. The mean is
                // summed in input order, so it (and the accuracy derived
                // from it) may differ by a few ulps.
                let q1 = Quartiles::from_samples(&samples).unwrap();
                samples.reverse();
                let q2 = Quartiles::from_samples(&samples).unwrap();
                for (a, b) in [
                    (q1.min, q2.min), (q1.q1, q2.q1), (q1.median, q2.median),
                    (q1.q3, q2.q3), (q1.max, q2.max),
                ] {
                    prop_assert_eq!(a.to_bits(), b.to_bits());
                }
                prop_assert_eq!(q1.samples, q2.samples);
                let tol = 1e-9 * q1.mean.abs().max(1.0);
                prop_assert!((q1.mean - q2.mean).abs() <= tol, "{} vs {}", q1.mean, q2.mean);
                prop_assert!((q1.accuracy - q2.accuracy).abs() <= 1e-9);
            }

            #[test]
            fn scratch_variant_is_bit_identical(
                samples in prop::collection::vec(
                    prop_oneof![
                        -1e9..1e9f64,
                        -1e9..1e9f64,
                        -1e9..1e9f64,
                        Just(f64::NAN),
                        Just(f64::INFINITY),
                    ],
                    0..120,
                ),
            ) {
                // One scratch buffer reused across calls must never change
                // the answer — compare every f64 field by bit pattern.
                let mut scratch = Vec::new();
                let baseline = Quartiles::from_samples(&samples);
                for _ in 0..3 {
                    let reused = Quartiles::from_samples_in(&samples, &mut scratch);
                    match (baseline, reused) {
                        (None, None) => {}
                        (Some(a), Some(b)) => {
                            for (x, y) in [
                                (a.min, b.min), (a.q1, b.q1), (a.median, b.median),
                                (a.q3, b.q3), (a.max, b.max), (a.mean, b.mean),
                                (a.accuracy, b.accuracy),
                            ] {
                                prop_assert_eq!(x.to_bits(), y.to_bits());
                            }
                            prop_assert_eq!(a.samples, b.samples);
                        }
                        (a, b) => prop_assert!(false, "diverged: {:?} vs {:?}", a, b),
                    }
                }
            }

            #[test]
            fn selection_matches_sorted_reference(
                samples in prop::collection::vec(-1e9..1e9f64, 1..200),
            ) {
                // The selection-based quartiles must be bit-identical to
                // the full-sort R-7 reference they replaced.
                let q = Quartiles::from_samples(&samples).unwrap();
                let mut sorted = samples.clone();
                sorted.sort_by(f64::total_cmp);
                let r7 = |p: f64| {
                    let (lo, hi, h) = percentile_ranks(sorted.len(), p);
                    if lo == hi {
                        sorted[lo]
                    } else {
                        sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo])
                    }
                };
                for (got, want) in [
                    (q.min, sorted[0]),
                    (q.q1, r7(0.25)),
                    (q.median, r7(0.50)),
                    (q.q3, r7(0.75)),
                    (q.max, sorted[sorted.len() - 1]),
                ] {
                    prop_assert_eq!(got.to_bits(), want.to_bits());
                }
            }

            #[test]
            fn bounds_are_tight(samples in prop::collection::vec(-1e6..1e6f64, 1..100)) {
                let q = Quartiles::from_samples(&samples).unwrap();
                let lo = samples.iter().copied().fold(f64::MAX, f64::min);
                let hi = samples.iter().copied().fold(f64::MIN, f64::max);
                prop_assert_eq!(q.min, lo);
                prop_assert_eq!(q.max, hi);
            }
        }
    }
}
