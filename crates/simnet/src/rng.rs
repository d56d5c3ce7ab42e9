//! Service-time and think-time distributions.
//!
//! Exponential is the default (product-form, MVA-comparable). The Grinder's
//! `grinder.sleepTimeVariation` varies sleep times "according to a Normal
//! distribution with specified variance", reproduced by
//! [`Distribution::NormalClamped`]. Deterministic and Erlang-k cover the
//! low-variance end for robustness studies.

use crate::stream::VariateStream;

/// A non-negative random-variate family with a configurable mean.
#[derive(Debug, Clone, PartialEq)]
pub enum Distribution {
    /// Exponential with the given mean (rate `1/mean`).
    Exponential {
        /// Mean of the distribution.
        mean: f64,
    },
    /// Always exactly `value`.
    Deterministic {
        /// The constant value.
        value: f64,
    },
    /// Erlang with `k` stages and the given overall mean (variance
    /// `mean²/k`) — interpolates between exponential (`k = 1`) and
    /// deterministic (`k → ∞`).
    Erlang {
        /// Number of exponential stages.
        k: u32,
        /// Overall mean.
        mean: f64,
    },
    /// Uniform on `[lo, hi]`.
    Uniform {
        /// Lower bound.
        lo: f64,
        /// Upper bound.
        hi: f64,
    },
    /// Normal with the given mean and standard deviation, resampled-free:
    /// values are clamped at zero (The Grinder's sleep-time model).
    NormalClamped {
        /// Mean before clamping.
        mean: f64,
        /// Standard deviation before clamping.
        std_dev: f64,
    },
}

impl Distribution {
    /// The configured mean (before clamping, for `NormalClamped`).
    pub fn mean(&self) -> f64 {
        match self {
            Distribution::Exponential { mean } => *mean,
            Distribution::Deterministic { value } => *value,
            Distribution::Erlang { mean, .. } => *mean,
            Distribution::Uniform { lo, hi } => 0.5 * (lo + hi),
            Distribution::NormalClamped { mean, .. } => *mean,
        }
    }

    /// Returns a copy rescaled to the given mean (shape preserved). Used by
    /// the testbed to re-aim a station's service distribution at the demand
    /// interpolated for the current concurrency level.
    pub fn with_mean(&self, new_mean: f64) -> Distribution {
        match self {
            Distribution::Exponential { .. } => Distribution::Exponential { mean: new_mean },
            Distribution::Deterministic { .. } => Distribution::Deterministic { value: new_mean },
            Distribution::Erlang { k, .. } => Distribution::Erlang {
                k: *k,
                mean: new_mean,
            },
            Distribution::Uniform { lo, hi } => {
                let old_mean = 0.5 * (lo + hi);
                let scale = if old_mean > 0.0 {
                    new_mean / old_mean
                } else {
                    0.0
                };
                Distribution::Uniform {
                    lo: lo * scale,
                    hi: hi * scale,
                }
            }
            Distribution::NormalClamped { mean, std_dev } => {
                let scale = if *mean > 0.0 { new_mean / mean } else { 0.0 };
                Distribution::NormalClamped {
                    mean: new_mean,
                    std_dev: std_dev * scale,
                }
            }
        }
    }

    /// Validates parameters (finite, non-negative, `lo ≤ hi`, `k ≥ 1`).
    pub fn validate(&self) -> Result<(), crate::SimError> {
        let ok = match self {
            Distribution::Exponential { mean } => mean.is_finite() && *mean >= 0.0,
            Distribution::Deterministic { value } => value.is_finite() && *value >= 0.0,
            Distribution::Erlang { k, mean } => *k >= 1 && mean.is_finite() && *mean >= 0.0,
            Distribution::Uniform { lo, hi } => {
                lo.is_finite() && hi.is_finite() && *lo >= 0.0 && lo <= hi
            }
            Distribution::NormalClamped { mean, std_dev } => {
                mean.is_finite() && std_dev.is_finite() && *mean >= 0.0 && *std_dev >= 0.0
            }
        };
        if ok {
            Ok(())
        } else {
            Err(crate::SimError::InvalidParameter {
                what: "distribution parameters out of domain",
            })
        }
    }

    /// Draws one variate from the run's stream.
    pub(crate) fn sample(&self, s: &mut VariateStream) -> f64 {
        match self {
            Distribution::Exponential { mean } => s.exponential(*mean),
            Distribution::Deterministic { value } => *value,
            Distribution::Erlang { k, mean } => {
                // lint: float-eq-ok zero mean is an exact degenerate-input sentinel
                if *mean == 0.0 {
                    return 0.0;
                }
                let stage_mean = mean / *k as f64;
                (0..*k).map(|_| s.exponential(stage_mean)).sum()
            }
            Distribution::Uniform { lo, hi } => s.uniform(*lo, *hi),
            Distribution::NormalClamped { mean, std_dev } => s.normal(*mean, *std_dev).max(0.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_mean(d: &Distribution, n: usize, seed: u64) -> f64 {
        let mut s = VariateStream::seed_from_u64(seed);
        (0..n).map(|_| d.sample(&mut s)).sum::<f64>() / n as f64
    }

    #[test]
    fn exponential_mean_converges() {
        let d = Distribution::Exponential { mean: 0.25 };
        let m = sample_mean(&d, 200_000, 1);
        assert!((m - 0.25).abs() < 0.005, "got {m}");
    }

    #[test]
    fn deterministic_is_constant() {
        let d = Distribution::Deterministic { value: 3.5 };
        let mut s = VariateStream::seed_from_u64(2);
        for _ in 0..10 {
            assert_eq!(d.sample(&mut s), 3.5);
        }
    }

    #[test]
    fn erlang_mean_and_lower_variance() {
        let e1 = Distribution::Exponential { mean: 1.0 };
        let e4 = Distribution::Erlang { k: 4, mean: 1.0 };
        let mut s = VariateStream::seed_from_u64(3);
        let n = 100_000;
        let s1: Vec<f64> = (0..n).map(|_| e1.sample(&mut s)).collect();
        let s4: Vec<f64> = (0..n).map(|_| e4.sample(&mut s)).collect();
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let var = |v: &[f64]| {
            let m = mean(v);
            v.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / v.len() as f64
        };
        assert!((mean(&s4) - 1.0).abs() < 0.02);
        assert!(
            var(&s4) < var(&s1) / 2.0,
            "Erlang-4 must have ~1/4 variance"
        );
    }

    #[test]
    fn uniform_bounds_respected() {
        let d = Distribution::Uniform { lo: 1.0, hi: 2.0 };
        let mut s = VariateStream::seed_from_u64(4);
        for _ in 0..1000 {
            let x = d.sample(&mut s);
            assert!((1.0..=2.0).contains(&x));
        }
        assert!((sample_mean(&d, 100_000, 5) - 1.5).abs() < 0.01);
    }

    #[test]
    fn normal_clamped_nonnegative() {
        let d = Distribution::NormalClamped {
            mean: 0.1,
            std_dev: 0.5,
        };
        let mut s = VariateStream::seed_from_u64(6);
        for _ in 0..1000 {
            assert!(d.sample(&mut s) >= 0.0);
        }
    }

    #[test]
    fn with_mean_rescales_all_families() {
        for d in [
            Distribution::Exponential { mean: 2.0 },
            Distribution::Deterministic { value: 2.0 },
            Distribution::Erlang { k: 3, mean: 2.0 },
            Distribution::Uniform { lo: 1.0, hi: 3.0 },
            Distribution::NormalClamped {
                mean: 2.0,
                std_dev: 0.2,
            },
        ] {
            let r = d.with_mean(0.5);
            assert!((r.mean() - 0.5).abs() < 1e-12, "{d:?} -> {r:?}");
        }
    }

    #[test]
    fn zero_mean_samples_zero() {
        let mut s = VariateStream::seed_from_u64(7);
        assert_eq!(Distribution::Exponential { mean: 0.0 }.sample(&mut s), 0.0);
        assert_eq!(Distribution::Erlang { k: 2, mean: 0.0 }.sample(&mut s), 0.0);
    }

    #[test]
    fn validation_catches_bad_params() {
        assert!(Distribution::Exponential { mean: -1.0 }.validate().is_err());
        assert!(Distribution::Erlang { k: 0, mean: 1.0 }.validate().is_err());
        assert!(Distribution::Uniform { lo: 2.0, hi: 1.0 }
            .validate()
            .is_err());
        assert!(Distribution::NormalClamped {
            mean: f64::NAN,
            std_dev: 1.0
        }
        .validate()
        .is_err());
        assert!(Distribution::Exponential { mean: 1.0 }.validate().is_ok());
    }

    #[test]
    fn seeded_runs_are_reproducible() {
        let d = Distribution::Exponential { mean: 1.0 };
        assert_eq!(sample_mean(&d, 1000, 42), sample_mean(&d, 1000, 42));
        assert_ne!(sample_mean(&d, 1000, 42), sample_mean(&d, 1000, 43));
    }
}
