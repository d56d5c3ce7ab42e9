//! Descriptive statistics and accuracy metrics.
//!
//! The headline accuracy numbers of the paper (Tables 4–5) use the mean
//! percentage deviation of eq. 15:
//!
//! ```text
//! %Deviation = (1/M) Σₘ |Predicted(m) − Measured(m)| / Measured(m) · 100
//! ```
//!
//! implemented here as [`mean_pct_deviation`]. The remaining helpers support
//! steady-state estimation in the simulator (batch means, confidence
//! intervals) and the regression limit of the smoothing spline.

use crate::NumericsError;

/// Arithmetic mean; `None` for an empty slice.
pub fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        None
    } else {
        Some(xs.iter().sum::<f64>() / xs.len() as f64)
    }
}

/// Unbiased sample variance (`n − 1` denominator); `None` for fewer than 2
/// samples.
pub fn variance(xs: &[f64]) -> Option<f64> {
    if xs.len() < 2 {
        return None;
    }
    let m = mean(xs)?;
    Some(xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() as f64 - 1.0))
}

/// Sample standard deviation; `None` for fewer than 2 samples.
pub fn std_dev(xs: &[f64]) -> Option<f64> {
    variance(xs).map(f64::sqrt)
}

/// Linearly interpolated percentile (`p` in `[0, 100]`); `None` for an empty
/// slice or out-of-range `p`. Panics on a NaN among two or more values.
///
/// Selects the one or two order statistics it needs in O(n) instead of
/// sorting a copy, and returns exactly the bits the sorted definition
/// (`s[lo] + frac · (s[hi] − s[lo])` over a stable sort) gives.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    if xs.is_empty() || !(0.0..=100.0).contains(&p) {
        return None;
    }
    let cmp = |a: &f64, b: &f64| a.partial_cmp(b).expect("no NaN in percentile input");
    let rank = p / 100.0 * (xs.len() as f64 - 1.0);
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let mut scratch = xs.to_vec();
    let (_, &mut at_lo, above) = scratch.select_nth_unstable_by(lo, cmp);
    if lo == hi {
        // lint: float-eq-ok zeros of both signs compare equal, so the selection may pick either
        if at_lo == 0.0 {
            // A stable sort keeps tied zeros in input order: return the one
            // it would have put at `lo`.
            let below = xs.iter().filter(|&&x| x < 0.0).count();
            // lint: float-eq-ok matches both signed zeros
            return xs.iter().copied().filter(|&x| x == 0.0).nth(lo - below);
        }
        return Some(at_lo);
    }
    // The interpolation maps either zero sign to the same result.
    let at_hi = *above.iter().min_by(|a, b| cmp(a, b))?;
    let frac = rank - lo as f64;
    Some(at_lo + frac * (at_hi - at_lo))
}

/// Mean percentage deviation of predictions from measurements — paper eq. 15.
///
/// Skips pairs whose measured value is zero (a zero denominator would make
/// the metric meaningless); returns an error if lengths differ or no usable
/// pair remains.
pub fn mean_pct_deviation(predicted: &[f64], measured: &[f64]) -> Result<f64, NumericsError> {
    if predicted.len() != measured.len() {
        return Err(NumericsError::LengthMismatch {
            xs: predicted.len(),
            ys: measured.len(),
        });
    }
    let mut acc = 0.0;
    let mut count = 0usize;
    for (p, m) in predicted.iter().zip(measured.iter()) {
        if !p.is_finite() || !m.is_finite() {
            return Err(NumericsError::NonFinite {
                what: "deviation input",
            });
        }
        // lint: float-eq-ok exactly-zero measurements must be skipped before dividing by them
        if *m == 0.0 {
            continue;
        }
        acc += ((p - m) / m).abs();
        count += 1;
    }
    if count == 0 {
        return Err(NumericsError::InvalidParameter {
            what: "no pair with non-zero measured value",
        });
    }
    Ok(acc / count as f64 * 100.0)
}

/// Maximum percentage deviation over all pairs (same conventions as
/// [`mean_pct_deviation`]).
pub fn max_pct_deviation(predicted: &[f64], measured: &[f64]) -> Result<f64, NumericsError> {
    if predicted.len() != measured.len() {
        return Err(NumericsError::LengthMismatch {
            xs: predicted.len(),
            ys: measured.len(),
        });
    }
    let mut max = f64::NEG_INFINITY;
    for (p, m) in predicted.iter().zip(measured.iter()) {
        // lint: float-eq-ok exactly-zero measurements must be skipped before dividing by them
        if *m == 0.0 {
            continue;
        }
        max = max.max(((p - m) / m).abs());
    }
    if max.is_finite() {
        Ok(max * 100.0)
    } else {
        Err(NumericsError::InvalidParameter {
            what: "no pair with non-zero measured value",
        })
    }
}

/// Result of an ordinary least-squares line fit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Regression {
    /// Fitted slope.
    pub slope: f64,
    /// Fitted intercept.
    pub intercept: f64,
    /// Coefficient of determination.
    pub r_squared: f64,
}

/// Ordinary least-squares regression `y ≈ intercept + slope · x`.
pub fn linear_regression(xs: &[f64], ys: &[f64]) -> Result<Regression, NumericsError> {
    if xs.len() != ys.len() {
        return Err(NumericsError::LengthMismatch {
            xs: xs.len(),
            ys: ys.len(),
        });
    }
    if xs.len() < 2 {
        return Err(NumericsError::TooFewPoints {
            needed: 2,
            got: xs.len(),
        });
    }
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let sxx: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
    let sxy: f64 = xs
        .iter()
        .zip(ys.iter())
        .map(|(x, y)| (x - mx) * (y - my))
        .sum();
    // lint: float-eq-ok only exactly-coincident xs make the system singular; tiny sxx stays finite
    if sxx == 0.0 {
        return Err(NumericsError::SingularSystem);
    }
    let slope = sxy / sxx;
    let intercept = my - slope * mx;
    let ss_tot: f64 = ys.iter().map(|y| (y - my) * (y - my)).sum();
    let ss_res: f64 = xs
        .iter()
        .zip(ys.iter())
        .map(|(x, y)| {
            let f = intercept + slope * x;
            (y - f) * (y - f)
        })
        .sum();
    // lint: float-eq-ok a perfectly-constant y vector hits exactly zero; R^2 = 1 by convention
    let r_squared = if ss_tot == 0.0 {
        1.0
    } else {
        1.0 - ss_res / ss_tot
    };
    Ok(Regression {
        slope,
        intercept,
        r_squared,
    })
}

/// A batch-means estimate: point estimate plus a half-width at roughly 95 %
/// confidence (Student-t with a normal-approximation critical value of 1.96
/// for ≥ 30 batches, inflated for fewer).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchMeansEstimate {
    /// Grand mean across batches.
    pub mean: f64,
    /// Approximate 95 % confidence half-width.
    pub half_width: f64,
    /// Number of batches used.
    pub batches: usize,
}

/// Splits a steady-state sample stream into `num_batches` equal batches and
/// returns the batch-means estimate of the mean. Standard technique for
/// confidence intervals on correlated DES output.
pub fn batch_means(
    samples: &[f64],
    num_batches: usize,
) -> Result<BatchMeansEstimate, NumericsError> {
    if num_batches < 2 {
        return Err(NumericsError::InvalidParameter {
            what: "need at least 2 batches",
        });
    }
    if samples.len() < num_batches {
        return Err(NumericsError::TooFewPoints {
            needed: num_batches,
            got: samples.len(),
        });
    }
    let batch_size = samples.len() / num_batches;
    let used = batch_size * num_batches;
    let batch_avgs: Vec<f64> = samples[..used]
        .chunks_exact(batch_size)
        .map(|c| c.iter().sum::<f64>() / batch_size as f64)
        .collect();
    let m = mean(&batch_avgs).expect("num_batches >= 2");
    let s = std_dev(&batch_avgs).expect("num_batches >= 2");
    // Coarse t-quantiles for 95% two-sided.
    let t = match num_batches - 1 {
        1 => 12.71,
        2 => 4.30,
        3 => 3.18,
        4 => 2.78,
        5 => 2.57,
        6..=9 => 2.31,
        10..=19 => 2.13,
        20..=29 => 2.05,
        _ => 1.96,
    };
    Ok(BatchMeansEstimate {
        mean: m,
        half_width: t * s / (num_batches as f64).sqrt(),
        batches: num_batches,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    #[test]
    fn mean_and_variance_basic() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!(close(mean(&xs).unwrap(), 5.0, 1e-12));
        assert!(close(variance(&xs).unwrap(), 32.0 / 7.0, 1e-12));
        assert!(mean(&[]).is_none());
        assert!(variance(&[1.0]).is_none());
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&xs, 100.0), Some(4.0));
        assert!(close(percentile(&xs, 50.0).unwrap(), 2.5, 1e-12));
        assert!(percentile(&xs, 101.0).is_none());
        assert!(percentile(&[], 50.0).is_none());
    }

    #[test]
    fn percentile_keeps_the_sorted_zero_sign_and_nan_behaviour() {
        // A stable sort puts the tied zeros in input order.
        let xs = [0.0, 1.0, -0.0, -1.0, 2.0];
        assert_eq!(percentile(&xs, 25.0).map(f64::to_bits), Some(0));
        assert_eq!(
            percentile(&xs, 50.0).map(f64::to_bits),
            Some((-0.0f64).to_bits())
        );
        assert!(percentile(&[f64::NAN], 50.0).unwrap().is_nan());
        assert!(std::panic::catch_unwind(|| percentile(&[1.0, f64::NAN, 2.0], 50.0)).is_err());
    }

    #[test]
    fn pct_deviation_matches_eq15() {
        // predicted 110 vs measured 100 => 10 %; 90 vs 100 => 10 %; mean 10 %.
        let d = mean_pct_deviation(&[110.0, 90.0], &[100.0, 100.0]).unwrap();
        assert!(close(d, 10.0, 1e-12));
    }

    #[test]
    fn pct_deviation_skips_zero_measured() {
        let d = mean_pct_deviation(&[1.0, 105.0], &[0.0, 100.0]).unwrap();
        assert!(close(d, 5.0, 1e-12));
        assert!(mean_pct_deviation(&[1.0], &[0.0]).is_err());
    }

    #[test]
    fn pct_deviation_perfect_prediction_is_zero() {
        let m = [5.0, 10.0, 20.0];
        assert!(close(mean_pct_deviation(&m, &m).unwrap(), 0.0, 1e-12));
        assert!(close(max_pct_deviation(&m, &m).unwrap(), 0.0, 1e-12));
    }

    #[test]
    fn max_deviation_finds_worst_pair() {
        let d = max_pct_deviation(&[101.0, 150.0], &[100.0, 100.0]).unwrap();
        assert!(close(d, 50.0, 1e-12));
    }

    #[test]
    fn pct_deviation_rejects_mismatch_and_nan() {
        assert!(mean_pct_deviation(&[1.0], &[1.0, 2.0]).is_err());
        assert!(mean_pct_deviation(&[f64::NAN], &[1.0]).is_err());
    }

    #[test]
    fn regression_recovers_exact_line() {
        let xs = [0.0, 1.0, 2.0, 3.0];
        let ys: Vec<f64> = xs.iter().map(|x| 2.5 * x - 1.0).collect();
        let r = linear_regression(&xs, &ys).unwrap();
        assert!(close(r.slope, 2.5, 1e-12));
        assert!(close(r.intercept, -1.0, 1e-12));
        assert!(close(r.r_squared, 1.0, 1e-12));
    }

    #[test]
    fn regression_rejects_degenerate() {
        assert!(linear_regression(&[1.0, 1.0], &[1.0, 2.0]).is_err());
        assert!(linear_regression(&[1.0], &[1.0]).is_err());
    }

    #[test]
    fn batch_means_constant_stream_zero_width() {
        let xs = vec![3.0; 100];
        let e = batch_means(&xs, 10).unwrap();
        assert!(close(e.mean, 3.0, 1e-12));
        assert!(close(e.half_width, 0.0, 1e-12));
        assert_eq!(e.batches, 10);
    }

    #[test]
    fn batch_means_covers_true_mean() {
        // Deterministic "noise" with zero mean.
        let xs: Vec<f64> = (0..1000)
            .map(|i| 10.0 + if i % 2 == 0 { 0.5 } else { -0.5 })
            .collect();
        let e = batch_means(&xs, 20).unwrap();
        assert!((e.mean - 10.0).abs() <= e.half_width + 1e-9);
    }

    #[test]
    fn batch_means_rejects_bad_args() {
        assert!(batch_means(&[1.0, 2.0], 1).is_err());
        assert!(batch_means(&[1.0], 2).is_err());
    }
}
