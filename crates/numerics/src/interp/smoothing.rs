//! Smoothing spline — paper eq. 12.
//!
//! The paper defines the smoothing-spline estimate `ĥ` of the demand function
//! as the minimizer of
//!
//! ```text
//! Σᵢ (yᵢ − ĥ(xᵢ))² + λ ∫ ĥ″(x)² dx
//! ```
//!
//! "where λ ≥ 0 is a smoothing parameter, controlling the trade-off between
//! fidelity to the data and roughness of the function estimate."
//!
//! Implementation follows Green & Silverman (1994): the minimizer is a
//! natural cubic spline with knots at the data sites; its interior second
//! derivatives `γ` solve the banded system `(W + λ Δ Δᵀ) γ = Δ y`, and the
//! fitted ordinates are `ŷ = y − λ Δᵀ γ`. Both `W` (tridiagonal) and
//! `Δ Δᵀ` (pentadiagonal) are assembled band-wise and solved in `O(n)` with
//! the banded LDLᵀ solver from [`crate::banded`].

use super::{CubicSpline, Interpolant};
use crate::banded::solve_spd_pentadiagonal;
use crate::{validate_knots, NumericsError};

/// Cubic smoothing spline (paper eq. 12), clamped to the fitted boundary
/// ordinates outside the knots.
///
/// * `λ = 0` reproduces the natural interpolating spline;
/// * `λ → ∞` tends to the least-squares regression line.
#[derive(Debug, Clone)]
pub struct SmoothingSpline {
    /// The natural spline through the fitted values (the minimizer itself).
    spline: CubicSpline,
    /// Fitted ordinates `ŷ`.
    fitted: Vec<f64>,
    /// The smoothing parameter used.
    lambda: f64,
    /// Residual sum of squares `Σ (yᵢ − ŷᵢ)²`.
    rss: f64,
}

impl SmoothingSpline {
    /// Fits a smoothing spline through `(xs, ys)` with parameter
    /// `lambda ≥ 0`. Needs at least 3 strictly increasing knots.
    pub fn fit(xs: &[f64], ys: &[f64], lambda: f64) -> Result<Self, NumericsError> {
        validate_knots(xs, ys, 3)?;
        if !(lambda.is_finite() && lambda >= 0.0) {
            return Err(NumericsError::InvalidParameter {
                what: "lambda must be finite and >= 0",
            });
        }
        let n = xs.len();
        let k = n - 2; // number of interior knots / rows of Δ
        let h: Vec<f64> = (0..n - 1).map(|i| xs[i + 1] - xs[i]).collect();

        // Row j of Δ touches columns j, j+1, j+2 with entries p, q, r.
        let p: Vec<f64> = (0..k).map(|j| 1.0 / h[j]).collect();
        let r: Vec<f64> = (0..k).map(|j| 1.0 / h[j + 1]).collect();
        let q: Vec<f64> = (0..k).map(|j| -(p[j] + r[j])).collect();

        // Bands of A = W + λ Δ Δᵀ (symmetric, pentadiagonal).
        let mut d0 = vec![0.0; k];
        let mut d1 = vec![0.0; k.saturating_sub(1)];
        let mut d2 = vec![0.0; k.saturating_sub(2)];
        for j in 0..k {
            let w_jj = (h[j] + h[j + 1]) / 3.0;
            d0[j] = w_jj + lambda * (p[j] * p[j] + q[j] * q[j] + r[j] * r[j]);
            if j + 1 < k {
                let w_off = h[j + 1] / 6.0;
                d1[j] = w_off + lambda * (q[j] * p[j + 1] + r[j] * q[j + 1]);
            }
            if j + 2 < k {
                d2[j] = lambda * (r[j] * p[j + 2]);
            }
        }

        // RHS: Δ y (the second divided differences).
        let rhs: Vec<f64> = (0..k)
            .map(|j| p[j] * ys[j] + q[j] * ys[j + 1] + r[j] * ys[j + 2])
            .collect();

        let gamma = solve_spd_pentadiagonal(&d0, &d1, &d2, &rhs)?;

        // ŷ = y − λ Δᵀ γ.
        let mut fitted = ys.to_vec();
        for j in 0..k {
            fitted[j] -= lambda * p[j] * gamma[j];
            fitted[j + 1] -= lambda * q[j] * gamma[j];
            fitted[j + 2] -= lambda * r[j] * gamma[j];
        }

        let rss = ys
            .iter()
            .zip(fitted.iter())
            .map(|(y, f)| (y - f) * (y - f))
            .sum();

        let spline = CubicSpline::natural(xs, &fitted)?;
        Ok(Self {
            spline,
            fitted,
            lambda,
            rss,
        })
    }

    /// Fitted ordinates `ŷᵢ` at the knots.
    pub fn fitted(&self) -> &[f64] {
        &self.fitted
    }

    /// Residual sum of squares (the fidelity term of paper eq. 12).
    pub fn rss(&self) -> f64 {
        self.rss
    }

    /// The roughness penalty `∫ ĥ″(x)² dx` (exact, since `ĥ″` is piecewise
    /// linear).
    pub fn roughness(&self) -> f64 {
        self.spline.roughness()
    }

    /// The eq. 12 objective value: `RSS + λ·roughness`.
    pub fn objective(&self) -> f64 {
        self.rss + self.lambda * self.roughness()
    }
}

impl Interpolant for SmoothingSpline {
    fn eval(&self, x: f64) -> f64 {
        self.spline.eval(x)
    }

    fn domain(&self) -> (f64, f64) {
        self.spline.domain()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::linear_regression;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    #[test]
    fn lambda_zero_interpolates() {
        let xs = [0.0, 1.0, 2.0, 3.0, 4.0];
        let ys = [1.0, 3.0, 2.0, 5.0, 4.0];
        let s = SmoothingSpline::fit(&xs, &ys, 0.0).unwrap();
        for (x, y) in xs.iter().zip(ys.iter()) {
            assert!(close(s.eval(*x), *y, 1e-9));
        }
        assert!(s.rss() < 1e-18);
    }

    #[test]
    fn huge_lambda_tends_to_regression_line() {
        let xs = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0];
        let ys = [0.1, 1.2, 1.9, 3.1, 3.9, 5.2];
        let s = SmoothingSpline::fit(&xs, &ys, 1e9).unwrap();
        let reg = linear_regression(&xs, &ys).unwrap();
        for &x in &xs {
            let line = reg.intercept + reg.slope * x;
            assert!(
                close(s.eval(x), line, 1e-3),
                "x={x}: {} vs {line}",
                s.eval(x)
            );
        }
        // Essentially straight => negligible roughness.
        assert!(s.roughness() < 1e-10);
    }

    #[test]
    fn smoothing_reduces_roughness_monotonically() {
        let xs: Vec<f64> = (0..12).map(|i| i as f64).collect();
        // Noisy falling demand curve.
        let ys: Vec<f64> = xs
            .iter()
            .map(|&x| {
                0.02 * (-x / 6.0_f64).exp()
                    + if (x as usize).is_multiple_of(2) {
                        1e-3
                    } else {
                        -1e-3
                    }
            })
            .collect();
        let mut prev_rough = f64::INFINITY;
        let mut prev_rss = -1.0;
        for lam in [0.0, 1e-6, 1e-4, 1e-2, 1.0] {
            let s = SmoothingSpline::fit(&xs, &ys, lam).unwrap();
            assert!(s.roughness() <= prev_rough + 1e-12, "roughness at λ={lam}");
            assert!(s.rss() >= prev_rss - 1e-12, "rss at λ={lam}");
            prev_rough = s.roughness();
            prev_rss = s.rss();
        }
    }

    #[test]
    fn fitted_preserves_mean_roughly() {
        // Δᵀγ sums to zero per column structure, so the fitted values keep
        // the data's sum: Σ(y - ŷ) = λ Σcols(Δᵀγ) = 0 only when p,q,r sum to
        // zero per row, which they do column-summed — verify numerically.
        let xs = [0.0, 1.0, 2.0, 3.0, 4.0];
        let ys = [2.0, 4.0, 3.0, 5.0, 6.0];
        let s = SmoothingSpline::fit(&xs, &ys, 0.5).unwrap();
        let sum_y: f64 = ys.iter().sum();
        let sum_f: f64 = s.fitted().iter().sum();
        assert!(close(sum_y, sum_f, 1e-9));
    }

    #[test]
    fn rejects_bad_lambda() {
        let xs = [0.0, 1.0, 2.0];
        let ys = [0.0, 1.0, 2.0];
        assert!(SmoothingSpline::fit(&xs, &ys, -1.0).is_err());
        assert!(SmoothingSpline::fit(&xs, &ys, f64::NAN).is_err());
    }

    #[test]
    fn rejects_too_few_points() {
        assert!(SmoothingSpline::fit(&[0.0, 1.0], &[0.0, 1.0], 0.1).is_err());
    }

    #[test]
    fn objective_consistent() {
        let xs = [0.0, 1.0, 2.0, 3.0, 4.0];
        let ys = [1.0, 0.0, 1.5, 0.5, 1.0];
        let s = SmoothingSpline::fit(&xs, &ys, 0.25).unwrap();
        assert!(close(s.objective(), s.rss() + 0.25 * s.roughness(), 1e-12));
    }

    #[test]
    fn smoother_fit_has_no_worse_objective_than_interpolant_at_its_lambda() {
        // The λ-minimizer must beat the λ=0 spline evaluated in the λ
        // objective (it is the argmin).
        let xs: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| (x * 1.3).sin()).collect();
        let lam = 0.1;
        let smooth = SmoothingSpline::fit(&xs, &ys, lam).unwrap();
        let interp = SmoothingSpline::fit(&xs, &ys, 0.0).unwrap();
        let interp_objective_at_lam = interp.rss() + lam * interp.roughness();
        assert!(smooth.objective() <= interp_objective_at_lam + 1e-9);
    }
}
