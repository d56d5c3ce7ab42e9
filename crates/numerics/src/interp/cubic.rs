//! Cubic-spline interpolation — the reproduction of Scilab's `interp()` used
//! by the paper (Section 6): "a continuous and derivable piece-wise function
//! h(x) … a set of cubic polynomials, each one q_m(X) being defined on
//! [x_m, x_{m+1}] and connected in values and slopes to both its neighbours",
//! with the boundary values pegged outside the sampled range (eq. 14).
//!
//! The spline is built in *moment* form: with `M_i = S''(x_i)` the interior
//! C²-continuity conditions give a tridiagonal system
//!
//! ```text
//! (h_{i-1}/6)·M_{i-1} + ((h_{i-1}+h_i)/3)·M_i + (h_i/6)·M_{i+1}
//!     = (y_{i+1}-y_i)/h_i − (y_i−y_{i-1})/h_{i-1}
//! ```
//!
//! closed by one of two boundary conditions ([`BoundaryCondition`]).

use super::{segment_index, Interpolant};
use crate::banded::solve_tridiagonal;
use crate::{validate_knots, NumericsError};

/// End conditions that close the spline moment system.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum BoundaryCondition {
    /// Zero second derivative at both ends (`M₀ = Mₙ = 0`).
    Natural,
    /// Third-derivative continuity across the second and second-to-last
    /// knots — the MATLAB/Scilab default, and ours. Falls back to
    /// [`BoundaryCondition::Natural`] when fewer than 4 points are supplied
    /// (not-a-knot is under-determined there).
    #[default]
    NotAKnot,
}

/// A C² piecewise-cubic interpolant through `(xs, ys)`, clamped to the
/// boundary ordinates outside the knots (paper eq. 14).
///
/// Evaluation of the value and its first three derivatives mirrors Scilab's
/// `interp()` outputs `(yq, yq1, yq2, yq3)` (paper eq. 13).
#[derive(Debug, Clone)]
pub struct CubicSpline {
    xs: Vec<f64>,
    ys: Vec<f64>,
    /// Second derivatives (moments) at the knots.
    m: Vec<f64>,
    /// Per segment `i`, the coefficients `(c1, c2, c3)` of
    /// `S(x) = y_i + c1·t + c2·t² + c3·t³` with `t = x − x_i`, computed
    /// once here so an evaluation is a segment search and a Horner step.
    coef: Vec<[f64; 3]>,
}

impl CubicSpline {
    /// Builds a cubic spline through `(xs, ys)` with the given boundary
    /// condition. Requires at least 2 strictly increasing knots; with exactly
    /// 2 knots either boundary condition degenerates to the straight line
    /// (moments zero).
    pub fn new(xs: &[f64], ys: &[f64], bc: BoundaryCondition) -> Result<Self, NumericsError> {
        validate_knots(xs, ys, 2)?;
        let n = xs.len();
        let m = if n == 2 {
            vec![0.0; 2]
        } else {
            Self::solve_moments(xs, ys, bc)?
        };

        let coef = (0..n - 1)
            .map(|i| {
                let h = xs[i + 1] - xs[i];
                let (y0, y1) = (ys[i], ys[i + 1]);
                let (m0, m1) = (m[i], m[i + 1]);
                [
                    (y1 - y0) / h - h * (2.0 * m0 + m1) / 6.0,
                    m0 / 2.0,
                    (m1 - m0) / (6.0 * h),
                ]
            })
            .collect();
        Ok(Self {
            xs: xs.to_vec(),
            ys: ys.to_vec(),
            m,
            coef,
        })
    }

    /// Constructs a natural spline through fitted values — used by the
    /// smoothing spline, whose solution is exactly the natural interpolating
    /// spline of its own fitted ordinates.
    pub(crate) fn natural(xs: &[f64], ys: &[f64]) -> Result<Self, NumericsError> {
        Self::new(xs, ys, BoundaryCondition::Natural)
    }

    fn solve_moments(
        xs: &[f64],
        ys: &[f64],
        bc: BoundaryCondition,
    ) -> Result<Vec<f64>, NumericsError> {
        let n = xs.len();
        let h: Vec<f64> = (0..n - 1).map(|i| xs[i + 1] - xs[i]).collect();
        let secant = |i: usize| (ys[i + 1] - ys[i]) / h[i];

        match bc {
            BoundaryCondition::Natural => {
                // Solve for interior moments only; M0 = M_{n-1} = 0.
                let k = n - 2;
                let mut diag = vec![0.0; k];
                let mut sub = vec![0.0; k.saturating_sub(1)];
                let mut sup = vec![0.0; k.saturating_sub(1)];
                let mut rhs = vec![0.0; k];
                for j in 0..k {
                    let i = j + 1; // knot index
                    diag[j] = (h[i - 1] + h[i]) / 3.0;
                    rhs[j] = secant(i) - secant(i - 1);
                    if j > 0 {
                        sub[j - 1] = h[i - 1] / 6.0;
                    }
                    if j + 1 < k {
                        sup[j] = h[i] / 6.0;
                    }
                }
                let interior = solve_tridiagonal(&sub, &diag, &sup, &rhs)?;
                let mut m = vec![0.0; n];
                m[1..1 + k].copy_from_slice(&interior);
                Ok(m)
            }
            BoundaryCondition::NotAKnot => {
                if n < 4 {
                    // Under-determined; natural is the conventional fallback.
                    return Self::solve_moments(xs, ys, BoundaryCondition::Natural);
                }
                // Not-a-knot: S''' continuous at x_1 and x_{n-2}:
                //   (M1 − M0)/h0 = (M2 − M1)/h1
                //   (M_{n-1} − M_{n-2})/h_{n-2} = (M_{n-2} − M_{n-3})/h_{n-3}
                // Express the boundary moments in terms of their neighbours
                //   M0 = M1 + (h0/h1)(M1 − M2)
                //   M_{n-1} = M_{n-2} + (h_{n-2}/h_{n-3})(M_{n-2} − M_{n-3})
                // and substitute into the first/last interior equations,
                // leaving a tridiagonal system in M_1..M_{n-2}.
                let k = n - 2;
                let (h0, h1) = match h.as_slice() {
                    [h0, h1, ..] => (*h0, *h1),
                    _ => return Self::solve_moments(xs, ys, BoundaryCondition::Natural),
                };
                // First interior equation (i = 1) carries the term (h0/6)·M0
                // with M0 = (1 + h0/h1) M1 − (h0/h1) M2; the last interior
                // equation (i = n-2) carries (h_{n-2}/6)·M_{n-1} likewise.
                let r0 = h0 / h1;
                let rn = h[n - 2] / h[n - 3];
                let mut diag = vec![0.0; k];
                let mut sub = vec![0.0; k - 1];
                let mut sup = vec![0.0; k - 1];
                let mut rhs = vec![0.0; k];
                for j in 0..k {
                    let i = j + 1;
                    diag[j] = (h[i - 1] + h[i]) / 3.0;
                    rhs[j] = secant(i) - secant(i - 1);
                    if j > 0 {
                        sub[j - 1] = h[i - 1] / 6.0;
                    }
                    if j + 1 < k {
                        sup[j] = h[i] / 6.0;
                    }
                    if j == 0 {
                        diag[j] += (h0 / 6.0) * (1.0 + r0);
                        sup[j] += (h0 / 6.0) * (-r0);
                    }
                    if j == k - 1 {
                        diag[j] += (h[n - 2] / 6.0) * (1.0 + rn);
                        sub[j - 1] += (h[n - 2] / 6.0) * (-rn);
                    }
                }

                let interior = solve_tridiagonal(&sub, &diag, &sup, &rhs)?;
                let mut m = vec![0.0; n];
                m[1..1 + k].copy_from_slice(&interior);
                if let [m0, m1, m2, ..] = m.as_mut_slice() {
                    *m0 = (1.0 + r0) * *m1 - r0 * *m2;
                }
                m[n - 1] = (1.0 + rn) * m[n - 2] - rn * m[n - 3];
                Ok(m)
            }
        }
    }

    /// Second derivatives (moments) at the knots.
    pub fn moments(&self) -> &[f64] {
        &self.m
    }

    /// Evaluates the polynomial piece containing `x` (the boundary piece,
    /// unclamped, outside the knots), returning `(S, S', S'', S''')` — the
    /// analogue of Scilab's `(yq, yq1, yq2, yq3)` from paper eq. 13.
    pub fn eval_all(&self, x: f64) -> (f64, f64, f64, f64) {
        let i = segment_index(&self.xs, x);
        let t = x - self.xs[i];
        let [c1, c2, c3] = self.coef[i];
        let s = self.ys[i] + t * (c1 + t * (c2 + t * c3));
        let s1 = c1 + t * (2.0 * c2 + t * 3.0 * c3);
        let s2 = 2.0 * c2 + 6.0 * c3 * t;
        let s3 = 6.0 * c3;
        (s, s1, s2, s3)
    }

    /// `S(x)` alone off the polynomial piece containing `x`: the first
    /// component of [`eval_all`](Self::eval_all), bit for bit.
    fn value(&self, x: f64) -> f64 {
        let i = segment_index(&self.xs, x);
        let t = x - self.xs[i];
        let [c1, c2, c3] = self.coef[i];
        self.ys[i] + t * (c1 + t * (c2 + t * c3))
    }

    /// The integral `∫ S''(x)² dx` over the knot range — the roughness
    /// penalty of paper eq. 12. Since `S''` is piecewise linear this is
    /// exact: on each segment `∫(a+bt)² dt = h(a² + ab·h + b²h²/3)`.
    pub fn roughness(&self) -> f64 {
        let mut acc = 0.0;
        for i in 0..self.xs.len() - 1 {
            let h = self.xs[i + 1] - self.xs[i];
            let a = self.m[i];
            let b = (self.m[i + 1] - self.m[i]) / h;
            acc += h * (a * a + a * b * h + b * b * h * h / 3.0);
        }
        acc
    }
}

impl Interpolant for CubicSpline {
    fn eval(&self, x: f64) -> f64 {
        let (lo, hi) = self.domain();
        if x < lo {
            return *self.ys.first().expect("non-empty");
        }
        if x > hi {
            return *self.ys.last().expect("non-empty");
        }
        self.value(x)
    }

    fn domain(&self) -> (f64, f64) {
        (
            *self.xs.first().expect("non-empty"),
            *self.xs.last().expect("non-empty"),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    #[test]
    fn interpolates_knots_all_bcs() {
        let xs = [0.0, 1.0, 2.5, 4.0, 6.0];
        let ys = [1.0, -1.0, 0.5, 3.0, 2.0];
        for bc in [BoundaryCondition::Natural, BoundaryCondition::NotAKnot] {
            let s = CubicSpline::new(&xs, &ys, bc).unwrap();
            for (x, y) in xs.iter().zip(ys.iter()) {
                assert!(close(s.eval(*x), *y, 1e-10), "bc {bc:?} at x={x}");
            }
        }
    }

    #[test]
    fn coefficient_table_matches_the_moment_form_bit_for_bit() {
        // The segment coefficients computed at construction give the same
        // bits as forming them from the moments at every evaluation, on the
        // knots' range and off it; `eval` reads them inside and clamps
        // outside.
        let xs = [1.0, 14.0, 28.0, 70.0, 140.0, 210.0];
        let ys = [0.016, 0.0145, 0.0138, 0.0127, 0.0121, 0.0119];
        let s = CubicSpline::new(&xs, &ys, BoundaryCondition::NotAKnot).unwrap();
        let m = s.moments();
        for step in -20..=460 {
            let x = 0.5 * step as f64;
            let i = segment_index(&xs, x);
            let h = xs[i + 1] - xs[i];
            let t = x - xs[i];
            let c1 = (ys[i + 1] - ys[i]) / h - h * (2.0 * m[i] + m[i + 1]) / 6.0;
            let c2 = m[i] / 2.0;
            let c3 = (m[i + 1] - m[i]) / (6.0 * h);
            let want = (
                ys[i] + t * (c1 + t * (c2 + t * c3)),
                c1 + t * (2.0 * c2 + t * 3.0 * c3),
                2.0 * c2 + 6.0 * c3 * t,
                6.0 * c3,
            );
            let got = s.eval_all(x);
            assert_eq!(got.0.to_bits(), want.0.to_bits(), "S at x={x}");
            assert_eq!(got.1.to_bits(), want.1.to_bits(), "S' at x={x}");
            assert_eq!(got.2.to_bits(), want.2.to_bits(), "S'' at x={x}");
            assert_eq!(got.3.to_bits(), want.3.to_bits(), "S''' at x={x}");
            let value = if x < xs[0] {
                ys[0]
            } else if x > xs[5] {
                ys[5]
            } else {
                want.0
            };
            assert_eq!(s.eval(x).to_bits(), value.to_bits(), "eval at x={x}");
        }
    }

    #[test]
    fn natural_has_zero_end_moments() {
        let s = CubicSpline::new(
            &[0.0, 1.0, 2.0, 3.0],
            &[0.0, 1.0, 0.0, 1.0],
            BoundaryCondition::Natural,
        )
        .unwrap();
        assert!(close(s.moments()[0], 0.0, 1e-14));
        assert!(close(*s.moments().last().unwrap(), 0.0, 1e-14));
        assert!(close(s.eval_all(0.0).2, 0.0, 1e-12));
    }

    #[test]
    fn not_a_knot_reproduces_a_cubic_exactly() {
        // A single cubic sampled at 5 points must be reproduced exactly by
        // the not-a-knot spline (that is the defining property).
        let f = |x: f64| 2.0 - x + 0.5 * x * x - 0.125 * x * x * x;
        let xs: Vec<f64> = (0..5).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| f(x)).collect();
        let s = CubicSpline::new(&xs, &ys, BoundaryCondition::NotAKnot).unwrap();
        for i in 0..=40 {
            let x = i as f64 * 0.1;
            assert!(close(s.eval(x), f(x), 1e-9), "x = {x}");
        }
    }

    #[test]
    fn c1_and_c2_continuity_at_knots() {
        let xs = [0.0, 0.7, 1.9, 2.4, 3.8, 5.0];
        let ys = [3.0, -1.0, 2.0, 2.5, -0.5, 1.0];
        let s = CubicSpline::new(&xs, &ys, BoundaryCondition::NotAKnot).unwrap();
        for &x in &xs[1..xs.len() - 1] {
            let eps = 1e-7;
            let (_, d_lo, dd_lo, _) = s.eval_all(x - eps);
            let (_, d_hi, dd_hi, _) = s.eval_all(x + eps);
            assert!(close(d_lo, d_hi, 1e-5), "C1 at {x}");
            assert!(close(dd_lo, dd_hi, 1e-4), "C2 at {x}");
        }
    }

    #[test]
    fn clamp_extrapolation_is_constant_eq14() {
        // Paper eq. 14: xq < x1 => yq = y1 ; xq > xn => yq = yn.
        let s = CubicSpline::new(
            &[1.0, 2.0, 3.0, 4.0],
            &[10.0, 5.0, 4.0, 3.5],
            BoundaryCondition::NotAKnot,
        )
        .unwrap();
        assert_eq!(s.eval(0.0), 10.0);
        assert_eq!(s.eval(-50.0), 10.0);
        assert_eq!(s.eval(4.5), 3.5);
        assert_eq!(s.eval(400.0), 3.5);
    }

    #[test]
    fn two_point_spline_is_a_line() {
        let s = CubicSpline::new(&[0.0, 2.0], &[1.0, 5.0], BoundaryCondition::NotAKnot).unwrap();
        assert!(close(s.eval(1.0), 3.0, 1e-12));
        assert!(close(s.eval_all(1.0).1, 2.0, 1e-12));
    }

    #[test]
    fn three_point_not_a_knot_falls_back_to_natural() {
        let xs = [0.0, 1.0, 2.0];
        let ys = [0.0, 1.0, 0.0];
        let nak = CubicSpline::new(&xs, &ys, BoundaryCondition::NotAKnot).unwrap();
        let nat = CubicSpline::new(&xs, &ys, BoundaryCondition::Natural).unwrap();
        for i in 0..=20 {
            let x = i as f64 * 0.1;
            assert!(close(nak.eval(x), nat.eval(x), 1e-12));
        }
    }

    #[test]
    fn roughness_zero_for_straight_line() {
        let s = CubicSpline::new(
            &[0.0, 1.0, 2.0, 3.0],
            &[1.0, 2.0, 3.0, 4.0],
            BoundaryCondition::Natural,
        )
        .unwrap();
        assert!(s.roughness() < 1e-18);
    }

    #[test]
    fn roughness_positive_for_curved_data() {
        let s = CubicSpline::new(
            &[0.0, 1.0, 2.0, 3.0],
            &[0.0, 1.0, 0.0, 1.0],
            BoundaryCondition::Natural,
        )
        .unwrap();
        assert!(s.roughness() > 0.1);
    }

    #[test]
    fn falling_demand_curve_shape() {
        // Shaped like the paper's Fig. 5/10: demand falls with concurrency.
        let n = [1.0, 14.0, 28.0, 70.0, 140.0, 210.0];
        let d = [0.016, 0.0145, 0.0138, 0.0127, 0.0121, 0.0119];
        let s = CubicSpline::new(&n, &d, BoundaryCondition::NotAKnot).unwrap();
        // Interpolated values stay within the data envelope interior.
        for i in 1..=20 {
            let x = 10.0 * i as f64;
            let y = s.eval(x);
            assert!(y > 0.0110 && y < 0.0165, "x={x} y={y}");
        }
        // Clamped beyond the last sample.
        assert_eq!(s.eval(1500.0), 0.0119);
    }
}
