//! Monotone cubic interpolation (PCHIP, Fritsch–Carlson 1980).
//!
//! Service-demand curves are physically positive and usually monotone in
//! concurrency; an unconstrained cubic spline through noisy measurements can
//! overshoot (the "extra undulations" of the paper's Fig. 15). PCHIP is the
//! shape-preserving alternative used in the ablation benches: it never
//! overshoots the data and preserves local monotonicity, at the cost of only
//! C¹ (not C²) continuity.

use super::{segment_index, Interpolant};
use crate::{validate_knots, NumericsError};

/// Monotonicity-preserving piecewise cubic Hermite interpolant, clamped to
/// the boundary ordinates outside the knots.
#[derive(Debug, Clone)]
pub struct PchipInterp {
    xs: Vec<f64>,
    ys: Vec<f64>,
    /// First derivatives at the knots, chosen by the Fritsch–Carlson rules.
    d: Vec<f64>,
}

impl PchipInterp {
    /// Builds a PCHIP interpolant through `(xs, ys)`; needs ≥ 2 knots.
    pub fn new(xs: &[f64], ys: &[f64]) -> Result<Self, NumericsError> {
        validate_knots(xs, ys, 2)?;
        let n = xs.len();
        let h: Vec<f64> = (0..n - 1).map(|i| xs[i + 1] - xs[i]).collect();
        let delta: Vec<f64> = (0..n - 1).map(|i| (ys[i + 1] - ys[i]) / h[i]).collect();

        let mut d = vec![0.0; n];
        if n == 2 {
            // Two knots: the interpolant is the secant line.
            d.fill(*delta.first().expect("two knots give one secant"));
        } else {
            // Interior: weighted harmonic mean when secants share sign.
            for i in 1..n - 1 {
                if delta[i - 1] * delta[i] > 0.0 {
                    let w1 = 2.0 * h[i] + h[i - 1];
                    let w2 = h[i] + 2.0 * h[i - 1];
                    d[i] = (w1 + w2) / (w1 / delta[i - 1] + w2 / delta[i]);
                } else {
                    d[i] = 0.0;
                }
            }
            // Endpoints: one-sided three-point estimates. n >= 3 here, so
            // both slices hold at least two elements.
            if let (Some(slot), [h0, h1, ..], [del0, del1, ..]) =
                (d.first_mut(), h.as_slice(), delta.as_slice())
            {
                *slot = Self::edge_slope(*h0, *h1, *del0, *del1);
            }
            d[n - 1] = Self::edge_slope(h[n - 2], h[n - 3], delta[n - 2], delta[n - 3]);
        }

        Ok(Self {
            xs: xs.to_vec(),
            ys: ys.to_vec(),
            d,
        })
    }

    /// One-sided three-point estimate for endpoint slopes with the
    /// Fritsch–Carlson monotonicity clamps.
    fn edge_slope(h0: f64, h1: f64, del0: f64, del1: f64) -> f64 {
        let mut d = ((2.0 * h0 + h1) * del0 - h0 * del1) / (h0 + h1);
        // lint: float-eq-ok Fritsch-Carlson clamps key on the exact flat-segment case
        if d.signum() != del0.signum() || del0 == 0.0 {
            d = 0.0;
        } else if del0.signum() != del1.signum() && d.abs() > 3.0 * del0.abs() {
            d = 3.0 * del0;
        }
        d
    }

    /// Evaluates the Hermite piece containing `x`.
    fn eval_piece(&self, x: f64) -> f64 {
        let i = segment_index(&self.xs, x);
        let h = self.xs[i + 1] - self.xs[i];
        let t = (x - self.xs[i]) / h;
        let (y0, y1) = (self.ys[i], self.ys[i + 1]);
        let (d0, d1) = (self.d[i], self.d[i + 1]);
        // Cubic Hermite basis.
        let t2 = t * t;
        let t3 = t2 * t;
        let h00 = 2.0 * t3 - 3.0 * t2 + 1.0;
        let h10 = t3 - 2.0 * t2 + t;
        let h01 = -2.0 * t3 + 3.0 * t2;
        let h11 = t3 - t2;
        h00 * y0 + h10 * h * d0 + h01 * y1 + h11 * h * d1
    }
}

impl Interpolant for PchipInterp {
    fn eval(&self, x: f64) -> f64 {
        let (lo, hi) = self.domain();
        if x < lo {
            return *self.ys.first().expect("non-empty");
        }
        if x > hi {
            return *self.ys.last().expect("non-empty");
        }
        self.eval_piece(x)
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
    fn interpolates_knots() {
        let xs = [0.0, 1.0, 2.0, 4.0, 7.0];
        let ys = [5.0, 3.0, 2.5, 2.0, 1.9];
        let p = PchipInterp::new(&xs, &ys).unwrap();
        for (x, y) in xs.iter().zip(ys.iter()) {
            assert!(close(p.eval(*x), *y, 1e-12));
        }
    }

    #[test]
    fn preserves_monotonicity_on_decreasing_data() {
        // Falling demand curve; interpolant must be non-increasing everywhere.
        let xs = [1.0, 14.0, 28.0, 70.0, 140.0, 210.0];
        let ys = [0.016, 0.0145, 0.0138, 0.0127, 0.0121, 0.0119];
        let p = PchipInterp::new(&xs, &ys).unwrap();
        let mut prev = f64::INFINITY;
        for i in 0..=500 {
            let x = 1.0 + i as f64 * (209.0 / 500.0);
            let y = p.eval(x);
            assert!(y <= prev + 1e-12, "not monotone at x={x}");
            prev = y;
        }
    }

    #[test]
    fn never_overshoots_the_data_envelope() {
        let xs = [0.0, 1.0, 2.0, 3.0, 4.0];
        let ys = [0.0, 0.0, 1.0, 1.0, 1.0]; // step-ish data
        let p = PchipInterp::new(&xs, &ys).unwrap();
        for i in 0..=400 {
            let x = i as f64 * 0.01;
            let y = p.eval(x);
            assert!((-1e-12..=1.0 + 1e-12).contains(&y), "overshoot at {x}: {y}");
        }
    }

    #[test]
    fn flat_data_has_zero_slopes() {
        let p = PchipInterp::new(&[0.0, 1.0, 2.0], &[4.0, 4.0, 4.0]).unwrap();
        assert_eq!(p.d, [0.0; 3]);
        assert_eq!(p.eval(0.5), 4.0);
    }

    #[test]
    fn local_extremum_gets_zero_slope() {
        // Secants change sign at x=1 => knot slope forced to 0.
        let p = PchipInterp::new(&[0.0, 1.0, 2.0], &[0.0, 1.0, 0.0]).unwrap();
        assert_eq!(p.d[1], 0.0);
    }

    #[test]
    fn two_points_is_linear() {
        let p = PchipInterp::new(&[0.0, 2.0], &[0.0, 4.0]).unwrap();
        assert!(close(p.eval(1.0), 2.0, 1e-12));
        assert_eq!(p.d, [2.0, 2.0]);
    }

    #[test]
    fn clamp_extrapolation() {
        let p = PchipInterp::new(&[1.0, 2.0, 3.0], &[9.0, 7.0, 6.0]).unwrap();
        assert_eq!(p.eval(0.0), 9.0);
        assert_eq!(p.eval(10.0), 6.0);
    }
}
